"""Exact dyadic arithmetic and finite interval unions on the line.

Everything in this module is integer arithmetic underneath: a dyadic rational
is numerator/2**exponent with a canonical form (odd numerator, or exponent 0),
an interval is a closed [lo, hi] with dyadic endpoints, and a region is a
normalized finite union of closed intervals.  A region holds its parts as two
sorted int columns, lo and hi, at one exponent, the smallest its endpoints
allow; set operations, point lookups and translates work on the columns, and
the parts as Interval objects are built only when a caller reads `parts`.
Set operations on regions are computed exactly and work modulo null sets:
touching endpoints merge, and the binary combinators never emit degenerate
parts.  No floats enter any code path here.  The int rules that the other
modules share live here too: `canonical_exp` and `over_one_den`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import MalformedInterval

Rational = Union["Dyadic", Fraction, int]

_DYADIC_RE = re.compile(r"^(-?\d+)(?:/2\^(\d+))?$")
_POW_RE = re.compile(r"^2\^(-?\d+)$")
_PLAIN_FRAC_RE = re.compile(r"^(-?\d+)/(\d+)$")

# the largest |k| of a literal's 2^k, so that 2^k takes at most 128 KiB; a
# report prints no fraction past 2^14284 (4,300 digits), far below it
MAX_LITERAL_EXP = 1 << 20


def _exponent(digits: str) -> int:
    """A literal's exponent k, refused past MAX_LITERAL_EXP before any 2^k is built."""
    k = int(digits)
    if abs(k) > MAX_LITERAL_EXP:
        raise ValueError(f"exponent {digits} lies outside ±2^20")
    return k


class Dyadic:
    """Rational with a power-of-two denominator, kept in canonical form.

    Canonical means the numerator is odd or the exponent is 0, so equality is
    structural and serialization round-trips bit-exactly.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        elif exp and not num & 1:
            if num:
                # strip the trailing zero bits, at most exp of them, in one shift
                z = (num & -num).bit_length() - 1
                if z > exp:
                    z = exp
                num >>= z
                exp -= z
            else:
                exp = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Rational) -> "Dyadic":
        if isinstance(q, Dyadic):
            return q
        q = Fraction(q)
        den = q.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{q} is not dyadic (denominator {den})")
        return cls(q.numerator, exp)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse "p/2^k", "p/q" with q a power of two, a bare integer, or "2^-k"."""
        text = text.strip()
        m = _POW_RE.match(text)
        if m:
            k = _exponent(m.group(1))
            return cls(1, -k) if k < 0 else cls(1 << k, 0)
        m = _DYADIC_RE.match(text)
        if m:
            return cls(int(m.group(1)), _exponent(m.group(2) or "0"))
        m = _PLAIN_FRAC_RE.match(text)
        if m:
            return cls.from_fraction(parse_fraction(text))
        raise ValueError(f"not a dyadic literal: {text!r}")

    # -- representation --------------------------------------------------

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    # -- arithmetic -------------------------------------------------------

    def _align(self, other: "Dyadic") -> tuple[int, int, int]:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp), e

    def __sub__(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        if not isinstance(other, Dyadic):
            return NotImplemented
        a, b, e = self._align(other)
        return Dyadic(a - b, e)

    # -- comparisons ------------------------------------------------------

    def _cmp(self, other) -> int:
        if isinstance(other, Dyadic):
            a, b, _ = self._align(other)
            return (a > b) - (a < b)
        q = Fraction(other)
        lhs = self.num * q.denominator
        rhs = q.numerator << self.exp
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        if isinstance(other, Dyadic):
            return self.num == other.num and self.exp == other.exp
        if isinstance(other, (int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        return hash(self.as_fraction())

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0


D0 = Dyadic(0)
D1 = Dyadic(1)


class DyadicCuts:
    """Sorted dyadic cut points as ints at their largest exponent.

    A cut k/2^exp is <= n/2^e iff k <= floor(n * 2^(exp - e)), so the
    half-open cell lookup is a search over ints whose probe is a shift.
    """

    __slots__ = ("keys", "exp")

    def __init__(self, cuts: Iterable[Dyadic]):
        cuts = list(cuts)
        self.exp = max((c.exp for c in cuts), default=0)
        self.keys = [c.num << (self.exp - c.exp) for c in cuts]

    def cell_at(self, n: int, e: int) -> int:
        """Number of cuts <= n / 2^e: the index of the cell [c_{i-1}, c_i)
        holding it."""
        s = self.exp - e
        return bisect_right(self.keys, n << s if s >= 0 else n >> -s)


class Interval:
    """Closed interval [lo, hi] with dyadic endpoints; degenerate (lo == hi) allowed."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if not isinstance(lo, Dyadic) or not isinstance(hi, Dyadic):
            raise MalformedInterval("endpoints must be Dyadic")
        if lo > hi:
            raise MalformedInterval(f"endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    @classmethod
    def make(cls, lo, hi) -> "Interval":
        return cls(Dyadic.from_fraction(lo), Dyadic.from_fraction(hi))

    @property
    def length(self) -> Dyadic:
        return self.hi - self.lo

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


class Region:
    """Normalized finite union of closed intervals, held as int columns.

    Part i is [lo[i], hi[i]] / 2^exp.  The parts are sorted, and parts that
    overlap or merely touch are merged, so `hi` increases along with `lo`.
    exp is the smallest exponent (>= 0) at which every endpoint is an int, so
    two regions describing the same point set have equal columns.  Degenerate
    parts are kept by the constructor (a caller may care about isolated
    points) but are never produced by the binary combinators, which work
    modulo null sets.  `parts`, the same union as Interval objects, is built
    when first read.
    """

    __slots__ = ("exp", "lo", "hi", "_parts")

    def __init__(self, parts: Iterable[Interval] = ()):
        parts = list(parts)
        e = max((max(iv.lo.exp, iv.hi.exp) for iv in parts), default=0)
        m = merged_region(e, ((iv.lo.num << (e - iv.lo.exp), iv.hi.num << (e - iv.hi.exp))
                              for iv in parts))
        self._store(m.exp, m.lo, m.hi)

    @classmethod
    def _columns(cls, exp: int, lo: Sequence[int], hi: Sequence[int]) -> "Region":
        """Wrap columns at exponent exp that are already sorted, disjoint and
        non-touching."""
        region = object.__new__(cls)
        region._store(exp, lo, hi)
        return region

    def _store(self, exp: int, lo: Sequence[int], hi: Sequence[int]) -> None:
        z = shared_zeros(exp, (*lo, *hi))
        if z:
            lo = [x >> z for x in lo]
            hi = [x >> z for x in hi]
        object.__setattr__(self, "exp", exp - z)
        object.__setattr__(self, "lo", tuple(lo))
        object.__setattr__(self, "hi", tuple(hi))
        object.__setattr__(self, "_parts", None)

    def __setattr__(self, name, value):
        raise AttributeError("Region is immutable")

    @property
    def parts(self) -> tuple[Interval, ...]:
        if self._parts is None:
            e = self.exp
            object.__setattr__(self, "_parts", tuple(
                Interval(Dyadic(a, e), Dyadic(b, e)) for a, b in zip(self.lo, self.hi)))
        return self._parts

    @classmethod
    def make(cls, *pairs) -> "Region":
        return cls(Interval.make(lo, hi) for lo, hi in pairs)

    @classmethod
    def empty(cls) -> "Region":
        return cls(())

    def is_empty(self) -> bool:
        return not self.lo

    def measure(self) -> Dyadic:
        return Dyadic(sum(self.hi) - sum(self.lo), self.exp)

    def _probe(self, x: Rational) -> tuple[int, int, int]:
        """(i, X, b) for x = X / (b * 2^exp): i counts the parts starting at
        or before x, found by bisecting lo on floor(x * 2^exp)."""
        if isinstance(x, Dyadic):
            a, b = x.num, 1 << x.exp
        else:
            q = Fraction(x)
            a, b = q.numerator, q.denominator
        X = a << self.exp
        return bisect_right(self.lo, X // b), X, b

    def contains(self, x: Rational) -> bool:
        # parts are sorted and disjoint: only the last part starting at or
        # before x can hold it
        i, X, b = self._probe(x)
        return i > 0 and self.hi[i - 1] * b >= X

    def translate(self, t: Dyadic) -> "Region":
        # a translate of a normalized region is normalized
        e = max(self.exp, t.exp)
        s, k = e - self.exp, t.num << (e - t.exp)
        lo = [(x << s) + k for x in self.lo]
        return Region._columns(e, lo, [(x << s) + k for x in self.hi])

    def scale_half(self) -> "Region":
        """Image under x -> x/2 (used for self-sum exclusions)."""
        return Region._columns(self.exp + 1, self.lo, self.hi)

    def bounding(self) -> Interval | None:
        if not self.lo:
            return None
        return Interval(Dyadic(self.lo[0], self.exp), Dyadic(self.hi[-1], self.exp))

    def distance_to_point(self, x: Rational) -> Fraction:
        """Exact distance from x to the region (0 if inside); raises for an empty region."""
        if not self.lo:
            raise ValueError("distance to empty region")
        # the nearest part is the last one starting at or before x, or the next;
        # both distances are over the denominator b * 2^exp
        i, X, b = self._probe(x)
        best = None
        if i > 0:
            best = X - self.hi[i - 1] * b
            if best <= 0:
                return Fraction(0)
        if i < len(self.lo):
            after = self.lo[i] * b - X
            if best is None or after < best:
                best = after
        return Fraction(best, b << self.exp)

    def __eq__(self, other):
        return (isinstance(other, Region) and self.exp == other.exp
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self):
        return hash((self.exp, self.lo, self.hi))

    def __repr__(self):
        return f"Region({', '.join(f'[{lo}, {hi}]' for lo, hi in format_region(self))})"


def canonical_exp(n: int, e: int) -> int:
    """The exponent of n / 2^e in canonical form."""
    if not n:
        return 0
    z = (n & -n).bit_length() - 1
    return e - z if z < e else 0


def shared_zeros(exp: int, xs: Iterable[int]) -> int:
    """The trailing zero bits that every x shares, at most exp: the points
    x / 2^exp are ints at exponent exp - shared_zeros(exp, xs), the smallest."""
    bits = 0
    for x in xs:
        bits |= x
    return exp - canonical_exp(bits, exp)


def over_one_den(values: Iterable) -> tuple[list[int], int]:
    """(numerators, d): the rationals over the lcm d of their reduced
    denominators, so gcd(numerators, d) = 1."""
    values = [q if isinstance(q, (int, Fraction)) else Fraction(q) for q in values]
    den = lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


def merged_region(exp: int, pairs: Iterable[tuple[int, int]]) -> Region:
    """The region of the parts (a, b) / 2^exp, sorted and merged where they
    overlap or touch."""
    lo: list[int] = []
    hi: list[int] = []
    for a, b in sorted(pairs):
        if hi and a <= hi[-1]:
            if b > hi[-1]:
                hi[-1] = b
        else:
            lo.append(a)
            hi.append(b)
    return Region._columns(exp, lo, hi)


# keep rule per op, indexed by 2 * in_a + in_b
_KEEP = {
    "union": (False, True, True, True),
    "intersect": (False, False, False, True),
    "subtract": (False, False, True, False),
    "symmdiff": (False, True, True, False),
}


def region_combine(a: Region, b: Region, op: str) -> Region:
    """Exact set algebra on regions, modulo null sets.

    op is one of union | intersect | subtract | symmdiff.  The result carries
    no degenerate parts: endpoint-only overlaps count as disjoint, matching the
    non-overlapping convention used for tagged partitions.

    One linear sweep: every endpoint is scaled to a common exponent e as an
    int, degenerate parts are dropped, and the gaps between consecutive
    distinct endpoints are visited in order with one cursor into each region's
    parts.  A gap lies in a region iff the cursor's part starts at or before
    the gap's left end; kept gaps that touch are merged as they come.
    """
    keep = _KEEP.get(op)
    if keep is None:
        raise ValueError(f"unknown op {op!r}")
    e = max(a.exp, b.exp)
    sa, sb = e - a.exp, e - b.exp
    # membership is decided against positive-length parts only: the combinators
    # work modulo null sets, so isolated points neither add nor remove anything
    pa = [(x << sa, y << sa) for x, y in zip(a.lo, a.hi) if x < y]
    pb = [(x << sb, y << sb) for x, y in zip(b.lo, b.hi) if x < y]
    cuts = sorted({x for part in pa + pb for x in part})
    if not cuts:
        return Region.empty()
    # a sentinel part past every cut ends both cursors' walks
    sentinel = (cuts[-1] + 1, cuts[-1] + 1)
    pa.append(sentinel)
    pb.append(sentinel)
    lo: list[int] = []
    hi: list[int] = []
    ia = ib = 0
    for x, y in zip(cuts, cuts[1:]):
        while pa[ia][1] <= x:
            ia += 1
        while pb[ib][1] <= x:
            ib += 1
        if keep[2 * (pa[ia][0] <= x) + (pb[ib][0] <= x)]:
            # a kept gap that touches the run before it extends that run
            if hi and hi[-1] == x:
                hi[-1] = y
            else:
                lo.append(x)
                hi.append(y)
    # runs are separated by at least one dropped gap, so the columns are normalized
    return Region._columns(e, lo, hi)


def region_union(a: Region, b: Region) -> Region:
    return region_combine(a, b, "union")


def region_intersect(a: Region, b: Region) -> Region:
    return region_combine(a, b, "intersect")


def region_subtract(a: Region, b: Region) -> Region:
    return region_combine(a, b, "subtract")


UNIT = Interval(D0, D1)
UNIT_REGION = Region((UNIT,))


def parse_region(text: str) -> Region:
    """Parse "a:b+c:d" with dyadic endpoint literals."""
    pairs = []
    for chunk in text.split("+"):
        lo, _, hi = chunk.partition(":")
        if not hi:
            raise ValueError(f"region part needs lo:hi, got {chunk!r}")
        pairs.append((Dyadic.parse(lo), Dyadic.parse(hi)))
    return Region(Interval(lo, hi) for lo, hi in pairs)


def format_region(region: Region) -> list[list[str]]:
    e = region.exp
    return [[str(Dyadic(a, e)), str(Dyadic(b, e))] for a, b in zip(region.lo, region.hi)]


def parse_fraction(text: str) -> Fraction:
    """Parse a general rational: "p/q", "p/2^k", "2^-k", or an integer."""
    text = text.strip()
    m = _POW_RE.match(text)
    if m:
        k = _exponent(m.group(1))
        return Fraction(1, 1 << -k) if k < 0 else Fraction(1 << k)
    m = _DYADIC_RE.match(text)
    if m:
        return Fraction(int(m.group(1)), 1 << _exponent(m.group(2) or "0"))
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))
