"""Value spaces, exact vectors, certified norms, and dual functionals.

Coordinates are arbitrary-precision rationals throughout.  Norms that are
themselves rational (l1, sup, max-of-levels) come back exact; the Euclidean
norm comes back as a certified enclosure [lo, hi] produced by an
outward-rounded integer square root, never as a float.  Step-function values
(the L-infinity-like space) are stored with their own merged breakpoints; the
space's grid depth is the resolution contract and every breakpoint must sit on
that grid.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .errors import SpaceMismatch
from .exact import D0, D1, Dyadic

L1, L2, LINF = "l1", "l2", "linf"


class Enclosure:
    """Certified rational bounds lo <= true value <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("enclosure bounds out of order")
        self.lo = lo
        self.hi = hi

    @classmethod
    def exact(cls, q) -> "Enclosure":
        q = Fraction(q)
        return cls(q, q)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __repr__(self):
        if self.is_exact:
            return f"Enclosure({self.lo})"
        return f"Enclosure({self.lo}, {self.hi})"


def sqrt_enclosure(q: Fraction, bits: int = 64) -> Enclosure:
    """Enclosure of sqrt(q) with width <= 2^-bits; exact for perfect squares."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return Enclosure.exact(0)
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Enclosure.exact(Fraction(rn, rd))
    scaled = (q.numerator << (2 * bits)) // q.denominator
    s = isqrt(scaled)
    return Enclosure(Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits))


class ValueSpace:
    """Descriptor of where integrand values live.

    kinds: "findim" (dim, norm in {l1,l2,linf}) | "seq_l2" (dim) |
    "seq_sup" (dim) | "step_linf" (grid_depth).
    """

    __slots__ = ("kind", "dim", "norm", "grid_depth")

    def __init__(self, kind: str, dim: int = 0, norm: str = L2, grid_depth: int = 0):
        if kind not in ("findim", "seq_l2", "seq_sup", "step_linf"):
            raise ValueError(f"unknown space kind {kind!r}")
        if kind != "step_linf" and dim < 1:
            raise ValueError("coordinate space needs dim >= 1")
        self.kind = kind
        self.dim = dim
        self.norm = norm if kind == "findim" else {"seq_l2": L2, "seq_sup": LINF}.get(kind, LINF)
        self.grid_depth = grid_depth

    @classmethod
    def findim(cls, dim: int, norm: str = L2) -> "ValueSpace":
        if norm not in (L1, L2, LINF):
            raise ValueError(f"unknown norm {norm!r}")
        return cls("findim", dim=dim, norm=norm)

    @classmethod
    def seq_l2(cls, dim: int) -> "ValueSpace":
        return cls("seq_l2", dim=dim)

    @classmethod
    def seq_sup(cls, dim: int) -> "ValueSpace":
        return cls("seq_sup", dim=dim)

    @classmethod
    def step_linf(cls, grid_depth: int) -> "ValueSpace":
        return cls("step_linf", grid_depth=grid_depth)

    @property
    def is_step(self) -> bool:
        return self.kind == "step_linf"

    def __eq__(self, other):
        return (
            isinstance(other, ValueSpace)
            and (self.kind, self.dim, self.norm, self.grid_depth)
            == (other.kind, other.dim, other.norm, other.grid_depth)
        )

    def __hash__(self):
        return hash((self.kind, self.dim, self.norm, self.grid_depth))

    def __repr__(self):
        if self.is_step:
            return f"ValueSpace.step_linf({self.grid_depth})"
        return f"ValueSpace({self.kind}, dim={self.dim}, norm={self.norm})"

    def describe(self) -> dict:
        if self.is_step:
            return {"kind": self.kind, "grid_depth": self.grid_depth}
        return {"kind": self.kind, "dim": self.dim, "norm": self.norm}


def _merge_steps(a_breaks, a_levels, b_breaks, b_levels):
    """Common refinement of two step functions; returns (lo, hi, la, lb) runs.
    The breaks are int keys on one grid."""
    out = []
    ia = ib = 0
    cur = a_breaks[0]
    while cur < a_breaks[-1]:
        hi_a = a_breaks[ia + 1]
        hi_b = b_breaks[ib + 1]
        hi = hi_a if hi_a <= hi_b else hi_b
        out.append((cur, hi, a_levels[ia], b_levels[ib]))
        if hi == hi_a:
            ia += 1
        if hi == hi_b:
            ib += 1
        cur = hi
    return out


def _canonical_steps(runs):
    """Merge adjacent runs with equal level; returns (breaks, levels)."""
    breaks = [runs[0][0]]
    levels = []
    for lo, hi, level in runs:
        if levels and level == levels[-1]:
            breaks[-1] = hi
        else:
            levels.append(level)
            breaks.append(hi)
    return tuple(breaks), tuple(levels)


class VectorValue:
    """Element of a ValueSpace with exact rational data."""

    __slots__ = ("space", "data")

    def __init__(self, space: ValueSpace, data):
        self.space = space
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def coords(cls, space: ValueSpace, values: Sequence) -> "VectorValue":
        if space.is_step:
            raise ValueError("use VectorValue.step for step_linf values")
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != space.dim:
            raise ValueError(f"expected {space.dim} coordinates, got {len(vals)}")
        return cls(space, vals)

    @classmethod
    def step(cls, space: ValueSpace, breaks: Sequence[Dyadic], levels: Sequence) -> "VectorValue":
        if not space.is_step:
            raise ValueError("step data needs a step_linf space")
        bl = list(breaks)
        lv = [Fraction(v) for v in levels]
        if len(lv) != len(bl) - 1:
            raise ValueError("need one level per cell")
        if bl[0] != D0 or bl[-1] != D1:
            raise ValueError("step value must span [0,1]")
        if any(b.exp > space.grid_depth for b in bl):
            raise ValueError(f"breakpoint finer than grid depth {space.grid_depth}")
        if any(b >= c for b, c in zip(bl, bl[1:])):
            raise ValueError("breakpoints must increase")
        runs = list(zip(bl, bl[1:], lv))
        breaks_c, levels_c = _canonical_steps(runs)
        return cls(space, (breaks_c, levels_c))

    @classmethod
    def zero(cls, space: ValueSpace) -> "VectorValue":
        if space.is_step:
            return cls.step(space, [D0, D1], [0])
        return cls.coords(space, [0] * space.dim)

    @classmethod
    def basis(cls, space: ValueSpace, n: int) -> "VectorValue":
        if space.is_step:
            raise ValueError("no canonical basis for step values; build explicitly")
        vals = [0] * space.dim
        vals[n] = 1
        return cls.coords(space, vals)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "VectorValue") -> "VectorValue":
        return linear_combination(self.space, ((1, self), (1, other)))

    def __sub__(self, other: "VectorValue") -> "VectorValue":
        return linear_combination(self.space, ((1, self), (-1, other)))

    def __mul__(self, scalar) -> "VectorValue":
        return linear_combination(self.space, ((scalar, self),))

    __rmul__ = __mul__

    # -- norms ---------------------------------------------------------------

    def norm(self, bits: int = 64) -> Enclosure:
        if self.space.is_step:
            _, levels = self.data
            return Enclosure.exact(max((abs(l) for l in levels), default=Fraction(0)))
        if self.space.norm == L1:
            return Enclosure.exact(sum((abs(v) for v in self.data), Fraction(0)))
        if self.space.norm == LINF:
            return Enclosure.exact(max((abs(v) for v in self.data), default=Fraction(0)))
        square = sum((v * v for v in self.data), Fraction(0))
        return sqrt_enclosure(square, bits=bits)

    def step_eval(self, t) -> Fraction:
        """Level of a step value at point t (half-open cells, last closed).
        Breaks lie on the grid 2^-g, and k / 2^g <= t iff k <= floor(t * 2^g)."""
        breaks, levels = self.data
        g = self.space.grid_depth
        tq = t.as_fraction() if isinstance(t, Dyadic) else Fraction(t)
        return levels[bisect_right(breaks, (tq.numerator << g) // tq.denominator, 1, len(levels),
                                   key=lambda b: b.num << (g - b.exp)) - 1]

    def __eq__(self, other):
        return (
            isinstance(other, VectorValue)
            and self.space == other.space
            and self.data == other.data
        )

    def __repr__(self):
        return f"VectorValue({self.space!r}, {self.data!r})"


def _coefficient(space: ValueSpace, c, v: VectorValue):
    """c as an exact rational, once v is known to live in space."""
    if v.space is not space and v.space != space:
        raise SpaceMismatch(f"{space} vs {v.space}")
    return c if isinstance(c, (Fraction, int)) else Fraction(c)


def linear_combination(space: ValueSpace, terms) -> VectorValue:
    """Sum of c * v over an iterable of (c, v) pairs, in one pass.

    Every v must live in `space` (else SpaceMismatch); each c is an exact
    rational.  The result is the left fold of `+` over the scaled terms, with
    the same canonical data.  Coordinate values sum into one list in place.
    A step value adds c * (level change) at each of its breakpoints into a
    dict keyed by integer grid position, so a term costs O(breaks of v) however
    many cells the sum already has; one sorted prefix sum at the end emits a
    breakpoint only where the level changes, which is the canonical form.
    """
    if space.is_step:
        return _step_combination(space, terms)
    acc = None
    for c, v in terms:
        c = _coefficient(space, c, v)
        if not c:
            continue
        if acc is None:
            acc = list(v.data) if c == 1 else [c * x for x in v.data]
        elif c == 1:
            for i, x in enumerate(v.data):
                acc[i] += x
        elif c == -1:
            for i, x in enumerate(v.data):
                acc[i] -= x
        else:
            for i, x in enumerate(v.data):
                acc[i] += c * x
    return VectorValue(space, tuple(acc) if acc is not None else (Fraction(0),) * space.dim)


def _step_combination(space: ValueSpace, terms) -> VectorValue:
    g = space.grid_depth
    jumps: dict[int, Fraction] = {}
    for c, v in terms:
        c = _coefficient(space, c, v)
        if not c:
            continue
        breaks, levels = v.data
        prev = 0
        for b, level in zip(breaks, levels):  # each cell's left end
            pos = b.num << (g - b.exp)
            jumps[pos] = jumps.get(pos, 0) + c * (level - prev)
            prev = level
    out_breaks, out_levels = [D0], []
    level = Fraction(0)
    for pos in sorted(jumps):
        jump = jumps[pos]
        if jump:
            if pos:
                out_breaks.append(Dyadic(pos, g))
                out_levels.append(level)
            level += jump
    out_breaks.append(D1)
    out_levels.append(level)
    return VectorValue(space, (tuple(out_breaks), tuple(out_levels)))


def distance(u: VectorValue, v: VectorValue, bits: int = 64) -> Enclosure:
    return (u - v).norm(bits=bits)


class DualFunctional:
    """Norm-one-capped linear functional on a ValueSpace.

    kinds: coordinate(n) | combination(coeffs) | step_pairing(density).
    norm_bound is a certified upper bound on the dual norm (exact where the
    dual norm is rational, an enclosure hi for the Euclidean one).
    """

    __slots__ = ("space", "kind", "params", "norm_bound", "label")

    def __init__(self, space, kind, params, norm_bound, label):
        self.space = space
        self.kind = kind
        self.params = params
        self.norm_bound = norm_bound
        self.label = label

    @classmethod
    def coordinate(cls, space: ValueSpace, n: int) -> "DualFunctional":
        limit = (1 << space.grid_depth) if space.is_step else space.dim
        if not 0 <= n < limit:
            raise ValueError(f"coordinate {n} out of range")
        return cls(space, "coordinate", n, Fraction(1), f"e*{n}")

    @classmethod
    def combination(cls, space: ValueSpace, coeffs: Sequence) -> "DualFunctional":
        if space.is_step:
            raise ValueError("combinations act on coordinate spaces")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != space.dim:
            raise ValueError("one coefficient per coordinate")
        if space.norm == L2:
            bound = sqrt_enclosure(sum((c * c for c in cs), Fraction(0))).hi
        elif space.norm == L1:
            bound = max((abs(c) for c in cs), default=Fraction(0))
        else:  # dual of sup-normed coordinates is the absolute sum
            bound = sum((abs(c) for c in cs), Fraction(0))
        return cls(space, "combination", cs, bound, "combo")

    @classmethod
    def step_pairing(cls, space: ValueSpace, density: VectorValue) -> "DualFunctional":
        if not space.is_step or density.space != space:
            raise ValueError("step pairing needs a density in the same step space")
        breaks, levels = density.data
        bound = sum(
            (abs(l) * (hi - lo).as_fraction() for lo, hi, l in zip(breaks, breaks[1:], levels)),
            Fraction(0),
        )
        return cls(space, "step_pairing", density, bound, "pairing")

    def __call__(self, v: VectorValue) -> Fraction:
        if v.space != self.space:
            raise SpaceMismatch(f"{v.space} vs {self.space}")
        if self.kind == "coordinate":
            if self.space.is_step:
                n = self.params
                mid = Fraction(2 * n + 1, 1 << (self.space.grid_depth + 1))
                return v.step_eval(mid)
            return v.data[self.params]
        if self.kind == "combination":
            return sum((c * x for c, x in zip(self.params, v.data)), Fraction(0))
        # both step functions on the grid 2^-g, their breaks as int keys
        g = self.space.grid_depth
        db, dl = self.params.data
        vb, vl = v.data
        total = Fraction(0)
        for lo, hi, ld, lv in _merge_steps([b.num << (g - b.exp) for b in db], dl,
                                           [b.num << (g - b.exp) for b in vb], vl):
            if ld and lv:
                total += ld * lv * (hi - lo)
        return total / (1 << g)

    def describe(self) -> dict:
        out = {"kind": self.kind, "norm_bound": str(self.norm_bound)}
        if self.kind == "coordinate":
            out["index"] = self.params
        elif self.kind == "combination":
            out["coeffs"] = [str(c) for c in self.params]
        else:
            breaks, levels = self.params.data
            out["density_breaks"] = [str(b) for b in breaks]
            out["density_levels"] = [str(l) for l in levels]
        return out


def apply(f: DualFunctional, v: VectorValue) -> Fraction:
    return f(v)
