"""Value spaces, exact vectors, certified norms, and dual functionals.

Norms that are themselves rational (l1, sup, max-of-levels) come back exact;
the Euclidean norm comes back as a certified enclosure [lo, hi] produced by an
outward-rounded integer square root, never as a float.

Every value is int columns over one positive denominator d.  A coordinate
value holds numerators n_0..n_{dim-1}, coordinate i being n_i / d.  A
step-function value (the L-infinity-like space) also holds break keys on the
space's grid 2^-g, k_0 = 0 < ... < k_m = 2^g, so cell [k_i, k_{i+1}) / 2^g
has level n_i / d.  The grid depth is the resolution contract: every
breakpoint must sit on that grid.  The columns are canonical (gcd(n, d) = 1,
and no two adjacent step levels equal), so equal values have equal columns.
Sums, norms, distances and pairings work on the columns in ints and build one
Fraction per result; the Fraction form `data` is built only when read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, isqrt, lcm
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


def _over_one_den(values: Sequence) -> tuple[list, int]:
    """(numerators, d): the rationals over the lcm d of their reduced
    denominators, so gcd(numerators, d) = 1."""
    values = [q if isinstance(q, (int, Fraction)) else Fraction(q) for q in values]
    den = lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


def _step_columns(space: ValueSpace, breaks: Sequence[Dyadic], levels: Sequence):
    """Canonical columns (keys, nums, den) of the step function with Dyadic
    breaks on the space's grid and rational levels; ValueError if it is not one."""
    breaks, levels = list(breaks), list(levels)
    if len(levels) != len(breaks) - 1:
        raise ValueError("need one level per cell")
    if breaks[0] != D0 or breaks[-1] != D1:
        raise ValueError("step value must span [0,1]")
    g = space.grid_depth
    if any(b.exp > g for b in breaks):
        raise ValueError(f"breakpoint finer than grid depth {g}")
    keys = [b.num << (g - b.exp) for b in breaks]
    if any(k >= j for k, j in zip(keys, keys[1:])):
        raise ValueError("breakpoints must increase")
    nums, den = _over_one_den(levels)
    out_keys, out_nums = [0], []
    for k, n in zip(keys[1:], nums):
        if out_nums and n == out_nums[-1]:
            out_keys[-1] = k
        else:
            out_nums.append(n)
            out_keys.append(k)
    return tuple(out_keys), tuple(out_nums), den


class VectorValue:
    """Element of a ValueSpace with exact rational data.

    Every value keeps the canonical int columns of the module docstring:
    `nums` over the positive `den`, and for a step value its break `keys`
    (None for a coordinate value).  `data` is the same value as Fractions: a
    coordinate value's tuple of Fractions, or a step value's (Dyadic breaks,
    Fraction levels).  It is built from the columns on first read, or kept
    as given when the value is made from it.
    """

    __slots__ = ("space", "_data", "keys", "nums", "den")

    def __init__(self, space: ValueSpace, data):
        self.space = space
        self._data = data
        if space.is_step:
            self.keys, self.nums, self.den = _step_columns(space, *data)
        else:
            nums, self.den = _over_one_den(data)
            self.keys, self.nums = None, tuple(nums)

    @classmethod
    def _columns(cls, space: ValueSpace, keys, nums: tuple, den: int) -> "VectorValue":
        """A value from columns that are already canonical; keys is None for
        a coordinate value."""
        v = cls.__new__(cls)
        v.space, v._data, v.keys, v.nums, v.den = space, None, keys, nums, den
        return v

    @property
    def data(self):
        if self._data is None:
            den = self.den
            levels = tuple(Fraction(n, den) for n in self.nums)
            if self.keys is None:
                self._data = levels
            else:
                g = self.space.grid_depth
                self._data = (tuple(Dyadic(k, g) for k in self.keys), levels)
        return self._data

    # -- constructors ------------------------------------------------------

    @classmethod
    def coords(cls, space: ValueSpace, values: Sequence) -> "VectorValue":
        if space.is_step:
            raise ValueError("use VectorValue.step for step_linf values")
        nums, den = _over_one_den(values)
        if len(nums) != space.dim:
            raise ValueError(f"expected {space.dim} coordinates, got {len(nums)}")
        return cls._columns(space, None, tuple(nums), den)

    @classmethod
    def step(cls, space: ValueSpace, breaks: Sequence[Dyadic], levels: Sequence) -> "VectorValue":
        if not space.is_step:
            raise ValueError("step data needs a step_linf space")
        return cls._columns(space, *_step_columns(space, breaks, levels))

    @classmethod
    def zero(cls, space: ValueSpace) -> "VectorValue":
        if space.is_step:
            return cls._columns(space, (0, 1 << space.grid_depth), (0,), 1)
        return cls._columns(space, None, (0,) * space.dim, 1)

    @classmethod
    def basis(cls, space: ValueSpace, n: int) -> "VectorValue":
        if space.is_step:
            raise ValueError("no canonical basis for step values; build explicitly")
        nums = [0] * space.dim
        nums[n] = 1
        return cls._columns(space, None, tuple(nums), 1)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "VectorValue") -> "VectorValue":
        return linear_combination(self.space, ((1, self), (1, other)))

    def __sub__(self, other: "VectorValue") -> "VectorValue":
        return linear_combination(self.space, ((1, self), (-1, other)))

    def __mul__(self, scalar) -> "VectorValue":
        return linear_combination(self.space, ((scalar, self),))

    __rmul__ = __mul__

    # -- norms ---------------------------------------------------------------

    def norm(self) -> Enclosure:
        """Σn² / d² under a root (l2), Σ|n| / d (l1), or max|n| / d (sup, and
        every step space)."""
        nums, den = self.nums, self.den
        if self.space.norm == L2:
            return sqrt_enclosure(Fraction(sum(n * n for n in nums), den * den))
        if self.space.norm == L1:
            top = Fraction(sum(map(abs, nums)), den)
        else:
            top = Fraction(max(map(abs, nums)), den)
        return Enclosure(top, top)

    def _level_at(self, key: int) -> Fraction:
        """Level at the points [key, key + 1) / 2^g, 0 <= key < 2^g: the cell
        whose key is the last one <= key."""
        return Fraction(self.nums[bisect_right(self.keys, key, 1, len(self.nums)) - 1], self.den)

    def __eq__(self, other):
        return (isinstance(other, VectorValue) and self.space == other.space
                and (self.keys, self.nums, self.den) == (other.keys, other.nums, other.den))

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
    the same canonical columns.  Every term adds ints into one dict over one
    common denominator D: a term whose denominator does not divide D raises D
    to their lcm and rescales the entries so far.  A coordinate value adds
    c * n at the index of each nonzero coordinate; a step value adds
    c * (level change) at each of its break keys, so a term costs O(breaks
    of v) however many cells the sum already has.  In a step space one
    sorted prefix sum at the end emits a break only where the level changes.
    Dividing out gcd(numerators, D) makes the columns canonical.
    """
    acc: dict[int, int] = {}
    den = 1
    for c, v in terms:
        c = _coefficient(space, c, v)
        if not c:
            continue
        q = c.denominator * v.den
        if den % q:
            grow = q // gcd(den, q)
            den *= grow
            for k in acc:
                acc[k] *= grow
        m = c.numerator * (den // q)
        if v.keys is None:
            for i, n in enumerate(v.nums):
                if n:
                    acc[i] = acc.get(i, 0) + m * n
        else:
            prev = 0
            for k, n in zip(v.keys, v.nums):  # each cell's left end
                acc[k] = acc.get(k, 0) + m * (n - prev)
                prev = n
    if space.is_step:
        keys, nums = [0], []
        level = 0
        for k in sorted(acc):
            jump = acc[k]
            if jump:
                if k:
                    keys.append(k)
                    nums.append(level)
                level += jump
        keys.append(1 << space.grid_depth)
        nums.append(level)
        keys = tuple(keys)
    else:
        keys, nums = None, [acc.get(i, 0) for i in range(space.dim)]
    r = gcd(den, *nums)
    if r != 1:
        den //= r
        nums = [n // r for n in nums]
    return VectorValue._columns(space, keys, tuple(nums), den)


def distance(u: VectorValue, v: VectorValue) -> Enclosure:
    """The norm of u - v.  Two step values give max |n_u d_v - n_v d_u| /
    (d_u d_v) over the pairs of cells that overlap, in ints: each cell of
    the value with fewer cells is compared with the smallest and largest
    levels of the other over the cells it meets, found by bisection."""
    if not u.space.is_step:
        return (u - v).norm()
    if v.space != u.space:
        raise SpaceMismatch(f"{u.space} vs {v.space}")
    if len(u.nums) > len(v.nums):
        u, v = v, u
    du, dv, keys, nums = u.den, v.den, v.keys, v.nums
    worst = 0
    for lo, hi, n in zip(u.keys, u.keys[1:], u.nums):
        # v's cells [keys[c], keys[c + 1]) that meet [lo, hi)
        run = nums[bisect_right(keys, lo) - 1:bisect_left(keys, hi)]
        a = n * dv
        worst = max(worst, a - min(run) * du, max(run) * du - a)
    top = Fraction(worst, du * dv)
    return Enclosure(top, top)


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
        keys, nums = density.keys, density.nums
        bound = Fraction(sum(abs(n) * (hi - lo) for lo, hi, n in zip(keys, keys[1:], nums)),
                         density.den << space.grid_depth)
        return cls(space, "step_pairing", density, bound, "pairing")

    def __call__(self, v: VectorValue) -> Fraction:
        if v.space != self.space:
            raise SpaceMismatch(f"{v.space} vs {self.space}")
        if self.kind == "coordinate":
            if self.space.is_step:
                # the middle of grid cell n is (2n + 1) / 2^(g+1): key n
                return v._level_at(self.params)
            return Fraction(v.nums[self.params], v.den)
        if self.kind == "combination":
            return sum((c * n for c, n in zip(self.params, v.nums) if n), Fraction(0)) / v.den
        # both step functions on the grid 2^-g: the integral of their product
        d = self.params
        total = sum(ld * lv * (hi - lo)
                    for lo, hi, ld, lv in _merge_steps(d.keys, d.nums, v.keys, v.nums) if ld and lv)
        return Fraction(total, (d.den * v.den) << self.space.grid_depth)

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

