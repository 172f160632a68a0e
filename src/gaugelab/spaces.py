"""Value spaces, exact vectors, certified norms, and dual functionals.

Norms that are themselves rational (l1, sup, max-of-levels) come back exact;
the Euclidean norm comes back as a certified enclosure [lo, hi] produced by an
outward-rounded integer square root, never as a float.

Every value is a step function on the int grid [0, N) of its space: its
dim coordinates, or the 2^g cells [k, k + 1) / 2^g of a step space (the
L-infinity-like space; g is the resolution contract, every breakpoint sits
on that grid).  It is held as int columns: run keys 0 = k_0 < ... < k_m = N
and one numerator n_i per run over one positive denominator d, so the cells
[k_i, k_{i+1}) have value n_i / d.  The columns are canonical (gcd(n, d) =
1, and no two adjacent runs equal), so equal values have equal columns and
c * e_n takes at most 3 runs.  Sums, norms, distances and pairings work on
the columns in ints and build one Fraction per result; the Fraction form
`data` is built only when read.  Every rule that depends on the norm lives
here, `spread` and `squared_distances` among them, for the integrators.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

from .errors import SpaceMismatch
from .exact import D0, D1, Dyadic, over_one_den

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

    @property
    def grid_size(self) -> int:
        """N, the number of cells of the grid a value is a step function on."""
        return 1 << self.grid_depth if self.is_step else self.dim

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


def _merge_steps(values: Sequence[VectorValue], den: int):
    """The common refinement of the values: for each cell [k, k') of the
    union of their run keys, in order, (k' - k, levels), the values' levels
    on it as numerators over den, a multiple of every value's denominator.
    levels is one list, updated in place from cell to cell."""
    changes: dict[int, list] = {}
    for i, v in enumerate(values):
        m = den // v.den
        for k, n in zip(v.keys, v.nums):
            changes.setdefault(k, []).append((i, n * m))
    cuts = sorted(changes)
    # every value starts a run at 0, so each level is set before it is read
    levels = [0] * len(values)
    for k, end in zip(cuts, [*cuts[1:], values[0].space.grid_size]):
        for i, n in changes[k]:
            levels[i] = n
        yield end - k, levels


def _runs(keys: Sequence[int], nums: Sequence[int]) -> tuple[tuple, tuple]:
    """(keys, nums) of the runs [keys[i], keys[i + 1]) at nums[i], with
    equal neighbours merged."""
    out_keys, out_nums = [0], []
    for k, n in zip(keys[1:], nums):
        if out_nums and n == out_nums[-1]:
            out_keys[-1] = k
        else:
            out_nums.append(n)
            out_keys.append(k)
    return tuple(out_keys), tuple(out_nums)


class VectorValue:
    """Element of a ValueSpace with exact rational data.

    Every value keeps the canonical int columns of the module docstring: run
    `keys` on the space's grid, one numerator per run in `nums`, and the
    positive `den`.  `data` is the same value as Fractions: a coordinate
    value's tuple of all dim coordinates, or a step value's (Dyadic breaks,
    Fraction levels).  It is built from the columns on first read.
    """

    __slots__ = ("space", "_data", "keys", "nums", "den")

    @classmethod
    def _columns(cls, space: ValueSpace, keys: tuple, nums: tuple, den: int) -> "VectorValue":
        """A value from columns that are already canonical."""
        v = cls.__new__(cls)
        v.space, v._data, v.keys, v.nums, v.den = space, None, keys, nums, den
        return v

    @property
    def data(self):
        if self._data is None:
            den, keys = self.den, self.keys
            levels = tuple(Fraction(n, den) for n in self.nums)
            if self.space.is_step:
                g = self.space.grid_depth
                self._data = (tuple(Dyadic(k, g) for k in keys), levels)
            else:
                self._data = tuple(x for lo, hi, x in zip(keys, keys[1:], levels)
                                   for _ in range(hi - lo))
        return self._data

    # -- constructors ------------------------------------------------------

    @classmethod
    def coords(cls, space: ValueSpace, values: Sequence) -> "VectorValue":
        """The coordinate value with the given rational coordinates;
        ValueError if there are not dim of them."""
        if space.is_step:
            raise ValueError("use VectorValue.step for step_linf values")
        nums, den = over_one_den(values)
        if len(nums) != space.dim:
            raise ValueError(f"expected {space.dim} coordinates, got {len(nums)}")
        return cls._columns(space, *_runs(range(space.dim + 1), nums), den)

    @classmethod
    def step(cls, space: ValueSpace, breaks: Sequence[Dyadic], levels: Sequence) -> "VectorValue":
        """The step function with Dyadic breaks on the space's grid and
        rational levels; ValueError if it is not one."""
        if not space.is_step:
            raise ValueError("step data needs a step_linf space")
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
        nums, den = over_one_den(levels)
        return cls._columns(space, *_runs(keys, nums), den)

    @classmethod
    def zero(cls, space: ValueSpace) -> "VectorValue":
        return cls._columns(space, (0, space.grid_size), (0,), 1)

    @classmethod
    def basis(cls, space: ValueSpace, n: int) -> "VectorValue":
        if space.is_step:
            raise ValueError("no canonical basis for step values; build explicitly")
        if not 0 <= n < space.dim:
            raise ValueError(f"coordinate {n} out of range")
        keys = tuple(sorted({0, n, n + 1, space.dim}))
        return cls._columns(space, keys, tuple(int(k == n) for k in keys[:-1]), 1)

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
        """Σ w n² / d² under a root (l2), Σ w |n| / d (l1), or max|n| / d
        (sup, and every step space), over the runs, w a run's length."""
        if self.space.norm == L2:
            return sqrt_enclosure(self.square_sum())
        nums, keys = self.nums, self.keys
        if self.space.norm == L1:
            top = Fraction(sum(abs(n) * (hi - lo) for lo, hi, n in zip(keys, keys[1:], nums)),
                           self.den)
        else:
            top = Fraction(max(map(abs, nums)), self.den)
        return Enclosure(top, top)

    def square_sum(self) -> Fraction:
        """The sum of the squares of the coordinates, the l2 norm squared."""
        keys = self.keys
        return Fraction(sum(n * n * (hi - lo) for lo, hi, n in zip(keys, keys[1:], self.nums)),
                        self.den * self.den)

    def _level_at(self, key: int) -> Fraction:
        """Level on grid cell key, 0 <= key < N: the run whose key is the
        last one <= key."""
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
    to their lcm and rescales the entries so far.  A value adds c * (level
    change) at each of its run keys, so a term costs O(runs of v) however
    many runs the sum already has.  One sorted prefix sum at the end emits a
    run key only where the level changes.  Dividing out gcd(numerators, D)
    makes the columns canonical.
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
        prev = 0
        for k, n in zip(v.keys, v.nums):  # each run's left end
            acc[k] = acc.get(k, 0) + m * (n - prev)
            prev = n
    keys, nums = [0], []
    level = 0
    for k in sorted(acc):
        jump = acc[k]
        if jump:
            if k:
                keys.append(k)
                nums.append(level)
            level += jump
    keys.append(space.grid_size)
    nums.append(level)
    r = gcd(den, *nums)
    if r != 1:
        den //= r
        nums = [n // r for n in nums]
    return VectorValue._columns(space, tuple(keys), tuple(nums), den)


def distance(u: VectorValue, v: VectorValue) -> Enclosure:
    """The norm of u - v.  In the sup norm it is `_sup_distance` from the
    value with fewer runs to the other, whose levels over the runs one run
    meets are sliced out for their min and max."""
    if u.space.norm != LINF:
        return (u - v).norm()
    if len(u.nums) > len(v.nums):
        u, v = v, u
    nums = v.nums
    top = _sup_distance(u, v, lambda i, j: (min(nums[i:j]), max(nums[i:j])))
    return Enclosure(top, top)


def _sup_distance(u: VectorValue, v: VectorValue, extremes) -> Fraction:
    """max |n_u d_v - n_v d_u| / (d_u d_v) over the pairs of runs of u and v
    that overlap, in ints: each run of u is compared with the smallest and
    largest levels of v over the runs it meets, found by bisection, which
    extremes(i, j) gives for v's runs i..j-1.  The one statement of the sup
    norm's distance."""
    if v.space != u.space:
        raise SpaceMismatch(f"{u.space} vs {v.space}")
    du, dv, keys = u.den, v.den, v.keys
    worst = 0
    for lo, hi, n in zip(u.keys, u.keys[1:], u.nums):
        # v's runs [keys[c], keys[c + 1]) that meet [lo, hi)
        low, high = extremes(bisect_right(keys, lo) - 1, bisect_left(keys, hi))
        a = n * dv
        worst = max(worst, a - low * du, high * du - a)
    return Fraction(worst, du * dv)


def _range_extremes(nums: Sequence[int]):
    """extremes(i, j) = (min, max) of nums[i:j] for i < j, in O(1): the
    minima and maxima of every window of length 2^k are tabled once, and a
    range is the union of the two windows of its largest 2^k that start at
    i and end at j."""
    lows, highs, w = [list(nums)], [list(nums)], 1
    while 2 * w <= len(nums):
        lows.append(list(map(min, lows[-1], lows[-1][w:])))
        highs.append(list(map(max, highs[-1], highs[-1][w:])))
        w *= 2

    def extremes(i: int, j: int) -> tuple[int, int]:
        k = (j - i).bit_length() - 1
        low, high, j = lows[k], highs[k], j - (1 << k)
        return min(low[i], low[j]), max(high[i], high[j])
    return extremes


def squared_distances(values: Sequence[VectorValue], v: VectorValue) -> list[Fraction]:
    """||u - v||^2 for each u of values in the space's norm, exactly.  In the
    sup norm v's range extremes are tabled once, so each run of a u costs
    two bisections, however many runs v has."""
    if v.space.norm == L2:
        return [(u - v).square_sum() for u in values]
    if v.space.norm == L1:
        return [distance(u, v).hi ** 2 for u in values]
    extremes = _range_extremes(v.nums)
    return [_sup_distance(u, v, extremes) ** 2 for u in values]


def spread(values: Sequence[VectorValue]) -> Fraction:
    """Largest pairwise distance (enclosure upper end) among values of one
    space; SpaceMismatch if they are not.

    One `_merge_steps` pass over the union of the values' run keys puts
    every level over the lcm D of their denominators.  In the sup norm
    (every step space) the largest pairwise distance is the largest range of
    the levels on a cell, over D; so it is in one dimension, where every
    norm is |a - b| (the root of the l2 key is exact).  Otherwise each pair
    gets one int key that grows with its distance, summed over the cells
    weighted by their lengths: the sum of |a - b| (l1) or of (a - b)^2
    (l2).  The l1 distance is the largest key over D, exactly.

    The l2 distance of a pair is `sqrt_enclosure(key / D^2).hi`, and that
    upper end does not grow with the key: at a perfect square it is the exact
    root, while just below one it is the rounded-down root plus 2^-64, which
    can be larger.  So the distinct keys are scanned largest first, keeping
    the best upper end so far.  B(q) = (isqrt(floor(q 2^128)) + 1) / 2^64
    grows with q and is never below the upper end at q (off perfect squares
    the two are equal), so the scan stops at the first key whose B is at most
    the best: no smaller key can beat it.
    """
    if len(values) < 2:
        return Fraction(0)
    space = values[0].space
    for v in values:
        if v.space is not space and v.space != space:
            raise SpaceMismatch(f"{space} vs {v.space}")
    den = lcm(*(v.den for v in values))
    sup = space.norm == LINF or space.dim == 1
    widest, keys = 0, [0] * (0 if sup else len(values) * (len(values) - 1) // 2)
    for w, levels in _merge_steps(values, den):
        if sup:
            widest = max(widest, max(levels) - min(levels))
        else:
            diffs = (a - b for i, a in enumerate(levels) for b in levels[i + 1:])
            keys = [s + w * (abs(d) if space.norm == L1 else d * d) for s, d in zip(keys, diffs)]
    if sup:
        return Fraction(widest, den)
    if space.norm == L1:
        return Fraction(max(keys), den)
    square = den * den
    best = Fraction(0)
    for q in sorted(set(keys), reverse=True):
        if Fraction(isqrt((q << 128) // square) + 1, 1 << 64) <= best:
            break
        best = max(best, sqrt_enclosure(Fraction(q, square)).hi)
    return best


class DualFunctional:
    """Norm-one-capped linear functional on a ValueSpace.

    kinds: coordinate(n) | combination(coeffs) | step_pairing(density).
    norm_bound is a certified upper bound on the dual norm (exact where the
    dual norm is rational, an enclosure hi for the Euclidean one).  A
    combination or a pairing holds its density as a value of the space.
    """

    __slots__ = ("space", "kind", "params", "norm_bound", "label", "density")

    def __init__(self, space, kind, params, norm_bound, label, density=None):
        self.space = space
        self.kind = kind
        self.params = params
        self.norm_bound = norm_bound
        self.label = label
        self.density = density

    @classmethod
    def coordinate(cls, space: ValueSpace, n: int) -> "DualFunctional":
        if not 0 <= n < space.grid_size:
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
        return cls(space, "combination", cs, bound, "combo", VectorValue.coords(space, cs))

    @classmethod
    def step_pairing(cls, space: ValueSpace, density: VectorValue) -> "DualFunctional":
        if not space.is_step or density.space != space:
            raise ValueError("step pairing needs a density in the same step space")
        keys, nums = density.keys, density.nums
        bound = Fraction(sum(abs(n) * (hi - lo) for lo, hi, n in zip(keys, keys[1:], nums)),
                         density.den << space.grid_depth)
        return cls(space, "step_pairing", density, bound, "pairing", density)

    def __call__(self, v: VectorValue) -> Fraction:
        if v.space != self.space:
            raise SpaceMismatch(f"{v.space} vs {self.space}")
        if self.kind == "coordinate":
            # in a step space, the middle of grid cell n is (2n + 1) / 2^(g+1)
            return v._level_at(self.params)
        # the sum over the grid of density times value, each cell 2^-g long
        # (a coordinate space's g is 0)
        den = lcm(self.density.den, v.den)
        total = sum(w * a * b for w, (a, b) in _merge_steps((self.density, v), den))
        return Fraction(total, den * den << self.space.grid_depth)

