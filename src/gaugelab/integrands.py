"""Integrand functions [0,1] -> ValueSpace and their exact closed forms.

Two classes are supported, piecewise-step and piecewise-polynomial.  Both
know their dyadic breakpoints and admit an exact closed-form vector integral
over any region; a scalar integral (pairing against a dual functional) is f
of that vector integral, once per region.  Piece cells are half-open
[b_i, b_{i+1}) with the last cell closed, matching step values and piecewise
gauges.

The proximity ("adapted") gauge built here is the classical witness gauge for
a piecewise map: away from the breakpoints the gauge ball never crosses a
piece boundary, and each breakpoint gets a floor small enough that intervals
tagged on it contribute at most 2^-level in total.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .exact import (D0, D1, Dyadic, DyadicCuts, Region, UNIT_REGION, merged_region,
                    shared_zeros)
from .gauges import Gauge
from .spaces import DualFunctional, ValueSpace, VectorValue, linear_combination

STEP, POLY = "step", "poly"


def poly_eval(coeffs: Sequence[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_integral(coeffs: Sequence[Fraction], a: Fraction, b: Fraction) -> Fraction:
    total = Fraction(0)
    pa = pb = Fraction(1)
    for k, c in enumerate(coeffs):
        pa *= a
        pb *= b
        total += c * (pb - pa) / (k + 1)
    return total


class IntegrandFn:
    """Vector-valued map on [0,1] with a declared class and value space.

    The breakpoints are int keys k_0 = 0 < ... < k_m = 2^exp at the smallest
    exponent, as a Region's endpoints are; `cell_at` looks up the cell of a
    point among them.  `breaks`, the same points as Dyadics, is built when
    first read."""

    def __init__(self, space, klass, exp, keys, values=None, polys=None,
                 label="phi", metadata=None):
        keys = list(keys)
        z = shared_zeros(exp, keys)
        if z:
            keys = [k >> z for k in keys]
            exp -= z
        self.space = space
        self.klass = klass
        self.exp = exp
        self.keys = tuple(keys)
        self.values = tuple(values) if values is not None else None
        self.polys = tuple(polys) if polys is not None else None
        self.label = label
        self.metadata = dict(metadata or {})
        if not keys or keys[0] != 0 or keys[-1] != 1 << exp:
            raise ValueError("piecewise integrand must span [0,1]")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("breakpoints must increase")
        if klass == STEP and len(self.values) != len(keys) - 1:
            raise ValueError("one value per cell")
        if klass == POLY:
            if space.is_step:
                raise ValueError("polynomial coordinates need a coordinate space")
            if len(self.polys) != len(keys) - 1:
                raise ValueError("one polynomial tuple per cell")
        self._breaks = None
        self._sup_norm = None

    @property
    def breaks(self) -> tuple[Dyadic, ...]:
        if self._breaks is None:
            self._breaks = tuple(Dyadic(k, self.exp) for k in self.keys)
        return self._breaks

    # -- construction --------------------------------------------------------

    @classmethod
    def step(cls, space, breaks, values, label="phi", metadata=None) -> "IntegrandFn":
        cuts = DyadicCuts(breaks)
        return cls(space, STEP, cuts.exp, cuts.keys, values=values, label=label,
                   metadata=metadata)

    @classmethod
    def poly(cls, space, breaks, polys, label="phi", metadata=None) -> "IntegrandFn":
        polys = tuple(tuple(tuple(Fraction(c) for c in coeffs) for coeffs in cell) for cell in polys)
        cuts = DyadicCuts(breaks)
        return cls(space, POLY, cuts.exp, cuts.keys, polys=polys, label=label, metadata=metadata)

    # -- evaluation ------------------------------------------------------------

    def cell_at(self, n: int, e: int) -> int:
        """Index of the cell holding n / 2^e, 0 <= n / 2^e <= 1: the last key
        <= n / 2^e among the keys before the last, found by bisection (the
        last cell is closed)."""
        s = self.exp - e
        return bisect_right(self.keys, n << s if s >= 0 else n >> -s, 1, len(self.keys) - 1) - 1

    def eval(self, t) -> VectorValue:
        tq = t.as_fraction() if isinstance(t, Dyadic) else Fraction(t)
        if not 0 <= tq <= 1:
            raise ValueError(f"t={tq} outside [0,1]")
        # floor(t 2^exp) lies in the same cell as t, since every key is an int at exp
        i = self.cell_at((tq.numerator << self.exp) // tq.denominator, self.exp)
        if self.klass == STEP:
            return self.values[i]
        cell = self.polys[i]
        return VectorValue.coords(self.space, [poly_eval(c, tq) for c in cell])

    __call__ = eval

    def support(self) -> Region:
        """The cells on which phi is not identically zero: a step cell whose
        value is not zero, or a polynomial cell with a nonzero coefficient."""
        if self.klass == STEP:
            nonzero = [any(v.nums) for v in self.values]
        else:
            nonzero = [any(c for coeffs in cell for c in coeffs) for cell in self.polys]
        keys = self.keys
        return merged_region(self.exp, [(keys[i], keys[i + 1])
                                        for i, keep in enumerate(nonzero) if keep])

    # -- bounds -------------------------------------------------------------

    def sup_norm_bound(self) -> Fraction:
        """Certified upper bound for sup‖phi‖, worked out on the first call
        and kept."""
        if self._sup_norm is not None:
            return self._sup_norm
        if self.klass == STEP:
            self._sup_norm = max((v.norm().hi for v in self.values), default=Fraction(0))
            return self._sup_norm
        best = Fraction(0)
        for cell in self.polys:
            bound = sum(
                (sum((abs(c) for c in coeffs), Fraction(0)) for coeffs in cell),
                Fraction(0),
            )
            best = max(best, bound)
        self._sup_norm = best
        return best

    def lipschitz_bound(self) -> Fraction:
        """Upper bound for the within-piece variation rate (0 for step)."""
        if self.klass == STEP:
            return Fraction(0)
        best = Fraction(0)
        for cell in self.polys:
            bound = sum(
                (sum((Fraction(k) * abs(c) for k, c in enumerate(coeffs)), Fraction(0))
                 for coeffs in cell),
                Fraction(0),
            )
            best = max(best, bound)
        return best

    def norm_lower_on(self, a: int, b: int, e: int) -> Fraction:
        """Certified lower bound of inf over [a, b] / 2^e of ‖phi‖ (the
        interval must not straddle a breakpoint)."""
        if self.klass == STEP:
            return self.values[self.cell_at(a + b, e + 1)].norm().lo
        pts = [Fraction(a, 1 << e), Fraction(a + b, 2 << e), Fraction(b, 1 << e)]
        vals = [self.eval(p).norm().lo for p in pts]
        slack = self.lipschitz_bound() * Fraction(b - a, 1 << e)
        return max(Fraction(0), min(vals) - slack)


def restrict_integrand(phi: IntegrandFn, region: Region) -> IntegrandFn:
    """phi * indicator(region), in the same class as phi.

    All in ints at one exponent e: the breaks are the sorted union of phi's
    keys and the region's endpoints clipped to [0, 2^e].  No endpoint lies
    inside a cell [a, b] of that union, so the cell is in the region iff the
    last part starting at or before a (a bisection of the lo column) ends at
    or after b, and it lies in phi's piece at a.
    """
    cell_at = phi.cell_at
    e = max(phi.exp, region.exp)
    s, r, one = e - phi.exp, e - region.exp, 1 << e
    lo = [x << r for x in region.lo]
    hi = [x << r for x in region.hi]
    cuts = sorted({*(k << s for k in phi.keys), *(x for x in lo + hi if 0 <= x <= one)})
    if phi.klass == STEP:
        pieces, zero = phi.values, VectorValue.zero(phi.space)
    else:
        pieces, zero = phi.polys, tuple((Fraction(0),) for _ in range(phi.space.dim))
    kept = []
    for a, b in zip(cuts, cuts[1:]):
        i = bisect_right(lo, a)
        kept.append(pieces[cell_at(a, e)] if i and hi[i - 1] >= b else zero)
    # phi's pieces are already exact, so the constructor takes them as they are
    values, polys = (kept, None) if phi.klass == STEP else (None, kept)
    return IntegrandFn(phi.space, phi.klass, e, cuts, values=values, polys=polys,
                       label=f"{phi.label}|restricted", metadata=phi.metadata)


def paired_polys(f: DualFunctional, phi: IntegrandFn) -> list[list[Fraction]]:
    """Per cell of a polynomial integrand, the coefficients of f(phi(t)): the
    functional's weights on the basis applied to the coordinate polynomials."""
    weights = [f(VectorValue.basis(phi.space, c)) for c in range(phi.space.dim)]
    out = []
    for cell in phi.polys:
        coeffs = [Fraction(0)] * max(len(c) for c in cell)
        for w, c in zip(weights, cell):
            for k, ck in enumerate(c):
                coeffs[k] += w * ck
        out.append(coeffs)
    return out


def _region_pieces(phi: IntegrandFn, region: Region) -> tuple[int, list]:
    """(2^e, pieces): each piece (cell, a, b) is a positive-length overlap
    [a, b] / 2^e of a cell of phi with a part of the region.  One integer
    sweep: a part, clipped to [0,1], finds its first cell by bisection and
    walks the cells until it ends."""
    keys, cell_at = phi.keys, phi.cell_at
    e = max(phi.exp, region.exp)
    s, r, one = e - phi.exp, e - region.exp, 1 << e
    pieces = []
    for lo, hi in zip(region.lo, region.hi):
        a = max(lo << r, 0)
        b = min(hi << r, one)
        c = cell_at(a, e)
        while a < b:
            top = keys[c + 1] << s
            hi = top if top < b else b
            pieces.append((c, a, hi))
            a, c = hi, c + 1
    return one, pieces


def scalar_integral(f: DualFunctional, phi: IntegrandFn, region: Region = UNIT_REGION) -> Fraction:
    """Exact integral of f(phi(t)) over the region: f of the closed-form
    vector integral, since f is linear and the closed form is exact."""
    return f(exact_vector_integral(phi, region))


def exact_vector_integral(phi: IntegrandFn, region: Region = UNIT_REGION) -> VectorValue:
    """Coordinate-wise closed form; the independent oracle for gauge sums.

    Step values integrate to sum(overlap * value), one term per cell
    weighted by its total overlap with the region; polynomial cells
    integrate coordinate-wise over each overlap piece.
    """
    den, pieces = _region_pieces(phi, region)
    if phi.klass == STEP:
        weights: dict[int, int] = {}
        for c, a, b in pieces:
            weights[c] = weights.get(c, 0) + b - a
        return linear_combination(phi.space, (
            (Fraction(w, den), phi.values[c]) for c, w in weights.items()))
    coords = [Fraction(0)] * phi.space.dim
    for c, a, b in pieces:
        for j, coeffs in enumerate(phi.polys[c]):
            coords[j] += poly_integral(coeffs, Fraction(a, den), Fraction(b, den))
    return VectorValue.coords(phi.space, coords)


def adapted_gauge(phi: IntegrandFn, level: int) -> Gauge:
    """Witness gauge at a refinement level.

    delta(t) = min(2^-level, distance to the breakpoint set) off the
    breakpoints; every breakpoint gets the uniform floor
    2^-level / (4 * n_breaks * ceil(1+M)) with M a sup-norm bound, so all
    breakpoint-tagged intervals together contribute < 2^-level and bisection
    depth stays within level + log2(n_breaks * M) + constant.

    It is a proximity gauge on the integrand's own keys and exponent, so
    Cousin bisection tests it in integers.  M is the integrand's
    cached sup_norm_bound, so the levels of one schedule share it; the
    "adapted" schedule of mcshane_integrate builds each level's gauge only
    when the run reaches that level.
    """
    m_bound = phi.sup_norm_bound()
    scale = int(m_bound) + 2  # >= ceil(1+M)
    cap = Fraction(1, 1 << level)
    floor = cap / (4 * len(phi.keys) * scale)
    return Gauge.proximity(phi.exp, phi.keys, cap, floor)


# -- stock integrands --------------------------------------------------------


def identity_integrand() -> IntegrandFn:
    """phi(t) = t in one Euclidean coordinate; integral 1/2."""
    space = ValueSpace.findim(1, "l2")
    return IntegrandFn.poly(space, [D0, D1], [((Fraction(0), Fraction(1)),)], label="identity")


def poly_integrand(coeff_lists, norm="l2", label="poly") -> IntegrandFn:
    """Single-cell polynomial coordinates on [0,1]."""
    space = ValueSpace.findim(len(coeff_lists), norm)
    cell = tuple(tuple(Fraction(c) for c in coeffs) for coeffs in coeff_lists)
    return IntegrandFn.poly(space, [D0, D1], [cell], label=label)

