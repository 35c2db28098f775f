"""Developable-surface families, graph realization, and classification.

A developable graph is locally a cylinder, a cone, or the tangent surface of
a space curve; the three cases are separated by the vanishing pattern of the
slope invariant S and the fourth-order invariant W.  Families are realized
as graphing series of u(t, v) = F(x(t, v), y(t, v)): y is linear in the
parameters, so swapping the axes of the graph x = x(t, v) gives t over
(x, y) by one implicit solve, and F is one composition; this reproduces the
printed coefficient tables.  Classification evaluates the invariants on a
sample grid, with the jet at each grid point computed once, plus the
jet-coefficient criterion at the base point, and reports its witnesses.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .invariants import (
    DEFAULT_TOL,
    BranchError,
    aligned_jet,
    decide,
    h_terms,
    invariant_H,
    invariant_W,
    s_numerator,
    s_terms,
    swap_axes,
    w_numerator,
    w_terms,
)
from .jets import DerivativeView, jets_of_series
from .scalars import is_exact, to_float
from .series import AffineTransform3, Poly2, TruncatedSeries1, TruncatedSeries2, apply_affine, compose2


@dataclass(frozen=True)
class Cylinder:
    profile: TruncatedSeries1

    kind = "cylinder"


@dataclass(frozen=True)
class Cone:
    """Directrix c(t) with c(0) = c'(0) = 0 and c'' != 0; apex on the y-axis."""

    directrix: TruncatedSeries1

    kind = "cone"

    def __post_init__(self):
        c = self.directrix
        if c[0] != 0 or c[1] != 0:
            raise ValueError("directrix must vanish to first order")
        if c[2] == 0:
            raise ValueError("degenerate cone: c'' = 0")


@dataclass(frozen=True)
class Tangential:
    """Tangent surface of (a(t), -1 + t, c(t)) with a, c vanishing to first order."""

    a: TruncatedSeries1
    c: TruncatedSeries1

    kind = "tangential"

    def __post_init__(self):
        for s in (self.a, self.c):
            if s[0] != 0 or s[1] != 0:
                raise ValueError("curve components must vanish to first order")
        if self.a[2] == 0:
            raise ValueError("degenerate tangential family: a'' = 0 at the marked point")


@dataclass(frozen=True)
class Graph:
    series: TruncatedSeries2

    kind = "graph"


def _column(s1: TruncatedSeries1, col: int, n: int) -> TruncatedSeries2:
    """The series s1(t) v^col / col! in (t, v), truncated at order n."""
    return TruncatedSeries2(n, {(j, col): c for j, c in s1.coeffs.items()})


def _solve_graph(x2: TruncatedSeries2, k1, k2, u2: TruncatedSeries2) -> TruncatedSeries2:
    """F with F(x(t,v), y) = u(t,v), where y = k1 t + k2 v is linear.

    Swapping the axes of the graph x = x(t, v) makes t a graph over (x, y):
    :func:`apply_affine` reads the source (t, v, x) = (v', (t' - k1 v') / k2, s)
    off the target (s, t', v') = (x, y, t) and solves for v' = t(x, y) in one
    implicit solve.  Then v = (y - k1 t) / k2, and F = u(t, v) is one
    composition.  Requires x and u to vanish at the origin and the linear
    part of (x, y) to be invertible; exact on rationals.
    """
    if x2[(1, 0)] * k2 - x2[(0, 1)] * k1 == 0:
        raise ValueError("parametrization has a singular linear part")
    t = apply_affine(x2, AffineTransform3(a=0, c=1, l=1 / k2, m=-k1 / k2, p=1, r=0))
    v = TruncatedSeries2(u2.order, {(0, 1): 1 / k2}) - t.scale(k1 / k2)
    return compose2(u2, t, v)


def realize_graph(fam, order: int) -> TruncatedSeries2:
    """The graphing series of the family at its marked point."""
    n = order
    if isinstance(fam, Graph):
        return fam.series
    if isinstance(fam, Cylinder):
        return _column(fam.profile, 0, n)
    if isinstance(fam, Cone):
        c = fam.directrix
        # x = (1 - v) t, y = v, u = (1 - v) c(t)
        x2 = TruncatedSeries2(n, {(1, 0): Fraction(1), (1, 1): Fraction(-1)})
        return _solve_graph(x2, Fraction(0), Fraction(1), _column(c, 0, n) - _column(c, 1, n))
    if isinstance(fam, Tangential):
        a, c = fam.a, fam.c
        # around (t, v) = (0, 1): with v = 1 + w,
        # x = a(t) + (1 + w) a'(t), y = t + w, u = c(t) + (1 + w) c'(t)
        ap, cp = a.derivative(), c.derivative()
        x2 = _column(a, 0, n) + _column(ap, 0, n) + _column(ap, 1, n)
        u2 = _column(c, 0, n) + _column(cp, 0, n) + _column(cp, 1, n)
        return _solve_graph(x2, Fraction(1), Fraction(1), u2)
    raise TypeError(f"not a surface family: {fam!r}")


@dataclass
class Classification:
    point_type: str
    developable_kind: Optional[str]
    witnesses: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "point_type": self.point_type,
            "kind": self.developable_kind,
            "witnesses": {k: to_float(v) for k, v in self.witnesses.items()},
        }


class MixedTypeError(ValueError):
    pass


def _low_zero(mags: dict, low_degree: int, tol: float) -> bool:
    # monomial magnitudes, measured against a near-low window: these graphs
    # may have small convergence radii, so the far tail grows geometrically
    # and must not set the scale of the zero test
    scale = max([1.0] + [v for (j, k), v in mags.items() if j + k <= low_degree + 2])
    return all(v <= tol * scale for (j, k), v in mags.items() if j + k <= low_degree)


def _tail_envelope(mags: dict, low_degree: int, pt) -> float:
    hx, hy = abs(to_float(pt[0])), abs(to_float(pt[1]))
    total = 0.0
    for (j, k), v in mags.items():
        if j + k > low_degree:
            total += v * hx**j * hy**k
    return total


def _grid_zero(num: Poly2, mags: dict, low_degree: int, pt, tol: float, monoms) -> bool:
    """|num(pt)| within tol of the jet's monomials plus twice the envelope of the tail of ``mags``, num's magnitudes."""
    value = num.eval(pt[0], pt[1])
    scale = max([0.0] + [abs(to_float(m)) for m in monoms])
    return abs(to_float(value)) <= tol * (1.0 + scale) + 2.0 * _tail_envelope(mags, low_degree, pt)


def _magnitudes(num: Poly2, name: str) -> dict:
    """``num.magnitudes()``, taken once per numerator for the zero tests, which weigh them in floats;
    an exact coefficient past the float range is refused, naming the numerator and its largest coefficient."""
    try:
        return num.magnitudes()
    except OverflowError:
        jk = max(num.terms, key=lambda key: abs(num.terms[key]))
        raise ValueError(f"{name} numerator coefficient {jk} is past the float range of the zero tests") from None


def _tail_only(num: Poly2, low_degree: int, tol: float) -> bool:
    """True when :func:`_grid_zero` of ``num`` holds at every point without evaluating it.

    An exact numerator with no term of degree <= low is its tail, so at every
    point |num(pt)| <= sum |p_jk / den| |x|^j |y|^k, the envelope; the factor 2
    and the tol term absorb the rounding of the value and the envelope.  A tol
    below the least normal float (0 among them) cannot absorb underflow, so
    there the grid test runs.  A numerator capped above low decides it for the
    full one: it holds the full one's low part term for term.
    """
    if num.den is None or not tol >= sys.float_info.min:
        return False
    return not any(v for (j, k), v in num.terms.items() if j + k <= low_degree)


def _require_finite(F: TruncatedSeries2, grid) -> None:
    """Refuse a float series or grid jet past the float range: no zero test can judge inf or nan."""
    for where, values in [("series", F.coeffs), *((f"jet at ({x}, {y})", c) for (x, y), c in grid)]:
        for jk, v in values.items():
            if not is_exact(v) and not math.isfinite(to_float(v)):
                raise OverflowError(f"{where} coefficient {jk} is {to_float(v)}")


def classify(
    F: TruncatedSeries2,
    sample_points: Optional[List[Tuple[object, object]]] = None,
    tol: float = DEFAULT_TOL,
) -> Classification:
    """Point type by Hessian rank; parabolic surfaces split by S and W.

    Identical vanishing is decided by the jet coefficients at the base point
    together with agreement on a finite grid of base points; each grid value
    is compared against the truncation-tail envelope of the corresponding
    numerator polynomial, and disagreement between the two criteria reports a
    mixed type instead of guessing.  A float series or grid jet that is not
    finite raises :class:`OverflowError`; an exact numerator whose tail
    leaves the float range raises :class:`ValueError` naming it.  A
    parabolic graph whose u_xx is negligible is classified through its
    :func:`~parajet.invariants.aligned_jet` axis swap, as in the closed
    forms and the loops.

    Only the orders these tests read are built, so every result is that of the
    full computation.  The grid jets go to total degree 4, the most the H, S
    and W terms read, and are shifted once, at the first grid test that reads
    them: the Hessian one (skipped as below) or an S or W one.  Float F or
    sample points build them up front, to refuse a non-finite one; exact F at
    exact points takes the flat test off the exact values of u_xx, u_xy and
    u_yy there, so its grid jets are built only for a grid test.  The jet
    criterion reads the S and W numerators to degree low + 2 (n - 1 and
    n - 2), so they are multiplied that far, on a capped :class:`Poly2`.  Where
    that capped numerator is exact and its low part is exactly zero, the grid
    test cannot fail (:func:`_tail_only`) and is skipped; otherwise, where the
    jet criterion says zero, the full product is built for the grid test,
    which reads its tail.  The Hessian polynomial of an exact graph with H = 0
    at the base point is likewise first built to degree n; the full one only
    when that low part is not exactly zero, or for float input or H != 0 at
    the base point.  The H witness, like S and W, is read at the base point.
    """
    if sample_points is None:
        h = Fraction(1, 8)
        sample_points = [(0, 0), (h, 0), (0, h), (-h, h), (h, -h)]
    if not sample_points:
        raise ValueError("classification needs at least one sample point")
    n = F.order
    if n < 2:
        raise ValueError(f"classification needs a series of order >= 2, got {n}")
    witnesses: Dict[str, object] = {}
    c0 = jets_of_series(F).values
    try:
        aligned = aligned_jet(c0, tol)
    except BranchError:
        aligned = c0  # neither axis is aligned: an error below if the point is parabolic
    if aligned is not c0:
        # the rank-one direction is the y-axis: classify the swapped graph at the same points
        F, c0 = TruncatedSeries2(n, swap_axes(F.coeffs)), aligned
        sample_points = [(-y, x) for x, y in sample_points]
    # the numerators as polynomials: a truncated series that realizes a
    # family to its order gives a vanishing low part and the honest tail
    P = Poly2.from_series(F)
    G = DerivativeView(P)
    # H(c0) is the Hessian polynomial's constant term: only an exact graph with
    # H(c0) = 0 can have a low part that is exactly zero
    Hlow = invariant_H(DerivativeView(P.capped(n))) if P.den is not None and invariant_H(c0) == 0 else None
    Hfull = None if Hlow is not None and _tail_only(Hlow, n - 2, tol) else invariant_H(G)
    # the jet at each grid point to degree 4, shifted there once, and only for a grid test that reads
    # it; the base point needs no shift.  Exact F at exact points takes its flat test off G instead.
    jets = functools.cache(
        lambda: [c0 if pt == (0, 0) else jets_of_series(F.shift(*pt, upto=4)).values for pt in sample_points]
    )
    exact = P.den is not None and all(is_exact(x) and is_exact(y) for x, y in sample_points)
    if not exact:
        _require_finite(F, zip(sample_points, jets()))
    hessian_mags = functools.cache(lambda: _magnitudes(Hfull, "Hessian"))  # at the first grid test that reads them

    # point type across the grid
    types = []
    for i, pt in enumerate(sample_points):
        second = [G[jk].eval(*pt) if exact else jets()[i][jk] for jk in ((2, 0), (1, 1), (0, 2))]
        if max(abs(to_float(v)) for v in second) <= tol:
            types.append("flat")
        elif Hfull is None or _grid_zero(Hfull, hessian_mags(), n - 2, pt, tol, h_terms(jets()[i])):
            types.append("parabolic")
        else:
            types.append("elliptic" if to_float(invariant_H(jets()[i])) > 0 else "hyperbolic")
    if len(set(types)) != 1:
        raise MixedTypeError(f"inconsistent point types across samples: {types}")
    point_type = types[0]
    witnesses["H"] = invariant_H(c0)
    if point_type != "parabolic":
        return Classification(point_type, None, witnesses)
    if n < 4:
        raise ValueError(f"classifying a parabolic point needs a series of order >= 4, got {n}")
    aligned_jet(c0, tol)  # raises on a jet aligned with neither axis
    if Hfull is not None and not _low_zero(hessian_mags(), n - 2, 1e3 * tol):
        raise MixedTypeError("Hessian vanishes on the grid but not as a jet")

    def vanishes(numerator, terms, low: int, name: str) -> bool:
        # the jet criterion decides (analyticity); when it says zero, every
        # grid value must stay inside the truncation-tail envelope, otherwise
        # the surface is of mixed type
        capped = numerator(DerivativeView(P.capped(low + 2)))
        if not _low_zero(_magnitudes(capped, name), low, 1e3 * tol):
            return False
        if _tail_only(capped, low, tol):
            return True
        full = numerator(G)
        mags = _magnitudes(full, name)  # every grid test sums them
        if not all(_grid_zero(full, mags, low, pt, tol, terms(c)) for pt, c in zip(sample_points, jets())):
            raise MixedTypeError(f"{name} vanishes as a jet but not across the grid")
        return True

    jet_s_zero = vanishes(s_numerator, s_terms, n - 3, "slope invariant")
    witnesses["S"] = s_numerator(c0) / c0[(2, 0)] ** 2
    if jet_s_zero:
        return Classification(point_type, "cylinder", witnesses)
    if decide(s_numerator(c0), s_terms(c0), tol):
        raise MixedTypeError("slope invariant vanishes at the base point but not identically")

    jet_w_zero = vanishes(w_numerator, w_terms, n - 4, "fourth-order invariant")
    witnesses["W"] = invariant_W(c0)
    if jet_w_zero:
        return Classification(point_type, "cone", witnesses)
    if decide(w_numerator(c0), w_terms(c0), tol):
        raise MixedTypeError("fourth-order invariant vanishes at the base point but not identically")
    return Classification(point_type, "tangential", witnesses)
