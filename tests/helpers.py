"""Builders and readers used only by the tests."""

import math
from fractions import Fraction
from typing import Dict, List, Tuple

from parajet.normalize import DEFAULT_TOL, normalize_parabolic_surface
from parajet.prolong import Poly, RationalPoly, jet_generators, p_vars, parabolic_pushforward, prolong
from parajet.scalars import is_exact, to_float
from parajet.series import TruncatedSeries1, TruncatedSeries2


def from_monomials2(order: int, monos: Dict[Tuple[int, int], object]) -> TruncatedSeries2:
    """Build from plain monomial coefficients c_{j,k} x^j y^k."""
    return TruncatedSeries2(
        order,
        {jk: c * math.factorial(jk[0]) * math.factorial(jk[1]) for jk, c in monos.items()},
    )


def from_monomials1(order: int, monos: Dict[int, object]) -> TruncatedSeries1:
    return TruncatedSeries1(order, {i: c * math.factorial(i) for i, c in monos.items()})


def reference_compose2(F: TruncatedSeries2, X: TruncatedSeries2, Y: TruncatedSeries2) -> TruncatedSeries2:
    """F(X, Y) by series products: cached powers of X and Y, one product and one sum per monomial of F."""
    if X[(0, 0)] != 0 or Y[(0, 0)] != 0:
        raise ValueError("substitution series must have zero constant term")
    n = min(F.order, X.order, Y.order)
    one = TruncatedSeries2(n, {(0, 0): Fraction(1)})
    xpows, ypows = [one], [one]
    for _ in range(n):
        xpows.append(xpows[-1] * TruncatedSeries2(n, dict(X.coeffs)))
        ypows.append(ypows[-1] * TruncatedSeries2(n, dict(Y.coeffs)))
    out = TruncatedSeries2(n, {})
    for (a, b), c in F.coeffs.items():
        if a + b <= n:
            m = math.factorial(a) * math.factorial(b)
            out = out + (xpows[a] * ypows[b]).scale(c / Fraction(m) if is_exact(c) else c / m)
    return out


def max_jet_order(a: Poly) -> int:
    """The largest j + k among the jet variables u_{j,k} of a polynomial."""
    m = 0
    for v in p_vars(a):
        if v[0] >= 0:
            m = max(m, v[0] + v[1])
    return m


def order4_matrix_symbolic() -> List[List[RationalPoly]]:
    """Pushed-forward coefficients of v1..v6 on the order-4 jet block."""
    cols = [(2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (3, 1)]
    return [[parabolic_pushforward(prolong(v, J)) for J in cols] for v in jet_generators()]


def equivalent_surfaces(
    F: TruncatedSeries2, G: TruncatedSeries2, tol: float = DEFAULT_TOL, match_tol: float = 1e-7
) -> bool:
    """Equivalence test: normal forms agree on all independent coefficients."""
    rf = normalize_parabolic_surface(F, tol)
    rg = normalize_parabolic_surface(G, tol)
    if rf.branch != rg.branch:
        return False
    n = min(rf.normal_series.order, rg.normal_series.order)
    for j in range(n + 1):
        for k in (0, 1):
            if j + k > n:
                continue
            a = to_float(rf.normal_series[(j, k)])
            b = to_float(rg.normal_series[(j, k)])
            if abs(a - b) > match_tol * (1.0 + max(abs(a), abs(b))):
                return False
    return True
