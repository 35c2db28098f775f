"""Builders and readers used only by the tests."""

from typing import List

from parajet.normalize import DEFAULT_TOL, normalize_parabolic_surface
from parajet.prolong import Poly, jet_generators, p_vars, parabolic_pushforward, poly, prolong
from parajet.scalars import to_float
from parajet.series import TruncatedSeries2


def max_jet_order(a: Poly) -> int:
    """The largest j + k among the jet variables u_{j,k} of a polynomial."""
    m = 0
    for v in p_vars(a):
        if v[0] >= 0:
            m = max(m, v[0] + v[1])
    return m


def order4_matrix_symbolic() -> List[List[Poly]]:
    """Pushed-forward coefficients of v1..v6 on the order-4 jet block, each num u20^-m as one Laurent polynomial."""
    cols = [(2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (3, 1)]
    pushed = [[parabolic_pushforward(prolong(v, J)) for J in cols] for v in jet_generators()]
    return [[num * poly((1, {(2, 0): -m})) for num, m in row] for row in pushed]


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
