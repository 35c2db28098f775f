"""Builders and readers used only by the tests."""

import math
from typing import Dict, Tuple

from parajet.prolong import Poly, p_vars
from parajet.series import TruncatedSeries1, TruncatedSeries2


def from_monomials2(order: int, monos: Dict[Tuple[int, int], object]) -> TruncatedSeries2:
    """Build from plain monomial coefficients c_{j,k} x^j y^k."""
    return TruncatedSeries2(
        order,
        {jk: c * math.factorial(jk[0]) * math.factorial(jk[1]) for jk, c in monos.items()},
    )


def from_monomials1(order: int, monos: Dict[int, object]) -> TruncatedSeries1:
    return TruncatedSeries1(order, {i: c * math.factorial(i) for i, c in monos.items()})


def max_jet_order(a: Poly) -> int:
    """The largest j + k among the jet variables u_{j,k} of a polynomial."""
    m = 0
    for v in p_vars(a):
        if v[0] >= 0:
            m = max(m, v[0] + v[1])
    return m
