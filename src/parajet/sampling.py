"""Seeded random sampling of jets, curves and transforms for the test suites.

Domain conventions shared by property tests and the CLI verification suites:
independent coordinates uniform in [-2, 2], resampled until |u_{2,0}| >= 0.3,
|slope numerator| >= 0.1, and per-branch floors on the fourth-order-invariant
numerator, keeping all samples away from the excluded zero sets and from
denominator blowups.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Dict, Tuple

from .invariants import conic_numerator, equiaffine_terms, s_numerator, w_numerator
from .jets import ParabolicJet
from .series import AffineTransform3, Poly2, TruncatedSeries2

Coord = Tuple[int, int]

U20_FLOOR = 0.3
S_FLOOR = 0.1
W_FLOOR = 0.1


def _require_order(sampler: str, order: int, least: int) -> None:
    if order < least:
        raise ValueError(f"{sampler} needs order >= {least}, got {order}")


def rand_rational(rng: random.Random) -> Fraction:
    """A multiple of 1/16 in [-2, 2]."""
    return Fraction(rng.randint(-32, 32), 16)


def _coordinate(rng: random.Random, exact: bool) -> Fraction:
    """A free coordinate in [-2, 2]: a multiple of 1/16 when exact, else a float rounded to a ratio."""
    if exact:
        return rand_rational(rng)
    return Fraction(rng.uniform(-2.0, 2.0)).limit_denominator(10**6)


def random_parabolic_jet(
    rng: random.Random,
    order: int,
    exact: bool = False,
    generic_floor: float | None = W_FLOOR,
) -> ParabolicJet:
    """A random rank-one jet; with a floor on the W numerator when requested."""
    _require_order("random_parabolic_jet", order, 3 if generic_floor is None else 4)

    val = functools.partial(_coordinate, rng, exact)

    while True:
        coords: Dict[Coord, object] = {(0, 0): val()}
        for j in range(1, order + 1):
            coords[(j, 0)] = val()
        for j in range(order):
            coords[(j, 1)] = val()
        if abs(float(coords[(2, 0)])) < U20_FLOOR:
            continue
        if abs(float(s_numerator(coords))) < S_FLOOR:
            continue
        if generic_floor is not None and abs(float(w_numerator(coords))) < generic_floor:
            continue
        return ParabolicJet(order, coords)


def random_cone_branch_jet(rng: random.Random, order: int, exact: bool = False) -> ParabolicJet:
    """A random jet on the vanishing-fourth-order-invariant subvariety.

    The mixed coordinates u_{j,1} for j >= 3 are solved from the vanishing of
    the fourth-order numerator and all its total-derivative consequences.  The
    y^0 row of the numerator series is the numerator evaluated on the y^0 rows
    of the derivative series it reads, and those hold only u_{j,0} and u_{j,1};
    u_{m,1} enters its x^(m-3) coefficient only through u_{2,0}^2 u_{m,1}, so
    one evaluation of the rows, as polynomials capped at x^(m-3), with
    u_{m,1} = 0 gives it.
    The chain always runs in exact rational arithmetic so the jet sits exactly
    on the subvariety; with ``exact=False`` the free draws are uniform floats
    converted losslessly.
    """
    _require_order("random_cone_branch_jet", order, 5)

    val = functools.partial(_coordinate, rng, exact)

    while True:
        coords: Dict[Coord, object] = {(0, 0): val(), (1, 0): val(), (0, 1): val()}
        for j in range(2, order + 1):
            coords[(j, 0)] = val()
        coords[(1, 1)] = val()
        coords[(2, 1)] = val()
        if abs(float(coords[(2, 0)])) < U20_FLOOR:
            continue
        if abs(float(s_numerator(coords))) < S_FLOOR:
            continue
        for m in range(3, order):
            coords[(m, 1)] = 0
            rows = {}
            for j, k in ((2, 0), (1, 1), (2, 1), (3, 0), (3, 1), (4, 0)):
                row = TruncatedSeries2(m - 3, {(i, 0): coords[(i + j, k)] for i in range(m - 2)})
                rows[(j, k)] = Poly2.from_series(row).capped(m - 3)
            coords[(m, 1)] = -w_numerator(rows).to_series(m - 3)[(m - 3, 0)] / coords[(2, 0)] ** 2
        p = ParabolicJet(order, coords)
        # keep away from the degenerate fifth-order locus
        if abs(float(conic_numerator(p))) < 0.1:
            continue
        return p


def random_curve_jet(rng: random.Random, order: int, affine_floor: float | None = None) -> Dict[int, object]:
    """Curve jet u_0..u_order of float draws with |u_2| floored; optional full-affine floor."""
    _require_order("random_curve_jet", order, 2 if affine_floor is None else 4)

    val = functools.partial(_coordinate, rng, False)

    while True:
        jet = {i: val() for i in range(order + 1)}
        if abs(float(jet[2])) < U20_FLOOR:
            continue
        if affine_floor is not None:
            if abs(float(sum(equiaffine_terms(jet)))) < affine_floor:
                continue
        return jet


def near_identity_transform(rng: random.Random, special: bool = True) -> AffineTransform3:
    """A random rational transform within 1/20 of the identity, entry by entry; exactly unimodular if special."""

    def eps():
        return Fraction(rng.randint(-4, 4), 80)

    a, b, c = 1 + eps(), eps(), eps()
    k, l, m = eps(), 1 + eps(), eps()
    p, q = eps(), eps()
    r = 1 + eps()
    T = AffineTransform3(a=a, b=b, c=c, k=k, l=l, m=m, p=p, q=q, r=r)
    if special:
        # solve r exactly from det = 1; the r-cofactor is near 1, never zero here
        cof_r = a * l - b * k
        rest = T.delta() - r * cof_r
        r = (1 - rest) / cof_r
        T = AffineTransform3(a=a, b=b, c=c, k=k, l=l, m=m, p=p, q=q, r=r)
    return T
