import random
from fractions import Fraction

import pytest

from parajet.invariants import conic_numerator, s_numerator, w_numerator
from parajet.jets import DerivativeView, ParabolicJet, realize_series
from parajet.sampling import (
    S_FLOOR,
    U20_FLOOR,
    rand_rational,
    random_cone_branch_jet,
    random_curve_jet,
    random_parabolic_jet,
)

# -- reference: the cone chain solved by two evaluations per unknown ----------
# Each unknown u_{m,1} is set to 0 and to 1, the jet is realized through the
# rank-one column fill and the whole W-numerator series is built both times;
# the x^(m-3) coefficient is affine in the unknown, so the secant gives it.


def _ref_w_chain_residual(coords, m):
    sub = {(0, 0): coords[(0, 0)]}
    for j in range(1, m + 2):
        sub[(j, 0)] = coords[(j, 0)]
    for j in range(m + 1):
        sub[(j, 1)] = coords[(j, 1)]
    return w_numerator(DerivativeView(realize_series(ParabolicJet(m + 1, sub))))[(m - 3, 0)]


def _ref_cone_branch_jet(rng, order, exact=False):
    def val():
        if exact:
            return rand_rational(rng)
        return Fraction(rng.uniform(-2.0, 2.0)).limit_denominator(10**6)

    while True:
        coords = {(0, 0): val(), (1, 0): val(), (0, 1): val()}
        for j in range(2, order + 1):
            coords[(j, 0)] = val()
        coords[(1, 1)] = val()
        coords[(2, 1)] = val()
        if abs(float(coords[(2, 0)])) < U20_FLOOR:
            continue
        if abs(float(s_numerator(coords))) < S_FLOOR:
            continue
        u20, u11, u21, u30, u40 = (coords[jk] for jk in ((2, 0), (1, 1), (2, 1), (3, 0), (4, 0)))
        coords[(3, 1)] = (u20 * u40 * u11 - 2 * u30**2 * u11 + 2 * u30 * u21 * u20) / u20**2
        for m in range(4, order):
            coords[(m, 1)] = 0
            g0 = _ref_w_chain_residual(coords, m)
            coords[(m, 1)] = 1
            g1 = _ref_w_chain_residual(coords, m)
            coords[(m, 1)] = -g0 / (g1 - g0)
        p = ParabolicJet(order, coords)
        if abs(float(conic_numerator(p))) < 0.1:
            continue
        return p


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("order", range(5, 13))
def test_cone_sampler_equals_the_two_evaluation_reference(order, exact):
    for seed in (order, 100 + order):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        p = random_cone_branch_jet(rng, order, exact=exact)
        q = _ref_cone_branch_jet(ref_rng, order, exact=exact)
        assert p.coords == q.coords
        assert all(type(p.coords[jk]) is type(q.coords[jk]) for jk in q.coords)
        assert rng.getstate() == ref_rng.getstate()


def test_cone_sampler_lands_on_the_subvariety():
    p = random_cone_branch_jet(random.Random(3), 9, exact=True)
    assert w_numerator(p.filled(4)) == 0
    W = w_numerator(DerivativeView(realize_series(p)))
    assert W.order == 5 and all(W[(j, 0)] == 0 for j in range(6))


@pytest.mark.parametrize(
    "sampler, kwargs, least",
    [
        (random_cone_branch_jet, {}, 5),
        (random_parabolic_jet, {}, 4),
        (random_parabolic_jet, {"generic_floor": None}, 3),
        (random_curve_jet, {}, 2),
        (random_curve_jet, {"affine_floor": 0.3}, 4),
    ],
)
def test_samplers_reject_orders_they_cannot_serve(sampler, kwargs, least):
    for order in range(least):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"{sampler.__name__} needs order >= {least}, got {order}"):
            sampler(rng, order, **kwargs)
        assert rng.getstate() == state
    sampler(random.Random(1), least, **kwargs)
