import random

import pytest

from parajet.invariants import w_numerator
from parajet.jets import DerivativeView, realize_series
from parajet.sampling import random_cone_branch_jet, random_curve_jet, random_parabolic_jet

import reference


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("order", range(5, 13))
def test_cone_sampler_equals_the_two_evaluation_reference(order, exact):
    for seed in (order, 100 + order):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        p = random_cone_branch_jet(rng, order, exact=exact)
        q = reference.cone_branch_jet(ref_rng, order, exact=exact)
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
