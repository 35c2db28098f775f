import dataclasses
import functools
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parajet.normalize as normalize
import parajet.series as series
from parajet.classify import Cone, classify, realize_graph
from parajet.invariants import h_terms, invariant_M, invariant_W, invariant_X
from parajet.jets import ParabolicJet, realize_series
from parajet.normalize import (
    PIPELINE_BITS,
    AmbiguousBranchError,
    BranchError,
    _check_parabolic,
    normalize_curve_gl2,
    normalize_curve_sl2,
    normalize_parabolic_surface,
    sa2_frame_fourth_order,
    sa2_moving_frame,
    surface_frame,
)
from parajet.sampling import (
    near_identity_transform,
    random_cone_branch_jet,
    random_curve_jet,
    random_parabolic_jet,
)
from parajet.scalars import cbrt, scalar_to_string, to_float
from parajet.series import (
    AffineTransform3,
    CurveTransform2,
    TruncatedSeries1,
    TruncatedSeries2,
    apply_affine,
    apply_affine_curve,
    series_to_json,
)

from helpers import equivalent_surfaces
import reference
from reference import cone_model, from_monomials1

F = Fraction


def test_cone_model_is_its_own_normal_form():
    f = cone_model()
    res = normalize_parabolic_surface(f)
    assert res.branch == "Cone[model]"
    assert res.normal_series == f
    assert to_float(res.readings["W"]) == 0
    assert to_float(res.readings["X"]) == 0


def test_surface_phantoms_and_inherited_relations():
    rng = random.Random(8)
    for _ in range(5):
        p = random_parabolic_jet(rng, 8)
        res = normalize_parabolic_surface(realize_series(p))
        ns = res.normal_series
        for jk, expect in [((2, 0), 1), ((1, 1), 0), ((2, 1), 1), ((3, 0), 0), ((4, 0), 0), ((4, 1), 0)]:
            assert abs(to_float(ns[jk]) - expect) < 1e-12, (jk, ns[jk])
        # the rank-one relations survive the loops: readings of dependent slots
        for jk, expect in [((0, 2), 0), ((1, 2), 0), ((0, 3), 0), ((2, 2), 2), ((1, 3), 0), ((0, 4), 0)]:
            assert abs(to_float(ns[jk]) - expect) < 1e-12, (jk, ns[jk])


def test_normal_form_matches_generic_shape():
    # u = s^2/2 + s^2 t/2 + W s^3 t/6 + s^2 t^2/2 + M s^5/120 + 6 W s^3 t^2 / 12 + ...
    rng = random.Random(9)
    p = random_parabolic_jet(rng, 8)
    res = normalize_parabolic_surface(realize_series(p))
    ns = res.normal_series
    W = ns[(3, 1)]
    # (3,2) coefficient: 6 W x^3 y^2 / (3! 2!) means u_{3,2} = 6W
    assert abs(to_float(ns[(3, 2)]) - 6 * to_float(W)) < 1e-10


def _assert_round_trip(f, res):
    """The composed transform carries the input onto the normal form."""
    g = (apply_affine_curve if isinstance(f, TruncatedSeries1) else apply_affine)(f, res.transform)
    for key in g.coeffs.keys() | res.normal_series.coeffs.keys():
        a, b = to_float(g[key]), to_float(res.normal_series[key])
        assert abs(a - b) <= 1e-9 * (1.0 + max(abs(a), abs(b))), (res.branch, key, a, b)


def test_composed_transform_roundtrip():
    rng = random.Random(10)
    for _ in range(3):
        f = realize_series(random_parabolic_jet(rng, 8))
        _assert_round_trip(f, normalize_parabolic_surface(f))


def _profile_cylinder(profile, order=7):
    """The cylinder over a curve profile, with a slope in y for the transvection loop."""
    return TruncatedSeries2(order, {**{(j, 0): F(c) for j, c in profile.items()}, (0, 1): F(2)})


ROUND_TRIP_SURFACES = [
    pytest.param("Cone", lambda: realize_series(random_cone_branch_jet(random.Random(16), 8)), id="cone"),
    pytest.param(
        "Cone[model]",
        lambda: apply_affine(cone_model(8), near_identity_transform(random.Random(22))),
        id="cone-model",
    ),
    pytest.param(
        "order-too-low", lambda: realize_series(random_parabolic_jet(random.Random(11), 4)), id="order-too-low"
    ),
    pytest.param(
        "Cylinder[Minus]",
        lambda: TruncatedSeries2(6, {(0, 0): F(1), (1, 0): F(1, 3), (0, 2): F(1), (0, 3): F(1, 2)}),
        id="y-profile-swap",
    ),
    pytest.param("Cylinder[Plus]", lambda: _profile_cylinder({0: 1, 2: 1, 3: F(1, 2), 4: 1}), id="cylinder-plus"),
    pytest.param("Cylinder[Minus]", lambda: _profile_cylinder({2: -2, 4: 1}), id="cylinder-minus"),
    pytest.param("Cylinder[Parabola]", lambda: _profile_cylinder({1: 1, 2: 3}), id="cylinder-parabola"),
]

ROUND_TRIP_CURVES = [
    (normalize_curve_sl2, "sl2-curve", {0: 1, 1: 2, 2: F(3, 2), 3: F(1, 2), 4: 3, 5: -1, 6: F(1, 7)}),
    (normalize_curve_sl2, "sl2-curve", {1: F(1, 3), 2: -3, 3: 1, 4: 2, 5: F(1, 7)}),
    (normalize_curve_gl2, "Plus", {0: 1, 1: 2, 2: 1, 3: F(1, 2), 4: 3, 5: -1, 6: F(1, 7)}),
    (normalize_curve_gl2, "Plus", {2: -3, 3: 1, 4: -2, 5: F(1, 7)}),
    (normalize_curve_gl2, "Minus", {1: -1, 2: 1, 3: 1, 4: -2, 5: F(1, 3)}),
    (normalize_curve_gl2, "Minus", {2: -3, 3: 1, 4: 2, 5: F(1, 7)}),
    (normalize_curve_gl2, "Parabola", {0: 2, 2: 1, 3: 1, 4: F(5, 3)}),
    (normalize_curve_gl2, "Parabola", {1: 1, 2: -2, 3: 1, 4: F(-5, 6)}),
]


@pytest.mark.parametrize("branch, make", ROUND_TRIP_SURFACES)
def test_transform_round_trip_on_every_surface_branch(branch, make):
    f = make()
    res = normalize_parabolic_surface(f)
    assert res.branch == branch
    assert ("swap horizontal axes so that u_xx != 0" in res.steps) == (f[(2, 0)] == 0)
    _assert_round_trip(f, res)


@pytest.mark.parametrize("normalize, branch, jet", ROUND_TRIP_CURVES)
def test_transform_round_trip_on_every_curve_branch(normalize, branch, jet):
    f = TruncatedSeries1(max(jet) + 1, {i: F(c) for i, c in jet.items()})
    res = normalize(f)
    assert res.branch == branch
    _assert_round_trip(f, res)
    # and on a float jet, the pipeline's usual input
    g = TruncatedSeries1(f.order, {i: float(c) for i, c in f.coeffs.items()})
    _assert_round_trip(g, normalize(g))


def test_transform_is_composed_only_when_read(monkeypatch):
    calls = []
    then = AffineTransform3.then
    monkeypatch.setattr(AffineTransform3, "then", lambda T, other: calls.append(other) or then(T, other))
    res = normalize_parabolic_surface(realize_series(random_parabolic_jet(random.Random(10), 8)))
    assert res.branch == "Generic" and calls == []
    res.transform
    assert calls == res.loops[1:]


def test_loop_idempotence():
    rng = random.Random(12)
    p = random_parabolic_jet(rng, 8)
    res = normalize_parabolic_surface(realize_series(p))
    again = normalize_parabolic_surface(res.normal_series)
    # normal form of a normal form is itself, via an identity transform
    (a, b, c), (k, l, m), (pq, q, r) = again.transform.matrix()
    assert abs(to_float(a) - 1) < 1e-9 and abs(to_float(l) - 1) < 1e-9 and abs(to_float(r) - 1) < 1e-9
    for off in (b, c, k, m, pq, q):
        assert abs(to_float(off)) < 1e-9
    for jk in res.normal_series.coeffs:
        assert abs(to_float(again.normal_series[jk]) - to_float(res.normal_series[jk])) < 1e-8


def test_equivalence_decision_under_random_transform():
    rng = random.Random(14)
    p = random_parabolic_jet(rng, 8, exact=True)
    f = realize_series(p)
    f = TruncatedSeries2(f.order, {jk: c for jk, c in f.coeffs.items() if jk != (0, 0)})
    T = near_identity_transform(rng)
    g = apply_affine(f, T)
    assert equivalent_surfaces(f, g)
    # and a genuinely different surface is not equivalent
    other = dict(f.coeffs)
    other[(5, 0)] = other.get((5, 0), F(0)) + 1
    assert not equivalent_surfaces(f, TruncatedSeries2(f.order, other))


@pytest.mark.parametrize("cone", [False, True])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_normalizing_an_affine_image_gives_the_same_normal_form(cone, seed):
    rng = random.Random(seed)
    draw = random_cone_branch_jet if cone else random_parabolic_jet
    f = realize_series(draw(rng, 8, exact=True))
    f = TruncatedSeries2(f.order, {jk: c for jk, c in f.coeffs.items() if jk != (0, 0)})
    T = near_identity_transform(rng)
    assert T.delta() == 1
    res_f = normalize_parabolic_surface(f)
    res_g = normalize_parabolic_surface(apply_affine(f, T))
    assert res_g.branch == res_f.branch == ("Cone" if cone else "Generic")
    for name in ("X", "Y") if cone else ("W", "M"):
        a, b = to_float(res_f.readings[name]), to_float(res_g.readings[name])
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (name, a, b)


def test_surface_frame_refuses_a_cylinder():
    # u = x^2/2 + x^3/12: S = 0, so the normal form is a curve profile with no surface frame
    coords = {(j, k): 0 for j in range(5) for k in (0, 1) if j + k <= 4}
    p = ParabolicJet(4, {**coords, (2, 0): 1, (3, 0): Fraction(1, 2)})
    with pytest.raises(BranchError, match="no surface moving frame on branch Cylinder"):
        surface_frame(p)


@pytest.mark.parametrize("order", [4, 5])
def test_a_slope_invariant_vanishing_only_at_the_base_point_is_refused(order):
    # u20 = u31 = 1: S = 0 at the point, but its numerator has the x-coefficient u20 u31 = 1,
    # at order 4 of the top degree n - 3 that the check reads
    coords = {(j, k): 0 for j in range(order + 1) for k in (0, 1) if j + k <= order}
    f = realize_series(ParabolicJet(order, {**coords, (2, 0): 1, (3, 1): 1}))
    with pytest.raises(BranchError, match="third-order slope invariant vanishes at the base point but not identically"):
        normalize_parabolic_surface(f)


def test_invariantize_phantoms_and_readings():
    rng = random.Random(15)
    p = random_parabolic_jet(rng, 8)
    normal = surface_frame(p).normal_series
    assert abs(to_float(normal[(2, 1)]) - 1) < 1e-12
    w = normal[(3, 1)]
    assert abs(to_float(w) - to_float(invariant_W(p.filled(4)))) < 1e-8
    m = normal[(5, 0)]
    assert abs(to_float(m) - to_float(invariant_M(p.filled(5)))) < 1e-8


def test_cone_branch_readings():
    rng = random.Random(16)
    p = random_cone_branch_jet(rng, 8)
    res = normalize_parabolic_surface(realize_series(p))
    assert res.branch == "Cone"
    assert abs(to_float(res.readings["X"]) - to_float(invariant_X(p.filled(5)))) < 1e-10


def test_flat_branch():
    f = TruncatedSeries2(4, {(1, 0): F(1, 2), (0, 1): F(-1, 3), (0, 0): F(2)})
    res = normalize_parabolic_surface(f)
    assert res.branch == "Flat"


def test_nonparabolic_input_rejected():
    f = TruncatedSeries2(4, {(2, 0): F(1), (0, 2): F(1)})
    with pytest.raises(BranchError):
        normalize_parabolic_surface(f)


def test_axis_swap_handles_y_profile():
    # u = y^2/2 (+ higher): rank one with u_xx = 0; the swap must recover it
    f = TruncatedSeries2(6, {(0, 2): F(1), (0, 3): F(1, 2)})
    res = normalize_parabolic_surface(f)
    assert res.branch.startswith("Cylinder")


def test_w_point_zero_but_not_identically_rejected():
    # fabricate a jet with the W numerator zero at the point but random higher
    # mixed coordinates: the loops must refuse the cone branch
    rng = random.Random(18)
    while True:
        p = random_parabolic_jet(rng, 8, generic_floor=None)
        coords = dict(p.coords)
        u20, u11, u21, u30, u40 = (
            coords[(2, 0)],
            coords[(1, 1)],
            coords[(2, 1)],
            coords[(3, 0)],
            coords[(4, 0)],
        )
        coords[(3, 1)] = (u20 * u40 * u11 - 2 * u30**2 * u11 + 2 * u30 * u21 * u20) / u20**2
        from parajet.jets import ParabolicJet
        from parajet.invariants import w_numerator

        q = ParabolicJet(8, coords)
        if abs(to_float(coords[(4, 1)])) > 0.5:
            with pytest.raises((BranchError, AmbiguousBranchError)):
                normalize_parabolic_surface(realize_series(q))
            break


# -- curves ---------------------------------------------------------------------


def test_sl2_normal_form_and_closed_forms():
    rng = random.Random(19)
    for _ in range(10):
        jet = random_curve_jet(rng, 7)
        res = normalize_curve_sl2(TruncatedSeries1(7, dict(jet)))
        assert abs(to_float(res.normal_series[2]) - 1) < 1e-12
        assert abs(to_float(res.normal_series[3])) < 1e-12
        u2, u3, u4 = jet[2], jet[3], jet[4]
        g4 = (3 * u2 * u4 - 5 * u3 * u3) / (3 * cbrt(u2) ** 8)
        assert abs(to_float(res.readings["G4"]) - to_float(g4)) < 1e-9 * (1 + abs(to_float(g4)))


def test_parabola_normalizes_to_zero_tail():
    f = TruncatedSeries1(6, {2: F(1)})
    res = normalize_curve_sl2(f)
    for i in range(3, 7):
        assert res.readings[f"G{i}"] == 0


def test_gl2_branches():
    # already normal: u = x^2/2 + x^4/4! -> Plus with zero fifth reading
    f = TruncatedSeries1(6, {2: F(1), 4: F(1)})
    res = normalize_curve_gl2(f)
    assert res.branch == "Plus"
    assert to_float(res.readings["G5"]) == 0
    g = TruncatedSeries1(6, {2: F(1)})
    assert normalize_curve_gl2(g).branch == "Parabola"
    h = TruncatedSeries1(6, {2: F(1), 4: F(-2)})
    assert normalize_curve_gl2(h).branch == "Minus"


def test_gl2_conic_fixture():
    # u = 3 - sqrt(9 - 3 x^2) = x^2/2! + 0 + x^4/4! + 0 + O(6): Plus, G5 = 0
    terms = {1: F(1, 2), 2: F(-1, 8), 3: F(1, 16), 4: F(-5, 128)}
    mono = {}
    for p_, c in terms.items():
        mono[2 * p_] = mono.get(2 * p_, F(0)) + (-3) * c * F(-1, 3) ** p_
    f = from_monomials1(8, mono)
    assert f[2] == 1 and f[3] == 0 and f[4] == 1 and f[5] == 0
    res = normalize_curve_gl2(f)
    assert res.branch == "Plus"
    assert abs(to_float(res.readings["G5"])) < 1e-12
    assert abs(to_float(res.readings["G7"])) < 1e-10


def test_curve_flat_rejected():
    with pytest.raises(BranchError):
        normalize_curve_sl2(TruncatedSeries1(5, {3: F(1)}))


def test_sa2_moving_frame_printed_solution():
    rng = random.Random(20)
    for _ in range(20):
        jet = random_curve_jet(rng, 8)
        frame = sa2_moving_frame(jet)
        u0, u1, u2, u3 = (to_float(jet[i]) for i in range(4))
        if u2 < 0:
            u0, u2 = -u0, -u2
        c13 = u2 ** (1.0 / 3.0)
        assert abs(to_float(frame["a"]) - (3 * u2 * u2 - u1 * u3) / (3 * c13**5)) < 1e-10
        assert abs(to_float(frame["b"]) - u3 / (3 * c13**5)) < 1e-10
        assert abs(to_float(frame["k"]) + u1 / c13) < 1e-10
        # 1 = det: a l - b k with l = (1 + b k)/a automatically; plug-through:
        from parajet.invariants import equiaffine_curvature

        got = to_float(sa2_frame_fourth_order(jet))
        expect = to_float(equiaffine_curvature(jet))
        assert abs(got - expect) <= 1e-9 * (1 + abs(expect))


def test_sa2_frame_trivial_jet():
    jet = {0: F(0), 1: F(0), 2: F(1), 3: F(0), 4: F(0)}
    frame = sa2_moving_frame(jet)
    assert (frame["a"], frame["b"], frame["c"], frame["k"], frame["m"]) == (1, 0, 0, 0, 0)


def test_flat_cone_model_equivalence():
    # a unimodular image of the flat-cone model normalizes back to the model
    rng = random.Random(22)
    f = cone_model(8)
    T = near_identity_transform(rng)
    g = apply_affine(f, T)
    res = normalize_parabolic_surface(g)
    assert res.branch == "Cone[model]"
    for jk in f.coeffs:
        assert abs(to_float(res.normal_series[jk]) - to_float(f[jk])) < 1e-8


def test_cone_normal_form_shape():
    # the W == 0, X != 0 normal form carries the forced dependent pattern:
    # G41 = 0, G60 = 0, G51 = 4X, G52 = 20X, G23 = 6
    rng = random.Random(50)
    p = random_cone_branch_jet(rng, 8)
    res = normalize_parabolic_surface(realize_series(p))
    assert res.branch == "Cone"
    ns = res.normal_series
    X = to_float(res.readings["X"])
    assert abs(to_float(ns[(4, 1)])) < 1e-12
    assert abs(to_float(ns[(6, 0)])) < 1e-12
    assert abs(to_float(ns[(5, 1)]) - 4 * X) <= 1e-9 * (1 + abs(X))
    assert abs(to_float(ns[(5, 2)]) - 20 * X) <= 1e-9 * (1 + abs(X))
    assert abs(to_float(ns[(2, 3)]) - 6) < 1e-12


def test_sl2_normal_form_bit_size_stays_bounded():
    # every loop snaps, so coefficients stay near the 2 PIPELINE_BITS snapping
    # threshold instead of growing by about 127 bits per order
    rng = random.Random(0)
    worst = 0
    for _ in range(20):
        jet = random_curve_jet(rng, 8)
        res = normalize_curve_sl2(TruncatedSeries1(8, dict(jet)))
        for c in res.normal_series.coeffs.values():
            worst = max(worst, c.numerator.bit_length(), c.denominator.bit_length())
    assert worst <= 2 * PIPELINE_BITS + 8


# -- the precision rule leaves exact runs, the CI documents and exact traffic as they were --


def _result_doc(res):
    readings = {k: None if v is None else scalar_to_string(v) for k, v in res.readings.items()}
    transform = [scalar_to_string(x) for x in dataclasses.astuple(res.transform)]
    return [res.branch, series_to_json(res.normal_series), readings, transform, res.steps]


def _exact_traffic():
    # the `exact` benchmark's kernels: exact apply_affine under near-identity maps, cone realization
    rng = random.Random(15)
    docs = []
    for draw in (random_parabolic_jet, random_cone_branch_jet):
        f = realize_series(draw(rng, 8, exact=True))
        f = TruncatedSeries2(8, {jk: c for jk, c in f.coeffs.items() if jk != (0, 0)})
        docs.append(series_to_json(apply_affine(f, near_identity_transform(rng))))
    g = realize_graph(Cone(TruncatedSeries1(8, {2: F(1), 3: F(-1, 3), 4: F(1, 5)})), 8)
    return [*docs, series_to_json(g), classify(g).developable_kind]


CI_CURVE = TruncatedSeries1(6, dict(enumerate(map(F, ["0", "1", "2", "1/2", "3", "-1", "1/7"]))))


# sha256 prefixes of the same documents computed by the exact-then-snap loops this rule replaced
@pytest.mark.parametrize(
    "make, digest",
    [
        pytest.param(lambda: _result_doc(normalize_parabolic_surface(cone_model())), "8de1d71cbc9deff0", id="cone-model"),
        pytest.param(
            lambda: _result_doc(normalize_parabolic_surface(TruncatedSeries2(4, {(0, 2): F(1), (0, 3): F(1, 2)}))),
            "2305fe742dca122b",
            id="ci-y-profile",
        ),
        pytest.param(lambda: _result_doc(normalize_curve_gl2(CI_CURVE)), "29309231d0fc048d", id="ci-gl2-curve"),
        pytest.param(
            lambda: _result_doc(normalize_curve_sl2(TruncatedSeries1(6, {2: F(1)}))), "e56871a075a04f1b", id="parabola-tail"
        ),
        pytest.param(_exact_traffic, "35dcdd2021bc181c", id="exact-traffic"),
    ],
)
def test_exact_runs_ci_documents_and_exact_traffic_are_unchanged(make, digest):
    assert hashlib.sha256(json.dumps(make()).encode()).hexdigest()[:16] == digest


def _exact_hessian_verdict(F, tol):
    """The message of the exact rule: every Hessian-determinant coefficient within tol (1 + max(1, |F_jk|)^2)."""
    scale = max([1.0] + [abs(to_float(c)) for c in F.coeffs.values()]) ** 2 + 1.0
    H = functools.reduce(reference.add, reference.numerator_terms(h_terms, reference.monomial(F), F.order - 2))
    bad = [(jk, c) for jk, c in reference.factorial(H).items() if abs(to_float(c)) > tol * scale]
    if bad:
        jk, c = max(bad, key=lambda it: abs(to_float(it[1])))
        return f"Hessian determinant coefficient {jk} = {to_float(c):.3e}"
    return None


# The straddle needs delta below the largest coefficient, so max |F_jk| below about |u_20| / tol:
# at order 12 the jets of seeds 900 and 904 meet that, those of 901-903 do not.
@pytest.mark.parametrize(
    "seed, order, sampler",
    [pytest.param(seed, 8, random_parabolic_jet, id=str(seed)) for seed in range(4)]
    + [pytest.param(seed, 12, random_parabolic_jet, id=f"order12-{seed}") for seed in (0, 4)]
    + [pytest.param(0, 12, random_cone_branch_jet, id="cone")],
)
def test_the_float_hessian_check_decides_and_words_as_the_exact_series(seed, order, sampler):
    rng = random.Random(900 + seed)
    base = realize_series(sampler(rng, order))
    base = TruncatedSeries2(order, {jk: F(c) for jk, c in base.coeffs.items()})
    tol = 1e-9
    scale = max([1.0] + [abs(to_float(c)) for c in base.coeffs.values()]) ** 2 + 1.0
    verdicts = []
    # moving u_04 by delta moves the (0, 2) Hessian coefficient by u_20 delta: straddle the threshold
    for factor in [0, F(1, 2), 1 - F(1, 10**15), 1, 1 + F(1, 10**15), 2, 10**6]:
        delta = F(tol * scale) * factor / base[(2, 0)]
        f = TruncatedSeries2(order, {**base.coeffs, (0, 4): base[(0, 4)] + delta})
        want = _exact_hessian_verdict(f, tol)
        verdicts.append(want)
        if want is None:
            _check_parabolic(f, tol)
        else:
            with pytest.raises(BranchError) as err:
                _check_parabolic(f, tol)
            assert str(err.value).endswith(want)
    assert None in verdicts and any(verdicts)


def test_a_float_hessian_within_its_rounding_bound_of_the_threshold_is_decided_exactly():
    # the cylinder over 2x + y, u_jk = 2^j, is rank one; u_04 + delta moves the (0, 2) Hessian coefficient by
    # u_20 delta.  At 1e-9 of the threshold the float sum, whose terms are near 1e7 times the threshold, lands
    # below it: only the rounding slack sends that case to the exact rule, which refuses it.
    tol, threshold = 1e-9, F(1e-9 * (16**2 + 1))  # tol (1 + max |F_jk|^2), max |F_jk| = u_40 = 16
    base = {(j, k): F(2**j) for j in range(5) for k in range(5 - j) if j + k >= 2}
    for factor in (1 - F(1, 10**9), 1 + F(1, 10**9)):
        f = TruncatedSeries2(4, {**base, (0, 4): 1 + threshold * factor / 4})
        want = _exact_hessian_verdict(f, tol)
        if factor < 1:
            assert want is None
            _check_parabolic(f, tol)
            continue
        assert want == "Hessian determinant coefficient (0, 2) = 2.570e-07"
        with pytest.raises(BranchError) as err:
            _check_parabolic(f, tol)
        assert str(err.value).endswith(want)


def test_a_tie_of_hessian_coefficients_names_the_least_index():
    # H = -x^2/2 + xy + y^2/2 to order 2: the coefficients (2, 0), (1, 1) and (0, 2) tie at magnitude 1
    f = TruncatedSeries2(4, {(2, 0): F(1), (0, 4): F(1), (1, 3): F(1), (2, 2): F(-1)})
    with pytest.raises(BranchError) as err:
        _check_parabolic(f, 1e-9)
    assert str(err.value).endswith("Hessian determinant coefficient (0, 2) = 1.000e+00")


@pytest.mark.parametrize("order", [8, 12])
def test_the_benchmark_draws_pass_the_float_hessian_certificate(order, monkeypatch):
    # the oracle draws (generic and cone jets at orders 8 and 12): the fused float pass certifies every
    # Hessian, so the exact branch never runs; a bound too loose would show only as that slow branch
    checks, fallbacks = [], []
    check, exact = normalize._check_parabolic, normalize.h_terms
    monkeypatch.setattr(normalize, "_check_parabolic", lambda F, tol: checks.append(F) or check(F, tol))
    monkeypatch.setattr(normalize, "h_terms", lambda c: fallbacks.append(c) or exact(c))
    rng = random.Random(order)
    for _ in range(10):
        for draw in (random_parabolic_jet, random_cone_branch_jet):
            normalize_parabolic_surface(realize_series(draw(rng, order)))
    assert len(checks) == 20 and fallbacks == []
    # the spy sees the exact branch where the float pass refuses to certify
    with pytest.raises(BranchError, match=re.escape("coefficient (0, 0) = 1.000e+00")):
        check(TruncatedSeries2(4, {(2, 0): F(1), (0, 2): F(1)}), 1e-9)
    assert len(fallbacks) == 1


@pytest.mark.parametrize("order", [8, 12])
def test_the_benchmark_draws_certify_every_rooted_loop(order, monkeypatch):
    # the oracle draws (generic and cone jets at orders 8 and 12) and the frames draws (order-8 jets and
    # sa2 and gl2 curves): no rooted loop falls back to the exact kernel
    images, image = [], series._grid_image
    monkeypatch.setattr(series, "_grid_image", lambda F, T, grid: images.append(image(F, T, grid)) or images[-1])
    rng = random.Random(980 + order)
    for _ in range(5):
        for draw in (random_parabolic_jet, random_cone_branch_jet):
            normalize_parabolic_surface(realize_series(draw(rng, order)))
        normalize_curve_sl2(TruncatedSeries1(8, dict(random_curve_jet(rng, 8))))
        normalize_curve_gl2(TruncatedSeries1(8, dict(random_curve_jet(rng, 8, affine_floor=0.3))))
    assert len(images) >= 45 and None not in images


def test_curve_translate_and_shear_loops_edit_the_series_without_a_solve(monkeypatch):
    # with F0 and F1 nonzero, both first loops are identity-part edits of the y-free graph; every later
    # loop substitutes, in the exact kernel or in the fixed-point one
    substitutions, loops = [], []
    apply = normalize.apply_affine_curve

    def counting(kernel):
        def count(*args, **kwargs):
            substitutions.append(args)
            return kernel(*args, **kwargs)

        return count

    def recording(F, T, grid=None):
        before = len(substitutions)
        G = apply(F, T, grid)
        loops.append((T, len(substitutions) - before))
        return G

    for name in ("series3_from_bivariate_in_linear", "substitute_on_grid"):
        monkeypatch.setattr(series, name, counting(getattr(series, name)))
    monkeypatch.setattr(normalize, "apply_affine_curve", recording)
    curve = TruncatedSeries1(6, dict(enumerate(map(F, ["1/3", "2", "3", "1/2", "-1", "1/7", "5"]))))
    res = normalize_curve_gl2(curve)
    assert res.steps[:2] == ["translate graph to the origin", "shear away the first-order term"]
    assert [T for T, _ in loops[:2]] == [CurveTransform2(f=F(1, 3)), CurveTransform2(c=F(2))]
    assert [calls for _, calls in loops[:2]] == [0, 0]
    assert all(calls >= 1 for _, calls in loops[2:]) and len(loops) > 2
