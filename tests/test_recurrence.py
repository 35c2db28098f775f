import random
import sys
from fractions import Fraction

import pytest

from parajet import recurrence
from parajet.invariants import invariant_W, invariant_X, s_numerator
from parajet.jets import ParabolicJet, parabolic_jet_of_series
from parajet.normalize import BranchError, surface_frame
from parajet.prolong import X, jet_generators, poly, vf
from parajet.recurrence import (
    CONE_PHANTOMS,
    GENERIC_PHANTOMS,
    apply_D_pair,
    frame_derivatives,
    homogeneous_curve_coefficients,
    homogeneous_curve_series,
    homogeneous_tangent_field,
    invariant_derivatives,
    identity_record,
    mc_closed_form,
    cone_symmetry_fields,
    recurrence_derivation,
    solve_mc_curve,
    solve_mc_surface,
    surface_tangency_residual,
    tangency_residual_curve,
    verify_commutator,
    verify_curve_recurrences,
    verify_recurrences,
)
from parajet.sampling import random_cone_branch_jet, random_curve_jet, random_parabolic_jet
from parajet.scalars import cbrt, to_float

from reference import cone_model

F = Fraction


def test_generic_cramer_matches_closed_forms():
    rng = random.Random(30)
    for _ in range(5):
        p = random_parabolic_jet(rng, 8)
        mc = solve_mc_surface("Generic", p)
        K1c, K2c = mc_closed_form(
            "Generic",
            W=to_float(mc.readings["W"]),
            M=to_float(mc.readings["M"]),
            I51=to_float(mc.readings["I51"]),
        )
        for a, b in zip(mc.K1 + mc.K2, K1c + K2c):
            assert abs(to_float(a) - to_float(b)) <= 1e-10 * (1 + abs(to_float(b)))


def test_generic_matrix_is_the_printed_one():
    rng = random.Random(31)
    p = random_parabolic_jet(rng, 8)
    mc = solve_mc_surface("Generic", p)
    W, M = to_float(mc.readings["W"]), to_float(mc.readings["M"])
    printed = [
        [-3, -1, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0],
        [0, 0, 0, -3, -3, 0],
        [-3, -2, 0, 0, 0, 0],
        [0, 0, 0, 0, -4 * W, -6],
        [0, 0, -M, -10 * W, -24 * W, -18],
    ]
    for i in range(6):
        for j in range(6):
            assert abs(to_float(mc.matrix[i][j]) - printed[i][j]) <= 1e-9 * (1 + abs(printed[i][j]))
    # right sides: -(0, 1, 0, W, M, I51) and -(1, 0, W, 2, 0, 6 W^2)
    I51 = to_float(mc.readings["I51"])
    for got, expect in zip(mc.rhs1, [0, 1, 0, W, M, I51]):
        assert abs(to_float(got) + expect) <= 1e-9 * (1 + abs(expect))
    for got, expect in zip(mc.rhs2, [1, 0, W, 2, 0, 6 * W * W]):
        assert abs(to_float(got) + expect) <= 1e-9 * (1 + abs(expect))


def test_cone_cramer_matches_closed_forms():
    rng = random.Random(32)
    p = random_cone_branch_jet(rng, 8)
    mc = solve_mc_surface("Cone", p)
    X, Y = to_float(mc.readings["X"]), to_float(mc.readings["Y"])
    K1c, K2c = mc_closed_form("Cone", X=X, Y=Y)
    for a, b in zip(mc.K1 + mc.K2, K1c + K2c):
        assert abs(to_float(a) - to_float(b)) <= 1e-10 * (1 + abs(to_float(b)))
    assert abs(to_float(mc.K1[5]) - X / 6.0) <= 1e-12 * (1 + abs(X))


def test_generic_k4_vanishes_when_m_and_i51_do():
    # K1^4 = 2M/W - I51/(2W): zero numerator when both vanish
    K1, _ = mc_closed_form("Generic", W=0.7, M=0.0, I51=0.0)
    assert K1[3] == 0 and K1[4] == 0


def test_invariant_derivation_determinant_identity():
    rng = random.Random(33)
    for _ in range(10):
        p = random_parabolic_jet(rng, 6)
        coeffs = invariant_derivatives(p)
        c = p.coords
        s = c[(2, 0)] * c[(2, 1)] - c[(1, 1)] * c[(3, 0)]
        expect = c[(2, 0)] / cbrt(s) ** 2
        got = coeffs.determinant()
        assert abs(to_float(got) - to_float(expect)) <= 1e-10 * (1 + abs(to_float(expect)))


def _order5_jet(u21, u31):
    """u20 = u11 = u30 = u40 = 1, so S = u21 - 1 and W = u31 + 1 - 2 u21."""
    coords = {(0, 0): 0, (1, 0): 0, (2, 0): 1, (3, 0): 1, (4, 0): 1, (5, 0): 0}
    coords.update({(0, 1): 0, (1, 1): 1, (2, 1): u21, (3, 1): u31, (4, 1): 0})
    return ParabolicJet(5, coords)


def test_invariant_derivations_refuse_the_vanishing_domain_numerators():
    invariant_derivatives(_order5_jet(2, 0))  # S = 1 and W = -3 lie in the domain
    for u21, u31 in ((1, 0), (2, 3)):  # S = 0 with W = -1, then W = 0 with S = 1
        with pytest.raises(ZeroDivisionError, match="generic-branch domain"):
            invariant_derivatives(_order5_jet(u21, u31))


def test_closed_form_derivations_match_moving_frame():
    rng = random.Random(34)
    p = random_parabolic_jet(rng, 8)
    cd = invariant_derivatives(p)
    fd = frame_derivatives(p)
    for name in ("alpha", "beta", "gamma", "delta"):
        a, b = to_float(getattr(cd, name)), to_float(getattr(fd, name))
        assert abs(a - b) <= 1e-9 * (1 + abs(a))


def _composed_frame_coeffs(res, p):
    """The operators from rows 0 and 1 of the composed transform's inverse matrix, as composed before."""
    A = res.transform.inverse_matrix()
    fx, fy = p.coords[(1, 0)], p.coords[(0, 1)]
    dxs, dys = A[0][0] + A[0][2] * fx, A[0][1] + A[0][2] * fy
    dxt, dyt = A[1][0] + A[1][2] * fx, A[1][1] + A[1][2] * fy
    det = dxs * dyt - dxt * dys
    return dyt / det, -dxt / det, -dys / det, dxs / det


@pytest.mark.parametrize("order", [8, 12])
@pytest.mark.parametrize("sampler", [random_parabolic_jet, random_cone_branch_jet], ids=["generic", "cone"])
def test_frame_operators_equal_the_composed_transforms_inverse(sampler, order):
    # the loops' inverses carried back through two rows give the composed inverse's rows: Fraction for Fraction,
    # and a float jet's operators to the bit
    import reference

    rng = random.Random(order)
    for _ in range(3):
        p = sampler(rng, order)
        floats = ParabolicJet(order, {jk: float(c) for jk, c in p.coords.items()})
        for q in (p, floats) if sampler is random_parabolic_jet else (p,):
            res = surface_frame(q)
            got = recurrence._frame_coeffs(res, q)
            reference.assert_same((got.alpha, got.beta, got.gamma, got.delta), _composed_frame_coeffs(res, q))


def test_cone_frame_operators_have_determinant_u20_over_s_to_the_two_thirds():
    rng = random.Random(37)
    for _ in range(6):
        p = random_cone_branch_jet(rng, 8)
        expect = to_float(p.coords[(2, 0)] / cbrt(s_numerator(p.coords)) ** 2)
        got = to_float(frame_derivatives(p).determinant())
        assert abs(got - expect) <= 1e-10 * abs(expect)


def test_d2w_equals_2w():
    rng = random.Random(35)
    for _ in range(5):
        p = random_parabolic_jet(rng, 6)
        w = to_float(invariant_W(p.filled(4)))
        got = to_float(apply_D_pair(invariant_W, p)[1])
        assert abs(got - 2 * w) <= 1e-7 * (1 + abs(w))


def test_d1w_identity():
    rng = random.Random(36)
    p = random_parabolic_jet(rng, 6)
    w = to_float(invariant_W(p.filled(4)))
    got = to_float(apply_D_pair(invariant_W, p)[0])
    assert abs(got + 2.0 / 3.0 * w * w) <= 1e-7 * (1 + w * w)


def test_apply_d_pair_evaluates_f_once():
    p = random_parabolic_jet(random.Random(37), 6)
    calls = []

    def spy(c):
        calls.append(c)
        return invariant_W(c)

    d1, d2 = apply_D_pair(spy, p)
    assert len(calls) == 1
    w = to_float(invariant_W(p.filled(4)))
    assert identity_record(d2, 2 * w, 1e-7)["pass"]
    assert identity_record(d1, -2.0 / 3.0 * w * w, 1e-7)["pass"]


def test_recurrence_reports_pass():
    rng = random.Random(37)
    rep = verify_recurrences("Generic", random_parabolic_jet(rng, 8))
    assert all(v["pass"] for v in rep.values()), rep
    rep = verify_recurrences("Cone", random_cone_branch_jet(rng, 8))
    assert all(v["pass"] for v in rep.values()), rep


def test_commutators():
    rng = random.Random(38)
    rep = verify_commutator("Generic", random_parabolic_jet(rng, 8))
    assert all(v["pass"] for v in rep.values()), rep
    rep = verify_commutator("Cone", random_cone_branch_jet(rng, 8))
    assert all(v["pass"] for v in rep.values()), rep


def _draws(sampler, indices):
    rng = random.Random(12353)
    jets = [sampler(rng, 8) for _ in range(max(indices) + 1)]
    return [jets[i] for i in indices]


@pytest.mark.parametrize(
    "branch, sampler, indices",
    [("Generic", random_parabolic_jet, (24, 111, 134, 138, 139)), ("Cone", random_cone_branch_jet, (8, 22, 28))],
)
def test_commutators_on_draws_where_finite_differences_missed(branch, sampler, indices):
    # a Richardson-difference commutator missed its 1e-5 bound on these draws
    # (worst 7.6e-4 generic, 0.25 cone); the recurrence one is exact to rounding
    for p in _draws(sampler, indices):
        rep = verify_commutator(branch, p)
        assert all(r["pass"] and r["residual"] <= 1e-12 for r in rep.values()), rep


@pytest.mark.parametrize(
    "branch, sampler, i, sigma",
    # K_1 of v4 = u d/dx (printed 2M/W - I51/(2W)); K_2 of v6 = u d/dy (printed 0)
    [("Generic", random_parabolic_jet, 0, 3), ("Cone", random_cone_branch_jet, 1, 5)],
)
def test_commutator_record_fails_on_a_perturbed_correction(monkeypatch, branch, sampler, i, sigma):
    p = sampler(random.Random(38), 8)
    assert all(r["pass"] for r in verify_commutator(branch, p).values())
    good = recurrence._cramer

    def perturbed(phantoms, values):
        A, rhs, K = good(phantoms, values)
        K[i] = K[i][:sigma] + [K[i][sigma] + F(1, 1000)] + K[i][sigma + 1 :]
        return A, rhs, K

    monkeypatch.setattr(recurrence, "_cramer", perturbed)
    rep = verify_commutator(branch, p)
    assert not rep[next(iter(rep))]["pass"], rep


@pytest.mark.parametrize(
    "sampler, f, phantoms, operators",
    [
        (random_parabolic_jet, invariant_W, GENERIC_PHANTOMS, lambda res, p: invariant_derivatives(p)),
        (random_cone_branch_jet, invariant_X, CONE_PHANTOMS, lambda res, p: recurrence._frame_coeffs(res, p)),
    ],
)
def test_recurrence_derivation_equals_total_derivatives(sampler, f, phantoms, operators):
    rng = random.Random(40)
    for _ in range(3):
        p = sampler(rng, 8)
        res = surface_frame(p)
        got = recurrence_derivation(lambda q: (f(q),), phantoms)(parabolic_jet_of_series(res.normal_series))
        for a, b in zip(got, apply_D_pair(f, p, operators(res, p))):
            assert identity_record(a, b, 1e-12)["pass"], (a, b)


def test_recurrence_derivation_refuses_an_unmatched_generator(monkeypatch):
    """A seventh field in the derivation's generator list has no frame coefficient: it raises, not drops."""
    q = parabolic_jet_of_series(surface_frame(random_parabolic_jet(random.Random(41), 8)).normal_series)
    seventh = vf("bad", phi=poly((1, {X: 2})))
    monkeypatch.setattr(recurrence, "jet_generators", lambda: jet_generators() + [seventh])
    derived = recurrence_derivation(lambda r: (invariant_W(r),), GENERIC_PHANTOMS)
    monkeypatch.undo()  # the Cramer systems solved at call time see the six generators
    with pytest.raises(ValueError, match="zip"):
        derived(q)


def test_curve_systems():
    rng = random.Random(39)
    jet = random_curve_jet(rng, 8)
    mc = solve_mc_curve("sa2", jet)
    G4 = to_float(mc.readings["G4"])
    assert abs(to_float(mc.K1[0])) < 1e-10
    assert abs(to_float(mc.K1[1]) - G4 / 3.0) < 1e-10 * (1 + abs(G4))
    assert abs(to_float(mc.K1[2]) + 1.0) < 1e-10
    jet0 = {i: F(0) for i in range(9)}
    jet0[2] = F(1)
    mc0 = solve_mc_curve("sa2", jet0)
    assert [to_float(r) for r in mc0.K1] == [0.0, 0.0, -1.0]

    jetg = random_curve_jet(rng, 8, affine_floor=0.3)
    mcg = solve_mc_curve("gl2", jetg)
    eps = mcg.readings["eps"]
    I5 = to_float(mcg.readings["G5"])
    expect = [eps * I5 / 2.0, eps * I5, eps / 3.0, -1.0]
    for a, b in zip(mcg.K1, expect):
        assert abs(to_float(a) - b) <= 1e-9 * (1 + abs(b))


def test_curve_recurrence_reports():
    rng = random.Random(40)
    rep = verify_curve_recurrences("sa2", random_curve_jet(rng, 8))
    assert all(v["pass"] for v in rep.values()), rep
    rep = verify_curve_recurrences("gl2", random_curve_jet(rng, 8, affine_floor=0.3))
    assert all(v["pass"] for v in rep.values()), rep


def test_sa2_parabola_recurrence_trivial():
    jet = {i: F(0) for i in range(9)}
    jet[2] = F(1)
    rep = verify_curve_recurrences("sa2", jet)
    assert rep["I6 = Dx^2 P + 5 P^2"]["pass"]
    assert abs(rep["I6 = Dx^2 P + 5 P^2"]["lhs"]) < 1e-12


def test_homogeneous_coefficient_values():
    assert homogeneous_curve_coefficients(F(1), 1, 7)[6] == F(13, 2)
    assert homogeneous_curve_coefficients(F(1), 1, 7)[7] == 20
    assert homogeneous_curve_coefficients(F(2), -1, 7)[6] == 5 - F(3, 2) * 4
    assert homogeneous_curve_coefficients(F(2), -1, 7)[7] == 24 - 34


def test_homogeneous_tangency():
    for a, sign in [(F(1), 1), (F(-2, 7), -1)]:
        Fs = homogeneous_curve_series(a, sign, 10)
        L = homogeneous_tangent_field(a, sign)
        resid = tangency_residual_curve(L, Fs)
        assert all(c == 0 for c in resid.coeffs.values())


def test_cone_algebra_and_tangency():
    from parajet.prolong import lie_bracket

    e1, e2, e3 = cone_symmetry_fields()

    def components(v):
        return (v.xi, v.eta, v.phi)

    b = lie_bracket(e1, e2)
    assert all(x == -y for x, y in zip(components(b), components(e3)))
    b = lie_bracket(e1, e3)
    assert all(x == -y for x, y in zip(components(b), components(e1)))
    b = lie_bracket(e2, e3)
    assert all(x == y for x, y in zip(components(b), components(e2)))
    f = cone_model(9)
    for e in (e1, e2, e3):
        r = surface_tangency_residual(e, f)
        assert all(c == 0 for c in r.coeffs.values())


def test_a_field_that_touches_a_jet_variable_has_no_tangency_residual():
    bad = vf("bad", xi=poly((1, {(1, 0): 1})))
    with pytest.raises(ValueError, match="field touches a jet variable"):
        surface_tangency_residual(bad, cone_model(6))


def test_generation_property_one_depth():
    # the sixth-order invariants reconstruct from {W, M, D1M, D2M} through the
    # recurrences and agree with the normalization readings
    from parajet.invariants import invariant_M
    from parajet.jets import realize_series
    from parajet.normalize import normalize_parabolic_surface
    from parajet.sampling import random_parabolic_jet

    rng = random.Random(48)
    for _ in range(5):
        p = random_parabolic_jet(rng, 8)
        coeffs = invariant_derivatives(p)
        W = to_float(invariant_W(p.filled(4)))
        M = to_float(invariant_M(p.filled(5)))
        d1m, d2m = (to_float(d) for d in apply_D_pair(invariant_M, p, coeffs))
        i51 = d2m + M - 80.0 / 9.0 * W**3
        i60 = d1m + 14.0 * M * W - 10.0 / 3.0 * i51 * W
        res = normalize_parabolic_surface(realize_series(p))
        assert abs(i51 - to_float(res.readings["I51"])) <= 1e-6 * (1 + abs(i51))
        assert abs(i60 - to_float(res.readings["I60"])) <= 1e-6 * (1 + abs(i60))


def test_solve_mc_surface_rejects_unknown_branch():
    p = random_parabolic_jet(random.Random(33), 8)
    for branch in ("bogus", "ConeBranch", "generic"):
        with pytest.raises(ValueError, match="unknown surface branch"):
            solve_mc_surface(branch, p)


def _count_calls(monkeypatch, module_name, name):
    """Wrap a function in every parajet module that binds it; return the call log."""
    original = getattr(sys.modules[module_name], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("parajet") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_cone_recurrences_normalize_once(monkeypatch):
    p = random_cone_branch_jet(random.Random(29), 8)
    calls = _count_calls(monkeypatch, "parajet.normalize", "normalize_parabolic_surface")
    rep = verify_recurrences("Cone", p)
    assert all(v["pass"] for v in rep.values())
    assert len(calls) == 1


def test_gl2_curve_recurrences_normalize_once(monkeypatch):
    jet = random_curve_jet(random.Random(31), 8, affine_floor=0.3)
    calls = _count_calls(monkeypatch, "parajet.normalize", "normalize_curve_gl2")
    rep = verify_curve_recurrences("gl2", jet)
    assert all(v["pass"] for v in rep.values())
    assert len(calls) == 1


def test_solve_mc_surface_refuses_a_jet_off_the_named_branch():
    with pytest.raises(BranchError, match="not in the generic branch"):
        solve_mc_surface("Generic", random_cone_branch_jet(random.Random(32), 8))
    # verify_recurrences reads the same check at the jet's frame
    with pytest.raises(BranchError, match="not in the cone branch"):
        verify_recurrences("Cone", random_parabolic_jet(random.Random(3), 8))
    with pytest.raises(BranchError, match="not in the generic branch"):
        verify_recurrences("Generic", random_cone_branch_jet(random.Random(3), 8))


# solve_mc_surface: test_solve_mc_surface_rejects_unknown_branch
_SURFACE_ENTRY_POINTS = {
    "verify_recurrences": verify_recurrences,
    "verify_commutator": verify_commutator,
    "mc_closed_form": lambda branch, p: mc_closed_form(branch, W=1, M=0, I51=0, X=1, Y=0),
}


@pytest.mark.parametrize("entry", sorted(_SURFACE_ENTRY_POINTS))
def test_other_surface_entry_points_share_the_branch_name_check(entry):
    p = random_parabolic_jet(random.Random(33), 8)
    with pytest.raises(ValueError, match="unknown surface branch 'generic'"):
        _SURFACE_ENTRY_POINTS[entry]("generic", p)


@pytest.mark.parametrize("entry", [solve_mc_curve, verify_curve_recurrences], ids=lambda f: f.__name__)
def test_curve_entry_points_refuse_an_unknown_group_and_the_parabola(entry):
    parabola = {i: F(0) for i in range(9)}
    parabola[2] = F(1)
    with pytest.raises(ValueError, match="unknown curve group 'sl2'"):
        entry("sl2", parabola)
    with pytest.raises(BranchError, match="parabola branch"):
        entry("gl2", parabola)


def test_homogeneous_models_need_a_sign():
    with pytest.raises(ValueError, match="sign must be"):
        homogeneous_curve_coefficients(F(1), 0, 8)
