import collections
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parajet.invariants as invariants
from parajet.invariants import (
    _M_VARS,
    _Y_VARS,
    M_TABLE,
    Y_TABLE,
    _table_numerator,
    conic_invariant,
    curve_invariant_F6,
    curve_invariant_F7,
    equiaffine_curvature,
    euclid_curvature,
    evaluate_at_jet,
    hessian_congruence_check,
    hessian_transfer_check,
    invariant_H,
    invariant_M,
    invariant_S,
    invariant_W,
    invariant_W_cubed,
    invariant_X,
    invariant_Y,
    pick_invariant,
    slope_transfer_check,
    swap_axes,
    w_numerator,
)
from parajet.jets import ParabolicJet, jets_of_series, realize_series, seeded
from parajet.normalize import normalize_parabolic_surface
from parajet.sampling import (
    near_identity_transform,
    random_cone_branch_jet,
    random_parabolic_jet,
)
from parajet.scalars import to_float
from parajet.series import AffineTransform3, TruncatedSeries2, apply_affine

from reference import assert_same, cone_model_jet, from_monomials2

F = Fraction


def test_H_and_S_on_cone_model():
    p = cone_model_jet()
    c = p.filled(5)
    assert invariant_H(c) == 0
    assert invariant_S(c) == 1


def test_H_elliptic_paraboloid():
    f = from_monomials2(4, {(2, 0): F(1), (0, 2): F(1)})  # x^2 + y^2
    c = jets_of_series(f).values
    assert invariant_H(c) == 4


def test_S_vanishes_on_cylinders():
    # u = f(x): every mixed jet vanishes, S = 0 at any sampled point
    rng = random.Random(1)
    for _ in range(5):
        coeffs = {(j, 0): F(rng.randint(-8, 8), 4) for j in range(2, 7)}
        coeffs[(2, 0)] = F(rng.randint(8, 32), 16)
        f = TruncatedSeries2(6, coeffs)
        for hx in (F(0), F(1, 5), F(-1, 7)):
            c = jets_of_series(f.shift(hx, F(0))).values
            assert invariant_S(c) == 0


def test_W_zero_on_cones_exactly():
    rng = random.Random(7)
    for _ in range(10):
        p = random_cone_branch_jet(rng, 6, exact=True)
        assert w_numerator(p.filled(4)) == 0


def test_W_normalized_jet_reduces_to_u31():
    coords = {(0, 0): F(0), (1, 0): F(0), (0, 1): F(0), (1, 1): F(0)}
    coords[(2, 0)] = F(1)
    coords[(3, 0)] = F(0)
    coords[(4, 0)] = F(0)
    coords[(2, 1)] = F(1)
    coords[(3, 1)] = F(5, 7)
    p = ParabolicJet(4, coords)
    assert invariant_W(p.filled(4)) == F(5, 7)


def test_M_table_checksum():
    assert len(M_TABLE) == 57
    as_dict = {exps: coef for coef, exps in M_TABLE}
    # leading printed monomials: 270 u20^6 u41 u21^2 u40, -72 u30 u50 u20^5 u21^3,
    # -1280 u30^7 u11^3, 120 u20^7 u41 u31^2   (vectors over u20,u11,u21,u30,u31,u40,u41,u50)
    assert as_dict[(6, 0, 2, 0, 0, 1, 1, 0)] == 270
    assert as_dict[(5, 0, 3, 1, 0, 0, 0, 1)] == -72
    assert as_dict[(0, 3, 0, 7, 0, 0, 0, 0)] == -1280
    assert as_dict[(7, 0, 0, 0, 2, 0, 1, 0)] == 120
    # every monomial has total degree 10 and the weight balance that makes the
    # full quotient invariant under the unimodular diagonal scalings
    jw = (2, 1, 2, 3, 3, 4, 4, 5)
    kw = (0, 1, 1, 0, 1, 0, 1, 0)
    for coef, exps in M_TABLE:
        assert sum(exps) == 10
        assert sum(e * j for e, j in zip(exps, jw)) == 24
        assert sum(e * k for e, k in zip(exps, kw)) == 3


def test_M_X_Y_against_normalization_oracle():
    rng = random.Random(31)
    hits = 0
    for _ in range(25):
        p = random_parabolic_jet(rng, 8)
        c = p.filled(5)
        res = normalize_parabolic_surface(realize_series(p))
        assert res.branch == "Generic"
        w1, m1 = invariant_W(c), invariant_M(c)
        w2, m2 = to_float(res.readings["W"]), to_float(res.readings["M"])
        assert abs(w1 - w2) <= 1e-8 * (1 + abs(w2))
        assert abs(m1 - m2) <= 1e-8 * (1 + abs(m2))
        hits += 1
    assert hits == 25
    for _ in range(25):
        p = random_cone_branch_jet(rng, 8)
        c = p.filled(7)
        res = normalize_parabolic_surface(realize_series(p))
        assert res.branch == "Cone"
        x1, y1 = invariant_X(c), invariant_Y(c)
        x2, y2 = to_float(res.readings["X"]), to_float(res.readings["Y"])
        assert abs(x1 - x2) <= 1e-8 * (1 + abs(x2))
        assert abs(y1 - y2) <= 1e-8 * (1 + abs(y2))


def test_X_zero_on_cone_model():
    p = cone_model_jet()
    c = p.filled(5)
    assert invariant_X(c) == 0
    assert invariant_W(c) == 0


def test_invariance_under_unimodular_transforms():
    rng = random.Random(91)
    checked = 0
    for _ in range(40):
        if checked >= 20:
            break
        p = random_parabolic_jet(rng, 8, exact=True)
        f = realize_series(p)
        f = TruncatedSeries2(f.order, {jk: c for jk, c in f.coeffs.items() if jk != (0, 0)})
        T = near_identity_transform(rng)
        assert T.delta() == 1
        g = apply_affine(f, T)
        cf = p.filled(5)
        cg_jp = jets_of_series(g)
        cg = {jk: cg_jp[jk] for jk in cf}
        if abs(to_float(w_numerator(cg))) < 1e-3:
            continue
        for fn in (invariant_W, invariant_M):
            a, b = to_float(fn(cf)), to_float(fn(cg))
            assert abs(a - b) <= 1e-7 * (1 + max(abs(a), abs(b)))
        # exact checks through the rational powers
        assert invariant_W_cubed(cf) == invariant_W_cubed(cg)
        assert invariant_M(cf) == invariant_M(cg)
        checked += 1
    assert checked == 20


@pytest.mark.parametrize("cone", [False, True])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_invariants_are_unchanged_under_exact_near_identity_maps(cone, seed):
    # W, M on generic jets and X, Y on cone jets, held to the 1e-7 transfer bound of the bench's exact workload
    rng = random.Random(seed)
    p = (random_cone_branch_jet if cone else random_parabolic_jet)(rng, 8, exact=True)
    f = realize_series(p)
    f = TruncatedSeries2(f.order, {jk: c for jk, c in f.coeffs.items() if jk != (0, 0)})
    T = near_identity_transform(rng)
    g = apply_affine(f, T)
    assert T.delta() == 1 and g.is_exact()
    cf = p.filled(7 if cone else 5)
    cg_jet = jets_of_series(g)
    cg = {jk: cg_jet[jk] for jk in cf}
    for fn in (invariant_X, invariant_Y) if cone else (invariant_W, invariant_M):
        a, b = to_float(fn(cf)), to_float(fn(cg))
        assert abs(a - b) <= 1e-7 * (1 + max(abs(a), abs(b))), fn.__name__


def test_scaling_homogeneity_exact():
    # diagonal unimodular scalings leave the invariants exactly unchanged
    rng = random.Random(13)
    p = random_parabolic_jet(rng, 8, exact=True)
    lam, mu = F(3, 2), F(4, 5)
    nu = 1 / (lam * mu)
    c = p.filled(7)
    scaled = {(j, k): v * lam**j * mu**k / nu for (j, k), v in c.items()}
    assert invariant_W_cubed(c) == invariant_W_cubed(scaled)
    assert invariant_M(c) == invariant_M(scaled)
    assert invariant_X(c) == invariant_X(scaled)


def test_hessian_transfer_law_exact():
    rng = random.Random(17)
    for _ in range(10):
        p = random_parabolic_jet(rng, 4, exact=True, generic_floor=None)
        f = realize_series(p)
        T = near_identity_transform(rng)
        out = hessian_transfer_check(f, T)
        assert out["lhs"] == out["rhs"]
        assert out["delta"] == 1
    # elliptic data exercise a nonzero H
    f = from_monomials2(4, {(2, 0): F(1), (0, 2): F(1), (3, 0): F(1, 3), (1, 0): F(1, 5)})
    T = near_identity_transform(random.Random(3), special=False)
    out = hessian_transfer_check(f, T)
    assert out["lhs"] == out["rhs"]
    assert out["H_G"] * out["Lambda"] ** 4 == out["delta"] ** 2 * out["H_F"]


def test_hessian_congruence_exact():
    rng = random.Random(19)
    for _ in range(5):
        p = random_parabolic_jet(rng, 4, exact=True, generic_floor=None)
        f = realize_series(p)
        T = near_identity_transform(rng)
        out = hessian_congruence_check(f, T)
        assert out["lhs"] == out["rhs"]


def test_slope_transfer_law():
    rng = random.Random(23)
    for _ in range(10):
        p = random_parabolic_jet(rng, 4, exact=False, generic_floor=None)
        f = realize_series(p)
        T = near_identity_transform(rng)
        out = slope_transfer_check(f, T)
        assert abs(out["lhs"] - out["rhs"]) <= 1e-9 * (1 + abs(out["lhs"]))


def test_transfer_checks_equal_the_full_order_computation(monkeypatch):
    # the image is built to order 3 without a horizontal translation; the checks read no more of it
    rng = random.Random(31)
    cases = []
    for exact in (True, False):
        for order in (4, 7):
            f = realize_series(random_parabolic_jet(rng, order, exact=exact, generic_floor=None))
            cases += [(f, near_identity_transform(rng)), (f, near_identity_transform(rng, special=False))]
    # a forward map sending the graph point over (1/8, -1/16) to the origin: a horizontal translation
    f = realize_series(random_parabolic_jet(rng, 6, exact=True, generic_floor=None))
    T = near_identity_transform(rng)
    x0, y0 = F(1, 8), F(-1, 16)
    p0 = (x0, y0, f.shift(x0, y0)[(0, 0)] - f[(0, 0)])
    t = [-sum(row[i] * p0[i] for i in range(3)) for row in T.matrix()]
    cases.append((f, AffineTransform3(**{name: getattr(T, name) for name in "abcklmpqr"}, d=t[0], n=t[1], w=t[2])))
    checks = (hessian_transfer_check, hessian_congruence_check, slope_transfer_check)
    got = [[check(f, T) for check in checks] for f, T in cases]

    def full_order(F2, T_fwd):
        F2 = invariants._centered(F2)
        return jets_of_series(F2), jets_of_series(apply_affine(F2, invariants._invert_transform(T_fwd)))

    monkeypatch.setattr(invariants, "_transported_jets", full_order)
    for (f, T), outs in zip(cases, got, strict=True):
        for check, out in zip(checks, outs, strict=True):
            assert_same(out, check(f, T))


def test_identity_transform_fixes_everything():
    rng = random.Random(29)
    p = random_parabolic_jet(rng, 5, exact=True, generic_floor=None)
    f = realize_series(p)
    from parajet.series import AffineTransform3

    out = hessian_transfer_check(f, AffineTransform3.identity())
    assert out["H_F"] == out["H_G"]


def test_curve_invariants_parabola_and_conic():
    # parabola u = x^2: P = 0
    jet = {0: F(0), 1: F(0), 2: F(2), 3: F(0), 4: F(0), 5: F(0)}
    assert equiaffine_curvature(jet) == 0
    # circle arc: u = 1 - sqrt(1-x^2) at x = 0.6 (3-4-5 point): C = 0
    x = 0.6
    u1 = x / math.sqrt(1 - x * x)
    u2 = 1 / (1 - x * x) ** 1.5
    u3 = 3 * x / (1 - x * x) ** 2.5
    u4 = (12 * x * x + 3) / (1 - x * x) ** 3.5
    u5 = (60 * x**3 + 45 * x) / (1 - x * x) ** 4.5
    jet = {0: 1 - math.sqrt(1 - x * x), 1: u1, 2: u2, 3: u3, 4: u4, 5: u5}
    assert abs(conic_invariant(jet)) < 1e-12
    # hyperbola-like sample: u = sqrt(1+x^2) - 1 at x = 0.1
    x = 0.1
    s = math.sqrt(1 + x * x)
    jet = {
        0: s - 1,
        1: x / s,
        2: 1 / s**3,
        3: -3 * x / s**5,
        4: (12 * x * x - 3) / s**7,
        5: (45 * x - 60 * x**3) / s**9,
    }
    assert abs(conic_invariant(jet)) < 1e-12


def test_curve_invariants_equal_the_printed_polynomials_exactly():
    # u2 = r^3 for rational r, so every root is exact and the comparison is in Fractions
    rng = random.Random(9)
    for _ in range(20):
        r = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        u2 = r**3
        u3, u4, u5, u6, u7 = (F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(5))
        jet = {0: F(0), 1: F(0), 2: u2, 3: u3, 4: u4, 5: u5, 6: u6, 7: u7}
        assert equiaffine_curvature(jet) == (3 * u2 * u4 - 5 * u3**2) / (3 * r**8)
        assert conic_invariant(jet) == (9 * u2**2 * u5 - 45 * u2 * u3 * u4 + 40 * u3**3) / (9 * u2**4)
        assert curve_invariant_F6(jet) == (
            9 * u2**3 * u6 - 63 * u2**2 * u3 * u5 + 105 * u2 * u3**2 * u4 - 35 * u3**4
        ) / (9 * r**16)
        assert curve_invariant_F7(jet) == (
            9 * u2**4 * u7
            - 84 * u2**3 * u3 * u6
            + 210 * u2**2 * u3**2 * u5
            - 105 * u2**2 * u3 * u4**2
            + 210 * u2 * u3**3 * u4
            - 280 * u3**5
        ) / (9 * r**20)
        assert all(isinstance(v, F) for v in (equiaffine_curvature(jet), curve_invariant_F7(jet)))


def test_curve_trivial_P():
    jet = {0: F(0), 1: F(0), 2: F(1), 3: F(0), 4: F(7, 3)}
    assert equiaffine_curvature(jet) == F(7, 3)


def test_pick_invariant_fixtures():
    # flat cubic term: Pick = 0
    f = from_monomials2(3, {(2, 0): F(1, 2), (0, 2): F(1, 2)})
    c = jets_of_series(f).values
    assert pick_invariant(c, "elliptic") == 0
    # normal form with cubic parameter C: Pick = C^2/2
    for C in (F(2), F(1, 3), F(-3, 4)):
        f = from_monomials2(
            3, {(2, 0): F(1, 2), (0, 2): F(1, 2), (3, 0): C / 6, (1, 2): -C / 2}
        )
        c = jets_of_series(f).values
        got = pick_invariant(c, "elliptic")
        assert abs(got - to_float(C * C / 2)) < 1e-12
    # hyperbolic normal forms give C^2/2 as well, for both cubic shapes
    for C in (F(1, 3), F(-2)):
        f = from_monomials2(
            3, {(2, 0): F(1, 2), (0, 2): F(-1, 2), (3, 0): C / 6, (1, 2): C / 2}
        )
        got = pick_invariant(jets_of_series(f).values, "hyperbolic")
        assert abs(got - to_float(C * C / 2)) < 1e-12
        g = from_monomials2(
            3, {(2, 0): F(1, 2), (0, 2): F(-1, 2), (2, 1): C / 2, (0, 3): C / 6}
        )
        got = pick_invariant(jets_of_series(g).values, "hyperbolic")
        assert abs(got - to_float(C * C / 2)) < 1e-12
    # the C-independent third hyperbolic shape has vanishing cubic norm
    h = from_monomials2(
        3,
        {(2, 0): F(1, 2), (0, 2): F(-1, 2), (3, 0): F(1, 6), (2, 1): F(1, 2),
         (1, 2): F(1, 2), (0, 3): F(1, 6)},
    )
    assert pick_invariant(jets_of_series(h).values, "hyperbolic") == 0


def test_pick_invariance_under_transforms():
    rng = random.Random(37)
    base = {(2, 0): F(1, 2), (0, 2): F(1, 2), (3, 0): F(1, 4), (1, 2): F(-1, 4),
            (2, 1): F(1, 8), (0, 3): F(1, 6)}
    f = from_monomials2(4, base)
    c0 = jets_of_series(f).values
    p0 = pick_invariant(c0, "elliptic")
    for _ in range(10):
        T = near_identity_transform(rng)
        g = apply_affine(f, T)
        c1 = jets_of_series(g).values
        p1 = pick_invariant(c1, "elliptic")
        assert abs(p0 - p1) <= 1e-7 * (1 + abs(p0))


def test_pick_signature_mismatch():
    f = from_monomials2(3, {(2, 0): F(1, 2), (0, 2): F(1, 2)})
    c = jets_of_series(f).values
    with pytest.raises(ValueError):
        pick_invariant(c, "hyperbolic")


def test_euclid_curvature():
    assert euclid_curvature({1: F(0), 2: F(1)}) == 1
    # unit circle lower arc at x = 0: u = 1 - sqrt(1 - x^2), curvature 1
    assert euclid_curvature({1: F(0), 2: F(1)}) == 1
    got = euclid_curvature({1: 1.0, 2: 2.0})
    assert abs(got - 2 / 2**1.5) < 1e-15
    # exact on a Pythagorean slope
    assert euclid_curvature({1: F(3, 4), 2: F(7, 5)}) == F(7, 5) / F(125, 64)


def test_evaluate_report_branches():
    p = cone_model_jet()
    rep = evaluate_at_jet(p.filled(7))
    assert rep.branch == "Cone[model]"
    assert to_float(rep.values["X"]) == 0
    rng = random.Random(41)
    g = random_parabolic_jet(rng, 8)
    rep2 = evaluate_at_jet(g.filled(5))
    assert rep2.branch == "Generic"
    f = from_monomials2(4, {(2, 0): F(1), (0, 2): F(1)})
    rep3 = evaluate_at_jet(jets_of_series(f).values)
    assert rep3.branch == "Elliptic"


def test_curve_I5_sign_mismatch_raises():
    from parajet.invariants import curve_invariant_I5

    jet = {2: F(1), 3: F(0), 4: F(1), 5: F(1, 2)}  # 3 u2 u4 - 5 u3^2 = 3 > 0
    val = curve_invariant_I5(jet, 1)
    assert abs(to_float(val) - to_float(F(9, 2)) / (3**0.5 * 3**1.5)) < 1e-12
    with pytest.raises(ValueError):
        curve_invariant_I5(jet, -1)


def _reference_numerator(table, variables, c):
    """The table summed left to right in the scalars' own arithmetic."""
    vals = [c[v] for v in variables]
    total = 0
    for coef, exps in table:
        term = coef
        for v, e in zip(vals, exps):
            if e == 1:
                term = term * v
            elif e:
                term = term * v**e
        total = total + term
    return total


def _one_fraction_seeded(c, odd):
    """Ints but for one half-integer; dY/du70 stays an int unless that coordinate shares a monomial with u70."""
    return seeded({jk: F(2 * round(4 * v) + 1, 2) if jk == odd else round(4 * v) for jk, v in c.items()})


_JET_KINDS = {
    "int": lambda p, c, rng: {jk: round(4 * v) for jk, v in c.items()},
    "fraction": lambda p, c, rng: c,
    "mixed": lambda p, c, rng: {jk: round(4 * v) if rng.random() < 0.5 else v for jk, v in c.items()},
    "seeded": lambda p, c, rng: seeded(p),
    "frozen": lambda p, c, rng: seeded(p, frozen={jk for jk in p.coords if rng.random() < 0.4}),
    "swapped-seeded": lambda p, c, rng: swap_axes(seeded(p).filled(7)),
    "mixed-seeded": lambda p, c, rng: seeded({jk: round(4 * v) if rng.random() < 0.5 else v for jk, v in c.items()}),
    "one-fraction-seeded": lambda p, c, rng: _one_fraction_seeded(c, (rng.randint(2, 7), 0)),
    "float": lambda p, c, rng: {jk: float(v) for jk, v in c.items()},
    "float-seeded": lambda p, c, rng: seeded({jk: float(v) for jk, v in c.items()}),
    "one-float": lambda p, c, rng: {**c, (jk := (rng.randint(2, 5), 0)): float(c[jk])},
}


@pytest.mark.parametrize("kind", sorted(_JET_KINDS))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cone=st.booleans(), exact=st.booleans())
def test_table_numerators_equal_the_left_to_right_sum(kind, seed, cone, exact):
    # the integer path (exact jets and exact Sens) and the generic loop (the rest) against the reference
    rng = random.Random(seed)
    p = (random_cone_branch_jet if cone else random_parabolic_jet)(rng, 8, exact=exact)
    c = _JET_KINDS[kind](p, p.filled(7), rng)
    for table, variables in ((M_TABLE, _M_VARS), (Y_TABLE, _Y_VARS)):
        got, want = _table_numerator(table, variables, c), _reference_numerator(table, variables, c)
        assert_same(got, want, partial_order=True, zero_partials=False)


@pytest.mark.parametrize("table, variables", [(M_TABLE, _M_VARS), (Y_TABLE, _Y_VARS)], ids=["M", "Y"])
def test_perturbing_one_table_coefficient_moves_the_integer_sum_by_its_monomial(table, variables):
    c = random_parabolic_jet(random.Random(5), 8, exact=True).filled(7)
    base = _table_numerator(table, variables, c)
    for i, (coef, exps) in enumerate(table):
        perturbed = table[:i] + ((coef + 1, exps),) + table[i + 1:]
        monomial = math.prod(c[v] ** e for v, e in zip(variables, exps))
        assert monomial != 0
        assert _table_numerator(perturbed, variables, c) - base == monomial


M_DOMAIN = "M needs u_xx, the slope numerator and the W numerator nonzero"
ZERO_DOMAINS = {
    # a jet in each zero set of each closed form, every other coordinate 0, and the form's message
    "S-u_xx": (invariant_S, {(2, 1): 1}, "S needs u_xx != 0"),
    "W-u_xx": (invariant_W, {(2, 1): 1}, "W needs u_xx != 0 and a nonzero slope invariant"),
    "W-S": (invariant_W, {(2, 0): 1, (3, 1): 1}, "W needs u_xx != 0 and a nonzero slope invariant"),
    "M-u_xx": (invariant_M, {(2, 1): 1, (3, 1): 1}, M_DOMAIN),
    "M-S": (invariant_M, {(2, 0): 1, (3, 1): 1}, M_DOMAIN),
    "M-W": (invariant_M, {(2, 0): 1, (2, 1): 1}, M_DOMAIN),
    "Y-u_xx": (invariant_Y, {(2, 1): 1, (5, 0): 1}, "Y needs u_xx != 0 and a nonzero fifth-order invariant"),
    "Y-conic": (invariant_Y, {(2, 0): 1, (2, 1): 1}, "Y needs u_xx != 0 and a nonzero fifth-order invariant"),
    "curvature-u2": (equiaffine_curvature, {3: 1, 4: 1}, "curvature needs u2 != 0"),
    "conic-u2": (conic_invariant, {3: 1, 5: 1}, "conic invariant needs u2 != 0"),
}


@pytest.mark.parametrize("fn, jet, message", ZERO_DOMAINS.values(), ids=ZERO_DOMAINS.keys())
def test_each_closed_form_refuses_its_zero_set_by_name(fn, jet, message):
    with pytest.raises(ZeroDivisionError, match=f"^{re.escape(message)}$"):
        fn(collections.defaultdict(Fraction, {key: Fraction(v) for key, v in jet.items()}))
