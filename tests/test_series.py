"""The series kernels against the definitional references of ``reference.py``.

The parent's scalar loops of the substitution and the solve (``_parent_*``)
stay only for the tests that assert float, ``Sens`` or mixed results bit for
bit in the parent's order of operations:
``test_float_and_sens_transforms_are_bit_identical_to_the_parent_loops``,
``test_an_exact_series_under_one_float_entry_keeps_the_parent_values_and_types``
and ``test_phi_is_checked_once_at_the_origin_in_every_regime``.
"""

import functools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import parajet.normalize as normalize
import parajet.series as series
from parajet.invariants import h_terms, invariant_H, s_numerator, s_terms, w_numerator, w_terms
from parajet.jets import DerivativeView, realize_series
from parajet.sampling import near_identity_transform, random_cone_branch_jet, random_curve_jet, random_parabolic_jet
from parajet.scalars import Sens, cbrt_frac, is_exact, snap, sqrt_frac
from parajet.series import (
    AffineTransform3,
    CurveTransform2,
    Poly2,
    TruncatedSeries1,
    TruncatedSeries2,
    GridSeries,
    _Series3,
    apply_affine,
    apply_affine_curve,
    compose2,
    series_from_json,
    series_to_json,
    series3_from_bivariate_in_linear,
    solve_implicit,
)

import reference
from reference import from_monomials1, from_monomials2

F = Fraction


def _mul1(f, g):
    """The univariate product, read off the y-free slice of the bivariate product."""
    return (f.y_free() * g.y_free()).x_profile()


def _shift1(f, h):
    """The univariate re-expansion at h, read off the y-free slice of the bivariate shift."""
    return f.y_free().shift(h, 0).x_profile()


def test_mul_difference_of_squares():
    one_plus = from_monomials1(2, {0: F(1), 1: F(1)})
    one_minus = from_monomials1(2, {0: F(1), 1: F(-1)})
    prod = _mul1(one_plus, one_minus)
    assert prod[0] == 1
    assert prod[1] == 0
    assert prod[2] == -2  # factorial convention: x^2 coefficient -1 -> F_2 = -2


def test_mul_annihilator():
    f = TruncatedSeries1(3, {1: F(2), 3: F(5)})
    zero = TruncatedSeries1(3, {})
    assert _mul1(f, zero).coeffs == {}


def test_exp_square_doubles_rates():
    # (sum x^i/i!)^2 truncated at 4 has F_i = 2^i; oracle: raw convolution.
    e = TruncatedSeries1(4, {i: F(1) for i in range(5)})
    sq = _mul1(e, e)
    for i in range(5):
        assert sq[i] == 2**i
    monos = {(i, 0): F(1, math.factorial(i)) for i in range(5)}
    oracle = reference.mul(monos, monos, 4)
    for i in range(5):
        assert oracle[(i, 0)] * math.factorial(i) == sq[i]


def test_compose2_binomial():
    f = from_monomials2(3, {(2, 0): F(1)})  # x^2
    X = from_monomials2(3, {(1, 0): F(1), (0, 1): F(1)})  # s + t
    Y = TruncatedSeries2(3, {})
    g = compose2(f, X, Y)
    assert g == from_monomials2(3, {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)})


def test_compose2_identity_substitution():
    f = from_monomials2(3, {(1, 1): F(1)})  # xy
    X = from_monomials2(3, {(1, 0): F(1)})
    Y = from_monomials2(3, {(0, 1): F(1)})
    assert compose2(f, X, Y) == f


def test_compose2_random_against_bruteforce():
    rng = random.Random(42)
    n = 3
    for _ in range(10):
        def rand_series(zero_const):
            monos = {}
            for j in range(n + 1):
                for k in range(n + 1 - j):
                    if zero_const and j == k == 0:
                        continue
                    monos[(j, k)] = F(rng.randint(-4, 4), rng.randint(1, 4))
            return monos

        fm, xm, ym = rand_series(False), rand_series(True), rand_series(True)
        got = compose2(
            from_monomials2(n, fm), from_monomials2(n, xm), from_monomials2(n, ym)
        )
        assert got == from_monomials2(n, reference.compose(fm, [xm, ym], n))


def test_compose2_rejects_constant_term():
    f = from_monomials2(2, {(1, 0): F(1)})
    X = from_monomials2(2, {(0, 0): F(1)})
    with pytest.raises(ValueError):
        compose2(f, X, TruncatedSeries2(2, {}))


def test_solve_implicit_explicit_graph():
    # Phi = -v + s^2  ->  G = s^2
    phi = _Series3(3, {(0, 0, 1): F(-1), (2, 0, 0): F(2)})
    g = solve_implicit(phi)
    assert g == from_monomials2(3, {(2, 0): F(1)})


def test_solve_implicit_fixed_point_oracle():
    # Phi = -2v + s + v^2 at N=3 -> G = s/2 + s^2/8 + s^3/16 (fixed point of
    # v <- (s + v^2)/2, iterated independently here).
    phi = _Series3(3, {(0, 0, 1): F(-2), (1, 0, 0): F(1), (0, 0, 2): F(2)})
    g = solve_implicit(phi)
    v = {}
    for _ in range(4):
        v2 = reference.mul(v, v, 3)
        v = {(1, 0): F(1, 2)}
        for (j, _), c in v2.items():
            v[(j, 0)] = v.get((j, 0), 0) + c / 2
    for j in range(1, 4):
        assert g[(j, 0)] == v[(j, 0)] * math.factorial(j)
    assert g == from_monomials2(3, {(1, 0): F(1, 2), (2, 0): F(1, 8), (3, 0): F(1, 16)})


def test_solve_implicit_roundtrip_graph_to_phi():
    rng = random.Random(7)
    n = 5
    coeffs = {}
    for j in range(n + 1):
        for k in range(n + 1 - j):
            if j == k == 0:
                continue
            coeffs[(j, k)] = F(rng.randint(-3, 3), 2)
    f = TruncatedSeries2(n, coeffs)
    phi = _Series3(n, {**{(j, k, 0): c for (j, k), c in f.coeffs.items()}, (0, 0, 1): F(-1)})
    assert solve_implicit(phi) == f


def test_solve_implicit_requires_v_derivative():
    phi = _Series3(2, {(1, 0, 0): F(1), (0, 0, 2): F(2)})
    with pytest.raises(ValueError):
        solve_implicit(phi)


def test_apply_affine_identity():
    f = TruncatedSeries2(4, {(2, 0): F(1), (2, 1): F(1), (3, 0): F(1, 2)})
    assert apply_affine(f, AffineTransform3.identity()) == f


def test_apply_affine_on_order_zero_series():
    # the order-0 truncation keeps no v-term, so there is nothing to solve: G = 0
    f = TruncatedSeries2(0, {(0, 0): F(1)})
    assert apply_affine(TruncatedSeries2(0, {}), AffineTransform3.identity()) == TruncatedSeries2(0, {})
    assert apply_affine(f, AffineTransform3(w=F(1))) == TruncatedSeries2(0, {})
    c = TruncatedSeries1(0, {0: F(1)})
    assert apply_affine_curve(TruncatedSeries1(0, {}), CurveTransform2.identity()) == TruncatedSeries1(0, {})
    assert apply_affine_curve(c, CurveTransform2(f=F(1))) == TruncatedSeries1(0, {})


def test_apply_affine_shear_hand_expansion():
    # F = x^2/2 under the inverse substitution x = s, y = t, u = eps*s + v:
    # 0 = -eps*s - v + (s^2)/2, so G = s^2/2 - eps*s exactly.
    eps = F(1, 10)
    f = TruncatedSeries2(3, {(2, 0): F(1)})
    T = AffineTransform3(p=eps)
    g = apply_affine(f, T)
    assert g[(1, 0)] == -eps
    assert g[(2, 0)] == 1
    assert g[(3, 0)] == 0


def test_apply_affine_associativity_exact():
    rng = random.Random(3)
    n = 5
    coeffs = {}
    for j in range(n + 1):
        for k in range(n + 1 - j):
            if j + k >= 2:
                coeffs[(j, k)] = F(rng.randint(-2, 2), 3)
    f = TruncatedSeries2(n, coeffs)

    def near_identity():
        eps = lambda: F(rng.randint(-2, 2), 40)
        T = AffineTransform3(
            a=1 + eps(), b=eps(), c=eps(),
            k=eps(), l=1 + eps(), m=eps(),
            p=eps(), q=eps(), r=1 + eps(),
        )
        return T

    for _ in range(5):
        T1, T2 = near_identity(), near_identity()
        lhs = apply_affine(apply_affine(f, T1), T2)
        rhs = apply_affine(f, T1.then(T2))
        assert lhs == rhs  # exact rational equality


def test_delta_multiplicative():
    T1 = AffineTransform3(a=F(2), l=F(3), r=F(1, 6), b=F(1, 2))
    T2 = AffineTransform3(a=F(1), l=F(1, 3), r=F(3), k=F(1, 5))
    assert T1.then(T2).delta() == T1.delta() * T2.delta()


def test_apply_affine_curve_rotation_recovers_euclidean_curvature():
    # Rational rotation with tan(theta) = F1 = 3/4, so cos = 4/5, sin = 3/5.
    f1, f2 = F(3, 4), F(7, 5)
    c, s = F(4, 5), F(3, 5)
    f = TruncatedSeries1(3, {1: f1, 2: f2})
    T = CurveTransform2(a=c, b=-s, c=s, d=c)
    g = apply_affine_curve(f, T)
    assert g[1] == 0
    assert g[2] == f2 / F(125, 64)  # (1 + (3/4)^2)^{3/2} = (25/16)^{3/2} = 125/64, exactly


def test_series_json_roundtrip():
    f = TruncatedSeries2(3, {(2, 0): F(1), (1, 1): F(-2, 3)})
    doc = series_to_json(f)
    assert series_from_json(json.loads(json.dumps(doc))) == f
    g = TruncatedSeries1(2, {2: 0.5})
    doc1 = series_to_json(g)
    back = series_from_json(doc1)
    assert back[2] == 0.5


def test_series_json_rejects_mixed_modes():
    doc = {
        "vars": 1,
        "order": 2,
        "coeffs": [{"j": 1, "k": 0, "value": "1/2"}, {"j": 2, "k": 0, "value": "0.5"}],
    }
    with pytest.raises(ValueError):
        series_from_json(doc)


def test_shift_reexpansion_exact():
    f = TruncatedSeries1(4, {2: F(1), 3: F(2), 4: F(-1)})
    h = F(1, 3)
    g = _shift1(f, h)
    # jets of the shifted series equal derivatives of the polynomial at h
    x = F(7, 11)
    assert reference.evaluate(reference.monomial(g), (x, 0)) == reference.evaluate(reference.monomial(f), (h + x, 0))


def test_series3_recenter_matches_substitution():
    f = from_monomials2(3, {(1, 0): F(1), (0, 1): F(2), (2, 1): F(3)})
    phi = series3_from_bivariate_in_linear(f, (F(1), 0, 0, F(1, 2)), (0, F(1), 0, F(1, 4)), 3)
    # Phi(s,t,v) = F(1/2 + s, 1/4 + t) as a function of (s, t) only
    v_free = {(a, b): c for (a, b, cc), c in reference.monomial(phi).items() if cc == 0}
    for s_val, t_val in [(F(1, 5), F(1, 7)), (F(-1, 3), F(2, 9))]:
        direct = reference.evaluate(reference.monomial(f), (F(1, 2) + s_val, F(1, 4) + t_val))
        assert reference.evaluate(v_free, (s_val, t_val)) == direct


def _centered_exact_jet(rng, order, cone=False):
    draw = random_cone_branch_jet if cone else random_parabolic_jet
    f = realize_series(draw(rng, order, exact=True))
    return TruncatedSeries2(order, {jk: c for jk, c in f.coeffs.items() if jk != (0, 0)})


# loop-shaped transforms: few nonzero entries, including c != 0 and m != 0 so
# that v enters both linear forms
SPARSE_TRANSFORMS = [
    AffineTransform3(p=F(3, 7), q=F(-2, 5)),
    AffineTransform3(a=F(8, 9), b=F(-1, 3), r=F(9, 8)),
    AffineTransform3(a=F(5, 4), k=F(-2, 9), l=F(3, 5), r=F(25, 16)),
    AffineTransform3(m=F(-7, 12)),
    AffineTransform3(c=F(1, 6), k=F(-1, 6), m=F(5, 18)),
    AffineTransform3(a=F(0), b=F(1), k=F(-1), l=F(0)),
]


@pytest.mark.parametrize("order, cone", [(8, False), (8, True), (12, False)])
def test_apply_affine_equals_the_reference_kernel_under_near_identity_maps(order, cone):
    rng = random.Random(500 + order)
    f = _centered_exact_jet(rng, order, cone)
    T = near_identity_transform(rng)
    xs, ys = (T.a, T.b, T.c, T.d), (T.k, T.l, T.m, T.n)
    phi = series3_from_bivariate_in_linear(f, xs, ys, order)
    ref_phi = reference.linear_substitution(reference.monomial(f), xs, ys, order)
    assert reference.monomial(phi) == ref_phi
    Phi = reference.add(ref_phi, {(1, 0, 0): -T.p, (0, 1, 0): -T.q, (0, 0, 1): -T.r})
    assert solve_implicit(_Series3(order, reference.factorial(Phi))) == from_monomials2(order, reference.solve(Phi, order))
    g = apply_affine(f, T)
    assert g == reference.apply_affine(f, T)
    assert g.is_exact()


@pytest.mark.parametrize("T", SPARSE_TRANSFORMS)
def test_apply_affine_equals_the_reference_kernel_under_loop_shaped_maps(T):
    f = _centered_exact_jet(random.Random(61), 8)
    assert apply_affine(f, T) == reference.apply_affine(f, T)


def test_apply_affine_equals_the_reference_kernel_under_a_horizontal_translation():
    f = _centered_exact_jet(random.Random(62), 8)
    d, n = F(1, 5), F(-2, 7)
    T = AffineTransform3(a=F(9, 10), b=F(1, 4), c=F(-1, 8), m=F(1, 3), d=d, n=n, w=f.shift(d, n)[(0, 0)])
    xs, ys = (T.a, T.b, T.c, T.d), (T.k, T.l, T.m, T.n)
    phi = series3_from_bivariate_in_linear(f, xs, ys, 8)
    assert reference.monomial(phi) == reference.linear_substitution(reference.monomial(f), xs, ys, 8)
    assert apply_affine(f, T) == reference.apply_affine(f, T)


def test_identity_part_edits_equal_the_reference_kernel():
    f = _centered_exact_jet(random.Random(67), 8)
    f = TruncatedSeries2(8, {**f.coeffs, (0, 0): F(2, 3)})
    for T in [AffineTransform3(w=F(2, 3)), AffineTransform3(p=F(1, 4), q=F(-5, 6), w=F(2, 3))]:
        reference.assert_same(apply_affine(f, T), reference.apply_affine(f, T))
    with pytest.raises(ValueError, match="misses the target origin"):
        apply_affine(f, AffineTransform3(w=F(1, 3)))


def test_apply_affine_curve_equals_the_reference_kernel():
    rng = random.Random(63)
    f = TruncatedSeries1(10, {j: F(rng.randint(-40, 40), rng.randint(1, 9)) for j in range(1, 11)})
    for T in [
        CurveTransform2(a=F(4, 5), b=F(-3, 5), c=F(3, 5), d=F(4, 5)),
        CurveTransform2(a=F(7, 6), b=F(1, 9), c=F(-2, 3), d=F(5, 4)),
        CurveTransform2(b=F(1, 3), d=F(2, 3), e=F(1, 2), f=_shift1(f, F(1, 2))[0]),
    ]:
        assert apply_affine_curve(f, T) == reference.apply_affine_curve(f, T)


def test_apply_affine_round_trip_through_the_inverse_is_exact():
    rng = random.Random(64)
    f = _centered_exact_jet(rng, 8)
    for T in [near_identity_transform(rng), SPARSE_TRANSFORMS[4]]:
        (a, b, c), (k, l, m), (p, q, r) = T.inverse_matrix()
        T_inv = AffineTransform3(a=a, b=b, c=c, k=k, l=l, m=m, p=p, q=q, r=r)
        assert apply_affine(apply_affine(f, T), T_inv) == f


def test_apply_affine_float_route_agrees_with_the_exact_route():
    rng = random.Random(65)
    n = 8
    f = TruncatedSeries2(n, {(j, k): rng.uniform(-2, 2) for j in range(n + 1) for k in range(n + 1 - j) if j + k >= 2})
    entries = dict(a=1.1, b=-0.2, c=0.15, k=0.05, l=0.9, m=-0.12, p=0.3, q=-0.25, r=1.05)
    g = apply_affine(f, AffineTransform3(**entries))
    lifted = TruncatedSeries2(n, {jk: F(c) for jk, c in f.coeffs.items()})
    exact = apply_affine(lifted, AffineTransform3(**{name: F(v) for name, v in entries.items()}))
    assert exact.is_exact() and not g.is_exact()
    scale = 1 + max(abs(c) for c in exact.coeffs.values())
    for jk in exact.coeffs.keys() | g.coeffs.keys():
        assert abs(g[jk] - exact[jk]) <= 1e-12 * scale, jk


# -- the products against the reference product, to the bit ------------------
# The kernel reads each factor's monomial coefficients as the reference does,
# F_jk / (j! k!), and sums each product coefficient's pairs in the order of
# the first factor's terms, as the reference does; so float products agree to
# the bit, not only within a rounding bound.


def _reference_product(f, g):
    """The reference product of two series on their monomial coefficients; univariate ones as their y-free slices."""
    if isinstance(f, TruncatedSeries1):
        return _reference_product(f.y_free(), g.y_free()).x_profile()
    n = min(f.order, g.order)
    return from_monomials2(n, reference.mul(reference.monomial(f), reference.monomial(g), n))


def _random_coeffs(rng, keys, kind):
    """Random nonzero coefficients: 'exact' Fractions, 'int', 'float' or a 'mixed' draw of all three."""
    def draw(kind):
        if kind == "exact":
            return F(rng.randint(-50, 50) or 1, rng.choice([1, 2, 3, 8, 9, 35, 2**40]))
        if kind == "int":
            return rng.randint(-50, 50) or 1
        if kind == "float":
            return rng.uniform(-3, 3) * 10 ** rng.randint(-4, 4)
        return draw(rng.choice(["exact", "int", "float"]))

    return {key: draw(kind) for key in keys if rng.random() < 0.8}


def _keys1(n):
    return list(range(n + 1))


def _keys2(n):
    return [(j, k) for j in range(n + 1) for k in range(n + 1 - j)]


@pytest.mark.parametrize("kinds", [("exact", "exact"), ("int", "int"), ("int", "exact"), ("mixed", "mixed"), ("exact", "float")])
def test_products_equal_the_reference_loops_on_exact_and_mixed_series(kinds):
    rng = random.Random(70)
    for n, m in [(0, 0), (3, 5), (8, 8), (12, 10)]:
        f1, g1 = (TruncatedSeries1(o, _random_coeffs(rng, _keys1(o), kind)) for o, kind in zip((n, m), kinds))
        reference.assert_same(_mul1(f1, g1), _reference_product(f1, g1))
        f2, g2 = (TruncatedSeries2(o, _random_coeffs(rng, _keys2(o), kind)) for o, kind in zip((n, m), kinds))
        reference.assert_same(f2 * g2, _reference_product(f2, g2))


@pytest.mark.parametrize("n", range(13))
def test_products_of_float_series_are_bit_identical_to_the_reference_loops(n):
    rng = random.Random(71 + n)
    f1, g1 = (TruncatedSeries1(n, _random_coeffs(rng, _keys1(n), "float")) for _ in range(2))
    reference.assert_same(_mul1(f1, g1), _reference_product(f1, g1))
    f2, g2 = (TruncatedSeries2(n, _random_coeffs(rng, _keys2(n), "float")) for _ in range(2))
    reference.assert_same(f2 * g2, _reference_product(f2, g2))


def test_jet_products_equal_the_reference_loops():
    rng = random.Random(72)
    f = realize_series(random_parabolic_jet(rng, 12, exact=True))
    g = realize_series(random_cone_branch_jet(rng, 10))
    for u, v in [(f, g), (f.derivative("x"), f.derivative("y")), (g, g)]:
        reference.assert_same(u * v, _reference_product(u, v))
        reference.assert_same(_mul1(u.x_profile(), v.x_profile()), _reference_product(u.x_profile(), v.x_profile()))


def test_from_series_puts_exact_coefficients_over_their_least_common_denominator():
    rng = random.Random(73)
    dens = [1, 2, 3, 6, 8, 9, 24, 35, 720, 2**40]  # most share factors with some j! k!
    cases = [TruncatedSeries2(0, {}), TruncatedSeries2(6, {}), TruncatedSeries2(4, {(2, 2): F(7, 6)}), TruncatedSeries2(3, {(3, 0): 5})]
    for n in (1, 4, 8, 12):
        keys = [jk for jk in _keys2(n) if rng.random() < 0.8]
        cases.append(TruncatedSeries2(n, {jk: rng.randint(-50, 50) or 1 for jk in keys}))
        cases.append(TruncatedSeries2(n, {jk: F(rng.randint(-50, 50) or 1, rng.choice(dens)) for jk in keys}))
        # integer monomial coefficients: the numerators share every factor of the lcm
        cases.append(TruncatedSeries2(n, {jk: 6 * math.factorial(jk[0]) * math.factorial(jk[1]) for jk in keys}))
    for f in cases:
        P = Poly2.from_series(f)
        assert P.den > 0 and math.gcd(P.den, *P.terms.values()) == 1
        assert P.terms.keys() == f.coeffs.keys()
        for (j, k), v in P.terms.items():
            assert type(v) is int and F(v, P.den) == F(f[(j, k)]) / (math.factorial(j) * math.factorial(k))
    for n in (3, 8, 12):
        for f in (
            TruncatedSeries2(n, _random_coeffs(rng, _keys2(n), "float")),
            TruncatedSeries2(n, {**_random_coeffs(rng, _keys2(n), "mixed"), (1, 0): 0.5}),
            TruncatedSeries2(n, {jk: _sens(rng, rng.uniform(-2, 2)) for jk in _keys2(n)}),
        ):
            P = Poly2.from_series(f)
            assert not f.is_exact() and P.den is None
            reference.assert_same(P.terms, {key: reference.over(c, math.prod(map(math.factorial, key))) for key, c in f.coeffs.items()})


def _series_strategy(exact, bivariate=st.booleans(), max_order=6):
    value = st.fractions(max_denominator=10**6) if exact else st.floats(allow_nan=False, allow_infinity=False)

    def build(order, bivariate, values):
        keys = _keys2(order) if bivariate else _keys1(order)
        return (TruncatedSeries2 if bivariate else TruncatedSeries1)(order, dict(zip(keys, values)))

    return st.builds(build, st.integers(0, max_order), bivariate, st.lists(value, max_size=len(_keys2(max_order))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(series=st.one_of(_series_strategy(True), _series_strategy(False)))
def test_series_json_round_trip_property(series):
    back = series_from_json(json.loads(json.dumps(series_to_json(series))))
    reference.assert_same(back, series)


# -- the shifts against the binomial re-expansion --------------------------------


def _ref_shift(f, hx, hy=0):
    """The reference re-expansion at (hx, hy); a univariate series as its y-free slice."""
    out = from_monomials2(f.order, reference.shift(reference.monomial(f), (hx, hy)))
    return out.x_profile() if isinstance(f, TruncatedSeries1) else out


SHIFTS = [0, F(1, 8), F(-1, 8), 3, F(-7, 5), F(1, 999983)]


@pytest.mark.parametrize("n", range(13))
def test_shifts_equal_the_reference_loops_on_exact_series(n):
    rng = random.Random(80 + n)
    f1 = TruncatedSeries1(n, _random_coeffs(rng, _keys1(n), "exact"))
    f2 = TruncatedSeries2(n, _random_coeffs(rng, _keys2(n), "exact"))
    for i, h in enumerate(SHIFTS):
        reference.assert_same(_shift1(f1, h), _ref_shift(f1, h))
        for hx, hy in [(h, 0), (0, h), (h, SHIFTS[i - 1])]:
            reference.assert_same(f2.shift(hx, hy), _ref_shift(f2, hx, hy))


@pytest.mark.parametrize("n", range(13))
def test_float_shifts_agree_with_the_reference_loops(n):
    rng = random.Random(90 + n)
    f1 = TruncatedSeries1(n, _random_coeffs(rng, _keys1(n), "float"))
    f2 = TruncatedSeries2(n, _random_coeffs(rng, _keys2(n), "float"))

    def close(got, ref):
        assert got.order == ref.order and got.is_exact() == ref.is_exact()
        scale = max([abs(c) for c in ref.coeffs.values()], default=0)
        for key in got.coeffs.keys() | ref.coeffs.keys():
            assert abs(got[key] - ref[key]) <= 1e-12 * scale, key

    for h in (float(h) for h in SHIFTS[1:]):
        close(_shift1(f1, h), _ref_shift(f1, h))
        close(f2.shift(h, -h / 3), _ref_shift(f2, h, -h / 3))


def test_shifts_of_integer_coefficients_at_integer_points_stay_exact():
    f2 = TruncatedSeries2(3, {(2, 0): 2})
    assert f2.shift(1, 0).coeffs == {(0, 0): 1, (1, 0): 2, (2, 0): 2}
    assert f2.shift(1, 0).is_exact() and f2.shift(0, -2).is_exact()
    assert _shift1(TruncatedSeries1(3, {2: 2}), 0).is_exact()
    assert _shift1(TruncatedSeries1(3, {2: 2}), -1).coeffs == {0: 1, 1: -2, 2: 2}


@pytest.mark.parametrize("kind", ["exact", "int", "float", "mixed"])
def test_a_shift_up_to_a_degree_keeps_the_full_shifts_coefficients(kind):
    # the Horner passes stop once the kept coefficients are final: bit for bit, as exact and float values
    rng = random.Random(95)
    for n in (0, 3, 8, 12):
        f2 = TruncatedSeries2(n, _random_coeffs(rng, _keys2(n), kind))
        points = SHIFTS + [0.125, -0.375]
        for i, h in enumerate(points):
            for hx, hy in [(h, 0), (0, h), (h, points[i - 1])]:
                full = f2.shift(hx, hy)
                for upto in (0, 1, 4, n - 1, n + 2):
                    m = max(0, min(n, upto))
                    reference.assert_same(f2.shift(hx, hy, upto=m), TruncatedSeries2(m, full.coeffs))


_POINTS = st.fractions(min_value=-3, max_value=3, max_denominator=30)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(f=_series_strategy(True, st.just(False), 10), a=_POINTS, b=_POINTS)
def test_univariate_shift_properties(f, a, b):
    assert _shift1(_shift1(f, a), -a) == f
    assert _shift1(_shift1(f, a), b) == _shift1(f, a + b)
    assert _shift1(f, a)[0] == reference.evaluate(reference.monomial(f), (a, 0))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(f=_series_strategy(True, st.just(True), 10), a=st.tuples(_POINTS, _POINTS), b=st.tuples(_POINTS, _POINTS))
def test_bivariate_shift_properties(f, a, b):
    assert f.shift(*a).shift(-a[0], -a[1]) == f
    assert f.shift(*a).shift(*b) == f.shift(a[0] + b[0], a[1] + b[1])
    assert f.shift(*a)[(0, 0)] == reference.evaluate(reference.monomial(f), a)


# -- the traffic of the normalization loops, and the parent's scalar loops -----


def _on_grid_near(got, ref, grid=normalize.PIPELINE_BITS):
    """got lies on the 2^-grid grid, coefficient by coefficient within one grid step of ref."""
    assert got.order == ref.order
    for key in got.coeffs.keys() | ref.coeffs.keys():
        assert (1 << grid) % Fraction(got[key]).denominator == 0, key
        assert abs(got[key] - ref[key]) <= Fraction(1, 1 << grid), (key, float(got[key] - ref[key]))


@pytest.mark.parametrize("order, cone", [(8, False), (8, True), (12, False), (12, True)])
def test_apply_affine_equals_the_reference_kernel_on_the_loop_traffic(order, cone, monkeypatch):
    # every (F, T, grid) that normalize_parabolic_surface hands to apply_affine on one float jet
    calls = []

    def recording(F, T, grid=None):
        calls.append((F, T, grid))
        return apply_affine(F, T, grid)

    monkeypatch.setattr(normalize, "apply_affine", recording)
    draw = random_cone_branch_jet if cone else random_parabolic_jet
    f = realize_series(draw(random.Random(600 + order), order))
    assert normalize.normalize_parabolic_surface(f).branch == ("Cone" if cone else "Generic")
    # translation and transvection run exactly; from the first (inexact) cube root on, every loop
    # asks for the grid and sends 1/c3, -f11/f20 and the like
    exact = [(F, T) for F, T, grid in calls if grid is None]
    rooted = [(F, T) for F, T, grid in calls if grid is not None]
    assert len(exact) >= 1 and len(rooted) >= 4
    assert {grid for *_, grid in calls} == {None, normalize.PIPELINE_BITS}
    assert [grid for *_, grid in calls] == sorted((grid for *_, grid in calls), key=lambda g: g is not None)
    assert any(e.denominator & (e.denominator - 1) for _, T in rooted for e in T.matrix()[0])
    for F, T in exact:
        reference.assert_same(apply_affine(F, T), reference.apply_affine(F, T))
    for F, T in rooted:
        _on_grid_near(apply_affine(F, T, normalize.PIPELINE_BITS), reference.apply_affine(F, T))


def test_a_failed_certificate_falls_back_to_the_exact_kernel_and_the_snap(monkeypatch):
    rng = random.Random(610)
    surfaces = [realize_series(random_parabolic_jet(rng, 8)), realize_series(random_cone_branch_jet(rng, 8))]
    curve = TruncatedSeries1(8, dict(random_curve_jet(rng, 8)))

    def runs():
        return [*(normalize.normalize_parabolic_surface(f) for f in surfaces), normalize.normalize_curve_sl2(curve)]

    # the parent's rule: every loop exact, snapped from the first root on
    with monkeypatch.context() as m:
        m.setattr(normalize, "apply_affine", lambda F, T, grid=None: apply_affine(F, T))
        m.setattr(normalize, "apply_affine_curve", lambda F, T, grid=None: apply_affine_curve(F, T))
        refs = runs()
    attempts = []
    image = series._grid_image

    def spy(F, T, grid):
        G = image(F, T, grid)
        attempts.append(G)
        return G

    # two guard bits certify no output, so every fixed-point attempt must fall back
    monkeypatch.setattr(series, "FIXED_GUARD", 2)
    monkeypatch.setattr(series, "_grid_image", spy)
    for got, ref in zip(runs(), refs):
        reference.assert_same(got.normal_series, ref.normal_series)
        assert got.readings == ref.readings and got.transform == ref.transform and got.steps == ref.steps
    # generic loops 1-4, cone loops 1-3 and its last shear, the curve's shear
    assert len(attempts) >= 9 and all(G is None for G in attempts)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from([8, 40, 128]), st.data())
def test_grid_outputs_lie_within_one_grid_step_of_the_exact_image(n, grid, data):
    f = TruncatedSeries2(n, {jk: data.draw(SMALL) for jk in _keys2(n) if sum(jk) >= 1})
    T = AffineTransform3(**{name: data.draw(SMALL) for name in "abcklmpqr"})
    assume(abs(T.c * f[(1, 0)] + T.m * f[(0, 1)] - T.r) >= F(1, 4))  # the v-derivative of Phi
    g = TruncatedSeries1(n, {j: data.draw(SMALL) for j in range(1, n + 1)})
    Tc = CurveTransform2(**{name: data.draw(SMALL) for name in "abcd"})
    assume(abs(Tc.b * g[1] - Tc.d) >= F(1, 4))
    _on_grid_near(apply_affine(f, T, grid), apply_affine(f, T), grid)
    _on_grid_near(apply_affine_curve(g, Tc, grid), apply_affine_curve(g, Tc), grid)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 6), st.sampled_from([8, 40, 128]), st.data())
def test_grid_outputs_at_valuation_2_lie_within_one_grid_step_of_the_exact_image(n, grid, data):
    # no term of degree below 2 and p = q = 0: the graph starts at degree 2, the substitution and solve weigh v twice
    f = TruncatedSeries2(n, {jk: data.draw(SMALL) for jk in _keys2(n) if sum(jk) >= 2})
    T = AffineTransform3(**{name: data.draw(SMALL) for name in "abcklmr"})
    assume(abs(T.r) >= F(1, 4))  # the v-derivative of Phi
    g = TruncatedSeries1(n, {j: data.draw(SMALL) for j in range(2, n + 1)})
    Tc = CurveTransform2(**{name: data.draw(SMALL) for name in "abd"})
    assume(abs(Tc.d) >= F(1, 4))
    with mock.patch.object(series, "substitute_on_grid", wraps=series.substitute_on_grid) as grid_kernel:
        _on_grid_near(apply_affine(f, T, grid), reference.apply_affine(f, T), grid)
        _on_grid_near(apply_affine_curve(g, Tc, grid), reference.apply_affine_curve(g, Tc), grid)
    assert [call.args[4] for call in grid_kernel.call_args_list] == [2, 2]


def _recording_valuations(monkeypatch, valuation=None):
    """Record (v enters a linear form, valuation) per substitution of the grid kernel, the one that weighs v.

    With ``valuation`` 1, force the full expansion.
    """
    grid_kernel, seen = series.substitute_on_grid, []

    def recording_on_grid(f, n, T, bits, w):
        phi = grid_kernel(f, n, T, bits, valuation or w)
        seen.append((T.c != 0 or T.m != 0, phi.valuation))
        return phi

    monkeypatch.setattr(series, "substitute_on_grid", recording_on_grid)
    return seen


def _normal_forms(order):
    out = []
    for exact in (False, True):
        for draw in (random_parabolic_jet, random_cone_branch_jet):
            rng = random.Random(960 + order)
            for _ in range(2):
                res = normalize.normalize_parabolic_surface(realize_series(draw(rng, order, exact=exact)))
                out.append((res.branch, res.normal_series, res.readings, res.transform, res.steps))
    return out


@pytest.mark.parametrize("order", [6, 8, 12])
def test_normal_forms_at_valuation_2_are_bit_identical_to_valuation_1(order, monkeypatch):
    seen = _recording_valuations(monkeypatch)
    shipped = _normal_forms(order)
    assert {branch for branch, *_ in shipped} == {"Generic", "Cone"}
    # every loop after the transvection has p = q = 0 and a centred F without linear terms
    assert {valuation for _, valuation in seen} == {2} and sum(implicit for implicit, _ in seen) >= 8
    seen = _recording_valuations(monkeypatch, valuation=1)
    assert _normal_forms(order) == shipped
    assert {valuation for _, valuation in seen} == {1}


def test_an_affine_part_in_s_or_t_or_a_linear_term_keeps_valuation_1(monkeypatch):
    f = _centered_exact_jet(random.Random(64), 8)
    assert f[(1, 0)] != 0 and f[(0, 1)] != 0
    f0 = TruncatedSeries2(8, {jk: c for jk, c in f.coeffs.items() if sum(jk) >= 2})
    shear = dict(c=F(1, 6), k=F(-1, 6), m=F(5, 18))
    cases = [
        (f0, AffineTransform3(**shear), 2),
        (f0, AffineTransform3(**shear, p=F(3, 7)), 1),
        (f0, AffineTransform3(**shear, q=F(-2, 5)), 1),
        (f, AffineTransform3(**shear), 1),
    ]
    seen = _recording_valuations(monkeypatch)
    for F0, T, valuation in cases:
        seen.clear()
        _on_grid_near(apply_affine(F0, T, normalize.PIPELINE_BITS), reference.apply_affine(F0, T))
        assert seen == [(True, valuation)]


def _rooted_shapes(rng, n):
    """(series, transform) pairs shaped as the rooted loops' traffic, every coefficient on the 2^-128 grid.

    The surface is a drawn jet, snapped to the grid; ratios of its coefficients and roots at the pipeline precision
    give long denominators, as the loops' transforms have.  The shapes: a v-free scaling with a shear in
    (s, t) (loop 1), a v-free map with k, l != 0 (loop 2), the shears in v of loops 3 and 4, a general
    transform with p, q != 0 on a graph with linear terms (both drawn as the property tests draw them,
    r a root), and the sl2 and gl2 curve embeddings.
    """
    bits = normalize.PIPELINE_BITS
    f = realize_series(random_parabolic_jet(rng, n))
    f = TruncatedSeries2(n, {jk: snap(c, bits) for jk, c in f.coeffs.items() if jk != (0, 0)})
    centered = TruncatedSeries2(n, {jk: c for jk, c in f.coeffs.items() if sum(jk) >= 2})
    g = centered.x_profile()
    u = [centered[jk] for jk in ((2, 0), (1, 1), (2, 1), (3, 0), (4, 0), (4, 1), (3, 1))]
    c3, r3, s4 = cbrt_frac(u[0], bits), cbrt_frac(u[2], bits), sqrt_frac(abs(g[4]), bits)
    c = u[5] / (2 * u[6])

    def small():
        return F(rng.randint(-36, 36), 12)

    drawn = TruncatedSeries2(n, {jk: snap(small(), bits) for jk in _keys2(n) if sum(jk) >= 1})
    return [
        (centered, AffineTransform3(a=1 / c3, b=-u[1] / u[0], r=c3)),
        (centered, AffineTransform3(a=r3, k=-u[3] / (3 * r3 * r3), l=1 / u[2], r=r3 * r3)),
        (centered, AffineTransform3(m=-u[4] / 6)),
        (centered, AffineTransform3(c=c, k=-c, m=2 * c * u[6] / 3 - c * c / 2)),
        (drawn, AffineTransform3(**{name: small() for name in "abcklmpq"}, r=c3)),
        (g, CurveTransform2(a=1 / cbrt_frac(g[2], bits), d=cbrt_frac(g[2], bits))),
        (g, CurveTransform2(a=1, b=-g[3] / 3, d=1)),
        (g, CurveTransform2(a=1 / s4, d=1 / abs(g[4]))),
    ]


@pytest.mark.parametrize("order", [8, 12, 16])
def test_rooted_shapes_return_the_exact_image_rounded_half_up_to_the_grid(order):
    # certified, the fixed-point kernel's output is the exact image rounded half up, numerator by numerator,
    # whether its input comes as a series or as a grid series
    bits = normalize.PIPELINE_BITS
    for G, T in _rooted_shapes(random.Random(970 + order), order):
        apply = apply_affine_curve if isinstance(T, CurveTransform2) else apply_affine
        exact = apply(G, T)
        want = {key: N for key, c in exact.coeffs.items() if (N := math.floor(c * (1 << bits) + F(1, 2)))}
        on_grid = GridSeries(type(G), G.order, {key: int(c * (1 << bits)) for key, c in G.coeffs.items()}, bits)
        for source in (G, on_grid):
            got = apply(source, T, bits)
            assert isinstance(got, GridSeries) and got.kind is type(G) and got.nums == want, T
        assert got.series() == type(G)(order, {key: F(N, 1 << bits) for key, N in want.items()})


def test_identity_part_maps_asked_for_the_grid_solve_onto_it():
    # the identity-part edit is exact; asked for the grid, the same maps run the fixed-point solve
    f = _centered_exact_jet(random.Random(68), 8)
    g = f.x_profile()
    T, Tc = AffineTransform3(p=F(1, 3), q=F(-2, 7)), CurveTransform2(c=F(1, 3))
    assert (1 << normalize.PIPELINE_BITS) % apply_affine(f, T)[(1, 0)].denominator
    _on_grid_near(apply_affine(f, T, normalize.PIPELINE_BITS), apply_affine(f, T))
    _on_grid_near(apply_affine_curve(g, Tc, normalize.PIPELINE_BITS), apply_affine_curve(g, Tc))


def _parent_series3(f, xs, ys, n):
    """Factorial-convention coefficients of F(L1 + xs0, L2 + ys0): the scalar Horner loops."""
    fc = f if (xs[3] == 0 and ys[3] == 0) else f.shift(xs[3], ys[3])

    def times_linear(P, form):
        out = {}
        for (di, dj, dk), coef in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), form):
            if coef == 0:
                continue
            for (i, j, k), c in P.items():
                key = (i + di, j + dj, k + dk)
                x = c if coef == 1 else coef * c
                out[key] = x if key not in out else out[key] + x
        return out

    mono = {ab: reference.over(c, math.factorial(ab[0]) * math.factorial(ab[1])) for ab, c in fc.coeffs.items() if sum(ab) <= n}
    y_pows = [{(0, 0, 0): 1}]
    for _ in range(max((b for _, b in mono), default=0)):
        y_pows.append(times_linear(y_pows[-1], ys[:3]))
    R = {}
    for a in range(n, -1, -1):
        R = times_linear(R, xs[:3])
        for b in range(n - a + 1):
            if (a, b) in mono:
                for key, c in y_pows[b].items():
                    x = mono[(a, b)] * c
                    R[key] = x if key not in R else R[key] + x
    out = {(i, j, k): c * (math.factorial(i) * math.factorial(j) * math.factorial(k)) for (i, j, k), c in R.items()}
    return {key: c for key, c in out.items() if c != 0}


def _parent_solve(phi, n):
    """The graded implicit solve on factorial-convention scalars, one multiply-add per term pair."""
    pv = phi[(0, 0, 1)]
    parts = {}
    for (a, b, c), x in phi.items():
        if (a, b, c) != (0, 0, 1):
            m = math.factorial(a) * math.factorial(b) * math.factorial(c)
            parts.setdefault(c, {}).setdefault(a + b, {})[a] = reference.over(x, m)

    def times(A, B, out):
        for i, x in A.items():
            for j, y in B.items():
                out[i + j] = x * y if i + j not in out else out[i + j] + x * y

    vmax = max(max(parts, default=0), 1)
    powers = {c: {} for c in range(1, vmax + 1)}
    out = {}
    for d in range(1, n + 1):
        for c in range(2, min(d, vmax) + 1):
            powers[c][d] = {}
            for i in range(1, d - c + 2):
                times(powers[1][i], powers[c - 1].get(d - i, {}), powers[c][d])
        residual = dict(parts.get(0, {}).get(d, {}))
        for c in range(1, vmax + 1):
            for e, h in parts.get(c, {}).items():
                if d - e in powers[c]:
                    times(h, powers[c][d - e], residual)
        powers[1][d] = {j: -x / pv for j, x in residual.items() if x != 0}
        for j, x in powers[1][d].items():
            out[(j, d - j)] = x * (math.factorial(j) * math.factorial(d - j))
    return TruncatedSeries2(n, out)


def _parent_graph(f2, xs, ys, axis, n):
    """Solve F(L1, L2) - axis(s, t, v) = 0 for v = G(s, t), axis as (constant, s, t, v) coefficients."""
    phi = _parent_series3(f2, xs, ys, n)
    for key, c in axis.items():
        if sum(key) <= n and -c != 0:
            s = phi.get(key, 0) + (-c)
            if s != 0:
                phi[key] = s
            else:
                phi.pop(key, None)
    c0 = phi.pop((0, 0, 0), 0)
    assert c0 == 0 or (not is_exact(c0) and abs(c0) <= 1e-9)
    return _parent_solve(phi, n) if n > 0 else TruncatedSeries2(0, {})


def _parent_apply_affine(f, T):
    axis = {(0, 0, 0): T.w, (1, 0, 0): T.p, (0, 1, 0): T.q, (0, 0, 1): T.r}
    return _parent_graph(f, (T.a, T.b, T.c, T.d), (T.k, T.l, T.m, T.n), axis, f.order)


def _parent_apply_affine_curve(f, T):
    fc = f if T.e == 0 else _shift1(f, T.e)
    f2 = TruncatedSeries2(f.order, {(j, 0): c for j, c in fc.coeffs.items()})
    g = _parent_graph(f2, (T.a, 0, T.b, 0), (0, 0, 0, 0), {(0, 0, 0): T.f, (1, 0, 0): T.c, (0, 0, 1): T.d}, f.order)
    return TruncatedSeries1(f.order, {j: c for (j, k), c in g.coeffs.items() if k == 0})


def _sens(rng, value):
    return Sens(value, {"a": rng.uniform(-1, 1), "b": rng.uniform(-1, 1)})


FLOAT_ENTRIES = dict(a=1.1, b=-0.2, c=0.15, k=0.05, l=0.9, m=-0.12, p=0.3, q=-0.25, r=1.05)
CURVE_FLOAT_ENTRIES = dict(a=0.8, b=-0.6, c=0.6, d=1.25)


@pytest.mark.parametrize("n", [0, 1, 3, 8, 12])
def test_float_and_sens_transforms_are_bit_identical_to_the_parent_loops(n):
    rng = random.Random(700 + n)
    values = {jk: rng.uniform(-2, 2) for jk in _keys2(n) if sum(jk) >= 2}
    f = TruncatedSeries2(n, values)
    translated = AffineTransform3(**FLOAT_ENTRIES, d=0.125, n=-0.0625, w=f.shift(0.125, -0.0625)[(0, 0)])
    for T in [AffineTransform3(**FLOAT_ENTRIES), translated, AffineTransform3(m=-0.3, p=0.5)]:
        reference.assert_same(apply_affine(f, T), _parent_apply_affine(f, T))
    fs = TruncatedSeries2(n, {jk: _sens(rng, v) for jk, v in values.items()})
    Ts = AffineTransform3(**{name: _sens(rng, v) for name, v in FLOAT_ENTRIES.items()})
    for T in [Ts, AffineTransform3(**FLOAT_ENTRIES)]:
        reference.assert_same(apply_affine(fs, T), _parent_apply_affine(fs, T))
    g = TruncatedSeries1(n, {j: rng.uniform(-2, 2) for j in range(2, n + 1)})
    shifted = CurveTransform2(b=0.25, d=1.5, e=0.5, f=_shift1(g, 0.5)[0])
    for T in [CurveTransform2(**CURVE_FLOAT_ENTRIES), shifted]:
        reference.assert_same(apply_affine_curve(g, T), _parent_apply_affine_curve(g, T))
    gs = TruncatedSeries1(n, {j: _sens(rng, c) for j, c in g.coeffs.items()})
    Tc = CurveTransform2(**{name: _sens(rng, v) for name, v in CURVE_FLOAT_ENTRIES.items()})
    reference.assert_same(apply_affine_curve(gs, Tc), _parent_apply_affine_curve(gs, Tc))


@pytest.mark.parametrize("name", sorted(FLOAT_ENTRIES))
def test_an_exact_series_under_one_float_entry_keeps_the_parent_values_and_types(name):
    f = _centered_exact_jet(random.Random(66), 8)
    T = AffineTransform3(**{name: FLOAT_ENTRIES[name]})
    got = apply_affine(f, T)
    assert not got.is_exact()
    reference.assert_same(got, _parent_apply_affine(f, T))
    curve = TruncatedSeries1(8, {j: F(j * j - 7, j + 2) for j in range(2, 9)})
    for cname, value in CURVE_FLOAT_ENTRIES.items():
        Tc = CurveTransform2(**{cname: value})
        reference.assert_same(apply_affine_curve(curve, Tc), _parent_apply_affine_curve(curve, Tc))


TINY = F(1, 10**12)
SHEAR = dict(a=F(7, 5), b=F(1, 4), m=F(-1, 3), r=F(3, 2), p=F(1, 3))


@pytest.mark.parametrize(
    "constant, entries, grid",
    [
        pytest.param(TINY, {}, normalize.PIPELINE_BITS, id="fixed-point-misses"),
        pytest.param(TINY, {}, None, id="exact-lcm-misses"),
        pytest.param(TINY, {"k": 0.0}, None, id="exact-scalars-under-a-float-zero-miss"),
        pytest.param(1e-3, None, None, id="float-misses"),
        pytest.param(1e-12, None, None, id="float-residue-dropped"),
        pytest.param(F(1, 1000), {"p": 0.3}, None, id="mixed-misses"),
        pytest.param(F(0), {"p": 0.3}, None, id="mixed-solves"),
    ],
)
def test_phi_is_checked_once_at_the_origin_in_every_regime(constant, entries, grid):
    # Phi(0, 0, 0) is the series' constant term: any exact one misses, a float one only above 1e-9
    f = _centered_exact_jet(random.Random(69), 8)
    T = AffineTransform3(**{**SHEAR, **(entries or {})})
    if entries is None:
        f = TruncatedSeries2(8, {jk: float(c) for jk, c in f.coeffs.items()})
        T = AffineTransform3(**{name: float(v) for name, v in SHEAR.items()})
    f = TruncatedSeries2(8, {**f.coeffs, (0, 0): constant})
    if is_exact(constant) and constant != 0 or abs(constant) > 1e-9:
        with pytest.raises(ValueError, match="misses the target origin"):
            apply_affine(f, T, grid)
    else:
        reference.assert_same(apply_affine(f, T, grid), _parent_apply_affine(f, T))


def test_a_float_zero_transform_entry_keeps_the_integer_kernel():
    # a zero counts as exact whatever its type, so the substitution runs on integer numerators
    f = _centered_exact_jet(random.Random(67), 8)
    for zeros in ({"k": 0.0}, {"k": 0.0, "p": 0.0, "q": -0.0}):
        T = AffineTransform3(**{**SHEAR, **zeros})
        T0 = AffineTransform3(**{**SHEAR, **{name: F(0) for name in zeros}})
        phi = series3_from_bivariate_in_linear(f, (T.a, T.b, T.c, T.d), (T.k, T.l, T.m, T.n), 8)
        assert phi.den is not None
        got = apply_affine(f, T)
        assert got == apply_affine(f, T0)
        assert all(type(c) is Fraction for c in got.coeffs.values())


# -- the bivariate polynomial kernel against the series it replaced in compose2 and classify


def _kernel_series(data, n, exact, zero_origin=False):
    # float magnitudes stay above 1e-3, so that no product of the numerators nears the subnormal range
    value = SMALL if exact else st.one_of(st.floats(1e-3, 3), st.floats(-3, -1e-3))
    keys = [jk for jk in _keys2(n) if not (zero_origin and jk == (0, 0))]
    return TruncatedSeries2(n, {jk: data.draw(st.one_of(st.just(0), value)) for jk in keys})


def _agree(got: TruncatedSeries2, want: TruncatedSeries2, exact: bool, bound=None) -> None:
    """Equal as ``Fraction``s when exact; else within 1e-12 of the summed term magnitudes ``bound``."""
    if exact:
        assert got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in [*got.coeffs.values(), *want.coeffs.values()])
        return
    for jk in got.coeffs.keys() | want.coeffs.keys():
        assert abs(got[jk] - want[jk]) <= 1e-12 * bound[jk], (jk, got[jk], want[jk])


def _absolute(F: TruncatedSeries2) -> TruncatedSeries2:
    return TruncatedSeries2(F.order, {jk: abs(c) for jk, c in F.coeffs.items()})


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 10), exact=st.booleans(), data=st.data())
def test_numerator_polynomials_equal_the_reference_products(n, exact, data):
    F = _kernel_series(data, n, exact)
    kernel = DerivativeView(Poly2.from_series(F))
    mono = reference.monomial(F)
    absolute = {key: abs(c) for key, c in mono.items()}
    for numerator, terms in ((invariant_H, h_terms), (s_numerator, s_terms), (w_numerator, w_terms)):
        want = functools.reduce(reference.add, reference.numerator_terms(terms, mono, 4 * n))
        magnitudes = ({key: abs(c) for key, c in t.items()} for t in reference.numerator_terms(terms, absolute, 4 * n))
        bound = functools.reduce(reference.add, magnitudes)
        _agree(numerator(kernel).to_series(4 * n), from_monomials2(4 * n, want), exact, from_monomials2(4 * n, bound))


def _composed(F, X, Y):
    """F(X, Y) by the reference composition."""
    n = min(F.order, X.order, Y.order)
    return from_monomials2(n, reference.compose(reference.monomial(F), [reference.monomial(X), reference.monomial(Y)], n))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 10), exact=st.booleans(), data=st.data())
def test_compose2_equals_the_reference_composition(n, exact, data):
    F = _kernel_series(data, n, exact)
    X, Y = (_kernel_series(data, data.draw(st.integers(n, n + 2)), exact, zero_origin=True) for _ in range(2))
    bound = None if exact else _composed(*map(_absolute, (F, X, Y)))
    _agree(compose2(F, X, Y), _composed(F, X, Y), exact, bound)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(exact=st.booleans(), data=st.data())
def test_univariate_arithmetic_is_the_y_free_slice_of_the_bivariate_arithmetic(exact, data):
    f, g = (data.draw(_series_strategy(exact, st.just(False), 8)) for _ in range(2))
    s = data.draw(st.fractions(max_denominator=10**6) if exact else st.floats(allow_nan=False, allow_infinity=False))
    f2, g2 = f.y_free(), g.y_free()
    for one, two in [
        (f + g, f2 + g2),
        (f - g, f2 - g2),
        (-f, -f2),
        (3 * f, 3 * f2),
        (f.scale(s), f2.scale(s)),
        (f.derivative(), f2.derivative("x")),
    ]:
        reference.assert_same(one, two.x_profile())
        assert two == one.y_free()
    assert (f == g) == (f2 == g2) and (f + g == g + f) and f2.x_profile() == f
    assert f != f2 and f2 != f
