import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parajet.jets as jets_module
from parajet.invariants import invariant_H
from parajet.jets import (
    DerivativeView,
    ParabolicJet,
    curve_total_derivative,
    jets_of_series,
    parabolic_jet_of_series,
    realize_series,
    total_derivative,
)
from parajet.sampling import random_cone_branch_jet
from parajet.sampling import random_parabolic_jet as sampled_generic_jet
from parajet.series import TruncatedSeries2

import reference

F = Fraction


def random_parabolic_jet(rng, order, exact=True):
    def val():
        if exact:
            return F(rng.randint(-32, 32), 16)
        return rng.uniform(-2.0, 2.0)

    while True:
        coords = {(0, 0): val()}
        for j in range(1, order + 1):
            coords[(j, 0)] = val()
        for j in range(order):
            coords[(j, 1)] = val()
        u20 = coords[(2, 0)]
        s = coords[(2, 0)] * coords[(2, 1)] - coords[(1, 1)] * coords[(3, 0)]
        if abs(u20) >= F(3, 10) and abs(s) >= F(1, 10):
            return ParabolicJet(order, coords)


def test_fill_printed_low_order_relations():
    # the rank-one relation and its first differential consequences
    rng = random.Random(1)
    for _ in range(10):
        p = random_parabolic_jet(rng, 4)
        u11, u20, u21, u30 = p[(1, 1)], p[(2, 0)], p[(2, 1)], p[(3, 0)]
        u31, u40, u10 = p[(3, 1)], p[(4, 0)], p[(1, 0)]
        assert p[(0, 2)] == u11 * u11 / u20
        assert p[(1, 2)] == 2 * u11 * u21 / u20 - u11**2 * u30 / u20**2
        assert p[(0, 3)] == 3 * u11**2 * u21 / u20**2 - 2 * u11**3 * u30 / u20**3
        assert (
            p[(2, 2)]
            == 2 * u21**2 / u20
            - 4 * u11 * u21 * u30 / u20**2
            + 2 * u11 * u31 / u20
            + 2 * u11**2 * u30**2 / u20**3
            - u11**2 * u40 / u20**2
        )
        assert (
            p[(1, 3)]
            == 6 * u11 * u21**2 / u20**2
            - 12 * u11**2 * u30 * u21 / u20**3
            + 3 * u11**2 * u31 / u20**2
            + 6 * u11**3 * u30**2 / u20**4
            - 2 * u11**3 * u40 / u20**3
        )
        assert (
            p[(0, 4)]
            == 12 * u11**2 * u21**2 / u20**3
            - 24 * u11**3 * u21 * u30 / u20**4
            + 12 * u11**4 * u30**2 / u20**5
            + 4 * u11**3 * u31 / u20**3
            - 3 * u11**4 * u40 / u20**4
        )


@pytest.mark.parametrize("order", [6, 7, 8, 12])
def test_fill_equals_symbolic_rank_one_substitution(order):
    # every dependent entry against the rational expression built by total differentiation, on the
    # sampler's exact draws and on its default long-denominator ones (limit_denominator(10**6))
    rng = random.Random(order)
    exact = (sampled_generic_jet(rng, order, exact=True), random_cone_branch_jet(rng, order, exact=True))
    for p in (*exact, sampled_generic_jet(rng, order)):
        dependent = {(j, k): v for (j, k), v in p.filled(order).items() if k >= 2}
        assert dependent == reference.rank_one_fill(p.coords, order)
        assert all(type(v) is (int if v == 0 else Fraction) for v in dependent.values())


def test_one_float_coordinate_among_fractions_fills_in_floats():
    coords = dict(sampled_generic_jet(random.Random(5), 8).coords)
    coords[(1, 1)] = float(coords[(1, 1)])
    want = reference.rank_one_fill(coords, 8)
    for (j, k), v in ParabolicJet(8, coords).filled(8).items():
        if k >= 2:
            assert type(v) is float and v == pytest.approx(want[(j, k)], rel=1e-12), (j, k)


def test_fill_of_an_integer_jet_is_exact():
    coords = {(0, 0): 0, (1, 0): 0, (2, 0): 2, (3, 0): 1, (0, 1): 0, (1, 1): 1, (2, 1): 3}
    p = ParabolicJet(3, coords)
    assert type(p[(0, 2)]) is Fraction and p[(0, 2)] == F(1, 2)
    assert all(type(v) is Fraction for (j, k), v in p.filled(3).items() if k >= 2)


_RATIONAL = st.one_of(st.integers(-3, 3), st.fractions(-4, 4, max_denominator=10**6))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(4, 10), st.booleans(), st.data())
def test_rational_fill_equals_the_symbolic_substitution_exactly(order, flat, data):
    """ints and Fractions mixed, with and without a vanishing u_{1,1}: exact Fractions or the integer 0."""
    keys = [(j, 0) for j in range(order + 1)] + [(j, 1) for j in range(order)]
    coords = {jk: data.draw(_RATIONAL) for jk in keys}
    coords[(2, 0)] = data.draw(_RATIONAL.filter(bool))
    if flat:
        coords[(1, 1)] = data.draw(st.sampled_from([0, F(0)]))
    want = reference.rank_one_fill(coords, order)
    for (j, k), v in ParabolicJet(order, coords).filled(order).items():
        if k >= 2:
            assert v == want[(j, k)], (j, k)
            assert type(v) is (int if v == 0 else Fraction), (j, k, v)


def test_fill_extends_degree_by_degree(monkeypatch):
    # each coefficient of rho and of C_1 .. C_11 is one kernel call; its index i reads degree i + 2
    coords = random_parabolic_jet(random.Random(12), 12).coords
    calls = []
    kernel = jets_module._binomial_dot

    def counted_kernel(i, stop, x, y, *rest):
        calls.append((i, stop, id(y)))
        return kernel(i, stop, x, y, *rest)

    monkeypatch.setattr(jets_module, "_binomial_dot", counted_kernel)
    p = ParabolicJet(12, coords)
    low = p.filled(3)
    assert len(calls) == 6 and max(i for i, _, _ in calls) == 1  # rho, C_1 and C_2 to index 1
    full = p.filled(12)
    assert len(calls) == len(set(calls)) == 12 * 11  # rho and C_1 .. C_11 to index 10, each once
    assert p.filled(12) == full and len(calls) == 12 * 11  # nothing is filled twice
    assert full == ParabolicJet(12, coords).filled(12)
    assert low == {jk: v for jk, v in full.items() if sum(jk) <= 3}


def test_fill_vanishing_mixed_jet_kills_column():
    coords = {(0, 0): F(0), (1, 0): F(1), (2, 0): F(2), (3, 0): F(1), (4, 0): F(-1)}
    coords[(0, 1)] = F(1, 2)
    coords[(1, 1)] = F(0)
    coords[(2, 1)] = F(3)
    coords[(3, 1)] = F(1)
    p = ParabolicJet(4, coords)
    assert p[(0, 2)] == 0
    assert p[(0, 3)] == 0
    assert p[(1, 2)] == 0


def test_fill_cone_model_fourth_derivative():
    # u = x^2/(2(1-y)): independently, d^4F/dx^2dy^2 = 2 at the origin.
    coords = {(0, 0): F(0), (0, 1): F(0), (1, 1): F(0)}
    coords[(1, 0)] = F(0)
    coords[(2, 0)] = F(1)
    coords[(3, 0)] = F(0)
    coords[(4, 0)] = F(0)
    coords[(2, 1)] = F(1)
    coords[(3, 1)] = F(0)
    p = ParabolicJet(4, coords)
    assert p[(2, 2)] == 2


def test_fill_determinant_relation_and_derivatives_vanish():
    rng = random.Random(5)
    for _ in range(5):
        p = random_parabolic_jet(rng, 5)

        def hess(c):
            return c[(2, 0)] * c[(0, 2)] - c[(1, 1)] * c[(1, 1)]

        vals = {jk: p[jk] for jk in [(2, 0), (0, 2), (1, 1)]}
        assert vals[(2, 0)] * vals[(0, 2)] - vals[(1, 1)] ** 2 == 0
        assert total_derivative(hess, p) == [0, 0]


def test_jets_of_series_basic():
    f = TruncatedSeries2(4, {(2, 0): F(1)})
    jp = jets_of_series(f)
    assert jp[(2, 0)] == 1
    assert jp[(3, 0)] == 0 and jp[(1, 1)] == 0


def test_jets_of_series_cone_model():
    # u = x^2/(2(1-y)) truncated at order 6: F_{2,k} = k!
    jp = jets_of_series(reference.cone_model(6))
    assert jp[(2, 0)] == 1
    assert jp[(2, 1)] == 1
    assert jp[(2, 2)] == 2
    assert jp[(2, 3)] == 6


def test_jets_roundtrip_through_base_shift():
    # jets of a shifted series match derivatives of the original polynomial
    rng = random.Random(11)
    n = 5
    coeffs = {}
    for j in range(n + 1):
        for k in range(n + 1 - j):
            coeffs[(j, k)] = F(rng.randint(-6, 6), 4)
    f = TruncatedSeries2(n, coeffs)
    hx, hy = F(1, 7), F(-1, 9)
    g = f.shift(hx, hy)
    jp = jets_of_series(g)
    # derivatives of the polynomial at (hx, hy), by the binomial re-expansion
    expect = reference.from_monomials2(n, reference.shift(reference.monomial(f), (hx, hy)))
    for (j, k) in [(0, 0), (1, 0), (2, 1), (0, 3)]:
        assert jp[(j, k)] == expect[(j, k)]


def test_realize_series_is_parabolic_to_truncation():
    rng = random.Random(23)
    p = random_parabolic_jet(rng, 6)
    f = realize_series(p)
    h = invariant_H(DerivativeView(f))
    assert all(c == 0 for c in h.coeffs.values())
    back = parabolic_jet_of_series(f)
    assert back.coords == p.coords


def test_total_derivative_chain_rule():
    rng = random.Random(2)
    p = random_parabolic_jet(rng, 4)

    def f(c):
        return c[(2, 0)] * c[(2, 0)]

    assert total_derivative(f, p)[0] == 2 * p[(2, 0)] * p[(3, 0)]


def test_total_derivative_insufficient_order():
    rng = random.Random(3)
    p = random_parabolic_jet(rng, 3)

    def f(c):
        return c[(3, 0)] * c[(2, 1)]

    with pytest.raises(KeyError):
        total_derivative(f, p)


def test_total_derivative_of_a_constant_and_past_the_top_order():
    p = random_parabolic_jet(random.Random(4), 3)
    assert total_derivative(lambda c: F(7), p) == [0, 0]
    with pytest.raises(KeyError):
        total_derivative(lambda c: c[(0, 3)], p)


def test_total_derivatives_commute():
    rng = random.Random(17)
    for _ in range(10):
        p = random_parabolic_jet(rng, 6, exact=False)

        def f(c):
            return c[(2, 0)] * c[(1, 1)] + c[(2, 1)] ** 2 / c[(2, 0)]

        # build D_x f and D_y f as jet functions by finite reduction:
        def dx_of_f(c):
            # chain rule by hand against the same f, using c's own shifts
            from parajet.scalars import Sens

            seeded = {
                key: Sens.seed(c[key], ("inner", key))
                for key in [(2, 0), (1, 1), (2, 1), (3, 0)]
            }
            # f touches (2,0), (1,1), (2,1) only
            g = seeded[(2, 0)] * seeded[(1, 1)] + seeded[(2, 1)] ** 2 / seeded[(2, 0)]
            return (
                g.partials.get(("inner", (2, 0)), 0) * c[(3, 0)]
                + g.partials.get(("inner", (1, 1)), 0) * c[(2, 1)]
                + g.partials.get(("inner", (2, 1)), 0) * c[(3, 1)]
            )

        def dy_of_f(c):
            from parajet.scalars import Sens

            seeded = {
                key: Sens.seed(c[key], ("inner", key))
                for key in [(2, 0), (1, 1), (2, 1)]
            }
            g = seeded[(2, 0)] * seeded[(1, 1)] + seeded[(2, 1)] ** 2 / seeded[(2, 0)]
            return (
                g.partials.get(("inner", (2, 0)), 0) * c[(2, 1)]
                + g.partials.get(("inner", (1, 1)), 0) * c[(1, 2)]
                + g.partials.get(("inner", (2, 1)), 0) * c[(2, 2)]
            )

        lhs = total_derivative(dy_of_f, p)[0]
        rhs = total_derivative(dx_of_f, p)[1]
        from parajet.scalars import to_float

        a, b = to_float(lhs), to_float(rhs)
        assert abs(a - b) <= 1e-9 * (1 + max(abs(a), abs(b)))


def test_curve_total_derivative():
    jet = {i: F(i + 1, 2) for i in range(6)}

    def f(c):
        return c[2] * c[2] * c[3]

    got = curve_total_derivative(f, jet)
    assert got == 2 * jet[2] * jet[3] * jet[3] + jet[2] ** 2 * jet[4]


def test_parabolic_jet_validation():
    with pytest.raises(ValueError):
        ParabolicJet(2, {(0, 0): F(0), (1, 0): F(1), (2, 0): F(0), (0, 1): F(0), (1, 1): F(1)})
    with pytest.raises(ValueError):
        ParabolicJet(2, {(0, 0): F(0), (1, 0): F(1), (2, 0): F(1), (0, 1): F(0)})


def test_sensitivities_match_finite_differences():
    # each partial of each implemented invariant agrees with a central
    # difference at random jets, 1e-6 relative
    import parajet.invariants as inv
    from parajet.scalars import Sens, to_float

    rng = random.Random(71)
    fns = [inv.invariant_H, inv.invariant_S, inv.invariant_W, inv.invariant_X, inv.invariant_M]
    for _ in range(50):
        p = random_parabolic_jet(rng, 6, exact=False)
        coords = {k: to_float(v) for k, v in p.coords.items()}
        fn = fns[rng.randrange(len(fns))]
        seeded = {k: Sens.seed(v, k) for k, v in coords.items()}
        try:
            g = fn(ParabolicJet(6, seeded))
        except ZeroDivisionError:
            continue
        eps = 1e-6
        for key, sens in g.partials.items():
            plus = dict(coords)
            minus = dict(coords)
            plus[key] += eps
            minus[key] -= eps
            try:
                fp = to_float(fn(ParabolicJet(6, {k: Sens.seed(v, k) for k, v in plus.items()})))
                fm = to_float(fn(ParabolicJet(6, {k: Sens.seed(v, k) for k, v in minus.items()})))
            except ZeroDivisionError:
                continue
            fd = (fp - fm) / (2 * eps)
            s = to_float(sens)
            assert abs(s - fd) <= 1e-6 * (1 + max(abs(s), abs(fd))), (key, s, fd)


def test_total_derivative_of_S_matches_series_shift():
    # D_x S and D_y S at a jet match central differences along a realization
    from parajet.invariants import invariant_S
    from parajet.jets import parabolic_jet_of_series
    from parajet.scalars import to_float

    rng = random.Random(72)
    for _ in range(5):
        p = random_parabolic_jet(rng, 6, exact=True)
        f = realize_series(p)
        eps = F(1, 100000)
        for direction, d in zip(("x", "y"), total_derivative(invariant_S, p)):
            got = to_float(d)
            if direction == "x":
                jp = parabolic_jet_of_series(f.shift(eps, 0), 5)
                jm = parabolic_jet_of_series(f.shift(-eps, 0), 5)
            else:
                jp = parabolic_jet_of_series(f.shift(0, eps), 5)
                jm = parabolic_jet_of_series(f.shift(0, -eps), 5)
            fd = (
                to_float(invariant_S(jp.filled(3))) - to_float(invariant_S(jm.filled(3)))
            ) / (2 * to_float(eps))
            assert abs(got - fd) <= 1e-6 * (1 + max(abs(got), abs(fd)))
