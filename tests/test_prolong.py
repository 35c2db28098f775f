import functools
import operator
import random
from fractions import Fraction

import pytest

import parajet.prolong as prolong_module
from parajet.invariants import invariant_H, s_numerator, w_numerator
from parajet.prolong import (
    Poly,
    X,
    _prolong,
    _split,
    Y,
    det_poly_matrix,
    gl2_curve_generators,
    lie_bracket,
    orbit_rank,
    order2_matrix_symbolic,
    p_eval,
    parabolic_pushforward,
    poly,
    prolong,
    rank_det_exact,
    rank_one_substitution,
    sa3_generators,
    sl2_curve_generators,
    tangency_quotients,
    vf,
)
from parajet.sampling import rand_rational, random_parabolic_jet

from helpers import max_jet_order, order4_matrix_symbolic

F = Fraction


def test_curve_scaling_generator_prolongation():
    v1 = sl2_curve_generators()[0]
    for k in range(1, 7):
        assert prolong(v1, (k, 0)) == poly((-(k + 1), {(k, 0): 1}))


def test_curve_projective_generator_fourth_prolongation():
    v2 = sl2_curve_generators()[1]
    assert prolong(v2, (4, 0)) == poly((-5, {(1, 0): 1, (4, 0): 1}), (-10, {(2, 0): 1, (3, 0): 1}))


def test_translations_prolong_trivially():
    for g in sa3_generators()[8:]:
        for J in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (3, 1)]:
            assert prolong(g, J) == {}


def test_transvections_prolong_to_first_order_only():
    gens = {g.name: g for g in sa3_generators()}
    assert prolong(gens["v7"], (1, 0)) == poly((1, {}))
    assert prolong(gens["v7"], (0, 1)) == {}
    assert prolong(gens["v8"], (0, 1)) == poly((1, {}))
    for J in [(2, 0), (1, 1), (0, 2), (2, 1)]:
        assert prolong(gens["v7"], J) == {}
        assert prolong(gens["v8"], J) == {}


def test_prolongation_order_bound():
    for g in sa3_generators():
        for J in [(2, 0), (2, 1), (3, 1), (4, 0)]:
            assert max_jet_order(prolong(g, J)) <= J[0] + J[1]


def test_pushforward_printed_entries():
    gens = {g.name: g for g in sa3_generators()}
    assert parabolic_pushforward(prolong(gens["v5"], (1, 1))) == (poly((-1, {(1, 1): 2})), 1)
    expected_521 = (
        poly((-4, {(1, 1): 1, (2, 1): 1, (2, 0): 1})) + poly((2, {(1, 1): 2, (3, 0): 1})),
        2,
    )
    assert parabolic_pushforward(prolong(gens["v5"], (2, 1))) == expected_521
    expected_621 = (
        poly((-4, {(1, 0): 1, (1, 1): 1, (2, 1): 1, (2, 0): 1}))
        + poly((2, {(1, 0): 1, (1, 1): 2, (3, 0): 1}))
        + (poly((-3, {(1, 1): 2, (2, 0): 2})) + poly((-2, {(2, 1): 1, (0, 1): 1, (2, 0): 2}))),
        2,
    )
    assert parabolic_pushforward(prolong(gens["v6"], (2, 1))) == expected_621


def test_pushforward_keeps_independent_polynomials():
    gens = {g.name: g for g in sa3_generators()}
    phi = prolong(gens["v1"], (3, 1))  # touches no dependent jet
    assert parabolic_pushforward(phi) == (phi, 0)


def test_rank_one_substitution_fixture():
    # u_{1,2} = 2 u11 u21 / u20 - u11^2 u30 / u20^2
    num, m = rank_one_substitution(1, 2)
    assert m == 2
    assert num == poly((2, {(1, 1): 1, (2, 1): 1, (2, 0): 1}), (-1, {(1, 1): 2, (3, 0): 1}))


def test_substitutions_and_pushforwards_are_in_least_terms():
    # the numerator is a polynomial and m is least: 0, or some numerator term is free of u20
    entries = {("u", n - k, k): rank_one_substitution(n - k, k) for n in range(2, 11) for k in range(2, n + 1)}
    for v in sa3_generators():
        for n in range(1, 7):
            for k in range(n + 1):
                entries[(v.name, n - k, k)] = parabolic_pushforward(prolong(v, (n - k, k)))
    for key, (num, m) in entries.items():
        assert all(e > 0 for mono in num for _, e in mono), key
        assert m == 0 or any((2, 0) not in dict(mono) for mono in num), key
    assert entries[("u", 0, 2)] == (poly((1, {(1, 1): 2})), 1)


def test_prolongation_refuses_the_zeroth_order():
    with pytest.raises(ValueError, match=r"prolongation needs \|J\| >= 1"):
        prolong(sa3_generators()[0], (0, 0))


def test_jet_ring_operators_evaluate_as_their_values():
    # prolonged coefficients with |J| <= 4 as ring elements; the right operand stays read-only
    rng = random.Random(30)
    coefficients = [prolong(g, (j, n - j)) for g in sa3_generators() for n in range(1, 5) for j in range(n + 1)]
    for _ in range(40):
        a, b = Poly(rng.choice(coefficients)), rng.choice(coefficients)
        jet = {(j, k): rand_rational(rng) for j in range(6) for k in range(6 - j)}
        values = {X: rand_rational(rng), Y: rand_rational(rng), **jet}
        va, vb = p_eval(a, values), p_eval(b, values)
        results = {
            "a + b": (a + b, va + vb),
            "a - b": (a - b, va - vb),
            "-a": (-a, -va),
            "a * b": (a * b, va * vb),
            "b * a": (b * a, vb * va),
            "3 * a": (3 * a, 3 * va),
            "a / 3": (a * Fraction(1, 3), va / 3),
        }
        for name, (p, value) in results.items():
            assert isinstance(p, Poly) and all(p.values()), name
            assert p_eval(p, values) == value, name
        assert a - a == {}


def test_deciding_numerators_run_on_the_jet_ring():
    ring = {J: poly((1, {J: 1})) for J in [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (4, 0), (3, 1)]}
    numerators = {f: f(ring) for f in (invariant_H, s_numerator, w_numerator)}
    # the H whose multiples tangency_quotients reads
    assert numerators[invariant_H] == poly((1, {(2, 0): 1, (0, 2): 1}), (-1, {(1, 1): 2}))
    rng = random.Random(31)
    for _ in range(10):
        jet = {J: rand_rational(rng) for J in ring}
        for f, p in numerators.items():
            assert isinstance(p, Poly) and p_eval(p, jet) == f(jet), f.__name__


def test_tangency_quotients_printed():
    assert tangency_quotients() == [
        poly((-4, {})),
        poly((-4, {})),
        {},
        poly((-4, {(1, 0): 1})),
        {},
        poly((-4, {(0, 1): 1})),
    ]


def test_tangency_quotients_refuse_a_field_that_moves_off_the_parabolic_locus(monkeypatch):
    """v(H) is not a multiple of H: the criterion 6 record cannot pass such a field.

    y^2 d/du gives v(H) = 2 u20, with no u02 term; x^2 d/du gives v(H) = 2 u02,
    whose u02-linear terms read off the Laurent quotient 2/u20.  The
    multiply-back check refuses both, naming the field.
    """
    good = prolong_module.jet_generators
    for name, var in (("y2", Y), ("x2", X)):
        bad = vf(name, phi=poly((1, {var: 2})))
        monkeypatch.setattr(prolong_module, "jet_generators", lambda: good() + [bad])
        with pytest.raises(ArithmeticError, match=f"for {name}$"):
            tangency_quotients()


def test_order2_symbolic_determinant():
    assert det_poly_matrix(order2_matrix_symbolic()) == poly((1, {(2, 0): 2}))


def test_order4_symbolic_determinant_vanishes():
    assert det_poly_matrix(order4_matrix_symbolic()) == {}


def test_order4_minors_factor_and_never_vanish_together():
    # the two minors that close the rank argument, with A = S-numerator and
    # B = u20 u31 - u11 u40:
    #   minor(5,6) = -18 u20 A [(3 u20^2 - 5 u10 u30) A + 2 u10 u20 B]
    #   minor(6,6) = -18 u20 A [-5 u30 A + 2 u20 B]
    # and (bracket_2) - u10 (bracket_3) = 3 u20^2 A, which cannot vanish on
    # the domain, so the minors have no common zero there.
    m4 = order4_matrix_symbolic()

    def minor(i, j):
        sub = [[m4[r][c] for c in range(6) if c != j - 1] for r in range(6) if r != i - 1]
        return _split(det_poly_matrix(sub))

    A = poly((1, {(2, 0): 1, (2, 1): 1}), (-1, {(1, 1): 1, (3, 0): 1}))
    B = poly((1, {(2, 0): 1, (3, 1): 1}), (-1, {(1, 1): 1, (4, 0): 1}))
    u20 = poly((1, {(2, 0): 1}))
    u10 = poly((1, {(1, 0): 1}))
    u30 = poly((1, {(3, 0): 1}))

    def times(c, *factors):
        return functools.reduce(operator.mul, factors, poly((c, {})))

    br2 = times(1, poly((3, {(2, 0): 2}), (-5, {(1, 0): 1, (3, 0): 1})), A) + times(2, u10, u20, B)
    br3 = times(-5, u30, A) + times(2, u20, B)
    assert minor(5, 6) == (times(-18, u20, A, br2), 0)
    assert minor(6, 6) == (times(-18, u20, A, br3), 0)
    assert br2 - u10 * br3 == times(3, u20, u20, A)
    # and the printed bracket of the first minor closes the other elimination
    br1_printed = poly(
        (3, {(2, 0): 2, (2, 1): 2}),
        (-1, {(1, 1): 1, (2, 0): 1, (2, 1): 1, (3, 0): 1}),
        (-2, {(1, 1): 2, (3, 0): 2}),
        (-2, {(1, 1): 1, (2, 0): 2, (3, 1): 1}),
        (2, {(1, 1): 2, (2, 0): 1, (4, 0): 1}),
    )
    u11 = poly((1, {(1, 1): 1}))
    assert br1_printed + u11 * br3 == times(3, A, A)


def test_orbit_ranks_at_exact_jets():
    rng = random.Random(13)
    for _ in range(5):
        p = random_parabolic_jet(rng, 6, exact=True, generic_floor=None)
        base = (rand_rational(rng), rand_rational(rng))
        r2 = orbit_rank(2, p, base)
        assert r2["rank"] == 7
        assert r2["det7"] == p.coords[(2, 0)] ** 2
        r3 = orbit_rank(3, p, base)
        assert r3["rank"] == 9
        r4 = orbit_rank(4, p, base)
        assert r4["block_det"] == 0
        assert r4["block_rank"] == 5
        assert r4["rank"] == 10
    for order in (1, 5):
        with pytest.raises(ValueError, match="order must be 2, 3 or 4"):
            orbit_rank(order, p)


def test_sa3_commutator_closure():
    gens = {g.name: g for g in sa3_generators()}
    b = lie_bracket(gens["v7"], gens["v4"])
    # [x du, u dx] = x dx - u du, which is the first scaling generator
    v1 = gens["v1"]
    assert b.xi - v1.xi == {}
    assert b.eta - v1.eta == {}
    assert b.phi - v1.phi == {}
    # and every pairwise bracket stays degree <= 1 (the algebra closes)
    names = ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "w1", "w2", "w3"]
    for n1 in names:
        for n2 in names:
            bb = lie_bracket(gens[n1], gens[n2])
            for comp in (bb.xi, bb.eta, bb.phi):
                for mono in comp:
                    assert sum(e for _, e in mono) <= 1


def _laplace_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def test_rank_det_exact_matches_cofactor_expansion():
    rng = random.Random(48)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        rank, det = rank_det_exact(rows)
        assert det == _laplace_det(rows) and isinstance(det, F)
        assert (rank == n) == (det != 0)
    assert rank_det_exact([]) == (0, 1)
    assert rank_det_exact([[F(0), F(1)], [F(1), F(0)]]) == (2, -1)
    assert rank_det_exact([[F(0), F(1), F(2)], [F(0), F(2), F(4)]]) == (1, 0)
    assert rank_det_exact([[F(1), F(2)], [F(3), F(4)], [F(5), F(7)]]) == (2, 0)
    # wide matrices of full row rank: the elimination stops once every row has a pivot
    assert rank_det_exact([[1, 0, 2, 3, 5], [0, F(1, 2), 1, 7, 9], [4, 4, 0, 0, 1]]) == (3, 0)
    assert rank_det_exact([[F(1, 3), 2, 0]]) == (1, 0)


def test_rank_exact_and_solve():
    rows = [[F(1), F(2)], [F(2), F(4)]]
    assert rank_det_exact(rows) == (1, 0)
    from parajet.prolong import solve_linear_exact

    sol = solve_linear_exact([[F(2), F(1)], [F(1), F(3)]], [F(4), F(7)])
    assert sol == [F(1), F(2)]


def test_solve_linear_exact_solves_every_right_side_in_one_elimination():
    # each column sees the pivots and the operations it would see alone: Fractions, floats and Sens keep their bits
    from parajet.prolong import solve_linear_exact
    from parajet.scalars import Sens

    import reference

    rng = random.Random(31)
    draws = {
        "exact": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        "float": lambda: rng.uniform(-3, 3),
        "sens": lambda: Sens(rng.uniform(-3, 3), {"a": rng.uniform(-1, 1), "b": rng.uniform(-1, 1)}),
    }
    for draw in draws.values():
        for n in (1, 3, 6):
            a = [[draw() for _ in range(n)] for _ in range(n)]
            rhs = [[draw() for _ in range(n)] for _ in range(3)]
            together = solve_linear_exact(a, rhs)
            assert len(together) == 3
            for b, x in zip(rhs, together, strict=True):
                reference.assert_same(tuple(x), tuple(solve_linear_exact(a, b)), partial_order=True)


def test_solve_linear_exact_refuses_a_singular_system():
    # the fraction-free elimination and the pivot-by-value loop refuse alike
    from parajet.prolong import solve_linear_exact

    for kind in (F, float):
        with pytest.raises(ZeroDivisionError, match="singular linear system"):
            solve_linear_exact([[kind(1), kind(2)], [kind(2), kind(4)]], [kind(1), kind(2)])


@pytest.mark.parametrize(
    "a",
    [[[1, 0, 5], [0, 1, 7]], [[1, 0], [0, 1], [1, 1]], [[1, 0]]],
    ids=["extra column", "extra row", "missing row"],
)
def test_solve_linear_exact_rejects_a_non_square_system(a):
    from parajet.prolong import solve_linear_exact

    with pytest.raises(ValueError):
        solve_linear_exact(a, [2, 3])


_GRID = 2**128  # the normal forms' snapping grid


def _exact_draws(rng):
    """Entry draws: ints, Fractions, an int/Fraction mix and normal-form-sized denominators (2^128 and long odd)."""
    small = lambda: F(rng.randint(-9, 9), rng.randint(1, 9))
    return {
        "int": lambda: rng.randint(-9, 9),
        "fraction": small,
        "mixed": lambda: rng.choice((rng.randint(-9, 9), small())),
        "normal-form": lambda: F(rng.randint(-_GRID, _GRID), rng.choice((_GRID, rng.randrange(1, _GRID, 2)))),
    }


def _deficient(rng, draw, nrows, ncols, rank):
    """nrows x ncols rows of rank ``rank``: independent draws, the rest combinations of them, shuffled."""
    free = [[draw() for _ in range(ncols)] for _ in range(rank)]
    rows = list(free)
    for _ in range(nrows - rank):
        w = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in free]
        rows.append([sum((wi * r[c] for wi, r in zip(w, free)), F(0)) for c in range(ncols)])
    rng.shuffle(rows)
    return rows


def test_exact_linear_algebra_equals_the_fraction_reference():
    import reference
    from parajet.prolong import solve_linear_exact

    rng = random.Random(35)
    for kind, draw in _exact_draws(rng).items():
        matrices = [[], [[0]], [[draw() or 1]], [[0, 0], [0, 0]]]
        for _ in range(12):
            n = rng.randint(1, 6)
            matrices.append([[draw() for _ in range(n)] for _ in range(n)])  # square
            nrows, ncols = rng.sample(range(1, 8), 2)
            matrices.append([[draw() for _ in range(ncols)] for _ in range(nrows)])  # wide or tall
            rank = rng.randint(0, min(nrows, ncols))
            matrices.append(_deficient(rng, draw, nrows, ncols, rank))
            square = _deficient(rng, draw, n, n, rng.randint(0, n))
            square[rng.randrange(n)] = [0] * n  # a zero row
            matrices.append(square)
            c = rng.randrange(n)
            matrices.append([[0 if j == c else draw() for j in range(n)] for _ in range(n)])  # a zero column
        for rows in matrices:
            got = rank_det_exact(rows)
            assert got == reference.rank_det(rows) and isinstance(got[1], F), (kind, rows)
            if rows and len(rows) == len(rows[0]):
                n = len(rows)
                rhs = [[draw() for _ in range(n)] for _ in range(rng.randint(1, 3))]
                if got[0] < n:
                    for b in (rhs, rhs[0]):
                        with pytest.raises(ZeroDivisionError, match="^singular linear system$"):
                            solve_linear_exact(rows, b)
                    with pytest.raises(ZeroDivisionError, match="^singular linear system$"):
                        reference.solve_linear(rows, rhs)
                    continue
                want = reference.solve_linear(rows, rhs)
                together, alone = solve_linear_exact(rows, rhs), solve_linear_exact(rows, rhs[0])
                assert together == want and alone == want[0], (kind, rows, rhs)
                assert all(type(x) is F for x in alone + [x for xs in together for x in xs])
    # the rank-deficient draws reach the rank they were built with
    draw = _exact_draws(rng)["normal-form"]
    for rank in range(5):
        assert rank_det_exact(_deficient(rng, draw, 5, 4, rank))[0] == rank


@pytest.mark.parametrize("kind", ["int", "mixed", "normal-form"])
def test_an_exact_system_solves_to_fractions(kind):
    # int / int true division used to turn an all-int system into floats
    from parajet.prolong import solve_linear_exact

    assert solve_linear_exact([[2, 1], [1, 3]], [1, 2]) == [F(1, 5), F(3, 5)]
    rng = random.Random(36)
    draw = _exact_draws(rng)[kind]
    for n in (1, 2, 4, 6):
        a = [[draw() for _ in range(n)] for _ in range(n)]
        if rank_det_exact(a)[0] < n:
            continue
        b = [draw() for _ in range(n)]
        x = solve_linear_exact(a, b)
        assert all(type(v) is F for v in x)
        assert [sum((a[i][j] * x[j] for j in range(n)), F(0)) for i in range(n)] == b


def test_filled_jet_rows_equal_pushforward_rows():
    # the numeric routes evaluate prolonged generators at the filled jet; the
    # symbolic push-forward to the rank-one locus is their reference
    rng = random.Random(47)
    for _ in range(3):
        p = random_parabolic_jet(rng, 5, exact=True, generic_floor=None)
        values = {X: rand_rational(rng), Y: rand_rational(rng), **p.filled(p.order)}
        assert all(isinstance(v, Fraction) for v in values.values())
        for g in sa3_generators():
            for n in range(1, 5):
                for j in range(n + 1):
                    phi = prolong(g, (j, n - j))
                    num, m = parabolic_pushforward(phi)
                    assert p_eval(phi, values) == p_eval(num, values) / values[(2, 0)] ** m


def test_cached_prolongations_equal_fresh_ones_for_every_family():
    # the families reuse the names v1, v2, ...: every family is prolonged before any is compared
    families = [sa3_generators(), sl2_curve_generators(), gl2_curve_generators()]
    Js = [(j, n - j) for n in range(1, 9) for j in range(n + 1)]
    cached = [[[prolong(g, J) for J in Js] for g in gens] for gens in families]
    for gens, rows in zip(families, cached):
        for g, row in zip(gens, rows):
            for J, phi in zip(Js, row):
                assert phi == _prolong(g, J), (g.name, J)
                assert prolong(g, J) is phi
    assert cached[2][0][0] != cached[0][0][0]  # gl2's v1 = x d/dx is not sa3's v1
    with pytest.raises(TypeError):
        cached[0][0][0][()] = Fraction(1)
