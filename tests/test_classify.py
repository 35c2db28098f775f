import dataclasses
import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parajet.classify import (
    Cone,
    Cylinder,
    Graph,
    MixedTypeError,
    Tangential,
    _grid_zero,
    _tail_only,
    classify,
    realize_graph,
)
from parajet.invariants import invariant_W_cubed, s_numerator, swap_axes, w_numerator
from parajet.jets import DerivativeView, ParabolicJet, jets_of_series, realize_series
from parajet.scalars import scalar_from_string, to_float
from parajet.series import AffineTransform3, Poly2, TruncatedSeries1, TruncatedSeries2

import reference
from reference import from_monomials1

F = Fraction


def test_cone_coefficient_table():
    c = TruncatedSeries1(6, {2: F(1, 2), 3: F(-1, 3), 4: F(1, 5), 5: F(2, 7), 6: F(-3, 4)})
    g = realize_graph(Cone(c), 6)
    assert g[(1, 0)] == 0 and g[(0, 1)] == 0
    assert g[(2, 0)] == c[2] and g[(1, 1)] == 0 and g[(0, 2)] == 0
    assert g[(3, 0)] == c[3] and g[(2, 1)] == c[2]
    assert g[(4, 0)] == c[4] and g[(3, 1)] == 2 * c[3] and g[(2, 2)] == 2 * c[2]
    assert all(g[(0, k)] == 0 for k in range(7))
    assert all(g[(1, k)] == 0 for k in range(6))


def test_cone_model_from_quadratic_directrix():
    g = realize_graph(Cone(TruncatedSeries1(8, {2: F(1)})), 8)
    assert g == reference.cone_model(8)


def test_tangential_coefficient_table():
    a = TruncatedSeries1(7, {2: F(-1), 3: F(1, 2), 4: F(1, 3), 5: F(-2, 5), 6: F(1, 2), 7: F(1)})
    c = TruncatedSeries1(7, {2: F(1, 4), 3: F(1, 6), 4: F(-1, 2), 5: F(1, 7), 6: F(2, 3), 7: F(-1)})
    g = realize_graph(Tangential(a, c), 7)
    assert g[(1, 0)] == c[2] / a[2]
    assert g[(0, 1)] == 0
    assert g[(2, 0)] == (-a[3] * c[2] + a[2] * c[3]) / a[2] ** 3
    assert g[(1, 1)] == 0 and g[(0, 2)] == 0
    assert g[(2, 1)] == (a[3] * c[2] - a[2] * c[3]) / a[2] ** 3
    assert g[(2, 2)] == 2 * (-a[3] * c[2] + a[2] * c[3]) / a[2] ** 3


def test_cylinder_realization_trivial():
    prof = from_monomials1(5, {2: F(1)})
    g = realize_graph(Cylinder(prof), 5)
    assert g == TruncatedSeries2(5, {(2, 0): F(2)})


def test_classify_fixture_surfaces():
    # u = x^2 - x^3 (cylinder), u = x^2/(2 - 2y) (cone), tangents of
    # (t^2/2, t, t^3/6) (tangential)
    cyl = classify(TruncatedSeries2(6, {(2, 0): F(2), (3, 0): F(-6)}))
    assert cyl.point_type == "parabolic" and cyl.developable_kind == "cylinder"
    halfcone = TruncatedSeries2(7, {(2, k): F(math.factorial(k), 2**k) for k in range(6)})
    got = classify(halfcone)
    assert got.developable_kind == "cone"
    tang = realize_graph(
        Tangential(TruncatedSeries1(6, {2: F(1)}), TruncatedSeries1(6, {3: F(1)})), 6
    )
    got = classify(tang)
    assert got.developable_kind == "tangential"


def test_classify_nondegenerate_and_flat():
    el = classify(TruncatedSeries2(4, {(2, 0): F(1), (0, 2): F(1)}))
    assert el.point_type == "elliptic" and el.developable_kind is None
    hy = classify(TruncatedSeries2(4, {(2, 0): F(1), (0, 2): F(-1)}))
    assert hy.point_type == "hyperbolic"
    fl = classify(TruncatedSeries2(4, {(1, 0): F(1)}))
    assert fl.point_type == "flat"


def _draw_family(kind, rng, n=8):
    """An exact family of the given kind at order n with coefficients k/12, redrawn until it clears the floors."""

    def rnd():
        return F(rng.randint(-24, 24), 12)

    while True:
        if kind == "cylinder":
            prof = TruncatedSeries1(n, {i: rnd() for i in range(2, n + 1)})
            if abs(prof[2]) >= F(1, 4):
                return Cylinder(prof)
        elif kind == "cone":
            cs = {i: rnd() for i in range(2, n + 1)}
            if abs(cs[2]) >= F(1, 4):
                return Cone(TruncatedSeries1(n, cs))
        else:
            avs = {i: rnd() for i in range(2, n + 1)}
            cvs = {i: rnd() for i in range(2, n + 1)}
            if abs(avs[2]) >= F(1, 4) and abs(avs[3] * cvs[2] - avs[2] * cvs[3]) >= F(1, 6):
                return Tangential(TruncatedSeries1(n, avs), TruncatedSeries1(n, cvs))


def test_classify_roundtrip_families():
    rng = random.Random(44)
    for kind in ("cylinder", "cone", "tangential"):
        for _ in range(10):
            assert classify(realize_graph(_draw_family(kind, rng), 8)).developable_kind == kind


SWAPPED_FAMILIES = [
    Cylinder(TruncatedSeries1(8, {2: F(1), 3: F(-1, 2), 5: F(2, 3)})),
    Cone(TruncatedSeries1(8, {2: F(1, 2), 3: F(-1, 3), 4: F(1, 5)})),
    Tangential(TruncatedSeries1(8, {2: F(1), 4: F(1, 3)}), TruncatedSeries1(8, {3: F(1)})),
]


@pytest.mark.parametrize("fam", SWAPPED_FAMILIES, ids=lambda fam: fam.kind)
def test_axis_swapped_families_classify_as_their_kind(fam):
    g = realize_graph(fam, 8)
    swapped = TruncatedSeries2(8, swap_axes(g.coeffs))
    assert swapped[(2, 0)] == 0
    assert classify(swapped).developable_kind == fam.kind


@pytest.mark.parametrize("fam", SWAPPED_FAMILIES, ids=lambda fam: fam.kind)
def test_axis_swapped_family_is_classified_in_one_pass(monkeypatch, fam):
    # the swap is decided on the base jet, before the numerator polynomials; the exact grid tests
    # are decided without the grid jets, so no point is shifted
    swapped = TruncatedSeries2(8, swap_axes(realize_graph(fam, 8).coeffs))
    calls = {"from_series": 0, "shift": 0}
    from_series, shift = Poly2.from_series, TruncatedSeries2.shift

    def counted_from_series(F):
        calls["from_series"] += 1
        return from_series(F)

    def counted_shift(self, hx, hy, **kw):
        calls["shift"] += 1
        return shift(self, hx, hy, **kw)

    monkeypatch.setattr(Poly2, "from_series", counted_from_series)
    monkeypatch.setattr(TruncatedSeries2, "shift", counted_shift)
    assert classify(swapped).developable_kind == fam.kind
    assert calls == {"from_series": 1, "shift": 0}


def test_elliptic_graph_multiplies_only_the_hessian(monkeypatch):
    # the slope and fourth-order numerators are built only once the point is parabolic
    rng = random.Random(3)
    coeffs = {(j, k): F(rng.randint(-9, 9), 100) for j in range(9) for k in range(9 - j)}
    coeffs.update({(2, 0): F(1), (1, 1): F(0), (0, 2): F(1)})
    calls = []
    times = Poly2.__mul__

    def counted_times(self, other):
        calls.append(1)
        return times(self, other)

    monkeypatch.setattr(Poly2, "__mul__", counted_times)
    assert classify(TruncatedSeries2(8, coeffs)).point_type == "elliptic"
    assert len(calls) == 2


@pytest.mark.parametrize(
    "fam, exact",
    [
        (Cylinder(TruncatedSeries1(8, {2: F(1), 3: F(-1, 2), 5: F(2, 3)})), True),
        (Cone(TruncatedSeries1(8, {2: F(1, 2), 3: F(-1, 3), 4: F(1, 5)})), True),
        (Cone(TruncatedSeries1(8, {2: 0.5, 3: -1 / 3, 4: 0.2})), False),
    ],
    ids=["exact-cylinder", "exact-cone", "float-cone"],
)
def test_exact_cylinders_and_cones_build_no_uncapped_numerator(monkeypatch, fam, exact):
    # an exact numerator whose low part is exactly zero passes every grid test, so neither
    # the full Hessian nor the full S (cylinder) or W (cone) polynomial is multiplied out;
    # float input still builds them for its grid tests
    g = realize_graph(fam, 8)
    uncapped = []
    times = Poly2.__mul__

    def counted_times(self, other):
        if self.cap is None:
            uncapped.append(1)
        return times(self, other)

    monkeypatch.setattr(Poly2, "__mul__", counted_times)
    assert classify(g).developable_kind == fam.kind
    assert (len(uncapped) == 0) == exact


def test_cone_w_numerator_vanishes_exactly():
    rng = random.Random(45)
    for _ in range(10):
        cs = {i: F(rng.randint(-24, 24), 12) for i in range(2, 9)}
        if abs(cs[2]) < F(1, 4):
            continue
        g = realize_graph(Cone(TruncatedSeries1(8, cs)), 8)
        assert w_numerator(jets_of_series(g).values) == 0


def test_tangential_w_closed_form_exact():
    rng = random.Random(46)
    for _ in range(10):
        avs = {i: F(rng.randint(-24, 24), 12) for i in range(2, 9)}
        cvs = {i: F(rng.randint(-24, 24), 12) for i in range(2, 9)}
        if abs(avs[2]) < F(1, 4) or avs[3] * cvs[2] - avs[2] * cvs[3] == 0:
            continue
        g = realize_graph(Tangential(TruncatedSeries1(8, avs), TruncatedSeries1(8, cvs)), 8)
        assert invariant_W_cubed(jets_of_series(g).values) == 1 / (avs[3] * cvs[2] - avs[2] * cvs[3])


def test_degenerate_families_rejected():
    with pytest.raises(ValueError):
        Cone(TruncatedSeries1(4, {3: F(1)}))
    with pytest.raises(ValueError):
        Cone(TruncatedSeries1(4, {1: F(1), 2: F(1)}))
    with pytest.raises(ValueError):
        Tangential(TruncatedSeries1(4, {3: F(1)}), TruncatedSeries1(4, {2: F(1)}))
    with pytest.raises(ValueError, match="must vanish to first order"):
        Tangential(TruncatedSeries1(4, {2: F(1)}), TruncatedSeries1(4, {1: F(1), 2: F(1)}))


def test_realize_graph_passes_a_graph_through_and_refuses_a_non_family():
    g = TruncatedSeries2(4, {(2, 0): F(1), (0, 3): F(1, 2)})
    assert realize_graph(Graph(g), 4) is g
    with pytest.raises(TypeError, match="not a surface family"):
        realize_graph(g, 4)


@pytest.mark.parametrize(
    "F, where",
    [
        # the realized cone graph holds inf at (3, 1)-(3, 3)
        pytest.param(
            realize_graph(Cone(TruncatedSeries1(6, {2: 1e308, 3: 1e308})), 6), "series coefficient (3, 1) is inf", id="series"
        ),
        # a finite series whose shift to the first grid point leaves the float range
        pytest.param(
            TruncatedSeries2(4, {(2, 0): 1.0, (1, 1): 1.0, (0, 2): 1.0, (3, 0): 1.7e308, (4, 0): 1.7e308}),
            "jet at (1/8, 0)",
            id="grid-jet",
        ),
    ],
)
def test_non_finite_series_or_grid_jets_raise_overflow(F, where):
    with pytest.raises(OverflowError, match=re.escape(where)):
        classify(F)


def test_mixed_type_reported():
    # parabolic at the origin, elliptic nearby: x^2/2 + x^2 y^2 (H = 2 x^2 y ... )
    f = TruncatedSeries2(6, {(2, 0): F(1), (2, 2): F(4)})
    with pytest.raises(MixedTypeError):
        classify(f)


def _rank_one_graph(n, **coords):
    """The graph realizing the rank-one jet with u_20 = 1 and the given u_jk (named "ujk"), all else 0."""
    jet = {(0, 0): 0, **{(j, 0): 0 for j in range(1, n + 1)}, **{(j, 1): 0 for j in range(n)}, (2, 0): 1}
    jet.update({(int(name[1]), int(name[2])): v for name, v in coords.items()})
    return realize_series(ParabolicJet(n, jet))


TINY = F(1, 10**7)  # inside the jet criterion's window of 1e3 tol, a hundred times the grid test's tol


@pytest.mark.parametrize(
    "graph, points, message",
    [
        # H = x - y^2 vanishes at a grid of the base point alone, but not as a jet
        pytest.param(
            TruncatedSeries2(4, {(2, 0): F(1), (1, 2): F(1)}),
            [(0, 0)],
            "Hessian vanishes on the grid but not as a jet",
            id="h-grid",
        ),
        # S = u20 u21 = 1e-7 at the origin: a jet zero, but the grid value there has no tail to hide in
        pytest.param(
            _rank_one_graph(4, u21=TINY), None, "slope invariant vanishes as a jet but not across the grid", id="s-grid"
        ),
        # S(0) = 0 but S_x = u20 u31 = 1
        pytest.param(
            _rank_one_graph(4, u31=1),
            None,
            "slope invariant vanishes at the base point but not identically",
            id="s-base",
        ),
        # S(0) = 1; W = u20^2 u31 = 1e-7 at the origin
        pytest.param(
            _rank_one_graph(4, u21=1, u31=TINY),
            None,
            "fourth-order invariant vanishes as a jet but not across the grid",
            id="w-grid",
        ),
        # S(0) = 1, W(0) = 0 but W_x = u20^2 u41 = 1
        pytest.param(
            _rank_one_graph(5, u21=1, u41=1),
            None,
            "fourth-order invariant vanishes at the base point but not identically",
            id="w-base",
        ),
    ],
)
def test_the_jet_and_grid_criteria_report_their_disagreements(graph, points, message):
    with pytest.raises(MixedTypeError, match=f"^{message}$"):
        classify(graph, sample_points=points)


_KERNEL_VALUES = {
    True: st.fractions(min_value=-3, max_value=3, max_denominator=12),
    # magnitudes above 1e-3, so that no product nears the subnormal range
    False: st.one_of(st.floats(1e-3, 3), st.floats(-3, -1e-3)),
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(4, 10), exact=st.booleans(), data=st.data())
def test_capped_numerators_are_the_low_part_of_the_full_ones(n, exact, data):
    values = _KERNEL_VALUES[exact]
    keys = [(j, k) for j in range(n + 1) for k in range(n + 1 - j)]
    F2 = TruncatedSeries2(n, {jk: data.draw(st.one_of(st.just(0), values)) for jk in keys})
    P = Poly2.from_series(F2)
    for numerator, cap in ((s_numerator, n - 1), (w_numerator, n - 2)):
        full, capped = numerator(DerivativeView(P)), numerator(DerivativeView(P.capped(cap)))
        assert capped.den == full.den
        reference.assert_same(capped.terms, {jk: v for jk, v in full.terms.items() if sum(jk) <= cap})


def test_cone_fifth_invariant_is_the_monge_expression():
    # at the marked point of a realized cone, the fifth-order invariant equals
    # (9 c2^2 c5 - 45 c2 c3 c4 + 40 c3^3) / (9 c2^4), exactly on rationals
    import random

    from parajet.invariants import invariant_X
    from parajet.normalize import normalize_parabolic_surface

    rng = random.Random(47)
    for _ in range(5):
        cs = {i: F(rng.randint(-24, 24), 12) for i in range(2, 9)}
        if abs(cs[2]) < F(1, 4):
            continue
        g = realize_graph(Cone(TruncatedSeries1(8, cs)), 8)
        c2, c3, c4, c5 = cs[2], cs[3], cs[4], cs[5]
        monge = (9 * c2**2 * c5 - 45 * c2 * c3 * c4 + 40 * c3**3) / (9 * c2**4)
        assert invariant_X(jets_of_series(g).values) == monge
        res = normalize_parabolic_surface(g)
        from parajet.scalars import to_float

        assert abs(to_float(res.readings["X"]) - to_float(monge)) <= 1e-9 * (1 + abs(to_float(monge)))


# -- the graph realization against the reference substitute-and-solve and composition --


def _graph_by_reference(fam, n):
    """F with F(x, y) = u: t over (x, y) by the reference apply_affine on the swapped axes of x(t, v), then u(t, v).

    Cone: x = t - t v, y = v, u = c - c v.  Tangent surface: x = a + a' + a' w, y = t + w, u = c + c' + c' w.
    """
    if isinstance(fam, Cone):
        c = reference.monomial(fam.directrix.y_free())
        x, k1, k2 = {(1, 0): F(1), (1, 1): F(-1)}, F(0), F(1)
        u = reference.add(c, {(j, 1): -cv for (j, _), cv in c.items()})
    else:
        a, c, ap, cp = (reference.monomial(s.y_free()) for s in (fam.a, fam.c, fam.a.derivative(), fam.c.derivative()))
        x, k1, k2 = reference.add(reference.add(a, ap), {(j, 1): v for (j, _), v in ap.items()}), F(1), F(1)
        u = reference.add(reference.add(c, cp), {(j, 1): v for (j, _), v in cp.items()})
    swap = AffineTransform3(a=0, c=1, l=1 / k2, m=-k1 / k2, p=1, r=0)
    t = reference.monomial(reference.apply_affine(reference.from_monomials2(n, x), swap))
    v = reference.add({(0, 1): 1 / k2}, {key: -k1 / k2 * cv for key, cv in t.items()})
    return reference.from_monomials2(n, reference.compose(u, [t, v], n))


def _seeded_families(order, exact=True):
    """Two cone and two tangential families per seed and order, plus the README cone."""
    rng = random.Random(1000 + order)
    conv = (lambda v: v) if exact else float

    def draw():
        while True:
            cs = {i: F(rng.randint(-24, 24), 12) for i in range(2, order + 1)}
            ds = {i: F(rng.randint(-24, 24), 12) for i in range(2, order + 1)}
            if abs(cs[2]) >= F(1, 4):
                return (
                    TruncatedSeries1(order, {i: conv(v) for i, v in cs.items()}),
                    TruncatedSeries1(order, {i: conv(v) for i, v in ds.items()}),
                )

    readme = TruncatedSeries1(3, {2: conv(F(1, 2)), 3: conv(F(-1, 3))})
    fams = [Cone(readme)]
    for _ in range(2):
        fams.append(Cone(draw()[0]))
        fams.append(Tangential(*draw()))
    return fams


@pytest.mark.parametrize("order", range(2, 11))
def test_realize_graph_equals_graded_inversion_exactly(order):
    for fam in _seeded_families(order):
        reference.assert_same(realize_graph(fam, order), _graph_by_reference(fam, order))


@pytest.mark.parametrize("order", range(2, 11))
def test_realize_graph_float_families_match_graded_inversion(order):
    for fam in _seeded_families(order, exact=False):
        got, ref = realize_graph(fam, order), _graph_by_reference(fam, order)
        scale = max(abs(c) for c in ref.coeffs.values())
        assert all(isinstance(c, float) for c in got.coeffs.values())
        for jk in set(got.coeffs) | set(ref.coeffs):
            assert abs(got[jk] - ref[jk]) <= 1e-12 * scale, (jk, got[jk], ref[jk])


def test_realize_graph_rejects_singular_parametrization():
    with pytest.raises(ValueError, match="singular linear part"):
        realize_graph(Cone(TruncatedSeries1(2, {2: F(1)})), 0)


def _float_family(fam):
    """The family with every coefficient converted by float()."""
    fl = lambda s: TruncatedSeries1(s.order, {i: float(c) for i, c in s.coeffs.items()})
    return type(fam)(*(fl(getattr(fam, f.name)) for f in dataclasses.fields(fam)))


SHIFT_FAMILIES = {
    "cylinder": Cylinder(TruncatedSeries1(8, {2: F(1), 3: F(-1, 2), 5: F(2, 3)})),
    "cone": Cone(TruncatedSeries1(3, {2: F(1, 2), 3: F(-1, 3)})),
    "tangential": Tangential(TruncatedSeries1(8, {2: F(1)}), TruncatedSeries1(8, {3: F(1)})),
}


def _counted_shifts(monkeypatch) -> list:
    shifts = []
    plain = TruncatedSeries2.shift

    def counted(self, hx, hy, **kw):
        shifts.append((hx, hy))
        return plain(self, hx, hy, **kw)

    monkeypatch.setattr(TruncatedSeries2, "shift", counted)
    return shifts


def test_exact_families_decided_without_the_grid_jets_shift_no_point(monkeypatch):
    shifts = _counted_shifts(monkeypatch)
    h = F(1, 8)
    for kind, fam in SHIFT_FAMILIES.items():
        g = realize_graph(fam, 8)
        assert classify(g).developable_kind == kind
        assert classify(g, sample_points=[(h, h), (-h, 0)]).developable_kind == kind
    assert shifts == []


def test_classify_shifts_once_per_non_origin_point(monkeypatch):
    # the grid jets are shifted once per point when a grid test reads them: every grid test of a float
    # family, and the Hessian one of an exact graph whose Hessian has a low part
    shifts = _counted_shifts(monkeypatch)
    h = F(1, 8)
    for kind, fam in SHIFT_FAMILIES.items():
        g = realize_graph(_float_family(fam), 8)
        shifts.clear()
        assert classify(g).developable_kind == kind
        assert sorted(shifts) == sorted([(h, 0), (0, h), (-h, h), (h, -h)])
        shifts.clear()
        assert classify(g, sample_points=[(h, h), (-h, 0)]).developable_kind == kind
        assert sorted(shifts) == sorted([(h, h), (-h, 0)])
    # H = 1 + x: elliptic at every point
    shifts.clear()
    assert classify(TruncatedSeries2(6, {(2, 0): F(1), (0, 2): F(1), (3, 0): F(1)})).point_type == "elliptic"
    assert sorted(shifts) == sorted([(h, 0), (0, h), (-h, h), (h, -h)])
    # H = x - y^2: the parabolic base point meets elliptic grid points
    shifts.clear()
    with pytest.raises(MixedTypeError, match=re.escape("['parabolic', 'elliptic', 'elliptic']")):
        classify(TruncatedSeries2(6, {(2, 0): F(1), (1, 2): F(1)}), sample_points=[(0, 0), (h, h), (h, 0)])
    assert sorted(shifts) == sorted([(h, h), (h, 0)])


def test_the_exact_flat_test_reads_the_second_derivatives_of_the_shifted_jets(monkeypatch):
    # exact F at exact points takes u_xx, u_xy and u_yy off the derivative polynomials: the values the
    # shifted jets hold, at the default points and at custom ones, on the axis-swapped points too
    rng, h = random.Random(32), F(1, 8)
    points = [[(0, 0), (h, 0), (0, h), (-h, h), (h, -h)], [(F(1, 5), F(-1, 7)), (F(-2, 9), 0), (0, 0)]]
    for kind in ("cylinder", "cone", "tangential"):
        for _ in range(3):
            g = realize_graph(_draw_family(kind, rng), 8)
            G = DerivativeView(Poly2.from_series(g))
            for pt in points[0] + points[1] + [(-y, x) for x, y in points[0] + points[1]]:
                jet = g.shift(*pt, upto=4)
                for jk in ((2, 0), (1, 1), (0, 2)):
                    assert G[jk].eval(*pt) == jet[jk], (kind, pt, jk)
            for pts in points:
                assert classify(g, sample_points=pts).developable_kind == kind
    # u = x^2/2 - 4x^3/3, a cylinder with u_xx = 1 - 8x, is flat at (h, 0) only; u = x^3/6 + x^2 y/2 has
    # u_xx = x + y, u_xy = x and H = -x^2, and is flat at the origin only
    mixed = [
        ({(2, 0): F(1), (3, 0): F(-8)}, [(0, 0), (h, 0), (0, h)], "'parabolic', 'flat', 'parabolic'"),
        ({(3, 0): F(1), (2, 1): F(1)}, None, "'flat', 'hyperbolic', 'parabolic', 'hyperbolic', 'hyperbolic'"),
    ]
    for coeffs, pts, types in mixed:
        with pytest.raises(MixedTypeError) as err:
            classify(TruncatedSeries2(6, coeffs), sample_points=pts)
        assert str(err.value) == f"inconsistent point types across samples: [{types}]"
    # float sample points still read the shifted jets
    shifts = _counted_shifts(monkeypatch)
    g = realize_graph(SHIFT_FAMILIES["cone"], 8)
    assert classify(g, sample_points=[(0, 0), (0.125, 0.0), (-0.125, 0.125)]).developable_kind == "cone"
    assert sorted(shifts) == sorted([(0.125, 0.0), (-0.125, 0.125)])


def test_the_hessian_witness_is_read_at_the_base_point():
    # u = x^2/2 + y^2/2 + x^3/6 has H = 1 + x: 1 at the base point, 9/8 at (1/8, 1/8)
    h = F(1, 8)
    got = classify(TruncatedSeries2(4, {(2, 0): F(1), (0, 2): F(1), (3, 0): F(1)}), sample_points=[(h, h), (-h, 0)])
    assert got.point_type == "elliptic" and got.witnesses == {"H": 1}


def test_classify_needs_a_sample_point():
    with pytest.raises(ValueError, match="^classification needs at least one sample point$"):
        classify(TruncatedSeries2(4, {(2, 0): F(1), (0, 2): F(1)}), sample_points=[])


def test_classify_needs_order_2_and_order_4_when_parabolic():
    with pytest.raises(ValueError, match="order >= 2, got 1"):
        classify(TruncatedSeries2(1, {(1, 0): F(1)}))
    for n in (2, 3):
        with pytest.raises(ValueError, match=f"order >= 4, got {n}"):
            classify(realize_graph(Cone(TruncatedSeries1(n, {2: F(1)})), n))
    assert classify(TruncatedSeries2(2, {(2, 0): F(1), (0, 2): F(1)})).point_type == "elliptic"


def _coefficient_list(values):
    """A coefficient list parsed as ``parajet classify`` parses one: fractions stay exact, decimals are floats."""
    return TruncatedSeries1(len(values) - 1, {i: scalar_from_string(str(v)) for i, v in enumerate(values)})


@pytest.mark.parametrize(
    "family, exact, decimal",
    [
        (Cone, [[0, 0, "1/2", "-1/3", "1/5"]], [[0, 0, 0.5, -0.3333333333333333, 0.2]]),
        (Cylinder, [[0, 0, "1/2", "-1/3", "1/5"]], [[0, 0, 0.5, -0.3333333333333333, 0.2]]),
        (
            Tangential,
            [[0, 0, 1, "1/2", "1/4"], [0, 0, "1/2", 1, "-3/4"]],
            [[0, 0, 1, 0.5, 0.25], [0, 0, 0.5, 1, -0.75]],
        ),
    ],
    ids=["cone", "cylinder", "tangential"],
)
def test_decimal_families_classify_as_their_fraction_twins(family, exact, decimal):
    # the decimal families of the CI console step, at order 8: the float arithmetic of
    # the numerator polynomials gives the fraction twin's kind and its witnesses to 1e-12
    twin = classify(realize_graph(family(*map(_coefficient_list, exact)), 8))
    got = classify(realize_graph(family(*map(_coefficient_list, decimal)), 8))
    assert got.developable_kind == twin.developable_kind == family.kind
    assert isinstance(got.witnesses["S"], float) and set(got.witnesses) == set(twin.witnesses)
    for name, w in twin.witnesses.items():
        a, b = to_float(got.witnesses[name]), to_float(w)
        assert abs(a - b) <= 1e-12 * abs(b), (name, a, b)


def _outcome(graph, points):
    """The classification as JSON, or the refusal as its type and text."""
    try:
        return json.dumps(classify(graph, sample_points=points).to_dict())
    except Exception as e:
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("kind", ["cylinder", "cone", "tangential"])
def test_skipping_the_grid_tests_an_exact_tail_passes_changes_no_classification(monkeypatch, kind, n):
    # exact families, also axis-swapped, on the default grid and on one without the base
    # point, also with one coefficient of degree >= 4 moved by 1e-12 (a small nonzero low part):
    # each classifies as it does with every grid test run
    rng = random.Random(100 * n + len(kind))
    h = F(1, 16)
    module = sys.modules[classify.__module__]
    fired = []

    def recorded_tail_only(num, low, tol):
        fired.append(_tail_only(num, low, tol))
        return fired[-1]

    for _ in range(2):
        g = realize_graph(_draw_family(kind, rng, n), n)
        moved = dict(g.coeffs)
        key = rng.choice([(j, k) for j in range(n + 1) for k in range(n + 1 - j) if j + k >= 4])
        moved[key] = moved.get(key, 0) + F(1, 10**12)
        for coeffs in (g.coeffs, moved):
            for graph in (TruncatedSeries2(n, coeffs), TruncatedSeries2(n, swap_axes(coeffs))):
                for points in (None, [(h, 0), (0, -h), (-h, h)]):
                    monkeypatch.setattr(module, "_tail_only", recorded_tail_only)
                    shipped = _outcome(graph, points)
                    monkeypatch.setattr(module, "_tail_only", lambda num, low, tol: False)
                    assert shipped == _outcome(graph, points), (kind, n, key, points)
    assert any(fired)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(low=st.integers(0, 6), data=st.data())
def test_an_exact_numerator_without_a_low_part_passes_every_grid_test(low, data):
    keys = [(j, k) for j in range(low + 9) for k in range(low + 9 - j) if j + k > low]
    terms = data.draw(
        st.dictionaries(st.sampled_from(keys), st.integers(-(10**6), 10**6).filter(bool), min_size=1, max_size=12)
    )
    num = Poly2(terms, data.draw(st.integers(1, 10**6)))
    assert _tail_only(num, low, 1e-9) and not _tail_only(num, low, 0.0)
    coord = st.one_of(st.fractions(-2, 2, max_denominator=64), st.floats(-2, 2))
    for pt in data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=5)):
        assert _grid_zero(num, num.magnitudes(), low, pt, 1e-9, ())
    # one term at or below the low degree, and the grid tests must run
    j = data.draw(st.integers(0, low))
    assert not _tail_only(Poly2({**terms, (j, low - j): 1}, num.den), low, 1e-9)


def test_an_exact_cone_with_a_tail_past_the_float_range_classifies():
    # its full Hessian and W polynomials have coefficients past 1.8e308, which the
    # grid test's float envelope cannot hold; their low parts are exactly zero
    g = realize_graph(Cone(TruncatedSeries1(8, {2: F(1, 2), 3: F(-1, 3), 7: F(10**150)})), 8)
    assert classify(g).developable_kind == "cone"


def test_an_exact_hessian_past_the_float_range_is_refused_by_name():
    # u = x^2 + y^2 + 10^160 (x^8 + y^8) is elliptic; its Hessian polynomial holds 3136 10^320 x^6 y^6
    big = F(math.factorial(8) * 10**160)
    g = TruncatedSeries2(8, {(2, 0): F(2), (0, 2): F(2), (8, 0): big, (0, 8): big})
    message = r"^Hessian numerator coefficient \(6, 6\) is past the float range of the zero tests$"
    with pytest.raises(ValueError, match=message):
        classify(g)
