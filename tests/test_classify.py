import math
import random
from fractions import Fraction

import pytest

from parajet.classify import (
    Cone,
    Cylinder,
    MixedTypeError,
    Tangential,
    classify,
    realize_graph,
    torsion,
)
from parajet.invariants import invariant_W_cubed, w_numerator
from parajet.jets import jets_of_series
from parajet.series import TruncatedSeries1, TruncatedSeries2

from helpers import from_monomials1

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
    assert g == TruncatedSeries2(8, {(2, k): F(math.factorial(k)) for k in range(7)})


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


def test_classify_roundtrip_families():
    rng = random.Random(44)

    def rnd():
        return F(rng.randint(-24, 24), 12)

    for kind in ("cylinder", "cone", "tangential"):
        done = 0
        while done < 10:
            if kind == "cylinder":
                prof = TruncatedSeries1(8, {i: rnd() for i in range(2, 9)})
                if abs(prof[2]) < F(1, 4):
                    continue
                fam = Cylinder(prof)
            elif kind == "cone":
                cs = {i: rnd() for i in range(2, 9)}
                if abs(cs[2]) < F(1, 4):
                    continue
                fam = Cone(TruncatedSeries1(8, cs))
            else:
                avs = {i: rnd() for i in range(2, 9)}
                cvs = {i: rnd() for i in range(2, 9)}
                if abs(avs[2]) < F(1, 4) or abs(avs[3] * cvs[2] - avs[2] * cvs[3]) < F(1, 6):
                    continue
                fam = Tangential(TruncatedSeries1(8, avs), TruncatedSeries1(8, cvs))
            done += 1
            assert classify(realize_graph(fam, 8)).developable_kind == kind


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


def test_torsion_values():
    a = TruncatedSeries1(5, {2: F(-1)})
    y = TruncatedSeries1(5, {0: F(-1), 1: F(1)})
    c3 = TruncatedSeries1(5, {3: F(1)})
    assert torsion((a, y, c3), 0) == 1
    c4 = TruncatedSeries1(5, {4: F(1)})
    assert torsion((a, y, c4), 0) == 0
    planar = TruncatedSeries1(5, {})
    assert torsion((a, y, planar), 0) == 0
    with pytest.raises(ZeroDivisionError):
        torsion((TruncatedSeries1(5, {}), y, TruncatedSeries1(5, {})), 0)


def test_mixed_type_reported():
    # parabolic at the origin, elliptic nearby: x^2/2 + x^2 y^2 (H = 2 x^2 y ... )
    f = TruncatedSeries2(6, {(2, 0): F(1), (2, 2): F(4)})
    with pytest.raises(MixedTypeError):
        classify(f)


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
