"""Both invariant routes take their branch from the one rule, invariants.surface_branch."""

import json
import random
from fractions import Fraction

import pytest

from parajet.classify import Cone, Cylinder, realize_graph
from parajet.cli import main
from parajet.invariants import AmbiguousBranchError, BranchError, decide, evaluate_at_jet
from parajet.jets import ParabolicJet, jets_of_series, realize_series
from parajet.normalize import normalize_parabolic_surface
from parajet.sampling import random_cone_branch_jet, random_parabolic_jet
from parajet.series import TruncatedSeries1, TruncatedSeries2, series_to_json

from reference import cone_model

F = Fraction
TOL = 1e-9
# a numerator at 3 tol (1 + scale) sits inside the (tol, 10 tol) gray band
# when the largest monomial is 1 + delta and the value is delta
DELTA = 6 * F(TOL) / (1 - 3 * F(TOL))


def _surface(order, values):
    coords = {(0, 0): F(0)}
    coords.update({(j, 0): F(0) for j in range(1, order + 1)})
    coords.update({(j, 1): F(0) for j in range(order)})
    coords.update(values)
    return realize_series(ParabolicJet(order, coords))


def gray_s_series():
    # S numerator u20 u21 - u11 u30 = delta against monomials (1 + delta, 1)
    return _surface(6, {(2, 0): F(1), (1, 1): F(1), (3, 0): F(1), (2, 1): 1 + DELTA})


def gray_w_series():
    # W numerator u20^2 u31 - u20 u40 u11 = delta against monomials (1 + delta, 1, 0, 0)
    return _surface(6, {(2, 0): F(1), (1, 1): F(1), (2, 1): F(1), (4, 0): F(1), (3, 1): 1 + DELTA})


def gray_x_series():
    # an exact cone with directrix t^2/2 + a t^5/5!: conic numerator 9 a against (9 a, 0, 0)
    a = F(TOL) / (3 - 9 * F(TOL))
    return realize_graph(Cone(TruncatedSeries1(8, {2: F(1), 5: a})), 8)


def family(branch: str) -> str:
    """The label without the loops' curve sub-branch of the cylinder."""
    return "Cylinder" if branch.startswith("Cylinder[") else branch


def test_decide_band():
    assert decide(1e-9, (1.0,), TOL) is True
    assert decide(1.9e-9, (1.0,), TOL) is True
    with pytest.raises(AmbiguousBranchError):
        decide(3e-9, (1.0,), TOL)
    with pytest.raises(AmbiguousBranchError):
        decide(-1.9e-8, (1.0,), TOL)
    assert decide(2.1e-8, (1.0,), TOL) is False
    # the scale is the largest absolute monomial; without monomials it is 0
    assert decide(F(105, 10**10), (F(-10), F(1)), TOL) is True
    assert decide(F(105, 10**10), (), TOL) is False


@pytest.mark.parametrize("build", [gray_s_series, gray_w_series, gray_x_series])
def test_gray_band_refused_by_both_routes(build):
    f = build()
    with pytest.raises(AmbiguousBranchError):
        evaluate_at_jet(jets_of_series(f).values, tol=TOL)
    with pytest.raises(AmbiguousBranchError):
        normalize_parabolic_surface(f, TOL)


def _agreement_cases():
    rng = random.Random(71)
    cases = [realize_series(random_parabolic_jet(rng, 6)) for _ in range(3)]
    cases += [realize_series(random_cone_branch_jet(rng, 7)) for _ in range(3)]
    cases.append(cone_model(8))
    cases.append(realize_graph(Cylinder(TruncatedSeries1(6, {2: F(1), 3: F(1, 2), 4: F(-1, 3)})), 6))
    return cases


def test_routes_name_the_same_branch_family():
    got = []
    for f in _agreement_cases():
        closed = evaluate_at_jet(jets_of_series(f).values).branch
        loops = normalize_parabolic_surface(f).branch
        assert closed == family(loops), (closed, loops)
        got.append(closed)
    assert got == ["Generic"] * 3 + ["Cone"] * 3 + ["Cone[model]", "Cylinder"]


def test_near_rank_one_surface_is_elliptic_for_both_routes():
    # x^2/2 + 1e-7 y^2/2 + 1000 x^5/5!: H = 1e-7 is far outside the zero band,
    # while the whole Hessian series stays below tol times the series scale
    f = TruncatedSeries2(5, {(2, 0): F(1), (0, 2): F(1, 10**7), (5, 0): F(1000)})
    assert evaluate_at_jet(jets_of_series(f).values).branch == "Elliptic"
    with pytest.raises(BranchError, match="elliptic"):
        normalize_parabolic_surface(f)


def test_cli_invariants_refuses_gray_band(tmp_path, capsys):
    path = tmp_path / "gray_w.json"
    path.write_text(json.dumps(series_to_json(gray_w_series())))
    code = main(["invariants", "--surface", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "refusing to pick a branch" in json.loads(err)["error"]


@pytest.mark.parametrize("order", [2, 3, 4])
def test_low_order_truncations_agree(tmp_path, capsys, order):
    generic = realize_series(random_parabolic_jet(random.Random(71), 6), order)
    cone = cone_model(order)
    want = "Cylinder" if order == 2 else "order-too-low"
    for f in (generic, cone):
        closed = evaluate_at_jet(jets_of_series(f).values).branch
        loops = normalize_parabolic_surface(f).branch
        assert closed == family(loops) == want, (closed, loops)
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps(series_to_json(f)))
        assert main(["invariants", "--surface", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["branch"] == closed
