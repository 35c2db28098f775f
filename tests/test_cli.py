import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parajet.cli import build_parser, main
from parajet.normalize import DEFAULT_TOL

F = Fraction


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def cone_file(tmp_path):
    doc = {
        "vars": 2,
        "order": 8,
        "coeffs": [{"j": 2, "k": k, "value": str(math.factorial(k))} for k in range(7)],
    }
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def curve_file(tmp_path):
    doc = {
        "vars": 1,
        "order": 7,
        "coeffs": [
            {"j": i, "k": 0, "value": v}
            for i, v in [(2, "1"), (3, "1/2"), (4, "-1/3"), (5, "1/4"), (6, "2"), (7, "-1")]
        ],
    }
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_invariants_cone(cone_file, capsys):
    code, out, _ = run_cli(["invariants", "--surface", cone_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "Cone[model]"
    assert doc["W"] == "0"
    assert doc["X"] == "0"


def test_invariants_at_shifted_point(cone_file, capsys):
    code, out, _ = run_cli(["invariants", "--surface", cone_file, "--point", "0,1/8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "Cone[model]"


def test_classify_family(capsys):
    code, out, _ = run_cli(
        ["classify", "--family", "cone", "--directrix", '[0, 0, "1/2", "-1/3"]', "--order", "6"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["kind"] == "cone"


def test_classify_surface(cone_file, capsys):
    code, out, _ = run_cli(["classify", "--surface", cone_file], capsys)
    assert code == 0
    assert json.loads(out)["kind"] == "cone"


def test_normalize_surface_identity_on_normal_form(cone_file, capsys):
    code, out, _ = run_cli(["normalize", "--surface", cone_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "Cone[model]"
    assert doc["transform"]["matrix"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_normalize_curve(curve_file, capsys):
    code, out, _ = run_cli(["normalize", "--curve", curve_file, "--group", "sl2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "sl2-curve"
    coeffs = {(e["j"], e["k"]): e["value"] for e in doc["normal_coeffs"]["coeffs"]}
    assert coeffs[(2, 0)] == "1"
    assert (3, 0) not in coeffs


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "curves", "--samples", "5", "--seed", "3"], capsys)
    assert code == 0
    assert "[PASS]" in out


def test_verify_deterministic(capsys):
    code1, out1, _ = run_cli(["verify", "--suite", "homogeneous", "--seed", "5"], capsys)
    code2, out2, _ = run_cli(["verify", "--suite", "homogeneous", "--seed", "5"], capsys)
    assert (code1, out1) == (code2, out2)


def test_missing_file_is_usage_error(capsys):
    code, out, err = run_cli(["normalize", "--surface", "/nonexistent.json"], capsys)
    assert code == 2
    assert "error" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"vars": 2, "order": 3, "coeffs": [{"j": 1 "k": 2}]}')
    code, out, err = run_cli(["normalize", "--surface", p.as_posix()], capsys)
    assert code == 2
    assert "line" in err and "column" in err


def test_mixed_mode_series_rejected(tmp_path, capsys):
    p = tmp_path / "mixed.json"
    p.write_text(
        json.dumps(
            {
                "vars": 2,
                "order": 3,
                "coeffs": [
                    {"j": 2, "k": 0, "value": "1/2"},
                    {"j": 3, "k": 0, "value": "0.25"},
                ],
            }
        )
    )
    code, out, err = run_cli(["invariants", "--surface", p.as_posix()], capsys)
    assert code == 2
    assert "mixes" in err


def test_nonparabolic_surface_is_branch_error(tmp_path, capsys):
    p = tmp_path / "ell.json"
    p.write_text(
        json.dumps(
            {
                "vars": 2,
                "order": 4,
                "coeffs": [
                    {"j": 2, "k": 0, "value": "1"},
                    {"j": 0, "k": 2, "value": "1"},
                ],
            }
        )
    )
    code, out, err = run_cli(["normalize", "--surface", p.as_posix()], capsys)
    assert code == 1


def test_a_surface_off_the_rank_one_locus_is_refused_with_its_hessian_coefficient(tmp_path, capsys):
    # u = x^2/2 + y^4/24: the Hessian determinant has the coefficient H_02 = u20 u04 = 1
    p = tmp_path / "not_rank_one.json"
    p.write_text(json.dumps({"vars": 2, "order": 4, "coeffs": [{"j": 2, "k": 0, "value": "1"}, {"j": 0, "k": 4, "value": "1"}]}))
    code, out, err = run_cli(["normalize", "--surface", p.as_posix()], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == (
        "surface is not rank-one to the truncation order: Hessian determinant coefficient (0, 2) = 1.000e+00"
    )


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "parajet.cli", "verify", "--suite", "homogeneous"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout


def test_invariants_swaps_axes_when_u_xx_vanishes(tmp_path, capsys):
    # u = y^2/2 + y^3/12: u_xx = 0 != u_yy, as in the loops' axis swap
    doc = {
        "vars": 2,
        "order": 5,
        "coeffs": [{"j": 0, "k": 2, "value": "1"}, {"j": 0, "k": 3, "value": "1/2"}],
    }
    path = tmp_path / "y_profile.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["invariants", "--surface", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["branch"] == "Cylinder"
    code, out, _ = run_cli(["normalize", "--surface", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["branch"].startswith("Cylinder")


@pytest.mark.parametrize("command", ["invariants", "normalize"])
def test_axes_without_curvature_are_a_branch_error(tmp_path, capsys, command):
    # u = u_11 xy with u_11 small enough that H decides zero, and u_xx = u_yy = 0
    doc = {"vars": 2, "order": 4, "coeffs": [{"j": 1, "k": 1, "value": "1/100000"}]}
    path = tmp_path / "xy.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli([command, "--surface", str(path)], capsys)
    assert code == 1
    assert "rank-one direction not graph-aligned" in json.loads(err)["error"]


def _surface_doc(order=4, coeffs=None):
    if coeffs is None:
        coeffs = [{"j": 2, "k": 0, "value": "1"}, {"j": 2, "k": 1, "value": "1/2"}]
    return {"vars": 2, "order": order, "coeffs": coeffs}


def _entry(j, k, value="1/3"):
    return {"j": j, "k": k, "value": value}


@pytest.mark.parametrize(
    "doc, extra",
    [
        (_surface_doc(order="4"), []),
        (_surface_doc(order=True), []),
        (_surface_doc(order=4.0), []),
        (_surface_doc(coeffs=5), []),
        (_surface_doc(coeffs=[_entry(2, 0, "1/0")]), []),
        (_surface_doc(coeffs=[_entry(2, 0, "nan")]), []),
        (_surface_doc(coeffs=[_entry(2, 0, "inf")]), []),
        (_surface_doc(coeffs=[_entry(2, 0, "1e400")]), []),
        (_surface_doc(coeffs=[_entry(2, 0, "1"), _entry(-1, 3)]), []),
        (_surface_doc(coeffs=[_entry(2, 0, "1"), _entry("3", 0)]), []),
        (_surface_doc(coeffs=[_entry(2, 0, "1"), _entry(3.0, 0)]), []),
        (_surface_doc(coeffs=[_entry(2, 0, "1"), _entry(2, 0, "2")]), []),
        (_surface_doc(coeffs=[_entry(2, 0, "1"), _entry(4, 1)]), []),
        (_surface_doc(), ["--point", "1/0,0"]),
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, doc, extra):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["invariants", "--surface", str(path)] + extra, capsys)
    assert code == 2
    assert json.loads(err)["error"]


def test_malformed_directrix_exits_2(capsys):
    code, _, err = run_cli(["classify", "--family", "cone", "--directrix", '[0, 0, "1/0"]'], capsys)
    assert code == 2
    assert "zero denominator" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "order, coeffs, branch",
    [
        (0, [_entry(0, 0, "1")], "Flat"),
        (1, [_entry(1, 0, "1")], "Flat"),
        (2, [_entry(2, 0, "1"), _entry(0, 2, "1")], "Elliptic"),
    ],
)
def test_invariants_below_order_3_without_traceback(tmp_path, capsys, order, coeffs, branch):
    path = tmp_path / "low.json"
    path.write_text(json.dumps(_surface_doc(order=order, coeffs=coeffs)))
    code, out, _ = run_cli(["invariants", "--surface", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["branch"] == branch


@pytest.mark.parametrize(
    "args, needed",
    [
        (["--family", "cone", "--directrix", "[0, 0, 1]", "--order", "1"], "order >= 2"),
        (["--family", "cone", "--directrix", "[0, 0, 1]", "--order", "2"], "order >= 4"),
        (["--family", "tangential", "--a", "[0, 0, 1, 1]", "--c", "[0, 0, 0, 1]", "--order", "3"], "order >= 4"),
        (["--surface"], "order >= 4"),
    ],
)
def test_classify_below_needed_order_exits_2(tmp_path, capsys, args, needed):
    if args == ["--surface"]:
        path = tmp_path / "parabolic3.json"
        path.write_text(json.dumps(_surface_doc(order=3, coeffs=[_entry(2, 0, "1"), _entry(2, 1, "1/2")])))
        args = ["--surface", str(path)]
    code, _, err = run_cli(["classify"] + args, capsys)
    assert code == 2
    assert needed in json.loads(err)["error"]


@pytest.mark.parametrize("order", ["0", "-1"])
@pytest.mark.parametrize(
    "family",
    [["cone", "--directrix", "[0, 0, 1]"], ["tangential", "--a", "[0, 0, 1, 1]", "--c", "[0, 0, 0, 1]"]],
)
def test_classify_family_below_order_2_names_the_needed_order(capsys, family, order):
    code, out, err = run_cli(["classify", "--family"] + family + ["--order", order], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"classification needs a series of order >= 2, got {order}"


def test_classify_order_2_elliptic(tmp_path, capsys):
    path = tmp_path / "elliptic2.json"
    path.write_text(json.dumps(_surface_doc(order=2, coeffs=[_entry(2, 0, "1"), _entry(0, 2, "1")])))
    code, out, _ = run_cli(["classify", "--surface", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["point_type"] == "elliptic"


@pytest.mark.parametrize("command", ["invariants", "normalize"])
def test_float_overflow_exits_2(tmp_path, capsys, command):
    # finite input whose float products overflow: u_20 = u_21 = 1e300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_surface_doc(coeffs=[_entry(2, 0, "1e300"), _entry(2, 1, "1e300")])))
    code, out, err = run_cli([command, "--surface", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "overflowed" in json.loads(err)["error"]


def test_classify_refuses_a_family_that_overflows_the_float_range(capsys):
    # the realized cone graph holds inf at (3, 1)-(3, 3); no point type may be read off it
    code, out, err = run_cli(["classify", "--family", "cone", "--directrix", "[0, 0, 1e308, 1e308]", "--order", "6"], capsys)
    assert code == 2
    assert out == ""
    assert "float arithmetic overflowed" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "j, numerator, key",
    [(8, "fourth-order invariant", (15, 1)), (6, "slope invariant", (6, 1))],
    ids=["grid-test", "jet-test"],
)
def test_classify_names_an_exact_numerator_coefficient_past_the_float_range(capsys, j, numerator, key):
    # exact tangential families (a2 c3 - a3 c2 = 3/4) with a_j = 10^200: with j = 8 the tail of the W numerator
    # the grid test reads leaves the float range, with j = 6 the low part of the S numerator the jet test reads
    a = json.dumps([0, 0, 1, "1/2", 0, 0, 0, 0, 0][:j] + [str(10**200)] + [0] * (8 - j))
    args = ["classify", "--family", "tangential", "--a", a, "--c", '[0, 0, "1/2", 1]', "--order", "8"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error == f"{numerator} numerator coefficient {key} is past the float range of the zero tests"
    assert "exact rationals" not in error


def test_verify_has_no_tolerance_option(capsys):
    code, out, _ = run_cli(["verify", "--suite", "oracle", "--tol", "1"], capsys)
    assert code == 2
    assert "[PASS]" not in out


def test_report_runs_every_registered_suite(monkeypatch, capsys):
    from parajet import cli, verify

    calls = []

    def fake(name, branch=None, seed=0, samples=None):
        calls.append(name if branch is None else f"{name}/{branch}")
        return [{"name": "stub", "pass": True, "worst_residual": 0.0, "samples": samples}]

    monkeypatch.setattr(cli, "run_suite", fake)
    code, out, _ = run_cli(["report", "--samples", "1"], capsys)
    assert code == 0
    assert calls == list(verify.SUITES)
    assert [line.split()[2] for line in out.splitlines()] == [f"{key}:" for key in verify.SUITES]


def test_invariants_emits_pick(tmp_path, capsys):
    path = tmp_path / "elliptic3.json"
    coeffs = [_entry(2, 0, "1"), _entry(0, 2, "1"), _entry(3, 0, "1/2"), _entry(0, 3, "1/3")]
    path.write_text(json.dumps(_surface_doc(order=3, coeffs=coeffs)))
    code, out, _ = run_cli(["invariants", "--surface", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "Elliptic"
    assert float(doc["Pick"]) == pytest.approx(0.011284722222222222, rel=1e-15)


def test_normalize_order_zero_series(tmp_path, capsys):
    surface = tmp_path / "point.json"
    surface.write_text(json.dumps(_surface_doc(order=0, coeffs=[_entry(0, 0, "1")])))
    code, out, _ = run_cli(["normalize", "--surface", str(surface)], capsys)
    assert code == 0
    assert json.loads(out)["branch"] == "Flat"
    curve = tmp_path / "curve0.json"
    curve.write_text(json.dumps({"vars": 1, "order": 0, "coeffs": [_entry(0, 0, "1")]}))
    for group in ("gl2", "sl2"):
        code, _, err = run_cli(["normalize", "--curve", str(curve), "--group", group], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "flat curve: second-order coefficient vanishes"


def test_normalize_honours_order_zero(tmp_path, capsys):
    # elliptic, so the untruncated series is not rank-one; its order-0 truncation is flat
    path = tmp_path / "elliptic3.json"
    path.write_text(json.dumps(_surface_doc(order=3, coeffs=[_entry(2, 0, "1"), _entry(0, 2, "1")])))
    code, _, _ = run_cli(["normalize", "--surface", str(path)], capsys)
    assert code == 1
    code, out, _ = run_cli(["normalize", "--surface", str(path), "--order", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "Flat" and doc["normal_coeffs"]["order"] == 0
    code, out, err = run_cli(["normalize", "--surface", str(path), "--order", "-1"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "--order must be >= 0, got -1"


def test_classify_swaps_axes_when_u_xx_vanishes(tmp_path, capsys):
    # the y-profile cylinder u = y^2/2 + y^3/12 at order 4: u_xx = 0 at the base point
    doc = {
        "vars": 2,
        "order": 4,
        "coeffs": [{"j": 0, "k": 2, "value": "1"}, {"j": 0, "k": 3, "value": "1/2"}],
    }
    path = tmp_path / "y_profile.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["classify", "--surface", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["kind"] == "cylinder"


_EXACT = ["0", "1", "-1", "2", "1/2", "-1/3", "3/4", "1/100000"]
# decimals out to the edges of the float range
_DECIMAL = ["0.0", "0.5", "-1.25", "2.0", "1e-05", "1e300", "-2.5e150", "3e-300"]


def _pool(draw):
    """The coefficient strings of one document: exact, decimal, or mixed (refused with exit 2)."""
    return draw(st.sampled_from([_EXACT, _DECIMAL, _EXACT + _DECIMAL]))


@st.composite
def series_docs(draw):
    order = draw(st.integers(0, 6))
    keys = [(j, k) for j in range(order + 1) for k in range(order + 1 - j)]
    if draw(st.booleans()):
        keys = [(0, k) for k in range(order + 1)]  # a cylinder over the y-axis: u_xx = 0
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    pool = _pool(draw)
    coeffs = {jk: draw(st.sampled_from(pool)) for jk in chosen}
    if order >= 2 and draw(st.booleans()):
        coeffs[(2, 0)] = pool[0]  # u_xx = 0 at the base point, the axis-swap case
    return {
        "vars": 2,
        "order": order,
        "coeffs": [{"j": j, "k": k, "value": v} for (j, k), v in sorted(coeffs.items())],
    }


@pytest.mark.parametrize("command", ["invariants", "classify", "normalize"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(doc=series_docs())
def test_cli_surface_commands_never_raise(tmp_path_factory, command, doc):
    path = tmp_path_factory.mktemp("fuzz") / "series.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--surface", str(path)]) in (0, 1, 2)


@st.composite
def curve_docs(draw):
    order = draw(st.integers(0, 7))
    pool = _pool(draw)
    coeffs = {j: draw(st.sampled_from(pool)) for j in draw(st.lists(st.integers(0, order), unique=True))}
    if order >= 2 and draw(st.booleans()):
        coeffs[2] = draw(st.sampled_from(pool[1:]))  # nonzero: past the flat-curve check
    rows = [{"j": j, "k": 0, "value": v} for j, v in sorted(coeffs.items())]
    return {"vars": 1, "order": order, "coeffs": rows}


@pytest.mark.parametrize("group", ["sl2", "gl2"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(doc=curve_docs())
def test_cli_curve_normalize_never_raises(tmp_path_factory, group, doc):
    path = tmp_path_factory.mktemp("fuzz") / "curve.json"
    path.write_text(json.dumps(doc))
    assert main(["normalize", "--curve", str(path), "--group", group]) in (0, 1, 2)


@pytest.mark.parametrize("command", ["invariants", "classify", "normalize"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "abc"])
def test_tolerance_must_be_finite_and_non_negative(cone_file, capsys, command, tol):
    code, out, err = run_cli([command, "--surface", cone_file, f"--tol={tol}"], capsys)
    assert code == 2 and out == ""
    assert f"argument --tol: must be a finite number >= 0, got '{tol}'" in err


@pytest.mark.parametrize("command", ["invariants", "classify", "normalize"])
def test_zero_tolerance_stays_valid_and_the_default_is_the_loops_default(cone_file, capsys, command):
    code, out, _ = run_cli([command, "--surface", cone_file, "--tol", "0"], capsys)
    assert code == 0 and json.loads(out)
    assert build_parser().parse_args([command, "--surface", cone_file]).tol == DEFAULT_TOL


def test_normalize_order_above_the_input_order_names_both_orders(tmp_path, cone_file, capsys):
    # an order-3 curve: --order 6 would report G4 = G5 = G6 = 0 for coefficients nobody gave
    path = tmp_path / "curve3.json"
    path.write_text(json.dumps({"vars": 1, "order": 3, "coeffs": [_entry(2, 0, "1"), _entry(3, 0, "1/2")]}))
    code, out, err = run_cli(["normalize", "--curve", str(path), "--group", "sl2", "--order", "6"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "--order 6 exceeds the input's order 3; it can only truncate"
    code, out, err = run_cli(["normalize", "--surface", cone_file, "--order", "9"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "--order 9 exceeds the input's order 8; it can only truncate"
    code, out, _ = run_cli(["normalize", "--curve", str(path), "--group", "sl2", "--order", "3"], capsys)
    assert code == 0 and json.loads(out)["normal_coeffs"]["order"] == 3


@pytest.mark.parametrize(
    "args, message",
    [
        (["normalize", "--surface", "CONE", "--tol", "nan"], "parajet normalize: argument --tol: must be a finite number"),
        (["normalize", "--surface", "CONE", "--group", "bogus"], "parajet normalize: argument --group: invalid choice"),
        (["classify", "--surface", "CONE", "--order", "x"], "parajet classify: argument --order: invalid int value: 'x'"),
        (["bogus", "--surface", "CONE"], "parajet: argument command: invalid choice: 'bogus'"),
    ],
    ids=["tol-nan", "group-bogus", "order-x", "unknown-command"],
)
def test_usage_errors_are_json_error_documents(cone_file, capsys, args, message):
    code, out, err = run_cli([cone_file if a == "CONE" else a for a in args], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith(message)


def test_parser_error_prints_the_json_error_document_and_exits_2(capsys):
    # argparse calls error() for every usage error above, subparsers included
    with pytest.raises(SystemExit) as exc:
        build_parser().error("boom")
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err) == {"error": "parajet: boom"}


def test_help_stays_plain_text(capsys):
    code, out, err = run_cli(["normalize", "--help"], capsys)
    assert code == 0 and err == ""
    assert out.startswith("usage: parajet normalize")
