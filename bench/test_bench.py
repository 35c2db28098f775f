"""Tests of the benchmark itself: its checks can fail, and so can the command.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from speed import REFERENCE_MS, SpeedProbe  # noqa: E402
from tracer import CountingRandom, Tracer  # noqa: E402

import parajet.invariants  # noqa: E402
import parajet.recurrence  # noqa: E402
import parajet.series  # noqa: E402

CLASSIFY = wl.classify


def one(kind: wl.SampleKind, seed: int = 3) -> dict:
    out = kind.run(random.Random(seed))
    assert kind.check(out) == [], kind.name
    return out


# -- each check rejects a deliberately wrong result ---------------------------


@pytest.fixture(scope="module")
def generic8():
    return one(wl.oracle_sample("Generic", 8))


@pytest.fixture(scope="module")
def cone8():
    return one(wl.oracle_sample("Cone", 8))


def test_oracle_rejects_perturbed_reading(generic8):
    bad = copy.deepcopy(generic8)
    bad["result"].readings["M"] = bad["result"].readings["M"] * (1 + Fraction(1, 10**6))
    assert any("reading M" in p for p in wl.check_oracle("Generic", bad))


def test_oracle_rejects_wrong_branch_label(cone8):
    bad = copy.deepcopy(cone8)
    bad["result"].branch = "Generic"
    assert wl.check_oracle("Cone", bad)


def test_oracle_rejects_broken_constant(cone8):
    bad = copy.deepcopy(cone8)
    bad["result"].normal_series.coeffs[(6, 0)] = Fraction(1, 10**12)
    problems = wl.check_oracle("Cone", bad)
    assert any("G60" in p for p in problems)
    # the transform no longer reproduces the changed normal form either
    assert any("reproduce" in p for p in problems)


def test_round_trip_detects_relative_error(generic8):
    res = generic8["result"]
    G = parajet.series.TruncatedSeries2(res.normal_series.order, dict(res.normal_series.coeffs))
    assert wl.graph_residual(generic8["series"], res.transform, G) <= wl.ROUND_TRIP_TOL
    G.coeffs[(5, 1)] = G[(5, 1)] * (1 + Fraction(1, 10**15))
    assert wl.graph_residual(generic8["series"], res.transform, G) > wl.ROUND_TRIP_TOL


@pytest.mark.parametrize("kind", ["cylinder", "cone", "tangential"])
def test_family_rejects_wrong_kind(kind):
    out = one(wl.family_sample(kind))
    out["kind"] = "cylinder" if kind != "cylinder" else "cone"
    assert wl.check_family(kind, out)


def test_family_rejects_inexact_invariants():
    cone = one(wl.family_sample("cone"))
    cone["w_numerator"] = Fraction(1, 10**30)
    assert wl.check_family("cone", cone)
    tangential = one(wl.family_sample("tangential"))
    tangential["W_cubed"] += Fraction(1, 10**30)
    assert wl.check_family("tangential", tangential)


def test_transfer_rejects_broken_laws():
    out = one(wl.transfer_sample("Generic"))
    bad = copy.deepcopy(out)
    bad["hessian"]["rhs"] += Fraction(1, 10**30)
    assert wl.check_transfer(bad)
    bad = copy.deepcopy(out)
    before, after = bad["pairs"]["W"]
    bad["pairs"]["W"] = (before, after * (1 + 1e-6))
    assert wl.check_transfer(bad)


def test_frames_checks_reject_wrong_results():
    ranks = one(wl.orbit_rank_sample())
    ranks["r4"] = dict(ranks["r4"], block_rank=6)
    assert wl.check_orbit_rank(ranks)

    mc = one(wl.mc_surface_sample("Generic"))
    mc["mc"].K1[3] = mc["mc"].K1[3] + 1e-9
    assert wl.check_mc_surface("Generic", mc)

    rec = one(wl.recurrence_sample("Cone"))
    row = rec["report"]["D2X = 3X"]
    row["lhs"] = row["lhs"] * (1 + 1e-5) + 1e-5
    assert wl.check_identities("Cone", rec["report"])

    curve = one(wl.curve_sample("gl2"))
    curve["mc"].K1[2] = -curve["mc"].K1[2]
    assert wl.check_curve("gl2", curve)


# -- the command counts the failed operation and exits non-zero ----------------


def run_one_round(monkeypatch, capsys, workload: str) -> tuple:
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "import_seconds", lambda: 0.1)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_command_passes_on_correct_program(monkeypatch, capsys):
    code, result = run_one_round(monkeypatch, capsys, "exact")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(wl.WORKLOADS["exact"])


def test_oracle_command_fails_on_wrong_reading(monkeypatch, capsys):
    good = parajet.invariants.invariant_W
    monkeypatch.setattr(parajet.invariants, "invariant_W", lambda c: good(c) * (1 + 1e-6))
    code, result = run_one_round(monkeypatch, capsys, "oracle")
    generic = sum(k.name.startswith("generic") for k in wl.WORKLOADS["oracle"])
    assert code == 1 and not result["correct"] and result["failed"] == generic


def test_exact_command_fails_on_wrong_kind(monkeypatch, capsys):
    good = CLASSIFY.classify

    def wrong(F, *args, **kwargs):
        got = good(F, *args, **kwargs)
        if got.developable_kind == "tangential":
            got.developable_kind = "cone"
        return got

    monkeypatch.setattr(CLASSIFY, "classify", wrong)
    code, result = run_one_round(monkeypatch, capsys, "exact")
    tangential = sum(k.name == "tangential" for k in wl.WORKLOADS["exact"])
    assert code == 1 and not result["correct"] and result["failed"] == tangential


def test_frames_command_fails_on_wrong_branch(monkeypatch, capsys):
    good = parajet.recurrence.solve_mc_surface

    def wrong(branch, p, *args, **kwargs):
        mc = good(branch, p, *args, **kwargs)
        mc.branch = "Cone" if mc.branch == "Generic" else "Generic"
        return mc

    monkeypatch.setattr(parajet.recurrence, "solve_mc_surface", wrong)
    code, result = run_one_round(monkeypatch, capsys, "frames")
    mc = sum(k.name.startswith("mc-") for k in wl.WORKLOADS["frames"])
    assert code == 1 and not result["correct"] and result["failed"] == mc


def test_traced_command_reports_every_layer_metric(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "TRACE_ROUNDS", {"exact": 1})
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "exact", "--seed", "5", "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert code == 0 and result["correct"]
    assert result["attempted"] == 2 * len(wl.WORKLOADS["exact"])
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["metrics"]["classify.classify.calls"]["value"] == 7
    assert (tmp_path / "spans-exact-seed5.tsv").is_file()


def test_command_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


# -- speed scaling ------------------------------------------------------------------


def test_speed_scaling_cancels_a_slowdown_and_keeps_a_program_change():
    probe = SpeedProbe()
    # the machine runs at half speed for the second half of the run
    probe.wall = [0.01] * 10 + [0.02] * 10
    probe.cpu = list(probe.wall)
    same = [("k", 0.1, 0.1)] * 10 + [("k", 0.2, 0.2)] * 10
    metrics = run.end_to_end(same, probe, 0.1)
    assert metrics["sample_ms_p50"][0] == pytest.approx(100.0 * REFERENCE_MS / 10)
    assert metrics["cpu_ms_per_sample"][0] == pytest.approx(100.0 * REFERENCE_MS / 10)
    # a program that is 10 % slower reads 10 % slower at any machine speed
    slower = [(k, w * 1.1, c * 1.1) for k, w, c in same]
    assert run.end_to_end(slower, probe, 0.1)["samples_per_s"][0] == pytest.approx(
        metrics["samples_per_s"][0] / 1.1
    )


# -- tracer ------------------------------------------------------------------------


def test_counting_random_keeps_the_sequence():
    a, b = random.Random(11), CountingRandom(11)
    assert [a.uniform(-2, 2) for _ in range(5)] == [b.uniform(-2, 2) for _ in range(5)]
    assert [a.randint(-32, 32) for _ in range(5)] == [b.randint(-32, 32) for _ in range(5)]
    assert b.draws == 10


def test_tracer_sees_internal_calls_and_uninstalls():
    original = parajet.series.apply_affine
    tracer = Tracer()
    tracer.install()
    try:
        assert parajet.series.apply_affine is not original
        wl.oracle_sample("Generic", 8).run(CountingRandom(4))
    finally:
        tracer.uninstall()
    assert parajet.series.apply_affine is original
    assert parajet.normalize.apply_affine is original
    calls, self_s = tracer.self_times()
    assert calls["normalize.surface"] == 1
    assert calls["sampling.random_parabolic_jet"] == 1
    assert calls["series.apply_affine"] >= 4
    names = tracer.names
    parents = {
        names[tracer.name_id[tracer.parent[i]]]
        for i in range(len(tracer.start))
        if names[tracer.name_id[i]] == "series.apply_affine"
    }
    assert parents == {"normalize.surface"}
    assert 0 < tracer.accept_ratio() <= 1
    assert tracer.max_coeff_bits > 0
    assert all(v >= 0 for v in self_s.values())
