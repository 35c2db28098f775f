"""The verification records measure what their names claim, so they can fail."""

import inspect
import random
import sys

import pytest

from parajet import normalize, recurrence, verify
from parajet.invariants import invariant_W
from parajet.prolong import X, poly, sa3_generators, vf
from parajet.sampling import random_parabolic_jet
from parajet.recurrence import InvariantDerivationCoeffs
from parajet.scalars import to_float

SCALING = "no homogeneous models with constant nonzero X or W (scaling rows)"


def _scaling_record():
    (rec,) = [r for r in verify.suite_homogeneous(seed=0) if r["name"] == SCALING]
    return rec


def test_scaling_rows_record_measures_a_residual():
    rec = _scaling_record()
    assert rec["pass"]
    assert rec["samples"] == 6
    assert 0.0 < rec["worst_residual"] <= 1e-6


@pytest.mark.parametrize("operators", ["invariant_derivatives", "frame_derivatives"])
def test_scaling_rows_record_fails_on_a_perturbed_row(monkeypatch, operators):
    original = getattr(verify, operators)

    def perturbed(*args, **kwargs):
        c = original(*args, **kwargs)
        return InvariantDerivationCoeffs(c.alpha, c.beta, c.gamma * 1.001, c.delta * 1.001)

    monkeypatch.setattr(verify, operators, perturbed)
    rec = _scaling_record()
    assert not rec["pass"]
    assert rec["worst_residual"] > 1e-6


def test_recurrence_records_hold_each_identity_to_its_own_tolerance(monkeypatch):
    # verify_recurrences states D2W = 2W at 1e-7: scaling D2 so that its residual
    # is 3e-7 must fail the suite record, though it is within 1e-6
    original = recurrence.invariant_derivatives

    def perturbed(p):
        c = original(p)
        w2 = abs(2 * to_float(invariant_W(p.filled(4))))
        k = 1 + 3e-7 * (1 + w2) / w2
        return InvariantDerivationCoeffs(c.alpha, c.beta, c.gamma * k, c.delta * k)

    monkeypatch.setattr(recurrence, "invariant_derivatives", perturbed)
    monkeypatch.setattr(verify, "verify_commutator", lambda branch, p: {})
    recs = {r["name"]: r for r in verify.suite_recurrence("generic", seed=0, samples=1)}
    rec = recs["D2W = 2W"]
    assert 1e-7 < rec["worst_residual"] < 1e-6
    assert not rec["pass"]
    assert recs["D1W = -(2/3) W^2"]["pass"]


@pytest.mark.parametrize("branch", ["Generic", "Cone"])
def test_surface_recurrence_sample_normalizes_each_jet_once(monkeypatch, branch):
    original = normalize.normalize_parabolic_surface
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("parajet") and getattr(mod, "normalize_parabolic_surface", None) is original:
            monkeypatch.setattr(mod, "normalize_parabolic_surface", counted)
    rng = random.Random(5)
    for _ in range(3):
        rep = verify._surface_sample(branch, rng)
        assert all(r["pass"] for r in rep.values())
    assert len(calls) == 3


def test_classification_samples_count_the_checks_made(monkeypatch):
    calls = {"w_numerator": 0, "invariant_W_cubed": 0}
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(verify, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(verify, name, counted)
    recs = {r["name"]: r for r in verify.suite_classification(seed=0, samples=1)}
    assert recs["cone families have exactly vanishing W numerator"]["samples"] == calls["w_numerator"]
    assert recs["tangential W^3 = 1/(a3 c2 - a2 c3) exactly"]["samples"] == calls["invariant_W_cubed"]


@pytest.mark.parametrize("key", list(verify.SUITES))
def test_suites_take_no_tolerance(key):
    assert list(inspect.signature(verify.SUITES[key]).parameters) == ["seed", "samples"]


def test_run_suite_rejects_unknown_suites_and_empty_samples():
    with pytest.raises(ValueError):
        verify.run_suite("oracle", branch="cone")
    with pytest.raises(ValueError):
        verify.run_suite("oracle", samples=0)


def test_generators_tangent_compares_every_generator(monkeypatch):
    """A twelfth field that is no symmetry, u -> u + t x^2, breaks the tangency record."""
    p = random_parabolic_jet(random.Random(106), 5, exact=True, generic_floor=None)
    assert verify._generators_tangent(p)
    bad = vf("bad", phi=poly((1, {X: 2})))
    monkeypatch.setattr(verify, "sa3_generators", lambda: sa3_generators() + [bad])
    assert not verify._generators_tangent(p)
