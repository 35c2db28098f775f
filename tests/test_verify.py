"""The verification records measure what their names claim, so they can fail."""

import pytest

from parajet import verify
from parajet.recurrence import InvariantDerivationCoeffs

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
