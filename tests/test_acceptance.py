"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every criterion replays a verification suite (``parajet verify``) or the
per-jet recurrence checks on its own seed and sample count; the identities,
residuals and bounds live in :mod:`parajet.verify` and
:mod:`parajet.recurrence` only.  Each test prints one PASS/FAIL line per
record (run pytest with -s to see them all).
"""

import random

from parajet.recurrence import verify_commutator, verify_recurrences
from parajet.sampling import random_cone_branch_jet, random_parabolic_jet
from parajet.verify import merge_reports, record_line, run_suite


def check(criterion: str, records):
    print(criterion)
    for r in records:
        print(record_line(r))
    failed = [r["name"] for r in records if not r["pass"]]
    assert records and not failed, f"{criterion}: failed {failed}"


def test_criterion_1_oracle_equivalence():
    check(
        "criterion 1: oracle equivalence of G31, G50, G70 readings with W, M, X, Y (1e-8, 100/branch)",
        run_suite("oracle", seed=101, samples=100),
    )


def test_criterion_2_generic_recurrences():
    rng = random.Random(102)
    check(
        "criterion 2: generic recurrences D1W, D2W (1e-7), D1M, D2M with invariantized I51, I60 (1e-6, 100 jets)",
        merge_reports(verify_recurrences("Generic", random_parabolic_jet(rng, 8)) for _ in range(100)),
    )


def test_criterion_3_cone_recurrences():
    rng = random.Random(103)
    check(
        "criterion 3: cone-branch recurrences D1X = 0, D2X = 3X, D2Y = 5Y (1e-6, 50 jets)",
        merge_reports(verify_recurrences("Cone", random_cone_branch_jet(rng, 8)) for _ in range(50)),
    )


def test_criterion_4_commutator():
    rng = random.Random(104)
    reports = [verify_commutator("Generic", random_parabolic_jet(rng, 8)) for _ in range(5)]
    reports += [verify_commutator("Cone", random_cone_branch_jet(rng, 8)) for _ in range(3)]
    check(
        "criterion 4: commutator [D1,D2]W = (4/3) W^2 and span formula (1e-5); cone [D1,D2]X = -D1X = 0",
        merge_reports(reports),
    )


def test_criterion_5_derivation_determinant():
    rng = random.Random(105)
    check(
        "criterion 5: alpha delta - beta gamma = u20 / S^(2/3) (1e-10, 50 jets)",
        merge_reports(verify_recurrences("Generic", random_parabolic_jet(rng, 6)) for _ in range(50)),
    )


def test_criterion_6_exact_algebra():
    check(
        "criterion 6: exact tangency quotients, order-2 determinant u20^2, order-4 det 0 and rank 5 (20 exact jets)",
        run_suite("prolongation", seed=106, samples=20),
    )


def test_criterion_7_transfer_laws():
    check(
        "criterion 7: Hessian transfer and congruence exact; slope transfer 1e-9; W, M, X, Y invariant 1e-7 (20 maps)",
        run_suite("transfer", seed=107, samples=20),
    )


def test_criterion_8_classification():
    check(
        "criterion 8: family round trips (50 each), flat-cone model W = X = 0, tangential W^3 exact",
        run_suite("classification", seed=108, samples=50),
    )


def test_criterion_9_curves():
    check(
        "criterion 9: curve closed forms 1e-9; P and C vanish on parabola/conic samples; frame; recurrences 1e-6",
        run_suite("curves", seed=109, samples=50)
        + run_suite("recurrence", "curve-sa2", seed=109, samples=25)
        + run_suite("recurrence", "curve-gl2", seed=109, samples=25),
    )


def test_criterion_10_homogeneous_models():
    check(
        "criterion 10: homogeneous-model series I6, I7 exact; field tangency 1e-9; cone brackets exact; curvature example exact",
        run_suite("homogeneous", seed=110),
    )
