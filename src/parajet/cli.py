"""Command-line front end.

Subcommands: invariants, classify, normalize, verify, report.  All numeric
output is rendered as rational strings where exact and as 17-significant-digit
decimal strings otherwise, with stable key order, so identical seeds and
inputs give byte-identical documents.  Exit codes: 0 success, 1 verification
failure, 2 input or usage error, each reported as a JSON document
``{"error": ...}`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from .classify import Cone, Cylinder, MixedTypeError, Tangential, classify, realize_graph
from .invariants import evaluate_at_jet
from .jets import jets_of_series
from .normalize import (
    DEFAULT_TOL,
    BranchError,
    normalize_curve_gl2,
    normalize_curve_sl2,
    normalize_parabolic_surface,
)
from .scalars import scalar_from_string, scalar_to_string
from .series import (
    TruncatedSeries1,
    series_from_json,
    series_to_json,
)
from .verify import SUITES, record_line, run_suite


def _emit(doc) -> int:
    print(json.dumps(doc, indent=2, sort_keys=True, default=scalar_to_string))
    return 0


def _fail(msg: str, code: int = 2) -> int:
    print(json.dumps({"error": msg}, indent=2, sort_keys=True), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are JSON error documents too, with exit code 2."""

    def error(self, message: str):
        self.exit(_fail(f"{self.prog}: {message}"))


def _tolerance(text: str) -> float:
    """The --tol type: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _load_series_arg(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return series_from_json(doc)


def _parse_coeff_list(text: str) -> TruncatedSeries1:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed coefficient list at column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, list):
        raise ValueError("coefficient list must be a JSON array")
    vals = [scalar_from_string(str(v)) for v in raw]
    return TruncatedSeries1(len(vals) - 1 if vals else 0, {i: v for i, v in enumerate(vals)})


def _transform_doc(T) -> dict:
    if hasattr(T, "matrix"):
        (a, b, c), (k, l, m), (p, q, r) = T.matrix()
        d, n, w = T.translation()
        return {
            "matrix": [[scalar_to_string(v) for v in row] for row in ((a, b, c), (k, l, m), (p, q, r))],
            "translation": [scalar_to_string(v) for v in (d, n, w)],
            "form": "inverse (source coordinates from target coordinates)",
        }
    return {
        "matrix": [
            [scalar_to_string(T.a), scalar_to_string(T.b)],
            [scalar_to_string(T.c), scalar_to_string(T.d)],
        ],
        "translation": [scalar_to_string(T.e), scalar_to_string(T.f)],
        "form": "inverse (source coordinates from target coordinates)",
    }


def cmd_invariants(args) -> int:
    F = _load_series_arg(args.surface)
    if isinstance(F, TruncatedSeries1):
        return _fail("invariants expects a bivariate surface series (vars = 2)")
    if args.point:
        try:
            xs, ys = args.point.split(",")
            F = F.shift(scalar_from_string(xs), scalar_from_string(ys))
        except ValueError as exc:
            raise ValueError(f"bad --point (expected 'x,y'): {exc}") from exc
    rep = evaluate_at_jet(jets_of_series(F).values, tol=args.tol)
    return _emit(rep.to_dict())


def cmd_classify(args) -> int:
    if args.surface:
        F = _load_series_arg(args.surface)
        if isinstance(F, TruncatedSeries1):
            return _fail("classification expects a surface series")
    else:
        order = args.order
        if args.family and order < 2:
            return _fail(f"classification needs a series of order >= 2, got {order}")
        if args.family == "cylinder":
            if not args.profile:
                return _fail("cylinder family needs --profile")
            F = realize_graph(Cylinder(_parse_coeff_list(args.profile)), order)
        elif args.family == "cone":
            if not args.directrix:
                return _fail("cone family needs --directrix")
            F = realize_graph(Cone(_parse_coeff_list(args.directrix)), order)
        elif args.family == "tangential":
            if not (args.a and args.c):
                return _fail("tangential family needs --a and --c")
            F = realize_graph(
                Tangential(_parse_coeff_list(args.a), _parse_coeff_list(args.c)), order
            )
        else:
            return _fail("choose --surface or --family cone|cylinder|tangential")
    try:
        cl = classify(F, tol=args.tol)
    except MixedTypeError as exc:
        return _fail(f"mixed type: {exc}", 1)
    return _emit(cl.to_dict())


def cmd_normalize(args) -> int:
    F = _load_series_arg(args.surface or args.curve)
    if args.order is not None:
        if args.order < 0:
            return _fail(f"--order must be >= 0, got {args.order}")
        if args.order > F.order:
            return _fail(f"--order {args.order} exceeds the input's order {F.order}; it can only truncate")
        F = type(F)(args.order, F.coeffs)
    try:
        if args.curve:
            if not isinstance(F, TruncatedSeries1):
                return _fail("--curve expects a univariate series (vars = 1)")
            res = normalize_curve_gl2(F, args.tol) if args.group == "gl2" else normalize_curve_sl2(F, args.tol)
        else:
            if isinstance(F, TruncatedSeries1):
                return _fail("--surface expects a bivariate series (vars = 2)")
            res = normalize_parabolic_surface(F, args.tol)
    except ValueError as exc:
        return _fail(str(exc), 1)
    normal = series_to_json(res.normal_series)
    readings = {k: (scalar_to_string(v) if v is not None else None) for k, v in res.readings.items()}
    return _emit(
        {
            "branch": res.branch,
            "transform": _transform_doc(res.transform),
            "normal_coeffs": normal,
            "readings": readings,
            "steps": res.steps,
        }
    )


def cmd_verify(args) -> int:
    try:
        records = run_suite(args.suite, branch=args.branch, seed=args.seed, samples=args.samples)
    except ValueError as exc:
        return _fail(str(exc))
    doc = {"suite": args.suite, "branch": args.branch, "seed": args.seed, "results": records}
    ok = all(r["pass"] for r in records)
    for r in records:
        print(record_line(r))
    print(json.dumps(doc, indent=2, sort_keys=True, default=scalar_to_string))
    return 0 if ok else 1


def cmd_report(args) -> int:
    all_ok = True
    doc = {}
    for key in SUITES:
        name, _, branch = key.partition("/")
        recs = run_suite(name, branch=branch or None, seed=args.seed, samples=args.samples)
        doc[key] = recs
        ok = all(r["pass"] for r in recs)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} suite {key}: {sum(r['pass'] for r in recs)}/{len(recs)}")
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True, default=scalar_to_string))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="parajet", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="evaluate the invariant report of a surface")
    p_inv.add_argument("--surface", required=True, help="series JSON path")
    p_inv.add_argument("--point", help="base point 'x,y' (rational or decimal strings)")
    p_inv.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_inv.set_defaults(fn=cmd_invariants)

    p_cls = sub.add_parser("classify", help="classify a developable surface or family")
    p_cls.add_argument("--surface", help="series JSON path")
    p_cls.add_argument("--family", choices=["cone", "cylinder", "tangential"])
    p_cls.add_argument("--directrix", help="JSON list of directrix coefficients")
    p_cls.add_argument("--profile", help="JSON list of profile coefficients")
    p_cls.add_argument("--a", help="JSON list for the first curve component")
    p_cls.add_argument("--c", help="JSON list for the third curve component")
    p_cls.add_argument("--order", type=int, default=8)
    p_cls.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_cls.set_defaults(fn=cmd_classify)

    p_nrm = sub.add_parser("normalize", help="run the normalization loops")
    grp = p_nrm.add_mutually_exclusive_group(required=True)
    grp.add_argument("--surface", help="bivariate series JSON path")
    grp.add_argument("--curve", help="univariate series JSON path")
    p_nrm.add_argument("--group", choices=["sl2", "gl2"], default="gl2", help="curve group")
    p_nrm.add_argument("--order", type=int, help="truncate the input to this order (at most its own) first")
    p_nrm.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_nrm.set_defaults(fn=cmd_normalize)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    keys = [key.partition("/") for key in SUITES]
    p_ver.add_argument("--suite", required=True, choices=list(dict.fromkeys(name for name, _, _ in keys)))
    p_ver.add_argument("--branch", choices=[branch for _, _, branch in keys if branch])
    p_ver.add_argument("--samples", type=int)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(fn=cmd_verify)

    p_rep = sub.add_parser("report", help="run every suite and summarize")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--samples", type=int, default=10)
    p_rep.add_argument("--json", action="store_true", help="also print the full JSON document")
    p_rep.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BranchError as exc:
        return _fail(str(exc), 1)
    except ValueError as exc:
        return _fail(str(exc))
    except OverflowError as exc:
        return _fail(f"float arithmetic overflowed ({exc}); rescale the input or give exact rationals")


if __name__ == "__main__":
    sys.exit(main())
