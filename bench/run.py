"""parajet benchmark: one seeded workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one caller in one process runs whole rounds
of samples (see workloads.py) until ``--seconds`` have passed and at least
MIN_SAMPLES samples are timed.  Every sample is timed, including its seeded
jet draws, and every output is checked outside the timed span.

``--trace 0`` prints the end-to-end metrics, with every time scaled to a
reference machine speed by a fixed kernel timed after each sample (see
speed.py).  ``--trace 1`` runs TRACE_ROUNDS rounds with the layer tracer
installed, each followed by the same round untraced to measure the tracing
overhead, prints the per-layer table and metrics, and writes the spans under
bench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output checked correct, 1 when a check failed and 2 when the
program cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_MS, SpeedProbe
from tracer import LAYER_FUNCTIONS, LAYERS, CountingRandom, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_SAMPLES = 100
SETUP_SPAWNS = 11
# rounds of the traced run, fixed so that its call counts repeat exactly on a seed
TRACE_ROUNDS = {"oracle": 2, "exact": 4, "frames": 3}

# Imports parajet and every submodule in a fresh interpreter, then times the
# speed kernel in that same interpreter, and prints both in seconds.
IMPORT_PROBE = (
    "import importlib, pkgutil, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import parajet\n"
    "for m in pkgutil.iter_modules(parajet.__path__):\n"
    "    importlib.import_module('parajet.' + m.name)\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "probe = speed.SpeedProbe()\n"
    "for _ in range(speed.WINDOW):\n"
    "    probe.measure()\n"
    "print(t1 - t0, probe.wall_factor(speed.WINDOW // 2))\n"
)


def import_seconds() -> float:
    """Time to import the whole package in a fresh process, at the reference speed."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    seconds, factor = map(float, out.stdout.split()[-2:])
    return seconds * factor


def run_rounds(
    kinds,
    rng,
    seconds: float,
    min_samples: int,
    rounds: int | None = None,
    tracer=None,
    after_sample=None,
    after_round=None,
):
    """Run whole rounds; returns per-sample (kind, wall_s, cpu_s), failures and rounds.

    With ``rounds`` set, exactly that many rounds run; otherwise rounds run
    until ``seconds`` have passed and ``min_samples`` samples are timed.
    With a ``tracer``, each sample is a root span named ``sample.<kind>``.
    ``after_sample()`` is called after each sample and its check, and
    ``after_round(elapsed_s)`` between rounds, both outside every timed span.
    """
    samples = []
    failures = []
    clock, cpu = time.perf_counter, time.process_time
    t_start = clock()
    done = 0
    while True:
        if rounds is not None:
            if done == rounds:
                break
        elif done and clock() - t_start >= seconds and len(samples) >= min_samples:
            break
        for kind in kinds:
            if tracer is not None:
                span = tracer.open("sample." + kind.name)
            w0, c0 = clock(), cpu()
            try:
                result = kind.run(rng)
                error = None
            except Exception:  # an operation that raises counts as failed
                error = traceback.format_exc()
            w1, c1 = clock(), cpu()
            if tracer is not None:
                tracer.close(span)
            samples.append((kind.name, w1 - w0, c1 - c0))
            if error is None:
                try:
                    problems = kind.check(result)
                except Exception:
                    problems = [traceback.format_exc()]
            else:
                problems = [error]
            if problems:
                failures.append((len(samples) - 1, kind.name, problems))
            if after_sample is not None:
                after_sample()
        done += 1
        if after_round is not None:
            after_round(clock() - t_start)
    return samples, failures, done


def end_to_end(samples, speed: SpeedProbe, setup_s: float) -> dict:
    """The end-to-end metrics, each sample's times scaled to the reference speed."""
    walls = [w * speed.wall_factor(i) for i, (_, w, _) in enumerate(samples)]
    cpus = [c * speed.cpu_factor(i) for i, (_, _, c) in enumerate(samples)]
    return {
        "samples_per_s": (len(walls) / sum(walls), "samples/s"),
        "sample_ms_p50": (statistics.median(walls) * 1e3, "ms"),
        "sample_ms_p90": (statistics.quantiles(walls, n=10)[8] * 1e3, "ms"),
        "cpu_ms_per_sample": (sum(cpus) / len(cpus) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced_wall: float, untraced_wall: float) -> dict:
    calls, self_s = tracer.self_times()
    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum((v for k, v in self_s.items() if k.split(".")[0] == layer), 0.0), "s")
    out["sampling.accept_ratio"] = (tracer.accept_ratio(), "ratio")
    out["normalize.max_coeff_bits"] = (tracer.max_coeff_bits, "bits")
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_pct"] = ((traced_wall / untraced_wall - 1.0) * 100.0, "%")
    return out


def print_table(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>14}  {unit}")


def report_failures(failures) -> None:
    for index, kind, problems in failures[:5]:
        print(f"FAILED sample {index} ({kind}):", file=sys.stderr)
        for p in problems:
            print("  " + p.rstrip().replace("\n", "\n  "), file=sys.stderr)
    if len(failures) > 5:
        print(f"... and {len(failures) - 5} more failed samples", file=sys.stderr)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["oracle", "exact", "frames"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "parajet" / "__init__.py").is_file():
        print(f"error: the parajet sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    kinds = WORKLOADS[args.workload]

    if args.trace == 0:
        # Times are scaled to the reference speed (speed.py).  The import
        # probes are spread over the run, so that they meet the machine's
        # swings in speed as the samples do.
        speed = SpeedProbe()
        setup_times = [import_seconds()]

        def probe(elapsed_s):
            if len(setup_times) < SETUP_SPAWNS and elapsed_s >= len(setup_times) * args.seconds / SETUP_SPAWNS:
                setup_times.append(import_seconds())

        samples, failures, rounds = run_rounds(
            kinds, random.Random(args.seed), args.seconds, MIN_SAMPLES, after_sample=speed.measure, after_round=probe
        )
        while len(setup_times) < SETUP_SPAWNS:
            setup_times.append(import_seconds())
        metrics = end_to_end(samples, speed, statistics.median(setup_times))
        print_table(
            f"workload {args.workload}, seed {args.seed}: {len(samples)} samples in {rounds} rounds, "
            f"times at the reference speed (kernel median {statistics.median(speed.wall) * 1e3:.2f} ms "
            f"this run, reference {REFERENCE_MS} ms)",
            metrics,
        )
    else:
        tracer = Tracer()
        rounds = TRACE_ROUNDS[args.workload]
        # each traced round is followed by the same round untraced, drawn
        # from a second generator on the same seed, so that both see the
        # machine at the same speed
        traced_rng, plain_rng = CountingRandom(args.seed), random.Random(args.seed)
        walls = {True: 0.0, False: 0.0}
        samples, failures = [], []
        for _ in range(rounds):
            for traced in (True, False):
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    got, failed, _ = run_rounds(
                        kinds, traced_rng if traced else plain_rng, 0, 0, rounds=1, tracer=tracer if traced else None
                    )
                finally:
                    walls[traced] += time.perf_counter() - t0
                    if traced:
                        tracer.uninstall()
                failures += [(len(samples) + i, kind, problems) for i, kind, problems in failed]
                samples += got
        metrics = per_layer(tracer, walls[True], walls[False])
        print_table(
            f"workload {args.workload}, seed {args.seed}: {rounds} rounds traced "
            f"({len(samples) // 2} samples), each followed by the same round untraced",
            metrics,
        )
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        print(f"spans written to {spans_path}")

    report_failures(failures)
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
