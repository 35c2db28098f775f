"""Layer tracer: spans around the public functions of each parajet layer.

The tracer wraps functions from the outside.  Installing it rebinds every
module-level name in the ``parajet`` package that refers to a wrapped
function (and patches the wrapped methods on their classes), so calls the
program makes internally, such as ``normalize`` calling ``apply_affine``,
are recorded too.  Nothing under ``src/parajet`` is edited.

Each span records a name, a start, an end and its parent span.  Spans are
kept in flat arrays while the run lasts and written out when it ends.  A
layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import random
import sys
import time
from array import array
from fractions import Fraction
from typing import Dict, List, Tuple

# span name -> the functions it covers, as (module, attribute path)
LAYER_FUNCTIONS: Dict[str, List[Tuple[str, str]]] = {
    "sampling.random_parabolic_jet": [("parajet.sampling", "random_parabolic_jet")],
    "sampling.random_cone_branch_jet": [("parajet.sampling", "random_cone_branch_jet")],
    "jets.realize_series": [("parajet.jets", "realize_series")],
    "jets.filled": [("parajet.jets", "ParabolicJet.filled")],
    "jets.total_derivative": [("parajet.jets", "total_derivative")],
    "scalars.roots": [("parajet.scalars", "cbrt_frac"), ("parajet.scalars", "sqrt_frac")],
    "scalars.snap": [("parajet.scalars", "snap")],
    "series.apply_affine": [("parajet.series", "apply_affine")],
    "series.linear_substitution": [("parajet.series", "series3_from_bivariate_in_linear")],
    "series.solve_implicit": [("parajet.series", "solve_implicit")],
    "series.compose2": [("parajet.series", "compose2")],
    "series.mul": [("parajet.series", "TruncatedSeries2.__mul__")],
    "series.shift": [("parajet.series", "TruncatedSeries2.shift")],
    "prolong.prolong": [("parajet.prolong", "prolong")],
    "prolong.pushforward": [("parajet.prolong", "parabolic_pushforward")],
    "prolong.orbit_rank": [("parajet.prolong", "orbit_rank")],
    "prolong.solve_linear_exact": [("parajet.prolong", "solve_linear_exact")],
    "invariants.closed_forms": [
        ("parajet.invariants", name)
        for name in (
            "invariant_W",
            "invariant_M",
            "invariant_X",
            "invariant_Y",
            "invariant_W_cubed",
            "w_numerator",
        )
    ],
    "invariants.transfer_checks": [
        ("parajet.invariants", name)
        for name in ("hessian_transfer_check", "hessian_congruence_check", "slope_transfer_check")
    ],
    "normalize.surface": [("parajet.normalize", "normalize_parabolic_surface")],
    "normalize.curve": [
        ("parajet.normalize", "normalize_curve_sl2"),
        ("parajet.normalize", "normalize_curve_gl2"),
    ],
    "recurrence.solve_mc": [
        ("parajet.recurrence", "solve_mc_surface"),
        ("parajet.recurrence", "solve_mc_curve"),
    ],
    "recurrence.verify_recurrences": [
        ("parajet.recurrence", "verify_recurrences"),
        ("parajet.recurrence", "verify_curve_recurrences"),
    ],
    "recurrence.frame_derivatives": [("parajet.recurrence", "frame_derivatives")],
    "classify.realize_graph": [("parajet.classify", "realize_graph")],
    "classify.classify": [("parajet.classify", "classify")],
}

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in LAYER_FUNCTIONS))

# Values the samplers draw per candidate jet (one ``uniform`` or ``randint``
# call per independent coordinate), used to count candidate draws.
DRAWS_PER_CANDIDATE = {
    "sampling.random_parabolic_jet": lambda order: 2 * order + 1,
    "sampling.random_cone_branch_jet": lambda order: order + 4,
}


class CountingRandom(random.Random):
    """``random.Random`` that counts the draws the samplers make.

    Produces the same sequence as ``random.Random`` with the same seed.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def uniform(self, a, b):
        self.draws += 1
        return super().uniform(a, b)

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


def coeff_bits(series) -> int:
    """Largest numerator or denominator bit length among exact coefficients."""
    best = 0
    for c in series.coeffs.values():
        if isinstance(c, Fraction):
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    """Records spans for the wrapped layer functions while installed."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        self.candidates = 0.0
        self.jets_returned = 0
        self.max_coeff_bits = 0

    # -- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        per_candidate = DRAWS_PER_CANDIDATE.get(name)
        records_bits = name.startswith("normalize.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if per_candidate is not None:
                # the samplers are called as (rng, order, ...) with a CountingRandom
                rng, order = args[0], args[1]
                draws_before = rng.draws
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if per_candidate is not None:
                tracer.candidates += (rng.draws - draws_before) / per_candidate(order)
                tracer.jets_returned += 1
            elif records_bits:
                tracer.max_coeff_bits = max(tracer.max_coeff_bits, coeff_bits(result.normal_series))
            return result

        return traced

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYER_FUNCTIONS throughout ``parajet``."""
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "parajet" or mod_name.startswith("parajet."))
        ]
        for name, targets in LAYER_FUNCTIONS.items():
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, attr, self._wrap(name, vars(cls)[attr]))
                    continue
                original = getattr(module, path)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return calls, self_s

    def accept_ratio(self) -> float:
        return self.jets_returned / self.candidates if self.candidates else 0.0

    def write(self, path) -> None:
        """Write every span as tab-separated name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
