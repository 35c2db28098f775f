"""The benchmark's three workloads: seeded samples and their output checks.

A workload is a fixed *round* of sample kinds.  Every sample is one verified
operation: ``run(rng)`` draws its inputs from the workload's seeded random
generator and calls the program (this is the timed part); ``check(result)``
then compares the outputs against independent computations and properties
and returns a list of problems, empty when the output is correct.  Checks
run outside the timed span.  A run repeats whole rounds, so every run
attempts the same mix of operations.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from parajet import invariants, jets, normalize, prolong, recurrence, sampling, series
from parajet.classify import Cone, Cylinder, Tangential
from parajet.series import TruncatedSeries1, TruncatedSeries2

# Program functions are called through their modules, so that the layer
# tracer, which rebinds module attributes, sees every call made from here.
# The package attribute ``parajet.classify`` is the function, not the module.
classify = importlib.import_module("parajet.classify")


@dataclass(frozen=True)
class SampleKind:
    name: str
    run: Callable
    check: Callable[[dict], List[str]]


def rel(a, b) -> float:
    a, b = float(a), float(b)
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


# -- fixed-point round trip ----------------------------------------------------

FIXED_BITS = 320


def _fixed(x) -> int:
    x = Fraction(x)
    return (x.numerator << FIXED_BITS) // x.denominator


def _pmul(a: Dict, b: Dict, order: int) -> Dict:
    out: Dict[Tuple[int, int], int] = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            if i1 + j1 + i2 + j2 <= order:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + x * y
    return {k: v >> FIXED_BITS for k, v in out.items()}


def _monomials(F: TruncatedSeries2) -> Dict:
    """Fixed-point monomial coefficients f_jk = F_jk / (j! k!)."""
    return {
        (j, k): _fixed(Fraction(c) / (math.factorial(j) * math.factorial(k)))
        for (j, k), c in F.coeffs.items()
    }


def graph_residual(F: TruncatedSeries2, T, G: TruncatedSeries2) -> float:
    """How far G is from the image of the graph of F under T (inverse form).

    With x = a s + b t + c v + d, y = k s + l t + m v + n and
    u = p s + q t + r v + w, G is the transformed graph exactly when
    F(x, y) - u vanishes at v = G(s, t).  The residual series is evaluated in
    320-bit fixed point, converted to the factorial convention and divided
    by |dPhi/dv| at the origin, so it reads as the coefficient error of G.
    Each degree's error is taken relative to 1 + the largest coefficient of
    G of that degree, the ``rel`` convention of the acceptance tests: order-12
    normal forms carry coefficients near 1e20, whose snapping error at
    2^-128 relative is near 1e-17 absolute.
    """
    n = G.order
    one = 1 << FIXED_BITS
    f = _monomials(F)
    g = _monomials(G)
    a, b, c, d, k, l, m, nn, p, q, r, w = (
        _fixed(v) for v in (T.a, T.b, T.c, T.d, T.k, T.l, T.m, T.n, T.p, T.q, T.r, T.w)
    )
    if d or nn:
        # re-expand F at the horizontal translation (d, n)
        shifted: Dict[Tuple[int, int], int] = {}
        for (i, j), coef in f.items():
            for i2 in range(i + 1):
                for j2 in range(j + 1):
                    t = coef * math.comb(i, i2) * math.comb(j, j2)
                    t = (t * d ** (i - i2)) >> (FIXED_BITS * (i - i2))
                    t = (t * nn ** (j - j2)) >> (FIXED_BITS * (j - j2))
                    shifted[(i2, j2)] = shifted.get((i2, j2), 0) + t
        f = shifted

    def linear(cs, ct, cv, c0):
        out = {key: (cv * v) >> FIXED_BITS for key, v in g.items()}
        out[(1, 0)] = out.get((1, 0), 0) + cs
        out[(0, 1)] = out.get((0, 1), 0) + ct
        if c0:
            out[(0, 0)] = out.get((0, 0), 0) + c0
        return out

    X = linear(a, b, c, 0)
    Y = linear(k, l, m, 0)
    U = linear(p, q, r, w)
    ypows = [{(0, 0): one}]
    for _ in range(n):
        ypows.append(_pmul(ypows[-1], Y, n))
    total: Dict[Tuple[int, int], int] = {}
    xpow = {(0, 0): one}
    for i in range(n + 1):
        inner: Dict[Tuple[int, int], int] = {}
        for j in range(n + 1 - i):
            coef = f.get((i, j))
            if coef:
                for key, v in ypows[j].items():
                    inner[key] = inner.get(key, 0) + ((coef * v) >> FIXED_BITS)
        for key, v in _pmul(xpow, inner, n).items():
            total[key] = total.get(key, 0) + v
        xpow = _pmul(xpow, X, n)
    for key, v in U.items():
        total[key] = total.get(key, 0) - v
    dphi_dv = Fraction(abs(c * f.get((1, 0), 0) + m * f.get((0, 1), 0) - r * one) >> FIXED_BITS, one)
    scale = [1.0] * (n + 1)
    for (i, j), v in G.coeffs.items():
        scale[i + j] = max(scale[i + j], 1.0 + abs(float(v)))
    worst = 0.0
    for (i, j), v in total.items():
        err = Fraction(abs(v) * math.factorial(i) * math.factorial(j), one) / dphi_dv
        worst = max(worst, float(err) / scale[i + j])
    return worst


# -- oracle ---------------------------------------------------------------------

ORACLE_TOL = 1e-8
ROUND_TRIP_TOL = 1e-20
CONSTANTS = {
    "Generic": {(2, 0): 1, (2, 1): 1, (1, 1): 0, (3, 0): 0, (4, 0): 0, (4, 1): 0},
    "Cone": {(2, 0): 1, (2, 1): 1, (1, 1): 0, (3, 0): 0, (4, 0): 0, (6, 0): 0},
}


def oracle_sample(branch: str, order: int) -> SampleKind:
    """Draw a jet on ``branch``, normalize it and evaluate the closed forms."""

    def run(rng):
        if branch == "Generic":
            p = sampling.random_parabolic_jet(rng, order)
            F = jets.realize_series(p)
            res = normalize.normalize_parabolic_surface(F)
            c = p.filled(5)
            closed = {"W": invariants.invariant_W(c), "M": invariants.invariant_M(c)}
        else:
            p = sampling.random_cone_branch_jet(rng, order)
            F = jets.realize_series(p)
            res = normalize.normalize_parabolic_surface(F)
            c = p.filled(7)
            closed = {"X": invariants.invariant_X(c), "Y": invariants.invariant_Y(c)}
        return {"series": F, "result": res, "closed": closed}

    return SampleKind(f"{branch.lower()}{order}", run, lambda out: check_oracle(branch, out))


def check_oracle(branch: str, out: dict) -> List[str]:
    res = out["result"]
    problems = []
    if res.branch != branch:
        return [f"branch {res.branch!r}, drawn from {branch!r}"]
    for name, value in out["closed"].items():
        reading = res.readings.get(name)
        if reading is None or rel(value, reading) > ORACLE_TOL:
            problems.append(f"reading {name} = {reading} against closed form {float(value)!r}")
    G = res.normal_series
    for jk, want in CONSTANTS[branch].items():
        if abs(float(G[jk] - want)) > ROUND_TRIP_TOL:
            problems.append(f"normal-form constant G{jk[0]}{jk[1]} = {float(G[jk])!r}, want {want}")
    err = graph_residual(out["series"], res.transform, G)
    if not err <= ROUND_TRIP_TOL:
        problems.append(f"transform does not reproduce the normal form: error {err:.2e}")
    return problems


# -- exact ------------------------------------------------------------------------

TRANSFER_TOL = 1e-7


def _draw_coeffs(rng, lo: int = 2, hi: int = 8) -> Dict[int, Fraction]:
    return {i: sampling.rand_rational(rng) for i in range(lo, hi + 1)}


def family_sample(kind: str) -> SampleKind:
    """Realize a developable family exactly and classify the graph."""

    def run(rng):
        while True:
            if kind == "cylinder":
                coeffs = _draw_coeffs(rng)
                if abs(coeffs[2]) < Fraction(1, 4):
                    continue
                fam = Cylinder(TruncatedSeries1(8, coeffs))
            elif kind == "cone":
                coeffs = _draw_coeffs(rng)
                if abs(coeffs[2]) < Fraction(1, 4):
                    continue
                fam = Cone(TruncatedSeries1(8, coeffs))
            else:
                avs, cvs = _draw_coeffs(rng), _draw_coeffs(rng)
                if abs(avs[2]) < Fraction(1, 4) or abs(avs[3] * cvs[2] - avs[2] * cvs[3]) < Fraction(1, 6):
                    continue
                fam = Tangential(TruncatedSeries1(8, avs), TruncatedSeries1(8, cvs))
            break
        g = classify.realize_graph(fam, 8)
        out = {"family": fam, "kind": classify.classify(g).developable_kind}
        jet = jets.jets_of_series(g).values
        if kind == "cone":
            out["w_numerator"] = invariants.w_numerator(jet)
        elif kind == "tangential":
            out["W_cubed"] = invariants.invariant_W_cubed(jet)
        return out

    return SampleKind(kind, run, lambda out: check_family(kind, out))


def check_family(kind: str, out: dict) -> List[str]:
    if out["kind"] != kind:
        return [f"classified as {out['kind']!r}, built as {kind!r}"]
    if kind == "cone" and out["w_numerator"] != 0:
        return [f"cone family has W numerator {out['w_numerator']}"]
    if kind == "tangential":
        a, c = out["family"].a, out["family"].c
        want = 1 / (a[3] * c[2] - a[2] * c[3])
        if out["W_cubed"] != want:
            return [f"tangential W^3 = {out['W_cubed']}, want {want}"]
    return []


def _centered_exact_series(p) -> TruncatedSeries2:
    F = jets.realize_series(p)
    return TruncatedSeries2(F.order, {jk: c for jk, c in F.coeffs.items() if jk != (0, 0)})


def transfer_sample(branch: str) -> SampleKind:
    """Transfer laws under an exact unimodular near-identity map."""

    def run(rng):
        if branch == "Generic":
            p = sampling.random_parabolic_jet(rng, 8, exact=True)
            names, upto = ("W", "M"), 5
        else:
            p = sampling.random_cone_branch_jet(rng, 8, exact=True)
            names, upto = ("X", "Y"), 7
        f = _centered_exact_series(p)
        T = sampling.near_identity_transform(rng)
        out = {}
        if branch == "Generic":
            out["hessian"] = invariants.hessian_transfer_check(f, T)
        g = series.apply_affine(f, T)
        cf = p.filled(upto)
        cg = jets.jets_of_series(g)
        cgv = {jk: cg[jk] for jk in cf}
        fns = {n: getattr(invariants, "invariant_" + n) for n in names}
        out["pairs"] = {name: (fns[name](cf), fns[name](cgv)) for name in names}
        return out

    return SampleKind(f"transfer-{branch.lower()}", run, check_transfer)


def check_transfer(out: dict) -> List[str]:
    problems = []
    h = out.get("hessian")
    if h is not None and not (h["lhs"] == h["rhs"] and h["delta"] == 1):
        problems.append(f"Hessian transfer not exact: {h['lhs']} vs {h['rhs']}, delta {h['delta']}")
    for name, (before, after) in out["pairs"].items():
        if rel(before, after) > TRANSFER_TOL:
            problems.append(f"{name} changed under a unimodular map: {float(before)!r} -> {float(after)!r}")
    return problems


# -- frames -----------------------------------------------------------------------

MC_TOL = 1e-10
RECURRENCE_TOL = {"D1W = -(2/3) W^2": 1e-7, "D2W = 2W": 1e-7, "det(D) = u20 / S^(2/3)": 1e-10}
RECURRENCE_DEFAULT_TOL = 1e-6
RECURRENCE_NAMES = {
    "Generic": {
        "D1W = -(2/3) W^2",
        "D2W = 2W",
        "D2M = I51 - M + (80/9) W^3",
        "D1M = I60 - 14 M W + (10/3) I51 W",
        "det(D) = u20 / S^(2/3)",
    },
    "Cone": {"D1X = 0", "D2X = 3X", "D2Y = 5Y", "D1Y = I80 - (35/2) X^2"},
    "sa2": {"I5 = DxP", "I6 = Dx^2 P + 5 P^2", "I7 = Dx^3 P + 17 DxP P"},
    "gl2": {"I6 = DxI5 +- (3/2) I5^2 + 5"},
}


def orbit_rank_sample() -> SampleKind:
    def run(rng):
        p = sampling.random_parabolic_jet(rng, 6, exact=True, generic_floor=None)
        base = (sampling.rand_rational(rng), sampling.rand_rational(rng))
        return {"u20": p.coords[(2, 0)], "r2": prolong.orbit_rank(2, p, base), "r4": prolong.orbit_rank(4, p, base)}

    return SampleKind("orbit-rank", run, check_orbit_rank)


def check_orbit_rank(out: dict) -> List[str]:
    problems = []
    r2, r4 = out["r2"], out["r4"]
    if r2["rank"] != 7 or r2["det7"] != out["u20"] ** 2:
        problems.append(f"order-2 rank {r2['rank']}, determinant {r2['det7']} (want 7, {out['u20'] ** 2})")
    if r4["block_det"] != 0 or r4["block_rank"] != 5:
        problems.append(f"order-4 block determinant {r4['block_det']}, rank {r4['block_rank']} (want 0, 5)")
    return problems


def printed_mc_solution(branch: str, readings: dict):
    """The printed Maurer-Cartan solutions (K1, K2), transcribed independently."""
    if branch == "Generic":
        W, M, I51 = (float(readings[k]) for k in ("W", "M", "I51"))
        K1 = [-W / 3, W, 1, 2 * M / W - I51 / (2 * W), -2 * M / W + I51 / (2 * W), 1.5 * M - I51 / 3]
        K2 = [0, 1, 0, -W, 4 * W / 3, -8 * W * W / 9]
    else:
        X, Y = float(readings["X"]), float(readings["Y"])
        K1 = [0, 0, 1, -Y / (3 * X), Y / (3 * X), X / 6]
        K2 = [0, 1, 0, 0, 0, 0]
    return K1, K2


def _draw_surface_jet(rng, branch: str):
    return sampling.random_parabolic_jet(rng, 8) if branch == "Generic" else sampling.random_cone_branch_jet(rng, 8)


def mc_surface_sample(branch: str) -> SampleKind:
    def run(rng):
        mc = recurrence.solve_mc_surface(branch, _draw_surface_jet(rng, branch))
        return {"mc": mc}

    return SampleKind(f"mc-{branch.lower()}", run, lambda out: check_mc_surface(branch, out))


def check_mc_surface(branch: str, out: dict) -> List[str]:
    mc = out["mc"]
    if mc.branch != branch:
        return [f"Maurer-Cartan system on branch {mc.branch!r}, drawn from {branch!r}"]
    K1, K2 = printed_mc_solution(branch, mc.readings)
    worst = max(abs(float(a) - b) for a, b in zip(mc.K1 + mc.K2, K1 + K2))
    if not worst <= MC_TOL:
        return [f"Cramer solution differs from the printed solution by {worst:.2e}"]
    return []


def check_identities(group: str, report: Dict[str, dict]) -> List[str]:
    problems = []
    if set(report) != RECURRENCE_NAMES[group]:
        problems.append(f"identities {sorted(report)}, want {sorted(RECURRENCE_NAMES[group])}")
    for name, row in report.items():
        resid = rel(row["lhs"], row["rhs"])
        if not resid <= RECURRENCE_TOL.get(name, RECURRENCE_DEFAULT_TOL):
            problems.append(f"{name}: residual {resid:.2e}")
    return problems


def recurrence_sample(branch: str) -> SampleKind:
    def run(rng):
        return {"report": recurrence.verify_recurrences(branch, _draw_surface_jet(rng, branch))}

    return SampleKind(
        f"recurrence-{branch.lower()}", run, lambda out: check_identities(branch, out["report"])
    )


def curve_sample(group: str) -> SampleKind:
    """Plane-curve Cramer system and recurrences under SA(2) or A(2)."""

    def run(rng):
        jet = sampling.random_curve_jet(rng, 8, affine_floor=0.3 if group == "gl2" else None)
        return {
            "jet": jet,
            "mc": recurrence.solve_mc_curve(group, jet),
            "report": recurrence.verify_curve_recurrences(group, jet),
        }

    return SampleKind(f"curve-{group}", run, lambda out: check_curve(group, out))


def check_curve(group: str, out: dict) -> List[str]:
    mc, jet = out["mc"], out["jet"]
    if group == "sa2":
        u2, u3, u4 = (float(jet[i]) for i in (2, 3, 4))
        P = (3 * u2 * u4 - 5 * u3 * u3) / (3 * math.copysign(abs(u2) ** (1 / 3), u2) ** 8)
        want = [0.0, P / 3, -1.0]
    else:
        eps, I5 = mc.readings["eps"], float(mc.readings["G5"])
        want = [eps * I5 / 2, eps * I5, eps / 3, -1.0]
    problems = []
    worst = max(abs(float(a) - b) for a, b in zip(mc.K1, want))
    if len(mc.K1) != len(want) or not worst <= MC_TOL:
        problems.append(f"curve Cramer solution differs from the printed solution by {worst:.2e}")
    return problems + check_identities(group, out["report"])


# -- rounds -------------------------------------------------------------------------


def _interleave(groups: List[Tuple[SampleKind, int]]) -> Tuple[SampleKind, ...]:
    """Spread the kinds over a round in a fixed, evenly mixed order."""
    slots = []
    for kind, count in groups:
        for i in range(count):
            slots.append(((i + 0.5) / count, kind.name, kind))
    return tuple(kind for _, _, kind in sorted(slots, key=lambda s: (s[0], s[1])))


# Round make-up.  The counts place each reported percentile inside one group
# of samples, away from the group boundaries, so that the percentile follows
# that group's cost: see README.md.
WORKLOADS: Dict[str, Tuple[SampleKind, ...]] = {
    "oracle": _interleave(
        [
            (oracle_sample("Generic", 8), 13),
            (oracle_sample("Cone", 8), 4),
            (oracle_sample("Generic", 12), 2),
            (oracle_sample("Cone", 12), 1),
        ]
    ),
    "exact": _interleave(
        [
            (family_sample("cylinder"), 1),
            (family_sample("cone"), 3),
            (family_sample("tangential"), 3),
            (transfer_sample("Cone"), 1),
            (transfer_sample("Generic"), 2),
        ]
    ),
    "frames": _interleave(
        [
            (orbit_rank_sample(), 2),
            (curve_sample("sa2"), 2),
            (curve_sample("gl2"), 2),
            (mc_surface_sample("Generic"), 4),
            (recurrence_sample("Generic"), 3),
            (mc_surface_sample("Cone"), 3),
            (recurrence_sample("Cone"), 4),
        ]
    ),
}
