"""Verification suites: each runs seeded samples and reports per-identity status.

Every check is an :func:`~parajet.recurrence.identity_record` (or an exact
check in the same shape, residual 0), taken against the bound its identity
states.  A suite returns one record {name, pass, worst_residual, samples} per
identity: the worst residual over the samples actually checked, and whether
every one of them passed.  :data:`SUITES` is the registry behind
``parajet verify`` and ``parajet report``; the acceptance tests replay each
criterion through these suites, or through the per-jet checks of
:mod:`parajet.recurrence` merged with :func:`merge_reports`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from typing import Dict, Iterable, List

from .classify import Cone, Cylinder, Tangential, classify, realize_graph
from .invariants import (
    _centered,
    conic_invariant,
    curve_invariant_F6,
    curve_invariant_F7,
    equiaffine_curvature,
    euclid_curvature,
    hessian_congruence_check,
    hessian_transfer_check,
    invariant_M,
    invariant_W,
    invariant_W_cubed,
    invariant_X,
    invariant_Y,
    slope_transfer_check,
    w_numerator,
)
from .jets import ParabolicJet, chain_rule, jets_of_series, realize_series, seeded
from .normalize import (
    normalize_curve_sl2,
    normalize_parabolic_surface,
    sa2_frame_fourth_order,
    surface_frame,
)
from .prolong import (
    X as VX,
    Y as VY,
    det_poly_matrix,
    lie_bracket,
    orbit_rank,
    order2_matrix_symbolic,
    p_eval,
    poly,
    prolong,
    sa3_generators,
    tangency_quotients,
)
from .recurrence import (
    _recurrences_at_frame,
    _solve_mc_at_frame,
    apply_D_pair,
    cone_symmetry_fields,
    frame_derivatives,
    homogeneous_curve_coefficients,
    homogeneous_curve_series,
    homogeneous_tangent_field,
    identity_record,
    invariant_derivatives,
    mc_closed_form,
    solve_mc_curve,
    surface_tangency_residual,
    tangency_residual_curve,
    verify_commutator,
    verify_curve_recurrences,
)
from .sampling import (
    near_identity_transform,
    rand_rational,
    random_cone_branch_jet,
    random_curve_jet,
    random_parabolic_jet,
)
from .scalars import to_float
from .series import (
    CurveTransform2,
    TruncatedSeries1,
    TruncatedSeries2,
    apply_affine,
    apply_affine_curve,
)

F = Fraction


def _exact(ok) -> dict:
    """An exact check in the shape of an identity record."""
    return {"residual": 0.0, "pass": bool(ok)}


def _max_record(pairs, tolerance: float) -> dict:
    """identity_record over several (lhs, rhs) pairs of one sample: the worst one (none: exact)."""
    records = [identity_record(a, b, tolerance) for a, b in pairs]
    return max(records, key=lambda r: r["residual"], default=_exact(True))


def _rec(name: str, rows: List[dict], detail=None) -> dict:
    """The record of one identity over its checked samples."""
    out = {
        "name": name,
        "pass": all(r["pass"] for r in rows),
        "worst_residual": max([0.0] + [r["residual"] for r in rows]),
        "samples": len(rows),
    }
    if detail is not None:
        out["detail"] = detail
    return out


def merge_reports(reports: Iterable[Dict[str, dict]]) -> List[dict]:
    """One record per identity from per-sample reports {identity name: identity record}."""
    rows: Dict[str, List[dict]] = {}
    for rep in reports:
        for name, r in rep.items():
            rows.setdefault(name, []).append(r)
    return [_rec(name, rs) for name, rs in rows.items()]


def record_line(r: dict) -> str:
    status = "PASS" if r["pass"] else "FAIL"
    return f"[{status}] {r['name']}  (worst residual {r['worst_residual']:.2e}, n={r['samples']})"


def suite_prolongation(seed: int = 0, samples: int = 20) -> List[dict]:
    rng = random.Random(seed)
    expect = [
        poly((-4, {})),
        poly((-4, {})),
        {},
        poly((-4, {(1, 0): 1})),
        {},
        poly((-4, {(0, 1): 1})),
    ]
    out = [
        _rec("tangency quotients = (-4, -4, 0, -4 u10, 0, -4 u01)", [_exact(tangency_quotients() == expect)]),
        _rec(
            "order-2 block determinant = u20^2 (symbolic)",
            [_exact(det_poly_matrix(order2_matrix_symbolic()) == poly((1, {(2, 0): 2})))],
        ),
    ]
    reports = []
    for _ in range(samples):
        p = random_parabolic_jet(rng, 6, exact=True, generic_floor=None)
        base = (rand_rational(rng), rand_rational(rng))
        r2 = orbit_rank(2, p, base)
        r4 = orbit_rank(4, p, base)
        reports.append(
            {
                "order-2 rank 7 with determinant u20^2 (exact samples)": _exact(
                    r2["rank"] == 7 and r2["det7"] == p.coords[(2, 0)] ** 2
                ),
                "order-4 block determinant vanishes (exact samples)": _exact(r4["block_det"] == 0),
                "order-4 block rank 5 (exact samples)": _exact(r4["block_rank"] == 5),
                "order-4 key minors not simultaneously zero": _exact(
                    any(v != 0 for v in r4["minors"].values())
                ),
                "all 11 generators tangent to the rank-one locus (order 5)": _exact(_generators_tangent(p)),
            }
        )
    return out + merge_reports(reports)


def _generators_tangent(p: ParabolicJet) -> bool:
    """v(u_{j,k} - R_{j,k}) = 0 exactly at the jet, for all generators, order <= 5.

    For each dependent u_{j,k} = R_{j,k}, the row Phi^{jk} of prolonged
    coefficients over the generators equals sum_J dR_{jk}/du_J Phi^J.
    """
    values = {
        VX: rand_rational(random.Random(1)),
        VY: rand_rational(random.Random(2)),
        **p.filled(p.order),
    }
    gens = sa3_generators()
    rows = {J: [p_eval(prolong(g, J), values) for g in gens] for J in p.filled(p.order) if J != (0, 0)}
    view = seeded(p)
    return all(
        chain_rule(view[(j, k)], rows.__getitem__, len(gens)) == rows[(j, k)]
        for j in range(p.order + 1)
        for k in range(2, p.order + 1 - j)
    )


def _surface_sample(branch: str, rng: random.Random) -> Dict[str, dict]:
    """The recurrences at one drawn jet, plus its Cramer solution against the closed-form K."""
    if branch == "Generic":
        p, names = random_parabolic_jet(rng, 8), ("W", "M", "I51")
    else:
        p, names = random_cone_branch_jet(rng, 8), ("X", "Y")
    res = surface_frame(p)
    rep = _recurrences_at_frame(branch, p, res)
    mc = _solve_mc_at_frame(branch, res)
    K1c, K2c = mc_closed_form(branch, **{k: to_float(mc.readings[k]) for k in names})
    rep[f"Cramer solution equals closed-form K ({branch.lower()})"] = _max_record(
        zip(mc.K1 + mc.K2, K1c + K2c, strict=True), 1e-10
    )
    return rep


def _curve_sample(group: str, rng: random.Random) -> Dict[str, dict]:
    """The recurrences at one drawn curve jet, plus its Cramer solution against the printed R."""
    jet = random_curve_jet(rng, 8, affine_floor=0.3 if group == "gl2" else None)
    rep = verify_curve_recurrences(group, jet)
    mc = solve_mc_curve(group, jet)
    if group == "sa2":
        name, expect = "R = (0, P/3, -1)", (0.0, to_float(mc.readings["G4"]) / 3.0, -1.0)
    else:
        eps = mc.readings["eps"]
        I5 = to_float(mc.readings["G5"])
        name, expect = "R = (+-I5/2, +-I5, +-1/3, -1)", (eps * I5 / 2.0, eps * I5, eps / 3.0, -1.0)
    rep[name] = _max_record(zip(mc.K1, expect, strict=True), 1e-6)
    return rep


_RECURRENCE_SAMPLES = {
    "generic": partial(_surface_sample, "Generic"),
    "cone": partial(_surface_sample, "Cone"),
    "curve-sa2": partial(_curve_sample, "sa2"),
    "curve-gl2": partial(_curve_sample, "gl2"),
}


def suite_recurrence(branch: str, seed: int = 0, samples: int = 25) -> List[dict]:
    """Each record holds its identity's own tolerance; surface branches add one commutator jet."""
    if branch not in _RECURRENCE_SAMPLES:
        raise ValueError(f"unknown recurrence branch {branch}")
    rng = random.Random(seed)
    out = merge_reports(_RECURRENCE_SAMPLES[branch](rng) for _ in range(samples))
    if branch == "generic":
        out += merge_reports([verify_commutator("Generic", random_parabolic_jet(rng, 8))])
    elif branch == "cone":
        out += merge_reports([verify_commutator("Cone", random_cone_branch_jet(rng, 8))])
    return out


def _oracle_report(p: ParabolicJet, filled: int, closed) -> Dict[str, dict]:
    res = normalize_parabolic_surface(realize_series(p))
    c = p.filled(filled)
    return {
        f"pipeline reading equals closed form: {k}": identity_record(fn(c), res.readings[k], 1e-8)
        for k, fn in closed
    }


def suite_oracle(seed: int = 0, samples: int = 100) -> List[dict]:
    """Normalization readings against the closed forms, per branch."""
    rng = random.Random(seed)
    generic = (("W", invariant_W), ("M", invariant_M))
    cone = (("X", invariant_X), ("Y", invariant_Y))
    reports = [_oracle_report(random_parabolic_jet(rng, 8), 5, generic) for _ in range(samples)]
    reports += [_oracle_report(random_cone_branch_jet(rng, 8), 7, cone) for _ in range(samples)]
    return merge_reports(reports)


def _transported(p: ParabolicJet, f: TruncatedSeries2, T, filled: int):
    """The filled jet of p and the same coordinates of its image under T."""
    cf = p.filled(filled)
    cg = jets_of_series(apply_affine(f, T))
    return cf, {jk: cg[jk] for jk in cf}


def suite_transfer(seed: int = 0, samples: int = 20) -> List[dict]:
    rng = random.Random(seed)
    reports = []
    done = 0
    while done < samples:
        p = random_parabolic_jet(rng, 8, exact=True)
        f = _centered(realize_series(p))
        T = near_identity_transform(rng)
        hout = hessian_transfer_check(f, T)
        cout = hessian_congruence_check(f, T)
        sout = slope_transfer_check(f, T)
        rep = {
            "Hessian transfer ratio delta^2/Lambda^4 exact": _exact(
                hout["lhs"] == hout["rhs"] and hout["delta"] == 1
            ),
            "Hessian congruence exact": _exact(cout["lhs"] == cout["rhs"]),
            "slope transfer with factor F_xx/Upsilon": identity_record(sout["lhs"], sout["rhs"], 1e-9),
        }
        cf, cg = _transported(p, f, T, 5)
        if abs(to_float(w_numerator(cg))) >= 1e-3:
            rep["W, M unchanged under unimodular maps"] = _max_record(
                ((fn(cf), fn(cg)) for fn in (invariant_W, invariant_M)), 1e-7
            )
            done += 1
        reports.append(rep)
    for _ in range(samples):
        p = random_cone_branch_jet(rng, 8, exact=True)
        f = _centered(realize_series(p))
        cf, cg = _transported(p, f, near_identity_transform(rng), 7)
        reports.append(
            {
                "X, Y unchanged under unimodular maps": _max_record(
                    ((fn(cf), fn(cg)) for fn in (invariant_X, invariant_Y)), 1e-7
                )
            }
        )
    return merge_reports(reports)


def _draw_family(kind: str, rng: random.Random):
    """A rational family of the given kind at order 8, redrawn until it clears the floors."""
    while True:
        if kind == "cylinder":
            prof = TruncatedSeries1(8, {i: rand_rational(rng) for i in range(2, 9)})
            if abs(prof[2]) >= F(1, 4):
                return Cylinder(prof)
        elif kind == "cone":
            cs = {i: rand_rational(rng) for i in range(2, 9)}
            if abs(cs[2]) >= F(1, 4):
                return Cone(TruncatedSeries1(8, cs))
        else:
            avs = {i: rand_rational(rng) for i in range(2, 9)}
            cvs = {i: rand_rational(rng) for i in range(2, 9)}
            if abs(avs[2]) >= F(1, 4) and abs(avs[3] * cvs[2] - avs[2] * cvs[3]) >= F(1, 6):
                return Tangential(TruncatedSeries1(8, avs), TruncatedSeries1(8, cvs))


def suite_classification(seed: int = 0, samples: int = 50) -> List[dict]:
    rng = random.Random(seed)
    out: List[dict] = []
    for kind in ("cylinder", "cone", "tangential"):
        hits = [
            classify(realize_graph(_draw_family(kind, rng), 8)).developable_kind == kind for _ in range(samples)
        ]
        out.append(
            _rec(f"{kind} family round trip", [_exact(h) for h in hits], detail=f"{sum(hits)}/{samples}")
        )

    # cone => W numerator zero exactly; tangential => W^3 = 1/(a3 c2 - a2 c3) exactly
    cones = []
    for _ in range(20):
        g = realize_graph(_draw_family("cone", rng), 8)
        cones.append(_exact(w_numerator(jets_of_series(g).values) == 0))
    out.append(_rec("cone families have exactly vanishing W numerator", cones))
    tangents = []
    for _ in range(20):
        fam = _draw_family("tangential", rng)
        a, c = fam.a, fam.c
        wc = invariant_W_cubed(jets_of_series(realize_graph(fam, 8)).values)
        tangents.append(_exact(wc == 1 / (a[3] * c[2] - a[2] * c[3])))
    out.append(_rec("tangential W^3 = 1/(a3 c2 - a2 c3) exactly", tangents))

    model = TruncatedSeries2(8, {(2, k): F(math.factorial(k)) for k in range(7)})
    res = normalize_parabolic_surface(model)
    ok = res.branch == "Cone[model]" and to_float(res.readings["W"]) == 0 and to_float(res.readings["X"]) == 0
    out.append(_rec("flat-cone model: W = 0 and X = 0", [_exact(ok)]))
    return out


def suite_curves(seed: int = 0, samples: int = 50) -> List[dict]:
    rng = random.Random(seed)
    closed = (
        ("G4", equiaffine_curvature),
        ("G5", conic_invariant),
        ("G6", curve_invariant_F6),
        ("G7", curve_invariant_F7),
    )
    reports = []
    for _ in range(samples):
        jet = random_curve_jet(rng, 8)
        res = normalize_curve_sl2(TruncatedSeries1(8, dict(jet)))
        reports.append(
            {
                f"unimodular curve reading {k} equals printed closed form": identity_record(
                    res.readings[k], fn(jet), 1e-9
                )
                for k, fn in closed
            }
        )
    out = merge_reports(reports)

    # parabola family: P == 0 along u = sqrt(2 g x + h)
    parabolas = []
    for _ in range(10):
        g0 = 0.5 + rng.random()
        h0 = 0.5 + rng.random()
        x0 = rng.random() * 0.5
        root = math.sqrt(2 * g0 * x0 + h0)
        jet = {
            0: 0.0,
            1: g0 / root,
            2: -(g0**2) / root**3,
            3: 3 * g0**3 / root**5,
            4: -15 * g0**4 / root**7,
        }
        parabolas.append(identity_record(equiaffine_curvature(jet), 0.0, 1e-12))
    out.append(_rec("equi-affine curvature vanishes on square-root parabolas", parabolas))

    # conics: C == 0 along u = eps sqrt(1 + eps x^2) - eps (circle / hyperbola)
    conics = []
    for epsv in (1, -1):
        for x in (0.1, 0.3):
            s = math.sqrt(1 + epsv * x * x)
            jet = {
                0: epsv * s - epsv,
                1: x / s,
                2: 1 / s**3,
                3: -3 * epsv * x / s**5,
                4: (12 * x * x - 3 * epsv) / s**7,
                5: (45 * x - 60 * epsv * x**3) / s**9,
            }
            conics.append(identity_record(conic_invariant(jet), 0.0, 1e-10))
    out.append(_rec("conic invariant vanishes on circle and hyperbola arcs", conics))

    # moving frame: substitution of the printed frame yields the curvature
    frames = []
    for _ in range(20):
        jet = random_curve_jet(rng, 8)
        frames.append(identity_record(sa2_frame_fourth_order(jet), equiaffine_curvature(jet), 1e-9))
    out.append(_rec("moving-frame substitution yields the equi-affine curvature", frames))
    return out


def suite_homogeneous(seed: int = 0, samples: int = 3) -> List[dict]:
    """Homogeneous models at fixed inputs; ``samples`` jets per branch for the scaling rows."""
    rng = random.Random(seed)
    out: List[dict] = []
    series = []
    for a, sign in [(F(1), 1), (F(1), -1), (F(3, 7), 1), (F(-5, 4), -1)]:
        I = homogeneous_curve_coefficients(a, sign, 8)
        series.append(_exact(I[6] == 5 + sign * F(3, 2) * a * a and I[7] == 3 * a**3 + sign * 17 * a))
    out.append(_rec("generated coefficients: I6 = 5 +- (3/2) a^2, I7 = 3 a^3 +- 17 a", series))

    tangency = []
    for a, sign in [(F(1), 1), (F(2, 5), -1)]:
        resid = tangency_residual_curve(homogeneous_tangent_field(a, sign), homogeneous_curve_series(a, sign, 10))
        tangency.append(_max_record(((c, 0.0) for c in resid.coeffs.values()), 1e-9))
    out.append(_rec("symmetry field tangent to the order-10 model graph", tangency))

    e1, e2, e3 = cone_symmetry_fields()

    def eq(v, w, sign=1):
        return (v.xi, v.eta, v.phi) == (sign * w.xi, sign * w.eta, sign * w.phi)

    ok = eq(lie_bracket(e1, e2), e3, -1) and eq(lie_bracket(e1, e3), e1, -1) and eq(lie_bracket(e2, e3), e2)
    out.append(_rec("cone symmetry brackets [e1,e2]=-e3, [e1,e3]=-e1, [e2,e3]=e2", [_exact(ok)]))

    truncations = []
    for N in (6, 8, 10):
        f = TruncatedSeries2(N, {(2, k): F(math.factorial(k)) for k in range(N - 1)})
        for e in (e1, e2, e3):
            r = surface_tangency_residual(e, f)
            truncations.append(_exact(all(c == 0 for c in r.coeffs.values())))
    out.append(_rec("cone symmetries tangent to model truncations (exact)", truncations))

    # Euclidean curvature recovered exactly on a rational rotation
    f1, f2 = F(3, 4), F(7, 5)
    c, s = F(4, 5), F(3, 5)
    curve = TruncatedSeries1(3, {1: f1, 2: f2})
    g = apply_affine_curve(curve, CurveTransform2(a=c, b=-s, c=s, d=c))
    ok = g[1] == 0 and g[2] == f2 / F(125, 64) and euclid_curvature({1: f1, 2: f2}) == g[2]
    out.append(_rec("rotation normal form recovers the Euclidean curvature exactly", [_exact(ok)]))

    # the scaling rows D2W = 2W (closed-form operators) and D2X = 3X (frame
    # operators) at sampled jets; on a homogeneous model D2 kills every invariant
    rows = []
    for _ in range(samples):
        p = random_parabolic_jet(rng, 8)
        _, d2w = apply_D_pair(invariant_W, p, invariant_derivatives(p))
        rows.append(identity_record(d2w, 2 * invariant_W(p.filled(4)), 1e-6))
        q = random_cone_branch_jet(rng, 8)
        _, d2x = apply_D_pair(invariant_X, q, frame_derivatives(q))
        rows.append(identity_record(d2x, 3 * invariant_X(q.filled(5)), 1e-6))
    out.append(
        _rec(
            "no homogeneous models with constant nonzero X or W (scaling rows)",
            rows,
            detail="0 = D2X = 3X and 0 = D2W = 2W force the invariants to vanish",
        )
    )
    return out


SUITES = {
    "prolongation": suite_prolongation,
    "oracle": suite_oracle,
    "transfer": suite_transfer,
    "classification": suite_classification,
    "curves": suite_curves,
    "homogeneous": suite_homogeneous,
    **{f"recurrence/{branch}": partial(suite_recurrence, branch) for branch in _RECURRENCE_SAMPLES},
}


def run_suite(name: str, branch: str | None = None, seed: int = 0, samples: int | None = None) -> List[dict]:
    """Run one registered suite; the recurrence suite defaults to its generic branch."""
    if name == "recurrence":
        branch = branch or "generic"
    key = name if branch is None else f"{name}/{branch}"
    if key not in SUITES:
        raise ValueError(f"unknown suite {key!r}; choose from {', '.join(SUITES)}")
    if samples is None:
        return SUITES[key](seed=seed)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    return SUITES[key](seed=seed, samples=samples)
