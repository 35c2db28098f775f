"""Verification suites: each runs seeded samples and reports per-identity status.

Every suite returns a list of records {name, pass, worst_residual, samples};
failures carry the offending sample jet so a human can audit the call.  The
CLI prints these as stable-keyed JSON, and the acceptance tests assert on
them directly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

from .classify import Cone, Cylinder, Tangential, classify, realize_graph
from .invariants import (
    conic_invariant,
    curve_invariant_F6,
    curve_invariant_F7,
    equiaffine_curvature,
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
from .jets import ParabolicJet, jets_of_series, realize_series
from .normalize import (
    normalize_curve_sl2,
    normalize_parabolic_surface,
    sa2_frame_fourth_order,
)
from .prolong import (
    det_poly_matrix,
    orbit_rank,
    order2_matrix_symbolic,
    p_eval,
    poly,
    prolong,
    sa3_generators,
    tangency_quotients,
)
from .recurrence import (
    apply_D,
    cone_symmetry_fields,
    frame_derivatives,
    homogeneous_curve_coefficients,
    homogeneous_curve_series,
    homogeneous_tangent_field,
    identity_record,
    invariant_derivatives,
    mc_closed_form,
    solve_mc_curve,
    solve_mc_surface,
    surface_tangency_residual,
    tangency_residual_curve,
    verify_commutator,
    verify_curve_recurrences,
    verify_recurrences,
)
from .sampling import (
    rand_rational,
    random_cone_branch_jet,
    random_curve_jet,
    random_parabolic_jet,
)
from .scalars import Sens, to_float
from .series import TruncatedSeries1, TruncatedSeries2


def _rec(name: str, ok: bool, worst: float, samples: int, detail=None) -> dict:
    out = {"name": name, "pass": bool(ok), "worst_residual": worst, "samples": samples}
    if detail is not None:
        out["detail"] = detail
    return out


def suite_prolongation(seed: int = 0, samples: int = 20, tol: float = 0.0) -> List[dict]:
    rng = random.Random(seed)
    out: List[dict] = []

    quotients = tangency_quotients()
    expect = [
        poly((-4, {})),
        poly((-4, {})),
        {},
        poly((-4, {(1, 0): 1})),
        {},
        poly((-4, {(0, 1): 1})),
    ]
    ok = quotients == expect
    out.append(_rec("tangency quotients = (-4, -4, 0, -4 u10, 0, -4 u01)", ok, 0.0, 1))

    det7 = det_poly_matrix(order2_matrix_symbolic())
    out.append(_rec("order-2 block determinant = u20^2 (symbolic)", det7 == poly((1, {(2, 0): 2})), 0.0, 1))

    all_rank7 = True
    all_det0 = True
    all_rank5 = True
    minors_nonzero = True
    tangency_ok = True
    for _ in range(samples):
        p = random_parabolic_jet(rng, 6, exact=True, generic_floor=None)
        base = (rand_rational(rng), rand_rational(rng))
        r2 = orbit_rank(2, p, base)
        all_rank7 &= r2["rank"] == 7 and r2["det7"] == p.coords[(2, 0)] ** 2
        r4 = orbit_rank(4, p, base)
        all_det0 &= r4["block_det"] == 0
        all_rank5 &= r4["block_rank"] == 5
        minors_nonzero &= any(v != 0 for v in r4["minors"].values())
        tangency_ok &= _generators_tangent(p)
    out.append(_rec("order-2 rank 7 with determinant u20^2 (exact samples)", all_rank7, 0.0, samples))
    out.append(_rec("order-4 block determinant vanishes (exact samples)", all_det0, 0.0, samples))
    out.append(_rec("order-4 block rank 5 (exact samples)", all_rank5, 0.0, samples))
    out.append(_rec("order-4 key minors not simultaneously zero", minors_nonzero, 0.0, samples))
    out.append(_rec("all 11 generators tangent to the rank-one locus (order 5)", tangency_ok, 0.0, samples))
    return out


def _generators_tangent(p: ParabolicJet) -> bool:
    """v(u_{j,k} - R_{j,k}) = 0 exactly at the jet, for all generators, order <= 5."""
    from .prolong import X as VX, Y as VY

    values = {
        VX: rand_rational(random.Random(1)),
        VY: rand_rational(random.Random(2)),
        **p.filled(p.order),
    }
    seeded = {key: Sens.seed(val, key) for key, val in p.coords.items()}
    from .jets import _FilledView

    view = _FilledView(seeded, p.order)
    for g in sa3_generators():
        phis = {}
        for j in range(p.order + 1):
            for k in range(p.order + 1 - j):
                if j + k >= 1:
                    phis[(j, k)] = p_eval(prolong(g, (j, k)), values)
        for j in range(p.order + 1):
            for k in range(2, p.order + 1 - j):
                target = view[(j, k)]
                # v(g_{jk}) = Phi^{jk} - sum dR/du_ab Phi^{ab}
                resid = phis[(j, k)]
                if isinstance(target, Sens):
                    for key, sens in target.partials.items():
                        resid = resid - sens * phis[key]
                if resid != 0:
                    return False
    return True


def suite_recurrence(
    branch: str, seed: int = 0, samples: int = 25, tol: float = 1e-6
) -> List[dict]:
    rng = random.Random(seed)
    out: List[dict] = []
    worst: Dict[str, float] = {}
    count = 0
    if branch == "generic":
        closed_vs_numeric = 0.0
        for _ in range(samples):
            p = random_parabolic_jet(rng, 8)
            rep = verify_recurrences("Generic", p)
            for k, v in rep.items():
                worst[k] = max(worst.get(k, 0.0), v["residual"])
            mc = solve_mc_surface("Generic", p)
            K1c, K2c = mc_closed_form(
                "Generic",
                W=to_float(mc.readings["W"]),
                M=to_float(mc.readings["M"]),
                I51=to_float(mc.readings["I51"]),
            )
            for a, b in zip(mc.K1 + mc.K2, K1c + K2c):
                closed_vs_numeric = max(closed_vs_numeric, abs(to_float(a) - to_float(b)))
            count += 1
        for k, v in worst.items():
            out.append(_rec(k, v <= tol if "det(D)" not in k else v <= 1e-10, v, count))
        out.append(
            _rec("Cramer solution equals closed-form K (generic)", closed_vs_numeric <= 1e-10, closed_vs_numeric, count)
        )
        p = random_parabolic_jet(rng, 8)
        repc = verify_commutator("Generic", p)
        for k, v in repc.items():
            out.append(_rec(k, v["residual"] <= 1e-5, v["residual"], 1))
    elif branch == "cone":
        closed_vs_numeric = 0.0
        for _ in range(samples):
            p = random_cone_branch_jet(rng, 8)
            rep = verify_recurrences("Cone", p)
            for k, v in rep.items():
                worst[k] = max(worst.get(k, 0.0), v["residual"])
            mc = solve_mc_surface("Cone", p)
            K1c, K2c = mc_closed_form(
                "Cone", X=to_float(mc.readings["X"]), Y=to_float(mc.readings["Y"])
            )
            for a, b in zip(mc.K1 + mc.K2, K1c + K2c):
                closed_vs_numeric = max(closed_vs_numeric, abs(to_float(a) - to_float(b)))
            count += 1
        for k, v in worst.items():
            out.append(_rec(k, v <= tol, v, count))
        out.append(
            _rec("Cramer solution equals closed-form K (cone)", closed_vs_numeric <= 1e-10, closed_vs_numeric, count)
        )
        p = random_cone_branch_jet(rng, 8)
        repc = verify_commutator("Cone", p)
        for k, v in repc.items():
            out.append(_rec(k, v["residual"] <= 1e-5, v["residual"], 1))
    elif branch == "curve-sa2":
        for _ in range(samples):
            jet = random_curve_jet(rng, 8)
            rep = verify_curve_recurrences("sa2", jet)
            for k, v in rep.items():
                worst[k] = max(worst.get(k, 0.0), v["residual"])
            mc = solve_mc_curve("sa2", jet)
            G4 = mc.readings["G4"]
            resid = max(
                abs(to_float(mc.K1[0])),
                abs(to_float(mc.K1[1]) - to_float(G4) / 3.0),
                abs(to_float(mc.K1[2]) + 1.0),
            )
            worst["R = (0, P/3, -1)"] = max(worst.get("R = (0, P/3, -1)", 0.0), resid)
            count += 1
        for k, v in worst.items():
            out.append(_rec(k, v <= tol, v, count))
    elif branch == "curve-gl2":
        for _ in range(samples):
            jet = random_curve_jet(rng, 8, affine_floor=0.3)
            rep = verify_curve_recurrences("gl2", jet)
            for k, v in rep.items():
                worst[k] = max(worst.get(k, 0.0), v["residual"])
            mc = solve_mc_curve("gl2", jet)
            eps = mc.readings["eps"]
            I5 = to_float(mc.readings["G5"])
            expect = [eps * I5 / 2.0, eps * I5, eps / 3.0, -1.0]
            resid = max(abs(to_float(a) - b) for a, b in zip(mc.K1, expect))
            worst["R = (+-I5/2, +-I5, +-1/3, -1)"] = max(
                worst.get("R = (+-I5/2, +-I5, +-1/3, -1)", 0.0), resid
            )
            count += 1
        for k, v in worst.items():
            out.append(_rec(k, v <= tol, v, count))
    else:
        raise ValueError(f"unknown recurrence branch {branch}")
    return out


def suite_oracle(seed: int = 0, samples: int = 100, tol: float = 1e-8) -> List[dict]:
    """Normalization readings against the closed forms, per branch."""
    rng = random.Random(seed)
    worst = {"W": 0.0, "M": 0.0, "X": 0.0, "Y": 0.0}
    for _ in range(samples):
        p = random_parabolic_jet(rng, 8)
        res = normalize_parabolic_surface(realize_series(p))
        c = p.filled(5)
        for name, fn in (("W", invariant_W), ("M", invariant_M)):
            a, b = to_float(fn(c)), to_float(res.readings[name])
            worst[name] = max(worst[name], abs(a - b) / (1.0 + max(abs(a), abs(b))))
    for _ in range(samples):
        p = random_cone_branch_jet(rng, 8)
        res = normalize_parabolic_surface(realize_series(p))
        c = p.filled(7)
        for name, fn in (("X", invariant_X), ("Y", invariant_Y)):
            a, b = to_float(fn(c)), to_float(res.readings[name])
            worst[name] = max(worst[name], abs(a - b) / (1.0 + max(abs(a), abs(b))))
    return [
        _rec(f"pipeline reading equals closed form: {k}", v <= tol, v, samples)
        for k, v in worst.items()
    ]


def suite_transfer(seed: int = 0, samples: int = 20, tol: float = 1e-7) -> List[dict]:
    from .sampling import near_identity_transform
    from .series import apply_affine

    rng = random.Random(seed)
    out: List[dict] = []
    exact_h = exact_congr = True
    worst_s = 0.0
    worst_abs = 0.0
    done = 0
    while done < samples:
        p = random_parabolic_jet(rng, 8, exact=True)
        f = realize_series(p)
        f = TruncatedSeries2(f.order, {jk: c for jk, c in f.coeffs.items() if jk != (0, 0)})
        T = near_identity_transform(rng)
        hout = hessian_transfer_check(f, T)
        exact_h &= hout["lhs"] == hout["rhs"] and hout["delta"] == 1
        cout = hessian_congruence_check(f, T)
        exact_congr &= cout["lhs"] == cout["rhs"]
        sout = slope_transfer_check(f, T)
        worst_s = max(
            worst_s, abs(to_float(sout["lhs"]) - to_float(sout["rhs"])) / (1 + abs(to_float(sout["lhs"])))
        )
        g = apply_affine(f, T)
        cf = p.filled(5)
        cg = jets_of_series(g)
        cgv = {jk: cg[jk] for jk in cf}
        if abs(to_float(w_numerator(cgv))) < 1e-3:
            continue
        for fn in (invariant_W, invariant_M):
            a, b = to_float(fn(cf)), to_float(fn(cgv))
            worst_abs = max(worst_abs, abs(a - b) / (1.0 + max(abs(a), abs(b))))
        done += 1
    out.append(_rec("Hessian transfer ratio delta^2/Lambda^4 exact", exact_h, 0.0, samples))
    out.append(_rec("Hessian congruence exact", exact_congr, 0.0, samples))
    out.append(_rec("slope transfer with factor F_xx/Upsilon", worst_s <= 1e-9, worst_s, samples))
    out.append(_rec("W, M unchanged under unimodular maps", worst_abs <= tol, worst_abs, samples))

    worst_cone = 0.0
    done = 0
    while done < samples:
        p = random_cone_branch_jet(rng, 8, exact=True)
        f = realize_series(p)
        f = TruncatedSeries2(f.order, {jk: c for jk, c in f.coeffs.items() if jk != (0, 0)})
        T = near_identity_transform(rng)
        g = apply_affine(f, T)
        cf = p.filled(7)
        cg = jets_of_series(g)
        cgv = {jk: cg[jk] for jk in cf}
        for fn in (invariant_X, invariant_Y):
            a, b = to_float(fn(cf)), to_float(fn(cgv))
            worst_cone = max(worst_cone, abs(a - b) / (1.0 + max(abs(a), abs(b))))
        done += 1
    out.append(_rec("X, Y unchanged under unimodular maps", worst_cone <= tol, worst_cone, samples))
    return out


def suite_classification(seed: int = 0, samples: int = 50, tol: float = 1e-9) -> List[dict]:
    rng = random.Random(seed)
    out: List[dict] = []

    def rnd():
        return rand_rational(rng)

    counts = {"cylinder": 0, "cone": 0, "tangential": 0}
    for kind in counts:
        t = 0
        while t < samples:
            if kind == "cylinder":
                prof = TruncatedSeries1(8, {i: rnd() for i in range(2, 9)})
                if abs(prof[2]) < Fraction(1, 4):
                    continue
                fam = Cylinder(prof)
            elif kind == "cone":
                cs = {i: rnd() for i in range(2, 9)}
                if abs(cs[2]) < Fraction(1, 4):
                    continue
                fam = Cone(TruncatedSeries1(8, cs))
            else:
                avs = {i: rnd() for i in range(2, 9)}
                cvs = {i: rnd() for i in range(2, 9)}
                if abs(avs[2]) < Fraction(1, 4):
                    continue
                if abs(avs[3] * cvs[2] - avs[2] * cvs[3]) < Fraction(1, 6):
                    continue
                fam = Tangential(TruncatedSeries1(8, avs), TruncatedSeries1(8, cvs))
            t += 1
            got = classify(realize_graph(fam, 8), tol=tol)
            counts[kind] += got.developable_kind == kind
    for kind, ok in counts.items():
        out.append(_rec(f"{kind} family round trip", ok == samples, 0.0, samples, detail=f"{ok}/{samples}"))

    # cone => W numerator zero exactly; tangential => W^3 = 1/(a3 c2 - a2 c3) exactly
    exact_cone = exact_tang = True
    for _ in range(20):
        cs = {i: rnd() for i in range(2, 9)}
        if abs(cs[2]) < Fraction(1, 4):
            continue
        g = realize_graph(Cone(TruncatedSeries1(8, cs)), 8)
        exact_cone &= w_numerator(jets_of_series(g).values) == 0
    for _ in range(20):
        avs = {i: rnd() for i in range(2, 9)}
        cvs = {i: rnd() for i in range(2, 9)}
        if abs(avs[2]) < Fraction(1, 4) or avs[3] * cvs[2] - avs[2] * cvs[3] == 0:
            continue
        g = realize_graph(Tangential(TruncatedSeries1(8, avs), TruncatedSeries1(8, cvs)), 8)
        wc = invariant_W_cubed(jets_of_series(g).values)
        exact_tang &= wc == 1 / (avs[3] * cvs[2] - avs[2] * cvs[3])
    out.append(_rec("cone families have exactly vanishing W numerator", exact_cone, 0.0, 20))
    out.append(_rec("tangential W^3 = 1/(a3 c2 - a2 c3) exactly", exact_tang, 0.0, 20))

    import math

    model = TruncatedSeries2(8, {(2, k): Fraction(math.factorial(k)) for k in range(7)})
    res = normalize_parabolic_surface(model)
    ok = res.branch == "Cone[model]" and to_float(res.readings["W"]) == 0 and to_float(res.readings["X"]) == 0
    out.append(_rec("flat-cone model: W = 0 and X = 0", ok, 0.0, 1))
    return out


def suite_curves(seed: int = 0, samples: int = 50, tol: float = 1e-9) -> List[dict]:
    rng = random.Random(seed)
    out: List[dict] = []
    worst = {"G4": 0.0, "G5": 0.0, "G6": 0.0, "G7": 0.0}
    for _ in range(samples):
        jet = random_curve_jet(rng, 8)
        F = TruncatedSeries1(8, dict(jet))
        res = normalize_curve_sl2(F)
        closed = {
            "G4": equiaffine_curvature(jet),
            "G5": conic_invariant(jet),
            "G6": curve_invariant_F6(jet),
            "G7": curve_invariant_F7(jet),
        }
        for k, v in closed.items():
            a, b = to_float(res.readings[k]), to_float(v)
            worst[k] = max(worst[k], abs(a - b) / (1.0 + max(abs(a), abs(b))))
    for k, v in worst.items():
        out.append(_rec(f"unimodular curve reading {k} equals printed closed form", v <= tol, v, samples))

    # parabola family: P == 0 along u = d x + e + sqrt(2 g x + h)
    ok_parab = True
    for _ in range(10):
        d0, e0 = rand_rational(rng), rand_rational(rng)
        g0 = rand_rational(rng, 1, 3)
        h0 = rand_rational(rng, 1, 3)
        x0 = rand_rational(rng, 0, 1, den=8)
        s0 = to_float(2 * g0 * x0 + h0)
        import math as _m

        root = _m.sqrt(s0)
        u1 = to_float(d0) + to_float(g0) / root
        u2v = -to_float(g0) ** 2 / root**3
        u3v = 3 * to_float(g0) ** 3 / root**5
        u4v = -15 * to_float(g0) ** 4 / root**7
        jet = {0: 0.0, 1: u1, 2: u2v, 3: u3v, 4: u4v}
        ok_parab &= abs(to_float(equiaffine_curvature(jet))) < 1e-12
    out.append(_rec("equi-affine curvature vanishes on square-root parabolas", ok_parab, 0.0, 10))

    # conics: C == 0 along u = eps sqrt(1 + eps x^2) - eps (circle / hyperbola)
    import math as _m

    ok_conic = True
    for epsv in (1, -1):
        for x in (0.1, 0.35):
            s = _m.sqrt(1 + epsv * x * x)
            jet = {
                0: epsv * s - epsv,
                1: x / s,
                2: 1 / s**3,
                3: -3 * epsv * x / s**5,
                4: (12 * x * x - 3 * epsv) / s**7,
                5: (45 * x - 60 * epsv * x**3) / s**9,
            }
            ok_conic &= abs(to_float(conic_invariant(jet))) < 1e-10
    out.append(_rec("conic invariant vanishes on circle and hyperbola arcs", ok_conic, 0.0, 4))

    # moving frame: substitution of the printed frame yields the curvature
    worst_mf = 0.0
    for _ in range(20):
        jet = random_curve_jet(rng, 8)
        got = to_float(sa2_frame_fourth_order(jet))
        expect = to_float(equiaffine_curvature(jet))
        worst_mf = max(worst_mf, abs(got - expect) / (1.0 + abs(expect)))
    out.append(_rec("moving-frame substitution yields the equi-affine curvature", worst_mf <= 1e-9, worst_mf, 20))
    return out


def suite_homogeneous(seed: int = 0, tol: float = 1e-9) -> List[dict]:
    rng = random.Random(seed)
    out: List[dict] = []
    F = Fraction
    ok = True
    for a, sign in [(F(1), 1), (F(2, 3), -1), (F(-3, 5), 1)]:
        I = homogeneous_curve_coefficients(a, sign, 8)
        ok &= I[6] == 5 + sign * F(3, 2) * a * a
        ok &= I[7] == 3 * a**3 + sign * 17 * a
    out.append(_rec("generated coefficients: I6 = 5 +- (3/2) a^2, I7 = 3 a^3 +- 17 a", ok, 0.0, 3))

    worst = 0.0
    for a, sign in [(F(1), 1), (F(2, 5), -1)]:
        Fs = homogeneous_curve_series(a, sign, 10)
        L = homogeneous_tangent_field(a, sign)
        resid = tangency_residual_curve(L, Fs)
        worst = max([worst] + [abs(to_float(c)) for c in resid.coeffs.values()])
    out.append(_rec("symmetry field tangent to the order-10 model graph", worst <= 1e-9, worst, 2))

    from .prolong import lie_bracket, p_neg, p_sub

    e1, e2, e3 = cone_symmetry_fields()

    def eqneg(v, w):
        return (
            p_sub(v.xi, p_neg(w.xi)) == {}
            and p_sub(v.eta, p_neg(w.eta)) == {}
            and p_sub(v.phi, p_neg(w.phi)) == {}
        )

    def eq(v, w):
        return p_sub(v.xi, w.xi) == {} and p_sub(v.eta, w.eta) == {} and p_sub(v.phi, w.phi) == {}

    ok = eqneg(lie_bracket(e1, e2), e3) and eqneg(lie_bracket(e1, e3), e1) and eq(lie_bracket(e2, e3), e2)
    out.append(_rec("cone symmetry brackets [e1,e2]=-e3, [e1,e3]=-e1, [e2,e3]=e2", ok, 0.0, 1))

    import math

    ok = True
    for N in (6, 8, 10):
        f = TruncatedSeries2(N, {(2, k): F(math.factorial(k)) for k in range(N - 1)})
        for e in (e1, e2, e3):
            r = surface_tangency_residual(e, f)
            ok &= all(c == 0 for c in r.coeffs.values())
    out.append(_rec("cone symmetries tangent to model truncations (exact)", ok, 0.0, 9))

    # Euclidean curvature recovered exactly on a rational rotation
    from .invariants import euclid_curvature
    from .series import CurveTransform2, apply_affine_curve

    f1, f2 = F(3, 4), F(7, 5)
    c, s = F(4, 5), F(3, 5)
    curve = TruncatedSeries1(3, {1: f1, 2: f2})
    g = apply_affine_curve(curve, CurveTransform2(a=c, b=-s, c=s, d=c))
    ok = g[1] == 0 and g[2] == f2 / F(125, 64) and euclid_curvature({1: f1, 2: f2}) == g[2]
    out.append(_rec("rotation normal form recovers the Euclidean curvature exactly", ok, 0.0, 1))

    # the scaling rows D2W = 2W (closed-form operators) and D2X = 3X (frame
    # operators) at sampled jets; on a homogeneous model D2 kills every invariant
    worst = 0.0
    for _ in range(3):
        p = random_parabolic_jet(rng, 8)
        d2w = apply_D(2, invariant_W, p, invariant_derivatives(p))
        worst = max(worst, identity_record(d2w, 2 * invariant_W(p.filled(4)), 1e-6)["residual"])
        q = random_cone_branch_jet(rng, 8)
        d2x = apply_D(2, invariant_X, q, frame_derivatives(q, tol))
        worst = max(worst, identity_record(d2x, 3 * invariant_X(q.filled(5)), 1e-6)["residual"])
    out.append(
        _rec(
            "no homogeneous models with constant nonzero X or W (scaling rows)",
            worst <= 1e-6,
            worst,
            6,
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
}


def run_suite(name: str, branch: str | None = None, seed: int = 0, samples: int | None = None, tol: float | None = None) -> List[dict]:
    if name == "recurrence":
        kwargs = {"seed": seed}
        if samples is not None:
            kwargs["samples"] = samples
        if tol is not None:
            kwargs["tol"] = tol
        return suite_recurrence(branch or "generic", **kwargs)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES) + ['recurrence']}")
    fn = SUITES[name]
    kwargs = {"seed": seed}
    if samples is not None:
        kwargs["samples"] = samples
    if tol is not None:
        kwargs["tol"] = tol
    import inspect

    sig = inspect.signature(fn)
    kwargs = {k: v for k, v in kwargs.items() if k in sig.parameters}
    return fn(**kwargs)
