"""Progressive power-series normalization of curves and rank-one surfaces.

Each loop applies one printed simple matrix that constantifies the next batch
of Taylor coefficients, shrinking the stabilizer subgroup until it is trivial.
The surviving coefficients of the normal form are the differential invariants
read at the base point; running the loops on a realized jet therefore serves
as a brute-force oracle for every closed-form invariant.

Branch tree for surfaces, on the label of
:func:`parajet.invariants.surface_branch` at the base point (Elliptic and
Hyperbolic are refused; a negligible u_xx swaps the horizontal axes first):

* Cylinder (S == 0): the surface is a curve profile times a line; delegate to
  the plane-affine curve normalization, which names Cylinder[Plus|Minus|Parabola].
* otherwise loops force G20=1, G11=0, G21=1, G30=0, G40=0; the order-4 reading
  G31 is the invariant W, where order-too-low stops.
* Generic (W != 0): one more shear kills G41; readings M=G50, I51=G51, I60=G60, ...
* Cone (W == 0): reading X=G50; a final shear kills G60 and Y=G70.
  Cone[model] (W == X == 0) stops at the reading X.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List

from .invariants import (  # the branch errors are re-exported from here
    AmbiguousBranchError,
    BranchError,
    decide,
    invariant_H,
    s_numerator,
    surface_branch,
    swap_axes,
)
from .jets import DerivativeView, ParabolicJet, jets_of_series, realize_series
from .scalars import cbrt, cbrt_frac, snap, sqrt_frac, to_float
from .series import (
    AffineTransform3,
    CurveTransform2,
    TruncatedSeries1,
    TruncatedSeries2,
    apply_affine,
    apply_affine_curve,
)

# Working precision of the loop pipeline.  Float inputs are lifted losslessly
# to rationals; the cube and square roots taken by the loops are replaced by
# dyadic rationals of this many bits, and coefficients are snapped back to the
# same grid between loops so denominators stay bounded.  The readings are then
# accurate to ~2^-PIPELINE_BITS relative, far below every stated tolerance.
PIPELINE_BITS = 128


def _lift(F):
    """The series (either class) with every coefficient a Fraction."""
    coeffs = {key: c if isinstance(c, Fraction) else Fraction(c) for key, c in F.coeffs.items()}
    return type(F)(F.order, coeffs)


def _snap_val(c):
    if isinstance(c, Fraction) and c.denominator.bit_length() > 2 * PIPELINE_BITS:
        return snap(c, PIPELINE_BITS)
    return c


def _snapped(F):
    """The series (either class) with long-denominator coefficients snapped to the pipeline grid."""
    return type(F)(F.order, {key: _snap_val(c) for key, c in F.coeffs.items()})


DEFAULT_TOL = 1e-9


@dataclass
class NormalFormResult:
    branch: str
    normal_series: object
    transform: object
    readings: Dict[str, object] = field(default_factory=dict)
    steps: List[str] = field(default_factory=list)

    def reading(self, name: str):
        return self.readings[name]


# -- curves -------------------------------------------------------------------


def _curve_prenormalize(F: TruncatedSeries1, tol: float):
    """Kill F0 (translation) and F1 (shear u -> u - F1 x); require F2 != 0."""
    steps = []
    T = CurveTransform2.identity()
    G = F
    if G[0] != 0:
        T0 = CurveTransform2(f=G[0])  # u = v + F0
        G = apply_affine_curve(G, T0)
        T = T.then(T0)
        steps.append("translate graph to the origin")
    if G[1] != 0:
        T1 = CurveTransform2(c=G[1])  # u = F1 y + v
        G = apply_affine_curve(G, T1)
        T = T.then(T1)
        steps.append("shear away the first-order term")
    if decide(G[2], [1.0, *G.coeffs.values()], tol):
        raise BranchError("flat curve: second-order coefficient vanishes")
    return G, T, steps


def normalize_curve_sl2(F: TruncatedSeries1, tol: float = DEFAULT_TOL) -> NormalFormResult:
    """Normal form u = x^2/2 + 0 + G4 x^4/4! + ... under unimodular maps.

    The readings G4, G5, ... are the equi-affine curve invariants; a flat
    second-order term raises a branch error.
    """
    G, T, steps = _curve_prenormalize(_lift(F), tol)
    # loop 1: scale so that G2 = 1 (real cube root keeps this total on F2 < 0)
    a = 1 / cbrt_frac(G[2], PIPELINE_BITS)
    T1 = CurveTransform2(a=a, d=1 / a)
    G = _snapped(apply_affine_curve(G, T1))
    T = T.then(T1)
    steps.append("volume-preserving scaling makes the second-order term 1")
    # loop 2: shear kills G3
    if F.order >= 3 and G[3] != 0:
        T2 = CurveTransform2(a=1, b=-G[3] / 3, d=1)
        G = _snapped(apply_affine_curve(G, T2))
        T = T.then(T2)
    steps.append("unipotent shear kills the third-order term")
    readings = {f"G{i}": G[i] for i in range(2, G.order + 1)}
    return NormalFormResult("sl2-curve", G, T, readings, steps)


def normalize_curve_gl2(F: TruncatedSeries1, tol: float = DEFAULT_TOL) -> NormalFormResult:
    """Normal form under all invertible plane-affine maps.

    Branches: Parabola (fourth-order relative invariant vanishes), otherwise
    Plus or Minus according to its sign, with the reading G5 the first
    absolute invariant.
    """
    G, T, steps = _curve_prenormalize(_lift(F), tol)
    if to_float(G[2]) < 0:
        # half-turn pins the residual sign freedom; every reading below is
        # invariant under it, so closed forms and pipeline agree
        Tturn = CurveTransform2(a=-1, d=-1)
        G = apply_affine_curve(G, Tturn)
        T = T.then(Tturn)
        steps.append("half-turn makes the second-order term positive")
    scale = max([1.0] + [abs(to_float(c)) for c in G.coeffs.values()])
    # loop 1: G2 := 1 with diag(1, F2)
    T1 = CurveTransform2(a=1, d=G[2])
    G = apply_affine_curve(G, T1)
    T = T.then(T1)
    steps.append("vertical scaling makes the second-order term 1")
    # loop 2: kill G3
    if F.order >= 3 and G[3] != 0:
        T2 = CurveTransform2(a=1, b=-G[3] / 3, d=1)
        G = apply_affine_curve(G, T2)
        T = T.then(T2)
    steps.append("unipotent shear kills the third-order term")
    if F.order < 4 or decide(G[4], (scale,), tol):
        readings = {f"G{i}": G[i] for i in range(2, G.order + 1)}
        return NormalFormResult("Parabola", G, T, readings, steps)
    # loop 3: G4 := +-1
    eps = 1 if to_float(G[4]) > 0 else -1
    mag = abs(G[4])
    T3 = CurveTransform2(a=1 / sqrt_frac(mag, PIPELINE_BITS), d=1 / mag)
    G = _snapped(apply_affine_curve(G, T3))
    T = T.then(T3)
    steps.append("dilation normalizes the fourth-order term to +-1")
    readings = {f"G{i}": G[i] for i in range(2, G.order + 1)}
    readings["eps"] = eps
    return NormalFormResult("Plus" if eps > 0 else "Minus", G, T, readings, steps)


# -- the plane-affine moving frame for curves ---------------------------------


def sa2_moving_frame(jet: Dict[int, object]):
    """Group parameters (a, b, c, k, m) solved from the order-3 cross-section.

    Requires u2 > 0; for u2 < 0 the jet is first turned by the half-turn
    (x, u) -> (-x, -u), which fixes every even-order closed form.
    """
    u0, u1, u2, u3 = jet[0], jet[1], jet[2], jet[3]
    x = jet.get("x", 0)
    turned = False
    if to_float(u2) < 0:
        # half-turn: u_k -> -(-1)^k u_k, x -> -x
        u0, u1, u2, u3 = -u0, u1, -u2, u3
        x = -x
        turned = True
    c13 = cbrt(u2)
    c53 = c13**5
    a = (3 * u2**2 - u1 * u3) / (3 * c53)
    b = u3 / (3 * c53)
    c = (-3 * x * u2**2 + x * u1 * u3 - u0 * u3) / (3 * c53)
    k = -u1 / c13
    m = (-u0 + x * u1) / c13
    return {"a": a, "b": b, "c": c, "k": k, "m": m, "turned": turned}


def sa2_frame_fourth_order(jet: Dict[int, object]):
    """The order-4 target jet after the moving-frame substitution.

    Substituting the frame into the prolonged fourth-order coordinate yields
    the equi-affine curvature of the curve.
    """
    frame = sa2_moving_frame(jet)
    a, b = frame["a"], frame["b"]
    u1, u2, u3, u4 = jet[1], jet[2], jet[3], jet[4]
    if frame["turned"]:
        u1, u2, u3, u4 = u1, -u2, u3, -u4
    num = (
        -10 * b**2 * u1 * u2 * u3
        - 10 * a * b * u2 * u3
        + 15 * b**2 * u2**3
        + 2 * a * b * u1 * u4
        + b**2 * u1**2 * u4
        + a**2 * u4
    )
    return num / (a + b * u1) ** 7


# -- surfaces ------------------------------------------------------------------


def _nonvanishing(num: TruncatedSeries2, G: TruncatedSeries2, bound: float):
    """The coefficients of a numerator series of G above bound (1 + max(1, |G_jk|)^2)."""
    scale = max([1.0] + [abs(to_float(c)) for c in G.coeffs.values()]) ** 2 + 1.0
    return [(jk, c) for jk, c in num.coeffs.items() if abs(to_float(c)) > bound * scale]


def _check_parabolic(F: TruncatedSeries2, tol: float):
    bad = _nonvanishing(invariant_H(DerivativeView(F)), F, tol)
    if bad:
        jk, c = max(bad, key=lambda it: abs(to_float(it[1])))
        raise BranchError(
            f"surface is not rank-one to the truncation order: Hessian determinant "
            f"coefficient {jk} = {to_float(c):.3e}"
        )


def _surface_prenormalize(F: TruncatedSeries2, tol: float):
    """Translations and transvections, then the branch rule and its axis swap."""
    steps: List[str] = []
    T = AffineTransform3.identity()
    G = F
    if G[(0, 0)] != 0:
        T0 = AffineTransform3(w=G[(0, 0)])
        G = apply_affine(G, T0)
        T = T.then(T0)
        steps.append("translate the graph to the origin")
    if G[(1, 0)] != 0 or G[(0, 1)] != 0:
        T1 = AffineTransform3(p=G[(1, 0)], q=G[(0, 1)])
        G = apply_affine(G, T1)
        T = T.then(T1)
        steps.append("transvection kills the first-order terms")
    base = jets_of_series(G).values
    branch, c = surface_branch(base, tol)
    if branch == "Flat":
        return G, T, steps, branch
    if branch in ("Elliptic", "Hyperbolic"):
        raise BranchError(f"surface is {branch.lower()} at the base point; the loops need a rank-one Hessian")
    if c is not base:
        # swap the horizontal axes: x = t', y = -s' keeps the volume form
        G = TruncatedSeries2(G.order, swap_axes(G.coeffs))
        T = T.then(AffineTransform3(a=Fraction(0), b=Fraction(1), k=Fraction(-1), l=Fraction(0)))
        steps.append("swap horizontal axes so that u_xx != 0")
    _check_parabolic(G, tol)
    return G, T, steps, branch


def normalize_parabolic_surface(
    F: TruncatedSeries2, tol: float = DEFAULT_TOL
) -> NormalFormResult:
    """Run the normalization loops on a rank-one graphed surface.

    Returns the branch label, the normal-form series, the composed transform
    acting on the original series, and the invariant readings.
    """
    G, T, steps, branch = _surface_prenormalize(_lift(F), tol)
    if branch == "Flat":
        return NormalFormResult("Flat", G, T, {}, steps + ["flat: zero Hessian"])

    # loop 1: G20 := 1, G11 := 0
    f20, f11 = G[(2, 0)], G[(1, 1)]
    c3 = cbrt_frac(f20, PIPELINE_BITS)
    T1 = AffineTransform3(a=1 / c3, b=-f11 / f20, r=c3)
    G = _snapped(apply_affine(G, T1))
    T = T.then(T1)
    steps.append("scale and shear: second-order terms become s^2/2")
    if branch == "Cylinder":
        return _cylinder_branch(G, T, steps, tol)

    # loop 2: G21 := 1, G30 := 0
    f21, f30 = G[(2, 1)], G[(3, 0)]
    r3 = cbrt_frac(f21, PIPELINE_BITS)
    T2 = AffineTransform3(
        a=r3, k=-f30 / (3 * r3 * r3), l=1 / f21, r=r3 * r3
    )
    G = _snapped(apply_affine(G, T2))
    T = T.then(T2)
    steps.append("scalings and shear: third-order terms become s^2 t / 2")

    # loop 3: G40 := 0
    if F.order >= 4 and G[(4, 0)] != 0:
        T3 = AffineTransform3(m=-G[(4, 0)] / 6)
        G = _snapped(apply_affine(G, T3))
        T = T.then(T3)
    steps.append("vertical transvection kills the pure fourth-order term")

    readings: Dict[str, object] = {}
    W = G[(3, 1)] if F.order >= 4 else 0
    readings["W"] = W
    if branch == "order-too-low":
        return NormalFormResult(branch, G, T, readings, steps)
    if branch != "Generic":
        return _cone_branch(G, T, readings, steps, tol, branch)

    # generic branch, loop 4: G41 := 0
    c = G[(4, 1)] / (2 * W)
    T4 = AffineTransform3(c=c, k=-c, m=2 * c * W / 3 - c * c / 2)
    G = _snapped(apply_affine(G, T4))
    T = T.then(T4)
    steps.append("residual shear kills the (4,1) coefficient")
    readings["W"] = G[(3, 1)]
    readings["M"] = G[(5, 0)]
    for j in range(5, G.order + 1):
        readings[f"I{j}0"] = G[(j, 0)]
    for j in range(5, G.order):
        readings[f"I{j}1"] = G[(j, 1)]
    return NormalFormResult("Generic", G, T, readings, steps)


def _cylinder_branch(G, T, steps, tol) -> NormalFormResult:
    """S == 0: the normal form is a curve profile; delegate to the curve loops.

    The slope invariant must vanish identically, which is checked on the jet
    coefficients of its numerator to the truncation order.
    """
    if _nonvanishing(s_numerator(DerivativeView(G)), G, 1e3 * tol):
        raise BranchError(
            "third-order slope invariant vanishes at the base point but not "
            "identically; mixed-type surfaces are excluded"
        )
    profile = G.x_profile()
    res = normalize_curve_gl2(profile, tol)
    (ca, cb, cc, cd) = (res.transform.a, res.transform.b, res.transform.c, res.transform.d)
    det2 = res.transform.det()
    embed = AffineTransform3(
        a=ca, c=cb, p=cc, r=cd, l=1 / det2, d=res.transform.e, w=res.transform.f
    )
    T = T.then(embed)
    n = G.order
    normal = TruncatedSeries2(n, {(j, 0): c for j, c in res.normal_series.coeffs.items()})
    readings = {"curve_" + k: v for k, v in res.readings.items()}
    return NormalFormResult(
        f"Cylinder[{res.branch}]", normal, T, readings, steps + ["profile curve loops"] + res.steps
    )


def _cone_branch(G, T, readings, steps, tol, branch) -> NormalFormResult:
    low = max(
        [1.0]
        + [abs(to_float(c)) for jk, c in G.coeffs.items() if jk[0] + jk[1] <= 5]
    )
    if G.order >= 5 and abs(to_float(G[(4, 1)])) > 1e3 * tol * low:
        raise BranchError(
            "fourth-order invariant vanishes at the point but its differential "
            "consequences fail; the jet is not on the cone sub-branch"
        )
    X = G[(5, 0)]
    readings["X"] = X
    if branch == "Cone[model]":
        readings["Y"] = None
        return NormalFormResult("Cone[model]", G, T, readings, steps + ["flat-cone model reached"])
    if G.order >= 6:
        # final shear kills G60 (only possible on X != 0)
        c = G[(6, 0)] / (3 * X)
        T5 = AffineTransform3(c=c, k=-c, m=-c * c / 2)
        G = _snapped(apply_affine(G, T5))
        T = T.then(T5)
        steps.append("last shear kills the pure sixth-order term")
        readings["X"] = G[(5, 0)]
        if G.order >= 7:
            readings["Y"] = G[(7, 0)]
        for j in range(8, G.order + 1):
            readings[f"I{j}0"] = G[(j, 0)]
    return NormalFormResult("Cone", G, T, readings, steps)


def surface_frame(p: ParabolicJet, tol: float = DEFAULT_TOL) -> NormalFormResult:
    """The normal form of the realized jet on a branch that carries a moving frame.

    Raises :class:`BranchError` on every other branch (flat, cylinder,
    order-too-low).
    """
    res = normalize_parabolic_surface(realize_series(p), tol)
    if res.branch not in ("Generic", "Cone", "Cone[model]"):
        raise BranchError(f"no surface moving frame on branch {res.branch}")
    return res


def surface_frame_operators(res: NormalFormResult, fx, fy):
    """Coefficients (alpha, beta, gamma, delta) of the invariant derivations.

    From the composed moving-frame transform: with (s, t) the first two
    forward components restricted to the graph, the operators are
    (D1; D2) = M^{-1} (D_x; D_y) for M = [[Dx s, Dx t], [Dy s, Dy t]].
    """
    A = res.transform.inverse_matrix()
    dxs = A[0][0] + A[0][2] * fx
    dys = A[0][1] + A[0][2] * fy
    dxt = A[1][0] + A[1][2] * fx
    dyt = A[1][1] + A[1][2] * fy
    det = dxs * dyt - dxt * dys
    alpha = dyt / det
    beta = -dxt / det
    gamma = -dys / det
    delta = dxs / det
    return alpha, beta, gamma, delta
