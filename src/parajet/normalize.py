"""Progressive power-series normalization of curves and rank-one surfaces.

Each loop applies one printed simple matrix that constantifies the next batch
of Taylor coefficients, shrinking the stabilizer subgroup until it is trivial.
The surviving coefficients of the normal form are the differential invariants
read at the base point; running the loops on a realized jet therefore serves
as a brute-force oracle for every closed-form invariant.  One runner applies
and records every loop; the moving frame, the composite of the recorded
loops, is composed when read.  Loops are exact up to the run's first root and
snapped to the 2^-PIPELINE_BITS grid after it.  From the first inexact root
on they run in certified fixed point, each output coefficient within
2^-PIPELINE_BITS of the exact image of the loop's input under its recorded
transform (see :mod:`parajet.series`), and the series passes from loop to
loop as integer numerators over 2^PIPELINE_BITS.

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

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List

from .invariants import (  # the branch errors and DEFAULT_TOL are re-exported from here
    DEFAULT_TOL,
    AmbiguousBranchError,
    BranchError,
    decide,
    h_terms,
    s_numerator,
    surface_branch,
    swap_axes,
)
from .jets import DerivativeView, ParabolicJet, jets_of_series, realize_series
from .scalars import cbrt, cbrt_frac, snap, sqrt_frac, to_float
from .series import (
    AffineTransform3,
    CurveTransform2,
    GridSeries,
    Poly2,
    TruncatedSeries1,
    TruncatedSeries2,
    apply_affine,
    apply_affine_curve,
)

# Working precision of the loop pipeline.  Float inputs are lifted losslessly
# to rationals; the cube and square roots taken by the loops are replaced by
# rationals within 2^-PIPELINE_BITS relative, and from the first root on every
# loop's output lies on (or is snapped to) the 2^-PIPELINE_BITS grid so
# denominators stay bounded.  The readings are then accurate to
# ~2^-PIPELINE_BITS relative, far below every stated tolerance.
PIPELINE_BITS = 128


def _snapped(F):
    """The exact series (either class) with long-denominator coefficients snapped to the pipeline grid.

    Only exactly rooted runs and the exact fallback of a certified loop need it: a certified loop's
    output lies on the grid already.
    """
    return type(F)(F.order, {
        key: snap(c, PIPELINE_BITS) if c.denominator.bit_length() > 2 * PIPELINE_BITS else c
        for key, c in F.coeffs.items()
    })


@dataclass
class NormalFormResult:
    branch: str
    normal_series: object
    loops: List[object]
    readings: Dict[str, object] = field(default_factory=dict)
    steps: List[str] = field(default_factory=list)

    @property
    def transform(self):
        """The moving frame acting on the input series: the loop transforms, composed when read."""
        return functools.reduce(lambda T, Ti: T.then(Ti), self.loops)


class _Run:
    """One normalization: the series, its loop transforms (the identity first) and the step notes.

    Roots are taken only through :meth:`root`.  From the first one on, :meth:`loop`
    snaps; from the first inexact one on, its loops run in certified fixed point and
    the series is held as a :class:`GridSeries`, or snapped where a certificate
    failed and the exact kernel ran.  ``run[key]`` reads one coefficient, ``run.G``
    the whole series.
    """

    def __init__(self, F):
        self.curve = isinstance(F, TruncatedSeries1)
        lift = {key: c if isinstance(c, Fraction) else Fraction(c) for key, c in F.coeffs.items()}
        self.F = type(F)(F.order, lift)  # exact lift, each Fraction kept as it is
        self.loops = [CurveTransform2.identity() if self.curve else AffineTransform3.identity()]
        self.steps: List[str] = []
        self.rooted = self.approximated = False

    def __getitem__(self, key):
        return self.F[key]

    @property
    def G(self):
        return self.F.series() if isinstance(self.F, GridSeries) else self.F

    def root(self, fn, x):
        """``fn`` (:func:`cbrt_frac` or :func:`sqrt_frac`) of x at the pipeline precision."""
        r = fn(x, PIPELINE_BITS)
        self.rooted = True
        self.approximated |= r ** (3 if fn is cbrt_frac else 2) != x
        return r

    def loop(self, T, note: str):
        """Apply and record T; T None means the coefficient is already normal, and the note stands."""
        if T is not None:
            grid = PIPELINE_BITS if self.approximated else None
            G = apply_affine_curve(self.F, T, grid) if self.curve else apply_affine(self.F, T, grid)
            self.F = _snapped(G) if self.rooted and not isinstance(G, GridSeries) else G
            self.loops.append(T)
        self.steps.append(note)

    def result(self, branch: str, readings: Dict[str, object]) -> NormalFormResult:
        """The run's normal form; a curve's readings start with its coefficients G2, G3, ..."""
        G = self.G
        if self.curve:
            readings = {**{f"G{i}": G[i] for i in range(2, G.order + 1)}, **readings}
        return NormalFormResult(branch, G, self.loops, readings, self.steps)


# -- curves -------------------------------------------------------------------


def _curve_prenormalize(F: TruncatedSeries1, tol: float) -> _Run:
    """Kill F0 (translation) and F1 (shear u -> u - F1 x); require F2 != 0."""
    run = _Run(F)
    if run[0] != 0:
        run.loop(CurveTransform2(f=run[0]), "translate graph to the origin")  # u = v + F0
    if run[1] != 0:
        run.loop(CurveTransform2(c=run[1]), "shear away the first-order term")  # u = F1 y + v
    if decide(run[2], [1.0, *run.G.coeffs.values()], tol):
        raise BranchError("flat curve: second-order coefficient vanishes")
    return run


def _kill_g3(run: _Run):
    """Loop 2 of both curve groups: a unipotent shear kills G3."""
    g3 = run[3]
    T2 = CurveTransform2(a=1, b=-g3 / 3, d=1) if g3 != 0 else None
    run.loop(T2, "unipotent shear kills the third-order term")


def normalize_curve_sl2(F: TruncatedSeries1, tol: float = DEFAULT_TOL) -> NormalFormResult:
    """Normal form u = x^2/2 + 0 + G4 x^4/4! + ... under unimodular maps.

    The readings G4, G5, ... are the equi-affine curve invariants; a flat
    second-order term raises a branch error.
    """
    run = _curve_prenormalize(F, tol)
    # loop 1: scale so that G2 = 1 (real cube root keeps this total on F2 < 0)
    a = 1 / run.root(cbrt_frac, run[2])
    run.loop(CurveTransform2(a=a, d=1 / a), "volume-preserving scaling makes the second-order term 1")
    _kill_g3(run)
    return run.result("sl2-curve", {})


def normalize_curve_gl2(F: TruncatedSeries1, tol: float = DEFAULT_TOL) -> NormalFormResult:
    """Normal form under all invertible plane-affine maps.

    Branches: Parabola (fourth-order relative invariant vanishes), otherwise
    Plus or Minus according to its sign, with the reading G5 the first
    absolute invariant.
    """
    run = _curve_prenormalize(F, tol)
    if to_float(run[2]) < 0:
        # half-turn pins the residual sign freedom; every reading below is
        # invariant under it, so closed forms and pipeline agree
        run.loop(CurveTransform2(a=-1, d=-1), "half-turn makes the second-order term positive")
    scale = max([1.0] + [abs(to_float(c)) for c in run.G.coeffs.values()])
    # loop 1: G2 := 1 with diag(1, F2)
    run.loop(CurveTransform2(a=1, d=run[2]), "vertical scaling makes the second-order term 1")
    _kill_g3(run)
    G = run.G
    if F.order < 4 or decide(G[4], (scale,), tol):
        return run.result("Parabola", {})
    # loop 3: G4 := +-1
    eps = 1 if to_float(G[4]) > 0 else -1
    mag = abs(G[4])
    T3 = CurveTransform2(a=1 / run.root(sqrt_frac, mag), d=1 / mag)
    run.loop(T3, "dilation normalizes the fourth-order term to +-1")
    return run.result("Plus" if eps > 0 else "Minus", {"eps": eps})


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
    """Refuse F unless its Hessian-determinant series vanishes to tol (1 + max(1, |F_jk|)^2).

    Both checks take the Hessian capped at degree m = n - 2.  The float one makes one pass over F: each
    monomial coefficient F_jk / (j! k!) rounds once, and its scaling into a monomial of F_xx, F_yy or
    F_xy by one integer once more.  One product loop per Hessian term then sums each coefficient's
    value and magnitude together.  A product carries its factors' four roundings and one of its own,
    a coefficient sums at most (n + 1)^2 products of both terms, and the sum is scaled back by j! k!:
    at most (n + 1)^2 + 5 roundings.  So each coefficient is within 2 ((n + 1)^2 + 8) 2^-53 times the
    same sum on absolute values of the exact one, plus an underflow allowance 4^n n! 2^-1000 scale.
    Only where that does not clear the threshold is the exact polynomial built, to decide and word the
    error.  The error names the largest coefficient in magnitude, the least (j, k) among equally large
    ones.
    """
    n, scale = F.order, max([1.0] + [abs(to_float(c)) for c in F.coeffs.values()]) ** 2 + 1.0
    m, fact = max(n - 2, 0), [math.factorial(i) for i in range(n + 1)]
    xx, yy, xy = {}, {}, {}
    for (j, k), c in F.coeffs.items():
        f = c.numerator / (c.denominator * fact[j] * fact[k])
        if j > 1:
            xx[(j - 2, k)] = j * (j - 1) * f
        if k > 1:
            yy[(j, k - 2)] = k * (k - 1) * f
        if j and k:
            xy[(j - 1, k - 1)] = j * k * f
    value, size = {}, {}
    for A, B, sign in ((xx, yy, 1.0), (xy, xy, -1.0)):
        rows = sorted(((c + d, c, d, v) for (c, d), v in B.items()), key=lambda row: row[0])
        for (a, b), u in A.items():
            for e, c, d, v in rows:
                if e > m - a - b:
                    break
                key, uv = (a + c, b + d), u * v
                value[key] = value.get(key, 0.0) + sign * uv
                size[key] = size.get(key, 0.0) + abs(uv)
    slack, floor = 2 * ((n + 1) ** 2 + 8) * 2.0**-53, 4.0**n * fact[n] * 2.0**-1000 * scale
    limit = tol * scale * (1 - 2.0**-50)
    if floor <= limit and all(
        (abs(value[j, k]) + slack * a) * (fact[j] * fact[k]) + floor <= limit for (j, k), a in size.items()
    ):
        return
    p, q = h_terms(DerivativeView(Poly2.from_series(F).capped(m)))
    bad = _nonvanishing(p.to_series(m) + q.to_series(m), F, tol)
    if bad:
        jk, c = min(bad, key=lambda it: (-abs(to_float(it[1])), it[0]))
        raise BranchError(
            f"surface is not rank-one to the truncation order: Hessian determinant "
            f"coefficient {jk} = {to_float(c):.3e}"
        )


def normalize_parabolic_surface(
    F: TruncatedSeries2, tol: float = DEFAULT_TOL
) -> NormalFormResult:
    """Run the normalization loops on a rank-one graphed surface.

    Translations and transvections come first, then the branch rule and its
    axis swap.  Returns the branch label, the normal-form series, the loop
    transforms (composed into the transform acting on the original series
    when read), and the invariant readings.
    """
    run = _Run(F)
    if run[(0, 0)] != 0:
        run.loop(AffineTransform3(w=run[(0, 0)]), "translate the graph to the origin")
    f10, f01 = run[(1, 0)], run[(0, 1)]
    if f10 != 0 or f01 != 0:
        run.loop(AffineTransform3(p=f10, q=f01), "transvection kills the first-order terms")
    base = jets_of_series(run.G).values
    branch, c = surface_branch(base, tol)
    if branch == "Flat":
        run.steps.append("flat: zero Hessian")
        return run.result("Flat", {})
    if branch in ("Elliptic", "Hyperbolic"):
        raise BranchError(f"surface is {branch.lower()} at the base point; the loops need a rank-one Hessian")
    if c is not base:
        # swap the horizontal axes: x = t', y = -s' keeps the volume form; a
        # relabelling of the coefficients, so it is recorded without a solve
        run.F = TruncatedSeries2(run.F.order, swap_axes(run.F.coeffs))
        run.loops.append(AffineTransform3(a=Fraction(0), b=Fraction(1), k=Fraction(-1), l=Fraction(0)))
        run.steps.append("swap horizontal axes so that u_xx != 0")
    _check_parabolic(run.G, tol)

    # loop 1: G20 := 1, G11 := 0
    f20, f11 = run[(2, 0)], run[(1, 1)]
    c3 = run.root(cbrt_frac, f20)
    T1 = AffineTransform3(a=1 / c3, b=-f11 / f20, r=c3)
    run.loop(T1, "scale and shear: second-order terms become s^2/2")
    if branch == "Cylinder":
        return _cylinder_branch(run, tol)

    # loop 2: G21 := 1, G30 := 0
    f21, f30 = run[(2, 1)], run[(3, 0)]
    r3 = run.root(cbrt_frac, f21)
    T2 = AffineTransform3(a=r3, k=-f30 / (3 * r3 * r3), l=1 / f21, r=r3 * r3)
    run.loop(T2, "scalings and shear: third-order terms become s^2 t / 2")

    # loop 3: G40 := 0
    g40 = run[(4, 0)]
    T3 = AffineTransform3(m=-g40 / 6) if g40 != 0 else None
    run.loop(T3, "vertical transvection kills the pure fourth-order term")

    W = run[(3, 1)]
    readings: Dict[str, object] = {"W": W}
    if branch == "order-too-low":
        return run.result(branch, readings)
    if branch != "Generic":
        return _cone_branch(run, readings, tol, branch)

    # generic branch, loop 4: G41 := 0
    c = run[(4, 1)] / (2 * W)
    T4 = AffineTransform3(c=c, k=-c, m=2 * c * W / 3 - c * c / 2)
    run.loop(T4, "residual shear kills the (4,1) coefficient")
    G = run.G
    readings["W"] = G[(3, 1)]
    readings["M"] = G[(5, 0)]
    for j in range(5, G.order + 1):
        readings[f"I{j}0"] = G[(j, 0)]
    for j in range(5, G.order):
        readings[f"I{j}1"] = G[(j, 1)]
    return run.result("Generic", readings)


def _cylinder_branch(run: _Run, tol) -> NormalFormResult:
    """S == 0: the normal form is a curve profile; delegate to the curve loops.

    The slope invariant must vanish identically, which is checked on the jet
    coefficients of its numerator to the truncation order.  The profile's
    moving frame, embedded in space and scaled by 1/det in y to keep the
    volume, is the last loop of the run.
    """
    G, m = run.G, max(run.G.order - 3, 0)
    if _nonvanishing(s_numerator(DerivativeView(Poly2.from_series(G).capped(m))).to_series(m), G, 1e3 * tol):
        raise BranchError(
            "third-order slope invariant vanishes at the base point but not "
            "identically; mixed-type surfaces are excluded"
        )
    res = normalize_curve_gl2(G.x_profile(), tol)
    T = res.transform
    run.loops.append(replace(T.embedded(), l=1 / T.det()))
    run.steps += ["profile curve loops", *res.steps]
    readings = {"curve_" + k: v for k, v in res.readings.items()}
    return NormalFormResult(f"Cylinder[{res.branch}]", res.normal_series.y_free(), run.loops, readings, run.steps)


def _cone_branch(run: _Run, readings, tol, branch) -> NormalFormResult:
    G = run.G
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
        run.steps.append("flat-cone model reached")
        return run.result("Cone[model]", readings)
    if G.order >= 6:
        # final shear kills G60 (only possible on X != 0)
        c = G[(6, 0)] / (3 * X)
        run.loop(AffineTransform3(c=c, k=-c, m=-c * c / 2), "last shear kills the pure sixth-order term")
        G = run.G
        readings["X"] = G[(5, 0)]
        if G.order >= 7:
            readings["Y"] = G[(7, 0)]
        for j in range(8, G.order + 1):
            readings[f"I{j}0"] = G[(j, 0)]
    return run.result("Cone", readings)


def surface_frame(p: ParabolicJet) -> NormalFormResult:
    """The normal form of the realized jet on a branch that carries a moving frame.

    Raises :class:`BranchError` on every other branch (flat, cylinder,
    order-too-low).
    """
    res = normalize_parabolic_surface(realize_series(p))
    if res.branch not in ("Generic", "Cone", "Cone[model]"):
        raise BranchError(f"no surface moving frame on branch {res.branch}")
    return res

