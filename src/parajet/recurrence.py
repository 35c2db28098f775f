"""Maurer-Cartan invariants, invariant derivations, and recurrence identities.

The correction coefficients K_j^sigma of the moving-frame recurrence formulas
are solved from the phantom Cramer systems: the rows are the prolonged
generator coefficients evaluated at the normalized jet (invariantization),
the left sides vanish because phantoms are constants.  The explicit invariant
derivation operators D1 = alpha Dx + beta Dy and D2 = gamma Dx + delta Dy are
available both in closed form (generic branch) and operationally from the
composed moving-frame transform (either branch).

One phantom system serves every frame: the surface systems of both branches
(shifted along e_x and e_y, also inside the recurrence derivations), the
plane-curve systems of SA(2) and A(2) (along e_x) and the rows from which the
homogeneous curve models are generated.

All identity checks are numeric at sampled jets with stated tolerances.
Commutators nest two recurrence derivations D_i I_J = I_{J+e_i} +
sum_sigma K_i^sigma phi_sigma^J(I) on ``Sens``-seeded normal forms, exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Tuple

from .invariants import (
    curve_invariant_I5,
    equiaffine_curvature,
    invariant_M,
    invariant_W,
    invariant_X,
    invariant_Y,
    s_numerator,
    w_numerator,
)
from .jets import ParabolicJet, chain_rule, curve_total_derivative, parabolic_jet_of_series, seeded, total_derivative
from .normalize import (
    BranchError,
    NormalFormResult,
    normalize_curve_gl2,
    normalize_curve_sl2,
    surface_frame,
)
from .prolong import (
    Poly,
    X as VAR_X,
    Y as VAR_Y,
    U as VAR_U,
    gl2_curve_generators,
    jet_generators,
    p_eval,
    poly,
    prolong,
    sl2_curve_generators,
    solve_linear_exact,
    vf,
)
from .scalars import cbrt, to_float
from .series import TruncatedSeries1, TruncatedSeries2

Coord = Tuple[int, int]

GENERIC_PHANTOMS: Tuple[Coord, ...] = ((2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (4, 1))
CONE_PHANTOMS: Tuple[Coord, ...] = ((2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (6, 0))


@dataclass
class MaurerCartan:
    branch: str
    K1: List[object]
    K2: List[object]
    matrix: List[List[object]]
    rhs1: List[object]
    rhs2: List[object]
    readings: Dict[str, object]


def _frame_point(coords: Mapping[Coord, object]) -> Dict[object, object]:
    """Where the prolonged generators are invariantized: x = y = 0 and the normal-form coordinates."""
    return {VAR_X: 0, VAR_Y: 0, **coords}


def _phantom_system(gens, phantoms, values, shifts):
    """Rows A, right sides and solutions of the phantom Cramer systems A K_i = -(I_{J+e_i})_J.

    Row J holds the prolonged generators at ``values``; one right side per shift e_i, all solved in one
    elimination of A.
    """
    A = [[p_eval(prolong(g, J), values) for g in gens] for J in phantoms]
    rhs = [[-values[(j + dj, k + dk)] for (j, k) in phantoms] for dj, dk in shifts]
    return A, rhs, solve_linear_exact(A, rhs) if rhs else []


def _cramer(phantoms, values):
    """The surface systems: the six jet generators, shifted along e_x and e_y."""
    return _phantom_system(jet_generators(), phantoms, values, ((1, 0), (0, 1)))


def _surface_phantoms(branch: str):
    """The phantom coordinates of a surface branch; the one check of its name."""
    if branch not in ("Generic", "Cone"):
        raise ValueError(f"unknown surface branch {branch!r}; choose 'Generic' or 'Cone'")
    return GENERIC_PHANTOMS if branch == "Generic" else CONE_PHANTOMS


def _branch_phantoms(branch: str, res: NormalFormResult):
    """:func:`_surface_phantoms`, refusing a normal form ``res`` off the branch."""
    phantoms = _surface_phantoms(branch)
    if res.branch != branch:
        raise BranchError(f"jet is not in the {branch.lower()} branch")
    return phantoms


def solve_mc_surface(branch: str, p: ParabolicJet) -> MaurerCartan:
    """Solve the two phantom Cramer systems numerically at the jet.

    The matrix rows are generated from the prolongation machinery and
    invariantized at the normalized jet; they are never hand-copied.
    """
    _surface_phantoms(branch)
    return _solve_mc_at_frame(branch, surface_frame(p))


def _solve_mc_at_frame(branch: str, res: NormalFormResult) -> MaurerCartan:
    """:func:`solve_mc_surface` from the jet's normal form."""
    phantoms = _branch_phantoms(branch, res)
    q = parabolic_jet_of_series(res.normal_series)
    A, (rhs1, rhs2), (K1, K2) = _cramer(phantoms, _frame_point(q.filled(q.order)))
    return MaurerCartan(res.branch, K1, K2, A, rhs1, rhs2, dict(res.readings))


def mc_closed_form(branch: str, W=None, M=None, I51=None, X=None, Y=None):
    """The printed Maurer-Cartan solutions for both surface branches."""
    _surface_phantoms(branch)
    if branch == "Generic":
        K1 = [
            -W / 3,
            W,
            1,
            2 * M / W - I51 / (2 * W),
            -2 * M / W + I51 / (2 * W),
            Fraction(3, 2) * M - Fraction(1, 3) * I51,
        ]
        K2 = [0, 1, 0, -W, Fraction(4, 3) * W, -Fraction(8, 9) * W * W]
        return K1, K2
    K1 = [0, 0, 1, -Y / (3 * X), Y / (3 * X), X / 6]
    K2 = [0, 1, 0, 0, 0, 0]
    return K1, K2


# -- invariant derivations ------------------------------------------------------


@dataclass
class InvariantDerivationCoeffs:
    alpha: object
    beta: object
    gamma: object
    delta: object

    def determinant(self):
        return self.alpha * self.delta - self.beta * self.gamma


def invariant_derivatives(p: ParabolicJet) -> InvariantDerivationCoeffs:
    """Closed-form coefficients of D1 and D2 on the generic branch."""
    c = p.filled(5)
    u20, u11, u21, u30 = c[(2, 0)], c[(1, 1)], c[(2, 1)], c[(3, 0)]
    u31, u40, u41, u50 = c[(3, 1)], c[(4, 0)], c[(4, 1)], c[(5, 0)]
    s = s_numerator(c)
    nbar = -w_numerator(c)
    if s == 0 or nbar == 0:
        raise ZeroDivisionError("invariant derivations need the generic-branch domain")
    s23 = cbrt(s) ** 2
    alpha_num = (
        12 * u30 * u21**2 * u20**2
        - 6 * u31 * u21 * u20**3
        - 44 * u30**2 * u11 * u21 * u20
        + 16 * u30 * u31 * u11 * u20**2
        + 15 * u40 * u11 * u21 * u20**2
        - 3 * u11 * u41 * u20**3
        + 32 * u30**3 * u11**2
        - 25 * u40 * u11**2 * u30 * u20
        + 3 * u50 * u11**2 * u20**2
    )
    beta_num = (
        20 * u20 * u21 * u30**2
        - 10 * u30 * u20**2 * u31
        - 9 * u20**2 * u21 * u40
        + 3 * u41 * u20**3
        - 20 * u11 * u30**3
        + 19 * u30 * u11 * u20 * u40
        - 3 * u11 * u20**2 * u50
    )
    alpha = alpha_num / (6 * u20 * s23 * nbar)
    beta = beta_num / (6 * s23 * nbar)
    gamma = -u20 * u11 / s
    delta = u20 * u20 / s
    return InvariantDerivationCoeffs(alpha, beta, gamma, delta)


def frame_derivatives(p: ParabolicJet) -> InvariantDerivationCoeffs:
    """Operator coefficients from the composed moving-frame transform.

    Works on both surface branches, which settles the cone branch where no
    closed form is printed.
    """
    return _frame_coeffs(surface_frame(p), p)


def _frame_coeffs(res: NormalFormResult, p: ParabolicJet) -> InvariantDerivationCoeffs:
    """(D1; D2) = M^{-1} (D_x; D_y) for M = [[Dx s, Dx t], [Dy s, Dy t]].

    (s, t) are the first two forward components of the composed moving-frame
    transform, restricted to the graph.
    """
    A = res.transform.inverse_matrix()
    fx, fy = p.coords[(1, 0)], p.coords[(0, 1)]
    dxs = A[0][0] + A[0][2] * fx
    dys = A[0][1] + A[0][2] * fy
    dxt = A[1][0] + A[1][2] * fx
    dyt = A[1][1] + A[1][2] * fy
    det = dxs * dyt - dxt * dys
    return InvariantDerivationCoeffs(dyt / det, -dxt / det, -dys / det, dxs / det)


def apply_D_pair(f: Callable[[Mapping[Coord, object]], object], p: ParabolicJet,
                 coeffs: InvariantDerivationCoeffs | None = None):
    """(D1 f, D2 f) at the jet from one pair of total derivatives, one evaluation of f."""
    if coeffs is None:
        coeffs = invariant_derivatives(p)
    dx, dy = total_derivative(f, p)
    return coeffs.alpha * dx + coeffs.beta * dy, coeffs.gamma * dx + coeffs.delta * dy


def recurrence_derivation(f: Callable[[ParabolicJet], tuple], phantoms) -> Callable[[ParabolicJet], list]:
    """[D1 g_1, D2 g_1, D1 g_2, ...] for the components g of f, by the recurrence formula.

    f and the result map the normalized jet to scalars.  The phantoms and the
    coordinates of order < 2 are frame constants; the chain rule contracts the
    partials of g in the other coordinates with
    D_i I_J = I_{J+e_i} + sum_sigma K_i^sigma phi_sigma^J(I), K from the Cramer
    systems at the same jet; nested, the outer derivation differentiates K.
    """
    gens = jet_generators()

    def derived(p: ParabolicJet) -> list:
        values = _frame_point(p.filled(p.order))
        _, _, K = _cramer(phantoms, values)
        @functools.cache
        def moved(J: Coord) -> list:
            """[D1 I_J, D2 I_J]."""
            j, k = J
            phi = [p_eval(prolong(v, J), values) for v in gens]
            shifted = (values[(j + 1, k)], values[(j, k + 1)])
            return [s + sum(a * b for a, b in zip(Ki, phi, strict=True)) for s, Ki in zip(shifted, K, strict=True)]

        frozen = {J for J in p.coords if sum(J) < 2}.union(phantoms)
        return [d for g in f(seeded(p, frozen)) for d in chain_rule(g, moved, 2)]

    return derived


# -- identity verification -------------------------------------------------------


def identity_record(lhs, rhs, tolerance: float) -> dict:
    """One identity check: residual |lhs - rhs| / (1 + max(|lhs|, |rhs|)) against tolerance."""
    lhs, rhs = to_float(lhs), to_float(rhs)
    resid = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
    return {"lhs": lhs, "rhs": rhs, "residual": resid, "pass": resid <= tolerance}


def verify_recurrences(branch: str, p: ParabolicJet) -> Dict[str, dict]:
    """Residuals of the printed recurrence identities at one jet."""
    _surface_phantoms(branch)
    return _recurrences_at_frame(branch, p, surface_frame(p))


def _recurrences_at_frame(branch: str, p: ParabolicJet, res: NormalFormResult) -> Dict[str, dict]:
    """:func:`verify_recurrences` from the jet's normal form ``res``, which must lie on the branch."""
    _branch_phantoms(branch, res)
    out: Dict[str, dict] = {}
    if branch == "Generic":
        coeffs = invariant_derivatives(p)
        c = p.filled(5)
        W = invariant_W(c)
        M = invariant_M(c)
        I51 = res.readings["I51"]
        I60 = res.readings["I60"]
        d1w, d2w = apply_D_pair(invariant_W, p, coeffs)
        out["D1W = -(2/3) W^2"] = identity_record(d1w, -Fraction(2, 3) * to_float(W) ** 2, 1e-7)
        out["D2W = 2W"] = identity_record(d2w, 2 * to_float(W), 1e-7)
        d1m, d2m = apply_D_pair(invariant_M, p, coeffs)
        out["D2M = I51 - M + (80/9) W^3"] = identity_record(
            d2m, to_float(I51) - to_float(M) + 80.0 / 9.0 * to_float(W) ** 3, 1e-6
        )
        out["D1M = I60 - 14 M W + (10/3) I51 W"] = identity_record(
            d1m,
            to_float(I60) - 14.0 * to_float(M) * to_float(W) + 10.0 / 3.0 * to_float(I51) * to_float(W),
            1e-6,
        )
        out["det(D) = u20 / S^(2/3)"] = identity_record(
            coeffs.determinant(), p.coords[(2, 0)] / cbrt(s_numerator(c)) ** 2, 1e-10
        )
    else:
        coeffs = _frame_coeffs(res, p)
        c = p.filled(7)
        Xv = invariant_X(c)
        Yv = invariant_Y(c)
        d1x, d2x = apply_D_pair(invariant_X, p, coeffs)
        out["D1X = 0"] = identity_record(d1x, 0.0, 1e-6)
        out["D2X = 3X"] = identity_record(d2x, 3 * to_float(Xv), 1e-6)
        d1y, d2y = apply_D_pair(invariant_Y, p, coeffs)
        out["D2Y = 5Y"] = identity_record(d2y, 5 * to_float(Yv), 1e-6)
        I80 = res.readings.get("I80")
        if I80 is not None:
            out["D1Y = I80 - (35/2) X^2"] = identity_record(
                d1y, to_float(I80) - 17.5 * to_float(Xv) ** 2, 1e-6
            )
    return out


def verify_commutator(branch: str, p: ParabolicJet) -> Dict[str, dict]:
    """[D1, D2] identities, tol 1e-5; the commutator nests two recurrence derivations.

    D1 and D2 on the right sides come from :func:`apply_D_pair`.
    """
    res = surface_frame(p)
    phantoms = _branch_phantoms(branch, res)
    f = invariant_W if branch == "Generic" else invariant_X
    second = recurrence_derivation(recurrence_derivation(lambda q: (f(q),), phantoms), phantoms)
    _, d2d1, d1d2, _ = second(parabolic_jet_of_series(res.normal_series))
    comm = d1d2 - d2d1
    if branch == "Generic":
        W = to_float(invariant_W(p.filled(4)))
        d1w, d2w = apply_D_pair(invariant_W, p, invariant_derivatives(p))
        return {
            "[D1,D2]W = (4/3) W^2": identity_record(comm, 4.0 / 3.0 * W**2, 1e-5),
            "[D1,D2]W = -D1W + (1/3) W D2W": identity_record(comm, -to_float(d1w) + W / 3.0 * to_float(d2w), 1e-5),
        }
    d1x, _ = apply_D_pair(invariant_X, p, _frame_coeffs(res, p))
    return {
        "[D1,D2]X = -D1X": identity_record(comm, -d1x, 1e-5),
        "D1X = 0 (cone)": identity_record(d1x, 0, 1e-5),
    }


# -- curves -----------------------------------------------------------------------


def _curve_frame(group: str, jet: Mapping[int, object]):
    """Normal form, generators and phantom coordinates of a curve jet under SA(2) or A(2).

    The one dispatch on the group name ('sa2' or 'gl2', any case); the
    full-affine parabola branch carries no moving frame and is refused.
    """
    F = TruncatedSeries1(max(jet), dict(jet))
    if group.lower() == "sa2":
        return normalize_curve_sl2(F), sl2_curve_generators(), ((1, 0), (2, 0), (3, 0))
    if group.lower() != "gl2":
        raise ValueError(f"unknown curve group {group!r}; choose 'sa2' or 'gl2'")
    res = normalize_curve_gl2(F)
    if res.branch == "Parabola":
        raise BranchError("parabola branch has no affine moving frame")
    return res, gl2_curve_generators(), ((1, 0), (2, 0), (3, 0), (4, 0))


def solve_mc_curve(group: str, jet: Mapping[int, object]) -> MaurerCartan:
    """The phantom Cramer system for plane curves under either group: one shift, along e_x."""
    res, gens, phantoms = _curve_frame(group, jet)
    values = _frame_point({(i, 0): res.normal_series[i] for i in range(res.normal_series.order + 1)})
    A, (rhs,), (R,) = _phantom_system(gens, phantoms, values, ((1, 0),))
    return MaurerCartan(group, R, [], A, rhs, [], dict(res.readings))


# -- homogeneous models -----------------------------------------------------------


def homogeneous_curve_coefficients(a, sign: int, upto: int) -> Dict[int, object]:
    """Normal-form coefficients of the homogeneous curves with constant I5 = a.

    On a homogeneous model every invariant derivative vanishes, so the
    recurrence collapses to I_{k+1} = -sum_kappa inv(Phi_kappa^k) R^kappa with
    R = (sign a/2, sign a, sign/3, -1).  The first generated values are
    I6 = 5 + sign (3/2) a^2 and I7 = 3 a^3 + sign 17 a; higher ones follow by
    iteration.  Exact for rational a.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a = Fraction(a) if not isinstance(a, float) else a
    I: Dict[int, object] = {0: 0, 1: 0, 2: 1, 3: 0, 4: sign, 5: a}
    R = [sign * a / 2, sign * a, Fraction(sign, 3), -1]
    gens = gl2_curve_generators()
    for k in range(5, upto):
        # the xi u_{k+1} term cancels in the closed formula
        values = _frame_point({(i, 0): v for i, v in I.items()} | {(k + 1, 0): 0})
        (row,), _, _ = _phantom_system(gens, ((k, 0),), values, ())
        total = 0
        for phi, r in zip(row, R, strict=True):
            total = total + phi * r
        I[k + 1] = -total
    return I


def homogeneous_curve_series(a, sign: int, order: int):
    """The graph u = x^2/2 +- x^4/4! + a x^5/5! + ... of the homogeneous model."""
    I = homogeneous_curve_coefficients(a, sign, order)
    return TruncatedSeries1(order, I)


def homogeneous_tangent_field(a, sign: int):
    """The infinitesimal symmetry (+-1 - a x/2 - u/3) d/dx + (+-x - a u) d/du."""
    xi = poly((sign, {}), (-Fraction(a) / 2, {VAR_X: 1}), (Fraction(-1, 3), {VAR_U: 1}))
    eta = poly((sign, {VAR_X: 1}), (-Fraction(a), {VAR_U: 1}))
    return vf("L", xi=xi, eta=None, phi=eta)


def _along(polyc: Poly, bases, unit):
    """A field coefficient along a graph: each variable replaced by its series in bases."""
    out = unit.scale(0)
    for mono, coef in polyc.items():
        term = unit.scale(coef)
        for var, e in mono:
            if var not in bases:
                raise ValueError("field touches a jet variable")
            for _ in range(e):
                term = term * bases[var]
        out = out + term
    return out


def cone_symmetry_fields():
    """The three tangent symmetries of the flat-cone model and their brackets."""
    x = poly((1, {VAR_X: 1}))
    u = poly((1, {VAR_U: 1}))
    one_minus_y = poly((1, {}), (-1, {VAR_Y: 1}))
    e1 = vf("e1", xi=-u, eta=x)
    e2 = vf("e2", xi=one_minus_y, phi=x)
    e3 = vf("e3", eta=one_minus_y, phi=u)
    return e1, e2, e3


def surface_tangency_residual(field, F):
    """phi - xi F_x - eta F_y along the graph, as a bivariate series."""
    m = F.order - 1
    bases = {
        VAR_X: TruncatedSeries2(m, {(1, 0): Fraction(1)}),
        VAR_Y: TruncatedSeries2(m, {(0, 1): Fraction(1)}),
        VAR_U: TruncatedSeries2(m, F.coeffs),
    }
    unit = TruncatedSeries2(m, {(0, 0): Fraction(1)})
    xi, eta, phi = (_along(c, bases, unit) for c in (field.xi, field.eta, field.phi))
    return phi - F.derivative("x") * xi - F.derivative("y") * eta


def tangency_residual_curve(field, F) -> TruncatedSeries1:
    """eta(x, F) - F'(x) xi(x, F) as a series in x, to order N - 1: the residual of the y-free graph."""
    return surface_tangency_residual(field, F.y_free()).x_profile()


def verify_curve_recurrences(group: str, jet: Mapping[int, object]) -> Dict[str, dict]:
    """The printed curve recurrences at one jet, via nested total derivatives."""
    res, _, _ = _curve_frame(group, jet)
    out: Dict[str, dict] = {}
    if group.lower() == "sa2":

        def DX(f, c):
            return curve_total_derivative(f, c) / cbrt(c[2])

        P = equiaffine_curvature
        I5 = res.readings["G5"]
        I6 = res.readings["G6"]
        I7 = res.readings.get("G7")
        dP = functools.partial(DX, P)
        out["I5 = DxP"] = identity_record(dP(jet), I5, 1e-6)
        d2P = functools.partial(DX, dP)
        out["I6 = Dx^2 P + 5 P^2"] = identity_record(
            to_float(d2P(jet)) + 5 * to_float(P(jet)) ** 2, I6, 1e-6
        )
        if I7 is not None and max(jet) >= 7:
            d3P = functools.partial(DX, d2P)
            out["I7 = Dx^3 P + 17 DxP P"] = identity_record(
                to_float(d3P(jet)) + 17.0 * to_float(dP(jet)) * to_float(P(jet)), I7, 1e-6
            )
    else:
        eps = res.readings["eps"]
        # the invariant-derivation multiplier of the full-affine moving frame
        (af, bf), _ = res.transform.forward_matrix()
        mu = 1 / (af + bf * jet[1])

        def I5fun(c):
            return curve_invariant_I5(c, eps)

        I5v = to_float(res.readings["G5"])
        I6v = to_float(res.readings["G6"])
        d5 = to_float(curve_total_derivative(I5fun, jet)) * to_float(mu)
        out["I6 = DxI5 +- (3/2) I5^2 + 5"] = identity_record(
            d5 + eps * 1.5 * I5v**2 + 5.0, I6v, 1e-6
        )
    return out
