"""Closed-form evaluation of the differential invariants of rank-one graphs.

All evaluators are generic over plain scalars (Fraction, float) and over
sensitivity-carrying scalars, so total and invariant derivatives apply to
them directly.  Fractional powers follow the real-root conventions of
:mod:`parajet.scalars`.

The branch of a surface jet is decided in one place, :func:`surface_branch`,
for the closed forms and the normalization loops alike.

The fifth-order invariant of the generic branch (M) and the seventh-order
invariant of the cone branch (Y) carry large numerators; their monomial
tables below were generated from the normalization loops by exact rational
arithmetic and are cross-checked against the loop pipeline in the tests
(the generic numerator has exactly 57 monomials).  One kernel,
:func:`_table_numerator`, sums them.  Exact jets are summed on integer
numerators over one denominator, with each variable's powers taken once;
``Sens`` jets with exact values get their partials from the gradient of the
table, summed the same way; every other scalar runs the term-by-term sum in
its own arithmetic.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .jets import jets_of_series
from .scalars import Sens, cbrt, is_exact, scalar_to_string, sqrt, to_float
from .series import AffineTransform3, TruncatedSeries2, apply_affine

Coord = Tuple[int, int]

DEFAULT_TOL = 1e-9  # the zero-test tolerance of every branch decision


class BranchError(ValueError):
    """Raised when the input sits outside the requested branch domain."""


class AmbiguousBranchError(BranchError):
    """A branch-deciding value fell inside the (tol, 10 tol) gray zone."""


NOT_GRAPH_ALIGNED = (
    "rank-one direction not graph-aligned (u_xx = u_yy = 0 but u_xy != 0); "
    "apply a preliminary rotation"
)


# -- the deciding numerators ----------------------------------------------------
# Each is written once, as its signed terms: their left-to-right sum is the
# value and they scale the branch rule's zero test.  On a jets.DerivativeView
# of a series.Poly2 the same functions give the numerator polynomial, and on
# a mapping of prolong.Poly ring variables its jet-ring polynomial.


def _total(terms):
    return functools.reduce(operator.add, terms)


def h_terms(c: Mapping[Coord, object]):
    return (c[(2, 0)] * c[(0, 2)], -(c[(1, 1)] * c[(1, 1)]))


def s_terms(c: Mapping[Coord, object]):
    return (c[(2, 0)] * c[(2, 1)], -(c[(1, 1)] * c[(3, 0)]))


def w_terms(c: Mapping[Coord, object]):
    u20, u11, u21, u30 = c[(2, 0)], c[(1, 1)], c[(2, 1)], c[(3, 0)]
    return (
        u20 * u20 * c[(3, 1)],
        -(u20 * c[(4, 0)] * u11),
        2 * u30 * u30 * u11,
        -(2 * u30 * u21 * u20),
    )


def conic_terms(jet: Mapping[int, object]):
    """9 u2^2 u5 - 45 u2 u3 u4 + 40 u3^3 of a curve jet; zero exactly on conics."""
    u2, u3 = jet[2], jet[3]
    return (9 * u2**2 * jet[5], -(45 * u2 * u3 * jet[4]), 40 * u3**3)


def equiaffine_terms(jet: Mapping[int, object]):
    """3 u2 u4 - 5 u3^2 of a curve jet; zero exactly on parabolas."""
    return (3 * jet[2] * jet[4], -(5 * jet[3] * jet[3]))


def _x_jet(c: Mapping[Coord, object]):
    """The pure x-jets u_(j,0) of a surface jet, as the curve jet of its x-profile."""
    return {j: c[(j, 0)] for j in range(2, 6)}


# -- order 2 and 3 -------------------------------------------------------------


def invariant_H(c: Mapping[Coord, object]):
    """Hessian determinant u_xx u_yy - u_xy^2 (relative invariant, weight d^2/L^4)."""
    return _total(h_terms(c))


def invariant_S(c: Mapping[Coord, object]):
    """(u_xx u_xxy - u_xy u_xxx)/u_xx^2; zero exactly on cylinder-type graphs."""
    u20 = c[(2, 0)]
    if u20 == 0:
        raise ZeroDivisionError("S needs u_xx != 0")
    return s_numerator(c) / (u20 * u20)


def s_numerator(c: Mapping[Coord, object]):
    return _total(s_terms(c))


# -- order 4: the branching invariant ------------------------------------------


def w_numerator(c: Mapping[Coord, object]):
    return _total(w_terms(c))


def invariant_W(c: Mapping[Coord, object]):
    """The fourth-order invariant; zero exactly on the cone branch.

    W = w_numerator / (u_xx^2 (u_xx u_xxy - u_xy u_xxx)^{2/3}) with the real
    cube-root convention, so it is defined for either sign of the slope
    invariant.
    """
    u20 = c[(2, 0)]
    s = s_numerator(c)
    if u20 == 0 or s == 0:
        raise ZeroDivisionError("W needs u_xx != 0 and a nonzero slope invariant")
    r = cbrt(s)
    return w_numerator(c) / (u20 * u20 * r * r)


def invariant_W_cubed(c: Mapping[Coord, object]):
    """W^3, a rational function of the jet: exact on rational jets."""
    u20 = c[(2, 0)]
    s = s_numerator(c)
    n = w_numerator(c)
    return n**3 / (u20**6 * s**2)


# -- order 5: X (cone branch) and M (generic branch) ---------------------------


def conic_numerator(c: Mapping[Coord, object]):
    """9 u_xx^2 u_5 - 45 u_xx u_3 u_4 + 40 u_3^3 over the pure x-jets; zero exactly where X is."""
    return _total(conic_terms(_x_jet(c)))


def invariant_X(c: Mapping[Coord, object]):
    """Fifth-order invariant of the cone branch (rational in the jet)."""
    return s_numerator(c) * conic_numerator(c) / (9 * c[(2, 0)] ** 6)


# generic-branch fifth-order numerator: 57 monomials with exponent vectors over
# (u20, u11, u21, u30, u31, u40, u41, u50); generated from the loop composition
M_TABLE = (
    (-1280, (0, 3, 0, 7, 0, 0, 0, 0)),
    (3840, (1, 2, 1, 6, 0, 0, 0, 0)),
    (2560, (1, 3, 0, 5, 0, 1, 0, 0)),
    (-3840, (2, 1, 2, 5, 0, 0, 0, 0)),
    (-3040, (2, 2, 0, 5, 1, 0, 0, 0)),
    (-4640, (2, 2, 1, 4, 0, 1, 0, 0)),
    (-2195, (2, 3, 0, 3, 0, 2, 0, 0)),
    (192, (2, 3, 0, 4, 0, 0, 0, 1)),
    (1280, (3, 0, 3, 4, 0, 0, 0, 0)),
    (6080, (3, 1, 1, 4, 1, 0, 0, 0)),
    (1600, (3, 1, 2, 3, 0, 1, 0, 0)),
    (4600, (3, 2, 0, 3, 1, 1, 0, 0)),
    (-120, (3, 2, 0, 4, 0, 0, 1, 0)),
    (1985, (3, 2, 1, 2, 0, 2, 0, 0)),
    (-456, (3, 2, 1, 3, 0, 0, 0, 1)),
    (820, (3, 3, 0, 1, 0, 3, 0, 0)),
    (-126, (3, 3, 0, 2, 0, 1, 0, 1)),
    (-3040, (4, 0, 2, 3, 1, 0, 0, 0)),
    (480, (4, 0, 3, 2, 0, 1, 0, 0)),
    (-2000, (4, 1, 0, 3, 2, 0, 0, 0)),
    (-5200, (4, 1, 1, 2, 1, 1, 0, 0)),
    (240, (4, 1, 1, 3, 0, 0, 1, 0)),
    (615, (4, 1, 2, 1, 0, 2, 0, 0)),
    (336, (4, 1, 2, 2, 0, 0, 0, 1)),
    (-2040, (4, 2, 0, 1, 1, 2, 0, 0)),
    (90, (4, 2, 0, 2, 0, 1, 1, 0)),
    (-144, (4, 2, 0, 2, 1, 0, 0, 1)),
    (-420, (4, 2, 1, 0, 0, 3, 0, 0)),
    (432, (4, 2, 1, 1, 0, 1, 0, 1)),
    (-120, (4, 3, 0, 0, 0, 2, 0, 1)),
    (45, (4, 3, 0, 1, 0, 0, 0, 2)),
    (2000, (5, 0, 1, 2, 2, 0, 0, 0)),
    (600, (5, 0, 2, 1, 1, 1, 0, 0)),
    (-120, (5, 0, 2, 2, 0, 0, 1, 0)),
    (-405, (5, 0, 3, 0, 0, 2, 0, 0)),
    (-72, (5, 0, 3, 1, 0, 0, 0, 1)),
    (1620, (5, 1, 0, 1, 2, 1, 0, 0)),
    (180, (5, 1, 0, 2, 1, 0, 1, 0)),
    (840, (5, 1, 1, 0, 1, 2, 0, 0)),
    (-360, (5, 1, 1, 1, 0, 1, 1, 0)),
    (108, (5, 1, 1, 1, 1, 0, 0, 1)),
    (-306, (5, 1, 2, 0, 0, 1, 0, 1)),
    (120, (5, 2, 0, 0, 0, 2, 1, 0)),
    (240, (5, 2, 0, 0, 1, 1, 0, 1)),
    (-90, (5, 2, 0, 1, 0, 0, 1, 1)),
    (-45, (5, 2, 1, 0, 0, 0, 0, 2)),
    (-400, (6, 0, 0, 1, 3, 0, 0, 0)),
    (-420, (6, 0, 1, 0, 2, 1, 0, 0)),
    (-180, (6, 0, 1, 1, 1, 0, 1, 0)),
    (270, (6, 0, 2, 0, 0, 1, 1, 0)),
    (36, (6, 0, 2, 0, 1, 0, 0, 1)),
    (-240, (6, 1, 0, 0, 1, 1, 1, 0)),
    (-120, (6, 1, 0, 0, 2, 0, 0, 1)),
    (45, (6, 1, 0, 1, 0, 0, 2, 0)),
    (90, (6, 1, 1, 0, 0, 0, 1, 1)),
    (120, (7, 0, 0, 0, 2, 0, 1, 0)),
    (-45, (7, 0, 1, 0, 0, 0, 2, 0)),
)

_M_VARS = ((2, 0), (1, 1), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (5, 0))


@functools.cache
def _table_plan(table):
    """What the integer path of :func:`_table_numerator` needs of a homogeneous table.

    Monomials refer to their powers by index into one flat list holding
    v_i^0 .. v_i^top_i for each variable in turn.  Per variable i: the table of
    dP/dv_i (exponent e_i - 1, coefficient times e_i) and the variables whose
    Fraction type makes that derivative a Fraction in the generic loop (its
    companions in some monomial, and i itself at an exponent of two or more).
    ``first`` lists the variables in the order the generic loop first meets them.
    """
    (degree,) = {sum(exps) for _, exps in table}
    nvars = len(table[0][1])
    tops = [max(exps[i] for _, exps in table) for i in range(nvars)]
    offsets = [sum(tops[:i]) + i for i in range(nvars)]

    def indexed(coef, exps):
        return coef, tuple(offsets[i] + e for i, e in enumerate(exps) if e)

    grads, companions, first = [], [], []
    for i in range(nvars):
        rows = [(coef * exps[i], exps[:i] + (exps[i] - 1,) + exps[i + 1:]) for coef, exps in table if exps[i]]
        grads.append([indexed(coef, exps) for coef, exps in rows])
        companions.append(tuple(j for j in range(nvars) if any(exps[j] for _, exps in rows)))
    for _, exps in table:
        first.extend(i for i, e in enumerate(exps) if e and i not in first)
    mono = [indexed(coef, exps) for coef, exps in table]
    return degree, tops, mono, grads, companions, first


def _integer_sum(mono, powers) -> int:
    total = 0
    for term, idx in mono:
        for k in idx:
            term *= powers[k]
        total += term
    return total


def _table_numerator(table, variables, c: Mapping[Coord, object]):
    """Sum of the monomials coef * prod v^e of a numerator table at the jet.

    On ints and Fractions the variables become integer numerators over their
    lcm D, and the homogeneous sum of degree d is one ``Fraction(total, D^d)``
    (an int on an all-int jet).  On ``Sens`` with exact values and partials,
    exact plain scalars being constants, the value and each dP/dv_i are summed
    the same way and the partials are sum_i dP/dv_i * v_i.partials, keyed in
    the order the generic loop creates them.  Every other jet (floats, float or
    nested ``Sens``, mixed float and exact) runs the generic loop.  Either way
    the result equals the generic loop's in value and type.
    """
    vals = [c[v] for v in variables]
    plain = [v.value if type(v) is Sens else v for v in vals]
    if all(is_exact(x) for x in plain) and all(
        is_exact(d) for v in vals if type(v) is Sens for d in v.partials.values()
    ):
        degree, tops, mono, grads, companions, first = _table_plan(table)
        den = math.lcm(*[x.denominator for x in plain])
        powers = []
        for x, top in zip(plain, tops, strict=True):
            n, p = x.numerator * (den // x.denominator), 1
            for _ in range(top + 1):
                powers.append(p)
                p *= n

        def scaled(total, d, terms):
            if any(type(plain[j]) is Fraction for j in terms):
                return Fraction(total, den**d)
            return total // den**d

        value = scaled(_integer_sum(mono, powers), degree, first)
        if all(type(v) is not Sens for v in vals):
            return value
        partials = {}
        for i in first:
            if type(vals[i]) is Sens:
                g = scaled(_integer_sum(grads[i], powers), degree - 1, companions[i])
                for key, d in vals[i].partials.items():
                    t = g * d
                    partials[key] = partials[key] + t if key in partials else t
        return Sens(value, partials)
    total = 0
    for coef, exps in table:
        term = coef
        for v, e in zip(vals, exps, strict=True):
            if e == 1:
                term = term * v
            elif e:
                term = term * v**e
        total = total + term
    return total


def invariant_M(c: Mapping[Coord, object]):
    """Fifth-order invariant of the generic branch; rational in the jet.

    M = M_num / (36 u_xx^6 S_num W_num) where M_num is the M_TABLE sum and
    S_num, W_num are the numerators of the slope and fourth-order invariants.
    """
    u20 = c[(2, 0)]
    s = s_numerator(c)
    wn = w_numerator(c)
    if u20 == 0 or s == 0 or wn == 0:
        raise ZeroDivisionError("M needs u_xx, the slope numerator and the W numerator nonzero")
    return _table_numerator(M_TABLE, _M_VARS, c) / (36 * u20**6 * s * wn)


# cone-branch seventh-order numerator: exponent vectors over (u20 .. u70);
# generated by exact interpolation against the loop pipeline
Y_TABLE = (
    (11200, (0, 8, 0, 0, 0, 0)),
    (-33600, (1, 6, 1, 0, 0, 0)),
    (31500, (2, 4, 2, 0, 0, 0)),
    (6720, (2, 5, 0, 1, 0, 0)),
    (-7875, (3, 2, 3, 0, 0, 0)),
    (-12600, (3, 3, 1, 1, 0, 0)),
    (-4725, (4, 0, 4, 0, 0, 0)),
    (13230, (4, 1, 2, 1, 0, 0)),
    (-756, (4, 2, 0, 2, 0, 0)),
    (-3150, (4, 2, 1, 0, 1, 0)),
    (720, (4, 3, 0, 0, 0, 1)),
    (-2835, (5, 0, 1, 2, 0, 0)),
    (1890, (5, 0, 2, 0, 1, 0)),
    (1134, (5, 1, 0, 1, 1, 0)),
    (-810, (5, 1, 1, 0, 0, 1)),
    (-189, (6, 0, 0, 0, 2, 0)),
    (162, (6, 0, 0, 1, 0, 1)),
)

_Y_VARS = ((2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0))


def invariant_Y(c: Mapping[Coord, object]):
    """Seventh-order invariant of the cone branch (needs the fifth one nonzero).

    Y = Y_num * S_num^{5/3} / (18 u_xx^{10} (9 u_xx^2 u5 - 45 u_xx u3 u4 + 40 u3^3)).
    """
    u20 = c[(2, 0)]
    s = s_numerator(c)
    conic = conic_numerator(c)
    if u20 == 0 or conic == 0:
        raise ZeroDivisionError("Y needs u_xx != 0 and a nonzero fifth-order invariant")
    s13 = cbrt(s)
    s53 = s13**5
    return _table_numerator(Y_TABLE, _Y_VARS, c) * s53 / (18 * u20**10 * conic)


# -- curve invariants -----------------------------------------------------------


def equiaffine_curvature(jet: Mapping[int, object]):
    """P = (1/3)(3 u2 u4 - 5 u3^2)/u2^{8/3}; zero exactly on parabolas."""
    u2 = jet[2]
    if u2 == 0:
        raise ZeroDivisionError("curvature needs u2 != 0")
    return _total(equiaffine_terms(jet)) / (3 * cbrt(u2) ** 8)


def conic_invariant(jet: Mapping[int, object]):
    """C = (1/9)(9 u2^2 u5 - 45 u2 u3 u4 + 40 u3^3)/u2^4; zero exactly on conics."""
    u2 = jet[2]
    if u2 == 0:
        raise ZeroDivisionError("conic invariant needs u2 != 0")
    return _total(conic_terms(jet)) / (9 * u2**4)


def curve_invariant_I5(jet: Mapping[int, object], eps: int):
    """Fifth-order full-affine invariant; eps must match the sign of 3 u2 u4 - 5 u3^2."""
    disc = eps * _total(equiaffine_terms(jet))
    if to_float(disc) <= 0:
        raise ValueError("sign mismatch in the 3/2-power argument")
    return _total(conic_terms(jet)) / (3**0.5 * sqrt(disc) ** 3)


def curve_invariant_F6(jet: Mapping[int, object]):
    """Sixth-order unimodular invariant of curves."""
    u2, u3, u4, u5, u6 = jet[2], jet[3], jet[4], jet[5], jet[6]
    r = cbrt(u2)
    num = 9 * u2**3 * u6 - 63 * u2**2 * u3 * u5 + 105 * u2 * u3**2 * u4 - 35 * u3**4
    return num / (9 * r**16)


def curve_invariant_F7(jet: Mapping[int, object]):
    """Seventh-order unimodular invariant of curves."""
    u2, u3, u4, u5, u6, u7 = jet[2], jet[3], jet[4], jet[5], jet[6], jet[7]
    r = cbrt(u2)
    num = (
        9 * u2**4 * u7
        - 84 * u2**3 * u3 * u6
        + 210 * u2**2 * u3**2 * u5
        - 105 * u2**2 * u3 * u4**2
        + 210 * u2 * u3**3 * u4
        - 280 * u3**5
    )
    return num / (9 * r**20)


def euclid_curvature(jet: Mapping[int, object]):
    """u_xx / (1 + u_x^2)^{3/2}; exact when 1 + u_x^2 is a perfect rational square."""
    u1, u2 = jet[1], jet[2]
    root = sqrt(1 + u1 * u1)
    return u2 / root**3


# -- the third-order invariant of nondegenerate surfaces ------------------------


def _pick_sum(c: Mapping[Coord, object]):
    u20, u11, u02 = c[(2, 0)], c[(1, 1)], c[(0, 2)]
    u30, u21, u12, u03 = c[(3, 0)], c[(2, 1)], c[(1, 2)], c[(0, 3)]
    return (
        -18 * u20 * u21 * u11 * u12 * u02
        + 12 * u30 * u11**2 * u12 * u02
        + 9 * u20**2 * u12**2 * u02
        + 9 * u20 * u21**2 * u02**2
        - 6 * u30 * u21 * u11 * u02**2
        - 6 * u20 * u30 * u12 * u02**2
        + u30**2 * u02**3
        + 12 * u20 * u21 * u11**2 * u03
        - 8 * u30 * u11**3 * u03
        - 6 * u20**2 * u11 * u12 * u03
        - 6 * u20**2 * u21 * u02 * u03
        + 6 * u20 * u30 * u11 * u02 * u03
        + u20**3 * u03**2
    )


def pick_invariant(c: Mapping[Coord, object], kind: str):
    """Third-order invariant of elliptic/hyperbolic graphs, >= 0 by construction.

    Normalized so that the standard cubic normal forms with parameter C give
    C^2/2; the 13-term cubic form below is a relative invariant whose square
    over H^{11/2} is the printed rendering (which equals twice the square of
    this quantity).
    """
    H = invariant_H(c)
    h = to_float(H)
    if kind == "elliptic":
        if h <= 0:
            raise ValueError("elliptic evaluation needs a positive Hessian determinant")
    elif kind == "hyperbolic":
        if h >= 0:
            raise ValueError("hyperbolic evaluation needs a negative Hessian determinant")
    else:
        raise ValueError("kind must be 'elliptic' or 'hyperbolic'")
    mag = abs(h)
    s = abs(to_float(_pick_sum(c)))
    return s / (32.0 * mag**2.75)


# -- relative invariance and transfer laws --------------------------------------


def _centered(F: TruncatedSeries2) -> TruncatedSeries2:
    """Drop the constant term: the graph is translated through the origin."""
    if F[(0, 0)] == 0:
        return F
    coeffs = dict(F.coeffs)
    coeffs.pop((0, 0), None)
    return TruncatedSeries2(F.order, coeffs)


def _transported_jets(F: TruncatedSeries2, T_fwd):
    """Jets at the origin of the centered graph and of its image under the forward map.

    The inverse of ``T_fwd`` acts on the series; centering changes none of the
    quantities the transfer laws compare.  The laws read the image jet to
    order 3 only.  Without a horizontal translation the inverse acts on F
    truncated there: the graded solve's part of degree d reads F only to
    degree d, so the image jet is the full-order one, to the bit on floats.
    A horizontal translation re-centers F and mixes every order into each,
    so F is then taken at full order.
    """
    F = _centered(F)
    T = _invert_transform(T_fwd)
    low = F if T.d != 0 or T.n != 0 else TruncatedSeries2(min(F.order, 3), F.coeffs)
    return jets_of_series(F), jets_of_series(apply_affine(low, T))


def hessian_transfer_check(F: TruncatedSeries2, T_fwd) -> dict:
    """Verify H_G = (delta^2 / Lambda^4) H_F at the origin for a forward map.

    Exact on rational data.
    """
    cf, cg = _transported_jets(F, T_fwd)
    fx, fy = cf[(1, 0)], cf[(0, 1)]
    delta = T_fwd.delta()
    lam = T_fwd.lam(fx, fy)
    hf = invariant_H(cf.values)
    hg = invariant_H(cg.values)
    return {
        "H_F": hf,
        "H_G": hg,
        "delta": delta,
        "Lambda": lam,
        "lhs": hg * lam**4,
        "rhs": delta**2 * hf,
    }


def _invert_transform(T):
    inv_lin = T.inverse_matrix()
    (d, n, w) = T.translation()
    tr = [-sum(inv_lin[i][h] * (d, n, w)[h] for h in range(3)) for i in range(3)]
    return AffineTransform3(
        a=inv_lin[0][0], b=inv_lin[0][1], c=inv_lin[0][2],
        k=inv_lin[1][0], l=inv_lin[1][1], m=inv_lin[1][2],
        p=inv_lin[2][0], q=inv_lin[2][1], r=inv_lin[2][2],
        d=tr[0], n=tr[1], w=tr[2],
    )


def hessian_congruence_check(F: TruncatedSeries2, T_fwd) -> dict:
    """The 2x2 congruence A Hess_G A^t = (delta/Lambda) Hess_F at the origin."""
    cf, cg = _transported_jets(F, T_fwd)
    fx, fy = cf[(1, 0)], cf[(0, 1)]
    A = (
        (T_fwd.a + T_fwd.c * fx, T_fwd.k + T_fwd.m * fx),
        (T_fwd.b + T_fwd.c * fy, T_fwd.l + T_fwd.m * fy),
    )
    HG = ((cg[(2, 0)], cg[(1, 1)]), (cg[(1, 1)], cg[(0, 2)]))
    lhs = [[0, 0], [0, 0]]
    for i in range(2):
        for j in range(2):
            lhs[i][j] = sum(A[i][a] * HG[a][b] * A[j][b] for a in range(2) for b in range(2))
    delta = T_fwd.delta()
    lam = T_fwd.lam(fx, fy)
    factor = delta / lam
    rhs = (
        (factor * cf[(2, 0)], factor * cf[(1, 1)]),
        (factor * cf[(1, 1)], factor * cf[(0, 2)]),
    )
    return {"lhs": tuple(tuple(r) for r in lhs), "rhs": rhs}


def slope_transfer_check(F: TruncatedSeries2, T_fwd) -> dict:
    """S_G = (F_xx / Upsilon) S_F with Upsilon = (l + m F_y) F_xx - (k + m F_x) F_xy."""
    cf, cg = _transported_jets(F, T_fwd)
    fx, fy = cf[(1, 0)], cf[(0, 1)]
    upsilon = (T_fwd.l + T_fwd.m * fy) * cf[(2, 0)] - (T_fwd.k + T_fwd.m * fx) * cf[(1, 1)]
    sf = invariant_S(cf.values)
    sg = invariant_S(cg.values)
    return {"S_F": sf, "S_G": sg, "factor": cf[(2, 0)] / upsilon, "lhs": sg, "rhs": cf[(2, 0)] / upsilon * sf}


# -- evaluation reports ----------------------------------------------------------


class InvariantReport:
    """Branch label plus the invariant values defined on that branch."""

    def __init__(self, branch: str, values: Dict[str, object], tol: float):
        self.branch = branch
        self.values = values
        self.tol = tol

    def to_dict(self) -> dict:
        out = {"branch": self.branch, "tolerance": self.tol, "provenance": "closed-form"}
        for key in ("H", "Pick", "S", "W", "X", "Y", "M"):
            v = self.values.get(key)
            out[key] = None if v is None else scalar_to_string(v)
        return out


def decide(value, monomials, tol: float) -> bool:
    """The branch-deciding zero test shared by the closed forms and the loops.

    True when |value| <= tol (1 + max |m|) over the numerator monomials m;
    raises :class:`AmbiguousBranchError` when |value| is within ten times that
    bound, and returns False beyond it.  A value or bound that is not finite
    (float products past the float range) raises :class:`OverflowError`.
    """
    v = abs(to_float(value))
    bound = tol * (1.0 + max([0.0] + [abs(to_float(m)) for m in monomials]))
    if not (math.isfinite(v) and math.isfinite(bound)):
        raise OverflowError(f"value {v:.3e} or its bound {bound:.3e} is not finite")
    if v <= bound:
        return True
    if v <= 10.0 * bound:
        raise AmbiguousBranchError(
            f"value {v:.3e} is within (tol, 10 tol) of zero (tol {tol:.1e}); "
            "refusing to pick a branch"
        )
    return False


def _vanishes(terms, tol: float) -> bool:
    return decide(_total(terms), terms, tol)


def swap_axes(coeffs: Mapping[Coord, object]) -> Dict[Coord, object]:
    """The axis swap x = t, y = -s of jet or series coefficients: F'_(j,k) = (-1)^j F_(k,j)."""
    return {(k, j): -v if k % 2 else v for (j, k), v in coeffs.items()}


_SECOND_ORDER = ((2, 0), (1, 1), (0, 2))


def aligned_jet(c: Mapping[Coord, object], tol: float):
    """``c``, or its :func:`swap_axes` image when u_xx is negligible beside u_yy (rank-one jets)."""
    a20, a11, a02 = (abs(to_float(c[jk])) for jk in _SECOND_ORDER)
    bound = tol * (1.0 + max(a20, a11, a02))
    if a20 > bound:
        return c
    if a02 <= bound:
        raise BranchError(NOT_GRAPH_ALIGNED)
    return swap_axes(c)


def surface_branch(c: Mapping[Coord, object], tol: float = DEFAULT_TOL):
    """``(label, jet)`` of a filled surface jet: the one branch rule of both routes.

    In order: Flat (order < 2 or a negligible second-order part), Elliptic or
    Hyperbolic off H = 0, the :func:`aligned_jet` swap, Cylinder at order 2 or
    on S = 0, order-too-low at order 3 or 4, Generic off W = 0, else Cone, or
    Cone[model] on X = 0 too.  Each zero test is :func:`decide` on the
    numerator's terms; the returned jet is the aligned one the branch is read on.
    """
    order = max(j + k for j, k in c)
    if order < 2 or max(abs(to_float(c[jk])) for jk in _SECOND_ORDER) <= tol:
        return "Flat", c
    h = h_terms(c)
    if not _vanishes(h, tol):
        return ("Elliptic" if to_float(_total(h)) > 0 else "Hyperbolic"), c
    c = aligned_jet(c, tol)
    if order < 3 or _vanishes(s_terms(c), tol):
        return "Cylinder", c
    if order < 5:
        return "order-too-low", c
    if not _vanishes(w_terms(c), tol):
        return "Generic", c
    return ("Cone[model]" if _vanishes(conic_terms(_x_jet(c)), tol) else "Cone"), c


def evaluate_at_jet(c: Mapping[Coord, object], tol: float = DEFAULT_TOL) -> InvariantReport:
    """The branch of :func:`surface_branch` and the invariant values defined on it."""
    branch, aligned = surface_branch(c, tol)
    order = max(j + k for j, k in c)
    values: Dict[str, object] = {"H": invariant_H(c)} if order >= 2 else {}
    if branch in ("Elliptic", "Hyperbolic"):
        if order >= 3:
            values["Pick"] = pick_invariant(c, branch.lower())
    elif branch != "Flat" and order >= 3:
        values["S"] = invariant_S(aligned)
        if order >= 4 and branch != "Cylinder":
            values["W"] = invariant_W(aligned)
        if branch == "Generic":
            values["M"] = invariant_M(aligned)
        elif branch.startswith("Cone"):
            values["X"] = invariant_X(aligned)
            if branch == "Cone" and order >= 7:
                values["Y"] = invariant_Y(aligned)
    return InvariantReport(branch, values, tol)
