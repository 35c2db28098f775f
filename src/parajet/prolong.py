"""Prolongation of polynomial vector fields to jet spaces, over exact rationals.

Variables of the jet polynomial ring are encoded as integer pairs:

* ``(-1, 0)`` is x, ``(-1, 1)`` is y,
* ``(j, k)`` with ``j, k >= 0`` is ``u_{j,k}`` (so ``(0, 0)`` is u itself).

Curves are the ``k = 0`` slice of the same machinery.

A :class:`Poly` is an element of that ring: a dict from monomials to
nonzero rationals that carries its own ``+``, ``-``, unary ``-`` and ``*``,
so formulas written for scalars (the deciding numerators of
:mod:`parajet.invariants` among them) run on it unchanged.  Exponents may be
negative, so the ring has u20 inverted.  On the rank-one locus every
u_{j,k} with k >= 2 is a Laurent polynomial in the independent coordinates
with powers of u20 as the only denominators.  A prolonged coefficient is
computed from the generator by total differentiation; push-forward to the
rank-one jet locus substitutes every dependent u_{j,k} and splits the
result into a (polynomial, least power of u20) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Sequence, Tuple

from .invariants import invariant_H
from .scalars import to_float

X = (-1, 0)
Y = (-1, 1)
U = (0, 0)

Var = Tuple[int, int]
Monomial = Tuple[Tuple[Var, int], ...]

_ZERO = Fraction(0)


class Poly(dict):
    """A jet-ring polynomial {monomial: nonzero Fraction} with ``+``, ``-``, unary ``-`` and ``*``.

    The right operand may be any monomial mapping, the read-only ones
    :func:`prolong` returns among them, and ``*`` also takes a scalar on
    either side.  A coefficient that sums to zero is dropped, so
    ``a - a == {}``.
    """

    __slots__ = ()

    def __add__(self, other) -> Poly:
        return _sum(self, other.items())

    def __sub__(self, other) -> Poly:
        return _sum(self, ((m, -c) for m, c in other.items()))

    def __neg__(self) -> Poly:
        return Poly({m: -c for m, c in self.items()})

    def __mul__(self, other) -> Poly:
        if hasattr(other, "items"):  # not isinstance(other, Mapping), whose check slows the products
            return _product(self, other)
        return Poly({m: c * other for m, c in self.items()} if other else {})

    def __rmul__(self, other) -> Poly:
        return _product(other, self) if hasattr(other, "items") else self * other


def _sum(a, terms) -> Poly:
    """``a`` plus the (monomial, coefficient) pairs ``terms``, in that order."""
    out = Poly(a)
    for m, c in terms:
        s = out.get(m, _ZERO) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(item for item in d.items() if item[1]))


def _product(a, b) -> Poly:
    return _sum({}, ((_mono_mul(m1, m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items()))


def poly(*terms) -> Poly:
    """Build a polynomial from (coefficient, {var: exp}) terms."""
    pairs = ((tuple(sorted((v, e) for v, e in powers.items() if e)), Fraction(c)) for c, powers in terms)
    return _sum({}, pairs)


def p_diff(a: Poly, var: Var) -> Poly:
    out = Poly()
    for m, c in a.items():
        e = dict(m).get(var, 0)
        if e:
            out[_mono_mul(m, ((var, -1),))] = c * e
    return out


def p_vars(a: Poly):
    return {v for m in a for v, _ in m}


def p_eval(a: Poly, assignment):
    """Evaluate with a mapping from Var to scalar; generic over scalar type."""
    total = 0
    for m, c in a.items():
        term = c
        for v, e in m:
            term = term * assignment[v] ** e
        total = total + term
    return total


def p_total_derivative(a: Poly, direction: str) -> Poly:
    """Formal D_x or D_y on the full jet polynomial ring."""
    out = Poly()
    for var in p_vars(a):
        da = p_diff(a, var)
        if var == (X if direction == "x" else Y):
            out = out + da  # D_x x = D_y y = 1
        elif var not in (X, Y):
            j, k = var
            out = out + da * poly((1, {(j + 1, k) if direction == "x" else (j, k + 1): 1}))
    return out


@dataclass(frozen=True)
class VectorField:
    """xi d/dx + eta d/dy + phi d/du with polynomial coefficients in (x, y, u)."""

    xi: Poly
    eta: Poly
    phi: Poly
    name: str = ""


def vf(name: str, xi=None, eta=None, phi=None) -> VectorField:
    return VectorField(Poly(xi or {}), Poly(eta or {}), Poly(phi or {}), name)


def sa3_generators() -> List[VectorField]:
    """The 11 generators of the special affine algebra on (x, y, u)."""
    x, y, u = poly((1, {X: 1})), poly((1, {Y: 1})), poly((1, {U: 1}))
    return [
        vf("v1", xi=x, phi=-u),
        vf("v2", eta=y, phi=-u),
        vf("v3", xi=y),
        vf("v4", xi=u),
        vf("v5", eta=x),
        vf("v6", eta=u),
        vf("v7", phi=x),
        vf("v8", phi=y),
        vf("w1", xi=poly((1, {}))),
        vf("w2", eta=poly((1, {}))),
        vf("w3", phi=poly((1, {}))),
    ]


def jet_generators() -> List[VectorField]:
    """v1..v6, the generators that move jet coordinates of order >= 2; reads ``sa3_generators`` per call."""
    return sa3_generators()[:6]


def sl2_curve_generators() -> List[VectorField]:
    x, u = poly((1, {X: 1})), poly((1, {U: 1}))
    return [
        vf("v1", xi=x, phi=-u),
        vf("v2", xi=u),
        vf("v3", phi=x),
    ]


def gl2_curve_generators() -> List[VectorField]:
    x, u = poly((1, {X: 1})), poly((1, {U: 1}))
    return [
        vf("v1", xi=x),
        vf("v2", phi=u),
        vf("v3", xi=u),
        vf("v4", phi=x),
    ]


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[v, w] componentwise on (x, y, u) coefficients."""

    def apply(field: VectorField, target: Poly) -> Poly:
        out = Poly()
        for var, comp in ((X, field.xi), (Y, field.eta), (U, field.phi)):
            d = p_diff(target, var)
            if d and comp:
                out = out + comp * d
        return out

    return VectorField(
        apply(v, w.xi) - apply(w, v.xi),
        apply(v, w.eta) - apply(w, v.eta),
        apply(v, w.phi) - apply(w, v.phi),
        f"[{v.name},{w.name}]",
    )


_PROLONGED: Dict[tuple, Poly] = {}


def prolong(v: VectorField, J: Tuple[int, int]) -> Poly:
    """Coefficient of d/du_J of the prolonged field: D_J(phi - xi u10 - eta u01) + ...

    Exact rational polynomial depending on jets of order <= |J| only.  It
    depends on nothing but the field's coefficients and J, so it is computed
    once per pair and shared: the result is a read-only mapping.  The key is
    the coefficients, not ``v.name``, which the generator families reuse.
    """
    key = (tuple(tuple(sorted(c.items())) for c in (v.xi, v.eta, v.phi)), J)
    q = _PROLONGED.get(key)
    if q is None:
        q = _PROLONGED[key] = MappingProxyType(_prolong(v, J))
    return q


def _prolong(v: VectorField, J: Tuple[int, int]) -> Poly:
    """The prolonged coefficient of :func:`prolong`, computed afresh."""
    j, k = J
    if j + k < 1:
        raise ValueError("prolongation needs |J| >= 1")
    q = v.phi - (v.xi * poly((1, {(1, 0): 1})) + v.eta * poly((1, {(0, 1): 1})))
    for _ in range(j):
        q = p_total_derivative(q, "x")
    for _ in range(k):
        q = p_total_derivative(q, "y")
    return q + v.xi * poly((1, {(j + 1, k): 1})) + v.eta * poly((1, {(j, k + 1): 1}))


# -- symbolic rank-one substitutions -----------------------------------------

RationalPoly = Tuple[Poly, int]  # numerator / u20^m as (numerator, m): a polynomial and the least such m

_R_CACHE: Dict[Tuple[int, int], Poly] = {}


def _dependent(j: int, k: int) -> Poly:
    """u_{j,k}, k >= 2, on the rank-one locus: a Laurent polynomial, negative powers in u_{2,0} only.

    Generated by total differentiation of u_{0,2} = u_{1,1}^2 u_{2,0}^-1; the
    dependent jets each derivative brings in are substituted back.
    """
    key = (j, k)
    val = _R_CACHE.get(key)
    if val is None:
        if key == (0, 2):
            val = poly((1, {(1, 1): 2, (2, 0): -1}))
        elif j > 0:
            val = _substitute_dependents(p_total_derivative(_dependent(j - 1, k), "x"))
        else:
            val = _substitute_dependents(p_total_derivative(_dependent(0, k - 1), "y"))
        _R_CACHE[key] = val
    return val


def _substitute_dependents(a: Poly) -> Poly:
    """Replace every u_{j,k} with k >= 2 by its rank-one substitution (x and y have k = 0, 1)."""
    out = Poly()
    for mono, c in a.items():
        term = Poly({tuple((v, e) for v, e in mono if v[1] < 2): c})
        for v, e in mono:
            if v[1] >= 2:
                for _ in range(e):
                    term = term * _dependent(*v)
        out = out + term
    return out


def _split(a: Poly) -> RationalPoly:
    """A Laurent polynomial in u_{2,0} as (numerator, m), numerator / u_{2,0}^m, with m least."""
    m = max([0] + [-e for mono in a for v, e in mono if v == (2, 0)])
    return Poly({_mono_mul(mono, (((2, 0), m),)): c for mono, c in a.items()}), m


def rank_one_substitution(j: int, k: int) -> RationalPoly:
    """The rational expression of u_{j,k}, k >= 2, on the rank-one locus.

    Denominators are powers of u_{2,0} by construction.
    """
    if k < 2:
        raise ValueError("only k >= 2 is dependent")
    return _split(_dependent(j, k))


def parabolic_pushforward(phi: Poly) -> RationalPoly:
    """Push a prolonged coefficient to the rank-one jet coordinates.

    Substitutes all dependent jets; the result is a polynomial in the
    independent coordinates over a power of u_{2,0}.
    """
    return _split(_substitute_dependents(phi))


def tangency_quotients() -> List[Poly]:
    """v_sigma(H)/H for the six non-trivial generators, H the Hessian determinant.

    H is :func:`~parajet.invariants.invariant_H` on the ring variables.

    Each quotient q contains no u02, so the terms of v(H) linear in u02 are
    q u20 u02: q is read off them by multiplying with the monomial
    u20^-1 u02^-1 and checked by multiplying back.  The check is the only
    guard needed: u20 and u02 do not divide H, so a Laurent q with q H a
    polynomial is a polynomial.  A quotient that fails it signals a bug.
    """
    H = invariant_H({J: poly((1, {J: 1})) for J in [(2, 0), (1, 1), (0, 2)]})
    over_u20_u02 = poly((1, {(2, 0): -1, (0, 2): -1}))
    out = []
    for v in jet_generators():
        applied = Poly()
        for J in [(2, 0), (1, 1), (0, 2)]:
            applied = applied + prolong(v, J) * p_diff(H, J)
        q = Poly({m: c for m, c in applied.items() if dict(m).get((0, 2)) == 1}) * over_u20_u02
        if q * H != applied:
            raise ArithmeticError(f"v(H) is not a multiple of H for {v.name}")
        out.append(q)
    return out


# -- exact linear algebra -----------------------------------------------------


def rank_det_exact(rows: Sequence[Sequence[Fraction]]) -> Tuple[int, Fraction]:
    """Rank over the rationals and determinant by one exact forward elimination.

    The determinant is that of a square matrix; it is 0 whenever the rank
    falls short of the number of rows or columns.
    """
    m = [list(map(Fraction, r)) for r in rows]
    ncols = len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for col in range(ncols):
        if rank == len(m):
            break
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        pv = m[rank][col]
        det *= pv
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / pv
                for cidx in range(col, ncols):
                    m[r][cidx] -= f * m[rank][cidx]
        rank += 1
    return rank, det if rank == len(m) == ncols else Fraction(0)


def solve_linear_exact(a: Sequence[Sequence], b: Sequence):
    """Solve a square system over Fractions, floats or ``Sens`` (pivots chosen by value).

    ``b`` is one right-hand side, or a list of them (each a list or tuple), and
    then the solutions come back as a list: every column rides along in one
    elimination, with the pivots and the operations it would see alone.
    """
    many = bool(b) and isinstance(b[0], (list, tuple))
    cols = b if many else [b]
    n = len(cols[0])
    if len(a) != n or any(len(row) != n for row in a) or any(len(c) != n for c in cols):
        raise ValueError(f"expected {n} rows of {n} entries for {n} right-hand sides")
    m = [list(a[i]) + [c[i] for c in cols] for i in range(n)]
    width = n + len(cols)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(to_float(m[r][col])))
        if m[piv][col] == 0:
            raise ZeroDivisionError("singular linear system")
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / pv
                for cidx in range(col, width):
                    m[r][cidx] -= f * m[col][cidx]
    sols = [[m[i][n + j] / m[i][i] for i in range(n)] for j in range(len(cols))]
    return sols if many else sols[0]


# -- the order-2 and order-4 rank stories -------------------------------------

_ORDER2_BLOCK = ("v2", "v3", "v7", "v8", "w1", "w2", "w3")  # the generators of the 7x7 order-2 block


def order2_matrix_symbolic() -> List[List[Poly]]:
    """The 7x7 block (v2, v3, v7, v8, w1, w2, w3) x (x, y, u, u10, u01, u20, u11).

    These generators never touch a dependent jet at this order, so the
    pushed-forward entries are plain polynomials.
    """
    gens = {g.name: g for g in sa3_generators()}
    out = []
    for name in _ORDER2_BLOCK:
        g = gens[name]
        row = [g.xi, g.eta, g.phi]
        for J in [(1, 0), (0, 1), (2, 0), (1, 1)]:
            num, m = parabolic_pushforward(prolong(g, J))
            if m != 0:
                raise AssertionError("unexpected denominator at order 2")
            row.append(num)
        out.append(row)
    return out


def orbit_rank(order: int, p, base=(0, 0)) -> dict:
    """Rank data of the prolonged special-affine action at a rank-one jet.

    The prolonged generators are evaluated at the filled jet, which carries
    the dependent coordinates exactly.  order 2: rank of all 11 fields on the
    7 coordinates; also the exact 7x7 block determinant.  order 3: full rank
    on 9 coordinates.  order 4: the 6x6 jet-block of v1..v6, its determinant
    and rank, plus the three key 5x5 minors.
    """
    if order not in (2, 3, 4):
        raise ValueError("order must be 2, 3 or 4")
    assignment = {X: base[0], Y: base[1], **p.filled(p.order)}
    jet_cols = []
    for n in range(2, order + 1):
        jet_cols.append((n, 0))
        jet_cols.append((n - 1, 1))

    gens = sa3_generators()
    rows = []
    for g in gens:
        row = [p_eval(g.xi, assignment), p_eval(g.eta, assignment), p_eval(g.phi, assignment)]
        for J in [(1, 0), (0, 1)] + jet_cols:
            row.append(p_eval(prolong(g, J), assignment))
        rows.append(row)

    result = {"rank": rank_det_exact(rows)[0], "dim": 3 + 2 * order}

    if order == 2:
        block = [r for g, r in zip(gens, rows, strict=True) if g.name in _ORDER2_BLOCK]
        result["det7"] = rank_det_exact(block)[1]
    if order == 4:
        # the last six columns: u20, u11, u30, u21, u40, u31
        sub = [row[5:] for row in rows[:6]]
        result["block_rank"], result["block_det"] = rank_det_exact(sub)
        result["minors"] = {
            "M46": rank_det_exact(_delete(sub, 3, 5))[1],
            "M56": rank_det_exact(_delete(sub, 4, 5))[1],
            "M66": rank_det_exact(_delete(sub, 5, 5))[1],
        }
    return result


def _delete(matrix, i, j):
    return [
        [e for cj, e in enumerate(row) if cj != j]
        for ri, row in enumerate(matrix)
        if ri != i
    ]


def det_poly_matrix(entries: List[List[Poly]]) -> Poly:
    """Determinant over the polynomial ring by minor expansion with caching."""
    n = len(entries)

    cache: Dict[Tuple[int, ...], Poly] = {}

    def minor(cols: Tuple[int, ...], row: int) -> Poly:
        if row == n:
            return poly((1, {}))
        key = cols
        if key in cache:
            return cache[key]
        acc = Poly()
        for idx, col in enumerate(cols):
            e = entries[row][col]
            if not e:
                continue
            term = e * minor(cols[:idx] + cols[idx + 1 :], row + 1)
            acc = acc + term if idx % 2 == 0 else acc - term
        cache[key] = acc
        return acc

    return minor(tuple(range(n)), 0)
