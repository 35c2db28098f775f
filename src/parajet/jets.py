"""Jet coordinates of graphed surfaces, rank-one-Hessian jets, total derivatives.

A :class:`ParabolicJet` holds the independent coordinates of a rank-one jet:
the base point, u, the pure x-jets ``u_{j,0}`` and the mixed jets ``u_{j,1}``.
Every ``u_{j,k}`` with ``k >= 2`` is a rational function of these whose
denominator is a power of ``u_{2,0}``; the values are generated by a
triangular solve of the rank-one relation ``F_xx F_yy = F_xy^2`` column by
column in y, never from hard-coded formulas.

Total derivatives of scalar functions of a jet are computed exactly by
forward sensitivity propagation (:class:`~parajet.scalars.Sens`) and then
contracted against the coordinate shifts, so ``D_y`` automatically picks up
the dependent-jet substitutions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

from .scalars import Sens
from .series import TruncatedSeries1, TruncatedSeries2, _binom

Coord = Tuple[int, int]
JetFunction = Callable[[Mapping[Coord, object]], object]


class JetPoint:
    """A full jet: base (x, y) and u_{j,k} for all j + k <= order."""

    __slots__ = ("x", "y", "order", "values")

    def __init__(self, x, y, order: int, values: Dict[Coord, object]):
        self.x = x
        self.y = y
        self.order = order
        self.values = dict(values)
        for j in range(order + 1):
            for k in range(order + 1 - j):
                self.values.setdefault((j, k), 0)

    def __getitem__(self, jk: Coord):
        return self.values[jk]


def _div_unit(P: TruncatedSeries1, Q: TruncatedSeries1) -> TruncatedSeries1:
    """P / Q for a unit Q (Q(0) != 0), exact in rational mode, no order loss."""
    n = min(P.order, Q.order)
    q0 = Q[0]
    out: Dict[int, object] = {}
    for d in range(n + 1):
        acc = P[d]
        for i in range(1, d + 1):
            if Q[i] != 0 and out.get(d - i, 0) != 0:
                acc = acc - _binom(d, i) * Q[i] * out[d - i]
        if acc != 0:
            out[d] = acc / q0
    return TruncatedSeries1(n, out)


def _columns_from_coords(coords: Mapping[Coord, object], order: int) -> List[TruncatedSeries1]:
    """Column series T_k(x) with F = sum_k T_k(x) y^k / k! on the rank-one locus.

    T_0, T_1 come from the independent coordinates; T_k for k >= 2 solves
    F_yy = F_xy^2 / F_xx degree by degree in y, which is triangular because
    the y^(k-2) coefficient of the right side involves only T_0 .. T_{k-1}.
    """
    n = order
    T: List[TruncatedSeries1] = [
        TruncatedSeries1(n, {j: coords[(j, 0)] for j in range(n + 1) if coords.get((j, 0), 0) != 0}),
        TruncatedSeries1(
            max(n - 1, 0), {j: coords[(j, 1)] for j in range(n) if coords.get((j, 1), 0) != 0}
        ),
    ]
    for k in range(2, n + 1):
        m = k - 2
        xo = n - k
        # (F_xy^2)_m and (F_xx . F_yy)_m in the factorial y-convention
        rhs = TruncatedSeries1(xo, {})
        for i in range(m + 1):
            Bi = T[i + 1].derivative()
            Bj = T[m - i + 1].derivative()
            rhs = rhs + (Bi * Bj).scale(_binom(m, i))
        known = TruncatedSeries1(xo, {})
        for i in range(1, m + 1):
            Ai = T[i].derivative().derivative()
            known = known + (Ai * T[m - i + 2]).scale(_binom(m, i))
        A0 = T[0].derivative().derivative()
        T.append(_div_unit(rhs - known, A0))
    return T


class ParabolicJet:
    """Independent coordinates of a rank-one-Hessian jet of given order.

    Coordinates: u, u_{j,0} for 1 <= j <= order and u_{j,1} for
    0 <= j <= order - 1; that is 3 + 2*order numbers together with the base
    point.  Requires u_{2,0} != 0.
    """

    __slots__ = ("x", "y", "order", "coords", "_cols")

    def __init__(self, order: int, coords: Dict[Coord, object], x=0, y=0):
        if order < 2:
            raise ValueError("parabolic jets start at order 2")
        expected = {(0, 0)}
        expected.update((j, 0) for j in range(1, order + 1))
        expected.update((j, 1) for j in range(0, order))
        missing = expected - set(coords)
        if missing:
            raise ValueError(f"missing independent coordinates: {sorted(missing)}")
        extra = set(coords) - expected
        if extra:
            raise ValueError(f"not independent parabolic coordinates: {sorted(extra)}")
        if coords[(2, 0)] == 0:
            raise ValueError("u_{2,0} must be nonzero on the parabolic domain")
        self.x = x
        self.y = y
        self.order = order
        self.coords = dict(coords)
        self._cols: List[TruncatedSeries1] | None = None

    def _columns(self) -> List[TruncatedSeries1]:
        if self._cols is None:
            self._cols = _columns_from_coords(self.coords, self.order)
        return self._cols

    def __getitem__(self, jk: Coord):
        return self.value(jk)

    def value(self, jk: Coord):
        """u_{j,k}; dependent coordinates (k >= 2) are generated on demand."""
        if jk in self.coords:
            return self.coords[jk]
        j, k = jk
        if k <= 1 or j + k > self.order:
            raise KeyError(f"coordinate {jk} exceeds jet order {self.order}")
        return self._columns()[k][j]

    def filled(self, upto: int) -> Dict[Coord, object]:
        """All u_{j,k} with j + k <= upto as a plain mapping."""
        if upto > self.order:
            raise KeyError(f"requested order {upto} exceeds jet order {self.order}")
        out: Dict[Coord, object] = {}
        for j in range(upto + 1):
            for k in range(upto + 1 - j):
                out[(j, k)] = self.coords[(j, k)] if (j, k) in self.coords else self.value((j, k))
        return out


def _seed_and_contract(f, coords, point, shifted, too_low: str):
    """Evaluate f at point(coords seeded as Sens); contract its gradient with shifted(key)."""
    g = f(point({key: Sens.seed(val, key) for key, val in coords.items()}))
    if not isinstance(g, Sens):
        return 0
    total = 0
    for key, sens in g.partials.items():
        if sens == 0:
            continue
        s = shifted(key)
        if s is None:
            raise KeyError(f"{too_low} of a function touching u_{key}")
        total = total + sens * s
    return total


def total_derivative(f: JetFunction, direction: str, p: ParabolicJet):
    """D_x f or D_y f at a parabolic jet, exact via sensitivity propagation.

    ``f`` receives a mapping from (j, k) to scalar and may read any dependent
    coordinate; the jet must carry one order more than f consumes, because
    the gradient is contracted against the shifted coordinates (with the
    rank-one substitutions supplying the shifts of the u_{j,1}).
    """
    if direction not in ("x", "y"):
        raise ValueError("direction must be 'x' or 'y'")
    dj, dk = (1, 0) if direction == "x" else (0, 1)

    def shifted(key):
        j, k = key
        return p.value((j + dj, k + dk)) if j + k < p.order else None

    return _seed_and_contract(
        f, p.coords, lambda seeded: ParabolicJet(p.order, seeded), shifted,
        f"jet order {p.order} too low for D_{direction}",
    )


def jets_of_series(F: TruncatedSeries2, x=0, y=0) -> JetPoint:
    """The jet at the expansion point: u_{j,k} := F_{j,k} (factorial convention)."""
    return JetPoint(x, y, F.order, dict(F.coeffs))


def parabolic_jet_of_series(F: TruncatedSeries2, order: int | None = None) -> ParabolicJet:
    """Read the independent rank-one coordinates off a series at its base point."""
    n = F.order if order is None else order
    if n > F.order:
        raise ValueError("requested order exceeds the series order")
    coords: Dict[Coord, object] = {(0, 0): F[(0, 0)]}
    for j in range(1, n + 1):
        coords[(j, 0)] = F[(j, 0)]
    for j in range(0, n):
        coords[(j, 1)] = F[(j, 1)]
    return ParabolicJet(n, coords)


def realize_series(p: ParabolicJet, order: int | None = None) -> TruncatedSeries2:
    """A graphed surface through the jet: coefficients copied from the filled jet.

    The result satisfies the rank-one relation to its truncation order, so it
    is a legitimate parabolic surface germ realizing p.
    """
    n = p.order if order is None else order
    if n > p.order:
        raise ValueError("cannot realize beyond the jet order")
    coeffs = {jk: v for jk, v in p.filled(n).items() if v != 0}
    return TruncatedSeries2(n, coeffs)


def curve_total_derivative(f: Callable[[Mapping[int, object]], object], jet: Mapping[int, object]):
    """D_x f for a function of curve jet coordinates u_0 .. u_n."""
    return _seed_and_contract(f, jet, dict, lambda i: jet.get(i + 1), "curve jet order too low for D_x")


class DerivativeView(dict):
    """The lazy mapping (j, k) -> d^j_x d^k_y F of a series, derived in x first, then in y.

    A jet function evaluated on it gives the series of its values; each derivative is taken once.
    """

    def __init__(self, F: TruncatedSeries2):
        super().__init__({(0, 0): F})

    def __missing__(self, jk: Coord) -> TruncatedSeries2:
        j, k = jk
        self[jk] = self[(j, k - 1)].derivative("y") if k else self[(j - 1, 0)].derivative("x")
        return self[jk]
