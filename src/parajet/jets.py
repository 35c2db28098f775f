"""Jet coordinates of graphed surfaces, rank-one-Hessian jets, total derivatives.

A :class:`ParabolicJet` holds the independent coordinates of a rank-one jet:
u, the pure x-jets ``u_{j,0}`` and the mixed jets ``u_{j,1}``.  Every
``u_{j,k}`` with ``k >= 2`` is a rational function of these whose denominator
is a power of ``u_{2,0}``.  It is transported along the gradient image, the
curve u_y = g(u_x) where u_xx != 0: Q = u_y and lambda = u_xy / u_xx satisfy

    Q_y = lambda Q_x                           the rank-one relation u_xx u_yy = u_xy^2, over u_xx;
    lambda_y = lambda lambda_x                 its x-derivative, over u_xx^2;
    d_y(lambda^k Q_x) = d_x(lambda^(k+1) Q_x)  the product rule with both,

so by induction d_y^k Q = d_x^(k-1)(lambda^k Q_x) for k >= 1.

On y = 0, in the factorial convention, A_i = u_{i+2,0} and B_i = u_{i+1,1}
are the x-series of u_xx and of u_xy = Q_x, rho = B / A is lambda there and
C_k = rho^k B is lambda^k Q_x, so ``u_{j,k+1} = C_k[j+k-1]``.  Both come by
Leibniz: rho_i = (B_i - sum_{l<i} C(i,l) rho_l A_{i-l}) / A_0, C_0 = B and
C_k[i] = sum_{l<=i} C(i,l) rho_l C_{k-1}[i-l], about n^3/2 products to order
n and univariate series only.  An entry of degree d reads index d - 2 of
some C_k, so the fill goes degree by degree and only up to the highest degree
asked for so far; no formula is hard-coded.  Int and Fraction jets sum each
coefficient on integers over one common denominator; float and ``Sens`` jets
fold it in their own arithmetic.

Every derivative of a scalar function of a jet is one chain rule: one
evaluation on the :func:`seeded` jet, whose partials :func:`chain_rule`
contracts with how each coordinate moves.  For D_x and D_y, u_J moves to
(u_{J+e_x}, u_{J+e_y}), so ``D_y`` picks up the dependent-jet substitutions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Callable, Dict, Hashable, Mapping, Sequence, Tuple

from .scalars import Sens
from .series import TruncatedSeries2

Coord = Tuple[int, int]
JetFunction = Callable[[Mapping[Coord, object]], object]


class JetPoint:
    """A full jet at the expansion point: u_{j,k} for all j + k <= order."""

    __slots__ = ("order", "values")

    def __init__(self, order: int, values: Dict[Coord, object]):
        self.order = order
        self.values = dict(values)
        for j in range(order + 1):
            for k in range(order + 1 - j):
                self.values.setdefault((j, k), 0)

    def __getitem__(self, jk: Coord):
        return self.values[jk]


def _binomial_dot(i: int, stop: int, x: Sequence, y: Sequence, start, exact: bool, divisor=None):
    """(start + sum over l < stop of C(i, l) x[l] y[i - l]) / divisor; the integer 0 when that sum is 0.

    Exact factors (ints and Fractions) accumulate R / L on integers, with a gcd
    only where L must grow; any other factors fold left in their own arithmetic.
    """
    if exact:
        R, L = start.numerator, start.denominator
        for l in range(stop):
            a, b = x[l], y[i - l]
            n = comb(i, l) * a.numerator * b.numerator
            if n:
                d = a.denominator * b.denominator
                s, r = divmod(L, d)
                if r:
                    g = gcd(L, d)
                    R, L, s = R * (d // g), L // g * d, L // g
                R += n * s
        if not R:
            return 0
        return Fraction(R, L) if divisor is None else Fraction(R * divisor.denominator, L * divisor.numerator)
    total = start
    for l in range(stop):
        total = total + comb(i, l) * x[l] * y[i - l]
    if total != 0:
        return total if divisor is None else total / divisor
    return 0


class ParabolicJet:
    """Independent coordinates of a rank-one-Hessian jet of given order.

    Coordinates: u, u_{j,0} for 1 <= j <= order and u_{j,1} for
    0 <= j <= order - 1; that is 3 + 2*order numbers.  Requires u_{2,0} != 0.

    The dependent u_{j,k} come from the transport identity of the module
    docstring: Q_y = lambda Q_x and lambda_y = lambda lambda_x give
    d_y^k Q = d_x^(k-1)(lambda^k Q_x), read on y = 0 as u_{j,k+1} = C_k[j+k-1]
    with C_k = rho^k B.  The jet keeps rho and the C_k as it fills; whether
    the fill is exact is decided once, on all of A and B.
    """

    __slots__ = ("order", "coords", "_values", "_degree", "_rho", "_transport", "_A", "_exact")

    def __init__(self, order: int, coords: Dict[Coord, object]):
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
        self.order = order
        self.coords = dict(coords)
        self._values = dict(coords)  # the coordinates and every dependent entry filled so far
        self._degree = 1  # dependent entries are filled through this degree
        self._rho: list = []  # rho = B / A, filled to index self._degree - 2
        self._transport: list = []  # C_0 = B, C_1, ..., C_k = rho^k B

    def _fill(self, upto: int) -> None:
        u, rho, C = self._values, self._rho, self._transport
        if not C:  # A_i = u_{i+2,0} and C_0 = B, B_i = u_{i+1,1}, ints lifted to Fractions
            A, B = ([self.coords[(i + 2 - k, k)] for i in range(self.order - 1)] for k in (0, 1))
            A, B = ([Fraction(v) if isinstance(v, int) else v for v in row] for row in (A, B))
            self._A, self._exact = A, all(isinstance(v, Fraction) for v in A + B)
            C.append(B)
        A, exact = self._A, self._exact
        for d in range(self._degree + 1, upto + 1):
            i = d - 2
            rho.append(_binomial_dot(i, i, rho, A, -C[0][i], exact, -A[0]))
            C.append([])  # C_{d-1}, first read at degree d
            for k in range(1, d):
                for m in range(len(C[k]), i + 1):
                    C[k].append(_binomial_dot(m, m + 1, rho, C[k - 1], 0, exact))
                u[(d - k - 1, k + 1)] = C[k][i]
        self._degree = max(self._degree, upto)

    def __getitem__(self, jk: Coord):
        return self.value(jk)

    def value(self, jk: Coord):
        """u_{j,k}; dependent coordinates (k >= 2) are filled on demand."""
        if jk not in self._values:
            j, k = jk
            if k <= 1 or j + k > self.order:
                raise KeyError(f"coordinate {jk} exceeds jet order {self.order}")
            self._fill(j + k)
        return self._values[jk]

    def filled(self, upto: int) -> Dict[Coord, object]:
        """All u_{j,k} with j + k <= upto as a plain mapping."""
        if upto > self.order:
            raise KeyError(f"requested order {upto} exceeds jet order {self.order}")
        self._fill(upto)
        return {(j, k): self._values[(j, k)] for j in range(upto + 1) for k in range(upto + 1 - j)}


def seeded(p, frozen=()):
    """The jet p with every coordinate outside ``frozen`` seeded as a ``Sens`` under its own key.

    p is a :class:`ParabolicJet` or a curve jet {i: u_i}; the result is of the same kind.
    """
    if isinstance(p, ParabolicJet):
        return ParabolicJet(p.order, seeded(p.coords, frozen))
    return {key: v if key in frozen else Sens.seed(v, key) for key, v in p.items()}


def chain_rule(g, moved: Callable[[Hashable], Sequence], width: int) -> list:
    """[sum_J dg/du_J * moved(J)[i] for i < width]: the partials of g contracted with moved.

    A left fold over the nonzero partials of g, in their order; moved(J) is
    asked only for those.  A g that is no ``Sens`` gives the zero vector.
    """
    total = [0] * width
    for key, d in Sens.lift(g).partials.items():
        if d == 0:
            continue
        total = [t + d * m for t, m in zip(total, moved(key), strict=True)]
    return total


def total_derivative(f: JetFunction, p: ParabolicJet) -> list:
    """[D_x f, D_y f] at a parabolic jet from one evaluation of f on the seeded jet.

    ``f`` receives a mapping from (j, k) to scalar and may read any dependent
    coordinate; the jet must carry one order more than f consumes, because
    the gradient is contracted against the shifted coordinates (with the
    rank-one substitutions supplying the shifts of the u_{j,1}).  A partial
    at the top order raises ``KeyError``.
    """
    return chain_rule(f(seeded(p)), lambda J: (p.value((J[0] + 1, J[1])), p.value((J[0], J[1] + 1))), 2)


def jets_of_series(F: TruncatedSeries2) -> JetPoint:
    """The jet at the expansion point: u_{j,k} := F_{j,k} (factorial convention)."""
    return JetPoint(F.order, dict(F.coeffs))


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
    return chain_rule(f(seeded(jet)), lambda i: (jet[i + 1],), 1)[0]


class DerivativeView(dict):
    """The lazy mapping (j, k) -> d^j_x d^k_y F of a series or polynomial, derived in x first, then in y.

    A jet function evaluated on it gives the series or polynomial of its values; each derivative is
    taken once.  Numerators of a series are taken on the view of its :class:`~parajet.series.Poly2`,
    capped at the degree they are read to, so that their products run on integer numerators.
    """

    def __init__(self, F):
        super().__init__({(0, 0): F})

    def __missing__(self, jk: Coord):
        j, k = jk
        self[jk] = self[(j, k - 1)].derivative("y") if k else self[(j - 1, 0)].derivative("x")
        return self[jk]
