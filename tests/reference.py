"""Definitional references for the series kernels, on plain dicts.

A polynomial is a dict from exponent tuples, in one to three variables, to
monomial coefficients: sum c_a x^a.  parajet's series keep the factorial
convention F_a = a! c_a; :func:`monomial` reads a bivariate series or the
trivariate record between substitution and solve, and :func:`factorial` and
the ``from_monomials`` builders convert back.  A univariate series is read
as its y-free slice.  Each reference computes its kernel from the definition,
in the scalars' own arithmetic, and runs none of the kernels it checks (the
fill reads the symbolic rank-one expressions of ``prolong``):
``test_hygiene.py::test_references_run_on_no_parajet_kernel`` makes those
kernels raise and calls every function here.  :func:`assert_same` is the one
bit-identity comparator and :func:`cone_model` the one cone-model fixture.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

from parajet.invariants import conic_numerator, s_numerator, w_terms
from parajet.jets import ParabolicJet
from parajet.prolong import p_eval, rank_one_substitution
from parajet.sampling import S_FLOOR, U20_FLOOR, rand_rational
from parajet.scalars import Sens, is_exact
from parajet.series import AffineTransform3, TruncatedSeries1, TruncatedSeries2, _Series3


def over(c, m):
    """c / m, a ``Fraction`` when both are exact."""
    return Fraction(c) / m if is_exact(c) and is_exact(m) else c / m


def _factorial(key) -> int:
    return math.prod(map(math.factorial, key))


def add(u: dict, v: dict) -> dict:
    """The sum of two polynomials, zero coefficients dropped."""
    out = dict(u)
    for key, c in v.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c != 0}


def monomial(S) -> dict:
    """The monomial coefficients of a series, a univariate one as its y-free slice, or of a trivariate record."""
    if isinstance(S, TruncatedSeries1):
        S = S.y_free()
    if isinstance(S, _Series3) and S.den is not None:
        return {key: Fraction(c, S.den) for key, c in S.terms.items()}
    terms = S.terms if isinstance(S, _Series3) else S.coeffs
    return {key: over(c, _factorial(key)) for key, c in terms.items()}


def factorial(coeffs: dict) -> dict:
    """The factorial-convention coefficients a! c_a of a polynomial."""
    return {key: c * _factorial(key) for key, c in coeffs.items()}


def from_monomials2(order: int, monos: dict) -> TruncatedSeries2:
    """The bivariate series of a polynomial sum c_jk x^j y^k."""
    return TruncatedSeries2(order, factorial(monos))


def from_monomials1(order: int, monos: dict) -> TruncatedSeries1:
    """The univariate series of a polynomial sum c_i x^i, keyed by i."""
    return TruncatedSeries1(order, {i: c * math.factorial(i) for i, c in monos.items()})


def mul(u: dict, v: dict, n: int) -> dict:
    """The product truncated above total degree n, pair by pair in the order of u's terms, then v's."""
    out: dict = {}
    terms = [(b, sum(b), y) for b, y in v.items()]
    for a, x in u.items():
        room = n - sum(a)
        for b, e, y in terms:
            if e <= room:
                key = tuple(map(operator.add, a, b))
                prev = out.get(key)
                out[key] = x * y if prev is None else prev + x * y
    return out


class _Truncated(dict):
    """A bivariate polynomial that multiplies by :func:`mul` above degree ``n`` and is scaled by integers."""

    def __init__(self, coeffs: dict, n: int):
        super().__init__(coeffs)
        self.n = n

    def __mul__(self, other):
        return _Truncated(mul(self, other, self.n), self.n)

    def __rmul__(self, s):
        return _Truncated({key: s * c for key, c in self.items()}, self.n)

    def __neg__(self):
        return -1 * self


def numerator_terms(terms, u: dict, n: int) -> list:
    """The signed terms of a deciding numerator on the bivariate polynomial u, each truncated above degree n.

    ``terms`` is one of ``invariants.h_terms``, ``s_terms`` and ``w_terms``;
    it reads the jet u_{a,b} as the polynomial d^a_x d^b_y u.
    """
    jets = {
        (a, b): _Truncated({(j - a, k - b): c * math.perm(j, a) * math.perm(k, b) for (j, k), c in u.items() if j >= a and k >= b}, n)
        for a, b in ((2, 0), (1, 1), (0, 2), (2, 1), (3, 0), (3, 1), (4, 0))
    }
    return [dict(t) for t in terms(jets)]


def shift(u: dict, point) -> dict:
    """u(x + h) expanded in x: x_i^a -> sum_j C(a, j) h_i^(a - j) x_i^j in every variable."""
    out: dict = {}
    for a, c in u.items():
        for j in itertools.product(*(range(ai + 1) for ai in a)):
            term = c
            for ai, ji, h in zip(a, j, point):
                term = term * (math.comb(ai, ji) * h ** (ai - ji))
            out[j] = out.get(j, 0) + term
    return out


def evaluate(u: dict, point):
    """The value sum c_a x^a at the point x."""
    total = 0
    for a, c in u.items():
        term = c
        for ai, x in zip(a, point):
            term = term * x**ai
        total = total + term
    return total


def compose(f: dict, subs, n: int, dims: int = 2) -> dict:
    """The polynomial f(X_1, ..., X_m) truncated above degree n, for polynomials X_i in ``dims`` variables.

    The sum of c_a X_1^(a_1) ... X_m^(a_m), grouped by the power of X_1, then of X_2, and so on.
    """
    one = {(0,) * dims: 1}
    kept = {a: c for a, c in f.items() if sum(a) <= n}
    powers = []
    for i, X in enumerate(subs):
        p = [one]
        for _ in range(max((a[i] for a in kept), default=0)):
            p.append(mul(p[-1], X, n))
        powers.append(p)

    def grouped(g: dict, i: int) -> dict:
        if i == len(subs):
            return {key: g[()] for key in one}
        parts: dict = {}
        for a, c in g.items():
            parts.setdefault(a[0], {})[a[1:]] = c
        out: dict = {}
        for e, h in parts.items():
            out = add(out, mul(powers[i][e], grouped(h, i + 1), n))
        return out

    return grouped(kept, 0)


def linear_substitution(f: dict, xs, ys, n: int) -> dict:
    """f(x, y) at x = xs . (s, t, v, 1), y = ys . (s, t, v, 1), truncated above degree n."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
    forms = [{key: c for key, c in zip(units, form) if c != 0} for form in (xs, ys)]
    return compose(f, forms, n, dims=3)


def solve(phi: dict, n: int) -> dict:
    """The graph v = G(s, t), G(0, 0) = 0, of Phi(s, t, v) = 0 to degree n.

    Degree by degree: with G known below degree d, Phi(s, t, G) is
    substituted anew and its part of degree d, divided by -Phi_v(0), is G's.
    """
    if phi.get((0, 0, 0), 0) != 0:
        raise ValueError("Phi must vanish at the origin")
    if n == 0:
        return {}
    pv = phi.get((0, 0, 1), 0)
    if pv == 0:
        raise ValueError("the graph needs a nonvanishing v-derivative")
    rest = [(a, b, c, x) for (a, b, c), x in phi.items() if (a, b, c) != (0, 0, 1)]
    top = max((c for _, _, c, _ in rest), default=0)
    G: dict = {}
    for d in range(1, n + 1):
        powers = [{(0, 0): 1}]
        for _ in range(min(top, d)):
            powers.append(mul(powers[-1], G, d))
        part: dict = {}
        for a, b, c, x in rest:
            if c <= d:
                for (j, k), y in powers[c].items():
                    if a + b + j + k == d:
                        part[(a + j, b + k)] = part.get((a + j, b + k), 0) + x * y
        G.update({key: over(-r, pv) for key, r in part.items() if r != 0})
    return G


def apply_affine(F: TruncatedSeries2, T) -> TruncatedSeries2:
    """The graph of {u = F(x, y)} under the affine map T given in inverse form, as ``series.apply_affine``."""
    n = F.order
    phi = linear_substitution(monomial(F), (T.a, T.b, T.c, T.d), (T.k, T.l, T.m, T.n), n)
    affine = {(0, 0, 0): T.w, (1, 0, 0): T.p, (0, 1, 0): T.q, (0, 0, 1): T.r}
    Phi = add(phi, {key: -c for key, c in affine.items()})
    return from_monomials2(n, solve(Phi, n))


def apply_affine_curve(F: TruncatedSeries1, T) -> TruncatedSeries1:
    """The curve {u = F(x)} under x = a y + b v + e, u = c y + d v + f: the surface graph F(x) with y fixed."""
    surface = AffineTransform3(a=T.a, c=T.b, d=T.e, p=T.c, r=T.d, w=T.f)
    G = apply_affine(TruncatedSeries2(F.order, {(j, 0): c for j, c in F.coeffs.items()}), surface)
    return TruncatedSeries1(F.order, {j: c for (j, k), c in G.coeffs.items() if k == 0})


def rank_one_fill(coords: dict, order: int) -> dict:
    """Every u_{j,k}, k >= 2, j + k <= order, of the rank-one jet: its rational expression at ``coords``."""
    out = {}
    for d in range(2, order + 1):
        for k in range(2, d + 1):
            num, m = rank_one_substitution(d - k, k)
            out[(d - k, k)] = over(p_eval(num, coords), coords[(2, 0)] ** m)
    return out


def w_chain_residual(coords: dict, m: int):
    """The x^(m-3) coefficient of the fourth-order numerator series of the rank-one (m + 1)-jet on ``coords``.

    The whole numerator series is built on the polynomial of the u_{j,0} and
    u_{j,1} of degree <= m + 1.  A y-free coefficient of a product reads only
    the y-free rows of its factors, and those of the derivatives d^a_x d^b_y,
    b <= 1, hold no u_{j,k} with k >= 2, so the rank-one fill cannot reach it.
    """
    u = {jk: over(c, _factorial(jk)) for jk, c in coords.items() if sum(jk) <= m + 1}
    W = functools.reduce(add, numerator_terms(w_terms, u, m - 3))
    return W.get((m - 3, 0), 0) * math.factorial(m - 3)


def cone_branch_jet(rng, order: int, exact: bool = False) -> ParabolicJet:
    """``sampling.random_cone_branch_jet`` with each unknown u_{m,1}, m >= 4, solved by two evaluations.

    The unknown is set to 0 and to 1 and :func:`w_chain_residual` taken both
    times; the residual is affine in it, so the secant gives its root.
    """
    def val():
        if exact:
            return rand_rational(rng)
        return Fraction(rng.uniform(-2.0, 2.0)).limit_denominator(10**6)

    while True:
        coords = {(0, 0): val(), (1, 0): val(), (0, 1): val()}
        for j in range(2, order + 1):
            coords[(j, 0)] = val()
        coords[(1, 1)] = val()
        coords[(2, 1)] = val()
        if abs(float(coords[(2, 0)])) < U20_FLOOR:
            continue
        if abs(float(s_numerator(coords))) < S_FLOOR:
            continue
        u20, u11, u21, u30, u40 = (coords[jk] for jk in ((2, 0), (1, 1), (2, 1), (3, 0), (4, 0)))
        coords[(3, 1)] = (u20 * u40 * u11 - 2 * u30**2 * u11 + 2 * u30 * u21 * u20) / u20**2
        for m in range(4, order):
            coords[(m, 1)] = 0
            g0 = w_chain_residual(coords, m)
            coords[(m, 1)] = 1
            g1 = w_chain_residual(coords, m)
            coords[(m, 1)] = -g0 / (g1 - g0)
        p = ParabolicJet(order, coords)
        if abs(float(conic_numerator(p))) < 0.1:
            continue
        return p


def assert_same(got, want, partial_order: bool = False, zero_partials: bool = True) -> None:
    """Equal values of equal types: floats to the bit, ``Sens`` values and partials alike.

    Series compare by order and coefficients, dicts by keys and values,
    tuples entry by entry.  ``partial_order`` also asks for the same order of
    the partials' keys; without ``zero_partials`` a partial that is zero on
    both sides is not compared.
    """
    rule = dict(partial_order=partial_order, zero_partials=zero_partials)
    assert type(got) is type(want), (got, want)
    if isinstance(want, (TruncatedSeries1, TruncatedSeries2)):
        assert got.order == want.order, (got.order, want.order)
        assert_same(got.coeffs, want.coeffs, **rule)
    elif isinstance(want, (dict, tuple)):
        keys = want.keys() if isinstance(want, dict) else range(len(want))
        assert (got.keys() if isinstance(got, dict) else range(len(got))) == keys, (got, want)
        for key in keys:
            assert_same(got[key], want[key], **rule)
    elif isinstance(want, Sens):
        assert_same(got.value, want.value, **rule)
        assert (list(got.partials) == list(want.partials)) if partial_order else got.partials.keys() == want.partials.keys()
        for key, d in want.partials.items():
            if zero_partials or d != 0 or got.partials[key] != 0:
                assert_same(got.partials[key], d, **rule)
    elif isinstance(want, float):
        assert got.hex() == want.hex(), (got, want)
    else:
        assert got == want, (got, want)


def cone_model(order: int = 8) -> TruncatedSeries2:
    """The cone model u = x^2 / (2 (1 - y)): F_{2,k} = k! for k <= order - 2, every other coefficient 0."""
    return TruncatedSeries2(order, {(2, k): Fraction(math.factorial(k)) for k in range(order - 1)})


def cone_model_jet(order: int = 8) -> ParabolicJet:
    """The independent jet coordinates of :func:`cone_model`, as ``Fraction``s: u20 = u21 = 1, the rest 0."""
    f = cone_model(order)
    keys = [(0, 0), *((j, 0) for j in range(1, order + 1)), *((j, 1) for j in range(order))]
    return ParabolicJet(order, {jk: Fraction(f[jk]) for jk in keys})
