"""Truncated power series in one and two variables, factorial convention.

A series of order N stores coefficients ``F[j]`` (or ``F[j, k]``) for
``j + k <= N`` and denotes ``sum F_{j,k} x^j y^k / (j! k!)``, so the stored
coefficient equals the corresponding partial derivative at the expansion
point.  Coefficients are exact ``Fraction``s or ``float``s; a series never
mixes the two kinds on construction from JSON, and arithmetic propagates
float-ness the way IEEE does.

Both series classes share one body, :class:`_Series`: the degree filter on
construction, indexing, equality, sums, differences and scalar multiples, so
a univariate series behaves as the y-free slice of a bivariate one.  It
multiplies and re-expands as that slice, ``(f.y_free() * g.y_free()).x_profile()``
and ``f.y_free().shift(h, 0).x_profile()``.

Shifts re-expand at a new base point through one column kernel,
:func:`_taylor_shift`: repeated Horner steps ``g[j] += h g[j+1]`` on the
monomial coefficients (von zur Gathen & Gerhard, ISSAC 1997), on the
scalars themselves, ``Fraction``s where exact.  A bivariate shift is
separable: each y-column in x, then each x-row in y.  Pass i is the last to
change coefficient i, so a shift asked for total degree <= m stops each
column after m + 1 passes and shifts only the rows of x-degree <= m.
Exact values at a point are read off :class:`Poly2`, below.

Every product runs on one kernel, :class:`Poly2`: a bivariate polynomial in
monomial convention whose exact coefficients are integer numerators over one
denominator, truncated above its cap.  Its products multiply the
denominators, sums align them by their lcm, derivatives scale numerators by
integers, and one ``Fraction`` is built per coefficient only when a
factorial-convention series is read back.  Other coefficients run the same
loops without a denominator.  A series product reads both factors into it,
capped at the lesser order, and reads the product back.  :func:`compose2`
takes the powers of Y once and sums by Horner in X.  A
:class:`~parajet.jets.DerivativeView` of one gives the Hessian, slope and
fourth-order numerators of ``classify``, the normalization's checks and the
cone sampler, which evaluate exactly at a rational point.

The module also provides affine transforms of graphs: an
:class:`AffineTransform3` holds the *inverse* substitution (source
coordinates as functions of target coordinates), and :func:`apply_affine`
produces the graphing series of the transformed surface in one graded pass
per kernel.  Two kernels serve its regimes.

Exact and generic coefficients (no ``grid``):
:func:`series3_from_bivariate_in_linear` substitutes the two linear forms by
Horner in the first over cached powers of the second, and
:func:`solve_implicit` solves the fundamental equation degree by degree from
cached homogeneous parts of the powers of the graph (Brent & Kung 1978).
Both work in monomial convention inside, so no binomial weight enters an
inner loop, and neither weighs v.  Exact inputs stay on integer numerators
from the substitution to the solve: F enters through
:meth:`Poly2.from_series`, the substitution runs on integers over one
denominator, the fundamental equation is homogeneous so that denominator
drops out, and the solve reduces each homogeneous part once per degree and
builds one ``Fraction`` per output coefficient.  Other coefficients run the
same loops on the scalars, with factorials divided out on entry and put back
on exit, so float and ``Sens`` results keep their bits.  The trivariate
series between the two, :class:`_Series3`, is a plain record: integer
numerators over one denominator when exact, factorial-convention scalars
otherwise.  Phi = phi - u is assembled once; each regime only brings the
affine part u to phi's terms.

The certified fixed-point regime (``grid``, the rooted normalization loops):
:func:`substitute_on_grid` expands F(a s + b t + c v, k s + l t + m v) as
sum_k v^k E_k(a s + b t, k s + l t), E_k = (c d/dx + m d/dy)^k F / k! built
one directional-derivative step per k, and applies the (s, t) map by at most
two binomial passes; :func:`solve_on_grid` solves by Horner in G,
K_c = phi_c + G K_(c+1), built online degree by degree.  Phi is kept sparse:
a term is stored only where some product reaches it.  A Phi free of v (c = m
= 0) builds no K: G = -phi_0 / phi_v, part by part.  Between loops the
series travels as a :class:`GridSeries`, its numerators on the grid.

Every rooted normalization loop after the transvection solves for a graph
that starts at degree 2: F has no linear terms and u no s or t term.
:func:`_grid_image` then gives v weight 2 (s and t weigh 1): the grid
substitution builds Phi only to weight n, and the Horner solve starts at
degree 2 and builds (K_c)_e only for e <= n - 2c.  Each term left out would
only have multiplied a part of G that is exactly zero, so the fixed-point
values are the same integers and every error radius can only shrink.  Any
other Phi, and every exact one, runs in full at valuation 1.

Precision rule of the normalization loops: a loop whose run has taken an
inexact root asks for its output on the 2^-g grid (``grid=g``, g = 128).  F's
monomial coefficients are rounded away from zero to integers X standing for
X / 2^B, B = g + ``FIXED_GUARD`` (within one ulp, and zero only where the
exact value is), and the transform's factors (C and M for c and m, and the
binomial entries C(q, u) kappa^u lam^(q-u)) to 2^-B' with B' = B +
``FACTOR_GUARD``.  Every intermediate polynomial or homogeneous part carries
one integer error radius r in ulps of 2^-B, bounding every coefficient's
distance from the exact one:

* a derivative step ((a+1) C X + (b+1) M Y) // (k 2^B') and a binomial sum
  (sum X K) >> B' add, coefficient by coefficient, the sum over their
  products of |X| rC + |C| rX + rX rC, over the divisor, plus 2 (one ulp for
  rounding the bound, one for the floor); the part's radius is the largest;
* u's coefficients, rounded to 2^-B, add their radius (1, or 0 where exact)
  to Phi's parts;
* a product (XY) >> B of two parts adds ((|X| + rX) rY + (|Y| + rY) rX) >> B,
  plus 2; sums of products add the per-pair bounds and shift once;
* dividing a residual R by the v-derivative P, with |P| > rP certified, adds
  (rR |P| + |R| rP) 2^B / ((|P| - rP) |P|), plus 1.

A part with no term is exactly zero, of radius 0.  Each output coefficient
G_jk = j! k! g_jk is certified when r j! k! <= 2^(B - g - 2): it is then
within 2^-(g+2) of the exact image before and 2^-g after rounding it half up
to the grid.  Where the certificate fails, the exact kernel runs instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .scalars import is_exact, scalar_from_string, scalar_to_string, to_float

FIXED_GUARD = 256  # fixed-point fraction bits beyond the output grid
FACTOR_GUARD = 64  # fraction bits of the transform's factors beyond the coefficients' 2^-B


def _fixed_ratio(p: int, q: int, bits: int):
    """(X, r): p / q in ulps of 2^-bits rounded away from zero, so 0 only for p = 0; r = 0 where exact, else 1."""
    v, rem = divmod(abs(p) << bits, q)
    if rem:
        v += 1
    return (v if p >= 0 else -v), int(rem != 0)


def _integer_form(coeffs: dict):
    """(d, {key: d c}), d the least common denominator; None if inexact.

    A zero of any type, such as a float 0.0 entry of a transform, counts as the exact 0.
    """
    coeffs = {key: c if c != 0 else 0 for key, c in coeffs.items()}
    if not all(map(is_exact, coeffs.values())):
        return None
    d = math.lcm(*[c.denominator for c in coeffs.values()])
    return d, {key: c.numerator * (d // c.denominator) for key, c in coeffs.items()}


def _taylor_shift(col: dict, n: int, h, upto: int) -> dict:
    """Coefficients i <= min(n, upto) of the univariate factorial-convention series col re-expanded at h.

    Horner pass i is the last to change coefficient i, so the first upto + 1
    passes give those coefficients as the full run does, to the bit.  Exact
    coefficients run the steps on ``Fraction``s.
    """
    if h == 0:
        return {i: c for i, c in col.items() if i <= upto}
    fact = [math.factorial(i) for i in range(n + 1)]
    g = [_over(col.get(i, 0), fact[i]) for i in range(n + 1)]
    for i in range(min(n, upto + 1)):
        for j in range(n - 1, i - 1, -1):
            g[j] += h * g[j + 1]
    del g[upto + 1:]
    return {j: v * fact[j] for j, v in enumerate(g) if v != 0}


def _shift_columns(coeffs: dict, n: int, h, upto) -> dict:
    """Shift each column (j, k), k fixed, of a bivariate series in j by h, to j <= upto(k); keys come back as (k, j)."""
    cols: Dict[int, dict] = {}
    for (j, k), c in coeffs.items():
        cols.setdefault(k, {})[j] = c
    return {
        (k, j): c for k, col in cols.items() if upto(k) >= 0 for j, c in _taylor_shift(col, n - k, h, upto(k)).items()
    }


class _Series:
    """What both series classes share: the degree filter, the linear operations and the repr.

    A subclass says whether its keys are pairs (j, k) of degree j + k or ints i
    of degree i, and names its own products, derivatives and shifts.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        self.coeffs = kept = {}
        if not coeffs:
            return
        if self._bivariate:
            for key, c in coeffs.items():
                j, k = key
                if j + k <= order and c != 0:
                    kept[key] = c
        else:
            for i, c in coeffs.items():
                if i <= order and c != 0:
                    kept[i] = c

    def __getitem__(self, key):
        return self.coeffs.get(key, 0)

    def __eq__(self, other):
        return type(other) is type(self) and self.order == other.order and self.coeffs == other.coeffs

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs.values())

    def __add__(self, other):
        n = min(self.order, other.order)
        return type(self)(n, {key: self[key] + other[key] for key in set(self.coeffs) | set(other.coeffs)})

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, n: int):
        return self.scale(n)

    def scale(self, s):
        return type(self)(self.order, {key: s * c for key, c in self.coeffs.items()})

    def __repr__(self):
        terms = ", ".join(f"{key}: {c}" for key, c in sorted(self.coeffs.items()))
        return f"{type(self).__name__}(order={self.order}, {{{terms}}})"


class TruncatedSeries1(_Series):
    """Univariate truncated series, value sum_i F_i x^i / i!, keyed by i."""

    __slots__ = ()
    _bivariate = False

    def derivative(self) -> "TruncatedSeries1":
        """d/dx, order drops by one (an order-0 series has derivative 0)."""
        return TruncatedSeries1(max(self.order - 1, 0), {i - 1: c for i, c in self.coeffs.items() if i >= 1})

    def y_free(self) -> "TruncatedSeries2":
        """The graph u = F(x) over the (x, y)-plane: the bivariate series constant in y."""
        return TruncatedSeries2(self.order, {(j, 0): c for j, c in self.coeffs.items()})


class TruncatedSeries2(_Series):
    """Bivariate truncated series, value sum F_{j,k} x^j y^k / (j! k!), keyed by (j, k)."""

    __slots__ = ()
    _bivariate = True

    def __mul__(self, other: "TruncatedSeries2") -> "TruncatedSeries2":
        """The product to the lesser order, taken on :class:`Poly2`."""
        n = min(self.order, other.order)
        return (Poly2.from_series(self).capped(n) * Poly2.from_series(other)).to_series(n)

    def derivative(self, direction: str) -> "TruncatedSeries2":
        """d/dx or d/dy, order drops by one (an order-0 series has derivative 0)."""
        n = max(self.order - 1, 0)
        if direction == "x":
            return TruncatedSeries2(n, {(j - 1, k): c for (j, k), c in self.coeffs.items() if j >= 1})
        if direction == "y":
            return TruncatedSeries2(n, {(j, k - 1): c for (j, k), c in self.coeffs.items() if k >= 1})
        raise ValueError("direction must be 'x' or 'y'")

    def shift(self, hx, hy, upto: int | None = None) -> "TruncatedSeries2":
        """Re-expand at (hx, hy); exact on the truncation: each y-column in x, then each x-row in y.

        With ``upto`` only total degree <= upto is built, as a series of that
        order: the x-pass stops each column at x-degree upto, the y-pass runs
        on the rows of x-degree j <= upto and stops at y-degree upto - j.
        Each kept coefficient is the full shift's, to the bit.
        """
        n = self.order
        m = n if upto is None else min(n, upto)
        rows = _shift_columns(self.coeffs, n, hx, lambda k: m)
        return TruncatedSeries2(m, _shift_columns(rows, n, hy, lambda j: m - j))

    def x_profile(self) -> TruncatedSeries1:
        """The section y = 0 as a univariate series."""
        return TruncatedSeries1(self.order, {j: c for (j, k), c in self.coeffs.items() if k == 0})


def _over(c, m: int):
    """c / m, staying a ``Fraction`` when c is exact."""
    return c / Fraction(m) if is_exact(c) else c / m


class Poly2:
    """A bivariate polynomial sum p_jk x^j y^k / den in monomial convention.

    An exact polynomial holds integer numerators ``terms`` over one positive
    integer ``den``.  Any other coefficients are held as themselves with
    ``den`` None, and run the same loops; an operation on one exact and one
    other operand reads the exact one as ``Fraction``s first.

    With a ``cap`` its products (by the left factor's cap) stop at that
    total degree, and its sums, multiples and derivatives keep the cap.  A
    numerator evaluated on the :class:`~parajet.jets.DerivativeView` of a
    capped polynomial is the full one's part of degree <= cap, term for term
    and in the same order of operations, so float terms keep their bits.
    """

    __slots__ = ("terms", "den", "cap")

    def __init__(self, terms: dict, den: int | None = None, cap: int | None = None):
        self.terms = terms
        self.den = den
        self.cap = cap

    @classmethod
    def from_series(cls, F: TruncatedSeries2) -> "Poly2":
        """F's monomial coefficients c_jk / (j! k!); exact ones as integer numerators over one ``den``.

        Exact F is read off each c's numerator and denominator and the
        factorials, in lowest terms by one lcm and one gcd, with no ``Fraction``.
        """
        fact = [math.factorial(i) for i in range(F.order + 1)]
        if not F.is_exact():
            return cls({(j, k): _over(c, fact[j] * fact[k]) for (j, k), c in F.coeffs.items()})
        dens = {(j, k): c.denominator * fact[j] * fact[k] for (j, k), c in F.coeffs.items()}
        den = math.lcm(*dens.values())
        terms = {key: c.numerator * (den // dens[key]) for key, c in F.coeffs.items()}
        g = math.gcd(den, *terms.values())
        return cls(terms if g == 1 else {key: v // g for key, v in terms.items()}, den // g)

    def capped(self, cap: int) -> "Poly2":
        """The same polynomial, its products truncated above total degree ``cap``."""
        return Poly2(self.terms, self.den, cap)

    def to_series(self, order: int) -> TruncatedSeries2:
        """The factorial-convention series, one ``Fraction`` per exact coefficient."""
        fact, den = [math.factorial(i) for i in range(order + 1)], self.den
        return TruncatedSeries2(order, {
            (j, k): v * (fact[j] * fact[k]) if den is None else Fraction(v * fact[j] * fact[k], den)
            for (j, k), v in self.terms.items()
        })

    def generic(self) -> dict:
        """The coefficients themselves, as ``Fraction``s where exact."""
        if self.den is None:
            return self.terms
        return {key: Fraction(v, self.den) for key, v in self.terms.items()}

    def _operands(self, other: "Poly2"):
        if self.den is None or other.den is None:
            return self.generic(), other.generic(), None, None
        return self.terms, other.terms, self.den, other.den

    def __mul__(self, other: "Poly2") -> "Poly2":
        """The product, truncated above the cap; each coefficient sums its pairs in the order of self's terms."""
        A, B, da, db = self._operands(other)
        rows = sorted(((c + d, c, d, v) for (c, d), v in B.items()), key=lambda row: row[0])
        limit = math.inf if self.cap is None else self.cap
        out: dict = {}
        for (a, b), u in A.items():
            room = limit - a - b
            for e, c, d, v in rows:
                if e > room:
                    break
                key = (a + c, b + d)
                out[key] = out.get(key, 0) + u * v
        return Poly2({key: v for key, v in out.items() if v}, None if da is None else da * db, self.cap)

    def __add__(self, other: "Poly2") -> "Poly2":
        A, B, da, db = self._operands(other)
        den = None if da is None else math.lcm(da, db)
        sa, sb = (1, 1) if den is None else (den // da, den // db)
        out = {key: v * sa for key, v in A.items()}
        for key, v in B.items():
            out[key] = out.get(key, 0) + v * sb
        return Poly2({key: v for key, v in out.items() if v}, den, self.cap)

    def __rmul__(self, s) -> "Poly2":
        """s times the polynomial; s is an integer when the polynomial is exact."""
        return Poly2({key: s * v for key, v in self.terms.items()}, self.den, self.cap)

    def __neg__(self) -> "Poly2":
        return -1 * self

    def derivative(self, direction: str) -> "Poly2":
        if direction == "x":
            return Poly2({(j - 1, k): j * v for (j, k), v in self.terms.items() if j}, self.den, self.cap)
        if direction == "y":
            return Poly2({(j, k - 1): k * v for (j, k), v in self.terms.items() if k}, self.den, self.cap)
        raise ValueError("direction must be 'x' or 'y'")

    def eval(self, x, y):
        """The value at (x, y): exact at a rational point, summed on integer numerators."""
        if self.den is None or not (is_exact(x) and is_exact(y)):
            total = 0
            for (j, k), v in self.generic().items():
                total = total + v * x**j * y**k
            return total
        (px, qx), (py, qy) = x.as_integer_ratio(), y.as_integer_ratio()
        nx, ny = max((j for j, _ in self.terms), default=0), max((k for _, k in self.terms), default=0)
        xs = [px**j * qx ** (nx - j) for j in range(nx + 1)]
        ys = [py**k * qy ** (ny - k) for k in range(ny + 1)]
        total = sum(v * xs[j] * ys[k] for (j, k), v in self.terms.items())
        return Fraction(total, self.den * qx**nx * qy**ny)

    def magnitudes(self) -> dict:
        """|p_jk / den| as floats."""
        if self.den is None:
            return {key: abs(to_float(v)) for key, v in self.terms.items()}
        return {key: abs(v) / self.den for key, v in self.terms.items()}


def compose2(F: TruncatedSeries2, X: TruncatedSeries2, Y: TruncatedSeries2) -> TruncatedSeries2:
    """Coefficients of F(X(s,t), Y(s,t)) for substitutions vanishing at the origin.

    With F = sum f_ab x^a y^b in monomial convention, the powers of Y are
    taken once and the sum by Horner in X: R <- Q_a + X R with
    Q_a = sum_b f_ab Y^b, for a = n, ..., 0, each product truncated above
    degree n by the cap of its left factor.  Exact input runs on integer
    numerators, with f's denominator put back once at the end.
    """
    if X[(0, 0)] != 0 or Y[(0, 0)] != 0:
        raise ValueError("substitution series must have zero constant term")
    n = min(F.order, X.order, Y.order)
    polys = [Poly2.from_series(S) for S in (F, X, Y)]
    if any(P.den is None for P in polys):
        polys = [Poly2(P.generic()) for P in polys]
    f, x, y = polys
    one = Poly2({(0, 0): 1}, None if y.den is None else 1, n)
    ypows = [one]
    for _ in range(max((b for a, b in f.terms if a + b <= n), default=0)):
        ypows.append(ypows[-1] * y)
    R = Poly2({}, one.den, n)
    for a in range(n, -1, -1):
        R = R * x
        for b in range(n - a + 1):
            if (a, b) in f.terms:
                R = R + f.terms[(a, b)] * ypows[b]
    return Poly2(R.terms, None if f.den is None else R.den * f.den).to_series(n)


class _Series3:
    """Internal trivariate truncated series in (s, t, v): a plain record.

    ``terms`` maps (i, j, k), i + j + k <= order, to a coefficient.  An exact
    series holds monomial coefficients as integer numerators over one
    denominator ``den``.  Otherwise ``den`` is None and ``terms`` are
    factorial-convention scalars.
    """

    __slots__ = ("order", "terms", "den")

    def __init__(self, order: int, terms: dict | None = None, den: int | None = None):
        self.order, self.den = order, den
        self.terms = {key: c for key, c in (terms or {}).items() if sum(key) <= order and c != 0}


def _times_linear(P: dict, form) -> dict:
    """Monomial polynomial in (s, t, v) times form[0] s + form[1] t + form[2] v."""
    out: dict = {}
    for (di, dj, dk), coef in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), form):
        if coef == 0:
            continue
        unit = coef == 1
        for (i, j, k), c in P.items():
            key = (i + di, j + dj, k + dk)
            x = c if unit else coef * c
            prev = out.get(key)
            out[key] = x if prev is None else prev + x
    return out


def series3_from_bivariate_in_linear(F: TruncatedSeries2, xs, ys, order: int) -> _Series3:
    """Expand F(x, y) after x := xs . (s,t,v) + xs0, y := ys . (s,t,v) + ys0, to total degree ``order``.

    ``xs`` and ``ys`` are 4-tuples (coef_s, coef_t, coef_v, constant).  The
    constant parts re-center the expansion exactly on the truncation.  With
    F = sum f_ab x^a y^b in monomial convention (:meth:`Poly2.from_series`)
    and L1, L2 the linear parts, the powers of L2 are built once and the sum
    is taken by Horner in L1: R <- Q_a + L1 R with Q_a = sum_b f_ab L2^b,
    for a = order, ..., 0.  R has degree <= order - a after step a, so no
    step truncates.

    When f and both linear parts are exact, f holds integer numerators over
    its least common denominator D and L1, L2 are brought over their own, qx
    and qy; with f_ab scaled by qx^(order-a) qy^(order-b) the same Horner
    pass runs on integers and yields the monomial numerators over
    D qx^order qy^order.  An exact f under an inexact linear part is read
    as ``Fraction``s.
    """
    Fc = F if (xs[3] == 0 and ys[3] == 0) else F.shift(xs[3], ys[3])
    n, P = order, Poly2.from_series(Fc)
    lx, ly, den = xs[:3], ys[:3], None
    forms = [_integer_form(dict(enumerate(lx))), _integer_form(dict(enumerate(ly)))]
    if P.den is None or None in forms:
        f = {(a, b): c for (a, b), c in P.generic().items() if a + b <= n}
    else:
        (qx, lx), (qy, ly) = forms
        f = {(a, b): c * qx ** (n - a) * qy ** (n - b) for (a, b), c in P.terms.items() if a + b <= n}
        lx, ly, den = (lx[0], lx[1], lx[2]), (ly[0], ly[1], ly[2]), P.den * qx**n * qy**n
    y_pows = [{(0, 0, 0): 1}]  # y_pows[b] = L2^b
    for _ in range(max((b for _, b in f), default=0)):
        y_pows.append(_times_linear(y_pows[-1], ly))
    R = {}
    for a in range(n, -1, -1):
        R = _times_linear(R, lx)
        for b in range(n - a + 1):
            fab = f.get((a, b))
            if fab is None:
                continue
            for key, c in y_pows[b].items():
                x = fab * c
                prev = R.get(key)
                R[key] = x if prev is None else prev + x
    if den is not None:
        return _Series3(n, R, den)
    fact = [math.factorial(i) for i in range(n + 1)]
    return _Series3(n, {(i, j, k): c * (fact[i] * fact[j] * fact[k]) for (i, j, k), c in R.items()})


def _times_homogeneous(A: dict, B: dict, out: dict) -> None:
    """Accumulate into ``out`` the product of two homogeneous parts keyed by the power of s."""
    for i, x in A.items():
        for j, y in B.items():
            prev = out.get(i + j)
            out[i + j] = x * y if prev is None else prev + x * y


def _sum_of_products(init: dict, pairs, exact: bool):
    """init + sum of A B over pairs of homogeneous parts (den, {power of s: coefficient}).

    Exact parts hold integer numerators: the sum is taken over the lcm of the
    products' denominators, one multiply-add per term pair on integers, and
    returned as (that lcm, numerators), unreduced.  Other scalars accumulate
    pair by pair in the given order, with den 1.
    """
    if not exact:
        out = dict(init)
        for (_, A), (_, B) in pairs:
            _times_homogeneous(A, B, out)
        return 1, out
    den = math.lcm(*[da * db for (da, A), (db, B) in pairs if A and B])
    out = {j: x * den for j, x in init.items()}
    for (da, A), (db, B) in pairs:
        if A and B:
            s = den // (da * db)
            _times_homogeneous(A if s == 1 else {i: x * s for i, x in A.items()}, B, out)
    return den, out


def _reduced(den: int, nums: dict):
    """(den, nums) over the least common denominator of the fractions nums[j] / den."""
    g = math.gcd(den, *nums.values())
    return (den, nums) if g == 1 else (den // g, {j: x // g for j, x in nums.items()})


def solve_implicit(Phi: _Series3) -> TruncatedSeries2:
    """The unique G(s,t), G(0,0)=0, with Phi(s,t,G(s,t)) = 0 to truncation order.

    Degree-graded solve in monomial convention (Brent & Kung 1978).  Write
    Phi = sum_c phi_c v^c.  The homogeneous parts
    (G^c)_e = sum_i G_i (G^(c-1))_(e-i) are cached as G grows, and the
    degree-d part of G is -[sum_c phi_c G^c]_d / phi_v(0), where the sum
    omits the phi_v(0) G_d term itself.  Only additions, products and that
    one division occur, so exactness is preserved in rational mode.

    An exact Phi holds integer numerators over ``den`` and is solved on them:
    the equation is homogeneous in Phi, so the denominator drops out.  Each
    sum of products above runs on integer numerators over the lcm of its
    factors' denominators, and each homogeneous part is reduced once per
    degree, so one ``Fraction`` is built per output coefficient and none per
    term pair.  Factorial-convention scalars (float, ``Fraction``, mixed or
    ``Sens``) run the same loops in the same order.  At order 0 there is
    nothing to solve: G = 0.
    """
    n, terms = Phi.order, Phi.terms
    if terms.get((0, 0, 0), 0) != 0:
        raise ValueError("Phi must vanish at the origin")
    if n == 0:
        return TruncatedSeries2(0, {})
    pv = terms.get((0, 0, 1), 0)
    if pv == 0 or (not is_exact(pv) and abs(pv) < 1e-12):
        raise ValueError("implicit solve needs a nonvanishing v-derivative at the origin")
    exact = Phi.den is not None
    fact = [math.factorial(i) for i in range(n + 1)]
    if Phi.den is None:
        terms = {(a, b, c): _over(x, fact[a] * fact[b] * fact[c]) for (a, b, c), x in terms.items()}
    # phi[c][e][j]: monomial coefficient of s^j t^(e-j) v^c
    phi: Dict[int, Dict[int, dict]] = {}
    for (a, b, c), x in terms.items():
        if (a, b, c) != (0, 0, 1):
            phi.setdefault(c, {}).setdefault(a + b, {})[a] = x
    vmax = max(max(phi, default=0), 1)
    # powers[c][e]: homogeneous part of degree e of G^c (G_e itself for c = 1), as (den, coefficients)
    powers: Dict[int, Dict[int, tuple]] = {c: {} for c in range(1, vmax + 1)}
    out: Dict[Tuple[int, int], object] = {}
    for d in range(1, n + 1):
        for c in range(2, min(d, vmax) + 1):
            pairs = [(powers[1][i], powers[c - 1].get(d - i, (1, {}))) for i in range(1, d - c + 2)]
            part = _sum_of_products({}, pairs, exact)
            powers[c][d] = _reduced(*part) if exact else part
        pairs = [
            ((1, h), powers[c][d - e])
            for c in range(1, vmax + 1)
            for e, h in phi.get(c, {}).items()
            if d - e in powers[c]
        ]
        den, residual = _sum_of_products(phi.get(0, {}).get(d, {}), pairs, exact)
        if not exact:
            powers[1][d] = (1, {j: -x / pv for j, x in residual.items() if x != 0})
            for j, x in powers[1][d][1].items():
                out[(j, d - j)] = x * (fact[j] * fact[d - j])
            continue
        sign = -1 if pv > 0 else 1
        den, part = powers[1][d] = _reduced(den * abs(pv), {j: sign * x for j, x in residual.items() if x})
        for j, x in part.items():
            out[(j, d - j)] = Fraction(x * (fact[j] * fact[d - j]), den)
    return TruncatedSeries2(n, out)


_MISSES_ORIGIN = "transformed graph misses the target origin; adjust the translation"


def _solve_graph(F: TruncatedSeries2, xs, ys, axis: dict):
    """The graph v = G(s, t) of F(L1, L2) = u(s, t, v), L1, L2 the linear forms xs, ys.

    ``axis`` holds the coefficients of the affine function u at the keys
    (0,0,0), (1,0,0), (0,1,0) and (0,0,1).  Phi = phi - u is assembled once;
    each regime only brings u to phi's terms.  An exact phi and u are brought
    over one lcm, which then drops out.  Otherwise u is subtracted as it is
    from the factorial-convention scalars, an exact phi read as ``Fraction``s
    first.
    """
    n = F.order
    phi = series3_from_bivariate_in_linear(F, xs, ys, n)
    terms, den = dict(phi.terms), phi.den
    form = _integer_form(axis) if den is not None else None
    if form is not None:
        da, nums = form
        lcm = math.lcm(den, da)
        if lcm != den:
            terms = {key: c * (lcm // den) for key, c in phi.terms.items()}
        u, den = {key: c * (lcm // da) for key, c in nums.items()}, 1
    else:
        if den is not None:
            fact = [math.factorial(i) for i in range(n + 1)]
            terms = {(i, j, k): Fraction(c * (fact[i] * fact[j] * fact[k]), den) for (i, j, k), c in terms.items()}
        u, den = axis, None
    for key, c in u.items():
        if c != 0:
            terms[key] = terms.get(key, 0) - c
    c0 = terms.pop((0, 0, 0), 0)
    if c0 != 0 and (is_exact(c0) or abs(c0) > 1e-9):
        raise ValueError(_MISSES_ORIGIN)
    return solve_implicit(_Series3(n, terms, den))


# -- the certified fixed-point kernel of the rooted normalization loops --------


class GridSeries:
    """A series on the 2^-bits grid held as integer numerators: coefficient ``nums[key] / 2^bits``.

    ``kind`` is the series class it stands for, and ``nums`` holds its nonzero
    numerators under that class's keys.  The certified loops of
    :func:`apply_affine` read and return these, so a run of them builds a
    ``Fraction`` only for a coefficient read by indexing and for the whole
    series through :meth:`series` (or ``coeffs``) once.
    """

    __slots__ = ("kind", "order", "nums", "bits", "_series")

    def __init__(self, kind, order: int, nums: dict, bits: int):
        self.kind, self.order, self.nums, self.bits, self._series = kind, order, nums, bits, None

    def __getitem__(self, key):
        N = self.nums.get(key)
        return 0 if N is None else Fraction(N, 1 << self.bits)

    def series(self):
        """The same series as an instance of ``kind``, built once."""
        if self._series is None:
            one = 1 << self.bits
            self._series = self.kind(self.order, {key: Fraction(N, one) for key, N in self.nums.items()})
        return self._series

    @property
    def coeffs(self) -> dict:
        return self.series().coeffs

    def y_free(self) -> "GridSeries":
        return GridSeries(TruncatedSeries2, self.order, {(j, 0): N for j, N in self.nums.items()}, self.bits)

    def x_profile(self) -> "GridSeries":
        return GridSeries(TruncatedSeries1, self.order, {j: N for (j, k), N in self.nums.items() if k == 0}, self.bits)


def _binomial_table(kappa, lam, top: int, bits: int) -> list:
    """Rows q <= top of entries (u, K, rK, |K| + 2 rK): K = C(q, u) kappa^u lam^(q-u) in ulps of 2^-bits, rK its radius.

    Each power of kappa and lam is divided once at ``bits``, toward zero; a
    product of two is within |Qk| + |Ql| + 3 of the exact one at 2^-2bits,
    and C(q, u) times that, shifted, bounds rK.  A row leaves out the
    entries that are exactly zero, the powers of a zero kappa or lam.
    """
    def powers(x):
        p, q = x.as_integer_ratio()
        out, num, den = [], 1, 1
        for i in range(top + 1 if p else 1):
            out.append((-1 if p < 0 and i % 2 else 1) * ((abs(num) << bits) // den))
            num, den = num * p, den * q
        return out

    pk, pl = powers(kappa), powers(lam)
    table = []
    for q in range(top + 1):
        row = []
        for u in range(max(0, q - len(pl) + 1), min(q, len(pk) - 1) + 1):
            a, b, C = pk[u], pl[q - u], math.comb(q, u)
            K, rK = (C * a * b) >> bits, ((C * (abs(a) + abs(b) + 3)) >> bits) + 2
            row.append((u, K, rK, abs(K) + 2 * rK))
        table.append(row)
    return table


def _shear_on_grid(parts: dict, r: int, table: list, gbits: int):
    """(radius, parts) after y := kappa x + lam y, on homogeneous parts {degree: {power of x: X}} of radius r.

    Output coefficient x^(p + u) of degree e sums X_p K[e - p][u], the table's
    entries at ``gbits`` fraction bits, and shifts once.  Its error is at most
    the sum of |X| rK + r (|K| + 2 rK) over its terms, before the shift, taken
    coefficient by coefficient; the radius is the largest, shifted, plus 2.
    """
    out, worst = {}, 0
    for e, part in parts.items():
        acc: dict = {}
        for p, X in part.items():
            aX = abs(X)
            for u, K, rK, cK in table[e - p]:
                prev = acc.get(p + u)
                if prev is None:
                    acc[p + u] = [X * K, aX * rK, cK]
                else:
                    prev[0] += X * K
                    prev[1] += aX * rK
                    prev[2] += cK
        out[e] = {p: x >> gbits for p, (x, _, _) in acc.items()}
        worst = max([worst, *(ex + r * ek for _, ex, ek in acc.values())])
    return (worst >> gbits) + 2, out


def _reflected(parts: dict) -> dict:
    """Homogeneous parts with the two variables exchanged."""
    return {e: {e - p: X for p, X in part.items()} for e, part in parts.items()}


def _taylor_on_grid(f: dict, n: int, c, m, vw: int, bits: int) -> list:
    """[(radius, E_k)]: E_k = (c d/dx + m d/dy)^k F / k! in monomial fixed point, to degree n - vw k.

    E_0 = f, of radius 1.  Each coefficient of E_k is
    ((a+1) C E[a+1, b] + (b+1) M E[a, b+1]) // (k 2^gbits) for C and M the
    direction at gbits = bits + FACTOR_GUARD fraction bits, one rounding;
    its error is at most (a+1) (|E| rC + |C| r + r rC) + (b+1) (...) over
    k 2^gbits, plus one.  A v-free direction gives E_0 alone.
    """
    gbits = bits + FACTOR_GUARD
    (C, rc), (M, rm) = (_fixed_ratio(*x.as_integer_ratio(), gbits) for x in (c, m))
    out = [(1, f)]
    if not (C or M):
        return out
    for k in range(1, n // vw + 1):
        r, E = out[-1]
        top, div = n - vw * k, k << gbits
        keys = dict.fromkeys(
            [(a - 1, b) for a, b in E if a and C and a + b <= top + 1]
            + [(a, b - 1) for a, b in E if b and M and a + b <= top + 1]
        )
        new, worst = {}, 0
        for a, b in keys:
            acc = err = 0
            X = E.get((a + 1, b)) if C else None
            if X is not None:
                acc += (a + 1) * (C * X)
                err += (a + 1) * (abs(X) * rc + (abs(C) + rc) * r)
            X = E.get((a, b + 1)) if M else None
            if X is not None:
                acc += (b + 1) * (M * X)
                err += (b + 1) * (abs(X) * rm + (abs(M) + rm) * r)
            new[(a, b)] = acc // div
            worst = max(worst, err)
        out.append((worst // div + 2, new))
    return out


class _GridPhi:
    """Phi for the grid kernel: ``parts[c]`` = (radius, {degree: {power of s: X}}), v^c's coefficient at 2^-bits."""

    __slots__ = ("order", "parts", "bits", "valuation")

    def __init__(self, order: int, parts: list, bits: int, valuation: int):
        self.order, self.parts, self.bits, self.valuation = order, parts, bits, valuation


def substitute_on_grid(f: dict, n: int, T: "AffineTransform3", bits: int, valuation: int) -> _GridPhi:
    """Phi = sum_k v^k E_k(a s + b t, k s + l t) - (p s + q t + r v) on fixed-point monomials f of F.

    E_k is :func:`_taylor_on_grid`'s, kept to weight n with v of weight
    ``valuation``.  The (s, t) map runs as at most two binomial passes,
    x := alpha s + beta y and then y := k s + l t, with beta = b / l; when l
    is 0 and b is not, x and y are exchanged first.  u's coefficients are
    rounded to the grid and add their radius to Phi's v^0 and v^1 parts.
    """
    a, b, c, k, l, m = T.a, T.b, T.c, T.k, T.l, T.m
    if l == 0 and b != 0:
        f = {(j, i): X for (i, j), X in f.items()}
        a, b, c, k, l, m = k, l, m, a, b, c
    beta = Fraction(b) / Fraction(l) if b else 0
    alpha, gbits = a - beta * k, bits + FACTOR_GUARD
    tables = [
        (flip, _binomial_table(kappa, lam, n, gbits))
        for flip, kappa, lam in ((True, beta, alpha), (False, k, l))
        if (kappa, lam) != (0, 1)
    ]
    parts = []
    for r, E in _taylor_on_grid(f, n, c, m, valuation, bits):
        P: Dict[int, dict] = {}
        for (i, j), X in E.items():
            P.setdefault(i + j, {})[i] = X
        for flip, table in tables:
            r, P = _shear_on_grid(_reflected(P) if flip else P, r, table, gbits)
            P = _reflected(P) if flip else P
        parts.append((r, P))
    for c, e, j, x in ((0, 1, 1, T.p), (0, 1, 0, T.q), (1, 0, 0, T.r)):
        X, rx = _fixed_ratio(*(-x).as_integer_ratio(), bits)
        if X:
            parts += [(0, {})] * (c + 1 - len(parts))
            r, P = parts[c]
            part = P.setdefault(e, {})
            part[j] = part.get(j, 0) + X
            parts[c] = (r + rx, P)
    return _GridPhi(n, parts, bits, valuation)


def _fixed_sum(r0: int, init: dict, pairs, bits: int, m: int):
    """(radius, init + sum of A B) on fixed-point parts (radius, {power of s: X}), shifted once.

    Each pair adds sA rB + sB rA + m rA rB at scale 2^2B: s sums magnitudes, m >= pairs per coefficient.
    Without pairs it is init itself; an empty part is exactly zero, of radius 0.
    """
    pairs = [(a, b) for a, b in pairs if a[1] and b[1]]
    if not pairs:
        return (r0 if init else 0), init
    out, err = {j: x << bits for j, x in init.items()}, r0 << bits
    for (ra, A), (rb, B) in pairs:
        _times_homogeneous(A, B, out)
        err += sum(map(abs, A.values())) * rb + sum(map(abs, B.values())) * ra + m * ra * rb
    return (err >> bits) + 2, {j: x >> bits for j, x in out.items()}


def _quotient(R: tuple, pv: int, rpv: int, bits: int):
    """(radius, -R / pv) on a fixed-point part R = (rR, {power of s: X}), |pv| > rpv certified.

    Adds (rR |pv| + |R| rpv) 2^B / ((|pv| - rpv) |pv|), plus one for the floor.
    """
    (rR, part), apv = R, abs(pv)
    if not part:
        return 0, part
    top = max(map(abs, part.values()))
    r = -(-((rR * apv + top * rpv) << bits) // ((apv - rpv) * apv)) + 1
    return r, {j: (-x << bits) // pv for j, x in part.items()}


def solve_on_grid(Phi: _GridPhi):
    """G's homogeneous parts {degree: (radius, {power of s: X})} from Phi, or None where phi_v(0) is not certified.

    Horner in G: K_c = phi_c + G K_(c+1), and the residual phi_0 + G K_1 at
    degree d, less its phi_v(0) G_d term, gives G_d = -residual / phi_v(0).
    [K_c]_e is built at degree d = e + c w, w the valuation, from G_i with
    i <= e < d: G starts at degree w and each G factor raises the degree by
    at least w.  A v-free Phi (phi_1 = phi_v(0), no higher power of v) builds
    no K and no product: G = -phi_0 / phi_v(0), part by part.
    """
    n, B, w = Phi.order, Phi.bits, Phi.valuation
    parts = Phi.parts + [(0, {})] * (2 - len(Phi.parts))
    (r0, phi0), (r1, phi1) = parts[:2]
    pv = phi1.get(0, {}).get(0, 0)
    if abs(pv) <= r1:
        return None
    vmax = len(parts) - 1
    K: list = [{} for _ in range(vmax + 2)]
    G: dict = {}
    for d in range(w, n + 1):
        for c in range(vmax, 0, -1):
            e = d - c * w
            if e >= (1 if c == 1 else 0):
                rc, P = parts[c]
                pairs = [(G[i], K[c + 1][e - i]) for i in range(w, e + 1) if e - i in K[c + 1]]
                K[c][e] = _fixed_sum(rc, P.get(e, {}), pairs, B, n + 1)
        pairs = [(G[i], K[1][d - i]) for i in range(w, d) if d - i in K[1]]
        G[d] = _quotient(_fixed_sum(r0, phi0.get(d, {}), pairs, B, n + 1), pv, r1, B)
    return G


def _grid_image(F, T: "AffineTransform3", grid: int):
    """The image of u = F under T on the 2^-grid grid as a :class:`GridSeries`, or None where not certified.

    F is a bivariate series or a :class:`GridSeries` of one; its monomial
    coefficients are rounded to 2^-B, B = grid + FIXED_GUARD, radius 1.  A
    certified coefficient G_jk = j! k! g_jk, r j! k! <= 2^(B - grid - 2), is
    rounded half up to the grid.
    """
    n, B = F.order, grid + FIXED_GUARD
    coeffs, shift = (F.nums, B - F.bits) if isinstance(F, GridSeries) else (F.coeffs, B)
    if coeffs.get((0, 0), 0) != 0:
        raise ValueError(_MISSES_ORIGIN)
    fact = [math.factorial(i) for i in range(n + 1)]
    f = {}
    for (a, b), c in coeffs.items():
        p, q = c.as_integer_ratio()
        f[(a, b)] = _fixed_ratio(p, q * fact[a] * fact[b], shift)[0]
    tangent = T.p == 0 and T.q == 0 and (1, 0) not in f and (0, 1) not in f
    G = solve_on_grid(substitute_on_grid(f, n, T, B, 2 if tangent else 1))
    if G is None:
        return None
    limit, half, out = 1 << (B - grid - 2), B - grid - 1, {}
    for d, (r, part) in G.items():
        for j, x in part.items():
            fac = fact[j] * fact[d - j]
            if r * fac > limit:
                return None
            N = ((x * fac >> half) + 1) >> 1  # round half up to the grid
            if N:
                out[(j, d - j)] = N
    return GridSeries(TruncatedSeries2, n, out, grid)


@dataclass(frozen=True)
class AffineTransform3:
    """An affine map of R^3 stored in inverse form.

    Source coordinates as functions of target coordinates:

        x = a s + b t + c v + d
        y = k s + l t + m v + n
        u = p s + q t + r v + w

    ``w`` plays the role of the translation on the graph axis.
    """

    a: object = Fraction(1)
    b: object = Fraction(0)
    c: object = Fraction(0)
    k: object = Fraction(0)
    l: object = Fraction(1)
    m: object = Fraction(0)
    p: object = Fraction(0)
    q: object = Fraction(0)
    r: object = Fraction(1)
    d: object = Fraction(0)
    n: object = Fraction(0)
    w: object = Fraction(0)

    def delta(self):
        """Determinant of the linear part (equals 1 for special affine maps)."""
        return (
            self.a * (self.l * self.r - self.m * self.q)
            - self.b * (self.k * self.r - self.m * self.p)
            + self.c * (self.k * self.q - self.l * self.p)
        )

    def lam(self, fx, fy):
        """al - bk + (cl - bm) u10 + (am - ck) u01, the graph-transversality factor."""
        return (
            self.a * self.l
            - self.b * self.k
            + (self.c * self.l - self.b * self.m) * fx
            + (self.a * self.m - self.c * self.k) * fy
        )

    def matrix(self):
        return ((self.a, self.b, self.c), (self.k, self.l, self.m), (self.p, self.q, self.r))

    def translation(self):
        return (self.d, self.n, self.w)

    def then(self, second: "AffineTransform3") -> "AffineTransform3":
        """The transform whose application equals applying self, then second.

        In inverse form: x = M1 (M2 w' + t2) + t1, so the matrix is M1 M2 and
        the translation is M1 t2 + t1.
        """
        m1 = self.matrix()
        m2 = second.matrix()
        t1 = self.translation()
        t2 = second.translation()
        prod = [
            [sum(m1[i][h] * m2[h][j] for h in range(3)) for j in range(3)] for i in range(3)
        ]
        tr = [sum(m1[i][h] * t2[h] for h in range(3)) + t1[i] for i in range(3)]
        return AffineTransform3(
            a=prod[0][0], b=prod[0][1], c=prod[0][2],
            k=prod[1][0], l=prod[1][1], m=prod[1][2],
            p=prod[2][0], q=prod[2][1], r=prod[2][2],
            d=tr[0], n=tr[1], w=tr[2],
        )

    def inverse_matrix(self):
        """The forward linear part (target coordinates from source)."""
        (a, b, c), (k, l, m), (p, q, r) = self.matrix()
        det = self.delta()
        cof = (
            (l * r - m * q, c * q - b * r, b * m - c * l),
            (m * p - k * r, a * r - c * p, c * k - a * m),
            (k * q - l * p, b * p - a * q, a * l - b * k),
        )
        return tuple(tuple(e / det for e in row) for row in cof)

    @staticmethod
    def identity() -> "AffineTransform3":
        return AffineTransform3()


def apply_affine(F, T: AffineTransform3, grid: int | None = None):
    """Graphing series of the transformed surface {u = F} under T (inverse form).

    Assembles Phi(s,t,v) = -(p s + q t + r v + w) + F(a s + b t + c v + d, ...)
    and solves it for v = G(s,t).  Requires the image surface to pass through
    the target origin, i.e. Phi(0,0,0) = 0.  Exact F and T run on integer
    numerators from the substitution through the solve, or edit the affine
    part, G = F - (p s + q t + w), when T's linear part is the identity.
    F may also be a :class:`GridSeries`.  With ``grid`` (exact F and T, no
    translation) the certified fixed-point kernel returns G as a
    :class:`GridSeries` on the 2^-grid grid, within 2^-grid of the exact
    image; where its certificate fails, the exact image comes back instead
    (module docstring).
    """
    if grid is not None:
        assert not (T.d or T.n or T.w), "no fixed-point loop translates"
        G = _grid_image(F, T, grid)
        if G is not None:
            return G
    F = F.series() if isinstance(F, GridSeries) else F
    rest = (T.a, T.b, T.c, T.k, T.l, T.m, T.r, T.d, T.n)
    if rest == (1, 0, 0, 0, 1, 0, 1, 0, 0) and all(map(is_exact, (*rest, T.p, T.q, T.w))) and F.is_exact():
        if F[(0, 0)] != T.w:
            raise ValueError(_MISSES_ORIGIN)
        # only the two edited coefficients are subtracted; every other Fraction is kept as it is
        G = {jk: c if isinstance(c, Fraction) else Fraction(c) for jk, c in F.coeffs.items() if jk != (0, 0)}
        G[(1, 0)], G[(0, 1)] = Fraction(F[(1, 0)] - T.p), Fraction(F[(0, 1)] - T.q)
        return TruncatedSeries2(F.order, G)
    axis = {(0, 0, 0): T.w, (1, 0, 0): T.p, (0, 1, 0): T.q, (0, 0, 1): T.r}
    return _solve_graph(F, (T.a, T.b, T.c, T.d), (T.k, T.l, T.m, T.n), axis)


@dataclass(frozen=True)
class CurveTransform2:
    """A plane affine map in inverse form: x = a y + b v + e, u = c y + d v + f."""

    a: object = Fraction(1)
    b: object = Fraction(0)
    c: object = Fraction(0)
    d: object = Fraction(1)
    e: object = Fraction(0)
    f: object = Fraction(0)

    def det(self):
        return self.a * self.d - self.b * self.c

    def then(self, second: "CurveTransform2") -> "CurveTransform2":
        a = self.a * second.a + self.b * second.c
        b = self.a * second.b + self.b * second.d
        c = self.c * second.a + self.d * second.c
        d = self.c * second.b + self.d * second.d
        e = self.a * second.e + self.b * second.f + self.e
        f = self.c * second.e + self.d * second.f + self.f
        return CurveTransform2(a, b, c, d, e, f)

    def forward_matrix(self):
        det = self.det()
        return ((self.d / det, -self.b / det), (-self.c / det, self.a / det))

    def embedded(self) -> AffineTransform3:
        """The same map on (x, y, u), the identity in y: x = a s + b v + e, y = t, u = c s + d v + f."""
        return AffineTransform3(a=self.a, c=self.b, d=self.e, p=self.c, r=self.d, w=self.f)

    @staticmethod
    def identity() -> "CurveTransform2":
        return CurveTransform2()


def apply_affine_curve(F, T: CurveTransform2, grid: int | None = None):
    """Curve analogue: the profile of the y-free graph u = F(x) under T's embedding; ``grid`` and F as there."""
    return apply_affine(F.y_free(), T.embedded(), grid).x_profile()


# -- JSON interchange --------------------------------------------------------


def series_to_json(F) -> dict:
    if isinstance(F, TruncatedSeries1):
        coeffs = [
            {"j": j, "k": 0, "value": scalar_to_string(c)} for j, c in sorted(F.coeffs.items())
        ]
        return {"vars": 1, "order": F.order, "coeffs": coeffs}
    coeffs = [
        {"j": j, "k": k, "value": scalar_to_string(c)}
        for (j, k), c in sorted(F.coeffs.items())
    ]
    return {"vars": 2, "order": F.order, "coeffs": coeffs}


def series_from_json(doc: dict):
    try:
        nvars = doc["vars"]
        order = doc["order"]
        entries = doc["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed series document: missing {exc}") from exc
    if nvars not in (1, 2):
        raise ValueError("vars must be 1 or 2")
    if not _is_index(order):
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
    if not isinstance(entries, list):
        raise ValueError("coeffs must be a list")
    values: Dict[Tuple[int, int], object] = {}
    for pos, entry in enumerate(entries):
        try:
            j, k = entry["j"], entry.get("k", 0)
            v = scalar_from_string(str(entry["value"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"malformed coefficient at index {pos}: {exc}") from exc
        if not (_is_index(j) and _is_index(k)):
            raise ValueError(f"coefficient at index {pos}: j and k must be non-negative integers")
        if j + k > order:
            raise ValueError(f"coefficient at index {pos}: (j, k) = ({j}, {k}) exceeds order {order}")
        if (j, k) in values:
            raise ValueError(f"coefficient at index {pos}: duplicate (j, k) = ({j}, {k})")
        values[(j, k)] = v
    kinds = {is_exact(v) for v in values.values() if v != 0}
    if len(kinds) > 1:
        raise ValueError("series mixes exact rational and floating coefficients")
    if nvars == 1:
        if any(k != 0 for _, k in values):
            raise ValueError("univariate series has nonzero k index")
        return TruncatedSeries1(order, {j: v for (j, _), v in values.items()})
    return TruncatedSeries2(order, values)


def _is_index(n) -> bool:
    """A JSON integer >= 0; booleans are not integers here."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0
