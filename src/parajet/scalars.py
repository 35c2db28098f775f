"""Scalar kernel: exact rationals, IEEE doubles, and sensitivity-carrying numbers.

Every higher layer is generic over three scalar kinds that share the same
arithmetic surface:

* ``fractions.Fraction`` -- exact mode,
* ``float``              -- floating mode,
* ``Sens``               -- a scalar augmented with first-order sensitivities
                            with respect to a set of seed keys (forward mode).

Fractional powers follow the real convention ``x^(1/3) := sign(x)|x|^(1/3)``
and ``p^(2/3) := (p^(1/3))^2``, so odd roots are total on the reals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, Hashable

Scalar = Any  # Fraction | float | int | Sens


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def to_float(x):
    if isinstance(x, Sens):
        return to_float(x.value)
    return float(x)


def _isqrt_exact(n: int):
    r = math.isqrt(n)
    return r if r * r == n else None


def _icbrt_exact(n: int):
    r = _inewton_root(n, 3)
    return r if r * r * r == n else None


def _inewton_root(n: int, k: int) -> int:
    """Floor of the integer k-th root of n >= 0."""
    if n == 0:
        return 0
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def cbrt_frac(x, bits: int = 192) -> Fraction:
    """Rational approximation of the real cube root, within 2^-bits relatively."""
    f = Fraction(x)
    if f == 0:
        return Fraction(0)
    s = -1 if f < 0 else 1
    p, q = abs(f.numerator), f.denominator
    exact = _icbrt_exact(p), _icbrt_exact(q)
    if exact[0] is not None and exact[1] is not None:
        return s * Fraction(exact[0], exact[1])
    scaled = p * q * q << (3 * bits)
    return s * Fraction(_inewton_root(scaled, 3), q << bits)


def sqrt_frac(x, bits: int = 192) -> Fraction:
    """Rational approximation of the square root, within 2^-bits relatively."""
    f = Fraction(x)
    if f < 0:
        raise ValueError("square root of negative value")
    if f == 0:
        return Fraction(0)
    p, q = f.numerator, f.denominator
    exact = _isqrt_exact(p), _isqrt_exact(q)
    if exact[0] is not None and exact[1] is not None:
        return Fraction(exact[0], exact[1])
    return Fraction(math.isqrt(p * q << (2 * bits)), q << bits)


def snap(x, bits: int = 192):
    """Round a scalar to the dyadic grid 2^-bits (bounds denominator growth)."""
    if isinstance(x, Fraction):
        return Fraction(round(x * (1 << bits)), 1 << bits)
    return x


def sqrt(x):
    """Square root; stays exact on perfect-square rationals, errors on negatives."""
    if isinstance(x, Sens):
        r = sqrt(x.value)
        return Sens(r, {k: v / (2 * r) for k, v in x.partials.items()})
    if is_exact(x):
        f = Fraction(x)
        if f < 0:
            raise ValueError("square root of negative value")
        p, q = _isqrt_exact(f.numerator), _isqrt_exact(f.denominator)
        if p is not None and q is not None:
            return Fraction(p, q)
        return math.sqrt(float(f))
    if x < 0:
        raise ValueError("square root of negative value")
    return math.sqrt(x)


def cbrt(x):
    """Real cube root, sign(x)|x|^(1/3); exact on perfect-cube rationals."""
    if isinstance(x, Sens):
        r = cbrt(x.value)
        # d/dx sign(x)|x|^(1/3) = (1/3)|x|^(-2/3) = 1/(3 r^2), x != 0
        rr = r * r
        return Sens(r, {k: v / (3 * rr) for k, v in x.partials.items()})
    if is_exact(x):
        f = Fraction(x)
        s = -1 if f < 0 else 1
        p, q = _icbrt_exact(abs(f.numerator)), _icbrt_exact(f.denominator)
        if p is not None and q is not None:
            return s * Fraction(p, q)
        af = abs(f)
        if af.numerator.bit_length() > 900 or af.denominator.bit_length() > 900:
            return s * float(cbrt_frac(af, 64))
        return s * float(af) ** (1.0 / 3.0)
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


class Sens:
    """A scalar carrying first-order sensitivities d(value)/d(seed key).

    Partials are stored sparsely; a missing key is a zero sensitivity.  The
    value and the partials may themselves be ``Sens`` instances, which gives
    exact nested (second-order) differentiation when needed.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials: Dict[Hashable, Any] | None = None):
        self.value = value
        self.partials = partials or {}

    @staticmethod
    def seed(value, key: Hashable) -> "Sens":
        return Sens(value, {key: 1})

    @staticmethod
    def lift(x) -> "Sens":
        return x if isinstance(x, Sens) else Sens(x, {})

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = Sens.lift(other)
        p = dict(self.partials)
        for k, v in o.partials.items():
            p[k] = p[k] + v if k in p else v
        return Sens(self.value + o.value, p)

    __radd__ = __add__

    def __neg__(self):
        return Sens(-self.value, {k: -v for k, v in self.partials.items()})

    def __sub__(self, other):
        return self + (-Sens.lift(other))

    def __rsub__(self, other):
        return Sens.lift(other) + (-self)

    def __mul__(self, other):
        o = Sens.lift(other)
        p = {k: v * o.value for k, v in self.partials.items()}
        for k, v in o.partials.items():
            t = v * self.value
            p[k] = p[k] + t if k in p else t
        return Sens(self.value * o.value, p)

    __rmul__ = __mul__

    def recip(self):
        iv = 1 / self.value
        m = -iv * iv
        return Sens(iv, {k: v * m for k, v in self.partials.items()})

    def __truediv__(self, other):
        return self * Sens.lift(other).recip()

    def __rtruediv__(self, other):
        return Sens.lift(other) * self.recip()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("Sens exponent must be an integer")
        if n == 0:
            return Sens(self.value * 0 + 1, {})
        if n < 0:
            return self.recip() ** (-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # comparisons act on values (used by branch decisions during evaluation)
    def __lt__(self, other):
        return self.value < (other.value if isinstance(other, Sens) else other)

    def __gt__(self, other):
        return self.value > (other.value if isinstance(other, Sens) else other)

    def __abs__(self):
        return Sens(abs(self.value), self.partials if self.value >= 0 else {k: -v for k, v in self.partials.items()})

    def __repr__(self):
        return f"Sens({self.value!r}, {self.partials!r})"


def scalar_from_string(text: str):
    """Parse a coefficient: 'p/q' or integer -> Fraction (exact), decimal -> float.

    Raises ValueError on a zero denominator and on a value that is not finite.
    """
    t = text.strip()
    if "/" in t:
        try:
            return Fraction(t)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {t!r}") from exc
    if any(c in t for c in ".eE"):
        v = float(t)
        if not math.isfinite(v):
            raise ValueError(f"value {t!r} is not finite")
        return v
    return Fraction(int(t))


def scalar_to_string(x) -> str:
    """Render a coefficient for JSON: exact as 'p/q', float as 17-significant-digit decimal."""
    if is_exact(x):
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)
    s = f"{float(x):.17g}"
    if "." not in s and "e" not in s and "E" not in s and "n" not in s:
        s += ".0"
    return s
