"""Exact Gaussian-rational arithmetic.

All symbolic computations in this package run over Q(i), the field of
Gaussian rationals, each element one reduced integer triple (a + b i) / d:
d > 0 and gcd(a, b, d) = 1.  An operation is int arithmetic and at most one
three-way ``math.gcd``; operands over one d add without cross-multiplying.
The form is canonical, so equality and hashing compare triples.  Plain
rationals (the parts ``re``/``im``, the pole lattice) are ``fractions.Fraction``.
"""

from __future__ import annotations

import numbers
from fractions import Fraction as Rat
from math import gcd
from typing import Union

RATIONAL_BACKEND = "fractions"  # the one plain-rational type; perfbench reports it

RationalLike = Union[int, str, "Rat"]

_new = object.__new__


def as_rational(value: RationalLike) -> "Rat":
    """Coerce an int, ``"p/q"`` string, or exact rational to a Fraction.

    Floats are rejected: their binary round-off would silently contaminate
    the exact arithmetic everywhere downstream.
    """
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}; pass an int, 'p/q' string, or Fraction"
        )
    return Rat(value)


def rat_ceil(value: "Rat") -> int:
    """Exact ceiling of a rational."""
    return -(-value.numerator // value.denominator)


def format_rational(value: "Rat") -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` (q > 1)."""
    return _format_ratio(value.numerator, value.denominator)


def _format_ratio(num: int, den: int) -> str:
    """:func:`format_rational` of num / den (den > 0), with no Fraction built."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int, exact rational or ``"p/q"`` string."""
    if isinstance(value, int):
        return value, 1
    if not isinstance(value, numbers.Rational):
        value = as_rational(value)
    return value.numerator, value.denominator


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b i) / d for any d > 0, brought to lowest terms by one gcd."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


class GaussianRational:
    """An element (a + b i) / d of Q(i), held reduced: d > 0, gcd(a, b, d) = 1.

    Instances are immutable values: every arithmetic operation returns a new
    object.  Construction accepts ints, ``"p/q"`` strings, rationals,
    or another :class:`GaussianRational` (as the real part only when no
    imaginary part is given).  ``re`` and ``im`` read the parts as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("cannot combine a GaussianRational with an imaginary part")
            re, im = re.re, re.im
        (ar, dr), (ai, di) = _ratio(re), _ratio(im)
        a, b, d = ar * di, ai * dr, dr * di
        g = gcd(a, b, d)
        self._a, self._b, self._d = a // g, b // g, d // g

    # The int constructor of the kernels: (a + b i) / d for ints a, b and d > 0.
    _of_ints = staticmethod(_reduced)

    @property
    def re(self) -> "Rat":
        return Rat(self._a, self._d)

    @property
    def im(self) -> "Rat":
        return Rat(self._b, self._d)

    @staticmethod
    def coerce(value: "ScalarLike") -> "GaussianRational":
        """Coerce an int, rational, or GaussianRational to a GaussianRational."""
        return value if type(value) is GaussianRational else GaussianRational(value)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- arithmetic ---------------------------------------------------------
    # Non-scalar operands get NotImplemented, so ``I * u`` reaches u.__rmul__.
    def __add__(self, other: "ScalarLike") -> "GaussianRational":
        o = other if type(other) is GaussianRational else _operand(other)
        if o is None:
            return NotImplemented
        a, b, d = o._a, o._b, o._d
        if d == self._d:
            return _reduced(self._a + a, self._b + b, d)
        return _reduced(self._a * d + a * self._d, self._b * d + b * self._d, self._d * d)

    __radd__ = __add__

    def __sub__(self, other: "ScalarLike") -> "GaussianRational":
        o = other if type(other) is GaussianRational else _operand(other)
        if o is None:
            return NotImplemented
        a, b, d = o._a, o._b, o._d
        if d == self._d:
            return _reduced(self._a - a, self._b - b, d)
        return _reduced(self._a * d - a * self._d, self._b * d - b * self._d, self._d * d)

    def __rsub__(self, other: "ScalarLike") -> "GaussianRational":
        o = _operand(other)
        return NotImplemented if o is None else o - self

    def __neg__(self) -> "GaussianRational":
        return _reduced(-self._a, -self._b, self._d)

    def __mul__(self, other: "ScalarLike") -> "GaussianRational":
        if type(other) is int:
            return _reduced(self._a * other, self._b * other, self._d)
        o = other if type(other) is GaussianRational else _operand(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        """d (a - b i) / (a^2 + b^2)."""
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero GaussianRational")
        return _reduced(d * a, -d * b, norm)

    def __truediv__(self, other: "ScalarLike") -> "GaussianRational":
        o = _operand(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other: "ScalarLike") -> "GaussianRational":
        o = _operand(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        base = self.inverse() if exponent < 0 else self
        result, k = ONE, abs(exponent)
        while k:
            if k & 1:
                result = result * base
            base, k = base * base, k >> 1
        return result

    # -- comparisons / hashing ----------------------------------------------
    # Only numbers compare; a real value equals, and hashes like, the int or
    # Fraction of the same value.
    def __eq__(self, other: object) -> bool:
        if type(other) is GaussianRational:
            return (self._a, self._b, self._d) == (other._a, other._b, other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, numbers.Rational):
            return not self._b and self._a * other.denominator == other.numerator * self._d
        return NotImplemented

    def __hash__(self) -> int:
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self._a) if self._d == 1 else hash(Rat(self._a, self._d))

    # -- conversions ----------------------------------------------------------
    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        re, im = _format_ratio(self._a, self._d), _format_ratio(self._b, self._d)
        return f"GaussianRational({re!r}, {im!r})"

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _format_ratio(a, d)
        imag = "i" if abs(b) == d else f"{_format_ratio(abs(b), d)}i"
        if not a:
            return imag if b > 0 else f"-{imag}"
        return f"{_format_ratio(a, d)}{'+' if b > 0 else '-'}{imag}"

    def to_json(self) -> dict:
        """JSON form with rational parts serialized as strings."""
        return {"re": _format_ratio(self._a, self._d), "im": _format_ratio(self._b, self._d)}


def _operand(value: object) -> "GaussianRational | None":
    """A scalar operand (a float meets the float refusal) as a GaussianRational, else None."""
    if isinstance(value, (GaussianRational, int, float, str, numbers.Rational)):
        return GaussianRational.coerce(value)  # type: ignore[arg-type]
    return None


ScalarLike = Union[int, str, "Rat", GaussianRational]

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def i_power(k: int) -> GaussianRational:
    """The power i**k for any integer k (negative allowed)."""
    return I ** (k % 4)
