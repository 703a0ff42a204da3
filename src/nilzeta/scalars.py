"""Exact Gaussian-rational arithmetic.

All symbolic computations in this package run over Q(i), the field of
Gaussian rationals.  The real and imaginary parts are held as exact
rationals, ``fractions.Fraction``.
"""

from __future__ import annotations

import numbers
from fractions import Fraction as Rat
from typing import Union

RATIONAL_BACKEND = "fractions"  # the one rational type; perfbench reports it

RationalLike = Union[int, str, "Rat"]

# What as_rational accepts besides the floats it refuses.
_RATIONALS = (int, str, Rat, numbers.Rational)


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
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


class GaussianRational:
    """An element of Q(i) with exact rational real and imaginary parts.

    Instances are immutable values: every arithmetic operation returns a new
    object.  Construction accepts ints, ``"p/q"`` strings, rationals,
    or another :class:`GaussianRational` (as the real part only when no
    imaginary part is given).
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("cannot combine a GaussianRational with an imaginary part")
            object.__setattr__(self, "re", re.re)
            object.__setattr__(self, "im", re.im)
            return
        object.__setattr__(self, "re", as_rational(re))
        object.__setattr__(self, "im", as_rational(im))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def _make(cls, re: "Rat", im: "Rat") -> "GaussianRational":
        """Wrap two Fractions as they are, with no coercion."""
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    @staticmethod
    def coerce(value: "ScalarLike") -> "GaussianRational":
        """Coerce an int, rational, or GaussianRational to a GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    @staticmethod
    def _operand(value: object) -> "GaussianRational | None":
        """A scalar operand (a float meets the float refusal) as a GaussianRational, else None."""
        if isinstance(value, (GaussianRational, float, *_RATIONALS)):
            return GaussianRational.coerce(value)  # type: ignore[arg-type]
        return None

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------
    # Non-scalar operands get NotImplemented, so ``I * u`` reaches u.__rmul__.
    def __add__(self, other: "ScalarLike") -> "GaussianRational":
        o = self._operand(other)
        return NotImplemented if o is None else self._make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: "ScalarLike") -> "GaussianRational":
        o = self._operand(other)
        return NotImplemented if o is None else self._make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: "ScalarLike") -> "GaussianRational":
        o = self._operand(other)
        return NotImplemented if o is None else o - self

    def __neg__(self) -> "GaussianRational":
        return self._make(-self.re, -self.im)

    def __mul__(self, other: "ScalarLike") -> "GaussianRational":
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._make(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero GaussianRational")
        return self._make(self.re / norm, -self.im / norm)

    def __truediv__(self, other: "ScalarLike") -> "GaussianRational":
        o = self._operand(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other: "ScalarLike") -> "GaussianRational":
        o = self._operand(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return self._make(self.re, -self.im)

    # -- comparisons / hashing ----------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, _RATIONALS):
            other = GaussianRational(other)  # type: ignore[arg-type]
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- conversions ----------------------------------------------------------
    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({format_rational(self.re)!r}, {format_rational(self.im)!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{format_rational(self.im)}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = imag.lstrip("-")
        return f"{format_rational(self.re)}{sign}{mag}"

    def to_json(self) -> dict:
        """JSON form with rational parts serialized as strings."""
        return {"re": format_rational(self.re), "im": format_rational(self.im)}


ScalarLike = Union[int, str, "Rat", GaussianRational]

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def i_power(k: int) -> GaussianRational:
    """The power i**k for any integer k (negative allowed)."""
    return I ** (k % 4)
