"""Exact Gaussian-rational scalar arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilzeta.scalars import (
    I,
    ONE,
    RATIONAL_BACKEND,
    ZERO,
    GaussianRational,
    as_rational,
    format_rational,
    i_power,
    rat_ceil,
)
from nilzeta.uea import UEAElement
from nilzeta.weyl import WeylOperator

from conftest import make_spec

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).map(lambda f: as_rational(f"{f.numerator}/{f.denominator}"))

gaussians = st.builds(
    GaussianRational,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)


def test_backend_selection() -> None:
    assert RATIONAL_BACKEND == "fractions"


def test_constants() -> None:
    assert ZERO.is_zero()
    assert ONE == GaussianRational(1)
    assert I * I == -ONE
    assert ONE.is_real() and not I.is_real()


def test_construction_from_strings() -> None:
    c = GaussianRational("3/4", "-2/5")
    assert format_rational(c.re) == "3/4"
    assert format_rational(c.im) == "-2/5"


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a: GaussianRational, b: GaussianRational, c: GaussianRational) -> None:
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(gaussians)
def test_inverse(a: GaussianRational) -> None:
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == ONE
        assert a / a == ONE


@given(gaussians)
def test_conjugate_norm(a: GaussianRational) -> None:
    norm = a * a.conjugate()
    assert norm.is_real()
    assert (norm.re >= 0) or a.is_zero()


@given(st.integers(min_value=-12, max_value=12))
def test_i_power_periodicity(k: int) -> None:
    assert i_power(k) == i_power(k + 4)
    assert i_power(k) * i_power(-k) == ONE


def test_i_power_values() -> None:
    assert i_power(0) == ONE
    assert i_power(1) == I
    assert i_power(2) == -ONE
    assert i_power(3) == -I
    assert i_power(-1) == -I


@given(gaussians, st.integers(min_value=0, max_value=6))
def test_pow_matches_repeated_product(a: GaussianRational, k: int) -> None:
    expected = ONE
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@given(rationals)
def test_ceil_floor(r) -> None:
    c, f = rat_ceil(r), int(r.numerator) // int(r.denominator)
    assert isinstance(c, int) and isinstance(f, int)
    assert f <= r <= c
    assert c - f in (0, 1)
    frac = Fraction(str(r)) if "/" in str(r) else Fraction(int(str(r)))
    assert c == -((-frac.numerator) // frac.denominator)


def test_format_rational() -> None:
    assert format_rational(as_rational(5)) == "5"
    assert format_rational(as_rational("7/2")) == "7/2"
    assert format_rational(as_rational("-1/3")) == "-1/3"


def test_as_rational_rejects_floats() -> None:
    with pytest.raises(TypeError):
        as_rational(0.5)  # type: ignore[arg-type]
    # Arithmetic with a float reaches the same refusal.
    with pytest.raises(TypeError, match="refusing float"):
        I * 0.5  # type: ignore[operator]
    with pytest.raises(TypeError, match="refusing float"):
        0.5 + I  # type: ignore[operator]


@pytest.mark.parametrize("kind", ["uea", "weyl"])
def test_scalar_operands_defer_to_combinations(kind: str) -> None:
    if kind == "uea":
        u = UEAElement.x_gen(make_spec("heis"), 0)
    else:
        u = WeylOperator.d_op(1, 0) + WeylOperator.x_op(1, 0).scale(2)
    assert I * u == u.scale(I)
    assert GaussianRational("1/2", 3) * u == u.scale(GaussianRational("1/2", 3))
    assert I != u
    for op in (lambda: I + u, lambda: I - u, lambda: I / u):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


def test_to_json() -> None:
    c = GaussianRational("1/2", -3)
    payload = c.to_json()
    assert payload == {"re": "1/2", "im": "-3"}
