"""Exact Gaussian-rational scalar arithmetic."""

from __future__ import annotations

import math
import random
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
from nilzeta.reduction import h_s
from nilzeta.uea import UEAElement
from nilzeta.weyl import WeylOperator, delta1, rho, weyl_product

from conftest import PairGaussian, make_spec, random_element

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
    assert ONE.im == 0 and I.im != 0


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
    conj = PairGaussian(a.re, a.im).conjugate()
    norm = a * GaussianRational(conj.re, conj.im)
    assert norm.im == 0
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


# Parts with numerators up to 10**30 over denominators up to 10**12.
_big_parts = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12))
_pairs = st.builds(PairGaussian, _big_parts, _big_parts)


def _assert_matches(z: GaussianRational, ref: PairGaussian) -> None:
    """z is the oracle's value, in lowest terms with d > 0, printed and hashed alike."""
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    assert (z.re, z.im) == (ref.re, ref.im)
    assert (str(z), repr(z), z.to_json()) == (str(ref), repr(ref), ref.to_json())
    rebuilt = GaussianRational(ref.re, ref.im)
    assert z == rebuilt and hash(z) == hash(rebuilt)
    if ref.im == 0:
        assert z == ref.re and hash(z) == hash(ref.re)


@given(_pairs, _pairs, st.integers(-3, 3))
def test_triple_kernel_matches_fraction_pair_oracle(x: PairGaussian, y: PairGaussian, k: int) -> None:
    u, v = GaussianRational(x.re, x.im), GaussianRational(y.re, y.im)
    _assert_matches(u, x)
    for got, want in ((u + v, x + y), (u - v, x - y), (u * v, x * y), (-u, -x)):
        _assert_matches(got, want)
    assert (u == v) == (x == y) and (u - u == ZERO)
    for z, ref in ((u, x), (v, y)):
        if ref == PairGaussian():
            with pytest.raises(ZeroDivisionError):
                z.inverse()
            continue
        _assert_matches(z.inverse(), ref.inverse())
        _assert_matches(u / z, x / ref)
        _assert_matches(z**k, ref**k)


def test_real_values_hash_like_the_number_they_equal() -> None:
    assert {1: "x"}.get(GaussianRational(1)) == "x"
    assert {Fraction(1, 2): "h"}.get(GaussianRational(1) / 2) == "h"
    assert {-3: "m"}.get(GaussianRational("-6/2")) == "m"
    assert {GaussianRational(2): "g"}.get(2) == "g"
    assert hash(GaussianRational("7/3")) == hash(Fraction(7, 3))


def test_equality_accepts_only_numbers() -> None:
    one = GaussianRational(1)
    assert one == 1 and one == Fraction(2, 2) and one == True  # noqa: E712
    assert not one == "1" and one != "1"
    assert not one == "abc"
    assert one not in [None, "x"]
    assert one != None  # noqa: E711
    assert one != 1.0  # floats never compare equal to an exact value
    assert GaussianRational(1, 1) != 1
    # Arithmetic operands still accept "p/q" strings.
    assert one + "1/2" == GaussianRational("3/2")
    assert "1/2" * I == GaussianRational(0, "1/2")


@pytest.fixture()
def fraction_constructions(monkeypatch) -> list:
    """A one-element list counting the Fractions built from here on."""
    count = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):  # the arithmetic's constructor from 3.12
        coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, *args):
            count[0] += 1
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return count


def test_kernels_build_no_fractions(fraction_constructions: list) -> None:
    spec = make_spec("mixed")
    d1 = delta1(spec)
    u = random_element(spec, random.Random(3), max_degree=3, terms=4)
    u = u + (UEAElement.x_gen(spec, 0) * UEAElement.x_gen(spec, 1) * UEAElement.x_gen(spec, 0)).scale(
        GaussianRational("1/2", "-1/3")
    )
    assert u.degree() == 3
    w = rho(spec, u).scale(GaussianRational("2/5", 1))
    h_s(spec, 3, u)  # warms the per-monomial images and the factor constants
    before = fraction_constructions[0]
    assert weyl_product(d1, d1)
    assert rho(spec, u)
    assert h_s(spec, 3, u) is not None
    assert (w + d1) - d1 == w and (w - d1).scale(6)
    assert fraction_constructions[0] == before
    assert Fraction(1, 3) and fraction_constructions[0] == before + 1
