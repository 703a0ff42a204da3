"""Text syntax round-trips, frozen parses, and error positions."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPEC_PARAMS, make_spec, random_element
from nilzeta import GaussianRational
from nilzeta.expr import ExpressionError, format_element, parse_expression
from nilzeta.uea import UEAElement, pure_y


def test_parse_frozen_examples(heis) -> None:
    x1 = UEAElement.x_gen(heis, 0)
    y0 = pure_y(heis, (0,))
    y1 = pure_y(heis, (1,))
    assert parse_expression("X1", heis) == x1
    assert parse_expression("Y[1]", heis) == y1
    assert parse_expression("Y[0] - i", heis) == y0 - UEAElement.one(heis).scale(
        GaussianRational(0, 1)
    )
    assert parse_expression("2*X1^2*Y[1]", heis) == (x1 * x1 * y1).scale(
        GaussianRational(2)
    )
    assert parse_expression("-3/2i*Y[0] + X1", heis) == x1 + y0.scale(
        GaussianRational(0, "-3/2")
    )


def test_parse_bare_constants(heis) -> None:
    one = UEAElement.one(heis)
    assert parse_expression("5", heis) == one.scale(GaussianRational(5))
    assert parse_expression("i", heis) == one.scale(GaussianRational(0, 1))
    assert parse_expression("0", heis) == UEAElement.zero(heis)
    assert parse_expression("-1/2", heis) == one.scale(GaussianRational("-1/2"))


def test_parse_uses_algebra_product(heis) -> None:
    # Factors multiply with the non-commutative product, so a commutator
    # written out longhand collapses to the bracket value.
    got = parse_expression("X1 * Y[1] - Y[1] * X1", heis)
    assert got == pure_y(heis, (0,))


def test_parse_two_axis_indices(mixed) -> None:
    got = parse_expression("X2*Y[0,2]^2", mixed)
    y02 = pure_y(mixed, (0, 2))
    assert got == UEAElement.x_gen(mixed, 1) * y02 * y02


def test_whitespace_insignificant(quad) -> None:
    assert parse_expression("2*Y[2]-X1", quad) == parse_expression(
        "  2 * Y[ 2 ]   -   X1 ", quad
    )


LIMIT = sys.get_int_max_str_digits()
LONG = "1" * (LIMIT + 1)


def _error_case(text: str, position: int, message: str):
    return pytest.param(text, position, message, id=f"{text}-{position}")


@pytest.mark.parametrize(
    "text,position,message",
    [
        _error_case("X1 +", 4, "unexpected END at position 4 (expected a factor (Xk or Y[..]))"),
        _error_case("3//2", 2, "unexpected SLASH at position 2 (expected a denominator)"),
        _error_case("X1^", 3, "unexpected END at position 3 (expected an exponent)"),
        _error_case("foo", 0, "unexpected character 'f' at position 0"),
        _error_case("2*", 2, "unexpected END at position 2 (expected a factor (Xk or Y[..]))"),
        _error_case("Y[1", 3, "unexpected END at position 3 (expected ']')"),
        _error_case("i*i", 2, "unexpected I at position 2 (expected a factor (Xk or Y[..]))"),
        _error_case("1/0", 2, "zero denominator at position 2"),
        # digits that are not decimal (superscripts) are characters, not numbers
        _error_case("X1^²", 3, "unexpected character '²' at position 3"),
        _error_case("3²", 1, "unexpected character '²' at position 1"),
        _error_case("X²", 0, "generator X needs a 1-based index at position 0 (expected digit)"),
        # a digit run past the interpreter's int-to-str limit fails at its token
        pytest.param("X1^" + LONG, 3, f"number longer than {LIMIT} digits at position 3",
                     id="long-exponent-3"),
        pytest.param(LONG + "*X1", 0, f"number longer than {LIMIT} digits at position 0",
                     id="long-coefficient-0"),
        pytest.param("X" + LONG, 0, f"number longer than {LIMIT} digits at position 0",
                     id="long-generator-0"),
    ],
)
def test_error_positions(heis, text: str, position: int, message: str) -> None:
    with pytest.raises(ExpressionError) as exc:
        parse_expression(text, heis)
    assert exc.value.position == position
    assert str(exc.value) == message


def test_unknown_y_index_rejected(heis) -> None:
    for text, message in [
        ("Y[2]", "Y[2] is not a basis element of this algebra "
                 "(index set bounded by alpha=[1] per block) at position 0"),
        ("Y[1,0]", "Y index [1, 0] has 2 entries; this algebra needs 1 at position 0"),
        ("X0", "X0 out of range (this algebra has X1..X1) at position 0"),
        ("X2", "X2 out of range (this algebra has X1..X1) at position 0"),
    ]:
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text, heis)
        assert str(exc.value) == message, text


# Well-formed elements on heis with up to three characters of the grammar's
# alphabet (and a superscript digit) inserted, so that draws both parse and fail.
_TERMS = st.one_of(
    st.sampled_from(["5", "i", "-1/2", "3/4i"]),
    st.builds(
        lambda coeff, factors: coeff + "*".join(factors),
        st.sampled_from(["", "2*", "i * ", "7/3i*", "0 * "]),
        st.lists(st.sampled_from(["X1", "X1^2", "Y[0]", "Y[1]", "Y[1]^3"]), min_size=1, max_size=3),
    ),
)
_INSERTS = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from(list("XYi[],^*+-/ 0123²"))), max_size=3
)


def _insert(text: str, inserts) -> str:
    for at, char in inserts:
        at %= len(text) + 1
        text = text[:at] + char + text[at:]
    return text


GRAMMAR_TEXT = st.builds(
    _insert, st.lists(_TERMS, min_size=1, max_size=3).map(" - ".join), _INSERTS
)


@settings(max_examples=100)
@given(text=GRAMMAR_TEXT)
def test_text_parses_and_prints_back_or_fails_with_a_position(heis, text: str) -> None:
    try:
        u = parse_expression(text, heis)
    except ExpressionError as exc:
        assert 0 <= exc.position <= len(text)
        return
    assert parse_expression(format_element(u), heis) == u


def test_format_zero_and_constants(heis) -> None:
    assert format_element(UEAElement.zero(heis)) == "0"
    assert format_element(UEAElement.one(heis)) == "1"
    assert format_element(UEAElement.one(heis).scale(GaussianRational(0, -1))) == "-i"


def test_format_leading_monomial_first(heis) -> None:
    u = UEAElement.one(heis).scale(GaussianRational(0, -1)) + pure_y(heis, (0,))
    assert format_element(u) == "Y[0] - i"


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_round_trip_random_elements(name: str) -> None:
    spec = make_spec(name)
    rng = random.Random(4310 + spec.n)
    for _ in range(25):
        u = random_element(spec, rng, max_degree=3, terms=4)
        assert parse_expression(format_element(u), spec) == u


def test_format_is_deterministic(mixed) -> None:
    rng = random.Random(99)
    u = random_element(mixed, rng, max_degree=3, terms=5)
    assert format_element(u) == format_element(u + UEAElement.zero(mixed))
