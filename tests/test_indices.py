"""Multi-index combinatorics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilzeta.indices import (
    box,
    compositions,
    mi_abs,
    mi_add,
    mi_binomial,
    mi_delta,
    mi_factorial,
    mi_falling,
    mi_sub,
)


def mi_leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b, strict=True))

small_indices = st.lists(
    st.integers(min_value=0, max_value=4), min_size=1, max_size=3
).map(tuple)


@given(small_indices, small_indices)
def test_add_sub_roundtrip(a, b) -> None:
    if len(a) != len(b):
        return
    s = mi_add(a, b)
    assert mi_sub(s, b) == a
    assert mi_abs(s) == mi_abs(a) + mi_abs(b)
    assert mi_leq(a, s) and mi_leq(b, s)


def test_sub_rejects_negative() -> None:
    with pytest.raises(ValueError):
        mi_sub((1, 0), (0, 1))


def test_delta() -> None:
    assert mi_delta(3, 0) == (1, 0, 0)
    assert mi_delta(3, 2) == (0, 0, 1)


@given(small_indices)
def test_factorial(a) -> None:
    assert mi_factorial(a) == math.prod(math.factorial(e) for e in a)


@given(small_indices, small_indices)
def test_binomial_falling(a, b) -> None:
    if len(a) != len(b):
        return
    assert mi_binomial(a, b) == math.prod(math.comb(x, y) for x, y in zip(a, b))
    assert mi_falling(a, b) == math.prod(math.perm(x, y) for x, y in zip(a, b))
    if mi_leq(b, a):
        assert mi_falling(a, b) == mi_binomial(a, b) * mi_factorial(b)
    else:
        assert mi_binomial(a, b) == 0
        assert mi_falling(a, b) == 0


def test_box_enumeration() -> None:
    assert list(box((1, 2))) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert list(box(())) == [()]
    assert list(box((0,))) == [(0,)]


@given(small_indices)
def test_box_size_and_membership(bound) -> None:
    entries = list(box(bound))
    assert len(entries) == math.prod(e + 1 for e in bound)
    assert len(set(entries)) == len(entries)
    assert all(mi_leq(e, bound) for e in entries)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6))
def test_compositions_count(length: int, degree: int) -> None:
    entries = list(compositions(length, degree))
    assert len(entries) == math.comb(degree + length - 1, length - 1)
    assert all(sum(e) == degree and len(e) == length for e in entries)
    assert entries == sorted(entries)

