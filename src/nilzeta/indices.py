"""Multi-index combinatorics.

A multi-index is a tuple of non-negative ints.  These helpers implement
componentwise sums and differences, factorials, binomials, and iteration
over boxes (all indices bounded componentwise) and degree slices, all
exactly.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator

MultiIndex = tuple[int, ...]


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Componentwise difference; raises if any entry would go negative."""
    out = tuple(x - y for x, y in zip(a, b, strict=True))
    if any(e < 0 for e in out):
        raise ValueError(f"multi-index difference {a} - {b} has a negative entry")
    return out


def mi_abs(a: MultiIndex) -> int:
    """Total degree |a| = sum of entries."""
    return sum(a)


def mi_factorial(a: MultiIndex) -> int:
    out = 1
    for e in a:
        out *= math.factorial(e)
    return out


def mi_binomial(a: MultiIndex, b: MultiIndex) -> int:
    """Product of componentwise binomial coefficients C(a_k, b_k)."""
    out = 1
    for x, y in zip(a, b, strict=True):
        out *= math.comb(x, y)
    return out


def mi_falling(a: MultiIndex, b: MultiIndex) -> int:
    """Product of falling factorials a_k!/(a_k - b_k)!; zero if some b_k > a_k."""
    out = 1
    for x, y in zip(a, b, strict=True):
        if y > x:
            return 0
        out *= math.perm(x, y)
    return out


def mi_delta(length: int, position: int) -> MultiIndex:
    """The unit multi-index with a single 1 at ``position`` (0-based)."""
    if not 0 <= position < length:
        raise ValueError(f"position {position} out of range for length {length}")
    return tuple(1 if k == position else 0 for k in range(length))


def box(bound: MultiIndex) -> Iterator[MultiIndex]:
    """All multi-indices b with b <= bound componentwise, ascending lex."""
    yield from product(*(range(e + 1) for e in bound))


def compositions(length: int, degree: int) -> Iterator[MultiIndex]:
    """All multi-indices of the given length with |a| = degree, ascending lex."""
    if length == 0:
        if degree == 0:
            yield ()
        return
    if length == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in compositions(length - 1, degree - first):
            yield (first, *rest)
