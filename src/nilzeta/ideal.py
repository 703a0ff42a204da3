"""The two-sided kernel ideal of the representation and its degree slices.

Each ordered monomial m = X^p Y^q maps to ``c_m * d^p o x^gamma`` with
``gamma = sum q_beta * beta`` (:func:`~nilzeta.weyl.monomial_symbol`).  The
operators ``d^p o x^gamma`` are linearly independent: each normal form has
its own top term ``x^gamma d^p``.  So the key ``(p, gamma)`` decides all.  An
element lies in the ideal iff, on every key, its coefficients weighted by
``c_m`` sum to zero.  The least monomial with a key, written down in closed
form by :func:`_first`, is *independent*; every other monomial m with that
key is *dependent*, with canonical form ``(c_m / c_first) * first``.

The classification yields, per degree, the dependent monomials ``T`` and
the independent monomials ``O``; the m - canonical_form(m), m in ``T``, are
a basis of the ideal's degree slice.  The canonical-form map sends any
element to its unique representative supported on independent monomials.

Two distinguished generator families are provided; their images vanish
identically, which the verification suite checks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import AlgebraSpec, index_set
from .indices import MultiIndex, mi_abs, mi_factorial
from .linalg import IMAGE_CACHE_SIZE, map_terms, scaled_image
from .scalars import GaussianRational, i_power
from .uea import (
    Monomial,
    UEAElement,
    gamma_apply,
    pure_y,
    slice_monomials,
    y_star,
)
from .weyl import WeylOperator, leibniz, monomial_symbol, weyl_key

DEFAULT_SLICE_CAP = 6


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def star_generator(spec: AlgebraSpec, beta: MultiIndex) -> UEAElement:
    """The element Y_*^beta - beta! * Y^beta.

    Degenerate cases: beta a unit index gives the zero element; beta = 0
    gives i - Y^0.
    """
    return y_star(spec, beta) - pure_y(spec, beta).scale(mi_factorial(beta))


def star_generators(spec: AlgebraSpec) -> list[UEAElement]:
    """One star generator per index-set element, ascending lex."""
    return [star_generator(spec, beta) for beta in index_set(spec)]


def gamma_generators(spec: AlgebraSpec) -> list[UEAElement]:
    """The corrected-generator family: Y^0 - i, then gamma_apply for |beta| >= 2."""
    zero_mi = (0,) * spec.n
    first = pure_y(spec, zero_mi) - UEAElement.one(spec).scale(i_power(1))
    rest = [
        gamma_apply(spec, beta) for beta in index_set(spec) if mi_abs(beta) >= 2
    ]
    return [first] + rest


def is_member(spec: AlgebraSpec, u: UEAElement) -> bool:
    """Exact ideal membership: the canonical form, which puts each key's sum on
    that key's own first monomial, vanishes iff every key's sum does."""
    return not canonical_form(spec, u)


# ---------------------------------------------------------------------------
# Degree slices
# ---------------------------------------------------------------------------


def _cover(spec: AlgebraSpec, gamma: MultiIndex) -> int:
    """The fewest nonzero-index Y factors whose indices sum to gamma.

    Each nonzero index lies in exactly one block's box, so the blocks are
    covered apart, and block I needs max_{k in I} ceil(gamma_k / alpha_k).
    """
    return sum(
        max(-(-gamma[k] // spec.alpha[k]) for k in block) for block in spec.partition
    )


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _first(spec: AlgebraSpec, key: tuple) -> tuple[Monomial, GaussianRational]:
    """The least monomial with symbol key (p, gamma), and 1 / its c.

    The least one has the fewest Y factors, :func:`_cover` of gamma, and
    among those the lexicographically largest Y exponents.  So, over the
    index set in order, each Y^beta takes the largest power t that leaves
    the rest of gamma coverable by exactly the remaining factors; the
    powers that do form an interval from 0, and bisection finds its end.
    """
    p, gamma = key
    rest, left, y = gamma, _cover(spec, gamma), []
    for beta in index_set(spec):
        lo, hi = 0, left
        while lo < hi:
            t = (lo + hi + 1) // 2
            after = tuple(g - t * b for g, b in zip(rest, beta))
            if min(after) >= 0 and _cover(spec, after) == left - t:
                lo = t
            else:
                hi = t - 1
        y.append(lo)
        rest, left = tuple(g - lo * b for g, b in zip(rest, beta)), left - lo
    first = Monomial(p, tuple(y))
    return first, monomial_symbol(spec, first)[1].inverse()


@dataclass(frozen=True)
class DegreeSlice:
    """Classification of the exact-degree-d monomials of one algebra.

    ``dependent`` monomials admit smaller-monomial representatives modulo the
    ideal (their :func:`canonical_form`); ``independent`` monomials are a
    basis of the image slice.
    """

    spec: AlgebraSpec
    degree: int
    monomials: tuple
    dependent: tuple
    independent: tuple


def build_slice(spec: AlgebraSpec, degree: int) -> DegreeSlice:
    """Classify the degree-d monomials against their keys' least monomials."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    monos = tuple(slice_monomials(spec, degree))
    least = [_first(spec, monomial_symbol(spec, m)[0])[0] for m in monos]
    dependent = tuple(m for m, first in zip(monos, least) if first != m)
    independent = tuple(m for m, first in zip(monos, least) if first == m)
    return DegreeSlice(spec, degree, monos, dependent, independent)


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _canonical_image(spec: AlgebraSpec, mono: Monomial) -> tuple:
    """The canonical form of one monomial, ``(c_m / c_first) * first``, as a
    :func:`~nilzeta.linalg.map_terms` image."""
    key, c = monomial_symbol(spec, mono)
    first, inv = _first(spec, key)
    return scaled_image(c * inv, ((first, 1),))


def canonical_form(spec: AlgebraSpec, u: UEAElement) -> UEAElement:
    """The unique representative of u's coset supported on independent monomials.

    Exact projection along the ideal; idempotent, and the zero element is
    returned exactly when u lies in the ideal.  An element of another algebra
    is refused.
    """
    if u.spec != spec:
        raise ValueError("element belongs to a different algebra")
    return UEAElement._of_clean(spec, map_terms(u.terms, lambda m: _canonical_image(spec, m)))


def filtration_min_degree(
    spec: AlgebraSpec, w: WeylOperator, cap: int = DEFAULT_SLICE_CAP
) -> int | None:
    """Least q with w in the image of the degree-<=q filtration level, or None.

    That image is spanned by the d^b o x^a whose key (b, a) has first degree
    |b| + :func:`_cover` of a at most q.  Peeling the top term x^a d^b of w
    against the normal form of d^b o x^a writes w in that basis, so q is the
    largest first degree among the keys used.  ``None`` means "not attained
    by degree cap"; raise ``cap`` to search further.  An operator on another
    number of variables than the algebra's is refused.
    """
    if w.n != spec.n:
        raise ValueError(f"operator has {w.n} variables, the algebra {spec.n}")
    rest, level = w, 0
    while rest and level <= cap:
        a, b = max(rest.terms, key=weyl_key)
        level = max(level, mi_abs(b) + _cover(spec, a))
        rest = rest - WeylOperator(w.n, leibniz(b, a)).scale(rest.terms[(a, b)])
    return level if level <= cap else None
