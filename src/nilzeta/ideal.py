"""The two-sided kernel ideal of the representation and its degree slices.

Each ordered monomial m = X^p Y^q maps to ``c_m * d^p o x^gamma`` with
``gamma = sum q_beta * beta`` (:func:`~nilzeta.weyl.monomial_symbol`).  The
operators ``d^p o x^gamma`` are linearly independent: each normal form has
its own top term ``x^gamma d^p``.  So the key ``(p, gamma)`` decides all.  An
element lies in the ideal iff, on every key, its coefficients weighted by
``c_m`` sum to zero.  One ascending sweep classifies monomials: the first
monomial with a key is *independent*, and every later monomial m with that
key is *dependent*, with canonical form ``(c_m / c_first) * first``.

The classification yields, per degree,

* the dependent monomials ``T`` and independent monomials ``O``,
* a triangular basis of the ideal's slice (one element per dependent
  monomial, with unit leading coefficient and reduced tail),
* the canonical-form map sending any element to its unique representative
  supported on independent monomials.

Two distinguished generator families are provided; their images vanish
identically, which the verification suite checks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import AlgebraSpec, index_set
from .indices import MultiIndex, mi_abs, mi_factorial
from .linalg import IMAGE_CACHE_SIZE, add_term, vec_add_scaled
from .scalars import ONE, i_power
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


def generators(spec: AlgebraSpec) -> tuple[list[UEAElement], list[UEAElement]]:
    """Both generator families (star family, gamma family)."""
    return star_generators(spec), gamma_generators(spec)


def is_member(spec: AlgebraSpec, u: UEAElement) -> bool:
    """Exact ideal membership: the representation image vanishes.

    The image is the sum over keys of (sum of c_m * coeff_m) * d^p o x^gamma,
    so it vanishes iff every key's sum does.
    """
    if u.spec != spec:
        raise ValueError("element belongs to a different algebra")
    sums: dict = {}
    for mono, coeff in u.terms.items():
        key, c = monomial_symbol(spec, mono)
        add_term(sums, key, c * coeff)
    return not sums


# ---------------------------------------------------------------------------
# Degree slices
# ---------------------------------------------------------------------------


class _SliceState:
    """Incremental sweep state for one algebra (one per spec, see :func:`_state`)."""

    def __init__(self, spec: AlgebraSpec) -> None:
        self.spec = spec
        self.processed_degree = -1
        self.first: dict = {}  # key (p, gamma) -> (degree, first Monomial, 1 / its c)
        self.canonical: dict = {}  # dependent Monomial -> {first: c_m / c_first}
        self.t_by_degree: dict = {}
        self.o_by_degree: dict = {}

    def advance(self, degree: int) -> None:
        spec = self.spec
        while self.processed_degree < degree:
            d = self.processed_degree + 1
            t_list: list[Monomial] = []
            o_list: list[Monomial] = []
            for mono in slice_monomials(spec, d):
                key, c = monomial_symbol(spec, mono)
                hit = self.first.get(key)
                if hit is None:
                    self.first[key] = (d, mono, c.inverse())
                    o_list.append(mono)
                else:
                    self.canonical[mono] = {hit[1]: c * hit[2]}
                    t_list.append(mono)
            self.t_by_degree[d] = tuple(t_list)
            self.o_by_degree[d] = tuple(o_list)
            self.processed_degree = d


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _state(spec: AlgebraSpec) -> _SliceState:
    return _SliceState(spec)


@dataclass(frozen=True)
class DegreeSlice:
    """Classification of the exact-degree-d monomials of one algebra.

    ``dependent`` monomials admit smaller-monomial representatives modulo the
    ideal; ``independent`` monomials are a basis of the image slice.
    ``kernel`` is a triangular basis of the ideal's degree-d slice: one
    element per dependent monomial, unit leading coefficient, tail supported
    on independent monomials.
    """

    spec: AlgebraSpec
    degree: int
    monomials: tuple
    dependent: tuple
    independent: tuple
    kernel: tuple

    @property
    def dimension(self) -> int:
        """Dimension of the ideal's slice at this degree."""
        return len(self.dependent)


def build_slice(spec: AlgebraSpec, degree: int) -> DegreeSlice:
    """Classify the degree-d monomials (results cached incrementally)."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    st = _state(spec)
    st.advance(degree)
    monos = tuple(slice_monomials(spec, degree))
    t = st.t_by_degree[degree]
    o = st.o_by_degree[degree]
    kernel = tuple(
        UEAElement(spec, {m: ONE}) - UEAElement(spec, st.canonical[m]) for m in t
    )
    return DegreeSlice(spec, degree, monos, t, o, kernel)


def canonical_form(spec: AlgebraSpec, u: UEAElement) -> UEAElement:
    """The unique representative of u's coset supported on independent monomials.

    Exact projection along the ideal; idempotent, and the zero element is
    returned exactly when u lies in the ideal.
    """
    if u.is_zero():
        return u
    st = _state(spec)
    st.advance(u.degree())
    out: dict = {}
    for mono, coeff in u.terms.items():
        vec_add_scaled(out, st.canonical.get(mono, {mono: ONE}), coeff)
    return UEAElement(spec, out)


def filtration_min_degree(
    spec: AlgebraSpec, w: WeylOperator, cap: int = DEFAULT_SLICE_CAP
) -> int | None:
    """Least q with w in the image of the degree-<=q filtration level, or None.

    That image is spanned by the d^b o x^a whose key (b, a) some monomial of
    degree <= q reaches.  Peeling the top term x^a d^b of w against the
    normal form of d^b o x^a writes w in that basis, so q is the largest
    first degree among the keys used.  ``None`` means "not attained by
    degree cap"; raise ``cap`` to search further.
    """
    if w.is_zero():
        return 0
    st = _state(spec)
    st.advance(cap)
    rest = dict(w.terms)
    level = 0
    while rest:
        a, b = max(rest, key=weyl_key)
        hit = st.first.get((b, a))
        if hit is None or hit[0] > cap:
            return None
        level = max(level, hit[0])
        vec_add_scaled(rest, leibniz(b, a), -rest[(a, b)])
    return level
