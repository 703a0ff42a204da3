"""Exact arithmetic in the universal enveloping algebra.

Elements are finite Gaussian-rational combinations of ordered monomials
``X^p Y^q`` (all X factors left of all Y factors; the Y factors commute with
each other, the X factors commute with each other).  Products are rewritten
to this normal form with the single relation family

    Y^beta X_k = X_k Y^beta - Y^{beta - delta_k}   (when beta_k >= 1),

extended as a derivation over Y-products.  The push-through of a Y-monomial
past an X-monomial is memoized per algebra.

Monomial order
--------------
Total degree first; ties are broken by scanning the exponent vector over the
variable sequence ``X_1, .., X_n, Y^beta (beta ascending lex)`` and declaring
the monomial with the *larger* exponent at the first differing position the
*smaller* one.  Equivalently, the sort key is ``(degree, negated exponents)``
compared lexicographically.  Under this order ``X_1 < .. < X_n < Y^beta`` for
the degree-one monomials, and products concentrated on earlier variables are
smaller.  The leading term of an element is its largest monomial.

The correction operators :func:`gamma_all` act by products and ``ad(X_j)``;
:func:`gamma_apply` writes gamma_all(i * Y^beta) down in closed form.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Union

from .core import AlgebraSpec, index_set, y_position
from .indices import (
    MultiIndex,
    box,
    compositions,
    mi_abs,
    mi_add,
    mi_delta,
    mi_factorial,
    mi_sub,
)
from .linalg import IMAGE_CACHE_SIZE, Combination, map_terms, product_terms, scaled_image
from .scalars import ONE, ZERO, GaussianRational, ScalarLike, i_power


class Monomial(NamedTuple):
    """Ordered monomial X^x Y^y.

    ``x`` has one exponent per X generator; ``y`` has one exponent per
    multi-index of the algebra's index set, in ascending-lex order.
    """

    x: MultiIndex
    y: MultiIndex


def monomial_one(spec: AlgebraSpec) -> Monomial:
    return Monomial((0,) * spec.n, (0,) * len(index_set(spec)))


def monomial_degree(m: Monomial) -> int:
    return sum(m.x) + sum(m.y)


def monomial_key(m: Monomial):
    """Sort key realizing the order described in the module docstring."""
    return (monomial_degree(m), tuple(-e for e in m.x + m.y))


class UEAElement(Combination):
    """An element of the enveloping algebra of ``spec``.

    A :class:`~nilzeta.linalg.Combination` of ordered monomials whose space
    is the algebra spec (also available as ``spec``).  This class adds the
    generators, degree and leading-term helpers, and the normal-ordered
    product.  ``terms`` maps :class:`Monomial` to nonzero coefficients.
    """

    __slots__ = ()

    @property
    def spec(self) -> AlgebraSpec:
        return self.space

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, spec: AlgebraSpec) -> "UEAElement":
        return cls(spec)

    @classmethod
    def one(cls, spec: AlgebraSpec) -> "UEAElement":
        return cls(spec, {monomial_one(spec): ONE})

    @classmethod
    def x_gen(cls, spec: AlgebraSpec, k: int) -> "UEAElement":
        """The generator X_{k+1} (k is the 0-based position)."""
        if not 0 <= k < spec.n:
            raise ValueError(f"X position {k} out of range")
        m = Monomial(mi_delta(spec.n, k), (0,) * len(index_set(spec)))
        return cls(spec, {m: ONE})

    @classmethod
    def y_gen(cls, spec: AlgebraSpec, beta: MultiIndex) -> "UEAElement":
        """The generator Y^beta for beta in the algebra's index set."""
        pos = y_position(spec).get(tuple(beta))
        if pos is None:
            raise ValueError(f"{tuple(beta)} is not in the index set of {spec}")
        m = Monomial((0,) * spec.n, mi_delta(len(index_set(spec)), pos))
        return cls(spec, {m: ONE})

    @classmethod
    def monomial(cls, spec: AlgebraSpec, mono: Monomial, coeff: ScalarLike = 1) -> "UEAElement":
        return cls(spec, {mono: GaussianRational.coerce(coeff)})

    # -- structure -----------------------------------------------------------
    def degree(self) -> int:
        """Maximal monomial degree; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, GaussianRational]]:
        """Terms sorted by the monomial order, leading first."""
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]), reverse=True)

    def coefficient(self, mono: Monomial) -> GaussianRational:
        return self.terms.get(mono, ZERO)

    # -- arithmetic -----------------------------------------------------------
    def __mul__(self, other: Union["UEAElement", ScalarLike]) -> "UEAElement":
        if isinstance(other, UEAElement):
            return normal_product(self, other)
        return self.scale(other)

    def __repr__(self) -> str:
        return f"<UEAElement {self}>"

    def __str__(self) -> str:
        from .expr import format_element

        return format_element(self)


# ---------------------------------------------------------------------------
# Normal-form products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _lowering(spec: AlgebraSpec, k: int) -> tuple:
    """Per Y position, the position of Y^{beta - delta_k}; None where beta_k = 0."""
    pos_of, unit = y_position(spec), mi_delta(spec.n, k)
    return tuple(pos_of[mi_sub(beta, unit)] if beta[k] else None for beta in index_set(spec))


def _y_derivation(spec: AlgebraSpec, ys: dict, k: int) -> dict[MultiIndex, int]:
    """[X_k, .] on int-weighted Y-products {y: weight}, as a derivation.

    Each Y^beta factor with beta_k >= 1 in turn becomes Y^{beta-delta_k}.
    """
    lower = _lowering(spec, k)
    out: dict[MultiIndex, int] = {}
    for y, weight in ys.items():
        for pos, mult in enumerate(y):
            if mult and lower[pos] is not None:
                new = list(y)
                new[pos] -= 1
                new[lower[pos]] += 1
                out[tuple(new)] = out.get(tuple(new), 0) + weight * mult
    return out


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _push_y_through_x(
    spec: AlgebraSpec, y: MultiIndex, x: MultiIndex
) -> tuple[tuple[Monomial, int], ...]:
    """Normal form of the product Y^y * X^x as integer-weighted monomials.

    Right multiplication by X_k is left multiplication minus D_k = [X_k, .]
    (:func:`_y_derivation`), and the two commute, so Y X_k^m is
    sum_j C(m, j) (-1)^j X_k^(m-j) D_k^j(Y); D_k is nilpotent on Y-products.
    """
    if not any(x) or not any(y):
        return ((Monomial(x, y), 1),)
    k = next(pos for pos, e in enumerate(x) if e)
    m, rest = x[k], x[:k] + (0,) + x[k + 1:]
    acc: dict[Monomial, int] = {}
    layer, j = {y: 1}, 0  # D_k^j(Y^y)
    while layer and j <= m:
        for y2, c2 in layer.items():
            for mono, coeff in _push_y_through_x(spec, y2, rest):
                lifted = Monomial(mono.x[:k] + (m - j,) + mono.x[k + 1:], mono.y)
                acc[lifted] = acc.get(lifted, 0) + (-1) ** j * math.comb(m, j) * c2 * coeff
        layer, j = _y_derivation(spec, layer, k), j + 1
    return tuple((mono, c) for mono, c in acc.items() if c)


# Most work one normal-ordered product, or all the products of one parsed expression,
# may take (see :func:`_push_work`).  On heis, Y[1]^1413 * X1^1413 is the largest
# square admitted (it prints in about 0.6 s); Y[1]^1550 * X1^1550 would print a
# coefficient past the int-to-str limit.
MAX_PUSH_WORK = 2_000_000


def _push_work(u: UEAElement, v: UEAElement) -> tuple[int, int]:
    """The work of the product u * v, counted from exponents before any push, as
    (the Y products u's terms can turn into, the X-degree of v's terms).  A Y^beta
    only becomes one of the s = |box(beta)| Y^gamma with gamma <= beta, so c of them
    spread over C(c + s - 1, c) products.  A term whose Y part holds no Y^beta with
    beta != 0 (s > 1) passes any X part in one step, and counts nothing."""
    sizes = [math.prod(e + 1 for e in beta) for beta in index_set(u.spec)]
    products = sum(math.prod(math.comb(c + s - 1, c) for c, s in zip(m.y, sizes))
                   for m in u.terms if any(c and s > 1 for c, s in zip(m.y, sizes)))
    return products, sum(sum(m.x) for m in v.terms)


def normal_product(u: UEAElement, v: UEAElement) -> UEAElement:
    """The product of two elements, rewritten to ordered normal form; ValueError when
    it would take more than ``MAX_PUSH_WORK``."""
    u._require_same_space(v)
    spec = u.spec
    products, x_degree = _push_work(u, v)
    if products * x_degree > MAX_PUSH_WORK:
        raise ValueError(
            f"normal ordering would push {products} Y products past X-degree {x_degree}, "
            f"{products * x_degree} steps, more than {MAX_PUSH_WORK}"
        )

    def expand(m1: Monomial, m2: Monomial):
        for mid, weight in _push_y_through_x(spec, m1.y, m2.x):
            yield Monomial(mi_add(m1.x, mid.x), mi_add(mid.y, m2.y)), weight

    return UEAElement._of_clean(spec, product_terms(u.terms, v.terms, expand))


def ad_x(spec: AlgebraSpec, k: int, u: UEAElement) -> UEAElement:
    """[X_k, u], computed directly as a derivation on the Y part.

    For an ordered monomial, [X_k, X^p Y^q] = X^p [X_k, Y^q]; the X part
    commutes with X_k.
    """

    def image(mono: Monomial) -> tuple:
        rows = _y_derivation(spec, {mono.y: 1}, k).items()
        return scaled_image(ONE, ((Monomial(mono.x, y2), mult) for y2, mult in rows))

    return UEAElement._of_clean(spec, map_terms(u.terms, image))


# ---------------------------------------------------------------------------
# Distinguished elements and operators
# ---------------------------------------------------------------------------


def y_monomial(spec: AlgebraSpec, gamma: MultiIndex) -> Monomial:
    """The Y-monomial prod_k (Y^{delta_k})^{gamma_k} (a product of degree-1 Y's)."""
    L = len(index_set(spec))
    pos_of = y_position(spec)
    y = [0] * L
    for k, mult in enumerate(gamma):
        if mult:
            y[pos_of[mi_delta(spec.n, k)]] += mult
    return Monomial((0,) * spec.n, tuple(y))


def y_star(spec: AlgebraSpec, gamma: MultiIndex) -> UEAElement:
    """The element i^{1-|gamma|} * prod_k (Y^{delta_k})^{gamma_k}.

    For gamma = 0 this is i times the identity; for |gamma| = 1 it is the
    degree-one generator itself.
    """
    gamma = tuple(gamma)
    if len(gamma) != spec.n or any(e < 0 for e in gamma):
        raise ValueError(f"gamma must be a non-negative multi-index of length {spec.n}")
    coeff = i_power(1 - mi_abs(gamma))
    return UEAElement(spec, {y_monomial(spec, gamma): coeff})


def pure_y(spec: AlgebraSpec, beta: MultiIndex) -> UEAElement:
    """Shorthand for the basis generator Y^beta."""
    return UEAElement.y_gen(spec, beta)


def gamma_j(spec: AlgebraSpec, j: int, u: UEAElement) -> UEAElement:
    """The j-th correction operator sum_k (i^k / k!) (Y^{delta_j})^k ad(X_j)^k (u).

    The sum terminates because ad(X_j) strictly lowers the total Y weight.
    Operators for different j commute: their ad parts commute, and
    left-multiplication by Y^{delta_j} commutes with ad(X_i) for i != j.
    """
    result = UEAElement.zero(spec)
    current = u
    k = 0
    coeff = ONE
    y_step = UEAElement.y_gen(spec, mi_delta(spec.n, j))
    y_pow = UEAElement.one(spec)
    while not current.is_zero():
        result = result + normal_product(y_pow, current).scale(coeff)
        k += 1
        coeff = coeff * i_power(1) / k
        y_pow = normal_product(y_pow, y_step)
        current = ad_x(spec, j, current)
    return result


def gamma_all(spec: AlgebraSpec, u: UEAElement) -> UEAElement:
    """Composite of all gamma_j (order immaterial; applied ascending)."""
    out = u
    for j in range(spec.n):
        out = gamma_j(spec, j, out)
    return out


def gamma_apply(spec: AlgebraSpec, beta: MultiIndex) -> UEAElement:
    """gamma_all(i * Y^beta) in closed form, with no product.

    It is the sum over gamma <= beta of (i^{1+|gamma|} / gamma!) times the
    Y-monomial :func:`y_monomial` (gamma) with one more factor Y^{beta-gamma}
    (the Y's commute).  Two terms meet only when beta - gamma is a unit index,
    with the same phase, so none cancel and the sums need no zero check.
    """
    beta = tuple(beta)
    pos_of = y_position(spec)
    if beta not in pos_of:
        raise ValueError(f"{beta} is not in the index set")
    terms: dict[Monomial, GaussianRational] = {}
    for gamma in box(beta):
        mono = y_monomial(spec, gamma)
        y = list(mono.y)
        y[pos_of[mi_sub(beta, gamma)]] += 1
        coeff = i_power(1 + mi_abs(gamma)) / mi_factorial(gamma)
        key = Monomial(mono.x, tuple(y))
        terms[key] = terms.get(key, ZERO) + coeff
    return UEAElement._of_clean(spec, terms)


# ---------------------------------------------------------------------------
# Degree slices
# ---------------------------------------------------------------------------


def slice_monomials(spec: AlgebraSpec, degree: int) -> list[Monomial]:
    """All ordered monomials of exact total degree, ascending in the order."""
    n, L = spec.n, len(index_set(spec))
    out = [Monomial(comp[:n], comp[n:]) for comp in compositions(n + L, degree)]
    out.sort(key=monomial_key)
    return out


def monomials_up_to(spec: AlgebraSpec, degree: int) -> Iterator[Monomial]:
    """All ordered monomials of total degree <= degree, ascending."""
    for d in range(degree + 1):
        yield from slice_monomials(spec, d)

