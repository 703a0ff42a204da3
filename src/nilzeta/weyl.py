"""Polynomial differential operators with exact coefficients.

A Weyl operator in ``n`` variables is a finite combination of normally
ordered monomials ``x^a d^b`` (all multiplication operators left of all
derivatives), with Gaussian-rational coefficients.  Products are rewritten
with the Leibniz rule

    d^b x^a = sum over nu <= min(a, b) of C(b, nu) * a!/(a-nu)! * x^{a-nu} d^{b-nu}.

Powers are built by repeated multiplication, not by squaring: the bases are
sparse (``delta1`` has 3 to 5 terms), and for a sparse base that costs less
(Fateman, Stud. Appl. Math. 53 (1974) 145-155).

The module also hosts the defining representation of the enveloping algebra:

    rho(X_k)    = -d_k,
    rho(Y^beta) = i (-1)^{|beta|} x^beta / beta!,

a homomorphism onto polynomial differential operators, and the shifted
Laplace-type operator ``delta1`` = rho(1 - sum X_k^2 - sum (Y^beta)^2), written
down in closed form.  Its nonconstant terms fall into the partition blocks,
each acting on its own block's axes, so ``delta1_blocks`` gives it as the
exact constant 2 plus one operator per block: the split the spectral
cross-check solves as a Kronecker sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Union

from .core import AlgebraSpec, block_box, index_set
from .indices import (
    MultiIndex,
    box,
    mi_abs,
    mi_add,
    mi_binomial,
    mi_delta,
    mi_factorial,
    mi_falling,
    mi_sub,
)
from .linalg import IMAGE_CACHE_SIZE, Combination, commutator, map_terms, product_terms
from .linalg import scaled_image
from .scalars import ONE, ZERO, GaussianRational, ScalarLike
from .uea import Monomial, UEAElement

# A Weyl monomial is (a, b): multiply by x^a, then differentiate d^b.
WeylMonomial = tuple[MultiIndex, MultiIndex]


def weyl_key(mono: WeylMonomial):
    """Order key used for pivoting: total order first, then (a, b) lex."""
    a, b = mono
    return (mi_abs(a) + mi_abs(b), a, b)


class WeylOperator(Combination):
    """A normally ordered polynomial differential operator in ``n`` variables.

    A :class:`~nilzeta.linalg.Combination` of ``(a, b)`` exponent pairs
    (``x^a d^b``) whose space is the variable count (also available as
    ``n``).  This class adds the constructors, degree and order helpers,
    powers and the Leibniz-rule product.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.space

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "WeylOperator":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "WeylOperator":
        z = (0,) * n
        return cls(n, {(z, z): ONE})

    @classmethod
    def x_op(cls, n: int, k: int) -> "WeylOperator":
        z = (0,) * n
        return cls(n, {(mi_delta(n, k), z): ONE})

    @classmethod
    def d_op(cls, n: int, k: int) -> "WeylOperator":
        z = (0,) * n
        return cls(n, {(z, mi_delta(n, k)): ONE})

    @classmethod
    def monomial(
        cls, n: int, a: MultiIndex, b: MultiIndex, coeff: ScalarLike = 1
    ) -> "WeylOperator":
        return cls(n, {(tuple(a), tuple(b)): GaussianRational.coerce(coeff)})

    # -- structure -----------------------------------------------------------
    def total_degree(self) -> int:
        """Max of |a| + |b| over the support; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(mi_abs(a) + mi_abs(b) for a, b in self.terms)

    def coefficient(self, a: MultiIndex, b: MultiIndex) -> GaussianRational:
        return self.terms.get((tuple(a), tuple(b)), ZERO)

    def sorted_terms(self) -> list[tuple[WeylMonomial, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda kv: weyl_key(kv[0]))

    # -- arithmetic -----------------------------------------------------------
    def __mul__(self, other: Union["WeylOperator", ScalarLike]) -> "WeylOperator":
        if isinstance(other, WeylOperator):
            return weyl_product(self, other)
        return self.scale(other)

    def __pow__(self, exponent: int) -> "WeylOperator":
        """Repeated multiplication by the base (:func:`power_ladder`), which for a
        sparse base costs less than squaring the grown power (Fateman 1974)."""
        return power_ladder(self, exponent)[-1]

    def __repr__(self) -> str:
        if not self.terms:
            return "<WeylOperator 0>"
        return f"<WeylOperator {format_weyl(self)}>"


def format_weyl(w: WeylOperator) -> str:
    """Readable rendering, e.g. ``2 + x1^2 - d1^2``."""
    if w.is_zero():
        return "0"
    parts = []
    for (a, b), coeff in w.sorted_terms():
        factors = []
        for k, e in enumerate(a):
            if e:
                factors.append(f"x{k + 1}" + (f"^{e}" if e > 1 else ""))
        for k, e in enumerate(b):
            if e:
                factors.append(f"d{k + 1}" + (f"^{e}" if e > 1 else ""))
        body = "*".join(factors)
        cs = str(coeff)
        if body:
            piece = body if cs == "1" else (f"-{body}" if cs == "-1" else f"{cs}*{body}")
        else:
            piece = cs
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def leibniz(b: MultiIndex, a: MultiIndex) -> Mapping[WeylMonomial, int]:
    """Normal form of d^b x^a as a read-only map (x-exponent, d-exponent) -> int weight.

    The first entry is ``(a, b): 1``; every other term has lower total degree.
    """
    cap = tuple(min(e, f) for e, f in zip(b, a))
    out = {}
    for nu in box(cap):
        weight = mi_binomial(b, nu) * mi_falling(a, nu)
        if weight:
            out[(mi_sub(a, nu), mi_sub(b, nu))] = weight
    return MappingProxyType(out)


def weyl_product(u: WeylOperator, v: WeylOperator) -> WeylOperator:
    """Composition u then-acting-after v, i.e. (u*v)(f) = u(v(f))."""
    u._require_same_space(v)

    def expand(m1: WeylMonomial, m2: WeylMonomial):
        (a1, b1), (a2, b2) = m1, m2
        for (mid_a, mid_b), weight in leibniz(b1, a2).items():
            yield (mi_add(a1, mid_a), mi_add(mid_b, b2)), weight

    return WeylOperator._of_clean(u.n, product_terms(u.terms, v.terms, expand))


# ---------------------------------------------------------------------------
# The representation
# ---------------------------------------------------------------------------


# i**k for k mod 4, as (real, imaginary) ints.
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def monomial_symbol(
    spec: AlgebraSpec, mono: Monomial
) -> tuple[tuple[MultiIndex, MultiIndex], GaussianRational]:
    """The key ``(p, gamma)`` and scalar c with rho(X^p Y^q) = c * d^p o x^gamma.

    ``gamma = sum q_beta * beta`` and
    ``c = (-1)^{|p| + |gamma|} i^{|q|} / prod_beta (beta!)^{q_beta}``,
    built from integers: one power of i, one sign, one denominator.
    """
    gamma = [0] * spec.n
    denom = 1
    for beta, mult in zip(index_set(spec), mono.y):
        if mult:
            denom *= mi_factorial(beta) ** mult
            for k, e in enumerate(beta):
                gamma[k] += e * mult
    re, im = _UNITS[(sum(mono.y) + 2 * (sum(mono.x) + sum(gamma))) % 4]
    return (mono.x, tuple(gamma)), GaussianRational._of_ints(re, im, denom)


def rho(spec: AlgebraSpec, u: UEAElement) -> WeylOperator:
    """The defining representation: an exact algebra homomorphism.

    Each ordered monomial maps to ``c * d^p o x^gamma`` (see
    :func:`monomial_symbol`), normally ordered by the Leibniz rule; these
    images are cached per monomial and applied by :func:`~nilzeta.linalg.map_terms`.
    """
    if u.spec != spec:
        raise ValueError("element belongs to a different algebra")
    return WeylOperator._of_clean(spec.n, map_terms(u.terms, lambda m: _rho_image(spec, m)))


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _rho_image(spec: AlgebraSpec, mono: Monomial) -> tuple:
    """rho of one monomial as a :func:`~nilzeta.linalg.map_terms` image."""
    (p, gamma), c = monomial_symbol(spec, mono)
    return scaled_image(c, leibniz(p, gamma).items())


def p_op(n: int, k: int) -> WeylOperator:
    """The momentum-side canonical operator -d_k (the image of X_{k+1})."""
    return -WeylOperator.d_op(n, k)


def q_op(n: int, k: int) -> WeylOperator:
    """The position-side canonical operator -x_k (the image of -i * Y^{delta_k}).

    With this rescaled partner, [p_op, q_op] = 1 exactly.
    """
    return -WeylOperator.x_op(n, k)


def _on_block(block: tuple, a: MultiIndex, b: MultiIndex) -> tuple[MultiIndex, MultiIndex]:
    """The exponents ``(a, b)`` of ``x^a d^b`` restricted to one block's axes, in
    ascending order: the axes a block operator of :func:`delta1_blocks` acts on."""
    return tuple(a[i] for i in block), tuple(b[i] for i in block)


def _delta1_terms(spec: AlgebraSpec) -> tuple[Fraction, list[dict]]:
    """delta1's constant 2, which collects rho(1) = 1 and the beta = 0 square,
    and per partition block its terms on all n axes: -d_k^2 for each axis k of
    the block, in axis order, then x^{2 beta} / (beta!)^2 for each nonzero beta
    of the block's box, ascending lex.  Each nonzero beta lies in one box."""
    zero, blocks = (0,) * spec.n, []
    for j, block in enumerate(spec.partition):
        terms = {(zero, tuple(2 * e for e in mi_delta(spec.n, k))): -ONE for k in block}
        for beta in filter(any, block_box(spec, j)):
            square = GaussianRational._of_ints(1, 0, mi_factorial(beta) ** 2)
            terms[(tuple(2 * e for e in beta), zero)] = square
        blocks.append(terms)
    return Fraction(2), blocks


def delta1_blocks(spec: AlgebraSpec) -> tuple[Fraction, list[WeylOperator]]:
    """:func:`delta1` as its exact constant plus one operator per partition
    block, on that block's axes (:func:`_on_block`).  The block operators act
    on disjoint axes, so delta1 is the constant plus their Kronecker sum."""
    const, blocks = _delta1_terms(spec)
    return const, [
        WeylOperator._of_clean(len(block), {_on_block(block, *ab): c for ab, c in terms.items()})
        for block, terms in zip(spec.partition, blocks)
    ]


def delta1(spec: AlgebraSpec) -> WeylOperator:
    """rho(1 - sum_k X_k^2 - sum_beta (Y^beta)^2): a Schroedinger-type operator.

    Closed form (:func:`_delta1_terms`):
    2 - sum_k d_k^2 + sum_{beta != 0} x^{2 beta} / (beta!)^2.
    """
    const, blocks = _delta1_terms(spec)
    zero = (0,) * spec.n
    terms = {(zero, zero): GaussianRational(const)}
    for block_terms in blocks:
        terms.update(block_terms)
    return WeylOperator._of_clean(spec.n, terms)


# ---------------------------------------------------------------------------
# Iterated commutators
# ---------------------------------------------------------------------------


def power_ladder(d: WeylOperator, top: int) -> list[WeylOperator]:
    """``[1, d, d^2, .., d^top]``, each entry one product of the last by d."""
    if not isinstance(top, int) or top < 0:
        raise ValueError("exponent must be a non-negative int")
    out = [WeylOperator.one(d.n)]
    for _ in range(top):
        out.append(weyl_product(out[-1], d))
    return out


def ad_chain(d: WeylOperator, x: WeylOperator, top: int) -> list[WeylOperator]:
    """``[x, [d, x], [d, [d, x]], ..]`` up to the top-fold iterated commutator."""
    if top < 0:
        raise ValueError("commutator depth must be non-negative")
    out = [x]
    for _ in range(top):
        out.append(commutator(d, out[-1]))
    return out


def ad_power(d: WeylOperator, x: WeylOperator, k: int) -> WeylOperator:
    """The k-fold iterated commutator [d, [d, .. [d, x]..]] (k >= 0)."""
    return ad_chain(d, x, k)[-1]


def commutator_power_check(d: WeylOperator, x: WeylOperator, i: int) -> WeylOperator:
    """Residual of the exact power-commutation identity.

    Returns [d^i, x] - sum_{k=1..i} C(i,k) ad_power(d,x,k) d^{i-k}; the zero
    operator certifies the identity; powers and ad terms come from one ladder
    and one chain."""
    powers, ads = power_ladder(d, i), ad_chain(d, x, i)
    rhs = WeylOperator.zero(d.n)
    for k in range(1, i + 1):
        rhs = rhs + weyl_product(ads[k], powers[i - k]).scale(math.comb(i, k))
    return commutator(powers[i], x) - rhs
