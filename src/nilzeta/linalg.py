"""Exact sparse linear algebra over the Gaussian rationals.

Vectors are dicts mapping hashable keys to nonzero
:class:`~nilzeta.scalars.GaussianRational` entries.  The whole exact layer
shares the arithmetic of such dicts:

* :class:`Combination` — the one sparse Q(i) container, for every finite
  combination of monomials in one space (enveloping-algebra elements, Weyl
  operators, Lie elements, polynomials keyed by power): the cleaning
  constructor, sums, differences, negation, scaling and equality; its sums
  drop each entry that cancels.  Subclasses add constructors and a product;
* :func:`product_terms` — the one product kernel, on Gaussian-integer
  numerators over one common denominator per operand, the lcm of the d of
  the entries' reduced triples (a + b i) / d;
* :func:`map_terms` — the one linear-map kernel, next to it: a map given by
  Gaussian-integer images of single monomials (:func:`scaled_image`; the
  representation, the ideal's key sums and canonical forms, ``ad(X_k)`` and
  the reduction factors), applied in ints over one common denominator;
  each output of either kernel is one triple, reduced by one gcd;
* :func:`commutator` — ``u*v - v*u`` for combinations of any one space.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Mapping

from .scalars import GaussianRational, ScalarLike

# Entries kept by each bounded memo cache of the package: the per-monomial
# images of the linear maps, the product kernels' monomial rules, the index
# sets and each symbol key's least monomial.
IMAGE_CACHE_SIZE = 1 << 12


def _numerators(terms: Mapping) -> tuple[int, list]:
    """A common denominator d of ``terms`` and their (key, d * re, d * im) int triples."""
    den = math.lcm(*(c._d for c in terms.values()))
    return den, [(k, c._a * q, c._b * q) for k, c in terms.items() for q in [den // c._d]]


def product_terms(u_terms: Mapping, v_terms: Mapping, expand: Callable) -> dict:
    """The terms of a product; ``expand(m1, m2)`` yields the (monomial, int weight)
    pairs of a product of two monomials.  Numerators over each operand's common
    denominator multiply and add as ints; each output is normalised once."""
    (du, us), (dv, vs) = _numerators(u_terms), _numerators(v_terms)
    acc: dict = {}
    for m1, r1, i1 in us:
        for m2, r2, i2 in vs:
            re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            for mono, weight in expand(m1, m2):
                slot = acc.setdefault(mono, [0, 0])
                slot[0] += re * weight
                slot[1] += im * weight
    return _normalised(acc, du * dv)


def map_terms(terms: Mapping, image: Callable) -> dict:
    """The terms of a linear map applied to ``terms``; ``image(m)`` returns the
    image of one monomial as ``(den, ((mono, re, im), ...))``, int numerators over
    den (a monomial may repeat).  Each image's numerators are brought to the lcm
    of the image denominators and added as ints; each output is normalised once."""
    dt, ts = _numerators(terms)
    images = [(image(m), r, i) for m, r, i in ts]
    den = math.lcm(*(d for (d, _), _, _ in images))
    acc: dict = {}
    for (d, rows), r, i in images:
        r, i = r * (den // d), i * (den // d)
        for mono, re, im in rows:
            slot = acc.setdefault(mono, [0, 0])
            slot[0] += r * re - i * im
            slot[1] += r * im + i * re
    return _normalised(acc, den * dt)


def scaled_image(coeff: GaussianRational, rows: Iterable) -> tuple:
    """``coeff`` times the int-weighted monomials ``rows``, ``(mono, weight)``
    pairs, as one :func:`map_terms` image."""
    a, b = coeff._a, coeff._b
    return coeff._d, tuple([(mono, a * w, b * w) for mono, w in rows])


def _normalised(acc: dict, den: int) -> dict:
    """Int numerator pairs over ``den`` as GaussianRationals, cancelled ones dropped."""
    make = GaussianRational._of_ints
    return {m: make(re, im, den) for m, (re, im) in acc.items() if re or im}


class Combination:
    """A finite Gaussian-rational combination of monomials in one space.

    Treated as an immutable value; all arithmetic returns new objects of the
    same subclass.  ``terms`` maps monomials to nonzero coefficients;
    ``space`` identifies where the monomials live, and only combinations of
    the same space may be added or multiplied.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: Hashable, terms: Mapping | None = None) -> None:
        self.space = space
        clean: dict = {}
        if terms:
            for mono, coeff in terms.items():
                c = GaussianRational.coerce(coeff)
                if not c.is_zero():
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def _of_clean(cls, space: Hashable, terms: dict):
        """Wrap ``terms`` as it is: a dict the caller built with nonzero
        GaussianRational values only, such as the kernels leave."""
        out = object.__new__(cls)
        out.space = space
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _require_same_space(self, other: "Combination") -> None:
        if self.space != other.space:
            raise ValueError(f"{type(self).__name__} operands belong to different spaces")

    def __add__(self, other: "Combination"):
        self._require_same_space(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            old = out.get(mono)
            if old is None:
                out[mono] = coeff
            elif (new := old + coeff):
                out[mono] = new
            else:
                del out[mono]
        return self._of_clean(self.space, out)

    def __sub__(self, other: "Combination"):
        self._require_same_space(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            old = out.get(mono)
            if old is None:
                out[mono] = -coeff
            elif old == coeff:
                del out[mono]
            else:
                out[mono] = old - coeff
        return self._of_clean(self.space, out)

    def __neg__(self):
        return self._of_clean(self.space, {m: -c for m, c in self.terms.items()})

    def scale(self, coeff: ScalarLike):
        if type(coeff) is not int:
            coeff = GaussianRational.coerce(coeff)
        if not coeff:
            return self._of_clean(self.space, {})
        return self._of_clean(self.space, {m: c * coeff for m, c in self.terms.items()})

    def __rmul__(self, other: ScalarLike):
        return self.scale(other)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms


def commutator(u: Combination, v: Combination):
    """The commutator u*v - v*u of two combinations in one space."""
    return u * v - v * u
