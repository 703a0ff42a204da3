"""Exact sparse linear algebra over the Gaussian rationals.

Vectors are dicts mapping hashable keys to nonzero
:class:`~nilzeta.scalars.GaussianRational` entries.  The whole exact layer
shares the arithmetic of such dicts:

* :func:`add_term` — the one place that adds to an entry and drops the key
  when the entry cancels; every accumulation of sums goes through it or
  through :func:`vec_add_scaled`;
* :func:`product_terms` — the one product kernel, on Gaussian-integer
  numerators over one common denominator per operand, the lcm of the d of
  the entries' reduced triples (a + b i) / d;
* :func:`map_terms` — the one linear-map kernel, next to it: a map given by
  Gaussian-integer images of single monomials (the reduction factors and the
  representation cache theirs), applied in ints over one common denominator;
  each output of either kernel is one triple, reduced by one gcd;
* :class:`Combination` — the base of every finite Q(i) combination of
  monomials in one space (enveloping-algebra elements, Weyl operators): the
  cleaning constructor, sums, differences, negation, scaling and equality.
  Subclasses add their space's name, constructors and product;
* :func:`commutator` — ``u*v - v*u`` for combinations of any one space.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Mapping, TypeVar

from .scalars import GaussianRational, ScalarLike

K = TypeVar("K", bound=Hashable)

Vector = dict
# Vector[K] = dict[K, GaussianRational]; plain dict at runtime.

# Entries kept by each bounded memo cache of the package: the per-monomial
# images of the linear maps, the product kernels' monomial rules, the index
# sets and each symbol key's least monomial.
IMAGE_CACHE_SIZE = 1 << 12


def add_term(target: dict, key: Hashable, value: GaussianRational) -> None:
    """In-place target[key] += value, dropping the key if it cancels.

    ``value`` must be nonzero: on a new key it is stored as it is.
    """
    old = target.get(key)
    if old is None:
        target[key] = value
        return
    new = old + value
    if new.is_zero():
        del target[key]
    else:
        target[key] = new


def vec_add_scaled(target: dict, source: Mapping, coeff: GaussianRational) -> None:
    """In-place target += coeff * source, dropping entries that cancel.

    ``source`` values may be GaussianRationals or ints.
    """
    if coeff.is_zero():
        return
    for key, value in source.items():
        add_term(target, key, coeff * value)


def vec_scale(vec: Mapping, coeff: GaussianRational | int) -> dict:
    if not coeff:
        return {}
    return {k: v * coeff for k, v in vec.items()}


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
        GaussianRational values only, such as :func:`product_terms` and
        :func:`add_term` leave."""
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
            add_term(out, mono, coeff)
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
        return self._of_clean(self.space, vec_scale(self.terms, coeff))

    def __rmul__(self, other: ScalarLike):
        return self.scale(other)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms


def commutator(u: Combination, v: Combination):
    """The commutator u*v - v*u of two combinations in one space."""
    return u * v - v * u
