"""Shared fixtures and oracle helpers for the test suite.

The six standard algebras exercised everywhere:

====================  ===  ========  ================
name                   n   alpha     partition
====================  ===  ========  ================
``heis``               1   (1,)      {{1}}
``quad``               1   (2,)      {{1}}
``cubic``              1   (3,)      {{1}}
``pair_split``         2   (1, 1)    {{1}, {2}}
``pair_joint``         2   (1, 1)    {{1, 2}}
``mixed``              2   (1, 2)    {{1}, {2}}
====================  ===  ========  ================

``laplace_element`` is the negated quadratic sum -(sum X_k^2 + sum (Y^beta)^2)
built by PBW products, from which the library once took
``delta1 = rho(1 + laplace_element)``; it checks the closed form of
:func:`~nilzeta.weyl.delta1` and its block split.  ``leading_term`` is an
element's largest monomial by ``monomial_key`` with its coefficient.

``hat_y`` is the rescaled partner -i * Y^{delta_k} of X_k, whose image under
the representation is the position-side operator; the first-order oracles
build their literal commutators from it.

``apply_weyl`` turns a :class:`~nilzeta.weyl.WeylOperator` into its action on
a sympy polynomial; it is an independent route used to cross-check the
symbolic composition rules against actual differentiation.

``taylor_h_ab_by_commutators`` builds the Taylor-style h operator from its
definition, sum_i a_i [-Q_i, P_i w] + b_i [P_i, Q_i w], by Weyl products and
commutators; it checks the library's closed-form images.

``first_monomials`` is the ascending sweep: the least monomial of each
symbol key, found by walking every monomial in order.  It checks the
library's closed form on the algebras ``algebra_specs`` generates (n <= 3,
alpha <= 3, joint and singleton blocks).

``kernel_basis`` is the exact nullspace of a sparse matrix by Gauss-Jordan
elimination; ``isotropic_by_pairing`` runs it on the pairing matrix
(v, w) -> f([v, w]), where f reads off Y^0, and ``lower_central_length``
walks the lower central series on symbol sets.  They check the closed forms
of :func:`~nilzeta.core.isotropic_subalgebra` and
:func:`~nilzeta.core.nilpotency_class`.

``factor_constants_by_enumeration`` is the table of every reduction factor's
weight vector b and root, enumerated; ``physical_abscissa_by_enumeration``
takes the largest full-order root from it.  They check the closed forms
behind :func:`~nilzeta.reduction.physical_abscissa` and
:func:`~nilzeta.reduction.reduction_data`.

``filtration_by_peeling`` is the image filtration degree by the peeling loop
:func:`~nilzeta.ideal.filtration_min_degree` once ran: the top term's normal
form subtracted until nothing is left; it checks the closed form.

``slice_kernel`` is the triangular basis of the ideal's degree slice that
:func:`~nilzeta.ideal.build_slice` used to carry: one element per dependent
monomial, the monomial minus its canonical form.

``add_term``, ``vec_add_scaled`` and ``vec_scale`` are the per-term dict
arithmetic the exact layer used before every sum went through
:class:`~nilzeta.linalg.Combination` and the int kernels; the reference
products and the elimination oracles below accumulate with them.
``DensePolynomial`` is the dense Fraction-list polynomial that
:class:`~nilzeta.reduction.RationalPolynomial` replaced; it checks the
sparse one term by term, ``repr`` included.

``PairGaussian`` is the reference Q(i) arithmetic on a pair of
``fractions.Fraction`` parts; it checks the reduced integer triples of
:class:`~nilzeta.scalars.GaussianRational`, its printed forms included.

``reduce_against`` (over Q(i), reporting the pivot multiples it used), its
fraction-free twin ``reduce_fraction_free`` (over Z[i], by cross-multiplication)
and ``generated_span_leading`` are the elimination oracle: they span the ideal
generated by an explicit generator set by row reduction, independently of the
library's symbol classification.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence, Union

import pytest
import sympy
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from nilzeta import AlgebraSpec, GaussianRational, WeylOperator, algebra_spec
from nilzeta.core import Symbol, basis, bracket, index_set
from nilzeta.indices import mi_abs, mi_delta
from nilzeta.ideal import DEFAULT_SLICE_CAP, _cover, build_slice, canonical_form
from nilzeta.reduction import reduction_factors
from nilzeta.scalars import ONE, ZERO, Rat, RationalLike, as_rational, format_rational
from nilzeta.linalg import _numerators, commutator
from nilzeta.uea import (
    Monomial,
    UEAElement,
    monomial_degree,
    monomial_key,
    monomials_up_to,
    pure_y,
)
from nilzeta.weyl import leibniz, monomial_symbol, p_op, q_op, weyl_key, weyl_product

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


SPEC_PARAMS = {
    "heis": (1, (1,), None),
    "quad": (1, (2,), None),
    "cubic": (1, (3,), None),
    "pair_split": (2, (1, 1), [[0], [1]]),
    "pair_joint": (2, (1, 1), [[0, 1]]),
    "mixed": (2, (1, 2), [[0], [1]]),
}


def make_spec(name: str) -> AlgebraSpec:
    n, alpha, partition = SPEC_PARAMS[name]
    return algebra_spec(n, alpha, partition)


@pytest.fixture(scope="session")
def heis() -> AlgebraSpec:
    return make_spec("heis")


@pytest.fixture(scope="session")
def quad() -> AlgebraSpec:
    return make_spec("quad")


@pytest.fixture(scope="session")
def cubic() -> AlgebraSpec:
    return make_spec("cubic")


@pytest.fixture(scope="session")
def pair_split() -> AlgebraSpec:
    return make_spec("pair_split")


@pytest.fixture(scope="session")
def pair_joint() -> AlgebraSpec:
    return make_spec("pair_joint")


@pytest.fixture(scope="session")
def mixed() -> AlgebraSpec:
    return make_spec("mixed")


@pytest.fixture(scope="session")
def all_specs() -> dict[str, AlgebraSpec]:
    return {name: make_spec(name) for name in SPEC_PARAMS}


@st.composite
def algebra_specs(draw) -> AlgebraSpec:
    """Algebras with n <= 3 and alpha <= 3, generators grouped into random blocks."""
    n = draw(st.integers(1, 3))
    alpha = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: dict[int, list[int]] = {}
    for k, label in enumerate(labels):
        blocks.setdefault(label, []).append(k)
    return algebra_spec(n, alpha, list(blocks.values()))


@pytest.fixture()
def spec_file(tmp_path):
    """Factory writing an algebra description JSON file; returns its path."""

    def write(spec: AlgebraSpec) -> str:
        path = tmp_path / f"spec_{spec.n}_{'_'.join(map(str, spec.alpha))}.json"
        path.write_text(json.dumps(spec.to_json_dict()) + "\n", encoding="utf-8")
        return str(path)

    return write


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


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


class DensePolynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RationalLike]) -> None:
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_roots(cls, roots: Sequence[RationalLike], leading: RationalLike = 1) -> "DensePolynomial":
        out = cls([leading])
        for r in roots:
            out = out * cls([-as_rational(r), 1])
        return out

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "DensePolynomial") -> "DensePolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return DensePolynomial(out)

    def __sub__(self, other: "DensePolynomial") -> "DensePolynomial":
        return self + (-other)

    def __neg__(self) -> "DensePolynomial":
        return DensePolynomial([-c for c in self.coeffs])

    def __mul__(self, other: Union["DensePolynomial", int]) -> "DensePolynomial":
        if isinstance(other, DensePolynomial):
            if self.is_zero() or other.is_zero():
                return DensePolynomial([])
            out = [Rat(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return DensePolynomial(out)
        return self.scale(other)

    def scale(self, c: RationalLike) -> "DensePolynomial":
        c = as_rational(c)
        return DensePolynomial([c * a for a in self.coeffs])

    def __call__(self, z: RationalLike) -> "Rat":
        z = as_rational(z)
        acc = Rat(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def compose_affine(self, r: RationalLike, q: RationalLike) -> "DensePolynomial":
        """The polynomial z -> self(r*z + q)."""
        inner = DensePolynomial([q, r])
        acc = DensePolynomial([])
        for c in reversed(self.coeffs):
            acc = acc * inner + DensePolynomial([c])
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RationalPolynomial(0)"
        body = " + ".join(
            f"{format_rational(c)}*z^{k}" if k else format_rational(c)
            for k, c in enumerate(self.coeffs)
        )
        return f"RationalPolynomial({body})"


def slice_kernel(spec: AlgebraSpec, degree: int) -> tuple:
    """A triangular basis of the ideal's degree-d slice: for each dependent
    monomial m, in slice order, m minus its canonical form (unit leading
    coefficient, tail supported on independent monomials)."""
    out = []
    for mono in build_slice(spec, degree).dependent:
        u = UEAElement.monomial(spec, mono)
        out.append(u - canonical_form(spec, u))
    return tuple(out)


def filtration_by_peeling(
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


class PairGaussian:
    """An element re + im*i of Q(i) held as two Fractions, with the arithmetic,
    equality and printed forms the package's scalar must reproduce."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0) -> None:
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o: "PairGaussian") -> "PairGaussian":
        return PairGaussian(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "PairGaussian") -> "PairGaussian":
        return PairGaussian(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "PairGaussian":
        return PairGaussian(-self.re, -self.im)

    def __mul__(self, o: "PairGaussian") -> "PairGaussian":
        return PairGaussian(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def inverse(self) -> "PairGaussian":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return PairGaussian(self.re / norm, -self.im / norm)

    def __truediv__(self, o: "PairGaussian") -> "PairGaussian":
        return self * o.inverse()

    def __pow__(self, k: int) -> "PairGaussian":
        base = self.inverse() if k < 0 else self
        out = PairGaussian(1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def conjugate(self) -> "PairGaussian":
        return PairGaussian(self.re, -self.im)

    def __eq__(self, o: object) -> bool:
        return isinstance(o, PairGaussian) and (self.re, self.im) == (o.re, o.im)

    def __repr__(self) -> str:
        return f"GaussianRational({format_rational(self.re)!r}, {format_rational(self.im)!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        imag = {1: "i", -1: "-i"}.get(self.im, f"{format_rational(self.im)}i")
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{imag.lstrip('-')}"

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}


def gaussian_to_sympy(c: GaussianRational):
    return sympy.Rational(str(c.re)) + sympy.I * sympy.Rational(str(c.im))


def apply_weyl(w: WeylOperator, poly, xs):
    """Apply a normal-ordered operator to a sympy polynomial.

    Each term x^a d^b acts as: differentiate b times, then multiply by x^a.
    """
    result = sympy.Integer(0)
    for (a, b), coeff in w.sorted_terms():
        term = poly
        for k, order in enumerate(b):
            if order:
                term = sympy.diff(term, xs[k], order)
        for k, power in enumerate(a):
            if power:
                term = term * xs[k] ** power
        result = result + gaussian_to_sympy(coeff) * term
    return sympy.expand(result)


def taylor_h_ab_by_commutators(
    n: int, a: Sequence, b: Sequence, w: WeylOperator
) -> WeylOperator:
    """sum_i a_i [-Q_i, P_i w] + b_i [P_i, Q_i w] over (P_i, Q_i) = (-d_i, -x_i)."""
    av, bv = ([GaussianRational.coerce(c) for c in v] for v in (a, b))
    out = WeylOperator.zero(n)
    for i in range(n):
        pi, qi = p_op(n, i), q_op(n, i)
        if not av[i].is_zero():
            out = out + commutator(-qi, weyl_product(pi, w)).scale(av[i])
        if not bv[i].is_zero():
            out = out + commutator(pi, weyl_product(qi, w)).scale(bv[i])
    return out


def laplace_element(spec: AlgebraSpec) -> UEAElement:
    """The negated quadratic sum -(sum X_k^2 + sum_beta (Y^beta)^2), by PBW products."""
    total = UEAElement.zero(spec)
    for k in range(spec.n):
        xk = UEAElement.x_gen(spec, k)
        total = total + xk * xk
    for beta in index_set(spec):
        yb = UEAElement.y_gen(spec, beta)
        total = total + yb * yb
    return -total


def leading_term(u: UEAElement) -> tuple[Monomial, GaussianRational]:
    """The largest monomial of u by ``monomial_key`` and its coefficient;
    ValueError on the zero element."""
    mono = max(u.terms, key=monomial_key)
    return mono, u.terms[mono]


def hat_y(spec: AlgebraSpec, k: int) -> UEAElement:
    """The rescaled degree-one partner -i * Y^{delta_k}."""
    return pure_y(spec, mi_delta(spec.n, k)).scale(GaussianRational(0, -1))


def monomial_mul_commuting(m1: Monomial, m2: Monomial) -> Monomial:
    """Exponentwise product; the normal form when no Y of m1 must pass an X of m2."""
    return Monomial(
        tuple(a + b for a, b in zip(m1.x, m2.x)),
        tuple(a + b for a, b in zip(m1.y, m2.y)),
    )


def random_element(spec: AlgebraSpec, rng, max_degree: int = 2, terms: int = 3) -> UEAElement:
    """A small random element with Gaussian-integer coefficients."""
    monos = list(monomials_up_to(spec, max_degree))
    picked = rng.sample(monos, min(terms, len(monos)))
    out = UEAElement.zero(spec)
    for m in picked:
        coeff = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        out = out + UEAElement.monomial(spec, m, coeff)
    return out


def first_monomials(spec: AlgebraSpec, degree: int) -> dict:
    """The least monomial of each symbol key (p, gamma) reached by degree <= ``degree``.

    The ascending sweep: walk the monomials in ``monomial_key`` order and keep
    the first one seen per key of rho(X^p Y^q) = c * d^p o x^gamma.
    """
    first: dict = {}
    for mono in monomials_up_to(spec, degree):
        first.setdefault(monomial_symbol(spec, mono)[0], mono)
    return first


def monomial_compare(m1: Monomial, m2: Monomial) -> int:
    """-1, 0, or +1 as m1 is smaller than, equal to, or larger than m2."""
    k1, k2 = monomial_key(m1), monomial_key(m2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


def leading_monomial_divides(m1: Monomial, m2: Monomial) -> bool:
    """Componentwise divisibility of ordered monomials (x and y exponents)."""
    return all(a <= b for a, b in zip(m1.x, m2.x)) and all(
        a <= b for a, b in zip(m1.y, m2.y)
    )


def reduce_against(
    vec: Mapping,
    pivots: Mapping,
    key_order: Callable,
) -> tuple[dict, dict]:
    """Reduce ``vec`` against pivot rows.

    ``pivots`` maps a column key to a row normalized to have coefficient 1 at
    that key; the row's other support may include further pivot keys, which is
    handled by repeated elimination at the largest remaining pivot key under
    ``key_order``.  Terminates because each elimination step removes the
    largest pivot key present and pivot rows only contain keys <= their own
    leading key under ``key_order``.

    Returns ``(residual, used)`` where ``used`` maps pivot keys to the
    coefficients subtracted, i.e. ``vec == residual + sum(used[k] * pivots[k])``.
    """
    residual = dict(vec)
    used: dict = {}
    while True:
        hits = [k for k in residual if k in pivots]
        if not hits:
            return residual, used
        top = max(hits, key=key_order)
        coeff = residual[top]
        vec_add_scaled(residual, pivots[top], -coeff)
        used[top] = used.get(top, GaussianRational(0)) + coeff


def _primitive(row: dict) -> dict:
    """A Gaussian-integer row divided by its integer content."""
    content = math.gcd(*(p for pair in row.values() for p in pair))
    if content == 1:
        return row
    return {m: (re // content, im // content) for m, (re, im) in row.items()}


def reduce_fraction_free(vec: dict, pivots: Mapping, key_order: Callable) -> dict:
    """:func:`reduce_against` over Z[i], without division.

    ``vec`` and the rows of ``pivots`` map keys to (re, im) int pairs; a row
    leads at its own key with any nonzero coefficient p.  Each step replaces
    the residual r, whose coefficient at the largest pivot key present is c,
    by the primitive part of p*r - c*row (cross-multiplication, as in
    Bareiss's fraction-free elimination).  The result is a nonzero multiple
    of the residual :func:`reduce_against` leaves, so it has the same support.
    """
    residual = vec
    while True:
        hits = [k for k in residual if k in pivots]
        if not hits:
            return residual
        top = max(hits, key=key_order)
        row = pivots[top]
        (pr, pi), (cr, ci) = row[top], residual[top]
        out = {k: (pr * vr - pi * vi, pr * vi + pi * vr) for k, (vr, vi) in residual.items()}
        for k, (rr, ri) in row.items():
            re, im = out.get(k, (0, 0))
            out[k] = (re - cr * rr + ci * ri, im - cr * ri - ci * rr)
        residual = _primitive({k: v for k, v in out.items() if v != (0, 0)})


def generated_span_leading(
    spec: AlgebraSpec,
    gens: Sequence[UEAElement],
    degree: int,
    margin: int | None = None,
) -> tuple[int, frozenset]:
    """Dimension and leading-monomial set of the generated ideal's degree cut.

    Spans all products m1 * g * m2 (ordered monomials m1, m2; g in ``gens``)
    of total degree <= degree + margin, row-reduces them in the graded order,
    and keeps the triangular rows whose leading monomial has degree <= degree:
    for a graded order those rows are exactly a basis of the intersection
    of the span with U_degree.
    The margin matters: a generator's top-degree part may cancel in a
    combination, leaving an element of lower degree than any single product
    (the correction-operator generators carry a Y^0 factor one degree above
    the star generators they recombine into, iterated along a block); the
    default margin max(2, max(alpha)) is sufficient for both families.
    Returns (dimension, frozenset of leading monomials of the kept rows).
    """
    budget = degree + (max(2, max(spec.alpha)) if margin is None else margin)
    key = functools.cache(monomial_key)
    pivots: dict = {}
    for g in gens:
        if g.is_zero():
            continue
        gdeg = g.degree()
        if gdeg > budget:
            continue
        room = budget - gdeg
        for m1 in monomials_up_to(spec, room):
            d1 = monomial_degree(m1)
            lhs = UEAElement.monomial(spec, m1) * g
            for m2 in monomials_up_to(spec, room - d1):
                prod = lhs * UEAElement.monomial(spec, m2)
                if prod.is_zero():
                    continue
                _, nums = _numerators(prod.terms)
                vec = _primitive({m: (re, im) for m, re, im in nums})
                residual = reduce_fraction_free(vec, pivots, key)
                if residual:
                    pivots[max(residual, key=key)] = residual
    kept = frozenset(m for m in pivots if monomial_degree(m) <= degree)
    return len(kept), kept


def kernel_basis(
    rows: Iterable[Mapping],
    columns: Sequence,
) -> list[dict]:
    """Basis of {v : for every row r, sum_c r[c] * v[c] == 0}.

    ``columns`` fixes the variable order; pivot columns are chosen in that
    order.  Returned vectors are exact, one per free column, each normalized
    so the free column's entry is 1.
    """
    col_pos = {c: k for k, c in enumerate(columns)}
    work: list[dict] = []
    for row in rows:
        r = {c: v for c, v in row.items() if not v.is_zero()}
        if r:
            work.append(r)

    pivot_of_col: dict = {}
    echelon: list[tuple[object, dict]] = []
    for row in work:
        r = dict(row)
        for col, prow in echelon:
            if col in r:
                vec_add_scaled(r, prow, -r[col])
        if not r:
            continue
        pivot_col = min(r, key=lambda c: col_pos[c])
        inv = r[pivot_col].inverse()
        r = vec_scale(r, inv)
        for col, prow in echelon:
            if pivot_col in prow:
                vec_add_scaled(prow, r, -prow[pivot_col])
        echelon.append((pivot_col, r))
        pivot_of_col[pivot_col] = r

    free_cols = [c for c in columns if c not in pivot_of_col]
    basis = []
    for free in free_cols:
        vec = {free: ONE}
        for col, prow in pivot_of_col.items():
            if free in prow:
                coeff = -prow[free]
                if not coeff.is_zero():
                    vec[col] = coeff
        basis.append(vec)
    return basis


def isotropic_by_pairing(spec: AlgebraSpec) -> tuple[Symbol, ...]:
    """The radical of (v, w) -> f([v, w]) as the kernel of the pairing matrix.

    Every kernel vector must be a single basis symbol; the symbols come back
    in basis order.
    """
    syms = basis(spec)
    zero_y: Symbol = ("Y", (0,) * spec.n)
    rows = []
    for w in syms:
        row = {}
        for v in syms:
            coeff = bracket(spec, v, w).get(zero_y)
            if coeff is not None and not coeff.is_zero():
                row[v] = coeff
        if row:
            rows.append(row)
    members = []
    for vec in kernel_basis(rows, list(syms)):
        assert len(vec) == 1, "isotropic radical is not spanned by basis symbols"
        members.extend(vec)
    return tuple(sorted(members, key=syms.index))


def lower_central_length(spec: AlgebraSpec) -> int:
    """Number of nonzero terms of the lower central series, walked on symbol sets.

    Brackets of basis symbols are (up to sign) basis symbols, so every term
    of the series is spanned by a subset of the basis.
    """
    syms = set(basis(spec))
    current = set(syms)
    length = 0
    while current:
        length += 1
        nxt = {sym for a in syms for b in current for sym in bracket(spec, a, b)}
        assert nxt != current, "lower central series stalled; algebra not nilpotent"
        current = nxt
    return length


def factor_constants_by_enumeration(spec: AlgebraSpec) -> dict:
    """(i-tuple, r-tuple) -> (b, root) for every reduction factor, enumerated
    as the library once did: b is 1/alpha_i at each position of the i-tuple
    and 0 elsewhere, root is p - n - sum_j (r_j+1)/alpha_{i_j}, both as
    Gaussian rationals.  Insertion order is the factor order."""
    out = {}
    for i_tuple, r_tuple in reduction_factors(spec):
        b = tuple(ONE / spec.alpha[i] if i in i_tuple else ZERO for i in range(spec.n))
        shift = sum(GaussianRational(r + 1) / spec.alpha[i] for i, r in zip(i_tuple, r_tuple))
        out[(i_tuple, r_tuple)] = (b, spec.p - spec.n - shift)
    return out


def physical_abscissa_by_enumeration(spec: AlgebraSpec, q: int = 0) -> Rat:
    """The largest root among the full-order factors (r = alpha at every
    chosen position), shifted by the twist q and halved."""
    factors = factor_constants_by_enumeration(spec)
    tops = [
        root.re for (i, r), (_, root) in factors.items()
        if r == tuple(spec.alpha[k] for k in i)
    ]
    return (max(tops) - q) / 2
