"""Reduction operators, Taylor-style commutation coefficients, and the pole lattice.

Three layers live here.

1.  First-order reduction operators on the enveloping algebra, built from the
    rescaled partners ``Yhat^{delta_k} = -i Y^{delta_k}`` (whose images pair
    canonically with the images of the ``X_k``: ``[p_k, q_k] = 1``):

        g_ab(T) = sum_k a_k X_k [T, Yhat_k] + b_k [X_k, T] Yhat_k
        h_ab(T) = sum_k a_k [X_k T, Yhat_k] + b_k [X_k, T Yhat_k]

    For an independent ordered monomial T of degree s there is a constructive
    choice of one generator position per partition block and a weight vector
    b such that g with all-ones a satisfies an eigen-relation modulo the
    kernel ideal; h differs from g by (|a| + |b|) times the identity.  Both
    are linear in T, sum_k a_k A_k(T) + b_k B_k(T): one cached table of the
    parts at each monomial, weighed by the factor's weights, gives the image,
    from int images of the parts (:func:`_axis_images`) or from their canonical
    forms modulo the kernel ideal (:func:`_canonical_parts`).

2.  Degree-indexed annihilation/descent products ``h_s``, ``g_s``
    (enveloping side) and ``t_s`` (operator side): products of first-order
    factors, one per choice of block positions and per-block orders, each
    shifted by an exact rational constant, with weights computed once per
    degree.  ``h_s`` kills every degree-s monomial modulo the kernel ideal;
    ``t_s`` lowers the image filtration degree.  One loop runs every product;
    :func:`_reduced_descent` runs it on the canonical tables, for ``verify``.

3.  The exact rational polynomial ``b_polynomial`` whose roots drive the
    meromorphic continuation, the resulting half-integer pole lattice, and
    the finite interpolation identity used to recombine shifted values.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product as iter_product
from typing import Iterator, NamedTuple, Sequence, Union

from .core import AlgebraSpec, block_box, y_position
from .ideal import _canonical_image
from .indices import mi_delta, mi_sub
from .linalg import IMAGE_CACHE_SIZE, Combination, _numerators, map_terms, product_terms
from .scalars import (
    ZERO,
    GaussianRational,
    Rat,
    RationalLike,
    ScalarLike,
    as_rational,
    format_rational,
    rat_ceil,
)
from .uea import Monomial, UEAElement, _y_derivation, monomial_degree
from .weyl import WeylOperator, ad_chain, p_op, q_op, power_ladder, weyl_product


class ReductionChoiceError(ValueError):
    """Raised when no valid block position exists for the eigen-relation."""


# ---------------------------------------------------------------------------
# First-order operators on the enveloping algebra
# ---------------------------------------------------------------------------


def g_ab(
    spec: AlgebraSpec, a: Sequence[ScalarLike], b: Sequence[ScalarLike], t: UEAElement
) -> UEAElement:
    """sum_k a_k X_k [t, Yhat_k] + b_k [X_k, t] Yhat_k."""
    return _first_order(spec, "g", a, b, t)


def h_ab(
    spec: AlgebraSpec, a: Sequence[ScalarLike], b: Sequence[ScalarLike], t: UEAElement
) -> UEAElement:
    """sum_k a_k [X_k t, Yhat_k] + b_k [X_k, t Yhat_k]."""
    return _first_order(spec, "h", a, b, t)


def _bump(y: tuple, pos: int) -> tuple:
    """The exponent vector y times one more factor at position pos."""
    return y[:pos] + (y[pos] + 1,) + y[pos + 1:]


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _axis_images(space, form: str, mono) -> tuple:
    """The first-order parts A_0..A_{n-1}, B_0..B_{n-1} at one monomial m, and m
    itself as part 2n, written down with no products and merged by monomial:
    ``(1, ((mono, ((part, re, im), ...)), ...))``, int rows over 1.  Over
    (X_k, Yhat_k) at m = X^p Y^q, from Y^0 central, [X^p, Y^{delta_k}] =
    p_k X^{p-delta_k} Y^0 and the derivation D_k = [X_k, .] (``_y_derivation``):

        h: A_k = [X_k m, Yhat_k] = -i (p_k+1) X^p Y^{q+e_0}
           B_k = [X_k, m Yhat_k] = -i X^p D_k(Y^{q+e_{delta_k}})
        g: A_k = X_k [m, Yhat_k] = -i p_k X^p Y^{q+e_0}
           B_k = [X_k, m] Yhat_k = -i X^p D_k(Y^q) Y^{delta_k}

    For a variable count n, over (P_k, Q_k) = (-d_k, -x_k) at m = x^a d^b, the h-form
    A_k = (b_k+1) m + a_k b_k x^{a-delta_k} d^{b-delta_k}, B_k the same with a_k+1;
    the taylor form A_k = [-Q_k, P_k m] as for h, B_k = [P_k, Q_k m] = (a_k+1) m.
    """
    if isinstance(space, int):
        a, b = mono

        def part(k, c, lower):
            if not (lower and a[k] and b[k]):
                return ((mono, c, 0),)
            d = mi_delta(space, k)
            return (mono, c, 0), ((mi_sub(a, d), mi_sub(b, d)), a[k] * b[k], 0)

        sides = ((b, True), (a, form == "h"))
        parts = [part(k, e[k] + 1, lower) for e, lower in sides for k in range(space)]
    else:
        (x, y), n, pos_of = mono, space.n, y_position(space)
        central = Monomial(x, _bump(y, pos_of[(0,) * n]))
        lift = 1 if form == "h" else 0
        parts = [((central, 0, -x[k] - lift),) if x[k] + lift else () for k in range(n)]
        for k in range(n):
            pos = pos_of[mi_delta(n, k)]
            if lift:
                rows = _y_derivation(space, {_bump(y, pos): 1}, k).items()
            else:
                rows = [(_bump(y2, pos), m) for y2, m in _y_derivation(space, {y: 1}, k).items()]
            parts.append(tuple((Monomial(x, y2), 0, -m) for y2, m in rows))
    merged: dict = {}
    for j, part in enumerate([*parts, ((mono, 1, 0),)]):
        for m, re, im in part:
            merged.setdefault(m, []).append((j, re, im))
    return 1, tuple((m, tuple(rows)) for m, rows in merged.items())


@lru_cache(maxsize=IMAGE_CACHE_SIZE, typed=True)
def _weights(*scalars) -> tuple:
    """Exact scalars as Gaussian-integer weights ``(d, ((re, im), ...))`` over one d; a
    float raises TypeError on every call, as ``typed`` keeps 1.0 off the entry of 1."""
    d, nums = _numerators(dict(enumerate(map(GaussianRational.coerce, scalars))))
    return d, tuple((re, im) for _, re, im in nums)


def _first_order(space, form: str, a: Sequence, b: Sequence, t: Combination):
    """sum_k a_k A_k(t) + b_k B_k(t): h_ab, its operator-side mirror, or g_ab."""
    n = space if isinstance(space, int) else space.n
    if len(a) != n or len(b) != n:
        raise ValueError(f"weight vectors must have length {n}")
    return _factor(space, form, _axis_images, _weights(*a, *b, 0), t)


def _factor(space, form: str, table, weights: tuple, t: Combination):
    """The factor sum_k a_k A_k(t) + b_k B_k(t) - shift * t with the :func:`_weights` of
    (a_0.., b_0.., -shift): t mapped through :func:`~nilzeta.linalg.map_terms` to each
    monomial's weighed ``table(space, form, mono)``, :func:`_axis_images` or its canonical form."""
    if t.space != space:
        raise ValueError(f"{type(t).__name__} operands belong to different spaces")
    return t._of_clean(space, map_terms(
        t.terms, lambda mono: _weighed(table(space, form, mono), weights)))


def _weighed(table: tuple, weights: tuple) -> tuple:
    """A table ``(den, ((mono, ((part, re, im), ...)), ...))``, each part weighed by
    its :func:`_weights` entry, as a :func:`~nilzeta.linalg.map_terms` image."""
    (den, entries), (dw, nums) = table, weights
    rows = []
    for m, parts in entries:
        re = im = 0
        for j, pr, pi in parts:
            wr, wi = nums[j]
            re, im = re + wr * pr - wi * pi, im + wr * pi + wi * pr
        if re or im:
            rows.append((m, re, im))
    return den * dw, rows


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _canonical_parts(spec: AlgebraSpec, form: str, mono: Monomial) -> tuple:
    """The canonical form of each part of :func:`_axis_images` at m, m itself as part
    2n: ``(den, ((first, ((part, re, im), ...)), ...))``, Gaussian-integer rows over
    one den, keyed by independent monomial (a part's entries in one row add up).  The
    canonical projection is linear, so a factor's canonical form at m is this table
    weighed by the factor's weights."""
    images = [(_canonical_image(spec, m), parts) for m, parts in _axis_images(spec, form, mono)[1]]
    den = math.lcm(*(d for (d, _), _ in images))
    table: dict = {}
    for (d, ((first, cr, ci),)), parts in images:
        cr, ci = cr * (den // d), ci * (den // d)
        table.setdefault(first, []).extend(
            (j, cr * pr - ci * pi, cr * pi + ci * pr) for j, pr, pi in parts)
    return den, tuple((first, tuple(parts)) for first, parts in table.items())


def _canonical_factor(spec: AlgebraSpec, form: str, weights: tuple, mono: Monomial) -> tuple:
    """The canonical form of the factor with :func:`_weights` ``weights`` at a monomial,
    as a :func:`~nilzeta.linalg.map_terms` image; no rows exactly on the kernel ideal."""
    return _weighed(_canonical_parts(spec, form, mono), weights)


# ---------------------------------------------------------------------------
# Constructive eigen-relation data for independent monomials
# ---------------------------------------------------------------------------


class ReductionChoice(NamedTuple):
    """Per-block data realizing the eigen-relation for one monomial.

    ``i_tuple`` holds one 0-based generator position per block; ``r_tuple``
    the per-block order; ``a``/``b`` the weight vectors (a is all ones);
    ``eigenvalue`` the exact rational constant c with
    ``g_ab(a, b, T) == c * T`` modulo the kernel ideal.
    """

    i_tuple: tuple[int, ...]
    r_tuple: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple
    eigenvalue: object  # Fraction


def reduction_data(spec: AlgebraSpec, mono: Monomial) -> ReductionChoice:
    """Choose block positions and orders for an ordered monomial.

    Per block: if the monomial involves that block's Y's, take the lex-least
    involved index beta and the least position with beta positive for which
    the exact block identity

        sum_{beta' in block} q_{beta'} beta'_i == alpha_i (Q_block - 1) + beta_i

    holds (Q_block = total Y count on the block); otherwise (no Y's from the
    block) take the block's least position with the full order alpha.
    """
    pos_of, zero_mi = y_position(spec), (0,) * spec.n
    i_list: list[int] = []
    r_list: list[int] = []
    for j, block in enumerate(spec.partition):
        counts = {b: mono.y[pos_of[b]] for b in block_box(spec, j) if b != zero_mi}
        involved = [b for b, c in counts.items() if c > 0]
        if not involved:
            i_list.append(block[0])
            r_list.append(spec.alpha[block[0]])
            continue
        beta, q_total = min(involved), sum(counts.values())
        balanced = [
            i for i in block if beta[i]
            and sum(c * b[i] for b, c in counts.items()) == spec.alpha[i] * (q_total - 1) + beta[i]
        ]
        if not balanced:
            raise ReductionChoiceError(
                f"no block position validates the eigen-relation for {mono} "
                f"on block {tuple(k + 1 for k in block)}"
            )
        i_list.append(balanced[0])
        r_list.append(beta[balanced[0]])
    # the descent's g-form shift s - root - n - sum(b) at the monomial's degree s, which
    # is s - p + sum_j r_j/alpha_{i_j} once b's 1/alpha_{i_j} cancel against the root's
    eig = sum((Rat(r, spec.alpha[i]) for i, r in zip(i_list, r_list)),
              Rat(monomial_degree(mono) - spec.p))
    b = _factor_weights(spec, i_list)
    return ReductionChoice(tuple(i_list), tuple(r_list), (1,) * spec.n, b, eig)


# ---------------------------------------------------------------------------
# Annihilation / descent products
# ---------------------------------------------------------------------------


def reduction_factors(spec: AlgebraSpec) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (i-tuple, r-tuple) factor labels in lexicographic order, one at a time.

    i-tuples run over the product of the partition blocks (one position per
    block); r-tuples over the per-position order ranges 1..alpha_i.
    """
    for i_tuple in iter_product(*spec.partition):
        for r_tuple in iter_product(*(range(1, spec.alpha[i] + 1) for i in i_tuple)):
            yield i_tuple, r_tuple


def _factor_weights(spec: AlgebraSpec, i_tuple: Sequence[int]) -> tuple:
    """A factor's weight vector b: 1/alpha_i at each position i of the i-tuple, 0 elsewhere."""
    return tuple(Rat(1, spec.alpha[i]) if i in i_tuple else Rat(0) for i in range(spec.n))


def _factor_root(spec: AlgebraSpec, i_tuple: Sequence[int], r_tuple: Sequence[int]) -> Rat:
    """The root p - n - sum_j (r_j+1)/alpha_{i_j} of a factor's linear term."""
    return spec.p - spec.n - sum(Rat(r + 1, spec.alpha[i]) for i, r in zip(i_tuple, r_tuple))


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _descent_weights(spec: AlgebraSpec, form: str, s: int) -> tuple:
    """Per reduction factor, in :func:`reduction_factors` order, the :func:`_weights`
    of its ``form`` factor at degree s: a all ones, b from :func:`_factor_weights`,
    and minus the shift, s - root for "h", from which "g" subtracts n + sum(b)."""
    table = []
    for i_tuple, r_tuple in reduction_factors(spec):
        b = _factor_weights(spec, i_tuple)
        lift = spec.n + sum(b) if form == "g" else 0
        table.append(_weights(*(1,) * spec.n, *b, _factor_root(spec, i_tuple, r_tuple) + lift - s))
    return tuple(table)


def _descent(spec: AlgebraSpec, s: int, space, form: str, table, t: Combination):
    """The shifted first-order factors of ``form`` at degree s, first factor first,
    each through ``table`` (see :func:`_factor`)."""
    for weights in _descent_weights(spec, form, s):
        t = _factor(space, form, table, weights, t)
    return t


def _reduced_descent(spec: AlgebraSpec, s: int, form: str, u: UEAElement) -> UEAElement:
    """canonical_form(h_s(u)) ("h") or canonical_form(g_s(u)) ("g"), taken after every
    factor, through :func:`_canonical_parts`: a factor, a sum of left and right products,
    maps the two-sided kernel ideal (Dixmier, *Enveloping Algebras*, ch. 3) into itself."""
    return _descent(spec, s, spec, form, _canonical_parts, u)


def h_s(spec: AlgebraSpec, s: int, u: UEAElement) -> UEAElement:
    """Product of shifted h-factors at degree s (first factor applied first).

    Annihilates every degree-s monomial modulo the kernel ideal and maps the
    degree-<=s filtration level into (degree-<=(s-1) level) + ideal.
    """
    return _descent(spec, s, spec, "h", _axis_images, u)


def g_s(spec: AlgebraSpec, s: int, u: UEAElement) -> UEAElement:
    """Product of shifted g-factors at degree s (first factor applied first)."""
    return _descent(spec, s, spec, "g", _axis_images, u)


def t_s(spec: AlgebraSpec, s: int, w: WeylOperator) -> WeylOperator:
    """Operator-side descent product; intertwines with h_s through the representation."""
    return _descent(spec, s, spec.n, "h", _axis_images, w)


# ---------------------------------------------------------------------------
# Taylor-style commutation coefficients
# ---------------------------------------------------------------------------


def taylor_h_ab(
    n: int, a: Sequence[ScalarLike], b: Sequence[ScalarLike], w: WeylOperator
) -> WeylOperator:
    """sum_i a_i [-Q_i, P_i w] + b_i [P_i, Q_i w] (coefficient operators on the left)."""
    return _first_order(n, "taylor", a, b, w)


def taylor_a_op(a: Sequence[ScalarLike], b: Sequence[ScalarLike], ads, x: WeylOperator):
    """sum_i a_i P_i x ad^k(Q_i) - b_i Q_i x ad^k(P_i), with ad = [delta, .] and
    ``ads[i]`` the pair (ad^k(P_i), ad^k(Q_i))."""
    n, out = x.n, WeylOperator.zero(x.n)
    for i, (ad_p, ad_q) in enumerate(ads):
        for weight, left, right in ((a[i], p_op(n, i), ad_q), (-b[i], q_op(n, i), ad_p)):
            if weight and not x.is_zero():
                out = out + weyl_product(weyl_product(left, x), right).scale(weight)
    return out


PairList = Sequence[tuple[Sequence[ScalarLike], Sequence[ScalarLike]]]


def taylor_coeffs(
    delta: WeylOperator, pairs: PairList, x: WeylOperator, k_max: int
) -> list[WeylOperator]:
    """Coefficients C_0..C_{k_max} of the iterated commutation expansion.

    ``pairs`` lists the (a, b) weight pairs, first-applied first.  Starting
    from C = (x, 0, .., 0), each pair wraps the coefficients through

        C_k^{new} = h(C_k) + sum_{t<k} C(k,t) a-op^{(k-t)}(C_t),

    so for one pair C_0 is the Taylor-style h operator and C_k the k-th
    correction.  ad^k(P_i) and ad^k(Q_i) come from one ad chain each.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    n = delta.n
    chains = [[ad_chain(delta, op(n, i), k_max) for op in (p_op, q_op)] for i in range(n)]
    coeffs = [x] + [WeylOperator.zero(n)] * k_max
    for a, b in pairs:
        new = []
        for k in range(k_max + 1):
            c = taylor_h_ab(n, a, b, coeffs[k])
            for t in range(k):
                ads = [(p[k - t], q[k - t]) for p, q in chains]
                c = c + taylor_a_op(a, b, ads, coeffs[t]).scale(math.comb(k, t))
            new.append(c)
        coeffs = new
    return coeffs


def taylor_residual(
    delta: WeylOperator, pairs: PairList, x: WeylOperator, i: int
) -> WeylOperator:
    """Residual of the integer-exponent expansion (zero certifies exactness).

    Compares the composed h operators applied to x * delta^i against
    sum_k C(i,k) C_k delta^{i-k}, every power taken from one power ladder.
    """
    n, powers = delta.n, power_ladder(delta, i)
    lhs = weyl_product(x, powers[i])
    for a, b in pairs:
        lhs = taylor_h_ab(n, a, b, lhs)
    coeffs = taylor_coeffs(delta, pairs, x, i)
    rhs = WeylOperator.zero(n)
    for k in range(i + 1):
        rhs = rhs + weyl_product(coeffs[k], powers[i - k]).scale(math.comb(i, k))
    return lhs - rhs


# ---------------------------------------------------------------------------
# Exact rational polynomials
# ---------------------------------------------------------------------------


class RationalPolynomial(Combination):
    """A univariate polynomial with exact rational coefficients, built from the
    dense list constant term first (``coeffs`` reads it back as Fractions).

    A :class:`~nilzeta.linalg.Combination` keyed by power: sums, ``scale`` and
    equality are inherited; the product runs through the product kernel.
    """

    __slots__ = ()

    def __init__(self, coeffs: Sequence[RationalLike]) -> None:
        super().__init__("z", {k: as_rational(c) for k, c in enumerate(coeffs)})

    @classmethod
    def from_roots(cls, roots: Sequence[RationalLike], leading: RationalLike = 1) -> "RationalPolynomial":
        out = cls([leading])
        for r in roots:
            out = out * cls([-as_rational(r), 1])
        return out

    @property
    def coeffs(self) -> tuple:
        return tuple(self.terms.get(k, ZERO).re for k in range(self.degree() + 1))

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.terms, default=-1)

    def __mul__(self, other: Union["RationalPolynomial", int]) -> "RationalPolynomial":
        if isinstance(other, RationalPolynomial):
            terms = product_terms(self.terms, other.terms, lambda i, j: ((i + j, 1),))
            return self._of_clean(self.space, terms)
        return self.scale(other)

    def __call__(self, z: RationalLike) -> "Rat":
        z = as_rational(z)
        return sum((c.re * z**k for k, c in self.terms.items()), Rat(0))

    def compose_affine(self, r: RationalLike, q: RationalLike) -> "RationalPolynomial":
        """The polynomial z -> self(r*z + q)."""
        inner = RationalPolynomial([q, r])
        acc = RationalPolynomial([])
        for c in reversed(self.coeffs):
            acc = acc * inner + RationalPolynomial([c])
        return acc

    def __repr__(self) -> str:
        if not self.terms:
            return "RationalPolynomial(0)"
        body = " + ".join(
            f"{format_rational(c)}*z^{k}" if k else format_rational(c)
            for k, c in enumerate(self.coeffs)
        )
        return f"RationalPolynomial({body})"


def b_polynomial(spec: AlgebraSpec) -> RationalPolynomial:
    """The continuation-driving polynomial: one linear factor per reduction factor.

    Each (i-tuple, r-tuple) contributes (p - n - sum_j (r_j+1)/alpha_{i_j} - z).
    Its roots, shifted by the half-integer lattice, locate the pole candidates.
    """
    roots = b_roots(spec)
    return RationalPolynomial.from_roots(roots, leading=(-1) ** len(roots))


def b_roots(spec: AlgebraSpec) -> list:
    """Roots of b_polynomial with multiplicity, one per reduction factor; more than
    ``MAX_POLE_WITNESSES`` factors raise ValueError before any root is built."""
    roots = math.prod(sum(spec.alpha[k] for k in block) for block in spec.partition)
    if roots > MAX_POLE_WITNESSES:
        raise ValueError(
            f"the b-polynomial has {roots} roots, more than {MAX_POLE_WITNESSES}; lower alpha"
        )
    return [_factor_root(spec, i, r) for i, r in reduction_factors(spec)]


# ---------------------------------------------------------------------------
# Pole lattice
# ---------------------------------------------------------------------------


class PoleEntry(NamedTuple):
    """One candidate pole: exact location, multiplicity, contributing labels.

    ``witnesses`` holds (i_tuple, r_tuple, l) triples with 1-based positions.
    """

    omega: object  # Fraction
    multiplicity: int
    witnesses: tuple

    def omega_str(self) -> str:
        return format_rational(self.omega)


class PoleLattice(NamedTuple):
    """All candidate poles for given twist degree q, start weight s0, and l cap."""

    spec: AlgebraSpec
    q: int
    s0: object  # Fraction
    l_max: int
    entries: tuple


# Most witnesses one pole lattice, or roots ``b_roots``, may list; larger
# requests are refused before any is listed (the listing grows linearly in s0
# and l_max, the roots with the product over blocks of the block sums of alpha).
MAX_POLE_WITNESSES = 100_000


def _rooted_factors(spec: AlgebraSpec, floor: Rat, i_tuple: tuple, prefix: tuple = ()) -> Iterator:
    """``(r_tuple, root)`` of the factors on ``i_tuple`` whose root is at least
    ``floor``, r-tuples in lexicographic order after ``prefix``.  A root only
    falls as an r_j grows, so each r-range stops at the first r whose least
    completion (the later r's at 1) has its root below ``floor``."""
    later = (1,) * (len(i_tuple) - len(prefix) - 1)
    for r in range(1, spec.alpha[i_tuple[len(prefix)]] + 1):
        root = _factor_root(spec, i_tuple, prefix + (r,) + later)
        if root < floor:
            return
        if later:
            yield from _rooted_factors(spec, floor, i_tuple, prefix + (r,))
        else:
            yield prefix + (r,), root


def pole_lattice(
    spec: AlgebraSpec, q: int = 0, s0: RationalLike = 0, l_max: int = 6
) -> PoleLattice:
    """Candidate poles omega = (p - n - q - sum_j (r_j+1)/alpha_{i_j} + l) / 2.

    For each reduction factor, l runs from the exact ceiling of
    sum (r_j+1)/alpha_{i_j} + n - p - s0 up to l_max, so only the factors with
    root at least -s0 - l_max are walked.  Entries are grouped by exact location
    and sorted ascending; multiplicity counts witnesses.  Raises ValueError, before
    listing any, at the first factor that takes them past ``MAX_POLE_WITNESSES``.
    """
    s0 = as_rational(s0)
    count, factors, buckets = 0, [], {}
    for i_tuple in iter_product(*spec.partition):
        for r_tuple, root in _rooted_factors(spec, -s0 - l_max, i_tuple):
            first = rat_ceil(-root - s0)
            count += l_max - first + 1
            if count > MAX_POLE_WITNESSES:
                raise ValueError(
                    f"the pole lattice would list at least {count} witnesses, more than "
                    f"{MAX_POLE_WITNESSES}; lower s0 or l_max"
                )
            factors.append((tuple(i + 1 for i in i_tuple), r_tuple, root, first))
    for positions, r_tuple, root, first in factors:
        for l in range(first, l_max + 1):
            buckets.setdefault((root - q + l) / 2, []).append((positions, r_tuple, l))
    entries = tuple(
        PoleEntry(omega, len(ws), tuple(ws)) for omega, ws in sorted(buckets.items())
    )
    return PoleLattice(spec, q, s0, l_max, entries)


def physical_abscissa(spec: AlgebraSpec, q: int = 0) -> Rat:
    """The rightmost full-order lattice point (l = 0, r = alpha): a full order puts
    1 + 1/alpha per block into the root, so the largest takes each block's largest
    alpha, (-n - sum_blocks 1/max alpha - q) / 2 for a twist of degree q.  On a joint
    block with unequal alpha this is not the heat trace's leading pole, which takes
    each block's smallest alpha: alpha = (1, 2) joint gives -5/4 here, -3/2 there."""
    tops = sum(Rat(1, max(spec.alpha[k] for k in block)) for block in spec.partition)
    return (-spec.n - tops - q) / 2


# ---------------------------------------------------------------------------
# Interpolation identity
# ---------------------------------------------------------------------------


def lagrange_identity_check(
    b: RationalPolynomial, r: RationalLike, q: RationalLike, n_shift: int
) -> None:
    """Exact check of the finite interpolation identity.

    With nodes 0..n_shift+p-1 (p = max(deg b, 1)) and Lagrange basis L_i,
    verifies sum_i b(r*i + q) L_i(z) == b(r*z + q) as polynomials.  Raises
    ValueError when the node count cannot support deg b, RuntimeError on a
    failed identity (which would indicate an arithmetic bug).
    """
    if b.is_zero():
        return
    p = max(b.degree(), 1)
    node_count = n_shift + p
    if node_count - 1 < b.degree():
        raise ValueError(
            f"node count {node_count} cannot interpolate degree {b.degree()}; "
            f"increase the shift count"
        )
    r, q = as_rational(r), as_rational(q)
    nodes = range(node_count)
    # L_i = (master / (z - i)) / prod_{j != i} (i - j), master = prod_j (z - j): the
    # quotient by synthetic division, in ints over one denominator of the weights
    master = [1]
    for j in nodes:
        master = [lo - j * hi for lo, hi in zip([0, *master], [*master, 0])]
    weights = [b(r * i + q) / math.prod(i - j for j in nodes if j != i) for i in nodes]
    den = math.lcm(*(w.denominator for w in weights))
    lhs = [0] * node_count
    for i, w in zip(nodes, weights):
        scaled, carry = w.numerator * (den // w.denominator), 0
        for k in reversed(nodes):
            carry = master[k + 1] + i * carry
            lhs[k] += scaled * carry
    if RationalPolynomial([Rat(c, den) for c in lhs]) != b.compose_affine(r, q):
        raise RuntimeError("interpolation identity failed; arithmetic bug")
