"""First-order reduction operators, descent products, and the pole lattice.

Independent oracles used here:

* first-order images on tiny inputs are frozen from hand computations with
  the single bracket relation  [X_k, Y^b] = Y^{b - delta_k}  and Y^0 central;
* eigen-relations are checked through the representation (whose arithmetic
  is itself verified against sympy), not through the kernel machinery;
* the continuation polynomial and the pole lattice are recomputed from
  first principles with ``fractions.Fraction`` and compared entry by entry.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    SPEC_PARAMS,
    DensePolynomial,
    algebra_specs,
    factor_constants_by_enumeration,
    hat_y,
    make_spec,
    physical_abscissa_by_enumeration,
    random_element,
    taylor_h_ab_by_commutators,
)
from nilzeta import GaussianRational, algebra_spec
from nilzeta.core import index_set, index_set_size
from nilzeta.ideal import build_slice, filtration_min_degree, is_member
from nilzeta.indices import box, mi_delta
from nilzeta.reduction import (
    RationalPolynomial,
    ReductionChoiceError,
    b_polynomial,
    b_roots,
    g_ab,
    g_s,
    h_ab,
    h_s,
    lagrange_identity_check,
    physical_abscissa,
    pole_lattice,
    reduction_data,
    reduction_factors,
    t_s,
    taylor_coeffs,
    taylor_h_ab,
    taylor_residual,
)
from nilzeta.scalars import Rat, as_rational
from nilzeta.linalg import commutator
from nilzeta.uea import (
    Monomial,
    UEAElement,
    monomial_degree,
    monomials_up_to,
    pure_y,
    slice_monomials,
)
from nilzeta.weyl import WeylOperator, delta1, leibniz, monomial_symbol, p_op, q_op, rho


MINUS_I = GaussianRational(0, -1)


def frac(value) -> Fraction:
    """Exact bridge from the backend rational into the stdlib one."""
    return Fraction(str(value))


# ---------------------------------------------------------------------------
# First-order operators
# ---------------------------------------------------------------------------


def test_hat_y_frozen(heis) -> None:
    assert hat_y(heis, 0) == pure_y(heis, (1,)).scale(MINUS_I)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_hat_y_image_is_position_operator(name: str) -> None:
    spec = make_spec(name)
    for k in range(spec.n):
        assert rho(spec, hat_y(spec, k)) == q_op(spec.n, k)


def test_h_ab_frozen_values(heis) -> None:
    # Hand computation with Y^0 central and [X, Y^(1)] = Y^(0):
    #   h(1)      = [X, Yhat] + [X, Yhat]            = -2i Y^0
    #   h(Y^0)    = Y^0 ([X,Yhat] + [X,Yhat])        = -2i (Y^0)^2
    #   h(Y^(1))  = [X,Y^(1)]Yhat + 2 Y^0 Yhat-part  = -3i Y^0 Y^(1)
    one = UEAElement.one(heis)
    y0 = pure_y(heis, (0,))
    y1 = pure_y(heis, (1,))
    assert h_ab(heis, (1,), (1,), one) == y0.scale(GaussianRational(0, -2))
    assert h_ab(heis, (1,), (1,), y0) == (y0 * y0).scale(GaussianRational(0, -2))
    assert h_ab(heis, (1,), (1,), y1) == (y0 * y1).scale(GaussianRational(0, -3))


def test_g_ab_frozen_values(heis) -> None:
    # g(Y^0) vanishes outright (both brackets hit the central element);
    # g(Y^(1)) keeps only the [X, Y^(1)] Yhat term.
    y0 = pure_y(heis, (0,))
    y1 = pure_y(heis, (1,))
    assert g_ab(heis, (1,), (1,), y0).is_zero()
    assert g_ab(heis, (1,), (1,), y1) == (y0 * y1).scale(MINUS_I)


def test_weight_vector_length_checked(heis) -> None:
    with pytest.raises(ValueError):
        h_ab(heis, (1, 1), (1,), UEAElement.one(heis))


def test_float_weights_refused_after_an_int_call(heis) -> None:
    # the weight conversion is cached by type as well as value: 1.0 never
    # reuses the entry of 1
    one = UEAElement.one(heis)
    for apply, space, t in ((g_ab, heis, one), (h_ab, heis, one),
                            (taylor_h_ab, 1, WeylOperator.one(1))):
        for a, b in (((1.0,), (1,)), ((1,), (1.0,))):
            apply(space, (1,), (1,), t)
            with pytest.raises(TypeError, match="refusing float 1.0"):
                apply(space, a, b, t)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_h_equals_g_plus_two_n_mod_kernel(name: str) -> None:
    # The two first-order operators differ by (|a| + |b|) = 2n times the
    # identity when all weights are 1 -- as a congruence modulo the kernel,
    # not as an exact identity (h(1) = -2i Y^0 while g(1) + 2n = 2n).
    spec = make_spec(name)
    ones = (1,) * spec.n
    shift = GaussianRational(2 * spec.n)
    rng = random.Random(20240 + spec.n)
    for _ in range(8):
        u = random_element(spec, rng, max_degree=2, terms=3)
        diff = h_ab(spec, ones, ones, u) - g_ab(spec, ones, ones, u) - u.scale(shift)
        assert rho(spec, diff).is_zero()
        assert is_member(spec, diff)


# ---------------------------------------------------------------------------
# Cached linear maps against their literal commutator definitions
# ---------------------------------------------------------------------------


def _literal_parts(pairs, form: str, t) -> list:
    """A_0..A_{n-1}, B_0..B_{n-1} at t, each built from products and commutators."""
    if form == "h":
        return [commutator(x * t, y) for x, y in pairs] + [commutator(x, t * y) for x, y in pairs]
    return [x * commutator(t, y) for x, y in pairs] + [commutator(x, t) * y for x, y in pairs]


def _literal_first_order(pairs, form: str, a, b, t):
    """sum_k a_k A_k(t) + b_k B_k(t) over the literal parts."""
    out = t.scale(0)
    for part, weight in zip(_literal_parts(pairs, form, t), (*a, *b)):
        out = out + part.scale(weight)
    return out


def _literal_descent(spec, s: int, pairs, form: str, t):
    """The degree-s descent product, each factor's weights and shift rederived
    from the (i-tuple, r-tuple) labels."""
    n = spec.n
    for i_tuple, r_tuple in reduction_factors(spec):
        b = [sum(Fraction(1, spec.alpha[k]) for i in i_tuple if i == k) for k in range(n)]
        root = spec.p - n - sum(Fraction(r + 1, spec.alpha[i]) for i, r in zip(i_tuple, r_tuple))
        shift = s - root if form == "h" else s - root - n - sum(b)
        t = _literal_first_order(pairs, form, (1,) * n, b, t) - t.scale(shift)
    return t


def _uea_pairs(spec):
    return [(UEAElement.x_gen(spec, k), hat_y(spec, k)) for k in range(spec.n)]


def _weyl_pairs(spec):
    return [(p_op(spec.n, k), q_op(spec.n, k)) for k in range(spec.n)]


def _random_gaussian(rng) -> GaussianRational:
    den = rng.choice((1, 2, 3, 5, 6))
    return GaussianRational(Fraction(rng.randint(-4, 4), den), Fraction(rng.randint(-4, 4), den))


def _mixed_denominator_element(spec, rng, max_degree: int = 3, terms: int = 4):
    monos = list(monomials_up_to(spec, max_degree))
    return UEAElement(spec, {m: _random_gaussian(rng) for m in rng.sample(monos, terms)})


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_first_order_maps_match_commutators(name: str) -> None:
    spec = make_spec(name)
    rng = random.Random(4051 + len(name))
    for _ in range(6):
        a = [_random_gaussian(rng) for _ in range(spec.n)]
        b = [_random_gaussian(rng) for _ in range(spec.n)]
        t = _mixed_denominator_element(spec, rng)
        assert h_ab(spec, a, b, t) == _literal_first_order(_uea_pairs(spec), "h", a, b, t)
        assert g_ab(spec, a, b, t) == _literal_first_order(_uea_pairs(spec), "g", a, b, t)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_axis_images_match_commutators_part_by_part(name: str) -> None:
    # Every monomial to degree 4 (n = 1) or 3 (n = 2): each part of the
    # closed-form images equals its literal commutator, with int coefficients.
    from nilzeta.reduction import _axis_images

    spec = make_spec(name)
    n, degree = spec.n, 4 if spec.n == 1 else 3
    cases = [
        (spec, form, _uea_pairs(spec), UEAElement, mono)
        for form in ("h", "g")
        for mono in monomials_up_to(spec, degree)
    ]
    cases += [
        (n, "h", _weyl_pairs(spec), WeylOperator, (a, b))
        for a in box((degree,) * n)
        for b in box((degree,) * n)
        if sum(a) + sum(b) <= degree
    ]
    for space, form, pairs, cls, mono in cases:
        den, rows = _axis_images(space, form, mono)
        t = cls(space, {mono: 1})
        expected = _literal_parts(pairs, form, t) + [t]  # part 2n is m itself
        assert den == 1  # int rows
        assert len({m for m, _ in rows}) == len(rows)  # merged by monomial
        parts = [cls(space) for _ in expected]
        for m, entries in rows:
            for j, re, im in entries:
                assert type(re) is int and type(im) is int
                parts[j] = parts[j] + cls(space, {m: GaussianRational(re, im)})
        assert parts == expected, (form, mono)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_descent_products_match_commutators(name: str) -> None:
    spec = make_spec(name)
    rng = random.Random(733 + len(name))
    zero = UEAElement.zero(spec)
    for s in range(4):
        assert h_s(spec, s, zero).is_zero() and g_s(spec, s, zero).is_zero()
        assert t_s(spec, s, WeylOperator.zero(spec.n)).is_zero()
        for _ in range(2):
            u = _mixed_denominator_element(spec, rng)
            w = rho(spec, u)
            assert h_s(spec, s, u) == _literal_descent(spec, s, _uea_pairs(spec), "h", u)
            assert g_s(spec, s, u) == _literal_descent(spec, s, _uea_pairs(spec), "g", u)
            assert t_s(spec, s, w) == _literal_descent(spec, s, _weyl_pairs(spec), "h", w)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_rho_matches_symbol_leibniz_sum(name: str) -> None:
    spec = make_spec(name)
    rng = random.Random(90 + len(name))
    for _ in range(5):
        u = _mixed_denominator_element(spec, rng, max_degree=4, terms=6)
        expected = WeylOperator.zero(spec.n)
        for mono, coeff in u.terms.items():
            (p, gamma), c = monomial_symbol(spec, mono)
            expected = expected + WeylOperator(spec.n, dict(leibniz(p, gamma))).scale(c * coeff)
        assert rho(spec, u) == expected
    assert rho(spec, UEAElement.zero(spec)).is_zero()


def test_image_caches_bounded_and_results_unshared(mixed) -> None:
    from nilzeta.linalg import IMAGE_CACHE_SIZE
    from nilzeta.reduction import _axis_images, _canonical_parts, _reduced_descent
    from nilzeta.verify import run_verify
    from nilzeta.weyl import _rho_image

    assert run_verify(mixed, 4)["all_passed"]
    for cached in (_axis_images, _canonical_parts, _rho_image):
        info = cached.cache_info()
        assert info.maxsize == IMAGE_CACHE_SIZE and 0 < info.currsize <= IMAGE_CACHE_SIZE
    u = _mixed_denominator_element(mixed, random.Random(5))
    ones = (1,) * mixed.n
    for apply in (
        lambda: h_s(mixed, 2, u),
        lambda: g_s(mixed, 2, u),
        lambda: h_ab(mixed, ones, ones, u),
        lambda: _reduced_descent(mixed, 2, "g", u),
        lambda: t_s(mixed, 2, rho(mixed, u)),
        lambda: rho(mixed, u),
    ):
        first = apply()
        expected = dict(first.terms)
        first.terms.clear()
        first.terms[next(iter(expected))] = GaussianRational(7)
        assert apply().terms == expected


# ---------------------------------------------------------------------------
# Reduction choices and eigen-relations
# ---------------------------------------------------------------------------


def test_reduction_data_frozen(heis, quad) -> None:
    choice = reduction_data(heis, Monomial((0,), (0, 1)))
    assert choice.i_tuple == (0,)
    assert choice.r_tuple == (1,)
    assert choice.a == (1,)
    assert choice.b == (Rat(1),)
    assert choice.eigenvalue == Rat(1)

    c1 = reduction_data(quad, Monomial((0,), (0, 1, 0)))
    assert (c1.i_tuple, c1.r_tuple) == ((0,), (1,))
    assert c1.b == (Rat(1, 2),)
    assert c1.eigenvalue == Rat(1, 2)

    c2 = reduction_data(quad, Monomial((0,), (0, 0, 1)))
    assert (c2.i_tuple, c2.r_tuple) == ((0,), (2,))
    assert c2.eigenvalue == Rat(1)

    # No Y factors: least block position with its full order.
    cx = reduction_data(quad, Monomial((2,), (0, 0, 0)))
    assert (cx.i_tuple, cx.r_tuple) == ((0,), (2,))
    assert cx.eigenvalue == Rat(2)


def test_reduction_data_rejects_dependent_monomial(quad) -> None:
    # (Y^(1))^2 is congruent to 2i Y^(2): no single position balances the
    # block count identity, so the constructive choice must refuse it.
    with pytest.raises(ReductionChoiceError):
        reduction_data(quad, Monomial((0,), (0, 2, 0)))


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_eigen_relation_through_representation(name: str) -> None:
    # rho(g_choice(T)) == eigenvalue * rho(T) for every independent monomial:
    # the left side exercises enveloping-algebra arithmetic, the right side
    # only operator arithmetic, so agreement is a dual-route check.
    spec = make_spec(name)
    for d in range(4):
        for mono in build_slice(spec, d).independent:
            choice = reduction_data(spec, mono)
            t = UEAElement.monomial(spec, mono)
            image = g_ab(spec, choice.a, choice.b, t)
            eig = GaussianRational(choice.eigenvalue)
            assert rho(spec, image) == rho(spec, t).scale(eig)
            assert is_member(spec, image - t.scale(eig))


# ---------------------------------------------------------------------------
# Degree-indexed products: annihilation, descent, the operator-side twin
# ---------------------------------------------------------------------------


def test_reduction_factors_frozen() -> None:
    assert list(reduction_factors(make_spec("heis"))) == [((0,), (1,))]
    assert list(reduction_factors(make_spec("quad"))) == [((0,), (1,)), ((0,), (2,))]
    assert list(reduction_factors(make_spec("cubic"))) == [
        ((0,), (1,)),
        ((0,), (2,)),
        ((0,), (3,)),
    ]
    assert list(reduction_factors(make_spec("pair_split"))) == [((0, 1), (1, 1))]
    assert list(reduction_factors(make_spec("pair_joint"))) == [((0,), (1,)), ((1,), (1,))]
    assert list(reduction_factors(make_spec("mixed"))) == [((0, 1), (1, 1)), ((0, 1), (1, 2))]


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_annihilation_and_descent(name: str) -> None:
    # Independent monomials of degree s are killed by both degree-s products
    # (modulo the kernel); every degree-s monomial is pushed strictly down
    # the canonical degree filtration.
    from nilzeta.ideal import canonical_form

    spec = make_spec(name)
    for s in range(4):
        chart = build_slice(spec, s)
        for mono in slice_monomials(spec, s):
            u = UEAElement.monomial(spec, mono)
            h_image = h_s(spec, s, u)
            if mono in chart.independent:
                assert rho(spec, h_image).is_zero()
                assert rho(spec, g_s(spec, s, u)).is_zero()
            assert canonical_form(spec, h_image).degree() <= s - 1


@given(spec=algebra_specs())
def test_reduced_descent_matches_the_literal_products(spec) -> None:
    # the canonical form after every factor is the canonical form of the literal
    # product, monomial by monomial and at every degree s, below, at and above the
    # monomial's own, as the descent diagram runs it (within 66 monomials up to degree 2)
    from nilzeta.ideal import canonical_form
    from nilzeta.reduction import _reduced_descent

    assume(math.comb(spec.n + index_set_size(spec) + 2, 2) <= 66)
    for mono in monomials_up_to(spec, 2):
        u = UEAElement.monomial(spec, mono)
        for s in range(3):
            assert _reduced_descent(spec, s, "h", u) == canonical_form(spec, h_s(spec, s, u))
            assert _reduced_descent(spec, s, "g", u) == canonical_form(spec, g_s(spec, s, u))


@given(spec=algebra_specs())
def test_canonical_tables_match_the_first_order_maps(spec) -> None:
    # each weighed canonical table is the canonical form of g_ab/h_ab(a, b, t) - c t,
    # on both forms, for every (a, b, c) that verify weighs: the axes, the
    # eigen-relation and the shift (within 66 monomials up to degree 2)
    from nilzeta.ideal import canonical_form
    from nilzeta.reduction import _canonical_factor, _weights

    assume(math.comb(spec.n + index_set_size(spec) + 2, 2) <= 66)
    n, idx, ones = spec.n, index_set(spec), (1,) * spec.n
    independent = {m for d in range(3) for m in build_slice(spec, d).independent}
    for mono in monomials_up_to(spec, 2):
        t = UEAElement.monomial(spec, mono)
        cases = [(ones, ones, 2 * n), (ones, ones, 0), (ones, ones, 1)]
        for k in range(n):
            weight = sum(mult * idx[pos][k] for pos, mult in enumerate(mono.y))
            axis, zeros = mi_delta(n, k), (0,) * n
            cases += [(axis, zeros, mono.x[k]), (zeros, axis, weight), (zeros, axis, weight + 1)]
        if mono in independent:
            choice = reduction_data(spec, mono)
            cases += [(choice.a, choice.b, choice.eigenvalue), (choice.a, choice.b, 0)]
        for form, op in (("g", g_ab), ("h", h_ab)):
            for a, b, c in cases:
                den, rows = _canonical_factor(spec, form, _weights(*a, *b, -c), mono)
                table = UEAElement(spec, {m: GaussianRational(Rat(re, den), Rat(im, den))
                                          for m, re, im in rows})
                literal = op(spec, a, b, t) - t.scale(c)
                assert table == canonical_form(spec, literal), (form, mono, a, b, c)
                assert (not rows) == is_member(spec, literal), (form, mono, a, b, c)


def test_dependent_monomials_escape_strict_annihilation(heis, quad) -> None:
    # Regression for the scope of the annihilation statement: monomials with
    # lower canonical degree are only pushed down, not killed.  Two pinned
    # witnesses: Y^0 at degree 1 and (Y^(1))^2 at degree 2.
    y0 = pure_y(heis, (0,))
    image = rho(heis, h_s(heis, 1, y0))
    assert image == WeylOperator.one(1).scale(MINUS_I)

    y1sq = pure_y(quad, (1,)) * pure_y(quad, (1,))
    image = rho(quad, h_s(quad, 2, y1sq))
    expected = q_op(1, 0) ** 2  # (-x)^2 = x^2
    assert image == expected.scale(GaussianRational(Rat(-1, 2)))


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_t_s_lowers_image_filtration(name: str) -> None:
    spec = make_spec(name)
    for s in range(4):
        for mono in build_slice(spec, s).independent:
            w = t_s(spec, s, rho(spec, UEAElement.monomial(spec, mono)))
            if s == 0:
                # Nothing lies below level 0, so the image must vanish.
                assert w.is_zero()
            else:
                level = filtration_min_degree(spec, w, s)
                assert level is not None and level <= s - 1


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_descent_diagram_commutes(name: str) -> None:
    # t_s(rho(u)) == rho(h_s(u)) on seeded random elements.
    spec = make_spec(name)
    rng = random.Random(977 + spec.n)
    for s in range(4):
        for _ in range(5):
            u = random_element(spec, rng, max_degree=3, terms=4)
            assert t_s(spec, s, rho(spec, u)) == rho(spec, h_s(spec, s, u))


# ---------------------------------------------------------------------------
# Taylor-style commutation coefficients
# ---------------------------------------------------------------------------


def test_taylor_coeffs_frozen_heis(heis) -> None:
    d1 = delta1(heis)
    cs = taylor_coeffs(d1, [((1,), (1,))], WeylOperator.one(1), 2)
    two = WeylOperator.one(1).scale(GaussianRational(2))
    d_sq = p_op(1, 0) ** 2
    x_sq = q_op(1, 0) ** 2
    assert cs[0] == two
    assert cs[1] == (x_sq - d_sq).scale(GaussianRational(2))
    assert cs[2] == two.scale(GaussianRational(2))


_rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
# Q(i) weights; zero entries switch an axis off.
_weights = st.one_of(st.just(0), st.builds(GaussianRational, _rational, _rational))


@st.composite
def taylor_operands(draw):
    n = draw(st.integers(1, 3))
    weights = st.lists(_weights, min_size=n, max_size=n)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(st.tuples(exps, exps), _weights, max_size=5))
    return n, draw(weights), draw(weights), WeylOperator(n, terms)


@given(taylor_operands())
def test_taylor_h_ab_closed_form_matches_commutators(operands) -> None:
    n, a, b, w = operands
    assert taylor_h_ab(n, a, b, w) == taylor_h_ab_by_commutators(n, a, b, w)


def test_taylor_h_ab_refuses_wrong_weight_length() -> None:
    with pytest.raises(ValueError):
        taylor_h_ab(2, (1, 1), (1,), WeylOperator.one(2))


def test_taylor_residual_refuses_negative_exponent(heis) -> None:
    with pytest.raises(ValueError):
        taylor_residual(delta1(heis), [((1,), (1,))], WeylOperator.one(1), -1)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_taylor_residual_vanishes(name: str) -> None:
    # Integer-exponent exactness for one and two weight pairs, i <= 2,
    # with the coefficient operator ranging over generator images.
    spec = make_spec(name)
    d1 = delta1(spec)
    ones = (1,) * spec.n
    twos = (2,) * spec.n
    xs = [WeylOperator.one(spec.n), p_op(spec.n, 0), q_op(spec.n, spec.n - 1)]
    for pairs in ([(ones, ones)], [(ones, ones), (ones, twos)]):
        for x in xs:
            for i in range(3):
                assert taylor_residual(d1, pairs, x, i).is_zero()


# ---------------------------------------------------------------------------
# Continuation polynomial and pole lattice
# ---------------------------------------------------------------------------

# Ascending coefficient tuples, hand-expanded from the per-factor constants
# p - n - sum_j (r_j + 1)/alpha_{i_j}.
B_COEFFS = {
    "heis": (Fraction(-2), Fraction(-1)),
    "quad": (Fraction(3, 2), Fraction(5, 2), Fraction(1)),
    "cubic": (Fraction(-8, 9), Fraction(-26, 9), Fraction(-3), Fraction(-1)),
    "pair_split": (Fraction(-4), Fraction(-1)),
    "pair_joint": (Fraction(9), Fraction(6), Fraction(1)),
    "mixed": (Fraction(21, 2), Fraction(13, 2), Fraction(1)),
}

B_ROOTS = {
    "heis": [Fraction(-2)],
    "quad": [Fraction(-1), Fraction(-3, 2)],
    "cubic": [Fraction(-2, 3), Fraction(-1), Fraction(-4, 3)],
    "pair_split": [Fraction(-4)],
    "pair_joint": [Fraction(-3), Fraction(-3)],
    "mixed": [Fraction(-3), Fraction(-7, 2)],
}

PHYSICAL = {
    "heis": Fraction(-1),
    "quad": Fraction(-3, 4),
    "cubic": Fraction(-2, 3),
    "pair_split": Fraction(-2),
    "pair_joint": Fraction(-3, 2),
    "mixed": Fraction(-7, 4),
}


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_b_polynomial_frozen(name: str) -> None:
    spec = make_spec(name)
    b = b_polynomial(spec)
    assert tuple(frac(c) for c in b.coeffs) == B_COEFFS[name]
    assert [frac(r) for r in b_roots(spec)] == B_ROOTS[name]
    for r in b_roots(spec):
        assert b(r) == Rat(0)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_physical_abscissa_frozen(name: str) -> None:
    spec = make_spec(name)
    assert frac(physical_abscissa(spec)) == PHYSICAL[name]
    # A twist of degree q shifts the prediction left by q/2.
    assert frac(physical_abscissa(spec, q=3)) == PHYSICAL[name] - Fraction(3, 2)


def _lattice_oracle(spec, q: int, s0: Fraction, l_max: int):
    """First-principles lattice recomputation with Fraction arithmetic."""
    import math

    entries: dict = {}
    p, n = spec.p, spec.n
    for i_tuple in iter_product(*spec.partition):
        for r_tuple in iter_product(*(range(1, spec.alpha[i] + 1) for i in i_tuple)):
            shift = sum(Fraction(r + 1, spec.alpha[i]) for i, r in zip(i_tuple, r_tuple))
            l_min = math.ceil(shift + n - p - s0)
            for l in range(l_min, l_max + 1):
                omega = Fraction(p - n - q) / 2 - shift / 2 + Fraction(l, 2)
                entries.setdefault(omega, []).append(
                    (tuple(i + 1 for i in i_tuple), r_tuple, l)
                )
    return entries


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_pole_lattice_matches_first_principles(name: str) -> None:
    spec = make_spec(name)
    lat = pole_lattice(spec, q=1, s0=Rat(5, 2), l_max=5)
    oracle = _lattice_oracle(spec, 1, Fraction(5, 2), 5)
    assert [frac(e.omega) for e in lat.entries] == sorted(oracle)
    for entry in lat.entries:
        witnesses = oracle[frac(entry.omega)]
        assert entry.multiplicity == len(witnesses)
        assert sorted(entry.witnesses) == sorted(witnesses)


@given(
    spec=algebra_specs(),
    s0=st.fractions(-6, 6, max_denominator=4),
    l_max=st.integers(0, 4),
)
def test_pole_lattice_matches_first_principles_at_any_start(spec, s0, l_max) -> None:
    # only the factors with a witness are walked; each entry lists its
    # witnesses in factor order, then by l
    lat = pole_lattice(spec, s0=s0, l_max=l_max)
    oracle = _lattice_oracle(spec, 0, s0, l_max)
    assert [(frac(e.omega), e.witnesses) for e in lat.entries] == [
        (omega, tuple(ws)) for omega, ws in sorted(oracle.items())
    ]


def test_pole_lattice_huge_alpha_below_every_root_is_empty_and_quick() -> None:
    start = time.perf_counter()
    lat = pole_lattice(algebra_spec(1, [1_000_000]), s0=-10)
    assert lat.entries == ()
    assert time.perf_counter() - start < 0.5


def test_pole_lattice_frozen_heis(heis) -> None:
    lat = pole_lattice(heis, q=0, s0=2, l_max=4)
    assert [frac(o) for o in [e.omega for e in lat.entries]] == [
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1, 2),
        Fraction(1),
    ]
    first = lat.entries[0]
    assert frac(first.omega) == frac(physical_abscissa(heis))
    assert first.witnesses == (((1,), (1,), 0),)
    assert frac(lat.entries[-1].omega) == Fraction(1)


def test_pole_lattice_quad_leading_entry(quad) -> None:
    # The convergence edge is the l = 0, full-order point; the l = 0 point of
    # the lower-order factor sits strictly to its right.
    lat = pole_lattice(quad, q=0, s0=Rat(3, 2), l_max=3)
    first = lat.entries[0]
    assert frac(first.omega) == Fraction(-3, 4)
    assert first.omega == physical_abscissa(quad)
    assert first.witnesses == (((1,), (2,), 0),)
    assert frac(lat.entries[1].omega) == Fraction(-1, 2)


def test_pole_lattice_pair_joint_multiplicity(pair_joint) -> None:
    # Both block positions produce the same factor, so every lattice point
    # carries multiplicity two.
    lat = pole_lattice(pair_joint, q=0, s0=3, l_max=2)
    assert [frac(o) for o in [e.omega for e in lat.entries]] == [
        Fraction(-3, 2),
        Fraction(-1),
        Fraction(-1, 2),
    ]
    first = lat.entries[0]
    assert first.multiplicity == 2
    assert first.witnesses == (((1,), (1,), 0), ((2,), (1,), 0))
    assert first.omega_str() == "-3/2"


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_pole_lattice_refuses_over_witness_budget(name: str, monkeypatch) -> None:
    from nilzeta import reduction

    spec = make_spec(name)
    count = sum(len(ws) for ws in _lattice_oracle(spec, 0, Fraction(7, 2), 6).values())
    monkeypatch.setattr(reduction, "MAX_POLE_WITNESSES", count)
    lat = pole_lattice(spec, s0=Rat(7, 2), l_max=6)
    assert sum(e.multiplicity for e in lat.entries) == count
    monkeypatch.setattr(reduction, "MAX_POLE_WITNESSES", count - 1)
    with pytest.raises(ValueError, match="witnesses"):
        pole_lattice(spec, s0=Rat(7, 2), l_max=6)


def test_pole_lattice_refuses_huge_s0_up_front(quad) -> None:
    # the count stops at the first factor that takes it past the budget
    with pytest.raises(ValueError, match="at least 10000006 witnesses"):
        pole_lattice(quad, s0=10_000_000, l_max=6)


def test_pole_lattice_refuses_huge_alpha_before_the_factor_table(monkeypatch) -> None:
    from nilzeta import reduction

    def no_table(spec):
        raise AssertionError("the factor table was built before the witness count")

    monkeypatch.setattr(reduction, "_descent_weights", no_table)
    with pytest.raises(ValueError, match="more than 100000; lower s0 or l_max"):
        pole_lattice(algebra_spec(1, [1_000_000]))


def test_b_roots_refuses_huge_factor_count_before_any_root(monkeypatch) -> None:
    from nilzeta import reduction

    def no_root(*args):
        raise AssertionError("a root was built before the factor count")

    monkeypatch.setattr(reduction, "_factor_root", no_root)
    with pytest.raises(ValueError, match="has 1000000 roots, more than 100000; lower alpha"):
        b_roots(algebra_spec(1, [1_000_000]))


@given(spec=algebra_specs(), q=st.integers(0, 3))
def test_factor_closed_forms_match_enumeration(spec, q) -> None:
    assert physical_abscissa(spec, q) == physical_abscissa_by_enumeration(spec, q)
    factors = factor_constants_by_enumeration(spec)
    assert b_roots(spec) == [root.re for _, root in factors.values()]
    for d in range(2):
        for mono in build_slice(spec, d).independent:
            choice = reduction_data(spec, mono)
            b, root = factors[(choice.i_tuple, choice.r_tuple)]
            assert choice.b == tuple(c.re for c in b)
            assert choice.eigenvalue == (monomial_degree(mono) - root - spec.n - sum(b)).re


@given(spec=algebra_specs())
def test_eigenvalue_is_the_g_form_descent_shift(spec) -> None:
    # _descent_weights holds each g-factor's weights with minus its shift last
    from nilzeta.reduction import _descent_weights

    labels = list(reduction_factors(spec))
    for s in range(3):
        table = _descent_weights(spec, "g", s)
        for mono in build_slice(spec, s).independent:
            choice = reduction_data(spec, mono)
            den, nums = table[labels.index((choice.i_tuple, choice.r_tuple))]
            assert nums[-1][1] == 0
            assert choice.eigenvalue == Rat(-nums[-1][0], den)


def test_pole_lattice_twist_shifts_left(heis) -> None:
    base = pole_lattice(heis, q=0, s0=2, l_max=4)
    twisted = pole_lattice(heis, q=2, s0=2, l_max=4)
    assert [frac(o) + 1 for o in [e.omega for e in twisted.entries]] == [frac(o) for o in [e.omega for e in base.entries]]


# ---------------------------------------------------------------------------
# Rational polynomials and the interpolation identity
# ---------------------------------------------------------------------------


def test_rational_polynomial_basics() -> None:
    poly = RationalPolynomial([1, 2])
    assert poly.degree() == 1
    assert poly(3) == Rat(7)
    assert poly("1/2") == Rat(2)
    assert RationalPolynomial([1, 0]).degree() == 0
    assert RationalPolynomial([]).degree() == -1
    assert RationalPolynomial([0]).is_zero()
    assert RationalPolynomial([5])(12) == Rat(5)
    # compose_affine: 1 + 2(2z + 3) = 7 + 4z
    assert poly.compose_affine(2, 3) == RationalPolynomial([7, 4])
    assert poly.scale(3) == RationalPolynomial([3, 6])
    assert (poly * poly) == RationalPolynomial([1, 4, 4])
    assert (poly + poly) == poly.scale(2)
    assert (poly - poly).is_zero()


RATIONALS = st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=7))
COEFF_LISTS = st.lists(RATIONALS, max_size=5)


@given(COEFF_LISTS, COEFF_LISTS, RATIONALS, RATIONALS, RATIONALS)
def test_rational_polynomial_matches_dense_oracle(p, q, c, r, z) -> None:
    def same(sparse: RationalPolynomial, dense: DensePolynomial) -> None:
        assert sparse.coeffs == dense.coeffs
        assert all(type(x) is Fraction for x in sparse.coeffs)
        assert sparse.degree() == dense.degree()
        assert sparse.is_zero() == dense.is_zero()
        assert repr(sparse) == repr(dense)

    sp, sq = RationalPolynomial(p), RationalPolynomial(q)
    dp, dq = DensePolynomial(p), DensePolynomial(q)
    same(sp, dp)
    same(sp + sq, dp + dq)
    same(sp - sq, dp - dq)
    same(-sp, -dp)
    same(sp * sq, dp * dq)
    same(sp * 3, dp * 3)
    same(sp.scale(c), dp.scale(c))
    same(sp.compose_affine(r, c), dp.compose_affine(r, c))
    same(RationalPolynomial.from_roots(p, leading=c), DensePolynomial.from_roots(p, leading=c))
    assert sp(z) == dp(z) and type(sp(z)) is Fraction
    assert (sp == sq) == (dp == dq)


def test_from_roots_matches_product_form(quad) -> None:
    b = b_polynomial(quad)
    assert RationalPolynomial.from_roots(b_roots(quad)) == b
    assert RationalPolynomial.from_roots([-1, Rat(-3, 2)], leading=2) == b.scale(2)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_lagrange_identity_exact(name: str) -> None:
    # Node count deg(b) + 2 (shift count 2) supports the full degree; the
    # check raises on any mismatch, so mere completion is the assertion.
    b = b_polynomial(make_spec(name))
    for q in (0, 1, 2):
        lagrange_identity_check(b, 2, q, 2)
    lagrange_identity_check(b, "1/2", "2/3", 2)


def test_lagrange_identity_catches_a_wrong_composition(mixed, monkeypatch) -> None:
    b = b_polynomial(mixed)
    right = RationalPolynomial.compose_affine
    monkeypatch.setattr(RationalPolynomial, "compose_affine",
                        lambda self, r, q: right(self, r, q) + RationalPolynomial([0, 1]))
    with pytest.raises(RuntimeError, match="interpolation identity failed"):
        lagrange_identity_check(b, 2, 0, 2)


def test_lagrange_identity_insufficient_nodes(mixed) -> None:
    with pytest.raises(ValueError):
        lagrange_identity_check(b_polynomial(mixed), 2, 0, 0)


def test_lagrange_identity_zero_polynomial() -> None:
    lagrange_identity_check(RationalPolynomial([]), 2, 0, 0)
