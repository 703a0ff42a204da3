"""Ordered-monomial arithmetic: products, ordering, correction operators.

``brute_product`` is an independent normal-ordering oracle: it multiplies by
word concatenation and rewrites adjacent out-of-order pairs with the single
relation  Y^b X_k = X_k Y^b - Y^{b - delta_k},  never touching the production
recursion.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilzeta import GaussianRational, algebra_spec, commutator, normal_product
from nilzeta.core import index_set, y_position
from nilzeta.indices import box, mi_delta, mi_factorial, mi_sub
from nilzeta.scalars import ONE, i_power
from nilzeta.uea import (
    Monomial,
    UEAElement,
    ad_x,
    gamma_all,
    gamma_apply,
    gamma_j,
    monomial_degree,
    monomial_key,
    monomial_one,
    monomials_up_to,
    pure_y,
    slice_monomials,
    y_star,
)
from nilzeta.weyl import rho

from conftest import (
    SPEC_PARAMS,
    algebra_specs,
    leading_term,
    make_spec,
    monomial_compare,
    monomial_mul_commuting,
    random_element,
)


# ---------------------------------------------------------------------------
# Independent product oracle
# ---------------------------------------------------------------------------


def _mono_to_word(spec, m: Monomial) -> tuple:
    word: list = []
    for k, e in enumerate(m.x):
        word.extend([("X", k)] * e)
    for pos, mult in enumerate(m.y):
        word.extend([("Y", index_set(spec)[pos])] * mult)
    return tuple(word)


def _word_to_mono(spec, word) -> Monomial:
    x = [0] * spec.n
    y = [0] * len(index_set(spec))
    positions = y_position(spec)
    for sym in word:
        if sym[0] == "X":
            x[sym[1]] += 1
        else:
            y[positions[sym[1]]] += 1
    return Monomial(tuple(x), tuple(y))


def _normalize_word(spec, word, coeff, acc) -> None:
    for i in range(len(word) - 1):
        s, t = word[i], word[i + 1]
        if s[0] == "Y" and t[0] == "X":
            beta, k = s[1], t[1]
            _normalize_word(spec, word[:i] + (t, s) + word[i + 2 :], coeff, acc)
            if beta[k] >= 1:
                lowered = list(beta)
                lowered[k] -= 1
                reduced = word[:i] + (("Y", tuple(lowered)),) + word[i + 2 :]
                _normalize_word(spec, reduced, -coeff, acc)
            return
    mono = _word_to_mono(spec, word)
    acc[mono] = acc.get(mono, GaussianRational(0)) + coeff


def brute_product(spec, u: UEAElement, v: UEAElement) -> UEAElement:
    acc: dict = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            word = _mono_to_word(spec, m1) + _mono_to_word(spec, m2)
            _normalize_word(spec, word, c1 * c2, acc)
    return UEAElement(spec, acc)


# ---------------------------------------------------------------------------
# Monomial order
# ---------------------------------------------------------------------------


def test_order_x_below_y(heis) -> None:
    x1 = Monomial((1,), (0, 0))
    y1 = Monomial((0,), (0, 1))
    assert monomial_compare(x1, y1) < 0


def test_order_mixed_below_square(cubic) -> None:
    pos = y_position(cubic)
    y1y3 = Monomial((0,), tuple(0 for _ in index_set(cubic)))
    y = list(y1y3.y)
    y[pos[(1,)]] = 1
    y[pos[(3,)]] = 1
    y1y3 = Monomial((0,), tuple(y))
    y = [0] * len(index_set(cubic))
    y[pos[(2,)]] = 2
    y2sq = Monomial((0,), tuple(y))
    assert monomial_compare(y1y3, y2sq) < 0


def test_order_x_square_below_y_pair(pair_split) -> None:
    pos = y_position(pair_split)
    x_sq = Monomial((2, 0), tuple(0 for _ in index_set(pair_split)))
    y = [0] * len(index_set(pair_split))
    y[pos[(1, 0)]] = 1
    y[pos[(0, 1)]] = 1
    y_pair = Monomial((0, 0), tuple(y))
    assert monomial_compare(x_sq, y_pair) < 0


def test_order_graded_first(quad) -> None:
    low = Monomial((1,), (0, 0, 0))
    high = Monomial((2,), (0, 0, 0))
    assert monomial_compare(low, high) < 0
    assert monomial_compare(high, high) == 0


def test_order_is_total_on_slice(mixed) -> None:
    monos = slice_monomials(mixed, 2)
    keys = [monomial_key(m) for m in monos]
    assert len(set(keys)) == len(keys)


def test_multiplicative_order(cubic) -> None:
    monos = list(monomials_up_to(cubic, 3))
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = rng.sample(monos, 3)
        if monomial_compare(a, b) < 0:
            assert monomial_compare(
                monomial_mul_commuting(a, c), monomial_mul_commuting(b, c)
            ) < 0


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_product_matches_word_rewriting(name: str) -> None:
    spec = make_spec(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(12):
        u = random_element(spec, rng, max_degree=2, terms=2)
        v = random_element(spec, rng, max_degree=2, terms=2)
        assert normal_product(u, v) == brute_product(spec, u, v)


def test_product_known_value(heis) -> None:
    # Y^(1) * X_1 = X_1 Y^(1) - Y^(0)
    y1 = UEAElement.y_gen(heis, (1,))
    x1 = UEAElement.x_gen(heis, 0)
    product = normal_product(y1, x1)
    expected = UEAElement(heis, {Monomial((1,), (0, 1)): ONE, Monomial((0,), (1, 0)): -ONE})
    assert product == expected


def test_mixing_algebras_is_refused(heis, quad) -> None:
    u, v = UEAElement.x_gen(heis, 0), UEAElement.x_gen(quad, 0)
    with pytest.raises(ValueError):
        u + v
    with pytest.raises(ValueError):
        u * v


def test_commutator_values(heis) -> None:
    y1 = UEAElement.y_gen(heis, (1,))
    x1 = UEAElement.x_gen(heis, 0)
    y0 = UEAElement.y_gen(heis, (0,))
    assert commutator(x1, y1) == y0
    assert commutator(y1, x1) == -y0
    assert commutator(x1, y0).is_zero()
    assert commutator(y1, y0).is_zero()


@given(st.integers(min_value=0, max_value=10_000))
def test_product_associative(seed: int) -> None:
    spec = make_spec("mixed")
    rng = random.Random(seed)
    u = random_element(spec, rng, max_degree=1, terms=2)
    v = random_element(spec, rng, max_degree=1, terms=2)
    w = random_element(spec, rng, max_degree=1, terms=2)
    assert normal_product(normal_product(u, v), w) == normal_product(
        u, normal_product(v, w)
    )


@given(st.integers(min_value=0, max_value=10_000))
def test_leading_term_multiplicative(seed: int) -> None:
    spec = make_spec("quad")
    rng = random.Random(seed)
    u = random_element(spec, rng, max_degree=2, terms=2)
    v = random_element(spec, rng, max_degree=2, terms=2)
    if u.is_zero() or v.is_zero():
        return
    (mu, cu), (mv, cv) = leading_term(u), leading_term(v)
    mp, cp = leading_term(normal_product(u, v))
    assert mp == monomial_mul_commuting(mu, mv)
    assert cp == cu * cv


def test_degree_conventions(quad) -> None:
    assert UEAElement.zero(quad).degree() == -1
    assert UEAElement.one(quad).degree() == 0
    assert UEAElement.y_gen(quad, (0,)).degree() == 1
    u = UEAElement.x_gen(quad, 0) + UEAElement.one(quad)
    assert u.degree() == 1
    by_degree = {monomial_degree(m): UEAElement(quad, {m: c}) for m, c in u.terms.items()}
    assert by_degree == {0: UEAElement.one(quad), 1: UEAElement.x_gen(quad, 0)}


def test_slice_monomial_counts(mixed) -> None:
    width = mixed.n + len(index_set(mixed))
    for d in range(4):
        exact = slice_monomials(mixed, d)
        assert len(exact) == math.comb(d + width - 1, width - 1)
        cumulative = list(monomials_up_to(mixed, d))
        assert len(cumulative) == math.comb(d + width, width)


def test_ad_x_is_derivation(mixed) -> None:
    rng = random.Random(5)
    for _ in range(10):
        u = random_element(mixed, rng, max_degree=2, terms=2)
        v = random_element(mixed, rng, max_degree=2, terms=2)
        for k in range(mixed.n):
            lhs = ad_x(mixed, k, normal_product(u, v))
            rhs = normal_product(ad_x(mixed, k, u), v) + normal_product(
                u, ad_x(mixed, k, v)
            )
            assert lhs == rhs
            assert ad_x(mixed, k, u) == commutator(UEAElement.x_gen(mixed, k), u)


# ---------------------------------------------------------------------------
# Star monomials and correction operators
# ---------------------------------------------------------------------------


def test_y_star_values(heis, pair_split) -> None:
    # gamma = 0: the empty product carries i
    assert y_star(heis, (0,)) == UEAElement.one(heis).scale(i_power(1))
    # gamma = (1): coefficient i^0 = 1
    assert y_star(heis, (1,)) == UEAElement.y_gen(heis, (1,))
    # gamma = (2,3): coefficient i^{-4} = 1 on (Y^(1,0))^2 (Y^(0,1))^3
    pos = y_position(pair_split)
    y = [0] * len(index_set(pair_split))
    y[pos[(1, 0)]] = 2
    y[pos[(0, 1)]] = 3
    expected = UEAElement.monomial(pair_split, Monomial((0, 0), tuple(y)))
    assert y_star(pair_split, (2, 3)) == expected


def test_pure_y(quad) -> None:
    assert pure_y(quad, (2,)) == UEAElement.y_gen(quad, (2,))
    mono, coeff = leading_term(pure_y(quad, (0,)))
    assert coeff == ONE
    assert monomial_degree(mono) == 1


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_correction_operator_closed_form(name: str) -> None:
    spec = make_spec(name)
    for beta in index_set(spec):
        assert gamma_apply(spec, beta) == gamma_all(spec, pure_y(spec, beta).scale(i_power(1)))


@given(spec=algebra_specs())
def test_gamma_closed_form_matches_operator_form_on_generated_specs(spec) -> None:
    for beta in index_set(spec):
        assert gamma_apply(spec, beta) == gamma_all(spec, pure_y(spec, beta).scale(i_power(1)))


def test_gamma_apply_refuses_index_outside_the_set(heis) -> None:
    with pytest.raises(ValueError, match="not in the index set"):
        gamma_apply(heis, (2,))


def test_gamma_j_formula(cubic) -> None:
    # single-axis formula: Gamma_j(Y^beta) = sum_k (i^k/k!) (Y^dj)^k Y^{beta-k dj}
    pos = y_position(cubic)
    for beta in index_set(cubic):
        expected = UEAElement.zero(cubic)
        for k in range(beta[0] + 1):
            y = [0] * len(index_set(cubic))
            y[pos[(1,)]] += k
            y[pos[mi_sub(beta, (k,))]] += 1
            coeff = i_power(k) * GaussianRational(f"1/{math.factorial(k)}")
            expected = expected + UEAElement.monomial(
                cubic, Monomial((0,), tuple(y)), coeff
            )
        assert gamma_j(cubic, 0, pure_y(cubic, beta)) == expected


def test_gamma_operators_commute(pair_joint) -> None:
    rng = random.Random(9)
    for _ in range(6):
        u = random_element(pair_joint, rng, max_degree=2, terms=2)
        assert gamma_j(pair_joint, 0, gamma_j(pair_joint, 1, u)) == gamma_j(
            pair_joint, 1, gamma_j(pair_joint, 0, u)
        )


def test_regrouped_closed_form(quad) -> None:
    # for beta != 0 the closed form regroups into star-difference terms
    for beta in index_set(quad):
        if not any(beta):
            continue
        expected = UEAElement.zero(quad)
        for gamma in box(beta):
            rest = mi_sub(beta, gamma)
            sign = i_power(2 * sum(gamma))  # (-1)^{|gamma|}
            coeff = sign * GaussianRational(f"1/{mi_factorial(gamma)}")
            diff = pure_y(quad, rest) - y_star(quad, rest).scale(
                GaussianRational(f"1/{mi_factorial(rest)}")
            )
            expected = expected + normal_product(y_star(quad, gamma), diff).scale(coeff)
        assert gamma_apply(quad, beta) == expected


def test_inversion_identity(quad) -> None:
    # beta! Y^beta - Y*^beta  ==  -i Y*^beta (Y^0 - i)
    #                             - sum_{0 != gamma <= beta} beta!/(beta-gamma)!
    #                               * Y*^{beta-gamma} Gamma(i Y^gamma)
    i_unit = UEAElement.one(quad).scale(i_power(1))
    y0 = pure_y(quad, (0,))
    for beta in index_set(quad):
        lhs = pure_y(quad, beta).scale(mi_factorial(beta)) - y_star(quad, beta)
        rhs = normal_product(y_star(quad, beta), y0 - i_unit).scale(
            GaussianRational(0, -1)
        )
        for gamma in box(beta):
            if not any(gamma):
                continue
            coeff = -GaussianRational(
                f"{mi_factorial(beta)}/{mi_factorial(mi_sub(beta, gamma))}"
            )
            rhs = rhs + normal_product(
                y_star(quad, mi_sub(beta, gamma)), gamma_apply(quad, gamma)
            ).scale(coeff)
        assert lhs == rhs
        # both sides are combinations of kernel generators
        assert rho(quad, lhs).is_zero()


FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(
    spec=algebra_specs(),
    seed=st.integers(min_value=0, max_value=10_000),
    coeffs=st.lists(st.tuples(FRACTIONS, FRACTIONS), min_size=1, max_size=4),
)
def test_ad_x_matches_commutator_on_generated_specs(spec, seed: int, coeffs) -> None:
    monos = random.Random(seed).sample(list(monomials_up_to(spec, 2)), len(coeffs))
    u = UEAElement(spec, {m: GaussianRational(re, im) for m, (re, im) in zip(monos, coeffs)})
    for k in range(spec.n):
        assert ad_x(spec, k, u) == commutator(UEAElement.x_gen(spec, k), u)
