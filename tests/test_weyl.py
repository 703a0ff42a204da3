"""Normal-ordered differential operators and the exact representation.

The sympy application oracle (``apply_weyl`` in conftest) differentiates and
multiplies real polynomials, providing an independent check of the symbolic
composition rule.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given

from nilzeta import GaussianRational, WeylOperator, algebra_spec, commutator, weyl_product
from nilzeta.core import basis, index_set
from nilzeta.indices import mi_factorial
from nilzeta.scalars import ONE, i_power
from nilzeta.uea import UEAElement, monomials_up_to, normal_product, pure_y
from nilzeta.weyl import (
    ad_chain,
    ad_power,
    commutator_power_check,
    delta1,
    delta1_blocks,
    format_weyl,
    monomial_symbol,
    p_op,
    power_ladder,
    q_op,
    rho,
)

from conftest import SPEC_PARAMS, algebra_specs, apply_weyl, laplace_element, make_spec, random_element


def random_weyl(n: int, rng: random.Random, max_order: int = 2, terms: int = 3) -> WeylOperator:
    out = WeylOperator.zero(n)
    for _ in range(terms):
        a = tuple(rng.randint(0, max_order) for _ in range(n))
        b = tuple(rng.randint(0, max_order) for _ in range(n))
        coeff = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        out = out + WeylOperator.monomial(n, a, b, coeff)
    return out


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def test_mixing_variable_counts_is_refused() -> None:
    u, v = WeylOperator.x_op(1, 0), WeylOperator.x_op(2, 0)
    with pytest.raises(ValueError):
        u + v
    with pytest.raises(ValueError):
        u * v


def test_canonical_commutator() -> None:
    x = WeylOperator.x_op(1, 0)
    d = WeylOperator.d_op(1, 0)
    assert commutator(d, x) == WeylOperator.one(1)
    assert weyl_product(x, d) == WeylOperator.monomial(1, (1,), (1,))
    assert weyl_product(d, x) == WeylOperator.monomial(1, (1,), (1,)) + WeylOperator.one(1)


def test_composition_against_sympy_1d() -> None:
    rng = random.Random(21)
    xs = [sympy.Symbol("x1")]
    polys = [xs[0] ** 5 + 2 * xs[0] ** 2 + 1, (1 + xs[0]) ** 4, xs[0] ** 3 - xs[0]]
    for _ in range(15):
        u = random_weyl(1, rng)
        v = random_weyl(1, rng)
        comp = weyl_product(u, v)
        for poly in polys:
            assert sympy.expand(
                apply_weyl(comp, poly, xs) - apply_weyl(u, apply_weyl(v, poly, xs), xs)
            ) == 0


def test_composition_against_sympy_2d() -> None:
    rng = random.Random(22)
    xs = [sympy.Symbol("x1"), sympy.Symbol("x2")]
    poly = (1 + xs[0] + 2 * xs[1]) ** 4
    for _ in range(10):
        u = random_weyl(2, rng, max_order=2, terms=2)
        v = random_weyl(2, rng, max_order=2, terms=2)
        comp = weyl_product(u, v)
        assert sympy.expand(
            apply_weyl(comp, poly, xs) - apply_weyl(u, apply_weyl(v, poly, xs), xs)
        ) == 0


def test_associativity_random() -> None:
    rng = random.Random(23)
    for _ in range(10):
        u, v, w = (random_weyl(1, rng) for _ in range(3))
        assert weyl_product(weyl_product(u, v), w) == weyl_product(u, weyl_product(v, w))


def test_degree_bookkeeping() -> None:
    w = WeylOperator.monomial(2, (2, 0), (1, 1), GaussianRational(1, 1))
    assert w.total_degree() == 4
    assert max(sum(b) for _, b in w.terms) == 2  # the differential order
    assert WeylOperator.zero(2).is_zero()


# ---------------------------------------------------------------------------
# The representation
# ---------------------------------------------------------------------------


def test_rho_generators(heis, quad) -> None:
    # X_k -> -d_k
    assert rho(heis, UEAElement.x_gen(heis, 0)) == -WeylOperator.d_op(1, 0)
    # Y^0 -> i
    assert rho(heis, pure_y(heis, (0,))) == WeylOperator.one(1).scale(i_power(1))
    # Y^(1) -> -i x
    assert rho(heis, pure_y(heis, (1,))) == WeylOperator.x_op(1, 0).scale(
        GaussianRational(0, -1)
    )
    # Y^(2) -> i x^2 / 2
    assert rho(quad, pure_y(quad, (2,))) == WeylOperator.monomial(
        1, (2,), (0,), GaussianRational(0, "1/2")
    )


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_rho_y_scalar(name: str) -> None:
    spec = make_spec(name)
    zero_mi = (0,) * spec.n
    for beta in index_set(spec):
        (mono,) = pure_y(spec, beta).terms
        key, scalar = monomial_symbol(spec, mono)
        assert key == (zero_mi, beta)
        image = rho(spec, pure_y(spec, beta))
        assert image.coefficient(beta, zero_mi) == scalar
        # the scalar is exactly i(-1)^{|beta|}/beta!
        sign = i_power(1) * i_power(2 * sum(beta))
        assert scalar == sign * GaussianRational(f"1/{mi_factorial(beta)}")
    # every monomial: rho(X^p Y^q) = c * d^p o x^gamma
    for mono in monomials_up_to(spec, 2):
        (p, gamma), c = monomial_symbol(spec, mono)
        d_p = WeylOperator.monomial(spec.n, zero_mi, p)
        x_gamma = WeylOperator.monomial(spec.n, gamma, zero_mi)
        assert rho(spec, UEAElement.monomial(spec, mono)) == weyl_product(d_p, x_gamma).scale(c)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_rho_is_homomorphism(name: str) -> None:
    spec = make_spec(name)
    rng = random.Random(hash(name) & 0xFFF)
    for _ in range(8):
        u = random_element(spec, rng, max_degree=2, terms=2)
        v = random_element(spec, rng, max_degree=2, terms=2)
        assert rho(spec, normal_product(u, v)) == weyl_product(rho(spec, u), rho(spec, v))


def test_rho_kills_nothing_linear(heis) -> None:
    # on the linear span of generators, only 0 maps to 0
    for sym in basis(heis):
        elem = (
            UEAElement.x_gen(heis, sym[1])
            if sym[0] == "X"
            else UEAElement.y_gen(heis, sym[1])
        )
        assert not rho(heis, elem).is_zero()


# ---------------------------------------------------------------------------
# The model operator
# ---------------------------------------------------------------------------


def test_delta1_heis(heis) -> None:
    d1 = delta1(heis)
    assert format_weyl(d1) == "2 - d1^2 + x1^2"
    assert d1.coefficient((0,), (0,)) == GaussianRational(2)
    assert d1.coefficient((0,), (2,)) == GaussianRational(-1)
    assert d1.coefficient((2,), (0,)) == ONE


def test_delta1_quad(quad) -> None:
    d1 = delta1(quad)
    assert d1.coefficient((0,), (0,)) == GaussianRational(2)
    assert d1.coefficient((0,), (2,)) == GaussianRational(-1)
    assert d1.coefficient((2,), (0,)) == ONE
    assert d1.coefficient((4,), (0,)) == GaussianRational("1/4")


def test_delta1_real_and_symmetric_shape(mixed) -> None:
    d1 = delta1(mixed)
    for (_a, _b), coeff in d1.sorted_terms():
        assert coeff.im == 0


def _check_delta1_and_its_blocks(spec) -> None:
    # The closed form is rho(1 + laplacian) built by PBW products; the block
    # operators, each even on every axis, put back on their blocks' axes and
    # added to the exact constant 2, are delta1 again.
    d1 = delta1(spec)
    assert d1 == rho(spec, UEAElement.one(spec) + laplace_element(spec))
    const, ops = delta1_blocks(spec)
    assert type(const) is Fraction and const == 2
    zero = (0,) * spec.n
    rebuilt = WeylOperator.one(spec.n).scale(const)
    for block, op in zip(spec.partition, ops):
        assert op.n == len(block)
        for (a, b), coeff in op.terms.items():
            assert all((ai + bi) % 2 == 0 for ai, bi in zip(a, b))
            full_a, full_b = list(zero), list(zero)
            for i, axis in enumerate(block):
                full_a[axis], full_b[axis] = a[i], b[i]
            rebuilt = rebuilt + WeylOperator.monomial(spec.n, full_a, full_b, coeff)
    assert rebuilt == d1


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_delta1_and_its_blocks_match_the_pbw_sum(name) -> None:
    _check_delta1_and_its_blocks(make_spec(name))


@given(algebra_specs())
def test_delta1_and_its_blocks_match_the_pbw_sum_on_generated_specs(spec) -> None:
    _check_delta1_and_its_blocks(spec)


def test_laplace_element_square(heis) -> None:
    lap = laplace_element(heis)
    expected = UEAElement.zero(heis)
    for sym in basis(heis):
        gen = (
            UEAElement.x_gen(heis, sym[1])
            if sym[0] == "X"
            else UEAElement.y_gen(heis, sym[1])
        )
        expected = expected + normal_product(gen, gen)
    assert lap == -expected


def test_p_q_ops() -> None:
    for n, k in ((1, 0), (2, 1)):
        p, q = p_op(n, k), q_op(n, k)
        assert p == -WeylOperator.d_op(n, k)
        assert q == -WeylOperator.x_op(n, k)
        assert commutator(p, q) == WeylOperator.one(n)


# ---------------------------------------------------------------------------
# Iterated commutators
# ---------------------------------------------------------------------------


def test_ad_power_heis(heis) -> None:
    d1 = delta1(heis)
    x = rho(heis, UEAElement.x_gen(heis, 0))  # -d
    assert ad_power(d1, x, 0) == x
    assert ad_power(d1, x, 1) == WeylOperator.x_op(1, 0).scale(2)
    assert ad_power(d1, x, 2) == WeylOperator.d_op(1, 0).scale(-4)


def test_negative_or_non_int_counts_are_refused(heis) -> None:
    d1 = delta1(heis)
    x = rho(heis, UEAElement.x_gen(heis, 0))
    for bad in (-1, 1.5, 2.0):
        with pytest.raises(ValueError):
            d1 ** bad
        with pytest.raises(ValueError):
            power_ladder(d1, bad)
    with pytest.raises(ValueError):
        ad_power(d1, x, -1)
    with pytest.raises(ValueError):
        ad_chain(d1, x, -1)


def test_commutator_power_check_refuses_negative_exponent(heis) -> None:
    d1 = delta1(heis)
    with pytest.raises(ValueError):
        commutator_power_check(d1, rho(heis, UEAElement.x_gen(heis, 0)), -1)


@pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
def test_commutator_power_residual_zero(heis, i: int) -> None:
    d1 = delta1(heis)
    for gen in (
        rho(heis, UEAElement.x_gen(heis, 0)),
        rho(heis, pure_y(heis, (1,))),
        WeylOperator.monomial(1, (1,), (1,)),
    ):
        assert commutator_power_check(d1, gen, i).is_zero()
