"""Kernel ideal: generators, membership, degree slices, canonical forms."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nilzeta import GaussianRational, algebra_spec, build_slice, canonical_form, is_member
from nilzeta.core import index_set, y_position
from nilzeta.expr import parse_expression
from nilzeta.indices import box
from nilzeta.ideal import (
    filtration_min_degree,
    gamma_generators,
    star_generator,
    star_generators,
)
from nilzeta.scalars import ONE, i_power
from nilzeta.uea import (
    Monomial,
    UEAElement,
    monomial_degree,
    monomials_up_to,
    normal_product,
    pure_y,
    slice_monomials,
)
from nilzeta.weyl import WeylOperator, monomial_symbol, rho, weyl_key

from conftest import (
    SPEC_PARAMS,
    algebra_specs,
    first_monomials,
    generated_span_leading,
    leading_monomial_divides,
    leading_term,
    make_spec,
    monomial_mul_commuting,
    random_element,
    reduce_against,
    slice_kernel,
    vec_add_scaled,
    vec_scale,
)


def y_counts(spec, pairs) -> Monomial:
    y = [0] * len(index_set(spec))
    pos = y_position(spec)
    for beta, mult in pairs:
        y[pos[beta]] += mult
    return Monomial((0,) * spec.n, tuple(y))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_generator_images_vanish(name: str) -> None:
    spec = make_spec(name)
    for gen in star_generators(spec) + gamma_generators(spec):
        assert rho(spec, gen).is_zero()
        assert is_member(spec, gen)


def test_star_generator_values(heis, quad) -> None:
    # beta = 0: i - Y^0 up to overall sign
    g0 = star_generator(heis, (0,))
    one_i = UEAElement.one(heis).scale(i_power(1))
    y0 = pure_y(heis, (0,))
    assert g0 in (one_i - y0, y0 - one_i)
    # beta = delta: degenerate (zero) generator
    assert star_generator(heis, (1,)).is_zero()
    # quad beta=(2): -i (Y^(1))^2 - 2 Y^(2) up to overall sign
    g2 = star_generator(quad, (2,))
    expected = UEAElement.monomial(
        quad, y_counts(quad, [((1,), 2)]), GaussianRational(0, -1)
    ) + UEAElement.monomial(quad, y_counts(quad, [((2,), 1)]), GaussianRational(-2))
    assert g2 in (expected, -expected)


def test_membership_oracle(heis) -> None:
    assert is_member(heis, pure_y(heis, (0,)) - UEAElement.one(heis).scale(i_power(1)))
    assert not is_member(heis, UEAElement.x_gen(heis, 0))
    assert is_member(heis, UEAElement.zero(heis))


# ---------------------------------------------------------------------------
# Slices
# ---------------------------------------------------------------------------


def test_heis_degree_one_slice(heis) -> None:
    # the slice holds the exact-degree layer; cumulative views are unions
    chart = build_slice(heis, 1)
    one = Monomial((0,), (0, 0))
    x1 = Monomial((1,), (0, 0))
    y0 = Monomial((0,), (1, 0))
    y1 = Monomial((0,), (0, 1))
    assert set(chart.dependent) == {y0}
    assert set(chart.independent) == {x1, y1}
    assert set(chart.monomials) == {x1, y0, y1}
    zero_chart = build_slice(heis, 0)
    assert set(zero_chart.independent) == {one}
    # cumulative degree <= 1 picture: T = {Y^0}, O = {1, X_1, Y^(1)}
    cumulative_o = set(zero_chart.independent) | set(chart.independent)
    assert cumulative_o == {one, x1, y1}


def test_degree_zero_slice_has_no_dependents(mixed) -> None:
    assert build_slice(mixed, 0).dependent == ()


def test_cubic_mixed_monomial_dependent(cubic) -> None:
    # (Y^(1))^2 is the leading monomial of -i(Y^(1))^2 - 2Y^(2)
    chart = build_slice(cubic, 2)
    assert y_counts(cubic, [((1,), 2)]) in chart.dependent


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_partition_and_kernel_dimension(name: str) -> None:
    spec = make_spec(name)
    for d in range(4):
        chart = build_slice(spec, d)
        assert set(chart.dependent) | set(chart.independent) == set(chart.monomials)
        assert not set(chart.dependent) & set(chart.independent)
        kernel = slice_kernel(spec, d)
        assert len(kernel) == len(chart.dependent)
        for elem in kernel:
            assert rho(spec, elem).is_zero()
            lead, _ = leading_term(elem)
            assert lead in set(chart.dependent)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_dependent_upward_closed_under_divisibility(name: str) -> None:
    spec = make_spec(name)
    for d in range(1, 4):
        dependents_at_d = set(build_slice(spec, d).dependent)
        layer = slice_monomials(spec, d)
        for q in range(1, d + 1):
            for v in build_slice(spec, q).dependent:
                for w in layer:
                    if leading_monomial_divides(v, w):
                        assert w in dependents_at_d, (v, w)


def test_products_of_inner_indices_dependent() -> None:
    # Y^beta Y^gamma with 1 <= beta_i < alpha_i and 1 <= gamma_i < alpha_i
    cases = {
        "quad": [((1,), (1,))],
        "cubic": [((1,), (1,)), ((1,), (2,)), ((2,), (2,))],
        "mixed": [((0, 1), (0, 1))],
    }
    for name, pairs in cases.items():
        spec = make_spec(name)
        dependents = set(build_slice(spec, 2).dependent)
        for beta, gamma in pairs:
            mono = monomial_mul_commuting(
                y_counts(spec, [(beta, 1)]), y_counts(spec, [(gamma, 1)])
            )
            assert mono in dependents, (name, beta, gamma)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def test_canonical_frozen_values(heis, quad) -> None:
    # Y^0 -> i * 1
    can = canonical_form(heis, pure_y(heis, (0,)))
    assert can == UEAElement.one(heis).scale(i_power(1))
    # X_1 already canonical
    x1 = UEAElement.x_gen(heis, 0)
    assert canonical_form(heis, x1) == x1
    # (Y^(1))^2 -> 2i Y^(2)
    sq = UEAElement.monomial(quad, y_counts(quad, [((1,), 2)]))
    assert canonical_form(quad, sq) == pure_y(quad, (2,)).scale(GaussianRational(0, 2))
    # zero passes through
    assert canonical_form(quad, UEAElement.zero(quad)).is_zero()


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_canonical_projection_properties(name: str) -> None:
    spec = make_spec(name)
    rng = random.Random(hash(name) & 0xFFF)
    for _ in range(8):
        u = random_element(spec, rng, max_degree=3, terms=3)
        can = canonical_form(spec, u)
        # idempotent linear projection with kernel I(f)
        assert canonical_form(spec, can) == can
        assert is_member(spec, u - can)
        assert rho(spec, u - can).is_zero()
        # supported on independent monomials (each in its own degree layer)
        for m in can.terms:
            assert m in set(build_slice(spec, monomial_degree(m)).independent)
        assert can.degree() <= u.degree()
        # linearity against a second element
        v = random_element(spec, rng, max_degree=3, terms=2)
        assert canonical_form(spec, u + v) == can + canonical_form(spec, v)


def test_canonical_compatible_with_product_membership(quad) -> None:
    # multiplying a member by anything stays in the ideal
    gen = star_generator(quad, (2,))
    rng = random.Random(17)
    for _ in range(5):
        u = random_element(quad, rng, max_degree=2, terms=2)
        assert is_member(quad, normal_product(u, gen))
        assert is_member(quad, normal_product(gen, u))


def test_canonical_form_refuses_another_algebra(heis, quad) -> None:
    # Y[2] exists on quad only; read against heis's index set, its monomials
    # would name other generators.  Every ideal and representation entry
    # point refuses it alike.
    u = parse_expression("Y[2]^2 + X1*Y[1]", quad)
    for check in (canonical_form, is_member, rho):
        with pytest.raises(ValueError, match="element belongs to a different algebra"):
            check(heis, u)


# ---------------------------------------------------------------------------
# Filtration solve
# ---------------------------------------------------------------------------


def test_filtration_min_degree_frozen(heis) -> None:
    x = rho(heis, pure_y(heis, (1,)).scale(i_power(1)))  # x1
    assert filtration_min_degree(heis, x**2) == 2
    assert filtration_min_degree(heis, x) == 1
    assert filtration_min_degree(heis, rho(heis, UEAElement.one(heis))) == 0
    assert filtration_min_degree(heis, rho(heis, UEAElement.zero(heis))) == 0


def test_filtration_min_degree_refuses_another_variable_count(heis) -> None:
    # x2^5 lives on two variables; heis has one.
    with pytest.raises(ValueError, match="2 variables, the algebra 1"):
        filtration_min_degree(heis, WeylOperator.monomial(2, (0, 5), (0, 0)))


def test_filtration_min_degree_cap(heis) -> None:
    x = rho(heis, pure_y(heis, (1,)).scale(i_power(1)))
    x7 = x**7
    assert filtration_min_degree(heis, x7, cap=6) is None
    assert filtration_min_degree(heis, x7, cap=7) == 7


def test_deep_degrees_in_closed_form(cubic) -> None:
    # degrees no sweep over the smaller monomials reaches
    x = rho(cubic, pure_y(cubic, (1,)).scale(i_power(1)))
    x300 = x**300
    assert filtration_min_degree(cubic, x300, cap=99) is None
    assert filtration_min_degree(cubic, x300, cap=100) == 100
    # (Y^(2))^600 and (Y^(3))^400 share the key gamma = 1200; c = 2^-600 and 6^-400
    u = UEAElement.monomial(cubic, y_counts(cubic, [((2,), 600)]))
    lead = y_counts(cubic, [((3,), 400)])
    can = canonical_form(cubic, u)
    assert can == UEAElement.monomial(cubic, lead, Fraction(3**400, 2**200))
    assert rho(cubic, can) == rho(cubic, u)


# ---------------------------------------------------------------------------
# Generator-set equivalence and divisibility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_generator_sets_generate_same_leading_data(name: str) -> None:
    spec = make_spec(name)
    star, gamma = star_generators(spec), gamma_generators(spec)
    cumulative_kernel = 0
    for d in range(5):
        cumulative_kernel += len(build_slice(spec, d).dependent)
        dim_star, lead_star = generated_span_leading(spec, star, d)
        dim_gamma, lead_gamma = generated_span_leading(spec, gamma, d)
        assert dim_star == dim_gamma
        assert lead_star == lead_gamma
        # sanity: the generated span sits inside the kernel up to degree d
        assert dim_star <= cumulative_kernel


def test_leading_monomial_divides() -> None:
    spec = make_spec("cubic")
    sq = y_counts(spec, [((1,), 2)])
    cube = y_counts(spec, [((1,), 3)])
    mixed_m = y_counts(spec, [((1,), 1), ((2,), 1)])
    assert leading_monomial_divides(sq, cube)
    assert not leading_monomial_divides(cube, sq)
    assert not leading_monomial_divides(sq, mixed_m)
    assert leading_monomial_divides(Monomial((0,), (0, 0, 0, 0)), sq)


def test_groebner_gap_regression(cubic) -> None:
    """A dependent monomial no generator leading term divides.

    Y^(1)Y^(2) leads the kernel element Y^(1)Y^(2) - 3i Y^(3) yet is divisible
    by no star-generator leading monomial; slice elimination still classifies
    it and reduces it correctly.
    """
    mixed_m = y_counts(cubic, [((1,), 1), ((2,), 1)])
    combo = UEAElement.monomial(cubic, mixed_m) - pure_y(cubic, (3,)).scale(
        GaussianRational(0, 3)
    )
    assert rho(cubic, combo).is_zero()
    assert mixed_m in set(build_slice(cubic, 2).dependent)
    for gen in star_generators(cubic):
        if gen.is_zero():
            continue
        lead, _ = leading_term(gen)
        assert not leading_monomial_divides(lead, mixed_m)
    assert canonical_form(cubic, UEAElement.monomial(cubic, mixed_m)) == pure_y(
        cubic, (3,)
    ).scale(GaussianRational(0, 3))


# ---------------------------------------------------------------------------
# Oracle: Weyl-side elimination
# ---------------------------------------------------------------------------

# Degrees up to which the symbol classification is checked against elimination.
ORACLE_DEGREE = {1: 6, 2: 4}


def elimination_sweep(spec, degree: int):
    """Classify monomials by row-reducing their rho images over Q(i).

    Each monomial's image is reduced against the pivot rows of the smaller
    monomials: a vanishing residual marks it dependent, and the pivot
    preimages used give its canonical form.  Returns, per degree, the
    dependent monomials, the independent ones and the canonical forms, plus
    the pivot rows keyed by leading Weyl monomial as (row, creating degree).
    """
    pivots: dict = {}  # lead -> (unit row, preimage, creating degree)
    slices = []
    for d in range(degree + 1):
        dependent, independent, canonical = [], [], {}
        for mono in slice_monomials(spec, d):
            image = rho(spec, UEAElement.monomial(spec, mono))
            rows = {k: row for k, (row, _, _) in pivots.items()}
            residual, used = reduce_against(image.terms, rows, weyl_key)
            combo: dict = {}
            for lead, coeff in used.items():
                vec_add_scaled(combo, pivots[lead][1], coeff)
            if not residual:
                dependent.append(mono)
                canonical[mono] = combo
                continue
            lead = max(residual, key=weyl_key)
            inv = residual[lead].inverse()
            preimage = {mono: ONE}
            vec_add_scaled(preimage, combo, -ONE)
            pivots[lead] = (vec_scale(residual, inv), vec_scale(preimage, inv), d)
            independent.append(mono)
        slices.append((tuple(dependent), tuple(independent), canonical))
    return slices, {k: (row, d) for k, (row, _, d) in pivots.items()}


def elimination_min_degree(pivots: dict, w: WeylOperator, cap: int):
    """Least q <= cap whose pivot rows reduce w to zero, or None."""
    for q in range(cap + 1):
        rows = {k: row for k, (row, d) in pivots.items() if d <= q}
        residual, _ = reduce_against(w.terms, rows, weyl_key)
        if not residual:
            return q
    return None


def assert_slices_match_elimination(spec, top: int) -> dict:
    """Compare build_slice with elimination_sweep up to ``top``; return its pivots."""
    slices, pivots = elimination_sweep(spec, top)
    for d, (dependent, independent, canonical) in enumerate(slices):
        chart = build_slice(spec, d)
        assert chart.dependent == dependent
        assert chart.independent == independent
        expected = tuple(
            UEAElement(spec, {m: ONE}) - UEAElement(spec, canonical[m]) for m in dependent
        )
        assert slice_kernel(spec, d) == expected
    return pivots


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_symbol_classification_matches_elimination(name: str) -> None:
    spec = make_spec(name)
    top = ORACLE_DEGREE[spec.n]
    pivots = assert_slices_match_elimination(spec, top)
    rng = random.Random(hash(name) & 0xFFF)
    for _ in range(12):
        w = rho(spec, random_element(spec, rng, max_degree=top, terms=3))
        for _ in range(rng.randint(0, 2)):
            a = tuple(rng.randint(0, 3) for _ in range(spec.n))
            b = tuple(rng.randint(0, 2) for _ in range(spec.n))
            w = w + WeylOperator.monomial(spec.n, a, b, GaussianRational(rng.randint(1, 3)))
        for cap in (top - 1, top):
            assert filtration_min_degree(spec, w, cap) == elimination_min_degree(pivots, w, cap)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
@given(seed=st.integers(0, 2**32 - 1), in_ideal=st.booleans(), noise=st.booleans())
def test_is_member_matches_image(name: str, seed: int, in_ideal: bool, noise: bool) -> None:
    spec = make_spec(name)
    rng = random.Random(seed)
    u = UEAElement.zero(spec)
    if in_ideal:
        for m in rng.sample(list(monomials_up_to(spec, 3)), 3):
            elem = UEAElement.monomial(spec, m)
            coeff = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            u = u + (elem - canonical_form(spec, elem)).scale(coeff)
    if noise or not in_ideal:
        u = u + random_element(spec, rng, max_degree=3, terms=2)
    assert is_member(spec, u) == rho(spec, u).is_zero()


# ---------------------------------------------------------------------------
# Oracle: the ascending sweep, on generated algebras
# ---------------------------------------------------------------------------

# Generated algebras are checked up to degree 4 against the sweep and 2
# against elimination, each lowered until the monomials up to it number at
# most the budget: a joint 3-axis block with alpha = 3 has 64 Y generators.
SWEEP_DEGREE, SWEEP_BUDGET = 4, 2500
ELIMINATION_DEGREE, ELIMINATION_BUDGET = 2, 500


def budget_degree(spec, top: int, budget: int) -> int:
    """The largest degree <= top with at most ``budget`` monomials up to it."""
    count = spec.n + len(index_set(spec))
    return max(d for d in range(top + 1) if math.comb(count + d, d) <= budget)


@given(spec=algebra_specs())
@example(spec=algebra_spec(3, (2, 1, 3), [[0, 2], [1]]))
@example(spec=algebra_spec(3, (2, 1, 2), [[0, 1, 2]]))
@example(spec=algebra_spec(2, (3, 1), [[0, 1]]))
def test_closed_form_matches_sweep_on_generated_specs(spec) -> None:
    top = budget_degree(spec, SWEEP_DEGREE, SWEEP_BUDGET)
    first = first_monomials(spec, top)
    for d in range(top + 1):
        chart = build_slice(spec, d)
        leads = {m: first[monomial_symbol(spec, m)[0]] for m in chart.monomials}
        assert chart.independent == tuple(m for m in chart.monomials if leads[m] == m)
        assert chart.dependent == tuple(m for m in chart.monomials if leads[m] != m)
        for m, lead in leads.items():
            ratio = monomial_symbol(spec, m)[1] / monomial_symbol(spec, lead)[1]
            expected = UEAElement.monomial(spec, lead, ratio)
            assert canonical_form(spec, UEAElement.monomial(spec, m)) == expected
    # a lone term x^gamma d^p needs exactly its key's first degree
    for p in box((1,) * spec.n):
        for gamma in box(tuple(a + 1 for a in spec.alpha)):
            w = WeylOperator.monomial(spec.n, gamma, p)
            lead = first.get((p, gamma))
            if lead is None:
                assert filtration_min_degree(spec, w, top) is None
                continue
            level = monomial_degree(lead)
            assert filtration_min_degree(spec, w, level) == level
            assert filtration_min_degree(spec, w, level - 1) is None
    assert_slices_match_elimination(
        spec, budget_degree(spec, ELIMINATION_DEGREE, ELIMINATION_BUDGET)
    )
