"""The integer-numerator product kernel against a per-term reference.

``weyl_product`` and ``normal_product`` run through ``linalg.product_terms``,
which multiplies Gaussian-integer numerators over one common denominator per
operand.  The references below multiply one ``GaussianRational`` per term, the
way the products were computed before the kernel, so any slip in the common
denominator, the complex cross terms or the dropping of cancelled keys shows
up as a difference in a coefficient or in the support.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from conftest import add_term, make_spec, monomial_mul_commuting
from nilzeta.indices import mi_add
from nilzeta.linalg import product_terms
from nilzeta.scalars import GaussianRational
from nilzeta.uea import Monomial, UEAElement, _push_y_through_x, monomials_up_to, normal_product
from nilzeta.weyl import WeylOperator, ad_chain, ad_power, leibniz, power_ladder, weyl_product

SPECS = {name: make_spec(name) for name in ("heis", "cubic", "mixed")}


def reference_weyl(u: WeylOperator, v: WeylOperator) -> dict:
    out: dict = {}
    for (a1, b1), c1 in u.terms.items():
        for (a2, b2), c2 in v.terms.items():
            c = c1 * c2
            if not any(b1) or not any(a2):
                add_term(out, (mi_add(a1, a2), mi_add(b1, b2)), c)
                continue
            for (mid_a, mid_b), weight in leibniz(b1, a2).items():
                add_term(out, (mi_add(a1, mid_a), mi_add(mid_b, b2)), c * weight)
    return out


def reference_normal(u: UEAElement, v: UEAElement) -> dict:
    out: dict = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            c = c1 * c2
            if not any(m1.y) or not any(m2.x):
                add_term(out, monomial_mul_commuting(m1, m2), c)
                continue
            for mid, weight in _push_y_through_x(u.spec, m1.y, m2.x):
                mono = Monomial(mi_add(m1.x, mid.x), mi_add(mid.y, m2.y))
                add_term(out, mono, c * weight)
    return out


def assert_same_terms(got: dict, want: dict) -> None:
    assert got == want
    assert {m: hash(c) for m, c in got.items()} == {m: hash(c) for m, c in want.items()}
    assert all(not c.is_zero() for c in got.values())


# Real and imaginary parts with independent denominators in 1..12; the kind
# forces pure-real and pure-imaginary coefficients to appear.
_part = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
coefficients = st.builds(
    lambda kind, re, im: GaussianRational(re if kind != "imag" else 0, im if kind != "real" else 0),
    st.sampled_from(("full", "real", "imag")),
    _part,
    _part,
)


def _terms(monomials) -> st.SearchStrategy:
    return st.dictionaries(monomials, coefficients, max_size=4)


@st.composite
def weyl_pairs(draw, max_exponent: int = 2):
    n = SPECS[draw(st.sampled_from(sorted(SPECS)))].n
    exps = st.tuples(*[st.integers(0, max_exponent)] * n)
    monomials = st.tuples(exps, exps)
    return WeylOperator(n, draw(_terms(monomials))), WeylOperator(n, draw(_terms(monomials)))


@st.composite
def uea_pairs(draw):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    monomials = st.sampled_from(list(monomials_up_to(spec, 2)))
    return UEAElement(spec, draw(_terms(monomials))), UEAElement(spec, draw(_terms(monomials)))


@given(weyl_pairs())
def test_weyl_product_matches_per_term_reference(pair) -> None:
    u, v = pair
    product = weyl_product(u, v)
    assert_same_terms(product.terms, reference_weyl(u, v))
    assert (product - weyl_product(u, v)).is_zero()


@given(uea_pairs())
def test_normal_product_matches_per_term_reference(pair) -> None:
    u, v = pair
    product = normal_product(u, v)
    assert_same_terms(product.terms, reference_normal(u, v))
    assert (product - normal_product(u, v)).is_zero()


def binary_power(u: WeylOperator, k: int) -> WeylOperator:
    """u ** k by repeated squaring, the power algorithm the ladder replaced."""
    result, base = WeylOperator.one(u.n), u
    while k:
        if k & 1:
            result = weyl_product(result, base)
        base = weyl_product(base, base)
        k >>= 1
    return result


@given(weyl_pairs(max_exponent=1))
def test_powers_and_ad_chains_match_their_references(pair) -> None:
    # u ** k against the k-fold left-to-right product and repeated squaring
    # (the product is associative, so all three agree); the ladder and the
    # chain entry by entry against **, ad_power and commutators written out
    # here.  Exponents up to 1 keep u ** 4 to a few hundred terms.
    u, x = pair
    ladder, chain = power_ladder(u, 4), ad_chain(u, x, 4)
    assert len(ladder) == len(chain) == 5
    left_to_right, nested = WeylOperator.one(u.n), x
    for k in range(5):
        assert_same_terms((u ** k).terms, left_to_right.terms)
        assert_same_terms(binary_power(u, k).terms, left_to_right.terms)
        assert_same_terms(ladder[k].terms, left_to_right.terms)
        assert_same_terms(chain[k].terms, nested.terms)
        assert_same_terms(ad_power(u, x, k).terms, nested.terms)
        left_to_right = weyl_product(left_to_right, u)
        nested = weyl_product(u, nested) - weyl_product(nested, u)


def test_products_cancel_inside_the_kernel() -> None:
    # (d + x)(d - x) = d^2 - x^2 - 1: the x d terms cancel within one product.
    d, x = WeylOperator.d_op(1, 0), WeylOperator.x_op(1, 0)
    product = weyl_product(d + x, d - x)
    assert_same_terms(product.terms, reference_weyl(d + x, d - x))
    assert len(product.terms) == 3
    # (X + Y1)(X - Y1) = X^2 - Y0 - Y1^2 in heis: the X Y1 terms cancel.
    spec = SPECS["heis"]
    gx, gy = UEAElement.x_gen(spec, 0), UEAElement.y_gen(spec, (1,))
    product = normal_product(gx + gy, gx - gy)
    assert_same_terms(product.terms, reference_normal(gx + gy, gx - gy))
    assert len(product.terms) == 3


def test_product_terms_drops_cancelled_keys_and_handles_empty_operands() -> None:
    def expand(m1, m2):
        return [("sum", 1), (m1 + m2, 1)]

    half_i = GaussianRational(0, Fraction(1, 2))
    # "sum" collects i/2 * 1 + i/2 * (-1) = 0 and must not appear.
    terms = product_terms({"a": half_i}, {"b": GaussianRational(1), "c": GaussianRational(-1)}, expand)
    assert terms == {"ab": half_i, "ac": -half_i}
    assert product_terms({}, {"b": half_i}, expand) == {}
    assert product_terms({"a": half_i}, {}, expand) == {}
