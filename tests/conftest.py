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

``apply_weyl`` turns a :class:`~nilzeta.weyl.WeylOperator` into its action on
a sympy polynomial; it is an independent route used to cross-check the
symbolic composition rules against actual differentiation.
"""

from __future__ import annotations

import json

import pytest
import sympy
from hypothesis import HealthCheck, settings

from nilzeta import AlgebraSpec, GaussianRational, WeylOperator, algebra_spec
from nilzeta.uea import Monomial, UEAElement, monomials_up_to

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
