"""The verify check table: each check alone, and the report entries of planted faults."""

from __future__ import annotations

import pytest

from nilzeta import reduction, verify
from nilzeta.expr import format_element
from nilzeta.uea import monomial_degree
from nilzeta.verify import CHECKS, run_verify


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_each_check_passes_alone(heis, mixed, name, check) -> None:
    for spec in (heis, mixed):
        assert check(spec, 2) is None, (name, spec)


def test_checks_table_order() -> None:
    assert [name for name, _ in CHECKS] == [
        "jacobi-identity", "generator-images-vanish", "correction-closed-form",
        "inversion-identity", "first-order-commutation", "eigen-relation", "operator-shift",
        "degree-annihilation", "descent-diagram", "interpolation-identity",
    ]


def failures(spec, max_degree: int = 2) -> dict:
    """The failing entries of a verify report, by check name."""
    report = run_verify(spec, max_degree)
    assert report["all_passed"] is False
    return {c["name"]: c for c in report["checks"] if c["status"] == "fail"}


def fail(name: str, counterexample: str) -> dict:
    return {"name": name, "status": "fail", "counterexample": counterexample}


def off_by_t(weights: tuple) -> tuple:
    """The :func:`reduction._weights` of a factor plus the identity: -shift raised by 1."""
    den, nums = weights
    re, im = nums[-1]
    return den, nums[:-1] + ((re + den, im),)


def test_first_order_fault_names_the_first_monomial_and_axis(mixed, monkeypatch) -> None:
    # g_{0,delta_2} off by t on degree-2 monomials: X1^2, the first of them in
    # monomial order, fails its b-part at k = 2 after passing both parts at k = 1
    def canonical_factor(spec, form, weights, mono):
        b_axis_2 = reduction._weights(0, 0, 0, 1, 0)[1][:-1]
        if form == "g" and weights[1][:-1] == b_axis_2 and monomial_degree(mono) == 2:
            weights = off_by_t(weights)
        return reduction._canonical_factor(spec, form, weights, mono)

    monkeypatch.setattr(verify, "_canonical_factor", canonical_factor)
    assert failures(mixed) == {
        "first-order-commutation": fail("first-order-commutation", "b-part fails for X1^2, k=2"),
    }


def test_eigen_relation_fault(heis, monkeypatch) -> None:
    def reduction_data(spec, mono):
        choice = reduction.reduction_data(spec, mono)
        if sum(mono.x) + sum(mono.y) < 2:
            return choice
        return choice._replace(eigenvalue=choice.eigenvalue + 1)

    monkeypatch.setattr(verify, "reduction_data", reduction_data)
    assert failures(heis) == {
        "eigen-relation": fail("eigen-relation", "eigen-relation fails for X1^2"),
    }


def test_operator_shift_fault(mixed, monkeypatch) -> None:
    # h_ab off by t on degree-1 monomials
    def canonical_factor(spec, form, weights, mono):
        if form == "h" and monomial_degree(mono) == 1:
            weights = off_by_t(weights)
        return reduction._canonical_factor(spec, form, weights, mono)

    monkeypatch.setattr(verify, "_canonical_factor", canonical_factor)
    assert failures(mixed) == {
        "operator-shift": fail("operator-shift", "shift identity fails for X1"),
    }


@pytest.mark.parametrize("form, planted, message", [
    ("h", "X1", "degree-1 annihilation fails for X1"),
    ("g", "X1", "degree-1 g-annihilation fails for X1"),
    ("h", "Y[0]", "degree-1 descent fails for Y[0]"),
])
def test_annihilation_fault(heis, monkeypatch, form, planted, message) -> None:
    # the reduced descent of one form off by t on one degree-1 monomial: X1 is
    # independent, so it must go to zero; Y[0] is not, so it must lose a degree
    def reduced_descent(spec, s, f, u):
        out = reduction._reduced_descent(spec, s, f, u)
        return out + u if f == form and format_element(u) == planted else out

    monkeypatch.setattr(verify, "_reduced_descent", reduced_descent)
    assert failures(heis) == {"degree-annihilation": fail("degree-annihilation", message)}


@pytest.mark.parametrize("name", ["heis", "mixed"])
def test_descent_diagram_fault(request, monkeypatch, name) -> None:
    # the operator-side descent off by w at s = 1: only the diagram compares it
    def t_s(spec, s, w):
        out = reduction.t_s(spec, s, w)
        return out + w if s == 1 else out

    monkeypatch.setattr(verify, "t_s", t_s)
    assert failures(request.getfixturevalue(name)) == {
        "descent-diagram": fail("descent-diagram", "diagram fails at s=1"),
    }


def test_a_raising_check_is_its_failure_entry(heis, monkeypatch) -> None:
    def b_polynomial(spec):
        raise ValueError("no b-polynomial")

    monkeypatch.setattr(verify, "b_polynomial", b_polynomial)
    assert failures(heis, 1) == {
        "interpolation-identity": fail("interpolation-identity", "no b-polynomial"),
    }
