"""The exact structural checks behind ``nilzeta verify``: the table :data:`CHECKS` of
``(name, check)``, each ``check(spec, max_degree)`` giving None or a counterexample.
:func:`run_verify` runs them in order; a counterexample or a raised exception is
that check's ``fail`` entry."""

from __future__ import annotations

import math
import random

from .core import AlgebraSpec, _refuse_large_basis, index_set, index_set_size, jacobi_check
from .ideal import build_slice, gamma_generators, star_generators
from .indices import box, mi_delta, mi_factorial, mi_sub
from .reduction import (
    _canonical_factor, _reduced_descent, _weights, b_polynomial, lagrange_identity_check,
    reduction_data, t_s,
)
from .scalars import GaussianRational, Rat, i_power
from .uea import Monomial, UEAElement, gamma_all, gamma_apply, monomials_up_to, pure_y, y_star
from .weyl import rho

# Most ordered monomials up to the degree that one verify run may sweep;
# larger requests are refused before any check runs.
MAX_VERIFY_MONOMIALS = 5000


def check_jacobi(spec: AlgebraSpec, max_degree: int) -> str | None:
    jacobi_check(spec)
    return None


def check_generators(spec: AlgebraSpec, max_degree: int) -> str | None:
    for gen in star_generators(spec) + gamma_generators(spec):
        if not rho(spec, gen).is_zero():
            return f"nonvanishing image: {gen}"
    return None


def check_closed_form(spec: AlgebraSpec, max_degree: int) -> str | None:
    for beta in index_set(spec):
        if gamma_all(spec, pure_y(spec, beta).scale(i_power(1))) != gamma_apply(spec, beta):
            return f"internal inconsistency: operator and closed forms differ for beta={beta}"
    return None


def check_inversion(spec: AlgebraSpec, max_degree: int) -> str | None:
    i_unit = UEAElement.one(spec).scale(i_power(1))
    y0 = pure_y(spec, (0,) * spec.n)
    for beta in index_set(spec):
        lhs = pure_y(spec, beta).scale(mi_factorial(beta)) - y_star(spec, beta)
        rhs = (y_star(spec, beta) * (y0 - i_unit)).scale(GaussianRational(0, -1))
        for gamma in box(beta):
            if not any(gamma):
                continue
            coeff = -GaussianRational(Rat(mi_factorial(beta), mi_factorial(mi_sub(beta, gamma))))
            rhs = rhs + (y_star(spec, mi_sub(beta, gamma)) * gamma_apply(spec, gamma)).scale(coeff)
        if lhs != rhs:
            return f"inversion identity fails for beta={beta}"
    return None


def check_first_order(spec: AlgebraSpec, max_degree: int) -> str | None:
    """g_{delta_k,0} t = x_k t and g_{0,delta_k} t = (the k-weight of t's Y part) t: the
    canonical g-table's column k, or n + k, against the scalar times column 2n (t)."""
    idx, n = index_set(spec), spec.n
    for mono in monomials_up_to(spec, max_degree):
        for k in range(n):
            weight = sum(mult * idx[pos][k] for pos, mult in enumerate(mono.y) if mult)
            for side, column, scalar in (("a", k, mono.x[k]), ("b", n + k, weight)):
                weights = _weights(*mi_delta(2 * n, column), -scalar)
                if _canonical_factor(spec, "g", weights, mono)[1]:
                    return f"{side}-part fails for {UEAElement.monomial(spec, mono)}, k={k + 1}"
    return None


def check_eigen_relation(spec: AlgebraSpec, max_degree: int) -> str | None:
    """g_ab t = c t on the independent monomials, (a, b, c) from :func:`reduction_data`."""
    for d in range(max_degree + 1):
        for mono in build_slice(spec, d).independent:
            choice = reduction_data(spec, mono)
            weights = _weights(*choice.a, *choice.b, -choice.eigenvalue)
            if _canonical_factor(spec, "g", weights, mono)[1]:
                return f"eigen-relation fails for {UEAElement.monomial(spec, mono)}"
    return None


def check_shift(spec: AlgebraSpec, max_degree: int) -> str | None:
    """h_ab t - g_ab t = 2n t at all-ones weights."""
    n = spec.n
    h_weights, g_weights = _weights(*(1,) * 2 * n, -2 * n), _weights(*(-1,) * 2 * n, 0)
    for mono in monomials_up_to(spec, max_degree):
        dh, h_rows = _canonical_factor(spec, "h", h_weights, mono)
        dg, g_rows = _canonical_factor(spec, "g", g_weights, mono)
        # the two weighed tables cancel: h_rows / dh = -g_rows / dg, row by row
        if {(m, re * dg, im * dg) for m, re, im in h_rows} != {
                (m, -re * dh, -im * dh) for m, re, im in g_rows}:
            return f"shift identity fails for {UEAElement.monomial(spec, mono)}"
    return None


def check_annihilation(spec: AlgebraSpec, max_degree: int) -> str | None:
    # h_s and g_s kill the independent degree-s monomials modulo the kernel ideal;
    # h_s sends every other one (any power of Y^0, say) *down* the degree filtration.
    # Both are asserted on canonical forms, zero exactly on the ideal.
    for s in range(max_degree + 1):
        chart = build_slice(spec, s)
        for mono in chart.monomials:
            element = UEAElement.monomial(spec, mono)
            h_image = _reduced_descent(spec, s, "h", element)
            if mono in chart.independent:
                if h_image:
                    return f"degree-{s} annihilation fails for {element}"
                if _reduced_descent(spec, s, "g", element):
                    return f"degree-{s} g-annihilation fails for {element}"
            if h_image.degree() > s - 1:
                return f"degree-{s} descent fails for {element}"
    return None


def check_diagram(spec: AlgebraSpec, max_degree: int) -> str | None:
    rng = random.Random(7)
    monos = list(monomials_up_to(spec, max_degree))
    for s in range(max_degree + 1):
        for _ in range(5):
            u = UEAElement(spec, {m: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                                  for m in rng.sample(monos, min(4, len(monos)))})
            # rho kills the kernel ideal, by which the reduced descent differs from h_s(u)
            if t_s(spec, s, rho(spec, u)) != rho(spec, _reduced_descent(spec, s, "h", u)):
                return f"diagram fails at s={s}"
    return None


def check_interpolation(spec: AlgebraSpec, max_degree: int) -> str | None:
    poly = b_polynomial(spec)
    for q in (0, 1, 2):
        lagrange_identity_check(poly, 2, q, poly.degree() + 2)
    return None


CHECKS = (
    ("jacobi-identity", check_jacobi),
    ("generator-images-vanish", check_generators),
    ("correction-closed-form", check_closed_form),
    ("inversion-identity", check_inversion),
    ("first-order-commutation", check_first_order),
    ("eigen-relation", check_eigen_relation),
    ("operator-shift", check_shift),
    ("degree-annihilation", check_annihilation),
    ("descent-diagram", check_diagram),
    ("interpolation-identity", check_interpolation),
)


def run_verify(spec: AlgebraSpec, max_degree: int = 3) -> dict:
    """Run the checks of :data:`CHECKS` up to a monomial degree; return a report.

    Raises ValueError, before the index set or any check is built, when the
    monomials up to the degree, C(n + |index set| + d, d), number more than
    ``MAX_VERIFY_MONOMIALS``, or the basis more than ``core.MAX_BASIS_SYMBOLS``
    symbols.
    """
    count = math.comb(spec.n + index_set_size(spec) + max_degree, max_degree)
    if count > MAX_VERIFY_MONOMIALS:
        raise ValueError(
            f"verify would sweep {count} monomials up to degree {max_degree}, "
            f"more than {MAX_VERIFY_MONOMIALS}; lower --max-degree"
        )
    _refuse_large_basis(spec)
    checks = []
    for name, check in CHECKS:
        try:
            counterexample = check(spec, max_degree)
        except Exception as exc:  # noqa: BLE001 - failures become report entries
            counterexample = str(exc)
        checks.append({"name": name, "status": "pass"} if counterexample is None else
                      {"name": name, "status": "fail", "counterexample": counterexample})
    return {
        "spec": spec.to_json_dict(),
        "max_degree": max_degree,
        "checks": checks,
        "all_passed": all(c["status"] == "pass" for c in checks),
    }
