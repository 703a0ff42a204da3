"""Numeric spectral verification: Galerkin matrices, growth fits, zeta values.

Independent oracles used here:

* the Hermite functions diagonalize 2 - d^2 + x^2 exactly, so its Galerkin
  matrix must be diag(2k + 3) to float precision and the converged spectrum
  an exact arithmetic progression;
* ``mpmath.zeta`` supplies reference values for truncated zeta values
  (lambda_k = 2k + 3 gives zeta(z) = 2^z * zeta_H(-z, 3/2) in closed form,
  whose residue at its one pole z = -1 is -1/2);
* Rayleigh-Ritz monotonicity: eigenvalue approximations from nested basis
  sizes decrease toward the true values;
* a dense reference assembly (``reference_hermite_matrix``: matrix powers of
  the ladder matrices and Kronecker products on the full tensor basis) for
  the diagonal-by-diagonal assembly, and dense eigensolves of the full tensor matrix
  for the per-block Minkowski-sum spectra and the per-block weighted zeta sums;
* <h_k | x^2 | h_k> = k + 1/2 gives the heis zeta weighted by X1^2 in closed form;
* the full Galerkin matrix, whose principal submatrices the parity sectors
  must equal bitwise, and whose entries between sectors must be exactly zero.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nilzeta.spectral as spectral
from conftest import SPEC_PARAMS, make_spec
from nilzeta import algebra_spec
from nilzeta.reduction import physical_abscissa
from nilzeta.scalars import GaussianRational
from nilzeta.spectral import (
    MIN_FIT_COUNT,
    GrowthFit,
    _diagonal_weights,
    _eigvals,
    eigenvalues,
    fit_growth,
    hermite_matrix,
    leading_residue,
    zeta_value,
)
from nilzeta.weyl import WeylOperator, delta1, delta1_blocks

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# Galerkin matrices
# ---------------------------------------------------------------------------


def test_hermite_matrix_position_frozen() -> None:
    # <h_j | x | h_k> is sqrt((k+1)/2) on the first off-diagonals.
    m = hermite_matrix(WeylOperator.x_op(1, 0), 2)
    expected = np.array([[0.0, 2**-0.5], [2**-0.5, 0.0]])
    assert np.allclose(m, expected, atol=1e-15)


def test_hermite_matrix_oscillator_diagonal(heis) -> None:
    # The Hermite functions are exact eigenfunctions of 2 - d^2 + x^2.
    m = hermite_matrix(delta1(heis), 40)
    expected = np.diag(2.0 * np.arange(40) + 3.0)
    assert np.allclose(m, expected, atol=1e-10)


def test_hermite_matrix_derivative_antisymmetric() -> None:
    m = hermite_matrix(WeylOperator.d_op(1, 0), 6)
    assert np.allclose(m, -m.T, atol=1e-14)
    assert m[0, 1] == pytest.approx(2**-0.5, abs=1e-14)


def test_hermite_matrix_truncation_consistent(quad) -> None:
    # Entries must equal the infinite-basis matrix elements: the leading
    # block may not change when the requested size grows.
    small = hermite_matrix(delta1(quad), 8)
    large = hermite_matrix(delta1(quad), 16)
    assert np.allclose(small, large[:8, :8], atol=1e-12)


def test_hermite_matrix_two_axes(pair_split) -> None:
    m = hermite_matrix(delta1(pair_split), 6)
    assert m.shape == (36, 36)
    assert np.allclose(m, m.T, atol=1e-12)


def test_hermite_matrix_three_axes() -> None:
    # Three axes are assembled, not refused.  The oscillator sum
    # sum_k (x_k^2 - d_k^2) is diagonal with entries sum_k (2 j_k + 1) on the
    # row-major tensor basis, and a term on all three axes is the Kronecker
    # product of its one-axis matrices.
    z = (0, 0, 0)
    terms = {}
    for k in range(3):
        e = tuple(2 if i == k else 0 for i in range(3))
        terms[(e, z)] = GaussianRational(1)
        terms[(z, e)] = GaussianRational(-1)
    m = hermite_matrix(WeylOperator(3, terms), 4)
    assert m.shape == (64, 64)
    expected = [sum(2 * j + 1 for j in js) for js in np.ndindex(4, 4, 4)]
    assert np.allclose(m, np.diag(expected), atol=1e-12)

    mixed = hermite_matrix(WeylOperator.monomial(3, (1, 0, 2), (0, 1, 0)), 4)
    one_axis = [
        hermite_matrix(WeylOperator.monomial(1, (a,), (b,)), 4) for a, b in [(1, 0), (0, 1), (2, 0)]
    ]
    assert np.allclose(mixed, np.kron(np.kron(*one_axis[:2]), one_axis[2]), atol=1e-12)


def reference_hermite_matrix(w: WeylOperator, basis_size: int) -> np.ndarray:
    """Dense assembly: powers of the ladder matrices by matrix products, one
    Kronecker product per term on the full tensor basis, then truncation."""
    n = w.n
    size = basis_size + max(w.total_degree(), 0)
    lower = np.zeros((size, size))
    for k in range(1, size):
        lower[k - 1, k] = math.sqrt(k)
    x_mat = (lower + lower.T) / math.sqrt(2.0)
    d_mat = (lower - lower.T) / math.sqrt(2.0)
    max_exp = max((max(a + b) for a, b in w.terms), default=0)
    x_pows, d_pows = [np.eye(size)], [np.eye(size)]
    for _ in range(max_exp):
        x_pows.append(x_pows[-1] @ x_mat)
        d_pows.append(d_pows[-1] @ d_mat)
    full = np.zeros((size**n, size**n), dtype=complex)
    for (a, b), coeff in w.terms.items():
        term = np.ones((1, 1))
        for i in range(n):
            term = np.kron(term, x_pows[a[i]] @ d_pows[b[i]])
        full += complex(coeff) * term
    idx = [np.ravel_multi_index(ks, (size,) * n) for ks in np.ndindex(*(basis_size,) * n)]
    sub = full[np.ix_(idx, idx)]
    return sub.real.copy() if np.allclose(sub.imag, 0.0, atol=0.0) else sub


_gaussian = st.builds(
    GaussianRational,
    st.integers(-3, 3),
    st.sampled_from([0, 0, 1, -2]),
)


@st.composite
def hermite_cases(draw) -> tuple[WeylOperator, int]:
    """A Weyl operator on 1 to 3 axes and a basis size, small enough on three
    axes that the dense reference stays at most 10^6 complex entries."""
    n = draw(st.sampled_from([1, 2, 3]))
    top, most = (3, 6) if n < 3 else (1, 4)
    exps = st.tuples(*[st.integers(0, top)] * n)
    terms = draw(st.dictionaries(st.tuples(exps, exps), _gaussian, min_size=1, max_size=5))
    return WeylOperator(n, terms), draw(st.integers(1, most))


@given(hermite_cases())
def test_hermite_matrix_matches_dense_reference(case) -> None:
    w, basis_size = case
    got = hermite_matrix(w, basis_size)
    want = reference_hermite_matrix(w, basis_size)
    assert got.shape == want.shape
    assert np.iscomplexobj(got) == np.iscomplexobj(want)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(want))))


@st.composite
def parity_cases(draw) -> tuple[WeylOperator, int]:
    """A Weyl operator on 1 to 3 axes whose every term has an even a_j + b_j on
    every axis, or a block operator of a standard algebra, and a basis size."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(SPEC_PARAMS)))
        op = draw(st.sampled_from(delta1_blocks(make_spec(name))[1]))
        return op, draw(st.integers(1, 12))
    n = draw(st.sampled_from([1, 2, 3]))
    exps = st.tuples(*[st.integers(0, 3 if n < 3 else 2)] * n)
    even = st.tuples(exps, exps).map(
        lambda ab: (ab[0], tuple(bj + (aj + bj) % 2 for aj, bj in zip(*ab)))
    )
    terms = draw(st.dictionaries(even, _gaussian, min_size=1, max_size=5))
    return WeylOperator(n, terms), draw(st.integers(1, 9 if n < 3 else 5))


@given(parity_cases())
def test_parity_sectors_are_exact_principal_submatrices(case) -> None:
    # Each sector is the full matrix restricted, bitwise, to the basis
    # functions of its per-axis parities (row-major), every entry between two
    # sectors is exactly zero, and a term odd on an axis is refused per sector.
    w, basis_size = case
    full = hermite_matrix(w, basis_size)
    parities = np.array(list(np.ndindex(*(basis_size,) * w.n))) % 2
    for p in product((0, 1), repeat=w.n):
        inside = np.flatnonzero((parities == p).all(axis=1))
        assert np.array_equal(hermite_matrix(w, basis_size, p), full[np.ix_(inside, inside)])
    across = (parities[:, None, :] != parities[None, :, :]).any(axis=2)
    assert np.all(full[across] == 0.0)
    axis_x = tuple(1 if i == 0 else 0 for i in range(w.n))
    odd = WeylOperator(w.n, {**w.terms, (axis_x, (0,) * w.n): GaussianRational(1)})
    for p in product((0, 1), repeat=w.n):
        with pytest.raises(ValueError, match="odd degree"):
            hermite_matrix(odd, basis_size, p)


def test_basis_size_zero_refused_per_sector(quad) -> None:
    with pytest.raises(ValueError, match="basis size must be positive"):
        hermite_matrix(delta1(quad), 0, (0,))
    with pytest.raises(ValueError, match="basis size must be positive"):
        eigenvalues(quad, 0)


@pytest.mark.parametrize("name", ["pair_split", "mixed", "cubic", "pair_joint"])
@pytest.mark.parametrize("basis_size", [1, 3, 8, 12])
def test_block_spectrum_matches_full_tensor_solve(name, basis_size) -> None:
    # delta1 is a Kronecker sum over the blocks, and each block the direct sum
    # of its parity sectors, so the sorted sums of sector eigenvalues are the
    # eigenvalues of the full tensor-basis matrix (at basis size 1 every odd
    # sector is empty).
    spec = make_spec(name)
    full = np.linalg.eigvalsh(hermite_matrix(delta1(spec), basis_size))
    const, ops = delta1_blocks(spec)
    np.testing.assert_allclose(_eigvals(const, ops, basis_size), full, rtol=1e-10)


def test_block_with_an_odd_term_is_refused(heis, monkeypatch) -> None:
    # Every block is solved by parity sector, and an x term couples the
    # sectors, so a block carrying one is refused rather than solved.
    const, (op,) = delta1_blocks(heis)
    shifted = op + WeylOperator.x_op(1, 0)
    monkeypatch.setattr(spectral, "delta1_blocks", lambda spec: (const, [shifted]))
    with pytest.raises(ValueError, match="odd degree"):
        eigenvalues(heis, 64)


def test_hermite_matrix_allocates_nothing_larger_than_its_result(pair_joint) -> None:
    # pair_joint's 2-axis block: the per-axis diagonals go straight into the
    # basis-size matrix, with no enlarged or Kronecker-product intermediate.
    (op,) = delta1_blocks(pair_joint)[1]
    tracemalloc.start()
    try:
        mat = hermite_matrix(op, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.shape == (1600, 1600)
    assert peak <= 1.5 * mat.nbytes


def test_sector_solves_allocate_no_full_block(quad) -> None:
    # quad's block at the doubled size 800 is solved as two 400 x 400
    # sectors; no 800 x 800 matrix (5.12 MB) is ever held.
    tracemalloc.start()
    try:
        eigenvalues(quad, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 800 * 800 * 8


def test_eigenvalues_assemble_through_the_module_global(pair_split, monkeypatch) -> None:
    # The benchmark's matrix-size figure comes from wrapping
    # spectral.hermite_matrix, so every sector solve must look it up there;
    # delta1 is split into blocks once per call, and each block into its
    # even and odd sectors.
    assembled, inner = [], spectral.hermite_matrix
    splits, inner_split = [], spectral.delta1_blocks

    def recorder(w, basis_size, parity=None):
        assembled.append((w.n, basis_size, parity))
        return inner(w, basis_size, parity)

    def counted_split(spec):
        splits.append(spec)
        return inner_split(spec)

    monkeypatch.setattr(spectral, "hermite_matrix", recorder)
    monkeypatch.setattr(spectral, "delta1_blocks", counted_split)
    eigenvalues(pair_split, 8)
    sectors = [(1, size, (p,)) for size in (8, 16) for _block in range(2) for p in (0, 1)]
    assert assembled == sectors
    assert splits == [pair_split]


# ---------------------------------------------------------------------------
# Eigenvalue estimates
# ---------------------------------------------------------------------------


def test_heis_spectrum_is_arithmetic(heis) -> None:
    est = eigenvalues(heis, 200)
    assert est.converged_count == 200
    ks = np.arange(est.converged_count)
    assert np.max(np.abs(est.eigenvalues - (2.0 * ks + 3.0))) < 1e-10


def test_quad_ground_levels_regression(quad) -> None:
    # Doubling-converged levels of 2 - d^2 + x^2 + x^4/4, pinned once from
    # a verified run and protected against silent drift.
    est = eigenvalues(quad, 400)
    assert est.converged_count >= 100
    assert est.eigenvalues[0] == pytest.approx(3.141901839539, abs=1e-6)
    assert est.eigenvalues[1] == pytest.approx(5.639482049885, abs=1e-6)
    assert est.eigenvalues[2] == pytest.approx(8.500905725743, abs=1e-6)


@pytest.mark.parametrize(
    "name,basis_size,converged",
    [
        ("heis", 200, 200),
        ("quad", 400, 100),
        ("cubic", 400, 70),
        ("pair_split", 24, 323),
        ("pair_joint", 30, 19),
        ("pair_joint", 40, 54),
    ],
)
def test_converged_counts_regression(name, basis_size, converged) -> None:
    # pinned from the solves the sector solves replaced: the full tensor basis,
    # and for pair_joint its whole 2-axis block (3600 x 3600 at the doubled
    # size); pair_joint at 40 from the sector solves with the size cap lifted,
    # before the cap counted sectors
    assert eigenvalues(make_spec(name), basis_size).converged_count == converged


def test_three_singleton_axes_solve_by_blocks() -> None:
    spec = algebra_spec(3, (1, 2, 1))
    est = eigenvalues(spec, 24)
    # the ground level is 2 plus the block ground levels: 1 + 1.1419.. + 1
    assert est.converged_count > 0
    assert est.eigenvalues[0] == pytest.approx(5.141901839539, abs=1e-6)


def test_oversized_solve_refused_before_assembly(pair_joint, monkeypatch) -> None:
    # pair_joint's one 2-axis block at basis 2 * 128 has a largest parity sector
    # of 128^2 rows, so 128^4 = 2^28 entries; the refusal must come before
    # anything is assembled.
    def no_assembly(w, basis_size):
        raise AssertionError("assembly started before the size check")

    monkeypatch.setattr(spectral, "hermite_matrix", no_assembly)
    with pytest.raises(ValueError, match="above the cap"):
        eigenvalues(pair_joint, 128)


def test_estimate_and_fit_are_frozen(heis) -> None:
    est = eigenvalues(heis, 64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.basis_size = 32
    with pytest.raises(ValueError, match="read-only"):
        est.eigenvalues[0] = 0.0
    fit = fit_growth(est)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fit.theta = 1.0
    # each call solves afresh and leaves earlier results as they were
    again = eigenvalues(heis, 64)
    assert again is not est
    np.testing.assert_array_equal(again.eigenvalues, est.eigenvalues)
    assert fit_growth(again) == fit


def test_rayleigh_ritz_monotonicity(quad) -> None:
    # Nested Galerkin subspaces: raw approximations decrease with basis size
    # (checked on unconverged spectra, where the drop is far above float
    # noise: the level-4 value at size 8 is still off by ~0.9).
    levels = [np.linalg.eigvalsh(hermite_matrix(delta1(quad), n))[:5] for n in (8, 16, 32)]
    assert np.all(levels[0] >= levels[1] - 1e-12)
    assert np.all(levels[1] >= levels[2] - 1e-12)
    assert levels[0][4] - levels[2][4] > 0.5


def test_fit_fields_empty_until_fit(heis) -> None:
    # the estimate carries no fit; fit_growth returns its own value
    est = eigenvalues(heis, 64, drift_tol=1e-9)
    assert not hasattr(est, "theta") and not hasattr(est, "abscissa")
    fit = fit_growth(est)
    assert isinstance(fit, GrowthFit)
    lo = est.converged_count // 2  # the fit window is the top half
    ranks = np.arange(lo + 1, est.converged_count + 1, dtype=float)
    theta, log_c = np.polyfit(np.log(ranks), np.log(est.eigenvalues[lo:]), 1)
    assert fit.theta == pytest.approx(theta, rel=1e-12)
    assert fit.growth_constant == pytest.approx(math.exp(log_c), rel=1e-12)
    assert fit.abscissa == -1.0 / fit.theta
    assert fit.schatten_order == 2.0 / fit.theta
    assert 0 < fit.fit_residual < 0.05
    assert fit.to_json_dict() == {
        "theta": fit.theta,
        "abscissa": fit.abscissa,
        "fit_residual": fit.fit_residual,
        "schatten_order": fit.schatten_order,
    }


def test_fit_requires_minimum_count(heis) -> None:
    est = eigenvalues(heis, 16)
    assert est.converged_count < MIN_FIT_COUNT
    with pytest.raises(ValueError):
        fit_growth(est)


def test_to_json_dict_shape(heis) -> None:
    est = eigenvalues(heis, 200)
    d = est.to_json_dict()
    assert set(d) == {"basis_size", "drift_tol", "converged", "eigenvalues_head"}
    assert set(fit_growth(est).to_json_dict()) == {
        "theta",
        "abscissa",
        "fit_residual",
        "schatten_order",
    }
    assert d["basis_size"] == 200
    assert d["converged"] == 200
    assert len(d["eigenvalues_head"]) == 10
    assert d["eigenvalues_head"][:4] == pytest.approx([3.0, 5.0, 7.0, 9.0], abs=1e-10)


# ---------------------------------------------------------------------------
# Growth fit, abscissa, residue
# ---------------------------------------------------------------------------


def test_heis_abscissa_and_residue(heis) -> None:
    est = eigenvalues(heis, 200)
    abscissa = fit_growth(est).abscissa
    assert abscissa == pytest.approx(-1.0, abs=0.02)
    assert abscissa == pytest.approx(float(physical_abscissa(heis)), abs=0.02)
    # lambda_k = 3 + 2k: the eigenvalue zeta is 2^z zeta_H(-z, 3/2) with a
    # simple pole at z = -1 of residue -1/2.
    assert leading_residue(est) == pytest.approx(-0.5, abs=1e-12)


def test_quad_abscissa_no_residue(quad) -> None:
    est = eigenvalues(quad, 400)
    abscissa = fit_growth(est).abscissa
    assert abscissa == pytest.approx(-0.75, abs=0.05)
    assert abscissa == pytest.approx(float(physical_abscissa(quad)), abs=0.05)
    assert leading_residue(est) is None  # spectrum is not an arithmetic progression


# ---------------------------------------------------------------------------
# Zeta values with tail bounds
# ---------------------------------------------------------------------------


def exact_heis_zeta(z: complex) -> complex:
    return complex(mpmath.power(2, z) * mpmath.zeta(-z, mpmath.mpf(3) / 2))


def test_zeta_value_honest_tail_bound(heis) -> None:
    est = eigenvalues(heis, 200)
    for z, tail_cap in ((-2.0, 2e-3), (-3.0, 1e-5)):
        value, tail = zeta_value(est, z)
        assert 0 < tail < tail_cap
        assert abs(value - exact_heis_zeta(z)) <= tail


def test_zeta_value_complex_argument(heis) -> None:
    z = complex(-2.0, 0.5)
    value, tail = zeta_value(eigenvalues(heis, 200), z)
    assert abs(value - exact_heis_zeta(z)) <= tail


def test_zeta_value_identity_weight_matches_unweighted(heis) -> None:
    est = eigenvalues(heis, 200)
    plain, _ = zeta_value(est, -2.0)
    weighted, _ = zeta_value(est, -2.0, WeylOperator.one(1))
    assert weighted == pytest.approx(plain, rel=1e-12)


def test_zeta_value_identity_weight_on_two_blocks(mixed) -> None:
    # mixed at its default basis: per-block eigenvectors, no full tensor solve
    est = eigenvalues(mixed, 128)
    plain, plain_tail = zeta_value(est, -3.0)
    weighted, weighted_tail = zeta_value(est, -3.0, WeylOperator.one(2))
    assert weighted == pytest.approx(plain, rel=1e-12)
    assert weighted_tail == pytest.approx(plain_tail, rel=1e-12)
    # a constant weight scales the value and the tail estimate alike
    tripled, tripled_tail = zeta_value(est, -3.0, WeylOperator.monomial(2, (0, 0), (0, 0), 3))
    assert tripled == pytest.approx(3 * plain, rel=1e-12)
    assert tripled_tail == pytest.approx(3 * plain_tail, rel=1e-12)


def test_zeta_value_weighted_heis_closed_form(heis) -> None:
    # <h_k | x^2 | h_k> = k + 1/2 = ((2k + 3) - 2) / 2, so the weighted sum is
    # 1/2 * 2^(z+1) zeta_H(-z-1, 3/2) - 2^z zeta_H(-z, 3/2)
    z = -6.0
    value, _ = zeta_value(eigenvalues(heis, 200), z, WeylOperator.monomial(1, (2,), (0,)))
    half = mpmath.mpf(3) / 2
    exact = mpmath.power(2, z) * mpmath.zeta(-z - 1, half) - mpmath.power(2, z) * mpmath.zeta(-z, half)
    assert value.imag == 0.0
    assert value.real == pytest.approx(float(exact), rel=1e-6)


FULL_TENSOR_WEIGHTS = {
    "pair_split": WeylOperator(
        2,
        {
            ((2, 0), (0, 0)): GaussianRational(1),
            ((1, 1), (0, 0)): GaussianRational(-1, 2),
            ((0, 0), (0, 2)): GaussianRational(3),
            ((0, 4), (0, 0)): GaussianRational(1, 3),
        },
    ),
    "quad": WeylOperator(
        1, {((2,), (0,)): GaussianRational(1), ((1,), (1,)): GaussianRational(0, 1)}
    ),
}


@pytest.mark.parametrize("name,basis_size", [("pair_split", 12), ("quad", 64)])
def test_diagonal_weights_match_full_tensor_solve(name, basis_size) -> None:
    # Reference: eigenvectors of the full tensor-basis matrix at the doubled
    # size (quad's converged vectors still move by ~1e-8 between N and 2N).
    # pair_split's two equal blocks make exact ties, whose eigenvectors either
    # solve may rotate, so weights are compared summed over each cluster.
    spec, weight = make_spec(name), FULL_TENSOR_WEIGHTS[name]
    est = eigenvalues(spec, basis_size)
    vals, vecs = np.linalg.eigh(hermite_matrix(delta1(spec), 2 * basis_size))
    mat = hermite_matrix(weight, 2 * basis_size)
    want = np.einsum("ik,ik->k", vecs.conj(), mat @ vecs)
    got = _diagonal_weights(est, weight)
    assert len(got) == est.converged_count
    np.testing.assert_allclose(vals[: est.converged_count], est.eigenvalues, rtol=1e-10)
    starts = [0] + [k for k in range(1, len(vals)) if vals[k] - vals[k - 1] > 1e-8 * vals[k]]
    clusters = [(a, b) for a, b in zip(starts, starts[1:]) if b <= est.converged_count]
    assert len(clusters) >= 10
    for a, b in clusters:
        assert np.sum(got[a:b]) == pytest.approx(np.sum(want[a:b]), rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("basis_size", [20, 24])
def test_diagonal_weights_hold_one_sector_at_a_time(pair_joint, basis_size) -> None:
    # pair_joint's 2-axis block at the doubled size has four parity sectors of
    # basis_size**2 rows each.  Each sector's weight elements are taken as soon
    # as it is solved, so its eigenvectors, one weight matrix and their product
    # are the most held at once; holding every sector's eigenvectors peaks at 6x.
    est = eigenvalues(pair_joint, basis_size)
    weight = WeylOperator.monomial(2, (2, 0), (0, 0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _diagonal_weights(est, weight)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * basis_size**4 * 8


def test_zeta_value_weight_needs_matching_variables(pair_split) -> None:
    with pytest.raises(ValueError, match="variable count"):
        zeta_value(eigenvalues(pair_split, 12), -4.0, WeylOperator.one(1))


def test_zeta_value_refuses_divergent_request(heis) -> None:
    with pytest.raises(ValueError, match="abscissa"):
        zeta_value(eigenvalues(heis, 200), -0.5)
