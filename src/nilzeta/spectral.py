"""Numeric spectral verification: Galerkin eigenvalues, growth fits, zeta sums.

The Schroedinger-type operator produced by :func:`~nilzeta.weyl.delta1` is
discretized in the Hermite-function basis.  Per-axis diagonals come from the
ladder recursion at an enlarged size (basis size plus the operator's total
degree), so every entry written into the basis-size matrix is exact up to
float rounding; the truncated problem is therefore a genuine Rayleigh-Ritz
restriction and eigenvalues decrease monotonically in the basis size.

delta1 is an exact constant plus one operator per partition block, each
acting on its own block's axes; the split comes from the exact layer
(:func:`~nilzeta.weyl.delta1_blocks`), and the constant becomes a float only
where the spectra are summed.  So delta1's matrix on the tensor basis is a
Kronecker sum: eigenvalues combine by a Minkowski sum and eigenvectors by
tensor products.
Every term of delta1 is even in every axis, so a block's matrix is the direct
sum of its 2^axes per-axis parity sectors, each assembled and solved on its
own; a block is never built whole.  Solves whose sector matrices or sums
would exceed ``MAX_SOLVE_ENTRIES`` are refused before anything is assembled.

Convergence is certified by doubling: an eigenvalue counts as converged when
it moves relatively less than a drift tolerance between the basis size and
its double.  Fits of the converged spectrum give the growth exponent, the
abscissa of convergence of the eigenvalue power series, and tail estimates
for truncated zeta values — the estimates are reported, never silently added.
Estimates and fits are frozen values; nothing is cached between calls.

The residue at the leading pole is given in closed form where one exists:
an arithmetic spectrum a + d*k has zeta d^z * zeta_H(-z, a/d), whose only
pole, at z = -1, has residue -1/d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Optional

import numpy as np

from .core import AlgebraSpec
from .weyl import WeylOperator, _on_block, delta1_blocks


# ---------------------------------------------------------------------------
# Exact-entry Galerkin assembly
# ---------------------------------------------------------------------------

# The largest number of float entries one spectral solve may hold: the
# entries of one dense Hermite (sector) matrix as allocated, or the length of
# the Minkowski sum of block spectra.  Larger ones are refused.
MAX_SOLVE_ENTRIES = 1 << 24


def _refuse_above_cap(entries: int, what: str) -> None:
    if entries > MAX_SOLVE_ENTRIES:
        raise ValueError(
            f"{what} would hold {entries} float entries, above the cap of "
            f"{MAX_SOLVE_ENTRIES}; lower the basis size"
        )


def _ladder_step(diags: dict, s: np.ndarray, sign: float) -> dict:
    """x @ M (sign +1) or d @ M (sign -1), with M stored by diagonals.

    ``diags[k][i]`` is M[i, i + k] (zero where i + k is off the matrix), and
    ``s[i] = sqrt((i + 1) / 2)`` is <h_i | x | h_{i+1}>.  Row i of the product
    is s[i] * (row i+1 of M) + sign * s[i-1] * (row i-1 of M), so diagonal k
    feeds diagonals k + 1 and k - 1: O(size) work per diagonal.
    """
    out: dict = {}
    for k, v in diags.items():
        up = out.setdefault(k + 1, np.zeros_like(v))
        up[:-1] += s * v[1:]
        down = out.setdefault(k - 1, np.zeros_like(v))
        down[1:] += sign * s * v[:-1]
    return out


def hermite_matrix(w: WeylOperator, basis_size: int, parity: Optional[tuple] = None) -> np.ndarray:
    """Galerkin matrix of a Weyl operator in the Hermite-function basis.

    ``basis_size`` counts basis functions per axis (total basis_size**n).
    Each per-axis factor ``x^a d^b`` is built by the ladder recursion on its
    a + b + 1 diagonals at size basis_size + total_degree, so every entry
    equals the exact infinite-basis matrix element (up to float rounding).
    For each term and each choice of one diagonal per axis, the product of
    those diagonals is added straight into the basis-size matrix.  A result
    of more than ``MAX_SOLVE_ENTRIES`` entries is refused.

    With ``parity`` (0 or 1 per axis) only that sector is built: the principal
    submatrix on the h_i with every i_j = parity[j] (mod 2), by stride 2 and
    halved diagonals.  A term with an odd a_j + b_j couples sectors and is refused,
    and so, before anything is built, is a parity that is not one 0 or 1 per axis.
    """
    n = w.n
    if basis_size < 1:
        raise ValueError("basis size must be positive")
    if parity is not None and (len(parity) != n or any(p not in (0, 1) for p in parity)):
        raise ValueError(f"parity {tuple(parity)} is not one 0 or 1 per axis of {n} axes")
    step, offsets = (1, (0,) * n) if parity is None else (2, parity)
    axes = [np.arange(p, basis_size, step) for p in offsets]  # basis indices kept per axis
    _refuse_above_cap(math.prod(map(len, axes)) ** 2, "the Hermite matrix")
    size = basis_size + max(w.total_degree(), 0)
    s = np.sqrt(np.arange(1, size) / 2.0)

    def factor(a: int, b: int) -> dict:
        """x^a d^b on one axis by diagonals: d applied b times, then x a times."""
        diags = {0: np.ones(size)}
        for _ in range(b):
            diags = _ladder_step(diags, s, -1.0)
        for _ in range(a):
            diags = _ladder_step(diags, s, 1.0)
        return diags

    real = all(coeff.im == 0 for coeff in w.terms.values())
    mat = np.zeros(tuple(len(i) for i in axes) * 2, dtype=float if real else complex)
    for (a, b), coeff in w.terms.items():
        if any((ai + bi) % step for ai, bi in zip(a, b)):
            raise ValueError(f"a term of odd degree on an axis has no parity sector {parity}")
        c = float(coeff.re) if real else complex(coeff)
        for diags in iter_product(*(factor(*ab).items() for ab in zip(a, b))):
            ks, vs = zip(*diags)
            kept = [i[(i >= -k) & (i < basis_size - k)] for i, k in zip(axes, ks)]
            rows = np.ix_(*((i - p) // step for i, p in zip(kept, offsets)))
            values = functools.reduce(np.multiply.outer, [v[i] for v, i in zip(vs, kept)])
            mat[rows + tuple(r + k // step for r, k in zip(rows, ks))] += c * values
    mat = mat.reshape((math.prod(mat.shape[:n]),) * 2)
    return mat.real.copy() if not real and not np.any(mat.imag) else mat


# ---------------------------------------------------------------------------
# Eigenvalues with doubling-certified convergence
# ---------------------------------------------------------------------------

# How many of the lowest eigenvalues a JSON report lists.
_JSON_HEAD = 10


@dataclass(frozen=True, eq=False)
class SpectralEstimate:
    """Converged spectrum of the algebra's Schroedinger-type operator.

    ``eigenvalues`` is the read-only converged ascending prefix (refined
    values from the doubled basis).  Growth fits are separate values, made
    by :func:`fit_growth`.
    """

    spec: AlgebraSpec
    basis_size: int
    drift_tol: float
    eigenvalues: np.ndarray

    @property
    def converged_count(self) -> int:
        return len(self.eigenvalues)

    def to_json_dict(self) -> dict:
        return {
            "basis_size": self.basis_size,
            "drift_tol": self.drift_tol,
            "converged": self.converged_count,
            "eigenvalues_head": [float(v) for v in self.eigenvalues[:_JSON_HEAD]],
        }


def _minkowski(combine: np.ufunc, start: Fraction | float, parts: list) -> np.ndarray:
    """``combine`` of ``start`` with one entry of each part, for every index
    tuple in row-major order: with ``np.add``, delta1's exact constant and
    block eigenvalues, the Kronecker sum's spectrum; with ``np.multiply``,
    tensor-product elements.  ``start`` is made a float here, where floats begin."""
    total = np.array([float(start)])
    for part in parts:
        total = combine.outer(total, part).ravel()
    return total


def _sector_solves(
    ops: list[WeylOperator], basis_size: int, solve, reduce=lambda k, p, solved: solved
) -> list:
    """``solve(sector matrix)`` for each parity sector of each block operator
    ``ops[k]`` at ``basis_size``, passed through ``reduce(k, parity, solved)``:
    one list per block, in row-major parity order.  Each sector's
    matrix, and then its solution, is dropped before the next sector is built.
    An operator with a term odd on an axis couples sectors and is refused by
    :func:`hermite_matrix`."""
    return [
        [reduce(k, p, solve(hermite_matrix(op, basis_size, p)))
         for p in iter_product((0, 1), repeat=op.n)]
        for k, op in enumerate(ops)
    ]


def _eigvals(const: Fraction, ops: list[WeylOperator], basis_size: int) -> np.ndarray:
    """Ascending eigenvalues of the truncated ``const + sum(ops)`` (one operator per
    block): the sorted sums ``const + l1[i] + l2[j] + ...``, each block solved by sector."""
    solves = _sector_solves(ops, basis_size, np.linalg.eigvalsh)
    return np.sort(_minkowski(np.add, const, [np.concatenate(solve) for solve in solves]))


def _doubled(basis_size: int) -> int:
    """The basis size whose solve certifies, and refines, one at ``basis_size``."""
    return 2 * basis_size


def eigenvalues(
    spec: AlgebraSpec, basis_size: int, drift_tol: float = 1e-8
) -> SpectralEstimate:
    """Eigenvalues converged under basis doubling.

    An eigenvalue is converged when its relative drift between basis sizes N
    and 2N is below ``drift_tol``; only the contiguous prefix counts.  A basis
    size below 1, or a request whose doubled solve would exceed ``MAX_SOLVE_ENTRIES``,
    raises ValueError before anything is assembled: the largest sector of an n-axis
    block at the doubled size holds basis_size**(2n) entries.
    """
    if basis_size < 1:
        raise ValueError("basis size must be positive")
    const, ops = delta1_blocks(spec)
    doubled = _doubled(basis_size)
    for op in ops:
        what = f"a {op.n}-axis parity sector matrix at the doubled basis size {doubled}"
        _refuse_above_cap(basis_size ** (2 * op.n), what)
    _refuse_above_cap(doubled**spec.n, f"the spectrum at the doubled basis size {doubled}")
    coarse = _eigvals(const, ops, basis_size)
    fine = _eigvals(const, ops, doubled)[: len(coarse)]
    drifted = np.abs(coarse - fine) > drift_tol * np.maximum(1.0, np.abs(fine))
    converged = fine[: np.argmax(drifted) if drifted.any() else len(fine)].copy()
    converged.flags.writeable = False
    return SpectralEstimate(spec, basis_size, drift_tol, converged)


MIN_FIT_COUNT = 50


@dataclass(frozen=True)
class GrowthFit:
    """Power law lambda_k ~ C k^theta fitted to a converged spectrum.

    ``abscissa`` (-1/theta) is where sum lambda_k^z stops converging and
    ``schatten_order`` (2/theta) is the critical Schatten order of the
    inverse square root.
    """

    theta: float
    growth_constant: float
    fit_residual: float
    abscissa: float
    schatten_order: float

    def to_json_dict(self) -> dict:
        """Every field but ``growth_constant``, which reports do not list."""
        keys = ("theta", "abscissa", "fit_residual", "schatten_order")
        return {key: getattr(self, key) for key in keys}


def fit_growth(est: SpectralEstimate) -> GrowthFit:
    """Least-squares power-law fit over the top half of the converged spectrum.

    Fits log lambda_k = log C + theta log k (k the 1-based rank); the residual
    is the root-mean-square misfit in log lambda.  Requires at least
    ``MIN_FIT_COUNT`` converged eigenvalues.
    """
    count = est.converged_count
    if count < MIN_FIT_COUNT:
        raise ValueError(
            f"only {count} converged eigenvalues; need at least {MIN_FIT_COUNT} "
            f"for a growth fit - increase the basis size"
        )
    lo = count // 2
    ranks = np.arange(lo + 1, count + 1, dtype=float)
    vals = est.eigenvalues[lo:]
    if np.any(vals <= 0):
        raise ValueError("non-positive eigenvalue in fit window")
    xs, ys = np.log(ranks), np.log(vals)
    theta, log_c = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (theta * xs + log_c)) ** 2)))
    theta = float(theta)
    return GrowthFit(theta, float(math.exp(log_c)), resid, -1.0 / theta, 2.0 / theta)


def leading_residue(est: SpectralEstimate) -> Optional[float]:
    """Residue of the eigenvalue zeta at its leading pole, in closed form.

    When the converged spectrum is an arithmetic progression a + d*k (at
    least ten values, spacings equal within 1e-8) the zeta is
    d^z * zeta_H(-z, a/d), whose only pole is z = -1 with residue exactly
    -1/d.  Otherwise there is no closed form here and the result is None.
    """
    diffs = np.diff(est.eigenvalues)
    d = float(np.mean(diffs)) if len(diffs) >= 9 else 0.0
    arithmetic = d > 0 and float(np.max(np.abs(diffs - d))) < 1e-8
    return -1.0 / d if arithmetic else None


# ---------------------------------------------------------------------------
# Truncated zeta values with tail estimates
# ---------------------------------------------------------------------------

_TAIL_SAFETY = 1.25


def _diagonal_weights(est: SpectralEstimate, x_weight: WeylOperator) -> np.ndarray:
    """``<v_k | x_weight | v_k>`` for the eigenvectors behind ``est.eigenvalues``.

    The eigenvectors of a Kronecker sum are tensor products of block
    eigenvectors, and each monomial ``x^a d^b`` is the tensor product of its
    factors on the blocks, so every diagonal element is a product of
    per-block elements.  The blocks are solved at the doubled basis size that
    produced the estimate, sector by sector, and each sector's elements are
    taken as soon as it is solved, so one sector's eigenvectors are held at a
    time.  The products are sorted like its eigenvalues; a term odd on an axis
    maps each sector into another, so its elements are zero and it is skipped.
    """
    spec = est.spec
    if x_weight.n != spec.n:
        raise ValueError("weight operator has the wrong variable count")
    size = _doubled(est.basis_size)
    terms = [(a, b, coeff) for (a, b), coeff in x_weight.terms.items()
             if not any((ai + bi) % 2 for ai, bi in zip(a, b))]

    def elements(k: int, p: tuple, solved) -> tuple:
        """A sector's eigenvalues and, per even term, its diagonal elements."""
        vals, v = solved
        block = spec.partition[k]
        factors = (WeylOperator.monomial(len(block), *_on_block(block, a, b)) for a, b, _ in terms)
        return vals, [np.einsum("ik,ik->k", v.conj(), hermite_matrix(f, size, p) @ v) for f in factors]

    const, ops = delta1_blocks(spec)
    solves = _sector_solves(ops, size, np.linalg.eigh, elements)
    block_vals = [np.concatenate([vals for vals, _ in solve]) for solve in solves]
    order = np.argsort(_minkowski(np.add, const, block_vals))
    weights = np.zeros(len(order), dtype=complex)
    for t, (_, _, coeff) in enumerate(terms):
        per_block = [np.concatenate([diags[t] for _, diags in solve]) for solve in solves]
        weights += complex(coeff) * _minkowski(np.multiply, 1.0, per_block)
    return weights[order[: est.converged_count]]


def zeta_value(
    est: SpectralEstimate, z: complex, x_weight: Optional[WeylOperator] = None
) -> tuple[complex, float]:
    """Truncated spectral zeta value with an estimate of the dropped tail.

    Returns ``(value, tail_bound)`` where ``value`` sums lambda_k^z over the
    converged eigenvalues of ``est`` (weighted by the diagonal matrix
    elements of ``x_weight`` in the eigenbasis when given) and ``tail_bound``
    is the tail of the fitted growth law times a 1.25 safety factor: an
    estimate, not a proven bound.  It is reported, not added.  Requires Re z
    strictly left of the fitted abscissa; otherwise the series diverges and
    the request is refused with a pointer to the pole lattice.
    """
    z = complex(z)
    fit = fit_growth(est)
    if z.real >= fit.abscissa:
        raise ValueError(
            f"Re z = {z.real} is not left of the fitted convergence abscissa "
            f"{fit.abscissa:.6f}; the truncated series does not converge there. "
            f"Pole locations to the right are predicted by the pole lattice "
            f"(reduction.pole_lattice / the 'poles' CLI command)."
        )
    vals = est.eigenvalues
    count = len(vals)
    weights = np.ones(count) if x_weight is None else _diagonal_weights(est, x_weight)
    powered = np.exp(z * np.log(vals))
    value = complex(np.sum(powered * weights))

    u = fit.theta * z.real  # < -1 by the precondition
    w_bar = float(np.max(np.abs(weights[max(0, count - count // 10 - 1):])))
    tail = _TAIL_SAFETY * w_bar * (fit.growth_constant ** z.real) * (count - 1) ** (u + 1) / (-u - 1)
    return value, float(tail)
