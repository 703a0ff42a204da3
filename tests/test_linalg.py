"""Sparse exact linear algebra over the Gaussian rationals."""

from __future__ import annotations

import importlib
import pkgutil
import random

import nilzeta
from nilzeta.linalg import IMAGE_CACHE_SIZE
from nilzeta.scalars import ONE, ZERO, GaussianRational

from conftest import (
    add_term,
    kernel_basis,
    reduce_against,
    reduce_fraction_free,
    vec_add_scaled,
    vec_scale,
)


def gr(re: int, im: int = 0) -> GaussianRational:
    return GaussianRational(re, im)


def test_vec_add_scaled_drops_cancellations() -> None:
    target = {"a": gr(1), "b": gr(2)}
    vec_add_scaled(target, {"a": gr(-1), "c": gr(3)}, ONE)
    assert target == {"b": gr(2), "c": gr(3)}
    add_term(target, "d", gr(0, 1))
    assert target["d"] == gr(0, 1)
    add_term(target, "d", gr(0, -1))
    assert "d" not in target
    add_term(target, "d", gr(5))
    assert target == {"b": gr(2), "c": gr(3), "d": gr(5)}


def test_vec_scale() -> None:
    assert vec_scale({"a": gr(2)}, gr(0, 1)) == {"a": gr(0, 2)}
    assert vec_scale({"a": gr(2)}, ZERO) == {}


def test_reduce_against_full_elimination() -> None:
    pivots = {"b": {"b": gr(1), "a": gr(2)}}
    residual, used = reduce_against({"b": gr(3)}, pivots, key_order=str)
    assert residual == {"a": gr(-6)}
    assert set(used) == {"b"}


def test_reduce_fraction_free_is_a_multiple_of_reduce_against() -> None:
    # Same rows over Z[i] (lead coefficient 2 + i) and normalised over Q(i).
    rows = {"c": {"c": (2, 1), "b": (1, -3), "a": (4, 0)}, "b": {"b": (0, 3), "a": (5, 2)}}
    units = {}
    for lead, row in rows.items():
        inv = gr(*row[lead]).inverse()
        units[lead] = {k: gr(re, im) * inv for k, (re, im) in row.items()}
    vec = {"c": (3, -1), "b": (1, 1), "a": (2, 0), "z": (0, 7)}
    residual = reduce_fraction_free(vec, rows, key_order=str)
    expected, _ = reduce_against({k: gr(*v) for k, v in vec.items()}, units, key_order=str)
    assert set(residual) == set(expected) == {"a", "z"}
    ratio = gr(*residual["z"]) * expected["z"].inverse()
    assert all(gr(*residual[k]) == ratio * expected[k] for k in expected)
    assert reduce_fraction_free({"z": (1, 0)}, {}, key_order=str) == {"z": (1, 0)}


def test_reduce_against_no_pivot() -> None:
    residual, used = reduce_against({"z": gr(1)}, {}, key_order=str)
    assert residual == {"z": gr(1)}
    assert used == {}


def test_kernel_of_identity_is_trivial() -> None:
    rows = [{0: ONE}, {1: ONE}]
    assert kernel_basis(rows, columns=[0, 1]) == []


def test_kernel_simple_dependency() -> None:
    # columns c0, c1 with c1 = 2*c0: kernel spanned by (-2, 1)
    rows = [{0: gr(1), 1: gr(2)}]
    kernel = kernel_basis(rows, columns=[0, 1])
    assert len(kernel) == 1
    (vec,) = kernel
    # normalized so the free coordinate carries 1
    assert vec[1] == ONE
    assert vec[0] == gr(-2)
    # membership: the combination annihilates every row
    for row in rows:
        total = ZERO
        for col, coeff in vec.items():
            total = total + row.get(col, ZERO) * coeff
        assert total == ZERO


def test_kernel_dimension_random_matrices() -> None:
    rng = random.Random(11)
    for _ in range(20):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [
            {
                c: gr(rng.randint(-3, 3), rng.randint(-3, 3))
                for c in range(n_cols)
                if rng.random() < 0.7
            }
            for _ in range(n_rows)
        ]
        kernel = kernel_basis(rows, columns=list(range(n_cols)))
        # every kernel vector annihilates every row, exactly
        for vec in kernel:
            for row in rows:
                total = ZERO
                for col, coeff in vec.items():
                    total = total + row.get(col, ZERO) * coeff
                assert total == ZERO
        # rank-nullity: nullity = n_cols - rank, rank = #pivot columns
        pivot_cols = set()
        work = [dict(r) for r in rows if r]
        # compute rank independently by naive elimination over columns
        for col in range(n_cols):
            pivot_row = None
            for row in work:
                if not row.get(col, ZERO).is_zero():
                    pivot_row = row
                    break
            if pivot_row is None:
                continue
            pivot_cols.add(col)
            work.remove(pivot_row)
            inv = pivot_row[col].inverse()
            for row in work:
                factor = row.get(col, ZERO)
                if factor.is_zero():
                    continue
                vec_add_scaled(row, pivot_row, -(factor * inv))
        assert len(kernel) == n_cols - len(pivot_cols)


def test_every_package_cache_is_bounded() -> None:
    # Every memo cache in the package, module- or class-level, has a size bound.
    sizes = {}
    for info in pkgutil.iter_modules(nilzeta.__path__):
        module = importlib.import_module(f"nilzeta.{info.name}")
        scopes = [vars(module)] + [vars(c) for c in vars(module).values() if isinstance(c, type)]
        for scope in scopes:
            for obj in scope.values():
                if callable(getattr(obj, "cache_info", None)):
                    sizes[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
    for name in ("uea._push_y_through_x", "weyl.leibniz", "weyl._monomial_product",
                 "ideal._first", "core.index_set", "reduction._descent_weights",
                 "reduction._weights", "uea._lowering", "ideal._canonical_image",
                 "reduction._canonical_parts", "ideal.build_slice"):
        assert sizes[f"nilzeta.{name}"] == IMAGE_CACHE_SIZE
    assert [name for name, size in sorted(sizes.items()) if size is None] == []
