"""The family of nilpotent Lie algebras and its combinatorial index sets.

An algebra in the family is determined by

* ``n`` — the number of generators ``X_1 .. X_n``,
* ``alpha`` — a tuple of positive ints, one bound per generator,
* ``partition`` — a partition of ``{0, .., n-1}`` into blocks (stored
  0-based; the JSON surface is 1-based).

Each block ``I_j`` contributes the box of multi-indices ``beta`` with
``beta <= sum_{k in I_j} alpha_k * delta_k`` componentwise; the union of the
boxes (deduplicated) indexes the second family of basis elements ``Y^beta``.
The only nonzero brackets are ``[X_k, Y^beta] = Y^{beta - delta_k}`` when
``beta_k >= 1``; the algebra is nilpotent.  That one bracket family fixes
the structural invariants, so they are written down in closed form: the
nilpotency class is the largest block sum of ``alpha`` plus one, and the
isotropic radical is spanned by the ``Y^beta`` with ``|beta| != 1``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .indices import MultiIndex, box, mi_abs, mi_delta, mi_sub
from .linalg import IMAGE_CACHE_SIZE, Combination
from .scalars import ONE

# Basis symbols: ("X", k) with k 0-based, or ("Y", beta) with beta a multi-index.
Symbol = tuple[str, Union[int, MultiIndex]]
LieElement = dict


class SpecError(ValueError):
    """Raised when an algebra description fails validation."""


class JacobiError(AssertionError):
    """Raised when a structure-constant table violates the Jacobi identity.

    The offending basis triple is available as ``.triple``.
    """

    def __init__(self, triple: tuple[Symbol, Symbol, Symbol], message: str) -> None:
        super().__init__(message)
        self.triple = triple


@dataclass(frozen=True)
class AlgebraSpec:
    """Validated, normalized description of one algebra in the family.

    ``partition`` holds 0-based generator positions, each block sorted
    ascending, blocks sorted by their smallest element.  Construct via
    :func:`algebra_spec` or :func:`validate_spec`; the constructor itself
    checks the normal form.
    """

    n: int
    alpha: tuple[int, ...]
    partition: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise SpecError(f"n must be a positive int, got {self.n!r}")
        if len(self.alpha) != self.n or any(
            not isinstance(a, int) or a < 1 for a in self.alpha
        ):
            raise SpecError(
                f"alpha must be {self.n} positive ints, got {self.alpha!r}"
            )
        seen: set[int] = set()
        for block in self.partition:
            if not block or list(block) != sorted(block):
                raise SpecError(f"partition block {block!r} must be nonempty and sorted")
            for k in block:
                if not isinstance(k, int) or not 0 <= k < self.n:
                    raise SpecError(f"partition entry {k!r} out of range 0..{self.n - 1}")
                if k in seen:
                    raise SpecError(f"generator position {k} appears in two blocks")
                seen.add(k)
        if seen != set(range(self.n)):
            raise SpecError("partition must cover every generator position exactly once")
        mins = [block[0] for block in self.partition]
        if mins != sorted(mins):
            raise SpecError("blocks must be sorted by their smallest element")

    @property
    def p(self) -> int:
        """Number of partition blocks."""
        return len(self.partition)

    def to_json_dict(self) -> dict:
        """JSON form with 1-based generator indices."""
        return {
            "n": self.n,
            "alpha": list(self.alpha),
            "partition": [[k + 1 for k in block] for block in self.partition],
        }


def algebra_spec(
    n: int,
    alpha: Sequence[int],
    partition: Iterable[Iterable[int]] | None = None,
    *,
    one_based: bool = False,
) -> AlgebraSpec:
    """Build a normalized :class:`AlgebraSpec`.

    ``partition`` defaults to singleton blocks.  With ``one_based=True`` the
    block entries are 1-based (the JSON convention).
    """
    if partition is None:
        blocks = [(k,) for k in range(n)]
    else:
        shift = 1 if one_based else 0
        blocks = [tuple(sorted(int(k) - shift for k in block)) for block in partition]
    blocks.sort(key=lambda b: b[0] if b else -1)
    return AlgebraSpec(int(n), tuple(int(a) for a in alpha), tuple(blocks))


def validate_spec(data: Mapping) -> AlgebraSpec:
    """Parse and validate the JSON form ``{"n", "alpha", "partition"}`` (1-based)."""
    try:
        n = data["n"]
        alpha = data["alpha"]
        partition = data["partition"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"missing required field: {exc}") from exc
    # JSON numbers arrive as int, float or bool; only a plain int is accepted.
    if not isinstance(alpha, (list, tuple)) or not all(type(a) is int for a in alpha):
        raise SpecError("alpha must be a list of positive ints")
    if not isinstance(partition, (list, tuple)) or not all(
        isinstance(b, (list, tuple)) for b in partition
    ):
        raise SpecError("partition must be a list of lists of 1-based generator indices")
    if not all(type(k) is int and k >= 1 for b in partition for k in b):
        raise SpecError("partition entries must be 1-based positive ints")
    if type(n) is not int:
        raise SpecError("n must be an int")
    return algebra_spec(n, alpha, partition, one_based=True)


def load_spec(path: str) -> AlgebraSpec:
    """Load and validate an algebra description from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_spec(json.load(fh))


# ---------------------------------------------------------------------------
# Index sets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def block_box(spec: AlgebraSpec, j: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of block j's box, ascending lex: bounded by alpha_k
    on the block's axes and by 0 elsewhere."""
    block = spec.partition[j]
    return tuple(box(tuple(spec.alpha[k] if k in block else 0 for k in range(spec.n))))


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def index_set(spec: AlgebraSpec) -> tuple[MultiIndex, ...]:
    """The deduplicated union of the block boxes, ascending lex.

    This indexes the ``Y^beta`` basis elements.  The zero multi-index lies in
    every block's box and appears exactly once here.
    """
    union = set()
    for j in range(spec.p):
        union.update(block_box(spec, j))
    return tuple(sorted(union))


def index_set_size(spec: AlgebraSpec) -> int:
    """``len(index_set(spec))`` with nothing built: the block boxes meet only in
    the zero index, so it is sum over blocks of prod_{k in block} (alpha_k + 1),
    less p - 1."""
    boxes = (math.prod(spec.alpha[k] + 1 for k in block) for block in spec.partition)
    return sum(boxes) - (spec.p - 1)


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def y_position(spec: AlgebraSpec) -> Mapping[MultiIndex, int]:
    """Read-only map multi-index -> position in :func:`index_set`."""
    return MappingProxyType({beta: k for k, beta in enumerate(index_set(spec))})


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def basis(spec: AlgebraSpec) -> tuple[Symbol, ...]:
    """All basis symbols: X's by position, then Y's in index_set order."""
    return tuple(("X", k) for k in range(spec.n)) + tuple(
        ("Y", beta) for beta in index_set(spec)
    )


# ---------------------------------------------------------------------------
# Brackets, Jacobi, nilpotency, isotropic subalgebra
# ---------------------------------------------------------------------------


def bracket(spec: AlgebraSpec, a: Symbol, b: Symbol) -> LieElement:
    """The Lie bracket of two basis symbols as a sparse element.

    Only ``[X_k, Y^beta] = Y^{beta - delta_k}`` (when ``beta_k >= 1``) and its
    antisymmetric counterpart are nonzero.
    """
    kind_a, data_a = a
    kind_b, data_b = b
    if kind_a == "X" and kind_b == "Y":
        beta = data_b
        k = data_a
        if beta[k] >= 1:
            target = mi_sub(beta, mi_delta(spec.n, k))
            if target not in y_position(spec):
                raise SpecError(
                    f"bracket left the index set: {beta} - delta_{k} = {target}"
                )
            return {("Y", target): ONE}
        return {}
    if kind_a == "Y" and kind_b == "X":
        out = bracket(spec, b, a)
        return {sym: -c for sym, c in out.items()}
    return {}


def structure_constants(spec: AlgebraSpec) -> dict:
    """Nonzero brackets of basis pairs: (sym_a, sym_b) -> sparse element."""
    table: dict = {}
    syms = basis(spec)
    for a in syms:
        for b in syms:
            out = bracket(spec, a, b)
            if out:
                table[(a, b)] = out
    return table


def jacobi_check(spec: AlgebraSpec, table: Mapping | None = None) -> None:
    """Verify antisymmetry and the Jacobi identity on every basis triple.

    ``table`` defaults to :func:`structure_constants`; passing a corrupted
    table raises :class:`JacobiError` naming the first failing triple.
    """
    if table is None:
        table = structure_constants(spec)
    syms = basis(spec)
    for a in syms:
        for b in syms:
            if Combination(spec, table.get((a, b))) + Combination(spec, table.get((b, a))):
                raise JacobiError(
                    (a, b, b),
                    f"antisymmetry fails for [{_sym_str(a)}, {_sym_str(b)}]",
                )
    for a in syms:
        for b in syms:
            for c in syms:
                total = None
                for first, pair in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
                    # [first, [pair]], extended linearly in the second slot
                    for sym, coeff in table.get(pair, {}).items():
                        if (first, sym) in table:
                            row = Combination(spec, table[(first, sym)]).scale(coeff)
                            total = row if total is None else total + row
                if total:
                    raise JacobiError(
                        (a, b, c),
                        "Jacobi identity fails on triple "
                        f"({_sym_str(a)}, {_sym_str(b)}, {_sym_str(c)})",
                    )


def _sym_str(sym: Symbol) -> str:
    kind, data = sym
    if kind == "X":
        return f"X{data + 1}"
    return "Y[" + ",".join(str(e) for e in data) + "]"


def nilpotency_class(spec: AlgebraSpec) -> int:
    """Length of the lower central series: the largest block sum of alpha, plus one.

    Each bracket with an X lowers |beta| by one, so each step of the series
    lowers the top |beta| of its Y symbols by one; the X's leave after the
    first step and Y^0 goes last.
    """
    return max(sum(spec.alpha[k] for k in block) for block in spec.partition) + 1


def isotropic_subalgebra(spec: AlgebraSpec) -> tuple[Symbol, ...]:
    """Radical of the form (v, w) -> f([v, w]) where f reads off Y^0.

    Y^0 arises only as [X_k, Y^{delta_k}], so the pairing matches each X_k
    with Y^{delta_k}, and the radical is spanned by the remaining Y symbols:
    Y^0 and every Y^beta with |beta| >= 2, in basis order.
    """
    return tuple(("Y", beta) for beta in index_set(spec) if mi_abs(beta) != 1)
