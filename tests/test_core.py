"""Algebra descriptions, brackets, Jacobi identity, and structural invariants."""

from __future__ import annotations

import json

import pytest
from hypothesis import given

from nilzeta import (
    GaussianRational,
    JacobiError,
    SpecError,
    algebra_spec,
    bracket,
    isotropic_subalgebra,
    jacobi_check,
    load_spec,
    nilpotency_class,
    structure_constants,
    validate_spec,
)
from nilzeta.core import basis, index_set, index_set_size, y_position

from conftest import (
    SPEC_PARAMS,
    algebra_specs,
    isotropic_by_pairing,
    lower_central_length,
    make_spec,
)

EXPECTED_INDEX_SETS = {
    "heis": {(0,), (1,)},
    "quad": {(0,), (1,), (2,)},
    "cubic": {(0,), (1,), (2,), (3,)},
    "pair_split": {(0, 0), (1, 0), (0, 1)},
    "pair_joint": {(0, 0), (1, 0), (0, 1), (1, 1)},
    "mixed": {(0, 0), (1, 0), (0, 1), (0, 2)},
}

EXPECTED_NILPOTENCY = {
    "heis": 2,
    "quad": 3,
    "cubic": 4,
    "pair_split": 2,
    "pair_joint": 3,
    "mixed": 3,
}

# Y^0 plus every Y^beta with |beta| >= 2
EXPECTED_ISOTROPIC = {
    "heis": {("Y", (0,))},
    "quad": {("Y", (0,)), ("Y", (2,))},
    "cubic": {("Y", (0,)), ("Y", (2,)), ("Y", (3,))},
    "pair_split": {("Y", (0, 0))},
    "pair_joint": {("Y", (0, 0)), ("Y", (1, 1))},
    "mixed": {("Y", (0, 0)), ("Y", (0, 2))},
}


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_index_set(name: str) -> None:
    spec = make_spec(name)
    assert set(index_set(spec)) == EXPECTED_INDEX_SETS[name]


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_basis_size(name: str) -> None:
    spec = make_spec(name)
    syms = basis(spec)
    assert len(syms) == spec.n + len(index_set(spec))
    assert len(set(syms)) == len(syms)


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_jacobi(name: str) -> None:
    jacobi_check(make_spec(name))


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_nilpotency_class(name: str) -> None:
    assert nilpotency_class(make_spec(name)) == EXPECTED_NILPOTENCY[name]


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_isotropic_subalgebra(name: str) -> None:
    assert set(isotropic_subalgebra(make_spec(name))) == EXPECTED_ISOTROPIC[name]


@given(spec=algebra_specs())
def test_closed_forms_match_their_oracles(spec) -> None:
    assert index_set_size(spec) == len(index_set(spec))
    assert nilpotency_class(spec) == lower_central_length(spec)
    assert isotropic_subalgebra(spec) == isotropic_by_pairing(spec)


def test_bracket_relations(mixed) -> None:
    # [X_1, Y^(1,0)] = Y^(0,0); [X_2, Y^(1,0)] = 0 (second exponent is zero)
    assert bracket(mixed, ("X", 0), ("Y", (1, 0))) == {
        ("Y", (0, 0)): GaussianRational(1)
    }
    assert bracket(mixed, ("X", 1), ("Y", (1, 0))) == {}
    # lowering stays inside the index set: [X_2, Y^(0,2)] = Y^(0,1)
    assert bracket(mixed, ("X", 1), ("Y", (0, 2))) == {
        ("Y", (0, 1)): GaussianRational(1)
    }
    # X's commute and Y's commute
    assert bracket(mixed, ("X", 0), ("X", 1)) == {}
    assert bracket(mixed, ("Y", (1, 0)), ("Y", (0, 1))) == {}
    # antisymmetry
    assert bracket(mixed, ("Y", (1, 0)), ("X", 0)) == {
        ("Y", (0, 0)): GaussianRational(-1)
    }


def test_structure_constants_antisymmetric(quad) -> None:
    table = structure_constants(quad)
    for (a, b), elem in table.items():
        flipped = table[(b, a)]
        assert set(flipped) == set(elem)
        for sym, coeff in elem.items():
            assert flipped[sym] == -coeff


def test_jacobi_rejects_corrupted_table(heis) -> None:
    table = dict(structure_constants(heis))
    # break antisymmetry: drop the mirrored entry
    key = (("Y", (1,)), ("X", 0))
    del table[key]
    with pytest.raises(JacobiError) as excinfo:
        jacobi_check(heis, table)
    assert excinfo.value.triple is not None
    assert "X" in str(excinfo.value) or "Y" in str(excinfo.value)


def test_jacobi_rejects_bad_jacobi_triple(pair_joint) -> None:
    table = dict(structure_constants(pair_joint))
    # corrupt a bracket value while keeping antisymmetry, so the failure is
    # caught by the Jacobi triple loop rather than the antisymmetry pass
    a, b = ("X", 0), ("Y", (1, 1))
    table[(a, b)] = {("Y", (0, 0)): GaussianRational(1)}
    table[(b, a)] = {("Y", (0, 0)): GaussianRational(-1)}
    with pytest.raises(JacobiError):
        jacobi_check(pair_joint, table)


def test_y_position_consistent(cubic) -> None:
    positions = y_position(cubic)
    for pos, beta in enumerate(index_set(cubic)):
        assert positions[beta] == pos


def test_y_position_is_read_only(cubic) -> None:
    # the cached map is shared by every caller, so it must refuse writes
    with pytest.raises(TypeError):
        y_position(cubic)[(4,)] = 4
    assert (4,) not in y_position(cubic)


def test_algebra_spec_validation() -> None:
    with pytest.raises(SpecError):
        algebra_spec(0, ())
    with pytest.raises(SpecError):
        algebra_spec(1, (0,))
    with pytest.raises(SpecError):
        algebra_spec(2, (1,))  # alpha length mismatch
    with pytest.raises(SpecError):
        algebra_spec(2, (1, 1), [[0]])  # partition misses generator 2
    with pytest.raises(SpecError):
        algebra_spec(2, (1, 1), [[0, 1], [1]])  # overlapping blocks


def test_validate_spec_roundtrip() -> None:
    spec = make_spec("mixed")
    rebuilt = validate_spec(spec.to_json_dict())
    assert rebuilt == spec


def test_validate_spec_errors() -> None:
    with pytest.raises(SpecError):
        validate_spec({"n": 1})
    with pytest.raises(SpecError):
        validate_spec({"n": 1, "alpha": [1], "partition": [[2]]})
    # JSON values that are not plain ints are refused, never coerced.
    for bad in (
        {"n": 1, "alpha": [2.7], "partition": [[1]]},
        {"n": 1, "alpha": ["3"], "partition": [[1]]},
        {"n": 1, "alpha": [True], "partition": [[1]]},
        {"n": True, "alpha": [1], "partition": [[1]]},
        {"n": 1.0, "alpha": [1], "partition": [[1]]},
        {"n": 1, "alpha": [1], "partition": [[True]]},
        {"n": 1, "alpha": [1], "partition": [[1.0]]},
    ):
        with pytest.raises(SpecError):
            validate_spec(bad)


def test_load_spec(tmp_path) -> None:
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"n": 2, "alpha": [1, 2], "partition": [[1], [2]]}))
    spec = load_spec(str(path))
    assert spec == make_spec("mixed")
    assert spec.p == 2


def test_one_based_partition() -> None:
    assert algebra_spec(2, (1, 1), [[1], [2]], one_based=True) == make_spec(
        "pair_split"
    )
