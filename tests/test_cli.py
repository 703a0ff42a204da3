"""Command-line interface: JSON shapes, exit codes, determinism, CSV export."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given

import nilzeta
from nilzeta import parse_expression
from nilzeta.cli import main
from nilzeta.core import MAX_BASIS_SYMBOLS, algebra_spec, index_set_size
from nilzeta.uea import UEAElement, monomials_up_to
from nilzeta.verify import run_verify

from conftest import algebra_specs

VERIFY_CHECKS = {
    "jacobi-identity",
    "generator-images-vanish",
    "correction-closed-form",
    "inversion-identity",
    "first-order-commutation",
    "eigen-relation",
    "operator-shift",
    "degree-annihilation",
    "descent-diagram",
    "interpolation-identity",
}


@pytest.fixture()
def runner() -> CliRunner:
    return CliRunner()


def invoke_json(runner: CliRunner, args: list[str], exit_code: int = 0) -> dict:
    result = runner.invoke(main, args)
    assert result.exit_code == exit_code, result.output
    return json.loads(result.output)


def test_help_lists_commands(runner) -> None:
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in ("algebra", "reduce", "verify", "poles", "spectrum"):
        assert command in result.output
    # each command's --help shows its defaults
    for command, option, default in [("verify", "--max-degree", "3"), ("poles", "--lmax", "6"),
                                     ("spectrum", "--basis-size", "128")]:
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        text = " ".join(result.output.split())
        assert re.search(rf"{option} \S+ [^-]*default: {default}\b", text), result.output


def run_python(code: str, *args: str) -> str:
    """Run ``code`` with ``args`` in a fresh interpreter that imports this
    checkout's package; return its stdout."""
    src = str(Path(nilzeta.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True).stdout


def test_cli_import_leaves_numpy_unloaded() -> None:
    # only the spectrum command needs numpy; importing the CLI must not load it
    run_python("import nilzeta.cli, sys; assert 'numpy' not in sys.modules")


def test_package_import_loads_no_submodule() -> None:
    run_python(
        "import nilzeta, sys; "
        "loaded = [m for m in sys.modules if m.startswith('nilzeta.')]; "
        "assert not loaded, loaded"
    )


def test_cli_import_loads_only_the_cli() -> None:
    # each command imports the modules it runs, and csv only for --csv
    run_python(
        "import nilzeta.cli, sys; "
        "loaded = [m for m in sys.modules if m.startswith('nilzeta.')]; "
        "assert loaded == ['nilzeta.cli'], loaded; "
        "assert 'numpy' not in sys.modules and 'csv' not in sys.modules; "
        "assert 'click' not in sys.modules"
    )


def test_each_command_loads_only_what_it_runs(heis, spec_file) -> None:
    # the verify checks load with the verify command only, and verify loads no float layer
    run_python(
        "import sys; SPEC = sys.argv[1]\n"
        "from nilzeta.cli import main\n"
        "def run(*args):\n"
        "    try: main([*args])\n"
        "    except SystemExit as exc: assert exc.code == 0, args\n"
        "run('reduce', SPEC, '--expr', 'X1 * Y[1]'); run('poles', SPEC)\n"
        "run('algebra', 'check', SPEC)\n"
        "assert 'nilzeta.verify' not in sys.modules\n"
        "run('verify', SPEC, '--max-degree', '1')\n"
        "assert 'nilzeta.verify' in sys.modules\n"
        "loaded = {'nilzeta.spectral', 'numpy'} & set(sys.modules)\n"
        "assert not loaded, loaded",
        spec_file(heis),
    )


def test_commands_without_text_output_load_no_expr(heis, spec_file) -> None:
    # weyl imports the text writer only when an operator is printed, verify only
    # when it writes a counterexample
    run_python(
        "import sys; SPEC = sys.argv[1]\n"
        "from nilzeta.cli import main\n"
        "for args in (['poles', SPEC], ['algebra', 'check', SPEC],\n"
        "             ['spectrum', SPEC, '--basis-size', '64'], ['verify', SPEC, '--max-degree', '1']):\n"
        "    try: main(args)\n"
        "    except SystemExit as exc: assert exc.code == 0, args\n"
        "assert 'nilzeta.weyl' in sys.modules and 'nilzeta.expr' not in sys.modules",
        spec_file(heis),
    )


def test_exact_commands_load_no_dataclasses(heis, spec_file) -> None:
    # the exact layer's records are named tuples; only spectral uses dataclasses
    run_python(
        "import sys; SPEC = sys.argv[1]; before = set(sys.modules)\n"
        "from nilzeta.cli import main\n"
        "for args in (['reduce', SPEC, '--expr', 'X1 * Y[1]'], ['poles', SPEC],\n"
        "             ['algebra', 'check', SPEC], ['verify', SPEC, '--max-degree', '1']):\n"
        "    try: main(args)\n"
        "    except SystemExit as exc: assert exc.code == 0, args\n"
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules) - before\n"
        "assert not loaded, loaded",
        spec_file(heis),
    )


# `python -m nilzeta.cli ARGS` with every import of click failing.
WITHOUT_CLICK = (
    "import runpy, sys; sys.modules['click'] = None; "
    "runpy.run_module('nilzeta.cli', run_name='__main__', alter_sys=True)"
)


@pytest.mark.parametrize("args", [
    ["algebra", "check", "SPEC"],
    ["reduce", "SPEC", "--expr", "-X1 * Y[1]^2"],
    ["verify", "SPEC", "--max-degree", "1"],
    ["poles", "SPEC", "--s0", "-3/2", "--lmax", "2"],
    ["spectrum", "SPEC", "--basis-size", "64", "--zeta-at", "-4"],
], ids=lambda args: args[0])
def test_commands_run_without_click(runner, heis, spec_file, args) -> None:
    # the command path users and the benchmark take, which CliRunner skips
    args = [spec_file(heis) if word == "SPEC" else word for word in args]
    stdout = run_python(WITHOUT_CLICK, *args)
    assert stdout == runner.invoke(main, args).output
    json.loads(stdout)


# The package's public names, as exported before the one export table.
PUBLIC_NAMES = [
    "AlgebraSpec", "DegreeSlice", "ExpressionError", "GaussianRational", "GrowthFit",
    "JacobiError", "Monomial", "PoleEntry", "PoleLattice", "RATIONAL_BACKEND",
    "RationalPolynomial", "ReductionChoice", "SpecError", "SpectralEstimate", "UEAElement",
    "WeylOperator", "ad_power", "algebra_spec", "b_polynomial", "basis", "bracket",
    "build_slice", "canonical_form", "commutator", "commutator_power_check", "delta1",
    "eigenvalues", "filtration_min_degree", "fit_growth", "format_element", "g_ab", "g_s",
    "gamma_apply", "gamma_generators", "h_ab", "h_s", "hermite_matrix", "index_set",
    "is_member", "isotropic_subalgebra", "jacobi_check", "lagrange_identity_check",
    "leading_residue", "load_spec", "nilpotency_class", "normal_product",
    "parse_expression", "physical_abscissa", "pole_lattice", "reduction_data", "rho",
    "star_generators", "structure_constants", "t_s", "taylor_coeffs", "taylor_residual",
    "validate_spec", "weyl_product", "y_star", "zeta_value",
]


def test_public_names_are_frozen() -> None:
    assert sorted(nilzeta.__all__) == PUBLIC_NAMES
    # dir() lists them before any is used
    run_python(f"import nilzeta; missing = set({PUBLIC_NAMES!r}) - set(dir(nilzeta)); "
               "assert not missing, missing")


def test_public_names_resolve() -> None:
    # every exported name, the lazily loaded spectral ones included
    for name in nilzeta.__all__:
        assert getattr(nilzeta, name) is not None, name
    namespace: dict = {}
    exec("from nilzeta import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert nilzeta.spectral.eigenvalues is nilzeta.eigenvalues
    assert isinstance(nilzeta.RATIONAL_BACKEND, str)


def test_algebra_check_valid(runner, heis, spec_file) -> None:
    payload = invoke_json(runner, ["algebra", "check", spec_file(heis)])
    assert payload["valid"] is True
    assert payload["spec"] == {"n": 1, "alpha": [1], "partition": [[1]]}
    assert payload["basis_size"] == 3  # X1, Y[0], Y[1]
    assert payload["index_set_size"] == 2
    assert payload["nilpotency_class"] == 2
    assert payload["isotropic_dimension"] == 1
    assert payload["jacobi"] == "ok"


def test_algebra_check_invalid_description(runner, tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 0, "alpha": [], "partition": []}\n', encoding="utf-8")
    result = runner.invoke(main, ["algebra", "check", str(bad)])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["valid"] is False
    assert "error" in payload


def test_algebra_check_malformed_json(runner, tmp_path) -> None:
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    result = runner.invoke(main, ["algebra", "check", str(bad)])
    assert result.exit_code == 1
    assert json.loads(result.output)["valid"] is False


def test_large_basis_refused_before_the_index_set(runner, spec_file, monkeypatch) -> None:
    # alpha = 200 has 202 basis symbols; its Jacobi check would take about 12 s
    from nilzeta import core

    def refuse(spec):
        raise AssertionError("the index set was built")

    monkeypatch.setattr(core, "index_set", refuse)
    path = spec_file(algebra_spec(1, [200]))
    text = "the algebra has 202 basis symbols, more than 100"
    for args in (["algebra", "check", path], ["verify", path, "--max-degree", "1"],
                 ["verify", path, "--max-degree", "0"]):
        payload = invoke_json(runner, args, exit_code=1)
        assert set(payload) == {"error"} and text in payload["error"], args


def test_reduce_frozen_values(runner, heis, quad, spec_file) -> None:
    heis_file = spec_file(heis)
    payload = invoke_json(runner, ["reduce", heis_file, "--expr", "Y[0]"])
    assert payload == {"canonical": "i", "in_ideal": False, "degree": 0}

    payload = invoke_json(runner, ["reduce", heis_file, "--expr", "Y[0] - i"])
    assert payload == {"canonical": "0", "in_ideal": True, "degree": 0}

    payload = invoke_json(runner, ["reduce", spec_file(quad), "--expr", "Y[1]^2"])
    assert payload == {"canonical": "2i * Y[2]", "in_ideal": False, "degree": 1}

    # a one-word value that starts with "-" is the option's value
    payload = invoke_json(runner, ["reduce", heis_file, "--expr", "-X1"])
    assert payload == {"canonical": "-X1", "in_ideal": False, "degree": 1}


def test_reduce_deep_inputs(runner, cubic, spec_file) -> None:
    path = spec_file(cubic)
    # Y[1]^3 pushed through a long X power: one step per generator, not per factor
    payload = invoke_json(runner, ["reduce", path, "--expr", "Y[1]^3 * X1^1500"])
    assert payload == {
        "canonical": "-6 * X1^1500 * Y[3] + 9000 * X1^1499 * Y[2]"
        " - 6745500 * X1^1498 * Y[1] + 3368253000i * X1^1497",
        "in_ideal": False,
        "degree": 1501,
    }
    assert invoke_json(runner, ["reduce", path, "--expr", "Y[1]^40 * X1^40"])["degree"] == 54
    # gamma = 10000 needs ceil(10000 / 3) = 3334 Y factors
    assert invoke_json(runner, ["reduce", path, "--expr", "X1^7 * Y[2]^5000"])["degree"] == 3341
    # its coefficient, 2 * 6^66666 up to a unit, has more digits than Python converts
    # to text: an error, not a traceback
    result = runner.invoke(main, ["reduce", path, "--expr", "Y[1]^200000"])
    assert result.exit_code == 1
    assert "digits" in json.loads(result.output)["error"]


def test_reduce_refuses_long_normal_ordering(runner, heis, spec_file) -> None:
    # pushing Y[1] (2 products: Y[1] or Y[0]) past X1^k takes 2k steps of the 2000000 allowed
    assert parse_expression("Y[1] * X1^1000000", heis).degree() == 1000001
    assert parse_expression("Y[1]^1413 * X1^1413", heis).degree() == 2826  # 1414 * 1413 steps
    for expr, products, x_degree in [("Y[1] * X1^1000001", 2, 1000001),
                                     ("Y[1]^1414 * X1^1414", 1415, 1414)]:
        message = (f"normal ordering would push {products} Y products past X-degree "
                   f"{x_degree}, {products * x_degree} steps, more than 2000000")
        with pytest.raises(ValueError) as excinfo:
            parse_expression(expr, heis)
        assert str(excinfo.value) == message
        assert invoke_json(runner, ["reduce", spec_file(heis), "--expr", expr], 1) == {
            "error": message
        }


def test_reduce_refuses_long_normal_ordering_summed_over_the_expression(
    runner, heis, spec_file
) -> None:
    # each product alone is admitted; the budget holds for the sum of one expression's products
    # 1000000 + 1000000 steps: at the budget
    assert parse_expression("Y[1] * X1^500000 + Y[1] * X1^500000", heis).degree() == 500001
    # Y[1] * X1^999998 has two terms, Y[1] and the central Y[0]: 2 + 0 products past
    # X-degree 1, 1999996 + 2 steps, just under the budget; from X1^999999, 1999998 + 2
    # steps, at it
    assert parse_expression("Y[1] * X1^999998 * X1", heis).degree() == 1000000
    assert parse_expression("Y[1] * X1^999999 * X1", heis).degree() == 1000001
    # over it: Y[1]^2 spreads over 3 products, 1999998 + 3 steps; times Y[1] and then X1,
    # the terms Y[1]^2 and Y[0] * Y[1] of Y[1] * X1^999999 * Y[1] count 3 + 2
    for expr, steps in [("Y[1] * X1^999999 + Y[1]^2 * X1", 2000001),
                        ("Y[1] * X1^500000 - Y[1] * X1^500001", 2000002),
                        ("Y[1] * X1^999999 * Y[1] * X1", 2000003)]:
        message = f"normal ordering of this expression would take {steps} steps, more than 2000000"
        with pytest.raises(ValueError) as excinfo:
            parse_expression(expr, heis)
        assert str(excinfo.value) == message
        assert invoke_json(runner, ["reduce", spec_file(heis), "--expr", expr], 1) == {
            "error": message
        }


def test_push_work_counts_only_y_parts_that_move(heis) -> None:
    # a term with no Y^beta, beta != 0, passes any X part in one step
    for expr in ("X1 * X1^3000000", "Y[0] * X1^3000000"):
        assert parse_expression(expr, heis).degree() == 3000001
    # a Y^beta with beta != 0 still counts, alone or in a chain of products
    assert parse_expression("Y[1]^1413 * X1^1413", heis).degree() == 2826
    with pytest.raises(ValueError, match="this expression would take 2001232 steps"):
        parse_expression(" * ".join(["Y[1] * X1"] * 227), heis)


def test_reduce_rejects_bad_expression(runner, heis, spec_file) -> None:
    path = spec_file(heis)
    result = runner.invoke(main, ["reduce", path, "--expr", "Y[9]"])
    assert result.exit_code == 1
    assert "error" in json.loads(result.output)
    payload = invoke_json(runner, ["reduce", path, "--expr", "X1 +"], exit_code=1)
    assert payload == {"error": "unexpected END at position 4 (expected a factor (Xk or Y[..]))"}
    # a superscript digit is a character the grammar does not know, not a number
    payload = invoke_json(runner, ["reduce", path, "--expr", "X1^²"], exit_code=1)
    assert payload == {"error": "unexpected character '²' at position 3"}
    # a number past the interpreter's int-to-str digit limit is a positioned error
    limit = sys.get_int_max_str_digits()
    payload = invoke_json(runner, ["reduce", path, "--expr", "X1^" + "1" * (limit + 1)], exit_code=1)
    assert payload == {"error": f"number longer than {limit} digits at position 3"}


def test_verify_passes_and_reports_all_checks(runner, heis, spec_file) -> None:
    payload = invoke_json(runner, ["verify", spec_file(heis), "--max-degree", "2"])
    assert payload["all_passed"] is True
    assert payload["max_degree"] == 2
    checks = {entry["name"]: entry for entry in payload["checks"]}
    assert set(checks) == VERIFY_CHECKS
    assert all(entry["status"] == "pass" for entry in checks.values())


@given(spec=algebra_specs())
def test_verify_passes_on_generated_specs(spec) -> None:
    # every draw, up to the joint 3-axis block alpha = (3, 3, 3) with 2346
    # monomials up to degree 2, is verified
    assert spec.n + index_set_size(spec) <= MAX_BASIS_SYMBOLS  # no generated spec is refused
    assert run_verify(spec, 2)["all_passed"]


def test_verify_catches_a_wrong_closed_form(heis, monkeypatch) -> None:
    from nilzeta import verify

    # the checks call the closed form through the name nilzeta.verify imported
    monkeypatch.setattr(verify, "gamma_apply", lambda spec, beta: UEAElement.one(spec))
    report = run_verify(heis, 1)
    checks = {entry["name"]: entry for entry in report["checks"]}
    assert report["all_passed"] is False
    assert checks["correction-closed-form"] == {
        "name": "correction-closed-form",
        "status": "fail",
        "counterexample": "internal inconsistency: operator and closed forms differ for beta=(0,)",
    }


def test_verify_refuses_negative_max_degree(runner, heis, spec_file) -> None:
    result = runner.invoke(main, ["verify", spec_file(heis), "--max-degree", "-1"])
    assert result.exit_code == 2
    assert "--max-degree" in result.output


def test_verify_refuses_over_monomial_budget(runner, mixed, spec_file, monkeypatch) -> None:
    from nilzeta import verify

    path = spec_file(mixed)
    count = len(list(monomials_up_to(mixed, 2)))
    monkeypatch.setattr(verify, "MAX_VERIFY_MONOMIALS", count)
    assert invoke_json(runner, ["verify", path, "--max-degree", "2"])["all_passed"] is True
    monkeypatch.setattr(verify, "MAX_VERIFY_MONOMIALS", count - 1)
    payload = invoke_json(runner, ["verify", path, "--max-degree", "2"], exit_code=1)
    assert f"{count} monomials" in payload["error"]


@pytest.mark.parametrize("degree, text", [(9, "sweep 5005 monomials"), (1000, "more than 5000")])
def test_verify_refuses_large_degree_up_front(runner, mixed, spec_file, degree, text) -> None:
    # mixed has 3003 monomials up to degree 8 and 5005 up to degree 9.
    payload = invoke_json(runner, ["verify", spec_file(mixed), "--max-degree", str(degree)], 1)
    assert set(payload) == {"error"} and text in payload["error"]


def test_verify_refuses_huge_index_set_before_building_it(monkeypatch) -> None:
    from nilzeta import core

    def refuse(spec):
        raise AssertionError("the index set was built")

    monkeypatch.setattr(core, "index_set", refuse)
    count = math.comb(1 + 1_000_001 + 3, 3)
    with pytest.raises(ValueError) as excinfo:
        run_verify(algebra_spec(1, [1_000_000]), 3)
    assert str(excinfo.value) == (
        f"verify would sweep {count} monomials up to degree 3, "
        "more than 5000; lower --max-degree"
    )


@pytest.mark.parametrize("flag", ["--lmax", "--q"])
def test_poles_refuses_negative_lmax(runner, heis, spec_file, flag) -> None:
    result = runner.invoke(main, ["poles", spec_file(heis), flag, "-1"])
    assert result.exit_code == 2
    assert flag in result.output


def test_poles_refuses_over_witness_budget(runner, quad, spec_file) -> None:
    result = runner.invoke(main, ["poles", spec_file(quad), "--s0", "10000000"])
    assert result.exit_code == 1
    assert "witnesses" in json.loads(result.output)["error"]


def test_poles_refuses_huge_factor_count_quickly(runner, spec_file) -> None:
    # one b_roots entry per reduction factor: 10^6 of them are refused before
    # any root or lattice point is built
    path = spec_file(algebra_spec(1, [1_000_000]))
    start = time.perf_counter()
    result = runner.invoke(main, ["poles", path, "--s0", "-10"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "error": "the b-polynomial has 1000000 roots, more than 100000; lower alpha"
    }
    assert elapsed < 0.5


@pytest.mark.parametrize("s0", ["abc", "1/0"])
def test_poles_refuses_non_rational_s0(runner, heis, spec_file, s0: str) -> None:
    result = runner.invoke(main, ["poles", spec_file(heis), "--s0", s0])
    assert result.exit_code == 2
    assert "--s0" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("s0", ["3/2", "1.5"])
def test_poles_echoes_s0_as_written(runner, heis, spec_file, s0: str) -> None:
    payload = invoke_json(runner, ["poles", spec_file(heis), "--s0", s0, "--lmax", "2"])
    assert payload["s0"] == s0
    # heis has the one root -2, so l starts at ceil(2 - 3/2) = 1
    assert [w["l"] for e in payload["entries"] for w in e["witnesses"]] == [1, 2]


def test_poles_json_frozen(runner, heis, spec_file) -> None:
    payload = invoke_json(
        runner,
        ["poles", spec_file(heis), "--q", "0", "--s0", "2", "--lmax", "4"],
    )
    assert payload["b_roots"] == ["-2"]
    assert payload["physical_abscissa"] == "-1"
    assert [e["omega"] for e in payload["entries"]] == ["-1", "-1/2", "0", "1/2", "1"]
    first = payload["entries"][0]
    assert first["multiplicity"] == 1
    assert first["witnesses"] == [{"i": [1], "r": [1], "l": 0}]
    assert payload["s0"] == "2"
    assert payload["l_max"] == 4


def test_poles_csv_export(runner, pair_joint, spec_file, tmp_path) -> None:
    out = tmp_path / "lattice.csv"
    invoke_json(
        runner,
        [
            "poles",
            spec_file(pair_joint),
            "--s0",
            "3",
            "--lmax",
            "2",
            "--csv",
            str(out),
        ],
    )
    with out.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "multiplicity", "witnesses"]
    assert rows[1] == ["-3/2", "2", "i=[1];r=[1];l=0|i=[2];r=[1];l=0"]
    assert len(rows) == 4  # header + three lattice points


def test_poles_output_is_deterministic(runner, mixed, spec_file) -> None:
    path = spec_file(mixed)
    first = runner.invoke(main, ["poles", path, "--s0", "7/2"])
    second = runner.invoke(main, ["poles", path, "--s0", "7/2"])
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_spectrum_report(runner, heis, spec_file, tmp_path) -> None:
    report_path = tmp_path / "spectrum.json"
    payload = invoke_json(
        runner,
        [
            "spectrum",
            spec_file(heis),
            "--basis-size",
            "128",
            "--zeta-at",
            "-2",
            "--zeta-at",
            "-0.5",
            "--report",
            str(report_path),
        ],
    )
    assert payload["converged"] == 128
    assert payload["eigenvalues_head"] == pytest.approx([3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
    assert payload["physical_abscissa"] == "-1"
    assert payload["lattice_match"] is True
    assert payload["residue_at_leading_pole"] == pytest.approx(-0.5, abs=1e-3)
    zeta_ok, zeta_refused = payload["zeta"]
    assert zeta_ok["z"] == -2.0
    assert zeta_ok["value_re"] == pytest.approx(0.2337, abs=2e-3)
    assert zeta_ok["value_im"] == 0.0
    assert zeta_ok["tail_bound"] < 0.01
    assert zeta_refused["z"] == -0.5
    assert "error" in zeta_refused
    on_disk = json.loads(report_path.read_text(encoding="utf-8"))
    assert on_disk == payload


def test_spectrum_output_is_deterministic(runner, heis, spec_file) -> None:
    path = spec_file(heis)
    args = ["spectrum", path, "--basis-size", "64"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_spectrum_default_basis_on_two_blocks(runner, mixed, spec_file) -> None:
    payload = invoke_json(runner, ["spectrum", spec_file(mixed)])
    assert payload["basis_size"] == 128
    assert payload["converged"] >= 50
    assert payload["abscissa"] < 0


def test_spectrum_refuses_oversized_solve(runner, pair_joint, spec_file) -> None:
    payload = invoke_json(runner, ["spectrum", spec_file(pair_joint)], exit_code=1)
    assert "above the cap" in payload["error"]


@pytest.mark.parametrize("size", ["0", "-3", "-100000"])
def test_spectrum_refuses_non_positive_basis_size(runner, pair_split, spec_file, size) -> None:
    # a usage error, as --max-degree is: no solve is sized from a negative basis
    result = runner.invoke(main, ["spectrum", spec_file(pair_split), "--basis-size", size])
    assert result.exit_code == 2
    assert f"argument --basis-size: {size!r} is not an integer >= 1" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("z", ["nan", "inf", "-inf"])
def test_spectrum_refuses_non_finite_zeta_point(runner, heis, spec_file, z: str) -> None:
    # a NaN would reach stdout as a bare NaN token, which is not JSON
    result = runner.invoke(main, ["spectrum", spec_file(heis), "--basis-size", "64", "--zeta-at", z])
    assert result.exit_code == 2
    assert "--zeta-at" in result.output and "finite" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
def test_spectrum_refuses_unusable_drift_tol(runner, quad, spec_file, tol: str) -> None:
    # with an infinite tolerance every eigenvalue would count as converged
    result = runner.invoke(main, ["spectrum", spec_file(quad), "--drift-tol", tol])
    assert result.exit_code == 2
    assert "--drift-tol" in result.output and "positive finite" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args, option", [
    (["verify", "MISSING"], "SPEC_FILE"),
    (["algebra", "check", "DIR"], "SPEC_FILE"),
    (["poles", "SPEC", "--csv", "DIR"], "--csv"),
    (["spectrum", "SPEC", "--report", "DIR"], "--report"),
], ids=["missing-spec", "directory-spec", "poles-csv-directory", "spectrum-report-directory"])
def test_unusable_paths_are_usage_errors(runner, heis, spec_file, tmp_path, args, option) -> None:
    # click.Path checked these before any command ran; they still exit 2 with a message
    paths = {"MISSING": str(tmp_path / "missing.json"), "DIR": str(tmp_path)}
    paths["SPEC"] = spec_file(heis)
    result = runner.invoke(main, [paths.get(word, word) for word in args])
    assert result.exit_code == 2
    bad = paths["MISSING" if "MISSING" in args else "DIR"]
    assert option in result.output and repr(bad) in result.output, result.output
    assert "Traceback" not in result.output


def test_json_output_sorted_keys(runner, heis, spec_file) -> None:
    result = runner.invoke(main, ["poles", spec_file(heis)])
    payload = json.loads(result.output)
    assert list(payload) == sorted(payload)
