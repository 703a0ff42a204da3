"""Frozen outputs: exact ones compared byte for byte, spectrum floats to 1e-9.

``golden_outputs.json`` holds the stdout of the exact CLI commands on the six
standard algebras (``algebra check``, ``poles``, ``verify`` and two ``reduce``
inputs each) and the terms of ``t_s(spec, s, rho(u))`` on heis and quad, which
pin the operator side apart from ``h_s``.  It also holds the ``spectrum`` JSON
of the four benchmark inputs (heis and pair_split at their default basis, quad
and cubic at 400, two ``--zeta-at`` points each).  Those floats may move with
the eigensolver by rounding, so spectrum reports compare ints, bools, strings
and nulls exactly and floats within ``FLOAT_RTOL`` relative.

Regenerate only when an output change is intended::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from click.testing import CliRunner

from nilzeta import parse_expression, rho, t_s
from nilzeta.cli import main

from conftest import SPEC_PARAMS, make_spec

GOLDEN = Path(__file__).with_name("golden_outputs.json")
BUDGET_S = 10.0
FLOAT_RTOL = 1e-9

# Two reduce inputs per algebra, mixing out-of-order X and Y factors,
# constants and powers of Y[0].
REDUCE_EXPRS = {
    "heis": ("X1^2 * Y[1]^2 + 3i * Y[0] - 1/2", "Y[1]^3 * X1 - 2 * Y[0]^2"),
    "quad": ("X1 * Y[2]^2 + 3i * Y[1] * Y[0] - 1/2", "Y[2] * X1^2 * Y[1] - 2/3 * Y[0]^3"),
    "cubic": ("X1 * Y[3] * Y[2] + 3i * Y[1] - 1/2", "Y[3]^2 * X1 - 2 * Y[2] * Y[0]^2"),
    "pair_split": (
        "X1 * Y[1,0] * X2 * Y[0,1] + 3i * Y[0,0] - 1/2",
        "Y[1,0]^2 * Y[0,1]^2 - 2 * X2 * Y[0,0]^2",
    ),
    "pair_joint": (
        "X1 * Y[1,1] * X2 + 3i * Y[0,0] * Y[1,0] - 1/2",
        "Y[1,1]^2 * X1 - 2 * Y[0,1] * Y[0,0]^2",
    ),
    "mixed": (
        "X2 * Y[0,2] * X1 * Y[1,0] + 3i * Y[0,1] - 1/2",
        "Y[0,2]^2 * X2 - 2 * Y[1,0] * Y[0,0]^2",
    ),
}

# t_s(spec, s, rho(u)) for s = 0..3 on these elements.
DESCENT_EXPRS = {
    "heis": "X1 * Y[1]^2 + 2i * Y[0] * Y[1] - 1/3 * X1^2",
    "quad": "X1 * Y[2] + 2i * Y[1]^2 - 1/3 * X1^2 * Y[0]",
}


# spectrum arguments per algebra: the benchmark's basis sizes, and two zeta
# points left of each fitted abscissa.
SPECTRUM_ARGS = {
    "heis": ["--basis-size", "200", "--zeta-at", "-2.0", "--zeta-at", "-3.0"],
    "quad": ["--basis-size", "400", "--zeta-at", "-2.0", "--zeta-at", "-1.25"],
    "cubic": ["--basis-size", "400", "--zeta-at", "-2.0", "--zeta-at", "-1.25"],
    "pair_split": ["--basis-size", "24", "--zeta-at", "-4.0", "--zeta-at", "-3.0"],
}


def cli_commands(name: str) -> dict[str, list[str]]:
    """Label -> CLI arguments, with ``SPEC`` standing for the spec file."""
    first, second = REDUCE_EXPRS[name]
    return {
        "algebra check": ["algebra", "check", "SPEC"],
        "poles --s0 4 --lmax 5": ["poles", "SPEC", "--s0", "4", "--lmax", "5"],
        "verify --max-degree 2": ["verify", "SPEC", "--max-degree", "2"],
        f"reduce {first}": ["reduce", "SPEC", "--expr", first],
        f"reduce {second}": ["reduce", "SPEC", "--expr", second],
    }


def record(tmp_dir: Path) -> dict:
    """Every frozen output of the current package."""
    runner = CliRunner()
    out: dict = {"cli": {}, "t_s": {}, "spectrum": {}}
    for name in SPEC_PARAMS:
        spec = make_spec(name)
        spec_path = tmp_dir / f"{name}.json"
        spec_path.write_text(json.dumps(spec.to_json_dict()) + "\n", encoding="utf-8")
        for label, args in cli_commands(name).items():
            args = [str(spec_path) if a == "SPEC" else a for a in args]
            out["cli"][f"{name}: {label}"] = runner.invoke(main, args).output
        if name in SPECTRUM_ARGS:
            args = ["spectrum", str(spec_path), *SPECTRUM_ARGS[name]]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            out["spectrum"][f"{name}: {' '.join(args[2:])}"] = json.loads(result.output)
    for name, text in DESCENT_EXPRS.items():
        spec = make_spec(name)
        image = rho(spec, parse_expression(text, spec))
        for s in range(4):
            out["t_s"][f"{name}: s={s}: {text}"] = [
                [list(a), list(b), c.to_json()] for (a, b), c in t_s(spec, s, image).sorted_terms()
            ]
    return out


def assert_matches(got, want, where: str) -> None:
    """Exact on everything but floats, which match within ``FLOAT_RTOL``."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=FLOAT_RTOL), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


def test_exact_outputs_match_golden(tmp_path) -> None:
    started = time.perf_counter()
    current = record(tmp_path)
    elapsed = time.perf_counter() - started
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert current["cli"].keys() == golden["cli"].keys()
    for key, stdout in golden["cli"].items():
        assert current["cli"][key] == stdout, key
    assert current["t_s"] == golden["t_s"]
    assert_matches(current["spectrum"], golden["spectrum"], "spectrum")
    assert elapsed < BUDGET_S, f"golden outputs took {elapsed:.2f}s (budget {BUDGET_S}s)"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = record(Path(tmp))
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
