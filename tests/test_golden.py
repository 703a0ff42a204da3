"""Frozen exact outputs, compared byte for byte.

``golden_outputs.json`` holds the stdout of the exact CLI commands on the six
standard algebras (``algebra check``, ``poles``, ``verify`` and two ``reduce``
inputs each) and the terms of ``t_s(spec, s, rho(u))`` on heis and quad, which
pin the operator side apart from ``h_s``.  ``spectrum`` is left out: its
floats may move with the eigensolver.

Regenerate only when an output change is intended::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from click.testing import CliRunner

from nilzeta import parse_expression, rho, t_s
from nilzeta.cli import main

from conftest import SPEC_PARAMS, make_spec

GOLDEN = Path(__file__).with_name("golden_outputs.json")
BUDGET_S = 10.0

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
    out: dict = {"cli": {}, "t_s": {}}
    for name in SPEC_PARAMS:
        spec = make_spec(name)
        spec_path = tmp_dir / f"{name}.json"
        spec_path.write_text(json.dumps(spec.to_json_dict()) + "\n", encoding="utf-8")
        for label, args in cli_commands(name).items():
            args = [str(spec_path) if a == "SPEC" else a for a in args]
            out["cli"][f"{name}: {label}"] = runner.invoke(main, args).output
    for name, text in DESCENT_EXPRS.items():
        spec = make_spec(name)
        image = rho(spec, parse_expression(text, spec))
        for s in range(4):
            out["t_s"][f"{name}: s={s}: {text}"] = [
                [list(a), list(b), c.to_json()] for (a, b), c in t_s(spec, s, image).sorted_terms()
            ]
    return out


def test_exact_outputs_match_golden(tmp_path) -> None:
    started = time.perf_counter()
    current = record(tmp_path)
    elapsed = time.perf_counter() - started
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert current["cli"].keys() == golden["cli"].keys()
    for key, stdout in golden["cli"].items():
        assert current["cli"][key] == stdout, key
    assert current["t_s"] == golden["t_s"]
    assert elapsed < BUDGET_S, f"golden outputs took {elapsed:.2f}s (budget {BUDGET_S}s)"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = record(Path(tmp))
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
