"""Command-line interface.

Subcommands::

    nilzeta algebra check <spec.json>
    nilzeta reduce <spec.json> --expr "X1^2 * Y[1] + 3i * Y[0]"
    nilzeta verify <spec.json> [--max-degree D]
    nilzeta poles <spec.json> [--q Q] [--s0 S0] [--lmax L] [--csv PATH]
    nilzeta spectrum <spec.json> [--basis-size N] [--zeta-at Z ...] [--report PATH]

The algebra description file is JSON: ``{"n": 2, "alpha": [1, 2],
"partition": [[1], [2]]}`` with 1-based generator indices.  All output is
deterministic JSON (sorted keys); rationals are ``"p/q"`` strings.  The parser
is argparse, and each command imports the modules it runs: importing this
module loads only the standard library, and a command only what it calls.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager


def _emit(obj: dict) -> None:
    try:  # one write and a flush to sys.stdout as of this call, as click.echo made
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: exit 1 with no traceback, as under click
        sys.stdout = None  # and leave nothing to flush at exit
        sys.exit(1)


@contextmanager
def _errors_as_json():
    """Turn a ValueError (bad input or a refused budget) into ``{"error": ...}``
    on stdout and exit status 1."""
    try:
        yield
    except ValueError as exc:
        _emit({"error": str(exc)})
        sys.exit(1)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def algebra_check(spec_file: str) -> None:
    """Validate a description and check its structure constants."""
    from .core import (
        JacobiError, SpecError, _refuse_large_basis, basis, index_set, isotropic_subalgebra,
        jacobi_check, load_spec, nilpotency_class,
    )

    with _errors_as_json():  # the basis budget
        try:
            spec = load_spec(spec_file)
            _refuse_large_basis(spec)
            jacobi_check(spec)
        except (SpecError, JacobiError, json.JSONDecodeError) as exc:
            _emit({"valid": False, "error": str(exc)})
            sys.exit(1)
    _emit(
        {
            "valid": True,
            "spec": spec.to_json_dict(),
            "basis_size": len(basis(spec)),
            "index_set_size": len(index_set(spec)),
            "nilpotency_class": nilpotency_class(spec),
            "isotropic_dimension": len(isotropic_subalgebra(spec)),
            "jacobi": "ok",
        }
    )


def reduce_cmd(spec_file: str, expr: str) -> None:
    """Canonical form of an element modulo the kernel ideal."""
    from .core import load_spec
    from .expr import format_element, parse_expression
    from .ideal import canonical_form

    with _errors_as_json():  # bad input, the push budget, or a coefficient past int-to-str
        spec = load_spec(spec_file)
        canonical = canonical_form(spec, parse_expression(expr, spec))
        text = format_element(canonical)
    _emit({"canonical": text, "in_ideal": canonical.is_zero(),
           "degree": max(canonical.degree(), 0)})  # zero, of degree -1, reads 0


def verify_cmd(spec_file: str, max_degree: int) -> None:
    """Run the exact structural checks; nonzero exit on any failure."""
    from .core import load_spec
    from .verify import run_verify

    with _errors_as_json():  # a bad description, bad JSON or the monomial budget
        spec = load_spec(spec_file)
        report = run_verify(spec, max_degree)
    _emit(report)
    if not report["all_passed"]:
        sys.exit(1)


def poles_cmd(spec_file: str, q: int, s0: str, lmax: int, csv_path: str | None) -> None:
    """Candidate pole lattice of the spectral zeta function."""
    from .core import load_spec
    from .reduction import b_roots, physical_abscissa, pole_lattice
    from .scalars import format_rational

    with _errors_as_json():  # a bad description, bad JSON, or a root or witness budget
        spec = load_spec(spec_file)
        roots = b_roots(spec)
        lattice = pole_lattice(spec, q=q, s0=s0, l_max=lmax)
    entries = [
        {
            "omega": e.omega_str(),
            "multiplicity": e.multiplicity,
            "witnesses": [
                {"i": list(i_t), "r": list(r_t), "l": l} for (i_t, r_t, l) in e.witnesses
            ],
        }
        for e in lattice.entries
    ]
    _emit(
        {
            "spec": spec.to_json_dict(),
            "q": q,
            "s0": s0,
            "l_max": lmax,
            "b_roots": [format_rational(r) for r in roots],
            "physical_abscissa": format_rational(physical_abscissa(spec, q)),
            "entries": entries,
        }
    )
    if csv_path:
        import csv

        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "multiplicity", "witnesses"])
            for e in lattice.entries:
                witness_text = "|".join(
                    f"i={list(i_t)};r={list(r_t)};l={l}" for (i_t, r_t, l) in e.witnesses
                )
                writer.writerow([e.omega_str(), e.multiplicity, witness_text])


def spectrum_cmd(spec_file: str, basis_size: int, zeta_at: list[float],
                 report_path: str | None, drift_tol: float) -> None:
    """Numeric spectrum, growth fit, and truncated zeta values."""
    from .core import load_spec
    from .reduction import physical_abscissa
    from .scalars import format_rational
    from .spectral import eigenvalues, fit_growth, leading_residue, zeta_value

    with _errors_as_json():  # a bad description, bad JSON or an oversized solve
        spec = load_spec(spec_file)
        est = eigenvalues(spec, basis_size, drift_tol)
        fit = fit_growth(est)
    physical = physical_abscissa(spec, 0)
    report = {**est.to_json_dict(), **fit.to_json_dict()}
    report["residue_at_leading_pole"] = leading_residue(est)
    report["physical_abscissa"] = format_rational(physical)
    report["lattice_match"] = bool(abs(fit.abscissa - float(physical)) <= 0.05)
    report["zeta"] = []
    for z in zeta_at:
        try:
            value, tail = zeta_value(est, z)
            entry = {"value_re": value.real, "value_im": value.imag, "tail_bound": tail}
        except ValueError as exc:
            entry = {"error": str(exc)}
        report["zeta"].append({"z": z, **entry})
    report["spec"] = spec.to_json_dict()
    _emit(report)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Parsing: argparse, with the options, defaults and checks click applied
# ---------------------------------------------------------------------------


def _checked(convert, wanted: str, ok=lambda value: True):
    """An argparse type: ``convert(text)`` if that works and passes ``ok``."""
    def check(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {wanted}")
    return check


def _rational(text: str) -> str:
    """``--s0``, an exact rational such as ``3/2`` or ``1.5``, passed on as written."""
    from .scalars import as_rational

    as_rational(text)
    return text


def _file(exists: bool):
    """A path that is no directory and, if it exists (as it must with ``exists``), readable."""
    def usable(path: str) -> bool:
        if os.path.exists(path):
            return os.access(path, os.R_OK) and not os.path.isdir(path)
        return not exists
    return _checked(str, "an existing readable file" if exists else "a file path", usable)


_NATURAL = _checked(int, "an integer >= 0", lambda n: n >= 0)
_DEFAULT = " (default: %(default)s)"


# (group, name, command, options): ``nilzeta [group] name SPEC_FILE [options]``.
_COMMANDS = (
    ("algebra", "check", algebra_check, {}),
    (None, "reduce", reduce_cmd, {"--expr": dict(required=True,
                                                 help="element in the text grammar")}),
    (None, "verify", verify_cmd, {"--max-degree": dict(type=_NATURAL, default=3, help=_DEFAULT)}),
    (None, "poles", poles_cmd, {
        "--q": dict(type=_NATURAL, default=0, help="weight-twist degree" + _DEFAULT),
        "--s0": dict(type=_checked(_rational, "a rational number"), default="0",
                     help="start weight" + _DEFAULT),
        "--lmax": dict(type=_NATURAL, default=6, help="largest lattice shift" + _DEFAULT),
        "--csv": dict(dest="csv_path", metavar="PATH", type=_file(exists=False)),
    }),
    (None, "spectrum", spectrum_cmd, {
        "--basis-size": dict(type=_checked(int, "an integer >= 1", lambda n: n >= 1),
                             default=128, help=_DEFAULT),
        "--zeta-at": dict(type=_checked(float, "a finite number", math.isfinite),
                          action="append", default=[],
                          help="evaluate the eigenvalue zeta here; repeatable"),
        "--report": dict(dest="report_path", metavar="PATH", type=_file(exists=False)),
        "--drift-tol": dict(type=_checked(float, "a positive finite number",
                                          lambda x: math.isfinite(x) and x > 0),
                            default=1e-8, help=_DEFAULT),
    }),
)
# every command's, built or not, so a misplaced option reads the same under any parser
_TAKES_VALUE = {flag for *_, options in _COMMANDS for flag in options}


def _parser(prog: str, first: str | None) -> argparse.ArgumentParser:
    """The ``nilzeta`` parser.  When ``first``, the first word, names a command, it holds
    only that command's rows; otherwise (no word, ``--help``, a typo) all of them."""
    help_only = argparse.ArgumentParser(add_help=False)
    help_only.add_argument("--help", action="help", help="show this message and exit")
    # as under click: --help but no -h, and no abbreviated option names
    style = dict(add_help=False, allow_abbrev=False, parents=[help_only])
    root = argparse.ArgumentParser(prog=prog, description=main.__doc__, **style)
    subparsers = {None: root.add_subparsers(metavar="COMMAND", required=True)}
    if first not in {group or name for group, name, *_ in _COMMANDS}:
        first = None
    for group, name, run, options in _COMMANDS:
        if first not in (None, group or name):
            continue
        if group not in subparsers:  # the one group, `algebra`
            about = "Structural operations on an algebra description."
            parent = subparsers[None].add_parser(group, help=about, description=about, **style)
            subparsers[group] = parent.add_subparsers(metavar="COMMAND", required=True)
        command = subparsers[group].add_parser(name, help=run.__doc__, description=run.__doc__,
                                               **style)
        command.add_argument("spec_file", metavar="SPEC_FILE", type=_file(exists=True))
        for flag, settings in options.items():
            command.add_argument(flag, **settings)
        command.set_defaults(run=run)
    return root


def _attach_values(words: list[str]) -> list[str]:
    """``--option value`` as ``--option=value``, up to any ``--``: so the value is the next
    word even if it starts with "-" (``--zeta-at -inf``), which argparse reads as an option."""
    out: list[str] = []
    rest = iter(words)
    for word in rest:
        if word == "--":
            return [*out, word, *rest]
        value = next(rest, None) if word in _TAKES_VALUE else None
        out.append(word if value is None else f"{word}={value}")
    return out


def main(args=None, prog_name: str | None = None) -> None:
    """Exact operator calculus and spectral-zeta pole analysis."""
    # Ends in SystemExit: 0 on success, 1 on refused input, 2 on a usage error.
    words = sys.argv[1:] if args is None else list(args)
    parser = _parser(prog_name or "nilzeta", words[0] if words else None)
    namespace = vars(parser.parse_args(_attach_values(words)))
    namespace.pop("run")(**namespace)
    sys.exit(0)


# A click command's calling convention, which click.testing.CliRunner and
# perfbench/child.py use: ``main.main(args=..., prog_name=...)``.
main.main = main
main.name = "nilzeta"


if __name__ == "__main__":
    main()
