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

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .core import AlgebraSpec


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
# Verification report
# ---------------------------------------------------------------------------


def _mono_str(spec: AlgebraSpec, mono) -> str:
    from .expr import format_element
    from .uea import UEAElement

    return format_element(UEAElement.monomial(spec, mono))


def _check(report: list, name: str, fn) -> None:
    try:
        counterexample = fn()
    except Exception as exc:  # noqa: BLE001 - failures become report entries
        report.append({"name": name, "status": "fail", "counterexample": str(exc)})
        return
    if counterexample is None:
        report.append({"name": name, "status": "pass"})
    else:
        report.append({"name": name, "status": "fail", "counterexample": counterexample})


# Most ordered monomials up to the degree that one verify run may sweep;
# larger requests are refused before any check runs.
MAX_VERIFY_MONOMIALS = 5000

# Most basis symbols (n + |index set|) that `algebra check` and `verify` take:
# the Jacobi check walks every triple, and 102 (alpha = 100) take about 1.7 s.
MAX_BASIS_SYMBOLS = 100


def _refuse_large_basis(spec: AlgebraSpec) -> None:
    """Raise ValueError, before the index set is built, above ``MAX_BASIS_SYMBOLS``."""
    from .core import index_set_size

    size = spec.n + index_set_size(spec)
    if size > MAX_BASIS_SYMBOLS:
        raise ValueError(
            f"the algebra has {size} basis symbols, more than {MAX_BASIS_SYMBOLS}; "
            f"the Jacobi check would walk every triple of them"
        )


def run_verify(spec: AlgebraSpec, max_degree: int = 3) -> dict:
    """Run the exact structural checks up to a monomial degree; return a report.

    Checks: Jacobi identity, vanishing of both generator families under the
    representation, agreement of the correction operator with its closed
    form, the exact inversion identity, the first-order commutation and
    eigen-relations modulo the kernel, the shift between the two first-order
    operators, degreewise annihilation, the operator-side diagram, and the
    interpolation identity for the continuation polynomial.  Raises
    ValueError, before the index set or any check is built, when the
    monomials up to the degree, C(n + |index set| + d, d), number more than
    ``MAX_VERIFY_MONOMIALS``, or the basis more than ``MAX_BASIS_SYMBOLS``
    symbols.
    """
    import random

    from .core import index_set, index_set_size, jacobi_check
    from .expr import format_element
    from .ideal import build_slice, canonical_form, gamma_generators, is_member, star_generators
    from .indices import box, mi_factorial, mi_sub
    from .reduction import (
        b_polynomial, g_ab, g_s, h_ab, h_s, lagrange_identity_check, reduction_data, t_s,
    )
    from .scalars import GaussianRational, Rat, i_power
    from .uea import UEAElement, gamma_all, gamma_apply, monomials_up_to, pure_y, y_star
    from .weyl import rho

    count = math.comb(spec.n + index_set_size(spec) + max_degree, max_degree)
    if count > MAX_VERIFY_MONOMIALS:
        raise ValueError(
            f"verify would sweep {count} monomials up to degree {max_degree}, "
            f"more than {MAX_VERIFY_MONOMIALS}; lower --max-degree"
        )
    _refuse_large_basis(spec)
    checks: list[dict] = []

    def check_jacobi() -> str | None:
        jacobi_check(spec)
        return None

    def check_generators() -> str | None:
        for gen in star_generators(spec) + gamma_generators(spec):
            if not rho(spec, gen).is_zero():
                return f"nonvanishing image: {format_element(gen)}"
        return None

    def check_closed_form() -> str | None:
        for beta in index_set(spec):
            if gamma_all(spec, pure_y(spec, beta).scale(i_power(1))) != gamma_apply(spec, beta):
                return (
                    "internal inconsistency: operator and closed forms differ "
                    f"for beta={beta}"
                )
        return None

    def check_inversion() -> str | None:
        i_unit = UEAElement.one(spec).scale(i_power(1))
        zero_mi = (0,) * spec.n
        y0 = pure_y(spec, zero_mi)
        for beta in index_set(spec):
            lhs = pure_y(spec, beta).scale(mi_factorial(beta)) - y_star(spec, beta)
            rhs = (y_star(spec, beta) * (y0 - i_unit)).scale(GaussianRational(0, -1))
            for gamma in box(beta):
                if not any(gamma):
                    continue
                coeff = -GaussianRational(
                    Rat(mi_factorial(beta), mi_factorial(mi_sub(beta, gamma)))
                )
                rhs = rhs + (y_star(spec, mi_sub(beta, gamma)) * gamma_apply(spec, gamma)).scale(coeff)
            if lhs != rhs:
                return f"inversion identity fails for beta={beta}"
        return None

    def check_first_order() -> str | None:
        idx = index_set(spec)
        for mono in monomials_up_to(spec, max_degree):
            t = UEAElement.monomial(spec, mono)
            for k in range(spec.n):
                axis = [int(j == k) for j in range(spec.n)]
                zeros = [0] * spec.n
                left = g_ab(spec, axis, zeros, t) - t.scale(mono.x[k])
                if not is_member(spec, left):
                    return f"a-part fails for {_mono_str(spec, mono)}, k={k + 1}"
                weight = sum(
                    mult * idx[pos][k] for pos, mult in enumerate(mono.y) if mult
                )
                right = g_ab(spec, zeros, axis, t) - t.scale(weight)
                if not is_member(spec, right):
                    return f"b-part fails for {_mono_str(spec, mono)}, k={k + 1}"
        return None

    def check_eigen_relation() -> str | None:
        for d in range(max_degree + 1):
            for mono in build_slice(spec, d).independent:
                choice = reduction_data(spec, mono)
                t = UEAElement.monomial(spec, mono)
                image = g_ab(spec, choice.a, choice.b, t)
                if not is_member(spec, image - t.scale(GaussianRational(choice.eigenvalue))):
                    return f"eigen-relation fails for {_mono_str(spec, mono)}"
        return None

    def check_shift() -> str | None:
        ones = (1,) * spec.n
        shift = GaussianRational(2 * spec.n)
        for mono in monomials_up_to(spec, max_degree):
            t = UEAElement.monomial(spec, mono)
            lhs = h_ab(spec, ones, ones, t)
            rhs = g_ab(spec, ones, ones, t) + t.scale(shift)
            if not is_member(spec, lhs - rhs):
                return f"shift identity fails for {_mono_str(spec, mono)}"
        return None

    def check_annihilation() -> str | None:
        # Strict annihilation holds on the independent monomials; monomials
        # whose canonical form loses degree (e.g. any power of Y^0) are only
        # sent *down* the degree filtration, never to zero.  Both facts are
        # asserted: kill the independent slice exactly, and drop the degree
        # of everything else by at least one.
        for s in range(max_degree + 1):
            chart = build_slice(spec, s)
            for mono in chart.monomials:
                element = UEAElement.monomial(spec, mono)
                h_image = h_s(spec, s, element)
                if mono in chart.independent:
                    if not rho(spec, h_image).is_zero():
                        return (
                            f"degree-{s} annihilation fails for "
                            f"{_mono_str(spec, mono)}"
                        )
                    if not rho(spec, g_s(spec, s, element)).is_zero():
                        return (
                            f"degree-{s} g-annihilation fails for "
                            f"{_mono_str(spec, mono)}"
                        )
                if canonical_form(spec, h_image).degree() > s - 1:
                    return (
                        f"degree-{s} descent fails for {_mono_str(spec, mono)}"
                    )
        return None

    def check_diagram() -> str | None:
        rng = random.Random(7)
        monos = list(monomials_up_to(spec, max_degree))
        for s in range(max_degree + 1):
            for _ in range(5):
                terms = {
                    m: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                    for m in rng.sample(monos, min(4, len(monos)))
                }
                u = UEAElement(spec, terms)
                if t_s(spec, s, rho(spec, u)) != rho(spec, h_s(spec, s, u)):
                    return f"diagram fails at s={s}"
        return None

    def check_interpolation() -> str | None:
        poly = b_polynomial(spec)
        for q in (0, 1, 2):
            lagrange_identity_check(poly, 2, q, poly.degree() + 2)
        return None

    _check(checks, "jacobi-identity", check_jacobi)
    _check(checks, "generator-images-vanish", check_generators)
    _check(checks, "correction-closed-form", check_closed_form)
    _check(checks, "inversion-identity", check_inversion)
    _check(checks, "first-order-commutation", check_first_order)
    _check(checks, "eigen-relation", check_eigen_relation)
    _check(checks, "operator-shift", check_shift)
    _check(checks, "degree-annihilation", check_annihilation)
    _check(checks, "descent-diagram", check_diagram)
    _check(checks, "interpolation-identity", check_interpolation)

    return {
        "spec": spec.to_json_dict(),
        "max_degree": max_degree,
        "checks": checks,
        "all_passed": all(c["status"] == "pass" for c in checks),
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def algebra_check(spec_file: str) -> None:
    """Validate a description and check its structure constants."""
    from .core import (
        JacobiError, SpecError, basis, index_set, isotropic_subalgebra, jacobi_check,
        load_spec, nilpotency_class,
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

    with _errors_as_json():  # bad input, or a coefficient past Python's int-to-str limit
        spec = load_spec(spec_file)
        canonical = canonical_form(spec, parse_expression(expr, spec))
        text = format_element(canonical)
    _emit(
        {
            "canonical": text,
            "in_ideal": canonical.is_zero(),
            "degree": canonical.degree() if not canonical.is_zero() else 0,
        }
    )


def verify_cmd(spec_file: str, max_degree: int) -> None:
    """Run the exact structural checks; nonzero exit on any failure."""
    from .core import load_spec

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
    zeta_entries = []
    for z in zeta_at:
        try:
            value, tail = zeta_value(est, z)
            zeta_entries.append(
                {
                    "z": z,
                    "value_re": value.real,
                    "value_im": value.imag,
                    "tail_bound": tail,
                }
            )
        except ValueError as exc:
            zeta_entries.append({"z": z, "error": str(exc)})
    report["zeta"] = zeta_entries
    report["spec"] = spec.to_json_dict()
    _emit(report)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")


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


def _parser(prog: str) -> tuple[argparse.ArgumentParser, set[str]]:
    """The ``nilzeta`` parser, and the options that take a value."""
    help_only = argparse.ArgumentParser(add_help=False)
    help_only.add_argument("--help", action="help", help="show this message and exit")
    # as under click: --help but no -h, and no abbreviated option names
    style = dict(add_help=False, allow_abbrev=False, parents=[help_only])
    root = argparse.ArgumentParser(prog=prog, description=main.__doc__, **style)
    commands = root.add_subparsers(metavar="COMMAND", required=True)
    about = "Structural operations on an algebra description."
    algebra = commands.add_parser("algebra", help=about, description=about, **style)
    table = [
        (algebra.add_subparsers(metavar="COMMAND", required=True), algebra_check, "check", {}),
        (commands, reduce_cmd, "reduce",
         {"--expr": dict(required=True, help="element in the text grammar")}),
        (commands, verify_cmd, "verify",
         {"--max-degree": dict(type=_NATURAL, default=3, help=_DEFAULT)}),
        (commands, poles_cmd, "poles", {
            "--q": dict(type=int, default=0, help="weight-twist degree" + _DEFAULT),
            "--s0": dict(type=_checked(_rational, "a rational number"), default="0",
                         help="start weight" + _DEFAULT),
            "--lmax": dict(type=_NATURAL, default=6, help="largest lattice shift" + _DEFAULT),
            "--csv": dict(dest="csv_path", metavar="PATH", type=_file(exists=False)),
        }),
        (commands, spectrum_cmd, "spectrum", {
            "--basis-size": dict(type=int, default=128, help=_DEFAULT),
            "--zeta-at": dict(type=_checked(float, "a finite number", math.isfinite),
                              action="append", default=[],
                              help="evaluate the eigenvalue zeta here; repeatable"),
            "--report": dict(dest="report_path", metavar="PATH", type=_file(exists=False)),
            "--drift-tol": dict(type=_checked(float, "a positive finite number",
                                              lambda x: math.isfinite(x) and x > 0),
                                default=1e-8, help=_DEFAULT),
        }),
    ]
    takes_value: set[str] = set()
    for subparsers, run, name, options in table:
        command = subparsers.add_parser(name, help=run.__doc__, description=run.__doc__, **style)
        command.add_argument("spec_file", metavar="SPEC_FILE", type=_file(exists=True))
        for flag, settings in options.items():
            command.add_argument(flag, **settings)
        command.set_defaults(run=run)
        takes_value.update(options)
    return root, takes_value


def _attach_values(words: list[str], takes_value: set[str]) -> list[str]:
    """``--option value`` as ``--option=value``, up to any ``--``: so the value is the next
    word even if it starts with "-" (``--zeta-at -inf``), which argparse reads as an option."""
    out: list[str] = []
    rest = iter(words)
    for word in rest:
        if word == "--":
            return [*out, word, *rest]
        value = next(rest, None) if word in takes_value else None
        out.append(word if value is None else f"{word}={value}")
    return out


def main(args=None, prog_name: str | None = None) -> None:
    """Exact operator calculus and spectral-zeta pole analysis."""
    # Ends in SystemExit: 0 on success, 1 on refused input, 2 on a usage error.
    parser, takes_value = _parser(prog_name or "nilzeta")
    words = sys.argv[1:] if args is None else list(args)
    namespace = vars(parser.parse_args(_attach_values(words, takes_value)))
    namespace.pop("run")(**namespace)
    sys.exit(0)


# A click command's calling convention, which click.testing.CliRunner and
# perfbench/child.py use: ``main.main(args=..., prog_name=...)``.
main.main = main
main.name = "nilzeta"


if __name__ == "__main__":
    main()
