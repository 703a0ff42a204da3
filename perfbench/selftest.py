"""Show that every output check accepts real output and rejects wrong answers.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs one real operation per check, confirms the check accepts its output,
then edits the output into a plausible wrong answer and confirms the check
rejects it.  Prints one line per case and exits 1 if any case goes the
wrong way.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from run import ALGEBRAS, ROOT, Runner  # noqa: E402


def edit(out: str, change) -> str:
    rep = json.loads(out)
    change(rep)
    return json.dumps(rep)


def main() -> int:
    work = ROOT / ".perfbench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _selftest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _selftest(work: Path) -> int:
    specs, algs = {}, {}
    for name, data in ALGEBRAS.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        specs[name], algs[name] = str(path), checks.Algebra(data)
    runner = Runner(work, trace=False)

    def real(*args):
        rc, _, _, _, out, _ = runner.spawn(list(args), trace=False)
        return rc, out

    cubic, heis, mixed = algs["cubic"], algs["heis"], algs["mixed"]
    cases = []

    rc, out = real("cli", "verify", specs["mixed"], "--max-degree", "2")
    check = lambda o, rc=rc: checks.check_verify(mixed, 2, rc, o)  # noqa: E731
    cases += [
        ("verify", "real output", check, out, True),
        ("verify", "one check fails", check,
         edit(out, lambda r: r["checks"][5].update(status="fail")), False),
        ("verify", "one check missing", check, edit(out, lambda r: r["checks"].pop(3)), False),
    ]

    rc, out = real("cli", "reduce", specs["cubic"], "--expr", "Y[1]^12")
    check = lambda o, rc=rc: checks.check_reduce(cubic, "Y[1]^12", rc, o)  # noqa: E731
    cases += [
        ("reduce", "real output", check, out, True),
        ("reduce", "coefficient off by one", check,
         edit(out, lambda r: r.update(canonical="1297 * Y[3]^4")), False),
        ("reduce", "in_ideal flipped", check, edit(out, lambda r: r.update(in_ideal=True)), False),
        ("reduce", "wrong degree", check, edit(out, lambda r: r.update(degree=3)), False),
        ("reduce", "input echoed as its canonical form", check,
         edit(out, lambda r: r.update(canonical="Y[1]^12", degree=12)), False),
        ("reduce", "same image at degree 6", check,
         edit(out, lambda r: r.update(canonical="-216 * Y[1]^3 * Y[3]^3", degree=6)), False),
        ("reduce", "dependent monomial Y[0] left in", check,
         edit(out, lambda r: r.update(canonical=r["canonical"] + " + Y[0] - i")), False),
    ]
    # Y[1]^3 and -6 Y[3] both map to i x^3, so the element lies in the ideal.
    ideal = "Y[1]^3 + 6 * Y[3]"
    rc, out = real("cli", "reduce", specs["cubic"], "--expr", ideal)
    check = lambda o, rc=rc: checks.check_reduce(cubic, ideal, rc, o)  # noqa: E731
    cases += [
        ("reduce", "real output (in the ideal)", check, out, True),
        ("reduce", "in_ideal flipped (in the ideal)", check,
         edit(out, lambda r: r.update(in_ideal=False)), False),
        ("reduce", "ideal element echoed", check,
         edit(out, lambda r: r.update(canonical=ideal, degree=3)), False),
    ]
    expr = "X1 * Y[0,1]^2 - 2/3i * Y[0,2] * X2 + i"
    rc, out = real("cli", "reduce", specs["mixed"], "--expr", expr)
    check = lambda o, rc=rc: checks.check_reduce(mixed, expr, rc, o)  # noqa: E731
    cases += [
        ("reduce", "real output (mixed)", check, out, True),
        ("reduce", "X and Y swapped in a term", check,
         edit(out, lambda r: r.update(canonical=r["canonical"].replace("X2 * Y[0,2]", "Y[0,2] * X2"))),
         False),
        ("reduce", "input echoed as its canonical form (mixed)", check,
         edit(out, lambda r: r.update(canonical=expr)), False),
    ]
    first = json.loads(out)
    rc2, out2 = real("cli", "reduce", specs["mixed"], "--expr", first["canonical"])
    check = lambda o, rc=rc2, first=first: checks.check_reduce_again(first, rc, o)  # noqa: E731
    cases += [
        ("reduce again", "real output", check, out2, True),
        ("reduce again", "canonical form changed", check,
         edit(out2, lambda r: r.update(canonical=r["canonical"] + " + Y[0,0]")), False),
    ]

    rc, out = real("cli", "poles", specs["cubic"], "--q", "0", "--s0", "4/3", "--lmax", "4")
    check = lambda o, rc=rc: checks.check_poles(cubic, 4, rc, o)  # noqa: E731
    cases += [
        ("poles", "real output", check, out, True),
        ("poles", "two entries swapped", check,
         edit(out, lambda r: r["entries"].insert(0, r["entries"].pop(1))), False),
        ("poles", "multiplicity off by one", check,
         edit(out, lambda r: r["entries"][2].update(multiplicity=r["entries"][2]["multiplicity"] + 1)),
         False),
        ("poles", "lowest entry dropped", check, edit(out, lambda r: r["entries"].pop(0)), False),
    ]

    rc, out = real("cli", "algebra", "check", specs["cubic"])
    check = lambda o, rc=rc: checks.check_algebra(cubic, rc, o)  # noqa: E731
    cases += [
        ("algebra check", "real output", check, out, True),
        ("algebra check", "nilpotency class off by one", check,
         edit(out, lambda r: r.update(nilpotency_class=r["nilpotency_class"] + 1)), False),
    ]

    polys = [{(0,): 1, (2,): -3}, {(1,): 2, (3,): 1}]
    rc, out = real("lib", "expansions", specs["heis"], "3")
    check = lambda o, rc=rc: checks.check_expansions(heis, 3, polys, rc, o)  # noqa: E731
    cases += [
        ("expansions", "real output", check, out, True),
        ("expansions", "nonzero residual", check,
         edit(out, lambda r: r["commutator_residual_terms"].__setitem__(4, 1)), False),
        ("expansions", "one coefficient of delta1^3 changed", check,
         edit(out, lambda r: r["power_terms"][3].__setitem__(2, str(Fraction(r["power_terms"][3][2]) + 1))),
         False),
    ]

    rc, out = real("cli", "spectrum", specs["heis"], "--basis-size", "200",
                   "--zeta-at=-2.0", "--zeta-at=-3.5")
    check = lambda o, rc=rc: checks.check_spectrum(heis, [-2.0, -3.5], rc, o)  # noqa: E731
    cases += [
        ("spectrum", "real output", check, out, True),
        ("spectrum", "one eigenvalue off by 1e-6", check,
         edit(out, lambda r: r["eigenvalues_head"].__setitem__(4, 11.000001)), False),
        ("spectrum", "abscissa off by 0.1", check,
         edit(out, lambda r: r.update(abscissa=r["abscissa"] - 0.1)), False),
        ("spectrum", "zeta(-2) short by twice its tail bound", check,
         edit(out, lambda r: r["zeta"][0].update(value_re=r["zeta"][0]["value_re"]
                                                  - 2 * r["zeta"][0]["tail_bound"])), False),
    ]
    rc, out = real("cli", "spectrum", specs["quad"])
    check = lambda o, rc=rc: checks.check_spectrum(algs["quad"], [], rc, o)  # noqa: E731
    cases.append(("spectrum", "default basis size (exits 1 on quad)", check, out, False))

    bad = 0
    for name, case, check, out, should_pass in cases:
        try:
            reason = check(out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            reason = f"unreadable output: {exc!r}"
        accepted = reason is None
        verdict = "ok " if accepted == should_pass else "BAD"
        bad += accepted != should_pass
        print(f"{verdict} {name:14s} {case:40s} {'accepted' if accepted else 'rejected: ' + reason}")
    print(f"{len(cases) - bad} of {len(cases)} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
