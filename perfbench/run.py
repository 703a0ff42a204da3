"""The nilzeta benchmark: one command for every workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Each operation runs in a fresh child process (``perfbench/child.py``) with
the repository's ``src`` on ``PYTHONPATH``, as a command-line user runs
``python -m nilzeta.cli``; operations run one after another from this single
process.  A run repeats whole passes over the workload's operations and
stops at the pass boundary nearest to ``--seconds``, checks every output against
the benchmark's own computations (``perfbench/checks.py``), and prints a
few human-readable lines and then, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run does one plain pass for reference and then profiled passes, and
the metrics are the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import Algebra  # noqa: E402
from child import LAYERS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OP_TIMEOUT_S = 120.0
BLAS_THREADS = "1"

# The six standard algebras of the test suite, in the CLI's JSON form.
ALGEBRAS = {
    "heis": {"n": 1, "alpha": [1], "partition": [[1]]},
    "quad": {"n": 1, "alpha": [2], "partition": [[1]]},
    "cubic": {"n": 1, "alpha": [3], "partition": [[1]]},
    "pair_split": {"n": 2, "alpha": [1, 1], "partition": [[1], [2]]},
    "pair_joint": {"n": 2, "alpha": [1, 1], "partition": [[1, 2]]},
    "mixed": {"n": 2, "alpha": [1, 2], "partition": [[1], [2]]},
}

VERIFY_MAX_DEGREE = 3
# (algebra, degree, X factors) of the deep `reduce` inputs: a degree this
# high makes the cold slice sweep the bulk of the command.
DEEP_REDUCE = (("cubic", 9, 0), ("quad", 9, 1), ("pair_joint", 6, 0), ("mixed", 6, 1))
# (algebra, degree) of the `reduce` inputs that lie in the kernel ideal.
IDEAL_REDUCE = (("cubic", 6), ("mixed", 5))
EXPANSION_POWER = {1: 4, 2: 3}
SPECTRUM_BASIS = {"heis": 200, "quad": 400, "cubic": 400, "pair_split": 24}
# Traced runs of the workloads that sweep degrees also time the cold sweep of
# one algebra to each degree k, each k in a fresh process.
SWEEP_PROBE = {"verify": ("cubic", VERIFY_MAX_DEGREE), "reduce-poles": ("cubic", 9)}
SWEEP_PROBE_DEGREES = 10


@dataclass
class Op:
    """One operation: child arguments, and a check of (exit code, stdout)."""

    label: str
    args: list
    check: Callable[[int, str], Optional[str]]
    # Builds the operation that must run right after this one from its
    # output (a second `reduce` of a canonical form).
    then: Optional[Callable[[str], "Op"]] = None
    # Set on `spectrum` operations, whose outputs also feed the per-layer
    # spectral figures.
    algebra: Optional[Algebra] = None


@dataclass
class Result:
    """One operation as run: times, peak memory, verdict and traced figures."""

    label: str
    seconds: float
    setup_s: Optional[float]
    rss_mb: float
    ok: bool
    wrong: bool = False
    reason: str = ""
    stdout: str = ""
    layers: dict = field(default_factory=dict)
    imports: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _gaussian(rng: random.Random) -> tuple:
    """A nonzero Gaussian rational (re, im)."""
    re_part, im_part = 0, 0
    while re_part == 0 and im_part == 0:
        re_part, im_part = rng.randint(-4, 4), rng.randint(-4, 4)
    den = rng.choice((1, 1, 2, 3))
    return Fraction(re_part, den), Fraction(im_part, den)


def _term(coeff: tuple, factors: list) -> list:
    """One term as (sign, text) pieces.

    The grammar's coefficients are real or imaginary, so a coefficient with
    both parts becomes two terms with the same factors.
    """
    pieces = []
    for value, unit in zip(coeff, ("", "i")):
        if value:
            pieces.append(("-" if value < 0 else "+", f"{abs(value)}{unit} * {' * '.join(factors)}"))
    return pieces


def _join(pieces: list) -> str:
    text = ""
    for sign, body in pieces:
        if not text:
            text = ("-" if sign == "-" else "") + body
        else:
            text += f" {sign} {body}"
    return text


def _y(beta) -> str:
    return "Y[" + ",".join(map(str, beta)) + "]"


def _y_powers(betas: list) -> list:
    """Y factors, grouped into powers."""
    counts: dict = {}
    for beta in betas:
        counts[beta] = counts.get(beta, 0) + 1
    return [_y(b) + (f"^{e}" if e > 1 else "") for b, e in counts.items()]


def _y_product(rng: random.Random, alg: Algebra, degree: int) -> list:
    """`degree` random Y factors, grouped into powers."""
    return _y_powers([rng.choice(alg.index_set()) for _ in range(degree)])


def deep_expression(rng: random.Random, alg: Algebra, degree: int, xs: int) -> str:
    """A degree-`degree` element: Y factors with `xs` X factors mixed in."""
    lead = _y_product(rng, alg, degree - xs)
    for _ in range(xs):
        lead.insert(rng.randrange(len(lead) + 1), f"X{rng.randint(1, alg.n)}")
    second = _y_product(rng, alg, degree - 2)
    return _join(_term(_gaussian(rng), lead) + _term(_gaussian(rng), second))


def ideal_expression(rng: random.Random, alg: Algebra, degree: int) -> str:
    """A degree-`degree` element whose image is zero.

    Two Y products P and Q whose indices sum to the same a map to c_P x^a
    and c_Q x^a, so c_Q P - c_P Q lies in the kernel ideal, and so does its
    product with an X factor.  P has `degree` - 1 factors, one of them Y[0]
    (which maps to i), and Q is another split of a into at most as many, so
    the element's degree is `degree` whatever the seed.
    """
    zero = (0,) * alg.n
    nonzero = [b for b in alg.index_set() if any(b)]
    first = [rng.choice(nonzero) for _ in range(degree - 2)] + [zero]
    total = [sum(b[k] for b in first) for k in range(alg.n)]
    second = first[:-1]
    for _ in range(20):
        rest, split = total, []
        while any(rest):
            fits = [b for b in nonzero
                    if all(x <= r for x, r in zip(b, rest))
                    and len(split) + 1 + alg.cover([r - x for r, x in zip(rest, b)]) <= len(first)]
            split.append(rng.choice(fits))
            rest = [r - x for r, x in zip(rest, split[-1])]
        split += [zero] * rng.randint(0, len(first) - len(split))
        if sorted(split) != sorted(first):
            second = split
            break

    def image(product):
        (coeff,) = checks.operator_of([(checks.ONE, [("Y", b, 1) for b in product])], alg.n).values()
        return coeff

    scale = _gaussian(rng)
    x_gen = f"X{rng.randint(1, alg.n)}"
    on_left = rng.random() < 0.5
    pieces = []
    for coeff, product in ((image(second), first), (checks.g_mul((-1, 0), image(first)), second)):
        factors = _y_powers(product)
        factors = [x_gen] + factors if on_left else factors + [x_gen]
        pieces += _term(checks.g_mul(scale, coeff), factors)
    return _join(pieces)


def short_expression(rng: random.Random, alg: Algebra) -> str:
    """Three terms of one to three generators each, in random written order."""
    gens = [f"X{k + 1}" for k in range(alg.n)] + [_y(b) for b in alg.index_set()]
    pieces = []
    for _ in range(3):
        pieces += _term(_gaussian(rng), [rng.choice(gens) for _ in range(rng.randint(1, 3))])
    return _join(pieces)


def _reduce_op(label: str, alg: Algebra, spec: str, expr: str) -> Op:
    def again(out: str) -> Op:
        first = json.loads(out)
        return Op(
            f"{label} again",
            ["cli", "reduce", spec, "--expr", first["canonical"]],
            lambda rc, o: checks.check_reduce_again(first, rc, o),
        )

    return Op(
        label,
        ["cli", "reduce", spec, "--expr", expr],
        lambda rc, o: checks.check_reduce(alg, expr, rc, o),
        then=again,
    )


def build_workload(name: str, seed: int, specs: dict) -> list:
    """The operations of one pass, made from the seed."""
    rng = random.Random(f"{name}:{seed}")
    algs = {a: Algebra(data) for a, data in ALGEBRAS.items()}
    order = list(ALGEBRAS)
    rng.shuffle(order)
    ops: list = []
    if name == "verify":
        for a in order:
            ops.append(Op(
                f"verify {a}",
                ["cli", "verify", specs[a], "--max-degree", str(VERIFY_MAX_DEGREE)],
                lambda rc, o, alg=algs[a]: checks.check_verify(alg, VERIFY_MAX_DEGREE, rc, o),
            ))
    elif name == "reduce-poles":
        for a, degree, xs in DEEP_REDUCE:
            expr = deep_expression(rng, algs[a], degree, xs)
            ops.append(_reduce_op(f"reduce {a} deep", algs[a], specs[a], expr))
        for a, degree in IDEAL_REDUCE:
            expr = ideal_expression(rng, algs[a], degree)
            ops.append(_reduce_op(f"reduce {a} ideal", algs[a], specs[a], expr))
        for a in order:
            alg = algs[a]
            ops.append(_reduce_op(f"reduce {a} short", alg, specs[a], short_expression(rng, alg)))
            lmax = rng.randint(3, 6)
            s0 = str(-2 * alg.weyl_abscissa())
            ops.append(Op(
                f"poles {a}",
                ["cli", "poles", specs[a], "--q", "0", "--s0", s0, "--lmax", str(lmax)],
                lambda rc, o, alg=alg, lmax=lmax: checks.check_poles(alg, lmax, rc, o),
            ))
            ops.append(Op(
                f"algebra check {a}",
                ["cli", "algebra", "check", specs[a]],
                lambda rc, o, alg=alg: checks.check_algebra(alg, rc, o),
            ))
        # The deep commands first, the rest in random order.
        head, tail = ops[:len(DEEP_REDUCE)], ops[len(DEEP_REDUCE):]
        rng.shuffle(tail)
        ops = head + tail
    elif name == "expansions":
        for a in order:
            alg = algs[a]
            i_max = EXPANSION_POWER[alg.n]
            polys = []
            for _ in range(2):
                poly = {}
                for _ in range(3):
                    exps = tuple(rng.randint(0, 3) for _ in range(alg.n))
                    poly[exps] = rng.choice((-3, -2, -1, 1, 2, 3))
                polys.append(poly)
            ops.append(Op(
                f"expansions {a}",
                ["lib", "expansions", specs[a], str(i_max)],
                lambda rc, o, alg=alg, i_max=i_max, polys=polys: checks.check_expansions(
                    alg, i_max, polys, rc, o),
            ))
    elif name == "spectrum":
        for a in order:
            if a not in SPECTRUM_BASIS:
                continue
            alg = algs[a]
            # Two points left of the abscissa, from disjoint ranges so that
            # they differ; heis always includes -2, where the value is known.
            edge = float(alg.weyl_abscissa())
            zs = [round(rng.uniform(edge - 2.5, edge - 1.5), 3),
                  round(rng.uniform(edge - 1.4, edge - 0.5), 3)]
            if a == "heis":
                zs = [-2.0, zs[0]]
            args = ["cli", "spectrum", specs[a], "--basis-size", str(SPECTRUM_BASIS[a])]
            for z in zs:
                args.append(f"--zeta-at={z!r}")
            ops.append(Op(
                f"spectrum {a}",
                args,
                lambda rc, o, alg=alg, zs=zs: checks.check_spectrum(alg, zs, rc, o),
                algebra=alg,
            ))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


WORKLOADS = ("verify", "reduce-poles", "expansions", "spectrum")


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


class Runner:
    """Spawns operations one at a time and checks their outputs."""

    def __init__(self, work: Path, trace: bool) -> None:
        self.work = work
        self.trace = trace
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": os.environ.get("HOME", str(work)),
            "LANG": "C.UTF-8",
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": BLAS_THREADS,
            "OMP_NUM_THREADS": BLAS_THREADS,
            "MKL_NUM_THREADS": BLAS_THREADS,
        }
        self.verdicts: dict = {}

    def spawn(self, args: list, trace: bool) -> tuple:
        """Run the child; return (exit code, seconds, ready time, rss MB, stdout, side)."""
        out_path, err_path, side_path = (self.work / n for n in ("out", "err", "side"))
        side_path.unlink(missing_ok=True)
        flags = ["-X", "importtime"] if trace else []
        argv = [sys.executable, *flags, str(CHILD), str(side_path), "trace" if trace else "plain", *args]
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        started = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        killer = threading.Timer(OP_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            killer.cancel()
        seconds = time.monotonic() - started
        rc = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8")
        side = json.loads(side_path.read_text()) if side_path.exists() else {}
        if trace:
            side["imports"] = import_times(err_path.read_text(encoding="utf-8"))
        ready = side.get("ready")
        setup = ready - started if ready is not None else None
        return rc, seconds, setup, usage.ru_maxrss / 1024.0, stdout, side

    def run(self, op: Op) -> Result:
        rc, seconds, setup, rss, stdout, side = self.spawn(op.args, self.trace)
        key = (tuple(op.args), rc, stdout)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(rc, stdout)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                self.verdicts[key] = f"unreadable output: {exc!r}"
        reason = self.verdicts[key]
        res = Result(op.label, seconds, setup, rss, ok=reason is None, stdout=stdout,
                     layers=side.get("layers", {}), imports=side.get("imports", {}))
        if reason is not None:
            res.reason = reason
            # A nonzero exit or a timeout is a failed operation; an output
            # that exits 0 but fails its check is a wrong answer.
            res.wrong = rc == 0
        return res

    def run_pass(self, ops: list) -> list:
        results = []
        for op in ops:
            res = self.run(op)
            results.append(res)
            if op.then is not None:
                if res.ok:
                    results.append(self.run(op.then(res.stdout)))
                else:
                    results.append(Result(f"{op.label} again", 0.0, None, 0.0, ok=False,
                                          reason="not run: first reduction failed"))
        return results


def import_times(stderr: str) -> dict:
    """Per-module import seconds from ``python -X importtime`` output.

    A nilzeta module's figure is its cumulative import time minus that of
    the nilzeta modules imported beneath it, so third-party imports (numpy,
    click) count against the nilzeta module that first pulls them in.
    ``nilzeta`` itself is the whole package plus ``nilzeta.cli``.
    """
    pending: list = []  # (depth, name, cumulative us, nilzeta cumulative of children)
    cumulative: dict = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        inner = 0
        while pending and pending[-1][0] > depth:
            child = pending.pop()
            if child[1].startswith("nilzeta"):
                inner += child[2]
        pending.append((depth, name, int(cum), inner))
        if name.startswith("nilzeta."):
            cumulative[name.split(".", 1)[1]] = (int(cum) - inner) / 1e6
        elif name == "nilzeta":
            cumulative["package"] = int(cum) / 1e6
    out = {f"{m}.import_s": cumulative.get(m, 0.0) for m in LAYERS}
    out["nilzeta.import_s"] = cumulative.get("package", 0.0) + cumulative.get("cli", 0.0)
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(passes: list) -> dict:
    """Means over the whole run, and the median over operations.

    This machine's speed switches between a fast and a slow state every few
    seconds.  A median over samples flips between the two states with the
    share of the run spent in each; a mean over the whole run moves with
    that share smoothly, and so varies about half as much from run to run
    (see README.md, *Steadiness*).
    """
    results = [r for p in passes for r in p]
    setups = [r.setup_s for r in results if r.setup_s is not None]
    # Each operation's mean over the passes first, then the median over the
    # operations: the plain median of all samples would be one sample of
    # one of the two middle operations.
    per_op = [statistics.fmean(p[k].seconds for p in passes) for k in range(len(passes[0]))]
    return {
        "setup_s": (statistics.fmean(setups) if setups else 0.0, "s"),
        "wall_s": (statistics.fmean(sum(r.seconds for r in p) for p in passes), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
    }


def per_layer(plain: list, traced: list, sweep: list, spectrum: tuple) -> dict:
    """Per-pass sums of the profiled figures, medians of import times."""
    out: dict = {}
    for p in traced:
        totals: dict = {}
        for r in p:
            for key, value in r.layers.items():
                if key == "spectral.matrix_dim":
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        for key, value in totals.items():
            out.setdefault(key, []).append(value)
    metrics = {}
    for key, values in out.items():
        unit = "count" if key.endswith(".calls") or key == "spectral.matrix_dim" else "s"
        metrics[key] = (statistics.median(values), unit)
    imports: dict = {}
    for r in (r for p in traced for r in p):
        for key, value in r.imports.items():
            imports.setdefault(key, []).append(value)
    for key, values in imports.items():
        metrics[key] = (statistics.median(values), "s")
    for d in range(SWEEP_PROBE_DEGREES):
        metrics[f"ideal.build_slice.d{d}.s"] = (sweep[d] if d < len(sweep) else 0.0, "s")
    converged, err = spectrum
    metrics["spectrum.converged_eigs"] = (converged, "count")
    metrics["spectrum.abscissa_err"] = (err, "1")
    traced_wall = statistics.fmean(sum(r.seconds for r in p) for p in traced)
    plain_wall = statistics.fmean(sum(r.seconds for r in p) for p in plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead"] = (traced_wall / plain_wall, "x")
    return metrics


def spectrum_facts(passes: list, ops: list) -> tuple:
    """Converged eigenvalues summed over a pass, and the largest abscissa error."""
    converged, err = 0, 0.0
    by_label = {op.label: op for op in ops}
    for r in passes[0]:
        op = by_label.get(r.label)
        if r.ok and op is not None and op.args[1] == "spectrum":
            count, e = checks.spectrum_facts(op.algebra, r.stdout)
            converged += count
            err = max(err, e)
    return converged, err


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nilzeta" / "cli.py").is_file():
        print(f"no nilzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            if _bench(workload, args, work):
                return 2
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(workload: str, args, work: Path) -> int:
    specs = {}
    for name, data in ALGEBRAS.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        specs[name] = str(path)
    ops = build_workload(workload, args.seed, specs)
    runner = Runner(work, trace=False)

    # Warm-up: byte-compiles the package and records the machine.
    rc, _, _, _, stdout, _ = runner.spawn(["lib", "machine"], trace=False)
    if rc != 0:
        print("the nilzeta package does not import", file=sys.stderr)
        return 2
    machine = json.loads(stdout)

    plain: list = []
    if args.trace:
        plain.append(runner.run_pass(ops))
        runner.trace = True
    # Whole passes, ending at the pass boundary nearest to --seconds of
    # measured time; time spent checking outputs is not measured time.
    passes: list = []
    measured = 0.0
    while True:
        passes.append(runner.run_pass(ops))
        last = sum(r.seconds for r in passes[-1])
        measured += last
        if measured + last / 2 > args.seconds:
            break

    results = [r for p in passes for r in p]
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    correct = not any(r.wrong for r in results)

    if args.trace:
        sweep: list = []
        if workload in SWEEP_PROBE:
            algebra, degree = SWEEP_PROBE[workload]
            for d in range(degree + 1):
                rc, _, _, _, stdout, _ = runner.spawn(["lib", "sweep", specs[algebra], str(d)], False)
                sweep.append(json.loads(stdout)["seconds"] if rc == 0 else 0.0)
        metrics = per_layer(plain, passes, sweep, spectrum_facts(passes, ops))
    else:
        metrics = end_to_end(passes)

    print(f"workload {workload}  seed {args.seed}  passes {len(passes)}  "
          f"operations/pass {len(passes[0])}  trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for label in dict.fromkeys(r.label for r in results):
        times = [r.seconds for r in results if r.label == label]
        print(f"op {label:34s} {statistics.fmean(times):8.3f} s")
    for r in results:
        if not r.ok:
            print(f"FAILED {r.label}: {r.reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
