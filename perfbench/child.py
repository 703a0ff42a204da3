"""Run one benchmark operation in a fresh interpreter.

Usage::

    python child.py SIDE_FILE plain|trace cli ARGS...
    python child.py SIDE_FILE plain|trace lib NAME ARGS...

The caller puts the repository's ``src`` directory on ``PYTHONPATH``.  The
child imports ``nilzeta.cli`` first and records the monotonic time at which
it is ready, so the caller can time process start plus import.  ``cli``
operations then run the ``nilzeta`` command group exactly as
``python -m nilzeta.cli ARGS`` would; ``lib`` operations call the public
library API and print JSON.

With ``trace`` the operation runs under cProfile, and a per-layer summary
is written to SIDE_FILE next to the ready time (see ``layer_summary``).
"""

from __future__ import annotations

import json
import os
import sys
import time

LAYERS = (
    "scalars", "indices", "core", "uea", "weyl", "ideal",
    "linalg", "reduction", "expr", "spectral", "cli",
)

# Public functions whose calls and inclusive time the traced run reports,
# as (metric prefix, module, qualified name, report calls).
SPANS = (
    ("scalars.GaussianRational.init", "scalars", "GaussianRational.__init__", True),
    ("uea.normal_product", "uea", "normal_product", True),
    ("reduction.h_s", "reduction", "h_s", False),
    ("reduction.g_s", "reduction", "g_s", False),
    ("reduction.t_s", "reduction", "t_s", False),
    ("ideal.is_member", "ideal", "is_member", True),
    ("weyl.weyl_product", "weyl", "weyl_product", True),
    ("weyl.rho", "weyl", "rho", True),
    ("ideal.build_slice", "ideal", "build_slice", False),
    ("ideal.canonical_form", "ideal", "canonical_form", True),
    ("linalg.reduce_against", "linalg", "reduce_against", True),
    ("reduction.pole_lattice", "reduction", "pole_lattice", False),
    ("expr.parse_expression", "expr", "parse_expression", False),
    ("expr.format_element", "expr", "format_element", False),
    ("spectral.hermite_matrix", "spectral", "hermite_matrix", False),
    ("spectral.fit_growth", "spectral", "fit_growth", False),
    ("spectral.zeta_value", "spectral", "zeta_value", False),
)


# ---------------------------------------------------------------------------
# Library operations
# ---------------------------------------------------------------------------


def lib_expansions(spec_path: str, i_max: str) -> dict:
    """Power-commutation and Taylor residuals, plus delta1^i_max itself."""
    from nilzeta import (
        UEAElement, WeylOperator, basis, commutator_power_check, delta1,
        load_spec, rho, taylor_residual,
    )

    spec = load_spec(spec_path)
    n, i_max = spec.n, int(i_max)
    d1 = delta1(spec)
    commutators = []
    for kind, data in basis(spec):
        gen = UEAElement.x_gen(spec, data) if kind == "X" else UEAElement.y_gen(spec, data)
        image = rho(spec, gen)
        for i in range(1, i_max + 1):
            commutators.append(len(commutator_power_check(d1, image, i).sorted_terms()))
    ones, twos = (1,) * n, (2,) * n
    taylor = []
    for pairs in ([(ones, ones)], [(ones, ones), (ones, twos)]):
        for x in (WeylOperator.one(n), WeylOperator.x_op(n, 0).scale(-1)):
            for i in range(3):
                taylor.append(len(taylor_residual(d1, pairs, x, i).sorted_terms()))
    power = [
        [list(a), list(b), str(c.re), str(c.im)]
        for (a, b), c in (d1 ** i_max).sorted_terms()
    ]
    return {
        "commutator_residual_terms": commutators,
        "taylor_residual_terms": taylor,
        "power": i_max,
        "power_terms": power,
    }


def lib_sweep(spec_path: str, degree: str) -> dict:
    """Time one build_slice call to `degree` in this fresh process: the cold sweep."""
    from nilzeta import build_slice, load_spec

    spec = load_spec(spec_path)
    started = time.perf_counter()
    chart = build_slice(spec, int(degree))
    return {"seconds": time.perf_counter() - started, "independent": len(chart.independent)}


def lib_machine() -> dict:
    """Versions and thread settings the run depends on."""
    import platform

    import numpy

    import nilzeta

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "rational_backend": nilzeta.RATIONAL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


LIB_OPS = {"expansions": lib_expansions, "sweep": lib_sweep, "machine": lib_machine}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _qualnames(pkg_dir: str) -> dict:
    """Map (file, first line, code name) of nilzeta functions to module.qualname."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("nilzeta."):
            continue
        objs = list(vars(module).values())
        for cls in [o for o in objs if isinstance(o, type)]:
            objs.extend(vars(cls).values())
        for obj in objs:
            func = getattr(obj, "__func__", obj)
            func = getattr(func, "__wrapped__", func)
            code = getattr(func, "__code__", None)
            if code is not None and os.path.dirname(code.co_filename) == pkg_dir:
                key = (code.co_filename, code.co_firstlineno, code.co_name)
                short = func.__module__.split(".", 1)[1]
                out[key] = f"{short}.{func.__qualname__}"
    return out


def layer_summary(profile, matrix_dims: list) -> dict:
    """Per-layer figures from one profiled operation.

    ``<module>.self_s`` is the time spent in functions the module defines,
    plus the time of library code (fractions, numpy, builtins) they call
    directly or through other library code: each library function's own
    time is charged to its callers in proportion to the time it spent for
    each, until a nilzeta caller is reached.  Time reached from no nilzeta
    function (click, this runner) is not charged.
    """
    import pstats

    import nilzeta

    stats = pstats.Stats(profile).stats
    pkg_dir = os.path.dirname(nilzeta.__file__)

    def module_of(key):
        if os.path.dirname(key[0]) == pkg_dir:
            return os.path.basename(key[0])[:-3]
        return None

    memo: dict = {}

    def shares(key, visiting):
        mod = module_of(key)
        if mod is not None:
            return {mod: 1.0}
        if key in memo:
            return memo[key]
        callers = stats[key][4]
        total = sum(v[2] for v in callers.values())
        out: dict = {}
        for caller, v in callers.items():
            weight = v[2] / total if total > 0 else 1.0 / len(callers)
            sub = {} if caller in visiting or caller not in stats else shares(caller, visiting | {key})
            for m, s in sub.items():
                out[m] = out.get(m, 0.0) + weight * s
        memo[key] = out
        return out

    metrics = {f"{m}.self_s": 0.0 for m in LAYERS}
    for key, (_, _, tottime, _, _) in stats.items():
        for m, s in shares(key, frozenset()).items():
            if f"{m}.self_s" in metrics:
                metrics[f"{m}.self_s"] += tottime * s

    by_name = {}
    for key, qual in _qualnames(pkg_dir).items():
        if key in stats:
            by_name[qual] = stats[key]
    for prefix, module, qual, with_calls in SPANS:
        _, calls, _, cumtime, _ = by_name.get(f"{module}.{qual}", (0, 0, 0.0, 0.0, {}))
        metrics[f"{prefix}.s"] = cumtime
        if with_calls:
            metrics[f"{prefix}.calls"] = calls

    # Eigensolves: numpy/scipy eig* routines called directly from nilzeta.
    eigensolve = 0.0
    for key, (_, _, _, _, callers) in stats.items():
        path = key[0].replace(os.sep, "/")
        if key[2].startswith("eig") and ("numpy/linalg" in path or "scipy/linalg" in path):
            eigensolve += sum(v[3] for c, v in callers.items() if module_of(c))
    metrics["spectral.eigensolve.s"] = eigensolve
    metrics["spectral.matrix_dim"] = max(matrix_dims, default=0)
    return metrics


def _watch_matrix_dims(dims: list) -> None:
    """Record the dimension of every Hermite matrix the spectral layer builds."""
    import functools

    import nilzeta.spectral as spectral

    inner = spectral.hermite_matrix

    @functools.wraps(inner)
    def hermite_matrix(*args, **kwargs):
        mat = inner(*args, **kwargs)
        dims.append(int(mat.shape[0]))
        return mat

    spectral.hermite_matrix = hermite_matrix


# ---------------------------------------------------------------------------


def _run(kind: str, args: list) -> int:
    if kind == "cli":
        import nilzeta.cli

        try:
            nilzeta.cli.main.main(args=args, prog_name="nilzeta")
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                return exc.code or 0
            return 1
        return 0
    print(json.dumps(LIB_OPS[args[0]](*args[1:]), sort_keys=True))
    return 0


def main() -> int:
    side_path, mode, kind, *args = sys.argv[1:]
    import nilzeta.cli  # noqa: F401 - the set-up being timed

    side = {"ready": time.monotonic()}
    try:
        if mode != "trace":
            return _run(kind, args)
        import cProfile

        dims: list = []
        _watch_matrix_dims(dims)
        profile = cProfile.Profile()
        profile.enable()
        try:
            return _run(kind, args)
        finally:
            profile.disable()
            side["layers"] = layer_summary(profile, dims)
    finally:
        sys.stdout.flush()
        with open(side_path, "w", encoding="utf-8") as fh:
            json.dump(side, fh)


if __name__ == "__main__":
    sys.exit(main())
