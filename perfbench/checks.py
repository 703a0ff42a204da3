"""Independent checks of nilzeta's outputs.

Every expected value here is computed from the algebra description with the
benchmark's own arithmetic: its own reader for the element grammar, its own
copy of the representation (acting on polynomials), the Weyl-law abscissa
from phase-space volume, and closed forms for the harmonic oscillator.
Nothing imports nilzeta and nothing compares against a stored copy of an
earlier run's output.

Each ``check_*`` function takes the operation's inputs, its exit code and
its standard output, and returns ``None`` when the output is right or a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import product

VERIFY_CHECKS = (
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
)

# Largest |fitted abscissa - Weyl-law abscissa| accepted from `spectrum`,
# by number of axes, at the basis sizes the workload uses.
ABSCISSA_TOL = {1: 0.05, 2: 0.15}
HEIS_EIGEN_TOL = 1e-10


# ---------------------------------------------------------------------------
# Algebra descriptions
# ---------------------------------------------------------------------------


class Algebra:
    """An algebra description in the CLI's JSON form (1-based blocks)."""

    def __init__(self, data: dict) -> None:
        self.data = data
        self.n = data["n"]
        self.alpha = tuple(data["alpha"])
        self.blocks = [tuple(k - 1 for k in block) for block in data["partition"]]

    def index_set(self) -> list[tuple[int, ...]]:
        """Multi-indices beta <= alpha supported on a single block, sorted."""
        out = set()
        for block in self.blocks:
            for values in product(*(range(self.alpha[k] + 1) for k in block)):
                beta = [0] * self.n
                for k, v in zip(block, values):
                    beta[k] = v
                out.add(tuple(beta))
        return sorted(out)

    def nilpotency_class(self) -> int:
        return max(sum(self.alpha[k] for k in block) for block in self.blocks) + 1

    def weyl_abscissa(self) -> Fraction:
        """Abscissa of the eigenvalue zeta of 2 - Laplacian + sum x^(2 beta)/beta!^2.

        By the Weyl law N(lambda) grows like the phase-space volume of
        {|xi|^2 + V(x) <= lambda}.  Per block the volume grows like
        lambda^(|B|/2 + max_j 1/(2 alpha_j)), so the abscissa is minus the
        sum of these exponents.
        """
        total = Fraction(0)
        for block in self.blocks:
            total += Fraction(len(block), 2) + max(Fraction(1, 2 * self.alpha[k]) for k in block)
        return -total

    def least_degree(self, operator: dict) -> int:
        """Least PBW degree of an element whose image is the operator.

        A product of Y factors followed by X factors maps to a single term
        x^a d^b, with |b| X factors, and the fewest Y factors whose indices
        sum to a: on each block, max_k ceil(a_k / alpha_k).  No element of
        lower degree reaches x^a d^b, since each X factor adds one
        derivative and each Y factor at most alpha_k to each exponent.
        """
        return max((sum(b) + self.cover(a) for a, b in operator), default=0)

    def cover(self, a) -> int:
        """Fewest Y factors whose indices sum to the exponent a."""
        return sum(max(-(-a[k] // self.alpha[k]) for k in block) for block in self.blocks)


# ---------------------------------------------------------------------------
# Gaussian rationals, the element grammar and the representation
# ---------------------------------------------------------------------------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


_TOKEN = re.compile(r"\s*(?:(\d+)|X(\d+)|(Y\[)|(\])|(,)|(\^)|(\*)|(\+)|(-)|(/)|(i))")
_KINDS = ("NUM", "X", "Y", "]", ",", "^", "*", "+", "-", "/", "i")


def _tokens(text: str) -> list[tuple[str, object]]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:pos + 10]!r}")
        for kind, value in zip(_KINDS, m.groups()):
            if value is not None:
                out.append((kind, int(value) if kind in ("NUM", "X") else value))
                break
        pos = m.end()
    return out + [("END", None)]


def parse_element(text: str, n: int) -> list:
    """Read the element grammar into [(coefficient, [factor, ...]), ...].

    A factor is ("X", k, e) for X_{k+1}^e or ("Y", beta, e) for Y[beta]^e,
    kept in the written order.
    """
    toks = _tokens(text)
    pos = 0

    def take(kind):
        nonlocal pos
        if toks[pos][0] != kind:
            raise ValueError(f"expected {kind} in {text!r}")
        pos += 1
        return toks[pos - 1][1]

    def exponent():
        nonlocal pos
        if toks[pos][0] == "^":
            pos += 1
            return take("NUM")
        return 1

    def term(sign):
        nonlocal pos
        coeff = (Fraction(sign), Fraction(0))
        factors = []
        if toks[pos][0] in ("NUM", "i"):
            value = Fraction(1)
            if toks[pos][0] == "NUM":
                value = Fraction(take("NUM"))
                if toks[pos][0] == "/":
                    pos += 1
                    value /= take("NUM")
            coeff = (value * sign, Fraction(0))
            if toks[pos][0] == "i":
                pos += 1
                coeff = (Fraction(0), value * sign)
            if toks[pos][0] != "*":
                return coeff, factors
            pos += 1
        while True:
            if toks[pos][0] == "X":
                factors.append(("X", take("X") - 1, exponent()))
            else:
                take("Y")
                beta = [take("NUM")]
                while toks[pos][0] == ",":
                    pos += 1
                    beta.append(take("NUM"))
                take("]")
                if len(beta) != n:
                    raise ValueError(f"index {beta} has the wrong length in {text!r}")
                factors.append(("Y", tuple(beta), exponent()))
            if toks[pos][0] != "*":
                return coeff, factors
            pos += 1

    if toks[0][0] == "NUM" and toks[0][1] == 0 and toks[1][0] == "END":
        return []
    terms = []
    sign = 1
    if toks[pos][0] == "-":
        pos += 1
        sign = -1
    terms.append(term(sign))
    while toks[pos][0] in ("+", "-"):
        sign = 1 if take(toks[pos][0]) == "+" else -1
        terms.append(term(sign))
    take("END")
    return terms


def element_degree(terms: list) -> int:
    """Largest number of generator factors in a term (PBW degree)."""
    return max((sum(e for _, _, e in factors) for _, factors in terms), default=0)


def _apply_factor(factor, poly: dict) -> dict:
    """rho(X_k) = -d/dx_k and rho(Y^beta) = i (-1)^|beta| / beta! * x^beta."""
    kind, what, e = factor
    for _ in range(e):
        out: dict = {}
        if kind == "X":
            for m, c in poly.items():
                if m[what]:
                    key = m[:what] + (m[what] - 1,) + m[what + 1:]
                    out[key] = g_add(out.get(key, ZERO), g_mul(c, (Fraction(-m[what]), Fraction(0))))
        else:
            sign = -1 if sum(what) % 2 else 1
            scale = (Fraction(0), Fraction(sign, math.prod(math.factorial(b) for b in what)))
            for m, c in poly.items():
                out[tuple(a + b for a, b in zip(m, what))] = g_mul(c, scale)
        poly = {m: c for m, c in out.items() if c != ZERO}
    return poly


def image_on(terms: list, poly: dict) -> dict:
    """Apply the image of an element to a polynomial {exponents: coefficient}."""
    out: dict = {}
    for coeff, factors in terms:
        part = poly
        for factor in reversed(factors):
            part = _apply_factor(factor, part)
        for m, c in part.items():
            out[m] = g_add(out.get(m, ZERO), g_mul(coeff, c))
    return {m: c for m, c in out.items() if c != ZERO}


def operator_of(terms: list, n: int) -> dict:
    """The image of an element as {(a, b): coefficient} of x^a d^b.

    An operator of order at most r in the derivatives is determined by its
    values on the monomials x^m with |m| <= r.  Taking m in order of |m|,
    P(x^m) less what the coefficients of x^a d^b' with b' < m already give
    is m! times the sum of the coefficients of x^a d^m times x^a.
    """
    order = max([sum(e for kind, _, e in factors if kind == "X") for _, factors in terms] + [0])
    out: dict = {}
    for m in sorted((m for m in product(range(order + 1), repeat=n) if sum(m) <= order), key=sum):
        value = image_on(terms, {m: ONE})
        for (a, b), c in list(out.items()):
            if b != m and all(x <= y for x, y in zip(b, m)):
                falling = math.prod(math.factorial(y) // math.factorial(y - x) for x, y in zip(b, m))
                key = tuple(x + y - z for x, y, z in zip(a, m, b))
                value[key] = g_add(value.get(key, ZERO), g_mul(c, (Fraction(-falling), Fraction(0))))
        scale = (Fraction(1, math.prod(math.factorial(x) for x in m)), Fraction(0))
        for a, c in value.items():
            if c != ZERO:
                out[(a, m)] = g_mul(c, scale)
    return out


def _json(rc: int, out: str):
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(out)


# ---------------------------------------------------------------------------
# Command checks
# ---------------------------------------------------------------------------


def check_verify(alg: Algebra, max_degree: int, rc: int, out: str):
    rep = _json(rc, out)
    if rep.get("spec") != alg.data or rep.get("max_degree") != max_degree:
        return "report does not echo its inputs"
    status = {c["name"]: c["status"] for c in rep.get("checks", [])}
    for name in VERIFY_CHECKS:
        if status.get(name) != "pass":
            return f"check {name} is {status.get(name, 'missing')}"
    if rep.get("all_passed") is not True:
        return "all_passed is not true"
    return None


def check_reduce(alg: Algebra, expr: str, rc: int, out: str):
    """The canonical form has the input's image and the least degree that reaches it.

    The sweep classifies monomials in ascending degree, so the canonical
    form has the least degree of any element with the input's image, and
    none of its monomials has an image that a lower degree reaches (such a
    monomial is dependent).
    """
    rep = _json(rc, out)
    image = operator_of(parse_element(expr, alg.n), alg.n)
    canonical = parse_element(rep["canonical"], alg.n)
    if operator_of(canonical, alg.n) != image:
        return f"canonical form {rep['canonical']!r} has another image than the input"
    if rep["in_ideal"] != (not image):
        return f"in_ideal is {rep['in_ideal']}, but the input's image is {'not ' if image else ''}zero"
    least = alg.least_degree(image)
    if element_degree(canonical) != least or rep["degree"] != least:
        return (f"canonical form {rep['canonical']!r} has degree {element_degree(canonical)} "
                f"(reported {rep['degree']}), but degree {least} reaches its image")
    for _, factors in canonical:
        degree = sum(e for _, _, e in factors)
        if alg.least_degree(operator_of([(ONE, factors)], alg.n)) < degree:
            return f"monomial {factors} of the canonical form is dependent: a lower degree reaches its image"
    return None


def check_reduce_again(first: dict, rc: int, out: str):
    """Reducing a canonical form again must return it unchanged."""
    rep = _json(rc, out)
    if rep != first:
        return f"second reduction changed {first['canonical']!r} to {rep.get('canonical')!r}"
    return None


def check_poles(alg: Algebra, lmax: int, rc: int, out: str):
    rep = _json(rc, out)
    entries = rep["entries"]
    if not entries:
        return "empty lattice"
    omegas = [Fraction(e["omega"]) for e in entries]
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        return "entries are not ascending and distinct"
    for e in entries:
        if e["multiplicity"] != len(e["witnesses"]):
            return f"multiplicity of {e['omega']} differs from its witness count"
        if any(w["l"] > lmax for w in e["witnesses"]):
            return f"witness of {e['omega']} exceeds lmax"
    edge = alg.weyl_abscissa()
    if omegas[0] != edge or Fraction(rep["physical_abscissa"]) != edge:
        return f"lowest pole {omegas[0]} is not the Weyl-law abscissa {edge}"
    return None


def check_algebra(alg: Algebra, rc: int, out: str):
    rep = _json(rc, out)
    size = len(alg.index_set())
    expected = {
        "valid": True,
        "jacobi": "ok",
        "spec": alg.data,
        "index_set_size": size,
        "basis_size": alg.n + size,
        "nilpotency_class": alg.nilpotency_class(),
    }
    for key, value in expected.items():
        if rep.get(key) != value:
            return f"{key} is {rep.get(key)!r}, expected {value!r}"
    return None


def check_spectrum(alg: Algebra, zs: list, rc: int, out: str):
    rep = _json(rc, out)
    edge = float(alg.weyl_abscissa())
    if Fraction(rep["physical_abscissa"]) != alg.weyl_abscissa():
        return "physical_abscissa is not the Weyl-law abscissa"
    if not abs(rep["abscissa"] - edge) <= ABSCISSA_TOL[alg.n]:
        return f"fitted abscissa {rep['abscissa']} is not within {ABSCISSA_TOL[alg.n]} of {edge}"
    head = rep["eigenvalues_head"]
    if not head or any(b < a for a, b in zip(head, head[1:])):
        return "eigenvalue head is empty or not ascending"
    if alg.n == 1 and alg.alpha == (1,):
        # 2 - d^2 + x^2 is the harmonic oscillator shifted by 2.
        for k, value in enumerate(head):
            if not abs(value - (2 * k + 3)) <= HEIS_EIGEN_TOL:
                return f"eigenvalue {k} is {value}, expected {2 * k + 3}"
    zeta = rep["zeta"]
    if [e.get("z") for e in zeta] != zs:
        return "zeta entries do not match the requested points"
    for e in zeta:
        if "error" in e:
            return f"zeta at {e['z']} refused: {e['error']}"
        partial = sum(v ** e["z"] for v in head)
        if not (e["value_re"] >= partial * (1 - 1e-12) and e["value_im"] == 0.0):
            return f"zeta at {e['z']} is below the sum over its own eigenvalue head"
        if not (0.0 <= e["tail_bound"] < math.inf):
            return f"tail bound at {e['z']} is not a finite nonnegative number"
        if alg.n == 1 and alg.alpha == (1,) and e["z"] == -2.0:
            # sum over odd m >= 3 of 1/m^2
            missing = math.pi ** 2 / 8 - 1 - e["value_re"]
            if not 0.0 <= missing <= e["tail_bound"]:
                return f"heis zeta(-2) misses pi^2/8 - 1 by {missing}, bound {e['tail_bound']}"
    values = [e["value_re"] for e in sorted(zeta, key=lambda e: e["z"])]
    if any(b <= a for a, b in zip(values, values[1:])):
        return "zeta values do not increase with z"
    return None


def spectrum_facts(alg: Algebra, out: str) -> tuple[int, float]:
    """(converged eigenvalue count, |fitted - Weyl-law abscissa|) of a spectrum run."""
    rep = json.loads(out)
    return rep["converged"], abs(rep["abscissa"] - float(alg.weyl_abscissa()))


# ---------------------------------------------------------------------------
# Exact expansions
# ---------------------------------------------------------------------------


def check_expansions(alg: Algebra, i_max: int, test_polys: list, rc: int, out: str):
    """Residuals are zero, and delta1^i_max matches i_max-fold sympy differentiation.

    ``test_polys`` holds polynomials as {exponents: integer coefficient}.
    """
    import sympy

    rep = _json(rc, out)
    gens = alg.n + len(alg.index_set())
    if len(rep["commutator_residual_terms"]) != gens * i_max:
        return "wrong number of commutator residuals"
    if len(rep["taylor_residual_terms"]) != 12:
        return "wrong number of Taylor residuals"
    if any(rep["commutator_residual_terms"]) or any(rep["taylor_residual_terms"]):
        return "a residual is not the zero operator"
    if rep["power"] != i_max:
        return "power of delta1 is not the requested one"

    xs = sympy.symbols(f"x1:{alg.n + 1}")

    def monomial(exps):
        return sympy.Mul(*(x ** e for x, e in zip(xs, exps)))

    def delta1(f):
        out = 2 * f - sum(sympy.diff(f, x, 2) for x in xs)
        for beta in alg.index_set():
            if any(beta):
                weight = sympy.Integer(math.prod(math.factorial(b) for b in beta)) ** 2
                out += monomial([2 * b for b in beta]) * f / weight
        return sympy.expand(out)

    for poly in test_polys:
        f = sum(c * monomial(m) for m, c in poly.items())
        expected = f
        for _ in range(i_max):
            expected = delta1(expected)
        got = sympy.Integer(0)
        for a, b, re_part, im_part in rep["power_terms"]:
            part = f
            for x, order in zip(xs, b):
                part = sympy.diff(part, x, order)
            coeff = sympy.Rational(re_part) + sympy.I * sympy.Rational(im_part)
            got += coeff * monomial(a) * part
        if sympy.expand(got - expected) != 0:
            return f"delta1^{i_max} disagrees with repeated differentiation"
    return None
