"""Text syntax for enveloping-algebra elements.

Grammar (whitespace insignificant)::

    element := ["-"] term (("+" | "-") term)*
    term    := coeff "*" factor ("*" factor)*
             | factor ("*" factor)*
             | coeff
    factor  := "X" nat ["^" nat]
             | "Y[" nat ("," nat)* "]" ["^" nat]
    coeff   := int ["/" nat] ["i"] | "i"

``X3`` is the third generator (1-based); ``Y[1,0]`` names the basis element
for the written multi-index, whose length must match the algebra's n and
which must lie in the algebra's index set.  A bare coeff is a constant term
(needed to express elements like ``Y[0] - i``).  Factors multiply in the
written order with the algebra's non-commutative product.

Parse errors carry the character position and what was expected.  The
printer emits leading-monomial-first output that parses back to the same
element.
"""

from __future__ import annotations

import re
import sys
from typing import Optional

from .core import AlgebraSpec, _sym_str, basis, y_position
from .scalars import GaussianRational, Rat, format_rational
from .uea import MAX_PUSH_WORK, Monomial, UEAElement, _push_work, normal_product


class ExpressionError(ValueError):
    """Parse failure with position information."""

    def __init__(self, message: str, position: int, expected: Optional[str] = None) -> None:
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Tokens (kind, value, position), END last.

    One regex match per token: a NUMBER (decimal digits only), an XGEN with
    its digits, skipped whitespace, or one character whose kind ``kinds`` gives.
    """
    kinds = {
        "Y": "Y", "i": "I", "[": "LBRACK", "]": "RBRACK", ",": "COMMA",
        "^": "CARET", "*": "STAR", "+": "PLUS", "-": "MINUS", "/": "SLASH",
    }
    tokens = []
    for m in re.finditer(r"(\d+)|X(\d*)|\s+|(.)", text):
        number, xgen, char = m.groups()
        pos = m.start()
        if xgen == "":
            raise ExpressionError("generator X needs a 1-based index", pos, "digit")
        if number or xgen:
            try:
                tokens.append(("XGEN" if xgen else "NUMBER", int(number or xgen), pos))
            except ValueError:  # past the interpreter's int-to-str digit limit
                limit = sys.get_int_max_str_digits()
                raise ExpressionError(f"number longer than {limit} digits", pos) from None
        elif char is not None:
            if char not in kinds:
                raise ExpressionError(f"unexpected character {char!r}", pos)
            tokens.append((kinds[char], char, pos))
    tokens.append(("END", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, spec: AlgebraSpec) -> None:
        self.spec = spec
        self.tokens = _tokenize(text)
        self.k = 0
        self.work = 0  # the push work of the expression's products so far

    def take(self, kind: str, what: Optional[str] = None):
        """Consume and return the next token if it is ``kind``; else None,
        or the positioned error when ``what`` names the expected input."""
        tok = self.tokens[self.k]
        if tok[0] == kind:
            self.k += 1
            return tok
        if what:
            raise ExpressionError(f"unexpected {tok[0]}", tok[2], what)
        return None

    # element := ["-"] term (("+"|"-") term)*
    def element(self) -> UEAElement:
        negate = self.take("MINUS")
        total = self.term()
        if negate:
            total = -total
        while op := self.take("PLUS") or self.take("MINUS"):
            nxt = self.term()
            total = total - nxt if op[0] == "MINUS" else total + nxt
        self.take("END", "'+', '-', '*', or end")
        return total

    # term := coeff "*" factor ("*" factor)* | factor ("*" factor)* | coeff
    def term(self) -> UEAElement:
        coeff = self.coeff()
        if coeff is not None and not self.take("STAR"):
            return UEAElement.one(self.spec).scale(coeff)
        out = self.factor()
        while self.take("STAR"):
            out = self.product(out, self.factor())
        return out if coeff is None else out.scale(coeff)

    def product(self, u: UEAElement, v: UEAElement) -> UEAElement:
        """``normal_product``, refused before it runs once the expression's products
        together would take more than ``MAX_PUSH_WORK``."""
        products, x_degree = _push_work(u, v)
        self.work += products * x_degree
        # one product over the budget alone is normal_product's own refusal
        if products * x_degree <= MAX_PUSH_WORK < self.work:
            raise ValueError(
                f"normal ordering of this expression would take {self.work} steps, "
                f"more than {MAX_PUSH_WORK}"
            )
        return normal_product(u, v)

    # coeff := int ["/" nat] ["i"] | "i"; None when no coeff starts here
    def coeff(self) -> Optional[GaussianRational]:
        if self.take("I"):
            return GaussianRational(0, 1)
        num = self.take("NUMBER")
        if num is None:
            return None
        value = Rat(num[1])
        if self.take("SLASH"):
            den = self.take("NUMBER", "a denominator")
            if den[1] == 0:
                raise ExpressionError("zero denominator", den[2])
            value /= den[1]
        return GaussianRational(0, value) if self.take("I") else GaussianRational(value)

    # factor := XGEN ["^" nat] | Y "[" nat ("," nat)* "]" ["^" nat]
    def factor(self) -> UEAElement:
        spec = self.spec
        # the XGEN branch doubles as the error when neither factor starts here
        tok = self.take("Y") or self.take("XGEN", "a factor (Xk or Y[..])")
        if tok[0] == "XGEN":
            slot = tok[1] - 1
            if not 0 <= slot < spec.n:
                raise ExpressionError(
                    f"X{tok[1]} out of range (this algebra has X1..X{spec.n})", tok[2]
                )
        else:
            self.take("LBRACK", "'['")
            beta = [self.take("NUMBER", "a multi-index entry")[1]]
            while self.take("COMMA"):
                beta.append(self.take("NUMBER", "a multi-index entry")[1])
            self.take("RBRACK", "']'")
            if len(beta) != spec.n:
                raise ExpressionError(
                    f"Y index {beta} has {len(beta)} entries; this algebra needs {spec.n}",
                    tok[2],
                )
            slot = y_position(spec).get(tuple(beta))
            if slot is None:
                raise ExpressionError(
                    f"Y{beta} is not a basis element of this algebra "
                    f"(index set bounded by alpha={list(spec.alpha)} per block)",
                    tok[2],
                )
            slot += spec.n
        # one exponent per basis symbol, X's then Y's, as core.basis orders them
        exps = [0] * len(basis(spec))
        exps[slot] = self.take("NUMBER", "an exponent")[1] if self.take("CARET") else 1
        return UEAElement.monomial(spec, Monomial(tuple(exps[: spec.n]), tuple(exps[spec.n :])))


def parse_expression(text: str, spec: AlgebraSpec) -> UEAElement:
    """Parse the grammar above into an exact element of the algebra."""
    return _Parser(text, spec).element()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def format_terms(terms, factors) -> str:
    """The text of a combination: ``terms`` are ``(monomial, coeff)`` pairs in the
    written order, and ``factors(monomial)`` gives ``(name, exponent)`` pairs, of
    which those with a nonzero exponent are written.

    Coefficients with both real and imaginary parts are split into two
    printed terms (the grammar's coeff token is purely real or purely
    imaginary); an empty sum is ``0``.
    """
    out = []
    for mono, coeff in terms:
        names = [name + (f"^{e}" if e > 1 else "") for name, e in factors(mono) if e]
        for part, unit in ((coeff.re, ""), (coeff.im, "i")):
            if part:
                mag = abs(part)
                mag_text = ("" if mag == 1 else format_rational(mag)) + unit
                out.append(" - " if part < 0 else " + ")
                out.append(" * ".join(filter(None, [mag_text, *names])) or "1")
    text = "".join(out)  # starts with the first term's " + " or " - "
    return ("-" if text[1] == "-" else "") + text[3:] if text else "0"


def format_element(u: UEAElement) -> str:
    """Deterministic text form: leading monomial first; parses back exactly,
    the two terms of a split coefficient re-merging."""
    names = [_sym_str(sym) for sym in basis(u.spec)]
    return format_terms(u.sorted_terms(), lambda mono: zip(names, mono.x + mono.y))
