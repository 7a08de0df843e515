"""Parser and canonical printer for monomials and polynomials.

Grammar (whitespace insignificant between tokens):

    poly        := ['+'|'-'] term (('+'|'-') term)*
    term        := [rational] factorchain
    factorchain := factor+              # juxtaposition, LEFT-associated
    factor      := varname power?
                 | varname '^{' int '}' factor
                 | '(' poly ')'
    power       := '^' int | '^[' int ']'
    varname     := 'x' | 'y' | 'z' | 't' digits
    rational    := int ['/' int]

'^k' is the left-normed principal power, '^[k]' the plenary power, and
'x^{r} f' applies r-fold left multiplication by x to the factor that
follows.  Juxtaposition associates to the LEFT: "a b c" parses as
"(a b) c".  The input "0" denotes the zero polynomial.

A factor that is a single monomial with coefficient 1 (a variable, a
power, or a parenthesized sum that reduces to one such term) is parsed
as a ``Monomial``, so a chain of them costs one ``magma.product`` per
juxtaposition and ``x^{r} m`` costs r.  A factor becomes a
``Polynomial`` only when it is a sum or carries a coefficient, and a
product is a ``Polynomial`` product only when one factor is.

The printer renders each interned monomial once: ``_TEXT`` caches its
text, and a lookup of a monomial not yet there renders it.  The cache is
filled bottom-up with an explicit stack, so printing a deep monomial
does not recurse.

Sums are printed from int forms, sum(n m) / den with the terms (m, n)
held in ascending canonical order, as an ``Identity`` keeps them:
``format_form`` and ``form_to_json`` walk that order in reverse, so the
printer never sorts.  ``format_form`` hands the int form and ``_TEXT``
to ``rationals.format_sum``, the one renderer of signed sums, which
builds the line in one loop and reduces n / den by a gcd only when den
is not 1, printing it as ``str`` prints the ``Q``.
``format_polynomial`` and ``polynomial_to_json`` print a ``Polynomial``
from its ``int_form``.
"""

from __future__ import annotations

import math
import re

from .magma import (
    Monomial,
    Variable,
    children,
    leaf,
    plenary_power,
    principal_power,
    principal_power_of,
    product,
    var_name,
)
from .poly import Polynomial
from .rationals import ONE, Q, format_sum, q_text


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"t\d+|[A-Za-z]+|\d+|[][(){}^+/-]|\S")
_VAR_RE = re.compile(r"^(x|y|z|t\d+)$")


def _tokenize(text: str):
    tokens = []
    line, line_start, seen = 1, 0, 0
    for match in _TOKEN_RE.finditer(text):
        value = match.group()
        if value.isspace():
            continue
        start = match.start()
        # count only the newlines since the previous token: linear in text
        newlines = text.count("\n", seen, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", seen, start) + 1
        seen = start
        col = start - line_start + 1
        if value.isalpha() and len(value) > 1 and set(value) <= {"x", "y", "z"}:
            # juxtaposed single-letter variables, e.g. "xy"
            for offset, ch in enumerate(value):
                tokens.append((ch, line, col + offset))
        else:
            tokens.append((value, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self):
        if self.pos >= len(self.tokens):
            self.fail("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        tok = self.next()
        if tok[0] != value:
            self.fail(f"expected {value!r}, found {tok[0]!r}", tok)
        return tok

    def fail(self, message, tok=None):
        if tok is None:
            if self.pos < len(self.tokens):
                tok = self.tokens[self.pos]
            else:
                line = self.text.count("\n") + 1
                tail = self.text.rfind("\n") + 1
                raise ParseError(message, line, len(self.text) - tail + 1)
        raise ParseError(message, tok[1], tok[2])

    def parse_int(self) -> int:
        tok = self.next()
        if not tok[0].isdigit():
            self.fail(f"expected an integer, found {tok[0]!r}", tok)
        return int(tok[0])

    def parse_poly(self) -> Polynomial:
        sign = 1
        if self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -1
        # one dict for the whole sum, zeros dropped as Polynomial.__add__ does
        out = {}
        while True:
            for m, c in self.parse_term():
                c = c if sign > 0 else -c
                s = out[m] + c if m in out else c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
            if self.peek() not in ("+", "-"):
                return Polynomial._raw(out)
            sign = -1 if self.next()[0] == "-" else 1

    def parse_term(self):
        """The (monomial, coefficient) pairs of one term."""
        coeff = ONE
        tok = self.peek()
        if tok is not None and tok.isdigit():
            num = self.parse_int()
            if self.peek() == "/":
                self.next()
                den = self.parse_int()
                if den == 0:
                    self.fail("zero denominator")
                coeff = Q(num, den)
            else:
                coeff = Q(num)
        result = self.parse_factor()
        while self._at_factor():
            result = _times(result, self.parse_factor())
        if isinstance(result, Monomial):
            return ((result, coeff),)
        return (result if coeff == 1 else result.scale(coeff)).terms.items()

    def _at_factor(self) -> bool:
        tok = self.peek()
        return tok is not None and (tok == "(" or _VAR_RE.match(tok))

    def parse_variable(self, tok) -> Variable:
        name = tok[0]
        if name == "x":
            return Variable(1)
        if name == "y":
            return Variable(2)
        if name == "z":
            return Variable(3)
        index = int(name[1:])
        if index == 0:
            self.fail("variable t0 is reserved", tok)
        return Variable(index)

    def parse_factor(self) -> Monomial | Polynomial:
        """A Monomial when the factor is one (coefficient 1), else a Polynomial."""
        tok = self.next()
        if tok[0] == "(":
            inner = self.parse_poly()
            self.expect(")")
            if len(inner.terms) == 1:
                ((m, c),) = inner.terms.items()
                if c == 1:
                    return m
            return inner
        if not _VAR_RE.match(tok[0]):
            if re.match(r"^[A-Za-z]", tok[0]):
                self.fail(f"unknown variable name {tok[0]!r}", tok)
            self.fail(f"expected a factor, found {tok[0]!r}", tok)
        v = self.parse_variable(tok)
        if self.peek() != "^":
            return leaf(v)
        self.next()
        nxt = self.peek()
        if nxt == "{":
            self.next()
            r = self.parse_int()
            self.expect("}")
            arg = self.parse_factor()
            for _ in range(r):
                arg = _times(leaf(v), arg)
            return arg
        if nxt == "[":
            self.next()
            k = self.parse_int()
            self.expect("]")
            if k < 1:
                self.fail("plenary power needs k >= 1", tok)
            return plenary_power(v, k)
        k = self.parse_int()
        if k < 1:
            self.fail("power needs k >= 1", tok)
        return principal_power(v, k)


def _times(a, b):
    """The product of two factors: one magma product when both are
    monomials, else a Polynomial product."""
    if isinstance(a, Monomial) and isinstance(b, Monomial):
        return product(a, b)
    return _as_polynomial(a) * _as_polynomial(b)


def _as_polynomial(f):
    return Polynomial._raw({f: ONE}) if isinstance(f, Monomial) else f


def parse(text: str) -> Polynomial:
    """Parse a polynomial in the surface grammar."""
    if text.strip() == "0":
        return Polynomial.zero()
    parser = _Parser(text)
    if not parser.tokens:
        raise ParseError("empty input", 1, 1)
    result = parser.parse_poly()
    if parser.pos != len(parser.tokens):
        parser.fail("trailing input")
    return result


def parse_monomial(text: str) -> Monomial:
    """Parse input that must denote a single monomial with coefficient 1."""
    p = parse(text)
    if len(p.terms) != 1:
        raise ValueError("expected a single monomial")
    ((m, c),) = p.terms.items()
    if c != 1:
        raise ValueError("expected a monomial with coefficient 1")
    return m


def _chain_prefix(m: Monomial):
    """(r, v, core) for the maximal leading v-leaf chain v(v(...(v core)))."""
    v = None
    r = 0
    while not m.is_leaf:
        a, b = m.left, m.right
        if a.is_leaf and (v is None or a.var == v):
            v, m = a.var, b
        elif b.is_leaf and (v is None or b.var == v):
            v, m = b.var, a
        else:
            break
        r += 1
    return r, v, m


class _Texts(dict):
    """monomial -> its text; a lookup of a monomial not yet there renders it."""

    def __missing__(self, m):
        return _render(m)


_TEXT: dict[Monomial, str] = _Texts()


def _render(m: Monomial) -> str:
    """The cached text of m, filling the cache bottom-up with an explicit
    stack, so deep monomials do not recurse.  It is a walk of its own
    rather than a ``magma.fold``: a chain descends to its core, not to
    both children, so a fold would render (and cache) every inner node
    of the chain.

    A principal power prints as v^k; a leading chain of r >= 2 left
    multiplications by v as v^{r} followed by its core; any other node
    as its larger child, then its smaller one.  A part that is not a
    principal power is parenthesized: those are the texts with a space.
    """
    got = _TEXT.get(m)
    if got is not None:
        return got
    stack = [m]
    while stack:
        node = stack[-1]
        if node in _TEXT:
            stack.pop()
            continue
        pp = principal_power_of(node)
        if pp is not None:
            v, k = pp
            _TEXT[node] = v.name if k == 1 else f"{v.name}^{k}"
            stack.pop()
            continue
        r, v, core = _chain_prefix(node)
        if r >= 2:
            parts = (core,)
        else:
            smaller, larger = children(node)
            parts = (larger, smaller)
        missing = [p for p in parts if p not in _TEXT]
        if missing:
            stack += missing
            continue
        text = " ".join(f"({t})" if " " in t else t for t in map(_TEXT.get, parts))
        _TEXT[node] = f"{v.name}^{{{r}}} {text}" if r >= 2 else text
        stack.pop()
    return _TEXT[m]


def format_monomial(m: Monomial) -> str:
    return _render(m)


def format_form(den: int, terms) -> str:
    """Canonical rendering of the int form sum(n m) / den, its terms in
    ascending canonical order: printed in descending order."""
    return format_sum(den, reversed(terms), _TEXT)


def form_to_json(den: int, terms, ty=None) -> dict:
    """JSON-lines payload of an int form: exact coefficients plus grammar
    monomials, in the order ``format_form`` prints them."""
    out = []
    for m, n in reversed(terms):
        g = math.gcd(n, den)
        out.append({"coeff": q_text(n // g, den // g), "monomial": _TEXT[m]})
    return {"type": list(ty) if ty is not None else None, "terms": out}


def format_polynomial(f: Polynomial) -> str:
    """Canonical rendering: terms in descending canonical monomial order."""
    return format_form(*f.int_form())


def polynomial_to_json(f: Polynomial, ty=None) -> dict:
    """JSON-lines payload: exact coefficients plus grammar monomials."""
    return form_to_json(*f.int_form(), ty)


def polynomial_from_json(obj) -> Polynomial:
    total = Polynomial.zero()
    for term in obj["terms"]:
        m = parse_monomial(term["monomial"])
        total = total + Polynomial.monomial(m, Q(term["coeff"]))
    return total
