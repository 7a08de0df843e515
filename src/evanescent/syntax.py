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

``parse`` is one loop over the tokens, (value, offset) pairs, with an
explicit stack of the enclosing sums, so nesting costs no recursion.  A
``ParseError`` works out its line and column from an offset only when
it is raised.

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
held in ascending canonical order, as a ``PeirceClass`` keeps its shared
terms: ``format_form`` and ``form_to_json`` walk that order in reverse,
so the printer never sorts.  ``format_form`` hands the int form and
``_TEXT`` to ``rationals.format_sum``, the one renderer of signed sums,
which builds the line in one loop and reduces n / den by a gcd only when
den is not 1, printing it as ``str`` prints the ``Q``.
``format_polynomial`` prints a ``Polynomial`` from its ``int_form``.

An identity is printed from its class: ``frame`` renders a class's
shared terms once, as text or as JSON, with a mark where a member's
text goes, and cuts the line there, so each member's line is its own
text spliced into the frame.
"""

from __future__ import annotations

import json
import math
import re

from .magma import (
    Monomial,
    Variable,
    children,
    leaf,
    plenary_power,
    principal_power,
    product,
)
from .poly import Polynomial
from .rationals import ONE, Q, format_sum, q_text


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"t[0-9]+|[A-Za-z]+|[0-9]+|\S")
_VAR_RE = re.compile(r"^(x|y|z|t[0-9]+)$")
_LETTERS = {"x": 1, "y": 2, "z": 3}
_CLOSING = {"{": "}", "[": "]"}


def _tokenize(text: str):
    """The (value, offset) pairs of the tokens of text.  A word of the
    letters x, y and z alone is one token per letter: "xy" is x y."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        value, start = match.group(), match.start()
        if len(value) > 1 and set(value) <= _LETTERS.keys():
            tokens += zip(value, range(start, start + len(value)))
        else:
            tokens.append((value, start))
    return tokens


def _times(a, b):
    """The product of two factors: one magma product when both are
    monomials, else a Polynomial product."""
    if isinstance(a, Monomial) and isinstance(b, Monomial):
        return product(a, b)
    return _as_polynomial(a) * _as_polynomial(b)


def _as_polynomial(f):
    return Polynomial._raw({f: ONE}) if isinstance(f, Monomial) else f


def parse(text: str) -> Polynomial:
    """Parse a polynomial in the surface grammar.

    One loop over the tokens, with no recursion.  Each '(' pushes the
    enclosing sum's state: its terms so far, and its open term's signed
    coefficient, chain and pending v^{r} prefixes.  Each ')' pops it.  A
    completed factor takes the pending prefixes, innermost first, and
    joins its term's chain.  Tokens carry their offsets, and a line and
    column are worked out only for an error.
    """
    if text.strip() == "0":
        return Polynomial.zero()
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    tokens.append(("", len(text)))  # the end of the input

    def fail(message, i):
        offset = tokens[i][1]  # the only place a line and column are counted
        line_start = text.rfind("\n", 0, offset) + 1
        raise ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def expected(what, i):
        value = tokens[i][0]
        if not value:
            fail("unexpected end of input", i)
        fail(f"expected {what}, found {value!r}", i)

    def integer(i) -> int:
        value = tokens[i][0]
        if not (value.isascii() and value.isdigit()):
            expected("an integer", i)
        return int(value)

    stack = []  # the state of each enclosing sum, one per open '('
    out, coeff, chain, prefixes = {}, None, None, []
    factor = None  # a completed factor, not yet in its term's chain
    i = 0
    while True:
        if factor is None:
            value = tokens[i][0]
            if coeff is None:  # a term: an optional sign, then a coefficient
                sign = -1 if value == "-" else 1
                if value == "+" or value == "-":
                    i += 1
                    value = tokens[i][0]
                num, den = 1, 1
                if value.isascii() and value.isdigit():
                    num = int(value)
                    i += 1
                    if tokens[i][0] == "/":
                        den = integer(i + 1)
                        i += 2
                        if den == 0:
                            fail("zero denominator", i)
                    value = tokens[i][0]
                coeff = Q(sign * num, den)  # the term's sign goes with it
            at = i
            i += 1
            if value == "(":
                stack.append((out, coeff, chain, prefixes))
                out, coeff, chain, prefixes = {}, None, None, []
                continue
            if not _VAR_RE.match(value):
                if re.match(r"[A-Za-z]", value):
                    fail(f"unknown variable name {value!r}", at)
                expected("a factor", at)
            index = _LETTERS.get(value) or int(value[1:])
            if index == 0:
                fail("variable t0 is reserved", at)
            v = Variable(index)
            if tokens[i][0] != "^":
                factor = leaf(v)
            else:
                power = tokens[i + 1][0]  # '{' for a prefix, '[' for plenary
                closing = _CLOSING.get(power)
                i += 2 if closing else 1
                k = integer(i)
                i += 1
                if closing:
                    if tokens[i][0] != closing:
                        expected(repr(closing), i)
                    i += 1
                if power == "{":
                    prefixes.append((v, k))
                    continue
                if power == "[":
                    if k < 1:
                        fail("plenary power needs k >= 1", at)
                    factor = plenary_power(v, k)
                else:
                    if k < 1:
                        fail("power needs k >= 1", at)
                    factor = principal_power(v, k)
        while prefixes:
            v, r = prefixes.pop()
            for _ in range(r):
                factor = _times(leaf(v), factor)
        chain = factor if chain is None else _times(chain, factor)
        factor = None
        value = tokens[i][0]
        if value == "(" or _VAR_RE.match(value):
            continue  # the term's next factor
        # the term ends: one dict for the whole sum, zeros dropped as
        # Polynomial.__add__ does
        if isinstance(chain, Monomial):
            terms = ((chain, coeff),)
        else:
            terms = (chain if coeff == 1 else chain.scale(coeff)).terms.items()
        for m, c in terms:
            s = out[m] + c if m in out else c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        coeff = chain = None
        if value == "+" or value == "-":
            continue  # the sum's next term
        if not stack:
            if value:
                fail("trailing input", i)
            return Polynomial._raw(out)
        if value != ")":
            expected("')'", i)
        i += 1
        # a sum of one term with coefficient 1 is a monomial factor
        factor = Polynomial._raw(out)
        if len(out) == 1:
            ((m, c),) = out.items()
            if c == 1:
                factor = m
        out, coeff, chain, prefixes = stack.pop()


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
    """(r, v, core) for the maximal leading v-leaf chain v(v(...(v core))),
    the one walk down a node's chain: a leaf, or a chain whose core is a
    leaf of its own letter v, is the principal power v^(r+1)."""
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

    Each node's chain is walked once, by ``_chain_prefix``.  A leaf, or a
    chain whose core is a leaf of the chain's own letter v, prints as the
    principal power v^(r+1); a chain of r >= 2 left multiplications by v
    as v^{r} followed by its core; any other node as its larger child,
    then its smaller one.  A part that is not a principal power is
    parenthesized: those are the texts with a space.
    """
    got = _TEXT.get(m)
    if got is not None:
        return got
    stack = [(m, None)]  # (node, its chain walk once it waits on its parts)
    while stack:
        node, walk = stack.pop()
        if node in _TEXT:
            continue
        r, v, core = walk or _chain_prefix(node)
        if core.is_leaf and (r == 0 or core.var == v):
            name = core.var.name
            _TEXT[node] = f"{name}^{r + 1}" if r else name
            continue
        if r >= 2:
            parts = (core,)
        else:
            smaller, larger = children(node)
            parts = (larger, smaller)
        missing = [(p, None) for p in parts if p not in _TEXT]
        if missing:
            stack += [(node, (r, v, core)), *missing]
            continue
        text = " ".join(f"({t})" if " " in t else t for t in map(_TEXT.get, parts))
        _TEXT[node] = f"{v.name}^{{{r}}} {text}" if r >= 2 else text
    return _TEXT[m]


def format_monomial(m: Monomial) -> str:
    return _render(m)


def format_form(den: int, terms, texts=None) -> str:
    """Canonical rendering of the int form sum(n m) / den, its terms in
    ascending canonical order: printed in descending order, each
    monomial's text read from texts, ``_TEXT`` unless given."""
    return format_sum(den, reversed(terms), _TEXT if texts is None else texts)


def form_to_json(den: int, terms, ty=None, texts=None) -> dict:
    """JSON-lines payload of an int form: exact coefficients plus grammar
    monomials, in the order ``format_form`` prints them."""
    texts = _TEXT if texts is None else texts
    out = []
    for m, n in reversed(terms):
        g = math.gcd(n, den)
        out.append({"coeff": q_text(n // g, den // g), "monomial": texts[m]})
    return {"type": list(ty) if ty is not None else None, "terms": out}


_MARK = "\0"  # a member's text in a frame: no printed text has it


def frame(den: int, form, coef: int, at: int, fmt: str, ty=None) -> tuple[str, str]:
    """(before, after) with before + ``member_text(fmt)(m)`` + after the
    printed line of the int form whose terms are the shared terms ``form``,
    in ascending order, and (m, coef) at index ``at`` among them.  The
    line is rendered once for all such m, with a mark for m's text, and
    cut at the mark."""
    terms = (*form[:at], (None, coef), *form[at:])
    texts = {m: _TEXT[m] for m, _ in form}
    texts[None] = _MARK
    if fmt == "jsonl":
        line = json.dumps(form_to_json(den, terms, ty, texts), sort_keys=True)
        before, after = line.split(json.dumps(_MARK))
    else:
        before, after = format_form(den, terms, texts).split(_MARK)
    return before, after


def member_text(fmt: str):
    """The text of a monomial as a ``frame`` takes it."""
    if fmt == "jsonl":
        return lambda m: json.dumps(_TEXT[m])
    return _TEXT.__getitem__


def format_polynomial(f: Polynomial) -> str:
    """Canonical rendering: terms in descending canonical monomial order."""
    return format_form(*f.int_form())
