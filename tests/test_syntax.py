import hashlib
import json
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from evanescent import syntax
from evanescent.magma import (
    X,
    Y,
    Z,
    Variable,
    leaf,
    left_iterate,
    monomials_of_type,
    plenary_power,
    principal_power,
    product,
)
from evanescent.poly import Polynomial
from evanescent.rationals import Q
from evanescent.syntax import (
    ParseError,
    format_monomial,
    format_polynomial,
    parse,
    parse_monomial,
)

from conftest import (
    CORPUS,
    fraction_format,
    nested_key,
    polynomial_from_json,
    random_monomial,
    random_polynomial,
)


def test_parse_backcrossing():
    f = parse("x^2 x^2 - 2 x^3 + x^2")
    x = leaf(X)
    x2 = product(x, x)
    x3 = product(x2, x)
    assert f == Polynomial({product(x2, x2): 1, x3: -2, x2: 1})


def test_parse_iterated():
    assert parse_monomial("x^{3} y") is left_iterate(X, 3, leaf(Y))
    assert parse_monomial("x^{0} y") is leaf(Y)
    # the iterated prefix binds only the next factor
    f = parse("x^{2} y z")
    assert f == Polynomial.monomial(
        product(left_iterate(X, 2, leaf(Y)), leaf(3))
    )


def test_parse_plenary():
    assert parse_monomial("x^[3]") is plenary_power(X, 3)
    assert parse_monomial("x^[1]") is leaf(X)


def test_parse_degree17_monomial():
    w = parse_monomial("((x^3 x^3) x^2)((x^2 x^4) x^3)")
    assert w.degree == 17


def test_left_association():
    assert parse("x y z") == parse("(x y) z")
    assert parse("x y z") != parse("x (y z)")


def test_bracketing_fidelity():
    assert parse("x (y z)") != parse("(x y) z")


def test_juxtaposed_letters():
    assert parse("xy") == parse("x y")
    assert parse("x(xy)") == parse("x (x y)")


def test_rationals_in_terms():
    f = parse("1/2 x^2 + 3 y - x")
    assert f.coefficient(product(leaf(X), leaf(X))) == Q(1, 2)
    assert f.coefficient(leaf(Y)) == 3
    assert f.coefficient(leaf(X)) == -1


def test_leading_sign():
    assert parse("-x + y") == parse("y - x")
    assert parse("+x") == parse("x")


def test_zero():
    assert parse("0") == Polynomial.zero()
    assert format_polynomial(Polynomial.zero()) == "0"


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse("x + (y")
    assert "column" in str(err.value)
    with pytest.raises(ParseError):
        parse("x ^")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("x + + y +")


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("x y\n+ 2 z\n  - (x ^ y)", 3, 10),
        ("\n\nx +\n\n   y )", 5, 6),
        ("x\n+ y\n+", 3, 2),  # the end of the input
        ("x +\ty\n\t+ 1/0 x", 2, 8),  # a tab is one column
        ("1/2 x^2\n\n+ 2/3 x (x y)\n- z w", 4, 5),
    ],
)
def test_parse_error_position_on_several_lines(text, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).endswith(f"(line {line}, column {col})")


def test_parse_sums_terms_in_one_pass():
    # like terms are added and cancelled terms dropped, as repeated
    # Polynomial addition would
    terms = [(f"{i % 5 + 1}/{i % 3 + 1}", f"x^{i % 4 + 2}") for i in range(40)]
    text = "\n+ ".join(f"{c} {p} y - {c} y {p}" for c, p in terms)
    assert parse(text) == Polynomial.zero()
    f = parse("x^2 - 1/2 y + x x - 1/2 y + y - x^2")
    assert f == Polynomial.monomial(product(leaf(X), leaf(X))) and list(f.terms.values()) == [Q(1)]


_CHAIN_VARIABLES = (("x", X), ("y", Y), ("z", Z), ("t4", Variable(4)))


def _random_factor(rng, depth):
    """(text, value) of a random factor, the value built with Polynomial
    products and sums alone, as the parser built every factor before
    monomial chains were multiplied as monomials."""
    name, v = rng.choice(_CHAIN_VARIABLES)
    var = Polynomial.variable(v)
    kind = rng.randrange(8 if depth else 3)
    if kind == 0:
        return name, var
    if kind == 1:
        k = rng.randint(1, 4)
        return f"{name}^{k}", Polynomial.monomial(principal_power(v, k))
    if kind == 2:
        k = rng.randint(1, 3)
        return f"{name}^[{k}]", Polynomial.monomial(plenary_power(v, k))
    if kind == 3:
        r = rng.randint(0, 3)
        text, arg = _random_factor(rng, depth - 1)
        for _ in range(r):
            arg = var * arg
        return f"{name}^{{{r}}} {text}", arg
    if kind == 4:  # a monomial when its factors are
        text, f = _random_chain(rng, depth - 1)
        return f"({text})", f
    if kind == 5:
        (a, f), (b, g) = _random_chain(rng, depth - 1), _random_chain(rng, depth - 1)
        return (f"({a} + {b})", f + g) if rng.random() < 0.5 else (f"({a} - {b})", f - g)
    if kind == 6:  # sums of a single term with coefficient 1
        text, f = _random_chain(rng, depth - 1)
        if rng.random() < 0.5:
            return f"({text} + {name} - {name})", f + var - var
        return f"(1/2 {text} + 1/2 {text})", f.scale(Q(1, 2)) + f.scale(Q(1, 2))
    return rng.choice(((f"(2 {name})", var.scale(2)), (f"({name} - {name})", var - var)))


def _random_chain(rng, depth):
    text, f = _random_factor(rng, depth)
    for _ in range(rng.randint(0, 2)):
        more, g = _random_factor(rng, depth)
        text, f = f"{text} {more}", f * g
    return text, f


def test_parse_chains_match_polynomial_products():
    rng = random.Random(1907)
    for _ in range(3000):
        text, f = _random_chain(rng, depth=3)
        lead, scale = rng.choice((("", 1), ("0 ", 0), ("1/2 ", Q(1, 2))))
        assert parse(lead + text) == f.scale(scale), lead + text


def test_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse("x + w")
    assert "unknown variable" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("t0")
    assert "reserved" in str(err.value)


def test_parse_monomial_rejects_sums():
    with pytest.raises(ValueError):
        parse_monomial("x + y")
    with pytest.raises(ValueError):
        parse_monomial("2 x")


def test_print_is_stable():
    f = parse("x (x (x y))")
    rendered = format_polynomial(f)
    assert rendered == format_polynomial(parse(rendered))
    assert parse(rendered) == f


def test_roundtrip_random(rng):
    for _ in range(10_000):
        f = random_polynomial(rng, max_degree=5, max_terms=3)
        assert parse(format_polynomial(f)) == f


def test_roundtrip_corpus():
    for path in sorted(CORPUS.glob("*/*.txt")):
        for line in path.read_text(encoding="utf-8").splitlines():
            f = parse(line)
            assert parse(format_polynomial(f)) == f


def test_format_monomial_cold_and_warm_cache(monkeypatch):
    monomials = sorted(
        {
            m
            for path in CORPUS.glob("*/*.txt")
            for line in path.read_text(encoding="utf-8").splitlines()
            for m in parse(line).terms
        },
        key=nested_key,
    )
    cold = []
    for m in monomials:
        monkeypatch.setattr(syntax, "_TEXT", {})
        cold.append(format_monomial(m))
    # warm: fill the cache from the largest monomials down, then read it
    monkeypatch.setattr(syntax, "_TEXT", {})
    for m in reversed(monomials):
        format_monomial(m)
    assert [format_monomial(m) for m in monomials] == cold
    assert [parse_monomial(text) for text in cold] == monomials


def test_format_polynomial_coefficients(rng):
    # magnitudes are read from numerator and denominator; the reference
    # prints them by Fraction arithmetic, as str(Q) does
    assert (
        format_polynomial(parse("x^2 - 1/2 x y + 3/7 y - 5/21 x + 1/3 (x y) y"))
        == "1/3 y^{2} x + x^2 - 1/2 x y - 5/21 x + 3/7 y"
    )
    assert format_polynomial(parse("-x^2 + 2 y")) == "-x^2 + 2 y"
    assert format_polynomial(parse("-1/21 x")) == "-1/21 x"
    assert format_polynomial(parse("-7/7 x - 42/21 y")) == "-x - 2 y"
    monomials = [random_monomial(rng) for _ in range(40)]
    for _ in range(2000):
        f = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            c = Q(rng.choice([-1, 1]) * rng.randint(1, 50), rng.choice([1, 1, 2, 3, 7, 21]))
            f = f + Polynomial.monomial(rng.choice(monomials), c)
        assert format_polynomial(f) == fraction_format(f)


# the monomials of a few small types, in three letters
_SMALL = [
    m
    for ty in [(1,), (0, 1), (2,), (3,), (1, 1), (2, 1), (0, 2, 1), (4,), (1, 1, 1), (2, 0, 2)]
    for m in monomials_of_type(ty)
]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 6, 7, 12, 21, 2**64 + 3]),
    st.dictionaries(
        st.integers(0, len(_SMALL) - 1),
        st.integers(-(2**66), 2**66).filter(bool) | st.integers(-30, 30).filter(bool),
        max_size=6,
    ),
    st.sampled_from([None, (2, 1), (4,)]),
)
def test_int_form_renderer_matches_fraction_printing(den, chosen, ty):
    # any den and ints, not only canonical forms: each coefficient is put
    # in lowest terms on its own, and printed as str(Q) prints it
    terms = sorted(((_SMALL[k], n) for k, n in chosen.items()), key=lambda mn: mn[0])
    f = Polynomial({m: Q(n, den) for m, n in terms})
    text = syntax.format_form(den, terms)
    assert text == format_polynomial(f) == fraction_format(f)
    assert parse(text) == f
    obj = syntax.form_to_json(den, terms, ty)
    assert obj == syntax.form_to_json(*f.int_form(), ty) == {
        "type": None if ty is None else list(ty),
        "terms": [
            {"coeff": str(c), "monomial": format_monomial(m)}
            for m, c in sorted(f.terms.items(), key=lambda mc: mc[0], reverse=True)
        ],
    }
    # each term as a class member: its text spliced into the frame of
    # the other terms gives the same line, as text and as JSON
    lines = {"text": text, "jsonl": json.dumps(obj, sort_keys=True)}
    for at, (m, n) in enumerate(terms):
        form = terms[:at] + terms[at + 1:]
        for fmt, line in lines.items():
            before, after = syntax.frame(den, form, n, at, fmt, ty)
            assert before + syntax.member_text(fmt)(m) + after == line


def test_json_roundtrip(rng):
    for _ in range(200):
        f = random_polynomial(rng)
        obj = json.loads(json.dumps(syntax.form_to_json(*f.int_form(), (1, 2))))
        assert polynomial_from_json(obj) == f


def test_no_power_on_parenthesized_factor():
    with pytest.raises(ParseError):
        parse("(x y)^2")



_SPACES = ("", " ", " ", " ", "\n", "\t", " \n\t ")
_NAMES = ("x", "y", "z", "x", "y", "z", "t1", "t2", "t12", "xy", "yzx", "zx")


def _pin_factor(rng, depth):
    """A random factor of the surface grammar, with random whitespace and,
    now and then, a reserved or unknown name or an exponent of 0."""
    sp = lambda: rng.choice(_SPACES)  # noqa: E731
    name = rng.choice(_NAMES) if rng.random() > 0.03 else rng.choice(("t0", "w", "xw"))
    k = rng.randint(1, 3) if rng.random() > 0.03 else 0
    kind = rng.randrange(7 if depth else 3)
    if kind == 0:
        return name
    if kind == 1:
        return f"{name}{sp()}^{sp()}{k}"
    if kind == 2:
        return f"{name}^{sp()}[{sp()}{k}{sp()}]"
    if kind == 3:
        return f"{name}^{{{sp()}{k - 1}{sp()}}}{sp()}{_pin_factor(rng, depth - 1)}"
    return f"({sp()}{_pin_sum(rng, depth - 1)}{sp()})"


def _pin_sum(rng, depth):
    """A random sum of terms, each an optional rational coefficient and a
    chain of juxtaposed factors."""
    parts = [rng.choice(("", "", "-", "+"))]
    for n in range(rng.randint(1, 3)):
        if n:
            parts.append(rng.choice(("+", "-")))
        coeff = rng.choice(("", "", "", "", "2", "0", "1/2", "3/7", "12 "))
        if rng.random() < 0.02:
            coeff = "5/0"
        factors = [_pin_factor(rng, depth) for _ in range(rng.randint(1, 3))]
        parts.append(coeff + rng.choice(_SPACES) + rng.choice((" ", "")).join(factors))
    return rng.choice((" ", " \n", "\t")).join(parts)


def _pin_inputs():
    """The inputs of the parser pin: grammar-directed expressions, and
    one-character insertions, deletions and truncations of them.  No digit
    is inserted, since one after a plenary exponent would ask for a
    monomial of 2^30 leaves."""
    rng = random.Random(1907)
    alphabet = "xyztw ()[]{}^+-/\n\t"
    inputs = ["0", " 0\n", "", " \n\t", "00", "(0)"]
    for _ in range(1500):
        text = _pin_sum(rng, rng.randint(0, 4))
        k = rng.randint(0, len(text))
        inputs.append(text)
        inputs.append(text[:k] + rng.choice(alphabet) + text[k:])
        k = rng.randrange(len(text))
        inputs.append(text[:k] + text[k + 1:])
        inputs.append(text[: rng.randrange(len(text))])
    return inputs


def test_parser_results_and_errors_are_pinned():
    # one sha256 over every input's printed polynomial or its ParseError
    # (message, line, column), recorded before the parser became one loop
    digest = hashlib.sha256()
    kinds = set()
    inputs = _pin_inputs()
    for text in inputs:
        try:
            outcome = format_polynomial(parse(text))
        except ParseError as exc:
            outcome = repr((str(exc), exc.line, exc.col))
            kinds.add(re.sub(r"'[^']*'", "'.'", str(exc).rsplit(" (line", 1)[0]))
        digest.update(f"{text!r}\0{outcome}\0".encode())
    assert len(inputs) == 6006
    assert kinds == {
        "empty input",
        "expected '.', found '.'",
        "expected a factor, found '.'",
        "expected an integer, found '.'",
        "plenary power needs k >= 1",
        "power needs k >= 1",
        "trailing input",
        "unexpected end of input",
        "unknown variable name '.'",
        "variable t0 is reserved",
        "zero denominator",
    }
    assert digest.hexdigest() == (
        "513d68b475f410d31aeffcf053b6da9e9204a726454ed2e0f3a6e94d9451c6ae"
    )


_PIN_LETTERS = (X, Y, Z, Variable(4))
_PIN_TYPES = ((2,), (1, 1), (3,), (2, 1), (1, 2), (1, 1, 1), (2, 2))


def _pin_monomial(rng, depth):
    """A random monomial built with the magma's constructors: principal
    and plenary powers, chains of r = 1, 2 or 5 left multiplications
    whose core is a leaf of the chain's letter, another leaf or a product,
    chains that switch letters, and products of two monomials of one
    type."""
    v = rng.choice(_PIN_LETTERS)
    kind = rng.randrange(6 if depth else 2)
    if kind == 0:
        return principal_power(v, rng.randint(1, 7))
    if kind == 1:
        return plenary_power(v, rng.randint(1, 3))
    if kind == 2:
        core = rng.choice((leaf(v), leaf(rng.choice(_PIN_LETTERS)), _pin_monomial(rng, depth - 1)))
        return left_iterate(v, rng.choice((1, 2, 5)), core)
    if kind == 3:  # a chain that switches letters
        inner = left_iterate(v, rng.choice((1, 2, 5)), _pin_monomial(rng, depth - 1))
        return left_iterate(rng.choice(_PIN_LETTERS), rng.choice((1, 2, 5)), inner)
    if kind == 4:  # children of equal type
        same = monomials_of_type(rng.choice(_PIN_TYPES))
        return product(rng.choice(same), rng.choice(same))
    return product(_pin_monomial(rng, depth - 1), _pin_monomial(rng, depth - 1))


def _pin_monomials():
    """The monomials of the printer pin: 3,000 different seeded ones,
    every principal power up to degree 8 and plenary power up to ^[6] in
    each letter, and left combs x y x y ... of up to 300 letters."""
    rng = random.Random(1907)
    seeded = {}
    while len(seeded) < 3000:
        seeded[_pin_monomial(rng, rng.randint(0, 4))] = None
    monomials = list(seeded)
    for v in _PIN_LETTERS:
        monomials += [principal_power(v, k) for k in range(1, 9)]
        monomials += [plenary_power(v, k) for k in range(1, 7)]
    for n in (*range(1, 40), 100, 299, 300):
        comb = leaf(X)
        for i in range(1, n):
            comb = product(comb, leaf((X, Y)[i % 2]))
        monomials.append(comb)
    return monomials


def test_printer_is_pinned(monkeypatch):
    # one sha256 over every pinned monomial's text, recorded before the
    # printer walked each node's chain once
    monomials = _pin_monomials()
    cold = []
    for m in monomials:
        monkeypatch.setattr(syntax, "_TEXT", syntax._Texts())
        cold.append(format_monomial(m))
    monkeypatch.setattr(syntax, "_TEXT", syntax._Texts())
    assert [format_monomial(m) for m in monomials] == cold
    assert [format_monomial(m) for m in reversed(monomials)] == cold[::-1]
    assert all(parse_monomial(text) is m for text, m in zip(cold, monomials))
    digest = hashlib.sha256("\0".join(cold).encode()).hexdigest()
    assert digest == "2a2e1c326f0a99a964f5e1164b8946e15cc415d3170b2e1af774579db52502bf"
