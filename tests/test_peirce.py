import contextlib
import functools
import math
import random
from fractions import Fraction
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from evanescent.magma import (
    T_FRESH,
    Variable,
    X,
    Y,
    Z,
    leaf,
    left_iterate,
    letters,
    monomials_of_type,
    principal_power,
    product,
    type_vector,
)
from evanescent import homgen, peirce, trainsgen
from evanescent.baric import evaluate, spectrum_algebra
from evanescent.peirce import (
    _PEIRCE_CACHE,
    EvanescenceError,
    PeircePolynomial,
    delta,
    height_counts,
    is_evanescent,
    linearize,
    make_identity,
    peirce_recursive,
    peirce_tree,
)
from evanescent.poly import Polynomial
from evanescent.rationals import Q
from evanescent.syntax import parse, parse_monomial

from conftest import CORPUS, corpus_lines, peeled_digits, random_monomial, random_polynomial


def upoly(*coeffs):
    return PeircePolynomial(coeffs)


class TestPeircePolynomial:
    def test_basics(self):
        p = upoly(0, 1, 2)
        assert p.degree() == 2
        assert p.valuation() == 1
        assert p(1) == 3
        assert p(Q(1, 2)) == Q(1) == Q(1, 2) + 2 * Q(1, 4)
        assert upoly().is_zero
        assert upoly(0, 0) == upoly()

    def test_arith(self):
        assert upoly(1, 2) + upoly(0, -2) == upoly(1)
        assert upoly(0, 1) * upoly(0, 1) == upoly(0, 0, 1)
        assert upoly(1, 1).shift(2) == upoly(0, 0, 1, 1)
        assert upoly(2, 4).scale(Q(1, 2)) == upoly(1, 2)

    def test_to_string(self):
        assert upoly().to_string() == "0"
        assert upoly(0, 1, 0, 3).to_string() == "3t^3 + t"
        assert upoly(-1, Q(3, 4)).to_string() == "3/4t - 1"
        assert upoly(0, 0, 1).to_string("X") == "X^2"
        assert upoly(1, -1).to_string() == "-t + 1"
        assert upoly(-1, 0, Q(-5, 21), Q(1, 7)).to_string() == "1/7t^3 - 5/21t^2 - 1"
        assert upoly(Q(2, 3)).to_string() == "2/3" and upoly(0, -1).to_string("X") == "-X"


def reference_to_string(coeffs, sym):
    """The signed sum of c sym^k, highest power first, by Fraction
    arithmetic: a magnitude as str(Fraction) prints it, left out when it
    is 1 before a power of sym."""
    parts = []
    for k in reversed(range(len(coeffs))):
        c = Fraction(coeffs[k])
        if not c:
            continue
        power = "" if k == 0 else sym if k == 1 else f"{sym}^{k}"
        mag = "" if abs(c) == 1 and power else str(abs(c))
        if parts:
            sign = "- " if c < 0 else "+ "
        else:
            sign = "-" if c < 0 else ""
        parts.append(sign + mag + power)
    return " ".join(parts) or "0"


_COEFFS = st.lists(
    st.one_of(
        st.just(Fraction(0)),
        st.integers(-9, 9).map(Fraction),
        st.fractions(min_value=-40, max_value=40, max_denominator=30),
    ),
    max_size=9,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(coeffs=_COEFFS, sym=st.sampled_from(["t", "X"]))
@example(coeffs=[Fraction(1, 2), Fraction(0), Fraction(0), Fraction(-3, 4)], sym="t")
@example(coeffs=[Fraction(-5, 6), Fraction(0), Fraction(7, 10), Fraction(-1)], sym="X")
@example(coeffs=[Fraction(0), Fraction(3, 3), Fraction(0), Fraction(-2, 7), Fraction(0)], sym="t")
@example(coeffs=[Fraction(0), Fraction(0)], sym="X")
def test_to_string_matches_a_fraction_reference(coeffs, sym):
    # interior zeros, a negative lead and mixed denominators: each
    # coefficient printed in lowest terms, as str(Q) prints it
    assert PeircePolynomial(coeffs).to_string(sym) == reference_to_string(coeffs, sym)


def test_worked_example_both_algorithms():
    w = parse_monomial("((t1 t2) t2)(t3^2) ((t1^2 t3) t1)")
    expected = {1: upoly(0, 0, 1, 0, 3), 2: upoly(0, 0, 0, 1, 1), 3: upoly(0, 0, 0, 3)}
    for idx, want in expected.items():
        assert peirce_recursive(w, idx) == want
        assert peirce_tree(w, idx) == want


def test_leaf_cases():
    assert peirce_recursive(Polynomial.variable(X), X) == upoly(1)
    assert peirce_recursive(Polynomial.variable(X), Y) == upoly()
    assert peirce_tree(leaf(X), X) == upoly(1)


def test_plenary_square_heights():
    w = parse_monomial("x^2 x^2")
    assert peirce_tree(w, X) == upoly(0, 0, 4)


def test_principal_power_peirce():
    # d(x^k) = 2t^(k-1) + t^(k-2) + ... + t
    w = principal_power(X, 5)
    assert peirce_recursive(w, X) == upoly(0, 1, 1, 1, 2)


def test_left_iterate_peirce():
    w = left_iterate(X, 3, leaf(Y))
    assert peirce_recursive(w, Y) == upoly(0, 0, 0, 1)
    assert peirce_recursive(w, X) == upoly(0, 1, 1, 1)


def test_algorithms_agree_on_random_monomials(rng):
    for _ in range(2000):
        w = random_monomial(rng, max_degree=8)
        for v in (1, 2, 3):
            assert peirce_recursive(w, v) == peirce_tree(w, v)


def test_algorithms_agree_on_enumerated_types():
    for ty in [(6,), (5, 1), (4, 2), (3, 1, 1)]:
        for w in monomials_of_type(ty):
            for i in range(len(ty)):
                v = Variable(i + 1)
                assert peirce_recursive(w, v) == peirce_tree(w, v)


def test_corollary_properties(rng):
    for _ in range(400):
        w = random_monomial(rng, max_degree=8)
        for v in (X, Y, Z):
            p = peirce_recursive(w, v)
            # (a) natural coefficients
            assert all(c >= 0 and c == int(c) for c in p.coeffs)
            # (c) degree bound
            assert p.degree() <= w.degree - 1
            # (d) value at 1 counts occurrences
            assert p(1) == sum(c for i, c in w.counts if i == v.index)
        # (b) degree equals the maximal height of matching leaves
        heights = {}
        stack = [(w, 0)]
        while stack:
            node, h = stack.pop()
            if node.is_leaf:
                heights.setdefault(node.var.index, []).append(h)
            else:
                stack.append((node.left, h + 1))
                stack.append((node.right, h + 1))
        for idx, hs in heights.items():
            assert peirce_recursive(w, idx).degree() == max(hs)


def test_valuation_rule(rng):
    # val d(uv) = min(val d(u), val d(v)) + 1 when both factors contain
    # the variable, max(...) + 1 when exactly one does
    for _ in range(300):
        u = random_monomial(rng, max_degree=5)
        v = random_monomial(rng, max_degree=5)
        w = product(u, v)
        for var in (1, 2, 3):
            pu, pv = peirce_tree(u, var), peirce_tree(v, var)
            pw = peirce_tree(w, var)
            if pu.is_zero and pv.is_zero:
                assert pw.is_zero
                continue
            if pu.is_zero or pv.is_zero:
                expected = max(pu.valuation(), pv.valuation()) + 1
            else:
                expected = min(pu.valuation(), pv.valuation()) + 1
            assert pw.valuation() == expected


def test_product_rule(rng):
    for _ in range(200):
        f = random_polynomial(rng, max_degree=4)
        g = random_polynomial(rng, max_degree=4)
        for v in (1, 2, 3):
            lhs = peirce_recursive(f * g, v)
            rhs = (
                peirce_recursive(g, v).scale(f.at_ones())
                + peirce_recursive(f, v).scale(g.at_ones())
            ).shift()
            assert lhs == rhs


def test_evanescent_examples():
    good = is_evanescent(parse("x^2 x^2 - 2 x^3 + x^2"))
    assert good.is_peirce_evanescent and good.is_evanescent_identity

    bad = is_evanescent(parse("x^2 - x"))
    assert not bad.is_peirce_evanescent
    assert bad.peirce[X] == upoly(-1, 2)

    two_var = is_evanescent(parse("(x y)(x y) - 2 (x y) y + y^2"))
    assert two_var.is_evanescent_identity


def test_zero_polynomial_is_not_evanescent():
    rep = is_evanescent(Polynomial.zero())
    assert not rep.is_peirce_evanescent
    assert not rep.is_evanescent_identity


def test_evanescent_ideal(rng):
    f = parse("x^2 x^2 - 2 x^3 + x^2")
    for _ in range(40):
        g = random_polynomial(rng, max_degree=4)
        if not g:
            continue
        rep = is_evanescent(f * g)
        assert rep.is_peirce_evanescent


def test_substitution_with_coefficient_sum_one_preserves_evanescence():
    # the product rule d(FG) = t(F(1) dG + G(1) dF) gives the chain rule
    # d_j(f(h)) = sum_i d_i(f) d_j(h_i) whenever every h_i has
    # coefficient sum 1, so evanescent polynomials stay evanescent
    f = parse("x^2 x^2 - 2 x^3 + x^2")
    g = f.substitute({X: parse("1/2 (x^2 + x)")})
    assert peirce_recursive(g, X).is_zero
    assert is_evanescent(g).is_evanescent_identity


def test_chain_rule_for_normalized_substitution(rng):
    for _ in range(150):
        f = random_polynomial(rng, max_degree=4)
        bindings = {}
        usable = bool(f.variables())
        for v in f.variables():
            h = random_polynomial(rng, max_degree=3)
            total = h.at_ones()
            if not total:
                usable = False
                break
            bindings[v] = h.scale(1 / Q(total))
        if not usable:
            continue
        g = f.substitute(bindings)
        for j in (1, 2, 3):
            expected = PeircePolynomial()
            for v in f.variables():
                expected = expected + peirce_recursive(f, v) * peirce_recursive(
                    bindings[v], j
                )
            assert peirce_recursive(g, j) == expected


def test_unnormalized_substitution_breaks_evanescence():
    f = parse("x^2 x^2 - 2 x^3 + x^2")
    g = f.substitute({X: parse("2 x")})
    assert peirce_recursive(g, X) == upoly(0, -8, 32)
    assert not is_evanescent(g).is_peirce_evanescent


def test_delta_examples():
    t = Polynomial.variable(T_FRESH)
    x2 = parse("x^2")
    assert delta(x2, X, t) == Polynomial.monomial(
        product(leaf(X), leaf(T_FRESH)), 2
    )
    assert delta(parse("x y"), X, t) == Polynomial.monomial(
        product(leaf(T_FRESH), leaf(Y))
    )
    assert delta(parse("y"), X, t) == Polynomial.zero()


def test_linearize_components():
    x2 = parse("x^2")
    comps = linearize(x2, X)
    assert comps[0] == x2
    assert comps[1] == Polynomial.monomial(product(leaf(X), leaf(T_FRESH)), 2)
    assert comps[2] == Polynomial.monomial(product(leaf(T_FRESH), leaf(T_FRESH)))


def test_linearize_zeroth_is_identity(rng):
    for _ in range(50):
        f = random_polynomial(rng)
        assert linearize(f, X)[0] == f


def test_linearize_first_matches_delta(rng):
    t = Polynomial.variable(T_FRESH)
    for _ in range(100):
        w = random_monomial(rng, max_degree=6)
        f = Polynomial.monomial(w)
        comps = linearize(f, Y)
        if len(comps) > 1:
            assert comps[1] == delta(f, Y, t)


def test_iterated_delta_is_factorial_times_component(rng):
    # d applied k times equals k! times the k-th linearization component
    t = Polynomial.variable(T_FRESH)
    for _ in range(60):
        w = random_monomial(rng, variables=(1, 2), max_degree=6)
        f = Polynomial.monomial(w)
        comps = linearize(f, X)
        dk = f
        for k in range(1, len(comps)):
            dk = delta(dk, X, t)
            assert dk == comps[k].scale(math.factorial(k))


def test_make_identity_validates():
    ident = make_identity(parse("x^2 x^2 - 2 x^3 + x^2"), train=True, ty=(4,))
    assert ident.train and ident.type == (4,)
    with pytest.raises(EvanescenceError):
        make_identity(parse("x^2 - x"))


def test_integer_sums_match_fraction_oracle(rng):
    # peirce_recursive and is_evanescent add in ints over one denominator;
    # the oracle adds Fraction-scaled peirce_tree polynomials
    dens = (1, 2, 3, 7, 21)
    polys = [Polynomial.zero(), Polynomial.monomial(random_monomial(rng), Q(5, 21))]
    for _ in range(300):
        f = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            c = Q(rng.randint(-9, 9), rng.choice(dens))
            m = random_monomial(rng, max_degree=5)
            f = f + Polynomial.monomial(m, c)
            if rng.random() < 0.5:
                # minus a monomial of the same type: the coefficient sum
                # cancels, and often some Peirce coefficients do
                f = f - Polynomial.monomial(rng.choice(monomials_of_type(type_vector(m))), c)
        polys.append(f)
    # evanescent identities, scaled: every Peirce coefficient cancels
    for name in ("train_n1/4_1", "homog_n2/3_2", "train_n11/3_1_1"):
        for line in corpus_lines(*name.split("/")):
            polys.append(parse(line).scale(Q(rng.randint(1, 9), rng.choice(dens))))
    polys.append(parse("x^2 x^2 - 2 x^3 + x^2").scale(Q(-1, 21)) + parse("1/2 x^2 y"))
    # wide coefficients put the packed sums in slots of 128 bits and more;
    # the differences give negative balanced digits and exact cancellations
    wide = (2**64, 2**64 - 1, 3**300, 1 - 3**300)
    for _ in range(80):
        f = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            m = random_monomial(rng, max_degree=6)
            c = Q(rng.choice(wide) * rng.choice((1, -1, 2)), rng.choice((1, 3, 2**70)))
            f = f + Polynomial.monomial(m, c)
            if rng.random() < 0.7:
                f = f - Polynomial.monomial(rng.choice(monomials_of_type(type_vector(m))), c)
        polys.append(f)
    for line in corpus_lines("homog_n2", "4_2")[:5]:
        polys.append(parse(line).scale(Q(3**300, 2**70)))
    # the slot bound is tight: a coefficient of 2^63 needs a 128-bit slot
    polys += [parse("x").scale(Q(2**63)), parse("x^2").scale(Q(2**62, 3))]
    polys.append(parse("x^2 - y").scale(Q(-(2**62))))
    polys.append(parse("x^2 y - x (x y)").scale(Q(2**64)) + parse("y^2 - 2 x y").scale(Q(1 - 3**300, 7)))
    cancelled = zero_sum = 0
    for f in polys:
        report = is_evanescent(f)
        total = sum(f.terms.values(), Q(0))
        assert report.at_ones == total and type(report.at_ones) is Q
        zero_sum += bool(f.terms) and total == 0
        assert list(report.peirce) == list(f.variables())
        for v in f.variables():
            expected = peirce_tree(f, v)
            for got in (peirce_recursive(f, v), report.peirce[v]):
                assert got == expected
                assert all(type(c) is Q for c in got.coeffs)
            cancelled += expected.is_zero
        assert peirce_recursive(f, Variable(5)).is_zero
        pe = bool(f.terms) and all(p.is_zero for p in report.peirce.values())
        assert report.is_peirce_evanescent == pe
        assert report.is_evanescent_identity == (pe and total == 0)
    assert cancelled > 50 and zero_sum > 50
    widths = {bits for _, bits in _PEIRCE_CACHE}
    assert {64, 128} <= widths and max(widths) >= 512



def _monomials(letters):
    leaves_ = st.sampled_from(letters).map(leaf)
    return st.recursive(leaves_, lambda kids: st.tuples(kids, kids).map(lambda uv: product(*uv)), max_leaves=6)


@st.composite
def _wide_polynomials(draw):
    """(variables, f): f in 1-6 of the variables 1..8, each term in at most
    three of them, with numerators of 64-200 bits, so that its packed sums
    need slots of 128 bits and more; a term may come with minus a monomial
    of its type, which cancels the sum and some Peirce coefficients."""
    variables = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6, unique=True))
    f = Polynomial.zero()
    for _ in range(draw(st.integers(1, 4))):
        letters = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3, unique=True))
        m = draw(_monomials(letters))
        c = Q(draw(st.integers(2**64, 2**200)) * draw(st.sampled_from((1, -1))), draw(st.integers(1, 2**70)))
        f = f + Polynomial.monomial(m, c)
        if draw(st.booleans()):
            same = monomials_of_type(type_vector(m))
            f = f - Polynomial.monomial(same[draw(st.integers(0, len(same) - 1))], c)
    return variables, f


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_wide_polynomials())
def test_one_entry_per_monomial_matches_the_tree_walk(case):
    # one cache entry holds a monomial's packed values in all of the
    # variables; each variable's column of the report, and the one-variable
    # entry of peirce_recursive, decode to the tree walk's polynomial
    variables, f = case
    report = is_evanescent(f)
    assert list(report.peirce) == list(f.variables())
    for i in [*variables, 9]:
        v = Variable(i)
        expected = peirce_tree(f, v)
        assert peirce_recursive(f, v) == expected
        assert report.peirce.get(v, PeircePolynomial()) == expected
        assert all(type(c) is Q for c in expected.coeffs)
    pe = bool(f.terms) and all(peirce_tree(f, v).is_zero for v in f.variables())
    assert report.is_peirce_evanescent == pe


def test_peirce_column_decodes_every_variable_from_one_entry(monkeypatch):
    # the column of a monomial is read from its one entry for the type's
    # variables, and is the column built from height_counts, cold and warm
    monkeypatch.setattr(peirce, "_PEIRCE_CACHE", {})
    for ty in [(4,), (3, 2), (2, 1, 1), (2, 0, 1)]:
        degree = sum(ty)
        for m in monomials_of_type(ty):
            want = []
            for i, count in enumerate(ty):
                if count:
                    counts = height_counts(m, i + 1) + [0] * degree
                    want += counts[1:degree]
            want.append(1)
            assert homgen.peirce_column(m, letters(ty), degree) == want
            assert homgen.peirce_column(m, letters(ty), degree) == want
    assert set(peirce._PEIRCE_CACHE) == {((1,), 64), ((1, 2), 64), ((1, 2, 3), 64), ((1, 3), 64)}


@pytest.mark.parametrize("bits", [64, 128])
def test_digits_match_the_peeled_digits(bits):
    # random signed sums of slots, among them the extreme digits and zero
    # slots at the bottom and at the top, which the peel loop leaves out
    rng = random.Random(bits)
    half = 1 << (bits - 1)
    pool = [-half, -half + 1, -1, 1, half - 1]
    for _ in range(400):
        digits = [rng.choice(pool) if rng.random() < 0.3 else rng.randint(-half, half - 1)
                  for _ in range(rng.randint(0, 8))]
        digits = [0] * rng.randint(0, 3) + digits + [0] * rng.randint(0, 3)
        if not digits:
            continue
        s = sum(d << (bits * i) for i, d in enumerate(digits))
        peeled = peeled_digits(s, bits)
        assert peirce._digits(s, bits, len(digits)) == peeled + [0] * (len(digits) - len(peeled))
        assert peirce._decode(s, 3, bits).coeffs == tuple(Q(d, 3) for d in peeled)
    # sums next to a power of two, whose top balanced digit spills into
    # one slot more than their bit length fills
    for k in range(1, 4):
        edge = 1 << (bits * k - 1)
        for s in (edge - 1, edge, -edge, -edge - 1):
            peeled = peeled_digits(s, bits)
            assert peirce._digits(s, bits, len(peeled)) == peeled
            assert peirce._decode(s, 3, bits).coeffs == tuple(Q(d, 3) for d in peeled)


@pytest.mark.parametrize("bits", [64, 128])
def test_digits_of_every_packed_entry_of_a_type(bits):
    # each packed value of a monomial of degree d is d slots: its Peirce
    # coefficients at t^0 .. t^(d-1)
    for ty in [(6,), (4, 2), (3, 1, 1), (1, 0, 0, 2)]:
        degree, variables = sum(ty), letters(ty)
        for m in monomials_of_type(ty):
            for s in peirce._packed(m, variables, bits):
                peeled = peeled_digits(s, bits)
                assert peirce._digits(s, bits, degree) == peeled + [0] * (degree - len(peeled))


def test_packed_cache_of_a_deep_monomial_among_many_variables(monkeypatch):
    # x^{1500} y lacks twenty of the polynomial's 22 variables: each of its
    # nodes holds two wide ints and twenty zeros, where one int interleaving
    # all the variables would grow with all 22 (about 200 MiB)
    f = parse("x^{1500} y + " + " + ".join(f"t{i}" for i in range(4, 24)))
    monkeypatch.setattr(peirce, "_PEIRCE_CACHE", {})
    tracemalloc.start()
    try:
        report = is_evanescent(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.peirce) == 22 and not report.is_peirce_evanescent
    assert report.peirce[Y] == PeircePolynomial((0,) * 1500 + (1,))
    assert peak < 32 << 20


def _polynomial(den, terms):
    return Polynomial({m: Q(n, den) for m, n in terms})


def test_make_identity_checks_int_forms():
    # nullspace forms and train forms are checked in their ints; a
    # perturbed form is rejected exactly when its Fraction polynomial is
    # not an evanescent identity
    forms = []
    for ty in [(6,), (5, 1), (3, 2)]:
        matrix = homgen.peirce_matrix(ty)
        monomials, basis = matrix.col_labels, homgen.nullspace(matrix)
        forms += [(den, [(monomials[k], n) for k, n in terms], ty) for den, terms in basis]
    for ty in [(5, 1), (3, 2), (3, 1, 1)]:
        for w in monomials_of_type(ty):
            if not trainsgen.is_basis_monomial(w):
                den, terms = trainsgen._reduce(w)
                forms.append((den, [(w, den)] + [(m, -n) for m, n in terms], ty))
    rejected = 0
    for den, terms, ty in forms:
        f = _polynomial(den, terms)
        identity = make_identity(f, train=False, ty=ty)
        assert identity.polynomial == f and identity.type == ty
        assert all(type(c) is Q for c in identity.polynomial.terms.values())
        assert is_evanescent(identity.polynomial).is_evanescent_identity
        # one coefficient moved: the coefficient sum is no longer zero
        bumped = [(terms[0][0], terms[0][1] + 1)] + terms[1:]
        with pytest.raises(EvanescenceError):
            make_identity(_polynomial(den, [(m, n) for m, n in bumped if n]), train=False, ty=ty)
        # one unit moved between two coefficients: the sum stays zero, and
        # only the Peirce conditions can reject it
        for i in range(1, len(terms)):
            moved = list(terms)
            moved[0] = (terms[0][0], terms[0][1] + 1)
            moved[i] = (terms[i][0], terms[i][1] - 1)
            oracle = _polynomial(den, [(m, n) for m, n in moved if n])
            if is_evanescent(oracle).is_evanescent_identity:
                assert make_identity(oracle, train=True, ty=ty).polynomial == oracle
            else:
                rejected += 1
                with pytest.raises(EvanescenceError):
                    make_identity(oracle, train=True, ty=ty)
    assert len(forms) > 50 and rejected > 200


# the seven types of the homog benchmark workload
_HOMOG_TYPES = [(8,), (5, 1), (4, 2), (3, 1, 1), (8, 1), (6, 2), (6, 1, 1)]


def test_identity_is_its_checked_int_form():
    # the generators hand over canonical int forms: terms in ascending
    # order, den > 0, no common factor; the Q polynomial built from a form
    # is make_identity's, and is_evanescent finds it an evanescent identity
    identities = [i for ty in _HOMOG_TYPES for i in homgen.generate_homogeneous(ty)]
    for ty in [(6,), (4, 1), (3, 2), (3, 1, 1), (0, 3, 2), (1, 0, 4), (1, 3, 0, 1)]:
        identities += trainsgen.generate_train_basis(ty)
    for ident in identities:
        monomials = [m for m, _ in ident.terms]
        assert all(a < b for a, b in zip(monomials, monomials[1:]))
        assert ident.den > 0 and math.gcd(ident.den, *(n for _, n in ident.terms)) == 1
        # the same polynomial with its terms inserted in descending order
        f = Polynomial(dict(reversed(ident.polynomial.terms.items())))
        again = make_identity(f, train=ident.train, ty=ident.type)
        assert (again.den, again.terms, again.type) == (ident.den, ident.terms, ident.type)
        assert again == ident and hash(again) == hash(ident)
        expected = is_evanescent(ident.polynomial)
        assert expected.at_ones == 0
        assert expected.is_peirce_evanescent and expected.is_evanescent_identity
    assert len(identities) > 300


def test_identity_is_equal_by_its_int_form_and_builds_its_terms_lazily():
    # equal and hashed by the int form alone, not by type or train
    f = parse("x^2x^2-2x^3+x^2")
    plain, tagged = make_identity(f), make_identity(f, train=True, ty=(4,))
    assert plain == tagged and hash(plain) == hash(tagged) == hash((plain.den, plain.terms))
    assert plain != f and plain != make_identity(parse("x^2 y^2 - (x y)(x y)"))
    cls = plain.cls

    class Watched:  # the class of ``plain``, counting reads of its shared terms
        reads = 0
        den, coef = cls.den, cls.coef

        @property
        def form(self):
            Watched.reads += 1
            return cls.form

    # the terms and the polynomial are built at their first read, once
    ident = peirce.Identity(Watched(), plain.member, plain.at, None, False)
    assert Watched.reads == 0
    assert ident.terms == plain.terms and Watched.reads == 1
    assert ident.terms is ident.terms and ident.polynomial is ident.polynomial
    assert Watched.reads == 1 and ident.polynomial == f and ident == plain


def _raised_report(den, terms):
    with pytest.raises(EvanescenceError) as raised:
        make_identity(_polynomial(den, terms))
    return raised.value.report


def test_make_identity_rejects_with_the_full_report():
    x, y, z = leaf(X), leaf(Y), leaf(Z)
    xy = product(x, y)
    z2 = product(z, z)
    # (x y) z^4 - (x y)(z^2 z^2): x and y sit at the same heights in both
    # terms and the sum is 0, so only the last variable's sum is nonzero
    f = Polynomial({product(xy, principal_power(Z, 4)): 1, product(xy, product(z2, z2)): -1})
    terms = sorted(zip(f.terms, (1, -1)), key=lambda mn: mn[0])
    report = _raised_report(1, terms)
    assert set(report.peirce) == {X, Y, Z}
    assert not report.peirce[X] and not report.peirce[Y] and report.peirce[Z]
    assert report.peirce == is_evanescent(f).peirce
    assert report.at_ones == 0 and not report.is_peirce_evanescent
    # a nonzero coefficient sum: 3/2 x^2 - 1/2 x
    report = _raised_report(2, [(x, -1), (product(x, x), 3)])
    assert report.peirce == {X: PeircePolynomial([Q(-1, 2), 3])}
    assert report.at_ones == 1 and not report.is_evanescent_identity
    # the empty form
    report = _raised_report(1, [])
    assert report.peirce == {} and report.at_ones == 0
    assert not report.is_peirce_evanescent and not report.is_evanescent_identity


@functools.cache
def _small_forms():
    """The nullspace forms of small types, as polynomials.  Those of (6,)
    have no y and sort after those of the other types, so a sum that
    holds one ends in a monomial that lacks a variable of an earlier term."""
    forms = []
    for ty in [(2, 2), (2, 1, 1), (4, 1), (3, 2), (6,)]:
        matrix = homgen.peirce_matrix(ty)
        monomials, basis = matrix.col_labels, homgen.nullspace(matrix)
        forms += [_polynomial(den, [(monomials[k], n) for k, n in terms]) for den, terms in basis]
    return forms


# (form index, numerator, denominator) of a scaled nullspace form
_SCALED = st.tuples(st.integers(0, 999), st.integers(-4, 4).filter(bool), st.integers(1, 6))
# (term i, term j, d): d / 3 moved from term i to term j, or added to it
# when i and j are one term
_CHANGE = st.tuples(st.integers(0, 999), st.integers(0, 999), st.integers(-2, 2).filter(bool))


@settings(max_examples=300, derandomize=True, deadline=None)
# den 3, the last coefficient -1/3 and the last monomial x^6, with no y
@example(picks=[(0, 1, 1), (17, -1, 3)], changes=[])
# the same with 1/3 moved between two terms of (2,2): the sum stays 0
@example(picks=[(0, 1, 1), (17, -1, 3)], changes=[(0, 1, 1)])
# a form of (2,1,1) and x^6 last, 1/3 moved: only the Peirce polynomials
# in y and z, the letters the last monomial lacks, are nonzero
@example(picks=[(2, 1, 1), (17, -1, 3)], changes=[(0, 2, 1)])
# den 2 and a negative last coefficient, then one coefficient bumped
@example(picks=[(10, -1, 1)], changes=[])
@example(picks=[(10, -1, 1)], changes=[(2, 2, -1)])
# a form and its negative: the zero polynomial
@example(picks=[(5, 1, 2), (5, -1, 2)], changes=[])
@given(picks=st.lists(_SCALED, min_size=1, max_size=3), changes=st.lists(_CHANGE, max_size=2))
def test_make_identity_agrees_with_is_evanescent(picks, changes):
    # the class of one that make_identity checks accepts exactly the
    # evanescent identities, and rejects the rest with their full report
    forms = _small_forms()
    f = Polynomial.zero()
    for k, p, q in picks:
        f = f + forms[k % len(forms)].scale(Q(p, q))
    terms = dict(f.terms)
    monomials = list(terms)
    for i, j, d in changes:
        if monomials:
            a, b = monomials[i % len(monomials)], monomials[j % len(monomials)]
            if a is not b:
                terms[a] -= Q(d, 3)
            terms[b] += Q(d, 3)
    f = Polynomial(terms)
    expected = is_evanescent(f)
    if expected.is_evanescent_identity:
        identity = make_identity(f)
        assert identity.polynomial == f and is_evanescent(identity.polynomial).peirce == expected.peirce
    else:
        with pytest.raises(EvanescenceError) as raised:
            make_identity(f)
        report = raised.value.report
        assert report.peirce == expected.peirce and report.at_ones == expected.at_ones
        assert report.is_peirce_evanescent == expected.is_peirce_evanescent
        assert not report.is_evanescent_identity


def test_walks_on_a_monomial_deeper_than_the_recursion_limit():
    # x^{1500}(yz) nests 1,500 products deeper than its leaves y and z
    w = left_iterate(X, 1500, product(leaf(Y), leaf(Z)))
    assert w.degree - 1 > sys.getrecursionlimit()
    swap = {X: Y, Y: X}
    swapped = trainsgen.relabel_monomial(w, swap)
    assert type_vector(swapped) == (1, 1500, 1)
    assert trainsgen.relabel_monomial(swapped, swap) is w
    f = Polynomial.monomial(w, Q(2, 3))
    assert f.substitute({v: Polynomial.variable(v) for v in f.variables()}) == f
    t = Polynomial.variable(T_FRESH)
    inner = left_iterate(X, 1500, product(leaf(T_FRESH), leaf(Z)))
    assert linearize(f, Y) == [f, Polynomial.monomial(inner, Q(2, 3))]
    assert delta(f, Y, t) == Polynomial.monomial(inner, Q(2, 3))
    for v in (X, Y, Z):
        assert peirce_recursive(w, v) == peirce_tree(w, v)
        assert peirce_recursive(f, v) == peirce_tree(f, v)
    assert peirce_recursive(w, Y) == PeircePolynomial((0,) * 1501 + (1,))
    # with x = y = e and z in the kernel, yz = lam z and each x multiplies by lam
    lam = Q(1, 2)
    algebra, e = spectrum_algebra([lam])
    z = (Q(0), Q(1))
    assert evaluate(f, algebra, {X: e, Y: e, Z: z}) == (0, Q(2, 3) * lam**1501)


def test_slot_width_from_the_member_degree(monkeypatch):
    # in each caller the member has the top degree of its class, so the
    # width from the member's degree is the one from every term's degree:
    # on every class of the train and homog bench types and on
    # make_identity over the corpus identities, and on a class whose
    # width is 128 bits only by its member's degree and coefficient
    built = peirce.peirce_class
    widths = []

    def peirce_class(den, form, coef, member, variables):
        cls = built(den, form, coef, member, variables)
        degree = max(m.degree for m in [*(m for m, _ in form), member])
        widths.append((cls.bits, peirce._slot_bits([*(n for _, n in form), coef], degree)))
        return cls

    for module in (trainsgen, homgen, peirce):
        monkeypatch.setattr(module, "peirce_class", peirce_class)
    suffixes = [(), (1,), (2,), (1, 1)]
    for ty in [(n,) + suffix for suffix in suffixes for n in range(1, 10 - sum(suffix))]:
        trainsgen.generate_train_basis(ty)
    for ty in [(8,), (5, 1), (4, 2), (3, 1, 1), (8, 1), (6, 2), (6, 1, 1)]:
        homgen.generate_homogeneous(ty)
    paths = sorted(CORPUS.glob("*/*.txt"))
    lines = [line for path in paths for line in corpus_lines(path.parent.name, path.stem)]
    for line in lines:
        with contextlib.suppress(EvanescenceError):
            make_identity(parse(line))
    with pytest.raises(EvanescenceError):
        # 2 sum|n| degree is 2^64, so 128 bits; without the member's
        # coefficient it would be 2^64 - 8, at the form's degree 3 * 2^62
        make_identity(parse(f"{2 ** 61 - 1} x^2 x - x^2 x^2"))
    assert len(lines) == 250 and len(widths) == 1781 + 523 + 250 + 1
    assert all(got == want for got, want in widths)
    assert {got for got, _ in widths} == {64, 128}
