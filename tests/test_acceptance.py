"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact (rational arithmetic); randomized parts are
seed-pinned.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random

import pytest

from evanescent import baric, homgen, trainsgen
from evanescent.magma import (
    Variable,
    X,
    Y,
    monomials_of_type,
    type_vector,
    w_number,
)
from evanescent.peirce import (
    PeircePolynomial,
    is_evanescent,
    peirce_recursive,
    peirce_tree,
)
from evanescent.poly import Polynomial
from evanescent.rationals import ONE, Q, ZERO
from evanescent.syntax import parse, parse_monomial

from conftest import (
    SpanChecker,
    apply_univariate,
    corpus_lines,
    dense,
    homogeneous_dimension,
    kernel_basis,
    random_mutation_algebra,
    random_polynomial,
    zero_vector,
)

W_TABLES = {
    (): {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 46, 10: 98},
    (1,): {0: 1, 1: 1, 2: 2, 3: 4, 4: 9, 5: 20, 6: 46, 7: 106, 8: 248, 9: 582, 10: 1376},
    (2,): {0: 1, 1: 2, 2: 6, 3: 15, 4: 41, 5: 106, 6: 280, 7: 726, 8: 1891, 9: 4886, 10: 12622},
    (1, 1): {0: 1, 1: 3, 2: 9, 3: 25, 4: 69, 5: 186, 6: 497, 7: 1314, 8: 3453, 9: 9019, 10: 23454},
}

TRAIN_CORPUS = {
    ("train_n", "4"): (4,),
    ("train_n", "5"): (5,),
    ("train_n", "6"): (6,),
    ("train_n", "7"): (7,),
    ("train_n", "8"): (8,),
    ("train_n1", "3_1"): (3, 1),
    ("train_n1", "4_1"): (4, 1),
    ("train_n1", "5_1"): (5, 1),
    ("train_n2", "2_2"): (2, 2),
    ("train_n2", "3_2"): (3, 2),
    ("train_n2", "4_2"): (4, 2),
    ("train_n11", "2_1_1"): (2, 1, 1),
    ("train_n11", "3_1_1"): (3, 1, 1),
}

HOMOG_CORPUS = {
    ("homog_n", "6"): (6,),
    ("homog_n", "7"): (7,),
    ("homog_n", "8"): (8,),
    ("homog_n1", "4_1"): (4, 1),
    ("homog_n1", "5_1"): (5, 1),
    ("homog_n2", "2_2"): (2, 2),
    ("homog_n2", "3_2"): (3, 2),
    ("homog_n2", "4_2"): (4, 2),
    ("homog_n11", "2_1_1"): (2, 1, 1),
    ("homog_n11", "3_1_1"): (3, 1, 1),
}

SHAPES = {
    "n": (),
    "n1": (1,),
    "n2": (2,),
    "n11": (1, 1),
}


def in_scope_monomials(max_total_degree):
    """(monomial, canonical form) pairs for every supported shape."""
    for suffix in SHAPES.values():
        extra = sum(suffix)
        for n in range(1, max_total_degree - extra + 1):
            ty = (n,) + suffix
            tag, roles = trainsgen.classify_type(ty)
            for w in monomials_of_type(ty):
                yield w, trainsgen.relabel_monomial(w, roles)


def test_criterion_1_w_tables():
    for suffix, table in W_TABLES.items():
        for n, expected in table.items():
            ty = (n,) + suffix
            assert w_number(ty) == expected, ty
            assert len(monomials_of_type(ty)) == expected, ty
    print("ACCEPTANCE 1 PASS: W tables and enumeration agree through n=10")


def test_criterion_2_peirce_worked_example():
    w = parse_monomial("((t1 t2) t2)(t3^2) ((t1^2 t3) t1)")
    expected = {
        1: PeircePolynomial([0, 0, 1, 0, 3]),
        2: PeircePolynomial([0, 0, 0, 1, 1]),
        3: PeircePolynomial([0, 0, 0, 3]),
    }
    for idx, want in expected.items():
        assert peirce_recursive(w, idx) == want
        assert peirce_tree(w, idx) == want
    print("ACCEPTANCE 2 PASS: worked Peirce example exact by both algorithms")


def test_criterion_3_train_golden_corpus():
    total = 0
    for key, ty in TRAIN_CORPUS.items():
        generated = {i.polynomial for i in trainsgen.generate_train_basis(ty)}
        for line in corpus_lines(*key):
            f = parse(line)
            assert is_evanescent(f).is_evanescent_identity, line
            assert f in generated, line
            total += 1
    print(f"ACCEPTANCE 3 PASS: {total} listed train identities reproduced exactly")


def test_criterion_4_homogeneous_lists():
    total = 0
    for key, ty in HOMOG_CORPUS.items():
        matrix = homgen.peirce_matrix(ty)
        monomials, basis = matrix.col_labels, homgen.nullspace(matrix)
        checker = SpanChecker([dense(form, len(monomials)) for form in basis])
        for line in corpus_lines(*key):
            f = parse(line)
            assert is_evanescent(f).is_evanescent_identity, line
            assert f.homogeneous_type() == ty, line
            assert checker.contains([f.terms.get(m, ZERO) for m in monomials]), line
            total += 1
    for ty in [(1,), (2,), (3,), (4,), (5,), (1, 1), (2, 1), (3, 1), (1, 2), (1, 1, 1)]:
        assert homgen.generate_homogeneous(ty) == [], ty
    print(
        f"ACCEPTANCE 4 PASS: {total} listed homogeneous generators in the "
        "nullspace; nonexistence cases empty"
    )


def test_criterion_5_dimension_theorems():
    checked = 0
    for tag, suffix in SHAPES.items():
        deficits = {"n": 1, "n1": 2, "n2": 2, "n11": 3}
        extra = sum(suffix)
        for n in range(1, 10 - extra):
            ty = (n,) + suffix
            ids = trainsgen.generate_train_basis(ty)
            expected = max(0, w_number(ty) - deficits[tag])
            assert len(ids) == expected, ty
            assert all(i.report.is_evanescent_identity for i in ids)
            checked += len(ids)
    # homogeneous dimensions reach the stated lower bounds
    bounds = []
    for n in range(6, 10):
        bounds.append(((n,), w_number((n,)) - (n - 2)))
    for n in range(4, 9):
        bounds.append(((n, 1), w_number((n, 1)) - 2 * (n - 1)))
    for n in range(2, 8):
        bounds.append(((n, 2), w_number((n, 2)) - 2 * n))
    for n in range(2, 8):
        bounds.append(((n, 1, 1), w_number((n, 1, 1)) - 3 * n))
    for ty, bound in bounds:
        dim = homogeneous_dimension(ty)
        assert dim >= bound, (ty, dim, bound)
    print(
        f"ACCEPTANCE 5 PASS: {checked} train identities across all types of "
        "total degree <= 9 with the stated dimensions; homogeneous "
        "dimensions meet every stated lower bound"
    )


def test_criterion_6_cross_algorithm_equivalence():
    reduced = 0
    for w, wc in in_scope_monomials(9):
        for i in range(3):
            v = Variable(i + 1)
            assert peirce_tree(w, v) == peirce_recursive(w, v)
        if wc in trainsgen._record(type_vector(wc)).basis:
            continue
        assert trainsgen.reduce(w) == trainsgen.solve_Pw(w), w
        reduced += 1
    print(
        f"ACCEPTANCE 6 PASS: reduce == solve and both Peirce algorithms agree "
        f"on all in-scope monomials to total degree 9 ({reduced} reductions)"
    )


def test_criterion_7_mutation_theorem():
    pool = []
    for ty in [(5,), (6,), (7,), (4, 1), (5, 1), (2, 2), (3, 2), (2, 1, 1), (3, 1, 1)]:
        pool.extend(i.polynomial for i in trainsgen.generate_train_basis(ty))
    for ty in [(6,), (7,), (4, 1), (2, 2), (3, 2), (2, 1, 1), (3, 1, 1)]:
        pool.extend(i.polynomial for i in homgen.generate_homogeneous(ty))
    rng = random.Random(2026)
    sample = rng.sample(pool, 50)
    algebras = [random_mutation_algebra(rng, rng.randint(2, 5)) for _ in range(20)]
    for f in sample:
        for algebra in algebras:
            result = baric.verify_identity(f, algebra, trials=64, seed=11)
            assert result.passed, (f, result)
    # counterexample control: a non-evanescent polynomial must fail
    algebra, _ = baric.spectrum_algebra([2])
    control = baric.verify_identity(parse("x^2 - x"), algebra, trials=64, seed=0)
    assert not control.passed
    print(
        "ACCEPTANCE 7 PASS: 50 identities x 20 mutation algebras x 64 trials "
        "with zero failures; control polynomial refuted"
    )


def test_criterion_8_spectrum_and_annihilator():
    algebra, e = baric.spectrum_algebra([0, Q(1, 2)])
    cp = baric.char_poly(baric.left_mult_matrix(algebra, e))
    roots, remainder = baric.rational_roots(cp)
    assert remainder.degree() == 0
    assert roots == [(ZERO, 1), (Q(1, 2), 1), (ONE, 1)]

    # family x^2 x^2 - a w(x) x^3 - (1-a) w(x)^2 x^2 with a != 2:
    # on a concrete member, 2 L^2 - L must kill ker w
    structure = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][0][0] = ONE
    structure[0][2][2] = Q(1, 2)
    structure[2][0][2] = Q(1, 2)
    structure[2][2][1] = ONE
    member = baric.BaricAlgebra(3, structure, [1, 0, 0])
    a = Q(0)
    f = parse("x^2 x^2") - parse("x^3").scale(a) - parse("x^2").scale(1 - a)
    assert baric.verify_identity(f, member, trials=32, seed=5).passed
    assert not is_evanescent(f).is_peirce_evanescent
    L = baric.left_mult_matrix(member, (ONE, ZERO, ZERO))
    annihilator = PeircePolynomial([0, -1, 2])
    for vec in kernel_basis(member):
        assert apply_univariate(annihilator, L, vec) == zero_vector(member)
    print(
        "ACCEPTANCE 8 PASS: spectrum {0, 1/2, 1} exact; 2L^2 - L kills ker w "
        "on the a != 2 family instance"
    )


def test_criterion_9_product_rule_and_substitution():
    rng = random.Random(424242)
    for _ in range(1000):
        f = random_polynomial(rng, max_degree=4)
        g = random_polynomial(rng, max_degree=4)
        for i in (1, 2, 3):
            lhs = peirce_recursive(f * g, i)
            rhs = (
                peirce_recursive(g, i).scale(f.at_ones())
                + peirce_recursive(f, i).scale(g.at_ones())
            ).shift()
            assert lhs == rhs
    # a weight-1 substitution obeys the chain rule d(f(h)) = d(f) d(h), so
    # the evanescent backcrossing identity stays evanescent
    backcrossing = parse("x^2 x^2 - 2 x^3 + x^2")
    h = parse("1/2 (x^2 + x)")
    g = backcrossing.substitute({X: h})
    chain = peirce_recursive(backcrossing, X) * peirce_recursive(h, X)
    assert chain.is_zero
    assert peirce_recursive(g, X) == chain
    # independent route: in the mutation algebra with spectrum {1, lam},
    # p(e + e1) has e1-coordinate equal to the Peirce polynomial of p at lam
    for lam in (Q(1, 2), Q(2), Q(-1, 3), Q(3)):
        algebra, e = baric.spectrum_algebra([lam])
        point = (e[0], e[1] + 1)
        for p in (h, g):
            value = baric.evaluate(p, algebra, {X: point})
            assert value[1] == peirce_recursive(p, X)(lam)
    print(
        "ACCEPTANCE 9 PASS: product rule exact on 1000 random pairs; "
        "weight-1 substitution keeps the backcrossing identity evanescent"
    )
