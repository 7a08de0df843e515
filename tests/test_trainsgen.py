import functools
import hashlib
import itertools
import math
import random

import pytest

from evanescent import homgen, peirce, trainsgen
from evanescent.magma import (
    Monomial,
    Variable,
    X,
    Y,
    Z,
    leaf,
    left_iterate,
    monomials_of_type,
    principal_power,
    product,
    type_vector,
    w_number,
)
from evanescent.peirce import EvanescenceError, _packed, is_evanescent, peirce_tree
from evanescent.poly import Polynomial
from evanescent.rationals import Q
from evanescent.syntax import format_monomial, format_polynomial, parse, parse_monomial
from evanescent.trainsgen import (
    BasisMonomialError,
    ShapeError,
    classify_type,
    generate_train_basis,
    is_basis_monomial,
    reduce,
    solve_Pw,
    train_identity,
)

from conftest import nested_key


def span(ty) -> tuple:
    """The span monomials of a type, in its letters and span order."""
    return tuple(m for _, m in trainsgen._record(ty).order)


def excluded(ty) -> tuple:
    """The span monomials of exactly this type, its basis monomials, in span order."""
    return tuple(m for m in span(ty) if m in trainsgen._record(ty).basis)


def test_solve_examples():
    assert solve_Pw(parse_monomial("x^2 x^2")) == parse("2 x^3 - x^2")
    assert solve_Pw(parse_monomial("x^3 x^2")) == parse("x^4 + x^3 - x^2")
    assert solve_Pw(parse_monomial("x^2 (x y)")) == parse("x (x y) + x^2 y - x y")


def test_reduce_examples():
    assert reduce(parse_monomial("x^2 x^2")) == parse("2 x^3 - x^2")
    assert reduce(parse_monomial("x^3")) == parse("x^3")
    w = parse_monomial("((x^3 x^3) x^2)((x^2 x^4) x^3)")
    assert reduce(w) == parse("x^7 + 2 x^6 + 2 x^5 - x^4 - 2 x^3 - x^2")


def test_reduce_deep_iterated_example():
    w = parse_monomial("x^5 (x (x (x (x^4 ((x^2 x^3) y)))))")
    expected = parse("x^{6} y + x^9 y + 2 x^8 y - x^7 y - x^6 y - x y")
    assert reduce(w) == expected
    assert solve_Pw(w) == expected


def test_train_identity_examples():
    t = train_identity(parse_monomial("x^4 x^2"))
    assert t.polynomial == parse("x^4 x^2 - x^5 - x^3 + x^2")
    t = train_identity(parse_monomial("x^2 (x y)"))
    assert t.polynomial == parse("x^2 (x y) - x (x y) - x^2 y + x y")
    t = train_identity(parse_monomial("x^2 y^2"))
    assert t.polynomial == parse("x^2 y^2 - 2 (x y) y + y^2")
    assert t.train and t.type == (2, 2)


def test_basis_monomials_error():
    for text in ["x^4", "x^5 y", "x^{5} y", "(x^{3} y) y", "x^{3} (y z)", "x"]:
        with pytest.raises(BasisMonomialError):
            train_identity(parse_monomial(text))
        with pytest.raises(BasisMonomialError):
            solve_Pw(parse_monomial(text))
        w = parse_monomial(text)
        assert reduce(w) == Polynomial.monomial(w)


def test_shape_errors():
    with pytest.raises(ShapeError):
        reduce(parse_monomial("x^2 y^2 z"))  # type (2,2,1) unsupported
    with pytest.raises(ShapeError):
        reduce(parse_monomial("x^2 x^2"), shape="n1")
    with pytest.raises(ShapeError):
        generate_train_basis((2, 2, 1))
    with pytest.raises(ShapeError):
        generate_train_basis((11,))
    assert generate_train_basis((11,), max_degree=11)


def test_admit_checks_the_cap_before_building_the_family(monkeypatch):
    def unbuilt(tag, n):
        raise AssertionError("family built")

    monkeypatch.setattr(trainsgen, "_family", unbuilt)
    with pytest.raises(ShapeError, match="total degree 200000 exceeds the cap 10"):
        trainsgen.admit((200000,), 10)
    with pytest.raises(ShapeError, match="not one of the supported shapes"):
        trainsgen.admit((200000, 2, 2), 10)


def test_w_is_placed_by_its_rank(monkeypatch):
    # terms in canonical order, in the type's own letters, with w placed
    # among P(w)'s terms by rank, compared only with those of its degree
    for ty in [(5,), (4, 1), (1, 4), (3, 2), (2, 0, 3), (4, 1, 1), (1, 0, 4, 1), (0, 1, 1, 3)]:
        for identity in generate_train_basis(ty):
            ms = [m for m, _ in identity.terms]
            assert ms == sorted(set(ms), key=nested_key), identity
    ws = [w for w in monomials_of_type((1, 0, 4, 1)) if not is_basis_monomial(w)]
    ws += [parse_monomial("(z(zy))x")]
    for w in ws:
        train_identity(w)  # caches warm
    calls = []
    less = Monomial.__lt__

    def counted(a, b):
        calls.append((a, b))
        return less(a, b)

    monkeypatch.setattr(Monomial, "__lt__", counted)
    for w in ws:
        calls.clear()
        identity = train_identity(w)
        same_degree = [m for m, _ in identity.terms if m.degree == w.degree and m is not w]
        assert len(calls) <= len(same_degree) <= 3


def test_basis_of_type_matches_canonical_membership():
    # the basis set of a type, relabelled once into its letters, holds
    # exactly the monomials whose canonical form is a canonical basis monomial
    for ty, count in [((4,), 1), ((0, 0, 4), 1), ((3, 1), 2), ((1, 3), 2), ((2, 2), 2),
                      ((0, 2, 3), 2), ((3, 1, 1), 3), ((1, 3, 1), 3), ((1, 1, 3), 3)]:
        want = set()
        for w in monomials_of_type(ty):
            wc = trainsgen.relabel_monomial(w, trainsgen._record(ty).moved)
            if wc in trainsgen._record(type_vector(wc)).basis:
                want.add(w)
        assert trainsgen._record(ty).basis == want and len(want) == count, ty
        assert {w for w in monomials_of_type(ty) if is_basis_monomial(w)} == want
    with pytest.raises(ShapeError):
        is_basis_monomial(parse_monomial("x^2 y^2 z"))
    with pytest.raises(ShapeError):
        trainsgen._record((2, 2, 1))



@pytest.mark.parametrize("ty", [(1, 6), (0, 2, 5), (1, 1, 4), (3, 0, 1)])
def test_letters_that_move(ty):
    # a type whose letters are not the canonical ones: its identities are
    # the canonical type's, relabelled, and its basis monomials have none
    _, roles = classify_type(ty)
    inverse = {t: v for v, t in roles.items()}
    canonical = tuple(sorted(filter(None, ty), reverse=True))
    relabel = lambda p: Polynomial({trainsgen.relabel_monomial(m, inverse): c for m, c in p.terms.items()})
    got = generate_train_basis(ty)
    assert all(identity.type == ty for identity in got)
    assert {i.polynomial for i in got} == {relabel(i.polynomial) for i in generate_train_basis(canonical)}
    assert len(got) == w_number(ty) - len(excluded(canonical))
    # the span and the basis of a type are its canonical type's, relabelled
    for family in (span, excluded):
        assert family(ty) == tuple(trainsgen.relabel_monomial(b, inverse) for b in family(canonical))
    for w in [w for w in monomials_of_type(ty) if not is_basis_monomial(w)][:4]:
        assert reduce(w) == solve_Pw(w) and train_identity(w).type == ty
    for b in excluded(canonical):
        w = trainsgen.relabel_monomial(b, inverse)
        assert type_vector(w) == ty and reduce(w) == Polynomial.monomial(w)
        with pytest.raises(BasisMonomialError):
            train_identity(w)
        with pytest.raises(BasisMonomialError):
            solve_Pw(w)


def test_unsupported_shape_and_identity_maps():
    # the shape is checked before the degree cap
    with pytest.raises(ShapeError, match="supported shapes"):
        generate_train_basis((2, 2, 1), max_degree=3)
    m = parse_monomial("x^2 (x y)")
    assert trainsgen.relabel_monomial(m, {X: X, Y: Y}) is m
    assert trainsgen.relabel_monomial(m, {}) is m


def test_every_generated_identity_is_checked(monkeypatch):
    # a wrong span solve gives a wrong P(w): the evanescence check of the
    # identity rejects it, so every identity the generator yields is checked
    ty = (4, 1)
    want = generate_train_basis(ty)
    solve = trainsgen.solve_unique

    def bumped(system, column):
        den, nums = solve(system, column)
        k = next(k for k, n in enumerate(nums) if n)
        return den, (*nums[:k], nums[k] + (1 if nums[k] > 0 else -1), *nums[k + 1 :])

    with monkeypatch.context() as patch:
        patch.setattr(trainsgen, "solve_unique", bumped)
        with pytest.raises(EvanescenceError) as raised:
            generate_train_basis(ty)
        assert not raised.value.report.is_evanescent_identity
    assert generate_train_basis(ty) == want
    # a wrong rule gives a wrong normal form: reduce vs solve_Pw shows it on
    # a deeper monomial, and the generator, which reads no rule, is unmoved
    monkeypatch.setattr(trainsgen, "_RULES", {})
    monkeypatch.setattr(trainsgen, "_REDUCE_CACHE", {})
    words = [w for w in monomials_of_type(ty) if not is_basis_monomial(w)]
    assert all(reduce(w) == solve_Pw(w) for w in words)
    pattern, (den, terms) = next(iter(trainsgen._RULES.items()))
    (m, n), *rest = terms
    trainsgen._RULES[pattern] = (den, ((m, n + (1 if n > 0 else -1)), *rest))
    monkeypatch.setattr(trainsgen, "_REDUCE_CACHE", {})
    assert any(reduce(w) != solve_Pw(w) for w in words if w != pattern)
    assert generate_train_basis(ty) == want

def test_classify_type_roles():
    tag, roles = classify_type((3, 1))
    assert tag == "n1" and roles == {X: X, Y: Y}
    tag, roles = classify_type((1, 3))
    assert tag == "n1" and roles == {Y: X, X: Y}
    tag, roles = classify_type((2, 2))
    assert tag == "n2" and roles == {X: X, Y: Y}
    tag, roles = classify_type((1, 1, 2))
    assert tag == "n11" and roles == {Variable(3): X, X: Y, Y: Z}
    assert classify_type((2, 2, 1))[0] is None


def test_relabeled_variables_roundtrip():
    # type (1,3): y is the main variable
    w = parse_monomial("y^2 (y x)")
    p = reduce(w)
    assert type_vector(w) == (1, 3)
    assert is_evanescent(Polynomial.monomial(w) - p).is_evanescent_identity
    assert p == solve_Pw(w)
    # every monomial in the result only uses x and y
    assert all(v.index in (1, 2) for m in p.terms for v in [Variable(i) for i, _ in m.counts])


def test_generate_counts_match_dimension_corollaries():
    assert len(generate_train_basis((2,))) == 0
    assert len(generate_train_basis((3,))) == 0
    assert len(generate_train_basis((2, 1))) == 0
    assert len(generate_train_basis((1, 2))) == 0
    assert len(generate_train_basis((1, 1, 1))) == 0
    assert len(generate_train_basis((5,))) == w_number((5,)) - 1
    assert len(generate_train_basis((5, 1))) == w_number((5, 1)) - 2
    assert len(generate_train_basis((3, 2))) == w_number((3, 2)) - 2
    assert len(generate_train_basis((3, 1, 1))) == w_number((3, 1, 1)) - 3


def test_generated_are_verified_and_ordered():
    ids = generate_train_basis((6,))
    assert all(is_evanescent(i.polynomial).is_evanescent_identity for i in ids)
    assert all(i.train and i.type == (6,) for i in ids)


def test_degree5_list():
    got = {format_polynomial(i.polynomial) for i in generate_train_basis((5,))}
    assert got == {"(x^2 x^2) x - 2 x^4 + x^3", "x^3 x^2 - x^4 - x^3 + x^2"}


def test_integrality_for_univariate_and_n1():
    for ty in [(6,), (7,), (5, 1)]:
        for ident in generate_train_basis(ty):
            for c in ident.polynomial.terms.values():
                assert c == int(c)


def test_cross_algorithm_small():
    for ty in [(6,), (4, 1), (3, 2), (2, 1, 1)]:
        tag, roles = classify_type(ty)
        for w in monomials_of_type(ty):
            wc = trainsgen.relabel_monomial(w, roles)
            if wc in trainsgen._record(type_vector(wc)).basis:
                continue
            assert reduce(w) == solve_Pw(w)


def test_integer_rewriting_from_cold_caches(monkeypatch):
    # rules and normal forms are cached as ints over one denominator;
    # the public entry points give Q coefficients
    monkeypatch.setattr(trainsgen, "_RULES", {})
    monkeypatch.setattr(trainsgen, "_REDUCE_CACHE", {})
    checked = 0
    for ty in [(5, 1, 1), (6, 2)]:
        for w in monomials_of_type(ty):
            if is_basis_monomial(w):
                continue
            got = reduce(w)
            assert got == solve_Pw(w)
            assert all(type(c) is Q for c in got.terms.values())
            identity = train_identity(w).polynomial
            assert identity == Polynomial.monomial(w) - got
            assert all(type(c) is Q for c in identity.terms.values())
            checked += 1
    assert checked == w_number((5, 1, 1)) - 3 + w_number((6, 2)) - 2


def test_large_spans_agree_from_cold_caches(monkeypatch):
    # the (40, 1) span system is 81 x 79, larger than any the workloads solve;
    # each type solved along the way is factored exactly once, on its record
    records = {}
    build = trainsgen._record.__wrapped__
    monkeypatch.setattr(trainsgen, "_record", lambda ty: records.get(ty) or records.setdefault(ty, build(ty)))
    monkeypatch.setattr(trainsgen, "_RULES", {})
    monkeypatch.setattr(trainsgen, "_REDUCE_CACHE", {})
    calls = []
    original = homgen.rref

    def counted(rows):
        calls.append((len(rows), len(rows[0]) - len(rows)))  # the shape of A in [A | I]
        return original(rows)

    monkeypatch.setattr(homgen, "rref", counted)
    solved = lambda: [record for record in records.values() if "system" in vars(record)]
    x, y, z = leaf(X), leaf(Y), leaf(Z)
    monomials = [
        product(principal_power(X, 20), left_iterate(X, 20, y)),
        product(principal_power(X, 39), product(x, y)),
        product(product(principal_power(X, 10), y), principal_power(X, 30)),
        product(product(principal_power(X, 12), y), z),
        product(principal_power(X, 7), product(left_iterate(X, 5, y), z)),
        left_iterate(X, 3, product(product(principal_power(X, 9), z), y)),
    ]
    for w in monomials:
        assert type_vector(w) in ((40, 1), (12, 1, 1)) and not is_basis_monomial(w)
        assert reduce(w) == solve_Pw(w)
    assert len(calls) == len(solved()) and (81, 79) in calls
    for w in monomials:
        solve_Pw(w)
    assert len(calls) == len(solved())


def test_reduce_accumulates_rational_rules_in_ints(monkeypatch):
    # every rule of the four shapes is integral, so rewrite with rational
    # rules of the same support and compare with a Fraction rewriting
    monkeypatch.setattr(trainsgen, "_RULES", {})
    monkeypatch.setattr(trainsgen, "_REDUCE_CACHE", {})
    derived = trainsgen._rule
    scales = {}

    def rational_rule(m1, m2):
        den, terms = derived(m1, m2)
        scale = scales.setdefault(product(m1, m2), (2, 3, 7, 21)[len(scales) % 4])
        return scale * den, tuple((m, n * (1 + m.degree % 3)) for m, n in terms)

    def fraction_reduce(w):
        if is_basis_monomial(w):
            return Polynomial.monomial(w)
        total = Polynomial.zero()
        for m1, a in fraction_reduce(w.left).terms.items():
            for m2, b in fraction_reduce(w.right).terms.items():
                den, terms = rational_rule(m1, m2)
                for m, n in terms:
                    total = total + Polynomial.monomial(m, a * b * Q(n, den))
        return total

    monkeypatch.setattr(trainsgen, "_rule", rational_rule)
    for ty in [(7,), (4, 1, 1), (5, 2)]:
        for w in monomials_of_type(ty):
            den, terms = trainsgen._reduce(w)
            assert den > 0 and math.gcd(den, *(n for _, n in terms)) == 1
            assert all(type(n) is int and n for _, n in terms)
            assert Polynomial({m: Q(n, den) for m, n in terms}) == fraction_reduce(w)


def test_rewrite_rescales_for_denominators_met_part_way(monkeypatch):
    # no rule of the four shapes has a denominator other than 1: give the
    # six products of two forms rules over 1, 2, 1, 6, 3 and 1, in the
    # order the rewriting fetches them, and compare with a Fraction sum
    t = [leaf(Variable(i)) for i in range(1, 9)]
    left = (3, ((t[0], 1), (t[1], -2)))
    right = (5, ((t[2], 4), (t[3], 1), (t[4], -1)))
    pool = [t[5], t[6], t[7], product(t[5], t[6])]
    dens = [1, 2, 1, 6, 3, 1]
    rules = {}
    for k, (m1, m2) in enumerate((m1, m2) for m1, _ in left[1] for m2, _ in right[1]):
        terms = tuple((pool[(k + j) % 4], (-1) ** (k + j) * (j + 1 + k % 3)) for j in range(3))
        rules[product(m1, m2)] = (dens[k], terms)
    monkeypatch.setattr(trainsgen, "_RULES", rules)
    want = {}  # in the order of first appearance, as the rewriting keeps it
    for m1, a in left[1]:
        for m2, b in right[1]:
            d, terms = rules[product(m1, m2)]
            for m, c in terms:
                want[m] = want.get(m, 0) + Q(a, left[0]) * Q(b, right[0]) * Q(c, d)
    den, terms = trainsgen._rewrite(left, right)
    assert den > 0 and math.gcd(den, *(n for _, n in terms)) == 1
    assert all(type(n) is int and n for _, n in terms)
    assert [(m, Q(n, den)) for m, n in terms] == [(m, c) for m, c in want.items() if c]
    assert den == math.lcm(*(c.denominator for c in want.values()))


def test_uniqueness_perturbation():
    rng = random.Random(3)
    for ty in [(5,), (4, 1), (2, 2)]:
        for ident in generate_train_basis(ty):
            f = ident.polynomial
            basis_monomials = span(ty)
            m = rng.choice(basis_monomials)
            perturbed = f + Polynomial.monomial(m)
            assert not is_evanescent(perturbed).is_evanescent_identity


def test_basis_predicate_shapes():
    basis = [
        principal_power(X, 4),
        product(principal_power(X, 3), leaf(Y)),
        left_iterate(X, 2, leaf(Y)),
        product(leaf(X), leaf(Y)),
        product(left_iterate(X, 2, leaf(Y)), leaf(Y)),
        left_iterate(X, 1, product(leaf(Y), leaf(Y))),
        left_iterate(X, 2, product(leaf(Y), leaf(Z))),
        left_iterate(X, 1, product(product(leaf(X), leaf(Z)), leaf(Y))),
    ]
    basis += [parse_monomial(t) for t in ["x^3 z", "x (x z)", "y z", "(x z) y"]]
    for w in basis:
        assert is_basis_monomial(w), w
    for text in ["x^2 x^2", "x (x^2 y)", "x^2 (x z)"]:
        assert not is_basis_monomial(parse_monomial(text)), text


# ---------------------------------------------------------------------------
# the paper's closed forms for the product of two basis monomials, kept as
# an independent check of the rules that reduce derives by the solve


def _P(k):
    return principal_power(X, k)


def _PM(k, t):
    return product(_P(k), leaf(t))


def _IM(r, t):
    return left_iterate(X, r, leaf(t))


def _PAIR(r):
    return product(_IM(r, Y), leaf(Y))


def _SQ(s):
    return left_iterate(X, s, product(leaf(Y), leaf(Y)))


def _YZ(r):
    return left_iterate(X, r, product(leaf(Y), leaf(Z)))


def _TRI(r, t1, t2):
    return left_iterate(X, r, product(product(leaf(X), leaf(t1)), leaf(t2)))


def _combo(*terms) -> Polynomial:
    total = {}
    for coeff, monomial in terms:
        total[monomial] = total.get(monomial, 0) + coeff
    return Polynomial(total)


def _family_expansion(kind1, p1, l1, kind2, p2, l2):
    """Closed-form right-hand side for a product of two basis monomials,
    or None where the paper gives none."""
    pair = (kind1, kind2)
    if pair == ("xpow", "xpow"):
        return _combo((1, _P(p1 + 1)), (1, _P(p2 + 1)), (-1, _P(2)))
    if pair == ("xpow", "pmix"):
        t = l2[0]
        if p1 == 1:
            return _combo((1, _IM(2, t)), (1, _PM(p2 + 1, t)), (-1, _PM(2, t)))
        return _combo(
            (1, _IM(2, t)),
            (1, _PM(p1, t)),
            (1, _PM(p2 + 1, t)),
            (-1, _PM(2, t)),
            (-1, _IM(1, t)),
        )
    if pair == ("xpow", "imix"):
        t = l2[0]
        if p1 == 1:
            return Polynomial.monomial(_IM(p2 + 1, t))
        return _combo((1, _PM(p1, t)), (1, _IM(p2 + 1, t)), (-1, _IM(1, t)))
    if pair == ("xpow", "pair"):
        if p1 == 1:
            return _combo((1, _PAIR(p2 + 1)), (-1, _PAIR(1)), (1, _SQ(1)))
        return _combo(
            (2, _PAIR(p1 - 1)),
            (1, _PAIR(p2 + 1)),
            (-1, _SQ(p1 - 1)),
            (-1, _PAIR(1)),
            (1, _SQ(1)),
            (-1, _SQ(0)),
        )
    if pair == ("xpow", "square"):
        if p1 == 1:
            return Polynomial.monomial(_SQ(p2 + 1))
        return _combo(
            (2, _PAIR(p1 - 1)),
            (-1, _SQ(p1 - 1)),
            (1, _SQ(p2 + 1)),
            (-1, _SQ(0)),
        )
    if pair == ("xpow", "prodyz"):
        if p1 == 1:
            return Polynomial.monomial(_YZ(p2 + 1))
        terms = []
        for i in range(p1 - 1):
            terms += [(1, _TRI(i, Y, Z)), (1, _TRI(i, Z, Y)), (-2, _YZ(i))]
        terms += [(-1, _YZ(p1 - 1)), (1, _YZ(p2 + 1)), (1, _YZ(0))]
        return _combo(*terms)
    if pair == ("xpow", "triple"):
        t1, t2 = l2
        if p1 == 1:
            return Polynomial.monomial(_TRI(p2 + 1, t1, t2))
        terms = []
        for i in range(p1 - 1):
            terms += [(1, _TRI(i, Y, Z)), (1, _TRI(i, Z, Y)), (-2, _YZ(i))]
        terms += [(1, _TRI(p2 + 1, t1, t2)), (-1, _YZ(p1 - 1)), (1, _YZ(0))]
        return _combo(*terms)
    if pair == ("pmix", "pmix"):
        if l1[0] == l2[0]:
            return _combo(
                (2, _PAIR(p1)),
                (2, _PAIR(p2)),
                (-1, _SQ(p1)),
                (-1, _SQ(p2)),
                (-2, _PAIR(1)),
                (2, _SQ(1)),
                (-1, _SQ(0)),
            )
        return None
    if pair == ("pmix", "imix"):
        if l1[0] == l2[0]:
            return _combo(
                (2, _PAIR(p1)),
                (1, _PAIR(p2)),
                (-1, _SQ(p1)),
                (-1, _PAIR(1)),
                (1, _SQ(1)),
                (-1, _SQ(0)),
            )
        t1, t2 = l1[0], l2[0]
        if p2 == 0:
            terms = []
            for i in range(1, p1):
                terms += [(1, _TRI(i, t1, t2)), (1, _TRI(i, t2, t1)), (-2, _YZ(i))]
            terms += [(-1, _YZ(p1)), (1, _TRI(0, t1, t2)), (1, _YZ(1))]
            return _combo(*terms)
        terms = []
        for i in range(p1):
            terms += [(1, _TRI(i, t1, t2)), (1, _TRI(i, t2, t1)), (-2, _YZ(i))]
        for i in range(1, p2):
            terms += [(1, _TRI(i, t2, t1)), (-1, _YZ(i))]
        terms += [(-1, _YZ(p1)), (1, _YZ(1)), (1, _YZ(0))]
        return _combo(*terms)
    if pair == ("imix", "imix"):
        if l1[0] == l2[0]:
            return _combo((1, _PAIR(p1)), (1, _PAIR(p2)), (-1, _SQ(0)))
        t1, t2 = l1[0], l2[0]
        terms = []
        for i in range(p1):
            terms += [(1, _TRI(i, t1, t2)), (-1, _YZ(i))]
        for i in range(p2):
            terms += [(1, _TRI(i, t2, t1)), (-1, _YZ(i))]
        terms += [(1, _YZ(0))]
        return _combo(*terms)
    return None


_KIND_ORDER = {"xpow": 0, "pmix": 1, "imix": 2, "pair": 3, "square": 4,
               "prodyz": 5, "triple": 6}


def _basis_kinds(max_degree):
    """Every basis monomial in the letters x, y, z up to max_degree,
    mapped to its (kind, parameter, letters)."""
    kinds = {}
    for k in range(1, max_degree + 1):
        kinds[_P(k)] = ("xpow", k, ())
        for t in (Y, Z):
            kinds[_IM(k - 1, t)] = ("imix", k - 1, (t,))
            if k >= 2:
                kinds[_PM(k, t)] = ("pmix", k, (t,))
        kinds[_PAIR(k)] = ("pair", k, ())
        kinds[_SQ(k - 1)] = ("square", k - 1, ())
        kinds[_YZ(k - 1)] = ("prodyz", k - 1, ())
        kinds[_TRI(k - 1, Y, Z)] = ("triple", k - 1, (Y, Z))
        kinds[_TRI(k - 1, Z, Y)] = ("triple", k - 1, (Z, Y))
    return kinds


def _train_types():
    """The types of the families n, n,1, n,2 and n,1,1 up to total degree 9."""
    return [(n,) + suffix for suffix in [(), (1,), (2,), (1, 1)] for n in range(1, 10 - sum(suffix))]


def test_closed_forms_equal_derived_rules(monkeypatch):
    # every rule reached by reducing each non-basis monomial of the train
    # types to degree 9, from empty caches
    monkeypatch.setattr(trainsgen, "_RULES", {})
    monkeypatch.setattr(trainsgen, "_REDUCE_CACHE", {})
    for ty in _train_types():
        for w in monomials_of_type(ty):
            if not is_basis_monomial(w):
                reduce(w)
    kinds = _basis_kinds(9)
    closed, without = 0, []
    for pattern in trainsgen._RULES:
        rule = trainsgen._polynomial(trainsgen._RULES[pattern], {})
        diff = Polynomial.monomial(pattern) - rule
        assert rule.at_ones() == 1
        assert all(peirce_tree(diff, v).is_zero for v in diff.variables())
        factors = sorted(
            (kinds[pattern.left], kinds[pattern.right]),
            key=lambda c: (_KIND_ORDER[c[0]], c[1]),
        )
        expected = _family_expansion(*factors[0], *factors[1])
        if expected is None:
            without.append(factors)
            continue
        assert expected == rule, pattern
        closed += 1
    # 363 products: counted per ordered pair of factors, as rules were
    # once keyed, they are 356 closed forms and 12 without, because three
    # imix x imix and two pmix x pmix products in y and z are reached in
    # both orders
    assert closed == 353
    # only a product of two principal-mixed factors in different letters
    # has no closed form
    assert len(without) == 10
    for (k1, _, l1), (k2, _, l2) in without:
        assert k1 == k2 == "pmix" and l1 != l2
    assert trainsgen.rule_sources() == dict.fromkeys(trainsgen._RULES, "derived")


# ---------------------------------------------------------------------------
# Peirce classes: the monomials of a type with the same packed Peirce entry


def test_a_peirce_class_has_one_normal_form(monkeypatch):
    # P(w) depends only on w's Peirce polynomials: within a class, reduce
    # gives one polynomial, and it is the direct solve's for every member
    monkeypatch.setattr(trainsgen, "_RULES", {})
    monkeypatch.setattr(trainsgen, "_REDUCE_CACHE", {})
    members = classes = 0
    for ty in _train_types():
        variables = tuple(i + 1 for i, count in enumerate(ty) if count)
        normal = {}
        for w in monomials_of_type(ty):
            if is_basis_monomial(w):
                continue
            got = reduce(w)
            assert normal.setdefault(_packed(w, variables, 64), got) == got, w
            assert got == solve_Pw(w), w
            members += 1
        classes += len(normal)
    assert (members, classes) == (3750, 1781)


def test_generation_reduces_once_per_class(monkeypatch):
    # per class one span solve and one pass over -P(w)'s terms; per member
    # one check of its own Peirce entry, and no pass over its terms
    counts = {"solve_unique": 0, "peirce_class": 0, "_sums": 0, "placed": 0, "_report": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("solve_unique", "peirce_class", "placed"):
        counted(trainsgen, name)
    for name in ("_sums", "_report"):
        counted(peirce, name)
    identities = generate_train_basis((6, 1, 1))
    assert counts == {"solve_unique": 243, "peirce_class": 243, "_sums": 243, "placed": 494, "_report": 0}
    assert len(identities) == len(set(identities)) == 494


def test_generation_reads_no_rewriting(monkeypatch):
    # from cold caches, the train workload's 31 types build one record
    # each, the rewriting's caches stay empty, and letters are relabelled
    # and types taken only while a record is built
    built, outside, building = [], [], []
    build = trainsgen._record.__wrapped__

    def record(ty):
        built.append(ty)
        building.append(ty)
        try:
            return build(ty)
        finally:
            building.pop()

    def watched(name):
        real = getattr(trainsgen, name)

        def wrapper(*args):
            if not building:
                outside.append(name)
            return real(*args)

        monkeypatch.setattr(trainsgen, name, wrapper)

    monkeypatch.setattr(trainsgen, "_record", functools.cache(record))
    monkeypatch.setattr(trainsgen, "_RULES", {})
    monkeypatch.setattr(trainsgen, "_REDUCE_CACHE", {})
    watched("relabel_monomial")
    watched("type_vector")
    types = _train_types()
    assert sum(len(generate_train_basis(ty)) for ty in types) == 3750
    assert len(types) == 31 and built == types
    assert trainsgen._RULES == {} and trainsgen._REDUCE_CACHE == {}
    assert outside == []


def _classes(ty):
    """The Peirce classes of a type's non-basis monomials, as lists."""
    variables = trainsgen._record(ty).variables
    classes = {}
    for w in monomials_of_type(ty):
        if not is_basis_monomial(w):
            classes.setdefault(_packed(w, variables, 64), []).append(w)
    return list(classes.values())


def test_a_wrong_class_form_fails_every_member(monkeypatch):
    # one unit moved between two coefficients of P(w): the coefficient
    # sum stays 0, but the class's Peirce sums no longer match any
    # member's own entry, so every member raises with its own report
    ty = (1, 4, 1)
    record = trainsgen._record(ty)
    solve = trainsgen.solve_unique
    want = len(generate_train_basis(ty))
    members = 0
    for ws in _classes(ty):
        den, nums = solve(record.system, homgen.peirce_column(ws[0], record.variables, sum(ty)))
        k1, k2, *_ = (k for k, n in enumerate(nums) if n)
        moved = [n + (k == k1) - (k == k2) for k, n in enumerate(nums)]
        monkeypatch.setattr(trainsgen, "solve_unique", lambda system, column, got=(den, moved): got)
        cls, at = trainsgen._ranked(ws[0], record)
        wrong = Polynomial({m: Q(n, den) for (_, m), n in zip(record.order, moved) if n})
        for w in ws:
            with pytest.raises(EvanescenceError) as raised:
                peirce.placed(w, cls, at, ty, True)
            report = raised.value.report
            oracle = is_evanescent(Polynomial.monomial(w) - wrong)
            assert report.at_ones == oracle.at_ones == 0
            assert report.peirce == oracle.peirce
            assert not report.is_peirce_evanescent and not oracle.is_peirce_evanescent
            assert not report.is_evanescent_identity and not oracle.is_evanescent_identity
            members += 1
    assert members == want == 66


def test_a_coarse_class_key_raises(monkeypatch):
    # classes keyed by the first letter's Peirce polynomial alone merge
    # monomials with different P(w): a member placed into another's P(w)
    # fails its own check instead of printing a wrong line
    ty = (4, 1, 1)
    variables = trainsgen._record(ty).variables
    keys = [_packed(ws[0], variables, 64) for ws in _classes(ty)]
    assert len({key[:1] for key in keys}) < len(keys)
    # the key is coarsened where the classes are found, in
    # homgen.peirce_classes, alone: the span solve and the members' checks
    # still read each monomial's full entry
    classes = homgen._classes
    monkeypatch.setattr(homgen, "_classes", lambda keys: classes(key[:1] for key in keys))
    with pytest.raises(EvanescenceError) as raised:
        generate_train_basis(ty)
    assert not raised.value.report.is_evanescent_identity


# ---------------------------------------------------------------------------
# pins: one sha256 over what the rewriting and the shapes give


def test_rules_are_pinned(monkeypatch):
    # from cold caches, every non-basis monomial of the train workload's
    # types and of four types in moved letters is reduced and solved; the
    # digest covers every rule as cached and both routes' P(w)
    monkeypatch.setattr(trainsgen, "_record", functools.cache(trainsgen._record.__wrapped__))
    monkeypatch.setattr(trainsgen, "_RULES", {})
    monkeypatch.setattr(trainsgen, "_REDUCE_CACHE", {})
    texts = lambda p: [(format_monomial(m), str(c)) for m, c in p.terms.items()]
    lines = []
    for ty in _train_types() + [(0, 2, 5), (1, 6), (3, 0, 1), (1, 0, 4, 1)]:
        for w in monomials_of_type(ty):
            if not is_basis_monomial(w):
                lines.append(repr((format_monomial(w), texts(reduce(w)), texts(solve_Pw(w)))))
    for pattern, (den, terms) in trainsgen._RULES.items():
        lines.append(repr((format_monomial(pattern), den, [(format_monomial(m), n) for m, n in terms])))
    assert len(trainsgen._RULES) == 363
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f7ddc71ea3a637173c429946037c579397ba7c957b91d49a8b7d6a1173e7f175"


def _crosscheck_words() -> list:
    """The crosscheck workload's words: every non-basis monomial of the
    families n, n,1, n,2 and n,1,1 up to total degree 7, in canonical order."""
    types = ([(k,) for k in range(2, 8)] + [(k, 1) for k in range(1, 7)]
             + [(k, 2) for k in range(2, 6)] + [(k, 1, 1) for k in range(1, 6)])
    return [w for ty in types for w in monomials_of_type(ty) if not is_basis_monomial(w)]


def test_reduce_and_solve_are_printed_as_pinned(monkeypatch):
    # from cold caches, the 526 crosscheck words and every non-basis
    # monomial of three types whose letters move, so that the forms are
    # relabelled: both routes' P(w) as printed, and each term with its
    # exact coefficient in the polynomial's own order
    monkeypatch.setattr(trainsgen, "_record", functools.cache(trainsgen._record.__wrapped__))
    monkeypatch.setattr(trainsgen, "_RULES", {})
    monkeypatch.setattr(trainsgen, "_REDUCE_CACHE", {})
    words = _crosscheck_words()
    assert len(words) == 526
    for ty in [(1, 5), (0, 2, 4), (1, 0, 1, 3)]:
        assert trainsgen._record(ty).moved
        words += [w for w in monomials_of_type(ty) if not is_basis_monomial(w)]
    lines = []
    for w in words:
        for p in (reduce(w), solve_Pw(w)):
            terms = [(format_monomial(m), c.numerator, c.denominator) for m, c in p.terms.items()]
            lines.append(repr((format_monomial(w), format_polynomial(p), terms)))
    assert len(lines) == 2 * (526 + 18 + 39 + 22)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c49e494c9dacdf4ffb969edf0d285561acfeb4cded9494fc29b287ae950da325"


def test_a_warm_word_finds_its_record_once_and_one_q_per_value(monkeypatch):
    # once w's rules and normal form are cached, each route looks w's
    # record up once, and the polynomial of its form builds one Q per
    # distinct coefficient, relabelled or not
    record = trainsgen._record
    lookups, built = [], []
    monkeypatch.setattr(trainsgen, "_record", lambda ty: lookups.append(ty) or record(ty))
    monkeypatch.setattr(trainsgen, "Q", lambda n, den: built.append(n) or Q(n, den))
    terms = values = 0
    for ty in [(5, 1, 1), (1, 0, 1, 3)]:
        for w in monomials_of_type(ty):
            if is_basis_monomial(w):
                continue
            reduce(w), solve_Pw(w)
            for route in (reduce, solve_Pw):
                del lookups[:], built[:]
                got = route(w)
                assert lookups == [type_vector(w)], (route, w)
                assert len(built) == len(set(got.terms.values())), (route, w)
                terms += len(got.terms)
                values += len(built)
    assert values < terms


def test_classify_type_is_pinned():
    # every type of 1-4 entries and total degree 1 to 8
    lines, tags = [], set()
    for size in range(1, 5):
        for ty in itertools.product(range(9), repeat=size):
            if 1 <= sum(ty) <= 8:
                tag, roles = classify_type(ty)
                tags.add(tag)
                lines.append(repr((ty, tag, roles and sorted((v.index, t.index) for v, t in roles.items()))))
    assert tags == {"n", "n1", "n2", "n11", None}
    assert classify_type((2, 2, 1)) == (None, None)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e7415a1b5a3e67dbe3531ed09ec7fbd16fc3ce3e3f28482251d147828275da09"
