import itertools
import random
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from evanescent import magma
from evanescent.magma import (
    Variable,
    X,
    Y,
    Z,
    children,
    degree_in,
    leaf,
    left_iterate,
    monomials_of_type,
    plenary_power,
    principal_power,
    product,
    type_vector,
    w_number,
)
from evanescent.poly import Polynomial
from evanescent.syntax import format_polynomial, parse, parse_monomial

from conftest import nested_key, random_monomial

W_POW = {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 46, 10: 98}
W_N1 = {0: 1, 1: 1, 2: 2, 3: 4, 4: 9, 5: 20, 6: 46, 7: 106, 8: 248, 9: 582, 10: 1376}
W_N2 = {0: 1, 1: 2, 2: 6, 3: 15, 4: 41, 5: 106, 6: 280, 7: 726, 8: 1891, 9: 4886, 10: 12622}
W_N11 = {0: 1, 1: 3, 2: 9, 3: 25, 4: 69, 5: 186, 6: 497, 7: 1314, 8: 3453, 9: 9019, 10: 23454}


def test_product_of_an_interned_pair_makes_no_comparison(monkeypatch):
    x, y = leaf(X), leaf(Y)
    u, v = product(product(x, y), x), product(y, y)
    w = product(u, v)
    calls = []
    less = magma.Monomial.__lt__

    def counted(a, b):
        calls.append((a, b))
        return less(a, b)

    monkeypatch.setattr(magma.Monomial, "__lt__", counted)
    assert product(u, v) is w and product(v, u) is w and calls == []
    # a new pair is ordered, then stored once, smaller child first
    small, large = leaf(Variable(917)), product(leaf(Variable(918)), leaf(Variable(919)))
    calls.clear()
    m = product(large, small)
    assert calls and (m.left, m.right) == (small, large)
    assert magma._NODES[(small, large)] is m and (large, small) not in magma._NODES
    calls.clear()
    assert product(small, large) is m and product(large, small) is m and calls == []


def test_w_number_tables():
    for n, expected in W_POW.items():
        if n >= 1:
            assert w_number((n,)) == expected
    for n, expected in W_N1.items():
        assert w_number((n, 1)) == expected
    for n, expected in W_N2.items():
        assert w_number((n, 2)) == expected
    for n, expected in W_N11.items():
        assert w_number((n, 1, 1)) == expected


def test_w_number_recurrence_matches_enumeration():
    start = time.perf_counter()
    assert w_number((4, 4, 4)) == 2258025
    assert time.perf_counter() - start < 1.0
    for nvars in range(1, 4):
        for ty in itertools.product(range(7), repeat=nvars):
            if 1 <= sum(ty) <= 6 and ty[-1]:
                assert w_number(ty) == len(monomials_of_type(ty)), ty


def test_variable_validation():
    with pytest.raises(ValueError):
        Variable(-1)
    assert Variable(1).name == "x"
    assert Variable(4).name == "t4"


def test_product_is_commutative_and_interned():
    u = product(leaf(X), leaf(Y))
    v = product(leaf(Y), leaf(X))
    assert u is v
    rng = random.Random(5)
    for _ in range(200):
        a = random_monomial(rng)
        b = random_monomial(rng)
        assert product(a, b) is product(b, a)


def test_powers():
    assert principal_power(X, 1) is leaf(X)
    x = leaf(X)
    assert principal_power(X, 3) is product(product(x, x), x)
    assert plenary_power(X, 1) is x
    assert plenary_power(X, 2) is product(x, x)
    x2 = product(x, x)
    assert plenary_power(X, 3) is product(x2, x2)
    with pytest.raises(ValueError):
        principal_power(X, 0)
    with pytest.raises(ValueError):
        plenary_power(X, 0)


def test_left_iterate():
    y = leaf(Y)
    assert left_iterate(X, 0, y) is y
    assert left_iterate(X, 2, y) is product(leaf(X), product(leaf(X), y))
    with pytest.raises(ValueError):
        left_iterate(X, -1, y)


def test_degree_in_additive():
    rng = random.Random(11)
    for _ in range(200):
        u = random_monomial(rng)
        v = random_monomial(rng)
        w = product(u, v)
        for i in (1, 2, 3):
            assert degree_in(w, i) == degree_in(u, i) + degree_in(v, i)


def test_degree_in_by_construction():
    w = product(product(principal_power(X, 2), leaf(Y)), leaf(X))
    assert degree_in(w, X) == 3
    assert degree_in(w, Y) == 1


def test_unique_decomposition():
    for ty in [(5,), (3, 1), (2, 2), (2, 1, 1)]:
        for w in monomials_of_type(ty):
            if w.degree < 2:
                continue
            u, v = children(w)
            assert product(u, v) is w
            assert u.degree < w.degree and v.degree < w.degree
    with pytest.raises(ValueError):
        children(leaf(X))


def test_enumerate_examples():
    x = leaf(X)
    x2 = product(x, x)
    assert set(monomials_of_type((4,))) == {product(x2, x2), product(product(x2, x), x)}
    assert monomials_of_type((1, 1)) == (product(x, leaf(Y)),)
    assert len(monomials_of_type((5, 1))) == 20


def test_enumerate_matches_w_number_small():
    for ty in [(7,), (6, 1), (4, 2), (4, 1, 1), (3, 3), (2, 2, 2)]:
        assert len(monomials_of_type(ty)) == w_number(ty)


def test_enumeration_is_sorted_and_duplicate_free():
    for ty in [(6,), (4, 1), (3, 2)]:
        ms = monomials_of_type(ty)
        assert len(set(ms)) == len(ms)
        assert list(ms) == sorted(ms, key=nested_key)
        for w in ms:
            assert type_vector(w) == ty


def test_enumeration_is_built_in_canonical_order():
    # every type of degree <= 8 in <= 3 variables, zero entries included
    for ty in itertools.product(range(9), repeat=3):
        if 1 <= sum(ty) <= 8:
            ms = monomials_of_type(ty)
            assert ms == tuple(sorted(set(ms))), ty


def test_reenumerating_interned_monomials_makes_no_comparison(monkeypatch):
    types = [(4, 2), (0, 3, 2), (3, 1, 1)]
    want = [monomials_of_type(ty) for ty in types]
    magma._enumerate.cache_clear()
    calls = []
    less = magma.Monomial.__lt__

    def counted(a, b):
        calls.append((a, b))
        return less(a, b)

    monkeypatch.setattr(magma.Monomial, "__lt__", counted)
    assert [monomials_of_type(ty) for ty in types] == want and calls == []


# random products of leaves, some under a left chain x^{r} deeper than the
# recursion limit; few variables and degrees, so that many pairs tie on
# degree and type vector
_DEEP = sys.getrecursionlimit() + 50


@st.composite
def _monomials(draw, degree=None):
    degree = degree or draw(st.integers(1, 7))
    if degree == 1:
        return leaf(draw(st.sampled_from((1, 1, 2))))
    split = draw(st.integers(1, degree // 2))
    return product(draw(_monomials(degree - split)), draw(_monomials(split)))


_MONOMIALS = st.tuples(_monomials(), st.sampled_from((0, 0, 0, _DEEP))).map(
    lambda mr: left_iterate(X, mr[1], mr[0])
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(_MONOMIALS, min_size=1, max_size=8), st.lists(st.integers(-3, 3), max_size=8))
# x^{r} ((x y) z) and x^{r} ((x z) y) agree down the whole chain
@example([left_iterate(X, _DEEP, parse_monomial(text)) for text in ("(x y) z", "(x z) y")], [1, -1])
def test_order_is_a_strict_total_order_matching_nested_keys(pool, coeffs):
    assert all(product(a, b) is product(b, a) for a in pool for b in pool)
    products = {product(a, b) for a in pool for b in pool}
    assert not any(m.right < m.left for m in products)
    monomials = list(products | set(pool))
    keys = [nested_key(m) for m in monomials]
    for a, ka in zip(monomials, keys):
        for b, kb in zip(monomials, keys):
            assert [a < b, b < a, a is b].count(True) == 1
            assert (a <= b, a > b, a >= b) == (not b < a, b < a, not a < b)
            try:
                want = ka < kb
            except RecursionError:
                continue  # too deep for the oracle, not for the descent
            assert (a < b) == want
    ordered = sorted(monomials)
    assert all(a < b for a, b in itertools.combinations(ordered, 2))
    f = Polynomial.zero()
    for m, c in zip(pool, coeffs):
        f = f + Polynomial.monomial(m, c)
    assert parse(format_polynomial(f)) == f


def test_type_vector():
    w = product(leaf(Variable(5)), leaf(Variable(2)))
    assert type_vector(w) == (0, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        type_vector(leaf(Variable(0)))


def test_normalize_type_errors():
    with pytest.raises(ValueError):
        magma.normalize_type(())
    with pytest.raises(ValueError):
        magma.normalize_type((0, 0))
    with pytest.raises(ValueError):
        magma.normalize_type((-1, 2))
    assert magma.normalize_type((3, 1, 0, 0)) == (3, 1)


def test_fold_answers_each_node_once():
    x, y, z = leaf(X), leaf(Y), leaf(Z)
    shared = product(x, y)
    stop = product(z, product(z, z))
    inner = product(shared, stop)
    m = product(inner, shared)
    combined, asked = [], []

    def combine(u, v):
        combined.append(product(u, v))
        return combined[-1]

    def base(node):
        asked.append(node)
        return node if node is stop else None

    # z is not seeded: base answers stop, so nothing below it is visited
    cache = {x: x, y: y}
    assert magma.fold(m, cache, combine, base) is m
    assert sorted(combined) == sorted([shared, inner, m])
    assert set(asked) == {shared, stop, inner, m}
    assert set(cache) == {x, y, shared, stop, inner, m}
    # a second fold is a cache hit
    assert magma.fold(m, cache, None, None) is m
    with pytest.raises(KeyError):
        magma.fold(product(x, z), {x: x}, product)

