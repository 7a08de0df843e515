import random

import pytest

from evanescent import baric
from evanescent.magma import Variable, X, Y, Z, leaf, principal_power, product
from evanescent.peirce import is_evanescent
from evanescent.poly import Polynomial, UnboundVariableError, standard_baric_identity
from evanescent.rationals import Q
from evanescent.syntax import parse

from conftest import random_baric_algebra, random_polynomial


def test_add_cancels():
    x2 = Polynomial.monomial(product(leaf(X), leaf(X)))
    assert x2 + (-x2) == Polynomial.zero()
    assert not (x2 - x2)


def test_add_collects():
    f = parse("x^2 x^2 - 2 x^3")
    g = parse("x^2")
    assert f + g == parse("x^2 x^2 - 2 x^3 + x^2")


def test_ring_axioms_random(rng):
    for _ in range(60):
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        h = random_polynomial(rng)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


def test_multiply_examples():
    assert parse("x") * parse("y") == parse("x y")
    # squaring the weight-1 substitution target x -> (x^2 + x)/2 that
    # criterion 9 applies to the backcrossing identity
    f = parse("x^2 + x")
    sq = (f * f).scale(Q(1, 4))
    assert sq == parse("1/4 (x^2 x^2) + 1/2 (x^2 x) + 1/4 x^2")


def test_multiply_not_associative():
    x, y, z = parse("x"), parse("y"), parse("z")
    assert (x * y) * z != x * (y * z)
    # but principal powers agree regardless of factor order
    assert parse("x^2") * x == x * parse("x^2")
    assert parse("x^2") * x == Polynomial.monomial(principal_power(X, 3))


def test_at_ones():
    assert parse("x^2 x^2 - 2 x^3 + x^2").at_ones() == 0
    assert parse("x").at_ones() == 1
    assert parse("x^2 - 2 x").at_ones() == -1


def test_at_ones_is_a_character(rng):
    for _ in range(60):
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        assert (f * g).at_ones() == f.at_ones() * g.at_ones()
        assert (f + g).at_ones() == f.at_ones() + g.at_ones()


def test_substitute_simple():
    assert parse("x^2").substitute({X: parse("y")}) == parse("y^2")
    f = parse("x^2 y")
    got = f.substitute({X: parse("x"), Y: parse("x + z")})
    assert got == parse("x^2 x + x^2 z")


def test_substitute_identity(rng):
    for _ in range(40):
        f = random_polynomial(rng)
        bindings = {v: Polynomial.variable(v) for v in f.variables()}
        assert f.substitute(bindings) == f


def test_substitute_unbound():
    with pytest.raises(UnboundVariableError) as err:
        parse("x y").substitute({X: parse("x")})
    assert "y" in str(err.value)


def test_standard_baric_identity_d1():
    assert standard_baric_identity(1) == parse("(x^2 - x) y")


def test_standard_baric_identity_d2():
    f = standard_baric_identity(2)
    assert f.at_ones() == 0
    assert len(f.terms) > 1
    assert is_evanescent(f).is_evanescent_identity
    with pytest.raises(ValueError):
        standard_baric_identity(0)
    with pytest.raises(ValueError):
        standard_baric_identity(6)


def test_standard_identity_holds_on_random_baric_algebras():
    # the d = 2 identity holds in dimension 2 and must fail in dimension 3;
    # the refutation rules out the zero polynomial and an off-by-one dimension
    rng = random.Random(99)
    f = standard_baric_identity(2)
    for trial in range(5):
        algebra = random_baric_algebra(rng, 2)
        result = baric.verify_identity(f, algebra, trials=12, seed=trial)
        assert result.passed
    algebra = random_baric_algebra(rng, 3)
    assert not baric.verify_identity(f, algebra, trials=12, seed=0).passed


def test_degrees():
    f = parse("x^2 y - x")
    assert f.degree() == 3
    assert f.degree_in(X) == 2
    assert f.degree_in(Y) == 1
    assert f.degree_in(Z) == 0
    assert f.variables() == (X, Y)


def test_homogeneous_type():
    assert parse("x^2 y^2 - (x y)(x y)").homogeneous_type() == (2, 2)
    assert parse("x^2 - x").homogeneous_type() is None
