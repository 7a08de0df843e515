"""Exact polynomials over the free commutative nonassociative algebra.

A polynomial is a finite rational combination of canonical monomials;
multiplication is the bilinear extension of the magma product (it is
commutative but not associative).
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .magma import Monomial, Variable, degree_in, fold, leaf, product, type_vector
from .rationals import ZERO, as_ints, as_q


class UnboundVariableError(KeyError):
    def __init__(self, variable):
        super().__init__(variable)
        self.variable = variable

    def __str__(self):
        return f"unbound variable {self.variable.name}"


class Polynomial:
    """Immutable map monomial -> nonzero rational coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for m, c in terms.items():
                c = as_q(c)
                if c:
                    cleaned[m] = c
        self.terms = cleaned

    @classmethod
    def _raw(cls, terms: dict) -> "Polynomial":
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def monomial(cls, m: Monomial, coeff=1) -> "Polynomial":
        c = as_q(coeff)
        return cls._raw({m: c} if c else {})

    @classmethod
    def variable(cls, v) -> "Polynomial":
        return cls.monomial(leaf(v))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial._raw(out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial._raw({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict[Monomial, object] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = product(m1, m2)
                    s = out.get(m, ZERO) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
            return Polynomial._raw(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = as_q(c)
        if not c:
            return Polynomial.zero()
        return Polynomial._raw({m: c * v for m, v in self.terms.items()})

    def int_form(self) -> tuple:
        """(den, terms): the polynomial as sum(n m) / den over the lcm den
        of its denominators, its terms (m, n) sorted in ascending canonical
        order.  The one place where a polynomial's terms are sorted."""
        den, nums = as_ints(self.terms.values())
        return den, sorted(zip(self.terms, nums), key=itemgetter(0))

    def at_ones(self):
        """Coefficient sum, i.e. the value at (1, 1, ...)."""
        return sum(self.terms.values(), ZERO)

    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def degree_in(self, v) -> int:
        return max((degree_in(m, v) for m in self.terms), default=0)

    def variables(self) -> tuple[Variable, ...]:
        return tuple(Variable(i) for i in sorted({i for m in self.terms for i, _ in m.counts}))

    def homogeneous_type(self):
        """The common type vector, or None if mixed or zero."""
        types = {type_vector(m) for m in self.terms}
        if len(types) == 1:
            return types.pop()
        return None

    def substitute(self, bindings: dict) -> "Polynomial":
        """Homomorphic image replacing every variable by a polynomial; the
        first unbound variable of ``variables()`` raises UnboundVariableError."""
        cache = {}
        for v in self.variables():
            if v not in bindings:
                raise UnboundVariableError(v)
            cache[leaf(v)] = bindings[v]
        total = Polynomial.zero()
        for m, c in self.terms.items():
            total = total + fold(m, cache, Polynomial.__mul__).scale(c)
        return total

    def __repr__(self):
        from .syntax import format_polynomial

        return f"<{format_polynomial(self)}>"


def permutation_sign(perm) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def standard_baric_identity(d: int) -> Polynomial:
    """Alternating-sum identity satisfied by baric algebras of dimension <= d.

    With f_i = t_i^2 - t_i, it is the sum over permutations s of
    sign(s) f_{s(1)}(f_{s(2)}(...(f_{s(d)} t_{d+1}))): the factors act as
    multiplication operators on t_{d+1}, innermost last.  At weight-1
    values every f_i lies in ker(omega), and the sum is alternating and
    multilinear in them, so it vanishes once dim ker(omega) < d, i.e. in
    every algebra of dimension <= d.  For d >= 2 it is an evanescent
    identity (each f_i has coefficient sum 0, so every Peirce polynomial
    vanishes); for d = 1 it is (x^2 - x) y, which is not.
    """
    if not 1 <= d <= 5:
        raise ValueError("d must be between 1 and 5")
    sink = Polynomial.variable(Variable(d + 1))
    factors = {}
    for i in range(1, d + 1):
        ti = Polynomial.variable(Variable(i))
        factors[i] = ti * ti - ti
    total = Polynomial.zero()
    for perm in itertools.permutations(range(1, d + 1)):
        chain = sink
        for i in reversed(perm):
            chain = factors[i] * chain
        total = total + chain.scale(permutation_sign(perm))
    return total
