"""Peirce polynomials, linearizations, and evanescence predicates.

The Peirce polynomial of f in a variable v is the univariate image of f
under d(t_j) = [j == v], d(uv) = t*(d(u) + d(v)).  Equivalently it is
the height generating polynomial of the v-labelled leaves of each
monomial's tree; both algorithms are implemented.

A monomial's Peirce polynomial in a variable is kept packed, as its
value at t = 2^b (Kronecker substitution).  ``_PEIRCE_CACHE`` holds one
entry per monomial and (variable set, slot width b), the tuple of its
packed values in those variables, filled by one ``magma.fold``.  On a
polynomial, ``peirce_recursive`` and ``is_evanescent`` put the
coefficients over one denominator (``rationals.as_ints``) and sum n
times each variable's column of packed values in one pass, with b wide
enough that every coefficient of the sum fits its slot.  A sum is zero
exactly when that Peirce polynomial is, and it is decoded with ``Q``
built per nonzero digit.  The coefficient sum is read from the same
ints.  ``_digits`` is the one decoder of packed values, for a sum here
and for a Peirce column in ``homgen``: it reads every slot as a
balanced digit with one ``to_bytes``, in time linear in the slots.

Every identity is checked, and built, by ``placed``, as a member of a
``PeirceClass``: the terms all members share, whose sums ``peirce_class``
takes once, and the member's own term, checked by its own packed entry.
A class is -P(w) in ``trainsgen``, a group of equal free columns of a
nullspace in ``homgen``, and every term but the last in ``make_identity``.
An ``Identity`` holds its class, its member and the member's place among
the shared terms, so the members of a class share one form.  Its own
int form, one positive denominator and its (monomial, int) terms in
ascending canonical order with no common factor, is canonical; it is
built, like the ``Q`` polynomial and the decoded report, only when asked
for, or when a check fails.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from operator import add, lshift, mul
from typing import NamedTuple

from .magma import Monomial, T_FRESH, Variable, degree_in, fold, leaf, leaves, product
from .poly import Polynomial
from .rationals import Q, ZERO, as_ints, as_q, format_sum


class PeircePolynomial:
    """Univariate exact-rational polynomial in the formal variable t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [as_q(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def valuation(self) -> int:
        """Least power with nonzero coefficient, -1 for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    def __eq__(self, other):
        return isinstance(other, PeircePolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PeircePolynomial(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PeircePolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, PeircePolynomial):
            if self.is_zero or other.is_zero:
                return PeircePolynomial()
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return PeircePolynomial(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = as_q(c)
        if not c:
            return PeircePolynomial()
        return PeircePolynomial([c * v for v in self.coeffs])

    def shift(self, k: int = 1):
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return PeircePolynomial((0,) * k + tuple(self.coeffs))

    def __call__(self, value):
        value = as_q(value)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def to_string(self, sym: str = "t") -> str:
        den, nums = as_ints(self.coeffs)
        powers = ["", sym, *(f"{sym}^{k}" for k in range(2, len(nums)))]
        terms = [(k, nums[k]) for k in range(len(nums) - 1, -1, -1) if nums[k]]
        return format_sum(den, terms, powers, sep="")

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"<{self.to_string()}>"


# (variable indices, slot width b) -> {monomial: its Peirce polynomials in
# those variables, each as an int, its value at t = 2^b}, one fold for all
_PEIRCE_CACHE: dict[tuple[tuple[int, ...], int], dict[Monomial, tuple[int, ...]]] = {}


def peirce_recursive(f, v) -> PeircePolynomial:
    """Peirce polynomial by the defining recursion d(uv) = t(d(u)+d(v))."""
    idx = v.index if isinstance(v, Variable) else v
    if isinstance(f, Monomial):
        f = Polynomial.monomial(f)
    den, nums = as_ints(f.terms.values())
    bits = _slot_bits(nums, f.degree())
    return _decode(_sums(f.terms, nums, (idx,), bits)[0], den, bits)


def _packed(m: Monomial, variables: tuple, bits: int) -> tuple:
    """m's Peirce polynomials in the variables at t = 2^bits, all of them
    filled by one fold."""
    cache = _PEIRCE_CACHE.setdefault((variables, bits), {})
    got = cache.get(m)
    if got is not None:
        return got
    for x in leaves(m):
        if x not in cache:
            cache[x] = tuple(int(x.var.index == i) for i in variables)
    shifts = (bits,) * len(variables)
    return fold(m, cache, lambda a, b: tuple(map(lshift, map(add, a, b), shifts)))


def _slot_bits(nums, degree: int) -> int:
    """The least multiple of 64, b, with 2 sum|n| degree < 2^b: every Peirce
    coefficient of sum(n m), each m of at most that degree, is at most
    sum|n| degree in absolute value, so its packed sum has balanced digits."""
    bound = 2 * sum(map(abs, nums)) * degree
    return 64 * max(1, -(-bound.bit_length() // 64))


def _sums(monomials, nums, variables: tuple, bits: int) -> list[int]:
    """For each of the variables, the packed Peirce polynomial of sum(n m)
    over the monomials m and ints n, with bits from ``_slot_bits``: the
    entries are transposed and each variable's column summed in one pass."""
    cache = _PEIRCE_CACHE.setdefault((variables, bits), {})
    columns = zip(*[cache.get(m) or _packed(m, variables, bits) for m in monomials])
    return [sum(map(mul, nums, column)) for column in columns] or [0] * len(variables)


def _decode(s: int, den: int, bits: int) -> PeircePolynomial:
    """The Peirce polynomial whose value at t = 2^bits is s / den, with
    ``Q`` built per nonzero digit of s.  Its balanced digits fill at most
    (s.bit_length() + 1) // bits + 1 slots: the top one may need one slot
    more than the bit length."""
    digits = _digits(s, bits, (s.bit_length() + 1) // bits + 1)
    return PeircePolynomial(Q(a, den) if a else ZERO for a in digits)


def _digits(s: int, bits: int, n: int) -> list[int]:
    """The n balanced base-2^bits digits of s, least significant first:
    the coefficients of the int polynomial of degree below n whose value
    at 2^bits is s, when each is below 2^(bits-1) in absolute value.
    With 2^(bits-1) added to every slot, each slot holds its digit plus
    2^(bits-1), an unsigned word; flipping the top bit of each makes it
    the digit as a signed word, so one ``to_bytes`` reads them all, in
    time linear in n."""
    size = bits // 8
    half = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")  # 2^(bits-1) in each slot
    raw = ((s + half) ^ half).to_bytes(size * n, "little")
    if size == 8 and sys.byteorder == "little":
        return memoryview(raw).cast("q").tolist()
    return [int.from_bytes(raw[i : i + size], "little", signed=True) for i in range(0, size * n, size)]


def peirce_tree(w, v) -> PeircePolynomial:
    """Peirce polynomial as sum of t^height over matching leaves."""
    idx = v.index if isinstance(v, Variable) else v
    if not isinstance(w, Monomial):
        acc = PeircePolynomial()
        for m, c in w.terms.items():
            acc = acc + peirce_tree(m, idx).scale(c)
        return acc
    return PeircePolynomial(height_counts(w, idx))


def height_counts(w: Monomial, idx: int) -> list[int]:
    """Number of t_idx leaves at each height: the Peirce coefficients as ints,
    by a top-down walk of its own.  Its one caller is ``peirce_tree``, the
    independent check of ``peirce_recursive`` and the packed cache."""
    counts: list[int] = []
    stack = [(w, 0)]
    while stack:
        node, h = stack.pop()
        if node.is_leaf:
            if node.var.index == idx:
                if h >= len(counts):
                    counts.extend([0] * (h + 1 - len(counts)))
                counts[h] += 1
        else:
            stack.append((node.left, h + 1))
            stack.append((node.right, h + 1))
    return counts


@dataclass(frozen=True, eq=False)
class EvanescenceReport:
    peirce: dict
    at_ones: object
    is_peirce_evanescent: bool
    is_evanescent_identity: bool


def is_evanescent(f: Polynomial) -> EvanescenceReport:
    """Full evanescence report for a polynomial.

    Peirce-evanescent means f != 0 with every Peirce polynomial zero;
    an evanescent identity additionally has coefficient sum zero.
    """
    den, nums = as_ints(f.terms.values())
    return _report(f.terms, nums, den)


def _report(monomials, nums, den) -> EvanescenceReport:
    """The report of sum(n m) / den, over distinct monomials m and ints n."""
    variables = tuple(sorted({i for m in monomials for i, _ in m.counts}))
    bits = _slot_bits(nums, max((m.degree for m in monomials), default=0))
    sums = _sums(monomials, nums, variables, bits)
    ppolys = {leaf(i).var: _decode(s, den, bits) for i, s in zip(variables, sums)}
    total = Q(sum(nums), den)
    pe = bool(monomials) and not any(sums)
    return EvanescenceReport(
        peirce=ppolys,
        at_ones=total,
        is_peirce_evanescent=pe,
        is_evanescent_identity=pe and total == 0,
    )


def delta(f, v, h: Polynomial) -> Polynomial:
    """Derivation-style operator: sends v to h and obeys the product rule."""
    if isinstance(f, Monomial):
        f = Polynomial.monomial(f)
    idx = v.index if isinstance(v, Variable) else v
    # each node's value is the pair (the node, its image)
    cache = {}
    for m in f.terms:
        for x in leaves(m):
            cache[x] = (x, h if x.var.index == idx else Polynomial.zero())
    total = Polynomial.zero()
    for m, c in f.terms.items():
        total = total + fold(m, cache, _product_rule)[1].scale(c)
    return total


def _product_rule(left, right):
    """(uv, delta(u) v + u delta(v)) from (u, delta(u)) and (v, delta(v))."""
    (u, du), (v, dv) = left, right
    return product(u, v), du * Polynomial.monomial(v) + Polynomial.monomial(u) * dv


def linearize(f: Polynomial, v) -> list[Polynomial]:
    """Components of f(..., v + t, ...) grouped by degree in the fresh t.

    Returns the list [L_0, ..., L_d] with d the degree of f in v; the
    fresh variable is the reserved index-0 symbol.
    """
    v = v if isinstance(v, Variable) else Variable(v)
    d = f.degree_in(v)
    bindings = {w: Polynomial.variable(w) for w in f.variables()}
    bindings[v] = Polynomial.variable(v) + Polynomial.variable(T_FRESH)
    expanded = f.substitute(bindings)
    comps = [dict() for _ in range(d + 1)]
    for m, c in expanded.terms.items():
        comps[degree_in(m, T_FRESH)][m] = c
    return [Polynomial._raw(t) for t in comps]


class EvanescenceError(ValueError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, eq=False)
class Identity:
    """A verified evanescent identity sum(n m) / den: the member ``member``
    of the Peirce class ``cls``, its own term (member, cls.coef) placed
    at index ``at`` of its terms, between the class's shared terms.  Its
    int form is ``den`` > 0 and ``terms``, its (m, n) pairs with n a
    nonzero int, in ascending canonical monomial order, with gcd(den, n,
    ...) = 1; ``terms`` is built when first asked for, and the form is
    canonical, so equality and hashing read it.  The ``Q`` polynomial and
    the report are built when first asked for too."""

    cls: PeirceClass
    member: Monomial
    at: int
    type: tuple | None
    train: bool

    @property
    def den(self) -> int:
        return self.cls.den

    @functools.cached_property
    def terms(self) -> tuple:
        form, at = self.cls.form, self.at
        return (*form[:at], (self.member, self.cls.coef), *form[at:])

    @functools.cached_property
    def polynomial(self) -> Polynomial:
        den = self.den
        return Polynomial._raw({m: Q(n, den) for m, n in self.terms})

    def __eq__(self, other):
        return isinstance(other, Identity) and (self.den, self.terms) == (other.den, other.terms)

    def __hash__(self):
        return hash((self.den, self.terms))


def make_identity(f: Polynomial, *, train: bool = False, ty=None) -> Identity:
    """Wrap a polynomial as an Identity, verifying evanescence: a class of
    one, whose member is the last term, in the letters of every term."""
    den, terms = f.int_form()
    if not terms:
        raise _not_evanescent(den, terms)
    *form, (m, n) = terms
    variables = tuple(v.index for v in f.variables())
    cls = peirce_class(den, form, n, m, variables)
    return placed(m, cls, len(form), None if ty is None else tuple(ty), train)


class PeirceClass(NamedTuple):
    """The terms that the identities of one class share, over ``den``,
    and what each member's own term (m, coef) must satisfy."""

    den: int
    form: tuple  # the shared terms (m, n), in canonical order
    coef: int  # the member's coefficient
    variables: tuple  # the indices of the letters of every term
    bits: int  # the slot width of the check
    target: tuple | None  # a member's packed entry at 2^bits; None if no m has it


def peirce_class(den: int, form, coef: int, member: Monomial, variables: tuple) -> PeirceClass:
    """The class of the shared terms ``form`` and the member coefficient,
    for members of ``member``'s degree, the top degree of any term (of
    the span in ``trainsgen``, of the type in ``homgen``, of the last term
    in canonical order in ``make_identity``), which fixes the slot width.
    An identity of the class is evanescent when its coefficient sum is 0 and
    its packed Peirce sums, the form's plus coef times the member's entry,
    are 0: when the member's entry is the form's sums over -coef, the
    target.  Both sums are taken here, once per class."""
    monomials = [m for m, _ in form]
    nums = [n for _, n in form]
    bits = _slot_bits([*nums, coef], member.degree)
    sums = _sums(monomials, nums, variables, bits)
    fails = coef + sum(nums) or any(s % coef for s in sums)
    target = None if fails else tuple(-s // coef for s in sums)
    return PeirceClass(den, tuple(form), coef, variables, bits, target)


def placed(m: Monomial, cls: PeirceClass, at: int, ty, train: bool) -> Identity:
    """The verified Identity of the member m of a class, its term placed
    after the form's terms below ``at`` and each later one below m.  It
    is checked by m's own packed entry against the target; a member that
    fails raises EvanescenceError with the full report of its own form."""
    den, form, coef, variables, bits, target = cls
    while at < len(form) and form[at][0] < m:
        at += 1
    if _packed(m, variables, bits) != target:
        raise _not_evanescent(den, (*form[:at], (m, coef), *form[at:]))
    return Identity(cls, m, at, ty, train)


def _not_evanescent(den: int, terms) -> EvanescenceError:
    """The error for the int form sum(n m) / den, carrying its full report."""
    report = _report([m for m, _ in terms], [n for _, n in terms], den)
    return EvanescenceError("polynomial is not an evanescent identity", report)
