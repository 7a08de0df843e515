"""Free commutative magma on the generators t1, t2, ...

Monomials are rooted binary trees with variable-labelled leaves, kept
in a canonical form and interned, so two equal monomials are the same
object.  Each node holds its type once, as sparse counts (index,
multiplicity); ``type_vector`` builds the dense vector only when asked.
The canonical total order compares degree, then the positional type
vector, then the left children, then the right ones; node children are
stored smaller-first.  It is defined once, by ``Monomial.__lt__``, as
one descent: a leaf is the only monomial of its degree and type, so two
different monomials that tie there are both nodes, and the first pair
of children that differ decides.  ``monomials_of_type`` builds a type's
monomials already in that order, with no sort: a node's children are
its (smaller, larger) pair, so its place follows from the split of the
type between them and from their places in their own types; the only
comparison is the one ``product`` makes for a new node.  Interning makes
a per-node cache sound: :func:`fold` is the one bottom-up walk, behind
Peirce counts, substitution, ``delta``, relabelling, rewriting and
evaluation.  Neither the order nor the fold recurses on deep trees.
"""

from __future__ import annotations

import functools
import itertools


@functools.total_ordering
class Variable:
    """Generator symbol.  Index 0 is reserved for linearization.  A value:
    immutable, and equal, ordered and hashed as the tuple ``(index,)``,
    against another Variable only."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("variable index must be >= 0")
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Variable, (self.index,)

    def __eq__(self, other):
        return self.index == other.index if other.__class__ is Variable else NotImplemented

    def __lt__(self, other):
        return self.index < other.index if other.__class__ is Variable else NotImplemented

    def __hash__(self):
        return hash((self.index,))

    @property
    def name(self) -> str:
        return var_name(self.index)

    def __repr__(self):
        return f"Variable({self.index})"


_ALIASES = {0: "t", 1: "x", 2: "y", 3: "z"}


def var_name(index: int) -> str:
    return _ALIASES.get(index) or f"t{index}"


X = Variable(1)
Y = Variable(2)
Z = Variable(3)
T_FRESH = Variable(0)


class Monomial:
    """Canonical commutative nonassociative word.

    Construct through :func:`leaf` and :func:`product` only; instances
    are interned, so ``==`` coincides with identity and hashing is by
    identity.  ``u < v`` walks one path down both trees, with no stack:
    while u is not v, a differing (degree, type) decides, and otherwise
    both are nodes and the walk steps into their left children if those
    differ, into their right children if not.  The type is held once, as
    ``counts``, the sorted tuple of (index, multiplicity) pairs; positional
    type vectors compare as the lists ``[(-i, m) for i, m in counts]`` do:
    at the first differing pair, a smaller multiplicity makes a monomial
    smaller, and a variable that the other monomial lacks makes it larger.
    """

    __slots__ = ("var", "left", "right", "degree", "counts")

    def __init__(self, var, left, right, degree, counts):
        self.var = var
        self.left = left
        self.right = right
        self.degree = degree
        self.counts = counts

    def __lt__(self, other):
        u, v = self, other
        while u is not v:
            if u.degree != v.degree:
                return u.degree < v.degree
            if u.counts != v.counts:
                # with equal degrees, neither counts is a prefix of the other
                for (i, m), (j, n) in zip(u.counts, v.counts):
                    if i != j:
                        return i > j
                    if m != n:
                        return m < n
            if u.left is not v.left:
                u, v = u.left, v.left
            else:
                u, v = u.right, v.right
        return False

    def __le__(self, other):
        return self is other or self < other

    def __gt__(self, other):
        return other < self

    def __ge__(self, other):
        return self is other or other < self

    @property
    def is_leaf(self) -> bool:
        return self.var is not None

    def __repr__(self):
        from .syntax import format_monomial

        return f"<{format_monomial(self)}>"


_LEAVES: dict[int, Monomial] = {}
_NODES: dict[tuple[Monomial, Monomial], Monomial] = {}


def leaf(v) -> Monomial:
    """The degree-1 monomial for a variable (or a bare index)."""
    index = v if isinstance(v, int) else v.index
    m = _LEAVES.get(index)
    if m is None:
        m = Monomial(Variable(index), None, None, 1, ((index, 1),))
        _LEAVES[index] = m
    return m


def product(u: Monomial, v: Monomial) -> Monomial:
    """Commutative magma product, in canonical (smaller child first) form.

    An interned product is found by looking the pair up in both orders,
    with no comparison; only a new pair is ordered, smaller child first,
    and stored once, under that order.
    """
    m = _NODES.get((u, v)) or _NODES.get((v, u))
    if m is None:
        if v < u:
            u, v = v, u
        counts = dict(u.counts)
        for i, c in v.counts:
            counts[i] = counts.get(i, 0) + c
        m = Monomial(None, u, v, u.degree + v.degree, tuple(sorted(counts.items())))
        _NODES[(u, v)] = m
    return m


def children(w: Monomial) -> tuple[Monomial, Monomial]:
    """The unique decomposition of a monomial of degree >= 2."""
    if w.is_leaf:
        raise ValueError("a leaf has no decomposition")
    return (w.left, w.right)


def degree_in(w: Monomial, v) -> int:
    idx = v.index if isinstance(v, Variable) else v
    for i, c in w.counts:
        if i == idx:
            return c
    return 0


def leaves(w: Monomial) -> list[Monomial]:
    """The distinct leaves of w, by variable index."""
    return [_LEAVES[i] for i, _ in w.counts]


def fold(m: Monomial, cache: dict, combine, base=None):
    """The value of m, computed bottom-up with an explicit stack and kept
    per node in ``cache``, which holds the values of m's leaves on entry.
    A node not in ``cache`` is answered by ``base(node)`` when that is not
    None, and its children are not visited; otherwise its value is
    ``combine(value of left, value of right)``, computed once."""
    stack = [m]
    while stack:
        node = stack.pop()
        if node in cache:
            continue
        if base is not None:
            value = base(node)
            if value is not None:
                cache[node] = value
                continue
        left, right = cache.get(node.left), cache.get(node.right)
        if left is not None and right is not None:
            cache[node] = combine(left, right)
        elif node.var is not None:
            raise KeyError(node)
        else:
            stack += (node, node.right, node.left)
    return cache[m]


def type_vector(w: Monomial) -> tuple[int, ...]:
    """Multidegrees (|w|_1, ..., |w|_n), trailing zeros trimmed, built from the counts."""
    counts = w.counts
    if counts[0][0] == 0:
        raise ValueError("type vector undefined for the reserved variable")
    vec = [0] * counts[-1][0]
    for i, c in counts:
        vec[i - 1] = c
    return tuple(vec)


def principal_power(v, k: int) -> Monomial:
    """Left-normed power: x^1 = x, x^(k+1) = x^k * x."""
    if k < 1:
        raise ValueError("principal power needs k >= 1")
    m = leaf(v)
    base = m
    for _ in range(k - 1):
        m = product(m, base)
    return m


def plenary_power(v, k: int) -> Monomial:
    """Repeated squaring: x^[1] = x, x^[k+1] = x^[k] * x^[k]."""
    if k < 1:
        raise ValueError("plenary power needs k >= 1")
    m = leaf(v)
    for _ in range(k - 1):
        m = product(m, m)
    return m


def left_iterate(v, r: int, f: Monomial) -> Monomial:
    """r-fold left multiplication: x^{0} f = f, x^{r} f = x (x^{r-1} f)."""
    if r < 0:
        raise ValueError("left iteration needs r >= 0")
    base = leaf(v)
    for _ in range(r):
        f = product(base, f)
    return f


def normalize_type(ty) -> tuple[int, ...]:
    ty = tuple(int(c) for c in ty)
    if any(c < 0 for c in ty):
        raise ValueError("type entries must be nonnegative")
    while ty and ty[-1] == 0:
        ty = ty[:-1]
    if not ty:
        raise ValueError("type must have positive total degree")
    return ty


def letters(ty) -> tuple[int, ...]:
    """The indices of the letters of a type: those with a nonzero count."""
    return tuple(i + 1 for i, count in enumerate(ty) if count)


def _splits(ty: tuple[int, ...]):
    """Each unordered split {a, b} of a type vector into two nonzero
    parts, once, as (a, b) with a the smaller part: of lower degree, or
    of the same degree and the smaller vector."""
    for a in itertools.product(*(range(c + 1) for c in ty)):
        b = tuple(c - d for c, d in zip(ty, a))
        if any(a) and (sum(a), a) <= (sum(b), b):
            yield a, b


@functools.cache
def _enumerate(ty: tuple[int, ...]) -> tuple[Monomial, ...]:
    """The monomials of a type, built already in canonical order: by the
    split of their children's types, the splits ordered by the degree and
    vector of the smaller part, then by the smaller child u, then by the
    other one v, with v >= u when both parts have the same type."""
    if sum(ty) == 1:
        return (leaf(Variable(ty.index(1) + 1)),)
    out = []
    for a, b in sorted(_splits(ty), key=lambda split: (sum(split[0]), split[0])):
        us = _enumerate(normalize_type(a))
        if a == b:
            out += [product(u, v) for i, u in enumerate(us) for v in us[i:]]
        else:
            vs = _enumerate(normalize_type(b))
            out += [product(u, v) for u in us for v in vs]
    return tuple(out)


def monomials_of_type(ty) -> tuple[Monomial, ...]:
    """All canonical monomials of exactly this type, canonically ordered."""
    return _enumerate(normalize_type(ty))


@functools.cache
def _w(ty: tuple[int, ...]) -> int:
    """w_number of a type given as its sorted nonzero entries."""
    if sum(ty) == 1:
        return 1
    total = 0
    for a, b in _splits(ty):
        wa = _w(tuple(sorted(c for c in a if c)))
        if a == b:
            total += wa * (wa + 1) // 2
        else:
            total += wa * _w(tuple(sorted(c for c in b if c)))
    return total


def w_number(ty) -> int:
    """Number of monomials of the given type.

    A monomial of degree >= 2 is an unordered product of two monomials
    whose types split the type, so w(ty) sums w(a) w(b) over the
    unordered splits {a, b}, with w(a) (w(a) + 1) / 2 when a = b.
    """
    return _w(tuple(sorted(c for c in normalize_type(ty) if c)))
