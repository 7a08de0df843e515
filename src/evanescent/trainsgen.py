"""Train evanescent identities w - P(w) for the four supported shapes.

P(w) is the unique element of the span of the shape's basis family
whose Peirce polynomials match those of w and whose coefficient sum is
1.  It is found by an exact linear solve: the system depends only on the
type, so it is factored once, on the type's ``TypeRecord``, and reused
for every monomial.  Two routes use it:

* ``solve_Pw``: the solve for w itself, in w's own letters.

* ``reduce``: bottom-up normalization; the two children are normalized
  and each product m1 m2 of two basis monomials is rewritten by the
  rule m1 m2 -> P(m1 m2), which is the solve for that product in its
  own letters, done once and cached.  P is unique, so any letters give
  it.  Only the fold runs in canonical letters, where every
  sub-monomial's roles agree with w's (see ``_prepare``).

On a product of two basis monomials the routes coincide; on deeper
monomials ``reduce`` vs ``solve_Pw`` checks the rewriting.

The rewriting runs in Python ints.  Each cached rule (``_RULES``) and
each cached normal form (``_REDUCE_CACHE``) is a form (den, ((m, n),
...)), the polynomial sum(n m) / den over one positive denominator.
Rewriting a product walks the pairs of its children's terms once and
adds each rule's terms as the rule is fetched, over a running lcm of the
rules' denominators: a rule whose denominator does not divide it scales
the lcm, and what is summed so far, by the missing factor.  The sum is
over the product of the two children's denominators and that lcm, and
the gcd is divided out once at the end.  The per-type solve sums in
ints too, and ``solve_unique`` returns its solution as such a form;
``Q`` appears only in ``reduce`` and ``solve_Pw``, which turn a form
into a ``Polynomial``.
``train_identity`` builds no ``Q``: it builds w - P(w) as an int form in
canonical order, P(w)'s terms ordered by their rank in the span basis
put in the type's own letters.  Everything known of a type (shape,
letters, span order, basis, span system) is one ``TypeRecord``.

P(w) depends only on w's Peirce polynomials, so ``iter_train_basis``
works once per Peirce class of its type (``homgen.peirce_classes``: the
monomials with one packed Peirce entry): it reduces and ranks the first
non-basis member, and takes -P(w)'s coefficient sum and packed Peirce
sums, a ``peirce.PeirceClass`` whose shared terms are -P(w) and whose
member coefficient is den.  Each member's w is placed into that form and
checked on its own by ``peirce.placed``, by its own packed Peirce entry
against the class's sums, and yielded, in canonical order, as soon as it
is checked; ``generate_train_basis`` is its list, and ``cmd_train``
prints from it as it goes.  ``train_identity`` is a class of one.  The
classes live for one call: ``_REDUCE_CACHE`` holds only forms the
rewriting computed, so ``reduce`` vs ``solve_Pw`` stays an independent
check.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

from .homgen import FactoredSystem, factor, peirce_classes, peirce_column, solve_unique
from .magma import (
    Monomial,
    Variable,
    X,
    Y,
    Z,
    fold,
    leaf,
    leaves,
    left_iterate,
    letters,
    normalize_type,
    principal_power,
    product,
    type_vector,
)
from .peirce import Identity, peirce_class, placed
from .poly import Polynomial
from .rationals import Q

class ShapeError(ValueError):
    pass


class BasisMonomialError(ValueError):
    pass


# the shape of a type by its counts after the largest, each list largest
# first; ``cli`` reads its train --type families from this table
SHAPES = {(): "n", (1,): "n1", (2,): "n2", (1, 1): "n11"}


def classify_type(ty):
    """(shape tag, role map original->canonical variable) or (None, None)."""
    ty = normalize_type(ty)
    active = [(Variable(i + 1), c) for i, c in enumerate(ty) if c]
    active.sort(key=lambda vc: (-vc[1], vc[0].index))
    tag = SHAPES.get(tuple(c for _, c in active[1:]))
    if tag is None:
        return None, None
    return tag, {v: t for (v, _), t in zip(active, (X, Y, Z))}


def relabel_monomial(m: Monomial, mapping: dict) -> Monomial:
    if not mapping or all(k == v for k, v in mapping.items()):
        return m
    cache = {x: leaf(mapping.get(x.var, x.var)) for x in leaves(m)}
    return fold(m, cache, product)


@dataclass(frozen=True, eq=False)
class TypeRecord:
    """What the rewriting knows of one type, found once per type."""

    tag: str  # the shape
    moved: dict  # each letter that is not its canonical letter -> that letter
    inverse: dict  # and back; both are empty for a type in canonical letters
    # each span monomial of the canonical type (the type's nonzero counts,
    # largest first) -> (its rank in canonical order in the type's own
    # letters, that monomial in those letters), in span order
    order: dict
    basis: frozenset  # the span monomials in own letters that have this type
    type: tuple  # the type itself
    variables: tuple  # the indices of the type's letters

    @functools.cached_property
    def system(self) -> FactoredSystem:
        """The span's Peirce system in the type's letters, factored at the
        first solve, not when ``admit`` builds the record: column k is the
        Peirce column of span monomial k."""
        return factor(list(zip(*(peirce_column(m, self.type) for _, m in self.order.values()))))


def _shape(ty):
    """``classify_type`` of a supported shape; an unsupported one raises ShapeError."""
    tag, roles = classify_type(ty)
    if tag is None:
        raise ShapeError(f"type {ty} is not one of the supported shapes")
    return tag, roles


@functools.cache
def _record(ty) -> TypeRecord:
    """The record of a type; an unsupported shape raises ShapeError."""
    tag, roles = _shape(ty)
    moved = {v: t for v, t in roles.items() if v != t}
    inverse = {t: v for v, t in moved.items()}
    span = _family(tag, max(ty))
    own = [relabel_monomial(b, inverse) for b in span]
    rank = {m: r for r, m in enumerate(sorted(own))}
    order = {b: (rank[m], m) for b, m in zip(span, own)}
    basis = frozenset(m for m in own if type_vector(m) == ty)
    return TypeRecord(tag, moved, inverse, order, basis, ty, letters(ty))


# ---------------------------------------------------------------------------
# basis families


def is_basis_monomial(w: Monomial) -> bool:
    """Whether w is a basis monomial of its type, in any letters."""
    return w in _record(type_vector(w)).basis


def _family(tag: str, n: int) -> list[Monomial]:
    """The span basis, in canonical letters, of the canonical type of a
    shape whose largest count is n.

    The families by shape: n: x^k; n1: x^k y, x^{r} y; n2: (x^{r} y) y,
    x^{s} y^2; n11: x^{r}((x y) z), x^{r}((x z) y), x^{r}(y z).
    """
    x, y, z = leaf(X), leaf(Y), leaf(Z)
    if tag == "n":
        return [principal_power(X, k) for k in range(1, n + 1)]
    if tag == "n1":
        span = [product(principal_power(X, k), y) for k in range(2, n + 1)]
        return span + [left_iterate(X, r, y) for r in range(1, n + 1)]
    if tag == "n2":
        span = [product(left_iterate(X, r, y), y) for r in range(1, n + 1)]
        return span + [left_iterate(X, s, product(y, y)) for s in range(n + 1)]
    span = [left_iterate(X, r, product(product(x, y), z)) for r in range(n)]
    span += [left_iterate(X, r, product(product(x, z), y)) for r in range(n)]
    return span + [left_iterate(X, r, product(y, z)) for r in range(n + 1)]


# ---------------------------------------------------------------------------
# exact linear solve over the span


def _solve_in_span(w: Monomial) -> tuple:
    """Form of the unique P in the span with w's Peirce polynomials and sum 1."""
    record = _record(type_vector(w))
    den, nums = solve_unique(record.system, peirce_column(w, record.type))
    return den, tuple((m, n) for (_, m), n in zip(record.order.values(), nums) if n)


# ---------------------------------------------------------------------------
# rewriting route, in ints: a form (den, ((m, n), ...)) is sum(n m) / den
# with den > 0 and every n a nonzero int

# product of two basis monomials -> the form of its P, in the product's own letters
_RULES: dict[Monomial, tuple] = {}


def _rule(m1: Monomial, m2: Monomial) -> tuple:
    pattern = product(m1, m2)
    got = _RULES.get(pattern)
    if got is None:
        got = _RULES[pattern] = _solve_in_span(pattern)
    return got


def _polynomial(form, inverse) -> Polynomial:
    """The polynomial of an int form, relabelled by inverse."""
    den, terms = form
    return Polynomial._raw({relabel_monomial(m, inverse): Q(n, den) for m, n in terms})


# monomial -> the form of its normal form
_REDUCE_CACHE: dict[Monomial, tuple] = {}


def _reduce(w: Monomial) -> tuple:
    got = _REDUCE_CACHE.get(w)
    if got is not None:
        return got
    return fold(w, _REDUCE_CACHE, _rewrite, _basis_form)


def _basis_form(w: Monomial):
    """The form of w when it is a basis monomial, its own normal form."""
    return (1, ((w, 1),)) if is_basis_monomial(w) else None


def _rewrite(left: tuple, right: tuple) -> tuple:
    """The normal form of a product from the normal forms of its factors:
    each product m1 m2 of their terms is rewritten by its rule, whose
    terms are added as it is fetched."""
    (du, fu), (dv, fv) = left, right
    lcm = 1  # of the denominators of the rules fetched so far
    acc: dict[Monomial, int] = {}
    for m1, a in fu:
        for m2, b in fv:
            d, terms = _rule(m1, m2)
            if lcm % d:
                # put what is summed so far over the new lcm
                extra = d // math.gcd(lcm, d)
                lcm *= extra
                for m in acc:
                    acc[m] *= extra
            scale = a * b * (lcm // d)
            for m, c in terms:
                acc[m] = acc.get(m, 0) + scale * c
    den = du * dv * lcm
    g = math.gcd(den, *acc.values())
    return den // g, tuple((m, n // g) for m, n in acc.items() if n)


# ---------------------------------------------------------------------------
# public entry points


def _checked(w: Monomial, shape=None, *, allow_basis=False) -> TypeRecord:
    """w's record, once w is of the shape asked and, unless allowed, no basis monomial."""
    record = _record(type_vector(w))
    if shape is not None and shape != record.tag:
        raise ShapeError(f"monomial has shape {record.tag!r}, not {shape!r}")
    if not allow_basis and w in record.basis:
        raise BasisMonomialError("basis monomial has no train identity")
    return record


def _prepare(w: Monomial, shape=None, *, allow_basis=False):
    """(w in canonical letters, the record of w's type, w's type), for the
    fold.  The fold runs in canonical letters, where each letter's index
    follows its count, so a tie between equal counts, broken by letter
    index, falls the same way in every sub-monomial as in w, and every
    sub-monomial's roles agree with w's.  In w's own letters they need not:
    in (0,2,5), z is w's x and y its y, but a sub-monomial of type (0,2,2)
    would take y as its x, and the fold would leave terms outside w's span."""
    record = _checked(w, shape, allow_basis=allow_basis)
    return relabel_monomial(w, record.moved), record, record.type


def reduce(w: Monomial, shape=None) -> Polynomial:
    """Normal form P(w): the image of w in the span of the basis family.

    A basis monomial is already in the span, so its normal form is the
    monomial itself (in its own variable names).
    """
    wc, record, _ = _prepare(w, shape, allow_basis=True)
    return _polynomial(_reduce(wc), record.inverse)


def solve_Pw(w: Monomial, shape=None) -> Polynomial:
    """P(w) by the direct exact linear solve over the span, in w's letters.

    The system depends only on the type of w, so it is one elimination
    per type, reused for every monomial: solving for w reads only the
    columns of the factored system at the nonzero entries of w's integer
    Peirce column, at most degree + 1 of them.  This is the
    independent cross-check of ``reduce`` on the monomials that have a
    train identity; a basis monomial raises BasisMonomialError.
    """
    _checked(w, shape)
    return _polynomial(_solve_in_span(w), {})


def train_identity(w: Monomial, shape=None) -> Identity:
    """The verified train evanescent identity w - P(w).

    A basis monomial raises BasisMonomialError: there w - P(w) = 0,
    which is not an identity.
    """
    wc, record, ty = _prepare(w, shape)
    return placed(w, *_ranked(wc, record), ty, True)


def _ranked(wc: Monomial, record: TypeRecord) -> tuple:
    """(the Peirce class of w, at), for w in canonical letters: the form
    -P(w) over den, in w's letters and canonical order, and the member
    coefficient den.  P(w) lies in the span of the basis and w does not,
    so w goes in between its terms.  The span's monomials of w's degree
    are the basis monomials of w's type and rank last: w goes after every
    term ranked below them, ``at``, and after each of them below w."""
    den, terms = _reduce(wc)
    order = record.order
    ranked = sorted((order[m], n) for m, n in terms)
    at = bisect.bisect_left(ranked, len(order) - len(record.basis), key=lambda item: item[0][0])
    form = [(m, -n) for (_, m), n in ranked]
    return peirce_class(den, form, den, wc, record.variables), at


def admit(ty, max_degree: int = 10) -> tuple[int, ...]:
    """The normalized type, once ``generate_train_basis`` would accept
    it: a ShapeError for an unsupported shape, then for a total degree
    over the cap.  The record of a type over the cap is not built."""
    ty = normalize_type(ty)
    if sum(ty) <= max_degree:
        _record(ty)
        return ty
    _shape(ty)  # ShapeError before the degree cap
    raise ShapeError(
        f"total degree {sum(ty)} exceeds the cap {max_degree}; "
        "raise max_degree to override"
    )


def generate_train_basis(ty, max_degree: int = 10) -> list[Identity]:
    """All train identities of a type, one per non-basis monomial, in
    canonical order: the list of ``iter_train_basis``."""
    return list(iter_train_basis(ty, max_degree))


def iter_train_basis(ty, max_degree: int = 10):
    """Each identity of ``generate_train_basis``, as soon as it is checked.

    P(w) depends only on w's Peirce polynomials, so once per Peirce class
    of the type (``homgen.peirce_classes``: one packed entry at 64 bits,
    where each coefficient fits its slot) it is reduced and ranked, and
    its sums are taken, by ``_ranked``, at the class's first non-basis
    member.  Each member's identity is still built from its own w and
    checked on its own, against its own packed Peirce entry, by
    ``peirce.placed``.  Every class is ranked before the first member is
    checked, so that printing each identity as it comes does not
    interleave with the rewriting (which costs about 5 % more).
    """
    ty = admit(ty, max_degree)
    record = _record(ty)
    monomials, classes = peirce_classes(ty)
    ranked = [None] * len(monomials)  # each non-basis monomial's (class, at), one per class
    for members in classes.values():
        own = [k for k in members if monomials[k] not in record.basis]
        if own:
            got = _ranked(relabel_monomial(monomials[own[0]], record.moved), record)
            for k in own:
                ranked[k] = got
    for w, got in zip(monomials, ranked):
        if got is not None:
            yield placed(w, *got, ty, True)


def rule_sources() -> dict:
    """How each rewrite rule used so far was obtained: all are derived by the solve."""
    return dict.fromkeys(_RULES, "derived")
