"""Train evanescent identities w - P(w) for the four supported shapes.

P(w) is the unique element of the span of the shape's basis family
whose Peirce polynomials match those of w and whose coefficient sum is
1.  It is found by an exact linear solve: the system depends only on the
type, so it is factored once per type and reused for every monomial.
Two routes use it:

* ``solve_Pw``: the solve for w itself.

* ``reduce``: bottom-up normalization; the two children are normalized
  and each product m1 m2 of two basis monomials is rewritten by the
  rule m1 m2 -> P(m1 m2), which is the solve for that product, done
  once in the canonical letters of its type and cached.

On a product of two basis monomials the routes coincide; on deeper
monomials ``reduce`` vs ``solve_Pw`` checks the rewriting.
"""

from __future__ import annotations

import functools

from .homgen import factor, peirce_column, solve_unique
from .magma import (
    Monomial,
    Variable,
    X,
    Y,
    Z,
    leaf,
    left_iterate,
    monomials_of_type,
    normalize_type,
    principal_power,
    product,
    type_vector,
)
from .peirce import Identity, make_identity
from .poly import Polynomial

SHAPES = ("n", "n1", "n2", "n11")


class ShapeError(ValueError):
    pass


class BasisMonomialError(ValueError):
    pass


def classify_type(ty):
    """(shape tag, role map original->canonical variable) or (None, None)."""
    ty = normalize_type(ty)
    active = [(Variable(i + 1), c) for i, c in enumerate(ty) if c]
    active.sort(key=lambda vc: (-vc[1], vc[0].index))
    degrees = tuple(c for _, c in active)
    if len(degrees) == 1:
        tag = "n"
        targets = (X,)
    elif len(degrees) == 2 and degrees[1] == 1:
        tag = "n1"
        targets = (X, Y)
    elif len(degrees) == 2 and degrees[1] == 2 and degrees[0] >= 2:
        tag = "n2"
        targets = (X, Y)
    elif len(degrees) == 3 and degrees[1] == 1 and degrees[2] == 1:
        tag = "n11"
        targets = (X, Y, Z)
    else:
        return None, None
    roles = {v: t for (v, _), t in zip(active, targets)}
    return tag, roles


def relabel_monomial(m: Monomial, mapping: dict) -> Monomial:
    if all(k == v for k, v in mapping.items()):
        return m
    cache: dict[Monomial, Monomial] = {}

    def walk(node):
        got = cache.get(node)
        if got is not None:
            return got
        if node.is_leaf:
            res = leaf(mapping.get(node.var, node.var))
        else:
            res = product(walk(node.left), walk(node.right))
        cache[node] = res
        return res

    return walk(m)


def relabel_polynomial(f: Polynomial, mapping: dict) -> Polynomial:
    if all(k == v for k, v in mapping.items()):
        return f
    out: dict[Monomial, object] = {}
    for m, c in f.terms.items():
        key = relabel_monomial(m, mapping)
        out[key] = out.get(key, 0) + c
    return Polynomial(out)


def _canonical(w: Monomial):
    """(shape tag, w in canonical letters, map from those back to w's letters)."""
    ty = type_vector(w)
    tag, roles = classify_type(ty)
    if tag is None:
        raise ShapeError(f"type {ty} is not one of the supported shapes")
    return tag, relabel_monomial(w, roles), {v: k for k, v in roles.items()}


# ---------------------------------------------------------------------------
# basis families


def span_basis(ty) -> tuple[Monomial, ...]:
    """Basis monomials spanning the P(w) candidates for this (canonical-letter) type."""
    return _bases(normalize_type(ty))[0]


def excluded_basis(ty) -> tuple[Monomial, ...]:
    """The basis monomials of exactly this (canonical-letter) type."""
    return _bases(normalize_type(ty))[1]


def is_basis_monomial(w: Monomial) -> bool:
    """Whether w is a basis monomial of its type, in any letters."""
    _, wc, _ = _canonical(w)
    return wc in excluded_basis(type_vector(wc))


@functools.cache
def _bases(ty):
    """(span basis, its members of type ty) for a normalized type.

    The families by shape: n: x^k; n1: x^k y, x^{r} y; n2: (x^{r} y) y,
    x^{s} y^2; n11: x^{r}((x y) z), x^{r}((x z) y), x^{r}(y z).
    """
    tag, _ = classify_type(ty)
    n = ty[0]
    x, y, z = leaf(X), leaf(Y), leaf(Z)
    if tag == "n":
        span = [principal_power(X, k) for k in range(1, n + 1)]
    elif tag == "n1":
        span = [product(principal_power(X, k), y) for k in range(2, n + 1)]
        span += [left_iterate(X, r, y) for r in range(1, n + 1)]
    elif tag == "n2":
        span = [product(left_iterate(X, r, y), y) for r in range(1, n + 1)]
        span += [left_iterate(X, s, product(y, y)) for s in range(n + 1)]
    elif tag == "n11":
        span = [left_iterate(X, r, product(product(x, y), z)) for r in range(n)]
        span += [left_iterate(X, r, product(product(x, z), y)) for r in range(n)]
        span += [left_iterate(X, r, product(y, z)) for r in range(n + 1)]
    else:
        raise ShapeError(f"unsupported type {ty}")
    return tuple(span), tuple(m for m in span if type_vector(m) == ty)


# ---------------------------------------------------------------------------
# exact linear solve over the span


# canonical type -> (span basis, factored system of its Peirce conditions)
_SPAN_SYSTEMS: dict[tuple, tuple] = {}


def _span_system(ty):
    """The span basis of a canonical type and its system, factored once.

    Column k of the system is the Peirce column of basis monomial k: its
    Peirce coefficients and the coefficient-sum condition.
    """
    got = _SPAN_SYSTEMS.get(ty)
    if got is None:
        basis = span_basis(ty)
        columns = [peirce_column(m, ty) for m in basis]
        got = _SPAN_SYSTEMS[ty] = (basis, factor(list(zip(*columns))))
    return got


def _solve_in_span(w: Monomial) -> Polynomial:
    """Unique P in the span with matching Peirce polynomials and sum 1."""
    ty = type_vector(w)
    basis, system = _span_system(ty)
    solution = solve_unique(system, peirce_column(w, ty))
    return Polynomial({m: c for m, c in zip(basis, solution) if c})


# ---------------------------------------------------------------------------
# rewriting route

# product of two basis monomials -> its P, in the product's own letters
_RULES: dict[Monomial, Polynomial] = {}


def _rule(m1: Monomial, m2: Monomial) -> Polynomial:
    pattern = product(m1, m2)
    got = _RULES.get(pattern)
    if got is None:
        _, pc, inverse = _canonical(pattern)
        got = _RULES[pattern] = relabel_polynomial(_solve_in_span(pc), inverse)
    return got


_REDUCE_CACHE: dict[Monomial, Polynomial] = {}


def _reduce(w: Monomial) -> Polynomial:
    got = _REDUCE_CACHE.get(w)
    if got is not None:
        return got
    if is_basis_monomial(w):
        res = Polynomial.monomial(w)
    else:
        fu = _reduce(w.left)
        fv = _reduce(w.right)
        acc: dict[Monomial, object] = {}
        for m1, a in fu.terms.items():
            for m2, b in fv.terms.items():
                for m, c in _rule(m1, m2).terms.items():
                    acc[m] = acc.get(m, 0) + a * b * c
        res = Polynomial(acc)
    _REDUCE_CACHE[w] = res
    return res


# ---------------------------------------------------------------------------
# public entry points


def _prepare(w: Monomial, shape=None, *, allow_basis=False):
    tag, wc, inverse = _canonical(w)
    if shape is not None and shape != tag:
        raise ShapeError(f"monomial has shape {tag!r}, not {shape!r}")
    if not allow_basis and is_basis_monomial(wc):
        raise BasisMonomialError("basis monomial has no train identity")
    return wc, inverse


def reduce(w: Monomial, shape=None) -> Polynomial:
    """Normal form P(w): the image of w in the span of the basis family.

    A basis monomial is already in the span, so its normal form is the
    monomial itself (in its own variable names).
    """
    wc, inverse = _prepare(w, shape, allow_basis=True)
    return relabel_polynomial(_reduce(wc), inverse)


def solve_Pw(w: Monomial, shape=None) -> Polynomial:
    """P(w) by the direct exact linear solve over the span.

    The system depends only on the type of w, so it is one elimination
    per type, reused for every monomial: solving for w costs one product
    of the factored system with w's integer Peirce vector.  This is the
    independent cross-check of ``reduce`` on the monomials that have a
    train identity; a basis monomial raises BasisMonomialError.
    """
    wc, inverse = _prepare(w, shape)
    return relabel_polynomial(_solve_in_span(wc), inverse)


def train_identity(w: Monomial, shape=None) -> Identity:
    """The verified train evanescent identity w - P(w).

    A basis monomial raises BasisMonomialError: there w - P(w) = 0,
    which is not an identity.
    """
    wc, inverse = _prepare(w, shape)
    f = Polynomial.monomial(w) - relabel_polynomial(_reduce(wc), inverse)
    return make_identity(f, train=True, ty=type_vector(w))


def generate_train_basis(ty, max_degree: int = 10) -> list[Identity]:
    """All train identities of a type, one per non-basis monomial."""
    ty = normalize_type(ty)
    if classify_type(ty)[0] is None:
        raise ShapeError(f"type {ty} is not one of the supported shapes")
    if sum(ty) > max_degree:
        raise ShapeError(
            f"total degree {sum(ty)} exceeds the cap {max_degree}; "
            "raise max_degree to override"
        )
    return [train_identity(w) for w in monomials_of_type(ty) if not is_basis_monomial(w)]


def rule_sources() -> dict:
    """How each rewrite rule used so far was obtained: all are derived by the solve."""
    return dict.fromkeys(_RULES, "derived")
