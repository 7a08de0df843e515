"""Train evanescent identities w - P(w) for the four supported shapes.

Two independent routes are implemented:

* ``solve_Pw``: P(w) is the unique element of the span of the shape's
  basis family whose Peirce polynomials match those of w and whose
  coefficient sum is 1, found by an exact linear solve: one elimination
  per type, reused for every monomial of that type.

* ``reduce``: bottom-up normalization; the two children are normalized
  and the product of two normal-form basis monomials is rewritten by
  the generator relation registered for that pair of shapes.

Every registered rewrite rule is verified once (pattern minus expansion
must be Peirce-evanescent with coefficient sum zero); a rule whose
closed form fails verification is rederived by the linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homgen import factor, solve_unique
from .magma import (
    Monomial,
    Variable,
    X,
    Y,
    Z,
    degree_in,
    leaf,
    left_iterate,
    monomials_of_type,
    normalize_type,
    principal_power,
    principal_power_of,
    product,
    type_vector,
)
from .peirce import Identity, height_counts, make_identity, peirce_tree
from .poly import Polynomial
from .rationals import ONE, Q

SHAPES = ("n", "n1", "n2", "n11")


class ShapeError(ValueError):
    pass


class BasisMonomialError(ValueError):
    pass


class NoApplicableRuleError(RuntimeError):
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


# ---------------------------------------------------------------------------
# basis families


@dataclass(frozen=True)
class TrainBasisElement:
    """One member of a shape's basis family.

    kinds: xpow x^k | pmix x^k t | imix x^{r} t | pair (x^{r}y)y
           | square x^{r} y^2 | prodyz x^{r}(yz) | triple x^{r}((x t1) t2)
    """

    kind: str
    param: int
    letters: tuple = ()

    def expand(self) -> Monomial:
        k = self.kind
        if k == "xpow":
            return principal_power(X, self.param)
        if k == "pmix":
            return product(principal_power(X, self.param), leaf(self.letters[0]))
        if k == "imix":
            return left_iterate(X, self.param, leaf(self.letters[0]))
        if k == "pair":
            return product(left_iterate(X, self.param, leaf(Y)), leaf(Y))
        if k == "square":
            return left_iterate(X, self.param, product(leaf(Y), leaf(Y)))
        if k == "prodyz":
            return left_iterate(X, self.param, product(leaf(Y), leaf(Z)))
        if k == "triple":
            t1, t2 = self.letters
            core = product(product(leaf(X), leaf(t1)), leaf(t2))
            return left_iterate(X, self.param, core)
        raise ValueError(f"unknown kind {k!r}")


def classify(m: Monomial):
    """TrainBasisElement for a basis monomial in canonical letters, else None."""
    degx = degree_in(m, X)
    degy = degree_in(m, Y)
    degz = degree_in(m, Z)
    if degx + degy + degz != m.degree:
        return None
    if degy == 0 and degz == 0:
        pp = principal_power_of(m)
        if pp is not None and pp[0] == X:
            return TrainBasisElement("xpow", pp[1])
        return None
    if degz == 0 and degy == 1:
        return _classify_mixed(m, Y)
    if degy == 0 and degz == 1:
        return _classify_mixed(m, Z)
    if degz == 0 and degy == 2:
        return _classify_square_like(m)
    if degy == 1 and degz == 1:
        return _classify_triple_like(m)
    return None


def _classify_mixed(m: Monomial, t: Variable):
    if m.is_leaf:
        return TrainBasisElement("imix", 0, (t,)) if m.var == t else None
    a, b = m.left, m.right
    for u, v in ((a, b), (b, a)):
        if u is leaf(X):
            sub = _classify_mixed(v, t)
            if sub is not None and sub.kind == "imix":
                return TrainBasisElement("imix", sub.param + 1, (t,))
        if v is leaf(t):
            pp = principal_power_of(u)
            if pp is not None and pp[0] == X and pp[1] >= 2:
                return TrainBasisElement("pmix", pp[1], (t,))
    return None


def _classify_square_like(m: Monomial):
    ysq = product(leaf(Y), leaf(Y))
    if m is ysq:
        return TrainBasisElement("square", 0)
    a, b = m.left, m.right
    for u, v in ((a, b), (b, a)):
        if u is leaf(X):
            sub = _classify_square_like(v)
            if sub is not None and sub.kind == "square":
                return TrainBasisElement("square", sub.param + 1)
        if v is leaf(Y):
            sub = _classify_mixed(u, Y)
            if sub is not None and sub.kind == "imix" and sub.param >= 1:
                return TrainBasisElement("pair", sub.param)
    return None


def _classify_triple_like(m: Monomial):
    yz = product(leaf(Y), leaf(Z))
    if m is yz:
        return TrainBasisElement("prodyz", 0)
    if m.is_leaf:
        return None
    a, b = m.left, m.right
    for u, v in ((a, b), (b, a)):
        if u is leaf(X):
            sub = _classify_triple_like(v)
            if sub is None:
                continue
            if sub.kind == "prodyz":
                return TrainBasisElement("prodyz", sub.param + 1)
            if sub.kind == "triple":
                return TrainBasisElement("triple", sub.param + 1, sub.letters)
    for t1, t2 in ((Y, Z), (Z, Y)):
        if m is product(product(leaf(X), leaf(t1)), leaf(t2)):
            return TrainBasisElement("triple", 0, (t1, t2))
    return None


def excluded_basis(ty) -> tuple[Monomial, ...]:
    """The basis monomials of exactly this (canonical-letter) type."""
    ty = normalize_type(ty)
    tag, _ = classify_type(ty)
    n = ty[0]
    if tag == "n":
        elems = [TrainBasisElement("xpow", n)]
    elif tag == "n1":
        elems = [TrainBasisElement("pmix", n, (Y,)), TrainBasisElement("imix", n, (Y,))]
        if n == 1:
            elems = [TrainBasisElement("imix", 1, (Y,))]
    elif tag == "n2":
        elems = [TrainBasisElement("pair", n), TrainBasisElement("square", n)]
    elif tag == "n11":
        elems = [
            TrainBasisElement("triple", n - 1, (Y, Z)),
            TrainBasisElement("triple", n - 1, (Z, Y)),
            TrainBasisElement("prodyz", n),
        ]
    else:
        raise ShapeError(f"unsupported type {ty}")
    out = []
    for e in elems:
        m = e.expand()
        if m not in out:
            out.append(m)
    return tuple(out)


def span_basis(ty) -> list[Monomial]:
    """Basis monomials spanning the P(w) candidates for this type."""
    ty = normalize_type(ty)
    tag, _ = classify_type(ty)
    n = ty[0]
    elems: list[TrainBasisElement] = []
    if tag == "n":
        elems = [TrainBasisElement("xpow", k) for k in range(1, n + 1)]
    elif tag == "n1":
        elems = [TrainBasisElement("pmix", k, (Y,)) for k in range(2, n + 1)]
        elems += [TrainBasisElement("imix", r, (Y,)) for r in range(1, n + 1)]
    elif tag == "n2":
        elems = [TrainBasisElement("pair", r) for r in range(1, n + 1)]
        elems += [TrainBasisElement("square", s) for s in range(n + 1)]
    elif tag == "n11":
        elems = [TrainBasisElement("triple", r, (Y, Z)) for r in range(n)]
        elems += [TrainBasisElement("triple", r, (Z, Y)) for r in range(n)]
        elems += [TrainBasisElement("prodyz", r) for r in range(n + 1)]
    else:
        raise ShapeError(f"unsupported type {ty}")
    out: list[Monomial] = []
    for e in elems:
        m = e.expand()
        if m not in out:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# closed-form route: exact linear solve over the span


def _peirce_vector(m: Monomial, ty) -> list[int]:
    """Coefficients of t^0 .. t^(deg-1) in m's Peirce polynomial in x, y, z."""
    vec = []
    for v in [X, Y, Z][: len(ty)]:
        counts = height_counts(m, v.index)
        vec += counts + [0] * (sum(ty) - len(counts))
    return vec


# canonical type -> (span basis, factored system of its Peirce conditions)
_SPAN_SYSTEMS: dict[tuple, tuple] = {}


def _span_system(ty):
    """The span basis of a canonical type and its system, factored once.

    Column k of the system is the Peirce vector of basis monomial k over
    a final 1 (the coefficient-sum condition).
    """
    got = _SPAN_SYSTEMS.get(ty)
    if got is None:
        basis = span_basis(ty)
        columns = [_peirce_vector(m, ty) + [1] for m in basis]
        got = _SPAN_SYSTEMS[ty] = (basis, factor(list(zip(*columns))))
    return got


def _solve_in_span(w: Monomial) -> Polynomial:
    """Unique P in the span with matching Peirce polynomials and sum 1."""
    ty = type_vector(w)
    basis, system = _span_system(ty)
    solution = solve_unique(system, _peirce_vector(w, ty) + [1])
    return Polynomial({m: c for m, c in zip(basis, solution) if c})


# ---------------------------------------------------------------------------
# rewriting route


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
    total: dict[Monomial, object] = {}
    for coeff, monomial in terms:
        total[monomial] = total.get(monomial, 0) + coeff
    return Polynomial(total)


def _family_expansion(kind1, p1, l1, kind2, p2, l2):
    """Closed-form right-hand side for a product of two basis monomials.

    Returns None when no closed form is registered (the rule is then
    derived by the linear solve).
    """
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
        return None  # derived by the solve
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

_RULES: dict[tuple, Polynomial] = {}
_RULE_SOURCES: dict[tuple, str] = {}


def _rule(m1: Monomial, m2: Monomial) -> Polynomial:
    c1 = classify(m1)
    c2 = classify(m2)
    if c1 is None or c2 is None:
        raise NoApplicableRuleError(
            f"no rewrite rule for {m1!r} * {m2!r}: factor not in normal form"
        )
    if (_KIND_ORDER[c1.kind], c1.param) > (_KIND_ORDER[c2.kind], c2.param):
        c1, c2 = c2, c1
    key = (c1.kind, c1.param, c1.letters, c2.kind, c2.param, c2.letters)
    got = _RULES.get(key)
    if got is not None:
        return got
    pattern = product(c1.expand(), c2.expand())
    rhs = _family_expansion(c1.kind, c1.param, c1.letters, c2.kind, c2.param, c2.letters)
    source = "family"
    if rhs is None or not _rule_is_valid(pattern, rhs):
        rhs = _solve_in_span(pattern)
        source = "derived"
    _RULES[key] = rhs
    _RULE_SOURCES[key] = source
    return rhs


def _rule_is_valid(pattern: Monomial, rhs: Polynomial) -> bool:
    if rhs.at_ones() != 1:
        return False
    diff = Polynomial.monomial(pattern) - rhs
    return all(peirce_tree(diff, v).is_zero for v in diff.variables())


_REDUCE_CACHE: dict[Monomial, Polynomial] = {}


def _reduce(w: Monomial) -> Polynomial:
    got = _REDUCE_CACHE.get(w)
    if got is not None:
        return got
    if classify(w) is not None:
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
    ty = type_vector(w)
    tag, roles = classify_type(ty)
    if tag is None:
        raise ShapeError(f"type {ty} is not one of the supported shapes")
    if shape is not None and shape != tag:
        raise ShapeError(f"monomial has shape {tag!r}, not {shape!r}")
    wc = relabel_monomial(w, roles)
    if not allow_basis and wc in excluded_basis(type_vector(wc)):
        raise BasisMonomialError("basis monomial has no train identity")
    inverse = {v: k for k, v in roles.items()}
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
    tag, roles = classify_type(ty)
    if tag is None:
        raise ShapeError(f"type {ty} is not one of the supported shapes")
    if sum(ty) > max_degree:
        raise ShapeError(
            f"total degree {sum(ty)} exceeds the cap {max_degree}; "
            "raise max_degree to override"
        )
    out = []
    for w in monomials_of_type(ty):
        wc = relabel_monomial(w, roles)
        if wc in excluded_basis(type_vector(wc)):
            continue
        out.append(train_identity(w))
    return out


def rule_sources() -> dict:
    """How each rewrite rule used so far was obtained (family or derived)."""
    return dict(_RULE_SOURCES)
