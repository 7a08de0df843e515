import pathlib
import random

import pytest

from evanescent import baric, homgen, magma, poly
from evanescent.rationals import ONE, Q, ZERO
from evanescent.syntax import format_monomial, parse_monomial

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def random_monomial(rng, variables=(1, 2, 3), max_degree=6):
    degree = rng.randint(1, max_degree)

    def build(d):
        if d == 1:
            return magma.leaf(rng.choice(variables))
        split = rng.randint(1, d - 1)
        return magma.product(build(split), build(d - split))

    return build(degree)


def random_polynomial(rng, variables=(1, 2, 3), max_degree=5, max_terms=4):
    total = poly.Polynomial.zero()
    for _ in range(rng.randint(1, max_terms)):
        coeff = Q(rng.randint(-4, 4), rng.choice((1, 1, 2)))
        total = total + poly.Polynomial.monomial(
            random_monomial(rng, variables, max_degree), coeff
        )
    return total


_NESTED_KEYS = {}


def nested_key(m):
    """The canonical order as nested tuples, built bottom-up: (degree,
    positional type vector, (0, index)) for a leaf and (degree, vector,
    (1, key of left, key of right)) for a node.  The reference for the
    descent of ``Monomial.__lt__``; comparing two keys recurses once per
    level where the trees agree, so deep keys raise RecursionError."""
    for v in magma.leaves(m):
        i = v.var.index
        _NESTED_KEYS.setdefault(v, (1, (0,) * i + (1,), (0, i)))
    return magma.fold(m, _NESTED_KEYS, _node_key)


def _node_key(a, b):
    n = max(len(a[1]), len(b[1]))
    va, vb = a[1] + (0,) * (n - len(a[1])), b[1] + (0,) * (n - len(b[1]))
    return (a[0] + b[0], tuple(p + q for p, q in zip(va, vb)), (1, a, b))


@pytest.fixture
def rng():
    return random.Random(20260809)


def corpus_lines(kind, name):
    path = CORPUS / kind / f"{name}.txt"
    return [l for l in path.read_text(encoding="utf-8").splitlines() if l.strip()]


def fraction_rref(rows):
    """The reference: Gauss-Jordan elimination in Fractions, normalizing
    each pivot row as it goes.  Returns all rows, zero rows last."""
    m = [[Q(c) for c in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][col]
        m[r] = [c * inv for c in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def fraction_nullspace(rows):
    """The reference: a dense vector per free column of the Fraction
    elimination, scaled so its first nonzero entry is 1, ordered by the
    position of that entry, then as tuples."""
    ncols = len(rows[0])
    reduced, pivots = fraction_rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        lead = next(i for i, c in enumerate(vec) if c)
        basis.append((lead, tuple(c / vec[lead] for c in vec)))
    basis.sort(key=lambda lv: (lv[0], lv[1]))
    return [vec for _, vec in basis]


def _dense_order(form, scale) -> list:
    """Sort key of a form: the lead column, then each later entry, over the
    denominator scale, as (0, j, n) if negative and (2, -j, n) if positive,
    then (1,): a missing column, 0, sorts between a negative and a positive."""
    den, terms = form
    k = scale // den
    return [terms[0][0], *((0, j, n * k) if n < 0 else (2, -j, n * k) for j, n in terms[1:]), (1,)]


def fraction_format(f):
    """The reference rendering of a polynomial: terms in descending
    canonical order, each coefficient printed by Fraction arithmetic."""
    if not f.terms:
        return "0"
    parts = []
    for m, c in sorted(f.terms.items(), key=lambda mc: mc[0], reverse=True):
        mono = format_monomial(m)
        body = mono if abs(c) == 1 else f"{abs(c)} {mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def dense(form, ncols):
    """The dense tuple of Q of a sparse nullspace form (den, ((col, n), ...))."""
    den, terms = form
    vec = [ZERO] * ncols
    for j, n in terms:
        vec[j] = Q(n, den)
    return tuple(vec)


class SpanChecker:
    """Membership test against the row span of a fixed set of vectors,
    by elimination in Fractions (``fraction_rref``)."""

    def __init__(self, vectors):
        self.reduced, self.pivots = fraction_rref(vectors)

    def residual(self, vec):
        vec = [Q(c) for c in vec]
        for row, pc in zip(self.reduced, self.pivots):
            factor = vec[pc]
            if factor:
                vec = [a - factor * b for a, b in zip(vec, row)]
        return tuple(vec)

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))


# ---------------------------------------------------------------------------
# Oracles that only the tests read, kept here as the library had them.


def _random_q(rng):
    s, (n,) = baric._draw(rng, 1)
    return Q(n, s)


def random_mutation_algebra(rng: random.Random, dim: int) -> baric.BaricAlgebra:
    """Random mutation algebra with weight (1, 0, ..., 0); the first row
    of M is pinned so the weight is fixed by M."""
    matrix = [[_random_q(rng) for _ in range(dim)] for _ in range(dim)]
    matrix[0] = [ONE] + [ZERO] * (dim - 1)
    weight = [ONE] + [ZERO] * (dim - 1)
    return baric.make_mutation(baric.MutationSpec.make(matrix, weight))


def random_baric_algebra(rng: random.Random, dim: int) -> baric.BaricAlgebra:
    """Random commutative baric algebra with weight (1, 0, ..., 0); the
    e_0 coordinates of products are pinned by the character condition."""
    structure = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            column = [_random_q(rng) for _ in range(dim)]
            column[0] = ONE if i == 0 and j == 0 else ZERO
            structure[i][j] = structure[j][i] = column
    weight = [ONE] + [ZERO] * (dim - 1)
    return baric.BaricAlgebra(dim, structure, weight)


def weight_one_anchor(algebra):
    for i, w in enumerate(algebra.weight):
        if w:
            vec = [ZERO] * algebra.dim
            vec[i] = ONE / w
            return tuple(vec)
    raise baric.AlgebraError("weight must be nonzero")


def kernel_basis(algebra):
    """Basis of ker(weight)."""
    pivot = next(i for i, w in enumerate(algebra.weight) if w)
    basis = []
    for i in range(algebra.dim):
        if i == pivot:
            continue
        vec = [ZERO] * algebra.dim
        vec[i] = ONE
        vec[pivot] = -algebra.weight[i] / algebra.weight[pivot]
        basis.append(tuple(vec))
    return basis


def zero_vector(algebra):
    return (ZERO,) * algebra.dim


def apply_univariate(p, matrix, vec):
    """p(M) applied to a vector."""
    d = len(matrix)
    acc = [ZERO] * d
    power = list(vec)
    for c in p.coeffs:
        if c:
            for k in range(d):
                acc[k] += c * power[k]
        power = [
            sum((matrix[i][j] * power[j] for j in range(d)), ZERO) for i in range(d)
        ]
    return tuple(acc)


def polynomial_from_json(obj) -> poly.Polynomial:
    total = poly.Polynomial.zero()
    for term in obj["terms"]:
        m = parse_monomial(term["monomial"])
        total = total + poly.Polynomial.monomial(m, Q(term["coeff"]))
    return total


def homogeneous_dimension(ty) -> int:
    """Dimension of the homogeneous evanescent identities of a type: the
    nullity of its Peirce matrix, read from the rank of its classes'
    distinct columns alone."""
    ty = magma.normalize_type(ty)
    monomials, classes = homgen.peirce_classes(ty)
    rows = [list(row) for row in zip(*(homgen._column(entry, sum(ty)) for entry in classes))]
    return len(monomials) - len(homgen.rref(rows)[1])


def peeled_digits(s: int, bits: int) -> list[int]:
    """The balanced base-2^bits digits of s, least significant first, up
    to the last nonzero one, peeled one slot at a time off the whole
    remaining int: the decoder that ``peirce._digits`` replaced."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    while s:
        d = s & mask
        if d >= half:
            d -= 1 << bits
        digits.append(d)
        s = (s - d) >> bits
    return digits
