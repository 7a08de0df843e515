"""Homogeneous evanescent identities via exact nullspace computation.

For a type, the coefficients of t^k in every Peirce polynomial of the
enumerated monomials, together with the coefficient-sum condition, form
a linear system over Q; its nullspace is exactly the space of
homogeneous evanescent identities of that type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .magma import Variable, monomials_of_type, normalize_type
from .peirce import Identity, make_identity, peirce_tree
from .poly import Polynomial
from .rationals import ONE, Q, ZERO, as_q


class LinearSolveError(ValueError):
    pass


@dataclass
class ExactMatrix:
    rows: list
    row_labels: list
    col_labels: list

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)


def rref(rows):
    """Reduced row-echelon form over Q.

    Deterministic: scans columns left to right and picks the first row
    with a nonzero entry.  Returns (new rows, pivot column list).

    The elimination runs in Python ints: each row is scaled to integers
    by the lcm of its denominators and kept primitive (the gcd of its
    entries divided out), and each pivot row is divided by its pivot
    only at the end.
    """
    m = []
    for row in rows:
        row = [c if type(c) is int else as_q(c) for c in row]
        d = math.lcm(*(c.denominator for c in row))
        m.append(_primitive([c.numerator * (d // c.denominator) for c in row]))
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
        pivot = m[r]
        p = pivot[col]
        for i in range(nrows):
            a = m[i][col]
            if a and i != r:
                g = math.gcd(p, a)
                pg, ag = p // g, a // g
                m[i] = _primitive([pg * u - ag * v for u, v in zip(m[i], pivot)])
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    reduced = [[Q(c, row[pc]) if c else ZERO for c in row] for row, pc in zip(m, pivots)]
    reduced += [[ZERO] * ncols for _ in m[r:]]
    return reduced, pivots


def _primitive(row):
    g = math.gcd(*row)
    return [c // g for c in row] if g > 1 else row


def nullspace(matrix) -> list[tuple]:
    """Deterministic basis of the right nullspace.

    Each vector is normalized so its first nonzero entry is 1; vectors
    are ordered by the position of that entry.
    """
    rows = matrix.rows if isinstance(matrix, ExactMatrix) else matrix
    if not rows:
        raise ValueError("nullspace of an empty matrix is undefined")
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [ZERO] * ncols
        vec[free] = ONE
        for i, pc in enumerate(pivots):
            vec[pc] = -reduced[i][free]
        lead = next(i for i, c in enumerate(vec) if c)
        inv = ONE / vec[lead]
        vec = tuple(c * inv for c in vec)
        basis.append((lead, vec))
    basis.sort(key=lambda lv: (lv[0], lv[1]))
    return [vec for _, vec in basis]


@dataclass(frozen=True)
class FactoredSystem:
    """A matrix A reduced once, to solve A x = b for many right-hand sides.

    E [A | I] is the reduced row-echelon form of [A | I].  ``solution``
    holds one (pivot column, row of E) pair per pivot of A, and
    ``consistency`` the rows of E whose product with A is zero; they span
    the left nullspace of A.  A row of E is kept as (d, ((j, n_j), ...)):
    its nonzero entries are n_j / d with integer n_j.
    """

    ncols: int
    solution: tuple
    consistency: tuple


def factor(rows) -> FactoredSystem:
    """Reduce [A | I] once; see FactoredSystem."""
    nrows = len(rows)
    ncols = len(rows[0])
    augmented = [
        list(row) + [ONE if j == i else ZERO for j in range(nrows)]
        for i, row in enumerate(rows)
    ]
    reduced, pivots = rref(augmented)

    def left_part(row):
        entries = [(j, c) for j, c in enumerate(row[ncols:]) if c]
        d = math.lcm(*(c.denominator for _, c in entries))
        return d, tuple((j, int(c * d)) for j, c in entries)

    rank = sum(1 for pc in pivots if pc < ncols)
    solution = tuple((pc, left_part(row)) for pc, row in zip(pivots, reduced[:rank]))
    consistency = tuple(left_part(row) for row in reduced[rank:])
    return FactoredSystem(ncols, solution, consistency)


def _dot(row, vec):
    d, entries = row
    return Q(sum(n * vec[j] for j, n in entries)) / d


def solve_unique(system, rhs) -> tuple:
    """Solve A x = b requiring exactly one solution.

    ``system`` is either the rows of A or ``factor(rows)``; pass the
    factored form to reuse one elimination for many right-hand sides.
    """
    if not isinstance(system, FactoredSystem):
        system = factor(system)
    for row in system.consistency:
        if _dot(row, rhs):
            raise LinearSolveError("inconsistent linear system")
    if len(system.solution) < system.ncols:
        raise LinearSolveError("underdetermined linear system")
    solution = [ZERO] * system.ncols
    for pc, row in system.solution:
        solution[pc] = _dot(row, rhs)
    return tuple(solution)


class SpanChecker:
    """Membership test against the row span of a fixed set of vectors."""

    def __init__(self, vectors):
        self.ncols = len(vectors[0]) if vectors else 0
        self.reduced, self.pivots = rref(vectors) if vectors else ([], [])

    def residual(self, vec):
        vec = [Q(c) for c in vec]
        for row, pc in zip(self.reduced, self.pivots):
            factor = vec[pc]
            if factor:
                vec = [a - factor * b for a, b in zip(vec, row)]
        return tuple(vec)

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))


def peirce_matrix(ty) -> ExactMatrix:
    """Coefficient matrix of the evanescence conditions for a type.

    One row per (variable, power of t) pair with powers 1..(degree-1),
    plus a final all-ones row for the coefficient-sum condition;
    columns follow the canonical enumeration of the type's monomials.
    """
    ty = normalize_type(ty)
    monomials = monomials_of_type(ty)
    total_degree = sum(ty)
    active = [Variable(i + 1) for i, c in enumerate(ty) if c]
    rows = []
    row_labels = []
    ppolys = {
        (v, m): peirce_tree(m, v) for v in active for m in monomials
    }
    for v in active:
        for power in range(1, total_degree):
            rows.append([ppolys[(v, m)].coefficient(power) for m in monomials])
            row_labels.append((v.name, power))
    rows.append([ONE] * len(monomials))
    row_labels.append(("sum", 0))
    return ExactMatrix(rows=rows, row_labels=row_labels, col_labels=list(monomials))


def homogeneous_nullspace(ty):
    """(monomials, nullspace basis vectors) for a type."""
    matrix = peirce_matrix(ty)
    return matrix.col_labels, nullspace(matrix)


def generate_homogeneous(ty) -> list[Identity]:
    """One verified Identity per nullspace basis vector."""
    ty = normalize_type(ty)
    monomials, basis = homogeneous_nullspace(ty)
    out = []
    for vec in basis:
        f = Polynomial({m: c for m, c in zip(monomials, vec) if c})
        out.append(make_identity(f, train=False, ty=ty))
    return out


def homogeneous_dimension(ty) -> int:
    return len(homogeneous_nullspace(ty)[1])
