"""Homogeneous evanescent identities via exact nullspace computation.

For a type, the coefficients of t^k in every Peirce polynomial of the
enumerated monomials, together with the coefficient-sum condition, form
a linear system over Q; its nullspace is exactly the space of
homogeneous evanescent identities of that type.

The elimination is fraction-free: ``rref`` puts each row over the lcm of
its denominators and eliminates in Python ints, keeping every row
primitive (the gcd of its entries divided out).  It returns one int row
per pivot, with no division; a row divided by its pivot entry is a row of
the reduced row-echelon form over Q.  ``factor``, ``nullspace`` and
``homogeneous_dimension`` read those int rows directly; ``nullspace``
returns sparse int forms, which the evanescence check takes as they are.
Many monomials of a type share their leaf heights, hence their Peirce
column: ``peirce_matrix`` decodes each distinct column once, and
``nullspace`` and ``homogeneous_dimension`` eliminate the distinct
columns alone, half of them or fewer, and give each copy of a free column
its form from its first copy's pivot entries.
``factor`` keeps its reduced rows over one int denominator, column by
column, so ``solve_unique`` sums in ints over the nonzero entries of the
right-hand side alone, and returns its solution over one denominator
too: no ``Q`` is built here.  Each generated identity is the int form
of its nullspace vector; its columns index the sorted
``monomials_of_type``, so its terms are already in canonical order.
The forms of one group of equal free columns share every term but the
last, so ``generate_homogeneous`` checks each group as one Peirce class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .magma import Monomial, Variable, monomials_of_type, normalize_type
from .peirce import Identity, _digits, _packed, peirce_class, placed
from .rationals import as_ints


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
    """Fraction-free reduced row-echelon form of rows of ints or rationals.

    Deterministic: scans columns left to right and picks the first row
    with a nonzero entry.  Returns (int rows, pivot columns), one row per
    pivot: row i is primitive, its entry at pivots[i] is positive, and
    divided by that entry it is row i of the reduced row-echelon form
    over Q.  Zero rows are dropped, so the rank is len(pivots).
    """
    m = []
    for row in rows:
        m.append(_primitive(as_ints(row)[1]))
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
    return [row if row[pc] > 0 else [-c for c in row] for row, pc in zip(m, pivots)], pivots


def _primitive(row):
    g = math.gcd(*row)
    return [c // g for c in row] if g > 1 else row


def nullspace(matrix) -> list[tuple]:
    """Deterministic basis of the right nullspace, as sparse int forms.

    One vector per free column f: 1 at f and -row[f] / row[pc] at the
    pivot column pc of each int row of ``rref``, as the form (den, ((col,
    n), ...)): its nonzero entries n / den by column, the ints n primitive
    and the first equal to den > 0.  Ordered by that lead column, then as
    the dense tuples of Q would be.

    Equal columns are eliminated once: ``rref`` runs on the distinct
    columns, in order of first occurrence, whose reduced form is the
    matrix's own with each repeated column read from its first copy.  A
    later copy is never a pivot, so a distinct pivot stands for the first
    column of its group, and the pivot entries of a distinct free column,
    their lcm, gcd and sign, are found once for all the free columns of
    its group.
    """
    rows = matrix.rows if isinstance(matrix, ExactMatrix) else matrix
    if not rows:
        raise ValueError("nullspace of an empty matrix is undefined")
    groups, distinct = _distinct_columns(rows)
    reduced, pivots = rref(distinct)
    pivot_set = set(pivots)
    first = {}  # distinct column -> the first column of its group
    free = {}  # distinct column -> the free columns of its group
    for c, k in enumerate(groups):
        if k in first or k not in pivot_set:
            free.setdefault(k, []).append(c)
        first.setdefault(k, c)
    forms = []
    for k, cols in free.items():
        # an int row is zero left of its pivot, so every pc here is < k
        entries = [(first[pc], row[k], row[pc]) for row, pc in zip(reduced, pivots) if row[k]]
        lcm = math.lcm(*(p for _, _, p in entries))
        nums = [-a * (lcm // p) for _, a, p in entries] + [lcm]
        g = math.gcd(*nums)
        g = g if nums[0] > 0 else -g  # so that the lead entry is den > 0
        lead = tuple((c, n // g) for (c, _, _), n in zip(entries, nums))
        forms += [(nums[0] // g, (*lead, (f, lcm // g))) for f in cols]
    scale = math.lcm(*(den for den, _ in forms))
    forms.sort(key=lambda form: _dense_order(form, scale))
    return forms


def _distinct_columns(rows) -> tuple[list, list]:
    """(the distinct column of each column, the rows of the distinct
    columns), the distinct columns numbered by first occurrence."""
    index: dict[tuple, int] = {}
    groups = [index.setdefault(col, len(index)) for col in zip(*rows)]
    return groups, [list(row) for row in zip(*index)]


def _dense_order(form, scale) -> list:
    """Sort key of a form: the lead column, then each later entry, over the
    denominator scale, as (0, j, n) if negative and (2, -j, n) if positive,
    then (1,): a missing column, 0, sorts between a negative and a positive."""
    den, terms = form
    k = scale // den
    return [terms[0][0], *((0, j, n * k) if n < 0 else (2, -j, n * k) for j, n in terms[1:]), (1,)]


@dataclass(frozen=True)
class FactoredSystem:
    """A matrix A reduced once, to solve A x = b for many right-hand sides.

    E [A | I] is the reduced row-echelon form of [A | I].  Its first
    ``rank`` rows have their pivots in A, and when rank = ncols row i has
    its pivot in column i, so x = E b; the other rows span the left
    nullspace of A, and b is consistent when they vanish on it.  E is
    M / den for an int matrix M and one denominator ``den``, the lcm of
    the pivot entries of ``rref``'s int rows.  M is kept column by
    column: ``columns[j]`` holds the nonzero entries (i, n) of column j.
    """

    ncols: int
    rank: int
    den: int
    columns: tuple


def factor(rows) -> FactoredSystem:
    """Reduce [A | I] once; see FactoredSystem."""
    nrows = len(rows)
    ncols = len(rows[0])
    augmented = [list(row) + [int(j == i) for j in range(nrows)] for i, row in enumerate(rows)]
    reduced, pivots = rref(augmented)
    den = math.lcm(*(row[pc] for row, pc in zip(reduced, pivots)))
    columns = [[] for _ in range(nrows)]
    for i, (row, pc) in enumerate(zip(reduced, pivots)):
        for j, n in enumerate(row[ncols:]):
            if n:
                columns[j].append((i, n * (den // row[pc])))
    rank = sum(1 for pc in pivots if pc < ncols)
    return FactoredSystem(ncols, rank, den, tuple(map(tuple, columns)))


def solve_unique(system, rhs) -> tuple:
    """Solve A x = b requiring exactly one solution.

    ``system`` is either the rows of A or ``factor(rows)``; pass the
    factored form to reuse one elimination for many right-hand sides.
    M b is summed in ints over the nonzero entries of b (a rational b is
    first put over the lcm of its denominators).  Returns x in reduced
    int form (den, nums): x = nums / den, den > 0 and gcd(den, *nums) = 1.
    """
    if not isinstance(system, FactoredSystem):
        system = factor(system)
    bden, b = (1, rhs) if all(type(c) is int for c in rhs) else as_ints(rhs)
    acc = [0] * len(system.columns)
    for c, column in zip(b, system.columns, strict=True):
        if c:
            for i, n in column:
                acc[i] += c * n
    if any(acc[system.rank :]):
        raise LinearSolveError("inconsistent linear system")
    if system.rank < system.ncols:
        raise LinearSolveError("underdetermined linear system")
    nums = acc[: system.ncols]
    den = system.den * bden
    g = math.gcd(den, *nums)
    return den // g, tuple(n // g for n in nums)


def peirce_column(m: Monomial, ty) -> list[int]:
    """Column of m in the Peirce matrix of type ty, as ints.

    For each variable of ty in turn, the coefficients of t^1 .. t^(d-1)
    in m's Peirce polynomial (d = sum(ty)), then 1 for the coefficient
    sum.  The t^0 coefficient is zero for every monomial of degree >= 2,
    so it is left out.  The coefficients of all of ty's variables, each at
    most m's degree, are decoded from m's one 64-bit entry in the packed
    Peirce cache, which the evanescence re-check then reads too.
    """
    degree = sum(ty)
    variables = tuple(i + 1 for i, count in enumerate(ty) if count)
    column = []
    for s in _packed(m, variables, 64):
        column += (_digits(s, 64) + [0] * degree)[1:degree]
    column.append(1)
    return column


def peirce_matrix(ty) -> ExactMatrix:
    """Coefficient matrix of the evanescence conditions for a type.

    One int row per (variable, power of t) pair with powers
    1..(degree-1), plus a final all-ones row for the coefficient-sum
    condition; column k is ``peirce_column`` of monomial k in the
    canonical enumeration of the type's monomials, decoded once per
    distinct packed Peirce entry.
    """
    ty = normalize_type(ty)
    monomials = monomials_of_type(ty)
    variables = tuple(i + 1 for i, count in enumerate(ty) if count)
    decoded = {}  # packed Peirce entry -> its column, decoded once
    columns = []
    for m in monomials:
        packed = _packed(m, variables, 64)
        columns.append(decoded.get(packed) or decoded.setdefault(packed, peirce_column(m, ty)))
    rows = [list(row) for row in zip(*columns)]
    active = [Variable(i + 1).name for i, count in enumerate(ty) if count]
    row_labels = [(v, power) for v in active for power in range(1, sum(ty))] + [("sum", 0)]
    return ExactMatrix(rows=rows, row_labels=row_labels, col_labels=list(monomials))


def homogeneous_nullspace(ty):
    """(monomials, nullspace forms over their columns) for a type."""
    matrix = peirce_matrix(ty)
    return matrix.col_labels, nullspace(matrix)


def generate_homogeneous(ty) -> list[Identity]:
    """One verified Identity per nullspace basis vector.  The forms of a
    group of equal free columns share den and every term but the last,
    (f, lcm // g): each group is one Peirce class, its member the last term."""
    ty = normalize_type(ty)
    monomials, basis = homogeneous_nullspace(ty)
    variables = tuple(i + 1 for i, count in enumerate(ty) if count)
    classes = {}  # (den, the shared terms, the member's coefficient) -> the class
    identities = []
    for den, (*shared, (k, n)) in basis:
        key = (den, *shared, n)
        cls = classes.get(key)
        if cls is None:
            form = [(monomials[j], c) for j, c in shared]
            cls = classes[key] = peirce_class(den, form, n, monomials[k], variables)
        identities.append(placed(monomials[k], cls, len(shared), ty, False))
    return identities


def homogeneous_dimension(ty) -> int:
    """Dimension of the homogeneous evanescent identities of a type: the
    nullity of its Peirce matrix, read from the rank alone."""
    matrix = peirce_matrix(ty)
    return matrix.shape[1] - len(rref(_distinct_columns(matrix.rows)[1])[1])
