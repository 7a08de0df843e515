"""Homogeneous evanescent identities via exact nullspace computation.

For a type, the coefficients of t^k in every Peirce polynomial of the
enumerated monomials, together with the coefficient-sum condition, form
a linear system over Q; its nullspace is exactly the space of
homogeneous evanescent identities of that type.

The elimination is fraction-free: ``rref`` puts each row over the lcm of
its denominators and eliminates in Python ints, keeping every row
primitive (the gcd of its entries divided out).  It returns one int row
per pivot, with no division; a row divided by its pivot entry is a row of
the reduced row-echelon form over Q.  ``factor`` and ``nullspace`` read
those int rows directly; ``nullspace`` returns sparse int forms, which
the evanescence check takes as they are.  ``factor`` keeps its reduced
rows over one int denominator, column by column, so ``solve_unique``
sums in ints over the nonzero entries of an int right-hand side alone,
and returns its solution over one denominator too: no ``Q`` is built
here.

A type is worked by Peirce class.  Monomials with one packed 64-bit
Peirce entry have one Peirce column, so ``peirce_classes`` maps each
entry to its members, in canonical order of first occurrence, and the
classes are the matrix's distinct columns.  ``peirce_matrix`` decodes
one column per class, with ``peirce._digits``.  ``homogeneous_classes``
eliminates the classes' columns alone and keeps the nullspace as one
entry per class (``_class_forms``): den, the shared terms at the pivot
columns, the member coefficient and the free members, whose forms
differ only in their last term, the member's.  ``_runs`` orders the
classes by one key each, the key of their first member, and merges
classes whose members interleave, so the members come out in the order
of their forms; ``nullspace`` on any matrix groups its equal columns
the same way.  The columns index the sorted ``monomials_of_type``, so
an identity's terms are already in canonical order.

``iter_homogeneous`` checks each class once, by ``peirce_class`` (a
class split into runs once per run), and each member on its own, by
``placed``, and yields each identity as soon as it is checked;
``generate_homogeneous`` is its list, and ``cmd_homog`` prints from it as
it goes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .magma import Monomial, letters, monomials_of_type, normalize_type
from .peirce import Identity, _digits, _packed, peirce_class, placed
from .rationals import as_ints


class LinearSolveError(ValueError):
    pass


class ExactMatrix(NamedTuple):
    rows: list
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
    the dense tuples of Q would be.  Equal columns are eliminated once,
    as one class each (``_class_forms``), and the forms are read from the
    classes' runs (``_runs``).
    """
    rows = matrix.rows if isinstance(matrix, ExactMatrix) else matrix
    if not rows:
        raise ValueError("nullspace of an empty matrix is undefined")
    classes = _classes(zip(*rows))
    return _forms(_runs(_class_forms([list(row) for row in zip(*classes)], list(classes.values()))))


def _forms(runs) -> list[tuple]:
    """The nullspace forms (den, (*shared, (f, coef))) of runs, in turn."""
    return [(den, (*shared, (f, coef))) for den, shared, coef, members in runs for f in members]


def _classes(keys) -> dict:
    """Each key -> the indices that have it, ascending, the keys in order
    of first occurrence."""
    classes: dict = {}
    for k, key in enumerate(keys):
        classes.setdefault(key, []).append(k)
    return classes


def _class_forms(rows, classes) -> list[tuple]:
    """The nullspace of a matrix by classes of equal columns.

    ``rows`` are the rows of the distinct columns, one per class, and
    ``classes`` the columns of each class, ascending.  ``rref`` runs on
    the distinct columns, whose reduced form is the matrix's own with
    each column read from its class: a class's first column is the only
    one that can be a pivot, and the others are free.  The forms of a
    class's free columns share den and every term but their own last one
    (f, coef), so a class gives one entry (den, the shared terms ((col,
    n), ...) at pivot columns, coef, its free columns), found once.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    firsts = [members[0] for members in classes]
    forms = []
    for k, members in enumerate(classes):
        free = members[1:] if k in pivot_set else members
        if not free:
            continue
        # an int row is zero left of its pivot, so every pc here is <= k
        entries = [(firsts[pc], row[k], row[pc]) for row, pc in zip(reduced, pivots) if row[k]]
        lcm = math.lcm(*(p for _, _, p in entries))
        nums = [-a * (lcm // p) for _, a, p in entries] + [lcm]
        g = math.gcd(*nums)
        g = g if nums[0] > 0 else -g  # so that the lead entry is den > 0
        shared = tuple((c, n // g) for (c, _, _), n in zip(entries, nums))
        forms.append((nums[0] // g, shared, lcm // g, free))
    return forms


def _runs(forms) -> list[tuple]:
    """The members of the class forms in the order of their nullspace
    forms, as runs (den, shared, coef, members) of one class each.

    A form's order is its key: its lead column, then each later entry,
    over the lcm ``scale`` of the dens, as (0, j, n) if negative and (2,
    -j, n) if positive, which orders the forms as their dense tuples of Q
    (a missing entry, 0, lies between the two tags).  A class's members
    share every part of the key but their own entry, the last: they
    sort by column, ascending when coef < 0 and descending when coef > 0,
    and a class with no shared terms sorts by its members' lead columns.
    No key is a prefix of another's, since a member's column is free and
    a shared column a pivot, so the classes are sorted by the keys of
    their first members alone.  Where a class's last member sorts after
    the next class's first one, which no Peirce matrix has been seen to
    give, the overlapping classes' members are sorted by their own keys,
    and a class is split into runs.
    """
    scale = math.lcm(*(den for den, _, _, _ in forms))
    spans = []  # (first key, last key, the class's key prefix and member entry, form)
    for form in forms:
        den, shared, coef, free = form
        k = scale // den
        prefix = (shared[0][0], *[_tag(j, n * k) for j, n in shared[1:]]) if shared else ()
        members = free[::-1] if shared and coef > 0 else free
        v = coef * k
        spans.append((_key(prefix, v, members[0]), _key(prefix, v, members[-1]), prefix, v,
                      (den, shared, coef, members)))
    spans.sort(key=lambda span: span[0])
    runs, group, last = [], [], None
    for span in spans:
        if group and span[0] > last:
            runs += _merged(group)
            group = []
        if not group or span[1] > last:
            last = span[1]
        group.append(span)
    return runs + _merged(group)


def _merged(group) -> list[tuple]:
    """The runs of a group of classes whose members overlap, from the
    members' own keys; a group of one class is its one run."""
    if len(group) == 1:
        return [group[0][-1]]
    keyed = sorted((_key(prefix, v, f), i, f)
                   for i, (_, _, prefix, v, run) in enumerate(group) for f in run[3])
    runs, last = [], None
    for _, i, f in keyed:
        if i != last:
            runs.append((*group[i][-1][:3], []))
            last = i
        runs[-1][3].append(f)
    return runs


def _tag(j: int, n: int) -> tuple:
    return (0, j, n) if n < 0 else (2, -j, n)


def _key(prefix: tuple, v: int, f: int) -> tuple:
    """The order key of the form of member f of a class: the class's key
    prefix, then f's entry v, or f alone as the lead of a class with no
    shared terms."""
    return (*prefix, _tag(f, v)) if prefix else (f,)


class FactoredSystem(NamedTuple):
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


def solve_unique(system: FactoredSystem, rhs) -> tuple:
    """Solve A x = b requiring exactly one solution, for A factored once by
    ``factor`` and an int column b: M b is summed in ints over the nonzero
    entries of b.  Returns x in reduced int form (den, nums): x = nums /
    den, den > 0 and gcd(den, *nums) = 1.
    """
    acc = [0] * len(system.columns)
    for c, column in zip(rhs, system.columns, strict=True):
        if c:
            for i, n in column:
                acc[i] += c * n
    if any(acc[system.rank :]):
        raise LinearSolveError("inconsistent linear system")
    if system.rank < system.ncols:
        raise LinearSolveError("underdetermined linear system")
    nums = acc[: system.ncols]
    g = math.gcd(system.den, *nums)
    return system.den // g, tuple(n // g for n in nums)


def peirce_classes(ty) -> tuple:
    """(the type's monomials in canonical order, its Peirce classes): each
    packed 64-bit Peirce entry -> the indices of the monomials that have
    it, ascending, the entries in order of first occurrence.  Monomials
    of one class have one Peirce column, ``_column`` of the entry: the
    classes are the distinct columns of the Peirce matrix."""
    ty = normalize_type(ty)
    monomials = monomials_of_type(ty)
    variables = letters(ty)
    return monomials, _classes(_packed(m, variables, 64) for m in monomials)


def peirce_column(m: Monomial, variables: tuple, degree: int) -> list[int]:
    """Column of m, of the given degree, in the Peirce matrix of the type of
    those letters, as ints: ``_column`` of m's packed Peirce entry."""
    return _column(_packed(m, variables, 64), degree)


def _column(entry: tuple, degree: int) -> list[int]:
    """The Peirce column of a packed 64-bit entry, of a monomial of the
    given degree: for each letter in turn, the coefficients of t^1 ..
    t^(degree-1), then 1 for the coefficient sum.  The t^0 coefficient is
    zero for every monomial of degree >= 2, so it is left out.  Each
    coefficient counts leaves, so it is at most the degree and never
    negative: the entry's values, ``degree`` slots each, are put side by
    side in one int, read by one ``_digits``."""
    shift, packed = 64 * degree, 0
    for s in reversed(entry):
        packed = packed << shift | s
    column = _digits(packed, 64, degree * len(entry))
    del column[::degree]  # each letter's t^0 slot
    column.append(1)
    return column


def peirce_matrix(ty) -> ExactMatrix:
    """Coefficient matrix of the evanescence conditions for a type.

    One int row per (variable, power of t) pair with powers
    1..(degree-1), plus a final all-ones row for the coefficient-sum
    condition; column k is ``peirce_column`` of monomial k in the
    canonical enumeration of the type's monomials, decoded once per
    Peirce class.
    """
    ty = normalize_type(ty)
    monomials, classes = peirce_classes(ty)
    columns = [None] * len(monomials)
    for entry, members in classes.items():
        column = _column(entry, sum(ty))
        for k in members:
            columns[k] = column
    return ExactMatrix(rows=[list(row) for row in zip(*columns)], col_labels=list(monomials))


def homogeneous_classes(ty) -> tuple:
    """(the type's monomials, its nullspace by Peirce class): the runs
    (den, shared terms ((col, n), ...), member coefficient, members) of
    ``_runs``.  Only the classes' distinct columns are decoded and
    eliminated; no matrix is built."""
    ty = normalize_type(ty)
    monomials, classes = peirce_classes(ty)
    rows = [list(row) for row in zip(*(_column(entry, sum(ty)) for entry in classes))]
    return monomials, _runs(_class_forms(rows, list(classes.values())))


def iter_homogeneous(ty):
    """Each identity of ``generate_homogeneous``, as soon as it is checked.

    The members of a run share den, the shared terms and their
    coefficient: they are one Peirce class, checked once by
    ``peirce_class``, and each member, the last term of its form, is
    checked on its own by ``placed``.  Every class is built before the
    first member is checked, so that printing each identity as it comes
    does not interleave with the classes' sums (which costs about 5 %
    more).
    """
    ty = normalize_type(ty)
    monomials, runs = homogeneous_classes(ty)
    variables = letters(ty)
    classes = []
    for den, shared, coef, members in runs:
        form = [(monomials[j], n) for j, n in shared]
        classes.append(peirce_class(den, form, coef, monomials[members[0]], variables))
    for cls, (_, shared, _, members) in zip(classes, runs):
        for k in members:
            yield placed(monomials[k], cls, len(shared), ty, False)


def generate_homogeneous(ty) -> list[Identity]:
    """One verified Identity per nullspace basis vector, in the order of
    ``nullspace``: the list of ``iter_homogeneous``."""
    return list(iter_homogeneous(ty))
