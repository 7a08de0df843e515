import functools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from evanescent import homgen
from evanescent.homgen import (
    LinearSolveError,
    FactoredSystem,
    factor,
    generate_homogeneous,
    homogeneous_classes,
    nullspace,
    peirce_matrix,
    rref,
    solve_unique,
)
from evanescent import magma, trainsgen
from evanescent.magma import monomials_of_type, w_number
from evanescent.peirce import EvanescenceError, height_counts, is_evanescent, peirce_tree
from evanescent.poly import Polynomial
from evanescent.rationals import ONE, Q, ZERO, as_ints
from evanescent.syntax import parse

from conftest import (
    SpanChecker,
    _dense_order,
    dense,
    fraction_nullspace,
    fraction_rref,
    homogeneous_dimension,
)

# exact dimensions, frozen after a first run; the paper proves only the
# lower bounds asserted in test_dimension_bounds
EXACT_DIMS = {
    ("n",): {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 2, 7: 6, 8: 17, 9: 39},
    ("n", 1): {1: 0, 2: 0, 3: 0, 4: 3, 5: 12, 6: 36, 7: 94, 8: 234},
    ("n", 2): {1: 0, 2: 2, 3: 9, 4: 33, 5: 96, 6: 268, 7: 712},
    ("n", 1, 1): {1: 0, 2: 3, 3: 16, 4: 57, 5: 171, 6: 479, 7: 1293},
}


def shape_type(shape, n):
    return (n,) + tuple(c for c in shape if isinstance(c, int))


def test_rref_identity():
    m, pivots = rref([[1, 0], [0, 1]])
    assert pivots == [0, 1]
    assert m == [[1, 0], [0, 1]]


def random_rational_matrix(rng):
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)

    def entry():
        if rng.random() < 0.4:
            return 0
        return Q(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7, 6, 21]))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(["duplicate", "multiple", "combination", "zero column"])
        if kind == "zero column":
            col = rng.randrange(ncols)
            for row in rows:
                row[col] = 0
        elif kind == "combination" and nrows > 1:
            a, b = rng.sample(range(len(rows)), 2)
            s, t = Q(rng.randint(-3, 3), 7), Q(rng.randint(-3, 3), 2)
            rows.append([s * u + t * v for u, v in zip(rows[a], rows[b])])
        else:
            row = rng.choice(rows)
            scale = 1 if kind == "duplicate" else Q(rng.choice([-3, 2, 5]), rng.choice([2, 3, 7]))
            rows.insert(rng.randrange(len(rows) + 1), [scale * c for c in row])
    return rows


def assert_rref_matches_fraction_elimination(rows):
    """rref's int rows, each divided by its pivot entry, are the nonzero
    rows of the Fraction elimination, and each int row is primitive."""
    got, pivots = rref(rows)
    want, want_pivots = fraction_rref(rows)
    assert pivots == want_pivots, rows
    assert len(got) == len(pivots)
    for row, pc in zip(got, pivots):
        assert all(type(c) is int for c in row)
        assert row[pc] > 0 and math.gcd(*row) == 1
    assert [[Q(c, row[pc]) for c in row] for row, pc in zip(got, pivots)] == want[: len(pivots)]
    assert not any(any(row) for row in want[len(pivots) :]), rows


def test_rref_matches_fraction_elimination():
    rng = random.Random(7)
    for _ in range(600):
        assert_rref_matches_fraction_elimination(random_rational_matrix(rng))
    assert rref([]) == fraction_rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])
    for ty in [(5, 1, 1), (6, 2)]:
        assert_rref_matches_fraction_elimination(peirce_matrix(ty).rows)


def assert_nullspace_form(form):
    """A nullspace form (den, ((col, n), ...)): nonzero primitive ints by
    increasing column, the first equal to den > 0."""
    den, terms = form
    assert type(den) is int and den > 0
    assert terms[0][1] == den
    assert all(type(n) is int and n for _, n in terms)
    assert [j for j, _ in terms] == sorted({j for j, _ in terms})
    assert math.gcd(*(n for _, n in terms)) == 1


TIE_BREAKS = (
    "same column, different value",
    "negative against missing",
    "positive against missing",
    "prefix",
)


def tie_break(a, b):
    """What decides the dense order of two nullspace forms with the same
    lead: the first column where their values differ holds entries of
    both, or of one only; "prefix" when the other form has no entries
    left, so that its support is a prefix of the first's."""
    va, vb = ({j: Q(n, den) for j, n in terms} for den, terms in (a, b))
    j = min(k for k in va.keys() | vb.keys() if va.get(k, 0) != vb.get(k, 0))
    if j in va and j in vb:
        return "same column, different value"
    present, missing = (va, vb) if j in va else (vb, va)
    if max(missing) < j:
        return "prefix"
    return "negative against missing" if present[j] < 0 else "positive against missing"


def test_nullspace_matches_fraction_nullspace():
    rng = random.Random(11)
    tie_breaks = dict.fromkeys(TIE_BREAKS, 0)
    for _ in range(400):
        rows = random_rational_matrix(rng)
        got = nullspace(rows)
        assert [dense(form, len(rows[0])) for form in got] == fraction_nullspace(rows), rows
        for form in got:
            assert_nullspace_form(form)
        for a, b in zip(got, got[1:]):
            if a[1][0][0] == b[1][0][0]:
                tie_breaks[tie_break(a, b)] += 1
    # the order is read from the sparse entries: each way a comparison of
    # two basis vectors with the same lead can be decided occurs.  No
    # support is a prefix of another's: each ends at its own free column,
    # where every other basis vector is 0 (test_dense_order_on_prefixes).
    prefixes = tie_breaks.pop("prefix")
    assert prefixes == 0 and min(tie_breaks.values()) >= 20, tie_breaks
    for ty in [(5, 1, 1), (6, 2)]:
        matrix = peirce_matrix(ty)
        got = nullspace(matrix)
        assert [dense(form, matrix.shape[1]) for form in got] == fraction_nullspace(matrix.rows)
    # leads 0, 0, 2: the lead goes first, and plain tuple order differs
    rows = [[1, 1, 0, 0, Q(2, 3)], [0, 0, 0, 1, Q(-1, 7)]]
    got = [dense(form, 5) for form in nullspace(rows)]
    assert got == fraction_nullspace(rows)
    assert [next(i for i, c in enumerate(v) if c) for v in got] == [0, 0, 2]
    assert got != sorted(got)


def test_nullspace_of_repeated_columns_matches_fraction_nullspace():
    # repeated, zero and all-equal columns: each distinct column is
    # eliminated once and its forms are read for every free column of
    # its group
    rng = random.Random(29)
    for _ in range(300):
        rows = random_rational_matrix(rng)
        ncols = len(rows[0])
        picks = [rng.randrange(ncols + 1) for _ in range(rng.randint(1, 10))]
        rows = [[row[j] if j < ncols else 0 for j in picks] for row in rows]
        got = nullspace(rows)
        assert [dense(form, len(picks)) for form in got] == fraction_nullspace(rows), rows
        for form in got:
            assert_nullspace_form(form)
    for rows in ([[3] * 5, [-1] * 5], [[0] * 4] * 3, [[Q(1, 2)] * 3]):
        got = nullspace(rows)
        assert [dense(form, len(rows[0])) for form in got] == fraction_nullspace(rows)


def test_nullspace_eliminates_distinct_columns_once(monkeypatch):
    # (6, 1, 1) has 497 columns, 246 of them distinct
    matrix = peirce_matrix((6, 1, 1))
    widths = []

    def recorded(rows):
        widths.append(len(rows[0]))
        return rref(rows)

    monkeypatch.setattr(homgen, "rref", recorded)
    got = nullspace(matrix)
    assert widths == [246] and matrix.shape[1] == 497
    assert [dense(form, 497) for form in got] == fraction_nullspace(matrix.rows)
    assert homogeneous_dimension((6, 1, 1)) == len(got) and widths == [246, 246]


def test_dense_order_on_prefixes():
    """The nullspace sort key orders random forms (den, ((col, n), ...))
    as their dense tuples, including forms whose support is a prefix of
    another's, which no nullspace basis has."""
    rng = random.Random(13)
    values = [Q(-2), Q(-1), Q(-1, 2), Q(1, 3), ONE, Q(2)]
    tie_breaks = dict.fromkeys(TIE_BREAKS, 0)
    for _ in range(200):
        vectors = []
        for _ in range(rng.randint(2, 8)):
            lead = rng.randint(0, 1)
            vec = [ZERO] * lead + [ONE] + [ZERO] * (5 - lead)
            for j in range(lead + 1, rng.randint(lead + 1, 6)):
                if rng.random() < 0.6:
                    vec[j] = rng.choice(values)
            vectors.append(tuple(vec))
        forms = []
        for vec in vectors:
            den = math.lcm(*(c.denominator for c in vec)) * rng.choice([1, 2])
            forms.append((den, tuple((j, int(c * den)) for j, c in enumerate(vec) if c)))
        scale = math.lcm(*(den for den, _ in forms))
        got = sorted(forms, key=lambda form: _dense_order(form, scale))
        want = sorted(vectors, key=lambda v: (next(i for i, c in enumerate(v) if c), v))
        assert [dense(form, 6) for form in got] == want, vectors
        for a, b in zip(got, got[1:]):
            if a[1][0][0] == b[1][0][0] and dense(a, 6) != dense(b, 6):
                tie_breaks[tie_break(a, b)] += 1
    assert min(tie_breaks.values()) >= 20, tie_breaks


def _in_dense_order(forms) -> bool:
    scale = math.lcm(*(den for den, _ in forms))
    return forms == sorted(forms, key=lambda form: _dense_order(form, scale))


def _shape_types(max_degree):
    """Every type of the four shapes n, (n, 1), (n, 2) and (n, 1, 1) up to
    the total degree."""
    return [(n, *rest) for rest in [(), (1,), (2,), (1, 1)] for n in range(1, max_degree - sum(rest) + 1)]


def test_nullspace_and_identities_keep_the_oracle_order():
    # the forms are ordered per class, and the classes merged: the result
    # is the per-form order of the oracle key, for nullspace and for
    # generate_homogeneous, which prints the forms' identities in turn
    for ty in _shape_types(9):
        matrix = peirce_matrix(ty)
        forms = nullspace(matrix)
        assert _in_dense_order(forms), ty
        monomials = matrix.col_labels
        want = [(den, tuple((monomials[j], n) for j, n in terms)) for den, terms in forms]
        assert [(i.den, i.terms) for i in generate_homogeneous(ty)] == want, ty


def test_nullspace_of_repeated_columns_keeps_the_oracle_order():
    # repeated and proportional columns: proportional ones are classes of
    # their own whose forms can interleave, and do here
    rng = random.Random(31)
    interleaved = 0
    for _ in range(300):
        rows = random_rational_matrix(rng)
        ncols = len(rows[0])
        picks = [(rng.randrange(ncols), rng.choice([1, 1, -1, 2])) for _ in range(rng.randint(1, 10))]
        rows = [[row[j] * s for j, s in picks] for row in rows]
        forms = nullspace(rows)
        assert _in_dense_order(forms), rows
        runs = [(den, terms[:-1], terms[-1][1]) for den, terms in forms]
        starts = [run for i, run in enumerate(runs) if not i or run != runs[i - 1]]
        interleaved += len(starts) > len(set(starts))
    assert interleaved >= 10


def test_two_classes_that_interleave():
    # columns 2 and 5 are one class and column 4 another, with column 1 a
    # zero column: the forms of 2 and 5, with a positive member entry, go
    # in descending column order, and the form of 4 falls between them
    rows = [[1, 0, -1, 0, -1, -1], [0, 0, 0, 1, -1, 0]]
    forms = nullspace(rows)
    assert [dense(form, 6) for form in forms] == fraction_nullspace(rows)
    assert [terms[-1][0] for _, terms in forms] == [5, 4, 2, 1]
    # the runs split the class of 2 and 5 around the class of 4
    class_forms = homgen._class_forms([[1, 0, -1, 0, -1], [0, 0, 0, 1, -1]], [[0], [1], [2, 5], [3], [4]])
    runs = homgen._runs(class_forms)
    assert [members for *_, members in runs] == [[5], [4], [2], [1]]
    assert runs[0][:3] == runs[2][:3] == (1, ((0, 1),), 1)
    assert homgen._forms(runs) == forms and _in_dense_order(forms)


def test_runs_merge_a_chain_of_overlapping_classes():
    # three classes with one shared term, 1 at column 0, over dens 1, 2
    # and 3, and positive member coefficients: each sorts its members by
    # descending column.  B starts inside A and ends after it, and C
    # starts after A ends but inside B, so C overlaps the group only
    # through B
    forms = [(1, ((0, 1),), 1, [4, 20]), (2, ((0, 2),), 1, [2, 10]), (3, ((0, 3),), 1, [3])]
    members = [(den, (*shared, (f, coef))) for den, shared, coef, free in forms for f in free]
    scale = math.lcm(1, 2, 3)
    want = sorted(members, key=lambda form: _dense_order(form, scale))
    runs = homgen._runs(forms)
    assert homgen._forms(runs) == want
    assert [run[3] for run in runs] == [[20], [10], [4], [3], [2]]


@pytest.mark.parametrize(
    "ty, letters",
    [((2, 0, 1), (1, 3)), ((0, 3, 1), (2, 3)), ((1, 0, 0, 2), (1, 4))],
)
def test_peirce_matrix_names_the_letters_of_a_type_with_a_gap(ty, letters):
    # one row per letter of the type, by index, and power 1 .. degree-1,
    # in turn, then the coefficient-sum row
    matrix = peirce_matrix(ty)
    degree = sum(ty)
    assert magma.letters(ty) == letters
    labels = [(i, p) for i in letters for p in range(1, degree)] + [(None, 0)]
    assert len(matrix.rows) == len(labels)
    for (i, power), row in zip(labels, matrix.rows):
        want = [1] * len(row) if i is None else [
            (height_counts(m, i) + [0] * degree)[power] for m in matrix.col_labels
        ]
        assert row == want


def test_homogeneous_dimension_is_nullspace_size():
    for ty in [(1,), (4,), (6,), (4, 1), (2, 2), (3, 2), (2, 1, 1), (3, 1, 1)]:
        assert homogeneous_dimension(ty) == len(nullspace(peirce_matrix(ty)))


def test_nullspace_trivial_cases():
    assert nullspace([[1, 0], [0, 1]]) == []
    basis = nullspace([[0, 0, 0], [0, 0, 0]])
    assert basis == [(1, ((0, 1),)), (1, ((1, 1),)), (1, ((2, 1),))]


def test_nullspace_normalization():
    # kernel of (1, 1, 1) is 2-dimensional; leading entries must be 1
    basis = nullspace([[1, 1, 1]])
    assert len(basis) == 2
    for vec in (dense(form, 3) for form in basis):
        lead = next(c for c in vec if c)
        assert lead == 1
    # leads on a pivot column, with entry -2 before the sign is turned:
    # the form's lead entry is den > 0
    assert nullspace([[2, 0, 4], [0, 1, 0]]) == [(2, ((0, 2), (2, -1)))]
    assert nullspace([[1, 0, 2], [0, 1, -3]]) == [(2, ((0, 2), (1, -3), (2, -1)))]


def fractions_of(form):
    """The entries n / den of a solution in its int form (den, nums)."""
    den, nums = form
    return tuple(Q(n, den) for n in nums)


def solved(system, rhs):
    """The entries of x with A x = b, for a rational b: b is nums / den
    (``as_ints``), so x is the int solve for nums, over den."""
    den, nums = as_ints(rhs)
    xden, xnums = solve_unique(system, nums)
    return tuple(Q(n, xden * den) for n in xnums)


def test_solve_unique():
    assert fractions_of(solve_unique(factor([[2, 0], [0, 4]]), [1, 1])) == (Q(1, 2), Q(1, 4))
    with pytest.raises(LinearSolveError):
        solve_unique(factor([[1, 1]]), [1])  # underdetermined
    with pytest.raises(LinearSolveError):
        solve_unique(factor([[1], [1]]), [1, 2])  # inconsistent
    for rhs in ([1], [1, 1, 1]):  # one entry per row of A
        with pytest.raises(ValueError):
            solve_unique(factor([[1], [1]]), rhs)


def test_factored_system_answers_many_right_hand_sides():
    rows = [[1, 2, 0], [0, 1, 1], [1, 0, 3], [2, 3, 1]]
    system = factor(rows)
    assert isinstance(system, FactoredSystem)
    for x in [(1, 0, 0), (Q(1, 2), -3, 7), (0, 0, 0), (5, Q(2, 3), -1)]:
        rhs = [sum(Q(a) * b for a, b in zip(row, x)) for row in rows]
        want = tuple(Q(c) for c in x)
        assert solved(system, rhs) == want


def fraction_solve(rows, rhs):
    """The reference: solve A x = b from the Fraction elimination of [A | b]."""
    ncols = len(rows[0])
    reduced, pivots = fraction_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        raise LinearSolveError("inconsistent linear system")
    if len(pivots) < ncols:
        raise LinearSolveError("underdetermined linear system")
    return tuple(row[ncols] for row in reduced[:ncols])


def test_factor_on_rational_rows_matches_fraction_solve():
    rng = random.Random(5)

    def entry():
        return Q(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 21]))

    outcomes = {"solved": 0, "inconsistent linear system": 0, "underdetermined linear system": 0}
    for _ in range(300):
        ncols = rng.randint(1, 5)
        rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, ncols + 3))]
        if rng.random() < 0.3:
            rows.append([Q(2, 3) * c for c in rng.choice(rows)])
        system = factor(rows)
        x = [entry() for _ in range(ncols)]
        consistent = [sum(a * b for a, b in zip(row, x)) for row in rows]
        for rhs in (consistent, [entry() for _ in rows]):
            try:
                want = fraction_solve(rows, rhs)
            except LinearSolveError as exc:
                outcomes[str(exc)] += 1
                with pytest.raises(LinearSolveError, match=str(exc)):
                    solved(system, rhs)
            else:
                outcomes["solved"] += 1
                assert solved(system, rhs) == want
    assert min(outcomes.values()) > 50, outcomes


def test_factored_system_keeps_both_checks():
    for rows, rhs, message in [
        ([[1, 1]], [1], "underdetermined linear system"),
        ([[1], [1]], [1, 2], "inconsistent linear system"),
        # inconsistent wins over underdetermined, as in a single elimination
        ([[1, 1], [2, 2]], [1, 3], "inconsistent linear system"),
    ]:
        with pytest.raises(LinearSolveError, match=message):
            solve_unique(factor(rows), rhs)
    assert fractions_of(solve_unique(factor([[1, 1], [2, 2], [0, 1]]), [1, 2, 3])) == (-2, 3)


_ENTRY = st.sampled_from([0] * 6 + [1, -1, 2, -3, 5])
_SCALAR = st.one_of(_ENTRY, st.builds(Q, st.integers(-6, 6), st.integers(1, 6)))


@st.composite
def _sparse_system(draw):
    """Rows shaped like a Peirce span system (mostly zeros, more rows than
    columns) and a right-hand side of ints or Q: A x for a drawn x, or drawn."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(_ENTRY, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=ncols, max_size=ncols + 4))
    if draw(st.booleans()):
        x = draw(st.lists(_SCALAR, min_size=ncols, max_size=ncols))
        return rows, [sum(a * c for a, c in zip(r, x)) for r in rows]
    return rows, draw(st.lists(_SCALAR, min_size=len(rows), max_size=len(rows)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_sparse_system())
@example(([[1, 2], [2, 4], [0, 0]], [1, 2, 0]))  # rank-deficient, consistent
@example(([[1, 0], [0, 1], [1, 1]], [1, Q(1, 2), 0]))  # inconsistent
def test_column_wise_solve_matches_fraction_solve(system):
    rows, rhs = system
    try:
        want = fraction_solve(rows, rhs)
    except LinearSolveError as exc:
        with pytest.raises(LinearSolveError, match=str(exc)):
            solved(factor(rows), rhs)
    else:
        assert solved(factor(rows), rhs) == want
        # the reduced int form: one positive denominator, gcd 1
        den, nums = solve_unique(factor(rows), as_ints(rhs)[1])
        assert den > 0 and math.gcd(den, *nums) == 1
        assert all(type(n) is int for n in nums)


def test_span_solve_factors_each_type_once(monkeypatch):
    ty = (4, 1, 1)
    calls = []
    original = homgen.rref

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(homgen, "rref", counted)
    monkeypatch.setattr(trainsgen, "_record", functools.cache(trainsgen._record.__wrapped__))
    basis = trainsgen._record(ty).basis
    solved = [trainsgen.solve_Pw(w) for w in monomials_of_type(ty) if w not in basis]
    assert len(solved) > 1
    assert len(calls) == 1


def test_span_checker():
    checker = SpanChecker([(1, 0, 1), (0, 1, 1)])
    assert checker.contains((1, 1, 2))
    assert not checker.contains((1, 1, 1))


def test_peirce_matrix_type5():
    matrix = peirce_matrix((5,))
    monomials = matrix.col_labels
    assert [str(peirce_tree(m, 1).to_string()) for m in monomials] == [
        "2t^4 + t^3 + t^2 + t",
        "4t^3 + t",
        "2t^3 + 3t^2",
    ]
    # one row per power 1..4 plus the coefficient-sum row
    assert matrix.shape == (5, 3)
    assert matrix.rows[-1] == [1, 1, 1]


@pytest.mark.parametrize("ty", [(4, 2), (6, 2), (8, 1), (6, 1, 1)])
def test_peirce_matrix_matches_height_counts(ty):
    # the matrix reads the packed Peirce cache; height_counts is the
    # independent top-down walk
    matrix = peirce_matrix(ty)
    degree = sum(ty)
    rows = [
        [(height_counts(m, i + 1) + [0] * degree)[power] for m in matrix.col_labels]
        for i, count in enumerate(ty)
        if count
        for power in range(1, degree)
    ]
    assert matrix.rows == rows + [[1] * len(matrix.col_labels)]
    assert matrix.col_labels == list(monomials_of_type(ty))


def test_peirce_matrix_type1_trivial():
    matrix = peirce_matrix((1,))
    assert matrix.shape == (1, 1)
    assert nullspace(matrix) == []


def test_peirce_matrix_type22_columns():
    assert peirce_matrix((2, 2)).shape[1] == 6 == w_number((2, 2))


def test_nonexistence_cases():
    for ty in [(1,), (2,), (3,), (4,), (5,), (1, 1), (2, 1), (3, 1), (1, 2), (1, 1, 1)]:
        assert generate_homogeneous(ty) == []


def test_type6_span_contains_paper_generator():
    matrix = peirce_matrix((6,))
    monomials, basis = matrix.col_labels, nullspace(matrix)
    g = parse("x^3 x^3 + ((x^2 x^2) x) x - x^4 x^2 - (x^3 x^2) x")
    vec = [g.terms.get(m, ZERO) for m in monomials]
    assert SpanChecker([dense(form, len(monomials)) for form in basis]).contains(vec)


def test_type22_span_contains_paper_generator():
    matrix = peirce_matrix((2, 2))
    monomials, basis = matrix.col_labels, nullspace(matrix)
    g = parse("x^2 y^2 - (x y)(x y)")
    vec = [g.terms.get(m, ZERO) for m in monomials]
    assert SpanChecker([dense(form, len(monomials)) for form in basis]).contains(vec)


def test_generated_identities_verify():
    for ty in [(6,), (4, 1), (2, 2), (2, 1, 1)]:
        for ident in generate_homogeneous(ty):
            assert ident.report.is_evanescent_identity
            assert ident.polynomial.homogeneous_type() == ty
            assert not ident.train


# ---------------------------------------------------------------------------
# Peirce classes: the nullspace forms of one group of equal free columns


def _largest_run(runs):
    """The index of the first run with the most members."""
    return max(range(len(runs)), key=lambda c: len(runs[c][3]))


def _raised_report(monkeypatch, ty, monomials, runs):
    """The report raised when the runs are injected where
    ``iter_homogeneous`` reads the nullspace by class, and the
    identities it yields before."""
    monkeypatch.setattr(homgen, "homogeneous_classes", lambda t: (monomials, runs))
    yielded = []
    with pytest.raises(EvanescenceError) as raised:
        for identity in homgen.iter_homogeneous(ty):
            yielded.append(identity)
    return raised.value.report, yielded


def _assert_own_report(report, monomials, form):
    den, terms = form
    oracle = is_evanescent(Polynomial({monomials[k]: Q(n, den) for k, n in terms}))
    assert report.peirce == oracle.peirce and report.at_ones == oracle.at_ones == 0
    assert not report.is_peirce_evanescent and not oracle.is_peirce_evanescent
    assert not report.is_evanescent_identity and not oracle.is_evanescent_identity


def test_a_peirce_type_has_one_run_per_class():
    for ty in [(4, 2), (6, 1, 1), (8,)]:
        monomials, runs = homogeneous_classes(ty)
        assert len({(den, shared, coef) for den, shared, coef, _ in runs}) == len(runs)
        assert homgen._forms(runs) == nullspace(peirce_matrix(ty))


def test_a_wrong_shared_form_fails_every_member(monkeypatch):
    # one unit moved between two shared coefficients of a class: the
    # coefficient sum stays 0, but the class's Peirce sums no longer match
    # any member's own entry, so each member raises with its own report
    ty = (4, 2)
    monomials, runs = homogeneous_classes(ty)
    c = _largest_run(runs)
    den, shared, coef, members = runs[c]
    shared = list(shared)
    # a unit from the first coefficient that is not 1 to another one
    i = next(i for i, (_, n) in enumerate(shared) if n != 1)
    j = next(j for j, (_, n) in enumerate(shared) if j != i and n != -1)
    shared[i] = (shared[i][0], shared[i][1] - 1)
    shared[j] = (shared[j][0], shared[j][1] + 1)
    shared = tuple(shared)
    for k in range(len(members)):
        # the class's members in their place, member k first
        rotated = members[k:] + members[:k]
        corrupted = [*runs[:c], (den, shared, coef, rotated), *runs[c + 1:]]
        report, yielded = _raised_report(monkeypatch, ty, monomials, corrupted)
        _assert_own_report(report, monomials, (den, (*shared, (members[k], coef))))
        assert len(yielded) == sum(len(run[3]) for run in runs[:c])
    assert len(members) == 4


def test_a_member_of_another_column_fails_its_own_check(monkeypatch):
    # the second member of a class replaced by the first member of another
    # class: it shares the class of the first member, which passes, and it
    # raises on its own packed Peirce entry
    ty = (4, 2)
    monomials, runs = homogeneous_classes(ty)
    c = _largest_run(runs)
    den, shared, coef, members = runs[c]
    other = runs[c - 1 if c else 1][3][0]
    corrupted = list(runs)
    corrupted[c] = (den, shared, coef, [members[0], other, *members[2:]])
    report, yielded = _raised_report(monkeypatch, ty, monomials, corrupted)
    _assert_own_report(report, monomials, (den, (*shared, (other, coef))))
    assert yielded[-1].member is monomials[members[0]]


def test_a_fault_in_x_alone_fails_the_check(monkeypatch):
    # the class form is moved by a - b, for two monomials a and b below
    # every member with the same Peirce polynomial in y and different ones
    # in x: the wrong form differs from a true identity in x's Peirce
    # polynomial alone, so a check that read any other letters would pass
    ty = (4, 2)
    monomials, runs = homogeneous_classes(ty)
    c = _largest_run(runs)
    den, shared, coef, members = runs[c]
    below = range(min(members))
    a, b = next(
        (a, b) for a in below for b in below
        if height_counts(monomials[a], 2) == height_counts(monomials[b], 2)
        and height_counts(monomials[a], 1) != height_counts(monomials[b], 1)
    )
    terms = dict(shared)
    terms[a] = terms.get(a, 0) + den
    terms[b] = terms.get(b, 0) - den
    wrong = tuple(sorted((j, n) for j, n in terms.items() if n))
    corrupted = [*runs[:c], (den, wrong, coef, members), *runs[c + 1:]]
    report, _ = _raised_report(monkeypatch, ty, monomials, corrupted)
    _assert_own_report(report, monomials, (den, (*wrong, (members[0], coef))))
    x, y = sorted(report.peirce)
    assert not report.peirce[x].is_zero and report.peirce[y].is_zero


def test_a_failed_check_mid_stream_keeps_the_lines_before(monkeypatch, capsys):
    # a re-check fails only on a program fault: the lines printed before
    # it stay, then one error line, and the exit status is 2
    from evanescent.cli import main

    ty = (4, 2)
    monomials, runs = homogeneous_classes(ty)
    c = _largest_run(runs)
    den, shared, coef, members = runs[c]
    wrong = ((shared[0][0], shared[0][1] + den), *shared[1:])
    corrupted = [*runs[:c], (den, wrong, coef, members), *runs[c + 1:]]
    assert main(["homog", "--type", "4,2"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    monkeypatch.setattr(homgen, "homogeneous_classes", lambda t: (monomials, corrupted))
    assert main(["homog", "--type", "4,2"]) == 2
    out, err = capsys.readouterr()
    assert out == "".join(lines[: sum(len(run[3]) for run in runs[:c])]) != ""
    assert err == "error: polynomial is not an evanescent identity\n"


def test_exact_dimensions_regression():
    for shape, dims in EXACT_DIMS.items():
        for n, expected in dims.items():
            if n > 5 and shape == ("n", 1, 1):
                continue  # covered by the acceptance suite
            if n > 6 and shape in (("n", 1), ("n", 2)):
                continue
            assert homogeneous_dimension(shape_type(shape, n)) == expected


def test_dimension_bounds():
    # stated lower bounds: W-(n-2), W-2(n-1), W-2n, W-3n
    for n in range(6, 9):
        assert homogeneous_dimension((n,)) >= w_number((n,)) - (n - 2)
    for n in range(4, 7):
        assert homogeneous_dimension((n, 1)) >= w_number((n, 1)) - 2 * (n - 1)
    for n in range(2, 6):
        assert homogeneous_dimension((n, 2)) >= w_number((n, 2)) - 2 * n
    for n in range(2, 5):
        assert homogeneous_dimension((n, 1, 1)) >= w_number((n, 1, 1)) - 3 * n
