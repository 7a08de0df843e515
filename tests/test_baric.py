import inspect
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from evanescent import baric
from evanescent.baric import (
    AlgebraError,
    BaricAlgebra,
    MutationSpec,
    VerificationResult,
    char_poly,
    evaluate,
    left_mult_matrix,
    load_algebra,
    make_mutation,
    rational_roots,
    spectrum_algebra,
    verify_identity,
    weighted_evaluate,
)
from evanescent.magma import X, Y, degree_in
from evanescent.peirce import PeircePolynomial
from evanescent.poly import Polynomial, UnboundVariableError, standard_baric_identity
from evanescent.rationals import ONE, Q, ZERO, as_ints
from evanescent.syntax import parse

from conftest import (
    apply_univariate,
    kernel_basis,
    random_baric_algebra,
    random_mutation_algebra,
    random_polynomial,
    weight_one_anchor,
    zero_vector,
)


def test_one_dimensional_field():
    algebra, e = spectrum_algebra([])
    assert algebra.dim == 1
    assert algebra.mul(e, e) == e
    assert left_mult_matrix(algebra, e) == [[1]]


def test_mutation_scales_kernel_eigenvectors():
    lam = Q(3, 2)
    algebra, e = spectrum_algebra([lam])
    e1 = (ZERO, ONE)
    assert algebra.mul(e, e1) == (ZERO, lam)


def test_mutation_validation():
    with pytest.raises(AlgebraError):
        make_mutation(MutationSpec.make([[2, 0], [0, 1]], [1, 0]))  # w not fixed
    with pytest.raises(AlgebraError):
        make_mutation(MutationSpec.make([[1, 0], [0, 1]], [0, 0]))  # w = 0


def test_kernel_products_vanish():
    rng = random.Random(17)
    for dim in (2, 3, 4, 5):
        algebra = random_mutation_algebra(rng, dim)
        kernel = kernel_basis(algebra)
        for a in kernel:
            for b in kernel:
                assert algebra.mul(a, b) == zero_vector(algebra)


def test_constructor_validation():
    # non-commutative structure constants
    structure = [[[0, 1], [1, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(AlgebraError):
        BaricAlgebra(2, structure, [1, 0])
    # weight not a character
    structure = [[[1, 1], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(AlgebraError):
        BaricAlgebra(2, structure, [1, 1])


def test_evaluate_basic():
    algebra, e = spectrum_algebra([2])
    v = (ONE, Q(7))
    assert evaluate(parse("x"), algebra, {X: v}) == v
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x y"), algebra, {X: v})
    with pytest.raises(AlgebraError):
        evaluate(parse("x"), algebra, {X: (ONE,)})


def test_difference_square_identity_on_mutation():
    rng = random.Random(23)
    algebra = random_mutation_algebra(rng, 4)
    f = parse("(x - y)(x - y)")
    anchor = weight_one_anchor(algebra)
    kernel = kernel_basis(algebra)
    for trial in range(10):
        coeffs = [Q(rng.randint(-3, 3)) for _ in kernel]
        xv = list(anchor)
        yv = list(anchor)
        for c, k in zip(coeffs, kernel):
            for i in range(algebra.dim):
                xv[i] += c * k[i]
                yv[i] += (c + 1) * k[i]
        assert evaluate(f, algebra, {X: tuple(xv), Y: tuple(yv)}) == zero_vector(algebra)


def test_weighted_equals_plain_on_weight_one():
    rng = random.Random(4)
    algebra = random_mutation_algebra(rng, 3)
    f = parse("x^2 x^2 - 2 x^3 + x^2")
    anchor = weight_one_anchor(algebra)
    assert weighted_evaluate(f, algebra, {X: anchor}) == evaluate(f, algebra, {X: anchor})


def test_weighted_evaluate_scales():
    rng = random.Random(41)
    algebra = random_mutation_algebra(rng, 2)
    f = parse("x^2 x^2 - 2 x^3 + x^2")
    anchor = weight_one_anchor(algebra)
    scaled = tuple(3 * c for c in anchor)
    assert weighted_evaluate(f, algebra, {X: scaled}) == zero_vector(algebra)
    assert evaluate(f, algebra, {X: scaled}) != zero_vector(algebra)


def test_weighted_evaluate_homogeneous_is_scaled_plain(rng):
    algebra = random_mutation_algebra(rng, 3)
    f = parse("x^2 y^2 - (x y)(x y)")
    bindings = {X: (ONE, Q(1, 2), ZERO), Y: (Q(2), ZERO, ONE)}
    plain = evaluate(f, algebra, bindings)
    weighted = weighted_evaluate(f, algebra, bindings)
    assert plain == weighted  # full type terms carry no weight factors


def test_draw_replicates_randint_and_choice():
    # _draw draws the same bits as randint and choice do in CPython, and
    # leaves the generator where they leave it; a Python whose randrange
    # draws otherwise fails here at once
    for seed in range(2000):
        rng, rng2 = random.Random(seed), random.Random(seed)
        n = seed % 31
        s, ints = baric._draw(rng, n)
        want = [Q(rng2.randint(-3, 3), rng2.choice((1, 1, 2))) for _ in range(n)]
        assert [Q(c, s) for c in ints] == want
        assert s == max((q.denominator for q in want), default=1)
        assert rng.getstate() == rng2.getstate()


def test_verify_identity_pass_and_fail():
    rng = random.Random(8)
    algebra = random_mutation_algebra(rng, 4)
    good = verify_identity(parse("x^2 x^2 - 2 x^3 + x^2"), algebra, trials=16, seed=1)
    assert good.passed and bool(good)

    algebra2, e = spectrum_algebra([2])
    bad = verify_identity(parse("x^2 - x"), algebra2, trials=64, seed=0)
    assert not bad.passed
    assert bad.counterexample is not None
    assert bad.mode in ("weight-1", "weighted")
    # the documented counterexample: x = e + e1
    v = (ONE, ONE)
    got = evaluate(parse("x^2 - x"), algebra2, {X: v})
    assert got != zero_vector(algebra2)


def test_verify_is_deterministic():
    rng = random.Random(9)
    algebra = random_mutation_algebra(rng, 3)
    f = parse("x^2 y^2 - (x y)(x y)")
    r1 = verify_identity(f, algebra, trials=8, seed=5)
    r2 = verify_identity(f, algebra, trials=8, seed=5)
    assert r1 == r2


def test_left_mult_matrix_validation():
    algebra, e = spectrum_algebra([2])
    with pytest.raises(AlgebraError):
        left_mult_matrix(algebra, (ZERO, ZERO))
    with pytest.raises(AlgebraError):
        left_mult_matrix(algebra, (ONE, ONE))  # not idempotent


def test_weight_of_idempotent_is_zero_or_one():
    for lambdas in ([], [Q(2)], [ZERO, Q(1, 2)]):
        algebra, e = spectrum_algebra(lambdas)
        left_mult_matrix(algebra, e)  # accepted as an idempotent
        assert algebra.omega(e) in (0, 1)


def test_spectrum_char_poly():
    algebra, e = spectrum_algebra([0, Q(1, 2)])
    cp = char_poly(left_mult_matrix(algebra, e))
    # X (X - 1/2)(X - 1)
    assert cp == PeircePolynomial([0, Q(1, 2), Q(-3, 2), 1])
    roots, remainder = rational_roots(cp)
    assert roots == [(ZERO, 1), (Q(1, 2), 1), (ONE, 1)]
    assert remainder.degree() == 0


def test_spectrum_round_trip():
    lambdas = [Q(-2), Q(1, 2), Q(3)]
    algebra, e = spectrum_algebra(lambdas)
    roots, remainder = rational_roots(char_poly(left_mult_matrix(algebra, e)))
    assert remainder.degree() == 0
    got = sorted([r for r, mult in roots for _ in range(mult)])
    assert got == sorted(lambdas + [ONE])


def test_rational_roots_partial_factorization():
    # (t - 1)(t^2 - 2) factors only partially over Q
    p = PeircePolynomial([2, -2, -1, 1])
    roots, remainder = rational_roots(p)
    assert roots == [(ONE, 1)]
    assert remainder == PeircePolynomial([-2, 0, 1])


def fraction_rational_roots(coeffs):
    """The reference: every divisor pair of the first ends tried as a Q
    root, in ascending order, by synthetic division in Q."""
    coeffs = list(coeffs)
    roots = []
    while not coeffs[0]:
        coeffs.pop(0)
        roots.append(ZERO)
    _, ints = as_ints(coeffs)
    divisors = lambda n: [d for d in range(1, n + 1) if n % d == 0]
    candidates = {Q(s * a, b) for a in divisors(abs(ints[0])) for b in divisors(abs(ints[-1])) for s in (1, -1)}
    for r in sorted(candidates):
        while len(coeffs) > 1:
            out, acc = [], ZERO
            for c in reversed(coeffs):
                acc = acc * r + c
                out.append(acc)
            if out[-1]:
                break
            coeffs = out[-2::-1]
            roots.append(r)
    mults = sorted({r: roots.count(r) for r in roots}.items())
    return mults, coeffs


def test_rational_roots_match_the_fraction_reference(rng):
    # products of rational linear factors (repeated, and the root 0) and
    # quadratics without rational roots, times a rational scale
    for _ in range(200):
        p = PeircePolynomial([Q(rng.randint(1, 6), rng.randint(1, 6))])
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.7:
                p = p * PeircePolynomial([-Q(rng.randint(-6, 6), rng.randint(1, 4)), 1])
            else:
                p = p * PeircePolynomial([rng.randint(1, 5), rng.randint(-2, 2), rng.randint(2, 3)])
        roots, remainder = rational_roots(p)
        expected_roots, expected_remainder = fraction_rational_roots(p.coeffs)
        assert roots == expected_roots
        assert remainder == PeircePolynomial(expected_remainder)
        assert all(type(c) is Q for c in remainder.coeffs)


def test_backcrossing_family_annihilator():
    # three-dimensional algebra with e idempotent, u in the 0-eigenspace,
    # v in the 1/2-eigenspace, v*v = u: satisfies
    # x^2 x^2 - a w(x) x^3 - (1-a) w(x)^2 x^2 for every a, and
    # 2 L^2 - L kills ker w
    dim = 3
    structure = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][0][0] = ONE          # e*e = e
    structure[0][2][2] = Q(1, 2)      # e*v = v/2
    structure[2][0][2] = Q(1, 2)
    structure[2][2][1] = ONE          # v*v = u
    algebra = BaricAlgebra(dim, structure, [1, 0, 0])
    e = (ONE, ZERO, ZERO)

    for a in (Q(0), Q(1), Q(3), Q(-1, 2)):
        f = parse("x^2 x^2") - parse("x^3").scale(a) - parse("x^2").scale(1 - a)
        result = verify_identity(f, algebra, trials=24, seed=7)
        assert result.passed

    L = left_mult_matrix(algebra, e)
    annihilator = PeircePolynomial([0, -1, 2])  # 2 X^2 - X
    for vec in kernel_basis(algebra):
        assert apply_univariate(annihilator, L, vec) == zero_vector(algebra)


def test_random_baric_algebra_is_valid():
    rng = random.Random(12)
    for dim in (2, 3, 4):
        algebra = random_baric_algebra(rng, dim)
        assert algebra.dim == dim  # constructor validation already ran


_MUTATION_2 = {"matrix": [["1", "0"], ["0", "3"]], "weight": ["1", "0"]}


def test_load_algebra_mutation(tmp_path):
    spec = {
        "dim": 2,
        "mutation": {"matrix": [["1", "0"], ["0", "3"]], "weight": ["1", "0"]},
    }
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    algebra = load_algebra(str(path))
    assert algebra.mul((ONE, ZERO), (ZERO, ONE)) == (ZERO, Q(3, 2))


def test_mutation_spec_make_reads_rationals():
    spec = MutationSpec.make([[1, "0"], ["1/2", Q(3)]], ["1", 0])
    assert spec == MutationSpec(dim=2, matrix=((Q(1), Q(0)), (Q(1, 2), Q(3))), weight=(Q(1), Q(0)))
    assert spec == MutationSpec(2, spec.matrix, spec.weight)
    assert {type(c) for c in (*spec.matrix[0], *spec.matrix[1], *spec.weight)} == {Q}
    assert type(spec.matrix) is type(spec.weight) is tuple


def test_load_algebra_structure():
    obj = {
        "dim": 2,
        "weight": ["1", "0"],
        "structure": [[0, 0, 0, "1"], [0, 1, 1, "1/2"]],
    }
    algebra = load_algebra(obj)
    assert algebra.structure[0][1][1] == Q(1, 2)
    assert algebra.structure[1][0][1] == Q(1, 2)


@pytest.mark.parametrize(
    "obj",
    [
        {"weight": ["1"], "structure": []},
        {"dim": 1, "weight": "1", "structure": []},
        {"dim": 1, "weight": ["1"], "structure": [[-1, 0, 0, "1"]]},  # no wrap-around
        {"dim": 2, "weight": ["1", "0"], "structure": [[0, 0, True, "1"]]},
        {"dim": 2, "weight": ["1", "0"], "structure": [[0, 0, 0]]},
        {"dim": 2, "weight": ["1"], "structure": []},
        {"dim": 1, "weight": ["1"], "structure": [[0, 0, 0, "2/0"]]},
        {"dim": 1, "mutation": {"matrix": ["1"], "weight": ["1"]}},
        {"dim": 1, "mutation": {"weight": ["1"]}},
        {"dim": 1, "weight": ["1e2000000"], "structure": []},  # rejected before Fraction runs
        {"dim": 1, "weight": ["1e3"], "structure": [[0, 0, 0, "1E3"]]},  # valid, but in exponents
        *({"dim": d, "mutation": _MUTATION_2} for d in (7, 0, -1, 2.9, True)),  # dim read in this form too
        {"dim": 2.9, "weight": ["1", "0"], "structure": [[0, 0, 0, "1"]]},  # not 2
        {"dim": True, "weight": ["1"], "structure": [[0, 0, 0, "1"]]},  # not 1
        *({"dim": 1, "weight": [c], "structure": []} for c in (True, False, None, ["1"])),
    ],
)
def test_load_algebra_rejects_malformed(obj):
    with pytest.raises(AlgebraError):
        load_algebra(obj)


def test_load_algebra_names_the_fault():
    faults = {
        "weight has 2 entries, expected dim = 7": {"dim": 7, "mutation": _MUTATION_2},
        "weight has 2 entries, expected dim = 0": {"dim": 0, "mutation": _MUTATION_2},
        "dim must be an integer, not 2.9": {"dim": 2.9, "mutation": _MUTATION_2},
        "dim must be an integer, not True": {"dim": True, "weight": ["1"], "structure": [[0, 0, 0, "1"]]},
        "True is not a rational p/q": {"dim": 1, "weight": [True], "structure": []},
        "None is not a rational p/q": {"dim": 1, "weight": ["1"], "structure": [[0, 0, 0, None]]},
        "False is not a rational p/q": {"dim": 2, "mutation": {**_MUTATION_2, "weight": ["1", False]}},
        "'1e3' is not a rational p/q: no exponent notation": {"dim": 1, "weight": ["1e3"], "structure": []},
    }
    for message, obj in faults.items():
        with pytest.raises(AlgebraError) as raised:
            load_algebra(obj)
        assert str(raised.value) == message
    # an integral dim loads whatever its JSON type, in either form
    for dim in (2, 2.0, "2"):
        assert load_algebra({"dim": dim, "mutation": _MUTATION_2}).dim == 2
        assert load_algebra({"dim": dim, "weight": ["1", "0"], "structure": [[0, 0, 0, "1"]]}).dim == 2


def test_load_algebra_keeps_structure_sparse():
    # one structure entry in dimension 120: nothing of size dim^3 is built
    dim = 120
    obj = {"dim": dim, "weight": ["1"] + ["0"] * (dim - 1), "structure": [[0, 0, 0, "1"]]}
    tracemalloc.start()
    try:
        algebra = load_algebra(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    e0 = (ONE,) + (ZERO,) * (dim - 1)
    assert algebra.mul(e0, e0) == e0
    assert algebra.mul(e0[::-1], e0) == (ZERO,) * dim


# JSON values shaped like an algebra, with parts missing, of the wrong type,
# out of range or with a zero denominator
_RATIONAL = st.sampled_from(["1", "0", "1/2", "-1", "1/0", 1, 0, None, "x", []])
_INDEX = st.sampled_from([0, 0, 1, 1, 2, -1, 3, True, 1.0, None])
_ROWS = st.lists(st.lists(_RATIONAL, max_size=3), max_size=3)
_ALGEBRA = st.tuples(
    st.fixed_dictionaries(
        {
            "dim": st.sampled_from([1, 1, 2, 2, 3, 0, -1, "2", None, 1.5]),
            "weight": st.lists(_RATIONAL, max_size=3) | _RATIONAL,
            "structure": st.lists(
                st.tuples(_INDEX, _INDEX, _INDEX, _RATIONAL).map(list) | st.lists(_INDEX),
                max_size=4,
            )
            | _RATIONAL,
        },
        optional={
            "mutation": st.fixed_dictionaries(
                {"matrix": _ROWS | _RATIONAL, "weight": st.lists(_RATIONAL, max_size=3)}
            )
            | _ROWS
        },
    ),
    st.sampled_from([None, None, None, "dim", "weight", "structure", "mutation"]),
).map(lambda pair: {k: v for k, v in pair[0].items() if k != pair[1]})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: _ALGEBRA if n else st.lists(_ALGEBRA, max_size=2)))
@example({"dim": 1, "weight": ["1"], "structure": [[0, 0, 0, "1"]]})
@example({"dim": 1, "mutation": {"matrix": [["1"]], "weight": ["1"]}})
def test_load_algebra_returns_an_algebra_or_raises_algebra_error(obj):
    try:
        assert isinstance(load_algebra(obj), BaricAlgebra)
    except AlgebraError:
        pass


def test_load_algebra_inconsistent():
    obj = {
        "dim": 2,
        "weight": ["1", "0"],
        "structure": [[0, 1, 1, "1"], [1, 0, 1, "2"]],
    }
    with pytest.raises(AlgebraError):
        load_algebra(obj)


# Oracle: evaluation as a recursive tree walk in Fraction arithmetic,
# with the product given independently of the algebra under test.


def _tensor_mul(structure):
    def mul(a, b):
        d = len(a)
        out = [ZERO] * d
        for i in range(d):
            for j in range(d):
                coeff = a[i] * b[j]
                if coeff:
                    for k in range(d):
                        out[k] += coeff * structure[i][j][k]
        return tuple(out)

    return mul


def _mutation_mul(matrix, weight):
    # x*y = (w(y) M(x) + w(x) M(y)) / 2
    def apply(vec):
        return [sum((row[j] * vec[j] for j in range(len(vec))), ZERO) for row in matrix]

    def mul(a, b):
        wa, wb = _omega(weight, a), _omega(weight, b)
        return tuple(
            (wb * ma + wa * mb) / 2 for ma, mb in zip(apply(a), apply(b))
        )

    return mul


def _omega(weight, vec):
    return sum((w * x for w, x in zip(weight, vec)), ZERO)


def _oracle_evaluate(f, mul, weight, bindings, weighted):
    cache = {}

    def walk(m):
        if m not in cache:
            cache[m] = (
                bindings[m.var] if m.is_leaf else mul(walk(m.left), walk(m.right))
            )
        return cache[m]

    total = [ZERO] * len(weight)
    for m, c in f.terms.items():
        scale = c
        if weighted:
            for v in f.variables():
                deficit = f.degree_in(v) - degree_in(m, v)
                scale *= _omega(weight, bindings[v]) ** deficit
        if scale:
            for k, x in enumerate(walk(m)):
                total[k] += scale * x
    return tuple(total)


def _oracle_verify(f, algebra, mul, weight, trials, seed):
    def draw(rng):
        return Q(rng.randint(-3, 3), rng.choice((1, 1, 2)))

    variables = f.variables()
    anchor = weight_one_anchor(algebra)
    kernel = kernel_basis(algebra)
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        bindings = {}
        for v in variables:
            vec = list(anchor)
            for b in kernel:
                c = draw(rng)
                for k in range(algebra.dim):
                    vec[k] += c * b[k]
            bindings[v] = tuple(vec)
        general = {v: tuple(draw(rng) for _ in range(algebra.dim)) for v in variables}
        for mode, point, weighted in (
            ("weight-1", bindings, False),
            ("weighted", general, True),
        ):
            if any(_oracle_evaluate(f, mul, weight, point, weighted)):
                return VerificationResult(
                    passed=False,
                    trials=trials,
                    seed=seed,
                    failed_trial=trial,
                    mode=mode,
                    counterexample={v.name: point[v] for v in variables},
                )
    return VerificationResult(passed=True, trials=trials, seed=seed)


_ORACLE_DENOMINATORS = (1, 2, 3, 7, 12)


def _rational(rng):
    return Q(rng.randint(-5, 5), rng.choice(_ORACLE_DENOMINATORS))


def _fixing_matrix(rng, weight, pivot):
    """A random M with the pivot row solved so that w M = w."""
    dim = len(weight)
    matrix = [[_rational(rng) for _ in range(dim)] for _ in range(dim)]
    for j in range(dim):
        matrix[pivot][j] = ZERO
        rest = sum((weight[k] * matrix[k][j] for k in range(dim)), ZERO)
        matrix[pivot][j] = (weight[j] - rest) / weight[pivot]
    return matrix


def _oracle_algebra(rng, kind, dim):
    """A random algebra of the kind with a random weight, its product as
    an independent function, and the weight."""
    weight = [_rational(rng) for _ in range(dim)]
    pivot = rng.randrange(dim)
    weight[pivot] = Q(rng.choice((1, -2, 3)), rng.choice((1, 7, 12)))
    if kind == "mutation":
        matrix = _fixing_matrix(rng, weight, pivot)
        algebra = make_mutation(MutationSpec.make(matrix, weight))
        return algebra, _mutation_mul(matrix, weight), weight
    structure = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):  # solve the pivot coordinate of e_i e_j
            col = [_rational(rng) for _ in range(dim)]
            col[pivot] = ZERO
            col[pivot] = (weight[i] * weight[j] - _omega(weight, col)) / weight[pivot]
            structure[i][j] = structure[j][i] = col
    return BaricAlgebra(dim, structure, weight), _tensor_mul(structure), weight


@pytest.mark.parametrize("kind", ["baric", "mutation"])
def test_evaluation_matches_fraction_oracle(kind):
    rng = random.Random(1907 if kind == "baric" else 2137)
    denominators = set()
    weight_zero = 0
    for dim in (1, 2, 3, 4, 5):
        for _ in range(4):
            algebra, mul, weight = _oracle_algebra(rng, kind, dim)
            denominators |= {
                c.denominator for p in algebra.structure for r in p for c in r
            }
            for _ in range(6):
                f = random_polynomial(rng, max_degree=5).scale(Q(rng.randint(1, 9), 7))
                bindings = {
                    v: tuple(_rational(rng) for _ in range(dim)) for v in f.variables()
                }
                if dim > 1 and f and rng.random() < 0.5:  # move one binding into ker(w)
                    v = rng.choice(f.variables())
                    w = _omega(weight, bindings[v])
                    anchor = weight_one_anchor(algebra)
                    bindings[v] = tuple(x - w * a for x, a in zip(bindings[v], anchor))
                    assert algebra.omega(bindings[v]) == 0
                    weight_zero += 1
                a, b = (tuple(_rational(rng) for _ in range(dim)) for _ in "ab")
                assert algebra.mul(a, b) == mul(a, b)
                assert evaluate(f, algebra, bindings) == _oracle_evaluate(
                    f, mul, weight, bindings, False
                )
                assert weighted_evaluate(f, algebra, bindings) == _oracle_evaluate(
                    f, mul, weight, bindings, True
                )
    assert all(any(den % p == 0 for den in denominators) for p in (3, 7, 4))
    assert weight_zero > 10


@pytest.mark.parametrize("kind", ["baric", "mutation"])
def test_verify_identity_matches_fraction_oracle(kind):
    rng = random.Random(5 if kind == "baric" else 6)
    verdicts = set()
    for dim in (1, 2, 3, 4, 5):
        for _ in range(3):
            algebra, mul, weight = _oracle_algebra(rng, kind, dim)
            for f in (
                random_polynomial(rng, max_degree=4),
                parse("x^2 x^2 - 2 x^3 + x^2"),
                parse("x^2 - x"),
                standard_baric_identity(2),
            ):
                seed = rng.randrange(100)
                got = verify_identity(f, algebra, trials=6, seed=seed)
                assert got == _oracle_verify(f, algebra, mul, weight, 6, seed)
                verdicts.add(got.passed)
    assert verdicts == {True, False}


def test_verify_identity_refutation_order_matches_fraction_oracle():
    # x^2 - x vanishes at the weight-1 idempotent of a spectrum algebra, so
    # a trial can pass in one mode and fail in the other
    f = parse("x^2 - x")
    seen = set()
    for lam in (Q(2), Q(-1, 3), Q(5, 7)):
        algebra, _ = spectrum_algebra([lam])
        mul = _mutation_mul([[ONE, ZERO], [ZERO, 2 * lam]], [ONE, ZERO])
        for seed in range(150):
            got = verify_identity(f, algebra, trials=3, seed=seed)
            assert got == _oracle_verify(f, algebra, mul, [ONE, ZERO], 3, seed)
            seen.add((got.mode, got.failed_trial))
    assert {("weight-1", 0), ("weighted", 0), ("weight-1", 1), ("weighted", 1)} <= seen


def test_verify_refutations_are_pinned():
    algebra, _ = spectrum_algebra([2])
    f = parse("x^2 - x")
    pinned = {
        0: (0, "weight-1", {"x": (Q(1), Q(3))}),
        2: (0, "weighted", {"x": (Q(1, 2), Q(1))}),
        58: (1, "weight-1", {"x": (Q(1), Q(1))}),
        71: (1, "weighted", {"x": (Q(-3, 2), Q(-3))}),
    }
    for seed, (trial, mode, point) in pinned.items():
        assert verify_identity(f, algebra, trials=16, seed=seed) == VerificationResult(
            False, 16, seed, trial, mode, point
        )

    algebra = random_baric_algebra(random.Random(0), 3)
    f = standard_baric_identity(2)
    pinned = {
        0: {"x": (1, 3, 3), "y": (1, -3, 1), "z": (1, 0, 0)},
        1: {"x": (1, Q(1, 2), Q(-1, 2)), "y": (1, -1, 3), "z": (1, 0, -2)},
        3: {"x": (1, -3, 1), "y": (1, -1, 0), "z": (1, Q(3, 2), 3)},
    }
    for seed, point in pinned.items():
        assert verify_identity(f, algebra, trials=16, seed=seed) == VerificationResult(
            False, 16, seed, 0, "weight-1", point
        )


def test_verification_result_fields_defaults_and_truth():
    # the verdict is a value: its fields in order with their defaults, built
    # by position or keyword, and true exactly when the check passed
    params = inspect.signature(VerificationResult).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("passed", inspect.Parameter.empty),
        ("trials", inspect.Parameter.empty),
        ("seed", inspect.Parameter.empty),
        ("failed_trial", None),
        ("mode", None),
        ("counterexample", None),
    ]
    passed = VerificationResult(passed=True, trials=3, seed=7)
    assert (passed.passed, passed.trials, passed.seed) == (True, 3, 7)
    assert (passed.failed_trial, passed.mode, passed.counterexample) == (None, None, None)
    assert passed == VerificationResult(True, 3, 7) and bool(passed)
    point = {"x": (Q(1), Q(3))}
    failed = VerificationResult(False, 16, 0, failed_trial=2, mode="weighted", counterexample=point)
    assert failed == VerificationResult(False, 16, 0, 2, "weighted", point) != passed
    assert not failed and (failed.failed_trial, failed.mode, failed.counterexample) == (2, "weighted", point)


def _mutation_json(rng, weight):
    """A mutation algebra's JSON with the given weight and a random M
    that fixes it."""
    matrix = _fixing_matrix(rng, weight, next(i for i, w in enumerate(weight) if w))
    texts = lambda row: [str(c) for c in row]
    return {"dim": len(weight), "mutation": {"matrix": [texts(r) for r in matrix], "weight": texts(weight)}}


def test_a_passing_verification_builds_no_q(monkeypatch):
    # from the loaded algebra to the verdict the check runs in ints
    obj = _mutation_json(random.Random(22), [ZERO, Q(-2), Q(1, 3), Q(5, 2)])
    algebra = load_algebra(obj)
    f = parse("x^2 y^2 - (x y)(x y) + 1/2 x^2 x^2 - x^3 + 1/2 x^2")
    built = []

    def counted(*args):
        built.append(args)
        return Q(*args)

    monkeypatch.setattr(baric, "Q", counted)
    result = verify_identity(f, algebra, trials=32, seed=3)
    assert result.passed and built == []
    # a refutation builds its counterexample, and only that
    result = verify_identity(parse("x^2 - x"), algebra, trials=4, seed=0)
    assert not result.passed and len(built) == algebra.dim


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_make_mutation_matches_the_dense_build(data):
    # make_mutation skips the pairs (i, j) with w_i = w_j = 0; the d^3
    # build of every c[i][j][k] = (w_j M_ki + w_i M_kj) / 2 gives the same cells
    dim = data.draw(st.integers(2, 5))
    pivot = data.draw(st.integers(0, dim - 2))
    ratio = st.builds(Q, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7]))
    weight = [ZERO] * pivot + [-data.draw(st.builds(Q, st.integers(1, 5), st.integers(1, 4)))]
    weight += data.draw(st.lists(ratio, min_size=dim - pivot - 1, max_size=dim - pivot - 1))
    if not any(weight[pivot + 1 :]):
        weight[-1] = ONE
    obj = _mutation_json(random.Random(data.draw(st.integers(0, 1 << 16))), weight)
    matrix = [[Q(c) for c in row] for row in obj["mutation"]["matrix"]]
    algebra = make_mutation(MutationSpec.make(matrix, weight))

    mden, entries = as_ints([c for row in matrix for c in row])
    m = [entries[k * dim : (k + 1) * dim] for k in range(dim)]
    wden, w = as_ints(weight)
    constants = {
        (i, j, k): w[j] * m[k][i] + w[i] * m[k][j]
        for i in range(dim) for j in range(dim) for k in range(dim)
    }
    one, cells = baric._cells(constants)
    dense = {ij: row for ij, row in cells.items() if ij[0] <= ij[1]}
    assert one == 1
    assert algebra._den == 2 * wden * mden
    assert {(i, j): row for i, j, row in algebra._pairs} == dense
    assert algebra.structure == [
        [[(weight[j] * matrix[k][i] + weight[i] * matrix[k][j]) / 2 for k in range(dim)]
         for j in range(dim)]
        for i in range(dim)
    ]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 1 << 16), st.booleans())
def test_dense_and_sparse_constants_build_the_same_algebra(dim, seed, zeros):
    # BaricAlgebra on the dense planes and load_algebra on the same
    # constants as sparse entries, in any order and either (i, j), the
    # zero ones listed or not, share one cell builder: the same den, cells
    # and structure
    rng = random.Random(seed)
    planes = (random_baric_algebra if seed % 2 else random_mutation_algebra)(rng, dim).structure
    weight = [ONE] + [ZERO] * (dim - 1)
    dense = BaricAlgebra(dim, planes, weight)
    entries = [
        [*rng.sample((i, j), 2), k, str(planes[i][j][k])]
        for i in range(dim) for j in range(i, dim) for k in range(dim)
        if zeros or planes[i][j][k]
    ]
    rng.shuffle(entries)
    sparse = load_algebra({"dim": dim, "weight": [str(c) for c in weight], "structure": entries})
    assert (dense._den, dense._pairs) == (sparse._den, sparse._pairs)
    assert dense.structure == sparse.structure == planes


def test_all_zero_and_non_commutative_constants(monkeypatch):
    # all-zero constants give both builders den 1 and no cells, and a
    # nonzero weight is then no character, at the same first pair
    built, cells = [], baric._cells
    monkeypatch.setattr(baric, "_cells", lambda entries: built.append(cells(entries)) or built[-1])
    builds = (
        lambda: BaricAlgebra(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], [1, 0]),
        lambda: load_algebra({"dim": 2, "weight": ["1", "0"], "structure": [[0, 1, 1, "0"]]}),
        lambda: load_algebra({"dim": 2, "weight": ["1", "0"], "structure": []}),
    )
    for build in builds:
        with pytest.raises(AlgebraError) as err:
            build()
        assert str(err.value) == "weight is not an algebra character at basis pair (0, 0)"
    assert built == [(1, {})] * 3
    # a dense input with c[0][1] != c[1][0] is refused with the same message
    with pytest.raises(AlgebraError) as err:
        BaricAlgebra(2, [[[0, 1], [1, 0]], [[0, 0], [0, 0]]], [1, 0])
    assert str(err.value) == "structure constants are not commutative"


def test_load_algebra_reads_each_text_once(monkeypatch):
    read, read_q = [], baric.read_q

    def counted(c):
        read.append(c)
        return read_q(c)

    monkeypatch.setattr(baric, "read_q", counted)
    spelled = load_algebra({
        "dim": 3,
        "mutation": {
            "matrix": [["1", "0", "0"], ["1/2", "2/4", "0.5"], ["0", "1", "-1/3"]],
            "weight": ["1", "0", "0"],
        },
    })
    assert sorted(read) == ["-1/3", "0", "0.5", "1", "1/2", "2/4"]
    plain = make_mutation(MutationSpec.make(
        [[1, 0, 0], [Q(1, 2), Q(1, 2), Q(1, 2)], [0, 1, Q(-1, 3)]], [1, 0, 0]
    ))
    assert spelled.structure == plain.structure and spelled.weight == plain.weight
    # the memo is the call's own: the next file reads its texts again
    read.clear()
    load_algebra({"dim": 1, "weight": ["1"], "structure": [[0, 0, 0, "1"]]})
    assert read == ["1"]
    # a text that raises is not kept: it raises at every entry that has it
    read_once = baric._reader()
    for _ in range(2):
        with pytest.raises(AlgebraError, match="'1/0' is not a rational"):
            read_once("1/0")
    assert read[1:] == ["1/0", "1/0"]


def _fraction_char_poly(matrix):
    """det(X I - M) by the Faddeev-LeVerrier recursion in Fraction."""
    d = len(matrix)
    m = [[Q(c) for c in row] for row in matrix]
    coeffs = [ONE]  # X^d downward
    mk = [row[:] for row in m]
    for k in range(1, d + 1):
        ck = -sum((mk[i][i] for i in range(d)), ZERO) / k
        coeffs.append(ck)
        if k == d:
            break
        for i in range(d):
            mk[i][i] += ck
        mk = [
            [sum((m[i][l] * mk[l][j] for l in range(d)), ZERO) for j in range(d)]
            for i in range(d)
        ]
    return PeircePolynomial(list(reversed(coeffs)))


def test_char_poly_matches_the_fraction_reference():
    rng = random.Random(4)
    for n in range(200):
        d = n % 7 + 1
        matrix = [[_rational(rng) for _ in range(d)] for _ in range(d)]
        if n % 5 == 0:  # a sparse one, with repeated eigenvalues likely
            matrix = [[c if rng.random() < 0.3 else ZERO for c in row] for row in matrix]
        assert char_poly(matrix) == _fraction_char_poly(matrix)
    assert char_poly([]) == _fraction_char_poly([]) == PeircePolynomial([1])
