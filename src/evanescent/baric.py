"""Concrete finite-dimensional baric and mutation algebras.

A baric algebra is given by exact rational structure constants plus a
nonzero algebra character (the weight).  Mutation algebras carry the
product x*y = (w(y) M(x) + w(x) M(y)) / 2 for a linear map M fixing the
weight; they satisfy every evanescent identity.

Arithmetic is over Python ints, and exact.  The structure constants are
stored once, as sparse int rows over one common denominator D: ``_pairs``
holds (i, j, ((k, n), ...)) for i <= j, with c[i][j][k] = n / D.  A vector
v is scaled to (den_v, V), an int vector V with v = V / den_v; ``_times``
gives the numerator of a product over D * den_u * den_v.  So the int value
N(m) of a monomial tree m stands for N(m) / (D^(deg m - 1) * prod over v
of den_v^(count of v in m)).  Evaluation adds the terms over one
denominator, fixed when the plan is built: the int sum is zero exactly
when the value is, and rationals come back only in what ``mul``,
``evaluate`` and ``weighted_evaluate`` return, and in a counterexample.

Evaluation has one mechanism, ``_Plan``: f folded once into a
straight-line program over int vectors, with each term's coefficient
put over the plan's one denominator L, the lcm over its terms c m of
c.den * D^(deg m - 1).  A run scales each term by ints alone and adds it
straight into one int vector.  ``evaluate`` and ``weighted_evaluate``
build one plan per call; ``verify_identity`` builds one per identity and
runs it for every trial and mode.  Its weight-1 points are built in
ints too, in O(d) each: the draws for the coordinates off the pivot
(the first nonzero weight entry), and the pivot coordinate solved from
omega(x) = 1.  ``load_algebra`` reads each distinct entry text of a
file once.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd, lcm

from .magma import Variable, fold, leaf
from .peirce import PeircePolynomial
from .poly import Polynomial, UnboundVariableError
from .rationals import ONE, Q, ZERO, as_ints, as_q


class AlgebraError(ValueError):
    pass


class BaricAlgebra:
    """dim, structure constants c[i][j][k] (e_i e_j = sum c[i][j][k] e_k),
    and the weight functional on the basis."""

    __slots__ = ("dim", "weight", "_den", "_pairs", "_weight_den", "_weight_ints")

    def __init__(self, dim, structure, weight):
        d = int(dim)
        planes = [[[as_q(c) for c in row] for row in plane] for plane in structure]
        weight = tuple(as_q(c) for c in weight)
        if len(planes) != d or len(weight) != d:
            raise AlgebraError("dimension mismatch in structure or weight")
        for plane in planes:
            if len(plane) != d or any(len(row) != d for row in plane):
                raise AlgebraError("dimension mismatch in structure")
        entries = {
            (i, j, k): c
            for i, plane in enumerate(planes) for j, row in enumerate(plane) for k, c in enumerate(row)
            if c
        }
        self._setup(d, *_cells(entries), weight)

    @classmethod
    def _from_ints(cls, dim, den, cells, weight):
        """The algebra with c[i][j][k] = n / den for each (k, n) of
        cells[i, j], the nonzero numerators of e_i e_j by ascending k; a
        pair with no nonzero constant has no cell."""
        algebra = object.__new__(cls)
        algebra._setup(dim, den, cells, weight)
        return algebra

    def _setup(self, dim, den, cells, weight):
        self.dim, self._den, self.weight = dim, den, weight
        self._weight_den, self._weight_ints = as_ints(weight)
        self._validate(cells)
        self._pairs = tuple((i, j, row) for (i, j), row in sorted(cells.items()) if i <= j)

    def _validate(self, cells):
        den, wden, w = self._den, self._weight_den, self._weight_ints
        if any(cells.get((j, i)) != row for (i, j), row in cells.items()):
            raise AlgebraError("structure constants are not commutative")
        if not any(w):
            raise AlgebraError("weight must be nonzero")
        # sum_k c[i][j][k] w_k = w_i w_j, multiplied through by den * wden^2;
        # both sides are 0 on a pair with no cell and w_i w_j = 0
        support = [i for i, c in enumerate(w) if c]
        for i, j in sorted(cells.keys() | {(i, j) for i in support for j in support}):
            got = wden * sum(n * w[k] for k, n in cells.get((i, j), ()))
            if got != den * w[i] * w[j]:
                raise AlgebraError(f"weight is not an algebra character at basis pair ({i}, {j})")

    @property
    def structure(self):
        """The structure constants c[i][j][k] as rationals."""
        d = self.dim
        out = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
        for i, j, row in self._pairs:
            for k, n in row:
                out[i][j][k] = out[j][i][k] = Q(n, self._den)
        return out

    def _times(self, a, b):
        """Numerator of the product of a / den_a and b / den_b over
        D * den_a * den_b, for int vectors a and b."""
        out = [0] * self.dim
        for i, j, row in self._pairs:
            p = a[i] * b[i] if i == j else a[i] * b[j] + a[j] * b[i]
            if p:
                for k, n in row:
                    out[k] += p * n
        return out

    def mul(self, a, b):
        den_a, a = as_ints(a)
        den_b, b = as_ints(b)
        den = self._den * den_a * den_b
        return tuple(Q(n, den) for n in self._times(a, b))

    def omega(self, vec):
        return sum((w * c for w, c in zip(self.weight, vec)), ZERO)


@dataclass(frozen=True)
class MutationSpec:
    """Linear map rows (M applied to e_j is the j-th column) plus weight."""

    dim: int
    matrix: tuple
    weight: tuple

    @classmethod
    def make(cls, matrix, weight):
        matrix = tuple(tuple(as_q(c) for c in row) for row in matrix)
        weight = tuple(as_q(c) for c in weight)
        return cls(dim=len(weight), matrix=matrix, weight=weight)


def make_mutation(spec: MutationSpec) -> BaricAlgebra:
    """Structure constants of the mutation product for a validated spec."""
    d = spec.dim
    w = spec.weight
    if len(spec.matrix) != d or any(len(row) != d for row in spec.matrix):
        raise AlgebraError("mutation matrix dimension mismatch")
    if not any(w):
        raise AlgebraError("weight must be nonzero")
    # M = m / mden and w = wi / wden over ints
    mden, entries = as_ints([c for row in spec.matrix for c in row])
    m = [entries[k * d : (k + 1) * d] for k in range(d)]
    wden, wi = as_ints(w)
    for j in range(d):
        if sum(wi[k] * m[k][j] for k in range(d)) != wi[j] * mden:
            raise AlgebraError("weight is not fixed by the mutation map")
    # c[i][j][k] = (w_j M_ki + w_i M_kj) / 2, over 2 * wden * mden; a pair
    # with w_i = w_j = 0 has no cell
    cells = {}
    for i in range(d):
        for j in range(d):
            if wi[i] or wi[j]:
                row = tuple(
                    (k, n) for k in range(d) if (n := wi[j] * m[k][i] + wi[i] * m[k][j])
                )
                if row:
                    cells[i, j] = row
    return BaricAlgebra._from_ints(d, 2 * wden * mden, cells, w)


def _cells(entries):
    """(den, {(i, j): ((k, n), ...)}) for the constants {(i, j, k): c}, over
    the lcm den of their denominators: the nonzero n = c den, by ascending k."""
    den, nums = as_ints(list(entries.values()))
    cells = {}
    for (i, j, k), n in sorted(zip(entries, nums)):
        if n:
            cells.setdefault((i, j), []).append((k, n))
    return den, {ij: tuple(row) for ij, row in cells.items()}


def spectrum_algebra(lambdas):
    """Mutation algebra whose weight-1 idempotent has the given extra
    eigenvalues (1 is always present).  Returns (algebra, idempotent)."""
    lambdas = [Q(c) for c in lambdas]
    d = 1 + len(lambdas)
    matrix = [[ZERO] * d for _ in range(d)]
    matrix[0][0] = ONE
    for i, lam in enumerate(lambdas, start=1):
        matrix[i][i] = 2 * lam
    weight = [ONE] + [ZERO] * len(lambdas)
    algebra = make_mutation(MutationSpec.make(matrix, weight))
    e = tuple([ONE] + [ZERO] * len(lambdas))
    return algebra, e


def _check_bindings(f: Polynomial, algebra: BaricAlgebra, bindings: dict):
    """The bindings scaled to {variable: (den, int vector)}."""
    scaled = {}
    for v, vec in bindings.items():
        v = v if isinstance(v, Variable) else Variable(v)
        vec = tuple(Q(c) for c in vec)
        if len(vec) != algebra.dim:
            raise AlgebraError(
                f"binding for {v.name} has dimension {len(vec)}, expected {algebra.dim}"
            )
        scaled[v] = as_ints(vec)
    for v in f.variables():
        if v not in scaled:
            raise UnboundVariableError(v)
    return scaled


class _Plan:
    """f folded once into a straight-line program over the algebra's int
    vectors: the one evaluation mechanism, shared by ``evaluate``,
    ``weighted_evaluate`` and every trial and mode of ``verify_identity``.

    Slot i < len(variables) holds the value of variables[i]; each distinct
    inner node of f's monomials, bottom-up, appends one slot as
    ``_times`` of two earlier slots (``nodes``).  One denominator L
    (``den``) is fixed for the plan: the lcm over its terms c m of c.den *
    D^(deg m - 1).  A term is (slot of m, num with c / D^(deg m - 1) =
    num / L, num * wden^(deg m), and (variable, deficit) for each
    variable whose count in m falls short of its full degree in f).
    """

    __slots__ = ("algebra", "variables", "full", "nodes", "den", "terms")

    def __init__(self, f: Polynomial, algebra: BaricAlgebra):
        variables = f.variables()
        slots = {leaf(v): i for i, v in enumerate(variables)}
        nodes = []

        def node(a, b):
            nodes.append((a, b))
            return len(variables) + len(nodes) - 1

        full = tuple(f.degree_in(v) for v in variables)
        D, wden = algebra._den, algebra._weight_den
        terms = [(m, c, c.denominator * D ** (m.degree - 1)) for m, c in f.terms.items()]
        den = lcm(*(t for _, _, t in terms))
        self.terms = []
        for m, c, t in terms:
            counts = dict(m.counts)
            num = c.numerator * (den // t)
            deficits = tuple(
                (i, e)
                for i, (v, n) in enumerate(zip(variables, full))
                if (e := n - counts.get(v.index, 0))
            )
            self.terms.append((fold(m, slots, node), num, num * wden**m.degree, deficits))
        self.algebra = algebra
        self.variables = variables
        self.full = full
        self.nodes = nodes
        self.den = den

    def run(self, points, weighted: bool):
        """(ints, den) with f = ints / den, plain or weighted, where points
        holds one (den_v, int vector) per variable.  Over the plan's
        denominator L, a term c m stands for num * N(m) / (L * prod
        den_v^count); every term is put over L * prod den_v^full, so in
        plain mode it is scaled by prod den_v^deficit.  Weighting by
        omega(v) = Omega_v / (wden * den_v) to each deficit puts every
        term over L * prod den_v^full * wden^(sum of full), so a weighted
        term is scaled by prod Omega_v^deficit * wden^(deg m).  Each term
        is added straight into one int vector."""
        algebra = self.algebra
        times = algebra._times
        values = [ints for _, ints in points]
        for a, b in self.nodes:
            values.append(times(values[a], values[b]))
        den = self.den
        for (den_v, _), full in zip(points, self.full):
            den *= den_v**full
        if weighted:
            w = algebra._weight_ints
            bases = [sum(a * x for a, x in zip(w, ints)) for _, ints in points]
            den *= algebra._weight_den ** sum(self.full)
        else:
            bases = [den_v for den_v, _ in points]
        total = [0] * algebra.dim
        for slot, num, wnum, deficits in self.terms:
            if weighted:
                num = wnum
            for i, e in deficits:
                num *= bases[i] ** e
            if num:
                for k, x in enumerate(values[slot]):
                    if x:
                        total[k] += num * x
        return total, den


def _evaluate(f: Polynomial, algebra: BaricAlgebra, bindings: dict, weighted: bool):
    scaled = _check_bindings(f, algebra, bindings)
    plan = _Plan(f, algebra)
    ints, den = plan.run([scaled[v] for v in plan.variables], weighted)
    return tuple(Q(n, den) for n in ints)


def evaluate(f: Polynomial, algebra: BaricAlgebra, bindings: dict):
    """Plain homomorphic evaluation of every monomial."""
    return _evaluate(f, algebra, bindings, False)


def weighted_evaluate(f: Polynomial, algebra: BaricAlgebra, bindings: dict):
    """Weighted evaluation: each term is scaled by the product of
    w(binding)^(full degree - term degree) over the variables, so the
    whole expression is homogeneous of full type."""
    return _evaluate(f, algebra, bindings, True)


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    trials: int
    seed: int
    failed_trial: int | None = None
    mode: str | None = None
    counterexample: dict | None = None

    def __bool__(self):
        return self.passed


def _draw(rng, n):
    """n random rationals randint(-3, 3) / choice((1, 1, 2)), as (s, ints)
    over s = 1 when every one is an int and s = 2 otherwise.  They are
    drawn as CPython draws them: each is getrandbits of the bit length of
    its range size, retried while out of range.  That is a CPython
    implementation detail, not a documented guarantee; every pinned
    refutation rests on this stream, and
    ``test_draw_replicates_randint_and_choice`` compares it with
    ``randint`` and ``choice``."""
    bits = rng.getrandbits
    twice = []  # each draw times 2
    for _ in range(n):
        p = bits(3)
        while p >= 7:
            p = bits(3)
        q = bits(2)
        while q >= 3:
            q = bits(2)
        twice.append(p - 3 if q == 2 else 2 * p - 6)
    if any(t & 1 for t in twice):
        return 2, twice
    return 1, [t // 2 for t in twice]


def verify_identity(
    f: Polynomial, algebra: BaricAlgebra, trials: int = 64, seed: int = 0
) -> VerificationResult:
    """Randomized refutation: weight-1 bindings through plain evaluation
    and general bindings through weighted evaluation.  A pass is
    evidence, not proof.  The points are drawn as rationals p/q but built
    and evaluated as int vectors; only a counterexample is converted back.

    A weight-1 point is the weight-1 anchor plus sum c_i of the kernel
    basis, with c_i = C_i / s drawn for each i other than the pivot p,
    the first index with w_p != 0.  Its coordinate at i is c_i, and its
    pivot coordinate is solved from omega(x) = 1: with w = W / wden, the
    point is over s |W_p|, at C_i |W_p| and sign(W_p) (s wden - sum C_i W_i)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    plan = _Plan(f, algebra)
    wden, w = algebra._weight_den, algebra._weight_ints
    pivot = next(i for i, c in enumerate(w) if c)
    w_pivot = w[pivot]
    w_rest = w[:pivot] + w[pivot + 1 :]
    sign, w_abs = (1, w_pivot) if w_pivot > 0 else (-1, -w_pivot)
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        weight_one = []
        for _ in plan.variables:
            s, coeffs = _draw(rng, len(w_rest))
            vec = [c * w_abs for c in coeffs]
            vec.insert(pivot, sign * (s * wden - sum(c * b for c, b in zip(coeffs, w_rest))))
            weight_one.append((s * w_abs, vec))
        general = [_draw(rng, algebra.dim) for _ in plan.variables]
        for mode, points in (("weight-1", weight_one), ("weighted", general)):
            if any(plan.run(points, mode == "weighted")[0]):
                return VerificationResult(
                    passed=False,
                    trials=trials,
                    seed=seed,
                    failed_trial=trial,
                    mode=mode,
                    counterexample={
                        v.name: tuple(Q(n, den) for n in ints)
                        for v, (den, ints) in zip(plan.variables, points)
                    },
                )
    return VerificationResult(passed=True, trials=trials, seed=seed)


def left_mult_matrix(algebra: BaricAlgebra, e):
    """Matrix of x -> e*x in the algebra basis; e must be an idempotent."""
    e = tuple(Q(c) for c in e)
    if len(e) != algebra.dim:
        raise AlgebraError("idempotent has wrong dimension")
    if not any(e):
        raise AlgebraError("idempotent must be nonzero")
    if algebra.mul(e, e) != e:
        raise AlgebraError("element is not idempotent")
    columns = []
    for j in range(algebra.dim):
        basis_vec = [ZERO] * algebra.dim
        basis_vec[j] = ONE
        columns.append(algebra.mul(e, tuple(basis_vec)))
    return [
        [columns[j][k] for j in range(algebra.dim)] for k in range(algebra.dim)
    ]


def char_poly(matrix) -> PeircePolynomial:
    """Exact characteristic polynomial det(X I - M), monic, by the
    Faddeev-LeVerrier recursion run in ints on N = den * M, with den the
    lcm of M's denominators: N_1 = N, c_k = -tr(N_k) / k, N_(k+1) =
    N (N_k + c_k I).  Every c_k(N) is an int, so each division by k is
    exact, and c_k(M) = c_k(N) / den^k."""
    d = len(matrix)
    den, flat = as_ints([as_q(c) for row in matrix for c in row])
    n = [flat[i * d : (i + 1) * d] for i in range(d)]
    coeffs = [1]  # X^d downward
    nk = [row[:] for row in n]
    for k in range(1, d + 1):
        ck = -sum(nk[i][i] for i in range(d)) // k
        coeffs.append(ck)
        if k == d:
            break
        for i in range(d):
            nk[i][i] += ck
        columns = list(zip(*nk))
        nk = [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in n]
    return PeircePolynomial([Q(c, den**k) for k, c in reversed(list(enumerate(coeffs)))])


def rational_roots(p: PeircePolynomial):
    """Rational roots with multiplicities plus the unfactored remainder.

    The search runs in ints, on A = den * p with the root 0 taken out: a
    root a/b in lowest terms has a dividing A's constant coefficient and b
    its leading one.  Each candidate pair is tested by the integer Horner
    sum b^n A(a/b), and a root is divided out of A at once, as A = (b t -
    a) B in ints, so a later candidate must also divide the ends of the
    deflated polynomial.  The search stops once it is a constant.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    valuation = p.valuation()
    den, ints = as_ints(p.coeffs[valuation:])
    found = {}
    scale = 1  # the product of b over the roots a/b divided out
    at_one, at_minus_one = sum(ints), _horner(ints, -1, 1)
    # divisors of the first ends: those of a deflated end are among them
    leads = _divisors(abs(ints[-1]))
    for a in _divisors(abs(ints[0])):
        if len(ints) == 1:
            break
        if ints[0] % a:
            continue
        leads = [b for b in leads if not ints[-1] % b]
        for b in leads:
            if gcd(a, b) != 1:
                continue
            for num in (-a, a):
                # A = (b t - a) B gives A(1) = (b - a) B(1), A(-1) = -(b + a) B(-1)
                if not (_divides(b - num, at_one) and _divides(b + num, at_minus_one)):
                    continue
                while len(ints) > 1 and not _horner(ints, num, b):
                    ints = _deflate(ints, num, b)
                    at_one, at_minus_one = sum(ints), _horner(ints, -1, 1)
                    scale *= b
                    found[num, b] = found.get((num, b), 0) + 1
    roots = [(ZERO, valuation)] if valuation else []
    roots += [(Q(num, b), mult) for (num, b), mult in found.items()]
    roots.sort(key=lambda rm: rm[0])
    # p / prod (t - a/b)^m = scale * B / den
    return roots, PeircePolynomial([Q(c * scale, den) for c in ints])


def _divides(d: int, n: int) -> bool:
    return n == 0 if d == 0 else n % d == 0


def _horner(ints, a: int, b: int) -> int:
    """b^n A(a/b) for the int polynomial A = sum ints[i] t^i of degree n."""
    acc, power = 0, 1
    for c in reversed(ints):
        acc = acc * a + c * power
        power *= b
    return acc


def _deflate(ints, a: int, b: int) -> list:
    """B with A = (b t - a) B, for a root a/b of the int polynomial A."""
    out, c = [], 0
    for coeff in reversed(ints[1:]):
        c = (coeff + a * c) // b
        out.append(c)
    return out[::-1]


def _divisors(n: int) -> list:
    """The positive divisors of n > 0, ascending, from its factorization
    by trial division, which stops at the square root of what is left."""
    divisors = [1]
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            divisors = [e * d**i for e in divisors for i in range(k + 1)]
        d += 1
    if n > 1:
        divisors += [e * n for e in divisors]
    return sorted(divisors)


def _json_field(obj, key, where="algebra"):
    if not isinstance(obj, dict):
        raise AlgebraError(f"{where} must be a JSON object")
    if key not in obj:
        raise AlgebraError(f"{where} has no key {key!r}")
    return obj[key]


def _json_list(value, what):
    if not isinstance(value, list):
        raise AlgebraError(f"{what} must be a JSON list")
    return value


def read_q(c):
    """A rational from its text (or a JSON number): an int, a decimal or
    "p/q" with q != 0, without exponent notation; AlgebraError otherwise."""
    text = str(c)
    if "e" in text or "E" in text:  # "1e2000000" would build a 2,000,001-digit int
        raise AlgebraError(f"{c!r} is not a rational p/q: no exponent notation")
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise AlgebraError(f"{c!r} is not a rational p/q with q != 0") from None


def _reader():
    """``read_q`` that reads each distinct text once, through a memo
    local to the reader: a text that raises is not kept, so it raises
    again, at each entry that has it."""
    memo = {}

    def read(c):
        text = str(c)
        q = memo.get(text)
        if q is None:
            q = memo[text] = read_q(c)
        return q

    return read


def load_algebra(source) -> BaricAlgebra:
    """Load an algebra from JSON: {"dim": d, "weight": [...],
    "structure": [[i, j, k, "p/q"], ...]} or {"dim": d,
    "mutation": {"matrix": [[...]], "weight": [...]}}.  Indices are
    0-based; rationals are "p/q" strings.  A missing key, a value of the
    wrong type, an index out of range, an exponent or a zero denominator
    raises AlgebraError."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    elif hasattr(source, "read"):
        obj = json.load(source)
    else:
        obj = source
    dim = _json_field(obj, "dim")
    try:
        dim = int(dim)
    except (TypeError, ValueError, OverflowError):
        raise AlgebraError(f"dim must be an integer, not {dim!r}") from None
    read = _reader()
    if "mutation" in obj:
        mut = obj["mutation"]
        rows = _json_list(_json_field(mut, "matrix", "mutation"), "matrix")
        matrix = [[read(c) for c in _json_list(row, "matrix row")] for row in rows]
        weight = [read(c) for c in _json_list(_json_field(mut, "weight", "mutation"), "weight")]
        return make_mutation(MutationSpec.make(matrix, weight))
    weight = [read(c) for c in _json_list(_json_field(obj, "weight"), "weight")]
    if len(weight) != dim:
        raise AlgebraError(f"weight has {len(weight)} entries, expected dim = {dim}")
    entries = {}
    for entry in _json_list(_json_field(obj, "structure"), "structure"):
        if not (
            isinstance(entry, list)
            and len(entry) == 4
            and all(type(n) is int and 0 <= n < dim for n in entry[:3])
        ):
            raise AlgebraError(
                f"structure entry {entry!r} is not [i, j, k, value] with 0 <= i, j, k < {dim}"
            )
        i, j, k, value = entry
        value = read(value)
        for a, b in ((i, j), (j, i)):
            if entries.setdefault((a, b, k), value) != value:
                raise AlgebraError(f"inconsistent structure entries for ({a}, {b}, {k})")
    return BaricAlgebra._from_ints(dim, *_cells(entries), tuple(weight))
