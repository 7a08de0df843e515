"""The four workloads: inputs made from the seed, operations, checkers.

``inputs(seed)`` uses only the benchmark's own code.  ``operations``
runs in the cold child process and calls the program; each operation
returns its raw result, and ``serialize`` turns the raw results into
JSON after the timed region.  ``check`` runs in the parent and tests
every output against ``reference``, never against a stored copy of an
earlier output; it returns one verdict per operation and the reasons
for any failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import re
from fractions import Fraction

import reference as R

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def corpus_lines(path: pathlib.Path) -> list[str]:
    return [l.strip() for l in path.read_text(encoding="utf-8").splitlines() if l.strip()]


def corpus_file(kind: str, ty) -> pathlib.Path:
    shape = R.shape_of(ty)
    return CORPUS / f"{kind}_{shape}" / ("_".join(map(str, ty)) + ".txt")


def run_cli(cli, argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "out": buf.getvalue()}


def _ok(failures: list, i: int, cond: bool, message: str) -> bool:
    if not cond:
        failures.append(f"op {i}: {message}")
    return cond


# ---------------------------------------------------------------------------
# train: every train identity of the four shape families, through the CLI


class Train:
    """One ``train --type T`` per type T of the families n, n,1, n,2 and
    n,1,1 up to the total degree cap, in the order ``train --type FAMILY
    --all CAP`` visits them, all in one process."""

    FAMILIES = {"n": (), "n,1": (1,), "n,2": (2,), "n,1,1": (1, 1)}
    MAX_DEGREE = 9

    def __init__(self, max_degree=MAX_DEGREE, families=tuple(FAMILIES)):
        self.max_degree = max_degree
        self.families = families

    def inputs(self, seed):
        return [{"type": [k, *self.FAMILIES[f]]}
                for f in self.families for k in range(1, self.max_degree - sum(self.FAMILIES[f]) + 1)]

    def operations(self, ev, inputs, workdir):
        from evanescent import cli

        argv = lambda ty: ["train", "--type", ",".join(map(str, ty))]
        return [lambda a=argv(i["type"]): run_cli(cli, a) for i in inputs]

    def serialize(self, raw):
        return raw

    def check_one(self, ty, output, failures, i):
        """Every line is w - P(w) for a distinct non-basis monomial w of
        the type, with coefficient sum 0 and zero Peirce polynomials;
        there is one line per non-basis monomial; every corpus line of
        the type is among them."""
        if not _ok(failures, i, output["rc"] == 0, f"exit status {output['rc']}"):
            return False
        canonical = R.canonical_type(ty)
        basis = set(R.basis_monomials(canonical))
        leads, polys = set(), set()
        for line in output["out"].splitlines():
            f = R.parse(line)
            types = [R.type_of(m) for m in f]
            ok = _ok(failures, i, ty == canonical, f"non-canonical type {ty} has a line: {line}")
            ok = ok and _ok(failures, i, all(len(t) <= len(ty) and all(a <= b for a, b in zip(t, ty))
                                             for t in types), f"a term exceeds the type {ty}: {line}")
            ok = ok and _ok(failures, i, sum(f.values()) == 0, f"coefficient sum is not 0: {line}")
            ok = ok and _ok(failures, i, R.peirce_zero(f), f"a Peirce polynomial is not 0: {line}")
            lead = [m for m, t in zip(f, types) if t == ty and m not in basis]
            ok = ok and _ok(failures, i, len(lead) == 1 and f[lead[0]] == 1 and lead[0] not in leads,
                            f"not w - P(w) for a new non-basis w: {line}")
            if not ok:
                return False
            leads.add(lead[0])
            polys.add(R.canon_text(f))
        expected = len(R.monomials(ty)) - len(basis)
        if not _ok(failures, i, len(leads) == expected, f"type {ty}: {len(leads)} identities, expected {expected}"):
            return False
        path = corpus_file("train", ty)
        for line in corpus_lines(path) if path.exists() else ():
            if not _ok(failures, i, R.canon_text(R.parse(line)) in polys, f"corpus line missing: {line}"):
                return False
        return True

    def check(self, inputs, outputs):
        failures: list = []
        verdicts = [self.check_one(tuple(x["type"]), out, failures, i)
                    for i, (x, out) in enumerate(zip(inputs, outputs))]
        return verdicts, failures


# ---------------------------------------------------------------------------
# homog: homogeneous identities of a handful of types, through the CLI


class Homog:
    TYPES = ((8,), (5, 1), (4, 2), (3, 1, 1), (8, 1), (6, 2), (6, 1, 1))

    def __init__(self, types=TYPES):
        self.types = types

    def inputs(self, seed):
        return [{"type": list(ty)} for ty in self.types]

    def operations(self, ev, inputs, workdir):
        from evanescent import cli

        argv = lambda ty: ["homog", "--type", ",".join(map(str, ty))]
        return [lambda a=argv(i["type"]): run_cli(cli, a) for i in inputs]

    def serialize(self, raw):
        return raw

    def check_one(self, ty, output, failures, i):
        if not _ok(failures, i, output["rc"] == 0, f"exit status {output['rc']}"):
            return False
        span = R.Echelon()
        count = 0
        for line in output["out"].splitlines():
            f = R.parse(line)
            ok = _ok(failures, i, all(R.type_of(m) == ty for m in f), f"not of type {ty}: {line}")
            ok = ok and _ok(failures, i, R.is_evanescent_identity(f), f"not evanescent: {line}")
            ok = ok and _ok(failures, i, span.add(f), f"linearly dependent on earlier lines: {line}")
            if not ok:
                return False
            count += 1
        expected = len(R.monomials(ty)) - R.peirce_system_rank(ty)
        if not _ok(failures, i, count == expected, f"type {ty}: {count} identities, expected {expected}"):
            return False
        path = corpus_file("homog", ty)
        if path.exists():
            for line in corpus_lines(path):
                if not _ok(failures, i, not span.residual(R.parse(line)),
                           f"corpus line outside the span: {line}"):
                    return False
        return True

    def check(self, inputs, outputs):
        failures: list = []
        verdicts = [self.check_one(tuple(x["type"]), out, failures, i)
                    for i, (x, out) in enumerate(zip(inputs, outputs))]
        return verdicts, failures


# ---------------------------------------------------------------------------
# crosscheck: reduce(w) against solve_Pw(w) for every non-basis monomial


def to_program(ev, m: str, cache: dict):
    """The program's interned monomial for a reference monomial string."""
    got = cache.get(m)
    if got is None:
        if m[0] == "(":
            u, v = R.split(m)
            got = ev.magma.product(to_program(ev, u, cache), to_program(ev, v, cache))
        else:
            got = ev.magma.leaf(R.var_index(m))
        cache[m] = got
    return got


def from_program(m, cache: dict) -> str:
    got = cache.get(m)
    if got is None:
        if m.is_leaf:
            got = R.var_name(m.var.index)
        else:
            got = R.mul(from_program(m.left, cache), from_program(m.right, cache))
        cache[m] = got
    return got


def poly_terms(f, cache) -> list:
    return sorted([from_program(m, cache), str(c)] for m, c in f.terms.items())


class Crosscheck:
    MAX_DEGREE = 7

    def __init__(self, max_degree=MAX_DEGREE):
        self.max_degree = max_degree

    def types(self):
        d = self.max_degree
        return ([(k,) for k in range(2, d + 1)] + [(k, 1) for k in range(1, d)]
                + [(k, 2) for k in range(2, d - 1)] + [(k, 1, 1) for k in range(1, d - 1)])

    def inputs(self, seed):
        """Every non-basis monomial, by type; the same for every seed."""
        words = []
        for ty in self.types():
            basis = set(R.basis_monomials(ty))
            words += [w for w in R.monomials(ty) if w not in basis]
        return [{"w": w} for w in words]

    def operations(self, ev, inputs, workdir):
        cache: dict = {}
        words = [to_program(ev, x["w"], cache) for x in inputs]
        return [lambda w=w: (ev.trainsgen.reduce(w), ev.trainsgen.solve_Pw(w)) for w in words]

    def serialize(self, raw):
        cache: dict = {}
        return [None if r is None else {"reduce": poly_terms(r[0], cache), "solve": poly_terms(r[1], cache)}
                for r in raw]

    def check(self, inputs, outputs):
        failures: list = []
        verdicts = []
        for i, (x, out) in enumerate(zip(inputs, outputs)):
            p = {m: Fraction(c) for m, c in out["reduce"]}
            diff = R.padd({x["w"]: Fraction(1)}, p, -1)
            ok = _ok(failures, i, out["reduce"] == out["solve"], f"reduce and solve_Pw differ on {x['w']}")
            ok = ok and _ok(failures, i, sum(p.values()) == 1, f"P(w) has coefficient sum != 1 for {x['w']}")
            ok = ok and _ok(failures, i, R.peirce_zero(diff), f"w - P(w) has a nonzero Peirce polynomial for {x['w']}")
            verdicts.append(ok)
        return verdicts, failures


# ---------------------------------------------------------------------------
# verify: randomized verification through the CLI


def _random_q(rng) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


def random_mutation(rng, dim) -> dict:
    matrix = [[_random_q(rng) for _ in range(dim)] for _ in range(dim)]
    matrix[0] = [Fraction(1)] + [Fraction(0)] * (dim - 1)
    weight = [Fraction(1)] + [Fraction(0)] * (dim - 1)
    return {"matrix": matrix, "weight": weight}


def random_baric(rng, dim) -> dict:
    """Commutative structure constants with weight (1, 0, ..., 0): the
    e_0-coordinate of e_i e_j is w_i w_j, the others are random."""
    structure = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            col = [_random_q(rng) for _ in range(dim)]
            col[0] = Fraction(1 if i == j == 0 else 0)
            structure[i][j] = structure[j][i] = col
    return {"structure": structure, "weight": [Fraction(1)] + [Fraction(0)] * (dim - 1)}


def algebra_json(spec) -> dict:
    s = lambda q: str(q)
    if "matrix" in spec:
        return {"dim": len(spec["weight"]), "mutation": {
            "matrix": [[s(c) for c in row] for row in spec["matrix"]],
            "weight": [s(c) for c in spec["weight"]]}}
    d = len(spec["weight"])
    entries = [[i, j, k, s(spec["structure"][i][j][k])]
               for i in range(d) for j in range(i, d) for k in range(d) if spec["structure"][i][j][k]]
    return {"dim": d, "weight": [s(c) for c in spec["weight"]], "structure": entries}


def structure_of(spec):
    if "matrix" in spec:
        return R.mutation_structure(spec["matrix"], spec["weight"])
    return spec["structure"]


_VERDICT = re.compile(r"FAIL \((weight-1|weighted) evaluation, trial (\d+)\)$")
_BINDING = re.compile(r"  (\w+) = \((.*)\)$")


class Verify:
    TRIALS = 4
    REFUTE_TRIALS = 16  # the standard identity and the control: a miss would be a false PASS
    DIMS = (2, 3, 4, 5)

    def __init__(self, corpus_files=None):
        self.corpus_files = corpus_files

    def inputs(self, seed):
        """Every corpus identity on its own mutation algebra (must
        pass); the standard identity of degree d on baric algebras of
        dimension d (must pass) and d + 1 (must fail); x^2 - x on the
        mutation algebra with spectrum {1, 2} (must fail).

        The algebras are drawn from a fixed seed, so every run does the
        same algebra work; ``seed`` picks the verification seeds, and
        with them the random points each verification evaluates at."""
        rng = random.Random(0)
        cases = []
        for path in sorted(CORPUS.glob("*/*.txt"))[: self.corpus_files]:
            for line in corpus_lines(path):
                dim = self.DIMS[len(cases) % len(self.DIMS)]
                cases.append({"identity": line, "algebra": random_mutation(rng, dim), "expect": "PASS",
                              "trials": self.TRIALS})
        for d in (2, 3):
            for dim, expect in ((d, "PASS"), (d + 1, "FAIL")):
                cases.append({"standard": d, "algebra": random_baric(rng, dim), "expect": expect,
                              "trials": self.REFUTE_TRIALS})
        spectrum = {"matrix": [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(4)]],
                    "weight": [Fraction(1), Fraction(0)]}
        points = random.Random(seed)
        for case in cases:
            case["seed"] = points.randrange(1 << 16)
        cases.append({"identity": "x^2 - x", "algebra": spectrum, "expect": "FAIL", "seed": 0,
                      "trials": self.REFUTE_TRIALS})
        return cases

    def operations(self, ev, inputs, workdir):
        from evanescent import cli

        ops = []
        for n, case in enumerate(inputs):
            path = pathlib.Path(workdir) / f"algebra{n}.json"
            path.write_text(json.dumps(algebra_json(case["algebra"])), encoding="utf-8")
            text = case.get("identity")
            if text is None:
                text = ev.format_polynomial(ev.standard_baric_identity(case["standard"]))
            argv = ["verify", "--algebra", str(path), "--identity", text,
                    "--trials", str(case["trials"]), "--seed", str(case["seed"])]
            ops.append(lambda a=argv, t=text: dict(run_cli(cli, a), identity=t))
        return ops

    def serialize(self, raw):
        return raw

    def check_one(self, case, output, failures, i):
        f = R.parse(output["identity"])
        if "standard" in case:
            if not _ok(failures, i, f == R.standard_identity(case["standard"]),
                       f"standard_baric_identity({case['standard']}) differs from its definition"):
                return False
        else:
            if not _ok(failures, i, output["identity"] == case["identity"], "identity text changed"):
                return False
            if case["expect"] == "PASS" and not _ok(
                    failures, i, R.is_evanescent_identity(f), "sampled identity is not evanescent"):
                return False
        lines = output["out"].splitlines()
        header = f"# seed={case['seed']} trials={case['trials']}"
        if not _ok(failures, i, lines[:1] == [header], f"bad header {lines[:1]}"):
            return False
        if case["expect"] == "PASS":
            return _ok(failures, i, output["rc"] == 0 and lines[1:] == ["PASS"],
                       f"expected PASS, got {lines[1:]} (exit {output['rc']})")
        match = _VERDICT.match(lines[1]) if len(lines) > 1 else None
        if not _ok(failures, i, output["rc"] == 1 and match is not None,
                   f"expected FAIL, got {lines[1:]} (exit {output['rc']})"):
            return False
        bindings = {}
        for line in lines[2:]:
            b = _BINDING.match(line)
            if not _ok(failures, i, b is not None, f"bad counterexample line {line!r}"):
                return False
            bindings[b.group(1)] = [Fraction(c) for c in b.group(2).split(", ")]
        names = {name for m in f for name, _ in R.leaves(m)}
        if not _ok(failures, i, set(bindings) == names, "counterexample does not bind every variable"):
            return False
        weight = case["algebra"]["weight"]
        weighted = match.group(1) == "weighted"
        if not weighted:
            omegas = [sum(w * x for w, x in zip(weight, v)) for v in bindings.values()]
            if not _ok(failures, i, all(o == 1 for o in omegas), "weight-1 counterexample has weight != 1"):
                return False
        value = R.evaluate(f, structure_of(case["algebra"]), weight, bindings, weighted)
        return _ok(failures, i, any(value), "counterexample evaluates to 0")

    def check(self, inputs, outputs):
        failures: list = []
        verdicts = [self.check_one(x, out, failures, i)
                    for i, (x, out) in enumerate(zip(inputs, outputs))]
        return verdicts, failures


WORKLOADS = {"train": Train, "homog": Homog, "crosscheck": Crosscheck, "verify": Verify}
