import collections
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from evanescent import syntax
from evanescent.cli import _emit_identities, build_parser, main
from evanescent.homgen import peirce_matrix
from evanescent.peirce import is_evanescent
from evanescent.poly import Polynomial
from evanescent.rationals import Q
from evanescent.syntax import parse

from conftest import fraction_format, fraction_nullspace, polynomial_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_peirce_command(capsys):
    code, out, _ = run_cli(capsys, "peirce", "((t1 t2) t2)(t3^2) ((t1^2 t3) t1)")
    assert code == 0
    assert out.splitlines() == [
        "d_x = 3t^4 + t^2",
        "d_y = t^4 + t^3",
        "d_z = 3t^3",
    ]


def test_peirce_single_var(capsys):
    code, out, _ = run_cli(capsys, "peirce", "x^2 y", "--var", "y")
    assert code == 0
    assert out == "d_y = t\n"


def test_check_evanescent(capsys):
    code, out, _ = run_cli(capsys, "check", "x^2 x^2 - 2 x^3 + x^2")
    assert code == 0
    assert "evanescent identity" in out


def test_check_expect_flag(capsys):
    code, out, _ = run_cli(
        capsys, "check", "x^2 - x", "--expect-evanescent"
    )
    assert code == 1
    assert "not evanescent" in out


def test_wnumber(capsys):
    code, out, _ = run_cli(capsys, "wnumber", "--type", "10,1,1")
    assert code == 0
    assert out.strip() == "23454"


def test_enum(capsys):
    code, out, _ = run_cli(capsys, "enum", "--type", "4")
    assert code == 0
    assert out.splitlines() == ["x^4", "x^2 x^2"]


def test_train_of(capsys):
    code, out, _ = run_cli(capsys, "train", "--of", "x^2 x^2")
    assert code == 0
    assert out.strip() == "x^2 x^2 - 2 x^3 + x^2"


def test_train_type(capsys):
    code, out, _ = run_cli(capsys, "train", "--type", "5")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_train_family(capsys):
    code, out, _ = run_cli(capsys, "train", "--type", "n", "--all", "6")
    assert code == 0
    # degrees 4, 5, 6 contribute 1 + 2 + 5 identities
    assert len(out.splitlines()) == 8


def test_train_family_needs_all(capsys):
    code, _, err = run_cli(capsys, "train", "--type", "n,1")
    assert code == 2


@pytest.mark.parametrize("family, cap", [("n", "11"), ("n,1,1", "12")])
def test_train_family_over_the_degree_cap_prints_nothing(capsys, family, cap):
    # every type of the family is checked against the cap before any is generated
    code, out, err = run_cli(capsys, "train", "--type", family, "--all", cap)
    assert (code, out) == (2, "")
    assert err == "error: total degree 11 exceeds the cap 10; raise max_degree to override\n"


@pytest.mark.parametrize("cap", [str(10**8), str(10**20)])
def test_train_family_over_the_cap_lists_no_type(capsys, cap):
    code, out, err = run_cli(capsys, "train", "--type", "n,1", "--all", cap)
    assert (code, out) == (2, "")
    assert err == "error: total degree 11 exceeds the cap 10; raise max_degree to override\n"


def test_train_type_over_the_cap_builds_no_family(capsys, monkeypatch):
    from evanescent import trainsgen

    def unbuilt(tag, n):
        raise AssertionError("family built")

    monkeypatch.setattr(trainsgen, "_family", unbuilt)
    code, out, err = run_cli(capsys, "train", "--type", "200000")
    assert (code, out) == (2, "")
    assert err == "error: total degree 200000 exceeds the cap 10; raise max_degree to override\n"


def test_homog_jsonl_reparses(capsys):
    code, out, _ = run_cli(capsys, "homog", "--type", "6", "--format", "jsonl")
    assert code == 0
    json_lines = out.splitlines()
    assert len(json_lines) == 2
    code, out, _ = run_cli(capsys, "homog", "--type", "6")
    text_lines = out.splitlines()
    for jline, tline in zip(json_lines, text_lines):
        obj = json.loads(jline)
        assert obj["type"] == [6]
        assert polynomial_from_json(obj) == parse(tline)


@pytest.mark.parametrize("ty", [(5, 1, 1), (6, 2)], ids=str)
def test_homog_matches_fraction_nullspace(capsys, ty):
    # the reference: the dense Fraction nullspace, rendered by Fraction
    # arithmetic
    matrix = peirce_matrix(ty)
    want = "".join(
        fraction_format(Polynomial(dict(zip(matrix.col_labels, vec)))) + "\n"
        for vec in fraction_nullspace(matrix.rows)
    )
    assert run_cli(capsys, "homog", "--type", ",".join(map(str, ty))) == (0, want, "")


def test_verify_pass_and_fail(capsys, tmp_path):
    spec = {
        "dim": 3,
        "mutation": {
            "matrix": [["1", "0", "0"], ["0", "2", "1/2"], ["0", "0", "-1"]],
            "weight": ["1", "0", "0"],
        },
    }
    path = tmp_path / "mutation.json"
    path.write_text(json.dumps(spec), encoding="utf-8")

    code, out, _ = run_cli(
        capsys,
        "verify",
        "--algebra", str(path),
        "--identity", "x^2 x^2 - 2 x^3 + x^2",
        "--trials", "16",
        "--seed", "4",
    )
    assert code == 0
    assert out.startswith("# seed=4 trials=16\n")
    assert "PASS" in out

    code, out, _ = run_cli(
        capsys,
        "verify",
        "--algebra", str(path),
        "--identity", "x^2 - x",
        "--trials", "32",
        "--seed", "0",
    )
    assert code == 1
    assert "FAIL" in out


def test_spectrum(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--eigenvalues", "0,1/2")
    assert code == 0
    assert "char poly = X^3 - 3/2X^2 + 1/2X" in out
    assert "0 (x1), 1/2 (x1), 1 (x1)" in out


@pytest.mark.parametrize("value", ["1/0", "1e5000"], ids=["zero-denominator", "exponent"])
def test_spectrum_rejects_bad_eigenvalue_with_one_line(capsys, value):
    # read by a bare Fraction, 1/0 raised ZeroDivisionError and 1e5000 ran for seconds
    code, out, err = run_cli(capsys, "spectrum", "--eigenvalues", f"0,{value}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_determinism(capsys):
    args = ("train", "--type", "n,1", "--all", "5", "--format", "jsonl")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_usage_errors(capsys):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "wnumber", "--type", "bogus")[0] == 2
    assert run_cli(capsys, "check", "x +")[0] == 2
    assert run_cli(capsys, "train", "--of", "x + y")[0] == 2


def test_deep_monomial(capsys):
    code, out, err = run_cli(capsys, "peirce", "x^{1500} y")
    assert code == 0
    assert "d_y = t^1500" in out.splitlines()
    code, out, err = run_cli(capsys, "check", "x^{1500} y")
    assert code == 0
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "expr",
    ["x^1200", " ".join(["x y"] * 600), "x^{2000}((xy)z) - x^{2000}((xz)y)"],
    ids=["power", "word", "chains"],
)
def test_check_deep_rendering(capsys, expr):
    # x^1200 is a deep principal power; the 1,200-letter word nests as
    # deeply with no power or chain to collapse it in print; the two chains
    # agree for 2,000 levels, so printing them in order compares that deep
    code, out, err = run_cli(capsys, "check", expr)
    assert (code, err) == (0, "")
    assert "Traceback" not in out
    report = is_evanescent(parse(expr))
    assert not report.is_peirce_evanescent
    lines = out.splitlines()
    assert lines[0].startswith("polynomial: ")
    assert lines[-2:] == [f"value at ones = {report.at_ones}", "verdict: not evanescent"]


def test_large_variable_index_costs_no_memory_per_node(capsys):
    # each of the 299 interned nodes of t300000^300 keeps its type as the
    # sparse counts ((300000, k),); a dense vector up to index 300000 at
    # every node would hold 299 tuples of 300,001 entries, about 700 MB
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "check", "t300000^300")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    # recorded while each node still held its dense vector
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "26beb7691c3b23ab5bed4ec3a3a37c076f81ef7e10a5be2b065e224a919c78da"
    )
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize(
    "argv",
    [
        ("wnumber", "--type", "200,200,200"),
        ("enum", "--type", "1200"),
        ("train", "--type", "1200", "--max-degree", "2000"),
    ],
    ids=["wnumber", "enum", "train"],
)
def test_too_deep_inputs_exit_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: input too large: maximum recursion depth exceeded\n"


@pytest.mark.parametrize(
    "expr, same_as",
    [("(" * 3000 + "x" + ")" * 3000, "x"), ("x^{1} " * 2000 + "y", "x^{2000} y")],
    ids=["parens", "prefixes"],
)
def test_deep_nesting_gets_an_answer(capsys, expr, same_as):
    # the parser keeps its own stack, so nesting depth is bounded by
    # nothing but the length of the text
    code, out, err = run_cli(capsys, "check", expr)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "check", same_as)[1]


@pytest.mark.parametrize("command", ["homog", "enum", "wnumber"])
def test_huge_type_entries_exit_2_with_one_line(capsys, command):
    code, out, err = run_cli(capsys, command, "--type", "99999999999999999999")
    assert (code, out) == (2, "")
    assert err.startswith("error: input too large: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "expr, err",
    [
        ("x^\u0663", "error: expected an integer, found '\u0663' (line 1, column 3)\n"),
        ("x^\u00b2", "error: expected an integer, found '\u00b2' (line 1, column 3)\n"),
        ("t\u0663", "error: unknown variable name 't' (line 1, column 1)\n"),
    ],
    ids=["arabic-indic-digit", "superscript-two", "variable-index"],
)
def test_non_ascii_digits_exit_2_with_one_line(capsys, expr, err):
    # only the ASCII digits 0-9 are digits of the grammar
    assert run_cli(capsys, "check", expr) == (2, "", err)


_EXPRESSIONS = st.recursive(
    st.sampled_from(
        ["x", "y", "z", "t2", "xy", "x^2", "y^[2]", "x^[3]", "2 x", "1/2 z", "x^{3} y"]
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(" ".join),
        st.tuples(inner, st.sampled_from(["+", "-"]), inner).map(" ".join),
        inner.map("({})".format),
        st.tuples(st.sampled_from(["x", "t3"]), st.integers(0, 2), inner).map(
            lambda t: f"{t[0]}^{{{t[1]}}} {t[2]}"
        ),
    ),
    max_leaves=5,
)


@st.composite
def _cli_expressions(draw):
    """A valid, mutated, unbalanced or deeply nested expression."""
    text = draw(_EXPRESSIONS)
    how = draw(st.sampled_from(["valid", "mutated", "unbalanced", "nested"]))
    if how == "mutated":
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(list("xyzt()[]{}^+-/0 \n"))) + text[k + 1:]
    elif how == "unbalanced":
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(["(", ")", "((", "))"])) + text[k:]
    elif how == "nested":
        depth = draw(st.integers(1, 3000))
        text = "(" * depth + text + ")" * (depth + draw(st.integers(-1, 1)))
    return text


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.sampled_from([("check",), ("peirce",), ("train", "--of")]),
    _cli_expressions(),
    st.booleans(),
)
def test_cli_answers_any_expression_or_exits_2_with_one_line(command, expr, dash):
    # with a "-" in front, the expression is still read as the expression:
    # the exit status and stdout are those of the same text after a space
    if dash and not expr.startswith("-"):
        expr = "-" + expr
        got = assert_answers_or_exits_2_with_one_line([*command, expr])
        assert got == assert_answers_or_exits_2_with_one_line([*command, " " + expr])
    else:
        assert_answers_or_exits_2_with_one_line([*command, expr])


def assert_answers_or_exits_2_with_one_line(argv):
    """Run main in process: exit 0, 1 or 2 with no traceback, and on
    exit 2 an empty stdout and one error line.  Returns (exit, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    return code, out


_HUGE = "100000000000000000000"
_MALFORMED_TYPES = ["", "1,,2", "-1", "a", "0", _HUGE, f"3,{_HUGE}"]


@st.composite
def _type_commands(draw):
    """The argv of enum, wnumber, homog or train --type: a type of total
    degree at most 7 (for wnumber, 1-3 entries of 0-6), a malformed or
    huge one, or for train a family with or without --all, then an
    optional --max-degree and a --format."""
    command = draw(st.sampled_from(["enum", "wnumber", "homog", "train"]))
    if command == "wnumber":
        entries = st.lists(st.integers(0, 6), min_size=1, max_size=3)
    else:
        entries = st.lists(st.integers(0, 7), min_size=1, max_size=3).filter(
            lambda ty: sum(ty) <= 7
        )
    entries = entries.map(lambda ty: ",".join(map(str, ty)))
    ty = draw(st.one_of(entries, st.sampled_from(_MALFORMED_TYPES)))
    argv = [command, "--type", ty]
    if command == "train":
        if draw(st.booleans()):
            argv[2] = draw(st.sampled_from(["n", "n,1", "n,2", "n,1,1"]))
            if draw(st.integers(0, 4)):
                argv += ["--all", str(draw(st.integers(0, 9)))]
        if draw(st.booleans()):
            argv += ["--max-degree", str(draw(st.integers(-1, 12)))]
    return argv + ["--format", draw(st.sampled_from(["text", "jsonl"]))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_type_commands())
def test_type_commands_answer_or_exit_2_with_one_line(argv):
    assert_answers_or_exits_2_with_one_line(argv)


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--type", ""], "error: bad type '': invalid literal for int() with base 10: ''\n"),
        (["--of", ""], "error: empty input (line 1, column 1)\n"),
        (["--of", "", "--type", "3"], "error: empty input (line 1, column 1)\n"),
    ],
    ids=["type", "of", "of-and-type"],
)
def test_empty_train_texts_are_given_values(capsys, argv, err):
    # an empty --type or --of is read as the text it is, as enum and check read it
    assert run_cli(capsys, "train", *argv) == (2, "", err)


def _rationals(size):
    """Texts n/d, or n when d = 1, with |n| <= size and 1 <= d <= size."""
    return st.builds(
        lambda n, d: f"{n}/{d}" if d > 1 else str(n), st.integers(-size, size), st.integers(1, size)
    )


_MALFORMED_RATIONALS = [",", "1/0", "1e3", "a", "1//2"]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.one_of(st.lists(_rationals(30), max_size=5), st.sampled_from(_MALFORMED_RATIONALS)),
    st.sampled_from(["text", "jsonl"]),
    st.booleans(),
)
def test_spectrum_answers_or_exits_2_with_one_line(values, fmt, joined):
    # the Peirce spectrum of the built algebra is 1 and the given values;
    # the list is joined to its flag or given as the next argument, which
    # may begin with "-"
    text = values if isinstance(values, str) else ",".join(values)
    flag = [f"--eigenvalues={text}"] if joined else ["--eigenvalues", text]
    code, out = assert_answers_or_exits_2_with_one_line(["spectrum", *flag, "--format", fmt])
    assert code == (2 if isinstance(values, str) else 0)
    if code:
        return
    if fmt == "jsonl":
        roots = json.loads(out)["roots"]
    else:
        (line,) = [line for line in out.splitlines() if line.startswith("roots = ")]
        roots = [root[:-1].split(" (x") for root in line[len("roots = "):].split(", ")]
    got = collections.Counter()
    for r, m in roots:
        got[Q(r)] += int(m)
    assert got == collections.Counter([Q(1), *map(Q, values)])


_ENTRIES = _rationals(3)


@st.composite
def _algebra_texts(draw):
    """The JSON text of an algebra of dimension 1-3 in either form, most
    often a baric one, or of one with a missing key, a wrong type, an
    exponent, a zero denominator or an index out of range."""
    dim = draw(st.integers(1, 3))
    # the weight (a, 0, ...) is a character when only e0 e0 has an e0 term, a,
    # and it is fixed by a mutation map whose first row is (1, 0, ...)
    a = draw(_ENTRIES.filter(lambda c: Q(c) != 0))
    weight = [a] + ["0"] * (dim - 1)
    entries = st.lists(_ENTRIES, min_size=dim, max_size=dim)
    if draw(st.booleans()):
        matrix = [["1"] + ["0"] * (dim - 1), *draw(st.lists(entries, min_size=dim - 1, max_size=dim - 1))]
        spec = {"dim": dim, "mutation": {"matrix": matrix, "weight": weight}}
    else:
        cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), st.integers(1, 3), _ENTRIES)
        cells = cells.filter(lambda cell: cell[2] < dim).map(list)
        unordered = lambda cell: (min(cell[:2]), max(cell[:2]), cell[2])
        structure = [[0, 0, 0, a], *draw(st.lists(cells, max_size=6, unique_by=unordered))]
        spec = {"dim": dim, "weight": weight, "structure": structure}
    if draw(st.booleans()):
        # a structure form's weight is then most often no character
        weight[0] = draw(st.sampled_from(["-1", "2", "1/2"]))
    fault = draw(st.sampled_from([None] * 5 + ["missing", "type", "exponent", "zero", "index"]))
    if fault == "missing":
        del spec["dim"]
    elif fault == "type":
        spec["dim"] = [dim]
    elif fault == "exponent":
        weight[-1] = "1e3"
    elif fault == "zero":
        weight[-1] = "1/0"
    elif fault == "index":
        (spec.get("structure") or spec["mutation"]["matrix"]).append([0, dim, 0, "1"])
    return json.dumps(spec)


_IDENTITIES = [
    "x^2x^2-2x^3+x^2",
    "(x^2x^2)y-2x^3y+x^2y",
    "x^2(xy)-x(xy)-x^2y+xy",
    "x^2 y^2 - (x y)(x y)",
    "",
    "x^",
    "2 x - y",
]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    _algebra_texts(),
    st.sampled_from(_IDENTITIES),
    st.integers(-1, 3),
    st.sampled_from([0, 7, -5, 2**70]),
    st.sampled_from(["text", "jsonl"]),
)
def test_verify_answers_or_exits_2_with_one_line(tmp_path_factory, algebra, identity, trials, seed, fmt):
    path = tmp_path_factory.mktemp("algebra") / "algebra.json"
    path.write_text(algebra, encoding="utf-8")
    argv = ["verify", "--algebra", str(path), "--identity", identity,
            "--trials", str(trials), "--seed", str(seed), "--format", fmt]
    assert_answers_or_exits_2_with_one_line(argv)


def test_python_dash_m_runs_the_cli(capsys):
    # ``python -m evanescent`` from the source tree gives main's stdout and exit status
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "evanescent", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = run("wnumber", "--type", "6,6")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run_cli(capsys, "wnumber", "--type", "6,6")[1]
    done = run("homog", "--type", "0")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _write_algebra(tmp_path, name, matrix, weight):
    path = tmp_path / name
    spec = {"dim": len(weight), "mutation": {"matrix": matrix, "weight": weight}}
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def test_verify_deep_identity(capsys, tmp_path):
    # a field satisfies it; the 3-dimensional mutation algebra does not
    identity = "x^{1500} y - x^{1499} y^2"
    field = _write_algebra(tmp_path, "field.json", [["1"]], ["1"])
    code, out, err = run_cli(
        capsys, "verify", "--algebra", field, "--identity", identity, "--trials", "8"
    )
    assert (code, out) == (0, "# seed=0 trials=8\nPASS\n")
    assert "Traceback" not in err
    mutation = _write_algebra(
        tmp_path,
        "mutation.json",
        [["1", "0", "0"], ["0", "2", "1/2"], ["0", "0", "-1"]],
        ["1", "0", "0"],
    )
    code, out, err = run_cli(
        capsys, "verify", "--algebra", mutation, "--identity", identity, "--trials", "8"
    )
    assert code == 1
    assert out.splitlines()[:2] == [
        "# seed=0 trials=8",
        "FAIL (weight-1 evaluation, trial 0)",
    ]
    assert "Traceback" not in err


def test_verify_rejects_zero_trials(capsys, tmp_path):
    field = _write_algebra(tmp_path, "field.json", [["1"]], ["1"])
    code, out, err = run_cli(
        capsys, "verify", "--algebra", field, "--identity", "x^2 - x", "--trials", "0"
    )
    assert (code, out, err) == (2, "", "error: trials must be >= 1\n")


def test_values_that_begin_with_a_dash_are_values(capsys, tmp_path):
    # "--flag value" reads as "--flag=value" when the value begins with "-"
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(MUTATION_3), encoding="utf-8")
    cases = [
        (["spectrum", "--eigenvalues"], "-1/2"),
        (["spectrum", "--eigenvalues"], "-1/2,-3"),
        (["verify", "--algebra", str(path), "--identity"], "-x^2 + x^2"),
        (["verify", "--algebra", str(path), "--identity"], "-x^2"),
        (["train", "--of"], "-x"),
        (["train", "--type"], "-1,2"),
        (["spectrum", "--format"], "-x"),
    ]
    results = []
    for argv, value in cases:
        separate = run_cli(capsys, *argv, value)
        assert separate == run_cli(capsys, *argv[:-1], f"{argv[-1]}={value}")
        results.append(separate[0])
    assert results == [0, 0, 0, 1, 2, 2, 2]
    assert run_cli(capsys, "train", "--of", "-x")[2] == "error: expected a monomial with coefficient 1\n"
    # a real usage error is still argparse's: a missing value, and an
    # option after a value option is not taken for its value
    for argv in (["spectrum", "--eigenvalues"], ["spectrum", "--eigenvalues", "--format", "text"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("usage: evanescent")


def test_an_expression_that_begins_with_a_dash_is_the_expression(capsys):
    # check and peirce read a positional EXPR that begins with "-" as the
    # EXPR, wherever it stands among the options, with the stdout of the
    # leading-space form
    cases = [
        (["check", "-x^2"], 0),
        (["peirce", "-x"], 0),
        (["check", "--format", "jsonl", "-x^2"], 0),
        (["check", "-x^2", "--format", "jsonl"], 0),
        (["peirce", "-x^2 y", "--var", "y"], 0),
        (["check", "--expect-evanescent", "-x^2"], 1),
    ]
    for argv, code in cases:
        spaced = [" " + arg if arg.startswith("-x") else arg for arg in argv]
        got = run_cli(capsys, *argv)
        assert got[:2] == run_cli(capsys, *spaced)[:2] and got[0] == code and got[1]
    assert run_cli(capsys, "check", "-x^")[2] == "error: unexpected end of input (line 1, column 4)\n"
    # -h still prints help, and a real usage error is still argparse's
    for argv in (["check", "-h"], ["check", "-x^2", "-h"], ["peirce", "-h"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("usage: evanescent") and err == ""
    for argv in (["check"], ["check", "-x", "-y"], ["check", "x", "--bogus"], ["homog", "-x"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("usage: evanescent")


def test_value_options_are_the_parsers():
    import argparse

    from evanescent.cli import _VALUE_OPTIONS

    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    takes_value = {
        flag
        for command in commands.choices.values()
        for action in command._actions
        if action.option_strings and action.nargs is None and action.const is None
        and not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert _VALUE_OPTIONS == takes_value


def test_main_calls_share_one_parser(capsys):
    calls = [
        ("wnumber", "--type", "4,1"),
        ("nonsense",),  # rejected by the parser
        ("train", "--of", "x^2 x^2"),
        ("peirce", "x^2 y", "--var", "x y"),  # ValueError
        ("train", "--type", "n,1"),  # rejected by the command
        ("enum", "--type", "4", "--format", "jsonl"),
        ("check", "x^2 - x", "--expect-evanescent"),
        ("wnumber", "--type", "4,1"),
    ]
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert build_parser() is build_parser()
    # each call on a parser of its own, as when every call built one
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 2, 0, 1, 0]
    assert shared[0] == shared[-1] == (0, "9\n", "")
    assert shared[1][2].startswith("usage: evanescent")
    assert shared[2] == (0, "x^2 x^2 - 2 x^3 + x^2\n", "")
    assert shared[3] == (2, "", "error: --var takes a single variable name\n")
    assert shared[4] == (2, "", "error: family types like 'n,1' need --all MAXDEG\n")


# sha256 of stdout, the first six recorded before the Peirce polynomials
# were packed into ints; every run exits 0 with nothing on stderr
STDOUT_DIGESTS = {
    ("train", "--type", "n,1", "--all", "9"):
        "5efc52c7550407618c07901231e04cda9e4b0f642be5d487ef77a4ccbce186eb",
    ("train", "--type", "n,1,1", "--all", "7"):
        "91c9fae1262eee32ab0393bb162994568204264927fe2e43eae30c209d3eee6d",
    ("homog", "--type", "6,1,1"):
        "caa9e7a5f307191ea99c218da3925042dfbd8d65eb990e5cf878b616f7f3c97c",
    ("homog", "--type", "8,1"):
        "a809b1b365cee90939bfeb6c5ef7e6ed8204fe732e55b5bd7a9cdb9eeb81146e",
    ("peirce", "1/2 x^2 y - 2/3 x (x y) + 5/7 (y x) x - 3/4 y^2 z"):
        "db84101f592d1a13922e9a2fa41adc6d7492004b7b07d562b0beb93ed81af096",
    ("check", "x^2 y - 1/3 x (x y) + 2/5 y^2 - 7/9 x^2"):
        "5bfc24e068bef54cdb7e538eb720072a3fdeef11c69c60acfec3b8cfd0179610",
    # recorded before identities were printed from their int forms
    ("train", "--type", "n,2", "--all", "7", "--format", "jsonl"):
        "895939f9e91ec9ffe35fc8d8a034f69b2554caf6bfa3f2d382b97687b043f5b7",
    ("homog", "--type", "5,1", "--format", "jsonl"):
        "08c417d4d8a8d76d83076e211bec1d2322c756981383d380b7ac628a542818b6",
    ("train", "--type", "0,4,1,1"):
        "50be3f0d36e618bcefd6a0c623a90ab0bd32d00b6f7df4d4515427b2759b778e",
    # a non-basis monomial whose letters are not the canonical ones
    ("train", "--of", "(z(zy))x"):
        "36b2e18aa9a6e93f0b01ba7099fb586e80e223a41529754b0c7eb01fb1d2c504",
    ("train", "--of", "(z(zy))x", "--format", "jsonl"):
        "9645dee2438f55a19841acbac15ab56c712cc039ea14cd6d1b83a9f617266ccc",
    # recorded before Monomial dropped its dense type vector: the order of
    # the enumerations is what that change touches
    ("enum", "--type", "3,1,1"):
        "b7e3fbf69b57f6badad4e329813579db4589a2288ccf00bf694063f9fd5825b0",
    ("enum", "--type", "4,2"):
        "c7d278cb0e2809155eba212305fbd6e62cf652d59571bc9e6544e69cb77e5439",
    ("wnumber", "--type", "6,6"):
        "10036e3ef6bb3dfa7ac9fc27f845b095782743a1c30ca62c0b08e7e69e297dc6",
    ("spectrum", "--eigenvalues", "0,1/2,-3"):
        "d7ed7cf529653cbb35ecfe8c42a5917b4ebbf1a4fbf9865b7af7e7ee8988e91d",
    ("spectrum", "--eigenvalues", "0,1/2,-3", "--format", "jsonl"):
        "698cf33107600bd4eaf57ee51cc6add9e897a2a452e27d2299dedb2eda66dd5d",
    # recorded before the rewriting summed its rules in one pass and the
    # printer stopped calling q_text per term: the train families the
    # benchmark runs, and one more homogeneous type
    ("train", "--type", "n", "--all", "9"):
        "98e4d398aff1430eb8cc94612b0c11eeb094d8b1f85396374f454fd2dfdc62f9",
    ("train", "--type", "n,2", "--all", "9"):
        "f2bd121b6fa1f115e991ada24967488af38fc4005911fa6a2d6583c437d6ca8a",
    ("train", "--type", "n,1,1", "--all", "9"):
        "15d2c94640258b9bc3c458472664aeedd40ba28d0df5f88b803b8c3a7b6dd4b3",
    ("homog", "--type", "6,2"):
        "2d132c6f8866ba1769e2994c62c85c72739780aa74b3faff520be1b4089bbeb3",
    # recorded before the elimination ran on the distinct Peirce columns
    # alone (1,314 columns, 539 distinct) and enumeration stopped sorting
    ("homog", "--type", "7,1,1"):
        "afbac9fd220dc1cc0468b7f7bfa5662da7a72cb3b6dda409f2d4e374f055f368",
    # recorded before train reduced once per Peirce class: a type whose
    # letters are not the canonical ones, and a large n,2 type in jsonl
    ("train", "--type", "1,7,1"):
        "255eff8e80ef2437c6b2731b5cb5c627bcc2b77a625a706b310215f35b823458",
    ("train", "--type", "8,2", "--format", "jsonl"):
        "1c0f5fc8610dfacd9e372d1105e09b9bbf18da591434090ba7ef9b3f72d793b7",
    # recorded before format_sum took int forms and train checked each
    # Peirce class once: the other callers of the sum renderer (Peirce
    # polynomials, with denominators), and an n,1,1 type in jsonl
    ("peirce", "1/2 x^2 y - 2/3 x (x y) + 5/7 (y x) x - 3/4 y^2 z", "--format", "jsonl"):
        "f1c947326abf8c5340e575b4bbfa8addca1e216407ec31cdeb7f10e87082d836",
    ("check", "x^2 y - 1/3 x (x y) + 2/5 y^2 - 7/9 x^2", "--format", "jsonl"):
        "f3ef39a66c640446ba31cd1f5254619e95ffb30c19c0dd5b9ac648d66e60020c",
    ("train", "--type", "4,1,1", "--format", "jsonl"):
        "b4ef7e8791e038eb59f7a7cfe2e1de7cd4c0ef5b87f65b39930b71202a91ad0f",
    # recorded before homog checked each distinct-column group as one
    # Peirce class: 165 of the 548 forms of (4,4) have den != 1, and 28
    # of the 156 of (2,2,2) have a negative last coefficient
    ("homog", "--type", "4,4"):
        "4fbd936ca1c5c55e6105eaf4e8081df2e0ed4c92db85fd2a23112caa1f65fabe",
    ("homog", "--type", "2,2,2", "--format", "jsonl"):
        "190b1217161bca1f0f266b432a23853fa6a08e9c05b95acba10e63e36684ff5f",
    # recorded before homog and train were streamed by Peirce class, with
    # each class's shared terms rendered once: the two larger outputs whose
    # printing that reorders
    ("homog", "--type", "9,1,1"):
        "a9bfb7b2f4460d844cb996224676dbdf19d36946bb2750d3d34ff1a979f53437",
    ("train", "--type", "9,1,1", "--max-degree", "11"):
        "172eef827fa012877760c98dacda3d3c1e48d949696f8815fbcd8fa5ca2b824a",
    # spectra with repeated eigenvalues and the eigenvalue 1
    ("spectrum", "--eigenvalues", "1,1,1/2"):
        "6e7d580c2da4d15c9653dcf80c971f03f6eebd17f3c0a4898fa5c780e02bf807",
    ("spectrum", "--eigenvalues", "0,0,-1/3,5,5/7", "--format", "jsonl"):
        "338f3c0401a7f915353985caa1bada22d88fcea27f8e57b22a455c0ff9d4fc36",
    # recorded before char_poly ran in ints: large integer eigenvalues,
    # and fractions with a repeat and a negative
    ("spectrum", "--eigenvalues", "2,3,4,5,6,7,8,9,10,11,12"):
        "c85c78b4e6932b3410731b8755cf5a6d6a4734bb1ffda52f67c1bc52fa422ae7",
    ("spectrum", "--eigenvalues", "2,3,4,5,6,7,8,9,10,11,12", "--format", "jsonl"):
        "f7dc9dc1fe3b336ad8dd3a1302eb0a52e0a250bac52c4a8abf9bc0055f8fbbef",
    ("spectrum", "--eigenvalues", "1/2,-3/4,5/6,5/6,7/9,-11/13,2"):
        "5cb85fbacc991c94082d98dea729ba2fa55be8aeba1b4522b69de9512d677eff",
    ("spectrum", "--eigenvalues", "1/2,-3/4,5/6,5/6,7/9,-11/13,2", "--format", "jsonl"):
        "6965400b021fbdc79de2f3c4739bc7a0c474b4a1c2d5ef52bc51d99213bbb0a6",
    # recorded before train took P(w) from the span solve in w's own
    # letters: types and a word whose letters are not the canonical ones
    ("train", "--type", "1,8"):
        "9afbf0ff19a5049e2057ec0bb47fc577d0bf483b84d628166b92ac6221feef35",
    ("train", "--type", "0,2,7", "--format", "jsonl"):
        "0a910f2d32682d582583ba43bdf6900aff2a55071dc97a0137bd76787dc6d3f0",
    ("train", "--type", "1,0,1,6"):
        "003a1f7468691dbf627d1ac33d9ed1633a09092c8aa63c2fd32f35c89f95581e",
    ("train", "--of", "(y^{12}x)(yy)"):
        "98858a56d73df17b8061dc4ccbe8f871c1e1bc79ba2f5558b44bdfbf5f5ebf53",
}


@pytest.mark.parametrize("argv", list(STDOUT_DIGESTS), ids=" ".join)
def test_stdout_is_byte_identical(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[argv]


def test_members_of_one_class_at_two_places_print_their_own_lines():
    # b - a and b - c for three monomials a < b < c of one Peirce class:
    # one class, shared term b, whose members go before and after b, so
    # each place has a frame of its own
    from evanescent import homgen, peirce

    ty = (4, 2)
    monomials, runs = homgen.homogeneous_classes(ty)
    a, b, c = (monomials[k] for k in sorted(max(runs, key=lambda run: len(run[3]))[3])[:3])
    cls = peirce.peirce_class(1, [(b, 1)], -1, a, (1, 2))
    identities = [peirce.placed(m, cls, 0, ty, False) for m in (a, c)]
    assert [i.at for i in identities] == [0, 1]
    lines = {
        "text": [syntax.format_form(i.den, i.terms) for i in identities],
        "jsonl": [json.dumps(syntax.form_to_json(i.den, i.terms, ty), sort_keys=True) for i in identities],
    }
    for fmt, want in lines.items():
        out = io.StringIO()
        _emit_identities(identities, fmt, out)
        assert out.getvalue().splitlines() == want


def test_a_freed_class_lends_its_id_to_no_later_line():
    # each identity gets a class object of its own, freed once its line is
    # printed, so a later class can get a freed one's id: every line must
    # still come from its own class
    from evanescent import peirce, trainsgen

    identities = [i for ty in ((4, 1), (3, 2), (2, 1, 1)) for i in trainsgen.iter_train_basis(ty, 10)]

    def fresh():
        for i in identities:
            c = i.cls
            cls = peirce.peirce_class(c.den, c.form, c.coef, i.member, c.variables)
            yield peirce.placed(i.member, cls, i.at, i.type, i.train)

    for fmt in ("text", "jsonl"):
        got, want = io.StringIO(), io.StringIO()
        _emit_identities(fresh(), fmt, got)
        _emit_identities(identities, fmt, want)
        assert got.getvalue() == want.getvalue()


def test_printing_builds_no_polynomial_and_no_report(capsys, monkeypatch):
    # text output is printed from each identity's int form; the commands
    # stream the identities from the generators, which are recorded, and
    # each read of a polynomial or build of a report is recorded too
    from evanescent import homgen, peirce, trainsgen

    made, built = [], []
    monkeypatch.setattr(peirce.Identity, "polynomial", property(lambda identity: built.append(identity)))
    monkeypatch.setattr(peirce, "_report", lambda *args: built.append(args))

    def recorded(generate):
        def wrapper(*args, **kwargs):
            for identity in generate(*args, **kwargs):
                made.append(identity)
                yield identity
        return wrapper

    monkeypatch.setattr(trainsgen, "iter_train_basis", recorded(trainsgen.iter_train_basis))
    monkeypatch.setattr(homgen, "iter_homogeneous", recorded(homgen.iter_homogeneous))
    for argv in (("train", "--type", "5,1,1"), ("homog", "--type", "4,2")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and len(out.splitlines()) > 1
    assert len(made) > 50 and {i.type for i in made} == {(5, 1, 1), (4, 2)}
    assert built == []


MUTATION_3 = {
    "dim": 3,
    "mutation": {
        "matrix": [["1", "0", "0"], ["0", "2", "1/2"], ["0", "0", "-1"]],
        "weight": ["1", "0", "0"],
    },
}
SPECTRUM_1_2 = {"dim": 2, "mutation": {"matrix": [["1", "0"], ["0", "4"]], "weight": ["1", "0"]}}
# a structure-form algebra whose first nonzero weight entry, -2, is at
# index 1: the weight-1 points are solved for that pivot
NEGATIVE_PIVOT = {
    "dim": 3,
    "weight": ["0", "-2", "1/3"],
    "structure": [
        [0, 0, 0, "-2"], [0, 1, 0, "2"], [0, 1, 1, "-1/6"], [0, 1, 2, "-1"],
        [0, 2, 0, "-1"], [0, 2, 1, "1/6"], [0, 2, 2, "1"], [1, 1, 0, "1/3"],
        [1, 1, 1, "-5/3"], [1, 1, 2, "2"], [1, 2, 0, "1"], [1, 2, 1, "1/4"],
        [1, 2, 2, "-1/2"], [2, 2, 0, "-2"], [2, 2, 2, "1/3"],
    ],
}
# one value spelled three ways, and "0" and "1" repeated; M has the
# characteristic polynomial (t - 1)(t^2 - t/6 - 2/3), so the plenary powers
# of the identity SPELLINGS_IDENTITY satisfy it on this algebra alone
SPELLINGS = {
    "dim": 3,
    "mutation": {
        "matrix": [["1", "0", "0"], ["1/2", "2/4", "0.5"], ["0", "1", "-1/3"]],
        "weight": ["1", "0", "0"],
    },
}
SPELLINGS_IDENTITY = "(x^2 x^2)(x^2 x^2) - 7/6 x^2 x^2 - 1/2 x^2 + 2/3 x"
VERIFY_ALGEBRAS = {
    "mutation": MUTATION_3,
    "spectrum": SPECTRUM_1_2,
    "negative-pivot": NEGATIVE_PIVOT,
    "spellings": SPELLINGS,
}

# sha256 of stdout, recorded before evaluation went through one compiled
# plan per identity: (algebra, identity, trials, seed, format) -> exit, digest
VERIFY_STDOUT_DIGESTS = {
    ("mutation", "x^2 y^2 - (x y)(x y) + 1/2 x^2 x^2 - x^3 + 1/2 x^2", "16", "4", "text"):
        (0, "029a1dcb6296514057183b53ac507242f98f43b5951f1c693a968af748c2f949"),
    ("spectrum", "x^2 - x", "8", "0", "text"):
        (1, "e873f3d3968ce823975e4c977e028e1258aec83e8e40918fafcec9a82b91345f"),
    ("mutation", "x^2 y^2 - (x y)(x y) + 1/2 x^2 x^2 - x^3 + 1/2 x^2", "16", "4", "jsonl"):
        (0, "c58450dc3a069008e24ef5f7773c0bccc1bd71bd644c3f257a9c2ca03dfdadf3"),
    ("spectrum", "x^2 - x", "8", "0", "jsonl"):
        (1, "0f8c2e6168642b2555b820649627694f627bbe836f463a58778891ec7104f361"),
    # recorded before the weight-1 points were built in ints and
    # load_algebra read each distinct entry text once
    ("negative-pivot", "x^2 y^2 - (x y)(x y)", "8", "1", "text"):
        (1, "eaa22f20ef59828bbda1712e75118a76b9e39263c5d0bf017580970b44e22427"),
    ("negative-pivot", "x^2 y^2 - (x y)(x y)", "8", "1", "jsonl"):
        (1, "4c2f23d70d6207961ec464795924dc275fd0717dc6e267df5fb31b67f9672195"),
    ("spellings", SPELLINGS_IDENTITY, "8", "1", "text"):
        (0, "c00a695c9fddfbc64476cfce10cf0d2b864655de07dc8bb005c5ba8f230a6d64"),
    ("spellings", SPELLINGS_IDENTITY, "8", "1", "jsonl"):
        (0, "ca16e6ffda4d1ba8e5950e66e7bd0aa30ca93e9a9adb72c2f3a382f1c425da96"),
}


@pytest.mark.parametrize("case", list(VERIFY_STDOUT_DIGESTS), ids=lambda c: f"{c[0]}-{c[4]}")
def test_verify_stdout_is_byte_identical(capsys, tmp_path, case):
    name, identity, trials, seed, fmt = case
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(VERIFY_ALGEBRAS[name]), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "verify", "--algebra", str(path), "--identity", identity,
        "--trials", trials, "--seed", seed, "--format", fmt,
    )
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERIFY_STDOUT_DIGESTS[case]


_MUTATION_2 = {"matrix": [["1", "0"], ["0", "3"]], "weight": ["1", "0"]}


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"weight": ["1"]}, "algebra has no key 'dim'"),
        ([{"dim": 1, "weight": ["1"], "structure": [[0, 0, 0, "1"]]}], "algebra must be a JSON object"),
        ({"dim": 2, "weight": ["1", "0"], "structure": [[0, 0, 5, "1"]]}, "structure entry [0, 0, 5, '1']"),
        ({"dim": 1, "weight": ["1/0"], "structure": [[0, 0, 0, "1"]]}, "'1/0' is not a rational p/q"),
        ({"dim": 7, "mutation": _MUTATION_2}, "weight has 2 entries, expected dim = 7"),
        ({"dim": 2.9, "mutation": _MUTATION_2}, "dim must be an integer, not 2.9"),
        ({"dim": True, "weight": ["1"], "structure": [[0, 0, 0, "1"]]}, "dim must be an integer, not True"),
        ({"dim": 1, "weight": [None], "structure": [[0, 0, 0, "1"]]}, "None is not a rational p/q\n"),
    ],
    ids=[
        "missing-key", "wrong-type", "index-out-of-range", "zero-denominator",
        "mutation-dim", "fractional-dim", "bool-dim", "literal-entry",
    ],
)
def test_verify_malformed_algebra_exits_2_with_one_line(capsys, tmp_path, spec, message):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "verify", "--algebra", str(path), "--identity", "x^2 - x", "--trials", "2"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and message in err
