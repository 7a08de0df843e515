"""The benchmark's checkers on tiny sizes: they accept the program's
outputs and reject corrupted ones."""

import copy
import json
import pathlib
import sys
import tempfile

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import evanescent  # noqa: E402

import reference as R  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def outputs_of(workload, seed=0):
    inputs = workload.inputs(seed)
    with tempfile.TemporaryDirectory() as workdir:
        raw = [op() for op in workload.operations(evanescent, inputs, workdir)]
    return inputs, workload.serialize(raw)


def verdicts(workload, inputs, outputs):
    return workload.check(inputs, outputs)[0]


@pytest.fixture(scope="module")
def train():
    workload = workloads.Train(max_degree=5, families=["n,1"])
    return (workload,) + outputs_of(workload)


@pytest.fixture(scope="module")
def homog():
    workload = workloads.Homog(types=((4, 1), (2, 1, 1)))
    return (workload,) + outputs_of(workload)


@pytest.fixture(scope="module")
def crosscheck():
    workload = workloads.Crosscheck(max_degree=4)
    return (workload,) + outputs_of(workload)


@pytest.fixture(scope="module")
def verify():
    workload = workloads.Verify(corpus_files=1)
    return (workload,) + outputs_of(workload)


def test_reference_parser():
    assert R.parse("x^{2} y") == R.parse("x(xy)") == {R.mul("x", R.mul("x", "y")): 1}
    assert R.parse("x^3") == R.parse("(x x) x") == R.parse("x^2x")
    assert R.parse("x^[2]") == R.parse("x x")
    assert R.parse("x y z") == R.parse("(x y) z") != R.parse("x (y z)")
    assert R.parse("1/2 x - 3 y + y") == {"x": R.Fraction(1, 2), "y": -2}
    assert R.parse("0") == {} == R.parse("x - x")


def test_reference_counts():
    assert [len(R.monomials((n,))) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]
    assert R.peirce(R.parse("x^2 y - x (x y)")) == {"x": {2: 1, 1: -1}, "y": {1: 1, 2: -1}}
    assert R.is_evanescent_identity(R.parse("x^2x^2-2x^3+x^2"))
    assert R.peirce_system_rank((4,)) == 2


def test_train_checker(train):
    workload, inputs, outputs = train
    assert [x["type"] for x in inputs] == [[1, 1], [2, 1], [3, 1], [4, 1]]
    assert verdicts(workload, inputs, outputs) == [True] * 4
    bad = copy.deepcopy(outputs)
    lines = bad[3]["out"].splitlines()
    assert " - " in lines[0]
    lines[0] = lines[0].replace(" - ", " + ", 1)  # one coefficient changes sign
    bad[3]["out"] = "\n".join(lines) + "\n"
    assert verdicts(workload, inputs, bad) == [True, True, True, False]
    dropped = copy.deepcopy(outputs)
    dropped[3]["out"] = "\n".join(outputs[3]["out"].splitlines()[1:]) + "\n"
    assert verdicts(workload, inputs, dropped) == [True, True, True, False]


def test_homog_checker(homog):
    workload, inputs, outputs = homog
    assert verdicts(workload, inputs, outputs) == [True, True]
    for edit in (lambda ls: ls[:-1], lambda ls: ls + ls[:1]):  # drop one, duplicate one
        bad = copy.deepcopy(outputs)
        bad[1]["out"] = "\n".join(edit(outputs[1]["out"].splitlines())) + "\n"
        assert verdicts(workload, inputs, bad) == [True, False]


def test_crosscheck_checker(crosscheck):
    workload, inputs, outputs = crosscheck
    assert all(verdicts(workload, inputs, outputs))
    bad = copy.deepcopy(outputs)
    term = bad[0]["solve"][0]
    term[1] = str(R.Fraction(term[1]) + 1)
    got = verdicts(workload, inputs, bad)
    assert got[0] is False and all(got[1:])


def test_verify_checker(verify):
    workload, inputs, outputs = verify
    assert all(verdicts(workload, inputs, outputs))
    control = next(i for i, x in enumerate(inputs) if x.get("identity") == "x^2 - x")
    bad = copy.deepcopy(outputs)
    bad[control].update(rc=0, out="# seed=0 trials=16\nPASS\n")
    assert verdicts(workload, inputs, bad)[control] is False
    zero = copy.deepcopy(outputs)
    zero[control]["out"] = zero[control]["out"].split("\n  ")[0] + "\n  x = (0, 0)\n"
    assert verdicts(workload, inputs, zero)[control] is False
    standard = next(i for i, x in enumerate(inputs) if x.get("standard") and x["expect"] == "PASS")
    wrong = copy.deepcopy(outputs)
    wrong[standard]["identity"] = "(x^2 - x)((y^2 - y) z)"
    assert verdicts(workload, inputs, wrong)[standard] is False


def test_judge_flags_rounds_that_differ(crosscheck):
    workload, inputs, outputs = crosscheck
    first = {"errors": [None] * len(inputs), "outputs": outputs}
    second = copy.deepcopy(first)
    second["outputs"][1]["reduce"] = []
    second["errors"][2] = "ValueError: boom"
    rounds, raised, _ = run.judge(workload, inputs, [first, second])
    assert all(rounds[0]) and rounds[1][1:3] == [False, False] and raised == [2]


def test_tracer_restores_bindings():
    original = evanescent.trainsgen.solve_unique
    tracer = Tracer()
    tracer.install()
    try:
        assert evanescent.trainsgen.solve_unique is evanescent.homgen.solve_unique is not original
        evanescent.homgen.nullspace(evanescent.homgen.peirce_matrix((6,)))
    finally:
        tracer.uninstall()
    assert evanescent.trainsgen.solve_unique is original
    report = tracer.report()
    assert report["homgen.nullspace.calls"] == 1
    assert report["homgen.nullspace.nullity"] == 2 and report["homgen.nullspace.rank"] == 4


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
