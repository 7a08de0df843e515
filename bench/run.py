"""Benchmark of the evanescent library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload, each in a fresh single-threaded Python
process (``child.py``), until the next round would end after S seconds
(at least three rounds).  Every operation's output is checked against
the benchmark's own reference computations (``reference.py``); the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` rounds alternate
between untraced and traced, and the metrics are the per-layer ones
from the traced rounds plus the tracing overhead.  The line before it
records the rational backend, the Python version, the rounds run and
the untraced timings in seconds.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
TIME_LIMIT_S = 150  # no round starts that could end after this

# gated metrics; "cal" is the mean time of one calibration slice run
# during and around an operation (calibrate.py), and wall_cal is the sum
# over a round's operations of latency / cal; setup_s is the set-up's
# CPU time scaled by the slices run around it to the reference slice
END_TO_END = {
    "setup_s": "s",
    "wall_cal": "cal",
    "peak_rss_mb": "MB",
    "op_p50_cal": "cal",
    "op_p90_cal": "cal",
}


def per_layer_units() -> dict:
    units = {}
    for module, path in tracing.TRACED:
        units[f"{module}.{path}.calls"] = "count"
        units[f"{module}.{path}.self_s"] = "s"
    for name in tracing.Tracer().counts:
        units[name] = "count"
    units["trainsgen.rules_family"] = "count"
    units["trainsgen.rules_derived"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round did not finish in {timeout:.0f} s") from exc
    end = time.perf_counter()
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round exited with status {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_wall_s"] = record["t_setup"] - start
    record["relative"] = [lat / cal for lat, cal in zip(record["latencies"], record["cal"])]
    record["wall_cal"] = sum(record["relative"])
    record["round_s"] = end - start
    record["trace"] = trace
    return record


def judge(workload, inputs, rounds) -> tuple[list, list, list]:
    """Per round, per operation: True when it succeeded.  Round one's
    outputs are checked against the reference; a later round must
    reproduce them exactly.  Returns (verdicts, raised, messages)."""
    first = rounds[0]
    checked = [i for i, e in enumerate(first["errors"]) if e is None]
    ok, messages = workload.check([inputs[i] for i in checked], [first["outputs"][i] for i in checked])
    good = dict(zip(checked, ok))
    verdicts, raised = [], []
    for n, rnd in enumerate(rounds):
        row = []
        for i, error in enumerate(rnd["errors"]):
            if error is not None:
                raised.append(i)
                messages.append(f"round {n} op {i} raised {error}")
                row.append(False)
            elif rnd["outputs"][i] != first["outputs"][i]:
                messages.append(f"round {n} op {i}: output differs from round 0")
                row.append(False)
            else:
                row.append(good.get(i, False))
        verdicts.append(row)
    return verdicts, raised, messages


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds) -> tuple[dict, dict]:
    """(gated metrics, the same timings in seconds and milliseconds)."""
    latencies = [x * 1e3 for r in rounds for x in r["latencies"]]
    relative = [x for r in rounds for x in r["relative"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_cal": statistics.median(r["wall_cal"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_kb"] / 1024 for r in rounds),
        "op_p50_cal": percentile(relative, 50),
        "op_p90_cal": percentile(relative, 90),
    }
    seconds = {
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
        "cal_ms": statistics.median(c * 1e3 for r in rounds for c in r["cal"]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, seconds


def per_layer(plain, traced) -> dict:
    units = per_layer_units()
    values = {}
    for name in units:
        samples = [r["layers"][name] for r in traced if name in r["layers"]]
        if samples:
            values[name] = statistics.median(samples)
    values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    traced_cal = statistics.median(r["wall_cal"] for r in traced)
    plain_cal = statistics.median(r["wall_cal"] for r in plain)
    values["trace.overhead_pct"] = (traced_cal / plain_cal - 1) * 100
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/evanescent/__init__.py", "corpus") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)
    start = time.perf_counter()
    rounds: list = []
    try:
        while True:
            elapsed = time.perf_counter() - start
            if rounds:
                typical = statistics.median(r["round_s"] for r in rounds)
                longest = max(r["round_s"] for r in rounds)
                if elapsed + longest > TIME_LIMIT_S:
                    break
                if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
                    break
            trace = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(args.workload, args.seed, trace, TIME_LIMIT_S + 20 - elapsed))
    except RoundError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    verdicts, raised, messages = judge(workload, inputs, rounds)
    attempted = sum(len(v) for v in verdicts)
    failed = sum(v.count(False) for v in verdicts)
    wrong = failed - len(raised)
    plain = [r for r in rounds if not r["trace"]]
    traced = [r for r in rounds if r["trace"]]
    metrics, seconds = end_to_end(plain)
    if traced:
        metrics = per_layer(plain, traced)
    for message in messages[:20]:
        print(f"check: {message}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "q_backend": rounds[0]["q_backend"],
        "python": rounds[0]["python"],
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "ops_per_round": len(inputs),
        "seconds": seconds,
    }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
