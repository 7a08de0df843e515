"""One round of a workload in a fresh Python process.

Run by ``run.py``; prints one JSON object on stdout.  Everything up to
the first operation (interpreter start, ``import evanescent``, building
the inputs) is set-up.  ``setup_s`` is its CPU time, less that of the
calibration slices (``calibrate.py``) run just before and just after
it, scaled by their median to the reference slice time.  ``t_setup`` is
a ``time.perf_counter`` reading, which shares the system's monotonic
clock with the parent, so the parent can also report set-up in wall
time.  While the operations run, calibration slices interrupt them;
their times are reported apart and left out of ``wall_s``, the
latencies and the spans.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import shutil
import statistics
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402

# before ``import evanescent``, so that these slices and those after the
# set-up bracket it
_start = time.process_time()
PRE_SLICES = [calibrate.timed_slice(time.process_time) for _ in range(calibrate.SETUP_SLICES)]
PRE_SLICES_CPU = time.process_time() - _start

import evanescent  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def peak_rss_kb() -> int:
    """VmHWM, the peak resident set of this process image.  Unlike
    ru_maxrss, it does not carry over the size of the parent that
    forked it."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=HERE / ".work")
    try:
        ops = workload.operations(evanescent, inputs, workdir)
        calibrator = calibrate.Calibrator()
        tracer = Tracer(calibrator.clock) if args.trace else None
        if tracer:
            tracer.install()
        t_setup = time.perf_counter()
        setup_cpu = time.process_time() - PRE_SLICES_CPU
        post = [calibrate.timed_slice(time.process_time) for _ in range(calibrate.SETUP_SLICES)]
        setup_s = setup_cpu / statistics.median(PRE_SLICES + post) * calibrate.REF_SLICE_S
        raw, latencies, errors, spans = [], [], [], []
        clock = calibrator.clock
        calibrator.start()
        first = clock()
        try:
            for op in ops:
                start = clock()
                try:
                    result, error = op(), None
                except Exception as exc:  # a raising operation counts as failed
                    result, error = None, f"{type(exc).__name__}: {exc}"
                end = clock()
                latencies.append(end - start)
                spans.append((start, end))
                raw.append(result)
                errors.append(error)
        finally:
            calibrator.stop()
        wall = clock() - first
        cal = [calibrator.local(start, end) for start, end in spans]
        peak_kb = peak_rss_kb()
        layers = None
        if tracer:
            tracer.uninstall()
            layers = tracer.report()
            sources = list(evanescent.trainsgen.rule_sources().values())
            layers["trainsgen.rules_family"] = sources.count("family")
            layers["trainsgen.rules_derived"] = sources.count("derived")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outputs = workload.serialize(raw)
    json.dump(
        {
            "t_setup": t_setup,
            "setup_s": setup_s,
            "wall_s": wall,
            "peak_kb": peak_kb,
            "latencies": latencies,
            "cal": cal,
            "errors": errors,
            "outputs": outputs,
            "layers": layers,
            "q_backend": evanescent.rationals.Q.__module__,
            "python": platform.python_version(),
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
