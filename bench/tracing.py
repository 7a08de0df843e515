"""Spans around the public functions of ``evanescent``, installed from outside.

Each traced function gets one wrapper, bound in place of the original at
every module attribute that holds it (``trainsgen`` imports
``solve_unique`` from ``homgen``; ``peirce_tree`` is imported by
``trainsgen`` and ``homgen``), so every call is seen whichever module
makes it.  A span's self time is its duration minus the durations of the
spans it encloses.  Spans are kept as per-function totals in memory.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path): the functions whose spans are recorded
TRACED = (
    ("peirce", "is_evanescent"),
    ("peirce", "peirce_recursive"),
    ("peirce", "peirce_tree"),
    ("trainsgen", "train_identity"),
    ("trainsgen", "reduce"),
    ("trainsgen", "solve_Pw"),
    ("homgen", "solve_unique"),
    ("homgen", "peirce_matrix"),
    ("homgen", "rref"),
    ("homgen", "nullspace"),
    ("magma", "monomials_of_type"),
    ("baric", "verify_identity"),
    ("baric", "evaluate"),
    ("baric", "weighted_evaluate"),
    ("baric", "BaricAlgebra.mul"),
    ("baric", "load_algebra"),
    ("syntax", "format_polynomial"),
    ("syntax", "parse"),
)


def _peirce_matrix_sizes(args, result, counts):
    rows, cols = result.shape
    counts["homgen.peirce_matrix.rows"] += rows
    counts["homgen.peirce_matrix.cols"] += cols


def _nullspace_sizes(args, result, counts):
    matrix = args[0]
    rows = getattr(matrix, "rows", matrix)
    counts["homgen.nullspace.nullity"] += len(result)
    counts["homgen.nullspace.rank"] += len(rows[0]) - len(result)


def _enumerated(args, result, counts):
    counts["magma.monomials"] += len(result)


def _trials(args, result, counts):
    ran = result.trials if result.passed else result.failed_trial + 1
    counts["baric.verify_identity.trials"] += ran


# extra sizes read from a call's arguments and result
SIZES = {
    "homgen.peirce_matrix": (_peirce_matrix_sizes, ("rows", "cols")),
    "homgen.nullspace": (_nullspace_sizes, ("rank", "nullity")),
    "magma.monomials_of_type": (_enumerated, ()),
    "baric.verify_identity": (_trials, ("trials",)),
}


class Tracer:
    """Per-function call counts and self times, plus the size counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {"magma.monomials": 0}
        for name, (_, keys) in SIZES.items():
            for key in keys:
                self.counts[f"{name}.{key}"] = 0
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        calls, self_s, stack, counts = self.calls, self.self_s, self._stack, self.counts
        calls[name] = 0
        self_s[name] = 0.0
        sizes = SIZES.get(name, (None,))[0]
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]
            if sizes is not None:
                sizes(args, result, counts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Bind a wrapper in place of each traced function everywhere."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "evanescent"]
        for module_name, path in TRACED:
            owner = sys.modules[f"evanescent.{module_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{module_name}.{path}", original)
            self._bind(owner, attr, original, wrapper)
            if cls_path:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, original, wrapper)

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def report(self) -> dict:
        """Flat {metric name: value}."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out
