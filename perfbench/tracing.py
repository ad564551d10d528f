"""Per-layer spans recorded from outside the program.

`Tracer` rebinds each public function listed in `LAYERS` to a wrapper in every
`framemult.*` namespace that holds it, records one span per call (name, start,
end, parent) in flat arrays, and puts every original object back on exit. A
layer's self time is its spans' duration minus the part covered by child
spans; summed over all layers it equals the duration of the root spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# Layer -> public functions wrapped in a traced pass.
LAYERS = {
    "linalg": ("op_norm", "herm_eig_extremes", "sv_extremes", "pinv", "inv"),
    "frames": (
        "new_frame",
        "canonical_dual",
        "random_dual",
        "proj_ker_synthesis",
        "scale_by_symbol",
        "equivalence_map",
    ),
    "representations": (
        "sample_duals",
        "gamma_of",
        "theta_of",
        "verify_gamma_decomposition",
        "verify_theta_decomposition",
        "equivalence_criterion",
    ),
    "multiplier": (
        "build",
        "invert",
        "thm1_report",
        "canonical_inverse_candidate",
        "dagger_frames",
    ),
    "perturbation": (
        "random_frame_perturbation",
        "companion_per1",
        "companion_per1_dual_side",
        "companion_per2",
        "companion_per3",
    ),
    "generators": ("random_frame", "riesz_basis", "random_symbol"),
    "symbols": ("new_symbol", "reciprocal", "perturb_symbol"),
    "suites": ("run_suite",),
    "cli": ("main",),
    "serialize": ("report_to_json", "report_to_csv", "save_report"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Functions that raise (and are caught further up) on the benchmark workloads.
RAISING = (
    "frames.new_frame",
    "generators.random_frame",
    "multiplier.invert",
    "symbols.reciprocal",
    "perturbation.companion_per2",
    "perturbation.companion_per3",
)

# Count-based metrics of the traced pass: name -> (unit, better).
COUNT_METRICS = {
    "linalg.op_norm.calls_per_trial": ("1/trial", "lower"),
    "multiplier.invert.calls_per_trial": ("1/trial", "lower"),
    "frames.new_frame.calls_per_trial": ("1/trial", "lower"),
    "generators.frame_draws_per_frame": ("ratio", "lower"),
    "multiplier.build.invertible_ratio": ("ratio", "higher"),
}


def _framemult_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "framemult" or name.startswith("framemult.")
    ]


class Tracer:
    """Context manager that traces the functions in `LAYERS` while active."""

    def __init__(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised = array("i")
        self.invertible_builds = 0
        self.saved_bytes = 0
        self._stack = [-1]
        self.rebound: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- rebinding

    def __enter__(self) -> "Tracer":
        modules = _framemult_modules()
        for index, span_name in enumerate(SPAN_NAMES):
            layer, fn_name = span_name.split(".")
            original = getattr(sys.modules[f"framemult.{layer}"], fn_name)
            wrapper = self._wrap(index, span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.rebound.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self.rebound):
            setattr(module, attr, original)

    def _observer(self, span_name: str):
        if span_name == "multiplier.build":

            def observe(result, args, kwargs):
                self.invertible_builds += bool(result.inv_diag.invertible)

            return observe
        if span_name == "serialize.save_report":

            def observe(result, args, kwargs):
                path = args[1] if len(args) > 1 else kwargs["path"]
                self.saved_bytes += os.path.getsize(path)

            return observe
        return None

    def _wrap(self, index: int, span_name: str, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends, raised, stack = self.span_start, self.span_end, self.raised, self._stack
        observe = self._observer(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised.append(span)
                raise
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        wrapper.perfbench_span = span_name
        return wrapper

    # ------------------------------------------------------------ aggregation

    def summary(self, trials: int) -> dict[str, float]:
        """Per-layer calls, self time, raises and count ratios over all spans."""
        count = len(SPAN_NAMES)
        index = {name: i for i, name in enumerate(SPAN_NAMES)}
        name = np.frombuffer(self.span_name, dtype=np.intc).astype(np.intp)
        parent = np.frombuffer(self.span_parent, dtype=np.intc).astype(np.intp)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        self_time = np.bincount(name, weights=duration - covered, minlength=count)
        calls = np.bincount(name, minlength=count)
        raised = np.bincount(name[np.frombuffer(self.raised, dtype=np.intc)], minlength=count)

        out: dict[str, float] = {}
        for i, span_name in enumerate(SPAN_NAMES):
            out[f"{span_name}.calls"] = int(calls[i])
            out[f"{span_name}.self_s"] = float(self_time[i])
        for span_name in RAISING:
            out[f"{span_name}.raised"] = int(raised[index[span_name]])
        out["serialize.save_report.bytes"] = self.saved_bytes

        under = parent[name == index["frames.new_frame"]]
        under = under[under >= 0]
        draws = int(np.count_nonzero(name[under] == index["generators.random_frame"]))
        for span_name in ("linalg.op_norm", "multiplier.invert", "frames.new_frame"):
            out[f"{span_name}.calls_per_trial"] = int(calls[index[span_name]]) / trials
        out["generators.frame_draws_per_frame"] = draws / max(
            1, int(calls[index["generators.random_frame"]])
        )
        out["multiplier.build.invertible_ratio"] = self.invertible_builds / max(
            1, int(calls[index["multiplier.build"]])
        )
        out["trace.self_s_total"] = float(self_time.sum())
        out["trace.spans"] = len(name)
        return out
