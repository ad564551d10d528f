"""Benchmark for framemult: CLI workloads timed untraced, per-layer spans traced.

Run from the repository root:

    python3 perfbench/run.py --workload full-cli --seed 0 --seconds 20 --trace 0

`--trace 0` times untraced passes and prints the end-to-end metrics;
`--trace 1` prints the per-layer metrics of one traced pass. Every metric is
printed by name with its unit; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit status is 1 when any
trial's outcome drifts from the reference (see NOTES.md), 2 when the checkout
holds no framemult sources.
"""

from __future__ import annotations

import os

# One process, no extra threads: fix the BLAS pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracing import COUNT_METRICS, RAISING, SPAN_NAMES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ALL_SUITES,
    ROOT,
    SRC,
    TRIALS,
    WORKLOADS,
    import_framemult,
    model_allows,
    read_pass,
    run_pass,
)

RUN_SECONDS = 20  # timed window of one run; BENCHMARK.json's run_seconds
MIN_PASSES = 2
SETUP_PER_PROBE = 2  # fresh interpreters timed next to each speed probe
PROBE_STEPS = 12000
PROBE_SEED = 1608
PROBE_EVERY_S = 3.0

# name -> (unit, better, bound)
END_TO_END = {
    "trials_per_probe": ("1/probe", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_alloc_mib": ("MiB", "lower", 0.1),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for every metric of the traced run."""
    spec = {}
    for name in SPAN_NAMES:
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
    for name in RAISING:
        spec[f"{name}.raised"] = ("count", "lower")
    spec["serialize.save_report.bytes"] = ("B", "lower")
    spec.update(COUNT_METRICS)
    for suite in ALL_SUITES:
        spec[f"suites.{suite}.ms_per_trial"] = ("ms", "lower")
    spec["suites.combined_over_solo"] = ("ratio", "lower")
    spec["python.gc.collections"] = ("count", "lower")
    spec["python.gc.pause_s"] = ("s", "lower")
    spec["trace.overhead_share"] = ("ratio", "lower")
    spec["trace.unattributed_s"] = ("s", "lower")
    spec["suites.residual_drift_max"] = ("ratio", "lower")
    spec["report.digest_match"] = ("bool", "higher")
    return spec


PER_LAYER = _per_layer()


# ------------------------------------------------------------------ measuring


class GcClock:
    """Collections and pause time of one pass, seen through gc.callbacks."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


def probe_seconds() -> float:
    """Wall time of a fixed piece of reference work that runs no framemult code.

    Small-matrix LAPACK calls plus interpreter work, the same mix as a trial.
    """
    rng = np.random.default_rng(PROBE_SEED)
    mats = [rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9)) for _ in range(8)]
    acc = 0.0
    start = time.perf_counter()
    for i in range(PROBE_STEPS):
        m = mats[i % 8]
        acc += float(np.linalg.norm(m, 2)) + float(np.linalg.eigvalsh(m @ m.conj().T)[0])
        acc += sum(x * 0.5 for x in (i, i + 1, i + 2))
    return time.perf_counter() - start


class TimedPasses:
    """Untraced passes that fit in `seconds` (at least MIN_PASSES), between probes.

    A probe runs before the first pass, after the last, and after any pass
    that ends PROBE_EVERY_S or more after the previous probe; `at_probe`, if
    given, runs next to each probe. Each pass is paired with the mean of the
    probes around it.
    """

    def __init__(self, cli, workload, seed: int, seconds: float, outdir: Path,
                 at_probe=None) -> None:
        self.walls: list[float] = []
        self.outputs = []
        self.gc_clocks: list[GcClock] = []
        self.pass_probe_s: list[float] = []

        def probe():
            if at_probe is not None:
                at_probe()
            return time.perf_counter(), probe_seconds()

        probes = [probe()]
        spans = []
        begin = time.perf_counter()
        while len(self.walls) < MIN_PASSES or (
            time.perf_counter() - begin + statistics.median(self.walls) <= seconds
        ):
            with GcClock() as clock:
                start = time.perf_counter()
                codes = run_pass(cli, workload, seed, outdir)
                end = time.perf_counter()
            self.gc_clocks.append(clock)
            self.walls.append(end - start)
            spans.append((start, end))
            if end - probes[-1][0] >= PROBE_EVERY_S:
                probes.append(probe())
            self.outputs.append(read_pass(workload, seed, outdir, codes))
        if probes[-1][0] < spans[-1][1]:
            probes.append(probe())
        for start, end in spans:
            before = [p for t, p in probes if t <= start][-1]
            after = next(p for t, p in probes if t >= end)
            self.pass_probe_s.append((before + after) / 2)
        self.probes = [p for _, p in probes]


def setup_seconds(workload, seed: int, count: int) -> list[float]:
    """Wall time of fresh interpreters that import framemult and run the first trial."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from framemult import cli; "
        "raise SystemExit(cli.main(sys.argv[2:]))"
    )
    argv = [sys.executable, "-I", "-c", code, str(SRC), *workload.first_trial_argv(seed)]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, cwd=ROOT, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"first-trial probe exited with {proc.returncode}")
    return times


def peak_alloc_mib(cli, workload, seed: int, outdir: Path):
    """tracemalloc peak over one pass of its own."""
    tracemalloc.start()
    try:
        codes = run_pass(cli, workload, seed, outdir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, read_pass(workload, seed, outdir, codes)


def solo_ms_per_trial(workload, seed: int) -> dict[str, float]:
    """Each suite alone through run_suite, untraced."""
    suites = sys.modules["framemult.suites"]
    out = {}
    for suite in ALL_SUITES:
        cfg = suites.ExperimentConfig(suite=suite, trials=TRIALS, seed=seed,
                                      generator=workload.generator)
        start = time.perf_counter()
        suites.run_suite(cfg)
        out[suite] = (time.perf_counter() - start) * 1e3 / TRIALS
    return out


# ------------------------------------------------------------------- checking


def check(workload, seed: int, outputs) -> dict:
    """Outcome checks over every pass of a run at one seed."""
    first = outputs[0]
    drifted = {
        o.key for out in outputs for o in out.outcomes if not model_allows(workload.generator, o)
    }
    summary = {}
    pinned = reference.load(workload.name, seed)
    if pinned is not None:
        ref_drift, residual_drift, digest_ok = reference.compare(pinned, first)
        drifted |= ref_drift
        summary["suites.residual_drift_max"] = residual_drift
        summary["report.digest_match"] = int(digest_ok)
    summary.update(
        attempted=sum(len(out.outcomes) for out in outputs),
        verdict_drift=len(drifted),
        bad_passes=sum(
            1
            for out in outputs
            if out.digest != first.digest
            or not out.codes_ok
            or len(out.outcomes) != workload.trials()
        ),
        errors=sum(1 for o in first.outcomes if o.error),
        trials=len(first.outcomes),
    )
    return summary


# ----------------------------------------------------------------- reporting


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


# ------------------------------------------------------------------------ runs


def run_untraced(cli, workload, seed: int, seconds: float, outdir: Path) -> tuple[dict, dict]:
    run_pass(cli, workload, seed, outdir, trials=1)  # warm-up: first calls, file creation
    # Set-up samples spread over the run see the same machine drift as the passes.
    setup: list[float] = []

    def sample_setup() -> None:
        setup.extend(setup_seconds(workload, seed, SETUP_PER_PROBE))

    timed = TimedPasses(cli, workload, seed, seconds, outdir, at_probe=sample_setup)
    peak, alloc_output = peak_alloc_mib(cli, workload, seed, outdir)
    summary = check(workload, seed, [*timed.outputs, alloc_output])

    rates = [workload.trials() / wall for wall in timed.walls]
    per_probe = [rate * probe for rate, probe in zip(rates, timed.pass_probe_s)]
    metrics = {
        "trials_per_probe": statistics.median(per_probe),
        "setup_s": statistics.median(setup),
        "peak_alloc_mib": peak,
    }
    notes = {
        "trials_per_probe": f"trials per probe time, median of {len(rates)} passes of "
        f"{workload.trials()} trials: " + " ".join(f"{v:.6g}" for v in per_probe),
        "setup_s": f"median of {len(setup)} fresh interpreters: "
        + " ".join(f"{t:.4f}" for t in setup),
        "peak_alloc_mib": "tracemalloc over one pass of its own",
    }
    q1, q3 = _quartiles(rates)
    _print_metric("trials_per_s", statistics.median(rates), "1/s",
                  f"median of {len(rates)} passes; q1 {q1:.6g}, q3 {q3:.6g}; passes "
                  + " ".join(f"{r:.6g}" for r in rates))
    _print_metric("probe_s", statistics.median(timed.probes), "s",
                  f"reference work, median of {len(timed.probes)}: "
                  + " ".join(f"{p:.4f}" for p in timed.probes))
    for name, value in metrics.items():
        _print_metric(name, value, END_TO_END[name][0], notes[name])
    for name in ("suites.residual_drift_max", "report.digest_match"):
        if name in summary:
            _print_metric(name, summary[name], PER_LAYER[name][0], "against the pinned reference")
    return metrics, summary


def run_traced(cli, workload, seed: int, seconds: float, outdir: Path) -> tuple[dict, dict]:
    run_pass(cli, workload, seed, outdir, trials=1)
    timed = TimedPasses(cli, workload, seed, seconds, outdir)
    walls, outputs = timed.walls, timed.outputs
    solo = solo_ms_per_trial(workload, seed)
    with Tracer() as tracer:
        start = time.perf_counter()
        codes = run_pass(cli, workload, seed, outdir)
        traced_wall = time.perf_counter() - start
    restored = all(getattr(module, attr) is original for module, attr, original in tracer.rebound)
    summary = check(workload, seed, [*outputs, read_pass(workload, seed, outdir, codes)])
    summary["bad_passes"] += 0 if restored else 1
    if "report.digest_match" not in summary:
        # Residual and digest comparisons need a pinned seed: add one pass at the default.
        codes = run_pass(cli, workload, reference.DEFAULT_SEED, outdir)
        pinned = check(workload, reference.DEFAULT_SEED,
                       [read_pass(workload, reference.DEFAULT_SEED, outdir, codes)])
        for key in ("suites.residual_drift_max", "report.digest_match"):
            summary[key] = pinned[key]
        for key in ("attempted", "verdict_drift", "bad_passes"):
            summary[key] += pinned[key]

    base = statistics.median(walls)
    metrics = tracer.summary(workload.trials())
    self_total = metrics["trace.self_s_total"]
    for suite in ALL_SUITES:
        metrics[f"suites.{suite}.ms_per_trial"] = solo[suite]
    metrics["suites.combined_over_solo"] = base / (
        sum(solo[suite] for suite in workload.suites) * TRIALS / 1e3
    )
    metrics["python.gc.collections"] = statistics.median(c.collections for c in timed.gc_clocks)
    metrics["python.gc.pause_s"] = statistics.median(c.pause_s for c in timed.gc_clocks)
    metrics["trace.overhead_share"] = traced_wall / base - 1.0
    metrics["trace.unattributed_s"] = traced_wall - self_total
    for key in ("suites.residual_drift_max", "report.digest_match"):
        metrics[key] = summary[key]

    for name, (unit, _) in PER_LAYER.items():
        _print_metric(name, metrics[name], unit)
    print(
        f"# traced pass {traced_wall:.6g} s, untraced median {base:.6g} s over {len(walls)} "
        f"passes; self time {self_total:.6g} s over {metrics['trace.spans']} spans; "
        f"wrappers restored: {restored}"
    )
    return metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still removes its temporary directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        cli = import_framemult()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if args.trace:
            metrics, summary = run_traced(cli, workload, args.seed, args.seconds, Path(tmp))
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, summary = run_untraced(cli, workload, args.seed, args.seconds, Path(tmp))
            units = {name: unit for name, (unit, _, _) in END_TO_END.items()}

    _print_metric("error_share", summary["errors"] / max(1, summary["trials"]), "ratio",
                  f"{summary['errors']}/{summary['trials']} trials end in a caught error")
    _print_metric("verdict_drift", summary["verdict_drift"], "count",
                  "claims model" + (" and pinned reference" if args.seed in reference.PINNED_SEEDS
                                    else "; seed not pinned"))
    failed = summary["verdict_drift"] + summary["bad_passes"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
