"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import manifest
import reference
from tracing import COUNT_METRICS, SPAN_NAMES, Tracer, _framemult_modules
from workloads import ROOT, WORKLOADS, Outcome, import_framemult, model_allows, read_pass, run_pass

SMALL = 4  # trials per suite
cli = import_framemult()


def _namespaces() -> dict:
    return {
        (module.__name__, attr): value
        for module in _framemult_modules()
        for attr, value in vars(module).items()
    }


def _traced(workload, outdir: Path) -> tuple[Tracer, dict, str]:
    with Tracer() as tracer:
        codes = run_pass(cli, workload, 0, outdir, trials=SMALL)
    counts = {
        name: value
        for name, value in tracer.summary(workload.trials(SMALL)).items()
        if name in COUNT_METRICS or name.endswith((".calls", ".raised"))
    }
    return tracer, counts, read_pass(workload, 0, outdir, codes, trials=SMALL).digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    _, first, _ = _traced(workload, tmp_path)
    _, second, _ = _traced(workload, tmp_path)
    assert set(COUNT_METRICS) <= first.keys()
    assert first == second


def test_tracing_leaves_no_trace(tmp_path):
    before = _namespaces()
    tracer, _, traced_digest = _traced(WORKLOADS["full-cli"], tmp_path)
    after = _namespaces()

    assert {name.split(".")[1] for name in SPAN_NAMES} <= {attr for _, attr, _ in tracer.rebound}
    assert all(getattr(module, attr) is original for module, attr, original in tracer.rebound)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(value, "perfbench_span") for value in after.values())

    workload = WORKLOADS["full-cli"]
    codes = run_pass(cli, workload, 0, tmp_path, trials=SMALL)
    assert read_pass(workload, 0, tmp_path, codes, trials=SMALL).digest == traced_digest


def test_self_time_covers_root_spans(tmp_path):
    tracer, _, _ = _traced(WORKLOADS["companion-csv"], tmp_path)
    roots = [
        end - start
        for parent, start, end in zip(tracer.span_parent, tracer.span_start, tracer.span_end)
        if parent < 0
    ]
    total = tracer.summary(1)["trace.self_s_total"]
    assert total == pytest.approx(sum(roots), rel=1e-9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", reference.PINNED_SEEDS)
def test_pinned_references_fit_the_claims_model(name, seed):
    pinned = reference.load(name, seed)
    assert len(pinned["records"]) == WORKLOADS[name].trials()
    for suite, trial, verdict, error, residuals in pinned["records"]:
        outcome = Outcome(suite, trial, verdict, error, residuals, None)
        assert model_allows(WORKLOADS[name].generator, outcome), (suite, trial, verdict, error)


def test_benchmark_json_is_current():
    assert (ROOT / "BENCHMARK.json").read_text() == manifest.render()
    assert all(len(w["why"]) <= 200 for w in manifest.manifest()["workloads"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
