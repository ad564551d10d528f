"""Write BENCHMARK.json from the benchmark's own metric and workload tables.

    python3 perfbench/manifest.py
"""

from __future__ import annotations

import json

from run import END_TO_END, PER_LAYER, RUN_SECONDS
from workloads import ROOT, WORKLOADS


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render())
