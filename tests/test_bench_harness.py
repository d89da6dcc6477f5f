"""The benchmark's per-layer harness (``perfbench/run.py --trace 1``), run in
process on each workload at seed 1 for one iteration.

The harness calls engmeta's public functions and reads its schema itself,
so a change to either can break it without failing any other test here.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_traced_run_passes_its_checks_and_reports_every_per_layer_metric(
        workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import checks
    import corpus
    import traced

    facts = corpus.generate(workload, 1, tmp_path)
    gate = checks.Checks()
    samples, counts, _ = traced.run(tmp_path, facts, 0.2, 1, gate)
    assert gate.attempted > 0
    assert (gate.failed, gate.failures) == (0, [])
    metrics = traced.metrics(samples, counts)
    assert {name: metric["unit"] for name, metric in metrics.items()} == {
        metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]
    }
