"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload (``search-adv`` too, which BENCHMARK.json leaves out)
once untraced and once traced, and checks that each metric BENCHMARK.json
names is emitted with its unit and that no operation failed.
Also checks that a hook whose function is gone is reported absent.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_emitted_and_error_rate_zero(workload, trace):
    result = run_bench(workload, trace)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)


def test_missing_hook_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import gridcrit.cli
    import gridcrit.search
    from tracing import Tracer, per_layer_metrics

    # As if a later change had deleted the acquisition function, and no caller
    # imported violation_map from the powerflow layer any more.
    monkeypatch.delattr(gridcrit.search, "acquisition_alpha_nd")
    for caller in (gridcrit.search, gridcrit.cli):
        monkeypatch.setattr(caller, "violation_map", lambda *a: None)
    tracer = Tracer("smoke")
    tracer.install()
    try:
        tracer.call("cli.search", lambda: None, (), {})
    finally:
        tracer.uninstall()
    metrics, absent = per_layer_metrics(tracer, "cli.search")
    assert {"search.acquisition_alpha_nd.calls", "search.alpha_pos_ratio",
            "powerflow.violation_map.s"} <= set(absent)
    assert metrics["search.acquisition_alpha_nd.calls"] == (0.0, "count")
    assert "powerflow.solve_power_flow.calls" not in absent
