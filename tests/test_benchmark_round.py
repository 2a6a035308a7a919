"""One round of the benchmark's ``exponent-queries`` workload, in-process.

``perfbench/workloads.py`` checks every answer of a round against its own
oracles; this runs that round at seed 1 and asks the same check. The round
holds every ``lp --kr`` and ``cone --even`` query of the benchmark.
"""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_exponent_queries_round_passes_its_check(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS["exponent-queries"]
    inputs = workload.prepare(1)
    outputs = [(name, thunk()) for name, thunk in workload.round(inputs)]
    assert len(outputs) == 1153
    assert workload.check(inputs, outputs) == []
    # P9/P9 and C9/C9 exit 2: canonical forms are capped at 8 vertices
    assert sum(workload.failed(name, result) for name, result in outputs) <= 2
