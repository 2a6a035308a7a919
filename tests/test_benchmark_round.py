"""One round of each of the benchmark's workloads, in-process.

``perfbench/workloads.py`` checks every answer of a round against its own
oracles; this runs each workload's round at seed 1 and asks the same check.
The ``exponent-queries`` round holds every ``lp --kr`` and ``cone --even``
query of the benchmark; ``corpus-verify`` and ``family-estimates`` cover the
corpus checker and the counting engines behind it. The exact outputs of the
``corpus-verify`` and ``exponent-queries`` rounds are pinned by the digest
``perfbench/run.py`` records; ``family-estimates`` prints floats from BLAS,
so its digest is not pinned.
"""
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_round(monkeypatch, name):
    """(workload, inputs, outputs) of one seed-1 round; an operation that
    raises fails the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    inputs = workload.prepare(1)
    outputs = [(op, thunk()) for op, thunk in workload.round(inputs)]
    return workload, inputs, outputs


DIGESTS = {  # seed 1
    "corpus-verify": "ac6237fef374d5777680d027ec6511c892b2c7ccd0f7bc94290e212f32f9af22",
    "exponent-queries": "4316ae3e45000cdc547153698e8f3c72a539545fef2eaee6137fac5a6784a168",
}


def round_digest(workload, outputs):
    """The digest ``perfbench/run.py`` records for a round's outputs."""
    digest = importlib.import_module("run").digest
    return digest(workload.render(op, result) for op, result in outputs)


def test_exponent_queries_round_passes_its_check(monkeypatch):
    workload, inputs, outputs = run_round(monkeypatch, "exponent-queries")
    assert len(outputs) == 1153
    assert workload.check(inputs, outputs) == []
    # P9/P9 and C9/C9 exit 2: canonical forms are capped at 8 vertices
    assert sum(workload.failed(name, result) for name, result in outputs) <= 2
    assert round_digest(workload, outputs) == DIGESTS["exponent-queries"]


@pytest.mark.parametrize("name", ["corpus-verify", "family-estimates"])
def test_round_passes_its_check(monkeypatch, name):
    workload, inputs, outputs = run_round(monkeypatch, name)
    assert workload.check(inputs, outputs) == []
    assert not any(workload.failed(op, result) for op, result in outputs)
    if name in DIGESTS:
        assert round_digest(workload, outputs) == DIGESTS[name]
