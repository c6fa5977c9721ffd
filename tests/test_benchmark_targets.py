"""The benchmark's traced functions must exist in csgp, and its cells must run.

perfbench/layers.py names the csgp functions a traced run wraps; a src
change that deletes or renames one would break `perfbench/run.py --trace 1`,
so it fails here first.  Likewise a src change that breaks a workload cell
or its check fails here, not only in a benchmark run.
"""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    found = layers.targets()
    assert list(found) == list(layers.TRACED)
    for name, (fn, _) in found.items():
        assert callable(fn) and fn.__name__ == name.split(".")[1], name


WORKLOADS = [w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]

# The seed-0 output digests perfbench reports.  qaoa's is pinned too: its
# m = 15 optimize cell and every scan's p = 1 depth are evaluated in closed
# form, the p >= 2 kernel sums by np.add.reduce and the BFGS search makes no
# BLAS call, so their bits do not depend on the BLAS thread count: the
# digest is the same under OPENBLAS_NUM_THREADS=1 and 2.  It moved from
# e9748731...6b53 to a58bd7f5...c8c8b when optimize's scipy L-BFGS-B gave
# way to csgp.bfgs.minimize.
DIGESTS = {
    "exact": "123f04c7a00fc1218553d80f170e9bf15131e4727a76b82244be9221a07abfdf",
    "anneal": "6300971ec8def3c6670cc62d6e74cb47f9feadeee50bbf0a8eda5d365be2aa29",
    "qaoa": "a58bd7f56e8ee449f661b73784f3626f91831d1692d637a6c8554521d85c8c8b",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_cell_runs_and_passes_its_check(monkeypatch, tmp_path, workload):
    # One untimed pass at workload seed 0, as perfbench/worker.py runs it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    outcome = workloads.Outcome()
    cells = workloads.BUILDERS[workload](0, tmp_path)
    assert cells
    for cell in cells:
        cell.check(cell.run(), outcome)
    if workload in DIGESTS:
        assert outcome.digest.hexdigest() == DIGESTS[workload]
