"""Start-up cost: only QAOA's optimizer needs scipy, so nothing else loads it.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy through the other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

loaded = {}
import csgp
loaded["import csgp"] = scipy_modules()
from csgp import cli
cli.build_parser()
loaded["build_parser"] = scipy_modules()
for argv in (
    ["solve", "--agents", "4", "--dist", "abu", "--method", "dp"],
    ["solve", "--agents", "4", "--dist", "abu", "--method", "sa", "--sweeps", "5"],
    ["export", "--agents", "4", "--dist", "abu", "--format", "qubo-text", "--out", "game.qubo"],
    ["analyze", "--agents", "2..4"],
):
    assert cli.main(argv) == 0, argv
    loaded[" ".join(argv[:1] + argv[-2:])] = scipy_modules()
assert cli.main(["solve", "--agents", "2", "--dist", "abu", "--method", "qaoa", "--p", "1"]) == 0
print(json.dumps({"numpy-only": loaded, "qaoa": "scipy.optimize" in sys.modules}))
"""


def test_only_a_qaoa_solve_imports_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["numpy-only"] == {step: [] for step in result["numpy-only"]}
    assert result["qaoa"]
