"""Start-up cost: csgp needs numpy alone, so no command loads scipy, QAOA included.

Each check runs in a fresh interpreter, since this test process may have
imported scipy for the differential test of csgp.bfgs.
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
    ["gen", "--agents", "4", "--dist", "abu", "--out", "game.json"],
    ["solve", "--agents", "4", "--dist", "abu", "--method", "dp"],
    ["solve", "--agents", "4", "--dist", "abu", "--method", "sa", "--sweeps", "5"],
    ["export", "--agents", "4", "--dist", "abu", "--format", "qubo-text", "--out", "game.qubo"],
    ["analyze", "--agents", "2..4"],
    ["solve", "--agents", "2", "--dist", "abu", "--method", "qaoa", "--p", "1"],
    ["solve", "--agents", "2", "--dist", "abu", "--method", "qaoa", "--p", "2"],
    ["bench", "--methods", "dp,qaoa", "--agents", "2", "--dists", "abu", "--p-max", "2", "--out", "bench"],
):
    assert cli.main(argv) == 0, argv
    loaded[" ".join(argv[:1] + argv[-2:])] = scipy_modules()
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert len(loaded) == 10
    assert loaded == {step: [] for step in loaded}
