"""Smoke tests of the scripts under scripts/, each run as its own process."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

from csgp.analysis import CSV_HEADER, S_MODES, complexity_table, write_complexity_csv

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_complexity_report_writes_three_tables_and_the_crossovers(tmp_path):
    out_dir = tmp_path / "complexity"
    stdout = run_script("complexity_report.py", "--n-max", "8", "--out", str(out_dir), cwd=tmp_path)
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(f"gate_costs_{m}.csv" for m in S_MODES)
    for mode in S_MODES:
        path = out_dir / f"gate_costs_{mode}.csv"
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == CSV_HEADER
        rows = list(csv.DictReader(text.splitlines()))
        assert len(rows) == 7 * 4  # n = 2..8 times the default p = 1, 10, 25, 50
        assert {row["s_mode"] for row in rows} == {mode}
        assert f"wrote {path} (28 rows)" in stdout
        # The file holds the library's table as the library writes it.
        expected = io.StringIO()
        write_complexity_csv(complexity_table(range(2, 9), [1, 10, 25, 50], s_mode=mode), expected)
        assert text == expected.getvalue()
    table = stdout.split("crossovers at sparse coupling (s = 2^n - 1):\n", 1)[1].splitlines()
    assert table[0].split() == ["p", "beats", "3^n", "from", "n", "beats", "n^n", "from", "n"]
    assert [line.split() for line in table[1:]] == [
        ["1", "5", "4"],
        ["10", "None", "5"],
        ["25", "None", "6"],
        ["50", "None", "6"],
    ]
