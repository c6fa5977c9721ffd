"""Golden digests of the bytes the CLI writes, with wall-clock timing stripped.

The sha256 digests below were recorded before the solve pipeline moved
from the CLI into the library (`solvers.solve`); the reports, the QAOA
scan file and the bench summary must stay byte-identical.  JSON is
compared without sort_keys, so metadata key order is part of the bytes.
An intentional output change updates the digests and says why.
"""

import hashlib
import json

import pytest

from csgp.cli import main

SOLVE_GOLDEN = {
    "enum": (
        "--agents 4 --dist normal --seed 7 --method enum",
        "2cb1513102351d907a40facaff63d8e3c5480cdf45aa676a0b84d284a38fc09e",
    ),
    "dp": (
        "--agents 5 --dist wrc --seed 3 --method dp",
        "2f0757b2b5fbd242740be9d7adbfe834d5fa78ca2dcb5aee1eb304ec17ba7cb4",
    ),
    "qubo-brute-exclude-lambda": (
        "--agents 3 --dist wrc --seed 2 --method qubo-brute --exclude 5 --lambda 20",
        "fa8a9f605bd1f83bafaf5d533b023fc20f21a407b792fc68be988fb787d55dff",
    ),
    "sa-overrides": (
        "--agents 4 --dist mu --seed 1 --method sa --sweeps 40 --restarts 3 --temp-hi 5 --temp-lo 0.01",
        "3622bb4871bdfd847e662dcc5a07cdc429c9cbb340b5966c3188044863d91d5f",
    ),
    "sa-default-exclude-lambda": (
        "--agents 3 --dist abu --seed 0 --method sa --lambda 30 --exclude 3",
        "d957ed21b1c1fd8ee5b288f0fc830816ab76628bcee119b16aa386cf25ca611e",
    ),
    "qaoa-p-max": (
        "--agents 2 --dist sva_beta --seed 1 --method qaoa --p-max 3",
        "2c5d1e91bd38e5ddb369474b1c131264b79fc17c74ae86d420267f3bcbe5e268",
    ),
}
QAOA_P = "--agents 2 --dist normal --seed 0 --method qaoa --p 1 --lambda 12"
QAOA_P_STDOUT = "7398e21b6e886a0888a13fcb36ffacab8d8f074dc3ed4b8746c840186c3d427d"
QAOA_P_SCAN_FILE = "fc5ea1ab5f50a859f25b169bdd7f026ad3d0884f9864530280f652e4934392fe"
BENCH = "--methods dp,qubo-brute,sa,qaoa --agents 2 --dists abu,wrc,normal --seeds 2 --p-max 2 --shots 256"
BENCH_SUMMARY = "9165a419f2c7cedb4ef4f7a48b9e5c05743288336756c970ea755e76e313e473"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def without_timing(text: str) -> str:
    doc = json.loads(text)
    doc.pop("timing", None)  # a report's; a QAOA scan file times only its results
    for result in doc.get("results", ()):
        result.pop("timing")
    return json.dumps(doc, indent=2) + "\n"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("case", sorted(SOLVE_GOLDEN))
def test_solve_report_bytes(capsys, case):
    flags, digest = SOLVE_GOLDEN[case]
    out = run_cli(capsys, ["solve", *flags.split()])
    assert sha256(without_timing(out)) == digest


def test_qaoa_fixed_depth_report_and_scan_file_bytes(tmp_path, capsys):
    scan = tmp_path / "scan.json"
    out = run_cli(capsys, ["solve", *QAOA_P.split(), "--qaoa-out", str(scan)])
    assert sha256(without_timing(out)) == QAOA_P_STDOUT
    assert sha256(without_timing(scan.read_text(encoding="utf-8"))) == QAOA_P_SCAN_FILE


def test_bench_summary_bytes(tmp_path, capsys):
    run_cli(capsys, ["bench", *BENCH.split(), "--out", str(tmp_path)])
    lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].endswith(",wall_ms")
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
    assert sha256(stripped) == BENCH_SUMMARY
