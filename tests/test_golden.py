"""Golden digests of the bytes the CLI writes, with wall-clock timing stripped.

The sha256 digests below were recorded before the solve pipeline moved
from the CLI into the library (`solvers.solve`); the reports, the QAOA
scan file and the bench summary must stay byte-identical.  JSON is
compared without sort_keys, so metadata key order is part of the bytes.
An intentional output change updates the digests and says why.

QAOA_P_STDOUT and QAOA_P_SCAN_FILE moved when energy_table came to be built
by doubling (transform.quadratic_table): the new order of summation moves
table entries by ULPs, so the expectations move by ULPs and Nelder-Mead's
last steps, its angles (~1e-9 relative), its trace and its evaluation count
move with them.  The sampled energies and the report's best_energy kept
their bytes.

qaoa-p-max, QAOA_P_STDOUT and QAOA_P_SCAN_FILE moved again when optimize
replaced Nelder-Mead with L-BFGS-B on adjoint gradients, searching the
energy table divided by max|E| from starts that are each the lowest of 16
draws: the angles, expectations, traces, counts, evals and the new
converged_starts counter all changed.
qaoa-p-max (2c5d1e91...e268 -> 7cc3ec37...2c9d) now stops at
p = 1 with an expectation of -83.89 instead of at p = 2 with -123.27.
QAOA_P_STDOUT (54b7a335...12e5 -> af0efada...909b) reports an
expectation of -11.07 instead of -9.64, and QAOA_P_SCAN_FILE
(94ad4678...0131 -> e54c5fdb...47f6) follows it.  Both reports keep
their best_value and blocks.  BENCH_SUMMARY did not move: its columns
hold no angle or expectation.

EXPORT_GOLDEN was recorded while `csgp export` still wrote its files from
the `build_qubo` dict (through `qubo_to_ising` and `json`'s indent-2
encoder); the writers that stream the coupling counts must keep those bytes.
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
    # Layers of up to 924 subsets, each with up to 2047 splits.
    "dp-n12": (
        "--agents 12 --dist mu --seed 0 --method dp",
        "90b70213071584384e3ce4c059ad779c6b2c562ca2fb7fc928333a02576fe2d9",
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
        "7cc3ec37a7a43689f0204056fb925db2beccbeac2c02c7e214644ef6579d2c9d",
    ),
}
QAOA_P = "--agents 2 --dist normal --seed 0 --method qaoa --p 1 --lambda 12"
QAOA_P_STDOUT = "af0efadaac8514c02a2b2fd4bcaa076a7475487249a5a1eb02e5123f3cf1909b"
QAOA_P_SCAN_FILE = "e54c5fdb97bdab8b899439e78819cd5175a1f898da0a4a89c85653279b3e47f6"
BENCH = "--methods dp,qubo-brute,sa,qaoa --agents 2 --dists abu,wrc,normal --seeds 2 --p-max 2 --shots 256"
BENCH_SUMMARY = "9165a419f2c7cedb4ef4f7a48b9e5c05743288336756c970ea755e76e313e473"
# `csgp export` file bytes, per format and flags.
EXPORT_GOLDEN = {
    ("qubo-text", "--agents 4 --dist wrc --seed 3"):
        "2682f1b923e771192715219320002f8f810e71e4f26c0f15cbcc4fa10156f157",
    ("qubo-text", "--agents 4 --dist normal --seed 1 --exclude 3,6,12 --lambda 2.5"):
        "278de77f7d90133429bc37b1b68bb6643d10a80b394e1fc0377332d22e9cfeab",
    ("qubo-json", "--agents 4 --dist wrc --seed 3"):
        "ea4927e1ac2c8564c9ad2015ed8ec5f146ac0797fcacda3fddcb113a314fd3e6",
    ("qubo-json", "--agents 4 --dist normal --seed 1 --exclude 3,6,12 --lambda 2.5"):
        "bfb6bef3236a10da365b714ed2298ec8ea86ca5941d42f2ea9896ec08add70fb",
    ("ising-json", "--agents 4 --dist wrc --seed 3"):
        "46a694f72acf5f7de90bbe740355a0e9e280d04fdda1f33136ac5d1de71beb27",
    ("ising-json", "--agents 4 --dist normal --seed 1 --exclude 3,6,12 --lambda 2.5"):
        "994c509aff3c80e2e72986de9abdd4e0147a2593e233740934be254e06454f8a",
}
# `csgp gen --agents 3 --seed 0 --dist <family>` file bytes: they pin every
# family's fixed parameters and its draw order.
GEN_GOLDEN = {
    "abu": "9e644ce02749d6a8a265ca688cddbf0342e8d8dfaae7d156d737add6042a66af",
    "abn": "16f5f798d0c1c7229dcd9a944ae2bfad573671dc44e9e6f938bda1faf82b6599",
    "mu": "ccddae68836d721f0637408e507b1bffa27d290742de19ad1714def3e6838b37",
    "normal": "de8b87ede0cc3d6df41b1264073aa3cc6f937b25594f31c4bf07bf83b2e3fd99",
    "sva_beta": "a231b4ffec255de16ff69afcfb1c6ba8d41a4184cdd4f34a63482502dd681bc2",
    "weibull": "16ba1b9dec5c59434de7e8558d43df90e94c2da80be8ce6bbc56a4cfff4284c9",
    "rayleigh": "24b04ccf440e524f7a5f20e5873df72789826ebd5e1b6ded88437fd639c63266",
    "wrc": "dfc2a95ed7728e707a3ce7f70f0f75d6bf6a8e6f91d75216ec8a33da37d869d2",
    "f": "8f84d66559439b9edef9ed33fdfa0f7f731c746ae4eb6f695cb2808688a2c84d",
    "laplace": "c04b3886d2a9ec4aba3e3409185f9e1fde16399325eae93047ad202ff8cabe6f",
}


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


@pytest.mark.parametrize("dist", sorted(GEN_GOLDEN))
def test_gen_file_bytes(tmp_path, capsys, dist):
    path = tmp_path / "game.json"
    run_cli(capsys, ["gen", "--agents", "3", "--dist", dist, "--seed", "0", "--out", str(path)])
    assert sha256(path.read_text(encoding="utf-8")) == GEN_GOLDEN[dist]


@pytest.mark.parametrize("case", sorted(SOLVE_GOLDEN))
def test_solve_report_bytes(capsys, case):
    flags, digest = SOLVE_GOLDEN[case]
    out = run_cli(capsys, ["solve", *flags.split()])
    assert sha256(without_timing(out)) == digest


@pytest.mark.parametrize("fmt,flags", sorted(EXPORT_GOLDEN))
def test_export_file_bytes(tmp_path, capsys, fmt, flags):
    path = tmp_path / "instance"
    run_cli(capsys, ["export", *flags.split(), "--format", fmt, "--out", str(path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_GOLDEN[fmt, flags]


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
