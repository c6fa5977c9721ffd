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

qaoa-p-max, QAOA_P_STDOUT and QAOA_P_SCAN_FILE moved again when p = 1
came to be evaluated in closed form (qaoa._ClosedForm) instead of on the
simulated state, and when the reports gained optimum_probability.  The
p = 1 angles, traces and expectations move in their last digits (QAOA_P's
expectation -11.06769543465491 -> -11.067695434654926); the counts,
evals, best_value and blocks keep their values.  qaoa-p-max
(7cc3ec37...2c9d -> 3395f9bd...b646), QAOA_P_STDOUT (af0efada...909b ->
c55eb4b6...2378), QAOA_P_SCAN_FILE (e54c5fdb...47f6 -> 1d36704f...b22e).

qaoa-p-max, QAOA_P_STDOUT and QAOA_P_SCAN_FILE moved again when optimize
replaced scipy's L-BFGS-B with its own dense BFGS (csgp.bfgs.minimize: a
strong-Wolfe line search, L-BFGS-B's constants and stopping rules) and the
p >= 2 kernel came to sum by np.add.reduce instead of BLAS dots.  The
iterates differ, so the angles, expectations and traces move
(QAOA_P's expectation -11.067695434654926 -> -11.067695434657486, its
evals 113 -> 117, its trace 8 -> 10 steps), and optimum_probability moves
in its sixth digit (0.6267361745777091 -> 0.6267363082090603).  The
counts, the sampled energies, best_value and blocks keep their values.
qaoa-p-max (3395f9bd...b646 -> 4246dca5...0a0d), QAOA_P_STDOUT
(c55eb4b6...2378 -> 8a42f501...0053), QAOA_P_SCAN_FILE (1d36704f...b22e
-> ffbfc84d...bbb0).

dp and dp-n12 moved when solve_dp stopped splitting the subsets of more
than 2n/3 and fewer than n agents: metadata.splits went from 90 to 55
(dp, 2f0757b2...7cb4 -> bae06ce2...523c) and from 261,625 to 159,523
(dp-n12, 90b70213...d2e9 -> d1906d52...b7cf).  best_value and the blocks
kept their bytes in both reports.  BENCH_SUMMARY did not move: at n = 2
no layer is skipped.

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
        "bae06ce2346b0f008f3c59defda7a1a044f79c4b57daf466c065132606e0523c",
    ),
    # Layers of up to 924 subsets, each with up to 127 splits, then N's 2047.
    "dp-n12": (
        "--agents 12 --dist mu --seed 0 --method dp",
        "d1906d52bd2072471eb0f03b5a93f821ee07b9ceb765417da6be40b957f0b7cf",
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
    # m = 127 over 80 blocks of 16 sweeps; every restart freezes mid-run.
    "sa-default-n7": (
        "--agents 7 --dist normal --seed 2 --method sa",
        "af98666276a5be7cf45e8b98dfeeb854016ea261944f85f83e6563662ac458c6",
    ),
    "qaoa-p-max": (
        "--agents 2 --dist sva_beta --seed 1 --method qaoa --p-max 3",
        "4246dca5c4768503cc18d297563113fde319091d78aea1b5822a0d3935ea0a0d",
    ),
}
QAOA_P = "--agents 2 --dist normal --seed 0 --method qaoa --p 1 --lambda 12"
QAOA_P_STDOUT = "8a42f501bfd55c1d9ecdfc954f3d7afc0de1927d914b86c9cdac66923bfa0053"
QAOA_P_SCAN_FILE = "ffbfc84dc6cb20ecaa27fd69f37f23a2963c57061f5d91b33b79b8e6b54abbb0"
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
# `csgp gen --agents 10 --seed 0 --dist <family>` file bytes, recorded while
# every sampler still drew one coalition at a time.  At n = 10, ABU/ABN sum
# rows of up to ten baselines and ten bonuses, and MU and F reach spikes and
# resamples, which n = 3 does not pin.
GEN10_GOLDEN = {
    "abu": "40d9123b6c871ae4d769d6c136fddeba780190b104229b8b72b70a959276b184",
    "abn": "8393219b210ab25d416ae99d918ce969dc03740dda4e8ad548bdd7d15a425e9f",
    "mu": "c932246d19c5290f5f189204ab36a08890f4c6f74deb3db1a050dc68ec254b0c",
    "normal": "0406809ffd2403b01656eaff744ddfa2c429cf823d437da5081fde7db10727bb",
    "sva_beta": "41acc5071ee18c56a6f47c578eb46d2e4ef8832c87abdfcc9037c08054660026",
    "weibull": "2a35a7d06e7ddb0e4a3e052c2462ca80a81a4f0a0129cf3ff6b353c8661c3e60",
    "rayleigh": "bfcbfb27d9bac82da894ed60c578e4c620802881912a9aacb2cbb624b2055021",
    "wrc": "a07178c0a6c07fd3f8fb301e23931d787249169386268193e4639abfeba26ca3",
    "f": "07d30929f8fb6cfafd8e6268d7cf968bdc462b05406e9c50caad6443ac042d3e",
    "laplace": "2cbb1505e34351dfb19f8e72bad6bcbcca059545b9a2552f288ac9d78c38e0d4",
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


@pytest.mark.parametrize("dist", sorted(GEN10_GOLDEN))
def test_gen_file_bytes_at_ten_agents(tmp_path, capsys, dist):
    path = tmp_path / "game.json"
    run_cli(capsys, ["gen", "--agents", "10", "--dist", dist, "--seed", "0", "--out", str(path)])
    assert sha256(path.read_text(encoding="utf-8")) == GEN10_GOLDEN[dist]


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
