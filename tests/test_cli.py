"""End-to-end command-line behavior, run in process through main(argv).

Covers the happy paths of every subcommand, the file formats they write,
determinism of repeated runs, and the exit-code contract (2 config/parse,
3 resource guard, 4 infeasible).
"""

import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from csgp import cli
from csgp.analysis import CSV_HEADER, S_MODES, complexity_table, write_complexity_csv
from csgp.cli import main, read_qubo_text
from csgp.errors import ParseError, ResourceLimitError
from csgp.game import DISTRIBUTION_KINDS, CoalitionGame, DistributionSpec, generate_game, load_game
from csgp.solvers import solve_dp
from csgp.transform import build_bilp, build_qubo, penalty_terms, qubo_to_ising


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_game(tmp_path, capsys, n=3, dist="normal", seed=7):
    path = tmp_path / f"game_{dist}_n{n}_seed{seed}.json"
    code, out, _ = run_cli(
        capsys, "gen", "--agents", str(n), "--dist", dist, "--seed", str(seed),
        "--out", str(path),
    )
    assert code == 0 and out.strip() == str(path)
    return path


def stderr_error(err):
    doc = json.loads(err.strip())
    assert set(doc) == {"error", "kind", "exit"}
    return doc


# ----------------------------------------------------------------------- gen


def test_gen_writes_named_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "gen", "--agents", "3", "--dist", "normal", "--seed", "7")
    assert code == 0
    assert out.strip() == "game_normal_n3_seed7.json"
    doc = json.loads((tmp_path / out.strip()).read_text())
    assert doc["n"] == 3 and doc["dist"] == "normal" and doc["seed"] == 7
    assert set(doc["values"]) == {str(c) for c in range(1, 8)}


def test_gen_requires_dist(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "gen", "--agents", "3")
    assert code == 2
    assert stderr_error(err)["kind"] == "ConfigError"


def test_gen_rejects_unknown_dist(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--agents", "3", "--dist", "zeta"])
    assert exc.value.code == 2
    capsys.readouterr()


# --------------------------------------------------------------------- solve


def test_solve_dp_report_matches_library(tmp_path, capsys):
    path = make_game(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "solve", str(path), "--method", "dp")
    assert code == 0
    doc = json.loads(out)
    direct = solve_dp(load_game(path))
    assert doc["method"] == "dp"
    assert doc["feasible"] is True
    assert doc["best_value"] == direct.best_value
    assert doc["best_blocks"] == list(direct.best_cs.blocks)


def test_solve_out_file_equals_stdout(tmp_path, capsys):
    path = make_game(tmp_path, capsys)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "solve", str(path), "--method", "dp", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == out


def test_solve_agreement_across_methods(tmp_path, capsys):
    path = make_game(tmp_path, capsys, n=3, dist="abu", seed=5)
    _, out_dp, _ = run_cli(capsys, "solve", str(path), "--method", "dp")
    _, out_br, _ = run_cli(capsys, "solve", str(path), "--method", "qubo-brute")
    dp, br = json.loads(out_dp), json.loads(out_br)
    assert br["best_value"] == pytest.approx(dp["best_value"], rel=1e-9)
    assert br["best_blocks"] == dp["best_blocks"]


def test_solve_generates_when_no_file_given(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "solve", "--agents", "3", "--dist", "abu", "--seed", "1", "--method", "dp"
    )
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_solve_sa_is_deterministic(tmp_path, capsys):
    path = make_game(tmp_path, capsys, n=3, dist="mu", seed=2)
    argv = ("solve", str(path), "--method", "sa", "--seed", "4", "--sweeps", "200")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("timing")
    b.pop("timing")
    assert a == b


def test_solve_sa_builds_no_qubo_dict(tmp_path, capsys, monkeypatch):
    path = make_game(tmp_path, capsys, n=4, dist="wrc", seed=1)
    argv = ("solve", str(path), "--method", "sa", "--lambda", "7.5")
    _, want, _ = run_cli(capsys, *argv)
    for name in ("csgp.solvers.build_qubo", "csgp.solvers.qubo_energy", "csgp.transform.qubo_energy"):
        monkeypatch.setattr(name, _refuse(name))
    code, got, _ = run_cli(capsys, *argv)
    assert code == 0
    a, b = json.loads(want), json.loads(got)
    a.pop("timing")
    b.pop("timing")
    assert a == b and a["metadata"]["lambda"] == 7.5


def test_json_outputs_are_indented_json_dumps(tmp_path, capsys):
    # The streamed writer emits json.dumps(doc, indent=2) + "\n" byte for byte.
    def dumped(text):
        return json.dumps(json.loads(text), indent=2) + "\n"

    path = make_game(tmp_path, capsys, n=3, dist="mu", seed=2)
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "solve", str(path), "--method", "sa", "--out", str(report))
    assert code == 0 and out == dumped(out) and report.read_text(encoding="utf-8") == out
    for fmt in ("qubo-json", "ising-json"):
        export = tmp_path / f"{fmt}.json"
        run_cli(capsys, "export", str(path), "--format", fmt, "--out", str(export))
        text = export.read_text(encoding="utf-8")
        assert text == dumped(text), fmt


def test_solve_lambda_flag_reaches_qubo(tmp_path, capsys):
    path = make_game(tmp_path, capsys, n=2, dist="abn", seed=3)
    code, out, _ = run_cli(
        capsys, "solve", str(path), "--method", "qubo-brute", "--lambda", "50"
    )
    assert code == 0
    assert json.loads(out)["metadata"]["lambda"] == 50.0


def test_solve_qaoa_fixed_depth(tmp_path, capsys):
    path = make_game(tmp_path, capsys, n=2, dist="normal", seed=0)
    scan_path = tmp_path / "scan.json"
    code, out, _ = run_cli(
        capsys, "solve", str(path), "--method", "qaoa", "--p", "1",
        "--qaoa-out", str(scan_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "qaoa"
    assert doc["metadata"]["p"] == 1
    assert doc["metadata"]["p_values"] == [1]
    scan = json.loads(scan_path.read_text())
    assert len(scan["results"]) == 1
    result = scan["results"][0]
    assert sum(result["counts"].values()) == 1024
    assert result["p"] == 1


def test_solve_qaoa_scan_reaches_reference(tmp_path, capsys):
    path = make_game(tmp_path, capsys, n=2, dist="normal", seed=0)
    code, out, _ = run_cli(
        capsys, "solve", str(path), "--method", "qaoa", "--p-max", "5"
    )
    assert code == 0
    doc = json.loads(out)
    dp = solve_dp(load_game(path))
    assert doc["feasible"] is True
    assert doc["metadata"]["chosen_p"] is not None
    assert doc["best_value"] == pytest.approx(dp.best_value, rel=1e-9)


def test_solve_qaoa_depth_flags_conflict(tmp_path, capsys, monkeypatch):
    path = make_game(tmp_path, capsys, n=2, dist="abu", seed=0)
    # The conflict is reported before any of the chain is built.
    monkeypatch.setattr("csgp.solvers.build_bilp", _refuse("build_bilp"))
    code, _, err = run_cli(
        capsys, "solve", str(path), "--method", "qaoa", "--p", "1", "--p-max", "3"
    )
    assert code == 2
    assert stderr_error(err)["kind"] == "ConfigError"


@pytest.mark.parametrize("depth", [["--p", "0"], ["--p-max", "0"], ["--p", "-1"]])
def test_solve_qaoa_bad_depth_is_refused_before_the_chain(capsys, monkeypatch, depth):
    monkeypatch.setattr("csgp.solvers.build_bilp", _refuse("build_bilp"))
    code, _, err = run_cli(
        capsys, "solve", "--agents", "2", "--dist", "abn", "--method", "qaoa", *depth
    )
    assert code == 2 and err.count("\n") == 1
    assert stderr_error(err)["kind"] == "ConfigError"


def test_solve_refuses_a_game_file_with_a_bool_agent_count(tmp_path, capsys):
    # {"n": true} was read as one agent: dp reported best_value 1.5, "n": true and exit 0.
    path = tmp_path / "bool_n.json"
    path.write_text('{"n": true, "values": {"1": 1.5}}')
    code, out, err = run_cli(capsys, "solve", str(path), "--method", "dp")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert stderr_error(err)["kind"] == "SchemaError"


# ----------------------------------------------------------------- exit codes


def test_negative_seed_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = make_game(tmp_path, capsys, n=2, dist="abu", seed=0)
    monkeypatch.setattr("csgp.solvers.build_bilp", _refuse("build_bilp"))
    for argv in (
        ["gen", "--agents", "2", "--dist", "abu"],
        ["solve", str(path), "--method", "dp"],
        ["solve", str(path), "--method", "sa"],
        ["solve", str(path), "--method", "qaoa", "--p", "1"],
    ):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert stderr_error(err)["kind"] == "ConfigError"
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--agents", "5..3"], "empty agent range '5..3'"),
        (["solve", "--agents", "x", "--dist", "abu", "--method", "dp"], "cannot parse agent count 'x'"),
        (["solve", "--agents", "3", "--dist", "abu", "--method", "sa", "--exclude", "1,a"],
         "cannot parse exclusion list '1,a'"),
        (["analyze", "--agents", "3", "--p", "1,a"], "cannot parse layer list '1,a'"),
        (["solve", "--method", "dp"], "no game file given; need --agents and --dist"),
        (["solve", "--agents", "3", "--method", "dp"], "generating a game requires --dist"),
        (["gen", "--dist", "abu"], "gen requires --agents"),
    ],
)
def test_flag_refusals_exit_code(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    doc = stderr_error(err)
    assert doc["kind"] == "ConfigError" and doc["exit"] == 2 and doc["error"].startswith(message)
    assert list(tmp_path.iterdir()) == []


def test_game_file_and_agents_conflict(tmp_path, capsys):
    path = make_game(tmp_path, capsys)
    code, _, err = run_cli(
        capsys, "solve", str(path), "--agents", "3", "--dist", "abu", "--method", "dp"
    )
    assert code == 2
    assert stderr_error(err)["exit"] == 2


def test_exclude_rejected_for_partition_solvers(tmp_path, capsys):
    path = make_game(tmp_path, capsys)
    code, _, err = run_cli(
        capsys, "solve", str(path), "--method", "dp", "--exclude", "1"
    )
    assert code == 2
    assert stderr_error(err)["kind"] == "ConfigError"


def test_exclusion_causing_uncovered_agent_is_infeasible(tmp_path, capsys):
    path = make_game(tmp_path, capsys, n=2, dist="abu", seed=0)
    code, _, err = run_cli(
        capsys, "solve", str(path), "--method", "qubo-brute", "--exclude", "1,3"
    )
    assert code == 4
    assert stderr_error(err)["kind"] == "InfeasibleError"


def test_generation_guard_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "solve", "--agents", "99", "--dist", "normal", "--method", "dp"
    )
    assert code == 3
    assert stderr_error(err)["kind"] == "ResourceLimitError"


def test_qaoa_simulator_guard_exit_code(tmp_path, capsys, monkeypatch):
    # n = 5 gives 31 qubits; the guard must fire before the 2^31 energy table.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "solve", "--agents", "5", "--dist", "normal", "--method", "qaoa"
    )
    assert code == 3 and out == ""
    assert stderr_error(err)["kind"] == "ResourceLimitError"


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} ran before the size guard")

    return refuse


@pytest.mark.parametrize("agents,method", [("16", "sa"), ("5", "qubo-brute"), ("5", "qaoa")])
def test_qubo_method_guards_fire_before_the_coupling_build(
    tmp_path, capsys, monkeypatch, agents, method
):
    # n = 16 gives 65,535 variables, whose O(m^2) couplings alone exhaust
    # memory; n = 5 gives 31, above the brute-force and simulator limits.
    # sa and qubo-brute build only the coupling counts, qaoa build_qubo.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("csgp.solvers.build_qubo", _refuse("build_qubo"))
    monkeypatch.setattr("csgp.transform.coupling_counts", _refuse("coupling_counts"))
    code, out, err = run_cli(
        capsys, "solve", "--agents", agents, "--dist", "normal", "--method", method
    )
    assert code == 3 and out == ""
    assert stderr_error(err)["kind"] == "ResourceLimitError"


def test_qaoa_guard_fires_before_the_reference_scan(tmp_path, capsys, monkeypatch):
    # Dropping ten coalitions of n = 5 leaves m = 21: one qubit over the
    # simulator's limit, but small enough for the exhaustive reference scan.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("csgp.solvers.solve_qubo_exhaustive", _refuse("solve_qubo_exhaustive"))
    code, out, err = run_cli(
        capsys, "solve", "--agents", "5", "--dist", "normal", "--method", "qaoa",
        "--exclude", "3,5,6,7,9,10,11,12,13,14",
    )
    assert code == 3 and out == ""
    assert stderr_error(err)["kind"] == "ResourceLimitError"


@pytest.mark.parametrize("n", [13, 16])
def test_export_guard_fires_before_the_coupling_build(tmp_path, capsys, monkeypatch, n):
    # n = 13 is one agent over the export limit (about 2 GB of qubo-text), and
    # n = 16 gives 65,535 variables, more than read_qubo_text accepts; the m x m
    # count matrix is the O(m^2) allocation the guard protects.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("csgp.transform.build_qubo", _refuse("build_qubo"))
    monkeypatch.setattr("csgp.transform.coupling_counts", _refuse("coupling_counts"))
    code, out, err = run_cli(
        capsys, "export", "--agents", str(n), "--dist", "normal", "--format", "qubo-text"
    )
    assert code == 3 and out == ""
    assert stderr_error(err) == {
        "error": f"export is limited to 4095 QUBO variables, got {(1 << n) - 1}",
        "kind": "ResourceLimitError",
        "exit": 3,
    }
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("solve", "--method", "qaoa"),
    ("export", "--format", "qubo-text"),
])
def test_n20_is_refused_before_the_bilp_is_built(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("csgp.solvers.build_bilp", _refuse("build_bilp"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv[:1], "--agents", "20", "--dist", "normal", *argv[1:])
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out == ""
    assert stderr_error(err)["kind"] == "ResourceLimitError"
    assert list(tmp_path.iterdir()) == []


def test_exclusions_are_checked_before_the_size_guard(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "solve", "--agents", "20", "--dist", "normal", "--method", "qaoa",
        "--exclude", "1048576",
    )
    assert code == 2 and stderr_error(err)["kind"] == "ConfigError"
    # Dropping the 32 coalitions with agent a6 leaves 31 variables, over the
    # qaoa and qubo-brute limits (20, 24), but no partition: that exits 4.
    with_a6 = ",".join(str(c) for c in range(32, 64))
    for method in ("qaoa", "qubo-brute"):
        code, _, err = run_cli(
            capsys, "solve", "--agents", "6", "--dist", "normal", "--method", method,
            "--exclude", with_a6,
        )
        assert code == 4 and stderr_error(err)["kind"] == "InfeasibleError"


@pytest.mark.parametrize("method", ["sa", "qubo-brute", "qaoa"])
@pytest.mark.parametrize("lam", ["nan", "inf", "1e308"])
def test_penalty_that_is_not_finite_exit_code(tmp_path, capsys, monkeypatch, method, lam):
    # Refused before any coupling build: sa's own, or the brute-force reference's.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("csgp.transform.coupling_counts", _refuse("coupling_counts"))
    code, out, err = run_cli(
        capsys, "solve", "--agents", "2", "--dist", "abu", "--method", method, "--lambda", lam
    )
    assert code == 2 and out == "" and err.count("\n") == 1
    assert stderr_error(err)["kind"] == "ConfigError"


@pytest.mark.parametrize("fmt", ["qubo-json", "qubo-text", "ising-json"])
def test_export_refuses_a_penalty_that_is_not_finite(tmp_path, capsys, monkeypatch, fmt):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "export", "--agents", "2", "--dist", "abu", "--format", fmt, "--lambda", "nan"
    )
    assert code == 2 and out == "" and err.count("\n") == 1
    assert stderr_error(err)["kind"] == "ConfigError"
    assert list(tmp_path.iterdir()) == []


def test_game_whose_default_penalty_overflows_exit_code(tmp_path, capsys, monkeypatch):
    # Finite values whose default penalty 1 + 2 * sum |v| is inf.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "huge.json"
    path.write_text('{"n": 2, "values": {"1": 1e308, "2": 1e308, "3": 1e308}}', encoding="utf-8")
    for argv in (
        ["solve", str(path), "--method", "qubo-brute"],
        ["solve", str(path), "--method", "qaoa"],
        ["export", str(path), "--format", "qubo-text"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert stderr_error(err)["kind"] == "ConfigError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]


@pytest.mark.parametrize(
    "schedule",
    [["--sweeps", "100000000", "--restarts", "1"], ["--restarts", "200000", "--sweeps", "3000"]],
)
def test_sa_sweep_budget_exit_code(capsys, monkeypatch, schedule):
    monkeypatch.setattr("csgp.transform.coupling_counts", _refuse("coupling_counts"))
    code, out, err = run_cli(
        capsys, "solve", "--agents", "2", "--dist", "abu", "--method", "sa", *schedule
    )
    assert code == 3 and out == "" and err.count("\n") == 1
    assert stderr_error(err)["kind"] == "ResourceLimitError"


@pytest.mark.parametrize(
    "flags,exit_code,kind",
    [
        (["--p", "100000"], 3, "ResourceLimitError"),
        (["--p-max", "100000"], 3, "ResourceLimitError"),
        (["--shots", "100000000000000000000"], 2, "ConfigError"),
    ],
)
def test_qaoa_depth_and_shot_limits_exit_code(capsys, monkeypatch, flags, exit_code, kind):
    monkeypatch.setattr("csgp.solvers.build_bilp", _refuse("build_bilp"))
    code, out, err = run_cli(
        capsys, "solve", "--agents", "2", "--dist", "abu", "--method", "qaoa", *flags
    )
    assert code == exit_code and out == "" and err.count("\n") == 1
    assert stderr_error(err)["kind"] == kind


def test_infinite_sa_temperature_exit_code(tmp_path, capsys):
    # temp_hi = inf used to anneal at NaN temperatures and print Infinity,
    # which is not JSON.
    path = make_game(tmp_path, capsys, n=3, dist="abu", seed=0)
    code, out, err = run_cli(
        capsys, "solve", str(path), "--method", "sa", "--temp-hi", "inf",
        "--sweeps", "20", "--restarts", "1",
    )
    assert code == 2 and out == ""
    assert stderr_error(err)["kind"] == "ConfigError"


def test_oversized_game_file_exit_code(tmp_path, capsys):
    # A tiny file claiming 34 agents is refused before 2^34 indices are built.
    path = tmp_path / "huge.json"
    path.write_text('{"n": 34, "values": {"1": 1.0}}')
    code, _, err = run_cli(capsys, "solve", str(path), "--method", "dp")
    assert code == 2
    assert stderr_error(err)["kind"] == "SchemaError"


@pytest.mark.parametrize("n", [5000, 10**7, 10**11])
def test_game_file_with_a_huge_agent_count_exit_code(tmp_path, capsys, n):
    # One value for 2^n - 1 coalitions: refused on one short line, with 2^n
    # never formed (1,505 digits at n = 5000, 12 GB at n = 10^11).
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "values": {"1": 1.0}}))
    code, out, err = run_cli(capsys, "solve", str(path), "--method", "dp")
    assert code == 2 and out == ""
    assert stderr_error(err)["kind"] == "SchemaError"
    assert len(err) < 200


def test_malformed_game_file_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ this is not json")
    code, _, err = run_cli(capsys, "solve", str(path), "--method", "dp")
    assert code == 2
    assert stderr_error(err)["kind"] == "ParseError"


@pytest.mark.parametrize(
    "data, reason",
    [
        (b'{"n": 2, "values": {"1": 1.0, "\xff": 2.0}}', "codec can't decode"),
        (b"[" * 100_000, "recursion"),
        (b'{"n": ' + b"1" * 5000 + b', "values": {}}', "4300 digits"),
    ],
    ids=["not-utf8", "deep", "long-int"],
)
def test_unreadable_game_file_exit_code(tmp_path, capsys, data, reason):
    # Bytes that are not UTF-8, nesting past the recursion limit and an integer
    # too long to convert each ended in a traceback.
    path = tmp_path / "hostile.json"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"^{path}: unreadable JSON: .*{reason}"):
        load_game(path)
    code, out, err = run_cli(capsys, "solve", str(path), "--method", "dp")
    assert code == 2 and out == ""
    assert stderr_error(err)["kind"] == "ParseError"


@pytest.mark.parametrize("name, kind", [("missing.json", "FileNotFoundError"), ("", "IsADirectoryError")])
def test_game_file_that_cannot_be_opened_exit_code(tmp_path, capsys, name, kind):
    code, out, err = run_cli(capsys, "solve", str(tmp_path / name), "--method", "dp")
    assert code == 2 and out == ""
    doc = stderr_error(err)
    assert (doc["kind"], doc["exit"]) == (kind, 2)


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["gen", "--agents", "2", "--dist", "normal", "--out", "{missing}/game.json"], "FileNotFoundError"),
        (["solve", "--agents", "2", "--dist", "normal", "--method", "dp", "--out", "{missing}/r.json"],
         "FileNotFoundError"),
        (["solve", "--agents", "2", "--dist", "normal", "--method", "qaoa", "--p", "1", "--shots", "8",
          "--qaoa-out", "{missing}/scan.json"], "FileNotFoundError"),
        (["export", "--agents", "2", "--dist", "normal", "--format", "qubo-text", "--out", "{missing}/q.txt"],
         "FileNotFoundError"),
        (["analyze", "--agents", "2..3", "--out", "{missing}/c.csv"], "FileNotFoundError"),
        (["bench", "--methods", "dp", "--agents", "2", "--dists", "abu", "--out", "{file}/grid"],
         "NotADirectoryError"),
    ],
)
def test_an_output_path_that_cannot_be_written_exit_code(tmp_path, capsys, argv, kind):
    # An --out into a missing directory, or under a file, ended in a traceback.
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file"}
    code, _, err = run_cli(capsys, *[arg.format(**paths) for arg in argv])
    doc = stderr_error(err)
    assert (code, doc["kind"], doc["exit"]) == (2, kind, 2)


def test_argparse_rejects_unknown_method(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# -------------------------------------------------------------------- export


def test_export_qubo_text_round_trip(tmp_path, capsys):
    path = make_game(tmp_path, capsys, n=3, dist="wrc", seed=9)
    out_path = tmp_path / "instance.qubo.txt"
    code, out, _ = run_cli(
        capsys, "export", str(path), "--format", "qubo-text", "--out", str(out_path)
    )
    assert code == 0 and out.strip() == str(out_path)
    want = build_qubo(build_bilp(load_game(path)))
    got = read_qubo_text(out_path)
    assert got.m == want.m
    assert got.diag == want.diag
    assert got.offdiag == want.offdiag
    assert got.c == want.c and got.lam == want.lam


def test_export_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = make_game(tmp_path, capsys, n=2, dist="abu", seed=0)
    code, out, _ = run_cli(capsys, "export", str(path), "--format", "qubo-text")
    assert code == 0
    assert out.strip() == f"{path.stem}.qubo.txt"
    assert (tmp_path / out.strip()).exists()


def test_export_qubo_json_fields(tmp_path, capsys):
    path = make_game(tmp_path, capsys, n=2, dist="mu", seed=1)
    out_path = tmp_path / "q.json"
    run_cli(capsys, "export", str(path), "--format", "qubo-json", "--out", str(out_path))
    doc = json.loads(out_path.read_text())
    want = build_qubo(build_bilp(load_game(path)))
    assert doc["m"] == want.m
    assert doc["diag"] == list(want.diag)
    assert doc["c"] == want.c and doc["lambda"] == want.lam
    assert {(i, j): v for i, j, v in doc["offdiag"]} == want.offdiag
    assert [tuple(entry[:2]) for entry in doc["offdiag"]] == sorted(want.offdiag)


def test_export_ising_json_fields(tmp_path, capsys):
    path = make_game(tmp_path, capsys, n=2, dist="laplace", seed=1)
    out_path = tmp_path / "i.json"
    run_cli(capsys, "export", str(path), "--format", "ising-json", "--out", str(out_path))
    doc = json.loads(out_path.read_text())
    want = qubo_to_ising(build_qubo(build_bilp(load_game(path))))
    assert doc["m"] == want.m
    assert doc["h"] == list(want.h)
    assert doc["offset"] == want.offset
    assert {(i, j): v for i, j, v in doc["J"]} == want.J


def _dict_writers():
    """csgp export's three writers as they were when they formatted the build_qubo
    dict: format -> writer(qubo, fh).  The Ising file goes through qubo_to_ising, and
    both JSON files through json's indent-2 encoder, which is what cli._write_json
    streams.  The streamed writers must write these bytes."""

    def write_json(doc, fh):
        fh.write(json.dumps(doc, indent=2) + "\n")

    def qubo_json(qubo, fh):
        offdiag = [[i, j, qubo.offdiag[(i, j)]] for (i, j) in sorted(qubo.offdiag)]
        write_json({"m": qubo.m, "diag": list(qubo.diag), "offdiag": offdiag, "c": qubo.c, "lambda": qubo.lam}, fh)

    def ising_json(qubo, fh):
        ising = qubo_to_ising(qubo)
        J = [[i, j, ising.J[(i, j)]] for (i, j) in sorted(ising.J)]
        write_json({"m": ising.m, "h": list(ising.h), "J": J, "offset": ising.offset}, fh)

    def qubo_text(qubo, fh):
        fh.write(f"# c {qubo.c:.17g}\n")
        if qubo.lam is not None:
            fh.write(f"# lambda {qubo.lam:.17g}\n")
        fh.write(f"n {qubo.m}\n")
        for i, d in enumerate(qubo.diag):
            fh.write(f"{i} {i} {d:.17g}\n")
        for (i, j) in sorted(qubo.offdiag):
            fh.write(f"{i} {j} {qubo.offdiag[(i, j)]:.17g}\n")

    return {"qubo-json": qubo_json, "qubo-text": qubo_text, "ising-json": ising_json}


EXPORT_FORMATS = ("qubo-text", "qubo-json", "ising-json")


def _dict_export(bilp, lam, fmt):
    fh = io.StringIO()
    _dict_writers()[fmt](build_qubo(bilp, lam), fh)
    return fh.getvalue()


def _streamed_export(bilp, lam, fmt):
    fh = io.StringIO()
    cli._export_formats()[fmt][1](bilp.n, penalty_terms(bilp, lam), fh)
    return fh.getvalue()


def _assert_exports_equal(game, lam=None, exclude=frozenset()):
    bilp = build_bilp(game, exclude)
    for fmt in EXPORT_FORMATS:
        assert _streamed_export(bilp, lam, fmt) == _dict_export(bilp, lam, fmt), (fmt, lam, sorted(exclude))


def _composite_exclusions(n):
    """Every third coalition of two or more agents: no agent loses its singleton, and
    at n = 2 the two remaining columns share no agent."""
    return frozenset(c for c in range(3, 1 << n, 3) if c.bit_count() > 1)


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_export_equals_dict_writers(kind):
    for n in range(1, 8):
        for seed in (0, 1):
            _assert_exports_equal(generate_game(n, DistributionSpec(kind=kind), seed))


@pytest.mark.parametrize("exclude", [False, True])
@pytest.mark.parametrize("lam", [None, 0.5, 30.0])
def test_export_equals_dict_writers_across_penalties(lam, exclude):
    for kind in DISTRIBUTION_KINDS:
        for n in (2, 3, 5):
            game = generate_game(n, DistributionSpec(kind=kind), seed=0)
            _assert_exports_equal(game, lam, _composite_exclusions(n) if exclude else frozenset())


def test_export_equals_dict_writers_on_a_zero_diagonal():
    # v(C) = -|C| at lam = 1 makes every d_j = -v_j - |C_j| exactly 0.0, so h[i]
    # and the offset start from 0.0.
    for n in range(1, 6):
        game = CoalitionGame(n=n, values={c: -float(c.bit_count()) for c in range(1, 1 << n)})
        assert set(build_qubo(build_bilp(game), 1.0).diag) == {0.0}
        _assert_exports_equal(game, 1.0)
        _assert_exports_equal(game, 1.0, _composite_exclusions(n))


def test_export_keeps_a_negative_zero_field_of_an_uncoupled_column():
    # With the smallest positive penalty a zero game has d_j = -5e-324, so
    # d_j / 2.0 is -0.0, and the quarter 2*lam/4 of a count of 1 rounds to 0.0.
    # At n = 2 with coalition {1, 2} dropped no coupling is left, so h stays -0.0.
    lam = 5e-324
    zero = CoalitionGame(n=2, values={1: 0.0, 2: 0.0, 3: 0.0})
    ising = json.loads(_streamed_export(build_bilp(zero, {3}), lam, "ising-json"))
    assert [math.copysign(1.0, h) for h in ising["h"]] == [-1.0, -1.0] and ising["J"] == []
    _assert_exports_equal(zero, lam, {3})
    for n in (1, 3, 4):
        _assert_exports_equal(CoalitionGame(n=n, values={c: 0.0 for c in range(1, 1 << n)}), lam)


@pytest.mark.parametrize("rows", [1, 3])
def test_export_equals_dict_writers_in_small_row_blocks(monkeypatch, rows):
    # The count build, h and the offset (a sum carried across blocks) all read
    # ENERGY_BLOCK entries per pass; here that is one or three rows of m = 31.
    monkeypatch.setattr("csgp.transform.ENERGY_BLOCK", rows * 31)
    game = generate_game(5, DistributionSpec(kind="laplace"), seed=1)
    for lam in (None, 0.5):
        _assert_exports_equal(game, lam)
    _assert_exports_equal(generate_game(5, DistributionSpec(kind="wrc"), seed=0), 30.0, {3, 6, 12, 24})


def test_export_files_equal_dict_writers(tmp_path, capsys):
    path = make_game(tmp_path, capsys, n=4, dist="abn", seed=5)
    bilp = build_bilp(load_game(path), {3, 5})
    for fmt in EXPORT_FORMATS:
        out_path = tmp_path / fmt
        code, _, _ = run_cli(
            capsys, "export", str(path), "--format", fmt, "--lambda", "3.25", "--exclude", "3,5",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == _dict_export(bilp, 3.25, fmt).encode(), fmt


def test_export_builds_no_qubo_dict(tmp_path, capsys, monkeypatch):
    path = make_game(tmp_path, capsys, n=5, dist="mu", seed=2)
    want = {fmt: _dict_export(build_bilp(load_game(path)), None, fmt) for fmt in EXPORT_FORMATS}
    for name in ("csgp.transform.build_qubo", "csgp.transform.qubo_to_ising", "csgp.cli._write_json"):
        monkeypatch.setattr(name, _refuse(name))
    for fmt in EXPORT_FORMATS:
        out_path = tmp_path / fmt
        code, _, _ = run_cli(capsys, "export", str(path), "--format", fmt, "--out", str(out_path))
        assert code == 0 and out_path.read_text(encoding="utf-8") == want[fmt], fmt


@pytest.mark.parametrize("fmt", ["ising-json", "qubo-text"])
def test_export_memory_stays_flat(tmp_path, capsys, fmt):
    # n = 10 writes 495k couplings (29 MB of Ising JSON); the dict writers peaked
    # at 175 MiB (ising-json) and 80 MiB (qubo-text) of traced allocations.
    out_path = tmp_path / fmt
    tracemalloc.start()
    try:
        code, _, _ = run_cli(
            capsys, "export", "--agents", "10", "--dist", "normal", "--format", fmt, "--out", str(out_path)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out_path.stat().st_size > 10_000_000
    assert peak < 32 * 2**20, peak


def test_read_qubo_text_tolerates_reordering(tmp_path):
    path = tmp_path / "scrambled.qubo.txt"
    path.write_text(
        "# free-form comment\n"
        "n 3\n"
        "2 0 5.0\n"           # reversed pair folds to (0, 2)
        "# c 20\n"
        "1 1 -12\n"
        "\n"
        "0 0 -11\n"
        "2 2 -24\n"
        "1 2 0\n"             # explicit zero is dropped
        "# lambda 10\n"
    )
    qubo = read_qubo_text(path)
    assert qubo.m == 3
    assert qubo.diag == (-11.0, -12.0, -24.0)
    assert qubo.offdiag == {(0, 2): 5.0}
    assert qubo.c == 20.0 and qubo.lam == 10.0


def test_read_qubo_text_rejects_duplicates_and_garbage(tmp_path):
    dup = tmp_path / "dup.qubo.txt"
    dup.write_text("n 2\n0 1 3.0\n1 0 4.0\n")
    with pytest.raises(ParseError):
        read_qubo_text(dup)
    missing = tmp_path / "missing.qubo.txt"
    missing.write_text("0 0 1.0\n")
    with pytest.raises(ParseError):
        read_qubo_text(missing)
    bad = tmp_path / "bad.qubo.txt"
    bad.write_text("n 2\n0 5 1.0\n")
    with pytest.raises(ParseError):
        read_qubo_text(bad)


@pytest.mark.parametrize("text, line", [(b"\xff\n", 1), (b"n 2\n0 0 1.0\xff\n", 2), (b"# c \xff\nn 1\n", 1)])
def test_read_qubo_text_refuses_bytes_that_are_not_utf8(tmp_path, text, line):
    # They ended in a UnicodeDecodeError that named neither the file nor the line.
    path = tmp_path / "bytes.qubo.txt"
    path.write_bytes(text)
    with pytest.raises(ParseError, match=f"^{path}:{line}: "):
        read_qubo_text(path)


@pytest.mark.parametrize(
    "text, where, reason",
    [
        ("n 3 4\n", ":1", "malformed size line 'n 3 4'"),
        ("# c 1.0\nn x\n", ":2", "bad size 'x'"),
        ("n 0\n", ":1", "size must be >= 1, got 0"),
        ("n 2\n0 0 1.0\n0 1\n", ":3", "expected `i j value`, got '0 1'"),
        ("# c 1.0\n# lambda 2.0\n", "", "missing `n <m>` line"),
    ],
)
def test_read_qubo_text_refuses_malformed_lines(tmp_path, text, where, reason):
    # A file with no size line has no line to name, so only that refusal names the path alone.
    path = tmp_path / "bad.qubo.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_qubo_text(path)
    assert str(exc.value) == f"{path}{where}: {reason}"


def test_read_qubo_text_rejects_second_size_line(tmp_path):
    path = tmp_path / "twice.qubo.txt"
    path.write_text("n 2\n0 0 -3.0\nn 2\n1 1 -4.0\n")
    with pytest.raises(ParseError, match="second"):
        read_qubo_text(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("n 2\n0 0 1e999\n", 2),
        ("n 2\n0 1 nan\n", 2),
        ("n 2\n1 1 -inf\n", 2),
        ("# c inf\nn 2\n", 1),
        ("n 2\n# lambda nan\n", 2),
    ],
)
def test_read_qubo_text_refuses_non_finite_values(tmp_path, text, line):
    path = tmp_path / "nonfinite.qubo.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{path}:{line}: non-finite"):
        read_qubo_text(path)


def test_read_qubo_text_refuses_oversized_size_line(tmp_path):
    path = tmp_path / "huge.qubo.txt"
    path.write_text("n 1000000000000\n")
    with pytest.raises(ResourceLimitError):
        read_qubo_text(path)


# ------------------------------------------------------------------- analyze


def test_analyze_stdout_layout(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--agents", "2..4", "--p", "1,50", "--s-mode", "min"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2
    assert all(line.split(",")[2] == "min" for line in lines[1:])


def test_analyze_all_modes_are_mode_major(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--agents", "2..3", "--p", "1")
    assert code == 0
    modes = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert modes == ["min"] * 2 + ["max"] * 2 + ["actual"] * 2


def test_analyze_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys, "analyze", "--agents", "2..6", "--p", "1,10", "--out", str(out_path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", "--agents", "2..6", "--p", "1,10")
    assert out_path.read_text() == out
    # Each mode's file holds the library's table as the library writes it.
    for mode in S_MODES:
        code, _, _ = run_cli(
            capsys, "analyze", "--agents", "2..8", "--s-mode", mode, "--out", str(out_path)
        )
        assert code == 0
        expected = io.StringIO()
        write_complexity_csv(complexity_table(range(2, 9), [1, 10, 25, 50], mode), expected)
        assert out_path.read_text(encoding="utf-8") == expected.getvalue()


def test_analyze_rejects_out_of_range_agents(capsys):
    code, _, err = run_cli(capsys, "analyze", "--agents", "1..4", "--p", "1")
    assert code == 2
    assert stderr_error(err)["kind"] == "ConfigError"


# --------------------------------------------------------------------- bench


def test_bench_grid_outputs(tmp_path, capsys):
    out_dir = tmp_path / "grid"
    code, out, _ = run_cli(
        capsys, "bench", "--methods", "dp,qubo-brute", "--agents", "2..3",
        "--dists", "abu,mu", "--seeds", "2", "--out", str(out_dir),
    )
    assert code == 0
    assert out.strip() == str(out_dir / "summary.csv")
    cells = sorted(p.name for p in out_dir.glob("*.json"))
    assert len(cells) == 2 * 2 * 2 * 2
    assert "dp_abu_n2_seed0.json" in cells
    lines = (out_dir / "summary.csv").read_text().splitlines()
    assert lines[0] == (
        "method,dist,n,seed,best_value,feasible,reference_value,matches_reference,wall_ms"
    )
    assert len(lines) == 1 + 16
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[5] == "true"
        assert fields[7] == "true"
        assert math.isclose(float(fields[4]), float(fields[6]), rel_tol=1e-9)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "--agents", "2..1000000000000"], 2),
        (["analyze", "--agents", "60..65"], 2),
        (["bench", "--methods", "dp", "--agents", "2..1000000000000"], 3),
        (["bench", "--methods", "dp", "--dists", "abu", "--agents", "2..21"], 3),
        (["bench", "--methods", "dp", "--dists", "abu", "--agents", "0..3"], 2),
        (["solve", "--agents", "2..1" + "0" * 40, "--dist", "abu", "--method", "dp"], 2),
    ],
)
def test_agent_ranges_are_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, code):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran before the agent range was checked")

    for name in ("generate_game", "solve", "solve_dp"):
        monkeypatch.setattr(f"csgp.cli.{name}", refuse)
    monkeypatch.setattr("csgp.analysis.gate_count", refuse)
    out_dir = tmp_path / "grid"
    if argv[0] == "bench":
        argv = [*argv, "--out", str(out_dir)]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert stderr_error(err)["exit"] == code
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, code, kind",
    [
        (["--methods", "qubo-brute", "--dists", "abu", "--agents", "3..5"], 3, "ResourceLimitError"),
        (["--methods", "dp,sa", "--dists", "abu", "--agents", "15..16"], 3, "ResourceLimitError"),
        (["--methods", "dp,qaoa", "--dists", "abu", "--agents", "2..5"], 3, "ResourceLimitError"),
        (["--methods", "enum", "--dists", "abu", "--agents", "11..13"], 3, "ResourceLimitError"),
        (["--methods", "dp,qaoa", "--dists", "abu", "--agents", "2..3", "--shots", "0"], 2, "ConfigError"),
        (["--methods", "dp,qaoa", "--dists", "abu", "--agents", "2..3", "--p-max", "0"], 2, "ConfigError"),
        (["--methods", "dp,qaoa", "--dists", "abu", "--agents", "2..3", "--p-max", "65"], 3,
         "ResourceLimitError"),
        (["--methods", "dp,qaoa", "--dists", "abu", "--agents", "2..3", "--lambda", "nan"], 2, "ConfigError"),
        (["--methods", "dp,sa", "--dists", "abu", "--agents", "2..3", "--lambda", "0"], 2, "ConfigError"),
    ],
    ids=[
        "brute-variables", "sa-variables", "qaoa-qubits", "enum-agents", "shots", "p-max-low",
        "p-max-high", "lambda-nan", "lambda-zero",
    ],
)
def test_bench_checks_every_method_before_any_work(tmp_path, capsys, monkeypatch, argv, code, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran before every method's preconditions were checked")

    for name in ("generate_game", "solve", "solve_dp"):
        monkeypatch.setattr(f"csgp.cli.{name}", refuse)
    out_dir = tmp_path / "grid"
    got, out, err = run_cli(capsys, "bench", *argv, "--out", str(out_dir))
    assert got == code
    assert out == "" and err.count("\n") == 1
    doc = stderr_error(err)
    assert (doc["kind"], doc["exit"]) == (kind, code)
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "agents, method, options",
    [
        ("13", "enum", []),
        ("16", "sa", []),
        ("6", "qaoa", ["--shots", "0"]),
        ("3", "sa", ["--lambda", "nan"]),
        ("3", "qaoa", ["--p-max", "0"]),
    ],
    ids=["enum-agents", "sa-variables", "qaoa-shots", "sa-lambda", "qaoa-p-max"],
)
def test_solve_and_bench_refuse_alike(tmp_path, capsys, agents, method, options):
    # bench refuses through solve's own check_request, so the two commands agree.
    solved = run_cli(capsys, "solve", "--agents", agents, "--dist", "abu", "--method", method, *options)
    benched = run_cli(
        capsys, "bench", "--methods", method, "--agents", agents, "--dists", "abu", *options,
        "--out", str(tmp_path / "grid"),
    )
    assert solved == benched
    code, out, err = solved
    assert code in (2, 3) and out == "" and err.count("\n") == 1
    assert stderr_error(err)["exit"] == code
    assert not (tmp_path / "grid").exists()


def test_bench_checks_the_penalty_only_for_qubo_methods(tmp_path, capsys):
    # enum and dp never build a QUBO, so a penalty they would ignore is not refused.
    code, _, _ = run_cli(
        capsys, "bench", "--methods", "dp", "--dists", "abu", "--agents", "2",
        "--lambda", "nan", "--out", str(tmp_path / "grid"),
    )
    assert code == 0


def test_bench_rejects_unknown_method(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "bench", "--methods", "magic", "--agents", "2", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert stderr_error(err)["kind"] == "ConfigError"


def test_bench_rejects_unknown_dist(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "bench", "--methods", "dp", "--agents", "2", "--dists", "cauchy",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert stderr_error(err)["kind"] == "ConfigError"


@pytest.mark.parametrize("flag", ["--methods", "--dists"])
@pytest.mark.parametrize("value", [",", "", " , "])
def test_bench_refuses_an_empty_list(tmp_path, capsys, flag, value):
    # It ran no cell, wrote a summary of only its header and exited 0.
    out_dir = tmp_path / "grid"
    argv = {"--methods": "dp", "--dists": "abu", flag: value}
    code, out, err = run_cli(
        capsys, "bench", "--agents", "2", *[x for kv in argv.items() for x in kv], "--out", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert stderr_error(err)["kind"] == "ConfigError"
    assert not out_dir.exists()


def test_a_closed_stdout_pipe_exits_1_without_a_traceback(tmp_path):
    # As `csgp solve ... | head -1`.  The report, with a 20,000-entry trace, is
    # about 0.5 MB: far more than a pipe buffers, so the writer meets the closed pipe.
    argv = ["solve", "--agents", "4", "--dist", "abu", "--method", "sa", "--sweeps", "20000", "--restarts", "1"]
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "csgp", *argv], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=err,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
    assert (tmp_path / "stderr").read_bytes() == b""
