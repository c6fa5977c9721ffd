"""The benchmark's workloads: the cells each one runs and the checks on their outputs.

A cell is one user command (``csgp.cli.main(argv)``) or one library call
on one generated instance.  Everything a cell needs is prepared when the
workload is built, before the timed pass starts; a cell's ``run`` is the
timed call, and its ``check`` runs after the pass, untimed and untraced.

Game seeds are derived from the workload seed, except in two places where
the program fixes or the benchmark has to fix them:

* ``csgp bench`` (in ``anneal``) has no seed flag and uses game seed 0;
* the QAOA layer scans (in ``qaoa``) use a fixed panel.  A scan's cost is
  set by the depth at which it first samples the optimum, which the
  instance decides: at n = 2 a scan takes 0.3 s when it stops at p = 1 and
  11 s when it needs p = 4, at n = 3 from 1.5 s to 50 s.  A panel drawn
  from the seed would spread the workload's wall time over several times
  any usable bound, so the panel below is fixed and mixes scans that stop
  at p = 1 with one that needs p = 2.  The deep scan is at n = 2 because
  an n = 3 scan that needs p = 2 takes 5 to 12 s, too long for one cell.

Every cell is kept to a few tenths of a second where the instance allows
and every pass to a few seconds, so that a run holds many repeats and the
reference loop timed before each cell (see calibration.py) samples the
host's speed every fraction of a second.  That is why the sizes are below
the largest each solver's guard allows: DP at n = 13, export at n = 8, SA
at n = 9, the README bench grid at n = 2..6 on three families and at n = 7
on one, and one optimize start capped at 8 iterations at m = 15.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from csgp import cli, qaoa
from csgp.analysis import S_MODES
from csgp.game import DISTRIBUTION_KINDS, CoalitionStructure, DistributionSpec, cs_value, generate_game
from csgp.qaoa import OptimizerConfig, energy_table
from csgp.solvers import solve_dp
from csgp.transform import build_bilp, build_qubo, decode_solution, qubo_to_ising

QAOA_P_MAX = 4
ANALYZE_AGENTS = (2, 64)
ANALYZE_LAYER_COUNTS = 4  # csgp analyze's default --p list is 1,10,25,50


def derive_seed(seed: int, tag: str) -> int:
    """A game seed for one cell, fixed by the workload seed and the cell's tag."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def gap_pct(value: float | None, opt: float) -> float:
    """100 (opt - value) / |opt|; an infeasible result (value None) counts as 100."""
    if value is None:
        return 100.0
    return 100.0 * (opt - value) / abs(opt)


def depth(chosen_p: int | None, p_max: int) -> int:
    """The first p at which a scan sampled its target; p_max + 1 if it never did."""
    return p_max + 1 if chosen_p is None else chosen_p


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    """What the checks of one pass found, and the digest of its outputs."""

    heuristic: list = field(default_factory=list)  # (best_value or None, exact optimum)
    approx_ratios: list = field(default_factory=list)
    depths: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)

    def add_bytes(self, label: str, data: bytes) -> None:
        self.digest.update(label.encode() + b"\0" + data + b"\0")

    def add_doc(self, label: str, doc: dict) -> None:
        stripped = {k: v for k, v in doc.items() if k != "timing"}
        self.add_bytes(label, json.dumps(stripped, sort_keys=True).encode())


@dataclass
class Cell:
    id: str
    run: Callable[[], object]
    check: Callable[[object, Outcome], None]


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def cli_run(argv: list[str]) -> Callable[[], CliOutput]:
    def run() -> CliOutput:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        return CliOutput(code, out.getvalue(), err.getvalue())

    return run


def _exit_ok(out: CliOutput) -> None:
    if out.code != 0:
        raise CheckFailed(f"exit code {out.code}: {out.stderr.strip()[:300]}")


def check_report(doc: dict, game, outcome: Outcome, opt: float | None, heuristic: bool) -> None:
    """Partition validity, value recomputed from the game, and the optimum bound."""
    if doc["feasible"]:
        cs = CoalitionStructure(doc["best_blocks"])
        cs.validate(game.n)
        value = cs_value(game, cs)
        if doc["best_value"] is None or not close(doc["best_value"], value):
            raise CheckFailed(f"best_value {doc['best_value']!r} != cs_value {value!r}")
        if opt is not None and value > opt and not close(value, opt):
            raise CheckFailed(f"{doc['method']} value {value!r} beats the exact optimum {opt!r}")
    else:
        if not heuristic:
            raise CheckFailed(f"exact method {doc['method']} returned an infeasible result")
        if doc["best_value"] is not None:
            raise CheckFailed("infeasible result carries a best_value")
        value = None
    if heuristic:
        outcome.heuristic.append((value, opt))
    elif opt is not None and not close(value, opt):
        raise CheckFailed(f"exact value {value!r} != optimum {opt!r}")


def _game(n: int, dist: str, seed: int):
    return generate_game(n, DistributionSpec(kind=dist), seed)


def solve_cell(cell_id: str, n: int, dist: str, seed: int, method: str, extra=(), reference=None) -> Cell:
    """``csgp solve`` on a generated game.

    ``reference`` is None (only self-consistency is checked), "dp" (the
    result must not beat the DP optimum; heuristics are scored against it)
    or "dp-equal" (an exact method must match DP in value and blocks).
    """
    argv = ["solve", "--agents", str(n), "--dist", dist, "--seed", str(seed), "--method", method, *extra]

    def check(out: CliOutput, outcome: Outcome) -> None:
        _exit_ok(out)
        doc = json.loads(out.stdout)
        outcome.add_doc(cell_id, doc)
        game = _game(n, dist, seed)
        opt = None
        if reference is not None:
            ref = solve_dp(game)
            opt = ref.best_value
            if reference == "dp-equal" and doc["best_blocks"] != list(ref.best_cs.blocks):
                raise CheckFailed(f"blocks {doc['best_blocks']} != DP blocks {list(ref.best_cs.blocks)}")
        heuristic = method in ("sa", "qaoa")
        check_report(doc, game, outcome, opt, heuristic)
        if method == "qaoa":
            md = doc["metadata"]
            if md["reference_value"] is not None and not close(md["reference_value"], opt):
                raise CheckFailed(f"QUBO reference {md['reference_value']!r} != DP optimum {opt!r}")
            ising = qubo_to_ising(build_qubo(build_bilp(game)))
            table = energy_table(ising)
            outcome.approx_ratios.append(approx_ratio(md["expectation"], table))
            outcome.depths.append(depth(md["chosen_p"], QAOA_P_MAX))

    return Cell(cell_id, cli_run(argv), check)


def approx_ratio(expectation: float, table) -> float:
    """(E_max - <H>) / (E_max - E_min) over the Ising energies of every basis state."""
    e_max, e_min = float(table.max()), float(table.min())
    return (e_max - expectation) / (e_max - e_min) if e_max > e_min else 1.0


# ---------------------------------------------------------------- workloads


def exact_cells(seed: int, tmp: Path) -> list[Cell]:
    cells = [
        solve_cell(f"dp-{dist}-n{n}", n, dist, derive_seed(seed, f"dp-{dist}-{n}"), "dp")
        for dist, n in (("abu", 13), ("mu", 13), ("f", 13))
    ]
    cells.append(
        solve_cell("enum-laplace-n10", 10, "laplace", derive_seed(seed, "enum"), "enum", reference="dp-equal")
    )
    return cells + export_cells(seed, tmp)


def bench_cell(dist: str, lo: int, hi: int, tmp: Path) -> Cell:
    """The README grid ``csgp bench --methods dp,sa`` for one family and agents lo..hi.

    The grid runs as short commands, one per family and agent range, so
    that the reference loop timed before each cell samples the host's
    speed often.
    """
    span = f"{lo}..{hi}" if lo != hi else str(lo)
    out_dir = tmp / f"bench-{dist}-{span}"
    agents = range(lo, hi + 1)
    argv = ["bench", "--methods", "dp,sa", "--agents", span, "--dists", dist, "--out", str(out_dir)]

    def check(out: CliOutput, outcome: Outcome) -> None:
        _exit_ok(out)
        lines = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
        header, rows = lines[0], [line.split(",") for line in lines[1:]]
        if len(rows) != 2 * len(agents):
            raise CheckFailed(f"bench summary has {len(rows)} rows, expected {2 * len(agents)}")
        outcome.add_bytes(f"bench-{dist}-{span}/summary.csv", "\n".join([header] + [",".join(r[:-1]) for r in rows]).encode())
        optimum = {}
        for method, _, n, game_seed, *_ in rows:
            key = (int(n), int(game_seed))
            if key not in optimum:
                game = _game(key[0], dist, key[1])
                optimum[key] = (game, solve_dp(game).best_value)
            game, opt = optimum[key]
            name = f"{method}_{dist}_n{n}_seed{game_seed}.json"
            doc = json.loads((out_dir / name).read_text(encoding="utf-8"))
            outcome.add_doc(f"bench-{dist}-{span}/{name}", doc)
            check_report(doc, game, outcome, opt, heuristic=(method == "sa"))

    return Cell(f"bench-dp-sa-{dist}-n{span}", cli_run(argv), check)


# The README grid runs at n = 2..6 on the first three families and at n = 7
# (about a second per family) on abn only, so that a pass stays near three
# seconds.  SA misses the optimum on all three families at seed 0, at n = 7 too.
BENCH_GRID = tuple((dist, 2, 6) for dist in DISTRIBUTION_KINDS[:3]) + (("abn", 7, 7),)


def anneal_cells(seed: int, tmp: Path) -> list[Cell]:
    cells = [bench_cell(dist, lo, hi, tmp) for dist, lo, hi in BENCH_GRID]
    for dist in ("normal", "wrc"):
        cells.append(
            solve_cell(
                f"sa-{dist}-n9", 9, dist, derive_seed(seed, f"sa-{dist}"), "sa",
                extra=["--sweeps", "50", "--restarts", "2"], reference="dp",
            )
        )
    return cells


# (dist, n, game seed): four families at n = 2 with seed 0 (all stop at p = 1),
# sva_beta n = 2 seed 1 (needs p = 2) and abn n = 3 seed 0 (stops at p = 1).
QAOA_SCAN_PANEL = tuple((dist, 2, 0) for dist in DISTRIBUTION_KINDS[:4]) + (("sva_beta", 2, 1), ("abn", 3, 0))
# A 15-qubit state (n = 4): one start and at most 8 simplex iterations
# (about 16 evaluations), so the cell stays near a third of a second.
QAOA_OPTIMIZE_GAME = ("normal", 4, 1)
QAOA_OPTIMIZE_CONFIG = OptimizerConfig(starts=1, maxiter=8)


def optimize_cell() -> Cell:
    dist, n, game_seed = QAOA_OPTIMIZE_GAME
    game = _game(n, dist, game_seed)
    bilp = build_bilp(game)
    ising = qubo_to_ising(build_qubo(bilp))

    def run():
        return qaoa.optimize(ising, 1, QAOA_OPTIMIZE_CONFIG)

    def check(result, outcome: Outcome) -> None:
        outcome.add_doc("optimize-m15", result.to_json(include_timing=False))
        if sum(result.counts.values()) != result.metadata["shots"]:
            raise CheckFailed("sample counts do not add up to the shot count")
        table = energy_table(ising)
        if not table.min() - 1e-9 <= result.expectation <= table.max() + 1e-9:
            raise CheckFailed(f"expectation {result.expectation!r} outside the energy range")
        opt = solve_dp(game).best_value
        decoded = decode_solution(bilp, result.best_bitstring)
        value = cs_value(game, decoded.cs) if decoded.feasible else None
        if value is not None and value > opt and not close(value, opt):
            raise CheckFailed(f"QAOA value {value!r} beats the exact optimum {opt!r}")
        outcome.heuristic.append((value, opt))
        outcome.approx_ratios.append(approx_ratio(result.expectation, table))

    return Cell(f"optimize-{dist}-n{n}-p1", run, check)


def qaoa_cells(seed: int, tmp: Path) -> list[Cell]:
    cells = [
        solve_cell(
            f"qaoa-{dist}-n{n}-seed{game_seed}", n, dist, game_seed, "qaoa",
            extra=["--p-max", str(QAOA_P_MAX)], reference="dp",
        )
        for dist, n, game_seed in QAOA_SCAN_PANEL
    ]
    cells.append(optimize_cell())
    return cells


def export_cells(seed: int, tmp: Path) -> list[Cell]:
    """``csgp export`` to QUBO text and Ising JSON, reading the text back, and ``csgp analyze``."""
    n, dist = 8, "normal"
    game_seed = derive_seed(seed, "export")
    source = ["--agents", str(n), "--dist", dist, "--seed", str(game_seed)]
    text_path, ising_path, csv_path = tmp / "game.qubo.txt", tmp / "game.ising.json", tmp / "complexity.csv"
    lo, hi = ANALYZE_AGENTS

    def expected_qubo():
        return build_qubo(build_bilp(_game(n, dist, game_seed)))

    def check_file(path: Path, outcome: Outcome) -> None:
        outcome.add_bytes(path.name, path.read_bytes())

    def check_text(out: CliOutput, outcome: Outcome) -> None:
        _exit_ok(out)
        check_file(text_path, outcome)

    def check_ising(out: CliOutput, outcome: Outcome) -> None:
        _exit_ok(out)
        check_file(ising_path, outcome)
        doc = json.loads(ising_path.read_text(encoding="utf-8"))
        ising = qubo_to_ising(expected_qubo())
        if (doc["m"], tuple(doc["h"]), doc["offset"]) != (ising.m, ising.h, ising.offset):
            raise CheckFailed("exported Ising fields m/h/offset differ from qubo_to_ising")
        if {(i, j): v for i, j, v in doc["J"]} != ising.J:
            raise CheckFailed("exported Ising couplings differ from qubo_to_ising")

    def read_back():
        return cli.read_qubo_text(text_path)

    def check_read(qubo, outcome: Outcome) -> None:
        ref = expected_qubo()
        for name in ("m", "diag", "offdiag", "c", "lam"):
            if getattr(qubo, name) != getattr(ref, name):
                raise CheckFailed(f"read_qubo_text field {name} differs from build_qubo")

    def check_analyze(out: CliOutput, outcome: Outcome) -> None:
        _exit_ok(out)
        check_file(csv_path, outcome)
        rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
        expected = (hi - lo + 1) * ANALYZE_LAYER_COUNTS * len(S_MODES)
        if len(rows) != expected:
            raise CheckFailed(f"analyze CSV has {len(rows)} rows, expected {expected}")

    return [
        Cell("export-qubo-text", cli_run(["export", *source, "--format", "qubo-text", "--out", str(text_path)]), check_text),
        Cell("export-ising-json", cli_run(["export", *source, "--format", "ising-json", "--out", str(ising_path)]), check_ising),
        Cell("read-qubo-text", read_back, check_read),
        Cell("analyze", cli_run(["analyze", "--agents", f"{lo}..{hi}", "--s-mode", "all", "--out", str(csv_path)]), check_analyze),
    ]


BUILDERS = {"exact": exact_cells, "anneal": anneal_cells, "qaoa": qaoa_cells}


def export_bytes(tmp: Path) -> int:
    """Size of the files the export cells wrote (0 for workloads without them)."""
    return sum((tmp / name).stat().st_size for name in ("game.qubo.txt", "game.ising.json") if (tmp / name).exists())
