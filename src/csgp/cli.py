"""Command-line front end: generate, solve, export, analyze, bench.

Every run is reproducible: identical flags and seed give byte-identical
JSON and CSV outputs, except wall-clock measurements, which are
quarantined under a "timing" key.  Module errors exit with a one-line
JSON object on stderr and a stable exit code: 2 for configuration and
input problems, 3 for resource-limit guards, 4 for infeasible instances.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, qaoa
from .errors import (
    ConfigError,
    CsgError,
    InfeasibleError,
    InvalidStructureError,
    ParseError,
    ResourceLimitError,
)
from .game import DISTRIBUTION_KINDS, DistributionSpec, generate_game, load_game, save_game
from .solvers import (
    AnnealSchedule,
    BRUTE_MAX_VARIABLES,
    SA_MAX_VARIABLES,
    SolveReport,
    default_schedule,
    solve_dp,
    solve_enum,
    solve_qubo_exhaustive,
    solve_qubo_sa,
)
from .transform import (
    BilpInstance,
    QuboInstance,
    build_bilp,
    build_qubo,
    decode_solution,
    qubo_to_ising,
)

QUBO_METHODS = ("qubo-brute", "sa", "qaoa")
METHODS = ("enum", "dp") + QUBO_METHODS
EXPORT_FORMATS = ("qubo-json", "qubo-text", "ising-json")
# Largest QUBO each QUBO method accepts, checked before the O(m^2) coupling build.
VARIABLE_LIMITS = {
    "qubo-brute": BRUTE_MAX_VARIABLES,
    "sa": SA_MAX_VARIABLES,
    "qaoa": qaoa.SIMULATOR_MAX_QUBITS,
}


def _parse_agent_spec(text: str) -> list[int]:
    """Parse `N` or `A..B` (inclusive) into a list of agent counts."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise ConfigError(f"empty agent range {text!r}")
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise ConfigError(f"cannot parse agent count {text!r}; expected N or A..B") from None


def _single_agent_count(text: str) -> int:
    counts = _parse_agent_spec(text)
    if len(counts) != 1:
        raise ConfigError(f"this command takes a single agent count, got range {text!r}")
    return counts[0]


def _parse_dists(text: str) -> list[str]:
    if text == "all":
        return list(DISTRIBUTION_KINDS)
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse {what} list {text!r}") from None


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _load_or_generate(args) -> tuple:
    """Game from the positional file, or freshly sampled from the flags."""
    if args.game is not None:
        if args.agents is not None:
            raise ConfigError("give either a game file or --agents, not both")
        return load_game(args.game)
    if args.agents is None:
        raise ConfigError("no game file given; need --agents and --dist to generate one")
    if args.dist is None:
        raise ConfigError("generating a game requires --dist")
    n = _single_agent_count(args.agents)
    spec = DistributionSpec(kind=args.dist)
    return generate_game(n, spec, args.seed)


def write_qubo_json(qubo: QuboInstance, fh) -> None:
    doc = {
        "m": qubo.m,
        "diag": list(qubo.diag),
        "offdiag": [[i, j, qubo.offdiag[(i, j)]] for (i, j) in sorted(qubo.offdiag)],
        "c": qubo.c,
        "lambda": qubo.lam,
    }
    fh.write(_dump_json(doc))


def write_ising_json(qubo: QuboInstance, fh) -> None:
    ising = qubo_to_ising(qubo)
    doc = {
        "m": ising.m,
        "h": list(ising.h),
        "J": [[i, j, ising.J[(i, j)]] for (i, j) in sorted(ising.J)],
        "offset": ising.offset,
    }
    fh.write(_dump_json(doc))


def write_qubo_text(qubo: QuboInstance, fh) -> None:
    """Line-oriented annealer-style dump; structured comments carry c and lambda."""
    fh.write(f"# c {qubo.c:.17g}\n")
    if qubo.lam is not None:
        fh.write(f"# lambda {qubo.lam:.17g}\n")
    fh.write(f"n {qubo.m}\n")
    for i, d in enumerate(qubo.diag):
        fh.write(f"{i} {i} {d:.17g}\n")
    for (i, j) in sorted(qubo.offdiag):
        fh.write(f"{i} {j} {qubo.offdiag[(i, j)]:.17g}\n")


def read_qubo_text(path) -> QuboInstance:
    """Inverse of write_qubo_text; tolerates reordered lines and extra comments."""
    m = None
    diag: list[float] = []
    offdiag: dict[tuple[int, int], float] = {}
    c = 0.0
    lam = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if len(fields) == 2 and fields[0] in ("c", "lambda"):
                    try:
                        value = float(fields[1])
                    except ValueError:
                        raise ParseError(f"{path}:{lineno}: bad {fields[0]} value {fields[1]!r}") from None
                    if fields[0] == "c":
                        c = value
                    else:
                        lam = value
                continue
            fields = line.split()
            if fields[0] == "n":
                if len(fields) != 2:
                    raise ParseError(f"{path}:{lineno}: malformed size line {line!r}")
                if m is not None:
                    raise ParseError(f"{path}:{lineno}: second `n <m>` line")
                try:
                    m = int(fields[1])
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad size {fields[1]!r}") from None
                if m < 1:
                    raise ParseError(f"{path}:{lineno}: size must be >= 1, got {m}")
                if m > SA_MAX_VARIABLES:
                    raise ResourceLimitError(
                        f"{path}:{lineno}: no solver accepts more than {SA_MAX_VARIABLES}"
                        f" variables, got {m}"
                    )
                diag = [0.0] * m
                continue
            if m is None:
                raise ParseError(f"{path}:{lineno}: coefficient line before the `n <m>` line")
            if len(fields) != 3:
                raise ParseError(f"{path}:{lineno}: expected `i j value`, got {line!r}")
            try:
                i, j = int(fields[0]), int(fields[1])
                value = float(fields[2])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: cannot parse {line!r}") from None
            if not (0 <= i < m and 0 <= j < m):
                raise ParseError(f"{path}:{lineno}: index out of range for m={m}")
            if i == j:
                diag[i] = value
            else:
                key = (i, j) if i < j else (j, i)
                if key in offdiag:
                    raise ParseError(f"{path}:{lineno}: duplicate coefficient for pair {key}")
                if value != 0.0:
                    offdiag[key] = value
    if m is None:
        raise ParseError(f"{path}: missing `n <m>` line")
    return QuboInstance(m=m, diag=tuple(diag), offdiag=offdiag, c=c, lam=lam)


def _cmd_gen(args) -> int:
    if args.agents is None:
        raise ConfigError("gen requires --agents")
    if args.dist is None:
        raise ConfigError("gen requires --dist")
    n = _single_agent_count(args.agents)
    game = generate_game(n, DistributionSpec(kind=args.dist), args.seed)
    out = args.out or f"game_{game.dist_label}_n{n}_seed{args.seed}.json"
    save_game(game, out)
    print(out)
    return 0


def _build_chain(game, args, method: str | None = None) -> tuple[BilpInstance, QuboInstance]:
    exclude = frozenset(_parse_int_list(args.exclude, "exclusion")) if args.exclude else frozenset()
    bilp = build_bilp(game, exclude)
    limit = VARIABLE_LIMITS.get(method)
    if limit is not None and bilp.num_variables > limit:
        raise ResourceLimitError(
            f"{method} is limited to {limit} QUBO variables, got {bilp.num_variables}"
        )
    qubo = build_qubo(bilp, args.lam)
    return bilp, qubo


def _solve_qaoa(game, args) -> SolveReport:
    start = time.perf_counter()
    bilp, qubo = _build_chain(game, args, "qaoa")
    ising = qubo_to_ising(qubo)

    target = None
    reference_value = None
    if qubo.m <= BRUTE_MAX_VARIABLES:
        reference = solve_qubo_exhaustive(bilp, qubo)
        target = reference.metadata["best_energy"]
        reference_value = reference.best_value

    if args.p is not None and args.p_max is not None:
        raise ConfigError("give either --p or --p-max, not both")
    shots = args.shots
    if args.p is not None:
        seed_p = int(np.random.SeedSequence([args.seed, args.p]).generate_state(1)[0])
        results = [qaoa.optimize(ising, args.p, seed=seed_p, shots=shots)]
        chosen = None
        if target is not None and math.isclose(
            results[0].metadata["best_sampled_qubo_energy"], target, rel_tol=1e-9, abs_tol=1e-9
        ):
            chosen = args.p
    else:
        p_max = args.p_max if args.p_max is not None else 12
        results, chosen = qaoa.scan_layers(
            ising, p_max=p_max, shots=shots, seed=args.seed, target_energy=target
        )

    winner = min(
        results, key=lambda r: (r.metadata["best_sampled_qubo_energy"], r.best_params.p)
    )
    decoded = decode_solution(bilp, winner.best_bitstring)
    if decoded.feasible:
        col_value = {col: v for col, v in zip(bilp.columns, bilp.values)}
        best_value = sum(col_value[b] for b in decoded.cs.blocks)
    else:
        best_value = None
    if args.qaoa_out:
        doc = {
            "chosen_p": chosen,
            "results": [r.to_json() for r in results],
        }
        Path(args.qaoa_out).write_text(_dump_json(doc), encoding="utf-8")
    elapsed = (time.perf_counter() - start) * 1e3
    return SolveReport(
        method="qaoa",
        best_cs=decoded.cs,
        best_value=best_value,
        feasible=decoded.feasible,
        metadata={
            "n": bilp.n,
            "m": qubo.m,
            "s": qubo.interaction_count,
            "lambda": qubo.lam,
            "p_values": [r.best_params.p for r in results],
            "chosen_p": chosen,
            "p": winner.best_params.p,
            "shots": shots,
            "seed": args.seed,
            "expectation": winner.expectation,
            "best_x": winner.best_bitstring,
            "best_energy": winner.metadata["best_sampled_qubo_energy"],
            "constant": qubo.c,
            "reference_value": reference_value,
        },
        timing={"wall_ms": elapsed},
    )


def _solve_sa(game, args) -> SolveReport:
    bilp, qubo = _build_chain(game, args, "sa")
    schedule = default_schedule(bilp, seed=args.seed)
    overrides = {}
    if args.sweeps is not None:
        overrides["sweeps"] = args.sweeps
    if args.restarts is not None:
        overrides["restarts"] = args.restarts
    if args.temp_hi is not None:
        overrides["temp_hi"] = args.temp_hi
    if args.temp_lo is not None:
        overrides["temp_lo"] = args.temp_lo
    if overrides:
        schedule = AnnealSchedule(
            sweeps=overrides.get("sweeps", schedule.sweeps),
            temp_hi=overrides.get("temp_hi", schedule.temp_hi),
            temp_lo=overrides.get("temp_lo", schedule.temp_lo),
            restarts=overrides.get("restarts", schedule.restarts),
            seed=args.seed,
        )
    return solve_qubo_sa(bilp, qubo, schedule)


def _run_method(method: str, game, args) -> SolveReport:
    if method in ("enum", "dp") and args.exclude:
        raise ConfigError("--exclude applies only to QUBO-based methods (qubo-brute, sa, qaoa)")
    if method == "enum":
        return solve_enum(game)
    if method == "dp":
        return solve_dp(game)
    if method == "qubo-brute":
        bilp, qubo = _build_chain(game, args, method)
        return solve_qubo_exhaustive(bilp, qubo)
    if method == "sa":
        return _solve_sa(game, args)
    if method == "qaoa":
        return _solve_qaoa(game, args)
    raise ConfigError(f"unknown method {method!r}")


def _cmd_solve(args) -> int:
    game = _load_or_generate(args)
    report = _run_method(args.method, game, args)
    text = _dump_json(report.to_json())
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _cmd_export(args) -> int:
    game = _load_or_generate(args)
    bilp, qubo = _build_chain(game, args)
    if args.game is not None:
        base = Path(args.game).stem
    else:
        base = f"game_{game.dist_label}_n{game.n}_seed{args.seed}"
    suffix = {"qubo-json": ".qubo.json", "qubo-text": ".qubo.txt", "ising-json": ".ising.json"}
    out = args.out or base + suffix[args.format]
    with open(out, "w", encoding="utf-8") as fh:
        if args.format == "qubo-json":
            write_qubo_json(qubo, fh)
        elif args.format == "qubo-text":
            write_qubo_text(qubo, fh)
        else:
            write_ising_json(qubo, fh)
    print(out)
    return 0


def _cmd_analyze(args) -> int:
    counts = _parse_agent_spec(args.agents)
    ps = _parse_int_list(args.p, "layer")
    modes = list(analysis.S_MODES) if args.s_mode == "all" else [args.s_mode]
    rows = []
    for mode in modes:
        rows.extend(analysis.complexity_table(counts, ps, mode))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            analysis.write_complexity_csv(rows, fh)
    else:
        analysis.write_complexity_csv(rows, sys.stdout)
    return 0


def _cmd_bench(args) -> int:
    methods = [part.strip() for part in args.methods.split(",") if part.strip()]
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    dists = _parse_dists(args.dists)
    for dist in dists:
        if dist not in DISTRIBUTION_KINDS:
            raise ConfigError(
                f"unknown distribution {dist!r}; expected one of {', '.join(DISTRIBUTION_KINDS)}"
            )
    counts = _parse_agent_spec(args.agents)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")

    out_dir = Path(args.out or "bench_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", encoding="utf-8") as summary:
        summary.write("method,dist,n,seed,best_value,feasible,reference_value,matches_reference,wall_ms\n")
        summary.flush()
        references: dict[tuple[str, int, int], float] = {}
        for method in methods:
            for dist in dists:
                for n in counts:
                    for seed in range(args.seeds):
                        game = generate_game(n, DistributionSpec(kind=dist), seed)
                        cell_args = argparse.Namespace(
                            lam=args.lam,
                            exclude=None,
                            seed=seed,
                            shots=args.shots,
                            p=None,
                            p_max=args.p_max,
                            qaoa_out=None,
                            sweeps=None,
                            restarts=None,
                            temp_hi=None,
                            temp_lo=None,
                        )
                        report = _run_method(method, game, cell_args)
                        key = (dist, n, seed)
                        if key not in references:
                            references[key] = solve_dp(game).best_value
                        reference = references[key]
                        matches = (
                            report.feasible
                            and math.isclose(report.best_value, reference, rel_tol=1e-9, abs_tol=1e-9)
                        )
                        cell_path = out_dir / f"{method}_{dist}_n{n}_seed{seed}.json"
                        cell_path.write_text(_dump_json(report.to_json()), encoding="utf-8")
                        best = "" if report.best_value is None else repr(report.best_value)
                        summary.write(
                            f"{method},{dist},{n},{seed},{best},{str(report.feasible).lower()},"
                            f"{reference!r},{str(matches).lower()},{report.timing['wall_ms']:.3f}\n"
                        )
                        summary.flush()
    print(str(summary_path))
    return 0


def _add_game_source(sub, positional: bool = True) -> None:
    if positional:
        sub.add_argument("game", nargs="?", default=None, help="game JSON file (omit to generate)")
    sub.add_argument("--agents", default=None, help="agent count N (or A..B where a range makes sense)")
    sub.add_argument("--dist", default=None, choices=DISTRIBUTION_KINDS, help="value distribution")
    sub.add_argument("--seed", type=int, default=0, help="seed for generation and solvers (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csgp",
        description="Coalition structure generation via BILP/QUBO/Ising transforms,"
        " classical solvers, and a gate-exact QAOA simulator.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="sample a game and write it as JSON")
    _add_game_source(gen, positional=False)
    gen.add_argument("--out", default=None, help="output path (default game_<dist>_n<N>_seed<S>.json)")
    gen.set_defaults(func=_cmd_gen)

    solve = subs.add_parser("solve", help="solve a game and print a report")
    _add_game_source(solve)
    solve.add_argument("--method", required=True, choices=METHODS)
    solve.add_argument("--lambda", dest="lam", type=float, default=None, help="penalty weight")
    solve.add_argument("--exclude", default=None, help="comma-separated coalition indices to drop")
    solve.add_argument("--p", type=int, default=None, help="fixed QAOA layer count")
    solve.add_argument("--p-max", type=int, default=None, help="QAOA layer scan bound (default 12)")
    solve.add_argument("--shots", type=int, default=1024, help="measurement shots (default 1024)")
    solve.add_argument("--qaoa-out", default=None, help="also write the full QAOA scan as JSON")
    solve.add_argument("--sweeps", type=int, default=None, help="SA sweeps override")
    solve.add_argument("--restarts", type=int, default=None, help="SA restarts override")
    solve.add_argument("--temp-hi", type=float, default=None, help="SA start temperature override")
    solve.add_argument("--temp-lo", type=float, default=None, help="SA end temperature override")
    solve.add_argument("--out", default=None, help="also write the report JSON to this path")
    solve.set_defaults(func=_cmd_solve)

    export = subs.add_parser("export", help="write QUBO/Ising instance files")
    _add_game_source(export)
    export.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    export.add_argument("--lambda", dest="lam", type=float, default=None, help="penalty weight")
    export.add_argument("--exclude", default=None, help="comma-separated coalition indices to drop")
    export.add_argument("--out", default=None, help="output path (default derived from the game)")
    export.set_defaults(func=_cmd_export)

    analyze = subs.add_parser("analyze", help="emit the gate-count complexity CSV")
    analyze.add_argument("--agents", default="2..20", help="agent counts N or A..B (default 2..20)")
    analyze.add_argument("--p", default="1,10,25,50", help="comma-separated layer counts")
    analyze.add_argument(
        "--s-mode", default="all", choices=analysis.S_MODES + ("all",), help="sparsity regime(s)"
    )
    analyze.add_argument("--out", default=None, help="CSV path (default stdout)")
    analyze.set_defaults(func=_cmd_analyze)

    bench = subs.add_parser("bench", help="run a methods x distributions x agents x seeds grid")
    bench.add_argument("--methods", required=True, help="comma-separated method list")
    bench.add_argument("--agents", required=True, help="agent counts N or A..B")
    bench.add_argument("--dists", default="all", help="'all' or comma-separated distribution names")
    bench.add_argument("--seeds", type=int, default=1, help="seeds 0..K-1 (default 1)")
    bench.add_argument("--lambda", dest="lam", type=float, default=None, help="penalty weight")
    bench.add_argument("--shots", type=int, default=1024, help="QAOA shots (default 1024)")
    bench.add_argument("--p-max", type=int, default=None, help="QAOA layer scan bound")
    bench.add_argument("--out", default=None, help="output directory (default bench_out)")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidStructureError) as exc:
        return _fail(exc, 2)
    except ResourceLimitError as exc:
        return _fail(exc, 3)
    except InfeasibleError as exc:
        return _fail(exc, 4)
    except CsgError as exc:  # future subclasses default to the config path
        return _fail(exc, 2)


def _fail(exc: Exception, code: int) -> int:
    sys.stderr.write(
        json.dumps({"error": str(exc), "kind": type(exc).__name__, "exit": code}) + "\n"
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
