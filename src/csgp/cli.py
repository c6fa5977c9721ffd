"""Command-line front end: generate, solve, export, analyze, bench.

Every run is reproducible: identical flags and seed give byte-identical
JSON and CSV outputs, except wall-clock measurements, which are
quarantined under a "timing" key.  Module errors exit with a one-line
JSON object on stderr and a stable exit code: 2 for configuration and
input problems, 3 for resource-limit guards, 4 for infeasible instances.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

from . import analysis
from .errors import (
    ConfigError,
    CsgError,
    InfeasibleError,
    InvalidStructureError,
    ParseError,
    ResourceLimitError,
    check_int,
)
from .game import (
    DISTRIBUTION_KINDS, GENERATE_MAX_AGENTS, DistributionSpec, generate_game, load_game, save_game
)
from .solvers import METHODS, SA_MAX_VARIABLES, check_request, check_size, solve, solve_dp
from .transform import (
    BilpInstance, QuboInstance, build_bilp, ising_fields, penalty_diagonal, penalty_terms,
    upper_couplings,
)

def _parse_agent_spec(text: str) -> range:
    """Parse `N` or `A..B` (inclusive) into a range of agent counts, never a list."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise ConfigError(f"empty agent range {text!r}")
            return range(lo, hi + 1)
        n = int(text)
        return range(n, n + 1)
    except ValueError:
        raise ConfigError(f"cannot parse agent count {text!r}; expected N or A..B") from None


def _single_agent_count(text: str) -> int:
    counts = _parse_agent_spec(text)
    if counts[0] != counts[-1]:
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


def _parse_exclude(text: str | None) -> frozenset[int]:
    return frozenset(_parse_int_list(text, "exclusion")) if text else frozenset()


def _write_json(doc: dict, *streams) -> None:
    """json.dumps(doc, indent=2) plus a newline to each stream, encoded once and
    streamed without holding the whole text.  The encoder's chunks are joined 2^14
    at a time, because sys.stdout writes through: json.dump's one write per chunk
    made printing a long SA trace about 1.5x slower."""
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    batches = iter(lambda: "".join(itertools.islice(chunks, 1 << 14)), "")
    for text in itertools.chain(batches, ["\n"]):
        for fh in streams:
            fh.write(text)


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


def _coupling_rows(counts, head, tails, sep):
    """The text of each row i's couplings to j > i, for the rows that have one: items
    head(i) + f"{j}{tails[count]}" in ascending j, joined by sep.  Every (j, count)
    end is formatted once, so a row is one join of strings already made."""
    ends = [f"{j}{tail}" for j in range(len(counts)) for tail in tails]
    for i, j, k in upper_couplings(counts):
        if len(j):
            start = head(i)
            yield start + (sep + start).join(map(ends.__getitem__, (j * len(tails) + k).tolist()))


def _json_list(fh, chunks) -> None:
    """A list valued member of an indent-2 JSON object, laid out as json.dumps(doc,
    indent=2) lays it out, from nonempty chunks of items already joined at that depth."""
    sep = "[\n    "
    for chunk in chunks:
        fh.write(sep + chunk)
        sep = ",\n    "
    fh.write("[]" if sep == "[\n    " else "\n  ]")


def _json_triples(counts, texts):
    """Chunks of [i, j, texts[count]] items, one per nonzero count with i < j, row-major."""
    tails = [f",\n      {text}\n    ]" for text in texts]
    return _coupling_rows(counts, "[\n      {},\n      ".format, tails, ",\n    ")


# json writes a finite float as float.__repr__ does (a numpy float64 too).
_float_text = float.__repr__


def write_qubo_json(bilp: BilpInstance, lam: float | None, fh) -> None:
    """{m, diag, offdiag: [[i, j, value] for i < j], c, lambda} as json.dumps(doc,
    indent=2) plus a newline would write it, streamed from the coupling counts."""
    lam, diag, counts, levels = penalty_terms(bilp, lam)
    fh.write(f'{{\n  "m": {len(diag)},\n  "diag": ')
    _json_list(fh, [",\n    ".join(map(_float_text, diag))])
    fh.write(',\n  "offdiag": ')
    _json_list(fh, _json_triples(counts, map(_float_text, levels)))
    fh.write(f',\n  "c": {_float_text(lam * bilp.n)},\n  "lambda": {_float_text(lam)}\n}}\n')


def write_ising_json(bilp: BilpInstance, lam: float | None, fh) -> None:
    """{m, h, J: [[i, j, value] for i < j], offset} of qubo_to_ising(build_qubo(bilp,
    lam)) as json.dumps(doc, indent=2) plus a newline would write it, streamed from
    the coupling counts."""
    lam, diag, counts, levels = penalty_terms(bilp, lam)
    quarters = levels / 4.0
    h, offset = ising_fields(diag, counts, quarters)
    fh.write(f'{{\n  "m": {len(h)},\n  "h": ')
    _json_list(fh, [",\n    ".join(map(_float_text, h))])
    fh.write(',\n  "J": ')
    _json_list(fh, _json_triples(counts, map(_float_text, quarters)))
    fh.write(f',\n  "offset": {_float_text(offset)}\n}}\n')


def write_qubo_text(bilp: BilpInstance, lam: float | None, fh) -> None:
    """Line-oriented annealer-style dump; structured comments carry c and lambda."""
    lam, diag, counts, levels = penalty_terms(bilp, lam)
    fh.write(f"# c {lam * bilp.n:.17g}\n# lambda {lam:.17g}\nn {len(diag)}\n")
    fh.writelines([f"{i} {i} {d:.17g}\n" for i, d in enumerate(diag)])
    fh.writelines(_coupling_rows(counts, "{} ".format, [f" {level:.17g}\n" for level in levels], ""))


def read_qubo_text(path) -> QuboInstance:
    """Inverse of write_qubo_text; tolerates reordered lines and extra comments.

    A non-finite value, c and lambda included, is a ParseError naming the
    path and line."""
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
                    if not math.isfinite(value):
                        raise ParseError(f"{path}:{lineno}: non-finite {fields[0]} value {fields[1]!r}")
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
            if not math.isfinite(value):
                raise ParseError(f"{path}:{lineno}: non-finite coefficient {fields[2]!r}")
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


def _export_formats() -> dict:
    """csgp export --format: each format's default file suffix and writer.  Built
    per call, so a wrapper bound over a writer's module name is what runs."""
    return {
        "qubo-json": (".qubo.json", write_qubo_json),
        "qubo-text": (".qubo.txt", write_qubo_text),
        "ising-json": (".ising.json", write_ising_json),
    }


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


def _cmd_solve(args) -> int:
    game = _load_or_generate(args)
    report = solve(
        game, args.method, lam=args.lam, exclude=_parse_exclude(args.exclude), seed=args.seed,
        sweeps=args.sweeps, restarts=args.restarts, temp_hi=args.temp_hi, temp_lo=args.temp_lo,
        p=args.p, p_max=args.p_max, shots=args.shots,
    )
    if args.qaoa_out and args.method == "qaoa":
        doc = {
            "chosen_p": report.metadata["chosen_p"],
            "results": [r.to_json() for r in report.qaoa_results],
        }
        with open(args.qaoa_out, "w", encoding="utf-8") as fh:
            _write_json(doc, fh)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_json(report.to_json(), fh, sys.stdout)
    else:
        _write_json(report.to_json(), sys.stdout)
    return 0


def _cmd_export(args) -> int:
    game = _load_or_generate(args)
    # The largest QUBO read_qubo_text accepts, checked before the coupling build.
    bilp = build_bilp(game, check_size(game.n, _parse_exclude(args.exclude), SA_MAX_VARIABLES, "export"))
    lam, _ = penalty_diagonal(bilp, args.lam)  # a bad penalty is refused before the file opens
    if args.game is not None:
        base = Path(args.game).stem
    else:
        base = f"game_{game.dist_label}_n{game.n}_seed{args.seed}"
    suffix, write = _export_formats()[args.format]
    out = args.out or base + suffix
    with open(out, "w", encoding="utf-8") as fh:
        write(bilp, lam, fh)
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
    dists = _parse_dists(args.dists)
    for dist in dists:
        if dist not in DISTRIBUTION_KINDS:
            raise ConfigError(
                f"unknown distribution {dist!r}; expected one of {', '.join(DISTRIBUTION_KINDS)}"
            )
    counts = _parse_agent_spec(args.agents)
    check_int(counts[0], "agent counts", 1)
    if counts[-1] > GENERATE_MAX_AGENTS:
        raise ResourceLimitError(
            f"bench generates games of at most {GENERATE_MAX_AGENTS} agents, got {counts[-1]}"
        )
    check_int(args.seeds, "--seeds", 1)
    for method in methods:  # every cell's refusals, at the largest n, before any cell
        check_request(
            method, counts[-1], lam=args.lam, exclude=(), seed=0, p=None, p_max=args.p_max,
            shots=args.shots,
        )

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
                        report = solve(
                            game, method, lam=args.lam, seed=seed, p_max=args.p_max, shots=args.shots
                        )
                        key = (dist, n, seed)
                        if key not in references:
                            references[key] = solve_dp(game).best_value
                        reference = references[key]
                        matches = (
                            report.feasible
                            and math.isclose(report.best_value, reference, rel_tol=1e-9, abs_tol=1e-9)
                        )
                        cell_path = out_dir / f"{method}_{dist}_n{n}_seed{seed}.json"
                        with open(cell_path, "w", encoding="utf-8") as fh:
                            _write_json(report.to_json(), fh)
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
    export.add_argument("--format", required=True, choices=_export_formats())
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
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader left (`| head`): as Python's signal docs advise, silence the exit flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
