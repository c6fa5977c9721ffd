#!/usr/bin/env python3
"""Sweep the variational solver over small generated games.

For each value distribution, generate one game, scan layer depths until
the sampled optimum matches the exhaustive QUBO reference, and report the
depth needed plus agreement with the dynamic-programming optimum.

Usage:
    python3 scripts/qaoa_small_sweep.py --agents 2 --p-max 5 --out results/qaoa_n2.json
"""

import argparse
import json
from pathlib import Path

from csgp.game import DISTRIBUTION_KINDS, DistributionSpec, generate_game
from csgp.solvers import solve, solve_dp


def sweep_one(kind: str, n: int, seed: int, p_max: int, shots: int) -> dict:
    game = generate_game(n, DistributionSpec(kind=kind), seed)
    report = solve(game, "qaoa", seed=seed, p_max=p_max, shots=shots)
    md = report.metadata
    value = report.best_value
    dp = solve_dp(game)
    return {
        "dist": kind,
        "n": n,
        "seed": seed,
        "chosen_p": md["chosen_p"],
        "winner_p": md["p"],
        "expectation": md["expectation"],
        "best_bitstring": md["best_x"],
        "feasible": report.feasible,
        "value": value,
        "dp_value": dp.best_value,
        "matches_dp": report.feasible and abs(value - dp.best_value) <= 1e-9 * max(1.0, abs(dp.best_value)),
        "expectation_by_p": [r.expectation for r in report.qaoa_results],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=int, default=2)
    parser.add_argument("--p-max", type=int, default=5)
    parser.add_argument("--shots", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dists", default="all", help="'all' or comma-separated names")
    parser.add_argument("--out", default=None, help="JSON output path (default stdout)")
    args = parser.parse_args()

    kinds = DISTRIBUTION_KINDS if args.dists == "all" else args.dists.split(",")
    rows = []
    for kind in kinds:
        row = sweep_one(kind, args.agents, args.seed, args.p_max, args.shots)
        status = "ok" if row["matches_dp"] else "MISS"
        print(f"{kind:>10}  p={row['winner_p']}  value={row['value']}  [{status}]")
        rows.append(row)

    matched = sum(r["matches_dp"] for r in rows)
    summary = {
        "agents": args.agents,
        "p_max": args.p_max,
        "shots": args.shots,
        "seed": args.seed,
        "matched": matched,
        "total": len(rows),
        "instances": rows,
    }
    print(f"matched dynamic programming on {matched}/{len(rows)} instances")
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
