"""Which csgp functions the traced pass wraps, and the per-layer metrics.

The layers are the six modules of ``src/csgp``.  Every traced function
``<module>.<fn>`` reports ``.s`` (self time summed over the pass),
``.calls`` and ``.p50_ms`` (median inclusive time per call).  Work counters
are read at the same boundary, from the call's inputs or its report's
``metadata``; each is marked below as ``metadata`` (copied from a report),
``input`` (read off an argument) or ``computed`` (a formula over those).
Every ratio names its base.  README.md lists the end-to-end metric and
workload each layer metric should move.
"""

from __future__ import annotations

import importlib

from tracing import function_stats, ratio

MODULES = ("game", "transform", "solvers", "qaoa", "analysis", "cli")


def _sa_counts(args, kwargs, report):
    md = report.metadata
    energies = md["restart_energies"]
    lowest = min(energies)
    return {
        "flip_attempts": md["restarts"] * md["sweeps"] * md["m"],
        "restarts": len(energies),
        "winning_restarts": sum(1 for e in energies if e == lowest),
    }


def _simulate_counts(args, kwargs, state):
    circuit = args[0] if args else kwargs["circuit"]
    gates = len(circuit.gates)
    return {"gates": gates, "bytes_computed": gates * (1 << circuit.qubits) * 16 * 2}


# span name -> count hook (None: time and calls only)
TRACED = {
    "game.generate_game": lambda a, k, game: {"coalitions": (1 << game.n) - 1},
    "transform.build_bilp": None,
    "transform.build_qubo": lambda a, k, qubo: {"couplings": qubo.interaction_count},
    "transform.qubo_to_ising": None,
    "transform.qubo_energy": None,
    "transform.decode_solution": None,
    "solvers.solve_dp": lambda a, k, r: {"splits": r.metadata["splits"]},
    "solvers.solve_enum": lambda a, k, r: {"partitions": r.metadata["partitions_examined"]},
    "solvers.solve_qubo_sa": _sa_counts,
    "solvers.solve_qubo_exhaustive": lambda a, k, r: {"assignments": r.metadata["assignments_examined"]},
    "qaoa.simulate": _simulate_counts,
    "qaoa.build_circuit": None,
    "qaoa.energy_table": None,
    "qaoa.sample": None,
    "qaoa.optimize": lambda a, k, r: {"evals": r.metadata["evals"], "converged": int(r.metadata["converged"])},
    "qaoa.scan_layers": lambda a, k, r: {"layers": len(r[0]), "matched": int(r[1] is not None)},
    "analysis.complexity_table": None,
    "cli.main": None,
    "cli.write_qubo_text": None,
    "cli.write_ising_json": None,
    "cli.read_qubo_text": None,
}

# name -> (unit, how it is obtained).  Function timings are added below.
COUNTERS = {
    "game.coalitions": ("count", "input: 2^n - 1 coalition values per generated game"),
    "transform.build_qubo.couplings": ("count", "metadata: QuboInstance.interaction_count"),
    "solvers.solve_dp.splits": ("count", "metadata: splits"),
    "solvers.solve_dp.ns_per_split": ("ns", "computed: solve_dp self time / splits"),
    "solvers.solve_enum.partitions": ("count", "metadata: partitions_examined"),
    "solvers.solve_qubo_sa.flip_attempts": ("count", "computed: restarts * sweeps * m"),
    "solvers.solve_qubo_sa.ns_per_attempt": ("ns", "computed: solve_qubo_sa self time / flip_attempts"),
    "solvers.solve_qubo_sa.best_restart_share": (
        "ratio",
        "computed: restarts ending at the winning energy / restarts (metadata restart_energies)",
    ),
    "solvers.solve_qubo_exhaustive.assignments": ("count", "metadata: assignments_examined"),
    "qaoa.simulate.gates": ("count", "input: gates in the simulated circuit"),
    "qaoa.simulate.ns_per_gate": ("ns", "computed: simulate self time / gates"),
    "qaoa.simulate.bytes_computed": ("B", "computed: gates * 2^m * 16 B * 2 (read + write), not measured"),
    "qaoa.optimize.evals": ("count", "metadata: evals"),
    "qaoa.optimize.converged_share": ("ratio", "computed: optimize calls with converged=true / optimize calls"),
    "qaoa.scan_layers.layers": ("count", "metadata: layer counts optimized per scan"),
    "qaoa.scan_layers.matched_share": ("ratio", "computed: scans that sampled their target / scans"),
    "cli.export_bytes": ("B", "input: sizes of the files csgp export wrote"),
    "trace.wall_s": ("s", "traced pass wall time"),
    "trace.overhead_s": ("s", "computed: traced wall_s - untraced wall_s of the same cells"),
    "trace.spans": ("count", "spans recorded in the traced pass"),
}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, how it is obtained), in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.s"] = ("s", "measured: self time summed over the pass")
        units[f"{name}.calls"] = ("count", "measured: calls")
        units[f"{name}.p50_ms"] = ("ms", "measured: median inclusive time per call")
    units.update(COUNTERS)
    return units


def targets() -> dict:
    """Span name -> (original function, count hook), for Tracer.install."""
    found = {}
    for name, hook in TRACED.items():
        module, fn = name.split(".")
        found[name] = (getattr(importlib.import_module(f"csgp.{module}"), fn), hook)
    return found


def bound_modules() -> list:
    """Every csgp module whose attributes may name a traced function."""
    return [importlib.import_module("csgp")] + [importlib.import_module(f"csgp.{m}") for m in MODULES]


def layer_metrics(spans, export_bytes: int) -> dict[str, float]:
    """Every per-layer metric except trace.wall_s and trace.overhead_s, which need both passes."""
    stats = function_stats(spans, TRACED)
    out = {}
    for name in TRACED:
        entry = stats[name]
        out[f"{name}.s"] = entry["s"]
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.p50_ms"] = entry["p50_ms"]

    def count(name, key):
        return stats[name]["counts"].get(key, 0)

    dp, sa, sim = stats["solvers.solve_dp"], stats["solvers.solve_qubo_sa"], stats["qaoa.simulate"]
    out.update(
        {
            "game.coalitions": count("game.generate_game", "coalitions"),
            "transform.build_qubo.couplings": count("transform.build_qubo", "couplings"),
            "solvers.solve_dp.splits": count("solvers.solve_dp", "splits"),
            "solvers.solve_dp.ns_per_split": ratio(dp["s"] * 1e9, count("solvers.solve_dp", "splits")),
            "solvers.solve_enum.partitions": count("solvers.solve_enum", "partitions"),
            "solvers.solve_qubo_sa.flip_attempts": count("solvers.solve_qubo_sa", "flip_attempts"),
            "solvers.solve_qubo_sa.ns_per_attempt": ratio(
                sa["s"] * 1e9, count("solvers.solve_qubo_sa", "flip_attempts")
            ),
            "solvers.solve_qubo_sa.best_restart_share": ratio(
                count("solvers.solve_qubo_sa", "winning_restarts"), count("solvers.solve_qubo_sa", "restarts")
            ),
            "solvers.solve_qubo_exhaustive.assignments": count("solvers.solve_qubo_exhaustive", "assignments"),
            "qaoa.simulate.gates": count("qaoa.simulate", "gates"),
            "qaoa.simulate.ns_per_gate": ratio(sim["s"] * 1e9, count("qaoa.simulate", "gates")),
            "qaoa.simulate.bytes_computed": count("qaoa.simulate", "bytes_computed"),
            "qaoa.optimize.evals": count("qaoa.optimize", "evals"),
            "qaoa.optimize.converged_share": ratio(
                count("qaoa.optimize", "converged"), stats["qaoa.optimize"]["calls"]
            ),
            "qaoa.scan_layers.layers": count("qaoa.scan_layers", "layers"),
            "qaoa.scan_layers.matched_share": ratio(
                count("qaoa.scan_layers", "matched"), stats["qaoa.scan_layers"]["calls"]
            ),
            "cli.export_bytes": export_bytes,
            "trace.spans": len(spans),
        }
    )
    return out
