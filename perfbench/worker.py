"""One pass over a workload's cells, in a fresh process.

Run by run.py, one process per pass:

    python3 perfbench/worker.py --workload exact --seed 0 --trace 0 --seconds 15 --tmp DIR --result FILE

The cells run one at a time (a closed loop with a single client).  The
pass is repeated while another repeat fits in ``--seconds`` (at least
once), and the reference loop of calibration.py is timed right before
every cell.  Every repeat does identical work.  ``wall_s`` is the sum over
cells of the fastest repeat.  ``calibrated_wall_s`` is the median over
repeats of the pass time, each rescaled by the mean of the reference
times taken during that repeat; the first repeat is a warm-up and is left
out when there are more.  Only the cells' calls are timed; the checks, the digest
and the per-layer aggregation run on the last repeat's outputs afterwards,
with tracing switched off.  Peak resident memory is read before the
checks, so it belongs to the passes alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
from calibration import calibrated, reference_loop  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BUILDERS, Outcome, close, export_bytes, gap_pct  # noqa: E402


def run_cells(cells, tracer: Tracer | None, references: list[float]) -> list[tuple]:
    """Call every cell in order; returns (cell, output, error, seconds) per cell.

    The reference loop is timed before each cell and appended to ``references``.
    """
    done = []
    for cell in cells:
        references.append(reference_loop())
        if tracer is not None:
            tracer.cell = cell.id
        start = time.perf_counter()
        try:
            output, error = cell.run(), None
        except Exception:  # a raising cell is a failed cell; the pass goes on
            output, error = None, traceback.format_exc()
        done.append((cell, output, error, time.perf_counter() - start))
    if tracer is not None:
        tracer.cell = None
    return done


def quality(outcome: Outcome, attempted: int, failed: int) -> dict:
    """The answer-quality metrics, each with the count it is taken over."""
    values = [v for v, _ in outcome.heuristic]
    gaps = [gap_pct(v, opt) for v, opt in outcome.heuristic]
    hits = sum(1 for v, opt in outcome.heuristic if v is not None and close(v, opt))
    mean = statistics.fmean
    return {
        "error_rate": failed / attempted,
        "cells": attempted,
        "hit_rate": hits / len(values) if values else None,
        "heuristic_results": len(values),
        "gap_pct_mean": mean(gaps) if gaps else None,
        "gap_pct_max": max(gaps) if gaps else None,
        "qaoa_approx_ratio": mean(outcome.approx_ratios) if outcome.approx_ratios else None,
        "qaoa_results": len(outcome.approx_ratios),
        "qaoa_depth_mean": mean(outcome.depths) if outcome.depths else None,
        "scans": len(outcome.depths),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True, help="directory for the cells' output files")
    parser.add_argument(
        "--seconds", type=float, default=0.0, help="repeat the pass while another one fits in this window"
    )
    parser.add_argument("--result", required=True, help="where to write the pass result as JSON")
    parser.add_argument("--spans", default=None, help="where to write the traced spans as JSON lines")
    args = parser.parse_args()

    tmp = Path(args.tmp)
    cells = BUILDERS[args.workload](args.seed, tmp)
    tracer = Tracer() if args.trace else None
    restore = tracer.install(layers.targets(), layers.bound_modules()) if tracer else None
    repeats: list[list] = []  # per repeat, (cell, output, error, seconds) per cell
    references: list[list[float]] = []  # per repeat, the reference loop's time before each cell
    window_start = time.perf_counter()
    try:
        while True:
            if repeats:
                repeats[-1] = [(cell, None, error, seconds) for cell, _, error, seconds in repeats[-1]]
            gc.collect()
            started = time.perf_counter()
            references.append([])
            repeats.append(run_cells(cells, tracer, references[-1]))
            now = time.perf_counter()
            if now - window_start + (now - started) > args.seconds:
                break
    finally:
        if restore is not None:
            restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcome = Outcome()
    cell_rows = []
    failed = sum(1 for done in repeats[:-1] for _, _, error, _ in done if error is not None)
    for index, (cell, output, error, _) in enumerate(repeats[-1]):
        if error is None:
            try:
                cell.check(output, outcome)
            except Exception as exc:  # any check that cannot complete fails the cell
                error = f"check failed: {type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            sys.stderr.write(f"cell {cell.id} failed: {error}\n")
        seconds = min(done[index][3] for done in repeats)
        cell_rows.append({"id": cell.id, "seconds": seconds, "error": error})
    attempted = len(cells) * len(repeats)
    measured = slice(1, None) if len(repeats) > 1 else slice(None)
    pass_times = [sum(seconds for *_, seconds in done) for done in repeats[measured]]
    calibrated_passes = [calibrated(t, refs) for t, refs in zip(pass_times, references[measured])]

    result = {
        "wall_s": sum(row["seconds"] for row in cell_rows),
        "median_pass_s": statistics.median(pass_times),
        "calibrated_wall_s": statistics.median(calibrated_passes),
        "reference_ms": 1000.0 * statistics.fmean(t for refs in references[measured] for t in refs),
        "peak_rss_mb": peak_rss_mb,
        "repeats": len(repeats),
        "cells": cell_rows,
        "attempted": attempted,
        "failed": failed,
        "quality": quality(outcome, attempted, failed),
        "digest": outcome.digest.hexdigest(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer.spans, export_bytes(tmp))
        if args.spans:
            tracer.write_jsonl(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
