"""csgp benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 32 --trace 0

Run from the root of a checkout (it needs ``src/csgp``).  ``--trace 0``
measures set-up time, then repeats an untraced pass over the workload's
cells in one fresh process while another repeat fits in ``--seconds`` (at
least once).  The gated times are calibrated to the host's speed (see
calibration.py and worker.py); the raw times are printed next to them.
``--trace 1`` runs one untraced and one traced pass over the same cells
and reports the per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object;
the lines before it are the human-readable report.  BLAS runs with one
thread.  Outputs go to a temporary directory under ``.perfbench_out/``,
which is removed after each pass; the spans of a traced pass are kept
there as ``spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from calibration import calibrated, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("exact", "anneal", "qaoa")
BLAS_THREADS = "1"
SETUP_RUNS = 7  # measured, after one discarded cold run
SETUP_REFERENCES = 5  # reference loops timed before each set-up process
RUN_LIMIT_S = 170  # every child is killed past this point, so a run ends within 180 s

SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import csgp.cli\n"
    "csgp.cli.build_parser()\n"
    "print(repr(time.perf_counter() - start))\n"
)

# name, unit, which direction is better.  GATED are the end-to-end metrics
# of BENCHMARK.json; the quality metrics are printed per workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("calibrated_wall_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("error_rate", "ratio", "lower"),
    ("hit_rate", "ratio", "higher"),
    ("gap_pct_mean", "%", "lower"),
    ("gap_pct_max", "%", "lower"),
    ("qaoa_approx_ratio", "ratio", "higher"),
    ("qaoa_depth_mean", "layers", "lower"),
)
GATED = ("calibrated_wall_s", "setup_s", "peak_rss_mb")
QUALITY_BASE = {
    "error_rate": "cells",
    "hit_rate": "heuristic_results",
    "gap_pct_mean": "heuristic_results",
    "gap_pct_max": "heuristic_results",
    "qaoa_approx_ratio": "qaoa_results",
    "qaoa_depth_mean": "scans",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts, and so the same timings, in every process
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run took longer than {RUN_LIMIT_S} s")
    return left


def measure_setup(env: dict, deadline: float) -> tuple[float, float]:
    """Median time for a fresh process to import csgp.cli and build its parser.

    Returns the median of the calibrated times (each rescaled by the
    reference loops timed just before its process) and the raw median.
    """
    times, scaled = [], []
    for _ in range(1 + SETUP_RUNS):
        references = [reference_loop() for _ in range(SETUP_REFERENCES)]
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=remaining(deadline),
        )
        if proc.returncode != 0:
            raise BenchError(f"importing csgp.cli failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(calibrated(times[-1], references))
    return statistics.median(scaled[1:]), statistics.median(times[1:])


def run_pass(workload: str, seed: int, trace: bool, seconds: float, env: dict, deadline: float) -> dict:
    """Repeated passes over the workload's cells in a fresh worker process."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        result_path = tmp / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace)), "--seconds", str(seconds), "--tmp", str(tmp),
            "--result", str(result_path),
        ]
        if trace:
            cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=remaining(deadline))
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "csgp").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "loop": "closed: one process, one cell at a time",
    }


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(workload: str, passes: list[dict], metrics: dict, trace: bool, env: dict) -> None:
    first = passes[0]
    print(f"workload {workload}: {len(first['cells'])} cells, untraced pass repeated {first['repeats']} time(s)")
    for row in first["cells"]:
        status = "ok" if row["error"] is None else "FAILED"
        print(f"  cell {row['id']:<28} {row['seconds']:9.3f} s (fastest repeat)  {status}")
    quality = first["quality"]
    notes = {
        "setup_s": f"calibrated median of {SETUP_RUNS} fresh processes after a discarded cold one",
        "setup_raw_s": "the same, not calibrated",
        "calibrated_wall_s": "median over repeats of the pass time, calibrated to the host's speed",
        "wall_s": "sum over cells of the fastest repeat, not calibrated",
        "median_pass_s": "median over repeats of the pass time, not calibrated",
        "peak_rss_mb": "peak resident memory of the worker process",
    }
    print("end-to-end (untraced pass):")
    for name, unit, better in END_TO_END:
        if name in QUALITY_BASE:
            value, note = quality[name], f"over {quality[QUALITY_BASE[name]]} {QUALITY_BASE[name]}"
        elif name in metrics:
            value, note = metrics[name], notes[name]
        else:
            continue
        print(f"  {name:<20} {fmt(value):>14} {unit:<7} {better} is better; {note}")
    for name in ("setup_raw_s", "median_pass_s"):
        if name in metrics:
            print(f"  {name:<20} {fmt(metrics[name]):>14} s       {notes[name]}")
    print(f"  reference loop: {first['reference_ms']:.4g} ms mean over the measured repeats")
    print(f"determinism digest sha256 {first['digest']}")
    if trace:
        print("per-layer (traced pass):")
        for name, (unit, how) in layers.metric_units().items():
            print(f"  {name:<44} {fmt(metrics[name]):>14} {unit:<6} {how}")
    print("environment " + json.dumps({**env, **first["versions"]}, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "csgp" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no csgp sources under {ROOT / 'src'}; run from a csgp checkout\n")
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            untraced = run_pass(args.workload, args.seed, False, 0.0, env, deadline)
            traced = run_pass(args.workload, args.seed, True, 0.0, env, deadline)
            passes = [untraced, traced]
            metrics = dict(traced["layers"])
            metrics["trace.wall_s"] = traced["wall_s"]
            metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            units = {name: unit for name, (unit, _) in layers.metric_units().items()}
        else:
            setup_s, setup_raw_s = measure_setup(env, deadline)
            passes = [run_pass(args.workload, args.seed, False, args.seconds, env, deadline)]
            metrics = {
                name: passes[0][name] for name in ("calibrated_wall_s", "wall_s", "median_pass_s", "peak_rss_mb")
            }
            metrics.update(setup_s=setup_s, setup_raw_s=setup_raw_s)
            units = {name: unit for name, unit, _ in END_TO_END if name in GATED}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    run_env = environment(args.seed)
    print_report(args.workload, passes, metrics, bool(args.trace), run_env)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    deterministic = len({p["digest"] for p in passes}) == 1
    if not deterministic:
        print("the traced pass produced different outputs from the untraced pass")
    summary = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
