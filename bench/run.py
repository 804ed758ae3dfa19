"""Benchmark of the fractalmark pipeline.

    python3 bench/run.py --workload report-2024|panel|fif-export|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout: it imports ``src/fractalmark``
and needs no install. Each pass runs in a fresh single-threaded child
process (``child.py``) that sets up its inputs, times the workload's
``fractalmark.cli.main`` calls in process and checks the outputs. Passes
run one at a time (closed loop, one client) while a round as slow as the
slowest so far still ends within ``--seconds``; every timing is the median
over the passes.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate; the result carries the
per-layer metrics of the traced passes and ``trace.overhead_s``, the
traced minus the untraced median wall time. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details (quartiles, pass counts,
``failed_ratio``, counts, inputs, environment, bundle digest).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("report-2024", "panel", "fif-export")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "fif.generate_s": "s",
    "fif.points_generated": "count",
    "fif.kept_ratio": "ratio",
    "boxdim.normalize_s": "s",
    "boxdim.estimate_s": "s",
    "boxdim.cells_kmax": "count",
    "boxdim.cells_per_point": "ratio",
    "fif.fixed_point_s": "s",
    "fif.fixed_point_iters": "count",
    "svgplot.render_s": "s",
    "svgplot.bytes": "bytes",
    "market_data.parse_s": "s",
    "market_data.rows": "count",
    "market_data.returns_s": "s",
    "event_study.panel_s": "s",
    "event_study.capm_s": "s",
    "event_study.securities": "count",
    "csvio.write_s": "s",
    "csvio.read_s": "s",
    "csvio.rows_written": "count",
    "csvio.rows_read": "count",
    "csvio.bytes_written": "bytes",
    "report.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
# Counts that must repeat exactly across passes and between traced and untraced passes.
REPEATED_COUNTS = (
    "fif.points_generated", "boxdim.cells_kmax", "market_data.rows",
    "csvio.rows_written", "csvio.rows_read",
)
PASS_TIMEOUT_S = 150
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_pass(workload: str, seed: int, traced: bool, index: int) -> dict:
    """One child process; returns its JSON result plus any failures seen here."""
    work = WORK / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--work", str(work),
    ]
    env = dict(os.environ, **SINGLE_THREADED)
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            command + ["--spawned-at", repr(spawned)], capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"pass timed out after {PASS_TIMEOUT_S} s"], "traced": traced}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"failures": [f"no result from pass: {proc.stderr[-1000:]}"]}
    if proc.returncode != 0:
        result["failures"] = result.get("failures", []) + [f"pass exited {proc.returncode}"]
    result["traced"] = traced
    return result


def check_counts(passes: list[dict]) -> None:
    """Mark a pass failed when a count differs from the first pass's."""
    first_counts = next((p["counts"] for p in passes if p.get("counts")), None)
    first_layers = next((p["layers"] for p in passes if p.get("layers")), None)
    for p in passes:
        if p.get("failures"):
            continue
        if p["counts"] != first_counts:
            p["failures"].append(f"output counts {p['counts']} != first pass {first_counts}")
        if p["layers"] is None:
            continue
        for name in REPEATED_COUNTS:
            if p["layers"][name] != first_layers[name]:
                p["failures"].append(f"traced {name} {p['layers'][name]} != {first_layers[name]}")
            if name in p["counts"] and p["layers"][name] != p["counts"][name]:
                p["failures"].append(
                    f"traced {name} {p['layers'][name]} != {p['counts'][name]} read from files"
                )


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict] | None:
    passes: list[dict] = []
    start = time.monotonic()
    slowest_round = 0.0
    while True:
        round_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            passes.append(run_pass(workload, seed, traced, len(passes)))
        now = time.monotonic()
        slowest_round = max(slowest_round, now - round_start)
        if now - start + slowest_round > seconds:
            break
    check_counts(passes)

    timed = [p for p in passes if "wall_s" in p]
    untraced = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    if not untraced or (trace and not traced):
        for p in passes:
            print(f"{workload}: pass failed: {p['failures']}", file=sys.stderr)
        return None
    failed = sum(1 for p in passes if p["failures"])
    end_to_end = {name: summarize([p[name] for p in untraced]) for name in END_TO_END}

    if trace:
        # times vary, so take their median; counts and ratios repeat exactly
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            if unit == "s" else traced[0]["layers"][name]
            for name, unit in PER_LAYER.items()
            if name != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - end_to_end["wall_s"]["median"]
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            name: {"value": end_to_end[name]["median"], "unit": unit}
            for name, unit in END_TO_END.items()
        }

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "failed_ratio": failed / len(passes),
        "end_to_end": end_to_end,
        "counts": timed[0].get("counts", {}),
        "untraced_functions": timed[0].get("untraced", []),
        "inputs": timed[0].get("inputs", {}),
        "info": timed[0].get("info", {}),
        "env": {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), **timed[0]["env"]},
        "failures": [f for p in passes for f in p["failures"]],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def print_report(detail: dict, result: dict) -> None:
    name = detail["workload"]
    for metric, stats in detail["end_to_end"].items():
        print(
            f"{name} {metric} {stats['median']:.6g} {END_TO_END[metric]} "
            f"(median of {stats['n']}; q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g})"
        )
    print(f"{name} failed_ratio {detail['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} passes)")
    if detail["trace"]:
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    for failure in detail["failures"]:
        print(f"{name} FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fractalmark" / "__init__.py").is_file():
        print(f"error: no fractalmark sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once, so that no pass's set-up time includes compilation
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if outcome is None:
            status = 1
            continue
        print_report(*outcome)
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it, or it was never made
        pass
    return status


if __name__ == "__main__":
    sys.exit(main())
