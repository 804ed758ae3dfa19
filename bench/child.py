"""One pass of one workload, in a fresh process started by ``run.py``.

Set-up (interpreter start, imports, input generation and file writes) runs
first; then the workload's ``fractalmark.cli.main`` calls are timed in
process; then the outputs are checked. The pass reports one JSON object as
the last line of its standard output.

    python3 bench/child.py --workload NAME --seed N --trace 0|1 \
        --work DIR --spawned-at MONOTONIC_SECONDS
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import numpy as np

    from fractalmark import boxdim, cli, csvio, event_study, fif, market_data, report, svgplot
    from tracing import Tracer
    from workloads import WORKLOADS

    work = Path(args.work)
    workload = WORKLOADS[args.workload]()
    inputs = workload.setup(args.seed, work)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install([report, cli, fif, boxdim, market_data, event_study, csvio, svgplot])

    exit_codes = []
    captured = io.StringIO()
    setup_s = time.monotonic() - args.spawned_at
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        for argv in workload.argvs():
            with tracer.span("cli") if tracer is not None else contextlib.nullcontext():
                exit_codes.append(cli.main(argv))
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
    if any(exit_codes):
        failures, counts, info = [f"exit codes {exit_codes}: {captured.getvalue()[-500:]}"], {}, {}
    else:
        try:
            failures, counts, info = workload.check()
        except Exception:  # a malformed output fails the pass, it does not stop the run
            failures, counts, info = [traceback.format_exc(limit=3)], {}, {}

    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "failures": failures,
        "counts": counts,
        "layers": layers,
        "untraced": tracer.untraced if tracer is not None else [],
        "inputs": inputs,
        "info": info,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
