"""One benchmark job: a single CLI-shaped ibflow run in this process.

Run by run.py in a fresh interpreter per job, as a user's ``ibflow``
invocation would be:

    python3 bench/job.py --src SRC --config CONFIG --out DIR --workload NAME [--trace]

It times ``import ibflow.cli`` plus ``parse_config`` (setup) and
``run_command`` at ``--jobs 1`` (run), checks the outputs against the
workload's bar, and prints one JSON line. Nothing is imported ahead of
the setup clock except the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """What the measured process ran on; recorded, never set."""
    import numpy as np
    import scipy

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding ibflow")
    parser.add_argument("--config", required=True, help="config JSON path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true",
                        help="record per-layer spans and counters")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    text = Path(args.config).read_text()

    t0 = time.perf_counter()
    import ibflow.cli as cli
    t_import = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"ibflow imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, CheckFailed
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        cfg = cli.parse_config(text, command=workload.command)
        setup_s = t_import + time.perf_counter() - t0

        cpu0 = time.process_time()
        t0 = time.perf_counter()
        cli.run_command(workload.command, cfg, jobs=1, out_dir=args.out,
                        quiet=True)
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = Path(args.out)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(
            (out / workload.csv_name).read_bytes()).hexdigest(),
        "environment": _environment(),
    }
    try:
        result["check"] = workload.check(out)
        result["ok"] = True
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        result["check"] = f"{type(exc).__name__}: {exc}"
        result["ok"] = False
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing_targets"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
