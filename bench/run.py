"""ibflow benchmark: CLI-shaped jobs timed end to end, or traced per layer.

From the root of a source checkout (ibflow is imported from ./src):

    python3 bench/run.py --workload squeeze-tilted --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke          # tiny shapes, all workloads, self-test

Each job runs in a fresh interpreter at --jobs 1 (closed loop, one
client), and jobs repeat until --seconds have passed. With --trace 0
the result holds the medians of the end-to-end metrics; with --trace 1
traced and untraced jobs alternate, and the result holds the per-layer
metrics of the traced ones plus the tracing overhead. The last line of
standard output is the result as one JSON object; the lines before it
and a record under .bench_work/ carry the environment, the digest of
the workload's CSV and every job's raw numbers. README.md defines the
metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_METRICS, LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = Path(".bench_work")
SRC = Path("src")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MiB"}
OVERHEAD = "bench.trace_overhead_s"
MIN_JOBS = 3
# stop starting jobs past this, so a run ends well inside 180 s
DEADLINE_S = 150.0


def _git_commit() -> str | None:
    if not Path(".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run_job(name: str, run_dir: Path, trace: bool, timeout: float) -> dict:
    """One job in a fresh interpreter; returns its parsed result, or a
    record of how it failed. Outputs go to run_dir/out, replacing the
    previous job's."""
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "job.py"), "--src", str(SRC),
           "--config", str(run_dir / "config.json"), "--out", str(out),
           "--workload", name]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": trace, "ok": False, "ran": False,
                "check": f"job exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"traced": trace, "ok": False, "ran": False,
                "check": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(traced=trace, ran=True)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> list[dict]:
    """Repeat the workload's job until `seconds` have passed; in trace
    mode traced and untraced jobs alternate, starting traced."""
    run_dir = WORK / f"{name}-seed{seed}{'-smoke' if smoke else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(
        json.dumps(WORKLOADS[name].config(seed, smoke), indent=2))

    min_jobs = MIN_JOBS if trace or not smoke else 1
    jobs: list[dict] = []
    took: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        traced = trace and len(jobs) % 2 == 0
        jobs.append(_run_job(name, run_dir, traced,
                             timeout=max(5.0, 170.0 - elapsed)))
        took.append(time.perf_counter() - start - elapsed)
        # start another job only if it is expected to end within the window
        next_end = time.perf_counter() - start + statistics.median(took)
        if len(jobs) >= min_jobs and next_end > seconds:
            break
        if next_end > DEADLINE_S:
            break
    return jobs


def _median(jobs: list[dict], key: str) -> float:
    return statistics.median(j[key] for j in jobs)


def summarize(name: str, seed: int, jobs: list[dict], trace: bool) -> dict:
    """Medians, failure count and the cross-job consistency checks."""
    ran = [j for j in jobs if j["ran"]]
    plain = [j for j in ran if not j["traced"]]
    traced = [j for j in ran if j["traced"]]
    failed = sum(1 for j in jobs if not j["ok"])
    problems = [f"job {k}: {j['check']}" for k, j in enumerate(jobs)
                if not j["ok"]]

    digests = sorted({j["digest"] for j in ran})
    if len(digests) > 1:
        problems.append(f"same config and seed gave {len(digests)} different "
                        f"CSV digests")
    for key in EXACT_METRICS:
        values = {j["layers"][key] for j in traced}
        if len(values) > 1:
            problems.append(f"{key} differs between traced jobs: "
                            f"{sorted(values)}")

    metrics: dict[str, dict] = {}
    if trace:
        for key, unit in LAYER_UNITS.items():
            # exact metrics agree across traced jobs (checked above)
            value = (traced[0]["layers"][key] if key in EXACT_METRICS else
                     statistics.median(j["layers"][key] for j in traced))
            metrics[key] = {"value": value, "unit": unit}
        metrics[OVERHEAD] = {
            "value": _median(traced, "run_s") - _median(plain, "run_s"),
            "unit": "s"}
    else:
        for key, unit in END_TO_END_UNITS.items():
            metrics[key] = {"value": _median(plain, key), "unit": unit}
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": not problems,
        "attempted": len(jobs),
        "traced_jobs": len(traced),
        "failed": failed,
        "fail_frac": failed / len(jobs),
        "problems": problems,
        "digest": digests[0] if len(digests) == 1 else digests,
        "check": ran[0]["check"] if ran else None,
        "metrics": metrics,
        "environment": dict(ran[0]["environment"], commit=_git_commit()),
        "missing_targets": traced[0]["missing_targets"] if traced else [],
        "jobs": [{k: v for k, v in j.items() if k != "environment"}
                 for j in jobs],
    }


def print_summary(s: dict) -> None:
    mode = "traced" if s["trace"] else "untraced"
    print(f"# {s['workload']} seed {s['seed']} ({mode}): {s['attempted']} jobs, "
          f"{s['failed']} failed")
    for key, m in s["metrics"].items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {s['fail_frac']:.6g} ratio")
    runs = [j["run_s"] for j in s["jobs"] if j["ran"]]
    if runs:
        print(f"  run_s over {len(runs)} jobs: min {min(runs):.4f} "
              f"median {statistics.median(runs):.4f} max {max(runs):.4f}")
    print(f"  check: {s['check']}")
    print(f"  digest of {WORKLOADS[s['workload']].csv_name}: sha256 {s['digest']}")
    if s["missing_targets"]:
        print(f"  not traced (no such function): {s['missing_targets']}")
    if s["trace"] and not any("traced jobs" in p for p in s["problems"]):
        print(f"  exact metrics identical across {s['traced_jobs']} traced jobs")
    for problem in s["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  environment: {json.dumps(s['environment'], sort_keys=True)}")


def _usable(jobs: list[dict], trace: bool) -> bool:
    """Enough jobs ran to compute the metrics: any untraced one, and in
    trace mode a traced one as well."""
    kinds = {j["traced"] for j in jobs if j["ran"]}
    return False in kinds and (True in kinds or not trace)


def _smoke(seed: int) -> int:
    """Tiny shapes of every workload: one untraced job, then two traced
    jobs whose counts must agree exactly. Prints every metric."""
    status = 0
    for name in WORKLOADS:
        for trace in (False, True):
            jobs = run_workload(name, seed, 0.0, trace, smoke=True)
            if not _usable(jobs, trace):
                print(f"# {name}: no usable jobs: "
                      f"{[j['check'] for j in jobs]}")
                status = 1
                continue
            s = summarize(name, seed, jobs, trace)
            print_summary(s)
            status |= not s["correct"]
    print("self-test", "FAILED" if status else "passed")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test at tiny shapes on every workload")
    args = parser.parse_args(argv)
    if not (SRC / "ibflow" / "cli.py").is_file():
        print("error: run from the root of an ibflow checkout "
              "(src/ibflow/cli.py not found)", file=sys.stderr)
        return 2
    if args.smoke:
        return _smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    jobs = run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), smoke=False)
    if not _usable(jobs, bool(args.trace)):
        for j in jobs:
            print(f"error: {j['check']}", file=sys.stderr)
        return 1
    s = summarize(args.workload, args.seed, jobs, bool(args.trace))
    record = WORK / (f"BENCH_{args.workload}_seed{args.seed}"
                     f"{'_trace' if args.trace else ''}.json")
    record.write_text(json.dumps(s, indent=2) + "\n")
    print_summary(s)
    print(f"  record: {record}")
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": s["metrics"]}))
    return 0 if s["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
