"""Whether length-decay-contract's correctness bar can fail.

From the root of a source checkout:

    python3 bench/calibrate_checks.py --seeds 1-16

The bar compares the terminal rate mean with lambda = -1/4 of the
workload's potential flow. For each seed this runs the workload's job at
its benchmark shape in this process, with the workload's own model and
with two d=2 models of another exponent: half potential, half solenoidal
(lambda = 0) and solenoidal (lambda = +1/4). It prints z = (mean + 1/4)
/ SE and whether the workload's check passes. A bar that can tell a
wrong exponent passes every seed of the first model and fails every seed
of the other two. About 8 s per job on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS, CheckFailed

_ATOM = {"atoms": [[1.0, 1.0]], "density": []}
MODELS = {
    "potential (lambda -1/4)": None,   # the workload's own model
    "mixed (lambda 0)": {"d": 2, "mu0": 0.0, "mu1": 0.5, "mu2": 0.5,
                         "m_p": _ATOM, "m_s": _ATOM},
    "solenoidal (lambda +1/4)": {"d": 2, "mu0": 0.0, "mu1": 0.0, "mu2": 1.0,
                                 "m_s": _ATOM},
}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-8"),
                        help="benchmark seeds, as N or N-M")
    parser.add_argument("--src", default="src", help="directory holding ibflow")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import ibflow.cli as cli

    workload = WORKLOADS["length-decay-contract"]
    out = Path(".bench_work") / "calibrate"
    status = 0
    for label, model in MODELS.items():
        passed = 0
        for seed in args.seeds:
            cfg = workload.config(seed, False)
            if model is not None:
                cfg["model"] = model
            parsed = cli.parse_config(json.dumps(cfg), command=workload.command)
            cli.run_command(workload.command, parsed, jobs=1, out_dir=out,
                            quiet=True)
            ag = json.loads((out / "length-decay_report.json").read_text())[
                "aggregate"]
            z = (ag["terminal_rate_mean"] + 0.25) / ag["terminal_rate_se"]
            try:
                workload.check(out)
                verdict = "pass"
                passed += 1
            except CheckFailed:
                verdict = "FAIL"
            print(f"{label:26s} seed {seed:3d}  mean {ag['terminal_rate_mean']:+.4f}"
                  f"  se {ag['terminal_rate_se']:.4f}  z {z:+.2f}  {verdict}",
                  flush=True)
        wanted = len(args.seeds) if model is None else 0
        print(f"{label}: {passed} of {len(args.seeds)} seeds pass "
              f"(want {wanted})", flush=True)
        status |= passed != wanted
    return status


if __name__ == "__main__":
    sys.exit(main())
