"""The benchmark's workloads: a CLI config built from a seed, and the
check that a finished job's outputs must pass.

Each workload is shaped after one acceptance criterion, shortened so a
fresh-process job takes a few seconds on a 2-core host. Why each one is
here (which layer does most of its work) is written up in README.md.
The smoke shapes are tiny versions of the same jobs for the self-test;
they are not measured.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# d = 2, pure potential flow, one atom at 1: lambda = -1/4
_POTENTIAL_ATOM = {"d": 2, "mu0": 0.0, "mu1": 1.0, "mu2": 0.0,
                   "m_p": {"atoms": [[1.0, 1.0]], "density": []}}
_LAMBDA_POTENTIAL_ATOM = -0.25

# d = 3, all three components, atoms plus a density piece
_MIXED_D3 = {"d": 3, "mu0": 0.1, "mu1": 0.6, "mu2": 0.3,
             "m_p": {"atoms": [[1.3, 1.0]], "density": [[0.5, 2.5, 0.4]]},
             "m_s": {"atoms": [[2.0, 1.0]], "density": []}}


class CheckFailed(Exception):
    """A job's outputs missed its workload's correctness bar."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int, bool], dict]   # (seed, smoke) -> config document
    check: Callable[[Path], str]          # output dir -> detail, or raise

    @property
    def csv_name(self) -> str:
        return f"{self.command}.csv"


def _program_seed(seed: int) -> int:
    """The config seed for a benchmark seed. Path i draws from the stream
    seeded config_seed XOR i, so small benchmark seeds used as they are
    would all share one set of streams, only permuted among the paths."""
    return random.Random(seed).randrange(2 ** 31)


def _report(out_dir: Path, command: str) -> dict:
    return json.loads((out_dir / f"{command}_report.json").read_text())


def _squeeze_config(seed: int, smoke: bool) -> dict:
    steps, paths = (20, 8) if smoke else (30, 64)
    dt = 2e-3
    model = dict(_POTENTIAL_ATOM,
                 drift={"kind": "radial_rkhs", "rho": 1.0, "scale": 64.0})
    return {"model": model, "command": "squeeze",
            "params": {"R": 1.0, "delta": 0.1, "T1": steps * dt / 2,
                       "T2": steps * dt, "dt": dt, "n_paths": paths,
                       "n_boundary": 64},
            "seed": _program_seed(seed)}


def _squeeze_check(out_dir: Path) -> str:
    freq = _report(out_dir, "squeeze")["aggregate"]["success_frequency"]
    if not freq >= 0.5:
        raise CheckFailed(f"success frequency {freq} < 0.5")
    return f"success frequency {freq:.3f} >= 0.5"


def _lyapunov_config(seed: int, smoke: bool) -> dict:
    return {"model": dict(_POTENTIAL_ATOM), "command": "lyapunov",
            "params": {"T": 0.5 if smoke else 2.0, "dt": 1e-3,
                       "n_pairs": 16 if smoke else 128},
            "seed": _program_seed(seed)}


def _lyapunov_check(out_dir: Path) -> str:
    ag = _report(out_dir, "lyapunov")["aggregate"]
    est, se, lam = ag["estimate"], ag["standard_error"], ag["analytic_lambda"]
    if not abs(est - lam) < 4.0 * se:
        raise CheckFailed(f"estimate {est} is not within 4 SE ({se}) of {lam}")
    return f"estimate {est:+.4f} within 4 SE ({se:.4f}) of {lam:+.2f}"


def _length_decay_config(seed: int, smoke: bool) -> dict:
    steps, paths = (50, 8) if smoke else (800, 64)
    dt = 4e-3
    return {"model": dict(_POTENTIAL_ATOM), "command": "length-decay",
            "params": {"T": steps * dt, "dt": dt, "n_paths": paths,
                       "curve": {"kind": "circle", "radius": 0.005,
                                 "n_vertices": 24}},
            "seed": _program_seed(seed)}


def _length_decay_check(out_dir: Path) -> str:
    ag = _report(out_dir, "length-decay")["aggregate"]
    rates = ag["terminal_rates"]
    if not all(math.isfinite(r) for r in rates):
        raise CheckFailed("a terminal rate is not finite")
    mean, se = ag["terminal_rate_mean"], ag["terminal_rate_se"]
    lam = _LAMBDA_POTENTIAL_ATOM
    if not abs(mean - lam) < 4.0 * se:
        raise CheckFailed(f"terminal rate mean {mean} is not within 4 SE "
                          f"({se}) of {lam}")
    return f"terminal rate mean {mean:+.4f} within 4 SE ({se:.4f}) of {lam:+.2f}"


def _identity_config(seed: int, smoke: bool) -> dict:
    rng = random.Random(seed)
    rhos = [rng.uniform(0.4, 2.5) for _ in range(1 if smoke else 2)]
    return {"model": dict(_MIXED_D3), "command": "verify-identity",
            "params": {"rhos": rhos, "resolution": 48},
            "seed": _program_seed(seed)}


def _identity_check(out_dir: Path) -> str:
    gap = _report(out_dir, "verify-identity")["aggregate"]["max_rel_gap"]
    if not gap < 1e-4:
        raise CheckFailed(f"max relative gap {gap} >= 1e-4")
    return f"max relative gap {gap:.2e} < 1e-4"


WORKLOADS = {w.name: w for w in (
    Workload("squeeze-tilted", "squeeze", _squeeze_config, _squeeze_check),
    Workload("lyapunov-pairs", "lyapunov", _lyapunov_config, _lyapunov_check),
    Workload("length-decay-contract", "length-decay", _length_decay_config,
             _length_decay_check),
    Workload("identity-sweep", "verify-identity", _identity_config,
             _identity_check),
)}
