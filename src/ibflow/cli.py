"""Configuration ingestion, experiment orchestration, result emission.

Configs are strict JSON documents with top-level keys model, command,
params, output, seed. Unknown fields anywhere are errors, physical
parameters have no defaults, and seeds are mandatory: the tool never
draws entropy from the environment, so a config plus a seed pins every
emitted byte. CSV cells use 17 significant digits and re-parse to the
exact written values.

Exit codes: 0 success, 2 for a config rejected while parsing, 3 for a
failure while running. The phase picks the code, not the exception type.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import reprlib
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from . import covariance, flow_engine, rkhs
from .covariance import IbfModel, ModelError
from .field_sampler import (RADIAL_SPAN, drift_custom_table, drift_linear,
                            drift_radial_rkhs)
from .flow_engine import ExperimentResult
from .spectral import MeasureError, SpectralMeasure

# the commands that apply model.drift; every other one rejects it
DRIFT_COMMANDS = ("squeeze", "expand")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Euler steps one sampling run may take: the step sizes and times are
# allocated before the first step, so a larger T/dt is refused while parsing
MAX_STEPS = 10 ** 7
# Tracer coordinates N d per path: a 64-path chunk's increment factor F
# reserves 64 (N d)^2 doubles, 128 MiB at this bound, so more is refused;
# F is held by columns and returned at the chunk's largest rank, so what
# is resident is rank x 64 x N d x 8 bytes, in 2 MiB huge pages once the
# reserve reaches 4 MiB
MAX_COORDS = 512
# Values a sampling run records: squeeze, expand and length-decay hold
# n_paths x snapshots of each series as arrays and then as CSV text,
# 120-160 bytes a value (peak RSS of d = 2 runs of 64 paths x 2001
# snapshots), so about 80 MiB at this bound; lyapunov records one rate per
# pair and track-control n_paths x (snapshots + len(cs)) deviations
MAX_SERIES = 2 ** 19
# covariance grid points: the quadrature of the per-component columns runs
# over covariance._QUAD_PAIRS (separation, node) pairs at a time, about
# 30 MiB whatever the measure, and the columns and CSV text take about
# 200 bytes a point, so a run at this bound peaks near 41 MiB (tracemalloc,
# d = 3, a measure of 97 nodes)
MAX_POINTS = 2 ** 16
# verify-identity t-rule nodes n (params.resolution): the rule is the
# eigen-decomposition of a dense n x n Jacobi matrix, about 0.2 s at this
# bound, and n = 64 already resolves rho * support_max <= 50 to about 1e-12
MAX_RULE_NODES = 2 ** 10
# verify-identity separations len(rhos) x resolution: the one quadrature
# pass over them holds about 65 bytes a separation besides its chunk of
# covariance._QUAD_PAIRS (separation, node) pairs, so a run at this bound
# peaks near 67 MiB (tracemalloc, d = 3 mixed model; 99 MiB at 2^20)
MAX_SEPARATIONS = 2 ** 19

# Failures a run reports (numeric breakdowns, invalid values met while
# computing, a run too large for memory, output that cannot be written);
# any other exception is a defect and keeps its traceback.
_RUNTIME_ERRORS = (ArithmeticError, ValueError, RuntimeError, MemoryError,
                   OSError)


class ConfigError(ValueError):
    """Config rejected; the message names the offending field."""


@dataclass
class RunConfig:
    command: str
    model: IbfModel
    drift: Callable | None
    params: dict
    output_dir: str
    seed: int
    echo: dict


# ---------------------------------------------------------------------------
# validation helpers

def _need(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return mapping[key]


def _no_extras(mapping: dict, allowed: set[str], path: str):
    extras = sorted(set(mapping) - allowed)
    if extras:
        raise ConfigError(f"{path}.{extras[0]}: unknown field (strict schema)")


def _as_number(value, path: str, *, minimum=None, maximum=None,
               exclusive_min=None, exclusive_max=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: must be a number, got {reprlib.repr(value)}")
    val = float(value)
    if not math.isfinite(val):
        raise ConfigError(f"{path}: must be finite")
    if exclusive_min is not None and not val > exclusive_min:
        raise ConfigError(f"{path}: must be > {exclusive_min}, got {value!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value!r}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value!r}")
    if exclusive_max is not None and not val < exclusive_max:
        raise ConfigError(f"{path}: must be < {exclusive_max}, got {value!r}")
    return val


def _as_numbers(value, path: str, *, distinct=False, **bounds) -> list[float]:
    """A non-empty list of numbers within bounds, checked in order; with
    distinct (track-control's cs), one equal to an earlier one is refused."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{path}: must be a non-empty list")
    out, seen = [], set()
    for i, v in enumerate(value):
        out.append(_as_number(v, f"{path}[{i}]", **bounds))
        if distinct and out[-1] in seen:
            raise ConfigError(f"{path}[{i}]: repeats c = {v!r}")
        seen.add(out[-1])
    return out


def _as_int(value, path: str, *, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"{path}: must be an integer, got {reprlib.repr(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value!r}")
    return int(value)


def _check_kernel_spans(model: IbfModel, spans: dict[str, float]) -> None:
    """The quadratures square the kernel argument z = s * node: refuse
    the field at path whose separations s reach spans[path] when that
    span times the largest node overflows squared."""
    top = max([float(covariance._nodes(m)[0].max())
               for m in (model.m_p, model.m_s) if m is not None], default=0.0)
    for path, span in spans.items():
        z = span * top
        if not math.isfinite(z * z):
            raise ConfigError(f"{path}: the kernel argument {span!r} x "
                              f"{top!r} (the largest node) overflows squared")


def _parse_measure(spec, path: str) -> SpectralMeasure | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be an object with atoms/density")
    _no_extras(spec, {"atoms", "density"}, path)
    atoms = spec.get("atoms", [])
    density = spec.get("density", [])
    for key, value in (("atoms", atoms), ("density", density)):
        if not isinstance(value, list):
            raise ConfigError(f"{path}.{key}: must be a list")
    for i, atom in enumerate(atoms):
        if not (isinstance(atom, (list, tuple)) and len(atom) == 2):
            raise ConfigError(f"{path}.atoms[{i}]: must be [location, weight]")
        _as_number(atom[0], f"{path}.atoms[{i}].location", exclusive_min=0.0)
        _as_number(atom[1], f"{path}.atoms[{i}].weight", minimum=0.0)
    for i, piece in enumerate(density):
        if not (isinstance(piece, (list, tuple)) and len(piece) == 3):
            raise ConfigError(f"{path}.density[{i}]: must be [lo, hi, height]")
        lo = _as_number(piece[0], f"{path}.density[{i}].lo", exclusive_min=0.0)
        hi = _as_number(piece[1], f"{path}.density[{i}].hi", exclusive_min=lo)
        _as_number(piece[2], f"{path}.density[{i}].height", minimum=0.0)
    try:
        return SpectralMeasure(atoms=tuple(map(tuple, atoms)),
                               density_pieces=tuple(map(tuple, density)))
    except MeasureError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_model(spec, command: str, path: str = "model"
                 ) -> tuple[IbfModel, Callable | None, dict]:
    """The model, its drift (None if none is given) and their echo."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be an object")
    _no_extras(spec, {"d", "mu0", "mu1", "mu2", "m_p", "m_s", "drift",
                      "allow_trivial"}, path)
    d = _as_int(_need(spec, "d", path), f"{path}.d",
                minimum=covariance.MIN_DIM, maximum=covariance.MAX_DIM)
    mu0 = _as_number(_need(spec, "mu0", path), f"{path}.mu0", minimum=0.0)
    mu1 = _as_number(_need(spec, "mu1", path), f"{path}.mu1", minimum=0.0)
    mu2 = _as_number(_need(spec, "mu2", path), f"{path}.mu2", minimum=0.0)
    if abs(mu0 + mu1 + mu2 - 1.0) > 1e-12:
        raise ConfigError(f"{path}: mu0+mu1+mu2 must equal 1")
    m_p = _parse_measure(spec.get("m_p"), f"{path}.m_p")
    m_s = _parse_measure(spec.get("m_s"), f"{path}.m_s")
    allow_trivial = spec.get("allow_trivial", False)
    if not isinstance(allow_trivial, bool):
        raise ConfigError(f"{path}.allow_trivial: must be a boolean")
    try:
        model = covariance.make_model(d, mu0, mu1, mu2, m_p=m_p, m_s=m_s,
                                      allow_trivial=allow_trivial)
    except (ModelError, MeasureError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    drift = None
    echo = _model_config(model)
    if spec.get("drift") is not None:
        if command not in DRIFT_COMMANDS:
            raise ConfigError(
                f"{path}.drift: {command} applies no drift (only "
                f"{' and '.join(DRIFT_COMMANDS)} do); remove the field")
        drift, echo["drift"] = drift_from_config(spec["drift"], model,
                                                 f"{path}.drift")
    return model, drift, echo


_DRIFT_FIELDS = {"none": set(), "linear": {"matrix"},
                 "radial_rkhs": {"rho", "scale"},
                 "custom_table": {"axes", "values"}}


def _numeric_array(value, path: str, ndim: int) -> np.ndarray:
    """An ndim-dimensional rectangular array from nested lists of numbers."""
    def numbers(node, where, level):
        if level == ndim:
            return _as_number(node, where)
        if not isinstance(node, list):
            raise ConfigError(f"{where}: must be a list")
        return [numbers(v, f"{where}[{i}]", level + 1)
                for i, v in enumerate(node)]

    nested = numbers(value, path, 0)  # a ConfigError here names the entry
    try:
        return np.array(nested, dtype=float)
    except ValueError:
        raise ConfigError(f"{path}: must be a rectangular array") from None


def drift_from_config(spec, model: IbfModel, path: str = "model.drift"
                      ) -> tuple[Callable | None, dict]:
    """The drift a config's model.drift describes (None for kind none),
    checked field by field, and its echo: the same fields in config form."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be an object")
    kind = spec.get("kind")
    if not (isinstance(kind, str) and kind in _DRIFT_FIELDS):
        raise ConfigError(f"{path}.kind: must be one of {sorted(_DRIFT_FIELDS)}")
    _no_extras(spec, {"kind"} | _DRIFT_FIELDS[kind], path)
    d = model.d
    echo: dict = {"kind": kind}
    drift = None
    try:
        if kind == "linear":
            matrix = _parse_vectors(_need(spec, "matrix", path),
                                    f"{path}.matrix", d)
            if matrix.shape[0] != d:
                raise ConfigError(f"{path}.matrix: must be {d} x {d}")
            echo["matrix"] = matrix.tolist()
            drift = drift_linear(matrix)
        elif kind == "radial_rkhs":
            rho = _as_number(_need(spec, "rho", path), f"{path}.rho",
                             exclusive_min=0.0)
            _check_kernel_spans(model, {f"{path}.rho": RADIAL_SPAN * rho})
            scale = _as_number(spec.get("scale", 1.0), f"{path}.scale")
            drift = drift_radial_rkhs(model, rho, scale=scale)
            echo.update(rho=rho, scale=scale)
        elif kind == "custom_table":
            axes = _need(spec, "axes", path)
            if not (isinstance(axes, list) and len(axes) == d):
                raise ConfigError(f"{path}.axes: must be a list of {d} axes")
            echo["axes"] = [_numeric_array(a, f"{path}.axes[{k}]", 1).tolist()
                            for k, a in enumerate(axes)]
            echo["values"] = _numeric_array(_need(spec, "values", path),
                                            f"{path}.values", d + 1).tolist()
            drift = drift_custom_table(echo["axes"], echo["values"])
    except ModelError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return drift, echo


def _parse_vectors(value, path: str, d: int) -> np.ndarray:
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{path}: must be a non-empty list of {d}-vectors")
    if len(value) > MAX_COORDS // d:
        raise ConfigError(f"{path}: must hold <= {MAX_COORDS // d} vectors")
    out = []
    for i, vec in enumerate(value):
        if not (isinstance(vec, (list, tuple)) and len(vec) == d):
            raise ConfigError(f"{path}[{i}]: must be a vector of length {d}")
        out.append([_as_number(v, f"{path}[{i}][{k}]")
                    for k, v in enumerate(vec)])
    return np.asarray(out, dtype=float)


def _snapshots(span: float, dt: float, stride: int) -> int:
    """Snapshots an observer sees over span: the start, every stride-th
    Euler step and the last one."""
    return 1 + -(-flow_engine.step_count(span, dt) // stride)


def _as_step(value, path: str, span: float) -> float:
    """params.dt: in (0, span], and at most MAX_STEPS steps over span."""
    dt = _as_number(value, path, exclusive_min=0.0, maximum=span)
    if span / dt > MAX_STEPS:
        raise ConfigError(f"{path}: {span!r}/{dt!r} asks for more than "
                          f"{MAX_STEPS} steps")
    return dt


def _as_curve(value, path: str, d: int) -> tuple[np.ndarray, bool]:
    """params.curve as its vertices and whether it is closed: a circle in
    the first two axes, or the points given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object")
    kind = value.get("kind")
    if kind == "circle":
        _no_extras(value, {"kind", "radius", "n_vertices", "center"}, path)
        radius = _as_number(_need(value, "radius", path), f"{path}.radius",
                            exclusive_min=0.0)
        n_vertices = _as_int(_need(value, "n_vertices", path),
                             f"{path}.n_vertices", minimum=3,
                             maximum=MAX_COORDS // d)
        center = _parse_vectors([value.get("center", [0.0] * d)],
                                f"{path}.center", d)[0]
        ring = np.zeros((n_vertices, d))
        ring[:, :2] = flow_engine.boundary_shell(2, 1.0, n_vertices)
        positions, closed = center + radius * ring, True
    elif kind == "points":
        _no_extras(value, {"kind", "positions", "closed"}, path)
        positions = _parse_vectors(_need(value, "positions", path),
                                   f"{path}.positions", d)
        closed = value.get("closed", False)
        if not isinstance(closed, bool):
            raise ConfigError(f"{path}.closed: must be a boolean")
    else:
        raise ConfigError(f"{path}.kind: must be 'circle' or 'points'")
    if positions.shape[0] < 2:
        raise ConfigError(f"{path}: needs at least two vertices")
    with np.errstate(over="ignore"):  # an overflow reads as inf
        length = flow_engine.curve_length(positions, closed)
    if not 0.0 < length < math.inf:
        raise ConfigError(f"{path}.positions: the curve's length "
                          f"{length!r} must be positive and finite")
    return positions, closed


def _validate_params(command: str, params: dict, model: IbfModel) -> dict:
    if not isinstance(params, dict):
        raise ConfigError("params: must be an object")
    out: dict = {}

    def read(key, parse=_as_number, default=None, **bounds):
        """params.<key>, or its default (None: the field is required),
        parsed within bounds, stored in out and returned."""
        value = (_need(params, key, "params") if default is None
                 else params.get(key, default))
        out[key] = parse(value, f"params.{key}", **bounds)
        return out[key]

    def cap(key, span, extra):
        """At most MAX_SERIES recorded values: out[key] paths of extra
        values each, plus the snapshots over span (None: no params.stride)."""
        per_path = extra
        if span is not None:
            stride = read("stride", _as_int, flow_engine.DEFAULT_STRIDE,
                          minimum=1)
            per_path += _snapshots(span, out["dt"], stride)
        if out[key] * per_path > MAX_SERIES:
            raise ConfigError(f"params.{key}: {out[key]} x {per_path} "
                              f"recorded values is more than {MAX_SERIES}")

    if command == "covariance":
        _no_extras(params, {"s_max", "n_points"}, "params")
        s_max = read("s_max", exclusive_min=0.0)
        _check_kernel_spans(model, {"params.s_max": s_max})
        read("n_points", _as_int, 201, minimum=2, maximum=MAX_POINTS)
    elif command == "check-condition":
        _no_extras(params, {"rho", "tol"}, "params")
        rho = read("rho", exclusive_min=0.0)
        tol = read("tol", _as_number, 1e-8, exclusive_min=0.0)
        if (model.mu1 > 0.0 and rkhs.zero_search_bound(model, rho, tol)
                > rkhs.ZERO_SEARCH_MAX):
            raise ConfigError(
                "params.rho: the zero search would run past "
                f"{rkhs.ZERO_SEARCH_MAX} (rho * support_max of m_p, widened "
                f"by tol)")
    elif command == "verify-identity":
        _no_extras(params, {"rhos", "resolution"}, "params")
        rhos = read("rhos", _as_numbers, exclusive_min=0.0)
        # the rule's separations reach the sphere's diameter, 2 rho
        _check_kernel_spans(model, {f"params.rhos[{i}]": 2.0 * rho
                                    for i, rho in enumerate(rhos)})
        n = read("resolution", _as_int, 64, minimum=1, maximum=MAX_RULE_NODES)
        if len(rhos) * n > MAX_SEPARATIONS:
            raise ConfigError(f"params.rhos: {len(rhos)} x {n} separations "
                              f"is more than {MAX_SEPARATIONS}")
    elif command == "lyapunov":
        if model.is_trivial:
            raise ConfigError(
                "model: lyapunov needs mu1 or mu2 > 0; the trivial model "
                "(mu0 = 1) has no flow constants to compare against")
        _no_extras(params, {"T", "dt", "n_pairs", "renorm_eps"}, "params")
        T = read("T", exclusive_min=0.0)
        read("dt", _as_step, span=T)
        read("n_pairs", _as_int, minimum=2)
        # lyapunov_estimate's open interval
        read("renorm_eps", _as_number, 1e-4, exclusive_min=1e-8,
             exclusive_max=1e-2)
        cap("n_pairs", None, 1)
    elif command in ("squeeze", "expand"):
        _no_extras(params, {"R", "delta", "T1", "T2", "dt", "n_paths",
                            "n_boundary", "stride"}, "params")
        R = read("R", exclusive_min=0.0)
        delta = read("delta", exclusive_min=0.0)
        if delta >= R:
            raise ConfigError("params.delta: must be < R")
        T1 = read("T1", exclusive_min=0.0)
        T2 = read("T2", exclusive_min=T1)
        read("dt", _as_step, span=T2)
        read("n_paths", _as_int, minimum=1)
        read("n_boundary", _as_int, 64, minimum=8, maximum=MAX_COORDS // model.d)
        cap("n_paths", T2, 0)
    elif command == "track-control":
        if model.mu1 == 0.0:
            raise ConfigError(
                "model.mu1: track-control follows the mean inward field, "
                "which is zero without a potential part (mu1 = 0)")
        _no_extras(params, {"rho", "cs", "T", "dt", "n_paths", "x0", "stride"},
                   "params")
        rho = read("rho", exclusive_min=0.0)
        _check_kernel_spans(model, {"params.rho": RADIAL_SPAN * rho})
        cs = read("cs", _as_numbers, distinct=True, minimum=1.0)
        T = read("T", exclusive_min=0.0)
        read("dt", _as_step, span=T)
        read("n_paths", _as_int, minimum=2)
        read("x0", _parse_vectors, d=model.d)
        cap("n_paths", T, len(cs))
    elif command == "length-decay":
        _no_extras(params, {"T", "dt", "n_paths", "curve", "stride"}, "params")
        T = read("T", exclusive_min=0.0)
        read("dt", _as_step, span=T)
        read("n_paths", _as_int, minimum=1)
        out["positions"], out["closed"] = _as_curve(
            _need(params, "curve", "params"), "params.curve", model.d)
        cap("n_paths", T, 0)
    return out


def _model_config(model: IbfModel) -> dict:
    def measure(m):
        if m is None:
            return None
        return {"atoms": [list(a) for a in m.atoms],
                "density": [list(p) for p in m.density_pieces]}

    out = {"d": model.d, "mu0": model.mu0, "mu1": model.mu1, "mu2": model.mu2,
           "m_p": measure(model.m_p), "m_s": measure(model.m_s)}
    if model.allow_trivial:
        out["allow_trivial"] = True
    return out


def _echo_params(command: str, params: dict) -> dict:
    """Validated params back in config form, so a report re-parses."""
    if command == "track-control":
        return dict(params, x0=params["x0"].tolist())
    if command != "length-decay":
        return dict(params)
    out = {k: params[k] for k in ("T", "dt", "n_paths", "stride")}
    out["curve"] = {"kind": "points",
                    "positions": params["positions"].tolist(),
                    "closed": params["closed"]}
    return out


def parse_config(text, command: str | None = None) -> RunConfig:
    """Parse and fully validate a config document (JSON text or dict)."""
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        except RecursionError:
            raise ConfigError("config is nested too deeply to parse") from None
    else:
        doc = text
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    _no_extras(doc, {"model", "command", "params", "output", "seed"}, "config")

    cfg_command = doc.get("command", command)
    if cfg_command is None:
        raise ConfigError("command: missing (give it in the config or CLI)")
    if cfg_command not in COMMANDS:
        raise ConfigError(
            f"command: unknown command {reprlib.repr(cfg_command)}")
    if command is not None and cfg_command != command:
        raise ConfigError(
            f"command: config says {cfg_command!r} but CLI invoked {command!r}")

    model, drift, model_echo = _parse_model(_need(doc, "model", "config"),
                                            cfg_command)
    params = _validate_params(cfg_command, doc.get("params", {}), model)

    seed = doc.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed: a mandatory integer seed is required "
                          "(the tool never draws entropy itself)")
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")

    output = doc.get("output", {})
    if output is None:
        output = {}
    if not isinstance(output, dict):
        raise ConfigError("output: must be an object")
    _no_extras(output, {"dir"}, "output")
    out_dir = output.get("dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("output.dir: must be a string")

    echo = {
        "model": model_echo,
        "command": cfg_command,
        "params": _echo_params(cfg_command, params),
        "output": {"dir": out_dir},
        "seed": seed,
    }
    return RunConfig(command=cfg_command, model=model, drift=drift,
                     params=params, output_dir=out_dir, seed=seed, echo=echo)


# ---------------------------------------------------------------------------
# emission

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path.write_text(buf.getvalue())


def write_report(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2,
                               default=lambda o: o.tolist()) + "\n")


@dataclass
class Measured:
    """What a runner measured: its CSV table, its report aggregate, the
    summary line and, for squeeze, expand and length-decay, the per-path
    rank numerics."""

    header: list[str]
    rows: Iterable[tuple]
    aggregate: dict
    summary: str
    paths: dict | None = None


def _emit(cfg: RunConfig, out_dir: Path, out: Measured,
          wall_clock: float) -> list[Path]:
    """Write <command>.csv and <command>_report.json, the one report
    format: command, config (the validated document, which re-parses as
    it is), paths where measured, aggregate, wall_clock and version."""
    csv_path = out_dir / f"{cfg.command}.csv"
    write_csv(csv_path, out.header, out.rows)
    report = {"command": cfg.command, "config": cfg.echo}
    if out.paths is not None:
        report["paths"] = out.paths
    report.update(aggregate=out.aggregate, wall_clock=wall_clock,
                  version=__version__)
    report_path = out_dir / f"{cfg.command}_report.json"
    write_report(report_path, report)
    return [csv_path, report_path]


# ---------------------------------------------------------------------------
# per-command runners

def _run_covariance(cfg: RunConfig) -> Measured:
    model = cfg.model
    s = np.linspace(0.0, cfg.params["s_max"], cfg.params["n_points"])
    b_l, b_n = covariance.covariance_scalars(model, s)
    per_kind = []  # B_PL, B_PN, B_SL, B_SN: one quadrature per component
    for component, measure in (("P", model.m_p), ("S", model.m_s)):
        if measure is None:
            per_kind += [np.full_like(s, math.nan)] * 2
        else:
            per_kind += covariance.b_scalar(model, component, s)
    rows = zip(s, b_l, b_n, *per_kind)
    try:
        fc = covariance.flow_constants(model)
        aggregate = {"beta_l": fc.beta_l, "beta_n": fc.beta_n,
                     "lambda": fc.lam}
    except ModelError:
        aggregate = {"note": "trivial model: constants undefined"}
    summary = (f"covariance: {len(s)} rows on s in "
               f"[0, {cfg.params['s_max']}]")
    return Measured(["s", "B_L", "B_N", "B_PL", "B_PN", "B_SL", "B_SN"],
                    rows, aggregate, summary)


def _run_check_condition(cfg: RunConfig) -> Measured:
    rep = rkhs.check_condition(cfg.model, cfg.params["rho"], cfg.params["tol"])
    zeros = np.asarray(rep.zero_locations_checked)
    rows = []
    if cfg.model.m_p is not None:
        for s, w in cfg.model.m_p.atoms:
            dist = float(np.min(np.abs(zeros - s))) if zeros.size else math.inf
            rows.append(("atom", s, s, w, dist))
        for lo, hi, h in cfg.model.m_p.density_pieces:
            rows.append(("piece", lo, hi, h * (hi - lo), math.nan))
    aggregate = {
        "satisfied": rep.satisfied,
        "witness_mass": rep.witness_mass,
        "zero_locations_checked": list(rep.zero_locations_checked),
    }
    summary = (f"check-condition: satisfied={rep.satisfied} "
               f"witness_mass={rep.witness_mass:.6g}")
    return Measured(["component", "lo", "hi", "mass",
                     "distance_to_nearest_scaled_zero"], rows, aggregate,
                    summary)


def _run_verify_identity(cfg: RunConfig) -> Measured:
    rhos = cfg.params["rhos"]
    lefts, rights = rkhs.squeeze_functional(cfg.model, rhos,
                                            cfg.params["resolution"])
    rows = []
    worst = 0.0
    for rho, lhs, rhs in zip(rhos, lefts.tolist(), rights.tolist()):
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise RuntimeError(f"rho {rho!r}: the identity's sides "
                               f"{lhs!r} and {rhs!r} are not both finite")
        gap = abs(lhs - rhs) / max(abs(rhs), 1e-6)
        worst = max(worst, gap)
        rows.append((rho, lhs, rhs, gap))
    aggregate = {"max_rel_gap": worst}
    summary = f"verify-identity: max relative lhs/rhs gap = {worst:.3e}"
    return Measured(["rho", "lhs", "rhs", "rel_gap"], rows, aggregate, summary)


def _run_lyapunov(cfg: RunConfig) -> Measured:
    res = flow_engine.lyapunov_estimate(
        cfg.model, T=cfg.params["T"], dt=cfg.params["dt"],
        n_pairs=cfg.params["n_pairs"], renorm_eps=cfg.params["renorm_eps"],
        seed=cfg.seed)
    fc = covariance.flow_constants(cfg.model)
    ag = {**res.aggregate, "analytic_lambda": fc.lam, "beta_l": fc.beta_l,
          "beta_n": fc.beta_n}
    summary = (f"lyapunov: estimate = {ag['estimate']:.5f} "
               f"+/- {ag['standard_error']:.5f} (analytic {fc.lam:.5f})")
    return Measured(["pair", "estimate"],
                    enumerate(res.series["estimate"][:, 0].tolist()), ag,
                    summary)


def _run_squeeze(cfg: RunConfig) -> Measured:
    mode = cfg.command
    p = cfg.params
    rep = flow_engine.squeeze_experiment(
        cfg.model, R=p["R"], delta=p["delta"], T1=p["T1"], T2=p["T2"],
        n_boundary=p["n_boundary"], dt=p["dt"], n_paths=p["n_paths"],
        drift=cfg.drift, seed=cfg.seed, snapshot_stride=p["stride"],
        mode=mode)
    ag = rep.aggregate
    summary = (f"{mode}: success {ag['success_count']}/{ag['n_paths']} "
               f"= {ag['success_frequency']:.3f} "
               f"(wilson {ag['wilson_low']:.3f}-{ag['wilson_high']:.3f})")
    return _series_measured(rep, summary)


def _series_measured(res: ExperimentResult, summary: str) -> Measured:
    """A path experiment's table, one row (path, t, each series) per path
    and snapshot, and its per-path rank numerics for the report."""
    names = list(res.series)
    times = res.times.tolist()
    rows = ((i, t, *cells) for i in range(len(res.numerics[0]))
            for t, *cells in zip(times, *(res.series[k][i].tolist()
                                          for k in names)))
    paths = dict(zip(("rank_min", "rank_max", "dropped_trace_max"),
                     res.numerics))
    return Measured(["path", "t", *names], rows, res.aggregate, summary,
                    paths)


def _run_track_control(cfg: RunConfig) -> Measured:
    p = cfg.params
    res = flow_engine.tracking_experiment(
        cfg.model, drift_radial_rkhs(cfg.model, p["rho"], scale=1.0),
        p["cs"], p["x0"], T=p["T"], dt=p["dt"], n_paths=p["n_paths"],
        seed=cfg.seed, snapshot_stride=p["stride"])
    sups = res.series["sup_deviation"]
    rows = ((c, i, dev) for j, c in enumerate(p["cs"])
            for i, dev in enumerate(sups[:, j].tolist()))
    summary = (f"track-control: log-log slope = {res.aggregate['slope']:.3f} "
               f"over c = {p['cs']}")
    return Measured(["c", "path", "sup_deviation"], rows, res.aggregate,
                    summary)


def _run_length_decay(cfg: RunConfig) -> Measured:
    p = cfg.params
    rep = flow_engine.length_decay_experiment(
        cfg.model, p["positions"], T=p["T"], dt=p["dt"], n_paths=p["n_paths"],
        seed=cfg.seed, snapshot_stride=p["stride"], closed=p["closed"])
    ag = rep.aggregate
    summary = (f"length-decay: shrink fraction {ag['shrink_fraction']:.2f}, "
               f"terminal rate mean {ag['terminal_rate_mean']:.4f}")
    return _series_measured(rep, summary)


_RUNNERS = {
    "covariance": _run_covariance,
    "check-condition": _run_check_condition,
    "verify-identity": _run_verify_identity,
    "lyapunov": _run_lyapunov,
    "squeeze": _run_squeeze,
    "expand": _run_squeeze,
    "track-control": _run_track_control,
    "length-decay": _run_length_decay,
}
COMMANDS = tuple(_RUNNERS)


def run_command(command: str, cfg: RunConfig, jobs: int = 1,
                out_dir: str | None = None, quiet: bool = False):
    """Execute one subcommand; returns (exit_code, written paths).

    Paths run serially, so jobs may only be 1; the keyword stays for the
    benchmark harness, which passes it."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    target = Path(out_dir if out_dir is not None else cfg.output_dir)
    target.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    out = _RUNNERS[command](cfg)
    files = _emit(cfg, target, out, time.perf_counter() - t0)
    if not quiet:
        print(out.summary)
    return EXIT_OK, files


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibflow",
        description="Isotropic Brownian flow experiments from JSON configs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} command")
        cmd.add_argument("--config", required=True, help="path to JSON config")
        cmd.add_argument("--out", default=None,
                         help="output directory (overrides config)")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress the summary line")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text, command=args.command)
    except ValueError as exc:  # ConfigError, MeasureError, ModelError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code, _ = run_command(args.command, cfg, out_dir=args.out,
                              quiet=args.quiet)
    except _RUNTIME_ERRORS as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
