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
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from . import covariance, flow_engine, rkhs, spectral
from .covariance import IbfModel, ModelError
from .field_sampler import (DriftField, drift_custom_table, drift_linear,
                            drift_radial_rkhs, radial_resolution)
from .flow_engine import ExperimentResult, PointCloud
from .spectral import MeasureError, SpectralMeasure

COMMANDS = ("covariance", "check-condition", "verify-identity", "lyapunov",
            "squeeze", "expand", "track-control", "length-decay")
# the commands that apply model.drift; every other one rejects it
DRIFT_COMMANDS = ("squeeze", "expand")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Euler steps one sampling run may take: the step sizes and times are
# allocated before the first step, so a larger T/dt is refused while parsing
MAX_STEPS = 10 ** 7
# Tracer coordinates N d per path: a 64-path chunk's increment factor F
# holds 64 (N d)^2 doubles, 128 MiB at this bound, so more is refused
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
# verify-identity sphere-rule nodes n: the double sum evaluates the kernel
# on n^2 node pairs in chunks of 2e6 pairs (about 190 MB each), 1.1e9
# pairs at this bound, minutes per rho at about 170 ns a pair
MAX_RULE_NODES = 2 ** 15
# Radial-drift sphere-rule nodes n: drift_radial_rkhs probes 2048 radii
# against every node at once, about 12 doubles per (radius, node), so
# about 190 MiB at this bound
MAX_DRIFT_NODES = 1024

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
    drift: DriftField | None
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
               exclusive_min=None) -> float:
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
    return val


def _as_int(value, path: str, *, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"{path}: must be an integer, got {reprlib.repr(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value!r}")
    return int(value)


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
                 ) -> tuple[IbfModel, DriftField | None, dict]:
    """The model, its drift (None if none is given) and their echo."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be an object")
    _no_extras(spec, {"d", "mu0", "mu1", "mu2", "m_p", "m_s", "drift",
                      "allow_trivial"}, path)
    d = _as_int(_need(spec, "d", path), f"{path}.d", minimum=2, maximum=16)
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
                 "radial_rkhs": {"rho", "scale", "resolution"},
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

    try:
        return np.array(numbers(value, path, 0), dtype=float)
    except ValueError:
        raise ConfigError(f"{path}: must be a rectangular array") from None


def drift_from_config(spec, model: IbfModel, path: str = "model.drift"
                      ) -> tuple[DriftField | None, dict]:
    """The drift a config's model.drift describes (None for kind none),
    checked field by field, and its echo: the same fields in config form,
    a radial drift's resolution filled in."""
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
            matrix = _parse_vectors(_need(spec, "matrix", path), d,
                                    f"{path}.matrix")
            if matrix.shape[0] != d:
                raise ConfigError(f"{path}.matrix: must be {d} x {d}")
            echo["matrix"] = matrix
            drift = drift_linear(matrix)
        elif kind == "radial_rkhs":
            rho = _as_number(_need(spec, "rho", path), f"{path}.rho",
                             exclusive_min=0.0)
            scale = _as_number(spec.get("scale", 1.0), f"{path}.scale")
            res = spec.get("resolution")
            res = (radial_resolution(d) if res is None else _as_resolution(
                res, d, f"{path}.resolution", MAX_DRIFT_NODES))
            drift = drift_radial_rkhs(model, rho, scale=scale, resolution=res)
            echo.update(rho=rho, scale=scale, resolution=res)
        elif kind == "custom_table":
            axes = _need(spec, "axes", path)
            if not (isinstance(axes, list) and len(axes) == d):
                raise ConfigError(f"{path}.axes: must be a list of {d} axes")
            echo["axes"] = [_numeric_array(a, f"{path}.axes[{k}]", 1)
                            for k, a in enumerate(axes)]
            echo["values"] = _numeric_array(_need(spec, "values", path),
                                            f"{path}.values", d + 1)
            drift = drift_custom_table(echo["axes"], echo["values"])
    except ModelError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return drift, _jsonable(echo)


def _parse_vectors(value, d: int, path: str) -> np.ndarray:
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


def _as_resolution(value, d: int, path: str, max_nodes: int) -> int:
    """A sphere-rule resolution whose rule (resolution^2 nodes in d = 3,
    resolution otherwise) has at most max_nodes nodes."""
    res = _as_int(value, path, minimum=1)
    nodes = res * res if d == 3 else res
    if nodes > max_nodes:
        raise ConfigError(f"{path}: a rule of {nodes} nodes is more than "
                          f"{max_nodes}")
    return res


def _cap_series(out: dict, key: str, path: str, per_path: int) -> None:
    """params.<key> paths recording per_path values each: at most
    MAX_SERIES values in all."""
    if out[key] * per_path > MAX_SERIES:
        raise ConfigError(f"{path}.{key}: {out[key]} x {per_path} recorded "
                          f"values is more than {MAX_SERIES}")


def _snapshots(span: float, dt: float, stride: int) -> int:
    """Snapshots an observer sees over span: the start, every stride-th
    Euler step and the last one (flow_engine._step_sizes' step count)."""
    steps = max(1, math.ceil(span / dt - 1e-9))
    return 1 + -(-steps // stride)


def _as_step(p: dict, span: float, path: str) -> float:
    """params.dt: in (0, span], and at most MAX_STEPS steps over span."""
    dt = _as_number(_need(p, "dt", path), f"{path}.dt", exclusive_min=0.0,
                    maximum=span)
    if span / dt > MAX_STEPS:
        raise ConfigError(f"{path}.dt: {span!r}/{dt!r} asks for more than "
                          f"{MAX_STEPS} steps")
    return dt


def _validate_params(command: str, params: dict, model: IbfModel) -> dict:
    path = "params"
    if not isinstance(params, dict):
        raise ConfigError(f"{path}: must be an object")
    p = dict(params)
    out: dict = {}
    if command == "covariance":
        _no_extras(p, {"s_max", "n_points"}, path)
        out["s_max"] = _as_number(_need(p, "s_max", path), f"{path}.s_max",
                                  exclusive_min=0.0)
        # the quadrature squares the kernel argument z = s * node
        top = max([float(spectral.quadrature_nodes(m)[0].max())
                   for m in (model.m_p, model.m_s) if m is not None],
                  default=0.0)
        z = out["s_max"] * top
        if not math.isfinite(z * z):
            raise ConfigError(f"{path}.s_max: the kernel argument s_max x "
                              f"{top!r} (the largest node) overflows squared")
        out["n_points"] = _as_int(p.get("n_points", 201), f"{path}.n_points",
                                  minimum=2, maximum=MAX_POINTS)
    elif command == "check-condition":
        _no_extras(p, {"rho", "tol"}, path)
        out["rho"] = _as_number(_need(p, "rho", path), f"{path}.rho",
                                exclusive_min=0.0)
        out["tol"] = _as_number(p.get("tol", 1e-8), f"{path}.tol",
                                exclusive_min=0.0)
        if (model.mu1 > 0.0 and rkhs.zero_search_bound(
                model, out["rho"], out["tol"]) > rkhs.ZERO_SEARCH_MAX):
            raise ConfigError(
                f"{path}.rho: the zero search would run past "
                f"{rkhs.ZERO_SEARCH_MAX} (rho * support_max of m_p, widened "
                f"by tol)")
    elif command == "verify-identity":
        _no_extras(p, {"rhos", "resolution"}, path)
        rhos = _need(p, "rhos", path)
        if not (isinstance(rhos, list) and rhos):
            raise ConfigError(f"{path}.rhos: must be a non-empty list")
        out["rhos"] = [_as_number(r, f"{path}.rhos[{i}]", exclusive_min=0.0)
                       for i, r in enumerate(rhos)]
        default_res = 512 if model.d == 2 else 48
        out["resolution"] = _as_resolution(p.get("resolution", default_res),
                                           model.d, f"{path}.resolution",
                                           MAX_RULE_NODES)
    elif command == "lyapunov":
        if model.is_trivial:
            raise ConfigError(
                "model: lyapunov needs mu1 or mu2 > 0; the trivial model "
                "(mu0 = 1) has no flow constants to compare against")
        _no_extras(p, {"T", "dt", "n_pairs", "renorm_eps"}, path)
        out["T"] = _as_number(_need(p, "T", path), f"{path}.T", exclusive_min=0.0)
        out["dt"] = _as_step(p, out["T"], path)
        out["n_pairs"] = _as_int(_need(p, "n_pairs", path), f"{path}.n_pairs",
                                 minimum=2)
        out["renorm_eps"] = _as_number(p.get("renorm_eps", 1e-4),
                                       f"{path}.renorm_eps",
                                       exclusive_min=1e-8, maximum=1e-2)
        _cap_series(out, "n_pairs", path, 1)
    elif command in ("squeeze", "expand"):
        _no_extras(p, {"R", "delta", "T1", "T2", "dt", "n_paths",
                       "n_boundary", "stride"}, path)
        out["R"] = _as_number(_need(p, "R", path), f"{path}.R", exclusive_min=0.0)
        out["delta"] = _as_number(_need(p, "delta", path), f"{path}.delta",
                                  exclusive_min=0.0)
        if out["delta"] >= out["R"]:
            raise ConfigError(f"{path}.delta: must be < R")
        out["T1"] = _as_number(_need(p, "T1", path), f"{path}.T1",
                               exclusive_min=0.0)
        out["T2"] = _as_number(_need(p, "T2", path), f"{path}.T2",
                               exclusive_min=out["T1"])
        out["dt"] = _as_step(p, out["T2"], path)
        out["n_paths"] = _as_int(_need(p, "n_paths", path), f"{path}.n_paths",
                                 minimum=1)
        out["n_boundary"] = _as_int(p.get("n_boundary", 64),
                                    f"{path}.n_boundary", minimum=8,
                                    maximum=MAX_COORDS // model.d)
        out["stride"] = _as_int(p.get("stride", 10), f"{path}.stride", minimum=1)
        _cap_series(out, "n_paths", path,
                    _snapshots(out["T2"], out["dt"], out["stride"]))
    elif command == "track-control":
        _no_extras(p, {"rho", "cs", "T", "dt", "n_paths", "x0", "stride"}, path)
        out["rho"] = _as_number(_need(p, "rho", path), f"{path}.rho",
                                exclusive_min=0.0)
        cs = _need(p, "cs", path)
        if not (isinstance(cs, list) and cs):
            raise ConfigError(f"{path}.cs: must be a non-empty list")
        out["cs"] = [_as_number(c, f"{path}.cs[{i}]", minimum=1.0)
                     for i, c in enumerate(cs)]
        out["T"] = _as_number(_need(p, "T", path), f"{path}.T", exclusive_min=0.0)
        out["dt"] = _as_step(p, out["T"], path)
        out["n_paths"] = _as_int(_need(p, "n_paths", path), f"{path}.n_paths",
                                 minimum=2)
        out["x0"] = _parse_vectors(_need(p, "x0", path), model.d, f"{path}.x0")
        out["stride"] = _as_int(p.get("stride", 10), f"{path}.stride", minimum=1)
        _cap_series(out, "n_paths", path,
                    _snapshots(out["T"], out["dt"], out["stride"])
                    + len(out["cs"]))
    elif command == "length-decay":
        _no_extras(p, {"T", "dt", "n_paths", "curve", "stride"}, path)
        out["T"] = _as_number(_need(p, "T", path), f"{path}.T", exclusive_min=0.0)
        out["dt"] = _as_step(p, out["T"], path)
        out["n_paths"] = _as_int(_need(p, "n_paths", path), f"{path}.n_paths",
                                 minimum=1)
        curve = _need(p, "curve", path)
        if not isinstance(curve, dict):
            raise ConfigError(f"{path}.curve: must be an object")
        kind = curve.get("kind")
        if kind == "circle":
            _no_extras(curve, {"kind", "radius", "n_vertices", "center"},
                       f"{path}.curve")
            radius = _as_number(_need(curve, "radius", f"{path}.curve"),
                                f"{path}.curve.radius", exclusive_min=0.0)
            n_vertices = _as_int(_need(curve, "n_vertices", f"{path}.curve"),
                                 f"{path}.curve.n_vertices", minimum=3,
                                 maximum=MAX_COORDS // model.d)
            center = curve.get("center", [0.0] * model.d)
            center = _parse_vectors([center], model.d, f"{path}.curve.center")[0]
            ang = 2.0 * math.pi * np.arange(n_vertices) / n_vertices
            ring = np.zeros((n_vertices, model.d))
            ring[:, 0] = np.cos(ang)
            ring[:, 1] = np.sin(ang)
            out["positions"] = center + radius * ring
            out["closed"] = True
        elif kind == "points":
            _no_extras(curve, {"kind", "positions", "closed"}, f"{path}.curve")
            out["positions"] = _parse_vectors(
                _need(curve, "positions", f"{path}.curve"), model.d,
                f"{path}.curve.positions")
            closed = curve.get("closed", False)
            if not isinstance(closed, bool):
                raise ConfigError(f"{path}.curve.closed: must be a boolean")
            out["closed"] = closed
        else:
            raise ConfigError(f"{path}.curve.kind: must be 'circle' or 'points'")
        if out["positions"].shape[0] < 2:
            raise ConfigError(f"{path}.curve: needs at least two vertices")
        out["stride"] = _as_int(p.get("stride", 10), f"{path}.stride", minimum=1)
        _cap_series(out, "n_paths", path,
                    _snapshots(out["T"], out["dt"], out["stride"]))
    else:
        raise ConfigError(f"command: unknown command {command!r}")
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
    if command != "length-decay":
        return _jsonable(params)
    out = {k: params[k] for k in ("T", "dt", "n_paths", "stride")}
    out["curve"] = {"kind": "points",
                    "positions": params["positions"].tolist(),
                    "closed": params["closed"]}
    return _jsonable(out)


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

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


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
    path.write_text(json.dumps(_jsonable(payload), indent=2) + "\n")


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

def _run_covariance(cfg: RunConfig, jobs: int) -> Measured:
    model = cfg.model
    s = np.linspace(0.0, cfg.params["s_max"], cfg.params["n_points"])
    b_l, b_n = covariance.covariance_scalars(model, s)
    per_kind = {}
    for kind in ("PL", "PN", "SL", "SN"):
        measure = model.m_p if kind[0] == "P" else model.m_s
        if measure is None:
            per_kind[kind] = np.full_like(s, math.nan)
        else:
            per_kind[kind] = covariance.b_scalar(model, kind, s)
    rows = zip(s, b_l, b_n, per_kind["PL"], per_kind["PN"],
               per_kind["SL"], per_kind["SN"])
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


def _run_check_condition(cfg: RunConfig, jobs: int) -> Measured:
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


def _run_verify_identity(cfg: RunConfig, jobs: int) -> Measured:
    rule = rkhs.sphere_rule(cfg.model.d, cfg.params["resolution"])
    rows = []
    worst = 0.0
    for rho in cfg.params["rhos"]:
        lhs, rhs = rkhs.squeeze_functional(cfg.model, rho, rule)
        gap = abs(lhs - rhs) / max(abs(rhs), 1e-6)
        worst = max(worst, gap)
        rows.append((rho, lhs, rhs, gap))
    aggregate = {"max_rel_gap": worst, "resolution": cfg.params["resolution"]}
    summary = f"verify-identity: max relative lhs/rhs gap = {worst:.3e}"
    return Measured(["rho", "lhs", "rhs", "rel_gap"], rows, aggregate, summary)


def _run_lyapunov(cfg: RunConfig, jobs: int) -> Measured:
    res = flow_engine.lyapunov_estimate(
        cfg.model, T=cfg.params["T"], dt=cfg.params["dt"],
        n_pairs=cfg.params["n_pairs"], renorm_eps=cfg.params["renorm_eps"],
        seed=cfg.seed, jobs=jobs)
    fc = covariance.flow_constants(cfg.model)
    aggregate = {
        "estimate": res.estimate,
        "standard_error": res.standard_error,
        "analytic_lambda": fc.lam,
        "beta_l": fc.beta_l,
        "beta_n": fc.beta_n,
        **flow_engine._aggregate_numerics(res.numerics),
    }
    summary = (f"lyapunov: estimate = {res.estimate:.5f} "
               f"+/- {res.standard_error:.5f} (analytic {fc.lam:.5f})")
    return Measured(["pair", "estimate"], enumerate(res.pair_estimates),
                    aggregate, summary)


def _run_squeeze(cfg: RunConfig, jobs: int) -> Measured:
    mode = cfg.command
    p = cfg.params
    rep = flow_engine.squeeze_experiment(
        cfg.model, R=p["R"], delta=p["delta"], T1=p["T1"], T2=p["T2"],
        n_boundary=p["n_boundary"], dt=p["dt"], n_paths=p["n_paths"],
        drift=cfg.drift, seed=cfg.seed, snapshot_stride=p["stride"],
        mode=mode, jobs=jobs)
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


def _run_track_control(cfg: RunConfig, jobs: int) -> Measured:
    p = cfg.params
    x0 = PointCloud(positions=p["x0"])
    v_field = drift_radial_rkhs(cfg.model, p["rho"], scale=1.0)
    results = [flow_engine.tilted_tracking_error(
        cfg.model, rho=p["rho"], c=c, x0=x0, T=p["T"], dt=p["dt"],
        n_paths=p["n_paths"], seed=cfg.seed, v_field=v_field,
        snapshot_stride=p["stride"], jobs=jobs) for c in p["cs"]]
    slope = math.nan
    if len(results) >= 2:
        slope = float(np.polyfit(np.log(p["cs"]),
                                 np.log([res.mean for res in results]), 1)[0])
    aggregate = {
        "per_c": {str(res.c): {"mean": res.mean, "se": res.standard_error}
                  for res in results},
        "slope": slope,
        **flow_engine._aggregate_numerics(*(res.numerics for res in results))}
    rows = ((res.c, i, dev) for res in results
            for i, dev in enumerate(res.sup_deviations))
    summary = f"track-control: log-log slope = {slope:.3f} over c = {p['cs']}"
    return Measured(["c", "path", "sup_deviation"], rows, aggregate, summary)


def _run_length_decay(cfg: RunConfig, jobs: int) -> Measured:
    p = cfg.params
    curve = PointCloud(positions=p["positions"])
    rep = flow_engine.length_decay_experiment(
        cfg.model, curve, T=p["T"], dt=p["dt"], n_paths=p["n_paths"],
        seed=cfg.seed, snapshot_stride=p["stride"], closed=p["closed"],
        jobs=jobs)
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


def run_command(command: str, cfg: RunConfig, jobs: int = 1,
                out_dir: str | None = None, quiet: bool = False):
    """Execute one subcommand; returns (exit_code, written paths)."""
    target = Path(out_dir if out_dir is not None else cfg.output_dir)
    target.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    out = _RUNNERS[command](cfg, jobs)
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
        cmd.add_argument("--jobs", type=int, default=1,
                         help="worker pool size (default 1)")
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
    except (ConfigError, MeasureError, ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code, _ = run_command(args.command, cfg, jobs=args.jobs,
                              out_dir=args.out, quiet=args.quiet)
    except _RUNTIME_ERRORS as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
