"""Per-layer spans recorded from outside the program.

The tracer replaces functions on the ibflow modules with wrappers that
record a span (name, parent, start, end) and bump counters, and puts
every original back on exit. A function is wrapped on the module where
its caller looks it up: ``flow_engine`` imported ``covariance_matrix_batch``
by name, so wrapping ``field_sampler.covariance_matrix_batch`` alone would
miss every call the stepper makes.

Spans nest properly because a benchmark job runs one thread (``--jobs 1``),
so a span's children never overlap and the part of its interval they
cover is the sum of their durations.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from pathlib import Path


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _count_evals(c, args, result):
    c["bessel.j_ratio.evals"] += _size(args[1])


def _count_assembly(c, args, result):
    # positions (B, N, d) -> B matrices of (N d)^2 float64 entries each
    c["field_sampler.assemble.matrices"] += result.shape[0]
    c["field_sampler.assemble.bytes_computed"] += result.nbytes
    c["flow_engine.chunk_steps"] += 1
    c["flow_engine.path_steps"] += result.shape[0]


def _count_factor(c, args, result):
    c["field_sampler.factor.matrices"] += args[0].shape[0]


def _count_ladder(c, args, result):
    c["field_sampler.factor.fallbacks"] += 1
    if result[1] > 0.0:
        c["field_sampler.factor.jittered"] += 1


def _count_drift(c, args, result):
    c["field_sampler.drift.calls"] += 1


def _count_nodes(c, args, result):
    c["spectral.quadrature_nodes.calls"] += 1


def _count_emit(c, args, result):
    c["cli.emit.bytes"] += Path(args[0]).stat().st_size


def _count_scalars(c, args, result):
    c["covariance.scalars.calls"] += 1
    c["covariance.scalars.separations"] += _size(args[1])


# (module, attribute, span name, counter hook). Hooks read positional
# arguments: every call site in ibflow passes these ones by position.
TARGETS = (
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "drift_from_config", "field_sampler.drift_build", None),
    ("cli", "write_csv", "cli.emit", _count_emit),
    # the report's size moves with its wall_clock digits, so only CSV
    # bytes are counted, which keeps the count exact
    ("cli", "write_report", "cli.emit", None),
    ("spectral", "quadrature_nodes", "spectral.quadrature_nodes", _count_nodes),
    ("covariance", "bessel_j_ratio", "bessel.j_ratio", _count_evals),
    ("rkhs", "bessel_j_ratio", "bessel.j_ratio", _count_evals),
    # covariance_matrix_batch imports covariance_scalars at call time, so
    # the covariance module attribute is what it sees
    ("covariance", "covariance_scalars", "covariance.scalars", _count_scalars),
    ("rkhs", "covariance_scalars", "covariance.scalars", _count_scalars),
    ("rkhs", "squeeze_functional", "rkhs.squeeze_functional", None),
    ("rkhs", "mean_inward_field", "rkhs.mean_inward_field", None),
    ("flow_engine", "eval_drift", "field_sampler.drift", _count_drift),
    ("flow_engine", "covariance_matrix_batch", "field_sampler.assemble",
     _count_assembly),
    ("flow_engine", "cholesky_with_jitter_batch", "field_sampler.factor",
     _count_factor),
    # the per-matrix jitter ladder runs only after the batched attempt failed
    ("field_sampler", "cholesky_with_jitter", "field_sampler.factor.ladder",
     _count_ladder),
    ("flow_engine", "squeeze_experiment", "flow_engine.experiment", None),
    ("flow_engine", "lyapunov_estimate", "flow_engine.experiment", None),
    ("flow_engine", "length_decay_experiment", "flow_engine.experiment", None),
)

# per-layer metric -> unit; README.md defines each one
LAYER_UNITS = {
    "cli.parse_config.s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "bytes",
    "spectral.quadrature_nodes.calls": "count",
    "bessel.j_ratio.s": "s",
    "bessel.j_ratio.evals": "count",
    "covariance.scalars.s": "s",
    "covariance.scalars.self_s": "s",
    "covariance.scalars.calls": "count",
    "covariance.scalars.separations": "count",
    "rkhs.squeeze_functional.s": "s",
    "rkhs.squeeze_functional.self_s": "s",
    "rkhs.mean_inward_field.s": "s",
    "field_sampler.drift_build.s": "s",
    "field_sampler.drift.s": "s",
    "field_sampler.drift.calls": "count",
    "field_sampler.assemble.self_s": "s",
    "field_sampler.assemble.matrices": "count",
    "field_sampler.assemble.bytes_computed": "bytes",
    "field_sampler.factor.s": "s",
    "field_sampler.factor.matrices": "count",
    "field_sampler.factor.fallback_frac": "ratio",
    "field_sampler.factor.jittered_frac": "ratio",
    "flow_engine.experiment.s": "s",
    "flow_engine.experiment.self_s": "s",
    "flow_engine.chunk_steps": "count",
    "flow_engine.path_steps": "count",
    "flow_engine.step_ms": "ms",
}
# exact per input: two traced jobs on one seed must agree on every one
EXACT_METRICS = tuple(k for k, u in LAYER_UNITS.items()
                      if u in ("count", "bytes", "ratio"))


class Tracer:
    """Spans and counters for one traced job; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index, start, end]
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def __enter__(self):
        for mod_name, attr, name, hook in TARGETS:
            module = importlib.import_module(f"ibflow.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Total and self seconds per span name, plus the counters. No
        target calls another target of the same span name, so totals
        count no interval twice."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += (end - start) - covered[idx]

        c = self.counters
        out = {
            "cli.parse_config.s": total["cli.parse_config"],
            "cli.emit.s": total["cli.emit"],
            "bessel.j_ratio.s": total["bessel.j_ratio"],
            "covariance.scalars.s": total["covariance.scalars"],
            "covariance.scalars.self_s": self_time["covariance.scalars"],
            "rkhs.squeeze_functional.s": total["rkhs.squeeze_functional"],
            "rkhs.squeeze_functional.self_s":
                self_time["rkhs.squeeze_functional"],
            "rkhs.mean_inward_field.s": total["rkhs.mean_inward_field"],
            "field_sampler.drift_build.s": total["field_sampler.drift_build"],
            "field_sampler.drift.s": total["field_sampler.drift"],
            "field_sampler.assemble.self_s": self_time["field_sampler.assemble"],
            "field_sampler.factor.s": total["field_sampler.factor"],
            "flow_engine.experiment.s": total["flow_engine.experiment"],
            "flow_engine.experiment.self_s": self_time["flow_engine.experiment"],
        }
        for key, unit in LAYER_UNITS.items():
            if unit in ("count", "bytes"):
                out[key] = c[key]
        factored = c["field_sampler.factor.matrices"]
        out["field_sampler.factor.fallback_frac"] = (
            c["field_sampler.factor.fallbacks"] / factored if factored else 0.0)
        out["field_sampler.factor.jittered_frac"] = (
            c["field_sampler.factor.jittered"] / factored if factored else 0.0)
        steps = c["flow_engine.chunk_steps"]
        out["flow_engine.step_ms"] = (
            1e3 * out["flow_engine.experiment.s"] / steps if steps else 0.0)
        return out
