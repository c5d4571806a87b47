"""Point-cloud flow integration and the Monte-Carlo experiments.

The flow is advanced by Euler steps x <- x + dM + v(x) dt, where dM is
an exact joint-Gaussian increment on the tracked points (the covariance
is factored again every step because the points move). Weak order one is all the
frequency and exponent estimates need. Paths are embarrassingly
parallel: path i draws from its own generator, seeded by
SeedSequence([seed, i]), so reports are bitwise reproducible for a given
config and seed, however the paths are cut into chunks.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .covariance import IbfModel
from .field_sampler import eval_drift, kernel_rows, pivoted_cholesky_batch

DEFAULT_STRIDE = 10
# a chunk's (B, m, m) factor at full rank, 64 paths at m = 128
_CHUNK_BYTES = 8 << 20
# each chunk pays the pivot loop's Python calls per rank column and step,
# so no chunk is cut below 64 paths, however large m is
_CHUNK_PATHS_MIN = 64
_CHUNK_PATHS_MAX = 1 << 12  # a path's generator holds about 1 KiB
_COLLAPSE_FLOOR = 1e-14
_DRAW_CAP = 1 << 16  # normals pre-drawn per chunk: 512 KiB
_DIAM_BYTES = 1 << 19  # one block of the diameter's squared distances


class PairCollapseError(RuntimeError):
    """A tracked pair shrank below the numeric floor."""

    def __init__(self, pair_index: int, step: int, separation: float):
        self.pair_index = pair_index
        self.step = step
        self.separation = separation
        super().__init__(
            f"pair {pair_index} collapsed at step {step} to separation "
            f"{separation:.3e} (floor {_COLLAPSE_FLOOR})")


# numerics below: the per-path (rank_min, rank_max, dropped_trace_max)
# arrays that _run_paths returns, for _aggregate_numerics

@dataclass(frozen=True)
class ExperimentResult:
    """What a path experiment measured: the snapshot times, each series
    by name (the CSV column it fills) as an (n_paths, k) array, k the
    snapshots or, for tracking, the cs, the per-path numerics and every
    statistic of the paths in aggregate."""

    times: np.ndarray
    series: dict
    numerics: tuple
    aggregate: dict


# ---------------------------------------------------------------------------
# observables

def diameter(points) -> float:
    """Largest pairwise distance of (N, d) points, exact O(N^2)."""
    pos = np.atleast_2d(np.asarray(points, dtype=float))
    return float(_diam_batch(pos[None])[0])


def curve_length(points, closed: bool = False) -> float:
    """Polyline length; a closed flag appends the wrap segment."""
    pos = np.atleast_2d(np.asarray(points, dtype=float))
    if pos.shape[0] < 2:
        return 0.0
    return float(_length_batch(pos[None], closed)[0])


def _diam_batch(x: np.ndarray) -> np.ndarray:
    b, n, _ = x.shape
    if n < 2:
        return np.zeros(b)
    # squared distances of a block of rows to the points from the block's
    # first on (earlier rows have met the rest), summed over the component
    # planes in component order, as np.linalg.norm sums them below d = 8;
    # all pairs' (B, N, N, d) differences at once would take over 100 MiB
    # at cli.MAX_COORDS. sqrt is monotone: the root of the largest square
    # is the largest distance
    planes = x.transpose(2, 0, 1).copy()
    rows = max(1, _DIAM_BYTES // (8 * b * n))
    best = np.zeros(b)
    for lo in range(0, n, rows):
        sq = None
        for p in planes:
            diff = p[:, lo:lo + rows, None] - p[:, None, lo:]
            diff *= diff
            sq = diff if sq is None else np.add(sq, diff, out=sq)
        np.maximum(best, sq.max(axis=(1, 2)), out=best)
    return np.sqrt(best)


def _length_batch(x: np.ndarray, closed: bool) -> np.ndarray:
    # in segment order: a pairwise sum's last bit would follow the batch
    seg = np.add.accumulate(np.linalg.norm(np.diff(x, axis=1), axis=-1),
                            axis=1)[:, -1]
    if closed:
        seg = seg + np.linalg.norm(x[:, -1, :] - x[:, 0, :], axis=-1)
    return seg


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial frequency."""
    z = 1.96
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# steppers

def step_count(span: float, dt: float) -> int:
    """Euler or RK4 steps of size dt over span, the last one partial."""
    return max(1, math.ceil(span / dt - 1e-9))


def _step_sizes(t1: float, dt: float):
    if t1 <= 0.0:
        raise ValueError("t1 must exceed 0")
    if dt <= 0.0 or dt > t1 * (1 + 1e-9):
        raise ValueError("dt must lie in (0, t1]")
    n = step_count(t1, dt)
    hs = np.full(n, dt)
    hs[-1] = t1 - (n - 1) * dt
    times = dt * np.arange(n + 1)
    times[-1] = t1
    return hs, times


def _simulate(model: IbfModel, x0: np.ndarray, t1: float, dt: float,
              gens, observer, drift: Callable | None = None,
              stride: int = DEFAULT_STRIDE, noise_scale: float = 1.0,
              path_offset: int = 0):
    """Batched Euler stepping of (B, N, d) tracer states from 0 to t1.

    observer(t, k, X) fires at 0 (k = 0), after every stride-th step k,
    and at t1 (the final partial step lands exactly on t1). It may move
    X in place; the next step starts from the moved points. Returns
    per-path (rank_min, rank_max, dropped_trace_max) of the increment
    covariance over the steps.
    """
    x = np.array(x0, dtype=float, copy=True)
    b, n_pts, d = x.shape
    hs, times = _step_sizes(t1, dt)
    rank_min = np.full(b, n_pts * d)
    rank_max = np.zeros(b, dtype=int)
    dropped_max = np.zeros(b)
    normals = _step_normals(gens, len(hs), n_pts * d)
    observer(times[0], 0, x)
    for k, h in enumerate(hs):
        delta = np.zeros_like(x)
        if drift is not None:
            delta += h * eval_drift(drift, x)
        factor, rank, dropped = pivoted_cholesky_batch(
            *kernel_rows(model, x), path_offset=path_offset, step=k)
        np.minimum(rank_min, rank, out=rank_min)
        np.maximum(rank_max, rank, out=rank_max)
        np.maximum(dropped_max, dropped, out=dropped_max)
        z = next(normals)
        # F z over F's columns, the batch's used ones, in pivot order: a
        # path's columns past its own rank are exact zeros and change no
        # sum; F is freed here, so the next step's factor is handed its
        # heap block back, where holding F would keep two buffers live
        inc = np.zeros((b, n_pts * d))
        for j in range(factor.shape[-1]):
            inc += z[:, j, None] * factor[:, :, j]
        del factor
        delta += (noise_scale * math.sqrt(h)) * inc.reshape(b, n_pts, d)
        x += delta
        if (k + 1) % stride == 0 or k + 1 == len(hs):
            observer(times[k + 1], k + 1, x)
    return rank_min, rank_max, dropped_max


def ode_flow(drift: Callable, x0, t1: float, dt: float, stride: int = 1):
    """Classical RK4 integration of xdot = V(x) from 0 to t1 for (m, d)
    start points; returns (times, states), the states (snapshots, m, d)
    recorded where _simulate observes: at 0, after every stride-th step
    and after the last, so step k's state is states[ceil(k / stride)].
    """
    x = np.asarray(x0, dtype=float)
    hs, times = _step_sizes(t1, dt)
    kept = [*range(0, len(hs), stride), len(hs)]
    out = np.empty((len(kept),) + x.shape)
    out[0] = x
    for k, h in enumerate(hs):
        k1 = eval_drift(drift, x)
        k2 = eval_drift(drift, x + 0.5 * h * k1)
        k3 = eval_drift(drift, x + 0.5 * h * k2)
        k4 = eval_drift(drift, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % stride == 0 or k + 1 == len(hs):
            out[-(-(k + 1) // stride)] = x
    return times[kept], out


# ---------------------------------------------------------------------------
# experiment scaffolding

def _path_gens(seed: int, lo: int, hi: int) -> list[np.random.Generator]:
    """Path i's generator, seeded by SeedSequence([seed, i]): distinct
    (seed, path) pairs never share a stream (NEP 19)."""
    return [np.random.default_rng(np.random.SeedSequence([seed, i]))
            for i in range(lo, hi)]


def _step_normals(gens, n_steps: int, width: int):
    """Yield each step's (B, width) standard normals, row i from gens[i].

    Each path's normals are drawn for a block of steps at once into one
    buffer of at most _DRAW_CAP values; a block draw equals the same
    per-step draws bitwise. A yielded array is overwritten by the next
    block, so use it before taking the next step's.
    """
    block = max(1, min(n_steps, _DRAW_CAP // (len(gens) * width)))
    buf = np.empty((len(gens), block, width))
    for lo in range(0, n_steps, block):
        steps = min(block, n_steps - lo)
        for g, row in zip(gens, buf):
            g.standard_normal(out=row[:steps])
        for j in range(steps):
            yield buf[:, j]


def _chunk_paths(m: int, n_paths: int) -> int:
    """Paths per chunk for m coordinates a path: as many as keep the
    chunk's (B, m, m) factor within _CHUNK_BYTES, but from
    _CHUNK_PATHS_MIN up to _CHUNK_PATHS_MAX, and no more than n_paths.
    A path's results do not depend on its chunk, so they do not depend
    on this choice either."""
    fit = max(_CHUNK_PATHS_MIN, _CHUNK_BYTES // (8 * m * m))
    return max(1, min(fit, _CHUNK_PATHS_MAX, n_paths))


def _run_paths(model: IbfModel, x0, T: float, dt: float, seed: int,
               n_paths: int, observe, start=None, **step):
    """Step paths 0..n_paths-1 from 0 to T by _simulate, a _chunk_paths
    chunk at a time.

    x0 is the (N, d) start of every path; start(gens, X), if given, moves
    a chunk's (B, N, d) copy of it by draws from the chunk's generators,
    before any step normals. observe(t, k, X, lo) sees the chunk from
    path lo at each snapshot and returns per-path (B,) values by name, or
    None. Returns the recorded times, each value as an (n_paths,
    snapshots) array, and per-path (rank_min, rank_max,
    dropped_trace_max) over all steps.
    """
    def chunk(lo: int, hi: int):
        gens = _path_gens(seed, lo, hi)
        x = np.broadcast_to(x0, (hi - lo,) + x0.shape)
        if start is not None:
            x = x.copy()
            start(gens, x)
        times, rows = [], []

        def observer(t, k, x):
            row = observe(t, k, x, lo)
            if row is not None:
                times.append(float(t))
                rows.append(row)

        numerics = _simulate(model, x, T, dt, gens, observer,
                             path_offset=lo, **step)
        return times, {key: np.column_stack([r[key] for r in rows])
                       for key in rows[0]}, numerics

    size = _chunk_paths(x0.size, n_paths)
    spans = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    times, values, numerics = zip(*[chunk(lo, hi) for lo, hi in spans])
    return (np.array(times[0]),
            {key: np.vstack([v[key] for v in values]) for key in values[0]},
            tuple(np.concatenate(part) for part in zip(*numerics)))


def boundary_shell(d: int, radius: float, n: int) -> np.ndarray:
    """Tracer discretization of a sphere: n equal angles in d=2, the
    Fibonacci spiral in d=3, normalized Gaussian draws from seed 0 (so
    shells are reproducible) beyond."""
    if n < 1:
        raise ValueError("need at least one tracer")
    if d == 2:
        ang = 2.0 * math.pi * np.arange(n) / n
        return radius * np.column_stack([np.cos(ang), np.sin(ang)])
    if d == 3:
        i = np.arange(n) + 0.5
        z = 1.0 - 2.0 * i / n
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = math.pi * (1.0 + math.sqrt(5.0)) * i
        return radius * np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raw = np.random.default_rng(0).standard_normal((n, d))
    return radius * (raw / np.linalg.norm(raw, axis=1, keepdims=True))


def _aggregate_numerics(numerics) -> dict:
    """What the factorization did over every step of every path of a
    run's per-path numerics."""
    rank_min, rank_max, dropped = numerics
    return {"rank_min": int(rank_min.min()), "rank_max": int(rank_max.max()),
            "dropped_trace_max": float(dropped.max())}


def _start_points(points, what: str) -> np.ndarray:
    """The (N, d) start of every path, checked finite."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{what} must be finite")
    return pts


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return math.nan, math.nan
    if values.size == 1:
        return float(values[0]), math.nan
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


# ---------------------------------------------------------------------------
# experiments

def squeeze_experiment(model: IbfModel, R: float, delta: float, T1: float,
                       T2: float, n_boundary: int, dt: float, n_paths: int,
                       drift: Callable | None = None, seed: int = 0,
                       snapshot_stride: int = DEFAULT_STRIDE,
                       mode: str = "squeeze") -> ExperimentResult:
    """Monte-Carlo frequency of uniform ball squeezing (or expansion).

    squeeze: tracers on the sphere of radius R+delta must stay strictly
    inside B(0, R-delta) at every snapshot in [T1, T2]. expand: the
    image of the sphere of radius R-delta must clear B(0, R+delta) and
    still enclose it -- the forward reading of the inverse-image test;
    enclosure is certified by the winding number of the ordered tracer
    polygon in d=2 and by clearance alone in higher dimensions (the
    shell starts inside the target ball, so a non-enclosing excursion
    would have to cross it).
    """
    if not (0.0 < T1 < T2):
        raise ValueError("need 0 < T1 < T2")
    if n_boundary < 8:
        raise ValueError("need at least 8 boundary tracers")
    if not (0.0 < delta < R):
        raise ValueError("need 0 < delta < R")
    if mode not in ("squeeze", "expand"):
        raise ValueError("mode must be 'squeeze' or 'expand'")

    if mode == "squeeze":
        tracers = boundary_shell(model.d, R + delta, n_boundary)
    else:
        tracers = boundary_shell(model.d, R - delta, n_boundary)

    def _encloses_origin(x: np.ndarray) -> np.ndarray:
        # winding number of the ordered tracer polygon about 0 (d=2)
        ang = np.arctan2(x[:, :, 1], x[:, :, 0])
        gaps = np.diff(np.concatenate([ang, ang[:, :1]], axis=1), axis=1)
        gaps = np.mod(gaps + math.pi, 2.0 * math.pi) - math.pi
        winding = np.rint(gaps.sum(axis=1) / (2.0 * math.pi))
        return np.abs(winding) == 1

    def observe(t, k, x, lo):
        radii = np.linalg.norm(x, axis=-1)
        if mode == "squeeze":
            flags = np.all(radii < R - delta, axis=1)
        else:
            flags = np.all(radii > R + delta, axis=1)
            if model.d == 2:
                flags &= _encloses_origin(x)
        return {"diam": _diam_batch(x), "contained": flags}

    times, rec, numerics = _run_paths(model, tracers, T2, dt, seed, n_paths,
                                      observe, drift=drift,
                                      stride=snapshot_stride)
    diams, flags = rec["diam"], rec["contained"]

    window = (times >= T1 - 1e-12) & (times <= T2 + 1e-12)
    success = np.all(flags[:, window], axis=1)
    n_success = int(success.sum())
    lo_w, hi_w = wilson_interval(n_success, n_paths)
    term_mean, term_se = _mean_se(diams[:, -1])

    aggregate = {
        "success_count": n_success,
        "n_paths": n_paths,
        "success_frequency": n_success / n_paths,
        "wilson_low": lo_w,
        "wilson_high": hi_w,
        "terminal_diameter_mean": term_mean,
        "terminal_diameter_se": term_se,
        **_aggregate_numerics(numerics),
        "caveat": ("event estimated on a finite tracer shell at snapshot "
                   "times; a necessary-condition reading of the continuum "
                   "statement"),
    }
    if drift is None:
        aggregate["note"] = ("untilted frequencies can be unobservably small "
                             "at this scale; the tilted run is the "
                             "quantitative surrogate")
    return ExperimentResult(times, rec, numerics, aggregate)


def lyapunov_estimate(model: IbfModel, T: float, dt: float, n_pairs: int,
                      renorm_eps: float = 1e-4,
                      seed: int = 0) -> ExperimentResult:
    """Top Lyapunov exponent from pair separations under shared noise.

    Each pair (x, x + eps u) evolves in one two-point cloud; the log
    separation ratio accumulates, renormalizing back to eps whenever the
    separation leaves [eps/10, 10 eps] to stay in the linearization
    regime without differentiating the covariance. times is [T]; the
    series "estimate" holds each pair's rate (n_pairs, 1), and the
    aggregate their mean "estimate" and its "standard_error".
    """
    if not (1e-8 < renorm_eps < 1e-2):
        raise ValueError("renorm_eps must lie in (1e-8, 1e-2)")
    d = model.d
    acc = np.zeros(n_pairs)  # log growth per pair; chunks own disjoint slices

    def start(gens, x):
        u = np.stack([g.standard_normal(d) for g in gens])
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x[:, 1, :] = renorm_eps * u

    def renormalize(t, k, x, lo):
        log_growth = acc[lo:lo + len(x)]
        sep = x[:, 1, :] - x[:, 0, :]
        r = np.linalg.norm(sep, axis=1)
        if np.any(r < _COLLAPSE_FLOOR):
            i = int(np.argmin(r))
            # k steps are taken; name the last, 0-based like
            # CovarianceFactorError's step
            raise PairCollapseError(lo + i, k - 1, float(r[i]))
        out_of_band = (r < 0.1 * renorm_eps) | (r > 10.0 * renorm_eps)
        if np.any(out_of_band):
            log_growth[out_of_band] += np.log(r[out_of_band] / renorm_eps)
            x[out_of_band, 1, :] = (x[out_of_band, 0, :]
                                    + renorm_eps * sep[out_of_band]
                                    / r[out_of_band, None])
        if t < T:
            return None
        r = np.linalg.norm(x[:, 1, :] - x[:, 0, :], axis=1)
        log_growth += np.log(r / renorm_eps)
        return {"estimate": log_growth / T}

    times, rec, numerics = _run_paths(model, np.zeros((2, d)), T, dt, seed,
                                      n_pairs, renormalize, start=start,
                                      stride=1)
    est, se = _mean_se(rec["estimate"][:, 0])
    aggregate = {"estimate": est, "standard_error": se,
                 **_aggregate_numerics(numerics)}
    return ExperimentResult(times, rec, numerics, aggregate)


def tracking_experiment(model: IbfModel, drift: Callable, cs, x0,
                        T: float, dt: float, n_paths: int, seed: int = 0,
                        snapshot_stride: int = DEFAULT_STRIDE
                        ) -> ExperimentResult:
    """Sup deviation between the rescaled tilted flow and the drift ODE.

    For each c in cs, simulates Y <- Y + V(Y) dt + c^{-1/2} dM from the
    (N, d) points x0 on the same streams and compares, at the snapshots
    in times, against one RK4 flow of V from the same points; the
    deviation scale shrinks like c^{-1/2}. The series "sup_deviation" is
    (n_paths, len(cs)), the numerics are each path's over every c, and
    the aggregate holds each c's mean and se ("per_c") and the log-log
    "slope" of the means against c.
    """
    cs = [float(c) for c in cs]
    if not (cs and all(1.0 <= c < math.inf for c in cs)):
        raise ValueError("need at least one c, each finite and >= 1")
    if len(set(cs)) < len(cs):
        raise ValueError("each c must be distinct")
    pts = _start_points(x0, "x0")
    _, ref = ode_flow(drift, pts, T, dt, snapshot_stride)

    def observe(t, k, x, lo):
        return {"dev": np.linalg.norm(x - ref[-(-k // snapshot_stride)],
                                      axis=-1).max(axis=1)}

    sups, runs = [], []
    for c in cs:
        times, rec, numerics = _run_paths(
            model, pts, T, dt, seed, n_paths, observe, drift=drift,
            stride=snapshot_stride, noise_scale=1.0 / math.sqrt(c))
        sups.append(rec["dev"].max(axis=1))
        runs.append(numerics)
    stats = [_mean_se(s) for s in sups]
    slope = math.nan
    if len(cs) >= 2:
        slope = float(np.polyfit(np.log(cs), np.log([m for m, _ in stats]),
                                 1)[0])
    rank_min, rank_max, dropped = zip(*runs)
    numerics = (np.minimum.reduce(rank_min), np.maximum.reduce(rank_max),
                np.maximum.reduce(dropped))
    aggregate = {"per_c": {str(c): {"mean": m, "se": se}
                           for c, (m, se) in zip(cs, stats)},
                 "slope": slope, **_aggregate_numerics(numerics)}
    return ExperimentResult(times, {"sup_deviation": np.column_stack(sups)},
                            numerics, aggregate)


def length_decay_experiment(model: IbfModel, curve, T: float,
                            dt: float, n_paths: int, seed: int = 0,
                            snapshot_stride: int = DEFAULT_STRIDE,
                            closed: bool = False) -> ExperimentResult:
    """Evolution of polyline length and diameter under the flow.

    The curve is the (N, d) vertices, in order. Reports per-path series
    of length and diameter, the fraction of paths whose diameter shrank
    below a tenth of its start, and the terminal rates (1/T) log(L_T /
    L_0) overall and on that subset.
    """
    pts = _start_points(curve, "curve vertices")
    if pts.shape[0] < 2:
        raise ValueError("curve needs at least two vertices")
    len0 = curve_length(pts, closed=closed)
    if not 0.0 < len0 < math.inf:
        raise ValueError(f"curve length {len0!r} must be positive and finite")
    diam0 = diameter(pts)

    def observe(t, k, x, lo):
        dia = _diam_batch(x)
        ln = _length_batch(x, closed)
        # vertex gaps cannot exceed the polyline length
        broken = ~(dia <= ln * (1.0 + 1e-12) + 1e-12)
        if broken.any():
            i = int(np.argmax(broken))
            raise FloatingPointError(
                f"path {lo + i}, t = {t:.17g}: diameter {dia[i]:.17g} "
                f"exceeds polyline length {ln[i]:.17g}")
        return {"diam": dia, "length": ln}

    times, rec, numerics = _run_paths(model, pts, T, dt, seed, n_paths,
                                      observe, stride=snapshot_stride)
    diams, lens = rec["diam"], rec["length"]

    terminal_rate = np.log(lens[:, -1] / len0) / T
    shrunk = diams[:, -1] < 0.1 * diam0
    rate_mean, rate_se = _mean_se(terminal_rate)
    sub_mean, sub_se = _mean_se(terminal_rate[shrunk])

    aggregate = {
        "initial_length": len0,
        "initial_diameter": diam0,
        "shrink_fraction": float(shrunk.mean()),
        "n_shrunk": int(shrunk.sum()),
        "terminal_rate_mean": rate_mean,
        "terminal_rate_se": rate_se,
        "shrunk_terminal_rate_mean": sub_mean,
        "shrunk_terminal_rate_se": sub_se,
        "terminal_rates": [float(v) for v in terminal_rate],
        "shrunk_flags": [bool(v) for v in shrunk],
        **_aggregate_numerics(numerics),
        "note": ("rates are (1/T) log(L_T / L_0); the shrink event uses the "
                 "finite-T surrogate diam(T) < diam(0)/10"),
    }
    return ExperimentResult(times, rec, numerics, aggregate)
