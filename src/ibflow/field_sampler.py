"""Exact joint-Gaussian increments on finite point sets, plus drift fields.

For Euler stepping only the increment law on the tracked points matters,
and on a finite point set that law is exactly N(0, C * dt) with block
covariance C[i][j] = b(x_i - x_j). C is routinely singular (a band-limited
field has few degrees of freedom on a small or dense cloud), so it is
factored by a rank-revealing pivoted Cholesky: a degenerate law is
sampled exactly, and the rank and the dropped trace are reported. The
factor reads C one kernel row per pivot, built on demand from
tensor_field; C itself is never assembled.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import rkhs
from .covariance import (CubicTable, IbfModel, ModelError, hermite_rows,
                         tensor_field)

_EPS = np.finfo(float).eps
# Kernel scalars served from the mid-range profile are accurate to about
# 1e-12, so the C whose rows the factor reads can have eigenvalues near
# -1e-12 (-4.5e-13 measured on a 128 x 128 shell covariance), and pivots
# just above the stop tolerance amplify that in the residual diagonal
# (-7.8e-11 measured on a contracting 24-point circle). Only a residual
# diagonal below -sqrt(eps) max diag(C) is taken to mean C is not PSD.
_PSD_SLACK = float(np.sqrt(_EPS))


class CovarianceFactorError(np.linalg.LinAlgError):
    """An increment covariance that is non-finite or not PSD."""

    def __init__(self, path_index: int, step: int | None, problem: str):
        self.path_index = path_index
        self.step = step
        where = f"path {path_index}" + ("" if step is None else f", step {step}")
        super().__init__(f"{where}: increment covariance {problem}")


class DriftEvaluationError(RuntimeError):
    """Drift queried outside its domain of definition."""


# ---------------------------------------------------------------------------
# drift fields

@dataclass(frozen=True, eq=False)
class DriftField:
    """Deterministic, autonomous drift v(x) with a global Lipschitz bound.

    field maps (m, d) points to their (m, d) values; lipschitz bounds
    |v(x) - v(y)| / |x - y| and is computed once, when the drift is built.
    No drift is None, not a zero field.
    """

    field: Callable[[np.ndarray], np.ndarray]
    lipschitz: float


def drift_linear(matrix) -> DriftField:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        raise ModelError("linear drift needs a finite square matrix")
    return DriftField(lambda pts: pts @ a.T, float(np.linalg.norm(a, 2)))


# the radial drift's profile knots: evenly spaced on [0, RADIAL_SPAN rho]
RADIAL_SPAN = 12.0
RADIAL_KNOTS = 2048


def radial_resolution(d: int) -> int:
    """The sphere-rule resolution of a radial drift that names none."""
    return {2: 256, 3: 24}.get(d, 512)


def _radial_profile(model: IbfModel, rho: float,
                    rule: rkhs.SphereRule) -> CubicTable:
    """The radial profile of the mean inward field at radius rho: the
    not-a-knot cubic spline through its sphere quadrature by rule at the
    RADIAL_KNOTS radii, stored one cubic per interval."""
    r_top = RADIAL_SPAN * rho
    grid = np.linspace(0.0, r_top, RADIAL_KNOTS)
    probe = np.zeros((RADIAL_KNOTS, model.d))
    probe[:, 0] = grid
    g = rkhs.mean_inward_field(model, rho, rule, probe)[:, 0]
    g[0] = 0.0  # exact by symmetry of the sphere average
    rows = hermite_rows(g, _not_a_knot_slopes(grid, g), np.diff(grid))
    return CubicTable(np.array(rows), 0.0, grid[1], r_top)


def drift_radial_rkhs(model: IbfModel, rho: float, scale: float = 1.0,
                      resolution: int | None = None) -> DriftField:
    """Drift scale * V with V the mean inward field at radius rho.

    V is radially symmetric, so its radial profile is tabulated once
    (_radial_profile, whose interpolation error is far below the
    quadrature's) and evaluated by the same direct-index Horner code as
    the kernel's profile; queries beyond RADIAL_SPAN rho fall back to
    direct quadrature. The bound is the larger of the profile's steepest
    knot slope and its steepest secant through the origin.
    """
    if rho <= 0.0:
        raise ModelError("rho must be > 0")
    rho, scale = float(rho), float(scale)
    rule = rkhs.sphere_rule(model.d, radial_resolution(model.d)
                            if resolution is None else resolution)
    table = _radial_profile(model, rho, rule)

    def field(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        inside = r <= table.hi
        g = np.empty_like(r)
        g[inside] = table(r[inside])[0]
        if not inside.all():
            far = pts[~inside]
            g[~inside] = np.einsum(
                "md,md->m", rkhs.mean_inward_field(model, rho, rule, far),
                far) / r[~inside]
        unit = np.divide(pts, r[..., None], out=np.zeros_like(pts),
                         where=r[..., None] > 0.0)
        return scale * g[..., None] * unit

    _, c1, c2, c3 = table.rows
    # knot slopes: each piece's at its first knot, the last piece's at hi
    u = table.hi - (table.lo + (c1.size - 1) * table.h)
    end = c1[-1] + u * (2.0 * c2[-1] + 3.0 * u * c3[-1])
    slope = max(np.max(np.abs(c1)), abs(end))
    grid = np.linspace(table.lo, table.hi, c1.size + 1)[1:]
    secant = np.max(np.abs(table(grid)[0] / grid))
    return DriftField(field, abs(scale) * float(max(slope, secant)))


def _not_a_knot_slopes(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through (x, f), at
    least 4 knots: continuous second derivatives at interior knots and
    a continuous third derivative at the second and the next-to-last
    knot (de Boor, "A Practical Guide to Splines", ch. IV), each row in
    units of the knot spacings, solved by forward elimination and back
    substitution.
    """
    dx = np.diff(x).tolist()
    secant = (np.diff(f) / np.diff(x)).tolist()
    n = len(x)
    lower, diag, upper, rhs = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    for i in range(1, n - 1):
        lower[i] = dx[i]
        diag[i] = 2.0 * (dx[i - 1] + dx[i])
        upper[i] = dx[i - 1]
        rhs[i] = 3.0 * (dx[i] * secant[i - 1] + dx[i - 1] * secant[i])
    span = x[2] - x[0]
    diag[0], upper[0] = dx[1], span
    rhs[0] = ((dx[0] + 2.0 * span) * dx[1] * secant[0]
              + dx[0] ** 2 * secant[1]) / span
    span = x[-1] - x[-3]
    lower[-1], diag[-1] = span, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * secant[-2]
               + (2.0 * span + dx[-1]) * dx[-2] * secant[-1]) / span
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    g = [0.0] * n
    g[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        g[i] = (rhs[i] - upper[i] * g[i + 1]) / diag[i]
    return np.array(g)


def drift_custom_table(axes, values) -> DriftField:
    """Multilinear interpolation of values (grid shape plus a trailing
    component axis) on the grid axes, constant beyond it. The bound is
    the steepest slope between neighbouring grid values along any axis.
    """
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    table = np.asarray(values, dtype=float)
    d = len(axes)
    if table.shape != tuple(a.size for a in axes) + (d,):
        raise ModelError("table shape must be grid shape plus a trailing "
                         "component axis")
    if not np.all(np.isfinite(table)):
        raise ModelError("table values must be finite")
    for a in axes:
        if a.size < 2 or np.any(np.diff(a) <= 0.0):
            raise ModelError("each axis needs at least 2 strictly increasing points")

    def field(pts: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(pts)):
            raise DriftEvaluationError("custom_table queried at non-finite point")
        clipped = np.column_stack([np.clip(pts[:, k], a[0], a[-1])
                                   for k, a in enumerate(axes)])
        return _multilinear(axes, table, clipped)

    return DriftField(field, max(
        float(np.max(np.abs(np.moveaxis(np.diff(table, axis=k), k, -1)
                            / np.diff(a)))) for k, a in enumerate(axes)))


def _multilinear(axes: tuple[np.ndarray, ...], table: np.ndarray,
                 pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of table (grid shape plus a trailing
    component axis) at points pts of shape (m, d) inside the grid: per
    axis the cell below each coordinate and its fraction across it,
    then the 2^d cell corners weighted by products of fractions."""
    cells, fracs = [], []
    for a, x in zip(axes, pts.T):
        cell = np.clip(np.searchsorted(a, x, side="right") - 1, 0, a.size - 2)
        cells.append(cell)
        fracs.append((x - a[cell]) / (a[cell + 1] - a[cell]))
    out = np.zeros((pts.shape[0], table.shape[-1]))
    for corner in itertools.product((0, 1), repeat=len(axes)):
        weight = np.ones(pts.shape[0])
        for up, t in zip(corner, fracs):
            weight *= t if up else 1.0 - t
        out += weight[:, None] * table[tuple(c + up for c, up in
                                             zip(cells, corner))]
    return out


def eval_drift(v: DriftField, x) -> np.ndarray:
    """The drift at x, vectorized over leading axes."""
    pts = np.asarray(x, dtype=float)
    return v.field(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape)


# ---------------------------------------------------------------------------
# kernel rows and the factorization

def kernel_rows(model: IbfModel, x: np.ndarray):
    """pivoted_cholesky_batch's row source and diagonal (exactly 1) for
    the covariances C_b[i][j] = b(x_i - x_j) of point sets (B, N, d).

    Row (i, a) is component a of tensor_field(x_i - x_j) over all j; one
    call serves the d rows of point i, held until a path pivots on
    another point.
    """
    x = np.asarray(x, dtype=float)
    nb, n, d = x.shape
    if d != model.d:
        raise ModelError(f"points must have dimension d = {model.d}")
    paths = np.arange(nb)
    held = [None, None]  # per-path point, its (B, N, d, d) tensors

    def row(p: np.ndarray) -> np.ndarray:
        point, comp = np.divmod(p, d)
        if held[0] is None or (point != held[0]).any():
            held[:] = point, tensor_field(model, x[paths, point, None] - x)
        return held[1][paths, :, comp].reshape(nb, n * d)

    return row, np.ones((nb, n * d))


def pivoted_cholesky_batch(row, diag: np.ndarray, path_offset: int = 0,
                           step: int | None = None):
    """Rank-revealing factors of a batch of PSD matrices C_b of size m,
    read as diag (B, m) and row(p), a fresh (B, m) array of row p[b] of
    each C_b, one per pivot (Harbrecht, Peters and Schneider 2012).

    Diagonally pivoted, left-looking Cholesky (Higham 1990; Hammarling,
    Higham and Lucas 2007), one vectorised update across the batch per
    pivot. Matrix b stops once its largest remaining Schur diagonal is
    <= m * eps * max diag(C_b), so a singular C is factored as it is,
    not perturbed. Returns (F, rank, dropped): F has shape (B, m, m)
    with zero columns from rank[b] on, and F F^T = C up to the dropped
    trace, the residual diagonal clipped at 0.

    Each matrix's pivots and arithmetic are its own, so a batch factors
    bitwise as its matrices would one at a time. F keeps all m columns
    because a product over the batch's largest rank would round a
    path's increment differently with the ranks of its batch-mates.

    Raises CovarianceFactorError, naming path path_offset + b and the
    step, when what is read of C_b is not finite or a residual diagonal
    falls below -sqrt(eps) * max diag(C_b) (C_b is not PSD).
    """
    def check_finite(values):
        if not np.isfinite(values).all():
            b = int(np.argmin(np.isfinite(values).all(axis=1)))
            raise CovarianceFactorError(path_offset + b, step, "is not finite")

    diag = np.asarray(diag, dtype=float)
    check_finite(diag)
    nb, m = diag.shape
    scale = diag.max(axis=1, initial=0.0)
    tol = m * _EPS * scale
    resid = diag.copy()          # Schur diagonal, -inf once pivoted
    keep = np.ones((nb, m))      # 0 on pivoted rows: their later entries are 0
    factor = np.zeros((nb, m, m))
    f_rows = factor.reshape(nb * m, m)
    flat_resid = resid.reshape(-1)
    flat_keep = keep.reshape(-1)
    base = np.arange(nb) * m
    for k in range(m):
        pivot = resid.argmax(axis=1)
        idx = base + pivot
        top = flat_resid[idx]
        going = top > tol
        if going.all():
            root = np.sqrt(top)
            done = idx
        elif going.any():
            root = np.sqrt(np.where(going, top, np.inf))  # a stopped column is 0
            done = idx[going]
        else:
            break
        # column k from the pivot rows (C is symmetric) and the columns so far
        col = row(pivot)
        check_finite(col)
        if k:
            col -= (factor[:, :, :k] @ f_rows[idx, :k, None])[..., 0]
        col *= keep
        col = np.divide(col, root[:, None], out=factor[:, :, k])
        resid -= col * col
        flat_resid[done] = -np.inf
        flat_keep[done] = 0.0
    rank = m - np.count_nonzero(keep, axis=1)
    left = np.where(keep > 0.0, resid, 0.0)
    worst = left.min(axis=1, initial=0.0)
    bad = worst < -_PSD_SLACK * scale
    if bad.any():
        b = int(np.argmax(bad))
        raise CovarianceFactorError(
            path_offset + b, step,
            f"is not positive semidefinite (residual diagonal {worst[b]:.3e})")
    return factor, rank, np.maximum(left, 0.0).sum(axis=1)
