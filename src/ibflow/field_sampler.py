"""Exact joint-Gaussian increments on finite point sets, plus drift fields.

For Euler stepping only the increment law on the tracked points matters,
and on a finite point set that law is exactly N(0, C * dt) with block
covariance C[i][j] = b(x_i - x_j). C is routinely singular (a band-limited
field has few degrees of freedom on a small or dense cloud), so it is
factored by a rank-revealing pivoted Cholesky: a degenerate law is
sampled exactly, and the rank and the dropped trace are reported. The
factor reads C one kernel row per pivot and C itself is never
assembled: the scalars of a pivot point's separations are held per
point, and each row builds only its own component from them. The factor
is held by columns, one contiguous slab of the batch per column, and is
returned at its used width: F has shape (B, m, r) with r the batch's
largest rank, so the memory a step writes follows the rank. A path's
columns past its own rank are exact zeros, so its increment, summed over
F's r columns, does not depend on its batch-mates.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

import numpy as np

from . import rkhs
from .covariance import (IbfModel, ModelError, PiecewiseTable, hermite_rows,
                         tensor_scalars)

_EPS = np.finfo(float).eps
# Kernel scalars are accurate to a few eps, so the C whose rows the
# factor reads can still have eigenvalues a little below 0 (-8.4e-15
# measured on a 128 x 128 shell covariance), and pivots just above the
# stop tolerance amplify rounding in the residual diagonal (-3.8e-15 at
# worst on a 64-tracer tilted squeeze, -1.2e-15 on a contracting
# 24-point circle). Only a residual diagonal below -sqrt(eps) max diag(C),
# some seven orders of magnitude beyond that rounding, is taken to mean C
# is not PSD.
_PSD_SLACK = float(np.sqrt(_EPS))
# numpy advises huge pages for a buffer of 4 MiB or more, and each huge
# page is resident whole once one of its bytes is written
_HUGE_PAGE_BYTES = 1 << 22


class CovarianceFactorError(np.linalg.LinAlgError):
    """An increment covariance that is non-finite or not PSD."""

    def __init__(self, path_index: int, step: int | None, problem: str):
        self.path_index = path_index
        self.step = step
        where = f"path {path_index}" + ("" if step is None else f", step {step}")
        super().__init__(f"{where}: increment covariance {problem}")


# ---------------------------------------------------------------------------
# drifts: deterministic, autonomous v(x), each a function that maps (m, d)
# points to their (m, d) values; no drift is None, not a zero field

def drift_linear(matrix) -> Callable[[np.ndarray], np.ndarray]:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        raise ModelError("linear drift needs a finite square matrix")
    return lambda pts: pts @ a.T


# the radial drift's profile knots: evenly spaced on [0, RADIAL_SPAN rho]
RADIAL_SPAN = 12.0
RADIAL_KNOTS = 2048


def _radial_profile(model: IbfModel, rho: float) -> PiecewiseTable:
    """The radial profile G of the mean inward field at radius rho as
    the cubic Hermite interpolant of its exact values and slopes
    (rkhs.inward_profile) at the RADIAL_KNOTS knots, one cubic per
    interval: a table of one function, rows (4, 1, RADIAL_KNOTS - 1)."""
    h = RADIAL_SPAN * rho / (RADIAL_KNOTS - 1)
    knots = h * np.arange(RADIAL_KNOTS)
    g, dg = rkhs.inward_profile(model, rho, knots)
    return PiecewiseTable(hermite_rows(h, g[None], dg[None]), 0.0, h,
                          knots[-1])


def drift_radial_rkhs(model: IbfModel, rho: float, scale: float = 1.0
                      ) -> Callable[[np.ndarray], np.ndarray]:
    """Drift scale * V with V the mean inward field at radius rho.

    V is radially symmetric with a closed-form profile (Bessel integral
    against m_p; rkhs.inward_profile), tabulated once (_radial_profile)
    and evaluated by the same direct-index Horner code as the kernel's
    profile; queries beyond RADIAL_SPAN rho evaluate the profile
    directly. A model with mu1 = 0 has V = 0 and raises ModelError.
    """
    if rho <= 0.0:
        raise ModelError("rho must be > 0")
    rho, scale = float(rho), float(scale)
    table = _radial_profile(model, rho)

    def field(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        inside = r <= table.hi
        far = ~inside & (r < np.inf)
        g = np.full_like(r, np.nan)  # a non-finite point has no drift
        g[inside] = table(r[inside])[0]
        if far.any():
            g[far] = rkhs.inward_profile(model, rho, r[far])[0]
        unit = np.divide(pts, r[..., None], out=np.zeros_like(pts),
                         where=r[..., None] > 0.0)
        return scale * g[..., None] * unit

    return field


def drift_custom_table(axes, values) -> Callable[[np.ndarray], np.ndarray]:
    """Multilinear interpolation of values (grid shape plus a trailing
    component axis) on the grid axes, constant beyond it (an infinite
    coordinate included). A NaN point has no drift: its value is NaN, so
    the factor names its path and step."""
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
        clipped = np.column_stack([np.clip(pts[:, k], a[0], a[-1])
                                   for k, a in enumerate(axes)])
        return _multilinear(axes, table, clipped)

    return field


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


def eval_drift(v: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """The drift at x, vectorized over leading axes."""
    pts = np.asarray(x, dtype=float)
    return v(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape)


# ---------------------------------------------------------------------------
# kernel rows and the factorization

def kernel_rows(model: IbfModel, x: np.ndarray):
    """pivoted_cholesky_batch's row source and diagonal (exactly 1) for
    the covariances C_b[i][j] = b(x_i - x_j) of point sets (B, N, d).

    Row (i, a) is component a of the tensors b(x_i - x_j) over all j,
    bitwise as the dense tensor_field oracle in tests/conftest.py gives
    it: entry (j, c) is coef * (dx_a * dx_c),
    plus B_N where c = a, with dx = x_i - x_j and (coef, B_N) from
    covariance.tensor_scalars. dx, coef and B_N of each path's pivot
    point are computed once and held while every path pivots on the same
    point as at the last row; a row builds only its own component from
    them.
    """
    x = np.asarray(x, dtype=float)
    nb, n, d = x.shape
    if d != model.d:
        raise ModelError(f"points must have dimension d = {model.d}")
    paths = np.arange(nb)
    planes = x.transpose(2, 0, 1).copy()  # (d, B, N), one per component
    held = [None, None, None, None]  # per-path point, dx (d, B, N), coef, B_N

    def row(p: np.ndarray) -> np.ndarray:
        point, comp = np.divmod(p, d)
        if held[0] is None or (point != held[0]).any():
            dx = planes[:, paths, point][:, :, None] - planes
            held[:] = point, dx, *tensor_scalars(model, dx)
        _, dx, coef, b_n = held
        lead = dx[comp, paths]
        out = np.empty((nb, n, d))
        for c in range(d):
            part = lead * dx[c]
            part *= coef
            out[..., c] = part
        out[paths, :, comp] += b_n
        return out.reshape(nb, n * d)

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
    not perturbed. Returns (F, rank, dropped): F has shape (B, m, r) with
    r = max(rank), zero columns from rank[b] on, and F F^T = C up to the
    dropped trace, the residual diagonal clipped at 0.

    F is held by columns, in one (slabs, B, m) buffer whose slab k is
    column k of every F_b, returned as the (B, m, r) view of its first r
    slabs. Every one of those slabs is written in full (a stopped path's
    column is exact zeros) and no other slab is, so the resident memory
    follows the rank, not m^2; a path's k x m block of columns so far is
    read in place for its update. The buffer starts with as many slabs as
    fit below numpy's huge-page threshold, and a rank that needs more
    doubles it, copying the slabs so far. Each matrix's pivots and
    arithmetic are its own, so a batch factors bitwise as its matrices
    would one at a time.

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
    slabs = min(m, max(1, (_HUGE_PAGE_BYTES - 1) // max(1, nb * m * 8)))
    cols = np.empty((slabs, nb, m))  # cols[k, b] is column k of F_b
    flat_resid = resid.reshape(-1)
    flat_keep = keep.reshape(-1)
    paths = np.arange(nb)
    base = paths * m
    for k in range(m):
        pivot = resid.argmax(axis=1)
        idx = base + pivot
        top = flat_resid[idx]
        going = top > tol
        if not going.any():
            break
        if k == len(cols):
            grown = np.empty((min(m, 2 * k), nb, m))
            grown[:k] = cols
            cols = grown
        root = np.sqrt(np.where(going, top, np.inf))  # a stopped column is 0
        done = idx[going]
        # column k from the pivot rows (C is symmetric) and the columns so
        # far: path b's pivot row of F_b times its k x m block of columns
        col = row(pivot)
        check_finite(col)
        if k:
            col -= (cols[:k, paths, pivot].T[:, None, :]
                    @ cols[:k].transpose(1, 0, 2))[:, 0]
        col *= keep
        col = np.divide(col, root[:, None], out=cols[k])
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
    return (cols[:rank.max(initial=0)].transpose(1, 2, 0), rank,
            np.maximum(left, 0.0).sum(axis=1))
