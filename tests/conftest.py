"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the package's own evaluation paths:
Bessel references come from a high-precision ascending series evaluated
with mpmath arithmetic, and zeros from sign-change bisection on that
series. The mean inward field's oracle averages the package's kernel
over a sphere quadrature rule, a route independent of inward_profile's
Bessel integral and of squeeze_functional's one-dimensional rule. The
dense covariance tensors (tensor_field, covariance_tensor), the quadratic
form psd_probe and the ball test containment are the package's tensor
arithmetic and geometry spelled out whole, which the sampler's kernel
rows and the experiments' observers must reproduce.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

# ibflow before numpy: it sets the BLAS thread defaults, which take effect
# only when they precede numpy's first import, so the suite runs as the
# command line does
import ibflow
from ibflow import ModelError, SpectralMeasure, boundary_shell, make_model
from ibflow.covariance import tensor_scalars

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

# first positive zero of J_1, frozen from the series bisection oracle below
J1_FIRST_ZERO = 3.8317059702075123
# J_1(1), frozen from the same oracle at 30 digits
J1_AT_1 = 0.44005058574493355


def series_j_oracle(nu, x, dps: int = 40) -> float:
    """Ascending series for J_nu evaluated in mpmath arithmetic.

    Independent of the package implementation; the extended precision
    absorbs the cancellation that makes the series unusable in doubles
    for large arguments.
    """
    with mp.workdps(dps):
        nu_mp = mp.mpf(nu)
        x_mp = mp.mpf(x)
        if x_mp == 0:
            return 1.0 if nu == 0 else 0.0
        q = x_mp * x_mp / 4
        term = (x_mp / 2) ** nu_mp / mp.gamma(nu_mp + 1)
        total = term
        for k in range(1, 400):
            term = term * (-q) / (k * (k + nu_mp))
            total += term
            if abs(term) < abs(total) * mp.mpf(10) ** (-dps):
                break
        return float(total)


def bessel_zero_oracle(nu, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bisection on the series oracle; [lo, hi] must bracket one zero."""
    flo = series_j_oracle(nu, lo)
    assert flo * series_j_oracle(nu, hi) < 0, "interval must bracket a zero"
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if flo * series_j_oracle(nu, mid) > 0:
            lo = mid
            flo = series_j_oracle(nu, mid)
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def tensor_field(model, xs: np.ndarray) -> np.ndarray:
    """Covariance tensors b(x) for a batch of separation vectors.

    xs has shape (..., d); the result has shape (..., d, d). At x = 0
    the tensor is exactly the identity. It is filled from tensor_scalars
    one component pair at a time, so kernel_rows' rows are bitwise its
    rows.
    """
    xs = np.asarray(xs, dtype=float)
    d = model.d
    if xs.shape[-1] != d:
        raise ModelError(f"separation vectors must have length d = {d}")
    comps = [xs[..., a] for a in range(d)]
    coef, b_n = tensor_scalars(model, comps)
    out = np.empty(xs.shape + (d,))
    for a in range(d):
        for c in range(a, d):
            out[..., a, c] = out[..., c, a] = coef * (comps[a] * comps[c])
        out[..., a, a] += b_n
    return out


def covariance_tensor(model, x) -> np.ndarray:
    """Covariance tensor b(x) as a dense d x d matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ModelError(f"point must be a vector of length d = {model.d}")
    return tensor_field(model, x)


def psd_probe(model, points, directions) -> float:
    """Quadratic form sum_{k,l} <b(x_k - x_l) xi_k, xi_l>, which positive
    semi-definiteness of the kernel makes nonnegative."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if pts.shape != dirs.shape or pts.shape[0] < 1:
        raise ModelError("points and directions must be equal-length lists")
    blocks = tensor_field(model, pts[:, None, :] - pts[None, :, :])
    return float(np.einsum("ki,klij,lj->", dirs, blocks, dirs))


def containment(points, radius: float, center=None) -> bool:
    """True iff every position lies strictly inside the open ball."""
    pos = np.atleast_2d(np.asarray(points, dtype=float))
    if center is not None:
        pos = pos - np.asarray(center, dtype=float)
    return bool(np.all(np.linalg.norm(pos, axis=-1) < radius))


class SphereRule(NamedTuple):
    """Quadrature rule for the uniform probability measure on the sphere."""

    nodes: np.ndarray    # (n, d) unit vectors
    weights: np.ndarray  # (n,) positive, summing to 1


def sphere_rule(d: int, resolution: int) -> SphereRule:
    """d = 3: Gauss-Legendre in the polar cosine times `resolution` equal
    azimuths, resolution^2 nodes. Otherwise boundary_shell's unit vectors
    at equal weights: equal angles in d = 2 (the trapezoid rule,
    spectrally accurate), seeded Monte-Carlo nodes in d >= 4."""
    if d != 3:
        return SphereRule(boundary_shell(d, 1.0, resolution),
                          np.full(resolution, 1.0 / resolution))
    u, v = leggauss(resolution)
    ang = 2.0 * np.pi * np.arange(resolution) / resolution
    rad = np.sqrt(1.0 - u * u)
    nodes = np.stack([np.outer(rad, np.cos(ang)), np.outer(rad, np.sin(ang)),
                      np.repeat(u[:, None], resolution, axis=1)], axis=-1)
    return SphereRule(nodes.reshape(-1, 3),
                      np.repeat(0.5 * v / resolution, resolution))


def sphere_average_field(model, rho: float, rule: SphereRule,
                         points: np.ndarray) -> np.ndarray:
    """Quadrature of phi -> b(rho*phi - x) phi over the rule at each of
    the (m, d) points x."""
    nodes, w = rule
    diffs = rho * nodes[None, :, :] - points[:, None, :]   # (m, n, d)
    coef, b_n = tensor_scalars(model, np.moveaxis(diffs, -1, 0))
    dots = np.einsum("mnd,nd->mn", diffs, nodes)
    out = np.einsum("mn,mnd->md", w * coef * dots, diffs)
    out += np.einsum("mn,nd->md", w * b_n, nodes)
    return out


def mean_inward_field(model, rho: float, rule: SphereRule, x) -> np.ndarray:
    """The mean inward field -E_phi[b(rho*phi - x) phi] at a point x (d,)
    or a batch (m, d), by sphere quadrature."""
    pts = np.asarray(x, dtype=float)
    out = -sphere_average_field(model, rho, rule, np.atleast_2d(pts))
    return out.reshape(pts.shape)


def fresh_python(args, unset=(), **preset) -> str:
    """Standard output of python run with args in a fresh interpreter that
    imports this checkout's ibflow, the variables named in unset removed
    from the environment and those in preset set; a non-zero exit fails
    the test."""
    src = str(Path(ibflow.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env.update(preset, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    return q


def random_model(rng: np.random.Generator, d: int | None = None,
                 force_mu1_zero: bool = False):
    """A randomized valid model built from atoms plus density pieces."""
    if d is None:
        d = int(rng.integers(2, 4))
    w = rng.uniform(0.05, 1.0, size=3)
    if force_mu1_zero:
        w[1] = 0.0
    if rng.random() < 0.3 and not force_mu1_zero:
        w[2] = 0.0
    w[0] *= 0.3  # keep a healthy stochastic part
    mu0, mu1, mu2 = w / w.sum()

    def measure():
        atoms = tuple(
            (float(rng.uniform(0.3, 4.0)), float(rng.uniform(0.2, 2.0)))
            for _ in range(rng.integers(1, 4)))
        pieces = ()
        if rng.random() < 0.5:
            lo = float(rng.uniform(0.2, 2.0))
            pieces = ((lo, lo + float(rng.uniform(0.3, 2.0)),
                       float(rng.uniform(0.1, 1.0))),)
        return SpectralMeasure(atoms=atoms, density_pieces=pieces)

    return make_model(d, mu0, mu1, mu2,
                      m_p=measure() if mu1 > 0 else None,
                      m_s=measure() if mu2 > 0 else None)


@pytest.fixture
def d2_potential_atom():
    """Pure-potential d=2 model with one atom at 1; lambda = -1/4."""
    return make_model(2, 0.0, 1.0, 0.0, m_p=SpectralMeasure(atoms=((1.0, 1.0),)))


@pytest.fixture
def d2_solenoidal_atom():
    """Pure-solenoidal d=2 model with one atom at 1; lambda = +1/4."""
    return make_model(2, 0.0, 0.0, 1.0, m_s=SpectralMeasure(atoms=((1.0, 1.0),)))


@pytest.fixture
def d2_mixed():
    """d=2 model with all three components and a density piece."""
    return make_model(
        2, 0.2, 0.5, 0.3,
        m_p=SpectralMeasure(atoms=((1.0, 1.0),), density_pieces=((0.5, 1.5, 0.4),)),
        m_s=SpectralMeasure(atoms=((2.0, 0.7),)))


@pytest.fixture
def d3_mixed():
    """d=3 model with potential and solenoidal parts."""
    return make_model(
        3, 0.1, 0.6, 0.3,
        m_p=SpectralMeasure(atoms=((1.3, 1.0),), density_pieces=((0.5, 2.5, 0.4),)),
        m_s=SpectralMeasure(atoms=((2.0, 1.0),)))


@pytest.fixture
def trivial_model():
    """Pure translation fixture (mu0 = 1)."""
    return make_model(2, 1.0, 0.0, 0.0, allow_trivial=True)

