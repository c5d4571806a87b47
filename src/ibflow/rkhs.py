"""Support condition, the mean inward field, and the squeeze identity.

The squeezing mechanism rests on one scalar: the double sphere average
of <b(rho*theta - rho*phi) theta, phi> over independent uniform unit
vectors theta and phi. It is nonnegative, vanishes exactly when the
potential measure lives on the zero set of s -> J_{d/2}(rho s), and
when positive it equals the squared norm of a kernel-space vector
field, the mean inward field V(x) = -E_phi[b(rho*phi - x) phi], which
points strictly inward on the sphere of radius rho. V is radial:
inward_profile gives its profile G as a Bessel integral against the
potential measure, exact in every d; the radial drift tabulates it,
and -G(rho) is the identity's right side.

The left side is one integral in t = theta.phi. With
x = rho theta - rho phi and s = |x| = rho sqrt(2(1 - t)), the isotropic
kernel b(x) = B_N I + (B_L - B_N) x x^T / s^2 gives

  <b(x) theta, phi> = B_N(s) t - (B_L(s) - B_N(s)) (1 - t) / 2,

and t has density proportional to (1 - t^2)^((d-3)/2) on [-1, 1].
squeeze_functional sums that against the n-point Gauss rule of this
weight (_t_rule), which converges spectrally in every d because B_L
and B_N are even entire functions of s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import covariance, spectral
from .bessel import bessel_j, bessel_j_ratio
from .covariance import _QUAD_PAIRS, IbfModel, ModelError, _nodes

ZERO_SEARCH_MAX = 200.0
_ZERO_GRID_STEP = 0.05
_ZERO_TOL = 1e-10
_ZERO_MAX_STEPS = 40  # bisection's worst case from a 0.05 bracket is 29


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the support test against the scaled Bessel zero set."""

    satisfied: bool
    witness_mass: float
    zero_locations_checked: tuple[float, ...]


def bessel_zeros(nu: float, upper: float) -> np.ndarray:
    """All positive zeros of J_nu on (0, upper].

    Brackets by sign change on a 0.05 grid (zeros are pi-spaced, so no
    bracket is missed) and refines each by safeguarded Newton steps to
    1e-10. A step divides J_nu by J_nu' = (nu/x) J_nu - J_(nu+1), both
    from one call for two orders (as ratios R = J / x^nu, the same step
    R_nu / (nu R_nu / x - x R_(nu+1))); a step that leaves the bracket,
    which each value's sign shrinks, is replaced by bisection.
    """
    if upper > ZERO_SEARCH_MAX:
        raise ValueError(f"zero search upper bound capped at {ZERO_SEARCH_MAX}")
    if upper <= _ZERO_GRID_STEP / 2:
        return np.empty(0)
    grid = np.arange(_ZERO_GRID_STEP, upper + _ZERO_GRID_STEP, _ZERO_GRID_STEP)
    vals = bessel_j(nu, grid)
    exact = grid[vals == 0.0]
    sign = np.sign(vals)
    change = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    lo, hi = grid[change], grid[change + 1]
    flo = vals[change]
    x = 0.5 * (lo + hi)
    for _ in range(_ZERO_MAX_STEPS):
        r, r_up = bessel_j_ratio(nu, x, 2)  # R has J's sign for x > 0
        left = flo * r > 0
        lo = np.where(left, x, lo)
        flo = np.where(left, r, flo)
        hi = np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - r / (nu * r / x - x * r_up)
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        done = np.abs(nxt - x) < _ZERO_TOL
        x = nxt
        if done.all():
            break
    zeros = np.sort(np.concatenate([exact, x]))
    # keep a zero sitting at the bound despite last-step wobble
    return zeros[zeros <= upper + 10 * _ZERO_TOL]


def zero_search_bound(model: IbfModel, rho: float, tol: float) -> float:
    """Upper end of check_condition's zero search (mu1 > 0): slightly past
    the scaled support, so an atom sitting on a zero near the edge still
    sees it (tolerance bands included). Above ZERO_SEARCH_MAX it cannot run."""
    s_max = model.m_p.support_max()
    return rho * s_max * (1.0 + 1e-6) + 2.0 * tol * max(1.0, rho * s_max)


def check_condition(model: IbfModel, rho: float, tol: float = 1e-8) -> ConditionReport:
    """Decide whether the potential measure puts mass off the scaled zero set.

    An atom counts as sitting on a zero when it is within
    tol * max(1, zero/rho) of it; density pieces always contribute
    off-zero mass (zeros are isolated), less the sliver inside the
    tolerance bands. Satisfied requires mu1 > 0 and witness mass
    exceeding tol * total mass.
    """
    if rho <= 0.0:
        raise ValueError("rho must be > 0")
    if model.mu1 == 0.0:
        return ConditionReport(satisfied=False, witness_mass=0.0,
                               zero_locations_checked=())
    m_p = model.m_p
    upper = zero_search_bound(model, rho, tol)
    zeros = bessel_zeros(model.d / 2.0, upper) / rho
    bands = tol * np.maximum(1.0, zeros) if zeros.size else np.empty(0)

    witness = 0.0
    for s, w in m_p.atoms:
        if w == 0.0:
            continue
        if zeros.size == 0 or np.all(np.abs(s - zeros) >= bands):
            witness += w
    for lo, hi, h in m_p.density_pieces:
        length = hi - lo
        for z, band in zip(zeros, bands):
            length -= max(0.0, min(hi, z + band) - max(lo, z - band))
        witness += h * max(length, 0.0)

    threshold = tol * spectral.total_mass(m_p)
    return ConditionReport(satisfied=witness > threshold,
                           witness_mass=float(witness),
                           zero_locations_checked=tuple(zeros))


def inward_profile(model: IbfModel, rho: float,
                   r) -> tuple[np.ndarray, np.ndarray]:
    """The mean inward field's radial profile G and its slope dG/dr at
    the radii r >= 0 (a flat array): V(x) = -E_phi[b(rho phi - x) phi]
    = G(|x|) x / |x|.

    The solenoidal part averages to zero over the sphere, and the
    potential part is one Bessel integral against m_p,

      G(r) = -mu1 2^(d-2) Gamma(d/2)^2 int (rho k) J~(rho k) (r k) J~(r k) dm_p(k),

    J~(z) = J_{d/2}(z) / z^{d/2}: at r = rho it is minus
    squeeze_functional's rhs. The slope uses
    d/dz [z J~_nu(z)] = J~_nu(z) - z^2 J~_(nu+1)(z). Runs over at most
    _QUAD_PAIRS (radius, node) pairs at a time, each radius's sum
    row-wise, so a radius's value does not depend on the batch.
    """
    if rho <= 0.0:
        raise ValueError("rho must be > 0")
    if model.mu1 == 0.0:
        raise ModelError("the mean inward field is zero without a potential "
                         "part (mu1 = 0)")
    nu = model.d / 2.0
    locs, wts = _nodes(model.m_p)
    at_rho = rho * locs
    w = (-model.mu1 * 2.0 ** (model.d - 2) * math.gamma(nu) ** 2
         * wts * at_rho * bessel_j_ratio(nu, at_rho))
    r = np.asarray(r, dtype=float)
    g, dg = np.empty_like(r), np.empty_like(r)
    step = max(1, _QUAD_PAIRS // locs.size)
    for lo in range(0, r.size, step):
        z = r[lo:lo + step, None] * locs
        jr, jr_up = bessel_j_ratio(nu, z, 2)
        g[lo:lo + step] = (z * jr * w).sum(axis=-1)
        dg[lo:lo + step] = ((jr - z * z * jr_up) * (w * locs)).sum(axis=-1)
    return g, dg


@lru_cache(maxsize=32)
def _t_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule of t = theta.phi: nodes and weights for the
    probability weight proportional to (1 - t^2)^((d-3)/2) on [-1, 1]
    (Gauss-Jacobi, alpha = beta = (d-3)/2). The nodes are the eigenvalues
    of the Jacobi matrix of the monic recurrence, whose coefficients are
    b_k^2 = k(k + d - 3) / ((2k + d - 4)(2k + d - 2)), or 1/2 at k = 1 and
    1/4 after in d = 2 (Chebyshev); the weights are the squared first
    components of its eigenvectors (Golub & Welsch 1969), rescaled to
    sum to 1 to rounding."""
    k = np.arange(1.0, n)
    if d == 2:
        b2 = np.full(n - 1, 0.25)
        b2[:1] = 0.5
    else:
        b2 = k * (k + d - 3) / ((2 * k + d - 4) * (2 * k + d - 2))
    off = np.sqrt(b2)
    t, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = vecs[0] ** 2
    return t, w / w.sum()


def squeeze_functional(model: IbfModel, rho: float,
                       n: int) -> tuple[float, float]:
    """Both sides of the squeeze identity.

    lhs: the double sphere average of <b(rho theta - rho phi) theta, phi>
    as the n-point t-rule sum of B_N(s) t - (B_L(s) - B_N(s)) (1 - t) / 2,
    s = rho sqrt(2(1 - t)), from one covariance_scalars call (looked up
    on the covariance module) of n separations;
    rhs: mu1 * 2^(d-2) * Gamma(d/2)^2 * integral of the squared scaled
    Bessel kernel against the potential measure, which is -G(rho) of
    inward_profile (0 when mu1 = 0). They agree up to quadrature error,
    and are zero exactly when the support condition fails.
    """
    if rho <= 0.0:
        raise ValueError("rho must be > 0")
    if n < 1:
        raise ValueError("the t-rule needs n >= 1 nodes")
    t, w = _t_rule(model.d, n)
    s = rho * np.sqrt(2.0 * (1.0 - t))
    b_l, b_n = covariance.covariance_scalars(model, s)
    lhs = float(w @ (b_n * t - 0.5 * (b_l - b_n) * (1.0 - t)))
    if model.mu1 == 0.0:
        return lhs, 0.0  # no potential part, which inward_profile refuses
    g, _ = inward_profile(model, rho, [rho])
    return lhs, -float(g[0])
