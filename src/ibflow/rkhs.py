"""Support condition, sphere quadrature, and the mean inward field.

The squeezing mechanism rests on one scalar: the double sphere average
of <b(rho*theta - rho*phi) theta, phi>. It is nonnegative, vanishes
exactly when the potential measure lives on the zero set of
s -> J_{d/2}(rho s), and when positive it equals the squared norm of a
kernel-space vector field whose negative points strictly inward on the
sphere of radius rho. This module computes both sides of that identity
numerically: the left by tensorized sphere quadrature, the right by a
Bessel integral against the potential measure. That field, the mean
inward field, is radial: mean_inward_field computes it by sphere
quadrature, and inward_profile its radial profile as one more Bessel
integral, exact in every d, which the radial drift tabulates.

The left side's integrand is invariant under rotating theta and phi
together, since the kernel is isotropic: b(R x) = R b(x) R^T. A rule
whose nodes and weights a rotation group maps to themselves (the d = 2
equal-angle rule, and each azimuthal ring of the d = 3 rule) therefore
has equal inner sums over every node of one orbit, and the double sum
needs one kernel row per orbit, weighted by the orbit's size.
SphereRule.orbits carries that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import spectral
from .bessel import bessel_j, bessel_j_ratio
from .covariance import (_QUAD_PAIRS, IbfModel, ModelError, _nodes,
                         tensor_scalars)

ZERO_SEARCH_MAX = 200.0
_ZERO_GRID_STEP = 0.05
_ZERO_BISECT_TOL = 1e-10


@dataclass(eq=False)
class SphereRule:
    """Quadrature rule for the uniform probability measure on the sphere.

    orbits[i] > 0 marks node i as the representative of a rotation orbit
    of that many nodes, all of weight weights[i], which a rotation of
    the sphere maps onto one another; the other nodes of the orbit
    carry 0. By default every node is its own orbit.
    """

    nodes: np.ndarray    # (n, d) unit vectors
    weights: np.ndarray  # (n,) positive, summing to 1
    orbits: np.ndarray | None = None  # (n,) integer orbit sizes, summing to n

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        n = self.nodes.shape[0]
        norms = np.linalg.norm(self.nodes, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("rule nodes must be unit vectors")
        if self.weights.shape != (n,):
            raise ValueError(f"rule weights must be {n}, one per node")
        if abs(self.weights.sum() - 1.0) > 1e-12 or np.any(self.weights <= 0.0):
            raise ValueError("rule weights must be positive and sum to 1")
        if self.orbits is None:
            self.orbits = np.ones(n, dtype=np.int64)
        self.orbits = np.asarray(self.orbits)
        if (self.orbits.shape != (n,)
                or not np.issubdtype(self.orbits.dtype, np.integer)
                or np.any(self.orbits < 0) or self.orbits.sum() != n):
            raise ValueError(f"rule orbits must be {n} non-negative integers "
                             f"summing to {n}")

    @property
    def representatives(self) -> np.ndarray:
        """Indices of the nodes that stand for their orbits."""
        return np.flatnonzero(self.orbits)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the support test against the scaled Bessel zero set."""

    satisfied: bool
    witness_mass: float
    zero_locations_checked: tuple[float, ...]


def bessel_zeros(nu: float, upper: float) -> np.ndarray:
    """All positive zeros of J_nu on (0, upper].

    Brackets by sign change on a 0.05 grid (zeros are pi-spaced, so no
    bracket is missed) and refines each by bisection to 1e-10.
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
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fmid = bessel_j(nu, mid)
        left = flo * fmid > 0
        lo = np.where(left, mid, lo)
        flo = np.where(left, fmid, flo)
        hi = np.where(left, hi, mid)
        if np.all(hi - lo < _ZERO_BISECT_TOL):
            break
    zeros = np.sort(np.concatenate([exact, 0.5 * (lo + hi)]))
    # keep a zero sitting at the bound despite bisection-width wobble
    return zeros[zeros <= upper + 10 * _ZERO_BISECT_TOL]


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


def sphere_rule(d: int, resolution: int, mc_seed: int | None = None) -> SphereRule:
    """Quadrature for the uniform sphere measure.

    d=2: equally spaced angles (trapezoid rule, spectrally accurate),
    one orbit of rotations by 2 pi / resolution; d=3: Gauss-Legendre in
    the polar cosine times uniform azimuth, resolution^2 nodes, each
    ring one orbit of rotations about the polar axis; d>=4: seeded
    Monte-Carlo nodes with equal weights (seed defaults to 0 so rules
    are reproducible), every node its own orbit.
    """
    if not (2 <= d <= 16):
        raise ValueError("dimension must be in [2, 16]")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    ang = 2.0 * math.pi * np.arange(resolution) / resolution
    if d == 2:
        nodes = np.column_stack([np.cos(ang), np.sin(ang)])
        weights = np.full(resolution, 1.0 / resolution)
        orbits = np.zeros(resolution, dtype=np.int64)
        orbits[0] = resolution
    elif d == 3:
        u, v = leggauss(resolution)
        rad = np.sqrt(1.0 - u * u)
        nodes = np.empty((resolution * resolution, 3))
        weights = np.empty(resolution * resolution)
        for i in range(resolution):
            rows = slice(i * resolution, (i + 1) * resolution)
            nodes[rows, 0] = rad[i] * np.cos(ang)
            nodes[rows, 1] = rad[i] * np.sin(ang)
            nodes[rows, 2] = u[i]
            weights[rows] = 0.5 * v[i] / resolution
        orbits = np.zeros(resolution * resolution, dtype=np.int64)
        orbits[::resolution] = resolution
    else:
        rng = np.random.default_rng(0 if mc_seed is None else mc_seed)
        raw = rng.standard_normal((resolution, d))
        nodes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        weights = np.full(resolution, 1.0 / resolution)
        orbits = None
    return SphereRule(nodes=nodes, weights=weights, orbits=orbits)


def _check_rule(model: IbfModel, rule: SphereRule) -> None:
    if rule.nodes.shape[1] != model.d:
        raise ModelError(f"the sphere rule is for d = {rule.nodes.shape[1]}, "
                         f"the model has d = {model.d}")


def _sphere_average_field(model: IbfModel, rho: float, rule: SphereRule,
                          points: np.ndarray) -> np.ndarray:
    """Quadrature of phi -> b(rho*phi - x) phi over the rule, batched in x."""
    nodes, w = rule.nodes, rule.weights
    diffs = rho * nodes[None, :, :] - points[:, None, :]   # (m, n, d)
    coef, b_n = tensor_scalars(model, np.moveaxis(diffs, -1, 0))
    dots = np.einsum("mnd,nd->mn", diffs, nodes)
    out = np.einsum("mn,mnd->md", w * coef * dots, diffs)
    out += np.einsum("mn,nd->md", w * b_n, nodes)
    return out


def mean_inward_field(model: IbfModel, rho: float, rule: SphereRule, x):
    """Inward-pointing candidate field: minus the sphere average of the
    kernel sections, evaluated at x (or a batch of points)."""
    if rho <= 0.0:
        raise ValueError("rho must be > 0")
    _check_rule(model, rule)
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != model.d:
        raise ModelError(f"points must have length d = {model.d}")
    out = -_sphere_average_field(model, rho, rule, pts)
    return out[0] if single else out


def inward_profile(model: IbfModel, rho: float,
                   r) -> tuple[np.ndarray, np.ndarray]:
    """The mean inward field's radial profile G and its slope dG/dr at
    the radii r >= 0 (a flat array): V(x) = G(|x|) x / |x|.

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
        jr = bessel_j_ratio(nu, z)
        g[lo:lo + step] = (z * jr * w).sum(axis=-1)
        dg[lo:lo + step] = ((jr - z * z * bessel_j_ratio(nu + 1.0, z))
                            * (w * locs)).sum(axis=-1)
    return g, dg


def squeeze_functional(model: IbfModel, rho: float,
                       rule: SphereRule) -> tuple[float, float]:
    """Both sides of the squeeze identity.

    lhs: tensorized double quadrature of <b(rho theta - rho phi) theta, phi>;
    rhs: mu1 * 2^(d-2) * Gamma(d/2)^2 * integral of the squared scaled
    Bessel kernel against the potential measure. They agree up to
    quadrature error, and are zero exactly when the support condition
    fails.

    The lhs sums (orbit size x weight x row sum) over the rule's orbit
    representatives: a rotation mapping the rule to itself leaves the
    integrand unchanged, so every row of an orbit has the same sum, and
    this is the full double sum up to rounding. That is one kernel row
    in d = 2, resolution rows in d = 3 and all n rows in d >= 4, in
    chunks of about 2e6 (row, node) pairs.
    """
    if rho <= 0.0:
        raise ValueError("rho must be > 0")
    _check_rule(model, rule)
    nodes, w = rule.nodes, rule.weights
    n = nodes.shape[0]
    reps = rule.representatives
    scale = rule.orbits[reps] * w[reps]
    chunk = max(1, int(2_000_000 // max(n, 1)))
    lhs = 0.0
    for start in range(0, reps.size, chunk):
        rows = reps[start:start + chunk]
        vt = _sphere_average_field(model, rho, rule, rho * nodes[rows])
        lhs += float(np.einsum("m,md,md->", scale[start:start + chunk], vt,
                               nodes[rows]))

    if model.mu1 == 0.0:
        rhs = 0.0
    else:
        d = model.d
        const = model.mu1 * 2.0 ** (d - 2) * math.gamma(d / 2.0) ** 2

        def integrand(s):
            z = rho * np.asarray(s, dtype=float)
            return (z * bessel_j_ratio(d / 2.0, z)) ** 2

        rhs = const * spectral.integrate(model.m_p, integrand)
    return lhs, rhs
