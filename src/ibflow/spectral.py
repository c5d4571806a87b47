"""Finite spectral measures on (0, inf).

A measure is a list of weighted atoms plus piecewise-constant density
segments. This class keeps every normalization integral closed-form,
makes support geometry decidable, and still generates every covariance
kernel the flow experiments need. Validation happens at construction
and is loud: spectral inputs define the model, so corrupt input is an
error, never a clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_MOMENT = 8
# Gauss-Legendre nodes per density piece: gauss_rule(3, QUAD_POINTS)
QUAD_POINTS = 32


class MeasureError(ValueError):
    """Rejected spectral-measure input."""


@dataclass(frozen=True)
class SpectralMeasure:
    """Atoms [(location, weight), ...] plus density pieces [(lo, hi, height), ...]."""

    atoms: tuple[tuple[float, float], ...] = ()
    density_pieces: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        atoms = tuple((float(s), float(w)) for s, w in self.atoms)
        pieces = tuple(
            (float(lo), float(hi), float(h)) for lo, hi, h in self.density_pieces)
        for s, w in atoms:
            if not (math.isfinite(s) and s > 0.0):
                raise MeasureError(f"atom location must be > 0, got {s!r}")
            if not (math.isfinite(w) and w >= 0.0):
                raise MeasureError(f"atom weight must be >= 0, got {w!r}")
        for lo, hi, h in pieces:
            if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
                raise MeasureError(
                    f"density piece needs 0 < lo < hi, got ({lo!r}, {hi!r})")
            if not (math.isfinite(h) and h >= 0.0):
                raise MeasureError(f"density height must be >= 0, got {h!r}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "density_pieces", pieces)
        mass = total_mass(self)
        if not (math.isfinite(mass) and mass > 0.0):
            raise MeasureError(f"total mass must be finite and > 0, got {mass!r}")
        # the small-separation kernel series uses every moment up to this
        # order, and a finite top moment bounds the lower ones
        if not math.isfinite(moment(self, MAX_MOMENT)):
            raise MeasureError(f"moment of order {MAX_MOMENT} must be finite")

    def support_max(self) -> float:
        """Largest point carrying mass."""
        tops = [s for s, w in self.atoms if w > 0.0]
        tops += [hi for lo, hi, h in self.density_pieces if h > 0.0]
        return max(tops) if tops else 0.0


def total_mass(m: SpectralMeasure) -> float:
    """Closed-form total mass: sum of weights plus rectangle areas."""
    mass = sum(w for _, w in m.atoms)
    mass += sum(h * (hi - lo) for lo, hi, h in m.density_pieces)
    return float(mass)


def moment(m: SpectralMeasure, k: int) -> float:
    """Exact k-th moment, k <= 8; pieces integrate s^k in closed form.
    A moment too large for a float is inf."""
    if not (isinstance(k, (int, np.integer)) and 0 <= k <= MAX_MOMENT):
        raise MeasureError(f"moment order must be an integer in [0, {MAX_MOMENT}]")
    try:
        return scaled_moment(m, k, 1.0)
    except OverflowError:  # float ** raises where * would give inf
        return math.inf


def scaled_moment(m: SpectralMeasure, k: int, unit: float) -> float:
    """The k-th moment of s / unit, sum w (s / unit)^k, of any order
    k >= 0; pieces integrate it in closed form. With unit above half of
    support_max no term exceeds 2^k times its mass, so orders past
    MAX_MOMENT stay finite where the moment itself would overflow."""
    total = sum(w * (s / unit) ** k for s, w in m.atoms)
    total += sum(
        h * ((hi / unit) ** (k + 1) - (lo / unit) ** (k + 1)) / (k + 1) * unit
        for lo, hi, h in m.density_pieces)
    return float(total)


@lru_cache(maxsize=32)
def gauss_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule of the probability weight proportional to
    (1 - t^2)^((d-3)/2) on [-1, 1], the law of t = theta.phi for
    independent uniform unit vectors in R^d (Gauss-Jacobi,
    alpha = beta = (d-3)/2; d = 3 is Gauss-Legendre, d = 2 Chebyshev).
    The nodes are the eigenvalues of the Jacobi matrix of the monic
    recurrence, whose coefficients are
    b_k^2 = k(k + d - 3) / ((2k + d - 4)(2k + d - 2)), or 1/2 at k = 1 and
    1/4 after in d = 2; the weights are the squared first components of
    its eigenvectors (Golub & Welsch 1969), rescaled to sum to 1 to
    rounding. Built once per (d, n); the arrays are read-only."""
    k = np.arange(1.0, n)
    if d == 2:
        b2 = np.full(n - 1, 0.25)
        b2[:1] = 0.5
    else:
        b2 = k * (k + d - 3) / ((2 * k + d - 4) * (2 * k + d - 2))
    off = np.sqrt(b2)
    t, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = vecs[0] ** 2
    w /= w.sum()
    t.flags.writeable = w.flags.writeable = False
    return t, w


def quadrature_nodes(m: SpectralMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Node/weight pairs integrating the measure: atoms exactly, and the
    QUAD_POINTS-point Gauss-Legendre rule gauss_rule(3, QUAD_POINTS)
    mapped onto each density piece (spectrally accurate for smooth f)."""
    locs = [s for s, _ in m.atoms]
    wts = [w for _, w in m.atoms]
    if m.density_pieces:
        t, v = gauss_rule(3, QUAD_POINTS)
        for lo, hi, h in m.density_pieces:
            mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
            locs.extend(mid + rad * t)
            wts.extend(h * (hi - lo) * v)
    return np.asarray(locs, dtype=float), np.asarray(wts, dtype=float)


def scale_mass(m: SpectralMeasure, factor: float) -> SpectralMeasure:
    """Copy with every weight and density height multiplied by factor."""
    return SpectralMeasure(
        atoms=tuple((s, w * factor) for s, w in m.atoms),
        density_pieces=tuple((lo, hi, h * factor) for lo, hi, h in m.density_pieces),
    )


def _normalize(m: SpectralMeasure, target: float) -> SpectralMeasure:
    mass = total_mass(m)
    if not (math.isfinite(mass) and mass > 0.0):
        raise MeasureError("cannot normalize a zero-mass measure")
    return scale_mass(m, target / mass)


def normalize_potential(m: SpectralMeasure, d: int) -> SpectralMeasure:
    """Rescale to total mass d (the potential-part convention)."""
    if d < 2:
        raise MeasureError("dimension must be >= 2")
    return _normalize(m, float(d))


def normalize_solenoidal(m: SpectralMeasure, d: int) -> SpectralMeasure:
    """Rescale to total mass d/(d-1) (the solenoidal-part convention)."""
    if d < 2:
        raise MeasureError("dimension must be >= 2")
    return _normalize(m, d / (d - 1.0))
