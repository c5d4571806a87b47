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
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_MOMENT = 8
DEFAULT_QUAD_POINTS = 32


class MeasureError(ValueError):
    """Rejected spectral-measure input."""


class KernelEvaluationError(RuntimeError):
    """Integrand returned a non-finite value; carries the abscissa."""

    def __init__(self, abscissa: float):
        self.abscissa = float(abscissa)
        super().__init__(
            f"integrand evaluated to a non-finite value at s = {abscissa!r}")


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
        total = sum(w * s**k for s, w in m.atoms)
        total += sum(
            h * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            for lo, hi, h in m.density_pieces)
    except OverflowError:  # float ** raises where * would give inf
        return math.inf
    return float(total)


def quadrature_nodes(
    m: SpectralMeasure, points_per_piece: int = DEFAULT_QUAD_POINTS
) -> tuple[np.ndarray, np.ndarray]:
    """Node/weight pairs integrating the measure: atoms exactly,
    Gauss-Legendre per density piece (spectrally accurate for smooth f)."""
    if points_per_piece < 1:
        raise MeasureError("points_per_piece must be >= 1")
    locs = [s for s, _ in m.atoms]
    wts = [w for _, w in m.atoms]
    if m.density_pieces:
        t, v = leggauss(points_per_piece)
        for lo, hi, h in m.density_pieces:
            mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
            locs.extend(mid + rad * t)
            wts.extend(h * rad * v)
    return np.asarray(locs, dtype=float), np.asarray(wts, dtype=float)


def integrate(
    m: SpectralMeasure,
    f: Callable[[np.ndarray], np.ndarray],
    quad_points_per_piece: int = DEFAULT_QUAD_POINTS,
) -> float:
    """Integral of f against the measure; f must accept numpy arrays."""
    locs, wts = quadrature_nodes(m, quad_points_per_piece)
    try:
        vals = np.asarray(f(locs), dtype=float)
        if vals.shape != locs.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.asarray([f(s) for s in locs], dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise KernelEvaluationError(locs[bad][0])
    return float(wts @ vals)


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
