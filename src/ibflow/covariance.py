"""Isotropic covariance tensors built from spectral measures.

The covariance of the generating field decomposes into a constant part
(weight mu0), a potential part driven by a measure of mass d (weight
mu1) and a solenoidal part driven by a measure of mass d/(d-1) (weight
mu2). Longitudinal/transverse scalars come out of Bessel-kernel
integrals against those measures; with the normalizations above all
four scalars equal 1 at separation 0, so the tensor at 0 is the
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import spectral
from .bessel import bessel_j_ratio
from .spectral import SpectralMeasure

MIN_DIM = 2
MAX_DIM = 16
# (separation, quadrature node) pairs one quadrature pass holds: about 120
# bytes a pair, so about 30 MiB whatever the grid or the measure's pieces
_QUAD_PAIRS = 1 << 18


class ModelError(ValueError):
    """Structurally invalid flow model or unusable model for an operation."""


@dataclass(frozen=True)
class IbfModel:
    """Complete flow specification: dimension, component weights, measures.

    ``m_p`` must be present (normalized to mass d) exactly when mu1 > 0;
    ``m_s`` (mass d/(d-1)) exactly when mu2 > 0. The pure-translation
    model mu0 = 1 is rejected unless ``allow_trivial`` is set; it exists
    only as a test fixture.
    """

    d: int
    mu0: float
    mu1: float
    mu2: float
    m_p: SpectralMeasure | None = None
    m_s: SpectralMeasure | None = None
    allow_trivial: bool = False

    def __post_init__(self):
        if not (MIN_DIM <= self.d <= MAX_DIM):
            raise ModelError(f"dimension must be in [{MIN_DIM}, {MAX_DIM}]")
        mus = (self.mu0, self.mu1, self.mu2)
        if any(not (math.isfinite(mu) and mu >= 0.0) for mu in mus):
            raise ModelError("component weights must be finite and >= 0")
        if abs(sum(mus) - 1.0) > 1e-12:
            raise ModelError("mu0 + mu1 + mu2 must equal 1")
        if (self.mu1 > 0.0) != (self.m_p is not None):
            raise ModelError("potential measure must be present iff mu1 > 0")
        if (self.mu2 > 0.0) != (self.m_s is not None):
            raise ModelError("solenoidal measure must be present iff mu2 > 0")
        if self.m_p is not None:
            mass = spectral.total_mass(self.m_p)
            if abs(mass - self.d) > 1e-10 * self.d:
                raise ModelError(
                    f"potential measure mass must be d = {self.d}, got {mass!r}")
        if self.m_s is not None:
            target = self.d / (self.d - 1.0)
            mass = spectral.total_mass(self.m_s)
            if abs(mass - target) > 1e-10 * target:
                raise ModelError(
                    f"solenoidal measure mass must be d/(d-1) = {target}, got {mass!r}")
        if self.is_trivial and not self.allow_trivial:
            raise ModelError(
                "mu0 = 1 gives a pure translation flow; set allow_trivial "
                "to build it as a fixture")

    @property
    def is_trivial(self) -> bool:
        return self.mu1 == 0.0 and self.mu2 == 0.0


def make_model(d, mu0, mu1, mu2, m_p=None, m_s=None,
               allow_trivial=False) -> IbfModel:
    """Build a model, normalizing the supplied measures to their
    conventional masses first."""
    if not (MIN_DIM <= d <= MAX_DIM):
        raise ModelError(f"dimension must be in [{MIN_DIM}, {MAX_DIM}]")
    if mu1 > 0.0:
        if m_p is None:
            raise ModelError("mu1 > 0 requires a potential measure")
        m_p = spectral.normalize_potential(m_p, d)
    else:
        m_p = None
    if mu2 > 0.0:
        if m_s is None:
            raise ModelError("mu2 > 0 requires a solenoidal measure")
        m_s = spectral.normalize_solenoidal(m_s, d)
    else:
        m_s = None
    return IbfModel(d=d, mu0=float(mu0), mu1=float(mu1), mu2=float(mu2),
                    m_p=m_p, m_s=m_s, allow_trivial=allow_trivial)


@dataclass(frozen=True)
class FlowConstants:
    """Local strain statistics and the top Lyapunov exponent.

    beta_l/beta_n are the negated second derivatives of the
    longitudinal/transverse scalars at 0; lam = (d-1)*beta_n/2 - beta_l/2.
    """

    beta_l: float
    beta_n: float
    lam: float


@lru_cache(maxsize=128)
def _nodes(measure: SpectralMeasure):
    return spectral.quadrature_nodes(measure)


def _c_norm(d: int) -> float:
    return 2.0 ** (0.5 * (d - 2)) * math.gamma(0.5 * d)


def _checked_separations(s) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(s, dtype=float)
    flat = np.atleast_1d(arr).ravel()
    if np.any(flat < 0.0):
        raise ModelError("separation must be >= 0")
    return arr, flat


def b_scalar(model: IbfModel, component: str, s):
    """(B_L, B_N) of one component, "P" (potential) or "S" (solenoidal).

    Vectorized over s and always evaluated by quadrature, both scalars
    from one pass; s = 0 returns the analytic limit 1 exactly rather than
    quadrature across the removable singularity.
    """
    if component not in ("P", "S"):
        raise ModelError(f"component must be 'P' or 'S', got {component!r}")
    measure = model.m_p if component == "P" else model.m_s
    if measure is None:
        part = "potential" if component == "P" else "solenoidal"
        raise ModelError(f"model has no {part} measure")
    arr, flat = _checked_separations(s)
    scalars = [np.where(flat == 0.0, 1.0, vals) for vals in
               _component_scalars(model.d, measure, component == "P", flat)]
    if arr.ndim == 0:
        return float(scalars[0][0]), float(scalars[1][0])
    return scalars[0].reshape(arr.shape), scalars[1].reshape(arr.shape)


def _component_scalars(d: int, measure: SpectralMeasure, potential: bool,
                       s: np.ndarray, derivatives: bool = False
                       ) -> list[np.ndarray]:
    """[B_L, B_N] of one component on a flat array of separations, with
    [dB_L/ds, dB_N/ds, d2B_L/ds2, d2B_N/ds2] appended when derivatives is
    set: a quadrature pass of that component alone."""
    return _quadrature_pass(d, ((measure, potential),), s, derivatives)[0][0]


def _quadrature_pass(d: int, parts, s: np.ndarray, derivatives: bool = False,
                     kept: int = 0):
    """_component_scalars of every (measure, potential) part on the flat
    separations s, over at most _QUAD_PAIRS (separation, node) pairs at a
    time, counted over all the parts' nodes, each chunk from one Bessel
    call (_quadrature). Also returns the first part's R rows at its lowest
    order over its nodes for the last kept separations, a (kept, nodes)
    array."""
    nodes = [_nodes(measure) + (potential,) for measure, potential in parts]
    step = max(1, _QUAD_PAIRS // sum(locs.size for locs, _, _ in nodes))
    first_kept = s.size - kept
    sums, rows = [], []
    for lo in range(0, max(s.size, 1), step):
        chunk, lowest = _quadrature(d, nodes, s[lo:lo + step], derivatives)
        sums.append(chunk)
        if lo + step >= first_kept:
            rows.append(lowest[max(first_kept - lo, 0):].copy())
    scalars = [[np.concatenate(col) for col in zip(*part)]
               for part in zip(*sums)]
    return scalars, np.concatenate(rows)


def _quadrature(d: int, nodes, s: np.ndarray, derivatives: bool):
    """_quadrature_pass on one chunk of separations: one Bessel call over
    every part's arguments z = s r, side by side, at the union of the
    consecutive orders the parts need. With m = d/2, a potential part
    reads R at m, m + 1 (and m + 2), a solenoidal one at m - 1, m (and
    m + 1). A ratio does not depend on what shares its call or on the
    first order asked for, so each part's values are those of a call of
    its own. Returns each part's sums and the first part's rows at its
    lowest order."""
    mid = d / 2.0
    lowest = [mid if potential else mid - 1.0 for _, _, potential in nodes]
    first = min(lowest)
    count = int(max(lowest) - first) + (3 if derivatives else 2)
    bounds = np.cumsum([0] + [locs.size for locs, _, _ in nodes])
    z_all = np.empty((s.size, bounds[-1]))
    for (locs, _, _), lo, hi in zip(nodes, bounds, bounds[1:]):
        np.multiply(s[:, None], locs[None, :], out=z_all[:, lo:hi])
    jr_all = bessel_j_ratio(first, z_all, count)
    sums = [_part_sums(d, locs, wts, potential, z_all[:, lo:hi],
                       jr_all[int(low - first):, :, lo:hi], derivatives)
            for (locs, wts, potential), low, lo, hi
            in zip(nodes, lowest, bounds, bounds[1:])]
    return sums, jr_all[int(lowest[0] - first), :, :bounds[1]]


def _part_sums(d: int, locs: np.ndarray, wts: np.ndarray, potential: bool,
               z: np.ndarray, jr: np.ndarray,
               derivatives: bool) -> list[np.ndarray]:
    """One component's sums over its nodes, from z = s r and its ratios jr
    (rows from its lowest order up). With R_nu(z) = J_nu(z) / z^nu and
    m = d/2, the derivatives use R_nu' = -z R_(nu+1) and
    R_nu'' = (2 nu + 1) R_(nu+1) - R_nu; the potential L kernel
    g = R_m - z^2 R_(m+1) has g'' = (z^2 - 3) R_(m+1) + (2 - 2m) z^2 R_(m+2).
    With z = s r, d/ds = r d/dz and d2/ds2 = r^2 d2/dz2.
    """
    c = _c_norm(d)

    def against_measure(vals, weights=wts):
        # row-wise pairwise sum: result independent of the batch shape,
        # so single and batched evaluations agree bitwise
        return (vals * weights).sum(axis=-1)

    if potential:
        out = [c * against_measure(jr[0] - z * z * jr[1]),
               c * against_measure(jr[0])]
    else:
        out = [(d - 1.0) * c * against_measure(jr[1]),
               c * against_measure(jr[0] - jr[1])]
    if derivatives:
        rw = locs * wts
        r2w = locs * rw
        z2 = z * z
        if potential:
            zjr = z * jr[1]
            out += [c * against_measure(z ** 3 * jr[2] - 3.0 * zjr, rw),
                    -c * against_measure(zjr, rw),
                    c * against_measure((z2 - 3.0) * jr[1]
                                        + (2.0 - d) * z2 * jr[2], r2w),
                    c * against_measure((d + 1.0) * jr[1] - jr[0], r2w)]
        else:
            zjr = z * jr[2]
            out += [-(d - 1.0) * c * against_measure(zjr, rw),
                    c * against_measure(zjr - z * jr[1], rw),
                    (d - 1.0) * c * against_measure(
                        (d + 1.0) * jr[2] - jr[1], r2w),
                    c * against_measure(d * jr[1] - jr[0] - (d + 1.0) * jr[2],
                                        r2w)]
    return out


def _scalars_exact(model: IbfModel, flat: np.ndarray,
                   derivatives: bool = False, radii=None) -> list[np.ndarray]:
    """[B_L, B_N] by quadrature, then [dB_L/ds, dB_N/ds, d2B_L/ds2,
    d2B_N/ds2] if derivatives is set; a non-finite separation has no
    covariance and gives NaN. Both components come from one quadrature
    pass, each chunk's Bessel ratios from one call. With radii (a flat
    array of finite radii > 0; the model needs mu1 > 0), the radii join
    the pass as further separations, and last comes R_(d/2)(r k) at each
    radius r and potential node k, a (radii, nodes) array, from which the
    squeeze identity takes its right side (rkhs.squeeze_functional)."""
    finite = flat < math.inf
    out = [np.full(flat.shape, model.mu0, dtype=float) for _ in range(2)]
    out += [np.zeros(flat.shape) for _ in range(4 if derivatives else 0)]
    parts = [(mu, m, potential) for mu, m, potential in
             ((model.mu1, model.m_p, True), (model.mu2, model.m_s, False))
             if mu > 0.0]
    if radii is not None and model.mu1 == 0.0:
        raise ModelError("R_(d/2) rows need a potential part (mu1 > 0)")
    rows = None
    if parts:
        s = np.where(finite, flat, 0.0)
        if radii is not None:
            s = np.concatenate([s, radii])
        sums, rows = _quadrature_pass(
            model.d, [(m, potential) for _, m, potential in parts], s,
            derivatives, s.size - flat.size)
        for (mu, _, _), part in zip(parts, sums):
            for acc, vals in zip(out, part):
                acc += mu * vals[:flat.size]
    out[0] = np.where(flat == 0.0, 1.0, out[0])
    out[1] = np.where(flat == 0.0, 1.0, out[1])
    out = [np.where(finite, acc, np.nan) for acc in out]
    return out if radii is None else out + [rows]


# ---------------------------------------------------------------------------
# the kernel route: moment series below s1 (degree 4 below s0, degree 10
# on [s0, s1)), profile on [s1, 64], quadrature beyond

_PROFILE_HI = 64.0
# in s^2: degree 4 needs moments up to order 8, all exact; degree 10
# needs them up to order 20, taken in units near support_max
_SERIES_DEGREES = (4, 10)
_EPS = float(np.finfo(float).eps)
_SERIES_TOL = 0.25 * _EPS
_BLOCK = 256  # profile pieces built together
_MAX_PIECES = 262144


def _jr_coefficient(nu: float, k: int) -> float:
    """Coefficient of z^(2k) in J_nu(z) / z^nu (zero for k < 0)."""
    if k < 0:
        return 0.0
    return (-1.0) ** k / (2.0 ** (nu + 2 * k) * math.factorial(k)
                          * math.gamma(nu + k + 1.0))


def _kernel_coefficients(d: int, potential: bool, k: int) -> tuple[float, float]:
    """Coefficients of z^(2k) in the (L, N) kernels of one component,
    so that B_L(s) = sum_k coef_L(k) * moment(m, 2k) * s^(2k)."""
    c = _c_norm(d)
    mid = _jr_coefficient(d / 2.0, k)
    if potential:
        return c * (mid - _jr_coefficient((d + 2) / 2.0, k - 1)), c * mid
    return ((d - 1.0) * c * mid,
            c * (_jr_coefficient((d - 2) / 2.0, k) - mid))


@dataclass(frozen=True)
class SeriesBand:
    """(B_L, B_N) as polynomials in u = t * scale, t = s^2.

    coef_l[k], coef_n[k] multiply u^k; the constant term is the
    normalization B(0) = 1, set exactly, so s = 0 evaluates to 1.
    coef_t[k - 1] is the u^(k - 1) coefficient of (B_L - B_N) / t, summed
    from the difference of each kernel's coefficients, so the tensor's
    coef is a polynomial in u with no cancellation.
    """

    scale: float
    coef_l: tuple[float, ...]
    coef_n: tuple[float, ...]
    coef_t: tuple[float, ...]
    # the (B_L, B_N) and (coef, B_N) coefficient pairs, highest degree
    # first; the second pairs stop short of B_N's constant term
    stacked: tuple[tuple[float, float], ...] = field(
        init=False, repr=False, compare=False)
    stacked_t: tuple[tuple[float, float], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "stacked",
                           tuple(zip(self.coef_l, self.coef_n))[::-1])
        object.__setattr__(self, "stacked_t",
                           tuple(zip(self.coef_t, self.coef_n[1:]))[::-1])

    @staticmethod
    def _horner(u: np.ndarray, stacked) -> np.ndarray:
        """The two polynomials with the coefficient pairs stacked
        (highest degree first) at the flat array u, by one Horner pass
        over the rows of a (2, n) array (a scalar operand per row is
        cheaper than a broadcast (2, 1) one)."""
        out = np.empty((2, u.size))
        first, second = out
        np.multiply(u, stacked[0][0], out=first)
        np.multiply(u, stacked[0][1], out=second)
        for c_first, c_second in stacked[1:-1]:
            first += c_first
            first *= u
            second += c_second
            second *= u
        first += stacked[-1][0]
        second += stacked[-1][1]
        return out

    def _u(self, t: np.ndarray) -> np.ndarray:
        """u at the flat array t: t itself at scale 1, with no pass."""
        return t if self.scale == 1.0 else t * self.scale

    def values(self, t: np.ndarray) -> np.ndarray:
        """(B_L, B_N) as a (2, n) array on a flat array t."""
        return self._horner(self._u(t), self.stacked)

    def tensor(self, t: np.ndarray) -> np.ndarray:
        """(coef, B_N) as a (2, n) array on a flat array t: no root and
        no division, and coef at t = 0 is its limit coef_t[0]."""
        u = self._u(t)
        out = self._horner(u, self.stacked_t)
        out[1] *= u
        out[1] += self.coef_n[0]
        return out


@dataclass(frozen=True)
class SmallSeries:
    """(B_L, B_N) on [0, s1) from the measures' even moments: of degree 4
    in t = s^2 below s0, of degree 10 on [s0, s1).

    Each bound is where a bound on its band's first omitted term reaches
    eps/4: that term's kernel coefficient times mass * support_max^(2n)
    (for the moment of order 2n) times s^(2n), n = 5 for s0 and 11 for
    s1. Terms fall off like (s r)^2 / (4 k (k + d/2)) there, so the whole
    remainder stays within a hair of that term. The low band is in t
    itself, with exact moments; the mid one is in u = t unit^2, with the
    moments of s / unit, unit the power of two with
    unit <= support_max < 2 unit, so no coefficient can overflow and u
    is exact. s0 and s1 are 0.116 and 1.739 for the d = 2 unit atom,
    0.052 and 0.745 for the d = 3 mixed model with support up to 2.5.
    Each entry takes its band by itself, never by its batch.
    """

    s0: float
    s1: float
    low: SeriesBand
    mid: SeriesBand
    # s0^2 and s1^2: the bounds on the tensor's squared separations
    t0: float = field(init=False, repr=False, compare=False)
    t1: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "t0", self.s0 * self.s0)
        object.__setattr__(self, "t1", self.s1 * self.s1)


@lru_cache(maxsize=32)
def _small_s_series(model: IbfModel) -> SmallSeries:
    """The model's moment series (Baxendale & Harris, "Isotropic
    stochastic flows", Ann. Probab. 1986) and its bounds s0 and s1."""
    parts = [(mu, m, potential) for mu, m, potential in
             ((model.mu1, model.m_p, True), (model.mu2, model.m_s, False))
             if mu > 0.0]
    top = max((m.support_max() for _, m, _ in parts), default=1.0)
    bands, ends = [], []
    # the low band in t itself, the mid one in units of the power of two
    # in (top / 2, top]
    for degree, unit in zip(_SERIES_DEGREES,
                            (1.0, math.ldexp(0.5, math.frexp(top)[1]))):
        scale = unit * unit
        coef_l = [1.0] + [0.0] * degree
        coef_n = list(coef_l)
        coef_t = [0.0] * degree
        tail_l = tail_n = 0.0
        for mu, m, potential in parts:
            for k in range(1, degree + 1):
                kl, kn = _kernel_coefficients(model.d, potential, k)
                mom = spectral.scaled_moment(m, 2 * k, unit)
                coef_l[k] += mu * kl * mom
                coef_n[k] += mu * kn * mom
                coef_t[k - 1] += mu * (kl - kn) * mom * scale
            kl, kn = _kernel_coefficients(model.d, potential, degree + 1)
            # tails in units of top^(2 degree + 2), which cannot overflow
            bound = (mu * spectral.total_mass(m)
                     * (m.support_max() / top) ** (2 * degree + 2))
            tail_l += abs(kl) * bound
            tail_n += abs(kn) * bound
        tail = max(tail_l, tail_n)
        ends.append((_SERIES_TOL / tail) ** (1.0 / (2 * degree + 2)) / top
                    if tail > 0.0 else math.inf)
        bands.append(SeriesBand(scale, tuple(coef_l), tuple(coef_n),
                                tuple(coef_t)))
    # a model with little mass off mu0 can put the degree-4 bound past
    # the degree-10 one: its mid band is then empty
    return SmallSeries(s0=ends[0], s1=max(ends), low=bands[0], mid=bands[1])


@dataclass(frozen=True, eq=False)
class PiecewiseTable:
    """Piecewise polynomials on the uniform grid lo + k h, k = 0 .. pieces.

    rows has shape (degree + 1, functions, pieces): rows[k, j, p] is the
    coefficient of u^k, u = s - knot p, of function j on piece p; hi is
    the last knot. A point s is served by piece floor((s - lo) / h), the
    last piece also past hi: one gather of its coefficients, then
    Horner's rule.
    """

    rows: np.ndarray
    lo: float
    h: float
    hi: float

    def piece(self, s: np.ndarray) -> np.ndarray:
        return np.minimum(((s - self.lo) / self.h).astype(np.intp),
                          self.rows.shape[-1] - 1)

    def __call__(self, s: np.ndarray, piece: np.ndarray | None = None
                 ) -> np.ndarray:
        """The (functions, n) values at the flat array s."""
        if piece is None:
            piece = self.piece(s)
        u = s - (self.lo + piece * self.h)
        coef = self.rows.take(piece, axis=-1)
        val = coef[-1] * u
        val += coef[-2]
        for row in coef[-3::-1]:
            val *= u
            val += row
        return val


def hermite_rows(h, *derivatives: np.ndarray) -> np.ndarray:
    """PiecewiseTable rows (degree + 1, ..., pieces) of the Hermite
    interpolant on knots h apart (one step, or one per piece) of values
    and slopes, the cubic, or of values, slopes and second derivatives,
    the quintic; each given on the knots along the last axis."""
    if len(derivatives) == 2:
        f, g = derivatives
        g0, g1 = g[..., :-1], g[..., 1:]
        secant = np.diff(f) / h
        return np.array([f[..., :-1], g0, (3.0 * secant - 2.0 * g0 - g1) / h,
                         (g0 + g1 - 2.0 * secant) / (h * h)])
    f, g, c = derivatives
    f0, g0, c0 = f[..., :-1], g[..., :-1], c[..., :-1]
    # r0, r1, r2: what the quadratic Taylor part misses at the far knot
    # in the value, h times the slope and h^2 times the second
    # derivative; b_k = a_k h^k (k = 3, 4, 5) solve b3 + b4 + b5 = r0,
    # 3 b3 + 4 b4 + 5 b5 = r1 and 6 b3 + 12 b4 + 20 b5 = r2
    r0 = f[..., 1:] - f0 - h * (g0 + 0.5 * h * c0)
    r1 = h * (g[..., 1:] - g0 - h * c0)
    r2 = (h * h) * (c[..., 1:] - c0)
    return np.array([f0, g0, 0.5 * c0,
                     (10.0 * r0 - 4.0 * r1 + 0.5 * r2) / h ** 3,
                     (7.0 * r1 - 15.0 * r0 - r2) / h ** 4,
                     (6.0 * r0 - 3.0 * r1 + 0.5 * r2) / h ** 5])


class ScalarProfile:
    """(B_L, B_N) on [lo, 64] as piecewise quintics on a uniform grid.

    Each piece is the quintic Hermite interpolant of the exact values,
    slopes and second derivatives at its two knots. Pieces are built in
    blocks of _BLOCK the first time a separation lands in the block's
    span, always from the same knots: a run pays only for the range it
    meets, and a value never depends on which run built it.
    """

    def __init__(self, model: IbfModel, lo: float, h: float, pieces: int):
        self._model = model
        self.table = PiecewiseTable(np.empty((6, 2, pieces)), lo, h,
                                    _PROFILE_HI)
        self._built = np.zeros(-(-pieces // _BLOCK), dtype=bool)

    def _build(self, block: int) -> None:
        table = self.table
        first = block * _BLOCK
        stop = min(first + _BLOCK, table.rows.shape[-1])
        knots = table.lo + np.arange(first, stop + 1) * table.h
        # values, slopes, second derivatives: each a (2, knots) array
        exact = np.array(_scalars_exact(self._model, knots, derivatives=True))
        # each piece spans its own two rounded knots, whose distance is h
        # only to an ulp of the knot: a piece built on h would miss its
        # far knot's value by that ulp times the slope (2.6e-15 at s = 34
        # for the unit atom)
        table.rows[..., first:stop] = hermite_rows(np.diff(knots),
                                                   *exact.reshape(3, 2, -1))

    def __call__(self, s: np.ndarray) -> np.ndarray:
        piece = self.table.piece(s)
        span = slice(piece.min() // _BLOCK, piece.max() // _BLOCK + 1)
        if not self._built[span].all():
            for block in range(span.start, span.stop):
                if not self._built[block]:
                    self._build(block)
                    self._built[block] = True
        return self.table(s, piece)


@lru_cache(maxsize=32)
def _scalar_profile(model: IbfModel) -> ScalarProfile:
    """The model's profile on [s1, 64], with its step from the quintic
    Hermite remainder: a piece of width h errs by at most
    h^6 / 46080 max |B^(6)|. Every scalar is a nonnegative-weight average
    of cos(s k t) with |t| <= 1 over k from the measures, and 1 at
    s = 0, so |B^(6)| <= M6 = sum_i mu_i moment(m_i, 6) / mass(m_i), and
    h = (46080 eps / M6)^(1/6) holds the remainder to eps."""
    lo = _small_s_series(model).s1
    m6 = sum(mu * spectral.moment(m, 6) / spectral.total_mass(m)
             for mu, m in ((model.mu1, model.m_p), (model.mu2, model.m_s))
             if mu > 0.0)
    step = (46080.0 * _EPS / m6) ** (1.0 / 6.0)
    pieces = min(max(1, math.ceil((_PROFILE_HI - lo) / step)), _MAX_PIECES)
    return ScalarProfile(model, lo, (_PROFILE_HI - lo) / pieces, pieces)


def covariance_scalars(model: IbfModel, s):
    """Full-model (B_L, B_N) at separations s.

    The constant mu0 component contributes mu0 to both scalars at every
    separation (its tensor is mu0 * identity everywhere). Each
    separation's route depends on the model and s alone, never on the
    batch: the moment series for s < s1 (s = 0 gives exactly 1), of
    degree 4 in s^2 below s0 and of degree 10 on [s0, s1), the
    piecewise-quintic profile on [s1, 64], exact quadrature beyond 64
    (the series serves every s < s1, even past 64 for a model whose s1
    is). A non-finite separation has no covariance and gives NaN.

    Each route is evaluated on its own entries only, so a batch with no
    entry in [s1, 64] leaves the profile unbuilt.
    """
    arr = np.asarray(s, dtype=float)
    flat = np.atleast_1d(arr).ravel()
    lo = flat.min(initial=math.inf)
    if not lo >= 0.0:  # a negative minimum, or a NaN that hides one
        _checked_separations(flat)
    series = _small_s_series(model)
    hi = flat.max(initial=-math.inf)
    if hi < series.s0:
        b_l, b_n = series.low.values(flat * flat)
    elif lo >= series.s1 and hi <= _PROFILE_HI:
        b_l, b_n = _scalar_profile(model)(flat)
    else:
        b_l, b_n = out = np.empty((2, flat.size))
        low = flat < series.s0
        near = flat < series.s1
        far = ~(near | (flat <= _PROFILE_HI))  # NaN and inf too
        for entries, route in (
                (low, lambda v: series.low.values(v * v)),
                (near ^ low, lambda v: series.mid.values(v * v)),
                (~(near | far), lambda v: _scalar_profile(model)(v)),
                (far, lambda v: _scalars_exact(model, v))):
            if entries.any():
                out[:, entries] = route(flat[entries])
    if arr.ndim == 0:
        return float(b_l[0]), float(b_n[0])
    return b_l.reshape(arr.shape), b_n.reshape(arr.shape)


def tensor_scalars(model: IbfModel, comps) -> tuple[np.ndarray, np.ndarray]:
    """(coef, B_N), b(x) = coef x x^T + B_N I, at the separations x whose
    d components are comps (on axis 0); coef = (B_L - B_N) / |x|^2. The
    one copy of the tensor arithmetic: t = |x|^2 sums the squares in
    component order, and picks each entry's route by itself.

    An entry with t < s1^2 takes the moment series, for coef and B_N
    alike, of degree 4 in t below s0^2 and of degree 10 from there: no
    root, no division, and no cancellation of B_L against B_N, so coef
    keeps its full relative accuracy as x -> 0 and is its limit at
    x = 0, where the tensor is exactly I. Only the other entries take
    the root and covariance_scalars, looked up on this module, so a
    wrapper installed there sees every such call.
    """
    sq = comps[0] * comps[0]
    for x in comps[1:]:
        sq += x * x
    shape = np.shape(sq)
    t = np.reshape(sq, -1)
    series = _small_s_series(model)
    if t.max(initial=-math.inf) < series.t0:  # all low band; NaN is not
        coef, b_n = series.low.tensor(t)
    else:
        # each row scattered by itself: a (2, n) scatter through a mask
        # costs several times two row scatters
        coef, b_n = np.empty((2, t.size))
        low = t < series.t0
        near = t < series.t1
        for entries, band in ((low, series.low), (near ^ low, series.mid)):
            if entries.any():
                coef[entries], b_n[entries] = band.tensor(t[entries])
        rest = ~near  # NaN too
        if rest.any():
            s = np.sqrt(t[rest])
            b_l, b_n_rest = covariance_scalars(model, s)
            b_n[rest] = b_n_rest
            coef[rest] = (b_l - b_n_rest) / (s * s)
    return coef.reshape(shape), b_n.reshape(shape)


def flow_constants(model: IbfModel) -> FlowConstants:
    """Exact beta_l, beta_n and top Lyapunov exponent from second moments."""
    if model.is_trivial:
        raise ModelError("flow constants are undefined for the trivial model")
    d = model.d
    denom = d * (d + 2.0)
    m2p = spectral.moment(model.m_p, 2) if model.m_p is not None else 0.0
    m2s = spectral.moment(model.m_s, 2) if model.m_s is not None else 0.0
    beta_l = 3.0 * model.mu1 / denom * m2p + (d - 1.0) * model.mu2 / denom * m2s
    beta_n = model.mu1 / denom * m2p + (d + 1.0) * model.mu2 / denom * m2s
    lam = (d - 1.0) * beta_n / 2.0 - beta_l / 2.0
    return FlowConstants(beta_l=beta_l, beta_n=beta_n, lam=lam)
