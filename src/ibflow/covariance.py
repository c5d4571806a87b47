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
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import spectral
from .bessel import bessel_j_ratio
from .spectral import SpectralMeasure

MIN_DIM = 2
MAX_DIM = 16
_KINDS = ("PL", "PN", "SL", "SN")
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
def _nodes(measure: SpectralMeasure, points: int = spectral.DEFAULT_QUAD_POINTS):
    return spectral.quadrature_nodes(measure, points)


def _c_norm(d: int) -> float:
    return 2.0 ** (0.5 * (d - 2)) * math.gamma(0.5 * d)


def _measure_for(model: IbfModel, kind: str) -> SpectralMeasure:
    if kind not in _KINDS:
        raise ModelError(f"kind must be one of {_KINDS}, got {kind!r}")
    m = model.m_p if kind[0] == "P" else model.m_s
    if m is None:
        part = "potential" if kind[0] == "P" else "solenoidal"
        raise ModelError(f"model has no {part} measure (needed for {kind})")
    return m


def _checked_separations(s) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(s, dtype=float)
    flat = np.atleast_1d(arr).ravel()
    if np.any(flat < 0.0):
        raise ModelError("separation must be >= 0")
    return arr, flat


def b_scalar(model: IbfModel, kind: str, s):
    """Longitudinal/transverse covariance scalar of one component.

    Vectorized over s and always evaluated by quadrature; s = 0 returns
    the analytic limit 1 exactly rather than quadrature across the
    removable singularity.
    """
    measure = _measure_for(model, kind)
    arr, flat = _checked_separations(s)
    b_l, b_n = _component_scalars(model.d, measure, kind[0] == "P", flat)
    vals = np.where(flat == 0.0, 1.0, b_l if kind[1] == "L" else b_n)
    if arr.ndim == 0:
        return float(vals[0])
    return vals.reshape(arr.shape)


def _component_scalars(d: int, measure: SpectralMeasure, potential: bool,
                       s: np.ndarray, slopes: bool = False) -> list[np.ndarray]:
    """[B_L, B_N] of one component on a flat array of separations, with
    [dB_L/ds, dB_N/ds] appended when slopes is set, evaluated over at most
    _QUAD_PAIRS (separation, node) pairs at a time."""
    locs, wts = _nodes(measure)
    step = max(1, _QUAD_PAIRS // locs.size)
    parts = [_quadrature(d, locs, wts, potential, s[lo:lo + step], slopes)
             for lo in range(0, max(s.size, 1), step)]
    return [np.concatenate(col) for col in zip(*parts)]


def _quadrature(d: int, locs: np.ndarray, wts: np.ndarray, potential: bool,
                s: np.ndarray, slopes: bool) -> list[np.ndarray]:
    """_component_scalars on one chunk of separations. Bessel ratios are
    shared between the scalars; the slopes use
    d/dz (J_nu(z) / z^nu) = -z J_(nu+1)(z) / z^(nu+1) and d/ds = r d/dz.
    """
    z = s[:, None] * locs[None, :]
    c = _c_norm(d)
    ratios = {}

    def jr(order):
        if order not in ratios:
            ratios[order] = bessel_j_ratio(order, z)
        return ratios[order]

    def against_measure(vals, weights=wts):
        # row-wise pairwise sum: result independent of the batch shape,
        # so single and batched evaluations agree bitwise
        return (vals * weights).sum(axis=-1)

    mid = d / 2.0
    if potential:
        out = [c * against_measure(jr(mid) - z * z * jr(mid + 1.0)),
               c * against_measure(jr(mid))]
    else:
        out = [(d - 1.0) * c * against_measure(jr(mid)),
               c * against_measure(jr(mid - 1.0) - jr(mid))]
    if slopes:
        rw = locs * wts
        zjr = z * jr(mid + 1.0)
        if potential:
            out += [c * against_measure(z ** 3 * jr(mid + 2.0) - 3.0 * zjr, rw),
                    -c * against_measure(zjr, rw)]
        else:
            out += [-(d - 1.0) * c * against_measure(zjr, rw),
                    c * against_measure(zjr - z * jr(mid), rw)]
    return out


def _scalars_exact(model: IbfModel, flat: np.ndarray,
                   slopes: bool = False) -> list[np.ndarray]:
    """[B_L, B_N] by quadrature, then [dB_L/ds, dB_N/ds] if slopes is set;
    a non-finite separation has no covariance and gives NaN."""
    finite = flat < math.inf
    out = [np.full(flat.shape, model.mu0, dtype=float) for _ in range(2)]
    out += [np.zeros(flat.shape) for _ in range(2 if slopes else 0)]
    for mu, m, potential in ((model.mu1, model.m_p, True),
                             (model.mu2, model.m_s, False)):
        if mu > 0.0:
            for acc, part in zip(out, _component_scalars(
                    model.d, m, potential, np.where(finite, flat, 0.0), slopes)):
                acc += mu * part
    out[0] = np.where(flat == 0.0, 1.0, out[0])
    out[1] = np.where(flat == 0.0, 1.0, out[1])
    return [np.where(finite, acc, np.nan) for acc in out]


# ---------------------------------------------------------------------------
# the kernel route: series below s0, profile on [s0, 64], quadrature beyond

_PROFILE_HI = 64.0
_SERIES_DEGREE = 4  # in s^2: needs moments up to order 8, all exact
_SERIES_TOL = 0.25 * float(np.finfo(float).eps)
_BLOCK = 256  # profile pieces built together


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
class SmallSeries:
    """(B_L, B_N) near 0 as polynomials of degree 4 in s^2.

    coef_l[k], coef_n[k] multiply s^(2k); the constant term is the
    normalization B(0) = 1, set exactly, so s = 0 evaluates to 1. s0 is
    where a bound on the first omitted term, its kernel coefficient
    times mass * support_max^10 (for the moment of order 10) times
    s^10, reaches eps/4. Terms fall off like (s r)^2 / (4 k (k + d/2))
    there, so the whole remainder stays within a hair of that term.
    """

    s0: float
    coef_l: tuple[float, ...]
    coef_n: tuple[float, ...]

    def __call__(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = s * s
        return _horner(self.coef_l, t), _horner(self.coef_n, t)


def _horner(coef: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    out = np.full(t.shape, coef[-1])
    for c in coef[-2::-1]:
        out *= t
        out += c
    return out


@lru_cache(maxsize=32)
def _small_s_series(model: IbfModel) -> SmallSeries:
    """The model's moment series (Baxendale & Harris, "Isotropic
    stochastic flows", Ann. Probab. 1986) and its range [0, s0)."""
    parts = [(mu, m, potential) for mu, m, potential in
             ((model.mu1, model.m_p, True), (model.mu2, model.m_s, False))
             if mu > 0.0]
    coef_l = [1.0] + [0.0] * _SERIES_DEGREE
    coef_n = list(coef_l)
    tail_l = tail_n = 0.0
    top = max((m.support_max() for _, m, _ in parts), default=1.0)
    for mu, m, potential in parts:
        for k in range(1, _SERIES_DEGREE + 1):
            kl, kn = _kernel_coefficients(model.d, potential, k)
            mom = spectral.moment(m, 2 * k)
            coef_l[k] += mu * kl * mom
            coef_n[k] += mu * kn * mom
        kl, kn = _kernel_coefficients(model.d, potential, _SERIES_DEGREE + 1)
        # tails in units of top^10, which cannot overflow
        bound = mu * spectral.total_mass(m) * (m.support_max() / top) ** 10
        tail_l += abs(kl) * bound
        tail_n += abs(kn) * bound
    tail = max(tail_l, tail_n)
    s0 = (_SERIES_TOL / tail) ** 0.1 / top if tail > 0.0 else math.inf
    return SmallSeries(s0=s0, coef_l=tuple(coef_l), coef_n=tuple(coef_n))


@dataclass(frozen=True, eq=False)
class CubicTable:
    """Piecewise cubics on the uniform grid lo + k h, k = 0 .. pieces.

    rows[4 j + k] holds the coefficient of u^k, u = s - knot, of every
    piece of the j-th function; hi is the last knot. A point s is served
    by piece floor((s - lo) / h), the last piece also past hi, by direct
    index and Horner's rule.
    """

    rows: np.ndarray
    lo: float
    h: float
    hi: float

    def piece(self, s: np.ndarray) -> np.ndarray:
        return np.minimum(((s - self.lo) / self.h).astype(np.intp),
                          self.rows.shape[1] - 1)

    def __call__(self, s: np.ndarray, piece: np.ndarray | None = None
                 ) -> list[np.ndarray]:
        if piece is None:
            piece = self.piece(s)
        u = s - (self.lo + piece * self.h)
        out = []
        for first in range(0, self.rows.shape[0], 4):
            val = self.rows[first + 3][piece]
            for k in (2, 1, 0):
                val *= u
                val += self.rows[first + k][piece]
            out.append(val)
        return out


def hermite_rows(f: np.ndarray, g: np.ndarray, h) -> list[np.ndarray]:
    """CubicTable rows of the cubic Hermite interpolant of values f and
    slopes g at knots h apart (one step, or one per piece)."""
    secant = np.diff(f) / h
    return [f[:-1], g[:-1], (3.0 * secant - 2.0 * g[:-1] - g[1:]) / h,
            (g[:-1] + g[1:] - 2.0 * secant) / (h * h)]


class ScalarProfile:
    """(B_L, B_N) on [lo, 64] as piecewise cubics on a uniform grid.

    Each piece is the cubic Hermite interpolant of the exact values and
    slopes at its two knots, so its interpolation error is at most
    h^4/384 times the fourth derivative; with h refined past the
    measure's support scale that stays below the rounding of the
    quadrature itself (up to ~1e-12 where the Bessel series cancel).
    Pieces are built in blocks of _BLOCK the first time a separation
    lands in the block's span, always from the same knots: a run pays
    only for the range it meets, and a value never depends on which run
    built it.
    """

    def __init__(self, model: IbfModel, lo: float, h: float, pieces: int):
        self._model = model
        # B_L in rows 0-3, B_N in rows 4-7
        self.cubics = CubicTable(np.empty((8, pieces)), lo, h, _PROFILE_HI)
        self._built = np.zeros(-(-pieces // _BLOCK), dtype=bool)
        self._lock = threading.Lock()

    def _build(self, block: int) -> None:
        table = self.cubics
        first = block * _BLOCK
        stop = min(first + _BLOCK, table.rows.shape[1])
        knots = table.lo + np.arange(first, stop + 1) * table.h
        b_l, b_n, d_l, d_n = _scalars_exact(self._model, knots, slopes=True)
        table.rows[:, first:stop] = (hermite_rows(b_l, d_l, table.h)
                                     + hermite_rows(b_n, d_n, table.h))

    def __call__(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        piece = self.cubics.piece(s)
        span = slice(piece.min() // _BLOCK, piece.max() // _BLOCK + 1)
        if not self._built[span].all():
            with self._lock:
                for block in range(span.start, span.stop):
                    if not self._built[block]:
                        self._build(block)
                        self._built[block] = True
        b_l, b_n = self.cubics(s, piece)
        return b_l, b_n


@lru_cache(maxsize=32)
def _scalar_profile(model: IbfModel) -> ScalarProfile:
    """The model's profile on [s0, 64], with a grid step refined past
    the support scale of its measures."""
    lo = _small_s_series(model).s0
    loc_max = max(
        [m.support_max() for m in (model.m_p, model.m_s) if m is not None],
        default=1.0)
    step = 2.5e-3 / max(1.0, loc_max / 2.0)
    n = min(max(2, 1 + int((_PROFILE_HI - lo) / step)), 262144)
    return ScalarProfile(model, lo, (_PROFILE_HI - lo) / (n - 1), n - 1)


def covariance_scalars(model: IbfModel, s):
    """Full-model (B_L, B_N) at separations s.

    The constant mu0 component contributes mu0 to both scalars at every
    separation (its tensor is mu0 * identity everywhere). Each
    separation's route depends on the model and s alone, never on the
    batch: the moment series for s < s0 (s = 0 gives exactly 1), the
    piecewise-cubic profile on [s0, 64], exact quadrature beyond 64. A
    non-finite separation has no covariance and gives NaN.
    """
    arr, flat = _checked_separations(s)
    series = _small_s_series(model)
    lo = flat.min(initial=math.inf)
    hi = flat.max(initial=-math.inf)
    if hi < series.s0:
        b_l, b_n = series(flat)
    elif lo >= series.s0 and hi <= _PROFILE_HI:
        b_l, b_n = _scalar_profile(model)(flat)
    else:
        b_l = np.empty_like(flat)
        b_n = np.empty_like(flat)
        small = flat < series.s0
        far = ~(small | (flat <= _PROFILE_HI))  # NaN and inf too
        routes = ((small, series),
                  (~(small | far), lambda x: _scalar_profile(model)(x)),
                  (far, lambda x: _scalars_exact(model, x)))
        for mask, route in routes:
            if mask.any():
                b_l[mask], b_n[mask] = route(flat[mask])
    if arr.ndim == 0:
        return float(b_l[0]), float(b_n[0])
    return b_l.reshape(arr.shape), b_n.reshape(arr.shape)


def tensor_field(model: IbfModel, xs: np.ndarray) -> np.ndarray:
    """Covariance tensors b(x) for a batch of separation vectors.

    xs has shape (..., d); the result has shape (..., d, d). At x = 0
    the tensor is exactly the identity. It is built one component pair
    at a time (|x|^2 too, in component order): broadcasting over the tiny
    trailing axes would cost more than the arithmetic.
    """
    xs = np.asarray(xs, dtype=float)
    d = model.d
    if xs.shape[-1] != d:
        raise ModelError(f"separation vectors must have length d = {d}")
    comps = [xs[..., a] for a in range(d)]
    s = np.sqrt(sum(x * x for x in comps))
    b_l, b_n = covariance_scalars(model, s)
    s2 = s * s
    coef = np.divide(b_l - b_n, s2, out=np.zeros_like(s2), where=s2 > 0.0)
    out = np.empty(xs.shape + (d,))
    for a in range(d):
        for c in range(a, d):
            out[..., a, c] = out[..., c, a] = coef * (comps[a] * comps[c])
        out[..., a, a] += b_n
    return out


def covariance_tensor(model: IbfModel, x) -> np.ndarray:
    """Covariance tensor b(x) as a dense d x d matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ModelError(f"point must be a vector of length d = {model.d}")
    return tensor_field(model, x)


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


def psd_probe(model: IbfModel, points, directions) -> float:
    """Quadratic form sum_{k,l} <b(x_k - x_l) xi_k, xi_l>.

    Callers assert the result is >= -tolerance; positive semi-definiteness
    of the kernel makes the exact value nonnegative.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if pts.shape != dirs.shape or pts.shape[0] < 1:
        raise ModelError("points and directions must be equal-length lists")
    blocks = tensor_field(model, pts[:, None, :] - pts[None, :, :])
    return float(np.einsum("ki,klij,lj->", dirs, blocks, dirs))
