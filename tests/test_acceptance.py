"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line (visible with -s or on failure). The
statistical criteria use the exact parameters fixed here; run times for
the whole module are around ten minutes on a desktop core.
"""

import json
import math

import numpy as np
import pytest

from ibflow import (SpectralMeasure, b_scalar, bessel_j, check_condition,
                    covariance_tensor, drift_radial_rkhs, flow_constants,
                    length_decay_experiment, lyapunov_estimate, make_model,
                    squeeze_functional, squeeze_experiment,
                    tracking_experiment)
from ibflow.cli import parse_config, run_command

from conftest import bessel_zero_oracle, random_model, series_j_oracle


def _pass(n: int, name: str, detail: str):
    print(f"[criterion {n:2d}] {name}: PASS ({detail})")


def _sweep_models(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [random_model(rng, d=2 if k % 2 == 0 else 3) for k in range(count)]


def test_criterion_01_normalization_identity():
    """All four covariance scalars equal 1 at separation 0 and the
    tensor at the origin is the identity, for randomized models."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(10):
        d = 2 if k % 2 == 0 else 3
        w = rng.uniform(0.1, 1.0, size=3)
        mu0, mu1, mu2 = w / w.sum()
        model = make_model(
            d, mu0, mu1, mu2,
            m_p=SpectralMeasure(atoms=((float(rng.uniform(0.3, 3.0)), 1.0),),
                                density_pieces=((0.4, 1.9, 0.5),)),
            m_s=SpectralMeasure(atoms=((float(rng.uniform(0.3, 3.0)), 1.0),)))
        for component in ("P", "S"):
            for s in (0.0, 1e-7):
                # at 1e-7, the s -> 0 limit of the quadrature itself
                worst = max([worst] + [abs(b - 1.0) for b in
                                       b_scalar(model, component, s)])
        gap = np.max(np.abs(covariance_tensor(model, np.zeros(d)) - np.eye(d)))
        worst = max(worst, float(gap))
    assert worst < 1e-8
    _pass(1, "normalization identity", f"max deviation {worst:.2e} over 10 models")


def test_criterion_02_squeeze_identity_sweep():
    """The double sphere average, as the 64-node rule in t = theta.phi,
    equals the Bessel integral to 1e-4 relative across >= 20 (model, rho)
    pairs."""
    rng = np.random.default_rng(202)
    pairs = 0
    worst = 0.0
    models = _sweep_models(303, 10)
    models.append(make_model(2, 0.0, 1.0, 0.0,
                             m_p=SpectralMeasure(atoms=((1.0, 1.0),))))
    for model in models:
        for rho in rng.uniform(0.4, 2.5, size=2):
            lhs, rhs = squeeze_functional(model, float(rho), 64)
            gap = abs(lhs - rhs) / max(abs(rhs), 1e-6)
            worst = max(worst, gap)
            pairs += 1
    assert pairs >= 20
    assert worst < 1e-4
    _pass(2, "squeeze-functional identity", f"max rel gap {worst:.2e} over {pairs} pairs")


def test_criterion_03_degeneracy_detection():
    """An atom on the first scaled Bessel zero defeats the condition and
    kills the functional; any density-bearing measure satisfies it."""
    brackets = {2: (3.5, 4.0), 3: (4.2, 4.7)}
    details = []
    for d in (2, 3):
        zero = bessel_zero_oracle(d / 2, *brackets[d])
        rho = 1.0
        degen = make_model(d, 0.0, 1.0, 0.0,
                           m_p=SpectralMeasure(atoms=((zero / rho, 1.0),)))
        report = check_condition(degen, rho)
        lhs, rhs = squeeze_functional(degen, rho, 64)
        assert not report.satisfied
        assert abs(lhs) < 1e-6 and abs(rhs) < 1e-10
        dens = make_model(d, 0.2, 0.5, 0.3,
                          m_p=SpectralMeasure(density_pieces=((0.5, 2.0, 1.0),)),
                          m_s=SpectralMeasure(atoms=((1.0, 1.0),)))
        report2 = check_condition(dens, rho)
        lhs2, _ = squeeze_functional(dens, rho, 64)
        assert report2.satisfied and lhs2 > 0.0
        details.append(f"d={d}: degenerate lhs {lhs:.1e}, density lhs {lhs2:.3f}")
    _pass(3, "degeneracy detection", "; ".join(details))


def test_criterion_04_incompressibility_relation():
    """(d+1) beta_l - (d-1) beta_n vanishes exactly when mu1 = 0."""
    rng = np.random.default_rng(404)
    checked = 0
    for k in range(20):
        model = random_model(rng, force_mu1_zero=(k % 2 == 0))
        fc = flow_constants(model)
        gap = (model.d + 1) * fc.beta_l - (model.d - 1) * fc.beta_n
        if model.mu1 == 0.0:
            assert abs(gap) < 1e-10
        else:
            assert gap > 1e-10
        checked += 1
    _pass(4, "incompressibility relation", f"{checked} models, both directions")


def test_criterion_05_lyapunov_agreement():
    """Monte-Carlo exponents match the analytic values within 3 SE
    (SE < 0.03) for the potential and solenoidal atom models."""
    details = []
    for name, kwargs, lam in (
            ("potential", dict(mu0=0.0, mu1=1.0, mu2=0.0), -0.25),
            ("solenoidal", dict(mu0=0.0, mu1=0.0, mu2=1.0), +0.25)):
        measure = SpectralMeasure(atoms=((1.0, 1.0),))
        model = make_model(2, kwargs["mu0"], kwargs["mu1"], kwargs["mu2"],
                           m_p=measure if kwargs["mu1"] else None,
                           m_s=measure if kwargs["mu2"] else None)
        assert flow_constants(model).lam == pytest.approx(lam, abs=1e-14)
        res = lyapunov_estimate(model, T=20.0, dt=1e-3, n_pairs=200, seed=505)
        est, se = res.aggregate["estimate"], res.aggregate["standard_error"]
        assert se < 0.03
        assert abs(est - lam) < 3.0 * se
        details.append(f"{name}: {est:+.4f} +/- {se:.4f} vs {lam:+.2f}")
    _pass(5, "Lyapunov agreement", "; ".join(details))


def test_criterion_06_control_scaling():
    """Mean sup deviation from the drift ODE scales like c^(-1/2):
    log-log slope within [-0.7, -0.3] over c in {4, 16, 64, 256}."""
    model = make_model(2, 0.0, 1.0, 0.0,
                       m_p=SpectralMeasure(atoms=((1.0, 1.0),)))
    x0 = np.array(
        [[0.5, 0.0], [0.0, 1.0], [-1.2, 0.0], [0.0, -0.7], [0.3, 0.4]])
    v_field = drift_radial_rkhs(model, 1.0, scale=1.0)
    cs = [4.0, 16.0, 64.0, 256.0]
    res = tracking_experiment(model, v_field, cs, x0, T=2.0, dt=1e-3,
                              n_paths=50, seed=606)
    means = res.series["sup_deviation"].mean(axis=0)
    slope = float(np.polyfit(np.log(cs), np.log(means), 1)[0])
    assert -0.7 < slope < -0.3
    _pass(6, "control tracking scaling", f"slope {slope:.3f}, means "
          + ", ".join(f"{m:.4f}" for m in means))


def test_criterion_07_tilted_squeezing():
    """With the inward field tilted at scale 64 the ball-squeezing
    frequency is at least 1/2; the untilted frequency is reported (it is
    expected to be unobservably small at this scale)."""
    model = make_model(2, 0.0, 1.0, 0.0,
                       m_p=SpectralMeasure(atoms=((1.0, 1.0),)))
    common = dict(R=1.0, delta=0.1, T1=0.5, T2=1.0, n_boundary=64, dt=2e-3,
                  n_paths=200, seed=707)
    tilt = drift_radial_rkhs(model, 1.0, scale=64.0)
    tilted = squeeze_experiment(model, drift=tilt, **common)
    freq = tilted.aggregate["success_frequency"]
    assert freq >= 0.5
    untilted = squeeze_experiment(model, drift=None, **common)
    freq0 = untilted.aggregate["success_frequency"]
    assert freq0 >= 0.0
    _pass(7, "tilted squeezing",
          f"tilted {freq:.3f} (wilson {tilted.aggregate['wilson_low']:.3f}-"
          f"{tilted.aggregate['wilson_high']:.3f}), untilted {freq0:.3f}")


def test_criterion_08_length_bounds():
    """Terminal length rates respect the growth bound on every path for
    the solenoidal model, and concentrate at the exponent on shrinking
    paths for the contracting model."""
    measure = SpectralMeasure(atoms=((1.0, 1.0),))
    sol = make_model(2, 0.0, 0.0, 1.0, m_s=measure)
    fc = flow_constants(sol)
    bound = fc.lam + fc.beta_l / 2.0

    ang = 2 * np.pi * np.arange(64) / 64
    big_circle = 4.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    grow = length_decay_experiment(sol, big_circle, T=10.0, dt=2e-3,
                                   n_paths=16, seed=808, closed=True)
    rates = np.array(grow.aggregate["terminal_rates"])
    se = grow.aggregate["terminal_rate_se"]
    limit = bound + 0.1 + 3.0 * se
    assert np.all(rates <= limit)

    pot = make_model(2, 0.0, 1.0, 0.0, m_p=measure)
    lam = flow_constants(pot).lam
    ang24 = 2 * np.pi * np.arange(24) / 24
    tiny = 0.005 * np.column_stack([np.cos(ang24), np.sin(ang24)])
    shrink = length_decay_experiment(pot, tiny, T=20.0, dt=2e-3,
                                     n_paths=100, seed=809, closed=True)
    frac = shrink.aggregate["shrink_fraction"]
    sub_mean = shrink.aggregate["shrunk_terminal_rate_mean"]
    assert frac > 0.2
    assert abs(sub_mean - lam) < 0.15
    _pass(8, "length bounds",
          f"growth max rate {rates.max():.3f} <= {limit:.3f}; shrink subset "
          f"mean {sub_mean:.3f} vs lambda {lam:+.2f} (fraction {frac:.2f})")


def test_criterion_09_reproducibility(tmp_path):
    """Identical config and seed produce bitwise-identical CSVs."""
    doc = {
        "model": {"d": 2, "mu0": 0.0, "mu1": 1.0, "mu2": 0.0,
                  "m_p": {"atoms": [[1.0, 1.0]], "density": []},
                  "drift": {"kind": "radial_rkhs", "rho": 1.0, "scale": 32.0}},
        "command": "squeeze",
        "params": {"R": 1.0, "delta": 0.1, "T1": 0.1, "T2": 0.2, "dt": 0.005,
                   "n_paths": 8, "n_boundary": 16},
        "seed": 909,
    }
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_command("squeeze", parse_config(doc), out_dir=out, quiet=True)
        blobs.append((out / "squeeze.csv").read_bytes())
        report = json.loads((out / "squeeze_report.json").read_text())
        report.pop("wall_clock")
        blobs.append(json.dumps(report, sort_keys=True).encode())
    assert blobs[0] == blobs[2]  # CSV bytes
    assert blobs[1] == blobs[3]  # report minus wall clock
    _pass(9, "reproducibility", f"{len(blobs[0])} CSV bytes identical across runs")


def test_criterion_10_bessel_kernel_accuracy():
    """Half-integer closed forms agree with the high-precision series to
    1e-10 relative on [0.1, 40] (relative scale floored at a few percent
    of the oscillation amplitude right at the zero crossings, where
    value-relative error is conditioning-dominated); the three-term
    recurrence residual stays below 1e-9.
    """
    worst = 0.0
    for m in range(10):
        nu = m + 0.5
        xs = np.linspace(0.1, 40.0, 181)
        mine = bessel_j(nu, xs)
        for x, got in zip(xs, mine):
            ref = series_j_oracle(nu, x)
            amp = math.sqrt(2.0 / (math.pi * max(x, 1.0)))
            rel = abs(got - ref) / max(abs(ref), 0.03 * amp)
            worst = max(worst, rel)
    assert worst < 1e-10

    res_worst = 0.0
    xs = np.linspace(0.5, 40.0, 791)
    for nu in (1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 7.5, 9.0):
        lhs = bessel_j(nu - 1, xs) + bessel_j(nu + 1, xs)
        rhs = (2 * nu / xs) * bessel_j(nu, xs)
        scale = np.maximum.reduce(
            [np.abs(lhs), np.abs(rhs), np.full_like(xs, 1e-3)])
        res_worst = max(res_worst, float(np.max(np.abs(lhs - rhs) / scale)))
    assert res_worst < 1e-9
    _pass(10, "Bessel kernel accuracy",
          f"closed-form vs series {worst:.2e}; recurrence residual {res_worst:.2e}")
