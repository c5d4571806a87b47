"""Flow integration, observables, and the experiment harness."""

import math
import sys

import numpy as np
import pytest

from ibflow import (PointCloud, containment, curve_length,
                    diameter, drift_linear, drift_radial_rkhs,
                    euler_flow, flow_engine, kernel_rows,
                    length_decay_experiment, lyapunov_estimate, ode_flow,
                    pivoted_cholesky_batch, squeeze_experiment,
                    tilted_tracking_error, wilson_interval)

from conftest import random_rotation


def same_result(a, b) -> bool:
    """Two ExperimentResults hold bitwise the same times, series and
    per-path numerics."""
    return (np.array_equal(a.times, b.times) and list(a.series) == list(b.series)
            and all(np.array_equal(a.series[k], b.series[k]) for k in a.series)
            and all(np.array_equal(x, y)
                    for x, y in zip(a.numerics, b.numerics, strict=True)))


class TestObservables:
    def test_curve_length_square(self):
        square = PointCloud(positions=np.array(
            [[0., 0.], [1., 0.], [1., 1.], [0., 1.]]))
        assert curve_length(square, closed=True) == 4.0
        assert curve_length(square, closed=False) == 3.0

    @pytest.mark.parametrize("closed", [False, True])
    def test_length_sums_segments_in_order(self, closed):
        # each path's length is its segment lengths added one by one, then
        # the wrap segment: the same bits alone and beside 8 others
        x = np.random.default_rng(4).normal(size=(9, 40, 3))
        seg = np.linalg.norm(np.diff(x, axis=1), axis=-1)
        want = []
        for i in range(len(x)):
            total = 0.0
            for s in seg[i]:
                total += s
            if closed:
                total += np.linalg.norm(x[i, -1] - x[i, 0])
            want.append(total)
        batch = flow_engine._length_batch(x, closed)
        alone = [flow_engine._length_batch(x[i:i + 1], closed)[0]
                 for i in range(len(x))]
        assert batch.tolist() == want == alone

    def test_two_point_segment(self):
        seg = PointCloud(positions=np.array([[0., 0.], [3., 0.]]))
        assert curve_length(seg) == 3.0

    def test_midpoint_refinement_keeps_length(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 2))
        refined = np.empty((24, 2))
        refined[0::2] = pts
        refined[1::2] = 0.5 * (pts + np.roll(pts, -1, axis=0))
        orig = curve_length(PointCloud(positions=pts), closed=True)
        fine = curve_length(PointCloud(positions=refined), closed=True)
        assert fine == pytest.approx(orig, abs=1e-12)

    def test_diameter_colinear_and_single(self):
        tri = PointCloud(positions=np.array([[0., 0.], [1., 0.], [3., 0.]]))
        assert diameter(tri) == 3.0
        assert diameter(PointCloud(positions=np.zeros((1, 2)))) == 0.0

    def test_diameter_rotation_invariant(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(9, 3))
        rot = random_rotation(3, rng)
        d0 = diameter(PointCloud(positions=pts))
        d1 = diameter(PointCloud(positions=pts @ rot.T))
        assert d1 == pytest.approx(d0, abs=1e-12)

    def test_diameter_bounded_by_length(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(14, 2))
        cloud = PointCloud(positions=pts)
        assert diameter(cloud) <= curve_length(cloud, closed=True) + 1e-12

    def test_containment_strict(self):
        assert containment(PointCloud(positions=np.zeros((1, 2))), 1.0)
        on_boundary = PointCloud(positions=np.array([[1.0, 0.0]]))
        assert not containment(on_boundary, 1.0)

    def test_containment_translation(self):
        cloud = PointCloud(positions=np.array([[2.0, 2.0], [2.1, 2.0]]))
        assert containment(cloud, 0.5, center=[2.05, 2.0])
        assert not containment(cloud, 0.5, center=[0.0, 0.0])

    def test_containment_monotone_in_radius(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(positions=rng.normal(size=(5, 2)))
        radii = np.linspace(0.1, 6.0, 25)
        flags = [containment(cloud, r) for r in radii]
        assert flags == sorted(flags)  # once inside, stays inside

    def test_wilson_interval(self):
        lo, hi = wilson_interval(8, 10)
        assert 0.0 <= lo < 0.8 < hi <= 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestEulerFlow:
    def test_trivial_model_rigid_translation(self, trivial_model):
        cloud = PointCloud(positions=np.array([[0., 0.], [1., 0.], [0., 2.]]))
        traj = euler_flow(trivial_model, cloud, 0.0, 1.0, 0.01,
                          rng=np.random.default_rng(4))
        d0 = diameter(traj[0])
        # every point gets the same increment, so only the rounding of
        # the position updates moves the diameter
        for snap in traj:
            assert diameter(snap) == pytest.approx(d0, abs=1e-12)

    def test_zero_noise_linear_drift_decays(self, d2_potential_atom):
        cloud = PointCloud(positions=np.array([[1.0, 0.0]]))
        traj = euler_flow(d2_potential_atom, cloud, 0.0, 1.0, 1e-3,
                          drift=drift_linear(-np.eye(2)), zero_noise=True)
        end = traj[-1].positions[0]
        assert end[0] == pytest.approx(math.exp(-1.0), abs=2e-3)
        assert end[1] == 0.0

    def test_single_point_increments_are_brownian(self, d2_mixed):
        cloud = PointCloud(positions=np.zeros((1, 2)))
        dt = 1e-3
        traj = euler_flow(d2_mixed, cloud, 0.0, 10.0, dt,
                          rng=np.random.default_rng(5), snapshot_stride=1)
        xs = np.array([s.positions[0] for s in traj])
        inc = np.diff(xs, axis=0) / math.sqrt(dt)
        n = inc.shape[0]
        # one-point motion is standard Brownian: unit variance, no memory
        assert abs(inc[:, 0].mean()) < 5 / math.sqrt(n)
        assert abs(inc.var() - 1.0) < 5 * math.sqrt(2.0 / (2 * n))
        lag1 = np.mean(inc[1:, 0] * inc[:-1, 0])
        assert abs(lag1) < 5 / math.sqrt(n)

    def test_snapshot_times_and_exact_landing(self, d2_mixed):
        cloud = PointCloud(positions=np.zeros((1, 2)))
        traj = euler_flow(d2_mixed, cloud, 0.0, 0.333, 0.01,
                          rng=np.random.default_rng(6), snapshot_stride=10)
        times = [s.time for s in traj]
        assert times[0] == 0.0
        assert times[-1] == 0.333
        assert times[1] == pytest.approx(0.1, abs=1e-15)

    def test_requires_rng_unless_zero_noise(self, d2_mixed):
        cloud = PointCloud(positions=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            euler_flow(d2_mixed, cloud, 0.0, 1.0, 0.1)

    def test_dt_validation(self, d2_mixed):
        cloud = PointCloud(positions=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            euler_flow(d2_mixed, cloud, 0.0, 1.0, 2.0,
                       rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            euler_flow(d2_mixed, cloud, 1.0, 1.0, 0.1,
                       rng=np.random.default_rng(0))


class TestOdeFlow:
    def test_linear_decay_reference(self):
        times, xs = ode_flow(drift_linear(-np.eye(2)), np.array([1.0, 0.0]),
                             1.0, 1e-3)
        assert xs[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)
        assert times[-1] == 1.0

    def test_zero_field_fixed_point(self):
        _, xs = ode_flow(drift_linear(np.zeros((2, 2))), np.array([0.3, -0.7]),
                         1.0, 0.1)
        assert np.array_equal(xs[-1], np.array([0.3, -0.7]))

    def test_radial_field_contracts_inside_band(self, d2_potential_atom):
        v = drift_radial_rkhs(d2_potential_atom, 1.0, scale=1.0)
        theta = np.array([math.cos(1.1), math.sin(1.1)])
        _, xs = ode_flow(v, theta, 2.0, 1e-2)
        radii = np.linalg.norm(xs, axis=-1)
        assert np.all(np.diff(radii) < 0.0)

    def test_batched_integration(self, d2_potential_atom):
        v = drift_radial_rkhs(d2_potential_atom, 1.0, scale=1.0)
        x0 = np.array([[1.0, 0.0], [0.0, 0.5]])
        _, xs = ode_flow(v, x0, 1.0, 1e-2)
        assert xs.shape == (101, 2, 2)


class TestLyapunov:
    def test_trivial_model_estimate_vanishes(self, trivial_model):
        res = lyapunov_estimate(trivial_model, T=2.0, dt=1e-2, n_pairs=8,
                                renorm_eps=1e-3, seed=0)
        # common increments cancel up to the rounding of the positions
        assert abs(res.estimate) < 1e-8

    def test_reproducible(self, d2_potential_atom):
        a = lyapunov_estimate(d2_potential_atom, T=0.5, dt=1e-2, n_pairs=6, seed=3)
        b = lyapunov_estimate(d2_potential_atom, T=0.5, dt=1e-2, n_pairs=6, seed=3)
        assert a.pair_estimates == b.pair_estimates
        c = lyapunov_estimate(d2_potential_atom, T=0.5, dt=1e-2, n_pairs=6, seed=4)
        assert a.pair_estimates != c.pair_estimates

    def test_jobs_do_not_change_results(self, d2_potential_atom):
        # the chunks' threads add into disjoint slices of one array; more
        # threads than cores, switching often, must lose no update
        a = lyapunov_estimate(d2_potential_atom, T=0.2, dt=1e-2, n_pairs=130,
                              seed=3, jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = lyapunov_estimate(d2_potential_atom, T=0.2, dt=1e-2,
                                  n_pairs=130, seed=3, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        assert a.pair_estimates == b.pair_estimates

    def test_renorm_eps_validated(self, d2_potential_atom):
        for eps in (1e-9, 0.5, 1e-2):
            with pytest.raises(ValueError):
                lyapunov_estimate(d2_potential_atom, T=1.0, dt=0.1,
                                  n_pairs=2, renorm_eps=eps)


class TestStreams:
    def test_block_and_per_step_draws_agree_bitwise(self, d2_potential_atom,
                                                    monkeypatch):
        gens = flow_engine._path_gens(9, 0, 3)
        blocks = [z.copy() for z in flow_engine._step_normals(gens, 12, 4)]
        gens = flow_engine._path_gens(9, 0, 3)
        steps = [np.stack([g.standard_normal(4) for g in gens])
                 for _ in range(12)]
        assert np.array_equal(np.array(blocks), np.array(steps))

        ring = 0.3 * np.column_stack([np.cos(np.arange(6.0)),
                                      np.sin(np.arange(6.0))])
        runs = []
        for cap in (flow_engine._DRAW_CAP, 1):  # cap 1: one step per draw
            monkeypatch.setattr(flow_engine, "_DRAW_CAP", cap)
            rep = length_decay_experiment(
                d2_potential_atom, PointCloud(positions=ring), T=0.2,
                dt=1e-2, n_paths=3, seed=4, closed=True)
            lyap = lyapunov_estimate(d2_potential_atom, T=0.2, dt=1e-2,
                                     n_pairs=3, seed=4)
            runs.append((rep, lyap.pair_estimates))
        assert same_result(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_path_independent_of_batch_and_position(self, d2_mixed):
        # fixed point sets whose covariances have different ranks: path
        # 3's factor and increments must not see how many paths run or
        # where its chunk starts
        rng = np.random.default_rng(5)
        clouds = rng.normal(size=(7, 4, 2))
        clouds[2, 1] = clouds[2, 0]
        clouds[5] *= 1e-3

        def path3(lo, hi):
            f, rank, _ = pivoted_cholesky_batch(
                *kernel_rows(d2_mixed, clouds[lo:hi]), path_offset=lo)
            normals = flow_engine._step_normals(
                flow_engine._path_gens(4, lo, hi), 5, 8)
            incs = [(f @ z[:, :, None])[3 - lo, :, 0] for z in normals]
            return rank, f[3 - lo], np.array(incs)

        ranks, f_ref, inc_ref = path3(0, 7)
        assert len(set(ranks.tolist())) > 1
        for lo, hi in ((0, 4), (3, 4), (2, 6), (3, 7)):
            _, f, inc = path3(lo, hi)
            assert np.array_equal(f, f_ref)
            assert np.array_equal(inc, inc_ref)

    @pytest.mark.parametrize("shape",
                             ["shell", "circle", "lyapunov", "tracking"])
    def test_path_record_independent_of_chunk_mates(self, d2_potential_atom,
                                                    shape):
        # the real kernel: the radius-1.1 shell's separations reach the
        # spline range, the radius-0.005 circle's stay in the series range;
        # Lyapunov pairs renormalize in place, tracking compares with its
        # ODE reference. Path 0 alone or with 7 others, and path 64 as the
        # first path of a second chunk holding 1 or 8 paths, keep every bit
        # of every recorded series and of their rank numerics
        ring = 0.005 * np.column_stack([np.cos(2 * np.pi * np.arange(24) / 24),
                                        np.sin(2 * np.pi * np.arange(24) / 24)])

        def record(n_paths, i):
            if shape == "lyapunov":
                res = lyapunov_estimate(d2_potential_atom, T=0.2, dt=1e-2,
                                        n_pairs=n_paths, seed=3)
                return (res.pair_estimates[i], *(n[i] for n in res.numerics))
            if shape == "tracking":
                x0 = PointCloud(positions=np.array([[0.5, 0.0], [0.0, 0.7]]))
                res = tilted_tracking_error(
                    d2_potential_atom, 1.0, c=16.0, x0=x0, T=0.2, dt=1e-2,
                    n_paths=n_paths, seed=3)
                return (res.sup_deviations[i], *(n[i] for n in res.numerics))
            if shape == "shell":
                rep = squeeze_experiment(
                    d2_potential_atom, R=1.0, delta=0.1, T1=0.01, T2=0.02,
                    n_boundary=64, dt=2e-3, n_paths=n_paths, seed=3)
            else:
                rep = length_decay_experiment(
                    d2_potential_atom, PointCloud(positions=ring), T=0.2,
                    dt=1e-2, n_paths=n_paths, seed=3, closed=True)
            return (*(series[i] for series in rep.series.values()),
                    *(n[i] for n in rep.numerics))

        def same(a, b):
            return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))

        assert same(record(1, 0), record(8, 0))
        assert same(record(65, 64), record(72, 64))

    def test_streams_distinct_across_seed_and_path(self):
        # under seed XOR path, (5, 1) and (6, 2) shared one stream
        a = flow_engine._path_gens(5, 1, 2)[0].standard_normal(4)
        b = flow_engine._path_gens(6, 2, 3)[0].standard_normal(4)
        assert not np.array_equal(a, b)


class TestTracking:
    def test_deterministic_limit_floor(self, d2_potential_atom):
        x0 = PointCloud(positions=np.array([[0.5, 0.0], [0.0, 1.0]]))
        res = tilted_tracking_error(d2_potential_atom, 1.0, c=1e9, x0=x0,
                                    T=2.0, dt=1e-3, n_paths=1, seed=0,
                                    zero_noise=True)
        # pure Euler-vs-RK4 discretization gap
        assert res.mean < 1e-3

    def test_bitwise_reproducible(self, d2_potential_atom):
        x0 = PointCloud(positions=np.array([[0.5, 0.0]]))
        a = tilted_tracking_error(d2_potential_atom, 1.0, c=16.0, x0=x0,
                                  T=0.3, dt=1e-2, n_paths=3, seed=11)
        b = tilted_tracking_error(d2_potential_atom, 1.0, c=16.0, x0=x0,
                                  T=0.3, dt=1e-2, n_paths=3, seed=11)
        assert a.sup_deviations == b.sup_deviations

    def test_c_validation(self, d2_potential_atom):
        x0 = PointCloud(positions=np.array([[0.5, 0.0]]))
        with pytest.raises(ValueError):
            tilted_tracking_error(d2_potential_atom, 1.0, c=0.5, x0=x0,
                                  T=0.3, dt=1e-2, n_paths=1, seed=0)


class TestSqueezeExperiment:
    def test_report_structure_and_determinism(self, d2_potential_atom):
        kwargs = dict(R=1.0, delta=0.1, T1=0.1, T2=0.2, n_boundary=16,
                      dt=5e-3, n_paths=6, seed=42)
        rep1 = squeeze_experiment(d2_potential_atom, **kwargs)
        rep2 = squeeze_experiment(d2_potential_atom, **kwargs)
        assert same_result(rep1, rep2)
        assert rep1.aggregate["success_count"] == rep2.aggregate["success_count"]
        assert 0.0 <= rep1.aggregate["success_frequency"] <= 1.0
        assert rep1.aggregate["n_paths"] == 6
        assert list(rep1.series) == ["diam", "contained"]
        for values in rep1.series.values():
            assert values.shape == (6, rep1.times.size)
        # 16 tracers on a shell of radius 1.1: C is 32 x 32 and singular
        ag = rep1.aggregate
        assert 2 <= ag["rank_min"] <= ag["rank_max"] < 32
        assert 0.0 <= ag["dropped_trace_max"] < 1e-9
        rank_min, rank_max, dropped = rep1.numerics
        assert ag["rank_min"] == rank_min.min()
        assert ag["rank_max"] == rank_max.max()
        assert ag["dropped_trace_max"] == dropped.max()
        lo, hi = rep1.aggregate["wilson_low"], rep1.aggregate["wilson_high"]
        assert 0.0 <= lo <= rep1.aggregate["success_frequency"] <= hi <= 1.0

    def test_containment_window(self, d2_potential_atom):
        rep = squeeze_experiment(d2_potential_atom, R=1.0, delta=0.1, T1=0.1,
                                 T2=0.2, n_boundary=16, dt=5e-3, n_paths=2,
                                 seed=1)
        assert rep.times[0] == 0.0 and rep.times[-1] == 0.2
        assert rep.series["contained"].shape == (2, rep.times.size)

    def test_expand_mode_with_outward_field(self, d2_potential_atom):
        out_field = drift_radial_rkhs(d2_potential_atom, 1.0, scale=-64.0)
        rep = squeeze_experiment(d2_potential_atom, R=1.0, delta=0.1, T1=0.25,
                                 T2=0.5, n_boundary=24, dt=5e-3, n_paths=8,
                                 seed=5, drift=out_field, mode="expand")
        assert rep.aggregate["success_frequency"] >= 0.5
        # expand starts from the shell of radius R - delta, not R + delta
        assert rep.series["diam"][0, 0] == pytest.approx(1.8, rel=1e-12)

    def test_parameter_validation(self, d2_potential_atom):
        with pytest.raises(ValueError):
            squeeze_experiment(d2_potential_atom, R=1.0, delta=0.1, T1=0.3,
                               T2=0.2, n_boundary=16, dt=1e-2, n_paths=1)
        with pytest.raises(ValueError):
            squeeze_experiment(d2_potential_atom, R=1.0, delta=0.1, T1=0.1,
                               T2=0.2, n_boundary=4, dt=1e-2, n_paths=1)
        with pytest.raises(ValueError):
            squeeze_experiment(d2_potential_atom, R=0.5, delta=0.6, T1=0.1,
                               T2=0.2, n_boundary=16, dt=1e-2, n_paths=1)

    def test_time_grid_refinement_stability(self, d2_potential_atom):
        tilt = drift_radial_rkhs(d2_potential_atom, 1.0, scale=24.0)
        kwargs = dict(R=1.0, delta=0.1, T1=0.25, T2=0.5, n_boundary=16,
                      n_paths=64, drift=tilt, seed=9)
        coarse = squeeze_experiment(d2_potential_atom, dt=5e-3, **kwargs)
        fine = squeeze_experiment(d2_potential_atom, dt=2.5e-3, **kwargs)
        f1 = coarse.aggregate["success_frequency"]
        f2 = fine.aggregate["success_frequency"]
        pooled = math.sqrt((f1 * (1 - f1) + f2 * (1 - f2)) / 64 + 1e-12)
        assert abs(f1 - f2) <= 3.0 * pooled + 1e-9


class TestLengthDecay:
    def test_polyline_bounds_and_records(self, d2_solenoidal_atom):
        ang = 2 * np.pi * np.arange(24) / 24
        circle = PointCloud(positions=np.column_stack([np.cos(ang), np.sin(ang)]))
        rep = length_decay_experiment(d2_solenoidal_atom, circle, T=0.5,
                                      dt=5e-3, n_paths=4, seed=2, closed=True)
        lengths, diams = rep.series["length"], rep.series["diam"]
        assert lengths.shape == diams.shape == (4, rep.times.size)
        # a polyline is always at least as long as any vertex gap
        assert np.all(lengths >= diams - 1e-12)
        ag = rep.aggregate
        assert 0.0 <= ag["shrink_fraction"] <= 1.0
        assert len(ag["terminal_rates"]) == 4

    def test_deterministic(self, d2_solenoidal_atom):
        seg = PointCloud(positions=np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]))
        a = length_decay_experiment(d2_solenoidal_atom, seg, T=0.2, dt=1e-2,
                                    n_paths=3, seed=8)
        b = length_decay_experiment(d2_solenoidal_atom, seg, T=0.2, dt=1e-2,
                                    n_paths=3, seed=8)
        assert same_result(a, b)
        assert a.aggregate["terminal_rates"] == b.aggregate["terminal_rates"]

    def test_broken_length_invariant_raises(self, d2_solenoidal_atom,
                                            monkeypatch):
        monkeypatch.setattr(flow_engine, "_length_batch",
                            lambda x, closed: np.zeros(x.shape[0]))
        seg = PointCloud(positions=np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(FloatingPointError, match="path 0, t = 0"):
            length_decay_experiment(d2_solenoidal_atom, seg, T=0.1, dt=1e-2,
                                    n_paths=2, seed=0)

    def test_needs_two_vertices(self, d2_solenoidal_atom):
        with pytest.raises(ValueError):
            length_decay_experiment(
                d2_solenoidal_atom, PointCloud(positions=np.zeros((1, 2))),
                T=0.2, dt=1e-2, n_paths=1, seed=0)
