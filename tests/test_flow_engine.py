"""Flow integration, observables, and the experiment harness."""

import math
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ibflow import (SpectralMeasure, curve_length, diameter,
                    drift_linear, drift_radial_rkhs, flow_engine, kernel_rows,
                    length_decay_experiment, lyapunov_estimate, make_model,
                    ode_flow, pivoted_cholesky_batch, squeeze_experiment,
                    tracking_experiment, wilson_interval)

from conftest import containment, fresh_python, random_rotation


def same_result(a, b) -> bool:
    """Two ExperimentResults hold bitwise the same times, series and
    per-path numerics."""
    return (np.array_equal(a.times, b.times) and list(a.series) == list(b.series)
            and all(np.array_equal(a.series[k], b.series[k]) for k in a.series)
            and all(np.array_equal(x, y)
                    for x, y in zip(a.numerics, b.numerics, strict=True)))


def simulate_one(model, points, t1, dt, seed=0, **step):
    """One path from points by _simulate, seeded default_rng(seed): its
    snapshot times and (snapshots, N, d) positions."""
    times, states = [], []

    def observer(t, k, x):
        times.append(t)
        states.append(x[0].copy())

    flow_engine._simulate(model, np.asarray(points, dtype=float)[None], t1,
                          dt, [np.random.default_rng(seed)], observer, **step)
    return np.array(times), np.array(states)


# the length-decay shape: a 24-vertex circle of radius 0.005
TINY_CIRCLE = 0.005 * np.column_stack([np.cos(2 * np.pi * np.arange(24) / 24),
                                       np.sin(2 * np.pi * np.arange(24) / 24)])


def radial(model):
    """The inward radial drift at rho 1 and scale 1 that tracking follows."""
    return drift_radial_rkhs(model, 1.0, scale=1.0)


class TestObservables:
    def test_curve_length_square(self):
        square = np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.]])
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
        seg = np.array([[0., 0.], [3., 0.]])
        assert curve_length(seg) == 3.0

    def test_midpoint_refinement_keeps_length(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 2))
        refined = np.empty((24, 2))
        refined[0::2] = pts
        refined[1::2] = 0.5 * (pts + np.roll(pts, -1, axis=0))
        orig = curve_length(pts, closed=True)
        fine = curve_length(refined, closed=True)
        assert fine == pytest.approx(orig, abs=1e-12)

    def test_diameter_colinear_and_single(self):
        tri = np.array([[0., 0.], [1., 0.], [3., 0.]])
        assert diameter(tri) == 3.0
        assert diameter(np.zeros((1, 2))) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    @pytest.mark.parametrize("n", [1, 2, 24, 200])
    def test_diameter_batch_is_the_pairwise_formula(self, d, n):
        # blocks of rows summed over component planes against the max over
        # all (B, N, N, d) differences at once: bitwise below d = 8, where
        # np.linalg.norm sums the components in order; from d = 8 norm
        # sums them pairwise, and a sum of d squares in another order is
        # within d eps of it, its root within d eps / 2. n = 200 takes
        # four blocks of rows
        x = np.random.default_rng(n + d).normal(size=(5, n, d))
        x[0] *= 1e-3
        x[1, -1] = x[1, 0]  # a repeated point
        dist = np.linalg.norm(x[:, :, None, :] - x[:, None, :, :], axis=-1)
        want = dist.max(axis=(1, 2))
        got = flow_engine._diam_batch(x)
        if d < 8:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=d * np.finfo(float).eps,
                                       atol=0)

    def test_diameter_rotation_invariant(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(9, 3))
        rot = random_rotation(3, rng)
        d0 = diameter(pts)
        d1 = diameter(pts @ rot.T)
        assert d1 == pytest.approx(d0, abs=1e-12)

    def test_diameter_bounded_by_length(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(14, 2))
        assert diameter(pts) <= curve_length(pts, closed=True) + 1e-12

    def test_containment_strict(self):
        assert containment(np.zeros((1, 2)), 1.0)
        on_boundary = np.array([[1.0, 0.0]])
        assert not containment(on_boundary, 1.0)

    def test_containment_translation(self):
        cloud = np.array([[2.0, 2.0], [2.1, 2.0]])
        assert containment(cloud, 0.5, center=[2.05, 2.0])
        assert not containment(cloud, 0.5, center=[0.0, 0.0])

    def test_containment_monotone_in_radius(self):
        rng = np.random.default_rng(3)
        cloud = rng.normal(size=(5, 2))
        radii = np.linspace(0.1, 6.0, 25)
        flags = [containment(cloud, r) for r in radii]
        assert flags == sorted(flags)  # once inside, stays inside

    def test_wilson_interval(self):
        lo, hi = wilson_interval(8, 10)
        assert 0.0 <= lo < 0.8 < hi <= 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestEulerFlow:
    def test_trivial_model_rigid_translation(self, trivial_model):
        _, traj = simulate_one(trivial_model, [[0., 0.], [1., 0.], [0., 2.]],
                               1.0, 0.01, seed=4)
        d0 = diameter(traj[0])
        # every point gets the same increment, so only the rounding of
        # the position updates moves the diameter
        for snap in traj:
            assert diameter(snap) == pytest.approx(d0, abs=1e-12)

    def test_zero_noise_linear_drift_decays(self, d2_potential_atom):
        # noise_scale 0 adds exactly +-0 to each step
        _, traj = simulate_one(d2_potential_atom, [[1.0, 0.0]], 1.0, 1e-3,
                               drift=drift_linear(-np.eye(2)), noise_scale=0.0)
        end = traj[-1, 0]
        assert end[0] == pytest.approx(math.exp(-1.0), abs=2e-3)
        assert end[1] == 0.0

    def test_single_point_increments_are_brownian(self, d2_mixed):
        dt = 1e-3
        _, traj = simulate_one(d2_mixed, np.zeros((1, 2)), 10.0, dt, seed=5,
                               stride=1)
        inc = np.diff(traj[:, 0], axis=0) / math.sqrt(dt)
        n = inc.shape[0]
        # one-point motion is standard Brownian: unit variance, no memory
        assert abs(inc[:, 0].mean()) < 5 / math.sqrt(n)
        assert abs(inc.var() - 1.0) < 5 * math.sqrt(2.0 / (2 * n))
        lag1 = np.mean(inc[1:, 0] * inc[:-1, 0])
        assert abs(lag1) < 5 / math.sqrt(n)

    def test_snapshot_times_and_exact_landing(self, d2_mixed):
        times, _ = simulate_one(d2_mixed, np.zeros((1, 2)), 0.333, 0.01,
                                seed=6, stride=10)
        assert times[0] == 0.0
        assert times[-1] == 0.333
        assert times[1] == pytest.approx(0.1, abs=1e-15)

    def test_dt_validation(self, d2_mixed):
        with pytest.raises(ValueError):
            simulate_one(d2_mixed, np.zeros((1, 2)), 1.0, 2.0)
        with pytest.raises(ValueError):
            flow_engine._simulate(d2_mixed, np.zeros((1, 1, 2)), 0.0, 0.1,
                                  [np.random.default_rng(0)],
                                  lambda t, k, x: None)


class TestOdeFlow:
    def test_linear_decay_reference(self):
        times, xs = ode_flow(drift_linear(-np.eye(2)), np.array([[1.0, 0.0]]),
                             1.0, 1e-3)
        assert xs[-1, 0, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)
        assert times[-1] == 1.0

    def test_zero_field_fixed_point(self):
        _, xs = ode_flow(drift_linear(np.zeros((2, 2))),
                         np.array([[0.3, -0.7]]), 1.0, 0.1)
        assert np.array_equal(xs[-1], np.array([[0.3, -0.7]]))

    def test_radial_field_contracts_inside_band(self, d2_potential_atom):
        theta = np.array([[math.cos(1.1), math.sin(1.1)]])
        _, xs = ode_flow(radial(d2_potential_atom), theta, 2.0, 1e-2)
        radii = np.linalg.norm(xs[:, 0], axis=-1)
        assert np.all(np.diff(radii) < 0.0)

    def test_batched_integration(self, d2_potential_atom):
        x0 = np.array([[1.0, 0.0], [0.0, 0.5]])
        _, xs = ode_flow(radial(d2_potential_atom), x0, 1.0, 1e-2)
        assert xs.shape == (101, 2, 2)

    @pytest.mark.parametrize("stride", [1, 7, 10, 101, 500])
    def test_records_the_snapshots(self, d2_potential_atom, stride):
        # the states at 0, every stride-th step and the last (101 steps,
        # the last partial), bitwise as recorded at every step
        x0 = np.array([[1.0, 0.0], [0.0, 0.5]])
        times, xs = ode_flow(radial(d2_potential_atom), x0, 1.005, 1e-2)
        kept = [*range(0, 101, stride), 101]
        got_t, got = ode_flow(radial(d2_potential_atom), x0, 1.005, 1e-2,
                              stride)
        assert np.array_equal(got_t, times[kept])
        assert np.array_equal(got, xs[kept])

    def test_snapshot_memory(self):
        # 256 points over 10^4 steps at stride 10^4 keep two states
        x0 = np.random.default_rng(3).normal(size=(256, 2))
        tracemalloc.start()
        try:
            _, xs = ode_flow(drift_linear(-np.eye(2)), x0, 1.0, 1e-4, 10 ** 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xs.shape == (2, 256, 2)
        assert peak < 2 ** 20


class TestLyapunov:
    def test_trivial_model_estimate_vanishes(self, trivial_model):
        res = lyapunov_estimate(trivial_model, T=2.0, dt=1e-2, n_pairs=8,
                                renorm_eps=1e-3, seed=0)
        # common increments cancel up to the rounding of the positions
        assert abs(res.aggregate["estimate"]) < 1e-8

    def test_result_holds_rates_and_statistics(self, d2_potential_atom):
        res = lyapunov_estimate(d2_potential_atom, T=0.3, dt=1e-2, n_pairs=5,
                                seed=2)
        assert res.times.tolist() == [0.3]
        rates = res.series["estimate"]
        assert list(res.series) == ["estimate"] and rates.shape == (5, 1)
        ag = res.aggregate
        assert ag["estimate"] == rates.mean()
        assert ag["standard_error"] == rates.std(ddof=1) / math.sqrt(5)
        assert (ag["rank_min"], ag["rank_max"]) == (
            res.numerics[0].min(), res.numerics[1].max())

    def test_reproducible(self, d2_potential_atom):
        a = lyapunov_estimate(d2_potential_atom, T=0.5, dt=1e-2, n_pairs=6, seed=3)
        b = lyapunov_estimate(d2_potential_atom, T=0.5, dt=1e-2, n_pairs=6, seed=3)
        assert same_result(a, b)
        c = lyapunov_estimate(d2_potential_atom, T=0.5, dt=1e-2, n_pairs=6, seed=4)
        assert not np.array_equal(a.series["estimate"], c.series["estimate"])

    def test_renormalization_resets_partner(self, d2_potential_atom,
                                            monkeypatch):
        # a pair that left [eps/10, 10 eps] adds log(r / eps) and has its
        # partner put back at distance eps along its separation; a pair
        # inside the band is left alone until the final reading
        eps, T = 1e-4, 1.0
        sep = np.array([[50 * eps, 0.0], [0.0, 0.05 * eps], [2 * eps, eps]])
        x = np.zeros((3, 2, 2))
        x[:, 0] = [0.3, -0.2]
        x[:, 1] = x[:, 0] + sep
        start = x.copy()

        def run_paths(model, x0, T, dt, seed, n_pairs, observe, **step):
            assert observe(0.5 * T, 1, x, 0) is None
            rates = observe(T, 2, x, 0)["estimate"]
            return (np.array([T]), {"estimate": rates[:, None]},
                    (np.ones(3, dtype=int), np.ones(3, dtype=int), np.zeros(3)))

        monkeypatch.setattr(flow_engine, "_run_paths", run_paths)
        res = lyapunov_estimate(d2_potential_atom, T=T, dt=0.5, n_pairs=3,
                                renorm_eps=eps)
        for i in (0, 1):
            moved = x[i, 1] - x[i, 0]
            assert np.linalg.norm(moved) == pytest.approx(eps, rel=1e-12)
            unit = sep[i] / np.linalg.norm(sep[i])
            np.testing.assert_allclose(moved / eps, unit, atol=1e-12)
        assert np.array_equal(x[2], start[2])
        # the renormalized pairs end at distance eps, which adds log 1 = 0
        np.testing.assert_allclose(
            res.series["estimate"][:, 0] * T,
            [math.log(50.0), math.log(0.05), math.log(math.sqrt(5.0))],
            rtol=0, atol=1e-12)

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
                d2_potential_atom, ring, T=0.2, dt=1e-2, n_paths=3, seed=4,
                closed=True)
            lyap = lyapunov_estimate(d2_potential_atom, T=0.2, dt=1e-2,
                                     n_pairs=3, seed=4)
            runs.append((rep, lyap))
        assert same_result(runs[0][0], runs[1][0])
        assert same_result(runs[0][1], runs[1][1])

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
            # F's width is the batch's largest rank; path 3's columns
            # past its own rank are zeros
            r = rank[3 - lo]
            assert not f[3 - lo, :, r:].any()
            normals = flow_engine._step_normals(
                flow_engine._path_gens(4, lo, hi), 5, 8)
            incs = [f[3 - lo, :, :r] @ z[3 - lo, :r] for z in normals]
            return rank, f[3 - lo, :, :r], np.array(incs)

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
        # profile range, the radius-0.005 circle's stay in the series range;
        # Lyapunov pairs renormalize in place, tracking compares with its
        # ODE reference. Path 0 alone or with 7 others, and path 64 as the
        # first path of a second chunk holding 1 or 8 paths, keep every bit
        # of every recorded series and of their rank numerics

        def record(n_paths, i):
            if shape == "lyapunov":
                rep = lyapunov_estimate(d2_potential_atom, T=0.2, dt=1e-2,
                                        n_pairs=n_paths, seed=3)
            elif shape == "tracking":
                rep = tracking_experiment(
                    d2_potential_atom, radial(d2_potential_atom),
                    [4.0, 16.0], np.array([[0.5, 0.0], [0.0, 0.7]]), T=0.2,
                    dt=1e-2, n_paths=n_paths, seed=3)
            elif shape == "shell":
                rep = squeeze_experiment(
                    d2_potential_atom, R=1.0, delta=0.1, T1=0.01, T2=0.02,
                    n_boundary=64, dt=2e-3, n_paths=n_paths, seed=3)
            else:
                rep = length_decay_experiment(
                    d2_potential_atom, TINY_CIRCLE, T=0.2, dt=1e-2,
                    n_paths=n_paths, seed=3, closed=True)
            return (*(series[i] for series in rep.series.values()),
                    *(n[i] for n in rep.numerics))

        def same(a, b):
            return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))

        assert same(record(1, 0), record(8, 0))
        assert same(record(65, 64), record(72, 64))

    @pytest.mark.parametrize("shape", ["shell", "circle"])
    def test_chunk_size_keeps_every_bit(self, d2_potential_atom, monkeypatch,
                                        shape):
        # chunks of 1, 7, 35, 64, 69 and all 70 paths, from byte budgets
        # that fit that many (B, m, m) factors with the 64-path floor
        # lifted (69 and 70 one byte apart, either side of the boundary),
        # batch the paths differently, so the row source's held scalars are
        # hit and missed at different pivots; every series and rank numeric
        # must keep every bit. The circle runs to T = 1, where its paths
        # reach ranks 7, 8 and 9 as they spread (at T = 0.2 all 70 stay at
        # rank 7)
        m = 128 if shape == "shell" else TINY_CIRCLE.size
        full = 8 * m * m
        monkeypatch.setattr(flow_engine, "_CHUNK_PATHS_MIN", 1)

        def run(budget):
            monkeypatch.setattr(flow_engine, "_CHUNK_BYTES", budget)
            if shape == "shell":
                return squeeze_experiment(
                    d2_potential_atom, R=1.0, delta=0.1, T1=0.01, T2=0.02,
                    n_boundary=64, dt=2e-3, n_paths=70, seed=3)
            return length_decay_experiment(
                d2_potential_atom, TINY_CIRCLE, T=1.0, dt=1e-2, n_paths=70,
                seed=3, closed=True)

        whole = run(70 * full)
        assert flow_engine._chunk_paths(m, 70) == 70
        assert len(set(whole.numerics[1].tolist())) > 1  # ranks differ by path
        for budget, chunk in ((full, 1), (7 * full, 7), (35 * full, 35),
                              (64 * full, 64), (70 * full - 1, 69)):
            assert same_result(run(budget), whole)
            assert flow_engine._chunk_paths(m, 70) == chunk

    def test_chunk_paths_by_bytes(self):
        # 64 paths' (64, 128, 128) factor is the 8 MiB budget: one
        # coordinate fewer a path fits 65 paths, and from m = 128 on every
        # chunk keeps the 64-path floor; small m takes every path up to the
        # cap
        assert flow_engine._CHUNK_BYTES == 64 * 8 * 128 * 128
        assert flow_engine._chunk_paths(127, 10 ** 6) == 65
        assert flow_engine._chunk_paths(128, 10 ** 6) == 64
        assert flow_engine._chunk_paths(129, 10 ** 6) == 64
        assert flow_engine._chunk_paths(512, 10 ** 6) == 64
        assert flow_engine._chunk_paths(4, 128) == 128
        assert flow_engine._chunk_paths(4, 10 ** 6) == 1 << 12
        assert flow_engine._chunk_paths(1024, 10) == 10

    @pytest.mark.parametrize("shape", ["shell", "circle"])
    def test_increment_is_factor_times_normals(self, d2_potential_atom,
                                               shape):
        # one step of size 1 without drift moves the points by F z, summed
        # over the batch's used columns in pivot order
        pts = (flow_engine.boundary_shell(2, 1.1, 64) if shape == "shell"
               else TINY_CIRCLE)
        x0 = np.broadcast_to(pts, (8,) + pts.shape)
        moves = []
        flow_engine._simulate(d2_potential_atom, x0, 1.0, 1.0,
                              flow_engine._path_gens(2, 0, 8),
                              lambda t, k, x: moves.append(x.copy()))
        f, rank, _ = pivoted_cholesky_batch(*kernel_rows(d2_potential_atom,
                                                         x0))
        z = next(flow_engine._step_normals(flow_engine._path_gens(2, 0, 8),
                                           1, pts.size))
        assert rank.max() < pts.size  # the sum stops short of m columns
        got = (moves[1] - moves[0]).reshape(8, -1)
        want = (f @ z[:, :f.shape[-1], None])[:, :, 0]
        bound = 1e-14 * np.abs(f).max(axis=(1, 2)) * np.linalg.norm(z, axis=1)
        assert (np.abs(got - want).max(axis=1) <= bound).all()

    def test_streams_distinct_across_seed_and_path(self):
        # under seed XOR path, (5, 1) and (6, 2) shared one stream
        a = flow_engine._path_gens(5, 1, 2)[0].standard_normal(4)
        b = flow_engine._path_gens(6, 2, 3)[0].standard_normal(4)
        assert not np.array_equal(a, b)


# one chunk of the squeeze shape: 64 paths of the 64-tracer shell of
# radius 1.1, 5 steps observed by the diameter, after a warm-up call that
# builds the kernel's profile blocks
_CHUNK_RUN = textwrap.dedent("""
    import numpy as np
    from ibflow import SpectralMeasure, flow_engine, make_model
    model = make_model(2, 0.0, 1.0, 0.0,
                       m_p=SpectralMeasure(atoms=((1.0, 1.0),)))
    shell = flow_engine.boundary_shell(2, 1.1, 64)

    def run(paths, steps):
        flow_engine._simulate(
            model, np.broadcast_to(shell, (paths, 64, 2)), steps * 1e-3,
            1e-3, flow_engine._path_gens(3, 0, paths),
            lambda t, k, x: flow_engine._diam_batch(x), stride=1)
""")


class TestChunkMemory:
    def test_numpy_allocations(self):
        # numpy's own allocations of the chunk, counted whole, the 3.9 MiB
        # reserve of its factor buffer (63 of the 128 column slabs of a
        # (B, m, m) factor) included: 5.6 MiB, against 9.7 MiB with all
        # 128 slabs reserved and 20.6 MiB with the diameter's (B, N, N, d)
        # temporary and two factors alive on the heap
        scope = {}
        exec(_CHUNK_RUN, scope)
        scope["run"](64, 1)
        tracemalloc.start()
        try:
            scope["run"](64, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak resident set from procfs")
    def test_resident_factor_follows_rank(self):
        # the (64, 128, 128) factor reserves 63 column slabs, 3.9 MiB,
        # below numpy's 4 MiB huge-page threshold, and only its first
        # max-rank (19 to 20) slabs are ever written; in a fresh process
        # the chunk raises the peak resident set by 2.8 MiB (3.2-4.8 MiB
        # with all 128 slabs reserved on huge pages, 8.7 MiB with the
        # factor on np.zeros, 20.4 MiB with two factors and the diameter's
        # 4-D temporary alive)
        script = _CHUNK_RUN + textwrap.dedent("""
            def peak_mib():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            return int(line.split()[1]) / 1024

            run(1, 1)
            before = peak_mib()
            run(64, 5)
            print(peak_mib() - before)
        """)
        assert float(fresh_python(["-c", script]).splitlines()[-1]) < 6.0


class TestTracking:
    def test_deterministic_limit_floor(self, d2_potential_atom):
        # at c = 1e300 the noise, 1e-150 per step, is lost in the rounding
        # of the positions: what is left is the Euler-vs-RK4 gap
        res = tracking_experiment(d2_potential_atom, radial(d2_potential_atom),
                                  [1e300], np.array([[0.5, 0.0], [0.0, 1.0]]),
                                  T=2.0, dt=1e-3, n_paths=1, seed=0)
        assert res.series["sup_deviation"][0, 0] < 1e-3

    def test_bitwise_reproducible(self, d2_potential_atom):
        args = (d2_potential_atom, radial(d2_potential_atom), [16.0, 64.0],
                np.array([[0.5, 0.0]]))
        a = tracking_experiment(*args, T=0.3, dt=1e-2, n_paths=3, seed=11)
        b = tracking_experiment(*args, T=0.3, dt=1e-2, n_paths=3, seed=11)
        assert same_result(a, b)
        assert a.aggregate == b.aggregate

    def test_one_reference_serves_every_c(self, d2_potential_atom,
                                          monkeypatch):
        # each c's column, statistics and numerics are those of a run of
        # that c alone, and the RK4 reference is integrated once
        v, x0 = radial(d2_potential_atom), np.array([[0.5, 0.0], [0.0, 0.7]])
        cs = [4.0, 16.0, 64.0]
        alone = [tracking_experiment(d2_potential_atom, v, [c], x0, T=0.2,
                                     dt=1e-2, n_paths=3, seed=5)
                 for c in cs]
        calls = []
        real = flow_engine.ode_flow
        monkeypatch.setattr(flow_engine, "ode_flow",
                            lambda *a: calls.append(a) or real(*a))
        res = tracking_experiment(d2_potential_atom, v, cs, x0, T=0.2,
                                  dt=1e-2, n_paths=3, seed=5, snapshot_stride=10)
        assert len(calls) == 1
        assert res.series["sup_deviation"].shape == (3, 3)
        for j, one in enumerate(alone):
            assert np.array_equal(res.series["sup_deviation"][:, j],
                                  one.series["sup_deviation"][:, 0])
            assert res.aggregate["per_c"][str(cs[j])] == \
                one.aggregate["per_c"][str(cs[j])]
        want = (np.min([one.numerics[0] for one in alone], axis=0),
                np.max([one.numerics[1] for one in alone], axis=0),
                np.max([one.numerics[2] for one in alone], axis=0))
        assert all(np.array_equal(x, y) for x, y in zip(res.numerics, want))
        means = [res.aggregate["per_c"][str(c)]["mean"] for c in cs]
        assert res.aggregate["slope"] == np.polyfit(np.log(cs),
                                                    np.log(means), 1)[0]

    def test_c_validation(self, d2_potential_atom):
        for cs in ([0.5], [], [4.0, 4.0], [math.inf]):
            with pytest.raises(ValueError):
                tracking_experiment(
                    d2_potential_atom, radial(d2_potential_atom), cs,
                    np.array([[0.5, 0.0]]), T=0.3, dt=1e-2, n_paths=1, seed=0)

    def test_start_must_be_finite(self, d2_potential_atom):
        with pytest.raises(ValueError, match="x0 must be finite"):
            tracking_experiment(d2_potential_atom, radial(d2_potential_atom),
                                [4.0], np.array([[np.nan, 0.0]]), T=0.3,
                                dt=1e-2, n_paths=1, seed=0)


class TestPlainFunctionDrift:
    """A drift is any function that maps (m, d) points to (m, d) values:
    a lambda drives both experiments bitwise as the built linear drift
    with the same values does."""

    def test_squeeze(self, d2_potential_atom):
        kwargs = dict(R=1.0, delta=0.1, T1=0.05, T2=0.1, n_boundary=16,
                      dt=5e-3, n_paths=3, seed=4, snapshot_stride=2)
        built = squeeze_experiment(d2_potential_atom,
                                   drift=drift_linear(-np.eye(2)), **kwargs)
        plain = squeeze_experiment(d2_potential_atom, drift=lambda pts: -pts,
                                   **kwargs)
        assert same_result(built, plain)

    def test_tracking(self, d2_potential_atom):
        args = ([4.0, 16.0], np.array([[0.5, 0.0], [0.0, 0.4]]))
        kwargs = dict(T=0.1, dt=1e-2, n_paths=3, seed=4, snapshot_stride=3)
        built = tracking_experiment(d2_potential_atom, drift_linear(-np.eye(2)),
                                    *args, **kwargs)
        plain = tracking_experiment(d2_potential_atom, lambda pts: -pts,
                                    *args, **kwargs)
        assert same_result(built, plain)


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

    @pytest.mark.parametrize("mode", ["squeeze", "expand"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_shell_beyond_the_plane(self, d, mode):
        # d = 3 starts from the Fibonacci spiral, d >= 4 from seeded
        # Monte-Carlo nodes: n tracers on the sphere of the radius asked
        radius = 1.1 if mode == "squeeze" else 0.9
        shell = flow_engine.boundary_shell(d, radius, 12)
        assert shell.shape == (12, d)
        np.testing.assert_allclose(np.linalg.norm(shell, axis=1), radius,
                                   rtol=1e-14)
        model = make_model(d, 0.0, 1.0, 0.0,
                           m_p=SpectralMeasure(atoms=((1.0, 1.0),)))
        rep = squeeze_experiment(model, R=1.0, delta=0.1, T1=0.01, T2=0.02,
                                 n_boundary=12, dt=5e-3, n_paths=2, seed=3,
                                 mode=mode)
        assert rep.times[-1] == 0.02
        assert rep.series["diam"].shape == (2, rep.times.size)
        assert rep.series["diam"][0, 0] == diameter(shell)
        ag = rep.aggregate
        assert 1 <= ag["rank_min"] <= ag["rank_max"] <= 12 * d
        assert ag["rank_min"] == rep.numerics[0].min()
        assert ag["rank_max"] == rep.numerics[1].max()
        assert 0.0 <= ag["dropped_trace_max"] == rep.numerics[2].max()

    @pytest.mark.parametrize("n", [1, 8, 24, 61])
    def test_plane_shell_is_the_sphere_rule(self, n):
        # one circle: the d = 2 shell, which is also the oracles' d = 2
        # sphere rule, is bitwise cos and sin of 2 pi k / n
        shell = flow_engine.boundary_shell(2, 0.7, n)
        ang = 2.0 * math.pi * np.arange(n) / n
        assert np.array_equal(
            shell, 0.7 * np.column_stack([np.cos(ang), np.sin(ang)]))

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
        circle = np.column_stack([np.cos(ang), np.sin(ang)])
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
        seg = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        a = length_decay_experiment(d2_solenoidal_atom, seg, T=0.2, dt=1e-2,
                                    n_paths=3, seed=8)
        b = length_decay_experiment(d2_solenoidal_atom, seg, T=0.2, dt=1e-2,
                                    n_paths=3, seed=8)
        assert same_result(a, b)
        assert a.aggregate["terminal_rates"] == b.aggregate["terminal_rates"]

    def test_broken_length_invariant_raises(self, d2_solenoidal_atom,
                                            monkeypatch):
        # a diameter beyond every length (a zero length would be refused
        # as the start curve's)
        monkeypatch.setattr(flow_engine, "_diam_batch",
                            lambda x: np.full(x.shape[0], np.inf))
        seg = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(FloatingPointError, match="path 0, t = 0"):
            length_decay_experiment(d2_solenoidal_atom, seg, T=0.1, dt=1e-2,
                                    n_paths=2, seed=0)

    def test_needs_two_vertices(self, d2_solenoidal_atom):
        with pytest.raises(ValueError):
            length_decay_experiment(d2_solenoidal_atom, np.zeros((1, 2)),
                                    T=0.2, dt=1e-2, n_paths=1, seed=0)

    @pytest.mark.parametrize("closed", [False, True])
    def test_needs_positive_length(self, d2_solenoidal_atom, closed):
        # every terminal rate of a zero-length curve would be log(0 / 0)
        with pytest.raises(ValueError, match="length 0.0 must be positive"):
            length_decay_experiment(
                d2_solenoidal_atom, np.array([[0.3, 0.1], [0.3, 0.1]]),
                T=0.2, dt=1e-2, n_paths=1, seed=0, closed=closed)

    def test_vertices_must_be_finite(self, d2_solenoidal_atom):
        with pytest.raises(ValueError, match="curve vertices must be finite"):
            length_decay_experiment(
                d2_solenoidal_atom, np.array([[0.0, 0.0], [np.inf, 0.0]]),
                T=0.2, dt=1e-2, n_paths=1, seed=0)
