"""Kernel rows, the rank-revealing factor, drift field evaluation."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RegularGridInterpolator

import ibflow
from ibflow import (CovarianceFactorError, DriftEvaluationError, DriftField,
                    ModelError, PointCloud, covariance_tensor,
                    drift_custom_table, drift_linear, drift_radial_rkhs,
                    euler_flow, eval_drift, field_sampler, flow_engine,
                    kernel_rows, mean_inward_field, pivoted_cholesky_batch,
                    psd_probe, sphere_rule, tensor_field)

from conftest import J1_AT_1, random_rotation


def kernel_matrices(model, pts):
    """C[i][j] = b(x_i - x_j) from tensor_field, point sets (B, N, d)."""
    pts = np.asarray(pts, dtype=float)
    nb, n, d = pts.shape
    blocks = tensor_field(model, pts[:, :, None, :] - pts[:, None, :, :])
    return blocks.transpose(0, 1, 3, 2, 4).reshape(nb, n * d, n * d)


def matrix_rows(covs):
    """pivoted_cholesky_batch's row source and diagonal for a fixed
    (B, m, m) batch of matrices."""
    covs = np.asarray(covs, dtype=float)
    paths = np.arange(len(covs))
    return (lambda p: covs[paths, p]), np.diagonal(covs, axis1=1, axis2=2)


def factor_one(model, pts):
    """Covariance, factor, rank and dropped trace of one point set; the
    stepper's kernel rows factor it bitwise as the matrix's rows do."""
    cov = kernel_matrices(model, np.asarray(pts, dtype=float)[None])
    f, rank, dropped = pivoted_cholesky_batch(*matrix_rows(cov))
    f_k, rank_k, dropped_k = pivoted_cholesky_batch(
        *kernel_rows(model, np.asarray(pts, dtype=float)[None]))
    assert np.array_equal(f_k, f)
    assert (rank_k[0], dropped_k[0]) == (rank[0], dropped[0])
    return cov[0], f[0], int(rank[0]), float(dropped[0])


def increment(f, dt, z):
    """The Euler step's joint increment sqrt(dt) F z, one row per point."""
    return (math.sqrt(dt) * (f @ z)).reshape(-1, 2)


class TestBuildSampler:
    def test_single_point_identity(self, d2_mixed):
        _, f, rank, dropped = factor_one(d2_mixed, np.zeros((1, 2)))
        assert np.array_equal(f, np.eye(2))
        assert rank == 2 and dropped == 0.0

    def test_coincident_points_identical_increments(self, d2_mixed):
        # a duplicated tracer adds no rank: its rows of F equal its twin's,
        # so the two move together exactly
        pts = np.array([[0.3, -0.2], [0.3, -0.2], [1.0, 0.5]])
        _, f, rank, _ = factor_one(d2_mixed, pts)
        assert rank == 4
        assert np.array_equal(f[0:2], f[2:4])
        inc = increment(f, 0.7, np.random.default_rng(0).standard_normal(6))
        assert np.array_equal(inc[0], inc[1])
        assert not np.array_equal(inc[0], inc[2])

    def test_offdiagonal_block_is_covariance_tensor(self, d2_mixed, d3_mixed):
        # whatever the order of the pivots, each row served is bitwise the
        # matching row of the tensor_field blocks b(x_i - x_j): coincident
        # tracers included, and the block at j = i is the identity
        rng = np.random.default_rng(12)
        for model in (d2_mixed, d3_mixed):
            d = model.d
            pts = rng.normal(size=(3, 4, d))
            pts[1, 3] = pts[1, 0]
            blocks = tensor_field(model,
                                  pts[:, :, None, :] - pts[:, None, :, :])
            assert np.array_equal(blocks[1, 0, 3], np.eye(d))
            assert np.array_equal(
                blocks[0, 0, 1], covariance_tensor(model, pts[0, 0] - pts[0, 1]))
            row, diag = kernel_rows(model, pts)
            assert np.array_equal(diag, np.ones((3, 4 * d)))
            pivots = [np.zeros(3, dtype=int), np.ones(3, dtype=int)]
            pivots += list(rng.integers(0, 4 * d, size=(12, 3)))
            for p in pivots:
                rows = row(p)
                for b, (i, a) in enumerate(zip(*np.divmod(p, d))):
                    assert np.array_equal(rows[b], blocks[b, i, :, a].ravel())
                    assert np.array_equal(rows[b, i * d:(i + 1) * d],
                                          np.eye(d)[a])
                rows[:] = np.nan  # a fresh array: the next row is unaffected
            assert np.array_equal(row(p)[0],
                                  blocks[0, p[0] // d, :, p[0] % d].ravel())

    def test_cloud_dimension_checked(self, d3_mixed):
        with pytest.raises(ModelError):
            kernel_rows(d3_mixed, np.zeros((1, 2, 2)))

    def test_indefinite_covariance_names_path_and_step(self):
        bad = np.stack([np.eye(2), np.diag([1.0, -5.0])])
        with pytest.raises(CovarianceFactorError,
                           match="path 8, step 3: .*not positive semidefinite"):
            pivoted_cholesky_batch(*matrix_rows(bad), path_offset=7, step=3)
        # indefinite through an off-diagonal entry, positive diagonal
        swap = np.array([[[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(CovarianceFactorError) as exc:
            pivoted_cholesky_batch(*matrix_rows(swap), step=0)
        assert (exc.value.path_index, exc.value.step) == (0, 0)
        nan = np.stack([np.eye(2), np.eye(2), np.full((2, 2), np.nan)])
        with pytest.raises(CovarianceFactorError,
                           match="path 12, step 5: .*not finite"):
            pivoted_cholesky_batch(*matrix_rows(nan), path_offset=10, step=5)
        # a finite diagonal: the non-finite entry shows in the row read
        nan = np.stack([np.eye(2), [[1.0, np.nan], [np.nan, 1.0]]])
        with pytest.raises(CovarianceFactorError,
                           match="path 4, step 0: .*not finite"):
            pivoted_cholesky_batch(*matrix_rows(nan), path_offset=3, step=0)

    def test_factor_reconstructs_covariance(self, d2_mixed, d3_mixed,
                                            trivial_model):
        rng = np.random.default_rng(11)
        clouds = [
            (d2_mixed, np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.5]])),
            (d2_mixed, 0.01 * rng.normal(size=(12, 2))),   # near-collapse
            (d2_mixed, rng.normal(size=(9, 2))),
            (d3_mixed, rng.normal(size=(7, 3))),
            (trivial_model, rng.normal(size=(5, 2))),
        ]
        for model, pts in clouds:
            cov, f, rank, dropped = factor_one(model, pts)
            m = cov.shape[0]
            assert np.max(np.abs(f @ f.T - cov)) < 1e-12 * np.max(np.diag(cov))
            assert not f[:, rank:].any()
            assert 0.0 <= dropped <= m * m * np.finfo(float).eps
            assert np.max(np.abs(cov - cov.T)) == 0.0
        # a rigid translation has rank d, whatever the number of points
        assert factor_one(trivial_model, rng.normal(size=(5, 2)))[2] == 2

    def test_batch_matches_single(self, d2_mixed):
        # point sets of different ranks share a batch; each one's
        # covariance and factor are bitwise those it has on its own
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(4, 5, 2))
        pts[1, 1] = pts[1, 0]
        pts[2] *= 0.01
        batch = kernel_matrices(d2_mixed, pts)
        f, rank, dropped = pivoted_cholesky_batch(*matrix_rows(batch))
        assert len(set(rank.tolist())) > 1
        for k in range(4):
            one = kernel_matrices(d2_mixed, pts[k:k + 1])
            assert np.array_equal(batch[k], one[0])
            f1, r1, d1 = pivoted_cholesky_batch(
                *kernel_rows(d2_mixed, pts[k:k + 1]))
            assert np.array_equal(f[k], f1[0])
            assert (rank[k], dropped[k]) == (r1[0], d1[0])


class TestSampleIncrement:
    def test_trivial_model_common_translation(self, trivial_model):
        _, f, rank, _ = factor_one(trivial_model,
                                   np.array([[0., 0.], [1., 0.], [0., 2.]]))
        assert rank == 2
        rng = np.random.default_rng(1)
        for _ in range(10):
            inc = increment(f, 1.0, rng.standard_normal(6))
            assert np.array_equal(inc, np.broadcast_to(inc[0], inc.shape))

    def test_overflowing_step_names_path_and_step(self, d2_mixed):
        # a real non-finite step: the drift carries the points past the
        # largest double in step 0, so step 1's first kernel row is NaN
        # (a non-finite separation has no covariance)
        cloud = PointCloud(positions=np.array([[10.0, 0.0], [0.0, 10.0],
                                               [-10.0, 0.0]]))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(CovarianceFactorError,
                              match="^path 0, step 1: .*is not finite$"):
            euler_flow(d2_mixed, cloud, 0.0, 3.0, 1.0,
                       drift=drift_linear(1e308 * np.eye(2)),
                       rng=np.random.default_rng(0))
        # in a batch, the path that overflowed is named, offset by the
        # chunk's first path
        x0 = np.ones((3, 2, 2))
        x0[1] *= 1e306
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(CovarianceFactorError,
                              match="^path 6, step 1: .*is not finite$"):
            flow_engine._simulate(
                d2_mixed, x0, 0.0, 3.0, 1.0,
                [np.random.default_rng(k) for k in range(3)],
                lambda t, k, x: None, drift=drift_linear(1e3 * np.eye(2)),
                path_offset=5)

    def test_dt_guard(self, d2_mixed):
        cloud = PointCloud(positions=np.zeros((1, 2)))
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError):
                euler_flow(d2_mixed, cloud, 0.0, 1.0, dt,
                           rng=np.random.default_rng(0))

    def test_brownian_scaling(self, d2_mixed):
        _, f, _, _ = factor_one(d2_mixed, np.zeros((1, 2)))
        rng = np.random.default_rng(2)
        n = 20000
        small = np.array([increment(f, 1e-4, rng.standard_normal(2))
                          for _ in range(n)])
        big = np.array([increment(f, 1.0, rng.standard_normal(2))
                        for _ in range(n)])
        ratio = big.std() / small.std()
        assert ratio == pytest.approx(100.0, rel=0.05)

    def test_empirical_covariance_two_points(self, d2_potential_atom):
        pts = np.array([[0.0, 0.0], [0.9, 0.3]])
        cov, f, _, _ = factor_one(d2_potential_atom, pts)
        rng = np.random.default_rng(4)
        n = 200000
        z = rng.standard_normal((n, 4))
        draws = z @ f.T  # dt = 1
        emp = draws.T @ draws / n
        # entrywise within 5 standard errors of the exact covariance
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(emp - cov) < 5.0 * se)

    def test_exchangeability_bitwise(self, d2_mixed):
        pts = np.array([[0.0, 0.0], [1.0, 0.2], [-0.4, 0.8]])
        perm = [2, 0, 1]
        cov_a, f_a, _, _ = factor_one(d2_mixed, pts)
        cov_b, f_b, _, _ = factor_one(d2_mixed, pts[perm])
        # permuting the points permutes the covariance bitwise; the draw
        # itself is not the permuted draw, so the law is checked instead
        idx = np.concatenate([[2 * p, 2 * p + 1] for p in perm])
        assert np.array_equal(cov_b, cov_a[np.ix_(idx, idx)])
        assert np.max(np.abs(f_b @ f_b.T - (f_a @ f_a.T)[np.ix_(idx, idx)])) \
            < 1e-12

    def test_isotropy_in_law(self, d2_potential_atom):
        # rotating the points rotates the increment law: second moments match
        rng = np.random.default_rng(8)
        pts = np.array([[0.0, 0.0], [1.1, -0.3]])
        rot = random_rotation(2, rng)
        cov, _, _, _ = factor_one(d2_potential_atom, pts)
        cov_rot, f, _, _ = factor_one(d2_potential_atom, pts @ rot.T)
        big_rot = np.kron(np.eye(2), rot)
        exact = big_rot @ cov @ big_rot.T
        assert np.allclose(cov_rot, exact, atol=1e-12)
        n = 100000
        z = rng.standard_normal((n, 4))
        draws = z @ f.T
        emp = draws.T @ draws / n
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / n)
        assert np.all(np.abs(emp - exact) < 5.0 * se)

    def test_sampler_consistent_with_psd_probe(self, d2_mixed):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(6, 2))
        dirs = rng.normal(size=(6, 2))
        assert psd_probe(d2_mixed, pts, dirs) >= -1e-9
        cov, f, _, _ = factor_one(d2_mixed, pts)
        assert dirs.ravel() @ cov @ dirs.ravel() >= -1e-9
        # the quadratic form through the factor is a sum of squares
        assert np.isclose(np.sum((f.T @ dirs.ravel()) ** 2),
                          dirs.ravel() @ cov @ dirs.ravel(), atol=1e-12)


class TestDriftFields:
    def test_a_drift_is_a_field_and_its_bound(self):
        assert [f.name for f in dataclasses.fields(DriftField)] == [
            "field", "lipschitz"]

    def test_linear(self):
        v = drift_linear(-np.eye(2))
        assert np.allclose(eval_drift(v, np.array([1.0, 0.0])), [-1.0, 0.0])
        assert v.lipschitz == 1.0
        batch = eval_drift(v, np.ones((3, 4, 2)))
        assert batch.shape == (3, 4, 2)

    def test_radial_matches_quadrature(self, d2_potential_atom):
        v = drift_radial_rkhs(d2_potential_atom, 1.0, scale=2.0)
        rule = sphere_rule(2, 256)
        rng = np.random.default_rng(10)
        for _ in range(12):
            x = rng.normal(size=2) * rng.uniform(0.05, 3.0)
            exact = 2.0 * mean_inward_field(d2_potential_atom, 1.0, rule, x)
            assert np.max(np.abs(eval_drift(v, x) - exact)) < 1e-8

    def test_radial_boundary_value(self, d2_potential_atom):
        v = drift_radial_rkhs(d2_potential_atom, 1.0, scale=3.0)
        theta = np.array([0.6, 0.8])
        out = eval_drift(v, theta)
        assert out @ theta == pytest.approx(-3.0 * 2 * J1_AT_1**2, abs=1e-6)

    def test_radial_far_field_fallback(self, d2_potential_atom):
        v = drift_radial_rkhs(d2_potential_atom, 1.0)
        rule = sphere_rule(2, 256)
        x = np.array([13.5, 0.0])  # beyond the profile grid, 12 rho
        exact = mean_inward_field(d2_potential_atom, 1.0, rule, x)
        assert np.max(np.abs(eval_drift(v, x) - exact)) < 1e-10

    def test_radial_zero_at_origin(self, d2_potential_atom):
        v = drift_radial_rkhs(d2_potential_atom, 1.0)
        assert np.array_equal(eval_drift(v, np.zeros(2)), np.zeros(2))

    def test_custom_table_interpolation(self):
        axes = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]))
        vals = np.zeros((3, 2, 2))
        vals[..., 0] = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        v = drift_custom_table(axes, vals)
        assert np.allclose(eval_drift(v, np.array([0.5, 0.5])), [0.5, 0.0])
        # constant extrapolation outside the grid
        assert np.allclose(eval_drift(v, np.array([5.0, -3.0])), [2.0, 0.0])
        assert v.lipschitz == pytest.approx(1.0)

    def test_custom_table_nonfinite_query(self):
        axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        v = drift_custom_table(axes, np.zeros((2, 2, 2)))
        with pytest.raises(DriftEvaluationError):
            eval_drift(v, np.array([np.nan, 0.0]))

    def test_lipschitz_declared_finite(self, d2_potential_atom):
        for v in (drift_linear(np.zeros((2, 2))), drift_linear(np.eye(2) * 3),
                  drift_radial_rkhs(d2_potential_atom, 1.0)):
            assert math.isfinite(v.lipschitz)


class TestDriftOracles:
    """The numpy drift interpolators against the scipy ones they replace."""

    @pytest.mark.parametrize("name", ["d2_potential_atom", "d3_mixed"])
    def test_radial_profile_is_the_not_a_knot_spline(self, name, request):
        model = request.getfixturevalue(name)
        v = drift_radial_rkhs(model, 1.0)
        rule = sphere_rule(model.d, field_sampler.radial_resolution(model.d))
        table = field_sampler._radial_profile(model, 1.0, rule)
        grid = np.linspace(0.0, 12.0, 2048)
        probe = np.zeros((grid.size, model.d))
        probe[:, 0] = grid
        g = mean_inward_field(model, 1.0, rule, probe)[:, 0]
        g[0] = 0.0
        spline = CubicSpline(grid, g)
        tol = 4.0 * np.finfo(float).eps * np.max(np.abs(g))
        mids = np.random.default_rng(12).uniform(0.0, 12.0, 5000)
        for r in (grid, mids):
            assert np.max(np.abs(table(r)[0] - spline(r))) <= tol
            # the drift along the first axis is its profile
            along = np.zeros((r.size, model.d))
            along[:, 0] = r
            assert np.array_equal(eval_drift(v, along)[:, 0], table(r)[0])
        assert np.max(np.abs(table.rows[1] - spline(grid[:-1], 1))) <= tol
        slope = np.max(np.abs(spline(grid, 1)))
        secant = np.max(np.abs(spline(grid[1:]) / grid[1:]))
        assert v.lipschitz == pytest.approx(max(slope, secant),
                                            rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_custom_table_is_multilinear(self, d):
        rng = np.random.default_rng(20 + d)
        axes = tuple(np.sort(rng.uniform(-2.0, 2.0, n)) for n in (5, 4, 3)[:d])
        values = rng.normal(size=tuple(a.size for a in axes) + (d,))
        v = drift_custom_table(axes, values)
        oracle = RegularGridInterpolator(axes, values)
        lo = np.array([a[0] for a in axes])
        hi = np.array([a[-1] for a in axes])
        interior = rng.uniform(lo, hi, size=(500, d))
        knots = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d)
        outside = rng.uniform(lo - 3.0, hi + 3.0, size=(500, d))
        for pts in (interior, knots, outside):
            want = oracle(np.clip(pts, lo, hi))
            got = eval_drift(v, pts)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(values))
        assert np.array_equal(eval_drift(v, knots), values.reshape(-1, d))


def test_no_run_imports_scipy(tmp_path):
    # the runtime depends on numpy alone: a squeeze run under a radial
    # drift and a custom-table evaluation leave no scipy module loaded
    config = {
        "model": {"d": 2, "mu0": 0.0, "mu1": 1.0, "mu2": 0.0,
                  "m_p": {"atoms": [[1.0, 1.0]], "density": []},
                  "drift": {"kind": "radial_rkhs", "rho": 1.0, "scale": 4.0,
                            "resolution": 32}},
        "command": "squeeze",
        "params": {"R": 1.0, "delta": 0.1, "T1": 0.05, "T2": 0.1,
                   "dt": 0.01, "n_paths": 2, "n_boundary": 8},
        "seed": 3}
    path = tmp_path / "squeeze.json"
    path.write_text(json.dumps(config))
    script = textwrap.dedent(f"""
        import json, sys
        import numpy as np
        from ibflow import cli, drift_custom_table, eval_drift
        code = cli.main(["squeeze", "--config", {str(path)!r},
                         "--out", {str(tmp_path)!r}, "--quiet"])
        axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
        v = drift_custom_table(axes, np.ones((2, 3, 2)))
        eval_drift(v, np.array([[0.5, 0.5], [3.0, -1.0]]))
        print(json.dumps([code, sorted(m for m in sys.modules
                                       if m.startswith("scipy"))]))
    """)
    src = str(Path(ibflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []
    assert (tmp_path / "squeeze.csv").exists()
