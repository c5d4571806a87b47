"""Kernel rows, the rank-revealing factor, drift field evaluation."""

import json
import math
import textwrap

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from ibflow import (CovarianceFactorError, ModelError, SpectralMeasure,
                    boundary_shell, covariance, drift_custom_table,
                    drift_linear, drift_radial_rkhs, eval_drift,
                    field_sampler, flow_engine, inward_profile, kernel_rows,
                    make_model, pivoted_cholesky_batch)
from ibflow.covariance import _scalars_exact

from conftest import (J1_AT_1, covariance_tensor, fresh_python,
                      mean_inward_field, psd_probe, random_rotation,
                      sphere_rule, tensor_field)


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
    """The Euler step's joint increment sqrt(dt) F z, one row per point;
    F has the factor's used width, so only that many normals are read."""
    return (math.sqrt(dt) * (f @ z[..., :f.shape[-1]])).reshape(-1, 2)


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

    def test_offdiagonal_block_is_covariance_tensor(self, d2_mixed, d3_mixed,
                                                    monkeypatch):
        # whatever the order of the pivots, each row served is bitwise the
        # matching row of the tensor_field blocks b(x_i - x_j): coincident
        # tracers included, the block at j = i is the identity, and the
        # separations take all four kernel bands (the degree-4 series
        # below s0, the degree-10 series on [s0, s1), the profile on
        # [s1, 64], quadrature beyond). The pivots alternate
        # between hold hits (every path pivots on its last point again)
        # and misses (one path moves), and only a miss evaluates scalars,
        # one tensor_scalars call on all its nb * n separations
        calls, scalars = [], field_sampler.tensor_scalars

        def counted(model, comps):
            calls.append(np.size(comps[0]))
            return scalars(model, comps)

        monkeypatch.setattr(field_sampler, "tensor_scalars", counted)
        d4_mixed = make_model(
            4, 0.1, 0.6, 0.3, m_p=SpectralMeasure(atoms=((1.3, 1.0),)),
            m_s=SpectralMeasure(atoms=((2.0, 1.0),)))
        rng = np.random.default_rng(12)
        nb, n = 3, 7
        for model in (d2_mixed, d3_mixed, d4_mixed):
            d = model.d
            series = covariance._small_s_series(model)
            s0, s1 = series.s0, series.s1
            pts = np.concatenate([0.1 * s0 * rng.normal(size=(nb, 3, d)),
                                  0.2 * s1 * rng.normal(size=(nb, 1, d)),
                                  rng.normal(size=(nb, 1, d)),
                                  100.0 + 60.0 * rng.normal(size=(nb, 2, d))],
                                 axis=1)
            pts[1, 2] = pts[1, 0]
            sep = np.linalg.norm(pts[:, :, None] - pts[:, None], axis=-1)
            assert ((0.0 < sep) & (sep < s0)).any()
            assert ((s0 <= sep) & (sep < s1)).any()
            assert ((s1 <= sep) & (sep <= 64.0)).any() and (sep > 64.0).any()
            blocks = tensor_field(model,
                                  pts[:, :, None, :] - pts[:, None, :, :])
            assert np.array_equal(blocks[1, 0, 2], np.eye(d))
            assert np.array_equal(
                blocks[0, 0, 1], covariance_tensor(model, pts[0, 0] - pts[0, 1]))
            calls.clear()
            row, diag = kernel_rows(model, pts)
            assert np.array_equal(diag, np.ones((nb, n * d)))
            p = rng.integers(0, n * d, size=nb)
            for k in range(16):
                point, comp = np.divmod(p, d)
                if k % 2:   # a hit: each path takes another component
                    comp = (comp + rng.integers(1, d, size=nb)) % d
                else:       # a miss: one path takes another point
                    b = rng.integers(nb)
                    point[b] = (point[b] + rng.integers(1, n)) % n
                p = point * d + comp
                rows = row(p)
                for b, (i, a) in enumerate(zip(point, comp)):
                    assert np.array_equal(rows[b], blocks[b, i, :, a].ravel())
                    assert np.array_equal(rows[b, i * d:(i + 1) * d],
                                          np.eye(d)[a])
                rows[:] = np.nan  # a fresh array: the next row is unaffected
            assert np.array_equal(row(p)[0],
                                  blocks[0, p[0] // d, :, p[0] % d].ravel())
            assert calls == [nb * n] * 8

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
            assert f.shape == (m, rank)  # the used width, no zero columns
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
            assert np.array_equal(f[k][:, :r1[0]], f1[0])
            assert not f[k][:, r1[0]:].any()
            assert (rank[k], dropped[k]) == (r1[0], d1[0])

    def test_factor_has_used_width_on_reused_memory(self):
        # F is returned at the batch's largest rank, and every entry of it
        # is written: a low-rank batch factored right after a full-rank
        # one of the same shape, whose freed buffer the allocator may hand
        # back full of stale nonzeros, still reads zeros past each path's
        # rank and reconstructs its C
        rng = np.random.default_rng(17)
        nb, m = 4, 24
        want = np.array([3, 11, 6, 1])
        for _ in range(3):
            g = rng.normal(size=(nb, m, m))
            full = g @ g.transpose(0, 2, 1) + m * np.eye(m)
            f, rank, _ = pivoted_cholesky_batch(*matrix_rows(full))
            assert f.shape == (nb, m, m) and (rank == m).all()
            del f
            g = [rng.normal(size=(m, r)) for r in want]
            low = np.stack([a @ a.T for a in g])
            f, rank, dropped = pivoted_cholesky_batch(*matrix_rows(low))
            assert np.array_equal(rank, want)
            assert f.shape == (nb, m, want.max())
            assert np.isfinite(f).all()
            for b in range(nb):
                assert not f[b, :, rank[b]:].any()
                scale = np.max(np.diag(low[b]))
                err = np.abs(f[b] @ f[b].T - low[b]).max()
                assert err <= dropped[b] + 1e-12 * scale

    def test_buffer_growth_keeps_every_bit(self, monkeypatch):
        # the factor's buffer starts with the slabs that fit below numpy's
        # huge-page threshold and doubles, copying them, when a rank needs
        # more; with room for 3 slabs a rank of 20 grows it to 6, 12 and
        # 20 slabs, and F, the ranks and the dropped traces keep every bit
        rng = np.random.default_rng(23)
        nb, m = 3, 20
        g = [rng.normal(size=(m, r)) for r in (20, 7, 13)]
        covs = np.stack([a @ a.T for a in g]) + np.diag([1.0] + [0.0] * 19)
        want = pivoted_cholesky_batch(*matrix_rows(covs))
        monkeypatch.setattr(field_sampler, "_HUGE_PAGE_BYTES",
                            3 * nb * m * 8 + 1)
        got = pivoted_cholesky_batch(*matrix_rows(covs))
        assert want[0].shape == (nb, m, m) and want[1].min() > 3
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)


def _rank_shapes():
    """The factor's test shapes and their ranks with quadrature rows:
    (model, points, rank)."""
    atom = make_model(2, 0.0, 1.0, 0.0,
                      m_p=SpectralMeasure(atoms=((1.0, 1.0),)))
    solenoidal = make_model(2, 0.0, 0.0, 1.0,
                            m_s=SpectralMeasure(atoms=((1.0, 1.0),)))
    mixed = make_model(
        3, 0.1, 0.6, 0.3,
        m_p=SpectralMeasure(atoms=((1.3, 1.0),),
                            density_pieces=((0.5, 2.5, 0.4),)),
        m_s=SpectralMeasure(atoms=((2.0, 1.0),)))
    return {
        "shell-1.1": (atom, boundary_shell(2, 1.1, 64), 19),
        "shell-0.9": (atom, boundary_shell(2, 0.9, 64), 19),
        "circle-0.3": (atom, boundary_shell(2, 0.3, 24), 13),
        # acceptance criterion 8's growth shape
        "solenoidal-4": (solenoidal, boundary_shell(2, 4.0, 64), 31),
        "d3-two-shells": (mixed, np.concatenate([boundary_shell(3, 1.0, 20),
                                                 boundary_shell(3, 0.3, 20)]),
                          120),
    }


class TestRouteRank:
    """The kernel route is as good as quadrature where the factor looks:
    rows from tensor_scalars and rows whose scalars all come from
    _scalars_exact, the series range included, give the same rank, so
    neither the series nor the profile adds a spurious pivot (a profile
    off by 3e-13 added up to 18 on these shapes)."""

    @pytest.mark.parametrize("name", list(_rank_shapes()))
    def test_rank_matches_quadrature(self, monkeypatch, name):
        model, pts, want = _rank_shapes()[name]

        def rank():
            row, diag = kernel_rows(model, pts[None])
            return int(pivoted_cholesky_batch(row, diag)[1][0])

        def exact(model, comps):
            s = np.sqrt(sum(x * x for x in comps))
            b_l, b_n = (v.reshape(s.shape)
                        for v in _scalars_exact(model, s.ravel()))
            s2 = s * s
            return np.divide(b_l - b_n, s2, out=np.zeros(s2.shape),
                             where=s2 > 0.0), b_n

        through_route = rank()
        monkeypatch.setattr(field_sampler, "tensor_scalars", exact)
        assert through_route == rank() == want


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
        cloud = np.array([[[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0]]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(CovarianceFactorError,
                              match="^path 0, step 1: .*is not finite$"):
            flow_engine._simulate(
                d2_mixed, cloud, 3.0, 1.0, [np.random.default_rng(0)],
                lambda t, k, x: None, drift=drift_linear(1e308 * np.eye(2)))
        # in a batch, the path that overflowed is named, offset by the
        # chunk's first path
        x0 = np.ones((3, 2, 2))
        x0[1] *= 1e306
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(CovarianceFactorError,
                              match="^path 6, step 1: .*is not finite$"):
            flow_engine._simulate(
                d2_mixed, x0, 3.0, 1.0,
                [np.random.default_rng(k) for k in range(3)],
                lambda t, k, x: None, drift=drift_linear(1e3 * np.eye(2)),
                path_offset=5)

    def test_dt_guard(self, d2_mixed):
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError):
                flow_engine._simulate(
                    d2_mixed, np.zeros((1, 1, 2)), 1.0, dt,
                    [np.random.default_rng(0)], lambda t, k, x: None)

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


def euclidean_grid_bound(axes, values) -> float:
    """A Lipschitz constant of the multilinear table: sqrt(sum L_ik^2)
    with L_ik the steepest grid slope of component i along axis k bounds
    the Frobenius norm of the Jacobian in every cell, and clipping onto
    the grid is 1-Lipschitz."""
    d = len(axes)

    def steepest(k, a):
        gaps = np.diff(a).reshape([-1 if j == k else 1 for j in range(d + 1)])
        return np.abs(np.diff(values, axis=k) / gaps).reshape(-1, d).max(axis=0)

    return float(np.linalg.norm([steepest(k, a) for k, a in enumerate(axes)]))


class TestDriftFields:
    def test_linear(self):
        v = drift_linear(-np.eye(2))
        assert np.allclose(eval_drift(v, np.array([1.0, 0.0])), [-1.0, 0.0])
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

    def test_radial_non_finite_point(self, d2_mixed):
        # a diverged point has no drift, so the factor names its path
        # and step
        v = drift_radial_rkhs(d2_mixed, 1.0, scale=-1e300)
        with np.errstate(invalid="ignore"):
            out = eval_drift(v, np.array([[np.inf, 0.0], [np.nan, 1.0]]))
        assert np.isnan(out).all()
        cloud = np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(CovarianceFactorError,
                              match="^path 0, step 1: .*is not finite$"):
            flow_engine._simulate(
                d2_mixed, cloud, 0.1, 0.01, [np.random.default_rng(0)],
                lambda t, k, x: None, drift=v)

    def test_radial_needs_potential_part(self, d2_solenoidal_atom):
        # with mu1 = 0 the mean inward field is identically zero
        with pytest.raises(ModelError, match="mu1 = 0"):
            drift_radial_rkhs(d2_solenoidal_atom, 1.0)

    @pytest.mark.parametrize("name", ["d2_potential_atom", "d3_mixed"])
    def test_radial_bound_holds(self, name, request):
        # the drift is Lipschitz, as the control theorem assumes, with the
        # larger of the profile's steepest knot slope and knot secant
        # through the origin (the radial and the tangential rate of
        # G(|x|) x / |x|): pairs at separations from 1e-4 to 3, inside
        # the 12 rho table and beyond it
        model = request.getfixturevalue(name)
        v = drift_radial_rkhs(model, 1.0, scale=64.0)
        knots = 12.0 / 2047 * np.arange(2048)  # the table's knots
        g, dg = inward_profile(model, 1.0, knots)
        bound = 64.0 * max(np.max(np.abs(dg)),
                           np.max(np.abs(g[1:] / knots[1:])))
        rng = np.random.default_rng(14)
        x = rng.uniform(-14.0, 14.0, size=(10 ** 4, model.d))
        y = x + (rng.normal(size=x.shape)
                 * 10.0 ** rng.uniform(-4.0, 0.5, size=(len(x), 1)))
        gap = np.linalg.norm(eval_drift(v, x) - eval_drift(v, y), axis=1)
        assert np.all(gap <= bound * np.linalg.norm(x - y, axis=1))

    def test_custom_table_interpolation(self):
        axes = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]))
        vals = np.zeros((3, 2, 2))
        vals[..., 0] = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        v = drift_custom_table(axes, vals)
        assert np.allclose(eval_drift(v, np.array([0.5, 0.5])), [0.5, 0.0])
        # constant extrapolation outside the grid
        assert np.allclose(eval_drift(v, np.array([5.0, -3.0])), [2.0, 0.0])

    def test_custom_table_bound_holds(self):
        # the drift is Lipschitz with the Euclidean grid bound: pairs at
        # separations from 1e-4 to 3, inside the grid and beyond it
        rng = np.random.default_rng(13)
        axes = [np.cumsum(rng.uniform(0.2, 1.0, size=n)) - 1.5
                for n in (4, 3, 5)]
        values = rng.normal(size=(4, 3, 5, 3))
        v = drift_custom_table(axes, values)
        bound = euclidean_grid_bound(axes, values)
        x = rng.uniform(-2.5, 2.5, size=(10 ** 4, 3))
        y = x + (rng.normal(size=x.shape)
                 * 10.0 ** rng.uniform(-4.0, 0.5, size=(len(x), 1)))
        gap = np.linalg.norm(eval_drift(v, x) - eval_drift(v, y), axis=1)
        assert np.all(gap <= bound * np.linalg.norm(x - y, axis=1))

    def test_custom_table_nonfinite_query(self, d2_mixed):
        # a NaN point has no drift and an infinite one is clipped onto the
        # grid, so a diverged path runs on until the factor names its path
        # and step: from 1.7e308 the first step stays finite, the second
        # overflows and the third step's covariance is not finite
        axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        values = np.zeros((2, 2, 2))
        values[..., 0] = 1.7e308
        v = drift_custom_table(axes, values)
        out = eval_drift(v, np.array([[np.nan, 0.0], [np.inf, -np.inf]]))
        assert np.isnan(out[0]).all()
        assert np.array_equal(out[1], [1.7e308, 0.0])
        cloud = np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(CovarianceFactorError,
                              match="^path 0, step 2: .*is not finite$"):
            flow_engine._simulate(
                d2_mixed, cloud, 4.0, 1.0, [np.random.default_rng(0)],
                lambda t, k, x: None, drift=v)


class TestDriftOracles:
    """The numpy drift interpolators against their oracles: the radial
    table against the closed form it interpolates, the custom table
    against scipy's multilinear interpolator."""

    @pytest.mark.parametrize("name", ["d2_potential_atom", "d3_mixed"])
    def test_radial_table_is_the_closed_form(self, name, request):
        model = request.getfixturevalue(name)
        v = drift_radial_rkhs(model, 1.0)
        table = field_sampler._radial_profile(model, 1.0)
        knots = table.h * np.arange(2048)
        assert (table.lo, table.hi) == (0.0, knots[-1])
        assert knots[-1] == pytest.approx(12.0, rel=1e-15)
        g, dg = inward_profile(model, 1.0, knots)
        # each piece starts at its knot's exact value and slope
        assert table.rows.shape == (4, 1, 2047)
        assert np.array_equal(table.rows[0, 0], g[:-1])
        assert np.array_equal(table.rows[1, 0], dg[:-1])
        tol = 4.0 * np.finfo(float).eps * np.max(np.abs(g))
        assert np.max(np.abs(table(knots)[0] - g)) <= tol
        # the drift along the first axis is its profile
        mids = np.random.default_rng(12).uniform(0.0, 12.0, 5000)
        for r in (knots, mids):
            along = np.zeros((r.size, model.d))
            along[:, 0] = r
            assert np.array_equal(eval_drift(v, along)[:, 0], table(r)[0])

    @pytest.mark.parametrize("name", ["d2_potential_atom", "d3_mixed"])
    def test_radial_table_is_the_cubic_loop(self, name, request):
        # the one-gather table reads the drift bitwise as four separately
        # gathered cubic rows and Horner's rule do
        model = request.getfixturevalue(name)
        v = drift_radial_rkhs(model, 1.0, scale=3.0)
        h = 12.0 / 2047
        g, dg = inward_profile(model, 1.0, h * np.arange(2048))
        secant = np.diff(g) / h
        rows = [g[:-1], dg[:-1], (3.0 * secant - 2.0 * dg[:-1] - dg[1:]) / h,
                (dg[:-1] + dg[1:] - 2.0 * secant) / (h * h)]
        r = np.concatenate([h * np.arange(2048), np.random.default_rng(13)
                            .uniform(0.0, 12.0, 5000)])
        piece = np.minimum((r / h).astype(np.intp), 2046)
        u = r - piece * h
        want = rows[3][piece]
        for k in (2, 1, 0):
            want *= u
            want += rows[k][piece]
        along = np.zeros((r.size, model.d))
        along[:, 0] = r
        assert np.array_equal(eval_drift(v, along)[:, 0], 3.0 * want)

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
    # drift, a d = 5 verify-identity run (the t-rule is numpy's eigh, not
    # scipy's roots_jacobi) and a custom-table evaluation leave no scipy
    # module loaded
    squeeze = {
        "model": {"d": 2, "mu0": 0.0, "mu1": 1.0, "mu2": 0.0,
                  "m_p": {"atoms": [[1.0, 1.0]], "density": []},
                  "drift": {"kind": "radial_rkhs", "rho": 1.0, "scale": 4.0}},
        "command": "squeeze",
        "params": {"R": 1.0, "delta": 0.1, "T1": 0.05, "T2": 0.1,
                   "dt": 0.01, "n_paths": 2, "n_boundary": 8},
        "seed": 3}
    identity = {
        "model": {"d": 5, "mu0": 0.1, "mu1": 0.6, "mu2": 0.3,
                  "m_p": {"atoms": [[1.3, 1.0]], "density": []},
                  "m_s": {"atoms": [[2.0, 1.0]], "density": []}},
        "command": "verify-identity", "params": {"rhos": [1.1]}, "seed": 3}
    paths = {}
    for config in (squeeze, identity):
        path = tmp_path / f"{config['command']}.json"
        path.write_text(json.dumps(config))
        paths[config["command"]] = str(path)
    script = textwrap.dedent(f"""
        import json, sys
        import numpy as np
        from ibflow import cli, drift_custom_table, eval_drift
        codes = [cli.main([cmd, "--config", path, "--out", {str(tmp_path)!r},
                           "--quiet"])
                 for cmd, path in {paths!r}.items()]
        axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
        v = drift_custom_table(axes, np.ones((2, 3, 2)))
        eval_drift(v, np.array([[0.5, 0.5], [3.0, -1.0]]))
        print(json.dumps([codes, sorted(m for m in sys.modules
                                        if m.startswith("scipy"))]))
    """)
    codes, loaded = json.loads(fresh_python(["-c", script]).splitlines()[-1])
    assert codes == [0, 0]
    assert loaded == []
    assert (tmp_path / "squeeze.csv").exists()
    assert (tmp_path / "verify-identity.csv").exists()
