"""Covariance scalars, tensor assembly, flow constants, positivity."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ibflow import (IbfModel, ModelError, SpectralMeasure, b_scalar,
                    covariance_scalars, covariance_tensor, flow_constants,
                    make_model, psd_probe, tensor_field)

from ibflow import covariance
from ibflow.covariance import (_component_scalars, _nodes, _scalar_profile,
                               _scalars_exact, _small_s_series)

from conftest import J1_AT_1, J1_FIRST_ZERO, random_model, random_rotation


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ModelError):
            make_model(2, 0.5, 0.6, 0.0,
                       m_p=SpectralMeasure(atoms=((1.0, 1.0),)))

    def test_measure_presence_matches_weights(self):
        with pytest.raises(ModelError):
            make_model(2, 0.0, 1.0, 0.0)  # mu1 > 0 but no measure
        with pytest.raises(ModelError):
            IbfModel(2, 0.5, 0.0, 0.5,
                     m_p=SpectralMeasure(atoms=((1.0, 2.0),)),
                     m_s=SpectralMeasure(atoms=((1.0, 2.0),)))

    def test_mass_normalization_checked(self):
        with pytest.raises(ModelError):
            IbfModel(2, 0.0, 1.0, 0.0, m_p=SpectralMeasure(atoms=((1.0, 1.5),)))

    def test_trivial_needs_flag(self):
        with pytest.raises(ModelError):
            make_model(2, 1.0, 0.0, 0.0)
        model = make_model(2, 1.0, 0.0, 0.0, allow_trivial=True)
        assert model.is_trivial

    def test_dimension_range(self):
        with pytest.raises(ModelError):
            make_model(1, 0.0, 1.0, 0.0, m_p=SpectralMeasure(atoms=((1.0, 1.0),)))
        with pytest.raises(ModelError):
            make_model(17, 0.0, 1.0, 0.0, m_p=SpectralMeasure(atoms=((1.0, 1.0),)))


class TestScalars:
    def test_all_kinds_equal_one_at_zero(self, d2_mixed, d3_mixed):
        for model in (d2_mixed, d3_mixed):
            for kind in ("PL", "PN", "SL", "SN"):
                assert b_scalar(model, kind, 0.0) == 1.0

    def test_d2_atom_transverse_is_scaled_j1(self, d2_potential_atom):
        # with one unit atom the transverse scalar is 2 J_1(s) / s
        assert b_scalar(d2_potential_atom, "PN", 1.0) == pytest.approx(
            2 * J1_AT_1, rel=1e-12)
        assert abs(b_scalar(d2_potential_atom, "PN", J1_FIRST_ZERO)) < 1e-8

    def test_missing_measure_is_model_error(self, d2_potential_atom):
        with pytest.raises(ModelError):
            b_scalar(d2_potential_atom, "SL", 1.0)

    def test_unknown_kind(self, d2_potential_atom):
        with pytest.raises(ModelError):
            b_scalar(d2_potential_atom, "XX", 1.0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0.0, 20.0, 401)
        for _ in range(6):
            model = random_model(rng)
            for kind, measure in (("PL", model.m_p), ("PN", model.m_p),
                                  ("SL", model.m_s), ("SN", model.m_s)):
                if measure is None:
                    continue
                vals = b_scalar(model, kind, grid)
                assert np.max(np.abs(vals)) <= 1.0 + 1e-9

    def test_combination_matches_components(self, d2_mixed):
        s = np.linspace(0.0, 6.0, 23)
        b_l, b_n = covariance_scalars(d2_mixed, s)
        expect_l = (d2_mixed.mu0 + d2_mixed.mu1 * b_scalar(d2_mixed, "PL", s)
                    + d2_mixed.mu2 * b_scalar(d2_mixed, "SL", s))
        expect_n = (d2_mixed.mu0 + d2_mixed.mu1 * b_scalar(d2_mixed, "PN", s)
                    + d2_mixed.mu2 * b_scalar(d2_mixed, "SN", s))
        assert np.allclose(b_l, expect_l, atol=1e-13)
        assert np.allclose(b_n, expect_n, atol=1e-13)

    def test_profile_path_matches_exact_path(self, d2_mixed):
        # large batches go through the spline profile; same values
        s_small = np.linspace(0.06, 8.0, 17)          # exact path
        s_big = np.tile(s_small, 300)                 # profile path
        bl_small, bn_small = covariance_scalars(d2_mixed, s_small)
        bl_big, bn_big = covariance_scalars(d2_mixed, s_big)
        assert np.max(np.abs(bl_big[:17] - bl_small)) < 1e-11
        assert np.max(np.abs(bn_big[:17] - bn_small)) < 1e-11


class TestKernelRoute:
    @pytest.mark.parametrize("name", ["d2_potential_atom", "d2_mixed",
                                      "d3_mixed"])
    def test_route_matches_quadrature(self, name, request):
        # a dense grid crossing both seams, s0 and 64, with points on them
        model = request.getfixturevalue(name)
        s0 = _small_s_series(model).s0
        seams = np.array([s0, 64.0])[:, None] * (1.0 + np.array([-1e-12, 0.0,
                                                                 1e-12]))
        grid = np.concatenate([np.linspace(0.0, 80.0, 16001), seams.ravel()])
        b_l, b_n = covariance_scalars(model, grid)
        e_l, e_n = _scalars_exact(model, grid)
        assert np.max(np.abs(b_l - e_l)) < 1e-11
        assert np.max(np.abs(b_n - e_n)) < 1e-11
        # a separation's route depends on s alone: one at a time is bitwise
        # the same as inside the batch
        for k in list(range(0, grid.size, 331)) + list(range(16001, grid.size)):
            assert covariance_scalars(model, grid[k]) == (b_l[k], b_n[k])

    def test_zero_separation_is_exactly_one(self, d2_mixed, d3_mixed,
                                            trivial_model):
        for model in (d2_mixed, d3_mixed, trivial_model):
            assert covariance_scalars(model, 0.0) == (1.0, 1.0)
            b_l, b_n = covariance_scalars(model, np.array([0.0, 0.5, 100.0]))
            assert b_l[0] == 1.0 and b_n[0] == 1.0

    def test_non_finite_separation_is_nan(self, d2_mixed):
        # a tracer that left the doubles has no covariance: NaN, which the
        # factor reports with its path and step, while every finite
        # separation keeps its route's value
        s = np.array([0.0, 0.5, np.nan, np.inf, 100.0])
        b_l, b_n = covariance_scalars(d2_mixed, s)
        finite = covariance_scalars(d2_mixed, s[[0, 1, 4]])
        for got, want in zip((b_l, b_n), finite):
            assert np.isnan(got[2:4]).all()
            assert np.array_equal(got[[0, 1, 4]], want)

    def test_series_remainder_bound_at_s0(self, d2_potential_atom, d2_mixed,
                                          d3_mixed):
        eps = np.finfo(float).eps
        # d = 2, unit atom, mass 2: the first omitted term of B_L is
        # (1 / (2^11 5! 6!) + 1 / (2^10 4! 6!)) * 2 * s^10, the larger of the
        # two scalars', and s0 is where it reaches eps / 4
        tail = 2.0 * (1.0 / (2**11 * 120 * 720) + 1.0 / (2**10 * 24 * 720))
        s0 = _small_s_series(d2_potential_atom).s0
        assert tail * s0**10 == pytest.approx(eps / 4, rel=1e-12)
        assert s0 == pytest.approx(0.1161, abs=1e-4)
        assert _small_s_series(d3_mixed).s0 == pytest.approx(0.0523, abs=1e-4)
        for model in (d2_potential_atom, d2_mixed, d3_mixed):
            series = _small_s_series(model)
            # the s^2 terms are -beta/2, from the exact second moments
            fc = flow_constants(model)
            assert series.coef_l[1] == pytest.approx(-fc.beta_l / 2, rel=1e-14)
            assert series.coef_n[1] == pytest.approx(-fc.beta_n / 2, rel=1e-14)
            # just below s0 the truncated series is as good as quadrature
            s = np.array([series.s0 * (1.0 - 1e-9)])
            for got, want in zip(series(s), _scalars_exact(model, s)):
                assert abs(got[0] - want[0]) <= 4 * eps

    def test_profile_blocks_build_safely_under_threads(self):
        # worker threads share a model's profile and build its blocks on
        # first use; a reader must never see a block half built
        model = make_model(2, 0.0, 0.7, 0.3,
                           m_p=SpectralMeasure(atoms=((1.7, 1.0),)),
                           m_s=SpectralMeasure(atoms=((0.9, 1.0),)))
        # threads in pairs on narrow ranges, so one of a pair can come
        # for a block while the other is building it
        grids = [np.linspace(1.0 + 2.0 * (k // 2), 1.3 + 2.0 * (k // 2), 2001)
                 for k in range(16)]
        results = [None] * len(grids)

        def work(k):
            results[k] = covariance_scalars(model, grids[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                _scalar_profile.cache_clear()
                threads = [threading.Thread(target=work, args=(k,))
                           for k in range(len(grids))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                _scalar_profile.cache_clear()  # a fresh profile, one thread
                for grid, got in zip(grids, results):
                    want = covariance_scalars(model, grid)
                    assert np.array_equal(got[0], want[0])
                    assert np.array_equal(got[1], want[1])
        finally:
            sys.setswitchinterval(interval)

    def test_trivial_model_is_all_series(self, trivial_model):
        assert _small_s_series(trivial_model).s0 == np.inf
        b_l, b_n = covariance_scalars(trivial_model, np.linspace(0, 100, 11))
        assert np.all(b_l == 1.0) and np.all(b_n == 1.0)


def _pieces(n: int, lo: float = 0.5, width: float = 0.4) -> SpectralMeasure:
    return SpectralMeasure(
        atoms=((1.3, 1.0),),
        density_pieces=tuple((lo + k * width, lo + (k + 1) * width,
                              1.0 / (k + 1)) for k in range(n)))


class TestQuadratureChunks:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("s_max", [5.0, 30.0, 100.0])
    def test_chunked_equals_whole_bitwise(self, monkeypatch, d, s_max):
        # the series length of a Bessel ratio batch follows the batch's
        # largest argument, so chunking could change the last bits; it
        # must not
        model = make_model(d, 0.1, 0.6, 0.3, m_p=_pieces(3),
                           m_s=_pieces(2, lo=1.0, width=0.7))
        s = np.linspace(0.0, s_max, 1200)
        for measure, potential in ((model.m_p, True), (model.m_s, False)):
            nodes = _nodes(measure)[0].size
            monkeypatch.setattr(covariance, "_QUAD_PAIRS", 1 << 40)
            whole = _component_scalars(d, measure, potential, s, slopes=True)
            for chunk in (1000, 333, 37):
                monkeypatch.setattr(covariance, "_QUAD_PAIRS", chunk * nodes)
                parts = _component_scalars(d, measure, potential, s,
                                           slopes=True)
                for got, want in zip(parts, whole, strict=True):
                    assert np.array_equal(got, want)

    def test_memory_bounded_by_chunk(self):
        # 10 density pieces: 321 nodes, so 4096 separations are 1.3e6
        # pairs, about 150 MiB of quadrature at once
        model = make_model(3, 0.0, 1.0, 0.0, m_p=_pieces(10))
        s = np.linspace(0.0, 100.0, 4096)
        tracemalloc.start()
        try:
            b_scalar(model, "PL", s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_empty_separations(self, d3_mixed):
        assert b_scalar(d3_mixed, "PL", np.array([])).shape == (0,)


class TestTensor:
    def test_identity_at_origin(self, d2_mixed, d3_mixed, trivial_model):
        for model in (d2_mixed, d3_mixed, trivial_model):
            x = np.zeros(model.d)
            assert np.array_equal(covariance_tensor(model, x), np.eye(model.d))

    def test_trivial_model_constant_identity(self, trivial_model):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.normal(size=2) * 3
            assert np.allclose(covariance_tensor(trivial_model, x), np.eye(2),
                               atol=1e-15)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model = random_model(rng)
            for _ in range(10):
                x = rng.normal(size=model.d) * rng.uniform(0.1, 4.0)
                rot = random_rotation(model.d, rng)
                lhs = covariance_tensor(model, x)
                rhs = rot.T @ covariance_tensor(model, rot @ x) @ rot
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_symmetry_and_evenness(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            model = random_model(rng)
            x = rng.normal(size=model.d)
            b = covariance_tensor(model, x)
            assert np.max(np.abs(b - b.T)) < 1e-12
            assert np.max(np.abs(b - covariance_tensor(model, -x))) < 1e-12

    def test_batched_matches_single(self, d2_mixed):
        # adaptive series depth depends on the batch maximum, so agreement
        # is to rounding, not bitwise
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(6, 2))
        batch = tensor_field(d2_mixed, xs)
        for k in range(6):
            single = covariance_tensor(d2_mixed, xs[k])
            assert np.allclose(batch[k], single, rtol=1e-13, atol=1e-15)


class TestFlowConstants:
    def test_d2_potential_atom(self, d2_potential_atom):
        fc = flow_constants(d2_potential_atom)
        assert fc.beta_l == pytest.approx(0.75, abs=1e-14)
        assert fc.beta_n == pytest.approx(0.25, abs=1e-14)
        assert fc.lam == pytest.approx(-0.25, abs=1e-14)

    def test_d2_solenoidal_atom(self, d2_solenoidal_atom):
        fc = flow_constants(d2_solenoidal_atom)
        assert fc.beta_l == pytest.approx(0.25, abs=1e-14)
        assert fc.beta_n == pytest.approx(0.75, abs=1e-14)
        assert fc.lam == pytest.approx(0.25, abs=1e-14)
        # volume-preserving combination vanishes without a potential part
        assert abs(3 * fc.beta_l - 1 * fc.beta_n) < 1e-14

    def test_d4_potential_atom_neutral(self):
        model = make_model(4, 0.0, 1.0, 0.0,
                           m_p=SpectralMeasure(atoms=((1.0, 1.0),)))
        fc = flow_constants(model)
        assert fc.beta_l == pytest.approx(0.5, abs=1e-14)
        assert fc.beta_n == pytest.approx(1 / 6, abs=1e-14)
        assert fc.lam == pytest.approx(0.0, abs=1e-14)

    def test_trivial_model_rejected(self, trivial_model):
        with pytest.raises(ModelError):
            flow_constants(trivial_model)

    def test_incompressibility_relation(self):
        rng = np.random.default_rng(21)
        for k in range(20):
            model = random_model(rng, force_mu1_zero=(k % 2 == 0))
            fc = flow_constants(model)
            d = model.d
            gap = (d + 1) * fc.beta_l - (d - 1) * fc.beta_n
            assert gap >= -1e-12
            if model.mu1 == 0.0:
                assert abs(gap) < 1e-10
            else:
                assert gap > 1e-6

    def test_finite_difference_betas(self, d2_mixed, d3_mixed):
        h = 1e-3
        for model in (d2_mixed, d3_mixed):
            fc = flow_constants(model)
            b_l, b_n = covariance_scalars(model, h)
            fd_l = -2.0 * (b_l - 1.0) / h**2
            fd_n = -2.0 * (b_n - 1.0) / h**2
            assert fd_l == pytest.approx(fc.beta_l, rel=1e-4)
            assert fd_n == pytest.approx(fc.beta_n, rel=1e-4)


class TestPsdProbe:
    def test_single_unit_direction(self, d2_mixed):
        val = psd_probe(d2_mixed, [np.zeros(2)], [np.array([1.0, 0.0])])
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_cancelling_directions(self, d2_mixed):
        pts = [np.array([0.3, 0.4])] * 2
        dirs = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        assert psd_probe(d2_mixed, pts, dirs) == pytest.approx(0.0, abs=1e-14)

    def test_random_configurations_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            model = random_model(rng, d=2)
            pts = rng.normal(size=(20, 2)) * 2
            dirs = rng.normal(size=(20, 2))
            assert psd_probe(model, pts, dirs) >= -1e-9

    def test_matches_block_matrix_eigen_oracle(self, d2_mixed):
        # independent check: assemble the block matrix and verify the
        # probe equals the quadratic form, with the matrix PSD
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(8, 2))
        dirs = rng.normal(size=(8, 2))
        blocks = np.zeros((16, 16))
        for i in range(8):
            for j in range(8):
                blocks[2*i:2*i+2, 2*j:2*j+2] = covariance_tensor(
                    d2_mixed, pts[i] - pts[j])
        xi = dirs.ravel()
        assert psd_probe(d2_mixed, pts, dirs) == pytest.approx(
            xi @ blocks @ xi, rel=1e-12)
        assert np.linalg.eigvalsh(blocks).min() >= -1e-9
