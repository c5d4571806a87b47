"""Covariance scalars, tensor assembly, flow constants, positivity."""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from ibflow import (IbfModel, ModelError, SpectralMeasure, b_scalar,
                    covariance_scalars, flow_constants, make_model)

from ibflow import covariance
from ibflow.bessel import bessel_j_ratio
from ibflow.covariance import (_component_scalars, _nodes, _scalar_profile,
                               _scalars_exact, _small_s_series, tensor_scalars)

from conftest import (J1_AT_1, J1_FIRST_ZERO, covariance_tensor, psd_probe,
                      random_model, random_rotation, tensor_field)


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
            for component in ("P", "S"):
                assert b_scalar(model, component, 0.0) == (1.0, 1.0)

    def test_d2_atom_transverse_is_scaled_j1(self, d2_potential_atom):
        # with one unit atom the transverse scalar is 2 J_1(s) / s
        assert b_scalar(d2_potential_atom, "P", 1.0)[1] == pytest.approx(
            2 * J1_AT_1, rel=1e-12)
        assert abs(b_scalar(d2_potential_atom, "P", J1_FIRST_ZERO)[1]) < 1e-8

    def test_missing_measure_is_model_error(self, d2_potential_atom):
        with pytest.raises(ModelError):
            b_scalar(d2_potential_atom, "S", 1.0)

    def test_unknown_kind(self, d2_potential_atom):
        for component in ("XX", "PL"):
            with pytest.raises(ModelError):
                b_scalar(d2_potential_atom, component, 1.0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0.0, 20.0, 401)
        for _ in range(6):
            model = random_model(rng)
            for component, measure in (("P", model.m_p), ("S", model.m_s)):
                if measure is None:
                    continue
                vals = b_scalar(model, component, grid)
                assert np.max(np.abs(vals)) <= 1.0 + 1e-9

    def test_combination_matches_components(self, d2_mixed):
        s = np.linspace(0.0, 6.0, 23)
        b_l, b_n = covariance_scalars(d2_mixed, s)
        p_l, p_n = b_scalar(d2_mixed, "P", s)
        s_l, s_n = b_scalar(d2_mixed, "S", s)
        expect_l = d2_mixed.mu0 + d2_mixed.mu1 * p_l + d2_mixed.mu2 * s_l
        expect_n = d2_mixed.mu0 + d2_mixed.mu1 * p_n + d2_mixed.mu2 * s_n
        assert np.allclose(b_l, expect_l, atol=1e-13)
        assert np.allclose(b_n, expect_n, atol=1e-13)


class TestKernelRoute:
    @pytest.mark.parametrize("name", ["d2_potential_atom", "d2_mixed",
                                      "d3_mixed"])
    def test_route_matches_quadrature(self, name, request):
        # a dense grid crossing the three seams, s0, s1 and 64, with
        # points on them
        model = request.getfixturevalue(name)
        series = _small_s_series(model)
        seams = np.array([series.s0, series.s1, 64.0])[:, None] * (
            1.0 + np.array([-1e-12, 0.0, 1e-12]))
        grid = np.concatenate([np.linspace(0.0, 80.0, 16001), seams.ravel()])
        b_l, b_n = covariance_scalars(model, grid)
        e_l, e_n = _scalars_exact(model, grid)
        assert np.max(np.abs(b_l - e_l)) < 1e-11
        assert np.max(np.abs(b_n - e_n)) < 1e-11
        # a separation's route depends on s alone: one at a time is bitwise
        # the same as inside the batch
        for k in list(range(0, grid.size, 331)) + list(range(16001, grid.size)):
            assert covariance_scalars(model, grid[k]) == (b_l[k], b_n[k])

    @pytest.mark.parametrize("name", ["d2_potential_atom", "d2_mixed",
                                      "d3_mixed"])
    def test_profile_at_quadrature_accuracy(self, name, request):
        # on [s0, 64] the route, the degree-10 series to s1 and the
        # quintic profile from there, is as good as quadrature, on a dense
        # grid and at every piece's midpoint, where a Hermite piece errs
        # most
        model = request.getfixturevalue(name)
        table = _scalar_profile(model).table
        grid = np.linspace(_small_s_series(model).s0, 64.0, 40001)
        mids = table.lo + (np.arange(table.rows.shape[-1]) + 0.5) * table.h
        for s in (grid, mids):
            for got, want in zip(covariance_scalars(model, s),
                                 _scalars_exact(model, s)):
                assert np.max(np.abs(got - want)) < 2e-15

    def test_profile_step_from_remainder(self, d2_potential_atom, d2_mixed,
                                         d3_mixed):
        # a quintic Hermite piece errs by at most h^6 / 46080 max|B^(6)|,
        # and |B^(6)| <= sum_i mu_i moment(m_i, 6) / mass(m_i), which is 1
        # for the unit atom: the step holds that remainder to eps
        eps = np.finfo(float).eps
        atom = _scalar_profile(d2_potential_atom).table
        assert atom.h <= (46080.0 * eps) ** (1.0 / 6.0) < atom.h * 1.0001
        assert atom.h == pytest.approx(0.0147, abs=1e-4)
        assert _scalar_profile(d2_mixed).table.h == pytest.approx(0.0089,
                                                                  abs=1e-4)
        assert _scalar_profile(d3_mixed).table.h == pytest.approx(0.0082,
                                                                  abs=1e-4)
        for model in (d2_potential_atom, d2_mixed, d3_mixed):
            table = _scalar_profile(model).table
            assert table.rows.shape[:2] == (6, 2)
            assert table.lo + table.rows.shape[-1] * table.h == pytest.approx(
                64.0, rel=1e-14)

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

    def test_negative_separation_refused(self, d2_mixed):
        # the route's minimum carries the sign test: a negative separation
        # raises wherever it sits, a NaN beside it included, while NaN and
        # inf alone still give NaN
        for s in (-1e-300, [0.5, -0.1], [np.nan, 0.5, -2.0],
                  [-np.inf, 0.3], [0.3, np.nan, -np.inf]):
            with pytest.raises(ModelError, match="separation must be >= 0"):
                covariance_scalars(d2_mixed, s)
        for s in (np.nan, np.inf):
            assert np.isnan(covariance_scalars(d2_mixed, s)).all()
        b_l, b_n = covariance_scalars(d2_mixed, np.array([np.nan, np.inf]))
        assert np.isnan(b_l).all() and np.isnan(b_n).all()

    def test_series_remainder_bound_at_s0(self, d2_potential_atom, d2_mixed,
                                          d3_mixed):
        eps = np.finfo(float).eps
        # d = 2, unit atom, mass 2: the first omitted term of B_L is
        # (1 / (2^11 5! 6!) + 1 / (2^10 4! 6!)) * 2 * s^10, the larger of the
        # two scalars', and s0 is where it reaches eps / 4; past the
        # degree-10 band it is (1 / (2^23 11! 12!) + 1 / (2^22 10! 12!))
        # * 2 * s^22, and s1 is where that reaches eps / 4
        tail = 2.0 * (1.0 / (2**11 * 120 * 720) + 1.0 / (2**10 * 24 * 720))
        f10, f11, f12 = (float(np.prod(np.arange(1.0, k + 1)))
                         for k in (10, 11, 12))
        tail_s1 = 2.0 * (1.0 / (2**23 * f11 * f12) + 1.0 / (2**22 * f10 * f12))
        series = _small_s_series(d2_potential_atom)
        assert tail * series.s0**10 == pytest.approx(eps / 4, rel=1e-12)
        assert tail_s1 * series.s1**22 == pytest.approx(eps / 4, rel=1e-12)
        assert series.s0 == pytest.approx(0.1161, abs=1e-4)
        assert series.s1 == pytest.approx(1.739, abs=1e-3)
        assert _small_s_series(d3_mixed).s0 == pytest.approx(0.0523, abs=1e-4)
        assert _small_s_series(d3_mixed).s1 == pytest.approx(0.745, abs=1e-3)
        for model in (d2_potential_atom, d2_mixed, d3_mixed):
            series = _small_s_series(model)
            # the s^2 terms are -beta/2, from the exact second moments, in
            # t below s0 and in u = t unit^2 from there
            fc = flow_constants(model)
            for band in (series.low, series.mid):
                for coef, beta in ((band.coef_l, fc.beta_l),
                                   (band.coef_n, fc.beta_n)):
                    assert coef[1] == pytest.approx(-beta / 2 / band.scale,
                                                    rel=1e-14)
            # just below either bound its series is as good as quadrature
            for band, end in ((series.low, series.s0),
                              (series.mid, series.s1)):
                s = np.array([end * (1.0 - 1e-9)])
                for got, want in zip(band.values(s * s),
                                     _scalars_exact(model, s)):
                    assert abs(got[0] - want[0]) <= 4 * eps

    def test_trivial_model_is_all_series(self, trivial_model):
        assert _small_s_series(trivial_model).s0 == np.inf
        b_l, b_n = covariance_scalars(trivial_model, np.linspace(0, 100, 11))
        assert np.all(b_l == 1.0) and np.all(b_n == 1.0)
        # a batch past the series' range has no profile to read
        b_l, b_n = covariance_scalars(trivial_model, [0.5, np.inf, np.nan])
        assert b_l[0] == b_n[0] == 1.0
        assert np.isnan(b_l[1:]).all() and np.isnan(b_n[1:]).all()

    def test_series_past_64_when_s0_is(self):
        # support 1e-3 puts s0 near 116 and s1 near 1739: every s below
        # s1 takes the series, also past 64, of degree 4 below s0, and
        # quadrature serves only s >= s1
        model = make_model(2, 0.0, 1.0, 0.0,
                           m_p=SpectralMeasure(atoms=((1e-3, 1.0),)))
        series = _small_s_series(model)
        assert 100.0 < series.s0 < 500.0 < series.s1 < 1e4
        s = np.array([0.0, 10.0, 70.0, 100.0, 500.0, 1e4, np.nan])
        b_l, b_n = covariance_scalars(model, s)
        want = np.concatenate([series.low.values(s[:4] ** 2),
                               series.mid.values(s[4:5] ** 2)], axis=1)
        assert np.array_equal(b_l[:5], want[0])
        assert np.array_equal(b_n[:5], want[1])
        far = _scalars_exact(model, s[5:])
        assert np.array_equal(b_l[5:], far[0], equal_nan=True)
        assert np.array_equal(b_n[5:], far[1], equal_nan=True)

    def test_batch_outside_profile_builds_no_block(self, d3_mixed):
        # a batch with no entry in [s1, 64] leaves a fresh profile
        # unbuilt, and each entry's value is what it takes in a batch
        # that reads the profile
        s0 = _small_s_series(d3_mixed).s0
        assert s0 < 10.0
        for s in ([0.0, 100.0], [100.0, np.inf]):
            _scalar_profile.cache_clear()
            got = covariance_scalars(d3_mixed, s)
            assert not _scalar_profile(d3_mixed)._built.any()
            want = covariance_scalars(d3_mixed, s + [10.0])
            assert _scalar_profile(d3_mixed)._built.any()
            for g, w in zip(got, want):
                assert np.array_equal(g, w[:2], equal_nan=True)


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
            whole = _component_scalars(d, measure, potential, s,
                                       derivatives=True)
            for chunk in (1000, 333, 37):
                monkeypatch.setattr(covariance, "_QUAD_PAIRS", chunk * nodes)
                parts = _component_scalars(d, measure, potential, s,
                                           derivatives=True)
                for got, want in zip(parts, whole, strict=True):
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("derivatives", [False, True])
    def test_one_pass_equals_the_components_bitwise(self, monkeypatch,
                                                    derivatives):
        # both measures share each chunk's Bessel call, at the union of
        # their orders, and chunks count the pairs of both; the result is
        # mu0 + mu1 P + mu2 S summed in that order from each component
        # alone, whatever the chunk, and the radii's rows are R_(d/2) at
        # radius times potential node, as from a call of their own
        model = make_model(3, 0.1, 0.6, 0.3, m_p=_pieces(3),
                           m_s=_pieces(2, lo=1.0, width=0.7))
        s = np.linspace(0.0, 70.0, 300)
        radii = np.array([0.4, 2.5, 30.0])
        monkeypatch.setattr(covariance, "_QUAD_PAIRS", 1 << 40)
        want = [np.full(s.shape, model.mu0) for _ in range(2)]
        want += [np.zeros(s.shape) for _ in range(4 if derivatives else 0)]
        for mu, measure, potential in ((model.mu1, model.m_p, True),
                                       (model.mu2, model.m_s, False)):
            for acc, part in zip(want, _component_scalars(
                    3, measure, potential, s, derivatives)):
                acc += mu * part
        want[0][0] = want[1][0] = 1.0
        locs = _nodes(model.m_p)[0]
        rows = bessel_j_ratio(1.5, radii[:, None] * locs)
        pair_count = locs.size + _nodes(model.m_s)[0].size
        for chunk in (None, 1000, 301, 299, 37, 1):
            if chunk is not None:
                monkeypatch.setattr(covariance, "_QUAD_PAIRS",
                                    chunk * pair_count)
            got = _scalars_exact(model, s, derivatives)
            *with_radii, got_rows = _scalars_exact(model, s, derivatives,
                                                   radii=radii)
            for vals in (got, with_radii):
                assert len(vals) == len(want)
                for g, w in zip(vals, want):
                    assert np.array_equal(g, w), chunk
            assert np.array_equal(got_rows, rows), chunk

    def test_radii_rows_need_a_potential_part(self, d2_solenoidal_atom):
        with pytest.raises(ModelError, match="mu1 > 0"):
            _scalars_exact(d2_solenoidal_atom, np.array([1.0]),
                           radii=np.array([1.0]))

    def test_memory_bounded_by_chunk(self):
        # 10 density pieces: 321 nodes, so 4096 separations are 1.3e6
        # pairs, about 150 MiB of quadrature at once
        model = make_model(3, 0.0, 1.0, 0.0, m_p=_pieces(10))
        s = np.linspace(0.0, 100.0, 4096)
        tracemalloc.start()
        try:
            b_scalar(model, "P", s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_empty_separations(self, d3_mixed):
        b_l, b_n = b_scalar(d3_mixed, "P", np.array([]))
        assert b_l.shape == b_n.shape == (0,)


class TestQuadratureDerivatives:
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_derivatives_match_central_differences(self, d):
        # the slopes against central differences of the values, the
        # second derivatives against central differences of the slopes,
        # for both scalars of both components
        model = make_model(
            d, 0.0, 0.5, 0.5,
            m_p=SpectralMeasure(atoms=((1.3, 1.0),),
                                density_pieces=((0.5, 2.5, 0.4),)),
            m_s=SpectralMeasure(atoms=((2.0, 1.0),),
                                density_pieces=((0.4, 1.1, 0.6),)))
        s = np.linspace(0.05, 40.0, 401)
        dh = 1e-5
        for measure, potential in ((model.m_p, True), (model.m_s, False)):
            at, up, down = (_component_scalars(d, measure, potential, x,
                                               derivatives=True)
                            for x in (s, s + dh, s - dh))
            for k in range(4):
                diff = (up[k] - down[k]) / (2.0 * dh)
                scale = max(1.0, np.max(np.abs(at[k + 2])))
                assert np.max(np.abs(at[k + 2] - diff)) < 1e-8 * scale

    def test_second_derivatives_at_zero_are_minus_beta(self, d2_mixed,
                                                       d3_mixed):
        # B(s) = 1 - beta s^2 / 2 + O(s^4), so B'(0) = 0 and B''(0) = -beta
        for model in (d2_mixed, d3_mixed):
            fc = flow_constants(model)
            vals = _scalars_exact(model, np.array([0.0]), derivatives=True)
            assert [v[0] for v in vals[:4]] == [1.0, 1.0, 0.0, 0.0]
            assert vals[4][0] == pytest.approx(-fc.beta_l, rel=1e-13)
            assert vals[5][0] == pytest.approx(-fc.beta_n, rel=1e-13)


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

    @pytest.mark.parametrize("name", ["d2_potential_atom", "d2_mixed",
                                      "d3_mixed"])
    def test_coef_near_zero_to_full_precision(self, name, request):
        # coef = (B_L - B_N) / s^2 against that quotient in 50-digit
        # arithmetic: the series in s^2 keeps full relative accuracy where
        # subtracting two doubles near 1 and dividing by s^2 left eps / s^2
        model = request.getfixturevalue(name)
        for s in (1e-6, 1e-4, 1e-2):
            x = np.zeros(model.d)
            x[-1] = s
            coef, b_n = tensor_scalars(model, list(x[:, None]))
            b_l_mp, b_n_mp = _mp_scalars(model, s)
            with mp.workdps(50):
                want = (b_l_mp - b_n_mp) / mp.mpf(s) ** 2
                assert abs((coef[0] - want) / want) <= 1e-13
                assert abs(b_n[0] - b_n_mp) <= 2e-16
        # at 0, coef is its limit and the tensor is exactly I
        coef, b_n = tensor_scalars(model, list(np.zeros((model.d, 1))))
        assert coef[0] == _small_s_series(model).low.coef_t[0]
        assert b_n[0] == 1.0

    @pytest.mark.parametrize("name", ["d2_potential_atom", "d2_mixed",
                                      "d3_mixed"])
    def test_each_entry_takes_its_own_route(self, name, request):
        # one batch spans every band: 0, the degree-4 series below s0, the
        # degree-10 series on [s0, s1), the profile on [s1, 64], quadrature
        # beyond, inf and NaN; each entry of either function is bitwise
        # what it gives alone and what it gives in the batch reversed, and
        # a batch with no entry in [s1, 64] builds no profile block
        model = request.getfixturevalue(name)
        series = _small_s_series(model)
        s0, s1 = series.s0, series.s1
        s = np.array([0.0, 1e-7, 0.3 * s0, 0.999 * s0, s0, 1.5 * s0,
                      0.5 * (s0 + s1), 0.999 * s1, s1, 2.0 * s1, 7.5, 64.0,
                      64.5, 150.0, np.inf, np.nan])
        rng = np.random.default_rng(31)
        dirs = rng.normal(size=(s.size, model.d))
        x = dirs / np.linalg.norm(dirs, axis=1)[:, None] * s[:, None]
        x[0] = 0.0
        x[-2:] = s[-2:, None]
        t = np.sum(x * x, axis=1)
        # every band holds an entry, in either function's key
        bands = [(s < s0), (s < s1), (s <= 64.0)]
        assert set(np.sum(bands, axis=0)) == {0, 1, 2, 3}
        assert set((t < series.t0) + (t < series.t1).astype(int)) == {0, 1, 2}
        got = covariance_scalars(model, s), tensor_scalars(model, list(x.T))
        back = (covariance_scalars(model, s[::-1]),
                tensor_scalars(model, list(x[::-1].T)))
        for k in range(s.size):
            alone = (covariance_scalars(model, s[k:k + 1]),
                     tensor_scalars(model, list(x[k:k + 1].T)))
            for batch, rev, one in zip(got, back, alone):
                for g, r, w in zip(batch, rev, one):
                    assert np.array_equal(g[k:k + 1], w, equal_nan=True)
                    assert np.array_equal(r[s.size - 1 - k:s.size - k], w,
                                          equal_nan=True)
        outside = [0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15]
        _scalar_profile.cache_clear()
        covariance_scalars(model, s[outside])
        tensor_scalars(model, list(x[outside].T))
        assert not _scalar_profile(model)._built.any()

    def test_mid_band_takes_no_root(self, d2_potential_atom, monkeypatch):
        # unit-atom separations all in [s0, s1), the bulk of a squeeze
        # step's kernel rows, are all series: tensor_scalars hands none of
        # them to covariance_scalars, and neither function makes a profile
        model = d2_potential_atom
        series = _small_s_series(model)
        calls = []
        scalars = covariance.covariance_scalars

        def counted(model, s):
            calls.append(np.size(s))
            return scalars(model, s)

        monkeypatch.setattr(covariance, "covariance_scalars", counted)
        rng = np.random.default_rng(5)
        s = rng.uniform(series.s0, series.s1, size=(64, 64))
        s[0, :2] = series.s0, series.s1 * (1.0 - 1e-15)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=s.shape)
        _scalar_profile.cache_clear()
        coef, b_n = tensor_scalars(model, [s * np.cos(angle),
                                           s * np.sin(angle)])
        assert calls == []
        counted(model, s.ravel())
        assert _scalar_profile.cache_info().currsize == 0
        assert np.isfinite(coef).all() and np.isfinite(b_n).all()


class TestMomentSeries:
    @pytest.mark.parametrize("name", ["d2_potential_atom", "d2_mixed",
                                      "d3_mixed"])
    def test_series_against_mpmath(self, name, request):
        # (B_L, B_N) of covariance_scalars and (coef, B_N) of
        # tensor_scalars on [0, s1), both bands and their seam, against
        # 30-digit values: the scalars to 2 eps absolute, coef to 2 eps
        # over max(s^2, s0^2), the error of B_L - B_N divided by s^2 (near
        # 0 coef's relative accuracy is test_coef_near_zero_to_full_precision's)
        eps = np.finfo(float).eps
        model = request.getfixturevalue(name)
        series = _small_s_series(model)
        s = np.concatenate([np.linspace(0.0, series.s1, 8)[1:-1],
                            series.s0 * (1.0 + np.array([-1e-12, 0.0])),
                            [0.5 * series.s0, series.s1 * (1.0 - 1e-12)]])
        x = np.zeros((model.d, s.size))
        x[-1] = s
        b_l, b_n = covariance_scalars(model, s)
        coef, b_n_t = tensor_scalars(model, list(x))
        for k, sk in enumerate(s):
            want_l, want_n = _mp_scalars(model, float(sk), dps=30)
            with mp.workdps(30):
                want_coef = (want_l - want_n) / mp.mpf(float(sk)) ** 2
                assert abs(b_l[k] - want_l) <= 2 * eps
                assert abs(b_n[k] - want_n) <= 2 * eps
                assert abs(b_n_t[k] - want_n) <= 2 * eps
                assert (abs(coef[k] - want_coef) * max(sk * sk, series.t0)
                        <= 2 * eps)

    def test_mid_band_empty_for_a_faint_component(self):
        # with mu1 = 1e-30 the degree-4 tail reaches eps/4 further out
        # than the degree-10 one: s1 is s0, the mid band serves nothing,
        # and every s below s0 still takes the degree-4 series
        model = make_model(2, 1.0 - 1e-30, 1e-30, 0.0,
                           m_p=SpectralMeasure(atoms=((1.0, 1.0),)))
        series = _small_s_series(model)
        assert series.s1 == series.s0 > 100.0
        s = np.array([0.0, 1.0, 50.0, 0.999 * series.s0, series.s0, 200.0])
        b_l, b_n = covariance_scalars(model, s)
        want = series.low.values(s[:4] ** 2)
        assert np.array_equal(b_l[:4], want[0])
        assert np.array_equal(b_n[:4], want[1])
        e_l, e_n = _scalars_exact(model, s)
        assert np.array_equal(b_l[4:], e_l[4:])
        assert np.array_equal(b_n[4:], e_n[4:])

    def test_support_near_1e30(self):
        # a measure with support near 1e30 is accepted, and its moments of
        # order up to 20 overflow in the units of s: the degree-10 band
        # takes them in units of a power of two near 1e30, so every
        # coefficient, s0 and s1 stay finite, and the series matches
        # quadrature on [0, s1)
        eps = np.finfo(float).eps
        model = make_model(
            2, 0.0, 0.6, 0.4,
            m_p=SpectralMeasure(atoms=((1e30, 1.0),),
                                density_pieces=((3e29, 8e29, 2.0),)),
            m_s=SpectralMeasure(atoms=((7e29, 1.0),)))
        series = _small_s_series(model)
        for band in (series.low, series.mid):
            assert np.isfinite(band.coef_l + band.coef_n + band.coef_t).all()
        assert 0.0 < series.s0 < series.s1 < 1e-29
        assert np.isfinite([series.t0, series.t1]).all()
        s = np.concatenate([np.linspace(0.0, series.s1, 12)[1:-1],
                            [series.s0, series.s1 * (1.0 - 1e-12)]])
        x = np.zeros((2, s.size))
        x[0] = s
        b_l, b_n = covariance_scalars(model, s)
        coef, b_n_t = tensor_scalars(model, list(x))
        e_l, e_n = _scalars_exact(model, s)
        assert np.max(np.abs(b_l - e_l)) <= 4 * eps
        assert np.max(np.abs(b_n - e_n)) <= 4 * eps
        assert np.max(np.abs(b_n_t - e_n)) <= 4 * eps
        assert np.max(np.abs(coef * (s * s) - (e_l - e_n))) <= 4 * eps


def _mp_scalars(model, s: float, dps: int = 50):
    """(B_L, B_N) of the model at s in dps-digit arithmetic, from the
    kernels' Bessel ratios R_nu(z) = J_nu(z) / z^nu (m = d/2): potential
    B_L = c (R_m - z^2 R_(m+1)), B_N = c R_m; solenoidal
    B_L = (d - 1) c R_m, B_N = c (R_(m-1) - R_m), c = 2^(m-1) Gamma(m),
    each integrated against its measure (atoms exactly, density pieces
    by mpmath quadrature)."""
    with mp.workdps(dps):
        d = model.d
        m = mp.mpf(d) / 2
        c = 2 ** (m - 1) * mp.gamma(m)

        def ratio(nu, z):
            return mp.besselj(nu, z) / z ** nu

        def kernels(potential, r):
            z = mp.mpf(s) * r
            if potential:
                return (c * (ratio(m, z) - z * z * ratio(m + 1, z)),
                        c * ratio(m, z))
            return ((d - 1) * c * ratio(m, z),
                    c * (ratio(m - 1, z) - ratio(m, z)))

        b_l = b_n = mp.mpf(model.mu0)
        for mu, measure, potential in ((model.mu1, model.m_p, True),
                                       (model.mu2, model.m_s, False)):
            if mu == 0.0:
                continue
            for loc, w in measure.atoms:
                k_l, k_n = kernels(potential, mp.mpf(loc))
                b_l += mp.mpf(mu) * w * k_l
                b_n += mp.mpf(mu) * w * k_n
            for lo, hi, h in measure.density_pieces:
                weight = mp.mpf(mu) * h
                b_l += weight * mp.quad(lambda r: kernels(potential, r)[0],
                                        [lo, hi])
                b_n += weight * mp.quad(lambda r: kernels(potential, r)[1],
                                        [lo, hi])
        return b_l, b_n


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
