"""Spectral measure construction, moments, quadrature, normalization."""

import numpy as np
import pytest

from ibflow import (KernelEvaluationError, MeasureError, SpectralMeasure,
                    integrate, moment, normalize_potential,
                    normalize_solenoidal, total_mass)


class TestTotalMass:
    def test_single_atom(self):
        assert total_mass(SpectralMeasure(atoms=((1.0, 2.0),))) == 2.0

    def test_rectangle_area(self):
        m = SpectralMeasure(density_pieces=((1.0, 2.0, 3.0),))
        assert total_mass(m) == pytest.approx(3.0, abs=0)

    def test_sum_of_parts(self):
        m = SpectralMeasure(atoms=((1.0, 1.0), (2.0, 0.5)),
                            density_pieces=((0.5, 1.5, 1.0),))
        assert total_mass(m) == pytest.approx(2.5, abs=1e-15)


class TestMoment:
    def test_atom(self):
        assert moment(SpectralMeasure(atoms=((2.0, 3.0),)), 2) == 12.0

    def test_zeroth_equals_mass(self):
        m = SpectralMeasure(atoms=((1.0, 1.0), (3.0, 0.25)),
                            density_pieces=((0.5, 2.0, 0.7),))
        assert moment(m, 0) == pytest.approx(total_mass(m), rel=1e-15)

    def test_density_first_moment(self):
        m = SpectralMeasure(density_pieces=((1.0, 2.0, 1.0),))
        assert moment(m, 1) == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("k", [-1, 9, 100])
    def test_order_out_of_range(self, k):
        with pytest.raises(MeasureError):
            moment(SpectralMeasure(atoms=((1.0, 1.0),)), k)


class TestIntegrate:
    def test_atom_evaluation(self):
        m = SpectralMeasure(atoms=((1.0, 2.0),))
        assert integrate(m, lambda s: s**2) == 2.0

    def test_constant_integrand_recovers_mass(self):
        m = SpectralMeasure(atoms=((1.0, 0.3),), density_pieces=((1.0, 2.0, 1.0),))
        for nodes in (1, 2, 8, 32):
            val = integrate(m, lambda s: np.ones_like(s), nodes)
            assert val == pytest.approx(total_mass(m), rel=1e-12)

    def test_gauss_legendre_exact_for_cubic(self):
        m = SpectralMeasure(density_pieces=((1.0, 2.0, 1.0),))
        assert integrate(m, lambda s: s**3, 16) == pytest.approx(3.75, abs=1e-12)

    def test_non_finite_integrand_reports_abscissa(self):
        m = SpectralMeasure(atoms=((2.0, 1.0),))
        with pytest.raises(KernelEvaluationError) as err:
            integrate(m, lambda s: np.where(s > 1.0, np.inf, s))
        assert err.value.abscissa == 2.0


class TestNormalization:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_masses_hit_targets(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            atoms = tuple((float(rng.uniform(0.1, 5)), float(rng.uniform(0.01, 3)))
                          for _ in range(rng.integers(1, 4)))
            m = SpectralMeasure(atoms=atoms,
                                density_pieces=((0.5, 1.7, float(rng.uniform(0, 2))),))
            assert total_mass(normalize_potential(m, d)) == pytest.approx(
                d, rel=1e-12)
            assert total_mass(normalize_solenoidal(m, d)) == pytest.approx(
                d / (d - 1), rel=1e-12)

    def test_locations_unchanged(self):
        m = SpectralMeasure(atoms=((1.0, 3.0), (2.0, 1.0)))
        scaled = normalize_potential(m, 3)
        assert [a[0] for a in scaled.atoms] == [1.0, 2.0]
        assert [a[1] for a in scaled.atoms] == [2.25, 0.75]

    def test_moment_matches_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = SpectralMeasure(
                atoms=((float(rng.uniform(0.2, 3)), float(rng.uniform(0.1, 2))),),
                density_pieces=((0.4, 2.1, float(rng.uniform(0.1, 1))),))
            for k in range(5):
                quad = integrate(m, lambda s, k=k: s**k, 32)
                assert moment(m, k) == pytest.approx(quad, rel=1e-10)


class TestValidation:
    def test_nonpositive_atom_location(self):
        with pytest.raises(MeasureError):
            SpectralMeasure(atoms=((-1.0, 1.0),))
        with pytest.raises(MeasureError):
            SpectralMeasure(atoms=((0.0, 1.0),))

    def test_negative_weight(self):
        with pytest.raises(MeasureError):
            SpectralMeasure(atoms=((1.0, -0.5),))

    def test_bad_density_interval(self):
        with pytest.raises(MeasureError):
            SpectralMeasure(density_pieces=((2.0, 1.0, 1.0),))
        with pytest.raises(MeasureError):
            SpectralMeasure(density_pieces=((0.0, 1.0, 1.0),))

    def test_zero_mass_rejected(self):
        with pytest.raises(MeasureError):
            SpectralMeasure(atoms=((1.0, 0.0),))
        with pytest.raises(MeasureError):
            SpectralMeasure()

    def test_non_finite_rejected(self):
        with pytest.raises(MeasureError):
            SpectralMeasure(atoms=((float("inf"), 1.0),))

    def test_overflowing_moment_rejected(self):
        # s**8 overflows a float here; the kernel series needs that moment
        for measure in (dict(atoms=((1e40, 1.0),)),
                        dict(density_pieces=((1.0, 1e80, 1.0),))):
            with pytest.raises(MeasureError, match="moment of order 8"):
                SpectralMeasure(**measure)
        assert moment(SpectralMeasure(atoms=((1e30, 1.0),)), 8) == pytest.approx(
            1e240, rel=1e-15)

    def test_immutable(self):
        m = SpectralMeasure(atoms=((1.0, 1.0),))
        with pytest.raises(AttributeError):
            m.atoms = ()
