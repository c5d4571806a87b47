"""Condition checks, the t-rule, inward field, squeeze identity."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from ibflow import (ModelError, SpectralMeasure, check_condition,
                    inward_profile, make_model, squeeze_functional)
from ibflow import covariance
from ibflow.rkhs import _t_rule

from conftest import (J1_AT_1, J1_FIRST_ZERO, mean_inward_field,
                      random_model, series_j_oracle, sphere_average_field,
                      sphere_rule)


class TestCheckCondition:
    def test_no_potential_part_fails(self, d2_solenoidal_atom):
        report = check_condition(d2_solenoidal_atom, 1.0)
        assert not report.satisfied
        assert report.witness_mass == 0.0

    def test_atom_on_first_zero_fails(self):
        model = make_model(2, 0.0, 1.0, 0.0,
                           m_p=SpectralMeasure(atoms=((J1_FIRST_ZERO, 1.0),)))
        report = check_condition(model, 1.0)
        assert not report.satisfied
        assert report.witness_mass == 0.0
        assert any(abs(z - J1_FIRST_ZERO) < 1e-9
                   for z in report.zero_locations_checked)

    def test_same_atom_off_zero_for_other_radius(self):
        model = make_model(2, 0.0, 1.0, 0.0,
                           m_p=SpectralMeasure(atoms=((J1_FIRST_ZERO, 1.0),)))
        assert check_condition(model, 0.7).satisfied

    def test_density_always_witnesses(self):
        model = make_model(2, 0.0, 1.0, 0.0,
                           m_p=SpectralMeasure(density_pieces=((1.0, 2.0, 1.0),)))
        report = check_condition(model, 1.0)
        assert report.satisfied
        assert report.witness_mass > 1.9  # full mass 2 less tolerance slivers

    def test_invalid_rho(self, d2_potential_atom):
        with pytest.raises(ValueError):
            check_condition(d2_potential_atom, 0.0)


class TestSphereRule:
    """The oracles' sphere rules: boundary_shell's nodes outside d = 3."""

    def test_d2_equally_spaced(self):
        rule = sphere_rule(2, 4)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(rule.nodes, expected, atol=1e-15)
        assert np.allclose(rule.weights, 0.25)

    @pytest.mark.parametrize("d,res", [(2, 16), (3, 12), (5, 400)])
    def test_centroid_vanishes(self, d, res):
        rule = sphere_rule(d, res)
        centroid = rule.weights @ rule.nodes
        tol = 1e-12 if d <= 3 else 0.2
        assert np.linalg.norm(centroid) < tol

    def test_d3_second_moment(self):
        rule = sphere_rule(3, 16)
        mom = rule.weights @ rule.nodes[:, 0] ** 2
        assert mom == pytest.approx(1 / 3, abs=1e-10)

    def test_mc_rule_seeded(self):
        # d >= 4 nodes are normalized Gaussian draws from seed 0
        rule = sphere_rule(5, 64)
        raw = np.random.default_rng(0).standard_normal((64, 5))
        assert np.array_equal(
            rule.nodes, raw / np.linalg.norm(raw, axis=1, keepdims=True))
        assert np.array_equal(rule.nodes, sphere_rule(5, 64).nodes)
        assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-12)


class TestTRule:
    """The Gauss rule of t = theta.phi, weight (1 - t^2)^((d-3)/2)."""

    @pytest.mark.parametrize("d", range(2, 17))
    @pytest.mark.parametrize("n", [3, 16, 64])
    def test_moments(self, d, n):
        # for independent uniform theta, phi: E[t^2] = 1/d and
        # E[t^4] = 3/(d(d+2)), exact for n >= 3 nodes
        t, w = _t_rule(d, n)
        assert abs(w.sum() - 1.0) <= 1e-15
        assert abs(w @ t**2 - 1.0 / d) <= 1e-15
        assert abs(w @ t**4 - 3.0 / (d * (d + 2))) <= 1e-15

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_d3_is_gauss_legendre(self, n):
        # t is uniform on [-1, 1] in d = 3
        t, w = _t_rule(3, n)
        u, v = leggauss(n)
        assert np.max(np.abs(t - u)) <= 1e-15
        assert np.max(np.abs(w - v / 2)) <= 4e-15

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_d2_is_chebyshev(self, n):
        # weight (1 - t^2)^(-1/2): the recurrence's b_1^2 = 1/2, where the
        # general formula reads 0/0, is what makes this rule Chebyshev's
        t, w = _t_rule(2, n)
        nodes = np.cos((2 * np.arange(n, 0, -1) - 1) * np.pi / (2 * n))
        assert np.max(np.abs(t - nodes)) <= 1e-15
        assert np.max(np.abs(w - 1.0 / n)) <= 4e-15

    def test_needs_a_node(self, d2_mixed):
        with pytest.raises(ValueError, match="n >= 1"):
            squeeze_functional(d2_mixed, 1.0, 0)


class TestMeanInwardField:
    def test_trivial_model_zero_at_origin(self, trivial_model):
        rule = sphere_rule(2, 64)
        v = mean_inward_field(trivial_model, 1.0, rule, np.zeros(2))
        assert np.linalg.norm(v) < 1e-14

    def test_boundary_radial_value(self, d2_potential_atom):
        rule = sphere_rule(2, 512)
        rhs = 2 * J1_AT_1**2
        for ang in (0.0, 0.9, 2.4):
            theta = np.array([math.cos(ang), math.sin(ang)])
            v = mean_inward_field(d2_potential_atom, 1.0, rule, theta)
            assert v @ theta == pytest.approx(-rhs, abs=1e-8)

    def test_solenoidal_no_radial_component(self, d2_solenoidal_atom):
        rule = sphere_rule(2, 512)
        theta = np.array([1.0, 0.0])
        v = mean_inward_field(d2_solenoidal_atom, 1.0, rule, theta)
        assert abs(v @ theta) < 1e-10

    def test_boundary_value_constant_over_sphere(self, d2_mixed, d3_mixed):
        rng = np.random.default_rng(5)
        for model, res in ((d2_mixed, 256), (d3_mixed, 24)):
            rule = sphere_rule(model.d, res)
            vals = []
            for _ in range(32):
                theta = rng.standard_normal(model.d)
                theta /= np.linalg.norm(theta)
                v = mean_inward_field(model, 1.3, rule, theta * 1.3)
                vals.append(v @ theta)
            assert np.ptp(vals) < 1e-8

    def test_strictly_inward_when_satisfied(self):
        # on the sphere of radius rho, V(rho theta) = G(rho) theta: the
        # field points strictly inward, G(rho) < 0, exactly when the
        # support condition holds; without a potential part V is zero
        rng = np.random.default_rng(6)
        for d in range(2, 9):
            for k in range(3):
                model = random_model(rng, d=d, force_mu1_zero=(k == 2))
                rho = float(rng.uniform(0.5, 2.0))
                g = (inward_profile(model, rho, [rho])[0][0]
                     if model.mu1 > 0.0 else 0.0)
                satisfied = check_condition(model, rho).satisfied
                assert satisfied == (g < -1e-8), (d, rho, g, satisfied)


class TestInwardProfile:
    """The closed-form radial profile G of the mean inward field."""

    @pytest.mark.parametrize("name,res", [
        ("d2_potential_atom", 512), ("d2_mixed", 512), ("d3_mixed", 24),
        ("d3_mixed", 48)])
    def test_matches_sphere_average(self, name, res, request):
        # on the drift table's 2048 knots over [0, 12 rho]; in d = 2 the
        # closed form carries bessel_j(1, .)'s error near the end of its
        # power series at 12, about 1e-12 absolute (1.3e-12 max |G|
        # measured), so the bound there is 2e-12 max |G|
        model = request.getfixturevalue(name)
        rule = sphere_rule(model.d, res)
        for rho in (0.5, 1.0, 2.0):
            r = 12.0 * rho / 2047 * np.arange(2048)
            g, _ = inward_profile(model, rho, r)
            probe = np.zeros((r.size, model.d))
            probe[:, 0] = r
            avg = sphere_average_field(model, rho, rule, probe)
            tol = (2e-12 if model.d == 2 else 1e-12) * np.max(np.abs(g))
            assert np.max(np.abs(g + avg[:, 0])) <= tol
            # the mean inward field is radial
            assert np.max(np.abs(avg[:, 1:])) <= tol

    @pytest.mark.parametrize("d", range(2, 9))
    def test_identity_at_rho(self, d):
        # -G(rho) is the squeeze identity's right-hand side: on atoms it is
        # mu1 2^(d-2) Gamma(d/2)^2 sum w (z^(1-d/2) J_{d/2}(z))^2, z = rho s,
        # here with J from the mpmath series
        atoms = SpectralMeasure(atoms=((1.0, 1.0), (2.3, 0.4)))
        mixed = make_model(d, 0.1, 0.6, 0.3, m_p=atoms,
                           m_s=SpectralMeasure(atoms=((2.0, 1.0),)))
        for model in (make_model(d, 0.0, 1.0, 0.0, m_p=atoms), mixed):
            const = model.mu1 * 2.0 ** (d - 2) * math.gamma(d / 2) ** 2
            for rho in (0.5, 1.0, 1.7):
                _, rhs = squeeze_functional(model, rho, 4)
                ref = const * math.fsum(
                    w * (rho * s) ** (2 - d)
                    * series_j_oracle(d / 2, rho * s) ** 2
                    for s, w in model.m_p.atoms)
                assert rhs == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["d2_potential_atom", "d3_mixed"])
    def test_slope_is_the_derivative(self, name, request):
        model = request.getfixturevalue(name)
        r = np.linspace(0.0, 14.0, 701)
        eps = 1e-5
        _, dg = inward_profile(model, 1.0, r + eps)
        up, _ = inward_profile(model, 1.0, r + 2.0 * eps)
        down, _ = inward_profile(model, 1.0, r)
        fd = (up - down) / (2.0 * eps)
        assert np.max(np.abs(fd - dg)) <= 1e-6 * np.max(np.abs(dg))

    def test_needs_potential_part(self, d2_solenoidal_atom):
        with pytest.raises(ModelError, match="mu1 = 0"):
            inward_profile(d2_solenoidal_atom, 1.0, np.array([1.0]))


class TestSqueezeIdentity:
    def test_d2_atom_reference_value(self, d2_potential_atom):
        lhs, rhs = squeeze_functional(d2_potential_atom, 1.0, 64)
        assert rhs == pytest.approx(2 * J1_AT_1**2, rel=1e-12)
        assert abs(lhs - rhs) / rhs < 1e-6

    def test_zero_atom_vanishes(self):
        model = make_model(2, 0.0, 1.0, 0.0,
                           m_p=SpectralMeasure(atoms=((J1_FIRST_ZERO, 1.0),)))
        lhs, rhs = squeeze_functional(model, 1.0, 64)
        assert abs(rhs) < 1e-10
        assert abs(lhs) < 1e-6

    def test_trivial_lhs_vanishes(self, trivial_model):
        lhs, rhs = squeeze_functional(trivial_model, 1.0, 64)
        assert abs(lhs) < 1e-12
        assert rhs == 0.0

    def test_solenoidal_lhs_vanishes(self, d2_solenoidal_atom):
        lhs, rhs = squeeze_functional(d2_solenoidal_atom, 1.0, 64)
        assert rhs == 0.0
        assert abs(lhs) < 1e-10

    def test_identity_parameter_sweep(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(8):
            model = random_model(rng)
            rho = float(rng.uniform(0.4, 2.5))
            lhs, rhs = squeeze_functional(model, rho, 64)
            gap = abs(lhs - rhs) / max(abs(rhs), 1e-6)
            assert gap < 1e-4, (model.d, rho, lhs, rhs)
            checked += 1
        assert checked == 8

    def test_one_kernel_call_on_the_module(self, monkeypatch):
        # the n separations s_k = rho sqrt(2(1 - t_k)) go to one
        # covariance_scalars call, looked up on the covariance module
        seen = []
        inner = covariance.covariance_scalars

        def counting(model, s):
            seen.append(np.size(s))
            return inner(model, s)

        monkeypatch.setattr(covariance, "covariance_scalars", counting)
        model = make_model(5, 0.1, 0.6, 0.3,
                           m_p=SpectralMeasure(atoms=((1.3, 1.0),)),
                           m_s=SpectralMeasure(atoms=((2.0, 1.0),)))
        squeeze_functional(model, 1.1, 64)
        assert seen == [64]

    def test_sign_link_with_condition(self):
        rng = np.random.default_rng(13)
        for k in range(8):
            model = random_model(rng, force_mu1_zero=(k % 3 == 0))
            rho = float(rng.uniform(0.5, 2.0))
            lhs, _ = squeeze_functional(model, rho, 64)
            satisfied = check_condition(model, rho).satisfied
            assert lhs >= -1e-9
            assert satisfied == (lhs > 1e-8), (model.d, rho, lhs, satisfied)


def _double_sum(model, rho, rule):
    """The squeeze identity's lhs as the full double sum over a sphere
    rule, every row evaluated, over at most _QUAD_PAIRS (row, node) pairs
    at a time and summed exactly (math.fsum)."""
    nodes, w = rule
    chunk = max(1, covariance._QUAD_PAIRS // nodes.shape[0])
    terms = []
    for start in range(0, nodes.shape[0], chunk):
        rows = slice(start, start + chunk)
        vt = sphere_average_field(model, rho, rule, rho * nodes[rows])
        terms.append(w[rows] * np.einsum("md,md->m", vt, nodes[rows]))
    return math.fsum(np.concatenate(terms))


@pytest.fixture
def d2_zero_atom():
    """Potential atom on J_1's first zero: the lhs at rho = 1 is about 0."""
    return make_model(2, 0.0, 1.0, 0.0,
                      m_p=SpectralMeasure(atoms=((J1_FIRST_ZERO, 1.0),)))


@pytest.fixture
def d3_solenoidal_atom():
    return make_model(3, 0.0, 0.0, 1.0, m_s=SpectralMeasure(atoms=((1.0, 1.0),)))


class TestDoubleSumOracle:
    """squeeze_functional's t-rule sum against the tensorized double sum
    over a sphere rule."""

    @pytest.mark.parametrize("name,res", [
        ("d2_mixed", 512), ("d2_zero_atom", 512), ("d3_mixed", 32),
        # without a potential part the lhs is zero, and both sums are the
        # rounding noise of O(1) terms
        ("d2_solenoidal_atom", 512), ("d3_solenoidal_atom", 16),
    ])
    def test_matches_double_sum(self, name, res, request):
        model = request.getfixturevalue(name)
        rule = sphere_rule(model.d, res)
        for rho in (0.4, 1.0, 1.7, 2.5):
            ref = _double_sum(model, rho, rule)
            lhs, _ = squeeze_functional(model, rho, 64)
            assert abs(lhs - ref) <= 1e-13, (rho, lhs, ref)
