"""Condition checks, sphere rules, inward field, squeeze identity."""

import math

import numpy as np
import pytest

from ibflow import (ModelError, SpectralMeasure, check_condition,
                    inward_profile, make_model, mean_inward_field,
                    sphere_rule, squeeze_functional)
from ibflow import covariance
from ibflow.rkhs import SphereRule, _sphere_average_field

from conftest import J1_AT_1, J1_FIRST_ZERO, random_model, series_j_oracle


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

    @pytest.mark.parametrize("d,res,rows", [(2, 7, 1), (2, 512, 1),
                                            (3, 5, 5), (3, 48, 48),
                                            (5, 64, 64)])
    def test_orbits(self, d, res, rows):
        rule = sphere_rule(d, res)
        n = rule.nodes.shape[0]
        reps = rule.representatives
        assert reps.size == rows
        assert rule.orbits.sum() == n
        assert np.all(rule.orbits[reps] == n // rows)
        if d == 3:
            # each ring: one representative, one polar cosine, one weight
            rings = rule.nodes[:, 2].reshape(res, res)
            assert np.array_equal(reps, np.arange(0, n, res))
            assert np.all(rings == rings[:, :1])
            assert np.all(rule.weights.reshape(res, res)
                          == rule.weights[reps, None])

    def test_hand_built_rule_orbits_default_to_ones(self):
        base = sphere_rule(3, 4)
        rule = SphereRule(nodes=base.nodes, weights=base.weights)
        assert np.array_equal(rule.orbits, np.ones(16, dtype=int))
        assert np.array_equal(rule.representatives, np.arange(16))

    @pytest.mark.parametrize("orbits", [
        [2, -1, 2],          # negative size
        [1, 1, 0],           # sums to 2, not 3
        [3, 1, 0],           # sums to 4
        [3],                 # not one size per node
        [1.0, 1.0, 1.0],     # not integers
    ])
    def test_invalid_orbits_rejected(self, orbits):
        base = sphere_rule(2, 3)
        with pytest.raises(ValueError, match="orbits"):
            SphereRule(nodes=base.nodes, weights=base.weights,
                       orbits=np.asarray(orbits))

    def test_one_weight_per_node(self):
        base = sphere_rule(2, 4)
        with pytest.raises(ValueError, match="one per node"):
            SphereRule(nodes=base.nodes, weights=np.full(2, 0.5))

    def test_mc_rule_seeded(self):
        # d >= 4 nodes are normalized Gaussian draws from seed 0
        rule = sphere_rule(5, 64)
        raw = np.random.default_rng(0).standard_normal((64, 5))
        assert np.array_equal(
            rule.nodes, raw / np.linalg.norm(raw, axis=1, keepdims=True))
        assert np.array_equal(rule.nodes, sphere_rule(5, 64).nodes)
        assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-12)


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

    def test_rule_dimension_must_match(self, d3_mixed, monkeypatch):
        monkeypatch.setattr(covariance, "covariance_scalars", None)
        with pytest.raises(ModelError, match="d = 2.*d = 3"):
            mean_inward_field(d3_mixed, 1.0, sphere_rule(2, 64), np.zeros(3))

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
        rng = np.random.default_rng(6)
        rule_cache = {}
        for _ in range(6):
            model = random_model(rng)
            rho = float(rng.uniform(0.5, 2.0))
            if not check_condition(model, rho).satisfied:
                continue
            res = 256 if model.d == 2 else 32
            rule = rule_cache.setdefault((model.d, res),
                                         sphere_rule(model.d, res))
            worst = -np.inf
            for _ in range(64):
                theta = rng.standard_normal(model.d)
                theta /= np.linalg.norm(theta)
                v = mean_inward_field(model, rho, rule, rho * theta)
                worst = max(worst, float(v @ theta))
            assert worst < 0.0


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
            avg = _sphere_average_field(model, rho, rule, probe)
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
        rule = sphere_rule(d, 4)
        for model in (make_model(d, 0.0, 1.0, 0.0, m_p=atoms), mixed):
            const = model.mu1 * 2.0 ** (d - 2) * math.gamma(d / 2) ** 2
            for rho in (0.5, 1.0, 1.7):
                _, rhs = squeeze_functional(model, rho, rule)
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
        rule = sphere_rule(2, 512)
        lhs, rhs = squeeze_functional(d2_potential_atom, 1.0, rule)
        assert rhs == pytest.approx(2 * J1_AT_1**2, rel=1e-12)
        assert abs(lhs - rhs) / rhs < 1e-6

    def test_zero_atom_vanishes(self):
        model = make_model(2, 0.0, 1.0, 0.0,
                           m_p=SpectralMeasure(atoms=((J1_FIRST_ZERO, 1.0),)))
        rule = sphere_rule(2, 512)
        lhs, rhs = squeeze_functional(model, 1.0, rule)
        assert abs(rhs) < 1e-10
        assert abs(lhs) < 1e-6

    def test_trivial_lhs_vanishes(self, trivial_model):
        rule = sphere_rule(2, 128)
        lhs, rhs = squeeze_functional(trivial_model, 1.0, rule)
        assert abs(lhs) < 1e-12
        assert rhs == 0.0

    def test_solenoidal_lhs_vanishes(self, d2_solenoidal_atom):
        rule = sphere_rule(2, 256)
        lhs, rhs = squeeze_functional(d2_solenoidal_atom, 1.0, rule)
        assert rhs == 0.0
        assert abs(lhs) < 1e-10

    def test_identity_parameter_sweep(self):
        rng = np.random.default_rng(12)
        rules = {2: sphere_rule(2, 512), 3: sphere_rule(3, 48)}
        checked = 0
        for _ in range(8):
            model = random_model(rng)
            rho = float(rng.uniform(0.4, 2.5))
            lhs, rhs = squeeze_functional(model, rho, rules[model.d])
            gap = abs(lhs - rhs) / max(abs(rhs), 1e-6)
            assert gap < 1e-4, (model.d, rho, lhs, rhs)
            checked += 1
        assert checked == 8

    def test_kernel_calls_within_pair_budget(self, monkeypatch):
        # d = 5 at 1500 nodes: 1500 rows of 1500 pairs, more than one
        # _QUAD_PAIRS budget, so the rows must split into several calls
        seen = []
        inner = covariance.covariance_scalars

        def counting(model, s):
            seen.append(np.size(s))
            return inner(model, s)

        monkeypatch.setattr(covariance, "covariance_scalars", counting)
        model = make_model(5, 0.1, 0.6, 0.3,
                           m_p=SpectralMeasure(atoms=((1.3, 1.0),)),
                           m_s=SpectralMeasure(atoms=((2.0, 1.0),)))
        squeeze_functional(model, 1.1, sphere_rule(5, 1500))
        assert sum(seen) == 1500 * 1500
        assert max(seen) <= covariance._QUAD_PAIRS

    def test_sign_link_with_condition(self):
        rng = np.random.default_rng(13)
        rules = {2: sphere_rule(2, 256), 3: sphere_rule(3, 32)}
        for k in range(8):
            model = random_model(rng, force_mu1_zero=(k % 3 == 0))
            rho = float(rng.uniform(0.5, 2.0))
            lhs, _ = squeeze_functional(model, rho, rules[model.d])
            satisfied = check_condition(model, rho).satisfied
            assert lhs >= -1e-9
            assert satisfied == (lhs > 1e-8), (model.d, rho, lhs, satisfied)


def _double_sum(model, rho, rule):
    """The squeeze identity's lhs as the full n^2 double sum, every row
    evaluated, over at most _QUAD_PAIRS (row, node) pairs at a time: summed
    by the chunked einsum, and the same n row terms summed exactly
    (math.fsum)."""
    nodes, w = rule.nodes, rule.weights
    n = nodes.shape[0]
    chunk = max(1, covariance._QUAD_PAIRS // n)
    lhs, terms = 0.0, []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        vt = _sphere_average_field(model, rho, rule, rho * nodes[start:stop])
        lhs += float(np.einsum("m,md,md->", w[start:stop], vt,
                               nodes[start:stop]))
        terms.append(w[start:stop]
                     * np.einsum("md,md->m", vt, nodes[start:stop]))
    return lhs, math.fsum(np.concatenate(terms))


@pytest.fixture
def d2_zero_atom():
    """Potential atom on J_1's first zero: the lhs at rho = 1 is about 0."""
    return make_model(2, 0.0, 1.0, 0.0,
                      m_p=SpectralMeasure(atoms=((J1_FIRST_ZERO, 1.0),)))


@pytest.fixture
def d3_solenoidal_atom():
    return make_model(3, 0.0, 0.0, 1.0, m_s=SpectralMeasure(atoms=((1.0, 1.0),)))


class TestOrbitSum:
    """squeeze_functional's one row per rotation orbit against every row."""

    @pytest.mark.parametrize("name,res,floor", [
        ("d2_mixed", 512, 1e-16), ("d2_mixed", 7, 1e-16),
        ("d2_zero_atom", 512, 1e-16),
        ("d3_mixed", 48, 1e-16), ("d3_mixed", 5, 1e-16),
        # without a potential part the lhs is zero, and both sums are the
        # rounding noise of O(1) terms, about 1e-14
        ("d2_solenoidal_atom", 512, 1e-14), ("d3_solenoidal_atom", 16, 1e-14),
    ])
    def test_matches_double_sum(self, name, res, floor, request):
        model = request.getfixturevalue(name)
        rule = sphere_rule(model.d, res)
        for rho in (0.4, 1.0, 1.7, 2.5):
            _, ref = _double_sum(model, rho, rule)
            lhs, _ = squeeze_functional(model, rho, rule)
            assert abs(lhs - ref) <= max(1e-14 * abs(ref), floor), (rho, lhs,
                                                                    ref)

    @pytest.mark.parametrize("res", [64, 1500])  # 1500: nine row chunks
    def test_mc_rule_bitwise(self, res):
        model = make_model(5, 0.1, 0.6, 0.3,
                           m_p=SpectralMeasure(atoms=((1.3, 1.0),)),
                           m_s=SpectralMeasure(atoms=((2.0, 1.0),)))
        rule = sphere_rule(5, res)
        for rho in (0.7, 1.9):
            lhs, _ = squeeze_functional(model, rho, rule)
            assert lhs == _double_sum(model, rho, rule)[0]

    def test_hand_built_rule_bitwise(self, d3_mixed):
        base = sphere_rule(3, 6)
        rule = SphereRule(nodes=base.nodes, weights=base.weights)
        lhs, _ = squeeze_functional(d3_mixed, 1.3, rule)
        assert lhs == _double_sum(d3_mixed, 1.3, rule)[0]

    def test_rule_dimension_must_match(self, d3_mixed, monkeypatch):
        # a d = 2 rule on a d = 3 model used to return a wrong lhs
        monkeypatch.setattr(covariance, "covariance_scalars", None)
        with pytest.raises(ModelError, match="d = 2.*d = 3"):
            squeeze_functional(d3_mixed, 1.0, sphere_rule(2, 64))
