"""Density oracles: closed forms, quadrature, Bayes identity, invariances."""

import math

import numpy as np
import pytest

from factorgof import (
    DegenerateCovarianceError,
    ModelSpec,
    ParamSet,
    SpecificationError,
    conditional_mean,
    conditional_mv_density,
    conditional_variance,
    lv_density,
    marginal_density,
    posterior_lv_density,
)
from factorgof.model import lv_logpdf, marginal_logpdf, posterior_log_weights

SQ5 = math.sqrt(0.5)


def single_mv_params():
    return ParamSet(nu=[0.0], lam=[[SQ5]], phi=[[1.0]], theta=[0.5])


class TestModelSpec:
    def test_rejects_row_without_free_loading(self):
        pattern = np.ones((4, 1), dtype=int)
        pattern[2, 0] = 0
        with pytest.raises(SpecificationError):
            ModelSpec(m=4, d=1, loading_pattern=pattern)

    def test_rejects_bad_dims(self):
        with pytest.raises(SpecificationError):
            ModelSpec(m=0, d=1, loading_pattern=np.ones((0, 1)))

    def test_identification_heuristic_warns(self):
        with pytest.warns(UserWarning, match="identified"):
            ModelSpec(m=2, d=1, loading_pattern=np.ones((2, 1), dtype=int))


class TestParamSet:
    def test_rejects_nonpd_phi(self):
        phi = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(DegenerateCovarianceError):
            ParamSet(nu=np.zeros(6), lam=np.ones((6, 2)) * 0.5, phi=phi, theta=np.ones(6))

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(SpecificationError):
            ParamSet(nu=np.zeros(3), lam=np.ones((3, 1)) * 0.5, phi=np.eye(1),
                     theta=np.array([0.5, 0.0, 0.5]))

    def test_rejects_nonunit_diagonal(self):
        with pytest.raises(SpecificationError):
            ParamSet(nu=np.zeros(3), lam=np.ones((3, 1)) * 0.5,
                     phi=np.array([[1.2]]), theta=np.ones(3))


class TestLvDensity:
    def test_standard_normal_mode(self):
        p = ParamSet(nu=np.zeros(3), lam=np.full((3, 1), 0.5), phi=np.eye(1), theta=np.ones(3))
        assert math.exp(lv_density(np.array([0.0]), p)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-10
        )

    def test_bivariate_standard_mode(self, two_factor_params):
        p = ParamSet(nu=two_factor_params.nu, lam=two_factor_params.lam,
                     phi=np.eye(2), theta=two_factor_params.theta)
        assert math.exp(lv_density(np.zeros(2), p)) == pytest.approx(
            1.0 / (2 * math.pi), abs=1e-10
        )

    def test_correlated_against_explicit_inverse(self, two_factor_params):
        # oracle: direct quadratic form with the explicit 2x2 inverse
        x = np.array([1.0, -1.0])
        phi = two_factor_params.phi
        det = phi[0, 0] * phi[1, 1] - phi[0, 1] ** 2
        inv = np.array([[phi[1, 1], -phi[0, 1]], [-phi[1, 0], phi[0, 0]]]) / det
        ref = -math.log(2 * math.pi) - 0.5 * math.log(det) - 0.5 * x @ inv @ x
        assert lv_density(x, two_factor_params) == pytest.approx(ref, abs=1e-12)

    def test_unit_normalization_by_quadrature(self, one_factor_params):
        quad = pytest.importorskip("scipy.integrate").quad
        total, _ = quad(
            lambda x: math.exp(lv_density(np.array([x]), one_factor_params)), -10, 10
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestConditionalDensity:
    def test_mode_value(self):
        p = single_mv_params()
        assert math.exp(conditional_mv_density(0, 0.0, [0.0], p)) == pytest.approx(
            0.5641895835, abs=1e-7
        )

    def test_quadratic_decay(self):
        p = single_mv_params()
        at_mode = conditional_mv_density(0, 0.0, [0.0], p)
        assert conditional_mv_density(0, 1.0, [0.0], p) == pytest.approx(at_mode - 1.0, abs=1e-12)

    def test_symmetry_about_conditional_mean(self):
        p = ParamSet(nu=[0.3], lam=[[SQ5]], phi=[[1.0]], theta=[0.5])
        center = 0.3 + SQ5
        for delta in (0.1, 0.7, 2.3):
            lo = conditional_mv_density(0, center - delta, [1.0], p)
            hi = conditional_mv_density(0, center + delta, [1.0], p)
            assert lo == pytest.approx(hi, abs=1e-12)

    def test_index_out_of_range(self, one_factor_params):
        with pytest.raises(IndexError):
            conditional_mv_density(6, 0.0, [0.0], one_factor_params)


class TestMarginalDensity:
    def test_zero_loadings_decouple(self, rng):
        theta = np.array([1.0, 2.0, 0.5])
        p = ParamSet(nu=np.zeros(3), lam=np.zeros((3, 1)), phi=np.eye(1), theta=theta)
        y = rng.normal(size=3)
        ref = sum(
            -0.5 * (math.log(2 * math.pi * theta[j]) + y[j] ** 2 / theta[j]) for j in range(3)
        )
        assert marginal_density(y, p) == pytest.approx(ref, abs=1e-12)

    def test_two_variable_closed_form(self):
        p = ParamSet(nu=np.zeros(2), lam=np.full((2, 1), SQ5), phi=np.eye(1),
                     theta=np.full(2, 0.5))
        # oracle: direct bivariate formula with covariance [[1, .5], [.5, 1]]
        det = 1.0 - 0.25
        ref = -math.log(2 * math.pi) - 0.5 * math.log(det)
        assert marginal_density(np.zeros(2), p) == pytest.approx(ref, abs=1e-12)

    def test_quadrature_oracle_random_draws(self, one_factor_params, rng):
        quad = pytest.importorskip("scipy.integrate").quad
        p = one_factor_params

        def integrand(x, y):
            cond = sum(conditional_mv_density(j, y[j], [x], p) for j in range(p.m))
            return math.exp(cond + lv_density(np.array([x]), p))

        for _ in range(20):
            y = rng.normal(size=p.m) * 1.3
            val, _ = quad(lambda x: integrand(x, y), -9, 9, epsabs=1e-13, epsrel=1e-12)
            assert marginal_density(y, p) == pytest.approx(math.log(val), abs=1e-8)

    def test_translation_consistency(self, one_factor_params, rng):
        p = one_factor_params
        shift = rng.normal(size=p.m)
        shifted = ParamSet(nu=p.nu + shift, lam=p.lam, phi=p.phi, theta=p.theta)
        y = rng.normal(size=p.m)
        assert marginal_density(y + shift, shifted) == pytest.approx(
            marginal_density(y, p), abs=1e-10
        )


class TestPosterior:
    def test_zero_loadings_collapse_to_prior(self, rng):
        p = ParamSet(nu=np.zeros(4), lam=np.zeros((4, 1)), phi=np.eye(1),
                     theta=np.array([1.0, 0.5, 2.0, 1.5]))
        for _ in range(5):
            x, y = rng.normal(size=1), rng.normal(size=4)
            assert posterior_lv_density(x, y, p) == pytest.approx(
                lv_density(x, p), abs=1e-12
            )

    @pytest.mark.parametrize("y", [0.0, 0.9])
    def test_conjugate_normal_oracle(self, y):
        p = single_mv_params()
        # oracle: conjugate posterior N(0.5 * y * sqrt(2), 0.5)
        mean, var = 0.5 * y * math.sqrt(2.0), 0.5
        ref = -0.5 * (math.log(2 * math.pi * var) + (0.0 - mean) ** 2 / var)
        got = posterior_lv_density(np.array([0.0]), np.array([y]), p)
        assert math.exp(got) == pytest.approx(math.exp(ref), abs=1e-10)

    def test_normalizes_by_quadrature(self, one_factor_params, rng):
        quad = pytest.importorskip("scipy.integrate").quad
        y = rng.normal(size=one_factor_params.m)
        total, _ = quad(
            lambda x: math.exp(posterior_lv_density(np.array([x]), y, one_factor_params)),
            -10, 10,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_bayes_identity(self, two_factor_params, rng):
        p = two_factor_params
        for _ in range(5):
            x, y = rng.normal(size=2), rng.normal(size=p.m)
            lhs = posterior_lv_density(x, y, p) + marginal_density(y, p)
            rhs = lv_density(x, p) + sum(
                conditional_mv_density(j, y[j], x, p) for j in range(p.m)
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestConditionalMoments:
    def test_mean_at_origin(self):
        assert conditional_mean(0, [0.0], single_mv_params()) == 0.0

    def test_mean_scales_with_x(self):
        assert conditional_mean(0, [2.0], single_mv_params()) == pytest.approx(
            2 * SQ5, abs=1e-12
        )

    def test_zero_loading_ignores_second_dimension(self):
        lam = np.zeros((6, 2))
        lam[:, 0] = math.sqrt(0.3)
        p = ParamSet(nu=np.zeros(6), lam=lam, phi=np.eye(2), theta=np.full(6, 0.7))
        assert conditional_mean(0, [1.0, 5.0], p) == pytest.approx(math.sqrt(0.3), abs=1e-12)

    def test_variance_constant_in_x(self, one_factor_params):
        v1 = conditional_variance(2, [-2.0], one_factor_params)
        v2 = conditional_variance(2, [3.5], one_factor_params)
        assert v1 == v2 == one_factor_params.theta[2]

    def test_variance_from_unit_communality_rule(self):
        from factorgof import study2_paramset

        p = study2_paramset()
        # item with communality 0.7 has residual variance 0.3
        assert conditional_variance(2, [0.0], p) == pytest.approx(0.3, abs=1e-12)

    def test_index_errors(self, one_factor_params):
        with pytest.raises(IndexError):
            conditional_mean(-1, [0.0], one_factor_params)
        with pytest.raises(IndexError):
            conditional_variance(99, [0.0], one_factor_params)


def test_vectorized_matches_scalar(two_factor_params, rng):
    p = two_factor_params
    Y = rng.normal(size=(7, p.m))
    pts = rng.normal(size=(5, 2))
    np.testing.assert_allclose(
        marginal_logpdf(Y, p),
        [marginal_density(y, p) for y in Y],
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        lv_logpdf(pts, p),
        [lv_density(x, p) for x in pts],
        rtol=1e-12,
    )
    _assert_posterior_matches_bayes_rule(Y, pts, p)


def test_vectorized_posterior_matches_scalar_one_factor(one_factor_params, rng):
    p = one_factor_params
    Y = rng.normal(size=(7, p.m))
    pts = rng.normal(size=(5, 1))
    _assert_posterior_matches_bayes_rule(Y, pts, p)


def _assert_posterior_matches_bayes_rule(Y, pts, p):
    """Closed-form normal posterior against prior x likelihood / marginal."""
    np.testing.assert_allclose(
        posterior_log_weights(Y, pts, p),
        [[posterior_lv_density(x, y, p) for x in pts] for y in Y],
        rtol=1e-12,
    )


@pytest.mark.parametrize("d", [1, 2])
def test_posterior_log_weights_match_per_term_formula(d, one_factor_params,
                                                      two_factor_params, rng):
    # the one product [B | row term | 1] [X'; 1; column term] against the
    # rank-d product plus the row and column terms added one at a time, on
    # grids out to +-12, where the terms reach a few thousand
    p = one_factor_params if d == 1 else two_factor_params
    Y = p.nu + rng.normal(size=(300, p.m)) @ p.sigma_cholesky().T
    axis = np.linspace(-12.0, 12.0, 25)
    pts = np.stack([g.ravel() for g in np.meshgrid(*[axis] * d, indexing="ij")], axis=1)
    lam_w = p.lam / p.theta[:, None]
    prec = np.linalg.inv(p.phi) + p.lam.T @ lam_w
    B = (Y - p.nu) @ lam_w
    const = 0.5 * (np.linalg.slogdet(prec)[1] - d * np.log(2.0 * np.pi))
    want = B @ pts.T
    want -= 0.5 * np.einsum("ij,ij->i", B @ np.linalg.inv(prec), B)[:, None]
    want += const - 0.5 * np.einsum("qj,qj->q", pts @ prec, pts)
    got = posterior_log_weights(Y, pts, p)
    assert np.abs(want).max() > 100.0
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
