"""Estimation: packing, scores, fitting, information, simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorgof import (
    ConfigurationError,
    DataError,
    DataMatrix,
    IdentificationError,
    ModelSpec,
    OptimOptions,
    ParamSet,
    SpecificationError,
    fit_ml,
    log_likelihood,
    monte_carlo_information,
    score,
    score_rows,
    simulate_data,
)
from factorgof import estimate
from factorgof.estimate import (
    ParamMapping,
    _mean_loglik_and_grad,
    _mean_loglik_hessian,
    expected_information,
    invert_information,
)
from factorgof.model import marginal_logpdf
from factorgof.simstudy import model_spec_study1, model_spec_study2

from conftest import random_admissible_free_vector


class TestDataMatrix:
    def test_rejects_missing(self):
        vals = np.ones((4, 2)) + np.arange(8).reshape(4, 2)
        vals[1, 1] = np.nan
        with pytest.raises(DataError, match="row 1, column 1"):
            DataMatrix(vals)

    def test_rejects_zero_variance_column(self):
        vals = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(DataError, match="zero sample variance"):
            DataMatrix(vals, column_names=["a", "b"])

    def test_short_column_names_checked_before_variance(self):
        vals = np.column_stack([np.arange(5.0), np.arange(5.0) ** 2, np.full(5, 2.0)])
        with pytest.raises(DataError, match="column_names length does not match data"):
            DataMatrix(vals, column_names=["a"])

    def test_single_row_allowed(self):
        with pytest.warns(UserWarning, match="too few rows"):
            dm = DataMatrix(np.array([[1.0, 2.0]]))
        assert dm.n == 1

    def test_warns_when_n_not_above_m(self):
        with pytest.warns(UserWarning, match="too few rows"):
            DataMatrix(np.random.default_rng(0).normal(size=(3, 3)))


class TestPacking:
    @pytest.mark.parametrize("d,m", [(1, 5), (2, 8), (3, 9)])
    def test_round_trip_on_random_vectors(self, d, m, rng):
        pattern = np.zeros((m, d), dtype=int)
        for j in range(m):
            pattern[j, j % d] = 1
        spec = ModelSpec(m=m, d=d, loading_pattern=pattern)
        mapping = ParamMapping(spec)
        for _ in range(20):
            v = random_admissible_free_vector(mapping, rng)
            params = mapping.unpack(v)
            np.testing.assert_allclose(mapping.pack(params), v, atol=1e-12)

    def test_unpack_always_admissible(self, rng):
        spec = ModelSpec(m=9, d=3, loading_pattern=(np.arange(27) % 2).reshape(9, 3) | 1)
        mapping = ParamMapping(spec)
        for scale in (0.1, 1.0, 4.0):
            params = mapping.unpack(rng.normal(0, scale, mapping.q))
            assert (np.linalg.eigvalsh(params.phi) > 0).all()
            assert (params.theta > 0).all()
            np.testing.assert_allclose(np.diag(params.phi), 1.0, atol=1e-12)

    def test_masked_entries_stay_zero(self, two_factor_spec, rng):
        mapping = ParamMapping(two_factor_spec)
        params = mapping.unpack(random_admissible_free_vector(mapping, rng))
        mask = two_factor_spec.loading_pattern == 0
        assert (params.lam[mask] == 0).all()


class TestScore:
    @pytest.mark.parametrize("case", ["one", "two"])
    def test_matches_finite_differences(self, case, rng, one_factor_spec, two_factor_spec):
        spec = one_factor_spec if case == "one" else two_factor_spec
        mapping = ParamMapping(spec)
        for _ in range(10):
            v = random_admissible_free_vector(mapping, rng)
            params = mapping.unpack(v)
            y = rng.normal(size=spec.m)
            analytic = score(params, y, spec)
            fd = np.empty(mapping.q)
            for i in range(mapping.q):
                h = 1e-5
                vp, vm = v.copy(), v.copy()
                vp[i] += h
                vm[i] -= h
                fd[i] = (
                    marginal_logpdf(y[None], mapping.unpack(vp))[0]
                    - marginal_logpdf(y[None], mapping.unpack(vm))[0]
                ) / (2 * h)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_stationary_at_saturating_normal_mle(self, rng):
        spec = ModelSpec(m=4, d=1, loading_pattern=np.ones((4, 1), dtype=int))
        Y = rng.normal(size=(60, 4))
        nu = Y.mean(axis=0)
        theta = Y.var(axis=0)  # divisor n
        params = ParamSet(nu=nu, lam=np.zeros((4, 1)), phi=np.eye(1), theta=theta)
        total = score_rows(params, spec, Y).sum(axis=0)
        mapping = ParamMapping(spec)
        np.testing.assert_allclose(total[mapping.nu_slice], 0.0, atol=1e-9)

    def test_zero_mean_at_generating_parameters(self, one_factor_params, one_factor_spec):
        rng = np.random.default_rng(5)
        draws = simulate_data(one_factor_params, 50_000, rng).values
        scores = score_rows(one_factor_params, one_factor_spec, draws)
        mean = scores.mean(axis=0)
        mc_se = scores.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert (np.abs(mean) < 3 * mc_se + 1e-12).all()


class TestLogLikelihood:
    def test_single_row_equals_marginal(self, one_factor_params):
        y = np.array([0.1, -0.4, 0.9, 0.0, 1.2, -1.1])
        with pytest.warns(UserWarning, match="too few rows"):
            dm = DataMatrix(y[None, :])
        assert log_likelihood(one_factor_params, dm) == pytest.approx(
            marginal_logpdf(y[None, :], one_factor_params)[0], rel=1e-14
        )

    def test_duplication_additivity(self, one_factor_params, rng):
        Y = rng.normal(size=(40, 6))
        once = log_likelihood(one_factor_params, DataMatrix(Y))
        twice = log_likelihood(one_factor_params, DataMatrix(np.vstack([Y, Y])))
        assert twice == pytest.approx(2 * once, rel=1e-12)

    def test_standard_normal_factorization(self, rng):
        Y = rng.normal(size=(30, 5))
        params = ParamSet(nu=np.zeros(5), lam=np.zeros((5, 1)), phi=np.eye(1),
                          theta=np.ones(5))
        expected = -0.5 * Y.size * math.log(2 * math.pi) - 0.5 * (Y**2).sum()
        assert log_likelihood(params, DataMatrix(Y)) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self, one_factor_params, rng):
        with pytest.raises(SpecificationError):
            log_likelihood(one_factor_params, DataMatrix(rng.normal(size=(10, 4))))


class TestFit:
    def test_recovers_generating_loadings(self, one_factor_params, one_factor_spec):
        rng = np.random.default_rng(314)
        data = simulate_data(one_factor_params, 5000, rng)
        fit = fit_ml(data, one_factor_spec)
        assert fit.converged
        assert np.abs(fit.params.lam - one_factor_params.lam).max() < 0.05
        assert np.abs(fit.params.nu - one_factor_params.nu).max() < 0.05

    def test_mle_beats_truth_on_moment_matched_sample(self, one_factor_params, one_factor_spec, rng):
        # build a sample whose mean and covariance exactly match the model
        n, m = 200, 6
        Z = rng.normal(size=(n, m))
        Z -= Z.mean(axis=0)
        S = Z.T @ Z / n
        white = Z @ np.linalg.inv(np.linalg.cholesky(S)).T
        target = one_factor_params.implied_covariance()
        Y = one_factor_params.nu + white @ np.linalg.cholesky(target).T
        data = DataMatrix(Y)
        fit = fit_ml(data, one_factor_spec)
        assert fit.converged
        assert fit.loglik >= log_likelihood(one_factor_params, data) - 1e-6
        # mean structure is saturated: implied mean equals the sample mean
        np.testing.assert_allclose(fit.params.nu, Y.mean(axis=0), atol=1e-6)

    def test_row_permutation_invariance(self, one_factor_params, one_factor_spec):
        rng = np.random.default_rng(9)
        data = simulate_data(one_factor_params, 400, rng)
        fit_a = fit_ml(data, one_factor_spec)
        perm = rng.permutation(400)
        fit_b = fit_ml(DataMatrix(data.values[perm]), one_factor_spec)
        np.testing.assert_allclose(fit_a.free_vector, fit_b.free_vector, atol=1e-6)

    def test_nonconvergence_is_flagged(self, one_factor_params, one_factor_spec):
        rng = np.random.default_rng(11)
        data = simulate_data(one_factor_params, 300, rng)
        fit = fit_ml(data, one_factor_spec, OptimOptions(max_iter=1))
        assert not fit.converged
        assert any("gradient" in w for w in fit.warnings)

    def test_two_factor_fit(self, two_factor_params, two_factor_spec):
        rng = np.random.default_rng(21)
        data = simulate_data(two_factor_params, 3000, rng)
        fit = fit_ml(data, two_factor_spec)
        assert fit.converged
        assert abs(fit.params.phi[0, 1] - 0.2) < 0.08
        assert fit.inv_observed_information.shape == (fit.mapping.q, fit.mapping.q)
        assert (np.linalg.eigvalsh(fit.inv_observed_information) > 0).all()

    @pytest.mark.parametrize("seed", [0, 2, 4, 5])
    def test_rotationally_unidentified_fit_flagged(self, two_factor_params, seed):
        # every loading free on both factors: the likelihood is flat along
        # rotations, so the fit must fail the identification check.  At
        # seeds 0 and 2 the optimizer meets its gradient criterion; at 4 and
        # 5 a trial step overflows an error variance, and the fit must still
        # come back, unconverged, instead of raising
        spec = ModelSpec(m=8, d=2, loading_pattern=np.ones((8, 2), dtype=int))
        data = simulate_data(two_factor_params, 1000, np.random.default_rng(seed))
        fit = fit_ml(data, spec)
        assert not fit.converged
        if seed in (0, 2):
            assert fit.gradient_norm < OptimOptions().gtol
        assert any(w.startswith(("hessian:", "observed information:")) for w in fit.warnings)
        assert fit.inv_observed_information is None

    def test_default_fit_draws_nothing(self, one_factor_params, one_factor_spec, monkeypatch):
        data = simulate_data(one_factor_params, 400, np.random.default_rng(5))

        def refuse(*args, **kwargs):
            raise AssertionError("fit_ml drew model data")

        monkeypatch.setattr(estimate, "simulate_data", refuse)
        fit = fit_ml(data, one_factor_spec)
        assert fit.converged
        assert fit.inv_observed_information is not None


class TestOptimOptions:
    def test_info_draws_zero_accepted(self):
        # older callers pass info_draws=0; it is accepted and not stored
        opts = OptimOptions(info_draws=0, max_iter=500)
        assert opts == OptimOptions()
        assert "info_draws" not in vars(opts)

    def test_info_draws_nonzero_rejected(self):
        with pytest.raises(ConfigurationError, match="info_draws=1000"):
            OptimOptions(info_draws=1000)


class TestInformation:
    def test_nu_block_identity_at_zero_loadings(self):
        spec = ModelSpec(m=4, d=1, loading_pattern=np.ones((4, 1), dtype=int))
        params = ParamSet(nu=np.zeros(4), lam=np.zeros((4, 1)), phi=np.eye(1),
                          theta=np.ones(4))
        draws = simulate_data(params, 50_000, np.random.default_rng(3)).values
        info = monte_carlo_information(params, spec, draws)
        mapping = ParamMapping(spec)
        nu_block = info[mapping.nu_slice, mapping.nu_slice]
        assert np.abs(nu_block - np.eye(4)).max() < 0.05
        np.testing.assert_allclose(info, info.T, atol=0)

    def test_zero_loadings_not_identified(self):
        spec = ModelSpec(m=4, d=1, loading_pattern=np.ones((4, 1), dtype=int))
        params = ParamSet(nu=np.zeros(4), lam=np.zeros((4, 1)), phi=np.eye(1),
                          theta=np.ones(4))
        draws = simulate_data(params, 2000, np.random.default_rng(0)).values
        with pytest.raises(IdentificationError):
            invert_information(monte_carlo_information(params, spec, draws))
        with pytest.raises(IdentificationError):
            invert_information(expected_information(params, spec))

    def test_doubling_draws_approaches_reference(self, one_factor_params, one_factor_spec):
        # the exact information is minus the mean log-likelihood's Hessian
        # at the generating parameters with ybar = nu and S = Sigma
        ref = expected_information(one_factor_params, one_factor_spec)
        stream = simulate_data(one_factor_params, 8000, np.random.default_rng(17)).values
        err_small = np.linalg.norm(
            monte_carlo_information(one_factor_params, one_factor_spec, stream[:4000]) - ref
        )
        err_big = np.linalg.norm(
            monte_carlo_information(one_factor_params, one_factor_spec, stream) - ref
        )
        assert err_big < err_small


class TestSimulate:
    def test_moments(self, one_factor_params):
        rng = np.random.default_rng(100)
        data = simulate_data(one_factor_params, 100_000, rng)
        sigma = one_factor_params.implied_covariance()
        tol = 4 * np.sqrt(np.diag(sigma) / 100_000)
        assert (np.abs(data.values.mean(axis=0) - one_factor_params.nu) < tol).all()
        emp = np.cov(data.values.T, ddof=1)
        assert np.abs(emp - sigma).max() < 0.03

    def test_independent_columns_at_zero_loadings(self):
        params = ParamSet(nu=np.zeros(5), lam=np.zeros((5, 1)), phi=np.eye(1),
                          theta=np.ones(5))
        n = 50_000
        data = simulate_data(params, n, np.random.default_rng(8))
        corr = np.corrcoef(data.values.T)
        off = corr[~np.eye(5, dtype=bool)]
        assert np.abs(off).max() < 4 / math.sqrt(n)


def test_mean_gradient_consistent_with_row_scores(two_factor_spec, rng):
    mapping = ParamMapping(two_factor_spec)
    v = random_admissible_free_vector(mapping, rng)
    Y = rng.normal(size=(37, two_factor_spec.m))
    ybar = Y.mean(axis=0)
    resid = Y - ybar
    S = resid.T @ resid / len(Y)
    f, g = _mean_loglik_and_grad(v, mapping, ybar, S)
    params = mapping.unpack(v)
    np.testing.assert_allclose(g, score_rows(params, mapping, Y).mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(f, marginal_logpdf(Y, params).mean(), rtol=1e-12)


def _fd_hessian(v, mapping, ybar, S, step=1e-5):
    """Central differences of the analytic mean gradient."""
    q = v.shape[0]
    H = np.empty((q, q))
    for i in range(q):
        h = step * (1.0 + abs(v[i]))
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        H[i] = (_mean_loglik_and_grad(vp, mapping, ybar, S)[1]
                - _mean_loglik_and_grad(vm, mapping, ybar, S)[1]) / (2.0 * h)
    return 0.5 * (H + H.T)


def _sufficient_statistics(Y):
    ybar = Y.mean(axis=0)
    resid = Y - ybar
    return ybar, resid.T @ resid / len(Y)


def _hessian_case_spec(case):
    if case == "study1":
        return model_spec_study1()
    if case == "study2":
        return model_spec_study2()
    d, mean_structure = {"d1": (1, True), "d2": (2, True), "d3": (3, True),
                         "d3-no-mean": (3, False)}[case]
    m = 3 * d + 1
    pattern = np.zeros((m, d), dtype=int)
    pattern[np.arange(m), np.arange(m) % d] = 1
    pattern[-1] = 1  # one item on every factor
    return ModelSpec(m=m, d=d, loading_pattern=pattern, mean_structure=mean_structure)


@pytest.mark.parametrize("case", ["d1", "d2", "d3", "d3-no-mean", "study1", "study2"])
def test_hessian_matches_finite_differences(case, rng):
    spec = _hessian_case_spec(case)
    mapping = ParamMapping(spec)
    if spec.d == 3:
        assert mapping.w_slice.stop - mapping.w_slice.start == 3
    for _ in range(3):
        # random points away from the optimum: nu differs from the sample mean
        v = random_admissible_free_vector(mapping, rng)
        ybar, S = _sufficient_statistics(rng.normal(0.3, 1.2, size=(60, spec.m)))
        H = _mean_loglik_hessian(v, mapping, ybar, S)
        fd = _fd_hessian(v, mapping, ybar, S)
        assert np.abs(H - fd).max() <= 1e-7 * np.abs(fd).max()
        np.testing.assert_array_equal(H, H.T)


def test_hessian_at_fit_matches_finite_differences(two_factor_params, two_factor_spec):
    data = simulate_data(two_factor_params, 2000, np.random.default_rng(4))
    fit = fit_ml(data, two_factor_spec)
    assert fit.converged
    ybar, S = _sufficient_statistics(data.values)
    H = _mean_loglik_hessian(fit.free_vector, fit.mapping, ybar, S)
    fd = _fd_hessian(fit.free_vector, fit.mapping, ybar, S)
    assert np.abs(H - fd).max() <= 1e-8 * np.abs(fd).max()
    np.testing.assert_allclose(invert_information(-H), fit.inv_observed_information,
                               rtol=0, atol=1e-12 * np.abs(fit.inv_observed_information).max())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2]), factor=st.integers(0, 1))
def test_factor_sign_flip_conjugates_hessian(seed, d, factor):
    # negating one factor (its loadings, and phi's off-diagonal when d = 2)
    # leaves Sigma unchanged, so f(Dv) = f(v) and H(Dv) = D H(v) D
    factor %= d
    spec = _hessian_case_spec(f"d{d}")
    mapping = ParamMapping(spec)
    rng = np.random.default_rng(seed)
    v = random_admissible_free_vector(mapping, rng)
    ybar, S = _sufficient_statistics(rng.normal(0.3, 1.2, size=(40, spec.m)))
    sign = np.ones(mapping.q)
    sign[mapping.lam_slice] = np.where(mapping.lam_cols == factor, -1.0, 1.0)
    sign[mapping.w_slice] = -1.0
    f, g = _mean_loglik_and_grad(v, mapping, ybar, S)
    f_flip, g_flip = _mean_loglik_and_grad(sign * v, mapping, ybar, S)
    assert f_flip == pytest.approx(f, rel=1e-12)
    np.testing.assert_allclose(g_flip, sign * g, rtol=0, atol=1e-10 * np.abs(g).max())
    H = _mean_loglik_hessian(v, mapping, ybar, S)
    H_flip = _mean_loglik_hessian(sign * v, mapping, ybar, S)
    np.testing.assert_allclose(H_flip, sign[:, None] * H * sign[None, :],
                               rtol=0, atol=1e-10 * np.abs(H).max())
