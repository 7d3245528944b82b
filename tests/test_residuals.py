"""Residual engine: weight-matrix algebra, statistics, ACM assembly,
and the end-to-end orchestration contract."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss
from scipy.stats import chi2 as chi2_dist

from factorgof import (
    ConfigurationError,
    DataMatrix,
    McConfig,
    ModelSpec,
    NotConvergedError,
    OptimOptions,
    ParamSet,
    RankError,
    RatioBattery,
    SummaryBattery,
    assemble_acm,
    chi2_statistic,
    default_grid,
    eta_hat,
    fit_ml,
    lv_density_problem,
    make_grid,
    mv_homoscedasticity_problem,
    mv_linearity_direct_problem,
    mv_linearity_problem,
    run_residual_test,
    simulate_data,
    truncated_inverse,
    z_statistic,
)
from factorgof import batteries, kernels, residuals
from factorgof.estimate import (
    ParamMapping,
    invert_information,
    monte_carlo_information,
    score_rows,
)
from factorgof.model import lv_logpdf, posterior_log_weights
from factorgof.residuals import ResidualProblem, _ratio_draws, run_residual_batch


def random_psd(rng, k, rank=None):
    rank = rank or k
    A = rng.normal(size=(k, rank))
    return A @ A.T


class TestTruncatedInverse:
    def test_identity_keeps_s_unit_eigenvalues(self):
        W = truncated_inverse(np.eye(4), s=2)
        vals = np.sort(np.linalg.eigvalsh(W))[::-1]
        np.testing.assert_allclose(vals, [1, 1, 0, 0], atol=1e-12)

    def test_diagonal_keeps_largest(self):
        W = truncated_inverse(np.diag([4.0, 1.0]), s=1)
        np.testing.assert_allclose(W, np.diag([0.25, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("k,rank", [(4, 4), (5, 3), (7, 7)])
    def test_weight_matrix_identities(self, k, rank, rng):
        sigma = random_psd(rng, k, rank)
        tol = 1e-10 * np.linalg.eigvalsh(sigma).max()
        n_pos = int((np.linalg.eigvalsh(sigma) > tol).sum())
        for s in range(1, n_pos + 1):
            W = truncated_inverse(sigma, s)
            np.testing.assert_allclose(W @ sigma @ W, W, atol=1e-8)
            assert np.trace(W @ sigma) == pytest.approx(s, abs=1e-8)
            lhs = sigma @ W @ sigma @ W @ sigma
            rhs = sigma @ W @ sigma
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_full_rank_s_equals_pseudoinverse(self, rng):
        sigma = random_psd(rng, 5)
        W = truncated_inverse(sigma, s=5)
        assert np.abs(W - np.linalg.pinv(sigma)).max() < 1e-8

    def test_rank_error(self, rng):
        sigma = random_psd(rng, 5, rank=2)
        with pytest.raises(RankError):
            truncated_inverse(sigma, s=3)
        with pytest.raises(RankError):
            truncated_inverse(np.eye(3), s=0)


class TestZStatistic:
    def test_zero_residual(self):
        z, p = z_statistic(0.0, se=1.0, n=100)
        assert z == 0.0 and p == 1.0

    def test_unit_z(self):
        z, p = z_statistic(0.2, se=0.2 * np.sqrt(50), n=50)
        assert z == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(0.31731, abs=1e-5)

    def test_five_percent_threshold(self):
        _, p_hi = z_statistic(2.0, se=np.sqrt(100), n=100)
        _, p_lo = z_statistic(1.9, se=np.sqrt(100), n=100)
        assert p_hi < 0.05 < p_lo

    def test_rejects_bad_se(self):
        with pytest.raises(ValueError):
            z_statistic(1.0, se=0.0, n=10)
        with pytest.raises(ValueError):
            z_statistic(np.ones(3), se=np.array([1.0, 0.0, 2.0]), n=10)

    def test_arrays_match_scalars_bit_for_bit(self, rng):
        resid = rng.normal(size=6)
        se = rng.uniform(0.5, 2.0, size=6)
        z, p = z_statistic(resid, se, n=77)
        pairs = [z_statistic(r, s_, n=77) for r, s_ in zip(resid, se)]
        assert z.tobytes() == np.array([zp[0] for zp in pairs]).tobytes()
        assert p.tobytes() == np.array([zp[1] for zp in pairs]).tobytes()


class TestChi2Statistic:
    def test_zero_vector(self, rng):
        sigma = random_psd(rng, 4)
        T, p = chi2_statistic(np.zeros(4), sigma, n=200, s=1)
        assert T == 0.0 and p == 1.0

    def test_threshold_equivalence_s1(self, rng):
        # with s=1 the 5% critical value is 3.84; the leading eigenvector
        # here is the first axis, so T = n e_1^2 / 2
        sigma = np.diag([2.0, 1.0, 0.5])
        e_hi = np.array([np.sqrt(2 * 3.85 / 300), 0, 0])
        e_lo = np.array([np.sqrt(2 * 3.83 / 300), 0, 0])
        T_hi, p_hi = chi2_statistic(e_hi, sigma, n=300, s=1)
        T_lo, p_lo = chi2_statistic(e_lo, sigma, n=300, s=1)
        assert p_hi < 0.05 < p_lo
        assert T_hi == pytest.approx(3.85, rel=1e-10)

    def test_matches_chi2_sf(self, rng):
        sigma = random_psd(rng, 6)
        e = rng.normal(size=6) * 0.01
        for s in (1, 2, 4):
            T, p = chi2_statistic(e, sigma, n=500, s=s)
            assert p == pytest.approx(chi2_dist.sf(T, s), rel=1e-12)
            assert T >= 0

    def test_rank_error_propagates(self, rng):
        sigma = random_psd(rng, 4, rank=1)
        with pytest.raises(RankError):
            chi2_statistic(rng.normal(size=4), sigma, n=100, s=3)


def _ratio_jacobian(g):
    """Jacobian of the ratio map g -> g[:Q] / g[Q:] of a 2Q-vector."""
    Q = len(g) // 2
    idx = np.arange(Q)
    J = np.zeros((Q, 2 * Q))
    J[idx, idx] = 1.0 / g[Q:]
    J[idx, Q + idx] = -g[:Q] / g[Q:] ** 2
    return J


class TestTransformations:
    """The ratio map (N, D) -> N / D behind ratio batteries, as the engine
    applies it to each row: ``_ratio_draws`` is the delta-method projection
    of the row's [f W, W] at the model means [D r, D]."""

    def test_ratio_values_and_structure(self):
        # Q = 2: each output column combines only its own numerator and
        # denominator column, W_q (f - r_q) / D_q
        f = np.array([[1.0], [3.0]])
        W = np.array([[0.5, 2.0], [1.0, 4.0]])
        r = np.array([2.0, 1.0])
        D = np.array([4.0, 0.5])
        G = _ratio_draws(f, W, r, D)
        np.testing.assert_allclose(G, [[0.5 * -1 / 4, 2.0 * 0 / 0.5],
                                       [1.0 * 1 / 4, 4.0 * 2 / 0.5]], rtol=1e-15)

    @pytest.mark.parametrize("Q", [1, 3, 8])
    def test_ratio_jacobian_matches_finite_differences(self, Q, rng):
        f = rng.normal(size=(6, Q))
        W = rng.uniform(0.1, 2.0, size=(6, Q))
        r = rng.normal(size=Q)
        D = rng.uniform(0.5, 2.0, Q)
        g = np.concatenate([D * r, D])
        fd = np.empty((Q, 2 * Q))
        for i in range(2 * Q):
            h = 1e-6 * max(1.0, abs(g[i]))
            gp, gm = g.copy(), g.copy()
            gp[i] += h
            gm[i] -= h
            fd[:, i] = (gp[:Q] / gp[Q:] - gm[:Q] / gm[Q:]) / (2 * h)
        np.testing.assert_allclose(_ratio_jacobian(g), fd, rtol=1e-6, atol=1e-9)
        H = np.hstack([f * W, W])
        np.testing.assert_allclose(_ratio_draws(f, W, r, D), H @ fd.T, rtol=1e-6, atol=1e-9)


class TestBatteryBasics:
    def test_rejects_empty_battery(self):
        with pytest.raises(ConfigurationError):
            SummaryBattery(k=0, name="empty", _evaluate=lambda Y, p: Y)

    def test_eta_hat_constant_battery(self, one_factor_params, rng):
        battery = SummaryBattery(
            k=1, name="const", _evaluate=lambda Y, p: np.ones((len(Y), 1))
        )
        data = DataMatrix(rng.normal(size=(25, 6)))
        assert eta_hat(battery, data, one_factor_params)[0] == 1.0

    def test_eta_hat_single_row(self, one_factor_params, rng):
        battery = SummaryBattery(
            k=2, name="pair", _evaluate=lambda Y, p: np.column_stack([Y[:, 0], Y[:, 1] ** 2])
        )
        with pytest.warns(UserWarning):
            data = DataMatrix(rng.normal(size=(1, 6)))
        got = eta_hat(battery, data, one_factor_params)
        np.testing.assert_allclose(
            got, [data.values[0, 0], data.values[0, 1] ** 2], rtol=1e-14
        )

    def test_ratio_battery_needs_closed_form_eta_and_one_column_per_point(self):
        grid = make_grid([(-2, 2, 5)])
        with pytest.raises(ConfigurationError, match="needs a closed-form eta"):
            RatioBattery(k=5, name="ratio", _evaluate=lambda Y, p: Y[:, :1], grid=grid)
        with pytest.raises(ConfigurationError, match="has k=4 for 5 grid points"):
            RatioBattery(k=4, name="ratio", _evaluate=lambda Y, p: Y[:, :1],
                         _eta=lambda p: np.zeros(4), grid=grid)

    def test_closed_form_moments_need_closed_form_eta(self):
        with pytest.raises(ConfigurationError, match="closed-form moments but no"):
            SummaryBattery(k=1, name="moments", _evaluate=lambda Y, p: Y[:, :1],
                           _moments=lambda p, mapping, cols: None)

    def test_plain_battery_takes_no_weights(self, one_factor_params, rng):
        battery = SummaryBattery(k=1, name="first", _evaluate=lambda Y, p: Y[:, :1])
        Y = rng.normal(size=(4, 6))
        with pytest.raises(ConfigurationError, match="takes no posterior weights"):
            battery.evaluate(Y, one_factor_params, np.ones((4, 3)))

    def test_eta_hat_unbiased_at_generating_parameters(self, one_factor_params):
        # sample average of posterior densities estimates the latent density
        grid = make_grid([(-2, 2, 5)])
        problem = lv_density_problem(grid)
        data = simulate_data(one_factor_params, 150_000, np.random.default_rng(31))
        got = eta_hat(problem.battery, data, one_factor_params)
        H = problem.battery.evaluate(data.values, one_factor_params)
        mc_se = H.std(axis=0, ddof=1) / np.sqrt(data.n)
        target = problem.battery.eta_closed(one_factor_params)
        assert (np.abs(got - target) < 4 * mc_se).all()

    def test_eta_mc_fallback_matches_closed_form(self, fitted_setup):
        # a battery without a closed form gets eta from the shared draws
        spec, params, data, fit = fitted_setup
        grid = make_grid([(-2, 2, 5)])
        density = lv_density_problem(grid).battery
        battery = SummaryBattery(k=5, name="no-closed-form", _evaluate=density.evaluate)
        problem = ResidualProblem(battery, grid)
        mc = McConfig(M=50_000, seed=12)
        report = run_residual_test(problem, fit, data, mc)
        draws = simulate_data(fit.params, mc.M, np.random.default_rng(mc.seed)).values
        mc_se = density.evaluate(draws, fit.params).std(axis=0, ddof=1) / np.sqrt(mc.M)
        closed = density.eta_closed(fit.params)
        got = np.array([pt.eta for pt in report.points])
        assert (np.abs(got - closed) < 4 * mc_se).all()


@pytest.fixture(scope="module")
def zero_loading_setup():
    spec = ModelSpec(m=4, d=1, loading_pattern=np.ones((4, 1), dtype=int))
    params = ParamSet(nu=np.zeros(4), lam=np.zeros((4, 1)), phi=np.eye(1),
                      theta=np.ones(4))
    draws = simulate_data(params, 20_000, np.random.default_rng(77)).values
    return spec, params, draws


def _mc_moments(battery, params, spec, draws):
    """A = mean of H s' and sigma_H = Cov(H) over the draws, by the
    reductions the engine applies to an identity-projected battery."""
    H = np.ascontiguousarray(battery.evaluate(draws, params))
    A = kernels.crossprod_mean(H, np.ascontiguousarray(score_rows(params, spec, draws)))
    _, cross = kernels.centred_sums(H, kernels.colmean(H), np.arange(battery.k))
    return A, cross / (len(draws) - 1)


class TestMcMoments:
    def test_estimate_A_zero_for_constant_battery(self, zero_loading_setup):
        spec, params, draws = zero_loading_setup
        battery = SummaryBattery(k=1, name="const",
                                 _evaluate=lambda Y, p: np.ones((len(Y), 1)))
        A, _ = _mc_moments(battery, params, spec, draws)
        scores = score_rows(params, spec, draws)
        mc_se = scores.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert (np.abs(A[0]) < 4 * mc_se + 1e-12).all()

    def test_estimate_A_score_battery_recovers_information(self, zero_loading_setup):
        spec, params, draws = zero_loading_setup
        mapping = ParamMapping(spec)
        battery = SummaryBattery(
            k=4, name="nu-scores",
            _evaluate=lambda Y, p: score_rows(p, spec, Y)[:, mapping.nu_slice],
        )
        A, _ = _mc_moments(battery, params, spec, draws)
        # intercept block of the information is the identity here
        assert np.abs(A[:, mapping.nu_slice] - np.eye(4)).max() < 0.05

    def test_sigma_H_constant_battery_is_zero(self, zero_loading_setup):
        spec, params, draws = zero_loading_setup
        battery = SummaryBattery(k=2, name="const2",
                                 _evaluate=lambda Y, p: np.ones((len(Y), 2)))
        _, sigma_H = _mc_moments(battery, params, spec, draws)
        np.testing.assert_allclose(sigma_H, 0.0, atol=1e-20)

    def test_sigma_H_unit_variance(self, zero_loading_setup):
        spec, params, draws = zero_loading_setup
        battery = SummaryBattery(k=1, name="y1", _evaluate=lambda Y, p: Y[:, :1])
        got = _mc_moments(battery, params, spec, draws)[1][0, 0]
        assert abs(got - 1.0) < 4 / np.sqrt(len(draws)) * np.sqrt(2)

    def test_symmetry_exact(self, zero_loading_setup, rng):
        spec, params, draws = zero_loading_setup
        battery = SummaryBattery(k=3, name="mix",
                                 _evaluate=lambda Y, p: Y[:, :3] ** 2)
        _, S = _mc_moments(battery, params, spec, draws)
        assert np.array_equal(S, S.T)


class TestAssembleAcm:
    def test_zero_A_reduces_to_projected_sigma_H(self, rng):
        sigma_H = random_psd(rng, 4)
        J = rng.normal(size=(2, 4))
        acm = assemble_acm(J, np.zeros((4, 3)), np.eye(3), sigma_H)
        np.testing.assert_allclose(acm.sigma_phi_hat, J @ sigma_H @ J.T, atol=1e-12)

    def test_scalar_case(self):
        acm = assemble_acm(np.eye(1), np.array([[2.0]]), np.array([[0.5]]),
                           np.array([[3.0]]))
        assert acm.sigma_phi_hat[0, 0] == pytest.approx(3.0 - 2.0 * 0.5 * 2.0)

    def test_flags_tiny_diagonal(self):
        sigma_H = np.diag([1.0, 0.0])
        acm = assemble_acm(np.eye(2), np.zeros((2, 1)), np.eye(1), sigma_H)
        assert acm.unstable.tolist() == [False, True]

    def test_shape_mismatch(self, rng):
        with pytest.raises(ConfigurationError):
            assemble_acm(np.eye(3), np.zeros((4, 2)), np.eye(2), np.eye(4))

    def test_symmetrized(self, rng):
        sigma_H = random_psd(rng, 3)
        A = rng.normal(size=(3, 2))
        inv_info = random_psd(rng, 2) + np.eye(2)
        J = rng.normal(size=(3, 3))
        acm = assemble_acm(J, A, inv_info, sigma_H)
        assert np.array_equal(acm.sigma_phi_hat, acm.sigma_phi_hat.T)
        assert acm.sym_delta < 1e-12


def _engine_cases():
    """One problem per battery path on the draws: mean batteries
    (linearity-direct and a custom battery) and ratio batteries (linearity,
    and variance, whose f differs per grid point).  The custom battery has no
    closed-form expectation, and its last column is constant, so it is
    unstable and drops out of the summary subgrid.  The lv-density battery's
    exact path is checked in ``TestExactLvDensity``."""
    grid = make_grid([(-3, 3, 7)], [(-2, 2, 5)])
    mix = np.array([[1.0, 0.5, -0.3, 0.2],
                    [0.2, 1.0, 0.4, -0.1],
                    [-0.4, 0.3, 1.0, 0.6],
                    [0.0, 0.0, 0.0, 1.0]])
    battery = SummaryBattery(
        k=4, name="dense-custom",
        _evaluate=lambda Y, p: np.column_stack(
            [Y[:, 0] ** 3, np.abs(Y[:, 1]), Y[:, 0] * Y[:, 2] * Y[:, 3],
             np.full(len(Y), 2.0)]) @ mix.T,
    )
    custom_grid = make_grid([(-1.5, 1.5, 4)], [(-1.5, 1.5, 4)])
    return {
        "linearity-direct": mv_linearity_direct_problem(grid, 3),
        "linearity": mv_linearity_problem(grid, 2),
        "variance": mv_homoscedasticity_problem(grid, 5),
        "dense-custom": ResidualProblem(battery, custom_grid),
    }


def _dense_battery(battery, Y, params):
    """A battery's values as a plain mean battery on the rows Y, with the
    Jacobian that maps their means onto the reported scale: the values and
    the identity, or for a ratio battery [f W, W] and the ratio Jacobian at
    the model means [D r, D].  Also returns those model means (None without
    a closed form)."""
    H = battery.evaluate(Y, params)
    g = battery.eta_closed(params)
    if not isinstance(battery, RatioBattery):
        return np.asarray(H), np.eye(battery.k), g
    W = np.exp(posterior_log_weights(Y, battery.grid.points, params))
    dens = np.exp(lv_logpdf(battery.grid.points, params))
    g = np.concatenate([dens * g, dens])
    return np.hstack([H * W, W]), _ratio_jacobian(g), g


def _reported(battery, g):
    """Means of ``_dense_battery``'s values mapped onto the reported scale."""
    return g[:battery.k] / g[battery.k:] if isinstance(battery, RatioBattery) else g


def _check_engine_against_dense(case, problem, fit, data):
    """The engine's z, se, unstable flags, T and ACM entries against the
    dense assembly and ``chi2_statistic`` on the same draws."""
    mc = McConfig(M=2000, seed=99, s=2)
    report = run_residual_test(problem, fit, data, mc)

    draws = simulate_data(fit.params, mc.M, np.random.default_rng(mc.seed)).values
    battery = problem.battery
    H, jac, g = _dense_battery(battery, draws, fit.params)
    scores = score_rows(fit.params, fit.mapping, draws)
    A = (H.T @ scores) / mc.M
    sigma_H = np.cov(H.T, ddof=1)
    inv_info = invert_information(monte_carlo_information(fit.params, fit.mapping, draws))
    if g is None:
        g = H.mean(axis=0)
    dense = assemble_acm(jac, A, inv_info, sigma_H)
    H_data = _dense_battery(battery, data.values, fit.params)[0]
    e = _reported(battery, H_data.mean(axis=0)) - _reported(battery, g)
    var = np.diag(dense.sigma_phi_hat)

    unstable = np.array([pt.unstable for pt in report.points])
    np.testing.assert_array_equal(unstable, dense.unstable, err_msg=case)
    ok = ~unstable
    se_engine = np.array([pt.se for pt in report.points])
    z_engine = np.array([pt.z for pt in report.points])
    np.testing.assert_allclose(se_engine[ok], np.sqrt(var[ok]), rtol=1e-12,
                               err_msg=case)
    np.testing.assert_allclose(z_engine[ok], e[ok] / np.sqrt(var[ok] / data.n),
                               rtol=1e-12, err_msg=case)
    assert np.isnan(z_engine[unstable]).all()
    if case == "dense-custom":
        assert unstable.tolist() == [False, False, False, True]

    subset = problem.grid.summary_subset
    keep = subset[ok[subset]]
    assert report.summary.n_points == len(keep)
    assert report.summary.n_dropped == len(subset) - len(keep)
    block = dense.sigma_phi_hat[np.ix_(keep, keep)]
    T_manual, _ = chi2_statistic(e[keep], block, data.n, mc.s)
    assert report.summary.T == pytest.approx(T_manual, rel=1e-12), case

    acm = report.acm
    np.testing.assert_allclose(acm.diag[ok], var[ok], rtol=1e-12, err_msg=case)
    np.testing.assert_array_equal(acm.summary_index, keep, err_msg=case)
    np.testing.assert_allclose(acm.summary_block, block, rtol=1e-12,
                               atol=1e-12 * np.abs(block).max(), err_msg=case)
    eigs = np.linalg.eigvalsh(block)[::-1]
    np.testing.assert_allclose(acm.summary_eigvals, eigs, rtol=1e-12,
                               atol=1e-12 * eigs[0], err_msg=case)


_BATCH_MC = McConfig(M=1200, seed=5)


def _batch_problems():
    """Weighted batteries of every bundled kind on three grids (two distinct
    objects with equal points, and one with other points) and a custom
    battery without a grid."""
    grid = make_grid([(-2, 2, 5)], [(-2, 2, 5)])
    twin = make_grid([(-2, 2, 5)], [(-1, 1, 3)])
    other = make_grid([(-3, 3, 7)], [(-2, 2, 5)])
    custom = SummaryBattery(k=2, name="custom",
                            _evaluate=lambda Y, p: np.column_stack([Y[:, 0], Y[:, 1] ** 2]))
    return [mv_linearity_problem(grid, 1), mv_homoscedasticity_problem(grid, 1),
            mv_linearity_problem(grid, 4), mv_homoscedasticity_problem(grid, 4),
            lv_density_problem(grid), mv_linearity_direct_problem(grid, 2),
            ResidualProblem(custom, make_grid([(-1, 1, 2)], [(-1, 1, 2)])),
            mv_linearity_problem(twin, 1), lv_density_problem(twin),
            mv_homoscedasticity_problem(other, 6), lv_density_problem(other)]


def _assert_same_report(got, want):
    """Every point field and T of two reports agree bit for bit."""
    assert got.battery == want.battery
    for attr in ("eta_hat", "eta", "residual", "se", "z", "p", "unstable"):
        a = np.array([getattr(pt, attr) for pt in got.points])
        b = np.array([getattr(pt, attr) for pt in want.points])
        assert a.tobytes() == b.tobytes(), (got.battery, attr)
    assert np.array(got.summary.T).tobytes() == np.array(want.summary.T).tobytes()


@pytest.fixture(scope="module")
def fitted_setup():
    from factorgof import study2_paramset

    spec = ModelSpec(m=10, d=1, loading_pattern=np.ones((10, 1), dtype=int))
    params = study2_paramset()
    data = simulate_data(params, 600, np.random.default_rng(2024))
    fit = fit_ml(data, spec)
    assert fit.converged
    return spec, params, data, fit


class TestRunResidualTest:
    def test_perfectly_matching_constant_battery(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        grid = make_grid([(-1, 1, 3)])
        battery = SummaryBattery(
            k=3, name="const3",
            _evaluate=lambda Y, p: np.full((len(Y), 3), 2.5),
            _eta=lambda p: np.full(3, 2.5),
        )
        problem = ResidualProblem(battery, grid)
        report = run_residual_test(problem, fit, data, McConfig(M=1000, seed=4))
        assert all(pt.residual == 0.0 for pt in report.points)
        assert all(pt.unstable for pt in report.points)  # zero variance

    def test_refuses_nonconverged_fit(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        bad = fit_ml(data, spec, OptimOptions(max_iter=1))
        problem = lv_density_problem(make_grid([(-2, 2, 5)]))
        with pytest.raises(NotConvergedError):
            run_residual_test(problem, bad, data, McConfig(M=1000, seed=0))

    def test_minimum_draws(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        problem = lv_density_problem(make_grid([(-2, 2, 5)]))
        with pytest.raises(ConfigurationError):
            run_residual_test(problem, fit, data, McConfig(M=500, seed=0))

    def test_identity_pipeline_matches_manual_assembly(self, fitted_setup):
        # the engine forms only sigma_phi's diagonal and kept summary block
        # from the projected draws; the dense assembly on the same draws is
        # the reference, with the parameter penalty estimated independently
        spec, params, data, fit = fitted_setup
        for case, problem in _engine_cases().items():
            _check_engine_against_dense(case, problem, fit, data)

    def test_bit_reproducible_under_fixed_seed(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        problem = lv_density_problem(make_grid([(-3, 3, 9)], [(-1.5, 1.5, 3)]))
        mc = McConfig(M=1500, seed=31, s=1)
        r1 = run_residual_test(problem, fit, data, mc)
        r2 = run_residual_test(problem, fit, data, mc)
        assert [pt.z for pt in r1.points] == [pt.z for pt in r2.points]
        assert r1.summary.T == r2.summary.T
        assert r1.config["seed"] == 31 and r1.config["M"] == 1500 and r1.config["s"] == 1

    def test_shared_draws_batch_equals_single_runs(self, fitted_setup):
        # one batch over weighted batteries on three grids, two of them
        # distinct objects with equal points, and a custom battery; every
        # report must equal its solo run bit for bit
        spec, params, data, fit = fitted_setup
        problems = _batch_problems()
        batch = run_residual_batch(problems, fit, data, _BATCH_MC)
        solo = [run_residual_test(p, fit, data, _BATCH_MC) for p in problems]
        for b, s_ in zip(batch, solo):
            _assert_same_report(b, s_)

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(range(11)))
    def test_batch_order_does_not_change_reports(self, fitted_setup, order):
        spec, params, data, fit = fitted_setup
        problems = _batch_problems()
        reports = run_residual_batch(problems, fit, data, _BATCH_MC)
        permuted = run_residual_batch([problems[i] for i in order], fit, data, _BATCH_MC)
        for i, report in zip(order, permuted):
            _assert_same_report(report, reports[i])

    def test_one_weight_pass_per_row_set_and_grid(self, fitted_setup, monkeypatch):
        spec, params, data, fit = fitted_setup
        calls = []
        original = residuals.posterior_log_weights

        def counted(Y, points, p):
            calls.append((len(Y), len(points)))
            return original(Y, points, p)

        monkeypatch.setattr(residuals, "posterior_log_weights", counted)
        grid = make_grid([(-3, 3, 31)], [(-2, 2, 11)])
        items = (1, 7, 8, 9)
        problems = ([mv_linearity_problem(grid, j) for j in items]
                    + [mv_homoscedasticity_problem(grid, j) for j in items])
        mc = McConfig(M=1000, seed=3)
        n, M = data.n, mc.M
        run_residual_batch(problems, fit, data, mc)
        assert calls == [(n, 31), (M, 31)]

        calls.clear()
        other = make_grid([(-2, 2, 9)])
        run_residual_batch(problems + [lv_density_problem(other),
                                       mv_linearity_problem(other, 2)], fit, data, mc)
        assert calls == [(n, 31), (M, 31), (n, 9), (M, 9)]

    def test_shared_weights_are_read_only(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        from factorgof import WeightedBattery

        def scale_in_place(Y, W, p):
            W *= 2.0
            return W

        grid = make_grid([(-2, 2, 5)], [(-2, 2, 5)])
        battery = WeightedBattery(k=5, name="writer", _evaluate=scale_in_place, grid=grid)
        problem = ResidualProblem(battery, grid)
        with pytest.raises(ValueError, match="read-only"):
            run_residual_batch([lv_density_problem(grid), problem], fit, data,
                               McConfig(M=1000, seed=3))


def _gauss_hermite(m, n):
    """Product Gauss-Hermite rule for the standard normal in m dimensions:
    nodes (n**m, m) and weights summing to one."""
    x, w = hermegauss(n)
    nodes = np.array(list(itertools.product(x, repeat=m)))
    weights = np.prod(np.array(list(itertools.product(w / np.sqrt(2 * np.pi), repeat=m))),
                      axis=1)
    return nodes, weights


def _small_model(d):
    """Parameters, mapping and a few latent points of a model small enough
    for product quadrature over y: three items on one factor, or two items
    on each of two correlated factors."""
    if d == 1:
        lam = np.array([[0.6], [0.7], [0.5]])
        phi = np.eye(1)
        points = np.array([[-1.5], [0.0], [0.8], [2.0]])
    else:
        lam = np.array([[0.6, 0.0], [0.7, 0.0], [0.0, 0.5], [0.0, 0.8]])
        phi = np.array([[1.0, 0.3], [0.3, 1.0]])
        points = np.array([[-1.0, 0.5], [0.0, 0.0], [0.8, -1.2], [1.5, 1.0]])
    m = lam.shape[0]
    theta = 1.0 - np.einsum("jk,kl,jl->j", lam, phi, lam) + 0.1
    params = ParamSet(nu=np.linspace(-0.3, 0.4, m), lam=lam, phi=phi, theta=theta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m < 3d: identification is not needed here
        spec = ModelSpec(m=m, d=d, loading_pattern=(lam != 0).astype(int))
    return params, ParamMapping(spec), points


def _mirror_fit(fit, factor):
    """The fit with one factor's sign flipped: its loadings, and phi's
    off-diagonal entries, negated.  Sigma and the likelihood are unchanged."""
    mapping = fit.mapping
    sign = np.ones(mapping.q)
    sign[mapping.lam_slice] = np.where(mapping.lam_cols == factor, -1.0, 1.0)
    sign[mapping.w_slice] = -1.0
    v = sign * fit.free_vector
    return dataclasses.replace(fit, free_vector=v, params=mapping.unpack(v))


class TestExactLvDensity:
    """The latent-density battery's closed-form moments, and the engine's
    draw-free path through them."""

    @pytest.mark.parametrize("d,nodes", [(1, 30), (2, 24)])
    def test_weight_moments_match_quadrature(self, d, nodes):
        # E[W_q W_r], E[W_q z], E[W_q z z'] and A = E[W_q s] with z = y - nu
        # and s the score, by product Gauss-Hermite quadrature over y
        params, mapping, points = _small_model(d)
        U, wt = _gauss_hermite(params.m, nodes)
        Z = U @ params.sigma_cholesky().T
        W = np.exp(posterior_log_weights(params.nu + Z, points, params))
        Ww = W * wt[:, None]
        dens = np.exp(lv_logpdf(points, params))
        Q = len(points)
        var, cov, A = batteries._lv_density_moments(points, params, mapping, np.arange(Q))

        EWW = Ww.T @ W
        pairs = batteries._weight_products(np.repeat(points, Q, axis=0),
                                           np.tile(points, (Q, 1)), params).reshape(Q, Q)
        np.testing.assert_allclose(pairs, EWW, rtol=0, atol=1e-10 * EWW.max())
        np.testing.assert_allclose(cov, EWW - np.outer(dens, dens), rtol=0,
                                   atol=1e-10 * EWW.max())
        np.testing.assert_allclose(var, np.diag(cov), rtol=0, atol=1e-10 * EWW.max())

        # the tilted law of y under W_q is y | x = x_q ~ N(nu + lambda x_q, theta)
        mu = points @ params.lam.T
        np.testing.assert_allclose(Ww.T @ Z, dens[:, None] * mu, rtol=0, atol=1e-10)
        EWzz = np.einsum("nq,ni,nj->qij", Ww, Z, Z)
        want = dens[:, None, None] * (np.diag(params.theta) + mu[:, :, None] * mu[:, None, :])
        np.testing.assert_allclose(EWzz, want, rtol=0, atol=1e-10)

        EWs = Ww.T @ score_rows(params, mapping, params.nu + Z)
        np.testing.assert_allclose(A, EWs, rtol=0, atol=1e-10 * np.abs(EWs).max())

    def test_engine_matches_dense_monte_carlo(self, fitted_setup):
        # the dense assembly on M draws converges to the exact entries: each
        # error within 4 Monte Carlo standard errors at both budgets, and
        # 16 times the draws cut the largest error by about 4
        spec, params, data, fit = fitted_setup
        grid = make_grid([(-3, 3, 7)], [(-2, 2, 5)])
        report = run_residual_test(lv_density_problem(grid), fit, data,
                                   McConfig(M=1000, seed=1))
        keep = report.acm.summary_index
        assert keep.tolist() == [1, 2, 3, 4, 5]
        p = fit.params
        errors = []
        for M, seed in ((20_000, 3), (320_000, 4)):
            draws = simulate_data(p, M, np.random.default_rng(seed)).values
            H = np.exp(posterior_log_weights(draws, grid.points, p))
            scores = score_rows(p, fit.mapping, draws)
            A = H.T @ scores / M
            inv_info = invert_information(monte_carlo_information(p, fit.mapping, draws))
            dense = assemble_acm(np.eye(grid.Q), A, inv_info, np.cov(H.T, ddof=1))
            # each entry's estimator is the mean of products of the rows'
            # residualized contributions, so their spread gives its MC se
            R = H - H.mean(axis=0) - scores @ (inv_info @ A.T)
            se_diag = (R**2).std(axis=0, ddof=1) / np.sqrt(M)
            Rk = R[:, keep]
            se_block = (Rk[:, :, None] * Rk[:, None, :]).std(axis=0, ddof=1) / np.sqrt(M)
            err_diag = np.abs(np.diag(dense.sigma_phi_hat) - report.acm.diag)
            err_block = np.abs(dense.sigma_phi_hat[np.ix_(keep, keep)]
                               - report.acm.summary_block)
            assert (err_diag <= 4 * se_diag).all(), M
            assert (err_block <= 4 * se_block).all(), M
            errors.append((err_diag.max(), err_block.max()))
        for small, big in zip(*errors):
            assert 2 < small / big < 8

    def test_report_is_exact_and_says_so(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        grid = make_grid([(-3, 3, 7)], [(-2, 2, 5)])
        mc = McConfig(M=1500, seed=31)
        report = run_residual_test(lv_density_problem(grid), fit, data, mc)
        assert report.acm.M == 0
        assert report.config["covariance"] == "exact"
        assert report.config["M"] == 1500
        # no draws: another seed or budget gives the same bits
        other = run_residual_test(lv_density_problem(grid), fit, data,
                                  McConfig(M=4000, seed=2))
        _assert_same_report(other, report)
        ratio = run_residual_test(mv_linearity_problem(grid, 1), fit, data, mc)
        assert ratio.acm.M == 1500 and ratio.config["covariance"] == "monte-carlo"

    def test_lv_density_batch_draws_nothing(self, fitted_setup, monkeypatch):
        spec, params, data, fit = fitted_setup

        def forbidden(*args, **kwargs):
            raise AssertionError("the batch drew or scored model draws")

        calls = []
        original = residuals.posterior_log_weights

        def counted(Y, points, p):
            calls.append((len(Y), len(points)))
            return original(Y, points, p)

        monkeypatch.setattr(residuals, "simulate_data", forbidden)
        monkeypatch.setattr(residuals, "score_rows", forbidden)
        monkeypatch.setattr(residuals, "posterior_log_weights", counted)
        grids = [make_grid([(-3, 3, 7)], [(-2, 2, 5)]), make_grid([(-2, 2, 9)])]
        reports = run_residual_batch([lv_density_problem(g) for g in grids], fit, data,
                                     McConfig(M=1000, seed=3))
        assert calls == [(data.n, 7), (data.n, 9)]
        assert all(r.acm.M == 0 for r in reports)

    def test_exact_problem_leaves_draw_problems_unchanged(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        grid = make_grid([(-3, 3, 31)], [(-2, 2, 11)])
        ratio = [mv_linearity_problem(grid, 1), mv_homoscedasticity_problem(grid, 7)]
        mc = McConfig(M=2000, seed=8)
        mixed = run_residual_batch([lv_density_problem(grid)] + ratio, fit, data, mc)
        alone = run_residual_batch(ratio, fit, data, mc)
        for got, want in zip(mixed[1:], alone):
            _assert_same_report(got, want)

    @pytest.mark.parametrize("d,factor", [(1, 0), (2, 0), (2, 1)])
    def test_factor_sign_flip_mirrors_report(self, d, factor, fitted_setup,
                                             two_factor_params, two_factor_spec):
        if d == 1:
            _, _, data, fit = fitted_setup
        else:
            data = simulate_data(two_factor_params, 1500, np.random.default_rng(3))
            fit = fit_ml(data, two_factor_spec)
            assert fit.converged
        grid = default_grid(d)
        mc = McConfig(M=1000, seed=0)
        report = run_residual_test(lv_density_problem(grid), fit, data, mc)
        flipped = run_residual_test(lv_density_problem(grid), _mirror_fit(fit, factor), data, mc)

        mirror = grid.points.copy()
        mirror[:, factor] *= -1
        dist = np.abs(grid.points[None, :, :] - mirror[:, None, :]).max(axis=2)
        partner = dist.argmin(axis=1)
        assert (dist[np.arange(grid.Q), partner] < 1e-9).all()
        for attr in ("eta_hat", "eta", "se", "z"):
            a = np.array([getattr(pt, attr) for pt in report.points])
            b = np.array([getattr(flipped.points[r], attr) for r in partner])
            np.testing.assert_allclose(b, a, rtol=1e-10, atol=1e-10, err_msg=attr)
        assert ([flipped.points[r].unstable for r in partner]
                == [pt.unstable for pt in report.points])
        assert flipped.summary.T == pytest.approx(report.summary.T, rel=1e-10)

    def test_row_permutation_leaves_report_unchanged(self, fitted_setup):
        # on the same fit; the fit's own row-order invariance is tested with
        # the estimator
        spec, params, data, fit = fitted_setup
        grid = default_grid(1)
        mc = McConfig(M=1000, seed=0)
        report = run_residual_test(lv_density_problem(grid), fit, data, mc)
        perm = np.random.default_rng(5).permutation(data.n)
        permuted = run_residual_test(lv_density_problem(grid), fit,
                                     DataMatrix(data.values[perm]), mc)
        for attr in ("eta_hat", "eta", "residual", "se", "z", "p"):
            a = np.array([getattr(pt, attr) for pt in report.points])
            b = np.array([getattr(pt, attr) for pt in permuted.points])
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12, err_msg=attr)
        assert permuted.summary.T == pytest.approx(report.summary.T, rel=1e-12, abs=1e-12)
