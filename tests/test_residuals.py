"""Residual engine: weight-matrix algebra, statistics, ACM assembly,
and the end-to-end orchestration contract."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from factorgof import batteries, residuals
from factorgof.estimate import FitResult, ParamMapping, score_rows
from factorgof.model import lv_logpdf, posterior_log_weights
from factorgof.residuals import run_residual_batch
from factorgof.simstudy import Study1Config, Study2Config, model_spec_study1, replication

from conftest import (assemble_acm, dense_item_score_moments, drawn_ratio_moments,
                      reference_penalty,
                      exact_information, invert_information, sample_moments)


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
    """The ratio map (N, D) -> N / D behind ratio batteries, as the engine's
    draw path applies it to each row: the delta-method projection of the
    row's [f W, W] at the model means [D r, D]."""

    def test_ratio_values_and_structure(self, rng):
        # Q = 2: each output column combines only its own numerator and
        # denominator column, W_q (f - r_q) / D_q
        f = np.array([[1.0], [3.0]])
        W = np.array([[0.5, 2.0], [1.0, 4.0]])
        r = np.array([2.0, 1.0])
        D = np.array([4.0, 0.5])
        G = np.array([[0.5 * -1 / 4, 2.0 * 0 / 0.5], [1.0 * 1 / 4, 4.0 * 2 / 0.5]])
        scores = rng.normal(size=(2, 3))
        for got, want in zip(drawn_ratio_moments(f, W, r, D, scores), sample_moments(G, scores)):
            np.testing.assert_allclose(got, want, rtol=1e-15)

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
        G = np.hstack([f * W, W]) @ fd.T
        scores = rng.normal(size=(6, 3))
        for got, want in zip(drawn_ratio_moments(f, W, r, D, scores), sample_moments(G, scores)):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


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

    def test_eta_hat_matches_exactly_rounded_column_means(self, one_factor_params, rng):
        # a mean battery's sample value is its values' column means; the
        # columns are far from zero, and the reference sums are exactly rounded
        data = DataMatrix(rng.normal(size=(3000, 6)) + 5.0)
        battery = SummaryBattery(k=6, name="columns", _evaluate=lambda Y, p: Y)
        exact = [math.fsum(col) / data.n for col in data.values.T]
        np.testing.assert_allclose(eta_hat(battery, data, one_factor_params), exact,
                                   rtol=1e-14)

    def test_ratio_battery_needs_closed_form_eta_and_one_column_per_point(self):
        grid = make_grid([(-2, 2, 5)])
        with pytest.raises(ConfigurationError, match="needs a closed-form eta"):
            RatioBattery(k=5, name="ratio", _evaluate=lambda Y, p: Y[:, :1], grid=grid)
        with pytest.raises(ConfigurationError, match="has k=4 for 5 grid points"):
            RatioBattery(k=4, name="ratio", _evaluate=lambda Y, p: Y[:, :1],
                         _eta=lambda p: np.zeros(4), grid=grid)

    def test_closed_form_moments_need_closed_form_eta(self):
        from factorgof import WeightedBattery

        with pytest.raises(ConfigurationError, match="closed-form moments but no"):
            WeightedBattery(k=5, name="moments", _evaluate=lambda Y, W, p: W,
                            grid=make_grid([(-2, 2, 5)]), _quadratic=(None, None, 1.0, 0.0))

    def test_plain_battery_takes_no_weights(self, one_factor_params, rng):
        battery = SummaryBattery(k=1, name="first", _evaluate=lambda Y, p: Y[:, :1])
        Y = rng.normal(size=(4, 6))
        with pytest.raises(ConfigurationError, match="takes no posterior weights"):
            battery.evaluate(Y, one_factor_params, np.ones((4, 3)))

    def test_eta_hat_unbiased_at_generating_parameters(self, one_factor_params):
        # sample average of posterior densities estimates the latent density
        grid = make_grid([(-2, 2, 5)])
        battery = lv_density_problem(grid)
        data = simulate_data(one_factor_params, 150_000, np.random.default_rng(31))
        got = eta_hat(battery, data, one_factor_params)
        H = battery.evaluate(data.values, one_factor_params)
        mc_se = H.std(axis=0, ddof=1) / np.sqrt(data.n)
        target = battery.eta_closed(one_factor_params)
        assert (np.abs(got - target) < 4 * mc_se).all()

    def test_eta_mc_fallback_matches_closed_form(self, fitted_setup):
        # a battery without a closed form gets eta from the shared draws
        spec, params, data, fit = fitted_setup
        grid = make_grid([(-2, 2, 5)])
        density = lv_density_problem(grid)
        battery = SummaryBattery(k=5, name="no-closed-form", _evaluate=density.evaluate,
                                 grid=grid)
        mc = McConfig(M=50_000, seed=12)
        report = run_residual_test(battery, fit, data, mc)
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
    engine's draw path for a mean battery."""
    scores = score_rows(params, spec, draws)
    _, _, cov, A = residuals._draw_moments(battery, params, draws, None, None, scores,
                                           np.arange(battery.k))
    return A, cov


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


def _drawn(battery):
    """The battery with its quadratic form removed: a custom battery with
    the same values, whose covariance the engine estimates on the draws,
    as it does for every custom battery without a form."""
    return dataclasses.replace(battery, _quadratic=None)


def _engine_cases():
    """One battery per path on the draws, each a custom battery
    without closed-form moments: mean batteries (linearity-direct's values
    and a custom battery) and ratio batteries (linearity's and variance's,
    whose f differs per grid point).  The custom battery has no closed-form expectation, and its
    last column is constant, so it is unstable and drops out of the summary
    subgrid.  The exact paths are checked in ``TestExactLvDensity`` and
    ``TestExactItemMoments``."""
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
        grid=make_grid([(-1.5, 1.5, 4)], [(-1.5, 1.5, 4)]),
    )
    return {
        "linearity-direct": _drawn(mv_linearity_direct_problem(grid, 3)),
        "linearity": _drawn(mv_linearity_problem(grid, 2)),
        "variance": _drawn(mv_homoscedasticity_problem(grid, 5)),
        "dense-custom": battery,
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


def _check_engine_against_dense(case, battery, fit, data):
    """The engine's z, se, unstable flags, T and ACM entries against the
    dense assembly on the same draws, with the exact information, and
    ``chi2_statistic``."""
    mc = McConfig(M=2000, seed=99, s=2)
    report = run_residual_test(battery, fit, data, mc)

    draws = simulate_data(fit.params, mc.M, np.random.default_rng(mc.seed)).values
    H, jac, g = _dense_battery(battery, draws, fit.params)
    scores = score_rows(fit.params, fit.mapping, draws)
    A = (H.T @ scores) / mc.M
    sigma_H = np.cov(H.T, ddof=1)
    inv_info = invert_information(exact_information(fit.free_vector, fit.mapping, fit.params))
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

    subset = battery.grid.summary_subset
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


def _batch_batteries():
    """Weighted batteries of every bundled kind on four grids (two distinct
    objects with equal points, one with other points, and one out to +-12
    whose two problems keep summary blocks of different sizes) and a custom
    battery without weights.  On the wide grid the latent-density battery's
    variance falls below the floor at +-8 and +-12, so its summary keeps 3
    of the 7 points, while linearity-direct keeps all 7."""
    grid = make_grid([(-2, 2, 5)], [(-2, 2, 5)])
    twin = make_grid([(-2, 2, 5)], [(-1, 1, 3)])
    other = make_grid([(-3, 3, 7)], [(-2, 2, 5)])
    wide = make_grid([(-12, 12, 7)], [(-12, 12, 7)])
    custom = SummaryBattery(k=2, name="custom",
                            _evaluate=lambda Y, p: np.column_stack([Y[:, 0], Y[:, 1] ** 2]),
                            grid=make_grid([(-1, 1, 2)], [(-1, 1, 2)]))
    return [mv_linearity_problem(grid, 1), mv_homoscedasticity_problem(grid, 1),
            mv_linearity_problem(grid, 4), mv_homoscedasticity_problem(grid, 4),
            lv_density_problem(grid), mv_linearity_direct_problem(grid, 2),
            custom,
            mv_linearity_problem(twin, 1), lv_density_problem(twin),
            mv_homoscedasticity_problem(other, 6), lv_density_problem(other),
            lv_density_problem(wide), mv_linearity_direct_problem(wide, 3)]


_POINT_FIELDS = ("eta_hat", "eta", "residual", "se", "z", "p", "unstable")


def _assert_same_report(got, want):
    """Every point array, the ACM entries and T of two reports agree bit
    for bit, and each report's points carry its arrays' bits."""
    assert got.battery == want.battery
    for attr in ("coords",) + _POINT_FIELDS:
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (got.battery, attr)
    for attr in ("diag", "summary_index", "summary_block", "summary_eigvals"):
        a, b = getattr(got.acm, attr), getattr(want.acm, attr)
        assert a.tobytes() == b.tobytes(), (got.battery, attr)
    assert np.array(got.summary.T).tobytes() == np.array(want.summary.T).tobytes()
    for report in (got, want):
        _assert_points_match_arrays(report)


def _assert_points_match_arrays(report):
    """The on-demand points carry the report's array values bit for bit."""
    points = report.points
    assert report.points is points  # built once, then kept
    assert np.array([pt.coords for pt in points]).tobytes() == report.coords.tobytes()
    for attr in _POINT_FIELDS:
        values = np.array([getattr(pt, attr) for pt in points], dtype=getattr(report, attr).dtype)
        assert values.tobytes() == getattr(report, attr).tobytes(), (report.battery, attr)


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
            _eta=lambda p: np.full(3, 2.5), grid=grid,
        )
        report = run_residual_test(battery, fit, data, McConfig(M=1000, seed=4))
        assert all(pt.residual == 0.0 for pt in report.points)
        assert all(pt.unstable for pt in report.points)  # zero variance

    def test_report_coords_are_a_read_only_view_of_the_grid(self, fitted_setup):
        # the default grid is shared by every later caller, so no report
        # may write into it
        spec, params, data, fit = fitted_setup
        grid = default_grid(1)
        report = run_residual_test(lv_density_problem(grid), fit, data)
        for coords in (report.coords[0], report.points[0].coords):
            with pytest.raises(ValueError, match="read-only"):
                coords[0] = 99.0
        assert np.array_equal(report.coords, grid.points)
        assert grid.points[0, 0] == -3.0

    def test_refuses_nonconverged_fit(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        bad = fit_ml(data, spec, OptimOptions(max_iter=1))
        battery = lv_density_problem(make_grid([(-2, 2, 5)]))
        with pytest.raises(NotConvergedError):
            run_residual_test(battery, bad, data, McConfig(M=1000, seed=0))

    def test_minimum_draws(self, fitted_setup):
        # the draw budget is checked only where a batch draws
        spec, params, data, fit = fitted_setup
        battery = _drawn(lv_density_problem(make_grid([(-2, 2, 5)])))
        for M in (10, 500):
            with pytest.raises(ConfigurationError, match=f"M={M} below the minimum"):
                run_residual_test(battery, fit, data, McConfig(M=M, seed=0))

    def test_exact_batch_takes_any_draw_budget(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        grid = make_grid([(-2, 2, 5)], [(-2, 2, 5)])
        exact = [batteries.make_problem(kind, grid, None if kind == "lv-density" else 2)
                 for kind in ("lv-density", "linearity", "variance", "linearity-direct")]
        tiny = run_residual_batch(exact, fit, data, McConfig(M=10, seed=0))
        default = run_residual_batch(exact, fit, data, McConfig())
        for got, want in zip(tiny, default):
            _assert_same_report(got, want)

    def test_identity_pipeline_matches_manual_assembly(self, fitted_setup):
        # the engine forms only sigma_phi's diagonal and kept summary block
        # from the projected draws; the dense assembly on the same draws is
        # the reference, with the penalty from the dense exact information
        spec, params, data, fit = fitted_setup
        for case, battery in _engine_cases().items():
            _check_engine_against_dense(case, battery, fit, data)

    def test_bit_reproducible_under_fixed_seed(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        battery = lv_density_problem(make_grid([(-3, 3, 9)], [(-1.5, 1.5, 3)]))
        mc = McConfig(M=1500, seed=31, s=1)
        r1 = run_residual_test(battery, fit, data, mc)
        r2 = run_residual_test(battery, fit, data, mc)
        assert [pt.z for pt in r1.points] == [pt.z for pt in r2.points]
        assert r1.summary.T == r2.summary.T
        assert r1.config["s"] == 1
        # an exact report records no draw budget or seed it never used
        assert "M" not in r1.config and "seed" not in r1.config

    def test_shared_draws_batch_equals_single_runs(self, fitted_setup):
        # one batch over weighted batteries on three grids, two of them
        # distinct objects with equal points, and a custom battery; every
        # report must equal its solo run bit for bit
        spec, params, data, fit = fitted_setup
        tests = _batch_batteries()
        batch = run_residual_batch(tests, fit, data, _BATCH_MC)
        solo = [run_residual_test(b, fit, data, _BATCH_MC) for b in tests]
        for b, s_ in zip(batch, solo):
            _assert_same_report(b, s_)
        # the wide grid's two problems keep summary blocks of different sizes
        assert [r.summary.n_points for r in batch[-2:]] == [3, 7]

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(range(13)))
    def test_batch_order_does_not_change_reports(self, fitted_setup, order):
        spec, params, data, fit = fitted_setup
        tests = _batch_batteries()
        reports = run_residual_batch(tests, fit, data, _BATCH_MC)
        permuted = run_residual_batch([tests[i] for i in order], fit, data, _BATCH_MC)
        for i, report in zip(order, permuted):
            _assert_same_report(report, reports[i])

    def test_one_weight_pass_per_row_set_and_grid(self, fitted_setup, two_factor_params,
                                                   two_factor_spec, monkeypatch):
        spec, params, data, fit = fitted_setup
        calls, stacks = _counted_weight_passes(monkeypatch), []
        moments = residuals._quadratic_moments

        def counted_moments(grid, dens, forms, p, consts):
            stacks.append((grid.Q, len(forms)))
            return moments(grid, dens, forms, p, consts)

        made = []

        class CountedConstants(residuals._FitConstants):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(residuals, "_quadratic_moments", counted_moments)
        monkeypatch.setattr(residuals, "_FitConstants", CountedConstants)
        grid = make_grid([(-3, 3, 31)], [(-2, 2, 11)])
        items = (1, 7, 8, 9)
        problems = ([_drawn(mv_linearity_problem(grid, j)) for j in items]
                    + [_drawn(mv_homoscedasticity_problem(grid, j)) for j in items])
        mc = McConfig(M=1000, seed=3)
        n, M = data.n, mc.M
        run_residual_batch(problems, fit, data, mc)
        assert calls == [(n, 31), (M, 31)]
        assert stacks == []
        # a batch of custom batteries makes the fit's constants too: every
        # report's penalty takes their exact information
        assert len(made) == 1

        calls.clear()
        made.clear()
        other = make_grid([(-2, 2, 9)])
        run_residual_batch(problems + [lv_density_problem(other),
                                       _drawn(mv_linearity_direct_problem(other, 2))],
                           fit, data, mc)
        assert calls == [(n, 31), (M, 31), (n, 9), (M, 9)]
        assert stacks == [(9, 1)]
        assert len(made) == 1

        # the problems with a quadratic form take their moments from one
        # stacked call per distinct grid, not one per problem, and the fit's
        # constants (the implied covariance's factor, the posterior
        # covariance and the exact information) are formed once per batch
        calls.clear()
        stacks.clear()
        made.clear()
        exact = ([mv_linearity_problem(grid, j) for j in items]
                 + [mv_homoscedasticity_problem(grid, j) for j in items]
                 + [lv_density_problem(other), mv_linearity_direct_problem(other, 2),
                    mv_linearity_direct_problem(grid, 3)])
        run_residual_batch(exact, fit, data, mc)
        assert calls == [(n, 31), (n, 9)]
        assert stacks == [(31, 9), (9, 2)]
        assert len(made) == 1

        # on the two-factor product grid the exact stack sums the axis
        # factors and makes no dense pass; a custom battery on that grid
        # makes one on the data and one on the draws
        data2, fit2 = _fit_for_flip(2, fitted_setup, two_factor_params, two_factor_spec)
        grid2 = default_grid(2)
        exact2 = [lv_density_problem(grid2), mv_linearity_problem(grid2, 1),
                  mv_homoscedasticity_problem(grid2, 5)]
        calls.clear()
        stacks.clear()
        run_residual_batch(exact2, fit2, data2, mc)
        assert calls == []
        assert stacks == [(361, 3)]
        calls.clear()
        run_residual_batch(exact2 + [_drawn(mv_linearity_problem(grid2, 1))], fit2, data2, mc)
        assert calls == [(data2.n, 361), (M, 361)]

    def test_one_latent_density_per_grid(self, monkeypatch):
        # the latent density D of a grid is formed once per batch and handed
        # to the lv-density form's a, its model value and the moments
        data, fit = replication(Study1Config(n=1000, misspecified=True), 77, 1)
        calls = []
        density = residuals.lv_logpdf

        def counted(points, p):
            calls.append(len(points))
            return density(points, p)

        monkeypatch.setattr(residuals, "lv_logpdf", counted)
        monkeypatch.setattr(batteries, "lv_logpdf", counted)
        grid, other = default_grid(2), make_grid([(-2, 2, 5)] * 2, [(-1, 1, 3)] * 2)
        reports = run_residual_batch([lv_density_problem(grid), lv_density_problem(other),
                                      mv_linearity_direct_problem(grid, 3)], fit, data)
        assert calls == [361, 25]
        assert reports[0].eta.tobytes() == np.exp(density(grid.points, fit.params)).tobytes()

    def test_fit_constants_describe_the_fit_params(self):
        # the constants are built from the fit and read its params, so their
        # model is fit.params to the last bit, and their posterior covariance
        # is the one fit.params caches for the posterior weights
        _, fit = replication(Study1Config(n=1000, misspecified=True), 77, 1)
        consts = residuals._FitConstants(fit)
        for name in ("nu", "lam", "phi", "theta"):
            assert getattr(consts.terms, name).tobytes() == getattr(fit.params, name).tobytes()
        assert consts.V is fit.params.posterior_law().cov

    def test_shared_weights_are_read_only(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        from factorgof import WeightedBattery

        def scale_in_place(Y, W, p):
            W *= 2.0
            return W

        grid = make_grid([(-2, 2, 5)], [(-2, 2, 5)])
        battery = WeightedBattery(k=5, name="writer", _evaluate=scale_in_place, grid=grid)
        with pytest.raises(ValueError, match="read-only"):
            run_residual_batch([lv_density_problem(grid), battery], fit, data,
                               McConfig(M=1000, seed=3))


def _gauss_hermite(m, n):
    """Product Gauss-Hermite rule for the standard normal in m dimensions:
    nodes (n**m, m) and weights summing to one."""
    x, w = hermegauss(n)
    nodes = np.stack(np.meshgrid(*[x] * m, indexing="ij"), axis=-1).reshape(-1, m)
    weights = np.stack(np.meshgrid(*[w / np.sqrt(2 * np.pi)] * m, indexing="ij"),
                       axis=-1).reshape(-1, m)
    return nodes, np.prod(weights, axis=1)


def _small_model(d):
    """Parameters, mapping and a grid of a few latent points, whose summary
    points are all its points, of a model small enough for product
    quadrature over y: three items on one factor, or two items on each of
    two correlated factors."""
    if d == 1:
        lam = np.array([[0.6], [0.7], [0.5]])
        phi = np.eye(1)
        axes = [(-1.5, 2.0, 4)]
    else:
        lam = np.array([[0.6, 0.0], [0.7, 0.0], [0.0, 0.5], [0.0, 0.8]])
        phi = np.array([[1.0, 0.3], [0.3, 1.0]])
        axes = [(-1.0, 1.5, 2), (-1.2, 1.0, 2)]
    m = lam.shape[0]
    theta = 1.0 - np.einsum("jk,kl,jl->j", lam, phi, lam) + 0.1
    params = ParamSet(nu=np.linspace(-0.3, 0.4, m), lam=lam, phi=phi, theta=theta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # m < 3d: identification is not needed here
        spec = ModelSpec(m=m, d=d, loading_pattern=(lam != 0).astype(int))
    return params, ParamMapping(spec), make_grid(axes, axes)


def _mirror_fit(fit, factor):
    """The fit with one factor's sign flipped: its loadings, and phi's
    off-diagonal entries, negated.  Sigma and the likelihood are unchanged."""
    mapping = fit.mapping
    sign = np.ones(mapping.q)
    sign[mapping.lam_slice] = np.where(mapping.lam_cols == factor, -1.0, 1.0)
    sign[mapping.phi_slice] = -1.0
    return dataclasses.replace(fit, free_vector=sign * fit.free_vector)


def _contributions(battery, Y, params):
    """Each row's contribution G to a weighted battery's residual
    covariance: a mean battery's values, or W (f - r) / D for a ratio
    battery, from the posterior weights W."""
    if not isinstance(battery, RatioBattery):
        return battery.evaluate(Y, params)
    points = battery.grid.points
    W = np.exp(posterior_log_weights(Y, points, params))
    dens = np.exp(lv_logpdf(points, params))
    return W * (battery.evaluate(Y, params) - battery.eta_closed(params)) / dens


def _exact_against_dense_mc(battery, fit, data):
    """The engine's exact entries against the dense assembly on 2e4 and
    3.2e5 draws: each error within 4 Monte Carlo standard errors at both
    budgets.  Returns the report's summary index and, per budget, the
    absolute errors of the diagonal and of the summary block.  The
    reference takes the information from the draws' own scores, so its
    penalty is the in-sample regression of G on the scores."""
    report = run_residual_test(battery, fit, data, McConfig(M=1000, seed=1))
    assert report.acm.M == 0
    keep = report.acm.summary_index
    assert keep.tolist() == [1, 2, 3, 4, 5]
    p = fit.params
    errors = []
    for M, seed in ((20_000, 3), (320_000, 4)):
        draws = simulate_data(p, M, np.random.default_rng(seed)).values
        H = _contributions(battery, draws, p)
        scores = score_rows(p, fit.mapping, draws)
        A = H.T @ scores / M
        info = scores.T @ scores / M
        inv_info = invert_information(0.5 * (info + info.T))
        dense = assemble_acm(np.eye(battery.k), A, inv_info, np.cov(H.T, ddof=1))
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
        errors.append((err_diag, err_block))
    return keep, errors


def _counted_weight_passes(monkeypatch):
    """The (rows, points) of every dense posterior-weight pass the engine
    makes from now on."""
    calls = []
    original = residuals.posterior_log_weights

    def counted(Y, points, p):
        calls.append((len(Y), len(points)))
        return original(Y, points, p)

    monkeypatch.setattr(residuals, "posterior_log_weights", counted)
    return calls


def _forbid_draws(monkeypatch):
    """Make simulating model draws in the engine raise; returns the list of
    (rows, points) of every dense posterior-weight pass it makes.  (The
    engine scores the grid's conditional means for the closed-form A, so
    ``score_rows`` itself is allowed.)"""
    def forbidden(*args, **kwargs):
        raise AssertionError("the batch drew or scored model draws")

    monkeypatch.setattr(residuals, "simulate_data", forbidden)
    return _counted_weight_passes(monkeypatch)


def _fit_for_flip(d, fitted_setup, two_factor_params, two_factor_spec):
    """Data and fit of the one-factor setup, or of a two-factor sample."""
    if d == 1:
        _, _, data, fit = fitted_setup
        return data, fit
    data = simulate_data(two_factor_params, 1500, np.random.default_rng(3))
    fit = fit_ml(data, two_factor_spec)
    assert fit.converged
    return data, fit


def _check_sign_flip_mirrors_report(make, fit, data, factor):
    """Flipping ``factor``'s sign mirrors the report of the battery
    ``make(grid)`` on the default grid: every point's eta_hat, eta, se and
    z reappear at its mirror image, and T is unchanged."""
    grid = default_grid(fit.params.d)
    mc = McConfig(M=1000, seed=0)
    report = run_residual_test(make(grid), fit, data, mc)
    flipped = run_residual_test(make(grid), _mirror_fit(fit, factor), data, mc)

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


def _check_row_permutation_leaves_report(battery, fit, data):
    """Permuting the data rows leaves the report on the same fit unchanged
    to 1e-12; the fit's own row-order invariance is tested with the
    estimator."""
    mc = McConfig(M=1000, seed=0)
    report = run_residual_test(battery, fit, data, mc)
    perm = np.random.default_rng(5).permutation(data.n)
    permuted = run_residual_test(battery, fit, DataMatrix(data.values[perm]), mc)
    for attr in ("eta_hat", "eta", "residual", "se", "z", "p"):
        a = np.array([getattr(pt, attr) for pt in report.points])
        b = np.array([getattr(pt, attr) for pt in permuted.points])
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12, err_msg=attr)
    assert permuted.summary.T == pytest.approx(report.summary.T, rel=1e-12, abs=1e-12)


def _check_refit_permutation_leaves_report(battery, fit, data):
    """Refitting on the permuted data rows leaves the report unchanged to
    first order in the two fits' final gradients.  A fit whose max-abs mean
    gradient is g lies within |I^-1| g of the maximum, with I^-1 its inverse
    observed information and |.| the max-abs row sum, so the two free
    vectors differ by at most delta = |I^-1| (g + g').  Each z, and T, then
    moves by at most delta times the sum of its absolute sensitivities to
    the free parameters (central differences), plus the 1e-12 relative that
    the row order alone may bring (``_check_row_permutation_leaves_report``).
    """
    permuted = DataMatrix(data.values[np.random.default_rng(5).permutation(data.n)])
    refit = fit_ml(permuted, fit.spec)
    assert refit.converged
    delta = (np.abs(fit.inv_observed_information).sum(axis=1).max()
             * (fit.gradient_norm + refit.gradient_norm))
    assert np.abs(refit.free_vector - fit.free_vector).max() <= delta

    def outputs(fit_, data_):
        report = run_residual_test(battery, fit_, data_)
        return np.array([pt.z for pt in report.points] + [report.summary.T])

    def moved(step):
        return dataclasses.replace(fit, free_vector=fit.free_vector + step)

    want = outputs(fit, data)
    sensitivity = np.zeros_like(want)
    for step in 1e-5 * np.eye(fit.mapping.q):
        sensitivity += np.abs(outputs(moved(step), data) - outputs(moved(-step), data)) / 2e-5
    bound = sensitivity * delta + 1e-12 * (1.0 + np.abs(want))
    got = outputs(refit, permuted)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert (np.abs(got - want)[ok] <= bound[ok]).all()


class TestExactLvDensity:
    """The latent-density battery's closed-form moments, and the engine's
    draw-free path through them."""

    @pytest.mark.parametrize("d,nodes", [(1, 30), (2, 24)])
    def test_weight_moments_match_quadrature(self, d, nodes):
        # E[W_q W_r], E[W_q z], E[W_q z z'] and A = E[W_q s] with z = y - nu
        # and s the score, by product Gauss-Hermite quadrature over y
        params, mapping, grid = _small_model(d)
        points = grid.points
        U, wt = _gauss_hermite(params.m, nodes)
        Z = U @ params.sigma_cholesky().T
        W = np.exp(posterior_log_weights(params.nu + Z, points, params))
        Ww = W * wt[:, None]
        dens = np.exp(lv_logpdf(points, params))
        Q = len(points)
        battery = batteries.make_problem("lv-density", grid)
        var, cov, A = _exact_moments(battery, params, mapping)

        EWW = Ww.T @ W
        V = params.posterior_law().cov
        pairs = residuals._weight_products(np.repeat(points, Q, axis=0),
                                           np.tile(points, (Q, 1)), params, V).reshape(Q, Q)
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
        # 16 times the draws cut the largest error by about 4
        _, _, data, fit = fitted_setup
        grid = make_grid([(-3, 3, 7)], [(-2, 2, 5)])
        _, errors = _exact_against_dense_mc(lv_density_problem(grid), fit, data)
        for small, big in zip(*errors):
            assert 2 < small.max() / big.max() < 8

    def test_underflowing_latent_density_drops_its_points(self):
        # out to +-20 the latent density D underflows, so Var(G) and Cov(G)
        # are 0/0 or x/0 there; those points are unstable, the rest give a
        # finite summary, and no numpy warning is raised.  At +-8 every
        # variance is finite and 280 points are unstable by the floor and
        # the residuals alone
        data, fit = replication(Study1Config(n=1000, misspecified=True), 77, 0)
        for bound, unstable in ((20, None), (8, 280)):
            grid = make_grid([(-bound, bound, 25)] * 2, [(-bound, bound, 25)] * 2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = run_residual_test(lv_density_problem(grid), fit, data)
            var, stable = report.acm.diag, ~report.unstable
            assert (np.isfinite(var[stable]) & (var[stable] > 1e-12)).all()
            assert np.isfinite(report.se[stable]).all() and np.isnan(report.se[~stable]).all()
            assert np.isfinite(report.acm.summary_block).all()
            assert np.isfinite(report.summary.T) and report.summary.n_points >= 1
            assert report.summary.n_points + report.summary.n_dropped == grid.Q
            if unstable is None:
                assert not np.isfinite(var).all()
                assert report.unstable[~np.isfinite(var)].all()
            else:
                assert np.isfinite(var).all() and report.unstable.sum() == unstable

    def test_report_is_exact_and_says_so(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        grid = make_grid([(-3, 3, 7)], [(-2, 2, 5)])
        mc = McConfig(M=1500, seed=31)
        report = run_residual_test(lv_density_problem(grid), fit, data, mc)
        assert report.acm.M == 0
        assert report.config["covariance"] == "exact"
        assert "M" not in report.config and "seed" not in report.config
        # no draws: another seed or budget gives the same bits
        other = run_residual_test(lv_density_problem(grid), fit, data,
                                  McConfig(M=4000, seed=2))
        _assert_same_report(other, report)
        for make in (mv_linearity_problem, mv_homoscedasticity_problem,
                     mv_linearity_direct_problem):
            item = run_residual_test(make(grid, 1), fit, data, mc)
            assert item.acm.M == 0 and item.config["covariance"] == "exact"
        custom = run_residual_test(_drawn(mv_linearity_direct_problem(grid, 1)), fit, data, mc)
        assert custom.acm.M == 1500 and custom.config["covariance"] == "monte-carlo"

    def test_lv_density_batch_draws_nothing(self, fitted_setup, two_factor_params,
                                            two_factor_spec, monkeypatch):
        spec, params, data, fit = fitted_setup
        calls = _forbid_draws(monkeypatch)
        grids = [make_grid([(-3, 3, 7)], [(-2, 2, 5)]), make_grid([(-2, 2, 9)])]
        reports = run_residual_batch([lv_density_problem(g) for g in grids], fit, data,
                                     McConfig(M=1000, seed=3))
        assert calls == [(data.n, 7), (data.n, 9)]
        assert all(r.acm.M == 0 for r in reports)
        # on two-factor product grids the weight sums run on axis factors,
        # so the batch makes no dense weight pass at all
        data2, fit2 = _fit_for_flip(2, fitted_setup, two_factor_params, two_factor_spec)
        calls.clear()
        grids = [default_grid(2), make_grid([(-2, 2, 5)] * 2, [(-1, 1, 3)] * 2)]
        reports = run_residual_batch([lv_density_problem(g) for g in grids], fit2, data2,
                                     McConfig(M=1000, seed=3))
        assert calls == []
        assert all(r.acm.M == 0 for r in reports)

    def test_exact_problem_leaves_draw_problems_unchanged(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        grid = make_grid([(-3, 3, 31)], [(-2, 2, 11)])
        drawn = [_drawn(mv_linearity_problem(grid, 1)),
                 _drawn(mv_linearity_direct_problem(grid, 7))]
        mc = McConfig(M=2000, seed=8)
        mixed = run_residual_batch([lv_density_problem(grid)] + drawn, fit, data, mc)
        alone = run_residual_batch(drawn, fit, data, mc)
        for got, want in zip(mixed[1:], alone):
            _assert_same_report(got, want)

    @pytest.mark.parametrize("d,factor", [(1, 0), (2, 0), (2, 1)])
    def test_factor_sign_flip_mirrors_report(self, d, factor, fitted_setup,
                                             two_factor_params, two_factor_spec):
        data, fit = _fit_for_flip(d, fitted_setup, two_factor_params, two_factor_spec)
        _check_sign_flip_mirrors_report(lv_density_problem, fit, data, factor)

    def test_row_permutation_leaves_report_unchanged(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        _check_row_permutation_leaves_report(lv_density_problem(default_grid(1)), fit, data)

    def test_refit_on_permuted_rows_leaves_report_unchanged(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        _check_refit_permutation_leaves_report(lv_density_problem(default_grid(1)), fit, data)


def _exact_moments(battery, params, mapping):
    """Var(G), Cov(G) among the summary points and A of one battery with a
    quadratic form, from the engine's stacked moment routine, with A formed
    from its basis and table."""
    grid = battery.grid
    fit = FitResult(mapping=mapping, free_vector=mapping.pack(params), loglik=0.0,
                    converged=True, gradient_norm=0.0, n_iter=0)
    consts = residuals._FitConstants(fit)
    var, cov, basis, table = residuals._quadratic_moments(
        grid, np.exp(lv_logpdf(grid.points, params)), [battery._quadratic], params, consts)
    return var[0], cov[0], basis[0] @ table[0]


class TestExactItemMoments:
    """The linearity, variance and linearity-direct batteries' closed-form
    moments, and the engine's draw-free path through them."""

    @pytest.mark.parametrize("d,nodes", [(1, 40), (2, 30)])
    @pytest.mark.parametrize("kind", ["linearity", "variance", "linearity-direct"])
    def test_ratio_moments_match_quadrature(self, kind, d, nodes):
        # E[G], E[G G'] and A = E[G s'] of every item battery's rows'
        # contributions G_q = W_q h_q / D_q, with s the score, by product
        # Gauss-Hermite quadrature over y, on every item, to 1e-10 of the
        # largest entry.  E[G] is eta for linearity-direct, a mean battery,
        # and 0 for the ratio batteries, whose h_q = f - r_q
        params, mapping, grid = _small_model(d)
        U, wt = _gauss_hermite(params.m, nodes)
        L = params.sigma_cholesky()
        for item in range(params.m):
            battery = batteries.make_problem(kind, grid, item)
            EG, EGG, EGs = 0.0, 0.0, 0.0
            for lo in range(0, len(wt), 200_000):
                Y = params.nu + U[lo:lo + 200_000] @ L.T
                G = _contributions(battery, Y, params)
                Gw = G * wt[lo:lo + 200_000, None]
                EG = EG + Gw.sum(axis=0)
                EGG = EGG + Gw.T @ G
                EGs = EGs + Gw.T @ score_rows(params, mapping, Y)
            var, cov, A = _exact_moments(battery, params, mapping)
            mean = 0.0 if isinstance(battery, RatioBattery) else battery.eta_closed(params)

            scale = np.abs(EGG).max()
            np.testing.assert_allclose(EG, mean, rtol=0, atol=1e-10 * np.sqrt(scale))
            want = EGG - np.outer(mean, mean)
            np.testing.assert_allclose(cov, want, rtol=0, atol=1e-10 * scale)
            np.testing.assert_allclose(var, np.diag(want), rtol=0, atol=1e-10 * scale)
            np.testing.assert_allclose(A, EGs, rtol=0, atol=1e-10 * np.abs(EGs).max())
            if kind == "variance":
                assert (A == A[0]).all()

    @pytest.mark.parametrize("kind", ["linearity", "variance", "linearity-direct"])
    def test_engine_matches_dense_monte_carlo(self, kind, fitted_setup):
        _, _, data, fit = fitted_setup
        grid = make_grid([(-3, 3, 7)], [(-2, 2, 5)])
        keep, errors = _exact_against_dense_mc(batteries.make_problem(kind, grid, 8), fit, data)
        # 16 times the draws cut the largest error on the summary points by
        # about 4; at the edge points +-3, W / D has so heavy a tail that
        # 3.2e5 draws do not yet show the 1 / sqrt(M) rate
        (diag_small, block_small), (diag_big, block_big) = errors
        assert 2 < diag_small[keep].max() / diag_big[keep].max() < 8
        assert 2 < block_small.max() / block_big.max() < 8

    def test_item_batch_draws_nothing(self, fitted_setup, monkeypatch):
        spec, params, data, fit = fitted_setup
        calls = _forbid_draws(monkeypatch)
        grid, other = default_grid(1), make_grid([(-2, 2, 9)], [(-1, 1, 3)])
        problems = ([mv_linearity_problem(grid, j) for j in (1, 7, 8, 9)]
                    + [mv_homoscedasticity_problem(grid, j) for j in (1, 7, 8, 9)]
                    + [mv_linearity_direct_problem(grid, j) for j in (1, 8)]
                    + [lv_density_problem(other), mv_homoscedasticity_problem(other, 2),
                       mv_linearity_direct_problem(other, 2)])
        reports = run_residual_batch(problems, fit, data, McConfig(M=1000, seed=3))
        assert calls == [(data.n, 31), (data.n, 9)]
        assert all(r.acm.M == 0 and r.config["covariance"] == "exact" for r in reports)
        # no draws: another seed or budget gives the same bits
        again = run_residual_batch(problems, fit, data, McConfig(M=4000, seed=11))
        for got, want in zip(again, reports):
            _assert_same_report(got, want)

    def test_item_score_table_matches_dense_reference(self, fitted_setup, two_factor_params,
                                                      two_factor_spec):
        # every item's row of the fit's score table against the dense
        # gradient change of each rank-2 dS, on a study2 fit (d = 1), a
        # study1 fit (d = 2, one correlation entry) and a two-factor fit
        # without a mean structure, at the default grid's points: to 1e-13
        # of the largest entry of each item's moment
        _, fit1 = replication(Study1Config(n=1000, misspecified=True), 77, 0)
        fit3 = _wide_cases(fitted_setup, two_factor_params, two_factor_spec)[2][0]
        fits = [fitted_setup[3], fit1, fit3]
        assert [f.spec.d for f in fits] == [1, 2, 2]
        assert [f.spec.mean_structure for f in fits] == [True, True, False]
        for fit in fits:
            params, consts = fit.params, residuals._FitConstants(fit)
            points = default_grid(params.d).points
            base, slope, curv = consts.item_scores
            for item in range(params.m):
                first = base[item] + sum(points[:, k, None] * slope[item, k]
                                         for k in range(params.d))
                for got, order in ((first, 1), (curv[item], 2)):
                    want = dense_item_score_moments(points, params, consts, item, order)
                    scale = np.abs(want).max()
                    assert scale > 0
                    assert np.abs(got - want).max() <= 1e-13 * scale, (fit.spec.d, item, order)

    @pytest.mark.parametrize("d", [1, 2])
    def test_every_item_battery_in_one_batch_matches_its_solo_run(self, d, fitted_setup,
                                                                 two_factor_params,
                                                                 two_factor_spec):
        # all 2m linearity and variance batteries of a fit in one batch read
        # rows of the same tables: each report equals its solo run bit for bit
        data, fit = _fit_for_flip(d, fitted_setup, two_factor_params, two_factor_spec)
        grid = default_grid(d)
        problems = [make(grid, j) for j in range(fit.params.m)
                    for make in (mv_linearity_problem, mv_homoscedasticity_problem)]
        batch = run_residual_batch(problems, fit, data)
        for battery, report in zip(problems, batch):
            _assert_same_report(report, run_residual_test(battery, fit, data))

    @pytest.mark.parametrize("kind", ["linearity", "variance", "linearity-direct"])
    @pytest.mark.parametrize("d,factor,item", [(1, 0, 1), (2, 0, 1), (2, 1, 5), (2, 1, 2)])
    def test_factor_sign_flip_mirrors_report(self, kind, d, factor, item, fitted_setup,
                                             two_factor_params, two_factor_spec):
        data, fit = _fit_for_flip(d, fitted_setup, two_factor_params, two_factor_spec)
        _check_sign_flip_mirrors_report(
            lambda grid: batteries.make_problem(kind, grid, item), fit, data, factor)

    @pytest.mark.parametrize("kind", ["linearity", "variance", "linearity-direct"])
    def test_row_permutation_leaves_report_unchanged(self, kind, fitted_setup):
        spec, params, data, fit = fitted_setup
        _check_row_permutation_leaves_report(
            batteries.make_problem(kind, default_grid(1), 8), fit, data)

    def test_refit_on_permuted_rows_leaves_linearity_report_unchanged(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        _check_refit_permutation_leaves_report(mv_linearity_problem(default_grid(1), 8),
                                               fit, data)


def _evaluated_sample_values(Y, batteries, params, wbar, sums, dens):
    """The reference for ``residuals._sample_values`` on the rows Y: their
    own posterior weights W and W's column means, each battery's
    ``evaluate`` on the rows, averaged by column (over W's column means for a
    ratio battery), and its closed-form eta."""
    W = np.exp(posterior_log_weights(Y, batteries[0].grid.points, params))
    own = W.mean(axis=0)
    t_hat = [residuals._evaluated_sample_value(b, Y, params, W, own) for b in batteries]
    return np.array(t_hat), np.array([b.eta_closed(params) for b in batteries])


def _wide_cases(fitted_setup, two_factor_params, two_factor_spec):
    """(fit, data, grid, items): the one-factor setup on a 1-d grid and a
    two-factor fit on a 2-d grid, both out to +-12, and a two-factor fit
    without a mean structure on data with means 0.3 whose factors
    correlate at 0.4, so that its ratios lose their denominators at two
    of the grid's far corners."""
    _, _, data, fit = fitted_setup
    data2, fit2 = _fit_for_flip(2, fitted_setup, two_factor_params, two_factor_spec)
    pattern = two_factor_spec.loading_pattern
    truth = ParamSet(nu=np.full(8, 0.3), lam=0.7 * pattern, phi=[[1.0, 0.4], [0.4, 1.0]],
                     theta=np.full(8, 0.5))
    shifted = simulate_data(truth, 1500, np.random.default_rng(3))
    fit3 = fit_ml(shifted, ModelSpec(m=8, d=2, loading_pattern=pattern, mean_structure=False))
    assert fit3.converged
    wide1 = make_grid([(-12, 12, 25)], [(-2, 2, 5)])
    wide2 = make_grid([(-12, 12, 9)] * 2, [(-3, 3, 3)] * 2)
    return [(fit, data, wide1, (1, 8)), (fit2, data2, wide2, (1, 5)),
            (fit3, shifted, wide2, (2, 6))]


class TestSampleValuesFromForms:
    """A battery with a quadratic form takes its sample value from W's
    column means and its item's W-weighted sums, without ``evaluate``."""

    def test_batch_matches_evaluated_sample_values(self, fitted_setup, two_factor_params,
                                                   two_factor_spec, monkeypatch):
        # every bundled battery, on 1-d and 2-d grids out to +-12 and on a
        # fit without a mean structure: eta_hat to 1e-12 relative, with the
        # same NaN points, eta bit for bit and the same unstable flags.  The
        # reference run forms the dense W and its own column means, which
        # also set its flags; the two-factor fits on the default grid take
        # the factored weight sums
        cases = _wide_cases(fitted_setup, two_factor_params, two_factor_spec)
        cases += [(fit, data, default_grid(2), items) for fit, data, _, items in cases[1:]]
        nan_seen, paths = False, set()
        for fit, data, grid, items in cases:
            paths.add(residuals._weight_factors(data.values, grid, fit.params) is not None)
            problems = [lv_density_problem(grid)] + [
                batteries.make_problem(kind, grid, j)
                for kind in ("linearity", "variance", "linearity-direct") for j in items]
            got = run_residual_batch(problems, fit, data)
            with monkeypatch.context() as patch:
                patch.setattr(residuals, "_weight_factors", lambda *args: None)
                patch.setattr(residuals, "_sample_values",
                              functools.partial(_evaluated_sample_values, data.values))
                want = run_residual_batch(problems, fit, data)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g.eta_hat, w.eta_hat, rtol=1e-12, atol=0,
                                           err_msg=g.battery)
                assert g.eta.tobytes() == w.eta.tobytes()
                assert np.array_equal(g.unstable, w.unstable)
                nan_seen |= bool(np.isnan(w.eta_hat).any())
        assert nan_seen and paths == {False, True}

    def test_eta_hat_matches_batch_bit_for_bit(self, fitted_setup):
        spec, params, data, fit = fitted_setup
        grid = make_grid([(-3, 3, 7)], [(-2, 2, 5)])
        problems = [batteries.make_problem(kind, grid, None if kind == "lv-density" else 8)
                    for kind in ("lv-density", "linearity", "variance", "linearity-direct")]
        reports = run_residual_batch(problems, fit, data)
        for battery, report in zip(problems, reports):
            got = eta_hat(battery, data, fit.params)
            assert got.tobytes() == report.eta_hat.tobytes()
        # the latent density's value is W's column means themselves
        W = np.exp(posterior_log_weights(data.values, grid.points, fit.params))
        assert reports[0].eta_hat.tobytes() == W.mean(axis=0).tobytes()

    def test_exact_batch_evaluates_no_battery(self, fitted_setup, monkeypatch):
        spec, params, data, fit = fitted_setup
        calls = []
        evaluate = SummaryBattery.evaluate

        def counted(self, Y, p, W=None):
            calls.append(self.name)
            return evaluate(self, Y, p, W)

        monkeypatch.setattr(SummaryBattery, "evaluate", counted)
        grid = default_grid(1)
        exact = ([lv_density_problem(grid)]
                 + [batteries.make_problem(kind, grid, j)
                    for kind in ("linearity", "variance", "linearity-direct") for j in (1, 8)])
        run_residual_batch(exact, fit, data)
        assert calls == []
        run_residual_batch(exact + [_drawn(mv_linearity_problem(grid, 8))], fit, data,
                           McConfig(M=1000, seed=3))
        assert calls.count("linearity[8]") >= 1


def _simple_structure(d, per, loadings, shares, corr):
    """``per`` items on each of d factors with the given loadings, error
    variances that are ``shares`` of their items' variances and factor
    correlations ``corr`` (upper triangle, row by row)."""
    phi = np.eye(d)
    phi[np.triu_indices(d, 1)] = corr
    phi = np.triu(phi) + np.triu(phi, 1).T
    lam = np.kron(np.eye(d), np.ones((per, 1))) * np.asarray(loadings)[:, None]
    shares = np.asarray(shares)
    return ParamSet(nu=np.linspace(-0.5, 0.5, d * per), lam=lam, phi=phi,
                    theta=shares / (1.0 - shares) * (lam**2).sum(axis=1))


# log(1e-300) + 1075 log 2: where (1 - 1/d) (peak + K) is at most this, an
# underflowing factor moves a term of the weight sums by at most
# 2^-1075 e^54.36 = 1e-300, the denominator floor
_FACTOR_SPAN = 54.3577


def _factor_range(points, params):
    """(1 - 1/d) (peak + K) of the weight sums' bound: the log of the
    posterior density's maximum plus the range K over the points of the
    cross term sum_{k<l} P_kl x_k x_l."""
    post = params.posterior_law()
    d = params.d
    first, second = np.triu_indices(d, 1)
    cross = (points[:, first] * points[:, second]) @ post.precision[first, second]
    peak = 0.5 * (post.logdet - d * np.log(2.0 * np.pi))
    return (1.0 - 1.0 / d) * (peak + np.ptp(cross))


@st.composite
def _weight_cases(draw):
    """A simple-structure model (d in {1, 2, 3}, |phi_ab| <= 0.95, error
    variances down to 1e-3 of their item's variance), data drawn from it
    with the deviations from nu rescaled, and a cube grid out to +-12."""
    d = draw(st.sampled_from([1, 2, 3]))
    per = draw(st.integers(2, 4))
    m = d * per
    corr = draw(st.lists(st.floats(-0.95, 0.95), min_size=d * (d - 1) // 2,
                         max_size=d * (d - 1) // 2))
    loadings = draw(st.lists(st.floats(0.3, 1.5), min_size=m, max_size=m))
    shares = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, -0.05), min_size=m, max_size=m)))
    phi = np.eye(d)
    phi[np.triu_indices(d, 1)] = corr
    assume(np.linalg.eigvalsh(np.triu(phi) + np.triu(phi, 1).T).min() > 1e-3)
    params = _simple_structure(d, per, loadings, shares, corr)
    n = draw(st.integers(50, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = params.nu + draw(st.floats(0.5, 3.0)) * (simulate_data(params, n, rng).values - params.nu)
    extent = draw(st.floats(0.5, 12.0))
    count = draw(st.integers(2, 9 if d < 3 else 7))
    return params, Y, make_grid([(-extent, extent, count)] * d)


class TestWeightSums:
    """W's column means and the items' weighted sums from per-axis factors
    of W within the range bound at d >= 2, and the dense pass everywhere
    else."""

    @settings(max_examples=60, deadline=None)
    @given(case=_weight_cases())
    def test_factored_sums_match_dense(self, case):
        # where the factors run, wbar, s1 and s2 match the dense sums at
        # every point whose dense n wbar is at least the denominator floor,
        # to a tolerance scaled by the largest |log W|, the scale of the
        # dense log weights' own rounding, plus sqrt(n) for summing the rows
        # in another order; where the dense pass runs, they are its bits
        params, Y, grid = case
        n, items = len(Y), (0, params.m - 1)
        wbar, sums, W = residuals._weight_sums(Y, grid, params, items)
        log_w = posterior_log_weights(Y, grid.points, params)
        dense = np.exp(log_w)
        want = dense.mean(axis=0)
        powers = {j: np.array([Y[:, j] - params.nu[j], (Y[:, j] - params.nu[j]) ** 2])
                  for j in items}
        factored = params.d > 1 and _factor_range(grid.points, params) <= _FACTOR_SPAN
        assert (W is None) == factored
        if not factored:
            assert wbar.tobytes() == want.tobytes()
            for j in items:
                assert sums[j].tobytes() == (powers[j] @ dense / n).tobytes()
            return
        ok = n * want >= residuals._DENOM_FLOOR
        tol = 8 * np.finfo(float).eps * (np.abs(log_w).max() + np.sqrt(n))
        assert (np.abs(wbar - want) <= tol * want)[ok].all()
        for j in items:
            scale = np.abs(powers[j]) @ dense / n
            assert (np.abs(sums[j] - powers[j] @ dense / n) <= tol * scale)[:, ok].all()

    @pytest.mark.parametrize("d", [2, 3])
    def test_dense_pass_iff_range_exceeds_bound(self, d, monkeypatch):
        # cube grids just inside and just outside the bound on the cross
        # term's range K: a batch of every bundled kind sums the factors
        # inside and makes one dense pass on the data outside
        params = _simple_structure(d, 4, [0.7] * 4 * d, [0.5] * 4 * d,
                                   [0.9] if d == 2 else [0.6] * 3)
        data = simulate_data(params, 500, np.random.default_rng(d))
        fit = fit_ml(data, ModelSpec(m=4 * d, d=d, loading_pattern=np.kron(
            np.eye(d, dtype=int), np.ones((4, 1), dtype=int))))
        assert fit.converged
        unit = make_grid([(-1.0, 1.0, 5)] * d).points
        post = fit.params.posterior_law()
        peak = 0.5 * (post.logdet - d * np.log(2.0 * np.pi))
        bound = _FACTOR_SPAN * d / (d - 1) - peak
        # K grows with the square of the cube's half-width
        k_unit = _factor_range(unit, fit.params) * d / (d - 1) - peak
        calls = _counted_weight_passes(monkeypatch)
        for share, passes in ((0.98, []), (1.02, [(data.n, 5**d)])):
            extent = np.sqrt(share * bound / k_unit)
            grid = make_grid([(-extent, extent, 5)] * d)
            calls.clear()
            run_residual_batch([lv_density_problem(grid)]
                               + [batteries.make_problem(kind, grid, 1)
                                  for kind in ("linearity", "variance", "linearity-direct")],
                               fit, data)
            assert calls == passes, share

    def test_factors_past_the_bound_lose_the_sums(self, monkeypatch):
        # the guard is needed: at factor correlation 0.9 on a +-12 grid,
        # K is about 1360, and factors forced past the bound lose whole
        # column sums that the dense pass keeps above the floor
        params = _simple_structure(2, 4, [0.7] * 8, [0.5] * 8, [0.9])
        Y = simulate_data(params, 1000, np.random.default_rng(5)).values
        grid = make_grid([(-12.0, 12.0, 25)] * 2)
        want = np.exp(posterior_log_weights(Y, grid.points, params)).mean(axis=0)
        wbar, _, W = residuals._weight_sums(Y, grid, params, ())
        assert W is not None and wbar.tobytes() == want.tobytes()
        monkeypatch.setattr(residuals, "_FACTOR_SPAN", np.inf)
        with np.errstate(all="ignore"):
            wbar, _, W = residuals._weight_sums(Y, grid, params, ())
            ok = len(Y) * want >= residuals._DENOM_FLOOR
            assert W is None and not np.allclose(wbar[ok], want[ok], rtol=0.5, atol=0)


def _study1_reports(data, pattern, linearity, variance):
    """lv-density, ``linearity[linearity]`` and ``variance[variance]`` on
    the default grid for the two-factor fit of ``pattern`` to the data."""
    fit = fit_ml(data, ModelSpec(m=data.m, d=2, loading_pattern=pattern))
    assert fit.converged
    grid = default_grid(2)
    return run_residual_batch([lv_density_problem(grid), mv_linearity_problem(grid, linearity),
                               mv_homoscedasticity_problem(grid, variance)], fit, data)


def _assert_same_to_rounding(got, want, points):
    """T to 1e-10 relative, and z at ``points`` of ``got`` to 1e-10 absolute
    of z at every point of ``want``, with the same NaN points."""
    for g, w in zip(got, want):
        assert g.summary.T == pytest.approx(w.summary.T, rel=1e-10, abs=0), w.battery
        z = g.z[points]
        np.testing.assert_array_equal(np.isnan(z), np.isnan(w.z), err_msg=w.battery)
        np.testing.assert_allclose(z, w.z, rtol=0, atol=1e-10, err_msg=w.battery)


class TestStudy1Invariances:
    """The fit and the tests do not depend on how the items and the factors
    are labelled (study1, seed 77, misspecified arm)."""

    @pytest.mark.parametrize("rep", range(4))
    def test_item_order_within_factors(self, rep):
        data, _ = replication(Study1Config(n=1000, misspecified=True), 77, rep)
        rng = np.random.default_rng(rep)
        perm = np.concatenate([rng.permutation(10), 10 + rng.permutation(10)])
        at = np.argsort(perm)  # item j's column in the reordered data
        pattern = model_spec_study1().loading_pattern
        want = _study1_reports(data, pattern, 3, 12)
        got = _study1_reports(DataMatrix(data.values[:, perm]), pattern, at[3], at[12])
        _assert_same_to_rounding(got, want, np.arange(default_grid(2).Q))

    @pytest.mark.parametrize("rep", range(4))
    def test_swapping_the_factors(self, rep):
        # items 0-9 load on the second factor instead of the first, so the
        # report at (x1, x2) is the original one at (x2, x1)
        data, _ = replication(Study1Config(n=1000, misspecified=True), 77, rep)
        pattern = model_spec_study1().loading_pattern
        points = default_grid(2).points
        swapped = points[:, ::-1]
        dist = np.abs(points[:, None, :] - swapped[None, :, :]).max(axis=2)
        partner = dist.argmin(axis=0)
        assert (dist[partner, np.arange(len(points))] < 1e-12).all()
        want = _study1_reports(data, pattern, 3, 12)
        got = _study1_reports(data, pattern[:, ::-1], 3, 12)
        _assert_same_to_rounding(got, want, partner)


class TestRowOrder:
    """Permuting the data rows leaves the reports on the same fit unchanged
    to rounding (seed 77, misspecified arm): study1's latent density, whose
    two-factor weight sums run on axis factors, and study2's item tests.
    The bounds are 8 times the largest change measured on replications 0-3
    with one dense pass per grid (T 1.3e-12 relative, z 1.2e-13 of
    max(|z|, 1), both on study2)."""

    @pytest.mark.parametrize("study,rep", [(s, r) for s in (1, 2) for r in range(4)])
    def test_row_permutation_leaves_reports(self, study, rep):
        if study == 1:
            data, fit = replication(Study1Config(n=1000, misspecified=True), 77, rep)
            problems = [lv_density_problem(default_grid(2))]
        else:
            data, fit = replication(Study2Config(n=1000, misspecified=True), 77, rep)
            grid = default_grid(1)
            problems = ([mv_linearity_problem(grid, j) for j in (1, 7, 8, 9)]
                        + [mv_homoscedasticity_problem(grid, j) for j in (1, 7, 8, 9)])
        perm = np.random.default_rng(rep).permutation(data.n)
        want = run_residual_batch(problems, fit, data)
        got = run_residual_batch(problems, fit, DataMatrix(data.values[perm]))
        for g, w in zip(got, want):
            assert g.summary.T == pytest.approx(w.summary.T, rel=1e-11, abs=0), w.battery
            np.testing.assert_array_equal(np.isnan(g.z), np.isnan(w.z), err_msg=w.battery)
            ok = ~np.isnan(w.z)
            assert (np.abs(g.z - w.z)[ok] <= 1e-12 * np.maximum(np.abs(w.z[ok]), 1.0)).all()


def _factor_fit(d, mean_structure=True):
    """Data drawn from a d-factor model with four items per factor, means
    0.3 and factor correlations 0.5, and its converged fit with or without
    a mean structure."""
    pattern = np.kron(np.eye(d, dtype=int), np.ones((4, 1), dtype=int))
    phi = np.full((d, d), 0.5)
    np.fill_diagonal(phi, 1.0)
    truth = ParamSet(nu=np.full(4 * d, 0.3), lam=0.7 * pattern, phi=phi,
                     theta=np.full(4 * d, 0.5))
    data = simulate_data(truth, 800, np.random.default_rng(3))
    fit = fit_ml(data, ModelSpec(m=4 * d, d=d, loading_pattern=pattern,
                                 mean_structure=mean_structure))
    assert fit.converged
    return data, fit


_KINDS = ("lv-density", "linearity", "variance", "linearity-direct")


def _all_kinds(grid, item):
    return [batteries.make_problem(kind, grid, None if kind == "lv-density" else item)
            for kind in _KINDS]


class TestFitState:
    """A fit from ``fit_ml`` lends the residual engine its final terms; a
    fit without them recomputes them from its free vector."""

    @pytest.mark.parametrize("mean_structure", [True, False])
    @pytest.mark.parametrize("d", [1, 2])
    def test_reports_do_not_depend_on_the_kept_state(self, d, mean_structure, tmp_path):
        # the fit, the fit reloaded from its document and the fit replaced
        # by itself give the same reports bit for bit on every battery
        from factorgof import cli

        data, fit = _factor_fit(d, mean_structure)
        tests = _all_kinds(default_grid(d), 1)
        want = run_residual_batch(tests, fit, data)
        path = str(tmp_path / "fit.json")
        cli.write_fit_document(path, fit, data, {}, seed=0)
        assert fit._final is not None
        for other in (cli.load_fit_document(path), dataclasses.replace(fit)):
            assert other._final is None
            for got, report in zip(run_residual_batch(tests, other, data), want):
                _assert_same_report(got, report)

    def test_mirrored_fit_takes_its_own_terms(self):
        # a replaced fit drops the state, so the constants of a mirrored fit
        # are its own model's, not the kept ones of the fit it came from
        data, fit = _factor_fit(2)
        mirrored = _mirror_fit(fit, 0)
        assert mirrored._final is None
        consts = residuals._FitConstants(mirrored)
        for name in ("nu", "lam", "phi", "theta"):
            want = getattr(mirrored.params, name)
            assert getattr(consts.terms, name).tobytes() == want.tobytes()
        assert (consts.terms.lam[:, 0] == -fit.params.lam[:, 0]).all()
        assert consts.terms.lam[:, 0].any()


class TestFactoredPenalty:
    """The penalty's diagonal and summary block through the r x r form
    K I^-1 K', against A I^-1 A' with A formed point by point."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_dense_penalty(self, d):
        # every battery kind on a default-size grid and on a +-12 grid
        # (which at d >= 2 takes the dense weight pass), to 1e-13 of the
        # largest entry of the reference's diagonal and block
        data, fit = _factor_fit(d)
        params, consts = fit.params, residuals._FitConstants(fit)
        grids = {1: [default_grid(1), make_grid([(-12, 12, 49)], [(-12, 12, 25)])],
                 2: [default_grid(2), make_grid([(-12, 12, 25)] * 2, [(-6, 6, 5)] * 2)],
                 3: [make_grid([(-3, 3, 7)] * 3, [(-2, 2, 3)] * 3),
                     make_grid([(-12, 12, 9)] * 3, [(-6, 6, 5)] * 3)]}[d]
        for grid, dense in zip(grids, (False, True)):
            if d > 1:
                assert (residuals._weight_factors(data.values, grid, params) is None) == dense
            dens = np.exp(lv_logpdf(grid.points, params))
            for battery in _all_kinds(grid, 2):
                _, _, basis, table = residuals._quadratic_moments(
                    grid, dens, [battery._quadratic], params, consts)
                diag, block = residuals._penalty(basis, table, consts.inv_information,
                                                 residuals._summary_subset(grid))
                want_diag, want_block = reference_penalty(battery, params, consts)
                for got, want in ((diag[0], want_diag), (block[0], want_block)):
                    scale = np.abs(want).max()
                    assert scale > 0
                    assert np.abs(got - want).max() <= 1e-13 * scale, (d, grid.label,
                                                                       battery.name)

    def test_draw_path_takes_the_identity_basis(self, fitted_setup):
        # a custom battery's estimated A goes through the same routine with
        # the identity basis: its diagonal and block are those of A I^-1 A'
        _, _, data, fit = fitted_setup
        consts = residuals._FitConstants(fit)
        A = np.random.default_rng(4).normal(size=(1, 9, fit.mapping.q))
        sub = np.array([1, 4, 7])
        diag, block = residuals._penalty(None, A, consts.inv_information, sub)
        full = A[0] @ consts.inv_information @ A[0].T
        np.testing.assert_allclose(diag[0], np.diag(full), rtol=1e-13)
        np.testing.assert_allclose(block[0], full[np.ix_(sub, sub)], rtol=1e-13)


class TestGridDimension:
    @pytest.mark.parametrize("kind", ["lv-density", "linearity"])
    def test_grid_of_another_dimension_is_a_configuration_error(self, kind, fitted_setup):
        # a battery whose grid's dimension is not the fit's d is refused,
        # naming both, on a two-factor and on a one-factor fit, by the batch
        # and by eta_hat
        data2, fit2 = replication(Study1Config(n=300, misspecified=True), 77, 0)
        _, _, data1, fit1 = fitted_setup
        for data, fit, grid, got, want in ((data2, fit2, default_grid(1), 1, 2),
                                           (data1, fit1, default_grid(2), 2, 1)):
            battery = batteries.make_problem(kind, grid, None if kind == "lv-density" else 1)
            for run in (lambda: run_residual_test(battery, fit, data),
                        lambda: eta_hat(battery, data, fit.params)):
                with pytest.raises(ConfigurationError,
                                   match=rf"{got}-dimensional grid, the fit has d={want}"):
                    run()
