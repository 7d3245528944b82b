"""Likelihood-ratio test and descriptive fit indices."""

import numpy as np
import pytest

from factorgof import (
    DataMatrix,
    ModelSpec,
    NotConvergedError,
    OptimOptions,
    baseline_report,
    fit_indices,
    fit_ml,
    lr_chi2,
    simulate_data,
)


def exact_moment_sample(params, n, rng):
    """Sample whose mean and divisor-n covariance equal the model's exactly."""
    m = params.m
    Z = rng.normal(size=(n, m))
    Z -= Z.mean(axis=0)
    S = Z.T @ Z / n
    white = Z @ np.linalg.inv(np.linalg.cholesky(S)).T
    return DataMatrix(params.nu + white @ np.linalg.cholesky(params.implied_covariance()).T)


@pytest.fixture(scope="module")
def saturated_case():
    # a one-factor model with three indicators is just-identified:
    # q = 9 equals the moment count m(m+3)/2 = 9
    from factorgof import ParamSet

    spec = ModelSpec(m=3, d=1, loading_pattern=np.ones((3, 1), dtype=int))
    truth = ParamSet(nu=np.zeros(3), lam=np.array([[0.8], [0.7], [0.6]]),
                     phi=np.eye(1), theta=np.array([0.36, 0.51, 0.64]))
    data = simulate_data(truth, 800, np.random.default_rng(42))
    fit = fit_ml(data, spec)
    assert fit.converged
    return fit, data


class TestLrChi2:
    def test_saturated_model_has_zero_df_and_chi2(self, saturated_case):
        fit, data = saturated_case
        chi2, df, p = lr_chi2(fit, data)
        assert df == 0
        assert chi2 == pytest.approx(0.0, abs=1e-5)

    def test_requires_convergence(self, one_factor_params, one_factor_spec):
        data = simulate_data(one_factor_params, 200, np.random.default_rng(0))
        bad = fit_ml(data, one_factor_spec, OptimOptions(max_iter=1))
        with pytest.raises(NotConvergedError):
            lr_chi2(bad, data)

    def test_row_permutation_invariance(self, one_factor_params, one_factor_spec):
        rng = np.random.default_rng(5)
        data = simulate_data(one_factor_params, 300, rng)
        fit = fit_ml(data, one_factor_spec)
        chi2_a, *_ = lr_chi2(fit, data)
        perm = DataMatrix(data.values[rng.permutation(300)])
        fit_b = fit_ml(perm, one_factor_spec)
        chi2_b, *_ = lr_chi2(fit_b, perm)
        assert chi2_a == pytest.approx(chi2_b, abs=1e-6)

    def test_monotone_when_freeing_a_parameter(self):
        # nested pair on one dataset: freeing a cross loading cannot
        # increase the chi-square
        rng = np.random.default_rng(8)
        pattern = np.zeros((8, 2), dtype=int)
        pattern[:4, 0] = 1
        pattern[4:, 1] = 1
        from factorgof import ParamSet

        lam = np.zeros((8, 2))
        lam[:4, 0] = 0.7
        lam[4:, 1] = 0.7
        lam[0, 1] = 0.3  # true cross loading the restricted model misses
        phi = np.array([[1.0, 0.3], [0.3, 1.0]])
        truth = ParamSet(nu=np.zeros(8), lam=lam, phi=phi,
                         theta=1 - np.einsum("jk,kl,jl->j", lam, phi, lam) + 0.05)
        data = simulate_data(truth, 600, rng)
        restricted = ModelSpec(m=8, d=2, loading_pattern=pattern)
        freed_pattern = pattern.copy()
        freed_pattern[0, 1] = 1
        freed = ModelSpec(m=8, d=2, loading_pattern=freed_pattern)
        chi2_r, df_r, _ = lr_chi2(fit_ml(data, restricted), data)
        chi2_f, df_f, _ = lr_chi2(fit_ml(data, freed), data)
        assert df_f == df_r - 1
        assert chi2_f <= chi2_r + 1e-8

    def test_null_calibration_light(self, one_factor_params, one_factor_spec):
        rejections = 0
        reps = 120
        for rep in range(reps):
            rng = np.random.default_rng(1000 + rep)
            data = simulate_data(one_factor_params, 400, rng)
            fit = fit_ml(data, one_factor_spec)
            if not fit.converged:
                continue
            _, _, p = lr_chi2(fit, data)
            rejections += p < 0.05
        # 99% band for 120 replications at alpha = .05 is about +/- .051
        assert rejections / reps == pytest.approx(0.05, abs=0.052)


class TestFitIndices:
    def test_saturated_fit_pins_indices(self, saturated_case):
        fit, data = saturated_case
        cfi, tli, srmr, rmsea = fit_indices(fit, data)
        assert srmr == pytest.approx(0.0, abs=1e-5)
        assert rmsea == 0.0

    def test_srmr_zero_iff_moments_match(self, one_factor_params, one_factor_spec):
        rng = np.random.default_rng(3)
        data = exact_moment_sample(one_factor_params, 500, rng)
        fit = fit_ml(data, one_factor_spec)
        assert fit.converged
        _, _, srmr, _ = fit_indices(fit, data)
        assert srmr < 1e-6
        # and on ordinary sampled data it is strictly positive
        noisy = simulate_data(one_factor_params, 500, rng)
        fit2 = fit_ml(noisy, one_factor_spec)
        _, _, srmr2, _ = fit_indices(fit2, noisy)
        assert srmr2 > 1e-4

    def test_good_fit_on_correct_model(self, one_factor_params, one_factor_spec):
        data = simulate_data(one_factor_params, 1000, np.random.default_rng(77))
        fit = fit_ml(data, one_factor_spec)
        report = baseline_report(fit, data)
        assert report.cfi > 0.97
        assert report.rmsea < 0.05
        assert report.srmr < 0.05
        assert report.df == 6 * (6 + 3) // 2 - 18  # m(m+3)/2 - q


def test_report_forms_the_moments_once(saturated_case, monkeypatch):
    # one pass over the data for S, made with the DataMatrix, and one
    # log-determinant of S per report, and the same numbers as the two
    # public parts
    from factorgof import estimate

    fit, data = saturated_case
    want = lr_chi2(fit, data) + fit_indices(fit, data)
    calls = []
    moments, slogdet = estimate._sample_moments, np.linalg.slogdet
    monkeypatch.setattr(estimate, "_sample_moments",
                        lambda Y: calls.append("moments") or moments(Y))
    monkeypatch.setattr(np.linalg, "slogdet", lambda S: calls.append("slogdet") or slogdet(S))
    report = baseline_report(fit, DataMatrix(data.values))
    assert calls == ["moments", "slogdet"]
    got = (report.chi2, report.df, report.p, report.cfi, report.tli, report.srmr, report.rmsea)
    assert np.array_equal(got, want, equal_nan=True)
