"""Estimation: packing, scores, fitting, information, simulation."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from factorgof import (
    ConfigurationError,
    DataError,
    DegenerateCovarianceError,
    DataMatrix,
    FitResult,
    IdentificationError,
    ModelSpec,
    OptimOptions,
    ParamSet,
    SpecificationError,
    fit_ml,
    log_likelihood,
    score,
    score_rows,
    simulate_data,
)
import factorgof
from factorgof import estimate
from factorgof.estimate import (
    ParamMapping,
    _block_inverse,
    _check_conditioning,
    _covariance_hessian,
    _expected_terms,
    _mean_loglik,
    _mean_loglik_grad,
    _moment_terms,
    _slopes,
)
from factorgof.model import marginal_logpdf
from factorgof.residuals import _FitConstants
from factorgof.simstudy import (
    Study1Config,
    Study2Config,
    model_spec_study1,
    model_spec_study2,
    replication,
)

from conftest import (
    dense_hessian,
    invert_information,
    random_admissible_free_vector,
    reference_score_rows,
)


class TestDataMatrix:
    def test_rejects_overflowing_variance(self):
        # one entry of 1e200 overflows its column's sample variance: the
        # error names that column, with no overflow warning on the way
        vals = np.random.default_rng(0).normal(size=(20, 3))
        vals[4, 1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="column b has an overflowing sample variance"):
                DataMatrix(vals, column_names=["a", "b", "c"])

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

    def test_moments_are_formed_once_with_the_sample_moments_bits(self, one_factor_spec,
                                                                  monkeypatch):
        # the mean and the divisor-n covariance, made at construction with
        # the bits of _sample_moments and read-only; neither the fit nor its
        # start passes over the rows again
        vals = np.random.default_rng(3).normal(size=(400, 6)) * [1.0, 10.0, 1e-3, 2.0, 5.0, 1.0]
        dm = DataMatrix(vals + 7.0)
        ybar, S = estimate._sample_moments(vals + 7.0)
        assert dm.ybar.tobytes() == ybar.tobytes() and dm.S.tobytes() == S.tobytes()
        assert not dm.ybar.flags.writeable and not dm.S.flags.writeable
        calls = []
        moments = estimate._sample_moments
        monkeypatch.setattr(estimate, "_sample_moments",
                            lambda Y: calls.append(len(Y)) or moments(Y))
        fit_ml(dm, one_factor_spec)
        ParamMapping(one_factor_spec).start_values(dm)
        assert calls == []
        DataMatrix(vals)
        assert calls == [400]


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
            # the correlation entries are phi_ab themselves, copied both ways
            assert mapping.pack(params)[mapping.phi_slice].tobytes() == \
                v[mapping.phi_slice].tobytes()
            assert params.phi[mapping.phi_rows, mapping.phi_cols].tobytes() == \
                v[mapping.phi_slice].tobytes()

    @pytest.mark.parametrize("d,entries", [(2, [1.5]), (2, [-1.0]), (3, [-0.6, -0.6, -0.6])],
                             ids=["d2-above-one", "d2-at-minus-one", "d3-equicorrelated"])
    def test_unpack_rejects_non_pd_phi(self, d, entries, rng):
        # each |phi_ab| of the d = 3 case is below 1, but the equicorrelation
        # matrix with rho = -0.6 has the eigenvalue 1 + 2 rho < 0; the fit's
        # terms refuse the same vector, so its line search rejects the trial
        pattern = np.zeros((3 * d, d), dtype=int)
        pattern[np.arange(3 * d), np.arange(3 * d) % d] = 1
        mapping = ParamMapping(ModelSpec(m=3 * d, d=d, loading_pattern=pattern))
        v = random_admissible_free_vector(mapping, rng)
        v[mapping.phi_slice] = entries
        with pytest.raises(DegenerateCovarianceError, match="phi is not positive definite"):
            mapping.unpack(v)
        Y = rng.normal(size=(50, 3 * d))
        with pytest.raises(DegenerateCovarianceError, match="phi is not positive definite"):
            _moment_terms(v, mapping, *_sufficient_statistics(Y))

    def test_masked_entries_stay_zero(self, two_factor_spec, rng):
        mapping = ParamMapping(two_factor_spec)
        params = mapping.unpack(random_admissible_free_vector(mapping, rng))
        mask = two_factor_spec.loading_pattern == 0
        assert (params.lam[mask] == 0).all()


class TestScore:
    @pytest.mark.parametrize("case", ["one", "two", "d3", "d3-no-mean", "study1"])
    def test_matches_finite_differences(self, case, rng, one_factor_spec, two_factor_spec):
        specs = {"one": one_factor_spec, "two": two_factor_spec}
        spec = specs[case] if case in specs else _hessian_case_spec(case)
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

    def test_draws_of_a_study1_fit_match_the_reference_bits(self):
        # the kernel forms each row's score from the fit's own quantities, bit
        # for bit as the row-by-row reference does; the reference forms the
        # correlation column through the constant slab dphi/dphi_ab, the
        # kernel as V_a V_b - (lambda'Sigma^-1 lambda)_ab
        _, fit = replication(Study1Config(n=1000, misspecified=True), 77, 1)
        draws = simulate_data(fit.params, 10_000, np.random.default_rng(1)).values
        got = score_rows(fit.params, fit.mapping, draws)
        assert got.tobytes() == reference_score_rows(fit.params, fit.mapping, draws).tobytes()

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

    def test_observed_information_inverse_is_the_public_one(self, two_factor_params,
                                                           two_factor_spec):
        # at nu = ybar the final Hessian is block diagonal, and the fit
        # inverts it block by block: Sigma = L L' from the final iterate's
        # Cholesky factor on the intercepts, and what the reference inverse
        # (``spd_inverse`` of the Cholesky factor) gives on minus its
        # covariance block, bit for bit; the inverse of
        # minus the dense Hessian agrees to rounding
        data = simulate_data(two_factor_params, 800, np.random.default_rng(8))
        fit = fit_ml(data, two_factor_spec)
        ybar, S = _sufficient_statistics(data.values)
        nu, c = fit.mapping.nu_slice, fit.mapping.cov_slice
        L = _moment_terms(fit.free_vector, fit.mapping, ybar, S).L
        hess = _covariance_block(fit.free_vector, fit.mapping, ybar, S)
        inv = fit.inv_observed_information
        assert inv[nu, nu].tobytes() == (L @ L.T).tobytes()
        assert inv[c, c].tobytes() == invert_information(-hess).tobytes()
        assert not inv[nu, c].any() and not inv[c, nu].any()
        assert np.array_equal(inv, inv.T)
        info = -dense_hessian(fit.free_vector, fit.mapping, ybar, S)
        np.testing.assert_allclose(inv, invert_information(info), rtol=0,
                                   atol=1e-12 * np.abs(inv).max())

    def test_observed_inverse_is_formed_on_first_read(self, two_factor_params,
                                                       two_factor_spec, monkeypatch):
        # the fit keeps its final terms and Hessian and inverts the observed
        # information only when it is read, to the bits of the inverse
        # formed at once from the final iterate, and keeps it; a replaced
        # fit carries the array and not the state
        data = simulate_data(two_factor_params, 800, np.random.default_rng(8))
        calls = []
        monkeypatch.setattr(estimate, "_block_inverse",
                            lambda *args: calls.append(1) or _block_inverse(*args))
        fit = fit_ml(data, two_factor_spec)
        assert calls == []
        mapping = fit.mapping
        t = _moment_terms(fit.free_vector, mapping, data.ybar, data.S)
        eager = _block_inverse(mapping, t.L, _covariance_hessian(mapping, t, _slopes(mapping, t)))
        inv = fit.inv_observed_information
        assert calls == [1] and inv.tobytes() == eager.tobytes()
        assert fit.inv_observed_information is inv and calls == [1]
        moved = dataclasses.replace(fit)
        assert moved._final is None and moved.inv_observed_information is inv

    @pytest.mark.parametrize("cfg", [Study1Config(n=300, misspecified=True),
                                     Study2Config(n=300, misspecified=True)])
    def test_rejection_study_forms_no_observed_inverse(self, cfg, monkeypatch):
        from factorgof.simstudy import run_rejection_study

        calls = []
        monkeypatch.setattr(estimate, "_block_inverse",
                            lambda *args: calls.append(1) or _block_inverse(*args))
        table = run_rejection_study(cfg, reps=3, seed=5)
        assert table.converged_reps == 3 and calls == []

    def test_two_factor_terms_take_no_factor_of_phi(self, two_factor_params, two_factor_spec,
                                                    monkeypatch):
        # at d = 2 the fit's bound |phi_12| <= _PHI_MAX keeps phi positive
        # definite: the fit's terms factor Sigma alone
        data = simulate_data(two_factor_params, 800, np.random.default_rng(8))
        mapping = ParamMapping(two_factor_spec)
        sizes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: sizes.append(len(a)) or cholesky(a))
        _moment_terms(mapping.pack(two_factor_params), mapping, data.ybar, data.S)
        assert sizes == [8]

    @pytest.mark.parametrize("seed", range(8))
    def test_rotationally_unidentified_fit_flagged(self, two_factor_params, seed):
        # every loading free on both factors: the likelihood is flat along
        # rotations, so the fit must fail the identification check.  Near
        # the flat ridge -H does not factor by Cholesky, so the iteration
        # steps with its eigenvalues floored; it must still meet its
        # gradient criterion within 25 iterations (an identified fit
        # takes 3), on the ridge rather than at a saddle, and
        # come back unconverged instead of raising
        data, fit = _unidentified_fit(two_factor_params, seed)
        assert not fit.converged
        assert fit.gradient_norm < estimate._GTOL
        assert any(w.startswith(("hessian:", "observed information:")) for w in fit.warnings)
        assert fit.inv_observed_information is None
        assert fit.n_iter <= 25
        hess = _covariance_block(fit.free_vector, fit.mapping,
                                 *_sufficient_statistics(data.values))
        eigs = np.linalg.eigvalsh(-hess)
        assert eigs[0] >= -1e-6 * np.abs(eigs).max()

    def test_unidentified_fit_stable_under_last_bit_hessian_changes(self, two_factor_params,
                                                                    monkeypatch):
        # a symmetric change of 1e-15 max|H| to every Hessian of the
        # iteration leaves the iteration count bounded, the converged flag
        # and the kinds of warning as they were
        exact = estimate._covariance_hessian
        for seed in range(8):
            _, fit = _unidentified_fit(two_factor_params, seed)
            size = fit.mapping.q - fit.mapping.cov_slice.start
            E = np.random.default_rng(seed).standard_normal((size, size))
            E = (E + E.T) / 2

            def perturbed(*args):
                H = exact(*args)
                return H + 1e-15 * np.abs(H).max() * E

            with monkeypatch.context() as patch:
                patch.setattr(estimate, "_covariance_hessian", perturbed)
                _, moved = _unidentified_fit(two_factor_params, seed)
            assert moved.n_iter <= 25
            assert moved.converged == fit.converged
            assert ([w.split(":")[0] for w in moved.warnings]
                    == [w.split(":")[0] for w in fit.warnings])

    @pytest.mark.parametrize("design", [Study1Config, Study2Config])
    @pytest.mark.parametrize("misspecified", [False, True])
    def test_newton_agrees_with_lbfgsb(self, design, misspecified):
        # an independent L-BFGS-B fit of the same mean log-likelihood, with
        # the fit's own convergence rules applied to its solution
        for rep in range(3):
            data, fit = replication(design(n=200, misspecified=misspecified), 41, rep)
            v_ref, converged_ref = _lbfgsb_reference(data, fit.mapping)
            np.testing.assert_allclose(fit.free_vector, v_ref, rtol=0, atol=1e-5)
            assert fit.converged == converged_ref
            assert fit.n_iter <= 10

    def test_near_zero_unique_variance_stops_at_floor(self, one_factor_spec):
        # item 0 has unique variance 0.02 of 1; on this sample of 60 rows the
        # likelihood keeps rising as it shrinks, so its log error variance
        # ends held at the bound, where the L-BFGS-B reference ends too
        params = ParamSet(nu=np.zeros(6), lam=np.array([0.99, 0.6, 0.5, 0.4, 0.5, 0.6]),
                          phi=np.eye(1), theta=np.array([0.02, 0.64, 0.75, 0.84, 0.75, 0.64]))
        data = simulate_data(params, 60, np.random.default_rng(1))
        fit = fit_ml(data, one_factor_spec)
        assert not fit.converged
        assert fit.warnings == ["heywood: error variance at or near the floor for items [0]"]
        assert fit.free_vector[fit.mapping.u_slice][0] == np.log(estimate._THETA_FLOOR)
        assert fit.n_iter < OptimOptions().max_iter
        v_ref, _ = _lbfgsb_reference(data, fit.mapping)
        np.testing.assert_allclose(fit.free_vector, v_ref, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("seed,interior", [(100, True), (101, False), (102, False),
                                               (103, True)])
    def test_factors_that_are_one(self, seed, interior):
        # two factors with correlation 0.999: on seeds 101 and 102 the
        # likelihood still rises along phi at |phi| = 1 - 1e-6, where the fit
        # holds phi at the bound and warns, as the L-BFGS-B reference
        # ends; on seeds 100 and 103 the estimate (0.992, 0.998) is interior
        lam = 0.7 * np.kron(np.eye(2), np.ones((4, 1)))
        params = ParamSet(nu=np.zeros(8), lam=lam, phi=np.array([[1.0, 0.999], [0.999, 1.0]]),
                          theta=np.full(8, 0.51))
        data = simulate_data(params, 300, np.random.default_rng(seed))
        fit = fit_ml(data, ModelSpec(m=8, d=2, loading_pattern=(lam != 0).astype(int)))
        assert fit.n_iter <= 10
        assert fit.converged == interior
        phi = fit.params.phi[1, 0]
        if interior:
            assert fit.warnings == []
            assert 0.99 < phi < estimate._PHI_MAX
        else:
            # phi held at the bound is the one cause, warned once; its
            # outward gradient is not a distance from a first-order point
            assert phi == estimate._PHI_MAX
            assert fit.warnings == ["correlation: factor correlation at the bound for [(1, 0)]"]
            assert fit.gradient_norm < 1e-6
        v_ref, converged_ref = _lbfgsb_reference(data, fit.mapping)
        assert converged_ref == interior
        np.testing.assert_allclose(fit.free_vector, v_ref, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("seed", [26, 250, 357])
    def test_error_variance_near_the_floor_is_heywood(self, seed):
        # one-factor, three-item fits whose smallest error variance stops
        # above the floor but below 1e-6 of its item's sample variance,
        # where its log-theta gradient already passes the gradient test:
        # each is a Heywood case, not a converged fit
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.05, 0.95, 3)
        params = ParamSet(nu=np.zeros(3), lam=lam[:, None], phi=np.eye(1),
                          theta=1.0 - lam**2 + 0.05)
        data = simulate_data(params, 200, rng)
        fit = fit_ml(data, ModelSpec(m=3, d=1, loading_pattern=np.ones((3, 1), dtype=int)))
        theta = fit.params.theta
        ratio = theta / _sufficient_statistics(data.values)[1].diagonal()
        j = int(np.argmin(ratio))
        assert theta[j] > estimate._THETA_FLOOR * (1.0 + 1e-8)
        assert ratio[j] < 1e-6
        assert fit.gradient_norm < estimate._GTOL
        assert not fit.converged
        assert fit.warnings == [f"heywood: error variance at or near the floor for items [{j}]"]

    @pytest.mark.parametrize("item", [0, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_duplicated_item_is_one_heywood_case(self, two_factor_params, seed, item):
        # a one-factor fit of four items and a copy of one of them: both
        # copies' log error variances end held at the floor with an outward
        # gradient.  That is a first-order point of the bounded problem, so
        # the projected gradient is small, the Hessian check on the entries
        # not held passes, and the Heywood case is the only warning.  Seed 4
        # with a copy of item 2 once ran to max_iter on line-search steps
        # that rounded to no move; it takes 97 iterations
        fit = _duplicated_item_fit(two_factor_params, seed, item)
        assert not fit.converged
        assert fit.warnings == [f"heywood: error variance at or near the floor for items "
                                f"[{item}, 4]"]
        assert fit.gradient_norm < estimate._GTOL
        assert fit.inv_observed_information is None
        assert fit.n_iter <= (100 if (seed, item) == (4, 2) else 250)

    @pytest.mark.parametrize("seed", [101, 104])
    def test_three_factors_two_of_which_are_one(self, seed):
        # factors 0 and 1 correlate 0.999: on these seeds the fit ends short
        # of the gradient test where no step raises the likelihood, instead
        # of running to max_iter on steps that do not move
        fit = _three_factor_fit(seed)
        assert not fit.converged
        assert fit.n_iter <= 30

    @pytest.mark.parametrize("seed,singular", [(100, False), (101, True), (103, False),
                                               (104, True), (105, False)])
    def test_singular_factor_correlations_are_warned(self, seed, singular):
        # no pair is held at the bound, but on seeds 101 and 104 the fit
        # ends where the three factors' correlation matrix is singular: it
        # says so, with the gradient warning; the interior fits keep none
        fit = _three_factor_fit(seed)
        min_eig = np.linalg.eigvalsh(fit.params.phi)[0]
        assert (np.abs(fit.params.phi[np.tril_indices(3, -1)]) < estimate._PHI_MAX).all()
        if singular:
            assert not fit.converged
            assert min_eig <= 1.0 - estimate._PHI_MAX
            assert fit.warnings[0].startswith("gradient:")
            assert fit.warnings[1:] == [f"correlation: factor correlation matrix singular "
                                        f"(min eig {min_eig:.3g})"]
        else:
            assert fit.converged and fit.warnings == []
            assert min_eig > 1e-3

    def test_replaced_free_vector_moves_params(self, one_factor_params, one_factor_spec):
        # params and spec are read from the free vector and the mapping, so
        # a copy with another free vector describes that vector's model
        fit = fit_ml(simulate_data(one_factor_params, 400, np.random.default_rng(5)),
                     one_factor_spec)
        v = fit.free_vector.copy()
        v[fit.mapping.lam_slice] *= -1.0
        moved = dataclasses.replace(fit, free_vector=v)
        assert moved.params.lam.tobytes() == fit.mapping.unpack(v).lam.tobytes()
        assert moved.params.lam.tobytes() == (-fit.params.lam).tobytes()
        assert moved.params.theta.tobytes() == fit.params.theta.tobytes()
        assert moved.spec is fit.spec is one_factor_spec

    def test_default_fit_draws_nothing(self, one_factor_params, one_factor_spec, monkeypatch):
        data = simulate_data(one_factor_params, 400, np.random.default_rng(5))

        def refuse(*args, **kwargs):
            raise AssertionError("fit_ml drew model data")

        monkeypatch.setattr(estimate, "simulate_data", refuse)
        fit = fit_ml(data, one_factor_spec)
        assert fit.converged
        assert fit.inv_observed_information is not None


class TestStart:
    """The principal-axis start and the closing Newton step."""

    @pytest.mark.parametrize("design", [Study1Config, Study2Config])
    def test_bundled_fits_take_three_iterations(self, design):
        # two Newton steps from the start meet the gradient test and one
        # more closes the fit, at a gradient near rounding
        for misspecified in (False, True):
            for rep in range(20):
                _, fit = replication(design(n=1000, misspecified=misspecified), 77, rep)
                assert fit.converged
                assert fit.n_iter == 3
                assert fit.gradient_norm < 1e-12

    @pytest.mark.parametrize("design", [Study1Config, Study2Config])
    @pytest.mark.parametrize("a", [0.1, 10.0])
    def test_rescaled_item_scales_start_and_fit(self, design, a):
        # multiplying item 3 by a multiplies its intercept and loading by a
        # and its error variance by a^2, in the start and in the fit, and
        # leaves every other entry as it was
        data, fit = replication(design(n=1000, misspecified=True), 77, 0)
        mapping = fit.mapping
        values = data.values.copy()
        values[:, 3] *= a
        scaled = DataMatrix(values)
        scale = np.ones(mapping.q)
        if mapping.spec.mean_structure:
            scale[mapping.nu_slice.start + 3] = a
        scale[mapping.lam_slice.start + np.flatnonzero(mapping.lam_rows == 3)] = a
        shift = np.zeros(mapping.q)
        shift[mapping.u_slice.start + 3] = 2.0 * np.log(a)
        for original, moved in ((mapping.start_values(data), mapping.start_values(scaled)),
                                (fit.free_vector, fit_ml(scaled, fit.spec).free_vector)):
            np.testing.assert_allclose((moved - shift) / scale, original, rtol=1e-12,
                                       atol=1e-12)

    def test_row_permutation_leaves_start_unchanged(self):
        data, fit = replication(Study1Config(n=1000, misspecified=True), 77, 0)
        perm = np.random.default_rng(5).permutation(data.n)
        np.testing.assert_allclose(fit.mapping.start_values(DataMatrix(data.values[perm])),
                                   fit.mapping.start_values(data), rtol=0, atol=1e-12)

    def test_closing_step_that_raises_the_gradient_is_not_kept(self):
        # three items, one with a loading near 0: the likelihood is nearly
        # flat along a ridge, and the full Newton step from below the
        # tolerance would land at a gradient of 1.6e-5, so the fit keeps
        # the iterate before it
        rng = np.random.default_rng(11)
        lam = rng.uniform(0.05, 0.95, 3)
        params = ParamSet(nu=np.zeros(3), lam=lam[:, None], phi=np.eye(1),
                          theta=1.0 - lam**2 + 0.05)
        data = simulate_data(params, 100, rng)
        fit = fit_ml(data, ModelSpec(m=3, d=1, loading_pattern=np.ones((3, 1), dtype=int)))
        assert fit.converged
        assert fit.gradient_norm < 1e-6

    @pytest.mark.parametrize("case", ["cross-loading", "two-item factor", "all free",
                                      "duplicated column"])
    def test_fallback_is_the_default_start(self, case, two_factor_params):
        # where the principal-axis start does not apply, the fit starts
        # where it always did, bit for bit, and fits without raising: the
        # converged flags and kinds of warning are the ones that start gives
        Y = simulate_data(two_factor_params, 1000, np.random.default_rng(3)).values
        pattern = np.zeros((8, 2), dtype=int)
        pattern[:4, 0] = pattern[4:, 1] = 1
        if case == "cross-loading":
            pattern[0, 1] = 1
            want = (True, [])
        elif case == "two-item factor":
            pattern[4:6] = [1, 0]
            want = (False, ["hessian"])
        elif case == "all free":
            pattern[:] = 1
            want = (False, ["hessian"])
        else:
            # a copy of item 2: a singular correlation matrix whose Cholesky
            # factor can exist with a pivot of order 1e-16; both copies end
            # held at the floor, one Heywood case
            Y = np.column_stack([Y[:, :4], Y[:, 2]])
            pattern = np.ones((5, 1), dtype=int)
            want = (False, ["heywood"])
        data = DataMatrix(Y)
        mapping = ParamMapping(ModelSpec(m=len(pattern), d=pattern.shape[1],
                                         loading_pattern=pattern))
        assert mapping.start_values(data).tobytes() == _default_start(mapping, Y).tobytes()
        fit = fit_ml(data, mapping.spec)
        assert (fit.converged, [w.split(":")[0] for w in fit.warnings]) == want


def _default_start(mapping, Y):
    """Every loading at half its item's sample SD, every error variance at
    half its sample variance (divisor n - 1), phi at I, nu at ybar."""
    var = Y.var(axis=0, ddof=1)
    v = np.empty(mapping.q)
    if mapping.spec.mean_structure:
        v[mapping.nu_slice] = Y.mean(axis=0)
    v[mapping.lam_slice] = 0.5 * np.sqrt(var)[mapping.lam_rows]
    v[mapping.phi_slice] = 0.0
    v[mapping.u_slice] = np.log(0.5 * var)
    return v


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
    def test_zero_loadings_not_identified(self):
        # at zero loadings the loadings and the log error variances do not
        # separate: the exact information fails the conditioning check that
        # the fit and the residual engine apply to it
        spec = ModelSpec(m=4, d=1, loading_pattern=np.ones((4, 1), dtype=int))
        params = ParamSet(nu=np.zeros(4), lam=np.zeros((4, 1)), phi=np.eye(1),
                          theta=np.ones(4))
        with pytest.raises(IdentificationError):
            _check_conditioning(np.linalg.eigvalsh(_expected_information(params, spec)))
        mapping = ParamMapping(spec)
        fit = FitResult(mapping=mapping, free_vector=mapping.pack(params), loglik=0.0,
                        converged=True, gradient_norm=0.0, n_iter=0)
        with pytest.raises(IdentificationError):
            _FitConstants(fit)


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


def _duplicated_item_fit(params, seed, item):
    """The one-factor fit of the first four items of 1000 rows drawn from
    ``params`` and a copy of item ``item`` as a fifth."""
    Y = simulate_data(params, 1000, np.random.default_rng(seed)).values
    return fit_ml(DataMatrix(np.column_stack([Y[:, :4], Y[:, item]])),
                  ModelSpec(m=5, d=1, loading_pattern=np.ones((5, 1), dtype=int)))


def _three_factor_fit(seed):
    """The three-factor fit of 300 rows from a model whose factors 0 and 1
    correlate 0.999."""
    lam = 0.7 * np.kron(np.eye(3), np.ones((4, 1)))
    phi = np.array([[1.0, 0.999, 0.4], [0.999, 1.0, 0.42], [0.4, 0.42, 1.0]])
    params = ParamSet(nu=np.zeros(12), lam=lam, phi=phi, theta=np.full(12, 0.51))
    data = simulate_data(params, 300, np.random.default_rng(seed))
    return fit_ml(data, ModelSpec(m=12, d=3, loading_pattern=(lam != 0).astype(int)))


def _unidentified_fit(params, seed):
    """1000 rows drawn from ``params``, a two-factor model with four items
    per factor, and the fit to them of every loading free on both factors."""
    data = simulate_data(params, 1000, np.random.default_rng(seed))
    return data, fit_ml(data, ModelSpec(m=8, d=2, loading_pattern=np.ones((8, 2), dtype=int)))


def _lbfgsb_reference(data, mapping):
    """L-BFGS-B maximizer of the mean log-likelihood, and whether it passes
    the fit's convergence rules: gradient, no Heywood case, and an observed
    information that is positive definite and inverts."""
    ybar, S = _sufficient_statistics(data.values)

    def objective(v):
        with np.errstate(over="ignore"):
            try:
                f, g = _mean_loglik_and_grad(v, mapping, ybar, S)
            except SpecificationError:
                return np.inf, np.zeros_like(v)
        return -f, -g

    gtol, floor, phi_max = estimate._GTOL, estimate._THETA_FLOOR, estimate._PHI_MAX
    bounds = [(None, None)] * mapping.q
    for i in range(mapping.phi_slice.start, mapping.phi_slice.stop):
        bounds[i] = (-phi_max, phi_max)
    for i in range(mapping.u_slice.start, mapping.u_slice.stop):
        bounds[i] = (np.log(floor), None)
    res = minimize(objective, mapping.start_values(data), jac=True, method="L-BFGS-B",
                   bounds=bounds, options={"maxiter": 500, "maxls": 50, "ftol": 1e-13,
                                           "gtol": min(1e-6, 0.1 * gtol)})
    v = res.x
    g = _mean_loglik_and_grad(v, mapping, ybar, S)[1]
    theta = np.exp(v[mapping.u_slice])
    converged = (np.abs(g).max() < gtol and (theta > floor * (1.0 + 1e-8)).all()
                 and (theta > estimate._NEAR_FLOOR * np.diag(S)).all()
                 and (np.abs(v[mapping.phi_slice]) < phi_max).all())
    try:
        invert_information(-dense_hessian(v, mapping, ybar, S))
    except IdentificationError:
        converged = False
    return v, converged


def test_line_search_rejects_a_step_that_does_not_move(one_factor_params, one_factor_spec):
    # a step below half an ulp of v leaves every trial at v, where f does
    # not rise: no trial is accepted, so the iteration ends there
    data = simulate_data(one_factor_params, 200, np.random.default_rng(3))
    mapping = ParamMapping(one_factor_spec)
    ybar, S = _sufficient_statistics(data.values)
    v = mapping.start_values(data)
    t = _moment_terms(v, mapping, ybar, S)
    g = _mean_loglik_grad(mapping, t, _slopes(mapping, t))[mapping.cov_slice]
    vc = v[mapping.cov_slice]
    step = 0.25 * np.spacing(vc) * np.sign(g)
    assert (step != 0.0).all() and (vc + step == vc).all()
    lo, hi = np.full(len(g), -np.inf), np.full(len(g), np.inf)
    assert estimate._line_search(mapping, ybar, S, v, _mean_loglik(t), g, step, lo, hi) is None


def test_ascent_step_newton_then_floored_eigen():
    # entry 2 is held, and its row and column of H are ignored.  Where -H
    # is positive definite on the free entries the step is the Cholesky
    # solve bit for bit, reported as Newton's; where it is indefinite
    # there, each eigenvalue is floored at 1e-4 of the largest
    # |eigenvalue|, here 4, and the step is reported as not Newton's
    g = np.array([1.0, -2.0, 5.0])
    free = np.array([True, True, False])

    def step_of(hess):
        step = np.zeros(3)
        step[free], newton = estimate._ascent_step(hess, g, free)
        return step, newton

    hess = -np.array([[3.0, 1.0, 7.0], [1.0, 4.0, -2.0], [7.0, -2.0, -1.0]])
    L = np.linalg.cholesky(-hess[:2, :2])
    newton = np.linalg.solve(L.T, np.linalg.solve(L, g[:2]))
    step, is_newton = step_of(hess)
    assert is_newton
    assert step.tobytes() == np.append(newton, 0.0).tobytes()
    hess = -np.array([[3.0, 0.0, 7.0], [0.0, -4.0, -2.0], [7.0, -2.0, -1.0]])
    step, is_newton = step_of(hess)
    assert not is_newton
    np.testing.assert_allclose(step[:2], [1 / 3, -5000.0], rtol=1e-12)
    assert step[2] == 0.0


def test_import_leaves_out_scipy_optimize():
    # the runtime needs numpy only, so importing the package and its command
    # line loads neither scipy.optimize nor any other scipy module
    path = os.pathsep.join([os.path.dirname(os.path.dirname(factorgof.__file__)),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, factorgof, factorgof.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


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


def _mean_loglik_and_grad(v, mapping, ybar, S):
    """Mean log-likelihood and its gradient from sufficient statistics."""
    t = _moment_terms(v, mapping, ybar, S)
    return _mean_loglik(t), _mean_loglik_grad(mapping, t, _slopes(mapping, t))


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


def _covariance_block(v, mapping, ybar, S):
    """The covariance block of the mean log-likelihood's Hessian at v."""
    t = _moment_terms(v, mapping, ybar, S)
    return _covariance_hessian(mapping, t, _slopes(mapping, t))


def _expected_information(params, spec):
    """The exact information at ``params``: minus the dense Hessian at
    ybar = nu and S = Sigma."""
    mapping = ParamMapping(spec)
    return -dense_hessian(mapping.pack(params), mapping, params.nu,
                          params.implied_covariance())


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
        assert mapping.phi_slice.stop - mapping.phi_slice.start == 3
    for _ in range(3):
        # random points away from the optimum: nu differs from the sample mean
        v = random_admissible_free_vector(mapping, rng)
        ybar, S = _sufficient_statistics(rng.normal(0.3, 1.2, size=(60, spec.m)))
        H = _covariance_block(v, mapping, ybar, S)
        fd = _fd_hessian(v, mapping, ybar, S)[mapping.cov_slice, mapping.cov_slice]
        assert np.abs(H - fd).max() <= 1e-7 * np.abs(fd).max()
        np.testing.assert_array_equal(H, H.T)


@pytest.mark.parametrize("case", ["d1", "d2", "d3", "d3-no-mean", "study1", "study2"])
def test_hessian_matches_dense_reference(case, rng):
    # the gathered rank-2 covariance block against the (q, m, m) dSigma
    # stack, at random points where delta = ybar - nu is nonzero (so the
    # reference's intercept cross block is live, and without a mean
    # structure S* = S + ybar ybar')
    spec = _hessian_case_spec(case)
    mapping = ParamMapping(spec)
    c = mapping.cov_slice
    for _ in range(3):
        v = random_admissible_free_vector(mapping, rng)
        ybar, S = _sufficient_statistics(rng.normal(0.3, 1.2, size=(60, spec.m)))
        H = _covariance_block(v, mapping, ybar, S)
        ref = dense_hessian(v, mapping, ybar, S)
        if spec.mean_structure:
            assert np.abs(ref[mapping.nu_slice, c]).min() > 0
        assert np.abs(H - ref[c, c]).max() <= 1e-12 * np.abs(ref[c, c]).max()


@pytest.mark.parametrize("case", ["d1", "d2", "d3", "d3-no-mean", "study1", "study2"])
def test_expected_information_is_minus_the_dense_hessian(case, rng):
    # at ybar = nu and S = Sigma the intercept cross block vanishes, so the
    # exact information, Sigma^-1 on the intercepts beside minus the
    # expected covariance block, is minus the whole dense Hessian, and its
    # block-by-block inverse is that matrix's inverse
    spec = _hessian_case_spec(case)
    mapping = ParamMapping(spec)
    nu, c = mapping.nu_slice, mapping.cov_slice
    for _ in range(3):
        params = mapping.unpack(random_admissible_free_vector(mapping, rng))
        t, _, hess = _expected_terms(mapping.pack(params), mapping, params)
        ref = _expected_information(params, spec)
        assert not ref[nu, c].any()
        scale = np.abs(ref).max()
        assert np.abs(-hess - ref[c, c]).max() <= 1e-12 * scale
        if spec.mean_structure:
            assert np.abs(t.sig_inv - ref[nu, nu]).max() <= 1e-12 * scale
        inv = _block_inverse(mapping, t.L, hess)
        np.testing.assert_allclose(inv, invert_information(ref), rtol=0,
                                   atol=1e-10 * np.abs(inv).max())


@pytest.mark.parametrize("design", [Study1Config, Study2Config])
def test_intercepts_are_the_sample_mean(design):
    # nu-hat = ybar in closed form, bit for bit; there the dense Hessian's
    # intercept-covariance block is exactly zero, and the fit's
    # block-diagonal inverse information matches the full one
    for rep in range(2):
        data, fit = replication(design(n=300, misspecified=bool(rep)), 17, rep)
        assert fit.converged
        ybar, S = _sufficient_statistics(data.values)
        assert fit.params.nu.tobytes() == data.values.mean(axis=0).tobytes()
        H = dense_hessian(fit.free_vector, fit.mapping, ybar, S)
        c = fit.mapping.cov_slice
        assert not H[fit.mapping.nu_slice, c].any()
        hess = _covariance_block(fit.free_vector, fit.mapping, ybar, S)
        assert np.abs(hess - H[c, c]).max() <= 1e-12 * np.abs(H[c, c]).max()
        inv = fit.inv_observed_information
        np.testing.assert_allclose(inv, invert_information(-H), rtol=0,
                                   atol=1e-12 * np.abs(inv).max())

        spec = fit.spec
        no_mean = ModelSpec(m=spec.m, d=spec.d, loading_pattern=spec.loading_pattern,
                            mean_structure=False)
        free = fit_ml(DataMatrix(data.values - ybar), no_mean)
        assert free.converged
        assert not free.params.nu.any()
        np.testing.assert_allclose(free.free_vector, fit.free_vector[fit.mapping.cov_slice],
                                   rtol=0, atol=1e-8)


@pytest.mark.parametrize("design", [Study1Config, Study2Config])
def test_loglik_from_sufficient_statistics_matches_row_sum(design):
    # the fit reports n times the mean log-likelihood of its final iterate,
    # which must agree with the sum of the rows' log marginal densities,
    # with and without a mean structure (data means 0.3 for the latter)
    for rep in range(2):
        data, fit = replication(design(n=300, misspecified=bool(rep)), 23, rep)
        spec = fit.spec
        no_mean = ModelSpec(m=spec.m, d=spec.d, loading_pattern=spec.loading_pattern,
                            mean_structure=False)
        shifted = DataMatrix(data.values - data.values.mean(axis=0) + 0.3)
        for fit_, data_ in ((fit, data), (fit_ml(shifted, no_mean), shifted)):
            assert fit_.converged
            want = log_likelihood(fit_.params, data_)
            assert abs(fit_.loglik - want) <= 1e-12 * abs(want)


def test_hessian_at_fit_matches_finite_differences(two_factor_params, two_factor_spec):
    data = simulate_data(two_factor_params, 2000, np.random.default_rng(4))
    fit = fit_ml(data, two_factor_spec)
    assert fit.converged
    ybar, S = _sufficient_statistics(data.values)
    c = fit.mapping.cov_slice
    H = _covariance_block(fit.free_vector, fit.mapping, ybar, S)
    fd = _fd_hessian(fit.free_vector, fit.mapping, ybar, S)
    assert np.abs(H - fd[c, c]).max() <= 1e-8 * np.abs(fd[c, c]).max()
    ref = dense_hessian(fit.free_vector, fit.mapping, ybar, S)
    np.testing.assert_allclose(invert_information(-ref), fit.inv_observed_information,
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
    sign[mapping.phi_slice] = -1.0
    f, g = _mean_loglik_and_grad(v, mapping, ybar, S)
    f_flip, g_flip = _mean_loglik_and_grad(sign * v, mapping, ybar, S)
    assert f_flip == pytest.approx(f, rel=1e-12)
    np.testing.assert_allclose(g_flip, sign * g, rtol=0, atol=1e-10 * np.abs(g).max())
    H = _covariance_block(v, mapping, ybar, S)
    H_flip = _covariance_block(sign * v, mapping, ybar, S)
    sign = sign[mapping.cov_slice]
    np.testing.assert_allclose(H_flip, sign[:, None] * H * sign[None, :],
                               rtol=0, atol=1e-10 * np.abs(H).max())
