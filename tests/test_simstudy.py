"""Data-generating designs and the replication driver."""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from factorgof import (
    ConfigurationError,
    ModelSpec,
    NotConvergedError,
    OptimOptions,
    ParamMapping,
    Study1Config,
    Study2Config,
    default_grid,
    generate_study1,
    generate_study2,
    fit_ml,
    mv_homoscedasticity_problem,
    replication,
    run_rejection_study,
    run_residual_test,
    simulate_data,
    study1_paramset,
    study2_paramset,
)
from factorgof import simstudy
from factorgof.simstudy import RejectionTable, mixture_lv_logpdf, model_spec_study1, study2_dgp

from conftest import baseline_means


class TestStudy1Design:
    def test_error_variances_complement_communalities(self):
        p = study1_paramset()
        block = [0.7, 0.5, 0.3, 0.7, 0.5, 0.3, 0.7, 0.5, 0.3, 0.7]
        np.testing.assert_allclose(p.theta, block + block, atol=1e-12)
        sigma = p.implied_covariance()
        np.testing.assert_allclose(np.diag(sigma), 1.0, atol=1e-12)

    def test_arms_share_latent_moments(self):
        n = 1_000_000
        _, x_norm = generate_study1(Study1Config(n=n), np.random.default_rng(1), return_lv=True)
        _, x_mix = generate_study1(
            Study1Config(n=n, misspecified=True), np.random.default_rng(2), return_lv=True
        )
        target = np.array([[1.0, 0.2], [0.2, 1.0]])
        for x in (x_norm, x_mix):
            assert np.abs(x.mean(axis=0)).max() < 0.005
            assert np.abs(np.cov(x.T, ddof=1) - target).max() < 0.005

    def test_mixture_covariance_spec_value(self):
        _, x = generate_study1(
            Study1Config(n=200_000, misspecified=True), np.random.default_rng(3),
            return_lv=True,
        )
        np.testing.assert_allclose(
            np.cov(x.T, ddof=1), [[1.0, 0.2], [0.2, 1.0]], atol=0.01
        )

    def test_mixture_vs_normal_density_geometry(self):
        # box-count density estimates at probe points have the analytic sign
        # pattern: the normal exceeds the mixture at the origin, the mixture
        # exceeds the normal on the shoulders of the x1 axis
        n = 1_000_000
        _, x = generate_study1(
            Study1Config(n=n, misspecified=True), np.random.default_rng(4),
            return_lv=True,
        )
        half = 0.15
        probes = np.array([[0.0, 0.0], [1.2, 0.0], [-1.2, 0.0]])
        analytic_mix = np.exp(mixture_lv_logpdf(probes))
        phi = np.array([[1.0, 0.2], [0.2, 1.0]])
        inv = np.linalg.inv(phi)
        analytic_norm = np.array([
            np.exp(-0.5 * pt @ inv @ pt) / (2 * np.pi * np.sqrt(np.linalg.det(phi)))
            for pt in probes
        ])
        for pt, mix_ref, norm_ref in zip(probes, analytic_mix, analytic_norm):
            inside = (np.abs(x - pt) < half).all(axis=1)
            density = inside.mean() / (2 * half) ** 2
            se = np.sqrt(inside.mean() * (1 - inside.mean()) / n) / (2 * half) ** 2
            assert abs(density - mix_ref) < 4 * se
            assert np.sign(density - norm_ref) == np.sign(mix_ref - norm_ref)

    def test_correct_arm_delegates_to_model_simulation(self):
        cfg = Study1Config(n=50)
        a = generate_study1(cfg, np.random.default_rng(9)).values
        b = simulate_data(study1_paramset(), 50, np.random.default_rng(9)).values
        assert np.array_equal(a, b)


class TestStudy2Design:
    def test_dgp_tables(self):
        clean = study2_dgp(Study2Config(n=1))
        assert (clean["kappa"] == 0).all() and (clean["g1"] == 0).all()
        bad = study2_dgp(Study2Config(n=1, misspecified=True))
        assert bad["kappa"][7] == -0.1 and bad["kappa"][9] == -0.1
        assert bad["g1"][8] == 0.3 and bad["g1"][9] == 0.3
        np.testing.assert_allclose(bad["lam"][7:], np.sqrt(0.5))
        np.testing.assert_allclose(bad["g0"], np.log(bad["theta"]))

    def test_quadratic_item_binned_means(self):
        cfg = Study2Config(n=400_000, misspecified=True)
        data, x = generate_study2(cfg, np.random.default_rng(11), return_lv=True)
        y = data.values[:, 7]  # quadratic mean, constant variance
        near0 = np.abs(x) < 0.05
        near2 = np.abs(x - 2.0) < 0.05
        se0 = y[near0].std() / np.sqrt(near0.sum())
        se2 = y[near2].std() / np.sqrt(near2.sum())
        assert abs(y[near0].mean()) < 4 * se0 + 0.01
        expected = 2 * np.sqrt(0.5) - 0.1 * 4.0
        assert abs(y[near2].mean() - expected) < 4 * se2 + 0.01

    def test_logvar_item_binned_variance_ratio(self):
        cfg = Study2Config(n=400_000, misspecified=True)
        data, x = generate_study2(cfg, np.random.default_rng(12), return_lv=True)
        y = data.values[:, 8]  # linear mean, log-linear variance
        hi = np.abs(x - 1.0) < 0.05
        lo = np.abs(x + 1.0) < 0.05
        ratio = y[hi].var(ddof=1) / y[lo].var(ddof=1)
        assert abs(ratio / np.exp(0.6) - 1.0) < 0.15

    def test_correct_arm_delegates_to_model_simulation(self):
        cfg = Study2Config(n=80)
        a = generate_study2(cfg, np.random.default_rng(21)).values
        b = simulate_data(study2_paramset(), 80, np.random.default_rng(21)).values
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("misspecified", [False, True])
def test_generators_reject_nonpositive_n(n, misspecified):
    for generate, config in ((generate_study1, Study1Config), (generate_study2, Study2Config)):
        with pytest.raises(ConfigurationError, match="n must be positive"):
            generate(config(n=n, misspecified=misspecified), np.random.default_rng(0))


class TestRejectionStudy:
    def test_band_halfwidth_formula(self):
        table = RejectionTable(
            study="study2", misspecified=False, n=100, alpha=0.05, reps=500,
            converged_reps=500, excluded=0, M=1000, s=1, seed=0,
            grid_label="", summary_label="", batteries={},
        )
        assert table.band_halfwidth == pytest.approx(0.0191, abs=2e-4)

    def test_small_run_counts_and_determinism(self):
        cfg = Study2Config(n=150)
        kwargs = dict(reps=3, seed=99, M=1000, items=(1,))
        t1 = run_rejection_study(cfg, **kwargs)
        t2 = run_rejection_study(cfg, **kwargs)
        assert t1.converged_reps == 3 and t1.excluded == 0
        assert list(t1.batteries) == ["linearity[1]", "variance[1]"]
        for name, a in t1.batteries.items():
            b = t2.batteries[name]
            assert np.array_equal(a.point_rejections, b.point_rejections)
            assert np.array_equal(a.point_valid, b.point_valid)
            assert a.summary_rejections == b.summary_rejections
            assert a.summary_valid == b.summary_valid

    def test_raw_collection_shapes(self):
        cfg = Study2Config(n=150)
        table = run_rejection_study(cfg, reps=2, seed=7, M=1000, items=(1,), collect_raw=True)
        for name in ("linearity[1]", "variance[1]"):
            assert table.raw[name]["T"].shape == (2,)
            assert table.raw[name]["z"].shape == (2, 31)

    @pytest.mark.parametrize("cfg", [Study1Config(n=200), Study2Config(n=200, misspecified=True)])
    def test_replication_draws_from_the_first_child_seed(self, cfg):
        # replication r of master seed S draws its data from the first of
        # SeedSequence((S, r)).spawn(2), bit for bit: the derivation a
        # caller repeats to rebuild one replication from public calls
        generate = generate_study1 if isinstance(cfg, Study1Config) else generate_study2
        for rep in range(2):
            data, _ = replication(cfg, 31, rep)
            child = np.random.SeedSequence((31, rep)).spawn(2)[0]
            want = generate(cfg, np.random.default_rng(child)).values
            assert data.values.tobytes() == want.tobytes()

    def test_replication_reproduces_driver_report(self):
        cfg = Study2Config(n=150)
        table = run_rejection_study(cfg, reps=2, seed=7, M=1000, items=(1,), collect_raw=True)
        data, fit = replication(cfg, 7, 1)
        report = run_residual_test(mv_homoscedasticity_problem(default_grid(1), 1), fit, data)
        raw = table.raw["variance[1]"]
        assert report.summary.T == raw["T"][1]
        # the raw z is the report's z array, bit for bit, and so are its points
        assert raw["z"][1].tobytes() == report.z.tobytes()
        assert np.array([pt.z for pt in report.points]).tobytes() == report.z.tobytes()

    def test_misspecified_arm_srmr_stays_tiny(self):
        # item-level distortions barely move the covariance residuals
        base = baseline_means(Study2Config(n=1000, misspecified=True), reps=30, seed=606)
        assert abs(base["mean_srmr"] - 0.01) < 0.01

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a replication ran before alpha was checked")

        monkeypatch.setattr(simstudy, "generate_study2", refuse)
        with pytest.raises(ConfigurationError, match="alpha must lie in"):
            run_rejection_study(Study2Config(n=300), reps=2, seed=1, M=1000, alpha=alpha)

    @pytest.mark.parametrize("kwargs, names", [
        (dict(items=(1, 1)), "linearity[1], variance[1]"),
    ])
    def test_repeated_batteries_rejected(self, kwargs, names, monkeypatch):
        def refuse(*_, **__):
            raise AssertionError("a replication ran before the batteries were checked")

        monkeypatch.setattr(simstudy, "generate_study2", refuse)
        with pytest.raises(ConfigurationError, match=f"repeated batteries: {re.escape(names)}$"):
            run_rejection_study(Study2Config(n=300), reps=2, seed=1, M=1000, **kwargs)

    def test_all_replications_failing_raises(self, monkeypatch):
        # one Newton iteration leaves every fit short of the gradient test
        fit_ml = simstudy.fit_ml
        monkeypatch.setattr(simstudy, "fit_ml",
                            lambda data, spec: fit_ml(data, spec, OptimOptions(max_iter=1)))
        cfg = Study2Config(n=150)
        with pytest.raises(NotConvergedError, match="all 2 replications failed"):
            run_rejection_study(cfg, reps=2, seed=1, M=1000, items=(1,))


# Raw T, z and rejection counts of a few replications per arm of both
# designs, as one digest; run in this process and in a fresh interpreter.
_STUDY_BITS = """
import hashlib
import numpy as np
from factorgof import Study1Config, Study2Config, run_rejection_study


def study_bits():
    digest = hashlib.sha256()
    for cfg in (Study1Config(n=300), Study1Config(n=300, misspecified=True),
                Study2Config(n=300), Study2Config(n=300, misspecified=True)):
        table = run_rejection_study(cfg, reps=3, seed=41, items=(1, 7), collect_raw=True)
        for name, acc in table.batteries.items():
            for a in (table.raw[name]["T"], table.raw[name]["z"], acc.point_rejections,
                      acc.point_valid, [acc.summary_rejections, acc.summary_valid]):
                digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()
"""


def _fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(simstudy.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestSharedDesigns:
    """Each bundled design's spec, mapping, generating law and default grid
    are built once per process and shared, read-only."""

    def test_warm_and_cold_caches_give_the_same_bits(self):
        cold = _fresh_interpreter(_STUDY_BITS + "print(study_bits())")
        # warm every design's constants with other studies first
        for cfg in (Study1Config(n=200, misspecified=True), Study2Config(n=200)):
            run_rejection_study(cfg, reps=1, seed=3)
        namespace = {}
        exec(_STUDY_BITS, namespace)
        assert namespace["study_bits"]() == cold

    @pytest.mark.parametrize("cfg, pattern", [
        (Study1Config(n=1000, misspecified=True), np.kron(np.eye(2, dtype=int), np.ones((10, 1)))),
        (Study2Config(n=1000, misspecified=True), np.ones((10, 1), dtype=int)),
    ])
    def test_fit_through_the_shared_mapping_matches_a_fresh_one(self, cfg, pattern):
        data, fit = replication(cfg, 77, 0)
        assert fit.mapping is replication(cfg, 77, 1)[1].mapping
        spec = ModelSpec(m=pattern.shape[0], d=pattern.shape[1], loading_pattern=pattern)
        for fresh in (fit_ml(data, ParamMapping(spec)), fit_ml(data, spec)):
            assert fresh.mapping is not fit.mapping
            assert fresh.free_vector.tobytes() == fit.free_vector.tobytes()
            assert fresh.loglik == fit.loglik and fresh.n_iter == fit.n_iter
            assert fresh.gradient_norm == fit.gradient_norm
            assert fresh.warnings == fit.warnings
            assert (fresh.inv_observed_information.tobytes()
                    == fit.inv_observed_information.tobytes())

    def test_shared_arrays_are_read_only(self):
        grid = default_grid(2)
        assert default_grid(2) is grid
        mapping = replication(Study2Config(n=200), 1, 0)[1].mapping
        params = study1_paramset()
        arrays = [grid.points, grid.summary_subset, model_spec_study1().loading_pattern,
                  params.theta, params.lam, params.phi_cholesky(), params.sigma_cholesky(),
                  params.posterior_law().cov]
        arrays += [getattr(mapping, name) for name in (
            "lam_rows", "lam_cols", "phi_rows", "phi_cols", "dphi",
            "rank2_at", "rank2_rc", "rank2_rr", "rank2_cc")]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.points = grid.points.copy()

    def test_study2_dgp_hands_out_a_new_dict(self):
        a = study2_dgp(Study2Config(n=1, misspecified=True))
        a["kappa"] = np.zeros(10)
        assert study2_dgp(Study2Config(n=1, misspecified=True))["kappa"][7] == -0.1

    def test_import_builds_no_design(self):
        out = _fresh_interpreter(
            "import factorgof\n"
            "from factorgof import batteries, simstudy\n"
            "print([f.cache_info().currsize for f in "
            "(simstudy._study1, simstudy._study2, batteries.default_grid)])")
        assert out == "[0, 0, 0]"
