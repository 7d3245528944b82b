"""Grids and the concrete battery constructions."""

import dataclasses
import warnings

import numpy as np
import pytest

from factorgof import (
    ConfigurationError,
    DataMatrix,
    FactorGofError,
    ItemIndexError,
    LvGrid,
    McConfig,
    ModelSpec,
    ParamSet,
    RatioBattery,
    default_grid,
    eta_hat,
    fit_ml,
    lv_density_problem,
    make_grid,
    make_problem,
    mv_homoscedasticity_problem,
    mv_linearity_direct_problem,
    mv_linearity_problem,
    run_residual_batch,
    run_residual_test,
    simulate_data,
    slice_report,
    study2_paramset,
)
from factorgof.model import conditional_mean_grid, lv_logpdf, posterior_log_weights

from reference import sample_value


class TestMakeGrid:
    def test_one_dimensional_spacing(self):
        grid = make_grid([(-3, 3, 19)])
        assert grid.Q == 19
        np.testing.assert_allclose(np.diff(grid.points[:, 0]), 1 / 3, atol=1e-12)

    def test_two_dimensional_row_major(self):
        grid = make_grid([(-3, 3, 19), (-3, 3, 19)])
        assert grid.Q == 361
        # first dimension varies slowest
        np.testing.assert_allclose(grid.points[0], [-3, -3])
        np.testing.assert_allclose(grid.points[1], [-3, -3 + 1 / 3])
        np.testing.assert_allclose(grid.points[19], [-3 + 1 / 3, -3])

    def test_summary_subset_embedding(self):
        grid = make_grid([(-3, 3, 31)], [(-2, 2, 11)])
        assert len(grid.summary_subset) == 11
        np.testing.assert_allclose(
            grid.points[grid.summary_subset, 0], np.linspace(-2, 2, 11), atol=1e-12
        )

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            make_grid([(3, -3, 5)])

    @pytest.mark.parametrize("axis", [(np.nan, 3, 5), (-np.inf, 3, 5), (-3, np.inf, 5),
                                      (-3, 3, 5.7), (-3, 3, np.nan), (-3, 3, np.inf)])
    def test_rejects_non_finite_bounds_and_non_integer_counts(self, axis):
        # on the main grid and on the summary grid, before any numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for axes, summary_axes in (([axis], None), ([(-3, 3, 5)], [axis])):
                with pytest.raises(ConfigurationError, match="must be finite|must be an integer"):
                    make_grid(axes, summary_axes)

    def test_integral_counts_of_any_type_are_accepted(self):
        want = make_grid([(-3, 3, 5)])
        for count in (5.0, np.int64(5), np.float32(5)):
            assert make_grid([(-3, 3, count)]) == want

    def test_a_grid_is_its_axes(self):
        with pytest.raises(TypeError):
            LvGrid(points=np.zeros((3, 1)))
        grid = make_grid([(-3, 3, 19), (-2, 1, 7)], [(-2, 2, 7), (-2, 1, 4)])
        assert grid.axes == ((-3.0, 3.0, 19), (-2.0, 1.0, 7))
        assert grid.summary_axes == ((-2.0, 2.0, 7), (-2.0, 1.0, 4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.axes = ((-3.0, 3.0, 5),)
        # the points are the row-major product of the axes, bit for bit
        mesh = np.meshgrid(*[np.linspace(*axis) for axis in grid.axes], indexing="ij")
        want = np.stack([g.ravel() for g in mesh], axis=1)
        assert grid.points.shape == want.shape and grid.points.tobytes() == want.tobytes()
        for array in (grid.points, grid.summary_subset, *grid.axis_values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # both labels come from the triples
        assert grid.label == "-3:3:19,-2:1:7"
        assert grid.summary_label == "-2:2:7,-2:1:4"
        assert make_grid(grid.axes).summary_label == ""
        # equal triples make equal grids; other summary axes another grid
        assert make_grid(grid.axes, grid.summary_axes) == grid
        assert hash(make_grid(grid.axes, grid.summary_axes)) == hash(grid)
        assert make_grid(grid.axes) != grid
        assert default_grid(2) is default_grid(2)

    def test_rejects_off_grid_summary(self):
        with pytest.raises(ConfigurationError, match="not on the main grid"):
            make_grid([(-3, 3, 10)], [(-2, 2, 5)])

    def test_defaults(self):
        g1 = default_grid(1)
        assert g1.Q == 31 and len(g1.summary_subset) == 11
        g2 = default_grid(2)
        assert g2.Q == 361 and len(g2.summary_subset) == 49
        with pytest.raises(ConfigurationError):
            default_grid(3)


def test_make_problem_maps_each_kind():
    grid = make_grid([(-2, 2, 5)])
    cases = {
        "lv-density": lv_density_problem(grid),
        "linearity": mv_linearity_problem(grid, 3),
        "variance": mv_homoscedasticity_problem(grid, 3),
        "linearity-direct": mv_linearity_direct_problem(grid, 3),
    }
    for kind, want in cases.items():
        got = make_problem(kind, grid, None if kind == "lv-density" else 3)
        assert got.name == want.name
        assert type(got) is type(want)
        assert got.grid is grid
    with pytest.raises(ConfigurationError, match="unknown battery kind 'density'"):
        make_problem("density", grid)
    with pytest.raises(ConfigurationError, match="'variance' needs an item"):
        make_problem("variance", grid)


@pytest.fixture(scope="module")
def fitted():
    spec = ModelSpec(m=8, d=1, loading_pattern=np.ones((8, 1), dtype=int))
    lam = np.full((8, 1), np.sqrt(0.5))
    truth = ParamSet(nu=np.zeros(8), lam=lam, phi=np.eye(1), theta=np.full(8, 0.5))
    data = simulate_data(truth, 2500, np.random.default_rng(606))
    fit = fit_ml(data, spec)
    assert fit.converged
    return spec, truth, data, fit


@pytest.mark.parametrize(
    "make", [mv_linearity_problem, mv_homoscedasticity_problem, mv_linearity_direct_problem]
)
def test_item_beyond_fit_rejected(fitted, make):
    _, _, data, fit = fitted
    with pytest.raises(IndexError, match="item 8 out of range for m=8"):
        run_residual_test(make(default_grid(1), 8), fit, data, McConfig(M=1000, seed=0))


def test_item_index_errors_are_typed(fitted):
    # an item index outside the model, and a negative one, raise
    # ItemIndexError: a FactorGofError that is also an IndexError
    _, _, data, fit = fitted
    with pytest.raises(ItemIndexError, match="item 8 out of range for m=8") as info:
        run_residual_test(mv_linearity_problem(default_grid(1), 8), fit, data)
    assert isinstance(info.value, FactorGofError) and isinstance(info.value, IndexError)
    with pytest.raises(ItemIndexError, match="item index must be non-negative, got -1"):
        mv_homoscedasticity_problem(default_grid(1), -1)


class TestLvDensityBattery:
    def test_zero_loadings_collapse(self, rng):
        # with no loading signal the posterior equals the prior for any data
        params = ParamSet(nu=np.zeros(5), lam=np.zeros((5, 1)), phi=np.eye(1),
                          theta=np.ones(5))
        grid = make_grid([(-3, 3, 7)])
        battery = lv_density_problem(grid)
        Y = rng.normal(size=(50, 5))
        H = battery.evaluate(Y, params)
        closed = battery.eta_closed(params)
        assert np.abs(H - closed[None, :]).max() < 1e-12

    def test_interior_calibration_on_correct_model(self, fitted):
        spec, truth, data, fit = fitted
        report = run_residual_test(
            lv_density_problem(default_grid(1)), fit, data, McConfig(M=3000, seed=8)
        )
        z_interior = [pt.z for pt in report.points if abs(pt.coords[0]) <= 2]
        assert np.nanmax(np.abs(z_interior)) < 4.0


class TestLinearityBattery:
    def test_ratio_residual_identity(self, fitted):
        # the reference's weighted conditional mean, mean(y_j W) / mean(W)
        spec, truth, data, fit = fitted
        grid = default_grid(1)
        item = 3
        battery = mv_linearity_problem(grid, item)
        report = run_residual_test(battery, fit, data, McConfig(M=1000, seed=1))
        kernel_mean = sample_value(battery, data.values, fit.params)
        line = fit.params.nu[item] + grid.points[:, 0] * fit.params.lam[item, 0]
        np.testing.assert_allclose(
            [pt.residual for pt in report.points], kernel_mean - line, atol=1e-12
        )
        np.testing.assert_allclose(
            [pt.eta_hat for pt in report.points], kernel_mean, atol=1e-12
        )
        np.testing.assert_allclose(
            [pt.eta for pt in report.points], line, atol=1e-12
        )

    def test_exact_linear_data_gives_zero_residuals(self, fitted):
        # responses whose posterior-weighted mean equals the fitted line at
        # every grid point give a zero ratio residual; the rows' weights are
        # held at those of the observed data
        spec, truth, data, fit = fitted
        grid = make_grid([(-1, 1, 3)])
        item = 0
        battery = mv_linearity_problem(grid, item)
        W = np.exp(posterior_log_weights(data.values, grid.points, fit.params))
        line = fit.params.nu[item] + grid.points[:, 0] * fit.params.lam[item, 0]
        # least-norm y with W' y = line * W' 1
        y = np.linalg.lstsq(W.T, line * W.sum(axis=0), rcond=None)[0]
        Y = data.values.copy()
        Y[:, item] = y
        got = eta_hat(battery, DataMatrix(Y), fit.params, W)
        np.testing.assert_allclose(got - battery.eta_closed(fit.params), 0.0, atol=1e-12)

    def test_correct_model_interior_calibration(self, fitted):
        spec, truth, data, fit = fitted
        report = run_residual_test(
            mv_linearity_problem(default_grid(1), 1), fit, data, McConfig(M=3000, seed=2)
        )
        z_interior = [pt.z for pt in report.points if abs(pt.coords[0]) <= 2]
        assert np.nanmax(np.abs(z_interior)) < 4.0


class TestHomoscedasticityBattery:
    def test_parametric_bootstrap_null(self, fitted):
        # data simulated from the fitted model itself: residuals near zero
        spec, truth, data, fit = fitted
        boot = simulate_data(fit.params, 4000, np.random.default_rng(55))
        report = run_residual_test(
            mv_homoscedasticity_problem(default_grid(1), 2), fit, boot,
            McConfig(M=3000, seed=3),
        )
        z_interior = [pt.z for pt in report.points if abs(pt.coords[0]) <= 2]
        assert np.nanmax(np.abs(z_interior)) < 4.0

    def test_eta_closed_is_theta(self, fitted):
        spec, truth, data, fit = fitted
        grid = make_grid([(-2, 2, 5)])
        got = mv_homoscedasticity_problem(grid, 4).eta_closed(fit.params)
        assert got.tolist() == [fit.params.theta[4]] * 5


class TestDirectLinearityBattery:
    def test_zero_loadings_reduce_to_sample_mean(self, rng):
        params = ParamSet(nu=np.full(5, 0.7), lam=np.zeros((5, 1)), phi=np.eye(1),
                          theta=np.ones(5))
        grid = make_grid([(-2, 2, 5)])
        battery = mv_linearity_direct_problem(grid, 2)
        Y = rng.normal(0.7, 1.0, size=(300, 5))
        g_hat = battery.evaluate(Y, params).mean(axis=0)
        np.testing.assert_allclose(g_hat, Y[:, 2].mean(), rtol=1e-10)
        np.testing.assert_allclose(battery.eta_closed(params), 0.7, rtol=1e-12)

    def test_correct_model_calibration(self, fitted):
        spec, truth, data, fit = fitted
        report = run_residual_test(
            mv_linearity_direct_problem(default_grid(1), 1), fit, data,
            McConfig(M=3000, seed=4),
        )
        z_interior = [pt.z for pt in report.points if abs(pt.coords[0]) <= 2]
        assert np.nanmax(np.abs(z_interior)) < 4.0

    def test_sensitive_to_latent_density_misfit_where_ratio_is_not(self):
        # latent mixture with genuinely linear items: the direct battery
        # reacts strongly, the ratio battery stays quiet
        rng = np.random.default_rng(777)
        n, m = 4000, 6
        comp = rng.random(n) < 0.5
        x = np.where(comp, -0.7, 0.7) + np.sqrt(0.51) * rng.standard_normal(n)
        lam = np.full(m, np.sqrt(0.5))
        Y = x[:, None] * lam + rng.standard_normal((n, m)) * np.sqrt(0.5)
        data = DataMatrix(Y)
        spec = ModelSpec(m=m, d=1, loading_pattern=np.ones((m, 1), dtype=int))
        fit = fit_ml(data, spec)
        assert fit.converged
        grid = default_grid(1)
        reports = run_residual_batch(
            [mv_linearity_direct_problem(grid, 1), mv_linearity_problem(grid, 1)],
            fit, data, McConfig(M=4000, seed=10),
        )
        direct, ratio = reports

        def interior_z(report):
            return np.array([pt.z for pt in report.points if abs(pt.coords[0]) <= 2])

        assert np.nanmax(np.abs(interior_z(direct))) > 3.5
        assert (np.abs(interior_z(direct)) > 1.96).sum() >= 8
        assert np.nanmax(np.abs(interior_z(ratio))) < 2.6
        assert (np.abs(interior_z(ratio)) > 1.96).sum() <= 2


class TestPointwiseJointConsistency:
    def test_single_point_battery_matches_grid_component(self, fitted):
        spec, truth, data, fit = fitted
        grid = default_grid(1)
        mc = McConfig(M=2000, seed=44)
        full = run_residual_test(lv_density_problem(grid), fit, data, mc)
        target = 10  # x = -1.0 on the 31-point grid
        single_grid = make_grid([(grid.points[target, 0], 3.0, 1)])
        single = run_residual_test(lv_density_problem(single_grid), fit, data, mc)
        assert single.points[0].z == pytest.approx(full.points[target].z, rel=1e-10)


class TestSliceReport:
    def test_two_dimensional_slices(self, two_factor_params, two_factor_spec):
        data = simulate_data(two_factor_params, 1500, np.random.default_rng(3))
        fit = fit_ml(data, two_factor_spec)
        assert fit.converged
        report = run_residual_test(
            lv_density_problem(default_grid(2)), fit, data, McConfig(M=2000, seed=0)
        )
        for axis in (0, 1):
            profile = slice_report(report, axis)
            assert len(profile) == 19
            coords = [pt.coords[axis] for pt in profile]
            assert coords == sorted(coords)
            assert all(pt.coords[1 - axis] == 0 for pt in profile)

    def test_one_dimensional_passthrough(self, fitted):
        spec, truth, data, fit = fitted
        report = run_residual_test(
            lv_density_problem(make_grid([(-2, 2, 5)])), fit, data,
            McConfig(M=1000, seed=0),
        )
        assert slice_report(report) == report.points

    def test_empty_selection_is_empty_not_error(self, fitted):
        spec, truth, data, fit = fitted
        report = run_residual_test(
            lv_density_problem(make_grid([(-3, 3, 4), (-3, 3, 4)][:1])), fit, data,
            McConfig(M=1000, seed=0),
        )
        # d=1 passthrough still works with a grid lacking zero
        assert len(slice_report(report)) == 4


def test_mc_fallback_consistency_for_each_battery(fitted):
    # a mean battery's values average to its closed form over model draws; a
    # ratio battery's f W averages to D r, its ratio's denominator times r
    spec, truth, data, fit = fitted
    grid = make_grid([(-2, 2, 5)])
    draws = simulate_data(fit.params, 200_000, np.random.default_rng(13)).values
    W = np.exp(posterior_log_weights(draws, grid.points, fit.params))
    dens = np.exp(lv_logpdf(grid.points, fit.params))
    for make in (
        lv_density_problem,
        lambda g: mv_linearity_problem(g, 1),
        lambda g: mv_homoscedasticity_problem(g, 1),
        lambda g: mv_linearity_direct_problem(g, 1),
    ):
        battery = make(grid)
        closed = battery.eta_closed(fit.params)
        H = battery.evaluate(draws, fit.params)
        if isinstance(battery, RatioBattery):
            H, closed = H * W, dens * closed
        mc = H.mean(axis=0)
        mc_se = H.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert (np.abs(mc - closed) < 4 * mc_se + 1e-12).all(), battery.name


def test_standalone_evaluate_matches_definition_from_weights(fitted):
    # a bundled battery's public evaluate computes W itself; the engine hands
    # it the batch's shared W instead.  Both must equal the definition rebuilt
    # here from the log-weights, bit for bit.  A ratio battery's values are
    # its f, which needs no W.
    _, _, data, fit = fitted
    params, Y = fit.params, data.values[:300]
    grid = make_grid([(-2.5, 2.5, 9)])
    W = np.exp(posterior_log_weights(Y, grid.points, params))
    dens = np.exp(lv_logpdf(grid.points, params))
    y = Y[:, 3:4]
    mu = conditional_mean_grid(grid.points, params)[:, 3]
    cases = {
        "lv-density": (lv_density_problem(grid), W),
        "linearity": (mv_linearity_problem(grid, 3), np.broadcast_to(y, W.shape)),
        "variance": (mv_homoscedasticity_problem(grid, 3), (y - mu[None, :]) ** 2),
        "linearity-direct": (mv_linearity_direct_problem(grid, 3), y * W / dens[None, :]),
    }
    for name, (battery, expected) in cases.items():
        got = battery.evaluate(Y, params)
        assert got.tobytes() == expected.tobytes(), name
        assert battery.evaluate(Y, params, W).tobytes() == expected.tobytes(), name


def _rescaled_reports(item, a, b, kinds):
    """Reports of the ``kinds`` on every item (lv-density once) for study2
    data and for the same data with y_item -> a y_item + b, each on its own
    fit."""
    spec = ModelSpec(m=10, d=1, loading_pattern=np.ones((10, 1), dtype=int))
    data = simulate_data(study2_paramset(), 800, np.random.default_rng(4242))
    Y = data.values.copy()
    Y[:, item] = a * Y[:, item] + b
    rescaled = DataMatrix(Y)
    grid = default_grid(1)
    problems = [make_problem(kind, grid, j) for kind in kinds
                for j in ((None,) if kind == "lv-density" else range(10))]
    mc = McConfig(M=2000, seed=9)
    fits = [fit_ml(d, spec) for d in (data, rescaled)]
    assert all(fit.converged for fit in fits)
    before, after = (run_residual_batch(problems, fit, d, mc)
                     for fit, d in zip(fits, (data, rescaled)))
    return data.n, before, after


def _points(report, attr):
    return np.array([getattr(pt, attr) for pt in report.points])


def _assert_same_z_and_T(r0, r1):
    """z and T agree up to the optimizer's tolerance."""
    z0, z1 = _points(r0, "z"), _points(r1, "z")
    np.testing.assert_array_equal(np.isnan(z1), np.isnan(z0), err_msg=r0.battery)
    assert np.nanmax(np.abs(z1 - z0)) < 1e-3, r0.battery
    assert r1.summary.T == pytest.approx(r0.summary.T, rel=1e-3), r0.battery


@pytest.mark.parametrize("item,a,b", [(3, 2.5, -1.0), (5, 0.3, 2.0)])
def test_affine_rescale_of_an_item_leaves_item_tests_unchanged(item, a, b):
    # y_j -> a y_j + b (a > 0) maps the fit to nu_j -> a nu_j + b,
    # lam_j -> a lam_j, theta_j -> a^2 theta_j and leaves the posterior
    # weights and the draws' other items alone, so every linearity and
    # variance z and T agree up to the optimizer's tolerance
    _, before, after = _rescaled_reports(item, a, b, ("linearity", "variance"))
    for r0, r1 in zip(before, after):
        _assert_same_z_and_T(r0, r1)


@pytest.mark.parametrize("item,a,b", [(3, 2.5, -1.0), (5, 0.3, 2.0), (3, 2.5, 0.0)])
def test_affine_rescale_of_an_item_leaves_density_and_scales_direct_test(item, a, b):
    # the posterior weights and the latent density do not change, so the
    # latent-density report and the direct tests of the other items are
    # unchanged.  linearity-direct[item] averages y_item W / D, so for
    # b = 0 its residual and se scale by a and its z and T are unchanged
    n, before, after = _rescaled_reports(item, a, b, ("lv-density", "linearity-direct"))
    for r0, r1 in zip(before, after):
        if r0.battery == f"linearity-direct[{item}]":
            if b != 0.0:
                continue
            se0, ok = _points(r0, "se"), ~_points(r0, "unstable")
            np.testing.assert_allclose(_points(r1, "se")[ok] / a, se0[ok], rtol=1e-3)
            shift = _points(r1, "residual")[ok] / a - _points(r0, "residual")[ok]
            assert (np.abs(shift) < 1e-3 * se0[ok] / np.sqrt(n)).all()
        _assert_same_z_and_T(r0, r1)
