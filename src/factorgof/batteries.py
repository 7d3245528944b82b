"""Concrete residual batteries and latent evaluation grids.

Three assessments are bundled, all conditioned on a grid of latent values:

* ``lv_density_problem`` compares the average posterior density against the
  model's latent density,
* ``mv_linearity_problem`` compares a posterior-weighted conditional-mean
  estimate of one variable against the fitted line,
* ``mv_homoscedasticity_problem`` does the same for the conditional variance
  against the constant fitted error variance.

``mv_linearity_direct_problem`` is a non-ratio variant of the linearity
check kept for comparison; it is deliberately not part of the default CLI
report because its residuals also react to latent-density misfit.

All four are ``WeightedBattery``s on one matrix W, the posterior densities
of the grid points given each row.  The latent-density battery is W itself,
whose residual covariance is known in closed form, and the direct variant
is y_j * W / density.  Linearity and variance are ``RatioBattery``s: each
gives its item's f (y_j, or the squared deviation from the fitted line) and
the model value of the ratio colmean(f W) / colmean(W) (the fitted line, or
the error variance).
``run_residual_batch`` computes W once per row set and grid for a whole
batch and passes it to every battery on that grid.  ``make_problem`` maps a
battery kind's name to its problem.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .estimate import _mean_loglik_and_grad, score_rows
from .kernels import mvn_loglik_rows
from .model import _check_item, _posterior_precision, conditional_mean_grid, lv_logpdf
from .residuals import RatioBattery, ResidualProblem, TestReport, WeightedBattery


@dataclass(eq=False)
class LvGrid:
    """Outer-product grid of latent evaluation points.

    ``points`` is (Q, d) in row-major dimension order (first dimension
    slowest).  ``summary_subset`` holds indices of the points entering the
    summary statistic, or None when no summary is requested.
    """

    axes: tuple
    points: np.ndarray
    summary_subset: np.ndarray
    label: str
    summary_label: str

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def Q(self) -> int:
        return self.points.shape[0]


def _axis_values(lo: float, hi: float, count: int) -> np.ndarray:
    if count < 1:
        raise ConfigurationError(f"grid count must be >= 1, got {count}")
    if lo >= hi:
        raise ConfigurationError(f"grid bounds must satisfy lo < hi, got {lo}:{hi}")
    return np.linspace(lo, hi, count)


def _axis_label(axes) -> str:
    return ",".join(f"{lo:g}:{hi:g}:{count}" for lo, hi, count in axes)


def make_grid(axes, summary_axes=None) -> LvGrid:
    """Build a grid from per-dimension (lo, hi, count) triples.

    ``summary_axes`` must describe points that all lie on the main grid;
    they are matched by value and stored as indices.
    """
    axes = tuple((float(lo), float(hi), int(count)) for lo, hi, count in axes)
    values = [_axis_values(*ax) for ax in axes]
    mesh = np.meshgrid(*values, indexing="ij")
    points = np.stack([g.ravel(order="C") for g in mesh], axis=1)

    subset = None
    summary_label = ""
    if summary_axes is not None:
        summary_axes = tuple((float(lo), float(hi), int(count)) for lo, hi, count in summary_axes)
        if len(summary_axes) != len(axes):
            raise ConfigurationError("summary grid dimensionality differs from the main grid")
        sub_values = [_axis_values(*ax) for ax in summary_axes]
        sub_mesh = np.meshgrid(*sub_values, indexing="ij")
        sub_points = np.stack([g.ravel(order="C") for g in sub_mesh], axis=1)
        subset = np.empty(sub_points.shape[0], dtype=np.intp)
        for i, pt in enumerate(sub_points):
            hits = np.nonzero(np.all(np.abs(points - pt) < 1e-9, axis=1))[0]
            if hits.size != 1:
                raise ConfigurationError(
                    f"summary point {pt.tolist()} is not on the main grid"
                )
            subset[i] = hits[0]
        summary_label = _axis_label(summary_axes)

    return LvGrid(
        axes=axes,
        points=points,
        summary_subset=subset,
        label=_axis_label(axes),
        summary_label=summary_label,
    )


def default_grid(d: int) -> LvGrid:
    """Default grid: 31 points on [-3, 3] with an 11-point summary subgrid on
    [-2, 2] for one latent variable; 19 x 19 with a 7 x 7 subgrid for two."""
    if d == 1:
        return make_grid([(-3, 3, 31)], [(-2, 2, 11)])
    if d == 2:
        return make_grid([(-3, 3, 19)] * 2, [(-2, 2, 7)] * 2)
    raise ConfigurationError(f"no default grid for d={d}; supply one explicitly")


def _check_item_index(item: int) -> int:
    item = int(item)
    if item < 0:
        raise IndexError(f"item index must be non-negative, got {item}")
    return item


def lv_density_problem(grid: LvGrid) -> ResidualProblem:
    """Latent-density check: posterior densities vs. the model density.

    Its residual covariance is exact (``_lv_density_moments``), so a batch
    needs no Monte Carlo draws for it."""
    Q = grid.Q

    def from_weights(Y, W, params):
        return W

    def eta_fn(params):
        return np.exp(lv_logpdf(grid.points, params))

    def moments(params, mapping, cols):
        return _lv_density_moments(grid.points, params, mapping, cols)

    battery = WeightedBattery(k=Q, name="lv-density", _evaluate=from_weights,
                              _eta=eta_fn, _moments=moments, grid=grid)
    return ResidualProblem(battery, grid)


def _weight_products(X1, X2, params):
    """E[W(x1) W(x2)] under the model for paired rows of X1 and X2 ((Q,)).

    W(x) = N(x; E[x | y], V) is the posterior density of the latent point x
    given y, with V the posterior covariance.  E[x | y] ~ N(0, phi - V), and
    the product of the two normal densities in E[x | y] integrates to
    N(x1 - x2; 0, 2V) N((x1 + x2) / 2; 0, phi - V / 2).
    """
    V = np.linalg.inv(_posterior_precision(params)[1])
    zero = np.zeros(params.d)
    out = mvn_loglik_rows(X1 - X2, zero, np.linalg.cholesky(2.0 * V))
    out += mvn_loglik_rows(0.5 * (X1 + X2), zero, np.linalg.cholesky(params.phi - 0.5 * V))
    return np.exp(out, out=out)


def _lv_density_moments(points, params, mapping, cols):
    """Exact moments of the latent-density battery W under the fitted model:
    Var(W_q) at every point, Cov(W_q, W_r) among the points ``cols``, and
    A = E[W s'] with s the score on ``mapping``'s free parameters.

    Weighting the model density of y by W_q(y) = p(x_q | y) gives
    p(x_q) p(y | x_q), so E[W_q h(y)] = D_q E[h(y) | x = x_q] for any h,
    with D the latent density.  The score is affine in y - nu and its outer
    product, so E[s | x_q] is the score at the conditional mean
    nu + lambda x_q plus the term the error covariance theta adds:
    g(nu, theta) - g(nu, 0), with g(ybar, S) the gradient of the mean
    log-likelihood at sample mean ybar and sample covariance S.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    dens = np.exp(lv_logpdf(points, params))
    var = _weight_products(points, points, params) - dens**2
    sub, k = points[cols], len(cols)
    cov = _weight_products(np.repeat(sub, k, axis=0), np.tile(sub, (k, 1)), params)
    cov = cov.reshape(k, k) - np.outer(dens[cols], dens[cols])

    v = mapping.pack(params)
    g_theta = _mean_loglik_and_grad(v, mapping, params.nu, np.diag(params.theta))[1]
    g_zero = _mean_loglik_and_grad(v, mapping, params.nu, np.zeros((params.m, params.m)))[1]
    A = score_rows(params, mapping, conditional_mean_grid(points, params))
    A += g_theta - g_zero
    A *= dens[:, None]
    return var, cov, A


def mv_linearity_problem(grid: LvGrid, item: int) -> ResidualProblem:
    """Conditional-mean check for one variable via posterior-weight ratios."""
    item = _check_item_index(item)

    def response(Y, params):
        _check_item(item, params)
        return Y[:, item : item + 1]

    def eta_fn(params):
        return conditional_mean_grid(grid.points, params)[:, item]

    battery = RatioBattery(k=grid.Q, name=f"linearity[{item}]", _evaluate=response,
                           _eta=eta_fn, grid=grid)
    return ResidualProblem(battery, grid)


def mv_homoscedasticity_problem(grid: LvGrid, item: int) -> ResidualProblem:
    """Conditional-variance check for one variable via posterior-weight ratios."""
    item = _check_item_index(item)

    def squared_deviation(Y, params):
        _check_item(item, params)
        mu = conditional_mean_grid(grid.points, params)[:, item]
        return (Y[:, item : item + 1] - mu[None, :]) ** 2

    def eta_fn(params):
        return np.full(grid.Q, params.theta[item])

    battery = RatioBattery(k=grid.Q, name=f"variance[{item}]", _evaluate=squared_deviation,
                           _eta=eta_fn, grid=grid)
    return ResidualProblem(battery, grid)


def mv_linearity_direct_problem(grid: LvGrid, item: int) -> ResidualProblem:
    """Non-ratio conditional-mean check; comparison variant only.

    The summary component is the response times the conditional-to-marginal
    density ratio, so its expectation is the conditional mean itself and no
    ratio is needed.  Misfit in the latent density leaks into these
    residuals, which is why the ratio form is the default.
    """
    item = _check_item_index(item)
    Q = grid.Q

    def from_weights(Y, W, params):
        _check_item(item, params)
        dens = np.exp(lv_logpdf(grid.points, params))
        return Y[:, item : item + 1] * W / dens[None, :]

    def eta_fn(params):
        return conditional_mean_grid(grid.points, params)[:, item].copy()

    battery = WeightedBattery(k=Q, name=f"linearity-direct[{item}]", _evaluate=from_weights,
                              _eta=eta_fn, grid=grid)
    return ResidualProblem(battery, grid)


_ITEM_PROBLEMS = {
    "linearity": mv_linearity_problem,
    "variance": mv_homoscedasticity_problem,
    "linearity-direct": mv_linearity_direct_problem,
}


def make_problem(kind: str, grid: LvGrid, item: int = None) -> ResidualProblem:
    """The problem of a battery kind on ``grid``: ``"lv-density"``, or
    ``"linearity"``, ``"variance"`` or ``"linearity-direct"`` for the
    0-based ``item``."""
    if kind == "lv-density":
        return lv_density_problem(grid)
    if kind not in _ITEM_PROBLEMS:
        raise ConfigurationError(f"unknown battery kind {kind!r}")
    if item is None:
        raise ConfigurationError(f"battery kind {kind!r} needs an item")
    return _ITEM_PROBLEMS[kind](grid, item)


def slice_report(report: TestReport, axis: int = 0, tol: float = 1e-9) -> list:
    """Profile of report points along one latent axis, others fixed at 0.

    For a one-dimensional report this is the full point list.  Points are
    returned sorted by the target coordinate; an empty selection is returned
    as an empty list.
    """
    points = report.points
    if not points:
        return []
    d = len(points[0].coords)
    if axis < 0 or axis >= d:
        raise ConfigurationError(f"axis {axis} out of range for d={d}")
    if d == 1:
        return list(points)
    others = [k for k in range(d) if k != axis]
    chosen = [
        pt for pt in points
        if all(abs(pt.coords[k]) < tol for k in others)
    ]
    return sorted(chosen, key=lambda pt: pt.coords[axis])
