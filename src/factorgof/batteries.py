"""Concrete residual batteries and latent evaluation grids.

Three assessments are bundled, each a battery on a grid of latent values
(a test is its battery):

* ``lv_density_problem`` compares the average posterior density against the
  model's latent density,
* ``mv_linearity_problem`` compares a posterior-weighted conditional-mean
  estimate of one variable against the fitted line,
* ``mv_homoscedasticity_problem`` does the same for the conditional variance
  against the constant fitted error variance.

``mv_linearity_direct_problem`` is a non-ratio variant of the linearity
check kept for comparison; it is deliberately not part of the default CLI
report because its residuals also react to latent-density misfit.

All four are ``WeightedBattery``s on the posterior densities W of the grid
points given each row, read through W's column means and one item's
W-weighted sums, which with two or more latent dimensions come from
per-axis factors of the grid without the (n x Q) W
(``residuals._weight_sums``).  The latent-density battery is W itself
and the direct variant is y_j * W / density.  Linearity and variance are
``RatioBattery``s: each gives its item's f (y_j, or the squared deviation
from the fitted line) and the model value of the ratio
mean(f W) / mean(W) (the fitted line, or the error variance).
Each row contributes G_q = W_q h_q / D_q to a battery's residual
covariance, with D the latent density and h_q quadratic in the item's
deviation from its conditional mean.  Each battery declares that quadratic
form as ``(item, a, b, c)``, the coefficients of
h_q = a_q + b e_q + c (e_q^2 - theta_j), and ``run_residual_batch`` takes
the moments of every battery on one grid in closed form in one stacked
pass (``residuals._quadratic_moments``), so no bundled battery draws.  The
form fixes the sample value too (``residuals._sample_values``): it needs
only W's column means and the item's W-weighted sums, so the batch never
calls a bundled battery's ``evaluate``, which serves direct callers and
the tests' reference.
``make_problem`` maps a battery kind's name to its battery.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import _check_item, conditional_mean_grid, lv_logpdf
from .residuals import RatioBattery, TestReport, WeightedBattery


def _triples(axes) -> tuple:
    """Per-dimension (lo, hi, count) triples as (float, float, int), checked."""
    out = []
    for lo, hi, count in axes:
        lo, hi = float(lo), float(hi)
        if not np.isfinite([lo, hi]).all():
            raise ConfigurationError(f"grid bounds must be finite, got {lo}:{hi}")
        if lo >= hi:
            raise ConfigurationError(f"grid bounds must satisfy lo < hi, got {lo}:{hi}")
        whole = int(count) if np.isfinite(count) else None
        if whole != count:
            raise ConfigurationError(f"grid count must be an integer, got {count!r}")
        if whole < 1:
            raise ConfigurationError(f"grid count must be >= 1, got {whole}")
        out.append((lo, hi, whole))
    return tuple(out)


def _axis_label(axes) -> str:
    return ",".join(f"{lo:g}:{hi:g}:{count}" for lo, hi, count in axes)


def _read_only(array) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class LvGrid:
    """Grid of latent evaluation points: the product of its axes.

    ``axes`` holds one (lo, hi, count) triple per latent dimension, and
    ``summary_axes``, when given, the triples of the points entering the
    summary statistic, which must all lie on the grid; both are checked
    and stored as (float, float, int).  Everything else is derived from
    them: ``axis_values`` (each axis's ``linspace``), ``points`` ((Q, d),
    their outer product in row-major dimension order, first dimension
    slowest), ``summary_subset`` (the indices of the summary points, or None
    without summary axes), ``label`` and ``summary_label``.  The arrays are
    read-only, so one grid can be shared, as ``default_grid``'s are.  Grids
    with equal triples are equal and hash alike, and the residual engine
    keys its per-grid work on them; with two or more latent dimensions the
    bundled batteries' weight sums run on the axes' factors
    (``residuals._weight_sums``).
    """

    axes: tuple
    summary_axes: tuple = None

    def __post_init__(self):
        axes = _triples(self.axes)
        object.__setattr__(self, "axes", axes)
        if self.summary_axes is not None:
            summary_axes = _triples(self.summary_axes)
            if len(summary_axes) != len(axes):
                raise ConfigurationError("summary grid dimensionality differs from the main grid")
            object.__setattr__(self, "summary_axes", summary_axes)
            self.summary_subset  # a summary point off the grid fails here

    @functools.cached_property
    def axis_values(self) -> tuple:
        return tuple(_read_only(np.linspace(*ax)) for ax in self.axes)

    @functools.cached_property
    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axis_values, indexing="ij")
        return _read_only(np.stack([g.ravel(order="C") for g in mesh], axis=1))

    @functools.cached_property
    def summary_subset(self):
        if self.summary_axes is None:
            return None
        values = self.axis_values
        sub_values = [np.linspace(*ax) for ax in self.summary_axes]
        # Both grids are products of their axes, so a summary point is on the
        # main grid exactly when each coordinate matches one value of its axis.
        hits = [np.abs(main[None, :] - sub[:, None]) < 1e-9
                for main, sub in zip(values, sub_values)]
        single = np.meshgrid(*[h.sum(axis=1) == 1 for h in hits], indexing="ij")
        on_grid = np.logical_and.reduce(single)
        if not on_grid.all():
            index = np.unravel_index(np.argmin(on_grid), on_grid.shape)
            pt = [float(sub[i]) for sub, i in zip(sub_values, index)]
            raise ConfigurationError(f"summary point {pt} is not on the main grid")
        axis_index = np.meshgrid(*[h.argmax(axis=1) for h in hits], indexing="ij")
        return _read_only(np.ravel_multi_index([a.ravel(order="C") for a in axis_index],
                                               [len(main) for main in values]))

    @functools.cached_property
    def label(self) -> str:
        return _axis_label(self.axes)

    @functools.cached_property
    def summary_label(self) -> str:
        return "" if self.summary_axes is None else _axis_label(self.summary_axes)

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def Q(self) -> int:
        return self.points.shape[0]


def make_grid(axes, summary_axes=None) -> LvGrid:
    """Build a grid from per-dimension (lo, hi, count) triples.

    ``summary_axes`` must describe points that all lie on the main grid;
    they are matched by value and stored as indices."""
    return LvGrid(axes, summary_axes)


@functools.cache
def default_grid(d: int) -> LvGrid:
    """Default grid: 31 points on [-3, 3] with an 11-point summary subgrid on
    [-2, 2] for one latent variable; 19 x 19 with a 7 x 7 subgrid for two.

    Built on the first call for each d and shared by every later one; a
    variant grid comes from ``make_grid``."""
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


def lv_density_problem(grid: LvGrid) -> WeightedBattery:
    """Latent-density check: posterior densities vs. the model density.

    G_q = W_q is the quadratic form h_q = D_q, so the residual covariance
    and the sample value are closed form, and a batch draws nothing for it;
    the form takes D from the batch, which forms it once per grid."""

    def from_weights(Y, W, params):
        return W

    def eta_fn(params):
        return np.exp(lv_logpdf(grid.points, params))

    return WeightedBattery(k=grid.Q, name="lv-density", _evaluate=from_weights,
                           _eta=eta_fn, grid=grid,
                           _quadratic=(None, lambda params, dens: dens, 0.0, 0.0))


def mv_linearity_problem(grid: LvGrid, item: int) -> RatioBattery:
    """Conditional-mean check for one variable via posterior-weight ratios.

    G_q = W_q (y_j - mu_qj) / D_q is the quadratic form
    (a, b, c) = (0, 1, 0), so the residual covariance and the sample value
    are closed form."""
    item = _check_item_index(item)

    def response(Y, params):
        _check_item(item, params)
        return Y[:, item : item + 1]

    def eta_fn(params):
        return conditional_mean_grid(grid.points, params)[:, item]

    return RatioBattery(k=grid.Q, name=f"linearity[{item}]", _evaluate=response,
                        _eta=eta_fn, grid=grid, _quadratic=(item, None, 1.0, 0.0))


def mv_homoscedasticity_problem(grid: LvGrid, item: int) -> RatioBattery:
    """Conditional-variance check for one variable via posterior-weight ratios.

    G_q = W_q ((y_j - mu_qj)^2 - theta_j) / D_q is the quadratic form
    (a, b, c) = (0, 0, 1), so the residual covariance and the sample value
    are closed form."""
    item = _check_item_index(item)

    def squared_deviation(Y, params):
        _check_item(item, params)
        mu = conditional_mean_grid(grid.points, params)[:, item]
        deviation = Y[:, item : item + 1] - mu[None, :]
        return np.square(deviation, out=deviation)

    def eta_fn(params):
        return np.full(grid.Q, params.theta[item])

    return RatioBattery(k=grid.Q, name=f"variance[{item}]", _evaluate=squared_deviation,
                        _eta=eta_fn, grid=grid, _quadratic=(item, None, 0.0, 1.0))


def mv_linearity_direct_problem(grid: LvGrid, item: int) -> WeightedBattery:
    """Non-ratio conditional-mean check; comparison variant only.

    The summary component is the response times the conditional-to-marginal
    density ratio, so its expectation is the conditional mean itself and no
    ratio is needed.  Misfit in the latent density leaks into these
    residuals, which is why the ratio form is the default.
    G_q = y_j W_q / D_q is the quadratic form (a, b, c) = (mu_qj, 1, 0), so
    the residual covariance and the sample value are closed form.
    """
    item = _check_item_index(item)

    def from_weights(Y, W, params):
        _check_item(item, params)
        dens = np.exp(lv_logpdf(grid.points, params))
        out = np.multiply(Y[:, item : item + 1], W)
        out /= dens
        return out

    def eta_fn(params):
        return conditional_mean_grid(grid.points, params)[:, item].copy()

    return WeightedBattery(k=grid.Q, name=f"linearity-direct[{item}]",
                           _evaluate=from_weights, _eta=eta_fn, grid=grid,
                           _quadratic=(item, lambda params, dens: eta_fn(params), 1.0, 0.0))


_ITEM_PROBLEMS = {
    "linearity": mv_linearity_problem,
    "variance": mv_homoscedasticity_problem,
    "linearity-direct": mv_linearity_direct_problem,
}


def make_problem(kind: str, grid: LvGrid, item: int = None) -> WeightedBattery:
    """The battery of a kind on ``grid``: ``"lv-density"``, or
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
    d = report.coords.shape[1]
    if axis < 0 or axis >= d:
        raise ConfigurationError(f"axis {axis} out of range for d={d}")
    if d == 1:
        return list(report.points)
    on_axis = (np.abs(np.delete(report.coords, axis, axis=1)) < tol).all(axis=1)
    chosen = np.flatnonzero(on_axis)
    return [report.points[i] for i in chosen[np.argsort(report.coords[chosen, axis],
                                                        kind="stable")]]
