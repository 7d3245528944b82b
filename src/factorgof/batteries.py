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
of the grid points given each row.  The latent-density battery is W itself
and the direct variant is y_j * W / density.  Linearity and variance are
``RatioBattery``s: each gives its item's f (y_j, or the squared deviation
from the fitted line) and the model value of the ratio
mean(f W) / mean(W) (the fitted line, or the error variance).
Each row contributes G_q = W_q h_q / D_q to a battery's residual
covariance, with D the latent density and h_q quadratic in the item's
deviation from its conditional mean, so every moment the covariance needs
is a Gaussian integral at the fitted model.  ``_quadratic_moments``
computes them for all four, each declared by its coefficients of h_q, so
no bundled battery draws.
``run_residual_batch`` computes W once per row set and grid for a whole
batch and passes it to every battery on that grid.  ``make_problem`` maps a
battery kind's name to its problem.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError
from .estimate import _mean_loglik_grad, _moment_terms, score_rows
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
        # Both grids are products of their axes, so a summary point is on the
        # main grid exactly when each coordinate matches one value of its axis.
        hits = [np.abs(main[None, :] - sub[:, None]) < 1e-9
                for main, sub in zip(values, sub_values)]
        single = np.meshgrid(*[h.sum(axis=1) == 1 for h in hits], indexing="ij")
        on_grid = np.logical_and.reduce(single).ravel(order="C")
        if not on_grid.all():
            pt = sub_points[np.argmin(on_grid)]
            raise ConfigurationError(f"summary point {pt.tolist()} is not on the main grid")
        axis_index = np.meshgrid(*[h.argmax(axis=1) for h in hits], indexing="ij")
        subset = np.ravel_multi_index([a.ravel(order="C") for a in axis_index],
                                      [len(main) for main in values])
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

    G_q = W_q is the case h_q = D_q of ``_quadratic_moments``, so the
    residual covariance is exact and a batch draws nothing for it."""

    def from_weights(Y, W, params):
        return W

    def eta_fn(params):
        return np.exp(lv_logpdf(grid.points, params))

    moments = partial(_quadratic_moments, grid.points, None, eta_fn, 0.0, 0.0)
    battery = WeightedBattery(k=grid.Q, name="lv-density", _evaluate=from_weights,
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


def _shared(shared, key, build):
    """``shared[key]``, built on first use.  ``shared`` is the dict a batch
    passes to every closed-form moment hook, so constants that several
    problems need are made once per batch."""
    if key not in shared:
        shared[key] = build()
    return shared[key]


@dataclass(eq=False)
class _FitConstants:
    """Per-fit constants of the closed-form moments.

    ``score_shift(ybar, S)`` is g(ybar, S) - g(nu, 0), with g(ybar, S) the
    gradient of the mean log-likelihood at sample mean ybar and sample
    covariance S: the mean score of y ~ N(ybar, S) less the score at nu.
    ``tilt`` ((m, d)) and ``tau2`` ((m,)) give the doubly tilted law
    y_j | xt = xbar ~ N(nu_j + tilt_j' xbar, tau2_j), where
    xt = E[x | y] + N(0, V / 2) ~ N(0, phi - V / 2) and Cov(y, xt) = lambda phi.
    """

    v: np.ndarray
    mapping: object
    terms: tuple
    g0: np.ndarray
    tilt: np.ndarray
    tau2: np.ndarray

    @classmethod
    def build(cls, params, mapping):
        v = mapping.pack(params)
        terms = _moment_terms(v, mapping, params.nu, np.zeros((params.m, params.m)))
        g0 = _mean_loglik_grad(v, mapping, terms)
        V = np.linalg.inv(_posterior_precision(params)[1])
        cross = params.lam @ params.phi
        tilt = np.linalg.solve(params.phi - 0.5 * V, cross.T).T
        tau2 = np.diag(params.implied_covariance()) - np.einsum("jk,jk->j", tilt, cross)
        return cls(v=v, mapping=mapping, terms=terms, g0=g0, tilt=tilt, tau2=tau2)

    def score_shift(self, ybar, S):
        delta = ybar - self.terms.nu
        shifted = self.terms._replace(delta=delta, s_star=S + np.outer(delta, delta))
        g = _mean_loglik_grad(self.v, self.mapping, shifted)
        return g - self.g0


def _fit_constants(params, mapping, shared):
    return _shared(shared, "fit", lambda: _FitConstants.build(params, mapping))


def _grid_products(points, params, cols, shared):
    """The latent density D at ``points``, E[W_q^2] at every point and
    E[W_q W_r] among the points ``cols`` ((k, k)): the factors that every
    closed-form battery on these points shares."""
    points = np.ascontiguousarray(points, dtype=np.float64)

    def build():
        dens = np.exp(lv_logpdf(points, params))
        sub, k = points[cols], len(cols)
        block = _weight_products(np.repeat(sub, k, axis=0), np.tile(sub, (k, 1)), params)
        return dens, _weight_products(points, points, params), block.reshape(k, k)

    return _shared(shared, ("grid", points.shape, points.tobytes(), cols.tobytes()), build)


def _score_moments(points, params, mapping, shared, item, order):
    """E[e^order s | x = x_q] at every point for order 0 and 1, and
    E[(e^2 - theta_j) s | x = x_q] for order 2, with e = y_j - mu_qj the
    deviation of ``item`` from its conditional mean mu_qj = nu_j + lambda_j' x_q
    and s the score on ``mapping``'s free parameters.

    The score is affine in y - nu and its outer product, and y | x = x_q is
    N(nu + lambda x_q, theta).  So order 0 is the score at the conditional
    mean plus the term theta adds, g(nu, theta) - g(nu, 0), with g as in
    ``_FitConstants``.  By Stein's lemma order 1 is theta_j times the
    score's slope along y_j at the conditional mean, affine in x_q: with
    t = theta_j u_j (u_j the j-th unit vector),
    g(nu + t, -t t') - g(nu, 0) + sum_k x_qk (g(nu, lambda_k t' + t lambda_k') - g(nu, 0)).
    Order 2 is theta_j^2 times the score's second derivative along y_j, the
    same at every point: g(nu, 2 t t') - g(nu, 0).
    """
    def build():
        consts = _fit_constants(params, mapping, shared)
        if order == 0:
            S = score_rows(params, mapping, conditional_mean_grid(points, params))
            S += consts.score_shift(params.nu, np.diag(params.theta))
            return S
        step = np.zeros(params.m)
        step[item] = params.theta[item]
        if order == 2:
            return consts.score_shift(params.nu, 2.0 * np.outer(step, step))
        slopes = [consts.score_shift(params.nu, np.outer(lam_k, step) + np.outer(step, lam_k))
                  for lam_k in params.lam.T]
        shift = consts.score_shift(params.nu + step, -np.outer(step, step))
        return shift + points @ np.array(slopes)

    key = ("score", order, None if order == 0 else item, points.shape, points.tobytes())
    return _shared(shared, key, build)


def _quadratic_moments(points, item, a, b, c, params, mapping, cols, shared):
    """Exact moments of G_q = W_q h_q / D_q under the fitted model, with
    h_q = a_q + b e_q + c (e_q^2 - theta_j) and e_q = y_j - mu_qj the
    deviation of ``item`` from its conditional mean at the point x_q (item
    None when b = c = 0).  ``a(params)`` gives a_q ((Q,)), or a is None for
    a_q = 0; ``b`` and ``c`` are scalars.  Bound to its first five
    arguments, this is a bundled battery's ``_moments`` hook: it returns
    Var(G) at every point, Cov(G) among the points ``cols`` and A = E[G s']
    with s the score on ``mapping``'s free parameters.

    Weighting the model density of y by W_q(y) = p(x_q | y) gives
    p(x_q) p(y | x_q), so E[G_q] = E[h_q | x = x_q] = a_q and
    A_q = E[h_q s | x = x_q] = a_q S0_q + b S1_q + c S2 (``_score_moments``).
    Weighting it by W_q W_r tilts y_j to N(mt, tau2_j) with
    mt = nu_j + tilt_j' (x_q + x_r) / 2 (``_FitConstants``), so
    E[G_q G_r] = E[W_q W_r] E~[h_q h_r] / (D_q D_r).  In e = y_j - mt,
    h_q = p0 + p1 e + c e^2 with alpha = mt - mu_qj,
    p0 = a_q + b alpha + c (alpha^2 - theta_j) and p1 = b + 2 c alpha, so
    E~[h_q h_r] = p0 q0 + tau2 (c (p0 + q0) + p1 q1) + 3 c^2 tau2^2.
    """
    dens, ww, block = _grid_products(points, params, cols, shared)
    mean = a is not None
    a = a(params) if mean else np.zeros(len(points))
    nu = theta = tau2 = 0.0
    t = mu = np.zeros(len(points))
    if item is not None:
        consts = _fit_constants(params, mapping, shared)
        nu, theta, tau2 = params.nu[item], params.theta[item], consts.tau2[item]
        t = points @ consts.tilt[item]
        mu = conditional_mean_grid(points, params)[:, item]

    def coefficients(a_q, alpha):
        return a_q + b * alpha + c * (alpha**2 - theta), b + 2.0 * c * alpha

    def products(p, q):
        (p0, p1), (q0, q1) = p, q
        return p0 * q0 + tau2 * (c * (p0 + q0) + p1 * q1) + 3.0 * c * c * tau2**2

    diag = coefficients(a, nu + t - mu)
    var = ww * (products(diag, diag) / dens**2) - a * a
    a_c, mu_c, t_c, dens_c = a[cols], mu[cols], t[cols], dens[cols]
    mt = nu + 0.5 * (t_c[:, None] + t_c[None, :])
    tilted = products(coefficients(a_c[:, None], mt - mu_c[:, None]),
                      coefficients(a_c[None, :], mt - mu_c[None, :]))
    cov = block * (tilted / np.outer(dens_c, dens_c)) - np.outer(a_c, a_c)

    A = np.zeros((len(points), mapping.q))
    if mean:
        A += a[:, None] * _score_moments(points, params, mapping, shared, item, 0)
    for coef, order in ((b, 1), (c, 2)):
        if coef:
            A += coef * _score_moments(points, params, mapping, shared, item, order)
    return var, cov, A


def mv_linearity_problem(grid: LvGrid, item: int) -> ResidualProblem:
    """Conditional-mean check for one variable via posterior-weight ratios.

    G_q = W_q (y_j - mu_qj) / D_q is the case (a, b, c) = (0, 1, 0) of
    ``_quadratic_moments``, so the residual covariance is exact."""
    item = _check_item_index(item)

    def response(Y, params):
        _check_item(item, params)
        return Y[:, item : item + 1]

    def eta_fn(params):
        return conditional_mean_grid(grid.points, params)[:, item]

    moments = partial(_quadratic_moments, grid.points, item, None, 1.0, 0.0)
    battery = RatioBattery(k=grid.Q, name=f"linearity[{item}]", _evaluate=response,
                           _eta=eta_fn, _moments=moments, grid=grid)
    return ResidualProblem(battery, grid)


def mv_homoscedasticity_problem(grid: LvGrid, item: int) -> ResidualProblem:
    """Conditional-variance check for one variable via posterior-weight ratios.

    G_q = W_q ((y_j - mu_qj)^2 - theta_j) / D_q is the case
    (a, b, c) = (0, 0, 1) of ``_quadratic_moments``, so the residual
    covariance is exact."""
    item = _check_item_index(item)

    def squared_deviation(Y, params):
        _check_item(item, params)
        mu = conditional_mean_grid(grid.points, params)[:, item]
        return (Y[:, item : item + 1] - mu[None, :]) ** 2

    def eta_fn(params):
        return np.full(grid.Q, params.theta[item])

    moments = partial(_quadratic_moments, grid.points, item, None, 0.0, 1.0)
    battery = RatioBattery(k=grid.Q, name=f"variance[{item}]", _evaluate=squared_deviation,
                           _eta=eta_fn, _moments=moments, grid=grid)
    return ResidualProblem(battery, grid)


def mv_linearity_direct_problem(grid: LvGrid, item: int) -> ResidualProblem:
    """Non-ratio conditional-mean check; comparison variant only.

    The summary component is the response times the conditional-to-marginal
    density ratio, so its expectation is the conditional mean itself and no
    ratio is needed.  Misfit in the latent density leaks into these
    residuals, which is why the ratio form is the default.
    G_q = y_j W_q / D_q is the case (a, b, c) = (mu_qj, 1, 0) of
    ``_quadratic_moments``, so the residual covariance is exact.
    """
    item = _check_item_index(item)

    def from_weights(Y, W, params):
        _check_item(item, params)
        dens = np.exp(lv_logpdf(grid.points, params))
        return Y[:, item : item + 1] * W / dens[None, :]

    def eta_fn(params):
        return conditional_mean_grid(grid.points, params)[:, item].copy()

    moments = partial(_quadratic_moments, grid.points, item, eta_fn, 1.0, 0.0)
    battery = WeightedBattery(k=grid.Q, name=f"linearity-direct[{item}]",
                              _evaluate=from_weights, _eta=eta_fn, _moments=moments, grid=grid)
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
