"""Generalized-residual machinery.

A test is its battery: summary functions of one observation, evaluated
against the latent grid that labels its points, and the battery's model
value eta.  The residual is the sample value eta_hat less eta, both on the
reported scale; its asymptotic covariance combines the covariance of each
row's contribution G with a penalty for parameter estimation:

    sigma_phi = Cov(G) - A I^{-1} A'

with A the mean outer product of G and the score, and I the
per-observation information, all at the fitted model.  I is the exact
information, minus the expected Hessian, for every battery.  Pointwise
residuals are referred to N(0, 1) after standardization; a summary
quadratic form over a designated subgrid is referred to a chi-square whose
weight matrix inverts only the leading s eigenvalues of sigma_phi.  A
report reads only the diagonal of sigma_phi and its block on the stable
summary points, and the engine forms only those.

A mean battery's sample value is the column mean of its values H, so G = H.
A ``RatioBattery`` is a posterior-weighted conditional moment of f(y) at
each grid point, t_q = mean(f W_q) / mean(W_q), with W the posterior
densities of the grid points given each row (the generalized residuals of
Haberman & Sinharay, 2013).  Its model value r_q is known in closed form,
and by the delta method each row contributes G_q = W_q (f - r_q) / D_q,
with D the model's latent density at the grid points.

A ``WeightedBattery`` that declares G_q = W_q h_q / D_q as a quadratic form
in one item (every bundled battery does) has Var(G), Cov(G) and A in closed
form (``_quadratic_moments``).  E[s | x] is a quadratic in x and the item's
score moments are linear in x, so its A is the basis
[1, x_q, a_q (1, x_q, vech x_q x_q')] ((Q, r), r = 2 + 2d + d(d+1)/2)
times an (r, q) table K of the fit's coefficients; the penalty's diagonal
and summary block come from the r x r form K I^{-1} K' (``_penalty``),
and the (Q x q) A is never formed.  E[W_q W_r] is symmetric in (q, r) to
the last bit, so only the upper triangle of the summary block is computed.
For a custom battery without a form, the values on one shared set of M
Monte Carlo draws from the fitted model estimate Cov(G), A and, where the
battery has no closed form, eta; a batch without such a battery draws
nothing.

The form fixes the sample value too: averaged over the data rows,
W_q h_q needs only W's column means and, per item, the weighted sums
W' (y_j - nu_j) / n and W' (y_j - nu_j)^2 / n (``_sample_values``), so no
battery with a form is evaluated row by row.  A grid is the product of its
axes (``LvGrid``), so with two or more latent dimensions those sums come
from per-axis factors of W, from (n x Q_1)'(n x Q / Q_1) products, and the
(n x Q) W is never formed (``_weight_sums``).

``run_residual_batch`` inverts the exact information once and makes one
pass per distinct set of grid axes: it takes W's column means (the
ratios' denominators) and each form item's weighted sums.  The grid's
batteries with a form and the same summary axes then go through one
stacked pass, in which a battery is a row index into tables built once:
per fit, every item's score moments (``_FitConstants.item_scores``); per
grid pass, every item's conditional-mean and tilt columns, and per grid
the paired points of E[W_q W_r].  Their sample values, moments, se, z and
p are (P, Q) arrays for P batteries on Q points, A is a (P, Q, r) basis
and a (P, r, q) table, and the batteries that keep the same summary points
share one eigendecomposition and one quadratic form for T, whose truncated
inverse is formed from the s kept eigenvectors alone.  Each item's
weighted sums come from their own product, and no other step mixes
batteries, so a report has the same bits in any batch.  A point whose
variance or summary-block row is not finite, as where the latent density
underflows, is unstable.  A custom battery takes its sample value from its
``evaluate`` on W, computed on the data, read-only, and dropped before W
on the draws is computed for its covariance; its (Q, q) A, estimated on
the draws, goes through the same penalty with the identity basis.
Batteries that give only ``_evaluate(Y, params)`` share one pass without
W.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import ConfigurationError, NotConvergedError, RankError
from .estimate import (
    DataMatrix,
    FitResult,
    _block_eigvalsh,
    _block_inverse,
    _check_conditioning,
    _expected_terms,
    _mean_loglik_grad,
    _row_scores,
    simulate_data,
    score_rows,
)
from .model import (
    ParamSet,
    _check_item,
    conditional_mean_grid,
    lv_logpdf,
    posterior_log_weights,
)

_DIAG_FLOOR = 1e-12
_EIG_RTOL = 1e-10
_DENOM_FLOOR = 1e-300
# the weight sums run on axis factors only where an underflowing factor moves
# each term by at most 2^-1075 exp(_FACTOR_SPAN) = _DENOM_FLOOR (``_weight_sums``)
_FACTOR_SPAN = float(np.log(_DENOM_FLOOR) + 1075.0 * np.log(2.0))


@dataclass(eq=False)
class SummaryBattery:
    """A residual test: a vector of k summary functions of one observation.

    ``evaluate`` maps an (n, m) data block to the (n, k) matrix of per-row
    summary values.  ``eta_closed`` returns the model value eta of the
    battery's sample value, for a mean battery the expectation of its
    values, when a closed form exists, else None; the engine then takes the
    battery's mean over the shared Monte Carlo draws.  ``grid`` (an
    ``LvGrid``) labels the k points of the report and holds the summary
    subset; a plain mean battery may go without one, and then has no
    summary statistic.
    """

    k: int
    name: str
    _evaluate: callable
    _eta: callable = None
    grid: object = None

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError("battery must have k >= 1 components")

    def evaluate(self, Y: np.ndarray, params: ParamSet, W: np.ndarray = None) -> np.ndarray:
        """The (n, k) battery values on the rows of Y.  ``W`` is for a
        ``WeightedBattery`` only: its rows' posterior weights, when the
        caller already has them."""
        out = self._values(np.atleast_2d(Y), params, W)
        if out.shape[1] != self.k:
            raise ConfigurationError(
                f"battery {self.name} returned {out.shape[1]} components, declared {self.k}"
            )
        return out

    def eta_closed(self, params: ParamSet):
        return None if self._eta is None else np.asarray(self._eta(params), dtype=np.float64)

    def _values(self, Y, params, W):
        if W is not None:
            raise ConfigurationError(f"battery {self.name} takes no posterior weights")
        return self._evaluate(Y, params)


def _posterior_weights(Y, points, params):
    """Posterior densities of the grid points given each row of Y ((n, Q))."""
    out = posterior_log_weights(Y, points, params)
    return np.exp(out, out=out)


def _weight_factors(Y, grid, params):
    """Per-axis factors of the posterior weights of ``grid``'s points given
    the rows of Y, (F, G, C) with W = (F (x) G) C (see ``_weight_sums``),
    or None where the dense pass runs: at d = 1 and past the range bound."""
    d = params.d
    if d == 1:
        return None
    axes = grid.axis_values
    post = params.posterior_law()
    P = post.precision
    points = grid.points
    peak = 0.5 * (post.logdet - d * np.log(2.0 * np.pi))
    cross = sum(P[a, b] * points[:, a] * points[:, b]
                for a in range(d) for b in range(a + 1, d))
    low = cross.min()
    if (1.0 - 1.0 / d) * (peak + cross.max() - low) > _FACTOR_SPAN:
        return None
    B = (Y - params.nu) @ post.lam_w
    # each axis's exponent b x - P_kk x^2 / 2 peaks over the axis's range at
    # b / P_kk clipped to that range
    curv = np.diag(P)
    top = np.clip(B / curv, [a.min() for a in axes], [a.max() for a in axes])
    top = B * top - 0.5 * curv * top**2
    share = (peak - low - 0.5 * np.einsum("ij,ij->i", B @ post.cov, B) + top.sum(axis=1)) / d
    # exponent of axis k's factor, [b_k | 1 | share - top_k] [x; -P_kk x^2 / 2; 1]
    left = np.empty((len(Y), 3))
    left[:, 1] = 1.0
    F = []
    for k, axis in enumerate(axes):
        left[:, 0] = B[:, k]
        left[:, 2] = share - top[:, k]
        term = left @ np.array([axis, -0.5 * curv[k] * axis**2, np.ones_like(axis)])
        F.append(np.exp(term, out=term))
    G = F[1]
    for f in F[2:]:
        G = (G[:, :, None] * f[:, None, :]).reshape(len(Y), -1)
    return F[0], G, np.exp(low - cross)


@kernels.single_blas_thread
def _weight_sums(Y, grid, params, items, W=None):
    """Column means wbar of the posterior weights W of ``grid``'s points
    given the rows of Y, and the weighted sums s1 = W' yt / n and
    s2 = W' yt^2 / n of each item j in ``items``, with yt = y_j - nu_j:
    ``(wbar, {j: (s1, s2)}, W)``.  W is the read-only dense weights where
    they were formed (or given), else None.

    The log posterior density at x_q is
    row_i + sum_k (b_ik x_qk - P_kk x_qk^2 / 2) + peak - cross_q, with
    cross_q = sum_{k<l} P_kl x_qk x_ql and peak the log of the density's
    maximum (see ``posterior_log_weights``).  A grid is the product of its
    axes, so the middle sum splits by axis: W_iq = F_i,j1 G_i,j' C_q with F
    the first axis's factor, G the row-wise Kronecker product of the other
    axes' factors and C_q = exp(min(cross) - cross_q) <= 1.  Each sum is then
    C (.) (F' (r (.) G)) / n for the rows r = 1, yt, yt^2: (Q_1 x Q / Q_1)
    products instead of one over the (n x Q) W.  Each axis's exponent is
    shifted by its largest value over the axis's range, and row i's factors
    share the row's offset t_i evenly, so each is at most exp(t_i / d).  t_i
    is the largest log W_i - log C over the grid's box, and the cross term
    is multilinear, so its range there is its range K = max(cross) -
    min(cross) on the grid, whose corners are the box's: t_i <= peak + K.

    A factor entry below the normal range has an absolute error of at most
    2^-1075 (it flushes to 0 below that), and the other factors of its term
    multiply it by at most exp((1 - 1/d) t_i).  So where
    (1 - 1/d) (peak + K) <= ``_FACTOR_SPAN``, no term of a sum moves by more
    than 2^-1075 exp(_FACTOR_SPAN) = ``_DENOM_FLOOR``, the mass below which a
    ratio's denominator is already flagged, and the factors cannot overflow.
    At d = 2 that is peak + K <= 108.7; the default 19 x 19 grid of a study1
    fit has K of about 4.  Past the bound and at d = 1, where the one factor
    is W itself, the dense W = exp(log W) is formed once and summed, as it
    is when W is given.
    """
    n = len(Y)
    items = sorted(_check_item(item, params) for item in items)
    factors = None if W is not None else _weight_factors(Y, grid, params)
    if factors is None:
        if W is None:
            W = _grid_weights(Y, grid, params)
        wbar = W.mean(axis=0)
    else:
        F, G, C = factors
        C /= n
        wbar = (F.T @ G).ravel() * C
    sums = {}
    for item in items:
        powers = np.empty((2, n))
        np.subtract(Y[:, item], params.nu[item], out=powers[0])
        np.square(powers[0], out=powers[1])
        if factors is None:
            sums[item] = powers @ W / n
        else:
            sums[item] = (F.T @ (powers[:, :, None] * G)).reshape(2, -1) * C
    return wbar, sums, W


@dataclass(eq=False)
class WeightedBattery(SummaryBattery):
    """A battery built from the posterior weights of its rows on a grid.

    W is the (n, Q) matrix of posterior densities of ``grid.points`` given
    each row, and ``_evaluate(Y, W, params)`` maps the rows and their W to
    the (n, k) battery values without writing into W.  ``evaluate`` computes
    W itself unless it is given; ``run_residual_batch`` computes it once per
    row set for the custom batteries on the same grid points and passes it
    in, so both paths give the same bits.

    ``_quadratic``, when given, declares the rows' contributions (a mean
    battery's values, or a ratio battery's delta-method terms), one per grid
    point, as G_q = W_q h_q / D_q with h_q = a_q + b e_q + c (e_q^2 - theta_j)
    and e_q = y_j - mu_qj the deviation of ``item`` from its conditional
    mean: ``(item, a, b, c)``, with ``a(params, dens)`` giving a_q from the
    parameters and the grid's latent density D (a None for 0), scalars b
    and c, and item None when b = c = 0.  E[G_q] = a_q, so a mean battery's
    model value is a_q.  The form fixes the
    battery's sample value as well as its covariance: the engine takes
    both in closed form, from W's column means and the item's W-weighted
    sums, and neither evaluates nor draws for the battery.  A ratio
    battery's form must be that of h_q = f - r_q.
    """

    _quadratic: tuple = None

    def __post_init__(self):
        super().__post_init__()
        if self.grid is None:
            raise ConfigurationError(f"weighted battery {self.name} needs a grid")
        if self._quadratic is not None and self._eta is None:
            raise ConfigurationError(f"battery {self.name} has closed-form moments "
                                     "but no closed-form eta")

    def _values(self, Y, params, W):
        if W is None:
            W = _posterior_weights(Y, self.grid.points, params)
        return self._evaluate(Y, W, params)


@dataclass(eq=False)
class RatioBattery(WeightedBattery):
    """Posterior-weighted conditional moments of f(y) on a grid.

    Component q is the ratio t_q = mean(f W_q) / mean(W_q) of a
    posterior-weighted mean of f to the weights' own mean.
    ``_evaluate(Y, params)`` returns f on the rows, broadcastable to (n, k)
    with k the number of grid points, and ``_eta(params)`` the model value
    r_q of each ratio, which must be given in closed form.  ``evaluate``
    returns f broadcast to (n, k), as a read-only view; it needs no W.
    The bundled linearity and variance batteries declare the quadratic
    form of h_q = f - r_q; a custom ratio battery without one has its
    covariance estimated on the draws.
    """

    def __post_init__(self):
        super().__post_init__()
        if self._eta is None:
            raise ConfigurationError(f"ratio battery {self.name} needs a closed-form eta")
        if self.k != len(self.grid.points):
            raise ConfigurationError(
                f"ratio battery {self.name} has k={self.k} for {len(self.grid.points)} grid points"
            )

    def _values(self, Y, params, W):
        return np.broadcast_to(self._evaluate(Y, params), (len(Y), self.k))


@dataclass(eq=False)
class AcmEstimate:
    """The entries of the residual covariance sigma_phi that a report reads.

    ``diag`` is the diagonal of sigma_phi (k,), from which the pointwise
    se are taken.  ``summary_index`` lists the summary points that entered T
    (the summary subgrid less its unstable points), ``summary_block`` is
    sigma_phi on those rows and columns, and ``summary_eigvals`` holds that
    block's eigenvalues in descending order, from the eigendecomposition
    behind T's truncated inverse.  Without a summary statistic the three are
    empty.  The engine forms them from the moments of the rows'
    contributions G (see the module docstring) and never forms the full
    k x k matrix.  ``M`` is the number of draws they were estimated from,
    0 when they are exact.
    """

    diag: np.ndarray
    summary_index: np.ndarray
    summary_block: np.ndarray
    summary_eigvals: np.ndarray
    M: int


@dataclass
class McConfig:
    """Settings for one test run: the number s of eigenvalues the summary
    statistic keeps, and the number of model draws M and their seed, on
    which Cov(G), A and a missing eta are estimated for a custom battery
    without closed-form moments; the information is always exact.  Every
    bundled battery has closed-form moments and uses neither M nor the
    seed."""

    M: int = 10_000
    seed: int = 0
    s: int = 1


@dataclass(eq=False)
class TestPoint:
    coords: np.ndarray
    eta_hat: float
    eta: float
    residual: float
    se: float
    z: float
    p: float
    unstable: bool


@dataclass(eq=False)
class SummaryStat:
    T: float
    s: int
    p: float
    n_points: int
    n_dropped: int


@dataclass(eq=False)
class TestReport:
    """Pointwise and summary results of one residual test.

    Point values are on the reported scale, so for ratio batteries
    ``eta_hat`` and ``eta`` are the empirical and model-implied conditional
    moments themselves.  ``coords`` is (k, d), a read-only view of the
    grid's points, and the other point fields are arrays over the k
    points, with NaN se, z and p at unstable points; ``points`` gives the
    same values as ``TestPoint``s, built on first access and kept.
    """

    battery: str
    coords: np.ndarray
    eta_hat: np.ndarray
    eta: np.ndarray
    residual: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    unstable: np.ndarray
    summary: SummaryStat
    config: dict
    acm: AcmEstimate

    @cached_property
    def points(self) -> list:
        fields = (self.eta_hat, self.eta, self.residual, self.se, self.z, self.p,
                  self.unstable)
        return [TestPoint(coords, *values)
                for coords, *values in zip(self.coords, *(f.tolist() for f in fields))]


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def eta_hat(battery: SummaryBattery, data: DataMatrix, params: ParamSet,
            W: np.ndarray = None) -> np.ndarray:
    """Sample value of the battery over the data rows, on the reported scale:
    the column means of its values, or for a ``RatioBattery`` the ratios
    mean(f W) / mean(W).  ``W``: the rows' posterior weights on a
    ``WeightedBattery``'s grid, when already known.  A battery with a
    quadratic form takes its value from the form, as ``run_residual_batch``
    does, so without ``W`` both give the same bits."""
    _check_grid_dimension(battery, params)
    if not _has_form(battery):
        wbar = None
        if isinstance(battery, RatioBattery):
            if W is None:
                W = _posterior_weights(data.values, battery.grid.points, params)
            wbar = W.mean(axis=0)
        return _evaluated_sample_value(battery, data.values, params, W, wbar)
    item = battery._quadratic[0]
    wbar, sums, _ = _weight_sums(data.values, battery.grid, params,
                                 () if item is None else (item,), W)
    dens = np.exp(lv_logpdf(battery.grid.points, params))
    t_hat, _ = _sample_values([battery], params, wbar, sums, dens)
    return t_hat[0]


def _has_form(battery) -> bool:
    return isinstance(battery, WeightedBattery) and battery._quadratic is not None


def _sample_values(batteries, params, wbar, sums, dens):
    """Sample values and model values ((P, Q) each) of batteries with a
    quadratic form on one grid, from the column means ``wbar`` of the rows'
    posterior weights W, each form item's weighted sums ``sums``
    (``_weight_sums``) and the grid's latent density ``dens``.

    With yt = y_j - nu_j and mt_q = lambda_j' x_q, so that e_q = yt - mt_q,
    the mean of W_q h_q over the rows is u_q = a_q wbar_q + v_q with
    v_q = b (s1_q - mt_q wbar_q) + c (s2_q - 2 mt_q s1_q + (mt_q^2 - theta_j) wbar_q),
    s1 = W' yt / n and s2 = W' yt^2 / n.  A ratio battery's value is
    r_q + u_q / wbar_q, taken as r_q + a_q + v_q / wbar_q, and a mean
    battery's u_q / D_q, taken as (a_q / D_q) wbar_q + v_q / D_q, which is
    wbar itself for the latent density.  Each battery is a row of (P, Q)
    arrays, mt_q a column of one (Q, m) table indexed by the items, and no
    step mixes rows, so a battery's values have the same bits in any
    batch."""
    a_q, b, c, items = _form_arrays([battery._quadratic for battery in batteries],
                                    params, dens)
    v = np.zeros_like(a_q)
    if items is not None:
        mt = (batteries[0].grid.points @ params.lam.T)[:, items].T
        theta = params.theta[items][:, None]
        s1, s2 = np.array([sums[item] if item in sums else np.zeros((2, len(dens)))
                           for item in items.tolist()]).transpose(1, 0, 2)
        v = (b[:, None] * (s1 - mt * wbar)
             + c[:, None] * (s2 - 2.0 * mt * s1 + (mt * mt - theta) * wbar))
    ratio = np.array([isinstance(battery, RatioBattery) for battery in batteries])
    eta = a_q.copy()
    for i in np.flatnonzero(ratio):
        eta[i] = batteries[i].eta_closed(params)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hat = eta + a_q + v / wbar
        if not ratio.all():
            t_hat[~ratio] = (a_q / dens * wbar + v / dens)[~ratio]
    return t_hat, eta


def _evaluated_sample_value(battery, Y, params, W, wbar):
    """``eta_hat`` of a battery without a quadratic form ((k,)): the column
    means of its values, or of f W over ``wbar`` for a ratio battery."""
    H = battery.evaluate(Y, params, W)
    if not isinstance(battery, RatioBattery):
        return H.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (H * W).mean(axis=0) / wbar


def z_statistic(residual, se, n: int) -> tuple:
    """Standardized residuals and their two-sided normal p-values, for
    scalars or elementwise for arrays."""
    if np.any(se <= 0):
        raise ValueError("se must be positive")
    z = residual / (se / np.sqrt(n))
    return z, kernels.normal_two_sided_p(z)


def truncated_inverse(sigma: np.ndarray, s: int) -> np.ndarray:
    """Generalized inverse keeping only the s largest eigenvalues.

    Eigenvalues at or below 1e-10 times the largest are treated as zero;
    requesting more than the numerically positive count raises RankError.
    """
    return _truncated_inverse(sigma, s)[0]


def _truncated_inverse(sigma, s):
    """``truncated_inverse`` and the eigenvalues of sigma, descending; for a
    stack of matrices (..., k, k), each one's, from one call per step."""
    sigma = 0.5 * (sigma + np.swapaxes(sigma, -1, -2))
    vals, vecs = np.linalg.eigh(sigma)
    vals = vals[..., ::-1]
    vecs = vecs[..., ::-1]
    tol = _EIG_RTOL * np.maximum(vals[..., :1], 0.0)
    n_pos = int(np.sum(vals > tol, axis=-1).min())
    if not 1 <= s <= n_pos:
        raise RankError(f"s={s} outside 1..{n_pos} numerically positive eigenvalues")
    # W from the s kept eigenpairs: the dropped ones would add exact zeros
    kept = vecs[..., :s]
    W = (kept * (1.0 / vals[..., None, :s])) @ np.swapaxes(kept, -1, -2)
    return 0.5 * (W + np.swapaxes(W, -1, -2)), vals


def chi2_statistic(e: np.ndarray, sigma: np.ndarray, n: int, s: int) -> tuple:
    """Quadratic-form statistic n e' W e and its chi-square(s) p-value."""
    T = max(float(n * e @ truncated_inverse(sigma, s) @ e), 0.0)
    return T, kernels.chi2_sf(s, T)


# ---------------------------------------------------------------------------
# closed-form moments
# ---------------------------------------------------------------------------


def _weight_products(X1, X2, params, V):
    """E[W(x1) W(x2)] under the model for paired rows of X1 and X2 ((Q,)).

    W(x) = N(x; E[x | y], V) is the posterior density of the latent point x
    given y, with V the posterior covariance.  E[x | y] ~ N(0, phi - V), and
    the product of the two normal densities in E[x | y] integrates to
    N(x1 - x2; 0, 2V) N((x1 + x2) / 2; 0, phi - V / 2).
    """
    zero = np.zeros(params.d)
    out = kernels.mvn_loglik_rows(X1 - X2, zero, np.linalg.cholesky(2.0 * V))
    out += kernels.mvn_loglik_rows(0.5 * (X1 + X2), zero,
                                   np.linalg.cholesky(params.phi - 0.5 * V))
    return np.exp(out, out=out)


@lru_cache(maxsize=32)
def _pair_points(grid):
    """The paired rows (X1, X2) at which ``_quadratic_moments`` takes
    E[W(x1) W(x2)], and the (row, column) indices ``upper`` of the summary
    block that its pairs fill: each point of ``grid`` with itself, then
    each pair of its summary points in the block's upper triangle, in
    row-major order.  E[W(x1) W(x2)] (``_weight_products``) takes x1 - x2,
    whose sign only negates the solved rows, and x1 + x2, so it has the same
    bits for (x2, x1) and the lower triangle is its mirror.  Read-only,
    built once per grid."""
    points = grid.points
    sub = points[_summary_subset(grid)]
    upper = np.triu_indices(len(sub))
    X1 = np.vstack([points, sub[upper[0]]])
    X2 = np.vstack([points, sub[upper[1]]])
    for a in (X1, X2, *upper):
        a.flags.writeable = False
    return X1, X2, upper


class _FitConstants:
    """Per-fit constants of the penalty and the closed-form moments, made
    once per batch from the fit's free vector and its ``params``, whose
    model they describe to the last bit.

    ``terms`` and ``slopes`` are the fit's ``_Terms`` at sample mean nu and
    sample covariance Sigma, and its ``_Slopes``; a fit from ``fit_ml``
    lends them the Cholesky factor and inverse of Sigma of its final iterate
    (see ``FitResult``), and any other fit's are formed from its free
    vector.  ``inv_information`` inverts the exact information, minus the
    expected Hessian (see ``estimate._expected_terms``), block by block
    after its conditioning check; every report's penalty takes it.  ``V``
    is the posterior covariance of x given y, read from
    ``params.posterior_law()``.

    ``score_change(delta, dS)`` is the change in the mean log-likelihood's
    gradient when the sample mean moves from nu by delta and
    S* = S + (ybar - nu)(ybar - nu)' moves by dS.  The gradient is linear in
    (ybar - nu, S*), so the change is Sigma^-1 delta on the intercepts and,
    on the rest, the gradient with G = Sigma^-1 dS Sigma^-1.
    ``tilt`` ((m, d)) and ``tau2`` ((m,)) give the doubly tilted law
    y_j | xt = xbar ~ N(nu_j + tilt_j' xbar, tau2_j), where
    xt = E[x | y] + N(0, V / 2) ~ N(0, phi - V / 2) and Cov(y, xt) = lambda phi.
    ``item_scores`` holds every item's score moments and
    ``score_coefficients`` the quadratic coefficients of E[s | x], each
    built on first use.
    """

    def __init__(self, fit):
        self.mapping = mapping = fit.mapping
        params = fit.params
        final = None if fit._final is None else fit._final.terms
        self.terms, self.slopes, hess = _expected_terms(fit.free_vector, mapping, params, final)
        _check_conditioning(_block_eigvalsh(mapping, self.terms.sig_inv, hess))
        self.inv_information = _block_inverse(mapping, self.terms.L, hess)
        self.V = params.posterior_law().cov
        cross = params.lam @ params.phi
        self.tilt = np.linalg.solve(params.phi - 0.5 * self.V, cross.T).T
        self.tau2 = np.diag(self.terms.s_star) - np.einsum("jk,jk->j", self.tilt, cross)

    def score_change(self, delta, dS):
        sig_inv = self.terms.sig_inv
        change = self.terms._replace(delta=delta, gmat=sig_inv @ dS @ sig_inv)
        return _mean_loglik_grad(self.mapping, change, self.slopes)

    @cached_property
    def item_scores(self):
        """``(base, slope, curv)``, every item j's score moments: with
        e = y_j - mu_qj the deviation of item j from its conditional mean at
        x_q and s the score on the free parameters,
        E[e s | x = x_q] = base_j + sum_k x_qk slope_jk ((m, q) and
        (m, d, q)) and E[(e^2 - theta_j) s | x = x_q] = curv_j ((m, q)).

        The score is affine in y - nu and its outer product, and y | x = x_q
        is N(nu + lambda x_q, theta).  By Stein's lemma the first moment is
        theta_j times the score's slope along y_j at the conditional mean:
        with t = theta_j u_j (u_j the j-th unit vector), ``score_change``
        for delta = t, plus x_qk times the change for
        dS = lambda_k t' + t lambda_k'.  The second is theta_j^2 times the
        score's second derivative along y_j: the change for dS = 2 t t'.
        Each dS is rank 2, so G = Sigma^-1 dS Sigma^-1 is a b' + b a' (or
        2 b b') in the columns a = Sigma^-1 lambda_k and b = Sigma^-1 t, and
        each gradient entry (G p)_i for dSigma/dv = e_i p' + p e_i' is
        gathered from those columns and their products with
        ``_Slopes.cols``, as ``_mean_loglik_grad`` gathers it; a correlation
        entry's tr(G D_ab) / 2 is a' D_ab b (b' D_ab b).
        """
        mapping, t, s = self.mapping, self.terms, self.slopes
        m, d, q = mapping.spec.m, mapping.spec.d, mapping.q
        B = t.sig_inv * t.theta             # column j: Sigma^-1 theta_j u_j
        A = t.sig_inv @ t.lam               # column k: Sigma^-1 lambda_k
        CB, CA = s.cols.T @ B, s.cols.T @ A
        at, ct = np.divmod(mapping.rank2_at, d + m)
        base, slope, curv = np.zeros((m, q)), np.zeros((m, d, q)), np.zeros((m, q))
        if mapping.spec.mean_structure:
            base[:, mapping.nu_slice] = B.T
        slope[:, :, mapping.cov_slice] = (A[at].T * CB[ct].T[:, None]
                                          + B[at].T[:, None] * CA[ct].T)
        curv[:, mapping.cov_slice] = 2.0 * B[at].T * CB[ct].T
        if len(mapping.phi_rows):
            slope[:, :, mapping.phi_slice] = (A.T @ s.d_phi @ B).transpose(2, 1, 0)
            curv[:, mapping.phi_slice] = np.einsum("tij,ik,jk->kt", s.d_phi, B, B)
        return base, slope, curv

    @cached_property
    def score_coefficients(self):
        """E[s | x] as a quadratic in x, s the score on the free parameters:
        its coefficients ((1 + d + d(d+1)/2, q)) on the monomials
        [1, x_1..x_d, x_k x_l (k <= l, row-major)] of ``_monomials``.

        The score is affine in y - nu and its outer product, and y | x is
        N(nu + lambda x, theta), so E[s | x] is the score at the conditional
        mean, quadratic in x, plus the change that theta adds to S*,
        ``score_change(0, theta)``.  The quadratic's coefficients come from
        the score at the 1 + 2d + d(d-1)/2 points 0, +-e_k and e_k + e_l
        (k < l) by central differences, which are exact for a quadratic:
        f(e_k) - f(-e_k) = 2 c_k, f(e_k) + f(-e_k) - 2 f(0) = 2 c_kk and
        f(e_k + e_l) - f(e_k) - f(e_l) + f(0) = c_kl.
        """
        mapping, t = self.mapping, self.terms
        d = mapping.spec.d
        eye, pairs = np.eye(d), _square_pairs(d)
        X = np.vstack([np.zeros(d), eye, -eye] + [eye[k] + eye[l] for k, l in pairs if k < l])
        f = _row_scores(mapping, t, X @ t.lam.T)
        f0, up, down, mixed = f[0], f[1:d + 1], f[d + 1:2 * d + 1], iter(f[2 * d + 1:])
        square = [0.5 * (up[k] + down[k]) - f0 if k == l else next(mixed) - up[k] - up[l] + f0
                  for k, l in pairs]
        change = self.score_change(np.zeros(mapping.spec.m), np.diag(t.theta))
        return np.vstack([f0 + change, 0.5 * (up - down), *square])


def _square_pairs(d):
    """The (k, l) with k <= l < d in row-major order: the quadratic
    monomials x_k x_l of ``_monomials`` and ``score_coefficients``."""
    return [(k, l) for k in range(d) for l in range(k, d)]


def _monomials(points):
    """[1, x_1..x_d, x_k x_l (k <= l, row-major)] at each row of ``points``
    ((Q, d) -> (Q, 1 + d + d(d+1)/2))."""
    return np.column_stack([np.ones(len(points)), points]
                           + [points[:, k] * points[:, l]
                              for k, l in _square_pairs(points.shape[1])])


def _form_arrays(forms, params, dens):
    """P quadratic forms on one grid (see ``WeightedBattery``) as arrays: a_q
    ((P, Q), 0 where a is None), b and c ((P,)), and the items ((P,)), or
    None when no form has one.  A form without an item has b = c = 0, so
    its row may read any item's values: they enter times 0.  It reads
    item 0's."""
    items, a, b, c = zip(*forms)
    a_q = np.zeros((len(forms), len(dens)))
    for i, a_i in enumerate(a):
        if a_i is not None:
            a_q[i] = a_i(params, dens)
    if items.count(None) == len(items):
        items = None
    else:
        items = np.array([0 if item is None else item for item in items])
    return a_q, np.array(b, dtype=np.float64), np.array(c, dtype=np.float64), items


def _quadratic_moments(grid, dens, forms, params, consts):
    """Exact moments of P batteries' contributions G_q = W_q h_q / D_q on
    ``grid``, whose latent density D is ``dens``, under the fitted model,
    each declared by its quadratic form ``(item, a, b, c)`` (see
    ``WeightedBattery``): Var(G) at every point ((P, Q)), Cov(G) among the
    grid's K summary points ((P, K, K)), and A = E[G s'] with s the score on
    the free parameters as the product of a basis ((P, Q, r)) and a table
    ((P, r, q)), from the fit's ``_FitConstants``; ``_penalty`` takes A in
    that form, and A itself is never formed.

    The forms are rows of tables: every item's tilt and conditional-mean
    columns on the grid ((Q, m), built once per call) and the fit's
    ``item_scores``, indexed by the batteries' items, so every step is
    elementwise or per battery and a battery's moments have the same bits
    in any stack.  Where D underflows, Var(G) and Cov(G) are 0/0 or x/0;
    they are formed without numpy warnings and ``_reports`` flags those
    points unstable.

    Weighting the model density of y by W_q(y) = p(x_q | y) gives
    p(x_q) p(y | x_q), so E[G_q] = E[h_q | x = x_q] = a_q and
    A_q = E[h_q s | x = x_q] = a_q E[s | x_q] + b S1_q + c S2 with S1, S2
    from ``item_scores``: S1_q = base_j + x_q' slope_j is linear in x_q, S2
    is constant, and E[s | x] is a quadratic in x
    (``score_coefficients``).  So A_q is basis_q times the table, with
    basis_q = [1, x_q, a_q m(x_q)] for the monomials m of ``_monomials``
    and the table's rows b base_j + c curv_j, b slope_j and the
    coefficients of E[s | x]: r = 2 + 2d + d(d+1)/2.  Weighting it by
    W_q W_r tilts y_j to N(mt, tau2_j) with
    mt = nu_j + tilt_j' (x_q + x_r) / 2 (``_FitConstants``), so
    E[G_q G_r] = E[W_q W_r] E~[h_q h_r] / (D_q D_r).  In e = y_j - mt,
    h_q = p0 + p1 e + c e^2 with alpha = mt - mu_qj,
    p0 = a_q + b alpha + c (alpha^2 - theta_j) and p1 = b + 2 c alpha, so
    E~[h_q h_r] = p0 q0 + tau2 (c (p0 + q0) + p1 q1) + 3 c^2 tau2^2.
    """
    points, cols = grid.points, _summary_subset(grid)
    Q, K = len(points), len(cols)
    # E[W_q^2] at every point and E[W_q W_r] on the summary block's upper
    # triangle, in one call
    X1, X2, upper = _pair_points(grid)
    pairs = _weight_products(X1, X2, params, consts.V)
    ww, block = pairs[:Q], np.empty((K, K))
    block[upper] = block[upper[::-1]] = pairs[Q:]

    a_q, b, c, items = _form_arrays(forms, params, dens)
    P, d, q = len(a_q), params.d, consts.mapping.q
    basis = np.empty((P, Q, 1 + d + (d + 1) * (d + 2) // 2))
    basis[:, :, 0] = 1.0
    basis[:, :, 1:d + 1] = points
    basis[:, :, d + 1:] = a_q[:, :, None] * _monomials(points)
    table = np.zeros((P, basis.shape[2], q))
    if items is not None:
        base, slope, curv = consts.item_scores
        table[:, 0] = b[:, None] * base[items] + c[:, None] * curv[items]
        table[:, 1:d + 1] = b[:, None, None] * slope[items]
    if any(a is not None for _, a, _, _ in forms):
        table[:, d + 1:] = consts.score_coefficients

    # scalars as (P, 1, 1) and grid values as (P, 1, Q), so one set of
    # shapes serves the diagonal and the (K, K) summary block
    if items is None:
        t = mu = np.zeros((P, Q))
        nu = theta = tau2 = np.zeros(P)
    else:
        t = (points @ consts.tilt.T)[:, items].T
        mu = conditional_mean_grid(points, params)[:, items].T
        nu, theta, tau2 = params.nu[items], params.theta[items], consts.tau2[items]
    a_q, t, mu = (x[:, None, :] for x in (a_q, t, mu))
    nu, theta, tau2, b3, c3 = (x[:, None, None] for x in (nu, theta, tau2, b, c))

    def coefficients(a_, alpha):
        return a_ + b3 * alpha + c3 * (alpha**2 - theta), b3 + 2.0 * c3 * alpha

    def products(p, q):
        (p0, p1), (q0, q1) = p, q
        return p0 * q0 + tau2 * (c3 * (p0 + q0) + p1 * q1) + 3.0 * c3 * c3 * tau2**2

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diag = coefficients(a_q, nu + t - mu)
        var = (ww * (products(diag, diag) / dens**2) - a_q * a_q)[:, 0]
        a_c, mu_c, t_c, dens_c = a_q[..., cols], mu[..., cols], t[..., cols], dens[cols]
        mt = nu + 0.5 * (t_c.transpose(0, 2, 1) + t_c)
        tilted = products(coefficients(a_c.transpose(0, 2, 1), mt - mu_c.transpose(0, 2, 1)),
                          coefficients(a_c, mt - mu_c))
        cov = block * (tilted / np.outer(dens_c, dens_c)) - a_c.transpose(0, 2, 1) * a_c
    return var, cov, basis, table


def _penalty(basis, table, inv_info, subset):
    """The diagonal ((P, Q)) and the block on the summary ``subset``
    ((P, K, K)) of A I^-1 A' for P batteries whose A = E[G s'] ((P, Q, q))
    is ``basis`` ((P, Q, r)) times ``table`` ((P, r, q)), through the r x r
    form table I^-1 table', so A is never formed.  A basis of None is the
    identity, whose table is A itself."""
    form = table @ inv_info @ table.transpose(0, 2, 1)
    if basis is None:
        return np.diagonal(form, axis1=1, axis2=2), form[:, subset][:, :, subset]
    left = basis @ form
    return (np.einsum("pqr,pqr->pq", left, basis),
            left[:, subset] @ basis[:, subset].transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_residual_test(battery: SummaryBattery, fit: FitResult, data: DataMatrix,
                      mc: McConfig = None) -> TestReport:
    """Run one residual test end to end."""
    return run_residual_batch([battery], fit, data, mc)[0]


@kernels.single_blas_thread
def run_residual_batch(batteries, fit: FitResult, data: DataMatrix,
                       mc: McConfig = None) -> list:
    """Run several residual tests on one fit, one grid at a time (see the
    module docstring), and return the reports in the order of ``batteries``.

    Every report's penalty takes the fit's exact information.  Batteries
    without a quadratic form share the ``mc.M`` model draws drawn from
    ``mc.seed`` and their scores, which estimate only their Cov(G), A and a
    missing eta; the draws are made, and M checked against its minimum of
    1000, only when the batch holds such a battery.
    """
    if mc is None:
        mc = McConfig()
    if not fit.converged:
        raise NotConvergedError(
            "refusing to run residual tests on a non-converged fit: "
            + "; ".join(fit.warnings)
        )
    params = fit.params
    for battery in batteries:
        _check_grid_dimension(battery, params)
    exact = [_has_form(battery) for battery in batteries]
    if not all(exact):
        if mc.M < 1000:
            raise ConfigurationError(f"M={mc.M} below the minimum of 1000")
        rng = np.random.default_rng(mc.seed)
        draws = simulate_data(params, mc.M, rng).values
        scores = score_rows(params, fit.mapping, draws)
    consts = _FitConstants(fit)

    groups = {}
    for i, battery in enumerate(batteries):
        grid = battery.grid if isinstance(battery, WeightedBattery) else None
        groups.setdefault(None if grid is None else grid.axes, (grid, []))[1].append(i)
    reports = {}
    for grid, members in groups.values():
        dens = None if grid is None else np.exp(lv_logpdf(grid.points, params))
        stacks = {}
        for i in members:
            if exact[i]:
                stacks.setdefault(batteries[i].grid.summary_axes, []).append(i)
        W = wbar = None
        if stacks:
            items = {batteries[i]._quadratic[0] for i in members if exact[i]} - {None}
            wbar, sums, W = _weight_sums(data.values, grid, params, items)
        for stack in stacks.values():
            batch = [batteries[i] for i in stack]
            t_hat, eta = _sample_values(batch, params, wbar, sums, dens)
            cols = _summary_subset(batch[0].grid)
            moments = _quadratic_moments(batch[0].grid, dens,
                                         [battery._quadratic for battery in batch],
                                         params, consts)
            done = _reports(batch, data.n, t_hat, wbar, cols, (eta, *moments),
                            consts.inv_information, 0, mc)
            reports.update(zip(stack, done))

        drawn = [i for i in members if not exact[i]]
        if drawn and W is None and grid is not None:
            # a custom battery evaluates on the dense W, which the weight
            # sums did not form
            W = _grid_weights(data.values, grid, params)
            wbar = W.mean(axis=0)
        t_hats = [_evaluated_sample_value(batteries[i], data.values, params, W, wbar)
                  for i in drawn]
        W = None
        if drawn:
            W = _grid_weights(draws, grid, params)
        for i, t_hat in zip(drawn, t_hats):
            cols = _summary_subset(batteries[i].grid)
            moments = _draw_moments(batteries[i], params, draws, W, dens, scores, cols)
            eta, var, cov, A = (m[None] for m in moments)
            reports[i] = _reports([batteries[i]], data.n, t_hat[None], wbar, cols,
                                  (eta, var, cov, None, A), consts.inv_information,
                                  mc.M, mc)[0]
        del W
    return [reports[i] for i in range(len(batteries))]


def _check_grid_dimension(battery, params):
    """Raise ConfigurationError where a weighted battery's grid does not
    have the model's latent dimension."""
    if isinstance(battery, WeightedBattery) and battery.grid.d != params.d:
        raise ConfigurationError(f"battery {battery.name} is on a {battery.grid.d}-"
                                 f"dimensional grid, the fit has d={params.d}")


def _summary_subset(grid):
    """Indices of the grid's summary points; empty without a summary or a
    grid."""
    subset = getattr(grid, "summary_subset", None)
    return np.empty(0, dtype=np.intp) if subset is None else subset


def _grid_weights(Y, grid, params):
    """Read-only posterior weights of the grid's points given each row of Y;
    None without a grid."""
    if grid is None:
        return None
    W = _posterior_weights(Y, grid.points, params)
    W.flags.writeable = False
    return W


def _draw_moments(battery, params, draws, W, dens, scores, cols):
    """A custom battery's eta, and the moments of its rows' contributions G
    estimated on the shared draws: Var(G), Cov(G) among the columns
    ``cols`` and A = E[G s'], from the draws' posterior weights ``W``,
    scores and the grid's latent density ``dens``.  ``run_residual_batch``
    makes the draws, their scores and W; everything else that only custom
    batteries need is here."""
    H = battery.evaluate(draws, params, W)
    eta = battery.eta_closed(params)
    if isinstance(battery, RatioBattery):
        # by the delta method, the ratio of the column means of [f W, W] at
        # their model values [D r, D] moves by G_q = W_q (f - r_q) / D_q per row
        G = H - eta
        G *= W
        G /= dens
    else:
        G = H
    del H
    M = len(draws)
    mean = G.mean(axis=0)
    if eta is None:
        eta = mean
    A = G.T @ scores / M
    G = G - mean
    Gs = G[:, cols]
    return eta, np.einsum("ij,ij->j", G, G) / (M - 1), Gs.T @ Gs / (M - 1), A


def _reports(batteries, n, t_hat, wbar, subset, moments, inv_info, M, mc):
    """Reports of P batteries with k points each from their sample values
    ``t_hat`` ((P, k)), the data weights' column means ``wbar`` and
    ``moments``: eta (P, k), Var(G) (P, k), Cov(G) on the summary ``subset``
    (P, K, K) and A as a basis and a table (see ``_penalty``), estimated on
    M draws or exact (M = 0), and the fit's exact inverse information.  A
    point is unstable where its variance is not finite or at most
    ``_DIAG_FLOOR``, where its row of the summary block is not finite, where
    a ratio's denominator mass is below ``_DENOM_FLOOR`` and where its
    residual is not finite."""
    eta, var_G, cov_G, basis, table = moments
    diag, block = _penalty(basis, table, inv_info, subset)
    var = var_G - diag
    blocks = cov_G - block
    blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))

    unstable = ~(var > _DIAG_FLOOR)
    unstable[:, subset] |= ~np.isfinite(blocks).all(axis=2)
    ratio = np.array([isinstance(battery, RatioBattery) for battery in batteries])
    if ratio.any():
        unstable[ratio] |= wbar * n < _DENOM_FLOOR
    resid = t_hat - eta
    finite = np.isfinite(resid)
    ok = ~unstable & finite
    unstable |= ~finite
    se, z, p = np.full((3, *var.shape), np.nan)
    se[ok] = np.sqrt(var[ok])
    z[ok], p[ok] = z_statistic(resid[ok], se[ok], n)
    t_hat = np.where(np.isfinite(t_hat), t_hat, np.nan)
    resid = np.where(finite, resid, np.nan)

    # batteries that keep the same stable summary points share one
    # eigendecomposition call and one stacked quadratic form n e' W e
    groups, summaries = {}, {}
    for i, row in enumerate(unstable[:, subset]):
        groups.setdefault(row.tobytes(), []).append(i)
    for same in groups.values():
        kept = np.flatnonzero(~unstable[same[0], subset])
        keep = subset[kept]
        kept_blocks = blocks.take(same, axis=0).take(kept, axis=1).take(kept, axis=2)
        eigvals, T = np.empty((len(same), 0)), [None] * len(same)
        if len(keep):
            W_inv, eigvals = _truncated_inverse(kept_blocks, mc.s)
            e = resid.take(same, axis=0).take(keep, axis=1)
            T = np.maximum(((n * e)[:, None, :] @ W_inv @ e[:, :, None])[:, 0, 0], 0.0)
        for j, i in enumerate(same):
            summaries[i] = keep, kept_blocks[j], eigvals[j], T[j]

    reports = []
    for i, battery in enumerate(batteries):
        keep, block, eigvals, T = summaries[i]
        summary = None
        if len(keep):
            T = float(T)
            summary = SummaryStat(T=T, s=mc.s, p=kernels.chi2_sf(mc.s, T),
                                  n_points=len(keep), n_dropped=len(subset) - len(keep))
        coords = getattr(battery.grid, "points", None)
        if coords is None or len(coords) != battery.k:
            coords = np.arange(battery.k, dtype=np.float64)[:, None]
        # a read-only view, so no report can write into a shared grid
        coords = np.asarray(coords, dtype=np.float64).view()
        coords.flags.writeable = False
        config = {"battery": battery.name, "covariance": "exact" if M == 0 else "monte-carlo",
                  "s": mc.s, "n": n, "grid": getattr(battery.grid, "label", ""),
                  "summary_grid": getattr(battery.grid, "summary_label", "")}
        acm = AcmEstimate(diag=var[i], summary_index=keep, summary_block=block,
                          summary_eigvals=eigvals, M=M)
        reports.append(TestReport(
            battery=battery.name, coords=coords,
            eta_hat=t_hat[i], eta=eta[i], residual=resid[i], se=se[i], z=z[i], p=p[i],
            unstable=unstable[i], summary=summary, config=config, acm=acm))
    return reports
