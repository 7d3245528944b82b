"""Generalized-residual machinery.

A test is defined by a battery of summary functions of one observation,
evaluated against a latent grid, and the battery's model value eta.  The
residual is the sample value eta_hat less eta, both on the reported scale;
its asymptotic covariance combines the covariance of each row's
contribution G with a penalty for parameter estimation:

    sigma_phi = Cov(G) - A I^{-1} A'

with A the mean outer product of G and the score, and I the
per-observation information, all at the fitted model.  A battery that knows
these moments in closed form (the latent-density battery) gives them
through its ``_moments`` hook, and the engine pairs them with the exact
information ``expected_information``.  For every other battery Cov(G), A
and I are estimated from one shared set of M Monte Carlo draws from the
fitted model; a batch in which every battery has the hook draws nothing.
Pointwise residuals are referred to N(0, 1) after standardization; a
summary quadratic form over a designated subgrid is referred to a
chi-square whose weight matrix inverts only the leading s eigenvalues of
sigma_phi.

A mean battery's sample value is the column mean of its values H, so G = H.
A ``RatioBattery`` is a posterior-weighted conditional moment of f(y) at
each grid point, t_q = colmean(f W_q) / colmean(W_q), with W the posterior
densities of the grid points given each row (the generalized residuals of
Haberman & Sinharay, 2013).  Its model value r_q is known in closed form,
and by the delta method each row contributes G_q = W_q (f - r_q) / D_q,
with D the model's latent density at the grid points.

A report reads two parts of sigma_phi: its diagonal, for the pointwise
standard errors, and its block on the stable summary points, for T.  The
engine forms only those: Var(G) less the row-wise A I^{-1} A', and Cov(G)
on the kept columns less the same term on them.  On the draws, Var(G) is
each column's centred sum of squares over M - 1 and Cov(G) the centred
cross product of the summary columns over M - 1.
``assemble_acm`` builds the full matrix J (sigma_H - A I^{-1} A') J' from
the covariance of a battery's values and a Jacobian J, and is kept as the
dense reference.

The bundled batteries are ``WeightedBattery``s on one (rows x Q) matrix W.
``run_residual_batch`` makes one pass per distinct set of grid points: it
computes W on the data, takes W's column means (the ratios' denominators)
and every problem's sample value from it, drops it, and, when a problem on
the grid has no closed-form moments, computes W on the shared draws for
their covariance entries.  Each W is read-only.
Batteries that give only ``_evaluate(Y, params)`` share one pass without W.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from . import kernels
from .errors import ConfigurationError, NotConvergedError, RankError
from .estimate import (
    DataMatrix,
    FitResult,
    expected_information,
    invert_information,
    score_information,
    simulate_data,
    score_rows,
)
from .model import ParamSet, lv_logpdf, posterior_log_weights

_DIAG_FLOOR = 1e-12
_EIG_RTOL = 1e-10
_DENOM_FLOOR = 1e-300


@dataclass(eq=False)
class SummaryBattery:
    """A vector of k summary functions of one observation.

    ``evaluate`` maps an (n, m) data block to the (n, k) matrix of per-row
    summary values.  ``eta_closed`` returns the model value eta of the
    battery's sample value, for a mean battery the expectation of its
    values, when a closed form exists, else None; the engine then takes the
    battery's mean over the shared Monte Carlo draws.

    ``_moments(params, mapping, cols)``, when given, returns in closed form
    the moments of the rows' contributions G (a mean battery's values) under
    the model at ``params``: Var(G) (k,), Cov(G) among the columns ``cols``,
    and A = E[G s'] (k, q) with s the score on ``mapping``'s free
    parameters.  The engine then draws nothing for the battery.
    """

    k: int
    name: str
    _evaluate: callable
    _eta: callable = None
    _moments: callable = None

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError("battery must have k >= 1 components")
        if self._moments is not None and self._eta is None:
            raise ConfigurationError(f"battery {self.name} has closed-form moments "
                                     "but no closed-form eta")

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


def _points_key(grid) -> tuple:
    """Grids with equal keys give equal posterior weights on the same rows."""
    points = np.asarray(grid.points, dtype=np.float64)
    return points.shape, points.tobytes()


@dataclass(eq=False)
class WeightedBattery(SummaryBattery):
    """A battery built from the posterior weights of its rows on a grid.

    W is the (n, Q) matrix of posterior densities of ``grid.points`` given
    each row, and ``_evaluate(Y, W, params)`` maps the rows and their W to
    the (n, k) battery values without writing into W.  ``evaluate`` computes
    W itself unless it is given; ``run_residual_batch`` computes it once per
    row set for every battery on the same grid points and passes it in, so
    both paths give the same bits.
    """

    grid: object = None

    def __post_init__(self):
        super().__post_init__()
        if self.grid is None:
            raise ConfigurationError(f"weighted battery {self.name} needs a grid")

    def _values(self, Y, params, W):
        if W is None:
            W = _posterior_weights(Y, self.grid.points, params)
        return self._evaluate(Y, W, params)


@dataclass(eq=False)
class RatioBattery(WeightedBattery):
    """Posterior-weighted conditional moments of f(y) on a grid.

    Component q is the ratio t_q = colmean(f W_q) / colmean(W_q) of a
    posterior-weighted mean of f to the weights' own mean.
    ``_evaluate(Y, params)`` returns f on the rows, broadcastable to (n, k)
    with k the number of grid points, and ``_eta(params)`` the model value
    r_q of each ratio, which must be given in closed form.  ``evaluate``
    returns f broadcast to (n, k), as a read-only view; it needs no W.
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


def _ratio_draws(f, W, r, D):
    """Each row's contribution G to a ratio battery's residual covariance.

    By the delta method, the ratio of the column means of [f W, W] at their
    model values [D r, D] moves by G_q = W_q (f - r_q) / D_q per row, with r
    the ratio's model value and D the latent density at the grid points.
    """
    G = f - r
    G *= W
    G /= D
    return G


@dataclass(eq=False)
class ResidualProblem:
    """A battery and the latent grid that labels its report's points."""

    battery: SummaryBattery
    grid: object  # LvGrid; duck-typed to avoid a circular import


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


@dataclass(eq=False)
class DenseAcm:
    """Full residual covariance J (sigma_H - A I^-1 A') J' from ``assemble_acm``.

    ``sym_delta`` is the largest asymmetry before symmetrization and
    ``unstable`` flags diagonal entries at or below 1e-12.
    """

    sigma_phi_hat: np.ndarray
    sym_delta: float
    unstable: np.ndarray


@dataclass
class McConfig:
    """Settings for one test run: the number of model draws M, from which
    Cov(G), A and the information are estimated for every battery without
    closed-form moments, their seed, and the number s of eigenvalues the
    summary statistic keeps.  A battery with closed-form moments uses
    neither M nor the seed."""

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
    moments themselves.
    """

    battery: str
    points: list
    summary: SummaryStat
    config: dict
    acm: AcmEstimate


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def eta_hat(battery: SummaryBattery, data: DataMatrix, params: ParamSet,
            W: np.ndarray = None) -> np.ndarray:
    """Sample value of the battery over the data rows, on the reported scale:
    the column means of its values, or for a ``RatioBattery`` the ratios
    colmean(f W) / colmean(W).  ``W``: the rows' posterior weights on a
    ``WeightedBattery``'s grid, when already known."""
    wbar = None
    if isinstance(battery, RatioBattery):
        if W is None:
            W = _posterior_weights(data.values, battery.grid.points, params)
        wbar = kernels.colmean(W)
    return _eta_hat(battery, data.values, params, W, wbar)


def _eta_hat(battery, Y, params, W, wbar):
    """``eta_hat`` on the rows Y, given their weights' column means ``wbar``
    for a ratio battery."""
    H = battery.evaluate(Y, params, W)
    if not isinstance(battery, RatioBattery):
        return kernels.colmean(np.ascontiguousarray(H))
    with np.errstate(divide="ignore", invalid="ignore"):
        return kernels.colmean(H * W) / wbar


def assemble_acm(jac: np.ndarray, A: np.ndarray, inv_info: np.ndarray,
                 sigma_H: np.ndarray) -> DenseAcm:
    """Assemble and symmetrize the full residual covariance.

    Outputs with a diagonal entry at or below 1e-12 are flagged unstable;
    the engine reports them but excludes them from z and summary
    statistics.  The engine forms only the entries it reads; this dense
    assembly is the reference those entries are tested against.
    """
    k = sigma_H.shape[0]
    if A.shape[0] != k or inv_info.shape[0] != A.shape[1] or jac.shape[1] != k:
        raise ConfigurationError(
            f"non-conformable shapes: jac {jac.shape}, A {A.shape}, "
            f"inv_info {inv_info.shape}, sigma_H {sigma_H.shape}"
        )
    inner = sigma_H - A @ inv_info @ A.T
    raw = jac @ inner @ jac.T
    sym_delta = float(np.abs(raw - raw.T).max())
    sigma_phi = 0.5 * (raw + raw.T)
    return DenseAcm(
        sigma_phi_hat=sigma_phi,
        sym_delta=sym_delta,
        unstable=np.diag(sigma_phi) <= _DIAG_FLOOR,
    )


def z_statistic(residual, se, n: int) -> tuple:
    """Standardized residuals and their two-sided normal p-values, for
    scalars or elementwise for arrays."""
    if np.any(se <= 0):
        raise ValueError("se must be positive")
    z = residual / (se / np.sqrt(n))
    return z, 2.0 * ndtr(-np.abs(z))


def truncated_inverse(sigma: np.ndarray, s: int) -> np.ndarray:
    """Generalized inverse keeping only the s largest eigenvalues.

    Eigenvalues at or below 1e-10 times the largest are treated as zero;
    requesting more than the numerically positive count raises RankError.
    """
    return _truncated_inverse(sigma, s)[0]


def _truncated_inverse(sigma, s):
    """``truncated_inverse`` and the eigenvalues of sigma, descending."""
    sigma = 0.5 * (sigma + sigma.T)
    vals, vecs = np.linalg.eigh(sigma)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    tol = _EIG_RTOL * max(vals[0], 0.0)
    n_pos = int(np.sum(vals > tol))
    if not 1 <= s <= n_pos:
        raise RankError(f"s={s} outside 1..{n_pos} numerically positive eigenvalues")
    inv_vals = np.zeros_like(vals)
    inv_vals[:s] = 1.0 / vals[:s]
    W = (vecs * inv_vals) @ vecs.T
    return 0.5 * (W + W.T), vals


def chi2_statistic(e: np.ndarray, sigma: np.ndarray, n: int, s: int) -> tuple:
    """Quadratic-form statistic n e' W e and its chi-square(s) p-value."""
    return _chi2_statistic(e, sigma, n, s)[:2]


def _chi2_statistic(e, sigma, n, s):
    """``chi2_statistic`` and the eigenvalues of sigma, descending."""
    W, vals = _truncated_inverse(sigma, s)
    T = float(n * e @ W @ e)
    T = max(T, 0.0)
    return T, float(chdtrc(s, T)), vals


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_residual_test(problem: ResidualProblem, fit: FitResult, data: DataMatrix,
                      mc: McConfig = None) -> TestReport:
    """Run one residual test end to end."""
    return run_residual_batch([problem], fit, data, mc)[0]


@kernels.single_blas_thread
def run_residual_batch(problems, fit: FitResult, data: DataMatrix,
                       mc: McConfig = None) -> list:
    """Run several residual tests sharing one draw set.

    A problem whose battery has closed-form moments takes them with the
    exact information.  The others share the M model draws, their scores
    and the information estimated from them, which are made only when the
    batch holds such a problem.  The problems are then run one grid at a
    time: the posterior-weight matrix W of the grid's points is computed on
    the data, every problem on the grid takes its sample value from it, and
    it is dropped before W on the draws is computed for the covariance
    entries of the grid's problems without closed-form moments.  Reports
    come back in the order of ``problems``.
    """
    if mc is None:
        mc = McConfig()
    if not fit.converged:
        raise NotConvergedError(
            "refusing to run residual tests on a non-converged fit: "
            + "; ".join(fit.warnings)
        )
    if mc.M < 1000:
        raise ConfigurationError(f"M={mc.M} below the minimum of 1000")
    params = fit.params
    exact = [problem.battery._moments is not None for problem in problems]
    if not all(exact):
        rng = np.random.default_rng(mc.seed)
        draws = simulate_data(params, mc.M, rng).values
        scores = np.ascontiguousarray(score_rows(params, fit.mapping, draws))
        draw_inv_info = invert_information(score_information(scores))
    if any(exact):
        exact_inv_info = invert_information(expected_information(params, fit.mapping))

    groups = {}
    for i, problem in enumerate(problems):
        grid = problem.battery.grid if isinstance(problem.battery, WeightedBattery) else None
        key = None if grid is None else _points_key(grid)
        groups.setdefault(key, (grid, []))[1].append(i)
    reports = [None] * len(problems)
    for grid, members in groups.values():
        W = _grid_weights(data.values, grid, params)
        wbar = dens = None
        if grid is not None:
            wbar = kernels.colmean(W)
            dens = np.exp(lv_logpdf(grid.points, params))
        t_hats = [_eta_hat(problems[i].battery, data.values, params, W, wbar)
                  for i in members]
        W = None
        if not all(exact[i] for i in members):
            W = _grid_weights(draws, grid, params)
        for i, t_hat in zip(members, t_hats):
            problem = problems[i]
            battery = problem.battery
            subset = getattr(problem.grid, "summary_subset", None)
            subset = (np.empty(0, dtype=np.intp) if subset is None
                      else np.asarray(subset, dtype=np.intp))
            if exact[i]:
                moments = (battery.eta_closed(params),
                           *battery._moments(params, fit.mapping, subset))
                inv_info, M = exact_inv_info, 0
            else:
                moments = _draw_moments(battery, params, draws, W, dens, scores, subset)
                inv_info, M = draw_inv_info, mc.M
            reports[i] = _run_problem(problem, data.n, t_hat, wbar, subset, moments,
                                      inv_info, M, mc)
        del W
    return reports


def _grid_weights(Y, grid, params):
    """Read-only posterior weights of the grid's points given each row of Y;
    None without a grid."""
    if grid is None:
        return None
    W = _posterior_weights(Y, grid.points, params)
    W.flags.writeable = False
    return W


def _draw_moments(battery, params, draws, W, dens, scores, cols):
    """A battery's eta, and the moments of its rows' contributions G
    estimated on the shared draws: Var(G), Cov(G) among the columns
    ``cols`` and A = E[G s'], from the draws' posterior weights ``W``,
    scores and the grid's latent density ``dens``."""
    H = battery.evaluate(draws, params, W)
    eta = battery.eta_closed(params)
    if isinstance(battery, RatioBattery):
        G = _ratio_draws(H, W, eta, dens)
    else:
        G = np.ascontiguousarray(H)
        if eta is None:
            eta = kernels.colmean(G)
    del H
    M = len(draws)
    A = kernels.crossprod_mean(G, scores)
    sq, cross = kernels.centred_sums(G, kernels.colmean(G), cols)
    return eta, sq / (M - 1), cross / (M - 1), A


def _run_problem(problem, n, t_hat, wbar, subset, moments, inv_info, M, mc):
    """One problem's report from its sample value ``t_hat``, the data
    weights' column means ``wbar``, and ``moments``: eta, Var(G), Cov(G) on
    the summary ``subset`` and A, estimated on M draws or exact (M = 0),
    with the matching inverse information."""
    battery = problem.battery
    eta, var_G, cov_G, A = moments
    k = battery.k

    penalty = A @ inv_info
    var = var_G - np.einsum("ij,ij->i", penalty, A)

    unstable = var <= _DIAG_FLOOR
    if isinstance(battery, RatioBattery):
        unstable |= wbar * n < _DENOM_FLOOR
    resid = t_hat - eta
    se = np.full(k, np.nan)
    z = np.full(k, np.nan)
    p = np.full(k, np.nan)
    ok = ~unstable & np.isfinite(resid)
    unstable |= ~np.isfinite(resid)
    se[ok] = np.sqrt(var[ok])
    z[ok], p[ok] = z_statistic(resid[ok], se[ok], n)

    coords = getattr(problem.grid, "points", None)
    points = []
    for l in range(k):
        c = coords[l] if coords is not None and len(coords) == k else np.array([float(l)])
        points.append(TestPoint(
            coords=np.asarray(c, dtype=np.float64),
            eta_hat=float(t_hat[l]) if np.isfinite(t_hat[l]) else float("nan"),
            eta=float(eta[l]),
            residual=float(resid[l]) if np.isfinite(resid[l]) else float("nan"),
            se=float(se[l]),
            z=float(z[l]),
            p=float(p[l]),
            unstable=bool(unstable[l]),
        ))

    kept = np.flatnonzero(~unstable[subset])
    keep = subset[kept]
    block = cov_G[np.ix_(kept, kept)] - penalty[keep] @ A[keep].T
    block = 0.5 * (block + block.T)
    eigvals = np.empty(0)
    summary = None
    if len(keep) >= 1:
        T, p_sum, eigvals = _chi2_statistic(resid[keep], block, n, mc.s)
        summary = SummaryStat(T=T, s=mc.s, p=p_sum,
                              n_points=len(keep), n_dropped=len(subset) - len(keep))

    config = {
        "battery": battery.name,
        "M": mc.M,
        "covariance": "exact" if M == 0 else "monte-carlo",
        "seed": mc.seed,
        "s": mc.s,
        "n": n,
        "grid": getattr(problem.grid, "label", ""),
        "summary_grid": getattr(problem.grid, "summary_label", ""),
    }
    acm = AcmEstimate(diag=var, summary_index=keep, summary_block=block,
                      summary_eigvals=eigvals, M=M)
    return TestReport(battery=battery.name, points=points, summary=summary,
                      config=config, acm=acm)
