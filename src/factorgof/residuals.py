"""Generalized-residual machinery.

A test is defined by a battery of summary functions H (evaluated per
observation), the model-implied expectation eta of H, and a smooth
transformation applied to both the sample average eta_hat and eta.  The
difference of the transformed vectors is the residual; its asymptotic
covariance combines the battery covariance with a penalty for parameter
estimation:

    sigma_phi = J (sigma_H - A I^{-1} A') J'

with J the transformation Jacobian at eta, A the mean outer product of H and
the score, and I the per-observation information.  A, sigma_H and I are all
estimated from one shared set of Monte Carlo draws from the fitted model.
Pointwise residuals are referred to N(0, 1) after standardization; a summary
quadratic form over a designated subgrid is referred to a chi-square whose
weight matrix inverts only the leading s eigenvalues of sigma_phi.

A report reads two parts of sigma_phi: its diagonal, for the pointwise
standard errors, and its block on the stable summary points, for T.  The
engine forms only those.  It maps the (M, k) battery draws H onto the
reported scale first, G = H J' (H itself for the identity, two scaled column
blocks for ratios), so that J sigma_H J' is the covariance of G and J A is
the mean cross product of G with the scores.  The diagonal is then each
column's centred sum of squares over M - 1 minus the row-wise
(JA) I^{-1} (JA)', and the block is the centred cross product of the kept
columns minus the same term on them.  ``assemble_acm`` builds the full
matrix from sigma_H and A and is kept as the dense reference.

The bundled batteries are ``WeightedBattery``s: each is a function of the
(rows x Q) matrix W of posterior densities of its grid points given each
row.  ``run_residual_batch`` makes one pass per distinct set of grid points:
it computes W on the data, takes every problem's sample average from it,
drops it, and computes W on the shared draws for the problems' covariance
entries.  Each W is read-only, and each problem adds only its own f(y) * W
columns.  Batteries that give only ``_evaluate(Y, params)`` share one pass
without W.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from . import kernels
from .errors import ConfigurationError, NotConvergedError, RankError
from .estimate import (
    DataMatrix,
    FitResult,
    invert_information,
    score_information,
    simulate_data,
    score_rows,
)
from .model import ParamSet, posterior_log_weights

_DIAG_FLOOR = 1e-12
_EIG_RTOL = 1e-10
_DENOM_FLOOR = 1e-300


@dataclass(eq=False)
class SummaryBattery:
    """A vector of k summary functions of one observation.

    ``evaluate`` maps an (n, m) data block to the (n, k) matrix of per-row
    summary values.  ``eta_closed`` returns the model-implied expectation
    when a closed form exists, else None; the engine then takes the
    battery's mean over the shared Monte Carlo draws.
    """

    k: int
    name: str
    _evaluate: callable
    _eta: callable = None

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
class Transformation:
    """Smooth map applied to summary expectations, with its Jacobian.

    ``denominator_index`` optionally maps each output component to the input
    component used as its denominator, letting the engine flag outputs whose
    empirical denominator underflowed.
    """

    k_in: int
    k_out: int
    _apply: callable
    _jacobian: callable
    name: str = "custom"
    denominator_index: np.ndarray = None

    def apply(self, g: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(g, dtype=np.float64))

    def jacobian(self, g: np.ndarray) -> np.ndarray:
        return self._jacobian(np.asarray(g, dtype=np.float64))

    def project(self, H: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Draws mapped onto the reported scale, H J(g)' ((M, k_out))."""
        return H @ self.jacobian(g).T


class _IdentityTransformation(Transformation):
    """Identity map; its projection is H itself, without a copy."""

    def project(self, H, g):
        return H


class _RatioTransformation(Transformation):
    """Componentwise ratios of the first to the second half of g."""

    def project(self, H, g):
        # J is zero off the diagonals of its two Q x Q blocks, so each output
        # column combines one numerator and one denominator column of H;
        # einsum forms that without temporaries the size of H's halves
        Q = self.k_out
        J = self.jacobian(g)
        scale = np.stack([np.diagonal(J[:, :Q]), np.diagonal(J[:, Q:])])
        return np.einsum("mkq,kq->mq", H.reshape(H.shape[0], 2, Q), scale)


def identity_transformation(k: int) -> Transformation:
    return _IdentityTransformation(
        k_in=k,
        k_out=k,
        _apply=lambda g: g.copy(),
        _jacobian=lambda g: np.eye(k),
        name="identity",
    )


def ratio_transformation(Q: int) -> Transformation:
    """Maps (g_1..g_Q, g_{Q+1}..g_{2Q}) to componentwise ratios g_l / g_{Q+l}."""

    def _apply(g):
        return g[:Q] / g[Q:]

    def _jacobian(g):
        J = np.zeros((Q, 2 * Q))
        idx = np.arange(Q)
        J[idx, idx] = 1.0 / g[Q:]
        J[idx, Q + idx] = -g[:Q] / g[Q:] ** 2
        return J

    return _RatioTransformation(
        k_in=2 * Q,
        k_out=Q,
        _apply=_apply,
        _jacobian=_jacobian,
        name="ratio",
        denominator_index=np.arange(Q, 2 * Q),
    )


@dataclass(eq=False)
class ResidualProblem:
    """A battery, the transformation applied to it, and the latent grid."""

    battery: SummaryBattery
    transformation: Transformation
    grid: object  # LvGrid; duck-typed to avoid a circular import

    def __post_init__(self):
        if self.transformation.k_in != self.battery.k:
            raise ConfigurationError(
                f"transformation expects k={self.transformation.k_in}, battery has k={self.battery.k}"
            )


@dataclass(eq=False)
class AcmEstimate:
    """The entries of the residual covariance sigma_phi that a report reads.

    ``diag`` is the diagonal of sigma_phi (k_out,), from which the pointwise
    se are taken.  ``summary_index`` lists the summary points that entered T
    (the summary subgrid less its unstable points), ``summary_block`` is
    sigma_phi on those rows and columns, and ``summary_eigvals`` holds that
    block's eigenvalues in descending order, from the eigendecomposition
    behind T's truncated inverse.  Without a summary statistic the three are
    empty.  The engine forms them from the projected draws G = H J' (see the
    module docstring) and never forms the full k_out x k_out matrix.
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
    """Monte Carlo settings for one test run: the number of model draws M
    from which sigma_H, A and the information are all estimated, their
    seed, and the number s of eigenvalues the summary statistic keeps."""

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

    Point values are on the reported (transformed) scale, so for ratio
    batteries ``eta_hat`` and ``eta`` are the empirical and model-implied
    conditional moments themselves.
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
    """Sample average of the battery over the data rows (``W``: their
    posterior weights on a ``WeightedBattery``'s grid, when already known)."""
    H = battery.evaluate(data.values, params, W)
    return kernels.colmean(np.ascontiguousarray(H))


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

    The M model draws, their scores, and the information matrix are computed
    once and reused by every problem, which dominates the cost when testing
    several items on the same fit.  The problems are then run one grid at a
    time: the posterior-weight matrix W of the grid's points is computed on
    the data, every problem on the grid takes its sample average from it,
    and it is dropped before W on the draws is computed for their covariance
    entries.  Reports come back in the order of ``problems``.
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
    rng = np.random.default_rng(mc.seed)
    draws = simulate_data(params, mc.M, rng).values
    scores = np.ascontiguousarray(score_rows(params, fit.mapping, draws))
    inv_info = invert_information(score_information(scores))

    groups = {}
    for i, problem in enumerate(problems):
        grid = problem.battery.grid if isinstance(problem.battery, WeightedBattery) else None
        key = None if grid is None else _points_key(grid)
        groups.setdefault(key, (grid, []))[1].append(i)
    reports = [None] * len(problems)
    for grid, members in groups.values():
        W = _grid_weights(data.values, grid, params)
        g_hats = [eta_hat(problems[i].battery, data, params, W) for i in members]
        del W
        W = _grid_weights(draws, grid, params)
        for i, g_hat in zip(members, g_hats):
            reports[i] = _run_problem(problems[i], params, data.n, draws, W, g_hat,
                                      scores, inv_info, mc)
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


def _run_problem(problem, params, n, draws, W, g_hat, scores, inv_info, mc):
    """One problem's report from its sample average ``g_hat`` and the shared
    draws, their posterior weights ``W``, scores and inverse information."""
    battery = problem.battery
    trans = problem.transformation
    H = np.ascontiguousarray(battery.evaluate(draws, params, W))
    g = battery.eta_closed(params)
    if g is None:
        g = kernels.colmean(H)
    G = trans.project(H, g)
    del H  # the k-column block is no longer needed once projected

    subset = getattr(problem.grid, "summary_subset", None)
    subset = np.empty(0, dtype=np.intp) if subset is None else np.asarray(subset, dtype=np.intp)
    JA = kernels.crossprod_mean(G, scores)
    penalty = JA @ inv_info
    sq, cross = kernels.centred_sums(G, kernels.colmean(G), subset)
    var = sq / (mc.M - 1) - np.einsum("ij,ij->i", penalty, JA)

    unstable = var <= _DIAG_FLOOR
    if trans.denominator_index is not None:
        denom = g_hat[trans.denominator_index] * n
        unstable |= denom < _DENOM_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hat = trans.apply(g_hat)
        t_pop = trans.apply(g)
    resid = t_hat - t_pop
    se = np.full(trans.k_out, np.nan)
    z = np.full(trans.k_out, np.nan)
    p = np.full(trans.k_out, np.nan)
    ok = ~unstable & np.isfinite(resid)
    unstable |= ~np.isfinite(resid)
    se[ok] = np.sqrt(var[ok])
    z[ok], p[ok] = z_statistic(resid[ok], se[ok], n)

    coords = getattr(problem.grid, "points", None)
    points = []
    for l in range(trans.k_out):
        c = coords[l] if coords is not None and len(coords) == trans.k_out else np.array([float(l)])
        points.append(TestPoint(
            coords=np.asarray(c, dtype=np.float64),
            eta_hat=float(t_hat[l]) if np.isfinite(t_hat[l]) else float("nan"),
            eta=float(t_pop[l]),
            residual=float(resid[l]) if np.isfinite(resid[l]) else float("nan"),
            se=float(se[l]),
            z=float(z[l]),
            p=float(p[l]),
            unstable=bool(unstable[l]),
        ))

    kept = np.flatnonzero(~unstable[subset])
    keep = subset[kept]
    block = cross[np.ix_(kept, kept)] / (mc.M - 1) - penalty[keep] @ JA[keep].T
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
        "seed": mc.seed,
        "s": mc.s,
        "n": n,
        "grid": getattr(problem.grid, "label", ""),
        "summary_grid": getattr(problem.grid, "summary_label", ""),
    }
    acm = AcmEstimate(diag=var, summary_index=keep, summary_block=block,
                      summary_eigvals=eigvals, M=mc.M)
    return TestReport(battery=battery.name, points=points, summary=summary,
                      config=config, acm=acm)
