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
    monte_carlo_information,
    simulate_data,
    score_rows,
)
from .model import ParamSet

_DIAG_FLOOR = 1e-12
_EIG_RTOL = 1e-10
_DENOM_FLOOR = 1e-300


@dataclass(eq=False)
class SummaryBattery:
    """A vector of k summary functions of one observation.

    ``evaluate`` maps an (n, m) data block to the (n, k) matrix of per-row
    summary values.  ``eta_closed`` returns the model-implied expectation
    when a closed form exists, else None (callers fall back to a Monte Carlo
    average over model draws).
    """

    k: int
    name: str
    _evaluate: callable
    _eta: callable = None

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError("battery must have k >= 1 components")

    def evaluate(self, Y: np.ndarray, params: ParamSet) -> np.ndarray:
        out = self._evaluate(np.atleast_2d(Y), params)
        if out.shape[1] != self.k:
            raise ConfigurationError(
                f"battery {self.name} returned {out.shape[1]} components, declared {self.k}"
            )
        return out

    def eta_closed(self, params: ParamSet):
        return None if self._eta is None else np.asarray(self._eta(params), dtype=np.float64)


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


def identity_transformation(k: int) -> Transformation:
    return Transformation(
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

    return Transformation(
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
    """Assembled asymptotic covariance of the transformed residuals."""

    A_hat: np.ndarray
    sigma_H_hat: np.ndarray
    inv_info: np.ndarray
    sigma_phi_hat: np.ndarray
    M: int
    min_eig: float
    max_eig: float
    sym_delta: float
    unstable: np.ndarray


@dataclass
class McConfig:
    """Monte Carlo settings for one test run.

    ``info_source`` picks the inverse information entering the covariance
    assembly: ``"mc-shared"`` (default) estimates it from the same draw set
    used for the other moments; ``"observed"`` inverts the negative mean
    Hessian at the solution instead, which is draw-noise free.
    """

    M: int = 10_000
    seed: int = 0
    s: int = 1
    info_source: str = "mc-shared"


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


def eta_hat(battery: SummaryBattery, data: DataMatrix, params: ParamSet) -> np.ndarray:
    """Sample average of the battery over the data rows."""
    H = battery.evaluate(data.values, params)
    return kernels.colmean(np.ascontiguousarray(H))


def eta(battery: SummaryBattery, params: ParamSet, draws: np.ndarray = None,
        M: int = None, rng=None) -> np.ndarray:
    """Model-implied expectation of the battery.

    Uses the closed form when the battery provides one; otherwise averages
    the battery over model draws (either presampled ``draws`` or ``M`` fresh
    draws from ``rng``).
    """
    closed = battery.eta_closed(params)
    if closed is not None:
        return closed
    if draws is None:
        if M is None or rng is None:
            raise ConfigurationError(
                f"battery {battery.name} has no closed form; supply draws or (M, rng)"
            )
        draws = simulate_data(params, M, rng).values
    H = battery.evaluate(draws, params)
    return kernels.colmean(np.ascontiguousarray(H))


def estimate_A(battery: SummaryBattery, params: ParamSet, spec, draws: np.ndarray) -> np.ndarray:
    """Mean outer product of H with the score over model draws ((k, q))."""
    if draws.shape[0] < 1000:
        raise ConfigurationError(f"M={draws.shape[0]} draws below the minimum of 1000")
    H = battery.evaluate(draws, params)
    scores = score_rows(params, spec, draws)
    return kernels.crossprod_mean(np.ascontiguousarray(H), np.ascontiguousarray(scores))


def estimate_sigma_H(battery: SummaryBattery, params: ParamSet, draws: np.ndarray) -> np.ndarray:
    """Sample covariance (divisor M - 1) of the battery over model draws."""
    if draws.shape[0] < 1000:
        raise ConfigurationError(f"M={draws.shape[0]} draws below the minimum of 1000")
    H = battery.evaluate(draws, params)
    return kernels.covariance(np.ascontiguousarray(H))


def assemble_acm(jac: np.ndarray, A: np.ndarray, inv_info: np.ndarray,
                 sigma_H: np.ndarray, M: int = 0) -> AcmEstimate:
    """Assemble and symmetrize the residual covariance.

    Outputs with a diagonal entry at or below 1e-12 are flagged unstable;
    they are reported but excluded from z and summary statistics.
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
    diag = np.diag(sigma_phi)
    unstable = diag <= _DIAG_FLOOR
    eigs = np.linalg.eigvalsh(sigma_phi)
    return AcmEstimate(
        A_hat=A,
        sigma_H_hat=sigma_H,
        inv_info=inv_info,
        sigma_phi_hat=sigma_phi,
        M=M,
        min_eig=float(eigs[0]),
        max_eig=float(eigs[-1]),
        sym_delta=sym_delta,
        unstable=unstable,
    )


def z_statistic(residual: float, se: float, n: int) -> tuple:
    """Standardized residual and its two-sided normal p-value."""
    if se <= 0:
        raise ValueError("se must be positive")
    z = residual / (se / np.sqrt(n))
    p = 2.0 * float(ndtr(-abs(z)))
    return float(z), p


def truncated_inverse(sigma: np.ndarray, s: int) -> np.ndarray:
    """Generalized inverse keeping only the s largest eigenvalues.

    Eigenvalues at or below 1e-10 times the largest are treated as zero;
    requesting more than the numerically positive count raises RankError.
    """
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
    return 0.5 * (W + W.T)


def chi2_statistic(e: np.ndarray, sigma: np.ndarray, n: int, s: int) -> tuple:
    """Quadratic-form statistic n e' W e and its chi-square(s) p-value."""
    W = truncated_inverse(sigma, s)
    T = float(n * e @ W @ e)
    T = max(T, 0.0)
    return T, float(chdtrc(s, T))


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
    several items on the same fit.
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
    if mc.info_source == "observed":
        if fit.inv_observed_information is None:
            raise ConfigurationError(
                "fit carries no observed information; refit or use info_source='mc-shared'"
            )
        inv_info = fit.inv_observed_information
    elif mc.info_source == "mc-shared":
        inv_info = invert_information(monte_carlo_information(params, fit.mapping, draws))
    else:
        raise ConfigurationError(f"unknown info_source {mc.info_source!r}")

    reports = []
    for problem in problems:
        battery = problem.battery
        trans = problem.transformation
        H_draws = np.ascontiguousarray(battery.evaluate(draws, params))
        A = kernels.crossprod_mean(H_draws, scores)
        sigma_H = kernels.covariance(H_draws)
        g_hat = eta_hat(battery, data, params)
        g = battery.eta_closed(params)
        if g is None:
            g = kernels.colmean(H_draws)
        jac = trans.jacobian(g)
        acm = assemble_acm(jac, A, inv_info, sigma_H, M=mc.M)

        unstable = acm.unstable.copy()
        if trans.denominator_index is not None:
            denom = g_hat[trans.denominator_index] * data.n
            unstable |= denom < _DENOM_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hat = trans.apply(g_hat)
            t_pop = trans.apply(g)
        resid = t_hat - t_pop
        var = np.diag(acm.sigma_phi_hat)
        se = np.full(trans.k_out, np.nan)
        z = np.full(trans.k_out, np.nan)
        p = np.full(trans.k_out, np.nan)
        ok = ~unstable & np.isfinite(resid)
        unstable |= ~np.isfinite(resid)
        se[ok] = np.sqrt(var[ok])
        z[ok] = resid[ok] / (se[ok] / np.sqrt(data.n))
        p[ok] = 2.0 * ndtr(-np.abs(z[ok]))

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

        summary = None
        subset = getattr(problem.grid, "summary_subset", None)
        if subset is not None:
            subset = np.asarray(subset, dtype=np.intp)
            keep = subset[~unstable[subset]]
            n_dropped = len(subset) - len(keep)
            if len(keep) >= 1:
                T, p_sum = chi2_statistic(
                    resid[keep],
                    acm.sigma_phi_hat[np.ix_(keep, keep)],
                    data.n,
                    mc.s,
                )
                summary = SummaryStat(T=T, s=mc.s, p=p_sum,
                                      n_points=len(keep), n_dropped=n_dropped)

        config = {
            "battery": battery.name,
            "M": mc.M,
            "seed": mc.seed,
            "s": mc.s,
            "n": data.n,
            "grid": getattr(problem.grid, "label", ""),
            "summary_grid": getattr(problem.grid, "summary_label", ""),
        }
        reports.append(TestReport(
            battery=battery.name,
            points=points,
            summary=summary,
            config=config,
            acm=acm,
        ))
    return reports
