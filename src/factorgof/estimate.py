"""Maximum-likelihood estimation of the factor model.

Free parameters are optimized on an unconstrained scale:

* intercepts and free loadings enter directly,
* the latent correlation matrix is parametrized by the sub-diagonal entries
  of a unit lower-triangular matrix whose rows are normalized to unit length
  (positive definiteness and the unit diagonal hold by construction),
* error variances enter as logs, floored at ``theta_floor`` so a boundary
  solution is detectable as a Heywood case.

The per-observation score is analytic and chain-ruled through this
reparametrization.  The fit works from sufficient statistics (sample mean
and covariance), so no iteration's cost depends on n.  It is a
projected Newton iteration on the exact Hessian of the mean log-likelihood,
formed in closed form from the same statistics, with Fisher scoring where
the Hessian is not negative definite (the classical ML factor-analysis
algorithms: Jennrich & Robinson, 1969, Psychometrika 34:111; Lee &
Jennrich, 1979, Psychometrika 44:99).  The identification check reuses the
Hessian of the final iterate.
"""

import warnings
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateCovarianceError,
    IdentificationError,
    SpecificationError,
)
from .model import ModelSpec, ParamSet, marginal_logpdf

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(eq=False)
class DataMatrix:
    """Complete n x m data matrix with optional column labels."""

    values: np.ndarray
    column_names: list = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise DataError(f"data must be 2-d, got shape {vals.shape}")
        if vals.shape[0] < 1:
            raise DataError("data has no rows")
        bad = ~np.isfinite(vals)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(f"non-finite value at row {i}, column {j}")
        if self.column_names is not None and len(self.column_names) != vals.shape[1]:
            raise DataError("column_names length does not match data")
        if vals.shape[0] >= 2:
            var = vals.var(axis=0, ddof=1)
            if (var <= 0).any():
                j = int(np.argmin(var))
                name = self.column_names[j] if self.column_names else str(j)
                raise DataError(f"column {name} has zero sample variance")
        if vals.shape[0] <= vals.shape[1]:
            warnings.warn(
                f"n={vals.shape[0]} <= m={vals.shape[1]}: too few rows for a stable fit",
                stacklevel=2,
            )
        self.values = np.ascontiguousarray(vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


class ParamMapping:
    """Layout of the unconstrained free-parameter vector for a ModelSpec.

    Block order: intercepts (if the mean structure is free), free loadings in
    row-major pattern order, latent-correlation transform entries in
    row-major sub-diagonal order, log error variances.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        m, d = spec.m, spec.d
        self.lam_rows, self.lam_cols = np.nonzero(spec.loading_pattern)
        self.w_rows, self.w_cols = np.tril_indices(d, -1)
        n_nu = m if spec.mean_structure else 0
        n_lam = len(self.lam_rows)
        n_w = len(self.w_rows)
        ofs = 0
        self.nu_slice = slice(ofs, ofs + n_nu)
        ofs += n_nu
        self.lam_slice = slice(ofs, ofs + n_lam)
        ofs += n_lam
        self.w_slice = slice(ofs, ofs + n_w)
        ofs += n_w
        self.u_slice = slice(ofs, ofs + m)
        self.q = ofs + m

    @property
    def labels(self) -> list:
        spec = self.spec
        out = []
        if spec.mean_structure:
            out += [f"nu[{j}]" for j in range(spec.m)]
        out += [f"lambda[{r},{c}]" for r, c in zip(self.lam_rows, self.lam_cols)]
        out += [f"phi[{a},{b}]" for a, b in zip(self.w_rows, self.w_cols)]
        out += [f"log_theta[{j}]" for j in range(spec.m)]
        return out

    # -- latent correlation transform ------------------------------------

    def _unit_lower(self, w: np.ndarray) -> np.ndarray:
        L = np.eye(self.spec.d)
        L[self.w_rows, self.w_cols] = w
        return L

    def phi_from_w(self, w: np.ndarray) -> np.ndarray:
        L = self._unit_lower(w)
        Lt = L / np.linalg.norm(L, axis=1, keepdims=True)
        phi = Lt @ Lt.T
        np.fill_diagonal(phi, 1.0)
        return phi

    def w_from_phi(self, phi: np.ndarray) -> np.ndarray:
        C = np.linalg.cholesky(phi)
        return C[self.w_rows, self.w_cols] / C[self.w_rows, self.w_rows]

    def _normalized_rows(self, w: np.ndarray):
        """L, its row norms, the normalized rows Lt and, per transform entry
        t in row a, the derivative of Lt[a] with respect to w_t."""
        L = self._unit_lower(w)
        norms = np.linalg.norm(L, axis=1)
        Lt = L / norms[:, None]
        dLt = np.empty((len(self.w_rows), self.spec.d))
        for t, (a, b) in enumerate(zip(self.w_rows, self.w_cols)):
            dLt[t] = -L[a] * (w[t] / norms[a] ** 3)
            dLt[t, b] += 1.0 / norms[a]
        return L, norms, Lt, dLt

    def dphi_dw(self, w: np.ndarray) -> np.ndarray:
        """Derivative of phi with respect to each transform entry.

        Returns (n_w, d, d); slab t is symmetric with support on the row and
        column of the latent variable that entry t belongs to.
        """
        d = self.spec.d
        _, _, Lt, dLt = self._normalized_rows(w)
        out = np.zeros((len(self.w_rows), d, d))
        for t, a in enumerate(self.w_rows):
            row = Lt @ dLt[t]
            row[a] = 0.0
            out[t, a, :] = row
            out[t, :, a] = row
        return out

    def d2phi_dw2(self, w: np.ndarray) -> np.ndarray:
        """Second derivative of phi with respect to each pair of transform entries.

        Returns (n_w, n_w, d, d).  Entries t and s of one row a move only the
        normalized row Lt[a], so slab (t, s) holds Lt @ d2Lt[a] on row and
        column a (the unit diagonal stays fixed).  Entries of rows a != c
        meet only in phi[a, c] = Lt[a] . Lt[c], so that slab holds
        dLt[t] . dLt[s] at (a, c) and (c, a).
        """
        d = self.spec.d
        n_w = len(self.w_rows)
        L, norms, Lt, dLt = self._normalized_rows(w)
        out = np.zeros((n_w, n_w, d, d))
        for t, (a, b) in enumerate(zip(self.w_rows, self.w_cols)):
            for s, (c, e) in enumerate(zip(self.w_rows, self.w_cols)):
                if a != c:
                    out[t, s, a, c] = out[t, s, c, a] = dLt[t] @ dLt[s]
                    continue
                n3 = norms[a] ** 3
                vec = L[a] * (3.0 * L[a, b] * L[a, e] / (n3 * norms[a] ** 2)
                              - float(b == e) / n3)
                vec[b] -= L[a, e] / n3
                vec[e] -= L[a, b] / n3
                row = Lt @ vec
                row[a] = 0.0
                out[t, s, a, :] = row
                out[t, s, :, a] = row
        return out

    # -- pack / unpack ----------------------------------------------------

    def pack(self, params: ParamSet) -> np.ndarray:
        v = np.empty(self.q)
        if self.spec.mean_structure:
            v[self.nu_slice] = params.nu
        v[self.lam_slice] = params.lam[self.lam_rows, self.lam_cols]
        v[self.w_slice] = self.w_from_phi(params.phi)
        v[self.u_slice] = np.log(params.theta)
        return v

    def unpack(self, v: np.ndarray) -> ParamSet:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.q,):
            raise SpecificationError(f"free vector has shape {v.shape}, expected ({self.q},)")
        spec = self.spec
        nu = v[self.nu_slice].copy() if spec.mean_structure else np.zeros(spec.m)
        lam = np.zeros((spec.m, spec.d))
        lam[self.lam_rows, self.lam_cols] = v[self.lam_slice]
        phi = self.phi_from_w(v[self.w_slice])
        theta = np.exp(v[self.u_slice])
        return ParamSet(nu=nu, lam=lam, phi=phi, theta=theta)

    def start_values(self, data: DataMatrix) -> np.ndarray:
        Y = data.values
        var = Y.var(axis=0, ddof=1)
        sd = np.sqrt(var)
        v = np.empty(self.q)
        if self.spec.mean_structure:
            v[self.nu_slice] = Y.mean(axis=0)
        v[self.lam_slice] = 0.5 * sd[self.lam_rows]
        v[self.w_slice] = 0.0
        v[self.u_slice] = np.log(0.5 * var)
        return v


def _as_mapping(spec) -> ParamMapping:
    return spec if isinstance(spec, ParamMapping) else ParamMapping(spec)


@dataclass
class OptimOptions:
    """Fit controls: iteration cap, gradient tolerance and variance floor.

    ``max_iter`` caps the fit's Newton iterations (each one Hessian, one
    step and its line search).  ``gtol`` bounds the max-abs gradient of a
    converged fit; the iteration itself runs to min(1e-6, 0.1 gtol).  Error
    variances are bounded below by ``theta_floor``; a fit that ends there is
    a Heywood case.  The fit draws no random numbers.  ``info_draws`` is
    accepted for older callers and only as 0; it is not stored.
    """

    max_iter: int = 500
    gtol: float = 1e-4
    theta_floor: float = 1e-6
    info_draws: InitVar[int] = 0

    def __post_init__(self, info_draws):
        if info_draws != 0:
            raise ConfigurationError(
                f"info_draws={info_draws}: the fit draws no Monte Carlo information; "
                "only 0 is accepted"
            )


@dataclass(eq=False)
class FitResult:
    """Fitted parameters plus convergence diagnostics.

    ``converged`` requires the gradient criterion, a negative-definite
    free-parameter Hessian that inverts with bounded condition number, and
    the absence of Heywood cases.  ``inv_observed_information`` inverts the
    observed (negative mean Hessian) information and is always available on
    converged fits.
    """

    params: ParamSet
    spec: ModelSpec
    mapping: ParamMapping
    free_vector: np.ndarray
    loglik: float
    converged: bool
    gradient_norm: float
    n_iter: int
    inv_observed_information: np.ndarray = None
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# likelihood and score
# ---------------------------------------------------------------------------


def log_likelihood(params: ParamSet, data: DataMatrix) -> float:
    """Sum over rows of the log marginal density."""
    if data.m != params.m:
        raise SpecificationError(f"data has m={data.m}, parameters have m={params.m}")
    return float(np.sum(marginal_logpdf(data.values, params)))


def score_rows(params: ParamSet, spec, Y: np.ndarray) -> np.ndarray:
    """Per-row analytic score of the log marginal density, free-parameter scale.

    Parameters
    ----------
    params : ParamSet
    spec : ModelSpec or ParamMapping
    Y : (n, m) array of observations.

    Returns
    -------
    (n, q) array; row i is the gradient of log f(y_i) with respect to the
    unconstrained free-parameter vector.
    """
    mapping = _as_mapping(spec)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    sig_inv = kernels.spd_inverse(params.sigma_cholesky())
    Z = (Y - params.nu) @ sig_inv
    out = np.empty((Y.shape[0], mapping.q))
    if mapping.spec.mean_structure:
        out[:, mapping.nu_slice] = Z
    P = params.lam @ params.phi
    U = Z @ P
    B = sig_inv @ P
    out[:, mapping.lam_slice] = (
        Z[:, mapping.lam_rows] * U[:, mapping.lam_cols]
        - B[mapping.lam_rows, mapping.lam_cols]
    )
    n_w = len(mapping.w_rows)
    if n_w:
        V = Z @ params.lam
        C = params.lam.T @ sig_inv @ params.lam
        K = mapping.dphi_dw(mapping.w_from_phi(params.phi))
        base = mapping.w_slice.start
        for t in range(n_w):
            a = mapping.w_rows[t]
            kvec = K[t, a, :]
            out[:, base + t] = V[:, a] * (V @ kvec) - C[a] @ kvec
    out[:, mapping.u_slice] = 0.5 * (Z * Z - np.diag(sig_inv)) * params.theta
    return out


def score(params: ParamSet, y: np.ndarray, spec) -> np.ndarray:
    """Score of a single observation (see ``score_rows``)."""
    y = np.asarray(y, dtype=np.float64)
    return score_rows(params, spec, y[None, :])[0]


class _Terms(NamedTuple):
    """Model quantities at a free vector and the data moments about them."""

    nu: np.ndarray
    lam: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    L: np.ndarray        # lower Cholesky factor of the implied covariance
    sig_inv: np.ndarray
    delta: np.ndarray    # ybar - nu
    s_star: np.ndarray   # S + delta delta'


def _moment_terms(v, mapping, ybar, S) -> _Terms:
    """nu, lambda, phi, theta, the Cholesky factor and inverse of the
    implied covariance at v, the mean residual delta and S* = S + delta
    delta'.  Formed straight from v, without a validated ParamSet; a
    non-finite v or theta raises SpecificationError and a covariance that
    does not factor DegenerateCovarianceError."""
    spec = mapping.spec
    v = np.asarray(v, dtype=np.float64)
    theta = np.exp(v[mapping.u_slice])
    if not (np.isfinite(v).all() and np.isfinite(theta).all() and (theta > 0).all()):
        raise SpecificationError("parameters must be finite with positive error variances")
    nu = v[mapping.nu_slice].copy() if spec.mean_structure else np.zeros(spec.m)
    lam = np.zeros((spec.m, spec.d))
    lam[mapping.lam_rows, mapping.lam_cols] = v[mapping.lam_slice]
    phi = mapping.phi_from_w(v[mapping.w_slice])
    try:
        L = np.linalg.cholesky(lam @ phi @ lam.T + np.diag(theta))
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError(
            "model-implied covariance is not positive definite"
        ) from exc
    sig_inv = kernels.spd_inverse(L)
    delta = ybar - nu
    return _Terms(nu, lam, phi, theta, L, sig_inv, delta, S + np.outer(delta, delta))


def _mean_loglik(t: _Terms) -> float:
    """Mean log-likelihood from ``_moment_terms``."""
    logdet = 2.0 * float(np.sum(np.log(np.diag(t.L))))
    return -0.5 * (len(t.nu) * _LOG_2PI + logdet
                   + float(np.einsum("ij,ji->", t.sig_inv, t.s_star)))


def _mean_loglik_and_grad(v, mapping, ybar, S):
    """Mean log-likelihood and its gradient from sufficient statistics."""
    t = _moment_terms(v, mapping, ybar, S)
    return _mean_loglik(t), _mean_loglik_grad(v, mapping, t)


def _mean_loglik_grad(v, mapping, t: _Terms):
    """The gradient of ``_mean_loglik_and_grad`` from ``_moment_terms``."""
    sig_inv = t.sig_inv
    gmat = sig_inv @ t.s_star @ sig_inv - sig_inv
    g = np.empty(mapping.q)
    if mapping.spec.mean_structure:
        g[mapping.nu_slice] = sig_inv @ t.delta
    P = t.lam @ t.phi
    g[mapping.lam_slice] = (gmat @ P)[mapping.lam_rows, mapping.lam_cols]
    n_w = len(mapping.w_rows)
    if n_w:
        gphi = t.lam.T @ gmat @ t.lam
        K = mapping.dphi_dw(v[mapping.w_slice])
        base = mapping.w_slice.start
        for i in range(n_w):
            a = mapping.w_rows[i]
            g[base + i] = gphi[a] @ K[i, a, :]
    g[mapping.u_slice] = 0.5 * np.diag(gmat) * t.theta
    return g


def _mean_loglik_hessian(v, mapping, ybar, S):
    """Exact Hessian of the mean log-likelihood from sufficient statistics."""
    return _hessian_from_terms(v, mapping, _moment_terms(v, mapping, ybar, S))


def _hessian_from_terms(v, mapping, t: _Terms):
    """The Hessian of ``_mean_loglik_hessian`` from ``_moment_terms``.

    With D_a = dSigma/dv_a for a covariance parameter, E = Sigma^-1 S*
    Sigma^-1 and G = E - Sigma^-1 (the gradient's ``gmat``), the covariance
    block is -tr(Sigma^-1 D_a E D_b) + tr(Sigma^-1 D_a Sigma^-1 D_b)/2
    + tr(G d2Sigma/dv_a dv_b)/2, the intercept block is -Sigma^-1 and the
    intercept-covariance block is -Sigma^-1 D_b Sigma^-1 delta.
    """
    lam, phi, theta, sig_inv = t.lam, t.phi, t.theta, t.sig_inv
    m = len(theta)
    E = sig_inv @ t.s_star @ sig_inv
    gmat = E - sig_inv
    rows, cols = mapping.lam_rows, mapping.lam_cols
    n_lam, n_w = len(rows), len(mapping.w_rows)
    c0 = mapping.lam_slice.start
    nc = mapping.q - c0
    lam_b, w_b = slice(0, n_lam), slice(n_lam, n_lam + n_w)
    diag_m = np.arange(m)
    u_b = n_lam + n_w + diag_m

    # dSigma/dv_a, one m x m slab per covariance parameter
    D = np.zeros((nc, m, m))
    P = lam @ phi
    D[np.arange(n_lam), rows, :] = P[:, cols].T
    D[np.arange(n_lam), :, rows] += P[:, cols].T
    w = v[mapping.w_slice]
    K = mapping.dphi_dw(w)
    D[w_b] = lam @ K @ lam.T
    D[u_b, diag_m, diag_m] = theta

    # -tr(Sigma^-1 D_a (E D_b - Sigma^-1 D_b / 2)) for every pair at once
    A = sig_inv @ D
    C = E @ D - 0.5 * A
    H = np.zeros((mapping.q, mapping.q))
    hc = H[c0:, c0:]
    hc[...] = -A.reshape(nc, -1) @ C.transpose(0, 2, 1).reshape(nc, -1).T

    # tr(G d2Sigma/dv_a dv_b)/2, nonzero only for these pairs
    hc[lam_b, lam_b] += phi[np.ix_(cols, cols)] * gmat[np.ix_(rows, rows)]
    if n_w:
        GLK = (gmat @ lam @ K)[:, rows, cols]
        hc[lam_b, w_b] += GLK.T
        hc[w_b, lam_b] += GLK
        gphi = lam.T @ gmat @ lam
        hc[w_b, w_b] += 0.5 * np.einsum("ij,tsij->ts", gphi, mapping.d2phi_dw2(w))
    hc[u_b, u_b] += 0.5 * np.diag(gmat) * theta

    if mapping.spec.mean_structure:
        nu = mapping.nu_slice
        H[nu, nu] = -sig_inv
        H[nu, c0:] = -(A @ (sig_inv @ t.delta)).T
        H[c0:, nu] = H[nu, c0:].T
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@kernels.single_blas_thread
def fit_ml(data: DataMatrix, spec: ModelSpec, opts: OptimOptions = None) -> FitResult:
    """Fit the factor model by maximum likelihood.

    The fit is a projected Newton iteration on the exact Hessian of the mean
    log-likelihood (see ``_newton``); ``FitResult.n_iter`` counts its
    iterations, at most ``opts.max_iter``.  Convergence requires all three
    of: max-abs mean-log-likelihood gradient below ``opts.gtol``, no error
    variance at the floor (Heywood case), and a negative-definite Hessian of
    the mean log-likelihood at the solution whose negative, the observed
    information, inverts without near singularity (the identification
    check).  Failing fits are returned with ``converged=False`` and reasons
    listed in ``warnings``; downstream residual tests refuse them.  The fit
    draws no random numbers.
    """
    if opts is None:
        opts = OptimOptions()
    if data.m != spec.m:
        raise SpecificationError(f"data has m={data.m}, spec has m={spec.m}")
    mapping = ParamMapping(spec)
    Y = data.values
    ybar = Y.mean(axis=0)
    resid = Y - ybar
    S = resid.T @ resid / data.n

    v, g, hess, n_iter = _newton(mapping, ybar, S, mapping.start_values(data), opts)
    gradient_norm = float(np.abs(g).max())
    params = mapping.unpack(v)

    warn = []
    grad_ok = gradient_norm < opts.gtol
    if not grad_ok:
        warn.append(f"gradient: max-abs {gradient_norm:.3g} >= {opts.gtol:g}")
    heywood = params.theta <= opts.theta_floor * (1.0 + 1e-8)
    if heywood.any():
        idx = np.nonzero(heywood)[0]
        warn.append(f"heywood: error variance at floor for items {idx.tolist()}")
    eigs = np.linalg.eigvalsh(-hess)
    min_eig = float(eigs[0])
    hess_ok = min_eig > 0.0
    if not hess_ok:
        warn.append(f"hessian: not negative definite (min eig of -H = {min_eig:.3g})")
    converged = grad_ok and not heywood.any() and hess_ok

    inv_observed = None
    if hess_ok:
        try:
            inv_observed = _invert_information(-hess, eigs)
        except IdentificationError as exc:
            warn.append(f"observed information: {exc}")
            converged = False

    return FitResult(
        params=params,
        spec=spec,
        mapping=mapping,
        free_vector=v,
        loglik=log_likelihood(params, data),
        converged=converged,
        gradient_norm=gradient_norm,
        n_iter=n_iter,
        inv_observed_information=inv_observed,
        warnings=warn,
    )


_ARMIJO = 1e-4
_MAX_HALVINGS = 50


def _newton(mapping, ybar, S, v, opts):
    """Maximize the mean log-likelihood from v by projected Newton.

    The only bound is log theta >= log(theta_floor).  Each iteration holds
    fixed the log-theta entries at the floor whose gradient points outward
    and solves -H_FF delta = g_F on the rest (F) by Cholesky, with the
    expected information in place of -H_FF where that is not positive
    definite (Fisher scoring), and delta = g_F where neither factors.  An
    Armijo backtracking search projects each trial onto the bound and
    rejects trials that are inadmissible or whose value is not finite.  The
    iteration stops once the projected max-abs gradient is below
    min(1e-6, 0.1 gtol), after ``opts.max_iter`` iterations, or when no
    trial along the step is accepted.

    Returns the final iterate, its gradient and Hessian, and the number of
    iterations taken.
    """
    lo = float(np.log(opts.theta_floor))
    bounded = np.zeros(mapping.q, dtype=bool)
    bounded[mapping.u_slice] = True
    tol = min(1e-6, 0.1 * opts.gtol)
    v = np.where(bounded, np.maximum(v, lo), v)
    t = _moment_terms(v, mapping, ybar, S)
    f = _mean_loglik(t)
    n_iter = 0
    while True:
        g = _mean_loglik_grad(v, mapping, t)
        hess = _hessian_from_terms(v, mapping, t)
        projected = np.where(bounded, np.maximum(v + g, lo) - v, g)
        if np.abs(projected).max() < tol or n_iter >= opts.max_iter:
            break
        free = ~(bounded & (v <= lo) & (g < 0.0))
        step = np.zeros(mapping.q)
        step[free] = _ascent_step(hess, g, free,
                                  lambda: expected_information(mapping.unpack(v), mapping))
        found = _line_search(mapping, ybar, S, v, f, g, step, bounded, lo)
        if found is None:
            break
        v, t, f = found
        n_iter += 1
    return v, g, hess, n_iter


def _ascent_step(hess, g, free, information):
    """Newton step on the entries ``free``; Fisher scoring with
    ``information()`` where -H is not positive definite there; the gradient
    itself where neither factors."""
    ix = np.ix_(free, free)
    for matrix in (lambda: -hess[ix], lambda: information()[ix]):
        try:
            return kernels.spd_inverse(np.linalg.cholesky(matrix())) @ g[free]
        except np.linalg.LinAlgError:
            pass
    return g[free]


def _line_search(mapping, ybar, S, v, f, g, step, bounded, lo):
    """Armijo backtracking along ``step`` projected onto the floor; the
    accepted point with its terms and value, or None."""
    alpha = 1.0
    for _ in range(_MAX_HALVINGS):
        trial = v + alpha * step
        trial[bounded] = np.maximum(trial[bounded], lo)
        # a long step can overflow exp(log theta); that trial is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                t = _moment_terms(trial, mapping, ybar, S)
                f_trial = _mean_loglik(t)
            except (SpecificationError, DegenerateCovarianceError):
                f_trial = -np.inf
        if np.isfinite(f_trial) and f_trial >= f + _ARMIJO * float(g @ (trial - v)):
            return trial, t, f_trial
        alpha *= 0.5
    return None


# ---------------------------------------------------------------------------
# information and simulation
# ---------------------------------------------------------------------------

_MAX_CONDITION = 1e12


def expected_information(params: ParamSet, spec) -> np.ndarray:
    """Exact per-observation information at ``params``.

    The Hessian of the mean log-likelihood is linear in (ybar - nu, S*), so
    its expectation under the model is its value at ybar = nu and
    S = Sigma; the information is minus that.
    """
    mapping = _as_mapping(spec)
    return -_mean_loglik_hessian(mapping.pack(params), mapping, params.nu,
                                 params.implied_covariance())


def score_information(scores: np.ndarray) -> np.ndarray:
    """Symmetrised mean outer product of the rows of ``scores``: the Monte
    Carlo information of model draws whose scores are at hand."""
    info = scores.T @ scores / len(scores)
    return 0.5 * (info + info.T)


def invert_information(info: np.ndarray) -> np.ndarray:
    """Symmetric PD inverse, rejecting near-singular information."""
    return _invert_information(info, np.linalg.eigvalsh(info))


def _invert_information(info, eigs):
    """``invert_information`` given the ascending eigenvalues of ``info``."""
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > _MAX_CONDITION:
        raise IdentificationError(
            f"information matrix near singular (eigenvalue range {eigs[0]:.3g}..{eigs[-1]:.3g})"
        )
    return kernels.spd_inverse(np.linalg.cholesky(info))


def simulate_data(params: ParamSet, n: int, rng, column_names=None) -> DataMatrix:
    """Draw n i.i.d. observations from the model's marginal law.

    Latent vectors are drawn first, then conditionally normal errors; this is
    exactly equivalent to sampling from N(nu, lambda phi lambda' + theta).
    """
    if n < 1:
        raise ConfigurationError("n must be positive")
    x = rng.standard_normal((n, params.d)) @ params.phi_cholesky().T
    eps = rng.standard_normal((n, params.m)) * np.sqrt(params.theta)
    Y = params.nu + x @ params.lam.T + eps
    return DataMatrix(Y, column_names)
