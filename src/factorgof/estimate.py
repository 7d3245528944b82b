"""Maximum-likelihood estimation of the factor model.

Free parameters are optimized on an unconstrained scale:

* intercepts and free loadings enter directly,
* the latent correlation matrix is parametrized by the sub-diagonal entries
  of a unit lower-triangular matrix whose rows are normalized to unit length
  (positive definiteness and the unit diagonal hold by construction),
* error variances enter as logs, floored at ``theta_floor`` so a boundary
  solution is detectable as a Heywood case.

The per-observation score is analytic and chain-ruled through this
reparametrization; the optimizer works from sufficient statistics (sample
mean and covariance), so each iteration costs O(m^3) regardless of n.  The
identification check uses the exact Hessian of the mean log-likelihood,
formed in closed form from the same sufficient statistics.
"""

import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import minimize

from . import kernels
from .errors import (
    ConfigurationError,
    DataError,
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

    The fit draws no random numbers.  ``info_draws`` is accepted for older
    callers and only as 0; it is not stored.
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
    m = params.m
    L = params.sigma_cholesky()
    sig_inv = cho_solve((L, True), np.eye(m))
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


def _moment_terms(v, mapping, ybar, S):
    """Parameters at v, Cholesky factor and inverse of the implied
    covariance, the mean residual delta and S* = S + delta delta'."""
    params = mapping.unpack(v)
    L = params.sigma_cholesky()
    sig_inv = cho_solve((L, True), np.eye(params.m))
    delta = ybar - params.nu
    s_star = S + np.outer(delta, delta)
    return params, L, sig_inv, delta, s_star


def _mean_loglik_and_grad(v, mapping, ybar, S):
    """Mean log-likelihood and its gradient from sufficient statistics."""
    params, L, sig_inv, delta, s_star = _moment_terms(v, mapping, ybar, S)
    m = params.m
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    f = -0.5 * (m * _LOG_2PI + logdet + float(np.einsum("ij,ji->", sig_inv, s_star)))
    gmat = sig_inv @ s_star @ sig_inv - sig_inv
    g = np.empty(mapping.q)
    if mapping.spec.mean_structure:
        g[mapping.nu_slice] = sig_inv @ delta
    P = params.lam @ params.phi
    g[mapping.lam_slice] = (gmat @ P)[mapping.lam_rows, mapping.lam_cols]
    n_w = len(mapping.w_rows)
    if n_w:
        gphi = params.lam.T @ gmat @ params.lam
        K = mapping.dphi_dw(v[mapping.w_slice])
        base = mapping.w_slice.start
        for t in range(n_w):
            a = mapping.w_rows[t]
            g[base + t] = gphi[a] @ K[t, a, :]
    g[mapping.u_slice] = 0.5 * np.diag(gmat) * params.theta
    return f, g


def _mean_loglik_hessian(v, mapping, ybar, S):
    """Exact Hessian of the mean log-likelihood from sufficient statistics.

    With D_a = dSigma/dv_a for a covariance parameter, E = Sigma^-1 S*
    Sigma^-1 and G = E - Sigma^-1 (the gradient's ``gmat``), the covariance
    block is -tr(Sigma^-1 D_a E D_b) + tr(Sigma^-1 D_a Sigma^-1 D_b)/2
    + tr(G d2Sigma/dv_a dv_b)/2, the intercept block is -Sigma^-1 and the
    intercept-covariance block is -Sigma^-1 D_b Sigma^-1 delta.
    """
    params, _, sig_inv, delta, s_star = _moment_terms(v, mapping, ybar, S)
    m = params.m
    lam, phi, theta = params.lam, params.phi, params.theta
    E = sig_inv @ s_star @ sig_inv
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
        H[nu, c0:] = -(A @ (sig_inv @ delta)).T
        H[c0:, nu] = H[nu, c0:].T
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@kernels.single_blas_thread
def fit_ml(data: DataMatrix, spec: ModelSpec, opts: OptimOptions = None) -> FitResult:
    """Fit the factor model by maximum likelihood.

    Convergence requires all three of: max-abs mean-log-likelihood gradient
    below ``opts.gtol``, no error variance at the floor (Heywood case), and a
    negative-definite Hessian of the mean log-likelihood at the solution
    whose negative, the observed information, inverts without near
    singularity (the identification check).  Failing fits are returned with
    ``converged=False`` and reasons listed in ``warnings``; downstream
    residual tests refuse them.  The fit draws no random numbers.
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

    def objective(v):
        # A trial step can overflow exp(u) to an infinite error variance;
        # +inf there sends the line search back towards finite points.
        with np.errstate(over="ignore"):
            try:
                f, g = _mean_loglik_and_grad(v, mapping, ybar, S)
            except SpecificationError:
                return np.inf, np.zeros_like(v)
        return -f, -g

    v0 = mapping.start_values(data)
    bounds = [(None, None)] * mapping.q
    lo = float(np.log(opts.theta_floor))
    for i in range(mapping.u_slice.start, mapping.u_slice.stop):
        bounds[i] = (lo, None)
    res = minimize(
        objective,
        v0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={
            "maxiter": opts.max_iter,
            "maxls": 50,
            "ftol": 1e-13,
            "gtol": min(1e-6, 0.1 * opts.gtol),
        },
    )
    v = np.asarray(res.x, dtype=np.float64)
    _, g = _mean_loglik_and_grad(v, mapping, ybar, S)
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
    hess = _mean_loglik_hessian(v, mapping, ybar, S)
    min_eig = float(np.linalg.eigvalsh(-hess)[0])
    hess_ok = min_eig > 0.0
    if not hess_ok:
        warn.append(f"hessian: not negative definite (min eig of -H = {min_eig:.3g})")
    converged = grad_ok and not heywood.any() and hess_ok

    inv_observed = None
    if hess_ok:
        try:
            inv_observed = invert_information(-hess)
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
        n_iter=int(res.nit),
        inv_observed_information=inv_observed,
        warnings=warn,
    )


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


def monte_carlo_information(params: ParamSet, spec, draws: np.ndarray) -> np.ndarray:
    """Mean outer product of scores over presampled model draws."""
    return score_information(score_rows(params, spec, draws))


def score_information(scores: np.ndarray) -> np.ndarray:
    """Symmetrised mean outer product of the rows of ``scores``: the
    information of ``monte_carlo_information`` for draws whose scores are
    already at hand."""
    info = kernels.crossprod_mean(scores, scores)
    return 0.5 * (info + info.T)


def invert_information(info: np.ndarray) -> np.ndarray:
    """Symmetric PD inverse, rejecting near-singular information."""
    eigs = np.linalg.eigvalsh(info)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > _MAX_CONDITION:
        raise IdentificationError(
            f"information matrix near singular (eigenvalue range {eigs[0]:.3g}..{eigs[-1]:.3g})"
        )
    L = np.linalg.cholesky(info)
    inv = cho_solve((L, True), np.eye(info.shape[0]))
    return 0.5 * (inv + inv.T)


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
