"""Maximum-likelihood estimation of the factor model.

The free parameters are the intercepts, the free loadings, the factor
correlations phi_ab (a > b) themselves and the log error variances.  The fit
bounds log theta_j >= log(``_THETA_FLOOR``), so a boundary solution is
detectable as a Heywood case, and |phi_ab| <= ``_PHI_MAX`` = 1 - 1e-6, so
factors that are one end held at that bound with a ``correlation:``
warning; with three or more factors a phi that is not positive definite is
rejected as an inadmissible trial point.  The iteration alone decides
whether a point is first-order: ``fit_ml`` reads the projected gradient and
the entries not held at a bound where it stopped.  The observed information
is on this scale, its correlation block in phi_ab.  Free vectors of d >= 2
fits from versions that fitted a transform of phi describe another model,
and ``cli.load_fit_document`` refuses them.

The per-observation score is analytic.  The fit works from sufficient
statistics, the sample mean and covariance that a ``DataMatrix`` forms once
at construction, so neither the fit nor any iteration passes over the n
rows.  With free intercepts their estimate is the sample mean ybar in closed
form (Lawley & Maxwell, 1971); without them nu = 0 and the covariance is
fitted to S + ybar ybar'.  The loadings, correlations and log error
variances start at a principal-axis estimate in the correlation metric and
then follow a projected Newton iteration on the exact Hessian of the mean
log-likelihood in those parameters alone, formed in closed form from the
same statistics (Jennrich & Robinson, 1969, Psychometrika 34:111), with
the Hessian's eigenvalues floored where it is not negative definite.  Each
loading and each log error variance moves Sigma by a rank-2 matrix
e_j p' + p e_j', so the Hessian's block in them is gathered from a few
m x (d + m) products; only the d(d-1)/2 correlation entries carry a dense
m x m dSigma, lambda (E_ab + E_ba) lambda', and phi enters Sigma linearly.
At nu = ybar the Hessian's intercept-covariance block
vanishes, so the observed and the expected information are both Sigma^-1 on
the intercepts beside minus the covariance block, and are factored block by
block (``_block_eigvalsh``, ``_block_inverse``).  The fit keeps its final
iterate's terms and Hessian: the inverse observed information is formed from
them when it is first read, and the residual engine takes the Cholesky
factor and inverse of Sigma from them instead of factoring Sigma again.
"""

import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property
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
    """Complete n x m data matrix with optional column labels.

    The sample mean ``ybar`` and the covariance ``S`` with divisor n
    (``_sample_moments``) are formed once, at construction, and are what
    ``fit_ml``, its start and the baseline indices read of the data; the
    zero and overflowing sample variance checks read diag(S).  Like a
    ``ParamSet``, a DataMatrix must be treated as immutable after
    construction; ``ybar`` and ``S`` are read-only.
    """

    values: np.ndarray
    column_names: list = None
    ybar: np.ndarray = field(default=None, init=False, repr=False)
    S: np.ndarray = field(default=None, init=False, repr=False)

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
        # an overflowing column makes inf and nan entries of S; it is named below
        with np.errstate(over="ignore", invalid="ignore"):
            self.ybar, self.S = _sample_moments(vals)
        if vals.shape[0] >= 2:
            var = np.diag(self.S)
            bad = ~(np.isfinite(var) & (var > 0))
            if bad.any():
                j = int(np.argmax(bad))
                name = self.column_names[j] if self.column_names else str(j)
                what = "zero" if var[j] <= 0 else "an overflowing"
                raise DataError(f"column {name} has {what} sample variance")
        if vals.shape[0] <= vals.shape[1]:
            warnings.warn(
                f"n={vals.shape[0]} <= m={vals.shape[1]}: too few rows for a stable fit",
                stacklevel=2,
            )
        self.values = np.ascontiguousarray(vals)
        self.ybar.flags.writeable = self.S.flags.writeable = False

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


class ParamMapping:
    """Layout of the free-parameter vector for a ModelSpec.

    Block order: intercepts (if the mean structure is free), free loadings in
    row-major pattern order, the factor correlations phi_ab in row-major
    sub-diagonal order (a > b), log error variances.  ``pack`` and
    ``unpack`` copy phi_ab exactly; the fit keeps |phi_ab| <= 1 - 1e-6.
    ``dphi`` ((n_phi, d, d)) is the constant dphi/dphi_ab = E_ab + E_ba.
    Its index arrays and ``dphi`` are read-only, so one mapping can be
    shared by every fit of a spec, as the bundled designs' fits share theirs.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        m, d = spec.m, spec.d
        self.lam_rows, self.lam_cols = np.nonzero(spec.loading_pattern)
        self.phi_rows, self.phi_cols = np.tril_indices(d, -1)
        n_nu = m if spec.mean_structure else 0
        n_lam = len(self.lam_rows)
        n_phi = len(self.phi_rows)
        ofs = 0
        self.nu_slice = slice(ofs, ofs + n_nu)
        ofs += n_nu
        self.lam_slice = slice(ofs, ofs + n_lam)
        ofs += n_lam
        self.phi_slice = slice(ofs, ofs + n_phi)
        ofs += n_phi
        self.u_slice = slice(ofs, ofs + m)
        self.q = ofs + m
        self.cov_slice = slice(self.lam_slice.start, self.q)
        self.dphi = np.zeros((n_phi, d, d))
        entry = np.arange(n_phi)
        self.dphi[entry, self.phi_rows, self.phi_cols] = 1.0
        self.dphi[entry, self.phi_cols, self.phi_rows] = 1.0

        # Each loading and log error variance a moves Sigma by the rank-2
        # dSigma/dv_a = e_j p' + p e_j', with p column c of
        # [lambda phi | diag(theta) / 2] (``_Slopes.cols``).  (j, c) of every
        # covariance entry in block order, and flat indices that gather
        # [j_a, c_b], [j_a, j_b] and [c_a, c_b] from (m, d + m), (m, m) and
        # (d + m, d + m) arrays.  The correlation entries (``dense``, within
        # the covariance block), whose slabs are dense, hold (0, 0): their
        # rows and columns are formed apart.
        self.dense = slice(n_lam, n_lam + n_phi)
        width = d + m
        zero = np.zeros(n_phi, dtype=np.intp)
        rows = np.concatenate([self.lam_rows, zero, np.arange(m)])
        cols = np.concatenate([self.lam_cols, zero, d + np.arange(m)])
        self.rank2_at = rows * width + cols
        self.rank2_rc = rows[:, None] * width + cols
        self.rank2_rr = rows[:, None] * m + rows
        self.rank2_cc = cols[:, None] * width + cols
        for name in ("lam_rows", "lam_cols", "phi_rows", "phi_cols", "dphi",
                     "rank2_at", "rank2_rc", "rank2_rr", "rank2_cc"):
            getattr(self, name).flags.writeable = False

    @property
    def labels(self) -> list:
        spec = self.spec
        out = []
        if spec.mean_structure:
            out += [f"nu[{j}]" for j in range(spec.m)]
        out += [f"lambda[{r},{c}]" for r, c in zip(self.lam_rows, self.lam_cols)]
        out += [f"phi[{a},{b}]" for a, b in zip(self.phi_rows, self.phi_cols)]
        out += [f"log_theta[{j}]" for j in range(spec.m)]
        return out

    def _phi(self, v: np.ndarray) -> np.ndarray:
        """The latent correlation matrix whose free entries v holds."""
        phi = np.eye(self.spec.d)
        phi[self.phi_rows, self.phi_cols] = phi[self.phi_cols, self.phi_rows] = v[self.phi_slice]
        return phi

    def pack(self, params: ParamSet) -> np.ndarray:
        v = np.empty(self.q)
        if self.spec.mean_structure:
            v[self.nu_slice] = params.nu
        v[self.lam_slice] = params.lam[self.lam_rows, self.lam_cols]
        v[self.phi_slice] = params.phi[self.phi_rows, self.phi_cols]
        v[self.u_slice] = np.log(params.theta)
        return v

    def unpack(self, v: np.ndarray) -> ParamSet:
        """The ParamSet of v; a phi that is not positive definite raises
        DegenerateCovarianceError."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.q,):
            raise SpecificationError(f"free vector has shape {v.shape}, expected ({self.q},)")
        spec = self.spec
        nu = v[self.nu_slice].copy() if spec.mean_structure else np.zeros(spec.m)
        lam = np.zeros((spec.m, spec.d))
        lam[self.lam_rows, self.lam_cols] = v[self.lam_slice]
        return ParamSet(nu=nu, lam=lam, phi=self._phi(v), theta=np.exp(v[self.u_slice]))

    def start_values(self, data: DataMatrix) -> np.ndarray:
        """The free vector ``fit_ml`` starts from on ``data``."""
        return self._start(data.values, data.ybar, data.S)

    def _start(self, Y, ybar, S):
        """The start from the data Y, their mean ybar and covariance S.

        Intercepts start at ybar.  The rest is a principal-axis estimate in
        the correlation metric of the moments the covariance is fitted to
        (S, or S + ybar ybar' without a mean structure), so it is
        scale-equivariant and does not depend on row order: with C that
        correlation matrix, uniquenesses psi_j = 1 / (C^-1)_jj; each
        factor's loadings sqrt(mu) u from the leading eigenpair of its
        items' C - diag(psi), signed so that sum(u) >= 0; factor
        correlations l_a' C_ab l_b / (|l_a|^2 |l_b|^2) clipped to
        [-0.9, 0.9]; error variances max(1 - lambda_j' phi lambda_j, 0.05);
        then loadings and error variances back in data units.  It needs
        every item on at most one factor, every factor on at least 3 items,
        C and the start's phi to factor by Cholesky, and every psi_j above
        1e-8: a duplicated item gives a C that is singular but can factor
        with a pivot of order 1e-16.  Otherwise every
        loading starts at 0.5 sd, every error variance at 0.5 var (sample
        variances, divisor n - 1) and phi at I.
        """
        v = np.empty(self.q)
        if self.spec.mean_structure:
            v[self.nu_slice] = ybar
        else:
            S = S + np.outer(ybar, ybar)
        start = self._principal_axes(S)
        if start is None:
            var = Y.var(axis=0, ddof=1)
            v[self.lam_slice] = 0.5 * np.sqrt(var)[self.lam_rows]
            v[self.phi_slice] = 0.0
            v[self.u_slice] = np.log(0.5 * var)
        else:
            v[self.lam_slice], v[self.phi_slice], v[self.u_slice] = start
        return v

    def _principal_axes(self, S):
        """Loadings, correlation entries and log error variances of the
        principal-axis start from the moment matrix S, or None (see
        ``_start``)."""
        spec = self.spec
        if (np.bincount(self.lam_rows, minlength=spec.m).max() > 1
                or np.bincount(self.lam_cols, minlength=spec.d).min() < 3):
            return None
        sd = np.sqrt(np.diag(S))
        C = S / np.outer(sd, sd)
        try:
            psi = 1.0 / np.diag(kernels.spd_inverse(np.linalg.cholesky(C)))
        except np.linalg.LinAlgError:
            return None
        if not psi.min() > _START_MIN_UNIQUENESS:
            return None
        lam = np.zeros((spec.m, spec.d))
        for c in range(spec.d):
            items = self.lam_rows[self.lam_cols == c]
            mu, u = np.linalg.eigh(C[np.ix_(items, items)] - np.diag(psi[items]))
            lead = u[:, -1] if u[:, -1].sum() >= 0.0 else -u[:, -1]
            lam[items, c] = np.sqrt(max(mu[-1], 0.0)) * lead
        norms = np.einsum("jc,jc->c", lam, lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.clip(np.nan_to_num(lam.T @ C @ lam / np.outer(norms, norms)), -0.9, 0.9)
        np.fill_diagonal(phi, 1.0)
        try:
            np.linalg.cholesky(phi)
        except np.linalg.LinAlgError:
            return None
        theta = np.maximum(1.0 - np.einsum("jc,cd,jd->j", lam, phi, lam), 0.05)
        return (lam[self.lam_rows, self.lam_cols] * sd[self.lam_rows],
                phi[self.phi_rows, self.phi_cols], np.log(theta * sd * sd))


_START_MIN_UNIQUENESS = 1e-8


def _sample_moments(Y):
    """The sample mean and the covariance with divisor n of the rows of Y."""
    ybar = Y.mean(axis=0)
    resid = Y - ybar
    return ybar, resid.T @ resid / len(Y)


def _as_mapping(spec) -> ParamMapping:
    return spec if isinstance(spec, ParamMapping) else ParamMapping(spec)


@dataclass
class OptimOptions:
    """Fit controls: the iteration cap.

    ``max_iter`` caps the fit's Newton iterations (each one Hessian, one
    step and its line search).  The gradient tolerance (1e-4, ``_GTOL``),
    the error-variance floor (1e-6, ``_THETA_FLOOR``) and the factor
    correlations' bound (1 - 1e-6, ``_PHI_MAX``) are fixed (see
    ``fit_ml``).  The fit draws no random numbers.  ``info_draws`` is
    accepted for older callers and only as 0; it is not stored.
    """

    max_iter: int = 500
    info_draws: InitVar[int] = 0

    def __post_init__(self, info_draws):
        if info_draws != 0:
            raise ConfigurationError(
                f"info_draws={info_draws}: the fit draws no Monte Carlo information; "
                "only 0 is accepted"
            )


class _ObservedInverse:
    """``FitResult.inv_observed_information``: the array it was given, or,
    for a fit from ``fit_ml`` that can invert its observed information, that
    inverse, formed from the fit's final Hessian on first read and kept."""

    def __get__(self, fit, owner=None):
        if fit is None:
            return None  # the dataclass default
        inv = fit.__dict__["_inv_observed"]
        if inv is _ON_READ:
            inv = fit.__dict__["_inv_observed"] = _block_inverse(
                fit.mapping, fit._final.terms.L, fit._final.hess)
        return inv

    def __set__(self, fit, value):
        fit.__dict__["_inv_observed"] = value


_ON_READ = object()


class _Final(NamedTuple):
    """The terms at a fit's final iterate about the sample moments, and the
    covariance block of the Hessian there."""

    terms: "_Terms"
    hess: np.ndarray


@dataclass(eq=False)
class FitResult:
    """Fitted parameters plus convergence diagnostics.

    The model is ``free_vector`` under ``mapping``: ``params`` is
    ``mapping.unpack(free_vector)`` and ``spec`` is ``mapping.spec``.
    ``converged`` requires the gradient criterion, a negative-definite
    free-parameter Hessian that inverts with bounded condition number, and
    the absence of Heywood cases, of factor correlations at their bound and
    of a singular factor correlation matrix.
    ``gradient_norm`` is the max-abs of the projected gradient P(v + g) - v
    of the mean log-likelihood, so an entry held at a bound whose gradient
    points outward counts as 0.  ``inv_observed_information`` inverts the
    observed (negative mean Hessian) information on the free-vector scale,
    so its correlation block is in phi_ab; it is available where no entry is
    held at a bound and the information inverts, so always on converged
    fits.  A fit from ``fit_ml`` forms it on first read, from the final
    Hessian it keeps (with the final iterate's terms, whose Cholesky factor
    and inverse of Sigma the residual engine reuses) in a private field that
    is not an argument: ``dataclasses.replace`` and ``cli.load_fit_document``
    make fits without it, and those recompute what they need from
    ``free_vector``.  ``loglik`` is the log-likelihood at ``params``, n
    times the mean log-likelihood from the sample mean and covariance.
    """

    mapping: ParamMapping
    free_vector: np.ndarray
    loglik: float
    converged: bool
    gradient_norm: float
    n_iter: int
    inv_observed_information: np.ndarray = _ObservedInverse()
    warnings: list = field(default_factory=list)
    _final: _Final = field(default=None, init=False, repr=False)

    @cached_property
    def params(self) -> ParamSet:
        return self.mapping.unpack(self.free_vector)

    @property
    def spec(self) -> ModelSpec:
        return self.mapping.spec


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
    free-parameter vector.
    """
    # the model's own terms, not rebuilt from a packed vector, whose
    # exp(log theta) can differ from theta in the last bit
    L = params.sigma_cholesky()
    t = _Terms(params.nu, params.lam, params.phi, params.theta, L, kernels.spd_inverse(L),
               None, None, None, None)
    return _row_scores(_as_mapping(spec), t, Y - params.nu)


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
    E: np.ndarray        # Sigma^-1 S* Sigma^-1
    gmat: np.ndarray     # E - Sigma^-1, twice the gradient with respect to Sigma


class _Slopes(NamedTuple):
    """dSigma/dv at a free vector, in the compact form the gradient and the
    Hessian share."""

    cols: np.ndarray     # (m, d + m) [lambda phi | diag(theta) / 2], see ParamMapping
    d_phi: np.ndarray    # (n_phi, m, m) dSigma/dphi_ab = lambda (E_ab + E_ba) lambda'


def _moment_terms(v, mapping, ybar, S) -> _Terms:
    """nu, lambda, phi, theta, the Cholesky factor and inverse of the
    implied covariance at v, and the moments of the sample mean ybar and
    covariance S about them.  Formed straight from v, without a validated
    ParamSet; a non-finite v or theta raises SpecificationError, and a phi
    or an implied covariance that is not positive definite
    DegenerateCovarianceError."""
    spec = mapping.spec
    v = np.asarray(v, dtype=np.float64)
    theta = np.exp(v[mapping.u_slice])
    if not (np.isfinite(v).all() and np.isfinite(theta).all() and (theta > 0).all()):
        raise SpecificationError("parameters must be finite with positive error variances")
    nu = v[mapping.nu_slice].copy() if spec.mean_structure else np.zeros(spec.m)
    lam = np.zeros((spec.m, spec.d))
    lam[mapping.lam_rows, mapping.lam_cols] = v[mapping.lam_slice]
    phi = mapping._phi(v)
    # one factor's phi is 1, and two factors' is positive definite exactly
    # when |phi_12| < 1, which the fit's bound |phi_12| <= _PHI_MAX keeps, so
    # only d >= 3 takes a Cholesky factor of phi, which can fail inside the
    # bounds
    if spec.d == 2 and not abs(phi[1, 0]) < 1.0:
        raise DegenerateCovarianceError("phi is not positive definite")
    if spec.d >= 3:
        try:
            np.linalg.cholesky(phi)
        except np.linalg.LinAlgError as exc:
            raise DegenerateCovarianceError("phi is not positive definite") from exc
    try:
        L = np.linalg.cholesky(lam @ phi @ lam.T + np.diag(theta))
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError(
            "model-implied covariance is not positive definite"
        ) from exc
    model = _Terms(nu, lam, phi, theta, L, kernels.spd_inverse(L), None, None, None, None)
    return _moments_about(model, ybar, S)


def _moments_about(t: _Terms, ybar, S) -> _Terms:
    """The model quantities of ``t``, with its factor and inverse of Sigma,
    and the moments of ybar and S about them."""
    delta = ybar - t.nu
    s_star = S + np.outer(delta, delta)
    E = t.sig_inv @ s_star @ t.sig_inv
    return t._replace(delta=delta, s_star=s_star, E=E, gmat=E - t.sig_inv)


def _slopes(mapping, t: _Terms) -> _Slopes:
    """``_Slopes`` at the model quantities ``t``."""
    cols = np.hstack([t.lam @ t.phi, np.diag(0.5 * t.theta)])
    return _Slopes(cols, t.lam @ mapping.dphi @ t.lam.T)


def _mean_loglik(t: _Terms) -> float:
    """Mean log-likelihood from ``_moment_terms``."""
    logdet = 2.0 * float(np.sum(np.log(np.diag(t.L))))
    return -0.5 * (len(t.nu) * _LOG_2PI + logdet
                   + float(np.einsum("ij,ji->", t.sig_inv, t.s_star)))


def _mean_loglik_grad(mapping, t: _Terms, s: _Slopes):
    """The gradient of ``_mean_loglik`` from its terms and slopes:
    Sigma^-1 delta for the intercepts and tr(G dSigma/dv_a)/2 for the rest,
    which is (G p)_j for a rank-2 dSigma = e_j p' + p e_j'."""
    g = np.empty(mapping.q)
    if mapping.spec.mean_structure:
        g[mapping.nu_slice] = t.sig_inv @ t.delta
    g[mapping.cov_slice] = (t.gmat @ s.cols).take(mapping.rank2_at)
    g[mapping.phi_slice] = 0.5 * np.einsum("ij,tij->t", t.gmat, s.d_phi)
    return g


def _row_scores(mapping, t: _Terms, D):
    """Scores of rows with deviations D = y - nu ((n, m) -> (n, q)), from
    the model's terms.  With z = Sigma^-1 d, a row's score is z for the
    intercepts, z_j (z'lambda phi)_c - (Sigma^-1 lambda phi)_jc for loading
    (j, c), V_a V_b - (lambda'Sigma^-1 lambda)_ab with V = z'lambda for
    phi_ab, and (z_j^2 - Sigma^-1_jj) theta_j / 2 for log theta_j."""
    Z = D @ t.sig_inv
    out = np.empty((len(D), mapping.q))
    if mapping.spec.mean_structure:
        out[:, mapping.nu_slice] = Z
    P = t.lam @ t.phi
    rows, cols = mapping.lam_rows, mapping.lam_cols
    out[:, mapping.lam_slice] = Z[:, rows] * (Z @ P)[:, cols] - (t.sig_inv @ P)[rows, cols]
    if len(mapping.phi_rows):
        a, b = mapping.phi_rows, mapping.phi_cols
        V = Z @ t.lam
        out[:, mapping.phi_slice] = V[:, a] * V[:, b] - (t.lam.T @ t.sig_inv @ t.lam)[a, b]
    out[:, mapping.u_slice] = 0.5 * (Z * Z - np.diag(t.sig_inv)) * t.theta
    return out


def _block_eigvalsh(mapping, sig_inv, hess):
    """Ascending eigenvalues of minus the Hessian of the mean log-likelihood
    where nu = ybar, from its covariance block ``hess``, block by block:
    that information is Sigma^-1 on the intercepts and -hess on the rest,
    and -Sigma^-1 dSigma/dv_b Sigma^-1 (ybar - nu) = 0 between them."""
    eigs = np.linalg.eigvalsh(-hess)
    if mapping.spec.mean_structure:
        eigs = np.sort(np.concatenate([np.linalg.eigvalsh(sig_inv), eigs]))
    return eigs


def _block_inverse(mapping, L, hess):
    """The inverse of the information of ``_block_eigvalsh``, block by block:
    Sigma = L L' from its Cholesky factor L on the intercepts and (-hess)^-1
    on the rest."""
    inv = np.zeros((mapping.q, mapping.q))
    if mapping.spec.mean_structure:
        inv[mapping.nu_slice, mapping.nu_slice] = L @ L.T
    inv[mapping.cov_slice, mapping.cov_slice] = kernels.spd_inverse(np.linalg.cholesky(-hess))
    return inv


def _covariance_hessian(mapping, t: _Terms, s: _Slopes):
    """Hessian of the mean log-likelihood in the loadings, correlation
    entries and log error variances (the covariance block).

    With D_a = dSigma/dv_a, G = ``gmat`` and R = E - Sigma^-1 / 2, entry
    (a, b) is -tr(Sigma^-1 D_a R D_b) + tr(G d2Sigma/dv_a dv_b)/2.  For two
    rank-2 D_a = e_j p' + p e_j' and D_b = e_k r' + r e_k' the trace is
    (Sigma^-1 r)_j (R p)_k + (Sigma^-1 p)_k (R r)_j + Sigma^-1_jk p'R r
    + R_jk p'Sigma^-1 r, so the block of all loadings and log error variances
    is gathered from Sigma^-1 C, R C, C'Sigma^-1 C and C'R C with C =
    ``_Slopes.cols`` (Jennrich & Robinson, 1969).  Its second-derivative
    term is G_jk phi_cc' for two loadings and G_jj theta_j / 2 for log
    theta_j twice.  Only the correlation entries' dense slabs D_phi enter
    their rows and columns; phi enters Sigma linearly, so their own
    second-derivative term is 0.
    """
    m, d = mapping.spec.m, mapping.spec.d
    sig_inv, G, cols = t.sig_inv, t.gmat, s.cols
    R = t.E - 0.5 * sig_inv
    SC, RC = sig_inv @ cols, R @ cols
    rc, rr, cc = mapping.rank2_rc, mapping.rank2_rr, mapping.rank2_cc
    X = SC.take(rc) * RC.take(rc).T
    H = -(X + X.T)
    H -= sig_inv.take(rr) * (cols.T @ RC).take(cc)
    H -= R.take(rr) * (cols.T @ SC).take(cc)
    curvature = np.zeros((d + m, d + m))
    curvature[:d, :d] = t.phi
    curvature[d:, d:] = np.diag(0.5 * t.theta)
    H += G.take(rr) * curvature.take(cc)

    n_phi = len(mapping.phi_rows)
    if n_phi:
        f = mapping.dense
        A = sig_inv @ s.d_phi
        # -tr(Sigma^-1 D_t R D_b) = -((M + M') r)_k with M = Sigma^-1 D_t R,
        # and tr(G d2Sigma/dphi_t dlambda_kc)/2 = (G lambda dphi_t)_kc
        M = A @ R
        cross = -(M + M.transpose(0, 2, 1)) @ cols
        cross[:, :, :d] += G @ t.lam @ mapping.dphi
        cross = cross.reshape(n_phi, -1).take(mapping.rank2_at, axis=1)
        H[f] = cross
        H[:, f] = cross.T
        H[f, f] = -A.reshape(n_phi, -1) @ (R @ s.d_phi).transpose(0, 2, 1).reshape(n_phi, -1).T
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@kernels.single_blas_thread
def fit_ml(data: DataMatrix, spec, opts: OptimOptions = None) -> FitResult:
    """Fit the factor model of ``spec``, a ModelSpec or the ParamMapping of
    one, by maximum likelihood; the fit's ``mapping`` is that ParamMapping,
    or one built from the ModelSpec.

    With a free mean structure the intercepts' estimate is the sample mean
    in closed form; the rest is a projected Newton iteration on the exact
    Hessian of the mean log-likelihood in the covariance parameters (see
    ``_newton``) from the principal-axis start of
    ``ParamMapping.start_values``, closed by one full Newton step;
    ``FitResult.n_iter`` counts its iterations, at most ``opts.max_iter``
    (3 on the bundled designs).  The observed information is block
    diagonal, and its spectrum and inverse are taken block by block, the
    inverse on the first read of ``FitResult.inv_observed_information``.
    The data enter only through their sample moments ``data.ybar`` and
    ``data.S``.
    Convergence requires all four of: the max-abs projected gradient of the
    mean log-likelihood where the iteration stopped (``_newton``; an entry
    held at a bound whose gradient points outward counts as 0) below
    ``_GTOL``, no error variance at or near the floor (a Heywood case:
    theta_j at ``_THETA_FLOOR``, or at most ``_NEAR_FLOOR`` times the item's
    sample variance, where the log-theta gradient theta_j dl/dtheta_j can
    pass the gradient test before theta_j reaches the floor), no factor
    correlation at the bound |phi_ab| = ``_PHI_MAX`` nor, at d >= 3, a phi
    whose least eigenvalue is at most 1 - ``_PHI_MAX`` (factors that are
    one; warned as ``correlation:``), and a negative-definite Hessian of
    the mean log-likelihood at the solution whose negative, the observed
    information, inverts without near singularity (the identification
    check).  Both Hessian checks take the entries not held at a bound,
    since a held entry has its own ``heywood:`` or ``correlation:``
    warning; the inverse is available only where no entry is held.  Failing
    fits are returned with ``converged=False`` and reasons listed in
    ``warnings``; downstream residual tests refuse them.  The fit
    draws no random numbers.
    """
    if opts is None:
        opts = OptimOptions()
    mapping = _as_mapping(spec)
    if data.m != mapping.spec.m:
        raise SpecificationError(f"data has m={data.m}, spec has m={mapping.spec.m}")
    ybar, S = data.ybar, data.S

    # the start puts the intercepts at ybar, their estimate, where they stay
    v, t, hess, gradient_norm, free, n_iter = _newton(
        mapping, ybar, S, mapping._start(data.values, ybar, S), opts)

    warn = []
    grad_ok = gradient_norm < _GTOL
    if not grad_ok:
        warn.append(f"gradient: max-abs {gradient_norm:.3g} >= {_GTOL:g}")
    heywood = ((t.theta <= _THETA_FLOOR * (1.0 + 1e-8))
               | (t.theta <= _NEAR_FLOOR * np.diag(S)))
    if heywood.any():
        idx = np.nonzero(heywood)[0]
        warn.append(f"heywood: error variance at or near the floor for items {idx.tolist()}")
    at_bound = np.abs(v[mapping.phi_slice]) >= _PHI_MAX
    correlation = at_bound.any()
    if correlation:
        pairs = [(int(a), int(b)) for a, b in zip(mapping.phi_rows[at_bound],
                                                   mapping.phi_cols[at_bound])]
        warn.append(f"correlation: factor correlation at the bound for {pairs}")
    elif mapping.spec.d >= 3:
        # no pair at the bound, but three or more factors can still be
        # dependent; at d = 2 this bound is the pairwise one
        min_phi = float(np.linalg.eigvalsh(t.phi)[0])
        correlation = min_phi <= 1.0 - _PHI_MAX
        if correlation:
            warn.append(f"correlation: factor correlation matrix singular (min eig {min_phi:.3g})")
    # the intercepts stay at ybar, so the observed information is block
    # diagonal; an entry held at a bound is warned above, so the checks take
    # the block of the entries not held
    eigs = _block_eigvalsh(mapping, t.sig_inv, hess[np.ix_(free, free)])
    min_eig = float(eigs[0])
    hess_ok = min_eig > 0.0
    if not hess_ok:
        warn.append(f"hessian: not negative definite (min eig of -H = {min_eig:.3g})")
    converged = grad_ok and not heywood.any() and not correlation and hess_ok

    inv_observed = None
    if hess_ok:
        try:
            _check_conditioning(eigs)
        except IdentificationError as exc:
            warn.append(f"observed information: {exc}")
            converged = False
        else:
            if free.all():
                inv_observed = _ON_READ

    fit = FitResult(
        mapping=mapping,
        free_vector=v,
        loglik=data.n * _mean_loglik(t),
        converged=converged,
        gradient_norm=gradient_norm,
        n_iter=n_iter,
        inv_observed_information=inv_observed,
        warnings=warn,
    )
    fit._final = _Final(t, hess)
    return fit


_GTOL = 1e-4
_THETA_FLOOR = 1e-6
_PHI_MAX = 1.0 - 1e-6
_NEAR_FLOOR = 1e-5
_ARMIJO = 1e-4
_MAX_HALVINGS = 50
_EIGEN_FLOOR = 1e-4
_STOP_GTOL = 1e-6


def _newton(mapping, ybar, S, v, opts):
    """Maximize the mean log-likelihood from v over the covariance block
    (loadings, correlation entries, log error variances) by projected
    Newton; the intercepts stay as v holds them.

    The bounds are log theta_j >= log(``_THETA_FLOOR``) and
    |phi_ab| <= ``_PHI_MAX``.  Each iteration holds fixed the entries at a
    bound whose gradient points outward and steps on the rest (F) by
    ``_ascent_step``: Newton's -H_FF delta = g_F where -H_FF factors by
    Cholesky, and the step with its eigenvalues floored where it does not
    (a rotationally unidentified fit).  An Armijo backtracking search
    projects each trial onto the bounds and rejects trials that are
    inadmissible, whose value is not finite or that do not raise it.  The
    iteration stops after ``opts.max_iter`` iterations, when no trial along
    the step is accepted, or once the projected max-abs gradient is below
    ``_STOP_GTOL`` (1e-6).  In the last case, where -H_FF factors by
    Cholesky, it first takes one full Newton step, projected onto the bounds
    and without a line search, whose decrease in f would be lost to
    rounding; the step is kept if it is admissible and does not raise the
    projected gradient, so an identified fit ends at a gradient near 1e-14
    instead of anywhere below the tolerance.  Where -H_FF does not factor (a
    rotationally unidentified fit on its ridge) the iteration stops as it
    is.  This is the fit's one test of a first-order point: ``fit_ml``
    judges the projected gradient and the entries not held where the
    iteration stopped.

    Returns the final iterate and its terms, the covariance block of its
    Hessian, the max-abs of its projected gradient P(v + g) - v, the mask
    of the covariance entries not held at a bound, and the number of
    iterations taken.
    """
    c = mapping.cov_slice
    lo = np.full(mapping.q - c.start, -np.inf)
    hi = np.full(mapping.q - c.start, np.inf)
    lo[mapping.dense], hi[mapping.dense] = -_PHI_MAX, _PHI_MAX
    lo[mapping.u_slice.start - c.start:] = np.log(_THETA_FLOOR)
    v = v.copy()
    v[c] = np.clip(v[c], lo, hi)
    t = _moment_terms(v, mapping, ybar, S)
    f = _mean_loglik(t)
    n_iter = 0
    before = None
    while True:
        s = _slopes(mapping, t)
        g = _mean_loglik_grad(mapping, t, s)[c]
        hess = _covariance_hessian(mapping, t, s)
        vc = v[c]
        # the projected gradient P(v + g) - v, which is g wherever v + g is
        # within the bounds and 0 on an entry held at one
        small = float(np.abs(np.clip(g, lo - vc, hi - vc)).max())
        free = ~(((vc <= lo) & (g < 0.0)) | ((vc >= hi) & (g > 0.0)))
        if before is not None:
            if small > before[3]:
                v, t, hess, small, free, n_iter = before
            break
        if n_iter >= opts.max_iter:
            break
        step = np.zeros(len(g))
        step[free], newton = _ascent_step(hess, g, free)
        if small < _STOP_GTOL:
            if not newton:
                break
            trial = v.copy()
            trial[c] = np.clip(vc + step, lo, hi)
            try:
                t_trial = _moment_terms(trial, mapping, ybar, S)
            except (SpecificationError, DegenerateCovarianceError):
                break
            before = (v, t, hess, small, free, n_iter)
            v, t = trial, t_trial
            n_iter += 1
            continue
        found = _line_search(mapping, ybar, S, v, f, g, step, lo, hi)
        if found is None:
            break
        v, t, f = found
        n_iter += 1
    return v, t, hess, small, free, n_iter


def _ascent_step(hess, g, free):
    """The step on the entries ``free`` and whether it is Newton's.

    Where -H factors by Cholesky there, Newton's step, solved as
    L'^-1 (L^-1 g) with the factor L, which keeps it bounded on a
    numerically singular -H where an LU solve returned steps of order 1e15.
    Otherwise, with -H = U diag(w) U' there, the modified Newton step
    U diag(1/w~) U' g with w~ = max(w, ``_EIGEN_FLOOR`` max|w|) (Nocedal &
    Wright, 2006, Numerical Optimization, sec. 3.4): an ascent direction,
    long along flat and negative curvature, which the line search
    shortens."""
    neg = -hess[np.ix_(free, free)]
    try:
        L = np.linalg.cholesky(neg)
    except np.linalg.LinAlgError:
        w, U = np.linalg.eigh(neg)
        return U @ ((U.T @ g[free]) / np.maximum(w, _EIGEN_FLOOR * np.abs(w).max())), False
    return np.linalg.solve(L.T, np.linalg.solve(L, g[free])), True


def _line_search(mapping, ybar, S, v, f, g, step, lo, hi):
    """Armijo backtracking along the covariance-block ``step`` projected
    onto the bounds [lo, hi]; the accepted point with its terms and value,
    or None.  A trial must raise f: one that does not move, as where the
    step is below one ulp of v, is not accepted."""
    c = mapping.cov_slice
    alpha = 1.0
    for _ in range(_MAX_HALVINGS):
        trial = v.copy()
        moved = trial[c]
        moved += alpha * step
        np.clip(moved, lo, hi, out=moved)
        # a long step can overflow exp(log theta); that trial is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                t = _moment_terms(trial, mapping, ybar, S)
                f_trial = _mean_loglik(t)
            except (SpecificationError, DegenerateCovarianceError):
                f_trial = -np.inf
        if (np.isfinite(f_trial) and f_trial > f
                and f_trial >= f + _ARMIJO * float(g @ (moved - v[c]))):
            return trial, t, f_trial
        alpha *= 0.5
    return None


# ---------------------------------------------------------------------------
# information and simulation
# ---------------------------------------------------------------------------

_MAX_CONDITION = 1e12


def _expected_terms(v, mapping, params, at=None):
    """The terms and slopes at the free vector v about ybar = nu and
    S = Sigma of ``params``, and the covariance block of the expected
    Hessian there.  The Hessian of the mean log-likelihood is linear in
    (ybar - nu, S*), so its expectation under the model is its value there;
    the exact information is minus it, block diagonal as in
    ``_block_eigvalsh``.  ``at``, terms at v about other moments (a fit's
    final ``_Terms``), lends its factor and inverse of Sigma, so Sigma is
    not factored again."""
    sigma = params.implied_covariance()
    if at is None:
        t = _moment_terms(v, mapping, params.nu, sigma)
    else:
        t = _moments_about(at, params.nu, sigma)
    s = _slopes(mapping, t)
    return t, s, _covariance_hessian(mapping, t, s)


def _check_conditioning(eigs):
    """Raise IdentificationError unless the ascending eigenvalues ``eigs``
    of an information matrix are positive with a bounded range."""
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > _MAX_CONDITION:
        raise IdentificationError(
            f"information matrix near singular (eigenvalue range {eigs[0]:.3g}..{eigs[-1]:.3g})"
        )


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
