"""Densities and moments of the linear normal common factor model.

The model: a d-dimensional latent vector x ~ N(0, phi) with unit-variance
identification, and m observed variables that are conditionally independent
given x, with y_j | x ~ N(nu_j + lambda_j' x, theta_j).  The implied marginal
law is N(nu, lambda phi lambda' + diag(theta)).

All density functions return log-densities.  Exponentiation is left to the
caller (the residual engine exponentiates only when assembling posterior
weights), so extreme grid points do not underflow inside this module.
"""

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DegenerateCovarianceError, ItemIndexError, SpecificationError


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Dimensions, loading pattern and identification of a factor model.

    Parameters
    ----------
    m : int
        Number of manifest variables.
    d : int
        Number of latent variables.
    loading_pattern : (m, d) array of 0/1
        1 marks a free loading, 0 a loading fixed at zero.
    mean_structure : bool
        Whether intercepts are free parameters.

    The latent variables are identified by unit variance: the latent
    covariance has a fixed unit diagonal with free off-diagonal entries.
    A spec is immutable: ``loading_pattern`` is a read-only int8 copy, so
    one spec can be shared, as the bundled designs' specs are.
    """

    m: int
    d: int
    loading_pattern: np.ndarray
    mean_structure: bool = True

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise SpecificationError("need m >= 1 manifest and d >= 1 latent variables")
        pattern = np.asarray(self.loading_pattern)
        if pattern.shape != (self.m, self.d):
            raise SpecificationError(
                f"loading_pattern has shape {pattern.shape}, expected {(self.m, self.d)}"
            )
        if not np.isin(pattern, (0, 1)).all():
            raise SpecificationError("loading_pattern entries must be 0 or 1")
        pattern = pattern.astype(np.int8)
        rows = pattern.sum(axis=1)
        if (rows < 1).any():
            j = int(np.argmin(rows))
            raise SpecificationError(f"manifest variable {j} has no free loading")
        if self.d <= 2 and self.m < 3 * self.d:
            warnings.warn(
                f"m={self.m} < 3*d={3 * self.d}: model may not be identified",
                stacklevel=2,
            )
        pattern.flags.writeable = False
        object.__setattr__(self, "loading_pattern", pattern)


class PosteriorLaw(NamedTuple):
    """The normal posterior of x given y, x | y ~ N(cov b, cov) with
    b = lam_w' (y - nu); its precision is the same for every y."""

    lam_w: np.ndarray       # theta^-1 lambda, (m, d)
    precision: np.ndarray   # P = phi^-1 + lambda' theta^-1 lambda
    cov: np.ndarray         # P^-1
    logdet: float           # log |P|


@dataclass(eq=False)
class ParamSet:
    """Parameter values: intercepts, loadings, latent covariance, error variances.

    The implied m x m covariance is Cholesky-factorized lazily and cached,
    and so is the posterior law of x given y, since marginal and posterior
    densities are evaluated many times per parameter set.  Instances must
    be treated as immutable after construction; the cached arrays are
    read-only.
    """

    nu: np.ndarray
    lam: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    _sigma_chol: np.ndarray = field(default=None, init=False, repr=False)
    _phi_chol: np.ndarray = field(default=None, init=False, repr=False)
    _posterior: PosteriorLaw = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.nu = np.atleast_1d(np.asarray(self.nu, dtype=np.float64))
        self.lam = np.asarray(self.lam, dtype=np.float64)
        if self.lam.ndim == 1:
            self.lam = self.lam[:, None]
        self.phi = np.atleast_2d(np.asarray(self.phi, dtype=np.float64))
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        m, d = self.lam.shape
        if self.nu.shape != (m,) or self.theta.shape != (m,):
            raise SpecificationError("nu, lam and theta disagree on m")
        if self.phi.shape != (d, d):
            raise SpecificationError("phi and lam disagree on d")
        if not (np.isfinite(self.nu).all() and np.isfinite(self.lam).all()
                and np.isfinite(self.phi).all() and np.isfinite(self.theta).all()):
            raise SpecificationError("parameters must be finite")
        if np.abs(self.phi - self.phi.T).max() > 1e-10:
            raise SpecificationError("phi must be symmetric")
        self.phi = 0.5 * (self.phi + self.phi.T)
        if np.abs(np.diag(self.phi) - 1.0).max() > 1e-8:
            raise SpecificationError("phi must have a unit diagonal")
        if (self.theta <= 0).any():
            raise SpecificationError("error variances must be positive")
        try:
            self._phi_chol = np.linalg.cholesky(self.phi)
        except np.linalg.LinAlgError as exc:
            raise DegenerateCovarianceError("phi is not positive definite") from exc
        self._phi_chol.flags.writeable = False

    @property
    def m(self) -> int:
        return self.lam.shape[0]

    @property
    def d(self) -> int:
        return self.lam.shape[1]

    def implied_covariance(self) -> np.ndarray:
        """Model-implied covariance lambda phi lambda' + diag(theta)."""
        return self.lam @ self.phi @ self.lam.T + np.diag(self.theta)

    def sigma_cholesky(self) -> np.ndarray:
        """Cached lower Cholesky factor of the implied covariance."""
        if self._sigma_chol is None:
            try:
                self._sigma_chol = np.linalg.cholesky(self.implied_covariance())
            except np.linalg.LinAlgError as exc:
                raise DegenerateCovarianceError(
                    "model-implied covariance is not positive definite"
                ) from exc
            self._sigma_chol.flags.writeable = False
        return self._sigma_chol

    def phi_cholesky(self) -> np.ndarray:
        return self._phi_chol

    def posterior_law(self) -> PosteriorLaw:
        """Cached ``PosteriorLaw``."""
        if self._posterior is None:
            lam_w = self.lam / self.theta[:, None]
            prec = np.linalg.inv(self.phi) + self.lam.T @ lam_w
            cov = np.linalg.inv(prec)
            for a in (lam_w, prec, cov):
                a.flags.writeable = False
            self._posterior = PosteriorLaw(lam_w, prec, cov, np.linalg.slogdet(prec)[1])
        return self._posterior


def _check_item(item: int, params: ParamSet) -> int:
    item = int(item)
    if not 0 <= item < params.m:
        raise ItemIndexError(f"item {item} out of range for m={params.m}")
    return item


def _as_point(x, d: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (d,):
        raise ValueError(f"latent point has shape {x.shape}, expected ({d},)")
    if not np.isfinite(x).all():
        raise ValueError("latent point must be finite")
    return x


# ---------------------------------------------------------------------------
# scalar log-densities
# ---------------------------------------------------------------------------


def lv_density(x, params: ParamSet) -> float:
    """Log-density of the latent vector at x under N(0, phi)."""
    x = _as_point(x, params.d)
    return float(lv_logpdf(x[None, :], params)[0])


def conditional_mv_density(item: int, y: float, x, params: ParamSet) -> float:
    """Log-density of variable ``item`` at y given latent value x."""
    item = _check_item(item, params)
    mu = conditional_mean(item, x, params)
    th = params.theta[item]
    return float(-0.5 * (np.log(2.0 * np.pi * th) + (y - mu) ** 2 / th))


def marginal_density(y, params: ParamSet) -> float:
    """Log marginal density of an observation vector y.

    Evaluated through the cached Cholesky factor of the implied covariance;
    the covariance is never inverted explicitly.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (params.m,):
        raise ValueError(f"y has shape {y.shape}, expected ({params.m},)")
    return float(marginal_logpdf(y[None, :], params)[0])


def posterior_lv_density(x, y, params: ParamSet) -> float:
    """Log posterior density of the latent vector at x given observation y."""
    x = _as_point(x, params.d)
    y = np.asarray(y, dtype=np.float64)
    total = lv_density(x, params) - marginal_density(y, params)
    for j in range(params.m):
        total += conditional_mv_density(j, y[j], x, params)
    return float(total)


def conditional_mean(item: int, x, params: ParamSet) -> float:
    """nu_j + lambda_j' x."""
    item = _check_item(item, params)
    x = _as_point(x, params.d)
    return float(params.nu[item] + params.lam[item] @ x)


def conditional_variance(item: int, x, params: ParamSet) -> float:
    """theta_j; constant in x under this model."""
    item = _check_item(item, params)
    _as_point(x, params.d)
    return float(params.theta[item])


# ---------------------------------------------------------------------------
# vectorized log-densities
# ---------------------------------------------------------------------------


def lv_logpdf(points: np.ndarray, params: ParamSet) -> np.ndarray:
    """Log latent density for each row of ``points`` ((Q, d) -> (Q,))."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    return kernels.mvn_loglik_rows(points, np.zeros(params.d), params.phi_cholesky())


def conditional_mean_grid(points: np.ndarray, params: ParamSet) -> np.ndarray:
    """Conditional means for all variables at each grid row ((Q, d) -> (Q, m))."""
    return params.nu + points @ params.lam.T


def marginal_logpdf(Y: np.ndarray, params: ParamSet) -> np.ndarray:
    """Log marginal density for each data row ((n, m) -> (n,))."""
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    return kernels.mvn_loglik_rows(Y, params.nu, params.sigma_cholesky())


@kernels.single_blas_thread
def posterior_log_weights(Y: np.ndarray, points: np.ndarray, params: ParamSet) -> np.ndarray:
    """Log posterior density of each grid row given each data row ((n, Q)).

    The posterior is normal: x | y ~ N(P^-1 b, P^-1) with precision
    P = phi^-1 + lambda' theta^-1 lambda and b = lambda' theta^-1 (y - nu), so
    the log-density at x is const - (x'P x + b'P^-1 b) / 2 + b'x.  All three
    terms come from one product [B | row term | 1] [X'; 1; column term].
    """
    Y = np.asarray(Y, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    post = params.posterior_law()
    d = params.d
    const = 0.5 * (post.logdet - d * np.log(2.0 * np.pi))
    left = np.empty((len(Y), d + 2))
    B = left[:, :d]
    B[...] = (Y - params.nu) @ post.lam_w
    left[:, d] = -0.5 * np.einsum("ij,ij->i", B @ post.cov, B)
    left[:, d + 1] = 1.0
    right = np.empty((d + 2, len(points)))
    right[:d] = points.T
    right[d] = 1.0
    right[d + 1] = const - 0.5 * np.einsum("qj,qj->q", points @ post.precision, points)
    return left @ right
