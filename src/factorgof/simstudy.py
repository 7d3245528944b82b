"""Data-generating designs and the replication driver.

Two bundled designs:

* ``study1``: a two-factor independent-cluster model with twenty variables.
  The correct arm draws latent vectors from N(0, phi); the misspecified arm
  draws them from an equal-weight mixture of two normals chosen so that both
  arms share the same latent mean and covariance, hiding the misfit from
  moment-based diagnostics.
* ``study2``: a one-factor model with ten variables.  The misspecified arm
  distorts three items: a quadratic conditional mean, a log-linear
  conditional variance, and both at once, leaving seven items clean for
  false-detection accounting.

``run_rejection_study`` replicates generate -> fit -> test, counting
rejections per grid point and per summary statistic.  Replication r of a run
seeded with master seed ``seed`` derives all randomness from
``SeedSequence((seed, r))`` (see ``replication``), so tables reproduce
bit-for-bit and replications could be executed in any order.  Each design's
spec, the spec's ``ParamMapping`` and the generating law are built on first
use and shared, read-only, by every later call in the process, and every
replication's fit runs through the design's mapping.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .batteries import default_grid, make_problem
from .errors import ConfigurationError, NotConvergedError
from .estimate import DataMatrix, ParamMapping, fit_ml
from .kernels import single_blas_thread
from .model import ModelSpec, ParamSet
from .residuals import McConfig, run_residual_batch

_LOADING_CYCLE = (np.sqrt(0.3), np.sqrt(0.5), np.sqrt(0.7))

_STUDY1_MIX_MEAN = np.array([0.6, 0.6])
_STUDY1_MIX_COV = np.array([[0.64, -0.16], [-0.16, 0.64]])
_STUDY1_PHI = np.array([[1.0, 0.2], [0.2, 1.0]])

_STUDY2_QUAD_COEF = -0.1
_STUDY2_LOGVAR_SLOPE = 0.3


@dataclass
class Study1Config:
    """Two-factor design with a normal vs. normal-mixture latent law."""

    n: int
    misspecified: bool = False


@dataclass
class Study2Config:
    """One-factor design with per-item conditional-moment distortions.

    In the misspecified arm items 0-6 stay linear-homoscedastic, item 7 gets
    a quadratic mean, item 8 a log-linear variance, and item 9 both.
    """

    n: int
    misspecified: bool = False


class _Design(NamedTuple):
    """A bundled design's constants: its spec, the spec's ParamMapping, and
    its generating law (study1: the ParamSet and the lower Cholesky factor
    of a mixture component's covariance; study2: the coefficients of the
    correct and the misspecified arm, in that order)."""

    spec: ModelSpec
    mapping: ParamMapping
    law: tuple


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _cycle_loadings(count: int) -> np.ndarray:
    return np.array([_LOADING_CYCLE[j % 3] for j in range(count)])


@functools.cache
def _study1() -> _Design:
    """Study1's constants, built on first use and shared by every later one."""
    pattern = np.zeros((20, 2), dtype=np.int8)
    pattern[:10, 0] = 1
    pattern[10:, 1] = 1
    spec = ModelSpec(m=20, d=2, loading_pattern=pattern)
    a = _cycle_loadings(10)
    lam = np.zeros((20, 2))
    lam[:10, 0] = a
    lam[10:, 1] = a
    theta = 1.0 - np.einsum("jk,kl,jl->j", lam, _STUDY1_PHI, lam)
    params = ParamSet(nu=np.zeros(20), lam=lam, phi=_STUDY1_PHI, theta=theta)
    mix_chol = np.linalg.cholesky(_STUDY1_MIX_COV)
    _read_only(params.nu, params.lam, params.phi, params.theta, mix_chol)
    return _Design(spec, ParamMapping(spec), (params, mix_chol))


def _study2_coefficients(misspecified: bool) -> dict:
    m = 10
    lam = _cycle_loadings(m)
    kappa = np.zeros(m)
    g1 = np.zeros(m)
    if misspecified:
        lam[7:] = np.sqrt(0.5)
        kappa[7] = kappa[9] = _STUDY2_QUAD_COEF
        g1[8] = g1[9] = _STUDY2_LOGVAR_SLOPE
    theta = 1.0 - lam**2
    coef = {"lam": lam, "kappa": kappa, "g0": np.log(theta), "g1": g1, "theta": theta}
    _read_only(*coef.values())
    return coef


@functools.cache
def _study2() -> _Design:
    """Study2's constants, built on first use and shared by every later one."""
    spec = ModelSpec(m=10, d=1, loading_pattern=np.ones((10, 1), dtype=np.int8))
    return _Design(spec, ParamMapping(spec),
                   (_study2_coefficients(False), _study2_coefficients(True)))


def model_spec_study1() -> ModelSpec:
    """The two-factor design's spec, shared (it is immutable)."""
    return _study1().spec


def model_spec_study2() -> ModelSpec:
    """The one-factor design's spec, shared (it is immutable)."""
    return _study2().spec


def study1_paramset() -> ParamSet:
    """Generating parameters of the two-factor design (both arms); shared,
    with read-only arrays."""
    return _study1().law[0]


def study2_dgp(cfg: Study2Config) -> dict:
    """Per-item generating coefficients of the one-factor design.

    Every item has conditional mean lam*x + kappa*x^2 and conditional
    variance exp(g0 + g1*x); clean items have kappa = g1 = 0 and
    g0 = log(theta).  The dict is new on every call; its arrays are shared
    and read-only.
    """
    return dict(_study2().law[bool(cfg.misspecified)])


def study2_paramset() -> ParamSet:
    """Generating parameters of the correct one-factor arm."""
    dgp = study2_dgp(Study2Config(n=1, misspecified=False))
    return ParamSet(
        nu=np.zeros(10),
        lam=dgp["lam"][:, None],
        phi=np.eye(1),
        theta=dgp["theta"],
    )


def generate_study1(cfg: Study1Config, rng, return_lv: bool = False):
    """Draw a study1 dataset; optionally also return the latent draws."""
    if cfg.n < 1:
        raise ConfigurationError("n must be positive")
    params, mix_chol = _study1().law
    if cfg.misspecified:
        comp = rng.random(cfg.n) < 0.5
        z = rng.standard_normal((cfg.n, 2)) @ mix_chol.T
        x = np.where(comp[:, None], -_STUDY1_MIX_MEAN, _STUDY1_MIX_MEAN) + z
    else:
        x = rng.standard_normal((cfg.n, 2)) @ params.phi_cholesky().T
    eps = rng.standard_normal((cfg.n, 20)) * np.sqrt(params.theta)
    data = DataMatrix(x @ params.lam.T + eps)
    return (data, x) if return_lv else data


def generate_study2(cfg: Study2Config, rng, return_lv: bool = False):
    """Draw a study2 dataset; optionally also return the latent draws."""
    if cfg.n < 1:
        raise ConfigurationError("n must be positive")
    dgp = _study2().law[bool(cfg.misspecified)]
    x = rng.standard_normal(cfg.n)
    eps = rng.standard_normal((cfg.n, 10))
    mean = x[:, None] * dgp["lam"] + (x**2)[:, None] * dgp["kappa"]
    sd = np.exp(0.5 * (dgp["g0"] + x[:, None] * dgp["g1"]))
    data = DataMatrix(mean + sd * eps)
    return (data, x) if return_lv else data


# ---------------------------------------------------------------------------
# replication driver
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BatteryCounts:
    coords: np.ndarray
    point_rejections: np.ndarray
    point_valid: np.ndarray
    summary_rejections: int = 0
    summary_valid: int = 0

    def point_rates(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(
                self.point_valid > 0, self.point_rejections / self.point_valid, np.nan
            )

    def summary_rate(self) -> float:
        return self.summary_rejections / self.summary_valid if self.summary_valid else float("nan")


@dataclass(eq=False)
class RejectionTable:
    """Aggregated rejection counts with their Monte Carlo band."""

    study: str
    misspecified: bool
    n: int
    alpha: float
    reps: int
    converged_reps: int
    excluded: int
    M: int
    s: int
    seed: int
    grid_label: str
    summary_label: str
    batteries: dict
    raw: dict = None

    @property
    def band_halfwidth(self) -> float:
        r = max(self.converged_reps, 1)
        return 1.96 * float(np.sqrt(self.alpha * (1.0 - self.alpha) / r))


def replication(cfg, seed: int, rep: int):
    """Data and fit of replication ``rep`` of a study seeded with ``seed``.

    Returns ``(data, fit)``.  The data are drawn from the first child of
    ``SeedSequence((seed, rep))``, and ``run_rejection_study`` runs each
    replication from exactly these.  Every bundled battery's covariance is
    exact, so a test run on (data, fit) reproduces that replication's
    report whatever the draw settings.
    """
    data_rng = np.random.default_rng(np.random.SeedSequence((seed, rep)).spawn(1)[0])
    if isinstance(cfg, Study1Config):
        data, design = generate_study1(cfg, data_rng), _study1()
    else:
        data, design = generate_study2(cfg, data_rng), _study2()
    return data, fit_ml(data, design.mapping)


@single_blas_thread
def run_rejection_study(
    cfg,
    *,
    reps: int,
    seed: int,
    alpha: float = 0.05,
    M: int = 4000,
    s: int = 1,
    items=(1,),
    grid=None,
    collect_raw: bool = False,
) -> RejectionTable:
    """Replicate generate -> fit -> test and tabulate empirical rejections.

    Replications whose fit fails any convergence check are excluded from
    every count and reported in ``excluded``.  Pointwise counts additionally
    exclude grid points flagged unstable within a replication.

    Study1 runs the lv-density battery; study2 runs linearity and variance,
    each once per entry of ``items``.  Every battery ``make_problem`` builds
    has an exact covariance, so the tests draw nothing: ``M`` is only
    recorded in the table.
    """
    if reps < 1:
        raise ConfigurationError("reps must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    is_study1 = isinstance(cfg, Study1Config)
    spec = model_spec_study1() if is_study1 else model_spec_study2()
    if grid is None:
        grid = default_grid(spec.d)
    kinds = ("lv-density",) if is_study1 else ("linearity", "variance")
    batteries = [make_problem(kind, grid, item) for kind in kinds
                 for item in ((None,) if kind == "lv-density" else items)]
    names = [battery.name for battery in batteries]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigurationError(f"repeated batteries: {', '.join(repeated)}")

    counts = {}
    raw = {} if collect_raw else None
    for name in names:
        counts[name] = BatteryCounts(
            coords=grid.points.copy(),
            point_rejections=np.zeros(grid.Q, dtype=np.int64),
            point_valid=np.zeros(grid.Q, dtype=np.int64),
        )
        if collect_raw:
            raw[name] = {"T": [], "z": []}

    mc = McConfig(s=s)
    converged_reps = 0
    excluded = 0
    for rep in range(reps):
        data, fit = replication(cfg, seed, rep)
        if not fit.converged:
            excluded += 1
            continue
        converged_reps += 1
        reports = run_residual_batch(batteries, fit, data, mc)
        for name, report in zip(names, reports):
            acc = counts[name]
            ok = np.isfinite(report.p)
            acc.point_valid += ok
            acc.point_rejections += ok & (report.p < alpha)
            if report.summary is not None:
                acc.summary_valid += 1
                acc.summary_rejections += report.summary.p < alpha
            if collect_raw:
                raw[name]["T"].append(
                    report.summary.T if report.summary else float("nan")
                )
                raw[name]["z"].append(report.z)

    if converged_reps == 0:
        raise NotConvergedError(f"all {reps} replications failed to converge")

    if collect_raw:
        for name in raw:
            raw[name]["T"] = np.array(raw[name]["T"])
            raw[name]["z"] = np.vstack(raw[name]["z"])

    return RejectionTable(
        study="study1" if is_study1 else "study2",
        misspecified=cfg.misspecified,
        n=cfg.n,
        alpha=alpha,
        reps=reps,
        converged_reps=converged_reps,
        excluded=excluded,
        M=M,
        s=s,
        seed=seed,
        grid_label=grid.label,
        summary_label=grid.summary_label,
        batteries=counts,
        raw=raw,
    )
