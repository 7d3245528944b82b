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
bit-for-bit and replications could be executed in any order.
"""

from dataclasses import dataclass

import numpy as np

from .batteries import (
    default_grid,
    lv_density_problem,
    mv_homoscedasticity_problem,
    mv_linearity_problem,
)
from .baseline import baseline_report
from .errors import ConfigurationError, NotConvergedError
from .estimate import DataMatrix, OptimOptions, fit_ml, simulate_data
from .kernels import single_blas_thread
from .model import ModelSpec, ParamSet
from .residuals import McConfig, run_residual_batch

_LOADING_CYCLE = (np.sqrt(0.3), np.sqrt(0.5), np.sqrt(0.7))

_STUDY1_MIX_MEAN = np.array([0.6, 0.6])
_STUDY1_MIX_COV = np.array([[0.64, -0.16], [-0.16, 0.64]])
_STUDY1_PHI = np.array([[1.0, 0.2], [0.2, 1.0]])


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
    quad_coef: float = -0.1
    logvar_slope: float = 0.3


def model_spec_study1() -> ModelSpec:
    pattern = np.zeros((20, 2), dtype=np.int8)
    pattern[:10, 0] = 1
    pattern[10:, 1] = 1
    return ModelSpec(m=20, d=2, loading_pattern=pattern)


def model_spec_study2() -> ModelSpec:
    return ModelSpec(m=10, d=1, loading_pattern=np.ones((10, 1), dtype=np.int8))


def _cycle_loadings(count: int) -> np.ndarray:
    return np.array([_LOADING_CYCLE[j % 3] for j in range(count)])


def study1_paramset() -> ParamSet:
    """Generating parameters of the two-factor design (both arms)."""
    a = _cycle_loadings(10)
    lam = np.zeros((20, 2))
    lam[:10, 0] = a
    lam[10:, 1] = a
    theta = 1.0 - np.einsum("jk,kl,jl->j", lam, _STUDY1_PHI, lam)
    return ParamSet(nu=np.zeros(20), lam=lam, phi=_STUDY1_PHI, theta=theta)


def study2_dgp(cfg: Study2Config) -> dict:
    """Per-item generating coefficients of the one-factor design.

    Every item has conditional mean lam*x + kappa*x^2 and conditional
    variance exp(g0 + g1*x); clean items have kappa = g1 = 0 and
    g0 = log(theta).
    """
    m = 10
    lam = _cycle_loadings(m)
    kappa = np.zeros(m)
    g1 = np.zeros(m)
    if cfg.misspecified:
        lam[7:] = np.sqrt(0.5)
        kappa[7] = cfg.quad_coef
        kappa[9] = cfg.quad_coef
        g1[8] = cfg.logvar_slope
        g1[9] = cfg.logvar_slope
    theta = 1.0 - lam**2
    return {"lam": lam, "kappa": kappa, "g0": np.log(theta), "g1": g1, "theta": theta}


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
    params = study1_paramset()
    if not cfg.misspecified and not return_lv:
        return simulate_data(params, cfg.n, rng)
    if cfg.misspecified:
        comp = rng.random(cfg.n) < 0.5
        z = rng.standard_normal((cfg.n, 2)) @ np.linalg.cholesky(_STUDY1_MIX_COV).T
        x = np.where(comp[:, None], -_STUDY1_MIX_MEAN, _STUDY1_MIX_MEAN) + z
    else:
        x = rng.standard_normal((cfg.n, 2)) @ params.phi_cholesky().T
    eps = rng.standard_normal((cfg.n, 20)) * np.sqrt(params.theta)
    data = DataMatrix(x @ params.lam.T + eps)
    return (data, x) if return_lv else data


def generate_study2(cfg: Study2Config, rng, return_lv: bool = False):
    """Draw a study2 dataset; optionally also return the latent draws."""
    if not cfg.misspecified and not return_lv:
        return simulate_data(study2_paramset(), cfg.n, rng)
    dgp = study2_dgp(cfg)
    x = rng.standard_normal(cfg.n)
    eps = rng.standard_normal((cfg.n, 10))
    mean = x[:, None] * dgp["lam"] + (x**2)[:, None] * dgp["kappa"]
    sd = np.exp(0.5 * (dgp["g0"] + x[:, None] * dgp["g1"]))
    data = DataMatrix(mean + sd * eps)
    return (data, x) if return_lv else data


def mixture_lv_logpdf(points: np.ndarray) -> np.ndarray:
    """Log-density of the study1 mixture latent law at each row of points."""
    inv = np.linalg.inv(_STUDY1_MIX_COV)
    const = -np.log(2.0 * np.pi) - 0.5 * np.log(np.linalg.det(_STUDY1_MIX_COV))
    out = np.empty(points.shape[0])
    for i, pt in enumerate(points):
        parts = []
        for mu in (-_STUDY1_MIX_MEAN, _STUDY1_MIX_MEAN):
            dev = pt - mu
            parts.append(const - 0.5 * dev @ inv @ dev)
        out[i] = np.logaddexp(parts[0], parts[1]) + np.log(0.5)
    return out


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
    baseline: dict = None
    raw: dict = None

    @property
    def band_halfwidth(self) -> float:
        r = max(self.converged_reps, 1)
        return 1.96 * float(np.sqrt(self.alpha * (1.0 - self.alpha) / r))


def _build_problems(grid, items, kinds, is_study1):
    if kinds is None:
        kinds = ("lv-density",) if is_study1 else ("linearity", "variance")
    problems = []
    for kind in kinds:
        if kind == "lv-density":
            problems.append(lv_density_problem(grid))
        elif kind == "linearity":
            problems.extend(mv_linearity_problem(grid, item) for item in items)
        elif kind == "variance":
            problems.extend(mv_homoscedasticity_problem(grid, item) for item in items)
        else:
            raise ConfigurationError(f"unknown battery kind {kind!r}")
    return problems


def replication(cfg, seed: int, rep: int, max_iter: int = 500):
    """Data, fit and Monte Carlo seed of replication ``rep`` of a study seeded
    with ``seed``.

    Returns ``(data, fit, mc_seed)``.  ``run_rejection_study`` runs each
    replication from exactly these, so a test run on them with
    ``McConfig(seed=mc_seed)`` reproduces that replication's report.
    """
    data_seq, mc_seq = np.random.SeedSequence((seed, rep)).spawn(2)
    data_rng = np.random.default_rng(data_seq)
    if isinstance(cfg, Study1Config):
        data, spec = generate_study1(cfg, data_rng), model_spec_study1()
    else:
        data, spec = generate_study2(cfg, data_rng), model_spec_study2()
    fit = fit_ml(data, spec, OptimOptions(info_draws=0, max_iter=max_iter))
    return data, fit, int(mc_seq.generate_state(1)[0])


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
    kinds=None,
    grid=None,
    collect_baseline: bool = False,
    collect_raw: bool = False,
    max_iter: int = 500,
) -> RejectionTable:
    """Replicate generate -> fit -> test and tabulate empirical rejections.

    Replications whose fit fails any convergence check are excluded from
    every count and reported in ``excluded``.  Pointwise counts additionally
    exclude grid points flagged unstable within a replication.
    """
    if reps < 1:
        raise ConfigurationError("reps must be >= 1")
    is_study1 = isinstance(cfg, Study1Config)
    spec = model_spec_study1() if is_study1 else model_spec_study2()
    if grid is None:
        grid = default_grid(spec.d)
    problems = _build_problems(grid, items, kinds, is_study1)

    counts = {}
    raw = {} if collect_raw else None
    for prob in problems:
        name = prob.battery.name
        k_out = prob.transformation.k_out
        counts[name] = BatteryCounts(
            coords=grid.points.copy(),
            point_rejections=np.zeros(k_out, dtype=np.int64),
            point_valid=np.zeros(k_out, dtype=np.int64),
        )
        if collect_raw:
            raw[name] = {"T": [], "z": []}
    base_acc = {"lr_rejections": 0, "cfi": 0.0, "tli": 0.0, "srmr": 0.0, "rmsea": 0.0}

    converged_reps = 0
    excluded = 0
    for rep in range(reps):
        data, fit, mc_seed = replication(cfg, seed, rep, max_iter=max_iter)
        if not fit.converged:
            excluded += 1
            continue
        converged_reps += 1
        if problems:
            mc = McConfig(M=M, seed=mc_seed, s=s)
            reports = run_residual_batch(problems, fit, data, mc)
            for prob, report in zip(problems, reports):
                acc = counts[prob.battery.name]
                p_vals = np.array([pt.p for pt in report.points])
                ok = np.isfinite(p_vals)
                acc.point_valid += ok
                acc.point_rejections += ok & (p_vals < alpha)
                if report.summary is not None:
                    acc.summary_valid += 1
                    acc.summary_rejections += report.summary.p < alpha
                if collect_raw:
                    raw[prob.battery.name]["T"].append(
                        report.summary.T if report.summary else float("nan")
                    )
                    raw[prob.battery.name]["z"].append(
                        np.array([pt.z for pt in report.points])
                    )
        if collect_baseline:
            rep_base = baseline_report(fit, data)
            base_acc["lr_rejections"] += rep_base.p < alpha
            for key in ("cfi", "tli", "srmr", "rmsea"):
                base_acc[key] += getattr(rep_base, key)

    if converged_reps == 0:
        raise NotConvergedError(f"all {reps} replications failed to converge")

    baseline = None
    if collect_baseline:
        baseline = {
            "lr_rate": base_acc["lr_rejections"] / converged_reps,
            "mean_cfi": base_acc["cfi"] / converged_reps,
            "mean_tli": base_acc["tli"] / converged_reps,
            "mean_srmr": base_acc["srmr"] / converged_reps,
            "mean_rmsea": base_acc["rmsea"] / converged_reps,
        }
    if collect_raw:
        for name in raw:
            raw[name]["T"] = np.array(raw[name]["T"])
            raw[name]["z"] = np.vstack(raw[name]["z"]) if raw[name]["z"] else np.empty((0, 0))

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
        baseline=baseline,
        raw=raw,
    )
