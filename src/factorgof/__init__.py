"""Generalized-residual goodness-of-fit diagnostics for linear normal
common factor models: maximum-likelihood fitting, latent-density and
item-level moment checks with pointwise z and summary chi-square tests,
conventional fit indices, and a replication harness."""

__version__ = "0.1.0"

from .baseline import BaselineReport, baseline_report, fit_indices, lr_chi2
from .batteries import (
    LvGrid,
    default_grid,
    lv_density_problem,
    make_grid,
    make_problem,
    mv_homoscedasticity_problem,
    mv_linearity_direct_problem,
    mv_linearity_problem,
    slice_report,
)
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateCovarianceError,
    FactorGofError,
    IdentificationError,
    NotConvergedError,
    RankError,
    SpecificationError,
)
from .estimate import (
    DataMatrix,
    FitResult,
    OptimOptions,
    ParamMapping,
    fit_ml,
    log_likelihood,
    score,
    score_rows,
    simulate_data,
)
from .kernels import backend
from .model import (
    ModelSpec,
    ParamSet,
    conditional_mean,
    conditional_mv_density,
    conditional_variance,
    lv_density,
    marginal_density,
    posterior_lv_density,
)
from .residuals import (
    AcmEstimate,
    McConfig,
    RatioBattery,
    SummaryBattery,
    TestReport,
    WeightedBattery,
    chi2_statistic,
    eta_hat,
    run_residual_batch,
    run_residual_test,
    truncated_inverse,
    z_statistic,
)
from .simstudy import (
    RejectionTable,
    Study1Config,
    Study2Config,
    generate_study1,
    generate_study2,
    replication,
    run_rejection_study,
    study1_paramset,
    study2_paramset,
)
