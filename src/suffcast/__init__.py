"""Sufficient forecasting with factor models and inverse-moment dimension reduction."""

from .panel_data import (
    DataError,
    PanelData,
    load_csv,
)
from .factor_analysis import (
    FactorEstimate,
    NumFactorsSelection,
    estimated_factors_known_loadings,
    select_and_fit_factors,
)
from .sdr import (
    DimensionSelection,
    KernelEstimate,
    SliceAssignment,
    build_kernels,
    fit_indices,
    select_dimension,
    slice_target,
)
from .forecaster import (
    EvalReport,
    ForecastModel,
    RollingConfig,
    fit_additive,
    fit_forecast_model,
    fit_pc_baseline,
    predict,
    rolling_evaluate,
)
from .simulation import (
    DgpSpec,
    SimDraw,
    StudyConfig,
    StudyResult,
    identifiability_rotation,
    monte_carlo_study,
    sample_dgp,
    subspace_r2,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "PanelData",
    "load_csv",
    "FactorEstimate",
    "NumFactorsSelection",
    "estimated_factors_known_loadings",
    "select_and_fit_factors",
    "SliceAssignment",
    "KernelEstimate",
    "DimensionSelection",
    "slice_target",
    "build_kernels",
    "fit_indices",
    "select_dimension",
    "ForecastModel",
    "EvalReport",
    "RollingConfig",
    "fit_additive",
    "predict",
    "fit_pc_baseline",
    "fit_forecast_model",
    "rolling_evaluate",
    "DgpSpec",
    "SimDraw",
    "StudyConfig",
    "StudyResult",
    "sample_dgp",
    "identifiability_rotation",
    "subspace_r2",
    "monte_carlo_study",
]
