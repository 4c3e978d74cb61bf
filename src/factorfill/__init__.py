"""factorfill: factor-based imputation, inference, covariance estimation,
and portfolio risk measurement for incomplete panels."""

__version__ = "0.1.0"

from .apc import FactorModelFit, apc, common_component
from .covariance import (
    CovEstimate,
    OverlayConfig,
    completed_sample_cov,
    min_eigenvalue,
    overlay_cov,
    overlay_draw_covs,
    pairwise_cov,
    rescale_cov,
    sample_cov,
    sf_cov,
    sfa_cov,
)
from .errors import (
    DataValidationError,
    FactorfillError,
    NotConverged,
    NumericalError,
)
from .favar import FavarFit, favar_fit
from .impute import (
    ImputationResult,
    IntervalEstimate,
    cc_interval_first_pass,
    cc_interval_reestimated,
    completed_in_original_units,
    em_impute,
    impute_panel,
    inference_components,
    prediction_interval,
    prediction_se_matrix,
    reestimate,
    tp_impute,
    tw_impute,
)
from .io import read_panel_csv, write_panel_csv
from .panel import (
    LocatorSets,
    PanelMatrix,
    StandardizationRecord,
    build_locators,
    destandardize,
    standardize,
)
from .risk import (
    RiskReport,
    annualized_vol,
    black_scholes_call,
    min_variance_weights,
    portfolio_volatility_model,
    portfolio_volatility_realized,
    risk_report,
    value_at_risk,
)
from .simulate import (
    BasicDgpConfig,
    CustomMask,
    FourBlockCase,
    McReport,
    SouthWestBlock,
    StrictFactorConfig,
    apply_missing,
    gen_basic_dgp,
    gen_strict_factor_dgp,
    mc_distribution_study,
    mc_fullrank_check,
    mc_imputation_rmse,
    mc_risk_study,
    run_preset,
    synthetic_calibrated_panel,
)

__all__ = [
    "__version__",
    "FactorModelFit", "apc", "common_component",
    "CovEstimate", "OverlayConfig", "completed_sample_cov", "min_eigenvalue",
    "overlay_cov", "overlay_draw_covs", "pairwise_cov", "rescale_cov",
    "sample_cov", "sf_cov", "sfa_cov",
    "DataValidationError", "FactorfillError", "NotConverged", "NumericalError",
    "FavarFit", "favar_fit",
    "ImputationResult", "IntervalEstimate", "cc_interval_first_pass",
    "cc_interval_reestimated", "completed_in_original_units", "em_impute",
    "impute_panel", "inference_components", "prediction_interval",
    "prediction_se_matrix", "reestimate", "tp_impute", "tw_impute",
    "read_panel_csv", "write_panel_csv",
    "LocatorSets", "PanelMatrix", "StandardizationRecord", "build_locators",
    "destandardize", "standardize",
    "RiskReport", "annualized_vol", "black_scholes_call",
    "min_variance_weights", "portfolio_volatility_model",
    "portfolio_volatility_realized", "risk_report", "value_at_risk",
    "BasicDgpConfig", "CustomMask", "FourBlockCase", "McReport",
    "SouthWestBlock", "StrictFactorConfig", "apply_missing", "gen_basic_dgp",
    "gen_strict_factor_dgp", "mc_distribution_study", "mc_fullrank_check",
    "mc_imputation_rmse", "mc_risk_study", "run_preset",
    "synthetic_calibrated_panel",
]
