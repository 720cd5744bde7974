"""Spectral-cutoff regularization for sequence-space ill-posed inverse
problems, with data-driven bandwidth selection by unbiased risk estimation
(URE) and risk hull minimization (RHM)."""

__version__ = "0.1.0"

from .sequence_model import (
    Observation,
    SigmaSpec,
    Signal,
    ZERO_SIGNAL,
    derive_seed,
    fingerprint,
    make_observation,
    max_index,
    rng_for,
    sigma_at,
    sigma_values,
    signal_family,
    simulate,
    spec_from_dict,
    spec_to_dict,
    unit_spec,
)
from .estimators import (
    RiskCurve,
    oracle_risk,
    project,
    projection_risk,
    rhm_risk,
    squared_loss,
    ure_threshold,
)
from .hull import (
    HullCacheError,
    HullTable,
    McParams,
    build_hull_table,
    compute_u0,
    eta_checkpoint_samples,
    eta_paths_from_noise,
    eta_samples_at,
    gaussian_u0,
    load_hull_table,
    penalty_ratio,
    rhm_penalty,
    sample_eta_paths,
    save_hull_table,
    tail_functional,
    u1,
)
from .selectors import (
    Selector,
    SelectorResult,
    fixed_selector,
    penalized_objective,
    rhm_selector,
    select_penalized,
    select_rhm,
    select_ure,
    ure_selector,
)
from .bench import (
    EfficiencyCurve,
    StemData,
    default_a_grid,
    default_n_max,
    efficiency_curve,
    efficiency_curves,
    mc_selector_risk,
    oracle_efficiency,
    ratio_curve,
    stem_experiment,
)

__all__ = [
    "__version__",
    "Observation", "SigmaSpec", "Signal", "ZERO_SIGNAL",
    "derive_seed", "fingerprint", "make_observation", "max_index", "rng_for",
    "sigma_at", "sigma_values", "signal_family", "simulate",
    "spec_from_dict", "spec_to_dict", "unit_spec",
    "RiskCurve", "oracle_risk", "project", "projection_risk", "rhm_risk",
    "squared_loss", "ure_threshold",
    "HullCacheError", "HullTable", "McParams", "build_hull_table", "compute_u0",
    "eta_checkpoint_samples", "eta_paths_from_noise", "eta_samples_at",
    "gaussian_u0", "load_hull_table", "penalty_ratio", "rhm_penalty", "sample_eta_paths",
    "save_hull_table", "tail_functional", "u1",
    "Selector", "SelectorResult", "fixed_selector", "penalized_objective",
    "rhm_selector", "select_penalized", "select_rhm", "select_ure", "ure_selector",
    "EfficiencyCurve", "StemData", "default_a_grid", "default_n_max",
    "efficiency_curve", "efficiency_curves", "mc_selector_risk", "oracle_efficiency",
    "ratio_curve", "stem_experiment",
]
