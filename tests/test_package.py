"""The package's exports: every module's ``__all__``, declared once."""

from __future__ import annotations

import riskhull
from riskhull import bench, estimators, hull, selectors, sequence_model

# the package's exports before they were derived from the modules; a name
# dropped from a module's __all__ would otherwise leave the package silently
PINNED = {
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
}


def test_package_exports_every_module_all_once():
    exported = riskhull.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(riskhull, name)] == []
    modules = (sequence_model, estimators, hull, selectors, bench)
    assert set(exported) == {"__version__"}.union(*(module.__all__ for module in modules))
    # no module's star-import shadows a name another module declares
    for module in modules:
        for name in module.__all__:
            assert getattr(riskhull, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert len(PINNED) == 59 and PINNED <= set(exported)
