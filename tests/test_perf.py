"""Performance layer: trial decomposition parity.

Every experiment that declares the trial protocol produces the same
table row-for-row whether run monolithically or as recombined trials
(docs/ARCHITECTURE.md, "Performance layer") — this is what makes
``--jobs N`` byte-identical to serial.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import supports_trials

TRIAL_MODULES = sorted(
    name for name, module in ALL_EXPERIMENTS.items() if supports_trials(module)
)


# ----------------------------------------------------------------------
# trial decomposition
# ----------------------------------------------------------------------
def test_decomposed_experiment_roster():
    """The suite-wide decomposition covers at least the heavy experiments."""
    assert {
        "fig08",
        "fig09",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "complexity",
        "path_query",
        "ablation_failures",
    } <= set(TRIAL_MODULES)


@pytest.mark.parametrize("name", TRIAL_MODULES)
def test_trial_parity(name):
    """run() must equal combine_trials(map(run_trial, trial_specs())) exactly."""
    module = ALL_EXPERIMENTS[name]
    whole = module.run(profile="quick")
    specs = module.trial_specs("quick")
    assert len(specs) >= 2, "decomposition should yield multiple parallel units"
    results = [module.run_trial(spec, "quick") for spec in specs]
    combined = module.combine_trials(results, "quick")
    assert combined.to_json_dict() == whole.to_json_dict()


@pytest.mark.parametrize("name", TRIAL_MODULES)
def test_trial_specs_are_picklable(name):
    """Specs cross the process-pool boundary; they must pickle cheaply."""
    specs = ALL_EXPERIMENTS[name].trial_specs("quick")
    blob = pickle.dumps(specs)
    # Lightweight by construction: specs carry parameters, never datasets.
    assert len(blob) < 100_000
