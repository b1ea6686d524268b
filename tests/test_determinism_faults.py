"""Regression: the fault subsystem costs nothing on the null path.

With no fault plan installed, experiment outputs must stay bit-for-bit
deterministic — the same figure run twice with the same seed produces
byte-identical metrics, and merely importing (or resetting) the
``repro.faults`` machinery changes nothing.
"""

import json

import repro.faults as faults
from repro.harness import registry
from repro.harness.runner import SCALE_QUICK


def _fig9_json():
    ctx = registry.ExperimentContext(
        scale=SCALE_QUICK, options={"apps": ["MC"], "policies": ["GRR-Rain", "GMin-Strings"]}
    )
    return json.dumps(registry.execute("fig9", ctx)[1], sort_keys=True)


def test_fig9_byte_identical_across_runs_with_faults_loaded():
    assert faults.current_plan() is None
    first = _fig9_json()
    second = _fig9_json()
    assert first == second

    # Exercising the plan slot (install + reset, no plan left active)
    # must not perturb the run either.
    faults.install_plan(faults.FaultPlan())
    faults.reset_plan()
    assert faults.current_plan() is None
    third = _fig9_json()
    assert first == third
