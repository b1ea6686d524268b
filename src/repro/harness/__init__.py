"""Experiment harness: one registered experiment per paper table/figure.

Every experiment module registers one :class:`~repro.harness.registry.Experiment`
class whose ``run`` returns the figure's series and whose ``analyze``
renders the rows the paper reports.  Code runs one with
``registry.execute(name, registry.ExperimentContext(scale=..., options=...))``;
the command line makes the same call (a bare name means ``run NAME``)::

    python -m repro.harness list
    python -m repro.harness table1
    python -m repro.harness run fig9 --scale quick --out-dir runs/fig9 --emit report
    python -m repro.harness all --scale quick

Scales: ``quick`` (CI-sized), ``paper`` (full request counts).
"""

from repro.harness.runner import (
    ExperimentScale,
    SCALE_PAPER,
    SCALE_QUICK,
    SystemFactory,
    closed_loop_shared_run,
    prewarm_sft,
    run_stream_experiment,
    solo_completion_time,
    system_factories,
)

__all__ = [
    "ExperimentScale",
    "SCALE_PAPER",
    "SCALE_QUICK",
    "SystemFactory",
    "closed_loop_shared_run",
    "prewarm_sft",
    "run_stream_experiment",
    "solo_completion_time",
    "system_factories",
]
