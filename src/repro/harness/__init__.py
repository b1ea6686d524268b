"""Experiment harness: one registered experiment per paper table/figure.

Every module exposes ``run(scale) -> dict`` returning the figure's series
and a ``main()`` that prints the same rows the paper reports.  Run from
the command line (a bare name means ``run NAME``)::

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
