"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures at CI scale
(a reduced request count and, for the 24-pair figures, a representative
pair subset — the full sweep is ``python -m repro.harness <fig>``) and
asserts the paper's qualitative *shape* on the result.  The suite runs
under plain pytest (``pytest benchmarks/``): these are simulation
experiments, not microbenchmarks, so nothing times them and their
interesting output is the figure data itself.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest


@pytest.fixture
def once():
    """Run the measured callable exactly once and return its result."""

    def _run(fn, *args, **kwargs):
        return fn(*args, **kwargs)

    return _run


#: Representative pair subset for the 24-pair figures: covers
#: compute-heavy (A: DC-BS), transfer-heavy (J: BO-MC), CPU-bound
#: (G: SC-GA), bandwidth-bound (Q: HI-BS, R: HI-MC) and mixed (U: EV-BS).
PAIR_SUBSET = ("A", "G", "J", "Q", "R", "U")
