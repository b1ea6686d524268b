"""Discrete-event simulation kernel used by every simulated substrate.

This package provides a small, deterministic, generator-based DES engine in
the style of SimPy, kept to what the Strings reproduction runs:

* :class:`~repro.sim.core.Environment` — the event loop and simulated clock
  (``schedule``, ``relay``, ``step``, ``run`` and the event factories).
* :class:`~repro.sim.events.Event` family — one-shot events, timeouts and
  ``AllOf``/``AnyOf`` condition events (which succeed with ``None``).
* :class:`~repro.sim.process.Process` — coroutine processes written as
  generators that ``yield`` events.
* :mod:`~repro.sim.resources` — a counted FIFO :class:`Resource` (a copy
  engine's lane) and an unbounded FIFO :class:`Store` (an issue loop's
  queue).
* :class:`~repro.sim.rng.RandomStream` — seeded random streams (exponential
  inter-arrival times per the paper's eq. 4).

Determinism: the event queue is keyed by ``(time, priority, sequence)`` so
two runs with the same seeds produce identical traces.
"""

from repro.sim.core import Environment, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, EventPriority, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStream

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "EventPriority",
    "Process",
    "RandomStream",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
