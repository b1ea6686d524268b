"""Wall-clock zone timing: nesting-aware self/total time per named zone.

A :class:`ZoneProfiler` is a zone stack over :func:`time.perf_counter`:
a caller marks the code it is entering (``perf.push("sim")`` ...
``perf.pop()``), and the profiler accumulates per-zone call counts,
**total** time (zone on the stack) and **self** time (zone on *top* of
the stack: total minus the time spent in nested zones).  Summing
``self_s`` over all zones therefore reconstructs the wall clock of the
outermost zone.

Nothing in the simulator pushes zones: a run's own CPU split comes from
the stack sampler (:mod:`repro.telemetry.profiler`), billed by layer.
This class serves the external layer tracer in ``perfbench/layers.py``,
which wraps each layer's entry points in zones from outside the program.

Zones must nest strictly (pop what you pushed); re-entering a zone name
recursively would double-count its total time.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List


class ZoneStat:
    """Accumulated wall-clock cost of one zone."""

    __slots__ = ("name", "calls", "total_s", "self_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ZoneStat {self.name} calls={self.calls} "
            f"total={self.total_s:.4f}s self={self.self_s:.4f}s>"
        )


class ZoneProfiler:
    """Nesting-aware per-zone wall-clock accounting.

    ``push``/``pop`` cost two :func:`perf_counter` reads per zone visit.
    A zone's *self* time is its total minus the time its nested zones
    were on top: entering a child implicitly pauses the parent's self
    clock.
    """

    __slots__ = ("zones", "_stack")

    def __init__(self) -> None:
        self.zones: Dict[str, ZoneStat] = {}
        # Stack frames are mutable [name, entered_at, child_seconds].
        self._stack: List[list] = []

    def push(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def pop(self) -> float:
        """Leave the current zone; returns its elapsed total seconds."""
        t = perf_counter()
        name, entered, child_s = self._stack.pop()
        dur = t - entered
        st = self.zones.get(name)
        if st is None:
            st = self.zones[name] = ZoneStat(name)
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s
        if self._stack:
            self._stack[-1][2] += dur
        return dur


__all__ = ["ZoneProfiler", "ZoneStat"]
