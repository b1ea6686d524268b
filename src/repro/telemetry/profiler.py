"""Background stack sampler, billed by layer: the simulator's self-profiler.

The critical-path profiler (:mod:`repro.obs.analysis`) blames every
*simulated* second of request latency; this module blames every
*wall-clock* second the simulator itself burns.  A
:class:`SamplingProfiler` is a daemon thread that wakes at a fixed
rate, snapshots the *target* thread's Python stack via
:func:`sys._current_frames`, and bills the sample to a **layer**: the
``repro`` subpackage (``sim``, ``simgpu``, ``core``, ..., the ranks of
``tools/check_layering.py``) whose directory holds the code file of
the innermost frame that lies in one (:func:`layer_of`).  A stack with
no such frame is billed to :data:`OUTSIDE`.  Library and builtin
time thus lands on the layer that called it, and a process body
defined outside ``repro`` (a test's, say) on the kernel frame that
resumed it.  Nothing in the simulator reads the profiler: which code
belongs to which layer is this one path rule, not hooks on hot paths.

Exports: the per-layer shares (:meth:`layer_shares`, ``cpu_layers`` in
``metrics.json``), an aligned console table (:meth:`format_layers`)
and collapsed-stack text (Brendan Gregg's flamegraph input):
``layer;frame;frame;... count`` per line, root-first, which
``flamegraph.pl``, inferno and speedscope.app all open as is.

Thread-safety argument (DESIGN.md §15): the profiler thread only ever
*reads* the interpreter's frame objects under the GIL (the same
contract ``py-spy``-style wall profilers rely on for in-process
sampling via :func:`sys._current_frames`).  It never touches sim RNG,
sim time or the event queue, so a profiled run's *simulated* results
are byte-identical to an unprofiled one.
"""

from __future__ import annotations

import os
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Default sampling rate for ``--profile`` with no argument.  A prime
#: rate avoids phase-locking with periodic work (sampler ticks, flush
#: cadences) that would bias the histogram.
DEFAULT_HZ = 97.0

#: Stack capture depth cap; deeper frames are folded into a marker.
MAX_FRAMES = 80

#: Layer billed for a stack with no frame in a ``repro`` subpackage.
OUTSIDE = "(outside repro)"

_TRUNCATED = "(truncated)"

#: ``<...>/repro/``: a code file below it, one directory down, is layer code.
_PACKAGE_PREFIX = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ""
)


def layer_of(filename: str) -> Optional[str]:
    """The layer defining code file ``filename``: the ``repro``
    subpackage directory it lies in, or None outside every subpackage
    (``repro/__init__.py``, the stdlib, tests)."""
    if not filename.startswith(_PACKAGE_PREFIX):
        return None
    layer, sep, _rest = filename[len(_PACKAGE_PREFIX):].partition(os.sep)
    return layer if sep else None


def _frame_label(code) -> str:
    return f"{code.co_name} ({os.path.basename(code.co_filename)}:{code.co_firstlineno})"


class SamplingProfiler:
    """Off-thread stack sampler; each sample is billed to one layer.

    Parameters
    ----------
    hz:
        Target sampling rate.  Actual rate is bounded by timer
        resolution and GIL handoff; :attr:`sample_count` and
        :attr:`elapsed_s` record what was achieved.
    """

    def __init__(self, hz: float = DEFAULT_HZ, max_frames: int = MAX_FRAMES) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.hz = float(hz)
        self.max_frames = int(max_frames)
        # (layer, root-first stack tuple) -> number of samples.
        self.samples: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self.sample_count = 0
        self.elapsed_s = 0.0
        self._target_tid: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------------

    def start(self, target_thread_id: Optional[int] = None) -> None:
        """Begin sampling the calling thread (or ``target_thread_id``)."""
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._target_tid = (
            target_thread_id if target_thread_id is not None else threading.get_ident()
        )
        self._stop.clear()
        self._started_at = perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampler thread and freeze :attr:`elapsed_s`."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.elapsed_s = perf_counter() - self._started_at

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling loop (profiler thread) -------------------------------------

    def _loop(self) -> None:
        period = 1.0 / self.hz
        while not self._stop.wait(period):
            self._sample_once()

    def _sample_once(self) -> None:
        frame = sys._current_frames().get(self._target_tid)
        if frame is None:
            return
        layer = None
        stack: List[str] = []
        while frame is not None:
            if len(stack) >= self.max_frames:
                stack.append(_TRUNCATED)
                break
            code = frame.f_code
            if layer is None:
                layer = layer_of(code.co_filename)
            stack.append(_frame_label(code))
            frame = frame.f_back
        stack.reverse()  # root-first
        key = (layer or OUTSIDE, tuple(stack))
        self.samples[key] = self.samples.get(key, 0) + 1
        self.sample_count += 1

    # -- exports (read after stop()) -----------------------------------------

    @property
    def achieved_hz(self) -> float:
        return self.sample_count / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def layer_counts(self) -> Dict[str, int]:
        """Samples per layer, most first (ties by name)."""
        out: Dict[str, int] = {}
        for (layer, _stack), n in self.samples.items():
            out[layer] = out.get(layer, 0) + n
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    def layer_shares(self) -> Dict[str, float]:
        """Share of samples per layer, rounded to 4 places (``cpu_layers``)."""
        return {
            layer: round(n / self.sample_count, 4)
            for layer, n in self.layer_counts().items()
        }

    def format_layers(self) -> str:
        """Aligned plain-text per-layer table for the console."""
        lines = ["== CPU by layer (stack samples) ".ljust(70, "=")]
        lines.append("layer".ljust(24) + "samples".rjust(10) + "share".rjust(8))
        for layer, n in self.layer_counts().items():
            lines.append(
                layer.ljust(24) + f"{n:10d}" + f"{n / self.sample_count:8.1%}"
            )
        lines.append(
            f"{self.sample_count} samples at {self.achieved_hz:.0f} Hz achieved "
            f"(target {self.hz:.0f} Hz)"
        )
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed-stack text: ``layer;frame;... count`` per line."""
        lines = []
        for (layer, stack), n in sorted(self.samples.items()):
            lines.append(";".join((layer,) + stack) + f" {n}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.collapsed())


__all__ = ["DEFAULT_HZ", "MAX_FRAMES", "OUTSIDE", "SamplingProfiler", "layer_of"]
