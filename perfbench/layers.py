"""Layer tracing from outside the program: wrap each layer's entry points.

A :class:`LayerTracer` monkeypatches the public entry points of every
simulator layer (named after the ``tools/check_layering.py`` ranks) for
the duration of a ``with`` block and restores them afterwards.  Each
wrapper counts its calls; with ``profile=True`` it also opens a zone of
a standalone :class:`repro.telemetry.perf.ZoneProfiler`, so nested
self-time is split between layers.  The registry's own ``tel.perf`` hook
stays unset, so the null-telemetry path is the one measured.

Generator-returning entry points are timed per resumption, not per call:
the generator is wrapped in :class:`_TimedGen`, whose ``send``/``throw``
open the layer's zone around each step.  Every simulation process whose
body is defined in a ``repro`` package is wrapped the same way at
``Environment.process``, so closures (the runner's traffic and request
processes, session helpers) are billed to the layer that defines them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter
from typing import Dict, List, Optional

#: (layer, module, qualified attribute, call counter or None).  A class
#: attribute is also wrapped on every subclass that overrides it.
ENTRY_POINTS = [
    ("sim", "repro.sim.core", "Environment.step", "sim.events"),
    ("simgpu", "repro.simgpu.engine", "SharedComputeEngine.execute", "simgpu.ops"),
    ("simgpu", "repro.simgpu.engine", "CopyEngine.execute", "simgpu.ops"),
    ("simgpu", "repro.simgpu.engine", "SharedComputeEngine._control_loop", None),
    ("simgpu", "repro.simgpu.engine", "CopyEngine._run", None),
    *(
        ("cuda", "repro.cuda.runtime", f"CudaThread.{api}", "cuda.calls")
        for api in (
            "get_device_count", "set_device", "get_device_properties",
            "malloc", "free", "memcpy", "memcpy_async", "launch_kernel",
            "stream_create", "stream_destroy", "stream_synchronize",
            "device_synchronize", "thread_exit",
        )
    ),
    ("remoting", "repro.remoting.worker", "BackendIssueLoop.post", "remoting.issue_items"),
    ("remoting", "repro.remoting.worker", "BackendIssueLoop._run", None),
    *(
        ("remoting", "repro.remoting.interposer", f"FrontendInterposer.{api}", None)
        for api in ("request", "response", "roundtrip", "marshal", "ship", "stage")
    ),
    ("core", "repro.core.affinity", "GpuAffinityMapper.bind", None),
    ("core", "repro.core.affinity", "GpuAffinityMapper.unbind", None),
    *(
        ("core", "repro.core.gpu_scheduler", f"GpuScheduler.{api}", None)
        for api in ("register", "_register", "unregister", "evict", "permission")
    ),
    *(
        ("core", "repro.core.dispatch", f"DispatchGate.{api}", None)
        for api in ("permission", "wake", "sleep", "set_awake_exactly")
    ),
    ("core", "repro.core.policies.device", "DevicePolicy.dispatcher", None),
    *(
        ("core", "repro.core.translation", f"{cls}.run", None)
        for cls in (
            "PageableCopy", "StreamPageableCopy", "StagedAsyncCopy",
            "NativeLaunch", "StreamLaunch", "ContextSync", "StreamSync",
            "PackedContextSync", "QueuedStreamSync",
        )
    ),
    *(
        ("core", "repro.core.sessions", f"ManagedSession.{api}", None)
        for api in (
            "bind", "finish", "abort", "malloc", "free", "memcpy", "launch",
            "synchronize",
        )
    ),
    ("traffic", "repro.traffic.generate", "TrafficGenerator.sessions", None),
    ("telemetry", "repro.telemetry.timeseries", "Sampler._loop", None),
    ("telemetry", "repro.telemetry.instruments", "Telemetry.start_span", None),
    ("telemetry", "repro.telemetry.instruments", "Span.finish", None),
    ("obs", "repro.obs.stream", "SpanShardStore.flush", None),
    ("obs", "repro.obs.stream", "SpanShardStore.close", None),
    ("apps", "repro.apps.models", "run_request", None),
    ("apps", "repro.harness.runner", "run_request", None),
]

#: The ``repro`` packages a process body can be billed to (lint layers).
LAYERS = (
    "telemetry", "sim", "simgpu", "cuda", "cluster", "remoting", "apps",
    "workloads", "metrics", "traffic", "core", "obs", "faults", "harness",
)

#: ``TrafficGenerator.sessions`` is a plain method returning a generator.
_RETURNS_ITERATOR = {"TrafficGenerator.sessions"}


class _TimedGen:
    """A generator proxy that opens ``zone`` around every resumption."""

    __slots__ = ("_gen", "_zone", "_perf")

    def __init__(self, gen, zone: str, perf) -> None:
        self._gen = gen
        self._zone = zone
        self._perf = perf

    @property
    def __name__(self) -> str:
        return getattr(self._gen, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        self._perf.push(self._zone)
        try:
            return next(self._gen)
        finally:
            self._perf.pop()

    def send(self, value):
        self._perf.push(self._zone)
        try:
            return self._gen.send(value)
        finally:
            self._perf.pop()

    def throw(self, *args):
        self._perf.push(self._zone)
        try:
            return self._gen.throw(*args)
        finally:
            self._perf.pop()

    def close(self):
        self._perf.push(self._zone)
        try:
            return self._gen.close()
        finally:
            self._perf.pop()


def _layer_of_file(filename: str) -> Optional[str]:
    """The layer whose package defines ``filename`` (None outside repro)."""
    parts = os.path.normpath(filename).split(os.sep)
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and parts[i + 1] in LAYERS:
            return parts[i + 1]
    return None


class LayerTracer:
    """Count (and optionally time) calls into each layer while installed."""

    def __init__(self, profile: bool = False) -> None:
        from repro.telemetry.perf import ZoneProfiler

        self.perf = ZoneProfiler() if profile else None
        self.counts: Counter = Counter()
        #: Every ``DispatchGate`` built while installed (signal counts).
        self.gates: List[object] = []
        self._saved: List[tuple] = []
        self._file_layer: Dict[str, Optional[str]] = {}

    # -- results -------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer zone (empty without ``profile``)."""
        if self.perf is None:
            return {}
        return {name: st.self_s for name, st in self.perf.zones.items()}

    def dispatch_signals(self) -> int:
        return sum(g.signals for g in self.gates)

    # -- install / restore -----------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for layer, module, attr, counter in ENTRY_POINTS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, name = attr.split(".")
                for cls in _with_overriding_subclasses(getattr(owner, cls_name), name):
                    self._patch(cls, name, layer, counter, attr in _RETURNS_ITERATOR)
            else:
                self._patch(owner, attr, layer, counter, False)
        self._patch_gate_init()
        if self.perf is not None:
            self._patch_process_factory()
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _replace(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _patch(self, owner, name: str, layer: str, counter, returns_iter: bool) -> None:
        fn = vars(owner)[name]
        if not inspect.isfunction(fn):
            raise TypeError(f"{owner!r}.{name} is not a plain function")
        counts, perf = self.counts, self.perf
        if perf is None:
            if counter is None:
                return

            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

        elif inspect.isgeneratorfunction(fn) or returns_iter:

            def wrapper(*args, **kwargs):
                if counter is not None:
                    counts[counter] += 1
                return _TimedGen(fn(*args, **kwargs), layer, perf)

        else:
            push, pop = perf.push, perf.pop

            def wrapper(*args, **kwargs):
                if counter is not None:
                    counts[counter] += 1
                push(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop()

        self._replace(owner, name, functools.wraps(fn)(wrapper))

    def _patch_gate_init(self) -> None:
        from repro.core.dispatch import DispatchGate

        original = vars(DispatchGate)["__init__"]
        gates = self.gates

        def __init__(gate, *args, **kwargs):
            original(gate, *args, **kwargs)
            gates.append(gate)

        self._replace(DispatchGate, "__init__", functools.wraps(original)(__init__))

    def _patch_process_factory(self) -> None:
        """Bill every process body defined in a repro package to its layer."""
        from repro.sim.core import Environment

        original = vars(Environment)["process"]
        perf, file_layer = self.perf, self._file_layer

        def process(env, generator, name=None):
            code = getattr(generator, "gi_code", None)
            if code is not None:
                filename = code.co_filename
                layer = file_layer.get(filename, "")
                if layer == "":
                    layer = file_layer[filename] = _layer_of_file(filename)
                if layer is not None:
                    generator = _TimedGen(generator, layer, perf)
            return original(env, generator, name=name)

        self._replace(Environment, "process", functools.wraps(original)(process))


def _with_overriding_subclasses(cls, name: str):
    """``cls`` plus every (transitive) subclass defining ``name`` itself."""
    seen, out, todo = set(), [], [cls]
    while todo:
        c = todo.pop()
        if c in seen:
            continue
        seen.add(c)
        if name in vars(c):
            out.append(c)
        todo.extend(c.__subclasses__())
    return out
