"""Application phase-machine model and the generic request driver.

An :class:`AppSpec` describes one program as iterations of::

    CPU compute -> cudaMemcpy(H2D) -> cudaLaunch -> cudaDeviceSynchronize
               -> cudaMemcpy(D2H)

which is the canonical offload loop of the CUDA SDK / Rodinia programs
the paper uses.  :func:`run_request` executes one *request* (one complete
program run, as triggered by an end-user request in the paper's service
model) against any :class:`~repro.remoting.session.GpuSession` — the
identical call stream runs under the bare CUDA runtime, Rain and Strings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.sim import Environment
from repro.simgpu import CopyKind
from repro.simgpu.specs import DeviceSpec, TESLA_C2050
from repro.remoting.session import GpuSession

_req_ids = itertools.count(1)

#: Per-app span name/track strings, built once instead of per request
#: (the f-strings showed up in the full-registry overhead bench).
_span_names: dict = {}

#: Per-app completion histogram, cached as ``(telemetry, hist)`` so the
#: registry lookup happens once per (run, app) instead of per request.
_completion_hists: dict = {}


def _names_for(short: str):
    names = _span_names.get(short)
    if names is None:
        names = _span_names[short] = (
            f"request:{short}", f"app:{short}", f"bind:{short}", f"cpu:{short}",
        )
    return names


@dataclass(frozen=True)
class AppSpec:
    """Calibrated model of one benchmark program.

    Per-iteration quantities; a request executes ``iterations`` of them
    after ``cpu_pre_s`` of host-side setup.

    Attributes
    ----------
    name / short / group:
        Identity; ``group`` is "A" (long-running) or "B" (short-running).
    iterations:
        Offload loop count per request.
    cpu_pre_s / cpu_iter_s:
        Host compute before the loop / per iteration.
    h2d_bytes / d2h_bytes:
        Transfer sizes per iteration.
    kernel_flops / kernel_bytes_gb / occupancy:
        Kernel footprint per iteration (GFLOP, GB of device-memory
        traffic, SM occupancy fraction).
    buffer_bytes:
        Device memory held for the request's lifetime.
    """

    name: str
    short: str
    group: str
    iterations: int
    cpu_pre_s: float
    cpu_iter_s: float
    h2d_bytes: int
    d2h_bytes: int
    kernel_flops: float
    kernel_bytes_gb: float
    occupancy: float
    buffer_bytes: int
    input_label: str = ""

    def __post_init__(self) -> None:
        if self.group not in ("A", "B"):
            raise ValueError(f"group must be 'A' or 'B', got {self.group!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    # -- analytic solo estimates (used for calibration & arrival rates) ----

    def kernel_solo_s(self, spec: DeviceSpec = TESLA_C2050) -> float:
        """Roofline solo time of one kernel on ``spec``."""
        return max(
            self.kernel_flops / spec.peak_gflops,
            self.kernel_bytes_gb / spec.mem_bandwidth_gbps,
        )

    def transfer_solo_s(self, spec: DeviceSpec = TESLA_C2050, pinned: bool = False) -> float:
        """Solo time of one iteration's transfers on ``spec``."""
        rate = (spec.pcie_gbps_pinned if pinned else spec.pcie_gbps_pageable) * 1e9
        return (self.h2d_bytes + self.d2h_bytes) / rate

    def solo_runtime_s(self, spec: DeviceSpec = TESLA_C2050, pinned: bool = False) -> float:
        """Analytic uncontended runtime of one request on ``spec``
        (baseline CUDA semantics: every phase serial)."""
        per_iter = (
            self.cpu_iter_s
            + self.kernel_solo_s(spec)
            + self.transfer_solo_s(spec, pinned)
        )
        return self.cpu_pre_s + self.iterations * per_iter

    def gpu_fraction(self, spec: DeviceSpec = TESLA_C2050) -> float:
        """Fraction of solo runtime spent on the GPU (kernels+transfers)."""
        busy = self.iterations * (self.kernel_solo_s(spec) + self.transfer_solo_s(spec))
        return busy / self.solo_runtime_s(spec)

    def transfer_fraction(self, spec: DeviceSpec = TESLA_C2050) -> float:
        """Share of GPU-side time spent in data transfer."""
        k = self.kernel_solo_s(spec)
        t = self.transfer_solo_s(spec)
        return t / (k + t) if (k + t) > 0 else 0.0

    def memory_bandwidth_gbps(self, spec: DeviceSpec = TESLA_C2050) -> float:
        """Average device-memory bandwidth of the kernels on ``spec``."""
        k = self.kernel_solo_s(spec)
        return self.kernel_bytes_gb / k if k > 0 else 0.0

    def memory_boundedness(self, spec: DeviceSpec = TESLA_C2050) -> float:
        """Fraction of kernel time bound on memory bandwidth."""
        k = self.kernel_solo_s(spec)
        if k <= 0:
            return 0.0
        return min(1.0, (self.kernel_bytes_gb / spec.mem_bandwidth_gbps) / k)


@dataclass
class RequestResult:
    """Timing of one completed request."""

    app: str
    request_id: int
    arrival_s: float
    start_s: float
    finish_s: float

    @property
    def completion_s(self) -> float:
        """Arrival-to-finish time (what the paper's figures average)."""
        return self.finish_s - self.arrival_s

    @property
    def service_s(self) -> float:
        """Start-to-finish time (excludes any admission queueing)."""
        return self.finish_s - self.start_s


def run_request(
    env: Environment,
    session: GpuSession,
    spec: AppSpec,
    arrival_s: Optional[float] = None,
    programmed_device: int = 0,
):
    """Drive one request through a session (a generator).

    Each session call runs inline with ``yield from``, so the request
    takes no process of its own beyond the one driving this generator
    (the runner's ``request_proc``).  Returns a :class:`RequestResult`.
    """
    rid = next(_req_ids)
    arrived = env.now if arrival_s is None else arrival_s
    start = env.now

    tel = env.telemetry
    root = None
    request_name, track, bind_name, cpu_name = _names_for(spec.short)
    if tel.enabled:
        root = tel.start_span(
            request_name,
            cat="request",
            track=track,
            args={"app": spec.short, "rid": rid, "tenant": session.tenant_id},
            start=arrived,
        )
        session.root_span = root

    bound_at = env.now
    yield from session.bind(programmed_device)
    if root is not None:
        tel.start_span(
            bind_name,
            cat="bind",
            track=track,
            parent=root,
            args={"app": spec.short, "rid": rid},
            start=bound_at,
        ).finish(env.now)
    cpu_args = {"app": spec.short, "rid": rid}

    def _cpu_span(started: float) -> None:
        if root is not None and env.now > started:
            tel.start_span(
                cpu_name,
                cat="cpu",
                track=track,
                parent=root,
                args=cpu_args,
                start=started,
            ).finish(env.now)

    ptr = yield from session.malloc(spec.buffer_bytes)
    cpu0 = env.now
    yield env.timeout(spec.cpu_pre_s)
    _cpu_span(cpu0)

    for _ in range(spec.iterations):
        if spec.cpu_iter_s > 0:
            cpu0 = env.now
            yield env.timeout(spec.cpu_iter_s)
            _cpu_span(cpu0)
        yield from session.memcpy(spec.h2d_bytes, CopyKind.H2D)
        yield from session.launch(
            spec.kernel_flops,
            spec.kernel_bytes_gb,
            spec.occupancy,
            tag=spec.short,
        )
        yield from session.synchronize()
        yield from session.memcpy(spec.d2h_bytes, CopyKind.D2H)

    yield from session.free(ptr)
    yield from session.finish()
    if root is not None:
        root.finish(env.now)
        completion = env.now - arrived
        cached = _completion_hists.get(spec.short)
        if cached is None or cached[0] is not tel:
            cached = _completion_hists[spec.short] = (
                tel, tel.histogram("request.completion_s", app=spec.short)
            )
        cached[1].observe(completion)
        binding = getattr(session, "binding", None)
        gid = binding.gid if binding is not None else programmed_device
        if root.args is not None:
            # Binding GID, for the critical-path profiler's per-GPU blame.
            root.args["gid"] = gid
        tel.attribution.record_request(
            session.tenant_id, gid, spec.short, completion, spec.solo_runtime_s()
        )
        if tel.slo is not None:
            tel.slo.observe(env.now, spec.short, session.tenant_id, completion)
    return RequestResult(
        app=spec.short,
        request_id=rid,
        arrival_s=arrived,
        start_s=start,
        finish_s=env.now,
    )


__all__ = ["AppSpec", "RequestResult", "run_request"]
