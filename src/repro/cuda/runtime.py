"""The simulated CUDA runtime: host processes and per-thread API handles.

Call/return discipline
----------------------
Every potentially-waiting call returns a :class:`repro.sim.Event`; a caller
honouring CUDA's *synchronous* semantics must ``yield`` it, while code that
has been made asynchronous (e.g. by Strings' Memory Operation Translator)
may continue and synchronize later.  Purely host-side calls return plain
values.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from repro.sim import Environment, Event
from repro.simgpu import (
    CopyKind,
    CopyOp,
    GpuContext,
    GpuDevice,
    GpuOutOfMemoryError,
    GpuStream,
    KernelOp,
)
from repro.cuda.errors import CudaError, CudaErrorCode

_proc_ids = itertools.count(1)
_thread_ids = itertools.count(1)


class HostProcess:
    """A host OS process: the unit of GPU-context ownership.

    All :class:`CudaThread` handles of one process share its per-device
    contexts (CUDA >= 4.0 semantics) — the property Design III exploits by
    running one backend process per GPU with one thread per tenant.
    """

    def __init__(self, env: Environment, devices: Sequence[GpuDevice], name: str = "") -> None:
        if not devices:
            raise CudaError(CudaErrorCode.NO_DEVICE, "no GPUs visible to process")
        self.env = env
        self.devices = list(devices)
        self.pid = next(_proc_ids)
        self.name = name or f"proc{self.pid}"
        #: device index -> context (created lazily).
        self._contexts: Dict[int, GpuContext] = {}
        self.threads: List["CudaThread"] = []

    def context_for(self, device_index: int) -> GpuContext:
        """The process's context on ``device_index``, created on first use."""
        ctx = self._contexts.get(device_index)
        if ctx is None or ctx.destroyed:
            ctx = self.devices[device_index].create_context(owner=self.name)
            self._contexts[device_index] = ctx
        return ctx

    def has_context(self, device_index: int) -> bool:
        """True if a live context already exists on ``device_index``."""
        ctx = self._contexts.get(device_index)
        return ctx is not None and not ctx.destroyed

    def spawn_thread(self) -> "CudaThread":
        """Create a new host thread with its own CUDA runtime state."""
        thread = CudaThread(self)
        self.threads.append(thread)
        return thread

    def teardown(self) -> None:
        """Destroy every context this process holds (process exit)."""
        for idx, ctx in list(self._contexts.items()):
            if not ctx.destroyed:
                self.devices[idx].destroy_context(ctx)
        self._contexts.clear()

    def __repr__(self) -> str:
        return f"<HostProcess {self.name!r} pid={self.pid}>"


class CudaThread:
    """Per-host-thread CUDA runtime state and API surface.

    Obtained from :meth:`HostProcess.spawn_thread`.  The method names mirror
    the CUDA runtime calls the paper's interposer intercepts.
    """

    def __init__(self, process: HostProcess) -> None:
        self.process = process
        self.env = process.env
        self.tid = next(_thread_ids)
        self._device_index = 0  # CUDA defaults to device 0
        self._exited = False
        #: Streams created by this thread (handles are GpuStream objects).
        self._streams: List[GpuStream] = []
        #: Device pointers allocated by this thread: ptr -> device index.
        self._allocations: Dict[int, int] = {}

    # -- helpers -------------------------------------------------------------

    def _check_live(self) -> None:
        if self._exited:
            raise CudaError(
                CudaErrorCode.INVALID_RESOURCE_HANDLE,
                f"thread {self.tid} called into CUDA after cudaThreadExit",
            )

    @property
    def device_index(self) -> int:
        """The thread's currently selected device."""
        return self._device_index

    @property
    def device(self) -> GpuDevice:
        """The currently selected simulated device."""
        return self.process.devices[self._device_index]

    @property
    def context(self) -> GpuContext:
        """The process context on the current device (creates it lazily)."""
        return self.process.context_for(self._device_index)

    # -- device management ---------------------------------------------------

    def get_device_count(self) -> int:
        """cudaGetDeviceCount."""
        return len(self.process.devices)

    def set_device(self, device_index: int) -> None:
        """cudaSetDevice — the call the Strings interposer overrides."""
        self._check_live()
        if not 0 <= device_index < len(self.process.devices):
            raise CudaError(
                CudaErrorCode.INVALID_DEVICE,
                f"device {device_index} out of range "
                f"(0..{len(self.process.devices) - 1})",
            )
        self._device_index = device_index

    def get_device_properties(self, device_index: Optional[int] = None):
        """cudaGetDeviceProperties — returns the :class:`DeviceSpec`."""
        idx = self._device_index if device_index is None else device_index
        if not 0 <= idx < len(self.process.devices):
            raise CudaError(CudaErrorCode.INVALID_DEVICE, f"device {idx}")
        return self.process.devices[idx].spec

    # -- memory -----------------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        """cudaMalloc; returns a device pointer."""
        self._check_live()
        try:
            ptr = self.device.malloc(self.context, nbytes)
        except GpuOutOfMemoryError as exc:
            raise CudaError(CudaErrorCode.MEMORY_ALLOCATION, str(exc)) from exc
        except ValueError as exc:
            raise CudaError(CudaErrorCode.INVALID_VALUE, str(exc)) from exc
        self._allocations[ptr] = self._device_index
        return ptr

    def free(self, ptr: int) -> None:
        """cudaFree."""
        self._check_live()
        idx = self._allocations.pop(ptr, None)
        if idx is None:
            raise CudaError(
                CudaErrorCode.INVALID_DEVICE_POINTER, f"pointer {ptr:#x}"
            )
        device = self.process.devices[idx]
        device.free(self.process.context_for(idx), ptr)

    # -- transfers ----------------------------------------------------------------

    def memcpy(self, nbytes: int, kind: CopyKind, tag: str = "") -> Event:
        """cudaMemcpy (synchronous, pageable host memory).

        Returns the completion event; a faithful caller must ``yield`` it
        (the call blocks until the copy finishes).  Issued on the thread's
        default stream.
        """
        self._check_live()
        op = CopyOp(nbytes=nbytes, kind=kind, pinned=False, tag=tag)
        return self.device.submit(self.context.default_stream, op)

    def memcpy_async(
        self,
        nbytes: int,
        kind: CopyKind,
        stream: Optional[GpuStream] = None,
        pinned: bool = True,
        tag: str = "",
    ) -> Event:
        """cudaMemcpyAsync — requires page-locked host memory to be truly
        asynchronous; the caller may continue immediately."""
        self._check_live()
        target = stream if stream is not None else self.context.default_stream
        if target.destroyed:
            raise CudaError(CudaErrorCode.INVALID_RESOURCE_HANDLE, "stream destroyed")
        op = CopyOp(nbytes=nbytes, kind=kind, pinned=pinned, tag=tag)
        return self.device.submit(target, op)

    # -- kernels --------------------------------------------------------------------

    def launch_kernel(
        self,
        flops: float,
        bytes_accessed: float,
        occupancy: float = 1.0,
        stream: Optional[GpuStream] = None,
        tag: str = "",
    ) -> Event:
        """cudaConfigureCall + cudaLaunch (asynchronous).

        Returns the kernel's completion event; per CUDA semantics the caller
        does *not* wait — it synchronizes later via a stream/device sync or
        a blocking memcpy.
        """
        self._check_live()
        target = stream if stream is not None else self.context.default_stream
        if target.destroyed:
            raise CudaError(CudaErrorCode.INVALID_RESOURCE_HANDLE, "stream destroyed")
        op = KernelOp(
            flops=flops, bytes_accessed=bytes_accessed, occupancy=occupancy, tag=tag
        )
        return self.device.submit(target, op)

    # -- streams ---------------------------------------------------------------------

    def stream_create(self) -> GpuStream:
        """cudaStreamCreate."""
        self._check_live()
        stream = self.context.create_stream()
        self._streams.append(stream)
        return stream

    def stream_destroy(self, stream: GpuStream) -> None:
        """cudaStreamDestroy."""
        self._check_live()
        stream.context.destroy_stream(stream)
        if stream in self._streams:
            self._streams.remove(stream)

    def stream_synchronize(self, stream: GpuStream) -> Event:
        """cudaStreamSynchronize — wait for all work issued to one stream.

        Returns an event that the caller must ``yield``; it triggers
        immediately if the stream is idle.
        """
        self._check_live()
        pending = stream.synchronize_event()
        if pending is None:
            return self.env.timeout(0)
        return pending

    def device_synchronize(self) -> Event:
        """cudaDeviceSynchronize — wait for **all** streams of the process's
        context on the current device.

        Under context packing this includes *other tenants'* streams, which
        is exactly why Strings' Sync Stream Translator rewrites this call.
        """
        self._check_live()
        pending = [
            s.synchronize_event()
            for s in self.context.streams.values()
            if s.synchronize_event() is not None
        ]
        if not pending:
            return self.env.timeout(0)
        return self.env.all_of(pending)

    # -- teardown -----------------------------------------------------------------------

    def thread_exit(self) -> None:
        """cudaThreadExit — release this thread's streams and allocations.

        (In real CUDA >= 4.0 this is deprecated in favour of implicit
        cleanup; the paper's runtime uses it as the unbind signal.)
        """
        if self._exited:
            return
        for stream in list(self._streams):
            stream.context.destroy_stream(stream)
        self._streams.clear()
        for ptr, idx in list(self._allocations.items()):
            device = self.process.devices[idx]
            try:
                device.free(self.process.context_for(idx), ptr)
            except ValueError:  # pragma: no cover - already gone with context
                pass
        self._allocations.clear()
        self._exited = True
        # Exited threads hold no runtime state and no caller enumerates
        # them; dropping the back-reference keeps a long-lived process
        # from accumulating one record per short-lived session.
        try:
            self.process.threads.remove(self)
        except ValueError:  # pragma: no cover - already pruned
            pass

    @property
    def exited(self) -> bool:
        """True after :meth:`thread_exit`."""
        return self._exited

    def __repr__(self) -> str:
        return f"<CudaThread tid={self.tid} of {self.process.name!r}>"


__all__ = ["CudaThread", "HostProcess"]
