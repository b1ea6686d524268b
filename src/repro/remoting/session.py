"""The application-facing GPU session abstraction.

An application's GPU component is driven against a :class:`GpuSession` —
the simulation analogue of "the CUDA runtime as seen through whatever
stack is installed".  Each runtime system (bare CUDA, Rain, Strings)
implements this interface in :mod:`repro.core.systems`; the application
model in :mod:`repro.apps` is identical across systems, exactly as the
paper's benchmarks run unmodified under each runtime.

Call semantics (mirroring CUDA):

* ``memcpy`` is synchronous — the call returns once the copy is done;
* ``launch`` is asynchronous under a remoting runtime — the driver
  continues and synchronizes later;
* ``synchronize`` is the app's ``cudaDeviceSynchronize()`` call: what it
  actually waits on is up to the installed runtime (Strings' SST narrows
  it to the app's own stream).
"""

from __future__ import annotations

import abc

from repro.sim import Environment
from repro.simgpu import CopyKind


class GpuSession(abc.ABC):
    """One application's connection to a GPU runtime system.

    Each call below is a generator method the request drives inline
    (``ptr = yield from session.malloc(n)``), so a request is one
    simulation process whatever stack it calls through.
    """

    def __init__(self, env: Environment, app_name: str, tenant_id: str = "t0") -> None:
        self.env = env
        self.app_name = app_name
        self.tenant_id = tenant_id
        #: Root telemetry span of the request driving this session, set by
        #: the request driver when tracing is enabled (else None); session
        #: hooks parent their child spans under it.
        self.root_span = None

    # -- lifecycle ----------------------------------------------------------

    @abc.abstractmethod
    def bind(self, programmed_device: int = 0):
        """Process the app's ``cudaSetDevice(programmed_device)``.

        A scheduling runtime may override the requested device.  Returns
        once the app is bound to a backend worker.
        """

    @abc.abstractmethod
    def finish(self):
        """Process the app's ``cudaThreadExit()`` / exit teardown."""

    # -- memory ----------------------------------------------------------------

    @abc.abstractmethod
    def malloc(self, nbytes: int):
        """``cudaMalloc``; its value is the device pointer."""

    @abc.abstractmethod
    def free(self, ptr: int):
        """``cudaFree``."""

    # -- work ----------------------------------------------------------------------

    @abc.abstractmethod
    def memcpy(self, nbytes: int, kind: CopyKind):
        """Synchronous ``cudaMemcpy`` as written by the application."""

    @abc.abstractmethod
    def launch(
        self,
        flops: float,
        bytes_accessed: float,
        occupancy: float = 1.0,
        tag: str = "",
    ):
        """Kernel launch; returns once the runtime hands control back."""

    @abc.abstractmethod
    def synchronize(self):
        """The application's ``cudaDeviceSynchronize()``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} app={self.app_name!r}>"


__all__ = ["GpuSession"]
