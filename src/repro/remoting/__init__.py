"""GPU remoting: the frontend→backend request pipeline's middle layers.

Strings (like GViM/vCUDA/rCUDA/Pegasus before it) splits every application
into a frontend — an interposer library that intercepts CUDA runtime calls
— and a per-node backend daemon that executes them on real GPUs (paper
Fig. 3).  This package provides the pipeline's shared machinery
(DESIGN.md §12):

* :class:`~repro.remoting.interposer.FrontendInterposer` — layer 1: the
  call-capture side and the session's channel to the backend; prices
  marshalling/hops/shipping/staging with the
  :class:`~repro.remoting.rpc.RpcCostModel` over the interconnect
  (shared-memory locally, GigE remotely; fault-aware through the network
  object);
* :class:`~repro.remoting.worker.BackendIssueLoop` — layer 2: the one
  FIFO call-issue loop every backend design shares; the designs differ
  only in who shares a loop instance;
* :class:`~repro.remoting.backend.BackendDaemon` — the per-node daemon,
  with the paper's three frontend→backend mapping designs (Fig. 5):
  Design I (process per app — Rain), Design II (single master thread per
  device, :class:`~repro.remoting.backend.DesignIIMaster`), Design III
  (thread per app inside a per-device process — Strings);
* :class:`~repro.remoting.session.GpuSession` — the abstract app-facing
  handle; :mod:`repro.core.sessions` implements it, and each backend
  design is one system class in :mod:`repro.core.systems`.
"""

from repro.remoting.rpc import RpcCostModel
from repro.remoting.interposer import FrontendInterposer
from repro.remoting.worker import BackendIssueLoop, IssueItem
from repro.remoting.backend import BackendDaemon, DesignIIMaster
from repro.remoting.session import GpuSession

__all__ = [
    "BackendDaemon",
    "BackendIssueLoop",
    "DesignIIMaster",
    "FrontendInterposer",
    "GpuSession",
    "IssueItem",
    "RpcCostModel",
]
