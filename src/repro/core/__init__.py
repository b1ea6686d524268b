"""The Strings scheduler core (the paper's contribution).

Public surface:

* :class:`~repro.core.systems.StringsSystem` / ``Design2System`` /
  ``RainSystem`` / ``CudaRuntimeSystem`` — the runtime stacks under
  evaluation, one class per backend design;
* :class:`~repro.core.sessions.ManagedSession` — the one scheduled
  session, wired by the system that owns it (``DirectSession`` is the
  bare runtime's);
* :mod:`repro.core.policies` — every scheduling policy of Section IV;
* :class:`~repro.core.gpool.GPool` — gPool/gMap/DST aggregation;
* :class:`~repro.core.affinity.GpuAffinityMapper` — the workload balancer;
* :class:`~repro.core.gpu_scheduler.GpuScheduler` — the per-device layer;
* :class:`~repro.core.packer.ContextPacker` — context packing (SC/AST/
  SST/MOT + PMT);
* :class:`~repro.core.translation.TranslationStack` — the composable
  call translators the packer's SC/AST/SST/MOT are built from;
* :class:`~repro.core.config.SchedulerConfig` — tunables.
"""

from repro.core.affinity import Binding, GpuAffinityMapper
from repro.core.config import DEFAULT_CONFIG, SchedulerConfig
from repro.core.dispatch import DispatchGate
from repro.core.feedback import AppProfile, SchedulerFeedbackTable
from repro.core.gpool import DeviceStatus, DeviceStatusTable, GMap, GMapEntry, GPool
from repro.core.gpu_scheduler import GpuScheduler
from repro.core.packer import ContextPacker, PackedApp, PinnedMemoryTable
from repro.core.rcb import GpuPhase, RcbEntry, RequestControlBlock
from repro.core.sessions import DirectSession, ManagedSession
from repro.core.systems import (
    CudaRuntimeSystem,
    Design2System,
    RainSystem,
    StringsSystem,
)
from repro.core.translation import (
    TranslationStack,
    native_stack,
    packed_stack,
    shared_thread_stack,
)

__all__ = [
    "AppProfile",
    "Binding",
    "ContextPacker",
    "CudaRuntimeSystem",
    "DEFAULT_CONFIG",
    "Design2System",
    "DeviceStatus",
    "DeviceStatusTable",
    "DispatchGate",
    "DirectSession",
    "GMap",
    "GMapEntry",
    "GPool",
    "GpuAffinityMapper",
    "GpuPhase",
    "GpuScheduler",
    "ManagedSession",
    "PackedApp",
    "PinnedMemoryTable",
    "RainSystem",
    "RcbEntry",
    "RequestControlBlock",
    "SchedulerConfig",
    "SchedulerFeedbackTable",
    "StringsSystem",
    "TranslationStack",
    "native_stack",
    "packed_stack",
    "shared_thread_stack",
]
