"""Tunable parameters of the Strings scheduling stack.

Defaults are chosen to sit in the same regime as the paper's testbed
(kernels of milliseconds to tens of milliseconds, requests of seconds):
quanta are larger than a typical kernel launch but much smaller than a
request, and the LAS decay constant is the paper's k = 0.8.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the device-level GPU scheduler and dispatcher.

    Attributes
    ----------
    tfs_epoch_s:
        Length of one TFS allocation round; each tenant is awake for a
        weight-proportional share of it.
    tfs_min_slice_s:
        Smallest slice worth waking a thread for (below this the tenant's
        turn is skipped and its debt carried forward).
    tfs_history_penalty:
        Whether TFS debits slice overshoot in subsequent epochs (the
        paper's history mechanism; ablation switch).
    tfs_idle_grace_s:
        How long a momentarily idle tenant keeps its slice (covers the
        CPU gap between GPU episodes; the real backend thread stays awake
        for its whole slice).  Work conservation still applies: a tenant
        idle beyond the grace hands the remainder onward.
    las_quantum_s:
        LAS scheduling epoch; per the paper it is *larger* than the
        dispatcher sub-quantum so the decayed service reflects long-term
        behaviour.
    las_k:
        Decay constant of eq. 1 (``CGS_n = k GS_n + (1-k) CGS_{n-1}``).
    ps_quantum_s:
        Phase Selection re-evaluation period.
    registration_overhead_s:
        Cost of the 3-way RT-signal registration handshake (two IPC hops +
        signal-handler installation).
    malloc_retry_s:
        Device-memory admission: how often a blocked ``cudaMalloc``
        retries.  The paper assumes request rates never exhaust device
        memory; under heavy queueing our simulated tenants *can* collide,
        so allocation waits for memory like the virtual-memory runtimes
        the paper cites ([16], Gdev) would make it.
    malloc_max_wait_s:
        How long a blocked ``cudaMalloc`` waits before the allocation
        error is surfaced to the application.
    """

    tfs_epoch_s: float = 0.040
    tfs_min_slice_s: float = 0.002
    tfs_history_penalty: bool = True
    tfs_idle_grace_s: float = 0.004
    las_quantum_s: float = 0.020
    las_k: float = 0.8
    ps_quantum_s: float = 0.010
    registration_overhead_s: float = 25e-6
    malloc_retry_s: float = 0.025
    malloc_max_wait_s: float = 1800.0

    def __post_init__(self) -> None:
        if self.malloc_retry_s <= 0:
            raise ValueError(
                f"malloc_retry_s must be > 0, got {self.malloc_retry_s}"
            )
        if self.malloc_max_wait_s < 0:
            raise ValueError(
                f"malloc_max_wait_s must be >= 0, got {self.malloc_max_wait_s}"
            )


DEFAULT_CONFIG = SchedulerConfig()

__all__ = ["DEFAULT_CONFIG", "SchedulerConfig"]
