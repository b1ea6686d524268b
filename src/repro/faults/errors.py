"""Exception taxonomy of the fault-injection subsystem.

These are the *injected* failure causes a session surfaces to the request
driver mid-flight.  The runner's request body re-dispatches around them;
once a request's retry budget is spent it is counted lost (``failed`` in
the run, ``requests_lost`` in the availability summary), not raised.
"""

from __future__ import annotations


class FaultError(RuntimeError):
    """Base class of injected-fault failures delivered to sessions."""


class DeviceLostError(FaultError):
    """The bound GPU was lost (ECC/Xid-style device failure)."""

    def __init__(self, gid: int, message: str = "") -> None:
        super().__init__(message or f"GPU {gid} lost")
        self.gid = gid


class BackendCrashError(FaultError):
    """The per-device backend process died, killing its tenant threads."""

    def __init__(self, gid: int, message: str = "") -> None:
        super().__init__(message or f"backend process of GPU {gid} crashed")
        self.gid = gid


class LinkPartitionError(FaultError):
    """The node hosting the bound GPU became unreachable."""

    def __init__(self, hostname: str, message: str = "") -> None:
        super().__init__(message or f"node {hostname} unreachable")
        self.hostname = hostname


__all__ = [
    "BackendCrashError",
    "DeviceLostError",
    "FaultError",
    "LinkPartitionError",
]
