"""Composable call translators: the TranslationStack (pipeline layer 3).

The paper's Context Packer translations — Stream Creator (SC), Auto
Stream Translator (AST), Sync Stream Translator (SST), Memory Operation
Translator (MOT) — and the native semantics they replace, as pluggable
strategy objects instead of ``if mot_enabled`` branches inside the
session classes.  A :class:`TranslationStack` bundles one strategy per
intercepted call family:

========  =============================================================
slot      strategies
========  =============================================================
copy      :class:`PageableCopy` (native, Design I) ·
          :class:`StreamPageableCopy` (AST only, the MOT-off ablation) ·
          :class:`StagedAsyncCopy` (MOT: pinned staging + async issue)
launch    :class:`NativeLaunch` (default stream) ·
          :class:`StreamLaunch` (AST: the app's own stream)
sync      :class:`ContextSync` (native ``cudaDeviceSynchronize``) ·
          :class:`StreamSync` (SST: the app's stream only) ·
          :class:`PackedContextSync` (SST-off ablation) ·
          :class:`QueuedStreamSync` (Design II: the sync *occupies the
          shared master thread*, stalling other tenants' queued calls)
========  =============================================================

Each strategy's ``run`` is a generator that
:meth:`~repro.core.sessions.ManagedSession.memcpy` / ``launch`` /
``synchronize`` drive inline with ``yield from``; it spends frontend
costs through the session's
:class:`~repro.remoting.interposer.FrontendInterposer` and issues device
work through :meth:`~repro.core.sessions.ManagedSession._post` onto the
session's backend issue loop.  SC itself needs no strategy here: the
per-app stream is created when the Context Packer packs the session at
bind time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simgpu import CopyKind
from repro.core.rcb import GpuPhase


# -- copy strategies ---------------------------------------------------------


class PageableCopy:
    """Native blocking pageable memcpy (Design I / Rain).

    The payload crosses the wire first (H2D) or last (D2H), and the call
    holds the app — and its backend thread — for the full transfer.
    """

    def run(self, sess, nbytes: int, kind: CopyKind):
        yield sess.interposer.request()
        if kind is CopyKind.H2D:
            # Application buffer travels frontend -> backend first.
            yield sess.interposer.ship(nbytes)
        phase = GpuPhase.H2D if kind is CopyKind.H2D else GpuPhase.D2H
        done = sess._post(
            phase,
            lambda: sess.worker.memcpy(nbytes, kind, tag=sess.app_name),
            blocking=True,
        )
        yield done
        if kind is CopyKind.D2H:
            yield sess.interposer.ship(nbytes)
        yield sess.interposer.response()


class StreamPageableCopy:
    """MOT disabled (ablation): blocking pageable memcpy, retargeted (AST)
    onto the app's own stream inside the packed context."""

    def run(self, sess, nbytes: int, kind: CopyKind):
        yield sess.interposer.request()
        if kind is CopyKind.H2D:
            yield sess.interposer.ship(nbytes)
        phase = GpuPhase.H2D if kind is CopyKind.H2D else GpuPhase.D2H
        done = sess._post(
            phase,
            lambda: sess.worker.memcpy_async(
                nbytes,
                kind,
                stream=sess.packed.target_stream(None),
                pinned=False,
                tag=sess.app_name,
            ),
            blocking=True,
        )
        yield done
        if kind is CopyKind.D2H:
            yield sess.interposer.ship(nbytes)
        yield sess.interposer.response()


class StagedAsyncCopy:
    """MOT: sync memcpys become pinned-staged async copies (PMT-tracked).

    H2D returns to the app as soon as the buffer is staged (sync → async
    translation); D2H has output params, so it blocks through device
    completion and the wire back.
    """

    def run(self, sess, nbytes: int, kind: CopyKind):
        if kind is CopyKind.H2D:
            yield from self._h2d(sess, nbytes)
        else:
            yield from self._d2h(sess, nbytes)

    def _h2d(self, sess, nbytes: int):
        # Frontend: marshal + ship data + MOT stages into pinned memory,
        # then the app *continues*.
        yield sess.interposer.request()
        yield sess.interposer.ship(nbytes)
        yield from sess.interposer.stage(nbytes)
        sess._post(
            GpuPhase.H2D,
            lambda: sess.packed.memcpy_async_staged(
                nbytes, CopyKind.H2D, tag=sess.app_name
            ),
            blocking=False,
        )

    def _d2h(self, sess, nbytes: int):
        yield sess.interposer.request()
        done = sess._post(
            GpuPhase.D2H,
            lambda: sess.packed.memcpy_async_staged(
                nbytes, CopyKind.D2H, tag=sess.app_name
            ),
            blocking=True,
        )
        yield done
        yield sess.interposer.ship(nbytes)
        yield sess.interposer.response()


# -- launch strategies -------------------------------------------------------


class NativeLaunch:
    """Default-stream launch in the app's own context (Design I)."""

    def run(self, sess, flops: float, bytes_accessed: float, occupancy: float, tag: str):
        # Launch has no output params: non-blocking RPC, frontend
        # continues after marshalling.
        yield sess.interposer.marshal()
        sess._post(
            GpuPhase.KL,
            lambda: sess.worker.launch_kernel(
                flops, bytes_accessed, occupancy, tag=tag or sess.app_name
            ),
            blocking=False,
        )


class StreamLaunch:
    """AST: default-stream launches retargeted onto the app's stream."""

    def run(self, sess, flops: float, bytes_accessed: float, occupancy: float, tag: str):
        yield sess.interposer.marshal()
        sess._post(
            GpuPhase.KL,
            lambda: sess.worker.launch_kernel(
                flops,
                bytes_accessed,
                occupancy,
                stream=sess.packed.target_stream(None),
                tag=tag or sess.app_name,
            ),
            blocking=False,
        )


# -- sync strategies ---------------------------------------------------------


class ContextSync:
    """Native ``cudaDeviceSynchronize`` forwarded as-is (Design I)."""

    def run(self, sess):
        yield sess.interposer.request()
        done = sess._post(
            GpuPhase.DFL,
            lambda: sess.worker.device_synchronize(),
            blocking=True,
            gated=False,
        )
        yield done
        yield sess.interposer.response()


class StreamSync:
    """SST: device sync narrowed to the app's own stream (Design III).

    Any of the app's ops still parked at the dispatch gate are covered by
    waiting on the last posted op's completion first.
    """

    def run(self, sess):
        yield sess.interposer.request()
        last = sess._last_gpu_op
        if last is not None and not last.processed:
            yield last
        yield sess.packed.synchronize()
        yield sess.interposer.response()


class PackedContextSync:
    """SST disabled (ablation): the raw ``cudaDeviceSynchronize`` waits on
    *every* stream of the packed context — including the other tenants'
    outstanding work."""

    def run(self, sess):
        yield sess.interposer.request()
        last = sess._last_gpu_op
        if last is not None and not last.processed:
            yield last
        yield sess.worker.device_synchronize()
        yield sess.interposer.response()


class QueuedStreamSync:
    """Design II: the stream sync is a *blocking call on the shared master
    thread*.

    FIFO order on the shared loop guarantees the app's earlier calls were
    issued before the sync runs, so waiting the app's own stream is
    enough — but while the master waits it out, every other tenant's
    queued calls stall behind it.  This is Design II's head-of-line
    blocking, made explicit as a sync strategy.
    """

    def run(self, sess):
        yield sess.interposer.request()
        done = sess._post(
            GpuPhase.DFL,
            lambda: sess.packed.synchronize(),
            blocking=True,
            gated=False,
        )
        yield done
        yield sess.interposer.response()


# -- the stack ---------------------------------------------------------------


@dataclass(frozen=True)
class TranslationStack:
    """One strategy per intercepted call family."""

    copy: object
    launch: object
    sync: object


def native_stack() -> TranslationStack:
    """Design I (Rain): no translation — native semantics end to end."""
    return TranslationStack(
        copy=PageableCopy(), launch=NativeLaunch(), sync=ContextSync()
    )


def packed_stack(mot_enabled: bool = True, sst_enabled: bool = True) -> TranslationStack:
    """Design III (Strings): AST always, MOT/SST per the ablation flags."""
    return TranslationStack(
        copy=StagedAsyncCopy() if mot_enabled else StreamPageableCopy(),
        launch=StreamLaunch(),
        sync=StreamSync() if sst_enabled else PackedContextSync(),
    )


def shared_thread_stack(mot_enabled: bool = True) -> TranslationStack:
    """Design II: packed-context translations, but every blocking call —
    the stream sync included — occupies the device's one master thread."""
    return TranslationStack(
        copy=StagedAsyncCopy() if mot_enabled else StreamPageableCopy(),
        launch=StreamLaunch(),
        sync=QueuedStreamSync(),
    )


__all__ = [
    "ContextSync",
    "NativeLaunch",
    "PackedContextSync",
    "PageableCopy",
    "QueuedStreamSync",
    "StagedAsyncCopy",
    "StreamLaunch",
    "StreamPageableCopy",
    "StreamSync",
    "TranslationStack",
    "native_stack",
    "packed_stack",
    "shared_thread_stack",
]
