"""Bounded-memory span streaming: shard flusher + streaming profiler (ISSUE 6).

PRs 1-4 retain every span in ``Telemetry.spans`` until end of run, so a
10^5-10^6-request run (ROADMAP item 1) holds millions of Span objects
and the observability stack becomes the memory knee it was built to
find.  This module replaces end-of-run retention with a **streaming
pipeline**:

* :class:`SpanShardStore` plugs in behind ``Telemetry`` (the harness
  points ``tel.spans`` / ``tel._append_span`` at it) and keeps only a
  bounded working set in memory: a small append buffer, the spans of
  *in-flight* requests, and a head/tail **retention set** — SLO
  violators, the slowest-K requests per phase, and a seeded reservoir
  sample.  Everything else is flushed to rotating JSONL **shard files**
  in batches (fsync-free buffered writes), triggered by the sampler's
  sim-time tick and by buffer overflow.
* Each batch ends with a *watermark* record carrying the smallest
  request-root span id still held in memory.  Because span ids are
  assigned by a monotone counter, append order == id order, and the
  watermark tells any reader exactly which requests are fully on disk.
* :func:`profile_stream` re-runs the critical-path profiler of
  :mod:`repro.obs.analysis` as a **single bounded-memory pass** over the
  shard batches: request groups are blamed as soon as the watermark
  passes them, in exact root-id (= append) order, so the per-phase blame
  vectors — floating-point sums included — are *bit-identical* to the
  in-memory :func:`~repro.obs.analysis.profile_requests` on the same
  run.  The perf-gate chaos scenario pins this equivalence in CI.

Shard file format (``spans-00000.jsonl`` ...): one JSON object per line,

* span records ``{"k":"s","id":...,"n":name,"c":cat,"tr":track,
  "s":start,"e":end,"p":parent_id,"a":args,"r":run_id,"rl":run_label}``
  — a flushed batch's records sorted by id, each request root written in
  the same batch as all of its descendants;
* batch trailers ``{"k":"batch","t":sim_time,"w":watermark}`` — every
  request root with ``id < w`` is fully contained in shards up to and
  including this batch.

Within one batch a parent record always precedes its children (ids are
monotone and groups flush atomically), so readers never need more than
the in-flight window in memory.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import random
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.analysis import (
    OVERHEAD,
    RequestBlame,
    RunProfile,
    _blame_sweep,
    _reconcile,
)
from repro.telemetry.instruments import Span
from repro.obs.spans import CAT_REQUEST, REQUEST_PHASES

#: Pseudo-phase key for the slowest-by-total-latency retention heap.
_TOTAL = "total"

_SHARD_PREFIX = "spans-"
_SHARD_SUFFIX = ".jsonl"


#: Memoized JSON encodings of span strings (names, categories, tracks,
#: run labels) — all drawn from small bounded vocabularies, so the cache
#: stays tiny while skipping the escape scan on every record.  Cleared
#: defensively if something unbounded ever leaks in.
_jstr_memo: Dict[str, str] = {}
_JSTR_MEMO_LIMIT = 4096


def _jstr(s: str) -> str:
    r = _jstr_memo.get(s)
    if r is None:
        if len(_jstr_memo) >= _JSTR_MEMO_LIMIT:
            _jstr_memo.clear()
        r = _jstr_memo[s] = json.dumps(s)
    return r


def _jfloat(v) -> str:
    # json's C encoder formats floats via float.__repr__; calling it
    # directly matches byte-for-byte and also normalizes numpy float64
    # scalars (float subclasses, whose own repr is ``np.float64(...)``).
    return float.__repr__(v) if isinstance(v, float) else repr(v)


def _span_record(sp: Span) -> str:
    # Hand-rolled serialization of the fixed 11-field record.  This was
    # the worst streaming hot spot in the wall-clock zone ledger (a
    # ``json.dumps`` dict encode per span, ~40% of streaming overhead in
    # BENCH_obs_overhead.json); building the line directly is ~3x
    # cheaper.  The output is byte-identical to
    # ``json.dumps({...}, sort_keys=True, separators=(",", ":"),
    # default=str)`` — keys in sorted order, ``repr`` matches the JSON
    # float/int encoder for the finite numbers spans carry — which
    # ``tests/test_perf_profile.py`` pins against the reference encoder.
    end = sp.end
    pid = sp.parent_id
    args = sp.args
    return (
        '{"a":'
        + (
            "null"
            if args is None
            else json.dumps(args, sort_keys=True, separators=(",", ":"), default=str)
        )
        + ',"c":' + _jstr(sp.cat)
        + ',"e":' + (_jfloat(end) if end is not None else "null")
        + ',"id":' + repr(sp.span_id)
        + ',"k":"s","n":' + _jstr(sp.name)
        + ',"p":' + (repr(pid) if pid is not None else "null")
        + ',"r":' + repr(sp.run_id)
        + ',"rl":' + _jstr(sp.run_label)
        + ',"s":' + _jfloat(sp.start)
        + ',"tr":' + _jstr(sp.track)
        + "}"
    )


def _span_from_record(rec: Dict[str, Any]) -> Span:
    sp = Span.__new__(Span)
    sp.span_id = rec["id"]
    sp.name = rec["n"]
    sp.cat = rec["c"]
    sp.track = rec["tr"]
    sp.start = rec["s"]
    sp.end = rec["e"]
    sp.parent_id = rec["p"]
    sp.args = rec["a"]
    sp.run_id = rec["r"]
    sp.run_label = rec["rl"]
    return sp


def shard_files(directory: str) -> List[str]:
    """The shard files of a stream dir, in write order."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return [
        os.path.join(directory, n)
        for n in sorted(names)
        if n.startswith(_SHARD_PREFIX) and n.endswith(_SHARD_SUFFIX)
    ]


def iter_disk_batches(
    directory: str,
) -> Iterator[Tuple[List[Span], float, Optional[float]]]:
    """Yield ``(spans, watermark, sim_time)`` per flushed batch, in order.

    Only one batch's spans are materialised at a time, so a reader's
    memory stays bounded by the flush batch size regardless of run
    length.
    """
    pending: List[Span] = []
    for path in shard_files(directory):
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("k") == "batch":
                    yield pending, rec["w"], rec.get("t")
                    pending = []
                else:
                    pending.append(_span_from_record(rec))
    if pending:  # truncated tail (no trailer): expose it conservatively
        yield pending, -math.inf, None


class _Group:
    """One request root plus its (transitive) descendants."""

    __slots__ = ("root", "spans", "complete", "refs", "permanent")

    def __init__(self, root: Span) -> None:
        self.root = root
        self.spans: List[Span] = []
        self.complete = False
        #: Retention references (heap memberships + reservoir slot).
        self.refs = 0
        #: SLO violators are never evicted.
        self.permanent = False


class SpanShardStore:
    """Bounded in-memory span buffer flushing to JSONL shards.

    Drop-in for the ``Telemetry.spans`` list: supports ``append``,
    ``len()`` (total spans recorded) and iteration (the retained+flushed
    union, shards re-read lazily).  The harness wires it up with::

        store = SpanShardStore(stream_dir)
        tel.spans = store
        tel._append_span = store.append
        tel.stream = store       # sampler flushes it on every tick

    Memory held: at most ``buffer_limit`` unclassified spans, the spans
    of in-flight (unfinished) requests, open engine-side spans, and the
    retention set (``retain_slowest`` groups per phase + ``reservoir``
    sampled groups + every SLO violator).
    """

    def __init__(
        self,
        directory: str,
        buffer_limit: int = 10_000,
        shard_max_records: int = 100_000,
        retain_slowest: int = 8,
        reservoir: int = 32,
        seed: int = 42,
        violation: Optional[Callable[[Span], bool]] = None,
    ) -> None:
        if buffer_limit < 1:
            raise ValueError(f"span buffer limit must be >= 1, got {buffer_limit}")
        if shard_max_records < 1:
            raise ValueError(
                f"shard record limit must be >= 1, got {shard_max_records}"
            )
        if retain_slowest < 0 or reservoir < 0:
            raise ValueError("retention sizes must be >= 0")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.buffer_limit = buffer_limit
        self.shard_max_records = shard_max_records
        self.retain_slowest = retain_slowest
        self.reservoir_size = reservoir
        self.violation = violation
        self._rng = random.Random(seed)

        self._buf: List[Span] = []
        self._groups: Dict[int, _Group] = {}
        self._root_of: Dict[int, int] = {}
        #: Parentless non-request spans (engine kernels/copies, outages)
        #: plus orphan-parented spans, awaiting their finish.
        self._loose: List[Span] = []
        #: Retention: per-phase min-heaps of (blame_seconds, root_id).
        self._heaps: Dict[str, List[Tuple[float, int]]] = {}
        self._reservoir: List[int] = []
        self._completed_seen = 0
        self._evicted: List[int] = []
        #: Snapshot of groups retained in memory at close (inspection).
        self.retained: Dict[int, _Group] = {}

        #: Optional wall-clock zone profiler (ISSUE 9); the harness
        #: points this at the run's ZoneProfiler so flush cost shows up
        #: as the ``telemetry.flush`` zone in the CPU ledger.
        self.perf = None
        self.total_spans = 0
        self.flushed_spans = 0
        self.flushes = 0
        self._max_id = 0
        self._last_t = 0.0
        self._closed = False
        self._shard_index = 0
        self._shard_records = 0
        self._fh = open(self._shard_path(0), "w")

    # -- hot path ------------------------------------------------------------

    def append(self, sp: Span) -> None:
        self.total_spans += 1
        if sp.span_id > self._max_id:
            self._max_id = sp.span_id
        self._buf.append(sp)
        if len(self._buf) >= self.buffer_limit:
            self.flush(sp.start)

    def __len__(self) -> int:
        return self.total_spans

    # -- flushing ------------------------------------------------------------

    def flush(self, now: Optional[float] = None) -> None:
        """Classify the buffer and stream completed work to shards.

        Called on every sampler tick and on buffer overflow.  Request
        groups are flushed *atomically* (root + all descendants in one
        batch) once every span of the group has finished; the retention
        policy may hold a completed group in memory instead, in which
        case it is flushed later, when evicted — the watermark stays
        conservative while it is held.
        """
        if self._closed:
            return
        perf = self.perf
        if perf is not None:
            perf.push("telemetry.flush")
        if now is not None:
            self._last_t = now

        buf = self._buf
        if buf:
            self._buf = []
            groups = self._groups
            root_of = self._root_of
            for sp in buf:
                pid = sp.parent_id
                if pid is None:
                    if sp.cat == CAT_REQUEST:
                        groups[sp.span_id] = _Group(sp)
                        root_of[sp.span_id] = sp.span_id
                    else:
                        self._loose.append(sp)
                else:
                    rid = root_of.get(pid)
                    if rid is not None:
                        groups[rid].spans.append(sp)
                        root_of[sp.span_id] = rid
                    else:
                        self._loose.append(sp)

        flush_groups: List[int] = []
        for rid, g in self._groups.items():
            if g.complete or not g.root.finished:
                continue
            if all(sp.finished for sp in g.spans):
                g.complete = True
                self._completed_seen += 1
                if not self._retain(rid, g):
                    flush_groups.append(rid)
        if self._evicted:
            flush_groups.extend(self._evicted)
            self._evicted = []

        still_open: List[Span] = []
        flush_loose: List[Span] = []
        for sp in self._loose:
            (flush_loose if sp.finished else still_open).append(sp)
        self._loose = still_open

        if flush_groups or flush_loose:
            self._write_batch(flush_groups, flush_loose)
        if perf is not None:
            perf.pop()

    def close(self, now: Optional[float] = None) -> None:
        """Final flush: stream every completed group (retained included)
        to shards so the files are a complete record, keep the retained
        set available in memory, and close the shard file."""
        if self._closed:
            return
        self.flush(now)
        final = [rid for rid, g in self._groups.items() if g.complete]
        self.retained = {rid: self._groups[rid] for rid in final}
        if final:
            self._write_batch(final, [])
        self._fh.close()
        self._closed = True

    def _retain(self, rid: int, g: _Group) -> bool:
        """Apply the head/tail retention policy to a completed group."""
        root = g.root
        if self.violation is not None and self.violation(root):
            g.permanent = True
            g.refs += 1

        if self.retain_slowest > 0:
            keys: Dict[str, float] = {_TOTAL: root.end - root.start}
            for sp in g.spans:
                if sp.cat in _PHASE_SET and sp.end is not None:
                    keys[sp.cat] = keys.get(sp.cat, 0.0) + (sp.end - sp.start)
            for cat, key in keys.items():
                heap = self._heaps.setdefault(cat, [])
                if len(heap) < self.retain_slowest:
                    heapq.heappush(heap, (key, rid))
                    g.refs += 1
                elif key > heap[0][0]:
                    _k, old = heapq.heapreplace(heap, (key, rid))
                    g.refs += 1
                    self._release(old)

        if self.reservoir_size > 0:
            if len(self._reservoir) < self.reservoir_size:
                self._reservoir.append(rid)
                g.refs += 1
            else:
                j = self._rng.randrange(self._completed_seen)
                if j < self.reservoir_size:
                    self._release(self._reservoir[j])
                    self._reservoir[j] = rid
                    g.refs += 1
        return g.refs > 0

    def _release(self, rid: int) -> None:
        g = self._groups.get(rid)
        if g is None:
            return
        g.refs -= 1
        if g.refs <= 0 and not g.permanent:
            self._evicted.append(rid)

    def _write_batch(self, group_ids: List[int], loose: List[Span]) -> None:
        spans: List[Span] = list(loose)
        root_of = self._root_of
        for rid in group_ids:
            g = self._groups.pop(rid)
            root_of.pop(rid, None)
            spans.append(g.root)
            for sp in g.spans:
                root_of.pop(sp.span_id, None)
                spans.append(sp)
        spans.sort(key=lambda s: s.span_id)

        pending = [g.root.span_id for g in self._groups.values()]
        watermark = min(pending) if pending else self._max_id + 1

        # One buffered write per batch, not two per record: each text-mode
        # ``write`` pays a utf-8 encode plus buffer bookkeeping, and the
        # sampler-tick flush cadence makes batches small and frequent.
        lines = [_span_record(sp) for sp in spans]
        lines.append(
            json.dumps(
                {"k": "batch", "t": self._last_t, "w": watermark},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        lines.append("")
        fh = self._fh
        fh.write("\n".join(lines))
        self.flushed_spans += len(spans)
        self.flushes += 1
        self._shard_records += len(spans) + 1
        if self._shard_records >= self.shard_max_records:
            fh.close()
            self._shard_index += 1
            self._shard_records = 0
            self._fh = open(self._shard_path(self._shard_index), "w")

    def _shard_path(self, index: int) -> str:
        return os.path.join(
            self.directory, f"{_SHARD_PREFIX}{index:05d}{_SHARD_SUFFIX}"
        )

    # -- read side -----------------------------------------------------------

    def iter_batches(self) -> Iterator[Tuple[List[Span], float, Optional[float]]]:
        """Every flushed batch from disk, then the in-memory remainder
        (unclassified buffer, in-flight groups, open loose spans) as one
        final batch with an infinite watermark."""
        if not self._closed:
            self._fh.flush()
        yield from iter_disk_batches(self.directory)
        leftovers: List[Span] = list(self._buf) + list(self._loose)
        for g in self._groups.values():
            leftovers.append(g.root)
            leftovers.extend(g.spans)
        leftovers.sort(key=lambda s: s.span_id)
        yield leftovers, math.inf, None

    def __iter__(self) -> Iterator[Span]:
        """The flushed+retained union — every span ever recorded."""
        for spans, _w, _t in self.iter_batches():
            yield from spans

    def retained_spans(self) -> List[Span]:
        """Spans of the groups held in memory by the retention policy."""
        out: List[Span] = []
        groups = self.retained if self._closed else {
            rid: g for rid, g in self._groups.items() if g.complete
        }
        for rid in sorted(groups):
            g = groups[rid]
            out.append(g.root)
            out.extend(g.spans)
        return out

    def stats(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "shards": self._shard_index + 1,
            "spans_total": self.total_spans,
            "spans_flushed": self.flushed_spans,
            "flushes": self.flushes,
            "retained_groups": len(self.retained) if self._closed else sum(
                1 for g in self._groups.values() if g.complete
            ),
            "in_flight_groups": sum(
                1 for g in self._groups.values() if not g.complete
            ),
            "open_loose_spans": len(self._loose),
            "buffered_spans": len(self._buf),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SpanShardStore {self.directory} total={self.total_spans} "
            f"flushed={self.flushed_spans}>"
        )


def attach_store(
    telemetry,
    directory: str,
    buffer_limit: int = 10_000,
    violation: Optional[Callable[[Span], bool]] = None,
) -> SpanShardStore:
    """Wire a registry for streaming mode; returns the new shard store.

    The canonical ``--emit shards`` hookup, previously copy-pasted by the
    harness and every benchmark: spans shard to ``directory``, the
    sampler tick flushes the store, and quantile sketches replace exact
    histograms so instrument memory stays bounded.  If the registry
    already carries a wall-clock :class:`~repro.telemetry.perf.ZoneProfiler`
    (``telemetry.perf``), flush cost is charged to its
    ``telemetry.flush`` zone.
    """
    from repro.telemetry.sketch import SketchHistogram

    store = SpanShardStore(directory, buffer_limit=buffer_limit, violation=violation)
    telemetry.spans = store
    telemetry._append_span = store.append
    telemetry.stream = store
    telemetry.histogram_cls = SketchHistogram
    perf = getattr(telemetry, "perf", None)
    if perf is not None:
        store.perf = perf
    return store


_PHASE_SET = frozenset(REQUEST_PHASES)


def slo_violation_predicate(targets) -> Callable[[Span], bool]:
    """Retention predicate from SLO targets: keep a request's spans in
    memory when its completion time broke a matching latency bound."""
    latency = [
        (t.app, t.latency_s) for t in targets if t.latency_s is not None
    ]

    def violated(root: Span) -> bool:
        if root.end is None:
            return False
        completion = root.end - root.start
        app = (root.args or {}).get("app")
        return any(
            completion > bound and (tapp == "*" or tapp == app)
            for tapp, bound in latency
        )

    return violated


# ---------------------------------------------------------------------------
# Streaming critical-path profiler
# ---------------------------------------------------------------------------


class _EmptyAttribution:
    def rows(self):
        return []


class _NoTelemetry:
    attribution = _EmptyAttribution()


class StreamProfiler:
    """One bounded-memory pass of the critical-path profiler.

    Feed it batches in shard order; request groups are finalised the
    moment the watermark passes their root id, which is exactly the
    append order the in-memory profiler uses — so every floating-point
    aggregation happens in the same order and the resulting
    :class:`~repro.obs.analysis.RunProfile` is bit-identical.
    """

    def __init__(self) -> None:
        self._roots: Dict[int, Span] = {}
        self._kids: Dict[int, List[Span]] = {}
        self._root_of: Dict[int, int] = {}
        #: Children seen before any record of their parent (parent id ->
        #: waiting spans).  Resolved when the parent arrives; leftovers
        #: at the end are the profiler's orphans.
        self._unresolved: Dict[int, List[Span]] = {}
        self._done: List[int] = []

        self.requests: List[RequestBlame] = []
        self.by_phase: Dict[str, float] = {}
        self.by_gpu: Dict[int, Dict[str, float]] = {}
        self.by_tenant: Dict[str, Dict[str, float]] = {}
        self.by_app: Dict[str, Dict[str, float]] = {}
        self.unattributed = 0.0
        self.total = 0.0
        self.orphans = 0

    def feed(self, spans: List[Span], watermark: float) -> None:
        for sp in spans:
            self._add(sp)
        while self._done and self._done[0] < watermark:
            self._finalize(heapq.heappop(self._done))

    def _add(self, sp: Span) -> None:
        sid = sp.span_id
        pid = sp.parent_id
        if pid is None:
            if sp.cat == CAT_REQUEST:
                self._roots[sid] = sp
                self._root_of[sid] = sid
                self._kids[sid] = []
                if sp.finished:
                    heapq.heappush(self._done, sid)
                for ch in self._unresolved.pop(sid, ()):
                    self._attach(ch, sid)
            else:
                # Loose span (engine kernel/copy, outage marker): not on
                # any request's critical path.  Anything that was waiting
                # for it is a child of a non-request span — recorded, but
                # outside every blame tree, exactly like in-memory.
                self._unresolved.pop(sid, None)
            return
        rid = self._root_of.get(pid)
        if rid is not None:
            self._attach(sp, rid)
        else:
            self._unresolved.setdefault(pid, []).append(sp)

    def _attach(self, sp: Span, rid: int) -> None:
        self._root_of[sp.span_id] = rid
        self._kids[rid].append(sp)
        for ch in self._unresolved.pop(sp.span_id, ()):
            self._attach(ch, rid)

    def _finalize(self, rid: int) -> None:
        root = self._roots.pop(rid)
        children = self._kids.pop(rid)
        del self._root_of[rid]
        for ch in children:
            self._root_of.pop(ch.span_id, None)
        phases, unatt = _blame_sweep(root.start, root.end, children)
        args = root.args or {}
        blame = RequestBlame(
            rid=int(args.get("rid", -1)),
            app=str(args.get("app", "?")),
            tenant=str(args.get("tenant", "?")),
            gid=int(args.get("gid", -1)),
            run_label=root.run_label,
            start=root.start,
            end=root.end,
            phases=phases,
            unattributed_s=unatt,
        )
        self.requests.append(blame)
        for cat, v in phases.items():
            self.by_phase[cat] = self.by_phase.get(cat, 0.0) + v
        self.unattributed += unatt
        self.total += blame.total_s
        self._accumulate(self.by_gpu.setdefault(blame.gid, {}), blame)
        self._accumulate(self.by_tenant.setdefault(blame.tenant, {}), blame)
        self._accumulate(self.by_app.setdefault(blame.app, {}), blame)

    @staticmethod
    def _accumulate(dst: Dict[str, float], blame: RequestBlame) -> None:
        for cat, v in blame.phases.items():
            dst[cat] = dst.get(cat, 0.0) + v
        dst[OVERHEAD] = dst.get(OVERHEAD, 0.0) + blame.unattributed_s

    def finish(self, telemetry=None) -> RunProfile:
        self.feed([], math.inf)
        self.orphans += sum(
            1
            for waiting in self._unresolved.values()
            for sp in waiting
            if sp.finished
        )
        tel = telemetry if telemetry is not None else _NoTelemetry()
        return RunProfile(
            requests=self.requests,
            by_phase=self.by_phase,
            by_gpu=self.by_gpu,
            by_tenant=self.by_tenant,
            by_app=self.by_app,
            unattributed_s=self.unattributed,
            total_s=self.total,
            orphan_spans=self.orphans,
            reconciliation=_reconcile(tel, self.by_phase),
        )


def profile_stream(telemetry) -> RunProfile:
    """Critical-path profile of a registry backed by a shard store."""
    prof = StreamProfiler()
    for spans, watermark, _t in telemetry.spans.iter_batches():
        prof.feed(spans, watermark)
    return prof.finish(telemetry)


def profile_shard_dir(directory: str) -> RunProfile:
    """Offline: profile a shard directory directly from its shard files
    (no registry needed — engine reconciliation reads as zero)."""
    prof = StreamProfiler()
    for spans, watermark, _t in iter_disk_batches(directory):
        prof.feed(spans, watermark)
    return prof.finish(None)


__all__ = [
    "SpanShardStore",
    "StreamProfiler",
    "attach_store",
    "iter_disk_batches",
    "profile_shard_dir",
    "profile_stream",
    "shard_files",
    "slo_violation_predicate",
]
