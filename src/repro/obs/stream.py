"""Bounded-memory span streaming: the span shard store (ISSUE 6).

PRs 1-4 retain every span in ``Telemetry.spans`` until end of run, so a
10^5-10^6-request run (ROADMAP item 1) holds millions of Span objects
and the observability stack becomes the memory knee it was built to
find.  This module replaces end-of-run retention with a **streaming
pipeline**:

* :class:`SpanShardStore` plugs in behind ``Telemetry`` (the harness
  points ``tel.spans`` / ``tel._append_span`` at it) and keeps only a
  bounded working set in memory: a small append buffer and the spans of
  *in-flight* requests.  Every finished request is flushed to rotating
  JSONL **shard files** in batches (fsync-free buffered writes),
  triggered by the sampler's sim-time tick and by buffer overflow.
* Each batch ends with a *watermark* record carrying the smallest
  request-root span id still held in memory.  Because span ids are
  assigned by a monotone counter, append order == id order, and the
  watermark tells any reader exactly which requests are fully on disk.
* :func:`~repro.obs.analysis.profile_requests` reads a store's batches
  in a **single bounded-memory pass**: request groups are blamed as soon
  as the watermark passes them, in root-id (= append) order.  It is the
  same profiler, seeing spans in the same order, as for an in-memory
  span list, so streaming never changes a profile.
  :func:`profile_shard_dir` does the same offline, from the shard files
  alone.

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

import json
import math
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.analysis import RunProfile, _profile_batches
from repro.telemetry.instruments import Span
from repro.obs.spans import CAT_REQUEST

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
    # the worst streaming hot spot when profiled (a
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
    length.  Records after the last trailer (a crashed run) come last,
    with watermark ``-inf`` and no sim time.  A crash mid-write can tear
    only the final line of the last shard (shards rotate after whole
    batches); that line is dropped, and any other undecodable line
    raises.
    """
    pending: List[Span] = []
    paths = shard_files(directory)
    for path in paths:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    if path != paths[-1] or raw.endswith("\n"):
                        raise
                    break
                if rec.get("k") == "batch":
                    yield pending, rec["w"], rec.get("t")
                    pending = []
                else:
                    pending.append(_span_from_record(rec))
    if pending:  # truncated tail (no trailer): expose it conservatively
        yield pending, -math.inf, None


class _Group:
    """One request root plus its (transitive) descendants."""

    __slots__ = ("root", "spans")

    def __init__(self, root: Span) -> None:
        self.root = root
        self.spans: List[Span] = []


class SpanShardStore:
    """Bounded in-memory span buffer flushing to JSONL shards.

    Drop-in for the ``Telemetry.spans`` list: supports ``append``,
    ``len()`` (total spans recorded) and iteration (the flushed spans,
    shards re-read lazily, then those still in memory).  The harness
    wires it up with::

        store = SpanShardStore(stream_dir)
        tel.spans = store
        tel._append_span = store.append
        tel.stream = store       # sampler flushes it on every tick

    Memory held: at most ``buffer_limit`` unclassified spans, the spans
    of in-flight (unfinished) requests and open engine-side spans.
    """

    def __init__(
        self,
        directory: str,
        buffer_limit: int = 10_000,
        shard_max_records: int = 100_000,
    ) -> None:
        if buffer_limit < 1:
            raise ValueError(f"span buffer limit must be >= 1, got {buffer_limit}")
        if shard_max_records < 1:
            raise ValueError(
                f"shard record limit must be >= 1, got {shard_max_records}"
            )
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.buffer_limit = buffer_limit
        self.shard_max_records = shard_max_records

        self._buf: List[Span] = []
        self._groups: Dict[int, _Group] = {}
        self._root_of: Dict[int, int] = {}
        #: Parentless non-request spans (engine kernels/copies, outages)
        #: plus orphan-parented spans, awaiting their finish.
        self._loose: List[Span] = []

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
        batch) once every span of the group has finished.
        """
        if self._closed:
            return
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

        flush_groups = [
            rid
            for rid, g in self._groups.items()
            if g.root.finished and all(sp.finished for sp in g.spans)
        ]

        still_open: List[Span] = []
        flush_loose: List[Span] = []
        for sp in self._loose:
            (flush_loose if sp.finished else still_open).append(sp)
        self._loose = still_open

        if flush_groups or flush_loose:
            self._write_batch(flush_groups, flush_loose)

    def close(self, now: Optional[float] = None) -> None:
        """Final flush, so the files are a complete record of every
        finished request; then close the shard file."""
        if self._closed:
            return
        self.flush(now)
        self._fh.close()
        self._closed = True

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
        """Every span ever recorded: the shards, then what is in memory."""
        for spans, _w, _t in self.iter_batches():
            yield from spans

    def stats(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "shards": self._shard_index + 1,
            "spans_total": self.total_spans,
            "spans_flushed": self.flushed_spans,
            "flushes": self.flushes,
            "in_flight_groups": len(self._groups),
            "open_loose_spans": len(self._loose),
            "buffered_spans": len(self._buf),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SpanShardStore {self.directory} total={self.total_spans} "
            f"flushed={self.flushed_spans}>"
        )


def attach_store(
    telemetry, directory: str, buffer_limit: int = 10_000
) -> SpanShardStore:
    """Wire a registry for streaming mode; returns the new shard store.

    The canonical ``--emit shards`` hookup, previously copy-pasted by the
    harness and every benchmark: spans shard to ``directory`` and the
    sampler tick flushes the store.  Only where spans live changes;
    everything the run reports stays the same.
    """
    store = SpanShardStore(directory, buffer_limit=buffer_limit)
    telemetry.spans = store
    telemetry._append_span = store.append
    telemetry.stream = store
    return store


def profile_shard_dir(directory: str) -> RunProfile:
    """Offline: profile a shard directory directly from its shard files
    (no registry needed — engine reconciliation reads as zero).

    A crashed run's last shard ends in records with no batch trailer;
    their requests may have lost children in the crash, so that tail is
    dropped and the profile covers the run up to its last complete
    batch.
    """
    complete = (
        (spans, w, t) for spans, w, t in iter_disk_batches(directory) if w != -math.inf
    )
    return _profile_batches(complete, None)


__all__ = [
    "SpanShardStore",
    "attach_store",
    "iter_disk_batches",
    "profile_shard_dir",
    "shard_files",
]
