"""Benchmark-side spans: wrappers installed around the program's public
functions, the span tree they form, and a Chrome trace-event export.

Nothing here edits the program.  :func:`install_layer_wrappers` replaces
names at the sites the program looks them up (module globals such as
``repro.core.tac.gsp_pad``, class attributes such as
``HuffmanCodec.encode``) with timing wrappers that call the original and
return its result unchanged; :meth:`Tracer.uninstall` puts the originals
back.  Only a traced run calls it.

Each span records its name, thread, start and end (``perf_counter``).
Spans nest by containment on their own thread.  A span on a pool thread
with no enclosing span there belongs to the innermost client-thread span
whose interval contains it — unambiguous with a single client.  A span's
self time is its duration minus the part of it its children cover.
"""

from __future__ import annotations

import bisect
import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    tid: int
    start: float
    end: float
    children: list = field(default_factory=list)
    parent: "Span | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        covered = _union_length(
            (max(c.start, self.start), min(c.end, self.end)) for c in self.children
        )
        return max(0.0, self.duration - covered)


def _union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(lo, hi)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.client_tid = threading.get_ident()
        self.records: list[tuple[str, int, float, float]] = []
        self.thread_names: dict[int, str] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------
    def _record(self, name: str, start: float, end: float) -> None:
        tid = threading.get_ident()
        if tid not in self.thread_names:
            self.thread_names[tid] = threading.current_thread().name
        self.records.append((name, tid, start, end))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(name, start, time.perf_counter())

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(result)`` sees each
        successful return (for counters measured at the boundary)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._record(name, start, time.perf_counter())
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, on_result=None, wrapper=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper (or by ``wrapper(original)``)."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        replacement = (
            wrapper(original) if wrapper is not None else self.wrap(name, original, on_result)
        )
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, own))

    @property
    def active(self) -> bool:
        """Whether the layer wrappers are installed."""
        return bool(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------
    def spans(self, lo: float = float("-inf"), hi: float = float("inf")) -> list[Span]:
        """Spans lying inside ``[lo, hi]``, linked into their tree."""
        picked = [Span(*rec) for rec in list(self.records) if rec[2] >= lo and rec[3] <= hi]
        by_thread: dict[int, list[Span]] = defaultdict(list)
        for span in picked:
            by_thread[span.tid].append(span)
        roots: dict[int, list[Span]] = {}
        for tid, items in by_thread.items():
            items.sort(key=lambda s: (s.start, -s.end))
            stack: list[Span] = []
            tops = []
            for span in items:
                while stack and stack[-1].end < span.end:
                    stack.pop()
                if stack:
                    span.parent = stack[-1]
                    stack[-1].children.append(span)
                else:
                    tops.append(span)
                stack.append(span)
            roots[tid] = tops
        client_tops = roots.get(self.client_tid, [])
        starts = [s.start for s in client_tops]
        for tid, tops in roots.items():
            if tid == self.client_tid:
                continue
            for span in tops:
                owner = _innermost_containing(client_tops, starts, span)
                if owner is not None:
                    span.parent = owner
                    owner.children.append(span)
        return picked

    def covered_seconds(self, spans: list[Span]) -> float:
        """Time the client thread spent inside some span of ``spans``."""
        return _union_length(
            (s.start, s.end) for s in spans if s.tid == self.client_tid and s.parent is None
        )

    # -- export ------------------------------------------------------------
    def write_chrome_trace(self, path, *, t0: float, marks=(), other=None) -> None:
        """Chrome trace-event JSON (opens offline in Perfetto or
        ``chrome://tracing``); ``marks`` are ``(name, perf_counter)`` instants."""
        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": name}}
            for tid, name in sorted(self.thread_names.items())
        ]
        for name, tid, start, end in self.records:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": round((start - t0) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                }
            )
        for name, when in marks:
            events.append(
                {
                    "name": name,
                    "ph": "i",
                    "s": "g",
                    "pid": 1,
                    "tid": self.client_tid,
                    "ts": round((when - t0) * 1e6, 3),
                }
            )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other or {}},
                fh,
            )


def _innermost_containing(tops: list[Span], starts: list[float], span: Span):
    idx = bisect.bisect_right(starts, span.start) - 1
    if idx < 0 or tops[idx].end < span.end:
        return None
    node = tops[idx]
    while True:
        inner = [c for c in node.children if c.start <= span.start and c.end >= span.end]
        if not inner:
            return node
        node = inner[0]


class _TimedSource:
    """A shard byte source whose ``read_at`` is a ``serve.fetch`` span."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.label = getattr(inner, "label", "<source>")

    def read_at(self, offset: int, length: int) -> bytes:
        if not self._tracer.active:
            return self._inner.read_at(offset, length)
        start = time.perf_counter()
        try:
            payload = self._inner.read_at(offset, length)
        except OSError:
            self._tracer.count("serve.retries")
            raise
        finally:
            self._tracer._record("serve.fetch", start, time.perf_counter())
        self._tracer.count("serve.fetch_calls")
        self._tracer.count("serve.bytes_fetched", len(payload))
        return payload

    def close(self) -> None:
        self._inner.close()


def timing_shard_opener(opener, tracer: Tracer):
    """Wrap a ``name → byte source`` opener so every fetch is a span.

    This is what a traced serve run passes as ``ArchiveReader``'s public
    ``shard_opener`` parameter; the reader's own retry wrapper sits above
    it, so a failed attempt shows here as one ``serve.retries``.  It
    records only while the layer wrappers are installed.
    """

    def opener_with_timing(name: str):
        try:
            source = opener(name)
        except OSError:
            if tracer.active:
                tracer.count("serve.retries")
            raise
        return _TimedSource(source, tracer)

    return opener_with_timing


class _TimedChunks:
    """``compress_iter``'s chunk stream with each level a ``core.compress`` span."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        with self._tracer.span("core.compress"):
            return next(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Install every layer span at the names' import sites."""
    from repro.core import tac
    from repro.core.container import CompressedDataset
    from repro.engine.archive import ShardedArchiveWriter
    from repro.ingest.session import IngestSession
    from repro.serve.reader import ArchiveReader
    from repro.sz import compressor, lossless
    from repro.sz.huffman import HuffmanCodec

    for fn in ("gsp_pad", "zero_fill", "opst_extract", "akdtree_extract", "nast_extract"):
        tracer.patch(tac, fn, f"core.{fn}")
    tracer.patch(tac.TACCompressor, "compress", "core.compress")
    tracer.patch(
        tac.TACCompressor,
        "compress_iter",
        "core.compress_iter",
        wrapper=lambda fn: functools.wraps(fn)(
            lambda *a, **k: _TimedChunks(fn(*a, **k), tracer)
        ),
    )
    tracer.patch(tac.TACCompressor, "decompress_level", "core.decompress")
    tracer.patch(CompressedDataset, "to_bytes", "core.to_bytes")

    tracer.patch(compressor, "interp_compress", "sz.interp_compress")
    tracer.patch(compressor, "interp_decompress", "sz.interp_decompress")
    tracer.patch(HuffmanCodec, "encode", "sz.huffman_encode")
    tracer.patch(HuffmanCodec, "decode", "sz.huffman_decode")
    tracer.patch(lossless, "compress_bytes", "sz.lossless_compress")
    tracer.patch(lossless, "decompress_bytes", "sz.lossless_decompress")
    for method in ("compress", "compress_with_stats", "prepare", "encode_prepared"):
        tracer.patch(compressor.SZCompressor, method, f"sz.{method}")
    tracer.patch(compressor.SZCompressor, "decompress", "sz.decompress")

    tracer.patch(ShardedArchiveWriter, "add_entry_stream", "engine.add_entry_stream")
    tracer.patch(
        ShardedArchiveWriter,
        "close",
        "engine.close",
        on_result=lambda report: tracer.count("engine.bytes_written", report.total_bytes()),
    )

    def count_entries(report):
        tracer.count("ingest.keyframes", report.n_keyframes)
        tracer.count("ingest.deltas", report.n_deltas)

    tracer.patch(IngestSession, "submit", "ingest.submit")
    tracer.patch(IngestSession, "close", "ingest.close", on_result=count_entries)

    def count_request(result):
        _data, stats = result
        tracer.count("serve.bytes_served", stats.bytes_served)
        tracer.count("serve.parts_fetched", stats.n_parts_fetched)
        tracer.count("serve.cache_hits", stats.cache_hits)
        tracer.count("serve.cache_misses", stats.cache_misses)

    tracer.patch(ArchiveReader, "read_region", "serve.read_region", on_result=count_request)
