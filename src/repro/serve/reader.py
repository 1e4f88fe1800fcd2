"""`ArchiveReader`: a concurrent ROI-serving front-end over lazy archives.

The read-side production layer the ROADMAP asked for: one object that
owns the open archive, the retrying shard opener, the prefetch pipeline,
and the decoded-brick LRU, and serves any number of concurrent
``read_region`` / ``read_level`` requests while amortizing everything
amortizable:

* the archive head is parsed once, each entry's lazy view and codec are
  resolved once, and each level's decompression plan is built once;
* every request consults the decoded-brick cache *before any part
  fetch* — an overlapping ROI pays I/O and SZ decode only for the bricks
  no earlier request touched;
* misses are fetched through coalesced ranged reads pipelined ahead of
  decode (:class:`~repro.serve.prefetch.PrefetchPipeline`), and the
  shard opener retries transient failures with backoff
  (:func:`~repro.serve.opener.retrying_opener`).

Every request returns its data *and* a :class:`RequestStats` — bytes
fetched vs bytes served, cache hits/misses, latency — and
:meth:`ArchiveReader.stats` aggregates the same across the reader's
lifetime.  Blobs must carry their masks (the default): a serving layer
has no original dataset to pass as ``structure``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.container import MASK_PREFIX, PartIntegrityError
from repro.core.plan import normalize_region
from repro.engine import LazyBatchArchive, codec_for_method, default_shard_opener
from repro.engine.archive import _entry_decompress  # registry-routed full decode
from repro.serve.breaker import CircuitBreaker, breaking_opener
from repro.serve.cache import DecodedBrickCache
from repro.serve.opener import FetchStats, RetryPolicy, retrying_opener
from repro.serve.prefetch import (
    DEFAULT_COALESCE_GAP,
    Deadline,
    DeadlineExceeded,
    PipelineStats,
    PrefetchPipeline,
)


def _error_kind(exc: BaseException) -> str:
    """Classify a degraded-unit failure for the structured report."""
    if isinstance(exc, PartIntegrityError):
        return "integrity"
    if isinstance(exc, DeadlineExceeded):
        return "timeout"
    return "io"


@dataclass
class RequestStats:
    """Accounting for one served request."""

    key: str
    level: int
    box: tuple | None
    seconds: float
    bytes_fetched: int
    bytes_served: int
    cache_hits: int
    cache_misses: int
    n_parts_fetched: int
    n_fetches: int
    overlapped: bool
    #: Whether this request ran in degraded mode (fill-on-failure).
    degraded: bool = False
    #: One row per failed unit in a degraded request: the level-space
    #: box that holds fill values instead of data, why, and the failure
    #: class (``integrity`` / ``timeout`` / ``io``).  Empty on clean
    #: requests.
    errors: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "level": self.level,
            "box": [list(b) for b in self.box] if self.box else None,
            "seconds": round(self.seconds, 6),
            "bytes_fetched": self.bytes_fetched,
            "bytes_served": self.bytes_served,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "n_parts_fetched": self.n_parts_fetched,
            "n_fetches": self.n_fetches,
            "overlapped": self.overlapped,
            "degraded": self.degraded,
            "errors": self.errors,
        }


@dataclass
class _EntryState:
    """Per-entry artifacts resolved once and shared by all requests."""

    comp: object
    codec: object
    plans: dict[int, object] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def plan(self, level: int):
        with self.lock:
            plan = self.plans.get(level)
            if plan is None:
                plan = self.codec.build_decode_plan(self.comp, levels=[level])
                self.plans[level] = plan
            return plan


def _has_assemble(codec) -> bool:
    """Whether the codec implements the per-level assembly hook (the
    cached read path); monolithic-stream codecs that override
    ``decompress_levels`` wholesale (zMesh) fall back to their own
    region reader."""
    from repro.core.plan import PlanExecutorMixin

    impl = getattr(type(codec), "_assemble_level", None)
    return impl is not None and impl is not PlanExecutorMixin._assemble_level


class ArchiveReader:
    """Serve concurrent partial reads from a batch archive.

    Parameters
    ----------
    source:
        Path / bytes / seekable file of a batch archive (any version;
        sharded v3 is the intended production shape).
    shard_opener:
        ``name → byte source`` resolver for v3 payload shards (defaults
        to files next to the head).  It is wrapped with retry/backoff
        and fetch accounting; pass ``retry=RetryPolicy(attempts=1)`` to
        disable retries.
    cache_bytes:
        Decoded-brick LRU budget (0 disables caching).
    io_workers / decode_workers:
        Pool sizes for the fetch and decode stages of each request.
    request_workers:
        Threads serving :meth:`submit`\\ ed requests concurrently.
    coalesce_gap:
        Adjacent part spans closer than this many bytes merge into one
        ranged read.
    default_deadline:
        Wall-time budget (seconds) applied to every request that does
        not pass its own ``deadline``; ``None`` means unbounded.  An
        expired deadline raises
        :class:`~repro.serve.prefetch.DeadlineExceeded` — or, in
        degraded mode, fills the late bricks.
    degraded:
        Default failure mode for requests: ``True`` turns a corrupt,
        timed-out, or unreachable *brick* into ``fill_value`` cells plus
        a structured :attr:`RequestStats.errors` report instead of
        failing the whole request.  Load-bearing units (layouts, shared
        tables, legacy single-stream levels) still fail loudly — there
        is nothing partial to serve without them.
    fill_value:
        What degraded requests write into failed bricks' boxes.
    breaker_threshold / breaker_cooldown:
        Per-shard circuit breaker: after ``breaker_threshold``
        *consecutive* failures a shard fails fast for
        ``breaker_cooldown`` seconds instead of burning retry budgets
        (``breaker_threshold=0`` disables the breaker).
    """

    def __init__(
        self,
        source,
        *,
        mmap: bool = False,
        shard_opener=None,
        verify_shards: bool = False,
        retry: RetryPolicy | None = None,
        cache_bytes: int = 256 * 1024 * 1024,
        io_workers: int = 4,
        decode_workers: int = 2,
        request_workers: int = 4,
        coalesce_gap: int = DEFAULT_COALESCE_GAP,
        default_deadline: float | None = None,
        degraded: bool = False,
        fill_value: float = 0.0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
    ):
        if shard_opener is None and isinstance(source, (str, Path)):
            shard_opener = default_shard_opener(Path(source).parent, mmap=mmap)
        self.fetch_stats = FetchStats()
        self.default_deadline = default_deadline
        self.degraded = bool(degraded)
        self.fill_value = fill_value
        self.breaker = (
            CircuitBreaker(breaker_threshold, breaker_cooldown)
            if breaker_threshold
            else None
        )
        opener = None
        if shard_opener is not None:
            opener = retrying_opener(
                shard_opener, policy=retry or RetryPolicy(), stats=self.fetch_stats
            )
            if self.breaker is not None:
                # Breaker outside retry: one exhausted retry budget is one
                # breaker failure, and an open circuit skips the backoff.
                opener = breaking_opener(opener, self.breaker)
        self._archive = LazyBatchArchive.open(
            source, mmap=mmap, shard_opener=opener, verify_shards=verify_shards
        )
        try:
            self.cache = DecodedBrickCache(cache_bytes) if cache_bytes else None
            self._pipeline = PrefetchPipeline(
                io_workers=io_workers, decode_workers=decode_workers, max_gap=coalesce_gap
            )
            self._decode_workers = decode_workers
            self._requests = ThreadPoolExecutor(
                max_workers=request_workers, thread_name_prefix="serve-request"
            )
        except BaseException:
            # Bad cache/worker parameters surface as exceptions *after*
            # the archive (and its shard handles) opened; the caller
            # never sees the reader, so close the archive here.
            self._archive.close()
            raise
        self._entries: dict[str, _EntryState] = {}
        self._entries_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._closed = False
        self.n_requests = 0
        self.bytes_fetched = 0
        self.bytes_served = 0
        self.request_seconds = 0.0

    # -- archive surface ---------------------------------------------------
    def keys(self) -> list[str]:
        return self._archive.keys()

    def manifest(self) -> list[dict]:
        return self._archive.manifest()

    def entry_shapes(self, key: str) -> list[tuple[int, ...]]:
        """Per-level grid shapes of one entry (reads metadata only)."""
        state = self._entry(key)
        return [tuple(shape) for shape in state.comp.meta["shapes"]]

    def entry_meta(self, key: str) -> dict:
        """One entry's metadata record (reads metadata only).

        This is how temporal-delta chains are resolved: an ingest-written
        entry carries ``meta["temporal"]`` naming its base and keyframe
        keys (see :mod:`repro.ingest.delta`).
        """
        return self._entry(key).comp.meta

    # -- internals ---------------------------------------------------------
    def _entry(self, key: str) -> _EntryState:
        with self._entries_lock:
            if self._closed:
                raise RuntimeError("ArchiveReader is closed")
            state = self._entries.get(key)
            if state is None:
                comp = self._archive.entry(key)
                codec = codec_for_method(comp.method)
                delegate = getattr(codec, "_delegate", None)
                if delegate is not None:
                    resolved = delegate(comp)
                    if resolved is not None:
                        codec = resolved
                state = _EntryState(comp=comp, codec=codec)
                self._entries[key] = state
            return state

    def _prefetch_mask(self, comp, level: int, degraded: bool = False) -> int:
        """Stage the level's packed mask alongside the payload windows so
        assembly's mask read is accounted I/O, not a surprise fetch.

        In degraded mode a failed prefetch is swallowed: assembly reads
        the mask directly, and only *that* failure (the mask really is
        unreadable, not just flaky) fails the request — the mask is
        structural, there is no partial answer without it.
        """
        name = f"{MASK_PREFIX}L{level}"
        parts = comp.parts
        if not hasattr(parts, "prefetch") or name not in parts:
            return 0
        try:
            _reads, nbytes = parts.prefetch([name])
        except Exception:
            if not degraded:
                raise
            return 0
        return nbytes

    def _record(self, stats: RequestStats) -> RequestStats:
        with self._stats_lock:
            self.n_requests += 1
            self.bytes_fetched += stats.bytes_fetched
            self.bytes_served += stats.bytes_served
            self.request_seconds += stats.seconds
        return stats

    def _execute_cached(
        self,
        key: str,
        state: _EntryState,
        level: int,
        plan_units,
        deadline: Deadline | None = None,
        allow_partial: bool = False,
    ) -> tuple[dict, PipelineStats]:
        preloaded = {}
        if self.cache is not None:
            for unit in plan_units:
                hit = self.cache.get((key, level, unit.key))
                if hit is not None:
                    preloaded[unit.key] = hit
        results, pstats = self._pipeline.execute(
            state.comp.parts,
            plan_units,
            preloaded,
            deadline=deadline,
            allow_partial=allow_partial,
        )
        if self.cache is not None:
            for unit in plan_units:
                # Failed units of a degraded request are absent from the
                # results — they must never enter the cache (their boxes
                # hold fill values, not data).
                if unit.key not in preloaded and unit.key in results:
                    decoded = results[unit.key]
                    # Only immutable-by-convention arrays are shareable
                    # across requests; layout records are mutated during
                    # assembly and must stay request-private.
                    if isinstance(decoded, np.ndarray):
                        self.cache.put((key, level, unit.key), decoded)
        return results, pstats

    def _check_degradable(self, plan_units, unit_errors: dict) -> None:
        """Re-raise the first failure degradation cannot paper over.

        Only units with a level-space ``box`` (bricks) can be replaced by
        fill values; layouts, shared tables, grid streams, and any other
        box-less unit are load-bearing for the whole level.
        """
        boxes = {u.key: u.box for u in plan_units}
        for ukey in sorted(unit_errors):
            if boxes.get(ukey) is None:
                raise unit_errors[ukey]

    def _degrade_fill(
        self, data: np.ndarray, origin, request_box, plan_units, unit_errors: dict
    ) -> list[dict]:
        """Write ``fill_value`` into every failed unit's box and return
        the structured error report (one row per failed unit, boxes in
        level space, clipped to the request)."""
        boxes = {u.key: u.box for u in plan_units}
        report = []
        for ukey in sorted(unit_errors):
            exc = unit_errors[ukey]
            clipped = tuple(
                (max(ulo, blo), min(uhi, bhi))
                for (ulo, uhi), (blo, bhi) in zip(boxes[ukey], request_box)
            )
            if any(lo >= hi for lo, hi in clipped):
                continue  # pruned brick: nothing of it was requested
            slices = tuple(
                slice(lo - off, hi - off) for (lo, hi), off in zip(clipped, origin)
            )
            data[slices] = self.fill_value
            report.append(
                {
                    "unit": ukey,
                    "box": [list(b) for b in clipped],
                    "kind": _error_kind(exc),
                    "error": str(exc),
                }
            )
        return report

    def _resolve_modes(self, deadline, degraded) -> tuple[Deadline | None, bool]:
        if deadline is None:
            deadline = self.default_deadline
        if degraded is None:
            degraded = self.degraded
        return Deadline.coerce(deadline), bool(degraded)

    # -- serving -----------------------------------------------------------
    def read_region(
        self, key: str, level: int, region, *, deadline=None, degraded=None
    ) -> tuple[np.ndarray, RequestStats]:
        """One entry-level ROI plus its request accounting.

        Bit-identical to ``codec.decompress_region`` on the same blob;
        the decoded-brick cache is consulted per plan unit before any
        part fetch, and only units whose box intersects the ROI are
        decoded at all.

        ``deadline`` (seconds) and ``degraded`` override the reader's
        defaults per request.  A degraded request never fails on a bad
        *brick*: the brick's box is served as ``fill_value`` and reported
        in ``stats.errors`` — fault-free re-reads of the same ROI are
        bit-identical to the non-degraded path.
        """
        t0 = time.perf_counter()
        deadline, degraded = self._resolve_modes(deadline, degraded)
        state = self._entry(key)
        comp, codec = state.comp, state.codec
        shape = tuple(comp.meta["shapes"][level])
        box = normalize_region(region, shape)
        if not _has_assemble(codec):
            # Monolithic-stream codec: its own region reader, uncached.
            data = codec.decompress_region(
                comp, level, region, decode_workers=self._decode_workers
            )
            seconds = time.perf_counter() - t0
            return data, self._record(
                RequestStats(
                    key, level, box, seconds, 0, int(data.nbytes), 0, 0, 0, 0, False
                )
            )
        plan = state.plan(level)
        if any(unit.box is not None for unit in plan.units):
            plan = plan.for_region(box)
        mask_bytes = self._prefetch_mask(comp, level, degraded)
        results, pstats = self._execute_cached(
            key, state, level, plan.units, deadline=deadline, allow_partial=degraded
        )
        if pstats.unit_errors:
            self._check_degradable(plan.units, pstats.unit_errors)
        data = codec._assemble_region(comp, level, box, results, None)
        errors = []
        if pstats.unit_errors:
            origin = tuple(lo for lo, _hi in box)
            errors = self._degrade_fill(
                data, origin, box, plan.units, pstats.unit_errors
            )
        seconds = time.perf_counter() - t0
        return data, self._record(
            RequestStats(
                key=key,
                level=level,
                box=box,
                seconds=seconds,
                bytes_fetched=pstats.bytes_fetched + mask_bytes,
                bytes_served=int(data.nbytes),
                cache_hits=pstats.n_preloaded,
                cache_misses=pstats.n_decoded,
                n_parts_fetched=pstats.n_parts,
                n_fetches=pstats.n_fetches,
                overlapped=pstats.overlapped(),
                degraded=degraded,
                errors=errors,
            )
        )

    def read_level(self, key: str, level: int, *, deadline=None, degraded=None):
        """One whole reconstructed level plus its request accounting.

        ``deadline``/``degraded`` behave exactly as in
        :meth:`read_region` (the request box is the whole level).
        """
        t0 = time.perf_counter()
        deadline, degraded = self._resolve_modes(deadline, degraded)
        state = self._entry(key)
        comp, codec = state.comp, state.codec
        if not _has_assemble(codec):
            lvl = codec.decompress_level(
                comp, level, decode_workers=self._decode_workers
            )
            seconds = time.perf_counter() - t0
            return lvl, self._record(
                RequestStats(
                    key, level, None, seconds, 0, int(lvl.data.nbytes), 0, 0, 0, 0, False
                )
            )
        plan = state.plan(level)
        mask_bytes = self._prefetch_mask(comp, level, degraded)
        results, pstats = self._execute_cached(
            key, state, level, plan.units, deadline=deadline, allow_partial=degraded
        )
        if pstats.unit_errors:
            self._check_degradable(plan.units, pstats.unit_errors)
        lvl = codec._assemble_level(comp, level, results, None)
        errors = []
        if pstats.unit_errors:
            shape = tuple(comp.meta["shapes"][level])
            full_box = tuple((0, dim) for dim in shape)
            errors = self._degrade_fill(
                lvl.data, (0,) * len(shape), full_box, plan.units, pstats.unit_errors
            )
        seconds = time.perf_counter() - t0
        return lvl, self._record(
            RequestStats(
                key=key,
                level=level,
                box=None,
                seconds=seconds,
                bytes_fetched=pstats.bytes_fetched + mask_bytes,
                bytes_served=int(lvl.data.nbytes),
                cache_hits=pstats.n_preloaded,
                cache_misses=pstats.n_decoded,
                n_parts_fetched=pstats.n_parts,
                n_fetches=pstats.n_fetches,
                overlapped=pstats.overlapped(),
                degraded=degraded,
                errors=errors,
            )
        )

    def decompress(self, key: str):
        """Full-entry restore (registry-routed; no brick caching)."""
        state = self._entry(key)
        return _entry_decompress(
            state.comp, state.comp.method, None, self._decode_workers
        )

    # -- concurrent front-end ----------------------------------------------
    def submit(self, key: str, level: int, region=None, *, deadline=None, degraded=None):
        """Queue a request; returns a future of ``(data, RequestStats)``.

        ``region=None`` queues a whole-level read.  The request pool
        bounds concurrency, so a burst of submissions queues instead of
        spawning unbounded threads.  Note a ``deadline`` starts ticking
        when the request *runs*, not while it queues.
        """
        if region is None:
            return self._requests.submit(
                self.read_level, key, level, deadline=deadline, degraded=degraded
            )
        return self._requests.submit(
            self.read_region, key, level, region, deadline=deadline, degraded=degraded
        )

    def read_many(self, requests) -> list:
        """Serve ``(key, level, region)`` triples concurrently; results
        come back in request order."""
        futures = [self.submit(*request) for request in requests]
        return [future.result() for future in futures]

    # -- accounting --------------------------------------------------------
    def stats(self) -> dict:
        """Lifetime aggregates: requests, bytes, cache, and fetch layer."""
        with self._stats_lock:
            out = {
                "n_requests": self.n_requests,
                "bytes_fetched": self.bytes_fetched,
                "bytes_served": self.bytes_served,
                "request_seconds": round(self.request_seconds, 6),
            }
        out["cache"] = self.cache.stats() if self.cache is not None else None
        out["fetch"] = self.fetch_stats.snapshot()
        out["breaker"] = self.breaker.snapshot() if self.breaker is not None else None
        return out

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        with self._entries_lock:
            if self._closed:
                return
            self._closed = True
        self._requests.shutdown(wait=True)
        self._pipeline.close()
        if self.cache is not None:
            self.cache.clear()
        self._archive.close()

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
