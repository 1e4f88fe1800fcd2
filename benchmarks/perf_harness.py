"""Shared perf-regression harness for the SZ/TAC hot paths.

This is the machine-readable perf trajectory of the repo: every op is
timed at a pinned scale, recorded as ``op → {seconds, mb_per_s,
n_values}``, and merged into ``BENCH_hotpaths.json`` at the repo root.
Re-running after a change (or in CI's ``perf-smoke`` job) makes speedups
measurable and regressions loud — the ``--baseline`` mode fails the run
when any op is slower than a checked-in reference by more than
``--max-slowdown`` (a generous factor, to tolerate runner jitter).

Three ways in:

* **CLI** — ``PYTHONPATH=src python benchmarks/perf_harness.py
  [--scale 4] [--ops huffman_decode,tac_compress] [--baseline FILE]``;
* **pytest emitters** — ``bench_sz_codec.py`` / ``bench_table2_throughput.py``
  call :func:`merge_write` so the pytest-benchmark runs land in the same
  JSON trajectory;
* **library** — :func:`time_op` + :func:`merge_write` for new benchmarks.

Op workloads are pinned (fixed seeds, scale-derived sizes) so numbers are
comparable across commits at the same ``--scale``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hotpaths.json"

#: Version of the ``BENCH_hotpaths.json`` layout.
SCHEMA_VERSION = 1

#: JSON key reserved for run metadata (everything else is an op entry).
META_KEY = "_meta"


# ----------------------------------------------------------------------
# measurement + persistence primitives
# ----------------------------------------------------------------------
def time_op(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def op_entry(seconds: float, n_values: int, nbytes: int | None = None) -> dict:
    """One schema entry: seconds, MB/s over the op's input, value count."""
    if nbytes is None:
        nbytes = 0
    return {
        "seconds": round(float(seconds), 6),
        "mb_per_s": round(nbytes / 1e6 / seconds, 3) if seconds > 0 and nbytes else None,
        "n_values": int(n_values),
    }


def merge_write(results: dict, path: Path | str = DEFAULT_OUTPUT, **meta) -> Path:
    """Merge op entries into the JSON trajectory file (create if absent).

    Existing entries for other ops are preserved, so the CLI suite and the
    pytest emitters can each contribute their slice of the trajectory.
    """
    path = Path(path)
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (ValueError, OSError):
            existing = {}
    existing_meta = existing.get(META_KEY, {})
    existing.update(results)
    existing_meta.update(
        {
            "schema": SCHEMA_VERSION,
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
    )
    existing_meta.update(meta)
    existing[META_KEY] = existing_meta
    path.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")
    return path


def compare_to_baseline(
    results: dict, baseline: dict, max_slowdown: float, min_delta: float = 0.005
) -> list[str]:
    """Regression report: ops slower than ``baseline * max_slowdown``.

    Only ops present in both records are compared; returns one message per
    offending op (empty list = pass).  ``min_delta`` (seconds) is absolute
    slack on top of the ratio so sub-millisecond smoke-scale ops can't trip
    the gate on scheduler jitter alone.
    """
    failures = []
    for op, entry in sorted(results.items()):
        if op == META_KEY or not isinstance(entry, dict):
            continue
        ref = baseline.get(op)
        if not isinstance(ref, dict) or "seconds" not in ref:
            continue
        ref_s = float(ref["seconds"])
        now_s = float(entry["seconds"])
        if ref_s > 0 and now_s > ref_s * max_slowdown + min_delta:
            failures.append(
                f"{op}: {now_s:.6f}s vs baseline {ref_s:.6f}s "
                f"({now_s / ref_s:.2f}x > {max_slowdown:.2f}x allowed)"
            )
    return failures


# ----------------------------------------------------------------------
# the pinned op suite
# ----------------------------------------------------------------------
def _huffman_ops(scale: int, repeats: int) -> dict:
    from repro.sz.huffman import HuffmanCodec

    n = max(2_000_000 // scale, 50_000)
    rng = np.random.default_rng(0)
    symbols = np.clip(rng.geometric(0.3, size=n) + 4096 - 1, 0, 8192)
    codec = HuffmanCodec.from_symbols(symbols, alphabet_size=8193)
    encoded = codec.encode(symbols)
    codec.decode(encoded)  # warm the decode table
    nbytes = symbols.size * 8
    ops = {
        "huffman_encode": op_entry(
            time_op(lambda: codec.encode(symbols), repeats), n, nbytes
        ),
        "huffman_decode": op_entry(
            time_op(lambda: codec.decode(encoded), repeats), n, nbytes
        ),
    }
    # Ragged tail: a stream length far from a block multiple exercises the
    # active-lane schedule of the lockstep decoder.
    ragged = symbols[: n - n // 9 * 4 - 223]
    codec_r = HuffmanCodec.from_symbols(ragged, alphabet_size=8193)
    enc_r = codec_r.encode(ragged, block_size=4096)
    codec_r.decode(enc_r)
    ops["huffman_decode_ragged"] = op_entry(
        time_op(lambda: codec_r.decode(enc_r), repeats), ragged.size, ragged.size * 8
    )

    def table_build():
        fresh = HuffmanCodec(codec.lengths, max_len=codec.max_len)
        fresh._build_table()
        return fresh

    # Throughput is over the dense decode table the op materializes
    # (sym + len arrays, 2**max_len entries each) so mb_per_s is real
    # and the baseline gate covers this op.
    built = table_build()
    table_nbytes = built._table_sym.nbytes + built._table_len.nbytes
    ops["huffman_table_build"] = op_entry(
        time_op(table_build, max(repeats, 10)), 1 << codec.max_len, table_nbytes
    )

    # Chunked decode windows: force the over-limit path (one window per
    # contiguous lane chunk) so the big-payload fast path — previously a
    # 4-gather peek fallback — is tracked alongside the single-window
    # decode it must stay close to.  block_size=32 gives the many-lane
    # shape snapshot-scale streams have: at the harness floor of 50 000
    # symbols the 2-chunk split still leaves >= 780 lanes per chunk, so
    # the lanes-per-chunk guard routes to the chunked path at *every*
    # --scale (asserted below — this op must never silently time the
    # 4-gather fallback instead).
    from repro.sz import bitstream
    from repro.sz.huffman import _MIN_CHUNK_LANES

    enc_many = codec.encode(symbols, block_size=32)
    assert enc_many.block_offsets.size // 2 >= _MIN_CHUNK_LANES, (
        "huffman_decode_chunked_window premise broken: the lanes-per-chunk "
        "guard would route this op to the unwindowed fallback"
    )

    def decode_chunked():
        saved = bitstream.WINDOW_WORDS_LIMIT
        bitstream.WINDOW_WORDS_LIMIT = len(enc_many.payload) // 2
        try:
            return codec.decode(enc_many)
        finally:
            bitstream.WINDOW_WORDS_LIMIT = saved

    assert np.array_equal(decode_chunked(), symbols)
    ops["huffman_decode_chunked_window"] = op_entry(
        time_op(decode_chunked, repeats), n, nbytes
    )
    return ops


def _blocks_ops(scale: int, repeats: int) -> dict:
    from repro.core.blocks import BlockExtraction, block_counts, gather_blocks

    n = max(512 // scale, 32)
    rng = np.random.default_rng(1)
    data = rng.standard_normal((n, n, n)).astype(np.float32)
    grid = np.arange(0, n, 4, dtype=np.int32)
    origins = np.stack(
        [g.ravel() for g in np.meshgrid(grid, grid, grid, indexing="ij")], axis=1
    )
    shape = (4, 4, 4)
    stacked = gather_blocks(data, origins, shape)
    extraction = BlockExtraction(
        padded_shape=data.shape, orig_shape=data.shape, block_size=4
    )
    extraction.coords[shape] = origins
    extraction.perms[shape] = np.zeros(origins.shape[0], dtype=np.uint8)
    out = np.zeros_like(data)
    mask = rng.random((n, n, n)) < 0.4
    return {
        "gather_blocks": op_entry(
            time_op(lambda: gather_blocks(data, origins, shape), repeats),
            data.size,
            data.nbytes,
        ),
        "scatter_blocks": op_entry(
            time_op(lambda: extraction.scatter_group(shape, stacked, out), repeats),
            data.size,
            data.nbytes,
        ),
        "block_counts": op_entry(
            time_op(lambda: block_counts(mask, 16), repeats), mask.size, mask.size
        ),
    }


def _sz_ops(scale: int, repeats: int) -> dict:
    from repro.sim.nyx import generate_field
    from repro.sz import SZCompressor, SZConfig
    from repro.sz.predictor import lorenzo_forward
    from repro.sz.quantizer import quantize, resolve_error_bound

    n = max(512 // scale, 32)
    field = generate_field("baryon_density", n, seed=42)
    ops = {}
    for predictor in ("interp", "lorenzo"):
        codec = SZCompressor(SZConfig(predictor=predictor))
        ops[f"sz_compress_{predictor}"] = op_entry(
            time_op(lambda: codec.compress(field, 1e-3, "rel"), repeats),
            field.size,
            field.nbytes,
        )
        blob = codec.compress(field, 1e-3, "rel")
        ops[f"sz_decompress_{predictor}"] = op_entry(
            time_op(lambda: codec.decompress(blob), repeats), field.size, field.nbytes
        )
    # Stage-level ops: the quantize/predict stages are the widest remaining
    # serial gap (ROADMAP), so track them in isolation — a future PR on
    # them must land measured against these entries.
    eb_abs = resolve_error_bound(field, 1e-3, "rel")
    ops["sz_quantize"] = op_entry(
        time_op(lambda: quantize(field, eb_abs), repeats), field.size, field.nbytes
    )
    lattice = quantize(field, eb_abs)
    ops["sz_predict"] = op_entry(
        time_op(lambda: lorenzo_forward(lattice), repeats), field.size, field.nbytes
    )
    return ops


def _shared_tables_ops(scale: int, repeats: int) -> dict:
    """Per-stream vs shared-table entropy coding over one level's bricks.

    The workload isolates the encode stage the shared-table mode targets:
    the field is pre-chunked into 8^3 bricks and each brick is *prepared*
    (predict + histogram) once, outside the timers, because that stage is
    identical in both modes.  The per-stream op then pays one length-limited
    table build per brick; the shared op pays one level-wide build plus the
    table part serialization — the honest end-to-end cost of each mode's
    entropy stage.
    """
    from repro.sim.nyx import generate_field
    from repro.sz import SZCompressor
    from repro.sz.compressor import SharedTableResolver
    from repro.sz.huffman import SharedHuffmanTable

    n = max(512 // scale, 32)
    field = generate_field("baryon_density", n, seed=42)
    codec = SZCompressor()
    eb_abs = 1e-3 * float(field.max() - field.min())
    brick = 8
    prepared = [
        codec.prepare(np.ascontiguousarray(field[x : x + brick, y : y + brick, z : z + brick]), eb_abs, "abs")
        for x in range(0, n, brick)
        for y in range(0, n, brick)
        for z in range(0, n, brick)
    ]
    assert all(p.counts is not None for p in prepared), "bricks must entropy-code"
    max_len = codec.config.max_code_len

    def encode_per_stream():
        return [codec.encode_prepared(p) for p in prepared]

    def encode_shared():
        total = prepared[0].counts.copy()
        for p in prepared[1:]:
            total += p.counts
        shared = SharedHuffmanTable.from_counts(total, max_len=max_len)
        blobs = [codec.encode_prepared(p, shared=shared) for p in prepared]
        return shared.serialize(), blobs

    # Both modes must reconstruct identically (decode depends only on the
    # symbol stream, not on which table coded it).
    table_part, shared_blobs = encode_shared()
    resolver = SharedTableResolver({"table": table_part}, "table")
    per_blobs = encode_per_stream()
    for sb, pb in zip(shared_blobs[:2], per_blobs[:2]):
        assert np.array_equal(
            codec.decompress(sb, shared_tables=resolver), codec.decompress(pb)
        )
    return {
        "tac_compress_per_stream": op_entry(
            time_op(encode_per_stream, repeats), field.size, field.nbytes
        ),
        "tac_compress_shared_tables": op_entry(
            time_op(encode_shared, repeats), field.size, field.nbytes
        ),
    }


def _codec_ops(scale: int, repeats: int) -> dict:
    """Compress / decompress / preprocess per registered paper codec."""
    from repro.engine.registry import get_codec
    from repro.sim.datasets import make_dataset
    from repro.utils.timer import TimingRecord

    dataset = make_dataset("Run1_Z3", scale=scale)
    nbytes = dataset.original_bytes()
    n_values = dataset.total_points()
    ops = {}
    for name in ("tac", "1d", "zmesh", "3d"):
        codec = get_codec(name)
        ops[f"{name}_compress"] = op_entry(
            time_op(lambda: codec.compress(dataset, 1e-4, mode="rel"), repeats),
            n_values,
            nbytes,
        )
        comp = codec.compress(dataset, 1e-4, mode="rel")
        ops[f"{name}_decompress"] = op_entry(
            time_op(lambda: codec.decompress(comp), repeats), n_values, nbytes
        )
    # Pre-process share of a TAC compress (the paper's Fig. 13 quantity).
    record = TimingRecord()
    get_codec("tac").compress(dataset, 1e-4, mode="rel", timings=record)
    ops["tac_preprocess"] = op_entry(record.get("preprocess"), n_values, nbytes)
    return ops


def _preprocess_ops(scale: int, repeats: int) -> dict:
    """The two dominant TAC pre-process kernels, timed in isolation.

    ``opst_plan`` runs Alg. 1 over the unit-block occupancy of every level
    of the five ``perfbench`` compress datasets (registry realizations;
    ``n_values`` counts blocks, MB/s is over the levels' cell bytes);
    ``gsp_pad`` pads the dense ``Run1_Z3`` finest level with the default
    TAC configuration.  Both feed ``tac_preprocess``.
    """
    from repro.core.blocks import block_occupancy
    from repro.core.gsp import gsp_pad
    from repro.core.opst import opst_plan
    from repro.core.tac import default_unit_block
    from repro.sim.datasets import make_dataset

    levels = [
        lvl
        for name in ("Run1_Z10", "Run1_Z5", "Run1_Z3", "Run1_Z2", "Run2_T3")
        for lvl in make_dataset(name, scale=scale).levels
    ]
    grids = [block_occupancy(lvl.mask, default_unit_block(lvl.n)) for lvl in levels]
    dense = make_dataset("Run1_Z3", scale=scale).levels[0]
    data = dense.masked_data()
    block = default_unit_block(dense.n)

    def plan_all():
        for occ in grids:
            opst_plan(occ)

    return {
        "opst_plan": op_entry(
            time_op(plan_all, repeats),
            sum(occ.size for occ in grids),
            sum(lvl.data.nbytes for lvl in levels),
        ),
        "gsp_pad": op_entry(
            time_op(lambda: gsp_pad(data, dense.mask, block), repeats),
            data.size,
            data.nbytes,
        ),
    }


def _ingest_ops(scale: int, repeats: int) -> dict:
    """Streamed ingest hot paths: ``compress_iter`` and a delta session.

    ``tac_compress_iter`` drains the chunked compressor over the same
    dataset/bound as ``tac_compress``, so the two entries stay directly
    comparable (chunked presentation must not cost throughput).
    ``ingest_session_delta`` times a short end-to-end temporal-delta
    session — generate-free (the series is prebuilt), so the number is
    compress + closed-loop decode + streamed shard write.
    """
    import shutil
    import tempfile

    from repro.core.tac import TACCompressor
    from repro.ingest import IngestConfig, IngestSession
    from repro.sim.datasets import make_dataset
    from repro.sim.timesteps import make_timestep_series

    dataset = make_dataset("Run1_Z3", scale=scale)
    nbytes = dataset.original_bytes()
    codec = TACCompressor()

    def drain_iter():
        for _chunk in codec.compress_iter(dataset, 1e-4, "rel"):
            pass

    steps = 3
    series = list(make_timestep_series("Run1_Z10", steps=steps, scale=scale))
    series_bytes = sum(ds.original_bytes() for ds in series)

    def delta_session():
        workdir = Path(tempfile.mkdtemp(prefix="ingest_bench_"))
        try:
            cfg = IngestConfig(error_bound=1e-4, mode="rel", keyframe_interval=steps)
            with IngestSession(workdir / "series.rpbt", cfg) as session:
                session.extend(series)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    return {
        "tac_compress_iter": op_entry(
            time_op(drain_iter, repeats), dataset.total_points(), nbytes
        ),
        "ingest_session_delta": op_entry(
            time_op(delta_session, repeats),
            sum(ds.total_points() for ds in series),
            series_bytes,
        ),
    }


OP_GROUPS = {
    "huffman": _huffman_ops,
    "blocks": _blocks_ops,
    "sz": _sz_ops,
    "shared_tables": _shared_tables_ops,
    "codecs": _codec_ops,
    "preprocess": _preprocess_ops,
    "ingest": _ingest_ops,
}


#: Op names each group can emit, for ``--ops`` selection without running
#: the group first (codecs additionally has dynamic per-codec names).
GROUP_OPS = {
    "huffman": (
        "huffman_encode",
        "huffman_decode",
        "huffman_decode_ragged",
        "huffman_table_build",
        "huffman_decode_chunked_window",
    ),
    "blocks": ("gather_blocks", "scatter_blocks", "block_counts"),
    "sz": tuple(f"sz_{op}_{p}" for op in ("compress", "decompress") for p in ("interp", "lorenzo"))
    + ("sz_quantize", "sz_predict"),
    "shared_tables": ("tac_compress_per_stream", "tac_compress_shared_tables"),
    "codecs": tuple(
        f"{c}_{op}" for c in ("tac", "1d", "zmesh", "3d") for op in ("compress", "decompress")
    ) + ("tac_preprocess",),
    "preprocess": ("opst_plan", "gsp_pad"),
    "ingest": ("tac_compress_iter", "ingest_session_delta"),
}


def run_suite(scale: int = 4, repeats: int = 3, ops: set[str] | None = None) -> dict:
    """Time every (selected) op group at the pinned scale.

    ``ops`` may name groups (``huffman``) or individual ops
    (``tac_compress``).  Selection is *group-granular*: naming any op runs
    that op's whole group (group setup dominates the cost anyway) and then
    records only the selected entries; groups with no selected op are
    never executed.
    """
    if ops is not None:
        known = set(OP_GROUPS) | {op for names in GROUP_OPS.values() for op in names}
        unknown = ops - known
        if unknown:
            raise ValueError(
                f"unknown ops {sorted(unknown)}; choose groups {sorted(OP_GROUPS)} "
                f"or ops {sorted(known - set(OP_GROUPS))}"
            )
    results: dict = {}
    for group, runner in OP_GROUPS.items():
        if ops is not None and group not in ops and not (ops & set(GROUP_OPS[group])):
            continue
        group_results = runner(scale, repeats)
        if ops is not None:
            group_results = {
                op: entry
                for op, entry in group_results.items()
                if op in ops or group in ops
            }
        results.update(group_results)
    return results


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time SZ/TAC hot paths and maintain BENCH_hotpaths.json"
    )
    parser.add_argument("--scale", type=int, default=4, help="grid divisor (power of two)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats per op")
    parser.add_argument(
        "--ops", default=None,
        help="comma-separated op or group names to run (default: all; "
             "group-granular — naming an op runs its whole group, records "
             "only the selection)",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"trajectory JSON to merge into (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="reference JSON; fail when any shared op regresses past --max-slowdown",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=2.0,
        help="allowed seconds ratio vs baseline (default 2.0 — runner jitter headroom)",
    )
    parser.add_argument(
        "--min-delta", type=float, default=0.005,
        help="absolute slack in seconds on top of the ratio (shields tiny "
             "smoke-scale ops and cross-machine speed differences)",
    )
    args = parser.parse_args(argv)

    wanted = {op for op in args.ops.split(",") if op} if args.ops else None
    try:
        results = run_suite(scale=args.scale, repeats=args.repeats, ops=wanted)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not results:
        print("error: --ops selected nothing to run", file=sys.stderr)
        return 2
    path = merge_write(results, args.output, scale=args.scale, repeats=args.repeats)
    width = max(len(op) for op in results)
    for op, entry in sorted(results.items()):
        rate = f"{entry['mb_per_s']:>10.1f} MB/s" if entry["mb_per_s"] else " " * 15
        print(f"{op:<{width}}  {entry['seconds']:>10.6f}s {rate}")
    print(f"wrote {path} ({len(results)} ops)")

    if args.baseline is not None:
        baseline = json.loads(Path(args.baseline).read_text())
        failures = compare_to_baseline(
            results, baseline, args.max_slowdown, min_delta=args.min_delta
        )
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"baseline check ok (max allowed slowdown {args.max_slowdown}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
