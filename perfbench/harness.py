"""One benchmark run: set-up, timed passes, gates, metrics, provenance.

``trace=False`` installs no wrapper and reports the end-to-end metrics.
``trace=True`` sets up once untraced and once with the layer wrappers
installed, then measures pairs of passes on the traced set-up, one pass
with the wrappers uninstalled and one with them installed, alternating
which comes first.  It reports the per-layer metrics of the traced
passes, the tracing overhead of traced against untraced passes, and
fails the run if traced and untraced work wrote different bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from perfbench import probe
from perfbench.workloads import OUT_DIR, WORKLOADS, pool_width, usable_cpus

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per untraced run; ``setup_s`` is the median of their times at
#: reference host speed.
SETUP_REPEATS = 3

#: Metric names and units come from the benchmark's own definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Per workload, the names under which the printed report repeats the
#: headline figures: ``name -> (key in the op statistics, unit)``.
NAMED = {
    "compress": {"compress_mb_s": ("mb_s", "MB/s")},
    "ingest": {"ingest_mb_s": ("mb_s", "MB/s")},
    "serve": {
        "cold_roi_p50_ms": ("cold_p50_ms", "ms"),
        "cold_roi_p90_ms": ("cold_p90_ms", "ms"),
        "warm_roi_p50_ms": ("warm_p50_ms", "ms"),
        "warm_roi_p90_ms": ("warm_p90_ms", "ms"),
        "warm_roi_mb_s": ("warm_mb_s", "MB/s"),
    },
}

PREPROCESS = ("core.gsp_pad", "core.zero_fill", "core.opst_extract", "core.akdtree_extract",
              "core.nast_extract")
SZ_ENCODE = ("sz.compress", "sz.compress_with_stats", "sz.prepare", "sz.encode_prepared")
SZ_STREAM = ("sz.compress", "sz.compress_with_stats", "sz.prepare")
#: The calls an op enters the program through.  Their self time is the
#: part of an op that no layer span below them accounts for.
ENTRY_SPANS = ("core.compress", "ingest.submit", "serve.read_region")


def measure(workload, state, seconds: float) -> tuple[list[list], list[float]]:
    """Whole passes until ``seconds`` have gone by (at least one), with the
    host probe run before each pass and after the last; each pass's probe
    time is the mean of the two around it."""
    passes, probes = [], [probe.probe_seconds()]
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(state, len(passes)))
        probes.append(probe.probe_seconds())
    return passes, [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def at_reference_speed(passes, probes) -> list[list]:
    """Each pass's op times rescaled by ``REFERENCE_S / probe time``."""
    return [
        [dataclasses.replace(op, seconds=op.seconds * probe.REFERENCE_S / p) for op in ops]
        for ops, p in zip(passes, probes)
    ]


def failed_ops(passes, check) -> int:
    """Ops that failed a gate, including any whose output differs from
    another op's on the same input (the program is deterministic)."""
    first: dict = {}
    for op in (op for ops in passes for op in ops):
        if op.digest is not None:
            first.setdefault(op.key, op.digest)
    return sum(
        1
        for ops in passes
        for op in ops
        if op.failed
        or op.key in check.failed_keys
        or (op.digest is not None and op.digest != first[op.key])
    )


def digests(passes) -> dict:
    return {op.key: op.digest for ops in passes for op in ops if op.digest is not None}


def peak_mem_mib(workload, state) -> float:
    tracemalloc.start()
    try:
        workload.memory_pass(state)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _mb_s(ops) -> float:
    return sum(op.nbytes for op in ops) / 1e6 / sum(op.seconds for op in ops)


def typical_latency(ops) -> float:
    """``latency_ms`` in seconds: the geometric mean over inputs of each
    input's median latency.

    Inputs differ in cost (snapshot size, bricks an ROI touches), so a
    median over the pooled ops sits between two inputs' clusters and
    jumps with the mix; this weighs every input equally where ``mb_s``
    weighs by bytes.
    """
    per_input: dict = {}
    for op in ops:
        per_input.setdefault(op.key, []).append(op.seconds)
    logs = [np.log(statistics.median(times)) for times in per_input.values()]
    return float(np.exp(np.mean(logs)))


def op_stats(workload, passes) -> dict:
    """Throughput (median over passes) and typical latency of the headline
    phase, plus each phase's p50 and, when at least 10 samples lie beyond
    it, p90."""
    head = [[op for op in ops if op.phase == workload.headline_phase] for ops in passes]
    every = [op for ops in passes for op in ops]
    out = {
        "n_ops": len(every),
        "n_passes": len(passes),
        "op_seconds": sum(op.seconds for op in every),
        "mb_s": statistics.median(_mb_s(ops) for ops in head),
        "latency_ms": typical_latency([op for ops in head for op in ops]) * 1e3,
    }
    for phase in dict.fromkeys(op.phase for op in every):
        prefix = f"{phase}_" if phase else ""
        times = [op.seconds for op in every if op.phase == phase]
        out[prefix + "p50_ms"] = statistics.median(times) * 1e3
        if len(times) >= 100:
            out[prefix + "p90_ms"] = float(np.percentile(times, 90)) * 1e3
        if phase != workload.headline_phase:
            out[prefix + "mb_s"] = statistics.median(
                _mb_s([op for op in ops if op.phase == phase]) for ops in passes
            )
    return out


def provenance(workload: str, seed: int, seconds: float, trace: bool, scale: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(ROOT / "src"),
        "nproc": usable_cpus(),
        "pool_width": pool_width(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
    }


def _git_sha() -> str:
    """HEAD of the checkout's own ``.git`` if it has one (no subprocess,
    nothing read outside the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def run_plain(workload, seed: int, seconds: float) -> dict:
    setup_times = []
    setup_probes = [probe.probe_seconds()]
    state = None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
            t0 = time.perf_counter()
            state = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)
            setup_probes.append(probe.probe_seconds())
        marks = [time.perf_counter()]
        workload.prepare(state)
        marks.append(time.perf_counter())
        raw_passes, probes = measure(workload, state, seconds)
        marks.append(time.perf_counter())
        check = workload.check(state)
        marks.append(time.perf_counter())
        peak = peak_mem_mib(workload, state)
        marks.append(time.perf_counter())
    finally:
        if state is not None:
            workload.close(state)
    phases = dict(zip(("prepare", "measure", "check", "peak_mem"), np.diff(marks).tolist()))
    passes = at_reference_speed(raw_passes, probes)
    stats = op_stats(workload, passes)
    failed = failed_ops(passes, check)
    setup_at_reference = [
        t * probe.REFERENCE_S / ((a + b) / 2)
        for t, a, b in zip(setup_times, setup_probes, setup_probes[1:])
    ]
    metrics = {
        "setup_s": statistics.median(setup_at_reference),
        "mb_s": stats["mb_s"],
        "latency_ms": stats["latency_ms"],
        "ratio": check.ratio,
        "psnr_db": check.psnr_db,
        "peak_mem_mib": peak,
    }
    info = {key: value for key, value in stats.items() if key not in metrics}
    info.update(
        raw=dict(op_stats(workload, raw_passes), setup_s=statistics.median(setup_times)),
        setup_times=setup_times,
        probe_s={"setup": setup_probes, "passes": probes},
        phase_seconds=phases,
    )
    info["named"] = {
        name: [stats[key], unit]
        for name, (key, unit) in NAMED[workload.name].items()
        if key in stats
    }
    return _result(stats["n_ops"], failed, True, metrics, "end_to_end", info)


def run_traced(workload, seed: int, seconds: float, trace_path: Path) -> dict:
    from perfbench.tracing import Tracer, install_layer_wrappers

    state = workload.setup(seed)
    plain_digest = state.setup_digest
    workload.close(state)

    tracer = Tracer()
    state = None
    plain, traced = [], []
    try:
        install_layer_wrappers(tracer)
        t_setup = time.perf_counter()
        state = workload.setup(seed, tracer)
        setup_end = time.perf_counter()
        tracer.uninstall()
        workload.prepare(state)
        setup_counters = dict(tracer.counters)
        lo = time.perf_counter()
        # Pass pairs read the same inputs; the order within a pair
        # alternates, so drift of the host's speed hits both modes alike.
        while not traced or time.perf_counter() - lo < seconds:
            index = len(traced)
            for mode in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
                if mode == "plain":
                    plain.append(workload.run_pass(state, index))
                    continue
                install_layer_wrappers(tracer)
                try:
                    traced.append(workload.run_pass(state, index))
                finally:
                    tracer.uninstall()
        hi = time.perf_counter()
        check = workload.check(state)
        traced_digest = state.setup_digest
    finally:
        tracer.uninstall()
        if state is not None:
            workload.close(state)

    same_bytes = digests(plain) == digests(traced) and plain_digest == traced_digest
    plain_stats, traced_stats = op_stats(workload, plain), op_stats(workload, traced)
    n_ops = traced_stats["n_ops"]
    setup_spans = tracer.spans(t_setup, setup_end)
    spans = tracer.spans(lo, hi)
    counters = {
        name: value - setup_counters.get(name, 0) for name, value in tracer.counters.items()
    }
    metrics = layer_metrics(spans, n_ops, counters)
    metrics["sim.generate_s"] = sum(s.duration for s in setup_spans if s.name == "sim.generate")
    entry_self = sum(s.self_time() for s in spans if s.name in ENTRY_SPANS)
    metrics["trace.coverage"] = (
        tracer.covered_seconds(spans) - entry_self
    ) / traced_stats["op_seconds"]
    metrics["trace.overhead_pct"] = overhead_pct(plain, traced)
    tracer.write_chrome_trace(
        trace_path,
        t0=t_setup,
        marks=[("timed.start", lo), ("timed.end", hi)],
        other={"workload": workload.name, "seed": seed},
    )
    failed = failed_ops(plain + traced, check)
    info = {
        "untraced": plain_stats,
        "traced": traced_stats,
        "byte_identical": same_bytes,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "layer_self_share": _self_shares(spans, traced_stats["op_seconds"]),
    }
    attempted = plain_stats["n_ops"] + n_ops
    return _result(attempted, failed, same_bytes, metrics, "per_layer", info)


def overhead_pct(plain, traced) -> float:
    """Traced op time against untraced, in percent: the geometric mean,
    over the inputs both modes ran, of the ratio of their median times."""

    def medians(passes):
        times: dict = {}
        for op in (op for ops in passes for op in ops):
            times.setdefault((op.phase, op.key), []).append(op.seconds)
        return {key: statistics.median(values) for key, values in times.items()}

    untraced, with_spans = medians(plain), medians(traced)
    logs = [math.log(with_spans[key] / untraced[key]) for key in untraced.keys() & with_spans]
    return (math.exp(statistics.fmean(logs)) - 1.0) * 100.0


def layer_metrics(spans, n_ops: int, counters: dict) -> dict:
    """The per-layer metrics of the timed window's spans and counters."""

    def named(names):
        return [s for s in spans if s.name in names]

    def outermost(names):
        out = []
        for span in named(names):
            parent = span.parent
            while parent is not None and parent.name not in names:
                parent = parent.parent
            if parent is None:
                out.append(span)
        return out

    def inclusive(names):
        return sum(s.duration for s in outermost(names)) / n_ops

    def self_time(names):
        return sum(s.self_time() for s in named(names)) / n_ops

    def per_op(counter):
        return counters.get(counter, 0) / n_ops

    served = counters.get("serve.bytes_served", 0)
    hits = counters.get("serve.cache_hits", 0)
    lookups = hits + counters.get("serve.cache_misses", 0)
    return {
        "core.preprocess_s": inclusive(PREPROCESS),
        "core.preprocess_calls": len(outermost(PREPROCESS)) / n_ops,
        "core.gsp_pad_s": inclusive(("core.gsp_pad",)),
        "core.opst_extract_s": inclusive(("core.opst_extract",)),
        "core.akdtree_extract_s": inclusive(("core.akdtree_extract",)),
        "core.compress_self_s": self_time(("core.compress",)),
        "core.decompress_self_s": self_time(("core.decompress",)),
        "core.to_bytes_s": inclusive(("core.to_bytes",)),
        "sz.encode_s": inclusive(SZ_ENCODE),
        "sz.predict_s": inclusive(("sz.interp_compress",)),
        "sz.huffman_encode_s": inclusive(("sz.huffman_encode",)),
        "sz.lossless_s": inclusive(("sz.lossless_compress",)),
        "sz.streams_encoded": len(outermost(SZ_STREAM)) / n_ops,
        "sz.decode_s": inclusive(("sz.decompress",)),
        "sz.huffman_decode_s": inclusive(("sz.huffman_decode",)),
        "sz.reconstruct_s": inclusive(("sz.interp_decompress",)),
        "sz.lossless_decode_s": inclusive(("sz.lossless_decompress",)),
        "sz.streams_decoded": len(outermost(("sz.decompress",))) / n_ops,
        "engine.write_self_s": self_time(("engine.add_entry_stream", "engine.close")),
        "engine.bytes_written": per_op("engine.bytes_written"),
        "ingest.submit_self_s": self_time(("ingest.submit",)),
        "ingest.keyframes": per_op("ingest.keyframes"),
        "ingest.deltas": per_op("ingest.deltas"),
        "serve.fetch_s": inclusive(("serve.fetch",)),
        "serve.fetch_calls": per_op("serve.fetch_calls"),
        "serve.parts_fetched": per_op("serve.parts_fetched"),
        "serve.bytes_fetched": per_op("serve.bytes_fetched"),
        "serve.read_amplification": counters.get("serve.bytes_fetched", 0) / served
        if served
        else 0.0,
        "serve.retries": per_op("serve.retries"),
        "serve.request_self_s": self_time(("serve.read_region",)),
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
    }


def _self_shares(spans, op_seconds: float) -> dict:
    """Each span name's self time as a share of the timed ops' wall time."""
    shares: dict = {}
    for span in spans:
        shares[span.name] = shares.get(span.name, 0.0) + span.self_time()
    return {name: value / op_seconds for name, value in sorted(shares.items())}


def _result(attempted, failed, correct, metrics, section: str, info) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    if set(metrics) != set(units):
        raise RuntimeError(f"computed {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")
    return {
        "correct": bool(correct and failed == 0),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "info": info,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: int = 4) -> dict:
    """Run one workload; the returned dict's ``info`` and ``provenance``
    are for the printed report, the rest is the result line."""
    wl = WORKLOADS[workload](scale)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    if trace:
        result = run_traced(wl, seed, seconds, OUT_DIR / f"trace-{stem}.json")
    else:
        result = run_plain(wl, seed, seconds)
    result["provenance"] = provenance(workload, seed, seconds, trace, scale)
    with open(OUT_DIR / f"result-{stem}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result
