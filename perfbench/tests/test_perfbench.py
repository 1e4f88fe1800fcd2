"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size (scale 16, one pass) and must emit
exactly the metrics ``BENCHMARK.json`` names, with their units; every
correctness gate must fire on a deliberately corrupted output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gates, harness  # noqa: E402
from perfbench.tracing import Tracer, install_layer_wrappers  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

TINY = 16
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_plain_run_emits_end_to_end_metrics(workload):
    result = harness.run(workload, seed=3, seconds=0.01, trace=False, scale=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["provenance"]["seed"] == 3
    assert result["provenance"]["scale"] == TINY


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_layer_metrics_and_same_bytes(workload):
    result = harness.run(workload, seed=3, seconds=0.01, trace=True, scale=TINY)
    assert result["info"]["byte_identical"]
    assert result["correct"] and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("per_layer")
    trace = json.loads((ROOT / result["info"]["trace_file"]).read_text())
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert "sim.generate" in names
    # The wrappers are gone once the run ends.
    from repro.core import tac
    from repro.core.gsp import gsp_pad

    assert tac.gsp_pad is gsp_pad


def test_layer_metrics_land_on_their_workloads():
    compress = harness.run("compress", seed=2, seconds=0.01, trace=True, scale=TINY)
    serve = harness.run("serve", seed=2, seconds=0.01, trace=True, scale=TINY)
    c = {k: v["value"] for k, v in compress["metrics"].items()}
    s = {k: v["value"] for k, v in serve["metrics"].items()}
    assert c["core.preprocess_s"] > 0 and c["sz.streams_encoded"] > 0
    assert c["sz.decode_s"] == 0 and c["serve.fetch_calls"] == 0
    assert s["sz.streams_decoded"] > 0 and s["serve.fetch_calls"] > 0
    assert s["core.preprocess_s"] == 0 and s["sz.encode_s"] == 0
    # Entry-point glue (TAC's level loop, request planning) is not a layer.
    assert 0 < c["trace.coverage"] < 1 and 0 < s["trace.coverage"] < 1
    # Half the requests are cold (all misses), half warm (all hits).
    assert s["serve.cache_hit_ratio"] == pytest.approx(0.5)


# -- gates -------------------------------------------------------------------
def test_bound_gate_fires_on_over_bound_value():
    rng = np.random.default_rng(0)
    original = rng.random(1000).astype(np.float32)
    decoded = original + np.float32(0.5e-3)
    assert gates.within_bound(original, decoded, 1e-3)
    decoded[17] += np.float32(2e-3)
    assert not gates.within_bound(original, decoded, 1e-3)


def test_identity_gate_fires_on_flipped_value():
    ref = np.arange(64, dtype=np.float32).reshape(4, 4, 4)
    data = ref.copy()
    assert gates.identical(data, ref)
    data.view(np.uint32)[1, 2, 3] ^= 1
    assert not gates.identical(data, ref)
    assert not gates.identical(ref.astype(np.float64), ref)


def _pass_and_check(workload, corrupt):
    wl = WORKLOADS[workload](TINY)
    state = wl.setup(5)
    try:
        wl.prepare(state)
        corrupt(state, "before")
        passes = [wl.run_pass(state, 0)]
        corrupt(state, "after")
        check = wl.check(state)
    finally:
        wl.close(state)
    return harness.failed_ops(passes, check)


def test_compress_gate_counts_over_bound_blob():
    from repro.core.tac import TACCompressor

    def corrupt(state, when):
        if when == "after":
            ds = state.inputs[0]
            state.outputs[(0, 1e-4)] = TACCompressor().compress(ds, 1e-1, "rel").to_bytes()

    assert _pass_and_check("compress", corrupt) == 1


def test_ingest_gate_counts_over_bound_readback(monkeypatch):
    import repro.ingest

    real = repro.ingest.read_timestep_level

    def over_bound(reader, key, level, **kwargs):
        lvl, stats = real(reader, key, level, **kwargs)
        if key.endswith("t0013") and level == 0:
            # 1% of the level's peak is far beyond a 1e-4 relative bound.
            first = np.flatnonzero(lvl.mask)[0]
            lvl.data.flat[first] += np.float32(0.01) * lvl.data.max()
        return lvl, stats

    def corrupt(state, when):
        if when == "after":
            monkeypatch.setattr(repro.ingest, "read_timestep_level", over_bound)

    assert _pass_and_check("ingest", corrupt) == 1


def test_serve_gate_counts_flipped_roi():
    def corrupt(state, when):
        if when == "before":
            # A reference that differs in one bit from what the reader
            # serves is indistinguishable from a served ROI with a flip.
            state.extra["refs"][0] = state.extra["refs"][0].copy()
            state.extra["refs"][0].view(np.uint32).flat[0] ^= 1

    # The ROI fails once cold and once warm.
    assert _pass_and_check("serve", corrupt) == 2


# -- host-speed rescaling and tracing overhead --------------------------------
def _op(seconds, key, phase=""):
    from perfbench.workloads import Op

    return Op(seconds, 1000, key, phase=phase)


def test_rescaling_scales_each_pass_by_its_probe():
    from perfbench import probe

    passes = [[_op(0.2, "a")], [_op(0.4, "a")]]
    probes = [probe.REFERENCE_S, 2 * probe.REFERENCE_S]
    scaled = harness.at_reference_speed(passes, probes)
    assert [ops[0].seconds for ops in scaled] == pytest.approx([0.2, 0.2])
    assert passes[1][0].seconds == 0.4


def test_overhead_compares_inputs_both_modes_ran():
    plain = [[_op(1.0, "a"), _op(2.0, "b", "cold")]]
    traced = [[_op(1.1, "a"), _op(2.2, "b", "cold"), _op(9.0, "c")]]
    assert harness.overhead_pct(plain, traced) == pytest.approx(10.0)


# -- tracing -----------------------------------------------------------------
def test_self_time_subtracts_children_across_threads():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        worker = threading.Thread(target=lambda: tracer.wrap("pool", time.sleep)(0.03))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    spans = {s.name: s for s in tracer.spans()}
    outer = spans["outer"]
    assert {c.name for c in outer.children} == {"inner", "pool"}
    assert outer.self_time() < outer.duration - 0.045
    assert spans["pool"].parent is outer


def test_wrappers_return_results_unchanged_and_uninstall():
    from repro.sz import lossless

    original = lossless.compress_bytes
    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        assert lossless.compress_bytes is not original
        assert lossless.compress_bytes(b"abc" * 100) == original(b"abc" * 100)
    finally:
        tracer.uninstall()
    assert lossless.compress_bytes is original
    assert [r[0] for r in tracer.records] == ["sz.lossless_compress"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compress", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
