"""The benchmark's workloads.

Each workload builds its inputs from the run seed in ``setup``, runs
whole passes of timed ops in ``run_pass`` (one op = one call a user of
the system waits for), and judges the outputs in ``check``.  Only the
op itself sits inside a timer; hashing, reference comparison and
decoding for the gates run between or after the timed calls.

* ``compress`` — single-threaded ``TACCompressor().compress(...).to_bytes()``
  over four Run 1 snapshots and the sparse Run 2 snapshot at two
  relative bounds: pre-process and SZ encode do all the work, decode and
  disk none, and the levels cover every strategy the density filter
  picks (GSP, OpST, AKDTree).
* ``ingest`` — one synchronous ``IngestSession`` (keyframe every 4
  steps) over two 8-step Run1_Z10 series into a sharded archive: adds
  closed-loop SZ decode and streamed v5/shard writes to the encode path,
  on an OpST-finest hierarchy.
* ``serve`` — one closed-loop client reading seeded 32³ ROIs from the
  brick-chunked finest level of Run1_Z3/Run1_Z2 entries through one
  ``ArchiveReader``.  Each pass has a cold phase, which clears the
  decoded-brick cache before every request (fetch, Huffman decode,
  interp reconstruct, assemble), and a warm phase, which replays the
  same ROIs against a filled cache (the hit path: plan and assemble).
  ROIs on block-strategy levels are left out on purpose: mixed in, they
  make the latency distribution bimodal.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import gates

#: Where runs put their archives; inside the checkout, ignored by git.
OUT_DIR = Path(__file__).resolve().parent / "out"

COMPRESS_DATASETS = ("Run1_Z10", "Run1_Z5", "Run1_Z3", "Run1_Z2", "Run2_T3")
COMPRESS_BOUNDS = (1e-3, 1e-4)
#: Independent realizations of each compress input.  A relative bound
#: resolves against max - min, so one realization's ratio swings with
#: its extreme values; two per run halve that spread's variance.
COMPRESS_REALIZATIONS = 2
INGEST_DATASET = "Run1_Z10"
INGEST_STEPS = 8
INGEST_KEYFRAME_INTERVAL = 4
#: Independent 8-step series submitted back to back in one session (the
#: second one's new hierarchy forces a keyframe).  Ratio and throughput
#: swing with one realization's value range; two halve that variance.
INGEST_SERIES = 2
SERVE_DATASETS = ("Run1_Z3", "Run1_Z2")
ROI_EDGE = 32
#: A 32³ ROI touches 1, 2, 4 or 8 bricks, and cold latency follows that
#: count, so a pool's mix sets its p50.  Pass ``i`` reads the ``i``-th
#: 64 ROIs of a 192-ROI pool, cyclically: a run samples the mix three times wider than
#: one pass would, at the length of one pass.
ROI_POOL = 192
ROIS_PER_PASS = 64


def usable_cpus() -> int:
    """CPUs this process may run on (``nproc``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_width() -> int:
    """Every pool stays within ``nproc`` and at most 2 wide."""
    return min(2, usable_cpus())


def derive_seed(seed: int, *path: int) -> int:
    """An independent 32-bit generator seed for one input of a run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _spanner(tracer):
    return tracer.span if tracer is not None else (lambda _name: nullcontext())


def _files_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@dataclass
class Op:
    """One timed call: its wall time, the bytes it processed, and what
    the gates need (a key naming the input, an output digest, or an
    inline verdict)."""

    seconds: float
    nbytes: int
    key: object
    digest: str | None = None
    failed: bool = False
    phase: str = ""


@dataclass
class Check:
    """Gate verdicts and the quality figures derived from the outputs."""

    failed_keys: set
    ratio: float
    psnr_db: float


@dataclass
class State:
    seed: int
    workdir: Path
    inputs: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: sha256 of files written during set-up (the serve archive).
    setup_digest: str | None = None


class Workload:
    name = ""
    #: The phase whose ops the end-to-end ``mb_s`` and ``latency_ms`` use.
    headline_phase = ""

    def __init__(self, scale: int = 4):
        self.scale = scale

    def _new_state(self, seed: int) -> State:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT_DIR))
        return State(seed=seed, workdir=workdir)

    def setup(self, seed: int, tracer=None) -> State:
        raise NotImplementedError

    def prepare(self, state: State) -> None:
        """Untimed work the gates need before the first op."""

    def run_pass(self, state: State, index: int) -> list[Op]:
        """Pass ``index`` of a run; passes with the same index time the
        same inputs."""
        raise NotImplementedError

    def check(self, state: State) -> Check:
        raise NotImplementedError

    def memory_pass(self, state: State) -> None:
        """The untimed op(s) whose tracemalloc peak is ``peak_mem_mib``."""
        raise NotImplementedError

    def close(self, state: State) -> None:
        shutil.rmtree(state.workdir, ignore_errors=True)


class CompressWorkload(Workload):
    name = "compress"

    def setup(self, seed, tracer=None):
        from repro.sim.datasets import make_dataset

        span = _spanner(tracer)
        state = self._new_state(seed)
        for realization in range(COMPRESS_REALIZATIONS):
            for idx, name in enumerate(COMPRESS_DATASETS):
                with span("sim.generate"):
                    state.inputs.append(
                        make_dataset(
                            name, scale=self.scale, seed=derive_seed(seed, 1, realization, idx)
                        )
                    )
        return state

    def _compress(self, state, idx: int, eb: float) -> Op:
        from repro.core.tac import TACCompressor

        ds = state.inputs[idx]
        t0 = time.perf_counter()
        blob = TACCompressor().compress(ds, eb, "rel").to_bytes()
        seconds = time.perf_counter() - t0
        state.outputs.setdefault((idx, eb), blob)
        return Op(seconds, ds.original_bytes(), (idx, eb), hashlib.sha256(blob).hexdigest())

    def run_pass(self, state, index):
        return [
            self._compress(state, idx, eb)
            for idx in range(len(state.inputs))
            for eb in COMPRESS_BOUNDS
        ]

    def memory_pass(self, state):
        """Each input of the first realization once, at the tighter bound."""
        for idx in range(len(COMPRESS_DATASETS)):
            self._compress(state, idx, min(COMPRESS_BOUNDS))

    def check(self, state):
        from repro.core.container import CompressedDataset, resolve_global_eb
        from repro.core.tac import TACCompressor

        failed = set()
        original = stored = 0
        psnrs = []
        for (idx, eb), blob in state.outputs.items():
            ds = state.inputs[idx]
            decoded = TACCompressor().decompress(CompressedDataset.from_bytes(blob))
            eb_abs = resolve_global_eb(ds, eb, "rel")
            if not gates.levels_within_bound(ds.levels, decoded.levels, eb_abs):
                failed.add((idx, eb))
            original += ds.original_bytes()
            stored += len(blob)
            psnrs.append(_levels_psnr(ds.levels, decoded.levels))
        return Check(failed, original / stored, float(np.mean(psnrs)))


def _levels_psnr(want_levels, got_levels) -> float:
    """PSNR over every stored value, against the dataset's value range."""
    values = np.concatenate([lvl.data[lvl.mask] for lvl in want_levels])
    got = np.concatenate([g.data[w.mask] for w, g in zip(want_levels, got_levels)])
    return gates.psnr_db(
        float(values.max() - values.min()), gates.sq_error(values, got), values.size
    )


class IngestWorkload(Workload):
    name = "ingest"

    def setup(self, seed, tracer=None):
        from repro.sim.timesteps import make_timestep_series

        span = _spanner(tracer)
        state = self._new_state(seed)
        for series in range(INGEST_SERIES):
            with span("sim.generate"):
                state.inputs.extend(
                    make_timestep_series(
                        INGEST_DATASET,
                        steps=INGEST_STEPS,
                        scale=self.scale,
                        seed=derive_seed(seed, 2, series),
                    )
                )
        state.extra["n_pass"] = 0
        return state

    def _session(self, state, snapshots) -> tuple[float, Path]:
        """One timed session into a fresh directory; the previous
        session's files are removed first."""
        from repro.ingest import IngestConfig, IngestSession

        previous = state.outputs.get("dir")
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        directory = state.workdir / f"pass{state.extra['n_pass']}"
        state.extra["n_pass"] += 1
        directory.mkdir()
        config = IngestConfig(keyframe_interval=INGEST_KEYFRAME_INTERVAL)
        t0 = time.perf_counter()
        with IngestSession(directory / "ingest.rpbt", config) as session:
            keys = [session.submit(snapshot) for snapshot in snapshots]
        seconds = time.perf_counter() - t0
        state.outputs.update(dir=directory, keys=keys, report=session.report)
        return seconds, directory

    def run_pass(self, state, index):
        seconds, directory = self._session(state, state.inputs)
        nbytes = sum(ds.original_bytes() for ds in state.inputs)
        return [Op(seconds, nbytes, "session", _files_digest(directory))]

    def memory_pass(self, state):
        """A session over the first keyframe interval (a keyframe and its
        deltas): the per-step working set, at half the cost."""
        self._session(state, state.inputs[:INGEST_KEYFRAME_INTERVAL])

    def check(self, state):
        from repro.core.container import resolve_global_eb
        from repro.ingest import read_timestep_level
        from repro.serve import ArchiveReader

        failed = set()
        psnrs = []
        report = state.outputs["report"]
        width = pool_width()
        with ArchiveReader(
            report.head_path, request_workers=1, io_workers=width, decode_workers=width
        ) as reader:
            for step, key in enumerate(state.outputs["keys"]):
                want = state.inputs[step]
                keyframe = state.inputs[step - step % INGEST_KEYFRAME_INTERVAL]
                eb_abs = resolve_global_eb(keyframe, ingest_bound(), "rel")
                levels = [
                    read_timestep_level(reader, key, idx)[0] for idx in range(want.n_levels)
                ]
                if not gates.levels_within_bound(want.levels, levels, eb_abs):
                    failed.add("session")
                psnrs.append(_levels_psnr(want.levels, levels))
        original = sum(ds.original_bytes() for ds in state.inputs)
        return Check(failed, original / report.write.total_bytes(), float(np.mean(psnrs)))


def ingest_bound() -> float:
    """The relative bound ``IngestConfig`` applies by default."""
    from repro.ingest import IngestConfig

    return IngestConfig().error_bound


class ServeWorkload(Workload):
    name = "serve"
    headline_phase = "cold"

    def setup(self, seed, tracer=None):
        from repro.engine import default_shard_opener
        from repro.ingest import IngestSession
        from repro.serve import ArchiveReader
        from repro.sim.datasets import make_dataset

        span = _spanner(tracer)
        state = self._new_state(seed)
        # The archive holds the Table 1 realizations (registry seeds) and
        # the run seed draws the ROI stream.  With two entries, a seeded
        # realization would swing the archive's ratio and brick decode
        # cost by about 30% from seed to seed.
        for name in SERVE_DATASETS:
            with span("sim.generate"):
                state.inputs.append(make_dataset(name, scale=self.scale))
        archive = state.workdir / "archive"
        archive.mkdir()
        head = archive / "serve.rpbt"
        keys = [f"{ds.name}-{idx}" for idx, ds in enumerate(state.inputs)]
        with IngestSession(head) as session:
            for key, ds in zip(keys, state.inputs):
                session.submit(ds, key=key)
        state.setup_digest = _files_digest(archive)
        state.extra.update(head=head, keys=keys, report=session.report)

        opener = default_shard_opener(archive)
        if tracer is not None:
            from perfbench.tracing import timing_shard_opener

            opener = timing_shard_opener(opener, tracer)
        width = pool_width()
        reader = ArchiveReader(
            head,
            shard_opener=opener,
            request_workers=1,
            io_workers=width,
            decode_workers=width,
        )
        state.extra["reader"] = reader
        for key in keys:
            if not reader.entry_meta(key)["levels"][0].get("bricks"):
                raise RuntimeError(f"{key}: finest level is not brick-chunked")
        state.extra["rois"] = self._draw_rois(state)
        # Plan warm-up: the first read of each entry builds its level plan.
        for key in keys:
            reader.read_region(key, 0, self._worst_roi(state))
        reader.cache.clear()
        return state

    def _draw_rois(self, state: State) -> list[tuple[int, tuple]]:
        """Each pass's 64 ROIs are a Latin-hypercube sample: on every axis
        their low corners fall one in each of 64 equal strata of the
        range, and the entries take turns.  So every pass crosses brick
        boundaries about equally often, where independent draws let a
        pass's brick mix, and with it its cold throughput, swing by
        several percent."""
        rng = np.random.default_rng(derive_seed(state.seed, 4))
        span = state.inputs[0].levels[0].shape[0] - ROI_EDGE + 1
        rois = []
        for _ in range(ROI_POOL // ROIS_PER_PASS):
            strata = np.arange(ROIS_PER_PASS)
            corners = [
                rng.permutation((strata + rng.random(ROIS_PER_PASS)) * span // ROIS_PER_PASS)
                for _axis in range(3)
            ]
            entries = rng.permutation(strata % len(state.inputs))
            for i, entry in enumerate(entries):
                region = tuple((int(c[i]), int(c[i]) + ROI_EDGE) for c in corners)
                rois.append((int(entry), region))
        return rois

    def _worst_roi(self, state: State) -> tuple:
        """The ROI straddling a brick corner: it touches the most bricks."""
        n = state.inputs[0].levels[0].shape[0]
        meta = state.extra["reader"].entry_meta(state.extra["keys"][0])
        brick = meta["levels"][0]["bricks"]["size"]
        lo = int(np.clip(brick - ROI_EDGE // 2, 0, n - ROI_EDGE))
        return ((lo, lo + ROI_EDGE),) * 3

    def prepare(self, state):
        """Reference ROIs: ``TACCompressor.decompress_region`` over each
        entry's whole finest level, sliced.  The codec defines a region
        read as that slice, and one decode per entry replaces one per ROI."""
        from repro.core.tac import TACCompressor
        from repro.engine import LazyBatchArchive

        levels = []
        with LazyBatchArchive.open(state.extra["head"]) as archive:
            for key in state.extra["keys"]:
                comp = archive.entry(key)
                whole = tuple((0, n) for n in comp.meta["shapes"][0])
                levels.append(
                    TACCompressor().decompress_region(
                        comp, 0, whole, decode_workers=pool_width()
                    )
                )
        state.extra["refs"] = [
            np.ascontiguousarray(levels[entry][tuple(slice(lo, hi) for lo, hi in region)])
            for entry, region in state.extra["rois"]
        ]

    def _request(self, state: State, entry: int, region, cold: bool):
        reader = state.extra["reader"]
        if cold:
            reader.cache.clear()
        t0 = time.perf_counter()
        data, _stats = reader.read_region(state.extra["keys"][entry], 0, region)
        return time.perf_counter() - t0, data

    def run_pass(self, state, index):
        """64 ROIs of the pool cold, an untimed cache fill, then the same ROIs warm."""
        ops = []
        reader = state.extra["reader"]
        first = index * ROIS_PER_PASS
        indices = [(first + i) % ROI_POOL for i in range(ROIS_PER_PASS)]
        for phase in ("cold", "warm"):
            if phase == "warm":
                for key in state.extra["keys"]:
                    reader.read_level(key, 0)
            for idx in indices:
                entry, region = state.extra["rois"][idx]
                seconds, data = self._request(state, entry, region, phase == "cold")
                ok = gates.identical(data, state.extra["refs"][idx])
                ops.append(Op(seconds, int(data.nbytes), idx, failed=not ok, phase=phase))
        return ops

    def check(self, state):
        from repro.core.container import resolve_global_eb

        failed = set()
        sq = {idx: 0.0 for idx in range(len(state.inputs))}
        count = dict.fromkeys(sq, 0)
        bounds = [resolve_global_eb(ds, ingest_bound(), "rel") for ds in state.inputs]
        for idx, ((entry, region), ref) in enumerate(
            zip(state.extra["rois"], state.extra["refs"])
        ):
            finest = state.inputs[entry].levels[0]
            window = tuple(slice(lo, hi) for lo, hi in region)
            mask = finest.mask[window]
            want = finest.data[window][mask]
            if not gates.within_bound(want, ref[mask], bounds[entry]):
                failed.add(idx)
            sq[entry] += gates.sq_error(want, ref[mask])
            count[entry] += int(mask.sum())
        psnrs = []
        for entry, ds in enumerate(state.inputs):
            values = np.concatenate([lvl.data[lvl.mask] for lvl in ds.levels])
            psnrs.append(
                gates.psnr_db(float(values.max() - values.min()), sq[entry], count[entry])
            )
        original = sum(ds.original_bytes() for ds in state.inputs)
        ratio = original / state.extra["report"].write.total_bytes()
        return Check(failed, ratio, float(np.mean(psnrs)))

    def memory_pass(self, state):
        """One cold request per entry for the ROI touching the most bricks."""
        for entry in range(len(state.inputs)):
            self._request(state, entry, self._worst_roi(state), cold=True)

    def close(self, state):
        reader = state.extra.get("reader")
        if reader is not None:
            reader.close()
        super().close(state)


WORKLOADS = {wl.name: wl for wl in (CompressWorkload, IngestWorkload, ServeWorkload)}
