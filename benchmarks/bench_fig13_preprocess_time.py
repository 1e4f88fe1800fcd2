"""Fig. 13 — pre-process time of OpST vs AKDTree across densities."""

import numpy as np

from benchmarks.conftest import run_experiment
from repro.experiments import fig13


def bench_fig13_preprocess_time(benchmark, report):
    result = run_experiment(benchmark, fig13.run, report)
    rows = result.rows
    opst = np.array([r["opst_seconds"] for r in rows])
    akd = np.array([r["akdtree_seconds"] for r in rows])
    # The paper's shape (OpST growing past AKDTree with density) comes from
    # its O(N^2*d) bounded BS updates.  OpST here answers each anchor with a
    # visit-time cube query, so its peak stays below AKDTree's instead.
    benchmark.extra_info["opst_growth"] = round(float(opst[3:].mean() / opst[0]), 2)
    benchmark.extra_info["akd_over_opst"] = round(float(akd.max() / opst.max()), 3)
    assert opst.max() < akd.max(), "visit-time OpST should stay below AKDTree's peak"
