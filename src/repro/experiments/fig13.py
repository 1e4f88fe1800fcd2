"""Fig. 13 — pre-process time of OpST vs AKDTree across densities.

Paper: OpST's time grows roughly linearly with density (its partial BS
updates scale with ``maxSide``, which tracks density) while AKDTree's is
flat; the curves cross around 50%, which fixes the T1 threshold.  We time
only the pre-process (empty-region removal), not the compression.

That growth is the paper's cost model, which this implementation no
longer shows: OpST here answers each anchor with a visit-time cube query
instead of bounded BS-table updates, so its time stays below AKDTree's
across densities.  T1/T2 keep the paper's values, so strategy choice and
the compressed bytes are unaffected.

To isolate density as the variable (the paper's levels all live on 512³/256³
grids), we synthesize masks of controlled density on ONE fixed grid by
quantile-thresholding the z10 baryon field at block granularity — the same
mechanism the refinement criterion uses — and time both strategies on each.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRLevel
from repro.core.density import Strategy
from repro.experiments.common import ExperimentResult, dataset, experiment_scale
from repro.experiments.strategies import preprocess_time

DEFAULT_DENSITIES = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)


def mask_at_density(field: np.ndarray, density: float, block: int = 2) -> np.ndarray:
    """Blocky mask of the requested density: top-|density| blocks by value."""
    n = field.shape[0]
    nb = n // block
    view = field.reshape(nb, block, nb, block, nb, block)
    score = view.max(axis=(1, 3, 5)).ravel()
    n_blocks = max(1, int(round(density * score.size)))
    chosen = np.zeros(score.size, dtype=bool)
    chosen[np.argpartition(score, -n_blocks)[-n_blocks:]] = True
    coarse = chosen.reshape(nb, nb, nb)
    return np.repeat(np.repeat(np.repeat(coarse, block, 0), block, 1), block, 2)


def run(
    scale: int | None = None,
    densities=DEFAULT_DENSITIES,
    repeats: int = 3,
) -> ExperimentResult:
    scale = experiment_scale(scale)
    base = dataset("Run1_Z10", scale)
    field = base.to_uniform()
    n = field.shape[0]
    result = ExperimentResult(
        experiment="fig13",
        title=f"Pre-process time vs density on a fixed {n}^3 grid",
        paper_claim=(
            "OpST time grows ~linearly with density; AKDTree stays flat; crossing ~50% = T1 "
            "(the paper's cost model — the visit-time OpST query here no longer shows it)"
        ),
    )
    for density in densities:
        mask = mask_at_density(field, density)
        data = np.where(mask, field, field.dtype.type(0))
        level = AMRLevel(data=data, mask=mask, level=0)
        result.rows.append(
            {
                "density": level.density(),
                "grid": n,
                "opst_seconds": preprocess_time(level, Strategy.OPST, repeats=repeats),
                "akdtree_seconds": preprocess_time(level, Strategy.AKDTREE, repeats=repeats),
            }
        )
    opst = np.array([r["opst_seconds"] for r in result.rows])
    akd = np.array([r["akdtree_seconds"] for r in result.rows])
    result.notes = (
        f"OpST low->high density: {opst[0] * 1e3:.1f}ms -> {opst[-1] * 1e3:.1f}ms; "
        f"AKDTree spread: {akd.min() * 1e3:.1f}-{akd.max() * 1e3:.1f}ms; "
        "OpST uses a visit-time cube query, not the paper's O(N^2*d) bounded "
        "updates, so no density crossing is expected (T1 stays at the paper's value)"
    )
    return result
