"""Write the committed trial population of the density-sparse workload.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout.  For each trial seed of the sparse
case (2000 trials) and of the dense check case (16 trials) it samples
the subspace that estimate_density(F, d, k, q, trials=1, seed=s) draws,
then walks iter_projective_ranks, which ranks every point in full
instead of stopping elimination early, to the first element of rank
below d.  It records that point's 1-based position (null when there is
none) and the hit count the estimator must report (0 when such an
element exists, else 1).  The position is the work an early-exit scan
does on the trial; workloads.py uses it only to stratify the sparse
trials.
"""

from __future__ import annotations

import json

import rookbound

import workloads

SPARSE_TRIALS = 2000
DENSE_TRIALS = 16


def first_low_rank(basis, d: int) -> int | None:
    for position, (_, rank) in enumerate(rookbound.gfmatrix.iter_projective_ranks(basis), 1):
        if rank < d:
            return position
    return None


def population(cols: tuple[int, ...], d: int, k: int, q: int, count: int) -> dict:
    diagram = rookbound.FerrersDiagram(cols)
    trials = []
    for seed in range(count):
        basis = rookbound.sample_subspace(diagram, q, k, seed=seed)
        position = first_low_rank(basis, d)
        trials.append([seed, position, 0 if position else 1])
    return {"diagram": list(cols), "d": d, "k": k, "q": q, "trials": trials}


def main() -> None:
    wl = workloads.DensitySparse
    reference = {
        "columns": ["seed", "first_low_rank_position", "hits"],
        "sparse": population(wl.COLS, wl.D, wl.K, wl.Q, SPARSE_TRIALS),
        "dense": population(*wl.DENSE, DENSE_TRIALS),
    }
    with open(wl.reference_file, "w") as fh:
        json.dump(reference, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
