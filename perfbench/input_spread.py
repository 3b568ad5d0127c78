"""Input noise of the density-sparse workload, with no machine noise.

    python3 perfbench/input_spread.py

Compares two ways of choosing a run's trials from the committed
population: the stratified rounds of workloads.DensitySparse, and a
seeded shuffle of the whole population.  Each trial's cost is taken as
its first-low-rank position, which is the work of the early-exit scan
(measured latency is close to proportional to it).  For each of 200
workload seeds it takes trials until a run's worth of work (OPS trials
at the median cost) is done, computes ops_per_s, op_p50_ms and
op_p90_ms as run.py does (medians over equal time slices), and prints
each metric's spread over the seeds: (q3 - q1) / median.
"""

from __future__ import annotations

import json
import random
import statistics

import run
import workloads

OPS = 300  # trials in a 30 s run, as measured
SEEDS = 200


def figures(costs: list[int], budget: float) -> tuple[float, float, float]:
    taken, total = [], 0
    for c in costs:
        taken.append(c)
        total += c
        if total >= budget:
            break
    slices, width = run.time_slices(taken)
    return (statistics.median(len(s) / width for s in slices),
            statistics.median(statistics.median(s) for s in slices),
            statistics.median(run.p90(s) for s in slices))


class _Package:
    """The one name DensitySparse.prepare needs from the package."""
    FerrersDiagram = tuple


def main() -> None:
    with open(workloads.DensitySparse.reference_file) as fh:
        cost = {seed: pos for seed, pos, _ in json.load(fh)["sparse"]["trials"]}
    budget = OPS * statistics.median(cost.values())

    def stratified(seed: int) -> list[int]:
        wl = workloads.DensitySparse(_Package, seed)
        wl.prepare()
        return [cost[op[1]] for r in range(wl.STRATUM) for op in wl.make_round(r)]

    def shuffled(seed: int) -> list[int]:
        return [cost[s] for s in random.Random(seed).sample(sorted(cost), len(cost))]

    for name, order in (("stratified", stratified), ("shuffled", shuffled)):
        runs = [figures(order(seed), budget) for seed in range(SEEDS)]
        spreads = []
        for k, metric in enumerate(("ops_per_s", "op_p50_ms", "op_p90_ms")):
            values = [r[k] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spreads.append(f"{metric} {(q3 - q1) / statistics.median(values):.3f}")
        print(f"{name:<11} spread over {SEEDS} seeds: " + ", ".join(spreads))


if __name__ == "__main__":
    main()
