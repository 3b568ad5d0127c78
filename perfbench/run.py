"""Benchmark for the rookbound package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src.
Workloads are density-sparse, certify and exact-poly (see workloads.py).
Load is closed-loop with one client: one process runs one op at a time,
each starting when the previous one returns.

Every pass runs in a fresh interpreter (worker.py) whose environment
drops ROOKBOUND_MAX_ENUM and ROOKBOUND_MAX_COMBOS, so the default
budgets apply and no module-level cache carries over between passes.

--trace 0 times ops for S seconds in SLICES passes of S/SLICES seconds
each and reports the end-to-end metrics: set-up time as the median over
the passes, the timings as medians over equal time slices of the run.
--trace 1 times ops untraced for S/2 seconds, runs the same ops again
with layer spans recorded, then runs the layer probes, and reports the
per-layer metrics and the tracing overhead.

The last line printed is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every op
succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
# The shared machine slows down in bursts of several seconds (3 s
# slices of one exact-poly run read 2.0-2.3 ms p50, and 3.1-3.4 ms
# in a 6 s burst).  Timing metrics are therefore the median over equal
# time slices of the run of each slice's figure, which a burst covering
# less than half the run does not move.  Each slice's worth of ops also
# runs in an interpreter of its own, so set-up is timed SLICES times
# spread over the run, and its median is as robust.
SLICES = 6


def time_limit(seconds: float) -> float:
    """Wall-clock limit of a whole run: the measured time, a traced pass
    that may take twice as long as its plain pass, and a fixed allowance
    for set-up, checks and probes."""
    return 3 * seconds + 60


class BenchError(Exception):
    pass


def run_pass(spec: dict, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"a pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_setup(passes: list[dict]) -> dict[str, float]:
    phases = ("import_s", "fields_s", "inputs_s")
    out = {phase: statistics.median(p["setup"][phase] for p in passes) for phase in phases}
    out["total_s"] = statistics.median(sum(p["setup"][ph] for ph in phases) for p in passes)
    return out


def p90(lat: list[float]) -> float:
    return statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]


def time_slices(lat: list[float]) -> tuple[list[list[float]], float]:
    """Cut back-to-back ops into SLICES equal stretches of time, each op
    going to the stretch in which it ends; return them and their length."""
    width = sum(lat) / SLICES
    slices: list[list[float]] = [[] for _ in range(SLICES)]
    elapsed = 0.0
    for x in lat:
        elapsed += x
        slices[min(int(elapsed / width), SLICES - 1)].append(x)
    return slices, width


def src_lines(src: str) -> int:
    total = 0
    for root, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def untraced(args, base: dict, env: dict, deadline: float):
    passes, measured, start = [], 0.0, 0
    # a pass also ends early when its round of distinct inputs is used
    # up; the next round runs in a fresh interpreter
    while measured < args.seconds:
        budget = min(args.seconds / SLICES, args.seconds - measured)
        p = run_pass({**base, "start": start, "budget": budget, "rerun": True}, env, deadline)
        if not p["lat"]:
            raise BenchError("a pass ran no op")
        passes.append(p)
        measured += p["window_s"]
        start = p["next"]
    slices, width = time_slices([x for p in passes for x in p["lat"]])
    filled = [s for s in slices if s]
    failures = {}
    for p in passes:
        failures.update(p["failures"])
    setup = median_setup(passes)
    metrics = {
        "setup_s": (setup["total_s"], "s"),
        "ops_per_s": (statistics.median(len(s) / width for s in slices), "1/s"),
        "op_p50_ms": (statistics.median(statistics.median(s) for s in filled) * 1e3, "ms"),
        "op_p90_ms": (statistics.median(p90(s) for s in filled) * 1e3, "ms"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024, "MB"),
    }
    return passes, metrics, failures, sum(map(len, slices)), measured


def traced(args, base: dict, env: dict, deadline: float):
    plain = run_pass({**base, "budget": args.seconds / 2}, env, deadline)
    spans = run_pass({**base, "count": len(plain["lat"]), "trace": True}, env, deadline)
    failures = {**plain["failures"], **spans["failures"]}
    for i, (a, b) in enumerate(zip(plain["digests"], spans["digests"])):
        if a != b:
            failures.setdefault(str(i), f"op {i} differs between the plain and traced pass")
    setup = median_setup([plain])
    metrics = dict(spans["layers"])
    for phase in ("import_s", "fields_s", "inputs_s"):
        metrics[f"setup.{phase}"] = (setup[phase], "s")
    metrics["trace.overhead_ratio"] = (spans["window_s"] / plain["window_s"], "ratio")
    attempted = len(plain["lat"]) + len(spans["lat"])
    return [plain, spans], metrics, failures, attempted, plain["window_s"] + spans["window_s"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "rookbound", "__init__.py")):
        print("error: run from the root of a rookbound checkout (no src/rookbound here)",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items()
           if k not in ("ROOKBOUND_MAX_ENUM", "ROOKBOUND_MAX_COMBOS")}
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0")
    base = {"workload": args.workload, "seed": args.seed, "trace": False, "start": 0}
    deadline = time.monotonic() + time_limit(args.seconds)
    try:
        mode = traced if args.trace else untraced
        passes, metrics, failures, attempted, measured = mode(args, base, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    lat = [x for p in passes for x in p["lat"]]
    slices, width = time_slices(lat)
    beyond = min(sum(1 for x in s if x > p90(s)) for s in slices) if all(slices) else 0
    print(f"rookbound benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"run record: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"src lines {src_lines(src)}, {len(passes)} measured pass(es), "
          f"{len(lat)} ops in {measured:.2f} s")
    if not args.trace:
        print(f"setup_s is the median of {len(passes)} set-ups; "
              f"timing metrics are medians over {SLICES} slices of {width:.2f} s holding "
              f"{min(map(len, slices))}-{max(map(len, slices))} ops, with at least "
              f"{beyond} samples beyond each slice's p90")
        for k, s in enumerate(slices):
            if s:
                print(f"  slice {k}: {len(s) / width:10.4f} ops/s  p50 "
                      f"{statistics.median(s) * 1e3:9.3f} ms  p90 {p90(s) * 1e3:9.3f} ms")
    kinds: dict[str, list[float]] = {}
    for p in passes:
        for kind, x in zip(p["kinds"], p["lat"]):
            kinds.setdefault(kind, []).append(x)
    for kind, xs in kinds.items():
        print(f"  op {kind:<16} n={len(xs):<6} p50 {statistics.median(xs) * 1e3:9.3f} ms  "
              f"p90 {p90(xs) * 1e3:9.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':<52} {len(failures) / attempted:14.6g} ratio "
          f"({len(failures)}/{attempted})")
    for index, message in list(failures.items())[:10]:
        print(f"FAILED op {index}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
