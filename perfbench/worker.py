"""One pass of a workload in a fresh interpreter.

run.py starts this script with one JSON argument describing the pass and
reads the JSON object it prints as its last line.  A pass sets up
(import, field tables, inputs), runs ops one after another from a given
op index until its time budget, its op count or the current round runs
out, and then checks every output.  Only the ops are timed.  An op
whose kind the workload lists in follow_ups runs in the same pass as
the op before it, even past the time budget.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from time import perf_counter


def digest(out) -> str:
    return hashlib.blake2b(repr(out).encode(), digest_size=8).hexdigest()


def main() -> None:
    spec = json.loads(sys.argv[1])
    start = perf_counter()
    import rookbound
    import rookbound.cli
    import rookbound.golden
    import_s = perf_counter() - start

    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
        tracer.enabled = True
    wl = workloads.WORKLOADS[spec["workload"]](rookbound, spec["seed"])
    start = perf_counter()
    for q in wl.q_values:
        rookbound.field_table(q)
    fields_s = perf_counter() - start
    start = perf_counter()
    wl.prepare()
    first = spec["start"]
    round_index = first // wl.round_length
    ops = wl.make_round(round_index)
    inputs_s = perf_counter() - start
    result = {"setup": {"import_s": import_s, "fields_s": fields_s, "inputs_s": inputs_s}}

    offset = round_index * wl.round_length
    stop = offset + len(ops)
    if "count" in spec:
        stop = min(stop, first + spec["count"])
    index, lat, outputs, failures = first, [], [], {}
    begin = perf_counter()
    deadline = begin + spec.get("budget", float("inf"))
    while index < stop:
        op = ops[index - offset]
        if perf_counter() >= deadline and index > first and op[0] not in wl.follow_ups:
            break
        if tracer:
            tracer.op = index
        t0 = perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # a failed op is counted and reported, not fatal
            out = None
            failures[index] = f"{type(exc).__name__}: {exc}"
        lat.append(perf_counter() - t0)
        outputs.append(out)
        index += 1
    window = perf_counter() - begin
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.enabled = False
    caches = tracing.cache_metrics()

    executed = [(first + i, ops[first + i - offset], out)
                for i, out in enumerate(outputs) if out is not None]
    failures.update(wl.check(executed))
    if spec.get("rerun") and executed:
        for i, op, out in {executed[0][0]: executed[0], executed[-1][0]: executed[-1]}.values():
            try:
                same = digest(wl.run(op)) == digest(out)
            except Exception as exc:  # reported like any failed op
                failures.setdefault(i, f"re-run raised {type(exc).__name__}: {exc}")
                continue
            if not same:
                failures.setdefault(i, f"op {i} gave a different output when re-run")
    result.update({
        "kinds": [ops[first + i - offset][0] for i in range(len(lat))],
        "lat": lat,
        "window_s": window,
        "next": index,
        "rss_kb": rss_kb,
        "failures": {str(i): msg for i, msg in sorted(failures.items())},
        "digests": [digest(out) for out in outputs],
    })
    if tracer:
        result["layers"] = {**tracer.layer_metrics(), **caches,
                            **tracing.probe_metrics(rookbound, spec["seed"])}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
