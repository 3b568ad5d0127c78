"""Layer spans recorded from outside the package, cache counters, and the
layer probes of the traced pass.

The tracer replaces each listed function by a wrapper in every rookbound
module that holds a binding to it: `from .gfmatrix import ball_size`
gives bounds and cli bindings of their own, and a call through an
unwrapped binding would be missed.  Spans stay in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import random
import statistics
import sys
from time import perf_counter

# (module, function) pairs wrapped in the traced pass
TARGETS = (
    ("gfmatrix", "estimate_density"),
    ("gfmatrix", "sample_subspace"),
    ("gfmatrix", "brute_force_census"),
    ("gfmatrix", "field_table"),
    ("gfmatrix", "census_polynomial"),
    ("gfmatrix", "ball_size"),
    ("construction", "verify_space"),
    ("construction", "build_space"),
    ("rooks", "rook_polynomial"),
    ("arith", "q_binomial_eval"),
    ("bounds", "existence_lower_bound"),
    ("bounds", "mds_constructible"),
    ("bounds", "kappa"),
    ("cli", "main"),
    ("golden", "run_golden_suite"),
)
# spans whose result is kept to count the work done
KEEP_RESULT = {"rooks.rook_polynomial", "construction.verify_space", "gfmatrix.brute_force_census"}
SELF_S = ("gfmatrix.estimate_density", "gfmatrix.sample_subspace", "construction.build_space",
          "gfmatrix.field_table", "rooks.rook_polynomial", "gfmatrix.census_polynomial",
          "gfmatrix.ball_size", "arith.q_binomial_eval", "bounds.existence_lower_bound",
          "bounds.mds_constructible", "bounds.kappa", "cli.main", "golden.run_golden_suite")
CALLS = ("gfmatrix.sample_subspace", "rooks.rook_polynomial")
CACHES = (("rooks", "_inv_distribution"), ("arith", "q_binomial"),
          ("gfmatrix", "field_table"), ("gfmatrix", "_column_vectors"))
RANK_PROBE_Q = (2, 3, 4, 5, 9)
FIELD_PROBE_Q = (4, 9, 243, 4096, 65536)


class Tracer:
    def __init__(self):
        # (op index, name, start, end, parent span index, kept result)
        self.spans: list = []
        self.stack: list[int] = []
        self.enabled = False
        self.op = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.op, name, start, end, parent, result if keep else None)

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "rookbound" or key.startswith("rookbound.")]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[f"rookbound.{module_name}"], attr)
            wrapped = self._wrap(f"{module_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        work: dict[str, float] = {}
        work_s: dict[str, float] = {}
        for index, (_, name, start, end, _, result) in enumerate(self.spans):
            own = end - start - child[index]
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if result is None:
                continue
            if name == "rooks.rook_polynomial":
                key, amount = "rooks.placements_per_s", result.evaluate(1)
            elif name == "gfmatrix.brute_force_census":
                key, amount = "gfmatrix.brute_force_census.matrices_per_s", result.total()
            else:
                key = f"construction.verify_space.points_per_s.{result.mode}"
                amount = result.checked
            work[key] = work.get(key, 0) + amount
            work_s[key] = work_s.get(key, 0.0) + own
        out = {f"{name}.self_s": (self_s.get(name, 0.0), "s") for name in SELF_S}
        out.update({f"{name}.calls": (calls.get(name, 0), "count") for name in CALLS})
        for key in ("rooks.placements_per_s", "gfmatrix.brute_force_census.matrices_per_s",
                    "construction.verify_space.points_per_s.exhaustive",
                    "construction.verify_space.points_per_s.sampled"):
            seconds = work_s.get(key, 0.0)
            out[key] = (work.get(key, 0) / seconds if seconds else 0.0, "1/s")
        return out


def cache_metrics() -> dict[str, tuple[int, str]]:
    """Sizes of the package's module-level caches, read via cache_info();
    a cache that no longer exists reads as 0."""
    out = {}
    for module_name, attr in CACHES:
        fn = getattr(sys.modules[f"rookbound.{module_name}"], attr, None)
        if not hasattr(fn, "cache_info"):  # the traced pass wraps field_table
            fn = getattr(fn, "__wrapped__", None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        prefix = f"cache.{module_name}.{attr}"
        out[f"{prefix}.currsize"] = (info.currsize if info else 0, "count")
        if attr == "_inv_distribution":
            out[f"{prefix}.hits"] = (info.hits if info else 0, "count")
    return out


def probe_metrics(rb, seed: int) -> dict[str, tuple[float, str]]:
    """Rank of random matrices on the full 5x6 board at each q, and
    FieldTable construction time at each q."""
    rng = random.Random(f"probe:{seed}")
    board = rb.FerrersDiagram((5,) * 6)
    out = {}
    for q in RANK_PROBE_Q:
        field = rb.field_table(q)
        mats = [rb.SupportedMatrix.from_vector(field, board, [rng.randrange(q) for _ in range(30)])
                for _ in range(200)]
        per_matrix = []
        for _ in range(5):
            start = perf_counter()
            for mat in mats:
                rb.matrix_rank(mat)
            per_matrix.append((perf_counter() - start) / len(mats))
        out[f"gfmatrix.matrix_rank_us.q{q}"] = (statistics.median(per_matrix) * 1e6, "us")
    for q in FIELD_PROBE_Q:
        start = perf_counter()
        rb.FieldTable(q)
        out[f"gfmatrix.FieldTable_build_ms.q{q}"] = ((perf_counter() - start) * 1e3, "ms")
    return out
