"""The benchmark's three workloads.

Each workload turns the workload seed into a list of operations (the
package never sees the seed), runs one operation at a time, and checks
every output by a route other than the one under test.

* density-sparse: seeded trials of the sparse half of the density
  estimator, an early-exit projective scan over GF(4).
* certify: whole-space certification over odd q with no early exit,
  plus the brute-force census oracle over GF(2) and GF(3).
* exact-poly: the exact polynomial route through the command line,
  with no GF(q) scan at all.

Operations are grouped in rounds.  A round never repeats an input, so
a fresh interpreter per round keeps every module-level cache cold for
inputs it has not seen; run.py starts a new interpreter when a round
is used up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def _diagonal_counts(cols: tuple[int, ...]) -> list[int]:
    """|D_r ∩ F| for r = 1..m+n-1; cell (i, j) lies on diagonal m - j + i."""
    m, n = len(cols), cols[-1]
    counts = [0] * (m + n - 1)
    for j, c in enumerate(cols, start=1):
        for i in range(1, c + 1):
            counts[m - j + i - 1] += 1
    return counts


def _kappa_vector(cols: tuple[int, ...], d: int) -> list[int]:
    m = len(cols)
    return [sum(max(c - j, 0) for c in cols[: m - d + 1 + j]) for j in range(d)]


def _gaussian_binomial(a: int, b: int, q: int) -> int:
    """[a choose b]_q by the q-Pascal rule, one row at a time."""
    row = [1] + [0] * b
    for top in range(1, a + 1):
        for k in range(min(top, b), 0, -1):
            row[k] = row[k - 1] + q**k * row[k]
    return row[b]


def _boards_of_size(size: int) -> list[tuple[int, ...]]:
    """Every Ferrers diagram with exactly `size` dots, as column heights."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, low: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for c in range(low, remaining + 1):
            prefix.append(c)
            rec(prefix, remaining - c, c)
            prefix.pop()

    rec([], size, 1)
    return out


class DensitySparse:
    """One op is one trial of estimate_density([5,5,5,5,5,5], d=4, k=12,
    q=4, trials=1, seed=s).

    The trial seeds s come from a committed population of trials
    (reference/density-sparse-trials.json, written by make_reference.py),
    sorted by the position of each trial's first low-rank element, which
    sets the work of the early-exit scan, and cut into strata of STRATUM
    trials.  A round takes one trial from every stratum, chosen by the
    workload seed, in a fixed order that spreads every prefix evenly over
    the strata.  A seeded shuffle of the population would add input noise
    of 0.10-0.17 (quartile distance over median) to a run's timings;
    stratified trials, which give every run the same spread of scan
    lengths, add about 0.01 (input_spread.py measures both).

    The reference trials of the sparse case all report hits 0, so the
    check also runs DENSE, criterion 12's dense case, on the committed
    dense trials, all of which report hits 1: a scan that wrongly
    reports a low-rank element shows there.  These run after the timed
    window and their failures carry negative indices.
    """

    name = "density-sparse"
    COLS, D, K, Q = (5,) * 6, 4, 12, 4
    DENSE = ((2, 3, 3, 3, 4, 5), 4, 3, 9)  # columns, d, k, q
    q_values = (Q, DENSE[3])
    STRATUM = 8
    follow_ups = ()
    reference_file = os.path.join(REFERENCE_DIR, "density-sparse-trials.json")

    def __init__(self, rb, seed: int):
        self.rb, self.seed = rb, seed

    def prepare(self) -> None:
        self.diagram = self.rb.FerrersDiagram(self.COLS)
        with open(self.reference_file) as fh:
            reference = json.load(fh)
        trials = reference["sparse"]["trials"]
        self.dense = [(seed, hits) for seed, _, hits in reference["dense"]["trials"]]
        self.hits = {seed: hits for seed, _, hits in trials}
        by_work = sorted(trials, key=lambda t: (t[1] is None, t[1] or 0, t[0]))
        ranked = [seed for seed, _, _ in by_work]
        strata = [ranked[i:i + self.STRATUM]
                  for i in range(0, len(ranked) - self.STRATUM + 1, self.STRATUM)]
        rng = random.Random(f"density-sparse:{self.seed}")
        self.choices = [rng.sample(stratum, len(stratum)) for stratum in strata]
        # step i visits the stratum holding the rank of frac(i * golden ratio)
        keys = [(i * 0.6180339887498949) % 1.0 for i in range(len(strata))]
        self.order = [0] * len(strata)
        for rank, step in enumerate(sorted(range(len(strata)), key=keys.__getitem__)):
            self.order[step] = rank
        self.round_length = len(strata)

    def make_round(self, r: int) -> list[tuple]:
        return [("trial", self.choices[j][r % self.STRATUM]) for j in self.order]

    def run(self, op: tuple):
        est = self.rb.estimate_density(self.diagram, self.D, self.K, self.Q, 1, seed=op[1])
        return est.hits, est.trials, est.seed

    def check(self, executed: list[tuple[int, tuple, object]]) -> dict[int, str]:
        bad = {}
        for index, op, (hits, trials, seed) in executed:
            if trials != 1 or seed != op[1]:
                bad[index] = f"malformed estimate trials={trials} seed={seed}"
            elif hits != self.hits[op[1]]:
                bad[index] = f"trial seed {op[1]}: hits {hits}, reference {self.hits[op[1]]}"
        cols, d, k, q = self.DENSE
        diagram = self.rb.FerrersDiagram(cols)
        for j, (seed, want) in enumerate(self.dense):
            hits = self.rb.estimate_density(diagram, d, k, q, 1, seed=seed).hits
            if hits != want:
                bad[-1 - j] = f"dense check trial seed {seed}: hits {hits}, reference {want}"
        return bad


class Certify:
    """Exhaustive and sampled verify_space on Reed-Solomon diagonal
    constructions over GF(5), GF(7), GF(9) and GF(243), and the
    brute-force census over GF(2) and GF(3).  One round takes one input
    of each kind in turn, so every run sees the same mix."""

    name = "certify"
    q_values = (2, 3, 5, 7, 9, 243)
    # (label, q, dimension k); the projective point count (q^k-1)/(q-1)
    # keeps each exhaustive op between about 20 and 150 ms today
    EXHAUSTIVE = (("exhaustive-q5", 5, 6), ("exhaustive-q7", 7, 5),
                  ("exhaustive-q9", 9, 4), ("exhaustive-q243", 243, 2))
    SAMPLED_Q, SAMPLED_MIN_K, SAMPLES = 9, 9, 200  # 9^9/8 points exceed the default budget
    CENSUS = (("census-q2", 2, (15,)), ("census-q3", 3, (9, 10)))
    follow_ups = ()

    def __init__(self, rb, seed: int):
        self.rb, self.seed = rb, seed

    def prepare(self) -> None:
        rb = self.rb
        pools: dict[str, list] = {label: [] for label, _, _ in self.EXHAUSTIVE}
        pools["sampled-q9"] = []
        for n in range(2, 8):
            for m in range(2, 8):
                for diagram in rb.enumerate_diagrams(n, m):
                    first = _diagonal_counts(diagram.cols)[: max(n, m)]
                    threshold = max(first) - 1
                    for d in range(2, min(n, m) + 1):
                        k = sum(c - d + 1 for c in first if c >= d)
                        for label, q, want in self.EXHAUSTIVE:
                            if k == want and q >= threshold:
                                pools[label].append((diagram, d, k))
                        if k >= self.SAMPLED_MIN_K and self.SAMPLED_Q >= threshold:
                            pools["sampled-q9"].append((diagram, d, k))
        for label, _, sizes in self.CENSUS:
            pools[label] = [rb.FerrersDiagram(cols) for s in sizes for cols in _boards_of_size(s)]
        self.pools = pools
        self.round_length = len(pools) * min(len(p) for p in pools.values())

    def make_round(self, r: int) -> list[tuple]:
        rng = random.Random(f"certify:{self.seed}:{r}")
        order = {label: rng.sample(pool, len(pool)) for label, pool in self.pools.items()}
        for label, _, _ in self.CENSUS:
            # the census caches the q^c column vectors of every column
            # height c it meets; a round opens with one board of each
            # height, tallest first, so every run holds the same cache
            # and peak memory does not depend on the boards drawn
            first = {}
            for diagram in order[label]:
                first.setdefault(diagram.n, diagram)
            opening = [first[n] for n in sorted(first, reverse=True)]
            order[label] = opening + [f for f in order[label] if f not in opening]
        ops = []
        for t in range(self.round_length // len(order)):
            for label, q, _ in self.EXHAUSTIVE:
                ops.append((label, q, *order[label][t]))
            diagram, d, k = order["sampled-q9"][t]
            ops.append(("sampled-q9", self.SAMPLED_Q, diagram, d, k, rng.randrange(2**32)))
            for label, q, _ in self.CENSUS:
                ops.append((label, q, order[label][t]))
        return ops

    def run(self, op: tuple):
        rb = self.rb
        label, q = op[0], op[1]
        if label.startswith("census"):
            return rb.brute_force_census(op[2], q, jobs=1).counts
        space = rb.build_space(op[2], op[3], q)
        if label.startswith("sampled"):
            rep = rb.verify_space(space, sample=self.SAMPLES, seed=op[5])
        else:
            rep = rb.verify_space(space)
        return space.dimension, rep.ok, rep.mode, rep.checked, rep.basis_independent

    def check(self, executed: list[tuple[int, tuple, object]]) -> dict[int, str]:
        bad = {}
        for index, op, out in executed:
            label, q = op[0], op[1]
            if label.startswith("census"):
                diagram = op[2]
                if sum(out) != q**diagram.size:
                    bad[index] = f"census of {diagram} sums to {sum(out)}, not {q}^{diagram.size}"
                    continue
                for r, count in enumerate(out):
                    poly = self.rb.census_polynomial(diagram, r).evaluate(q)
                    if poly != count:
                        bad[index] = f"rank {r} of {diagram}: oracle {count}, polynomial {poly}"
                        break
                continue
            dimension, ok, mode, checked, independent = out
            k = op[4]
            if label.startswith("sampled"):
                want_mode, want_checked = "sampled", self.SAMPLES
            else:
                want_mode, want_checked = "exhaustive", (q**k - 1) // (q - 1)
            want = (k, True, want_mode, want_checked, True)
            if (dimension, ok, mode, checked, independent) != want:
                bad[index] = (f"{label} {op[2]} d={op[3]}: got dim={dimension} ok={ok} "
                              f"mode={mode} checked={checked} independent={independent}, "
                              f"want dim={k} checked={want_checked}")
        return bad


class ExactPoly:
    """The command line over seeded diagrams up to 7x7: for each board,
    in this fixed order, census (all ranks at one q), ball, mds-check
    and exist-bound.  Each round starts with one verify-golden."""

    name = "exact-poly"
    q_values = ()  # the polynomial route builds no field table
    QS = (2, 3, 4, 5, 7, 8, 9)
    # a board's ball and exist-bound are checked against its census, so
    # a pass never splits a board's commands
    follow_ups = ("ball", "mds-check", "exist-bound")

    def __init__(self, rb, seed: int):
        self.rb, self.seed = rb, seed

    def prepare(self) -> None:
        rb = self.rb
        golden = {
            entry["diagram"]
            for entries in rb.golden.load_golden_data().values()
            if isinstance(entries, list)
            for entry in entries
            if isinstance(entry, dict) and "diagram" in entry
        }
        # boards the golden suite computes are left out, so no board op
        # starts with a cache filled by verify-golden
        self.pool = [
            diagram
            for n in range(2, 8)
            for m in range(2, 8)
            for diagram in rb.enumerate_diagrams(n, m)
            if str(diagram) not in golden
        ]
        self.round_length = 1 + 4 * len(self.pool)

    def make_round(self, r: int) -> list[tuple]:
        rng = random.Random(f"exact-poly:{self.seed}:{r}")
        ops: list[tuple] = [("verify-golden", None, ["verify-golden"])]
        for diagram in rng.sample(self.pool, len(self.pool)):
            cols, text = diagram.cols, str(diagram)
            top = min(diagram.n, diagram.m)
            q = rng.choice(self.QS)
            r_ball = rng.randint(0, top)
            ds = [d for d in range(2, top + 1) if min(_kappa_vector(cols, d)) >= 1]
            d = rng.choice(ds)
            k = rng.randint(1, min(_kappa_vector(cols, d)))
            params = (cols, q, r_ball, d, k)
            ops += [
                ("census", params, ["census", text, "-q", str(q)]),
                ("ball", params, ["ball", text, "-r", str(r_ball), "-q", str(q)]),
                ("mds-check", params, ["mds-check", text, "-d", str(d)]),
                ("exist-bound", params,
                 ["exist-bound", text, "-d", str(d), "-k", str(k), "-q", str(q)]),
            ]
        return ops

    def run(self, op: tuple):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.rb.cli.main(["--format", "json", *op[2]])
        return rc, out.getvalue(), err.getvalue()

    def check(self, executed: list[tuple[int, tuple, object]]) -> dict[int, str]:
        bad = {}
        census: dict[tuple, list[int]] = {}
        for index, (kind, params, argv), (rc, stdout, stderr) in executed:
            if rc != 0:
                bad[index] = f"{' '.join(argv)} exited {rc}: {stderr.strip()[:200]}"
                continue
            payload = json.loads(stdout)
            if kind == "verify-golden":
                failed = [e["label"] for e in payload if not e["ok"]]
                if failed:
                    bad[index] = f"golden mismatches: {failed[:3]}"
                continue
            cols, q, r_ball, d, k = params
            size = sum(cols)
            if kind == "census":
                counts = payload["counts"]
                if sum(counts) != q**size or payload["ranks"] != list(range(len(counts))):
                    bad[index] = f"census {argv[1]} at q={q} sums to {sum(counts)}, not {q}^{size}"
                census[cols] = counts
            elif kind == "mds-check":
                vector = _kappa_vector(cols, d)
                surplus = sum(c - d + 1 for c in _diagonal_counts(cols) if c > d - 1)
                want = (min(vector), vector, surplus, min(vector) == surplus)
                got = (payload["kappa"], payload["kappa_vector"], payload["diag_sum_all"],
                       payload["mds_constructible"])
                if got != want:
                    bad[index] = f"mds-check {argv[1]} d={d}: got {got}, want {want}"
            elif cols not in census:
                bad[index] = f"{kind} {argv[1]} has no census to check against"
            elif kind == "ball":
                want = sum(census[cols][: r_ball + 1])
                if payload["ball"] != want:
                    bad[index] = f"ball {argv[1]} r={r_ball} q={q}: {payload['ball']} != {want}"
            else:
                below = sum(census[cols][:d])
                want = (_gaussian_binomial(size, k, q)
                        - (below - 1) // (q - 1) * _gaussian_binomial(size - 1, k - 1, q))
                if payload["lower_bound"] != want:
                    bad[index] = f"exist-bound {argv[1]}: {payload['lower_bound']} != {want}"
        return bad


WORKLOADS = {w.name: w for w in (DensitySparse, Certify, ExactPoly)}
