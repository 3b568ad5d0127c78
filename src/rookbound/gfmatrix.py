"""Finite fields GF(q), matrices supported on a Ferrers diagram, exact
rank censuses, and randomized density estimation.

All GF(q) arithmetic takes one route, FieldTable: exp, log and Zech
logarithm tables built on the smallest primitive element serve every
field up to 2^16 elements, prime or extension, with XOR addition in
characteristic 2 as the only branch.

Two independent routes produce the rank census of F_q[F]:

* brute_force_census enumerates all q^|F| matrices and ranks each one;
  it is the oracle and is never used to build anything else;
* census_polynomial converts the rook-placement distribution into the
  polynomial counting matrices of each rank,
      P(F, r) = sum_C (q-1)^r q^(|F| - r - inv(C, F)),
  summed over r-rook placements C.

Their agreement on every board small enough to enumerate is what makes
the polynomial route trustworthy on boards that are not.

Rank questions about a span take one of two routes, and both rank with
_rank_of_rows, the one kernel:

* the projective scan: _first_witness ranks combinations from
  _iter_projective_rows (or _iter_random_rows) up to the first of
  rank < d.  Both modes of construction.verify_space run through it;
  min_rank walks the same iterator with the same kernel;
* the dual (kernel) route: _has_rank_below_dual visits the
  (n'-d+1)-dimensional subspaces U of GF(q)^n', n' = min(n, m), and
  asks whether the linear system U^T M(c) = 0 has a nonzero solution c.

estimate_density alone chooses between them, once per call: the dual
route when d <= n' and its [n', n'-d+1]_q subspaces are fewer than the
scan's (q^k - 1)/(q - 1) points (_dual_is_cheaper), the scan otherwise.
Both decide the same question exactly, so the choice never changes a
result, and the projective budget still bounds the work.
"""

from __future__ import annotations

import math
import operator
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .arith import NEG_INFINITY, IntPolynomial, q_binomial_eval
from .diagrams import FerrersDiagram
from .errors import BudgetExceeded, HypothesisViolation
from .rooks import rook_polynomial

DEFAULT_ENUM_BUDGET = 3**12
DEFAULT_COMBO_BUDGET = 1 << 23

PRNG_NAME = "python-random/MT19937"


def _budget(override: int | None, variable: str, default: int) -> int:
    """The caller's override, else the environment variable, else the
    default; a budget that is not a non-negative integer is refused."""
    if override is None:
        raw = os.environ.get(variable, str(default))
        if not raw.strip().isdecimal():
            raise HypothesisViolation(f"{variable} must be a non-negative integer, got {raw!r}")
        return int(raw)
    if not isinstance(override, int) or override < 0:
        raise HypothesisViolation(f"a budget must be a non-negative integer, got {override!r}")
    return override


# Miller-Rabin on the first 13 prime bases is exact below this bound,
# the smallest strong pseudoprime to all of them (Sorenson & Webster,
# Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES, for n >= 2.  False proves n composite
    at any size; True proves n prime only below _MR_EXACT_BELOW."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(q: int, k: int) -> int:
    """The largest r with r**k <= q, by bisection."""
    lo, hi = 1, 1 << (q.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= q:
            lo = mid
        else:
            hi = mid - 1
    return lo


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k, p prime; raise ValueError otherwise.

    Tries every exponent k from the largest possible down, taking the
    integer k-th root and testing it with _is_prime, so the cost grows
    with the bit length of q, not with sqrt(q).  A base that passes but
    lies beyond the exact Miller-Rabin range is refused, so the answer
    is never a guess.
    """
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # operator.index refuses a non-integer q with TypeError
    for k in range(operator.index(q).bit_length() - 1, 0, -1):
        p = _iroot(q, k)
        if p**k == q and _is_prime(p):
            if p >= _MR_EXACT_BELOW:
                raise ValueError(
                    f"{q} is not a prime power with a base below {_MR_EXACT_BELOW}, "
                    "the range where primality is exact"
                )
            return p, k
    raise ValueError(f"{q} is not a prime power")


def is_prime_power(q: int) -> bool:
    """Whether factor_prime_power accepts q."""
    try:
        factor_prime_power(q)
        return True
    except ValueError:
        return False


# Irreducible moduli for the small extension fields, as base-p digit
# tuples in ascending degree (monic).  These are the conventional
# choices, so generator matrices and test vectors are reproducible.
_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (3, 6, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
    81: (2, 0, 0, 2, 1),
    121: (2, 7, 1),
    125: (3, 3, 0, 1),
    128: (1, 1, 0, 0, 0, 0, 0, 1),
    169: (2, 12, 1),
    243: (1, 2, 0, 0, 0, 1),
    256: (1, 0, 1, 1, 1, 0, 0, 0, 1),
}


def _poly_remainder(dividend: list[int], divisor: tuple[int, ...], p: int) -> list[int]:
    """Remainder of monic polynomial division over GF(p), digit lists
    in ascending degree."""
    rem = list(dividend)
    d = len(divisor) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        coef = rem[top]
        if coef:
            for t in range(d + 1):
                rem[top - d + t] = (rem[top - d + t] - coef * divisor[t]) % p
    return rem[:d]


def _poly_is_irreducible(digits: tuple[int, ...], p: int) -> bool:
    """Trial division: a composite of degree k has a monic factor of
    degree at most k // 2.  Degrees here never exceed 16."""
    deg = len(digits) - 1
    if deg == 1:
        return True
    for e in range(1, deg // 2 + 1):
        for code in range(p**e):
            divisor = []
            c = code
            for _ in range(e):
                divisor.append(c % p)
                c //= p
            divisor.append(1)
            if not any(_poly_remainder(list(digits), tuple(divisor), p)):
                return False
    return True


def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over GF(p), by the integer
    encoding of the non-leading digits."""
    for code in range(p**k):
        digits = []
        c = code
        for _ in range(k):
            digits.append(c % p)
            c //= p
        candidate = tuple(digits) + (1,)
        if _poly_is_irreducible(candidate, p):
            return candidate
    raise RuntimeError("unreachable: irreducible polynomials exist for every degree")


class FieldTable:
    """Arithmetic for GF(q), q = p**k at most 2**16.

    Elements are integers 0..q-1; for extensions the base-p digits of an
    element are the coefficients of its polynomial representative.  Every
    operation reads three tables built on the smallest primitive element
    g, so construction is deterministic per q:

    * exp[t] = g^t, stored twice over so sums of two logs need no modulo;
    * log, its inverse on the nonzero elements;
    * zech[t] = log(1 + g^t), None where 1 + g^t = 0 (Zech logarithms).

    Multiplication adds logs, and addition of nonzero elements is
    g^i + g^j = g^i (1 + g^(j-i)) = exp[i + zech[j - i]], the same formula
    for prime and extension fields.  Characteristic 2 adds by XOR of the
    digit bits instead, which is cheaper and gives the same result.
    """

    def __init__(self, q: int):
        if q > 1 << 16:
            raise ValueError("fields beyond 2^16 elements are not supported")
        p, k = factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self.modulus = None if k == 1 else _IRREDUCIBLE.get(q) or _find_irreducible(p, k)
        self._build_tables()

    # raw polynomial-basis arithmetic, used only while building the tables
    def _raw_mul(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        da = [(a // p**t) % p for t in range(k)]
        db = [(b // p**t) % p for t in range(k)]
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] += ai * bj
        rem = _poly_remainder(prod, self.modulus, p)
        return sum((c % p) * p**t for t, c in enumerate(rem))

    def _raw_pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._raw_mul(result, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return result

    def _build_tables(self):
        q, p = self.q, self.p
        order = q - 1
        # g is primitive iff g^(order/r) != 1 for every prime r dividing
        # the order; for q = 2 there is no such r and g = 1
        primes = [
            r for r in range(2, q)
            if order % r == 0 and all(r % s for s in range(2, math.isqrt(r) + 1))
        ]
        self.generator = next(
            g for g in range(1, q)
            if all(self._raw_pow(g, order // r) != 1 for r in primes)
        )
        exp = [1] * order
        for t in range(1, order):
            exp[t] = self._raw_mul(exp[t - 1], self.generator)
        log = [0] * q
        for t, e in enumerate(exp):
            log[e] = t
        # 1 + e raises the constant base-p digit of e by one
        zech = [None if e == p - 1 else log[e - e % p + (e + 1) % p] for e in exp]
        self._exp = exp + exp
        self._log = log
        self._zech = zech
        self._log_neg_one = zech.index(None)

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        # a negative index wraps modulo q - 1, the order of g
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_neg_one] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a and b:
            return self._exp[self._log[a] + self._log[b]]
        return 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def __repr__(self):
        return f"FieldTable(GF({self.q}))"


# bounded, and well above the few fields one run builds (at most six)
@lru_cache(maxsize=32)
def field_table(q: int) -> FieldTable:
    return FieldTable(q)


@dataclass(frozen=True, slots=True)
class SupportedMatrix:
    """A matrix over GF(q) whose nonzero entries all lie in the diagram."""

    field: FieldTable
    diagram: FerrersDiagram
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, m = self.diagram.n, self.diagram.m
        if len(self.rows) != n or any(len(r) != m for r in self.rows):
            raise ValueError(f"matrix must be {n}x{m}")
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                v = self.rows[i - 1][j - 1]
                if not 0 <= v < self.field.q:
                    raise ValueError(f"entry {v} is not a GF({self.field.q}) element")
                if v and (i, j) not in self.diagram:
                    raise ValueError(
                        f"nonzero entry at {(i, j)} outside the diagram {self.diagram}"
                    )

    @classmethod
    def from_cells(cls, field, diagram, cells: dict) -> "SupportedMatrix":
        rows = [[0] * diagram.m for _ in range(diagram.n)]
        for (i, j), v in cells.items():
            rows[i - 1][j - 1] = v
        return cls(field, diagram, tuple(tuple(r) for r in rows))

    @classmethod
    def from_vector(cls, field, diagram, vec: Sequence[int]) -> "SupportedMatrix":
        """Inverse of to_vector for the column-major cell order."""
        cells = list(diagram.cells())
        if len(vec) != len(cells):
            raise ValueError("vector length must equal the diagram size")
        return cls.from_cells(field, diagram, dict(zip(cells, vec)))

    def to_vector(self) -> tuple[int, ...]:
        return tuple(self.rows[i - 1][j - 1] for i, j in self.diagram.cells())


def _rank_of_rows(
    rows: list[list[int]], field: FieldTable, stop_at: int | None = None
) -> int:
    """Row echelon rank; mutates its argument.

    With stop_at, elimination halts once that many pivots are found, so
    the return value is min(rank, stop_at).
    """
    add, neg, mul, inv_ = field.add, field.neg, field.mul, field.inv
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    limit = nrows if stop_at is None else min(nrows, stop_at)
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        hc = head[col]
        if hc != 1:
            scale = inv_(hc)
            rows[rank] = head = [mul(scale, v) for v in head]
        for r in range(rank + 1, nrows):
            c = rows[r][col]
            if c:
                c = neg(c)
                rows[r] = [add(a, mul(c, b)) for a, b in zip(rows[r], head)]
        rank += 1
        if rank >= limit:
            break
    return rank


def matrix_rank(matrix: SupportedMatrix) -> int:
    return _rank_of_rows([list(r) for r in matrix.rows], matrix.field)


@dataclass(frozen=True, slots=True)
class RankCensus:
    q: int
    diagram: FerrersDiagram
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)


@lru_cache(maxsize=None)
def _column_vectors(q: int, height: int) -> tuple[tuple[int, ...], ...]:
    return tuple(product(range(q), repeat=height))


def _census_worker(cols: tuple[int, ...], q: int, first_slice: tuple[int, int]) -> list[int]:
    """Count matrices by rank with the first column restricted to a slice
    of its candidate list.  Used as the unit of parallel sharding."""
    field = field_table(q)
    add, neg, mul, inv_ = field.add, field.neg, field.mul, field.inv
    m = len(cols)
    counts = [0] * (min(cols[-1], m) + 1)
    candidates = [_column_vectors(q, c) for c in cols]
    lo, hi = first_slice
    # pivots maps pivot index -> echelon vector with that leading position;
    # columns arrive in weakly increasing height order, so every basis
    # vector fits inside the current column's support.
    pivots: dict[int, list[int]] = {}

    def reduce_and_insert(vec: tuple[int, ...]) -> int | None:
        w = list(vec)
        h = len(w)
        for piv in sorted(pivots):
            if piv >= h:
                break
            coef = w[piv]
            if coef:
                # basis vectors come from earlier, shorter columns and are
                # implicitly zero beyond their own length
                bvec = pivots[piv]
                coef = neg(coef)
                for t in range(piv, len(bvec)):
                    w[t] = add(w[t], mul(coef, bvec[t]))
        for t in range(h):
            if w[t]:
                scale = inv_(w[t])
                if scale != 1:
                    w = [mul(scale, v) for v in w]
                pivots[t] = w
                return t
        return None

    def go(j: int) -> None:
        if j == m:
            counts[len(pivots)] += 1
            return
        pool = candidates[j] if j > 0 else candidates[0][lo:hi]
        for vec in pool:
            piv = reduce_and_insert(vec)
            go(j + 1)
            if piv is not None:
                del pivots[piv]

    go(0)
    return counts


def brute_force_census(
    diagram: FerrersDiagram,
    q: int,
    max_total: int | None = None,
    jobs: int = 1,
) -> RankCensus:
    """Exact rank census of F_q[F] by enumerating all q^|F| matrices.

    This is the oracle: it never consults the placement-sum polynomials.
    Refuses to start when q^|F| exceeds the budget, or when jobs lies
    outside 1..os.cpu_count().  With jobs > 1 the work is sharded over
    the first column's values; shard results merge by addition, so the
    outcome is identical for any worker count.
    """
    field_table(q)  # validates q is a prime power within range
    cpus = os.cpu_count() or 1
    if not isinstance(jobs, int) or not 1 <= jobs <= cpus:
        raise HypothesisViolation(f"jobs={jobs!r} outside 1..{cpus}, the CPU count")
    budget = _budget(max_total, "ROOKBOUND_MAX_ENUM", DEFAULT_ENUM_BUDGET)
    total = q**diagram.size
    if total > budget:
        raise BudgetExceeded(
            f"census of {diagram} over GF({q}) needs {total} matrices, "
            f"budget is {budget}"
        )
    first = len(_column_vectors(q, diagram.cols[0]))
    if jobs == 1:
        merged = _census_worker(diagram.cols, q, (0, first))
    else:
        step = -(-first // jobs)
        slices = [(lo, min(lo + step, first)) for lo in range(0, first, step)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            shards = list(
                pool.map(_census_worker, *zip(*[(diagram.cols, q, s) for s in slices]))
            )
        merged = [sum(col) for col in zip(*shards)]
    return RankCensus(q, diagram, tuple(merged))


def census_polynomial(diagram: FerrersDiagram, r: int) -> IntPolynomial:
    """Number of rank-r matrices supported on the diagram, as a
    polynomial in the field size:

        P(F, r) = sum over r-rook placements C of
                  (q-1)^r * q^(|F| - r - inv(C, F)).

    Validated against brute_force_census on every small board before
    anything downstream relies on it.
    """
    if r < 0:
        raise ValueError("rank must be nonnegative")
    dist = rook_polynomial(diagram, r)
    if not dist:
        return IntPolynomial.zero()
    size = diagram.size
    tail = IntPolynomial(
        tuple(dist.coefficient(size - r - e) for e in range(size - r + 1))
    )
    q_minus_1 = IntPolynomial((-1, 1))
    return tail * q_minus_1**r


def ball_size_polynomial(diagram: FerrersDiagram, r: int) -> IntPolynomial:
    """Number of matrices of rank at most r, as a polynomial in q."""
    acc = IntPolynomial.zero()
    for i in range(r + 1):
        acc = acc + census_polynomial(diagram, i)
    return acc


def ball_size(diagram: FerrersDiagram, r: int, q: int) -> int:
    factor_prime_power(q)
    return ball_size_polynomial(diagram, r).evaluate(q)


@dataclass(frozen=True, slots=True)
class RecursionReport:
    diagram: FerrersDiagram
    r: int
    degree: object
    via_shorter: object
    holds: bool


def degree_recursion_check(diagram: FerrersDiagram, r: int) -> RecursionReport:
    """Check deg P(F, r) against the column-deletion recursion

        deg P(F, r) = max(n + deg P(F', r-1), r + deg P(F', r))

    where F' drops the rightmost column and n is F's row count, with
    deg P(F, 0) = 0 and, for single-column diagrams, deg P = c_1 at
    r = 1 and -inf for r >= 2.

    The identity is guaranteed for 0 <= r <= min(n, m).  For larger r
    the left side is the degree of the zero polynomial while the right
    side can still see a rank-(r-1) count one column back, so the
    report may legitimately say the recursion does not hold there.
    """
    lhs = census_polynomial(diagram, r).degree()
    if r == 0:
        rhs = 0
    elif diagram.m == 1:
        rhs = diagram.cols[0] if r == 1 else NEG_INFINITY
    else:
        shorter = FerrersDiagram(diagram.cols[:-1])
        rhs = max(
            diagram.n + census_polynomial(shorter, r - 1).degree(),
            r + census_polynomial(shorter, r).degree(),
        )
    return RecursionReport(diagram, r, lhs, rhs, lhs == rhs)


def projective_count(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def _check_projective_budget(
    q: int, k: int, max_combinations: int | None, hint: str = ""
) -> int:
    """Validate q, then refuse a k-dimensional span whose projective
    points exceed max_combinations, or ROOKBOUND_MAX_COMBOS when that is
    None.  Returns the budget applied."""
    field_table(q)
    budget = _budget(max_combinations, "ROOKBOUND_MAX_COMBOS", DEFAULT_COMBO_BUDGET)
    combos = projective_count(q, k)
    if combos > budget:
        raise BudgetExceeded(
            f"{combos} projective combinations exceed the budget {budget}{hint}"
        )
    return budget


def sample_subspace(
    diagram: FerrersDiagram,
    q: int,
    k: int,
    seed: int | None = None,
    rng: random.Random | None = None,
    max_combinations: int | None = None,
) -> list[SupportedMatrix]:
    """Uniformly random k-dimensional subspace of F_q[F], as a basis.

    Draws a uniform k x |F| matrix until it has full rank; its rows are
    the basis.  Deterministic for a given seed.  Refuses dimensions
    whose projective point count exceeds the combination budget, since
    the only consumers of a sample are the rank scans.
    """
    field = field_table(q)
    size = diagram.size
    if not 1 <= k <= size:
        raise HypothesisViolation(f"k={k} outside 1..|F|={size}")
    _check_projective_budget(q, k, max_combinations)
    if rng is None:
        rng = random.Random(seed)
    while True:
        mat = [[rng.randrange(q) for _ in range(size)] for _ in range(k)]
        if _rank_of_rows([row[:] for row in mat], field) == k:
            return [SupportedMatrix.from_vector(field, diagram, row) for row in mat]


def _combination_builder(basis: Sequence[SupportedMatrix]):
    """Return add_multiple(rows, t, c), which adds c * basis[t] into rows
    in place.  The nonzero cells of each multiple are computed when first
    needed and memoised per (t, c): a scan over a large field touches few
    of the q multiples."""
    add, mul = basis[0].field.add, basis[0].field.mul
    cells = [
        [(i, j, v) for i, row in enumerate(b.rows) for j, v in enumerate(row) if v]
        for b in basis
    ]
    memo: list[dict] = [{} for _ in basis]

    def add_multiple(rows: list[list[int]], t: int, c: int) -> None:
        scaled = memo[t].get(c)
        if scaled is None:
            scaled = memo[t][c] = tuple((i, j, mul(c, v)) for i, j, v in cells[t])
        for i, j, v in scaled:
            rows[i][j] = add(rows[i][j], v)

    return add_multiple


def _iter_projective_rows(
    basis: Sequence[SupportedMatrix],
) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """Yield (coefficients, matrix rows) over one representative of
    every 1-dimensional subspace of the span: the first nonzero
    coefficient is pinned to 1 and the remaining ones run through GF(q)
    in counting order, so the stream is lexicographic and deterministic.

    The combination matrix is updated incrementally digit by digit, one
    memoised multiple per step, and is borrowed: consumers must copy
    before mutating.
    """
    if not basis:
        return
    add_multiple = _combination_builder(basis)
    q, sub = basis[0].field.q, basis[0].field.sub
    k = len(basis)
    for lead in range(k):
        work = [list(row) for row in basis[lead].rows]
        suffix = [0] * (k - lead - 1)
        while True:
            yield (0,) * lead + (1,) + tuple(suffix), work
            pos = len(suffix) - 1
            while pos >= 0 and suffix[pos] == q - 1:
                add_multiple(work, lead + 1 + pos, sub(0, q - 1))
                suffix[pos] = 0
                pos -= 1
            if pos < 0:
                break
            old = suffix[pos]
            suffix[pos] = old + 1
            add_multiple(work, lead + 1 + pos, sub(old + 1, old))


def _iter_random_rows(
    basis: Sequence[SupportedMatrix], count: int, rng: random.Random
) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """Yield (coefficients, matrix rows) for count coefficient vectors
    drawn uniformly from the nonzero ones by rng."""
    add_multiple = _combination_builder(basis)
    q, k = basis[0].field.q, len(basis)
    for _ in range(count):
        coeffs = [0] * k
        while not any(coeffs):
            coeffs = [rng.randrange(q) for _ in range(k)]
        rows = [[0] * len(row) for row in basis[0].rows]
        for t, c in enumerate(coeffs):
            if c:
                add_multiple(rows, t, c)
        yield tuple(coeffs), rows


def _first_witness(
    combinations: Iterable[tuple[tuple[int, ...], list[list[int]]]],
    field: FieldTable,
    d: int,
) -> tuple[int, tuple[int, ...] | None, int | None]:
    """Scan (coefficients, rows) pairs up to the first of rank < d and
    return (checked, coefficients, rank), or (checked, None, None) if none
    qualifies.  Elimination stops at d pivots, which a witness never
    reaches, so its rank is exact."""
    checked = 0
    for coeffs, rows in combinations:
        checked += 1
        rank = _rank_of_rows([row[:] for row in rows], field, stop_at=d)
        if rank < d:
            return checked, coeffs, rank
    return checked, None, None


def _dual_is_cheaper(diagram: FerrersDiagram, d: int, k: int, q: int) -> bool:
    """Whether _has_rank_below_dual visits fewer candidates than the
    projective scan: its [n', n'-d+1]_q subspaces, n' = min(n, m),
    against the scan's (q^k - 1)/(q - 1) points.  For d > n' every
    nonzero element has rank below d, so the scan decides at its first
    point."""
    short = min(diagram.n, diagram.m)
    return d <= short and q_binomial_eval(short, short - d + 1, q) < projective_count(q, k)


def _has_rank_below_dual(basis: Sequence[SupportedMatrix], d: int) -> bool:
    """Whether some nonzero coefficient vector c gives M(c) = sum c_t B_t
    of rank < d, the decision _first_witness makes over the projective
    scan, taken on the kernel side (Goubin & Courtois, ASIACRYPT 2000;
    Faugere, Levy-dit-Vehel & Perret, CRYPTO 2008).  For an independent
    basis, which sample_subspace always returns, that is whether some
    nonzero element of the span has rank < d.  Requires d <= n'.

    With n' = min(n, m), the matrices transposed when m < n, and
    s = n' - d + 1, M(c) has rank < d exactly when some s-dimensional
    subspace U of GF(q)^n' satisfies U^T M(c) = 0.  For a fixed U with
    basis u_1..u_s that is a linear system in c: its k rows
    concat_i(u_i^T B_t) are dependent exactly when a nonzero c solves
    it.  Each U is visited once, in reduced row echelon form (pivot
    columns, then the free entries right of each pivot), up to the first
    dependent system.
    """
    field = basis[0].field
    add, mul, q = field.add, field.mul, field.q
    mats = [b.rows for b in basis]
    if len(mats[0]) > len(mats[0][0]):
        mats = [tuple(zip(*rows)) for rows in mats]
    n, k = len(mats[0]), len(mats)
    for pivots in combinations(range(n), n - d + 1):
        free = [[j for j in range(p + 1, n) if j not in pivots] for p in pivots]
        for values in product(range(q), repeat=sum(map(len, free))):
            system = []
            for rows in mats:
                equations = []
                start = 0
                for p, cols in zip(pivots, free):
                    vec = rows[p]
                    for j, c in zip(cols, values[start:]):
                        if c:
                            vec = [add(a, mul(c, b)) for a, b in zip(vec, rows[j])]
                    start += len(cols)
                    equations.extend(vec)
                system.append(equations)
            if _rank_of_rows(system, field, stop_at=k) < k:
                return True
    return False


def iter_projective_ranks(
    basis: Sequence[SupportedMatrix],
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (coefficients, rank) over one representative of every
    1-dimensional subspace of the span, in a fixed lexicographic order."""
    if not basis:
        return
    field = basis[0].field
    for coeffs, rows in _iter_projective_rows(basis):
        yield coeffs, _rank_of_rows([row[:] for row in rows], field)


def min_rank(
    basis: Sequence[SupportedMatrix], max_combinations: int | None = None
) -> int:
    """Minimum rank over all nonzero elements of the span of the basis.

    Scans one representative per projective point; exact, so the budget
    must cover (q^k - 1)/(q - 1) combinations.  A dependent basis yields
    zero combinations, which are skipped; a span with no nonzero element
    is refused.
    """
    if not basis:
        raise ValueError("min_rank of an empty basis is undefined")
    field = basis[0].field
    _check_projective_budget(field.q, len(basis), max_combinations)
    best = None
    for _, rows in _iter_projective_rows(basis):
        rank = _rank_of_rows([row[:] for row in rows], field, stop_at=best)
        if rank and (best is None or rank < best):
            best = rank
            if best == 1:
                break
    if best is None:
        raise HypothesisViolation("the span of the basis has no nonzero element")
    return best


@dataclass(frozen=True, slots=True)
class DensityEstimate:
    diagram: FerrersDiagram
    d: int
    k: int
    q: int
    trials: int
    hits: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int | None
    prng: str


def _wilson_interval(hits: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    phat = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def estimate_density(
    diagram: FerrersDiagram,
    d: int,
    k: int,
    q: int,
    trials: int,
    seed: int | None = None,
    max_combinations: int | None = None,
) -> DensityEstimate:
    """Monte-Carlo estimate of the fraction of k-dimensional subspaces
    of F_q[F] in which every nonzero matrix has rank >= d.

    Seeded and sequential, hence reproducible; the report names the
    generator algorithm alongside the seed.  Each trial decides its
    sampled subspace exactly, on the route with the smaller count,
    chosen once per call: the dual route's [n', n'-d+1]_q subspaces U,
    n' = min(n, m), or the scan's (q^k - 1)/(q - 1) projective points.
    Both routes ask whether some nonzero coefficient vector gives a
    matrix of rank < d, which is the question about the span's nonzero
    elements because sample_subspace always returns an independent
    basis.  Neither draws randomness, so the choice leaves the random
    stream and the hits unchanged.  The budget applies to the point
    count either way.
    """
    if trials < 1:
        raise HypothesisViolation("trials must be positive")
    if d < 1:
        raise HypothesisViolation("d must be positive")
    # each trial's sample_subspace applies the budget resolved here, so
    # max_combinations governs the sampling as well as the scan
    budget = _check_projective_budget(q, k, max_combinations, " per trial")
    dual = _dual_is_cheaper(diagram, d, k, q)
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        basis = sample_subspace(diagram, q, k, rng=rng, max_combinations=budget)
        if dual:
            hits += not _has_rank_below_dual(basis, d)
        else:
            scan = _iter_projective_rows(basis)
            hits += _first_witness(scan, basis[0].field, d)[1] is None
    lo, hi = _wilson_interval(hits, trials)
    return DensityEstimate(
        diagram, d, k, q, trials, hits, hits / trials, lo, hi, seed, PRNG_NAME
    )
