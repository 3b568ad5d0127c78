"""Finite fields, supported matrices, censuses, sampling."""

import itertools
import math
import os

import pytest

from rookbound import (
    BudgetExceeded,
    FerrersDiagram,
    SupportedMatrix,
    ball_size,
    ball_size_polynomial,
    brute_force_census,
    census_polynomial,
    degree_recursion_check,
    estimate_density,
    field_table,
    is_prime_power,
    kappa,
    matrix_rank,
    min_rank,
    parse_diagram,
    q_binomial,
    sample_subspace,
    tau_closed_form,
)
from rookbound import gfmatrix
from rookbound.arith import IntPolynomial
from rookbound.errors import HypothesisViolation
from conftest import all_diagrams, diagrams_up_to_size


def test_prime_power_detection():
    assert is_prime_power(2) and is_prime_power(9) and is_prime_power(16)
    assert not is_prime_power(6) and not is_prime_power(12) and not is_prime_power(1)
    with pytest.raises(ValueError):
        field_table(6)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    f = field_table(q)
    elements = range(q)
    for a in elements:
        assert f.add(a, 0) == a and f.mul(a, 1) == a and f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in elements:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in elements:
        for b in elements:
            for c in elements:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_gf4_is_the_usual_one():
    f = field_table(4)
    # elements 0, 1, x, x+1 encoded 0..3 with x^2 = x + 1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1


def test_prime_field_is_mod_p():
    f = field_table(5)
    for a in range(5):
        for b in range(5):
            assert f.add(a, b) == (a + b) % 5
            assert f.mul(a, b) == (a * b) % 5


def _trial_division_prime_power(q):
    """(p, k) with q = p**k by trial division up to sqrt(q), else None."""
    if q < 2:
        return None
    p = next((c for c in range(2, math.isqrt(q) + 1) if q % c == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def test_prime_power_matches_trial_division():
    for q in range(10**5):
        want = _trial_division_prime_power(q)
        assert is_prime_power(q) == (want is not None), q
        if want is not None:
            assert gfmatrix.factor_prime_power(q) == want


@pytest.mark.parametrize(
    "composite",
    [
        561,  # Carmichael numbers
        41041,
        825265,
        # strong pseudoprime to every prime base up to 37: only 41 catches it
        318665857834031151167461,
    ],
)
def test_pseudoprimes_refused(composite):
    with pytest.raises(ValueError, match="is not a prime power$"):
        gfmatrix.factor_prime_power(composite)


def test_prime_power_of_a_large_prime():
    mersenne = 2**61 - 1
    assert gfmatrix.factor_prime_power(mersenne) == (mersenne, 1)
    assert gfmatrix.factor_prime_power(mersenne**2) == (mersenne, 2)
    assert not is_prime_power(mersenne * (2**31 - 1))


@pytest.mark.parametrize(
    "q",
    [
        2**89 - 1,  # prime, beyond the exact Miller-Rabin range
        (2**89 - 1) ** 2,
        # strong pseudoprime to all 13 bases: passing them is not trusted
        gfmatrix._MR_EXACT_BELOW,
    ],
)
def test_prime_power_beyond_the_exact_range_refused(q):
    with pytest.raises(ValueError, match="range where primality is exact"):
        gfmatrix.factor_prime_power(q)


def test_field_table_cache_is_bounded():
    powers = [q for q in range(2, 200) if is_prime_power(q)][:40]
    assert len(powers) == 40
    for q in powers:
        field_table(q)
    assert field_table.cache_info().currsize <= 32


def test_field_table_is_cached_and_deterministic():
    from rookbound.gfmatrix import FieldTable

    assert field_table(9) is field_table(9)
    assert field_table(9).generator == FieldTable(9).generator


def test_irreducibility_trial_division():
    from rookbound.gfmatrix import _poly_is_irreducible

    assert not _poly_is_irreducible((1, 0, 1), 2)  # (x+1)^2
    assert _poly_is_irreducible((1, 1, 1), 2)
    assert not _poly_is_irreducible((0, 1, 1), 2)  # x(x+1)
    assert not _poly_is_irreducible((1, 1, 1, 1), 2)  # (x+1)(x^2+1)
    assert _poly_is_irreducible((1, 1, 0, 1), 2)


def test_field_beyond_modulus_table():
    # GF(289) comes from the deterministic irreducible search
    f = field_table(289)
    assert f.modulus == (3, 0, 1)
    for a in range(1, 289):
        assert f.mul(a, f.inv(a)) == 1
    import random as _random

    rng = _random.Random(0)
    for _ in range(500):
        a, b, c = (rng.randrange(289) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


class _Schoolbook:
    """GF(q) by digit-wise addition mod p and polynomial products reduced
    mod the field's modulus: a reference that shares no table with
    FieldTable.  A prime field is the degree-0 case, reduced mod x."""

    def __init__(self, f):
        self.p, self.k = f.p, f.k
        self.modulus = f.modulus or (0, 1)

    def digits(self, a):
        return [a // self.p**t % self.p for t in range(self.k)]

    def number(self, digits):
        return sum(c % self.p * self.p**t for t, c in enumerate(digits))

    def add(self, a, b):
        return self.number(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a):
        return self.number(-x for x in self.digits(a))

    def mul(self, a, b):
        k = self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        # the monic modulus gives x^k = -(m_0 + m_1 x + ... + m_(k-1) x^(k-1));
        # apply it from the top degree down
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top] % self.p
            for t in range(k):
                prod[top - k + t] -= c * self.modulus[t]
        return self.number(prod[:k])

    def pow(self, a, e):
        result = 1
        for bit in bin(e)[2:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81, 125, 243, 256, 289, 343, 2187, 4096]
)
def test_field_matches_schoolbook_reference(q):
    import random as _random

    f = field_table(q)
    ref = _Schoolbook(f)
    if q <= 81:
        triples = [(a, b, b - q // 2) for a in range(q) for b in range(q)]
    else:
        rng = _random.Random(q)
        triples = [(rng.randrange(q), rng.randrange(q), rng.randrange(-q, q))
                   for _ in range(3000)]
    for a, b, e in triples:
        assert f.add(a, b) == ref.add(a, b)
        assert f.neg(b) == ref.neg(b)
        assert f.sub(a, b) == ref.add(a, ref.neg(b))
        assert f.mul(a, b) == ref.mul(a, b)
        if a:
            assert ref.mul(a, f.inv(a)) == 1
            # g^(q-1) = 1, so a^e = a^(e mod (q-1)) for every integer e
            assert f.pow(a, e) == ref.pow(a, e % (q - 1))
    assert (f.pow(0, 0), f.pow(0, 3)) == (1, 0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_generators_are_pinned():
    # rs_code evaluates at powers of the generator, so these values fix
    # every constructed basis
    pinned = {2: 1, 3: 2, 4: 2, 8: 2, 9: 3, 25: 5, 49: 7, 121: 11, 169: 13,
              243: 3, 289: 19, 343: 22, 512: 7, 2187: 5, 4096: 3}
    assert {q: field_table(q).generator for q in pinned} == pinned


def test_listed_moduli_skip_the_irreducible_search(monkeypatch):
    def refuse(p, k):
        raise AssertionError(f"searched for an irreducible of degree {k} over GF({p})")

    monkeypatch.setattr(gfmatrix, "_find_irreducible", refuse)
    for q, modulus in gfmatrix._IRREDUCIBLE.items():
        assert gfmatrix.FieldTable(q).modulus == modulus


def test_huge_q_refused_before_factoring():
    import time

    start = time.perf_counter()
    with pytest.raises(ValueError, match="2\\^16"):
        gfmatrix.FieldTable(2**61 - 1)
    with pytest.raises(ValueError, match="2\\^16"):
        estimate_density(parse_diagram("[2,2]"), 2, 1, 2**61 - 1, 10, seed=0)
    assert time.perf_counter() - start < 1.0


def test_supported_matrix_validation():
    f2 = field_table(2)
    d = parse_diagram("[1,2]")
    SupportedMatrix.from_cells(f2, d, {(1, 1): 1, (2, 2): 1})
    with pytest.raises(ValueError):
        SupportedMatrix.from_cells(f2, d, {(2, 1): 1})  # outside support
    with pytest.raises(ValueError):
        SupportedMatrix.from_cells(f2, d, {(1, 1): 2})  # not a field element


def test_matrix_vector_round_trip():
    f3 = field_table(3)
    d = parse_diagram("[1,3,3]")
    vec = tuple(range(d.size % 3, d.size % 3 + d.size))
    vec = tuple(v % 3 for v in vec)
    m = SupportedMatrix.from_vector(f3, d, vec)
    assert m.to_vector() == vec


def test_matrix_rank_examples():
    f2 = field_table(2)
    d = parse_diagram("[2,3,3]")
    zero = SupportedMatrix.from_cells(f2, d, {})
    assert matrix_rank(zero) == 0
    # ones along a full diagonal have rank equal to its length
    from rookbound import diagonal_profile

    profile = diagonal_profile(d)
    for r in range(1, len(profile) + 1):
        if profile.count(r) == r:
            cells = {
                (i, d.m - r + i): 1
                for i in range(1, d.n + 1)
                if (i, d.m - r + i) in d
            }
            assert matrix_rank(SupportedMatrix.from_cells(f2, d, cells)) == r
    stair = parse_diagram("[1,2,3]")
    ident = SupportedMatrix.from_cells(field_table(3), stair, {(1, 1): 1, (2, 2): 2, (3, 3): 1})
    assert matrix_rank(ident) == 3


def test_matrix_rank_against_rowspace_size():
    # |row space| = q**rank, checkable by brute force on small matrices
    f2 = field_table(2)
    d = parse_diagram("[2,2]")
    for entries in itertools.product(range(2), repeat=4):
        rows = ((entries[0], entries[1]), (entries[2], entries[3]))
        m = SupportedMatrix(f2, d, rows)
        span = set()
        for c1 in range(2):
            for c2 in range(2):
                v = tuple(
                    f2.add(f2.mul(c1, rows[0][t]), f2.mul(c2, rows[1][t]))
                    for t in range(2)
                )
                span.add(v)
        assert len(span) == 2 ** matrix_rank(m)


def test_census_golden():
    assert brute_force_census(parse_diagram("[1]"), 3).counts == (1, 2)
    assert brute_force_census(parse_diagram("[1,1]"), 2).counts == (1, 3)
    assert brute_force_census(parse_diagram("[2,2]"), 2).counts == (1, 9, 6)


def test_census_totals_and_zero_count():
    for f in diagrams_up_to_size(6):
        for q in (2, 3):
            census = brute_force_census(f, q)
            assert census.total() == q**f.size
            assert census.counts[0] == 1


def test_census_budget_refusal():
    with pytest.raises(BudgetExceeded):
        brute_force_census(parse_diagram("[3,3,3,3]"), 3, max_total=1000)


def test_census_sharding_matches_sequential(monkeypatch):
    # three shards whatever the machine: jobs may not exceed the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    f = parse_diagram("[2,3,3]")
    seq = brute_force_census(f, 3, jobs=1)
    par = brute_force_census(f, 3, jobs=3)
    assert seq.counts == par.counts


def test_census_polynomial_golden():
    assert census_polynomial(parse_diagram("[2,2]"), 1) == IntPolynomial((-1, -1, 1, 1))
    assert census_polynomial(parse_diagram("[2,2]"), 0) == IntPolynomial.one()
    assert census_polynomial(parse_diagram("[1]"), 1) == IntPolynomial((-1, 1))


def test_oracle_equivalence_small():
    # the single property that licenses the placement-sum formula
    for f in diagrams_up_to_size(8):
        for q in (2, 3):
            oracle = brute_force_census(f, q)
            for r in range(min(f.n, f.m) + 1):
                assert census_polynomial(f, r).evaluate(q) == oracle.counts[r], (f, q, r)


def test_ball_golden():
    assert ball_size(parse_diagram("[2,3,3,3,4,5]"), 3, 3) == 243679185
    assert ball_size(parse_diagram("[2,2]"), 2, 2) == 16
    for f in (parse_diagram("[1,2]"), parse_diagram("[3,3]")):
        assert ball_size(f, 0, 5) == 1


def test_degree_recursion_exhaustive():
    for f in all_diagrams(5, 5):
        for r in range(min(f.n, f.m) + 1):
            report = degree_recursion_check(f, r)
            assert report.holds, (f, r, report)


def test_degree_recursion_out_of_range_caveat():
    # beyond min(n, m) the left side is the zero polynomial and the
    # recursion can fail; the report must say so rather than lie
    report = degree_recursion_check(FerrersDiagram((1, 1)), 2)
    assert not report.holds


def test_degree_recursion_single_column():
    for c in range(1, 5):
        f = FerrersDiagram((c,))
        assert census_polynomial(f, 1).degree() == c
        assert degree_recursion_check(f, 1).holds
        assert degree_recursion_check(f, 2).holds


def test_degree_plus_trailing_is_size():
    for f in all_diagrams(5, 5):
        for r in range(1, min(f.n, f.m) + 1):
            if kappa(f, r).minimum >= 1:
                assert census_polynomial(f, r).degree() + tau_closed_form(f, r) == f.size
                assert ball_size_polynomial(f, r).degree() == census_polynomial(f, r).degree()


def test_sample_subspace_determinism():
    f = parse_diagram("[2,3,3]")
    a = sample_subspace(f, 3, 2, seed=42)
    b = sample_subspace(f, 3, 2, seed=42)
    assert [m.rows for m in a] == [m.rows for m in b]
    c = sample_subspace(f, 3, 2, seed=43)
    assert [m.rows for m in a] != [m.rows for m in c]


def test_sample_subspace_validates_k():
    with pytest.raises(HypothesisViolation):
        sample_subspace(parse_diagram("[1,2]"), 2, 4, seed=0)


def test_min_rank_trivial_cases():
    f = parse_diagram("[2,2]")
    basis = sample_subspace(f, 2, 1, seed=7)
    assert min_rank(basis) == matrix_rank(basis[0])
    # the whole ambient space contains rank-1 matrices
    f2 = field_table(2)
    full = [
        SupportedMatrix.from_vector(f2, f, vec)
        for vec in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
    ]
    assert min_rank(full) == 1


def test_min_rank_skips_zero_combinations():
    # [I, I] is dependent; every nonzero element of its span is I
    f2 = field_table(2)
    board = parse_diagram("[2,2]")
    ident = SupportedMatrix.from_cells(f2, board, {(1, 1): 1, (2, 2): 1})
    assert min_rank([ident, ident]) == 2
    zero = SupportedMatrix.from_cells(f2, board, {})
    with pytest.raises(HypothesisViolation):
        min_rank([zero, zero])


def test_min_rank_budget():
    f = parse_diagram("[2,2]")
    basis = sample_subspace(f, 2, 4, seed=1)
    with pytest.raises(BudgetExceeded):
        min_rank(basis, max_combinations=3)


def test_estimate_density_rank_one_is_certain():
    est = estimate_density(parse_diagram("[2,2]"), 1, 2, 2, 50, seed=3)
    assert est.estimate == 1.0


def test_estimate_density_is_deterministic_and_documented():
    f = parse_diagram("[2,2]")
    a = estimate_density(f, 2, 1, 3, 100, seed=11)
    b = estimate_density(f, 2, 1, 3, 100, seed=11)
    assert (a.hits, a.estimate) == (b.hits, b.estimate)
    assert a.prng == "python-random/MT19937"
    assert 0.0 <= a.ci_low <= a.estimate <= a.ci_high <= 1.0


def test_estimate_density_budget():
    with pytest.raises(BudgetExceeded):
        estimate_density(parse_diagram("[3,3,3]"), 2, 5, 4, 10, seed=0, max_combinations=10)


def test_estimate_density_refuses_q_1_like_field_table():
    with pytest.raises(ValueError) as want:
        field_table(1)
    with pytest.raises(ValueError) as got:
        estimate_density(parse_diagram("[2,2]"), 2, 1, 1, 10, seed=0)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["ROOKBOUND_MAX_COMBOS", "ROOKBOUND_MAX_ENUM"])
@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_budget_variables_must_be_non_negative_integers(monkeypatch, name, raw):
    monkeypatch.setenv(name, raw)
    with pytest.raises(HypothesisViolation, match=name):
        if name == "ROOKBOUND_MAX_ENUM":
            brute_force_census(parse_diagram("[2,2]"), 2)
        else:
            estimate_density(parse_diagram("[2,2]"), 2, 1, 2, 1, seed=0)


@pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
def test_census_jobs_outside_cpu_range_refused(monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(gfmatrix, "ProcessPoolExecutor", no_pool)
    with pytest.raises(HypothesisViolation):
        brute_force_census(parse_diagram("[2,2]"), 2, jobs=jobs)


def test_exact_density_cross_check():
    # [2,2] over GF(2), k = 1: rank->counts are (1, 9, 6), so 6 of the 15
    # projective points have rank 2 and the true density is 6/15 = 0.4
    est = estimate_density(parse_diagram("[2,2]"), 2, 1, 2, 4000, seed=9)
    assert abs(est.estimate - 0.4) < 0.03
