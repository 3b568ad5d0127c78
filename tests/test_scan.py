"""The one projective scan against an independent oracle.

The oracle walks all q^k coefficient vectors, sums each combination
with the field operations directly and ranks it by its nonzero minors.
It shares no code with the combination builder, the scan or the
elimination kernel.  min_rank, both modes of verify_space and
estimate_density must agree with it.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rookbound import (
    HypothesisViolation,
    SupportedMatrix,
    enumerate_diagrams,
    estimate_density,
    field_table,
    min_rank,
    parse_diagram,
    sample_subspace,
    verify_space,
)
from rookbound.construction import ConstructedSpace

QS = (2, 3, 4, 5, 9)
BOARDS = [f for n in range(1, 4) for m in range(1, 4) for f in enumerate_diagrams(n, m)]


def _det(field, square):
    total = 0
    for perm in itertools.permutations(range(len(square))):
        term = 1
        for i, j in enumerate(perm):
            term = field.mul(term, square[i][j])
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = field.add(total, field.neg(term) if inversions % 2 else term)
    return total


def _rank(field, rows):
    """Largest r with a nonzero r x r minor."""
    n, m = len(rows), len(rows[0])
    for r in range(min(n, m), 0, -1):
        for picked_rows in itertools.combinations(range(n), r):
            for picked_cols in itertools.combinations(range(m), r):
                minor = [[rows[i][j] for j in picked_cols] for i in picked_rows]
                if _det(field, minor):
                    return r
    return 0


def _combination(field, basis, coeffs):
    n, m = len(basis[0].rows), len(basis[0].rows[0])
    acc = [[0] * m for _ in range(n)]
    for c, mat in zip(coeffs, basis):
        for i in range(n):
            for j in range(m):
                acc[i][j] = field.add(acc[i][j], field.mul(c, mat.rows[i][j]))
    return acc


def _lead(coeffs):
    return next(t for t, c in enumerate(coeffs) if c)


def _oracle_ranks(basis):
    """(coefficients, rank) for every coefficient vector whose first
    nonzero entry is 1, in the pinned scan order: by the position of
    that 1, then lexicographically."""
    field = basis[0].field
    reps = [
        c
        for c in itertools.product(range(field.q), repeat=len(basis))
        if any(c) and c[_lead(c)] == 1
    ]
    reps.sort(key=lambda c: (_lead(c), c))
    return [(c, _rank(field, _combination(field, basis, c))) for c in reps]


def _oracle_first_witness(ranks, d):
    for checked, (coeffs, rank) in enumerate(ranks, start=1):
        if rank < d:
            return checked, coeffs, rank
    return len(ranks), None, None


def _check_against_oracle(basis, d):
    ranks = _oracle_ranks(basis)
    nonzero = [rank for _, rank in ranks if rank]
    if nonzero:
        assert min_rank(basis) == min(nonzero)
    else:
        with pytest.raises(HypothesisViolation):
            min_rank(basis)
    first = basis[0]
    space = ConstructedSpace(
        first.diagram, d, first.field.q, len(basis), tuple(basis), (), False
    )
    report = verify_space(space)
    checked, coeffs, rank = _oracle_first_witness(ranks, d)
    independent = all(rank for _, rank in ranks)
    assert report.mode == "exhaustive"
    assert (report.checked, report.witness_coefficients, report.witness_rank) == (
        checked,
        coeffs,
        rank,
    )
    assert report.basis_independent == independent
    assert report.ok == (coeffs is None and independent)


@st.composite
def bases(draw):
    q = draw(st.sampled_from(QS))
    diagram = draw(st.sampled_from(BOARDS))
    k = draw(st.integers(1, 3))
    field = field_table(q)
    # zeros at least half the time, so low ranks, zero matrices and
    # dependent bases all come up
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    vectors = st.lists(entry, min_size=diagram.size, max_size=diagram.size)
    return [
        SupportedMatrix.from_vector(field, diagram, draw(vectors)) for _ in range(k)
    ]


@given(bases(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_scan_matches_oracle(basis, d):
    _check_against_oracle(basis, d)


@pytest.mark.parametrize("board, q", [("[2,2]", 2), ("[1,2]", 3)])
def test_scan_matches_oracle_on_every_pair(board, q):
    field = field_table(q)
    diagram = parse_diagram(board)
    mats = [
        SupportedMatrix.from_vector(field, diagram, vec)
        for vec in itertools.product(range(q), repeat=diagram.size)
    ]
    for pair in itertools.product(mats, repeat=2):
        for d in (1, 2):
            _check_against_oracle(list(pair), d)


@given(
    st.sampled_from(QS),
    st.sampled_from(BOARDS),
    st.integers(1, 3),
    st.integers(2, 3),
    st.integers(0, 10**6),
)
@settings(max_examples=100, deadline=None)
def test_density_trial_matches_oracle(q, diagram, k, d, seed):
    k = min(k, diagram.size)
    basis = sample_subspace(diagram, q, k, seed=seed)
    want = 0 if any(rank < d for _, rank in _oracle_ranks(basis)) else 1
    assert estimate_density(diagram, d, k, q, 1, seed=seed).hits == want
