"""The projective scan and the dual (kernel) route against oracles.

The oracle walks all q^k coefficient vectors, sums each combination
with the field operations directly and ranks it by its nonzero minors.
It shares no code with the combination builder, the scan or the
elimination kernel.  min_rank, both modes of verify_space,
estimate_density and the dual route's decision must agree with it; on
boards too large for the minors, the dual route must agree with the
scan.
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
from rookbound.gfmatrix import (
    _dual_is_cheaper,
    _first_witness,
    _has_rank_below_dual,
    _iter_projective_rows,
)
from conftest import all_diagrams

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
    # the dual route decides the same question, for dependent bases too
    if d <= min(first.diagram.n, first.diagram.m):
        assert _has_rank_below_dual(basis, d) == (coeffs is not None)


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


BOARDS_4 = list(all_diagrams(4, 4))


@given(
    st.sampled_from(QS),
    st.sampled_from(BOARDS_4),
    st.integers(1, 4),
    st.data(),
    st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_dual_route_matches_scan(q, diagram, k, data, seed):
    """Called directly on both sides of the dispatch, boards with m < n
    included (they are transposed)."""
    k = min(k, diagram.size)
    short = min(diagram.n, diagram.m)
    d = data.draw(st.integers(2, max(2, short)))
    basis = sample_subspace(diagram, q, k, seed=seed)
    if d > short:
        assert not _dual_is_cheaper(diagram, d, k, q)
        return
    scan = _iter_projective_rows(basis)
    want = _first_witness(scan, basis[0].field, d)[1] is not None
    assert _has_rank_below_dual(basis, d) == want


def test_dual_route_works_on_the_short_side(monkeypatch):
    """On a 4 x 2 board the route transposes and visits the [2, 1]_2 = 3
    lines of GF(2)^2, not the [4, 3]_2 = 15 hyperplanes of GF(2)^4."""
    from rookbound import gfmatrix

    field = field_table(2)
    identity = SupportedMatrix.from_cells(field, parse_diagram("[4,4]"), {(1, 1): 1, (2, 2): 1})
    systems = []
    rank_of_rows = gfmatrix._rank_of_rows

    def counted(rows, *args, **kwargs):
        systems.append(len(rows))
        return rank_of_rows(rows, *args, **kwargs)

    monkeypatch.setattr(gfmatrix, "_rank_of_rows", counted)
    assert not _has_rank_below_dual([identity], 2)
    assert len(systems) == 3


@pytest.mark.parametrize(
    "board, d, k, q, dual",
    [
        ("[5,5,5,5,5,5]", 4, 12, 4, True),  # 5,797 subspaces U, 5,592,405 points
        ("[2,3,3,3,4,5]", 4, 3, 9, False),  # 605,242 subspaces U, 91 points
        ("[1,1,1]", 2, 2, 2, False),  # d > n' = 1
        ("[3,3]", 3, 3, 2, False),  # d > n' = 2, m < n
        ("[3,3]", 2, 3, 2, True),  # 3 subspaces U, 7 points
    ],
)
def test_dispatch_picks_the_smaller_count(board, d, k, q, dual):
    assert _dual_is_cheaper(parse_diagram(board), d, k, q) == dual

