"""Reed-Solomon codes, the diagonal construction, and its verifier."""

import itertools

import pytest

from rookbound import (
    BudgetExceeded,
    FerrersDiagram,
    HypothesisViolation,
    SupportedMatrix,
    build_space,
    diagonal_profile,
    enumerate_diagrams,
    field_table,
    kappa,
    matrix_rank,
    mds_constructible,
    optimality_check,
    parse_diagram,
    rs_code,
    space_from_json,
    space_to_json,
    transpose,
    verify_space,
)
from rookbound.construction import ConstructedSpace, VerifyReport

GOLDEN = parse_diagram("[2,3,3,3,4,5]")


def _weights(code):
    """Hamming weights of the nonzero codewords, each one summed from
    the generator rows with the field operations directly."""
    field = code.field
    weights = []
    for coeffs in itertools.product(range(field.q), repeat=code.dimension):
        word = [0] * code.length
        for c, row in zip(coeffs, code.generator):
            word = [field.add(w, field.mul(c, g)) for w, g in zip(word, row)]
        if any(word):
            weights.append(sum(1 for v in word if v))
    return weights


def test_rs_code_5_2_4_over_gf4():
    code = rs_code(4, 5, 4)
    assert (code.length, code.dimension, code.min_dist) == (5, 2, 4)
    weights = _weights(code)
    assert len(weights) == 15
    assert min(weights) == 4


def test_rs_code_repetition():
    code = rs_code(5, 4, 4)
    assert code.dimension == 1
    assert all(w == 4 for w in _weights(code))


def test_rs_code_rejects_overlong():
    with pytest.raises(HypothesisViolation):
        rs_code(2, 4, 3)
    with pytest.raises(HypothesisViolation):
        rs_code(4, 3, 0)


def test_rs_code_extended_binary():
    code = rs_code(2, 3, 2)
    assert sorted(_weights(code)) == [2, 2, 2]


def test_rs_codes_are_mds_small():
    for q in (2, 3, 4, 5):
        for length in range(1, q + 2):
            for dist in range(1, length + 1):
                code = rs_code(q, length, dist)
                k = length - dist + 1
                if q**k > 2000:
                    continue
                weights = _weights(code)
                assert len(weights) == q**k - 1
                assert min(weights) == dist, (q, length, dist)


def test_rs_generator_is_deterministic():
    assert rs_code(4, 5, 4).generator == rs_code(4, 5, 4).generator
    assert rs_code(field_table(4), 5, 4).generator == rs_code(4, 5, 4).generator


def test_build_space_golden():
    space = build_space(GOLDEN, 4, 4)
    assert space.dimension == 3
    assert space.diagonals == (4, 5)
    report = verify_space(space)
    assert report.ok and report.mode == "exhaustive" and report.checked == 21
    assert report.basis_independent
    assert optimality_check(space)


def test_build_space_full_2x2():
    space = build_space(FerrersDiagram((2, 2)), 2, 2)
    assert space.dimension == 1
    assert space.basis[0].rows == ((1, 0), (0, 1))
    assert verify_space(space).ok
    # the full board is not MDS-constructible at d=2: bound is 2, not 1
    assert not optimality_check(space)


def test_build_space_no_long_diagonal():
    space = build_space(parse_diagram("[1,3,3,4,6,6,6]"), 7, 7)
    assert space.dimension == 0
    assert verify_space(space).ok


def test_build_space_q_threshold():
    with pytest.raises(HypothesisViolation):
        build_space(GOLDEN, 4, 3)  # needs q >= 4


def test_build_space_transposes_when_tall():
    tall = transpose(GOLDEN)
    assert tall.m < tall.n
    space = build_space(tall, 4, 4)
    assert space.transposed
    assert space.dimension == 3
    for mat in space.basis:
        assert mat.diagram == tall
    assert verify_space(space).ok
    assert optimality_check(space)


def _tampered_golden_space():
    space = build_space(GOLDEN, 4, 4)
    # replace one basis matrix by a single-cell matrix of rank 1
    broken = SupportedMatrix.from_cells(space.field, GOLDEN, {(1, 6): 1})
    return ConstructedSpace(
        space.diagram,
        space.d,
        space.q,
        space.dimension,
        (space.basis[0], space.basis[1], broken),
        space.diagonals,
        space.transposed,
    )


def test_verify_space_finds_planted_defect():
    report = verify_space(_tampered_golden_space())
    assert not report.ok
    assert report.witness_rank is not None and report.witness_rank < 4
    assert report.witness_coefficients is not None


def test_verify_space_sampled_witness_is_pinned():
    # seed 0 draws the planted element 3 * E_16 as its 11th sample
    report = verify_space(_tampered_golden_space(), sample=20, seed=0)
    assert report == VerifyReport(False, "sampled", 11, True, (0, 0, 3), 1, 0)


def test_verify_space_reports_zero_combination_of_dependent_basis():
    field = field_table(2)
    board = parse_diagram("[2,2]")
    ident = SupportedMatrix.from_cells(field, board, {(1, 1): 1, (2, 2): 1})
    space = ConstructedSpace(board, 2, 2, 2, (ident, ident), (), False)
    assert verify_space(space) == VerifyReport(False, "exhaustive", 2, False, (1, 1), 0)


def test_verify_space_budget_and_sampling():
    space = build_space(GOLDEN, 4, 4)
    with pytest.raises(BudgetExceeded):
        verify_space(space, max_combinations=5)
    report = verify_space(space, max_combinations=5, sample=40, seed=3)
    assert report.ok and report.mode == "sampled" and report.checked == 40


@pytest.mark.parametrize("sample", [0, -3])
def test_verify_space_refuses_sample_below_one(sample):
    # a sample that checks nothing must not pass the planted defect
    with pytest.raises(HypothesisViolation):
        verify_space(_tampered_golden_space(), sample=sample, seed=1)


def test_constructed_dimension_formula():
    # dimension equals sum over the first m diagonals of max(0, n_i - d + 1)
    for n in range(1, 5):
        for m in range(n, 5):
            for f in enumerate_diagrams(n, m):
                profile = diagonal_profile(f)
                for d in range(2, n + 1):
                    longest = max(profile.count(i) for i in range(1, m + 1))
                    q = 2
                    while q < longest - 1 or q == 6:
                        q += 1
                    space = build_space(f, d, q)
                    expected = sum(
                        max(0, profile.count(i) - d + 1) for i in range(1, m + 1)
                    )
                    assert space.dimension == expected, (f, d)


def _smallest_prime_power_at_least(x):
    from rookbound import is_prime_power

    q = max(2, x)
    while not is_prime_power(q):
        q += 1
    return q


def test_constructible_pairs_verify_and_meet_bound():
    # every MDS-constructible pair on boards up to 5x5 builds a space
    # that survives exhaustive verification and meets the bound, at the
    # smallest field the construction supports
    verified = 0
    for n in range(2, 6):
        for m in range(n, 6):
            for f in enumerate_diagrams(n, m):
                profile = diagonal_profile(f)
                for d in range(2, n + 1):
                    if not mds_constructible(f, d).is_mds_constructible:
                        continue
                    longest = max(profile.count(i) for i in range(1, m + 1))
                    q = _smallest_prime_power_at_least(longest - 1)
                    space = build_space(f, d, q)
                    if q**space.dimension > 2**20:
                        continue
                    assert verify_space(space).ok, (f, d, q)
                    assert optimality_check(space), (f, d, q)
                    verified += 1
    assert verified > 100


@pytest.mark.parametrize("key", ["diagram", "q", "d", "basis"])
def test_space_from_json_missing_key(key):
    payload = space_to_json(build_space(GOLDEN, 4, 4))
    del payload[key]
    with pytest.raises(HypothesisViolation, match=key):
        space_from_json(payload)


def test_space_json_round_trip():
    space = build_space(GOLDEN, 4, 4)
    payload = space_to_json(space)
    assert payload["dimension"] == 3 and payload["optimal"] is True
    restored = space_from_json(payload)
    assert restored.dimension == space.dimension
    assert [m.rows for m in restored.basis] == [m.rows for m in space.basis]
    assert verify_space(restored).ok


def test_matrix_rank_of_basis_elements():
    space = build_space(GOLDEN, 4, 4)
    for mat in space.basis:
        assert matrix_rank(mat) >= 4


def test_optimality_fails_off_constructible_pairs():
    board = parse_diagram("[5,5,5,5,5,5]")
    space = build_space(board, 4, 4)
    # codewords go on the first m = 6 diagonals only; their surpluses at
    # d = 4 are 1 + 2 + 2 (the trailing-degree sum over all diagonals
    # would add diagonal 7 and reach 6, but that one carries no code)
    assert space.dimension == 5
    assert kappa(board, 4).minimum == 12
    assert not optimality_check(space)
