"""The column recurrence behind rook_polynomial against independent routes.

Three routes independent of the sweep: summing q**inv over the
enumerated placements, the Garsia-Remmel closed form on full boards
(which reaches far past enumeration), and the paper's diagonal formula
for the trailing degree.
"""

from hypothesis import given, settings

from rookbound import (
    FerrersDiagram,
    HypothesisViolation,
    IntPolynomial,
    enumerate_placements,
    inv,
    placement_count,
    q_binomial,
    rook_polynomial,
    tau_closed_form,
    tau_via_polynomial,
)
from conftest import diagram_strategy


@given(diagram_strategy(max_n=7, max_m=7))
@settings(max_examples=300, deadline=None)
def test_recurrence_matches_placement_enumeration(f):
    for r in range(min(f.n, f.m) + 2):
        by_hand = IntPolynomial.zero()
        count = 0
        for placement in enumerate_placements(f, r):
            by_hand = by_hand + IntPolynomial.monomial(inv(placement, f))
            count += 1
        assert rook_polynomial(f, r) == by_hand, (f, r)
        assert placement_count(f, r) == count, (f, r)


def _full_board_closed_form(n: int, m: int, r: int) -> IntPolynomial:
    """q^((n-r)(m-r)) [m, r]_q [n]_q [n-1]_q ... [n-r+1]_q."""
    acc = q_binomial(m, r).shift((n - r) * (m - r))
    for height in range(n - r + 1, n + 1):
        acc = acc * IntPolynomial((1,) * height)
    return acc


def test_full_boards_match_closed_form():
    for n in range(1, 13):
        for m in range(1, 13):
            board = FerrersDiagram((n,) * m)
            for r in range(min(n, m) + 1):
                assert rook_polynomial(board, r) == _full_board_closed_form(n, m, r), (n, m, r)
    assert rook_polynomial(FerrersDiagram((30,) * 30), 15) == _full_board_closed_form(30, 30, 15)


@given(diagram_strategy(max_n=12, max_m=12))
@settings(max_examples=500, deadline=None)
def test_trailing_degree_closed_form_on_larger_boards(f):
    for r in range(1, min(f.n, f.m) + 1):
        try:
            closed = tau_closed_form(f, r)
        except HypothesisViolation:
            continue
        assert closed == tau_via_polynomial(f, r), (f, r)
