"""Non-attacking rook placements on a Ferrers diagram and their q-counts.

The statistic attached to a placement C is the Garsia-Remmel one: cross
out every dot that is a rook, sits above a rook in its column, or sits
to the right of a rook in its row; inv(C, F) is the number of dots left.
The r-th q-rook polynomial is the generating function of inv over all
r-rook non-attacking placements inside the diagram.

rook_polynomial computes it by the Garsia-Remmel column recurrence, a
sweep whose state is the number of rooks placed so far; it is the only
route to the polynomial, and everything exact downstream (censuses,
balls, bounds, trailing degrees) rests on it.  enumerate_placements and
inv walk the placements one by one and serve only as its oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .arith import ExtendedInt, IntPolynomial
from .diagrams import FerrersDiagram, diagonal_profile
from .errors import HypothesisViolation


def check_placement(rooks: Iterable[tuple[int, int]], diagram: FerrersDiagram) -> frozenset:
    """Validate a rook set: inside the diagram, no shared row or column."""
    cells = frozenset((int(i), int(j)) for i, j in rooks)
    rows = [i for i, _ in cells]
    cols = [j for _, j in cells]
    if len(set(rows)) != len(cells) or len(set(cols)) != len(cells):
        raise ValueError(f"placement is attacking: {sorted(cells)}")
    for cell in cells:
        if cell not in diagram:
            raise ValueError(f"rook {cell} lies outside the diagram {diagram}")
    return cells


def inv(rooks: Iterable[tuple[int, int]], diagram: FerrersDiagram) -> int:
    """Dots of the diagram not crossed out by the placement.

    A dot (i, j) survives iff the rook in column j (if any) is strictly
    above it and the rook in row i (if any) is strictly to its right.
    Rebuilt from scratch per placement; placements are small.
    """
    cells = check_placement(rooks, diagram)
    rook_in_col = {j: i for i, j in cells}
    rook_in_row = {i: j for i, j in cells}
    alive = 0
    for j, c in enumerate(diagram.cols, start=1):
        rc = rook_in_col.get(j)
        for i in range(1, c + 1):
            if rc is not None and i <= rc:
                continue
            rr = rook_in_row.get(i)
            if rr is not None and j >= rr:
                continue
            alive += 1
    return alive


def enumerate_placements(diagram: FerrersDiagram, r: int) -> Iterator[frozenset]:
    """All non-attacking r-rook placements inside the diagram, each once.

    Columns are scanned left to right; in each column the choice is
    either no rook or an unused row within the column height.
    """
    if r < 0:
        raise ValueError("rook count must be nonnegative")
    cols = diagram.cols
    m = len(cols)

    def go(j: int, used: int, acc: list[tuple[int, int]]) -> Iterator[frozenset]:
        if m - j < r - len(acc):
            return
        if j == m:
            if len(acc) == r:
                yield frozenset(acc)
            return
        c = cols[j]
        yield from go(j + 1, used, acc)
        if len(acc) < r:
            for i in range(1, c + 1):
                bit = 1 << (i - 1)
                if used & bit:
                    continue
                acc.append((i, j + 1))
                yield from go(j + 1, used | bit, acc)
                acc.pop()

    yield from go(0, 0, [])


def rook_polynomial(diagram: FerrersDiagram, r: int) -> IntPolynomial:
    """The r-th q-rook polynomial: sum of q**inv(C) over r-placements.

    One left-to-right sweep over the columns (Garsia-Remmel).  The state
    is the number s of rooks placed so far, each carrying the polynomial
    weight of its partial placements.  Heights weakly increase, so the s
    used rows all lie inside the current column of height c, which
    leaves it c - s free dots:

    * without a rook the column keeps them all, a factor q^(c-s);
    * a rook on one of the free rows keeps the free dots below it, 0 to
      c-s-1 of them, a factor [c-s]_q = 1 + q + ... + q^(c-s-1).

    The zero polynomial when no placement exists.
    """
    if r < 0:
        raise ValueError("rook count must be nonnegative")
    weights = [IntPolynomial.one()]  # weights[s]: the placements of s rooks so far
    for c in diagram.cols:
        swept = [w.shift(c - s) for s, w in enumerate(weights)] + [IntPolynomial.zero()]
        for s, w in enumerate(weights[: min(r, c)]):
            swept[s + 1] = swept[s + 1] + w * IntPolynomial((1,) * (c - s))
        weights = swept[: r + 1]
    return weights[r] if r < len(weights) else IntPolynomial.zero()


def placement_count(diagram: FerrersDiagram, r: int) -> int:
    return rook_polynomial(diagram, r).evaluate(1)


def diagonal_surplus(diagram: FerrersDiagram, r: int) -> int:
    """Sum over all m+n-1 diagonals of max(0, |D_i ∩ F| - r).

    This is the closed-form trailing degree; tau_closed_form adds the
    hypothesis check under which the identity is guaranteed.
    """
    return diagonal_profile(diagram).surplus(r)


def tau_closed_form(diagram: FerrersDiagram, r: int) -> int:
    """Trailing degree of the r-th q-rook polynomial, by the diagonal
    formula sum_i max(0, |D_i ∩ F| - r).

    Defined for 1 <= r <= min(n, m) provided a rank-r matrix supported
    on the diagram exists at all, which happens exactly when diagonal r
    is entirely inside the diagram (equivalently, when the deletion
    bound at r is positive).  Outside that hypothesis the formula makes
    no claim and a HypothesisViolation is raised; the polynomial route
    still applies and returns NEG_INFINITY when there are no placements.
    """
    if not 1 <= r <= min(diagram.n, diagram.m):
        raise HypothesisViolation(
            f"r={r} outside 1..min(n,m)={min(diagram.n, diagram.m)} for {diagram}"
        )
    profile = diagonal_profile(diagram)
    if profile.count(r) != r:
        raise HypothesisViolation(
            f"no rank-{r} matrix is supported on {diagram} "
            f"(diagonal {r} has {profile.count(r)} of {r} cells); "
            "the closed form does not apply"
        )
    return profile.surplus(r)


def tau_via_polynomial(diagram: FerrersDiagram, r: int) -> ExtendedInt:
    """Trailing degree of the r-th q-rook polynomial, computed from the
    polynomial itself.  NEG_INFINITY when the polynomial is zero."""
    return rook_polynomial(diagram, r).trailing_degree()
