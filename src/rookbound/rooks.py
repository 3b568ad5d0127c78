"""Non-attacking rook placements on a Ferrers diagram and their q-counts.

The statistic attached to a placement C is the Garsia-Remmel one: cross
out every dot that is a rook, sits above a rook in its column, or sits
to the right of a rook in its row; inv(C, F) is the number of dots left.
The r-th q-rook polynomial is the generating function of inv over all
r-rook non-attacking placements inside the diagram.
"""

from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=None)
def _inv_distribution(cols: tuple[int, ...], r: int) -> tuple[int, ...]:
    """counts[v] = number of r-rook placements with statistic value v.

    The statistic is accumulated column by column: a rook-free column j
    contributes its height minus the rows already used to its left (dots
    crossed horizontally), and a column with a rook on row i contributes
    the unused rows strictly below the rook.  This equals the dot-count
    definition; the agreement is covered by tests against inv().
    """
    m = len(cols)
    size = sum(cols)
    counts = [0] * (size + 1)

    def go(j: int, placed: int, used: int, acc: int) -> None:
        if m - j < r - placed:
            return
        if j == m:
            if placed == r:
                counts[acc] += 1
            return
        c = cols[j]
        full = (1 << c) - 1
        go(j + 1, placed, used, acc + c - (used & full).bit_count())
        if placed < r:
            for i in range(1, c + 1):
                bit = 1 << (i - 1)
                if used & bit:
                    continue
                below = full & ~((1 << i) - 1)
                go(j + 1, placed + 1, used | bit,
                   acc + (c - i) - (used & below).bit_count())

    go(0, 0, 0, 0)
    return tuple(counts)


def rook_polynomial(diagram: FerrersDiagram, r: int) -> IntPolynomial:
    """The r-th q-rook polynomial: sum of q**inv(C) over r-placements.

    The zero polynomial when no placement exists.
    """
    if r < 0:
        raise ValueError("rook count must be nonnegative")
    return IntPolynomial(_inv_distribution(diagram.cols, r))


def placement_count(diagram: FerrersDiagram, r: int) -> int:
    return sum(_inv_distribution(diagram.cols, r))


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
