"""Shared helpers for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from rookbound import FerrersDiagram, enumerate_diagrams


def all_diagrams(max_n: int, max_m: int):
    """Every diagram on every board up to max_n x max_m."""
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            yield from enumerate_diagrams(n, m)


def diagrams_up_to_size(max_size: int):
    """Every diagram with at most max_size dots, one per column-height
    multiset (independent of the board-by-board enumerator)."""
    out = []

    def rec(prefix: list[int], remaining: int, lo: int):
        if prefix:
            out.append(FerrersDiagram(tuple(prefix)))
        for c in range(lo, remaining + 1):
            prefix.append(c)
            rec(prefix, remaining - c, c)
            prefix.pop()

    rec([], max_size, 1)
    return out


@st.composite
def diagram_strategy(draw, max_n=6, max_m=6):
    """A random diagram on a board up to max_n x max_m."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    cols = sorted(draw(st.lists(st.integers(1, n), min_size=m - 1, max_size=m - 1)))
    return FerrersDiagram(tuple(cols) + (n,))
