"""Diagram parsing, diagonals, transposition, enumeration, paths."""

import pytest
from hypothesis import given, settings

from rookbound import (
    FerrersDiagram,
    binomial,
    diagonal_profile,
    enumerate_diagrams,
    from_path,
    is_generalized_dyck,
    parse_diagram,
    to_path,
    transpose,
)
from conftest import all_diagrams, diagram_strategy


def test_parse_golden():
    f = parse_diagram("[1,3,3,4,5,5]")
    assert (f.n, f.m, f.size) == (5, 6, 21)
    assert parse_diagram("2").cols == (2,)
    assert parse_diagram(" 1, 2 ,2 ").cols == (1, 2, 2)


@pytest.mark.parametrize("bad", ["[3,1,2]", "[0,1]", "[]", "", "[1,x]", "[-2]"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_diagram(bad)


def test_membership_and_cells():
    f = parse_diagram("[1,3,3,4,5]")
    assert (1, 1) in f and (2, 2) in f and (5, 5) in f
    assert (2, 1) not in f and (4, 3) not in f and (1, 6) not in f
    assert len(list(f.cells())) == f.size == 16


def test_profile_golden():
    f = parse_diagram("[1,3,3,4,6,6,6]")
    assert diagonal_profile(f).counts == (1, 2, 3, 4, 5, 6, 6, 2, 0, 0, 0, 0)
    g = parse_diagram("[2,3,3,3,4,5]")
    assert diagonal_profile(g).counts == (1, 2, 3, 4, 5, 3, 2, 0, 0, 0)
    assert diagonal_profile(parse_diagram("[1]")).counts == (1,)


def test_profile_sums_and_bounds():
    for f in all_diagrams(6, 6):
        profile = diagonal_profile(f)
        assert sum(profile.counts) == f.size
        assert len(profile) == f.m + f.n - 1
        assert all(c <= min(f.n, f.m) for c in profile.counts)


def test_transpose_golden():
    assert transpose(parse_diagram("[1,2]")) == parse_diagram("[1,2]")
    assert transpose(FerrersDiagram((3,) * 5)) == FerrersDiagram((5,) * 3)
    f = parse_diagram("[1,3,3,4,5,5]")
    assert transpose(transpose(f)) == f


def test_transpose_via_cell_map():
    for f in all_diagrams(4, 4):
        n, m = f.n, f.m
        mapped = {(m + 1 - j, n + 1 - i) for (i, j) in f.cells()}
        t = transpose(f)
        assert {cell for cell in t.cells()} == mapped
        assert transpose(t) == f


def test_transpose_preserves_diagonal_profile():
    # reflection across the anti-diagonal carries D_r onto the diagonal
    # with the same index of the transposed board
    for f in all_diagrams(5, 5):
        assert diagonal_profile(transpose(f)).counts == diagonal_profile(f).counts


def test_enumerate_golden():
    assert [str(f) for f in enumerate_diagrams(2, 2)] == ["[1,2]", "[2,2]"]
    assert sum(1 for _ in enumerate_diagrams(4, 6)) == 56
    assert list(enumerate_diagrams(1, 4)) == [FerrersDiagram((1, 1, 1, 1))]


def test_enumerate_counts_and_order():
    for n in range(1, 8):
        for m in range(1, 8):
            seen = list(enumerate_diagrams(n, m))
            assert len(seen) == binomial(m + n - 2, n - 1)
            assert len(set(seen)) == len(seen)
            cols = [f.cols for f in seen]
            assert cols == sorted(cols)


def test_path_golden():
    f = parse_diagram("[1,1,2,3,3,4]")
    assert to_path(f).steps == "RRDRDRRD"
    assert is_generalized_dyck(to_path(f))
    assert from_path("RRDRDRRD", 4, 6) == f
    # a full board's walk drops straight down before heading right
    assert to_path(FerrersDiagram((3, 3, 3, 3))).steps == "DDRRR"
    assert to_path(FerrersDiagram((1, 1, 1))).steps == "RR"
    assert to_path(FerrersDiagram((2,))).steps == "D"


def test_path_round_trip():
    for f in all_diagrams(5, 5):
        assert from_path(to_path(f), f.n, f.m) == f


def test_from_path_rejects_malformed():
    with pytest.raises(ValueError):
        from_path("RRD", 2, 2)
    with pytest.raises(ValueError):
        from_path("RXD", 2, 3)


def test_generalized_dyck_examples():
    assert is_generalized_dyck("RRDRDRRD")
    assert not is_generalized_dyck("DR")
    assert is_generalized_dyck("R" * 5 + "D" * 3)
    assert is_generalized_dyck("")


def test_dyck_iff_no_dots_beyond_m():
    # for m >= n the boundary walk is a generalized Dyck path exactly
    # when no diagonal beyond index m meets the diagram
    for n in range(1, 6):
        for m in range(n, 7):
            for f in enumerate_diagrams(n, m):
                empty_tail = diagonal_profile(f).vanishes_beyond(m)
                assert is_generalized_dyck(to_path(f)) == empty_tail, f


@given(diagram_strategy())
@settings(max_examples=150)
def test_random_diagram_invariants(f):
    assert f.cols[-1] == f.n
    assert from_path(to_path(f), f.n, f.m) == f
    assert transpose(transpose(f)) == f
    assert sum(diagonal_profile(f).counts) == f.size
