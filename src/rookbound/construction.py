"""Explicit spaces of matrices with guaranteed minimum rank, built by
laying Reed-Solomon codewords along the diagonals of a Ferrers diagram.

For each diagonal (among the first m) holding at least d dots, take an
MDS code of length |D_i ∩ F| and minimum distance d and embed a basis
of it into those dot positions.  The span of all embedded basis words
is a space in which every nonzero matrix has rank at least d; when the
pair (F, d) is MDS-constructible its dimension meets the deletion bound
exactly.  verify_space re-checks the rank property exhaustively rather
than taking the construction's word for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bounds import kappa
from .diagrams import FerrersDiagram, diagonal_profile, parse_diagram, transpose
from .errors import HypothesisViolation
from .gfmatrix import (
    FieldTable,
    SupportedMatrix,
    _check_projective_budget,
    _first_witness,
    _iter_projective_rows,
    _iter_random_rows,
    _rank_of_rows,
    field_table,
)


@dataclass(frozen=True, slots=True)
class RSCode:
    """Generator matrix of an MDS code of the requested length and
    minimum distance over GF(q).

    Lengths up to q use evaluations of low-degree polynomials at the
    points 0, 1, g, g^2, ... (g the field generator, in that fixed
    order); length q+1 appends the coefficient of the top-degree
    monomial as an extra coordinate.  Longer codes are refused: they
    are not available at every such length and dimension.
    """

    field: FieldTable
    length: int
    min_dist: int
    dimension: int
    generator: tuple[tuple[int, ...], ...]


def rs_code(q: int | FieldTable, length: int, min_dist: int) -> RSCode:
    field = q if isinstance(q, FieldTable) else field_table(q)
    if not 1 <= min_dist <= length:
        raise HypothesisViolation(f"need 1 <= min_dist <= length, got {min_dist}, {length}")
    if length > field.q + 1:
        raise HypothesisViolation(
            f"length {length} exceeds q+1 = {field.q + 1}; no such code is provided"
        )
    k = length - min_dist + 1
    points = [0] + [field.pow(field.generator, t) for t in range(field.q - 1)]
    extended = length == field.q + 1
    eval_points = points if extended else points[:length]
    rows = []
    for t in range(k):
        row = [field.pow(x, t) for x in eval_points]
        if extended:
            row.append(1 if t == k - 1 else 0)
        rows.append(tuple(row))
    return RSCode(field, length, min_dist, k, tuple(rows))


@dataclass(frozen=True, slots=True)
class ConstructedSpace:
    diagram: FerrersDiagram
    d: int
    q: int
    dimension: int
    basis: tuple[SupportedMatrix, ...]
    diagonals: tuple[int, ...]
    transposed: bool

    @property
    def field(self) -> FieldTable:
        return field_table(self.q)


def _diagonal_cells(diagram: FerrersDiagram, r: int) -> list[tuple[int, int]]:
    m = diagram.m
    return sorted(
        (i, m - r + i)
        for i in range(1, diagram.n + 1)
        if 1 <= m - r + i <= m and (i, m - r + i) in diagram
    )


def build_space(diagram: FerrersDiagram, d: int, q: int) -> ConstructedSpace:
    """Assemble the diagonal construction for (F, d) over GF(q).

    Needs q >= max_i<=m |D_i ∩ F| - 1 so that every required code
    length stays within q+1.  Diagrams with m < n are transposed, built,
    and mapped back, so one code path serves both orientations.
    """
    if d < 1:
        raise HypothesisViolation("d must be positive")
    field = field_table(q)
    flip = diagram.m < diagram.n
    work = transpose(diagram) if flip else diagram
    profile = diagonal_profile(work)
    longest = max(profile.count(i) for i in range(1, work.m + 1))
    if q < longest - 1:
        raise HypothesisViolation(
            f"q={q} is below the construction threshold {longest - 1} for {diagram}"
        )
    chosen = [i for i in range(1, work.m + 1) if profile.count(i) >= d]
    basis: list[SupportedMatrix] = []
    n, m = diagram.n, diagram.m
    for i in chosen:
        cells = _diagonal_cells(work, i)
        code = rs_code(field, len(cells), d)
        for word in code.generator:
            placed = dict(zip(cells, word))
            if flip:
                placed = {(n + 1 - jp, m + 1 - ip): v for (ip, jp), v in placed.items()}
            basis.append(SupportedMatrix.from_cells(field, diagram, placed))
    return ConstructedSpace(
        diagram, d, q, len(basis), tuple(basis), tuple(chosen), flip
    )


@dataclass(frozen=True, slots=True)
class VerifyReport:
    ok: bool
    mode: str
    checked: int
    basis_independent: bool
    witness_coefficients: tuple[int, ...] | None
    witness_rank: int | None
    seed: int | None = None


def verify_space(
    space: ConstructedSpace,
    max_combinations: int | None = None,
    sample: int | None = None,
    seed: int | None = None,
) -> VerifyReport:
    """Check that every nonzero combination of the basis has rank >= d.

    Exhaustive over one representative per projective point, in a fixed
    lexicographic order, so a failing run always reports the same first
    witness.  When the combination count exceeds the budget, refuses
    unless a sample size was requested explicitly; with one, checks that
    many seeded random nonzero combinations instead.  A sample size
    below 1 is refused, since it would check nothing.
    """
    if sample is not None and sample < 1:
        raise HypothesisViolation(f"sample={sample!r} must be at least 1")
    if space.dimension == 0:
        return VerifyReport(True, "exhaustive", 0, True, None, None)
    field = space.field
    vectors = [list(mat.to_vector()) for mat in space.basis]
    independent = _rank_of_rows([v[:] for v in vectors], field) == len(vectors)
    if sample is None:
        _check_projective_budget(
            space.q, space.dimension, max_combinations,
            "; raise max_combinations (--max-combos on the command line), "
            "or call verify_space(..., sample=N) from Python for a randomized check",
        )
        mode, combinations = "exhaustive", _iter_projective_rows(space.basis)
    else:
        mode = "sampled"
        combinations = _iter_random_rows(space.basis, sample, random.Random(seed))
    checked, coeffs, rank = _first_witness(combinations, field, space.d)
    return VerifyReport(
        coeffs is None and independent, mode, checked, independent, coeffs, rank,
        None if sample is None else seed,
    )


def optimality_check(space: ConstructedSpace) -> bool:
    """Does the construction meet the deletion bound with equality?"""
    return space.dimension == kappa(space.diagram, space.d).minimum


def space_to_json(space: ConstructedSpace) -> dict:
    report = kappa(space.diagram, space.d)
    return {
        "q": space.q,
        "d": space.d,
        "diagram": str(space.diagram),
        "dimension": space.dimension,
        "kappa": report.minimum,
        "optimal": space.dimension == report.minimum,
        "diagonals": list(space.diagonals),
        "transposed": space.transposed,
        "basis": [
            {f"{i},{j}": v for (i, j), v in sorted(
                ((cell, val) for cell, val in zip(mat.diagram.cells(), mat.to_vector()) if val)
            )}
            for mat in space.basis
        ],
    }


def space_from_json(data: dict) -> ConstructedSpace:
    missing = [key for key in ("diagram", "q", "d", "basis") if key not in data]
    if missing:
        raise HypothesisViolation(f"space JSON lacks the keys {missing}")
    diagram = parse_diagram(data["diagram"])
    field = field_table(int(data["q"]))
    basis = []
    for sparse in data["basis"]:
        cells = {}
        for key, val in sparse.items():
            i, j = key.split(",")
            cells[(int(i), int(j))] = int(val)
        basis.append(SupportedMatrix.from_cells(field, diagram, cells))
    return ConstructedSpace(
        diagram,
        int(data["d"]),
        int(data["q"]),
        len(basis),
        tuple(basis),
        tuple(int(i) for i in data.get("diagonals", ())),
        bool(data.get("transposed", False)),
    )
