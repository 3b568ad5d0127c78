"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 hypothesis violation, 3 budget
refusal, 4 golden-value mismatch.  Every command takes --format
text|json; JSON output is schema-stable.  Budgets can be overridden by
the flags below or the ROOKBOUND_MAX_ENUM / ROOKBOUND_MAX_COMBOS
environment variables.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .arith import NEG_INFINITY
from .bounds import (
    classify_density,
    existence_lower_bound,
    kappa,
    mds_constructible,
)
from .construction import build_space, optimality_check, space_to_json, verify_space
from .counting import count_mds2, count_mds3_square
from .diagrams import diagonal_profile, parse_diagram, to_path
from .errors import BudgetExceeded, HypothesisViolation
from .gfmatrix import (
    ball_size,
    brute_force_census,
    census_polynomial,
    estimate_density,
)
from .golden import run_golden_suite
from .rooks import diagonal_surplus, rook_polynomial, tau_closed_form, tau_via_polynomial

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3
EXIT_GOLDEN = 4


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _ext(value):
    """Extended integers in JSON: -inf becomes the string \"-inf\"."""
    return "-inf" if value is NEG_INFINITY else value


def _cmd_kappa(args) -> int:
    diagram = parse_diagram(args.diagram)
    report = kappa(diagram, args.d)
    payload = {
        "diagram": str(diagram),
        "d": args.d,
        "kappa": report.minimum,
        "kappa_vector": list(report.values),
        "argmin": list(report.argmin),
    }
    _emit(
        args,
        payload,
        f"kappa({diagram}, {args.d}) = {report.minimum}\n"
        f"  deletion areas: {list(report.values)}\n"
        f"  attained at j in {list(report.argmin)}",
    )
    return EXIT_OK


def _cmd_tau(args) -> int:
    diagram = parse_diagram(args.diagram)
    via_poly = tau_via_polynomial(diagram, args.r)
    try:
        closed = tau_closed_form(diagram, args.r)
        note = None
    except HypothesisViolation as exc:
        if not args.force:
            raise
        closed = None
        note = str(exc)
    payload = {
        "diagram": str(diagram),
        "r": args.r,
        "closed_form": closed,
        "via_polynomial": _ext(via_poly),
    }
    lines = [
        f"tau({diagram}, {args.r}):",
        f"  closed form:    {closed if closed is not None else 'hypothesis violated'}",
        f"  via polynomial: {_ext(via_poly)}",
    ]
    if note:
        payload["note"] = note
        payload["raw_diagonal_sum"] = diagonal_surplus(diagram, args.r)
        lines.append(f"  raw diagonal sum (no claim attached): {payload['raw_diagonal_sum']}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_profile(args) -> int:
    diagram = parse_diagram(args.diagram)
    profile = diagonal_profile(diagram)
    payload = {
        "diagram": str(diagram),
        "n": diagram.n,
        "m": diagram.m,
        "size": diagram.size,
        "counts": list(profile.counts),
        "boundary_path": to_path(diagram).steps,
    }
    _emit(
        args,
        payload,
        f"{diagram}: {diagram.n}x{diagram.m}, {diagram.size} dots\n"
        f"  diagonal counts: {list(profile.counts)}\n"
        f"  boundary path:   {to_path(diagram).steps}",
    )
    return EXIT_OK


def _cmd_rookpoly(args) -> int:
    diagram = parse_diagram(args.diagram)
    poly = rook_polynomial(diagram, args.r)
    payload = {
        "diagram": str(diagram),
        "r": args.r,
        "polynomial": {str(e): c for e, c in poly.to_exponent_map().items()},
        "text": str(poly),
    }
    _emit(args, payload, f"R({diagram}, {args.r}) = {poly}")
    return EXIT_OK


def _cmd_census(args) -> int:
    diagram = parse_diagram(args.diagram)
    ranks = range(min(diagram.n, diagram.m) + 1) if args.r is None else [args.r]
    if args.oracle:
        if args.q is None:
            raise HypothesisViolation("--oracle needs -q")
        census = brute_force_census(diagram, args.q, args.max_enum, jobs=args.jobs)
        counts = [census.counts[r] for r in ranks]
        payload = {"q": args.q, "diagram": str(diagram), "counts": counts,
                   "ranks": list(ranks), "mode": "oracle"}
        _emit(args, payload,
              "\n".join(f"rank {r}: {c} matrices" for r, c in zip(ranks, counts)))
        return EXIT_OK
    polys = {r: census_polynomial(diagram, r) for r in ranks}
    if args.q is not None:
        counts = [polys[r].evaluate(args.q) for r in ranks]
        payload = {"q": args.q, "diagram": str(diagram), "counts": counts,
                   "ranks": list(ranks), "mode": "polynomial"}
        _emit(args, payload,
              "\n".join(f"rank {r}: {c} matrices" for r, c in zip(ranks, counts)))
    else:
        payload = {
            "diagram": str(diagram),
            "polynomials": {
                str(r): {str(e): c for e, c in p.to_exponent_map().items()}
                for r, p in polys.items()
            },
        }
        _emit(args, payload,
              "\n".join(f"rank {r}: {p}" for r, p in polys.items()))
    return EXIT_OK


def _cmd_ball(args) -> int:
    diagram = parse_diagram(args.diagram)
    value = ball_size(diagram, args.r, args.q)
    payload = {"diagram": str(diagram), "r": args.r, "q": args.q, "ball": value}
    _emit(args, payload, f"|ball({diagram}, {args.r})| over GF({args.q}) = {value}")
    return EXIT_OK


def _cmd_mds_check(args) -> int:
    diagram = parse_diagram(args.diagram)
    verdict = mds_constructible(diagram, args.d)
    if args.at_k:
        ks = [int(tok) for tok in args.at_k.split(",")]
    elif args.d >= 2 and verdict.kappa >= 1:
        ks = [verdict.kappa]
    else:
        ks = []
    classes = {str(k): classify_density(diagram, args.d, k).value for k in ks}
    payload = {
        "diagram": str(diagram),
        "d": args.d,
        "kappa": verdict.kappa,
        "kappa_vector": list(verdict.kappa_vector),
        "diag_sum_all": verdict.diagonal_sum_all,
        "diag_sum_first_m": verdict.diagonal_sum_first_m,
        "tau": verdict.tau,
        "mds_constructible": verdict.is_mds_constructible,
        "density_class_at": classes,
    }
    text = (
        f"({diagram}, d={args.d}): MDS-constructible: {verdict.is_mds_constructible}\n"
        f"  kappa = {verdict.kappa}, all-diagonal sum = {verdict.diagonal_sum_all}, "
        f"first-m sum = {verdict.diagonal_sum_first_m}, tau = {verdict.tau}"
    )
    for k, cls in classes.items():
        text += f"\n  at dimension {k}: {cls}"
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_classify(args) -> int:
    diagram = parse_diagram(args.diagram)
    regime = classify_density(diagram, args.d, args.k)
    payload = {"diagram": str(diagram), "d": args.d, "k": args.k, "class": regime.value}
    _emit(args, payload, f"({diagram}, d={args.d}, k={args.k}): {regime.value}")
    return EXIT_OK


def _cmd_exist_bound(args) -> int:
    diagram = parse_diagram(args.diagram)
    value = existence_lower_bound(diagram, args.d, args.k, args.q)
    payload = {"diagram": str(diagram), "d": args.d, "k": args.k, "q": args.q,
               "lower_bound": value, "certifies_existence": value > 0}
    _emit(args, payload, str(value))
    return EXIT_OK


def _cmd_construct(args) -> int:
    diagram = parse_diagram(args.diagram)
    space = build_space(diagram, args.d, args.q)
    payload = space_to_json(space)
    if args.verify:
        report = verify_space(space, max_combinations=args.max_combos)
        payload["verified"] = report.ok
        payload["checked_combinations"] = report.checked
        if not report.ok:
            payload["witness"] = {
                "coefficients": list(report.witness_coefficients or ()),
                "rank": report.witness_rank,
            }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"dimension {space.dimension} space on {diagram} over GF({args.q}), "
              f"diagonals {list(space.diagonals)}, optimal: {optimality_check(space)}")
        if args.verify:
            print(f"verification: {'PASS' if payload['verified'] else 'FAIL'} "
                  f"({payload['checked_combinations']} combinations)")
        for idx, sparse in enumerate(payload["basis"]):
            print(f"  basis[{idx}]: {sparse}")
    if args.verify and not payload["verified"]:
        return EXIT_GOLDEN
    return EXIT_OK


def _cmd_count_mds(args) -> int:
    if args.d == 2:
        comparison = count_mds2(args.n, args.m)
    else:
        if args.n != args.m:
            raise HypothesisViolation("d=3 counting is available for square boards only")
        comparison = count_mds3_square(args.n)
    payload = {
        "n": comparison.n, "m": comparison.m, "d": comparison.d,
        "formula_count": comparison.formula,
        "enumerated_count": comparison.enumerated,
        "agree": comparison.agree,
    }
    _emit(
        args,
        payload,
        f"(n={comparison.n}, m={comparison.m}, d={comparison.d}) "
        f"formula={comparison.formula} enumerated={comparison.enumerated} "
        f"agree={comparison.agree}",
    )
    return EXIT_OK


def _cmd_density(args) -> int:
    diagram = parse_diagram(args.diagram)
    est = estimate_density(
        diagram, args.d, args.k, args.q, args.trials, seed=args.seed,
        max_combinations=args.max_combos,
    )
    payload = {
        "diagram": str(diagram), "d": args.d, "k": args.k, "q": args.q,
        "estimate": est.estimate, "ci_low": est.ci_low, "ci_high": est.ci_high,
        "trials": est.trials, "hits": est.hits, "seed": est.seed, "prng": est.prng,
    }
    _emit(
        args,
        payload,
        f"density estimate {est.estimate:.4f} "
        f"(95% CI [{est.ci_low:.4f}, {est.ci_high:.4f}], {est.trials} trials, "
        f"seed={est.seed}, prng={est.prng})",
    )
    return EXIT_OK


def _cmd_verify_golden(args) -> int:
    results = run_golden_suite()
    failures = [r for r in results if not r.ok]
    if args.format == "json":
        print(json.dumps(
            [{"label": r.label, "ok": r.ok, "expected": r.expected, "actual": r.actual}
             for r in results]))
    else:
        width = max(len(r.label) for r in results)
        for r in results:
            mark = "PASS" if r.ok else "FAIL"
            line = f"{mark}  {r.label:<{width}}"
            if not r.ok:
                line += f"  expected {r.expected}, got {r.actual}"
            print(line)
        print(f"{len(results) - len(failures)}/{len(results)} golden values verified")
    return EXIT_GOLDEN if failures else EXIT_OK


def _cmd_exist_table(args) -> int:
    from .golden import load_golden_data, rounded_bounds

    rows = []
    for entry in load_golden_data()["existence_table"]:
        diagram = parse_diagram(entry["diagram"])
        report = kappa(diagram, entry["d"])
        verdict = mds_constructible(diagram, entry["d"])
        bound = existence_lower_bound(diagram, entry["d"], report.minimum, entry["q"])
        lo, hi = rounded_bounds(entry["printed"])
        profile = diagonal_profile(diagram)
        threshold = max(profile.count(i) for i in range(1, diagram.m + 1)) - 1
        rows.append({
            "diagram": entry["diagram"], "d": entry["d"],
            "kappa": report.minimum,
            "mds_constructible": verdict.is_mds_constructible,
            "q": entry["q"], "lower_bound": str(bound),
            "reference": entry["printed"],
            "digits_match": bool(lo <= bound < hi),
            "construction_threshold_q": threshold,
        })
    if args.format == "json":
        print(json.dumps(rows))
    else:
        for row in rows:
            print(f"{row['diagram']:>24}  d={row['d']}  kappa={row['kappa']}  "
                  f"constructible={row['mds_constructible']}  q={row['q']}  "
                  f"bound={row['lower_bound']}  ~{row['reference']}  "
                  f"digits_match={row['digits_match']}  "
                  f"construction needs q >= {row['construction_threshold_q']}")
    if not all(r["digits_match"] and r["mds_constructible"] for r in rows):
        return EXIT_GOLDEN
    return EXIT_OK


# built once per process: parsing leaves no state in the parser
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookbound",
        description="Exact combinatorics of Ferrers-diagram matrix spaces.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("kappa", _cmd_kappa, help="deletion bound with its full vector")
    p.add_argument("diagram")
    p.add_argument("-d", type=int, required=True)

    p = add("tau", _cmd_tau, help="trailing degree, by both routes")
    p.add_argument("diagram")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--force", action="store_true",
                   help="report the raw diagonal sum even when the closed form "
                        "carries no guarantee")

    p = add("profile", _cmd_profile, help="diagonal counts and boundary path")
    p.add_argument("diagram")

    p = add("rookpoly", _cmd_rookpoly, help="q-rook polynomial")
    p.add_argument("diagram")
    p.add_argument("-r", type=int, required=True)

    p = add("census", _cmd_census, help="rank census polynomials or counts")
    p.add_argument("diagram")
    p.add_argument("-q", type=int, default=None)
    p.add_argument("-r", type=int, default=None)
    p.add_argument("--oracle", action="store_true",
                   help="count by exhaustive matrix enumeration instead of the "
                        "placement-sum polynomial")
    p.add_argument("--max-enum", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)

    p = add("ball", _cmd_ball, help="number of matrices of rank at most r")
    p.add_argument("diagram")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-q", type=int, required=True)

    p = add("mds-check", _cmd_mds_check, help="MDS-constructibility verdict")
    p.add_argument("diagram")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--at-k", default=None,
                   help="comma-separated dimensions to classify alongside the "
                        "verdict (default: the bound itself when defined)")

    p = add("classify", _cmd_classify, help="dense/sparse regime of (F, d) at dimension k")
    p.add_argument("diagram")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-k", type=int, required=True)

    p = add("exist-bound", _cmd_exist_bound, help="exact existence lower bound")
    p.add_argument("diagram")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-q", type=int, required=True)

    p = add("construct", _cmd_construct, help="build the diagonal Reed-Solomon space")
    p.add_argument("diagram")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-combos", type=int, default=None)

    p = add("count-mds", _cmd_count_mds, help="formula vs enumeration table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-d", type=int, required=True, choices=(2, 3))

    p = add("density", _cmd_density, help="seeded Monte-Carlo density estimate")
    p.add_argument("diagram")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-combos", type=int, default=None)

    add("verify-golden", _cmd_verify_golden,
        help="recompute every stored reference value and report mismatches")
    add("exist-table", _cmd_exist_table,
        help="recompute the existence-bound showcase rows")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
