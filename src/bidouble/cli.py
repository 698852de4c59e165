"""Command-line front end.

Subcommands:

* ``verify <scenario>|all`` -- run pinned verification scenarios;
* ``custom <file>``         -- run the pipeline on a cover document;
* ``h0 --degree d --mults "m1,m2,..."`` -- dimension of a fat-point system;
* ``code --fixture <file>`` -- code of a nodal-class fixture.

Exit codes: 0 all checks pass, 1 a check or validation failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import index

from .codes import (EnumerationCapError, code_of_classes, is_doubly_even,
                    isotropy_bound, weights)
from .covers import InvariantConsistencyError, RelationError
from .lattice import BlowupLattice
from .plane import FatPointSystem, h0_fat_points, standard_quadrilateral
from .scenarios import (SCENARIO_NAMES, ScenarioAbort, load_document,
                        run_custom, run_scenario)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidouble",
        description="exact verification scenarios for bidouble-cover "
                    "constructions over the plane quadrilateral")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a pinned verification scenario")
    p.add_argument("scenario", choices=(*SCENARIO_NAMES, "all"))
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("custom", help="run the pipeline on a cover document")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("h0", help="dimension of a fat-point linear system")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mults", required=True,
                   help="comma-separated multiplicities at P1, P2, ...")
    p.add_argument("--with-p7", action="store_true")
    p.add_argument("--general-point", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("code", help="binary code of a nodal-class fixture")
    p.add_argument("--fixture", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _cmd_verify(args) -> int:
    names = list(SCENARIO_NAMES) if args.scenario == "all" else [args.scenario]
    try:
        reports = [run_scenario(n, args.seed) for n in names]
    except ScenarioAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = reports[0].to_dict() if len(reports) == 1 else \
            [r.to_dict() for r in reports]
        print(json.dumps(payload, indent=2))
    else:
        print("\n\n".join(r.to_text() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _custom_text(report: dict) -> str:
    inv = report["invariants"]
    lines = [f"custom cover {report['source']}  (seed={report['seed']})",
             f"  L1 = {report['L1']}  L2 = {report['L2']}  "
             f"({report['l_provenance']})",
             f"  L3 = {report['L3']}"]
    for key in ("chi", "K2_cover", "pg", "q", "contractions", "K2_minimal",
                "double_fibres", "bicanonical_degree", "involution_index"):
        lines.append(f"  {key} = {inv[key]}")
    return "\n".join(lines)


def _cmd_custom(args) -> int:
    try:
        doc = load_document(args.path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read cover document: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_custom(doc, seed=args.seed)
    except (RelationError, InvariantConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed cover document: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(_custom_text(report))
    return 0


def _cmd_h0(args) -> int:
    try:
        mults = [int(tok) for tok in args.mults.split(",") if tok.strip() != ""]
    except ValueError:
        print("error: --mults must be comma-separated integers", file=sys.stderr)
        return 2
    try:
        cfg = standard_quadrilateral(with_p7=args.with_p7,
                                     with_general_point=args.general_point,
                                     seed=args.seed)
        if len(mults) > len(cfg.points):
            raise ValueError(
                f"{len(mults)} multiplicities but only {len(cfg.points)} points")
        system = FatPointSystem(
            args.degree,
            tuple((i, m) for i, m in enumerate(mults) if m > 0))
        value = h0_fat_points(cfg, system)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"degree": args.degree, "mults": mults, "h0": value}))
    else:
        print(f"h0(degree {args.degree}, mults {mults}) = {value}")
    return 0


def _cmd_code(args) -> int:
    try:
        doc = load_document(args.fixture)
        lat = BlowupLattice(index(doc["lattice_n"]))
        classes = [lat.from_vector(v) for v in doc["classes"]]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: bad fixture: {exc}", file=sys.stderr)
        return 2
    try:
        code = code_of_classes(classes, lat)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        dist = weights(code)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lhs, rhs, holds = isotropy_bound(code, lat.rank)
    report = {
        "fixture": doc.get("name", "unnamed"),
        "k": code.length,
        "dim": code.dim,
        "generators": code.to_rows(),
        "weights": sorted([w, c] for w, c in dist.items()),
        "doubly_even": is_doubly_even(code),
        "isotropy": {"lhs": lhs, "rhs": rhs, "holds": holds},
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"code of {report['fixture']}: k={report['k']}, dim={report['dim']}")
        print(f"  generators: {report['generators']}")
        print(f"  weights: {report['weights']}  doubly even: {report['doubly_even']}")
        print(f"  isotropy bound: {lhs} <= {rhs} -> {holds}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "verify": _cmd_verify,
        "custom": _cmd_custom,
        "h0": _cmd_h0,
        "code": _cmd_code,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
