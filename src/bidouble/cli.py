"""Command-line front end.

Subcommands:

* ``verify <scenario>|all`` -- run pinned verification scenarios;
* ``custom <file>``         -- run the pipeline on a cover document;
* ``h0 --degree d --mults "m1,m2,..."`` -- dimension of a fat-point system;
* ``code --fixture <file>`` -- code of a nodal-class fixture.

Exit codes: 0 all checks pass, 1 a check or validation failed, 2 bad input.

Each command imports its modules when it runs: ``verify`` and ``custom``
load ``scenarios`` (which loads the rest, ``codes`` only for the ``codes``
scenario), ``h0`` loads ``plane`` and ``lattice``, and ``code`` loads
``codes`` and ``lattice``.  The parser is built once per process and
reused by every call of :func:`main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from operator import index

# scenarios.SCENARIO_NAMES, spelled out so that the parser needs no import
SCENARIO_NAMES = ("example1", "example1-degenerate", "example2", "example3",
                  "lemma-numeri", "codes", "bounds")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, not the usage; exits 2
        self.exit(2, f"error: {' '.join(message.splitlines())}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for dicts with str
    keys, in about half the time of the pure-Python encoder that ``indent``
    selects.  Items of exact type str, int, bool or None are written in the
    loop; other leaves (a float, an IntEnum) go to ``json``."""
    if isinstance(value, dict):
        items, ends = value.items(), "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = zip(value, value), "[]"  # the key is not written
    else:
        return json.dumps(value)
    inner = indent + "  "
    parts = []  # a loop, not a comprehension: one frame per level of nesting
    for k, v in items:
        t = type(v)
        if t is str:
            v = encode_basestring_ascii(v)
        elif t is int:
            v = repr(v)
        elif t is bool or v is None:
            v = "null" if v is None else "true" if v else "false"
        else:
            v = _dumps(v, inner)
        parts.append(v if ends == "[]" else encode_basestring_ascii(k) + ": " + v)
    return (ends[0] + inner + ("," + inner).join(parts) + indent + ends[1]
            if parts else ends)


def _cmd_verify(args) -> int:
    from .scenarios import ScenarioAbort, run_scenario
    names = list(SCENARIO_NAMES) if args.scenario == "all" else [args.scenario]
    try:
        reports = [run_scenario(n, args.seed) for n in names]
    except ScenarioAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = reports[0].to_dict() if len(reports) == 1 else \
            [r.to_dict() for r in reports]
        print(_dumps(payload))
    else:
        print("\n\n".join(r.to_text() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _emit(text: str) -> int:
    """Print a report; exit 2 when a name taken from the input (a lone
    surrogate, say) cannot be written to standard output."""
    try:
        print(text)
    except UnicodeEncodeError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return 0


def _custom_text(report: dict) -> str:
    lines = [f"custom cover {report['source']}  (seed={report['seed']})",
             f"  L1 = {report['L1']}  L2 = {report['L2']}  "
             f"({report['l_provenance']})",
             f"  L3 = {report['L3']}"]
    lines += (f"  {k} = {v}" for k, v in report["invariants"].items())
    return "\n".join(lines)


def _cmd_custom(args) -> int:
    from .covers import IncidenceError, InvariantConsistencyError, RelationError
    from .scenarios import load_document, run_custom
    try:
        doc = load_document(args.path)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: a NUL byte in the path, or the text is not UTF-8 JSON
        print(f"error: cannot read cover document: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_custom(doc, seed=args.seed)
    except (RelationError, InvariantConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IncidenceError as exc:  # well-formed, but no valid cover
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed cover document: {exc}", file=sys.stderr)
        return 2
    return _emit(_dumps(report) if args.format == "json"
                 else _custom_text(report))


def _cmd_h0(args) -> int:
    from .plane import FatPointSystem, h0_fat_points, standard_quadrilateral
    try:
        mults = [int(tok) for tok in args.mults.split(",")] \
            if args.mults.strip() else []
        if any(m < 0 for m in mults):
            raise ValueError
    except ValueError:
        print("error: --mults must be comma-separated non-negative integers",
              file=sys.stderr)
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
    from .codes import (EnumerationCapError, code_of_classes, is_doubly_even,
                        isotropy_bound, weights)
    from .lattice import BlowupLattice
    try:
        with open(args.fixture, encoding="utf-8") as fh:
            doc = json.load(fh)
        lat = BlowupLattice(index(doc["lattice_n"]))
        classes = [lat.from_vector(v) for v in doc["classes"]]
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
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
        return _emit(_dumps(report))
    return _emit(
        f"code of {report['fixture']}: k={report['k']}, dim={report['dim']}\n"
        f"  generators: {report['generators']}\n"
        f"  weights: {report['weights']}  doubly even: {report['doubly_even']}\n"
        f"  isotropy bound: {lhs} <= {rhs} -> {holds}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a bad command line (2), or -h/--help (0)
        return exc.code
    handler = {
        "verify": _cmd_verify,
        "custom": _cmd_custom,
        "h0": _cmd_h0,
        "code": _cmd_code,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
