"""Fuzzing of the command line, in process.

Every input must end in exit 0, 1 or 2; a non-zero exit writes exactly one
line to stderr; no exception escapes ``cli.main``.  The cover documents and
code fixtures are the shipped ones, mutated; the argument lists are
arbitrary, mixed with the words the parser knows.  Standard output is a
strict UTF-8 stream, as a terminal or a pipe is.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum

import pytest
from hypothesis import event, example, given, settings, strategies as st

from bidouble.cli import _dumps, main
from bidouble.examples import data_path, load_document

SETTINGS = dict(database=None, deadline=None)

# line breaks and a lone surrogate are the characters a report or a
# one-line message can trip over
TEXT = st.text(st.characters() | st.sampled_from("\n\x85\u2028\ud800"),
               max_size=4)
SCALARS = (st.none() | st.booleans() | st.integers(-3, 20)
           | st.floats(allow_nan=False) | TEXT)
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(TEXT, inner, max_size=3),
                    max_leaves=6)


def run(argv) -> int:
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
        out.flush()
    assert code in (0, 1, 2)
    event(f"exit {code}")
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    return code


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def _paths(value, prefix=()):
    """The path to every entry of a JSON value, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, data):
    """One random edit: replace, delete or insert an entry, or shift an
    integer, anywhere in the document."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent, key = _at(doc, path[:-1]), path[-1]
    edit = data.draw(st.sampled_from(("replace", "delete", "insert", "shift")))
    if edit == "replace":
        parent[key] = data.draw(JSON)
    elif edit == "delete":
        del parent[key]
    elif edit == "insert" and isinstance(parent, list):
        parent.insert(key, data.draw(st.integers(-3, 3) | JSON))
    elif type(parent[key]) is int:
        parent[key] += data.draw(st.integers(-3, 3) | st.integers(-10**6, 10**6))


# the conic bundles f1, f2, f3, and C on P7: pencils custom can count over
CATALOGUE_PENCILS = {
    6: [[2, 0, 1, 0, 1, 1, 1], [2, 1, 0, 1, 0, 1, 1], [2, 1, 1, 1, 1, 0, 0]],
    7: [[2, 0, 1, 0, 1, 1, 1, 0], [2, 1, 0, 1, 0, 1, 1, 0],
        [2, 1, 1, 1, 1, 0, 0, 0], [4, 2, 1, 2, 1, 1, 1, 2]],
}
COMPONENT_EDITS = {"name": TEXT, "branch": st.integers(-1, 4),
                   "multiplicity": st.integers(-1, 3)}


def _edit_cover(doc, data):
    """Edits that keep the document's shape: its name, a few fields of a
    few components, L1/L2, the pencil, the configuration and lattice_n."""
    doc["name"] = data.draw(TEXT)
    for comp in data.draw(st.lists(st.sampled_from(doc["components"]),
                                   max_size=2)):
        comp.update(data.draw(st.fixed_dictionaries({},
                                                    optional=COMPONENT_EDITS)))
    fields = data.draw(st.sets(st.sampled_from(
        ("L1", "L2", "pencil", "configuration", "lattice_n")), max_size=2))
    for name in fields & {"L1", "L2"}:
        doc.pop(name, None)
    if "lattice_n" in fields:
        doc["lattice_n"] = data.draw(st.integers(5, 8))
    if "pencil" in fields:
        choices = CATALOGUE_PENCILS.get(doc["lattice_n"], [])
        # a copy: later mutations edit the pencil in place
        doc["pencil"] = list(data.draw(
            st.sampled_from(choices) if choices
            else st.lists(st.integers(-2, 4), max_size=9)))
    if "configuration" in fields:
        doc["configuration"] = data.draw(st.sampled_from(
            ("quadrilateral", "quadrilateral-p7",
             "quadrilateral-general-point", "hexagon", None)))


@settings(max_examples=200, **SETTINGS)
@given(st.data())
def test_fuzz_custom(scratch, data):
    n = data.draw(st.integers(1, 3))
    doc = load_document(data_path(f"example{n}.json"))
    _edit_cover(doc, data)
    for _ in range(data.draw(st.integers(0, 2))):
        _mutate(doc, data)
    scratch.write_text(json.dumps(doc))
    fmt = data.draw(st.sampled_from(("json", "text")))
    seed = data.draw(st.integers(-10**6, 10**6))
    run(["custom", str(scratch), "--format", fmt, f"--seed={seed}"])


@settings(max_examples=200, **SETTINGS)
@given(degree=st.integers(-5, 10**6),
       tokens=st.lists(st.integers(-3, 10**6).map(str)
                       | st.sampled_from(("", " ", "x", "1.5", "+2", " 3 ")),
                       max_size=8),
       place=st.sampled_from(((), ("--with-p7",), ("--general-point",),
                              ("--with-p7", "--general-point"))),
       seed=st.integers(-10**9, 10**9),
       fmt=st.sampled_from(("json", "text")))
def test_fuzz_h0(degree, tokens, place, seed, fmt):
    run(["h0", f"--degree={degree}", f"--mults={','.join(tokens)}", *place,
         f"--seed={seed}", "--format", fmt])


@settings(max_examples=200, **SETTINGS)
@given(st.data())
def test_fuzz_code(scratch, data):
    name = data.draw(st.sampled_from(("nodal_sides.json", "nodal10_rank14.json")))
    doc = load_document(data_path(name))
    doc["name"] = data.draw(TEXT)
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(doc, data)
    scratch.write_text(json.dumps(doc))
    fmt = data.draw(st.sampled_from(("json", "text")))
    run(["code", "--fixture", str(scratch), "--format", fmt])


# the words the parser knows, the shipped inputs, and anything else
WORDS = st.sampled_from((
    "verify", "custom", "h0", "code", "all", "example2", "codes", "json",
    "text", "--format", "--seed", "--degree", "--mults", "--with-p7",
    "--general-point", "--fixture", "-h", "--help", "--", "-", "-1,2",
    str(data_path("example1.json")), str(data_path("nodal_sides.json"))))
ARGUMENT = WORDS | st.integers(-3, 20).map(str) | TEXT


@settings(max_examples=300, **SETTINGS)
@given(argv=st.lists(ARGUMENT, max_size=8))
def test_fuzz_arguments(argv):
    run(argv)


# keys and strings a JSON writer must escape: quotes, backslashes, control
# and non-ASCII characters, lone surrogates
ESCAPED = st.text(st.characters() | st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f\x85\u2028\ud800\udfff\U0001f600'),
    max_size=6)


# subclasses of int and str miss the writer's exact-type path for leaves;
# they must come out as the standard library writes them
class Level(IntEnum):
    LOW = -1
    HIGH = 2**70


class Name(str):
    pass


NAMES = ESCAPED | ESCAPED.map(Name)
LEAVES = (st.none() | st.booleans() | st.integers()
          | st.integers(2**64, 2**200) | st.integers(-2**200, -2**64)
          | st.floats() | NAMES | st.sampled_from(Level))
VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(NAMES, inner, max_size=4), max_leaves=12)


@settings(max_examples=200, **SETTINGS)
@given(VALUES)
@example([])
@example({})
@example([[], {}, ()])
@example({"": {"\ud800": [2**64, -2**70, True, False, None]}})
@example([1, True, -2, 0.5, False, float("nan"), 3, -0.0, float("-inf")])
@example((Level.LOW, (True, 1.5e300), [Level.HIGH, (Name("a\n"), 0)]))
@example({Name("k"): Name("v"), "n": [Level.LOW, 2, 2.0], "t": (None,)})
def test_json_writer_matches_the_standard_library(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_json_writer_follows_the_reader_down(tmp_path):
    # a name nested as deep as a document can be read: the writer must not
    # refuse what the reader accepted
    doc = load_document(data_path("example2.json"))
    doc["name"] = json.loads("[" * 700 + "]" * 700)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["custom", str(path)]) == 0
    report = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(report, indent=2) + "\n"
