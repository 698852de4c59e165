import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bidouble
from bidouble.cli import main
from bidouble.covers import RelationError
from bidouble.examples import (cover_from_document, data_path, load_document,
                               run_custom)
from bidouble.lattice import DivisorClass
from bidouble.plane import standard_quadrilateral
from bidouble.scenarios import SCENARIO_NAMES, run_scenario


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_passes(name):
    rep = run_scenario(name)
    failing = [c["id"] for c in rep.checks if not c["pass"]]
    assert not failing, f"{name}: failing checks {failing}"


def test_unknown_scenario():
    with pytest.raises(KeyError):
        run_scenario("example9")


def test_module_error_carries_check_position(monkeypatch):
    from bidouble import scenarios

    def broken(rep):
        rep.add("first", "a fine check", 1, 1)
        raise ValueError("boom")

    monkeypatch.setitem(scenarios._SCENARIOS, "broken", broken)
    with pytest.raises(scenarios.ScenarioAbort, match="after check 'first'"):
        run_scenario("broken")


def test_report_shape():
    d = run_scenario("bounds").to_dict()
    assert set(d) == {"scenario", "seed", "decomposition_depth", "checks",
                      "summary"}
    for c in d["checks"]:
        assert set(c) == {"id", "anchor", "expected", "computed", "pass"}
        assert c["pass"] is (c["expected"] == c["computed"])
    s = d["summary"]
    assert s["total"] == s["passed"] + s["failed"] == len(d["checks"])


def test_report_deterministic():
    a = run_scenario("example1-degenerate", seed=7).to_dict()
    b = run_scenario("example1-degenerate", seed=7).to_dict()
    assert a == b
    assert json.dumps(a, indent=2) == json.dumps(b, indent=2)
    # a different seed draws a different general point but the same outcome
    c = run_scenario("example1-degenerate", seed=8)
    assert c.passed


def test_run_custom_matches_scenarios():
    doc = load_document(data_path("example2.json"))
    rep = run_custom(doc)
    assert rep["valid"] and rep["l_provenance"] == "given"
    # identical to the invariant report of the built-in construction
    from bidouble.covers import analyse
    from bidouble.examples import example2
    cfg = standard_quadrilateral(with_p7=True)
    expected = analyse(example2(), cfg.cls("f1")).to_dict()
    assert rep["invariants"] == expected
    assert rep["L3"] == [4, 2, 2, 2, 1, 1, 1, 1]
    assert rep["bicanonical"]["h0_invariant"] == 6


def test_run_custom_multiplicity_and_branch_zero():
    doc = load_document(data_path("example1.json"))
    base = run_custom(doc)["invariants"]
    # fold the two |f1| members into one multiplicity-2 entry
    folded = dict(doc)
    folded["components"] = [c for c in doc["components"]
                            if c["name"] not in ("f1", "f1p")]
    f1 = next(c for c in doc["components"] if c["name"] == "f1")
    folded["components"].append(dict(f1, multiplicity=2))
    assert run_custom(folded)["invariants"] == base
    # unbranched catalogue declarations are accepted and ignored
    extra = dict(doc)
    extra["components"] = doc["components"] + [
        {"name": "e1-note", "class": [0, -1, 0, 0, 0, 0, 0], "branch": 0,
         "multiplicity": 1}]
    assert run_custom(extra)["invariants"] == base


def test_run_custom_derives_missing_l():
    doc = load_document(data_path("example3.json"))
    assert "L1" not in doc and "L2" not in doc
    rep = run_custom(doc)
    assert rep["l_provenance"] == "derived"
    assert rep["L1"] == [4, 1, 1, 1, 2, 2, 2, 0]
    assert rep["invariants"]["K2_minimal"] == 6


def test_run_custom_relation_failure():
    doc = load_document(data_path("example2.json"))
    doc["L1"][5] += 1
    with pytest.raises(RelationError):
        run_custom(doc)


def test_cli_custom_checks_a_single_given_l_class(tmp_path, capsys):
    # a given L1 without L2 used to be dropped for the derived one, so this
    # wrong L1 was printed as derived and exited 0
    doc = load_document(data_path("example2.json"))
    del doc["L2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(doc, L1=[99, 0, 0, 0, 0, 0, 0, 0])))
    assert main(["custom", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: building data violates cover relations (2L1 - (D2+D3): "
        "residue 188l+2e1+4e2+2e3+6e4+4e5+4e6+2e7)\n")
    # the true L1 alone, or the true L2 alone, reports as the fully derived
    # document does; both given report as "given"
    full = load_document(data_path("example2.json"))
    outputs = []
    for name, given in (("true.json", {"L1": doc["L1"]}),
                        ("l2.json", {"L2": full["L2"]}), ("none.json", {}),
                        ("both.json", {"L1": full["L1"], "L2": full["L2"]})):
        path = tmp_path / name
        path.write_text(json.dumps(
            dict({k: v for k, v in doc.items() if k != "L1"}, **given)))
        for fmt in ("json", "text"):
            assert main(["custom", str(path), "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:4] == outputs[4:6]
    assert '"l_provenance": "derived"' in outputs[0]
    assert outputs[6:] == [o.replace("derived", "given") for o in outputs[:2]]
    assert '"l_provenance": "given"' in outputs[6]


def test_cli_custom_reads_the_pencil_before_building_the_cover(tmp_path,
                                                               capsys):
    # a wrong L1 alone exits 1; with a 6-mult pencil as well, the pencil is
    # refused first (exit 2).  A bad component with a bad pencil is refused
    # for the pencil too
    wrong_l1 = _edited("example2.json", ("L1", 5), 3)
    bad_pencil = dict(wrong_l1, pencil=wrong_l1["pencil"][:7])
    bad_component = _edited("example2.json", ("components", 0, "class"), [1, 0])
    bad_component["pencil"] = bad_pencil["pencil"]
    for doc, code, message in (
            (wrong_l1, 1, "violates cover relations (2L1 - (D2+D3): "
                          "residue -2e5)"),
            (bad_pencil, 2, "class vector has 6 mults, lattice has 7"),
            (bad_component, 2, "class vector has 6 mults, lattice has 7")):
        path = tmp_path / "faulty.json"
        path.write_text(json.dumps(doc))
        assert main(["custom", str(path)]) == code
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert message in err


def test_cli_custom_refuses_a_rigid_curve_in_two_branch_divisors(tmp_path,
                                                                 capsys):
    # e1 in D1 and in D2, a conic through P1 in D3: the relations hold with
    # L1 = L2 = l, but D is not reduced
    e1 = [0, -1, 0, 0, 0, 0, 0]
    path = tmp_path / "rigid.json"
    path.write_text(json.dumps({"lattice_n": 6, "components": [
        {"name": "E1a", "class": e1, "branch": 1},
        {"name": "E1b", "class": e1, "branch": 2},
        {"name": "Q", "class": [2, 1, 0, 0, 0, 0, 0], "branch": 3}],
        "L1": [1, 0, 0, 0, 0, 0, 0], "L2": [1, 0, 0, 0, 0, 0, 0]}))
    assert main(["custom", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == ("error: the rigid curve e1 lies in both D1 and D2, so D "
                   "is not reduced\n") and out == ""


def test_run_custom_malformed():
    with pytest.raises((KeyError, ValueError)):
        run_custom({"lattice_n": 5, "components": []})
    for doc in ([], [1, 2], "example2", 7, None):
        with pytest.raises(ValueError, match="JSON object"):
            run_custom(doc)


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "bounds"]) == 0
    out = capsys.readouterr().out
    assert "5/5 checks passed" in out
    assert main(["verify", "all", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["scenario"] for r in payload] == list(SCENARIO_NAMES)
    assert all(r["summary"]["failed"] == 0 for r in payload)


@pytest.mark.parametrize("name, computed, shown", (
    ("bounds", (1, (2, 3)), "[1, [2, 3]]"),
    ("lemma-numeri", DivisorClass(4, (2, 1)), "[4, 2, 1]"),
))
def test_cli_verify_reports_a_failing_check(name, computed, shown,
                                            monkeypatch, capsys):
    # a failing check prints its JSON forms: a tuple and a class both show
    # as lists, in text and in JSON, and the command exits 1
    from bidouble import scenarios

    body = scenarios._SCENARIOS[name]

    def planted(rep):
        body(rep)
        rep.add("planted", "a claim that does not hold", [0], computed)

    monkeypatch.setitem(scenarios._SCENARIOS, name, planted)
    assert main(["verify", name]) == 1
    lines = capsys.readouterr().out.splitlines()
    # a header, a line per check, a second line for the failure, a summary
    total = len(lines) - 3
    assert lines[-3:] == [
        "  [FAIL] planted: a claim that does not hold",
        f"         expected [0] != computed {shown}",
        f"summary: {total - 1}/{total} checks passed"]
    assert main(["verify", name, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][-1] == {
        "id": "planted", "anchor": "a claim that does not hold",
        "expected": [0], "computed": json.loads(shown), "pass": False}
    assert [c["pass"] for c in report["checks"]] == [True] * (total - 1) + [False]
    assert report["summary"] == {"total": total, "passed": total - 1,
                                 "failed": 1}


def test_cli_verify_json_deterministic(capsys):
    main(["verify", "example2", "--format", "json", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify", "example2", "--format", "json", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_cli_custom(tmp_path, capsys):
    assert main(["custom", str(data_path("example1.json"))]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["invariants"]["K2_minimal"] == 7

    doc = load_document(data_path("example2.json"))
    doc["L2"][1] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["custom", str(bad)]) == 1
    assert "residue" in capsys.readouterr().err

    notjson = tmp_path / "nope.json"
    notjson.write_text("{")
    assert main(["custom", str(notjson)]) == 2
    assert main(["custom", str(tmp_path / "missing.json")]) == 2

    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"lattice_n": 9, "components": []}))
    assert main(["custom", str(malformed)]) == 2

    array = tmp_path / "array.json"
    array.write_text(json.dumps([load_document(data_path("example2.json"))]))
    capsys.readouterr()
    assert main(["custom", str(array)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "JSON object" in err


def _edited(name, keys, value):
    """The shipped document ``name`` with the entry at ``keys`` replaced."""
    doc = load_document(data_path(name))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return doc


def test_cli_rejects_non_integral_input(tmp_path, capsys):
    # int() used to truncate each of these: L1 degree 5.4 printed
    # "L1 = [5, ...]" and exited 0
    for i, (keys, value) in enumerate(((("L1", 0), 5.4),
                                       (("components", 0, "branch"), 1.5),
                                       (("components", 0, "multiplicity"), 1.0),
                                       (("lattice_n",), 7.0),
                                       (("pencil", 1), 0.5))):
        doc = _edited("example2.json", keys, value)
        with pytest.raises(TypeError):
            run_custom(doc)
        path = tmp_path / f"custom{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["custom", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: malformed cover document")
    for i, (keys, value) in enumerate(((("lattice_n",), 6.5),
                                       (("classes", 0, 1), 1.5))):
        path = tmp_path / f"code{i}.json"
        path.write_text(json.dumps(_edited("nodal_sides.json", keys, value)))
        assert main(["code", "--fixture", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: bad fixture")


def test_cli_messages_stay_on_one_line(tmp_path, capsys):
    # a component name with a line break used to split the refusal of its
    # multiplicity over two lines
    doc = load_document(data_path("example2.json"))
    doc["components"][0].update(name="S1\nS2", multiplicity=0)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["custom", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("argv", (
    ["h0", "--degree", "x", "--mults", "1"],
    ["h0", "--degree", "3", "--mults", "-1,2"],
    ["verify", "nope"], [], ["verify", "all", "x\ny"], ["custom", "a\x00b"]),
    ids=("degree", "mults", "choice", "empty", "line-break", "nul"))
def test_cli_argument_errors_exit_2_in_one_line(argv, capsys):
    # argparse used to print its usage and the error (three lines) and
    # raise SystemExit(2); a NUL byte in a path raised ValueError
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("error: ")


def test_cli_custom_refuses_bytes_that_are_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "\xe9"}'.encode("latin-1"))
    assert main(["custom", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read cover document")


@pytest.mark.parametrize("argv", (
    ["--help"], ["h0", "-h"], ["verify", "nope", "--he"], ["-x", "--h"],
    ["custom", "--seed", "-h"], ["verify", "all", "-hx"]))
def test_cli_help_returns_0(argv, capsys):
    # a help word before the first "--" wins over any error in the line
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: bidouble") and err == ""


@pytest.mark.parametrize("name, command", (
    ("example2.json", ["custom", "--format", "text"]),
    ("nodal_sides.json", ["code", "--fixture"])), ids=("custom", "code"))
def test_cli_unprintable_name_exits_2(name, command, tmp_path, capsys):
    # a lone surrogate in the document's name cannot be written as UTF-8;
    # printing the text report used to raise UnicodeEncodeError
    path = tmp_path / name
    path.write_text(json.dumps(dict(load_document(data_path(name)),
                                    name="x\ud800")))
    assert main([*command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("error: cannot write the report")


def test_cli_custom_refuses_pencils_that_are_not_conic_bundles(tmp_path, capsys):
    # |2 f1| is not a pencil: the document is refused before any search
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(
        _edited("example2.json", ("pencil",), [4, 0, 2, 0, 2, 2, 2, 0])))
    assert main(["custom", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert "not a conic bundle" in err


def test_cli_custom_refuses_a_component_that_is_no_curve(tmp_path, capsys):
    # on the general point Delta2bar = l-e2-e4-e7 has no sections; the run
    # used to reach analyse and exit 1 with a false P2 mismatch.  The zero
    # class has h^0 = 1, so it used to pass as a curve and exit 0, its
    # "preimage" two disjoint pieces of square 0
    zero = load_document(data_path("example2.json"))
    zero["components"].append({"name": "z", "class": [0] * 8, "branch": 1})
    for doc, message in (
            (_edited("example2.json", ("configuration",),
                     "quadrilateral-general-point"),
             "'Delta2bar' is no curve on the configuration: "
             "h^0(l-e2-e4-e7) = 0"),
            (zero, "'z' is no curve on the configuration: its class is 0")):
        path = tmp_path / "faulty.json"
        path.write_text(json.dumps(doc))
        assert main(["custom", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert message in err


def test_cli_custom_consistency_failure_exits_1(monkeypatch, capsys):
    from bidouble import covers

    # one section too many in every system trips the P2 check in analyse:
    # the summands total 7 + 2 + 1 + 1, chi + K2_minimal stays 1 + 6
    real = covers.h0_class
    monkeypatch.setattr(covers, "h0_class", lambda cfg, d: real(cfg, d) + 1)
    assert main(["custom", str(data_path("example2.json"))]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: bicanonical summands total 11, but "
                                 "chi + K2_minimal = 7\n")


def test_analysis_computes_each_class_once(monkeypatch, capsys):
    # seven h0 per construction (three adjoint, one invariant, three
    # character classes) and one validation per custom document; verify
    # all adds example 2's own three adjoint, -K+f1 and C checks to 4 x 7.
    # A cover is validated when it is built: once the shipped ones are
    # built, verify all builds and validates one, the resolved example 1
    from bidouble import covers, scenarios

    h0_calls, validations = [], []
    real_h0, real_init = covers.h0_class, covers.BidoubleData.__init__

    def counting_h0(*args):
        h0_calls.append(args)
        return real_h0(*args)

    def counting_init(*args, **kwargs):
        validations.append(args)
        return real_init(*args, **kwargs)

    monkeypatch.setattr(covers, "h0_class", counting_h0)
    monkeypatch.setattr(scenarios, "h0_class", counting_h0)
    monkeypatch.setattr(covers.BidoubleData, "__init__", counting_init)
    assert main(["verify", "all", "--seed", "5"]) == 0
    assert len(h0_calls) == 33
    h0_calls.clear()
    validations.clear()
    assert main(["verify", "all", "--seed", "5"]) == 0
    assert (len(h0_calls), len(validations)) == (33, 1)
    for n in (1, 2, 3):
        h0_calls.clear()
        validations.clear()
        assert main(["custom", str(data_path(f"example{n}.json"))]) == 0
        assert (len(h0_calls), len(validations)) == (7, 1)
    capsys.readouterr()


def test_document_cover_uses_the_shared_configuration():
    general = {"configuration": "quadrilateral-general-point", "lattice_n": 7,
               "components": [], "L1": [0] * 8, "L2": [0] * 8}
    for doc, seed, cfg in (
            (load_document(data_path("example1.json")), 0,
             standard_quadrilateral()),
            (load_document(data_path("example2.json")), 9,
             standard_quadrilateral(with_p7=True)),
            (general, 5, standard_quadrilateral(with_general_point=True,
                                                seed=5))):
        assert cover_from_document(doc, seed).configuration is cfg


def test_contractions_need_no_name_lookup(monkeypatch):
    # each preimage comes from the component in hand, so a branch divisor
    # with many components costs no search by name
    from bidouble import covers
    from bidouble.examples import example2

    doc = load_document(data_path("example2.json"))
    # 2000 more members of f1 in D3 move D2 + D3 and D1 + D3 by 2000 f1,
    # hence L1 and L2 by 1000 f1.  The members meet in f1^2 = 0, so D3 stays
    # smooth, and each has b = f1.(D1+D2) = 6 > 0, so it stays irreducible
    # and adds no contraction; S1 and S2 (the b = 0 pairs, two contractions
    # each) are orthogonal to f1.  The count stays example 2's 10.
    f1 = next(c for c in doc["components"] if c["name"] == "f1")
    f1["multiplicity"] = 2001
    for key in ("L1", "L2"):
        doc[key] = [a + 1000 * b for a, b in zip(doc[key], f1["class"])]
    lookups = []
    real = covers.BidoubleData.component

    def counting(self, name):
        lookups.append(name)
        return real(self, name)

    monkeypatch.setattr(covers.BidoubleData, "component", counting)
    assert run_custom(doc)["invariants"]["contractions"] == 10
    assert covers.contraction_count(cover_from_document(doc)) == 10
    assert lookups == []
    # the counter does see a lookup by name
    covers.branch_preimage(example2(), "S1")
    assert lookups == ["S1"]


def test_huge_multiplicity_is_carried_as_a_count():
    # 10^9 more members of f1 in D3 move L1 and L2 by 5*10^8 f1, as in
    # test_contractions_need_no_name_lookup; a component carries its
    # multiplicity as a count, so nothing grows with it
    doc = load_document(data_path("example2.json"))
    f1 = next(c for c in doc["components"] if c["name"] == "f1")
    f1["multiplicity"] = 10**9 + 1
    for key in ("L1", "L2"):
        doc[key] = [a + 5 * 10**8 * b for a, b in zip(doc[key], f1["class"])]
    start = time.perf_counter()
    assert run_custom(doc)["invariants"]["contractions"] == 10
    assert time.perf_counter() - start < 1


def test_cli_custom_refuses_a_rigid_curve_with_multiplicity(tmp_path, capsys):
    # three members of S1 in D1: L2 moves by S1, so the relations hold,
    # but S1 meets itself in -2
    doc = load_document(data_path("example2.json"))
    s1 = next(c for c in doc["components"] if c["name"] == "S1")
    s1["multiplicity"] = 3
    doc["L2"] = [a + b for a, b in zip(doc["L2"], s1["class"])]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    assert main(["custom", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("error: D1 is not smooth") and "-2" in err


@pytest.mark.parametrize("name, cls, meeting", (
    # Delta1 = l-e1-e3 misses C, S1 and S2 but meets itself in -1
    ("Delta1", [1, 1, 0, 1, 0, 0, 0, 0], "l-e1-e3 and l-e1-e3 have intersection -1"),
    # two members of f2 meet in 0, but each meets C in 2
    ("f2", [2, 1, 0, 1, 0, 1, 1, 0], "have intersection 2")),
    ids=("rigid-twice", "meets-C"))
def test_cli_custom_refuses_branch_divisors_that_are_not_smooth(
        name, cls, meeting, tmp_path, capsys):
    # two copies in D1 keep D1 + D3 even; L1 and L2 are derived
    doc = load_document(data_path("example2.json"))
    doc["components"].append(
        {"name": name, "class": cls, "branch": 1, "multiplicity": 2})
    del doc["L1"], doc["L2"]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    assert main(["custom", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("error: D1 is not smooth") and meeting in err
    assert "malformed" not in err  # the document itself is well-formed


@pytest.mark.parametrize("command", (["custom"], ["code", "--fixture"]),
                         ids=("custom", "code"))
def test_cli_deeply_nested_json_exits_2(command, tmp_path, capsys):
    # the JSON decoder gives up on the nesting with RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main([*command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("error: ") and "recursion" in err


def test_cli_h0(capsys):
    assert main(["h0", "--degree", "5", "--mults", "1,2,1,2,2,2,1",
                 "--with-p7", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["h0"] == 6
    assert main(["h0", "--degree", "1", "--mults", "1,1,1"]) == 0
    assert "= 0" in capsys.readouterr().out
    assert main(["h0", "--degree", "2", "--mults", "x"]) == 2
    assert main(["h0", "--degree", "2", "--mults", "1,1,1,1,1,1,1,1"]) == 2


@pytest.mark.parametrize("argv, want", [
    (["verify", "all", "--format", "json", "--seed", "5"], 0),
    (["h0", "--degree", "5", "--mults", "1,2,1,2,2,2,1", "--with-p7"], 0),
    (["verify", "all", "--seed", "five"], 2),
])
def test_cli_in_process_matches_a_fresh_process(argv, want, capsys):
    # the configurations are shared within a process: calls
    # after the first answer exactly as a fresh ``python -m bidouble`` does
    src = str(Path(bidouble.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    fresh = subprocess.run([sys.executable, "-m", "bidouble", *argv],
                           capture_output=True, text=True, env=env)
    assert fresh.returncode == want
    for _ in range(2):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert bool(out) != bool(err) and len(err.splitlines()) == int(want == 2)


def test_cli_h0_beyond_any_matrix(capsys):
    # exact answers at degrees whose interpolation matrix no machine holds
    cases = (
        # no condition: the forms of degree 10^6, C(10^6 + 2, 2)
        (["--degree", "1000000", "--mults", ""], 500001500001),
        # 10^6 (3; 1^6) = -10^6 K is nef, so h0 = chi = 1 + (D^2 - K.D)/2
        # = 1 + (3 * 10^12 + 3 * 10^6) / 2
        (["--degree", "3000000", "--mults", ",".join(["1000000"] * 6)],
         1500001500001),
        # 10^6 (l - e1 - e2) = 10^6 (S1 + e5): S1 is fixed 10^6 times, then
        # e5 is fixed 10^6 times, and the residue 0 has one section
        (["--degree", "1000000", "--mults", "1000000,1000000"], 1),
    )
    for argv, want in cases:
        assert main(["h0", *argv]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.endswith(f") = {want}\n")


@pytest.mark.parametrize("mults", ("1,-2", "1,,2"))
def test_cli_h0_refuses_negative_and_empty_multiplicities(mults, capsys):
    # both used to exit 0 with an answer for other input: -2 was read as no
    # condition, and the empty token was dropped, moving the 2 from P3 to P2
    assert main(["h0", "--degree", "5", "--mults", mults]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert "non-negative" in err


def test_cli_h0_multiplicity_above_degree_needs_no_matrix(capsys):
    # a plane curve of degree 400 has no point of multiplicity 401
    assert main(["h0", "--degree", "400", "--mults", "401"]) == 0
    assert capsys.readouterr().out == "h0(degree 400, mults [401]) = 0\n"


def test_no_matrix_on_the_h0_path(monkeypatch, capsys):
    from fractions import Fraction

    import bidouble
    import reference
    from bidouble import plane
    from bidouble.lattice import DivisorClass

    # the matrix rank is a test reference only
    assert not {*vars(plane), *bidouble.__all__} & {
        "interpolation_dimension", "rank_rational"}
    cfgs = [plane.standard_quadrilateral(),
            plane.standard_quadrilateral(with_p7=True),
            plane.standard_quadrilateral(with_general_point=True, seed=37)]
    for cfg in cfgs:
        cfg.negative_entries
    calls = []
    real = reference.interpolation_dimension

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reference, "interpolation_dimension", counting)
    got = []
    for cfg in cfgs:
        n = cfg.lattice.n
        cls = DivisorClass(14, (8, 0, 0, 8, 0, 0, 8)[:n])
        system = plane.FatPointSystem(12, tuple((i, 4) for i in range(n)))
        got.append((cfg, cls, plane.h0_class(cfg, cls),
                    system, plane.h0_fat_points(cfg, system)))
    assert main(["h0", "--degree", "20", "--mults", "11,0,0,11,0,0,11",
                 "--general-point", "--seed", "37"]) == 0
    assert main(["verify", "all", "--seed", "5"]) == 0
    capsys.readouterr()
    assert calls == []
    # the answers are the ones the matrix gives
    for cfg, cls, h0, system, h0_fat in got:
        assignments = [(i, m) for i, m in enumerate(cls.mults) if m]
        assert h0 == real(cfg.points, cls.degree, assignments) > 0
        assert h0_fat == real(cfg.points, system.degree,
                              system.assignments) > 0
    # six points with no three collinear are tested for a conic once, by
    # the bracket identity
    conics = []
    on_a_conic = plane._on_a_conic

    def counting_conic(*points):
        conics.append(points)
        return on_a_conic(*points)

    monkeypatch.setattr(plane, "_on_a_conic", counting_conic)
    conic = tuple((Fraction(t), Fraction(t * t), Fraction(1)) for t in range(6))
    plane.PointConfiguration(conic, ()).negative_entries
    assert len(conics) == 1


def test_no_search_on_the_fibre_path(monkeypatch, capsys):
    import bidouble
    import reference
    from bidouble import plane

    # the catalogue search is a test reference only
    assert not {*vars(plane), *bidouble.__all__} & {
        "effective_decompositions", "_bounded_decompositions"}
    calls = []
    real = reference._bounded_decompositions

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reference, "_bounded_decompositions", counting)
    assert main(["verify", "all", "--seed", "5"]) == 0
    for n in (1, 2, 3):
        assert main(["custom", str(data_path(f"example{n}.json"))]) == 0
    capsys.readouterr()
    assert calls == []
    # the counter does see the catalogue search
    cfg = standard_quadrilateral()
    reference.effective_decompositions(cfg, cfg.cls("f1"))
    assert len(calls) == 1


def test_cli_code(capsys, tmp_path):
    assert main(["code", "--fixture", str(data_path("nodal_sides.json")),
                 "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dim"] == 1 and rep["generators"] == [[1, 1, 1, 1]]
    assert rep["doubly_even"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lattice_n": 6,
                               "classes": [[1, 1, 1, 0, 0, 0, 0]]}))
    assert main(["code", "--fixture", str(bad)]) == 1
    assert main(["code", "--fixture", str(tmp_path / "none.json")]) == 2


def test_cli_code_builds_the_code_once(monkeypatch, capsys):
    from bidouble import codes

    build = codes.code_of_classes
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    # the command imports codes' names when it runs, so one patch serves
    monkeypatch.setattr(codes, "code_of_classes", counting)
    assert main(["code", "--fixture",
                 str(data_path("nodal10_rank14.json"))]) == 0
    assert len(calls) == 1
    assert "isotropy bound: 14 <= 14 -> True" in capsys.readouterr().out


def test_cli_code_past_enumeration_cap(monkeypatch, capsys):
    from bidouble import codes

    monkeypatch.setattr(codes, "ENUMERATION_CAP", 0)
    assert main(["code", "--fixture", str(data_path("nodal_sides.json"))]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "cap" in err


# the exit code and the SHA-256 of the standard output of each command:
# reports stay byte-identical across refactors
_GOLDEN = {
    "verify-text": (["verify", "all", "--seed", "5"], 0,
                    "c9f38cc5e544babdffd7013acb6c6df02079c1a55e94390feb9654a951a6560e"),
    "verify-json": (["verify", "all", "--seed", "5", "--format", "json"], 0,
                    "40be5dc2f7918547cff4e52c800a62672d3a6d4a8483f2b2538a47f5c627b955"),
    "custom1-text": (["custom", "example1.json", "--format", "text"], 0,
                     "759e3ad0fe63dddec1d0d30025837dab602ca08354d881bbe5f9ecb58df24433"),
    "custom1-json": (["custom", "example1.json", "--format", "json"], 0,
                     "74a7eafb5df98439c2233af75bb376d66cdbd0879b309c7a9cd8fc9f13a537a0"),
    "custom2-text": (["custom", "example2.json", "--format", "text"], 0,
                     "189a69d256dab379b3090dc82013514129532ecefaf87d41d8b59d0889d6373a"),
    "custom2-json": (["custom", "example2.json", "--format", "json"], 0,
                     "55773e61d90dcb08a75873f048b7aad7900b525b926179b537d6ade5bdbc54d7"),
    "custom3-text": (["custom", "example3.json", "--format", "text"], 0,
                     "ecd328b5b5251ebf036a03f82eb82131392c3a574d18bcc6f4083aafbedc7d6e"),
    "custom3-json": (["custom", "example3.json", "--format", "json"], 0,
                     "4d9a8b4d987bd1c8289d970a298889edb0d94c7974096884ade5843d018751a4"),
    "h0-readme": (["h0", "--degree", "5", "--mults", "1,2,1,2,2,2,1",
                   "--with-p7"], 0,
                  "dfa8e096ad63e11f8b548dd5f05c25ad6fcc345b0c8dc191aedb354e1cd61053"),
    "code-nodal10": (["code", "--fixture", "nodal10_rank14.json"], 0,
                     "4f969593878a4769e6711b51e7060f63ab0d6e501c3c8f8f2d83d1622af46665"),
    "code-sides": (["code", "--fixture", "nodal_sides.json"], 0,
                   "030d0bc7583e0b7906e3c826bb0a668b2f4ba46ae556660a22a31974d66f846a"),
    "code-nodal10-json": (
        ["code", "--fixture", "nodal10_rank14.json", "--format", "json"], 0,
        "7f24d55f8812959efa32c541ac4b08169de2d6198b3089053a062b124e07b6d9"),
    "code-sides-json": (
        ["code", "--fixture", "nodal_sides.json", "--format", "json"], 0,
        "0346cb1ac7bf9e8ba3244590da3c8d8a59d7837acd5bb87d3a1a6aad6f5969bd"),
}


@pytest.mark.parametrize("case", _GOLDEN)
def test_cli_output_bytes_are_pinned(case, capsys):
    argv, code, digest = _GOLDEN[case]
    argv = [str(data_path(a)) if a.endswith(".json") else a for a in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_cli_output_is_pinned_on_a_warm_process(capsys):
    # the second run answers every h^0 and fibre question from the
    # configurations' memos, and must print the same bytes
    argv, code, digest = _GOLDEN["verify-json"]
    for _ in range(2):
        assert main(argv) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_cli_parser_names_every_scenario():
    from bidouble import cli

    assert cli.SCENARIO_NAMES == SCENARIO_NAMES


def _records():
    """One instance of each of the seven records, taken from a real run."""
    from bidouble import covers, examples, plane

    cfg = standard_quadrilateral(with_p7=True)
    bd = examples.example2()
    inv = covers.analyse(bd, cfg.cls("f1"))
    return {"CurveEntry": cfg.entry("S1"), "PointConfiguration": cfg,
            "FatPointSystem": plane.FatPointSystem(5, ((0, 1), (3, 2))),
            "BranchComponent": bd.component("f1"), "BidoubleData": bd,
            "BranchPreimage": covers.branch_preimage(bd, "S1"),
            "InvariantReport": inv}


@pytest.mark.parametrize("name", ("CurveEntry", "PointConfiguration",
                                  "FatPointSystem", "BranchComponent",
                                  "BidoubleData", "BranchPreimage",
                                  "InvariantReport"))
def test_records_keep_their_dataclass_behaviour(name):
    record = _records()[name]
    assert type(record).__name__ == name
    fields = record._asdict()
    first = next(iter(fields))
    assert repr(record).startswith(f"{name}({first}={fields[first]!r}, ")
    # a copy through the constructor, by keyword, by pickle or by replace
    copies = (type(record)(**fields), pickle.loads(pickle.dumps(record)),
              record.replace())
    assert all(c == record and c is not record for c in copies)
    assert record.__eq__(tuple(fields.values())) is NotImplemented
    assert all(hash(c) == hash(record) for c in copies)
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.other = 1


def test_records_cache_out_of_their_fields():
    records = _records()
    cfg, bd = records["PointConfiguration"], records["BidoubleData"]
    fresh = [r.replace() for r in (cfg, bd)]
    assert cfg.negative_entries is cfg.negative_entries
    assert bd.branch_total is bd.branch_total
    assert bd._branch_classes is bd._branch_classes
    # a fresh configuration has derived its collinear triples, and a fresh
    # cover its branch classes, to check them
    assert [set(copy.__dict__) for copy in fresh] == [
        {"collinear_triples"}, {"_tally", "_branch_classes"}]
    # a cached value is no field: equality, hash and repr ignore it
    for record, copy in zip((cfg, bd), fresh):
        assert "__dict__" not in record._asdict() and record.__dict__
        assert not record.__dict__.keys() & record._asdict().keys()
        assert copy == record
        assert hash(copy) == hash(record) and repr(copy) == repr(record)


def test_report_converts_each_check_once(monkeypatch):
    from bidouble import scenarios

    jsonify, top, depth = scenarios._jsonify, [], []

    def counted(value):  # _jsonify recurses through the module name
        if not depth:
            top.append(value)
        depth.append(value)
        try:
            return jsonify(value)
        finally:
            depth.pop()

    monkeypatch.setattr(scenarios, "_jsonify", counted)
    report = scenarios.ScenarioReport("bounds", 0)
    expected, computed = (1, DivisorClass(2, (0, 1))), (1, (2, 0, 1))
    report.add("id", "anchor", expected, computed)
    report.add("odd", "a claim that does not hold", [0], 1)
    assert len(top) == 4 and top[0] is expected and top[1] is computed
    report.to_dict(), report.to_text(), report.passed
    assert len(top) == 4
    good, bad = report.checks
    assert good == {"id": "id", "anchor": "anchor", "expected": [1, [2, 0, 1]],
                    "computed": [1, [2, 0, 1]], "pass": True}
    assert list(good) == ["id", "anchor", "expected", "computed", "pass"]
    assert list(bad) == list(good) and bad["pass"] is False
    assert report.to_dict()["checks"][0] is good
    with pytest.raises(AttributeError):
        report.other = 1


def test_record_replace_runs_the_checks_again():
    records = _records()
    bd, comp = records["BidoubleData"], records["BranchComponent"]
    with pytest.raises(ValueError, match="branch index"):
        comp.replace(branch=4)
    with pytest.raises(ValueError, match="distinct"):
        bd.replace(components=bd.components + (comp,))
    with pytest.raises(ValueError, match="degree"):
        records["FatPointSystem"].replace(degree=-1)
    four_on_a_line = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="one line"):
        records["PointConfiguration"].replace(points=four_on_a_line)
    with pytest.raises(TypeError):
        comp.replace(colour="red")
    assert list(records["InvariantReport"].to_dict()) == [
        "chi", "K2_cover", "pg", "q", "contractions", "K2_minimal",
        "double_fibres", "bicanonical_degree", "involution_index"]
