import json

import pytest

from bidouble.cli import main
from bidouble.covers import RelationError
from bidouble.plane import standard_quadrilateral
from bidouble.scenarios import (SCENARIO_NAMES, data_path, load_document,
                                run_custom, run_scenario)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_passes(name):
    rep = run_scenario(name)
    failing = [c.id for c in rep.checks if not c.passed]
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
    a = run_scenario("example1-degenerate", seed=7).to_json()
    b = run_scenario("example1-degenerate", seed=7).to_json()
    assert a == b
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
    expected = analyse(example2(cfg), cfg, cfg.cls("f1"))[1].to_dict()
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


@pytest.mark.parametrize("argv", (["--help"], ["h0", "-h"]))
def test_cli_help_returns_0(argv, capsys):
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
    # all adds example 2's own three adjoint, -K+f1 and C checks to 4 x 7
    from bidouble import covers, scenarios

    h0_calls, validations = [], []
    real_h0, real_validate = covers.h0_class, covers.validate

    def counting_h0(*args):
        h0_calls.append(args)
        return real_h0(*args)

    def counting_validate(*args):
        validations.append(args)
        return real_validate(*args)

    monkeypatch.setattr(covers, "h0_class", counting_h0)
    monkeypatch.setattr(scenarios, "h0_class", counting_h0)
    monkeypatch.setattr(covers, "validate", counting_validate)
    assert main(["verify", "all", "--seed", "5"]) == 0
    assert len(h0_calls) == 33
    for n in (1, 2, 3):
        h0_calls.clear()
        validations.clear()
        assert main(["custom", str(data_path(f"example{n}.json"))]) == 0
        assert (len(h0_calls), len(validations)) == (7, 1)
    capsys.readouterr()


def test_contractions_need_no_name_lookup(monkeypatch):
    # each preimage comes from the component in hand, so a branch divisor
    # with many components costs no search by name
    from bidouble import covers
    from bidouble.examples import example2
    from bidouble.scenarios import cover_from_document

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
    cfg = standard_quadrilateral(with_p7=True)
    assert covers.contraction_count(cover_from_document(doc, cfg)) == 10
    assert lookups == []
    # the counter does see a lookup by name
    covers.branch_preimage(example2(cfg), "S1")
    assert lookups == ["S1"]


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
    assert "D1 is not smooth" in err and meeting in err


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

    from bidouble import plane
    from bidouble.lattice import BlowupLattice, DivisorClass

    cfgs = [plane.standard_quadrilateral(),
            plane.standard_quadrilateral(with_p7=True),
            plane.standard_quadrilateral(with_general_point=True, seed=37)]
    for cfg in cfgs:
        cfg.negative_entries
    calls = []
    real = plane.interpolation_dimension

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(plane, "interpolation_dimension", counting)
    for cfg in cfgs:
        n = cfg.lattice.n
        assert plane.h0_class(cfg, DivisorClass(14, (8, 0, 0, 8, 0, 0, 8)[:n])) > 0
        assert plane.h0_fat_points(
            cfg, plane.FatPointSystem(12, tuple((i, 4) for i in range(n)))) > 0
    assert main(["h0", "--degree", "20", "--mults", "11,0,0,11,0,0,11",
                 "--general-point", "--seed", "37"]) == 0
    assert main(["verify", "all", "--seed", "5"]) == 0
    capsys.readouterr()
    assert calls == []
    # the counter does see the conic test of six points with no three
    # collinear, the one place the curve derivation needs a matrix
    conic = tuple((Fraction(t), Fraction(t * t), Fraction(1)) for t in range(6))
    plane.PointConfiguration(conic, frozenset(), BlowupLattice(6),
                             ()).negative_entries
    assert len(calls) == 1


def test_no_search_on_the_fibre_path(monkeypatch, capsys):
    from bidouble import plane

    calls = []
    real = plane._bounded_decompositions

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(plane, "_bounded_decompositions", counting)
    assert main(["verify", "all", "--seed", "5"]) == 0
    for n in (1, 2, 3):
        assert main(["custom", str(data_path(f"example{n}.json"))]) == 0
    capsys.readouterr()
    assert calls == []
    # the counter does see the catalogue search
    cfg = plane.standard_quadrilateral()
    plane.effective_decompositions(cfg, cfg.cls("f1"))
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
    from bidouble import cli, codes

    build = codes.code_of_classes
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(codes, "code_of_classes", counting)
    monkeypatch.setattr(cli, "code_of_classes", counting)
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
