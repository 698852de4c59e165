import json

import pytest

from bidouble.cli import main
from bidouble.covers import RelationError
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
    from bidouble.covers import full_report
    from bidouble.examples import example2
    from bidouble.plane import standard_quadrilateral
    cfg = standard_quadrilateral(with_p7=True)
    expected = full_report(example2(cfg), cfg, cfg.cls("f1")).to_dict()
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


def test_cli_custom_consistency_failure_exits_1(monkeypatch, capsys):
    from bidouble import covers

    def inconsistent(*args, **kwargs):
        raise covers.InvariantConsistencyError("P2 parts do not add up")

    monkeypatch.setattr(covers, "bicanonical_decomposition", inconsistent)
    assert main(["custom", str(data_path("example2.json"))]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: P2 parts do not add up\n"


def test_cli_h0(capsys):
    assert main(["h0", "--degree", "5", "--mults", "1,2,1,2,2,2,1",
                 "--with-p7", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["h0"] == 6
    assert main(["h0", "--degree", "1", "--mults", "1,1,1"]) == 0
    assert "= 0" in capsys.readouterr().out
    assert main(["h0", "--degree", "2", "--mults", "x"]) == 2
    assert main(["h0", "--degree", "2", "--mults", "1,1,1,1,1,1,1,1"]) == 2


def test_cli_h0_refuses_oversized_matrix(monkeypatch, capsys):
    from bidouble import cli

    def unreachable(*args):
        raise AssertionError("the matrix was built")

    monkeypatch.setattr(cli, "h0_fat_points", unreachable)
    # the columns alone: about 5e9 monomials with no multiplicity at all
    for argv in (["--degree", "100000", "--mults", ""],
                 ["--degree", "100000", "--mults", "0,3"],
                 ["--degree", "40", "--mults", "20,20,20,20,20,20,20",
                  "--with-p7"]):
        assert main(["h0", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "limit" in err
    monkeypatch.setattr(cli, "h0_fat_points", lambda cfg, system: 7)
    # degree d has at most MAX_CELLS columns, degree d + 1 more
    d = 0
    while (d + 2) * (d + 3) // 2 <= cli.MAX_CELLS:
        d += 1
    assert main(["h0", "--degree", str(d), "--mults", ""]) == 0
    assert main(["h0", "--degree", str(d + 1), "--mults", ""]) == 2
    # a double point adds 3 rows: 3 x cols cells
    assert main(["h0", "--degree", str(d // 2), "--mults", "2"]) == 0
    assert main(["h0", "--degree", str(d), "--mults", "2"]) == 2
    capsys.readouterr()


def test_cli_h0_multiplicity_above_degree_needs_no_matrix(capsys):
    # no matrix is built, so the size limit does not apply
    assert main(["h0", "--degree", "400", "--mults", "401"]) == 0
    assert capsys.readouterr().out == "h0(degree 400, mults [401]) = 0\n"


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
