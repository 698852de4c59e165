"""Reproducible verification scenarios wiring all modules together.

Each scenario runs a full pipeline (configuration -> building data ->
validation -> invariants -> fibres -> bicanonical decomposition) and
compares every computed quantity against its pinned expectation.  A check
carries an ``anchor``: a one-line statement of the claim being verified,
so a failing report points directly at the contradicted claim.

``run_custom`` runs the same pipeline on a user-supplied cover document
without pinned expectations and reports the computed invariants only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from pathlib import Path

from . import codes, covers, examples
from .lattice import (BlowupLattice, DivisorClass, arithmetic_genus,
                      castelnuovo_bound, riemann_roch_chi)
from .plane import h0_class, standard_quadrilateral

__all__ = [
    "SCENARIO_NAMES",
    "Check",
    "ScenarioReport",
    "ScenarioAbort",
    "run_scenario",
    "run_custom",
    "load_document",
    "data_path",
]

SCENARIO_NAMES = ("example1", "example1-degenerate", "example2", "example3",
                  "lemma-numeri", "codes", "bounds")

# complete search depth for degree-2 pencils; recorded in every report
DECOMPOSITION_DEPTH = 2


def _jsonify(value):
    if isinstance(value, DivisorClass):
        return value.to_vector()
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    raise TypeError(f"cannot serialize {value!r}")


@dataclass(frozen=True)
class Check:
    id: str
    anchor: str
    expected: object
    computed: object

    @cached_property
    def passed(self) -> bool:
        return _jsonify(self.expected) == _jsonify(self.computed)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "expected": _jsonify(self.expected),
            "computed": _jsonify(self.computed),
            "pass": self.passed,
        }


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    checks: list[Check] = field(default_factory=list)
    decomposition_depth: int = DECOMPOSITION_DEPTH

    def add(self, id: str, anchor: str, expected, computed) -> None:
        self.checks.append(Check(id, anchor, expected, computed))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        total = len(self.checks)
        good = sum(1 for c in self.checks if c.passed)
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "decomposition_depth": self.decomposition_depth,
            "checks": [c.to_dict() for c in self.checks],
            "summary": {"total": total, "passed": good, "failed": total - good},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario}  (seed={self.seed})"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"  [{mark}] {c.id}: {c.anchor}"
            if not c.passed:
                line += (f"\n         expected {_jsonify(c.expected)}"
                         f" != computed {_jsonify(c.computed)}")
            lines.append(line)
        good = sum(1 for c in self.checks if c.passed)
        lines.append(f"summary: {good}/{len(self.checks)} checks passed")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# scenario bodies


def _report_checks(rep: ScenarioReport, label: str, inv, bic, fibres,
                   expect):
    rep.add(f"{label}-chi", "chi(O) of the cover equals 1", expect["chi"], inv.chi)
    rep.add(f"{label}-pg", "geometric genus of the cover vanishes",
            expect["pg"], inv.pg)
    rep.add(f"{label}-K2-cover", f"K^2 of the smooth cover is {expect['K2_cover']}",
            expect["K2_cover"], inv.K2_cover)
    rep.add(f"{label}-contractions",
            f"{expect['contractions']} exceptional (-1)-curves lie over the "
            "split branch components", expect["contractions"], inv.contractions)
    rep.add(f"{label}-K2-minimal",
            f"K^2 of the minimal model is {expect['K2_minimal']}",
            expect["K2_minimal"], inv.K2_minimal)
    rep.add(f"{label}-double-fibres",
            f"the genus-3 pencil has {expect['double_fibres']} double fibres",
            expect["double_fibres"], fibres)
    rep.add(f"{label}-bicanonical",
            "the bicanonical space splits as invariant part plus one "
            "character line", expect["bicanonical"],
            [bic.h0_invariant, list(bic.h0_characters)])
    rep.add(f"{label}-P2", f"P_2 = chi + K^2_minimal = {expect['P2']}",
            expect["P2"], bic.total)
    rep.add(f"{label}-involution",
            "the bicanonical map has degree 2 through the first involution",
            [2, 1], [bic.degree, bic.involution_index])


def _scenario_example1(rep: ScenarioReport) -> None:
    cfg = standard_quadrilateral()
    bd = examples.example1(cfg)
    l3 = covers.validate(bd)
    rep.add("valid", "2L1 = D2+D3 and 2L2 = D1+D3 hold exactly", True, True)
    rep.add("L3", "L3 = 4l-2e1-2e2-2e3-e4-e5-e6",
            [4, 2, 2, 2, 1, 1, 1], l3.to_vector())
    inv = covers.bidouble_invariants(bd, cfg)
    bic = covers.bicanonical_decomposition(bd, cfg)
    fibres = covers.count_double_fibres(bd, cfg.cls("f1"), cfg)
    _report_checks(rep, "ex1", inv, bic, fibres, {
        "chi": 1, "pg": 0, "K2_cover": -1, "contractions": 8, "K2_minimal": 7,
        "double_fibres": 5, "bicanonical": [7, [1, 0, 0]], "P2": 8,
    })
    for name in ("S1", "S2", "S3", "S4"):
        pre = covers.branch_preimage(bd, name)
        rep.add(f"preimage-{name}",
                f"the preimage of {name} is two disjoint (-1)-curves",
                [True, 2, -1, 2], [pre.splits, pre.pieces,
                                   pre.self_intersection, pre.contracted])


def _scenario_example1_degenerate(rep: ScenarioReport) -> None:
    cfg6 = standard_quadrilateral()
    bd6 = examples.example1(cfg6, degenerating=True)
    cfg = standard_quadrilateral(with_general_point=True, seed=rep.seed)
    bd = covers.resolve_111(bd6, cfg)
    covers.validate(bd)
    rep.add("valid", "the resolved building data still validates", True, True)
    inv = covers.bidouble_invariants(bd, cfg)
    bic = covers.bicanonical_decomposition(bd, cfg)
    f1 = cfg.cls("f1")
    fibres = covers.count_double_fibres(bd, f1, cfg)
    _report_checks(rep, "ex1deg", inv, bic, fibres, {
        "chi": 1, "pg": 0, "K2_cover": -2, "contractions": 8, "K2_minimal": 6,
        "double_fibres": 4, "bicanonical": [6, [1, 0, 0]], "P2": 7,
    })
    member = [(cfg.cls("f1_strict"), 1, 3), (cfg.lattice.exceptional(7), 1, None)]
    rep.add("fibre-through-point",
            "the pencil member through the blown-up point carries the "
            "exceptional curve with multiplicity 1, so it is not double",
            1, covers.fibre_multiplicity(bd, member, f1))


def _scenario_example2(rep: ScenarioReport) -> None:
    cfg = standard_quadrilateral(with_p7=True)
    bd = examples.example2(cfg)
    l3 = covers.validate(bd)
    rep.add("valid", "2L1 = D2+D3 and 2L2 = D1+D3 hold exactly", True, True)
    rep.add("L3", "L3 = 4l-2e1-2e2-2e3-e4-e5-e6-e7",
            [4, 2, 2, 2, 1, 1, 1, 1], l3.to_vector())
    k = cfg.lattice.canonical
    for i, L in enumerate((bd.L1, bd.L2, l3), start=1):
        rep.add(f"adjoint-h0-L{i}",
                f"the adjoint system K+L{i} has no sections",
                0, h0_class(cfg, k + L))
    rep.add("h0-antikplusf1",
            "the system -K+f1 (degree 5, simple at P1,P3,P7, double at "
            "P2,P4,P5,P6) has h^0 = 6", 6, h0_class(cfg, -1 * k + cfg.cls("f1")))
    c_cls = cfg.cls("C")
    rep.add("C-pencil",
            "the moving branch curve C spans a pencil of arithmetic genus 0 "
            "(irreducibility of its general member is not decided here)",
            [2, 0], [h0_class(cfg, c_cls), arithmetic_genus(c_cls)])
    inv = covers.bidouble_invariants(bd, cfg)
    bic = covers.bicanonical_decomposition(bd, cfg)
    fibres = covers.count_double_fibres(bd, cfg.cls("f1"), cfg)
    _report_checks(rep, "ex2", inv, bic, fibres, {
        "chi": 1, "pg": 0, "K2_cover": -4, "contractions": 10, "K2_minimal": 6,
        "double_fibres": 5, "bicanonical": [6, [1, 0, 0]], "P2": 7,
    })
    for name in ("S1", "S2", "S3", "S4", "Delta2bar"):
        pre = covers.branch_preimage(bd, name)
        rep.add(f"preimage-{name}",
                f"the preimage of {name} is two disjoint (-1)-curves",
                [True, 2, -1], [pre.splits, pre.pieces, pre.self_intersection])
    pre = covers.branch_preimage(bd, "Delta3bar")
    rep.add("preimage-Delta3bar",
            "the preimage of Delta3bar stays irreducible: a rational "
            "(-2)-curve", [False, 0, -2],
            [pre.splits, pre.genus, pre.self_intersection])


def _scenario_example3(rep: ScenarioReport) -> None:
    cfg = standard_quadrilateral(with_p7=True)
    bd = examples.example3(cfg)
    rep.add("L1-derived", "half of D2+D3 gives L1 = 4l-e1-e2-e3-2e4-2e5-2e6",
            [4, 1, 1, 1, 2, 2, 2, 0], bd.L1.to_vector())
    rep.add("L2-derived", "half of D1+D3 equals the L2 of example 2",
            examples.example2(cfg).L2.to_vector(), bd.L2.to_vector())
    covers.validate(bd)
    rep.add("valid", "the derived data validates", True, True)
    inv = covers.bidouble_invariants(bd, cfg)
    bic = covers.bicanonical_decomposition(bd, cfg)
    fibres = covers.count_double_fibres(bd, cfg.cls("f1"), cfg)
    _report_checks(rep, "ex3", inv, bic, fibres, {
        "chi": 1, "pg": 0, "K2_cover": -2, "contractions": 8, "K2_minimal": 6,
        "double_fibres": 5, "bicanonical": [6, [1, 0, 0]], "P2": 7,
    })
    for name, label in (("Delta2bar", "theta1"), ("Delta3bar", "theta2")):
        pre = covers.branch_preimage(bd, name)
        rep.add(f"preimage-{label}",
                f"the preimage of {name} is an irreducible rational "
                "(-2)-curve", [False, 0, -2],
                [pre.splits, pre.genus, pre.self_intersection])
    pre = covers.branch_preimage(bd, "e7")
    rep.add("preimage-E",
            "the preimage of e7 is an elliptic curve with self-intersection "
            "-1 (branch degree 4)", [False, 1, -1, 4],
            [pre.splits, pre.genus, pre.self_intersection, pre.branch_degree])


def _scenario_lemma_numeri(rep: ScenarioReport) -> None:
    rep.add("identities", "at K^2 = -4 the relations force K.B0 = 8, B0^2 = -4",
            [8, -4], list(covers.numeri_identities(-4)))
    kb0, b0sq = covers.numeri_identities(-4)
    h_sq = 4 * (-4) + 4 * kb0 + b0sq
    kh = 2 * (-4) + kb0
    rep.add("H-numbers", "H = 2K+B0 has H^2 = 12 and K.H = 0",
            [12, 0], [h_sq, kh])
    rep.add("H-genus", "a class with D^2 = 12 and K.D = 0 has genus 7",
            7, (h_sq + kh) // 2 + 1)
    # a concrete class with the same numbers on the rank-14 lattice
    lat = BlowupLattice(13)
    h = DivisorClass(7, (2,) * 8 + (1,) * 5)
    rep.add("H-concrete",
            "a rank-14 witness class: self-intersection 12, K-degree 0, "
            "genus 7, chi 7",
            [12, 0, 7, 7],
            [h.dot(h), h.dot(lat.canonical), arithmetic_genus(h),
             riemann_roch_chi(h)])
    L = DivisorClass(4, (2, 2, 2) + (1,) * 10)
    rep.add("double-cover-chi",
            "a double cover with L^2 + K.L = -2 has chi = 1",
            [-2, 1], [L.dot(L) + L.dot(lat.canonical), covers.double_cover_chi(L)])
    rep.add("double-cover-trivial",
            "the trivial double cover (L = 0) has chi = 2",
            2, covers.double_cover_chi(lat.zero))
    # one lattice realizes the whole relation: 2L = B0 + C_1 + ... + C_10,
    # with the ten shipped nodal classes, on the rank-14 lattice (K^2 = -4)
    doc = load_document(data_path("nodal10_rank14.json"))
    nodal = [lat.from_vector(v) for v in doc["classes"]]
    L = DivisorClass(1, (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1))
    b0 = 2 * L - sum(nodal, lat.zero)
    k = lat.canonical
    hh = 2 * k + b0
    rep.add("concrete-realization",
            "a class L with 2L = B0 + sum(C_i) over the shipped ten nodal "
            "classes reproduces chi = 1, B0^2 = -4, K.B0 = 8, H^2 = 12, "
            "K.H = 0, genus 7, with B0 disjoint from every C_i",
            [1, -4, 8, 12, 0, 7, True],
            [covers.double_cover_chi(L), b0.dot(b0), k.dot(b0),
             hh.dot(hh), k.dot(hh), arithmetic_genus(hh),
             all(b0.dot(c) == 0 for c in nodal)])
    rep.add("etale-doubling", "an etale double cover doubles chi and K^2",
            [2, 12], list(covers.etale_double(1, 6)))


def _scenario_codes(rep: ScenarioReport) -> None:
    rep.add("de-dims", "DE(s) has dimension s-1 for s = 1..8",
            [s - 1 for s in range(1, 9)],
            [codes.de_code(s).dim for s in range(1, 9)])
    rep.add("de-doubly-even", "every weight of DE(s), s <= 8, is divisible by 4",
            True, all(codes.is_doubly_even(codes.de_code(s)) for s in range(1, 9)))
    doc = load_document(data_path("nodal_sides.json"))
    lat = BlowupLattice(doc["lattice_n"])
    classes = [lat.from_vector(v) for v in doc["classes"]]
    v = codes.code_of_classes(classes, lat)
    rep.add("sides-code", "the four sides give the code spanned by (1,1,1,1)",
            [[1, 1, 1, 1]], v.to_rows())
    rep.add("sides-weights", "its weights are 0 and 4 (doubly even)",
            [[0, 1], [4, 1]],
            sorted([w, c] for w, c in codes.weights(v).items()))
    doc = load_document(data_path("nodal10_rank14.json"))
    lat = BlowupLattice(doc["lattice_n"])
    classes = [lat.from_vector(v) for v in doc["classes"]]
    v10 = codes.code_of_classes(classes, lat)
    rep.add("ten-nodal-dim",
            "ten disjoint nodal classes in a rank-14 lattice give dim V = 3 "
            "(the isotropy bound forces dim V >= 3)", 3, v10.dim)
    rep.add("ten-nodal-isotropy", "2(k - dim V) <= rank holds with equality",
            [14, 14, True], list(codes.isotropy_bound_holds(classes, lat)))
    rep.add("ten-nodal-doubly-even", "all its weights are divisible by 4",
            True, codes.is_doubly_even(v10))
    single = codes.code_of_classes([classes[0]], lat)
    rep.add("single-nodal", "a single nodal class gives the trivial code",
            0, single.dim)
    synthetic = codes.BinaryCode(10)  # trivial kernel: ten independent images
    rep.add("synthetic-isotropy-violation",
            "ten independent mod-2 images in a rank-14 lattice would violate "
            "total isotropy", [20, 14, False],
            list(codes.isotropy_bound(synthetic, 14)))


def _scenario_bounds(rep: ScenarioReport) -> None:
    rep.add("castelnuovo-8-5",
            "a non-degenerate degree-8 curve in P^5 has genus at most 3",
            3, castelnuovo_bound(8, 5))
    rep.add("castelnuovo-12-6",
            "a non-degenerate degree-12 curve in P^6 has genus at most 7",
            7, castelnuovo_bound(12, 6))
    rep.add("slope-12", "K^2 = 12 violates the slope bound for genera (2,3)",
            False, covers.slope_check(12, 2, 3))
    rep.add("slope-24", "K^2 = 24 satisfies the slope bound for genera (2,3)",
            True, covers.slope_check(24, 2, 3))
    rep.add("etale-doubling", "an etale double cover doubles chi and K^2",
            [2, 12], list(covers.etale_double(1, 6)))


_SCENARIOS = {
    "example1": _scenario_example1,
    "example1-degenerate": _scenario_example1_degenerate,
    "example2": _scenario_example2,
    "example3": _scenario_example3,
    "lemma-numeri": _scenario_lemma_numeri,
    "codes": _scenario_codes,
    "bounds": _scenario_bounds,
}


class ScenarioAbort(RuntimeError):
    """A module error interrupted a scenario; the message carries the last
    completed check id so the failure can be located."""


def run_scenario(name: str, seed: int = 0) -> ScenarioReport:
    """Run one named scenario and return its report."""
    if name not in _SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    rep = ScenarioReport(name, seed)
    try:
        _SCENARIOS[name](rep)
    except Exception as exc:
        last = rep.checks[-1].id if rep.checks else "none"
        raise ScenarioAbort(
            f"scenario {name!r} aborted after check {last!r}: {exc}") from exc
    return rep


# ---------------------------------------------------------------------------
# custom cover documents


def data_path(name: str) -> Path:
    """Path to a shipped data file."""
    return Path(__file__).parent / "data" / name


def load_document(path) -> dict:
    with open(str(path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _config_for(doc: dict):
    kind = doc.get("configuration")
    n = index(doc["lattice_n"])
    if kind is None:
        kind = {6: "quadrilateral", 7: "quadrilateral-p7"}.get(n)
        if kind is None:
            raise ValueError(f"no default configuration for lattice_n={n}")
    builders = {
        "quadrilateral": lambda seed: standard_quadrilateral(),
        "quadrilateral-p7": lambda seed: standard_quadrilateral(with_p7=True),
        "quadrilateral-general-point": lambda seed: standard_quadrilateral(
            with_general_point=True, seed=seed),
    }
    if kind not in builders:
        raise ValueError(f"unknown configuration {kind!r}")
    return builders[kind]


def cover_from_document(doc: dict, cfg) -> covers.BidoubleData:
    """Build BidoubleData from a parsed cover document.

    Schema: {lattice_n, components: [{name, class, branch: 0|1|2|3,
    multiplicity}], L1, L2} with L1/L2 optional (then derived by exact
    halving).  branch 0 entries are unbranched catalogue declarations and
    are ignored for the cover itself.  multiplicity k expands into k
    components named name, name#2, ...
    """
    lat = cfg.lattice
    if lat.n != index(doc["lattice_n"]):
        raise ValueError("configuration does not match lattice_n")
    comps = []
    for raw in doc["components"]:
        branch = index(raw["branch"])
        if branch == 0:
            continue
        cls = lat.from_vector(raw["class"])
        mult = index(raw.get("multiplicity", 1))
        if mult < 1:
            raise ValueError(f"component {raw['name']}: multiplicity must be >= 1")
        for copy in range(mult):
            name = raw["name"] if copy == 0 else f"{raw['name']}#{copy + 1}"
            comps.append(covers.BranchComponent(
                name, cls, branch, through_point=bool(raw.get("through_point"))))
    comps = tuple(comps)
    by_branch = {i: sum((c.cls for c in comps if c.branch == i), lat.zero)
                 for i in (1, 2, 3)}
    if "L1" in doc and "L2" in doc:
        l1 = lat.from_vector(doc["L1"])
        l2 = lat.from_vector(doc["L2"])
        provenance = "given"
    else:
        l1 = examples.halve(by_branch[2] + by_branch[3])
        l2 = examples.halve(by_branch[1] + by_branch[3])
        provenance = "derived"
    return covers.BidoubleData(lat, comps, l1, l2, l_provenance=provenance)


def run_custom(doc: dict, seed: int = 0) -> dict:
    """Full pipeline on a cover document; computed invariants, no pins.

    Raises ValueError/KeyError on malformed documents and RelationError
    when the data does not validate.
    """
    if not isinstance(doc, dict):
        raise ValueError("a cover document must be a JSON object")
    cfg = _config_for(doc)(seed)
    bd = cover_from_document(doc, cfg)
    l3 = covers.validate(bd)
    pencil = None
    if "pencil" in doc:
        pencil = cfg.lattice.from_vector(doc["pencil"])
    rep = covers.full_report(bd, cfg, pencil)
    bic = covers.bicanonical_decomposition(bd, cfg)
    return {
        "scenario": "custom",
        "seed": seed,
        "source": doc.get("name", "unnamed"),
        "valid": True,
        "L1": bd.L1.to_vector(),
        "L2": bd.L2.to_vector(),
        "L3": l3.to_vector(),
        "l_provenance": bd.l_provenance,
        "invariants": rep.to_dict(),
        "bicanonical": bic.to_dict(),
        "decomposition_depth": DECOMPOSITION_DEPTH,
    }
