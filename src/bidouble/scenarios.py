"""Reproducible verification scenarios wiring all modules together.

Each scenario runs a full pipeline (configuration -> building data, valid
by construction -> ``covers.analyse``: invariants, bicanonical
decomposition and fibres, each computed once, in one report) and compares
every computed quantity against its pinned expectation.  A check carries
an ``anchor``: a one-line statement of the claim being verified, so a
failing report points directly at the contradicted claim.

The example scenarios build their data with ``examples``, which reads it
from the shipped cover documents ``data/example{1,2,3}.json``; the report
of a user's own document, ``examples.run_custom``, has no pins and lives
there.

The CLI imports this module for ``verify`` only.
"""

from __future__ import annotations

from functools import cache

from . import covers, examples
from .examples import DECOMPOSITION_DEPTH, data_path, load_document
from .lattice import (BlowupLattice, DivisorClass, arithmetic_genus,
                      castelnuovo_bound, riemann_roch_chi)
from .plane import h0_class, standard_quadrilateral

__all__ = [
    "SCENARIO_NAMES",
    "ScenarioReport",
    "ScenarioAbort",
    "run_scenario",
]


def _jsonify(value):
    if type(value) in (int, bool, str, type(None)):  # the common case, first
        return value
    if isinstance(value, DivisorClass):
        return value.to_vector()
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    raise TypeError(f"cannot serialize {value!r}")


class ScenarioReport:
    """The checks of one scenario run, each kept as the dict it prints.

    >>> rep = ScenarioReport("bounds", 0)
    >>> rep.add("ok", "a claim that holds", (1, 2), [1, 2])
    >>> rep.add("bad", "a claim that does not hold", [0], (1,))
    >>> rep.passed, rep.to_dict()["summary"]
    (False, {'total': 2, 'passed': 1, 'failed': 1})
    >>> print(rep.to_text())
    scenario bounds  (seed=0)
      [PASS] ok: a claim that holds
      [FAIL] bad: a claim that does not hold
             expected [0] != computed [1]
    summary: 1/2 checks passed
    """

    __slots__ = ("scenario", "seed", "checks")

    def __init__(self, scenario: str, seed: int):
        self.scenario, self.seed, self.checks = scenario, seed, []

    def add(self, id: str, anchor: str, expected, computed) -> None:
        expected, computed = _jsonify(expected), _jsonify(computed)
        self.checks.append({"id": id, "anchor": anchor, "expected": expected,
                            "computed": computed, "pass": expected == computed})

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        total, good = len(self.checks), sum(c["pass"] for c in self.checks)
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "decomposition_depth": DECOMPOSITION_DEPTH,
            "checks": self.checks,
            "summary": {"total": total, "passed": good, "failed": total - good},
        }

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario}  (seed={self.seed})"]
        for id, anchor, expected, computed, ok in map(dict.values, self.checks):
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {id}: {anchor}")
            if not ok:
                lines.append(f"         expected {expected} != computed {computed}")
        good = sum(c["pass"] for c in self.checks)
        lines.append(f"summary: {good}/{len(self.checks)} checks passed")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# scenario bodies


def _report_checks(rep: ScenarioReport, label: str, inv, expect):
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
            expect["double_fibres"], inv.double_fibres)
    rep.add(f"{label}-bicanonical",
            "the bicanonical space splits as invariant part plus one "
            "character line", expect["bicanonical"],
            [inv.h0_invariant, list(inv.h0_characters)])
    rep.add(f"{label}-P2", f"P_2 = chi + K^2_minimal = {expect['P2']}",
            expect["P2"], inv.P2)
    rep.add(f"{label}-involution",
            "the bicanonical map has degree 2 through the first involution",
            [2, 1], [inv.bicanonical_degree, inv.involution_index])


def _scenario_example1(rep: ScenarioReport) -> None:
    bd = examples.example1()
    inv = covers.analyse(bd, bd.configuration.cls("f1"))
    rep.add("valid", "2L1 = D2+D3 and 2L2 = D1+D3 hold exactly", True, True)
    rep.add("L3", "L3 = 4l-2e1-2e2-2e3-e4-e5-e6",
            [4, 2, 2, 2, 1, 1, 1], bd.L3.to_vector())
    _report_checks(rep, "ex1", inv, {
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
    cfg = standard_quadrilateral(with_general_point=True, seed=rep.seed)
    bd = covers.resolve_111(examples.example1(), cfg, ("f2", "f3", "f1"))
    f1 = cfg.cls("f1")
    inv = covers.analyse(bd, f1)
    rep.add("valid", "the resolved building data still validates", True, True)
    _report_checks(rep, "ex1deg", inv, {
        "chi": 1, "pg": 0, "K2_cover": -2, "contractions": 8, "K2_minimal": 6,
        "double_fibres": 4, "bicanonical": [6, [1, 0, 0]], "P2": 7,
    })
    member = [(cfg.cls("f1_strict"), 1, 3), (cfg.lattice.exceptional(7), 1, None)]
    rep.add("fibre-through-point",
            "the pencil member through the blown-up point carries the "
            "exceptional curve with multiplicity 1, so it is not double",
            1, covers.fibre_multiplicity(bd, member, f1))


def _scenario_example2(rep: ScenarioReport) -> None:
    bd = examples.example2()
    cfg = bd.configuration
    inv = covers.analyse(bd, cfg.cls("f1"))
    rep.add("valid", "2L1 = D2+D3 and 2L2 = D1+D3 hold exactly", True, True)
    rep.add("L3", "L3 = 4l-2e1-2e2-2e3-e4-e5-e6-e7",
            [4, 2, 2, 2, 1, 1, 1, 1], bd.L3.to_vector())
    k = cfg.lattice.canonical
    for i, L in enumerate((bd.L1, bd.L2, bd.L3), start=1):
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
    _report_checks(rep, "ex2", inv, {
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
    bd = examples.example3()
    rep.add("L1-derived", "half of D2+D3 gives L1 = 4l-e1-e2-e3-2e4-2e5-2e6",
            [4, 1, 1, 1, 2, 2, 2, 0], bd.L1.to_vector())
    rep.add("L2-derived", "half of D1+D3 equals the L2 of example 2",
            examples.example2().L2.to_vector(), bd.L2.to_vector())
    inv = covers.analyse(bd, bd.configuration.cls("f1"))
    rep.add("valid", "the derived data validates", True, True)
    _report_checks(rep, "ex3", inv, {
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


@cache
def _fixture(name: str) -> tuple[BlowupLattice, tuple[DivisorClass, ...]]:
    """The lattice and classes of a shipped nodal fixture, read once."""
    doc = load_document(data_path(name))
    lat = BlowupLattice(doc["lattice_n"])
    return lat, tuple(lat.from_vector(v) for v in doc["classes"])


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
    _, nodal = _fixture("nodal10_rank14.json")
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
    from . import codes  # only this scenario needs the F_2 layer
    de = [codes.de_code(s) for s in range(1, 9)]
    rep.add("de-dims", "DE(s) has dimension s-1 for s = 1..8",
            [s - 1 for s in range(1, 9)], [c.dim for c in de])
    rep.add("de-doubly-even", "every weight of DE(s), s <= 8, is divisible by 4",
            True, all(map(codes.is_doubly_even, de)))
    lat, classes = _fixture("nodal_sides.json")
    v = codes.code_of_classes(classes, lat)
    rep.add("sides-code", "the four sides give the code spanned by (1,1,1,1)",
            [[1, 1, 1, 1]], v.to_rows())
    rep.add("sides-weights", "its weights are 0 and 4 (doubly even)",
            [[0, 1], [4, 1]],
            sorted([w, c] for w, c in codes.weights(v).items()))
    lat, classes = _fixture("nodal10_rank14.json")
    v10 = codes.code_of_classes(classes, lat)
    rep.add("ten-nodal-dim",
            "ten disjoint nodal classes in a rank-14 lattice give dim V = 3 "
            "(the isotropy bound forces dim V >= 3)", 3, v10.dim)
    rep.add("ten-nodal-isotropy", "2(k - dim V) <= rank holds with equality",
            [14, 14, True], list(codes.isotropy_bound(v10, lat.rank)))
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
SCENARIO_NAMES = tuple(_SCENARIOS)


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
        last = rep.checks[-1]["id"] if rep.checks else "none"
        raise ScenarioAbort(
            f"scenario {name!r} aborted after check {last!r}: {exc}") from exc
    return rep

