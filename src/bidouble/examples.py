"""The three bidouble-cover constructions over the quadrilateral, the
reader of the cover documents they are built from, and their report.

The building data of each construction is read from its shipped document
``data/example{1,2,3}.json``, the same file that ``bidouble custom`` runs,
by :func:`cover_from_document` on the configuration the document names;
each construction is built once per process and shared.  ``bidouble custom``
prints :func:`run_custom`: what ``covers.analyse`` gives a document, unpinned.

* ``example1`` lives on the 6-point blowup: the branch uses a diagonal, one
  general member of each conic pencil (two of |f1|) and the four sides;
  the minimal model has K^2 = 7 and a genus-3 pencil with 5 double fibres.
  Sending its members f2, f3, f1 of D1, D2, D3 through a general point,
  ``covers.resolve_111(example1(), cfg, ("f2", "f3", "f1"))`` drops K^2 to
  6 and loses one double fibre.

* ``example2`` and ``example3`` live on the 7-point blowup at the diagonal
  point P7; both minimal models have K^2 = 6 and 5 double fibres.  The
  L-classes of example 3 are not part of its classical description, so its
  document omits them and they are derived as the exact halves of D2+D3
  and D1+D3 (unique, the lattice being torsion free).
"""

from __future__ import annotations

import json
import os
from functools import cache
from operator import index

from .covers import BidoubleData, BranchComponent, IncidenceError, analyse
from .lattice import DivisorClass
from .plane import PointConfiguration, h0_class, standard_quadrilateral

__all__ = ["example1", "example2", "example3", "halve", "data_path",
           "load_document", "configuration_of", "cover_from_document",
           "run_custom"]

# the search depth that made a catalogue search complete for degree-2
# pencils; the fibre count needs no search, but every report keeps the
# field so that report bytes stay the same
DECOMPOSITION_DEPTH = 2

# the ``configuration`` of a cover document -> its standard_quadrilateral
_CONFIGURATIONS = {
    "quadrilateral": {},
    "quadrilateral-p7": {"with_p7": True},
    "quadrilateral-general-point": {"with_general_point": True},
}


def halve(cls: DivisorClass) -> DivisorClass:
    """The unique half of a 2-divisible class."""
    if cls.degree % 2 or any(m % 2 for m in cls.mults):
        raise ValueError(f"{cls} is not divisible by 2")
    return DivisorClass(cls.degree // 2, tuple(m // 2 for m in cls.mults))


def data_path(name: str) -> str:
    """Path to a shipped data file."""
    return os.path.join(os.path.dirname(__file__), "data", name)


def load_document(path) -> dict:
    with open(str(path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def configuration_of(doc: dict, seed: int = 0) -> PointConfiguration:
    """The configuration a cover document names; without a name, the one
    of its lattice.  ``seed`` draws the general point, where there is one.
    Raises ``ValueError`` unless the configuration has ``lattice_n``
    points."""
    kind = doc.get("configuration")
    n = index(doc["lattice_n"])
    if kind is None:
        kind = {6: "quadrilateral", 7: "quadrilateral-p7"}.get(n)
        if kind is None:
            raise ValueError(f"no default configuration for lattice_n={n}")
    if kind not in _CONFIGURATIONS:
        raise ValueError(f"unknown configuration {kind!r}")
    cfg = standard_quadrilateral(seed=seed, **_CONFIGURATIONS[kind])
    if cfg.lattice.n != n:
        raise ValueError("configuration does not match lattice_n")
    return cfg


def cover_from_document(doc: dict, seed: int = 0) -> BidoubleData:
    """Build BidoubleData from a parsed cover document, on the configuration
    :func:`configuration_of` gives it for ``seed``.

    Schema: {lattice_n, components: [{name, class, branch: 0|1|2|3,
    multiplicity}], L1, L2} with L1/L2 optional: a missing one is derived
    by exact halving, a given one is checked by ``BidoubleData``.  branch 0
    entries are unbranched catalogue declarations and are ignored for the
    cover itself.  multiplicity k becomes the component's count.  Raises
    :class:`covers.IncidenceError` when a branch component's class is that
    of no irreducible curve on the configuration.
    """
    cfg = configuration_of(doc, seed)
    lat = cfg.lattice
    curves = {(e.cls.degree, e.cls.mults) for e in cfg.negative_entries}
    curves.update(cfg.conic_bundles)
    comps = []
    for raw in doc["components"]:
        branch = index(raw["branch"])
        if branch == 0:
            continue
        cls = lat.from_vector(raw["class"])
        mult = index(raw.get("multiplicity", 1))
        if mult < 1:
            raise ValueError(
                f"component {raw['name']!r}: multiplicity must be >= 1")
        # a curve on at most seven points is negative, a conic bundle F, or
        # big and nef, so base-point free (Harbourne); k*F with k > 1 is none
        curve = (cls.degree, cls.mults) in curves or cls.dot(cls) > 0 and all(
            cls.dot(e.cls) >= 0 for e in cfg.negative_entries)
        why = "its class is 0" if not any(cls.to_vector()) else None if curve \
            else f"h^0({cls}) = 0" if not h0_class(cfg, cls) else \
            f"{cls} is the class of no irreducible curve"
        if why:
            raise IncidenceError(f"component {raw['name']!r} is no curve on "
                                 f"the configuration: {why}")
        comps.append(BranchComponent(raw["name"], cls, branch, mult))
    l1 = lat.from_vector(doc["L1"]) if "L1" in doc else None
    l2 = lat.from_vector(doc["L2"]) if "L2" in doc else None
    if l1 is None or l2 is None:
        d1, d2, d3 = (sum((c.count * c.cls for c in comps if c.branch == i), lat.zero)
                      for i in (1, 2, 3))
        l1 = halve(d2 + d3) if l1 is None else l1
        l2 = halve(d1 + d3) if l2 is None else l2
    return BidoubleData(cfg, tuple(comps), l1, l2)


def run_custom(doc: dict, seed: int = 0) -> dict:
    """Full pipeline on a cover document; computed invariants, no pins.

    Raises ValueError/KeyError on malformed documents, the pencil first,
    and RelationError when the data does not validate.
    """
    if not isinstance(doc, dict):
        raise ValueError("a cover document must be a JSON object")
    lat = configuration_of(doc, seed).lattice
    pencil = lat.from_vector(doc["pencil"]) if "pencil" in doc else None
    bd = cover_from_document(doc, seed)
    rep = analyse(bd, pencil)
    return {
        "scenario": "custom",
        "seed": seed,
        "source": doc.get("name", "unnamed"),
        "valid": True,
        "L1": bd.L1.to_vector(),
        "L2": bd.L2.to_vector(),
        "L3": bd.L3.to_vector(),
        "l_provenance": "given" if "L1" in doc and "L2" in doc else "derived",
        "invariants": rep.to_dict(),
        "bicanonical": {"h0_invariant": rep.h0_invariant,
                        "h0_characters": list(rep.h0_characters),
                        "total": rep.P2, "degree": rep.bicanonical_degree,
                        "involution_index": rep.involution_index},
        "decomposition_depth": DECOMPOSITION_DEPTH,
    }


@cache
def _cover(n: int) -> BidoubleData:
    # built once per process and shared by every caller
    return cover_from_document(load_document(data_path(f"example{n}.json")))


def example1() -> BidoubleData:
    """Branch data D1 = Delta1 + f2 + S1 + S2, D2 = Delta2 + f3,
    D3 = Delta3 + f1 + f1' + S3 + S4 on the 6-point blowup; its K^2 = 6
    degeneration is ``covers.resolve_111`` through f2, f3 and f1."""
    return _cover(1)


def example2() -> BidoubleData:
    """Branch data D1 = C + S1 + S2, D2 = f3,
    D3 = f1 + f1' + Delta2bar + Delta3bar + S3 + S4 on the 7-point blowup."""
    return _cover(2)


def example3() -> BidoubleData:
    """Branch data D1 = C + Delta2bar + S1 + S2, D2 = Delta1 + e7,
    D3 = f1 + f1' + Delta3bar + S3 + S4; L1, L2 derived by exact halving."""
    return _cover(3)
