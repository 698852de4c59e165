"""Exact-arithmetic toolkit for divisor classes on plane blowups, h^0 of
fat-point systems, binary codes of nodal curves and bidouble-cover invariants.
Each public name loads its home module on first use (PEP 562)."""

from importlib import import_module

_EXPORTS = {  # home module -> the public names it gives the package
    "lattice": """BlowupLattice DivisorClass LatticeMismatchError
        arithmetic_genus castelnuovo_bound riemann_roch_chi""",
    "plane": """CurveEntry FatPointSystem PointConfiguration h0_class
        h0_fat_points reducible_fibres standard_quadrilateral""",
    "codes": """BinaryCode EnumerationCapError NodalInputError code_of_classes
        de_code is_doubly_even isotropy_bound isotropy_bound_holds weights""",
    "covers": """BidoubleData BranchComponent BranchPreimage IncidenceError
        InvariantConsistencyError InvariantReport RelationError analyse
        branch_preimage contraction_count count_double_fibres double_cover_chi
        etale_double fibre_multiplicity numeri_identities resolve_111
        slope_check""",
    "examples": "example1 example2 example3 halve",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME.get(name, name)}")
    return module if name in _EXPORTS else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
