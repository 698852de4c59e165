"""Exact-arithmetic toolkit for divisor classes on plane blowups, fat-point
interpolation, binary codes of nodal curves and bidouble-cover invariants."""

from .lattice import (BlowupLattice, DivisorClass, LatticeMismatchError,
                      arithmetic_genus, castelnuovo_bound, riemann_roch_chi)
from .plane import (CurveEntry, FatPointSystem, PointConfiguration,
                    effective_decompositions, h0_class, h0_fat_points,
                    interpolation_dimension, reducible_fibres,
                    standard_quadrilateral)
from .codes import (BinaryCode, EnumerationCapError, NodalInputError,
                    code_of_classes, de_code, is_doubly_even, isotropy_bound,
                    isotropy_bound_holds, weights)
from .covers import (BicanonicalDecomposition, BidoubleData, BranchComponent,
                     BranchPreimage, IncidenceError, InvariantConsistencyError,
                     InvariantReport, RelationError, analyse, branch_preimage,
                     contraction_count, count_double_fibres, double_cover_chi,
                     etale_double, fibre_multiplicity, numeri_identities,
                     resolve_111, slope_check, validate)
from .examples import example1, example2, example3, halve

__version__ = "0.1.0"
