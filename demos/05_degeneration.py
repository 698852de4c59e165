"""Dropping K^2 from 7 to 6 by a triple point of the branch locus.

Start from the K^2 = 7 construction, let one member of each conic pencil
pass through a common general point and resolve by blowing it up.  The
minimal model loses exactly one from K^2 and exactly one double fibre:
the pencil member through the new point picks up the exceptional curve
with multiplicity 1, so its pullback is no longer divisible by 2.
"""

from fractions import Fraction

from bidouble import (bidouble_invariants, count_double_fibres,
                      fibre_multiplicity, resolve_111,
                      standard_quadrilateral, validate)
from bidouble.examples import example1

cfg6 = standard_quadrilateral()
bd = example1(cfg6, degenerating=True)
before = bidouble_invariants(bd, cfg6)
print("before the degeneration:")
print(f"  K^2_minimal = {before.K2_minimal}, p_g = {before.pg}, "
      f"double fibres = {count_double_fibres(bd, cfg6.cls('f1'), cfg6)}")
print()

cfg = standard_quadrilateral(with_general_point=True, seed=0)
x, y, z = cfg.points[-1]
print("general point drawn:", tuple(str(Fraction(c, z)) for c in (x, y, z)))
out = resolve_111(bd, cfg)
validate(out)
after = bidouble_invariants(out, cfg)
f1 = cfg.cls("f1")
print("after blowing it up and adjusting the branch data:")
print(f"  K^2_minimal = {after.K2_minimal}, p_g = {after.pg}, "
      f"double fibres = {count_double_fibres(out, f1, cfg)}")
print()

member = [(cfg.cls("f1_strict"), 1, 3), (cfg.lattice.exceptional(7), 1, None)]
mult = fibre_multiplicity(out, member, f1)
print("the pencil member through the blown-up point is "
      "strict-transform + exceptional; its multiplicity is", mult,
      "(not a double fibre)")
