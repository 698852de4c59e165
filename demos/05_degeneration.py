"""Dropping K^2 from 7 to 6 by a triple point of the branch locus.

Start from the K^2 = 7 construction, let one member of each conic pencil
pass through a common general point -- f2 in D1, f3 in D2 and f1 in D3,
named in the call to ``resolve_111`` -- and resolve by blowing it up.  The
minimal model loses exactly one from K^2 and exactly one double fibre:
the pencil member through the new point picks up the exceptional curve
with multiplicity 1, so its pullback is no longer divisible by 2.
"""

from fractions import Fraction

from bidouble import (analyse, fibre_multiplicity, resolve_111,
                      standard_quadrilateral)
from bidouble.examples import example1

bd = example1()
before = analyse(bd, bd.configuration.cls("f1"))
print("before the degeneration:")
print(f"  K^2_minimal = {before.K2_minimal}, p_g = {before.pg}, "
      f"double fibres = {before.double_fibres}")
print()

cfg = standard_quadrilateral(with_general_point=True, seed=0)
x, y, z = cfg.points[-1]
print("general point drawn:", tuple(str(Fraction(c, z)) for c in (x, y, z)))
out = resolve_111(bd, cfg, ("f2", "f3", "f1"))
f1 = cfg.cls("f1")
after = analyse(out, f1)
print("after blowing it up and adjusting the branch data:")
print(f"  K^2_minimal = {after.K2_minimal}, p_g = {after.pg}, "
      f"double fibres = {after.double_fibres}")
print()

member = [(cfg.cls("f1_strict"), 1, 3), (cfg.lattice.exceptional(7), 1, None)]
mult = fibre_multiplicity(out, member, f1)
print("the pencil member through the blown-up point is "
      "strict-transform + exceptional; its multiplicity is", mult,
      "(not a double fibre)")
