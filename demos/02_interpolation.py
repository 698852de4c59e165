"""Exact fat-point interpolation over the quadrilateral configuration.

Every dimension below is exact and needs no matrix: the negative curves
that meet the system negatively are split off as fixed components, and
Riemann-Roch gives h^0 of the nef residue -- integer lattice arithmetic,
no floating point, no tolerance.
"""

from bidouble import (FatPointSystem, h0_class, h0_fat_points,
                      standard_quadrilateral)

cfg = standard_quadrilateral(with_p7=True)

print("points:", *(f"P{i}={tuple(map(str, p))}" for i, p in
                   enumerate(cfg.points, 1)), sep="\n  ")
print()

# no conditions: the full space of plane curves
for d in (1, 2, 3):
    print(f"h0(degree {d}, no conditions) =",
          h0_fat_points(cfg, FatPointSystem(d, ())))
print()

# the three adjoint systems of the second construction all vanish
examples = [
    ("line through P1,P2,P3", FatPointSystem(1, ((0, 1), (1, 1), (2, 1)))),
    ("conic through P2, double P4, P5, P6",
     FatPointSystem(2, ((1, 1), (3, 2), (4, 1), (5, 1)))),
    ("quartic simple P1,P3,P7 double P2,P4,P5,P6",
     FatPointSystem(4, ((0, 1), (2, 1), (6, 1), (1, 2), (3, 2), (4, 2), (5, 2)))),
    ("quintic simple P1,P3,P7 double P2,P4,P5,P6",
     FatPointSystem(5, ((0, 1), (2, 1), (6, 1), (1, 2), (3, 2), (4, 2), (5, 2)))),
]
for label, system in examples:
    print(f"h0({label}) = {h0_fat_points(cfg, system)}"
          f"   (expected-dimension count: {system.expected_dimension})")
print()

# h0 of divisor classes: fixed parts are split off automatically
from bidouble import DivisorClass
k = cfg.lattice.canonical
print("h0(-K + f1)                        =",
      h0_class(cfg, -1 * k + cfg.cls("f1")))
rigid = DivisorClass(5, (2, 3, 2, 2, 2, 2, 1))
print("h0(e4 + Delta2bar + S1+S2+S3+S4)   =", h0_class(cfg, rigid),
      " (a rigid divisor)")
