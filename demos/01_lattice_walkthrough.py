"""Divisor classes on the blown-up quadrilateral, step by step.

Blow up the plane at the four vertices of a quadrilateral and at the two
intersection points of opposite sides.  The named curves -- the sides
S1..S4, the diagonals Delta1..Delta3 and the conic pencils f1, f2, f3 --
satisfy a small list of exact relations, checked here one by one.
"""

from bidouble import (DivisorClass, arithmetic_genus, riemann_roch_chi,
                      standard_quadrilateral)

cfg = standard_quadrilateral()
lat = cfg.lattice
K = lat.canonical

print("lattice rank:", lat.rank, " canonical class:", K)
print()

names = ["Delta1", "Delta2", "Delta3", "S1", "S2", "S3", "S4",
         "f1", "f2", "f3"]
for name in names:
    cls = cfg.cls(name)
    print(f"{name:7s} = {str(cls):24s} self-intersection {cls.dot(cls):3d}"
          f"  K-degree {K.dot(cls):3d}")
print()

# the relation list
d1, d2, d3 = (cfg.cls(f"Delta{i}") for i in (1, 2, 3))
f1, f2, f3 = (cfg.cls(f"f{i}") for i in (1, 2, 3))
assert f1 == d2 + d3 and f2 == d3 + d1 and f3 == d1 + d2
print("f_i = Delta_j + Delta_k for each cyclic triple      OK")
assert -1 * K == d1 + d2 + d3 == f1 + d1 == f2 + d2 == f3 + d3
print("-K = Delta1+Delta2+Delta3 = f_i + Delta_i           OK")
for i, d in enumerate((d1, d2, d3), 1):
    for j, f in enumerate((f1, f2, f3), 1):
        assert d.dot(f) == (2 if i == j else 0)
print("Delta_i . f_j = 2 delta_ij                          OK")
for d in (d1, d2, d3):
    for s in ("S1", "S2", "S3", "S4"):
        assert d.dot(cfg.cls(s)) == 0
print("the diagonals are disjoint from the sides           OK")
print()

# genus and Euler characteristic of a few classes
print("genus of a pencil member f1:     ", arithmetic_genus(f1))
print("genus of the zero class:         ", arithmetic_genus(lat.zero))
print("chi(-K) on the 6-point blowup:   ", riemann_roch_chi(-1 * K))

# a class with square 12 orthogonal to K has genus 7 (13-point lattice)
h = DivisorClass(7, (2,) * 8 + (1,) * 5)
print("H with H^2=12, K.H=0:  genus", arithmetic_genus(h),
      " chi", riemann_roch_chi(h))
