"""Binary codes of disjoint nodal curves.

k disjoint (-2)-classes define a map F_2^k -> Pic/2Pic; its kernel V is
the code of the configuration.  The image is totally isotropic for the
mod-2 intersection form, which bounds its dimension by half the lattice
rank -- with k = 10 classes in a rank-14 lattice this forces dim V >= 3.
"""

from bidouble import (BlowupLattice, code_of_classes, de_code,
                      is_doubly_even, isotropy_bound, weights)
from bidouble.examples import data_path, load_document

# the four sides of the quadrilateral: S1+S2+S3+S4 is divisible by 2
doc = load_document(data_path("nodal_sides.json"))
lat = BlowupLattice(doc["lattice_n"])
sides = [lat.from_vector(v) for v in doc["classes"]]
v = code_of_classes(sides, lat)
print("code of the four sides:   generators", v.to_rows())
print("weights:", dict(weights(v)), " doubly even:", is_doubly_even(v))
print()

# the doubled even-weight codes DE(s)
for s in range(1, 6):
    code = de_code(s)
    print(f"DE({s}): length {code.length:2d}, dim {code.dim},"
          f" weights {sorted(weights(code))}")
print()

# ten disjoint nodal classes in a rank-14 lattice
doc = load_document(data_path("nodal10_rank14.json"))
lat = BlowupLattice(doc["lattice_n"])
classes = [lat.from_vector(v) for v in doc["classes"]]
v10 = code_of_classes(classes, lat)
lhs, rhs, holds = isotropy_bound(v10, lat.rank)
print(f"ten nodal classes, rank {lat.rank}: dim V = {v10.dim}")
print(f"isotropy bound 2(k - dim V) = {lhs} <= {rhs}: {holds}")
print("weights:", dict(weights(v10)), " doubly even:", is_doubly_even(v10))
print("(the weight enumerator matches DE(4): 0 once, 4 six times, 8 once)")
