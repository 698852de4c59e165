"""A bidouble cover with K^2 = 6 and p_g = 0, end to end.

The branch data lives on the plane blown up at the six quadrilateral
points and at the diagonal point P7.  Building the data checks the two
cover relations exactly; then every invariant of the construction falls out of
integer arithmetic: lattice arithmetic on the negative curves of the
blowup, and bracket determinants of the points for incidence.
"""

from bidouble import analyse, branch_preimage
from bidouble.examples import example2

bd = example2()

print("branch divisors:")
for i in (1, 2, 3):
    comps = ", ".join(c.name for c in bd.components if c.branch == i)
    print(f"  D{i} = {comps}   (class {bd.branch_class(i)})")
print("L1 =", bd.L1)
print("L2 =", bd.L2)
rep = analyse(bd, bd.configuration.cls("f1"))
print("L3 =", bd.L3, "  (derived; both cover relations hold exactly)")
print()

print(f"chi = {rep.chi}   p_g = {rep.pg}   q = {rep.q}")
print(f"K^2 of the smooth cover: {rep.K2_cover}")
print(f"contracted (-1)-curves:  {rep.contractions}")
print(f"K^2 of the minimal model: {rep.K2_minimal}")
print()

print("what happens over each branch component:")
for comp in bd.components:
    pre = branch_preimage(bd, comp.name)
    if pre.splits:
        print(f"  {comp.name:10s} b={pre.branch_degree}: splits into two "
              f"curves of square {pre.self_intersection}")
    else:
        print(f"  {comp.name:10s} b={pre.branch_degree}: irreducible, "
              f"genus {pre.genus}, square {pre.self_intersection}")
print()

print(f"bicanonical space: {rep.h0_invariant} invariant sections plus "
      f"character dimensions {list(rep.h0_characters)} (total "
      f"P2 = {rep.P2})")
print(f"the map has degree {rep.bicanonical_degree}; the bicanonical "
      f"involution is number {rep.involution_index}")
print()

print(f"the genus-3 pencil pulled back from |f1| has {rep.double_fibres} "
      "double fibres")
