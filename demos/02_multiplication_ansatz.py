# Deriving the quantum multiplication matrices from two constraints:
# the Novikov degree rule and self-adjointness for the Poincare pairing.
#
# The ambient ring Q[H1,H2]/(H1^3,H2^3) splits under the cover involution
# into a 6-dimensional symmetric and a 3-dimensional antisymmetric block.
# Multiplication by H preserves each block, lands one quantum unknown at
# every degree-admissible matrix slot, and self-adjointness ties the
# symmetric block's eight slots in four pairs, one parameter each.

from fractions import Fraction

from hodgeatoms.ansatz import admissible_powers, build_ansatz, self_adjoint, substitute_params
from hodgeatoms.cohomology import AmbientRing, degree
from hodgeatoms.instance import load_instance

ring = AmbientRing()
basis = ring.eigenbasis()

print("symmetric eigenbasis (degree order):")
for b in basis.symmetric:
    print(f"  deg {degree(b)}: {b.render(ascending=True)}")
print("antisymmetric eigenbasis:")
for b in basis.antisymmetric:
    print(f"  deg {degree(b)}: {b.render(ascending=True)}")

degrees = basis.degrees("symmetric")
slots = [(j, i, d)
         for j in range(6) for i in range(6)
         for d in admissible_powers(j, i, degrees) if d >= 1]
print(f"\ndegree rule admits {len(slots)} quantum slots in the symmetric block")

raw = build_ansatz(basis.symmetric, ring, degrees, None)
print(f"self-adjointness leaves {len(raw.params)} free parameters:",
      ", ".join(raw.params))

verra = load_instance("verra")
am = build_ansatz(basis.symmetric, ring, degrees, verra.param_names)
print("\nsymmetric matrix with conventional names "
      f"({', '.join(am.params)}):")
for row in am.matrix.rows:
    print("  [" + ", ".join(p.render() for p in row) + "]")

print("M^T G - G M identically zero:", self_adjoint(am))

anti = build_ansatz(basis.antisymmetric, ring, basis.degrees("antisymmetric"), None)
print(f"\nantisymmetric block has {len(anti.params)} parameter; at the"
      " solved value -N/2 = 2:")
solved = substitute_params(anti, {anti.params[0]: Fraction(2)})
for row in solved.rows:
    print("  [" + ", ".join(p.render() for p in row) + "]")
