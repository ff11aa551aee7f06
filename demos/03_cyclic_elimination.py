# Cyclic-vector elimination: from the first-order system D y = M y to a
# single scalar operator annihilating the unit-class component.
#
# Repeated differentiation gives D^k f = r_k . y with r_0 the unit
# covector; the first linear dependence among r_0, ..., r_k over the
# parametric coefficient ring yields the operator. Everything stays
# exact, including the four ansatz unknowns.

from hodgeatoms.ansatz import build_ansatz
from hodgeatoms.cohomology import AmbientRing
from hodgeatoms.instance import load_instance
from hodgeatoms.qde import cofactor_identity_holds, cyclic_rows, eliminate

verra = load_instance("verra")
ring = AmbientRing()
basis = ring.eigenbasis()
am = build_ansatz(basis.symmetric, ring, basis.degrees("symmetric"), verra.param_names)

rows = cyclic_rows(am.matrix, verra.component, am.matrix.ncols)
print(f"component {verra.component} (top degree); first cyclic rows:")
for k in range(3):
    print(f"  r_{k} = (" + ", ".join(p.render() for p in rows.rows[k]) + ")")

op = eliminate(rows)
print(f"\nfirst dependence at order {op.order}:")
print(" ", op.render())

print("\ncofactor identity sum c_k r_k = 0 holds with parameters:",
      cofactor_identity_holds(op, rows))

solved = op.substitute({"s": 2, "t": 6, "u": 2, "v": 16})
print("\nat the solved parameters (2, 6, 2, 16):")
print(" ", solved.render())
