# Solving the unknown parameters by matching the operator against the
# quantum period, order by order in q.
#
# Applying the parametric operator to the truncated series G(q) produces
# one polynomial equation per q-power. Linearizing over the occurring
# monomials, reducing exactly, and branching on rational quadratics
# gives the full solution set; the enumerativity filter then keeps the
# solutions where the designated parameters are non-negative integers.

from hodgeatoms.ansatz import apply_param_names, build_ansatz
from hodgeatoms.cohomology import AmbientRing
from hodgeatoms.instance import load_instance
from hodgeatoms.periods import period_coefficients
from hodgeatoms.qde import cyclic_rows, eliminate, match_equations
from hodgeatoms.solve import solve_parameters

verra = load_instance("verra")
ring = AmbientRing()
basis = ring.eigenbasis()
m = apply_param_names(
    build_ansatz(basis.symmetric, ring,
                 basis.degrees("symmetric")),
    verra.param_names).matrix
op = eliminate(cyclic_rows(m, verra.component, m.ncols))

for order in (12, 16):
    g = period_coefficients(verra.period_source, order)
    eqs = match_equations(op, g, order - 6, verra.parameter_order())
    print(f"truncation order {order}: {len(eqs)} nonzero equations, "
          f"first at q^{eqs[0][0]}")
    rep = solve_parameters(eqs, verra.parameter_order(), verra.enumerative)
    if order == 16:
        print("\nreduced system:")
        for e in rep.reduced:
            print(f"  {e.render()} = 0")
        print("\nsolution set over (s, t, u, v):")
        for sol in rep.solutions:
            print("  (" + ", ".join(str(x) for x in sol) + ")")
        for sol, reason in rep.rejected:
            print(f"  rejected ({', '.join(str(x) for x in sol)}): {reason}")
        for sol in rep.accepted:
            print("accepted: (" + ", ".join(str(x) for x in sol) + ")")
    else:
        sols12 = rep.solutions

print("\nsolution set stable across orders 12 and 16:", sols12 == rep.solutions)
