# The quantum period G(q) and its factorial regularization.
#
# G(q) = sum_m a_m q^m with a_m a finite two-point binomial sum. The
# series itself is not holonomic-friendly to display, but rescaling the
# m-th coefficient by (2m)! produces the series annihilated by the
# registered fourth-order operator after the even change of variables
# t^2 = q (which turns D_t into 2 D_q on even series).

from hodgeatoms.periods import get_source, period_coefficients, regularized_coefficients
from hodgeatoms.qde import apply, transform_even_operator

g = period_coefficients("verra-eq3", 16)
print("G(q) coefficients a_0..a_8:")
for m in range(9):
    print(f"  a_{m} = {g.coeff(m)}")

src = get_source("verra-eq3")
print("\nregularized operator in t (D = t d/dt):")
print(" ", src.regularized.render())

op, content = transform_even_operator(src.regularized)
print(f"\nafter t^2 = q, D_t = 2 D_q, divided by content {content}:")
print(" ", op.render())

rescaled = regularized_coefficients(g)
residual = apply(op, rescaled)
print(f"\napplied to the (2m)!-rescaled series: zero through q^{residual.order}?",
      residual.is_zero())

# the raw series is a solution of the order-6 operator derived in
# demos/03, not of this one; the mismatch is visible immediately
raw_residual = apply(op, g)
print("applied to raw G(q), first residual coefficients:",
      [str(raw_residual.coeff(m)) for m in range(4)])
