# The spectrum of kappa = 2 m_H on both blocks, kept inside Q.
#
# The characteristic polynomials are matched exactly against the
# template lam^a prod(lam^2 - c q), so the eigenvalue data is the
# multiset of squares {c}, found in closed form as the rational roots of
# a polynomial of degree at most 2; no radical is ever needed. The
# squares must be the reciprocals of the singular points q = t^2 of the
# regularized operator's leading coefficient, read from the operator in
# q; that cross-check ties the local solver data to the global series.

from fractions import Fraction

from hodgeatoms.ansatz import build_ansatz, substitute_params
from hodgeatoms.certificate import chi_render
from hodgeatoms.cohomology import AmbientRing
from hodgeatoms.instance import load_instance
from hodgeatoms.linalg import char_poly
from hodgeatoms.periods import get_source
from hodgeatoms.qde import transform_even_operator
from hodgeatoms.spectrum import block_spectrum, reciprocity_check

verra = load_instance("verra")
ring = AmbientRing()
basis = ring.eigenbasis()

sym = build_ansatz(basis.symmetric, ring, basis.degrees("symmetric"), verra.param_names)
anti = build_ansatz(basis.antisymmetric, ring, basis.degrees("antisymmetric"), None)

solution = {"s": Fraction(2), "t": Fraction(6), "u": Fraction(2), "v": Fraction(16)}
mplus = substitute_params(sym, solution)
mminus = substitute_params(anti, {anti.params[0]: Fraction(2)})

print("chi(M_+) =", chi_render(char_poly(mplus)))
print("chi(M_-) =", chi_render(char_poly(mminus)))

plus = block_spectrum(mplus, "symmetric")
minus = block_spectrum(mminus, "antisymmetric")
print("\ntemplate factorizations of the doubled matrices:")
print("  chi(2M_+) =", plus.factored_render())
print("  chi(2M_-) =", minus.factored_render())
print("zero multiplicities:", plus.zero_multiplicity, "and", minus.zero_multiplicity)

reg_q = transform_even_operator(get_source(verra.period_source).regularized)[0]
rec = reciprocity_check(reg_q, plus)
print("\nsingular squares of the regularized leading coefficient:",
      [str(c) for c in rec.singular_squares])
print("nonzero eigenvalue squares:", [str(c) for c in rec.eigen_squares])
print("reciprocity:", "pass" if rec.passed else "FAIL")
