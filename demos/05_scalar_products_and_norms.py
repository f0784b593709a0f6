"""Scalar products: off-shell determinants, frozen-row recursion, on-shell norms.

The scalar product of two off-shell Bethe states is a single determinant
with no Bethe-equation constraint; the intermediate scalar products
interpolate down to the frozen domain-wall partition function, and the
v -> u limit on-shell reproduces the norm formula.
"""

from fractions import Fraction as F

from fivevertex import (IntermediateSpec, ModelParameters, bethe_solve, bethe_state,
                        domain_wall_value, dual_bethe_state, intermediate_scalar_det,
                        norm_det, recursion_check, scalar_product_det)

M, N = 4, 2
alpha = F(9, 16)            # perfect square, so the frozen-row recursion is exact
u = [F(2, 3), F(5, 7)]
v = [F(3, 5), F(7, 4)]
w = (F(1), F(6, 5), F(4, 5), F(9, 8))

params = ModelParameters(alpha=alpha, M=M)
oracle = sum(b * k for b, k in
             zip(dual_bethe_state(u, params), bethe_state(v, params)))
det_val = scalar_product_det(u, v, alpha, M)
print("off-shell scalar product <psi(u)|psi(v)>:")
print("  operator oracle :", oracle)
print("  determinant     :", det_val, " equal:", det_val == oracle)
u_c, v_c = [F(2, 3), F(-2, 3)], [F(3, 5), F(3, 5)]  # both groups coincident
oracle_c = sum(b * k for b, k in zip(dual_bethe_state(u_c, params), bethe_state(v_c, params)))
print("  u = (a, -a), v = (c, c):", scalar_product_det(u_c, v_c, alpha, M) == oracle_c)

spec = IntermediateSpec(1, (u[0],), tuple(v), w, alpha, M, N)
print("\nintermediate scalar products (inhomogeneous):")
print("  S_1 value            :", intermediate_scalar_det(spec))
print("  frozen-row recursion :", recursion_check(spec))
spec0 = IntermediateSpec(0, (), tuple(v), w, alpha, M, N)
print("  n=0 domain wall      :",
      intermediate_scalar_det(spec0) == domain_wall_value(spec0))

print("\non-shell norms (TASEP point, roots from the Bethe solver):")
sol = next(s for s in bethe_solve(M, N) if not s.stationary)
u_shell = [(1 - z) ** -0.5 for z in sol.roots]
oracle_norm = sum(b * k for b, k in
                  zip(dual_bethe_state(u_shell, ModelParameters(alpha=1.0, M=M)),
                      bethe_state(u_shell, ModelParameters(alpha=1.0, M=M))))
print("  <psi|psi> oracle     :", complex(oracle_norm))
print("  norm determinant     :", complex(norm_det(u_shell, 1.0, M, 'det')))
print("  Sylvester reduction  :", complex(norm_det(u_shell, 1.0, M, 'sylvester')))
print("  u = v confluent SP   :", complex(scalar_product_det(u_shell, list(u_shell), 1.0, M)))
