"""The deformed Cauchy identity and the weighted summation formulas.

The box sum of G_lambda(z;beta) Gbar_lambda(y;beta) collapses to a single
N x N determinant; sending the box width to infinity gives a product
formula.  Both are checked exactly, then numerically for the truncation.
"""

from fractions import Fraction as F

from fivevertex import cauchy_infinite_check, cauchy_lhs, cauchy_rhs, grothendieck_sum_check
from fivevertex.identities import grothendieck_sum_det
from fivevertex.partitions import enumerate_box
from fivevertex.symfunc import grothendieck_eval

M, N = 6, 2
z = [F(2, 3), F(5, 7)]
y = [F(3, 5), F(7, 9)]
beta = F(3, 11)

lhs = cauchy_lhs(M, N, z, y, beta)
rhs = cauchy_rhs(M, N, z, y, beta)
print(f"Cauchy identity over the {M - N}^{N} box at beta={beta}:")
print("  sum side      =", lhs)
print("  determinant   =", rhs)
print("  exactly equal =", lhs == rhs)

print("\nSchur limit beta=0 equal:",
      cauchy_lhs(M, N, z, y, 0) == cauchy_rhs(M, N, z, y, 0))

report = cauchy_infinite_check(2, [F(1, 3), F(1, 4)], [F(1, 2), F(2, 5)], F(1, 6), M_max=40)
print("\nM -> infinity truncation: distance to the product form")
for m in (5, 10, 20, 40):
    print(f"  box {m}^2: {report['distances'][m - 1]:.3e}")
print("  converged below 1e-10:", report["converged"])

print("\nweighted box sums (determinant forms vs enumeration):")
print("  primal:", grothendieck_sum_check(M, N, z, beta))
print("  dual:  ", grothendieck_sum_check(M, N, z, beta, dual=True))
print("  primal at coincident z = (a, a):", grothendieck_sum_check(M, N, [z[0], z[0]], beta))
direct = sum((-beta) ** lam.weight * grothendieck_eval(lam, z, beta)
             for lam in enumerate_box(M - N, N))
print("  weighted sum value:", direct, "=", grothendieck_sum_det(M, N, z, beta))
