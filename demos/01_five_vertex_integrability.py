"""The integrable structure of the one-parameter five-vertex family.

The local L-operator has five nonzero weights (u, 1, 1, alpha*u - 1/u,
alpha*u).  This script checks the RLL relation and the Yang-Baxter equation
in exact rational arithmetic, builds monodromy operators on particle-number
sectors, and recovers the TASEP generator from the transfer matrix's
logarithmic derivative.
"""

from fractions import Fraction as F

from fivevertex import (ModelParameters, commutation_checks, hamiltonian, l_weights,
                        rll_check, transfer_matrix, ybe_check)

alpha = F(3, 4)
u, v, w = F(2, 3), F(5, 7), F(9, 5)

print("five-vertex weights at u=2/3:", l_weights(u, alpha))
print("RLL relation (exact):", rll_check(u, v, alpha))
print("Yang-Baxter equation (exact):", ybe_check(u, v, w))
print("  ... and at the four-vertex point alpha=0:", rll_check(u, v, F(0)))

# Commuting transfer matrices on a 5-site ring, every sector
params = ModelParameters(alpha=alpha, M=5)
all_commute = True
for n in range(6):
    t_u = transfer_matrix(u, params, n)
    t_v = transfer_matrix(v, params, n)
    all_commute = all_commute and (t_u * t_v == t_v * t_u)
print("[tau(u), tau(v)] = 0 on every sector:", all_commute)

print("monodromy exchange relations on the 2-particle sector:",
      commutation_checks(u, v, params, 2))

# At alpha = 1 the Hamiltonian is the TASEP generator: columns sum to zero
gen = hamiltonian(ModelParameters(alpha=1, M=5), 2)
col_sums = [sum(gen.data[r][c] for r in range(len(gen.data)))
            for c in range(len(gen.data))]
print("alpha=1 generator column sums:", col_sums)
