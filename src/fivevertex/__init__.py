"""Integrable five-vertex models, Grothendieck polynomials and exact TASEP dynamics.

A computational engine for the determinant structures of a one-parameter
family of five-vertex models: wavefunction and scalar-product determinants,
the Grothendieck-polynomial dictionary with its deformed Cauchy identity,
summation and orthogonality formulas, and the exact relaxation dynamics of
the periodic TASEP; every formula is verifiable against brute-force oracles
(sector operators, box enumeration, master-equation exponentials).
"""

from .linalg import Matrix, det
from .partitions import (ParticleConfiguration, Partition, config_to_partition, enumerate_box,
                         partition_to_config)
from .scalarprod import (IntermediateSpec, domain_wall_value, intermediate_scalar_det,
                         norm_det, recursion_check, scalar_product_det)
from .sector import (ModelParameters, SectorOperator, bethe_residual, bethe_state,
                     build_monodromy_element, commutation_checks, dual_bethe_state,
                     hamiltonian, rtt_check, sector_basis, transfer_commute,
                     transfer_eigenvalue, transfer_matrix)
from .symfunc import dual_grothendieck_eval, grothendieck_eval, schur_eval
from .identities import (cauchy_infinite_check, cauchy_lhs, cauchy_rhs,
                         grothendieck_sum_check, orthogonality_check, orthogonality_matrix)
from .tasep import (BetheSolution, GreenQuery, SectorState, Spectrum, bethe_solve, expectation,
                    form_factor_sum, green_function, green_function_table, master_oracle,
                    sum_rule_check)
from .vertex import (VertexWeights, appendix_a_family_check, l_matrix, l_weights,
                     r_matrix, rll_check, rtilde_check, rtilde_matrix, ybe_check)
from .wavefunc import (MatrixProductState, dual_wavefunction_det, dual_wavefunction_sum,
                       matrix_product_build, wavefunction_det, wavefunction_dets,
                       wavefunction_sum, wavefunction_trace)

__version__ = "0.1.0"
