"""Exact evaluation of the prime-smoothed Eisenstein cocycle on GL_n(Q),
its specialization to partial zeta values of totally real fields at
nonpositive integers, and the associated p-adic measures, zeta functions,
and order-of-vanishing integrals.

All arithmetic is exact: rationals, integer matrices, cyclotomic elements
in prime-conductor fields, real-algebraic numbers with certified signs,
and precision-tracked p-adic residues.
"""

from .exact import (DegreeError, MultiPoly, NotHomogeneous, SingularMatrix,
                    coset_reps, hnf, lattice_hnf, mat_det, mat_inv, mat_mul,
                    resultant_norm, snf)
from .cyclotomic import CycloElement, MismatchedField
from .bernoulli import B_e, B_e_Q, B_e_Q_plus, bernoulli_poly, periodic_B
from .dedekind import (DedekindCache, LinearFormModL, LinearForms,
                       ShapeError, b1_L_z_fast, b_L_z_direct, d_ell, d_plus)
from .cocycle import (CocycleArgs, CocycleChain, GammaEllMatrix, bar_tuple,
                      module_action, pr_coefficients, psi_ell, psi_ell_chain,
                      symmetrized_chain)
from .numberfield import (DependentUnits, FieldElement, Ideal, IndexDivisor,
                          IndexNotPrime, NoDegreeOnePrime, NotFoundWithinBound,
                          NotIrreducible, NotMonic, NotTotallyReal,
                          NumberField, SingularGram, UnitsRequired, ZeroIdeal,
                          adapted_basis, dual_basis, prime_over,
                          totally_positive_generator,
                          totally_positive_unit, unit_basis)
from .zeta import (ChainDegenerate, CrossCheckFailure, MissingClassData,
                   ZetaData, build_zeta_data, combine_smoothing, norm_form,
                   zeta_minus_k, zeta_star_minus_k)
from .padic import (L_assemble, MeasureHandle, PadicInt, PrecisionExhausted,
                    Region, agreement_precision, integrate_poly, iwasawa_log,
                    oov_integrals, padic_zeta, padic_zeta_weight,
                    padic_zetas, region_b_units, region_box, region_oov,
                    region_units, teichmuller)

__version__ = "0.1.0"
