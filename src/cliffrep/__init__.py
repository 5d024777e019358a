"""cliffrep: exact linear representations of generalized Clifford algebras.

Construct, verify, compare and certify pencils (A_0..A_n) with
(sum_i y_i A_i)^d = f * I over QQ or GF(p), and certify the Ulrich-style
behavior of their cokernel modules on the hypersurface f = 0.
"""

from .clifford import (CliffordRep, DetFactorization, EquivalenceResult,
                       IrreducibilityResult, RelationCertificate, conjugate,
                       det_factorization, direct_sum, equivalence_test,
                       hom_space_dim, intertwiner_basis, irreducibility_check,
                       specialize_rep, twist_by_free, verify_relation)
from .constructors import (SearchHit, SplitBinaryForm, block_from_mf,
                           clock_shift_rep, cyclic_block_rep,
                           diagonal_coefficients, gamma_quadric_rep,
                           gamma_quadric_rep_from_form, hyperplane_rep,
                           random_search, split_binary_roots)
from .documents import (load_pencil_document, pencil_document, read_pencil,
                        save_pencil)
from .fields import Field, parse_field, prime_field, rationals
from .parsing import parse_poly
from .pencil import (LinearPencil, MFPair, MFReport, assemble, extract,
                     mf_verify, pencil_power, specialize)
from .poly import Poly, PolyRing
from .polymat import (adjugate, block_diagonal, identity_matrix, mat_eq,
                      mat_mul, poly_matrix_det, scalar_matrix,
                      zero_matrix)
from .ulrich import (CertificateConfig, CorankSummary, GradedCokernel,
                     UlrichCertificate, corank_sampling, expected_hilbert,
                     fitting_exponent, hilbert_function,
                     hypersurface_twist_cohomology, pn_line_bundle_cohomology,
                     reduce_rep_mod_prime, trivial_bundle_fiber_ulrich,
                     ulrich_certificate)

__version__ = "0.1.0"
