"""Exact tau-function machinery for the vector k-constrained KP hierarchy.

Construction from Grassmannian or matrix data, verification through
bilinear residues and fermionic pairings, and Lax-side dressing checks,
all over exact rational arithmetic.
"""

from .mpoly import MPoly, PolyError, divexact, format_rat, parse_rat
from .zseries import ExactnessError, ZSeries
from .ratfun import TauFrac, TauRing
from .schur import (ChargedPoly, DomainError, Partition, bilinear_window,
                    elementary_schur, hall_product, miwa_shift,
                    schur_expand, schur_of_partition, xi_series)
from .fock import (FockVector, MayaState, WindowMatrix, alpha,
                   apply_window_matrix, fermionic_pairing, poly_to_fock,
                   psi_minus, psi_plus, r_matrix_unit, shift_charge,
                   sigma_map, wedge_vector)
from .grassmann import (GrPoint, GrassmannError, companions,
                        dtk_decomposition, generate_from_matrix,
                        grpoint_from_window_matrix, reduce_point,
                        stable_subspace, tau_of)
from .hirota import (BilinearReport, fermionic_bilinear_check,
                     identity_family, kp_residue, tensor_to_poly,
                     verify_suite)
from .psdo import DressingPair, PsiDO, dress_from_tau, verify_lax

__version__ = "0.1.0"
