"""Exponential-moment and Grand Lebesgue norms of random variables,
generalized Khintchine constant estimation, and desk-scale verification of
the related concentration inequalities."""

__version__ = "0.1.0"

from .distributions import Distribution, parse_distribution
from .genfun import (ConjugateProfile, ConvClassResult, DomainError,
                     GeneratingFunction, LegendreResult, PsiFunction,
                     biconjugate, conjugate_profile, conv_r_class, kappa,
                     kappa_profile, legendre, orlicz_n, overline_phi,
                     parse_phi, phi_inverse, phi_membership_report,
                     phi_natural, phi_power, phi_subgaussian, phi_tabulated,
                     psi_from_phi, tail_envelope)
from .norms import (CoefficientVector, EngineRefusal, NormEstimate, bphi_norm,
                    bphi_norms, gls_norm, sum_distribution, sum_lp_norms,
                    weighted_sum_bphi, weighted_sum_gls, weighted_sum_lp)
from .search import (KhinchineEstimate, NormSpec, khinchine_inf,
                     khinchine_sup, prelim_bounds)
from .verify import (C_R, PreconditionError, pythagoras_check,
                     rosenthal_c, rosenthal_psi, rosenthal_verify,
                     tail_compare, verify_thm31, verify_thm32, verify_thm41,
                     verify_thm51)
from .entropy import (EntropyProfile, FieldModel, FiniteMetricSpace,
                      covering_number, dudley_integral, entropy_profile,
                      field_sup_stats, load_space)
