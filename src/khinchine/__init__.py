"""Exponential-moment and Grand Lebesgue norms of random variables,
generalized Khintchine constant estimation, and desk-scale verification of
the related concentration inequalities.

Public names resolve on first use from their submodule, so `import
khinchine` imports no numpy and `khinchine.cli` sets its thread policy first."""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("distributions", "Distribution parse_distribution"),
    ("genfun", "ConjugateProfile ConvClassResult DomainError GeneratingFunction "
     "LegendreResult PsiFunction biconjugate conjugate_profile conv_r_class kappa "
     "kappa_profile legendre orlicz_n overline_phi parse_phi phi_inverse "
     "phi_membership_report phi_natural phi_power phi_subgaussian phi_tabulated "
     "psi_from_phi tail_envelope"),
    ("norms", "CoefficientVector EngineRefusal NormEstimate bphi_norm bphi_norms gls_norm "
     "sum_distribution sum_lp_norms weighted_sum_bphi weighted_sum_gls weighted_sum_lp"),
    ("search", "KhinchineEstimate NormSpec khinchine_inf khinchine_sup prelim_bounds"),
    ("verify", "C_R PreconditionError pythagoras_check rosenthal_c rosenthal_psi "
     "rosenthal_verify tail_compare verify_thm31 verify_thm32 verify_thm41 verify_thm51"),
    ("entropy", "EntropyProfile FieldModel FiniteMetricSpace covering_number "
     "dudley_integral entropy_profile field_sup_stats load_space"),
) for name in names.split()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
