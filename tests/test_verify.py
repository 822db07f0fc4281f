import math

import numpy as np
import pytest

from khinchine.distributions import Distribution
from khinchine.genfun import (PsiFunction, phi_natural, phi_power,
                              phi_subgaussian, phi_tabulated)
from khinchine.norms import CoefficientVector
from khinchine.verify import (C_R, PreconditionError, pythagoras_check,
                              rosenthal_c, rosenthal_psi, rosenthal_verify,
                              tail_compare, verify_thm31, verify_thm32,
                              verify_thm41, verify_thm51)

RAD = Distribution.rademacher()
G1 = Distribution.gaussian(1.0)
CPOIS = Distribution.centered_poisson(1.0)
SPOIS = Distribution.symmetrized_poisson(0.5)
UNIF3 = Distribution.uniform_symmetric(math.sqrt(3.0))
PHI2 = phi_subgaussian()


# ---------------------------------------------------------------------------
# exact-constant suite
# ---------------------------------------------------------------------------

def test_thm31_rademacher_subgaussian():
    rep = verify_thm31(RAD, PHI2, trials=300, seed=7)
    assert rep["pass"]
    assert rep["tau"] == pytest.approx(1.0, abs=1e-6)
    assert rep["min_log_slack"] >= -1e-9


def test_thm31_gaussian_equality():
    rep = verify_thm31(G1, PHI2, trials=300, seed=7)
    assert rep["pass"]
    # the Gaussian MGF meets its envelope exactly, so the slack is FP noise
    assert abs(rep["min_log_slack"]) <= 1e-9


def test_thm31_poisson_natural():
    rep = verify_thm31(CPOIS, phi_natural(CPOIS), trials=300, seed=7)
    assert rep["pass"]


def test_thm31_refuses_non_conv2():
    # perturbed two-point law whose natural function fails the grid test
    skew = Distribution.discrete([-1.0, 2.0], [2 / 3, 1 / 3])
    with pytest.raises(PreconditionError) as exc:
        verify_thm31(skew, phi_natural(RAD), trials=10, seed=0)
    assert exc.value.witness is not None


def test_thm31_deterministic():
    a = verify_thm31(RAD, PHI2, trials=50, seed=3)
    b = verify_thm31(RAD, PHI2, trials=50, seed=3, threads=4)
    assert a == b


# ---------------------------------------------------------------------------
# hat transform through kappa
# ---------------------------------------------------------------------------

def test_thm32_rademacher():
    rep = verify_thm32(RAD, PHI2, trials=100, seed=5, n_max=16, restarts=1)
    assert rep["pass"] and rep["hat_transform_via_kappa"]


# ---------------------------------------------------------------------------
# non-identical laws
# ---------------------------------------------------------------------------

def test_thm41_identical_rademacher_reduces_to_thm31():
    rep = verify_thm41([RAD, RAD], [PHI2, PHI2], trials=150, seed=2,
                       n_max=16, restarts=1)
    assert rep["pass"]


def test_thm41_mixed_natural():
    rep = verify_thm41([RAD, UNIF3], [phi_natural(RAD), phi_natural(UNIF3)],
                       trials=150, seed=2, n_max=16, restarts=1)
    assert rep["pass"]
    assert rep["kappa_membership"]["nondecreasing_on_grid"]


def test_thm41_refuses_dominance_violation():
    # a generating function deliberately below the log-MGF
    low = phi_tabulated([0.0, 1e-6, 1000.0], [0.0, 1e-13, 1.0])
    with pytest.raises(PreconditionError, match="dominate"):
        verify_thm41([RAD, RAD], [PHI2, low], trials=10, seed=0, n_max=4)


def test_thm41_domination_check_sees_past_the_overflow():
    # both sides are inf past lambda ~ 710 on the default grid: inf - inf is
    # equal sides, and the points below still show that natural(Poisson(0.5))
    # lies under Poisson(1)'s log-MGF
    with pytest.raises(PreconditionError, match="dominate") as exc:
        verify_thm41([CPOIS], [phi_natural(Distribution.centered_poisson(0.5))],
                     trials=5, seed=0, n_max=4)
    assert exc.value.witness["gap"] < 0
    # a natural phi equals its law's log-MGF, inf past the overflow included
    rep = verify_thm41([RAD, CPOIS, UNIF3], [phi_natural(d) for d in (RAD, CPOIS, UNIF3)],
                       trials=5, seed=4, n_max=7, restarts=1)
    assert rep["pass"]


def test_thm41_domination_check_fails_on_nan():
    # a log-MGF that is NaN past lambda = 10 and 0 below: only the NaN fails
    log_mgf = staticmethod(lambda lam: np.where(np.abs(lam) > 10, np.nan, 0.0))
    broken = type("Broken", (), {"log_mgf": log_mgf, "two_sided_log_mgf": log_mgf,
                                 "label": "broken"})()
    with pytest.raises(PreconditionError, match="dominate") as exc:
        verify_thm41([broken], [PHI2], trials=1, seed=0, n_max=2)
    assert math.isnan(exc.value.witness["gap"]) and exc.value.witness["lambda"] > 10


# ---------------------------------------------------------------------------
# Rosenthal
# ---------------------------------------------------------------------------

def test_rosenthal_constant_values():
    assert C_R == 1.776379
    assert rosenthal_c(4.0) == pytest.approx(1.776379 * 4 / (math.e * math.log(4.0)), rel=1e-15)
    assert rosenthal_c(2.0) == pytest.approx(1.776379 * 2 / (math.e * math.log(2.0)), rel=1e-15)
    with pytest.raises(ValueError):
        rosenthal_c(1.5)


def test_rosenthal_poisson_equal_16():
    rep = rosenthal_verify(CPOIS, 4.0, CoefficientVector.equal(16))
    # central fourth moment identity: mu4(Poisson(16)) = 16 + 3*256, scaled
    oracle = ((16.0 + 3.0 * 256.0) / 16.0**2) ** 0.25
    assert rep["lhs"] == pytest.approx(oracle, rel=1e-10)
    assert rep["lhs"] == pytest.approx((3.0 + 1.0 / 16.0) ** 0.25, rel=1e-10)
    assert rep["c_of_p"] == pytest.approx(1.8855831262, rel=1e-9)
    assert rep["pass"]


def test_rosenthal_rademacher_p2():
    rep = rosenthal_verify(RAD, 2.0, CoefficientVector.equal(5))
    assert rep["lhs"] == pytest.approx(1.0, rel=1e-12)
    assert rep["c_of_p"] >= 1.0
    assert rep["pass"]


def test_rosenthal_symmetrized_poisson_one_hot():
    rep = rosenthal_verify(SPOIS, 6.0, CoefficientVector.one_hot(1))
    # one-hot sum is the variable itself: E|X|^6 = 31 from the cumulants
    assert rep["lhs"] == pytest.approx(31.0 ** (1 / 6), rel=1e-9)
    assert rep["pass"]


def test_thm51_sweep():
    for d in (CPOIS, SPOIS):
        rep = verify_thm51(d, p_values=(2.0, 4.0, 6.0, 8.0), n_values=(4, 16, 64))
        assert rep["pass"], rep


def test_rosenthal_psi_scaling():
    psi = PsiFunction.sqrt_p(np.arange(2.0, 9.0))
    psir = rosenthal_psi(psi)
    assert psir.provenance == "rosenthal_scaled"
    k = 2
    p = float(psi.p_grid[k])
    assert psir.values[k] == pytest.approx(rosenthal_c(p) * psi.values[k], rel=1e-14)


# ---------------------------------------------------------------------------
# Pythagoras inequality
# ---------------------------------------------------------------------------

def test_pythagoras_two_rademacher():
    rep = pythagoras_check(PHI2, laws=[RAD], trials=40, seed=1)
    assert rep["pass"]
    assert rep["max_violation"] <= 1e-9


def test_pythagoras_gaussian_equality():
    rep = pythagoras_check(PHI2, laws=[G1, Distribution.gaussian(0.7)],
                           trials=40, seed=2)
    assert rep["pass"]
    assert rep["max_gaussian_equality_deviation"] <= 1e-9


def test_pythagoras_refuses_non_conv2():
    with pytest.raises(PreconditionError):
        pythagoras_check(phi_natural(RAD), trials=5, seed=0)


def test_pythagoras_strict_case():
    # spiky law whose subgaussian norm exceeds its standard deviation makes
    # the inequality strict: check it is still satisfied, not saturated
    spiky = Distribution.discrete([-3.0, 0.0, 3.0], [1 / 18, 16 / 18, 1 / 18])
    rep = pythagoras_check(PHI2, laws=[spiky], trials=25, seed=4)
    assert rep["pass"]


# ---------------------------------------------------------------------------
# tail comparison
# ---------------------------------------------------------------------------

def test_tail_rademacher_equal_20():
    rep = tail_compare(RAD, CoefficientVector.equal(20), PHI2)
    assert rep["pass"]
    assert rep["tau"] == pytest.approx(1.0, abs=1e-6)
    by_u = {r["u"]: r for r in rep["rows"]}
    assert by_u[2.0]["envelope"] == pytest.approx(math.exp(-2.0), rel=1e-6)
    # exact enumeration of the binomial tail
    assert by_u[2.0]["survival"] == pytest.approx(0.020694732666015625, rel=1e-12)
    assert by_u[2.0]["survival_se"] == 0.0


def test_tail_gaussian_direct():
    rep = tail_compare(G1, CoefficientVector.one_hot(1), PHI2)
    assert rep["pass"]
    by_u = {r["u"]: r for r in rep["rows"]}
    assert by_u[3.0]["envelope"] == pytest.approx(math.exp(-4.5), rel=1e-6)
    assert by_u[3.0]["survival"] == pytest.approx(0.5 * math.erfc(3 / math.sqrt(2)), rel=1e-12)


def test_tail_zero_threshold_is_trivial():
    rep = tail_compare(RAD, CoefficientVector.equal(4), PHI2, u_grid=(0.0, 1.0))
    assert rep["rows"][0]["envelope"] == 1.0
    assert rep["pass"]


def test_tail_monte_carlo_path():
    rep = tail_compare(UNIF3, CoefficientVector.equal(3), PHI2,
                       u_grid=(0.5, 1.5), samples=50_000, seed=8)
    assert rep["pass"]
    assert all(r["method"] == "monte_carlo" for r in rep["rows"])
    assert all(r["survival_se"] > 0 for r in rep["rows"])


def test_tail_reports_fitted_constant():
    rep = tail_compare(RAD, CoefficientVector.equal(10), PHI2)
    assert rep["fitted_tail_constant"] > 0
    assert rep["tail_exponent"] == 2.0
