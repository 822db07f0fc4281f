import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from khinchine import distributions, norms
from khinchine.distributions import Distribution
from khinchine.genfun import (PsiFunction, phi_natural, phi_power, phi_subgaussian,
                              phi_tabulated)
from khinchine.norms import (CoefficientVector, EngineRefusal, NormEstimate,
                             bphi_norm, bphi_norms, gls_norm, sum_distribution,
                             weighted_sum_bphi, weighted_sum_gls,
                             weighted_sum_lp)

RAD = Distribution.rademacher()
G1 = Distribution.gaussian(1.0)
CPOIS = Distribution.centered_poisson(1.0)
SPOIS = Distribution.symmetrized_poisson(0.5)
SYM_DISCRETE = Distribution.discrete([-2.0, -0.5, 0.0, 0.5, 2.0],
                                     [0.1, 0.25, 0.3, 0.25, 0.1])
PHI2 = phi_subgaussian()


# ---------------------------------------------------------------------------
# coefficient vectors
# ---------------------------------------------------------------------------

def test_coefficient_vector_unit_norm_enforced():
    with pytest.raises(ValueError, match="unit"):
        CoefficientVector(np.array([1.0, 1.0]))
    for bad in ([1.0, np.nan], [np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="unit"):
            CoefficientVector(np.array(bad))
        with pytest.raises(ValueError, match="non-finite"):
            CoefficientVector.normalized(bad)
    a = CoefficientVector.normalized([3.0, 4.0])
    assert a.entries == pytest.approx([0.6, 0.8])


@pytest.mark.parametrize("scale", [1e300, 1e-320, 1e-200, 1e200])
def test_normalized_scales_only_where_the_sum_of_squares_leaves_the_range(scale):
    # squares of 1e300 and 1e200 overflow and of 1e-320 and 1e-200 underflow,
    # so those vectors are scaled by max |v| first; every vector whose sum of
    # squares stays in range keeps the bits of v / |v|
    v = np.array([scale, -2.0 * scale])
    assert np.array_equal(CoefficientVector.normalized(v).entries,
                          np.array([1.0, -2.0]) / math.sqrt(5.0))
    for w in ([3.0, 4.0], [1e-150, 3e-150], [0.1, 0.2, 0.3]):
        w = np.array(w)
        assert np.array_equal(CoefficientVector.normalized(w).entries,
                              w / math.sqrt(float(np.dot(w, w))))


def test_lp_norm_bounded_by_one_for_p_ge_2():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = CoefficientVector.random_sphere(int(rng.integers(1, 12)), rng)
        for p in (2.0, 3.0, 6.0):
            assert a.lp_norm(p) <= 1.0 + 1e-12


def test_norm_estimate_ci_contract():
    with pytest.raises(ValueError):
        NormEstimate(1.0, "exact_enum", ci_halfwidth=0.1)


# ---------------------------------------------------------------------------
# exponential-moment norm
# ---------------------------------------------------------------------------

def test_bphi_rademacher_subgaussian_is_one():
    est = bphi_norm(RAD, PHI2)
    assert est.method == "grid_sup" and est.ci_halfwidth == 0.0
    assert est.value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
def test_bphi_gaussian_exact(sigma):
    est = bphi_norm(Distribution.gaussian(sigma), PHI2)
    assert est.value == pytest.approx(sigma, abs=1e-9)


def test_bphi_natural_of_itself_is_one():
    est = bphi_norm(CPOIS, phi_natural(CPOIS))
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_bphi_homogeneity_via_discrete_rescaling():
    base = Distribution.discrete([-2.0, -1.0, 1.0, 2.0], [0.1, 0.4, 0.4, 0.1])
    v0 = bphi_norm(base, PHI2).value
    for c in (0.25, 3.0):
        scaled = Distribution.discrete(base.support * c, base.probs)
        assert bphi_norm(scaled, PHI2).value == pytest.approx(c * v0, rel=1e-9)


@pytest.mark.parametrize("d", [RAD, G1, Distribution.uniform_symmetric(2.0),
                               Distribution.discrete([-3.0, 0.0, 3.0], [1 / 18, 16 / 18, 1 / 18])],
                         ids=["rad", "gauss", "unif", "spiky"])
def test_key_inequality_holds_at_returned_norm(d):
    est = bphi_norm(d, PHI2)
    tau = est.value
    grid = np.geomspace(1e-4, 1e3, 200)
    lhs = np.maximum(d.log_mgf(grid), d.log_mgf(-grid))
    rhs = PHI2(grid * tau)
    assert float(np.min(rhs - lhs)) >= -1e-9


def test_bphi_spiky_law_exceeds_sigma():
    # heavy atoms at +-3 make the MGF cross exp(lam^2/2), so the subgaussian
    # norm is strictly above the standard deviation
    d = Distribution.discrete([-3.0, 0.0, 3.0], [1 / 18, 16 / 18, 1 / 18])
    assert d.variance == pytest.approx(1.0)
    assert bphi_norm(d, PHI2).value > 1.05


# ---------------------------------------------------------------------------
# weighted-sum L_p engines
# ---------------------------------------------------------------------------

def test_two_term_enumeration_oracle():
    # 4 sign patterns by hand: E S^4 = 2 at equal weights
    a = CoefficientVector.equal(2)
    pats = [(s1 / math.sqrt(2) + s2 / math.sqrt(2)) ** 4
            for s1, s2 in itertools.product((-1, 1), repeat=2)]
    assert sum(pats) / 4 == pytest.approx(2.0, rel=1e-14)
    est = weighted_sum_lp(RAD, a, 4.0, engine="exact_enum")
    assert est.value == pytest.approx(2.0**0.25, rel=1e-13)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_equal_weight_multinomial_identity(n):
    a = CoefficientVector.equal(n)
    oracle = (3.0 - 2.0 * float(np.sum(a.entries**4))) ** 0.25
    enum = weighted_sum_lp(RAD, a, 4.0, engine="exact_enum").value
    conv = weighted_sum_lp(RAD, a, 4.0, engine="convolution").value
    assert enum == pytest.approx(oracle, abs=1e-12)
    assert abs(enum - conv) <= 1e-12


def test_single_term_is_l2_norm():
    a = CoefficientVector.one_hot(1)
    for d in (RAD, CPOIS, Distribution.symmetrized_poisson(0.5)):
        est = weighted_sum_lp(d, a, 2.0)
        assert est.value == pytest.approx(math.sqrt(d.variance), rel=1e-9)


def test_engine_agreement_random_vectors():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = CoefficientVector.random_sphere(n, rng)
        p = float(rng.uniform(1.5, 6.0))
        e1 = weighted_sum_lp(RAD, a, p, engine="exact_enum").value
        e2 = weighted_sum_lp(RAD, a, p, engine="convolution").value
        assert abs(e1 - e2) <= 1e-12 * max(1.0, e1)


@pytest.mark.parametrize("d", [Distribution.centered_poisson(0.7), SPOIS,
                               Distribution.discrete([-1.0, 0.2, 0.3], [0.2, 0.4, 0.4])],
                         ids=["centered_poisson", "symmetrized_poisson", "skew_discrete"])
def test_convolution_matches_enumeration_off_the_dyadic_laws(d):
    # probabilities that are not powers of two: the convolution's supports
    # may round differently from the enumeration's, within 1e-13 relative
    for w in ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [0.3, 1.0]):
        a = CoefficientVector.normalized(w)
        for p in (1.5, 2.5, 3.0):
            enum = weighted_sum_lp(d, a, p, engine="exact_enum").value
            conv = weighted_sum_lp(d, a, p, engine="convolution").value
            assert abs(conv - enum) <= 1e-13 * enum


def test_monte_carlo_agrees_within_band():
    a = CoefficientVector.equal(4)
    exact = weighted_sum_lp(RAD, a, 4.0, engine="exact_enum").value
    mc = weighted_sum_lp(RAD, a, 4.0, engine="monte_carlo", budget=10**6, seed=5)
    assert mc.ci_halfwidth > 0
    assert abs(mc.value - exact) <= mc.ci_halfwidth


def test_monte_carlo_thread_count_invariance():
    a = CoefficientVector.equal(6)
    one = weighted_sum_lp(CPOIS, a, 3.0, engine="monte_carlo", budget=200_000,
                          seed=9, threads=1)
    four = weighted_sum_lp(CPOIS, a, 3.0, engine="monte_carlo", budget=200_000,
                           seed=9, threads=4)
    assert one.value == four.value and one.ci_halfwidth == four.ci_halfwidth


def test_enum_refusal_directs_to_alternatives():
    a = CoefficientVector.equal(40)
    with pytest.raises(EngineRefusal, match="convolution or monte_carlo"):
        weighted_sum_lp(RAD, a, 4.0, engine="exact_enum")


def test_convolution_refusal_on_nonlattice_blowup():
    rng = np.random.default_rng(3)
    a = CoefficientVector.random_sphere(40, rng)
    with pytest.raises(EngineRefusal, match="monte_carlo"):
        weighted_sum_lp(RAD, a, 4.0, engine="convolution")


def test_continuous_law_refuses_exact_engines():
    a = CoefficientVector.equal(2)
    with pytest.raises(EngineRefusal):
        weighted_sum_lp(Distribution.uniform_symmetric(1.0), a, 2.0, engine="exact_enum")


def test_gaussian_auto_uses_closed_reduction():
    est = weighted_sum_lp(G1, CoefficientVector.equal(5), 4.0)
    assert est.method == "quadrature"
    assert est.value == pytest.approx(3.0**0.25, rel=1e-9)


def test_lyapunov_in_p_for_fixed_sum():
    a = CoefficientVector.equal(6)
    norms = [weighted_sum_lp(RAD, a, p).value for p in (1.0, 2.0, 3.0, 4.0, 6.0)]
    assert all(norms[i] <= norms[i + 1] + 1e-12 for i in range(len(norms) - 1))


def test_odd_moments_vanish_for_symmetric_laws():
    for d in (RAD, Distribution.symmetrized_poisson(0.5)):
        for n in (3, 5):
            a = CoefficientVector.equal(n)
            vals, probs, _ = sum_distribution(d, a)
            for k in (1, 3, 5):
                signed = math.fsum(p * v**k for v, p in zip(vals, probs))
                assert abs(signed) <= 1e-14


def _decimal_lp(values, probs, p):
    """(sum probs |v|^p)^(1/p) in 60-digit decimal arithmetic, which has no
    overflow, on the exact values of the floats given."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        m = sum(decimal.Decimal(float(q)) * abs(decimal.Decimal(float(v))) ** int(p)
                for v, q in zip(values, probs))
        return float(m ** (decimal.Decimal(1) / decimal.Decimal(int(p))))


def test_lattice_norms_past_the_moment_overflow_match_a_decimal_reference():
    # sum_k p_k |v_k|^p leaves the double range past p ~ 250 on Poisson(1)'s
    # support, where the norm itself is about 13
    v, pr = CPOIS.finite_support()
    for p in (263.0, 320.0, 400.0, 1000.0):
        assert CPOIS.abs_moment(p) == math.inf
        assert CPOIS.lp_norm(p) == pytest.approx(_decimal_lp(v, pr, p), rel=1e-13)
    one = weighted_sum_lp(CPOIS, CoefficientVector.equal(1), 320.0)
    assert one.value == pytest.approx(_decimal_lp(v, pr, 320.0), rel=1e-13)
    assert one.value == pytest.approx(13.586486, rel=1e-7)
    a = CoefficientVector.equal(2)
    psi = PsiFunction.sqrt_p(np.arange(2.0, 401.0))
    for engine in ("convolution", "exact_enum"):
        sv, sp, _ = sum_distribution(CPOIS, a, engine)
        est = weighted_sum_lp(CPOIS, a, 400.0, engine=engine)
        assert est.meta["moment"] == math.inf
        assert est.value == pytest.approx(_decimal_lp(sv, sp, 400.0), rel=1e-13)
        # the sup over p (at 121) sits in the finite-moment range, with its bits
        low = weighted_sum_gls(CPOIS, a, PsiFunction.sqrt_p(np.arange(2.0, 201.0)), engine)
        high = weighted_sum_gls(CPOIS, a, psi, engine)
        assert (high.value, high.meta) == (low.value, low.meta)
        assert high.meta["attained_p"] == 121.0
    # below the overflow the plain root keeps its bits
    for p in (3.0, 61.0, 200.0):
        assert CPOIS.lp_norm(p) == CPOIS.abs_moment(p) ** (1.0 / p)
    gls = gls_norm(CPOIS, psi)
    assert (gls.value, gls.meta["attained_p"]) == (1.1473598651863453, 61.0)


def test_even_moment_overflow_falls_through_to_the_support():
    # E X^p of symmetrized Poisson(0.5) leaves the double range near p = 278,
    # the moments of a sum of two copies earlier: auto takes the convolution
    for n, want in ((2, 15.031836525094892), (1, 11.767668651335676)):
        a = CoefficientVector.equal(n)
        sv, sp, _ = sum_distribution(SPOIS, a, "convolution")
        auto = weighted_sum_lp(SPOIS, a, 320.0)
        conv = weighted_sum_lp(SPOIS, a, 320.0, engine="convolution")
        assert (auto.value, auto.method, auto.meta) == (conv.value, conv.method, conv.meta)
        assert auto.value == want
        assert auto.value == pytest.approx(_decimal_lp(sv, sp, 320.0), rel=1e-13)
    # a grid of even p all past the overflow point, and one below it
    a = CoefficientVector.equal(2)
    est = weighted_sum_gls(SPOIS, a, PsiFunction.sqrt_p(np.arange(2.0, 401.0, 2.0)))
    assert est.method == "convolution" and math.isfinite(est.value)
    # where every moment is finite, the recursion keeps its path and bits
    for p in (8.0, 200.0):
        mom = weighted_sum_lp(SPOIS, a, p)
        assert mom.method == "even_moments"
        assert mom.meta["moment"] == norms.even_sum_moments(SPOIS, a.entries, [p])[-1]


def test_even_moment_overflow_in_a_fold_takes_the_convolution_fold():
    # E X^320 of symmetrized Poisson(0.5) is past the double range: a trial
    # at coordinate 1 passes from the even-moment fold, which refused it, to
    # the convolution fold, as the full path passes to the convolution
    for w, budget in (([1.0, 2.0], None), ([1.0, 2.0, 1.5], None), ([1.0, 2.0, 1.5], 64)):
        b = np.array([w]) ** 2 / np.dot(w, w)
        loo = norms.LeaveOneOut(SPOIS, np.ones_like(b), [320.0], budget=budget)
        fold = loo(b, np.array([0]), 1, b[:, 1])[0, 0]
        full = _outcome(lambda: weighted_sum_lp(SPOIS, CoefficientVector.normalized(w), 320.0,
                                                budget=budget))
        assert isinstance(loo.folds["even_moments"], OverflowError)
        if budget is None:
            assert full.method == "convolution"
            assert not loo.laws["convolution"]["U"].refused.any()
            assert abs(fold - full.value) <= 1e-12 * full.value
        else:  # the same enumeration refusal
            assert loo.laws["convolution"]["U"].refused.all()
            assert math.isnan(fold) and "enumeration needs" in full


def _outcome(call):
    """call()'s NormEstimate, or the message of its EngineRefusal."""
    try:
        return call()
    except EngineRefusal as exc:
        return str(exc)


def test_one_term_sum_of_a_continuous_law_is_its_norm():
    # no exact engine builds a uniform law's support; a one-term sum is the
    # law itself scaled by |a_1|
    d = Distribution.uniform_symmetric(1.7)
    est = weighted_sum_lp(d, CoefficientVector.equal(1), 3.0)
    assert (est.value, est.method) == (1.070932892410642, "quadrature")
    assert est.value == d.lp_norm(3.0)
    assert weighted_sum_lp(d, CoefficientVector([-1.0]), 3.0).value == est.value
    for engine in ("convolution", "exact_enum"):
        with pytest.raises(EngineRefusal):
            weighted_sum_lp(d, CoefficientVector.equal(1), 3.0, engine=engine)
    with pytest.raises(EngineRefusal):
        weighted_sum_lp(d, CoefficientVector.equal(2), 3.0)


def test_sum_lp_norms_rows_are_the_one_p_calls():
    # a row's path is the grid's (auto takes even moments only when every p
    # is even), so rows match one-p calls where the grid picks the same path
    a = CoefficientVector.normalized([1.0, 2.0, 2.0])
    cases = [(d, ps, engine) for d in (RAD, CPOIS, SPOIS)
             for ps, engine in (([1.0, 2.0, 3.5, 4.0, 9.0], "convolution"),
                                ([1.0, 2.0, 3.5, 4.0, 9.0], "exact_enum"),
                                ([2.0, 4.0, 8.0], "auto"))]
    for d, ps, engine in cases + [(G1, [1.0, 3.5, 4.0], "auto")]:
        rows = norms.sum_lp_norms(d, a, ps, engine)
        assert [e.to_json() for e in rows] == \
            [weighted_sum_lp(d, a, p, engine).to_json() for p in ps]
    mc = norms.sum_lp_norms(RAD, a, [2.0, 3.0], "monte_carlo", budget=4096, seed=3)
    assert [e.meta["samples"] for e in mc] == [4096, 4096]
    with pytest.raises(ValueError, match="p >= 1"):
        norms.sum_lp_norms(RAD, a, [0.5, 2.0])
    # the closed form is auto's first path, not an engine of its own
    with pytest.raises(ValueError, match="unknown exact engine 'quadrature'"):
        gls_norm(G1, PsiFunction.sqrt_p([2.0, 4.0]), engine="quadrature")


#: one law per catalogue record, the discrete record both symmetric and skewed
CATALOGUE = [RAD, G1, Distribution.gaussian(0.7), CPOIS, SPOIS,
             Distribution.uniform_symmetric(1.7), SYM_DISCRETE,
             Distribution.discrete([-1.0, 0.0, 3.0], [0.6, 0.2, 0.2])]
#: 'lo:hi[:step]' grids as the CLI builds them
P_GRIDS = {"2:64": np.arange(2.0, 64.0 + 1e-9), "1:30:0.5": np.arange(1.0, 30.0 + 1e-9, 0.5),
           "2:400": np.arange(2.0, 400.0 + 1e-9)}


def _per_p_gls_norm(d, psi):
    """The one-copy G(psi) norm as its own loop over ||X||_p (the reference
    the one-term weighted sum must keep): value, attaining p, ||X||_p there."""
    lp = np.array([d.lp_norm(float(p)) for p in psi.p_grid])
    ratio = lp / psi.values
    i = int(np.argmax(ratio))
    return float(ratio[i]), float(psi.p_grid[i]), float(lp[i])


@pytest.mark.parametrize("grid", sorted(P_GRIDS))
@pytest.mark.parametrize("d", CATALOGUE, ids=lambda d: d.label)
def test_gls_norm_is_bitwise_the_per_p_loop(d, grid):
    p = P_GRIDS[grid]
    for psi in (PsiFunction.sqrt_p(p), PsiFunction.p_power(4.0, p)):
        est = gls_norm(d, psi)
        got = (est.value, est.meta["attained_p"], est.meta["lp_at_attained"])
        assert got == _per_p_gls_norm(d, psi)
        assert set(est.meta) == {"attained_p", "lp_at_attained"}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", CATALOGUE, ids=lambda d: d.label)
def test_sum_distribution_and_sum_lp_norms_name_one_method(d, n):
    # at an odd p no engine of auto builds a law that sum_distribution would
    # not; where it refuses, sum_lp_norms refuses or takes a closed form
    a = CoefficientVector.normalized(np.arange(1.0, n + 1.0))
    for engine in ("auto", "convolution", "exact_enum"):
        try:
            method = sum_distribution(d, a, engine)[2]
        except EngineRefusal:
            method = None
        try:
            lp = norms.sum_lp_norms(d, a, [3.0], engine)[0].method
        except EngineRefusal:
            lp = None
        if method is None and lp is not None:
            assert (engine, lp) == ("auto", "quadrature")
        else:
            assert lp == method, (engine, lp, method)


# ---------------------------------------------------------------------------
# even-moment path (auto engine, symmetric law, even integer p)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, n_max", [(RAD, 12), (SPOIS, 3), (SYM_DISCRETE, 6)],
                         ids=["rademacher", "symmetrized_poisson", "discrete"])
def test_even_moments_match_enumeration(d, n_max):
    rng = np.random.default_rng(21)
    for n in range(1, n_max + 1):
        a = CoefficientVector.random_sphere(n, rng)
        for p in (2.0, 4.0, 6.0, 8.0, 16.0):
            mom = weighted_sum_lp(d, a, p)
            enum = weighted_sum_lp(d, a, p, engine="exact_enum")
            assert mom.method == "even_moments"
            assert abs(mom.meta["moment"] - enum.meta["moment"]) <= 1e-13 * enum.meta["moment"]


@pytest.mark.parametrize("d", [RAD, SPOIS, SYM_DISCRETE],
                         ids=["rademacher", "symmetrized_poisson", "discrete"])
def test_three_exact_engines_agree(d):
    # the even-moment recursion, the convolution and the enumeration on the
    # same symmetric law, weights and even p
    for w in ([1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [0.3, 1.0, 0.7, 0.2]):
        a = CoefficientVector.normalized(w)
        ps = [2.0, 4.0, 6.0, 8.0]
        mom, conv, enum = ([e.meta["moment"] for e in norms.sum_lp_norms(d, a, ps, engine)]
                           for engine in ("auto", "convolution", "exact_enum"))
        assert {e.method for e in norms.sum_lp_norms(d, a, ps)} == {"even_moments"}
        for m, c, e in zip(mom, conv, enum):
            assert abs(m - e) <= 1e-13 * e and abs(c - e) <= 1e-13 * e


def test_even_moments_rademacher_fourth_moment_identity():
    rng = np.random.default_rng(5)
    for n in (1, 3, 40, 200):
        a = CoefficientVector.random_sphere(n, rng)
        est = weighted_sum_lp(RAD, a, 4.0)
        oracle = 3.0 - 2.0 * float(np.sum(a.entries**4))
        assert est.method == "even_moments"
        assert est.meta["moment"] == pytest.approx(oracle, rel=1e-14)


def test_even_moments_unit_variance_uniform():
    # E X^4 = b^4 / 5 = 1.8 at b = sqrt(3), so E S^4 = 3 - 1.2 sum a^4
    d = Distribution.uniform_symmetric(math.sqrt(3.0))
    rng = np.random.default_rng(6)
    for n in (1, 4, 64):
        a = CoefficientVector.random_sphere(n, rng)
        est = weighted_sum_lp(d, a, 4.0)
        assert est.method == "even_moments"
        assert est.meta["moment"] == pytest.approx(3.0 - 1.2 * float(np.sum(a.entries**4)),
                                                   rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10),
       st.sampled_from([2.0, 4.0, 6.0, 8.0]))
def test_even_moments_property_vs_enumeration(raw, p):
    assume(math.fsum(x * x for x in raw) > 1e-6)
    a = CoefficientVector.normalized(raw)
    mom = weighted_sum_lp(RAD, a, p).meta["moment"]
    enum = weighted_sum_lp(RAD, a, p, engine="exact_enum").meta["moment"]
    assert abs(mom - enum) <= 1e-12 * enum


def test_even_moments_need_a_symmetric_law_and_the_auto_engine():
    a = CoefficientVector.equal(3)
    assert weighted_sum_lp(CPOIS, a, 4.0).method == "convolution"
    for engine in ("exact_enum", "convolution"):
        est = weighted_sum_lp(RAD, a, 4.0, engine=engine)
        assert est.method == engine and "support_points" in est.meta
    assert weighted_sum_lp(RAD, a, 3.0).method == "convolution"


def test_even_moments_need_no_budget():
    a = CoefficientVector.random_sphere(40, np.random.default_rng(3))
    est = weighted_sum_lp(RAD, a, 4.0, budget=16)
    assert est.method == "even_moments"
    assert est.meta["moment"] == pytest.approx(3.0 - 2.0 * float(np.sum(a.entries**4)),
                                               rel=1e-14)


# ---------------------------------------------------------------------------
# Grand Lebesgue norm
# ---------------------------------------------------------------------------

def test_gls_rademacher_constant_psi():
    psi = PsiFunction(np.arange(2.0, 11.0), np.ones(9))
    est = gls_norm(RAD, psi)
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_gls_gaussian_natural_psi_is_one():
    grid = np.arange(2.0, 65.0)
    psi = PsiFunction.natural(G1, grid)
    assert gls_norm(G1, psi).value == pytest.approx(1.0, rel=1e-12)


def test_gls_gaussian_sqrtp_attained_at_two():
    grid = np.arange(2.0, 65.0)
    est = gls_norm(G1, PsiFunction.sqrt_p(grid))
    assert est.meta["attained_p"] == 2.0
    assert est.value == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    # the ratio ||N||_p / sqrt(p) is decreasing: grid-scan oracle
    ratios = [G1.lp_norm(p) / math.sqrt(p) for p in grid]
    assert all(ratios[i] >= ratios[i + 1] - 1e-12 for i in range(len(ratios) - 1))


def test_gls_consistency_inequality():
    grid = np.arange(2.0, 17.0)
    psi = PsiFunction.sqrt_p(grid)
    for d in (RAD, G1, CPOIS):
        g = gls_norm(d, psi).value
        for p in grid:
            assert d.lp_norm(float(p)) <= float(np.sqrt(p)) * g + 1e-9


def test_weighted_sum_gls():
    grid = np.arange(2.0, 9.0)
    psi = PsiFunction.sqrt_p(grid)
    a = CoefficientVector.equal(4)
    est = weighted_sum_gls(RAD, a, psi)
    oracle = max(weighted_sum_lp(RAD, a, float(p)).value / math.sqrt(p) for p in grid)
    assert est.value == pytest.approx(oracle, rel=1e-12)


def test_weighted_sum_gls_equals_per_p_convolution_bitwise():
    grid = np.arange(2.0, 17.0)
    psi = PsiFunction.sqrt_p(grid)
    rng = np.random.default_rng(8)
    for _ in range(6):
        a = CoefficientVector.random_sphere(int(rng.integers(2, 10)), rng)
        est = weighted_sum_gls(RAD, a, psi)
        ratios = [weighted_sum_lp(RAD, a, float(p), engine="convolution").value / float(s)
                  for p, s in zip(psi.p_grid, psi.values)]
        i = int(np.argmax(ratios))
        assert est.value == ratios[i]
        assert est.meta["attained_p"] == float(grid[i])
        assert est.method == "convolution"


def test_weighted_sum_gls_builds_the_law_once(monkeypatch):
    calls = []
    real = norms.conv_distribution

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(norms, "conv_distribution", counting)
    psi = PsiFunction.sqrt_p(np.arange(2.0, 65.0))
    for a in (CoefficientVector.equal(6), CoefficientVector.two_level(5, 2, 0.3)):
        calls.clear()
        weighted_sum_gls(RAD, a, psi)
        assert len(calls) == 1


def test_monte_carlo_gls_draws_once_for_every_p(monkeypatch):
    psi = PsiFunction.sqrt_p(np.arange(2.0, 65.0))
    a = CoefficientVector.equal(5)
    per_p = [weighted_sum_lp(RAD, a, float(p), engine="monte_carlo", budget=20_000, seed=3)
             for p in psi.p_grid]
    ratios = [e.value / float(s) for e, s in zip(per_p, psi.values)]
    i = int(np.argmax(ratios))

    # Rademacher sums read the sign words straight from the stream (the
    # byte tables of `row_sums`), so the reads are counted there
    calls = []
    real = distributions._sign_words

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distributions, "_sign_words", counting)
    est = weighted_sum_gls(RAD, a, psi, engine="monte_carlo", budget=20_000, seed=3)
    assert len(calls) == norms.MC_STREAMS
    assert est.value == ratios[i]
    assert est.ci_halfwidth == per_p[i].ci_halfwidth / float(psi.values[i])
    assert est.meta["attained_p"] == float(psi.p_grid[i])
    assert est.method == "monte_carlo"


# ---------------------------------------------------------------------------
# sum of independent parts through the product MGF
# ---------------------------------------------------------------------------

def test_weighted_sum_bphi_matches_direct_grid():
    a = CoefficientVector.equal(20)
    est = weighted_sum_bphi(RAD, a, PHI2)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_bphi_norm_of_a_gaussian_sum_is_its_sigma():
    # the subgaussian norm of a centered Gaussian is its sigma, and a sum of
    # independent Gaussians is Gaussian: i.i.d. or mixed, scaled or not
    g2 = Distribution.gaussian(2.0)
    ests = bphi_norms([(G1, [1.0]), (G1, [0.6, 0.8]), ([G1, g2], [0.6, 0.8]), ([g2], [0.5])],
                      PHI2)
    for est, sigma in zip(ests, [1.0, 1.0, math.sqrt(0.36 + 0.64 * 4.0), 1.0]):
        assert est.value == pytest.approx(sigma, abs=1e-6)
        assert est.meta["zero_limit_candidate"] == pytest.approx(sigma, rel=1e-12)


# ---------------------------------------------------------------------------
# several sums in one B(phi) sup
# ---------------------------------------------------------------------------

TAB_PHI = phi_tabulated([0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 2.0, 8.0])  # lambda0 = 4

# (phi, weighted sums)
BPHI_BATCHES = {
    "scaled_rademacher_and_gaussian": (
        PHI2, [(RAD, [0.5]), ([RAD], [1.3]), (Distribution.gaussian(1.5), [1.0]),
               (RAD, [2.0])]),
    # ln E e^{lam X} = 2 lam^2 passes phi's range 8 at lambda0; 0.125 lam^2 does not
    "tabulated_unbounded_then_finite": (
        TAB_PHI, [(Distribution.gaussian(2.0), [1.0]), (Distribution.gaussian(0.5), [1.0]),
                  (RAD, [1.5])]),
    # only the centered Poisson log-MGF overflows on the 1e3-wide grid
    "one_row_truncated": (
        PHI2, [(RAD, [1.0]), (CPOIS, [1.0]), ([G1], [2.0]),
               (Distribution.uniform_symmetric(1.0), [1.0])]),
    "power3_and_natural": (
        phi_power(3.0), [(RAD, [1.0]), (CPOIS, [1.0]), (SYM_DISCRETE, [1.0])]),
}


@pytest.mark.parametrize("name", sorted(BPHI_BATCHES))
def test_bphi_norms_rows_are_bitwise_single_calls(name):
    phi, sums = BPHI_BATCHES[name]
    batch = bphi_norms(sums, phi)
    singles = [bphi_norms([s], phi)[0] for s in sums]
    # repr round-trips floats exactly, so equal reprs mean equal bits
    assert [repr((e.value, e.method, e.meta)) for e in batch] == \
        [repr((e.value, e.method, e.meta)) for e in singles]
    if name == "tabulated_unbounded_then_finite":
        assert [e.meta.get("unbounded", False) for e in batch] == [True, False, False]
        assert batch[0].value == math.inf and math.isfinite(batch[1].value)
    if name == "one_row_truncated":
        assert [e.meta["truncated"] for e in batch] == [False, True, False, False]


# the row-batched even-moment kernel against closed forms and enumeration

def _enumerated(d, w):
    """(values, probs) of sum_k w[k] X_k by its own product-state loop."""
    v, p = d.finite_support()
    vals, probs = np.zeros(1), np.ones(1)
    for wk in w:
        vals = np.add.outer(vals, wk * v).ravel()
        probs = np.multiply.outer(probs, p).ravel()
    return vals, probs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(w=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=10))
def test_even_sum_moments_have_the_rademacher_fourth_moment(w):
    # E S^4 = 3 (sum a^2)^2 - 2 sum a^4 for Rademacher terms
    a = np.array(w)
    a2 = a * a
    m = norms.even_sum_moments(RAD, a, [4.0])
    assert m[0] == 1.0 and abs(m[1] - a2.sum()) <= 1e-15 * a2.sum()
    exact = 3.0 * a2.sum() ** 2 - 2.0 * (a2 * a2).sum()
    assert abs(m[2] - exact) <= 1e-13 * exact


ENUM_LAWS = {"rademacher": (RAD, 10),
             "discrete": (Distribution.discrete([-2.0, -0.5, 0.0, 0.5, 2.0],
                                                [0.1, 0.25, 0.3, 0.25, 0.1]), 8),
             "symmetrized-poisson:0.5": (SPOIS, 4)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(law=st.sampled_from(sorted(ENUM_LAWS)), p=st.sampled_from([2.0, 4.0, 8.0, 20.0, 64.0]),
       w=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=10))
def test_even_sum_moments_are_the_enumerated_moments(law, p, w):
    # n <= 10 terms, fewer where the product states pass a million
    d, most = ENUM_LAWS[law]
    a = np.array(w[:most])
    vals, probs = _enumerated(d, a)
    exact = math.fsum(probs * vals ** p)
    got = norms.even_sum_moments(d, a, [p])[int(p) // 2]
    assert abs(got - exact) <= 1e-13 * exact


def test_even_moment_conv_gives_each_row_its_own_bits():
    rng = np.random.default_rng(4)
    m1, m2 = rng.uniform(0.5, 2.0, (2, 7, 33))
    batch = norms.even_moment_conv(m1, m2)
    for r in range(7):
        assert batch[r].tobytes() == norms.even_moment_conv(m1[r:r + 1], m2[r:r + 1])[0].tobytes()
