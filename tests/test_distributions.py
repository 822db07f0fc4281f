import json
import math

import numpy as np
import pytest

from khinchine.distributions import (POISSON_TAIL_MASS, Distribution, DistributionError,
                                     _poisson_pmf_truncated, parse_distribution)
from khinchine.genfun import phi_natural
from khinchine.numerics import collapse_support, substream

RAD = Distribution.rademacher()
G1 = Distribution.gaussian(1.0)
CPOIS = Distribution.centered_poisson(1.0)
SPOIS = Distribution.symmetrized_poisson(0.5)
UNIF = Distribution.uniform_symmetric(math.sqrt(3.0))
CATALOG = [RAD, G1, Distribution.gaussian(2.0), CPOIS, SPOIS, UNIF,
           Distribution.discrete([-1.0, 2.0], [2 / 3, 1 / 3])]


# ---------------------------------------------------------------------------
# moment generating functions
# ---------------------------------------------------------------------------

def test_mgf_closed_forms():
    assert RAD.mgf(1.0) == pytest.approx(math.cosh(1.0), rel=1e-14)
    assert Distribution.gaussian(2.0).mgf(0.5) == pytest.approx(math.exp(0.5), rel=1e-14)
    # exp(e - 2); cross-checked against Monte Carlo below
    assert CPOIS.mgf(1.0) == pytest.approx(math.exp(math.e - 2.0), rel=1e-12)
    assert SPOIS.mgf(1.0) == pytest.approx(math.exp(math.cosh(1.0) - 1.0), rel=1e-12)
    assert UNIF.mgf(2.0) == pytest.approx(math.sinh(2 * math.sqrt(3)) / (2 * math.sqrt(3)), rel=1e-12)


def test_mgf_poisson_monte_carlo_cross_check():
    vals = CPOIS.draw(substream(11, 0), 10**7)
    est = float(np.mean(np.exp(vals)))
    se = float(np.std(np.exp(vals))) / math.sqrt(vals.size)
    assert abs(est - math.exp(math.e - 2.0)) <= 3.0 * se


@pytest.mark.parametrize("d", CATALOG, ids=[d.label for d in CATALOG])
def test_mgf_at_zero_is_one(d):
    assert d.mgf(0.0) == pytest.approx(1.0, abs=1e-15)


def test_mgf_symmetry_for_symmetric_laws():
    lams = np.linspace(-3.0, 3.0, 13)
    for d in (RAD, G1, SPOIS, UNIF):
        assert d.is_symmetric
        assert np.allclose(d.mgf(lams), d.mgf(-lams), rtol=1e-13)
    assert not CPOIS.is_symmetric


def test_mgf_overflow_sentinel():
    assert CPOIS.mgf(1000.0) == math.inf


# ---------------------------------------------------------------------------
# absolute moments
# ---------------------------------------------------------------------------

def gaussian_abs_moment(sigma, p):
    return sigma**p * 2 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)


def test_abs_moment_rademacher():
    assert RAD.abs_moment(7.3) == 1.0


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 5.5, 7.3, 8.0])
def test_abs_moment_gaussian_vs_closed_form(p):
    # the package's closed form vs the Gamma-function oracle
    for sigma in (1.0, 2.0):
        d = Distribution.gaussian(sigma)
        assert d.abs_moment(p) == pytest.approx(gaussian_abs_moment(sigma, p), rel=1e-9)


def test_abs_moment_gaussian_p4():
    assert G1.abs_moment(4.0) == pytest.approx(3.0, rel=1e-12)


def _panels(a, b, n_panels=60, n_nodes=32):
    # the composite Gauss-Legendre rule the closed forms replaced
    base_x, base_w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.concatenate([[a], a + (b - a) * np.geomspace(1e-12, 1.0, n_panels)])
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = 0.5 * (hi - lo)
        xs.append(lo + h * (base_x + 1.0))
        ws.append(h * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def _quadrature_moments(scale, p):
    x, w = _panels(0.0, 40.0)
    gauss = scale**p * 2.0 * np.dot(w, x**p * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi))
    x, w = _panels(0.0, scale)
    return float(gauss), float(np.dot(w, x**p) / scale)


@pytest.mark.parametrize("scale", [0.3, 1.0, 2.5])
def test_closed_form_moments_match_the_quadrature(scale):
    for p in np.arange(1.0, 64.0 + 1e-9, 0.25):
        gauss, unif = _quadrature_moments(scale, float(p))
        assert abs(Distribution.gaussian(scale).abs_moment(float(p)) / gauss - 1.0) <= 1e-13
        assert abs(Distribution.uniform_symmetric(scale).abs_moment(float(p)) / unif - 1.0) <= 1e-13


@pytest.mark.parametrize("sigma", [0.1, 0.3, 1.0, 2.5])
def test_gaussian_moment_matches_lgamma_up_to_p_300(sigma):
    for p in np.arange(1.0, 300.0 + 1e-9, 0.5):
        log_ref = (p * math.log(sigma * math.sqrt(2.0)) + math.lgamma(0.5 * (p + 1.0))
                   - 0.5 * math.log(math.pi))
        got = Distribution.gaussian(sigma).abs_moment(float(p))
        if log_ref > 709.0:  # at or past the top of the double range
            assert got > 8e307
        else:
            assert got == pytest.approx(math.exp(log_ref), rel=1e-12)
        norm = Distribution.gaussian(sigma).lp_norm(float(p))
        assert norm == pytest.approx(math.exp(log_ref / p), rel=1e-13)


def test_continuous_moments_never_nan():
    # x**p overflows on a [0, 40] quadrature grid from p ~ 193 and math.gamma
    # past p ~ 342: every p >= 1 must still give a number, every norm a finite one
    for d in (Distribution.gaussian(0.1), G1, Distribution.gaussian(7.0),
              Distribution.uniform_symmetric(0.5), Distribution.uniform_symmetric(3.0)):
        for p in (1.0, 192.5, 193.0, 341.0, 342.0, 343.0, 400.0, 2047.0, 1e4, 1e6):
            assert not math.isnan(d.abs_moment(p))
            assert 0.0 < d.lp_norm(p) < math.inf
    assert G1.lp_norm(400.0) == pytest.approx(
        math.sqrt(2.0) * math.exp((math.lgamma(200.5) - 0.5 * math.log(math.pi)) / 400), rel=1e-13)
    assert Distribution.uniform_symmetric(0.5).lp_norm(1e6) == pytest.approx(
        0.5 * (1e6 + 1.0) ** -1e-6, rel=1e-12)


@pytest.mark.parametrize("d", [RAD, G1, Distribution.gaussian(2.0), SPOIS, UNIF,
                               CPOIS, CATALOG[-1]], ids=lambda d: d.label)
def test_even_moments_match_abs_moments(d):
    mom = d.even_moments(4)
    assert mom[0] == 1.0 and mom.size == 5
    for i in range(1, 5):
        assert mom[i] == pytest.approx(d.abs_moment(2.0 * i), rel=1e-9)


def test_even_moments_closed_forms():
    assert G1.even_moments(3).tolist() == [1.0, 1.0, 3.0, 15.0]
    assert Distribution.uniform_symmetric(2.0).even_moments(2).tolist() == [1.0, 4.0 / 3.0, 16.0 / 5.0]


def test_near_symmetric_discrete_law_is_not_symmetric():
    # mirrored to 1e-6 relative, far above the 1e-12 absolute tolerance
    d = Distribution.discrete([-1.000001, 1.0], [1.0 / 2.000001, 1.000001 / 2.000001])
    assert not d.is_symmetric
    assert Distribution.discrete([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25]).is_symmetric


def test_abs_moment_poisson_truncated_series_oracle():
    # independent truncated series with its own pmf accumulation
    mu = 1.0
    total, k, pk = 0.0, 0, math.exp(-mu)
    while k < 200:
        total += pk * abs(k - mu) ** 4
        k += 1
        pk *= mu / k
    assert total == pytest.approx(4.0, rel=1e-12)  # mu + 3 mu^2
    assert CPOIS.abs_moment(4.0) == pytest.approx(total, rel=1e-9)


def test_abs_moment_symmetrized_poisson_cumulants():
    # kappa2 = 1, kappa4 = 1, kappa6 = 1 at mu = 0.5 per component
    assert SPOIS.abs_moment(2.0) == pytest.approx(1.0, rel=1e-9)
    assert SPOIS.abs_moment(4.0) == pytest.approx(4.0, rel=1e-9)
    assert SPOIS.abs_moment(6.0) == pytest.approx(31.0, rel=1e-9)


def test_abs_moment_uniform_closed_form():
    b = math.sqrt(3.0)
    for p in (2.0, 3.5, 6.0):
        assert UNIF.abs_moment(p) == pytest.approx(b**p / (p + 1), rel=1e-9)


@pytest.mark.parametrize("d", CATALOG, ids=[d.label for d in CATALOG])
def test_lyapunov_monotone_norms(d):
    ps = [2.0, 3.0, 4.0, 6.0, 8.0]
    norms = [d.lp_norm(p) for p in ps]
    assert all(norms[i] <= norms[i + 1] * (1 + 1e-12) for i in range(len(ps) - 1))


def test_abs_moment_requires_p_ge_one():
    with pytest.raises(DistributionError):
        RAD.abs_moment(0.5)


# ---------------------------------------------------------------------------
# natural-function consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", CATALOG, ids=[d.label for d in CATALOG])
def test_natural_function_consistency(d):
    phi = phi_natural(d)
    assert float(phi(0.0)) == 0.0
    # second derivative at 0 by Richardson (kills the skewness term the
    # max-over-signs construction turns into an O(h) error for skewed laws)
    h = 1e-4
    second = lambda s: (float(phi(s)) + float(phi(-s))) / (s * s)
    richardson = 2.0 * second(h / 2) - second(h)
    assert richardson == pytest.approx(d.variance, rel=1e-6)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampler_bitwise_reproducible():
    for d in CATALOG:
        b1 = d.draw(substream(42, 3), 1000)
        b2 = d.draw(substream(42, 3), 1000)
        assert np.array_equal(b1, b2)
        b3 = d.draw(substream(42, 4), 1000)
        assert not np.array_equal(b1, b3)


def test_rademacher_clt_band():
    n = 10**6
    vals = RAD.draw(substream(7, 0), n)
    assert set(np.unique(vals)) == {-1.0, 1.0}
    assert abs(float(np.mean(vals))) <= 4.0 / math.sqrt(n)


def test_gaussian_sample_variance_band():
    vals = G1.draw(substream(3, 0), 10**6)
    assert 0.99 <= float(np.var(vals)) <= 1.01


def test_poisson_sampler_sanity():
    vals = SPOIS.draw(substream(9, 0), 200_000)
    assert abs(float(np.mean(vals))) <= 4.0 * math.sqrt(1.0 / vals.size)
    assert float(np.var(vals)) == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# finite supports
# ---------------------------------------------------------------------------

def test_poisson_truncation_mass():
    mu = 1.0
    vals, probs = CPOIS.finite_support()
    k_max = vals[-1] + mu
    # discarded upper-tail mass of the untruncated law
    tail, k, pk = 0.0, 0, math.exp(-mu)
    while k <= k_max + 200:
        if k > k_max:
            tail += pk
        k += 1
        pk *= mu / k
    assert tail < 1e-14
    assert probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_symmetrized_support_is_symmetric():
    vals, probs = SPOIS.finite_support()
    assert np.allclose(vals, -vals[::-1])
    assert np.allclose(probs, probs[::-1], rtol=1e-12)


@pytest.mark.parametrize("mu", [0.001, 0.1, 0.5, 1.0, 2.5, 7.0, 20.0])
def test_symmetrized_support_has_total_mass_exactly_one(mu):
    vals, probs = Distribution.symmetrized_poisson(mu).finite_support()
    assert math.fsum(probs) == 1.0
    assert Distribution.symmetrized_poisson(mu).even_moments(1)[1] == pytest.approx(2.0 * mu)


def test_continuous_laws_have_no_finite_support():
    assert G1.finite_support() is None
    assert UNIF.finite_support() is None


# ---------------------------------------------------------------------------
# discrete construction contracts
# ---------------------------------------------------------------------------

def test_discrete_dedupes_support():
    d = Distribution.discrete([-1.0, -1.0 + 1e-13, 1.0], [0.25, 0.25, 0.5])
    assert d.support.size == 2
    assert d.probs[0] == pytest.approx(0.5)


def test_discrete_merges_only_near_duplicates_and_zero_masses():
    # a point merged with no other keeps its value: the probability-weighted
    # mean (0.4 * 0.2) / 0.4 would be 0.20000000000000004
    d = Distribution.discrete([0.3, -1.0, 0.2], [0.4, 0.2, 0.4])
    assert d.support.tolist() == [-1.0, 0.2, 0.3]
    assert d.probs.tolist() == [0.2, 0.4, 0.4]
    z = Distribution.discrete([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5])
    assert z.support.tolist() == [-1.0, 1.0]
    assert z.probs.tolist() == [0.5, 0.5]


def test_collapse_support_keeps_a_lone_point():
    v = np.array([0.3, -1.0, 0.2, 0.7, 0.7 + 1e-13, 0.7])
    p = np.array([0.25, 0.2, 0.25, 0.1, 0.1, 0.1])
    cv, cp = collapse_support(v, p)
    assert cv[:3].tolist() == [-1.0, 0.2, 0.3]
    assert cp[:3].tolist() == [0.2, 0.25, 0.25]
    # a merged group is still represented by its weighted mean
    assert cv[3] == pytest.approx(0.7 + 1e-13 / 3.0, abs=1e-15)
    assert cp[3] == pytest.approx(0.3, rel=1e-15)


def _old_poisson_pmf_at_first_cut(mu, tail=POISSON_TAIL_MASS):
    """The truncated pmf under the old stop rule (1 - sum(p) < tail), or None
    where that rule does not stop at the first cut-off."""
    k_max = int(mu + 20.0 * math.sqrt(mu) + 40.0)
    ks = np.arange(k_max + 1)
    p = np.exp(ks * math.log(mu) - mu - np.array([math.lgamma(k + 1.0) for k in ks]))
    if not 1.0 - p.sum() < tail:
        return None
    keep = int(np.nonzero(np.cumsum(p) < 1.0 - tail)[0][-1]) + 2 if p.size > 1 else 1
    keep = min(keep, p.size)
    return np.arange(keep), p[:keep] / p[:keep].sum()


def test_poisson_truncation_returns_and_keeps_old_supports():
    # the old rule never stopped at 36.889..., 41.78, 46.07 or 49.88: the
    # rounded pmf sum stays above 1 - 1e-14 at every cut-off
    mus = np.concatenate([np.linspace(1e-3, 200.0, 4001),
                          [36.88944578858948, 41.78, 46.07, 49.88]])
    kept = 0
    for j, mu in enumerate(mus):
        ks, p = _poisson_pmf_truncated(float(mu))
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-15)
        old = _old_poisson_pmf_at_first_cut(float(mu)) if j % 4 == 0 else None
        if old is not None:  # every 4th mu against the old rule
            assert np.array_equal(ks, old[0]) and np.array_equal(p, old[1]), mu
            kept += 1
    assert _old_poisson_pmf_at_first_cut(36.88944578858948) is None
    assert kept > 500


def _keep_from_first_k_pmf(mu, tail=POISSON_TAIL_MASS):
    """The truncation before k = 0 and k = 1 were always kept, or None where
    it raised IndexError (p[0] alone reaching 1 - tail)."""
    k_max = int(mu + 20.0 * math.sqrt(mu) + 40.0)
    while True:
        ks = np.arange(k_max + 1)
        p = np.exp(ks * math.log(mu) - mu - np.array([math.lgamma(k + 1.0) for k in ks]))
        if p[-1] * (k_max + 1) / (k_max + 1 - mu) < tail:
            break
        k_max *= 2
    below = np.nonzero(np.cumsum(p) < 1.0 - tail)[0]
    if below.size == 0:
        return None
    keep = min(int(below[-1]) + 2, p.size)
    return np.arange(keep), p[:keep] / p[:keep].sum()


def test_poisson_truncation_keeps_supports_where_it_returned():
    mus = np.concatenate([np.geomspace(1e-16, 200.0, 721), [1e-15, 5e-15, 1e-14]])
    refused = 0
    for mu in mus:
        ks, p = _poisson_pmf_truncated(float(mu))
        assert ks.size >= 2
        old = _keep_from_first_k_pmf(float(mu))
        if old is None:
            refused += 1
            assert ks.tolist() == [0, 1]
        else:
            assert np.array_equal(ks, old[0]) and np.array_equal(p, old[1]), mu
    assert 10 < refused < 200


@pytest.mark.parametrize("mu", [1e-15, 5e-15, 1e-14])
@pytest.mark.parametrize("law,scale", [("centered-poisson", 1.0), ("symmetrized-poisson", 2.0)])
def test_poisson_at_tiny_mu(capsys, law, scale, mu):
    from khinchine.cli import main
    d = parse_distribution(f"{law}:{mu!r}")
    v, p = d.finite_support()
    assert float(np.dot(p, v * v)) == pytest.approx(scale * mu, rel=1e-9)
    argv = ["norm", "lp", "--law", f"{law}:{mu!r}", "--weights", "equal:2", "--p", "3"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["report"]["value"] > 0


def test_discrete_rejects_noncentered():
    with pytest.raises(DistributionError, match="centered"):
        Distribution.discrete([0.0, 1.0], [0.5, 0.5])


def test_discrete_rejects_bad_probs():
    with pytest.raises(DistributionError, match="sum"):
        Distribution.discrete([-1.0, 1.0], [0.6, 0.5])


def test_variances():
    assert RAD.variance == 1.0
    assert Distribution.gaussian(3.0).variance == 9.0
    assert CPOIS.variance == 1.0
    assert SPOIS.variance == 1.0
    assert UNIF.variance == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

def test_parse_specs():
    assert parse_distribution("rademacher").law == "rademacher"
    assert parse_distribution("gaussian:1").params == (1.0,)
    assert parse_distribution("centered-poisson:1").law == "centered_poisson"
    assert parse_distribution("uniform-symmetric:1.7320508").params[0] == pytest.approx(1.7320508)
    with pytest.raises(DistributionError):
        parse_distribution("cauchy:1")
    with pytest.raises(DistributionError):
        parse_distribution("gaussian")


def test_json_roundtrip():
    for d in CATALOG:
        back = Distribution.from_json(json.loads(json.dumps(d.to_json())))
        assert back.law == d.law
        lams = np.linspace(-2.0, 2.0, 7)
        assert np.allclose(back.log_mgf(lams), d.log_mgf(lams), rtol=1e-13)
