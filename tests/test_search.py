import math

import numpy as np
import pytest

from khinchine.distributions import Distribution
from khinchine.genfun import PsiFunction, phi_power, phi_subgaussian
from khinchine.norms import bphi_norm
from khinchine.search import (NormSpec, khinchine_inf, khinchine_sup,
                              prelim_bounds, single_norm)

RAD = Distribution.rademacher()
G1 = Distribution.gaussian(1.0)
LP4 = NormSpec.lp(4.0)
PHI2 = phi_subgaussian()


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec("lp")
    with pytest.raises(ValueError):
        NormSpec("weird", p=2.0)
    assert NormSpec.lp(4).label == "lp(4.0)"


def test_rademacher_lp4_sup_reaches_equal_weight_value():
    est = khinchine_sup(RAD, LP4, n_max=16, restarts=1, seed=0)
    assert est.direction == "lower_bound_of_sup"
    assert est.value >= 2.5**0.25 - 1e-12
    assert est.value == pytest.approx((3.0 - 2.0 / 16.0) ** 0.25, rel=1e-12)
    assert est.witness.n == 16


def test_rademacher_lp2_is_one_for_every_candidate():
    est = khinchine_sup(RAD, NormSpec.lp(2.0), n_max=8, restarts=1, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    vals = [t["value"] for t in est.trace if "value" in t]
    assert max(vals) - min(vals) <= 1e-11


def test_sup_monotone_in_n_max_and_restarts():
    vals = [khinchine_sup(RAD, LP4, n_max=n, restarts=1, seed=3).value
            for n in (2, 4, 8)]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    v1 = khinchine_sup(RAD, LP4, n_max=4, restarts=1, seed=3).value
    v2 = khinchine_sup(RAD, LP4, n_max=4, restarts=3, seed=3).value
    assert v2 >= v1 - 1e-12


def test_gaussian_rotation_invariance():
    est = khinchine_sup(G1, LP4, n_max=8, restarts=1, seed=0)
    vals = [t["value"] for t in est.trace if "value" in t]
    assert max(vals) - min(vals) <= 2e-9  # all weighted sums are standard normal
    assert est.value == pytest.approx(3.0**0.25, rel=1e-9)


def test_gaussian_inf_equals_sup():
    inf_est = khinchine_inf(G1, LP4, n_max=8, restarts=1, seed=0)
    assert inf_est.direction == "upper_bound_of_inf"
    assert inf_est.value == pytest.approx(3.0**0.25, rel=1e-9)


def test_rademacher_lp4_inf_is_one_at_one_hot():
    # E S^4 = 3 - 2 sum a^4 >= 1 with equality only at the one-hot vector
    est = khinchine_inf(RAD, LP4, n_max=8, restarts=2, seed=1)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    b = est.witness.entries**2
    assert float(np.max(b)) == pytest.approx(1.0, abs=1e-6)


#: one law per catalogue record, the discrete record both symmetric and skewed
CATALOGUE = [RAD, G1, Distribution.gaussian(0.7), Distribution.centered_poisson(1.0),
             Distribution.symmetrized_poisson(0.5), Distribution.uniform_symmetric(1.7),
             Distribution.discrete([-2.0, -0.5, 0.0, 0.5, 2.0], [0.1, 0.25, 0.3, 0.25, 0.1]),
             Distribution.discrete([-1.0, 0.0, 3.0], [0.6, 0.2, 0.2])]
#: 'lo:hi[:step]' grids as the CLI builds them
P_GRIDS = [np.arange(2.0, 64.0 + 1e-9), np.arange(1.0, 30.0 + 1e-9, 0.5),
           np.arange(2.0, 400.0 + 1e-9)]


def _one_copy_norm(d, spec):
    """The norm of one copy by kind, each through its own path: the
    reference for the n = 1 term of the weighted-sum dispatch."""
    if spec.kind == "lp":
        return d.lp_norm(spec.p)
    if spec.kind == "bphi":
        return bphi_norm(d, spec.phi).value
    lp = np.array([d.lp_norm(float(p)) for p in spec.psi.p_grid])
    return float(np.max(lp / spec.psi.values))


@pytest.mark.parametrize("d", CATALOGUE, ids=lambda d: d.label)
def test_single_norm_is_bitwise_each_kind_s_own_path(d):
    specs = [NormSpec.lp(float(p)) for grid in P_GRIDS for p in grid]
    specs += [NormSpec.gls(PsiFunction.sqrt_p(grid)) for grid in P_GRIDS]
    specs += [NormSpec.bphi(phi) for phi in (PHI2, phi_power(3.0))]
    for spec in specs:
        assert single_norm(d, spec) == _one_copy_norm(d, spec), spec.label


@pytest.mark.parametrize("spec", [NormSpec.lp(4.0),
                                  NormSpec.gls(PsiFunction.sqrt_p(np.arange(2.0, 9.0))),
                                  NormSpec.bphi(PHI2)],
                         ids=["lp", "gls", "bphi"])
def test_one_hot_anchor(spec):
    anchor = single_norm(RAD, spec)
    sup = khinchine_sup(RAD, spec, n_max=4, restarts=1, seed=0)
    inf = khinchine_inf(RAD, spec, n_max=4, restarts=1, seed=0)
    assert sup.value >= anchor - 1e-9
    assert inf.value <= anchor + 1e-9


def test_bphi_spec_search_is_flat_for_rademacher():
    est = khinchine_sup(RAD, NormSpec.bphi(PHI2), n_max=8, restarts=1, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_refusals_recorded_not_fatal():
    est = khinchine_sup(RAD, LP4, n_max=40, restarts=1, seed=2)
    refused = [t for t in est.trace if "refused" in t]
    assert est.meta["refusals"] == len(refused)
    assert est.value >= (3.0 - 2.0 / 40.0) ** 0.25 - 1e-12


def test_refusals_recorded_on_odd_p():
    # odd p has no even-moment path, so the large random starts still refuse
    est = khinchine_sup(RAD, NormSpec.lp(3.0), n_max=40, restarts=1, seed=2)
    refused = [t for t in est.trace if "refused" in t]
    assert est.meta["refusals"] > 0
    assert est.meta["refusals"] == len(refused)


def test_search_deterministic():
    a = khinchine_sup(RAD, LP4, n_max=8, restarts=2, seed=11)
    b = khinchine_sup(RAD, LP4, n_max=8, restarts=2, seed=11)
    assert a.value == b.value
    assert np.array_equal(a.witness.entries, b.witness.entries)


def test_prelim_bounds_examples():
    r = prelim_bounds(RAD, LP4)
    assert r["upper_floor"] == pytest.approx(3.0**0.25, rel=1e-9)
    assert r["lower_ceiling"] == pytest.approx(1.0, rel=1e-12)
    r2 = prelim_bounds(RAD, NormSpec.lp(2.0))
    assert r2["upper_floor"] == pytest.approx(1.0, rel=1e-9)
    assert r2["lower_ceiling"] == pytest.approx(1.0, rel=1e-9)
    r3 = prelim_bounds(G1, LP4)
    assert r3["upper_floor"] == pytest.approx(r3["lower_ceiling"], rel=1e-9)


def test_sup_never_exceeds_gaussian_floor_for_rademacher_lp4():
    floor = prelim_bounds(RAD, LP4)["upper_floor"]
    est = khinchine_sup(RAD, LP4, n_max=32, restarts=1, seed=0)
    assert est.value <= floor + 1e-9


def test_shared_candidate_rule_matches_the_set_expressions():
    """The search scan and the kappa candidates share one size rule; it must
    give exactly the sizes of the set expressions each used to spell out."""
    from khinchine.numerics import candidate_sizes, two_level_shapes

    def sizes(n_max):
        return sorted({min(2**j, n_max) for j in range(0, 30) if 2**j <= n_max} | {n_max})

    for n_max in range(1, 600):
        shapes = [(n, j, w) for n in sizes(n_max) if n >= 2
                  for j in sorted({min(2**j, n - 1) for j in range(0, 30) if 2**j <= n - 1})
                  for w in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert candidate_sizes(n_max) == sizes(n_max)
        assert list(two_level_shapes(n_max)) == shapes


@pytest.mark.parametrize("maximize", [True, False], ids=["sup", "inf"])
def test_scan_and_local_search_share_one_tie_break(monkeypatch, maximize):
    # every candidate ties, so the witness is the lexicographically smallest
    # of the scanned vectors and the local-search results; on a law that is
    # not symmetric the local searches draw signs, so a local result wins
    from khinchine import search
    from khinchine.norms import CoefficientVector, NormEstimate
    from khinchine.numerics import candidate_sizes, substream, weight_candidates

    monkeypatch.setattr(search, "sum_norm",
                        lambda d, a, spec, **kw: NormEstimate(1.0, "exact_enum"))
    run = khinchine_sup if maximize else khinchine_inf
    est = run(Distribution.centered_poisson(1.0), NormSpec.lp(3.0), n_max=5, restarts=2, seed=3)
    scanned = [tuple(a) for _, a in weight_candidates(5, exchangeable=True)]
    cands = list(scanned)
    for n in candidate_sizes(5)[1:]:
        for r in range(2):
            rng = substream(3, 0x5EA2C4, n, r)
            b = rng.dirichlet(np.ones(n))
            signs = rng.choice([-1.0, 1.0], size=n)
            cands.append(tuple(CoefficientVector.normalized(signs * np.sqrt(b / b.sum())).entries))
    best = min(cands)
    assert best not in scanned
    assert tuple(est.witness.entries) == best
