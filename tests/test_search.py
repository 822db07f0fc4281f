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
        NormSpec("lp", None)
    with pytest.raises(ValueError):
        NormSpec("weird", 2.0)
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
        return d.lp_norm(spec.param)
    if spec.kind == "bphi":
        return bphi_norm(d, spec.param).value
    lp = np.array([d.lp_norm(float(p)) for p in spec.param.p_grid])
    return float(np.max(lp / spec.param.values))


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


@pytest.mark.parametrize("spec", [NormSpec.lp(3.0),
                                  NormSpec.gls(PsiFunction.sqrt_p(np.arange(2.0, 9.0))),
                                  NormSpec.bphi(PHI2)],
                         ids=["lp", "gls", "bphi"])
def test_no_restarts_is_the_scan_alone(spec):
    est = khinchine_sup(RAD, spec, n_max=4, restarts=0, seed=0)
    assert not any(t["kind"] == "local_search" for t in est.trace)
    values = [t["value"] for t in est.trace]
    assert est.value in values and est.value >= max(values) - 1e-12


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
    monkeypatch.setattr(search, "LeaveOneOut", lambda d, signs, ps, *args: (
        lambda b, rows, k, t: np.ones((len(rows), len(ps)))))
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


# leave-one-out trial moves: the local search scores both trials at
# coordinate k from one law of the other terms, U_k, which it combines from
# the prefix and suffix laws of the sweep (`norms.LeaveOneOut`)

from hypothesis import given, settings, strategies as st  # noqa: E402

from khinchine.norms import CoefficientVector, EngineRefusal, LeaveOneOut  # noqa: E402
from khinchine.numerics import trial_point  # noqa: E402
from khinchine.search import sum_norm  # noqa: E402

LOO_LAWS = {"rademacher": RAD,
            "discrete": Distribution.discrete([-2.0, -0.5, 0.0, 0.5, 2.0],
                                              [0.1, 0.25, 0.3, 0.25, 0.1]),
            "centered-poisson:1": Distribution.centered_poisson(1.0)}
LOO_SPECS = {"lp:1.5": NormSpec.lp(1.5), "lp:3": NormSpec.lp(3.0), "lp:4": NormSpec.lp(4.0),
             "gls:sqrtp": NormSpec.gls(PsiFunction.sqrt_p(np.arange(2.0, 65.0)))}


def _score(d, a, spec, engine, budget):
    try:
        return sum_norm(d, a, spec, engine=engine, budget=budget).value
    except EngineRefusal:
        return None


def _trial_values(loo, spec, b, k, t):
    """The spec's value of each row's trial, as the search reads `loo`."""
    ps, divisors = spec.record.grid(spec.param)
    return np.max(loo(b, np.arange(len(b)), k, t) / divisors, axis=1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(law=st.sampled_from(sorted(LOO_LAWS)), spec=st.sampled_from(sorted(LOO_SPECS)),
       engine=st.sampled_from(["auto", "convolution"]),
       # the Poisson support has 17 points: its default budget is 2^18 points
       # of 6 terms' worth of sorting per trial, so it runs on 4096
       small_budget=st.booleans(),
       terms=st.lists(st.tuples(st.floats(1e-3, 1.0), st.booleans()), min_size=2, max_size=6),
       accept=st.lists(st.booleans(), min_size=12, max_size=12))
def test_leave_one_out_trials_are_the_full_path(law, spec, engine, small_budget, terms, accept):
    # two rows (the vector and its reversal) follow one sweep and move to
    # the trials that `accept` marks, as the search does to a trial that gains
    d, spec = LOO_LAWS[law], LOO_SPECS[spec]
    budget = 64 if small_budget else (4096 if law == "centered-poisson:1" else None)
    b = np.array([t[0] for t in terms])
    signs = np.array([1.0 if t[1] else -1.0 for t in terms])
    b, signs = np.stack([b, b[::-1]]), np.stack([signs, -signs[::-1]])
    b /= b.sum(axis=1, keepdims=True)
    loo = LeaveOneOut(d, signs, spec.record.grid(spec.param)[0], engine, budget)
    steps = iter(accept)
    for k in range(b.shape[1]):
        for factor in (1.5, 1 / 1.5):
            t = b[:, k] * factor
            got = _trial_values(loo, spec, b, k, t)
            points = trial_point(b, k, t)
            for r in range(2):
                a = CoefficientVector.normalized(signs[r] * np.sqrt(points[r]))
                full = _score(d, a, spec, engine, budget)
                assert math.isnan(got[r]) == (full is None), (k, r, a.entries)
                if full is not None:
                    assert abs(got[r] - full) <= 1e-12 * full, (k, r, a.entries, got[r], full)
            if next(steps):
                b = points


def test_a_refused_rest_refuses_the_later_trials_before_any_fold(monkeypatch):
    from khinchine import numerics
    lp3 = NormSpec.lp(3.0)
    a6, a20 = (np.random.default_rng(3).uniform(0.5, 1.5, n) for n in (6, 20))
    b6, b20 = ((a * a / np.dot(a, a))[None, :] for a in (a6, a20))
    small = LeaveOneOut(RAD, np.ones((1, 6)), [3.0], "convolution", budget=16)
    large = LeaveOneOut(RAD, np.ones((1, 20)), [3.0])
    rows = np.array([0])

    def full(b, t):
        return sum_norm(RAD, CoefficientVector.normalized(np.sqrt(trial_point(b, 2, t)[0])), lp3)

    # the other 5 terms: 32 points
    assert np.isnan(small(b6, rows, 2, b6[:, 2] * 1.5)).all()
    # auto: the other 19 terms pass the convolution's 2^18 points, and 20
    # terms are within the enumeration's 2^22 states, where the full path ends
    t = b20[:, 2] * 1.5
    assert full(b20, t).method == "exact_enum"
    assert large(b20, rows, 2, t)[0, 0] == full(b20, t).value
    assert small.laws["convolution"]["U"].refused.all()
    assert large.laws["convolution"]["U"].refused.all()
    t = b20[:, 2] / 1.5
    second = full(b20, t).value
    folds = []
    collapse = numerics.collapse_support
    monkeypatch.setattr("khinchine.norms.collapse_support",
                        lambda *x: folds.append(x) or collapse(*x))
    assert np.isnan(small(b6, rows, 2, b6[:, 2] / 1.5)).all()
    assert large(b20, rows, 2, t)[0, 0] == second
    assert folds == []


def test_both_trials_of_a_visit_share_one_rest(monkeypatch):
    from khinchine import norms
    rests, trials = [], []
    rest, trial = norms._SupportFold.rest, norms._SupportFold.trial
    monkeypatch.setattr(norms._SupportFold, "rest",
                        lambda self, u: rests.append(1) or rest(self, u))
    monkeypatch.setattr(norms._SupportFold, "trial",
                        lambda self, *x: trials.append(1) or trial(self, *x))
    est = khinchine_sup(RAD, NormSpec.lp(3.0), n_max=4, restarts=2, seed=5)
    local = [t for t in est.trace if t["kind"] == "local_search"]
    assert all(t["evals"] < 250 for t in local)
    # the restarts of one n share each call: one rest per visit, two trials
    visits = sum(max(t["evals"] for t in local if t["n"] == n) - 1 for n in (2, 4)) // 2
    assert len(rests) == visits and len(trials) == 2 * visits


@pytest.mark.parametrize("spec", sorted(LOO_SPECS))
def test_leave_one_out_rows_have_the_bits_they_have_alone(spec):
    ps = LOO_SPECS[spec].record.grid(LOO_SPECS[spec].param)[0]
    rng = np.random.default_rng(11)
    b = rng.dirichlet(np.ones(5), size=3)
    signs = rng.choice([-1.0, 1.0], size=(3, 5))
    d = LOO_LAWS["discrete"]
    together = LeaveOneOut(d, signs, ps)
    alone = [LeaveOneOut(d, signs[r:r + 1], ps) for r in range(3)]
    for k in range(5):
        for factor in (1.5, 1 / 1.5):
            t = b[:, k] * factor
            got = together(b, np.arange(3), k, t)
            for r in range(3):
                one = alone[r](b[r:r + 1], np.array([0]), k, t[r:r + 1])
                assert got[r].tobytes() == one[0].tobytes()
            b = trial_point(b, k, t)  # every row takes every trial
