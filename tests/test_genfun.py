import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinchine import genfun
from khinchine.distributions import Distribution
from khinchine.genfun import (DomainError, GeneratingFunction, PsiFunction,
                              biconjugate, candidate_profile, conjugate_profile,
                              conv_r_class, kappa, kappa_profile, legendre,
                              orlicz_n, overline_phi,
                              parse_phi, phi_inverse, phi_inverse_vec,
                              phi_membership_report, phi_natural, phi_power,
                              phi_subgaussian, phi_tabulated, psi_from_phi,
                              tail_envelope)
from khinchine.numerics import coordinate_search, geometric_grid, invert_increasing_vec

PHI2 = phi_subgaussian()
RAD = Distribution.rademacher()
LNCOSH = phi_natural(RAD)
POIS_NAT = phi_natural(Distribution.centered_poisson(1.0))


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_phi_inverse_subgaussian():
    assert phi_inverse(PHI2, 2.0) == pytest.approx(2.0, abs=1e-10)
    assert phi_inverse(PHI2, 0.0) == 0.0


def bisect_oracle(f, y, hi=100.0):
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_phi_inverse_power_splice():
    p3 = phi_power(3.0)
    # independent bisection oracle on the same spliced evaluator
    oracle = bisect_oracle(lambda x: float(p3(x)), 9.0)
    assert oracle == pytest.approx(3.0, abs=1e-10)
    assert phi_inverse(p3, 9.0) == pytest.approx(3.0, abs=1e-9)


def test_phi_inverse_tolerance_contract():
    for y in (0.3, 1.0, 7.0, 123.0):
        lam = phi_inverse(POIS_NAT, y)
        assert abs(float(POIS_NAT(lam)) - y) <= 1e-10 * max(1.0, y)


def test_phi_inverse_finite_domain_range_error():
    tab = phi_tabulated([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
    with pytest.raises(DomainError, match="range"):
        phi_inverse(tab, 5.0)


def bisect_200(f, y, hi_start=1.0, grow=True):
    """The inverter as it was: 200 bisection steps, no seed, no early stop."""
    lo = np.zeros_like(y)
    hi = np.full_like(y, hi_start)
    for _ in range(180 if grow else 0):
        with np.errstate(over="ignore", invalid="ignore"):
            need = f(hi) < y
        if not need.any():
            break
        hi = np.where(need, hi * 4.0, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore", invalid="ignore"):
            below = f(mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(y == 0.0, 0.0, 0.5 * (lo + hi))


TAB = phi_tabulated([0.0, 0.5, 1.0, 2.0, 4.0, 8.0], [0.0, 0.1, 0.5, 2.5, 9.0, 40.0])
SEEDED_PHIS = [PHI2, phi_power(1.5), phi_power(3.0), LNCOSH,
               phi_natural(Distribution.gaussian(2.0)), TAB]


def dense_y(phi):
    # both sides of the power splice phi = 1/m, and y = 0
    y = np.concatenate([[0.0], np.geomspace(1e-12, 1e6, 20001),
                        np.nextafter(1.0 / 1.5, [0.0, 1.0]), np.nextafter(1.0 / 3.0, [0.0, 1.0])])
    if phi.lambda0 == math.inf:
        return y
    return y[y <= phi(phi.lambda0 * (1 - 1e-12))]


def plain_inverse(phi, y):
    if phi.lambda0 == math.inf:
        return invert_increasing_vec(phi, y)
    top = phi.lambda0 * (1 - 1e-12)
    return invert_increasing_vec(phi, y, hi_start=top, cap=top)


@pytest.mark.parametrize("phi", SEEDED_PHIS, ids=lambda p: p.label)
def test_seeded_inverse_is_bitwise_the_unseeded_one(phi):
    y = dense_y(phi)
    seeded = phi_inverse_vec(phi, y)
    assert np.array_equal(seeded, plain_inverse(phi, y))
    if phi.lambda0 == math.inf:
        assert np.array_equal(seeded, bisect_200(phi, y))
    else:
        top = phi.lambda0 * (1 - 1e-12)
        assert np.array_equal(seeded, bisect_200(phi, y, hi_start=top, grow=False))


def test_tiny_y_keeps_the_bits_of_200_unfinished_steps():
    # 200 steps from [0, 1] stop short of x = sqrt(2y) ~ 1e-50, so the seed
    # must not be used there
    y = np.array([1e-300, 1e-100, 1e-80, 1e-60])
    assert np.array_equal(phi_inverse_vec(PHI2, y), bisect_200(PHI2, y))


def test_wrong_seed_falls_back_to_the_plain_bracket():
    y = dense_y(PHI2)
    for wrong in (lambda v: 2.0 * np.sqrt(2.0 * v), lambda v: 0.5 * np.sqrt(2.0 * v),
                  lambda v: np.full_like(v, np.nan)):
        assert np.array_equal(invert_increasing_vec(PHI2, y, seed=wrong), bisect_200(PHI2, y))


def test_fixed_point_stop_is_bitwise_200_steps_without_seed():
    uni = phi_natural(Distribution.uniform_symmetric(1.0))
    y = dense_y(uni)
    assert np.array_equal(phi_inverse_vec(uni, y), bisect_200(uni, y))


@pytest.mark.parametrize("phi", SEEDED_PHIS, ids=lambda p: p.label)
def test_seeded_inverse_needs_few_phi_calls(phi, monkeypatch):
    calls = []
    evaluate = GeneratingFunction.__call__

    def counted(self, lam):
        calls.append(1)
        return evaluate(self, lam)

    y = dense_y(phi)
    monkeypatch.setattr(GeneratingFunction, "__call__", counted)
    phi_inverse_vec(phi, y)
    assert len(calls) <= 16


def test_finite_domain_inverse_stays_inside_the_cap():
    top = TAB.lambda0 * (1 - 1e-12)
    sup = float(TAB(top))
    assert phi_inverse(TAB, sup * (1 + 1e-10)) <= top
    with pytest.raises(DomainError, match="range"):
        phi_inverse(TAB, sup * (1 + 1e-8))
    # a bracket that has to grow stops growing at the cap
    y = np.array([0.5, 2.0, 50.0])  # lambda = 1, 2, 10
    capped = invert_increasing_vec(PHI2, y, cap=3.0)
    assert np.array_equal(capped[:2], invert_increasing_vec(PHI2, y[:2]))
    assert capped[2] == 3.0


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def test_legendre_self_conjugate_subgaussian():
    for u in np.linspace(0.0, 20.0, 41):
        r = legendre(PHI2, float(u))
        assert abs(r.value - u * u / 2.0) <= 1e-9
        assert r.argmax == pytest.approx(u, abs=1e-6)


def test_legendre_at_zero():
    r = legendre(PHI2, 0.0)
    assert r.value == 0.0 and r.argmax == 0.0


def test_legendre_lncosh_dense_grid_oracle():
    # sup over 10^6 grid points of lam*u - ln cosh(lam) on [0, 20]
    lam = np.linspace(0.0, 20.0, 10**6)
    u = 0.5
    dense = float(np.max(lam * u - np.log(np.cosh(lam))))
    r = legendre(LNCOSH, u)
    assert r.value == pytest.approx(dense, abs=1e-6)
    # closed form of the conjugate of ln cosh on |u| < 1
    closed = (1 + u) / 2 * math.log(1 + u) + (1 - u) / 2 * math.log(1 - u)
    assert r.value == pytest.approx(closed, abs=1e-10)


def test_legendre_unbounded_for_linear_growth():
    # ln cosh grows linearly, so the conjugate is infinite past slope 1
    r = legendre(LNCOSH, 1.5)
    assert r.unbounded and r.value == math.inf


def test_legendre_boundary_flag_finite_domain():
    tab = phi_tabulated([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
    r = legendre(tab, 10.0)  # slope never reaches 10 inside the domain
    assert r.boundary
    assert r.value == pytest.approx(10.0 * 2.0 - 2.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Orlicz N-function and tail envelope
# ---------------------------------------------------------------------------

def test_orlicz_values():
    assert orlicz_n(PHI2, 0.0) == 0.0
    assert orlicz_n(PHI2, 2.0) == pytest.approx(math.e**2 - 1, rel=1e-12)
    assert orlicz_n(PHI2, 40.0) == math.inf  # exponent 800 past the guard


def test_tail_envelope_values():
    assert tail_envelope(PHI2, 1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert tail_envelope(POIS_NAT, 2.0, 0.0) == 1.0
    # single Rademacher never exceeds 1.5, and the envelope collapses to 0
    assert tail_envelope(LNCOSH, 1.0, 1.5) == 0.0
    surv = 0.0  # P(|theta| >= 1.5) by enumeration over {-1, +1}
    assert tail_envelope(LNCOSH, 1.0, 1.5) >= surv


# ---------------------------------------------------------------------------
# convexity classes
# ---------------------------------------------------------------------------

def test_conv2_subgaussian():
    assert conv_r_class(PHI2, 2.0).member
    assert conv_r_class(PHI2, 1.0).member


def test_conv2_lncosh_fails_with_witness():
    # t -> ln cosh(sqrt t) has decreasing slopes (concave), so membership fails
    res = conv_r_class(LNCOSH, 2.0)
    assert not res.member
    t1, t2, t3 = res.witness
    f = lambda t: math.log(math.cosh(math.sqrt(t)))
    s1 = (f(t2) - f(t1)) / (t2 - t1)
    s2 = (f(t3) - f(t2)) / (t3 - t2)
    assert s2 < s1  # the witness triple really violates convexity


def test_conv2_poisson_natural():
    assert conv_r_class(POIS_NAT, 2.0).member


def test_power_below_two_splice_fails_convexity():
    res = conv_r_class(phi_power(1.5), 1.0)
    assert not res.member  # the value splice kinks concavely at |lam| = 1


def test_conv_r_requires_r_in_range():
    with pytest.raises(DomainError):
        conv_r_class(PHI2, 2.5)


# ---------------------------------------------------------------------------
# sup-over-n transform
# ---------------------------------------------------------------------------

def test_overline_subgaussian_fixed_point():
    for lam in (0.3, 1.7, 5.0, 40.0):
        assert overline_phi(PHI2, lam) == pytest.approx(lam * lam / 2.0, rel=1e-14)


def test_overline_lncosh_scan_oracle():
    lam = 2.0
    ns = np.arange(1, 10**6 + 1, dtype=float)
    oracle = float(np.max(ns * np.log(np.cosh(lam / np.sqrt(ns)))))
    val = overline_phi(LNCOSH, lam)
    assert val == pytest.approx(oracle, rel=1e-9)
    assert val <= lam * lam / 2.0  # ln cosh x <= x^2/2


def test_overline_power_splice_plateau():
    # for |lam/sqrt(n)| <= 1 the splice is quadratic, value lam^2/m at every n
    ns = np.arange(1, 2001, dtype=float)
    p4 = phi_power(4.0)
    oracle = float(np.max(ns * np.array([p4(0.5 / math.sqrt(n)) for n in ns])))
    assert oracle == pytest.approx(0.5**2 / 4.0, rel=1e-12)
    assert overline_phi(p4, 0.5) == pytest.approx(0.0625, rel=1e-12)


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------

def test_kappa_identical_subgaussian_is_weight_free():
    lam = 1.3
    value, witness, meta = kappa([PHI2] * 8, lam, n_max=8, restarts=2, seed=1)
    assert value == pytest.approx(lam * lam / 2.0, rel=1e-12)
    assert meta["direction"] == "lower_bound_of_sup"


def test_kappa_identical_lncosh_equal_weights_extremal():
    lam, n_max = 3.0, 64
    ns = np.arange(1, n_max + 1, dtype=float)
    oracle = float(np.max(ns * np.log(np.cosh(lam / np.sqrt(ns)))))
    value, witness, _ = kappa([LNCOSH] * n_max, lam, n_max=n_max, restarts=2, seed=0)
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value <= overline_phi(LNCOSH, lam) + 1e-9


@pytest.mark.parametrize("N", [3, 8, 32])
def test_kappa_closed_forms_of_identical_pools(N):
    # phi(sqrt t) convex (Conv_2): superadditivity puts kappa at phi(lam);
    # phi(sqrt t) concave (ln cosh): equal weights at n = N, N phi(lam/sqrt N)
    lams = np.array([0.05, 0.3, 1.0, 2.5, 7.0])
    for phi in (PHI2, phi_power(2.0), phi_power(3.0)):
        vals, _, _ = kappa_profile([phi] * N, lams, n_max=N, restarts=2, seed=4)
        np.testing.assert_allclose(vals, phi(lams), rtol=1e-15, atol=0)
    vals, _, _ = kappa_profile([LNCOSH] * N, lams, n_max=N, restarts=2, seed=4)
    np.testing.assert_allclose(vals, N * LNCOSH(lams / math.sqrt(N)), rtol=1e-15, atol=0)


def test_kappa_mixed_grid_oracle():
    # 2-d case: sup over b in [0, 1] of phi2(0.1 sqrt(b)) + power4(0.1 sqrt(1-b))
    p4 = phi_power(4.0)
    b = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    grid_oracle = float(np.max(PHI2(0.1 * np.sqrt(b)) + p4(0.1 * np.sqrt(1.0 - b))))
    value, witness, _ = kappa([PHI2, p4], 0.1, n_max=2, restarts=3, seed=2)
    assert grid_oracle == pytest.approx(0.1**2 / 2.0, rel=1e-9)
    assert value == pytest.approx(grid_oracle, abs=1e-10)
    assert witness[0] == pytest.approx(1.0, abs=1e-6)  # one-hot on the subgaussian


def test_kappa_dominates_first_component():
    for lam in (0.2, 1.0, 2.5):
        value, _, _ = kappa([LNCOSH, PHI2], lam, n_max=2, restarts=1, seed=0)
        assert value >= float(LNCOSH(lam)) - 1e-12


# references for the batched coordinate search and the witness rule: the
# per-start coordinate search and the tuple tie-break loop they replaced

def _coordinate_search_one(evaluate, b0, maximize, max_evals=250):
    sign = 1.0 if maximize else -1.0
    b = b0 / b0.sum()
    cur = evaluate(b)
    if cur is None:
        return None
    cur *= sign
    evals = 1
    step = 1.5
    while step > 1.01 and evals < max_evals:
        improved = False
        for k in range(b.size):
            for factor in (step, 1.0 / step):
                nb = b.copy()
                nb[k] = max(nb[k], 1e-12) * factor
                nb /= nb.sum()
                val = evaluate(nb)
                evals += 1
                if val is not None and sign * val > cur + 1e-13:
                    b, cur = nb, sign * val
                    improved = True
                if evals >= max_evals:
                    break
            if evals >= max_evals:
                break
        if not improved:
            step = 1.0 + (step - 1.0) * 0.5
    return b, sign * cur, evals


def _per_row(f, b0, maximize, max_evals=250):
    """`coordinate_search` as the reference run on each row of b0 alone."""
    out = []
    for r, row in enumerate(np.asarray(b0, dtype=float)):
        def evaluate(b, r=r):
            v = float(f(b[None, :], np.array([r]))[0])
            return None if math.isnan(v) else v
        res = _coordinate_search_one(evaluate, row, maximize, max_evals)
        out.append(res if res is not None else (row / row.sum(), math.nan, 1))
    ends, vals, evals = zip(*out)
    return np.array(ends), np.array(vals), np.array(evals)


def _opt_lams(lam_grid):
    # the ascent lambdas kappa_profile picks from its grid
    lams = [float(x) for x in np.unique(np.abs(lam_grid[lam_grid != 0]))]
    if len(lams) > 8:
        lams = [lams[i] for i in np.linspace(0, len(lams) - 1, 8).round().astype(int)]
    return lams


def _tie_loop_profile(phis, lam_grid, n_max, restarts, seed):
    """kappa_profile with the per-index tuple tie-break; also counts the
    witnesses a tie replaced."""
    cands = genfun._kappa_candidates(list(phis), n_max, restarts, seed, _opt_lams(lam_grid))
    best = np.full(lam_grid.shape, -np.inf)
    witness = [None] * lam_grid.size
    tie_swaps = 0
    for b in cands:
        vals, _ = candidate_profile(phis, b, lam_grid)
        with np.errstate(invalid="ignore"):
            better = vals > best + 1e-12
            tie = ~better & (np.abs(vals - best) <= 1e-12)
        best = np.where(better, vals, best)
        for i in np.flatnonzero(better):
            witness[i] = b
        for i in np.flatnonzero(tie):
            if tuple(b) < tuple(witness[i]):
                witness[i] = b
                tie_swaps += 1
    return best, witness, tie_swaps


def _cycled(pool, n):
    return [pool[k % len(pool)] for k in range(n)]


def _targets_f(targets, refuse_from=None, refuse_above=None, seen=None):
    """f(b, rows) = -|b - targets[r]|^2 per row; NaN for every b of row
    refuse_from and wherever b_0 > 0.5 on row refuse_above."""
    def f(b, rows):
        out = -np.sum((b - targets[rows]) ** 2, axis=1)
        if refuse_above is not None:
            cut = (rows == refuse_above) & (b[:, 0] > 0.5)
            if seen is not None:
                seen.append(int(np.count_nonzero(cut)))
            out[cut] = np.nan
        out[rows == refuse_from] = np.nan
        return out
    return f


@pytest.mark.parametrize("maximize", [True, False], ids=["max", "min"])
@pytest.mark.parametrize("n,max_evals", [(3, 250), (14, 250), (40, 250), (5, 30)])
def test_coordinate_search_is_bitwise_the_per_start_loop(maximize, n, max_evals):
    rng = np.random.default_rng(n)
    b0 = rng.dirichlet(np.ones(n), size=7)
    targets = rng.dirichlet(np.ones(n), size=7)
    # row 3 is refused once b_0 passes 0.5, which its first move does;
    # row 4 starts at its optimum, so it stops after six sweeps without a gain
    b0[3], targets[3] = 0.55 / (n - 1), np.eye(n)[0]
    b0[3, 0] = 0.45
    targets[4] = b0[4] / b0[4].sum()
    seen = []
    f = _targets_f(targets, refuse_from=2, refuse_above=3, seen=seen)
    got = coordinate_search(f, b0, maximize, max_evals)
    ref = _per_row(f, b0, maximize, max_evals)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]
    b, vals, evals = got
    assert math.isnan(vals[2]) and evals[2] == 1
    assert b[2].tobytes() == (b0[2] / b0[2].sum()).tobytes()
    assert np.all(evals <= max_evals) and not np.isnan(np.delete(vals, 2)).any()
    assert sum(seen) > 0
    if maximize and n == 3:  # the rows stop on different sweeps
        assert evals[4] == 12 * n + 1 and len(set(evals.tolist())) > 3
    else:
        assert max_evals in evals.tolist()

TAB4 = phi_tabulated([0.0, 0.5, 1.0, 2.0, 3.0], [0.0, 0.125, 0.5, 2.0, 4.5])
NAT_GAUSS = phi_natural(Distribution.gaussian(1.0))

# (pool, lambda grid, n_max, restarts)
KAPPA_POOLS = {
    # the pool verify thm41 builds: two shared phi objects cycled to n_max
    "thm41": (_cycled([LNCOSH, NAT_GAUSS], 32), geometric_grid(1e-4, 1e3), 32, 2),
    "subgaussian32": ([PHI2] * 32, np.linspace(0.25, 4.0, 10), 32, 3),
    # finite lambda0 = 3: every ascent stays inside the domain
    "tabulated_power3": (_cycled([TAB4, phi_power(3.0)], 6), np.linspace(0.2, 2.9, 9), 6, 3),
    "one_phi": ([LNCOSH], np.array([0.5, 1.5, 3.0]), 4, 3),
}


@pytest.mark.parametrize("name", sorted(KAPPA_POOLS))
def test_batched_ascent_is_bitwise_the_per_start_loop(name, monkeypatch):
    phis, grid, n_max, restarts = KAPPA_POOLS[name]
    args = (phis, n_max, restarts, 7, _opt_lams(grid))
    batched = genfun._kappa_candidates(*args)
    vals, wits, meta = kappa_profile(phis, grid, n_max=n_max, restarts=restarts, seed=7)
    monkeypatch.setattr(genfun, "coordinate_search", _per_row)
    reference = genfun._kappa_candidates(*args)
    assert len(batched) == len(reference)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(batched, reference))
    ref_vals, ref_wits, _ = _tie_loop_profile(phis, grid, n_max, restarts, 7)
    assert vals.tobytes() == ref_vals.tobytes()
    assert [w.tobytes() for w in wits] == [w.tobytes() for w in ref_wits]
    assert meta["candidates"] == len(reference)


def test_kappa_ascent_refuses_past_a_finite_lambda0():
    # at lam = 3.5 past TAB4's lambda0 = 3, ascent steps reach lam sqrt(b_k)
    # >= 3: the row value refuses them (NaN), as the scan discards them
    grid = [1.0, 3.5]
    scan, _, _ = kappa_profile([TAB4] * 3, grid, n_max=3, restarts=0)
    assert scan == pytest.approx([0.585, 6.437], abs=5e-4)
    for restarts in (1, 3):
        vals, wits, _ = kappa_profile([TAB4] * 3, grid, n_max=3, restarts=restarts)
        assert np.all(vals >= scan)
        assert np.all(3.5 * np.sqrt(wits[1]) < TAB4.lambda0)


def test_witness_ranks_match_the_tuple_tie_loop():
    # at lambda <= 1e-4 every candidate's value is within 1e-12 of the best,
    # so the witness there is decided by the tie rule alone
    phis = _cycled([LNCOSH, NAT_GAUSS], 8)
    grid = np.concatenate([geometric_grid(1e-7, 1e-4, 4), [0.0, 0.5, 2.0]])
    vals, wits, _ = kappa_profile(phis, grid, n_max=8, restarts=2, seed=3)
    ref_vals, ref_wits, tie_swaps = _tie_loop_profile(phis, grid, 8, 2, 3)
    assert tie_swaps > 0
    assert vals.tobytes() == ref_vals.tobytes()
    assert [w.tobytes() for w in wits] == [w.tobytes() for w in ref_wits]


KAPPA_CHOICES = (PHI2, phi_power(3.0), LNCOSH, POIS_NAT)


@settings(max_examples=12, deadline=None)
@given(pool=st.lists(st.integers(0, len(KAPPA_CHOICES) - 1), min_size=1, max_size=5),
       lam=st.floats(0.05, 3.0), restarts=st.integers(0, 2), seed=st.integers(0, 99))
def test_kappa_nondecreasing_in_restarts_and_n_max(pool, lam, restarts, seed):
    # the candidate sets only grow; the 1e-12 tie tolerance can keep an
    # earlier value that a later candidate beats by less than 1e-12
    phis = [KAPPA_CHOICES[i] for i in pool]
    grid = np.array([0.5 * lam, lam])
    n = len(phis)

    def prof(n_max, r):
        return kappa_profile(phis, grid, n_max=n_max, restarts=r, seed=seed)[0]

    assert np.all(prof(n, restarts + 1) >= prof(n, restarts) - 1e-12)
    # from a power-of-two n_max every larger one keeps its candidates
    m = 1
    while m < n:
        assert np.all(prof(n, restarts) >= prof(m, restarts) - 1e-12)
        m *= 2


# ---------------------------------------------------------------------------
# psi functions
# ---------------------------------------------------------------------------

def test_psi_from_phi_examples():
    assert psi_from_phi(PHI2, [8.0]).values[0] == pytest.approx(4.0, abs=1e-9)
    assert psi_from_phi(phi_power(2.0), [2.0]).values[0] == pytest.approx(2.0, abs=1e-9)
    v = psi_from_phi(phi_power(4.0), [64.0]).values[0]
    assert v == pytest.approx((4.0 * 64.0) ** 0.25, abs=1e-8)


def test_psi_validation():
    with pytest.raises(DomainError):
        PsiFunction(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        PsiFunction(np.array([2.0, 4.0]), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi", [PHI2, LNCOSH, POIS_NAT, phi_power(3.0)],
                         ids=["phi2", "lncosh", "poisson", "power3"])
def test_fenchel_young(phi):
    lams = np.concatenate([[0.0], np.geomspace(1e-4, 50.0, 40)])
    us = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 25)])
    phil = phi(lams)
    for u in us:
        star = legendre(phi, float(u)).value
        if not math.isfinite(star):
            continue
        assert np.max(lams * u - (phil + star)) <= 1e-9


@pytest.mark.parametrize("phi,lam_hi", [(PHI2, 20.0), (LNCOSH, 3.0), (POIS_NAT, 4.0)],
                         ids=["phi2", "lncosh", "poisson"])
def test_biconjugacy(phi, lam_hi):
    for lam in np.linspace(0.0, lam_hi, 9):
        direct = float(phi(lam))
        bc = biconjugate(phi, float(lam))
        assert bc == pytest.approx(direct, rel=1e-6, abs=1e-9)


def test_conjugate_profile_valid():
    prof = conjugate_profile(PHI2, np.linspace(0.0, 10.0, 30))
    rep = prof.validate(PHI2)
    assert rep["monotone"] and rep["convex"] and rep["zero_at_zero"]
    assert rep["fenchel_young_ok"]
    assert prof.values[-1] == pytest.approx(50.0, abs=1e-9)


def test_monotone_transforms():
    us = np.linspace(0.0, 6.0, 25)
    stars = [legendre(PHI2, float(u)).value for u in us]
    assert np.all(np.diff(stars) >= -1e-12)
    orls = [orlicz_n(PHI2, float(u)) for u in us]
    assert np.all(np.diff(orls) >= -1e-12)
    lams = np.linspace(0.1, 4.0, 12)
    ovs = [overline_phi(LNCOSH, float(x)) for x in lams]
    assert np.all(np.diff(ovs) >= -1e-12)
    kaps = [kappa([LNCOSH] * 4, float(x), n_max=4, restarts=1, seed=0)[0]
            for x in lams]
    assert np.all(np.diff(kaps) >= -1e-12)


def test_evenness_and_zero():
    grid = np.geomspace(1e-6, 10.0, 50)
    for phi in (PHI2, LNCOSH, POIS_NAT, phi_power(3.0)):
        assert float(phi(0.0)) == 0.0
        assert np.allclose(phi(grid), phi(-grid), rtol=1e-12)


def test_membership_report():
    rep = phi_membership_report(PHI2)
    assert rep["admissible"]
    assert rep["curvature_at_zero"] == 0.5
    rep = phi_membership_report(phi_power(1.5))
    assert not rep["convex"]  # value splice below m = 2 kinks


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    for phi in (PHI2, phi_power(3.0), POIS_NAT,
                phi_tabulated([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])):
        blob = json.dumps(phi.to_json())
        back = GeneratingFunction.from_json(json.loads(blob))
        grid = np.linspace(0.0, min(phi.lambda0 * 0.99, 3.0), 7)
        assert np.allclose(phi(grid), back(grid), rtol=1e-12)


def test_parse_phi_specs():
    assert parse_phi("subgaussian").family == "subgaussian"
    assert parse_phi("power:3").m == 3.0
    assert parse_phi("natural:rademacher").dist.law == "rademacher"
    with pytest.raises(DomainError):
        parse_phi("nope")
