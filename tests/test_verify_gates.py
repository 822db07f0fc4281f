"""Gates for the shared MGF-envelope suite, `norms.log_mgf_sums` and the one
conjugate profile of `tail_compare`: test-local copies of the earlier
per-suite trial loops (three envelope loops, the Pythagoras loop on the
per-row B(phi) reference of test_masked_kernels, and the per-u tail loop)
must give reports equal, value for value, to the package's."""

import math

import numpy as np
import pytest

from khinchine import verify
from khinchine.distributions import Distribution
from khinchine.genfun import (candidate_profile, conv_r_class, kappa_profile,
                              phi_natural, phi_power, phi_subgaussian,
                              tail_envelope)
from khinchine.norms import (CoefficientVector, NormEstimate, bphi_norm, draw_sums,
                             log_mgf_sums, sum_distribution, weighted_sum_bphi)
from khinchine.numerics import geometric_grid, ordered_map, substream
from khinchine.verify import (SLACK_TOL, _min_logspace_slack, pythagoras_check,
                              tail_compare, verify_thm31, verify_thm32,
                              verify_thm41)
from test_masked_kernels import old_bphi_norms

RAD = Distribution.rademacher()
G1 = Distribution.gaussian(1.0)
CPOIS = Distribution.centered_poisson(1.0)
UNIF = Distribution.uniform_symmetric(1.5)
PHI2 = phi_subgaussian()


# ---------------------------------------------------------------------------
# the earlier loops, kept here as the reference
# ---------------------------------------------------------------------------

def _grid():
    return geometric_grid(1e-4, 1e3)


def old_thm31(d, phi, trials, seed, n_cap=32, threads=1):
    assert conv_r_class(phi, 2.0).member
    tau = bphi_norm(d, phi).value
    grid = _grid()
    with np.errstate(over="ignore"):
        rhs = phi(grid * tau)

    def one_trial(t):
        rng = substream(seed, 0x7131, t)
        n = int(rng.integers(1, n_cap + 1))
        a = CoefficientVector.random_sphere(n, rng)
        z = np.multiply.outer(grid, a.entries)
        lhs = d.log_mgf(z.ravel()).reshape(z.shape).sum(axis=1)
        slack, i, masked = _min_logspace_slack(rhs, lhs)
        return slack, i, masked, n

    results = ordered_map(one_trial, range(trials), threads)
    slacks = [r[0] for r in results]
    worst = int(np.argmin(slacks))
    min_slack = slacks[worst]
    return {"suite": "thm31", "law": d.label, "phi": phi.to_json(), "tau": tau,
            "trials": trials, "n_cap": n_cap, "min_log_slack": min_slack,
            "worst_trial": worst, "worst_n": results[worst][3],
            "masked_grid_points_total": int(sum(r[2] for r in results)),
            "lower_half_equality": {"n": 1, "norm": tau}, "slack_tol": SLACK_TOL,
            "pass": bool(min_slack >= -SLACK_TOL)}


def old_thm32(d, phi, trials, seed, n_max, restarts):
    tau = bphi_norm(d, phi).value
    grid = _grid()
    phis = [phi] * n_max
    kap, _, kmeta = kappa_profile(phis, grid * tau, n_max=n_max, restarts=restarts, seed=seed)

    def one_trial(t):
        rng = substream(seed, 0x7132, t)
        n = int(rng.integers(1, n_max + 1))
        a = CoefficientVector.random_sphere(n, rng)
        z = np.multiply.outer(grid, a.entries)
        lhs = d.log_mgf(z.ravel()).reshape(z.shape).sum(axis=1)
        cand, _ = candidate_profile(phis, a.entries**2, grid * tau)
        return _min_logspace_slack(np.maximum(kap, cand), lhs)

    results = [one_trial(t) for t in range(trials)]
    min_slack = float(np.min([r[0] for r in results]))
    return {"suite": "thm32", "law": d.label, "phi": phi.to_json(), "tau": tau,
            "trials": trials, "hat_transform_via_kappa": True, "kappa_meta": kmeta,
            "min_log_slack": min_slack, "slack_tol": SLACK_TOL,
            "pass": bool(min_slack >= -SLACK_TOL)}


def old_thm41(laws, phis, trials, seed, n_max, restarts):
    grid = _grid()
    seq_laws = [laws[k % len(laws)] for k in range(n_max)]
    seq_phis = [phis[k % len(phis)] for k in range(n_max)]
    kap, _, kmeta = kappa_profile(seq_phis, grid, n_max=n_max, restarts=restarts, seed=seed)
    checks = {"even_by_construction": True,
              "nondecreasing_on_grid": bool(np.all(np.diff(kap[np.isfinite(kap)]) >= -1e-12))}

    def one_trial(t):
        rng = substream(seed, 0x7141, t)
        n = int(rng.integers(1, n_max + 1))
        a = CoefficientVector.random_sphere(n, rng)
        lhs = np.zeros_like(grid)
        for k in range(n):
            lhs = lhs + seq_laws[k].log_mgf(grid * a.entries[k])
        cand, _ = candidate_profile(seq_phis, a.entries**2, grid)
        return _min_logspace_slack(np.maximum(kap, cand), lhs)

    results = [one_trial(t) for t in range(trials)]
    min_slack = float(np.min([r[0] for r in results]))
    return {"suite": "thm41", "laws": [d.label for d in laws],
            "phis": [p.label for p in phis], "trials": trials, "n_max": n_max,
            "kappa_meta": kmeta, "kappa_membership": checks, "min_log_slack": min_slack,
            "slack_tol": SLACK_TOL, "pass": bool(min_slack >= -SLACK_TOL)}


def old_pythagoras(phi, pool, trials, seed):
    def one_trial(t):
        rng = substream(seed, 0x9717, t)
        k = int(rng.integers(2, 6))
        idx = rng.integers(0, len(pool), size=k)
        scales = rng.uniform(0.5, 1.5, size=k)
        parts = [(pool[i], c) for i, c in zip(idx, scales)]

        def log_mgf_sum(lam):
            lam = np.asarray(lam, dtype=float)
            out = np.zeros(lam.shape)
            for law, c in parts:
                out = out + law.log_mgf(lam * c)
            return out

        sources = [lambda lam, law=law, c=c: law.log_mgf(np.asarray(lam) * c)
                   for law, c in parts] + [log_mgf_sum]
        variances = [c * c * law.variance for law, c in parts]
        variances.append(sum(variances))
        *part_norms, sum_norm = old_bphi_norms(sources, phi, variances)
        rhs = 0.0
        for est in part_norms:
            rhs += est.value * est.value
        lhs = sum_norm.value ** 2
        return lhs - rhs, all(law.is_stable for law, _ in parts), abs(lhs - rhs)

    results = [one_trial(t) for t in range(trials)]
    max_violation = float(np.max([r[0] for r in results]))
    gauss_dev = [r[2] for r in results if r[1]]
    max_gauss_dev = float(np.max(gauss_dev)) if gauss_dev else 0.0
    return {"suite": "pythagoras", "phi": phi.to_json(), "pool": [d.label for d in pool],
            "trials": trials, "max_violation": max_violation,
            "gaussian_only_trials": len(gauss_dev),
            "max_gaussian_equality_deviation": max_gauss_dev, "slack_tol": SLACK_TOL,
            "pass": bool(max_violation <= SLACK_TOL and max_gauss_dev <= SLACK_TOL)}


def old_exact_survival(d, a, u):
    law = d.sum_law(a.entries)
    if law is not None:
        return law.tail(u), f"{law.law}_closed_form"
    try:
        vals, probs, method = sum_distribution(d, a)
    except Exception:
        return None
    up = float(np.sum(probs[vals >= u - 1e-12]))
    dn = float(np.sum(probs[vals <= -u + 1e-12]))
    return max(up, dn), method


def _joined(units):
    """The values of a Monte Carlo chunk's units, in order (each unit is
    copied before the next one overwrites it)."""
    return np.concatenate([np.empty(0)] + [u.copy() for u in units])


def old_tail(d, a, phi, u_grid, samples=200_000, seed=0):
    tau = weighted_sum_bphi(d, a, phi).value
    m_exp = phi.tail_exponent
    rows, ok, fitted, mc_vals = [], True, math.inf, None
    for u in u_grid:
        u = float(u)
        env = tail_envelope(phi, tau, u)
        exact = old_exact_survival(d, a, u)
        if exact is not None:
            surv, method = exact
            se = 0.0
        else:
            if mc_vals is None:
                mc_vals = _joined(draw_sums(d, a)(substream(seed, 0x7A11), samples))
            surv = max(float(np.mean(mc_vals >= u - 1e-12)),
                       float(np.mean(mc_vals <= -u + 1e-12)))
            se = math.sqrt(max(surv * (1.0 - surv), 1.0 / samples) / samples)
            method = "monte_carlo"
        passed = env >= surv - 3.0 * se
        ok = ok and passed
        if u > 0 and surv > 0:
            fitted = min(fitted, -math.log(surv) / u**m_exp)
        rows.append({"u": u, "envelope": env, "survival": surv,
                     "survival_se": se, "method": method, "pass": bool(passed)})
    return {"suite": "tail", "law": d.label, "phi": phi.to_json(), "n": a.n, "tau": tau,
            "rows": rows, "fitted_tail_constant": None if not math.isfinite(fitted) else fitted,
            "tail_exponent": m_exp, "pass": bool(ok)}


# ---------------------------------------------------------------------------
# the gates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,phi", [(RAD, PHI2), (G1, phi_natural(G1)),
                                   (CPOIS, phi_natural(CPOIS))],
                         ids=["rademacher", "gaussian", "centered-poisson"])
def test_thm31_matches_the_earlier_loop(d, phi):
    assert verify_thm31(d, phi, trials=120, seed=6) == old_thm31(d, phi, 120, 6)


def test_thm31_matches_the_earlier_loop_on_threads():
    assert (verify_thm31(RAD, PHI2, trials=31, seed=2, n_cap=9, threads=3)
            == old_thm31(RAD, PHI2, 31, 2, n_cap=9))


@pytest.mark.parametrize("d", [RAD, UNIF], ids=["rademacher", "uniform"])
def test_thm32_matches_the_earlier_loop(d):
    assert (verify_thm32(d, PHI2, trials=25, seed=3, n_max=8, restarts=1)
            == old_thm32(d, PHI2, 25, 3, 8, 1))


@pytest.mark.parametrize("laws,phis", [
    ([RAD], [PHI2]),
    ([RAD, G1], [phi_natural(RAD), phi_natural(G1)]),
    ([RAD, CPOIS, UNIF], [phi_natural(RAD), phi_natural(CPOIS), phi_natural(UNIF)]),
], ids=["single-law", "rademacher-gaussian", "three-laws"])
def test_thm41_matches_the_earlier_loop(laws, phis):
    assert (verify_thm41(laws, phis, trials=25, seed=4, n_max=7, restarts=1)
            == old_thm41(laws, phis, 25, 4, 7, 1))


@pytest.mark.parametrize("pool", [[RAD, G1], [RAD, CPOIS, Distribution.gaussian(0.7)]],
                         ids=["default-pool", "mixed-pool"])
def test_pythagoras_matches_the_earlier_loop(pool):
    # a part c X scores c ||X|| (1-homogeneity) where the earlier loop took
    # its own grid sup, which moves the two maxima by ulps; every other key
    # keeps its value
    for seed, trials in ((8, 15), (1, 60), (2, 60)):
        new, old = pythagoras_check(PHI2, pool, trials, seed), old_pythagoras(PHI2, pool, trials, seed)
        for key in ("max_violation", "max_gaussian_equality_deviation"):
            assert abs(new.pop(key) - old.pop(key)) <= 1e-14, (seed, key)
        assert new == old


def test_pythagoras_scores_one_source_per_trial(monkeypatch):
    # the pool's norms in one call, then only the sums; a law whose grid was
    # truncated (centered Poisson under the subgaussian phi) keeps its parts.
    # The trials are packed in order while their terms x 449 grid points fit
    # in ENVELOPE_BLOCK, 32 terms
    sizes, terms = [], []
    real = verify.bphi_norms

    def counting(sums, phi):
        sizes.append(len(sums))
        terms.append(sum(len(w) for _, w in sums))
        return real(sums, phi)

    monkeypatch.setattr(verify, "bphi_norms", counting)
    pythagoras_check(PHI2, [RAD, G1], trials=20, seed=3)
    assert sizes == [2, 8, 9, 3] and terms == [2, 29, 31, 8]
    assert verify.ENVELOPE_BLOCK == 449 * 32
    sizes.clear()
    pythagoras_check(PHI2, [RAD, CPOIS], trials=8, seed=3)
    assert sizes[0] == 2 and sizes[1] > 8


@pytest.mark.parametrize("d,a,phi,u_grid,kw", [
    (RAD, CoefficientVector.equal(16), PHI2, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0), {}),
    (RAD, CoefficientVector.equal(4), PHI2, (3.0, 0.0, 1.0, 1.0), {}),
    (RAD, CoefficientVector.equal(4), phi_power(3.0), (0.5, 1.0, 4.0, 8.0), {}),
    (G1, CoefficientVector.normalized([1.0, 2.0]), PHI2, (3.0, 0.0, 1.0, 1.0), {}),
    (CPOIS, CoefficientVector.equal(5), phi_natural(CPOIS), (3.0, 0.0, 1.0, 1.0), {}),
    (UNIF, CoefficientVector.equal(3), PHI2, (3.0, 0.0, 1.0, 1.0),
     {"samples": 40_000, "seed": 5}),
], ids=["rademacher-16", "unsorted-duplicate-u", "power-3", "gaussian-closed-form",
        "poisson-natural", "monte-carlo"])
def test_tail_matches_the_per_u_loop(d, a, phi, u_grid, kw):
    assert tail_compare(d, a, phi, u_grid=u_grid, **kw) == old_tail(d, a, phi, u_grid, **kw)


def test_tail_keeps_the_refusals(monkeypatch):
    a = CoefficientVector.equal(4)
    with pytest.raises(ValueError, match="u >= 0"):
        tail_compare(RAD, a, PHI2, u_grid=(1.0, -0.5))
    monkeypatch.setattr(verify, "weighted_sum_bphi",
                        lambda d, a, phi: NormEstimate(0.0, "grid_sup"))
    with pytest.raises(ValueError, match="tau > 0"):
        tail_compare(RAD, a, PHI2, u_grid=(1.0,))


class _Words:
    """A stand-in generator whose raw words are given: one row per word."""

    def __init__(self, words):
        self.bit_generator, self.words = self, words

    def random_raw(self, shape):
        return self.words.reshape(shape)


def test_sampled_survival_counts_a_sum_rounded_one_ulp_below_u():
    """A row sum whose exact value is u but that rounds to one ulp below it
    counts as reaching u, as the exact survival counts a support point."""
    a = CoefficientVector.normalized(np.arange(1.0, 10.0))
    patterns = np.arange(512, dtype=np.uint64)
    block, _ = RAD.row_sums(a.entries)
    rounded = block(_Words(patterns), 512)
    signs = ((patterns[:, None] >> np.arange(9, dtype=np.uint64)) & np.uint64(1)) * 2.0 - 1.0
    exact = np.array([math.fsum(row) for row in (signs * a.entries).tolist()])
    i = next(i for i in range(512) if rounded[i] == np.nextafter(exact[i], -np.inf) > 0)
    u = float(exact[i])

    samples, seed = 20_000, 5
    x = _joined(draw_sums(RAD, a)(substream(seed, 0x7A11), samples))
    drawn = substream(seed, 0x7A11).bit_generator.random_raw(samples) & np.uint64(511)
    x_exact = exact[drawn.astype(np.intp)]
    assert np.array_equal(x, rounded[drawn.astype(np.intp)])
    assert np.any(x == rounded[i])  # the sample holds the rounded sum

    def survival(v, tie):
        return max(float(np.mean(v >= u - tie)), float(np.mean(v <= -u + tie)))

    # without a slack the rounding decides the count
    assert survival(x, 0.0) < survival(x_exact, 0.0)
    surv, _, method = verify._sampled_survival(RAD, a, [u], samples, seed)(u)
    assert (surv, method) == (survival(x_exact, verify.TAIL_TIE), "monte_carlo")


def test_exact_survival_lets_a_non_refusal_error_through(monkeypatch):
    def broken(*args, **kwargs):
        raise MemoryError("support too large")

    monkeypatch.setattr(verify, "sum_distribution", broken)
    with pytest.raises(MemoryError):
        tail_compare(RAD, CoefficientVector.equal(4), PHI2, u_grid=(1.0,))


def test_log_mgf_sums_iid_and_mixed_forms():
    lam = geometric_grid(1e-3, 1e2)
    w = CoefficientVector.equal(5).entries
    z = np.multiply.outer(lam, w)
    iid = RAD.log_mgf(z.ravel()).reshape(z.shape).sum(axis=-1)
    running = np.zeros_like(lam)
    for c in w:
        running = running + RAD.log_mgf(lam * c)
    got_iid, got_seq = log_mgf_sums([(RAD, w), ([RAD] * 5, w)], lam)
    assert np.array_equal(got_iid, iid)
    assert np.array_equal(got_seq, running)
    np.testing.assert_allclose(got_seq, iid, rtol=1e-14)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_envelope_blocks_keep_the_earlier_loops_on_threads(threads, monkeypatch):
    # trial counts that leave the last block part full, over more blocks than threads
    blocks = []
    real = verify.ordered_map
    monkeypatch.setattr(verify, "ordered_map", lambda fn, items, th=1: (
        blocks.append([len(b) for b in items]) or real(fn, items, th)))
    assert (verify_thm31(RAD, PHI2, trials=47, seed=2, n_cap=9, threads=threads)
            == old_thm31(RAD, PHI2, 47, 2, n_cap=9))
    assert (verify_thm32(UNIF, PHI2, trials=29, seed=3, n_max=8, restarts=1, threads=threads)
            == old_thm32(UNIF, PHI2, 29, 3, 8, 1))
    laws, phis = [RAD, CPOIS, UNIF], [phi_natural(RAD), phi_natural(CPOIS), phi_natural(UNIF)]
    assert (verify_thm41(laws, phis, trials=37, seed=4, n_max=7, restarts=1, threads=threads)
            == old_thm41(laws, phis, 37, 4, 7, 1))
    assert [sum(b) for b in blocks] == [47, 29, 37]
    for sizes in blocks:
        assert len(sizes) > 3 and sizes[-1] < max(sizes)
