"""Executable verification suites for the concentration inequalities at desk
scale. Every suite is deterministic given (inputs, seed), checks its
inequality in log space with an explicit slack tolerance, and reports the
worst witness.

The three MGF-envelope theorems share one trial loop, `_envelope_suite`:
trial t draws n and a unit sphere vector a from substream(seed, tag, t) and
checks left <= right on a lambda grid. The trials run in contiguous blocks
of at most ENVELOPE_BLOCK weights x lambdas, which --threads splits over
workers. The left side is always sum_k ln E exp(a_k lambda X_k), a block's
from one log-MGF call per distinct law (`norms.log_mgf_sums`); the right
sides are

  thm31, tag 0x7131: phi(lambda tau), identical laws, phi in Conv_2, tau the
                     one-copy norm;
  thm32, tag 0x7132: kappa of n_max copies of phi at lambda tau (the hat
                     transform read through kappa), max'd with the tested
                     candidate's own component sum;
  thm41, tag 0x7141: kappa of the cycled phi pool at lambda, max'd with the
                     candidate's own sum; laws cycled alike, each phi_k
                     dominating its law's log-MGF.

The other suites: the Rosenthal bound and its Grand Lebesgue form (thm51),
the Pythagoras inequality (tag 0x9717) and tail-envelope domination (Monte
Carlo draws on tag 0x7A11 where no exact engine applies).
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Distribution
from .genfun import (DomainError, GeneratingFunction, PsiFunction,
                     candidate_profile, conjugate_profile, conv_r_class,
                     kappa_profile)
from .norms import (CoefficientVector, EngineRefusal, bphi_norm, bphi_norms,
                    draw_sums, log_mgf_sums, log_mgf_two_sided, sum_distribution,
                    sum_log_mgf, weighted_sum_bphi, weighted_sum_lp)
from .numerics import NORM_GRID_HI, NORM_GRID_LO, geometric_grid, ordered_map, substream

#: optimal-order Rosenthal constant
C_R = 1.776379

SLACK_TOL = 1e-9
#: a sum within this of u counts as reaching it, exact or sampled: neither the
#: support collapse nor a row sum's rounding decides a tie
TAIL_TIE = 1e-12
#: trials per `bphi_norms` call of `pythagoras_check`; the call's arrays grow with it
PYTHAGORAS_BLOCK = 8
#: most weights x lambdas of an envelope block: one trial at n = 32 on the
#: 449-point norm grid, the largest of the default suites. Its arrays stay
#: below the 128 KiB from which glibc maps each allocation afresh, and a block
#: past that faulted its pages in on every call (3x the time on one thread).
ENVELOPE_BLOCK = 449 * 32


class PreconditionError(RuntimeError):
    """A suite precondition failed; carries a witness payload."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def rosenthal_c(p: float) -> float:
    """C(p) = C_R * p / (e ln p) for p >= 2."""
    if p < 2:
        raise ValueError("rosenthal_c is defined for p >= 2")
    return C_R * p / (math.e * math.log(p))


def rosenthal_psi(psi: PsiFunction) -> PsiFunction:
    """psi_R(p) = C_R * p/(e ln p) * psi(p) on the same grid."""
    scale = np.array([rosenthal_c(float(p)) for p in psi.p_grid])
    return PsiFunction(psi.p_grid, scale * psi.values, "rosenthal_scaled")


def _require_conv2(phi: GeneratingFunction) -> None:
    conv = conv_r_class(phi, 2.0)
    if not conv.member:
        raise PreconditionError(
            f"{phi.label} fails the Conv_2 grid test", witness=conv.witness)


def _min_logspace_slack(rhs: np.ndarray, lhs: np.ndarray):
    """min over the grid (the last axis) of rhs - lhs, ignoring points where
    either side overflowed; returns (slack, index, masked_count), one of each
    per row of a 2-d input (slack inf and index -1 where no point is left)."""
    ok = np.isfinite(rhs) & np.isfinite(lhs)
    gap = np.subtract(rhs, lhs, out=np.full(ok.shape, np.inf), where=ok)
    i = np.where(ok.any(axis=-1), np.argmin(gap, axis=-1), -1)
    return gap.min(axis=-1).tolist(), i.tolist(), np.count_nonzero(~ok, axis=-1).tolist()


# ---------------------------------------------------------------------------
# the MGF-envelope theorems
# ---------------------------------------------------------------------------

#: the report keys every envelope suite carries
VERDICT = ("min_log_slack", "slack_tol", "pass")


def _envelope_suite(tag: int, n_hi: int, lhs, rhs, points: int, trials: int, seed: int,
                    threads: int) -> dict:
    """Trial t draws n in 1..n_hi and a unit sphere vector a from
    substream(seed, tag, t) and takes the least slack of its right side
    minus its left side on the grid of `points` lambdas; the worst trial
    decides. The trials are drawn in order and packed into contiguous
    blocks of at most ENVELOPE_BLOCK weights x points (a larger trial alone),
    which `ordered_map` splits over `threads` workers: lhs(block) and
    rhs(block) give one side per trial of a block (a list of
    CoefficientVectors), or one for all, and every trial keeps the bits it
    has alone."""
    blocks, size = [], ENVELOPE_BLOCK
    for t in range(trials):
        rng = substream(seed, tag, t)
        a = CoefficientVector.random_sphere(int(rng.integers(1, n_hi + 1)), rng)
        if size + a.n * points > ENVELOPE_BLOCK:
            blocks.append([])
            size = 0
        blocks[-1].append(a)
        size += a.n * points

    def block(cands):
        slack, _, masked = _min_logspace_slack(np.asarray(rhs(cands)), np.array(lhs(cands)))
        return list(zip(slack, masked, [a.n for a in cands]))

    results = [r for b in ordered_map(block, blocks, threads) for r in b]
    worst = int(np.argmin([r[0] for r in results]))
    slack = results[worst][0]
    return {"min_log_slack": slack, "worst_trial": worst, "worst_n": results[worst][2],
            "masked_grid_points_total": int(sum(r[1] for r in results)),
            "slack_tol": SLACK_TOL, "pass": bool(slack >= -SLACK_TOL)}


def _sum_side(laws, grid):
    """block -> the left side of each trial a: sum_k ln E exp(a_k lambda X_k)
    on the grid, one log_mgf call per distinct law (`norms.log_mgf_sums`)."""
    return lambda cands: log_mgf_sums(laws, [a.entries for a in cands], grid)


def _kappa_side(phis, lams, n_max: int, restarts: int, seed: int):
    """(kappa on lams, its meta, block -> the right side of each trial a):
    kappa is a lower estimate of its sup, so each tested candidate's own
    component sum is folded in (the actual proof chain)."""
    kap, _, meta = kappa_profile(phis, lams, n_max=n_max, restarts=restarts, seed=seed)
    return kap, meta, lambda cands: [
        np.maximum(kap, candidate_profile(phis, a.entries**2, lams)[0]) for a in cands]


def verify_thm31(d: Distribution, phi: GeneratingFunction, trials: int = 1000,
                 seed: int = 0, n_cap: int = 32, threads: int = 1) -> dict:
    """Check, at the MGF level, that sums with unit-norm weights stay inside
    the envelope exp(phi(lambda * tau)) with tau the single-variable norm.

    The upper half of the statement is the deterministic product inequality
    sum_k ln mgf(a_k lambda) <= phi(lambda tau) on the grid; the lower half is
    witnessed by the n = 1 candidate, whose norm equals tau by definition.
    Raises PreconditionError when phi fails the Conv_2 grid test.
    """
    _require_conv2(phi)
    tau = bphi_norm(d, phi).value
    grid = geometric_grid(NORM_GRID_LO, NORM_GRID_HI)
    with np.errstate(over="ignore"):
        rhs = phi(grid * tau)
    suite = _envelope_suite(0x7131, n_cap, _sum_side(d, grid), lambda cands: rhs, grid.size,
                            trials, seed, threads)
    return {"suite": "thm31", "law": d.label, "phi": phi.to_json(), "tau": tau,
            "trials": trials, "n_cap": n_cap, **suite,
            "lower_half_equality": {"n": 1, "norm": tau}}


def verify_thm32(d: Distribution, phi: GeneratingFunction, trials: int = 200,
                 seed: int = 0, n_max: int = 32, restarts: int = 2,
                 threads: int = 1) -> dict:
    """Check sum_k ln mgf(a_k lambda) <= kappa(lambda * tau) where kappa is
    built from identical components phi and tau is the single-variable norm.

    The literal hat transform diverges as written, so this suite reads it
    through kappa with identical component functions; the report carries that
    linkage flag.
    """
    tau = bphi_norm(d, phi).value
    grid = geometric_grid(NORM_GRID_LO, NORM_GRID_HI)
    _, kmeta, rhs = _kappa_side([phi] * n_max, grid * tau, n_max, restarts, seed)
    suite = _envelope_suite(0x7132, n_max, _sum_side(d, grid), rhs, grid.size,
                            trials, seed, threads)
    return {"suite": "thm32", "law": d.label, "phi": phi.to_json(), "tau": tau,
            "trials": trials, "hat_transform_via_kappa": True, "kappa_meta": kmeta,
            **{k: suite[k] for k in VERDICT}}


def verify_thm41(laws, phis, trials: int = 1000, seed: int = 0,
                 n_max: int = 32, restarts: int = 2, threads: int = 1) -> dict:
    """Check the product-MGF bound prod_k mgf_k(a_k lambda) <= exp(kappa(lambda))
    for mixed laws, with each phi_k required to dominate its law's log-MGF.

    laws/phis are matched pools cycled out to n_max components.
    """
    laws = list(laws)
    phis = list(phis)
    if len(laws) != len(phis) or not laws:
        raise PreconditionError("laws and phis must be matched nonempty pools")
    grid = geometric_grid(NORM_GRID_LO, NORM_GRID_HI)
    for k, (law, p) in enumerate(zip(laws, phis)):
        rhs, lhs = p(grid), log_mgf_two_sided(law)(grid)
        # equal sides (also both inf) dominate; argmin finds the first NaN, a failure
        dom = np.subtract(rhs, lhs, out=np.zeros(grid.shape), where=rhs != lhs)
        i = int(np.argmin(dom))
        if not dom[i] >= -SLACK_TOL:
            raise PreconditionError(
                f"phi[{k}] = {p.label} fails to dominate ln mgf of {law.label}",
                witness={"k": k, "lambda": float(grid[i]), "gap": float(dom[i])})
    seq_laws = [laws[k % len(laws)] for k in range(n_max)]
    kap, kmeta, rhs = _kappa_side([phis[k % len(phis)] for k in range(n_max)], grid,
                                  n_max, restarts, seed)
    suite = _envelope_suite(0x7141, n_max, _sum_side(seq_laws, grid), rhs, grid.size,
                            trials, seed, threads)
    return {"suite": "thm41", "laws": [d.label for d in laws],
            "phis": [p.label for p in phis], "trials": trials, "n_max": n_max,
            "kappa_meta": kmeta,
            "kappa_membership": {
                "even_by_construction": True,
                "nondecreasing_on_grid": bool(np.all(np.diff(kap[np.isfinite(kap)]) >= -1e-12)),
            },
            **{k: suite[k] for k in VERDICT}}


# ---------------------------------------------------------------------------
# Rosenthal / Grand Lebesgue bound
# ---------------------------------------------------------------------------

def rosenthal_verify(d: Distribution, p: float, a: CoefficientVector,
                     engine: str = "auto", budget: int | None = None,
                     seed: int = 0) -> dict:
    """Check ||sum a_j X_j||_p <= C(p) * max(||sum||_2, (sum |a_j|^p E|X|^p)^(1/p))
    and the Grand Lebesgue form ||sum||_p <= psi_R(p) * ||X||_{G psi} with the
    law's natural psi (for which the G-psi norm is 1 by construction)."""
    if p < 2:
        raise PreconditionError("rosenthal_verify needs p >= 2")
    lhs = weighted_sum_lp(d, a, p, engine=engine, budget=budget, seed=seed)
    sigma = math.sqrt(d.variance) * math.sqrt(float(np.dot(a.entries, a.entries)))
    xi_p = d.lp_norm(p)
    core = max(sigma, a.lp_norm(p) * xi_p)
    cp = rosenthal_c(p)
    rhs = cp * core
    rhs_gls = cp * xi_p  # psi natural => G-psi norm of the law is exactly 1
    tol = SLACK_TOL * max(1.0, rhs)
    return {
        "suite": "rosenthal",
        "law": d.label,
        "p": p,
        "n": a.n,
        "lhs": lhs.value,
        "lhs_method": lhs.method,
        "lhs_ci": lhs.ci_halfwidth,
        "c_of_p": cp,
        "c_r": C_R,
        "l2_term": sigma,
        "aggregate_term": a.lp_norm(p) * xi_p,
        "rhs": rhs,
        "rhs_gls_form": rhs_gls,
        "pass_core": bool(lhs.value - lhs.ci_halfwidth <= rhs + tol),
        "pass_gls": bool(lhs.value - lhs.ci_halfwidth <= rhs_gls + tol),
        "pass": bool(lhs.value - lhs.ci_halfwidth <= min(rhs, rhs_gls) + tol),
    }


def verify_thm51(d: Distribution, p_values=(2.0, 4.0, 6.0, 8.0),
                 n_values=(4, 16, 64), engine: str = "auto",
                 budget: int | None = None, seed: int = 0) -> dict:
    """Rosenthal bound swept over a (p, n) grid with equal weights."""
    rows = []
    for p in p_values:
        for n in n_values:
            r = rosenthal_verify(d, float(p), CoefficientVector.equal(int(n)),
                                 engine=engine, budget=budget, seed=seed)
            rows.append({k: r[k] for k in
                         ("p", "n", "lhs", "rhs", "rhs_gls_form", "pass")})
    return {"suite": "thm51", "law": d.label, "rows": rows,
            "pass": all(r["pass"] for r in rows)}


# ---------------------------------------------------------------------------
# Pythagoras inequality
# ---------------------------------------------------------------------------

def pythagoras_check(phi: GeneratingFunction, laws=None, trials: int = 1000,
                     seed: int = 0) -> dict:
    """Check ||sum eta_j||^2 <= sum ||eta_j||^2 for 2..5 independent scaled
    summands drawn from the pool, with the sum's norm computed from the exact
    product log-MGF. Gaussian-only draws must achieve equality. A part c X
    scores c ||X|| (1-homogeneity; one `bphi_norms` call on the pool) unless
    the grid of ||X|| was truncated or unbounded, where the sup can sit at
    the grid's end, which does not scale: such a part is scored alone. The
    sums and such parts of PYTHAGORAS_BLOCK trials share one call."""
    _require_conv2(phi)
    pool = list(laws) if laws is not None else [Distribution.rademacher(),
                                                Distribution.gaussian(1.0)]
    taus = [None if e.meta["truncated"] or e.meta.get("unbounded") else e.value
            for e in bphi_norms(pool, phi)]
    results = []
    for block in range(0, trials, PYTHAGORAS_BLOCK):
        sources, variances, draws = [], [], []
        for t in range(block, min(block + PYTHAGORAS_BLOCK, trials)):
            rng = substream(seed, 0x9717, t)
            k = int(rng.integers(2, 6))
            idx = rng.integers(0, len(pool), size=k)
            scales = rng.uniform(0.5, 1.5, size=k)
            terms = [pool[i] for i in idx]
            alone = [(pool[i], c) for i, c in zip(idx, scales) if taus[i] is None]
            sources += [sum_log_mgf([law], [c]) for law, c in alone] + [sum_log_mgf(terms, scales)]
            variances += [c * c * law.variance for law, c in alone]
            variances.append(sum(c * c * law.variance for law, c in zip(terms, scales)))
            draws.append(([None if taus[i] is None else c * taus[i] for i, c in zip(idx, scales)],
                          all(law.is_stable for law in terms)))
        ests = iter(bphi_norms(sources, phi, variances=variances))
        for parts, stable in draws:  # a trial's parts scored alone, then its sum
            rhs = sum((next(ests).value if v is None else v) ** 2 for v in parts)
            # scaled sums of a stable law (the Gaussian) attain equality
            results.append((next(ests).value ** 2 - rhs, stable))
    max_violation = float(np.max([r[0] for r in results]))
    gauss_dev = [abs(r[0]) for r in results if r[1]]
    max_gauss_dev = float(np.max(gauss_dev)) if gauss_dev else 0.0
    return {
        "suite": "pythagoras",
        "phi": phi.to_json(),
        "pool": [d.label for d in pool],
        "trials": trials,
        "max_violation": max_violation,
        "gaussian_only_trials": len(gauss_dev),
        "max_gaussian_equality_deviation": max_gauss_dev,
        "slack_tol": SLACK_TOL,
        "pass": bool(max_violation <= SLACK_TOL and max_gauss_dev <= SLACK_TOL),
    }


# ---------------------------------------------------------------------------
# tail-envelope domination
# ---------------------------------------------------------------------------

def _exact_survival(d: Distribution, a: CoefficientVector):
    """u -> (max of both tail probabilities of sum a_k X_k, 0, method) from
    an exact engine; None when every exact engine refuses."""
    law = d.sum_law(a.entries)
    if law is not None:
        return lambda u: (law.tail(u), 0.0, f"{law.law}_closed_form")
    try:
        vals, probs, method = sum_distribution(d, a)
    except EngineRefusal:
        return None
    return lambda u: (max(float(np.sum(probs[vals >= u - TAIL_TIE])),
                          float(np.sum(probs[vals <= -u + TAIL_TIE]))), 0.0, method)


def _sampled_survival(d: Distribution, a: CoefficientVector, samples: int, seed: int):
    """u -> (sampled max of both tail probabilities, its binomial standard
    error, "monte_carlo") from one set of draws, ties within TAIL_TIE as
    in `_exact_survival`."""
    x = draw_sums(d, a)(substream(seed, 0x7A11), samples)

    def at(u):
        surv = max(float(np.mean(x >= u - TAIL_TIE)), float(np.mean(x <= -u + TAIL_TIE)))
        return surv, math.sqrt(max(surv * (1.0 - surv), 1.0 / samples) / samples), "monte_carlo"

    return at


def tail_compare(d: Distribution, a: CoefficientVector,
                 phi: GeneratingFunction, u_grid=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
                 samples: int = 200_000, seed: int = 0) -> dict:
    """Compare the conjugate tail envelope exp(-phi*(u/tau)) of the weighted
    sum against its exact (or sampled) survival function.

    Every phi* comes from one `conjugate_profile` on the distinct u/tau.
    Passes when the envelope dominates the empirical survival minus 3
    binomial standard errors at every u. Also reports the fitted empirical
    constant of an exp(-c u^m') tail, m' = min(m, 2) for power members and 2
    otherwise; that constant is a surrogate only, never asserted against.
    """
    tau = weighted_sum_bphi(d, a, phi).value
    us = [float(u) for u in u_grid]
    if not tau > 0:
        raise DomainError("tail envelope needs tau > 0")
    if any(u < 0 for u in us):
        raise DomainError("tail envelope needs u >= 0")
    knots, inverse = np.unique(np.array(us) / tau, return_inverse=True)
    conj = conjugate_profile(phi, knots).values[inverse].tolist()
    survival = _exact_survival(d, a) or _sampled_survival(d, a, samples, seed)
    m_exp = phi.tail_exponent
    rows = []
    fitted = math.inf
    for u, val in zip(us, conj):
        env = math.exp(-val) if math.isfinite(val) else 0.0
        surv, se, method = survival(u)
        if u > 0 and surv > 0:
            fitted = min(fitted, -math.log(surv) / u**m_exp)
        rows.append({"u": u, "envelope": env, "survival": surv, "survival_se": se,
                     "method": method, "pass": bool(env >= surv - 3.0 * se)})
    return {
        "suite": "tail",
        "law": d.label,
        "phi": phi.to_json(),
        "n": a.n,
        "tau": tau,
        "rows": rows,
        "fitted_tail_constant": None if not math.isfinite(fitted) else fitted,
        "tail_exponent": m_exp,
        "pass": all(r["pass"] for r in rows),
    }
