"""Executable verification suites for the concentration inequalities at desk
scale: the exact-constant theorem for Conv_2 members, its non-identical
generalization through kappa, the hat-transform variant, the Rosenthal-based
Grand Lebesgue bound, the Pythagoras inequality, and tail-envelope domination.

Every suite is deterministic given (inputs, seed), checks the inequality in
log space with an explicit slack tolerance, and reports the worst witness.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Distribution
from .genfun import (GeneratingFunction, PsiFunction, candidate_profile,
                     conv_r_class, kappa_profile, phi_membership_report,
                     tail_envelope)
from .norms import (CoefficientVector, bphi_norm, bphi_norms, draw_sums,
                    sum_distribution, weighted_sum_bphi, weighted_sum_lp)
from .numerics import geometric_grid, ordered_map, substream

#: optimal-order Rosenthal constant
C_R = 1.776379

SLACK_TOL = 1e-9


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


def _default_grid() -> np.ndarray:
    return geometric_grid(1e-4, 1e3)


def _min_logspace_slack(rhs: np.ndarray, lhs: np.ndarray):
    """min over grid of rhs - lhs, ignoring points where either side
    overflowed; returns (slack, index, masked_count)."""
    ok = np.isfinite(rhs) & np.isfinite(lhs)
    if not np.any(ok):
        return math.inf, -1, int(ok.size)
    gap = np.full(rhs.shape, np.inf)
    gap[ok] = rhs[ok] - lhs[ok]
    i = int(np.argmin(gap))
    return float(gap[i]), i, int(np.sum(~ok))


# ---------------------------------------------------------------------------
# exact-constant theorem (identical laws, Conv_2 member)
# ---------------------------------------------------------------------------

def verify_thm31(d: Distribution, phi: GeneratingFunction, trials: int = 1000,
                 seed: int = 0, n_cap: int = 32, lambda_grid=None,
                 threads: int = 1) -> dict:
    """Check, at the MGF level, that sums with unit-norm weights stay inside
    the envelope exp(phi(lambda * tau)) with tau the single-variable norm.

    The upper half of the statement is the deterministic product inequality
    sum_k ln mgf(a_k lambda) <= phi(lambda tau) on the grid; the lower half is
    witnessed by the n = 1 candidate, whose norm equals tau by definition.
    Raises PreconditionError when phi fails the Conv_2 grid test.
    """
    conv = conv_r_class(phi, 2.0)
    if not conv.member:
        raise PreconditionError(
            f"{phi.label} fails the Conv_2 grid test", witness=conv.witness)
    tau = bphi_norm(d, phi).value
    grid = _default_grid() if lambda_grid is None else np.asarray(lambda_grid, float)
    with np.errstate(over="ignore"):
        rhs = phi(grid * tau)

    def one_trial(t: int):
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
    report = {
        "suite": "thm31",
        "law": d.label,
        "phi": phi.to_json(),
        "tau": tau,
        "trials": trials,
        "n_cap": n_cap,
        "min_log_slack": min_slack,
        "worst_trial": worst,
        "worst_n": results[worst][3],
        "masked_grid_points_total": int(sum(r[2] for r in results)),
        "lower_half_equality": {"n": 1, "norm": tau},
        "slack_tol": SLACK_TOL,
        "pass": bool(min_slack >= -SLACK_TOL),
    }
    return report


# ---------------------------------------------------------------------------
# hat-transform variant (exposed through kappa with identical components)
# ---------------------------------------------------------------------------

def verify_thm32(d: Distribution, phi: GeneratingFunction, trials: int = 200,
                 seed: int = 0, n_max: int = 32, restarts: int = 2,
                 lambda_grid=None, threads: int = 1) -> dict:
    """Check sum_k ln mgf(a_k lambda) <= kappa(lambda * tau) where kappa is
    built from identical components phi and tau is the single-variable norm.

    The literal hat transform diverges as written, so this suite reads it
    through kappa with identical component functions; the report carries that
    linkage flag.
    """
    tau = bphi_norm(d, phi).value
    grid = _default_grid() if lambda_grid is None else np.asarray(lambda_grid, float)
    phis = [phi] * n_max
    kap, _, kmeta = kappa_profile(phis, grid * tau, n_max=n_max,
                                  restarts=restarts, seed=seed)

    def one_trial(t: int):
        rng = substream(seed, 0x7132, t)
        n = int(rng.integers(1, n_max + 1))
        a = CoefficientVector.random_sphere(n, rng)
        z = np.multiply.outer(grid, a.entries)
        lhs = d.log_mgf(z.ravel()).reshape(z.shape).sum(axis=1)
        cand, _ = candidate_profile(phis, a.entries**2, grid * tau)
        rhs = np.maximum(kap, cand)  # fold the tested candidate into the sup
        return _min_logspace_slack(rhs, lhs)

    results = ordered_map(one_trial, range(trials), threads)
    slacks = [r[0] for r in results]
    min_slack = float(np.min(slacks))
    return {
        "suite": "thm32",
        "law": d.label,
        "phi": phi.to_json(),
        "tau": tau,
        "trials": trials,
        "hat_transform_via_kappa": True,
        "kappa_meta": kmeta,
        "min_log_slack": min_slack,
        "slack_tol": SLACK_TOL,
        "pass": bool(min_slack >= -SLACK_TOL),
    }


# ---------------------------------------------------------------------------
# non-identical laws through kappa
# ---------------------------------------------------------------------------

def verify_thm41(laws, phis, trials: int = 1000, seed: int = 0,
                 n_max: int = 32, restarts: int = 2, lambda_grid=None,
                 threads: int = 1) -> dict:
    """Check the product-MGF bound prod_k mgf_k(a_k lambda) <= exp(kappa(lambda))
    for mixed laws, with each phi_k required to dominate its law's log-MGF.

    laws/phis are matched pools cycled out to n_max components. kappa is a
    lower estimate of its sup, so each tested candidate's own component sum is
    folded into the right side before comparing (the actual proof chain).
    """
    laws = list(laws)
    phis = list(phis)
    if len(laws) != len(phis) or not laws:
        raise PreconditionError("laws and phis must be matched nonempty pools")
    grid = _default_grid() if lambda_grid is None else np.asarray(lambda_grid, float)
    for k, (law, p) in enumerate(zip(laws, phis)):
        dom = p(grid) - np.maximum(law.log_mgf(grid), law.log_mgf(-grid))
        if np.min(dom) < -SLACK_TOL:
            i = int(np.argmin(dom))
            raise PreconditionError(
                f"phi[{k}] = {p.label} fails to dominate ln mgf of {law.label}",
                witness={"k": k, "lambda": float(grid[i]), "gap": float(dom[i])})
    seq_laws = [laws[k % len(laws)] for k in range(n_max)]
    seq_phis = [phis[k % len(phis)] for k in range(n_max)]
    kap, _, kmeta = kappa_profile(seq_phis, grid, n_max=n_max,
                                  restarts=restarts, seed=seed)
    kappa_phi_checks = {
        "even_by_construction": True,
        "nondecreasing_on_grid": bool(np.all(np.diff(kap[np.isfinite(kap)]) >= -1e-12)),
    }

    def one_trial(t: int):
        rng = substream(seed, 0x7141, t)
        n = int(rng.integers(1, n_max + 1))
        a = CoefficientVector.random_sphere(n, rng)
        lhs = np.zeros_like(grid)
        for k in range(n):
            lhs = lhs + seq_laws[k].log_mgf(grid * a.entries[k])
        cand, _ = candidate_profile(seq_phis, a.entries**2, grid)
        rhs = np.maximum(kap, cand)
        return _min_logspace_slack(rhs, lhs)

    results = ordered_map(one_trial, range(trials), threads)
    min_slack = float(np.min([r[0] for r in results]))
    return {
        "suite": "thm41",
        "laws": [d.label for d in laws],
        "phis": [p.label for p in phis],
        "trials": trials,
        "n_max": n_max,
        "kappa_meta": kmeta,
        "kappa_membership": kappa_phi_checks,
        "min_log_slack": min_slack,
        "slack_tol": SLACK_TOL,
        "pass": bool(min_slack >= -SLACK_TOL),
    }


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
    ok = True
    for p in p_values:
        for n in n_values:
            r = rosenthal_verify(d, float(p), CoefficientVector.equal(int(n)),
                                 engine=engine, budget=budget, seed=seed)
            rows.append({k: r[k] for k in
                         ("p", "n", "lhs", "rhs", "rhs_gls_form", "pass")})
            ok = ok and r["pass"]
    return {"suite": "thm51", "law": d.label, "rows": rows, "pass": bool(ok)}


# ---------------------------------------------------------------------------
# Pythagoras inequality
# ---------------------------------------------------------------------------

def pythagoras_check(phi: GeneratingFunction, laws=None, trials: int = 1000,
                     seed: int = 0, threads: int = 1) -> dict:
    """Check ||sum eta_j||^2 <= sum ||eta_j||^2 for 2..5 independent scaled
    summands drawn from the pool, with the sum's norm computed from the exact
    product log-MGF. Gaussian-only draws must achieve equality."""
    conv = conv_r_class(phi, 2.0)
    if not conv.member:
        raise PreconditionError(
            f"{phi.label} fails the Conv_2 grid test", witness=conv.witness)
    pool = list(laws) if laws is not None else [Distribution.rademacher(),
                                                Distribution.gaussian(1.0)]

    def one_trial(t: int):
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

        # the k part norms and the sum's norm in one batch
        sources = [lambda lam, law=law, c=c: law.log_mgf(np.asarray(lam) * c)
                   for law, c in parts] + [log_mgf_sum]
        variances = [c * c * law.variance for law, c in parts]
        variances.append(sum(variances))
        *part_norms, sum_norm = bphi_norms(sources, phi, variances=variances)
        rhs = 0.0
        for est in part_norms:
            rhs += est.value * est.value
        lhs = sum_norm.value ** 2
        # scaled sums of a stable law (the Gaussian) attain equality
        stable_only = all(law.is_stable for law, _ in parts)
        return lhs - rhs, stable_only, abs(lhs - rhs)

    results = ordered_map(one_trial, range(trials), threads)
    violations = [r[0] for r in results]
    max_violation = float(np.max(violations))
    gauss_dev = [r[2] for r in results if r[1]]
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

def _exact_survival(d: Distribution, a: CoefficientVector, u: float):
    """max of both tail probabilities of sum a_k X_k, exact; None if no exact
    engine applies."""
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


def tail_compare(d: Distribution, a: CoefficientVector,
                 phi: GeneratingFunction, u_grid=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
                 samples: int = 200_000, seed: int = 0) -> dict:
    """Compare the conjugate tail envelope exp(-phi*(u/tau)) of the weighted
    sum against its exact (or sampled) survival function.

    Passes when the envelope dominates the empirical survival minus 3 binomial
    standard errors at every u. Also reports the fitted empirical constant of
    an exp(-c u^m') tail, m' = min(m, 2) for power members and 2 otherwise;
    that constant is a surrogate only, never asserted against.
    """
    tau = weighted_sum_bphi(d, a, phi).value
    m_exp = phi.tail_exponent
    rows = []
    ok = True
    fitted = math.inf
    mc_vals = None
    for u in u_grid:
        u = float(u)
        env = tail_envelope(phi, tau, u)
        exact = _exact_survival(d, a, u)
        if exact is not None:
            surv, method = exact
            se = 0.0
        else:
            if mc_vals is None:
                mc_vals = draw_sums(d, a, substream(seed, 0x7A11), samples)
            up = float(np.mean(mc_vals >= u))
            dn = float(np.mean(mc_vals <= -u))
            surv = max(up, dn)
            se = math.sqrt(max(surv * (1.0 - surv), 1.0 / samples) / samples)
            method = "monte_carlo"
        passed = env >= surv - 3.0 * se
        ok = ok and passed
        if u > 0 and surv > 0:
            fitted = min(fitted, -math.log(surv) / u**m_exp)
        rows.append({"u": u, "envelope": env, "survival": surv,
                     "survival_se": se, "method": method, "pass": bool(passed)})
    return {
        "suite": "tail",
        "law": d.label,
        "phi": phi.to_json(),
        "n": a.n,
        "tau": tau,
        "rows": rows,
        "fitted_tail_constant": None if not math.isfinite(fitted) else fitted,
        "tail_exponent": m_exp,
        "pass": bool(ok),
    }
