"""Independent oracles for the benchmark's job reports.

Nothing here imports `khinchine`: every expected value comes from a closed
form (Haagerup's Khintchine constants, Gaussian and Rademacher moments), from
exact binomial sums, or from the benchmark's own distance and covering code.
Each `check_*` function takes a parsed report and returns a `Verdict`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: relative tolerance for values the program computes exactly
EXACT_RTOL = 1e-9
#: relative tolerance for the trapezoid Dudley integral against the exact
#: breakpoint sum (the trapezoid is an approximation by design)
DUDLEY_RTOL = 1e-2
#: the program's Monte Carlo ci_halfwidth is 3 standard errors; a value
#: passes within 5, so a correct estimate fails about once in 1.7 million
#: checks rather than once in 370
REPORTED_CI_SIGMAS = 3.0
MC_GATE_SIGMAS = 5.0
#: resolution of the oracle_gap metric: closer than the program's 1e-12
#: support-collapse tolerance reads as equal
GAP_FLOOR = 1e-12


@dataclass
class Verdict:
    """Outcome of one job's checks. `gaps` holds relative distances of
    deterministic headline values from their exact answers; `notes` holds
    informational comparisons that are not part of oracle_gap."""

    ok: bool = True
    problems: list = field(default_factory=list)
    gaps: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.ok = False
            self.problems.append(message)

    def exact(self, label: str, value, expected: float, rtol: float = EXACT_RTOL) -> None:
        """Compare a value the program computes exactly; records its gap."""
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            self.require(False, f"{label}: not a finite number: {value!r}")
            return
        gap = abs(value - expected) / abs(expected)
        self.gaps[label] = gap
        self.require(gap <= rtol, f"{label}: {value!r} vs exact {expected!r} (rel {gap:.3e})")

    def within_ci(self, label: str, value, ci, expected: float) -> None:
        """A Monte Carlo value must lie within MC_GATE_SIGMAS standard errors
        of the truth, as its reported band gives them. Whether it lies within
        the reported band itself is noted."""
        if not all(isinstance(x, (int, float)) for x in (value, ci)):
            self.require(False, f"{label}: missing value or ci")
            return
        gate = ci * MC_GATE_SIGMAS / REPORTED_CI_SIGMAS
        self.notes[label] = {"value": value, "ci": ci, "exact": expected,
                             "within_reported_ci": abs(value - expected) <= ci}
        self.require(abs(value - expected) <= gate,
                     f"{label}: {value!r} not within {gate!r} "
                     f"({MC_GATE_SIGMAS:g} standard errors) of {expected!r}")

    @property
    def max_gap(self) -> float:
        return max([GAP_FLOOR, *self.gaps.values()])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def haagerup_inf(p: float) -> float:
    """Haagerup (1981): the Rademacher Khintchine inf constant in L_p is
    2^(1/2 - 1/p) for 1 <= p <= p0 ~ 1.847, attained at n = 2."""
    if not 1.0 <= p <= 1.847:
        raise ValueError("closed form holds for 1 <= p <= 1.847")
    return 2.0 ** (0.5 - 1.0 / p)


def gaussian_lp(p: float) -> float:
    """||Z||_p of a standard Gaussian: (2^(p/2) Gamma((p+1)/2) / sqrt(pi))^(1/p)."""
    return (2.0 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)) ** (1.0 / p)


def rademacher_equal_lp(n: int, p: float) -> float:
    """||n^(-1/2) (e_1 + ... + e_n)||_p for Rademacher e_k, by the exact
    binomial sum over the number of +1 signs."""
    total = math.fsum(math.comb(n, k) / 2 ** n * abs(2 * k - n) ** p for k in range(n + 1))
    return (total / n ** (p / 2)) ** (1.0 / p)


def rademacher_equal_tail(n: int, u: float) -> float:
    """P(n^(-1/2) (e_1 + ... + e_n) >= u), exact."""
    hits = sum(math.comb(n, k) for k in range(n + 1) if (2 * k - n) / math.sqrt(n) >= u - 1e-12)
    return hits / 2.0 ** n


def rademacher_lp4_sup(n_max: int) -> float:
    """sup over n <= n_max and unit weights of ||sum a_k e_k||_4.

    E S^4 = 3 - 2 sum a_k^4, and sum a_k^4 >= 1/n with equality at equal
    weights, so the sup is (3 - 2/n_max)^(1/4)."""
    return (3.0 - 2.0 / n_max) ** 0.25


def uniform_lp4_sup(b: float, n_max: int) -> float:
    """The same sup for X uniform on [-b, b]: with s2 = b^2/3 and
    E X^4 = b^4/5, E S^4 = 3 s2^2 - (2 b^4/15) sum a_k^4."""
    return (b ** 4 / 3.0 - 2.0 * b ** 4 / (15.0 * n_max)) ** 0.25


def ln_cosh_small(x: float) -> float:
    """ln cosh x by its Taylor series, accurate to double precision for
    |x| < 0.05."""
    if abs(x) >= 0.05:
        raise ValueError("series used only for |x| < 0.05")
    x2 = x * x
    return x2 * (1 / 2 + x2 * (-1 / 12 + x2 * (1 / 45 + x2 * (-17 / 2520 + x2 * 31 / 14175))))


def overline_rademacher(lam: float, n_cap: int) -> float:
    """sup over 1 <= n <= n_cap of n ln cosh(lam / sqrt n). The map is
    increasing in n, so the sup is attained at n_cap."""
    return n_cap * ln_cosh_small(lam / math.sqrt(n_cap))


# ---------------------------------------------------------------------------
# finite metric spaces
# ---------------------------------------------------------------------------

def euclidean_distances(points: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, exactly symmetric with a zero diagonal."""
    x = np.asarray(points, dtype=float)
    diff = x[:, None, :] - x[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    r = np.minimum(r, r.T)
    np.fill_diagonal(r, 0.0)
    return r


def greedy_cover(ball: np.ndarray) -> list:
    """Greedy set cover by the rows of a boolean ball matrix (ball[i, j]: row
    i covers point j): each step takes the row covering most uncovered
    points, ties to the lowest index. Returns the chosen rows in order."""
    ball = np.asarray(ball, dtype=np.int32)
    uncovered = np.ones(ball.shape[1], dtype=np.int32)
    chosen = []
    while uncovered.any():
        i = int(np.argmax(ball @ uncovered))
        uncovered[ball[i] == 1] = 0
        chosen.append(i)
    return chosen


def greedy_cover_count(rho: np.ndarray, eps: float) -> int:
    """Number of closed eps-balls centred at points that the greedy cover takes."""
    return len(greedy_cover(rho <= eps))


#: the bit of a numpy int64 mask that is its sign
INT64_SIGN_BIT = 63


def int64_mask_ball(ball: np.ndarray) -> np.ndarray:
    """The ball matrix as the known `_ball_masks` defect sees it.

    That code sums `1 << z` with z a numpy int64: bit 63 is the sign and
    shifts of 64 or more give 0. A mask holding point 63 is then a negative
    Python int, whose bits 63 and up are all set. So each row covers its
    points below 63 as it should, and covers every point from 63 up exactly
    when it holds point 63. Applied to spaces of at most 63 points it is the
    identity."""
    ball = np.array(ball, dtype=bool)
    if ball.shape[1] > INT64_SIGN_BIT:
        ball[:, INT64_SIGN_BIT:] = ball[:, [INT64_SIGN_BIT]]
    return ball


def dudley_breakpoints(rho: np.ndarray, cover_count=greedy_cover_count) -> float:
    """Exact integral over eps > 0 of sqrt(ln N(eps)) with N the greedy
    covering number: N is constant between consecutive distinct distances,
    so the integral is a finite sum. `cover_count(rho, eps)` gives N."""
    pos = np.unique(rho[rho > 0])
    if pos.size == 0:
        return 0.0
    terms = [float(pos[0]) * math.sqrt(math.log(cover_count(rho, pos[0] * 0.5)))]
    for lo, hi in zip(pos[:-1], pos[1:]):
        terms.append((float(hi) - float(lo)) * math.sqrt(math.log(cover_count(rho, lo))))
    return math.fsum(terms)


def int64_mask_cover_count(rho: np.ndarray, eps: float) -> int:
    """The greedy covering number the known `_ball_masks` defect reports."""
    return len(greedy_cover(int64_mask_ball(rho <= eps)))


# ---------------------------------------------------------------------------
# report checks (one per job kind)
# ---------------------------------------------------------------------------

def check_search(report: dict, *, direction: str, n_max: int, exact: float,
                 ceiling: float | None = None) -> Verdict:
    """A Khintchine sup/inf search whose optimum over n <= n_max is known."""
    v = Verdict()
    body = report.get("report", {})
    v.require(body.get("direction") == direction, f"direction {body.get('direction')!r}")
    v.require(body.get("n_max") == n_max, f"n_max {body.get('n_max')!r}")
    v.require(isinstance(body.get("witness"), list), "missing witness")
    value = body.get("value")
    v.exact("value", value, exact)
    if ceiling is not None and isinstance(value, float):
        v.require(value <= ceiling * (1 + EXACT_RTOL), f"value {value!r} above {ceiling!r}")
    return v


def check_gls_sqrtp_sup(report: dict, *, n_max: int, p_grid) -> Verdict:
    """Rademacher sums have ||S||_2 = 1 and ||S||_p <= ||Z||_p (p >= 2), so
    the sup of max_p ||S||_p / sqrt(p) equals max_p ||Z||_p / sqrt(p)."""
    exact = max(gaussian_lp(p) / math.sqrt(p) for p in p_grid)
    return check_search(report, direction="lower_bound_of_sup", n_max=n_max, exact=exact)


def check_thm51(report: dict, *, p_values, n_values) -> Verdict:
    v = Verdict()
    body = report.get("report", {})
    v.require(body.get("pass") is True, "suite did not pass")
    rows = body.get("rows", [])
    v.require(len(rows) == len(p_values) * len(n_values), f"{len(rows)} rows")
    for row in rows:
        p, n = row.get("p"), row.get("n")
        if p is None or n is None:
            v.require(False, "row without p or n")
            continue
        v.exact(f"lhs[p={p:g},n={n}]", row.get("lhs"), rademacher_equal_lp(int(n), p))
        v.require(row.get("rhs", -1) >= row.get("lhs", math.inf), f"rhs < lhs at p={p}, n={n}")
    return v


def check_verify_pass(report: dict, *, tau: float | None = None) -> Verdict:
    v = Verdict()
    body = report.get("report", {})
    v.require(body.get("pass") is True, "suite did not pass")
    if tau is not None:
        v.exact("tau", body.get("tau"), tau)
    for key in ("min_log_slack", "max_violation"):
        if key in body:
            bad = (-body[key] if key == "min_log_slack" else body[key]) > body.get("slack_tol", 0)
            v.require(not bad, f"{key} = {body[key]!r} beyond slack_tol")
    if "max_gaussian_equality_deviation" in body:
        v.require(body["max_gaussian_equality_deviation"] <= body.get("slack_tol", 0),
                  "gaussian-only equality fails")
    return v


def check_tail_rademacher_equal(report: dict, *, n: int) -> Verdict:
    """Subgaussian envelope exp(-u^2/2) with tau = 1 against the exact
    binomial survival of the equal-weight Rademacher sum."""
    v = check_verify_pass(report, tau=1.0)
    for row in report.get("report", {}).get("rows", []):
        u = row.get("u")
        if not isinstance(u, float):
            v.require(False, "row without u")
            continue
        v.exact(f"survival[u={u:g}]", row.get("survival"), rademacher_equal_tail(n, u))
        v.exact(f"envelope[u={u:g}]", row.get("envelope"), math.exp(-0.5 * u * u))
    return v


def check_overline(report: dict, *, lam: float, n_cap: int) -> Verdict:
    v = Verdict()
    v.exact("value", report.get("report", {}).get("value"), overline_rademacher(lam, n_cap))
    return v


def check_kappa(report: dict, *, floor: float) -> Verdict:
    """kappa(lam) >= max_k phi_k(lam): put all the weight on one coordinate."""
    v = Verdict()
    value = report.get("report", {}).get("value")
    v.require(isinstance(value, float) and math.isfinite(value), f"value {value!r}")
    if isinstance(value, float):
        v.require(value >= floor * (1 - EXACT_RTOL), f"value {value!r} below {floor!r}")
    return v


def check_cover(report: dict, *, rho: np.ndarray, labels: list, eps: float) -> Verdict:
    """The reported centres must cover every point at eps."""
    v = Verdict()
    body = report.get("report", {})
    centers = body.get("centers", [])
    index = {lab: i for i, lab in enumerate(labels)}
    unknown = [c for c in centers if c not in index]
    v.require(not unknown, f"unknown centre labels {unknown[:3]}")
    v.require(body.get("count") == len(centers), "count differs from the number of centres")
    idx = [index[c] for c in centers if c in index]
    covered = int(np.count_nonzero((rho[idx] <= eps).any(axis=0))) if idx else 0
    v.notes["covered_points"] = covered
    v.notes["greedy_count"] = greedy_cover_count(rho, eps)
    v.require(covered == len(labels), f"centres cover {covered} of {len(labels)} points")
    return v


def check_dudley(report: dict, *, rho: np.ndarray, exact: float) -> Verdict:
    v = Verdict()
    body = report.get("report", {})
    v.require(body.get("points") == rho.shape[0], "point count")
    v.exact("diameter", body.get("diameter"), float(rho.max()))
    value = body.get("value")
    v.require(isinstance(value, float), f"value {value!r}")
    if isinstance(value, float):
        rel = abs(value - exact) / exact
        v.notes["dudley_rel_gap"] = rel
        v.require(rel <= DUDLEY_RTOL,
                  f"value {value!r} vs exact breakpoint sum {exact!r} (rel {rel:.3e})")
    return v


def check_fieldsim(report: dict, *, features: np.ndarray, copies: int,
                   n_coeff_sets: int, dudley_exact: float) -> Verdict:
    v = Verdict()
    body = report.get("report", {})
    v.require(body.get("copies") == copies, "copies")
    v.exact("sigma", body.get("sigma"), float(np.max(np.linalg.norm(features, axis=0))))
    rho = euclidean_distances(features.T)
    got = np.asarray(body.get("rho", []), dtype=float)
    v.require(got.shape == rho.shape, "rho shape")
    if got.shape == rho.shape:
        v.require(float(np.max(np.abs(got - rho))) <= 1e-12 * float(rho.max()), "rho values")
    ent = body.get("entropy_integral")
    v.require(isinstance(ent, float), "entropy_integral")
    if isinstance(ent, float):
        rel = abs(ent - dudley_exact) / dudley_exact
        v.notes["dudley_rel_gap"] = rel
        v.require(rel <= DUDLEY_RTOL, f"entropy_integral rel gap {rel:.3e}")
    rows = body.get("rows", [])
    v.require(len(rows) == n_coeff_sets, f"{len(rows)} coefficient rows")
    for row in rows:
        norms = [m.get("norm") for m in row.get("moments", {}).values()]
        v.require(all(isinstance(x, float) and math.isfinite(x) for x in norms), "moment norms")
        if all(isinstance(x, float) for x in norms):
            # Lyapunov: empirical L_p norms are nondecreasing in p
            v.require(all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:])),
                      "L_p norms decrease in p")
    return v


def check_mc_norm(report: dict, *, exact: float, samples: int) -> Verdict:
    v = Verdict()
    body = report.get("report", {})
    v.require(body.get("method") == "monte_carlo", f"method {body.get('method')!r}")
    v.require(body.get("meta", {}).get("samples") == samples, "samples")
    v.within_ci("value", body.get("value"), body.get("ci_halfwidth"), exact)
    return v


# ---------------------------------------------------------------------------
# known defects: each recognises the exact output of one defect, so that the
# defect counts as a failed job while any other wrong report stays wrong
# ---------------------------------------------------------------------------

def cover_shows_int64_mask_defect(report: dict, *, rho: np.ndarray, labels: list,
                                  eps: float) -> bool:
    """The reported centres are the greedy cover under `int64_mask_ball`."""
    body = report.get("report", {})
    chosen = greedy_cover(int64_mask_ball(rho <= eps))
    expected = [labels[i] for i in sorted(chosen)]
    return body.get("centers") == expected and body.get("count") == len(expected)


def dudley_shows_int64_mask_defect(report: dict, *, rho: np.ndarray) -> bool:
    """The reported value is, within DUDLEY_RTOL, the breakpoint sum under
    `int64_mask_ball`, and the diameter is right."""
    body = report.get("report", {})
    value = body.get("value")
    if body.get("diameter") != float(rho.max()) or not isinstance(value, float):
        return False
    exact = dudley_breakpoints(rho, int64_mask_cover_count)
    return abs(value - exact) <= DUDLEY_RTOL * exact
