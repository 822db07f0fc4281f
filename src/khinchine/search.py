"""Search for the generalized Khintchine constants: one-sided bounds on the
sup/inf over n and unit-norm weight vectors of the normed weighted sum.

The sup/inf run over all n and the whole unit sphere, so a finite search can
only certify one side; estimates are reported with an explicit direction and
the witnessing weight vector. The scan reads `numerics.weight_candidates`
and the local search is `numerics.coordinate_search`, both shared with
kappa; `weight_candidates` says when the bounds grow with n_max and restarts.

Batched local search: each trial of `coordinate_search` scores every live
start in one call. For lp and gls norms under an exact engine that folds,
one `norms.LeaveOneOut` per n follows the sweep: the two trials at
coordinate k keep the other weights' ratios, so both join their one term
onto U_k, the law of the other terms, which it combines from a prefix law
(the coordinates before k, grown as the sweep accepts moves) and a suffix
law (built once per sweep). A trial's value is within a few ulp of the full
path's on its point, not bitwise; a row refused by one engine passes to the
next. The starts, the scan, Monte Carlo, the closed-form sum law and
enumeration take the full path. Bphi rows are the sums (d, a) of one
`norms.bphi_norms` call per step: the scan in one call, then each step's
trials in one. Trials are floats; one CoefficientVector is built per
start's end point.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import Distribution
from .genfun import GeneratingFunction, PsiFunction
from .norms import (CoefficientVector, EngineRefusal, LeaveOneOut, NormEstimate,
                    bphi_norms, weighted_sum_bphi, weighted_sum_gls, weighted_sum_lp)
from .numerics import (candidate_sizes, coordinate_search, incumbent, substream,
                       trial_point, weight_candidates)


@dataclass(frozen=True)
class NormSpec:
    """Which norm the constants are taken in: lp(p), gls(psi) or bphi(phi).
    `kind` names a record of `NORM_KINDS`; `param` is the one value that kind
    reads (its p, psi or phi), which the record validates."""

    kind: str  # lp | gls | bphi
    param: float | PsiFunction | GeneratingFunction | None

    def __post_init__(self):
        rec = NORM_KINDS.get(self.kind)
        if rec is None:
            raise ValueError(f"unknown norm spec kind {self.kind!r}")
        if self.param is None or not rec.valid(self.param):
            raise ValueError(f"{self.kind} norm spec needs {rec.needs}")

    @property
    def record(self) -> "NormKind":
        return NORM_KINDS[self.kind]

    @property
    def label(self) -> str:
        return self.record.label(self.param)

    @staticmethod
    def lp(p: float) -> "NormSpec":
        return NormSpec("lp", float(p))

    @staticmethod
    def gls(psi: PsiFunction) -> "NormSpec":
        return NormSpec("gls", psi)

    @staticmethod
    def bphi(phi: GeneratingFunction) -> "NormSpec":
        return NormSpec("bphi", phi)


@dataclass(frozen=True)
class NormKind:
    """One kind of norm. Each function takes the spec's `param` v (its p,
    psi or phi)."""

    needs: str  # what the param must be, for the validation error
    label: Callable  # (v) -> str
    sum_norm: Callable  # (d, a, v, engine, budget, seed) -> NormEstimate of sum a_k X_k
    valid: Callable = lambda v: True  # (v) -> whether a param is valid
    rows: Callable | None = None  # (d, [a], v) -> NormEstimates of many sums in one call
    #: (v) -> (ps, divisors): the norm is the max over ps of ||S||_p / divisor
    grid: Callable | None = None


NORM_KINDS: dict[str, NormKind] = {
    "lp": NormKind(
        needs="p >= 1", valid=lambda p: not p < 1,
        label=lambda p: f"lp({p!r})",
        sum_norm=lambda d, a, p, engine, budget, seed: weighted_sum_lp(
            d, a, p, engine=engine, budget=budget, seed=seed),
        grid=lambda p: ([p], np.ones(1)),
    ),
    "gls": NormKind(
        needs="a psi function",
        label=lambda psi: f"gls({psi.provenance})",
        sum_norm=lambda d, a, psi, engine, budget, seed: weighted_sum_gls(
            d, a, psi, engine=engine, budget=budget, seed=seed),
        grid=lambda psi: (psi.p_grid, np.asarray(psi.values, dtype=float)),
    ),
    "bphi": NormKind(
        needs="a generating function",
        label=lambda phi: f"bphi({phi.label})",
        sum_norm=lambda d, a, phi, engine, budget, seed: weighted_sum_bphi(d, a, phi),
        rows=lambda d, cands, phi: bphi_norms([(d, a.entries) for a in cands], phi),
    ),
}


def sum_norm(d: Distribution, a: CoefficientVector, spec: NormSpec,
             engine: str = "auto", budget: int | None = None,
             seed: int = 0) -> NormEstimate:
    """Norm of sum a_k X_k under the given spec."""
    return spec.record.sum_norm(d, a, spec.param, engine, budget, seed)


def single_norm(d: Distribution, spec: NormSpec) -> float:
    """Norm of one copy under the spec: the n = 1 term of the constants."""
    return sum_norm(d, CoefficientVector([1.0]), spec).value


@dataclass(frozen=True)
class KhinchineEstimate:
    value: float
    direction: str  # lower_bound_of_sup | upper_bound_of_inf
    norm_spec: str
    n_max: int
    witness: CoefficientVector
    trace: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"value": self.value, "direction": self.direction,
                "norm_spec": self.norm_spec, "n_max": self.n_max,
                "witness": self.witness.to_json(), "trace": list(self.trace),
                "meta": dict(self.meta)}


def _khinchine_search(d: Distribution, spec: NormSpec, n_max: int,
                      restarts: int, seed: int, maximize: bool,
                      engine: str = "auto", budget: int | None = None) -> KhinchineEstimate:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sign = 1.0 if maximize else -1.0
    trace: list = []
    scores: list = []  # (sign * norm, witness) of every scored candidate, in order
    refusals = 0
    scan = [(kind, CoefficientVector(a))
            for kind, a in weight_candidates(n_max, exchangeable=True)]
    rows = spec.record.rows  # bphi: the whole scan in one call, each row with its own bits
    batch = rows(d, [a for _, a in scan], spec.param) if rows is not None else None
    for i, (kind, a) in enumerate(scan):
        try:
            val = (batch[i] if batch is not None else
                   sum_norm(d, a, spec, engine=engine, budget=budget, seed=seed)).value
        except EngineRefusal as exc:
            refusals += 1
            trace.append({"kind": kind, "n": a.n, "refused": str(exc)})
            continue
        trace.append({"kind": kind, "n": a.n, "value": val})
        scores.append((sign * val, a))

    nonneg = d.is_symmetric  # sign of a_k provably irrelevant there
    grid = spec.record.grid(spec.param) if spec.record.grid is not None else None
    for n in candidate_sizes(n_max)[1:]:  # n = 1 has nothing to optimize
        rngs = [substream(seed, 0x5EA2C4, n, r) for r in range(restarts)]
        starts = np.reshape([g.dirichlet(np.ones(n)) for g in rngs], (restarts, n))
        signs = (np.ones((restarts, n)) if nonneg else
                 np.reshape([g.choice([-1.0, 1.0], size=n) for g in rngs], (restarts, n)))

        def weights(b, r):
            return CoefficientVector.normalized(signs[r] * np.sqrt(b))

        loo = (LeaveOneOut(d, signs, grid[0], engine, budget) if grid is not None and
               engine != "monte_carlo" and not (engine == "auto" and d.is_stable) else None)

        def f(b, rows, k, t):
            if k is not None and loo is not None:  # a trial: the leave-one-out fold
                norms = loo(b, rows, k, t)
                return norms[:, 0] if len(grid[1]) == 1 else np.max(norms / grid[1], axis=1)
            cands = [weights(x, r) for x, r in zip(b if k is None else trial_point(b, k, t), rows)]
            if spec.record.rows is not None:  # bphi: each row has the bits of its own call
                return np.array([e.value for e in spec.record.rows(d, cands, spec.param)])
            out = np.full(len(rows), math.nan)  # NaN: refused
            for i, a in enumerate(cands):
                with contextlib.suppress(EngineRefusal):
                    out[i] = sum_norm(d, a, spec, engine=engine, budget=budget, seed=seed).value
            return out

        b, vals, evals = coordinate_search(f, starts, maximize)
        for r in range(restarts):
            entry = {"kind": "local_search", "n": n, "restart": r}
            if math.isnan(vals[r]):
                refusals += 1
                trace.append({**entry, "refused": "engine refusal at start"})
            else:
                trace.append({**entry, "value": float(vals[r]), "evals": int(evals[r])})
                scores.append((sign * float(vals[r]), weights(b[r], r)))

    best, index = incumbent([v for v, _ in scores], [tuple(a.entries) for _, a in scores])
    if index < 0:
        raise EngineRefusal(
            f"the exact engines refused all {refusals} candidates for {spec.label} "
            f"on {d.label}; use the monte_carlo engine")
    return KhinchineEstimate(
        value=sign * float(best),
        direction="lower_bound_of_sup" if maximize else "upper_bound_of_inf",
        norm_spec=spec.label,
        n_max=n_max,
        witness=scores[index][1],
        trace=trace,
        meta={"restarts": restarts, "seed": seed, "engine": engine,
              "refusals": refusals, "law": d.label},
    )


def khinchine_sup(d: Distribution, spec: NormSpec, n_max: int = 32,
                  restarts: int = 3, seed: int = 0, engine: str = "auto",
                  budget: int | None = None) -> KhinchineEstimate:
    """Lower bound of sup_n sup_{a in D(n)} ||sum a_k X_k||.

    Candidates: `weight_candidates(n_max, exchangeable=True)` (equal
    weights for every n <= n_max and two-level patterns; its docstring says
    when the bound is monotone in n_max and restarts), and coordinate ascent
    on b = a_k^2 from `restarts` seeded starts at each n >= 2 of
    `candidate_sizes(n_max)`. Engine refusals are recorded in the trace and
    the candidate skipped; nothing silently falls back to sampling. When
    every candidate is refused, EngineRefusal names the monte_carlo engine.
    The witness is picked by `numerics.incumbent`, the one tie rule (keys:
    the weights as a tuple).
    """
    return _khinchine_search(d, spec, n_max, restarts, seed, True, engine, budget)


def khinchine_inf(d: Distribution, spec: NormSpec, n_max: int = 32,
                  restarts: int = 3, seed: int = 0, engine: str = "auto",
                  budget: int | None = None) -> KhinchineEstimate:
    """Upper bound of inf_n inf_{a in D(n)} ||sum a_k X_k||."""
    return _khinchine_search(d, spec, n_max, restarts, seed, False, engine, budget)


def prelim_bounds(d: Distribution, spec: NormSpec) -> dict:
    """CLT floor/ceiling: the sup constant is >= max(||Z_sigma||, ||X||) and
    the inf constant is <= min of the same pair, with Z_sigma the centered
    Gaussian matching the law's variance."""
    var = d.variance
    if not (var > 0 and math.isfinite(var)):
        raise ValueError("prelim_bounds needs variance in (0, inf)")
    z = Distribution.gaussian(math.sqrt(var))
    gz = single_norm(z, spec)
    gx = single_norm(d, spec)
    return {"upper_floor": max(gz, gx), "lower_ceiling": min(gz, gx),
            "gaussian_norm": gz, "law_norm": gx}
