"""Norm computations: the exponential-moment norm of weighted sums (laws, w)
of independent terms via its sup formula on the product log-MGF, L_p norms
of weighted sums, and Grand Lebesgue norms over a p-grid. Every exact
weighted-sum law comes from one table, `ENGINES` (--engine -> its `Engine`
records in the order tried), which `sum_lp_norms`, `sum_distribution` and
the CLI read."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import Distribution, lp_root, support_moments
from .genfun import GeneratingFunction, PsiFunction, phi_inverse_vec, phi_range
from .numerics import (MC_STREAMS, NORM_GRID_HI, NORM_GRID_LO, collapse_support,
                       geometric_grid, mc_abs_moments, stream_rows, substream)

ENUM_STATE_BUDGET = 1 << 22
CONV_POINT_BUDGET = 1 << 18
MC_SAMPLES_DEFAULT = 1_000_000
REFINE_ROUNDS = 3  # shrinking windows around the B(phi) grid maximizer


class EngineRefusal(RuntimeError):
    """An exact engine cannot do the job within budget; the message names the
    engines that can."""


@dataclass(frozen=True)
class CoefficientVector:
    """Unit-Euclidean-norm weight vector."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.ndim != 1 or e.size < 1:
            raise ValueError("coefficient vector must be 1-d and nonempty")
        nrm = float(np.dot(e, e))
        if not abs(nrm - 1.0) <= 1e-12:  # also refuses non-finite entries
            raise ValueError(f"coefficients must have unit Euclidean norm, got sum sq = {nrm!r}")

    @property
    def n(self) -> int:
        return self.entries.size

    def lp_norm(self, p: float) -> float:
        return float(np.sum(np.abs(self.entries) ** p) ** (1.0 / p))

    @staticmethod
    def normalized(values) -> "CoefficientVector":
        v = np.asarray(values, dtype=float)
        with np.errstate(over="ignore"):
            nrm = math.sqrt(float(np.dot(v, v)))
        if not 0.0 < nrm < math.inf and np.any(v) and np.all(np.isfinite(v)):
            v = v / np.max(np.abs(v))  # the sum of squares under- or overflows: scale first
            nrm = math.sqrt(float(np.dot(v, v)))
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        if not math.isfinite(nrm):
            raise ValueError("cannot normalize a vector with non-finite entries")
        return CoefficientVector(v / nrm)

    @staticmethod
    def equal(n: int) -> "CoefficientVector":
        if n < 1:
            raise ValueError("equal weights need n >= 1")
        return CoefficientVector(np.full(n, 1.0 / math.sqrt(n)))

    @staticmethod
    def one_hot(n: int, index: int = 0) -> "CoefficientVector":
        if not 0 <= index < n:
            raise ValueError("one_hot needs n >= 1 and 0 <= index < n")
        e = np.zeros(n)
        e[index] = 1.0
        return CoefficientVector(e)

    @staticmethod
    def two_level(n: int, j: int, w: float) -> "CoefficientVector":
        """j leading entries carrying total squared weight w, the rest sharing
        1 - w."""
        if not (1 <= j < n and 0 < w < 1):
            raise ValueError("two_level needs 1 <= j < n and w in (0, 1)")
        e = np.full(n, math.sqrt((1.0 - w) / (n - j)))
        e[:j] = math.sqrt(w / j)
        return CoefficientVector(e)

    @staticmethod
    def random_sphere(n: int, rng: np.random.Generator) -> "CoefficientVector":
        v = rng.standard_normal(n)
        while float(np.dot(v, v)) == 0.0:
            v = rng.standard_normal(n)
        return CoefficientVector.normalized(v)

    def to_json(self) -> list:
        return self.entries.tolist()


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # exact_enum | convolution | even_moments | monte_carlo | quadrature | grid_sup
    ci_halfwidth: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm estimate must be nonnegative")
        if self.method != "monte_carlo" and self.ci_halfwidth != 0.0:
            raise ValueError("only monte_carlo estimates carry a confidence band")

    def to_json(self) -> dict:
        return {"value": self.value, "method": self.method,
                "ci_halfwidth": self.ci_halfwidth, "meta": dict(self.meta)}


# ---------------------------------------------------------------------------
# exact weighted-sum laws: one table of engines
# ---------------------------------------------------------------------------

def _scaled_supports(d: Distribution, weights):
    sup = d.finite_support()
    if sup is None:
        raise EngineRefusal(
            f"law {d.label} has no finite support; use the monte_carlo engine")
    v, p = sup
    return [(ak * v, p) for ak in weights]


def enum_distribution(d: Distribution, weights, budget: int = ENUM_STATE_BUDGET):
    """Exact product-state enumeration of sum_k weights[k] X_k; (values, probs)."""
    parts = _scaled_supports(d, weights)
    states = 1
    for v, _ in parts:
        states *= v.size
        if states > budget:
            raise EngineRefusal(
                f"enumeration needs {states}+ product states (> budget {budget}); "
                "use the convolution or monte_carlo engine")
    vals = np.array([0.0])
    probs = np.array([1.0])
    for v, p in parts:
        vals = (vals[:, None] + v[None, :]).ravel()
        probs = (probs[:, None] * p[None, :]).ravel()
    return vals, probs


def conv_distribution(d: Distribution, weights, max_points: int = CONV_POINT_BUDGET,
                      law: tuple | None = None):
    """The law (values, probs) of S + sum_k weights[k] X_k, S on law (default
    0), by sequential convolution with the support collapsed at 1e-12; exact
    for lattice-aligned weights, refuses when the support would explode. On
    a given law (a fold's, read for moments only) a last term that fits
    max_points is not collapsed: merging points within 1e-12 at their mean
    moves a moment at second order only, and the sort is most of the cost."""
    vals, probs = law or (np.array([0.0]), np.array([1.0]))
    parts = _scaled_supports(d, weights)
    for i, (v, p) in enumerate(parts, 1):
        vals = (vals[:, None] + v[None, :]).ravel()
        probs = (probs[:, None] * p[None, :]).ravel()
        if law is not None and i == len(parts) and vals.size <= max_points:
            break
        vals, probs = collapse_support(vals, probs)
        if vals.size > max_points:
            raise EngineRefusal(
                f"convolution support exceeded {max_points} points; "
                "use the monte_carlo engine")
    return vals, probs


def _even_sum_moments(d: Distribution, weights, ps, m: list | None = None) -> list:
    """E (S + sum_k weights[k] X_k)^(2i) for i = 0..max(ps) / 2, X and S
    symmetric, S with even moments m[i] = E S^(2i) (default S = 0), adding
    one term at a time: m'_{2i} = sum_j C(2i, 2j) a^(2j) mu_{2j} m_{2i-2j}.
    Odd moments vanish, so every term is >= 0 and nothing cancels. Raises
    OverflowError where a moment at a p of ps is past the double range."""
    top = max(int(p) // 2 for p in ps)
    with np.errstate(over="ignore"):
        mu = d.even_moments(top).tolist()
    if not math.isfinite(mu[-1]):
        raise OverflowError(f"E X^{2 * top} of {d.label} is past the double range")
    binom = [[float(math.comb(2 * i, 2 * j)) for j in range(i + 1)] for i in range(top + 1)]
    m = m or [1.0] + [0.0] * top
    for ak in weights:
        a2 = float(ak) * float(ak)
        w = [mu[j] * a2 ** j for j in range(top + 1)]
        m = [math.fsum(binom[i][j] * w[j] * m[i - j] for j in range(i + 1))
             for i in range(top + 1)]
    if not all(math.isfinite(m[int(p) // 2]) for p in ps):
        raise OverflowError("an even moment of the sum is past the double range")
    return m


@dataclass(frozen=True)
class Engine:
    """One exact engine. `build(d, w, ps, budget, prefix)` makes the law of
    prefix + sum_k w[k] X_k (prefix None: 0) for the moments at ps, or
    raises OverflowError or EngineRefusal; `moments(law, ps)` reads E|S|^p at
    every p. A `support` law is (values, probs), what `sum_distribution`
    returns; a `folds` engine can build on a kept prefix (see `_engine_law`)."""

    method: str
    build: Callable
    moments: Callable = lambda law, ps: support_moments(*law, ps)
    applies: Callable = lambda d, ps: True  # (d, ps) -> whether the engine is tried
    support: bool = True
    folds: bool = False


EVEN_MOMENTS = Engine(
    "even_moments", lambda d, w, ps, budget, m: _even_sum_moments(d, w, ps, m),
    moments=lambda m, ps: [m[int(p) // 2] for p in ps], support=False, folds=True,
    applies=lambda d, ps: d.is_symmetric and all(p % 2 == 0 for p in ps))
CONVOLUTION = Engine("convolution", lambda d, w, ps, budget, law: conv_distribution(
    d, w, budget or CONV_POINT_BUDGET, law), folds=True)
EXACT_ENUM = Engine("exact_enum", lambda d, w, ps, budget, law: enum_distribution(
    d, w, budget or ENUM_STATE_BUDGET))

#: --engine -> its exact engines in order (monte_carlo builds no exact law)
ENGINES = {"auto": (EVEN_MOMENTS, CONVOLUTION, EXACT_ENUM), "exact_enum": (EXACT_ENUM,),
           "convolution": (CONVOLUTION,), "monte_carlo": ()}


def _walk(engine: str, use, job):
    """job(rec) of the first engine rec of ENGINES[engine] with use(rec) that
    takes it; an OverflowError or EngineRefusal passes on, the last re-raised."""
    if not ENGINES.get(engine):
        raise ValueError(f"unknown exact engine {engine!r}")
    for rec in ENGINES[engine]:
        if use(rec):
            try:
                return job(rec)
            except (OverflowError, EngineRefusal) as exc:
                refusal = exc
    raise refusal


def sum_distribution(d: Distribution, a: CoefficientVector, engine: str = "auto",
                     budget: int | None = None):
    """(values, probs, method) of the law of sum a_k X_k from the first
    engine of ENGINES[engine] that builds a support and does not refuse."""
    return _walk(engine, lambda rec: rec.support,
                 lambda rec: (*rec.build(d, a.entries, (), budget, None), rec.method))


def _engine_law(rec: Engine, d: Distribution, a: CoefficientVector, ps, budget,
                rest: dict | None):
    """(law, r): engine rec's law of S / r, S = sum a_j X_j, the norm being
    1-homogeneous; S itself (r = 1) unless rec folds and rest = {"k": k}.
    Then S / r = U + (a_k / r) X_k, U = sum_{j != k} a_j X_j / r, r^2 =
    sum_{j != k} a_j^2: the first call keeps U's law, or what refused it, in
    rest[rec.method], and each call folds its one term onto it."""
    if rest is not None and rec.folds:
        k = rest["k"]
        others = np.delete(a.entries, k)
        r = math.sqrt(float(np.dot(others, others)))
        if r > 0:
            if rec.method not in rest:
                try:
                    rest[rec.method] = rec.build(d, others / r, ps, budget, None)
                except (OverflowError, EngineRefusal) as exc:
                    rest[rec.method] = exc
            u = rest[rec.method]
            if isinstance(u, Exception):
                raise type(u)(*u.args)
            return rec.build(d, [float(a.entries[k]) / r], ps, budget, u), r
    return rec.build(d, a.entries, ps, budget, None), 1.0


# ---------------------------------------------------------------------------
# weighted-sum L_p norm
# ---------------------------------------------------------------------------

def draw_sums(d: Distribution, a: CoefficientVector) -> Callable:
    """(rng, size) -> `size` draws of sum_k a_k X_k on rng, in row blocks
    (`stream_rows`), built once per weight vector. A law's `row_sums`
    (Rademacher: byte tables, within n ulp of sum_k |a_k| of the exact sum)
    reads the stream `draw` reads; otherwise numpy weights each drawn row in
    place and sums it on its own, as a BLAS matrix-vector product's bits for
    a row depend on its place, and a row holds the law's `draw_words` for
    each of its n draws and its sum. Memory: the output and one block, within
    MC_BLOCK_BYTES."""
    def drawn(g, m):
        x = d.draw(g, (m, a.n))
        x *= a.entries
        return np.sum(x, axis=1)

    block, width = d.row_sums(a.entries) or (drawn, d.record.draw_words * a.n + 1)
    return lambda rng, size: stream_rows(block, rng, size, width)


def _monte_carlo_lp(d: Distribution, a: CoefficientVector, ps, budget: int | None,
                    seed: int, threads: int) -> list:
    """The monte_carlo engine of `sum_lp_norms` for every p in ps, from
    one set of draws (MC_STREAMS chunks, see `mc_abs_moments`)."""
    samples = budget or MC_SAMPLES_DEFAULT
    sums = draw_sums(d, a)

    def sample(chunk, size):
        x = sums(substream(seed, 0x10AD, chunk), size)
        return np.abs(x, out=x)

    out = []
    for p, (m, se) in zip(ps, mc_abs_moments(sample, ps, samples, threads)):
        value = m ** (1.0 / p)
        ci = 3.0 * se * value / (p * m) if m > 0 else 0.0
        out.append(NormEstimate(value, "monte_carlo", ci_halfwidth=ci,
                                meta={"samples": samples, "seed": seed,
                                      "moment": m, "moment_se": se}))
    return out


def sum_lp_norms(d: Distribution, a: CoefficientVector, ps, engine: str = "auto",
                 budget: int | None = None, seed: int = 0, threads: int = 1,
                 rest: dict | None = None) -> list:
    """One NormEstimate of ||sum_k a_k X_k||_p, X_k i.i.d. copies of d, per p.

    monte_carlo takes one set of draws for every p (budget = sample count,
    3-sigma band on the p-th moment carried through the 1/p root by the
    delta method). Otherwise the exact engines of ENGINES[engine] are tried
    in order, an overflow or a refusal passing to the next. auto never
    silently samples: a closed-form sum law (gaussian) comes first, and
    last, for one term that no engine takes, |a_1| ||X||_p. rest = {"k": k}
    is shared by calls (same d, ps, engine and budget) whose weights differ
    only in the k-th coordinate up to scale (`_engine_law`).
    """
    ps = [float(p) for p in ps]
    if min(ps) < 1:
        raise ValueError("weighted_sum_lp needs p >= 1")
    if engine == "monte_carlo":
        return _monte_carlo_lp(d, a, ps, budget, seed, threads)
    law = d.sum_law(a.entries) if engine == "auto" else None
    if law is not None:
        return [NormEstimate(law.lp_norm(p), "quadrature", meta={"reduced_law": law.label})
                for p in ps]

    def estimates(rec: Engine) -> list:
        law, r = _engine_law(rec, d, a, ps, budget, rest)
        support = law if rec.support else None
        meta = {} if support is None else {"support_points": int(support[0].size)}
        return [NormEstimate(r * lp_root(m, p, support), rec.method,
                             meta={**meta, "moment": r ** p * m})
                for m, p in zip(rec.moments(law, ps), ps)]

    try:
        return _walk(engine, lambda rec: rec.applies(d, ps), estimates)
    except EngineRefusal:
        if engine != "auto" or a.n > 1:
            raise
        return [NormEstimate(abs(float(a.entries[0])) * d.lp_norm(p), "quadrature") for p in ps]


def weighted_sum_lp(d: Distribution, a: CoefficientVector, p: float,
                    engine: str = "auto", budget: int | None = None,
                    seed: int = 0, threads: int = 1, rest: dict | None = None) -> NormEstimate:
    """||sum_k a_k X_k||_p: the one-p case of `sum_lp_norms`."""
    return sum_lp_norms(d, a, [p], engine, budget, seed, threads, rest)[0]


# ---------------------------------------------------------------------------
# exponential-moment norm
# ---------------------------------------------------------------------------

def bphi_norm(d: Distribution, phi: GeneratingFunction) -> NormEstimate:
    """Exponential-moment norm: sup over lambda > 0 and both signs of
    phi^{-1}(ln E exp(+-lambda X)) / lambda; the one-term sum of
    `bphi_norms`, whose estimate does not depend on being computed alone."""
    return bphi_norms([(d, [1.0])], phi)[0]


def bphi_norms(sums, phi: GeneratingFunction) -> list:
    """The B(phi) norm of each weighted sum (laws, w) of sums: laws one
    Distribution (i.i.d. terms) or one law per weight. One NormEstimate per
    sum, of sup over lambda > 0 and both signs of phi^{-1}(L(+-lambda)) /
    lambda, L the exact product log-MGF (`log_mgf_sums`).

    Each round is one sums x points rectangle of lambda: the grid, then
    REFINE_ROUNDS windows of 65 points around each row's incumbent, read
    through one `log_mgf_sums` call. A row whose laws are not all `bit_even`
    enters that call again at -lambda and takes the max of the two. Entries
    at or past lambda0 and non-finite log-MGF values are masked to -inf, and
    phi is inverted once for every other entry. A row is `truncated` once a
    log-MGF value below lambda0 is not finite, and `unbounded` once one
    exceeds a finite phi range; such a row takes no value in that round
    only. The lambda -> 0 limit sqrt(Var / (2 c2)), c2 the curvature of phi
    at 0, enters as an explicit candidate: the sup is frequently attained
    only in that limit and a grid misses it. Because every step works
    elementwise, estimate r has the bits of its own call.
    """
    sums = [(laws, np.asarray(w, dtype=float)) for laws, w in sums]
    variances = [laws.variance * float(np.dot(w, w)) if isinstance(laws, Distribution)
                 else sum(c * c * law.variance for law, c in zip(laws, w)) for laws, w in sums]
    odd = [r for r, (laws, _) in enumerate(sums) if not all(
        d.record.bit_even for d in ([laws] if isinstance(laws, Distribution) else laws))]
    both = sums + [sums[r] for r in odd]

    hi = NORM_GRID_HI if phi.lambda0 == math.inf else phi.lambda0 * (1 - 1e-12)
    grid = geometric_grid(min(NORM_GRID_LO, hi / 10), hi)
    step = grid[1] / grid[0] if grid.size > 1 else 2.0
    limit = phi_range(phi)
    rows = np.arange(len(sums))
    truncated, unbounded = np.zeros((2, rows.size), bool)
    lams = np.broadcast_to(grid, (rows.size, grid.size))
    best_lam, best_val = np.full(rows.size, grid[0]), np.full(rows.size, -np.inf)
    for window in range(1 + REFINE_ROUNDS):  # the grid, then the windows
        if window:
            lams = np.geomspace(best_lam / step, best_lam * step, 65, axis=1)
            step = step ** 0.25
        with np.errstate(over="ignore", invalid="ignore"):
            y = log_mgf_sums(both, np.concatenate([lams, -lams[odd]]))
            y[odd] = np.maximum(y[odd], y[rows.size:])
            y = y[:rows.size]
            inside, finite = lams < phi.lambda0, np.isfinite(y)
            truncated |= (inside & ~finite).any(axis=1)
            y, ok = np.maximum(y, 0.0), inside & finite
            over = (ok & (y > limit)).any(axis=1)
        unbounded |= over
        ok &= ~over[:, None]
        vals = np.full(lams.shape, -np.inf)
        vals[ok] = phi_inverse_vec(phi, y[ok]) / lams[ok]
        j = np.argmax(vals, axis=1)
        better = vals[rows, j] > best_val
        best_val = np.where(better, vals[rows, j], best_val)
        best_lam = np.where(better, lams[rows, j], best_lam)

    c2 = phi.curvature_at_zero
    out = []
    for r in rows:
        val = float(best_val[r])
        meta = {"grid_points": int(grid.size), "argmax_lambda": float(best_lam[r]),
                "truncated": bool(truncated[r])}
        var = variances[r]
        if math.isfinite(var) and var >= 0:
            zero_limit = math.sqrt(var / (2.0 * c2))
            meta["zero_limit_candidate"] = zero_limit
            if zero_limit > val:
                val, meta["argmax_lambda"] = zero_limit, 0.0
        if unbounded[r]:
            val, meta["unbounded"] = math.inf, True
        out.append(NormEstimate(max(val, 0.0), "grid_sup", meta=meta))
    return out


def log_mgf_sums(sums, lam) -> np.ndarray:
    """One row per weighted sum (laws, w) of sums: sum_k ln E exp(w[k] lam
    X_k) on lam, a 1-d lambda shared by every sum or one lambda row per sum.
    laws is one Distribution (i.i.d. terms) or a sequence with one law per
    weight (ValueError otherwise). Each distinct law (by identity) is called
    once, on every lambda x weight product it serves. An i.i.d. row sums its
    (lambda, k) block on the last axis; a sequence row adds its terms in k
    order, starting from zeros; so each row has the bits of its own call."""
    sums = [(laws, np.asarray(w, dtype=float)) for laws, w in sums]
    lam = np.asarray(lam, dtype=float)
    points = lam.shape[-1]
    lams = [lam] * len(sums) if lam.ndim == 1 else lam  # row r's lambda
    out = np.zeros((len(sums), points))
    groups: dict[int, tuple] = {}  # id -> (law, its i.i.d. rows, its (row, k) terms)
    for r, (laws, w) in enumerate(sums):
        if isinstance(laws, Distribution):
            groups.setdefault(id(laws), (laws, [], []))[1].append(r)
        elif len(laws) != w.size:
            raise ValueError(f"{len(laws)} laws for {w.size} weights")
        else:
            for k, law in enumerate(laws):
                groups.setdefault(id(law), (law, [], []))[2].append((r, k))
    terms = {}
    for law, iid, seq in groups.values():
        ends = list(itertools.accumulate((points * sums[r][1].size for r in iid), initial=0))
        z = np.empty(ends[-1] + points * len(seq))
        for r, lo, hi in zip(iid, ends, ends[1:]):
            w = sums[r][1]
            np.multiply.outer(lams[r], w, out=z[lo:hi].reshape(points, w.size))
        if seq:
            np.multiply([[sums[r][1][k]] for r, k in seq],
                        lam if lam.ndim == 1 else lam[[r for r, _ in seq]],
                        out=z[ends[-1]:].reshape(len(seq), points))
        z = law.log_mgf(z)
        for r, lo, hi in zip(iid, ends, ends[1:]):
            z[lo:hi].reshape(points, sums[r][1].size).sum(axis=-1, out=out[r])
        terms.update(zip(seq, z[ends[-1]:].reshape(len(seq), points)))
    for r, k in sorted(terms):  # sequence rows: term by term, in k order
        out[r] += terms[r, k]
    return out


def weighted_sum_bphi(d: Distribution, a: CoefficientVector,
                      phi: GeneratingFunction) -> NormEstimate:
    """Norm of sum a_k X_k from the exact product log-MGF."""
    return bphi_norms([(d, a.entries)], phi)[0]


# ---------------------------------------------------------------------------
# Grand Lebesgue norm
# ---------------------------------------------------------------------------

def weighted_sum_gls(d: Distribution, a: CoefficientVector, psi: PsiFunction,
                     engine: str = "auto", budget: int | None = None,
                     seed: int = 0, threads: int = 1, rest: dict | None = None) -> NormEstimate:
    """sup over the psi grid of ||sum a_k X_k||_p / psi(p), from one
    `sum_lp_norms` call (one law build or one set of draws, or one fold onto
    `rest`); reports the attaining p and the L_p norm there."""
    ests = sum_lp_norms(d, a, psi.p_grid, engine, budget, seed, threads, rest)
    ratio = [est.value / float(psi_p) for est, psi_p in zip(ests, psi.values)]
    i = int(np.argmax(ratio))
    sampled = {"samples": ests[i].meta["samples"]} if ests[i].method == "monte_carlo" else {}
    return NormEstimate(ratio[i], ests[i].method, ests[i].ci_halfwidth / float(psi.values[i]),
                        {"attained_p": float(psi.p_grid[i]), "lp_at_attained": ests[i].value,
                         **sampled})


def gls_norm(d: Distribution, psi: PsiFunction, engine: str = "auto",
             budget: int | None = None, seed: int = 0, threads: int = 1) -> NormEstimate:
    """The Grand Lebesgue norm of one copy: sup over the psi grid of
    ||X||_p / psi(p), the one-term case of `weighted_sum_gls`."""
    return weighted_sum_gls(d, CoefficientVector([1.0]), psi, engine, budget, seed, threads)
