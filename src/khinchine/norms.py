"""Norm computations: the exponential-moment norm of weighted sums (laws, w)
of independent terms via its sup formula on the product log-MGF, L_p norms
of weighted sums, and Grand Lebesgue norms over a p-grid. Every exact
weighted-sum law comes from one table, `ENGINES` (--engine -> its `Engine`
records in the order tried), which `sum_lp_norms`, `sum_distribution` and
the CLI read."""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .distributions import Distribution, lp_root, support_moments
from .genfun import GeneratingFunction, PsiFunction, phi_inverse_vec, phi_range
from .numerics import (MC_STREAMS, NORM_GRID_HI, NORM_GRID_LO, collapse_support,
                       geometric_grid, mc_abs_moments, stream_rows, substream, trial_point)

ENUM_STATE_BUDGET = 1 << 22
CONV_POINT_BUDGET = 1 << 18
MC_SAMPLES_DEFAULT = 1_000_000
REFINE_ROUNDS = 3  # shrinking windows around the B(phi) grid maximizer
#: a row-batched convolution join refuses a row with more point pairs than
#: this many times its budget (a bound on its memory, see `_support_join`)
JOIN_SLACK = 16


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


def conv_distribution(d: Distribution, weights, max_points: int = CONV_POINT_BUDGET):
    """The law (values, probs) of sum_k weights[k] X_k by sequential
    convolution with the support collapsed at 1e-12; exact for
    lattice-aligned weights, refuses when the support would explode."""
    vals, probs = np.array([0.0]), np.array([1.0])
    for v, p in _scaled_supports(d, weights):
        vals = (vals[:, None] + v[None, :]).ravel()
        probs = (probs[:, None] * p[None, :]).ravel()
        vals, probs = collapse_support(vals, probs)
        if vals.size > max_points:
            raise EngineRefusal(
                f"convolution support exceeded {max_points} points; "
                "use the monte_carlo engine")
    return vals, probs


# Row-batched laws: a folding engine's `fold(d, ps, budget)` keeps one law
# per row of a batch. Scales are squared (b = a^2 space) and a scale None is
# 1; a law None is the law of 0 in every row. add(L, s, b, signs) is the law
# of sqrt(s_r) L_r + signs_r sqrt(b_r) X in row r; join(L1, L2, s2) that of
# L1_r + sqrt(s2_r) L2_r; rest(U) prepares a leave-one-out law for its
# trials, and trial(R, tau, signs) gives the rows x len(ps) norms of
# U_r + signs_r sqrt(tau_r) X, NaN or inf in a row the engine refused (past
# its budget, or an overflow). Every step works row by row, so a row's bits do
# not depend on the other rows; the caller silences numpy's overflow
# warnings.

@functools.lru_cache(maxsize=None)
def _binomials(top: int) -> tuple:
    """(C, J): C[i, j] = C(2i, 2j) for j <= i, else 0, and J[i, j] = i - j
    clipped at 0, for even moments 0..top."""
    i, j = np.indices((top + 1, top + 1))
    binom = np.array([[float(math.comb(2 * r, 2 * c)) if c <= r else 0.0
                       for c in range(top + 1)] for r in range(top + 1)])
    return binom, np.maximum(i - j, 0)


def even_moment_conv(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The even moments of A + B, A and B independent and symmetric, from
    rows x (top + 1) arrays of their even moments m[:, i] = E X^(2i): the
    binomial convolution E (A + B)^(2i) = sum_j C(2i, 2j) E A^(2j) E B^(2i-2j)
    of each row. Odd moments vanish, so every term is >= 0 and nothing
    cancels: a moment is within about log2(top) + 3 ulp of its exact sum.
    Each row is multiplied and summed on its own, so its bits do not depend
    on the other rows. A moment past the double range is inf or NaN; the
    caller silences numpy's overflow warnings."""
    binom, back = _binomials(m1.shape[1] - 1)
    return np.add.reduce(binom * m1[:, None, :] * m2[:, back], axis=2)


def _even_unit(d: Distribution, ps) -> np.ndarray:
    """E X^(2i) for i = 0..max(ps) / 2; OverflowError past the double range."""
    top = max(int(p) // 2 for p in ps)
    with np.errstate(over="ignore"):
        mu = d.even_moments(top)
    if not math.isfinite(mu[-1]):
        raise OverflowError(f"E X^{2 * top} of {d.label} is past the double range")
    return mu


def even_sum_moments(d: Distribution, weights, ps) -> np.ndarray:
    """E (sum_k weights[k] X_k)^(2i) for i = 0..max(ps) / 2, X symmetric:
    the terms' moments joined pairwise by `even_moment_conv`, a tree of
    log2(n) row-batched calls. Raises OverflowError where a moment at a p
    of ps is past the double range."""
    w = np.asarray(weights, dtype=float)
    mu = _even_unit(d, ps)
    with np.errstate(over="ignore", invalid="ignore"):
        m = mu * (w * w)[:, None] ** np.arange(mu.size)
        while len(m) > 1:
            half = len(m) // 2
            m = np.concatenate([even_moment_conv(m[:half], m[half:2 * half]), m[2 * half:]])
    m = m[0]
    if not all(math.isfinite(m[int(p) // 2]) for p in ps):
        raise OverflowError("an even moment of the sum is past the double range")
    return m


class _MomentFold:
    """Row-batched even moments (rows x (top + 1)) of symmetric laws."""

    def __init__(self, d: Distribution, ps, budget):
        self.mu = _even_unit(d, ps)
        self.j = np.arange(self.mu.size)
        binom, back = _binomials(self.mu.size - 1)
        at = [int(p) // 2 for p in ps]  # the moment each p reads
        self.binom, self.back, self.inv = binom[at], back[at], 1.0 / np.array(ps)

    def _scaled(self, m, s):
        return m if s is None else m * s[:, None] ** self.j

    def add(self, m, s, b, signs):
        term = self.mu * b[:, None] ** self.j
        return term if m is None else even_moment_conv(self._scaled(m, s), term)

    def join(self, m1, m2, s2):
        return self._scaled(m2, s2) if m1 is None else (
            m1 if m2 is None else even_moment_conv(m1, self._scaled(m2, s2)))

    def rest(self, u):
        """The terms C(2i, 2j) E U^(2i-2j) E X^(2j) of the moments the norms
        read; a trial weighs term j by tau^j."""
        return self.binom * u[:, self.back] * self.mu

    def trial(self, r, tau, signs):
        return np.add.reduce(r * tau[:, None, None] ** self.j, axis=2) ** self.inv


class Support(NamedTuple):
    """Row-batched finite laws: the points of row r are where rows == r, in
    increasing row order; a refused row has no points."""

    values: np.ndarray
    probs: np.ndarray
    rows: np.ndarray
    refused: np.ndarray  # bool per row


class _SupportFold:
    """Row-batched finite supports, folded as `conv_distribution` folds:
    every pair of a row's points (the first law's outer), collapsed at 1e-12,
    a row refused once it passes the budget. An add (a prefix, suffix or
    trial grown by one term) collapses only the rows past the budget: in
    general position no two points merge, and a merge moves a moment at
    second order only. The join U = P + Q collapses every row, so the law
    of the other terms is refused as the full path's would be. A row whose
    pairs pass budget x JOIN_SLACK is refused before any pair is made, which
    bounds the memory by what one convolution step of the full path holds."""

    def __init__(self, d: Distribution, ps, budget):
        (self.v, self.p), = _scaled_supports(d, [1.0])
        self.ps, self.budget = np.asarray(ps, dtype=float), budget or CONV_POINT_BUDGET

    def add(self, s, c, b, signs):
        w = signs * np.sqrt(b)
        if s is None:
            return Support((w[:, None] * self.v).ravel(), np.tile(self.p, w.size),
                           np.repeat(np.arange(w.size), self.v.size), np.zeros(w.size, bool))
        values = s.values if c is None else s.values * np.sqrt(c)[s.rows]
        return self._settle((values[:, None] + w[s.rows, None] * self.v).ravel(),
                            (s.probs[:, None] * self.p).ravel(),
                            np.repeat(s.rows, self.v.size), s.refused, True)

    def join(self, s1, s2, c2):
        if s1 is None or s2 is None:  # one law: collapsed as a join's
            s = s1 if s2 is None else (
                s2 if c2 is None else s2._replace(values=s2.values * np.sqrt(c2)[s2.rows]))
            return self._settle(s.values, s.probs, s.rows, s.refused, False)
        count = s1.refused.size
        n1, n2 = (np.bincount(s.rows, minlength=count) for s in (s1, s2))
        sizes = n1 * n2
        refused = s1.refused | s2.refused | (sizes > self.budget * JOIN_SLACK)
        sizes[refused] = 0
        rows = np.repeat(np.arange(count), sizes)
        q = np.arange(rows.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        i1 = (np.cumsum(n1) - n1)[rows] + q // n2[rows]
        i2 = (np.cumsum(n2) - n2)[rows] + q % n2[rows]
        v2 = s2.values[i2]
        return self._settle(s1.values[i1] + (v2 if c2 is None else np.sqrt(c2)[rows] * v2),
                            s1.probs[i1] * s2.probs[i2], rows, refused, False)

    def _settle(self, values, probs, rows, refused, lazy) -> Support:
        """Collapse each row of a row-batched law made of pairs on its own
        (when lazy, the rows past the budget only) and refuse the rows still
        past it."""
        sizes = np.bincount(rows, minlength=refused.size)
        collapse = sizes > (self.budget if lazy else 0)
        if collapse.any():
            parts = [(values[e - m:e], probs[e - m:e]) for m, e in zip(sizes, np.cumsum(sizes))]
            parts = [collapse_support(*part) if c else part for part, c in zip(parts, collapse)]
            values, probs = (np.concatenate(x) for x in zip(*parts))
            sizes = np.array([v.size for v, _ in parts])
            rows = np.repeat(np.arange(refused.size), sizes)
        refused = refused | (sizes > self.budget)
        keep = ~refused[rows]
        return Support(values[keep], probs[keep], rows[keep], refused)

    def rest(self, u):
        """U with the mass of each of its trials' pairs, its filled rows and
        where their pairs start, and the p blocks of the trials' powers
        (None where a row's trial passes the budget)."""
        m = self.v.size
        counts = np.bincount(u.rows, minlength=u.refused.size)
        filled = np.flatnonzero(counts)
        step = max(1, (1 << 16) // max(1, u.values.size * m))  # powers at a time
        blocks = None if (counts * m > self.budget).any() else [
            (lo, lo + step, self.ps[lo:lo + step, None], 1.0 / self.ps[lo:lo + step, None])
            for lo in range(0, self.ps.size, step)]
        mass = (u.probs[:, None] * self.p).ravel()
        return u, mass, filled, m * (np.cumsum(counts) - counts)[filled], blocks

    def trial(self, rest, tau, signs):
        """E|U + w X|^p of each row's pairs; a row past the budget, or whose
        plain moment overflowed, takes `add` and `norms`."""
        u, mass, filled, starts, blocks = rest
        out = np.full((u.refused.size, self.ps.size), math.nan)
        if blocks is not None and filled.size:
            s = np.abs((u.values[:, None] + (signs * np.sqrt(tau))[u.rows, None] * self.v).ravel())
            for lo, hi, power, inverse in blocks:
                m = np.add.reduceat(mass * s ** power, starts, axis=1)
                out[filled, lo:hi] = (m ** inverse).T
            if np.isfinite(out[filled]).all():
                return out
        return np.where(np.isfinite(out), out, self.norms(self.add(u, None, tau, signs)))

    def norms(self, s: Support) -> np.ndarray:
        """Rows x len(ps) of ||S||_p in the scaled form M (E (|S| / M)^p)^(1/p),
        M = max |S| per row, which neither overflows nor underflows."""
        out = np.full((s.refused.size, self.ps.size), math.nan)
        counts = np.bincount(s.rows, minlength=s.refused.size)
        filled = np.flatnonzero(counts)
        if not filled.size:
            return out
        starts = (np.cumsum(counts) - counts)[filled]
        absv = np.abs(s.values)
        top = np.maximum.reduceat(absv, starts)
        x = absv / np.repeat(top, counts[filled])
        step = max(1, (1 << 16) // x.size)  # at most 2^16 powers at a time
        for lo in range(0, self.ps.size, step):
            pb = self.ps[lo:lo + step, None]
            m = np.add.reduceat(s.probs * x ** pb, starts, axis=1)
            out[filled, lo:lo + step] = (top * m ** (1.0 / pb)).T
        return out


@dataclass(frozen=True)
class Engine:
    """One exact engine. `build(d, w, ps, budget)` makes the law of
    sum_k w[k] X_k for the moments at ps, or raises OverflowError or
    EngineRefusal; `moments(law, ps)` reads E|S|^p at every p. A `support`
    law is (values, probs), what `sum_distribution` returns. A folding
    engine's `fold(d, ps, budget)` works on row-batched laws (see above) and
    may raise as build does."""

    method: str
    build: Callable
    moments: Callable = lambda law, ps: support_moments(*law, ps)
    applies: Callable = lambda d, ps: True  # (d, ps) -> whether the engine is tried
    support: bool = True
    fold: Callable | None = None


EVEN_MOMENTS = Engine(
    "even_moments", lambda d, w, ps, budget: even_sum_moments(d, w, ps),
    moments=lambda m, ps: [float(m[int(p) // 2]) for p in ps], support=False,
    applies=lambda d, ps: d.is_symmetric and all(p % 2 == 0 for p in ps), fold=_MomentFold)
CONVOLUTION = Engine("convolution", lambda d, w, ps, budget: conv_distribution(
    d, w, budget or CONV_POINT_BUDGET), fold=_SupportFold)
EXACT_ENUM = Engine("exact_enum", lambda d, w, ps, budget: enum_distribution(
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
                 lambda rec: (*rec.build(d, a.entries, (), budget), rec.method))


class LeaveOneOut:
    """The lp norms (rows x len(ps)) of the trials of a
    `numerics.coordinate_search` on b = a^2, a_j = signs[r, j] sqrt(b_j),
    from the engines of ENGINES[engine] in order; call it as that search
    calls f with a trial.

    Prefix and suffix laws. At its first trial of a sweep (k below the last
    call's) a folding engine builds, from the accepted points, the suffix
    laws Q_k of the coordinates after k, for every later k. At each visit it
    grows the prefix law P_k of the coordinates before k by the one just
    visited, at its accepted value, and joins U_k = P_k + Q_k, the law of
    the other terms, which both trials of the visit read. A trial adds its
    one term to U_k. The sweep moves the coordinates it has left or not yet
    reached by a common scale only, so each join scales a law to the
    accepted point by a ratio of sums of such coordinates; a trial's norm
    is divided by its weights' Euclidean norm. An engine not reached at a
    visit rebuilds P_k when it is next reached.

    Bits. A trial's norm is within a few ulp of the full path's on the
    trial point (1e-12 relative is the tested bound), not bitwise: its terms
    are summed in another order. A row's bits do not depend on the other
    rows.

    Refusals. A row an engine refuses (a law past its budget, an overflow)
    passes to the next engine, as in `sum_lp_norms`; a refused U_k refuses
    both trials of its visit before any join. An engine that does not fold
    (exact_enum) takes the full path of each row it gets. A row no engine
    takes is NaN."""

    def __init__(self, d: Distribution, signs, ps, engine: str = "auto",
                 budget: int | None = None):
        self.d, self.signs, self.ps, self.budget = d, signs, [float(p) for p in ps], budget
        self.recs = [rec for rec in ENGINES[engine] if rec.applies(d, self.ps)]
        self.folds: dict = {}  # method -> its fold, or what refused it
        self.last_k, self.laws = None, {}

    def __call__(self, b, rows, k: int, t) -> np.ndarray:
        if self.last_k is None or k < self.last_k:  # a new sweep
            self.laws = {rec.method: {} for rec in self.recs}
            self.sweep = self.signs[rows], ~np.eye(b.shape[1], dtype=bool)
        self.last_k = k
        out, pending = None, None
        for rec in self.recs:
            if rec.fold is None:
                vals = np.full((len(rows), len(self.ps)), math.nan)
                for i in (range(len(rows)) if pending is None else np.flatnonzero(pending)):
                    point = trial_point(b[i:i + 1], k, t[i:i + 1])[0]
                    a = CoefficientVector.normalized(self.signs[rows[i]] * np.sqrt(point))
                    with contextlib.suppress(OverflowError, EngineRefusal):
                        vals[i] = _engine_norms(rec, self.d, a.entries, self.ps, self.budget)[2]
            else:
                if rec.method not in self.folds:
                    try:
                        self.folds[rec.method] = rec.fold(self.d, self.ps, self.budget)
                    except (OverflowError, EngineRefusal) as exc:
                        self.folds[rec.method] = exc
                fold = self.folds[rec.method]
                if isinstance(fold, Exception):
                    continue
                with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                    vals = self._fold(fold, self.laws[rec.method], b, k, t)
            if out is None:
                if np.isfinite(vals).all():
                    return vals
                out = vals
            else:
                out[pending] = vals[pending]
            pending = ~np.isfinite(out).all(axis=1)
            if not pending.any():
                return out
        if out is None:
            return np.full((len(rows), len(self.ps)), math.nan)
        out[pending] = math.nan  # no engine took them
        return out

    def _fold(self, fold, st: dict, b, k: int, t) -> np.ndarray:
        n, (signs, others_of) = b.shape[1], self.sweep

        def ratio(now, then, lo, hi):  # the common scale of coordinates lo..hi - 1
            return now[:, lo:hi].sum(axis=1) / then[:, lo:hi].sum(axis=1)

        if "Q" not in st:  # the suffix laws, from this visit's accepted point
            q = [None] * n
            for j in range(n - 1, k, -1):
                q[j - 1] = fold.add(q[j], None, b[:, j], signs[:, j])
            st.update(Q=q, bQ=b.copy())
        others = b.sum(axis=1, where=others_of[k])
        if st.get("k") != k:
            if st.get("k") == k - 1:  # the sweep's prefix grows by coordinate k - 1
                p = fold.add(st["P"], ratio(b, st["b"], 0, k - 1) if k > 1 else None,
                             b[:, k - 1], signs[:, k - 1])
            else:
                p = None
                for j in range(k):
                    p = fold.add(p, None, b[:, j], signs[:, j])
            q = st["Q"][k]
            u = fold.join(p, q, ratio(b, st["bQ"], k + 1, n) if q is not None else None)
            st.update(k=k, P=p, b=b.copy(), others=others, U=u, rest=fold.rest(u))
        # in the visit's frame the trial's coordinate is tau, the others as they were
        tau = t * st["others"] / others
        return fold.trial(st["rest"], tau, signs[:, k]) / np.sqrt(st["others"] + tau)[:, None]


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


def _engine_norms(rec: Engine, d: Distribution, w, ps, budget) -> tuple:
    """(law, moments, norms) of engine rec's law of sum_k w[k] X_k at
    every p of ps; raises as rec.build does."""
    law = rec.build(d, w, ps, budget)
    moments = rec.moments(law, ps)
    support = law if rec.support else None
    return law, moments, [lp_root(m, p, support) for m, p in zip(moments, ps)]


def sum_lp_norms(d: Distribution, a: CoefficientVector, ps, engine: str = "auto",
                 budget: int | None = None, seed: int = 0, threads: int = 1) -> list:
    """One NormEstimate of ||sum_k a_k X_k||_p, X_k i.i.d. copies of d, per p.

    monte_carlo takes one set of draws for every p (budget = sample count,
    3-sigma band on the p-th moment carried through the 1/p root by the
    delta method). Otherwise the exact engines of ENGINES[engine] are tried
    in order, an overflow or a refusal passing to the next. auto never
    silently samples: a closed-form sum law (gaussian) comes first, and
    last, for one term that no engine takes, |a_1| ||X||_p.
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
        law, moments, norms = _engine_norms(rec, d, a.entries, ps, budget)
        meta = {"support_points": int(law[0].size)} if rec.support else {}
        return [NormEstimate(v, rec.method, meta={**meta, "moment": m})
                for m, v in zip(moments, norms)]

    try:
        return _walk(engine, lambda rec: rec.applies(d, ps), estimates)
    except EngineRefusal:
        if engine != "auto" or a.n > 1:
            raise
        return [NormEstimate(abs(float(a.entries[0])) * d.lp_norm(p), "quadrature") for p in ps]


def weighted_sum_lp(d: Distribution, a: CoefficientVector, p: float,
                    engine: str = "auto", budget: int | None = None,
                    seed: int = 0, threads: int = 1) -> NormEstimate:
    """||sum_k a_k X_k||_p: the one-p case of `sum_lp_norms`."""
    return sum_lp_norms(d, a, [p], engine, budget, seed, threads)[0]


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
                     seed: int = 0, threads: int = 1) -> NormEstimate:
    """sup over the psi grid of ||sum a_k X_k||_p / psi(p), from one
    `sum_lp_norms` call (one law build or one set of draws); reports the
    attaining p and the L_p norm there."""
    ests = sum_lp_norms(d, a, psi.p_grid, engine, budget, seed, threads)
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
