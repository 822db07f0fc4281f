"""Calculus on exponential-moment generating functions: evaluation,
monotone inversion, Legendre (Young-Fenchel) conjugation, the exponential
Orlicz N-function, convexity-class tests, the sup-over-n and sup-over-weights
transforms, moment-scale functions, and tail envelopes.

The concave one-dimensional sups (the conjugate, biconjugate and sup over n)
scan a grid and refine the bracket of its argmax with `numerics.golden_max`,
called as f(x) with entry r of x on row r; `conjugate_profile` is the one
Legendre kernel, for every u at once. kappa's one grouped sum is `phi_sums`;
its one tie rule is `numerics.incumbent`.

A family is one `Family` record in `FAMILIES`: its evaluation, domain
radius, curvature at 0, label, JSON fields, closed-form inverse and tail
exponent. `GeneratingFunction` reads the record, so adding a family is
adding one record.

A member of the admissible class is even, convex, vanishes at 0, behaves like
a multiple of lambda^2 near 0, and is strictly increasing on [0, lambda0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import Distribution, parse_distribution, read_spec
from .numerics import (candidate_sizes, coordinate_search, geometric_grid,
                       golden_max, incumbent, invert_increasing_vec, substream,
                       weight_candidates)

OVERFLOW_EXPONENT = 700.0  # exp argument guard, inside double range with headroom
LEGENDRE_GRID_LO = 1e-6
LEGENDRE_GRID_HI = 1e6
LEGENDRE_EXTEND_CAP = 1e15
CONV_LAMBDA_CAP, CONV_GRID_POINTS = 50.0, 10_000  # the Conv_r grid test's range and size
OVERLINE_N_CAP = 1_000_000  # the largest n of `overline_phi`


class DomainError(ValueError):
    """Argument outside the domain or range of a generating function."""


@dataclass(frozen=True)
class GeneratingFunction:
    """One generating function with its domain radius.

    family names a record of `FAMILIES`: 'subgaussian' (0.5*lam^2), 'power'
    (|lam|^m/m for |lam| >= 1, lam^2/m below 1, the value-continuous splice),
    'natural' (max over signs of the log-MGF of `dist`), or 'tabulated'
    (piecewise-linear on knots).
    """

    family: str
    m: float | None = None
    dist: Distribution | None = None
    knots: np.ndarray | None = field(default=None, compare=False)
    knot_values: np.ndarray | None = field(default=None, compare=False)

    @property
    def record(self) -> "Family":
        return FAMILIES[self.family]

    @property
    def lambda0(self) -> float:
        return self.record.lambda0(self)

    @property
    def label(self) -> str:
        return self.record.label(self)

    @property
    def curvature_at_zero(self) -> float:
        """Exact limit of phi(lam)/lam^2 as lam -> 0 (numeric for tabulated)."""
        return self.record.curvature(self)

    @property
    def tail_exponent(self) -> float:
        """Exponent m' of the exp(-c u^m') tail that phi's envelope gives."""
        return self.record.tail_exponent(self)

    def inverse_seed(self):
        """Closed-form approximate inverse y -> lambda, the bracket seed of
        `phi_inverse_vec`, or None where the family has none."""
        return self.record.inverse(self)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        scalar = lam.ndim == 0
        x = np.abs(np.atleast_1d(lam))
        lambda0 = self.lambda0
        if lambda0 != math.inf and np.any(x > lambda0 * (1 + 1e-12)):
            raise DomainError(f"|lambda| exceeds domain radius {lambda0!r}")
        out = self.record.evaluate(self, x)
        return float(out[0]) if scalar else out

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"family": self.family,
                "lambda0": "inf" if self.lambda0 == math.inf else self.lambda0,
                **self.record.json(self)}

    @staticmethod
    def from_json(obj: dict) -> "GeneratingFunction":
        fam = obj.get("family")
        rec = FAMILIES.get(fam) if isinstance(fam, str) else None
        if rec is None:
            raise DomainError(f"unknown generating-function family {fam!r}; "
                              f"known: {', '.join(FAMILIES)}")
        return rec.from_json(obj)


def phi_subgaussian() -> GeneratingFunction:
    return GeneratingFunction("subgaussian")


def phi_power(m: float) -> GeneratingFunction:
    """Power family with the quadratic value splice below |lam| = 1.

    Convex for m >= 2; for m in [1, 2) the splice kink breaks convexity, which
    conv_r_class and the membership report detect.
    """
    if not m >= 1:
        raise DomainError("power family needs m >= 1")
    return GeneratingFunction("power", m=float(m))


def phi_natural(dist: Distribution) -> GeneratingFunction:
    return GeneratingFunction("natural", dist=dist)


def phi_tabulated(knots, values) -> GeneratingFunction:
    k = np.asarray(knots, dtype=float)
    v = np.asarray(values, dtype=float)
    if k.ndim != 1 or k.shape != v.shape or k.size < 2:
        raise DomainError("tabulated family needs matching 1-d knots/values, >= 2 points")
    if k[0] != 0.0 or v[0] != 0.0:
        raise DomainError("tabulated knots must start at (0, 0)")
    if np.any(np.diff(k) <= 0) or np.any(np.diff(v) <= 0):
        raise DomainError("tabulated knots and values must be strictly increasing")
    return GeneratingFunction("tabulated", knots=k, knot_values=v)


# ---------------------------------------------------------------------------
# the catalog: one record per family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """Everything the package uses about one generating-function family.
    Each function takes the GeneratingFunction phi first."""

    spec: str | None  # CLI form, None where the family comes only from a file
    parse: Callable | None  # (text after 'name:' in the CLI spec) -> phi
    from_json: Callable  # (JSON object) -> phi
    json: Callable  # (phi) -> the family's own JSON fields
    evaluate: Callable  # (phi, |lam| as a 1-d array) -> phi(lam)
    lambda0: Callable  # (phi) -> domain radius
    curvature: Callable  # (phi) -> limit of phi(lam)/lam^2 at 0
    label: Callable  # (phi) -> str
    inverse: Callable  # (phi) -> closed-form inverse y -> lambda, or None
    tail_exponent: Callable = lambda phi: 2.0  # (phi) -> m' of exp(-c u^m')


def _power_eval(phi, x):
    with np.errstate(over="ignore"):
        return np.where(x <= 1.0, x * x / phi.m, x**phi.m / phi.m)


def _power_inverse(m: float, y: np.ndarray) -> np.ndarray:
    my = m * y
    return np.where(my <= 1.0, np.sqrt(my), my ** (1.0 / m))


def _parse_power(rest: str) -> GeneratingFunction:
    try:
        return phi_power(float(rest))
    except ValueError as exc:
        raise DomainError(f"bad power exponent {rest!r}") from exc


# A seed (`inverse`) only has to be accurate to about 1e-14 relative; a phi
# without one is inverted from the plain bracket.
FAMILIES: dict[str, Family] = {
    "subgaussian": Family(
        spec="subgaussian", parse=lambda rest: phi_subgaussian(),
        from_json=lambda obj: phi_subgaussian(),
        json=lambda phi: {},
        evaluate=lambda phi, x: 0.5 * x * x,
        lambda0=lambda phi: math.inf,
        curvature=lambda phi: 0.5,
        label=lambda phi: "subgaussian",
        inverse=lambda phi: lambda y: np.sqrt(2.0 * y),
    ),
    "power": Family(
        spec="power:<m>", parse=_parse_power,
        from_json=lambda obj: phi_power(obj["m"]),
        json=lambda phi: {"m": phi.m, "splice": "quadratic-value"},
        evaluate=_power_eval,
        lambda0=lambda phi: math.inf,
        curvature=lambda phi: 1.0 / phi.m,
        label=lambda phi: f"power({phi.m!r})",
        inverse=lambda phi: lambda y: _power_inverse(phi.m, y),
        tail_exponent=lambda phi: min(phi.m, 2.0),
    ),
    "natural": Family(
        spec="natural:<law>", parse=lambda rest: phi_natural(parse_distribution(rest)),
        from_json=lambda obj: phi_natural(Distribution.from_json(obj["dist"])),
        json=lambda phi: {"dist": phi.dist.to_json()},
        evaluate=lambda phi, x: phi.dist.two_sided_log_mgf(x),
        lambda0=lambda phi: math.inf,
        curvature=lambda phi: phi.dist.variance / 2.0,
        label=lambda phi: f"natural({phi.dist.label})",
        inverse=lambda phi: phi.dist.natural_inverse(),
    ),
    "tabulated": Family(
        spec=None, parse=None,
        from_json=lambda obj: phi_tabulated(obj["knots"], obj["values"]),
        json=lambda phi: {"knots": phi.knots.tolist(), "values": phi.knot_values.tolist()},
        evaluate=lambda phi, x: np.interp(x, phi.knots, phi.knot_values),
        lambda0=lambda phi: float(phi.knots[-1]),
        curvature=lambda phi: float(phi.knot_values[1] / phi.knots[1] ** 2),
        label=lambda phi: f"tabulated[{phi.knots.size}]",
        inverse=lambda phi: lambda y: np.interp(y, phi.knot_values, phi.knots),
    ),
}


def phi_catalog() -> str:
    """The phi specs `parse_phi` accepts, for help and errors."""
    return ", ".join([f.spec for f in FAMILIES.values() if f.spec] + ["@file.json"])


def parse_phi(spec: str) -> GeneratingFunction:
    """Parse CLI specs: 'subgaussian', 'power:3', 'natural:<law spec>',
    or '@file.json'."""
    return read_spec(spec, "generating-function", {k: f for k, f in FAMILIES.items() if f.parse},
                     lambda name, fam, rest: fam.parse(rest), GeneratingFunction.from_json,
                     phi_catalog(), DomainError)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def phi_inverse(phi: GeneratingFunction, y: float) -> float:
    """The lambda in [0, lambda0) with phi(lambda) = y, by monotone bisection.

    Raises DomainError when lambda0 is finite and y exceeds the attainable
    range.
    """
    return float(phi_inverse_vec(phi, np.array([float(y)]))[0])


def phi_range(phi: GeneratingFunction) -> float:
    """Largest y that `phi_inverse_vec` inverts: inf for an infinite domain
    radius, else phi(lambda0 (1 - 1e-12)) with a 1e-9 relative allowance."""
    if phi.lambda0 == math.inf:
        return math.inf
    return phi(phi.lambda0 * (1 - 1e-12)) * (1 + 1e-9)


def phi_inverse_vec(phi: GeneratingFunction, y: np.ndarray) -> np.ndarray:
    """The lambda in [0, lambda0) with phi(lambda) = y, elementwise.

    One bisection, `invert_increasing_vec`, serves every family. It starts
    from the family's closed-form inverse (`inverse_seed`) where there is
    one and stops at its fixed point; a finite domain radius caps its bracket
    at lambda0 (1 - 1e-12). Each element gets the same bits whatever else is
    in y. Raises DomainError for y < 0, and for y above `phi_range(phi)`.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("phi_inverse needs y >= 0")
    seed = phi.inverse_seed()
    if phi.lambda0 == math.inf:
        return invert_increasing_vec(phi, y, seed=seed)
    limit = phi_range(phi)
    if np.any(y > limit):
        raise DomainError(f"y above the attainable range {limit!r} (finite domain radius)")
    top = phi.lambda0 * (1 - 1e-12)
    return invert_increasing_vec(phi, y, hi_start=top, seed=seed, cap=top)


# ---------------------------------------------------------------------------
# Legendre transform and derived objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LegendreResult:
    value: float
    argmax: float
    boundary: bool = False   # finite domain radius, sup attained at the edge
    unbounded: bool = False  # lambda0 = inf and the objective keeps growing


def legendre(phi: GeneratingFunction, u: float) -> LegendreResult:
    """sup over lambda in [0, lambda0) of lambda*u - phi(lambda): the
    one-knot case of `conjugate_profile`."""
    u = float(u)
    if u < 0:
        raise DomainError("legendre needs u >= 0")
    prof = conjugate_profile(phi, [u])
    return LegendreResult(value=float(prof.values[0]), argmax=float(prof.lambda_argmax[0]),
                          boundary=bool(prof.boundary[0]), unbounded=bool(prof.unbounded[0]))


def biconjugate(phi: GeneratingFunction, lam: float) -> float:
    """sup over u >= 0 of lam*u - phi*(u); equals phi(lam) for closed convex
    members, which the invariant tests exercise."""
    lam = abs(float(lam))
    if lam == 0.0:
        return 0.0

    def obj(u):
        return lam * u - conjugate_profile(phi, u).values

    # scan a geometric u grid (one profile) for a bracket, then refine
    grid = np.concatenate([[0.0], geometric_grid(1e-6, 1e6)])
    vals = obj(grid)
    vals = np.where(np.isnan(vals), -np.inf, vals)
    i = int(np.argmax(vals))
    if i == grid.size - 1:
        return float(vals[-1])
    _, val = golden_max(obj, grid[max(i - 1, 0)], grid[i + 1], tol=1e-10)  # grid[0] = 0
    return max(float(val[0]), 0.0)


@dataclass(frozen=True)
class ConjugateProfile:
    """Tabulated Legendre transform: knots u, values phi*(u), maximizers."""

    knots: np.ndarray
    values: np.ndarray
    lambda_argmax: np.ndarray
    boundary: np.ndarray
    unbounded: np.ndarray

    def to_json(self) -> dict:
        return {"knots": self.knots.tolist(), "values": self.values.tolist(),
                "lambda_argmax": self.lambda_argmax.tolist()}


def conjugate_profile(phi: GeneratingFunction, u_knots) -> ConjugateProfile:
    """phi*(u) = sup over lambda in [0, lambda0) of lambda*u - phi(lambda) at
    every knot u, with maximizers and flags: the one Legendre kernel. The
    objective is concave. Each grid level is one (knots x grid) argmax over
    the `todo` mask, writing each knot's bracket to lo and hi; for lambda0 =
    inf, knots whose argmax is the last point stay todo and scan a grid with
    a 100 times higher top while it is below LEGENDRE_EXTEND_CAP, then are
    `unbounded` (a finite lambda0 gives the `boundary`). One `golden_max`
    call refines every bracket. u = 0 and a sup <= 0 give 0. A knot gets the
    same bits alone or among others."""
    u = np.asarray(u_knots, dtype=float)
    if np.any(np.diff(u) <= 0) or np.any(u < 0):
        raise DomainError("conjugate profile knots must be increasing and >= 0")
    value, arg, lo, hi = (np.zeros(u.shape) for _ in range(4))
    boundary, unbounded = np.zeros(u.shape, bool), np.zeros(u.shape, bool)
    todo, top = u != 0.0, LEGENDRE_GRID_HI
    while True:
        cap = top if phi.lambda0 == math.inf else min(top, phi.lambda0 * (1 - 1e-12))
        grid = np.concatenate([[0.0], geometric_grid(LEGENDRE_GRID_LO, cap)])
        with np.errstate(over="ignore", invalid="ignore"):
            g = grid * u[todo, None] - phi(grid)
        g = np.where(np.isnan(g), -np.inf, g)
        i = np.argmax(g, axis=1)
        inside = i < grid.size - 1
        rows, i = np.flatnonzero(todo)[inside], i[inside]
        lo[rows], hi[rows], todo[rows] = grid[np.maximum(i - 1, 0)], grid[i + 1], False
        if not (todo.any() and phi.lambda0 == math.inf and top < LEGENDRE_EXTEND_CAP):
            break
        top *= 100.0
    if phi.lambda0 == math.inf:
        unbounded[todo], value[todo], arg[todo] = True, math.inf, math.inf
    else:
        last = g[~inside, -1]
        boundary[todo], value[todo], arg[todo] = True, np.where(0.0 > last, 0.0, last), grid[-1]
    rows = np.flatnonzero(hi)  # hi >= grid[1] > 0 on a bracketed knot, else 0
    x, fx = golden_max(lambda lam: lam * u[rows] - phi(lam), lo[rows], hi[rows])
    pos = ~(fx <= 0.0)
    value[rows[pos]], arg[rows[pos]] = fx[pos], x[pos]
    return ConjugateProfile(knots=u, values=value, lambda_argmax=arg,
                            boundary=boundary, unbounded=unbounded)


def orlicz_n(phi: GeneratingFunction, u: float) -> float:
    """Exponential Orlicz N-function exp(phi*(u)) - 1, with a +inf sentinel
    once the exponent passes the overflow guard."""
    val = legendre(phi, u).value
    return math.inf if val > OVERFLOW_EXPONENT else math.expm1(val)


def tail_envelope(phi: GeneratingFunction, tau: float, u: float) -> float:
    """Chernoff-type tail bound exp(-phi*(u/tau)) for a variable of norm tau."""
    if not tau > 0:
        raise DomainError("tail_envelope needs tau > 0")
    if u < 0:
        raise DomainError("tail_envelope needs u >= 0")
    val = legendre(phi, u / tau).value
    return math.exp(-val) if math.isfinite(val) else 0.0


# ---------------------------------------------------------------------------
# convexity class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvClassResult:
    member: bool
    r: float
    witness: tuple | None = None  # (t1, t2, t3) with decreasing slope


def conv_r_class(phi: GeneratingFunction, r: float) -> ConvClassResult:
    """Grid test of whether t -> phi(t^(1/r)) is convex on (0, min(lambda0, CONV_LAMBDA_CAP)^r].

    Convexity on the CONV_GRID_POINTS log-spaced (hence non-uniform) grid
    points is checked as monotone chord slopes; on failure the first
    violating triple is returned.
    """
    if not 1.0 <= r <= 2.0:
        raise DomainError("conv_r_class needs r in [1, 2]")
    top = min(phi.lambda0 * (1 - 1e-12), CONV_LAMBDA_CAP) ** r
    t = np.geomspace(top * 1e-12, top, CONV_GRID_POINTS)
    f = phi(t ** (1.0 / r))
    s = np.diff(f) / np.diff(t)
    defect = np.diff(s)
    tol = -1e-9 * np.maximum(1.0, np.maximum(np.abs(s[:-1]), np.abs(s[1:])))
    bad = np.nonzero(defect < tol)[0]
    if bad.size == 0:
        return ConvClassResult(member=True, r=r)
    i = int(bad[np.argmin(defect[bad])])
    return ConvClassResult(member=False, r=r,
                           witness=(float(t[i]), float(t[i + 1]), float(t[i + 2])))


# ---------------------------------------------------------------------------
# sup-over-n transform
# ---------------------------------------------------------------------------

def overline_phi(phi: GeneratingFunction, lam: float) -> float:
    """sup over integer n >= 1 of n * phi(lam / sqrt(n)).

    A continuous 1-d search over t in [1, OVERLINE_N_CAP] brackets the
    maximizer, then the sup is taken exactly over the integers in the bracket
    (plus the endpoints, which covers the monotone cases).
    """
    lam = abs(float(lam))
    if lam >= phi.lambda0:
        raise DomainError("overline_phi needs |lambda| < lambda0")
    if lam == 0.0:
        return 0.0

    def h(t):
        return t * phi(lam / np.sqrt(t))

    grid = np.unique(np.concatenate([[1.0], geometric_grid(1.0, float(OVERLINE_N_CAP), 64)]))
    i = int(np.argmax(h(grid)))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    t_star = float(golden_max(h, lo, hi, tol=1e-10)[0][0])
    lo_n = max(1, int(math.floor(t_star)) - 64)
    hi_n = min(OVERLINE_N_CAP, int(math.ceil(t_star)) + 64)
    cands = np.union1d(np.arange(lo_n, hi_n + 1), [1, OVERLINE_N_CAP]).astype(float)
    return max(h(cands).tolist())


# ---------------------------------------------------------------------------
# kappa: sup over n and unit-norm weights of sums of component functions
# ---------------------------------------------------------------------------

def phi_sums(phis, x) -> np.ndarray:
    """sum_k phis[k](x[..., k]) over the last axis of x >= 0. Components that
    share one GeneratingFunction object are evaluated in one call, and the
    group sums are added left to right in the order of each group's first
    component. A row is NaN where some x_k reaches its phi's finite lambda0."""
    groups: dict[int, tuple[GeneratingFunction, list[int]]] = {}
    for k, p in enumerate(phis):
        groups.setdefault(id(p), (p, []))[1].append(k)
    total, refused = np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1], dtype=bool)
    for p, idx in groups.values():
        step = idx[1] - idx[0] if len(idx) > 1 else 1
        # a cycled pool's group is a strided slice: a view, where a fancy index copies
        arith = idx == list(range(idx[0], idx[-1] + 1, step))
        xs = x[..., idx[0]:idx[-1] + 1:step] if arith else x[..., idx]
        bad = xs >= p.lambda0
        refused |= bad.any(axis=-1)
        total = total + p(np.where(bad, 0.0, xs).ravel()).reshape(xs.shape).sum(axis=-1)
    return np.where(refused, math.nan, total)


def _kappa_candidates(phis, n_max: int, restarts: int, seed: int,
                      opt_lams) -> list[np.ndarray]:
    """Candidate weight vectors b (b_k = a_k^2 on the simplex over the first
    n coordinates): a * a for every a of `weight_candidates`, then the ends
    of the coordinate ascents of `phi_sums` at lam sqrt(b), in the order
    (n, restart, lambda), one `coordinate_search` batch per n >= 2 (at n = 1
    every move renormalizes back to b = [1]). An ascent refuses (NaN) a b
    that `candidate_profile` discards."""
    N = min(n_max, len(phis))
    cands = [a * a for _, a in weight_candidates(N, exchangeable=False)]
    if restarts < 1 or not opt_lams:
        return cands
    lams = np.tile(opt_lams, restarts)[:, None]
    for n in candidate_sizes(N)[1:]:
        def value(b, rows, k):
            return phi_sums(phis[:n], lams[rows] * np.sqrt(np.maximum(b, 0.0)))

        starts = [substream(seed, 0xCA11, n, r).dirichlet(np.ones(n)) for r in range(restarts)]
        cands.extend(coordinate_search(value, np.repeat(starts, len(opt_lams), axis=0), True)[0])
    return cands


def candidate_profile(phis, b: np.ndarray, lam_grid: np.ndarray):
    """Values sum_k phi_k(a_k*lam) across the lambda grid for one candidate
    (`phi_sums` on |lam a|). Candidates driving |a_k * lam| to a finite domain
    radius are discarded at those lambdas (returned as -inf with a flag)."""
    vals = phi_sums(phis[:b.size], np.multiply.outer(np.abs(lam_grid), np.sqrt(b)))
    refused = np.isnan(vals)
    return np.where(refused, -np.inf, vals), bool(refused.any())


def kappa_profile(phis, lam_grid, n_max: int = 32, restarts: int = 3, seed: int = 0):
    """Lower estimate of kappa(lam) = sup_n sup_{a in D(n)} sum phi_k(a_k lam)
    across a lambda grid.

    Returns (values, witnesses, meta); witnesses[i] is the best weight vector
    b at lam_grid[i] by `numerics.incumbent`, the one tie rule (keys: b as a
    tuple). The value is explicitly a lower bound of the sup: only the scanned
    and locally optimized candidates are examined (`numerics.weight_candidates`
    says when it is monotone in n_max and restarts).
    """
    if n_max < 1:
        raise DomainError("kappa needs n_max >= 1")
    lam_grid = np.atleast_1d(np.asarray(lam_grid, dtype=float))
    opt_lams = [float(x) for x in np.unique(np.abs(lam_grid[lam_grid != 0]))]
    if len(opt_lams) > 8:
        idx = np.linspace(0, len(opt_lams) - 1, 8).round().astype(int)
        opt_lams = [opt_lams[i] for i in idx]
    cands = _kappa_candidates(list(phis), n_max, restarts, seed, opt_lams)
    flags = []  # whether each profile discarded a lambda

    def profiles():
        for b in cands:
            vals, flagged = candidate_profile(phis, b, lam_grid)
            flags.append(flagged)
            yield vals

    best, wi = incumbent(profiles(), [tuple(b) for b in cands])
    witness = [cands[w] if w >= 0 else None for w in wi]
    meta = {"candidates": len(cands), "discarded_domain": sum(flags),
            "n_max": min(n_max, len(phis)), "direction": "lower_bound_of_sup"}
    return best, witness, meta


def kappa(phis, lam: float, n_max: int = 32, restarts: int = 3, seed: int = 0):
    """Scalar kappa at one lambda; returns (value, witness_weights, meta)."""
    vals, wits, meta = kappa_profile(phis, [float(lam)], n_max, restarts, seed)
    return float(vals[0]), wits[0], meta


# ---------------------------------------------------------------------------
# moment-scale functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiFunction:
    """Grand-Lebesgue generating function on a p-grid."""

    p_grid: np.ndarray
    values: np.ndarray
    provenance: str = "explicit"

    def __post_init__(self):
        p = np.asarray(self.p_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "p_grid", p)
        object.__setattr__(self, "values", v)
        if p.ndim != 1 or p.shape != v.shape or p.size == 0:
            raise DomainError("psi needs matching 1-d p_grid/values")
        if np.any(np.diff(p) <= 0):
            raise DomainError("psi p_grid must be strictly increasing")
        if np.any(v <= 0):
            raise DomainError("psi values must be strictly positive")

    @staticmethod
    def sqrt_p(p_grid) -> "PsiFunction":
        p = np.asarray(p_grid, dtype=float)
        return PsiFunction(p, np.sqrt(p), "explicit")

    @staticmethod
    def p_power(m: float, p_grid) -> "PsiFunction":
        if not m > 0:
            raise DomainError("psi power needs m > 0")
        p = np.asarray(p_grid, dtype=float)
        return PsiFunction(p, p ** (1.0 / m), "explicit")

    @staticmethod
    def natural(dist: Distribution, p_grid) -> "PsiFunction":
        p = np.asarray(p_grid, dtype=float)
        return PsiFunction(p, np.array([dist.lp_norm(x) for x in p]), "explicit")

    def to_json(self) -> dict:
        return {"p_grid": self.p_grid.tolist(), "values": self.values.tolist(),
                "provenance": self.provenance}

    @staticmethod
    def from_json(obj: dict) -> "PsiFunction":
        return PsiFunction(np.asarray(obj["p_grid"], float), np.asarray(obj["values"], float),
                           obj.get("provenance", "explicit"))


def psi_from_phi(phi: GeneratingFunction, p_grid) -> PsiFunction:
    """Moment-scale function induced by phi: psi(p) = phi^{-1}(p)."""
    p = np.asarray(p_grid, dtype=float)
    return PsiFunction(p, phi_inverse_vec(phi, p), "from_phi")


# ---------------------------------------------------------------------------
# admissibility report
# ---------------------------------------------------------------------------

def phi_membership_report(phi: GeneratingFunction) -> dict:
    """Finite-grid checks of the admissibility conditions: evenness, zero at
    zero, convexity and strict increase on the positive axis, quadratic
    behavior near 0, and (for infinite domain radius) growth of phi(lam)/lam
    along the grid."""
    top = 50.0 if phi.lambda0 == math.inf else phi.lambda0 * (1 - 1e-9)
    grid = geometric_grid(1e-6, top)
    f_pos = phi(grid)
    f_neg = phi(-grid)
    even = bool(np.all(np.abs(f_pos - f_neg) <= 1e-12 * np.maximum(1.0, np.abs(f_pos))))
    zero = abs(float(phi(0.0))) <= 1e-300
    first = np.diff(f_pos)
    increasing = bool(np.all(first > 0))
    s = first / np.diff(grid)
    convex = bool(np.all(np.diff(s) >= -1e-10 * np.maximum(1.0, np.abs(s[:-1]))))
    small = geometric_grid(1e-6, 1e-3)
    ratio = phi(small) / small**2
    quad = bool(np.all(ratio > 0) and np.max(ratio) / np.min(ratio) < 1e6)
    report = {"even": even, "zero_at_zero": zero, "strictly_increasing": increasing,
              "convex": convex, "quadratic_near_zero": quad,
              "curvature_at_zero": phi.curvature_at_zero}
    if phi.lambda0 == math.inf:
        r = f_pos / grid
        report["ratio_to_lambda_increasing"] = bool(np.all(np.diff(r) > 0))
    report["admissible"] = all(v for k, v in report.items() if isinstance(v, bool))
    return report
