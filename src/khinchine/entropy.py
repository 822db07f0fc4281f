"""Metric-entropy toolkit: covering numbers of finite semi-metric spaces, the
entropy integral under the square root (Dudley functional), and a simulator
for the supremum of weighted sums of independent field copies."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import ordered_map, substream

EXACT_COVER_LIMIT = 20
TRIANGLE_TOL = 1e-12


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Point labels plus a symmetric semi-distance matrix with zero diagonal;
    the triangle inequality is enforced at construction (tolerance 1e-12)."""

    labels: tuple
    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "rho", r)
        object.__setattr__(self, "labels", tuple(self.labels))
        n = r.shape[0]
        if r.ndim != 2 or r.shape != (n, n) or len(self.labels) != n or n == 0:
            raise ValueError("rho must be square and match the labels")
        if np.any(r < 0):
            raise ValueError("semi-distances must be nonnegative")
        if not np.array_equal(r, r.T):
            raise ValueError("semi-distance matrix must be exactly symmetric")
        if np.any(np.diag(r) != 0.0):
            raise ValueError("semi-distance diagonal must be zero")
        # through[i, k] = min over j of r[i, j] + r[j, k], in O(n^2) memory
        through = r[:, 0, None] + r[None, 0, :]
        for j in range(1, n):
            np.minimum(through, r[:, j, None] + r[None, j, :], out=through)
        if np.any(r > through + TRIANGLE_TOL):
            i, k = np.unravel_index(np.argmax(r - through), r.shape)
            raise ValueError(f"triangle inequality fails at pair ({i}, {k})")

    @property
    def n(self) -> int:
        return self.rho.shape[0]

    @property
    def diameter(self) -> float:
        return float(np.max(self.rho))

    def scaled(self, c: float) -> "FiniteMetricSpace":
        return FiniteMetricSpace(self.labels, self.rho * float(c))

    @staticmethod
    def from_points(points, labels=None) -> "FiniteMetricSpace":
        """Euclidean distances of a point cloud (rows are points)."""
        x = np.asarray(points, dtype=float)
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
        r = np.sqrt(np.maximum(d2, 0.0))
        r = 0.5 * (r + r.T)
        np.fill_diagonal(r, 0.0)
        if labels is None:
            labels = tuple(range(x.shape[0]))
        return FiniteMetricSpace(labels, r)


def load_space(path: str) -> FiniteMetricSpace:
    """Read a space from CSV (header row of labels, then the square matrix)
    or from JSON ({'labels': [...], 'rho': [[...]]})."""
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return FiniteMetricSpace(tuple(obj["labels"]), np.asarray(obj["rho"], float))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    labels = tuple(s.strip() for s in rows[0])
    mat = np.array([[float(x) for x in row] for row in rows[1:]])
    return FiniteMetricSpace(labels, mat)


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------

def _ball_masks(space: FiniteMetricSpace, eps: float) -> list[int]:
    """Ball i as a Python int whose bit z is set when rho[i, z] <= eps."""
    rows = np.packbits(space.rho <= eps, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _greedy_cover(masks: list[int], full: int) -> list[int]:
    chosen: list[int] = []
    uncovered = full
    while uncovered:
        best_i, best_gain = -1, -1
        for i, m in enumerate(masks):
            gain = (m & uncovered).bit_count()
            if gain > best_gain:  # ties keep the lowest index
                best_i, best_gain = i, gain
        chosen.append(best_i)
        uncovered &= ~masks[best_i]
    return chosen


def _exact_cover(masks: list[int], full: int, upper: list[int]) -> list[int]:
    """Branch and bound minimum set cover; `upper` is a feasible solution."""
    n_pts = full.bit_length()
    covers = [[i for i, m in enumerate(masks) if (m >> z) & 1] for z in range(n_pts)]
    max_ball = max(m.bit_count() for m in masks)
    best = list(upper)

    def rec(uncovered: int, chosen: list[int]):
        nonlocal best
        if uncovered == 0:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        need = -(-uncovered.bit_count() // max_ball)  # ceil
        if len(chosen) + need >= len(best):
            return
        # branch on the uncovered point with the fewest candidate balls
        z_best, fanout = -1, 1 << 30
        u = uncovered
        while u:
            z = (u & -u).bit_length() - 1
            k = len(covers[z])
            if k < fanout:
                z_best, fanout = z, k
            u &= u - 1
        for i in covers[z_best]:
            rec(uncovered & ~masks[i], chosen + [i])

    rec(full, [])
    return best


def covering_number(space: FiniteMetricSpace, eps: float, method: str = "auto"):
    """Minimal number of closed eps-balls centered at points covering the set.

    method 'auto': exact branch-and-bound set cover up to 20 points, greedy
    (standard ln-factor guarantee) above, reported with exact=False. 'exact'
    and 'greedy' force the respective algorithm.
    Returns (count, exact, center_labels).
    """
    if not eps > 0:
        raise ValueError("covering_number needs eps > 0")
    masks = _ball_masks(space, eps)
    full = (1 << space.n) - 1
    greedy = _greedy_cover(masks, full)
    if method == "greedy":
        sel, exact = greedy, False
    elif method == "exact" or space.n <= EXACT_COVER_LIMIT:
        sel = _exact_cover(masks, full, greedy)
        exact = True
    else:
        sel, exact = greedy, False
    centers = tuple(space.labels[i] for i in sorted(sel))
    return len(sel), exact, centers


@dataclass(frozen=True)
class EntropyProfile:
    """H(eps) = ln covering number along a decreasing eps grid."""

    eps_grid: np.ndarray
    values: np.ndarray
    exact: np.ndarray

    def to_json(self) -> dict:
        return {"eps_grid": self.eps_grid.tolist(), "H": self.values.tolist(),
                "exact": self.exact.tolist()}


def entropy_profile(space: FiniteMetricSpace, eps_grid) -> EntropyProfile:
    eps = np.asarray(eps_grid, dtype=float)
    if np.any(np.diff(eps) >= 0):
        raise ValueError("entropy profile expects a decreasing eps grid")
    counts, flags = [], []
    for e in eps:
        c, exact, _ = covering_number(space, float(e))
        counts.append(math.log(c))
        flags.append(exact)
    return EntropyProfile(eps, np.array(counts), np.array(flags))


# ---------------------------------------------------------------------------
# entropy integral
# ---------------------------------------------------------------------------

def dudley_integral(space: FiniteMetricSpace, sigma_scale: float = 1.0,
                    eps_steps: int = 4000) -> float:
    """Integral over eps in (0, max(1, diameter)] of sqrt(H(eps)).

    H is piecewise constant: below the smallest positive distance it equals
    the log point count (that segment integrates in closed form), past the
    diameter it is 0, and between them the trapezoid rule runs on eps_steps
    log-spaced nodes with the covering number cached per breakpoint interval.
    sigma_scale multiplies the semi-distance before integrating.
    """
    rho = space.rho * float(sigma_scale)
    pos = rho[rho > 0]
    if pos.size == 0:
        return 0.0
    scaled = FiniteMetricSpace(space.labels, rho)
    breakpoints = np.unique(pos)
    d_min = float(breakpoints[0])
    diam = float(breakpoints[-1])

    cache: dict[int, float] = {}

    def h_at(eps_values: np.ndarray) -> np.ndarray:
        # relative nudge keeps the node-to-interval assignment scale
        # covariant when a node lands within an ulp of a breakpoint
        idx = np.searchsorted(breakpoints, eps_values * (1 + 1e-9), side="right") - 1
        out = np.empty(eps_values.size)
        for j in np.unique(idx):
            if j not in cache:
                c, _, _ = covering_number(scaled, float(breakpoints[j]))
                cache[j] = math.log(c)
            out[idx == j] = cache[j]
        return out

    n_classes, _, _ = covering_number(scaled, d_min * 0.5)
    exact_part = d_min * math.sqrt(math.log(n_classes))
    if diam <= d_min:
        return exact_part
    nodes = np.geomspace(d_min, diam, max(eps_steps, 2))
    vals = np.sqrt(h_at(nodes))
    return exact_part + float(np.trapezoid(vals, nodes))


def dudley_integral_breakpoints(space: FiniteMetricSpace,
                                sigma_scale: float = 1.0) -> float:
    """Exact breakpoint integration of sqrt(H): H is constant on the open
    intervals between consecutive distinct distances, so the integral is a
    finite sum. Used as the independent oracle for the quadrature path."""
    rho = space.rho * float(sigma_scale)
    pos = np.unique(rho[rho > 0])
    if pos.size == 0:
        return 0.0
    scaled = FiniteMetricSpace(space.labels, rho)
    n_classes, _, _ = covering_number(scaled, float(pos[0]) * 0.5)
    total = float(pos[0]) * math.sqrt(math.log(n_classes))
    for lo, hi in zip(pos[:-1], pos[1:]):
        c, _, _ = covering_number(scaled, float(lo))  # N on [lo, hi)
        total += (float(hi) - float(lo)) * math.sqrt(math.log(c))
    return total


# ---------------------------------------------------------------------------
# field supremum simulator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldModel:
    """Linear random field eta(z) = sum_l g_l f_l(z) with i.i.d. driver
    coefficients g_l (standard gaussian or rademacher)."""

    features: np.ndarray  # shape (L, n_points)
    driver: str = "gaussian"
    labels: tuple | None = None

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        object.__setattr__(self, "features", f)
        if f.ndim != 2 or f.size == 0:
            raise ValueError("features must be a 2-d (L, points) matrix")
        if self.driver not in ("gaussian", "rademacher"):
            raise ValueError("driver must be gaussian or rademacher")
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(range(f.shape[1])))
        else:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_points(self) -> int:
        return self.features.shape[1]

    @property
    def sigma(self) -> float:
        """sup_z (sum_l f_l(z)^2)^(1/2); equals the uniform subgaussian bound
        exactly under the gaussian driver, an upper bound under rademacher."""
        return float(np.max(np.linalg.norm(self.features, axis=0)))

    @property
    def rho_is_exact(self) -> bool:
        return self.driver == "gaussian"

    def rho_matrix(self) -> np.ndarray:
        """Euclidean feature distance; the subgaussian semi-distance exactly
        for the gaussian driver, an upper bound for rademacher."""
        f = self.features.T
        d2 = np.sum((f[:, None, :] - f[None, :, :]) ** 2, axis=2)
        r = np.sqrt(np.maximum(d2, 0.0))
        r = 0.5 * (r + r.T)
        np.fill_diagonal(r, 0.0)
        return r

    def space(self) -> FiniteMetricSpace:
        return FiniteMetricSpace(self.labels, self.rho_matrix())

    def to_json(self) -> dict:
        return {"features": self.features.tolist(), "driver": self.driver,
                "labels": list(self.labels)}

    @staticmethod
    def from_json(obj: dict) -> "FieldModel":
        return FieldModel(np.asarray(obj["features"], float), obj.get("driver", "gaussian"),
                          tuple(obj["labels"]) if "labels" in obj else None)


MC_CHUNKS = 16


def field_sup_stats(model: FieldModel, coeff_sets, copies: int = 100_000,
                    seed: int = 0, threads: int = 1,
                    p_grid=(2.0, 4.0, 6.0, 8.0)) -> dict:
    """Simulate sup_z of sum_i a_i eta_i(z) over independent field copies and
    report its empirical L_p norms, their ratios to sqrt(p), and the model's
    entropy data (semi-distance matrix, sigma, Dudley functional).

    The moment estimates carry CLT standard errors; the subgaussian signature
    is the boundedness of the ratio sequence, reported, not asserted against
    any absolute constant.
    """
    f = model.features  # (L, Z)
    L, n_z = f.shape
    p_grid = tuple(float(p) for p in p_grid)
    space = model.space()
    dudley = dudley_integral(space) if n_z > 1 else 0.0
    sigma = model.sigma

    rows = []
    for a_idx, a in enumerate(coeff_sets):
        ent = np.asarray(a.entries if hasattr(a, "entries") else a, dtype=float)
        n = ent.size
        sizes = [copies // MC_CHUNKS] * MC_CHUNKS
        sizes[-1] += copies - sum(sizes)

        def one(chunk, n=n, ent=ent):
            rng = substream(seed, 0xF1E1D, a_idx, chunk)
            shape = (sizes[chunk], n, L)
            if model.driver == "gaussian":
                g = rng.standard_normal(shape)
            else:
                g = rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
            w = np.einsum("cnl,n->cl", g, ent)
            sup = np.max(w @ f, axis=1)
            asup = np.abs(sup)
            return [(float(np.sum(asup**p)), float(np.sum(asup ** (2 * p))))
                    for p in p_grid]

        parts = ordered_map(one, range(MC_CHUNKS), threads)
        moments = {}
        for j, p in enumerate(p_grid):
            m = math.fsum(x[j][0] for x in parts) / copies
            m2 = math.fsum(x[j][1] for x in parts) / copies
            se = math.sqrt(max(m2 - m * m, 0.0) / copies)
            norm = m ** (1.0 / p)
            norm_se = se * norm / (p * m) if m > 0 else 0.0
            moments[p] = {"norm": norm, "norm_se": norm_se,
                          "ratio": norm / math.sqrt(p),
                          "ratio_se": norm_se / math.sqrt(p)}
        ratios = [moments[p]["ratio"] for p in p_grid]
        rows.append({"coefficients": ent.tolist(), "moments": moments,
                     "ratio_bound": max(ratios)})

    return {
        "suite": "field_sup",
        "driver": model.driver,
        "points": n_z,
        "copies": copies,
        "sigma": sigma,
        "rho": model.rho_matrix().tolist(),
        "rho_exact": model.rho_is_exact,
        "entropy_integral": dudley,
        "dudley_functional": sigma + dudley,
        "p_grid": list(p_grid),
        "rows": rows,
    }
