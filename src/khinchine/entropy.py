"""Metric-entropy toolkit: covering numbers of finite semi-metric spaces, the
entropy integral under the square root (Dudley functional), and a simulator
for the supremum of weighted sums of independent field copies.

Every covering number comes from one batched greedy cover engine (minimum
covers by branch and bound up to EXACT_COVER_LIMIT points); the Dudley
integral is their exact finite sum over the distinct distances."""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution
from .numerics import mc_abs_moments, stream_rows, substream

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
        # through[i, k] = min over j of r[i, j] + r[j, k], in two n x n buffers
        through, tmp = r[:, 0, None] + r[None, 0, :], np.empty_like(r)
        for j in range(1, n):
            np.add(r[:, j, None], r[None, j, :], out=tmp)
            np.minimum(through, tmp, out=through)
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
        labels = tuple(s.strip() for s in next(csv.reader(fh), ()))
        with warnings.catch_warnings():  # no rows: refused below, not square
            warnings.simplefilter("ignore", UserWarning)
            mat = np.loadtxt(fh, delimiter=",", ndmin=2)
    return FiniteMetricSpace(labels, mat)


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------

#: bytes of boolean ball matrix (one per point pair and eps) built at once
COVER_CHUNK_BYTES = 1 << 21


def _ball_masks(space: FiniteMetricSpace, eps: float) -> list[int]:
    """Ball i as a Python int whose bit z is set when rho[i, z] <= eps."""
    rows = np.packbits(space.rho <= eps, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


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
    del rec  # the closure refers to itself: a reference cycle until gc ran
    return best


def _covers(space: FiniteMetricSpace, eps, exact: bool) -> list[list[int]]:
    """One cover by closed balls per eps, as centre indices in pick order.

    The greedy cover (each step takes the ball covering most uncovered
    points, ties to the lowest index) runs for a chunk of eps at once on
    uint64 ball words, a row leaving once it is covered; a chunk holds as
    many eps as fit COVER_CHUNK_BYTES of boolean ball matrix, and at least
    one. `exact` then improves each cover to a minimum by branch and bound."""
    eps = np.asarray(eps, dtype=float)
    n = space.n
    # padding columns at +inf lie in no ball, so each row packs to whole words
    padded = np.pad(space.rho, ((0, 0), (0, -n % 64)), constant_values=np.inf)
    size = max(1, COVER_CHUNK_BYTES // padded.size)
    covers: list[list[int]] = []
    for start in range(0, eps.size, size):
        # balls[e, w, i] is word w of ball i, so gains add whole rows of words
        balls = np.packbits(padded <= eps[start:start + size, None, None], axis=-1,
                            bitorder="little").view(np.uint64).transpose(0, 2, 1).copy()
        uncovered = np.bitwise_or.reduce(balls, axis=2)  # each point is in its own ball
        chosen: list[list[int]] = [[] for _ in range(balls.shape[0])]
        live = np.arange(balls.shape[0])
        while live.size:
            gains = np.bitwise_count(balls & uncovered[:, :, None]).sum(axis=1)
            best = np.argmax(gains, axis=1)  # first maximum: lowest index
            for r, b in zip(live.tolist(), best.tolist()):
                chosen[r].append(b)
            uncovered &= ~balls[np.arange(live.size), :, best]
            keep = uncovered.any(axis=1)
            if not keep.all():
                live, balls, uncovered = live[keep], balls[keep], uncovered[keep]
        covers += chosen
    if exact:
        full = (1 << n) - 1
        covers = [_exact_cover(_ball_masks(space, float(e)), full, g)
                  for e, g in zip(eps, covers)]
    return covers


def covering_number(space: FiniteMetricSpace, eps: float):
    """Minimal number of closed eps-balls centered at points covering the set:
    exact branch-and-bound set cover up to EXACT_COVER_LIMIT points, greedy
    (standard ln-factor guarantee) above, reported with exact=False.
    Returns (count, exact, center_labels).
    """
    if not eps > 0:
        raise ValueError("covering_number needs eps > 0")
    exact = space.n <= EXACT_COVER_LIMIT
    (sel,) = _covers(space, [eps], exact)
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
    if not np.all(eps > 0):
        raise ValueError("entropy profile needs eps > 0")
    exact = space.n <= EXACT_COVER_LIMIT
    logs = [math.log(len(c)) for c in _covers(space, eps, exact)]
    return EntropyProfile(eps, np.array(logs), np.full(eps.size, exact))


# ---------------------------------------------------------------------------
# entropy integral
# ---------------------------------------------------------------------------

def dudley_integral(space: FiniteMetricSpace, sigma_scale: float = 1.0) -> float:
    """Integral over eps > 0 of sqrt(ln N(eps)), N as `covering_number`
    reports it, after multiplying the semi-distance by sigma_scale.

    N is constant on [lo, hi) between consecutive distinct distances, so the
    integral is exactly d_min sqrt(ln N(d_min / 2)) plus the sum of
    (hi - lo) sqrt(ln N(lo)), added in increasing eps; one engine call
    covers every breakpoint."""
    scaled = space.scaled(sigma_scale)
    pos = np.unique(scaled.rho[scaled.rho > 0])
    if pos.size == 0:
        return 0.0
    eps = np.concatenate(([pos[0] * 0.5], pos[:-1]))
    counts = [len(c) for c in _covers(scaled, eps, scaled.n <= EXACT_COVER_LIMIT)]
    total = float(pos[0]) * math.sqrt(math.log(counts[0]))
    for lo, hi, c in zip(pos[:-1].tolist(), pos[1:].tolist(), counts[1:]):
        total += (hi - lo) * math.sqrt(math.log(c))
    return total


# ---------------------------------------------------------------------------
# field supremum simulator
# ---------------------------------------------------------------------------

#: the driver laws, the two for which `rho_is_exact` and `sigma` hold
FIELD_DRIVERS = {"gaussian": Distribution.gaussian(1.0), "rademacher": Distribution.rademacher()}


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
        if self.driver not in FIELD_DRIVERS:
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

    def space(self) -> FiniteMetricSpace:
        """Euclidean feature distance; the subgaussian semi-distance exactly
        for the gaussian driver, an upper bound for rademacher."""
        return FiniteMetricSpace.from_points(self.features.T, self.labels)

    def to_json(self) -> dict:
        return {"features": self.features.tolist(), "driver": self.driver,
                "labels": list(self.labels)}

    @staticmethod
    def from_json(obj: dict) -> "FieldModel":
        return FieldModel(np.asarray(obj["features"], float), obj.get("driver", "gaussian"),
                          tuple(obj["labels"]) if "labels" in obj else None)


def field_sup_stats(model: FieldModel, coeff_sets, copies: int = 100_000,
                    seed: int = 0, threads: int = 1,
                    p_grid=(2.0, 4.0, 6.0, 8.0)) -> dict:
    """Simulate sup_z of sum_i a_i eta_i(z) over independent field copies and
    report its empirical L_p norms, their ratios to sqrt(p), and the model's
    entropy data (semi-distance matrix, sigma, Dudley functional).

    The moment estimates carry CLT standard errors; the subgaussian signature
    is the boundedness of the ratio sequence, reported, not asserted against
    any absolute constant. Memory per thread (`mc_abs_moments`): one vector
    of copies/16 floats for one p, one more and up to floor(log2 max p) for
    a p-grid, and one block of copies within MC_BLOCK_BYTES.
    """
    f = model.features  # (L, Z)
    L, n_z = f.shape
    driver = FIELD_DRIVERS[model.driver]
    p_grid = tuple(float(p) for p in p_grid)
    space = model.space()
    dudley = dudley_integral(space)
    sigma = model.sigma

    rows = []
    for a_idx, a in enumerate(coeff_sets):
        ent = np.asarray(a.entries if hasattr(a, "entries") else a, dtype=float)

        def block(rng, m):
            w = np.einsum("cnl,n->cl", driver.draw(rng, (m, ent.size, L)), ent)
            return np.abs(np.max(w @ f, axis=1))

        # a row holds its draws, their weighted sum w, the field w @ f and its sup
        width = driver.record.draw_words * ent.size * L + L + n_z + 1

        def sample(chunk, size):
            return stream_rows(block, substream(seed, 0xF1E1D, a_idx, chunk), size, width)

        moments = {}
        for p, (m, se) in zip(p_grid, mc_abs_moments(sample, p_grid, copies, threads)):
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
        "rho": space.rho.tolist(),
        "rho_exact": model.rho_is_exact,
        "entropy_integral": dudley,
        "dudley_functional": sigma + dudley,
        "p_grid": list(p_grid),
        "rows": rows,
    }
