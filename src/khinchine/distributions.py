"""Catalog of centered probability laws with exact moment generating
functions, absolute moments, and deterministic seeded samplers.

Every law in the catalog satisfies Cramer's condition (MGF finite in a
neighborhood of 0, here everywhere), so all of them are usable on the
exponential-moment norm paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import log_cosh, log_sinhc, substream

POISSON_TAIL_MASS = 1e-14
SUPPORT_MERGE_TOL = 1e-12


class DistributionError(ValueError):
    """Invalid law specification or parameters."""


@dataclass(frozen=True)
class SampleBatch:
    """Seeded i.i.d. draws; regenerable bitwise from (law, seed, stream)."""

    values: np.ndarray
    seed: int
    stream: int
    law: str


def _gauss_legendre_panels(a: float, b: float, n_panels: int = 60, n_nodes: int = 32):
    """Composite Gauss-Legendre nodes/weights on [a, b] with geometric grading
    near a (handles the |x|^p derivative kink at 0 for fractional p)."""
    base_x, base_w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.concatenate([[a], a + (b - a) * np.geomspace(1e-12, 1.0, n_panels)])
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = 0.5 * (hi - lo)
        xs.append(lo + h * (base_x + 1.0))
        ws.append(h * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def _poisson_pmf_truncated(mu: float, tail: float = POISSON_TAIL_MASS):
    """Poisson(mu) pmf on 0..K with K chosen so the discarded upper tail mass
    is below `tail`; probabilities renormalized to sum to 1 exactly."""
    k_max = int(mu + 20.0 * math.sqrt(mu) + 40.0)
    while True:
        ks = np.arange(k_max + 1)
        logp = ks * math.log(mu) - mu - np.array([math.lgamma(k + 1.0) for k in ks])
        p = np.exp(logp)
        if 1.0 - p.sum() < tail:
            break
        k_max *= 2
    keep = int(np.nonzero(np.cumsum(p) < 1.0 - tail)[0][-1]) + 2 if p.size > 1 else 1
    keep = min(keep, p.size)
    p = p[:keep]
    return np.arange(keep), p / p.sum()


@dataclass(frozen=True)
class Distribution:
    """A centered law from the catalog.

    law is one of: rademacher, gaussian, centered_poisson, symmetrized_poisson,
    uniform_symmetric, discrete. Parameters live in `params`; discrete laws
    carry their (support, probs) arrays.
    """

    law: str
    params: tuple = ()
    support: np.ndarray | None = field(default=None, compare=False)
    probs: np.ndarray | None = field(default=None, compare=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def rademacher() -> "Distribution":
        return Distribution("rademacher")

    @staticmethod
    def gaussian(sigma: float) -> "Distribution":
        if not sigma > 0:
            raise DistributionError("gaussian sigma must be > 0")
        return Distribution("gaussian", (float(sigma),))

    @staticmethod
    def centered_poisson(mu: float) -> "Distribution":
        if not mu > 0:
            raise DistributionError("centered_poisson mu must be > 0")
        return Distribution("centered_poisson", (float(mu),))

    @staticmethod
    def symmetrized_poisson(mu: float) -> "Distribution":
        if not mu > 0:
            raise DistributionError("symmetrized_poisson mu must be > 0")
        return Distribution("symmetrized_poisson", (float(mu),))

    @staticmethod
    def uniform_symmetric(b: float) -> "Distribution":
        if not b > 0:
            raise DistributionError("uniform_symmetric b must be > 0")
        return Distribution("uniform_symmetric", (float(b),))

    @staticmethod
    def discrete(support, probs) -> "Distribution":
        v = np.asarray(support, dtype=float)
        p = np.asarray(probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1 or v.size == 0:
            raise DistributionError("discrete law needs matching 1-d support/probs")
        if np.any(p < 0):
            raise DistributionError("discrete probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise DistributionError(f"discrete probabilities sum to {p.sum()!r}, not 1")
        # dedupe support within 1e-12, merging probabilities
        order = np.argsort(v, kind="stable")
        v, p = v[order], p[order]
        groups = np.concatenate([[True], np.diff(v) > SUPPORT_MERGE_TOL])
        gid = np.cumsum(groups) - 1
        pm = np.zeros(gid[-1] + 1)
        np.add.at(pm, gid, p)
        vm = v[np.searchsorted(gid, np.arange(gid[-1] + 1))]
        mean = float(np.dot(pm, vm))
        if abs(mean) > 1e-12:
            raise DistributionError(f"discrete law must be centered, mean = {mean!r}")
        if float(np.dot(pm, vm * vm)) <= 0:
            raise DistributionError("discrete law must have positive variance")
        return Distribution("discrete", (), support=vm, probs=pm)

    # -- basic facts ---------------------------------------------------------

    @property
    def mean(self) -> float:
        return 0.0

    @property
    def variance(self) -> float:
        if self.law == "rademacher":
            return 1.0
        if self.law == "gaussian":
            return self.params[0] ** 2
        if self.law == "centered_poisson":
            return self.params[0]
        if self.law == "symmetrized_poisson":
            return 2.0 * self.params[0]
        if self.law == "uniform_symmetric":
            return self.params[0] ** 2 / 3.0
        return float(np.dot(self.probs, self.support**2))

    @property
    def is_symmetric(self) -> bool:
        if self.law in ("rademacher", "gaussian", "symmetrized_poisson", "uniform_symmetric"):
            return True
        if self.law == "centered_poisson":
            return False
        # discrete: support is sorted; symmetric iff mirrored values and probs
        # match to 1e-12 absolute (no relative slack: the even-moment path
        # drops the odd moments on this test)
        v, p = self.support, self.probs
        return bool(np.allclose(v, -v[::-1], rtol=0.0, atol=1e-12)
                    and np.allclose(p, p[::-1], rtol=0.0, atol=1e-12))

    @property
    def satisfies_cramer(self) -> bool:
        return True  # every catalog law has an entire MGF

    @property
    def label(self) -> str:
        if self.law == "discrete":
            return f"discrete[{self.support.size}]"
        if self.params:
            return f"{self.law}({', '.join(repr(p) for p in self.params)})"
        return self.law

    # -- moment generating function -----------------------------------------

    def log_mgf(self, lam) -> np.ndarray:
        """ln E exp(lam * X), exact closed form, vectorized and overflow-safe
        (returns +inf where the value exceeds the double range)."""
        lam = np.asarray(lam, dtype=float)
        scalar = lam.ndim == 0
        lam = np.atleast_1d(lam)
        if self.law == "rademacher":
            out = log_cosh(lam)
        elif self.law == "gaussian":
            s = self.params[0]
            out = 0.5 * (lam * s) ** 2
        elif self.law == "centered_poisson":
            mu = self.params[0]
            with np.errstate(over="ignore"):
                out = mu * (np.expm1(lam) - lam)
        elif self.law == "symmetrized_poisson":
            mu = self.params[0]
            with np.errstate(over="ignore"):
                s = np.sinh(0.5 * lam)  # cosh(x) - 1 = 2 sinh^2(x/2), no cancellation
                out = 4.0 * mu * s * s
        elif self.law == "uniform_symmetric":
            out = log_sinhc(self.params[0] * lam)
        else:
            v, p = self.support, self.probs
            z = np.outer(lam, v)
            zmax = z.max(axis=1)
            out = np.empty(lam.size)
            small = zmax < 33.0
            if small.any():
                # sum p * e^{lam v} - 1 = sum p * expm1(lam v), exact since sum p = 1
                out[small] = np.log1p(np.expm1(z[small]) @ p)
            if (~small).any():
                zb = z[~small]
                m = zb.max(axis=1, keepdims=True)
                with np.errstate(over="ignore"):
                    out[~small] = m[:, 0] + np.log(np.exp(zb - m) @ p)
        return float(out[0]) if scalar else out

    def mgf(self, lam) -> np.ndarray:
        """E exp(lam * X); +inf acts as the overflow sentinel."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_mgf(lam))

    # -- absolute moments ----------------------------------------------------

    def abs_moment(self, p: float) -> float:
        """E |X|^p for p >= 1; exact sums for lattice laws, composite
        Gauss-Legendre quadrature for the continuous ones."""
        if p < 1:
            raise DistributionError("abs_moment requires p >= 1")
        sup = self.finite_support()
        if sup is not None:
            v, pr = sup
            return float(np.dot(pr, np.abs(v) ** p))
        if self.law == "gaussian":
            s = self.params[0]
            x, w = _gauss_legendre_panels(0.0, 40.0)
            return float(s**p * 2.0 * np.dot(w, x**p * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)))
        # uniform_symmetric
        b = self.params[0]
        x, w = _gauss_legendre_panels(0.0, b)
        return float(np.dot(w, x**p) / b)

    def lp_norm(self, p: float) -> float:
        return self.abs_moment(p) ** (1.0 / p)

    def even_moments(self, k: int) -> np.ndarray:
        """E X^(2i) for i = 0..k: closed forms for the continuous laws and
        Rademacher, exact sums over `finite_support` for the lattice laws."""
        i = np.arange(k + 1)
        if self.law == "rademacher":
            return np.ones(k + 1)
        if self.law == "gaussian":
            # sigma^(2i) (2i - 1)!!
            s2 = self.params[0] ** 2
            return np.cumprod(np.concatenate([[1.0], s2 * (2.0 * i[1:] - 1.0)]))
        if self.law == "uniform_symmetric":
            return self.params[0] ** (2.0 * i) / (2.0 * i + 1.0)
        v, pr = self.finite_support()
        return np.array([1.0] + [float(np.dot(pr, v ** (2 * j))) for j in i[1:]])

    # -- finite support -------------------------------------------------------

    def finite_support(self):
        """(values, probs) for lattice laws; None for continuous ones.

        Poisson-family supports are truncated at upper-tail mass below 1e-14
        and renormalized, which keeps the truncation error under the
        quadrature tolerance elsewhere in the package.
        """
        if self.law == "rademacher":
            return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
        if self.law == "discrete":
            return self.support.copy(), self.probs.copy()
        if self.law == "centered_poisson":
            mu = self.params[0]
            ks, pr = _poisson_pmf_truncated(mu)
            return ks - mu, pr
        if self.law == "symmetrized_poisson":
            mu = self.params[0]
            ks, pr = _poisson_pmf_truncated(mu)
            conv = np.convolve(pr, pr[::-1])
            vals = np.arange(-(ks.size - 1), ks.size, dtype=float)
            return vals, conv / conv.sum()
        return None

    # -- sampling -------------------------------------------------------------

    def sample(self, n: int, seed: int, stream: int = 0) -> SampleBatch:
        """n i.i.d. draws from the counter-based sub-stream (seed, stream)."""
        if n < 1:
            raise DistributionError("sample size must be >= 1")
        rng = substream(seed, stream)
        vals = self.draw(rng, n)
        return SampleBatch(values=vals, seed=int(seed), stream=int(stream), law=self.label)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Raw draws using a caller-managed generator."""
        if self.law == "rademacher":
            return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
        if self.law == "gaussian":
            return rng.standard_normal(size) * self.params[0]
        if self.law == "centered_poisson":
            mu = self.params[0]
            return rng.poisson(mu, size=size).astype(float) - mu
        if self.law == "symmetrized_poisson":
            mu = self.params[0]
            return (rng.poisson(mu, size=size) - rng.poisson(mu, size=size)).astype(float)
        if self.law == "uniform_symmetric":
            b = self.params[0]
            return rng.uniform(-b, b, size=size)
        return rng.choice(self.support, size=size, p=self.probs)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        if self.law == "discrete":
            return {"law": "discrete", "support": self.support.tolist(), "probs": self.probs.tolist()}
        out = {"law": self.law}
        names = {"gaussian": "sigma", "centered_poisson": "mu",
                 "symmetrized_poisson": "mu", "uniform_symmetric": "b"}
        if self.params:
            out[names[self.law]] = self.params[0]
        return out

    @staticmethod
    def from_json(obj: dict) -> "Distribution":
        law = obj.get("law")
        if law == "rademacher":
            return Distribution.rademacher()
        if law == "gaussian":
            return Distribution.gaussian(obj["sigma"])
        if law == "centered_poisson":
            return Distribution.centered_poisson(obj["mu"])
        if law == "symmetrized_poisson":
            return Distribution.symmetrized_poisson(obj["mu"])
        if law == "uniform_symmetric":
            return Distribution.uniform_symmetric(obj["b"])
        if law == "discrete":
            return Distribution.discrete(obj["support"], obj["probs"])
        raise DistributionError(f"unknown law {law!r}")


def parse_distribution(spec: str) -> Distribution:
    """Parse CLI specs like 'rademacher', 'gaussian:1', 'centered-poisson:1',
    'uniform-symmetric:1.732', or '@file.json' for a JSON law descriptor."""
    spec = spec.strip()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return Distribution.from_json(json.load(fh))
    name, _, rest = spec.partition(":")
    name = name.replace("-", "_").lower()
    if name == "rademacher":
        return Distribution.rademacher()
    builders = {
        "gaussian": Distribution.gaussian,
        "centered_poisson": Distribution.centered_poisson,
        "symmetrized_poisson": Distribution.symmetrized_poisson,
        "uniform_symmetric": Distribution.uniform_symmetric,
    }
    if name in builders:
        if not rest:
            raise DistributionError(f"law {name!r} needs a parameter, e.g. {name}:1")
        try:
            return builders[name](float(rest))
        except ValueError as exc:
            raise DistributionError(f"bad parameter {rest!r} for law {name!r}") from exc
    raise DistributionError(f"unknown law spec {spec!r}")
