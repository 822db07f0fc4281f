"""Catalog of centered probability laws with exact moment generating
functions, absolute moments, and deterministic seeded samplers.

A law is one `Law` record in `LAWS`: its parameter, variance, symmetry,
log-MGF (and whether it is even bit for bit), even moments, finite support,
sampler, closed-form absolute moment, the closed-form inverse of its
natural generating function, and (for the Gaussian) the closed-form law of
a weighted sum of copies. `Distribution`
carries a law's name and parameter, and every method reads the record, so
adding a law is adding one record.

Every law in the catalog satisfies Cramer's condition (MGF finite in a
neighborhood of 0, here everywhere), so all of them are usable on the
exponential-moment norm paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import collapse_support, log_cosh, log_sinhc

POISSON_TAIL_MASS = 1e-14


class DistributionError(ValueError):
    """Invalid law specification or parameters."""


def _poisson_pmf_truncated(mu: float):
    """Poisson(mu) pmf on k_lo..K, renormalized to sum to 1. Below k_lo =
    ceil(mu - 39 sqrt(mu)) (0 for mu <= 1521) every mass is under half the
    smallest subnormal (Chernoff: P(X <= mu - t) <= exp(-t^2 / 2mu)), so it
    would round to 0. The discarded upper tail mass, bounded by
    p[K] (K+1)/(K+1-mu) as p[k+1]/p[k] = mu/(k+1), is at most 1e-75 at
    K = mu + 20 sqrt(mu) + 40 for every mu from 1e-300 to 1e12; the k past
    prefix mass 1 - POISSON_TAIL_MASS are dropped (the rounded 1 - sum(p)
    can stay above it at every K)."""
    k_max = int(mu + 20.0 * math.sqrt(mu) + 40.0)  # > mu
    ks = np.arange(max(0, math.ceil(mu - 39.0 * math.sqrt(mu))), k_max + 1)
    logp = ks * math.log(mu) - mu - np.array([math.lgamma(k + 1.0) for k in ks])
    p = np.exp(logp)
    # the cumulative sum rises, so the k with prefix mass below 1 - tail are
    # the first `below`; keep one more, and always the first two (at mu below
    # about 1e-14, p[0] alone reaches 1 - tail)
    below = int(np.count_nonzero(np.cumsum(p) < 1.0 - POISSON_TAIL_MASS))
    keep = min(max(below, 1) + 1, p.size)
    p = p[:keep]
    return ks[:keep], p / p.sum()


def lp_root(moment: float, p: float, support=None) -> float:
    """||X||_p = moment^(1/p) from moment = E|X|^p. Where the moment has
    overflowed and X lives on support = (values, probs), the scaled form
    M (sum probs (|v|/M)^p)^(1/p) with M = max |v|; it can differ from the
    plain root by a few ulp, so it is taken only there."""
    if moment < math.inf or support is None:
        return moment ** (1.0 / p)
    absv, probs = np.abs(support[0]), support[1]
    top = float(absv.max())
    return top * float(np.dot(probs, (absv / top) ** p)) ** (1.0 / p)


def support_moments(values, probs, ps) -> list:
    """E|X|^p for every p in ps, X on the finite support (values, probs);
    inf where a moment leaves the double range."""
    absv = np.abs(values)
    with np.errstate(over="ignore"):
        return [float(np.dot(probs, absv ** p)) for p in ps]


@dataclass(frozen=True)
class Distribution:
    """A centered law from the catalog.

    law names a record of `LAWS`: rademacher, gaussian, centered_poisson,
    symmetrized_poisson, uniform_symmetric or discrete. Parameters live in
    `params`; discrete laws carry their (support, probs) arrays.
    """

    law: str
    params: tuple = ()
    support: np.ndarray | None = field(default=None, compare=False)
    probs: np.ndarray | None = field(default=None, compare=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _parametric(law: str, value: float) -> "Distribution":
        d = Distribution(law, (float(value),))
        try:
            var = d.variance if value > 0 else math.nan
        except OverflowError:  # Python float powers raise
            var = math.inf
        if not 0.0 < var < math.inf:  # a variance can also underflow to 0
            raise DistributionError(f"{law} {LAWS[law].fields[0]} must be > 0 and "
                                    f"finite, with a finite variance > 0; got {value!r}")
        return d

    @staticmethod
    def rademacher() -> "Distribution":
        return Distribution("rademacher")

    @staticmethod
    def gaussian(sigma: float) -> "Distribution":
        return Distribution._parametric("gaussian", sigma)

    @staticmethod
    def centered_poisson(mu: float) -> "Distribution":
        return Distribution._parametric("centered_poisson", mu)

    @staticmethod
    def symmetrized_poisson(mu: float) -> "Distribution":
        return Distribution._parametric("symmetrized_poisson", mu)

    @staticmethod
    def uniform_symmetric(b: float) -> "Distribution":
        return Distribution._parametric("uniform_symmetric", b)

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
        order = np.argsort(v, kind="stable")
        v, p = collapse_support(v[order], p[order])
        mean = float(np.dot(p, v))
        if abs(mean) > 1e-12:
            raise DistributionError(f"discrete law must be centered, mean = {mean!r}")
        if float(np.dot(p, v * v)) <= 0:
            raise DistributionError("discrete law must have positive variance")
        return Distribution("discrete", (), support=v, probs=p)

    # -- basic facts ---------------------------------------------------------

    @property
    def record(self) -> "Law":
        return LAWS[self.law]

    @property
    def variance(self) -> float:
        return self.record.variance(self)

    @property
    def is_symmetric(self) -> bool:
        return self.record.symmetric(self)

    @property
    def is_stable(self) -> bool:
        """Whether scaled independent copies, with any parameters, sum to a
        law of the same record (`sum_law` applies)."""
        return self.record.sum_law is not None

    @property
    def label(self) -> str:
        if self.support is not None:
            return f"{self.law}[{self.support.size}]"
        if self.params:
            return f"{self.law}({', '.join(repr(p) for p in self.params)})"
        return self.law

    # -- moment generating function -----------------------------------------

    def log_mgf(self, lam) -> np.ndarray:
        """ln E exp(lam * X), exact closed form, vectorized and overflow-safe
        (+inf, without a warning, where the value exceeds the double range).
        Each entry gets the same bits whatever else is in lam."""
        lam = np.asarray(lam, dtype=float)
        scalar = lam.ndim == 0
        with np.errstate(over="ignore"):
            out = self.record.log_mgf(self, np.atleast_1d(lam))
        return float(out[0]) if scalar else out

    def two_sided_log_mgf(self, lam) -> np.ndarray:
        """max(log_mgf(lam), log_mgf(-lam)): one log_mgf call where the
        record's `bit_even` says the two have the same bits, else two."""
        y = self.log_mgf(lam)
        return y if self.record.bit_even else np.maximum(y, self.log_mgf(-lam))

    def mgf(self, lam) -> np.ndarray:
        """E exp(lam * X); +inf acts as the overflow sentinel."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_mgf(lam))

    def natural_inverse(self):
        """Closed-form inverse y -> lambda of the natural generating function
        `two_sided_log_mgf`, or None where the law has none."""
        inverse = self.record.natural_inverse
        return None if inverse is None else (lambda y: inverse(self, y))

    # -- absolute moments ----------------------------------------------------

    def abs_moment(self, p: float) -> float:
        """E |X|^p for p >= 1; exact sums for lattice laws, closed forms for
        the continuous ones, through the log form where a factor of the
        closed form leaves the double range (inf where the moment does)."""
        if p < 1:
            raise DistributionError("abs_moment requires p >= 1")
        sup = self.finite_support()
        if sup is not None:
            return support_moments(*sup, [p])[0]
        try:
            m = self.record.abs_moment(self, p)
        except OverflowError:  # Python float powers and math.gamma raise
            m = 0.0
        try:
            return m if 0.0 < m < math.inf else math.exp(self.record.log_abs_moment(self, p))
        except OverflowError:
            return math.inf

    def lp_norm(self, p: float) -> float:
        """||X||_p, from the log form (continuous laws) or the scaled sum
        (lattice laws, see `lp_root`) where E|X|^p leaves the double range."""
        m = self.abs_moment(p)
        if 0.0 < m < math.inf or self.record.log_abs_moment is None:
            return lp_root(m, p, self.finite_support() if m == math.inf else None)
        return math.exp(self.record.log_abs_moment(self, p) / p)

    def even_moments(self, k: int) -> np.ndarray:
        """E X^(2i) for i = 0..k: the record's closed form where it has one,
        else exact sums over `finite_support`."""
        i = np.arange(k + 1)
        if self.record.even_moments is not None:
            return self.record.even_moments(self, i)
        v, pr = self.finite_support()
        return np.array([1.0] + [float(np.dot(pr, v ** (2 * j))) for j in i[1:]])

    # -- finite support and weighted sums ---------------------------------------

    def finite_support(self):
        """(values, probs) for lattice laws, atoms of positive mass only (a
        Poisson pmf underflows to 0 far from mu); None for continuous ones.

        Poisson-family supports are truncated at upper-tail mass below 1e-14
        and renormalized, which keeps the truncation error under the
        1e-12 tolerances elsewhere in the package.
        """
        support = self.record.finite_support
        if support is None:
            return None
        vals, probs = support(self)
        return vals[probs > 0.0], probs[probs > 0.0]

    def sum_law(self, weights):
        """The law of sum_k weights[k] X_k in closed form, or None."""
        sum_law = self.record.sum_law
        return None if sum_law is None else sum_law(self, np.asarray(weights, dtype=float))

    def row_sums(self, weights):
        """(block(rng, m), width): m draws of sum_k weights[k] X_k from the
        stream `draw` reads, each row holding `width` 8-byte words, for a law
        with a faster way than summing drawn rows; else None."""
        row_sums = self.record.row_sums
        return None if row_sums is None else row_sums(self, np.asarray(weights, dtype=float))

    def tail(self, u: float) -> float:
        """max(P(X >= u), P(X <= -u)) in closed form; laws with `sum_law`
        have one."""
        return self.record.tail(self, u)

    # -- sampling -------------------------------------------------------------

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Raw draws using a caller-managed generator. The m rows of a (m, *rest)
        draw are drawn in turn; a Rademacher row owns whole 64-bit Philox words,
        its sign j is bit j % 64 (little-endian) of word j // 64, bit 1 is +1."""
        return self.record.draw(self, rng, size)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        values = (self.params if self.support is None
                  else (self.support.tolist(), self.probs.tolist()))
        return {"law": self.law, **dict(zip(self.record.fields, values))}

    @staticmethod
    def from_json(obj: dict) -> "Distribution":
        law = obj.get("law")
        rec = LAWS.get(law) if isinstance(law, str) else None
        if rec is None:
            raise DistributionError(f"unknown law {law!r}; known: {', '.join(LAWS)}")
        return rec.build(*(obj[f] for f in rec.fields))


# ---------------------------------------------------------------------------
# the catalog: one record per law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """Everything the package uses about one law. Each function takes the
    Distribution d first, which carries the parameter (`params`) or the
    discrete arrays; optional facts are None where the law lacks them."""

    build: Callable  # the constructor, called with the JSON field values
    fields: tuple  # JSON fields after "law"; one field is the CLI parameter
    variance: Callable  # (d) -> Var X
    symmetric: Callable  # (d) -> whether X and -X have the same law
    log_mgf: Callable  # (d, lam as a 1-d array) -> ln E exp(lam X)
    draw: Callable  # (d, rng, size) -> draws
    draw_words: int  # 8-byte words a drawn element holds at most while it is drawn
    bit_even: bool = False  # whether log_mgf(-lam) has the bits of log_mgf(lam)
    finite_support: Callable | None = None  # (d) -> (values, probs)
    even_moments: Callable | None = None  # (d, i) -> E X^(2i); None: from the support
    abs_moment: Callable | None = None  # (d, p) -> E|X|^p for laws without a support
    log_abs_moment: Callable | None = None  # (d, p) -> ln E|X|^p, past abs_moment's range
    natural_inverse: Callable | None = None  # (d, y) -> its natural phi inverted at y
    sum_law: Callable | None = None  # (d, weights) -> law of sum weights[k] X_k
    row_sums: Callable | None = None  # (d, weights) -> see Distribution.row_sums
    tail: Callable | None = None  # (d, u) -> max(P(X >= u), P(X <= -u))


def _symmetrized_poisson_log_mgf(mu, lam):
    s = np.sinh(0.5 * lam)  # cosh(x) - 1 = 2 sinh^2(x/2), no cancellation
    return 4.0 * mu * s * s


def _centered_poisson_support(mu):
    ks, pr = _poisson_pmf_truncated(mu)
    return ks - mu, pr


def _symmetrized_poisson_support(mu):
    ks, pr = _poisson_pmf_truncated(mu)
    conv = np.convolve(pr, pr[::-1])
    vals = np.arange(-(ks.size - 1), ks.size, dtype=float)
    probs = conv / conv.sum()  # off by a few ulp: the atom at 0 takes the gap
    while (gap := 1.0 - math.fsum(probs)) != 0.0:
        probs[ks.size - 1] += gap
    return vals, probs


def _sign_words(rng, m: int, k: int) -> np.ndarray:
    """The Philox words of m rows of k Rademacher signs: ceil(k / 64) raw
    64-bit words a row, little-endian, so sign j is bit j % 8 of byte j // 8."""
    return rng.bit_generator.random_raw((m, -(-k // 64))).astype("<u8", copy=False)


def _rademacher_draw(d, rng, size):
    # from a list: tuple() of a generator resizes its tuple, and each resized one
    # freed joins the interpreter's free list (up to 2,000 a size)
    shape = tuple([int(s) for s in np.atleast_1d(size)])
    m, k = (1, shape[0]) if len(shape) == 1 else (shape[0], math.prod(shape[1:]))
    signs = np.unpackbits(_sign_words(rng, m, k).view(np.uint8), axis=1, count=k,
                          bitorder="little").astype(float)
    signs *= 2.0  # in place: a sign holds its float and its unpacked bit
    signs -= 1.0
    return signs.reshape(shape)


#: _BYTE_SIGNS[v, j]: sign j (bit j, little-endian) of the byte v
_BYTE_SIGNS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                            bitorder="little") * 2.0 - 1.0


def _rademacher_sums(d, weights):
    """Row sums of weights[k] eps_k from the words `_rademacher_draw` reads,
    one byte (8 signs) at a time: table T_b[v] is the fsum of weights
    8b..8b+7 signed by the bits of v, and a row's sum is T_0[byte_0] +
    T_1[byte_1] + ..., added left to right, so a sum is within n ulp of
    sum_k |weights[k]| of the exact one. Returns (block(rng, m) -> m sums,
    the 8-byte words a row holds: its Philox words, at most as many of byte
    indices, its sum, one looked-up term and that term's index)."""
    n = weights.size
    tables = [np.array([math.fsum(row) for row in (_BYTE_SIGNS[:, :c.size] * c).tolist()])
              for c in np.split(weights, range(8, n, 8))]

    def block(rng, m):
        idx = np.ascontiguousarray(_sign_words(rng, m, n).view(np.uint8)[:, :len(tables)].T)
        acc, term = np.take(tables[0], idx[0]), np.empty(m)
        for table, col in zip(tables[1:], idx[1:]):
            acc += np.take(table, col, out=term)
        return acc

    return block, 2 * -(-n // 64) + 3


def _discrete_symmetric(d):
    # support is sorted; symmetric iff mirrored values and probs match to
    # 1e-12 absolute (no relative slack: the even-moment path drops the odd
    # moments on this test)
    v, p = d.support, d.probs
    return bool(np.allclose(v, -v[::-1], rtol=0.0, atol=1e-12)
                and np.allclose(p, p[::-1], rtol=0.0, atol=1e-12))


def _discrete_log_mgf(d, lam):
    v, p = d.support, d.probs
    z = np.outer(lam, v)
    zmax = z.max(axis=1)
    out = np.empty(lam.size)
    small = zmax < 33.0
    # per-row sums, not a matrix-vector product: a BLAS product's last bits
    # depend on how many rows share the call
    if small.any():
        # sum p * e^{lam v} - 1 = sum p * expm1(lam v), exact since sum p = 1
        out[small] = np.log1p((np.expm1(z[small]) * p).sum(axis=1))
    if (~small).any():
        zb = z[~small]
        m = zb.max(axis=1, keepdims=True)
        out[~small] = m[:, 0] + np.log((np.exp(zb - m) * p).sum(axis=1))
    return out


LAWS: dict[str, Law] = {
    "rademacher": Law(
        build=Distribution.rademacher, fields=(),
        variance=lambda d: 1.0,
        symmetric=lambda d: True,
        log_mgf=lambda d, lam: log_cosh(lam), bit_even=True,
        # one Philox bit per sign: a row (a 1-d size is one row) owns whole 64-bit
        # words, sign j is bit j % 64 (little-endian) of word j // 64, bit 1 is +1
        draw=_rademacher_draw, draw_words=2,
        row_sums=_rademacher_sums,
        finite_support=lambda d: (np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
        even_moments=lambda d, i: np.ones(i.size),
        natural_inverse=lambda d, y: y + np.log1p(np.sqrt(-np.expm1(-2.0 * y))),
    ),
    "gaussian": Law(
        build=Distribution.gaussian, fields=("sigma",),
        variance=lambda d: d.params[0] ** 2,
        symmetric=lambda d: True,
        log_mgf=lambda d, lam: 0.5 * (lam * d.params[0]) ** 2, bit_even=True,
        draw=lambda d, rng, size: rng.standard_normal(size) * d.params[0], draw_words=2,
        # sigma^(2i) (2i - 1)!!
        even_moments=lambda d, i: np.cumprod(
            np.concatenate([[1.0], d.params[0] ** 2 * (2.0 * i[1:] - 1.0)])),
        abs_moment=lambda d, p: (d.params[0] ** p * 2.0 ** (0.5 * p)
                                 * math.gamma(0.5 * (p + 1.0)) / math.sqrt(math.pi)),
        log_abs_moment=lambda d, p: (p * math.log(d.params[0] * math.sqrt(2.0))
                                     + math.lgamma(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi)),
        natural_inverse=lambda d, y: np.sqrt(2.0 * y) / d.params[0],
        sum_law=lambda d, a: Distribution.gaussian(d.params[0] * math.sqrt(float(np.dot(a, a)))),
        tail=lambda d, u: 0.5 * math.erfc(u / (math.sqrt(2.0) * d.params[0])),
    ),
    "centered_poisson": Law(
        build=Distribution.centered_poisson, fields=("mu",),
        variance=lambda d: d.params[0],
        symmetric=lambda d: False,
        log_mgf=lambda d, lam: d.params[0] * (np.expm1(lam) - lam),
        draw=lambda d, rng, size: rng.poisson(d.params[0], size=size).astype(float) - d.params[0],
        draw_words=2,
        finite_support=lambda d: _centered_poisson_support(d.params[0]),
    ),
    "symmetrized_poisson": Law(
        build=Distribution.symmetrized_poisson, fields=("mu",),
        variance=lambda d: 2.0 * d.params[0],
        symmetric=lambda d: True,
        log_mgf=lambda d, lam: _symmetrized_poisson_log_mgf(d.params[0], lam),
        bit_even=True,  # numpy's sinh is odd bit for bit
        # the two Poisson values of an element are adjacent draws, so rows stream
        draw=lambda d, rng, size: np.diff(rng.poisson(d.params[0], (*np.atleast_1d(size), 2))
                                          )[..., 0].astype(float),
        draw_words=3,  # the pair of counts and their difference
        finite_support=lambda d: _symmetrized_poisson_support(d.params[0]),
    ),
    "uniform_symmetric": Law(
        build=Distribution.uniform_symmetric, fields=("b",),
        variance=lambda d: d.params[0] ** 2 / 3.0,
        symmetric=lambda d: True,
        log_mgf=lambda d, lam: log_sinhc(d.params[0] * lam), bit_even=True,
        draw=lambda d, rng, size: rng.uniform(-d.params[0], d.params[0], size=size),
        draw_words=1,
        even_moments=lambda d, i: d.params[0] ** (2.0 * i) / (2.0 * i + 1.0),
        abs_moment=lambda d, p: d.params[0] ** p / (p + 1.0),
        log_abs_moment=lambda d, p: p * math.log(d.params[0]) - math.log1p(p),
    ),
    "discrete": Law(
        build=Distribution.discrete, fields=("support", "probs"),
        variance=lambda d: float(np.dot(d.probs, d.support**2)),
        symmetric=_discrete_symmetric,
        log_mgf=_discrete_log_mgf,
        # numpy's choice holds the uniforms, their indices and the values
        draw=lambda d, rng, size: rng.choice(d.support, size=size, p=d.probs), draw_words=3,
        finite_support=lambda d: (d.support, d.probs),
    ),
}


#: law name -> (CLI form, build from its fields); laws with array fields come only from a file
LAW_SPECS = {name: (name.replace("_", "-") + "".join(f":<{f}>" for f in rec.fields),
                    lambda *fields, build=rec.build: build(*map(float, fields)))
             for name, rec in LAWS.items() if len(rec.fields) <= 1}


def catalog(table: dict, file: bool = True) -> str:
    """The 'known:' list of one kind's CLI forms, for help texts and errors."""
    return ", ".join([form for form, _ in table.values()] + ["@file.json"] * file)


def _fold(name: str) -> str:
    return name.replace("-", "").replace("_", "").lower()


def finite(text: str) -> float:
    """The one reader of numeric fields, for `type=`, every spec and every
    JSON number: a finite float, else ValueError (which argparse reports as
    an invalid value). A JSON integer it passes stays an int."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{shorten(text.strip())!r} is not a finite number")
    return x


def shorten(text: str, most: int = 40) -> str:
    """text itself if it has at most `most` characters, else its first and
    last most / 2 - 2 joined by '...' and its length: how an error line
    quotes an outside field."""
    if len(text) <= most:
        return text
    half = most // 2 - 2
    return f"{text[:half]}...{text[-half:]} ({len(text)} characters)"


def read_json(path: str, build: Callable, what: str, error: type):
    """The one reader of outside JSON documents: `build(obj)` of the strict
    JSON document at `path`. A syntax error, NaN, Infinity or a number past
    the double range raises `error` naming the document by `what`; so do a
    missing field (KeyError, naming the field) and a field of the wrong type
    (TypeError, AttributeError or IndexError). The ValueErrors `build`
    raises itself pass through."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_float=finite, parse_constant=finite,
                            parse_int=lambda text: int(text) if finite(text) else 0)
        except ValueError as exc:
            raise error(f"{what} is not strict JSON: {exc}") from exc
    try:
        return build(obj)
    except KeyError as exc:
        raise error(f"{what} lacks the field {exc}") from exc
    except (TypeError, AttributeError, IndexError) as exc:
        raise error(f"{what} has a field of the wrong type: {exc}") from exc


def read_spec(spec: str, what: str, table: dict, from_json: Callable | None, error: type):
    """The one reader of CLI spec strings and of their grammar, for every kind.

    '@file.json' is `read_json(file, from_json, ...)` (from_json None: no file
    form). Otherwise 'name[:fields]' looks the name up in `table`, name ->
    (CLI form, build) (e.g. 'gaussian' -> ('gaussian:<sigma>', ...)), ignoring
    case, '-' and '_', and returns build(*fields), the rest split at ':' once
    per '<...>' field of the form but one, so the last keeps any further ':'. An
    unknown name raises `error` naming the `catalog`, a field count outside
    the form's (a bracketed field is optional) "bad <what> spec '<spec>': the
    form is <form>", and a ValueError of `build` the same with its reason."""
    spec = spec.strip()
    if from_json is not None and spec.startswith("@"):
        return read_json(spec[1:], from_json, f"{what} spec {spec!r}", error)
    name, colon, rest = spec.partition(":")
    key = next((k for k in table if _fold(k) == _fold(name)), None)
    if key is None:
        raise error(f"unknown {what} spec {spec!r}; known: "
                    f"{catalog(table, from_json is not None)}")
    form, build = table[key]
    most = form.count("<")
    fields = rest.split(":", most - 1) if colon else []  # most = 0: any ':' is too many
    if not most - form.count("[") <= len(fields) <= most:
        raise error(f"bad {what} spec {spec!r}: the form is {form}")
    try:
        return build(*fields)
    except ValueError as exc:
        raise error(f"bad {what} spec {spec!r}: {exc}") from exc


def parse_distribution(spec: str) -> Distribution:
    """Parse CLI specs like 'rademacher', 'gaussian:1', 'centered-poisson:1',
    'uniform-symmetric:1.732', or '@file.json' for a JSON law descriptor.
    Laws with array fields come only from a file."""
    return read_spec(spec, "law", LAW_SPECS, Distribution.from_json, DistributionError)
