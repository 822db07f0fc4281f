"""Shared numeric machinery: geometric grids, the one golden-section maximizer
(f(x) reads entry r of x as row r's point; a mask holds a stopped row),
vectorized monotone inversion, the one candidate generator, the one
row-batched coordinate search and the one tie rule (`incumbent`) of the
weight searches, deterministic counter-based random streams, and Monte
Carlo's row-blocked draws and one moment estimator."""

from __future__ import annotations

import itertools
import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: default grid used by the norm sup (1e-4 .. 1e3, 64 points per decade)
NORM_GRID_LO = 1e-4
NORM_GRID_HI = 1e3
POINTS_PER_DECADE = 64

#: independent sub-streams (chunks) of every Monte Carlo moment estimate
MC_STREAMS = 16
#: bytes of draws in one block of a Monte Carlo chunk (see `stream_rows`)
MC_BLOCK_BYTES = 1 << 19
#: squared weight w of the leading block of a two-level candidate
TWO_LEVEL_W = (0.1, 0.3, 0.5, 0.7, 0.9)
BISECT_STEPS = 200  # most bisection steps of `invert_increasing_vec`
SEED_WINDOW = 4  # floats either side of a seed that `invert_increasing_vec` tries


def geometric_grid(lo: float, hi: float, per_decade: int = POINTS_PER_DECADE) -> np.ndarray:
    """Log-spaced grid from lo to hi inclusive, per_decade points per decade."""
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got {lo}, {hi}")
    n = max(2, int(round(math.log10(hi / lo) * per_decade)) + 1)
    return np.geomspace(lo, hi, n)


def golden_max(f, lo, hi, tol: float = 1e-12, max_iter: int = 400):
    """Golden-section maxima of unimodal functions, one per row r on the
    bracket [lo[r], hi[r]]; returns (argmax, value) arrays. f(x) gives row
    r's value at x[r], each entry on its own. A row stops once
    b - a <= tol * max(1, |a|, |b|) or after max_iter steps; a stopped row is
    still evaluated, but a mask keeps its state. It returns the best of a,
    x1, x2, b (ties: the smaller argument, then the earlier candidate), with
    the same bits alone or among other rows."""
    a, b = (np.array(x, dtype=float, ndmin=1) for x in (lo, hi))
    x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    state = [a, b, x1, x2, f(x1), f(x2)]
    for _ in range(max_iter):
        a, b, x1, x2, f1, f2 = state
        live = (b - a) > tol * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))
        moving = np.count_nonzero(live)
        if not moving:
            break
        up = f1 < f2
        a, b = np.where(up, x1, a), np.where(up, b, x2)
        w = GOLDEN * (b - a)
        xn = np.where(up, a + w, b - w)
        fn = f(xn)
        step = [a, b, np.where(up, x2, xn), np.where(up, xn, x1),
                np.where(up, f2, fn), np.where(up, fn, f1)]
        state = step if moving == a.size else [np.where(live, n, s) for n, s in zip(step, state)]
    a, b, x1, x2, f1, f2 = state
    best_x, best_f = a, f(a)
    for x, fx in ((x1, f1), (x2, f2), (b, f(b))):
        better = (fx > best_f) | ((fx == best_f) & (x < best_x))
        best_x, best_f = np.where(better, x, best_x), np.where(better, fx, best_f)
    return best_x, best_f


def invert_increasing_vec(f, y, hi_start: float = 1.0, seed=None,
                          cap: float = math.inf) -> np.ndarray:
    """Solve f(x) = y elementwise for f increasing on [0, inf), f(0) = 0.

    f must be vectorized and may return +inf for large arguments. y must be
    finite and >= 0; y = 0 returns 0. Bisection keeps f(lo) < y <= f(hi) and
    returns the midpoint of its last bracket.

    - Bracket: [0, hi_start]. An entry it cannot bracket multiplies its hi by
      4 (at most 180 times, never past cap) until f overflows to inf, which
      still brackets.
    - seed(y), when given, is an approximate inverse g (a closed form). Where
      [g(1 - 1e-14), g(1 + 1e-14)] satisfies the invariant it replaces the
      bracket above, so bisection starts about 90 ulp wide. In the same f
      call, f runs on the SEED_WINDOW floats either side of g (capped at the
      widest bracket): an entry whose window lies in that bracket and holds
      exactly one adjacent pair straddling y takes it as its last bracket,
      and bisection runs only where some entry has none.
    - Stop: at most BISECT_STEPS steps, and none after the first step that
      changes neither lo nor hi, because every later step would repeat it.

    Neither the seed nor the stop changes a bit of the result. Once lo and hi
    are adjacent floats the midpoint is one of them, and while f does not
    decrease in floating point only one adjacent pair straddles y, so every
    valid bracket ends on it. A seed below the starting hi times 2**(60 -
    BISECT_STEPS) is not used: from [0, hi] that many steps end before the
    bracket is one ulp wide, and only that bracket reproduces where they end.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    live = y > 0.0
    hi0 = min(hi_start, cap)
    lo = np.zeros_like(y)
    # y = 0 starts at [0, 0], a fixed point, so it never holds up the stop
    hi = np.where(live, hi0, 0.0)
    grow = live & (hi < cap)
    done = np.zeros_like(live)  # entries whose last bracket is known
    if seed is not None:
        top = min(cap, hi0 * 4.0**180)  # the widest bracket the growth reaches
        with np.errstate(over="ignore", invalid="ignore"):
            g = seed(y)
            g_lo = np.minimum(g * (1.0 - 1e-14), top)
            g_hi = np.minimum(g * (1.0 + 1e-14), top)
            # consecutive bit patterns of doubles >= 0 are consecutive floats
            bits = np.minimum(g, top).view(np.int64)[:, None]
            win = (bits + np.arange(-SEED_WINDOW, SEED_WINDOW + 1)).clip(0).view(float)
            fx = f(np.concatenate([g_lo, g_hi, win.ravel()]))
            f_lo, f_hi, f_win = fx[:y.size], fx[y.size:2 * y.size], fx[2 * y.size:]
            seeded = live & (g_lo >= hi0 * 2.0 ** (60 - BISECT_STEPS)) & (f_lo < y) & (f_hi >= y)
            f_win = f_win.reshape(win.shape)
            cross = (f_win[:, :-1] < y[:, None]) & (f_win[:, 1:] >= y[:, None])
        done = seeded & (cross.sum(axis=1) == 1) & (win[:, 0] >= g_lo) & (win[:, -1] <= g_hi)
        j = np.argmax(cross, axis=1)
        pair = np.arange(y.size), j
        lo = np.where(done, win[pair], np.where(seeded, g_lo, lo))
        hi = np.where(done, win[pair[0], j + 1], np.where(seeded, g_hi, hi))
        grow &= ~seeded
    for _ in range(180):
        if not grow.any():
            break
        with np.errstate(over="ignore", invalid="ignore"):
            grow &= f(hi) < y
        hi = np.where(grow, np.minimum(hi * 4.0, cap), hi)
        grow &= hi < cap
    for _ in range(BISECT_STEPS if (live & ~done).any() else 0):
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore", invalid="ignore"):
            below = f(mid) < y
        new_lo = np.where(below, mid, lo)
        new_hi = np.where(below, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    out = np.where(live, 0.5 * (lo + hi), 0.0)
    return float(out[0]) if scalar else out


def candidate_sizes(n_max: int) -> list[int]:
    """The powers of two up to n_max, and n_max: the sizes at which the
    weight searches try two-level patterns and local optimization."""
    return sorted({2**j for j in range(n_max.bit_length())} | {n_max})


def two_level_shapes(n_max: int):
    """(n, j, w) of every two-level candidate: j leading coordinates of n
    carry squared weight w, for n >= 2 in `candidate_sizes(n_max)`, j a power
    of two below n and w in TWO_LEVEL_W."""
    for n in candidate_sizes(n_max):
        for j in (2**i for i in range((n - 1).bit_length())):
            for w in TWO_LEVEL_W:
                yield n, j, w


def weight_candidates(n_max: int, exchangeable: bool):
    """(kind, a) for the unit weight vectors every weight search scans, in
    order: equal weights 1/sqrt(n) for n = 1..n_max, the one-hot vector at
    each position k (length k + 1), and each of `two_level_shapes(n_max)`
    with its reversal. Exchangeable (i.i.d.) terms make positions and
    orientations equivalent, so they skip the one-hot vectors and the
    reversals.

    How the candidates of a weight search grow: more `restarts` only add
    candidates, and a larger n_max keeps every one from a power-of-two n_max.
    From any other n_max it can drop a size of `candidate_sizes` (3 -> 4
    drops n = 3), so the bound need not be monotone in n_max."""
    for n in range(1, n_max + 1):
        yield "equal", np.full(n, 1.0 / math.sqrt(n))
    for k in range(0 if exchangeable else n_max):
        yield "one_hot", (np.arange(k + 1) == k).astype(float)
    for n, j, w in two_level_shapes(n_max):
        a = np.full(n, math.sqrt((1.0 - w) / (n - j)))
        a[:j] = math.sqrt(w / j)
        yield "two_level", a
        if not exchangeable:
            yield "two_level", a[::-1].copy()


def coordinate_search(f, b0, maximize: bool, max_evals: int = 250):
    """Coordinate ascent (descent when not maximize) of f on the simplex
    from every row of b0, all rows in lockstep; returns (b, values, evals),
    one row, value and evaluation count per start.

    b0 is 2-d. f(b, rows, k) gives one value per row of b, row i being start
    rows[i]; NaN means refused; k is the coordinate the trial moved (None at
    the starts), so f may share work between the two trials of a visit,
    which keep the ratios of the other coordinates. A start is normalized to
    sum 1. Each sweep tries, for every coordinate k in turn, b_k * step and
    then b_k / step (b_k floored at 1e-12, the vector renormalized), and
    keeps a move that gains more than 1e-13. A sweep without a gain halves
    step - 1, from 1.5; a row stops once step <= 1.01 or after max_evals
    evaluations. A row refused at its start keeps it, with value NaN and one
    evaluation. The rows share only the calls to f, so each ends on its bits
    alone."""
    sign = 1.0 if maximize else -1.0
    b = b0 / b0.sum(axis=1, keepdims=True)
    cur = sign * f(b, np.arange(len(b)), None)
    step = np.full(len(b), 1.5)
    count, evals = 1, np.ones(len(b), dtype=int)  # count: each live row's evaluations
    live = np.flatnonzero(~np.isnan(cur))
    while live.size and count < max_evals:
        improved = np.zeros(live.size, dtype=bool)
        for k, grow in itertools.product(range(b.shape[1]), (True, False)):
            nb = b[live]
            nb[:, k] = np.maximum(nb[:, k], 1e-12) * (step[live] if grow else 1.0 / step[live])
            nb /= nb.sum(axis=1, keepdims=True)
            val = sign * f(nb, live, k)
            count += 1
            up = val > cur[live] + 1e-13
            b[live[up]], cur[live[up]] = nb[up], val[up]
            improved |= up
            if count >= max_evals:
                break
        evals[live] = count
        flat = live[~improved]
        step[flat] = 1.0 + (step[flat] - 1.0) * 0.5
        live = live[step[live] > 1.01]
    return b, sign * cur, evals


def incumbent(rows, keys):
    """The one tie rule of the weight searches: per column, the first
    candidate whose value beats every earlier one by more than 1e-12, or,
    among later candidates within 1e-12 of the value it set, the one whose
    key (a tuple) is least. rows yields each candidate's values in candidate
    order, a scalar or one per column; NaN never wins. Returns (values,
    index), index -1 and value -inf in a column no candidate won."""
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    rank = np.array([order[k] for k in keys], dtype=np.int64)
    best, idx = np.float64(-np.inf), np.int64(-1)
    for j, vals in enumerate(rows):
        with np.errstate(invalid="ignore"):
            better = vals > best + 1e-12
            # a tie needs a held witness, so a finite best
            tie = ~better & (idx >= 0) & (np.abs(vals - best) <= 1e-12)
        idx = np.where(better | (tie & (rank[j] < rank[idx])), j, idx)
        best = np.where(better, vals, best)
    return best, idx


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Deterministic generator for (seed, ids...).

    Counter-based Philox keyed on the seed and a multiplicative mix of the
    stream ids, so sub-streams are independent and the mapping never goes
    through Python's randomized hash().
    """
    key = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    mix = 0x9E3779B97F4A7C15
    for i in ids:
        mix = (mix * 1000003 + (int(i) & 0xFFFFFFFFFFFFFFFF) + 1) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.Philox(key=np.array([key, mix], dtype=np.uint64)))


def stream_rows(block, rng, size: int, width: int) -> np.ndarray:
    """One value for each of `size` rows drawn on rng, from block(rng, m)
    calls of B = MC_BLOCK_BYTES // (8 * width) - 1 rows, at least 2, and a
    last block of the rest (B + 1 rows where the rest is a lone row: numpy
    multiplies a lone row through another BLAS kernel). `width` counts every
    8-byte word a row holds while its block works: its draws and their
    temporaries, any copy of them and its value. Laws draw row by row and
    blocks reduce each row on its own, so the values do not depend on B.
    Memory: the output and one block, within MC_BLOCK_BYTES."""
    rows = max(2, MC_BLOCK_BYTES // (8 * width) - 1)
    starts = list(range(0, size, rows))
    if len(starts) > 1 and starts[-1] == size - 1:
        starts.pop()
    out = np.empty(size)
    for lo, hi in zip(starts, starts[1:] + [size]):
        out[lo:hi] = block(rng, hi - lo)
    return out


def _int_power(x, p: int, squares: list | None, out, spare):
    """x^p for an integer p >= 1: the product of the x^(2^k) over the set
    bits k of p, lowest first, each square the previous one squared. Returns
    x, a square or out. squares ([x, x^2, ...]) keeps the squares for later
    p and grows to what p needs; None keeps only the running one, in spare,
    and then out may be x itself (x is last read before out is written).
    The bits of x^p do not depend on squares."""
    acc, cur = None, x
    for k in range(p.bit_length()):
        if k and squares is None:
            cur = np.multiply(cur, cur, out=spare)
        elif k:
            if len(squares) == k:
                squares.append(squares[-1] * squares[-1])
            cur = squares[k]
        if p >> k & 1:
            if acc is None and cur is spare and p >> (k + 1):  # spare squares on
                out[...] = cur
                acc = out
            else:
                acc = cur if acc is None else np.multiply(acc, cur, out=out)
    return acc


def _power_in_place(x, p: float) -> None:
    """x <- x^p with the bits `power_sums` gives p: an integer p by
    `_int_power`, one block of MC_BLOCK_BYTES at a time with one block of
    scratch for its squares, any other p by `pow`."""
    if not (float(p).is_integer() and p >= 2):
        np.power(x, p, out=x)
        return
    step = max(1, MC_BLOCK_BYTES // 8)
    spare = np.empty(min(x.size, step))
    for lo in range(0, x.size, step):
        seg = x[lo:lo + step]
        s = _int_power(seg, int(p), None, seg, spare[:seg.size])
        if s is not seg:
            seg[...] = s


def power_sums(x, ps) -> list:
    """(sum x^p, sum x^(2p)) for every p in ps, x >= 0 a chunk vector that
    the call may overwrite.

    An integer p takes `_int_power`: a product of repeated squares, within
    p - 1 rounding errors (about p / 2 ulp) of x^p, shared by the integer p
    of a grid; p = 1 and p = 2 keep the bits of x ** p. Any other p takes
    `pow`. Each p's sums have the same bits alone and inside any grid.
    Memory: one p is taken in x itself, with one block of scratch; a grid
    adds a chunk vector for its powers, and for its integers p >= 2 the
    floor(log2 max p) squares when there are two or more, else one running
    square."""
    if len(ps) == 1:
        _power_in_place(x, ps[0])
        return [_sums(x, x)]
    ints = {p for p in ps if float(p).is_integer() and p >= 2}
    squares = [x] if len(ints) > 1 else None
    spare = np.empty_like(x) if len(ints) == 1 else None
    out = np.empty_like(x)
    return [_sums(_int_power(x, int(p), squares, out, spare) if p in ints
                  else np.power(x, p, out=out), out) for p in ps]


def _sums(s, out) -> tuple:
    """(sum s, sum s^2), s^2 written into out (which may be s)."""
    total = float(np.sum(s))
    return total, float(np.sum(np.multiply(s, s, out=out)))


def mc_abs_moments(sample, ps, samples: int, threads: int = 1) -> list:
    """(mean, standard error) of |x|^p for every p in ps (p >= 1) from
    `samples` draws taken in MC_STREAMS chunks; sample(chunk, size) returns
    the |x| of one chunk from that chunk's own stream, a fresh vector that
    the estimator overwrites.

    Each chunk reduces to a sum and a sum of squares per p (`power_sums`:
    an integer p from repeated squares, within about p / 2 ulp of `pow`),
    and the chunks are fsum-ed in order, so the result does not depend on
    `threads`; no reduction goes through BLAS (its threads spin beside the
    workers). A worker holds one chunk vector for one p, and one block of
    draws within MC_BLOCK_BYTES; a p-grid adds one chunk vector and at most
    floor(log2 max p) squares. samples < 1 raises ValueError before any draw.
    """
    if samples < 1:
        raise ValueError(f"need at least 1 Monte Carlo sample, got {samples}")
    sizes = [samples // MC_STREAMS] * MC_STREAMS
    sizes[-1] += samples - sum(sizes)
    parts = ordered_map(lambda chunk: power_sums(sample(chunk, sizes[chunk]), ps),
                        range(MC_STREAMS), threads)
    out = []
    for j in range(len(ps)):
        m = math.fsum(x[j][0] for x in parts) / samples
        m2 = math.fsum(x[j][1] for x in parts) / samples
        out.append((m, math.sqrt(max(m2 - m * m, 0.0) / samples)))
    return out


def ordered_map(fn, items, threads: int = 1) -> list:
    """Map fn over items preserving order.

    With threads > 1 the items are split into one contiguous block per
    worker (a task per item spends its time handing the lock over); because
    every item is independent and the reduction order is the input order,
    the result is identical for any worker count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: concurrent.futures loads logging, a few ms of every CLI start
    from concurrent.futures import ThreadPoolExecutor

    k = min(threads, len(items))
    cuts = [len(items) * i // k for i in range(k + 1)]
    with ThreadPoolExecutor(max_workers=k) as ex:
        blocks = ex.map(lambda i: [fn(x) for x in items[cuts[i]:cuts[i + 1]]], range(k))
        return [r for block in blocks for r in block]


def two_sided(f, x, even: bool = False):
    """max(f(x), f(-x)) elementwise; f(x) alone where `even` says that
    f(-x) has the bits of f(x)."""
    y = f(x)
    return y if even else np.maximum(y, f(-x))


def log_cosh(x: np.ndarray) -> np.ndarray:
    """log(cosh(x)), cancellation-free near 0 and overflow-free for large |x|.

    Near 0 the naive form loses ~8 digits (the leading x cancels); the exact
    identity cosh(x) = 1 + 2 sinh^2(x/2) keeps full relative precision, which
    the norm sup needs on its smallest grid points.
    """
    x = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    out = np.empty_like(x)
    small = x < 20.0
    s = np.sinh(0.5 * x[small])
    out[small] = np.log1p(2.0 * s * s)
    xl = x[~small]
    out[~small] = xl + np.log1p(np.exp(-2.0 * xl)) - math.log(2.0)
    return out


def log_sinhc(x: np.ndarray) -> np.ndarray:
    """log(sinh(|x|)/|x|), stable at both ends (value 0 at x = 0)."""
    x = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    out = np.empty_like(x)
    tiny = x < 1e-2
    mid = (~tiny) & (x < 1.0)
    big = x > 350.0
    rest = ~tiny & ~mid & ~big
    xs = x[tiny]
    # sinh(x)/x - 1 = x^2/6 + x^4/120 + O(x^6)
    out[tiny] = np.log1p(xs * xs / 6.0 * (1.0 + xs * xs / 20.0))
    xm = x[mid]
    out[mid] = np.log1p((np.sinh(xm) - xm) / xm)
    xr = x[rest]
    out[rest] = np.log(np.sinh(xr) / xr)
    xb = x[big]
    out[big] = xb - np.log(2.0 * xb)
    return out


COLLAPSE_TOL = 1e-12  # support points closer than this (absolute) merge


def collapse_support(values: np.ndarray, probs: np.ndarray):
    """Merge support points closer than COLLAPSE_TOL, summing probabilities.

    The representative of a merged group is the probability-weighted mean, so
    symmetric supports stay symmetric; a point merged with no other keeps its
    value.
    """
    order = np.argsort(values)
    v = values[order]
    p = probs[order]
    if v.size <= 1:
        return v, p
    new_group = np.empty(v.size + 1, dtype=bool)  # and one past the end
    new_group[0] = new_group[-1] = True
    new_group[1:-1] = np.diff(v) > COLLAPSE_TOL
    starts = np.flatnonzero(new_group[:-1])
    pm = np.add.reduceat(p, starts)
    wv = np.add.reduceat(p * v, starts)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mean = wv / pm
    # a lone point keeps its value ((p v) / p can round off it) and subnormal
    # masses make the mean garbage (their products underflow): both take the
    # first member; zero-mass points are dropped
    safe = (pm > 1e-290) & np.isfinite(mean) & ~new_group[starts + 1]
    rep = np.where(safe, mean, v[starts])
    keep = pm > 0.0
    return rep[keep], pm[keep]
