"""Gates for the masked batched sups: `norms.bphi_norms` (one sums x
points rectangle per round) and `numerics.golden_max` (a stopped row keeps
its state under a mask). Test-local copies of the earlier per-row code, a
ragged list per source and a shrinking live set, are the reference: every
value, argmax and flag must keep its bits (compared by repr). The B(phi)
reference takes each weighted sum as a log-MGF callable with its variance,
built here from the sum's laws and weights."""

import math

import numpy as np
import pytest

from khinchine.distributions import Distribution
from khinchine.genfun import (phi_inverse_vec, phi_natural, phi_power, phi_range,
                              phi_subgaussian, phi_tabulated)
from khinchine.norms import (REFINE_ROUNDS, CoefficientVector, NormEstimate, bphi_norm,
                             bphi_norms)
from khinchine.numerics import GOLDEN, NORM_GRID_HI, NORM_GRID_LO, geometric_grid, golden_max

RAD = Distribution.rademacher()
CPOIS = Distribution.centered_poisson(1.0)
TAB = phi_tabulated([0, 0.5, 1, 2, 3], [0, 0.125, 0.5, 2, 4.5])  # lambda0 = 3


# ---------------------------------------------------------------------------
# the earlier per-row code, kept here as the reference
# ---------------------------------------------------------------------------

def old_bphi_norms(sources, phi, variances=None):
    variances = [None] * len(sources) if variances is None else variances
    log_mgfs = [s.log_mgf if isinstance(s, Distribution) else s for s in sources]
    vars_ = [s.variance if isinstance(s, Distribution) else v for s, v in zip(sources, variances)]
    hi = NORM_GRID_HI if phi.lambda0 == math.inf else phi.lambda0 * (1 - 1e-12)
    grid = geometric_grid(min(NORM_GRID_LO, hi / 10), hi)
    step = grid[1] / grid[0] if grid.size > 1 else 2.0
    limit = phi_range(phi)
    rows = len(log_mgfs)
    truncated = [False] * rows
    unbounded = [False] * rows

    def ratios(lams_by_row):
        outs, oks, ys = [], [], []
        for r, (log_mgf, lams) in enumerate(zip(log_mgfs, lams_by_row)):
            with np.errstate(over="ignore", invalid="ignore"):
                y = np.maximum(log_mgf(lams), log_mgf(-lams))
            ok = np.isfinite(y)
            if not np.all(ok):
                truncated[r] = True
            y = np.maximum(y[ok], 0.0)
            if np.any(y > limit):
                unbounded[r] = True
                ok, y = np.zeros_like(ok), y[:0]
            outs.append(np.full(lams.shape, -np.inf))
            oks.append(ok)
            ys.append(y)
        stacked = np.concatenate(ys) if ys else np.empty(0)
        inv = phi_inverse_vec(phi, stacked) if stacked.size else stacked
        at = 0
        for out, ok, y, lams in zip(outs, oks, ys, lams_by_row):
            out[ok] = inv[at:at + y.size] / lams[ok]
            at += y.size
        return outs

    best_lam, best_val = [], []
    for vals in ratios([grid] * rows):
        i = int(np.argmax(vals))
        best_lam.append(float(grid[i]))
        best_val.append(float(vals[i]))
    for _ in range(REFINE_ROUNDS):
        windows = []
        for lam in best_lam:
            local = np.geomspace(lam / step, lam * step, 65)
            windows.append(local[local < phi.lambda0])
        for r, (local, lv) in enumerate(zip(windows, ratios(windows))):
            j = int(np.argmax(lv))
            if lv[j] > best_val[r]:
                best_val[r] = float(lv[j])
                best_lam[r] = float(local[j])
        step = step ** 0.25

    c2 = phi.curvature_at_zero
    out = []
    for r in range(rows):
        val = best_val[r]
        meta = {"grid_points": int(grid.size), "argmax_lambda": best_lam[r],
                "truncated": truncated[r]}
        var = vars_[r]
        if math.isfinite(var) and var >= 0:
            zero_limit = math.sqrt(var / (2.0 * c2))
            meta["zero_limit_candidate"] = zero_limit
            if zero_limit > val:
                val = zero_limit
                meta["argmax_lambda"] = 0.0
        if unbounded[r]:
            val = math.inf
            meta["unbounded"] = True
        out.append(NormEstimate(max(val, 0.0), "grid_sup", meta=meta))
    return out


def old_golden_max(f, lo, hi, tol=1e-12, max_iter=400):
    """f(x, rows) gives row rows[i]'s value at x[i]."""
    a, b = (np.array(x, dtype=float, ndmin=1) for x in (lo, hi))
    rows = every = np.arange(a.size)
    x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    state = [a, b, x1, x2, f(x1, rows), f(x2, rows)]
    end = np.empty((6, a.size))
    for _ in range(max_iter):
        a, b = state[0], state[1]
        live = (b - a) > tol * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))
        if not live.all():
            end[:, rows[~live]] = [s[~live] for s in state]
            state, rows = [s[live] for s in state], rows[live]
        if rows.size == 0:
            break
        a, b, x1, x2, f1, f2 = state
        up = f1 < f2
        a = np.where(up, x1, a)
        b = np.where(up, b, x2)
        w = GOLDEN * (b - a)
        xn = np.where(up, a + w, b - w)
        fn = f(xn, rows)
        state = [a, b, np.where(up, x2, xn), np.where(up, xn, x1),
                 np.where(up, f2, fn), np.where(up, fn, f1)]
    end[:, rows] = state
    a, b, x1, x2, f1, f2 = end
    best_x, best_f = a, f(a, every)
    for x, fx in ((x1, f1), (x2, f2), (b, f(b, every))):
        better = (fx > best_f) | ((fx == best_f) & (x < best_x))
        best_x, best_f = np.where(better, x, best_x), np.where(better, fx, best_f)
    return best_x, best_f


# ---------------------------------------------------------------------------
# bphi_norms
# ---------------------------------------------------------------------------

def _bits(est):
    meta = est.meta
    return repr((est.value, est.method, meta["argmax_lambda"], meta["truncated"],
                 meta.get("unbounded"), meta.get("zero_limit_candidate"), meta["grid_points"]))


LAWS = [RAD, CPOIS, Distribution.gaussian(1.0), Distribution.symmetrized_poisson(0.5),
        Distribution.uniform_symmetric(1.0), Distribution.centered_poisson(0.3)]
PHIS = {"subgaussian": phi_subgaussian(), "power:3": phi_power(3.0),
        "power:1.5": phi_power(1.5), "natural:rademacher": phi_natural(RAD),
        "natural:centered-poisson:1": phi_natural(CPOIS), "tabulated": TAB}


def sum_callable(laws, w):
    """The log-MGF of the weighted sum (laws, w) and its variance, as the
    earlier code took them: one law on the outer product summed on the last
    axis, else a running sum of the terms in k order."""
    w = np.asarray(w, dtype=float)
    if isinstance(laws, Distribution):
        def log_mgf(lam):
            z = np.multiply.outer(lam, w)
            return laws.log_mgf(z.ravel()).reshape(z.shape).sum(axis=-1)
        return log_mgf, laws.variance * float(np.dot(w, w))

    def log_mgf(lam):
        out = np.zeros(np.shape(lam))
        for law, c in zip(laws, w):
            out = out + law.log_mgf(lam * c)
        return out
    return log_mgf, sum(c * c * law.variance for law, c in zip(laws, w))


def old_sums_bphi_norms(sums, phi):
    """`old_bphi_norms` on the callables of `sum_callable`."""
    calls, variances = zip(*(sum_callable(laws, w) for laws, w in sums))
    return old_bphi_norms(list(calls), phi, list(variances))


def _sums():
    """One-term sums of every law, then i.i.d., mixed-law and scaled sums."""
    a = CoefficientVector.normalized([3.0, 2.0, 1.0])
    b = CoefficientVector.normalized([1.0, 1.0])
    return [(d, [1.0]) for d in LAWS] + [
        (RAD, a.entries), (CPOIS, b.entries), ([RAD, CPOIS], b.entries), ([CPOIS], [0.5])]


@pytest.mark.parametrize("name", sorted(PHIS))
def test_bphi_norms_match_the_per_row_code(name):
    phi = PHIS[name]
    new = bphi_norms(_sums(), phi)
    old = old_sums_bphi_norms(_sums(), phi)
    assert [_bits(e) for e in new] == [_bits(e) for e in old]
    # a one-term sum of a law is the law itself to the reference
    assert [_bits(e) for e in old[:len(LAWS)]] == [_bits(e) for e in old_bphi_norms(LAWS, phi)]


@pytest.mark.parametrize("law, phi, flag", [
    (CPOIS, TAB, "unbounded"),           # past the phi range in the grid round only
    (CPOIS, phi_power(3.0), "truncated"),  # the log-MGF overflows on the grid
])
def test_bphi_flag_cases_match_the_per_row_code(law, phi, flag):
    new, old = bphi_norm(law, phi), old_bphi_norms([law], phi)[0]
    assert new.meta.get(flag) is True
    assert _bits(new) == _bits(old)
    # the same row among bounded ones keeps its bits
    batch = bphi_norms([(d, [1.0]) for d in (RAD, law, Distribution.gaussian(1.0))], phi)
    assert _bits(batch[1]) == _bits(old)


def test_unbounded_row_takes_values_in_later_windows():
    # under the tabulated phi (lambda0 = 3) a skewed law on 1e4 x {-1, 0, 3}
    # passes the phi range on the grid, so the grid round gives it no value;
    # the windows around the grid's first point (1e-4, one unit of lambda at
    # the law's scale) stay inside the range, and a window value beats the
    # zero-limit candidate, so the argmax shows where the windows ended
    big = Distribution.discrete([-1e4, 0.0, 3e4], [0.6, 0.2, 0.2])
    est = bphi_norm(big, TAB)
    assert est.meta["unbounded"] and est.value == math.inf
    assert est.meta["argmax_lambda"] > NORM_GRID_LO  # not the grid's first point, nor 0
    assert _bits(est) == _bits(old_bphi_norms([big], TAB)[0])
    # the centered Poisson's zero-limit candidate beats its window values
    # (the tabulated phi is linear near 0)
    est = bphi_norm(CPOIS, TAB)
    assert est.meta["unbounded"] and est.meta["argmax_lambda"] == 0.0
    assert _bits(est) == _bits(old_bphi_norms([CPOIS], TAB)[0])


def test_bphi_norms_of_no_source_is_empty():
    for phi in PHIS.values():
        assert bphi_norms([], phi) == [] == old_bphi_norms([], phi)


# ---------------------------------------------------------------------------
# golden_max
# ---------------------------------------------------------------------------

def _rows():
    """Brackets of every scale, 1e-9 to 1e9, with peaks, plateaus, constants
    and kinks, so that rows stop after different numbers of steps and the
    final pick breaks ties."""
    rng = np.random.default_rng(20)
    scale = 10.0 ** np.arange(-9, 10, 1.5)
    lo = np.concatenate([np.zeros(scale.size), scale, -scale])
    hi = np.concatenate([scale, 3.0 * scale, scale * 1e-3])
    c = lo + rng.random(lo.size) * (hi - lo)
    kind = np.arange(lo.size) % 4
    return lo, hi, c, kind


def _f_rows(c, kind):
    def f(x, rows):
        k, cc = kind[rows], c[rows]
        return np.where(k == 0, -(x - cc) ** 2, np.where(
            k == 1, np.minimum(x, cc), np.where(k == 2, 1.0, -np.abs(x - cc))))
    return f


@pytest.mark.parametrize("tol, max_iter", [(1e-12, 400), (1e-10, 400), (1e-12, 20),
                                           (1e-12, 45), (0.0, 30)])
def test_golden_max_matches_the_live_set_code(tol, max_iter):
    lo, hi, c, kind = _rows()
    f = _f_rows(c, kind)
    every = np.arange(lo.size)
    new = golden_max(lambda x: f(x, every), lo, hi, tol=tol, max_iter=max_iter)
    old = old_golden_max(f, lo, hi, tol=tol, max_iter=max_iter)
    assert repr(new[0].tolist()) == repr(old[0].tolist())
    assert repr(new[1].tolist()) == repr(old[1].tolist())
