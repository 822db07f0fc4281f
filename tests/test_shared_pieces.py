"""Gates for the two pieces kappa and the Khintchine search share: the one
grouped phi-sum `genfun.phi_sums` and the one tie rule `numerics.incumbent`.
Test-local copies of the earlier code (the search's sequential incumbent
update, kappa's per-candidate profile with its own grouping, and the
ascent's fsum row value) are the references; the package must give their
bits."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from khinchine.distributions import Distribution
from khinchine.genfun import (candidate_profile, phi_natural, phi_power, phi_subgaussian,
                              phi_sums, phi_tabulated)
from khinchine.norms import CoefficientVector
from khinchine.numerics import incumbent, substream, weight_candidates

PHI2 = phi_subgaussian()
POW3 = phi_power(3.0)
POW15 = phi_power(1.5)
LNCOSH = phi_natural(Distribution.rademacher())
NAT_GAUSS = phi_natural(Distribution.gaussian(1.0))
POIS_NAT = phi_natural(Distribution.centered_poisson(1.0))
TAB4 = phi_tabulated([0.0, 0.5, 1.0, 2.0, 3.0], [0.0, 0.125, 0.5, 2.0, 4.5])


# ---------------------------------------------------------------------------
# the earlier code, kept here as the reference
# ---------------------------------------------------------------------------

def old_incumbent(values, keys):
    """The search's `update` closure run over one column: (value, index)."""
    best_val, best = -math.inf, None
    for j, v in enumerate(values):
        if v > best_val + 1e-12:
            best_val, best = v, j
        elif best is not None and abs(v - best_val) <= 1e-12:
            if keys[j] < keys[best]:
                best = j
    return best_val, -1 if best is None else best


def old_group_phis(phis):
    groups = {}
    for k, p in enumerate(phis):
        groups.setdefault(id(p), (p, []))[1].append(k)
    return [(p, np.asarray(idx)) for p, idx in groups.values()]


def old_candidate_profile(phis, b, lam_grid):
    a = np.sqrt(b)
    vals = np.zeros_like(lam_grid)
    flagged = False
    for p, idx in old_group_phis(phis[:b.size]):
        ak = a[idx]
        ak = ak[ak > 0.0]
        if ak.size == 0:
            continue
        x = np.abs(np.multiply.outer(lam_grid, ak))
        if p.lambda0 != math.inf:
            bad = x >= p.lambda0
            if np.any(bad):
                flagged = True
                vals = np.where(np.any(bad, axis=1), -np.inf, vals)
                x = np.where(bad, 0.0, x)
        vals = vals + p(x.ravel()).reshape(x.shape).sum(axis=1)
    return vals, flagged


def old_row_value(phis, lams, b):
    """The kappa ascent's row value: group sums fsum-ed per row."""
    groups = old_group_phis(phis)
    x = lams * np.sqrt(np.maximum(b, 0.0))
    refused = np.any([np.any(x[:, idx] >= p.lambda0, axis=1) for p, idx in groups], axis=0)
    x[refused] = 0.0
    sums = [p(x[:, idx].ravel()).reshape(-1, idx.size).sum(axis=1) for p, idx in groups]
    return np.where(refused, math.nan, [math.fsum(row) for row in zip(*sums)])


# ---------------------------------------------------------------------------
# incumbent
# ---------------------------------------------------------------------------

# values within 1e-12 of each other, far apart, infinite and NaN
VALUES = st.sampled_from([0.0, 1.0, 1.0 + 4e-13, 1.0 + 9e-13, 1.0 + 1.5e-12, 1.0 - 6e-13,
                          1.0 - 1.2e-12, 2.0, -3.0, -math.inf, math.inf, math.nan])
# keys of different lengths, with repeats
KEYS = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=3).map(tuple)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.tuples(st.lists(VALUES, min_size=cols, max_size=cols), KEYS), min_size=0, max_size=12)))
def test_incumbent_is_the_sequential_update_per_column(cands):
    keys = [k for _, k in cands]
    rows = [np.array(v) for v, _ in cands]
    values, index = incumbent(iter(rows), keys)
    for c in range(len(rows[0]) if rows else 0):
        ref_val, ref_idx = old_incumbent([float(r[c]) for r in rows], keys)
        assert int(index[c]) == ref_idx
        assert np.float64(values[c]).tobytes() == np.float64(ref_val).tobytes()
    # the search's form: one scalar per candidate
    scalars = [float(r[0]) for r in rows]
    value, i = incumbent(scalars, keys)
    ref_val, ref_idx = old_incumbent(scalars, keys)
    assert (np.float64(value).tobytes(), int(i)) == (np.float64(ref_val).tobytes(), ref_idx)


def test_incumbent_breaks_a_tie_by_the_least_key():
    # 1 + 5e-13 ties the first value without beating it; the least key among
    # the tied candidates wins and the value stays the one that set the bar
    values, index = incumbent([1.0, 1.0 + 5e-13, 1.0 - 5e-13, 1.0 + 2e-12],
                              [(0.5, 0.5), (0.5,), (0.25, 1.0), (1.0,)])
    assert (float(values), int(index)) == (1.0 + 2e-12, 3)
    values, index = incumbent([1.0, 1.0 + 5e-13, 1.0 - 5e-13], [(0.5, 0.5), (0.5,), (0.25, 1.0)])
    assert (float(values), int(index)) == (1.0, 2)
    values, index = incumbent([math.nan, -math.inf], [(1.0,), (0.5,)])
    assert (float(values), int(index)) == (-math.inf, -1)


# ---------------------------------------------------------------------------
# phi_sums
# ---------------------------------------------------------------------------

def _cycled(pool, n):
    return [pool[k % len(pool)] for k in range(n)]


# (pool, lambda grid): one, two, three and five distinct phi objects
POOLS = {
    "one": ([PHI2] * 8, np.linspace(0.25, 4.0, 7)),
    "two": (_cycled([LNCOSH, NAT_GAUSS], 12), np.array([1e-4, 0.3, 1.0, 5.0, 40.0])),
    "two_tabulated": (_cycled([TAB4, POW3], 6), np.array([0.2, 1.0, 2.9, 3.5, 6.0])),
    "three": (_cycled([POIS_NAT, PHI2, TAB4], 7), np.array([0.5, 1.0, 2.5, 3.5])),
    "five": ([PHI2, POW3, POIS_NAT, POW15, LNCOSH, POW3, PHI2], np.array([0.3, 1.5, 2.5])),
}


def _weights(n):
    """b of the scan, Dirichlet rows and squared sphere vectors (the verify
    suites' trial candidates), at sizes 1..n."""
    out = [a * a for _, a in weight_candidates(n, exchangeable=False)]
    rng = substream(11, n)
    for m in range(1, n + 1):
        out.append(rng.dirichlet(np.ones(m)))
        out.append(CoefficientVector.random_sphere(m, rng).entries ** 2)
    return out


def test_candidate_profile_is_the_old_profile_bit_for_bit():
    for name, (phis, grid) in POOLS.items():
        flagged = 0
        for b in _weights(len(phis)):
            got, flag = candidate_profile(phis, b, grid)
            ref, ref_flag = old_candidate_profile(phis, b, grid)
            assert got.tobytes() == ref.tobytes() and flag == ref_flag, (name, b)
            flagged += flag
        assert (flagged > 0) == any(p is TAB4 for p in phis), name


def test_phi_sums_is_the_old_ascent_row_value_for_one_or_two_groups():
    for name, (phis, grid) in POOLS.items():
        groups = len({id(p) for p in phis})
        if groups > 2:
            continue
        lams = np.repeat(grid, 3)[:, None]
        for n in range(1, len(phis) + 1):
            rng = substream(5, n)
            b = rng.dirichlet(np.ones(n), size=lams.shape[0])
            got = phi_sums(phis[:n], lams * np.sqrt(np.maximum(b, 0.0)))
            ref = old_row_value(phis[:n], lams, b)
            assert got.tobytes() == ref.tobytes(), (name, n)


def test_phi_sums_refuses_exactly_where_some_x_reaches_lambda0():
    phis = [TAB4, PHI2, TAB4, POW3, TAB4]
    tab = [k for k, p in enumerate(phis) if p is TAB4]
    rng = substream(3, 0x7AB)
    b = np.concatenate([rng.dirichlet(np.ones(5), size=200),
                        np.eye(5), np.full((1, 5), 0.2)])
    for lam in (1.0, 3.5):
        x = lam * np.sqrt(b)
        got = phi_sums(phis, x)
        mask = np.any(x[:, tab] >= TAB4.lambda0, axis=1)
        assert np.array_equal(np.isnan(got), mask)
        assert mask.any() == (lam == 3.5)
        assert np.all(np.isfinite(got[~mask]))
    # the edge itself refuses, the float below it does not
    below = np.nextafter(3.0, 0.0)
    x = np.array([[3.0, 9.0, 0.0, 1.0, 0.0], [below, 9.0, below, 1.0, below]])
    got = phi_sums(phis, x)
    assert math.isnan(got[0]) and math.isfinite(got[1])

