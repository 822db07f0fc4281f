"""Gates for one log-MGF call per law and value: the `bit_even` law fact
behind `Distribution.two_sided_log_mgf` and the mirrored rows of
`norms.bphi_norms`, the grouped calls of `norms.log_mgf_sums`, the seed window of `numerics.invert_increasing_vec`,
the strided group gather of `genfun.phi_sums` and the one-call B(phi) scan
of the Khintchine search. Test-local copies of the earlier code are the
reference, and every value must keep its bits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinchine import norms, search
from khinchine.distributions import LAWS, Distribution
from khinchine.genfun import (GeneratingFunction, phi_inverse_vec, phi_natural, phi_power,
                              phi_range, phi_subgaussian, phi_sums, phi_tabulated)
from khinchine.norms import CoefficientVector, bphi_norms, log_mgf_sums, weighted_sum_bphi
from khinchine.numerics import BISECT_STEPS, geometric_grid, invert_increasing_vec
from khinchine.search import NormSpec, khinchine_sup
from test_masked_kernels import old_bphi_norms, sum_callable

RAD = Distribution.rademacher()
G1 = Distribution.gaussian(1.0)
CPOIS = Distribution.centered_poisson(1.0)
UNIF = Distribution.uniform_symmetric(1.5)
SPOIS = Distribution.symmetrized_poisson(0.7)
DSYM = Distribution.discrete([-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.4, 0.1])
DSKEW = Distribution.discrete([-1.0, 0.0, 3.0], [0.6, 0.2, 0.2])
ALL_LAWS = [RAD, G1, Distribution.gaussian(0.3), CPOIS, UNIF, SPOIS, DSYM, DSKEW]
TAB = phi_tabulated([0, 0.5, 1, 2, 3], [0, 0.125, 0.5, 2, 4.5])


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# every float from 0 through the subnormals to the overflow of the log-MGF
ANY_LAMBDA = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-308, 1e-300, 1e-8, 1.0, 20.0, 350.0, 710.0,
                     1e154, 1e300, 1.7976931348623157e308, math.inf]),
    st.floats(0.0, 1e308, allow_subnormal=True),
    st.floats(0.0, 800.0))


# ---------------------------------------------------------------------------
# the bit-even fact and the two-sided log-MGF
# ---------------------------------------------------------------------------

def test_bit_even_is_set_on_the_four_laws():
    assert {name for name, rec in LAWS.items() if rec.bit_even} == {
        "rademacher", "gaussian", "uniform_symmetric", "symmetrized_poisson"}
    # centered Poisson is not even at all
    assert CPOIS.log_mgf(1.0) != CPOIS.log_mgf(-1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(law=st.sampled_from([RAD, G1, Distribution.gaussian(0.3), UNIF,
                            Distribution.uniform_symmetric(7.0), SPOIS,
                            Distribution.symmetrized_poisson(30.0)]),
       lam=st.lists(ANY_LAMBDA, min_size=1, max_size=6))
def test_a_bit_even_law_has_the_same_bits_at_both_signs(law, lam):
    assert law.record.bit_even
    x = np.array(lam)
    with np.errstate(all="ignore"):
        assert bits(law.log_mgf(-x)) == bits(law.log_mgf(x))
        assert bits(law.log_mgf(-x[0])) == bits(law.log_mgf(x[0]))


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda d: d.label)
def test_two_sided_log_mgf_is_the_max_of_both_signs(law, monkeypatch):
    lam = np.concatenate([[0.0, 5e-324, 1e-310], geometric_grid(1e-6, 1e3), [1e300]])
    with np.errstate(all="ignore"):
        expected = np.maximum(law.log_mgf(lam), law.log_mgf(-lam))
        calls = []
        real = Distribution.log_mgf
        monkeypatch.setattr(Distribution, "log_mgf",
                            lambda self, x: calls.append(1) or real(self, x))
        got = law.two_sided_log_mgf(lam)
    assert bits(got) == bits(expected)
    assert len(calls) == (1 if law.record.bit_even else 2)


@pytest.mark.parametrize("laws,even", [
    (RAD, True), (CPOIS, False), ([RAD, G1, RAD], True), ([RAD, CPOIS, UNIF], False),
    ([SPOIS, UNIF], True), ([DSYM, RAD], False)], ids=str)
def test_a_sum_source_is_two_sided_in_one_call_where_every_law_is_bit_even(laws, even,
                                                                          monkeypatch):
    seq = not isinstance(laws, Distribution)
    s = (laws, np.linspace(-0.9, 1.3, len(laws) if seq else 3))
    lam = geometric_grid(1e-4, 1e3)
    with np.errstate(over="ignore"):
        plus, minus = log_mgf_sums([s, s], np.stack([lam, -lam]))
    assert all(d.record.bit_even for d in (laws if seq else [laws])) == even
    if even:  # the mirrored row would add nothing
        assert bits(plus) == bits(minus)
    # bphi_norms enters the sum once a round where every law is bit-even, else
    # twice, at lambda and -lambda, and takes the max of the two
    rows = []
    real = norms.log_mgf_sums
    monkeypatch.setattr(norms, "log_mgf_sums",
                        lambda sums, x: rows.append(len(sums)) or real(sums, x))
    est = bphi_norms([s], phi_subgaussian())[0]
    assert rows == [1 if even else 2] * (1 + norms.REFINE_ROUNDS)
    log_mgf, var = sum_callable(*s)
    assert repr(est) == repr(old_bphi_norms([log_mgf], phi_subgaussian(), [var])[0])


def test_bphi_norms_and_the_natural_phi_take_one_call_on_a_bit_even_law(monkeypatch):
    calls = []
    real = Distribution.log_mgf
    monkeypatch.setattr(Distribution, "log_mgf", lambda self, x: calls.append(1) or real(self, x))
    phi_natural(RAD)(np.array([0.5, 2.0]))
    assert len(calls) == 1
    calls.clear()
    bphi_norms([(RAD, [1.0]), (CPOIS, [1.0])], phi_subgaussian())
    # one call for each law a round: CPOIS takes lambda and -lambda in its one
    assert len(calls) == (1 + norms.REFINE_ROUNDS) * 2


# ---------------------------------------------------------------------------
# one log_mgf call per distinct law
# ---------------------------------------------------------------------------

def old_sum_log_mgf(laws, weights, lam):
    """The earlier form: i.i.d. on the outer product, else a running sum."""
    lam = np.asarray(lam, dtype=float)
    w = np.asarray(weights, dtype=float)
    if isinstance(laws, Distribution):
        z = np.multiply.outer(lam, w)
        return laws.log_mgf(z.ravel()).reshape(z.shape).sum(axis=-1)
    out = np.zeros(lam.shape)
    for law, c in zip(laws, w):
        out = out + law.log_mgf(lam * c)
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pool=st.lists(st.sampled_from(ALL_LAWS), min_size=1, max_size=3),
       sizes=st.lists(st.integers(1, 20), min_size=1, max_size=5), seed=st.integers(0, 99))
def test_log_mgf_sums_give_each_row_the_bits_of_the_earlier_sum(pool, sizes, seed):
    rng = np.random.default_rng(seed)
    laws = [pool[k % len(pool)] for k in range(max(sizes))]
    rows = [rng.standard_normal(n) for n in sizes]
    lam = geometric_grid(1e-4, 1e3)
    iid = [(law, row) for law in pool for row in rows]
    seq = [(laws[:row.size], row) for row in rows]
    with np.errstate(over="ignore"):
        for (law, row), got in zip(iid, log_mgf_sums(iid, lam)):
            assert bits(got) == bits(old_sum_log_mgf(law, row, lam))
        for (laws_, row), got in zip(seq, log_mgf_sums(seq, lam)):
            assert bits(got) == bits(old_sum_log_mgf(laws_, row, lam))
            assert bits(log_mgf_sums([(laws_, row)], lam)[0]) == bits(got)
        # i.i.d. and sequence rows in one call, where they share laws
        mixed = log_mgf_sums(seq + iid, lam)
        assert bits(mixed) == bits(np.concatenate([log_mgf_sums(seq, lam),
                                                   log_mgf_sums(iid, lam)]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pool=st.lists(st.sampled_from(ALL_LAWS), min_size=1, max_size=3),
       sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5), seed=st.integers(0, 99))
def test_log_mgf_sums_give_a_lambda_row_the_bits_of_its_own_1d_call(pool, sizes, seed):
    rng = np.random.default_rng(seed)
    sums = [(pool[0], rng.standard_normal(sizes[0]))]
    sums += [([pool[k % len(pool)] for k in range(n)], rng.standard_normal(n))
             for n in sizes[1:]]
    lam = rng.choice([-1.0, 1.0], (len(sums), 1)) * geometric_grid(1e-4, 1e3)
    lam[:, ::7] *= rng.uniform(0.5, 2.0, (len(sums), 1))  # rows on different points
    with np.errstate(over="ignore"):
        got = log_mgf_sums(sums, lam)
        for s, row, x in zip(sums, got, lam):
            assert bits(row) == bits(log_mgf_sums([s], x)[0])
            assert bits(row) == bits(old_sum_log_mgf(*s, x))


def test_log_mgf_sums_call_each_distinct_law_once(monkeypatch):
    calls = []
    real = Distribution.log_mgf
    monkeypatch.setattr(Distribution, "log_mgf",
                        lambda self, x: calls.append(self.law) or real(self, x))
    laws = [RAD, G1] * 8
    rows = [np.full(n, 1.0 / math.sqrt(n)) for n in (16, 3, 7)]
    log_mgf_sums([(laws[:w.size], w) for w in rows], geometric_grid(1e-2, 1e2))
    assert sorted(calls) == ["gaussian", "rademacher"]
    calls.clear()
    log_mgf_sums([(RAD, w) for w in rows], geometric_grid(1e-2, 1e2))
    assert calls == ["rademacher"]
    calls.clear()  # i.i.d. and sequence rows of one law share its call
    log_mgf_sums([(RAD, rows[0]), (laws[:3], rows[1]), (G1, rows[2])], geometric_grid(1e-2, 1e2))
    assert sorted(calls) == ["gaussian", "rademacher"]


def test_a_length_mismatch_raises(monkeypatch):
    with pytest.raises(ValueError, match="2 laws for 3 weights"):
        log_mgf_sums([([RAD, G1], [0.5, 0.5, 0.5])], [1.0])
    with pytest.raises(ValueError, match="2 laws for 3 weights"):  # a later row
        log_mgf_sums([(RAD, [1.0]), ([RAD, G1], np.ones(3))], [1.0])
    calls = []
    monkeypatch.setattr(Distribution, "log_mgf", lambda self, x: calls.append(1))
    with pytest.raises(ValueError, match="3 laws for 1 weights"):
        bphi_norms([(RAD, [1.0]), ([RAD, G1, RAD], [1.0])], phi_subgaussian())
    assert not calls  # refused before any work
    monkeypatch.undo()
    # one law takes any number of weights
    assert log_mgf_sums([(RAD, [0.6, 0.8])], [1.0])[0, 0] > 0


# ---------------------------------------------------------------------------
# the phi inverse from a seed window
# ---------------------------------------------------------------------------

def old_invert(f, y, hi_start=1.0, seed=None, cap=math.inf):
    """The earlier `invert_increasing_vec`: the seeded bracket, then bisection."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    live = y > 0.0
    hi0 = min(hi_start, cap)
    lo = np.zeros_like(y)
    hi = np.where(live, hi0, 0.0)
    grow = live & (hi < cap)
    if seed is not None:
        top = min(cap, hi0 * 4.0**180)
        with np.errstate(over="ignore", invalid="ignore"):
            g = seed(y)
            g_lo = np.minimum(g * (1.0 - 1e-14), top)
            g_hi = np.minimum(g * (1.0 + 1e-14), top)
            f_lo, f_hi = np.split(f(np.concatenate([g_lo, g_hi])), 2)
            seeded = live & (g_lo >= hi0 * 2.0 ** (60 - BISECT_STEPS)) & (f_lo < y) & (f_hi >= y)
        lo = np.where(seeded, g_lo, lo)
        hi = np.where(seeded, g_hi, hi)
        grow &= ~seeded
    for _ in range(180):
        if not grow.any():
            break
        with np.errstate(over="ignore", invalid="ignore"):
            grow &= f(hi) < y
        hi = np.where(grow, np.minimum(hi * 4.0, cap), hi)
        grow &= hi < cap
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore", invalid="ignore"):
            below = f(mid) < y
        new_lo, new_hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return np.where(live, 0.5 * (lo + hi), 0.0)


def old_phi_inverse_vec(phi: GeneratingFunction, y):
    if phi.lambda0 == math.inf:
        return old_invert(phi, y, seed=phi.inverse_seed())
    top = phi.lambda0 * (1 - 1e-12)
    return old_invert(phi, y, hi_start=top, seed=phi.inverse_seed(), cap=top)


FAMILIES = [phi_subgaussian(), phi_power(1.5), phi_power(3.0), phi_power(7.0),
            phi_natural(RAD), phi_natural(Distribution.gaussian(1.7)), phi_natural(UNIF),
            phi_natural(SPOIS), TAB]


def _targets(phi):
    """y = 0, subnormals, tiny and huge values and the top of phi's range."""
    top = phi_range(phi)
    y = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-30, 1e-9, 0.3, 1.0]
    if top == math.inf:
        return y + [7.0, 40.0, 1e3, 1e12, 1e100, 1e300, 1.7976931348623157e308]
    return y + [top * (1 - 1e-9), top / (1 + 1e-9), np.nextafter(top, 0.0), top]


@pytest.mark.parametrize("phi", FAMILIES, ids=lambda p: p.label)
def test_the_seed_window_keeps_the_bits_of_the_bisection(phi):
    y = np.array(_targets(phi))
    with np.errstate(over="ignore"):
        assert bits(phi_inverse_vec(phi, y)) == bits(old_phi_inverse_vec(phi, y))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(phi=st.sampled_from(FAMILIES), frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       scale=st.sampled_from([1e-300, 1e-12, 1e-3, 1.0, 30.0, 1e6, 1e200]))
def test_the_seed_window_matches_the_bisection_on_random_y(phi, frac, scale):
    top = phi_range(phi)
    y = np.array(frac) * (scale if top == math.inf else top)
    with np.errstate(over="ignore"):
        assert bits(phi_inverse_vec(phi, y)) == bits(old_phi_inverse_vec(phi, y))


@pytest.mark.parametrize("phi", [phi_subgaussian(), phi_power(3.0), phi_natural(RAD), TAB],
                         ids=lambda p: p.label)
def test_a_seeded_inversion_takes_one_f_call(phi):
    calls = []

    def f(x):
        calls.append(1)
        return phi(x)

    top = phi_range(phi)
    y = np.random.default_rng(3).uniform(0.0, 5.0 if top == math.inf else top, 10_000)
    cap = {} if phi.lambda0 == math.inf else {"hi_start": phi.lambda0 * (1 - 1e-12),
                                              "cap": phi.lambda0 * (1 - 1e-12)}
    got = invert_increasing_vec(f, y, seed=phi.inverse_seed(), **cap)
    assert len(calls) == 1
    assert bits(got) == bits(old_phi_inverse_vec(phi, y))


@pytest.mark.parametrize("ulps", [0, 3, 5, 9, 40, 200, 10**6])
def test_a_seed_off_the_window_keeps_the_bisection(ulps):
    """A seed ulps floats above the root: past SEED_WINDOW it finds no pair,
    past about 45 ulp its bracket fails too, and either way the bits stay."""
    y = np.random.default_rng(ulps).uniform(1e-3, 50.0, 2_000)
    root = invert_increasing_vec(lambda x: 0.5 * x * x, y, seed=lambda v: np.sqrt(2.0 * v))

    def seed(v):
        return (np.sqrt(2.0 * v).view(np.int64) + ulps).view(float)

    calls = []

    def f(x):
        calls.append(1)
        return 0.5 * x * x

    got = invert_increasing_vec(f, y, seed=seed)
    assert (len(calls) == 1) == (ulps < 4)
    assert bits(got) == bits(old_invert(f, y, seed=seed)) == bits(root)


def test_two_crossings_in_the_window_keep_the_bisection():
    """f with a dip one float wide, as a non-monotone rounding could make:
    the window sees two pairs straddling y and leaves the entry to bisection."""
    y = np.array([2.0, 0.5, 8.0])
    x0 = np.sqrt(2.0 * y)
    dip = (x0.view(np.int64) + 2).view(float)

    calls = []

    def f(x):
        calls.append(1)
        return np.where(np.isin(x, dip), 0.0, 0.5 * x * x)

    seed = lambda v: np.sqrt(2.0 * v)  # noqa: E731
    got = invert_increasing_vec(f, y, seed=seed)
    assert len(calls) > 1
    assert bits(got) == bits(old_invert(f, y, seed=seed))


# ---------------------------------------------------------------------------
# phi_sums: a cycled pool's groups are strided slices
# ---------------------------------------------------------------------------

def old_phi_sums(phis, x):
    groups = {}
    for k, p in enumerate(phis):
        groups.setdefault(id(p), (p, []))[1].append(k)
    total, refused = np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1], dtype=bool)
    for p, idx in groups.values():
        xs = x[..., idx]
        bad = xs >= p.lambda0
        refused |= bad.any(axis=-1)
        total = total + p(np.where(bad, 0.0, xs).ravel()).reshape(xs.shape).sum(axis=-1)
    return np.where(refused, math.nan, total)


@pytest.mark.parametrize("pool,n", [
    ([phi_subgaussian()], 1), ([phi_natural(RAD), phi_natural(G1)], 32),
    ([phi_power(3.0), TAB, phi_natural(UNIF)], 20), ([TAB, phi_subgaussian()], 9)],
    ids=["one", "cycled-2", "cycled-3", "tabulated"])
def test_phi_sums_keep_their_bits_on_strided_groups(pool, n):
    phis = [pool[k % len(pool)] for k in range(n)]
    rng = np.random.default_rng(n)
    b = rng.dirichlet(np.ones(n), size=5)
    b[:, ::3] = 0.0  # zero coordinates keep their phi(0) term and its place in the sum
    x = np.multiply.outer(geometric_grid(1e-3, 4.0), np.sqrt(b)).transpose(1, 0, 2)
    assert bits(phi_sums(phis, x)) == bits(old_phi_sums(phis, x))
    if n > 2:  # pool[0] at 0, 1, then every len(pool)-th: not a progression
        mixed = [pool[0]] * 2 + phis[2:]
        assert bits(phi_sums(mixed, x)) == bits(old_phi_sums(mixed, x))


# ---------------------------------------------------------------------------
# the B(phi) scan in one call
# ---------------------------------------------------------------------------

def test_the_bphi_scan_is_one_call_with_the_values_of_its_own_calls(monkeypatch):
    rows, alone = [], []
    real_rows, real_one = search.bphi_norms, search.weighted_sum_bphi
    monkeypatch.setattr(search, "bphi_norms",
                        lambda sums, phi: rows.append(len(sums)) or real_rows(sums, phi))
    monkeypatch.setattr(search, "weighted_sum_bphi",
                        lambda d, a, phi: alone.append(1) or real_one(d, a, phi))
    spec = NormSpec.bphi(phi_subgaussian())
    est = khinchine_sup(RAD, spec, n_max=4, restarts=2)
    scanned = [e for e in est.trace if e["kind"] != "local_search"]
    assert rows[0] == len(scanned) == 19 and not alone
    for entry, n in zip(scanned, range(1, 5)):  # equal weights first
        assert entry["value"] == weighted_sum_bphi(RAD, CoefficientVector.equal(n), spec.param).value
