"""Row-blocked Monte Carlo draws give the values of whole-chunk draws.

Every Monte Carlo chunk is drawn as units of rows, each filled in blocks of
rows (`numerics.stream_rows`). Each gate runs with the block budget
`numerics.MC_BLOCK_BYTES` at 7 bytes (two rows a block; 19,997 samples, to
keep the many small blocks quick), at 4093 bytes and at its default (99,991
samples), sample counts that are multiples of neither a block nor
MC_STREAMS, whose chunks are one unit each, and with the unit size
`numerics.MC_UNIT_ROWS` at 1000 rows (blocks of 4093 bytes) and at 7 rows,
and compares by repr:

- against the same code drawing each chunk in one call (`stream_rows`
  replaced by one block), for every path and law;
- against test-local copies of the whole-matrix code the streaming replaced.
  Both references split each chunk's values into units as `stream_rows`
  does (`_in_units`), since a chunk fsums its unit sums.
  Its row sum `draws @ a` is a BLAS matrix-vector product, whose bits for a
  row depend on the row's place in the call, so the streamed lp/gls path sums
  each row with numpy instead; the copies match it bitwise at n = 1 (one
  product, no sum) and to 1e-13 relative above. The field simulator and the
  tail check keep their operations and match bitwise. The copies draw their
  Rademacher signs from `_ref_signs`, a bit-by-bit Python reading of the same
  64-bit Philox words, so the packed-word draw is gated with them.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinchine import entropy, norms, numerics
from khinchine.distributions import Distribution
from khinchine.entropy import FieldModel, field_sup_stats
from khinchine.genfun import PsiFunction, phi_subgaussian
from khinchine.norms import CoefficientVector, gls_norm, weighted_sum_gls, weighted_sum_lp
from khinchine.numerics import mc_abs_moments, substream
from khinchine.verify import tail_compare

RAD = Distribution.rademacher()
G1 = Distribution.gaussian(1.0)
SPOIS = Distribution.symmetrized_poisson(0.5)
SKEW = Distribution.discrete([-2.0, 1.0, 3.0], [0.5, 0.25, 0.25])
UNIF = Distribution.uniform_symmetric(1.5)
SAMPLES = 99_991
#: (block budget in bytes, unit rows, each None for the default, sample count)
BLOCKS = [(7, None, 19_997), (4093, None, SAMPLES), (None, None, SAMPLES),
          (4093, 1000, SAMPLES), (None, 7, 19_997)]
PSI = PsiFunction.sqrt_p(np.arange(2.0, 9.0))


@pytest.fixture(params=BLOCKS, ids=["block7", "block4093", "default", "unit1000", "unit7"])
def samples(request, monkeypatch):
    """Sets the block budget and the unit size; returns the sample count to
    use with them."""
    budget, unit, count = request.param
    if budget is not None:
        monkeypatch.setattr(numerics, "MC_BLOCK_BYTES", budget)
    if unit is not None:
        monkeypatch.setattr(numerics, "MC_UNIT_ROWS", unit)
    return count


def _weights(n):
    return CoefficientVector.random_sphere(n, np.random.default_rng(n))


def _in_units(x):
    """x split as `stream_rows` splits a chunk: MC_UNIT_ROWS rows a unit, a
    lone last row joined to the unit before it."""
    rows = numerics.MC_UNIT_ROWS
    cuts = list(range(rows, x.size, rows))
    if cuts and cuts[-1] == x.size - 1:
        cuts.pop()
    return np.split(x, cuts)


def _whole_chunks(monkeypatch):
    """Draw every chunk in one block, as before the streaming."""
    def one_block(block, rng, size, width):
        return iter(_in_units(block(rng, size)))

    for mod in (norms, entropy):
        monkeypatch.setattr(mod, "stream_rows", one_block)


def _key(est):
    return repr(est.value), repr(est.ci_halfwidth), repr(est.meta)


def _joined(units):
    """The values of a chunk's units, in order (each unit is copied before
    the next one overwrites it)."""
    return np.concatenate([np.empty(0)] + [u.copy() for u in units])


# ---------------------------------------------------------------------------
# test-local copies of the whole-matrix code
# ---------------------------------------------------------------------------

def _ref_signs(rng, size, shift=0):
    """Rademacher signs read bit by bit: each row of a (m, *rest) draw (a 1-d
    size is one row) takes ceil(k / 64) raw 64-bit words w, and its sign j is
    +1 where (w >> j % 64) & 1 of word j // 64 is 1, else -1. A shift reads
    sign j from bit j + shift of the row's words (a stream that is off)."""
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    m, k = (1, shape[0]) if len(shape) == 1 else (shape[0], math.prod(shape[1:]))
    words = rng.bit_generator.random_raw((m, (k + 63) // 64)).tolist()
    rows = [sum(w << (64 * i) for i, w in enumerate(row)) for row in words]
    signs = [[2.0 * ((row >> (j + shift)) & 1) - 1.0 for j in range(k)] for row in rows]
    return np.array(signs, dtype=float).reshape(shape)


def _old_draw(d, rng, size):
    if d.law == "rademacher":
        return _ref_signs(rng, size)
    return d.draw(rng, size)


def _old_monte_carlo_lp(d, a, ps, budget, seed, threads):
    samples = budget or norms.MC_SAMPLES_DEFAULT

    def sample(chunk, size):
        return _in_units(np.abs(_old_draw(d, substream(seed, 0x10AD, chunk), (size, a.n))
                                @ a.entries))

    out = []
    for p, (m, se) in zip(ps, mc_abs_moments(sample, ps, samples, threads)):
        value = m ** (1.0 / p)
        ci = 3.0 * se * value / (p * m) if m > 0 else 0.0
        out.append(norms.NormEstimate(value, "monte_carlo", ci_halfwidth=ci,
                                      meta={"samples": samples, "seed": seed,
                                            "moment": m, "moment_se": se}))
    return out


def _old_field_sample(model, ent, seed, a_idx):
    f = model.features
    L = f.shape[0]

    def sample(chunk, size):
        rng = substream(seed, 0xF1E1D, a_idx, chunk)
        shape = (size, ent.size, L)
        if model.driver == "gaussian":
            g = rng.standard_normal(shape)
        else:
            g = _ref_signs(rng, shape)
        w = np.einsum("cnl,n->cl", g, ent)
        return _in_units(np.abs(np.max(w @ f, axis=1)))
    return sample


def _old_tail_values(d, a, samples, seed):
    return d.draw(substream(seed, 0x7A11), (samples, a.n)) @ a.entries


# ---------------------------------------------------------------------------
# the Rademacher draw
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("skip", [0, 1, 3, 4])
def test_rademacher_draw_reads_one_bit_per_sign(skip):
    """One bit of a 64-bit word per sign, rows owning whole words, as
    `_ref_signs` reads them; Philox keeps half a 64-bit word, so generators
    that already gave an odd number of 32-bit words are checked too."""
    new, ref = substream(5, 1), substream(5, 1)
    for g in (new, ref):
        g.integers(0, 1 << 32, skip, dtype=np.uint32)
    for size in (1, 7, (3, 5), (1000, 3), (4, 64), (4, 65), (2, 4, 33)):
        got, want = RAD.draw(new, size), _ref_signs(ref, size)
        assert got.shape == want.shape == np.empty(size).shape
        assert np.array_equal(got, want)
    # and both leave the generator at the same word
    assert np.array_equal(new.integers(0, 1 << 32, 3, dtype=np.uint32),
                          ref.integers(0, 1 << 32, 3, dtype=np.uint32))


def _sums_within_n_ulp(got, signs, a):
    """Whether every row sum is within n ulp of sum_k |a_k| of the fsum of
    its signed weights."""
    want = np.array([math.fsum(row) for row in (signs * a.entries).tolist()])
    return bool(np.all(np.abs(got - want) <= a.n * np.spacing(np.sum(np.abs(a.entries)))))


@pytest.mark.parametrize("block", [7, 4093, None], ids=["block7", "block4093", "default"])
@pytest.mark.parametrize("n", [7, 32, 65])
def test_rademacher_row_sums_read_the_sign_stream(n, block, monkeypatch):
    """The byte-table row sums are the signs `_ref_signs` reads, summed: a
    stream one bit off, or one sign flipped, fails the same comparison."""
    if block is not None:
        monkeypatch.setattr(numerics, "MC_BLOCK_BYTES", block)
    a, rows = _weights(n), 3001
    got = _joined(norms.draw_sums(RAD, a)(substream(9, n), rows))
    signs = _ref_signs(substream(9, n), (rows, n))
    assert _sums_within_n_ulp(got, signs, a)
    assert not _sums_within_n_ulp(got, _ref_signs(substream(9, n), (rows, n), shift=1), a)
    signs[rows // 2, n - 1] *= -1.0
    assert not _sums_within_n_ulp(got, signs, a)


@pytest.mark.parametrize("n", [1, 7, 32, 63, 64, 65, 130])
def test_rademacher_monte_carlo_within_five_se_of_exact(n):
    """Rows of every length around a word boundary: p = 4 against the exact
    even-moment value, p = 3 against enumeration where it is cheap."""
    a = _weights(n)
    cases = [(4.0, "even_moments")] + ([(3.0, "exact_enum")] if n <= 12 else [])
    for p, engine in cases:
        exact = weighted_sum_lp(RAD, a, p, engine="auto" if p == 4.0 else engine)
        assert exact.method == engine
        mc = weighted_sum_lp(RAD, a, p, engine="monte_carlo", budget=200_003, seed=n)
        assert abs(mc.value - exact.value) <= 5.0 * mc.ci_halfwidth / 3.0


def test_rademacher_bits_are_fair_and_uncorrelated():
    """On 8192 rows of 130 signs (three words a row, 1,064,960 signs): every
    bit position of a word has mean 0, and adjacent rows, adjacent words and
    the two halves of a word are uncorrelated, each within 5 standard errors.
    A wrong bit order, a reused word or a dropped half-word fails here."""
    x = RAD.draw(substream(21, 3), (8192, 130))

    def within_five_se(v):
        return abs(float(np.mean(v))) <= 5.0 / math.sqrt(v.size)

    for bit in range(64):
        assert within_five_se(x[:, bit::64]), bit
    assert within_five_se(x[1:] * x[:-1])
    assert within_five_se(x[:, :64] * x[:, 64:128])
    assert within_five_se(x[:, 0:32] * x[:, 32:64])


# ---------------------------------------------------------------------------
# the moment estimator against math.fsum
# ---------------------------------------------------------------------------

def _fsum_moments(x, p):
    """(mean, standard error) of x^p, every sum exact (math.fsum)."""
    s = x ** p
    m, m2 = math.fsum(s) / x.size, math.fsum(s * s) / x.size
    return m, math.sqrt(max(m2 - m * m, 0.0) / x.size)


def _recording(seen):
    """mc_abs_moments keeping a copy of every chunk's values in `seen` (the
    estimator may overwrite the units it is given)."""
    def moments(sample, ps, samples, threads=1):
        def kept(chunk, size):
            units = [u.copy() for u in sample(chunk, size)]
            seen[chunk] = _joined(units)
            return units
        return mc_abs_moments(kept, ps, samples, threads)
    return moments


def _chunks(seen):
    return np.concatenate([seen[c] for c in sorted(seen)])


def test_no_samples_is_refused_before_any_draw():
    def sample(chunk, size):
        raise AssertionError("drew a sample")

    with pytest.raises(ValueError, match="at least 1 Monte Carlo sample"):
        mc_abs_moments(sample, [2.0], 0)
    model = FieldModel(np.ones((2, 3)), "rademacher")
    with pytest.raises(ValueError, match="at least 1 Monte Carlo sample"):
        field_sup_stats(model, [[1.0]], copies=0)


@pytest.mark.parametrize("seed", range(8))
def test_mc_abs_moments_within_1e12_of_fsum(seed):
    seen = {}
    scale = float(substream(seed, 1).uniform(0.1, 10.0))

    def sample(chunk, size):
        return [np.abs(substream(seed, 2, chunk).standard_normal(size)) * scale]

    ps = [1.0, 2.5, 4.0, 8.0]
    got = _recording(seen)(sample, ps, 40_009 + seed, threads=2)
    for p, (m, se) in zip(ps, got):
        want_m, want_se = _fsum_moments(_chunks(seen), p)
        assert m == pytest.approx(want_m, rel=1e-12)
        assert se == pytest.approx(want_se, rel=1e-12)


@pytest.mark.parametrize("d", [RAD, G1, SPOIS], ids=lambda d: d.law)
def test_norm_standard_errors_within_1e12_of_fsum(d, monkeypatch):
    seen = {}
    monkeypatch.setattr(norms, "mc_abs_moments", _recording(seen))
    ps = [1.0, 3.0, 8.0]
    for p, est in zip(ps, norms._monte_carlo_lp(d, _weights(7), ps, SAMPLES, 3, 2)):
        m, se = _fsum_moments(_chunks(seen), p)
        assert est.meta["moment_se"] == pytest.approx(se, rel=1e-12)
        assert est.ci_halfwidth == pytest.approx(3.0 * se * m ** (1.0 / p) / (p * m),
                                                 rel=1e-12)


def test_field_standard_errors_within_1e12_of_fsum(monkeypatch):
    model = FieldModel(np.random.default_rng(8).standard_normal((5, 9)), "rademacher")
    seen = {}
    monkeypatch.setattr(entropy, "mc_abs_moments", _recording(seen))
    rep = field_sup_stats(model, [CoefficientVector.equal(3)], copies=SAMPLES, seed=1)
    for p, mom in rep["rows"][0]["moments"].items():
        m, se = _fsum_moments(_chunks(seen), p)
        assert mom["norm_se"] == pytest.approx(se * m ** (1.0 / p) / (p * m), rel=1e-12)


CHUNKS = st.lists(st.one_of(st.just(0.0), st.floats(0.999, 1.001), st.floats(1e-3, 1e3)),
                  min_size=1, max_size=64)
P_GRIDS = st.one_of(st.lists(st.integers(1, 24).map(float), min_size=1, max_size=8),
                    st.lists(st.integers(2, 48).map(lambda k: k / 2.0), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(CHUNKS, P_GRIDS)
def test_power_sums_are_per_p_and_near_fsum(xs, ps):
    """Integer, half-integer, unsorted and repeated p-grids: each p's sums have
    the same bits alone and in the grid, lie within 1e-13 of the exact sums of
    x ** p and x ** 2p, and keep the bits of x ** p at p = 1, 2 and any other
    non-integer p. power_sums may overwrite x (one p is taken in x itself),
    so every call gets a copy."""
    x = np.array(xs)
    grid = numerics.power_sums(x.copy(), ps)
    for p, (total, total2) in zip(ps, grid):
        assert numerics.power_sums(x.copy(), [p]) == [(total, total2)]
        s = x ** p
        assert total == pytest.approx(math.fsum(s), rel=1e-13, abs=0.0)
        assert total2 == pytest.approx(math.fsum(s * s), rel=1e-13, abs=0.0)
        if p in (1.0, 2.0) or not p.is_integer():
            assert (total, total2) == (float(np.sum(s)), float(np.sum(s * s)))


# ---------------------------------------------------------------------------
# streamed against whole chunks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 7, 32])
@pytest.mark.parametrize("d", [RAD, G1, SPOIS, SKEW], ids=lambda d: d.law)
def test_lp_streamed_equals_whole_chunks(d, n, samples, monkeypatch):
    a = _weights(n)
    streamed = weighted_sum_lp(d, a, 3.0, engine="monte_carlo", budget=samples, seed=4)
    _whole_chunks(monkeypatch)
    whole = weighted_sum_lp(d, a, 3.0, engine="monte_carlo", budget=samples, seed=4)
    assert _key(streamed) == _key(whole)


@pytest.mark.parametrize("n", [1, 7, 32])
def test_gls_streamed_equals_whole_chunks(n, samples, monkeypatch):
    a = _weights(n)
    streamed = weighted_sum_gls(G1, a, PSI, engine="monte_carlo", budget=samples, seed=6,
                                threads=2)
    _whole_chunks(monkeypatch)
    whole = weighted_sum_gls(G1, a, PSI, engine="monte_carlo", budget=samples, seed=6)
    assert _key(streamed) == _key(whole)


# ---------------------------------------------------------------------------
# streamed against the old whole-matrix code
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [RAD, G1, SKEW, UNIF], ids=lambda d: d.law)
def test_one_coordinate_matches_old_code_bitwise(d, samples, monkeypatch):
    a = CoefficientVector.one_hot(1)
    lp = weighted_sum_lp(d, a, 3.0, engine="monte_carlo", budget=samples, seed=2)
    gls = weighted_sum_gls(d, a, PSI, engine="monte_carlo", budget=samples, seed=2)
    monkeypatch.setattr(norms, "_monte_carlo_lp", _old_monte_carlo_lp)
    assert _key(lp) == _key(weighted_sum_lp(d, a, 3.0, engine="monte_carlo",
                                            budget=samples, seed=2))
    assert _key(gls) == _key(weighted_sum_gls(d, a, PSI, engine="monte_carlo",
                                              budget=samples, seed=2))


@pytest.mark.parametrize("n", [7, 32])
@pytest.mark.parametrize("d", [RAD, G1], ids=lambda d: d.law)
def test_row_sums_match_old_code_to_rounding(d, n, monkeypatch):
    a = _weights(n)
    new = norms._monte_carlo_lp(d, a, [1.0, 3.0, 8.0], SAMPLES, 3, 1)
    old = _old_monte_carlo_lp(d, a, [1.0, 3.0, 8.0], SAMPLES, 3, 1)
    # a row sum of n <= 32 terms moves by at most about n ulp, so a moment of
    # power p <= 8 by 8 * 32 * 2**-52 ~ 6e-14; the standard error loses a few
    # more digits to the cancellation in E x^2p - (E x^p)^2
    for e_new, e_old in zip(new, old):
        assert e_new.value == pytest.approx(e_old.value, rel=1e-13)
        assert e_new.ci_halfwidth == pytest.approx(e_old.ci_halfwidth, rel=1e-11)


@pytest.mark.parametrize("driver", ["gaussian", "rademacher"])
def test_field_matches_old_code_bitwise(driver, samples, monkeypatch):
    model = FieldModel(np.random.default_rng(8).standard_normal((5, 9)), driver)
    coeffs = [CoefficientVector.equal(3), _weights(2)]
    rep = field_sup_stats(model, coeffs, copies=samples, seed=1, threads=2)

    ents = [c.entries for c in coeffs]
    calls = iter(range(len(ents)))

    def old_moments(sample, ps, count, threads=1):
        i = next(calls)
        return mc_abs_moments(_old_field_sample(model, ents[i], 1, i), ps, count, threads)

    monkeypatch.setattr(entropy, "mc_abs_moments", old_moments)
    assert repr(rep) == repr(field_sup_stats(model, coeffs, copies=samples, seed=1))


@pytest.mark.parametrize("n", [3, 7])
def test_tail_monte_carlo_matches_old_code_bitwise(n, samples, monkeypatch):
    a = _weights(n)
    u_grid = (0.5, 1.0, 2.0)
    rep = tail_compare(UNIF, a, phi_subgaussian(), u_grid=u_grid, samples=samples, seed=3)
    vals = _old_tail_values(UNIF, a, samples, 3)
    for row, u in zip(rep["rows"], u_grid):
        assert row["method"] == "monte_carlo"
        surv = max(float(np.mean(vals >= u - 1e-12)), float(np.mean(vals <= -u + 1e-12)))
        assert repr(row["survival"]) == repr(surv)


# ---------------------------------------------------------------------------
# memory and the changed symmetrized Poisson draw
# ---------------------------------------------------------------------------

#: tracemalloc's count of interpreter objects beside the arrays (10-13 KB measured)
OBJECTS = 24 << 10
#: more features than points: a row's weighted sums outweigh its field values
FEATURES = np.random.default_rng(8).standard_normal((8, 3))


def _assert_one_chunk_vector_plus_a_block(run, samples, tables=0):
    """One chunk vector (samples / MC_STREAMS floats), one block within
    MC_BLOCK_BYTES and the byte tables: a second chunk vector, or a block
    that holds more words than its width counts, breaks the bound."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk = 8 * (samples // numerics.MC_STREAMS)
    assert peak <= chunk + numerics.MC_BLOCK_BYTES + tables + OBJECTS


def test_monte_carlo_peak_memory_is_one_chunk_vector_plus_a_block():
    """4e6 Rademacher samples (250,000 a chunk) at n = 32 with p = 4, plus
    the four byte tables."""
    _assert_one_chunk_vector_plus_a_block(
        lambda: weighted_sum_lp(RAD, CoefficientVector.equal(32), 4.0, engine="monte_carlo",
                                budget=4_000_000), 4_000_000, 4 * 256 * 8)


#: 8e5 drawn rows at n = 32 with an odd p, and 8e5 field copies on each driver
DRAWN_ROWS = {
    "gaussian-rows": lambda: weighted_sum_lp(G1, CoefficientVector.equal(32), 3.0,
                                             engine="monte_carlo", budget=800_000),
    **{f"field-{driver}": (lambda driver=driver: field_sup_stats(
        FieldModel(FEATURES, driver), [CoefficientVector.equal(3)], copies=800_000,
        p_grid=(4.0,))) for driver in ("gaussian", "rademacher")},
}


@pytest.mark.parametrize("case", list(DRAWN_ROWS))
def test_drawn_rows_peak_memory_is_one_chunk_vector_plus_a_block(case, monkeypatch):
    """The field's Dudley covers, which are not Monte Carlo, are patched out."""
    monkeypatch.setattr(entropy, "dudley_integral", lambda space: 0.0)
    _assert_one_chunk_vector_plus_a_block(DRAWN_ROWS[case], 800_000)


@pytest.mark.parametrize("size", [0, 1, 2, 5, 6, 7, 11, 1000, 1001, 1023])
@pytest.mark.parametrize("budget", [7, 80, 4093])
def test_stream_rows_blocks_stay_within_the_budget(size, budget, monkeypatch):
    """Blocks of at most MC_BLOCK_BYTES // (8 * width) rows (2 when that is
    smaller), none a lone row unless the chunk is, covering every row once."""
    monkeypatch.setattr(numerics, "MC_BLOCK_BYTES", budget)
    sizes = []

    def block(rng, m):
        sizes.append(m)
        return np.zeros(m)

    assert sum(u.size for u in numerics.stream_rows(block, None, size, 1)) == size
    assert sum(sizes) == size
    assert max(sizes, default=0) <= max(3, budget // 8)
    assert 1 not in sizes or sizes == [1]


@pytest.mark.parametrize("size", [0, 1, 2, 6, 7, 8, 13, 14, 15, 1000])
@pytest.mark.parametrize("unit", [2, 7])
def test_stream_rows_units_hold_one_whole_draw_in_order(size, unit, monkeypatch):
    """Units of MC_UNIT_ROWS rows, the last one holding the rest (one more
    where the rest is a lone row, none a lone row unless the chunk is),
    filled in blocks of two rows: in order they hold the values of one
    whole-chunk draw."""
    monkeypatch.setattr(numerics, "MC_UNIT_ROWS", unit)
    monkeypatch.setattr(numerics, "MC_BLOCK_BYTES", 7)

    def block(rng, m):
        return rng.standard_normal(m)

    units = [u.copy() for u in numerics.stream_rows(block, substream(1, size), size, 1)]
    sizes = [u.size for u in units]
    assert all(m == unit for m in sizes[:-1])
    assert max(sizes, default=0) <= unit + 1
    assert 1 not in sizes or sizes == [1]
    assert np.array_equal(_joined(units), substream(1, size).standard_normal(size))


#: one unit of values, a lone last row joined to it
UNIT = 8 * (numerics.MC_UNIT_ROWS + 1)
#: (run, what a worker holds beside one block of draws): 4e6 and 1.6e7
#: Rademacher samples at n = 32 with p = 4 hold a unit, its scratch and the
#: four byte tables; 4e6 Gaussian samples under psi = sqrt(p) on p = 2..64
#: hold a unit, the grid's powers and its six squares; 2e6 sampled
#: uniform sums of the tail check hold a unit and one mask of it
UNIT_MEMORY = {
    **{f"lp-{samples // 10**6}M": (lambda samples=samples: weighted_sum_lp(
        RAD, CoefficientVector.equal(32), 4.0, engine="monte_carlo", budget=samples),
        2 * UNIT + 4 * 256 * 8) for samples in (4_000_000, 16_000_000)},
    "gls-4M": (lambda: gls_norm(G1, PsiFunction.sqrt_p(np.arange(2.0, 65.0)),
                                engine="monte_carlo", budget=4_000_000), (2 + 6) * UNIT),
    "tail-2M": (lambda: tail_compare(UNIF, CoefficientVector.equal(3), phi_subgaussian(),
                                     samples=2_000_000), UNIT + UNIT // 8),
}


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", list(UNIT_MEMORY))
def test_monte_carlo_peak_memory_does_not_grow_with_samples(case):
    """A worker holds one unit and what its reduction needs, and one block
    of draws, whatever the sample count: a chunk vector breaks the bound."""
    run, held = UNIT_MEMORY[case]
    assert _peak(run) <= held + numerics.MC_BLOCK_BYTES + OBJECTS


@pytest.mark.parametrize("weights", [[1.0], [0.6, 0.8], [3.0, 1.0, 2.0, 1.0, 1.0]])
def test_symmetrized_poisson_monte_carlo_within_five_se_of_exact(weights):
    a = CoefficientVector.normalized(weights)
    exact = weighted_sum_lp(SPOIS, a, 3.0, engine="convolution")
    mc = weighted_sum_lp(SPOIS, a, 3.0, engine="monte_carlo", budget=400_000, seed=12)
    se = mc.ci_halfwidth / 3.0
    assert abs(mc.value - exact.value) <= 5.0 * se

    exact_gls = weighted_sum_gls(SPOIS, a, PSI, engine="convolution")
    mc_gls = weighted_sum_gls(SPOIS, a, PSI, engine="monte_carlo", budget=400_000, seed=12)
    assert abs(mc_gls.value - exact_gls.value) <= 5.0 * mc_gls.ci_halfwidth / 3.0

