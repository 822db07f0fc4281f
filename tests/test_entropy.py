import csv
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinchine.cli import main
from khinchine.entropy import (EXACT_COVER_LIMIT, FieldModel, FiniteMetricSpace,
                               _ball_masks, _covers, covering_number,
                               dudley_integral, entropy_profile,
                               field_sup_stats, load_space)
from khinchine.norms import CoefficientVector, bphi_norm
from khinchine.distributions import Distribution
from khinchine.genfun import phi_subgaussian


def two_point(d):
    return FiniteMetricSpace(("a", "b"), np.array([[0.0, d], [d, 0.0]]))


def grid_space(n):
    return FiniteMetricSpace.from_points(np.linspace(0.0, 1.0, n)[:, None])


def brute_cover(space, eps):
    """Exhaustive minimum cover: try every subset size in increasing order."""
    n = space.n
    balls = [set(np.nonzero(space.rho[i] <= eps)[0]) for i in range(n)]
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if set().union(*(balls[c] for c in centers)) == set(range(n)):
                return k
    return n


def reference_greedy(masks, full):
    """Greedy cover on Python int masks, one eps at a time: the most newly
    covered points per step, ties to the lowest index."""
    chosen = []
    uncovered = full
    while uncovered:
        best_i, best_gain = -1, -1
        for i, m in enumerate(masks):
            gain = (m & uncovered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.append(best_i)
        uncovered &= ~masks[best_i]
    return chosen


def reference_count(space, eps):
    """Covering number one eps at a time: exhaustive minimum up to the exact
    limit, the reference greedy above it."""
    if space.n <= EXACT_COVER_LIMIT:
        return brute_cover(space, eps)
    return len(reference_greedy(_ball_masks(space, eps), (1 << space.n) - 1))


# ---------------------------------------------------------------------------
# space validation
# ---------------------------------------------------------------------------

def test_space_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_space_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        FiniteMetricSpace(("a",), np.array([[0.1]]))


def test_space_rejects_triangle_violation():
    rho = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetricSpace(("a", "b", "c"), rho)


def _planar(n, seed):
    pts = np.random.default_rng(seed).random((n, 2))
    return np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))


def test_triangle_check_memory_is_quadratic():
    n = 300
    rho = _planar(n, 1)
    tracemalloc.start()
    try:
        FiniteMetricSpace(tuple(range(n)), rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an n x n x n float array would be n / 10 times this bound (217 MB)
    assert peak < 10 * n * n * 8


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6, 1e9])
def test_triangle_check_accepts_valid_spaces_at_every_scale(scale):
    # the rounding of a sum of distances grows with them, and collinear
    # points meet the triangle inequality with equality
    x = np.linspace(0.0, 1.0, 50)
    for rho in (np.abs(x[:, None] - x[None, :]) * scale, _planar(60, 3) * scale):
        FiniteMetricSpace(tuple(range(len(rho))), rho)
        bumped, others = rho.copy(), list(range(1, len(rho) - 1))
        # 0 - n-1 longer than its shortest path through another point
        bumped[0, -1] = bumped[-1, 0] = (np.min(rho[0, others] + rho[others, -1])
                                         + 1e-6 * np.max(rho))
        with pytest.raises(ValueError, match="triangle inequality fails"):
            FiniteMetricSpace(tuple(range(len(rho))), bumped)
    line = FiniteMetricSpace.from_points(x[:, None])
    assert dudley_integral(line, sigma_scale=scale) == pytest.approx(
        scale * dudley_integral(line), rel=1e-12)


def _shortcut_space(s, a, b):
    # all distances 3, except a - s - b at 1 + 1: (a, b) violates through s only
    rho = np.full((5, 5), 3.0)
    np.fill_diagonal(rho, 0.0)
    rho[a, s] = rho[s, a] = rho[s, b] = rho[b, s] = 1.0
    return rho


def _bumped_planar():
    rho = _planar(60, 2)
    for i, k, bump in ((3, 41, 0.4), (17, 29, 0.9), (50, 8, 0.6)):
        rho[i, k] += bump
        rho[k, i] = rho[i, k]
    return rho


@pytest.mark.parametrize("rho", [_bumped_planar(), _shortcut_space(0, 1, 3),
                                 _shortcut_space(2, 4, 1), _shortcut_space(4, 0, 2)],
                         ids=["planar", "first", "middle", "last"])
def test_triangle_violation_names_the_n3_reference_pair(rho):
    through = np.min(rho[:, :, None] + rho[None, :, :], axis=1)
    i, k = np.unravel_index(np.argmax(rho - through), rho.shape)
    with pytest.raises(ValueError, match=rf"triangle inequality fails at pair \({i}, {k}\)"):
        FiniteMetricSpace(tuple(range(len(rho))), rho)


def test_semi_distance_allows_zero_offdiagonal():
    rho = np.zeros((3, 3))
    sp = FiniteMetricSpace(("a", "b", "c"), rho)
    assert sp.diameter == 0.0
    assert dudley_integral(sp) == 0.0


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------

def test_two_point_covering():
    sp = two_point(1.0)
    assert covering_number(sp, 1.0)[0] == 1  # closed ball reaches the far point
    assert covering_number(sp, 0.5 - 1e-9)[0] == 2


def test_grid11_covering_exhaustive_oracle():
    sp = grid_space(11)
    for eps in (0.05, 0.1, 0.25, 0.3, 0.45, 0.5, 1.0):
        count, exact, centers = covering_number(sp, eps)
        assert exact
        assert count == brute_cover(sp, eps)
    assert covering_number(sp, 0.25)[0] == 3  # each closed ball holds <= 5 points
    assert covering_number(sp, 0.5)[0] == 1


def test_random_spaces_exact_matches_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        sp = FiniteMetricSpace.from_points(rng.uniform(size=(n, 2)))
        eps = float(rng.uniform(0.05, 0.9))
        count, exact, _ = covering_number(sp, eps)
        assert exact
        assert count == brute_cover(sp, eps)


def test_exact_cover_leaves_no_reference_cycle():
    # the branch and bound recursion is a closure that refers to itself; it
    # must not outlive the call as garbage that only the cycle collector frees
    sp = FiniteMetricSpace.from_points(np.random.default_rng(0).uniform(size=(9, 2)))
    dudley_integral(sp)
    covering_number(sp, 0.3)  # first calls fill caches of their own
    gc.collect()
    gc.disable()
    try:
        dudley_integral(sp)
        after_dudley = gc.collect()
        covering_number(sp, 0.3)
        after_cover = gc.collect()
    finally:
        gc.enable()
    assert (after_dudley, after_cover) == (0, 0)


def test_greedy_flagged_above_exact_limit():
    rng = np.random.default_rng(5)
    sp = FiniteMetricSpace.from_points(rng.uniform(size=(25, 2)))
    count, exact, _ = covering_number(sp, 0.3)
    assert not exact
    assert count >= 1


def test_centers_cover_the_space():
    sp = grid_space(11)
    count, _, centers = covering_number(sp, 0.25)
    idx = [sp.labels.index(c) for c in centers]
    covered = set()
    for i in idx:
        covered |= set(np.nonzero(sp.rho[i] <= 0.25)[0])
    assert covered == set(range(11))
    assert len(centers) == count


@pytest.mark.parametrize("n", [63, 64, 65, 300])
def test_ball_masks_match_big_int_reference(n):
    sp = FiniteMetricSpace.from_points(np.random.default_rng(n).random((n, 2)))
    reference = [sum(1 << int(z) for z in np.nonzero(row)[0]) for row in sp.rho <= 0.2]
    assert _ball_masks(sp, 0.2) == reference


def test_centers_cover_300_random_planar_points():
    sp = FiniteMetricSpace.from_points(np.random.default_rng(3).random((300, 2)))
    count, exact, centers = covering_number(sp, 0.1)
    idx = [sp.labels.index(c) for c in centers]
    assert not exact and len(idx) == count
    assert np.all(np.any(sp.rho[idx] <= 0.1, axis=0))


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.sampled_from([63, 64, 65, 128]), st.integers(21, 140)),
       seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 0.999])),
                      min_size=1, max_size=6))
def test_batched_greedy_matches_big_int_reference(n, seed, picks):
    sp = FiniteMetricSpace.from_points(np.random.default_rng(seed).random((n, 2)))
    dists = np.unique(sp.rho[sp.rho > 0])
    eps = []
    for u, between in picks:
        k = min(int(u * dists.size), dists.size - 2)
        eps.append(float(dists[k] + between * (dists[k + 1] - dists[k])))
    full = (1 << n) - 1
    expected = [reference_greedy(_ball_masks(sp, e), full) for e in eps]
    assert _covers(sp, eps, exact=False) == expected
    for e, chosen in zip(eps, expected):
        count, exact, centers = covering_number(sp, e)
        assert (count, exact) == (len(chosen), False)
        assert centers == tuple(sp.labels[i] for i in sorted(chosen))


# ---------------------------------------------------------------------------
# entropy profile
# ---------------------------------------------------------------------------

def test_profile_monotone_and_zero_past_diameter():
    sp = grid_space(11)
    eps = np.array([1.5, 1.0, 0.6, 0.3, 0.15, 0.05])
    prof = entropy_profile(sp, eps)
    assert np.all(np.diff(prof.values) >= -1e-12)  # H grows as eps shrinks
    assert prof.values[0] == 0.0  # eps beyond the diameter needs one ball
    assert prof.exact.all()


@pytest.mark.parametrize("eps", [[0.5, 0.0], [0.5, -0.1], [float("nan")]])
def test_profile_rejects_eps_not_positive(eps):
    with pytest.raises(ValueError, match="eps > 0"):
        entropy_profile(grid_space(5), eps)


@pytest.mark.parametrize("n", [12, 70])
def test_profile_counts_equal_single_eps_covers(n):
    sp = FiniteMetricSpace.from_points(np.random.default_rng(n).random((n, 2)))
    dists = np.unique(sp.rho[sp.rho > 0])
    eps = np.concatenate(([2.0 * dists[-1]], dists[::-max(1, dists.size // 40)],
                          [0.5 * dists[0]]))
    eps = np.unique(eps)[::-1]
    prof = entropy_profile(sp, eps)
    singles = [covering_number(sp, float(e)) for e in eps]
    assert prof.values.tolist() == [math.log(c) for c, _, _ in singles]
    assert prof.exact.tolist() == [x for _, x, _ in singles]


# ---------------------------------------------------------------------------
# entropy integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [0.1, 0.5, 1.0])
def test_two_point_dudley_closed_form(d):
    assert dudley_integral(two_point(d)) == pytest.approx(
        math.sqrt(math.log(2.0)) * d, abs=1e-9)


def test_grid11_dudley_vs_breakpoint_oracle():
    sp = grid_space(11)
    # independent oracle: brute-force covering numbers integrated exactly
    # over the piecewise-constant intervals between distinct distances
    dists = np.unique(sp.rho[sp.rho > 0])
    oracle = dists[0] * math.sqrt(math.log(brute_cover(sp, dists[0] / 2)))
    for lo, hi in zip(dists[:-1], dists[1:]):
        oracle += (hi - lo) * math.sqrt(math.log(brute_cover(sp, lo)))
    val = dudley_integral(sp)
    assert val == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("n", [5, 21, 64, 65, 100])
def test_dudley_bitwise_equals_per_breakpoint_sum(n):
    sp = FiniteMetricSpace.from_points(np.random.default_rng(n).random((n, 2)))
    # one covering number per breakpoint, added in increasing eps
    pos = np.unique(sp.rho[sp.rho > 0])
    total = float(pos[0]) * math.sqrt(math.log(reference_count(sp, float(pos[0]) * 0.5)))
    for lo, hi in zip(pos[:-1], pos[1:]):
        total += (float(hi) - float(lo)) * math.sqrt(math.log(reference_count(sp, float(lo))))
    assert dudley_integral(sp) == total


def test_dudley_memory_is_bounded():
    sp = FiniteMetricSpace.from_points(np.random.default_rng(7).random((120, 2)))
    tracemalloc.start()
    try:
        dudley_integral(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


def test_single_point_dudley_zero():
    sp = FiniteMetricSpace(("only",), np.zeros((1, 1)))
    assert dudley_integral(sp) == 0.0


@pytest.mark.parametrize("c", [0.25, 0.37])
def test_dudley_scale_equivariance(c):
    sp = grid_space(9)
    base = dudley_integral(sp)
    scaled = dudley_integral(sp.scaled(c))
    assert scaled == pytest.approx(c * base, rel=1e-12)
    assert dudley_integral(sp, sigma_scale=c) == pytest.approx(c * base, rel=1e-12)


# ---------------------------------------------------------------------------
# field simulator
# ---------------------------------------------------------------------------

def test_single_point_field_norm_is_sigma():
    model = FieldModel(np.array([[0.6], [0.8]]), "gaussian")  # sigma = 1
    rep = field_sup_stats(model, [CoefficientVector.equal(3)], copies=40_000, seed=1)
    assert rep["sigma"] == pytest.approx(1.0)
    m2 = rep["rows"][0]["moments"][2.0]
    assert abs(m2["norm"] - 1.0) <= 3.0 * m2["norm_se"]


def test_orthonormal_features_ratio_sequence():
    model = FieldModel(np.eye(5), "gaussian")
    rep = field_sup_stats(model, [CoefficientVector.equal(4)], copies=60_000, seed=2)
    mom = rep["rows"][0]["moments"]
    ps = rep["p_grid"]
    for lo, hi in zip(ps[:-1], ps[1:]):
        width = 2.0 * math.hypot(mom[lo]["ratio_se"], mom[hi]["ratio_se"])
        assert mom[hi]["ratio"] <= mom[lo]["ratio"] + width
    assert rep["rho_exact"]
    assert rep["dudley_functional"] > rep["sigma"]


def test_gaussian_sup_matches_direct_simulation_oracle():
    # orthonormal rows: sup over Z of independent standard normals
    model = FieldModel(np.eye(4), "gaussian")
    rep = field_sup_stats(model, [CoefficientVector.equal(2)], copies=100_000, seed=3)
    m2 = rep["rows"][0]["moments"][2.0]
    rng = np.random.default_rng(99)
    oracle = np.max(rng.standard_normal((400_000, 4)), axis=1)
    o2 = math.sqrt(float(np.mean(oracle**2)))
    o2_se = float(np.std(np.abs(oracle) ** 2)) / math.sqrt(oracle.shape[0]) / (2 * o2)
    assert abs(m2["norm"] - o2) <= 3.0 * (m2["norm_se"] + o2_se)


def test_rademacher_driver_identical_rows_reduces_to_single_variable():
    # identical feature rows: the field is the same variable at every z, so
    # sup_z Y is one weighted rademacher-type sum; its p-ratio is bounded by
    # the subgaussian norm of that variable
    f = np.ones((3, 4)) / math.sqrt(3.0)  # sigma = 1, all columns equal
    model = FieldModel(f, "rademacher")
    a = CoefficientVector.equal(2)
    rep = field_sup_stats(model, [a], copies=50_000, seed=4)
    assert float(np.max(rep["rho"])) <= 1e-12
    assert not rep["rho_exact"]
    # the scalar variable is sum over 6 (n*L) rademachers at weight 1/sqrt(6)
    tau = bphi_norm(Distribution.rademacher(), phi_subgaussian()).value
    mom = rep["rows"][0]["moments"]
    for p, row in mom.items():
        assert row["ratio"] <= tau + 5.0 * row["ratio_se"] + 0.05


def test_field_stats_deterministic_across_threads():
    model = FieldModel(np.eye(3), "gaussian")
    a = [CoefficientVector.equal(2)]
    r1 = field_sup_stats(model, a, copies=20_000, seed=6, threads=1)
    r4 = field_sup_stats(model, a, copies=20_000, seed=6, threads=4)
    assert r1 == r4


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_load_space_csv_and_json(tmp_path):
    sp = grid_space(5)
    csv_path = tmp_path / "space.csv"
    lines = [",".join(str(l) for l in sp.labels)]
    lines += [",".join(repr(float(x)) for x in row) for row in sp.rho]
    csv_path.write_text("\n".join(lines) + "\n")
    back = load_space(str(csv_path))
    assert np.allclose(back.rho, sp.rho)

    json_path = tmp_path / "space.json"
    json_path.write_text(
        '{"labels": [0, 1], "rho": [[0.0, 0.5], [0.5, 0.0]]}')
    back = load_space(str(json_path))
    assert back.n == 2 and back.diameter == 0.5
    assert back.labels == (0, 1) and all(type(x) is int for x in back.labels)


def test_load_space_reads_the_csv_module_bits(tmp_path):
    """numpy's CSV parse gives the doubles the csv module and float() give,
    bit for bit, on repr, %.17g, %.25g and %.20e cells."""
    pts = np.random.default_rng(4).uniform(size=(60, 2))
    rho = FiniteMetricSpace.from_points(pts).rho
    formats = itertools.cycle([repr, "{:.17g}".format, "{:.25g}".format, "{:.20e}".format])
    cells = [[fmt(float(x)) for fmt, x in zip(formats, row)] for row in rho]
    path = tmp_path / "space.csv"
    path.write_text("\n".join([",".join(f"p{i}" for i in range(len(cells)))]
                              + [",".join(row) for row in cells]) + "\n")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    want = np.array([[float(x) for x in row] for row in rows[1:]])
    got = load_space(str(path))
    assert got.labels == tuple(rows[0])
    assert got.rho.tobytes() == want.tobytes()


@pytest.mark.parametrize("body", ["0,x\n1,0\n", "0,1\n1\n", ""],
                         ids=["malformed", "ragged", "no-rows"])
def test_bad_csv_space_exits_two(body, tmp_path, capsys):
    path = tmp_path / "space.csv"
    path.write_text("a,b\n" + body)
    assert main(["entropy", "cover", "--space", str(path), "--eps", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
