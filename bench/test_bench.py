"""Self-tests of the benchmark: oracles, job definitions, layer wrappers and
the metric names in BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import oracles
from workloads import WORKLOADS, Inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_haagerup_inf_matches_two_term_sum():
    for p in (1.0, 1.5, 1.8):
        assert oracles.haagerup_inf(p) == pytest.approx(oracles.rademacher_equal_lp(2, p), rel=1e-15)
    assert oracles.haagerup_inf(1.5) == pytest.approx(2 ** (-1 / 6), rel=1e-15)
    with pytest.raises(ValueError):
        oracles.haagerup_inf(2.0)


def test_gaussian_moments():
    assert oracles.gaussian_lp(2) == pytest.approx(1.0, rel=1e-15)
    assert oracles.gaussian_lp(4) == pytest.approx(3 ** 0.25, rel=1e-15)
    assert oracles.gaussian_lp(1) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-15)
    assert oracles.gaussian_lp(6) == pytest.approx(15 ** (1 / 6), rel=1e-15)


def test_rademacher_equal_moments():
    for n in (1, 2, 7, 14, 64):
        assert oracles.rademacher_equal_lp(n, 2) == pytest.approx(1.0, rel=1e-15)
        assert oracles.rademacher_equal_lp(n, 4) == pytest.approx(oracles.rademacher_lp4_sup(n), rel=1e-15)
    # E S^6 = 15 - 30/n + 16/n^2 at equal weights
    n = 16
    assert oracles.rademacher_equal_lp(n, 6) ** 6 == pytest.approx(15 - 30 / n + 16 / n ** 2, rel=1e-14)
    # the CLT limit
    assert oracles.rademacher_equal_lp(2000, 4) == pytest.approx(oracles.gaussian_lp(4), rel=1e-3)


def test_rademacher_tail_by_enumeration():
    n = 10
    sums = np.array([sum(s) for s in itertools.product((-1, 1), repeat=n)]) / math.sqrt(n)
    for u in (0.3, 1.0, 2.0):
        assert oracles.rademacher_equal_tail(n, u) == pytest.approx(np.mean(sums >= u - 1e-12), rel=1e-15)


def test_uniform_fourth_moment():
    b = 1.5
    assert oracles.uniform_lp4_sup(b, 1) == pytest.approx((b ** 4 / 5) ** 0.25, rel=1e-15)
    # two equal weights: E S^4 = (2 E X^4 + 6 s2^2) / 4
    s2 = b * b / 3
    assert oracles.uniform_lp4_sup(b, 2) ** 4 == pytest.approx((2 * b ** 4 / 5 + 6 * s2 * s2) / 4, rel=1e-14)


def test_ln_cosh_and_overline():
    for x in (1e-4, 0.002, 0.04):
        assert oracles.ln_cosh_small(x) == pytest.approx(math.log1p(2 * math.sinh(x / 2) ** 2), rel=1e-14)
    assert oracles.overline_rademacher(2.0, 10 ** 6) == pytest.approx(2 - 16e-12 * 1e6 / 12, rel=1e-12)
    with pytest.raises(ValueError):
        oracles.ln_cosh_small(0.5)


def test_distances_and_cover():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    rho = oracles.euclidean_distances(pts)
    assert np.array_equal(rho, rho.T) and np.all(np.diag(rho) == 0)
    assert rho[0, 3] == 3.0
    assert oracles.greedy_cover_count(rho, 1.0) == 2
    assert oracles.greedy_cover_count(rho, 0.5) == 4
    assert oracles.greedy_cover_count(rho, 3.0) == 1


def test_dudley_breakpoints_by_hand():
    two = oracles.euclidean_distances(np.array([[0.0], [2.0]]))
    assert oracles.dudley_breakpoints(two) == pytest.approx(2 * math.sqrt(math.log(2)), rel=1e-15)
    three = oracles.euclidean_distances(np.array([[0.0], [1.0], [3.0]]))
    expected = math.sqrt(math.log(3)) + math.sqrt(math.log(2))
    assert oracles.dudley_breakpoints(three) == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def _search_report(value, direction="lower_bound_of_sup", n_max=4):
    return {"report": {"value": value, "direction": direction, "n_max": n_max, "witness": [1.0]}}


def test_check_search_and_gap_floor():
    exact = oracles.rademacher_lp4_sup(4)
    good = oracles.check_search(_search_report(exact), direction="lower_bound_of_sup",
                                n_max=4, exact=exact)
    assert good.ok and good.max_gap == oracles.GAP_FLOOR
    bad = oracles.check_search(_search_report(exact * 0.99), direction="lower_bound_of_sup",
                               n_max=4, exact=exact)
    assert not bad.ok and bad.max_gap == pytest.approx(0.01)
    wrong_dir = oracles.check_search(_search_report(exact, "upper_bound_of_inf"),
                                     direction="lower_bound_of_sup", n_max=4, exact=exact)
    assert not wrong_dir.ok


def test_check_cover_detects_uncovered_points():
    rho = oracles.euclidean_distances(np.array([[0.0], [1.0], [5.0]]))
    labels = ["a", "b", "c"]
    ok = oracles.check_cover({"report": {"count": 2, "centers": ["a", "c"]}},
                             rho=rho, labels=labels, eps=1.0)
    assert ok.ok
    bad = oracles.check_cover({"report": {"count": 1, "centers": ["a"]}},
                              rho=rho, labels=labels, eps=1.0)
    assert not bad.ok and bad.notes["covered_points"] == 2


def test_check_mc_norm_uses_the_reported_band():
    body = {"method": "monte_carlo", "value": 1.01, "ci_halfwidth": 0.02, "meta": {"samples": 10}}
    v = oracles.check_mc_norm({"report": body}, exact=1.0, samples=10)
    assert v.ok and v.notes["value"]["within_reported_ci"]
    # 0.01 off with a 3-sigma band of 0.009 is 3.3 sigma: noted, not failed
    body["ci_halfwidth"] = 0.009
    v = oracles.check_mc_norm({"report": body}, exact=1.0, samples=10)
    assert v.ok and not v.notes["value"]["within_reported_ci"]
    # 6 sigma fails
    body["ci_halfwidth"] = 0.005
    assert not oracles.check_mc_norm({"report": body}, exact=1.0, samples=10).ok


def _int64_masks(rho, eps):
    """The masks as `entropy._ball_masks` builds them."""
    return [int(sum(1 << z for z in np.nonzero(row)[0])) for row in rho <= eps]


def _bitmask_greedy(masks, n):
    """The greedy loop of `entropy._greedy_cover`, on Python int masks."""
    chosen, uncovered = [], (1 << n) - 1
    while uncovered:
        gains = [bin(m & uncovered).count("1") for m in masks]
        best = gains.index(max(gains))
        chosen.append(best)
        uncovered &= ~masks[best]
    return chosen


@pytest.mark.parametrize("n", [40, 63, 64, 65, 150])
def test_int64_mask_ball_models_the_shift_overflow(n):
    rho = oracles.euclidean_distances(np.random.default_rng(n).random((n, 2)))
    for eps in (0.05, 0.2, 0.6):
        expected = _bitmask_greedy(_int64_masks(rho, eps), n)
        assert oracles.greedy_cover(oracles.int64_mask_ball(rho <= eps)) == expected
        if n <= 63:
            assert expected == oracles.greedy_cover(rho <= eps)


def test_known_defect_recognisers_match_only_the_defect():
    n, eps = 150, 0.1
    rho = oracles.euclidean_distances(np.random.default_rng(7).random((n, 2)))
    labels = [f"p{i}" for i in range(n)]
    sel = sorted(_bitmask_greedy(_int64_masks(rho, eps), n))
    defect = {"report": {"count": len(sel), "centers": [labels[i] for i in sel]}}
    assert not oracles.check_cover(defect, rho=rho, labels=labels, eps=eps).ok
    assert oracles.cover_shows_int64_mask_defect(defect, rho=rho, labels=labels, eps=eps)
    other = {"report": {"count": len(sel) - 1, "centers": [labels[i] for i in sel[1:]]}}
    assert not oracles.cover_shows_int64_mask_defect(other, rho=rho, labels=labels, eps=eps)

    small = rho[:70, :70]
    value = oracles.dudley_breakpoints(small, oracles.int64_mask_cover_count)
    diameter = float(small.max())
    assert oracles.dudley_shows_int64_mask_defect(
        {"report": {"value": value, "diameter": diameter}}, rho=small)
    assert not oracles.dudley_shows_int64_mask_defect(
        {"report": {"value": value * 1.05, "diameter": diameter}}, rho=small)


# ---------------------------------------------------------------------------
# workloads and the spec
# ---------------------------------------------------------------------------

def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    from run import END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.metric_units()


def test_every_job_parses_with_the_cli(tmp_path):
    from khinchine.cli import build_parser
    from workloads import make_inputs
    inputs = make_inputs(3, str(tmp_path))
    parser = build_parser()
    for workload in WORKLOADS.values():
        for job in workload.jobs:
            args = parser.parse_args(job.command(inputs if workload.needs_inputs else Inputs(3)))
            assert args.seed == 3


def test_inputs_depend_on_the_seed_alone(tmp_path):
    from workloads import make_inputs
    a = make_inputs(5, str(tmp_path / "a"))
    b = make_inputs(5, str(tmp_path / "b"))
    c = make_inputs(6, str(tmp_path / "c"))
    for key in ("space100", "space300", "field"):
        with open(a.paths[key], "rb") as fa, open(b.paths[key], "rb") as fb, \
                open(c.paths[key], "rb") as fc:
            da, db, dc = fa.read(), fb.read(), fc.read()
        assert da == db and da != dc
    assert a.data["dudley100"] == b.data["dudley100"]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_install_patches_every_binding_and_uninstalls():
    import khinchine.cli  # noqa: F401
    modules = [m for n, m in sys.modules.items() if n.startswith("khinchine")]
    slots = layers.install(layers.Recorder())
    try:
        patched_names = {key for _, key, _ in slots}
        for _, module, path, _ in layers.TARGETS:
            assert path.split(".")[-1] in patched_names, path
        originals = {id(orig) for _, _, orig in slots}
        for m in modules:
            for value in vars(m).values():
                assert id(value) not in originals or isinstance(value, type)
    finally:
        layers.uninstall(slots)
    from khinchine import norms, numerics
    assert norms.collapse_support is numerics.collapse_support
    assert not hasattr(numerics.collapse_support, "__wrapped__")


def test_span_stats_name_existing_targets():
    names = {t[0] for t in layers.TARGETS}
    for span, _ in layers.SPAN_STATS:
        assert span in names


def _traced(tmp_path, argv):
    spans = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                                        os.environ.get("PYTHONPATH")])))
    traced = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "tracer.py"), str(spans), "--"]
                            + argv, capture_output=True, env=env, cwd=str(tmp_path), timeout=120)
    plain = subprocess.run([sys.executable, "-m", "khinchine.cli"] + argv, capture_output=True,
                           env=env, cwd=str(tmp_path), timeout=120)
    return traced, plain, spans


def test_traced_job_is_byte_identical_and_yields_every_metric(tmp_path):
    argv = ["khinchine", "sup", "--law", "rademacher", "--norm", "lp:4", "--nmax", "3",
            "--restarts", "1", "--seed", "2"]
    traced, plain, spans = _traced(tmp_path, argv)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    totals = layers.Totals()
    totals.add_file(str(spans))
    metrics = totals.metrics(overhead_ratio=1.0)
    assert list(metrics) == list(layers.metric_units())
    for name in ("numerics.collapse_support.calls", "norms.conv_distribution.support_out",
                 "search.sum_norm.calls", "search.candidates", "search.local_evals",
                 "norms.weighted_sum_lp.calls", "cli.emit_report.self_s"):
        assert metrics[name] > 0, name
    assert 0 < metrics["cli.import_s"] and 0 < metrics["cli.parse_s"]


def test_traced_layers_of_phi_and_entropy_jobs(tmp_path):
    traced, plain, spans = _traced(tmp_path, ["phi", "overline", "--family", "natural:rademacher",
                                              "--lambda", "2"])
    assert traced.stdout == plain.stdout
    totals = layers.Totals()
    totals.add_file(str(spans))
    pts = np.random.default_rng(0).random((30, 2))
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"labels": list(range(30)),
                                 "rho": oracles.euclidean_distances(pts).tolist()}))
    traced, plain, spans = _traced(tmp_path, ["entropy", "cover", "--space", str(space),
                                              "--eps", "0.2"])
    assert traced.stdout == plain.stdout
    totals.add_file(str(spans))
    m = totals.metrics(overhead_ratio=1.0)
    for name in ("genfun.phi_eval.calls", "genfun.phi_eval.points", "distributions.log_mgf.calls",
                 "numerics.golden_max.calls", "genfun.overline_phi.self_s",
                 "entropy.load_space.self_s", "entropy.covering_number.calls",
                 "entropy.metric_space_init.peak_bytes"):
        assert m[name] > 0, name
    assert m["entropy.triangle_bytes_computed"] == 30 ** 3 * 8


def test_traced_crash_still_writes_spans(tmp_path):
    traced, plain, spans = _traced(tmp_path, ["phi", "kappa", "--phis", "subgaussian",
                                              "--lambda", "1"])
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    assert spans.exists() and spans.read_text().strip()


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run([sys.executable] + SPEC["command"][1:] + [
        "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
