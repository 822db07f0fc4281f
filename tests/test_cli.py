import json
import math

import numpy as np
import pytest

from khinchine.cli import (SpecError, main, parse_norm_spec, parse_p_grid, parse_psi,
                           parse_weights)
from khinchine.entropy import FiniteMetricSpace
from khinchine.genfun import parse_phi


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def test_parse_weights():
    assert parse_weights("equal:4").n == 4
    assert parse_weights("onehot:3").entries[0] == 1.0
    assert parse_weights("onehot:3:2").entries[2] == 1.0
    tl = parse_weights("twolevel:4:1:0.5")
    assert tl.entries[0] ** 2 == pytest.approx(0.5)
    lst = parse_weights("list:3,4")
    assert lst.entries == pytest.approx([0.6, 0.8])
    with pytest.raises(Exception):
        parse_weights("diag:3")


def test_parse_norm_spec():
    grid = parse_p_grid("2:8")
    assert parse_norm_spec("lp:4", grid).kind == "lp"
    assert parse_norm_spec("gls:sqrtp", grid).kind == "gls"
    assert parse_norm_spec("bphi:subgaussian", grid).kind == "bphi"


# ---------------------------------------------------------------------------
# spec'd command examples
# ---------------------------------------------------------------------------

def test_phi_legendre_example(capsys):
    code, rep = run_json(capsys, ["phi", "legendre", "--family", "subgaussian", "--u", "3"])
    assert code == 0
    assert rep["report"]["value"] == pytest.approx(4.5, abs=1e-9)


def test_phi_convclass_example(capsys):
    code, rep = run_json(capsys, ["phi", "convclass", "--family", "subgaussian", "--r", "2"])
    assert code == 0 and rep["report"]["member"] is True


def test_phi_overline_example(capsys):
    code, rep = run_json(capsys, ["phi", "overline", "--family", "subgaussian",
                                  "--lambda", "1.7"])
    assert code == 0
    assert rep["report"]["value"] == pytest.approx(1.445, rel=1e-12)


def test_norm_bphi_example(capsys):
    code, rep = run_json(capsys, ["norm", "bphi", "--law", "gaussian:1",
                                  "--phi", "subgaussian"])
    assert code == 0
    assert rep["report"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert rep["report"]["method"] == "grid_sup"


def test_verify_thm31_exit_zero(capsys):
    code, rep = run_json(capsys, ["verify", "thm31", "--law", "rademacher",
                                  "--phi", "subgaussian", "--seed", "7",
                                  "--trials", "60"])
    assert code == 0 and rep["report"]["pass"]


def test_verify_rosenthal_example(capsys):
    code, rep = run_json(capsys, ["verify", "rosenthal", "--law", "centered-poisson:1",
                                  "--p", "4", "--weights", "equal:16"])
    assert code == 0
    assert rep["report"]["lhs"] == pytest.approx((3 + 1 / 16) ** 0.25, rel=1e-9)


def test_verify_bad_phi_spec_exit_two(capsys):
    code = main(["verify", "thm41", "--laws", "rademacher,rademacher",
                 "--phis", "bad-spec"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_verify_precondition_exit_two(capsys):
    code = main(["verify", "thm31", "--law", "rademacher",
                 "--phi", "natural:rademacher", "--trials", "5"])
    assert code == 2


def test_verify_failure_exit_one(capsys, monkeypatch):
    import khinchine.cli as cli
    monkeypatch.setattr(cli, "verify_thm31",
                        lambda *a, **k: {"suite": "thm31", "pass": False})
    code = main(["verify", "thm31", "--law", "rademacher", "--phi", "subgaussian"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["report"]["pass"] is False


def test_khinchine_sup_example(capsys):
    code, rep = run_json(capsys, ["khinchine", "sup", "--law", "rademacher",
                                  "--norm", "lp:4", "--nmax", "16", "--seed", "1",
                                  "--restarts", "1"])
    assert code == 0
    assert rep["report"]["value"] >= 1.2574
    assert rep["report"]["witness"]
    assert rep["seed"] == 1


def test_phi_kappa_example(capsys):
    code, rep = run_json(capsys, ["phi", "kappa", "--phis", "subgaussian,power:3",
                                  "--lambda", "1.5"])
    assert code == 0
    floor = max(parse_phi(s)(1.5) for s in ("subgaussian", "power:3"))
    assert rep["report"]["value"] >= floor * (1 - 1e-12)


def test_khinchine_sup_all_refused_exit_two(capsys):
    # under auto the n = 1 candidate is |a_1| ||X||_3; an explicit exact
    # engine still refuses every candidate on a continuous law
    code = main(["khinchine", "sup", "--law", "uniform-symmetric:1", "--norm", "lp:3",
                 "--engine", "convolution"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "monte_carlo" in captured.err


def test_one_term_uniform_norm_is_the_prelim_law_norm(capsys):
    code, rep = run_json(capsys, ["norm", "lp", "--law", "uniform-symmetric:1.7",
                                  "--weights", "equal:1", "--p", "3"])
    assert code == 0
    assert rep["report"]["value"] == 1.070932892410642
    assert rep["report"]["method"] == "quadrature"
    code, pre = run_json(capsys, ["khinchine", "prelim", "--law", "uniform-symmetric:1.7",
                                  "--norm", "lp:3"])
    assert code == 0 and pre["report"]["law_norm"] == rep["report"]["value"]
    assert main(["norm", "lp", "--law", "uniform-symmetric:1.7", "--weights", "equal:1",
                 "--p", "3", "--engine", "convolution"]) == 2
    assert "monte_carlo" in capsys.readouterr().err


@pytest.mark.parametrize("argv,value", [
    (["norm", "lp", "--law", "symmetrized-poisson:0.5", "--weights", "equal:2", "--p", "320"],
     15.031836525094892),
    (["norm", "lp", "--law", "symmetrized-poisson:0.5", "--weights", "equal:1", "--p", "320"],
     11.767668651335676),
    (["khinchine", "sup", "--law", "symmetrized-poisson:0.5", "--norm", "gls:sqrtp",
      "--p-grid", "2:400:2", "--nmax", "2", "--restarts", "1"], None),
], ids=["lp-n2", "lp-n1", "sup-gls"])
def test_even_moment_overflow_takes_the_support_path(capsys, argv, value):
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert isinstance(rep["report"]["value"], float)
    if value is not None:
        assert rep["report"]["value"] == value
        assert rep["report"]["method"] == "convolution"


def test_norm_gls_passes_its_engine_through(capsys):
    argv = ["norm", "gls", "--law", "rademacher", "--psi", "sqrtp", "--p-grid", "2:8"]
    code, auto = run_json(capsys, argv)
    assert code == 0 and auto["report"]["method"] == "convolution"
    code, enum = run_json(capsys, argv + ["--engine", "exact_enum"])
    assert code == 0 and enum["report"]["method"] == "exact_enum"
    assert enum["report"]["value"] == auto["report"]["value"]
    assert main(["norm", "gls", "--law", "gaussian:1", "--psi", "sqrtp",
                 "--engine", "convolution"]) == 2


def test_entropy_dudley_csv_space(capsys, tmp_path):
    sp = FiniteMetricSpace.from_points(np.linspace(0, 1, 11)[:, None])
    path = tmp_path / "grid11.csv"
    lines = [",".join(str(l) for l in sp.labels)]
    lines += [",".join(repr(float(x)) for x in row) for row in sp.rho]
    path.write_text("\n".join(lines) + "\n")
    code, rep = run_json(capsys, ["entropy", "dudley", "--space", str(path)])
    assert code == 0
    assert 0.5 < rep["report"]["value"] < 0.6


def test_entropy_dudley_has_no_eps_steps(capsys, tmp_path):
    path = tmp_path / "sp.json"
    path.write_text('{"labels": ["a", "b"], "rho": [[0.0, 1.0], [1.0, 0.0]]}')
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "dudley", "--space", str(path), "--eps-steps", "10"])
    assert exc.value.code == 2
    assert "--eps-steps" in capsys.readouterr().err


def test_entropy_cover(capsys, tmp_path):
    path = tmp_path / "sp.json"
    path.write_text('{"labels": ["a", "b"], "rho": [[0.0, 1.0], [1.0, 0.0]]}')
    code, rep = run_json(capsys, ["entropy", "cover", "--space", str(path),
                                  "--eps", "1.0"])
    assert code == 0 and rep["report"]["count"] == 1


def test_entropy_fieldsim(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"features": np.eye(3).tolist(), "driver": "gaussian"}))
    code, rep = run_json(capsys, ["entropy", "fieldsim", "--model", str(path),
                                  "--weights", "equal:2", "--copies", "5000"])
    assert code == 0
    assert rep["report"]["sigma"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# report contract
# ---------------------------------------------------------------------------

def test_report_embeds_version_config_seed(capsys):
    _, rep = run_json(capsys, ["phi", "eval", "--family", "power:3",
                               "--lambda", "2", "--seed", "5"])
    assert rep["tool"] == "khinchine"
    assert rep["version"]
    assert rep["seed"] == 5
    assert rep["config"]["family"] == "power:3"


def test_byte_identical_across_runs_and_threads(capsys):
    # `phi legendre` and `khinchine sup` take no --threads: they run as given
    unthreaded = {("phi", "legendre"), ("khinchine", "sup")}
    cmds = [
        ["phi", "legendre", "--family", "natural:rademacher", "--u", "0.5"],
        ["norm", "lp", "--law", "rademacher", "--weights", "equal:4", "--p", "4",
         "--engine", "monte_carlo", "--samples", "20000", "--seed", "9"],
        # chunks of 12,500 rows of 32 draws: several blocks each
        ["norm", "lp", "--law", "rademacher", "--weights", "equal:32", "--p", "4",
         "--engine", "monte_carlo", "--samples", "200003", "--seed", "9"],
        ["norm", "gls", "--law", "gaussian:1", "--psi", "sqrtp", "--p-grid", "2:8",
         "--engine", "monte_carlo", "--samples", "20000", "--seed", "9"],
        ["khinchine", "sup", "--law", "rademacher", "--norm", "lp:4",
         "--nmax", "6", "--restarts", "1", "--seed", "2"],
        ["verify", "pythagoras", "--phi", "subgaussian", "--trials", "20",
         "--seed", "5"],
        ["entropy", "fieldsim", "--model", "MODEL", "--copies", "4000", "--seed", "3"],
    ]
    import tempfile, os
    with tempfile.TemporaryDirectory() as td:
        mp = os.path.join(td, "m.json")
        with open(mp, "w") as fh:
            json.dump({"features": [[1.0, 0.0], [0.0, 1.0]], "driver": "rademacher"}, fh)
        for cmd in cmds:
            cmd = [mp if c == "MODEL" else c for c in cmd]
            outs = []
            for threads in ("1", "4", "1"):
                extra = [] if tuple(cmd[:2]) in unthreaded else ["--threads", threads]
                code, out = run(capsys, cmd + extra)
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1] == outs[2], f"nondeterministic: {cmd}"


def test_monte_carlo_stdout_independent_of_blas_threads(tmp_path):
    """Monte Carlo reports are the same bytes under OPENBLAS_NUM_THREADS 1
    and 2 and under --threads 1 and 2: every sampling reduction whose bits
    could follow the BLAS thread count stays out of BLAS. Each case is a
    fresh process, since OpenBLAS reads the variable when it loads."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    model = tmp_path / "field.json"
    features = np.random.default_rng(5).standard_normal((8, 40))
    model.write_text(json.dumps({"features": features.tolist(), "driver": "rademacher"}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    cmds = [
        ["norm", "lp", "--law", "rademacher", "--weights", "equal:32", "--p", "4",
         "--engine", "monte_carlo", "--samples", "200003"],
        ["norm", "gls", "--law", "gaussian:1", "--psi", "sqrtp", "--engine", "monte_carlo"],
        ["entropy", "fieldsim", "--model", str(model), "--weights", "equal:4;equal:16",
         "--copies", "20000"],
    ]
    for cmd in cmds:
        outs = set()
        for blas in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": path}
            for threads in ("1", "2"):
                res = subprocess.run([sys.executable, "-m", "khinchine.cli", *cmd,
                                      "--threads", threads],
                                     env=env, capture_output=True, text=True, check=True,
                                     timeout=300)
                outs.add(res.stdout)
        assert len(outs) == 1, f"stdout depends on BLAS or worker threads: {cmd}"


@pytest.mark.parametrize("cmd", [
    ["verify", "thm31", "--law", "rademacher", "--phi", "subgaussian", "--trials", "7"],
    ["verify", "thm32", "--law", "rademacher", "--phi", "subgaussian", "--trials", "7",
     "--nmax", "6"],
    ["verify", "pythagoras", "--phi", "subgaussian", "--trials", "5"],
], ids=["thm31", "thm32", "pythagoras"])
def test_verify_stdout_identical_across_uneven_thread_blocks(capsys, cmd):
    # odd trial counts split into blocks of unequal size
    outs = {threads: run(capsys, cmd + ["--seed", "4", "--threads", threads])
            for threads in ("1", "2", "3")}
    assert outs["1"][0] == 0
    assert outs["1"] == outs["2"] == outs["3"]


@pytest.mark.parametrize("cmd", [
    ["verify", "thm41", "--laws", "rademacher,gaussian:1", "--phis", "natural",
     "--trials", "5"],
], ids=["thm41"])
def test_kappa_stdout_identical_across_threads(capsys, cmd):
    outs = {threads: run(capsys, cmd + ["--seed", "4", "--threads", threads])
            for threads in ("1", "2", "3")}
    assert outs["1"][0] == 0
    assert outs["1"] == outs["2"] == outs["3"]


def test_csv_format(capsys):
    code, out = run(capsys, ["phi", "legendre", "--family", "subgaussian",
                             "--u", "2", "--format", "csv"])
    assert code == 0
    assert out.startswith("key,value")
    assert "report.value,2.0" in out


def test_out_writes_same_bytes(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, out = run(capsys, ["phi", "eval", "--family", "subgaussian",
                             "--lambda", "1", "--out", str(path)])
    assert code == 0
    assert path.read_text() == out


def test_nonfinite_floats_serialized_as_strings(capsys):
    _, rep = run_json(capsys, ["phi", "orlicz", "--family", "subgaussian",
                               "--u", "40"])
    assert rep["report"]["value"] == "inf"


def test_unknown_law_exit_two(capsys):
    assert main(["norm", "bphi", "--law", "cauchy:1", "--phi", "subgaussian"]) == 2


# ---------------------------------------------------------------------------
# the benchmark's layer tracer still finds every traced name
# ---------------------------------------------------------------------------

def test_bench_layer_tracer_installs_and_uninstalls(capsys):
    """`khinchine ... --trace` in the benchmark wraps the functions named in
    bench/layers.py; a rename in the package must fail here, not only in the
    benchmark's own self-tests."""
    import importlib.util
    from pathlib import Path

    from khinchine.distributions import Distribution

    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    original = Distribution.log_mgf
    rec = layers.Recorder()
    slots = layers.install(rec)
    try:
        assert len(slots) >= len(layers.TARGETS)
        code, _ = run(capsys, ["norm", "bphi", "--law", "rademacher", "--phi", "subgaussian"])
    finally:
        layers.uninstall(slots)
    assert code == 0
    names = {s[1] for s in rec.spans}
    assert {"norms.bphi_norm", "distributions.log_mgf", "cli.emit_report"} <= names
    assert rec.counters["genfun.phi_eval"]["calls"] > 0
    assert Distribution.log_mgf is original


def test_poisson_law_at_a_former_truncation_hang(capsys):
    # the old truncation rule doubled its cut-off forever at this mu
    code, rep = run_json(capsys, ["norm", "lp", "--law", "centered-poisson:36.88944578858948",
                                  "--weights", "equal:1", "--p", "2"])
    assert code == 0
    assert rep["report"]["value"] == pytest.approx(36.88944578858948 ** 0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# the CLI surface: every subcommand's parsed namespace, every spec spelling
# ---------------------------------------------------------------------------

COMMON_OPTIONS = {"seed": 0, "format": "json", "out": None}
ENGINE = {"engine": "auto", "samples": None}
SEARCH = {"nmax": 32, "restarts": 3}
TRIALS = {"trials": 1000, "threads": 1}
GRID = {"p_grid": "2:64"}

# (subcommand, its minimal arguments, the options it adds to the common ones)
SURFACE = [
    ("phi eval", "--family subgaussian --lambda 1", {"family": "subgaussian", "lam": 1.0}),
    ("phi legendre", "--family subgaussian --u 1", {"family": "subgaussian", "u": 1.0}),
    ("phi orlicz", "--family subgaussian --u 1", {"family": "subgaussian", "u": 1.0}),
    ("phi convclass", "--family subgaussian --r 2", {"family": "subgaussian", "r": 2.0}),
    ("phi overline", "--family subgaussian --lambda 1", {"family": "subgaussian", "lam": 1.0}),
    ("phi inverse", "--family subgaussian --y 1", {"family": "subgaussian", "y": 1.0}),
    ("phi tail", "--family subgaussian --tau 1 --u 1",
     {"family": "subgaussian", "u": 1.0, "tau": 1.0}),
    ("phi kappa", "--phis subgaussian --lambda 1",
     {"phis": "subgaussian", "lam": 1.0, **SEARCH}),
    ("phi psi", "--family subgaussian", {"family": "subgaussian", "p": None, **GRID}),
    ("norm bphi", "--law rademacher --phi subgaussian", {"law": "rademacher", "phi": "subgaussian"}),
    ("norm lp", "--law rademacher --weights equal:2 --p 3",
     {"law": "rademacher", "weights": "equal:2", "p": 3.0, **ENGINE, "threads": 1}),
    ("norm gls", "--law rademacher --psi sqrtp",
     {"law": "rademacher", "psi": "sqrtp", **GRID, **ENGINE, "threads": 1}),
    ("khinchine sup", "--law rademacher --norm lp:3",
     {"law": "rademacher", "norm": "lp:3", **GRID, **SEARCH, **ENGINE}),
    ("khinchine inf", "--law rademacher --norm lp:3",
     {"law": "rademacher", "norm": "lp:3", **GRID, **SEARCH, **ENGINE}),
    ("khinchine prelim", "--law rademacher --norm lp:3",
     {"law": "rademacher", "norm": "lp:3", **GRID}),
    ("verify thm31", "--law rademacher --phi subgaussian",
     {"law": "rademacher", "phi": "subgaussian", **TRIALS}),
    ("verify thm32", "--law rademacher --phi subgaussian",
     {"law": "rademacher", "phi": "subgaussian", **TRIALS, **SEARCH}),
    ("verify thm41", "--laws rademacher --phis natural",
     {"laws": "rademacher", "phis": "natural", **TRIALS, **SEARCH}),
    ("verify thm51", "--law rademacher",
     {"law": "rademacher", "p_values": "2,4,6,8", "n_values": "4,16,64", **ENGINE}),
    ("verify rosenthal", "--law rademacher --p 4 --weights equal:2",
     {"law": "rademacher", "p": 4.0, "weights": "equal:2", **ENGINE}),
    ("verify pythagoras", "--phi subgaussian", {"phi": "subgaussian", "laws": None, **TRIALS}),
    ("verify tail", "--law rademacher --weights equal:2 --phi subgaussian",
     {"law": "rademacher", "phi": "subgaussian", "weights": "equal:2", "u": "0.5,1,1.5,2,2.5,3",
      "samples": None}),
    ("entropy cover", "--space s.json --eps 1", {"space": "s.json", "eps": 1.0}),
    ("entropy dudley", "--space s.json", {"space": "s.json", "scale": 1.0}),
    ("entropy profile", "--space s.json --eps-grid 1,2", {"space": "s.json", "eps_grid": "1,2"}),
    ("entropy fieldsim", "--model m.json",
     {"model": "m.json", "weights": "equal:2", "copies": 100000, "threads": 1}),
]

#: the options that only some subcommands take, and a value for each
OPTION_VALUES = {"samples": "64", "engine": "convolution", "nmax": "3", "restarts": "1",
                 "trials": "7", "threads": "2", "p_grid": "2:8"}


def test_surface_lists_every_subcommand():
    from khinchine.cli import COMMANDS
    assert sorted(s for s, _, _ in SURFACE) == sorted(
        f"{c} {s}" for c, (_, subs) in COMMANDS.items() for s in subs)


@pytest.mark.parametrize("sub,argv,own", SURFACE, ids=[s for s, _, _ in SURFACE])
def test_parsed_namespace_is_the_echoed_config(sub, argv, own):
    """The namespace (less `func`) is what a report echoes as its config, so
    its keys, values and their JSON types are pinned per subcommand."""
    from khinchine.cli import build_parser
    command, subcommand = sub.split()
    ns = vars(build_parser().parse_args([command, subcommand, *argv.split()]))
    assert callable(ns.pop("func"))
    want = {"command": command, "subcommand": subcommand, **COMMON_OPTIONS, **own}
    assert json.dumps(ns, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("sub,argv,own", SURFACE, ids=[s for s, _, _ in SURFACE])
def test_each_subcommand_takes_only_the_options_it_reads(sub, argv, own):
    """Of the options that only some subcommands take, a subcommand parses
    exactly those its pinned namespace holds; any other exits 2."""
    from khinchine.cli import build_parser
    for dest, value in OPTION_VALUES.items():
        flag = "--" + dest.replace("_", "-")
        args = [*sub.split(), *argv.split(), flag, value]
        if dest in own:
            assert vars(build_parser().parse_args(args))[dest] is not None
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(args)
            assert exc.value.code == 2, (sub, flag)


@pytest.mark.parametrize("argv", [
    ["phi", "eval", "--family", "subgaussian", "--lambda", "1", "--nmax", "3"],
    ["phi", "eval", "--family", "subgaussian", "--lambda", "1", "--nmax", "3",
     "--engine", "convolution", "--trials", "7"],
    ["norm", "bphi", "--law", "rademacher", "--phi", "subgaussian", "--threads", "2"],
    ["phi", "kappa", "--phis", "subgaussian", "--lambda", "1", "--threads", "2"],
    ["khinchine", "sup", "--law", "rademacher", "--norm", "lp:4", "--threads", "2"],
    ["verify", "tail", "--law", "rademacher", "--weights", "equal:2", "--phi", "subgaussian",
     "--engine", "monte_carlo"],
], ids=["eval-nmax", "eval-three", "bphi-threads", "kappa-threads", "sup-threads",
        "tail-engine"])
def test_an_unread_option_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_every_bench_job_parses(monkeypatch):
    """The benchmark runs `khinchine` with each job's argv and --seed: the
    parser takes every one of them (bench files are only read here)."""
    import string
    import sys
    from pathlib import Path
    from khinchine.cli import build_parser
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads
    jobs = [job for w in workloads.WORKLOADS.values() for job in w.jobs]
    keys = {name for job in jobs for a in job.argv
            for _, name, _, _ in string.Formatter().parse(a) if name}
    inputs = workloads.Inputs(1, paths={k: f"{k}.input" for k in keys})
    for job in jobs:
        argv = job.command(inputs)
        assert argv[-2:] == ["--seed", "1"]
        ns = build_parser().parse_args(argv)
        assert ns.seed == 1 and callable(ns.func), job.name


def _spec_files(tmp_path):
    files = {"law": {"law": "rademacher"}, "phi": {"family": "power", "m": 3},
             "psi": {"p_grid": [2.0, 3.0, 4.0], "values": [2.0 ** 0.5, 3.0 ** 0.5, 2.0]},
             "weights": [1.0, 1.0, 1.0, 1.0], "subgaussian": {"family": "subgaussian"}}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))


SPELLINGS = [
    ("weights", ["one-hot:3:1", "onehot:3:1", "ONEHOT:3:1"]),
    ("weights", ["two-level:4:1:0.5", "twolevel:4:1:0.5"]),
    ("weights", ["equal:4", "@{tmp}/weights.json", " list:1,1,1,1 "]),
    ("law", ["centered-poisson:1", "centered_poisson:1", "Centered-Poisson:1"]),
    ("law", ["rademacher", "@{tmp}/law.json"]),
    ("phi", ["power:3", "@{tmp}/phi.json", "POWER:3"]),
    ("phi", ["natural:gaussian:2", "natural:Gaussian:2"]),
    ("psi", ["sqrtp", "@{tmp}/psi.json"]),
    ("psi", ["fromphi:subgaussian", "fromphi:@{tmp}/subgaussian.json"]),
    ("norm", ["lp:3", "LP:3"]),
    ("norm", ["bphi:natural:gaussian:2", "BPHI:Natural:gaussian:2"]),
]


@pytest.mark.parametrize("kind,spellings", SPELLINGS,
                         ids=[f"{k}-{s[0].strip()}" for k, s in SPELLINGS])
def test_every_spelling_parses_to_the_same_object(tmp_path, kind, spellings):
    from khinchine.distributions import parse_distribution
    _spec_files(tmp_path)
    grid = parse_p_grid("2:4")
    read = {"weights": lambda s: parse_weights(s).to_json(),
            "law": lambda s: parse_distribution(s).to_json(),
            "phi": lambda s: parse_phi(s).to_json(),
            "psi": lambda s: parse_psi(s, grid).to_json(),
            "norm": lambda s: parse_norm_spec(s, grid).label}[kind]
    seen = [read(s.replace("{tmp}", str(tmp_path))) for s in spellings]
    assert all(x == seen[0] for x in seen), seen


@pytest.mark.parametrize("argv", [
    ["norm", "lp", "--law", "rademacher", "--p", "4", "--weights", "equal:0"],
    ["norm", "lp", "--law", "rademacher", "--p", "4", "--weights", "equal:-2"],
    ["norm", "lp", "--law", "rademacher", "--p", "4", "--weights", "onehot:0"],
    ["norm", "lp", "--law", "rademacher", "--p", "4", "--weights", "onehot:3:-1"],
    ["norm", "lp", "--law", "rademacher", "--p", "4", "--weights", "onehot:3:3"],
    ["norm", "lp", "--law", "rademacher", "--p", "3", "--weights", "list:1,nan"],
    ["norm", "lp", "--law", "rademacher", "--p", "3", "--weights", "list:1,inf"],
    ["norm", "gls", "--law", "rademacher", "--psi", "sqrtp", "--p-grid", "2:64:0"],
    ["norm", "gls", "--law", "rademacher", "--psi", "sqrtp", "--p-grid", "2:64:-1"],
    ["norm", "gls", "--law", "rademacher", "--psi", "sqrtp", "--p-grid", "8:2"],
    ["norm", "gls", "--law", "rademacher", "--psi", "sqrtp", "--p-grid", "2:nan"],
    ["norm", "gls", "--law", "rademacher", "--psi", "sqrtp", "--p-grid", "2:inf"],
    ["norm", "lp", "--law", "rademacher", "--p", "3", "--weights", "diag:3"],
], ids=lambda argv: argv[-1])
def test_malformed_weights_and_p_grid_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv,obj", [
    (["norm", "bphi", "--law", "@SPEC", "--phi", "subgaussian"], {"law": "gaussian"}),
    (["norm", "bphi", "--law", "rademacher", "--phi", "@SPEC"], {"family": "power"}),
    (["norm", "bphi", "--law", "rademacher", "--phi", "@SPEC"],
     {"family": "natural", "dist": {"law": "centered_poisson"}}),
    (["norm", "gls", "--law", "rademacher", "--psi", "@SPEC"], {"values": [1.0, 2.0]}),
], ids=["law", "phi", "phi-natural", "psi"])
def test_spec_file_lacking_a_field_exits_two(capsys, tmp_path, argv, obj):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    assert main([a.replace("SPEC", str(path)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "lacks the field" in captured.err


def test_unknown_cli_specs_name_their_catalog():
    grid = parse_p_grid("2:4")
    with pytest.raises(SpecError, match=r"unknown weights spec 'diag:3'; known: equal:<n>, .*@file\.json"):
        parse_weights("diag:3")
    with pytest.raises(SpecError, match=r"unknown psi spec 'weird'; known: sqrtp, .*fromphi:<phi>, @file\.json"):
        parse_psi("weird", grid)
    with pytest.raises(SpecError, match=r"unknown norm spec 'foo:3'; known: lp:<p>, gls:<psi>, bphi:<phi>$"):
        parse_norm_spec("foo:3", grid)
    with pytest.raises(SpecError, match="bad p-grid spec '2:64:0': field 'step'"):
        parse_p_grid("2:64:0")


@pytest.mark.parametrize("argv", [
    ["norm", "lp", "--law", "rademacher", "--weights", "equal:2", "--p", "nan"],
    ["khinchine", "prelim", "--law", "rademacher", "--norm", "lp:nan"],
    ["norm", "gls", "--law", "rademacher", "--psi", "power:nan"],
    ["norm", "gls", "--law", "rademacher", "--psi", "power:0"],
    ["verify", "tail", "--law", "rademacher", "--weights", "equal:2", "--phi", "subgaussian",
     "--u", "nan"],
    ["verify", "tail", "--law", "rademacher", "--weights", "equal:2", "--phi", "subgaussian",
     "--u", "1,inf"],
    ["norm", "lp", "--law", "rademacher", "--weights", "twolevel:3:1:nan", "--p", "3"],
    ["phi", "eval", "--family", "subgaussian", "--lambda", "inf"],
    ["verify", "thm51", "--law", "rademacher", "--p-values", "2,nan"],
], ids=["lp-p", "prelim-norm", "psi-power-nan", "psi-power-zero", "tail-u", "tail-u-inf",
        "twolevel-w", "phi-lambda", "thm51-p-values"])
def test_non_finite_numeric_fields_exit_two(capsys, argv):
    """Every numeric field goes through `cli.finite`: a `type=` option
    through argparse (SystemExit 2), a spec field through `main` (2)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert any(line.startswith("error:") or ": error: " in line
               for line in captured.err.splitlines())


@pytest.mark.parametrize("law", ["gaussian:inf", "uniform-symmetric:inf", "centered-poisson:inf",
                                 "symmetrized-poisson:nan", "gaussian:1e200",
                                 "uniform-symmetric:1e200", "@SPEC"])
def test_law_parameters_must_be_finite_with_a_finite_variance(capsys, tmp_path, law):
    # sigma = 1e200 is finite, but its variance is not; the file form reads
    # the same check
    path = tmp_path / "spec.json"
    path.write_text('{"law": "gaussian", "sigma": Infinity}')
    code = main(["norm", "bphi", "--law", law.replace("SPEC", str(path)), "--phi", "subgaussian"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "finite variance" in captured.err

def test_gaussian_gls_report_is_finite_at_high_p(capsys):
    # ||Z||_p / p^(1/4) grows, so the sup sits at the top of the grid, where
    # E|Z|^p is past the double range
    code, rep = run_json(capsys, ["norm", "gls", "--law", "gaussian:1", "--psi", "power:4",
                                  "--p-grid", "2:400"])
    assert code == 0
    assert rep["report"]["meta"]["attained_p"] == 400.0
    lp400 = math.sqrt(2.0) * math.exp((math.lgamma(200.5) - 0.5 * math.log(math.pi)) / 400)
    assert rep["report"]["value"] == pytest.approx(lp400 / 400 ** 0.25, rel=1e-12)
