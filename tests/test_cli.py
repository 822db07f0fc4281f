import inspect
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinchine.cli import (COMMANDS, WEIGHT_SPECS, SpecError, main, norm_specs,
                           parse_norm_spec, parse_p_grid, parse_psi, parse_weights, psi_specs)
from khinchine.distributions import LAW_SPECS, parse_distribution
from khinchine.entropy import FiniteMetricSpace
from khinchine.genfun import PHI_SPECS, kappa, parse_phi
from khinchine.numerics import sorted_distinct
from khinchine.search import khinchine_inf, khinchine_sup
from khinchine.verify import (pythagoras_check, verify_thm31, verify_thm32,
                              verify_thm41)


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


@pytest.mark.parametrize("norm, reason", [
    ("lp:0.5", "lp norm spec needs p >= 1"),
    ("lp:x", "could not convert string to float: 'x'"),
], ids=["lp:0.5", "lp:x"])
def test_a_refused_norm_spec_names_its_rule(capsys, norm, reason):
    code = main(["khinchine", "prelim", "--law", "rademacher", "--norm", norm])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: bad norm spec {norm!r}: {reason}\n"


#: kind -> the argv that reads one spec of it, the spec last
SPEC_ARGV = {
    "law": ["norm", "bphi", "--phi", "subgaussian", "--law"],
    "generating-function": ["norm", "bphi", "--law", "rademacher", "--phi"],
    "psi": ["norm", "gls", "--law", "rademacher", "--p-grid", "2:4", "--psi"],
    "weights": ["norm", "lp", "--law", "rademacher", "--p", "3", "--weights"],
    "norm": ["khinchine", "prelim", "--law", "rademacher", "--p-grid", "2:4", "--norm"],
}
FLOAT_X = "could not convert string to float: 'x'"
#: (kind, spec, its reason): a stray parameter, a missing one, an unparsable
#: one, one out of range and a nested spec of each kind; every weights form
#: takes a parameter and nests no spec, so a stray field is read with its last
MALFORMED_SPECS = [
    ("law", "rademacher:5", "the form is rademacher"),
    ("law", "rademacher:", "the form is rademacher"),
    ("law", "gaussian", "the form is gaussian:<sigma>"),
    ("law", "gaussian:x", FLOAT_X),
    ("law", "gaussian:-1", "gaussian sigma must be > 0 and finite"),
    ("generating-function", "subgaussian:7", "the form is subgaussian"),
    ("generating-function", "power", "the form is power:<m>"),
    ("generating-function", "power:x", FLOAT_X),
    ("generating-function", "power:0.5", "power family needs m >= 1"),
    ("generating-function", "power:inf", "'inf' is not a finite number"),
    ("generating-function", "natural:gaussian:-1",
     "bad law spec 'gaussian:-1': gaussian sigma must be > 0 and finite"),
    ("psi", "sqrtp:9", "the form is sqrtp"),
    ("psi", "power", "the form is power:<m>"),
    ("psi", "power:x", FLOAT_X),
    ("psi", "power:0", "psi power needs m > 0"),
    ("psi", "fromphi:power:0.5", "bad generating-function spec 'power:0.5': power family"),
    ("weights", "equal", "the form is equal:<n>"),
    ("weights", "twolevel:3", "the form is twolevel:<n>:<j>:<w>"),
    ("weights", "list:1,x", FLOAT_X),
    ("weights", "equal:0", "equal weights need n >= 1"),
    ("weights", "equal:3:9", "invalid literal for int() with base 10: '3:9'"),
    ("weights", "onehot:3:1:7", "invalid literal for int() with base 10: '1:7'"),
    ("weights", "twolevel:4:1:0.5:2", "could not convert string to float: '0.5:2'"),
    ("weights", "list:1,2:3", "could not convert string to float: '2:3'"),
    ("norm", "lp", "the form is lp:<p>"),
    ("norm", "lp:x", FLOAT_X),
    ("norm", "lp:0.5", "lp norm spec needs p >= 1"),
    ("norm", "bphi:subgaussian:7",
     "bad generating-function spec 'subgaussian:7': the form is subgaussian"),
    ("norm", "gls:natural:cauchy", "bad psi spec 'natural:cauchy': unknown law spec 'cauchy'"),
]


@pytest.mark.parametrize("kind,spec,reason", MALFORMED_SPECS,
                         ids=[f"{k}-{s}" for k, s, _ in MALFORMED_SPECS])
def test_a_malformed_spec_is_refused_with_its_reason(capsys, kind, spec, reason):
    code = main(SPEC_ARGV[kind] + [spec])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2 and captured.out == "" and len(lines) == 1
    assert lines[0].startswith(f"error: bad {kind} spec {spec!r}: {reason}")


@pytest.mark.parametrize("grid,reason", [
    ("2:8:1:5", "could not convert string to float: '1:5'"),
    ("2", "the form is lo:hi[:step]"),
    ("a:b", "could not convert string to float: 'a'"),
])
def test_a_malformed_p_grid_is_refused_with_its_reason(capsys, grid, reason):
    code = main(["norm", "gls", "--law", "rademacher", "--psi", "sqrtp", "--p-grid", grid])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: bad p-grid spec {grid!r}: {reason}\n"


SPEC_GRID = parse_p_grid("2:4")
#: (reader, CLI form) of every form of every kind `read_spec` reads
FORMS = [(read, form) for read, table in (
    (parse_distribution, LAW_SPECS), (parse_phi, PHI_SPECS), (parse_weights, WEIGHT_SPECS),
    (lambda s: parse_psi(s, SPEC_GRID), psi_specs(SPEC_GRID)),
    (lambda s: parse_norm_spec(s, SPEC_GRID), norm_specs(SPEC_GRID)))
    for form, _ in table.values()]
#: a readable value of each field a form names
FIELD_TEXT = {"sigma": "1", "mu": "1", "b": "1", "m": "3", "law": "rademacher",
              "phi": "subgaussian", "psi": "sqrtp", "p": "3", "n": "4", "i": "1", "j": "1",
              "w": "0.5", "v1,v2,...": "1,2"}


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(FORMS), count=st.integers(0, 5))
def test_a_spec_parses_exactly_when_it_has_a_field_count_of_its_form(case, count):
    # a field more is read with the last field (a nested spec included), so
    # it is refused as unreadable; a field fewer as not the form
    read, form = case
    names = re.findall(r"<([^>]+)>", form)
    fields = ([FIELD_TEXT[f] for f in names] + ["1"] * 5)[:count]
    spec = ":".join([form.partition(":")[0], *fields])
    if len(names) - form.count("[") <= count <= len(names):
        read(spec)
    else:
        with pytest.raises(ValueError, match=f"^bad .* spec {re.escape(repr(spec))}: "):
            read(spec)


OUTSIDE_TABULATED = '{"family": "tabulated", "knots": [0, 1, Infinity], "values": [0, 1, 2]}'
#: an integer past the double range, and how an error line quotes it
HUGE = "1" + "0" * 400
HUGE_QUOTED = f"'{HUGE[:18]}...{HUGE[-18:]} (401 characters)'"


@pytest.mark.parametrize("argv,text,reason", [
    (["norm", "gls", "--law", "rademacher", "--psi", "@DOC"],
     '{"p_grid": [2, 4], "values": [NaN, 1]}', "'NaN' is not a finite number"),
    (["norm", "gls", "--law", "rademacher", "--psi", "@DOC"],
     '{"p_grid": [2, Infinity], "values": [1, 2]}', "'Infinity' is not a finite number"),
    (["phi", "eval", "--family", "@DOC", "--lambda", "1"], OUTSIDE_TABULATED,
     "'Infinity' is not a finite number"),
    (["norm", "bphi", "--law", "rademacher", "--phi", "@DOC"], OUTSIDE_TABULATED,
     "'Infinity' is not a finite number"),
    (["norm", "lp", "--law", "rademacher", "--p", "3", "--weights", "@DOC"], "[1, 1e400]",
     "'1e400' is not a finite number"),
    (["entropy", "fieldsim", "--model", "DOC"], '{"features": [[1, -Infinity]]}',
     "'-Infinity' is not a finite number"),
    (["norm", "gls", "--law", "rademacher", "--psi", "@DOC"], '{"p_grid":\n',
     "Expecting value: line 2 column 1"),
    (["norm", "lp", "--law", "rademacher", "--p", "3", "--weights", "@DOC"], f"[1, {HUGE}]",
     f"{HUGE_QUOTED} is not a finite number"),
    (["entropy", "fieldsim", "--model", "DOC"], f'{{"features": [[1, {HUGE}]]}}',
     f"{HUGE_QUOTED} is not a finite number"),
    (["entropy", "dudley", "--space", "DOC"],
     f'{{"labels": [0, 1], "rho": [[0, {HUGE}], [{HUGE}, 0]]}}',
     f"{HUGE_QUOTED} is not a finite number"),
    (["norm", "gls", "--law", "rademacher", "--psi", "@DOC"],
     f'{{"p_grid": [2, 4], "values": [1, {HUGE}]}}', f"{HUGE_QUOTED} is not a finite number"),
], ids=["psi-nan", "psi-grid-inf", "phi-eval-knot-inf", "bphi-knot-inf", "weights-1e400",
        "model-minus-inf", "truncated", "weights-int-1e400", "model-int-1e400",
        "space-int-1e400", "psi-int-1e400"])
def test_outside_json_is_strict_and_its_refusal_names_the_file(capsys, tmp_path, argv, text,
                                                                reason):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code = main([a.replace("DOC", str(path)) for a in argv])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2 and captured.out == "" and len(lines) == 1
    assert str(path) in lines[0] and f"is not strict JSON: {reason}" in lines[0]


def test_a_long_refused_number_is_quoted_shortened(capsys, tmp_path):
    from khinchine.distributions import shorten
    assert shorten("1e400") == "1e400" and shorten("9" * 40) == "9" * 40
    assert shorten("9" * 41) == "9" * 18 + "..." + "9" * 18 + " (41 characters)"
    path = tmp_path / "doc.json"
    path.write_text(f"[1, {HUGE}]")
    code = main(["norm", "lp", "--law", "rademacher", "--p", "3", "--weights", f"@{path}"])
    line, = capsys.readouterr().err.splitlines()
    assert code == 2 and HUGE not in line and len(line) < 160 + len(str(path))


@pytest.mark.parametrize("rows", [["0,inf", "inf,0"], ["0,nan", "nan,0"]], ids=["inf", "nan"])
def test_a_non_finite_distance_is_refused_as_such(capsys, tmp_path, rows):
    path = tmp_path / "space.csv"
    path.write_text("\n".join(["a,b", *rows]) + "\n")
    code = main(["entropy", "dudley", "--space", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: semi-distances must be finite\n"


def test_a_psi_past_the_double_range_is_refused_without_a_warning(capsys):
    # psi = p^(1/m) = p^1e300 overflows at every p > 1
    code = main(SPEC_ARGV["psi"] + ["power:1e-300"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: bad psi spec 'power:1e-300': "
                            "psi values must be finite and strictly positive\n")


@pytest.mark.parametrize("entries", ["1e300,1e300", "1e-320,1e-320"])
def test_weights_past_the_double_range_of_their_squares_are_a_direction(capsys, entries):
    argv = ["norm", "lp", "--law", "rademacher", "--p", "3", "--weights"]
    code, rep = run_json(capsys, argv + [f"list:{entries}"])
    _, unit = run_json(capsys, argv + ["list:1,1"])
    assert code == 0 and rep["report"] == unit["report"]


@pytest.mark.parametrize("argv", [
    ["phi", "overline", "--family", "subgaussian", "--lambda", "1e200"],
    ["phi", "eval", "--family", "subgaussian", "--lambda=-1e200"],
    ["phi", "eval", "--family", "natural:gaussian:1", "--lambda", "1e200"],
])
def test_phi_past_the_double_range_is_inf_without_a_warning(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["report"]["value"] == "inf"


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


def test_thm41_domination_failure_past_the_overflow_exits_two(capsys):
    code = main(["verify", "thm41", "--laws", "centered-poisson:1",
                 "--phis", "natural:centered-poisson:0.5"])
    assert code == 2
    assert "fails to dominate" in capsys.readouterr().err


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


def test_engine_choices_are_the_engine_table(capsys):
    from khinchine.norms import ENGINES
    engines = [(cmd, sub, options["choices"]) for cmd, (_, subs) in COMMANDS.items()
               for sub, (args, _) in subs.items() for flags, options in args
               if "--engine" in flags]
    assert {(cmd, sub) for cmd, sub, _ in engines} == {
        ("norm", "lp"), ("norm", "gls"), ("khinchine", "sup"), ("khinchine", "inf"),
        ("verify", "thm51"), ("verify", "rosenthal")}
    assert all(choices == list(ENGINES) for *_, choices in engines)
    assert list(ENGINES) == ["auto", "exact_enum", "convolution", "monte_carlo"]
    with pytest.raises(SystemExit):
        main(["norm", "lp", "--engine", "quadrature"])
    assert "'auto', 'exact_enum', 'convolution', 'monte_carlo'" in capsys.readouterr().err


#: (command, subcommand) -> the function its handler passes --trials,
#: --restarts and --nmax to; each CLI option -> that function's parameter
KNOB_FUNCTIONS = {
    ("phi", "kappa"): kappa, ("khinchine", "sup"): khinchine_sup,
    ("khinchine", "inf"): khinchine_inf, ("verify", "thm31"): verify_thm31,
    ("verify", "thm32"): verify_thm32, ("verify", "thm41"): verify_thm41,
    ("verify", "pythagoras"): pythagoras_check}
KNOBS = {"--trials": "trials", "--restarts": "restarts", "--nmax": "n_max"}


def test_each_knob_has_one_default_in_the_cli_and_the_library():
    knobs = {(cmd, sub): [(flags[0], options["default"]) for flags, options in args
                          if flags[0] in KNOBS]
             for cmd, (_, subs) in COMMANDS.items() for sub, (args, _) in subs.items()}
    assert {key for key, found in knobs.items() if found} == set(KNOB_FUNCTIONS)
    for key, fn in KNOB_FUNCTIONS.items():
        params = inspect.signature(fn).parameters
        for flag, default in knobs[key]:
            assert default == params[KNOBS[flag]].default, (key, flag)


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
    # `phi legendre`, `khinchine sup` and `verify pythagoras` take no --threads:
    # they run as given
    unthreaded = {("phi", "legendre"), ("khinchine", "sup"), ("verify", "pythagoras")}
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
], ids=["thm31", "thm32"])
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
    ("verify pythagoras", "--phi subgaussian", {"phi": "subgaussian", "laws": None,
                                                "trials": 1000}),
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


#: a malformed value of each option that names a reader; its error line
#: repeats the last comma-separated item
BAD_VALUES = {"--law": "nolaw", "--laws": "rademacher,nolaw", "--phi": "nophi",
              "--family": "nophi", "--phis": "subgaussian,nophi", "--weights": "noweights:2",
              "--norm": "nonorm:3", "--psi": "nopsi", "--space": "nospace.csv",
              "--model": "nomodel.json", "--p-values": "2,nop", "--n-values": "non",
              "--u": "1,nou", "--eps-grid": "1,noeps"}
READ_OPTIONS = [(sub, flags[0]) for sub, _, _ in SURFACE
                for flags, options in COMMANDS[sub.split()[0]][1][sub.split()[1]][0]
                if "read" in options]


@pytest.mark.parametrize("sub,flag", READ_OPTIONS, ids=[f"{s} {f}" for s, f in READ_OPTIONS])
def test_every_reader_refuses_a_malformed_value(capsys, tmp_path, monkeypatch, sub, flag):
    """Each option with a `read=`, in each subcommand that takes it: a
    malformed value, the other specs valid, exits 2 with one error line
    naming it and no report."""
    assert {f for _, f in READ_OPTIONS} == set(BAD_VALUES)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text('{"labels": ["a", "b"], "rho": [[0.0, 1.0], [1.0, 0.0]]}')
    (tmp_path / "m.json").write_text(json.dumps({"features": np.eye(3).tolist()}))
    argv = next(argv for s, argv, _ in SURFACE if s == sub)
    code = main([*sub.split(), *argv.split(), flag, BAD_VALUES[flag]])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2 and captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error: ") and BAD_VALUES[flag].split(",")[-1] in lines[0]


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


def test_an_unread_option_is_reported_by_its_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phi", "eval", "--family", "subgaussian", "--lambda", "1", "--nmax", "3"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: khinchine phi eval ") and "--lambda LAM" in err
    assert err.rstrip().endswith("khinchine phi eval: error: unrecognized arguments: --nmax 3")
    # the parser that reports it leaves nothing in the echoed config
    code, rep = run_json(capsys, ["phi", "eval", "--family", "subgaussian", "--lambda", "1"])
    assert code == 0 and sorted(rep["config"]) == [
        "command", "family", "format", "lam", "seed", "subcommand"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(code_or_args, given=None):
    """Run `python` in a fresh process on the package source, with the BLAS
    thread variables unset except OPENBLAS_NUM_THREADS=given; its stdout."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    args = ["-c", code_or_args] if isinstance(code_or_args, str) else code_or_args
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=120).stdout


def test_import_khinchine_starts_no_numpy_and_keeps_the_environment():
    assert _python(
        "import os, sys\n"
        "env = dict(os.environ)\n"
        "import khinchine\n"
        "assert 'numpy' not in sys.modules and dict(os.environ) == env\n"
        "assert khinchine.Distribution.rademacher().variance == 1.0\n"
        "print('numpy' in sys.modules)\n") == "True\n"


def test_single_threaded_modules_load_no_thread_pool():
    # concurrent.futures loads logging; only a threaded map needs it
    assert _python(
        "import sys\n"
        "import khinchine.cli, khinchine.entropy, khinchine.search, khinchine.verify\n"
        "from khinchine.numerics import ordered_map\n"
        "assert ordered_map(abs, [-1, 2]) == [1, 2]\n"
        "print('logging' in sys.modules, 'concurrent.futures' in sys.modules)\n"
        "assert ordered_map(abs, [-1, 2, -3], threads=2) == [1, 2, 3]\n"
        "print('concurrent.futures' in sys.modules)\n") == "False False\nTrue\n"


def test_reports_load_no_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma on first use, about 5 ms a process
    (tmp_path / "space.json").write_text(
        '{"labels": ["a", "b", "c"], "rho": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]}')
    (tmp_path / "model.json").write_text(
        json.dumps({"features": np.eye(3).tolist(), "driver": "rademacher"}))
    jobs = ["verify thm41 --laws rademacher,gaussian:1 --phis natural --trials 5 --nmax 4",
            "verify thm32 --law rademacher --phi subgaussian --trials 5 --nmax 4",
            "phi overline --family natural:rademacher --lambda 2",
            "phi kappa --phis subgaussian,power:3 --lambda 1.5",
            f"entropy dudley --space {tmp_path / 'space.json'}",
            f"entropy fieldsim --model {tmp_path / 'model.json'} --weights equal:2 --copies 500"]
    out = _python(
        "import contextlib, io, sys\n"
        "from khinchine.cli import main\n"
        f"for job in {jobs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(job.split()) == 0, job\n"
        "    print('numpy.ma' in sys.modules)\n")
    assert out.split() == ["False"] * len(jobs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=st.lists(st.one_of(st.integers(1, 6).map(float), st.floats(1e-300, 1e300)),
                  min_size=1, max_size=40), shape=st.sampled_from([(-1,), (2, -1)]))
def test_sorted_distinct_gives_the_values_of_np_unique(x, shape):
    a = np.array(x + x[:len(x) % 2], dtype=float).reshape(shape)  # even size, repeats
    assert sorted_distinct(a).tobytes() == np.unique(a).tobytes()


@pytest.mark.parametrize("given", [None, "2"], ids=["unset", "set"])
def test_cli_runs_blas_on_one_thread_unless_the_caller_says(given):
    # khinchine.cli as `python -m` runs it, then the thread variables and the
    # process's thread count (OpenBLAS starts its pool when numpy loads)
    out = _python(
        "import os, runpy, sys\n"
        "sys.argv = ['khinchine', '--version']\n"
        "try:\n"
        "    runpy.run_module('khinchine.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        f"print(*(os.environ[v] for v in {BLAS_THREAD_VARS!r}))\n"
        "status = '/proc/self/status'\n"
        "print(next((l.split()[1] for l in open(status) if l.startswith('Threads:')), 1)\n"
        "      if os.path.exists(status) else 1)\n", given).split("\n")
    assert out[0] == "0.1.0"
    assert out[1] == ("1 1 1" if given is None else f"{given} 1 1")
    if given is None:
        assert out[2] == "1"


def test_convolution_report_is_the_same_bytes_with_blas_threads_unset_and_one():
    # 2^16 support points: numpy's dot of the moment sum goes through
    # OpenBLAS's threaded kernel, whose bits follow the pool size
    w = ",".join(repr(float(x)) for x in np.random.default_rng(1).uniform(0.5, 1.5, 16))
    cmd = ["-m", "khinchine.cli", "norm", "lp", "--law", "rademacher", "--weights",
           f"list:{w}", "--p", "3", "--engine", "convolution"]
    unset, one = _python(cmd), _python(cmd, "1")
    assert json.loads(unset)["report"]["meta"]["support_points"] == 2 ** 16
    assert unset == one


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


@pytest.mark.parametrize("argv,text", [
    (["norm", "bphi", "--law", "@DOC", "--phi", "subgaussian"], "[1, 2]"),
    (["norm", "bphi", "--law", "rademacher", "--phi", "@DOC"], "[1, 2]"),
    (["norm", "gls", "--law", "rademacher", "--psi", "@DOC"], "[1, 2]"),
    (["entropy", "fieldsim", "--model", "DOC"], "[1, 2]"),
    (["entropy", "dudley", "--space", "DOC"], "[1, 2]"),
    (["norm", "lp", "--law", "rademacher", "--weights", "@DOC", "--p", "3"], '{"a": 1}'),
    (["norm", "bphi", "--law", "@DOC", "--phi", "subgaussian"],
     '{"law": "gaussian", "sigma": [1]}'),
    (["norm", "bphi", "--law", "rademacher", "--phi", "@DOC"], '{"family": "power", "m": "x"}'),
    (["entropy", "dudley", "--space", "DOC"], '{"labels": ["a", "b"]}'),
    (["entropy", "fieldsim", "--model", "DOC"], '{"driver": "gaussian"}'),
], ids=["law-list", "phi-list", "psi-list", "model-list", "space-list", "weights-dict",
        "law-sigma-list", "phi-m-string", "space-no-rho", "model-no-features"])
def test_malformed_json_documents_exit_two_naming_the_file(capsys, tmp_path, argv, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([a.replace("DOC", str(path)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]


@pytest.mark.parametrize("argv", [
    ["norm", "gls", "--law", "rademacher", "--psi", "sqrtp", "--p-grid", "2:1e16"],
    ["norm", "lp", "--law", "rademacher", "--weights", "equal:10000000000000000", "--p", "3"],
    ["verify", "thm51", "--law", "rademacher", "--n-values", "10000000000000000"],
], ids=["p-grid", "weights", "thm51-n"])
def test_arrays_past_any_address_space_exit_two(capsys, argv):
    # 10^16 floats are 71 PiB, more than a 64-bit user address space, so
    # the allocation fails at once
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")


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
                                 "uniform-symmetric:1e200", "gaussian:1e-200",
                                 "uniform-symmetric:1e-300", "@SPEC"])
def test_law_parameters_must_be_finite_with_a_finite_variance(capsys, tmp_path, law):
    # sigma = 1e200 is finite, but its variance is not, and sigma = 1e-200's
    # variance underflows to 0; a file holding Infinity is not strict JSON
    path = tmp_path / "spec.json"
    path.write_text('{"law": "gaussian", "sigma": Infinity}')
    code = main(["norm", "bphi", "--law", law.replace("SPEC", str(path)), "--phi", "subgaussian"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    reason = "'Infinity' is not a finite number" if law == "@SPEC" else "finite variance"
    assert captured.err.startswith("error: ") and reason in captured.err

def test_gaussian_gls_report_is_finite_at_high_p(capsys):
    # ||Z||_p / p^(1/4) grows, so the sup sits at the top of the grid, where
    # E|Z|^p is past the double range
    code, rep = run_json(capsys, ["norm", "gls", "--law", "gaussian:1", "--psi", "power:4",
                                  "--p-grid", "2:400"])
    assert code == 0
    assert rep["report"]["meta"]["attained_p"] == 400.0
    lp400 = math.sqrt(2.0) * math.exp((math.lgamma(200.5) - 0.5 * math.log(math.pi)) / 400)
    assert rep["report"]["value"] == pytest.approx(lp400 / 400 ** 0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# count options
# ---------------------------------------------------------------------------

LP = ["norm", "lp", "--law", "rademacher", "--weights", "equal:2", "--p", "3"]
SUP = ["khinchine", "sup", "--law", "rademacher", "--norm", "lp:4"]
THM31 = ["verify", "thm31", "--law", "rademacher", "--phi", "subgaussian"]


@pytest.mark.parametrize("argv, option, value", [
    (["entropy", "fieldsim", "--model", "never-read.json"], "--copies", "0"),
    (LP + ["--engine", "monte_carlo"], "--samples", "0"),
    (LP + ["--engine", "convolution"], "--samples", "0"),
    (LP, "--samples", "-5"),
    (LP, "--samples", "many"),
    (LP, "--threads", "0"),
    (THM31, "--trials", "0"),
    (["verify", "pythagoras", "--phi", "subgaussian"], "--trials", "0"),
    (SUP, "--restarts", "-1"),
    (SUP, "--nmax", "0"),
    (["verify", "thm32", "--law", "rademacher", "--phi", "subgaussian"], "--nmax", "-3"),
    (["phi", "kappa", "--phis", "subgaussian", "--lambda", "1"], "--restarts", "-2"),
])
def test_bad_counts_exit_two_naming_the_option(capsys, argv, option, value):
    # refused by the parser, before the handler reads a file or draws a sample
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {option}: " in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["phi", "kappa", "--phis", "subgaussian,power:3", "--lambda", "1.5", "--restarts", "0"],
    SUP + ["--nmax", "3", "--restarts", "0"],
    THM31 + ["--trials", "1", "--threads", "1"],
])
def test_least_counts_are_accepted(capsys, argv):
    code, _ = run_json(capsys, argv)
    assert code == 0
