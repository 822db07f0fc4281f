"""Command-line front end.

Subcommands: phi, norm, khinchine, verify, entropy. A subcommand is one entry
of `COMMANDS`: the arguments its handler reads, after --seed, --format and
--out, which every subcommand shares, and the handler, which returns its
report payload; an option the handler would not read exits 2, reported by
the subcommand's own parser. Every run prints one JSON report embedding the
tool version, the fully resolved configuration, and the seed; reports are
byte-identical across repeated runs and across --threads settings. Exit
codes: 0 success; 1 when the report says "pass": false (a verify suite found
its inequality violated); 2 on a precondition or configuration error.

Thread policy: --threads is the only parallelism. OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS are set to 1 before numpy loads unless
the caller set them: no BLAS pool spins beside the work, and a long dot
product's bits do not follow the pool size.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

# the thread policy (see above), before the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import __version__
from .distributions import (DistributionError, law_catalog, parse_distribution,
                            read_spec)
from .genfun import (DomainError, PsiFunction, conv_r_class, kappa, legendre,
                     orlicz_n, overline_phi, parse_phi, phi_catalog, phi_inverse,
                     phi_membership_report, phi_natural, psi_from_phi,
                     tail_envelope)
from .norms import (ENGINES, CoefficientVector, EngineRefusal, bphi_norm, gls_norm,
                    weighted_sum_lp)
from .search import (NORM_KINDS, NormSpec, khinchine_inf, khinchine_sup,
                     prelim_bounds)
from .verify import (PreconditionError, pythagoras_check, rosenthal_verify,
                     tail_compare, verify_thm31, verify_thm32, verify_thm41,
                     verify_thm51)
from .entropy import (FieldModel, covering_number, dudley_integral,
                      entropy_profile, field_sup_stats, load_space)
from .numerics import MC_BLOCK_BYTES


class SpecError(ValueError):
    """Malformed CLI specification string."""


# ---------------------------------------------------------------------------
# spec-string parsing: one table per kind, read by `read_spec`
# ---------------------------------------------------------------------------

def finite(text: str) -> float:
    """The one reader of numeric fields, for `type=` and every spec: a finite
    float, else ValueError (which argparse reports as an invalid value)."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return x


def count(lowest: int):
    """The `type=` of a count option: an integer >= lowest (else exit 2)."""
    def integer(text: str) -> int:
        if int(text) < lowest:
            raise argparse.ArgumentTypeError(f"need an integer >= {lowest}, got {text}")
        return int(text)
    return integer


#: weights: name -> (CLI form, the ':'-separated fields after the name -> weights)
WEIGHT_SPECS = {
    "equal": ("equal:<n>", lambda f: CoefficientVector.equal(int(f[0]))),
    "one_hot": ("onehot:<n>[:<i>]", lambda f: CoefficientVector.one_hot(
        int(f[0]), int(f[1]) if len(f) > 1 else 0)),
    "two_level": ("twolevel:<n>:<j>:<w>", lambda f: CoefficientVector.two_level(
        int(f[0]), int(f[1]), finite(f[2]))),
    "list": ("list:<v1,v2,...>", lambda f: CoefficientVector.normalized(
        [finite(x) for x in f[0].split(",")])),
}

#: psi: name -> (CLI form, (text after the name, p grid) -> psi)
PSI_SPECS = {
    "sqrtp": ("sqrtp", lambda rest, grid: PsiFunction.sqrt_p(grid)),
    "power": ("power:<m>", lambda rest, grid: PsiFunction.p_power(finite(rest), grid)),
    "natural": ("natural:<law>", lambda rest, grid: PsiFunction.natural(
        parse_distribution(rest), grid)),
    "fromphi": ("fromphi:<phi>", lambda rest, grid: psi_from_phi(parse_phi(rest), grid)),
}

#: the field a norm kind of `NORM_KINDS` reads: (text after the kind, p grid)
#: -> value; an unparsable p is None, which NormSpec refuses
NORM_FIELDS = {
    "p": lambda rest, grid: _number(rest),
    "psi": lambda rest, grid: parse_psi(rest, grid),
    "phi": lambda rest, grid: parse_phi(rest),
}

WEIGHTS_CATALOG = ", ".join([form for form, _ in WEIGHT_SPECS.values()] + ["@file.json"])
PSI_CATALOG = ", ".join([form for form, _ in PSI_SPECS.values()] + ["@file.json"])
NORM_CATALOG = ", ".join(f"{kind}:<{rec.field}>" for kind, rec in NORM_KINDS.items())


def _number(text: str) -> float | None:
    try:
        return finite(text)
    except ValueError:
        return None


def parse_weights(spec: str) -> CoefficientVector:
    """A spec of `WEIGHT_SPECS` ('list' values are normalized) or
    '@file.json' holding a list."""
    def parse(name, entry, rest):
        try:
            return entry[1](rest.split(":") if rest else [])
        except (IndexError, ValueError) as exc:
            raise SpecError(f"bad weights spec {spec.strip()!r}: field {exc}") from exc

    return read_spec(spec, "weights", WEIGHT_SPECS, parse,
                     lambda obj: CoefficientVector.normalized(np.asarray(obj, float)),
                     WEIGHTS_CATALOG, SpecError)


def parse_p_grid(spec: str) -> np.ndarray:
    """'lo:hi[:step]' inclusive grid, default step 1; finite fields, hi >= lo
    and step > 0."""
    parts = spec.split(":")
    try:
        lo, hi = finite(parts[0]), finite(parts[1])
        step = finite(parts[2]) if len(parts) > 2 else 1.0
    except (IndexError, ValueError) as exc:
        raise SpecError(f"bad p-grid spec {spec!r}") from exc
    for name, ok, rule in (("hi", hi >= lo, ">= lo"), ("step", step > 0, "> 0")):
        if not ok:
            raise SpecError(f"bad p-grid spec {spec!r}: field {name!r} must be {rule}")
    return np.arange(lo, hi + 1e-9, step)


def parse_psi(spec: str, p_grid: np.ndarray) -> PsiFunction:
    """A spec of `PSI_SPECS` on the grid, or '@file.json' with its own grid."""
    return read_spec(spec, "psi", PSI_SPECS, lambda name, entry, rest: entry[1](rest, p_grid),
                     PsiFunction.from_json, PSI_CATALOG, SpecError)


def parse_norm_spec(spec: str, p_grid: np.ndarray) -> NormSpec:
    """A kind of `search.NORM_KINDS` and the spec of the field it reads:
    'lp:p', 'gls:<psi spec>' or 'bphi:<phi spec>'."""
    def parse(kind, rec, rest):
        value = NORM_FIELDS[rec.field](rest, p_grid)
        try:
            return NormSpec(kind, **{rec.field: value})
        except ValueError as exc:
            raise SpecError(f"bad {kind} norm spec {spec!r}") from exc

    return read_spec(spec, "norm", NORM_KINDS, parse, None, NORM_CATALOG, SpecError)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def to_builtin(obj):
    """Convert numpy scalars/arrays and non-finite floats into strict-JSON
    values, recursively."""
    if isinstance(obj, dict):
        return {str(k): to_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_builtin(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k in obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}.{i}", v, rows)
    else:
        rows.append((prefix, obj))


def emit_report(args, payload: dict) -> None:
    # threads and out are execution details that cannot affect results, so
    # they stay out of the echoed config (reports must be byte-identical
    # across worker counts and output destinations)
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "threads", "out") and v is not None}
    report = to_builtin({
        "tool": "khinchine",
        "version": __version__,
        "command": f"{args.command} {getattr(args, 'subcommand', '')}".strip(),
        "seed": getattr(args, "seed", None),
        "config": config,
        "report": payload,
    })
    if args.format == "csv":
        rows: list = []
        _flatten("", report, rows)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["key", "value"])
        for k, v in rows:
            w.writerow([k, v])
        text = buf.getvalue()
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _phi_eval(a) -> dict:
    phi = parse_phi(a.family)
    return {"value": float(phi(a.lam)), "phi": phi.to_json(),
            "membership": phi_membership_report(phi)}


def _norm_spec(a) -> NormSpec:
    return parse_norm_spec(a.norm, parse_p_grid(a.p_grid))


def _search_options(a) -> dict:
    return dict(n_max=a.nmax, restarts=a.restarts, seed=a.seed, engine=a.engine,
                budget=a.samples)


def _thm41(a) -> dict:
    laws = [parse_distribution(s) for s in a.laws.split(",")]
    phis = ([phi_natural(d) for d in laws] if a.phis == "natural"
            else [parse_phi(s) for s in a.phis.split(",")])
    return verify_thm41(laws, phis, trials=a.trials, seed=a.seed, n_max=a.nmax,
                        restarts=a.restarts, threads=a.threads)


def _pythagoras(a) -> dict:
    laws = [parse_distribution(s) for s in a.laws.split(",")] if a.laws else None
    return pythagoras_check(parse_phi(a.phi), laws=laws, trials=a.trials, seed=a.seed)


def _dudley(a) -> dict:
    space = load_space(a.space)
    return {"value": dudley_integral(space, sigma_scale=a.scale),
            "diameter": space.diameter, "points": space.n}


def _fieldsim(a) -> dict:
    with open(a.model, "r", encoding="utf-8") as fh:
        model = FieldModel.from_json(json.load(fh))
    coeffs = [parse_weights(s) for s in a.weights.split(";")]
    return field_sup_stats(model, coeffs, copies=a.copies, seed=a.seed, threads=a.threads)


def arg(*flags, **options) -> tuple:
    """One add_argument call of a subcommand."""
    return flags, options


LAW_HELP = f"law spec; known: {law_catalog()}"
PHI_HELP = f"phi spec; known: {phi_catalog()} (<law>: a law spec)"
WEIGHTS_HELP = f"weights spec; known: {WEIGHTS_CATALOG}"
LAW = arg("--law", required=True, help=LAW_HELP)
PHI = arg("--phi", required=True, help=PHI_HELP)
FAMILY = arg("--family", required=True, help=PHI_HELP)
WEIGHTS = arg("--weights", required=True, help=WEIGHTS_HELP)
LAMBDA = arg("--lambda", dest="lam", type=finite, required=True)
U = arg("--u", type=finite, required=True)
P = arg("--p", type=finite, required=True)
NORM = arg("--norm", required=True, help=f"norm spec; known: {NORM_CATALOG}")
SPACE = arg("--space", required=True, help="CSV or JSON file")
SAMPLES = arg("--samples", type=count(1), default=None, help="budget (at least 1) for "
              "sampling engines / enumeration; --engine auto on a symmetric law with even p "
              "needs none. Monte Carlo holds, per thread, one vector of samples/16 floats for "
              "one p, one more and up to floor(log2 max p) for a p-grid, and one block of "
              f"draws of at most {MC_BLOCK_BYTES >> 10} KiB, not samples x n. Its Rademacher "
              "row sums are within n ulp (of sum |a_k|) of the exact sums, and its integer "
              "powers within about p/2 ulp of pow")
ENGINE = arg("--engine", default="auto", choices=list(ENGINES))
NMAX, RESTARTS = (arg("--nmax", type=count(1), default=32, help="at least 1"),
                  arg("--restarts", type=count(0), default=3, help="at least 0 (0: no restarts)"))
TRIALS = arg("--trials", type=count(1), default=1000, help="at least 1")
THREADS = arg("--threads", type=count(1), default=1, help=(
    "workers, at least 1: Monte Carlo splits its 16 chunks over them, a verify suite "
    "its blocks of trials; they gain where numpy's loops release the GIL (the large "
    "log-MGF arrays of thm31), and the report does not depend on them"))
P_GRID = arg("--p-grid", dest="p_grid", default="2:64", help="grid 'lo:hi[:step]' for psi")
SEARCH = [P_GRID, NMAX, RESTARTS, ENGINE, SAMPLES]

#: command -> (help, subcommand -> (its arguments, handler args -> report payload)).
#: Handlers call package functions by their module-level names, so that a
#: function replaced on this module (a test's monkeypatch, a tracer) is the
#: one called.
COMMANDS = {
    "phi": ("generating-function calculus", {
        "eval": ([FAMILY, LAMBDA], _phi_eval),
        "legendre": ([FAMILY, U], lambda a: asdict(legendre(parse_phi(a.family), a.u))),
        "orlicz": ([FAMILY, U], lambda a: {"value": orlicz_n(parse_phi(a.family), a.u)}),
        "convclass": ([FAMILY, arg("--r", type=finite, required=True)],
                      lambda a: asdict(conv_r_class(parse_phi(a.family), a.r))),
        "overline": ([FAMILY, LAMBDA],
                     lambda a: {"value": overline_phi(parse_phi(a.family), a.lam)}),
        "inverse": ([FAMILY, arg("--y", type=finite, required=True)],
                    lambda a: {"value": phi_inverse(parse_phi(a.family), a.y)}),
        "tail": ([FAMILY, U, arg("--tau", type=finite, required=True)],
                 lambda a: {"value": tail_envelope(parse_phi(a.family), a.tau, a.u)}),
        "kappa": ([arg("--phis", required=True, help="comma-separated " + PHI_HELP), LAMBDA,
                   NMAX, RESTARTS],
                  lambda a: dict(zip(("value", "witness_b", "meta"), kappa(
                      [parse_phi(s) for s in a.phis.split(",")], a.lam, n_max=a.nmax,
                      restarts=a.restarts, seed=a.seed)))),
        "psi": ([FAMILY, arg("--p", type=finite, default=None), P_GRID],
                lambda a: psi_from_phi(parse_phi(a.family), parse_p_grid(a.p_grid)
                                       if a.p is None else np.array([a.p])).to_json()),
    }),
    "norm": ("norm computations", {
        "bphi": ([LAW, PHI],
                 lambda a: bphi_norm(parse_distribution(a.law), parse_phi(a.phi)).to_json()),
        "lp": ([LAW, WEIGHTS, P, ENGINE, SAMPLES, THREADS],
               lambda a: weighted_sum_lp(
                   parse_distribution(a.law), parse_weights(a.weights), a.p, engine=a.engine,
                   budget=a.samples, seed=a.seed, threads=a.threads).to_json()),
        "gls": ([LAW, arg("--psi", required=True, help=f"psi spec; known: {PSI_CATALOG}"),
                 P_GRID, ENGINE, SAMPLES, THREADS],
                lambda a: gls_norm(
                    parse_distribution(a.law), parse_psi(a.psi, parse_p_grid(a.p_grid)),
                    engine=a.engine, budget=a.samples, seed=a.seed, threads=a.threads).to_json()),
    }),
    "khinchine": ("constant estimation", {
        "sup": ([LAW, NORM, *SEARCH], lambda a: khinchine_sup(
            parse_distribution(a.law), _norm_spec(a), **_search_options(a)).to_json()),
        "inf": ([LAW, NORM, *SEARCH], lambda a: khinchine_inf(
            parse_distribution(a.law), _norm_spec(a), **_search_options(a)).to_json()),
        "prelim": ([LAW, NORM, P_GRID],
                   lambda a: prelim_bounds(parse_distribution(a.law), _norm_spec(a))),
    }),
    "verify": ("inequality verification suites", {
        "thm31": ([LAW, PHI, TRIALS, THREADS],
                  lambda a: verify_thm31(parse_distribution(a.law), parse_phi(a.phi),
                                         trials=a.trials, seed=a.seed, threads=a.threads)),
        "thm32": ([LAW, PHI, TRIALS, NMAX, RESTARTS, THREADS],
                  lambda a: verify_thm32(parse_distribution(a.law), parse_phi(a.phi),
                                         trials=a.trials, seed=a.seed, n_max=a.nmax,
                                         restarts=a.restarts, threads=a.threads)),
        "thm41": ([arg("--laws", required=True, help="comma-separated " + LAW_HELP),
                   arg("--phis", required=True, help="'natural' or comma-separated " + PHI_HELP),
                   TRIALS, NMAX, RESTARTS, THREADS],
                  _thm41),
        "thm51": ([LAW, arg("--p-values", dest="p_values", default="2,4,6,8"),
                   arg("--n-values", dest="n_values", default="4,16,64"), ENGINE, SAMPLES],
                  lambda a: verify_thm51(
                      parse_distribution(a.law),
                      p_values=tuple(finite(x) for x in a.p_values.split(",")),
                      n_values=tuple(int(x) for x in a.n_values.split(",")),
                      engine=a.engine, budget=a.samples, seed=a.seed)),
        "rosenthal": ([LAW, P, WEIGHTS, ENGINE, SAMPLES],
                      lambda a: rosenthal_verify(
                          parse_distribution(a.law), a.p, parse_weights(a.weights),
                          engine=a.engine, budget=a.samples, seed=a.seed)),
        "pythagoras": ([PHI, arg("--laws", default=None, help="comma-separated " + LAW_HELP),
                        TRIALS],
                       _pythagoras),
        "tail": ([LAW, PHI, WEIGHTS, arg("--u", default="0.5,1,1.5,2,2.5,3"), SAMPLES],
                 lambda a: tail_compare(
                     parse_distribution(a.law), parse_weights(a.weights), parse_phi(a.phi),
                     u_grid=tuple(finite(x) for x in a.u.split(",")),
                     samples=a.samples or 200_000, seed=a.seed)),
    }),
    "entropy": ("metric entropy and field simulator", {
        "cover": ([SPACE, arg("--eps", type=finite, required=True)],
                  lambda a: dict(zip(("count", "exact", "centers"),
                                     covering_number(load_space(a.space), a.eps)))),
        "dudley": ([SPACE, arg("--scale", type=finite, default=1.0)], _dudley),
        "profile": ([SPACE, arg("--eps-grid", dest="eps_grid", required=True,
                                help="comma-separated eps values")],
                    lambda a: entropy_profile(load_space(a.space), np.array(sorted(
                        (finite(x) for x in a.eps_grid.split(",")), reverse=True))).to_json()),
        "fieldsim": ([arg("--model", required=True, help="JSON field model"),
                      arg("--weights", default="equal:2",
                          help="semicolon-separated " + WEIGHTS_HELP),
                      arg("--copies", type=count(1), default=100_000, help="at least 1"), THREADS],
                     _fieldsim),
    }),
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _SubcommandParser(argparse.ArgumentParser):
    """Reports an argument its subcommand does not take with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", default="json", choices=["json", "csv"])
    common.add_argument("--out", default=None)

    top = argparse.ArgumentParser(prog="khinchine",
                                  description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_, subcommands) in COMMANDS.items():
        subs = sub.add_parser(command, help=help_).add_subparsers(
            dest="subcommand", required=True, parser_class=_SubcommandParser)
        for name, (arguments, handler) in subcommands.items():
            sp = subs.add_parser(name, parents=[common])
            for flags, options in arguments:
                sp.add_argument(*flags, **options)
            sp.set_defaults(func=handler)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
        emit_report(args, payload)
    except (SpecError, DomainError, DistributionError, PreconditionError,
            EngineRefusal, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if payload.get("pass", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
