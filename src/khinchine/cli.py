"""Command-line front end.

Subcommands: phi, norm, khinchine, verify, entropy. A subcommand is one entry
of `COMMANDS`: the arguments its handler reads, after --seed, --format and
--out, which every subcommand shares, and the handler, which returns its
report payload; an option the handler would not read exits 2, reported by
the subcommand's own parser. A spec option (a law, phi, psi, weights, norm,
space, model or list) names its one reader by `read=`: the handler receives
the values read, never the text, and a malformed spec exits 2 with its
reason before the handler runs. `distributions.read_spec` reads a law, phi,
psi, weights or norm spec from '@file.json' (strict JSON) or by its kind's one
table of forms ('known:' in its help), split at ':' as --p-grid is (the last
field keeps any further ':'), and refuses a stray, missing or unreadable field
as "bad <kind> spec '<spec>': <reason>". Every run prints one JSON report
embedding the tool version, the fully resolved configuration, and the seed;
reports are byte-identical across repeated runs and --threads settings. Exit
codes: 0 success; 1 when the report says "pass": false (a verify suite found
its inequality violated); 2 on a precondition or configuration error, a
malformed input document, or an array larger than memory.

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
from .distributions import (LAW_SPECS, catalog, finite, parse_distribution, read_json,
                            read_spec)
from .genfun import (PHI_SPECS, PsiFunction, conv_r_class, kappa, legendre,
                     orlicz_n, overline_phi, parse_phi, phi_inverse,
                     phi_membership_report, phi_natural, psi_from_phi,
                     tail_envelope)
from .norms import (ENGINES, CoefficientVector, EngineRefusal, bphi_norm, gls_norm,
                    weighted_sum_lp)
from .search import (NormSpec, khinchine_inf, khinchine_sup,
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

def count(lowest: int):
    """The `type=` of a count option: an integer >= lowest (else exit 2)."""
    def integer(text: str) -> int:
        if int(text) < lowest:
            raise argparse.ArgumentTypeError(f"need an integer >= {lowest}, got {text}")
        return int(text)
    return integer


#: weights: name -> (CLI form, its fields -> weights)
WEIGHT_SPECS = {
    "equal": ("equal:<n>", lambda n: CoefficientVector.equal(int(n))),
    "one_hot": ("onehot:<n>[:<i>]", lambda n, i="0": CoefficientVector.one_hot(int(n), int(i))),
    "two_level": ("twolevel:<n>:<j>:<w>", lambda n, j, w: CoefficientVector.two_level(
        int(n), int(j), finite(w))),
    "list": ("list:<v1,v2,...>", lambda v: CoefficientVector.normalized(split(v, finite))),
}


def psi_specs(p_grid) -> dict:
    """psi: name -> (CLI form, its fields -> psi on the p grid)."""
    return {
        "sqrtp": ("sqrtp", lambda: PsiFunction.sqrt_p(p_grid)),
        "power": ("power:<m>", lambda m: PsiFunction.p_power(finite(m), p_grid)),
        "natural": ("natural:<law>", lambda law: PsiFunction.natural(
            parse_distribution(law), p_grid)),
        "fromphi": ("fromphi:<phi>", lambda phi: psi_from_phi(parse_phi(phi), p_grid)),
    }


def norm_specs(p_grid) -> dict:
    """A kind of `search.NORM_KINDS` -> (CLI form, its field -> NormSpec)."""
    return {
        "lp": ("lp:<p>", lambda p: NormSpec("lp", finite(p))),
        "gls": ("gls:<psi>", lambda psi: NormSpec("gls", parse_psi(psi, p_grid))),
        "bphi": ("bphi:<phi>", lambda phi: NormSpec("bphi", parse_phi(phi))),
    }


def parse_weights(spec: str) -> CoefficientVector:
    """A spec of `WEIGHT_SPECS` ('list' values are normalized) or '@file.json', a list."""
    return read_spec(spec, "weights", WEIGHT_SPECS,
                     lambda obj: CoefficientVector.normalized(np.asarray(obj, float)), SpecError)


def parse_p_grid(spec: str) -> np.ndarray:
    """'lo:hi[:step]' inclusive grid, default step 1; finite fields, hi >= lo
    and step > 0. Split as `read_spec` splits: a fourth field stays in step."""
    fields = spec.split(":", 2)
    if len(fields) < 2:
        raise SpecError(f"bad p-grid spec {spec!r}: the form is lo:hi[:step]")
    try:
        lo, hi, step = [*map(finite, fields), 1.0][:3]
    except ValueError as exc:
        raise SpecError(f"bad p-grid spec {spec!r}: {exc}") from exc
    for name, ok, rule in (("hi", hi >= lo, ">= lo"), ("step", step > 0, "> 0")):
        if not ok:
            raise SpecError(f"bad p-grid spec {spec!r}: field {name!r} must be {rule}")
    return np.arange(lo, hi + 1e-9, step)


def parse_psi(spec: str, p_grid: np.ndarray) -> PsiFunction:
    """A spec of `psi_specs` on the grid, or '@file.json' with its own grid."""
    return read_spec(spec, "psi", psi_specs(p_grid), PsiFunction.from_json, SpecError)


def parse_norm_spec(spec: str, p_grid: np.ndarray) -> NormSpec:
    """A spec of `norm_specs`: 'lp:p', 'gls:<psi spec>' or 'bphi:<phi spec>'."""
    return read_spec(spec, "norm", norm_specs(p_grid), None, SpecError)


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

def _search_options(a) -> dict:
    return dict(n_max=a.nmax, restarts=a.restarts, seed=a.seed, engine=a.engine,
                budget=a.samples)


def split(text: str, read, sep: str = ",") -> list:
    """The reader of a list option: `read` of each `sep`-separated item."""
    return [read(s) for s in text.split(sep)]


def arg(*flags, **options) -> tuple:
    """One add_argument call of a subcommand; a spec option adds `read=`, the
    function of the parsed namespace that turns its text into a value."""
    return flags, options


#: the options every subcommand takes, ahead of its own
COMMON_OPTIONS = [arg("--seed", type=int, default=0),
                  arg("--format", default="json", choices=["json", "csv"]),
                  arg("--out", default=None)]
LAW_HELP = f"law spec; known: {catalog(LAW_SPECS)}"
PHI_HELP = f"phi spec; known: {catalog(PHI_SPECS)} (<law>: a law spec)"
WEIGHTS_HELP = f"weights spec; known: {catalog(WEIGHT_SPECS)}"
PSI_HELP = f"psi spec; known: {catalog(psi_specs(None))}"
LAW = arg("--law", required=True, help=LAW_HELP, read=lambda a: parse_distribution(a.law))
PHI = arg("--phi", required=True, help=PHI_HELP, read=lambda a: parse_phi(a.phi))
FAMILY = arg("--family", required=True, help=PHI_HELP, read=lambda a: parse_phi(a.family))
WEIGHTS = arg("--weights", required=True, help=WEIGHTS_HELP,
              read=lambda a: parse_weights(a.weights))
LAMBDA = arg("--lambda", dest="lam", type=finite, required=True)
U = arg("--u", type=finite, required=True)
P = arg("--p", type=finite, required=True)
NORM = arg("--norm", required=True, help=f"norm spec; known: {catalog(norm_specs(None), False)}",
           read=lambda a: parse_norm_spec(a.norm, parse_p_grid(a.p_grid)))
SPACE = arg("--space", required=True, help="CSV or JSON file", read=lambda a: load_space(a.space))
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
#: A handler reads each spec option as the value its `read=` returned (a law,
#: phi, weights, norm spec, space, ...), never its text. Readers and handlers
#: call package functions by their module-level names, so that a function
#: replaced on this module (a test's monkeypatch, a tracer) is the one called.
COMMANDS = {
    "phi": ("generating-function calculus", {
        "eval": ([FAMILY, LAMBDA], lambda a: {
            "value": float(a.family(a.lam)), "phi": a.family.to_json(),
            "membership": phi_membership_report(a.family)}),
        "legendre": ([FAMILY, U], lambda a: asdict(legendre(a.family, a.u))),
        "orlicz": ([FAMILY, U], lambda a: {"value": orlicz_n(a.family, a.u)}),
        "convclass": ([FAMILY, arg("--r", type=finite, required=True)],
                      lambda a: asdict(conv_r_class(a.family, a.r))),
        "overline": ([FAMILY, LAMBDA], lambda a: {"value": overline_phi(a.family, a.lam)}),
        "inverse": ([FAMILY, arg("--y", type=finite, required=True)],
                    lambda a: {"value": phi_inverse(a.family, a.y)}),
        "tail": ([FAMILY, U, arg("--tau", type=finite, required=True)],
                 lambda a: {"value": tail_envelope(a.family, a.tau, a.u)}),
        "kappa": ([arg("--phis", required=True, help="comma-separated " + PHI_HELP,
                       read=lambda a: split(a.phis, parse_phi)), LAMBDA, NMAX, RESTARTS],
                  lambda a: dict(zip(("value", "witness_b", "meta"), kappa(
                      a.phis, a.lam, n_max=a.nmax, restarts=a.restarts, seed=a.seed)))),
        "psi": ([FAMILY, arg("--p", type=finite, default=None), P_GRID],
                lambda a: psi_from_phi(a.family, parse_p_grid(a.p_grid)
                                       if a.p is None else np.array([a.p])).to_json()),
    }),
    "norm": ("norm computations", {
        "bphi": ([LAW, PHI], lambda a: bphi_norm(a.law, a.phi).to_json()),
        "lp": ([LAW, WEIGHTS, P, ENGINE, SAMPLES, THREADS],
               lambda a: weighted_sum_lp(a.law, a.weights, a.p, engine=a.engine, budget=a.samples,
                                         seed=a.seed, threads=a.threads).to_json()),
        "gls": ([LAW, arg("--psi", required=True, help=PSI_HELP,
                          read=lambda a: parse_psi(a.psi, parse_p_grid(a.p_grid))),
                 P_GRID, ENGINE, SAMPLES, THREADS],
                lambda a: gls_norm(a.law, a.psi, engine=a.engine, budget=a.samples,
                                   seed=a.seed, threads=a.threads).to_json()),
    }),
    "khinchine": ("constant estimation", {
        "sup": ([LAW, NORM, *SEARCH],
                lambda a: khinchine_sup(a.law, a.norm, **_search_options(a)).to_json()),
        "inf": ([LAW, NORM, *SEARCH],
                lambda a: khinchine_inf(a.law, a.norm, **_search_options(a)).to_json()),
        "prelim": ([LAW, NORM, P_GRID], lambda a: prelim_bounds(a.law, a.norm)),
    }),
    "verify": ("inequality verification suites", {
        "thm31": ([LAW, PHI, TRIALS, THREADS],
                  lambda a: verify_thm31(a.law, a.phi, trials=a.trials, seed=a.seed,
                                         threads=a.threads)),
        "thm32": ([LAW, PHI, TRIALS, NMAX, RESTARTS, THREADS],
                  lambda a: verify_thm32(a.law, a.phi, trials=a.trials, seed=a.seed, n_max=a.nmax,
                                         restarts=a.restarts, threads=a.threads)),
        "thm41": ([arg("--laws", required=True, help="comma-separated " + LAW_HELP,
                       read=lambda a: split(a.laws, parse_distribution)),
                   arg("--phis", required=True, help="'natural' or comma-separated " + PHI_HELP,
                       read=lambda a: None if a.phis == "natural" else split(a.phis, parse_phi)),
                   TRIALS, NMAX, RESTARTS, THREADS],
                  lambda a: verify_thm41(
                      a.laws, a.phis or [phi_natural(d) for d in a.laws], trials=a.trials,
                      seed=a.seed, n_max=a.nmax, restarts=a.restarts, threads=a.threads)),
        "thm51": ([LAW, arg("--p-values", dest="p_values", default="2,4,6,8",
                            read=lambda a: tuple(split(a.p_values, finite))),
                   arg("--n-values", dest="n_values", default="4,16,64",
                       read=lambda a: tuple(split(a.n_values, int))), ENGINE, SAMPLES],
                  lambda a: verify_thm51(a.law, p_values=a.p_values, n_values=a.n_values,
                                         engine=a.engine, budget=a.samples, seed=a.seed)),
        "rosenthal": ([LAW, P, WEIGHTS, ENGINE, SAMPLES],
                      lambda a: rosenthal_verify(a.law, a.p, a.weights, engine=a.engine,
                                                 budget=a.samples, seed=a.seed)),
        "pythagoras": ([arg("--laws", default=None, help="comma-separated " + LAW_HELP,
                            read=lambda a: split(a.laws, parse_distribution) if a.laws else None),
                        PHI, TRIALS],
                       lambda a: pythagoras_check(a.phi, laws=a.laws, trials=a.trials,
                                                  seed=a.seed)),
        "tail": ([LAW, WEIGHTS, PHI, arg("--u", default="0.5,1,1.5,2,2.5,3",
                                         read=lambda a: tuple(split(a.u, finite))), SAMPLES],
                 lambda a: tail_compare(a.law, a.weights, a.phi, u_grid=a.u,
                                        samples=a.samples or 200_000, seed=a.seed)),
    }),
    "entropy": ("metric entropy and field simulator", {
        "cover": ([SPACE, arg("--eps", type=finite, required=True)], lambda a: dict(
            zip(("count", "exact", "centers"), covering_number(a.space, a.eps)))),
        "dudley": ([SPACE, arg("--scale", type=finite, default=1.0)], lambda a: {
            "value": dudley_integral(a.space, sigma_scale=a.scale),
            "diameter": a.space.diameter, "points": a.space.n}),
        "profile": ([SPACE, arg("--eps-grid", dest="eps_grid", required=True,
                                help="comma-separated eps values", read=lambda a: np.array(
                                    sorted(split(a.eps_grid, finite), reverse=True)))],
                    lambda a: entropy_profile(a.space, a.eps_grid).to_json()),
        "fieldsim": ([arg("--model", required=True, help="JSON field model",
                          read=lambda a: read_json(a.model, FieldModel.from_json,
                                                   f"model {a.model!r}", SpecError)),
                      arg("--weights", default="equal:2",
                          help="semicolon-separated " + WEIGHTS_HELP,
                          read=lambda a: split(a.weights, parse_weights, ";")),
                      arg("--copies", type=count(1), default=100_000, help="at least 1"), THREADS],
                     lambda a: field_sup_stats(a.model, a.weights, copies=a.copies, seed=a.seed,
                                               threads=a.threads)),
    }),
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _SubcommandParser(argparse.ArgumentParser):
    """Reports an argument its subcommand does not take with its own usage.
    Its options (COMMON_OPTIONS, then its `spec`) are added when it first
    parses, so a run builds the options of the one subcommand it names."""

    spec = None  # (arguments, handler) of the COMMANDS entry, until added

    def parse_known_args(self, args=None, namespace=None):
        if self.spec is not None:
            arguments, handler = self.spec
            self.spec = None
            readers = []
            for flags, options in COMMON_OPTIONS + arguments:
                options = dict(options)
                read = options.pop("read", None)
                action = self.add_argument(*flags, **options)
                if read:
                    readers.append((action.dest, read))
            self.set_defaults(func=reading(readers, handler))
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def reading(readers: list, handler):
    """A subcommand's `func`: each (dest, read) of its spec options runs on
    the parsed namespace, in argument order, and the handler runs on a copy
    in which each read value replaces its text (the report echoes the text)."""
    return lambda args: handler(argparse.Namespace(
        **{**vars(args), **{dest: read(args) for dest, read in readers}}))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="khinchine",
                                  description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_, subcommands) in COMMANDS.items():
        subs = sub.add_parser(command, help=help_).add_subparsers(
            dest="subcommand", required=True, parser_class=_SubcommandParser)
        for name, spec in subcommands.items():
            subs.add_parser(name).spec = spec
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
        emit_report(args, payload)
    except (ValueError, PreconditionError, EngineRefusal, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if payload.get("pass", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
