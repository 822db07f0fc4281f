"""Command-line front end.

Subcommands: phi, norm, khinchine, verify, entropy. Every run prints one JSON
report embedding the tool version, the fully resolved configuration, and the
seed; reports are byte-identical across repeated runs and across --threads
settings. Exit codes: 0 pass/success, 1 inequality violation, 2 precondition
or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .distributions import DistributionError, law_catalog, parse_distribution
from .genfun import (DomainError, PsiFunction, conv_r_class, kappa, legendre,
                     orlicz_n, overline_phi, parse_phi, phi_catalog, phi_inverse,
                     phi_membership_report, psi_from_phi, tail_envelope)
from .norms import (CoefficientVector, EngineRefusal, bphi_norm, gls_norm,
                    weighted_sum_lp)
from .search import NormSpec, khinchine_inf, khinchine_sup, prelim_bounds
from .verify import (PreconditionError, pythagoras_check, rosenthal_verify,
                     tail_compare, verify_thm31, verify_thm32, verify_thm41,
                     verify_thm51)
from .entropy import (FieldModel, covering_number, dudley_integral,
                      entropy_profile, field_sup_stats, load_space)


class SpecError(ValueError):
    """Malformed CLI specification string."""


# ---------------------------------------------------------------------------
# spec-string parsing
# ---------------------------------------------------------------------------

def parse_weights(spec: str) -> CoefficientVector:
    """'equal:16', 'onehot:8[:index]', 'twolevel:n:j:w', 'list:v1,v2,...'
    (normalized), or '@file.json' holding a list."""
    spec = spec.strip()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return CoefficientVector.normalized(np.asarray(json.load(fh), float))
    parts = spec.split(":")
    kind = parts[0].replace("-", "").lower()
    try:
        if kind == "equal":
            return CoefficientVector.equal(int(parts[1]))
        if kind == "onehot":
            idx = int(parts[2]) if len(parts) > 2 else 0
            return CoefficientVector.one_hot(int(parts[1]), idx)
        if kind == "twolevel":
            return CoefficientVector.two_level(int(parts[1]), int(parts[2]), float(parts[3]))
        if kind == "list":
            return CoefficientVector.normalized([float(x) for x in parts[1].split(",")])
    except (IndexError, ValueError) as exc:
        raise SpecError(f"bad weights spec {spec!r}: field {exc}") from exc
    raise SpecError(f"unknown weights spec {spec!r} (field 'weights')")


def parse_p_grid(spec: str) -> np.ndarray:
    """'lo:hi[:step]' inclusive grid, default step 1."""
    parts = spec.split(":")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) > 2 else 1.0
    except (IndexError, ValueError) as exc:
        raise SpecError(f"bad p-grid spec {spec!r}") from exc
    return np.arange(lo, hi + 1e-9, step)


def parse_psi(spec: str, p_grid: np.ndarray) -> PsiFunction:
    """'sqrtp', 'power:m', 'natural:<law>', 'fromphi:<phi>', or
    '@file.json'."""
    spec = spec.strip()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return PsiFunction(np.asarray(obj["p_grid"], float),
                           np.asarray(obj["values"], float),
                           obj.get("provenance", "explicit"))
    name, _, rest = spec.partition(":")
    name = name.replace("-", "_").lower()
    if name == "sqrtp":
        return PsiFunction.sqrt_p(p_grid)
    if name == "power":
        return PsiFunction.p_power(float(rest), p_grid)
    if name == "natural":
        return PsiFunction.natural(parse_distribution(rest), p_grid)
    if name == "fromphi":
        return psi_from_phi(parse_phi(rest), p_grid)
    raise SpecError(f"unknown psi spec {spec!r} (field 'psi')")


def parse_norm_spec(spec: str, p_grid: np.ndarray) -> NormSpec:
    """'lp:p', 'gls:<psi spec>', or 'bphi:<phi spec>'."""
    kind, _, rest = spec.partition(":")
    kind = kind.lower()
    if kind == "lp":
        try:
            return NormSpec.lp(float(rest))
        except ValueError as exc:
            raise SpecError(f"bad lp norm spec {spec!r}") from exc
    if kind == "gls":
        return NormSpec.gls(parse_psi(rest, p_grid))
    if kind == "bphi":
        return NormSpec.bphi(parse_phi(rest))
    raise SpecError(f"unknown norm spec {spec!r} (field 'norm')")


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
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_phi(args) -> int:
    sub = args.subcommand
    phi = None if sub == "kappa" else parse_phi(args.family)  # kappa has --phis
    if sub == "eval":
        payload = {"value": float(phi(args.lam)), "phi": phi.to_json(),
                   "membership": phi_membership_report(phi)}
    elif sub == "legendre":
        r = legendre(phi, args.u)
        payload = {"value": r.value, "argmax": r.argmax,
                   "boundary": r.boundary, "unbounded": r.unbounded}
    elif sub == "orlicz":
        payload = {"value": orlicz_n(phi, args.u)}
    elif sub == "convclass":
        r = conv_r_class(phi, args.r)
        payload = {"member": r.member, "r": r.r, "witness": r.witness}
    elif sub == "overline":
        payload = {"value": overline_phi(phi, args.lam)}
    elif sub == "inverse":
        payload = {"value": phi_inverse(phi, args.y)}
    elif sub == "tail":
        payload = {"value": tail_envelope(phi, args.tau, args.u)}
    elif sub == "kappa":
        phis = [parse_phi(s) for s in args.phis.split(",")]
        value, witness, meta = kappa(phis, args.lam, n_max=args.nmax,
                                     restarts=args.restarts, seed=args.seed)
        payload = {"value": value, "witness_b": None if witness is None else list(witness),
                   "meta": meta}
    elif sub == "psi":
        grid = parse_p_grid(args.p_grid) if args.p is None else np.array([args.p])
        payload = psi_from_phi(phi, grid).to_json()
    else:  # pragma: no cover
        raise SpecError(f"unknown phi subcommand {sub!r}")
    emit_report(args, payload)
    return 0


def cmd_norm(args) -> int:
    d = parse_distribution(args.law)
    sub = args.subcommand
    if sub == "bphi":
        est = bphi_norm(d, parse_phi(args.phi))
    elif sub == "lp":
        a = parse_weights(args.weights)
        est = weighted_sum_lp(d, a, args.p, engine=args.engine,
                              budget=args.samples, seed=args.seed,
                              threads=args.threads)
    elif sub == "gls":
        psi = parse_psi(args.psi, parse_p_grid(args.p_grid))
        engine = "monte_carlo" if args.engine == "monte_carlo" else "quadrature"
        est = gls_norm(d, psi, engine=engine, budget=args.samples, seed=args.seed,
                       threads=args.threads)
    else:  # pragma: no cover
        raise SpecError(f"unknown norm subcommand {sub!r}")
    emit_report(args, est.to_json())
    return 0


def cmd_khinchine(args) -> int:
    d = parse_distribution(args.law)
    spec = parse_norm_spec(args.norm, parse_p_grid(args.p_grid))
    if args.subcommand == "prelim":
        emit_report(args, prelim_bounds(d, spec))
        return 0
    fn = khinchine_sup if args.subcommand == "sup" else khinchine_inf
    est = fn(d, spec, n_max=args.nmax, restarts=args.restarts, seed=args.seed,
             engine=args.engine, budget=args.samples)
    emit_report(args, est.to_json())
    return 0


def cmd_verify(args) -> int:
    suite = args.subcommand
    if suite == "thm31":
        rep = verify_thm31(parse_distribution(args.law), parse_phi(args.phi),
                           trials=args.trials, seed=args.seed, threads=args.threads)
    elif suite == "thm32":
        rep = verify_thm32(parse_distribution(args.law), parse_phi(args.phi),
                           trials=args.trials, seed=args.seed, n_max=args.nmax,
                           restarts=args.restarts, threads=args.threads)
    elif suite == "thm41":
        laws = [parse_distribution(s) for s in args.laws.split(",")]
        if args.phis == "natural":
            from .genfun import phi_natural
            phis = [phi_natural(d) for d in laws]
        else:
            phis = [parse_phi(s) for s in args.phis.split(",")]
        rep = verify_thm41(laws, phis, trials=args.trials, seed=args.seed,
                           n_max=args.nmax, restarts=args.restarts,
                           threads=args.threads)
    elif suite == "rosenthal":
        rep = rosenthal_verify(parse_distribution(args.law), args.p,
                               parse_weights(args.weights), engine=args.engine,
                               budget=args.samples, seed=args.seed)
    elif suite == "thm51":
        rep = verify_thm51(parse_distribution(args.law),
                           p_values=tuple(float(x) for x in args.p_values.split(",")),
                           n_values=tuple(int(x) for x in args.n_values.split(",")),
                           engine=args.engine, budget=args.samples, seed=args.seed)
    elif suite == "pythagoras":
        laws = ([parse_distribution(s) for s in args.laws.split(",")]
                if args.laws else None)
        rep = pythagoras_check(parse_phi(args.phi), laws=laws,
                               trials=args.trials, seed=args.seed,
                               threads=args.threads)
    elif suite == "tail":
        rep = tail_compare(parse_distribution(args.law), parse_weights(args.weights),
                           parse_phi(args.phi),
                           u_grid=tuple(float(x) for x in args.u.split(",")),
                           samples=args.samples or 200_000, seed=args.seed)
    else:  # pragma: no cover
        raise SpecError(f"unknown verify suite {suite!r}")
    emit_report(args, rep)
    return 0 if rep["pass"] else 1


def cmd_entropy(args) -> int:
    sub = args.subcommand
    if sub == "fieldsim":
        with open(args.model, "r", encoding="utf-8") as fh:
            model = FieldModel.from_json(json.load(fh))
        coeffs = [parse_weights(s) for s in args.weights.split(";")]
        rep = field_sup_stats(model, coeffs, copies=args.copies, seed=args.seed,
                              threads=args.threads)
        emit_report(args, rep)
        return 0
    space = load_space(args.space)
    if sub == "cover":
        count, exact, centers = covering_number(space, args.eps)
        payload = {"count": count, "exact": exact, "centers": list(centers)}
    elif sub == "dudley":
        payload = {"value": dudley_integral(space, sigma_scale=args.scale),
                   "diameter": space.diameter, "points": space.n}
    elif sub == "profile":
        eps = np.array(sorted((float(x) for x in args.eps_grid.split(",")),
                              reverse=True))
        payload = entropy_profile(space, eps).to_json()
    else:  # pragma: no cover
        raise SpecError(f"unknown entropy subcommand {sub!r}")
    emit_report(args, payload)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    law_help = f"law spec; known: {law_catalog()}"
    phi_help = f"phi spec; known: {phi_catalog()} (<law>: a law spec)"
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--samples", type=int, default=None,
                        help="budget for sampling engines / enumeration; "
                             "--engine auto on a symmetric law with even p "
                             "needs none. Monte Carlo holds samples/16 floats "
                             "per thread plus one block of draws, not samples x n")
    common.add_argument("--engine", default="auto",
                        choices=["auto", "exact_enum", "convolution", "monte_carlo"])
    common.add_argument("--nmax", type=int, default=32)
    common.add_argument("--restarts", type=int, default=3)
    common.add_argument("--trials", type=int, default=1000)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--format", default="json", choices=["json", "csv"])
    common.add_argument("--out", default=None)
    common.add_argument("--p-grid", dest="p_grid", default="2:64",
                        help="grid 'lo:hi[:step]' for psi functions")

    top = argparse.ArgumentParser(prog="khinchine",
                                  description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p_phi = sub.add_parser("phi", help="generating-function calculus")
    phi_sub = p_phi.add_subparsers(dest="subcommand", required=True)
    for name in ("eval", "legendre", "orlicz", "convclass", "overline",
                 "inverse", "tail", "kappa", "psi"):
        sp = phi_sub.add_parser(name, parents=[common])
        if name != "kappa":
            sp.add_argument("--family", required=True, help=phi_help)
        if name in ("eval", "overline"):
            sp.add_argument("--lambda", dest="lam", type=float, required=True)
        if name in ("legendre", "orlicz", "tail"):
            sp.add_argument("--u", type=float, required=True)
        if name == "tail":
            sp.add_argument("--tau", type=float, required=True)
        if name == "convclass":
            sp.add_argument("--r", type=float, required=True)
        if name == "inverse":
            sp.add_argument("--y", type=float, required=True)
        if name == "kappa":
            sp.add_argument("--phis", required=True, help="comma-separated " + phi_help)
            sp.add_argument("--lambda", dest="lam", type=float, required=True)
        if name == "psi":
            sp.add_argument("--p", type=float, default=None)
        sp.set_defaults(func=cmd_phi)

    p_norm = sub.add_parser("norm", help="norm computations")
    norm_sub = p_norm.add_subparsers(dest="subcommand", required=True)
    for name in ("bphi", "lp", "gls"):
        sp = norm_sub.add_parser(name, parents=[common])
        sp.add_argument("--law", required=True, help=law_help)
        if name == "bphi":
            sp.add_argument("--phi", required=True, help=phi_help)
        if name == "lp":
            sp.add_argument("--weights", required=True)
            sp.add_argument("--p", type=float, required=True)
        if name == "gls":
            sp.add_argument("--psi", required=True)
        sp.set_defaults(func=cmd_norm)

    p_kh = sub.add_parser("khinchine", help="constant estimation")
    kh_sub = p_kh.add_subparsers(dest="subcommand", required=True)
    for name in ("sup", "inf", "prelim"):
        sp = kh_sub.add_parser(name, parents=[common])
        sp.add_argument("--law", required=True, help=law_help)
        sp.add_argument("--norm", required=True, help="lp:p | gls:<psi> | bphi:<phi>")
        sp.set_defaults(func=cmd_khinchine)

    p_ver = sub.add_parser("verify", help="inequality verification suites")
    ver_sub = p_ver.add_subparsers(dest="subcommand", required=True)
    for name in ("thm31", "thm32", "thm41", "thm51", "rosenthal",
                 "pythagoras", "tail"):
        sp = ver_sub.add_parser(name, parents=[common])
        if name in ("thm31", "thm32", "thm51", "rosenthal", "tail"):
            sp.add_argument("--law", required=True, help=law_help)
        if name in ("thm31", "thm32", "tail", "pythagoras"):
            sp.add_argument("--phi", required=True, help=phi_help)
        if name == "pythagoras":
            sp.add_argument("--laws", default=None, help="comma-separated " + law_help)
        if name == "thm41":
            sp.add_argument("--laws", required=True, help="comma-separated " + law_help)
            sp.add_argument("--phis", required=True,
                            help="'natural' or comma-separated " + phi_help)
        if name == "rosenthal":
            sp.add_argument("--p", type=float, required=True)
            sp.add_argument("--weights", required=True)
        if name == "thm51":
            sp.add_argument("--p-values", dest="p_values", default="2,4,6,8")
            sp.add_argument("--n-values", dest="n_values", default="4,16,64")
        if name == "tail":
            sp.add_argument("--weights", required=True)
            sp.add_argument("--u", default="0.5,1,1.5,2,2.5,3")
        sp.set_defaults(func=cmd_verify)

    p_ent = sub.add_parser("entropy", help="metric entropy and field simulator")
    ent_sub = p_ent.add_subparsers(dest="subcommand", required=True)
    for name in ("cover", "dudley", "profile", "fieldsim"):
        sp = ent_sub.add_parser(name, parents=[common])
        if name in ("cover", "dudley", "profile"):
            sp.add_argument("--space", required=True, help="CSV or JSON file")
        if name == "cover":
            sp.add_argument("--eps", type=float, required=True)
        if name == "dudley":
            sp.add_argument("--scale", type=float, default=1.0)
        if name == "profile":
            sp.add_argument("--eps-grid", dest="eps_grid", required=True,
                            help="comma-separated eps values")
        if name == "fieldsim":
            sp.add_argument("--model", required=True, help="JSON field model")
            sp.add_argument("--weights", default="equal:2",
                            help="semicolon-separated weight specs")
            sp.add_argument("--copies", type=int, default=100_000)
        sp.set_defaults(func=cmd_entropy)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, DomainError, DistributionError, PreconditionError,
            EngineRefusal, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
