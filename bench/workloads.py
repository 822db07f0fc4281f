"""The benchmark's workloads: fixed batches of `khinchine` CLI jobs, the
seeded input files some of them read, and the oracle check of every job."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

#: the p-grid every gls job uses (the CLI default '2:64')
P_GRID = [float(p) for p in range(2, 65)]
UNIFORM_B = 1.7320508
OVERLINE_N_CAP = 1_000_000  # overline_phi's default cap


@dataclass
class Inputs:
    """Seeded input files (paths relative to the checkout root) and the
    in-memory data the oracles compare against."""

    seed: int
    paths: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple  # arguments after the program name; {key} names an input path
    check: Callable  # (report, inputs) -> oracles.Verdict
    error_exit_ok: bool = False  # exit 2 with an 'error:' line also passes
    #: (description, (report, inputs) -> bool) of a known program defect: a
    #: report that fails its check but is exactly what the defect produces
    #: counts as a failed job, not as a wrong one
    known_defect: tuple | None = None

    def command(self, inputs: Inputs) -> list:
        return [a.format(**inputs.paths) for a in self.argv] + ["--seed", str(inputs.seed)]


@dataclass(frozen=True)
class Workload:
    why: str
    jobs: tuple
    needs_inputs: bool = False


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _write_space_csv(path: str, rho: np.ndarray, labels: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(labels) + "\n")
        for row in rho:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def make_inputs(seed: int, directory: str) -> Inputs:
    """Planar point spaces of 100 and 300 points in the unit square and an
    8 x 40 Rademacher-driven field model, all drawn from `seed` alone. The
    exact Dudley sums are computed here, outside any timed region."""
    os.makedirs(directory, exist_ok=True)
    inputs = Inputs(seed)
    for key, n, stream in (("space100", 100, 1), ("space300", 300, 2)):
        pts = np.random.default_rng([seed, stream]).random((n, 2))
        rho = oracles.euclidean_distances(pts)
        labels = [f"p{i}" for i in range(n)]
        path = os.path.join(directory, f"{key}.csv")
        _write_space_csv(path, rho, labels)
        inputs.paths[key] = path
        inputs.data[key] = (rho, labels)
    features = np.random.default_rng([seed, 3]).standard_normal((8, 40))
    path = os.path.join(directory, "field.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"features": features.tolist(), "driver": "rademacher"}, fh)
    inputs.paths["field"] = path
    inputs.data["field"] = features
    inputs.data["dudley100"] = oracles.dudley_breakpoints(inputs.data["space100"][0])
    inputs.data["dudley_field"] = oracles.dudley_breakpoints(
        oracles.euclidean_distances(features.T))
    return inputs


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def _j(name: str, line: str, check: Callable, **kw) -> Job:
    return Job(name, tuple(line.split()), check, **kw)


KHINTCHINE_SEARCH = (
    _j("sup-lp4-n14", "khinchine sup --law rademacher --norm lp:4 --nmax 14",
       lambda r, i: oracles.check_search(r, direction="lower_bound_of_sup", n_max=14,
                                         exact=oracles.rademacher_lp4_sup(14),
                                         ceiling=3.0 ** 0.25)),
    _j("sup-gls-sqrtp-n4", "khinchine sup --law rademacher --norm gls:sqrtp --nmax 4",
       lambda r, i: oracles.check_gls_sqrtp_sup(r, n_max=4, p_grid=P_GRID)),
    _j("inf-lp1.5-n8", "khinchine inf --law rademacher --norm lp:1.5 --nmax 8",
       lambda r, i: oracles.check_search(r, direction="upper_bound_of_inf", n_max=8,
                                         exact=oracles.haagerup_inf(1.5))),
    _j("sup-lp4-n16-budget", "khinchine sup --law rademacher --norm lp:4 --nmax 16 --samples 4096",
       lambda r, i: oracles.check_search(r, direction="lower_bound_of_sup", n_max=16,
                                         exact=oracles.rademacher_lp4_sup(16),
                                         ceiling=3.0 ** 0.25)),
    _j("sup-uniform-lp4-n8", f"khinchine sup --law uniform-symmetric:{UNIFORM_B} --norm lp:4 --nmax 8",
       lambda r, i: oracles.check_search(r, direction="lower_bound_of_sup", n_max=8,
                                         exact=oracles.uniform_lp4_sup(UNIFORM_B, 8)),
       error_exit_ok=True),
    _j("verify-thm51", "verify thm51 --law rademacher",
       lambda r, i: oracles.check_thm51(r, p_values=(2.0, 4.0, 6.0, 8.0), n_values=(4, 16, 64))),
)

PHI_VERIFY = (
    _j("verify-pythagoras", "verify pythagoras --phi subgaussian --trials 60",
       lambda r, i: oracles.check_verify_pass(r)),
    _j("verify-thm31-t2", "verify thm31 --law rademacher --phi subgaussian --trials 2000 --threads 2",
       lambda r, i: oracles.check_verify_pass(r, tau=1.0)),
    _j("verify-thm41", "verify thm41 --laws rademacher,gaussian:1 --phis natural --trials 200",
       lambda r, i: oracles.check_verify_pass(r)),
    _j("verify-tail", "verify tail --law rademacher --weights equal:16 --phi subgaussian",
       lambda r, i: oracles.check_tail_rademacher_equal(r, n=16)),
    _j("sup-bphi-n4", "khinchine sup --law rademacher --norm bphi:subgaussian --nmax 4",
       lambda r, i: oracles.check_search(r, direction="lower_bound_of_sup", n_max=4, exact=1.0)),
    _j("phi-overline", "phi overline --family natural:rademacher --lambda 2",
       lambda r, i: oracles.check_overline(r, lam=2.0, n_cap=OVERLINE_N_CAP)),
    _j("phi-kappa", "phi kappa --phis subgaussian,power:3 --lambda 1.5",
       lambda r, i: oracles.check_kappa(r, floor=max(0.5 * 1.5 ** 2, 1.5 ** 3 / 3))),
)

INT64_MASKS = ("entropy._ball_masks shifts numpy int64: points from 63 up are covered "
               "exactly by the balls that hold point 63")

ENTROPY_MC = (
    _j("entropy-dudley", "entropy dudley --space {space100}",
       lambda r, i: oracles.check_dudley(r, rho=i.data["space100"][0],
                                         exact=i.data["dudley100"]),
       known_defect=(INT64_MASKS, lambda r, i: oracles.dudley_shows_int64_mask_defect(
           r, rho=i.data["space100"][0]))),
    _j("entropy-cover", "entropy cover --space {space300} --eps 0.1",
       lambda r, i: oracles.check_cover(r, rho=i.data["space300"][0],
                                        labels=i.data["space300"][1], eps=0.1),
       known_defect=(INT64_MASKS, lambda r, i: oracles.cover_shows_int64_mask_defect(
           r, rho=i.data["space300"][0], labels=i.data["space300"][1], eps=0.1))),
    _j("entropy-fieldsim",
       "entropy fieldsim --model {field} --weights equal:4;equal:16 --copies 100000 --threads 2",
       lambda r, i: oracles.check_fieldsim(r, features=i.data["field"], copies=100_000,
                                           n_coeff_sets=2, dudley_exact=i.data["dudley_field"])),
    _j("norm-lp-mc", "norm lp --law rademacher --weights equal:32 --p 4 --engine monte_carlo "
       "--samples 4000000 --threads 2",
       lambda r, i: oracles.check_mc_norm(r, exact=oracles.rademacher_equal_lp(32, 4.0),
                                          samples=4_000_000)),
    _j("norm-gls-mc", "norm gls --law gaussian:1 --psi sqrtp --engine monte_carlo --samples 1000000",
       lambda r, i: oracles.check_mc_norm(
           r, exact=max(oracles.gaussian_lp(p) / math.sqrt(p) for p in P_GRID),
           samples=1_000_000)),
)

WORKLOADS = {
    "khintchine-search": Workload(
        "exact sum-law engines: convolution, support collapse and the sup/inf candidate search",
        KHINTCHINE_SEARCH),
    "phi-verify": Workload(
        "phi calculus and the B(phi) norm sup: phi inversion, log-MGF, kappa, overline and verify suites",
        PHI_VERIFY),
    "entropy-mc": Workload(
        "covering numbers, Dudley integral, triangle check memory and threaded Monte Carlo sampling",
        ENTROPY_MC, needs_inputs=True),
}
