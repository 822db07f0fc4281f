"""Benchmark of the `khinchine` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is a fixed batch of CLI jobs;
every job runs in a fresh `python -m khinchine.cli` process, as a user runs
it, and `os.wait4` gives its wall time, CPU time and peak RSS. Passes over
the batch repeat until S seconds are used (at least one pass). Every report
is checked by an independent oracle (see oracles.py).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
passes with traced ones, where each job runs under bench/tracer.py, and
prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full record (environment,
per-job outcomes and report sha256) goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import layers
from oracles import GAP_FLOOR
from workloads import WORKLOADS, Inputs, Job, make_inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLI = "src/khinchine/cli.py"
WORK = ".bench_work"
SETUP_FIRST = 3  # set-up samples before the first pass
SETUP_PER_PASS = 2  # and before every pass, so they span the whole run
RUN_LIMIT_S = 165.0  # every job is killed past this point of the run
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "ok_ratio": "1", "oracle_gap": "1"}


@dataclass
class Run:
    """One finished process."""

    rc: int
    stdout: bytes
    stderr: str
    wall: float
    cpu: float
    rss_kb: int

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def spawn(cmd: list, env: dict, tag: str, deadline: float) -> Run:
    """Run cmd to completion with stdout/stderr in files; rusage from wait4."""
    out_path = os.path.join(WORK, "tmp", f"{tag}.out")
    err_path = os.path.join(WORK, "tmp", f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Run(proc.returncode, stdout, stderr, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss)


def judge(job: Job, run: Run, inputs: Inputs) -> dict:
    """Outcome of one job: 'ok', 'failed' (crash, bad exit, bad JSON, or a
    report that is exactly the output of the job's known defect) or 'wrong'
    (any other report that fails its oracle)."""
    out = {"job": job.name, "rc": run.rc, "sha256": run.sha256}
    if "Traceback (most recent call last)" in run.stderr:
        last = run.stderr.strip().splitlines()[-1]
        return {**out, "status": "failed", "reason": f"traceback: {last}"}
    if job.error_exit_ok and run.rc == 2 and not run.stdout:
        has_reason = any(line.startswith("error:") for line in run.stderr.splitlines())
        return {**out, "status": "ok" if has_reason else "failed",
                "reason": "refused with an error line" if has_reason else "exit 2 without reason"}
    if run.rc != 0:
        return {**out, "status": "failed", "reason": f"exit code {run.rc}"}
    try:
        report = json.loads(run.stdout)
    except ValueError as exc:
        return {**out, "status": "failed", "reason": f"invalid JSON: {exc}"}
    verdict = job.check(report, inputs)
    status, reason = "ok" if verdict.ok else "wrong", "; ".join(verdict.problems)
    if not verdict.ok and job.known_defect and job.known_defect[1](report, inputs):
        status, reason = "failed", f"known defect ({job.known_defect[0]}): {reason}"
    return {**out, "status": status, "reason": reason, "gap": verdict.max_gap,
            "gaps": verdict.gaps, "notes": verdict.notes}


def run_pass(jobs, inputs: Inputs, env: dict, deadline: float, tag: str,
             traced: bool = False) -> list:
    base = [sys.executable] + ([os.path.join(BENCH_DIR, "tracer.py")] if traced
                               else ["-m", "khinchine.cli"])
    runs = []
    for k, job in enumerate(jobs):
        if perf_counter() >= deadline:
            break
        cmd = list(base)
        if traced:
            cmd += [os.path.join(WORK, "spans", f"{tag}-{k}.jsonl"), "--"]
        runs.append(spawn(cmd + job.command(inputs), env, f"{tag}-{k}", deadline))
    return runs


def environment_record(root: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk("src")):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def median(values):
    return statistics.median(list(values))


def judge_all(jobs, passes: list, traced_passes: list, inputs: Inputs) -> list:
    """The first pass is judged by the oracles; every later run of a job must
    reproduce its exit code and report bytes exactly."""
    outcomes = []
    for k, job in enumerate(jobs):
        if k >= len(passes[0]):
            outcomes.append({"job": job.name, "status": "failed", "reason": "not run: time limit"})
            continue
        first = passes[0][k]
        res = judge(job, first, inputs)
        res["argv"] = job.command(inputs)
        others = [p[k] for p in passes[1:] + traced_passes if k < len(p)]
        differ = sum((r.rc, r.sha256) != (first.rc, first.sha256) for r in others)
        if differ:
            res["status"] = "wrong"
            res["reason"] = f"{differ} repeated or traced runs differ from the first; {res['reason']}"
        outcomes.append(res)
    return outcomes


def per_layer(passes: list, traced_passes: list) -> tuple:
    """Per-layer metrics of each traced pass, and their medians."""
    per_pass = []
    for i, tp in enumerate(t for t in traced_passes if t):
        totals = layers.Totals()
        for k in range(len(tp)):
            path = os.path.join(WORK, "spans", f"t{i}-{k}.jsonl")
            if os.path.exists(path):
                totals.add_file(path)
        ratio = sum(r.wall for r in tp) / sum(r.wall for r in passes[i][:len(tp)])
        per_pass.append(totals.metrics(ratio))
    return per_pass, {n: median(m[n] for m in per_pass) for n in layers.metric_units()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_run = perf_counter()
    deadline = t_run + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(CLI):
        sys.stderr.write(f"error: {CLI} not found; run from the root of a khinchine checkout\n")
        return 2

    workload = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for sub in ("tmp", "spans"):
        shutil.rmtree(os.path.join(WORK, sub), ignore_errors=True)
        os.makedirs(os.path.join(WORK, sub))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))

    record = {"workload": args.workload, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment_record(root)}
    if workload.needs_inputs:
        inputs = make_inputs(args.seed, os.path.join(WORK, "inputs", f"seed{args.seed}"))
    else:
        inputs = Inputs(args.seed)

    # set-up cost: a fresh process that imports the package and builds the
    # parser. Samples are taken before the first pass and before every pass,
    # so that their median does not hang on the host's speed at one moment.
    version_cmd = [sys.executable, "-m", "khinchine.cli", "--version"]
    spawn(version_cmd, env, "warmup", deadline)  # bytecode compilation, disk cache
    setup = []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            setup.append(spawn(version_cmd, env, f"setup{len(setup)}", deadline))

    sample_setup(SETUP_FIRST)

    # another pass starts while it is expected to end within half a pass of
    # --seconds, so the pass count does not flip with small speed changes
    jobs = workload.jobs
    passes, traced_passes = [], []
    t_measure = perf_counter()
    while True:
        sample_setup(SETUP_PER_PASS)
        passes.append(run_pass(jobs, inputs, env, deadline, f"p{len(passes)}"))
        if args.trace:
            traced_passes.append(run_pass(jobs, inputs, env, deadline,
                                          f"t{len(traced_passes)}", traced=True))
        used = perf_counter() - t_measure
        if used + used / len(passes) / 2 > args.seconds or perf_counter() >= deadline:
            break

    outcomes = judge_all(jobs, passes, traced_passes, inputs)
    runs_per_job = len(passes) + len(traced_passes)
    attempted = len(jobs) * runs_per_job
    failed = sum(runs_per_job for o in outcomes if o["status"] != "ok")
    setup_ok = all(r.rc == 0 and r.stdout.strip() for r in setup)
    correct = setup_ok and not any(o["status"] == "wrong" for o in outcomes)

    # medians over passes of each pass's total: a pass sums its jobs over
    # several seconds, which smooths the host's second-to-second speed changes
    # that a per-job median of a few samples would jump between
    complete = [p for p in passes if len(p) == len(jobs)] or passes
    e2e = {
        "wall_s": median(sum(r.wall for r in p) for p in complete),
        "cpu_s": median(sum(r.cpu for r in p) for p in complete),
        "peak_rss_mb": median(max(r.rss_kb for r in p) / 1024.0 for p in complete if p),
        "setup_s": median(r.wall for r in setup),
        "ok_ratio": (attempted - failed) / attempted,
        "oracle_gap": max([o["gap"] for o in outcomes if "gap" in o] or [GAP_FLOOR]),
    }
    record["setup_runs_s"] = [r.wall for r in setup]
    record["passes"] = [[{"job": jobs[k].name, "wall_s": r.wall, "cpu_s": r.cpu,
                          "rss_kb": r.rss_kb, "rc": r.rc, "sha256": r.sha256}
                         for k, r in enumerate(p)] for p in passes]
    record["jobs"] = outcomes
    record["end_to_end"] = e2e

    if args.trace:
        record["per_layer_passes"], metrics = per_layer(passes, traced_passes)
        units = layers.metric_units()
        record["traced_passes"] = [[{"job": jobs[k].name, "wall_s": r.wall, "rc": r.rc,
                                     "sha256": r.sha256} for k, r in enumerate(p)]
                                   for p in traced_passes]
    else:
        metrics, units = e2e, END_TO_END_UNITS
    record["metrics"] = metrics
    record["run_s"] = perf_counter() - t_run

    result_path = os.path.join(WORK, "results", f"{label}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for o in outcomes:
        print(f"job {o['job']:<22} {o['status']:<6} {o.get('sha256', '')[:12]} {o.get('reason', '')}")
    print(f"passes {len(passes)} traced {len(traced_passes)}  "
          f"failed {failed}/{attempted} (failed_ratio {failed / attempted:.4f})  record {result_path}")
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
