"""motlaser benchmark: end-to-end CLI timings, correctness, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload map --seed 1 --seconds 30 --trace 0

Each workload (see workloads.py) runs in fresh single-threaded worker
processes, one at a time, as many as fit in ``--seconds`` (at least three).
Every process's output files are checked (checks.py) and must be
byte-identical to the first process's.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics of BENCHMARK.json, medians over
the processes.  With ``--trace 1``
untraced and traced processes alternate and it carries the per-layer
metrics, medians over the traced processes.
The exit code is 0 only when every operation succeeded and every check
passed.
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
import time
from pathlib import Path

import numpy as np
import scipy

import checks
from workloads import DEFAULT_SEED, SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
MIN_PROCESSES = 3        # untraced processes per run; traced runs need 2 each
TIME_LIMIT_S = 150.0     # never start a process that could end after this
TICK_PERIOD_S = 0.1
# speed_tick()'s usual median on the 2-vCPU Xeon VM this benchmark was
# written on; times are reported as they would read at that machine speed.
# A constant: changing it rescales every stored result.
TICK_NOMINAL_S = 1.0e-3

# one thread per worker process: the numeric libraries must not add their own
_SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i ^ (i >> 3)
    return total


def speed_tick() -> float:
    """CPU seconds of a fixed ~1 ms of interpreter work: the core's speed.

    Other tenants of a shared machine slow its cores by up to about 2x, in
    phases of seconds to tens of minutes, and each core by its own amount.
    run.py pins itself and the worker to one core and repeats this tick
    there every TICK_PERIOD_S, in the gaps it takes from the worker (under
    2% of it).  The untimed first pass refills the caches the worker used,
    so the timed pass, which stays in the first-level caches, measures the
    core and not what the worker left in it; tickcheck.py measures how
    little the worker still moves it.
    """
    _spin(2_000)
    t0 = time.thread_time()
    _spin(10_000)
    return time.thread_time() - t0


def run_worker(workload, size, seed, traced, workdir, spans_out=None,
               timeout=TIME_LIMIT_S):
    """Start one worker process and wait for it, sampling the machine speed.

    Returns (t_spawn, result, ticks): ``result`` is the worker's JSON
    report, or None when the process failed; ``ticks`` holds
    (time, speed_tick()) pairs taken while it ran.
    """
    w = WORKLOADS[workload]
    spec = {"seed": seed, "calibrate": w.calibrate,
            "commands": [list(c) for c in w.commands[size]],
            "trace": traced, "spans_out": spans_out and str(spans_out)}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **_SINGLE_THREAD)
    ticks = []
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    while True:
        ticks.append((time.monotonic(), speed_tick()))
        try:
            out, err = proc.communicate(timeout=TICK_PERIOD_S)
            break
        except subprocess.TimeoutExpired:
            if time.monotonic() - t_spawn > timeout:
                proc.kill()
                proc.communicate()
                print(f"worker timed out after {timeout:.0f} s",
                      file=sys.stderr)
                return t_spawn, None, ticks
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return t_spawn, None, ticks
    return t_spawn, json.loads(lines[-1]), ticks


def speed_scale(ticks, t0, t1) -> float:
    """TICK_NOMINAL_S over the median tick in [t0, t1] (all ticks if none)."""
    inside = [d for t, d in ticks if t0 <= t <= t1] or [d for _, d in ticks]
    return TICK_NOMINAL_S / statistics.median(inside)


def output_digest(workdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_info(have_numba) -> dict:
    commit = None
    if (ROOT / ".git").exists():   # never ask a repository above the checkout
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if git.returncode == 0:
                commit = git.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numba_imports": have_numba,
            "git_commit": commit}


def load_reference(path, size, workload):
    """The stored outputs for the default seed, or None when absent."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)[size][workload]
    except (OSError, KeyError, ValueError):
        return None


def _median(values):
    """Median; for counts, the lower middle value, so a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def summarize(name, values, unit):
    q1 = q3 = values[0]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    print(f"  {name:<12} median {statistics.median(values):.6g} {unit}  "
          f"(q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, "
          f"max {max(values):.6g}, n={len(values)})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="tiny runs the same commands on small inputs")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "motlaser" / "cli.py").is_file():
        print(f"error: no motlaser source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # map and scan outputs do not depend on the seed; g2 outputs do
    reference_due = (args.seed == DEFAULT_SEED
                     or args.workload in ("map", "scan"))
    reference = (load_reference(HERE / "references.json", args.size,
                                args.workload)
                 if reference_due else None)

    # the worker inherits this core, so speed_tick() times the worker's core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK_ROOT.mkdir(exist_ok=True)
    spans_out = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
    start = time.monotonic()
    attempted = failed = 0
    first_digest = None
    procs, durations = [], []
    while True:
        traced = bool(args.trace) and len(procs) % 2 == 1
        workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}-{len(procs)}"
        workdir.mkdir()
        try:
            budget = TIME_LIMIT_S - (time.monotonic() - start)
            t_spawn, res, ticks = run_worker(
                args.workload, args.size, args.seed, traced, workdir,
                spans_out if traced else None, timeout=max(budget, 1.0))
            ops, failures, units = checks.check(args.workload, workdir,
                                                reference)
            digest = output_digest(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if reference_due and reference is None:
            ops, failures = ops + 1, failures + ["no reference stored"]
        if res is None:
            ops, failures = ops + 1, failures + ["worker process failed"]
            res = {"exit_codes": []}
        ops += len(res["exit_codes"])
        failures += [f"CLI exit code {rc}" for rc in res["exit_codes"] if rc]
        if first_digest is None:
            first_digest = digest
        else:
            ops += 1
            if digest != first_digest:
                failures.append("output files differ from the run's first "
                                "process" + (" (traced)" if traced else ""))
        if traced:
            ops += 1
            if not res.get("wrappers_removed"):
                failures.append("trace wrappers left installed")
        for msg in dict.fromkeys(failures):
            print(f"FAILED: {msg}", file=sys.stderr)
        attempted += ops
        failed += len(failures)
        if "wall_s" in res:
            t_ready, t_done = res["t_ready"], res["t_ready"] + res["wall_s"]
            setup_scale = speed_scale(ticks, t_spawn, t_ready)
            wall_scale = speed_scale(ticks, t_ready, t_done)
            res.update(traced=traced,
                       raw_setup_s=t_ready - t_spawn, raw_wall_s=res["wall_s"],
                       setup_s=(t_ready - t_spawn) * setup_scale,
                       wall_s=res["wall_s"] * wall_scale)
            res["work_per_s"] = units / res["wall_s"]
            print(f"  process {len(procs)}{' traced' if traced else ''}: "
                  + " ".join(f"{k}={res[k]:.6g}" for k in (
                      "setup_s", "wall_s", "work_per_s", "peak_rss_mb",
                      "raw_setup_s", "raw_wall_s")))
            procs.append(res)
        else:
            break
        durations.append(time.monotonic() - t_spawn)
        plain_n = sum(not p["traced"] for p in procs)
        enough = (plain_n >= MIN_PROCESSES - args.trace
                  and len(procs) - plain_n >= 2 * args.trace)
        # traced and untraced processes alternate: expect the slower of both
        expected = max(durations[-2:])
        elapsed = time.monotonic() - start
        if enough and elapsed + expected > args.seconds:
            break
        if elapsed + 1.5 * expected > TIME_LIMIT_S:
            break

    plain = [p for p in procs if not p["traced"]]
    traced = [p for p in procs if p["traced"]]
    values = {}
    if plain:
        for key in ("setup_s", "wall_s", "work_per_s", "peak_rss_mb"):
            values[key] = statistics.median(p[key] for p in plain)
    if traced:
        for key in traced[0]["layers"]:
            values[key] = _median([p["layers"][key] for p in traced])
        values["cli.import_s"] = statistics.median(p["import_s"]
                                                   for p in traced)
        values["cli.calibrate_s"] = statistics.median(p["calibrate_s"]
                                                      for p in traced)
        values["trace.overhead_s"] = (
            statistics.median(p["raw_wall_s"] for p in traced)
            - statistics.median(p["raw_wall_s"] for p in plain))

    machine = machine_info(procs[0]["have_numba"] if procs else None)
    print(f"workload {args.workload} (size {args.size}), seed {args.seed}, "
          f"{len(plain)} untraced + {len(traced)} traced processes in "
          f"{time.monotonic() - start:.1f} s")
    print("machine: " + json.dumps(machine))
    units = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
             "peak_rss_mb": "MB", "raw_setup_s": "s", "raw_wall_s": "s"}
    for key, unit in units.items():
        if plain:
            summarize(key, [p[key] for p in plain], unit)
    print(f"  {'failed_share':<12} {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")

    correct = failed == 0 and bool(procs)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if correct and missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
