"""Does speed_tick() move with the worker's own load?

    python3 perfbench/tickcheck.py --rounds 10    # about a minute per round

run.py divides each time by the median speed_tick() taken on the worker's
own core, in short gaps taken from the worker.  That removes the other
tenants' slowdowns only if what the worker leaves in the core's caches
does not move the tick.  This script pins itself to one core, as run.py
does, and runs the tick there beside three synthetic loads (a 128 MB memory
stream, random reads from a 32 MB array, pure interpreter work) and beside
each workload's full-size worker, with an idle interval before and after
each.  It prints, per load, the median tick under load over the median
tick of the two idle intervals around it, and the median and quartiles of
that ratio over the rounds.  A ratio of 1 means the load does not move the
tick.  Pairing each load with its own idle intervals cancels the slow
phases of other tenants.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import time

import run
from workloads import DEFAULT_SEED, WORKLOADS

SYNTHETIC = {
    "mem-stream": "import numpy as np\n"
                  "a = np.ones(16_000_000); b = np.empty_like(a)\n"
                  "while True: np.copyto(b, a)",
    "llc-random": "import numpy as np\n"
                  "r = np.random.default_rng(0); a = r.random(4_000_000)\n"
                  "i = r.integers(0, a.size, 1_000_000)\n"
                  "while True: a.take(i)",
    "interpreter": "t = 0\n"
                   "while True:\n"
                   "    for i in range(100_000): t += i",
}
BLOCK_S = 3.0


def ticks_while(busy) -> list:
    """speed_tick() every TICK_PERIOD_S, as run.py takes it, while busy()."""
    ticks = []
    while busy():
        ticks.append(run.speed_tick())
        time.sleep(run.TICK_PERIOD_S)
    return ticks


def idle_block() -> list:
    t_end = time.monotonic() + BLOCK_S
    return ticks_while(lambda: time.monotonic() < t_end)


def synthetic_block(code) -> list:
    proc = subprocess.Popen([sys.executable, "-c", code],
                            env=dict(os.environ, **run._SINGLE_THREAD))
    try:
        time.sleep(0.3)          # past the load's own start-up
        return idle_block()
    finally:
        proc.kill()
        proc.wait()


def workload_block(name) -> list:
    workdir = run.WORK_ROOT / f"tickcheck-{name}"
    workdir.mkdir(parents=True)
    try:
        _, res, ticks = run.run_worker(name, "full", DEFAULT_SEED, False,
                                       workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res is None:
        raise SystemExit(f"worker for {name} failed")
    return [d for _, d in ticks]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=8)
    args = ap.parse_args(argv)
    # the loads inherit this core, as run.py's workers do
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    loads = [*SYNTHETIC, *WORKLOADS]
    ratios = {name: [] for name in loads}
    for rnd in range(args.rounds):
        before = idle_block()
        for name in loads:
            loaded = (synthetic_block(SYNTHETIC[name]) if name in SYNTHETIC
                      else workload_block(name))
            after = idle_block()
            ratio = (statistics.median(loaded)
                     / statistics.median(before + after))
            ratios[name].append(ratio)
            print(f"round {rnd} {name:<12} loaded/idle {ratio:.3f} "
                  f"(idle median {1e3 * statistics.median(after):.3f} ms)",
                  flush=True)
            before = after
    print("loaded/idle tick median over rounds:")
    for name, values in ratios.items():
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else values * 3)
        print(f"  {name:<12} median {statistics.median(values):.3f} "
              f"(q1 {q1:.3f}, q3 {q3:.3f}, n={len(values)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
