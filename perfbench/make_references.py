"""Regenerate references.json: each workload's outputs at the default seed.

    python3 perfbench/make_references.py

Runs every workload once per size through the same worker as run.py and
stores the integer and float outputs that checks.py compares.  Run it only
when a change to the program is meant to change these outputs, and say so
in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
from run import HERE, WORK_ROOT, machine_info, run_worker
from workloads import DEFAULT_SEED, SIZES, WORKLOADS


def main() -> int:
    WORK_ROOT.mkdir(exist_ok=True)
    refs = {"seed": DEFAULT_SEED, "float_rel_tol": checks.FLOAT_REL_TOL}
    have_numba = None
    for size in SIZES:
        refs[size] = {}
        for name in WORKLOADS:
            workdir = WORK_ROOT / f"reference-{size}-{name}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            try:
                _, res, _ = run_worker(name, size, DEFAULT_SEED, False, workdir)
                if res is None or any(res["exit_codes"]):
                    print(f"error: {name} ({size}) failed", file=sys.stderr)
                    return 1
                have_numba = res["have_numba"]
                ints, floats, _, _ = checks.facts(name, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            refs[size][name] = {"ints": ints, "floats": floats}
            print(f"{name} ({size}): {len(ints)} integer and "
                  f"{len(floats)} float outputs")
    refs["machine"] = machine_info(have_numba)
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
