"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about two minutes:

1. every workload at the tiny size, untraced and traced, exits 0 with a
   correct result and exactly the metrics BENCHMARK.json lists;
2. the tracer's wrappers replace every target and are all removed again;
3. a reference that the outputs do not match makes the command exit
   non-zero with ``"correct": false``;
4. in a directory holding only BENCHMARK.json and this directory, the
   command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"

problems = []


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        problems.append(message)


def bench(*args, cwd=ROOT, run_py=HERE / "run.py", must_fail=False):
    """Run the benchmark command; returns (exit code, parsed last line)."""
    proc = subprocess.run([sys.executable, str(run_py), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode and not must_fail:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, result


def check_workloads(spec):
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, res = bench("--workload", w["name"], "--seed", "1",
                            "--seconds", "1", "--trace", str(trace),
                            "--size", "tiny")
            label = f"{w['name']} tiny trace={trace}"
            expect(rc == 0 and res is not None and res["correct"]
                   and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{label}: exit 0, correct, no failed operation")
            expect(res is not None and list(res["metrics"]) == names[trace],
                   f"{label}: reports exactly BENCHMARK.json's metrics")
            if res and trace and w["name"] == "map":
                m = {k: v["value"] for k, v in res["metrics"].items()}
                expect(m["gain.mode_gain.calls"] == 4 * m["results.rows"]
                       and m["geometry.cavity_emission_jones.calls"]
                       == 12 * m["results.rows"],
                       f"{label}: one mode_gain per cell and family, three "
                       "emission calls per mode_gain")


def check_wrappers_removed():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layertrace
    from motlaser import atomics

    originals = [getattr(o, a) for o, a, _, _ in layertrace.TARGETS]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        replaced = all(getattr(o, a) is not orig for (o, a, _, _), orig
                       in zip(layertrace.TARGETS, originals))
        atomics.zeeman_shift(1.5, 1, 2.0)
    finally:
        removed = tracer.restore()
    expect(replaced and [s[0] for s in tracer.spans]
           == ["atomics.zeeman_shift"],
           "install() wraps every target and a wrapped call makes one span")
    expect(removed and all(getattr(o, a) is orig for (o, a, _, _), orig
                           in zip(layertrace.TARGETS, originals)),
           "restore() puts every original back")


def copy_tree(dest: Path, with_source: bool) -> Path:
    """A scratch checkout: BENCHMARK.json, this directory and, optionally,
    src/.  Returns the copy of run.py."""
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / HERE.name, ignore=skip)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest / HERE.name / "run.py"


def check_failed_reference():
    tree = WORK / "tampered"
    run_py = copy_tree(tree, with_source=True)
    refs_path = run_py.parent / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["tiny"]["map"]["ints"]["cells"] += 1
    refs_path.write_text(json.dumps(refs))
    rc, res = bench("--workload", "map", "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--size", "tiny", cwd=tree,
                    run_py=run_py, must_fail=True)
    expect(rc != 0 and res is not None and not res["correct"]
           and res["failed"] >= 1,
           "a failed correctness check gives a non-zero exit and "
           "correct=false")


def check_without_source():
    bare = WORK / "bare"
    rc, res = bench("--workload", "map", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare,
                    run_py=copy_tree(bare, with_source=False), must_fail=True)
    expect(rc != 0 and res is None,
           "without the source tree: non-zero exit and no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        check_workloads(spec)
        check_wrappers_removed()
        check_failed_reference()
        check_without_source()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
