"""One benchmark process: interpreter start, CLI import, set-up, workload.

run.py starts this script in a fresh interpreter, in an empty work
directory, with the repository's ``src`` on PYTHONPATH, one process at a
time.  Its single argument is a JSON object::

    {"seed": 7, "calibrate": true, "commands": [["map"]],
     "trace": false, "spans_out": null}

The CLI import comes first, so that the time from process start to the
end of set-up is what a user of the CLI pays.  The last line on stdout is
a JSON object with the timings, the CLI exit codes and ``ru_maxrss``.
"""

import sys
import time

_t_import = time.monotonic()
import motlaser.cli as cli  # noqa: E402
_t_imported = time.monotonic()

import json  # noqa: E402  (already loaded by the CLI's imports)
import resource  # noqa: E402
import traceback  # noqa: E402

from workloads import cli_argv  # noqa: E402


def run_cli(argv) -> int:
    """One CLI invocation; its exit code, as the console script would give."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()

    def invoke(command):
        argv = cli_argv(spec["seed"], command)
        if tracer is None:
            return run_cli(argv)
        return tracer.span("cli.main", run_cli, argv)

    exit_codes = []
    calibrate_s = 0.0
    if spec["calibrate"]:
        t0 = time.monotonic()
        exit_codes.append(invoke(["calibrate"]))
        calibrate_s = time.monotonic() - t0
    t_ready = tracer.start_workload() if tracer else time.monotonic()
    for command in spec["commands"]:
        exit_codes.append(invoke(command))
    t_done = time.monotonic()
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    out = {"t_ready": t_ready, "wall_s": t_done - t_ready,
           "import_s": _t_imported - _t_import, "calibrate_s": calibrate_s,
           "exit_codes": exit_codes, "peak_rss_mb": peak_rss_mb,
           "have_numba": bool(cli.photonstats._HAVE_NUMBA)}
    if tracer is not None:
        out["wrappers_removed"] = tracer.restore()
        out["layers"] = tracer.layer_metrics(t_ready)
        if spec["spans_out"]:
            tracer.dump(spec["spans_out"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
