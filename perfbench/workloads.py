"""The benchmark's workloads: which CLI commands each one runs, at which size.

Every workload runs through the public CLI entry point
``motlaser.cli.main`` with ``--threads 1``; the workload seed reaches the
program only through the CLI's ``--seed`` flag.  ``full`` is the measured
size; ``tiny`` is the same command shape, small enough for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass

# The CLI's own default seed; references.json holds the outputs for it.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    calibrate: bool          # run `calibrate` during set-up
    commands: dict           # size -> tuple of CLI argument lists


_G2_DENSE = ["g2", "--regime", "above", "--rate", "500kHz",
             "--bin", "2.6us", "--max-lag", "1ms"]
_G2_SPARSE = ["g2", "--regime", "below", "--tau-c", "3us", "--bin", "1ns",
              "--max-lag", "26us", "--rate", "200kHz",
              "--emit-clicks", "clicks"]
_SHIFT_SCAN = ["shift-scan", "--vary", "b_offset", "--min", "1.5",
               "--step", "1"]
_THRESHOLD = ["threshold", "--vary", "pump", "--min", "1uW", "--max", "1mW"]

WORKLOADS = {
    # Default 21 x 61 grid, families 0/37/74/111: 1281 independent cells.
    "map": Workload(True, {
        "full": (["map"],),
        "tiny": (["map", "--pump-min=-6MHz", "--pump-max=6MHz",
                  "--cavity-min=-44MHz", "--cavity-max=-26MHz",
                  "--cavity-step=2MHz"],),
    }),
    # Criterion-4 Zeeman scan (4 points) plus a 40-point pump threshold scan.
    "scan": Workload(True, {
        "full": (_SHIFT_SCAN + ["--max", "4.5"], _THRESHOLD),
        "tiny": (_SHIFT_SCAN + ["--max", "2.5"],
                 _THRESHOLD + ["--points", "5"]),
    }),
    # Criterion 9's shape: 500 kHz, 2.6 us bins, +-1 ms window (771 lags).
    "g2-dense": Workload(False, {
        "full": (_G2_DENSE + ["--duration", "2s"],),
        "tiny": (_G2_DENSE + ["--duration", "0.1s"],),
    }),
    # 1 ns bins, 52001 lags: few pairs per lag, large synthesis and table.
    "g2-sparse": Workload(False, {
        "full": (_G2_SPARSE + ["--duration", "2s"],),
        "tiny": (_G2_SPARSE + ["--duration", "0.1s"],),
    }),
}

SIZES = ("full", "tiny")


def cli_argv(seed: int, command) -> list:
    """Global flags first, then the subcommand, as the CLI expects."""
    return ["--seed", str(seed), "--threads", "1", *command]
