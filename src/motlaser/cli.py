"""Command-line front end.

Subcommands: calibrate, map, threshold, shift-scan, polarization-table,
g2, clicks.  Global flags: --config, --seed, --out, --calibration,
--threads.  Exit codes are a stable contract: 0 success, 2 usage or
configuration error, 3 physics/solver error, 4 integrity error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

# photonstats stays eager: g2 and clicks need it anyway, and importing it
# here keeps its import (and numpy.random's) out of their timed work.  The
# gain layer, with geometry and atomics, loads inside the commands that
# call it.
from . import __version__, photonstats
from .config import (RunConfig, default_config, describe_keys, load_config,
                     parse_quantity, parse_seed)
from .errors import (ConfigError, IntegrityError, PhysicsError,
                     QuantizationAxisError)
from .results import (Indexed, ScanResultTable, parse_metadata,
                      sections_text, write_files)

if TYPE_CHECKING:
    from .gain import CalibrationConstants

_CHANNEL_NAMES = {-1: "sigma-", 0: "pi", 1: "sigma+"}


# ---------------------------------------------------------------------------
# Calibration files
# ---------------------------------------------------------------------------

def _calibration_entries(calib: CalibrationConstants) -> dict:
    return {"gain_scale": repr(calib.gain_scale), "n_sat": repr(calib.n_sat),
            "resonance_offset": repr(calib.resonance_offset)}


def load_calibration(path, cfg: RunConfig) -> CalibrationConstants:
    from .gain import CalibrationConstants
    try:
        with open(path, encoding="utf-8") as fh:
            sections = parse_metadata(fh.read())
    except FileNotFoundError:
        raise IntegrityError(
            f"no calibration file at {path}; run 'motlaser calibrate' first")
    except OSError as exc:
        raise IntegrityError(
            f"cannot read calibration file {path}: {exc.strerror or exc}")
    except ValueError as exc:
        raise IntegrityError(f"unreadable calibration file {path}: {exc}")
    try:
        cal = sections["calibration"]
        stored_hash = sections["provenance"]["config_hash"]
        calib = CalibrationConstants(float(cal["gain_scale"]),
                                     float(cal["n_sat"]),
                                     float(cal["resonance_offset"]))
    except (KeyError, ValueError) as exc:
        raise IntegrityError(f"malformed calibration file {path}: {exc}")
    if stored_hash != cfg.config_hash():
        raise IntegrityError(
            "calibration is stale: the configuration hash changed since "
            "'motlaser calibrate' ran; re-calibrate or restore the config")
    return calib


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _load_cfg(args) -> RunConfig:
    # config parsing checks every key's domain bound, so a bad value is a
    # configuration error before any command builds a domain object
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _config_snapshot(cfg: RunConfig) -> dict:
    return dict(line.split(" = ", 1) for line in cfg.canonical_lines())


def _base_metadata(cfg: RunConfig, command: str, options: dict) -> dict:
    run = {"command": command, "version": __version__, "seed": cfg.seed()}
    run.update(options)
    return {"run": run, "config": _config_snapshot(cfg)}


def _attach_calibration(meta: dict, calib: CalibrationConstants,
                        cfg: RunConfig) -> None:
    meta["calibration"] = {**_calibration_entries(calib),
                           "config_hash": cfg.config_hash()}


@contextmanager
def _output(path):
    """A failed output write is a usage error (exit 2), not a crash."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or path}: "
                          f"{exc.strerror or exc}") from None


def _write_table(table: ScanResultTable, out) -> None:
    with _output(out):
        table.write(out, out + ".meta.txt")


def _check_writable(*paths) -> None:
    """Refuse, before any work, output paths whose directory is missing or
    that name a directory; creates nothing."""
    for path in paths:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            code = errno.ENOENT
        elif os.path.isdir(path):
            code = errno.EISDIR
        elif not os.access(directory, os.W_OK | os.X_OK):
            code = errno.EACCES
        else:
            continue
        raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


# The most cells of a map, or points of a threshold or shift scan: each
# becomes a Python row of the table, about a kilobyte with its CSV text.
MAX_POINTS = 10**6


def _check_points(what: str, count: float) -> None:
    if not count <= MAX_POINTS:
        raise ConfigError(f"too many {what}: {count:.3g}, above the cap of "
                          f"{MAX_POINTS:.0e}")


def _range_size(lo, hi, step) -> float:
    """Points in lo, lo + step, ... <= hi, as a float: a huge count is
    checked against the cap before anything is allocated."""
    if step <= 0:
        raise ConfigError("step must be positive")
    if hi < lo:
        raise ConfigError(f"reversed range: max {hi!r} is below min {lo!r}")
    return float(np.floor((hi - lo) / step + 1e-9)) + 1


def _range_values(lo, step, size: float):
    return lo + step * np.arange(int(size))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    from . import gain
    cfg = _load_cfg(args)
    calib = gain.calibrate(cfg.system(), cfg.operating_point())
    provenance = {"version": __version__, "config_hash": cfg.config_hash(),
                  "reference_atoms": gain.REFERENCE_ATOMS,
                  "reference_photons": gain.REFERENCE_PHOTONS,
                  "reference_pump_power": gain.REFERENCE_PUMP_POWER}
    # the calibration file has the sidecar format
    sections = {"calibration": _calibration_entries(calib),
                "provenance": provenance, "config": _config_snapshot(cfg)}
    out = args.out or "calibration.txt"
    with _output(out):
        write_files((out, sections_text(sections).encode()))
    print(f"calibration written to {out}: gain_scale={calib.gain_scale:.6g} "
          f"n_sat={calib.n_sat:.6g}")
    return 0


def _map_power_columns(result, families) -> list:
    """Total and per-family power, row-major; NaN (an empty cell) where a
    cell failed."""
    return [np.where(result.ok, power, np.nan).ravel()
            for power in [result.total_power]
            + [result.family_powers[n] for n in families]]


def _lasing_labels(result, families) -> Indexed:
    """Each cell's lasing families joined by ';', "" where a cell failed.

    The per-family masks become one bit code per cell; each code that
    occurs is labelled once, and the column holds those labels with the
    cells' indices into them.
    """
    dtype = np.int64 if len(families) < 63 else object
    code = np.zeros(result.ok.size, dtype)
    for bit, n in enumerate(families):
        code |= (result.family_lasing[n] & result.ok).ravel().astype(dtype) \
            << bit
    codes, index = np.unique(code, return_inverse=True)
    return Indexed([";".join(str(n) for bit, n in enumerate(families)
                             if int(c) >> bit & 1) for c in codes], index)


def cmd_map(args) -> int:
    from . import gain
    cfg = _load_cfg(args)
    system = cfg.system()
    calib = load_calibration(args.calibration, cfg)
    n_pump = _range_size(args.pump_min, args.pump_max, args.pump_step)
    n_cav = _range_size(args.cavity_min, args.cavity_max, args.cavity_step)
    _check_points("map cells", n_pump * n_cav)
    pump = _range_values(args.pump_min, args.pump_step, n_pump)
    cav = _range_values(args.cavity_min, args.cavity_step, n_cav)
    families = cfg.families()
    table = ScanResultTable(
        ["pump_detuning_hz", "cavity_detuning_hz", "power_w"]
        + [f"power_tem{n}_w" for n in families] + ["lasing_families"])
    if pump.size and cav.size:
        result = gain.detuning_map(cfg.operating_point(), system, calib,
                                   pump, cav, families)
        # row-major cells: pump outer, cavity inner
        pump_at, cav_at = np.divmod(np.arange(pump.size * cav.size), cav.size)
        table.set_columns(Indexed(pump, pump_at), Indexed(cav, cav_at),
                          *_map_power_columns(result, families),
                          _lasing_labels(result, families))
    meta = _base_metadata(cfg, "map", {
        "pump_min": repr(args.pump_min), "pump_max": repr(args.pump_max),
        "pump_step": repr(args.pump_step),
        "cavity_min": repr(args.cavity_min),
        "cavity_max": repr(args.cavity_max),
        "cavity_step": repr(args.cavity_step)})
    _attach_calibration(meta, calib, cfg)
    table.metadata = meta
    out = args.out or "map.csv"
    _write_table(table, out)
    print(f"map written to {out} ({len(table.rows)} cells)")
    return 0


def cmd_threshold(args) -> int:
    from . import gain
    if args.min < 0:
        raise ConfigError("threshold scan needs min >= 0")
    if args.max <= args.min:
        raise ConfigError("threshold scan needs max > min")
    if args.points < 1:
        raise ConfigError("threshold scan needs --points >= 1")
    _check_points("threshold scan points", args.points)
    cfg = _load_cfg(args)
    system = cfg.system()
    calib = load_calibration(args.calibration, cfg)
    op = cfg.operating_point()
    families = cfg.families()
    xs = np.linspace(args.min, args.max, args.points)
    vary = "atoms" if args.vary == "atoms" else "pump_power"
    sol = gain.threshold_scan(vary, xs, op, families, system, calib)
    powers = {n: gain.output_power(sol.photons[n], system.cavity,
                                   system.green.wavelength)
              for n in families}
    table = ScanResultTable(
        [args.vary, "power_w"] + [f"power_tem{n}_w" for n in families])
    # the integer start keeps the integer 0 of an empty family list
    table.set_columns(xs, sum(powers.values(), np.zeros(xs.size, int)),
                      *[powers[n] for n in families])
    reasons = {n: gain.threshold_reason(sol.thresholds[n], args.min,
                                        args.max) for n in families}
    meta = _base_metadata(cfg, "threshold", {
        "vary": args.vary, "min": repr(args.min), "max": repr(args.max),
        "points": args.points})
    _attach_calibration(meta, calib, cfg)
    meta["thresholds"] = {f"tem{n}": "" if r else repr(sol.thresholds[n])
                          for n, r in reasons.items()}
    meta["threshold_reasons"] = {f"tem{n}": r for n, r in reasons.items()}
    table.metadata = meta
    out = args.out or "threshold.csv"
    _write_table(table, out)
    print(f"threshold scan written to {out}; thresholds: " + ", ".join(
        f"TEM{n}: {r or format(sol.thresholds[n], '.6g')}"
        for n, r in reasons.items()))
    return 0


# model and measured Zeeman slopes; the gap is attributed to light shifts
# and cavity pulling in the apparatus and is reported, not fitted away.
MEASURED_ZEEMAN_SLOPE_HZ_PER_G = 1.6e6


def cmd_shift_scan(args) -> int:
    from . import gain
    cfg = _load_cfg(args)
    system = cfg.system()
    calib = load_calibration(args.calibration, cfg)
    op = cfg.operating_point()
    size = _range_size(args.min, args.max, args.step)
    if size < 2:
        raise ConfigError("shift scan needs at least two points "
                          "(empty or degenerate range)")
    _check_points("shift scan points", size)
    xs = _range_values(args.min, args.step, size)
    vary = "b_offset_magnitude" if args.vary == "b_offset" else "mot_detuning"
    scan = gain.optimum_scan(vary, xs, op, system, calib,
                             family=(cfg.families() or (0,))[0])
    unit = "hz_per_gauss" if vary == "b_offset_magnitude" else "hz_per_hz"
    table = ScanResultTable([args.vary, "pump_opt_hz", "cavity_opt_hz"])
    table.set_columns(*zip(*((p.x, p.pump_opt, p.cavity_opt)
                             for p in scan.points)))
    meta = _base_metadata(cfg, "shift-scan", {
        "vary": args.vary, "min": repr(args.min), "max": repr(args.max),
        "step": repr(args.step)})
    _attach_calibration(meta, calib, cfg)
    fit = {"slope_" + unit: repr(scan.slope), "intercept_hz":
           "" if scan.intercept is None else repr(scan.intercept)}
    if vary == "b_offset_magnitude":
        fit["measured_slope_hz_per_gauss"] = repr(MEASURED_ZEEMAN_SLOPE_HZ_PER_G)
        fit["note"] = ("model slope follows the Lande factor; the measured "
                       "value is smaller (light shifts / cavity pulling)")
    table.metadata = meta
    meta["fit"] = fit
    out = args.out or "shift_scan.csv"
    _write_table(table, out)
    print(f"shift scan written to {out}; slope = {scan.slope:.6g} {unit}")
    if vary == "b_offset_magnitude":
        print(f"  measured reference slope: "
              f"{MEASURED_ZEEMAN_SLOPE_HZ_PER_G:.3g} Hz/G "
              f"(model/experiment gap is expected and documented)")
    return 0


_TABLE_ROWS = (
    ("+x", (1.0, 0.0, 0.0), "0deg", (0.0,)),
    ("+x", (1.0, 0.0, 0.0), "90deg", (90.0,)),
    ("+z", (0.0, 0.0, 1.0), "0-90deg", (0.0, 30.0, 60.0, 90.0)),
    ("+y", (0.0, 1.0, 0.0), "0deg", (0.0,)),
    ("+y", (0.0, 1.0, 0.0), "90deg", (90.0,)),
)


def render_polarization_table(cfg: RunConfig, extra_b=()) -> str:
    from . import gain, geometry
    rows = list(_TABLE_ROWS)
    for vec in extra_b:
        rows.append((f"({vec[0]:g},{vec[1]:g},{vec[2]:g})", tuple(vec),
                     "0deg", (0.0,)))
        rows.append((f"({vec[0]:g},{vec[1]:g},{vec[2]:g})", tuple(vec),
                     "90deg", (90.0,)))
    lines = [f"{'B-field':<10}{'pump pol':<10}{'excited':<18}cavity output",
             f"{'-------':<10}{'--------':<10}{'-------':<18}-------------"]
    for b_label, b_vec, pol_label, angles in rows:
        entries = None
        for angle in angles:
            weights = geometry.pump_excitation_weights(
                geometry.jones_linear(angle), np.asarray(b_vec))
            excited, outputs = [], []
            for m, w in zip(gain.SUBLEVELS, weights):
                if w < 1e-9:
                    continue
                excited.append(_CHANNEL_NAMES[m])
                label, strength = geometry.cavity_emission_jones(
                    m, np.asarray(b_vec))
                outputs.append("---" if strength < 1e-9 else str(label))
            this = (tuple(excited), tuple(outputs))
            if entries is None:
                entries = this
            elif entries != this:
                raise PhysicsError(
                    f"selection rules vary across {pol_label} at B {b_label}")
        # a label wider than its column still ends in a space
        lines.append(f"{b_label:<9} {pol_label:<10}"
                     f"{' '.join(entries[0]):<18}{' '.join(entries[1])}")
    return "\n".join(lines) + "\n"


def cmd_polarization_table(args) -> int:
    cfg = _load_cfg(args)
    extra = []
    for field_text in args.extra_b or []:
        try:
            parts = [float(tok) for tok in field_text.split(",")]
            if len(parts) != 3:
                raise ValueError
        except ValueError:
            raise ConfigError(
                f"--extra-b expects X,Y,Z, got {field_text!r}") from None
        if not all(map(math.isfinite, parts)):
            raise ConfigError(
                f"--extra-b components must be finite, got {field_text!r}")
        if not any(parts):
            raise QuantizationAxisError(
                "quantization axis undefined: --extra-b field is zero")
        extra.append(parts)
    text = render_polarization_table(cfg, extra)
    if args.out:
        with _output(args.out):
            write_files((args.out, text.encode()))
        print(f"selection-rule table written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _resolve_tau_c(args, cfg: RunConfig) -> float:
    if args.tau_c is not None:
        return args.tau_c
    if args.washout_g2 is not None:
        return photonstats.invert_washout(args.washout_g2, args.bin)
    calib = load_calibration(args.calibration, cfg)
    from . import gain
    system = cfg.system()
    g0 = gain.mode_gain(cfg.operating_point(), 0, system, calib)
    kappa = system.cavity.kappa
    if g0 >= kappa:
        raise PhysicsError(
            "operating point is above threshold: the below-threshold "
            "coherence time 2/(kappa - G) is undefined; lower the pump or "
            "atom number, or pass --tau-c / --washout-g2")
    # kappa is the energy decay rate: the amplified field decays at
    # (kappa - G)/2, so g2 = 1 + exp(-(kappa - G)|tau|), which is
    # 1 + exp(-2|tau|/tau_c) at tau_c = 2/(kappa - G)
    return float(2.0 / (kappa - g0))


def _sample_period(regime: str, tau_c, duration: float) -> float:
    # a tenth of the coherence time for thermal light, else at most 1 ms
    return tau_c / 10.0 if regime == "thermal" else min(1e-3, duration / 100.0)


def _click_streams(args, cfg: RunConfig, regime: str, tau_c, period: float,
                   paths, write, need_clicks: bool = False) -> tuple:
    """The two click streams of one synthesis sampled every ``period``
    (see :func:`_sample_period`), each written to its path of ``paths`` by
    ``write``, and what each write returned; ``need_clicks`` refuses an
    empty stream before anything is written."""
    seed = cfg.seed()
    trace = photonstats.simulate_intensity(
        regime, args.rate, tau_c or 0.0, args.duration, sample_period=period,
        seed=seed, laser_ripple=cfg["laser_ripple"])
    streams = photonstats.poissonize(trace, (seed + 1) % 2**64)
    # the trace is the largest array of the run; nothing after needs it
    del trace
    empty = [s.detector_id for s in streams if s.timestamps.size == 0]
    if need_clicks and empty:
        raise PhysicsError(
            f"detector {empty[0]} recorded no clicks in {args.duration:g} s "
            f"at {args.rate:g} clicks/s: no pairs to correlate; raise --rate "
            f"or --duration")
    stored = []
    for stream, path in zip(streams, paths):
        with _output(path):
            stored.append(write(stream, path))
    return streams, stored


def cmd_g2(args) -> int:
    # options that would change no output are refused
    if args.regime == "above" and {args.tau_c, args.washout_g2} != {None}:
        raise ConfigError("--tau-c and --washout-g2 need --regime below")
    if args.washout_g2 is not None and not 1.0 < args.washout_g2 < 2.0:
        raise ConfigError("--washout-g2 must be strictly between 1 and 2")
    cfg = _load_cfg(args)
    out = args.out or "g2.csv"
    clicks_paths = ([f"{args.emit_clicks}_{tag}.clks"
                     for tag in ("det0", "det1")] if args.emit_clicks else [])
    # fail before the synthesis, not after it
    _check_writable(out, out + ".meta.txt", *clicks_paths)
    regime = "thermal" if args.regime == "below" else "laser"
    tau_c = _resolve_tau_c(args, cfg) if regime == "thermal" else None
    # the correlator's window, checked before any synthesis against the
    # duration the trace will have
    period = _sample_period(regime, tau_c, args.duration)
    samples = photonstats.trace_samples(args.duration, period)
    try:
        kmax = photonstats.lag_window(period * samples, args.bin,
                                      args.max_lag)
    except ValueError as exc:
        raise ConfigError(f"g2 window: {exc}") from None
    _check_points("g2 lags", 2 * kmax + 1)
    (det_a, det_b), _ = _click_streams(args, cfg, regime, tau_c, period,
                                       clicks_paths,
                                       photonstats.write_clickstream,
                                       need_clicks=True)
    result = photonstats.g2_cross(det_a, det_b, args.bin, args.max_lag,
                                  shards=args.threads)
    table = ScanResultTable(["lag_s", "g2", "sigma", "pairs"])
    table.set_columns(result.lags, result.g2, result.sigma, result.counts)
    meta = _base_metadata(cfg, "g2", {
        "regime": args.regime, "duration": repr(args.duration),
        "rate": repr(args.rate), "bin": repr(args.bin),
        "max_lag": repr(args.max_lag),
        "tau_c": "" if tau_c is None else repr(tau_c)})
    meta["result"] = {"total_pairs": result.total_pairs,
                      "counts_det0": det_a.timestamps.size,
                      "counts_det1": det_b.timestamps.size}
    table.metadata = meta
    _write_table(table, out)
    print(f"g2 written to {out}; zero-lag g2 = "
          f"{result.g2[result.lags.size // 2]:.4f}")
    return 0


def cmd_clicks(args) -> int:
    if args.regime != "thermal" and args.tau_c is not None:
        raise ConfigError("--tau-c needs --regime thermal")
    cfg = _load_cfg(args)
    out = args.out or "clicks_summary.csv"
    suffix = "clks" if args.format == "bin" else "txt"
    paths = [f"{args.prefix}_{tag}.{suffix}" for tag in ("det0", "det1")]
    # fail before the synthesis, not after it
    _check_writable(out, out + ".meta.txt", *paths)
    # thermal light's coherence time; --tau-c is refused for the others
    tau_c = 100e-6 if args.regime == "thermal" and args.tau_c is None \
        else args.tau_c
    write = photonstats.write_clickstream if args.format == "bin" \
        else photonstats.write_clickstream_text
    _, counts = _click_streams(
        args, cfg, args.regime, tau_c,
        _sample_period(args.regime, tau_c, args.duration), paths, write)
    table = ScanResultTable(["detector", "path", "clicks"])
    table.set_columns(range(len(paths)), paths, counts)
    table.metadata = _base_metadata(cfg, "clicks", {
        "regime": args.regime, "rate": repr(args.rate),
        "duration": repr(args.duration),
        "tau_c": "" if tau_c is None else repr(tau_c), "format": args.format})
    _write_table(table, out)
    print(f"click streams written: "
          + ", ".join(f"{p} ({c})" for p, c in zip(paths, counts)))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _option(parse):
    """argparse type from a config parser: its ConfigError is a usage error."""
    def convert(text):
        try:
            return parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


_quantity = _option(parse_quantity)


@_option
def _shards(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise ConfigError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motlaser",
        description="Simulation of continuous-wave lasing from a trapped "
                    "cold-atom cloud inside a high-finesse cavity.",
        epilog="Configuration keys:\n" + describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="configuration file (key = value)")
    parser.add_argument("--seed", type=_option(parse_seed), default=None,
                        help="override the configured seed")
    parser.add_argument("--out", help="output path (per-command default)")
    parser.add_argument("--calibration", default="calibration.txt",
                        help="calibration file path")
    parser.add_argument("--threads", type=_shards, default=1,
                        help="number of g2 correlation shards, at least 1; "
                             "they run serially and the output is identical "
                             "for any value")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="anchor gain_scale and n_sat")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("map", help="output power vs pump and cavity detuning")
    p.add_argument("--pump-min", type=_quantity, default=-10e6)
    p.add_argument("--pump-max", type=_quantity, default=10e6)
    p.add_argument("--pump-step", type=_quantity, default=1e6)
    p.add_argument("--cavity-min", type=_quantity, default=-60e6)
    p.add_argument("--cavity-max", type=_quantity, default=0.0)
    p.add_argument("--cavity-step", type=_quantity, default=1e6)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("threshold", help="output power vs atoms or pump power")
    p.add_argument("--vary", choices=("atoms", "pump"), required=True)
    p.add_argument("--min", type=_quantity, required=True)
    p.add_argument("--max", type=_quantity, required=True)
    p.add_argument("--points", type=int, default=40)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("shift-scan",
                       help="optimum detunings vs field or trap detuning")
    p.add_argument("--vary", choices=("b_offset", "mot_detuning"),
                   required=True)
    p.add_argument("--min", type=_quantity, required=True)
    p.add_argument("--max", type=_quantity, required=True)
    p.add_argument("--step", type=_quantity, required=True)
    p.set_defaults(func=cmd_shift_scan)

    p = sub.add_parser("polarization-table",
                       help="selection rules for field/polarization settings")
    p.add_argument("--extra-b", action="append", metavar="X,Y,Z",
                   help="append rows for a custom field direction")
    p.set_defaults(func=cmd_polarization_table)

    p = sub.add_parser("g2", help="synthesize and correlate photon clicks")
    p.add_argument("--regime", choices=("below", "above"), required=True)
    p.add_argument("--duration", type=_quantity, required=True)
    p.add_argument("--rate", type=_quantity, required=True,
                   help="total detected rate, counts/s")
    p.add_argument("--bin", type=_quantity, required=True)
    p.add_argument("--max-lag", type=_quantity, required=True)
    tau = p.add_mutually_exclusive_group()
    tau.add_argument("--tau-c", type=_quantity, default=None,
                     help="override the below-threshold coherence time")
    tau.add_argument("--washout-g2", type=float, default=None,
                     help="set tau_c by inverting the bin-washout prediction")
    p.add_argument("--emit-clicks", metavar="PREFIX",
                   help="also store the raw click streams")
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("clicks", help="export raw click streams")
    p.add_argument("--regime", choices=photonstats.REGIMES, required=True)
    p.add_argument("--rate", type=_quantity, required=True)
    p.add_argument("--duration", type=_quantity, required=True)
    p.add_argument("--tau-c", type=_quantity, default=None)
    p.add_argument("--format", choices=("bin", "txt"), default="bin")
    p.add_argument("--prefix", default="clicks")
    p.set_defaults(func=cmd_clicks)
    return parser


# A parser keeps no state between parse_args calls, and building this one
# costs about 2 ms, so a process that runs main() repeatedly builds it once.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PhysicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
