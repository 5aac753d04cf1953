"""Command-line front end.

Subcommands: calibrate, map, threshold, shift-scan, polarization-table,
g2, clicks.  Global flags: --config, --seed, --out, --calibration,
--threads.  Exit codes are a stable contract: 0 success, 2 usage or
configuration error, 3 physics/solver error, 4 integrity error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import __version__, gain, geometry, photonstats
from .config import (RunConfig, default_config, describe_keys, load_config,
                     parse_quantity)
from .errors import (ConfigError, IntegrityError, MotlaserError, PhysicsError,
                     QuantizationAxisError)
from .gain import CalibrationConstants
from .results import ScanResultTable, parse_metadata

_CHANNEL_NAMES = {-1: "sigma-", 0: "pi", 1: "sigma+"}


# ---------------------------------------------------------------------------
# Calibration files
# ---------------------------------------------------------------------------

def write_calibration(path, calib: CalibrationConstants, cfg: RunConfig,
                      anchors: dict) -> None:
    lines = ["[calibration]",
             f"gain_scale = {calib.gain_scale!r}",
             f"n_sat = {calib.n_sat!r}",
             f"resonance_offset = {calib.resonance_offset!r}",
             "",
             "[provenance]",
             f"version = {__version__}",
             f"config_hash = {cfg.config_hash()}"]
    lines += [f"{key} = {value!r}" for key, value in anchors.items()]
    lines += ["", "[config]"]
    lines += cfg.canonical_lines()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_calibration(path, cfg: RunConfig) -> CalibrationConstants:
    try:
        with open(path, encoding="utf-8") as fh:
            sections = parse_metadata(fh.read())
    except FileNotFoundError:
        raise IntegrityError(
            f"no calibration file at {path}; run 'motlaser calibrate' first")
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
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    # the domain objects check their own ranges; a value they reject is a
    # configuration error, not a crash
    try:
        cfg.system()
        cfg.operating_point()
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return cfg


def _base_metadata(cfg: RunConfig, command: str, options: dict) -> dict:
    run = {"command": command, "version": __version__, "seed": cfg.seed()}
    run.update(options)
    snapshot = {}
    for line in cfg.canonical_lines():
        key, value = line.split(" = ", 1)
        snapshot[key] = value
    return {"run": run, "config": snapshot}


def _attach_calibration(meta: dict, calib: CalibrationConstants,
                        cfg: RunConfig) -> None:
    meta["calibration"] = {
        "gain_scale": repr(calib.gain_scale),
        "n_sat": repr(calib.n_sat),
        "resonance_offset": repr(calib.resonance_offset),
        "config_hash": cfg.config_hash(),
    }


def _range_values(lo, hi, step):
    if step <= 0:
        raise ConfigError("step must be positive")
    n = int(np.floor((hi - lo) / step + 1e-9)) + 1
    if n < 1:
        return np.array([])
    return lo + step * np.arange(n)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    cfg = _load_cfg(args)
    system = cfg.system()
    anchors = {"reference_atoms": 5000.0, "reference_photons": 6e5,
               "reference_pump_power": 4e-3}
    calib = gain.calibrate(system, cfg.operating_point(),
                           reference_atoms=anchors["reference_atoms"],
                           reference_photons=anchors["reference_photons"],
                           reference_pump_power=anchors["reference_pump_power"])
    out = args.out or "calibration.txt"
    write_calibration(out, calib, cfg, anchors)
    print(f"calibration written to {out}: gain_scale={calib.gain_scale:.6g} "
          f"n_sat={calib.n_sat:.6g}")
    return 0


def cmd_map(args) -> int:
    cfg = _load_cfg(args)
    system = cfg.system()
    calib = load_calibration(args.calibration, cfg)
    pump = _range_values(args.pump_min, args.pump_max, args.pump_step)
    cav = _range_values(args.cavity_min, args.cavity_max, args.cavity_step)
    families = cfg.families()
    table = ScanResultTable(
        ["pump_detuning_hz", "cavity_detuning_hz", "power_w"]
        + [f"power_tem{n}_w" for n in families] + ["lasing_families"])
    if pump.size and cav.size:
        result = gain.detuning_map(cfg.operating_point(), system, calib,
                                   pump, cav, families)
        for i, dp in enumerate(pump):
            for j, dc in enumerate(cav):
                if not result.ok[i, j]:
                    row = [float(dp), float(dc), None] \
                        + [None] * len(families) + [""]
                else:
                    lasing = ";".join(str(n) for n in families
                                      if result.family_lasing[n][i, j])
                    row = ([float(dp), float(dc),
                            float(result.total_power[i, j])]
                           + [float(result.family_powers[n][i, j])
                              for n in families]
                           + [lasing])
                table.add_row(*row)
    meta = _base_metadata(cfg, "map", {
        "pump_min": repr(args.pump_min), "pump_max": repr(args.pump_max),
        "pump_step": repr(args.pump_step),
        "cavity_min": repr(args.cavity_min),
        "cavity_max": repr(args.cavity_max),
        "cavity_step": repr(args.cavity_step)})
    _attach_calibration(meta, calib, cfg)
    table.metadata = meta
    out = args.out or "map.csv"
    table.write(out, out + ".meta.txt")
    print(f"map written to {out} ({len(table.rows)} cells)")
    return 0


def cmd_threshold(args) -> int:
    cfg = _load_cfg(args)
    system = cfg.system()
    calib = load_calibration(args.calibration, cfg)
    op = cfg.operating_point()
    families = cfg.families()
    if args.max <= args.min:
        raise ConfigError("threshold scan needs max > min")
    xs = np.linspace(args.min, args.max, args.points)
    table = ScanResultTable(
        [args.vary, "power_w"] + [f"power_tem{n}_w" for n in families])
    if args.vary == "atoms":
        solutions = [gain.steady_state(replace(op, total_atoms=x), families,
                                       system, calib) for x in xs]
    else:
        solutions = gain.pump_power_steady_states(op, xs, families, system,
                                                  calib)
    for x, sol in zip(xs, solutions):
        powers = {n: gain.output_power(sol.photons[n], system.cavity,
                                       system.green.wavelength)
                  for n in families}
        table.add_row(float(x), sum(powers.values()),
                      *[powers[n] for n in families])
    thresholds = {}
    for n in families:
        try:
            vary = "atoms" if args.vary == "atoms" else "pump_power"
            thresholds[n] = gain.threshold_solve(
                vary, op, system, calib, family=n, lo=args.min, hi=args.max)
        except MotlaserError:
            thresholds[n] = None
    meta = _base_metadata(cfg, "threshold", {
        "vary": args.vary, "min": repr(args.min), "max": repr(args.max),
        "points": args.points})
    _attach_calibration(meta, calib, cfg)
    meta["thresholds"] = {
        f"tem{n}": ("" if v is None else repr(v))
        for n, v in thresholds.items()}
    table.metadata = meta
    out = args.out or "threshold.csv"
    table.write(out, out + ".meta.txt")
    found = {n: v for n, v in thresholds.items() if v is not None}
    print(f"threshold scan written to {out}; detected thresholds: "
          + (", ".join(f"TEM{n}: {v:.6g}" for n, v in found.items())
                 if found else "none in range"))
    return 0


# model and measured Zeeman slopes; the gap is attributed to light shifts
# and cavity pulling in the apparatus and is reported, not fitted away.
MEASURED_ZEEMAN_SLOPE_HZ_PER_G = 1.6e6


def cmd_shift_scan(args) -> int:
    cfg = _load_cfg(args)
    system = cfg.system()
    calib = load_calibration(args.calibration, cfg)
    op = cfg.operating_point()
    xs = _range_values(args.min, args.max, args.step)
    if xs.size < 2:
        raise ConfigError("shift scan needs at least two points "
                          "(empty or degenerate range)")
    vary = "b_offset_magnitude" if args.vary == "b_offset" else "mot_detuning"
    scan = gain.optimum_scan(vary, xs, op, system, calib,
                             families=(cfg.families() or (0,))[:1])
    unit = "hz_per_gauss" if vary == "b_offset_magnitude" else "hz_per_hz"
    table = ScanResultTable([args.vary, "pump_opt_hz", "cavity_opt_hz"])
    for p in scan.points:
        table.add_row(p.x, p.pump_opt, p.cavity_opt)
    meta = _base_metadata(cfg, "shift-scan", {
        "vary": args.vary, "min": repr(args.min), "max": repr(args.max),
        "step": repr(args.step)})
    _attach_calibration(meta, calib, cfg)
    fit = {"slope_" + unit: repr(scan.slope), "intercept_hz": repr(scan.intercept)}
    if vary == "b_offset_magnitude":
        fit["measured_slope_hz_per_gauss"] = repr(MEASURED_ZEEMAN_SLOPE_HZ_PER_G)
        fit["note"] = ("model slope follows the Lande factor; the measured "
                       "value is smaller (light shifts / cavity pulling)")
    table.metadata = meta
    meta["fit"] = fit
    out = args.out or "shift_scan.csv"
    table.write(out, out + ".meta.txt")
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
    system = cfg.system()
    op = cfg.operating_point()
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
            op_a = replace(op, pump_polarization=geometry.jones_linear(angle),
                           b_offset=b_vec)
            weights = geometry.pump_excitation_weights(
                system.pump_beam(op_a), np.asarray(b_vec))
            excited, outputs = [], []
            for m, w in zip(gain.SUBLEVELS, weights):
                if w < 1e-9:
                    continue
                excited.append(_CHANNEL_NAMES[m])
                label, strength = geometry.cavity_emission_jones(
                    m, np.asarray(b_vec), system.cavity.axis)
                outputs.append("---" if strength < 1e-9 else str(label))
            this = (tuple(excited), tuple(outputs))
            if entries is None:
                entries = this
            elif entries != this:
                raise PhysicsError(
                    f"selection rules vary across {pol_label} at B {b_label}")
        lines.append(f"{b_label:<10}{pol_label:<10}"
                     f"{' '.join(entries[0]):<18}{' '.join(entries[1])}")
    return "\n".join(lines) + "\n"


def cmd_polarization_table(args) -> int:
    cfg = _load_cfg(args)
    extra = []
    for field_text in args.extra_b or []:
        parts = [float(tok) for tok in field_text.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"--extra-b expects X,Y,Z, got {field_text!r}")
        if not any(parts):
            raise QuantizationAxisError(
                "quantization axis undefined: --extra-b field is zero")
        extra.append(parts)
    text = render_polarization_table(cfg, extra)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"selection-rule table written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _resolve_tau_c(args, cfg: RunConfig, calib) -> float:
    if args.tau_c is not None:
        return args.tau_c
    if args.washout_g2 is not None:
        return photonstats.invert_washout(args.washout_g2, args.bin)
    system = cfg.system()
    sol = gain.steady_state(cfg.operating_point(), (0,), system, calib)
    g0 = sol.gains[0]
    kappa = system.cavity.kappa
    if g0 >= kappa:
        raise PhysicsError(
            "operating point is above threshold: the below-threshold "
            "coherence time 1/(kappa - G) is undefined; lower the pump or "
            "atom number, or pass --tau-c / --washout-g2")
    return float(1.0 / (kappa - g0))


def cmd_g2(args) -> int:
    # the correlator's own conditions, checked before any synthesis
    if not args.bin > 0:
        raise ConfigError("--bin must be positive")
    if args.max_lag < args.bin:
        raise ConfigError("--max-lag must be at least one --bin")
    if args.duration - round(args.max_lag / args.bin) * args.bin <= 0:
        raise ConfigError("--max-lag (rounded to whole bins) must be "
                          "shorter than --duration")
    cfg = _load_cfg(args)
    seed = cfg.seed()
    if args.regime == "below":
        calib = None
        if args.tau_c is None and args.washout_g2 is None:
            calib = load_calibration(args.calibration, cfg)
        tau_c = _resolve_tau_c(args, cfg, calib)
        trace = photonstats.simulate_intensity(
            "thermal", args.rate, tau_c, args.duration,
            sample_period=tau_c / 10.0, seed=seed)
    else:
        tau_c = None
        period = min(1e-3, args.duration / 100.0)
        trace = photonstats.simulate_intensity(
            "laser", args.rate, 0.0, args.duration, sample_period=period,
            seed=seed, laser_ripple=cfg["laser_ripple"])
    det_a, det_b = photonstats.poissonize(trace, seed + 1)
    if args.emit_clicks:
        for stream, tag in ((det_a, "det0"), (det_b, "det1")):
            photonstats.write_clickstream(stream,
                                          f"{args.emit_clicks}_{tag}.clks")
    result = photonstats.g2_cross(det_a, det_b, args.bin, args.max_lag,
                                  shards=max(1, args.threads))
    table = ScanResultTable(["lag_s", "g2", "sigma", "pairs"])
    for lag, g2v, sig, cnt in zip(result.lags, result.g2, result.sigma,
                                  result.counts):
        table.add_row(float(lag), float(g2v), float(sig), int(cnt))
    meta = _base_metadata(cfg, "g2", {
        "regime": args.regime, "duration": repr(args.duration),
        "rate": repr(args.rate), "bin": repr(args.bin),
        "max_lag": repr(args.max_lag),
        "tau_c": "" if tau_c is None else repr(tau_c)})
    meta["result"] = {"total_pairs": result.total_pairs,
                      "counts_det0": det_a.timestamps.size,
                      "counts_det1": det_b.timestamps.size}
    table.metadata = meta
    out = args.out or "g2.csv"
    table.write(out, out + ".meta.txt")
    print(f"g2 written to {out}; zero-lag g2 = "
          f"{result.g2[result.lags.size // 2]:.4f}")
    return 0


def cmd_clicks(args) -> int:
    cfg = _load_cfg(args)
    seed = cfg.seed()
    tau_c = args.tau_c if args.tau_c is not None else 100e-6
    period = tau_c / 10.0 if args.regime == "thermal" \
        else min(1e-3, args.duration / 100.0)
    trace = photonstats.simulate_intensity(
        args.regime, args.rate, tau_c, args.duration, sample_period=period,
        seed=seed, laser_ripple=cfg["laser_ripple"])
    det_a, det_b = photonstats.poissonize(trace, seed + 1)
    stored = []
    for stream, tag in ((det_a, "det0"), (det_b, "det1")):
        if args.format == "bin":
            path = f"{args.prefix}_{tag}.clks"
            count = photonstats.write_clickstream(stream, path)
        else:
            path = f"{args.prefix}_{tag}.txt"
            photonstats.write_clickstream_text(stream, path)
            count = stream.timestamps.size
        stored.append((path, count))
    table = ScanResultTable(["detector", "path", "clicks"])
    for det, (path, count) in enumerate(stored):
        table.add_row(det, path, count)
    meta = _base_metadata(cfg, "clicks", {
        "regime": args.regime, "rate": repr(args.rate),
        "duration": repr(args.duration), "tau_c": repr(tau_c),
        "format": args.format})
    table.metadata = meta
    out = args.out or "clicks_summary.csv"
    table.write(out, out + ".meta.txt")
    print(f"click streams written: "
          + ", ".join(f"{p} ({c})" for p, c in stored))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _quantity(text):
    try:
        return parse_quantity(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motlaser",
        description="Simulation of continuous-wave lasing from a trapped "
                    "cold-atom cloud inside a high-finesse cavity.",
        epilog="Configuration keys:\n" + describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="configuration file (key = value)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    parser.add_argument("--out", help="output path (per-command default)")
    parser.add_argument("--calibration", default="calibration.txt",
                        help="calibration file path")
    parser.add_argument("--threads", type=int, default=1,
                        help="number of g2 correlation shards; they run "
                             "serially and the output is identical for "
                             "any value")
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
    p.add_argument("--tau-c", type=_quantity, default=None,
                   help="override the below-threshold coherence time")
    p.add_argument("--washout-g2", type=float, default=None,
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
