"""Correctness checks on the files one benchmark process wrote.

``facts()`` reads a workload's output files into integer facts, compared
exactly, and float facts, compared within ``FLOAT_REL_TOL``.  At the
default seed they must match ``references.json``.  The ``map`` and
``scan`` outputs do not depend on the seed (it only enters the sidecars),
so their references hold at every seed.  Seed-independent invariants are
checked on every run.  Each failed comparison or invariant is one failure.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct

import numpy as np
from scipy.ndimage import label

FLOAT_REL_TOL = 1e-6
_CLKS_HEADER = struct.Struct("<4sIIQQ")   # magic, version, det, count, ns


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _float(text):
    return float(text) if text != "" else math.nan


def _meta(path):
    out, section = {}, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("[") and line.endswith("]"):
                section = out.setdefault(line[1:-1], {})
            elif "=" in line:
                key, value = (p.strip() for p in line.split("=", 1))
                section[key] = value
    return out


def _mask(values) -> str:
    return "".join("1" if v else "0" for v in values)


def _sha(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Facts: (ints, floats, work units)
# ---------------------------------------------------------------------------

def _map_facts(d):
    rows = _rows(d / "map.csv")
    pump = sorted({float(r["pump_detuning_hz"]) for r in rows})
    cav = sorted({float(r["cavity_detuning_hz"]) for r in rows})
    power = np.array([_float(r["power_w"]) for r in rows])
    ok = ~np.isnan(power)
    lasing = [set(r["lasing_families"].split(";")) - {""} for r in rows]
    families = [c[len("power_tem"):-len("_w")] for c in rows[0]
                if c.startswith("power_tem")]
    grid = np.array([bool(s) for s in lasing]).reshape(len(pump), len(cav))
    labels, count = label(grid)
    lobes = []
    for k in range(1, count + 1):
        masked = np.where(labels.ravel() == k, power, -np.inf)
        i, j = divmod(int(np.nanargmax(masked)), len(cav))
        lobes.append([i, j])
    lobes.sort(key=lambda ij: pump[ij[0]])
    ints = {"cells": len(rows), "ok_mask": _mask(ok), "lobe_cells": lobes}
    for n in families:
        ints[f"lasing_mask_tem{n}"] = _mask(n in s for s in lasing)
    floats = {"power_w": power.tolist(),
              "lobe_peak_power_w": [power[i * len(cav) + j] for i, j in lobes]}
    extra = {"pump": pump, "cav": cav, "ok": ok, "lobes": lobes}
    return ints, floats, len(rows), extra


def _scan_facts(d):
    shift = _rows(d / "shift_scan.csv")
    fit = _meta(d / "shift_scan.csv.meta.txt")["fit"]
    thr = _rows(d / "threshold.csv")
    found = _meta(d / "threshold.csv.meta.txt")["thresholds"]
    pump_opt = [_float(r["pump_opt_hz"]) for r in shift]
    ints = {"shift_points": len(shift),
            "shift_points_valid": sum(not math.isnan(v) for v in pump_opt),
            "threshold_points": len(thr),
            "thresholds_found": sorted(k for k, v in found.items() if v)}
    floats = {"pump_opt_hz": pump_opt,
              "cavity_opt_hz": [_float(r["cavity_opt_hz"]) for r in shift],
              "slope_hz_per_gauss": float(fit["slope_hz_per_gauss"]),
              "threshold_power_w": [float(r["power_w"]) for r in thr],
              "thresholds_w": [_float(found[k]) for k in sorted(found)]}
    extra = {"pump": [float(r["pump"]) for r in thr], "found": found}
    return ints, floats, len(shift) + len(thr), extra


def _g2_facts(d):
    rows = _rows(d / "g2.csv")
    meta = _meta(d / "g2.csv.meta.txt")
    res, run = meta["result"], meta["run"]
    pairs = [int(r["pairs"]) for r in rows]
    g2 = np.array([float(r["g2"]) for r in rows])
    ints = {"lags": len(rows), "total_pairs": int(res["total_pairs"]),
            "pairs_sum": sum(pairs), "pairs_sha256": _sha(pairs),
            "counts_det0": int(res["counts_det0"]),
            "counts_det1": int(res["counts_det1"])}
    floats = {"g2_zero_lag": float(g2[len(rows) // 2]),
              "g2_mean": float(g2.mean())}
    clicks = ints["counts_det0"] + ints["counts_det1"]
    extra = {"lag": np.array([float(r["lag_s"]) for r in rows]), "g2": g2,
             "sigma": np.array([float(r["sigma"]) for r in rows]),
             "pairs": np.array(pairs, float), "run": run, "res": res}
    for det in (0, 1):
        path = d / f"clicks_det{det}.clks"
        if path.exists():
            with open(path, "rb") as fh:
                magic, _, _, count, _ = _CLKS_HEADER.unpack(
                    fh.read(_CLKS_HEADER.size))
            ints[f"stored_clicks_det{det}"] = count
            extra[f"clks_ok_det{det}"] = (
                magic == b"CLKS"
                and path.stat().st_size == _CLKS_HEADER.size + 8 * count)
    return ints, floats, clicks, extra


# ---------------------------------------------------------------------------
# Invariants that hold at every seed
# ---------------------------------------------------------------------------

def _map_invariants(x):
    # criterion 1: two lobes at (-5, -40) and (+5, -30) MHz, within 1 MHz
    centers = [(x["pump"][i] / 1e6, x["cav"][j] / 1e6) for i, j in x["lobes"]]
    targets = [(-5.0, -40.0), (5.0, -30.0)]
    ok = len(centers) == 2 and all(
        abs(p - tp) <= 1.0 and abs(c - tc) <= 1.0
        for (p, c), (tp, tc) in zip(centers, targets))
    return {"two lobes at criterion 1's positions": ok}


def _scan_invariants(x, floats):
    slope = floats["slope_hz_per_gauss"] / 1e6
    power = floats["threshold_power_w"]
    t0 = _float(x["found"].get("tem0", ""))
    return {
        # criterion 4: model Zeeman slope 2.10 +- 0.02 MHz/G
        "Zeeman slope 2.10 +- 0.02 MHz/G": abs(slope - 2.10) <= 0.02,
        "every shift-scan point lases": not any(
            math.isnan(v) for v in floats["pump_opt_hz"]),
        "output power rises with pump": all(
            b >= a for a, b in zip(power, power[1:])),
        "TEM0 pump threshold inside the scan": (
            min(x["pump"]) <= t0 <= max(x["pump"])),
    }


def _norm(x):
    """Per-lag normalization r_a r_b bin T_k, as the correlator defines it."""
    run, res = x["run"], x["res"]
    duration, width = float(run["duration"]), float(run["bin"])
    rate_a = int(res["counts_det0"]) / duration
    rate_b = int(res["counts_det1"]) / duration
    return rate_a * rate_b * width * (duration - np.abs(x["lag"]))


def _g2_common(ints):
    return {"histogram sums to total_pairs":
            ints["pairs_sum"] == ints["total_pairs"]}


def _g2_dense_invariants(ints, x):
    out = _g2_common(ints)
    out["|g2 - 1| <= 5 sigma at every lag"] = bool(
        np.all(np.abs(x["g2"] - 1.0) <= 5.0 * x["sigma"]))
    return out


def _g2_sparse_invariants(ints, x):
    out = _g2_common(ints)
    # zero-lag g2 near 2: pool |lag| <= 30 ns and compare the pooled g2 with
    # the Siegert value 1 + exp(-2|tau|/tau_c) within 5 sigma
    near = np.abs(x["lag"]) <= 30e-9 + 1e-15
    norm = _norm(x)[near]
    tau_c = float(x["run"]["tau_c"])
    expected = float(np.sum(norm * (1.0 + np.exp(
        -2.0 * np.abs(x["lag"][near]) / tau_c))) / norm.sum())
    pooled = x["pairs"][near].sum() / norm.sum()
    sigma = math.sqrt(max(x["pairs"][near].sum(), 1.0)) / norm.sum()
    out["zero-lag g2 within 5 sigma of 2"] = (
        abs(pooled - expected) <= 5.0 * sigma)
    for det in (0, 1):
        stored = ints.get(f"stored_clicks_det{det}", -1)
        out[f"click file det{det} well formed, no clicks gained"] = bool(
            x.get(f"clks_ok_det{det}")
            and 0 < stored <= ints[f"counts_det{det}"])
    return out


# ---------------------------------------------------------------------------

def _compare(ints, floats, ref):
    """One result per stored reference key: True when the output matches."""
    out = {}
    for key, want in ref["ints"].items():
        out[f"integer output {key} equals reference"] = ints.get(key) == want
    for key, want in ref["floats"].items():
        got = floats.get(key)
        got_l = got if isinstance(got, list) else [got]
        want_l = want if isinstance(want, list) else [want]
        out[f"float output {key} within {FLOAT_REL_TOL:g} of reference"] = (
            got is not None and len(got_l) == len(want_l) and all(
                g == w if g is None or w is None
                else abs(g - w) <= FLOAT_REL_TOL * abs(w)
                for g, w in zip(got_l, want_l)))
    return out


def _json_safe(values):
    if isinstance(values, list):
        return [None if math.isnan(v) else v for v in values]
    return None if math.isnan(values) else values


def facts(workload, workdir):
    """(ints, floats, work units, extra) from one process's output files."""
    read = {"map": _map_facts, "scan": _scan_facts}.get(workload, _g2_facts)
    ints, floats, units, extra = read(workdir)
    return ints, {k: _json_safe(v) for k, v in floats.items()}, units, extra


def check(workload, workdir, reference):
    """Check one process's outputs; returns (operations, failures, units).

    Each invariant, each reference key (when ``reference`` is given) and
    each map cell is one operation.  Unreadable outputs are one failure.
    """
    try:
        ints, floats, units, x = facts(workload, workdir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return 1, [f"outputs unreadable: {exc!r}"], 0
    if workload == "map":
        results = _map_invariants(x)
    elif workload == "scan":
        results = _scan_invariants(x, floats)
    elif workload == "g2-dense":
        results = _g2_dense_invariants(ints, x)
    else:
        results = _g2_sparse_invariants(ints, x)
    if reference is not None:
        results.update(_compare(ints, floats, reference))
    failures = [name for name, ok in results.items() if not ok]
    operations = len(results)
    if workload == "map":
        operations += int(x["ok"].size)
        failures += ["map cell with ok=False"] * int((~x["ok"]).sum())
    return operations, failures, units
