import argparse
import ast
import errno
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from motlaser import cli, gain, geometry, photonstats, results
from motlaser.atomics import MASS_YB174
from motlaser.cli import (MAX_POINTS, build_parser, load_calibration, main,
                          render_polarization_table)
from motlaser.config import (_HASH_EXCLUDED, _KEYS, _UNIT_EXPONENT,
                             ConfigError, default_config, load_config,
                             parse_config_text, parse_quantity)
from motlaser.errors import PhysicsError
from motlaser.photonstats import read_clickstream, simulate_intensity
from motlaser.results import ScanResultTable, parse_metadata

FIXTURE = "tests/data/polarization_table.txt"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def exit_code(*argv):
    """main's return value, or the status of argparse's usage-error exit."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def calibrated(workdir):
    assert run("calibrate") == 0
    return workdir


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

class TestConfig:
    def test_quantities(self):
        assert parse_quantity("-35 MHz") == -35e6
        assert parse_quantity("7mW") == 7e-3
        assert parse_quantity("2.38 G") == 2.38
        assert parse_quantity("90 um") == 9e-05
        assert parse_quantity("1.5") == 1.5
        # the micro prefix as the micro sign (U+00B5) and as Greek mu
        assert parse_quantity("3 \u00b5s") == parse_quantity("3 \u03bcs") \
            == 3e-6

    @given(mantissa=st.from_regex(r"[-+]?(\d{1,20}\.?\d{0,20}|\.\d{1,20})",
                                  fullmatch=True),
           exponent=st.none() | st.integers(-400, 400),
           unit=st.sampled_from(sorted(_UNIT_EXPONENT)),
           upper=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_value_is_the_float_nearest_the_decimal(self, mantissa, exponent,
                                                    unit, upper):
        # the decimal moves to internal units by its power of ten, so the
        # value is rounded once, from the digits written
        written = "" if exponent is None else f"e{exponent}"
        text = f"{mantissa}{written} {unit.upper() if upper else unit}"
        shift = (exponent or 0) + _UNIT_EXPONENT[unit]
        want = float(f"{mantissa}e{shift}")
        if not np.isfinite(float(f"{mantissa}e{exponent or 0}")):
            with pytest.raises(ConfigError, match="not a finite number"):
                parse_quantity(text)
        elif not np.isfinite(want):
            with pytest.raises(ConfigError, match="overflows"):
                parse_quantity(text)
        else:
            assert parse_quantity(text).hex() == want.hex()

    def test_default_lengths_are_the_decimals_written(self):
        lines = default_config().canonical_lines()
        assert "cavity_waist = 9e-05" in lines
        assert "green_wavelength = 5.56e-07" in lines

    def test_bad_quantity(self):
        with pytest.raises(ConfigError):
            parse_quantity("fast")
        with pytest.raises(ConfigError):
            parse_quantity("3 parsec")
        # an exponent longer than int() converts
        with pytest.raises(ConfigError, match="exponent out of range"):
            parse_quantity("1e" + "0" * 5000)

    def test_overflowing_unit_conversion(self):
        with pytest.raises(ConfigError, match="overflows"):
            parse_quantity("1e300GHz")
        with pytest.raises(ConfigError, match="overflows"):
            parse_quantity("-1e306 kHz")
        assert parse_quantity("1e300 Hz") == 1e300
        # out of float range as written
        for text in ("1e999", "-1e999 MHz"):
            with pytest.raises(ConfigError, match="not a finite number"):
                parse_quantity(text)

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("pump_powr = 7 mW\n")

    def test_defaults_round_trip(self):
        cfg = default_config()
        text = "\n".join(cfg.canonical_lines())
        again = parse_config_text(text)
        assert again.config_hash() == cfg.config_hash()
        assert again.as_dict() == cfg.as_dict()

    def test_hash_covers_apparatus_keys_only(self):
        cfg = default_config()
        # scan knobs and the seed never invalidate a calibration
        assert cfg.replace(seed=999).config_hash() == cfg.config_hash()
        assert cfg.replace(pump_detuning=3e6).config_hash() == cfg.config_hash()
        assert cfg.replace(pump_power=1e-3).config_hash() == cfg.config_hash()
        # apparatus keys do
        assert cfg.replace(total_atoms=5e4).config_hash() != cfg.config_hash()
        assert cfg.replace(mot_detuning=-30e6).config_hash() != cfg.config_hash()

    def test_comments_and_units(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# detuning scan base\nmot_detuning = -32 MHz\n"
                        "pump_polarization = linear:45deg\n")
        cfg = load_config(path)
        assert cfg["mot_detuning"] == -32e6
        a = np.asarray(cfg["pump_polarization"])
        assert abs(a[0]) == pytest.approx(abs(a[1]))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

class TestCalibrateCommand:
    def test_writes_and_reruns_identically(self, workdir):
        assert run("calibrate") == 0
        first = (workdir / "calibration.txt").read_bytes()
        assert run("calibrate") == 0
        assert (workdir / "calibration.txt").read_bytes() == first
        sections = parse_metadata(first.decode())
        assert float(sections["calibration"]["gain_scale"]) > 0
        assert float(sections["calibration"]["n_sat"]) > 0

    def test_stale_hash_blocks_other_commands(self, workdir):
        calibrated(workdir)
        cfg_path = workdir / "changed.cfg"
        cfg_path.write_text("total_atoms = 1e5\n")
        code = run("--config", str(cfg_path), "map",
                   "--pump-min", "0MHz", "--pump-max", "1MHz",
                   "--cavity-min=-31MHz", "--cavity-max=-30MHz")
        assert code == 4

    def test_missing_calibration_blocks(self, workdir):
        code = run("map", "--pump-min", "0MHz", "--pump-max", "1MHz",
                   "--cavity-min=-31MHz", "--cavity-max=-30MHz")
        assert code == 4


class TestMapCommand:
    def test_small_map(self, workdir):
        calibrated(workdir)
        code = run("map", "--pump-min", "3MHz", "--pump-max", "7MHz",
                   "--pump-step", "1MHz", "--cavity-min=-34MHz",
                   "--cavity-max=-26MHz", "--cavity-step", "2MHz")
        assert code == 0
        text = (workdir / "map.csv").read_text()
        header = text.splitlines()[0].split(",")
        assert header[:3] == ["pump_detuning_hz", "cavity_detuning_hz",
                              "power_w"]
        assert len(text.splitlines()) == 1 + 5 * 5
        meta = parse_metadata((workdir / "map.csv.meta.txt").read_text())
        assert meta["run"]["command"] == "map"
        assert "config" in meta and "calibration" in meta

    def test_failed_cells_leave_empty_fields(self, workdir, monkeypatch):
        # the columnar rows must match the per-cell row loop they replaced,
        # also where cells failed (None power, "" lasing families)
        solve, solved = gain.detuning_map, {}

        def with_failures(*args, **kwargs):
            result = solve(*args, **kwargs)
            # row 1 fails as the solver marks it (NaN power); column 2
            # keeps finite powers, so only the ok mask empties its fields
            result.ok[1, :] = False
            result.ok[:, 2] = False
            for power in [result.total_power, *result.family_powers.values()]:
                power[1, :] = np.nan
            solved["map"] = result
            return result

        monkeypatch.setattr("motlaser.gain.detuning_map", with_failures)
        calibrated(workdir)
        assert run("map", "--pump-min", "3MHz", "--pump-max", "6MHz",
                   "--cavity-min=-34MHz", "--cavity-max=-30MHz") == 0
        result = solved["map"]
        families = default_config().families()
        table = ScanResultTable(
            ["pump_detuning_hz", "cavity_detuning_hz", "power_w"]
            + [f"power_tem{n}_w" for n in families] + ["lasing_families"])
        cells = []
        for i, dp in enumerate(result.pump_detunings):
            for j, dc in enumerate(result.cavity_detunings):
                if not result.ok[i, j]:
                    row = [float(dp), float(dc), None] \
                        + [None] * len(families) + [""]
                else:
                    lasing = ";".join(str(n) for n in families
                                      if result.family_lasing[n][i, j])
                    row = ([float(dp), float(dc),
                            float(result.total_power[i, j])]
                           + [float(result.family_powers[n][i, j])
                              for n in families] + [lasing])
                cells.append(row)
        table.set_columns(*zip(*cells))
        want = table.csv_text()
        assert (workdir / "map.csv").read_text() == want
        rows = want.splitlines()[1:]
        assert len(rows) == 4 * 5 and not result.ok.all()
        assert any(row.rsplit(",", 1)[1] for row in rows)
        for row, ok in zip(rows, result.ok.ravel()):
            if not ok:
                assert row.split(",", 2)[2] == "," * (len(families) + 1)

    def test_reversed_range_usage_error(self, workdir):
        calibrated(workdir)
        assert run("map", "--pump-min", "5MHz", "--pump-max", "3MHz") == 2
        assert run("map", "--cavity-min=-10MHz", "--cavity-max=-30MHz") == 2
        assert not (workdir / "map.csv").exists()

    def test_deterministic_rerun(self, workdir):
        calibrated(workdir)
        args = ("map", "--pump-min", "4MHz", "--pump-max", "6MHz",
                "--cavity-min=-32MHz", "--cavity-max=-28MHz",
                "--cavity-step", "2MHz")
        assert run(*args) == 0
        first = (workdir / "map.csv").read_bytes()
        first_meta = (workdir / "map.csv.meta.txt").read_bytes()
        assert run(*args) == 0
        assert (workdir / "map.csv").read_bytes() == first
        assert (workdir / "map.csv.meta.txt").read_bytes() == first_meta

    def test_threads_flag_deterministic(self, workdir):
        calibrated(workdir)
        base = ("map", "--pump-min", "4MHz", "--pump-max", "6MHz",
                "--cavity-min=-33MHz", "--cavity-max=-27MHz",
                "--cavity-step", "3MHz")
        assert run(*base) == 0
        serial = (workdir / "map.csv").read_bytes()
        assert run("--threads", "3", *base) == 0
        assert (workdir / "map.csv").read_bytes() == serial

    def test_axial_polarization_map_below_threshold(self, workdir):
        # the calibration belongs to the apparatus, so rotating the pump
        # polarization in the config reuses it; at 0 degrees the map is
        # entirely below threshold
        calibrated(workdir)
        cfg = workdir / "pol0.cfg"
        cfg.write_text("pump_polarization = linear:0deg\n")
        code = run("--config", str(cfg), "map", "--pump-min", "3MHz",
                   "--pump-max", "7MHz", "--pump-step", "2MHz",
                   "--cavity-min=-32MHz", "--cavity-max=-28MHz",
                   "--cavity-step", "2MHz")
        assert code == 0
        rows = (workdir / "map.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",") for row in rows)  # lasing column empty
        # the config file itself is never touched by a command
        assert cfg.read_text() == "pump_polarization = linear:0deg\n"

    def test_default_map_formats_each_distinct_cell_once(self, workdir,
                                                         monkeypatch):
        # the axes and the lasing labels reach the writer as their distinct
        # values: one kernel call for the 21 pump and 61 cavity values and
        # the five power columns of 1281 cells, and one text per label
        calibrated(workdir)
        sizes, texts = [], []
        format_e17, format_cell = results.format_e17, results.format_cell

        def counted_e17(values):
            sizes.append(np.size(values))
            return format_e17(values)

        def counted_cell(value):
            texts.append(value)
            return format_cell(value)

        monkeypatch.setattr(results, "format_e17", counted_e17)
        monkeypatch.setattr(results, "format_cell", counted_cell)
        assert run("map") == 0
        assert sizes == [21 + 61 + 5 * 1281] == [6487]
        rows = (workdir / "map.csv").read_text().splitlines()[1:]
        assert len(rows) == 1281
        labels = [row.rsplit(",", 1)[1] for row in rows]
        assert sorted(texts) == sorted(set(labels))


class TestThresholdCommand:
    def test_atom_scan_detects_anchor(self, workdir):
        calibrated(workdir)
        code = run("threshold", "--vary", "atoms", "--min", "1e3",
                   "--max", "2e4", "--points", "12")
        assert code == 0
        meta = parse_metadata((workdir / "threshold.csv.meta.txt").read_text())
        th0 = float(meta["thresholds"]["tem0"])
        assert abs(th0 - 5000.0) < 60.0  # anchor at the default (5 MHz) pump
        # power curve is monotone non-decreasing
        rows = (workdir / "threshold.csv").read_text().splitlines()[1:]
        powers = [float(r.split(",")[1]) for r in rows]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(powers, powers[1:]))

    def test_pump_scan_family_ordering(self, workdir):
        calibrated(workdir)
        code = run("threshold", "--vary", "pump", "--min", "1e-6",
                   "--max", "1e-3", "--points", "8")
        assert code == 0
        meta = parse_metadata((workdir / "threshold.csv.meta.txt").read_text())
        assert float(meta["thresholds"]["tem0"]) < \
            float(meta["thresholds"]["tem37"])

    def test_bad_range(self, workdir):
        calibrated(workdir)
        assert run("threshold", "--vary", "atoms", "--min", "100",
                   "--max", "10") == 2

    @staticmethod
    def _sidecar(workdir, *argv, config=None):
        if config:
            (workdir / "run.cfg").write_text(config + "\n")
            argv = ("--config", "run.cfg") + argv
        assert run(*argv) == 0
        meta = parse_metadata((workdir / "threshold.csv.meta.txt").read_text())
        return meta["thresholds"], meta["threshold_reasons"]

    def test_pump_thresholds_on_either_side_of_the_range(self, workdir):
        calibrated(workdir)
        found, reasons = self._sidecar(workdir, "threshold", "--vary", "pump",
                                       "--min", "0.1mW", "--max", "0.2mW")
        assert found == dict.fromkeys(("tem0", "tem37", "tem74", "tem111"),
                                      "")
        assert reasons == {"tem0": "below range", "tem37": "below range",
                           "tem74": "below range", "tem111": "above range"}

    def test_atom_thresholds_above_the_range(self, workdir):
        calibrated(workdir)
        found, reasons = self._sidecar(workdir, "threshold", "--vary",
                                       "atoms", "--min", "1e3", "--max", "2e3")
        assert set(found.values()) == {""}
        assert reasons == dict.fromkeys(found, "above range")

    @pytest.mark.parametrize("vary,bounds", [("pump", ("1uW", "7mW")),
                                             ("atoms", ("1e3", "2e4"))])
    def test_axial_pump_gain_saturates_below_loss(self, workdir, vary,
                                                  bounds):
        # a 0 deg pump with B along x drives no channel: zero gain
        calibrated(workdir)
        found, reasons = self._sidecar(
            workdir, "threshold", "--vary", vary, "--min", bounds[0],
            "--max", bounds[1], config="pump_polarization = linear:0deg")
        assert set(found.values()) == {""}
        assert reasons == dict.fromkeys(found, "gain saturates below loss")

    def test_sidecar_threshold_format(self, workdir):
        # `temN = repr(float)` or empty, with the reason in its own section
        calibrated(workdir)
        found, reasons = self._sidecar(workdir, "threshold", "--vary", "pump",
                                       "--min", "1uW", "--max", "0.5mW")
        text = (workdir / "threshold.csv.meta.txt").read_text()
        for n, v in found.items():
            if reasons[n]:
                assert v == "" and f"\n{n} = \n" in text
            else:
                assert repr(float(v)) == v and f"\n{n} = {v}\n" in text
        assert reasons == {"tem0": "", "tem37": "", "tem74": "",
                           "tem111": "above range"}

    @pytest.mark.parametrize("vary,bounds", [("pump", ("1uW", "1mW")),
                                             ("atoms", ("1e3", "2e4"))])
    def test_one_gain_kernel(self, workdir, monkeypatch, vary, bounds):
        calibrated(workdir)
        built = []

        class Counted(gain._GainKernel):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(gain, "_GainKernel", Counted)
        assert run("threshold", "--vary", vary, "--min", bounds[0],
                   "--max", bounds[1]) == 0
        assert len(built) == 1


class TestShiftScanCommand:
    def test_trap_detuning_scan(self, workdir):
        calibrated(workdir)
        code = run("shift-scan", "--vary", "mot_detuning", "--min=-40MHz",
                   "--max=-20MHz", "--step", "10MHz")
        assert code == 0
        meta = parse_metadata((workdir / "shift_scan.csv.meta.txt").read_text())
        assert float(meta["fit"]["slope_hz_per_hz"]) == \
            pytest.approx(1.0, abs=1e-3)

    def test_field_scan_reports_measured_reference(self, workdir, capsys):
        calibrated(workdir)
        code = run("shift-scan", "--vary", "b_offset", "--min", "2",
                   "--max", "4", "--step", "1")
        assert code == 0
        out = capsys.readouterr().out
        assert "measured reference slope" in out
        meta = parse_metadata((workdir / "shift_scan.csv.meta.txt").read_text())
        assert float(meta["fit"]["slope_hz_per_gauss"]) == \
            pytest.approx(2.10e6, rel=0.01)
        assert float(meta["fit"]["measured_slope_hz_per_gauss"]) == 1.6e6

    @pytest.mark.parametrize("lo,hi,step", [("1e20", "2e20", "1e20"),
                                            ("1e100", "3e100", "1e100")])
    def test_field_scan_lases_at_high_fields(self, workdir, lo, hi, step):
        # the sigma+ lobe lases at any field: the ridge is evaluated at an
        # exact zero two-photon detuning, not rebuilt from the pump detuning
        calibrated(workdir)
        assert run("shift-scan", "--vary", "b_offset", "--min", lo,
                   "--max", hi, "--step", step) == 0
        lines = (workdir / "shift_scan.csv").read_text().splitlines()[1:]
        assert len(lines) == round(float(hi) / float(step))
        assert all(line.split(",")[1] != "" for line in lines)
        meta = parse_metadata((workdir / "shift_scan.csv.meta.txt").read_text())
        slope = float(meta["fit"]["slope_hz_per_gauss"])
        assert np.isfinite(slope)
        assert slope == pytest.approx(
            gain.atomics.zeeman_shift(
                default_config().system().green.lande_g_upper, 1, 1.0),
            rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ("--vary", "b_offset", "--min", "1.5", "--max", "4.5", "--step", "1"),
        ("--vary", "mot_detuning", "--min=-40MHz", "--max=-20MHz",
         "--step=2MHz"),
    ], ids=["b_offset", "mot_detuning"])
    def test_geometry_computed_once_per_scan(self, workdir, argv):
        # the default field lies along x, so every magnitude has the unit
        # vector (1, 0, 0) exactly, and a trap-detuning scan keeps its field
        calibrated(workdir)
        geometry._field_geometry.cache_clear()
        geometry._pump_weights.cache_clear()
        assert run("shift-scan", *argv) == 0
        assert geometry._field_geometry.cache_info().misses == 1
        assert geometry._pump_weights.cache_info().misses == 1

    def test_field_scan_where_the_squared_field_underflows(self, workdir):
        # |B|^2 of the configured field is 0 in floats; the scan direction
        # is the field's own, rescaled as the spherical basis rescales it
        (workdir / "tiny.cfg").write_text(
            "b_offset_x = 1e-200 G\nb_offset_y = 1e-200 G\n")
        assert run("--config", "tiny.cfg", "calibrate") == 0
        assert run("--config", "tiny.cfg", "shift-scan", "--vary",
                   "b_offset", "--min", "1", "--max", "3", "--step", "1") == 0
        lines = (workdir / "shift_scan.csv").read_text().splitlines()[1:]
        assert len(lines) == 3
        assert all(line.split(",")[1] != "" for line in lines)
        meta = parse_metadata((workdir / "shift_scan.csv.meta.txt").read_text())
        assert float(meta["fit"]["slope_hz_per_gauss"]) == \
            pytest.approx(2.10e6, rel=0.01)

    def test_empty_range_usage_error(self, workdir):
        calibrated(workdir)
        assert run("shift-scan", "--vary", "mot_detuning", "--min=-20MHz",
                   "--max=-40MHz", "--step", "1MHz") == 2


class TestPolarizationTableCommand:
    def test_matches_fixture(self, workdir, pytestconfig):
        fixture = (pytestconfig.rootpath / FIXTURE).read_bytes()
        assert run("--out", "table.txt", "polarization-table") == 0
        assert (workdir / "table.txt").read_bytes() == fixture

    def test_extra_field_appends_rows(self, workdir, pytestconfig):
        fixture = (pytestconfig.rootpath / FIXTURE).read_text()
        assert run("--out", "table.txt", "polarization-table",
                   "--extra-b", "1,0,1") == 0
        text = (workdir / "table.txt").read_text()
        assert text.startswith(fixture.rstrip("\n").rsplit("\n", 0)[0][:40])
        assert len(text.splitlines()) == len(fixture.splitlines()) + 2
        assert text.splitlines()[:7] == fixture.splitlines()

    def test_zero_extra_field_errors(self, workdir, capsys):
        assert run("polarization-table", "--extra-b", "0,0,0") == 3
        assert "quantization axis undefined" in capsys.readouterr().err

    @pytest.mark.parametrize("field,direction", [
        ("1e300,1e300,0", "1,1,0"),     # the sum of squares overflows
        ("1e-300,0,0", "1,0,0"),        # it underflows to zero
    ], ids=["overflow", "underflow"])
    def test_extreme_extra_field_keeps_its_direction(self, workdir, capsys,
                                                     field, direction):
        rows = {}
        for b in (field, direction):
            capsys.readouterr()
            assert run("polarization-table", "--extra-b", b) == 0
            rows[b] = capsys.readouterr().out.splitlines()[-2:]
        label = f"({','.join(format(float(x), 'g') for x in field.split(','))})"
        for got, want in zip(rows[field], rows[direction]):
            # the label, wider than its column, is still followed by a space
            assert got.startswith(label + " ")
            assert got[len(label):].split() == want[10:].split()
            assert want[10:].split()[1:]            # some channel is excited


class TestG2Command:
    def test_above_regime(self, workdir):
        code = run("g2", "--regime", "above", "--duration", "2s",
                   "--rate", "100000", "--bin", "2.6us", "--max-lag", "13us")
        assert code == 0
        rows = (workdir / "g2.csv").read_text().splitlines()[1:]
        g2 = np.array([float(r.split(",")[1]) for r in rows])
        assert np.abs(g2 - 1.0).max() < 0.05

    def test_below_with_washout_inversion(self, workdir):
        code = run("g2", "--regime", "below", "--duration", "1s",
                   "--rate", "200000", "--bin", "2.6us", "--max-lag", "13us",
                   "--washout-g2", "1.6")
        assert code == 0
        rows = (workdir / "g2.csv").read_text().splitlines()[1:]
        g2 = np.array([float(r.split(",")[1]) for r in rows])
        mid = len(g2) // 2
        assert g2[mid] == pytest.approx(1.6, abs=0.15)

    def test_below_without_tau_c_needs_subthreshold_point(self, workdir):
        calibrated(workdir)
        # the default operating point is above threshold, so the ASE
        # coherence time is undefined
        code = run("g2", "--regime", "below", "--duration", "1s",
                   "--rate", "1000", "--bin", "2.6us", "--max-lag", "13us")
        assert code == 3

    def test_below_coherence_time_from_rate_equation(self, workdir):
        # Below threshold the model's photon number relaxes at the rate
        # -d/dn of dn/dt = (G/(1 + n/n_sat) - kappa) n + G at its fixed
        # point.  The synthesized thermal intensity |alpha|^2 relaxes in
        # mean at 2/tau_c (its autocovariance is exp(-2|tau|/tau_c), see
        # test_photonstats::test_thermal_correlation_time), so the
        # coherence time the CLI derives must make the two rates equal.
        calibrated(workdir)
        cfg_path = workdir / "weak.cfg"
        cfg_path.write_text("pump_power = 10 uW\n")  # not hashed
        assert run("--config", str(cfg_path), "g2", "--regime", "below",
                   "--duration", "0.1s", "--rate", "10000", "--bin", "2.6us",
                   "--max-lag", "13us") == 0
        meta = parse_metadata((workdir / "g2.csv.meta.txt").read_text())
        tau_c = float(meta["run"]["tau_c"])

        cfg = load_config(str(cfg_path))
        system, op = cfg.system(), cfg.operating_point()
        calib = load_calibration("calibration.txt", cfg)
        kappa, n_sat = system.cavity.kappa, calib.n_sat
        g = gain.mode_gain(op, 0, system, calib).total
        n = float(gain.steady_state(op, (0,), system, calib).photons[0])
        assert 0.2 < g / kappa < 0.8

        def dndt(x):
            return (g / (1.0 + x / n_sat) - kappa) * x + g

        assert abs(dndt(n)) < 1e-9 * g          # the model's fixed point
        h = 1e-3 * n
        relax = -(dndt(n + h) - dndt(n - h)) / (2.0 * h)
        # n is about two photons against n_sat = 2e5: saturation moves the
        # rate from kappa - G by about 4e-5 relative
        assert 2.0 / tau_c == pytest.approx(relax, rel=1e-4)

    def test_emit_clicks(self, workdir):
        code = run("g2", "--regime", "above", "--duration", "1s",
                   "--rate", "50000", "--bin", "2.6us", "--max-lag", "13us",
                   "--emit-clicks", "run1")
        assert code == 0
        a = read_clickstream(workdir / "run1_det0.clks")
        b = read_clickstream(workdir / "run1_det1.clks")
        assert a.timestamps.size + b.timestamps.size > 40000


# sha256 of g2.csv and its sidecar (and of the click files) at seed 1 for
# the small shapes of the two g2 benchmark workloads, recorded before the
# dense correlator's float32 blocks and the leaner poissonize; the sidecars'
# again when config values became the floats nearest their decimals
_G2_PINNED = {
    "dense": (["g2", "--regime", "above", "--rate", "500kHz", "--bin", "2.6us",
               "--max-lag", "1ms", "--duration", "0.1s"], {
        "g2.csv":
            "5770e2d512342e7c9bc5f7eeeec2a46f6ef64ef1e640167597d4d9d2495edd94",
        "g2.csv.meta.txt":
            "5c13929a34a0b57411cdbde11b56150bbc98017a9ab7ff197565504c25c57abe",
    }),
    "sparse": (["g2", "--regime", "below", "--tau-c", "3us", "--bin", "1ns",
                "--max-lag", "26us", "--rate", "200kHz", "--emit-clicks",
                "clicks", "--duration", "0.1s"], {
        "g2.csv":
            "6b3dc67feb3645f42c7a2bba694340032640aa51be5c1c0bb76dd177d26535b3",
        "g2.csv.meta.txt":
            "ce187a4af16ef42ed66cb7508faf9bcfa9853b6a333ca7e4da870428fa277217",
        "clicks_det0.clks":
            "a745c69267ac5a04e71faf3a6f45d6482678fe669f3445a734df23c81df9cc0b",
        "clicks_det1.clks":
            "4ae19a943efe0db584b12058b26cef7dcc00143bc5d9b71d335529290dc533fc",
    }),
}


# sha256 of the scan tables and sidecars at seed 1, and of calibration.txt,
# recorded when config values became the floats nearest their decimals
_TABLES_PINNED = {
    "calibrate": (["calibrate"], {
        "calibration.txt":
            "b59244ee70d79d4a4b27fbf57844e68f0422ceadf09ec846d9dd182df5537f73",
    }),
    "map": (["map"], {
        "map.csv":
            "f6bb90dc06cda5ef32735a19ccc256ff0fa38e3e0870982163717177f8bb3e71",
        "map.csv.meta.txt":
            "cb3bd280e48c5fc83a0bd2a5ec6edffa21e178f2992b616bda9446bf9083f7ae",
    }),
    "threshold": (["threshold", "--vary", "pump", "--min", "1uW", "--max",
                   "1mW", "--points", "5"], {
        "threshold.csv":
            "8a82b4c59961019d8cf656c99a3aae00d400b0a8408fec22565d003703c0eb2b",
        "threshold.csv.meta.txt":
            "9ee1a07162c28214d3a47be70144f2c5e504eabfffb96a243db4a0822e69acae",
    }),
    "shift-scan": (["shift-scan", "--vary", "b_offset", "--min", "1.5",
                    "--max", "2.5", "--step", "1"], {
        "shift_scan.csv":
            "0745a1e1c9eb19e18e4cb9512de4117fbe22ef4ae766ddf46299265544863182",
        "shift_scan.csv.meta.txt":
            "2be983715d8c88b04f33092ccf03a7fbb54c8e346e963ee50d381f2ea17fb10a",
    }),
}


@pytest.mark.parametrize("command", list(_TABLES_PINNED))
def test_table_outputs_match_pinned_digests(workdir, command):
    argv, digests = _TABLES_PINNED[command]
    calibrated(workdir)
    assert run("--seed", "1", *argv) == 0
    got = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests


@pytest.mark.parametrize("shape", list(_G2_PINNED))
def test_g2_outputs_match_pinned_digests(workdir, shape):
    argv, digests = _G2_PINNED[shape]
    assert run("--seed", "1", *argv) == 0
    got = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests


def test_repeated_main_calls_write_identical_files(workdir):
    # main() reuses one parser per process
    argv = ["--out", "t.csv", "threshold", "--vary", "pump", "--min", "1uW",
            "--max", "1mW", "--points", "5"]
    calibrated(workdir)
    outputs = []
    for _ in range(2):
        assert run(*argv) == 0
        outputs.append([(workdir / name).read_bytes()
                        for name in ("t.csv", "t.csv.meta.txt")])
    assert outputs[0] == outputs[1]


def test_usage_error_leaves_the_parser_usable(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run("clicks", "--regime", "poisson", "--rate", "fast",
            "--duration", "0.1s")
    assert exc.value.code == 2
    assert "argument --rate" in capsys.readouterr().err
    assert run("clicks", "--regime", "poisson", "--rate", "1000",
               "--duration", "0.1s") == 0
    assert read_clickstream(workdir / "clicks_det0.clks").timestamps.size


class TestClicksCommand:
    def test_binary_export(self, workdir):
        code = run("clicks", "--regime", "poisson", "--rate", "20000",
                   "--duration", "1s")
        assert code == 0
        stream = read_clickstream(workdir / "clicks_det0.clks")
        assert stream.timestamps.size > 8000

    def test_text_export(self, workdir):
        code = run("clicks", "--regime", "laser", "--rate", "5000",
                   "--duration", "1s", "--format", "txt")
        assert code == 0
        lines = (workdir / "clicks_det0.txt").read_text().splitlines()
        assert len(lines) > 2000

    def test_seed_changes_output(self, workdir):
        run("clicks", "--regime", "poisson", "--rate", "5000",
            "--duration", "1s", "--prefix", "s1")
        run("--seed", "77", "clicks", "--regime", "poisson", "--rate", "5000",
            "--duration", "1s", "--prefix", "s2")
        a = (workdir / "s1_det0.clks").read_bytes()
        b = (workdir / "s2_det0.clks").read_bytes()
        assert a != b


@pytest.mark.parametrize("window", [
    ("--bin", "0", "--max-lag", "13us", "--duration", "1s"),
    ("--bin", "2.6us", "--max-lag", "1us", "--duration", "1s"),
    ("--bin", "2.6us", "--max-lag", "2s", "--duration", "1s"),
    ("--bin", "1e-19s", "--max-lag", "1e-18s", "--duration", "1s"),
], ids=["zero-bin", "max-lag-below-bin", "max-lag-beyond-duration",
        "bin-index-overflow"])
def test_bad_g2_window_is_usage_error(workdir, monkeypatch, window):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("the window must be checked before synthesis")

    monkeypatch.setattr("motlaser.cli.photonstats.simulate_intensity",
                        no_synthesis)
    assert run("g2", "--regime", "above", "--rate", "1000", *window) == 2
    assert not (workdir / "g2.csv").exists()


@pytest.mark.parametrize("argv,consumer", [
    (_G2_PINNED["sparse"][0], "g2_cross"),
    (["clicks", "--regime", "thermal", "--rate", "100kHz", "--duration",
      "0.1s"], "write_clickstream"),
], ids=["g2", "clicks"])
def test_trace_released_before_the_clicks_are_used(workdir, monkeypatch,
                                                    argv, consumer):
    # the trace is the largest array of the run: it is gone before the
    # click files and the correlator allocate theirs
    traces, alive = [], []
    synthesize, use = photonstats.simulate_intensity, \
        getattr(photonstats, consumer)

    def synthesized(*args, **kwargs):
        trace = synthesize(*args, **kwargs)
        traces.append(weakref.ref(trace.samples))
        return trace

    def used(*args, **kwargs):
        alive.append(traces[0]() is not None)
        return use(*args, **kwargs)

    monkeypatch.setattr(photonstats, "simulate_intensity", synthesized)
    monkeypatch.setattr(photonstats, consumer, used)
    assert run(*argv) == 0
    assert len(traces) == 1 and alive and not any(alive)


@pytest.mark.parametrize("regime", [("above",), ("below", "--tau-c", "1us")],
                         ids=["above", "below"])
def test_empty_click_stream_exit_code(workdir, capsys, regime):
    # about 0.01 expected clicks: a detector records none
    assert run("g2", "--regime", *regime, "--rate", "1Hz", "--bin", "1us",
               "--max-lag", "2us", "--duration", "0.01s",
               "--emit-clicks", "run") == 3
    assert "recorded no clicks" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("line", ["pump_power = -1mW", "cloud_radius = 0",
                                  "total_atoms = -10", "pump_waist = 0",
                                  "families = 0,-37", "families = 0,0,37",
                                  "seed = -1", "atom_mass = -1",
                                  "laser_ripple = -0.5"])
def test_out_of_range_config_value_exit_code(workdir, monkeypatch, capsys,
                                             line):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("the config must be checked before synthesis")

    monkeypatch.setattr("motlaser.cli.photonstats.simulate_intensity",
                        no_synthesis)
    bad = workdir / "bad.cfg"
    bad.write_text(line + "\n")
    key = line.split(" = ")[0]
    # g2 and clicks build no domain object: config parsing alone must
    # reject the value, and the message must name the key
    for argv in (("calibrate",),
                 ("g2", "--regime", "above", "--rate", "1000", "--bin", "1us",
                  "--max-lag", "2us", "--duration", "0.01s"),
                 ("clicks", "--regime", "poisson", "--rate", "1000",
                  "--duration", "0.1s")):
        assert run("--config", str(bad), *argv) == 2
        assert key in capsys.readouterr().err
    assert list(workdir.iterdir()) == [bad]


def _constructors_accept(cfg) -> bool:
    # the domain objects, and the laser-regime synthesis, the one reader of
    # laser_ripple
    try:
        cfg.system()
        cfg.operating_point()
        simulate_intensity("laser", 1.0, 0.0, 1.0, 0.5, seed=0,
                           laser_ripple=cfg["laser_ripple"])
    except (ValueError, PhysicsError):
        return False
    return True


def test_config_bounds_match_domain_constructors():
    # the bounds config parsing enforces must be exactly those of the domain
    # objects the config builds: a value a constructor rejects fails to
    # parse, and one it accepts parses to the same number
    base = default_config()
    drift = []
    for key, value in base.as_dict().items():
        if not isinstance(value, float):
            continue
        for number in (-1.0, -1e-300, 0.0, 1e-300, 0.5, 1.0, 1.5, 1e300):
            accepted = _constructors_accept(base.replace(**{key: number}))
            try:
                parsed = parse_config_text(f"{key} = {number!r}\n")
            except ConfigError as exc:
                assert key in str(exc)
                parsed = None
            if accepted != (parsed is not None) or \
                    (parsed is not None and parsed[key] != number):
                drift.append((key, number, accepted))
    assert drift == []
    # the spelled-out atom_mass default is the atomic layer's constant
    assert base["atom_mass"] == MASS_YB174
    assert _KEYS["atom_mass"][1] == repr(MASS_YB174)


@pytest.mark.parametrize("seed", ["-1", str(2**64)], ids=["negative", "2^64"])
def test_seed_out_of_range_exit_code(workdir, seed):
    with pytest.raises(SystemExit) as exc:
        run("--seed", seed, "g2", "--regime", "above", "--rate", "1000",
            "--bin", "1us", "--max-lag", "2us", "--duration", "0.01s")
    assert exc.value.code == 2
    assert list(workdir.iterdir()) == []


def test_largest_seed_runs(workdir):
    assert run("--seed", str(2**64 - 1), "clicks", "--regime", "poisson",
               "--rate", "1000", "--duration", "0.1s") == 0


@pytest.mark.parametrize("config", ["missing.cfg", ".", "latin1.cfg"],
                         ids=["missing", "directory", "not-utf8"])
def test_unreadable_config_exit_code(workdir, capsys, config):
    (workdir / "latin1.cfg").write_bytes(b"# \xb5m in Latin-1\nseed = 3\n")
    assert run("--config", config, "calibrate") == 2
    assert "cannot read configuration" in capsys.readouterr().err
    assert not (workdir / "calibration.txt").exists()


@pytest.mark.parametrize("vary,bounds", [("pump", ("--min=-1mW", "--max=10mW")),
                                         ("atoms", ("--min=-10", "--max=3e4"))])
def test_negative_threshold_min_exit_code(workdir, vary, bounds):
    calibrated(workdir)
    assert run("threshold", "--vary", vary, *bounds) == 2
    assert not (workdir / "threshold.csv").exists()


@pytest.mark.parametrize("argv", [
    ("threshold", "--vary", "pump", "--min", "1uW", "--max", "1mW",
     "--points", "-1"),
    ("threshold", "--vary", "pump", "--min", "1uW", "--max", "1mW",
     "--points", "0"),
    ("g2", "--regime", "below", "--duration", "1s", "--rate", "1000",
     "--bin", "2.6us", "--max-lag", "13us", "--washout-g2", "3"),
    ("polarization-table", "--extra-b", "a,b,c"),
    ("map", "--cavity-max", "1e400"),
    ("threshold", "--vary", "pump", "--min", "1uW", "--max", "1e999"),
    ("clicks", "--regime", "poisson", "--rate", "1e999", "--duration", "0.1s"),
    ("g2", "--regime", "above", "--rate", "1e999", "--duration", "0.1s",
     "--bin", "1us", "--max-lag", "13us"),
], ids=["negative-points", "zero-points", "washout-above-2", "extra-b-text",
        "infinite-range", "threshold-infinite-max", "clicks-infinite-rate",
        "g2-infinite-rate"])
def test_bad_option_value_exit_code(workdir, monkeypatch, argv):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("options must be checked before synthesis")

    monkeypatch.setattr("motlaser.cli.photonstats.simulate_intensity",
                        no_synthesis)
    calibrated(workdir)
    assert exit_code("--out", "out.txt", *argv) == 2
    assert not (workdir / "out.txt").exists()
    assert not (workdir / "out.txt.meta.txt").exists()


@pytest.mark.parametrize("argv,option", [
    (("map", "--pump-min", "0", "--pump-max", "0", "--pump-step", "1e300GHz",
      "--cavity-min", "0", "--cavity-max", "0"), "--pump-step"),
    (("g2", "--regime", "above", "--rate", "1e300GHz", "--duration", "0.1s",
      "--bin", "1us", "--max-lag", "13us"), "--rate"),
], ids=["map-step", "g2-rate"])
def test_overflowing_quantity_is_usage_error(workdir, capsys, argv, option):
    calibrated(workdir)
    with pytest.raises(SystemExit) as exc:
        run("--out", "out.csv", *argv)
    assert exc.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err
    assert not (workdir / "out.csv").exists()


def test_infinite_map_step_exit_code(workdir, capsys):
    # one cell at pump_min + inf * 0 was a NaN coordinate, written empty
    calibrated(workdir)
    assert exit_code("map", "--pump-min", "0", "--pump-max", "0",
                     "--pump-step", "1e999", "--cavity-min", "0",
                     "--cavity-max", "0") == 2
    assert ("argument --pump-step: '1e999' is not a finite number"
            in capsys.readouterr().err)
    assert not (workdir / "map.csv").exists()


@pytest.mark.parametrize("argv", [
    ("--out", "missing/map.csv", "map", "--pump-min=0", "--pump-max=0",
     "--cavity-min=-1MHz", "--cavity-max=0"),
    ("--out", "taken", "map", "--pump-min=0", "--pump-max=0",
     "--cavity-min=-1MHz", "--cavity-max=0"),
    ("--out", "missing/g2.csv", "g2", "--regime", "above", "--rate", "50kHz",
     "--bin", "2.6us", "--max-lag", "20us", "--duration", "0.05s"),
    ("g2", "--regime", "above", "--rate", "50kHz", "--bin", "2.6us",
     "--max-lag", "20us", "--duration", "0.05s",
     "--emit-clicks", "missing/clicks"),
    ("--out", "taken", "g2", "--regime", "above", "--rate", "50kHz",
     "--bin", "2.6us", "--max-lag", "20us", "--duration", "0.05s"),
    ("--out", "taken", "polarization-table"),
    ("--out", "missing/c.csv", "clicks", "--regime", "poisson", "--rate",
     "1000", "--duration", "0.1s"),
    ("--out", "taken", "clicks", "--regime", "poisson", "--rate", "1000",
     "--duration", "0.1s"),
    ("clicks", "--regime", "poisson", "--rate", "1000", "--duration", "0.1s",
     "--prefix", "missing/c"),
    ("clicks", "--regime", "thermal", "--rate", "1000", "--duration", "0.1s",
     "--format", "txt", "--prefix", "missing/c"),
], ids=["map-missing-dir", "map-onto-dir", "g2-missing-dir",
        "g2-emit-clicks", "g2-onto-dir", "polarization-table-onto-dir",
        "clicks-missing-dir", "clicks-onto-dir", "clicks-prefix",
        "clicks-text-prefix"])
def test_unwritable_output_exit_code(workdir, monkeypatch, capsys, argv):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("outputs must be checked before synthesis")

    monkeypatch.setattr("motlaser.cli.photonstats.simulate_intensity",
                        no_synthesis)
    calibrated(workdir)
    (workdir / "taken").mkdir()
    before = sorted(workdir.iterdir())
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert "missing/" in err or "taken" in err
    # no output, no temporary and no probe file is left behind
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ("g2", "--regime", "below", "--tau-c", "3us", "--washout-g2", "1.6"),
    ("g2", "--regime", "above", "--tau-c", "3us"),
    ("g2", "--regime", "above", "--washout-g2", "1.6"),
    ("clicks", "--regime", "poisson", "--tau-c", "5us"),
    ("clicks", "--regime", "laser", "--tau-c", "5us"),
], ids=["g2-tau-c-and-washout", "g2-above-tau-c", "g2-above-washout",
        "clicks-poisson-tau-c", "clicks-laser-tau-c"])
def test_coherence_option_that_changes_no_output_exit_code(
        workdir, monkeypatch, argv):
    # the washout target would be dropped, and a coherence time outside
    # the thermal regime would only be written into the sidecar
    def no_synthesis(*args, **kwargs):
        raise AssertionError("options must be checked before synthesis")

    monkeypatch.setattr("motlaser.cli.photonstats.simulate_intensity",
                        no_synthesis)
    calibrated(workdir)
    before = sorted(workdir.iterdir())
    command = argv[0]
    lengths = ("--bin", "2.6us", "--max-lag", "13us") if command == "g2" \
        else ()
    assert exit_code(*argv, "--rate", "1000", "--duration", "0.1s",
                     *lengths) == 2
    assert sorted(workdir.iterdir()) == before


def _files(directory):
    return {path.name: path.read_bytes() if path.is_file() else None
            for path in directory.iterdir()}


def test_table_and_sidecar_land_as_a_pair(workdir, capsys, monkeypatch):
    # the sidecar cannot be written: the table must not land without it
    calibrated(workdir)
    (workdir / "map.csv.meta.txt").mkdir()
    before = _files(workdir)
    capsys.readouterr()
    assert run("map", "--pump-min=0", "--pump-max=0", "--cavity-min=-1MHz",
               "--cavity-max=0") == 2
    assert capsys.readouterr().err == \
        "error: cannot write map.csv.meta.txt: Is a directory\n"
    assert _files(workdir) == before

    # a calibration (another seed, so other bytes) that cannot be renamed
    # into place keeps the previous file byte for byte, and no temporary
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src)

    monkeypatch.setattr(os, "replace", refuse)
    assert run("--seed", "5", "calibrate") == 2
    assert capsys.readouterr().err == \
        "error: cannot write calibration.txt: Permission denied\n"
    assert _files(workdir) == before


@pytest.mark.parametrize("argv", [
    ("map", "--cavity-step", "1e-9Hz"),
    ("map", "--pump-min=-1GHz", "--pump-max=1GHz", "--pump-step=1kHz",
     "--cavity-min=-1GHz", "--cavity-max=1GHz", "--cavity-step=1kHz"),
    ("threshold", "--vary", "pump", "--min", "1uW", "--max", "1mW",
     "--points", str(10**15)),
    ("shift-scan", "--vary", "b_offset", "--min", "1.5", "--max", "4.5",
     "--step", "1e-15"),
    ("g2", "--regime", "above", "--rate", "1kHz", "--bin", "1ns",
     "--max-lag", "1s", "--duration", "2s"),
], ids=["map-axis", "map-cells", "threshold-points", "shift-scan-points",
        "g2-lags"])
def test_oversized_scan_exit_code(workdir, monkeypatch, capsys, argv):
    # each size is refused from the range arithmetic; without the cap the
    # first three grids would be petabytes, which numpy refuses with a
    # traceback, the fourth a 4e12-cell map, and the g2 table 2e9 rows
    def no_solve(*args, **kwargs):
        raise AssertionError("the size must be checked before any solve")

    for name in ("detuning_map", "threshold_scan", "optimum_scan"):
        monkeypatch.setattr(gain, name, no_solve)
    calibrated(workdir)
    capsys.readouterr()
    assert run("--out", "out.csv", *argv) == 2
    assert f"above the cap of {MAX_POINTS:.0e}" in capsys.readouterr().err
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("field", ["1,nan,0", "inf,0,0", "0,-inf,1"])
def test_non_finite_extra_b_exit_code(workdir, capsys, field):
    assert run("--out", "table.txt", "polarization-table",
               "--extra-b", field) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (workdir / "table.txt").exists()


def test_shift_scan_near_the_float_limit(workdir, capsys):
    # x**2 overflows in the slope fit: the trap-detuning scan still fits
    # its unit slope, and a field whose square overflows is refused.  The
    # ~5 MHz intercept is far below the ulp of the optima, so it is left
    # empty, with no other key in its place.
    calibrated(workdir)
    argv = ["--min", "1e300", "--max", "2e300", "--step", "1e300"]
    assert run("shift-scan", "--vary", "mot_detuning", *argv) == 0
    fit = parse_metadata(
        (workdir / "shift_scan.csv.meta.txt").read_text())["fit"]
    assert float(fit["slope_hz_per_hz"]) == pytest.approx(1.0, rel=1e-12)
    assert fit == {"slope_hz_per_hz": fit["slope_hz_per_hz"],
                   "intercept_hz": ""}
    capsys.readouterr()
    assert run("--out", "b.csv", "shift-scan", "--vary", "b_offset",
               *argv) == 3
    assert "offset field (1e+300, 0.0, 0.0) G overflows" in \
        capsys.readouterr().err
    assert not (workdir / "b.csv").exists()


def test_threshold_without_families_writes_integer_totals(workdir):
    # the total of no family is the integer 0 of an empty sum
    (workdir / "none.cfg").write_text("families = \n")
    assert run("--config", "none.cfg", "calibrate") == 0
    assert run("--config", "none.cfg", "threshold", "--vary", "pump",
               "--min", "1uW", "--max", "1mW", "--points", "2") == 0
    assert (workdir / "threshold.csv").read_text() == (
        "pump,power_w\n"
        "9.99999999999999955e-07,0\n"
        "1.00000000000000002e-03,0\n")


def test_unreadable_calibration_exit_code(workdir, capsys):
    (workdir / "cal").mkdir()
    assert run("--calibration", "cal", "map") == 4
    assert "cannot read calibration file cal" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["1.0000001", "1.9999999"],
                         ids=["below-reach", "above-reach"])
def test_washout_out_of_reach_exit_code(workdir, capsys, target):
    # inside (1, 2), but no coherence time in [bin 1e-6, bin 1e6] gives it
    assert run("--out", "out.csv", "g2", "--regime", "below",
               "--washout-g2", target, "--bin", "1us", "--max-lag", "20us",
               "--rate", "200kHz", "--duration", "0.05s") == 2
    err = capsys.readouterr().err
    assert "out of reach" in err and "give g2(0) from 1.00000" in err
    assert not (workdir / "out.csv").exists()


def test_washout_near_two_is_reachable(workdir):
    # the top of the reach at 1 us bins is 2 - x/3 = 1.99999933 (x = 2e-6);
    # 1.9999985 needs tau_c = 0.44 s, so at least 44 s of clicks
    assert run("g2", "--regime", "below", "--washout-g2", "1.9999985",
               "--bin", "1us", "--max-lag", "20us", "--rate", "1kHz",
               "--duration", "50s") == 0
    meta = parse_metadata((workdir / "g2.csv.meta.txt").read_text())
    assert float(meta["run"]["tau_c"]) == pytest.approx(0.444, rel=1e-3)


def test_oversized_trace_is_refused_before_allocation(workdir, monkeypatch,
                                                      capsys):
    # --washout-g2 1.000002 inverts to tau_c = 2e-12 s: 2.5e11 samples
    def no_synthesis(*args, **kwargs):
        raise AssertionError("the sample count must be checked first")

    monkeypatch.setattr("motlaser.photonstats._rng", no_synthesis)
    assert run("g2", "--regime", "below", "--washout-g2", "1.000002",
               "--bin", "1us", "--max-lag", "20us", "--rate", "200kHz",
               "--duration", "0.05s") == 3
    err = capsys.readouterr().err
    assert "2.5e+11 samples" in err and "cap of 5e+07 samples" in err
    assert not (workdir / "g2.csv").exists()


def test_g2_window_checked_against_the_trace_duration(workdir, monkeypatch,
                                                      capsys):
    # 0.1005 s of 1 ms samples is a 0.1 s trace, too short for 100 bins of
    # 1 ms; g2_cross refused it only after the synthesis, with a traceback
    def no_synthesis(*args, **kwargs):
        raise AssertionError("the window must be checked before synthesis")

    with monkeypatch.context() as m:
        m.setattr("motlaser.cli.photonstats.simulate_intensity", no_synthesis)
        assert run("g2", "--regime", "above", "--duration", "0.1005s",
                   "--rate", "50kHz", "--bin", "1ms",
                   "--max-lag", "100.2ms") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: g2 window: max_lag, rounded to 100 bins, "
                          "exceeds the stream duration 0.1 s")
    assert list(workdir.iterdir()) == []
    # 0.1006 s is a 0.101 s trace: 1007 bins of 0.1 ms fit in it, though
    # not in --duration
    assert run("g2", "--regime", "above", "--duration", "0.1006s",
               "--rate", "50kHz", "--bin", "0.1ms",
               "--max-lag", "100.7ms") == 0
    assert len((workdir / "g2.csv").read_text().splitlines()) == 1 + 2015


@pytest.mark.parametrize("config,argv,message", [
    (None, ("g2", "--regime", "above", "--rate", "1e30", "--duration", "0.1s",
            "--bin", "1us", "--max-lag", "13us"), "1e+29 expected clicks"),
    ("laser_ripple = 1e300", ("clicks", "--regime", "laser", "--rate", "1000",
                              "--duration", "0.1s"), "expected clicks"),
], ids=["g2-rate-1e30", "ripple-1e300"])
def test_click_count_cap_exit_code(workdir, capsys, config, argv, message):
    # each ended in numpy's "lam value too large" traceback, exit 1
    if config:
        (workdir / "run.cfg").write_text(config + "\n")
        argv = ("--config", "run.cfg") + argv
    before = sorted(workdir.iterdir())
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("threads", ["-3", "0", "two"])
def test_threads_below_one_exit_code(workdir, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        run("--threads", threads, "clicks", "--regime", "poisson",
            "--rate", "1000", "--duration", "0.1s")
    assert exc.value.code == 2
    assert "argument --threads" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("vary,bounds", [("pump", ("1uW", "1mW")),
                                         ("atoms", ("0", "3e4"))])
def test_threshold_scan_is_one_solve(workdir, monkeypatch, vary, bounds):
    calibrated(workdir)
    real = gain._saturation
    calls = {"count": 0}

    def counted(gains, kappa, n_sat):
        calls["count"] += 1
        return real(gains, kappa, n_sat)

    monkeypatch.setattr(gain, "_saturation", counted)
    assert run("threshold", "--vary", vary, "--min", bounds[0],
               "--max", bounds[1]) == 0
    assert calls["count"] == 1


def test_every_hashed_key_changes_an_output():
    # a key sealed into the calibration hash must move the calibration or
    # the output at the default operating point; Doppler broadening is on
    # so that temperature and atom_mass take part
    base = default_config().replace(pump_doppler=True)

    def outputs(cfg):
        system, op = cfg.system(), cfg.operating_point()
        calib = gain.calibrate(system, op)
        sol = gain.steady_state(op, cfg.families(), system, calib)
        return (calib.gain_scale, calib.n_sat,
                *(gain.output_power(sol.photons[n], system.cavity,
                                    system.green.wavelength)
                  for n in cfg.families()))

    reference = outputs(base)
    dead = []
    for key, value in base.as_dict().items():
        if key in _HASH_EXCLUDED:
            continue
        if isinstance(value, bool):
            changed = not value
        else:
            changed = 0.5 if value == 0 else 1.1 * value
        if outputs(base.replace(**{key: changed})) == reference:
            dead.append(key)
    assert dead == []


def test_unknown_config_key_exit_code(workdir):
    bad = workdir / "bad.cfg"
    bad.write_text("pump_powr = 7 mW\n")
    assert run("--config", str(bad), "calibrate") == 2


def test_render_table_stable_against_config(workdir):
    # the canonical rows do not depend on scan settings in the config
    cfg = default_config().replace(mot_detuning=-28e6)
    assert render_polarization_table(cfg) == \
        render_polarization_table(default_config())


# ---------------------------------------------------------------------------
# Start-up: no scipy, and no gain layer for the photon-statistics commands
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"

# g2 and clicks run first, so that what they load shows on its own
_PHOTON_RUNS = [
    ["g2", "--regime", "above", "--duration", "0.1s", "--rate", "50kHz",
     "--bin", "2.6us", "--max-lag", "13us"],
    ["g2", "--regime", "below", "--tau-c", "3us", "--duration", "0.01s",
     "--rate", "200kHz", "--bin", "1us", "--max-lag", "10us"],
    ["g2", "--regime", "below", "--washout-g2", "1.6", "--duration", "0.01s",
     "--rate", "200kHz", "--bin", "2.6us", "--max-lag", "13us"],
    ["clicks", "--regime", "thermal", "--rate", "100kHz",
     "--duration", "0.05s"],
]
_MODEL_RUNS = [
    ["calibrate"],
    ["map", "--pump-min=-2MHz", "--pump-max=2MHz", "--cavity-min=-32MHz",
     "--cavity-max=-28MHz", "--cavity-step=2MHz"],
    ["threshold", "--vary", "pump", "--min", "1uW", "--max", "1mW",
     "--points", "5"],
    ["shift-scan", "--vary", "b_offset", "--min", "1.5", "--max", "2.5",
     "--step", "1"],
    ["polarization-table"],
]

_NO_SCIPY_SCRIPT = r"""
import json, sys
import motlaser
numpy_on_import = "numpy" in sys.modules
from motlaser.cli import main
photon_runs, model_runs = json.loads(sys.argv[1])
codes = [main(argv) for argv in photon_runs]
layers = ("motlaser.gain", "motlaser.geometry", "motlaser.atomics")
after_photon = [m for m in layers if m in sys.modules]
codes += [main(argv) for argv in model_runs]
exports = {name: getattr(motlaser, name) for name in motlaser.__all__}
not_same = sorted(name for name, obj in exports.items()
                  if getattr(sys.modules[obj.__module__], name) is not obj)
print(json.dumps({"codes": codes, "numpy_on_import": numpy_on_import,
                  "layers_after_photon": after_photon, "exports": len(exports),
                  "exports_not_same": not_same, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_commands_load_no_scipy(tmp_path):
    # a fresh interpreter: a later top-level scipy import anywhere in the
    # package would put ~1 s back on every command's start-up, and a
    # top-level gain import in cli or config ~30 ms on g2's and clicks'
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT,
         json.dumps([_PHOTON_RUNS, _MODEL_RUNS])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * (len(_PHOTON_RUNS) + len(_MODEL_RUNS))
    assert result["scipy"] == []
    assert result["numpy_on_import"] is False
    assert result["layers_after_photon"] == []
    assert result["exports"] > 0 and result["exports_not_same"] == []


def _scipy_imports(path):
    """(module, enclosing function or None) of each scipy import."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append((path.stem, where))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_scipy_imported_only_where_no_command_path_runs():
    # numpy is the package's only runtime dependency: scipy is the tests'
    # oracle, and no module imports it, not even inside a function
    found = [hit for path in sorted((SRC / "motlaser").glob("*.py"))
             for hit in _scipy_imports(path)]
    assert found == []


# ---------------------------------------------------------------------------
# The exit-code contract under hostile argv
# ---------------------------------------------------------------------------

# Tame and hostile values for every option of the parser, by (command,
# dest) or by dest.  Hostile ones are negative, zero, infinite (1e999),
# huge or malformed spellings and bad paths; an option takes one with
# probability 1/4, so that most examples get past the first check.
# Options take them as --flag=value, so that a leading minus is read as a
# value.  The tame values keep each run small: a map has at most the
# default 21 x 61 cells, a threshold scan the default 40 points, a shift
# scan 4 points and a g2 run 1e4 clicks; a hostile range is so large that
# a size cap refuses it before anything is allocated.
_VALUES = {
    "config": (["tame.cfg"], ["missing.cfg", ".", "ripple.cfg",
                              "negative.cfg", "pump.cfg"]),
    "seed": (["0", "18446744073709551615"], ["-1", "18446744073709551616",
                                              "x"]),
    "out": (["out.csv"], ["missing/out.csv", "."]),
    "calibration": (["calibration.txt"], ["missing.txt", ".", "stale.txt"]),
    "threads": (["1", "7"], ["-3", "0", "x"]),
    ("map", "pump_min"): (["-10MHz", "0"], ["-1e999", "-1e300", "nan"]),
    ("map", "pump_max"): (["0", "10MHz"], ["1e999", "-20MHz", "1e300"]),
    ("map", "pump_step"): (["5MHz", "1e300"], ["-1MHz", "0", "1e-300",
                                                "1e999", "1e300GHz"]),
    ("map", "cavity_min"): (["-40MHz", "-30MHz"], ["-1e999", "-1e300"]),
    ("map", "cavity_max"): (["-20MHz", "-30MHz"], ["1e999", "-50MHz",
                                                   "1e300"]),
    ("map", "cavity_step"): (["5MHz"], ["-1MHz", "0", "1e-300", "1e300"]),
    ("threshold", "min"): (["0", "1uW", "1e-300"], ["-1", "1e300", "1e999",
                                                    "nan"]),
    ("threshold", "max"): (["1mW", "3e4"], ["0", "-1", "1e300", "1e999"]),
    ("threshold", "points"): (["1", "5"], ["-1", "0", str(10**15), "x"]),
    ("shift-scan", "min"): (["-1", "1.5"], ["1e300", "-1e999", "nan"]),
    ("shift-scan", "max"): (["2.5"], ["-1", "1e300", "1e999", "nan"]),
    ("shift-scan", "step"): (["1"], ["-1", "0", "1e-300", "1e999"]),
    "extra_b": (["1,0,0", "0,0,-1", "1e-300,0,0", "1e300,1e300,0"],
                ["0,0,0", "1,nan,0", "1e999,0,0", "a,b,c", "1,2"]),
    "duration": (["5ms", "10ms", "0.1005s"], ["-1s", "0", "1e999",
                                              "1e300"]),
    "rate": (["1Hz", "100kHz"], ["-1", "0", "1e999", "1e30", "1e300GHz"]),
    "bin": (["1ns", "1us", "1ms"], ["-1us", "0", "1e-19s", "1e999"]),
    "max_lag": (["13us", "1ms", "100.2ms"], ["-1us", "0", "1e999"]),
    "tau_c": (["1us", "100us"], ["-1us", "0", "1e-300", "1e999"]),
    "washout_g2": (["1.000002", "1.6", "1.9999985"],
                   ["-1", "1", "1.0000001", "2", "nan", "inf", "x"]),
    "emit_clicks": (["run"], ["missing/run", "."]),
    "prefix": (["clicks"], ["missing/c", "."]),
}


def _options(parser):
    return [a for a in parser._actions if a.option_strings and not
            isinstance(a, (argparse._HelpAction, argparse._VersionAction))]


_PARSER = build_parser()
_COMMANDS = next(a for a in _PARSER._actions
                 if isinstance(a, argparse._SubParsersAction)).choices


def _draw_options(draw, parser, command):
    argv = []
    for action in _options(parser):
        if not (action.required or draw(st.booleans())):
            continue
        if action.choices:
            tame, hostile = sorted(action.choices), []
        else:
            tame, hostile = _VALUES.get((command, action.dest),
                                        _VALUES.get(action.dest, ([], [])))
        assert tame, f"no values for {action.option_strings[0]}"
        repeats = 2 if isinstance(action, argparse._AppendAction) else 1
        for _ in range(draw(st.integers(1, repeats))):
            pool = hostile if hostile and draw(st.integers(0, 3)) == 0 \
                else tame
            value = draw(st.sampled_from(pool))
            argv.append(f"{action.option_strings[0]}={value}")
    return argv


@st.composite
def _hostile_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    return (_draw_options(draw, _PARSER, None) + [command]
            + _draw_options(draw, _COMMANDS[command], command))


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """The files an example may name: a calibration, a stale one, and
    configurations with hostile values."""
    base = tmp_path_factory.mktemp("contract")
    cwd = os.getcwd()
    os.chdir(base)
    tiny = "b_offset_x = 1e-200 G\nb_offset_y = 1e-200 G\n"
    (base / "tiny.cfg").write_text(tiny)
    try:
        assert main(["calibrate"]) == 0
        assert main(["--config", "tiny.cfg", "--out", "tiny_calibration.txt",
                     "calibrate"]) == 0
    finally:
        os.chdir(cwd)
    text = (base / "calibration.txt").read_text()
    stored = parse_metadata(text)["provenance"]["config_hash"]
    return {"calibration.txt": text,
            # a field whose square underflows, and its own calibration
            "tiny.cfg": tiny,
            "tiny_calibration.txt":
                (base / "tiny_calibration.txt").read_text(),
            "stale.txt": text.replace(stored, "0" * len(stored)),
            "ripple.cfg": "laser_ripple = 1e300\n",
            "tame.cfg": "laser_ripple = 0.02\nseed = 7\n",
            "negative.cfg": "laser_ripple = -0.5\n",
            # pump power is not hashed: the calibration stays valid
            "pump.cfg": "pump_power = 1e300 W\n"}


# default table and number of leading coordinate columns of each scan
_COORDINATES = {"map": ("map.csv", 2), "threshold": ("threshold.csv", 1),
                "shift-scan": ("shift_scan.csv", 1)}


@given(argv=_hostile_argv())
@example(argv=["map", "--pump-min=0", "--pump-max=0", "--pump-step=1e999",
               "--cavity-min=0", "--cavity-max=0"])
@example(argv=["map", "--pump-min=-1e300", "--pump-step=1e300"])
@example(argv=["g2", "--regime", "above", "--duration", "0.1005s",
               "--rate", "50kHz", "--bin", "1ms", "--max-lag", "100.2ms"])
@example(argv=["g2", "--regime", "above", "--rate", "1e30",
               "--duration", "0.1s", "--bin", "1us", "--max-lag", "13us"])
@example(argv=["clicks", "--regime", "poisson", "--rate", "1e999",
               "--duration", "0.1s"])
@example(argv=["--config", "ripple.cfg", "clicks", "--regime", "laser",
               "--rate", "1000", "--duration", "0.1s"])
@example(argv=["--config", "ripple.cfg", "clicks", "--regime", "laser",
               "--rate", "1e30", "--duration", "5ms"])
@example(argv=["shift-scan", "--vary", "mot_detuning", "--min", "1e300",
               "--max", "2e300", "--step", "1e300"])
@example(argv=["shift-scan", "--vary", "b_offset", "--min", "1e300",
               "--max", "2e300", "--step", "1e300"])
@example(argv=["--config=tiny.cfg", "--calibration=tiny_calibration.txt",
               "shift-scan", "--vary", "b_offset", "--min", "1", "--max",
               "3", "--step", "1"])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exit_code_contract_on_hostile_argv(contract_files, tmp_path_factory,
                                            argv):
    # every argv ends in 0, 2, 3 or 4, never in a traceback.  The caps are
    # lowered so that no example allocates more than a few MB; they are
    # refused the same way, only sooner.
    work = tmp_path_factory.mktemp("argv")
    for name, text in contract_files.items():
        (work / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with mock.patch.object(photonstats, "MAX_SAMPLES", 200_000), \
                mock.patch.object(photonstats, "MAX_CLICKS", 100_000), \
                mock.patch.object(cli, "MAX_POINTS", 10_000):
            try:
                code = main(argv)
            except SystemExit as exc:      # argparse's usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    command = next(a for a in argv if a in _COMMANDS)
    if code == 0 and command in _COORDINATES:
        outs = [a.split("=", 1)[1] for a in argv[:argv.index(command)]
                if a.startswith("--out=")]
        out = outs[-1] if outs else _COORDINATES[command][0]
        rows = (work / out).read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")[:_COORDINATES[command][1]]
            assert all(np.isfinite(float(c)) for c in cells), row

