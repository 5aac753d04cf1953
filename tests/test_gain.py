import numpy as np
import pytest
from collections import Counter
from dataclasses import replace
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import constants as sc
from scipy.ndimage import label
from scipy.optimize import minimize_scalar

from motlaser import cli, gain, geometry
from motlaser.config import default_config
from motlaser.errors import (CalibrationError, NoThresholdError,
                             PhysicsError, QuantizationAxisError,
                             SolverError)
from motlaser.gain import (CalibrationConstants, calibrate, detuning_map,
                           mode_gain, optimum_scan, output_power,
                           steady_state, threshold_solve,
                           two_photon_resonance)

# every object is built from the default configuration, as the CLI builds it
CFG = default_config()


@pytest.fixture(scope="module")
def system():
    return CFG.system()


@pytest.fixture(scope="module")
def op():
    return CFG.operating_point()


@pytest.fixture(scope="module")
def calib(system, op):
    return calibrate(system, op)


KAPPA = CFG.cavity().kappa
FAMILIES = (0, 37, 74, 111)


def kernel_gains(kernel, pump, cavity, pump_power, atoms):
    """A gain kernel's family gains at absolute pump and cavity detunings;
    axis 0 of each array argument is the family axis."""
    return kernel.gains(pump, kernel.detuning(pump, cavity), pump_power,
                        atoms)


def recorded_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that records the positional
    arguments, the keyword arguments and the result of each call."""
    calls, real = [], getattr(owner, name)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


def channel_rates(op, family, system, calib):
    """One family's gain rates of the channels m = -1, 0, +1 at an
    operating point, from a one-family kernel."""
    kernel = gain._GainKernel(op, (family,), system, calib)
    delta = kernel.detuning(op.pump_detuning, op.cavity_detuning)
    return kernel.channel_gains(op.pump_detuning, delta, op.pump_power,
                                op.total_atoms)[0]


# ---------------------------------------------------------------------------
# Two-photon resonance
# ---------------------------------------------------------------------------

class TestTwoPhotonResonance:
    def test_blue_lobe(self):
        assert two_photon_resonance(5e6, -35e6) == pytest.approx(-30e6)

    def test_red_lobe(self):
        assert two_photon_resonance(-5e6, -35e6) == pytest.approx(-40e6)

    @given(st.floats(-50e6, 50e6), st.floats(-50e6, 0.0), st.floats(-5e6, 5e6))
    def test_linear_in_both(self, dp, dmot, shift):
        base = two_photon_resonance(dp, dmot)
        assert two_photon_resonance(dp, dmot + shift) == \
            pytest.approx(base + shift, abs=1e-3)
        assert two_photon_resonance(0.0, dmot) == dmot


# ---------------------------------------------------------------------------
# Gain structure
# ---------------------------------------------------------------------------

class TestModeGain:
    def test_sigma_plus_dominates_at_blue_lobe(self, system, op, calib):
        minus, pi, plus = channel_rates(op, 0, system, calib)
        assert plus >= 10 * max(minus, pi)

    def test_axial_pi_pumping_gives_no_gain(self, system, op, calib):
        dead = replace(op, pump_polarization=geometry.jones_linear(0.0))
        assert mode_gain(dead, 0, system, calib) == 0.0

    def test_no_trap_light_no_gain(self, system, op, calib):
        assert mode_gain(replace(op, mot_saturation=0.0), 0, system,
                         calib) == 0.0

    def test_zero_field_rejected(self, system, op, calib):
        with pytest.raises(QuantizationAxisError):
            mode_gain(replace(op, b_offset=(0.0, 0.0, 0.0)), 0, system, calib)

    @pytest.mark.parametrize("pair", [(1, 1), (0.5, 0.5), (1, 0, 0), (1,),
                                      ((1, 0), (0, 1)), "xy"])
    def test_non_unit_jones_pair_refused(self, op, pair):
        # refused where the operating point is built, not later by a kernel
        with pytest.raises(ValueError, match="unit-norm Jones pair"):
            replace(op, pump_polarization=pair)

    @pytest.mark.parametrize("pair", [(1, 0), (0, 1j), (0.6, 0.8j),
                                      (1 + 1e-6, 0),
                                      geometry.jones_circular(-1),
                                      np.array([0.0, -1.0])])
    def test_unit_jones_pair_accepted(self, op, pair):
        assert replace(op, pump_polarization=pair).pump_polarization is pair

    def test_shift_invariance(self, system, op, calib):
        # shifting pump and cavity detunings together with the Zeeman
        # shifts leaves the gain unchanged (two-photon structure)
        a = 3.7e6
        b_mag = np.linalg.norm(op.b_offset)
        shift_scale = (b_mag + a / gain.atomics.zeeman_shift(
            system.green.lande_g_upper, 1, 1.0)) / b_mag
        moved = replace(op, pump_detuning=op.pump_detuning + a,
                        cavity_detuning=op.cavity_detuning + a,
                        b_offset=tuple(np.asarray(op.b_offset) * shift_scale))
        g0 = channel_rates(op, 0, system, calib)
        g1 = channel_rates(moved, 0, system, calib)
        # the sigma+ channel sees identical detunings in both settings
        assert g1[2] == pytest.approx(g0[2], rel=1e-12)

    def test_cavity_argmax_on_two_photon_resonance(self, system, op, calib):
        center = two_photon_resonance(op.pump_detuning, op.mot_detuning)

        def neg_gain(dc):
            return -mode_gain(replace(op, cavity_detuning=dc), 0, system,
                              calib)

        res = minimize_scalar(neg_gain, method="bounded",
                              bounds=(center - 30e6, center + 30e6),
                              options={"xatol": 0.1})
        assert abs(res.x - center) < 1e3

    def test_kernel_at_new_pump_power_bit_for_bit(self, system, op, calib):
        # one kernel takes the pump power as an argument: each power, alone
        # or broadcast as an axis, equals a kernel built at that power
        pump = np.linspace(-10e6, 10e6, 21)[None, :, None]
        cavity = np.linspace(-60e6, 0.0, 31)[None, None, :]
        powers = (0.0, 3e-6, 4e-3, 0.2)
        base = gain._GainKernel(op, (0, 37), system, calib)
        stacked = kernel_gains(base, pump[:, None], cavity[:, None],
                               np.array(powers)[None, :, None, None],
                               op.total_atoms)
        for k, power in enumerate(powers):
            at = replace(op, pump_power=power)
            fresh = gain._GainKernel(at, (0, 37), system, calib)
            want = kernel_gains(fresh, pump, cavity, at.pump_power,
                                at.total_atoms)
            assert np.array_equal(
                kernel_gains(base, pump, cavity, power, op.total_atoms), want)
            assert np.array_equal(stacked[:, k], want)
        with pytest.raises(ValueError):
            kernel_gains(base, pump, cavity, -1e-3, op.total_atoms)
        with pytest.raises(ValueError):
            kernel_gains(base, pump, cavity, np.array([[1e-3, -1e-3]]),
                         op.total_atoms)

    def test_kernel_rejects_a_foreign_family_axis(self, system, op, calib):
        # axis 0 of a scan argument is the family axis: one row serves
        # every family, one row per family serves each its own, and any
        # other length is an error rather than a silent broadcast
        kernel = gain._GainKernel(op, (0, 37), system, calib)
        powers = np.array([[1e-3], [2e-3]])
        own = kernel_gains(kernel, 0.0, -35e6, powers, op.total_atoms)
        assert own.shape == (2, 1)
        for row, power in enumerate(powers[:, 0]):
            assert own[row, 0] == kernel_gains(
                kernel, 0.0, -35e6, power, op.total_atoms)[row]
        for bad in (np.zeros(3), np.zeros((3, 5))):
            with pytest.raises(ValueError, match="family axis"):
                kernel.gains(0.0, 0.0, bad, op.total_atoms)
            with pytest.raises(ValueError, match="family axis"):
                kernel.detuning(bad, -35e6)

    def test_gain_vanishes_far_from_resonance(self, system, op, calib):
        far = replace(op, cavity_detuning=op.cavity_detuning + 5e9)
        assert mode_gain(far, 0, system, calib) < \
            1e-4 * mode_gain(op, 0, system, calib)

    def test_nonnegative_over_random_detunings(self, system, op, calib):
        rng = np.random.default_rng(3)
        for _ in range(25):
            probe = replace(op, pump_detuning=rng.uniform(-30e6, 30e6),
                            cavity_detuning=rng.uniform(-80e6, 20e6))
            assert mode_gain(probe, 0, system, calib) >= 0.0


# pump powers: none, ordinary, and ones whose drive overflows to inf, which
# makes rho_ee inf/inf = NaN
_STAGE_POWERS = st.one_of(st.just(0.0), st.floats(0.0, 1e-2),
                          st.floats(1e303, 1e308))


@st.composite
def _stage_cases(draw):
    """A kernel's families and scan fields (None: the operating point's
    field alone, else three fields on a trailing axis), and arguments of
    its gains, each a scalar or a (1 or F, [2,] points) array."""
    families = draw(st.sampled_from([(0,), FAMILIES]))
    fields = draw(st.sampled_from([None, (1.5, -2.5, 40.0)]))
    points = 3 if fields else draw(st.integers(1, 4))

    def argument(elements):
        if draw(st.booleans()):
            return draw(elements)
        shape = ((draw(st.sampled_from([1, len(families)])),)
                 + draw(st.sampled_from([(), (2,)])) + (points,))
        return draw(hnp.arrays(float, shape, elements=elements))

    return families, fields, {
        "pump": argument(st.floats(-20e6, 20e6)),
        "delta": argument(st.floats(-50e6, 50e6)),
        "pump_power": argument(_STAGE_POWERS),
        "atoms": argument(st.floats(0.0, 1e5))}


class TestStagedKernel:
    """A scan holds three of the kernel's four arguments and computes
    their factors once; its gains are the kernel's, bit for bit, at its
    first call and at a later one that reuses those factors."""

    @given(case=_stage_cases(),
           vary=st.sampled_from(["pump", "pump_power", "atoms"]))
    @settings(max_examples=150, deadline=None)
    @example(case=((0,), None, {"pump": 1e6, "delta": 0.0,
                                "pump_power": np.array([[0.0, 1e308]]),
                                "atoms": 5e3}), vary="pump_power")
    @example(case=(FAMILIES, (1.5, -2.5, 40.0), {
        "pump": np.zeros((1, 2, 3)), "delta": 0.0, "pump_power": 1e305,
        "atoms": np.full((4, 3), 2e4)}), vary="pump")
    def test_stage_equals_the_kernel(self, system, op, calib, case, vary):
        families, fields, args = case
        kernel = gain._GainKernel(
            op, families, system, calib, None if fields is None else
            geometry.field_direction(op.b_offset) * np.array(fields)[:, None])
        fixed = {name: a for name, a in args.items() if name != vary}
        with np.errstate(over="ignore", invalid="ignore"):
            want = kernel.gains(**args)
            stage = kernel.along(vary, **fixed)
            got = [gain._total(stage(args[vary])) for _ in range(2)]
            overflows = np.isinf(gain.atomics.saturation_parameter(
                args["pump_power"], system.pump_waist,
                gain.atomics.saturation_intensity(system.green)))
        for g in got:
            assert g.shape == want.shape
            assert g.tobytes() == want.tobytes()
        # every drive that overflows, and no other, leaves a NaN gain
        assert np.isnan(want).any() == np.any(overflows)


def _clear_field_geometry():
    geometry._field_geometry.cache_clear()
    geometry._pump_weights.cache_clear()


def _kernel_bits(op, system, calib, b_offset):
    """The bytes of a kernel's w_m, E_m and channel gains over a small
    detuning grid, and of the spherical basis about its field."""
    cell = replace(op, b_offset=b_offset)
    kernel = gain._GainKernel(cell, FAMILIES, system, calib)
    pump = np.linspace(-8e6, 8e6, 9)[None, :, None]
    delta = kernel.detuning(pump, np.linspace(-45e6, -25e6, 11)[None, None])
    rates = kernel.channel_gains(pump, delta, cell.pump_power,
                                 cell.total_atoms)
    return [a.tobytes() for a in (kernel._weights, kernel._strengths, rates,
                                  *geometry.field_geometry(b_offset).basis)]


class TestSharedFieldGeometry:
    """The geometry of a field direction is computed once and shared by
    every kernel with that direction; a shared result is the bits a fresh
    computation gives."""

    @pytest.mark.parametrize("b_offset", [(2.38, 0.0, 0.0), (1.0, 1.0, 0.3)],
                             ids=["x", "oblique"])
    def test_cold_and_warm_kernels_agree_bit_for_bit(self, system, op, calib,
                                                     b_offset):
        _clear_field_geometry()
        cold = _kernel_bits(op, system, calib, b_offset)
        assert geometry._field_geometry.cache_info().misses == 1
        warm = _kernel_bits(op, system, calib, b_offset)
        assert geometry._field_geometry.cache_info().misses == 1
        assert warm == cold

    @pytest.mark.parametrize("pair", [
        ((1.0, 0.0, 0.0), (1.0, -0.0, 0.0)),
        ((2.38, 0.0, 0.0), (2.38, 0.0, -0.0)),
        ((0.0, 0.0, -1.0), (-0.0, 0.0, -1.0)),
    ], ids=["y", "z", "vertical"])
    def test_signed_zeros_are_distinct_directions(self, system, op, calib,
                                                  pair):
        # the two fields compare equal but e_zero differs in its bits, so
        # a cache keyed on values would hand one the other's basis
        cold = []
        for b_offset in pair:
            _clear_field_geometry()
            cold.append(_kernel_bits(op, system, calib, b_offset))
        assert cold[0] != cold[1]
        _clear_field_geometry()
        for _ in range(2):
            for b_offset, want in zip(pair, cold):
                assert _kernel_bits(op, system, calib, b_offset) == want
        assert geometry._field_geometry.cache_info().misses == 2

    def test_zero_field_raises_on_every_call(self, system, op, calib):
        _clear_field_geometry()
        zero = replace(op, b_offset=(0.0, -0.0, 0.0))
        for _ in range(2):
            with pytest.raises(QuantizationAxisError):
                gain._GainKernel(zero, (0,), system, calib)
            with pytest.raises(QuantizationAxisError):
                geometry.cavity_emission_jones(1, zero.b_offset)
        assert geometry._field_geometry.cache_info().currsize == 0
        assert geometry._pump_weights.cache_info().currsize == 0

    def test_shared_arrays_cannot_be_written(self, system, op, calib):
        kernel = gain._GainKernel(op, (0,), system, calib)
        geo = geometry.field_geometry(op.b_offset)
        for shared in (kernel._weights, kernel._strengths, geo.jones,
                       geo.strengths, *geo.basis):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0.5

    def test_kernel_build_classifies_no_polarization(self, system, op, calib,
                                                     monkeypatch):
        calls = []
        monkeypatch.setattr(geometry, "classify_jones",
                            lambda jones: calls.append(jones))
        _clear_field_geometry()
        gain._GainKernel(op, FAMILIES, system, calib)
        assert calls == []

    def test_public_views_match_the_kernel(self, system, op, calib):
        kernel = gain._GainKernel(op, (0,), system, calib)
        assert geometry.pump_excitation_weights(
            op.pump_polarization, op.b_offset) == tuple(kernel._weights)
        assert tuple(geometry.cavity_emission_jones(m, op.b_offset)[1]
                     for m in gain.SUBLEVELS) == tuple(kernel._strengths)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

class TestCalibrate:
    def test_gain_scale_positive(self, calib):
        assert calib.gain_scale > 0.0
        assert calib.n_sat > 0.0

    def test_uncalibrated_gain_order_of_magnitude(self, system, op):
        # sanity bound: before fitting, the reference-point gain should
        # already sit within a factor 10 of the cavity loss
        anchor = replace(gain.reference_operating_point(
            op, system, gain.ANCHOR_PUMP_POWER), total_atoms=5000.0)
        g = mode_gain(anchor, 0, system, CalibrationConstants())
        assert KAPPA / 10 <= g <= KAPPA * 10

    def test_mode_gain_is_the_kernel_family_gain_bit_for_bit(self, system,
                                                             op, calib):
        # at both anchors calibrate reads, and at cells of the default map,
        # mode_gain is the one-family kernel's gain, which is also the sum
        # of its channels in the order -1, 0, +1 as Python floats
        anchor = replace(gain.reference_operating_point(
            op, system, gain.ANCHOR_PUMP_POWER),
            total_atoms=gain.REFERENCE_ATOMS)
        photon_anchor = gain.reference_operating_point(
            op, system, gain.REFERENCE_PUMP_POWER)
        points = [(anchor, CalibrationConstants()),
                  (photon_anchor, CalibrationConstants(calib.gain_scale))]
        for pump, cavity in [(-5e6, -40e6), (0.0, -35e6), (5e6, -30e6),
                             (10e6, 0.0), (-10e6, -60e6)]:
            points.append((replace(op, pump_detuning=pump,
                                   cavity_detuning=cavity), calib))
        for point, constants in points:
            for family in FAMILIES:
                kernel = gain._GainKernel(point, (family,), system,
                                          constants)
                want = float(kernel_gains(
                    kernel, point.pump_detuning, point.cavity_detuning,
                    point.pump_power, point.total_atoms)[0])
                got = mode_gain(point, family, system, constants)
                assert type(got) is float
                assert got.hex() == want.hex()
                assert got.hex() == sum(map(float, channel_rates(
                    point, family, system, constants))).hex()
        # the constants those anchors give, recorded before mode_gain
        # returned a float
        assert calib.gain_scale.hex() == "0x1.dc1b3a42171d1p-1"
        assert calib.n_sat.hex() == "0x1.8bf38b44badf4p+17"
        assert calib.resonance_offset == 0.0

    def test_threshold_reproduces_anchor(self, system, op, calib):
        anchor = gain.reference_operating_point(
            op, system, gain.ANCHOR_PUMP_POWER)
        th = threshold_solve("atoms", anchor, system, calib)
        assert abs(th - 5000.0) <= 1.0

    def test_bad_reference_rejected(self, system, op):
        with pytest.raises(CalibrationError):
            # no gain at all without the trap drive
            calibrate(system, replace(op, mot_saturation=0.0))

    def test_anchor_ignores_scan_polarization(self, system, op, calib):
        # calibration describes the apparatus: scan knobs such as the
        # pump polarization must not shift the constants
        rotated = replace(op, pump_polarization=geometry.jones_linear(0.0),
                          pump_power=1e-3)
        again = calibrate(system, rotated)
        assert again.gain_scale == pytest.approx(calib.gain_scale, rel=1e-12)
        assert again.n_sat == pytest.approx(calib.n_sat, rel=1e-12)


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

class TestThresholds:
    def test_polarization_power_ratios(self, system, op, calib):
        p90 = threshold_solve("pump_power",
                              replace(op, pump_polarization=geometry.jones_linear(90)),
                              system, calib)
        p45 = threshold_solve("pump_power",
                              replace(op, pump_polarization=geometry.jones_linear(45)),
                              system, calib)
        pm45 = threshold_solve("pump_power",
                               replace(op, pump_polarization=geometry.jones_linear(-45)),
                               system, calib)
        pcirc = threshold_solve("pump_power",
                                replace(op, pump_polarization=geometry.jones_circular(1)),
                                system, calib)
        assert p45 / p90 == pytest.approx(2.0, abs=1e-6)
        assert pm45 / p90 == pytest.approx(2.0, abs=1e-6)
        assert pcirc / p90 == pytest.approx(2.0, abs=1e-6)

    def test_axial_pi_pumping_never_lases(self, system, op, calib):
        with pytest.raises(NoThresholdError):
            threshold_solve("pump_power",
                            replace(op, pump_polarization=geometry.jones_linear(0)),
                            system, calib)

    def test_fundamental_before_higher_family(self, system, op, calib):
        p0 = threshold_solve("pump_power", op, system, calib, family=0)
        p37 = threshold_solve("pump_power", op, system, calib, family=37)
        assert p0 < p37

    def test_atom_threshold_closed_form_matches_bisection(self, system, op,
                                                          calib):
        # the bisection the closed form replaced is the reference: bracket
        # expansion by 4x, then halving until hi - lo <= 1e-9 hi
        anchor = gain.reference_operating_point(
            op, system, gain.ANCHOR_PUMP_POWER)

        def excess(x):
            return mode_gain(replace(anchor, total_atoms=x), 0, system,
                             calib) - KAPPA

        lo, hi = 1.0, max(anchor.total_atoms, 10.0)
        while excess(hi) < 0.0:
            hi *= 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if excess(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-9 * hi:
                break
        bisected = 0.5 * (lo + hi)
        got = threshold_solve("atoms", anchor, system, calib)
        assert got == pytest.approx(bisected, rel=1e-9)

    @staticmethod
    def _pump_thresholds(op, system, calib, values=()):
        return gain.threshold_scan("pump_power", values, op, FAMILIES,
                                   system, calib).thresholds

    @given(pump=st.floats(-10e6, 10e6), cavity=st.floats(-60e6, 0.0),
           angle=st.floats(0.0, 180.0), atoms=st.floats(1e3, 1e5))
    @settings(max_examples=25, deadline=None)
    @example(pump=5e6, cavity=-30e6, angle=90.0, atoms=20e3)
    def test_pump_threshold_is_where_gain_first_meets_loss(
            self, system, op, calib, pump, cavity, angle, atoms):
        # G(P) >= kappa > G(the float below P), each G from a fresh
        # one-family kernel
        op = replace(op, pump_detuning=pump, cavity_detuning=cavity,
                     pump_polarization=geometry.jones_linear(angle),
                     total_atoms=atoms)

        def g(n, p):
            return mode_gain(replace(op, pump_power=p), n, system, calib)

        for n, p in self._pump_thresholds(op, system, calib).items():
            if p != np.inf:
                assert g(n, p) >= KAPPA > g(n, np.nextafter(p, 0.0))

    def test_pump_threshold_bits_independent_of_the_range(self, system, op,
                                                          calib):
        # TEM74's computed gain is not monotone over a few ulps near
        # kappa, so a search whose probes followed the range could land on
        # different crossings
        reference = self._pump_thresholds(op, system, calib)
        assert all(np.isfinite(p) for p in reference.values())
        for lo, hi in [(1e-4, 2e-4), (1e-4, 7e-3), (1e-6, 1e-3), (0.0, 1e3)]:
            got = self._pump_thresholds(op, system, calib,
                                        np.linspace(lo, hi, 5))
            assert {n: p.hex() for n, p in got.items()} == \
                {n: p.hex() for n, p in reference.items()}
        for n, p in reference.items():
            assert threshold_solve("pump_power", op, system, calib,
                                   n).hex() == p.hex()

    @given(pump=st.floats(-10e6, 10e6), angle=st.floats(0.0, 180.0),
           atoms=st.floats(1e2, 1e5))
    @settings(max_examples=25, deadline=None)
    @example(pump=5e6, angle=0.0, atoms=20e3)
    @example(pump=5e6, angle=90.0, atoms=20e3)
    def test_no_pump_threshold_iff_saturated_gain_below_loss(
            self, system, op, calib, pump, angle, atoms):
        # G rises to sum_m A_m as rho_ee -> 1/2 in every channel the pump
        # drives (w_m > 0); a threshold exists iff that limit exceeds kappa.
        # excited_fraction is the rho_ee the kernel evaluates
        op = replace(op, pump_detuning=pump,
                     pump_polarization=geometry.jones_linear(angle),
                     total_atoms=atoms)
        thresholds = self._pump_thresholds(op, system, calib)
        kernel = gain._GainKernel(op, FAMILIES, system, calib)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(gain.atomics, "excited_fraction",
                      lambda s, d2: np.where(s > 0.0, 0.5, 0.0))
            saturated = kernel_gains(kernel, pump, op.cavity_detuning, 1.0,
                                     atoms)
        for n, g_sat in zip(kernel.families, saturated):
            if g_sat < KAPPA * (1 - 1e-6):
                assert thresholds[n] == np.inf
            elif g_sat > KAPPA * (1 + 1e-6):
                assert np.isfinite(thresholds[n])

    def test_pump_search_evaluates_each_family_at_its_own_probes(
            self, tmp_path, monkeypatch):
        # the scan workload's threshold command: after the 40-point solve,
        # each round evaluates a (family, 63) probe array, one gain per
        # family and probe, not every family at every family's probes.
        # The solve and every round share the factors of the pump
        # detuning, delta and the atom number, computed once; only the
        # drive is computed again
        monkeypatch.chdir(tmp_path)
        assert cli.main(["calibrate"]) == 0
        rho = recorded_calls(monkeypatch, gain.atomics, "excited_fraction")
        factors = recorded_calls(monkeypatch, gain._GainKernel, "_factor")
        lorentz = recorded_calls(monkeypatch, gain, "_lorentzian")
        assert cli.main(["threshold", "--vary", "pump", "--min", "1uW",
                         "--max", "1mW"]) == 0
        families = len(CFG.families())
        rounds = len(rho) - 1
        assert 5 <= rounds <= 64
        # rho_ee of each evaluation, (family, m, point): the solve's is
        # shared by the families
        assert [r.shape for *_, r in rho] == \
            [(1, 3, 40)] + [(families, 3, 63)] * rounds
        assert Counter(args[1] for args, *_ in factors) == {
            "pump": 1, "delta": 1, "atoms": 1, "pump_power": 1 + rounds}
        assert len(lorentz) == 1

    def test_atom_threshold_outside_range(self, system, op, calib):
        anchor = gain.reference_operating_point(
            op, system, gain.ANCHOR_PUMP_POWER)
        th = threshold_solve("atoms", anchor, system, calib)
        assert gain.threshold_reason(th, 6000.0, np.inf) == "below range"
        assert gain.threshold_reason(th, 0.0, 6000.0) == ""
        # 3e-9 of the trap drive moves the threshold to 5e12 atoms, which
        # no cap hides; a range below it classifies it
        weak = replace(anchor, mot_saturation=3e-9)
        th_weak = threshold_solve("atoms", weak, system, calib)
        assert th_weak == pytest.approx(5e12, rel=1e-3)
        assert gain.threshold_reason(th_weak, 0.0, 1e12) == "above range"
        dead = replace(anchor, pump_polarization=geometry.jones_linear(0.0))
        with pytest.raises(NoThresholdError,
                           match="gain saturates below loss"):
            threshold_solve("atoms", dead, system, calib)

    def test_unknown_vary_rejected(self, system, op, calib):
        with pytest.raises(ValueError):
            threshold_solve("temperature", op, system, calib)


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------

def quadratic_oracle(g, kappa, n_sat):
    # independent closed form of (G/(1+n/n_sat) - kappa) n + G = 0
    a = kappa / n_sat
    b = kappa - g - g / n_sat
    c = -g
    return (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)


def solve(gains, n_sat):
    """Shared saturation S and per-family photon numbers of one column of
    family gains, from the package's solver."""
    g = np.asarray(gains, float)
    s = gain._saturation(g, KAPPA, n_sat)
    return float(s), gain._photons(g, s, KAPPA)


class TestSteadyState:
    def test_single_family_against_quadratic_oracle(self, calib):
        for g_over_k in (0.3, 0.9, 1.5, 2.0, 10.0, 500.0):
            _, n = solve([g_over_k * KAPPA], calib.n_sat)
            oracle = quadratic_oracle(g_over_k * KAPPA, KAPPA, calib.n_sat)
            assert n[0] == pytest.approx(oracle, rel=1e-9)

    def test_twice_threshold_reaches_saturation_number(self, calib):
        _, n = solve([2 * KAPPA], calib.n_sat)
        assert n[0] == pytest.approx(calib.n_sat, rel=1e-3)

    def test_half_threshold_is_one_photon(self, calib):
        _, n = solve([KAPPA / 2], calib.n_sat)
        assert n[0] == pytest.approx(1.0, abs=1e-4)

    def test_multi_family_fixed_point_residuals(self, calib):
        gains = [4.0 * KAPPA, 3.0 * KAPPA, 1.2 * KAPPA, 0.4 * KAPPA]
        s_root, n = solve(gains, calib.n_sat)
        s = sum(n) / calib.n_sat
        assert s == pytest.approx(s_root, rel=1e-9)
        for g, n_i in zip(gains, n):
            residual = (g / (1 + s) - KAPPA) * n_i + g
            assert abs(residual) <= 1e-9 * max(KAPPA * n_i, g)

    def test_lasing_set_grows_with_pump(self, system, op, calib):
        families = (0, 37)
        p0 = threshold_solve("pump_power", op, system, calib, family=0)
        p37 = threshold_solve("pump_power", op, system, calib, family=37)
        sets = []
        for power in (0.5 * p0, 0.5 * (p0 + p37), 2.0 * p37):
            sol = steady_state(replace(op, pump_power=power), families,
                               system, calib)
            sets.append(tuple(n for n in families if sol.gains[n] >= KAPPA))
        assert sets == [(), (0,), (0, 37)]

    @staticmethod
    def _scan_equals_steady_state(vary, field, xs, system, op, calib):
        families = (0, 37, 74)
        got = gain.threshold_scan(vary, xs, op, families, system, calib)
        for i, x in enumerate(xs):
            one = steady_state(replace(op, **{field: x}), families, system,
                               calib)
            for n in families:
                assert got.photons[n][i] == one.photons[n]
                assert got.gains[n][i] == one.gains[n]
        with pytest.raises(ValueError):
            gain.threshold_scan(vary, [1e-3, -1e-3], op, families, system,
                                calib)

    def test_pump_power_steady_states_bit_for_bit(self, system, op, calib):
        powers = np.concatenate([np.linspace(0.0, 1e-3, 5),
                                 np.geomspace(2e-3, 50e-3, 4)])
        self._scan_equals_steady_state("pump_power", "pump_power", powers,
                                       system, op, calib)

    def test_atom_number_steady_states_bit_for_bit(self, system, op, calib):
        atoms = np.concatenate([np.linspace(0.0, 3e4, 5),
                                np.geomspace(1e2, 1e6, 4)])
        self._scan_equals_steady_state("atoms", "total_atoms", atoms,
                                       system, op, calib)

    def test_photon_number_monotone_in_atoms(self, system, op, calib):
        totals = []
        for atoms in np.linspace(2e3, 4e4, 8):
            sol = steady_state(replace(op, total_atoms=atoms), (0,), system,
                               calib)
            totals.append(sum(sol.photons.values()))
        assert np.all(np.diff(totals) > 0)

    def test_threshold_kink(self, calib):
        def n_of(g_over_k):
            return solve([g_over_k * KAPPA], calib.n_sat)[1][0]

        below_slope = n_of(0.90) - n_of(0.88)
        above_slope = n_of(1.12) - n_of(1.10)
        assert above_slope / below_slope > 100
        # continuity across the threshold
        assert abs(n_of(1.0001) - n_of(0.9999)) < 0.01 * calib.n_sat

    def test_negative_gain_rejected(self, calib):
        # gains come from the kernel and are never negative; a lone
        # negative gain gives a negative photon number, which fails the solve
        s_tot = gain._saturation(np.array([[-1.0, KAPPA]]), KAPPA,
                                 calib.n_sat)
        assert np.isnan(s_tot[0]) and np.isfinite(s_tot[1])

    def test_non_finite_gain_is_solver_error(self, system, op, calib,
                                             monkeypatch):
        for bad in (np.inf, np.nan):
            assert np.isnan(gain._saturation(np.array([KAPPA, bad]), KAPPA,
                                             calib.n_sat))
        monkeypatch.setattr(gain, "_saturation",
                            lambda g, kappa, n_sat: np.full(g.shape[1:],
                                                            np.nan))
        with pytest.raises(SolverError):
            steady_state(op, (0, 37), system, calib)


EPS = np.finfo(float).eps


def _fixed_point_slope(g, s, n_sat):
    # f'(S) = 1 + sum_i n_i^2 / ((1 + S)^2 n_sat)
    n = g / (KAPPA - g / (1.0 + s))
    return 1.0 + float(np.sum(n * n)) / ((1.0 + s) ** 2 * n_sat)


@st.composite
def _gain_batches(draw):
    """(gains of shape (families, batch), n_sat): G/kappa in [1e-6, 1e6],
    1-4 families, n_sat in [1, 1e8]."""
    families = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 5))
    exponent = st.floats(-6.0, 6.0, allow_nan=False)
    logs = draw(st.lists(st.lists(exponent, min_size=batch, max_size=batch),
                         min_size=families, max_size=families))
    n_sat = 10.0 ** draw(st.floats(0.0, 8.0))
    return KAPPA * 10.0 ** np.array(logs), n_sat


class TestSaturationSolver:
    """Properties of the elementwise Newton solve over wide ranges."""

    @settings(max_examples=150, deadline=None)
    @given(_gain_batches())
    def test_array_solve_equals_scalar_solves(self, case):
        g, n_sat = case
        batch = gain._saturation(g, KAPPA, n_sat)
        for b in range(g.shape[1]):
            assert batch[b] == gain._saturation(g[:, b], KAPPA, n_sat)

    @settings(max_examples=150, deadline=None)
    @given(_gain_batches())
    def test_residual_bounds(self, case):
        g, n_sat = case
        for b in range(g.shape[1]):
            s, n = solve(g[:, b], n_sat)
            # each family's rate equation, to two roundings of G
            for g_k, n_k in zip(g[:, b], n):
                residual = (g_k / (1.0 + s) - KAPPA) * n_k + g_k
                assert abs(residual) <= 2.3e-16 * max(KAPPA * n_k, g_k)
            # S = sum(n)/n_sat: the Newton correction left at S is within
            # 8 roundings of 1 + S
            f = s - sum(n) / n_sat
            slope = _fixed_point_slope(g[:, b], s, n_sat)
            assert abs(f) / slope <= 8.0 * EPS * (1.0 + s)

    @settings(max_examples=150, deadline=None)
    @given(_gain_batches(), st.integers(0, 3), st.floats(1e-3, 10.0))
    def test_photon_number_monotone_in_each_gain(self, case, which, grow):
        g, n_sat = case
        k = which % g.shape[0]
        base = g[:, 0]
        more = base.copy()
        more[k] = base[k] * (1.0 + grow)
        s0, n0 = solve(base, n_sat)
        s1, n1 = solve(more, n_sat)
        assert n1[k] >= n0[k]
        # the total n_sat * S, to the solver's precision
        assert s1 >= s0 - 16.0 * EPS * (1.0 + s0)


class TestOutputPower:
    cavity, wavelength = CFG.cavity(), CFG.green().wavelength

    def test_zero(self):
        assert output_power(0.0, self.cavity, self.wavelength) == 0.0

    def test_budget_value(self):
        # eta * n * kappa * h c / lambda with the documented numbers
        oracle = 0.05 * 6e5 * KAPPA * sc.h * sc.c / 556e-9
        got = output_power(6e5, self.cavity, self.wavelength)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(4.71e-9, rel=1e-2)

    def test_linear(self):
        assert output_power(2e5, self.cavity, self.wavelength) == \
            pytest.approx(2 * output_power(1e5, self.cavity, self.wavelength),
                          rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            output_power(-1.0, self.cavity, self.wavelength)


# ---------------------------------------------------------------------------
# Maps and scans
# ---------------------------------------------------------------------------

@st.composite
def _masks(draw):
    # empty, full and random masks, 1 x N and N x 1 among them, at a few
    # fill densities so that regions merge, touch and stay apart
    shape = draw(st.tuples(st.integers(1, 30), st.integers(1, 70)))
    fill = draw(st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]))
    cells = hnp.arrays(np.float64, shape,
                       elements=st.floats(0.0, 1.0, exclude_max=True))
    return draw(cells) < fill


@given(_masks())
@settings(max_examples=150, deadline=None)
def test_label4_matches_scipy_label(mask):
    # same count, and the same number on every cell: scipy numbers the
    # 4-connected regions in the row-major order of their first cell
    labels, count = gain._label4(mask)
    want, want_count = label(mask)
    assert count == want_count
    assert np.array_equal(labels, want)


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (4, 6)])
def test_label4_empty_full_and_checkerboard(shape):
    for mask in (np.zeros(shape, bool), np.ones(shape, bool),
                 np.indices(shape).sum(axis=0) % 2 == 0):
        labels, count = gain._label4(mask)
        want, want_count = label(mask)
        assert count == want_count and np.array_equal(labels, want)


class TestDetuningMap:
    def test_two_lobes_on_coarse_grid(self, system, op, calib):
        pump = np.arange(-10e6, 10e6 + 1, 1e6)
        cav = np.arange(-60e6, 0.0 + 1, 2e6)
        m = detuning_map(op, system, calib, pump, cav, FAMILIES)
        lobes = m.lobes()
        assert len(lobes) == 2
        centers = sorted((p, c) for p, c, _ in lobes)
        assert centers[0][0] == pytest.approx(-5e6, abs=1e6)
        assert centers[0][1] == pytest.approx(-40e6, abs=2e6)
        assert centers[1][0] == pytest.approx(5e6, abs=1e6)
        assert centers[1][1] == pytest.approx(-30e6, abs=2e6)

    def test_equal_peaks_keep_scan_order(self):
        # three regions, two of them with the same peak: a stable sort by
        # power keeps the row-major order of their first cells
        lasing = np.array([[0, 1, 0, 0],
                           [0, 0, 0, 1],
                           [1, 1, 0, 1]], bool)
        power = np.array([[0.0, 2.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 1.0],
                          [1.0, 2.0, 0.0, 3.0]])
        m = gain.DetuningMap(np.array([10.0, 20.0, 30.0]),
                             np.array([1.0, 2.0, 3.0, 4.0]), power, {}, {},
                             lasing, np.ones_like(lasing))
        assert m.lobes() == [(30.0, 4.0, 3.0), (10.0, 2.0, 2.0),
                             (30.0, 2.0, 2.0)]

    def test_axial_pi_pumping_empty_map(self, system, op, calib):
        dead = replace(op, pump_polarization=geometry.jones_linear(0.0))
        pump = np.arange(-8e6, 8e6 + 1, 2e6)
        cav = np.arange(-50e6, -10e6 + 1, 5e6)
        m = detuning_map(dead, system, calib, pump, cav, FAMILIES)
        assert not m.lasing_any.any()
        assert m.ok.all()

    def test_solver_failure_marks_cell_missing(self, system, op, calib,
                                               monkeypatch):
        real = gain._saturation
        calls = {"count": 0}

        def flaky(gains, kappa, n_sat):
            calls["count"] += 1
            s_tot = real(gains, kappa, n_sat)
            s_tot[1, 1] = np.nan       # the solve of cell (5, -30) MHz fails
            return s_tot

        monkeypatch.setattr(gain, "_saturation", flaky)
        pump = np.array([4e6, 5e6])
        cav = np.array([-31e6, -30e6])
        m = detuning_map(op, system, calib, pump, cav, FAMILIES)
        assert calls["count"] == 1
        assert not m.ok[1, 1] and np.isnan(m.total_power[1, 1])
        assert not m.lasing_any[1, 1]
        for n in (0, 37, 74, 111):
            assert np.isnan(m.family_powers[n][1, 1])
            assert not m.family_lasing[n][1, 1]
        assert m.ok[0, 0] and m.ok[0, 1] and m.ok[1, 0]
        assert np.isfinite(m.total_power[[0, 0, 1], [0, 1, 0]]).all()

    def test_cells_equal_steady_state_bit_for_bit(self, system, op, calib):
        families = (0, 37, 74, 111)
        pump = np.array([-8e6, 4e6, 5e6])
        cav = np.array([-31e6, -30e6, -10e6])
        m = detuning_map(op, system, calib, pump, cav, families)
        assert m.lasing_any.any() and not m.lasing_any.all()
        cavity, wavelength = system.cavity, system.green.wavelength
        for i, dp in enumerate(pump):
            for j, dc in enumerate(cav):
                sol = steady_state(replace(op, pump_detuning=dp,
                                           cavity_detuning=dc),
                                   families, system, calib)
                assert m.ok[i, j]
                assert m.total_power[i, j] == sum(
                    output_power(n, cavity, wavelength)
                    for n in sol.photons.values())
                assert m.lasing_any[i, j] == any(
                    g >= KAPPA for g in sol.gains.values())
                for n in families:
                    assert m.family_powers[n][i, j] == output_power(
                        sol.photons[n], cavity, wavelength)
                    assert m.family_lasing[n][i, j] == \
                        (sol.gains[n] >= KAPPA)


CRITERION_SCANS = [
    ("mot_detuning", np.arange(-40e6, -19e6, 4e6)),      # criterion 3
    ("b_offset_magnitude", np.arange(1.5, 4.51, 0.5)),   # criterion 4
]


def _scan_cell(op, vary, x):
    if vary == "mot_detuning":
        return replace(op, mot_detuning=x)
    b = np.asarray(op.b_offset, float)
    return replace(op, b_offset=tuple(b / np.linalg.norm(b) * x))


def _zeeman_and_center(system, cell):
    """The sigma+ Zeeman shift and the two-photon resonance there, Hz."""
    zeeman = gain.atomics.zeeman_shift(system.green.lande_g_upper, 1,
                                       np.linalg.norm(cell.b_offset))
    return zeeman, two_photon_resonance(zeeman, cell.mot_detuning)


def _field_optima_lase(system, op, calib, values, scan):
    """Every point of a field scan has an optimum at which its family's
    gain on the ridge reaches kappa."""
    for x, pump_opt in zip(values.tolist(), scan.pump_opt.tolist()):
        if np.isnan(pump_opt):
            return False
        cell = _scan_cell(op, "b_offset_magnitude", x)
        kernel = gain._GainKernel(cell, (0,), system, calib)
        if not kernel.gains(pump_opt, 0.0, cell.pump_power,
                            cell.total_atoms)[0] >= KAPPA:
            return False
    return True


def _lasing_count(scan):
    """The number of scan points with an optimum."""
    return np.count_nonzero(~np.isnan(scan.pump_opt))


def _ridge_alone(cell, system, calib):
    """One point's optimum searched alone, with scalar gain evaluations:
    (how it lases, pump_opt, cavity_opt), as optimum_scan's docstring
    states the search; NaN optima when it is dark."""
    kernel = gain._GainKernel(cell, (0,), system, calib)

    def gain_at(dp):
        return kernel.gains(dp, 0.0, cell.pump_power, cell.total_atoms)[0]

    zeeman, _ = _zeeman_and_center(system, cell)
    lo, hi = sorted((0.25 * zeeman, 2.5 * zeeman + np.copysign(2e6, zeeman)))
    dps = np.linspace(lo, hi, gain._COARSE)
    g = gain_at(dps[None])
    if np.any(g >= KAPPA):
        route, start, best = "coarse", float(dps[np.argmax(g)]), g.max()
    else:
        route, start, best = "zeeman", zeeman, gain_at(zeeman)
        if not best >= KAPPA:
            return "dark", np.nan, np.nan
    span = (hi - lo) / (gain._COARSE - 1)
    bits, _ = _minimize(gain._fminbound(max(lo, start - 2 * span),
                                        min(hi, start + 2 * span), 1.0),
                        lambda x: -float(gain_at(x)))
    dp = float(bits.view(np.float64))
    if gain_at(dp) < best:
        dp = start
    return route, dp, float(two_photon_resonance(dp, cell.mot_detuning)
                            + calib.resonance_offset - kernel.offsets[0])


class TestOptimumScan:
    def test_trap_detuning_slope_unity(self, system, op, calib):
        scan = optimum_scan("mot_detuning", np.array([-40e6, -30e6, -20e6]),
                            op, system, calib)
        assert scan.slope == pytest.approx(1.0, abs=1e-3)

    def test_field_slope_follows_lande_factor(self, system, op, calib):
        scan = optimum_scan("b_offset_magnitude", np.array([2.0, 3.0, 4.0]),
                            op, system, calib)
        assert scan.slope == pytest.approx(2.10e6, rel=0.01)

    def test_pump_optimum_independent_of_trap_detuning(self, system, op,
                                                       calib):
        values = np.array([-40e6, -28e6, -20e6])
        scan = optimum_scan("mot_detuning", values, op, system, calib)
        lases = ~np.isnan(scan.pump_opt)
        fit = np.polyfit(values[lases], scan.pump_opt[lases], 1)
        assert abs(fit[0]) < 1e-3

    def test_dark_points_marked_missing(self, system, op, calib):
        dark = replace(op, total_atoms=10.0)  # far below threshold
        scan = optimum_scan("mot_detuning", np.array([-36e6, -30e6]), dark,
                            system, calib)
        assert scan.pump_opt.shape == scan.cavity_opt.shape == (2,)
        assert np.isnan(scan.pump_opt).all()
        assert np.isnan(scan.cavity_opt).all()
        assert np.isnan(scan.slope)

    @pytest.mark.parametrize("batch", [gain._SCAN_BATCH, 3])
    def test_lockstep_equals_each_point_alone(self, system, op, calib,
                                              monkeypatch, batch):
        # a field along the vertical pump and a sigma- pump: the sigma+
        # lobe gets the whole drive at negative fields and none at
        # positive ones, where only the sigma- line of a field of 1 mG
        # reaches the coarse pumps.  Batches of 3 split the 10 points.
        monkeypatch.setattr(gain, "_SCAN_BATCH", batch)
        r = 2 ** -0.5
        vertical = replace(op, b_offset=(0.0, 0.0, 2.38),
                           pump_polarization=(r, -1j * r))
        values = np.array([-2.0, 3.0, -3e16, 1e-3, -1.0, 4.0, 6e16, -4.5,
                           1e-3, -1e20])
        scan = optimum_scan("b_offset_magnitude", values, vertical, system,
                            calib)
        routes = []
        for k, x in enumerate(values):
            route, dp, dc = _ridge_alone(
                _scan_cell(vertical, "b_offset_magnitude", x), system, calib)
            routes.append(route)
            got = np.array([scan.pump_opt[k], scan.cavity_opt[k]])
            assert got.tobytes() == np.array([dp, dc]).tobytes()
        assert routes == ["coarse", "dark", "zeeman", "coarse", "coarse",
                          "dark", "dark", "coarse", "coarse", "coarse"]

    @pytest.mark.parametrize("vary,values", CRITERION_SCANS,
                             ids=["criterion-3", "criterion-4"])
    def test_optimum_beats_brute_force_grid(self, system, op, calib, vary,
                                            values):
        # the oracle searches the whole (pump, cavity) box the scan used
        # to grid, with no knowledge of the ridge: a 201 x 201 grid, then
        # 201 x 201 again over the cells around its best point.  Brent
        # stops within xatol = 1 Hz of the ridge maximum, on a pump peak
        # megahertz wide, which costs G about 1e-12; the bound allows 1e-9.
        scan = optimum_scan(vary, values, op, system, calib)
        assert _lasing_count(scan) == len(values)
        for x, pump_opt, cavity_opt in zip(values.tolist(),
                                           scan.pump_opt.tolist(),
                                           scan.cavity_opt.tolist()):
            cell = _scan_cell(op, vary, x)
            zeeman, center = _zeeman_and_center(system, cell)
            kernel = gain._GainKernel(cell, (0,), system, calib)

            def grid_max(pumps, cavities):
                g = kernel_gains(kernel, pumps[None, :, None],
                                 cavities[None, None, :], cell.pump_power,
                                 cell.total_atoms)[0]
                i, j = np.unravel_index(np.argmax(g), g.shape)
                return g[i, j], pumps[i], cavities[j]

            pumps = np.linspace(0.25 * zeeman, 2.5 * zeeman + 2e6, 201)
            cavities = np.linspace(center - 25e6, center + 25e6, 201)
            coarse, dp, dc = grid_max(pumps, cavities)
            dp_step, dc_step = pumps[1] - pumps[0], cavities[1] - cavities[0]
            fine, _, _ = grid_max(
                np.linspace(dp - dp_step, dp + dp_step, 201),
                np.linspace(dc - dc_step, dc + dc_step, 201))
            found = kernel_gains(kernel, pump_opt, cavity_opt,
                                 cell.pump_power, cell.total_atoms)[0]
            assert found >= max(coarse, fine) * (1.0 - 1e-9)

    @pytest.mark.parametrize("family,offset", [(0, 0.0), (37, 0.0),
                                               (37, 1.5e6)])
    def test_cavity_optimum_on_two_photon_ridge(self, system, op, calib,
                                                family, offset):
        shifted = replace(calib, resonance_offset=offset)
        values = [-40e6, -30e6]
        scan = optimum_scan("mot_detuning", np.array(values), op, system,
                            shifted, family=family)
        family_offset = geometry.transverse_mode_frequency(
            family, system.cavity.family_spacing)
        for x, pump_opt, cavity_opt in zip(values, scan.pump_opt.tolist(),
                                           scan.cavity_opt.tolist()):
            ridge = (two_photon_resonance(pump_opt, x) + offset
                     - family_offset)
            assert cavity_opt == ridge
            # and the gain does fall off the ridge on either side
            cell = replace(op, mot_detuning=x)
            kernel = gain._GainKernel(cell, (family,), system, shifted)
            g = kernel_gains(kernel, pump_opt,
                             ridge + np.array([[-1e3, 0.0, 1e3]]),
                             cell.pump_power, cell.total_atoms)[0]
            assert g[1] > g[0] and g[1] > g[2]

    def test_no_photon_solve(self, system, op, calib, monkeypatch):
        calls = {"saturation": 0}
        real = gain._saturation

        def counted(*args):
            calls["saturation"] += 1
            return real(*args)

        def no_solve(*args):
            raise AssertionError("optimum_scan must not solve photon numbers")

        monkeypatch.setattr(gain, "_saturation", counted)
        monkeypatch.setattr(gain._GainKernel, "solve", no_solve)
        scan = optimum_scan(*CRITERION_SCANS[1], op, system, calib)
        assert _lasing_count(scan) == len(CRITERION_SCANS[1][1])
        assert calls["saturation"] == 0

    @pytest.mark.parametrize("lo,count", [(1e20, 2), (1e100, 3)],
                             ids=["1e20", "1e100"])
    def test_field_scan_lases_at_high_fields(self, system, op, calib, lo,
                                             count):
        # the ridge is evaluated at an exact zero two-photon detuning, so
        # the sigma+ lobe lases although the pump detuning's ulp far
        # exceeds the trap detuning, and the optima follow the Zeeman line.
        # The points are the CLI's for --min lo --step lo.  Brent's steps
        # all miss the line there, so the optimum is the coarse pump
        values = lo + lo * np.arange(count)
        scan = optimum_scan("b_offset_magnitude", values, op, system, calib)
        assert _field_optima_lase(system, op, calib, values, scan)
        assert scan.slope == pytest.approx(gain.atomics.zeeman_shift(
            system.green.lande_g_upper, 1, 1.0), rel=1e-12)

    @pytest.mark.parametrize("fields", [(3e16, 6e16),
                                        (3e100, 2.9999999999999998e150)],
                             ids=["3e16", "3e100"])
    def test_field_scan_lases_where_no_coarse_pump_meets_the_line(
            self, system, op, calib, fields):
        # an ulp of the Zeeman shift far exceeds the power-broadened line
        # here, and no coarse pump rounds onto the shift; the shift itself
        # lases (G/kappa = 3.954) and the search refines from it
        values = np.array(fields)
        scan = optimum_scan("b_offset_magnitude", values, op, system, calib)
        assert _field_optima_lase(system, op, calib, values, scan)
        assert scan.slope == pytest.approx(gain.atomics.zeeman_shift(
            system.green.lande_g_upper, 1, 1.0), rel=1e-12)

    def test_trap_detuning_scan_near_the_float_limit(self, system, op,
                                                     calib):
        # the cavity optimum is the trap detuning to the last bit up
        # there, so the fitted slope is 1 although x**2 overflows, and the
        # intercept is below the optima's rounding
        scan = optimum_scan("mot_detuning", np.array([1e300, 2e300]), op,
                            system, calib)
        assert scan.cavity_opt.tolist() == [1e300, 2e300]
        assert scan.slope == pytest.approx(1.0, rel=1e-12)
        assert scan.intercept is None

    def test_negative_lande_factor_mirrors_the_field_scan(self, system, op,
                                                          calib):
        # g -> -g negates every Zeeman shift, so the sigma+ lobe and the
        # pump interval searched for it mirror about zero detuning
        values = np.arange(1.5, 4.51, 1.0)
        flipped = replace(system,
                          green=replace(system.green, lande_g_upper=-1.5))
        plus = optimum_scan("b_offset_magnitude", values, op, system, calib)
        minus = optimum_scan("b_offset_magnitude", values, op, flipped,
                             calib)
        assert _lasing_count(plus) == values.size
        assert minus.pump_opt.tolist() == (-plus.pump_opt).tolist()
        assert minus.slope == -plus.slope

    def test_field_whose_square_overflows_refused(self, system, op, calib):
        with pytest.raises(PhysicsError, match="overflows"):
            optimum_scan("b_offset_magnitude", np.array([1e300, 2e300]), op,
                         system, calib)


class TestLineFit:
    @pytest.mark.parametrize("xs,ys", [
        ([1.5, 2.0, 2.5], [3.1e6, 4.2e6, 5.2e6]),
        ([-40e6, -30e6, -20e6], [-35e6, -25e6, -15.5e6]),
    ])
    def test_polyfit_bits_in_the_ordinary_range(self, xs, ys):
        xs, ys = np.array(xs), np.array(ys)
        assert gain._line_fit(xs, ys) == tuple(
            map(float, np.polyfit(xs, ys, 1)))

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_scaled_fit_at_extreme_magnitudes(self, scale):
        xs = np.array([1.0, 2.0, 3.0]) * scale
        slope, intercept = gain._line_fit(xs, 2.0 * xs + 7.0 * scale)
        assert slope == pytest.approx(2.0, rel=1e-12)
        assert intercept == pytest.approx(7.0 * scale, rel=1e-9)
        slope, intercept = gain._line_fit(xs, np.array([5.0, 6.0, 7.0]))
        assert slope * scale == pytest.approx(1.0, rel=1e-12)
        assert intercept == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_intercept_below_the_rounding_is_unresolved(self, scale):
        # the intercept of a line through the origin is rounding noise;
        # one of 1e-10 of the fitted values is resolved
        xs = np.array([1.0, 2.0, 3.0]) * scale
        assert gain._line_fit(xs, 2.0 * xs)[1] is None
        assert gain._line_fit(xs, 2.0 * xs + 1e-10 * scale)[1] == \
            pytest.approx(1e-10 * scale, rel=1e-3)

    def test_overflowing_slope_refused(self):
        with pytest.raises(PhysicsError, match="overflows"):
            gain._line_fit(np.array([1e-300, 2e-300]),
                           np.array([0.0, 1e300]))


# ---------------------------------------------------------------------------
# Bounded Brent search
# ---------------------------------------------------------------------------

def _bits(x):
    return np.float64(x).view(np.uint64)


def _minimize(search, func):
    """Drive one gain._fminbound search on ``func``: (bits of its x, the
    number of evaluations)."""
    x, calls = next(search), 0
    while True:
        calls += 1
        try:
            x = search.send(func(x))
        except StopIteration as done:
            return _bits(done.value), calls


def _fminbound_counted(func, lo, hi, xatol):
    return _minimize(gain._fminbound(lo, hi, xatol), func)


def _scipy_bounded(func, lo, hi, xatol):
    res = minimize_scalar(func, method="bounded", bounds=(lo, hi),
                          options={"xatol": xatol})
    return _bits(res.x), res.nfev


def _recorded_searches(monkeypatch):
    """Replace gain._fminbound with a search that records its bounds, its
    x and its number of evaluations, in the order the searches start."""
    searches, real = [], gain._fminbound

    def recorded(lo, hi, xatol):
        entry = {"bounds": (lo, hi, xatol), "calls": 0}
        searches.append(entry)
        search = real(lo, hi, xatol)
        x = next(search)
        while True:
            entry["calls"] += 1
            try:
                x = search.send((yield x))
            except StopIteration as done:
                entry["x"] = _bits(done.value)
                return done.value

    monkeypatch.setattr(gain, "_fminbound", recorded)
    return searches


class TestFminbound:
    """gain._fminbound against scipy's bounded minimizer as the oracle:
    the same x, bit for bit, after the same number of evaluations."""

    @pytest.mark.parametrize("vary,values", CRITERION_SCANS,
                             ids=["criterion-3", "criterion-4"])
    def test_scan_objectives(self, system, op, calib, monkeypatch, vary,
                             values):
        # the scan runs its points' searches side by side; each must be
        # scipy's search of that point's -G on the ridge alone
        searches = _recorded_searches(monkeypatch)
        optimum_scan(vary, values, op, system, calib)
        # one pump search along the two-photon ridge per point, or one for
        # a whole trap-detuning scan, whose points share their field
        field_scan = vary == "b_offset_magnitude"
        assert len(searches) == (len(values) if field_scan else 1)
        for i, x in enumerate(values):
            search = searches[i if field_scan else 0]
            cell = _scan_cell(op, vary, x)
            kernel = gain._GainKernel(cell, (0,), system, calib)

            def func(dp):
                return -float(kernel.gains(dp, 0.0, cell.pump_power,
                                           cell.total_atoms)[0])

            assert (search["x"], search["calls"]) == \
                _scipy_bounded(func, *search["bounds"])

    def test_kernel_evaluations_per_scan(self, tmp_path, monkeypatch):
        # the scan workload's shift-scan searches its points side by side:
        # one gain evaluation for the coarse grid, at most one at the
        # Zeeman shifts, one per round of the longest Brent search and one
        # for the final check.  Its one batch fixes the pump power, delta
        # and the atom number: the drive and the Lorentzian are computed
        # once, the detuning term of rho_ee at every evaluation
        monkeypatch.chdir(tmp_path)
        assert cli.main(["calibrate"]) == 0
        rho = recorded_calls(monkeypatch, gain.atomics, "excited_fraction")
        terms = recorded_calls(monkeypatch, gain.atomics, "detuning_term")
        drives = recorded_calls(monkeypatch, gain.atomics,
                                "saturation_parameter")
        lorentz = recorded_calls(monkeypatch, gain, "_lorentzian")
        searches = _recorded_searches(monkeypatch)
        assert cli.main(["shift-scan", "--vary", "b_offset", "--min", "1.5",
                         "--max", "4.5", "--step", "1"]) == 0
        assert len(searches) == 4
        evaluations = len(rho)
        assert 0 < evaluations <= 3 + max(s["calls"] for s in searches)
        assert len(terms) == evaluations
        assert len(drives) == len(lorentz) == 1

    @pytest.mark.parametrize("func,lo,hi,xatol", [
        (lambda x: 0.0, 0.0, 1.0, 1e-5),                   # flat
        (lambda x: x, -3.0, 2.0, 1e-5),                    # optimum at lo
        (lambda x: -x, -3.0, 2.0, 1e-5),                   # optimum at hi
        (lambda x: abs(x - 0.3), 0.0, 1.0, 1e-8),          # kink
        (lambda x: np.cos(x), 0.0, 2 * np.pi, 1e-5),
        (lambda x: (x - 2.0) * x * (x + 2.0) ** 2, -3.0, -1.0, 1e-5),
        (lambda x: x * x, 5.0, 5.0, 1e-5),                 # empty interval
    ], ids=["flat", "lower-bound", "upper-bound", "kink", "cosine", "quartic",
            "point"])
    def test_reference_functions(self, func, lo, hi, xatol):
        assert _fminbound_counted(func, lo, hi, xatol) == \
            _scipy_bounded(func, lo, hi, xatol)

    @settings(max_examples=200, deadline=None)
    @given(curvature=st.floats(-1e3, 1e3).filter(lambda c: c != 0.0),
           center=st.floats(-2.0, 3.0), offset=st.floats(-1e6, 1e6),
           lo=st.floats(-1e7, 1e7), width=st.floats(1e-6, 1e7),
           xatol=st.sampled_from([1e-8, 1e-5, 1.0]))
    def test_quadratics(self, curvature, center, offset, lo, width, xatol):
        hi = lo + width
        c = lo + center * width    # inside or outside the bounds

        def func(x):
            return curvature * (x - c) ** 2 + offset

        assert _fminbound_counted(func, lo, hi, xatol) == \
            _scipy_bounded(func, lo, hi, xatol)
