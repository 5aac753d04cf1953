"""Outside-in layer trace of one benchmark process.

``gain`` calls ``geometry`` and ``atomics`` through module attributes, and
``cli`` calls ``gain``, ``photonstats`` and ``results`` the same way, so
replacing those attributes with timing wrappers catches the calls across
a layer boundary without editing the package.  Calls within ``gain``
(``family_gains`` -> ``mode_gain``, ``detuning_map`` -> ``steady_state``)
go through module globals and are caught too.  Every ``geometry`` and
``atomics`` function that ``gain`` calls is wrapped; the small ones are
pooled as ``geometry.other`` and ``atomics.other``.  Not wrapped:
``gain.output_power`` (a closed-form expression the ``threshold`` command
calls once per scan point; its time is in ``cli.main``'s self time),
the ``geometry.jones_linear`` call ``gain`` makes on import, and helpers a
layer only calls internally (``classify_jones``, ``_family_profile``,
...), whose time is part of the caller's self time.

Each wrapped call is a span ``[name, start, end, parent, child_s]`` kept in
memory; self time is ``end - start - child_s``.  Observers turn arguments
and results into counters at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import time

from motlaser import atomics, gain, geometry, photonstats, results

_ATOMICS_OTHER = ("zeeman_shift", "saturation_parameter",
                  "saturation_intensity", "doppler_sigma")
_GEOMETRY_OTHER = ("family_peak_ratio", "transverse_mode_frequency",
                   "jones_linear")


def _on_detuning_map(tracer, span, args, kwargs, result):
    tracer.count("gain.cells", result.ok.size)
    tracer.count("gain.cells_ok", int(result.ok.sum()))


def _on_mode_overlap(tracer, span, args, kwargs, result):
    family = int(args[2] if len(args) > 2 else kwargs.get("n_family", 0))
    if family not in tracer.families_seen:   # fills _family_profile's cache
        tracer.families_seen.add(family)
        tracer.cold_s += span[2] - span[1]


def _on_g2_cross(tracer, span, args, kwargs, result):
    a, b, bin_width = args[0], args[1], args[2]
    bins = round(min(a.duration, b.duration) / bin_width)
    tracer.count("photonstats.pairs", result.total_pairs)
    tracer.count("photonstats.bins_x_lags_computed", bins * result.lags.size)


def _on_simulate_intensity(tracer, span, args, kwargs, result):
    tracer.count("photonstats.samples", result.samples.size)


def _on_poissonize(tracer, span, args, kwargs, result):
    tracer.count("photonstats.clicks",
                 sum(s.timestamps.size for s in result))


def _on_write_clickstream(tracer, span, args, kwargs, result):
    tracer.count("photonstats.clicks_dropped",
                 args[0].timestamps.size - result)


def _on_table_write(tracer, span, args, kwargs, result):
    table, csv_path, meta_path = args
    tracer.count("results.rows", len(table.rows))
    tracer.count("results.bytes",
                 os.path.getsize(csv_path) + os.path.getsize(meta_path))


# (owner, attribute, span name, observer)
TARGETS = (
    (gain, "calibrate", "gain.calibrate", None),
    (gain, "detuning_map", "gain.detuning_map", _on_detuning_map),
    (gain, "optimum_scan", "gain.optimum_scan", None),
    (gain, "threshold_solve", "gain.threshold_solve", None),
    (gain, "steady_state", "gain.steady_state", None),
    (gain, "mode_gain", "gain.mode_gain", None),
    (geometry, "cavity_emission_jones", "geometry.cavity_emission_jones", None),
    (geometry, "pump_excitation_weights", "geometry.pump_excitation_weights",
     None),
    (geometry, "mode_overlap_fraction", "geometry.mode_overlap_fraction",
     _on_mode_overlap),
    (atomics, "excited_population", "atomics.excited_population", None),
    *((geometry, name, "geometry." + name, None) for name in _GEOMETRY_OTHER),
    *((atomics, name, "atomics." + name, None) for name in _ATOMICS_OTHER),
    (photonstats, "simulate_intensity", "photonstats.simulate_intensity",
     _on_simulate_intensity),
    (photonstats, "poissonize", "photonstats.poissonize", _on_poissonize),
    (photonstats, "g2_cross", "photonstats.g2_cross", _on_g2_cross),
    (photonstats, "write_clickstream", "photonstats.write_clickstream",
     _on_write_clickstream),
    (results.ScanResultTable, "write", "results.write", _on_table_write),
)


class Tracer:
    """Spans and counters of one process; wrappers live between install()
    and restore()."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.families_seen = set()
        self.cold_s = 0.0
        self._stack = []
        self._originals = []

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if observe is not None:
                observe(self, span, args, kwargs, result)
            return result
        return wrapper

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span of the given name."""
        return self._wrap(name, fn, None)(*args)

    def install(self):
        for owner, attr, name, observe in TARGETS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))

    def restore(self) -> bool:
        """Put every original back; True when none of the wrappers is left."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        removed = all(getattr(owner, attr) is original
                      for owner, attr, original in self._originals)
        self._originals.clear()
        return removed

    def start_workload(self):
        """Counters from here on describe the workload, not the set-up."""
        self.counters.clear()
        return time.monotonic()

    def layer_metrics(self, since: float) -> dict:
        """Per-layer metrics over the spans that started at or after since."""
        calls, total, own = {}, {}, {}
        for name, start, end, _, child in self.spans:
            if start < since:
                continue
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child)
        c = self.counters
        m = {
            "cli.main.self_s": own.get("cli.main", 0.0),
            "results.write_s": total.get("results.write", 0.0),
            "results.rows": c.get("results.rows", 0),
            "results.bytes": c.get("results.bytes", 0),
            "gain.detuning_map_s": total.get("gain.detuning_map", 0.0),
            "gain.cells_ok_ratio": (c["gain.cells_ok"] / c["gain.cells"]
                                    if c.get("gain.cells") else 0.0),
            "gain.optimum_scan_s": total.get("gain.optimum_scan", 0.0),
            "gain.threshold_solve_s": total.get("gain.threshold_solve", 0.0),
            "gain.threshold_solve.calls": calls.get("gain.threshold_solve", 0),
            "geometry.mode_overlap_fraction.cold_s": self.cold_s,
            "geometry.other.calls": sum(calls.get("geometry." + n, 0)
                                        for n in _GEOMETRY_OTHER),
            "geometry.other.self_s": sum(own.get("geometry." + n, 0.0)
                                         for n in _GEOMETRY_OTHER),
            "atomics.other.calls": sum(calls.get("atomics." + n, 0)
                                       for n in _ATOMICS_OTHER),
            "atomics.other.self_s": sum(own.get("atomics." + n, 0.0)
                                        for n in _ATOMICS_OTHER),
            "photonstats.g2_cross_s": total.get("photonstats.g2_cross", 0.0),
            "photonstats.simulate_intensity_s":
                total.get("photonstats.simulate_intensity", 0.0),
            "photonstats.poissonize_s":
                total.get("photonstats.poissonize", 0.0),
            "photonstats.write_clickstream_s":
                total.get("photonstats.write_clickstream", 0.0),
            "trace.spans": sum(calls.values()),
        }
        for name in ("gain.mode_gain", "gain.steady_state",
                     "geometry.cavity_emission_jones",
                     "geometry.pump_excitation_weights",
                     "geometry.mode_overlap_fraction",
                     "atomics.excited_population"):
            m[name + ".calls"] = calls.get(name, 0)
            m[name + ".self_s"] = own.get(name, 0.0)
        for name in ("photonstats.pairs", "photonstats.samples",
                     "photonstats.clicks", "photonstats.clicks_dropped",
                     "photonstats.bins_x_lags_computed"):
            m[name] = c.get(name, 0)
        m["photonstats.pairs_per_s"] = (
            m["photonstats.pairs"] / m["photonstats.g2_cross_s"]
            if m["photonstats.g2_cross_s"] else 0.0)
        return m

    def dump(self, path):
        """Write the spans (names interned) and counters as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent",
                                  "child_s"],
                       "spans": [[index[s[0]], *s[1:]] for s in self.spans],
                       "counters": self.counters}, fh)
