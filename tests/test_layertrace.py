"""The benchmark's layer trace wraps package functions by name; a rename
in the package would break it without failing any other test."""

import importlib
import sys
from pathlib import Path

from motlaser import gain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layertrace(monkeypatch):
    # read perfbench/ only: no bytecode cache is written there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layertrace")


def test_every_trace_target_resolves(monkeypatch):
    layertrace = _layertrace(monkeypatch)
    for owner, attr, name, _ in layertrace.TARGETS:
        assert callable(getattr(owner, attr, None)), name
    traced = {attr for owner, attr, _, _ in layertrace.TARGETS
              if owner is gain}
    assert {"mode_gain", "steady_state", "threshold_solve"} <= traced


def test_tracer_installs_and_restores(monkeypatch):
    layertrace = _layertrace(monkeypatch)
    originals = [getattr(owner, attr)
                 for owner, attr, _, _ in layertrace.TARGETS]
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not original
                   for (owner, attr, _, _), original
                   in zip(layertrace.TARGETS, originals))
    finally:
        restored = tracer.restore()
    assert restored
    assert all(getattr(owner, attr) is original
               for (owner, attr, _, _), original
               in zip(layertrace.TARGETS, originals))
