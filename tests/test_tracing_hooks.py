"""The benchmark tracer (``perfbench/tracing.py``) attaches to the package by
name, so a rename it does not follow fails here, not only in a traced
benchmark run."""

import importlib.util
import os

import aavescan.cli as cli
import aavescan.gateway as gateway
import aavescan.sink as sink


def _tracing():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_but_the_known_one_resolves():
    tracing = _tracing()
    real_fsync = os.fsync
    restore, missing = tracing.install(tracing.Tracer())
    try:
        # extract scans a chain's streams through scan_events and no longer calls
        # cli.scan_event, which the tracer still wraps
        assert missing == ["aavescan.cli.scan_event"]
    finally:
        restore()
    assert os.fsync is real_fsync
    assert cli.FixtureGateway is gateway.FixtureGateway
    assert "open" not in vars(sink)
