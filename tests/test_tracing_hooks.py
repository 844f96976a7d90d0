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


def test_the_gateway_hook_counts_every_row_an_extract_asks(tmp_path, mini_corpus_dir):
    """extract asks each chain's rows through the gateway's ``get_logs``, which the
    tracer wraps per gateway: its row count is the rows extracted. Each row is also
    decoded and appended once, and each record saved goes through ``Checkpoint.save``,
    so the per-layer spans cannot read 0 while those layers work."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    restore, _missing = tracing.install(tracer)
    try:
        summaries = cli.run_extract(cli.RunConfig(
            registry_path=None, out_dir=str(tmp_path / "out"), chains=["ethereum"],
            events=["all"], from_block=None, to_block=None, batch=10_000, batch_max=100_000,
            fixture_dir=mini_corpus_dir, live=False, resume=False, lenient=False,
            json_progress=False))
    finally:
        restore()
    rows = sum(summary.rows_emitted for summary in summaries)
    assert rows > 0
    assert tracer.values["gateway.rows"] == rows
    spans = tracer.spans()
    assert spans["decoder.decode"][0] == spans["sink.append"][0] == rows
    # 104 commits and 13 finalized records of the 13 streams, as the fsync budget counts
    assert spans["scanner.checkpoint_save"][0] == 117
