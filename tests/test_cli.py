import collections
import csv
import gc
import io
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest
from click.testing import CliRunner

import aavescan
from aavescan.cli import main
from aavescan.sink import iter_streams

import reference


@pytest.fixture()
def runner():
    return CliRunner()


PARAMS_YAML = """
assets:
  coll:
    symbol: COLL
    decimals: 18
    price: "2"
    liquidation_threshold: "0.5"
    ltv: "0.45"
    liquidation_bonus_bps: 10500
    protocol_fee_share: "0.2"
  debt:
    symbol: DEBT
    decimals: 18
    price: "1"
    liquidation_threshold: "0.8"
    ltv: "0.75"
"""

POSITION_YAML = """
user: "0x1111111111111111111111111111111111111111"
collateral:
  - {asset: coll, amount: "100", enabled: true}
debt:
  - {asset: debt, amount: "200"}
"""

ZERO_DEBT_POSITION = """
user: "0x1111111111111111111111111111111111111111"
collateral:
  - {asset: coll, amount: "100", enabled: true}
debt: []
"""


def test_chains_command(runner):
    result = runner.invoke(main, ["chains"])
    assert result.exit_code == 0
    assert "ethereum\t0x87870bca3f3fd6335c3f4ce8392d69350b4fa4e2" in result.output
    assert len(result.output.strip().splitlines()) == 6


def test_events_command(runner):
    result = runner.invoke(main, ["events"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 13
    assert any(line.startswith("Supply\t0x2b627736") for line in lines)


class TestExtract:
    def test_unknown_chain_exits_2_before_network(self, runner, tmp_path):
        result = runner.invoke(main, [
            "extract", "--chain", "emerald", "--out", str(tmp_path / "out"), "--live",
        ])
        assert result.exit_code == 2
        assert "unknown chain" in result.stderr

    def test_requires_mode_choice(self, runner, tmp_path):
        result = runner.invoke(main, [
            "extract", "--chain", "ethereum", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert "--live or --fixture-dir" in result.stderr

    def test_live_without_env_is_config_error(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("RPC_URL_ETHEREUM", raising=False)
        result = runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply",
            "--out", str(tmp_path / "out"), "--live",
        ])
        assert result.exit_code == 2
        assert "RPC_URL_ETHEREUM" in result.stderr

    @pytest.mark.parametrize("batch, bounds", [
        (["--batch", "0"], "--batch 0 outside [1, --batch-max 100000]"),
        (["--batch", "11", "--batch-max", "10"], "--batch 11 outside [1, --batch-max 10]"),
    ], ids=["zero", "above_batch_max"])
    def test_batch_outside_its_bounds_exits_2_before_any_directory(
            self, runner, tmp_path, mini_corpus_dir, batch, bounds):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply",
            "--out", str(out), "--fixture-dir", mini_corpus_dir, *batch,
        ])
        assert result.exit_code == 2, result.output
        assert result.stderr.splitlines() == [f"Error: {bounds}"]
        assert not out.exists()

    def test_emulator_run_matches_reference(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        assert result.exit_code == 0, result.output + result.stderr
        stream = out / "ethereum" / "Supply"
        parts = [n for n in os.listdir(stream) if n.endswith(".csv")]
        assert len(parts) == 1
        produced = (stream / parts[0]).read_bytes()
        expected = reference.stream_csv_bytes(mini_corpus_dir, "ethereum", "Supply")
        assert produced == expected

    def test_an_event_named_twice_is_extracted_once(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply,Supply",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        assert result.exit_code == 0, result.output + result.stderr
        assert result.stderr.count("ethereum/Supply: rows=34 ") == 1
        assert runner.invoke(main, ["validate", str(out)]).exit_code == 0

    def test_lenient_masks_a_padded_address_fresh_and_through_resume(
            self, runner, tmp_path, mini_corpus_dir, registry):
        """One Supply log's ``user`` word has a nonzero padding byte: a strict extract
        exits 3 naming the stream and the log, and ``--lenient`` writes the address of the
        word's low 20 bytes, fresh and when it resumes the strict run's checkpoint."""
        from aavescan.sink import Checkpoint, checkpoint_path

        corpus = tmp_path / "corpus"
        shutil.copytree(os.path.join(mini_corpus_dir, "ethereum"), corpus / "ethereum")
        logs_path = corpus / "ethereum" / "logs.jsonl"
        logs = [json.loads(line) for line in logs_path.read_text().splitlines()]
        topic0 = "0x" + registry.event("Supply").topic0.hex()
        supply = [log for log in logs if log["topics"][0] == topic0]
        bad = supply[len(supply) // 2]
        bad["data"] = "0x01" + bad["data"][4:]  # the first padding byte of the user word
        logs_path.write_text("".join(json.dumps(log, sort_keys=True) + "\n" for log in logs))
        args = ["extract", "--chain", "ethereum", "--event", "Supply",
                "--fixture-dir", str(corpus)]

        strict = runner.invoke(main, args + ["--out", str(tmp_path / "resumed")])
        assert strict.exit_code == 3, strict.output
        assert f"ethereum/Supply log ({bad['blockNumber']}, {bad['logIndex']}):" in strict.stderr
        record = Checkpoint.load(checkpoint_path(str(tmp_path / "resumed"), "ethereum", "Supply"),
                                 "ethereum", "Supply")
        assert 0 < record.rows_emitted_total < len(supply)  # the resume starts mid-stream

        expected = reference.stream_csv_bytes(mini_corpus_dir, "ethereum", "Supply")
        for out, resume in (("fresh", []), ("resumed", ["--resume"])):
            result = runner.invoke(main, args + ["--out", str(tmp_path / out), "--lenient",
                                                 *resume])
            assert result.exit_code == 0, result.output
            stream = tmp_path / out / "ethereum" / "Supply"
            (name,) = [n for n in os.listdir(stream) if n.startswith("aave_V3_")]
            assert (stream / name).read_bytes() == expected, out

    def test_resume_noop_when_complete(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        args = ["extract", "--chain", "ethereum", "--event", "Supply",
                "--out", str(out), "--fixture-dir", mini_corpus_dir]
        assert runner.invoke(main, args).exit_code == 0
        rerun = runner.invoke(main, args + ["--resume"])
        assert rerun.exit_code == 0
        # and without --resume the tool refuses to double-write
        dirty = runner.invoke(main, args)
        assert dirty.exit_code == 2
        assert "checkpoint" in dirty.stderr

    def test_resume_redoes_an_interrupted_finalize(self, runner, tmp_path, mini_corpus_dir,
                                                   monkeypatch):
        from aavescan.sink import ShardWriter

        real_finalize = ShardWriter.finalize

        def failing_finalize(writer, last_block):
            if writer._schema.event_name == "Supply":
                raise OSError("disk full")
            return real_finalize(writer, last_block)

        out = tmp_path / "out"
        args = ["extract", "--chain", "ethereum", "--event", "all",
                "--out", str(out), "--fixture-dir", mini_corpus_dir]
        monkeypatch.setattr(ShardWriter, "finalize", failing_finalize)
        assert runner.invoke(main, args).exit_code == 4
        monkeypatch.setattr(ShardWriter, "finalize", real_finalize)
        resumed = runner.invoke(main, args + ["--resume"])
        assert resumed.exit_code == 0, resumed.stderr
        assert "ethereum/Supply: rows=34 batches=0" in resumed.stderr
        checked = runner.invoke(main, ["validate", str(out)])
        assert checked.exit_code == 0, checked.output
        stream = out / "ethereum" / "Supply"
        (name,) = [n for n in os.listdir(stream) if n.startswith("aave_V3_")]
        assert (stream / name).read_bytes() == reference.stream_csv_bytes(
            mini_corpus_dir, "ethereum", "Supply")

    def test_an_interrupted_stream_joins_a_resumed_extract_at_its_checkpoint(
            self, runner, tmp_path, mini_corpus_dir, monkeypatch, registry):
        """``--event Supply`` fails at its third record save; ``--event all --resume``
        then asks the other streams from the start and Supply from its checkpoint on,
        each block once, and every stream ends as the reference."""
        from aavescan.gateway import FixtureGateway
        from aavescan.sink import Checkpoint

        out = tmp_path / "out"
        args = ["extract", "--chain", "ethereum", "--out", str(out),
                "--fixture-dir", mini_corpus_dir]
        queries = []
        get_logs = FixtureGateway.get_logs
        monkeypatch.setattr(FixtureGateway, "get_logs", lambda gateway, query: (
            queries.append(query), get_logs(gateway, query))[1])
        saves = []
        save = Checkpoint.save

        def failing_save(record, path):
            saves.append(record)
            if len(saves) == 3:
                raise OSError("disk full")
            return save(record, path)

        with monkeypatch.context() as patch:
            patch.setattr(Checkpoint, "save", failing_save)
            assert runner.invoke(main, args + ["--event", "Supply"]).exit_code == 4
        first_run = len(queries)
        resumed = runner.invoke(main, args + ["--event", "all", "--resume"])
        assert resumed.exit_code == 0, resumed.stderr

        supply = registry.event("Supply").topic0
        asked = [block for query in queries[first_run:] if supply in query.topics
                 for block in range(query.from_block, query.to_block + 1)]
        end = queries[-1].to_block
        assert asked == list(range(saves[1].last_completed_block + 1, end + 1))  # each once
        assert len(queries[first_run].topics) == len(registry.event_names()) - 1
        assert {len(query.topics) for query in queries[first_run:]} == {
            len(registry.event_names()) - 1, len(registry.event_names())}
        TestLiveExtract._assert_parts_match_reference(out, mini_corpus_dir, registry)

    def test_resuming_a_finalized_stream_past_its_end_exits_4_before_any_query(
            self, runner, tmp_path, mini_corpus_dir, monkeypatch):
        """A stream finalized below the end block is not extended: the resume exits 4
        naming the stream, sends no query and changes no file."""
        from aavescan.gateway import FixtureGateway

        out = tmp_path / "out"
        args = ["extract", "--chain", "ethereum", "--out", str(out),
                "--fixture-dir", mini_corpus_dir]
        done = runner.invoke(main, args + ["--event", "all", "--to", "16350000"])
        assert done.exit_code == 0, done.stderr
        before, state = _tree_bytes(out), _tree_state(out)
        queries = []
        get_logs = FixtureGateway.get_logs
        monkeypatch.setattr(FixtureGateway, "get_logs", lambda gateway, query: (
            queries.append(query), get_logs(gateway, query))[1])
        for event in ("RebalanceStableBorrowRate", "IsolationModeTotalDebtUpdated", "all"):
            result = runner.invoke(main, args + ["--event", event, "--resume"])
            assert result.exit_code == 4, result.output + result.stderr
            assert "Traceback" not in result.output
            named = "Supply" if event == "all" else event  # the first stream of all
            assert f"ethereum/{named} is finalized at block 16350000" in result.stderr
        assert queries == []
        assert (_tree_bytes(out), _tree_state(out)) == (before, state)
        again = runner.invoke(main, args + ["--event", "all", "--to", "16350000", "--resume"])
        assert again.exit_code == 0, again.stderr  # up to its end block, a resume does nothing
        assert (queries, _tree_bytes(out), _tree_state(out)) == ([], before, state)

    def test_an_extract_of_a_chain_another_extract_holds_exits_4(self, runner, tmp_path,
                                                                 mini_corpus_dir, monkeypatch):
        """A chain's output directory is locked for a whole extract: a second one,
        here a resume, exits 4 naming it and changes no file."""
        import fcntl

        from aavescan.sink import ShardWriter

        def failing_finalize(writer, last_block):
            raise OSError("disk full")

        out = tmp_path / "out"
        args = ["extract", "--chain", "ethereum", "--event", "all",
                "--out", str(out), "--fixture-dir", mini_corpus_dir]
        with monkeypatch.context() as patch:
            patch.setattr(ShardWriter, "finalize", failing_finalize)
            assert runner.invoke(main, args).exit_code == 4  # every stream left to finalize
        before = _tree_bytes(out)
        holder = os.open(out / "ethereum", os.O_RDONLY)
        try:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            locked = runner.invoke(main, args + ["--resume"])
        finally:
            os.close(holder)
        assert locked.exit_code == 4, locked.output + locked.stderr
        assert f"{out / 'ethereum'} is locked by another extract" in locked.stderr
        assert _tree_bytes(out) == before
        resumed = runner.invoke(main, args + ["--resume"])
        assert resumed.exit_code == 0, resumed.stderr
        assert runner.invoke(main, ["validate", str(out)]).exit_code == 0

    def test_fsync_budget_of_one_chain(self, runner, tmp_path, mini_corpus_dir, monkeypatch):
        """One fsync per batch flush with an open part and per part close, and one
        per record save: each commit's and each stream's finalized one."""
        from test_sink import fsyncs_by_kind

        fsyncs = fsyncs_by_kind(monkeypatch)
        result = runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "all",
            "--out", str(tmp_path / "out"), "--fixture-dir", mini_corpus_dir,
        ])
        assert result.exit_code == 0, result.stderr
        # 104 commits and 13 finalized records of the 13 streams
        assert fsyncs == {"part": 90, "record": 117}

    def test_validate_on_extracted_output(self, runner, tmp_path, mini_corpus_dir):
        from aavescan.sink import Checkpoint, list_stream_parts

        out = tmp_path / "out"
        runner.invoke(main, [
            "extract", "--chain", "base", "--event", "all",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        result = runner.invoke(main, ["validate", str(out)])
        assert result.exit_code == 0
        assert "0 violation(s)" in result.stderr
        for chain, event, directory in iter_streams(str(out)):  # parts and one finalized record
            record = Checkpoint.load(os.path.join(directory, "checkpoint.json"), chain, event)
            assert (record.finalized, record.rows_in_current_part) == (True, 0), event
            assert record.current_part_number == len(record.parts), event
            parts = list_stream_parts(directory)
            assert [p.filename for p in record.parts] == parts, event
            assert sorted(os.listdir(directory)) == sorted(parts + ["checkpoint.json"]), event

    def test_json_progress(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "MintedToTreasury",
            "--out", str(out), "--fixture-dir", mini_corpus_dir, "--json-progress",
        ])
        assert result.exit_code == 0
        assert '"chain": "ethereum"' in result.stderr

    def test_terminal_gateway_error_exits_3(self, runner, tmp_path, mini_corpus_dir,
                                            monkeypatch):
        import aavescan.cli as cli_module
        from faults import scripted_faults

        from aavescan.gateway import ErrorKind, FixtureGateway

        real = cli_module._make_gateway

        def failing_gateway(config, registry, chain_name):
            gateway = real(config, registry, chain_name)
            return FixtureGateway(
                gateway._logs, gateway._timestamps, head_block=gateway._head,
                fault_script=scripted_faults([ErrorKind.TERMINAL]),
            )

        monkeypatch.setattr(cli_module, "_make_gateway", failing_gateway)
        result = runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply",
            "--out", str(tmp_path / "out"), "--fixture-dir", mini_corpus_dir,
        ])
        assert result.exit_code == 3
        assert "Terminal" in result.stderr

    def test_undecodable_log_exits_3_with_its_checkpoint_unmoved(self, runner, tmp_path,
                                                                 mini_corpus_dir):
        from aavescan.registry import load_registry
        from aavescan.sink import Checkpoint, checkpoint_path

        corpus = tmp_path / "corpus"
        shutil.copytree(os.path.join(mini_corpus_dir, "ethereum"), corpus / "ethereum")
        logs_path = corpus / "ethereum" / "logs.jsonl"
        entries = [json.loads(line) for line in logs_path.read_text().splitlines()]
        borrow = "0x" + load_registry().event("Borrow").topic0.hex()
        victim = [e for e in entries if e["topics"][0] == borrow][-1]
        victim["data"] = victim["data"][:-2]  # one byte short of its last word
        logs_path.write_text("".join(json.dumps(e) + "\n" for e in entries))

        out = tmp_path / "out"
        result = runner.invoke(main, ["extract", "--chain", "ethereum", "--event", "all",
                                      "--out", str(out), "--fixture-dir", str(corpus)])
        assert result.exit_code == 3, result.output + result.stderr
        assert "Traceback" not in result.output
        key = (victim["blockNumber"], victim["logIndex"])
        assert f"ethereum/Borrow log {key}" in result.stderr
        cp_file = checkpoint_path(str(out), "ethereum", "Borrow")
        assert Checkpoint.load(cp_file, "ethereum", "Borrow").last_completed_block < key[0]

    def test_a_stream_past_its_last_part_number_exits_4(self, runner, tmp_path,
                                                        mini_corpus_dir, monkeypatch):
        from functools import partial

        import aavescan.sink as sink

        monkeypatch.setattr(sink, "MAX_PART_NUMBER", 2)
        # extract opens every stream through ``resume``; 34 Supply rows need 12 parts of 3
        monkeypatch.setattr(sink.ShardWriter, "resume",
                            classmethod(partial(sink.ShardWriter.resume.__func__, row_limit=3)))
        result = runner.invoke(main, ["extract", "--chain", "ethereum", "--event", "Supply",
                                      "--out", str(tmp_path / "out"),
                                      "--fixture-dir", mini_corpus_dir])
        assert result.exit_code == 4, result.output + result.stderr
        assert "Traceback" not in result.output
        assert "ethereum/Supply exceeded 2 parts" in result.stderr

    def test_a_fresh_extract_replaces_an_orphan_open_part(self, runner, tmp_path,
                                                          mini_corpus_dir):
        """An open part with no record beside it, as a run killed before its first
        commit leaves it, holds nothing committed: a fresh extract writes the stream
        anew."""
        stream = tmp_path / "out" / "ethereum" / "Supply"
        stream.mkdir(parents=True)
        (stream / ".part001.open.csv").write_bytes(b"stale,row\n" * 10_000)
        result = runner.invoke(main, ["extract", "--chain", "ethereum", "--event", "Supply",
                                      "--out", str(tmp_path / "out"),
                                      "--fixture-dir", mini_corpus_dir])
        assert result.exit_code == 0, result.output + result.stderr
        (name,) = [n for n in os.listdir(stream) if n.endswith(".csv")]
        assert (stream / name).read_bytes() == reference.stream_csv_bytes(
            mini_corpus_dir, "ethereum", "Supply")


class TestChainProcesses:
    """Several chains run in one process each; every outcome stays classified."""

    def _extract(self, runner, tmp_path, corpus, chains="ethereum,base"):
        result = runner.invoke(main, [
            "extract", "--chain", chains, "--event", "all",
            "--out", str(tmp_path / "out"), "--fixture-dir", str(corpus),
        ])
        assert multiprocessing.active_children() == []
        return result

    def test_terminal_error_in_chain_process_exits_3(self, runner, tmp_path, mini_corpus_dir):
        corpus = tmp_path / "corpus"
        shutil.copytree(mini_corpus_dir, corpus)
        with open(corpus / "base" / "logs.jsonl", encoding="utf-8") as fh:
            block = int(json.loads(fh.readline())["blockNumber"])
        blocks = corpus / "base" / "blocks.json"
        table = json.loads(blocks.read_text())
        del table["timestamps"][str(block)]
        blocks.write_text(json.dumps(table))
        result = self._extract(runner, tmp_path, corpus)
        assert result.exit_code == 3, result.output
        assert "Terminal" in result.stderr
        assert f"block {block}" in result.stderr

    def test_usage_error_in_chain_process_exits_2(self, runner, tmp_path, mini_corpus_dir):
        # the mini corpus has ethereum and base only
        result = self._extract(runner, tmp_path, mini_corpus_dir, chains="all")
        assert result.exit_code == 2, result.output
        assert "fixture corpus has no directory for 'optimism'" in result.stderr
        assert list(iter_streams(str(tmp_path / "out"))) == []

    def test_chains_run_in_processes_unless_threads_run(self, tmp_path, monkeypatch):
        import aavescan.cli as cli_module
        from aavescan.scanner import ScanSummary

        def report_pid(config, registry, chain_name, event_names):
            return [ScanSummary(chain=chain_name, event=str(os.getpid()))]

        monkeypatch.setattr(cli_module, "_extract_chain", report_pid)
        for chain in ("ethereum", "base"):  # extract checks each chain's fixture directory
            os.makedirs(tmp_path / chain)
        config = cli_module.RunConfig(
            registry_path=None, out_dir=str(tmp_path / "out"), chains=["ethereum,base"],
            events=["Supply"], from_block=None, to_block=None, batch=1, batch_max=1,
            fixture_dir=str(tmp_path), live=False, resume=False, lenient=False,
            json_progress=False)
        pids = {s.event for s in cli_module.run_extract(config)}
        assert pids and str(os.getpid()) not in pids
        assert multiprocessing.active_children() == []

        # forking while another thread runs is unsafe, so the chains run in
        # threads of this process; the barrier holds only if they run at once
        both_running = threading.Barrier(2, timeout=10)

        def report_pid_together(config, registry, chain_name, event_names):
            both_running.wait()
            return report_pid(config, registry, chain_name, event_names)

        monkeypatch.setattr(cli_module, "_extract_chain", report_pid_together)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            pids = {s.event for s in cli_module.run_extract(config)}
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pids == {str(os.getpid())}

    def test_dead_chain_process_exits_4(self, runner, tmp_path, mini_corpus_dir, monkeypatch):
        import aavescan.cli as cli_module

        real = cli_module._extract_chain
        parent = os.getpid()

        def dying(config, registry, chain_name, event_names):
            if chain_name == "base" and os.getpid() != parent:
                os._exit(9)
            return real(config, registry, chain_name, event_names)

        monkeypatch.setattr(cli_module, "_extract_chain", dying)
        result = self._extract(runner, tmp_path, mini_corpus_dir)
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert "extraction aborted: a chain process died" in result.stderr
        assert "Traceback" not in result.stderr

    def test_progress_of_every_chain_reaches_stderr(self, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        proc = subprocess.run([
            sys.executable, "-m", "aavescan.cli", "extract", "--chain", "ethereum,base",
            "--event", "Supply", "--json-progress", "--out", str(out),
            "--fixture-dir", mini_corpus_dir,
        ], capture_output=True, text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        # whole lines only: progress from the two chain processes interleaves by line
        progress = [json.loads(line) for line in proc.stderr.splitlines()
                    if line.startswith("{")]
        assert {p["chain"] for p in progress} == {"ethereum", "base"}
        for chain in ("ethereum", "base"):
            stream = out / chain / "Supply"
            parts = sorted(n for n in os.listdir(stream) if n.endswith(".csv"))
            assert len(parts) == 1
            assert (stream / parts[0]).read_bytes() == reference.stream_csv_bytes(
                mini_corpus_dir, chain, "Supply")

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    def test_chain_processes_stop_when_extract_is_killed(self, runner, tmp_path,
                                                         mini_corpus_dir, registry):
        out, pid_dir, err_path = tmp_path / "out", tmp_path / "pids", tmp_path / "stderr"
        pid_dir.mkdir()
        args = ["extract", "--chain", "ethereum,base", "--event", "all", "--batch", "1000",
                "--batch-max", "1000", "--json-progress", "--out", str(out),
                "--fixture-dir", mini_corpus_dir]
        with open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, "-c", _SLOW_EXTRACT, str(pid_dir)] + args,
                                    stdout=subprocess.DEVNULL, stderr=err, env=_src_env())
        chain_pids: set[int] = set()
        try:
            deadline = time.monotonic() + 60
            while {json.loads(line)["chain"] for line in err_path.read_text().splitlines()
                   if line.startswith("{")} != {"ethereum", "base"}:
                assert proc.poll() is None and time.monotonic() < deadline, \
                    err_path.read_text()
                time.sleep(0.02)
            proc.kill()
            proc.wait(timeout=10)
            chain_pids = {int(name) for name in os.listdir(pid_dir)}
            assert len(chain_pids) == 2 and proc.pid not in chain_pids
            deadline = time.monotonic() + 10
            while any(map(_running, chain_pids)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(map(_running, chain_pids))
            written = _tree_state(out)
            time.sleep(0.3)
            assert _tree_state(out) == written
        finally:
            for pid in filter(_running, chain_pids):
                os.kill(pid, signal.SIGKILL)

        # the chain processes stopped at batch boundaries, so a resumed run
        # completes every stream exactly once
        resumed = runner.invoke(main, args + ["--resume"])
        assert resumed.exit_code == 0, resumed.output
        for chain in ("ethereum", "base"):
            for event in registry.event_names():
                expected = reference.stream_csv_bytes(mini_corpus_dir, chain, event)
                if expected is None:
                    continue
                stream = out / chain / event
                parts = sorted(n for n in os.listdir(stream) if n.endswith(".csv"))
                assert [(stream / part).read_bytes() for part in parts] == [expected]


# extract with every fixture query slowed, recording the pid of each
# process that scans; argv[1] is the pid directory, the rest the CLI arguments
_SLOW_EXTRACT = """
import os, sys, time
from aavescan.gateway import FixtureGateway
pid_dir = sys.argv.pop(1)
get_logs = FixtureGateway.get_logs
def slow_get_logs(self, query):
    open(os.path.join(pid_dir, str(os.getpid())), "a").close()
    time.sleep(0.02)
    return get_logs(self, query)
FixtureGateway.get_logs = slow_get_logs
from aavescan.cli import main
main(prog_name="aavescan")
"""


def _src_env() -> dict:
    src = os.path.dirname(os.path.dirname(aavescan.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _tree_bytes(root) -> dict:
    files = {}
    for d, _dirs, names in os.walk(root):
        for name in names:
            with open(os.path.join(d, name), "rb") as fh:
                files[os.path.join(d, name)] = fh.read()
    return files


def _tree_state(root) -> dict:
    return {os.path.join(d, n): os.stat(os.path.join(d, n)).st_mtime_ns
            for d, _dirs, names in os.walk(root) for n in names}


class _FakeRpcResponse:
    def __init__(self, payload):
        self.status_code = 200
        self.text = json.dumps(payload)

    def json(self):
        return json.loads(self.text)


class _FakeRpc:
    """A JSON-RPC endpoint over one chain of a corpus, in place of the live
    gateway's ``requests`` session. It answers a batch in reverse order and
    refuses any eth_getLogs span above ``max_span`` blocks as too large, and
    any batch of more than ``batch_limit`` requests as go-ethereum does."""

    def __init__(self, records, timestamps, head, max_span, removed_key=None,
                 null_logs=False, batch_limit=None):
        self.records = records
        self.timestamps = timestamps
        self.head = head
        self.max_span = max_span
        self.removed_key = removed_key  # (block, log index) of a log removed by a reorg
        self.null_logs = null_logs  # answer eth_getLogs with "result": null
        self.batch_limit = batch_limit
        self.batches_refused = 0
        self.bodies = []
        self.logs_answered = 0
        self.logs_refused = 0
        self.blocks_asked = collections.Counter()

    def post(self, url, json=None, timeout=None):
        self.bodies.append(json)
        if isinstance(json, list):
            if self.batch_limit is not None and len(json) > self.batch_limit:
                self.batches_refused += 1
                return _FakeRpcResponse([{"jsonrpc": "2.0", "id": json[0]["id"], "error": {
                    "code": -32600, "message": "batch too large"}}])
            return _FakeRpcResponse([self._answer(request) for request in json][::-1])
        return _FakeRpcResponse(self._answer(json))

    def _answer(self, request):
        reply = {"jsonrpc": "2.0", "id": request["id"]}
        method, params = request["method"], request["params"]
        if method == "eth_blockNumber":
            reply["result"] = hex(self.head)
        elif method == "eth_getBlockByNumber":
            block = int(params[0], 16)
            self.blocks_asked[block] += 1
            reply["result"] = {"number": params[0], "timestamp": hex(self.timestamps[block])}
        elif int(params[0]["toBlock"], 16) - int(params[0]["fromBlock"], 16) >= self.max_span:
            self.logs_refused += 1
            reply["error"] = {"code": -32005, "message": "query returned more than 10000 results"}
        elif self.null_logs:
            reply["result"] = None
        else:
            self.logs_answered += 1
            lo, hi = int(params[0]["fromBlock"], 16), int(params[0]["toBlock"], 16)
            reply["result"] = [
                dict(record, blockNumber=hex(record["blockNumber"]),
                     logIndex=hex(record["logIndex"]),
                     transactionIndex=hex(record["transactionIndex"]),
                     removed=(record["blockNumber"], record["logIndex"]) == self.removed_key)
                for record in self.records
                if lo <= record["blockNumber"] <= hi
                and record["address"] == params[0]["address"].lower()
                and record["topics"][0] == params[0]["topics"][0]
            ]
        return reply


class TestLiveExtract:
    @pytest.fixture()
    def live(self, runner, tmp_path, mini_corpus_dir, monkeypatch):
        """Runs ``extract --live`` on the mini corpus's ethereum chain through a
        _FakeRpc made with the given keywords; returns (result, rpc)."""
        import aavescan.cli as cli_module

        records, timestamps = reference.load_chain(mini_corpus_dir, "ethereum")
        with open(os.path.join(mini_corpus_dir, "ethereum", "blocks.json")) as fh:
            head = json.load(fh)["head"]
        http_gateway = cli_module.HttpGateway
        monkeypatch.setenv("RPC_URL_ETHEREUM", "http://rpc.test")

        def run(max_span=3_000, args=(), **rpc_options):
            rpc = _FakeRpc(records, timestamps, head, max_span=max_span, **rpc_options)
            monkeypatch.setattr(cli_module, "HttpGateway", lambda url: http_gateway(
                url, session=rpc, sleeper=lambda _s: None))
            result = runner.invoke(main, ["extract", "--live", "--chain", "ethereum",
                                          "--event", "all", "--out", str(tmp_path / "out"),
                                          *args])
            return result, rpc

        return run

    @staticmethod
    def _assert_parts_match_reference(out, mini_corpus_dir, registry):
        for event in registry.event_names():
            expected = reference.stream_csv_bytes(mini_corpus_dir, "ethereum", event)
            stream = out / "ethereum" / event
            parts = sorted(n for n in os.listdir(stream) if n.endswith(".csv"))
            assert [(stream / part).read_bytes() for part in parts] == (
                [] if expected is None else [expected]), event

    def test_live_run_matches_reference_with_one_timestamp_batch_per_answer(
            self, live, tmp_path, mini_corpus_dir, registry):
        result, rpc = live()
        assert result.exit_code == 0, result.output + result.stderr
        self._assert_parts_match_reference(tmp_path / "out", mini_corpus_dir, registry)

        assert rpc.logs_refused > 0  # the span limit made the scanner halve
        assert rpc.blocks_asked == collections.Counter(
            {record["blockNumber"]: 1 for record in rpc.records})
        singles = [body["method"] for body in rpc.bodies if isinstance(body, dict)]
        assert singles == ["eth_blockNumber"]  # every eth_getLogs goes in a query's batch
        methods = [{request["method"] for request in body}
                   for body in rpc.bodies if isinstance(body, list)]
        queries, lookups = methods.count({"eth_getLogs"}), methods.count({"eth_getBlockByNumber"})
        assert queries + lookups == len(methods)
        assert 0 < lookups <= queries  # at most one timestamp batch per query here
        assert max(len(body) for body in rpc.bodies if isinstance(body, list)
                   and body[0]["method"] == "eth_getLogs") == len(registry.event_names())

    def test_a_smaller_provider_batch_limit_is_met_by_halving_the_batch(
            self, live, tmp_path, mini_corpus_dir, registry):
        """Smaller POSTs, learned once, meet a provider that takes two requests a
        batch: the scans send the eth_getLogs queries they send without that limit."""
        unlimited, unlimited_rpc = live()
        shutil.rmtree(tmp_path / "out")
        result, rpc = live(batch_limit=2)
        assert result.exit_code == 0, result.output + result.stderr
        self._assert_parts_match_reference(tmp_path / "out", mini_corpus_dir, registry)
        assert 0 < rpc.batches_refused <= 7  # 100 halved to 1 at most, not once a query
        assert rpc.blocks_asked == collections.Counter(
            {record["blockNumber"]: 1 for record in rpc.records})
        assert (rpc.logs_answered, rpc.logs_refused) == (unlimited_rpc.logs_answered,
                                                         unlimited_rpc.logs_refused)
        summaries = [line for line in result.stderr.splitlines() if " batches=" in line]
        assert summaries == [line for line in unlimited.stderr.splitlines()
                             if " batches=" in line]

    def test_answers_commit_once_per_batch_of_blocks(self, live, tmp_path, mini_corpus_dir,
                                                     registry, monkeypatch):
        """A provider answering at most 2,000 blocks a query still sees one commit, one
        checkpoint save and one progress line per 10,000 blocks (--batch) a stream."""
        from aavescan.scanner import Checkpoint

        saves, finalized = collections.Counter(), collections.Counter()
        save = Checkpoint.save
        monkeypatch.setattr(Checkpoint, "save", lambda self, path: (
            (finalized if self.finalized else saves).update([self.event]), save(self, path))[1])
        result, rpc = live(max_span=2_000, args=["--json-progress"])
        assert result.exit_code == 0, result.output + result.stderr
        self._assert_parts_match_reference(tmp_path / "out", mini_corpus_dir, registry)
        assert rpc.logs_refused > 0
        progress = collections.Counter(json.loads(line)["event"]
                                       for line in result.stderr.splitlines()
                                       if line.startswith("{"))
        assert saves == progress
        assert saves == {event: 10 for event in registry.event_names()}
        assert finalized == {event: 1 for event in registry.event_names()}

    def test_a_chain_whose_extract_is_gone_stops_before_its_next_query(
            self, live, tmp_path, mini_corpus_dir, registry, monkeypatch):
        """The extract process dies while the second query after the first commit is
        in flight, a query that completes no commit: no query is sent and nothing
        committed after it, and a resume completes every stream as an
        uninterrupted run does."""
        import aavescan.cli as cli_module
        from aavescan.gateway import HttpGateway
        from aavescan.sink import Checkpoint, checkpoint_path

        saves = []
        save = Checkpoint.save
        monkeypatch.setattr(Checkpoint, "save", lambda self, path: (
            saves.append(self), save(self, path))[1])

        def exit_(code):  # os._exit, as a SystemExit the test runner reports
            raise SystemExit(code)

        monkeypatch.setattr(os, "_exit", exit_)
        monkeypatch.setattr(cli_module, "_extract_pid", os.getppid())
        queries = []  # per query sent, the commits made before it
        send_query = HttpGateway.get_logs

        def kill_in_the_second_query_after_a_commit(gateway, query):
            queries.append(len(saves))
            if sum(1 for count in queries if count) == 2:
                monkeypatch.setattr(cli_module, "_extract_pid", -1)
            return send_query(gateway, query)

        monkeypatch.setattr(HttpGateway, "get_logs", kill_in_the_second_query_after_a_commit)
        result, _rpc = live(max_span=2_000)
        assert result.exit_code == 4, result.output + result.stderr
        killed = [i for i, count in enumerate(queries) if count][1]
        assert len(queries) == killed + 1  # no query after the one in flight
        assert len(saves) == queries[killed]  # no commit after the kill
        for event in {cp.event for cp in saves}:
            cp_file = checkpoint_path(str(tmp_path / "out"), "ethereum", event)
            assert Checkpoint.load(cp_file, "ethereum", event) == [
                cp for cp in saves if cp.event == event][-1]

        monkeypatch.setattr(cli_module, "_extract_pid", None)
        monkeypatch.setattr(HttpGateway, "get_logs", send_query)
        result, _rpc = live(max_span=2_000, args=["--resume"])
        assert result.exit_code == 0, result.output + result.stderr
        self._assert_parts_match_reference(tmp_path / "out", mini_corpus_dir, registry)

    def test_log_still_removed_after_the_retries_exits_3_with_its_checkpoint_unmoved(
            self, live, tmp_path, mini_corpus_dir, registry):
        from aavescan.sink import Checkpoint, checkpoint_path

        records, _timestamps = reference.load_chain(mini_corpus_dir, "ethereum")
        borrow = "0x" + registry.event("Borrow").topic0.hex()
        victim = [r for r in records if r["topics"][0] == borrow][-1]
        key = (victim["blockNumber"], victim["logIndex"])
        result, _rpc = live(removed_key=key)
        assert result.exit_code == 3, result.output + result.stderr
        assert "Traceback" not in result.output
        assert f"log {key} removed by a reorg" in result.stderr
        cp_file = checkpoint_path(str(tmp_path / "out"), "ethereum", "Borrow")
        assert Checkpoint.load(cp_file, "ethereum", "Borrow").last_completed_block < key[0]

    def test_null_get_logs_result_exits_3(self, live):
        result, _rpc = live(null_logs=True)
        assert result.exit_code == 3, result.output + result.stderr
        assert "Traceback" not in result.output
        assert "eth_getLogs" in result.stderr


class TestValidateCommand:
    def test_violations_exit_nonzero(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        stream = out / "ethereum" / "Supply"
        (stream / "checkpoint.json").unlink()
        result = runner.invoke(main, ["validate", str(out)])
        assert result.exit_code == 1
        assert f"manifest\t{stream / 'checkpoint.json'}\t" in result.output

    def test_non_ascii_path_reaches_an_ascii_stream(self, tmp_path):
        stream = tmp_path / "ñ" / "ethereum" / "Supply"
        stream.mkdir(parents=True)
        (stream / "stray.csv").touch()
        proc = subprocess.run(
            [sys.executable, "-m", "aavescan.cli", "validate", str(tmp_path / "ñ")],
            capture_output=True, env=dict(_src_env(), PYTHONIOENCODING="ascii"), timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert str(stream / "stray.csv").encode() in proc.stdout


class TestLiquidateQuote:
    def _files(self, tmp_path, position_yaml=POSITION_YAML):
        params = tmp_path / "params.yaml"
        params.write_text(PARAMS_YAML)
        position = tmp_path / "position.yaml"
        position.write_text(position_yaml)
        return str(params), str(position)

    def test_worked_example(self, runner, tmp_path):
        params, position = self._files(tmp_path)
        result = runner.invoke(main, [
            "liquidate-quote", "--params", params, "--position", position,
            "--debt-asset", "debt", "--collateral-asset", "coll",
            "--debt-to-cover", "100",
        ])
        assert result.exit_code == 0, result.output
        assert "health_factor: 0.5" in result.output
        assert "close_factor: 1" in result.output
        assert "debt_repaid: 100" in result.output
        assert "base_collateral: 50" in result.output
        assert "total_collateral: 52.5" in result.output
        assert "protocol_fee: 0.525" in result.output
        assert "liquidator_receives: 51.975" in result.output

    def test_zero_debt_exits_1_with_infinite_health(self, runner, tmp_path):
        params, position = self._files(tmp_path, ZERO_DEBT_POSITION)
        result = runner.invoke(main, [
            "liquidate-quote", "--params", params, "--position", position,
            "--debt-asset", "debt", "--collateral-asset", "coll",
            "--debt-to-cover", "1",
        ])
        assert result.exit_code == 1
        assert "health_factor: inf" in result.output

    @pytest.mark.parametrize("params_yaml, position_yaml, named", [
        (PARAMS_YAML.replace('    price: "2"\n', "", 1), POSITION_YAML,
         "params.yaml: asset coll: missing key 'price'"),
        (PARAMS_YAML.replace('price: "2"', 'price: "-1"', 1), POSITION_YAML,
         "params.yaml: asset coll: COLL: price must be positive"),
        (PARAMS_YAML, POSITION_YAML.replace('amount: "100", ', "", 1),
         "position.yaml: collateral entry 1: missing key 'amount'"),
        (PARAMS_YAML.replace("decimals: 18", "decimals: 6.7", 1), POSITION_YAML,
         "params.yaml: asset coll: decimals 6.7 is not an integer"),
        (PARAMS_YAML.replace("decimals: 18", "decimals: true", 1), POSITION_YAML,
         "params.yaml: asset coll: decimals True is not an integer"),
        (PARAMS_YAML.replace("bonus_bps: 10500", "bonus_bps: 10500.9", 1), POSITION_YAML,
         "params.yaml: asset coll: liquidation_bonus_bps 10500.9 is not an integer"),
    ], ids=["params_without_price", "negative_price", "collateral_without_amount",
            "float_decimals", "boolean_decimals", "float_bonus"])
    def test_a_malformed_file_exits_2_naming_it(self, runner, tmp_path, params_yaml,
                                                position_yaml, named):
        (tmp_path / "params.yaml").write_text(params_yaml)
        (tmp_path / "position.yaml").write_text(position_yaml)
        result = runner.invoke(main, [
            "liquidate-quote", "--params", str(tmp_path / "params.yaml"),
            "--position", str(tmp_path / "position.yaml"),
            "--debt-asset", "debt", "--collateral-asset", "coll", "--debt-to-cover", "100",
        ])
        assert result.exit_code == 2, result.output
        assert f"{tmp_path}/{named}" in result.stderr
        assert result.stderr.count("\n") == 1, result.stderr

    @pytest.mark.parametrize("entry, named", [
        ('    price: "2000"\n', "missing key 'decimals'"),
        ('    decimals: 18\n    price: "abc"\n', "not a decimal number: 'abc'"),
        ('    decimals: 6.7\n    price: "2000"\n', "decimals 6.7 is not an integer"),
    ], ids=["without_decimals", "price_not_a_number", "float_decimals"])
    def test_a_malformed_price_table_exits_2_naming_it(self, runner, tmp_path, entry, named):
        asset = "0xc02aaa39b223fe8d0a0e5c4f27ead9083c756cc2"
        (tmp_path / "prices.yaml").write_text(f'assets:\n  "{asset}":\n{entry}')
        result = runner.invoke(main, [
            "aggregate", "--metric", "deposit-volume", "--in", str(tmp_path),
            "--out", str(tmp_path / "volume.csv"), "--price-table", str(tmp_path / "prices.yaml"),
        ])
        assert result.exit_code == 2, result.output
        assert f"{tmp_path}/prices.yaml: asset {asset}: {named}" in result.stderr
        assert result.stderr.count("\n") == 1, result.stderr
        assert not (tmp_path / "volume.csv").exists()

    @pytest.mark.parametrize("amount", ["1/3", "1.25e2", "1_000"])
    def test_a_debt_to_cover_not_a_plain_decimal_exits_2(self, runner, tmp_path, amount):
        params, position = self._files(tmp_path, POSITION_YAML)
        result = runner.invoke(main, [
            "liquidate-quote", "--params", params, "--position", position,
            "--debt-asset", "debt", "--collateral-asset", "coll", "--debt-to-cover", amount,
        ])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"Error: --debt-to-cover: not a decimal number: '{amount}'\n"

    def test_half_close_factor_caps_debt(self, runner, tmp_path):
        # H = 0.97 constructed: weighted 100*2*0.5 = 100, debt = 100/0.97
        position_yaml = POSITION_YAML.replace('"200"', '"103.09278350515463918"')
        params, position = self._files(tmp_path, position_yaml)
        result = runner.invoke(main, [
            "liquidate-quote", "--params", params, "--position", position,
            "--debt-asset", "debt", "--collateral-asset", "coll",
            "--debt-to-cover", "1000000",
        ])
        assert result.exit_code == 0, result.output
        assert "close_factor: 0.5" in result.output
        repaid = [l for l in result.output.splitlines() if l.startswith("debt_repaid")][0]
        assert repaid.split(": ")[1].startswith("51.546")  # half of outstanding


class TestAggregate:
    @pytest.fixture()
    def extracted(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "extract", "--chain", "ethereum,base", "--event", "all",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        assert result.exit_code == 0, result.stderr
        return out

    def test_counts(self, runner, tmp_path, extracted, mini_corpus_dir):
        out_csv = tmp_path / "counts.csv"
        result = runner.invoke(main, [
            "aggregate", "--metric", "counts", "--in", str(extracted),
            "--out", str(out_csv),
        ])
        assert result.exit_code == 0
        assert out_csv.read_bytes() == reference.aggregate_counts(
            mini_corpus_dir, ["ethereum", "base"])

    def test_new_users(self, runner, tmp_path, extracted, mini_corpus_dir):
        out_csv = tmp_path / "users.csv"
        result = runner.invoke(main, [
            "aggregate", "--metric", "new-users", "--in", str(extracted),
            "--out", str(out_csv),
        ])
        assert result.exit_code == 0
        assert out_csv.read_bytes() == reference.aggregate_new_users(
            mini_corpus_dir, ["ethereum", "base"])

    def test_deposit_volume(self, runner, tmp_path, extracted, mini_corpus_dir,
                            price_table_path):
        out_csv = tmp_path / "volume.csv"
        result = runner.invoke(main, [
            "aggregate", "--metric", "deposit-volume", "--in", str(extracted),
            "--out", str(out_csv), "--price-table", price_table_path,
        ])
        assert result.exit_code == 0
        assert out_csv.read_bytes() == reference.aggregate_deposit_volume(
            mini_corpus_dir, ["ethereum", "base"])

    def test_deposit_volume_reads_an_unquoted_yaml_float_price(self, runner, tmp_path, extracted,
                                                               price_table_path):
        # PyYAML reads an unquoted 0.00001 as the float 1e-05: the same price as the text
        table = open(price_table_path, encoding="utf-8").read()
        outputs = []
        for price in ("0.00001", '"0.00001"'):
            (tmp_path / "prices.yaml").write_text(re.sub(r'price: "[^"]*"', f"price: {price}", table))
            out_csv = tmp_path / f"volume{len(outputs)}.csv"
            result = runner.invoke(main, [
                "aggregate", "--metric", "deposit-volume", "--in", str(extracted),
                "--out", str(out_csv), "--price-table", str(tmp_path / "prices.yaml"),
            ])
            assert result.exit_code == 0, result.output
            outputs.append(out_csv.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 3  # header, ethereum, base

    def test_deposit_volume_requires_price_table(self, runner, extracted, tmp_path):
        result = runner.invoke(main, [
            "aggregate", "--metric", "deposit-volume", "--in", str(extracted),
            "--out", str(tmp_path / "v.csv"),
        ])
        assert result.exit_code == 2


class TestReplayCommand:
    def test_positions_from_extracted_shards(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "all",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        positions_csv = tmp_path / "positions.csv"
        result = runner.invoke(main, [
            "replay", "--in", str(out), "--chain", "ethereum",
            "--out", str(positions_csv),
        ])
        assert result.exit_code == 0, result.output
        text = positions_csv.read_text()
        assert text.startswith("user,side,asset,amount,enabled\n")
        assert "collateral" in text and "debt" in text

    def test_ragged_shard_exits_4(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        stream = out / "ethereum" / "Supply"
        victim = sorted(p for p in stream.iterdir() if p.name.startswith("aave_V3_"))[0]
        with open(victim, "a", encoding="utf-8") as fh:
            fh.write("not,a,valid,row\n")
        result = runner.invoke(main, ["replay", "--in", str(out), "--chain", "ethereum"])
        assert result.exit_code == 4, result.output
        assert result.output.count(str(victim)) == 1

    def test_non_integer_key_exits_4(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        stream = out / "ethereum" / "Supply"
        victim = sorted(p for p in stream.iterdir() if p.name.startswith("aave_V3_"))[0]
        with open(victim, newline="", encoding="utf-8") as fh:
            header, row = list(csv.reader(fh))[:2]
        row[header.index("block_number")] = "x"
        with open(victim, "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(row)
        result = runner.invoke(main, ["replay", "--in", str(out), "--chain", "ethereum"])
        assert result.exit_code == 4, result.output
        assert f"replay aborted: {victim}: " in result.stderr

    @pytest.mark.parametrize("corruption", ["amount", "key_backwards"])
    def test_corrupt_row_exits_4(self, runner, tmp_path, mini_corpus_dir, corruption):
        out = tmp_path / "out"
        runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        stream = out / "ethereum" / "Supply"
        victim = sorted(p for p in stream.iterdir() if p.name.startswith("aave_V3_"))[0]
        with open(victim, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        if corruption == "amount":
            rows[-1][header.index("amount")] = "x"
        else:
            rows[0], rows[1] = rows[1], rows[0]
        with open(victim, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header] + rows)
        result = runner.invoke(main, ["replay", "--in", str(out), "--chain", "ethereum"])
        assert result.exit_code == 4, result.output
        assert f"replay aborted: {victim}: " in result.stderr


    def test_non_integer_reserve_index_exits_4_naming_its_part(self, runner, tmp_path,
                                                                mini_corpus_dir):
        out = tmp_path / "out"
        runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "all",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        stream = out / "ethereum" / "ReserveDataUpdated"
        victim = sorted(p for p in stream.iterdir() if p.name.startswith("aave_V3_"))[0]
        with open(victim, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        rows[-1][header.index("liquidityIndex")] = "1.5e27"
        with open(victim, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header] + rows)
        result = runner.invoke(main, ["replay", "--in", str(out), "--chain", "ethereum"])
        assert result.exit_code == 4, result.output
        assert f"replay aborted: {victim}: " in result.stderr
        assert "1.5e27" in result.stderr

    def test_a_key_in_two_streams_exits_4_as_an_order_violation(self, runner, tmp_path,
                                                                registry):
        from aavescan.decoder import DecodedEvent
        from aavescan.sink import ShardWriter

        user, weth = "0x" + "01" * 20, "0x" + "0e" * 20
        fields = {"Supply": {"reserve": weth, "user": user, "onBehalfOf": user,
                             "amount": "5", "referralCode": "0"},
                  "Withdraw": {"reserve": weth, "user": user, "to": user, "amount": "5"}}
        for event, values in fields.items():
            writer = ShardWriter(str(tmp_path), "ethereum", registry.event(event))
            writer.append(DecodedEvent("ethereum", event, 7, 70, "0x" + "ab" * 32, 3,
                                       "0x" + "aa" * 20, list(values.items())))
            writer.finalize(7)
        result = runner.invoke(main, ["replay", "--in", str(tmp_path), "--chain", "ethereum"])
        assert result.exit_code == 4, result.output
        withdraw = next((tmp_path / "ethereum" / "Withdraw").glob("aave_V3_*.csv"))
        assert (f"replay aborted: {withdraw}: event key (7, 3) not above (7, 3)"
                in result.stderr)

    @pytest.mark.parametrize("mode", ["nominal", "indexed"])
    def test_anomalies_equal_the_reference(self, runner, tmp_path, replay_trees, mode):
        corpus, tree = replay_trees[20251001]
        anomalies = tmp_path / "anomalies.csv"
        result = runner.invoke(main, ["replay", "--in", tree, "--chain", "ethereum",
                                      "--mode", mode, "--out", str(tmp_path / "p.csv"),
                                      "--anomalies", str(anomalies)])
        assert result.exit_code == 0, result.output
        want = reference.replay_csvs(corpus, "ethereum", mode)[1]
        clamped = want.count(b"\n") - 1  # below the header
        assert clamped > 0, "the mini corpus clamps some balances"
        assert anomalies.read_bytes() == want
        assert f"{clamped} anomalies (clamped balances)" in result.stderr

    def test_an_asset_missing_from_params_exits_2_naming_it(self, runner, tmp_path,
                                                            mini_corpus_dir):
        out = tmp_path / "out"
        runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        params = tmp_path / "params.yaml"
        params.write_text(PARAMS_YAML)
        result = runner.invoke(main, ["replay", "--in", str(out), "--chain", "ethereum",
                                      "--params", str(params)])
        assert result.exit_code == 2, result.output
        assert f"{params}: no parameters for asset '0x" in result.stderr
        assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def replay_trees(tmp_path_factory, mini_corpus_dir):
    """seed -> (mini corpus, its ethereum and base shard tree), at the default seed and 7."""
    from corpusgen import DEFAULT_SEED, generate_corpus

    seven = str(tmp_path_factory.mktemp("mini_corpus_seed7"))
    generate_corpus(seven, seed=7, scale=0.02, chains=["ethereum", "base"])
    trees = {}
    for seed, corpus in ((DEFAULT_SEED, mini_corpus_dir), (7, seven)):
        out = str(tmp_path_factory.mktemp(f"replay_tree_{seed}"))
        result = CliRunner().invoke(main, ["extract", "--chain", "ethereum,base", "--event",
                                           "all", "--out", out, "--fixture-dir", corpus])
        assert result.exit_code == 0, result.output
        trees[seed] = (corpus, out)
    return trees


class TestReplayOracle:
    """``replay --out`` against the straight-line replay of ``tests/reference.py``,
    byte for byte."""

    @pytest.mark.parametrize("mode", ["nominal", "indexed"])
    @pytest.mark.parametrize("chain", ["ethereum", "base"])
    @pytest.mark.parametrize("seed", [20251001, 7])
    def test_replay_equals_the_reference(self, runner, tmp_path, replay_trees, seed, chain,
                                         mode):
        corpus, tree = replay_trees[seed]
        positions = tmp_path / "positions.csv"
        result = runner.invoke(main, ["replay", "--in", tree, "--chain", chain, "--mode", mode,
                                      "--out", str(positions)])
        assert result.exit_code == 0, result.output
        assert positions.read_bytes() == reference.replay_csvs(corpus, chain, mode)[0]


# the offline commands in a fresh interpreter; argv[1:] are the corpus, the
# output directory and the price table
_OFFLINE_RUN = """
import sys
import aavescan, aavescan.cli
from aavescan.cli import main
corpus, out, prices = sys.argv[1:]
def run(*args):
    try:
        main(list(args), prog_name="aavescan")
    except SystemExit as exc:
        assert not exc.code, (args, exc.code)
run("extract", "--chain", "ethereum,base", "--event", "all", "--out", out,
    "--fixture-dir", corpus)
run("validate", out)
for metric in ("counts", "new-users", "deposit-volume"):
    run("aggregate", "--metric", metric, "--in", out, "--out", out + "." + metric,
        "--price-table", prices)
run("replay", "--in", out, "--chain", "ethereum")
assert "requests" not in sys.modules, "an offline command loaded the HTTP client"
from aavescan.gateway import HttpGateway
HttpGateway("http://127.0.0.1:9")
assert "requests" in sys.modules, "a live gateway was built without its HTTP client"
"""


class TestProcessFootprint:
    def test_only_a_live_gateway_loads_the_http_client(self, tmp_path, mini_corpus_dir,
                                                       price_table_path):
        proc = subprocess.run([sys.executable, "-c", _OFFLINE_RUN, mini_corpus_dir,
                               str(tmp_path / "out"), price_table_path],
                              capture_output=True, text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_invocations_leave_no_streams_behind(self, runner, tmp_path, mini_corpus_dir):
        def invoke(i):
            out = tmp_path / f"out{i}"
            result = runner.invoke(main, ["extract", "--chain", "ethereum", "--event", "Supply",
                                          "--out", str(out), "--fixture-dir", mini_corpus_dir])
            assert result.exit_code == 0, result.output
            (out / "ethereum" / "Supply" / "stray.csv").touch()
            result = runner.invoke(main, ["validate", str(out)])  # writes to both streams
            assert result.exit_code == 1 and result.stdout and result.stderr, result.output

        def text_streams():
            gc.collect()
            return sum(isinstance(obj, io.TextIOWrapper) for obj in gc.get_objects())

        invoke(0)  # anything cached once per process
        before = text_streams()
        for i in range(1, 26):
            invoke(i)
        assert text_streams() <= before
