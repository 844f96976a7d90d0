import csv
import json
import multiprocessing
import os
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

    def test_validate_on_extracted_output(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        runner.invoke(main, [
            "extract", "--chain", "base", "--event", "all",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        result = runner.invoke(main, ["validate", str(out)])
        assert result.exit_code == 0
        assert "0 violation(s)" in result.stderr

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
        from aavescan.gateway import ErrorKind, FixtureGateway, scripted_faults

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

    def test_chains_run_in_processes_unless_threads_run(self, tmp_path, monkeypatch):
        import aavescan.cli as cli_module
        from aavescan.scanner import ScanSummary

        def report_pid(config, registry, chain_name, event_names):
            return [ScanSummary(chain=chain_name, event=str(os.getpid()))]

        monkeypatch.setattr(cli_module, "_extract_chain", report_pid)
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


# extract with every fixture get_logs call slowed, recording the pid of each
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


def _tree_state(root) -> dict:
    return {os.path.join(d, n): os.stat(os.path.join(d, n)).st_mtime_ns
            for d, _dirs, names in os.walk(root) for n in names}


class TestValidateCommand:
    def test_violations_exit_nonzero(self, runner, tmp_path, mini_corpus_dir):
        out = tmp_path / "out"
        runner.invoke(main, [
            "extract", "--chain", "ethereum", "--event", "Supply",
            "--out", str(out), "--fixture-dir", mini_corpus_dir,
        ])
        stream = out / "ethereum" / "Supply"
        (stream / "manifest.ethereum.Supply").unlink()
        result = runner.invoke(main, ["validate", str(out)])
        assert result.exit_code == 1
        assert "manifest" in result.output


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
