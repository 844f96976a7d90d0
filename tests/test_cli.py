import os

import pytest
from click.testing import CliRunner

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
