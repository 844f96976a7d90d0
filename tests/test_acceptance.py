"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``. Each test prints
``ACCEPTANCE nn PASS`` through the capture-disabled reporter when its
criterion holds, including its runtime budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

import corpusgen
import reference
from faults import scripted_faults
from oracles import (
    ERC20_TRANSFER_TOPIC,
    o_close_factor,
    o_health,
    o_quote,
    o_reserve_step,
)
from test_risk import LEDGER_EXPECT, _ledger_events
from test_scanner import ListSink, committed_ranges, scan_one

from aavescan.cli import main
from aavescan.decoder import DecodedEvent, decode
from aavescan.gateway import (
    ErrorKind,
    FixtureGateway,
    GatewayError,
    HttpGateway,
    LogQuery,
    RawLog,
)
from aavescan.keccak import keccak256
from aavescan.raymath import RAY, SECONDS_PER_YEAR, compounded_interest, linear_interest
from aavescan.registry import ChainConfig
from aavescan.reserve import ReserveState, update_state
from aavescan.risk import (AssetParams, Position, health_factor, ledger_rows,
                          liquidation_quote, replay)
from aavescan.scanner import ScanPlan
from aavescan.sink import (Checkpoint, ShardWriter, checkpoint_path, list_stream_parts,
                           stream_dir, validate_output)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture()
def report(capsys):
    def _report(number: int, text: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} PASS - {text}")

    return _report


def test_criterion_01_liquidation_math(report):
    started = time.monotonic()
    params = {
        "coll": AssetParams("COLL", 18, Fraction(2), Fraction("0.5"),
                            Fraction("0.45"), 10_500, Fraction("0.2")),
        "debt": AssetParams("DEBT", 18, Fraction(1), Fraction("0.8"),
                            Fraction("0.75"), 10_000, Fraction("0.2")),
    }
    assert params["coll"].bonus_rate == Fraction(5, 100)

    position = Position(user="u", collateral={"coll": Fraction(100)},
                        collateral_enabled={"coll": True},
                        debt={"debt": Fraction(200)})
    h = health_factor(position, params)
    quote = liquidation_quote(position, params, "debt", "coll", Fraction(100))
    oracle = o_quote(Fraction(100), Fraction(200), h.health_factor,
                     Fraction(1), Fraction(2), 18, 18, 10_500, Fraction("0.2"))

    assert quote.debt_repaid == oracle["debt_repaid"] == 100
    assert quote.base_collateral == oracle["base_collateral"] == 50
    assert quote.total_collateral == oracle["total_collateral"] == Fraction("52.5")
    assert quote.protocol_fee == oracle["protocol_fee"] == Fraction("0.525")
    assert quote.liquidator_receives == oracle["liquidator_receives"] == Fraction("51.975")
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, f"LB=10500 -> beta=0.05; worked quote exact vs rational oracle ({elapsed:.3f}s)")


def test_criterion_02_close_factor_branches(report):
    params = {
        "c": AssetParams("C", 0, Fraction(1), Fraction("0.8"), Fraction("0.75")),
        "d": AssetParams("D", 0, Fraction(1), Fraction("0.8"), Fraction("0.75")),
    }
    cases = {"1.01": Fraction(0), "0.97": Fraction(1, 2),
             "0.95": Fraction(1), "0.90": Fraction(1)}
    for h_text, expected_kappa in cases.items():
        target = Fraction(h_text)
        position = Position(user="u", collateral={"c": Fraction(100)},
                            collateral_enabled={"c": True},
                            debt={"d": Fraction(80) / target})
        got = health_factor(position, params)
        assert got.health_factor == target
        assert got.close_factor == expected_kappa == o_close_factor(target)
        assert got.liquidatable == (target < 1)
    # H == 1 exactly: strictly not liquidatable
    at_one = Position(user="u", collateral={"c": Fraction(100)},
                      collateral_enabled={"c": True}, debt={"d": Fraction(80)})
    got = health_factor(at_one, params)
    assert got.health_factor == 1 and not got.liquidatable and got.close_factor == 0
    report(2, "close factor branches exact: {1.01,0.97,0.95,0.90} -> {0,0.5,1,1}; H=1 strict")


def test_criterion_03_reserve_update(report):
    started = time.monotonic()
    state = ReserveState(
        current_liquidity_rate=RAY // 10,
        current_variable_borrow_rate=RAY // 5,
        reserve_factor=1_000,
        scaled_variable_debt_total=10**24,
        last_update_timestamp=1_700_000_000,
    )
    assert update_state(state, state.last_update_timestamp) == state

    flat = ReserveState(last_update_timestamp=1_700_000_000)
    moved = update_state(flat, 1_700_086_400)
    assert moved.liquidity_index == RAY and moved.variable_borrow_index == RAY

    rng = random.Random(0xACCE55)
    steps = 1_000
    shadow = {
        "liquidity_index": state.liquidity_index,
        "variable_borrow_index": state.variable_borrow_index,
        "current_liquidity_rate": state.current_liquidity_rate,
        "current_variable_borrow_rate": state.current_variable_borrow_rate,
        "reserve_factor": state.reserve_factor,
        "accrued_to_treasury": state.accrued_to_treasury,
        "scaled_variable_debt_total": state.scaled_variable_debt_total,
        "last_update_timestamp": state.last_update_timestamp,
    }
    now = state.last_update_timestamp
    previous = state
    for _ in range(steps):
        now += rng.randrange(0, 7_200)
        state = update_state(state, now)
        shadow = o_reserve_step(shadow, now)
        assert state.liquidity_index >= previous.liquidity_index
        assert state.variable_borrow_index >= previous.variable_borrow_index
        previous = state
    assert abs(state.liquidity_index - shadow["liquidity_index"]) <= 2 * steps
    assert abs(state.variable_borrow_index - shadow["variable_borrow_index"]) <= 2 * steps
    assert abs(state.accrued_to_treasury - shadow["accrued_to_treasury"]) <= 2 * steps
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(3, f"skip rule, rate-0 identity, {steps} randomized steps monotone and "
              f"within 2 ULP/step of the rational oracle ({elapsed:.2f}s)")


def test_criterion_04_interest_functions(report):
    started = time.monotonic()
    rng = random.Random(0x1EAF)
    for _ in range(10_000):
        rate = rng.randrange(0, 2 * RAY)
        dt = rng.randrange(0, 2 * SECONDS_PER_YEAR)
        assert compounded_interest(rate, 0, dt) >= linear_interest(rate, 0, dt)
    assert linear_interest(RAY, 0, SECONDS_PER_YEAR) == 2 * RAY
    compounded = compounded_interest(RAY, 0, SECONDS_PER_YEAR)
    assert 266 * RAY // 100 < compounded < 27182819 * RAY // 10**7
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(4, f"compounded >= linear on 10,000 pairs; 1y@100%: linear exactly 2.0, "
              f"compounded in (2.66, 2.7182819) ({elapsed:.2f}s)")


def test_criterion_05_decoder_round_trip(report, registry, corpus_dir):
    started = time.monotonic()
    assert "0x" + keccak256(b"Transfer(address,address,uint256)").hex() == ERC20_TRANSFER_TOPIC

    from test_decoder import make_random_event, oracle_encode

    rng = random.Random(0xDEC0DE)
    schemas = list(registry.events)
    for _ in range(10_000):
        schema = rng.choice(schemas)
        event = make_random_event(schema, rng)
        topics, data = oracle_encode(event)
        log = RawLog(address=event.contract_address, topics=topics, data=data,
                     block_number=event.block_number,
                     transaction_hash=event.transaction_hash,
                     log_index=event.log_index,
                     block_timestamp=event.block_timestamp)
        assert decode(log, schema, event.chain_name) == event

    by_topic = {schema.topic0: schema for schema in schemas}
    fixture_logs = 0
    seen_events = set()
    for chain in registry.chains:
        with open(os.path.join(corpus_dir, chain.chain_name, "logs.jsonl")) as fh:
            for line in fh:
                record = json.loads(line)
                topics = [bytes.fromhex(t[2:]) for t in record["topics"]]
                data = bytes.fromhex(record["data"][2:])
                schema = by_topic[topics[0]]
                log = RawLog(address=record["address"], topics=topics, data=data,
                             block_number=record["blockNumber"],
                             transaction_hash=record["transactionHash"],
                             log_index=record["logIndex"], block_timestamp=1)
                event = decode(log, schema, chain.chain_name)
                assert oracle_encode(event) == (topics, data)
                fixture_logs += 1
                seen_events.add(schema.event_name)
    assert seen_events == set(registry.event_names())
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(5, f"decode against the package-free encoder on 10,000 randomized events and "
              f"{fixture_logs} fixture logs across all 13 events; Transfer topic0 matches "
              f"oracle ({elapsed:.2f}s)")


SMOKE_CHAIN = ChainConfig("testchain", "0x" + "aa" * 20, 0, 10**6, "RPC_URL_TESTCHAIN")


def _synthetic_gateway(registry, blocks, fault_script=None):
    schema = registry.event("MintedToTreasury")
    logs = []
    per_block: dict[int, int] = {}
    rng = random.Random(1234)
    for block in blocks:
        idx = per_block.get(block, 0)
        per_block[block] = idx + 1
        values = {"reserve": "0x" + "0e" * 20, "amountMinted": rng.randrange(0, 10**12)}
        topics_hex, data_hex = corpusgen.encode_event("MintedToTreasury", values)
        logs.append(RawLog(
            address=SMOKE_CHAIN.pool_address,
            topics=[bytes.fromhex(t[2:]) for t in topics_hex],
            data=bytes.fromhex(data_hex[2:]),
            block_number=block,
            transaction_hash="0x" + rng.getrandbits(256).to_bytes(32, "big").hex(),
            log_index=idx,
        ))
    timestamps = {b: 1_700_000_000 + b for b in set(blocks)}
    return FixtureGateway(logs, timestamps, head_block=10**6, fault_script=fault_script), schema


def test_criterion_06_scanner_coverage_and_resume(report, registry, tmp_path):
    started = time.monotonic()

    for seed in range(200):
        rng = random.Random(seed)
        start = rng.randrange(0, 100)
        end = start + rng.randrange(0, 600)
        blocks = sorted(rng.randrange(start, end + 1)
                        for _ in range(rng.randrange(0, 80)))
        # oversize is deterministic in query width (as with real providers);
        # rate limits strike by call index
        max_span = rng.randrange(1, 200)
        rate_limited_calls = {rng.randrange(0, 60) for _ in range(rng.randrange(0, 12))}

        def fault_script(call_index, query, _span=max_span, _rl=rate_limited_calls):
            if call_index in _rl:
                return ErrorKind.RATE_LIMITED
            if query.to_block - query.from_block + 1 > _span:
                return ErrorKind.RESPONSE_TOO_LARGE
            return None

        gateway, schema = _synthetic_gateway(registry, blocks, fault_script=fault_script)
        plan = ScanPlan(chain=SMOKE_CHAIN, end_block=end,
                        batch_size=rng.choice([1, 4, 16, 64]), batch_max=128)
        sink = ListSink()
        summary = scan_one(plan, gateway, sink, cursor=start, event=schema,
                           sleeper=lambda _s: None)
        covered = [b for lo, hi in committed_ranges(gateway, fault_script)
                   for b in range(lo, hi + 1)]
        assert covered == list(range(start, end + 1)), f"seed {seed}"
        keys = [log.key for log in sink.rows]
        assert keys == sorted(set(keys)), f"seed {seed}"
        assert summary.rows_emitted == len(blocks), f"seed {seed}"

    # resume after an interrupt at several batch boundaries must reproduce
    # the uninterrupted shard bytes exactly (filenames normalized away)
    blocks = sorted(random.Random(777).randrange(0, 500) for _ in range(120))

    def run_uninterrupted(root):
        gateway, schema = _synthetic_gateway(registry, blocks)
        writer = ShardWriter(root, SMOKE_CHAIN.chain_name, schema)
        plan = ScanPlan(chain=SMOKE_CHAIN, end_block=499, batch_size=50, batch_max=100)
        scan_one(plan, gateway, writer, event=schema, sleeper=lambda _s: None)
        writer.finalize(499)
        return _stream_bytes(root, SMOKE_CHAIN.chain_name, schema.event_name)

    def run_interrupted(root, interrupt_call):
        gateway, schema = _synthetic_gateway(
            registry, blocks,
            fault_script=scripted_faults([None] * interrupt_call + [ErrorKind.TERMINAL]))
        writer = ShardWriter(root, SMOKE_CHAIN.chain_name, schema)
        cp_file = checkpoint_path(root, SMOKE_CHAIN.chain_name, schema.event_name)
        plan = ScanPlan(chain=SMOKE_CHAIN, end_block=499, batch_size=50, batch_max=100)
        with pytest.raises(GatewayError):
            scan_one(plan, gateway, writer, event=schema, sleeper=lambda _s: None)
        writer.flush()
        checkpoint = Checkpoint.load(cp_file, SMOKE_CHAIN.chain_name, schema.event_name)
        gateway, _ = _synthetic_gateway(registry, blocks)
        writer = ShardWriter.resume(root, SMOKE_CHAIN.chain_name, schema, checkpoint)
        scan_one(plan, gateway, writer, cursor=checkpoint.last_completed_block + 1,
                 event=schema, sleeper=lambda _s: None)
        writer.finalize(499)
        return _stream_bytes(root, SMOKE_CHAIN.chain_name, schema.event_name)

    baseline = run_uninterrupted(str(tmp_path / "straight"))
    for interrupt_call in (1, 4, 7):
        resumed = run_interrupted(str(tmp_path / f"resume{interrupt_call}"), interrupt_call)
        assert resumed == baseline, f"interrupt at call {interrupt_call}"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(6, f"200 fault scripts partition [start,end] exactly with strict ordering; "
              f"resume at 3 interrupt points byte-identical ({elapsed:.2f}s)")


def _stream_bytes(root: str, chain: str, event: str) -> bytes:
    directory = stream_dir(root, chain, event)
    return b"".join(
        open(os.path.join(directory, name), "rb").read()
        for name in list_stream_parts(directory)
    )


def test_criterion_07_shard_contract(report, registry, tmp_path):
    started = time.monotonic()
    schema = registry.event("MintedToTreasury")
    out = str(tmp_path / "shards")
    writer = ShardWriter(out, "ethereum", schema)
    tx = "0x" + "ab" * 32
    reserve = "0x" + "0e" * 20
    for i in range(2_500_000):
        writer.append(DecodedEvent(
            chain_name="ethereum", event_name="MintedToTreasury",
            block_number=16_291_127 + i, block_timestamp=1_700_000_000 + i,
            transaction_hash=tx, log_index=0,
            contract_address="0x87870bca3f3fd6335c3f4ce8392d69350b4fa4e2",
            fields=[("reserve", reserve), ("amountMinted", str(i))],
        ))
    record = writer.finalize(16_291_127 + 2_499_999)
    assert [p.row_count for p in record.parts] == [1_000_000, 1_000_000, 500_000]
    assert [p.part_number for p in record.parts] == [1, 2, 3]

    directory = stream_dir(out, "ethereum", "MintedToTreasury")
    names = list_stream_parts(directory)
    assert len(names) == 3
    for name, number in zip(names, ("001", "002", "003")):
        assert name.startswith(f"aave_V3_ethereum_MintedToTreasury_part{number}_")
        assert name.endswith(".csv")

    clean = validate_output(out)
    assert not clean, clean

    # mutations produce the expected violation classes
    os.rename(os.path.join(directory, names[0]),
              os.path.join(directory, names[0].replace("part001", "part000")))
    kinds = {v.kind for v in validate_output(out)}
    assert "naming" in kinds and "part_numbering" in kinds
    os.rename(os.path.join(directory, names[0].replace("part001", "part000")),
              os.path.join(directory, names[0]))

    record_file = checkpoint_path(out, "ethereum", "MintedToTreasury")
    assert Checkpoint.load(record_file, "ethereum", "MintedToTreasury") == record
    doc = json.load(open(record_file))
    doc["parts"][2]["row_count"] -= 1
    json.dump(doc, open(record_file, "w"))
    kinds = {v.kind for v in validate_output(out)}
    assert kinds == {"manifest"}

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(7, f"2.5M rows -> parts of 1M/1M/0.5M with compliant names; validate clean; "
              f"mutations flagged ({elapsed:.1f}s)")


def test_criterion_08_end_to_end_golden(report, registry, corpus_dir,
                                        price_table_path, tmp_path):
    started = time.monotonic()
    runner = CliRunner()
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "extract", "--chain", "all", "--event", "all",
        "--out", str(out), "--fixture-dir", corpus_dir,
    ])
    assert result.exit_code == 0, result.stderr

    with open(os.path.join(GOLDEN_DIR, "e2e_digests.json")) as fh:
        golden = json.load(fh)

    streams = 0
    total_rows = 0
    for chain in registry.chain_names():
        for event in registry.event_names():
            expected = reference.stream_csv_bytes(corpus_dir, chain, event)
            directory = stream_dir(str(out), chain, event)
            parts = list_stream_parts(directory)
            if expected is None:
                assert parts == [], f"{chain}/{event} should be empty"
                continue
            assert len(parts) == 1, f"{chain}/{event}"
            produced = open(os.path.join(directory, parts[0]), "rb").read()
            assert produced == expected, f"{chain}/{event} bytes differ"
            assert hashlib.sha256(produced).hexdigest() == golden[f"{chain}/{event}"]
            streams += 1
            total_rows += produced.count(b"\n") - 1

    check = validate_output(str(out))
    assert not check, check[:5]

    for metric, golden_name, extra in (
        ("counts", "counts.csv", []),
        ("new-users", "new_users.csv", []),
        ("deposit-volume", "deposit_volume.csv", ["--price-table", price_table_path]),
    ):
        out_csv = tmp_path / golden_name
        result = runner.invoke(main, [
            "aggregate", "--metric", metric, "--in", str(out), "--out", str(out_csv),
        ] + extra)
        assert result.exit_code == 0, result.stderr
        produced = out_csv.read_bytes()
        want = open(os.path.join(GOLDEN_DIR, "aggregates", golden_name), "rb").read()
        assert produced == want, f"{metric} differs from golden"
        assert hashlib.sha256(produced).hexdigest() == golden[f"aggregates/{golden_name}"]

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(8, f"e2e over 6 chains, {streams} streams, {total_rows} rows: shard files and "
              f"3 aggregate CSVs byte-identical to golden ({elapsed:.1f}s)")


def test_criterion_09_replay_ledger(report):
    started = time.monotonic()
    result = replay(ledger_rows(_ledger_events()))
    for user, expected in LEDGER_EXPECT.items():
        position = result.positions[user]
        for asset, amount in expected["collateral"].items():
            assert position.collateral[asset] == amount
        for asset, amount in expected["debt"].items():
            assert position.debt[asset] == amount
        for asset, flag in expected["enabled"].items():
            assert position.is_collateral_enabled(asset) == flag
    assert result.anomalies == []

    weth, usdc = "0x" + "0e" * 20, "0x" + "0c" * 20
    params = {
        weth: AssetParams("WETH", 0, Fraction(2000), Fraction("0.8"), Fraction("0.75")),
        usdc: AssetParams("USDC", 0, Fraction(1), Fraction("0.85"), Fraction("0.8")),
    }
    for user, position in result.positions.items():
        got = health_factor(position, params)
        expected_h = o_health(
            [(Fraction(amount), params[asset].price, params[asset].liquidation_threshold, 0)
             for asset, amount in position.collateral.items()
             if position.is_collateral_enabled(asset)],
            [(Fraction(amount), params[asset].price, 0)
             for asset, amount in position.debt.items()],
        )
        if expected_h is None:
            assert got.infinite
        else:
            assert got.health_factor is not None
            if expected_h != 0:
                relative = abs(got.health_factor - expected_h) / expected_h
                assert relative <= Fraction(1, 10**12)
            else:
                assert got.health_factor == 0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(9, f"12-event ledger positions exact; health factors within 1e-12 of the "
              f"rational oracle ({elapsed:.3f}s)")


LIVE_ENV = "RPC_URL_ETHEREUM"


@pytest.mark.skipif(not os.environ.get(LIVE_ENV),
                    reason=f"{LIVE_ENV} not set; live smoke skipped")
def test_criterion_10_live_smoke(report, registry):
    chain = registry.chain("ethereum")
    schema = registry.event("Supply")
    gateway = HttpGateway(os.environ[LIVE_ENV])
    logs = gateway.get_logs(LogQuery(
        from_block=16_291_127, to_block=16_292_126,
        address=chain.pool_address, topics=(schema.topic0,),
    ))
    keys = [log.key for log in logs]
    assert keys == sorted(set(keys))
    for log in logs:
        event = decode(log, schema, "ethereum")
        assert event.event_name == "Supply"
        assert len(event.fields) == len(schema.fields)
    report(10, f"live smoke: 1,000 blocks from 16,291,127 gave {len(logs)} valid, "
               f"ordered Supply events")
