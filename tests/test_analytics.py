import os
import tracemalloc
from datetime import datetime, timezone
from fractions import Fraction

import pytest

from aavescan.analytics import (
    PriceTable,
    daily_new_users,
    deposit_volume,
    event_counts,
)
from aavescan.decoder import DecodedEvent
from aavescan.sink import IoFailure, ShardWriter

WETH = "0xc02aaa39b223fe8d0a0e5c4f27ead9083c756cc2"
USDC = "0xa0b86991c6218b36c1d19d4a2e9eb0ce3606eb48"
POOL = "0x" + "aa" * 20
DAY0 = 1_700_000_000  # 2023-11-14 UTC
ONE_DAY = 86_400


def _clock():
    return datetime(2025, 10, 1, tzinfo=timezone.utc)


def _supply(chain, block, index, user, amount, ts, reserve=WETH):
    return DecodedEvent(
        chain_name=chain, event_name="Supply", block_number=block,
        block_timestamp=ts, transaction_hash=f"0x{block:058x}{index:06x}",
        log_index=index, contract_address=POOL,
        fields=[("reserve", reserve), ("user", user), ("onBehalfOf", user),
                ("amount", str(amount)), ("referralCode", "0")],
    )


def _borrow(chain, block, index, user, amount, ts, reserve=USDC):
    return DecodedEvent(
        chain_name=chain, event_name="Borrow", block_number=block,
        block_timestamp=ts, transaction_hash=f"0x{block:058x}{index:06x}",
        log_index=index, contract_address=POOL,
        fields=[("reserve", reserve), ("user", user), ("onBehalfOf", user),
                ("amount", str(amount)), ("interestRateMode", "2"),
                ("borrowRate", "0"), ("referralCode", "0")],
    )


def _write(root, registry, chain, events, row_limit=1_000_000):
    by_event = {}
    for event in events:
        by_event.setdefault(event.event_name, []).append(event)
    for name, items in by_event.items():
        writer = ShardWriter(str(root), chain, registry.event(name),
                             clock=_clock, row_limit=row_limit)
        items.sort(key=lambda e: e.key)
        for event in items:
            writer.append(event)
        writer.finalize(items[-1].block_number)


def _user(i):
    return "0x" + f"{i:040x}"


@pytest.fixture()
def small_tree(registry, tmp_path):
    events = [_supply("ethereum", 100 + i, 0, _user(i), 100, DAY0 + i)
              for i in range(7)]
    events += [_borrow("ethereum", 200 + i, 0, _user(50 + i), 10, DAY0 + i)
               for i in range(3)]
    _write(tmp_path, registry, "ethereum", events)
    return tmp_path


class TestCounts:
    def test_fixture_counts(self, small_tree):
        rows, errors = event_counts(str(small_tree))
        assert errors == []
        assert rows == [
            (("ethereum", "Borrow"), "3"),
            (("ethereum", "Supply"), "7"),
        ]

    def test_empty_directory(self, tmp_path):
        rows, errors = event_counts(str(tmp_path))
        assert rows == [] and errors == []

    def test_corrupt_file_lenient_vs_strict(self, small_tree):
        stream = os.path.join(str(small_tree), "ethereum", "Supply")
        victim = [n for n in os.listdir(stream) if n.endswith(".csv")][0]
        path = os.path.join(stream, victim)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not,a,valid,row\n")
        with pytest.raises(IoFailure) as strict:
            event_counts(str(small_tree))
        assert str(strict.value).count(victim) == 1
        rows, errors = event_counts(str(small_tree), lenient=True)
        assert len(errors) == 1 and victim in errors[0]
        assert errors[0].count(victim) == 1
        assert rows == [(("ethereum", "Borrow"), "3")]

    @pytest.mark.parametrize("metric", ["counts", "new-users", "deposit-volume"])
    def test_lenient_opens_each_part_once(self, registry, tmp_path, monkeypatch, metric):
        import builtins

        import aavescan.sink as sink_module

        events = [_supply("ethereum", 100 + i, 0, _user(i), 100, DAY0 + i) for i in range(9)]
        events += [_borrow("ethereum", 200 + i, 0, _user(50 + i), 10, DAY0) for i in range(4)]
        _write(tmp_path, registry, "ethereum", events, row_limit=3)
        supply = os.path.join(str(tmp_path), "ethereum", "Supply")
        victim = os.path.join(supply, sorted(os.listdir(supply))[1])
        with open(victim, "a", encoding="utf-8") as fh:
            fh.write("not,a,valid,row\n")
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return builtins.open(file, *args, **kwargs)

        monkeypatch.setattr(sink_module, "open", counting_open, raising=False)
        if metric == "counts":
            rows, warnings = event_counts(str(tmp_path), lenient=True)
        elif metric == "new-users":
            rows, warnings = daily_new_users(str(tmp_path), registry, lenient=True)
        else:
            rows, _, warnings = deposit_volume(str(tmp_path), _table({}), lenient=True)
        streams = ("Supply",) if metric == "deposit-volume" else ("Borrow", "Supply")
        parts = [os.path.join(str(tmp_path), "ethereum", event, name) for event in streams
                 for name in sorted(os.listdir(os.path.join(str(tmp_path), "ethereum", event)))
                 if name.startswith("aave_V3_")]
        assert sorted(opened) == sorted(parts)  # each part once, the corrupt one included
        assert len(warnings) == 1 and victim in warnings[0]

    def test_partition_property(self, registry, tmp_path):
        events = [_supply("base", 100 + i, 0, _user(i), 1, DAY0) for i in range(12)]
        _write(tmp_path, registry, "base", events, row_limit=5)  # split over 3 parts
        rows, _ = event_counts(str(tmp_path))
        assert rows[0][1] == "12"  # parts sum to the stream total


class TestNewUsers:
    def test_first_seen_rule(self, registry, tmp_path):
        events = [
            _supply("ethereum", 100, 0, _user(1), 5, DAY0),
            _supply("ethereum", 200, 0, _user(1), 5, DAY0 + 5 * ONE_DAY),
        ]
        _write(tmp_path, registry, "ethereum", events)
        rows, _ = daily_new_users(str(tmp_path), load_registry_fixture())
        assert rows == [(("2023-11-14",), "1")]

    def test_two_users_same_day(self, registry, tmp_path):
        events = [
            _supply("ethereum", 100, 0, _user(1), 5, DAY0),
            _supply("ethereum", 100, 1, _user(2), 5, DAY0 + 60),
        ]
        _write(tmp_path, registry, "ethereum", events)
        rows, _ = daily_new_users(str(tmp_path), load_registry_fixture())
        assert rows == [(("2023-11-14",), "2")]

    def test_five_users_three_days_two_chains(self, registry, tmp_path):
        # hand-tabulated: u1 day0 (eth), u2 day0 (base), u3 day1 (eth),
        # u4 day2 (base), u5 day2 (eth); u1 reappears later and must not recount
        eth = [
            _supply("ethereum", 100, 0, _user(1), 5, DAY0),
            _supply("ethereum", 300, 0, _user(3), 5, DAY0 + ONE_DAY),
            _borrow("ethereum", 400, 0, _user(5), 5, DAY0 + 2 * ONE_DAY),
            _supply("ethereum", 500, 0, _user(1), 5, DAY0 + 2 * ONE_DAY),
        ]
        base = [
            _supply("base", 100, 0, _user(2), 5, DAY0 + 60),
            _supply("base", 200, 0, _user(4), 5, DAY0 + 2 * ONE_DAY),
            _borrow("base", 300, 0, _user(1), 5, DAY0 + 2 * ONE_DAY + 60),
        ]
        _write(tmp_path, registry, "ethereum", eth)
        _write(tmp_path, registry, "base", base)
        rows, _ = daily_new_users(str(tmp_path), load_registry_fixture())
        assert [(key[0], value) for key, value in rows] == [
            ("2023-11-14", "2"), ("2023-11-15", "1"), ("2023-11-16", "2"),
        ]
        total = sum(int(value) for _, value in rows)
        assert total == 5  # every user exactly once

    def test_per_chain_mode(self, registry, tmp_path):
        _write(tmp_path, registry, "ethereum",
               [_supply("ethereum", 100, 0, _user(1), 5, DAY0)])
        _write(tmp_path, registry, "base",
               [_supply("base", 100, 0, _user(1), 5, DAY0 + ONE_DAY)])
        rows, _ = daily_new_users(str(tmp_path), load_registry_fixture(), per_chain=True)
        assert rows == [
            (("base", "2023-11-15"), "1"),
            (("ethereum", "2023-11-14"), "1"),
        ]

    def test_event_without_user_field_warns(self, registry, tmp_path):
        event = DecodedEvent(
            chain_name="ethereum", event_name="MintedToTreasury", block_number=1,
            block_timestamp=DAY0, transaction_hash="0x" + "00" * 32, log_index=0,
            contract_address=POOL, fields=[("reserve", WETH), ("amountMinted", "1")],
        )
        _write(tmp_path, registry, "ethereum", [event])
        rows, warnings = daily_new_users(str(tmp_path), load_registry_fixture())
        assert rows == []
        assert any("MintedToTreasury" in w for w in warnings)


def load_registry_fixture():
    from aavescan.registry import load_registry

    return load_registry()


def _table(entries):
    return PriceTable({
        address: {"symbol": "X", "decimals": decimals, "price": Fraction(price),
                  "daily": daily or {}}
        for address, (decimals, price, daily) in entries.items()
    })


class TestDepositVolume:
    def test_two_supplies(self, registry, tmp_path):
        events = [_supply("ethereum", 100 + i, 0, _user(1), 100, DAY0)
                  for i in range(2)]
        _write(tmp_path, registry, "ethereum", events)
        table = _table({WETH: (0, "2", None)})
        rows, skipped, _ = deposit_volume(str(tmp_path), table)
        assert rows == [(("ethereum",), "400")]
        assert skipped.skipped_rows == 0

    def test_empty_price_table(self, small_tree):
        rows, skipped, _ = deposit_volume(str(small_tree), PriceTable({}))
        assert rows == []
        assert skipped.total_rows == 7
        assert skipped.skipped_rows == 7
        assert skipped.by_asset == {WETH: 7}

    def test_mixed_assets_match_rational_oracle(self, registry, tmp_path):
        events = [
            _supply("ethereum", 100, 0, _user(1), 123_456, DAY0, reserve=WETH),
            _supply("ethereum", 101, 0, _user(1), 7 * 10**6, DAY0, reserve=USDC),
            _supply("ethereum", 102, 0, _user(2), 999, DAY0, reserve=WETH),
        ]
        _write(tmp_path, registry, "ethereum", events)
        table = _table({WETH: (3, "1999.25", None), USDC: (6, "0.9998", None)})
        rows, skipped, _ = deposit_volume(str(tmp_path), table)
        expected = (
            Fraction(123_456) * Fraction("1999.25") / 10**3
            + Fraction(7 * 10**6) * Fraction("0.9998") / 10**6
            + Fraction(999) * Fraction("1999.25") / 10**3
        )
        from aavescan.numstr import fraction_to_decimal

        assert rows[0][1] == fraction_to_decimal(expected)

    def test_daily_price_overrides_default(self, registry, tmp_path):
        events = [_supply("ethereum", 100, 0, _user(1), 10, DAY0)]
        _write(tmp_path, registry, "ethereum", events)
        table = _table({WETH: (0, "2", {"2023-11-14": Fraction(3)})})
        rows, _, _ = deposit_volume(str(tmp_path), table)
        assert rows[0][1] == "30"

    def test_shard_split_does_not_change_totals(self, registry, tmp_path):
        one = tmp_path / "one"
        many = tmp_path / "many"
        events = [_supply("base", 100 + i, 0, _user(i), 10 + i, DAY0)
                  for i in range(20)]
        _write(one, registry, "base", events)
        _write(many, registry, "base", events, row_limit=3)
        table = _table({WETH: (0, "2", None)})
        assert deposit_volume(str(one), table)[0] == deposit_volume(str(many), table)[0]
        assert event_counts(str(one))[0] == event_counts(str(many))[0]


def test_price_table_loading(tmp_path, price_table_path):
    table = PriceTable.load(price_table_path)
    assert table.lookup(WETH) == (Fraction(2000), 18)
    assert table.lookup("0x7d1afa7b718fb893db30a3abc0cfc608aacfebb0") is None
    assert table.lookup("0x" + "00" * 20) is None


def test_streaming_memory_bounded(registry, tmp_path):
    # 120k rows over a handful of users: peak memory must track the group
    # count, not the row count
    chunk = [_supply("ethereum", 100 + i, 0, _user(i % 50), 100, DAY0 + i)
             for i in range(120_000)]
    _write(tmp_path, registry, "ethereum", chunk, row_limit=50_000)
    del chunk
    tracemalloc.start()
    rows, _ = event_counts(str(tmp_path))
    users, _ = daily_new_users(str(tmp_path), load_registry_fixture())
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert rows[0][1] == "120000"
    assert sum(int(value) for _, value in users) == 50
    assert peak < 48 * 1024 * 1024
