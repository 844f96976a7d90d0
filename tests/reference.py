"""Straight-line reference pipeline: corpus in, expected CSV bytes out.

Decodes corpus records directly from the layout tables in corpusgen and
aggregates with plain dicts and exact rationals. No package code is used,
so byte-equality against the real pipeline is a genuine two-route check.
"""

from __future__ import annotations

import csv
import io
import json
import os
from datetime import datetime, timezone
from fractions import Fraction

from corpusgen import ASSETS, LAYOUTS
from oracles import RAY, o_ray_div, o_ray_mul, o_reserve_step

PREFIX = [
    "chain", "event", "block_number", "block_timestamp",
    "transaction_hash", "log_index", "contract_address",
]

PRICES = {address: (Fraction(price), decimals)
          for address, _symbol, decimals, price in ASSETS if price is not None}


def _decode_values(record: dict, event_name: str) -> list[str]:
    layout = LAYOUTS[event_name]
    topics = record["topics"]
    data = bytes.fromhex(record["data"][2:])
    topic_at = 1
    offset = 0
    values: list[str] = []
    for _name, kind, indexed in layout["fields"]:
        if indexed:
            word = bytes.fromhex(topics[topic_at][2:])
            topic_at += 1
        else:
            word = data[offset:offset + 32]
            offset += 32
        if kind == "address":
            values.append("0x" + word[12:].hex())
        elif kind == "bool":
            values.append("true" if int.from_bytes(word, "big") else "false")
        else:
            values.append(str(int.from_bytes(word, "big")))
    return values


def load_chain(corpus_dir: str, chain: str) -> tuple[list[dict], dict[int, int]]:
    chain_dir = os.path.join(corpus_dir, chain)
    records = []
    with open(os.path.join(chain_dir, "logs.jsonl"), "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(json.loads(line))
    with open(os.path.join(chain_dir, "blocks.json"), "r", encoding="utf-8") as fh:
        table = json.load(fh)
    timestamps = {int(k): int(v) for k, v in table["timestamps"].items()}
    return records, timestamps


def stream_rows(corpus_dir: str, chain: str, event_name: str) -> list[list[str]]:
    """Fully decoded rows for one stream, sorted by (block, log index)."""
    topic0 = LAYOUTS[event_name]["topic0"]
    records, timestamps = load_chain(corpus_dir, chain)
    selected = [r for r in records if r["topics"][0] == topic0]
    selected.sort(key=lambda r: (r["blockNumber"], r["logIndex"]))
    rows = []
    for record in selected:
        rows.append(
            [
                chain,
                event_name,
                str(record["blockNumber"]),
                str(timestamps[record["blockNumber"]]),
                record["transactionHash"],
                str(record["logIndex"]),
                record["address"],
            ]
            + _decode_values(record, event_name)
            + [""]
        )
    return rows


def stream_csv_bytes(corpus_dir: str, chain: str, event_name: str) -> bytes | None:
    rows = stream_rows(corpus_dir, chain, event_name)
    if not rows:
        return None
    header = PREFIX + [f[0] for f in LAYOUTS[event_name]["fields"]] + ["usd_value"]
    return csv_bytes([header] + rows)


def csv_bytes(rows: list[list[str]]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _utc_day(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d")


def _decimal_string(fr: Fraction) -> str:
    """Exact decimal rendering for terminating rationals."""
    num, den = fr.numerator, fr.denominator
    k = 0
    while (10**k) % den:
        k += 1
        if k > 40:
            raise ValueError(f"{fr} does not terminate")
    digits = num * 10**k // den
    if k == 0:
        return str(digits)
    whole, frac = divmod(digits, 10**k)
    text = f"{whole}.{frac:0{k}d}".rstrip("0").rstrip(".")
    return text or "0"


def aggregate_counts(corpus_dir: str, chains: list[str]) -> bytes:
    rows = []
    for chain in sorted(chains):
        records, _ = load_chain(corpus_dir, chain)
        by_topic: dict[str, int] = {}
        for record in records:
            by_topic[record["topics"][0]] = by_topic.get(record["topics"][0], 0) + 1
        for event_name in sorted(LAYOUTS):
            count = by_topic.get(LAYOUTS[event_name]["topic0"], 0)
            if count:
                rows.append([chain, event_name, str(count)])
    rows.sort(key=lambda r: (r[0], r[1]))
    return csv_bytes([["chain", "event", "count"]] + rows)


def aggregate_new_users(corpus_dir: str, chains: list[str]) -> bytes:
    first_seen: dict[str, int] = {}
    for chain in chains:
        records, timestamps = load_chain(corpus_dir, chain)
        for record in records:
            for event_name, layout in LAYOUTS.items():
                if record["topics"][0] != layout["topic0"]:
                    continue
                field_name = layout.get("user_field")
                if field_name is None:
                    break
                names = [f[0] for f in layout["fields"]]
                values = _decode_values(record, event_name)
                user = values[names.index(field_name)]
                ts = timestamps[record["blockNumber"]]
                if user not in first_seen or ts < first_seen[user]:
                    first_seen[user] = ts
                break
    per_day: dict[str, int] = {}
    for ts in first_seen.values():
        day = _utc_day(ts)
        per_day[day] = per_day.get(day, 0) + 1
    rows = [[day, str(per_day[day])] for day in sorted(per_day)]
    return csv_bytes([["day", "new_users"]] + rows)


def aggregate_deposit_volume(corpus_dir: str, chains: list[str]) -> bytes:
    supply_topic = LAYOUTS["Supply"]["topic0"]
    names = [f[0] for f in LAYOUTS["Supply"]["fields"]]
    volumes: dict[str, Fraction] = {}
    for chain in chains:
        records, _ = load_chain(corpus_dir, chain)
        for record in records:
            if record["topics"][0] != supply_topic:
                continue
            values = _decode_values(record, "Supply")
            reserve = values[names.index("reserve")]
            amount = int(values[names.index("amount")])
            priced = PRICES.get(reserve)
            if priced is None:
                continue
            price, decimals = priced
            volumes[chain] = volumes.get(chain, Fraction(0)) + Fraction(amount) * price / 10**decimals
    rows = [[chain, _decimal_string(volumes[chain])] for chain in sorted(volumes)]
    return csv_bytes([["chain", "deposit_volume_usd"]] + rows)


def chain_ledger(corpus_dir: str, chain: str) -> list[tuple]:
    """(block, log index, timestamp, event name, field dict) of every log on ``chain``,
    in key order."""
    records, timestamps = load_chain(corpus_dir, chain)
    by_topic = {layout["topic0"]: name for name, layout in LAYOUTS.items()}
    ledger = []
    for record in records:
        name = by_topic[record["topics"][0]]
        names = [f[0] for f in LAYOUTS[name]["fields"]]
        ledger.append((record["blockNumber"], record["logIndex"],
                       timestamps[record["blockNumber"]], name,
                       dict(zip(names, _decode_values(record, name)))))
    ledger.sort(key=lambda e: (e[0], e[1]))
    return ledger


def replay_csvs(corpus_dir: str, chain: str, mode: str = "nominal") -> tuple[bytes, bytes]:
    """The expected ``replay --out`` and ``--anomalies`` bytes of one chain.

    Balances start at zero and a withdrawal, repayment or liquidation that would
    take one below zero leaves it at zero, recording an anomaly. ``nominal``
    books raw amounts. ``indexed`` books each amount divided by its reserve's
    index (supplier index for collateral, variable debt index for debt), the
    reserve stepped to the event's time from its last ReserveDataUpdated (or
    from indices of one and zero rates at its first use), and multiplies every
    balance by its reserve's index stepped to the chain's last event.
    """
    indexed = mode == "indexed"
    balances: dict[tuple[str, str, str], int] = {}  # (user, side, asset) -> balance
    enabled: dict[tuple[str, str], bool] = {}
    reserves: dict[str, dict] = {}
    anomalies = [["block_number", "log_index", "user", "asset", "detail"]]

    def reserve(asset, ts):
        state = reserves.get(asset) or {
            "liquidity_index": RAY, "variable_borrow_index": RAY, "current_liquidity_rate": 0,
            "current_variable_borrow_rate": 0, "reserve_factor": 0,
            "scaled_variable_debt_total": 0, "accrued_to_treasury": 0,
            "last_update_timestamp": ts}
        if state["last_update_timestamp"] < ts:
            state = o_reserve_step(state, ts)
        reserves[asset] = state
        return state

    def book(block, index, ts, user, side, asset, amount, sign):
        if indexed:
            state = reserve(asset, ts)
            amount = o_ray_div(amount, state["liquidity_index" if side == "collateral"
                                             else "variable_borrow_index"])
        balance = balances.get((user, side, asset), 0) + sign * amount
        if balance < 0:
            anomalies.append([str(block), str(index), user, asset,
                              f"{side} balance went {balance} on {asset}; clamped to 0"])
            balance = 0
        balances[(user, side, asset)] = balance

    ledger = chain_ledger(corpus_dir, chain)
    for block, index, ts, name, f in ledger:
        if name == "Supply":
            book(block, index, ts, f["onBehalfOf"], "collateral", f["reserve"], int(f["amount"]), 1)
        elif name == "Withdraw":
            book(block, index, ts, f["user"], "collateral", f["reserve"], int(f["amount"]), -1)
        elif name == "Borrow":
            book(block, index, ts, f["onBehalfOf"], "debt", f["reserve"], int(f["amount"]), 1)
        elif name == "Repay":
            book(block, index, ts, f["user"], "debt", f["reserve"], int(f["amount"]), -1)
        elif name == "LiquidationCall":
            book(block, index, ts, f["user"], "debt", f["debtAsset"], int(f["debtToCover"]), -1)
            book(block, index, ts, f["user"], "collateral", f["collateralAsset"],
                 int(f["liquidatedCollateralAmount"]), -1)
        elif name in ("ReserveUsedAsCollateralEnabled", "ReserveUsedAsCollateralDisabled"):
            enabled[(f["user"], f["reserve"])] = name.endswith("Enabled")
        elif name == "ReserveDataUpdated":
            reserves[f["reserve"]] = {
                "liquidity_index": int(f["liquidityIndex"]),
                "variable_borrow_index": int(f["variableBorrowIndex"]),
                "current_liquidity_rate": int(f["liquidityRate"]),
                "current_variable_borrow_rate": int(f["variableBorrowRate"]),
                "reserve_factor": 0, "scaled_variable_debt_total": 0,
                "accrued_to_treasury": 0, "last_update_timestamp": ts}

    if indexed:
        end = max(ts for _block, _index, ts, _name, _f in ledger)
        for (user, side, asset), scaled in balances.items():
            state = reserve(asset, end)
            balances[(user, side, asset)] = o_ray_mul(scaled, state[
                "liquidity_index" if side == "collateral" else "variable_borrow_index"])
    rows = [["user", "side", "asset", "amount", "enabled"]]
    for (user, side, asset), amount in sorted(balances.items()):
        flag = ("true" if enabled.get((user, asset), False) else "false") if side == "collateral" else ""
        rows.append([user, side, asset, str(amount), flag])
    return csv_bytes(rows), csv_bytes(anomalies)
