"""Straight-line nominal replay: the expected ``replay --out`` CSV for one chain.

Fed from ``tests/reference.py`` rows, which decode the corpus from the
``corpusgen`` layout tables; no package code is involved. The ledger books
raw amounts and clamps a balance that would go negative at zero, which is
the nominal mode's documented rule.
"""

from __future__ import annotations

import heapq

import reference
from corpusgen import LAYOUTS

PREFIX_WIDTH = len(reference.PREFIX)


def chain_events(corpus_dir: str, chain: str):
    """(block, log index, event name, field dict) of every log on ``chain``, in key order."""
    streams = []
    for event_name in sorted(LAYOUTS):
        names = [f[0] for f in LAYOUTS[event_name]["fields"]]
        streams.append([
            (int(row[2]), int(row[5]), event_name,
             dict(zip(names, row[PREFIX_WIDTH:PREFIX_WIDTH + len(names)])))
            for row in reference.stream_rows(corpus_dir, chain, event_name)
        ])
    return heapq.merge(*streams, key=lambda e: (e[0], e[1]))


def replay_csv(events) -> bytes:
    collateral: dict[str, dict[str, int]] = {}
    debt: dict[str, dict[str, int]] = {}
    enabled: dict[tuple[str, str], bool] = {}
    users: set[str] = set()

    def add(book, user, asset, amount):
        users.add(user)
        held = book.setdefault(user, {})
        held[asset] = held.get(asset, 0) + amount

    def sub(book, user, asset, amount):
        users.add(user)
        held = book.setdefault(user, {})
        held[asset] = max(held.get(asset, 0) - amount, 0)

    for _block, _log_index, name, f in events:
        if name == "Supply":
            add(collateral, f["onBehalfOf"], f["reserve"], int(f["amount"]))
        elif name == "Withdraw":
            sub(collateral, f["user"], f["reserve"], int(f["amount"]))
        elif name == "Borrow":
            add(debt, f["onBehalfOf"], f["reserve"], int(f["amount"]))
        elif name == "Repay":
            sub(debt, f["user"], f["reserve"], int(f["amount"]))
        elif name == "LiquidationCall":
            sub(debt, f["user"], f["debtAsset"], int(f["debtToCover"]))
            sub(collateral, f["user"], f["collateralAsset"],
                int(f["liquidatedCollateralAmount"]))
        elif name == "ReserveUsedAsCollateralEnabled":
            enabled[(f["user"], f["reserve"])] = True
        elif name == "ReserveUsedAsCollateralDisabled":
            enabled[(f["user"], f["reserve"])] = False

    rows = [["user", "side", "asset", "amount", "enabled"]]
    for user in sorted(users):
        for asset, amount in sorted(collateral.get(user, {}).items()):
            flag = "true" if enabled.get((user, asset), False) else "false"
            rows.append([user, "collateral", asset, str(amount), flag])
        for asset, amount in sorted(debt.get(user, {}).items()):
            rows.append([user, "debt", asset, str(amount), ""])
    return reference.csv_bytes(rows)
