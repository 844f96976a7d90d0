"""Streaming aggregations over shard directories.

Every metric is a single pass over the part files with state bounded by the
group count (plus the distinct-user set for new-user counting), never by row
count, and every merge is associative, so file processing order cannot
change a result. Money math accumulates in exact rationals and is rendered
to decimal strings only at output.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Iterator

import yaml

from .numstr import fraction_to_decimal, parse_decimal
from .registry import Registry
from .sink import IoFailure, iter_part_rows, iter_streams, list_stream_parts


class AnalyticsError(Exception):
    pass


@dataclass(frozen=True)
class AggregateRow:
    key: tuple[str, ...]
    metric: str
    value: str


def utc_day(timestamp: int) -> str:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m-%d")


def _stream_rows(
    root: str,
    events: set[str] | None,
    lenient: bool,
    errors: list[str],
) -> Iterator[tuple[str, str, dict[str, str]]]:
    """Stream rows; under lenient a corrupt file contributes nothing.

    Lenient mode pre-scans each file (cheap width check) before streaming
    it, so a parse failure midway never leaks a partial file into the
    aggregates while memory stays bounded by one row.
    """
    for chain, event, directory in iter_streams(root):
        if events is not None and event not in events:
            continue
        for name in list_stream_parts(directory):
            path = os.path.join(directory, name)
            if lenient:
                try:
                    for _ in iter_part_rows(path):
                        pass
                except IoFailure as exc:
                    errors.append(str(exc))
                    continue
            try:
                for row in iter_part_rows(path):
                    yield chain, event, row
            except IoFailure as exc:
                raise AnalyticsError(str(exc)) from exc


def event_counts(root: str, lenient: bool = False) -> tuple[list[AggregateRow], list[str]]:
    """Row counts per (chain, event) over all parts."""
    errors: list[str] = []
    counts: dict[tuple[str, str], int] = {}
    for chain, event, _row in _stream_rows(root, None, lenient, errors):
        counts[(chain, event)] = counts.get((chain, event), 0) + 1
    rows = [
        AggregateRow(key=key, metric="event_count", value=str(counts[key]))
        for key in sorted(counts)
    ]
    return rows, errors


def daily_new_users(
    root: str,
    registry: Registry,
    per_chain: bool = False,
    lenient: bool = False,
) -> tuple[list[AggregateRow], list[str]]:
    """Users counted on the UTC day of their first-ever appearance.

    The actor field per event type comes from the registry; event types
    without one are excluded with a warning.
    """
    warnings: list[str] = []
    user_fields: dict[str, str] = {}
    excluded: set[str] = set()
    for schema in registry.events:
        if schema.user_field:
            user_fields[schema.event_name] = schema.user_field

    first_seen: dict[tuple[str, str] | str, int] = {}
    for chain, event, row in _stream_rows(root, None, lenient, warnings):
        field_name = user_fields.get(event)
        if field_name is None:
            if event not in excluded:
                excluded.add(event)
                warnings.append(f"event {event}: no user field defined, excluded")
            continue
        user = row.get(field_name)
        if not user:
            raise AnalyticsError(f"{chain}/{event}: row lacks field {field_name!r}")
        ts = int(row["block_timestamp"])
        key = (chain, user) if per_chain else user
        seen = first_seen.get(key)
        if seen is None or ts < seen:
            first_seen[key] = ts

    counts: dict[tuple[str, ...], int] = {}
    for key, ts in first_seen.items():
        day = utc_day(ts)
        group = (key[0], day) if per_chain else (day,)
        counts[group] = counts.get(group, 0) + 1
    rows = [
        AggregateRow(key=group, metric="new_users", value=str(counts[group]))
        for group in sorted(counts)
    ]
    return rows, warnings


@dataclass
class SkippedReport:
    total_rows: int = 0
    skipped_rows: int = 0
    by_asset: dict[str, int] = field(default_factory=dict)

    def record_skip(self, asset: str) -> None:
        self.skipped_rows += 1
        self.by_asset[asset] = self.by_asset.get(asset, 0) + 1


class PriceTable:
    """Static USD prices keyed by asset address, optionally by UTC day."""

    def __init__(self, assets: dict[str, dict]):
        self._assets = assets

    @classmethod
    def load(cls, path: str) -> "PriceTable":
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh) or {}
        assets: dict[str, dict] = {}
        for address, entry in (doc.get("assets") or {}).items():
            assets[str(address).lower()] = {
                "symbol": entry.get("symbol", ""),
                "decimals": int(entry["decimals"]),
                "price": parse_decimal(str(entry["price"])) if "price" in entry else None,
                "daily": {
                    str(day): parse_decimal(str(price))
                    for day, price in (entry.get("daily") or {}).items()
                },
            }
        return cls(assets)

    @classmethod
    def empty(cls) -> "PriceTable":
        return cls({})

    def lookup(self, asset: str, day: str | None = None) -> tuple[Fraction, int] | None:
        entry = self._assets.get(asset.lower())
        if entry is None:
            return None
        price = None
        if day is not None:
            price = entry["daily"].get(day)
        if price is None:
            price = entry["price"]
        if price is None:
            return None
        return price, entry["decimals"]


def deposit_volume(
    root: str,
    price_table: PriceTable,
    lenient: bool = False,
) -> tuple[list[AggregateRow], SkippedReport, list[str]]:
    """USD supply volume per chain; unpriced rows are skipped and tallied."""
    errors: list[str] = []
    report = SkippedReport()
    volumes: dict[str, Fraction] = {}
    for chain, _event, row in _stream_rows(root, {"Supply"}, lenient, errors):
        report.total_rows += 1
        asset = row["reserve"]
        found = price_table.lookup(asset, utc_day(int(row["block_timestamp"])))
        if found is None:
            report.record_skip(asset)
            continue
        price, decimals = found
        volumes[chain] = volumes.get(chain, Fraction(0)) + (
            Fraction(int(row["amount"])) * price / 10**decimals
        )
    rows = [
        AggregateRow(
            key=(chain,),
            metric="deposit_volume_usd",
            value=fraction_to_decimal(volumes[chain]),
        )
        for chain in sorted(volumes)
    ]
    return rows, report, errors


def write_aggregates(
    rows: list[AggregateRow], path: str, key_columns: tuple[str, ...], value_column: str
) -> None:
    """Write aggregate rows as a plot-ready CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(key_columns) + [value_column])
        for row in rows:
            writer.writerow(list(row.key) + [row.value])
