"""Streaming aggregations over shard directories.

Every metric is a single pass over the part files with state bounded by the
group count (plus the distinct-user set for new-user counting), never by row
count, and every merge is associative, so file processing order cannot
change a result. Money math accumulates in exact rationals and is rendered
to decimal strings only at output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable, Iterator

from .numstr import fraction_to_decimal, yaml_decimal
from .registry import Registry, load_yaml, yaml_int
from .sink import IoFailure, iter_part_rows, iter_streams, stream_parts

MAX_TIMESTAMP = 253_402_300_799  # 9999-12-31T23:59:59Z, the last second ``utc_day`` can name

Pairs = list[tuple[tuple[str, ...], str]]  # a metric's (group key, value), sorted by key


def utc_day(timestamp: int) -> str:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m-%d")


def _part_partials(root: str, events: set[str] | None, read: Callable[[str, str, str], object],
                   lenient: bool, warnings: list[str]) -> Iterator:
    """Yield ``read(chain, event, path)`` per part of the selected streams.

    ``read`` folds a whole part into one partial, so a part that fails to read or
    convert, or a break in the part numbering, adds nothing: strict raises an
    IoFailure naming the part, lenient adds a warning with its message.
    """

    def fail(exc: IoFailure) -> None:
        if not lenient:
            raise exc
        warnings.append(str(exc))

    for chain, event, directory in iter_streams(root):
        if events is not None and event not in events:
            continue
        paths, breaks = stream_parts(directory)
        for violation in breaks:
            fail(IoFailure(f"{violation.path}: {violation.detail}"))
        for path in paths:
            try:
                yield read(chain, event, path)
            except IoFailure as exc:  # names the path already
                fail(exc)
            except ValueError as exc:
                fail(IoFailure(f"{path}: {exc}"))


def event_counts(root: str, lenient: bool = False) -> tuple[Pairs, list[str]]:
    """Row counts per (chain, event) over all parts."""
    errors: list[str] = []

    def count_part(chain: str, event: str, path: str) -> Counter:
        return Counter({(chain, event): sum(1 for _ in iter_part_rows(path, chain, event))})

    counts: Counter = Counter()
    for part in _part_partials(root, None, count_part, lenient, errors):
        counts += part  # ``+=`` drops a zero count: a part with no rows adds no group
    return sorted((key, str(n)) for key, n in counts.items()), errors


def daily_new_users(
    root: str,
    registry: Registry,
    per_chain: bool = False,
    lenient: bool = False,
) -> tuple[Pairs, list[str]]:
    """Users counted on the UTC day of their first-ever appearance.

    The actor field per event type comes from the registry; event types
    without one are excluded with a warning.
    """
    user_fields = {schema.event_name: schema.user_field
                   for schema in registry.events if schema.user_field}
    present = {event for _chain, event, _directory in iter_streams(root)}
    warnings = [f"event {event}: no user field defined, excluded"
                for event in sorted(present - set(user_fields))]

    def first_seen_in_part(chain: str, event: str, path: str) -> dict:
        seen: dict[tuple[str, str] | str, int] = {}
        for ts, user in iter_part_rows(path, chain, event, ("block_timestamp", user_fields[event])):
            key, ts = ((chain, user) if per_chain else user), int(ts)
            if not 0 <= ts <= MAX_TIMESTAMP:
                raise ValueError(f"block_timestamp {ts} is not a second of the years 1970-9999")
            if seen.get(key, ts) >= ts:
                seen[key] = ts
        return seen

    first_seen: dict[tuple[str, str] | str, int] = {}
    for seen in _part_partials(root, set(user_fields), first_seen_in_part, lenient, warnings):
        for key, ts in seen.items():
            if first_seen.get(key, ts) >= ts:
                first_seen[key] = ts

    counts = Counter((key[0], utc_day(ts)) if per_chain else (utc_day(ts),)
                     for key, ts in first_seen.items())
    return sorted((group, str(n)) for group, n in counts.items()), warnings


@dataclass
class SkippedReport:
    total_rows: int = 0
    by_asset: Counter = field(default_factory=Counter)  # unpriced rows per asset

    @property
    def skipped_rows(self) -> int:
        return sum(self.by_asset.values())


class PriceTable:
    """Static USD prices keyed by asset address, optionally by UTC day."""

    def __init__(self, assets: dict[str, dict]):
        self._assets = assets

    @classmethod
    def load(cls, path: str) -> "PriceTable":
        """The table at ``path``; ValueError naming the asset for a missing key or a bad value."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = load_yaml(fh) or {}
        assets: dict[str, dict] = {}
        for address, entry in (doc.get("assets") or {}).items():
            try:
                assets[str(address).lower()] = {
                    "decimals": yaml_int(entry["decimals"], "decimals"),
                    "price": yaml_decimal(entry["price"]) if "price" in entry else None,
                    "daily": {
                        str(day): yaml_decimal(price)
                        for day, price in (entry.get("daily") or {}).items()
                    },
                }
            except KeyError as exc:
                raise ValueError(f"asset {address}: missing key {exc}") from None
            except (TypeError, ValueError, AttributeError) as exc:
                raise ValueError(f"asset {address}: {exc}") from None
        return cls(assets)

    def lookup(self, asset: str, day: str | None = None) -> tuple[Fraction, int] | None:
        entry = self._assets.get(asset.lower())
        price = None if entry is None else entry["daily"].get(day, entry["price"])
        return None if price is None else (price, entry["decimals"])


def _supply_sums(chain: str, event: str, path: str) -> tuple[Counter, Counter]:
    """Rows and summed amount per (chain, reserve, UTC day number) of one Supply part."""
    rows, amounts = Counter(), Counter()
    columns = ("block_timestamp", "reserve", "amount")
    for ts, asset, amount in iter_part_rows(path, chain, event, columns):
        ts = int(ts)
        if not 0 <= ts <= MAX_TIMESTAMP:
            raise ValueError(f"block_timestamp {ts} is not a second of the years 1970-9999")
        group = (chain, asset, ts // 86_400)
        rows[group] += 1
        amounts[group] += int(amount)
    return rows, amounts


def deposit_volume(
    root: str,
    price_table: PriceTable,
    lenient: bool = False,
) -> tuple[Pairs, SkippedReport, list[str]]:
    """USD supply volume per chain; unpriced rows are skipped and tallied.

    Amounts are summed per (chain, reserve, UTC day), the price key, and priced
    once per group; the sum of rationals is the same as pricing row by row.
    """
    errors: list[str] = []
    rows, amounts = Counter(), Counter()
    for part_rows, part_amounts in _part_partials(root, {"Supply"}, _supply_sums, lenient, errors):
        rows.update(part_rows)
        amounts.update(part_amounts)

    report = SkippedReport(total_rows=sum(rows.values()))
    volumes: dict[str, Fraction] = {}
    for (chain, asset, day), amount in amounts.items():
        found = price_table.lookup(asset, utc_day(day * 86_400))
        if found is None:
            report.by_asset[asset] += rows[chain, asset, day]
            continue
        price, decimals = found
        volumes[chain] = volumes.get(chain, Fraction(0)) + Fraction(amount) * price / 10**decimals
    values = sorted(((chain,), fraction_to_decimal(volume)) for chain, volume in volumes.items())
    return values, report, errors
