"""Command-line surface: extract, validate, replay, liquidate-quote, aggregate.

Exit codes: 0 success, 1 not-liquidatable (quote command), 2 configuration
errors, 3 terminal network errors, 4 I/O failures. Nothing touches the
network unless --live is given; --fixture-dir selects the offline emulator.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from heapq import merge
from operator import itemgetter

import click
import yaml

from . import analytics
from .gateway import FixtureGateway, GatewayError, HttpGateway
from .numstr import fraction_to_decimal, parse_decimal
from .registry import Registry, RegistryError, load_registry
from .risk import (
    AssetParams,
    NotLiquidatable,
    Position,
    RiskError,
    health_factor,
    liquidation_quote,
    replay,
)
from .scanner import (
    DEFAULT_BATCH_MAX,
    DEFAULT_BATCH_SIZE,
    Checkpoint,
    ScanPlan,
    ScanSummary,
    checkpoint_path,
    scan_event,
)
from .sink import (DecodingSink, IoFailure, ShardWriter, iter_part_rows, iter_streams,
                   list_stream_parts, validate_output)

EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    registry_path: str | None
    out_dir: str
    chains: list[str]
    events: list[str]
    from_block: int | None
    to_block: int | None
    batch: int
    batch_max: int
    fixture_dir: str | None
    live: bool
    resume: bool
    lenient: bool
    json_progress: bool


def _load_registry_or_fail(path: str | None) -> Registry:
    try:
        return load_registry(path)
    except RegistryError as exc:
        raise click.UsageError(str(exc)) from exc


def _resolve_selector(selector: str, known: list[str], what: str) -> list[str]:
    if selector == "all":
        return list(known)
    names = [s.strip() for s in selector.split(",") if s.strip()]
    for name in names:
        if name not in known:
            raise click.UsageError(f"unknown {what} {name!r} (known: {', '.join(known)})")
    return names


def _make_gateway(config: RunConfig, registry: Registry, chain_name: str):
    chain = registry.chain(chain_name)
    if config.fixture_dir:
        chain_dir = os.path.join(config.fixture_dir, chain_name)
        if not os.path.isdir(chain_dir):
            raise click.UsageError(f"fixture corpus has no directory for {chain_name!r}")
        return FixtureGateway.from_dir(chain_dir)
    url = os.environ.get(chain.rpc_env_key)
    if not url:
        raise click.UsageError(
            f"environment variable {chain.rpc_env_key} is not set for live mode"
        )
    return HttpGateway(url)


# pid of the extract process; set only in its chain processes
_extract_pid: int | None = None


def _enter_chain_process(parent_pid: int) -> None:
    global _extract_pid
    _extract_pid = parent_pid
    _stop_if_orphaned()


def _stop_if_orphaned() -> None:
    """End a chain process whose extract process is gone (killed, not unwound).

    Called after each batch, once its rows and checkpoint are durable, so at
    most the batch in flight is written after the kill and ``--resume`` can
    follow at once. ``_exit``: a raised error would leave the process blocked
    on the pool's queues, which nothing reads any more.
    """
    if _extract_pid is not None and os.getppid() != _extract_pid:
        os._exit(EXIT_IO)


def _progress_printer(json_mode: bool):
    def emit(summary: ScanSummary, scanned_to: int, end_block: int) -> None:
        _stop_if_orphaned()
        if json_mode:
            line = json.dumps({
                "chain": summary.chain,
                "event": summary.event,
                "scanned_to": scanned_to - 1,
                "end_block": end_block,
                "rows": summary.rows_emitted,
                "batches": summary.batches_issued,
            }, sort_keys=True)
        else:
            line = (f"{summary.chain}/{summary.event}: scanned to {scanned_to - 1} "
                    f"of {end_block}, rows={summary.rows_emitted}")
        click.echo(line, err=True)

    return emit


def _extract_chain(config: RunConfig, registry: Registry, chain_name: str,
                   event_names: list[str]) -> list[ScanSummary]:
    chain = registry.chain(chain_name)
    gateway = _make_gateway(config, registry, chain_name)
    sleeper = (lambda _s: None) if config.fixture_dir else time.sleep
    progress = _progress_printer(config.json_progress)

    end_block = min(chain.max_block, gateway.latest_block())
    if config.to_block is not None:
        end_block = min(end_block, config.to_block)
    start_block = chain.start_block
    if config.from_block is not None:
        start_block = max(start_block, config.from_block)

    summaries: list[ScanSummary] = []
    for event_name in event_names:
        schema = registry.event(event_name)
        cp_file = checkpoint_path(config.out_dir, chain_name, event_name)
        cursor = start_block
        rows_so_far = 0

        if os.path.exists(cp_file):
            if not config.resume:
                raise click.UsageError(
                    f"{chain_name}/{event_name} already has a checkpoint; "
                    "pass --resume or use a fresh output directory"
                )
            checkpoint = Checkpoint.load(cp_file)
            if checkpoint.last_completed_block >= end_block:
                summaries.append(ScanSummary(chain=chain_name, event=event_name,
                                             rows_emitted=checkpoint.rows_emitted_total))
                continue
            cursor = max(cursor, checkpoint.last_completed_block + 1)
            rows_so_far = checkpoint.rows_emitted_total
            writer = ShardWriter.resume(
                config.out_dir, chain_name, schema,
                checkpoint.current_part_number, checkpoint.rows_in_current_part,
            )
        else:
            stream = os.path.join(config.out_dir, chain_name, event_name)
            if os.path.isdir(stream) and list_stream_parts(stream):
                raise click.UsageError(
                    f"{stream} already holds part files but no checkpoint; "
                    "refusing to mix streams"
                )
            writer = ShardWriter(config.out_dir, chain_name, schema)

        if cursor > end_block:
            writer.finalize()
            summaries.append(ScanSummary(chain=chain_name, event=event_name,
                                         rows_emitted=rows_so_far))
            continue

        plan = ScanPlan(chain=chain, event=schema, cursor=cursor, end_block=end_block,
                        batch_size=config.batch, batch_max=config.batch_max)
        sink = DecodingSink(writer, schema, chain_name, strict=not config.lenient)
        summary = scan_event(plan, gateway, sink, checkpoint_file=cp_file,
                             rows_emitted_so_far=rows_so_far, sleeper=sleeper,
                             on_progress=progress)
        writer.finalize()
        summaries.append(summary)
    return summaries


def _run_chain(config: RunConfig, registry: Registry, chain_name: str,
               event_names: list[str]) -> list[ScanSummary]:
    # looks ``_extract_chain`` up when called, so a process pool pickles this
    # name only, never a wrapped ``_extract_chain``
    return _extract_chain(config, registry, chain_name, event_names)


def run_extract(config: RunConfig) -> list[ScanSummary]:
    """Programmatic entry point behind the ``extract`` command.

    Several chains run in one forked process each; chains share no state, so
    they use every core. A chain process stops at its next batch boundary
    once this process is gone. A chain's error is re-raised here once every
    chain has stopped; a chain process that dies raises ``BrokenProcessPool``.
    A single chain runs in this process. Several run in one thread each where
    ``fork`` is missing or unsafe because other threads are running.
    """
    registry = _load_registry_or_fail(config.registry_path)
    chain_names = _resolve_selector(",".join(config.chains), registry.chain_names(), "chain")
    event_names = _resolve_selector(",".join(config.events), registry.event_names(), "event")
    if not config.live and not config.fixture_dir:
        raise click.UsageError("choose --live or --fixture-dir")

    os.makedirs(config.out_dir, exist_ok=True)
    if len(chain_names) == 1:
        return _extract_chain(config, registry, chain_names[0], event_names)
    if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
        pool = ProcessPoolExecutor(max_workers=len(chain_names),
                                   mp_context=multiprocessing.get_context("fork"),
                                   initializer=_enter_chain_process, initargs=(os.getpid(),))
    else:
        pool = ThreadPoolExecutor(max_workers=len(chain_names))
    with pool:
        futures = [pool.submit(_run_chain, config, registry, chain_name, event_names)
                   for chain_name in chain_names]
        per_chain = [future.result() for future in futures]
    return sorted((s for summaries in per_chain for s in summaries),
                  key=lambda s: (s.chain, s.event))


@click.group()
def main() -> None:
    """Aave V3 Pool event extraction and lending analytics."""


@main.command()
@click.option("--registry", "registry_path", type=click.Path(exists=True), default=None)
def chains(registry_path) -> None:
    """List registered chains."""
    registry = _load_registry_or_fail(registry_path)
    for chain in registry.chains:
        click.echo(f"{chain.chain_name}\t{chain.pool_address}\t"
                   f"{chain.start_block}\t{chain.max_block}")


@main.command()
@click.option("--registry", "registry_path", type=click.Path(exists=True), default=None)
def events(registry_path) -> None:
    """List registered event schemas."""
    registry = _load_registry_or_fail(registry_path)
    for schema in registry.events:
        click.echo(f"{schema.event_name}\t0x{schema.topic0.hex()}\t"
                   f"{schema.canonical_signature}")


@main.command()
@click.option("--chain", "chain_selector", default="all", show_default=True)
@click.option("--event", "event_selector", default="all", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--from", "from_block", type=int, default=None)
@click.option("--to", "to_block", type=int, default=None)
@click.option("--batch", type=int, default=DEFAULT_BATCH_SIZE, show_default=True)
@click.option("--batch-max", type=int, default=DEFAULT_BATCH_MAX, show_default=True)
@click.option("--fixture-dir", type=click.Path(exists=True), default=None,
              help="Run against a fixture corpus instead of live endpoints.")
@click.option("--live", is_flag=True, help="Allow live JSON-RPC access.")
@click.option("--resume", is_flag=True, help="Continue from existing checkpoints.")
@click.option("--lenient", is_flag=True, help="Mask malformed padding instead of failing.")
@click.option("--json-progress", is_flag=True)
@click.option("--registry", "registry_path", type=click.Path(exists=True), default=None)
def extract(chain_selector, event_selector, out_dir, from_block, to_block, batch,
            batch_max, fixture_dir, live, resume, lenient, json_progress,
            registry_path) -> None:
    """Scan, decode and shard Pool events per (chain, event)."""
    config = RunConfig(
        registry_path=registry_path, out_dir=out_dir,
        chains=[chain_selector], events=[event_selector],
        from_block=from_block, to_block=to_block,
        batch=batch, batch_max=batch_max,
        fixture_dir=fixture_dir, live=live, resume=resume,
        lenient=lenient, json_progress=json_progress,
    )
    try:
        summaries = run_extract(config)
    except GatewayError as exc:
        click.echo(f"extraction aborted: {exc}", err=True)
        sys.exit(EXIT_NETWORK)
    except IoFailure as exc:
        click.echo(f"extraction aborted: {exc}", err=True)
        sys.exit(EXIT_IO)
    except OSError as exc:
        click.echo(f"extraction aborted: {exc}", err=True)
        sys.exit(EXIT_IO)
    except BrokenProcessPool as exc:
        click.echo(f"extraction aborted: a chain process died: {exc}", err=True)
        sys.exit(EXIT_IO)
    for summary in summaries:
        click.echo(f"{summary.chain}/{summary.event}: rows={summary.rows_emitted} "
                   f"batches={summary.batches_issued} resizes={summary.resize_events}",
                   err=True)


@main.command()
@click.argument("directory", type=click.Path(exists=True))
def validate(directory) -> None:
    """Check an output tree against the shard file contract."""
    report = validate_output(directory)
    for violation in report.violations:
        where = f"{violation.path}:{violation.line}" if violation.line else violation.path
        click.echo(f"{violation.kind}\t{where}\t{violation.detail}")
    click.echo(f"{len(report.violations)} violation(s)", err=True)
    if not report.ok:
        sys.exit(1)


def _load_asset_params(path: str) -> dict[str, AssetParams]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    params: dict[str, AssetParams] = {}
    for asset_id, entry in (doc.get("assets") or {}).items():
        p = AssetParams(
            symbol=str(entry.get("symbol", asset_id)),
            decimals=int(entry.get("decimals", 0)),
            price=parse_decimal(str(entry["price"])),
            liquidation_threshold=parse_decimal(str(entry["liquidation_threshold"])),
            ltv=parse_decimal(str(entry.get("ltv", entry["liquidation_threshold"]))),
            liquidation_bonus_bps=int(entry.get("liquidation_bonus_bps", 10000)),
            protocol_fee_share=parse_decimal(str(entry.get("protocol_fee_share", "0.2"))),
        )
        p.validate()
        params[str(asset_id)] = p
    if not params:
        raise click.UsageError(f"{path}: no assets defined")
    return params


def _load_position(path: str) -> Position:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    position = Position(user=str(doc.get("user", "user")))
    for entry in doc.get("collateral") or []:
        asset = str(entry["asset"])
        position.collateral[asset] = parse_decimal(str(entry["amount"]))
        position.collateral_enabled[asset] = bool(entry.get("enabled", True))
    for entry in doc.get("debt") or []:
        position.debt[str(entry["asset"])] = parse_decimal(str(entry["amount"]))
    return position


@main.command("liquidate-quote")
@click.option("--params", "params_path", required=True, type=click.Path(exists=True))
@click.option("--position", "position_path", required=True, type=click.Path(exists=True))
@click.option("--debt-asset", required=True)
@click.option("--collateral-asset", required=True)
@click.option("--debt-to-cover", required=True)
@click.option("--strict", is_flag=True,
              help="Error instead of clamping when collateral is insufficient.")
def liquidate_quote_cmd(params_path, position_path, debt_asset, collateral_asset,
                        debt_to_cover, strict) -> None:
    """Print the health report and liquidation quote for a position."""
    params = _load_asset_params(params_path)
    position = _load_position(position_path)
    try:
        report = health_factor(position, params)
        h_text = "inf" if report.infinite else fraction_to_decimal(report.health_factor)
        click.echo(f"health_factor: {h_text}")
        click.echo(f"liquidatable: {'true' if report.liquidatable else 'false'}")
        click.echo(f"close_factor: {fraction_to_decimal(report.close_factor)}")
        quote = liquidation_quote(
            position, params, debt_asset, collateral_asset,
            parse_decimal(debt_to_cover), strict=strict,
        )
    except NotLiquidatable:
        sys.exit(1)
    except RiskError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONFIG)
    click.echo(f"debt_repaid: {fraction_to_decimal(quote.debt_repaid)}")
    click.echo(f"base_collateral: {fraction_to_decimal(quote.base_collateral)}")
    click.echo(f"total_collateral: {fraction_to_decimal(quote.total_collateral)}")
    click.echo(f"protocol_fee: {fraction_to_decimal(quote.protocol_fee)}")
    click.echo(f"liquidator_receives: {fraction_to_decimal(quote.liquidator_receives)}")
    click.echo(f"liquidator_profit_usd: {fraction_to_decimal(quote.liquidator_profit_usd)}")


def _keyed_stream_rows(directory: str):
    """(block_number, log_index) and row for each row of one stream, in file order."""
    for name in list_stream_parts(directory):
        path = os.path.join(directory, name)
        for row in iter_part_rows(path):
            try:
                key = (int(row["block_number"]), int(row["log_index"]))
            except ValueError as exc:
                raise IoFailure(f"{path}: row key is not an integer ({exc})") from None
            yield key, row


def _iter_chain_rows_sorted(root: str, chain: str):
    """Merge all event streams of one chain into one key-ordered row stream."""
    streams = [_keyed_stream_rows(directory)
               for name, _event, directory in iter_streams(root) if name == chain]
    if not streams:
        raise click.UsageError(f"no shard directory for chain {chain!r} under {root}")
    return map(itemgetter(1), merge(*streams, key=itemgetter(0)))


@main.command("replay")
@click.option("--in", "root", required=True, type=click.Path(exists=True))
@click.option("--chain", "chain_name", required=True)
@click.option("--mode", type=click.Choice(["nominal", "indexed"]), default="nominal",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--params", "params_path", type=click.Path(exists=True), default=None,
              help="Asset params; adds a health report per user to stdout.")
def replay_cmd(root, chain_name, mode, out_path, params_path) -> None:
    """Rebuild user positions from extracted shards for one chain."""
    import csv as _csv

    try:
        result = replay(_iter_chain_rows_sorted(root, chain_name), mode=mode)
    except IoFailure as exc:
        click.echo(f"replay aborted: {exc}", err=True)
        sys.exit(EXIT_IO)
    rows = []
    for user in sorted(result.positions):
        position = result.positions[user]
        for asset in sorted(position.collateral):
            rows.append([user, "collateral", asset, str(position.collateral[asset]),
                         "true" if position.is_collateral_enabled(asset) else "false"])
        for asset in sorted(position.debt):
            rows.append([user, "debt", asset, str(position.debt[asset]), ""])
    if out_path:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow(["user", "side", "asset", "amount", "enabled"])
            writer.writerows(rows)
    else:
        for row in rows:
            click.echo("\t".join(row))
    if result.anomalies:
        click.echo(f"{len(result.anomalies)} anomalies (clamped balances)", err=True)

    if params_path:
        params = _load_asset_params(params_path)
        for user in sorted(result.positions):
            report = health_factor(result.positions[user], params)
            h_text = "inf" if report.infinite else fraction_to_decimal(report.health_factor)
            click.echo(f"{user}\thealth_factor={h_text}\t"
                       f"liquidatable={'true' if report.liquidatable else 'false'}\t"
                       f"close_factor={fraction_to_decimal(report.close_factor)}")


@main.command()
@click.option("--metric", type=click.Choice(["counts", "new-users", "deposit-volume"]),
              required=True)
@click.option("--in", "root", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--price-table", "price_table_path", type=click.Path(exists=True), default=None)
@click.option("--per-chain", is_flag=True, help="Count first appearances per chain.")
@click.option("--lenient", is_flag=True, help="Skip corrupt files instead of failing.")
@click.option("--registry", "registry_path", type=click.Path(exists=True), default=None)
def aggregate(metric, root, out_path, price_table_path, per_chain, lenient,
              registry_path) -> None:
    """Aggregate shard directories into a plot-ready summary CSV."""
    try:
        if metric == "counts":
            rows, errors = analytics.event_counts(root, lenient=lenient)
            analytics.write_aggregates(rows, out_path, ("chain", "event"), "count")
        elif metric == "new-users":
            registry = _load_registry_or_fail(registry_path)
            rows, errors = analytics.daily_new_users(root, registry, per_chain=per_chain,
                                                     lenient=lenient)
            columns = ("chain", "day") if per_chain else ("day",)
            analytics.write_aggregates(rows, out_path, columns, "new_users")
        else:
            if not price_table_path:
                raise click.UsageError("--price-table is required for deposit-volume")
            table = analytics.PriceTable.load(price_table_path)
            rows, skipped, errors = analytics.deposit_volume(root, table, lenient=lenient)
            analytics.write_aggregates(rows, out_path, ("chain",), "deposit_volume_usd")
            if skipped.total_rows:
                click.echo(
                    f"skipped {skipped.skipped_rows}/{skipped.total_rows} rows "
                    f"without prices ({len(skipped.by_asset)} assets)", err=True)
    except analytics.AnalyticsError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_IO)
    for error in errors:
        click.echo(f"warning: {error}", err=True)


if __name__ == "__main__":
    main()
