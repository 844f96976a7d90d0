"""Command-line surface: extract, validate, replay, liquidate-quote, aggregate.

Exit codes: 0 success, 1 not-liquidatable (quote command), 2 configuration
errors, 3 terminal network errors, 4 I/O failures. Nothing touches the
network unless --live is given; --fixture-dir selects the offline emulator.
"""

from __future__ import annotations

import fcntl
import json
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import merge

import click

from . import analytics
from .gateway import FixtureGateway, GatewayError, HttpGateway
from .numstr import fraction_to_decimal, parse_decimal, yaml_decimal
from .registry import Registry, RegistryError, load_registry, load_yaml, yaml_int
from .risk import (
    REPLAY_FIELDS,
    AssetParams,
    NotLiquidatable,
    OrderViolation,
    Position,
    RiskError,
    UnknownAsset,
    health_factor,
    liquidation_quote,
    replay,
)
from .scanner import DEFAULT_BATCH_MAX, DEFAULT_BATCH_SIZE, ScanPlan, ScanSummary, scan_events
from .sink import (Checkpoint, IoFailure, ShardWriter, checkpoint_path, iter_part_rows,
                   iter_streams, list_stream_parts, stream_parts, validate_output)

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


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to the stream current now. Without ``file=``, click caches a
    wrapper of ``sys.stdout``/``sys.stderr`` in a ``WeakKeyDictionary`` whose value
    holds its key, so each in-process invocation (``CliRunner``) would keep its
    streams and all it wrote alive. ``get_text_stream`` is the uncached form of
    that lookup: it still writes UTF-8 to a stream configured as ASCII."""
    click.echo(message, file=click.get_text_stream("stderr" if err else "stdout", errors=None))


def _load_registry_or_fail(path: str | None) -> Registry:
    try:
        return load_registry(path)
    except RegistryError as exc:
        raise click.UsageError(str(exc)) from exc


def _resolve_selector(selector: str, known: list[str], what: str) -> list[str]:
    if selector == "all":
        return list(known)
    names = list(dict.fromkeys(s.strip() for s in selector.split(",") if s.strip()))
    for name in names:
        if name not in known:
            raise click.UsageError(f"unknown {what} {name!r} (known: {', '.join(known)})")
    return names


def _gateway_source(config: RunConfig, registry: Registry, chain_name: str) -> str:
    """The fixture directory, or the RPC URL under ``--live``, of one chain."""
    if config.fixture_dir:
        chain_dir = os.path.join(config.fixture_dir, chain_name)
        if not os.path.isdir(chain_dir):
            raise click.UsageError(f"fixture corpus has no directory for {chain_name!r}")
        return chain_dir
    env_key = registry.chain(chain_name).rpc_env_key
    url = os.environ.get(env_key)
    if not url:
        raise click.UsageError(f"environment variable {env_key} is not set for live mode")
    return url


def _make_gateway(config: RunConfig, registry: Registry, chain_name: str):
    source = _gateway_source(config, registry, chain_name)
    return FixtureGateway.from_dir(source) if config.fixture_dir else HttpGateway(source)


# pid of the extract process; set only in its chain processes
_extract_pid: int | None = None


def _enter_chain_process(parent_pid: int) -> None:
    global _extract_pid
    _extract_pid = parent_pid
    _stop_if_orphaned()


def _stop_if_orphaned() -> None:
    """End a chain process whose extract process is gone (killed, not unwound).

    Called before each query (``_OrphanCheckedGateway``) and after each
    commit, so after the kill at most the query in flight is answered and the
    commit it completes written; answers held for later commits are
    dropped, and ``--resume`` asks for them again. ``_exit``: a raised error
    would leave the process blocked on the pool's queues, which nothing reads
    any more.
    """
    if _extract_pid is not None and os.getppid() != _extract_pid:
        os._exit(EXIT_IO)


class _OrphanCheckedGateway:
    """A chain's gateway, checked for a gone extract process before each query."""

    def __init__(self, gateway):
        self._gateway = gateway

    def get_logs(self, query):
        _stop_if_orphaned()
        return self._gateway.get_logs(query)


@contextmanager
def _chain_lock(chain_dir: str):
    """Hold an exclusive ``flock`` on ``chain_dir`` itself, so no file is added;
    IoFailure names the directory when another extract holds it."""
    os.makedirs(chain_dir, exist_ok=True)
    fd = os.open(chain_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise IoFailure(f"{chain_dir} is locked by another extract of this chain; "
                            "wait for it to end") from None
        yield
    finally:
        os.close(fd)


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
        _echo(line, err=True)

    return emit


def _extract_chain(config: RunConfig, registry: Registry, chain_name: str,
                   event_names: list[str]) -> list[ScanSummary]:
    """Scan every unfinished stream of a chain with one cursor, then finalize them,
    holding the chain's output directory locked throughout. Every stream's record
    is read, and refused, before any stream's files change."""
    with _chain_lock(os.path.join(config.out_dir, chain_name)):
        chain = registry.chain(chain_name)
        gateway = _make_gateway(config, registry, chain_name)
        sleeper = (lambda _s: None) if config.fixture_dir else time.sleep

        end_block = min(chain.max_block, gateway.latest_block())
        if config.to_block is not None:
            end_block = min(end_block, config.to_block)
        start_block = chain.start_block
        if config.from_block is not None:
            start_block = max(start_block, config.from_block)

        records: list[Checkpoint | None] = []
        for event_name in event_names:
            cp_file = checkpoint_path(config.out_dir, chain_name, event_name)
            record = None
            if os.path.exists(cp_file):
                if not config.resume:
                    raise click.UsageError(
                        f"{chain_name}/{event_name} already has a checkpoint; "
                        "pass --resume or use a fresh output directory"
                    )
                record = Checkpoint.load(cp_file, chain_name, event_name)
                if record.finalized and record.last_completed_block < end_block:
                    raise IoFailure(
                        f"{chain_name}/{event_name} is finalized at block "
                        f"{record.last_completed_block}, below end block {end_block}; "
                        "a finalized stream cannot be extended"
                    )
            elif not config.resume:
                stream = os.path.join(config.out_dir, chain_name, event_name)
                if os.path.isdir(stream) and list_stream_parts(stream):
                    raise click.UsageError(
                        f"{stream} already holds part files but no checkpoint; "
                        "refusing to mix streams"
                    )
            records.append(record)

        summaries: dict[str, ScanSummary] = {}
        streams: list[tuple] = []  # (event, cursor, writer) of each unfinished stream
        for event_name, record in zip(event_names, records):
            schema = registry.event(event_name)
            cursor = start_block
            if record is not None:
                cursor = max(cursor, record.last_completed_block + 1)
            # without a record, nothing on disk is committed: every part file goes
            writer = ShardWriter.resume(config.out_dir, chain_name, schema, record,
                                        strict=not config.lenient)
            # a stream scanned to the end (re)does whatever of finalize is missing
            if cursor > end_block:
                summaries[event_name] = ScanSummary(
                    chain=chain_name, event=event_name,
                    rows_emitted=writer.finalize(cursor - 1).rows_emitted_total)
            else:
                streams.append((schema, cursor, writer))

        plan = ScanPlan(chain, end_block, config.batch, config.batch_max)
        for summary in scan_events(plan, streams, _OrphanCheckedGateway(gateway), sleeper,
                                   _progress_printer(config.json_progress)):
            summaries[summary.event] = summary
        for _schema, _cursor, writer in streams:
            writer.finalize(end_block)
        return [summaries[event_name] for event_name in event_names]


def _run_chain(config: RunConfig, registry: Registry, chain_name: str,
               event_names: list[str]) -> list[ScanSummary]:
    # looks ``_extract_chain`` up when called, so a process pool pickles this
    # name only, never a wrapped ``_extract_chain``
    return _extract_chain(config, registry, chain_name, event_names)


def run_extract(config: RunConfig) -> list[ScanSummary]:
    """Programmatic entry point behind the ``extract`` command.

    Several chains run in one forked process each; chains share no state, so
    they use every core. Once this process is gone, a chain process stops
    before its next query, after at most the query in flight and the commit
    it completes. Each chain locks its output directory for the whole
    extract, so a second extract of that chain, a resume started while an
    orphan still runs included, exits 4. A chain's error is re-raised here
    once every chain has stopped; a chain process that dies raises
    ``BrokenProcessPool``.
    A single chain runs in this process. Several run in one thread each where
    ``fork`` is missing or unsafe because other threads are running.
    """
    registry = _load_registry_or_fail(config.registry_path)
    chain_names = _resolve_selector(",".join(config.chains), registry.chain_names(), "chain")
    event_names = _resolve_selector(",".join(config.events), registry.event_names(), "event")
    if not config.live and not config.fixture_dir:
        raise click.UsageError("choose --live or --fixture-dir")
    if not 1 <= config.batch <= config.batch_max:
        raise _ConfigFault(f"--batch {config.batch} outside [1, --batch-max {config.batch_max}]")
    for chain_name in chain_names:
        _gateway_source(config, registry, chain_name)  # fail before any chain writes

    os.makedirs(config.out_dir, exist_ok=True)
    if len(chain_names) == 1:
        return _extract_chain(config, registry, chain_names[0], event_names)
    if not config.fixture_dir:
        import requests  # noqa: F401  once here, not once in each forked chain process
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
        _echo(f"{chain.chain_name}\t{chain.pool_address}\t"
              f"{chain.start_block}\t{chain.max_block}")


@main.command()
@click.option("--registry", "registry_path", type=click.Path(exists=True), default=None)
def events(registry_path) -> None:
    """List registered event schemas."""
    registry = _load_registry_or_fail(registry_path)
    for schema in registry.events:
        _echo(f"{schema.event_name}\t0x{schema.topic0.hex()}\t"
              f"{schema.canonical_signature}")


@main.command()
@click.option("--chain", "chain_selector", default="all", show_default=True)
@click.option("--event", "event_selector", default="all", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--from", "from_block", type=int, default=None)
@click.option("--to", "to_block", type=int, default=None)
@click.option("--batch", type=int, default=DEFAULT_BATCH_SIZE, show_default=True,
              help="Blocks per query to start with, and the fewest blocks per commit.")
@click.option("--batch-max", type=int, default=DEFAULT_BATCH_MAX, show_default=True,
              help="Widest query, in blocks, that growth may reach.")
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
        _echo(f"extraction aborted: {exc}", err=True)
        sys.exit(EXIT_NETWORK)
    except (IoFailure, OSError) as exc:
        _echo(f"extraction aborted: {exc}", err=True)
        sys.exit(EXIT_IO)
    except BrokenProcessPool as exc:
        _echo(f"extraction aborted: a chain process died: {exc}", err=True)
        sys.exit(EXIT_IO)
    for summary in summaries:
        _echo(f"{summary.chain}/{summary.event}: rows={summary.rows_emitted} "
              f"batches={summary.batches_issued} resizes={summary.resize_events}",
              err=True)


@main.command()
@click.argument("directory", type=click.Path(exists=True))
def validate(directory) -> None:
    """Check an output tree against the shard file contract."""
    violations = validate_output(directory)
    for violation in violations:
        where = f"{violation.path}:{violation.line}" if violation.line else violation.path
        _echo(f"{violation.kind}\t{where}\t{violation.detail}")
    _echo(f"{len(violations)} violation(s)", err=True)
    if violations:
        sys.exit(1)


class _ConfigFault(click.ClickException):
    """A bad option value or a malformed params or position file: one line naming it, exit 2."""

    exit_code = EXIT_CONFIG


@contextmanager
def _config_entry(path: str, where: str):
    """Turn a missing key or a bad value in entry ``where`` of ``path`` into a _ConfigFault."""
    try:
        yield
    except KeyError as exc:
        raise _ConfigFault(f"{path}: {where}: missing key {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise _ConfigFault(f"{path}: {where}: {exc}") from None


def _load_asset_params(path: str) -> dict[str, AssetParams]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = load_yaml(fh) or {}
    params: dict[str, AssetParams] = {}
    for asset_id, entry in (doc.get("assets") or {}).items():
        with _config_entry(path, f"asset {asset_id}"):
            p = AssetParams(
                symbol=str(entry.get("symbol", asset_id)),
                decimals=yaml_int(entry.get("decimals", 0), "decimals"),
                price=yaml_decimal(entry["price"]),
                liquidation_threshold=yaml_decimal(entry["liquidation_threshold"]),
                ltv=yaml_decimal(entry.get("ltv", entry["liquidation_threshold"])),
                liquidation_bonus_bps=yaml_int(entry.get("liquidation_bonus_bps", 10000),
                                               "liquidation_bonus_bps"),
                protocol_fee_share=yaml_decimal(entry.get("protocol_fee_share", "0.2")),
            )
            p.validate()
        params[str(asset_id)] = p
    if not params:
        raise click.UsageError(f"{path}: no assets defined")
    return params


def _load_position(path: str) -> Position:
    with open(path, "r", encoding="utf-8") as fh:
        doc = load_yaml(fh) or {}
    position = Position(user=str(doc.get("user", "user")))
    for n, entry in enumerate(doc.get("collateral") or [], 1):
        with _config_entry(path, f"collateral entry {n}"):
            asset = str(entry["asset"])
            position.collateral[asset] = yaml_decimal(entry["amount"])
            position.collateral_enabled[asset] = bool(entry.get("enabled", True))
    for n, entry in enumerate(doc.get("debt") or [], 1):
        with _config_entry(path, f"debt entry {n}"):
            position.debt[str(entry["asset"])] = yaml_decimal(entry["amount"])
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
    try:
        debt_to_cover = parse_decimal(debt_to_cover)
    except ValueError as exc:
        raise _ConfigFault(f"--debt-to-cover: {exc}") from None
    params = _load_asset_params(params_path)
    position = _load_position(position_path)
    try:
        report = health_factor(position, params)
        h_text = "inf" if report.infinite else fraction_to_decimal(report.health_factor)
        _echo(f"health_factor: {h_text}")
        _echo(f"liquidatable: {'true' if report.liquidatable else 'false'}")
        _echo(f"close_factor: {fraction_to_decimal(report.close_factor)}")
        quote = liquidation_quote(
            position, params, debt_asset, collateral_asset, debt_to_cover, strict=strict)
    except NotLiquidatable:
        sys.exit(1)
    except RiskError as exc:
        _echo(str(exc), err=True)
        sys.exit(EXIT_CONFIG)
    _echo(f"debt_repaid: {fraction_to_decimal(quote.debt_repaid)}")
    _echo(f"base_collateral: {fraction_to_decimal(quote.base_collateral)}")
    _echo(f"total_collateral: {fraction_to_decimal(quote.total_collateral)}")
    _echo(f"protocol_fee: {fraction_to_decimal(quote.protocol_fee)}")
    _echo(f"liquidator_receives: {fraction_to_decimal(quote.liquidator_receives)}")
    _echo(f"liquidator_profit_usd: {fraction_to_decimal(quote.liquidator_profit_usd)}")


def _stream_events(directory: str, chain: str, event: str):
    """(key, timestamp, event, values, part path) per row of one stream, in file order;
    ``values`` are the fields ``replay`` books, the only ones read. IoFailure names a faulty part."""
    columns = ("block_number", "block_timestamp", "log_index") + REPLAY_FIELDS.get(event, ())
    paths, breaks = stream_parts(directory)
    if breaks:
        raise IoFailure(f"{breaks[0].path}: {breaks[0].detail}")
    for path in paths:
        for row in iter_part_rows(path, chain, event, columns):
            try:
                block, ts, index = int(row[0]), int(row[1]), int(row[2])
            except ValueError as exc:
                raise IoFailure(f"{path}: row key or timestamp: {exc}") from None
            yield (block, index), ts, event, row[3:], path


def _iter_chain_rows_sorted(root: str, chain: str):
    """Merge one chain's event streams into key order, holding one row of each at a time
    (a key two streams share goes on to ``replay``, which refuses it)."""
    streams = [_stream_events(directory, chain, event)
               for name, event, directory in iter_streams(root) if name == chain]
    if not streams:
        raise click.UsageError(f"no shard directory for chain {chain!r} under {root}")
    return merge(*streams)


def _write_csv(path: str, header: str, rows: list[list[str]]) -> None:
    """Write ``rows`` under ``header``, joined by commas: no value holds a comma, quote or
    line break (part values cannot), so this is the CSV ``csv.writer`` would write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


@main.command("replay")
@click.option("--in", "root", required=True, type=click.Path(exists=True))
@click.option("--chain", "chain_name", required=True)
@click.option("--mode", type=click.Choice(["nominal", "indexed"]), default="nominal",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--anomalies", "anomalies_path", type=click.Path(), default=None,
              help="Write the clamped-balance anomalies to this CSV, in key order.")
@click.option("--params", "params_path", type=click.Path(exists=True), default=None,
              help="Asset params; adds a health report per user to stdout.")
def replay_cmd(root, chain_name, mode, out_path, anomalies_path, params_path) -> None:
    """Rebuild user positions from extracted shards for one chain."""
    merged = _iter_chain_rows_sorted(root, chain_name)
    source = [root]  # the part file of the row replay is at

    def rows():
        for key, ts, event, values, path in merged:
            source[0] = path
            yield key, ts, event, values

    try:
        result = replay(rows(), mode=mode)
    except (IoFailure, ValueError, OrderViolation) as exc:
        where = "" if isinstance(exc, IoFailure) else f"{source[0]}: "  # IoFailure names it
        _echo(f"replay aborted: {where}{exc}", err=True)
        sys.exit(EXIT_IO)
    positions = []
    for user in sorted(result.positions):
        position = result.positions[user]
        for asset in sorted(position.collateral):
            positions.append([user, "collateral", asset, str(position.collateral[asset]),
                              "true" if position.is_collateral_enabled(asset) else "false"])
        for asset in sorted(position.debt):
            positions.append([user, "debt", asset, str(position.debt[asset]), ""])
    if out_path:
        _write_csv(out_path, "user,side,asset,amount,enabled", positions)
    else:
        for row in positions:
            _echo("\t".join(row))
    if anomalies_path:
        _write_csv(anomalies_path, "block_number,log_index,user,asset,detail",
                   [[str(a.key[0]), str(a.key[1]), a.user, a.asset, a.detail]
                    for a in result.anomalies])
    if result.anomalies:
        _echo(f"{len(result.anomalies)} anomalies (clamped balances)", err=True)

    if params_path:
        params = _load_asset_params(params_path)
        try:
            reports = [(user, health_factor(result.positions[user], params))
                       for user in sorted(result.positions)]
        except UnknownAsset as exc:
            raise _ConfigFault(f"{params_path}: {exc}") from None
        for user, report in reports:
            h_text = "inf" if report.infinite else fraction_to_decimal(report.health_factor)
            _echo(f"{user}\thealth_factor={h_text}\t"
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
            header = "chain,event,count"
            pairs, errors = analytics.event_counts(root, lenient=lenient)
        elif metric == "new-users":
            registry = _load_registry_or_fail(registry_path)
            header = "chain,day,new_users" if per_chain else "day,new_users"
            pairs, errors = analytics.daily_new_users(root, registry, per_chain=per_chain,
                                                      lenient=lenient)
        else:
            if not price_table_path:
                raise click.UsageError("--price-table is required for deposit-volume")
            try:
                table = analytics.PriceTable.load(price_table_path)
            except ValueError as exc:
                raise _ConfigFault(f"{price_table_path}: {exc}") from None
            header = "chain,deposit_volume_usd"
            pairs, skipped, errors = analytics.deposit_volume(root, table, lenient=lenient)
            if skipped.total_rows:
                _echo(f"skipped {skipped.skipped_rows}/{skipped.total_rows} rows "
                      f"without prices ({len(skipped.by_asset)} assets)", err=True)
    except IoFailure as exc:
        _echo(str(exc), err=True)
        sys.exit(EXIT_IO)
    _write_csv(out_path, header, [[*key, value] for key, value in pairs])
    for error in errors:
        _echo(f"warning: {error}", err=True)


if __name__ == "__main__":
    main()
