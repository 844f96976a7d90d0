"""One cursor walks the block range of a chain, asking every stream's topic0 at once.

Every event the registry names is a log of the chain's Pool that differs only
in topic0, so a chain has one scan: each query asks one block range for the
topic0 of every stream the cursor has reached, and its answer is split by
topic0 into each stream's rows. A stream resumed further on joins at its own
checkpoint: the query before it ends one block short of it, so no block is
asked twice for any stream.

The scan issues its queries batch by batch. A rate limit halves the batch
width and pauses; a streak of successes doubles it. A too-large refusal bounds
the span the provider answers: from then on each wider query goes at most
halfway from the widest span answered to the narrowest refused, so every
refusal at least halves the gap between them. A provider may limit the logs
in an answer rather than its span, and such a limit moves with the density of
the range: a streak whose answers were sparse, next to the densest answer,
grows past the refused span by the factor they were sparser, and a wider span
answered there drops the refused one, while a refused probe holds the provider
to its span. An answer's logs are counted over every topic0 it asks, as one
filter's answer would hold them.

Queries and commits are apart. Answers wait in memory until they cover at
least the plan's batch size in blocks, or reach the end block, so a commit
spans fewer than that plus one query's span. One commit then hands each
stream's ordered logs to its sink, which decodes and flushes them durably, and
only then has each sink save its stream's checkpoint. The scanner knows no file
path. A provider's span limit therefore sets how many queries a scan sends, not
how many commits it makes. An interrupted run resumed from the checkpoints asks
again for the answers it had not committed, and so covers every block of every
stream exactly once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Protocol

from .gateway import ErrorKind, GatewayError, LogQuery
from .registry import ChainConfig, EventSchema
from .sink import Checkpoint

DEFAULT_BATCH_SIZE = 10_000
DEFAULT_BATCH_MAX = 100_000
GROWTH_STREAK = 5  # consecutive clean batches before the size doubles

RATE_LIMIT_PAUSE_S = 2.0
RATE_LIMIT_PAUSE_CAP_S = 60.0
RATE_LIMIT_RETRIES = 12  # pauses in a row, about 8 minutes, before a range is given up


class BatchSink(Protocol):
    """One stream's commit target for the ordered raw logs of answered queries."""

    def commit_batch(self, logs: list) -> None: ...

    def save(self, last_block: int) -> Checkpoint:
        """Save and return the stream's record, every row committed through ``last_block``."""


@dataclass
class ScanPlan:
    """A chain's scan, shared by all its streams."""

    chain: ChainConfig
    end_block: int
    batch_size: int = DEFAULT_BATCH_SIZE
    batch_max: int = DEFAULT_BATCH_MAX


@dataclass
class ScanSummary:
    chain: str
    event: str
    rows_emitted: int = 0  # the stream's rows at its last commit, earlier runs' included
    batches_issued: int = 0  # answered queries that asked the stream's topic0
    resize_events: int = 0  # resizes of the chain's batch while the stream was asked


ProgressFn = Callable[[ScanSummary, int, int], None]


def scan_events(plan: ScanPlan, streams: list[tuple[EventSchema, int, BatchSink]], gateway,
                sleeper: Callable[[float], None] = time.sleep,
                on_progress: ProgressFn | None = None) -> list[ScanSummary]:
    """Scan the streams of one chain, each its (event, cursor, sink), with one
    cursor, as the module docstring says; one summary per stream, in order.
    ``on_progress`` hears of each stream after every commit.

    Each answer is checked for key order across the chain. RateLimited retries
    the same range after a pause, up to RATE_LIMIT_RETRIES pauses in a row;
    ResponseTooLarge retries at the midpoint of the accepted and refused spans
    (half the refused span when none narrower was accepted), up to a
    single-block query. Past either limit, and on terminal (and surfaced
    transient) gateway errors, the scan aborts with every stream's checkpoint
    at its last commit, and the answers since are dropped.
    """
    summaries = [ScanSummary(plan.chain.chain_name, event.event_name)
                 for event, _cursor, _sink in streams]
    if not streams:
        return summaries
    events, cursors, sinks = zip(*streams)
    if not 1 <= plan.batch_size <= plan.batch_max:
        raise ValueError(f"batch_size {plan.batch_size} outside [1, {plan.batch_max}]")
    for event, cursor in zip(events, cursors):
        if not plan.chain.start_block <= cursor <= plan.end_block + 1:
            raise ValueError(f"{event.event_name}: cursor {cursor} outside "
                             f"[{plan.chain.start_block}, {plan.end_block + 1}]")
    if len({event.topic0 for event in events}) < len(events):
        raise ValueError("two streams of one scan ask the same topic0")
    waiting = sorted(range(len(streams)), key=cursors.__getitem__)  # not yet asked
    joined: list[int] = []  # streams asked, in the order they joined
    rows: dict[bytes, list] = {}  # their topic0s, in that order -> logs since the commit

    cursor = committed = cursors[waiting[0]]  # committed: first block past the commit
    batch_size = plan.batch_size
    accepted = 0  # widest span answered below ``refused``, 0 if none
    refused: int | None = None  # narrowest span refused as too large
    # most logs one answer held; a streak whose answers each held under half as
    # many grows past ``refused``. Lowered to that streak's most if refused there
    probe_rows = 0
    probe_refused = False  # a probe past ``refused`` was refused: answers no longer raise it
    streak, streak_rows = 0, 1  # clean batches in a row, and the most logs one held (min 1)
    probe: int | None = None  # streak_rows of the streak whose growth past refused is in flight
    rate_limited = 0  # pauses since the last answered query
    last_key = (-1, -1)

    while cursor <= plan.end_block:
        while waiting and cursors[waiting[0]] == cursor:
            joined.append(i := waiting.pop(0))
            rows[events[i].topic0] = []
        hi = min(cursor + batch_size - 1, plan.end_block)
        if waiting:  # the next stream joins at its own cursor
            hi = min(hi, cursors[waiting[0]] - 1)
        try:
            logs = gateway.get_logs(LogQuery(cursor, hi, plan.chain.pool_address, tuple(rows)))
        except GatewayError as exc:
            if exc.kind is ErrorKind.RATE_LIMITED:
                if rate_limited == RATE_LIMIT_RETRIES:
                    raise GatewayError(ErrorKind.TERMINAL, f"[{cursor}, {hi}] still rate "
                                       f"limited after {RATE_LIMIT_RETRIES} pauses") from exc
                batch_size = max(batch_size // 2, 1)
                for i in joined:
                    summaries[i].resize_events += 1
                streak, streak_rows, probe = 0, 1, None
                sleeper(min(RATE_LIMIT_PAUSE_S * 2 ** rate_limited, RATE_LIMIT_PAUSE_CAP_S))
                rate_limited += 1
                continue
            if exc.kind is ErrorKind.RESPONSE_TOO_LARGE:
                span = hi - cursor + 1
                if span == 1:
                    raise GatewayError(ErrorKind.TERMINAL, f"single-block query "
                                       f"[{cursor}, {hi}] still oversized") from exc
                if probe is not None:  # refused though the answers were sparse
                    probe_rows, probe_refused, probe = probe, True, None
                refused = min(span, refused or span)
                if accepted >= refused:
                    accepted = 0  # refused a span answered elsewhere: halve
                batch_size = (accepted + refused) // 2
                for i in joined:
                    summaries[i].resize_events += 1
                streak, streak_rows = 0, 1
                continue
            raise  # TERMINAL, or TRANSIENT the gateway already gave up on

        for log in logs:
            if log.key <= last_key:
                raise GatewayError(ErrorKind.TERMINAL,
                                   f"gateway returned key {log.key} at or below {last_key}")
            last_key = log.key
            rows[log.topics[0]].append(log)

        for i in joined:
            summaries[i].batches_issued += 1
        accepted = max(accepted, hi - cursor + 1)
        if refused is not None and accepted >= refused:
            # answered a span once refused: no span limit
            refused, probe_refused = None, False
        if not probe_refused:
            probe_rows = max(probe_rows, len(logs))
        probe = None
        cursor = hi + 1
        rate_limited = 0

        if cursor - committed >= plan.batch_size or cursor > plan.end_block:
            committed = cursor
            for i, topic0 in zip(joined, rows):  # every stream durable before any record moves
                sinks[i].commit_batch(rows[topic0])
                rows[topic0] = []
            for i in joined:
                summaries[i].rows_emitted = sinks[i].save(hi).rows_emitted_total
            if on_progress is not None:
                for i in joined:
                    on_progress(summaries[i], cursor, plan.end_block)

        streak += 1
        streak_rows = max(streak_rows, len(logs))
        if streak >= GROWTH_STREAK:
            grown = min(batch_size * 2, plan.batch_max)
            if refused is not None:
                if 2 * streak_rows < probe_rows:  # as dense, twice the span would fit
                    grown = min(batch_size * probe_rows // streak_rows, plan.batch_max)
                    probe = streak_rows
                else:
                    grown = min(grown, (accepted + refused) // 2)
            if grown != batch_size:
                for i in joined:
                    summaries[i].resize_events += 1
                batch_size = grown
            streak, streak_rows = 0, 1

    return summaries
