"""Adaptive batch walker over the (chain, event) block ranges of one chain.

The scanner issues getLogs queries batch by batch. A rate limit halves the
batch width and a streak of successes doubles it. A too-large refusal bounds
the span the provider answers: from then on each wider query goes at most
halfway from the widest span answered to the narrowest refused, so every
refusal at least halves the gap between them. A provider may limit the logs
in an answer rather than its span, and such a limit moves with the density of
the range: a streak whose answers were sparse, next to the densest answer,
grows past the refused span by the factor they were sparser, and a wider span
answered there drops the refused one, while a refused probe holds the provider
to its span. A plan may start from the SpanLimits an earlier scan of the same
chain learned; nothing keeps them longer.

A chain's streams scan in lockstep (``scan_events``). Each stream is a
generator that keeps its own state machine, checkpoint, pending answers and
commits; each round sends the next query of every unfinished stream in one
``get_logs_many`` call, which an HTTP gateway sends as one JSON-RPC batch, so
a provider sees one POST a round, not one a query. The streams share one
SpanLimits. So that they do not all probe the same width together, once the
chain has seen a refusal (or before its first answer) at most one query a
round asks a span wider than the widest answered; the others are narrowed to
it, or wait while there is none. A rate-limited round pauses once.

Queries and commits are apart. Answers wait in memory until they cover at
least the plan's batch size in blocks, or reach the end block; one commit then
hands their ordered logs to the sink, flushes them durably, and only then
persists the checkpoint. A provider's span limit therefore sets how many
queries a scan sends, not how many commits it makes. An interrupted run
resumed from the checkpoint asks again for the answers it had not committed,
and so covers every block exactly once.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
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


class Outcome(enum.Enum):
    SUCCESS_STREAK = "success_streak"
    RATE_LIMITED = "rate_limited"


def resize(batch_size: int, outcome: Outcome, batch_max: int = DEFAULT_BATCH_MAX) -> int:
    """New batch size after ``outcome``: halve on a rate limit, double on a streak."""
    if batch_size < 1:
        raise ValueError(f"batch_size {batch_size} below 1")
    if outcome is Outcome.RATE_LIMITED:
        return max(batch_size // 2, 1)
    return min(batch_size * 2, batch_max)


class BatchSink(Protocol):
    """Commit target for the ordered raw logs of one or more answered queries."""

    def commit_batch(self, logs: list) -> None: ...

    def record(self, last_block: int) -> Checkpoint:
        """The stream's durable record, every row committed through ``last_block``."""


@dataclass
class SpanLimits:
    """What too-large refusals taught about a provider, shared by the event
    scans of a chain."""

    accepted: int = 0  # widest span answered below ``refused``, 0 if none
    refused: int | None = None  # narrowest span refused as too large
    # most logs one answer held; a streak whose answers each held under half as
    # many grows past ``refused``. Lowered to that streak's most if refused there
    probe_rows: int = 0
    # a probe past ``refused`` was refused: answers no longer raise ``probe_rows``
    probe_refused: bool = False


@dataclass
class ScanPlan:
    chain: ChainConfig
    event: EventSchema
    cursor: int
    end_block: int
    batch_size: int = DEFAULT_BATCH_SIZE
    batch_max: int = DEFAULT_BATCH_MAX
    limits: SpanLimits = field(default_factory=SpanLimits)

    def validate(self) -> None:
        if not self.chain.start_block <= self.cursor <= self.end_block + 1:
            raise ValueError(
                f"cursor {self.cursor} outside "
                f"[{self.chain.start_block}, {self.end_block + 1}]"
            )
        if not 1 <= self.batch_size <= self.batch_max:
            raise ValueError(
                f"batch_size {self.batch_size} outside [1, {self.batch_max}]"
            )
        if self.limits.refused is not None and not 0 < self.limits.accepted < self.limits.refused:
            raise ValueError(f"accepted span {self.limits.accepted} outside "
                             f"[1, refused span {self.limits.refused})")


@dataclass
class ScanSummary:
    chain: str
    event: str
    rows_emitted: int = 0  # the stream's rows at its last commit, earlier runs' included
    batches_issued: int = 0
    resize_events: int = 0
    limits: SpanLimits = field(default_factory=SpanLimits)  # the chain's, as the scan left them


ProgressFn = Callable[[ScanSummary, int, int], None]


@dataclass
class StreamScan:
    """One stream's part of a chain's scan: what ``scan_event`` takes besides the gateway."""

    plan: ScanPlan
    sink: BatchSink
    checkpoint_file: str | None = None
    on_progress: ProgressFn | None = None


def scan_event(
    plan: ScanPlan,
    gateway,
    sink: BatchSink,
    checkpoint_file: str | None = None,
    sleeper: Callable[[float], None] = time.sleep,
    on_progress: ProgressFn | None = None,
) -> ScanSummary:
    """Scan one stream: the one-stream case of ``scan_events``."""
    (summary,) = scan_events([StreamScan(plan, sink, checkpoint_file, on_progress)],
                             gateway, sleeper)
    return summary


def scan_events(scans: list[StreamScan], gateway,
                sleeper: Callable[[float], None] = time.sleep) -> list[ScanSummary]:
    """Scan the streams of one chain in lockstep, as the module docstring
    says; one summary per scan, in order. The streams share a copy of the
    first plan's SpanLimits, and each summary carries it; its ``accepted`` is
    the widest span answered. A round pauses once, for the longest pause its
    streams' rate limits ask. The first stream to fail aborts the whole scan;
    every stream's checkpoint stays at its last commit.
    """
    limits = replace(scans[0].plan.limits) if scans else SpanLimits()
    streams = [_scan(scan, limits) for scan in scans]
    summaries: list = [None] * len(streams)
    wishes: dict[int, tuple[int, int, float]] = {}  # stream -> (cursor, last block, pause)

    def step(i: int, answer) -> None:
        try:
            if isinstance(answer, GatewayError):
                wishes[i] = streams[i].throw(answer.with_traceback(None))
            else:
                wishes[i] = streams[i].send(answer)
        except StopIteration as done:
            summaries[i] = done.value
            wishes.pop(i, None)

    for i in range(len(streams)):
        step(i, None)
    refused = limits.refused is not None  # the chain has seen a refusal
    while wishes:
        held = refused or not limits.accepted
        untried_free = True  # no query of this round asks past limits.accepted yet
        sent: list[tuple[int, int]] = []  # (stream, last block)
        for i, (cursor, hi, _pause) in wishes.items():
            if held and hi - cursor + 1 > limits.accepted:
                if untried_free:
                    untried_free = False
                elif limits.accepted:
                    hi = cursor + limits.accepted - 1
                else:
                    continue
            sent.append((i, hi))
        if pause := max(wishes[i][2] for i, _hi in sent):
            sleeper(pause)
        queries = [streams[i].send(hi) for i, hi in sent]
        try:
            answers = gateway.get_logs_many(queries)
        except GatewayError as exc:
            answers = [exc] * len(queries)
        for (i, _hi), answer in zip(sent, answers):
            refused |= (isinstance(answer, GatewayError)
                        and answer.kind is ErrorKind.RESPONSE_TOO_LARGE)
            step(i, answer)
    return summaries


def _scan(scan: StreamScan, limits: SpanLimits):
    """One stream's scan of ``[plan.cursor, plan.end_block]`` as a generator
    driven by ``scan_events``: it yields ``(cursor, last block, pause)`` for
    the query it wants, is sent the last block granted, yields that LogQuery,
    and is sent its logs or thrown its GatewayError; it returns its summary.

    Commits come once per ``plan.batch_size`` blocks answered and at the end
    block. Each answered query is checked for key order and waits for the next
    commit, so a commit spans fewer than ``plan.batch_size`` blocks plus one
    query's span. RateLimited halves the query and asks a pause before
    retrying the same range, up to RATE_LIMIT_RETRIES pauses in a row;
    ResponseTooLarge retries at the midpoint of the accepted and refused spans
    (half the refused span when none narrower was accepted), up to a
    single-block query. Growth stops at that midpoint unless the streak's
    answers were sparse (see SpanLimits). Past either limit, and on terminal
    (and surfaced transient) gateway errors, the scan aborts with the
    checkpoint at the last commit, and the answers since are dropped. A plan
    that knows a refused span starts at its accepted span, and a query that
    ``scan_events`` narrows sets the span the stream goes on from.
    """
    plan = scan.plan
    plan.validate()
    summary = ScanSummary(chain=plan.chain.chain_name, event=plan.event.event_name,
                          limits=limits)

    cursor = plan.cursor
    batch_size = plan.batch_size
    if limits.refused is not None:  # start at the span the provider is known to answer
        batch_size = limits.accepted
    streak, streak_rows = 0, 1  # clean batches in a row, and the most logs one held (min 1)
    probe: int | None = None  # streak_rows of the streak whose growth past refused is in flight
    rate_limited = 0  # pauses since the last answered query
    pause = 0.0  # to wait before the next query
    last_key: tuple[int, int] | None = None
    pending: list = []  # logs answered since the last commit, in key order
    committed = cursor  # first block past the last commit

    while cursor <= plan.end_block:
        wanted = min(cursor + batch_size - 1, plan.end_block)
        hi = yield cursor, wanted, pause
        if hi < wanted:  # narrowed to the span the chain has answered
            batch_size, probe = hi - cursor + 1, None
        pause = 0.0
        try:
            logs = yield LogQuery(
                from_block=cursor,
                to_block=hi,
                address=plan.chain.pool_address,
                topic0=plan.event.topic0,
            )
        except GatewayError as exc:
            if exc.kind is ErrorKind.RATE_LIMITED:
                if rate_limited == RATE_LIMIT_RETRIES:
                    raise GatewayError(ErrorKind.TERMINAL, f"[{cursor}, {hi}] still rate "
                                       f"limited after {RATE_LIMIT_RETRIES} pauses") from exc
                batch_size = resize(batch_size, Outcome.RATE_LIMITED, plan.batch_max)
                summary.resize_events += 1
                streak, streak_rows, probe = 0, 1, None
                pause = min(RATE_LIMIT_PAUSE_S * 2 ** rate_limited, RATE_LIMIT_PAUSE_CAP_S)
                rate_limited += 1
                continue
            if exc.kind is ErrorKind.RESPONSE_TOO_LARGE:
                span = hi - cursor + 1
                if span == 1:
                    raise GatewayError(
                        ErrorKind.TERMINAL,
                        f"single-block query [{cursor}, {hi}] still oversized",
                    ) from exc
                if probe is not None:  # refused though the answers were sparse
                    limits.probe_rows, limits.probe_refused, probe = probe, True, None
                limits.refused = min(span, limits.refused or span)
                if limits.accepted >= limits.refused:
                    limits.accepted = 0  # refused a span answered elsewhere: halve
                batch_size = (limits.accepted + limits.refused) // 2
                summary.resize_events += 1
                streak, streak_rows = 0, 1
                continue
            raise  # TERMINAL, or TRANSIENT the gateway already gave up on

        for log in logs:
            if last_key is not None and log.key <= last_key:
                raise GatewayError(
                    ErrorKind.TERMINAL,
                    f"gateway returned key {log.key} at or below {last_key}",
                )
            last_key = log.key

        pending.extend(logs)
        summary.batches_issued += 1
        limits.accepted = max(limits.accepted, hi - cursor + 1)
        if limits.refused is not None and limits.accepted >= limits.refused:
            # answered a span once refused: no span limit
            limits.refused, limits.probe_refused = None, False
        if not limits.probe_refused:
            limits.probe_rows = max(limits.probe_rows, len(logs))
        probe = None
        cursor = hi + 1
        rate_limited = 0

        if cursor - committed >= plan.batch_size or cursor > plan.end_block:
            scan.sink.commit_batch(pending)
            pending, committed = [], cursor
            record = scan.sink.record(hi)
            summary.rows_emitted = record.rows_emitted_total
            if scan.checkpoint_file is not None:
                record.save(scan.checkpoint_file)
            if scan.on_progress is not None:
                scan.on_progress(summary, cursor, plan.end_block)

        streak += 1
        streak_rows = max(streak_rows, len(logs))
        if streak >= GROWTH_STREAK:
            grown = resize(batch_size, Outcome.SUCCESS_STREAK, plan.batch_max)
            if limits.refused is not None:
                if 2 * streak_rows < limits.probe_rows:  # as dense, twice the span would fit
                    grown = min(batch_size * limits.probe_rows // streak_rows, plan.batch_max)
                    probe = streak_rows
                else:
                    grown = min(grown, (limits.accepted + limits.refused) // 2)
            if grown != batch_size:
                summary.resize_events += 1
                batch_size = grown
            streak, streak_rows = 0, 1

    return summary
