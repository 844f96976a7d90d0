import math
import os
import random
from datetime import datetime, timezone

import pytest

from faults import max_logs_fault, max_span_fault, scripted_faults

from aavescan.gateway import (
    ErrorKind,
    FixtureGateway,
    GatewayError,
    RawLog,
)
from aavescan.registry import ChainConfig, EventField, EventSchema
from aavescan.keccak import keccak256
from aavescan.scanner import (
    GROWTH_STREAK,
    RATE_LIMIT_PAUSE_S,
    RATE_LIMIT_RETRIES,
    Outcome,
    ScanPlan,
    SpanLimits,
    StreamScan,
    resize,
    scan_event,
    scan_events,
)
from aavescan.sink import Checkpoint, DecodingSink, ShardWriter, checkpoint_path

SIG = "MintedToTreasury(address,uint256)"
SCHEMA = EventSchema(
    event_name="MintedToTreasury",
    canonical_signature=SIG,
    topic0=keccak256(SIG.encode()),
    fields=(EventField("reserve", "address", True), EventField("amountMinted", "uint256")),
)
SIG2 = "IsolationModeTotalDebtUpdated(address,uint256)"
SCHEMA2 = EventSchema(
    event_name="IsolationModeTotalDebtUpdated",
    canonical_signature=SIG2,
    topic0=keccak256(SIG2.encode()),
    fields=(EventField("asset", "address", True), EventField("totalDebt", "uint256")),
)
SIG3 = "UserEModeSet(address,uint8)"
SCHEMA3 = EventSchema(
    event_name="UserEModeSet",
    canonical_signature=SIG3,
    topic0=keccak256(SIG3.encode()),
    fields=(EventField("user", "address", True), EventField("categoryId", "uint8")),
)
CHAIN = ChainConfig("testchain", "0x" + "aa" * 20, 0, 10**6, "RPC_URL_TESTCHAIN")


class ListSink:
    def __init__(self):
        self.rows = []

    def commit_batch(self, logs):
        self.rows.extend(logs)

    def record(self, last_block):
        return Checkpoint(CHAIN.chain_name, SCHEMA.event_name, last_block, len(self.rows),
                          1 if self.rows else 0, len(self.rows))


def _corpus(blocks, head=10**6):
    logs = []
    per_block = {}
    for b in blocks:
        idx = per_block.get(b, 0)
        per_block[b] = idx + 1
        logs.append(RawLog(
            address=CHAIN.pool_address,
            topics=[SCHEMA.topic0, bytes(32)],
            data=bytes(32),
            block_number=b,
            transaction_hash=f"0x{b:060x}{idx:04x}",
            log_index=idx,
        ))
    timestamps = {b: 1_700_000_000 + b for b in set(blocks)}
    return logs, timestamps, head


def _gateway(blocks, fault_script=None, head=10**6):
    logs, timestamps, head = _corpus(blocks, head)
    return FixtureGateway(logs, timestamps, head_block=head, fault_script=fault_script)


def _plan(cursor, end, batch, batch_max=100_000, limits=None, event=SCHEMA):
    """A plan; ``limits``, an earlier scan's, start it from what that scan learned."""
    return ScanPlan(chain=CHAIN, event=event, cursor=cursor, end_block=end, batch_size=batch,
                    batch_max=batch_max, limits=limits or SpanLimits())


def committed_ranges(gateway, fault_script=None):
    """(from_block, to_block) of each query ``gateway`` answered, in call order.

    ``gateway.calls`` records faulted queries too. A fault script is
    deterministic in (call index, query), so running it again tells which
    calls it failed; the rest are the ranges a finished scan committed.
    """
    return [(q.from_block, q.to_block) for i, q in enumerate(gateway.calls)
            if fault_script is None or fault_script(i, q) is None]


class TestResize:
    def test_halving(self):
        assert resize(10_000, Outcome.RATE_LIMITED) == 5_000

    def test_floor_clamp(self):
        assert resize(1, Outcome.RATE_LIMITED) == 1

    def test_growth_capped(self):
        assert resize(5_000, Outcome.SUCCESS_STREAK, batch_max=8_000) == 8_000
        assert resize(5_000, Outcome.SUCCESS_STREAK) == 10_000

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            resize(0, Outcome.RATE_LIMITED)


class TestCoverage:
    def test_clean_partition(self):
        gw = _gateway([5, 42, 77])
        sink = ListSink()
        summary = scan_event(_plan(0, 99, 40), gw, sink, sleeper=lambda _s: None)
        assert committed_ranges(gw) == [(0, 39), (40, 79), (80, 99)]
        assert summary.rows_emitted == 3
        assert summary.batches_issued == 3

    def test_too_large_halves_and_covers(self):
        script = max_span_fault(25)
        gw = _gateway([10, 55, 90], fault_script=script)
        sink = ListSink()
        summary = scan_event(_plan(0, 99, 40), gw, sink, sleeper=lambda _s: None)
        assert committed_ranges(gw, script) == [(0, 19), (20, 39), (40, 59), (60, 79), (80, 99)]
        assert summary.rows_emitted == 3
        assert summary.resize_events >= 1

    def test_rate_limit_pauses_and_retries_same_range(self):
        sleeps = []
        script = scripted_faults([ErrorKind.RATE_LIMITED])
        gw = _gateway([7], fault_script=script)
        sink = ListSink()
        summary = scan_event(_plan(0, 9, 10), gw, sink, sleeper=sleeps.append)
        # halved to 5 after the fault, so two ranges cover the span
        assert committed_ranges(gw, script) == [(0, 4), (5, 9)]
        assert sleeps == [2.0]
        assert summary.rows_emitted == 1

    def test_rate_limit_backoff_doubles_up_to_cap(self):
        sleeps = []
        faults = [ErrorKind.RATE_LIMITED] * 7
        gw = _gateway([3], fault_script=scripted_faults(faults))
        sink = ListSink()
        scan_event(_plan(0, 9, 10), gw, sink, sleeper=sleeps.append)
        assert sleeps == [2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0]

    def test_endless_rate_limit_is_terminal_after_its_budget(self, tmp_path):
        sleeps = []

        def script(call_index, _query):
            if call_index > 2 * RATE_LIMIT_RETRIES:
                pytest.fail("the scan never gave the range up")
            return None if call_index == 0 else ErrorKind.RATE_LIMITED

        gw = _gateway([3, 7], fault_script=script)
        cp_file = str(tmp_path / "checkpoint.json")
        with pytest.raises(GatewayError) as excinfo:
            scan_event(_plan(0, 9, 5), gw, ListSink(), checkpoint_file=cp_file,
                       sleeper=sleeps.append)
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert "[5, " in excinfo.value.detail
        assert sleeps == [2.0, 4.0, 8.0, 16.0, 32.0] + [60.0] * (RATE_LIMIT_RETRIES - 5)
        assert len(gw.calls) == 1 + RATE_LIMIT_RETRIES + 1
        checkpoint = Checkpoint.load(cp_file, CHAIN.chain_name, SCHEMA.event_name)
        assert checkpoint.last_completed_block == 4  # the first batch only

    def test_a_commit_renews_the_rate_limit_budget(self):
        sleeps = []
        faults = ([ErrorKind.RATE_LIMITED] * RATE_LIMIT_RETRIES + [None]) * 2
        gw = _gateway([3, 7], fault_script=scripted_faults(faults))
        summary = scan_event(_plan(0, 9, 8), gw, ListSink(), sleeper=sleeps.append)
        assert summary.rows_emitted == 2
        assert len(sleeps) == 2 * RATE_LIMIT_RETRIES

    def test_too_large_at_single_block_is_terminal(self):
        gw = _gateway([3], fault_script=max_span_fault(0))
        with pytest.raises(GatewayError) as excinfo:
            scan_event(_plan(0, 9, 1), gw, ListSink(), sleeper=lambda _s: None)
        assert excinfo.value.kind is ErrorKind.TERMINAL

    def test_terminal_error_aborts(self):
        gw = _gateway([3], fault_script=scripted_faults([None, ErrorKind.TERMINAL]))
        sink = ListSink()
        with pytest.raises(GatewayError):
            scan_event(_plan(0, 9, 5), gw, sink, sleeper=lambda _s: None)
        assert len(sink.rows) == 1  # first batch committed before the abort

    def test_growth_after_streak(self):
        gw = _gateway([])
        sink = ListSink()
        scan_event(_plan(0, 99, 10, batch_max=40), gw, sink, sleeper=lambda _s: None)
        widths = [hi - lo + 1 for lo, hi in committed_ranges(gw)]
        # five clean batches of 10 trigger a doubling to 20
        assert widths == [10, 10, 10, 10, 10, 20, 20, 10]

    def test_empty_plan_is_noop(self):
        gw = _gateway([1])
        summary = scan_event(_plan(10, 9, 5), gw, ListSink(), sleeper=lambda _s: None)
        assert summary.batches_issued == 0
        assert committed_ranges(gw) == []


def test_randomized_fault_scripts_partition_exactly():
    for seed in range(60):
        rng = random.Random(seed)
        limits = SpanLimits()
        for plan_index in range(2):  # the second plan starts from what the first learned
            start = rng.randrange(0, 50)
            end = start + rng.randrange(0, 400)
            blocks = sorted(rng.randrange(start, end + 1) for _ in range(rng.randrange(0, 60)))
            faults = [
                rng.choice([None, None, None, ErrorKind.RATE_LIMITED,
                            ErrorKind.RESPONSE_TOO_LARGE])
                for _ in range(rng.randrange(0, 30))
            ]
            script = scripted_faults(faults)
            gw = _gateway(blocks, fault_script=script)
            sink = ListSink()
            plan = _plan(start, end, rng.choice([1, 3, 8, 32]), batch_max=64, limits=limits)
            try:
                summary = scan_event(plan, gw, sink, sleeper=lambda _s: None)
            except GatewayError as exc:
                # only the shrink-below-one-block dead end may abort
                assert "oversized" in exc.detail
                break
            where = f"seed {seed}, plan {plan_index}"
            covered = []
            for lo, hi in committed_ranges(gw, script):
                covered.extend(range(lo, hi + 1))
            assert covered == list(range(start, end + 1)), where
            keys = [log.key for log in sink.rows]
            assert keys == sorted(set(keys)), where
            assert summary.rows_emitted == len(blocks), where
            limits = summary.limits


def _refusals(gateway, summary):
    return len(gateway.calls) - summary.batches_issued


class TestLearnedSpans:
    def test_the_next_event_starts_at_the_learned_span(self):
        script = max_span_fault(25)
        first_gw = _gateway(range(0, 300, 7), fault_script=script)
        first = scan_event(_plan(0, 299, 100), first_gw, ListSink(), sleeper=lambda _s: None)
        assert (first.limits.accepted, first.limits.refused) == (25, 26)
        assert _refusals(first_gw, first) > 0

        second_gw = _gateway(range(0, 300, 7), fault_script=script)  # as dense as the first
        second = scan_event(_plan(0, 299, 100, limits=first.limits), second_gw, ListSink(),
                            sleeper=lambda _s: None)
        assert _refusals(second_gw, second) == 0
        assert committed_ranges(second_gw) == [(lo, lo + 24) for lo in range(0, 300, 25)]
        assert (second.limits.accepted, second.limits.refused) == (25, 26)

    def test_refusals_per_scan_stay_within_the_halving_budget(self):
        """The live-stub shape: a 2,000-block limit, --batch 10,000, 13 scans of a
        24,000-block window. Halving alone costs ceil(log2(batch / limit)) refusals."""
        batch, limit = 10_000, 2_000
        budget = math.ceil(math.log2(batch / limit)) + 2
        limits = SpanLimits()
        per_scan = []
        for _ in range(13):
            gw = _gateway([], fault_script=max_span_fault(limit))
            summary = scan_event(_plan(1_000, 24_999, batch, limits=limits), gw, ListSink(),
                                 sleeper=lambda _s: None)
            per_scan.append(_refusals(gw, summary))
            limits = summary.limits
        assert max(per_scan) <= budget, per_scan
        assert (limits.accepted, limits.refused) == (limit, limit + 1)

    @pytest.mark.parametrize("batch, limit", [(10_000, 2_000), (10_000, 7), (100, 25), (64, 5)])
    def test_each_refusal_halves_the_gap(self, batch, limit):
        """Every query wider than the accepted span goes at most halfway to the refused
        span, so a chain of scans is refused at most 1 + floor(log2(batch)) times."""
        limits = SpanLimits()
        refusals = 0
        for _ in range(6):
            gw = _gateway([], fault_script=max_span_fault(limit))
            summary = scan_event(_plan(0, 49 * limit, batch, limits=limits), gw, ListSink(),
                                 sleeper=lambda _s: None)
            refusals += _refusals(gw, summary)
            limits = summary.limits
        assert refusals <= 1 + math.floor(math.log2(batch)), refusals
        assert (limits.accepted, limits.refused) == (limit, limit + 1)

    def test_a_result_count_limit_lets_a_sparse_range_grow_again(self):
        """A provider that refuses answers of more than 50 logs refuses narrow spans over
        a dense range only; the sparse range beyond it grows past the refused span."""
        blocks = list(range(1_000)) + list(range(1_000, 100_000, 1_000))
        gw = _gateway(blocks, fault_script=max_logs_fault(blocks, 50))
        sink = ListSink()
        summary = scan_event(_plan(0, 99_999, 10_000), gw, sink, sleeper=lambda _s: None)
        assert summary.rows_emitted == len(blocks)
        assert summary.limits.refused is None  # a sparse span answered what a dense one refused
        assert summary.batches_issued < 100  # spans held under 51 blocks would take 2,000

    def test_a_dense_event_does_not_hold_a_sparse_one_to_its_span(self):
        """Under a limit of 500 logs an answer, a dense event learns a 500-block span.
        The sparse event after it grows past that span after one streak, and so takes
        at most GROWTH_STREAK batches more than a scan that starts at --batch."""
        dense, sparse = list(range(24_000)), list(range(0, 24_000, 1_000))
        first_gw = _gateway(dense, fault_script=max_logs_fault(dense, 500))
        first = scan_event(_plan(0, 23_999, 10_000), first_gw, ListSink(),
                           sleeper=lambda _s: None)
        assert (first.limits.accepted, first.limits.refused) == (500, 501)

        fresh = scan_event(_plan(0, 23_999, 10_000),
                           _gateway(sparse, fault_script=max_logs_fault(sparse, 500)),
                           ListSink(), sleeper=lambda _s: None)
        second_gw = _gateway(sparse, fault_script=max_logs_fault(sparse, 500))
        second = scan_event(_plan(0, 23_999, 10_000, limits=first.limits),
                            second_gw, ListSink(), sleeper=lambda _s: None)
        assert _refusals(second_gw, second) == 0
        assert second.limits.refused is None
        assert second.batches_issued <= fresh.batches_issued + GROWTH_STREAK, (
            second.batches_issued, fresh.batches_issued)

    def test_a_refused_probe_is_not_repeated_at_the_same_density(self):
        """A span limit refuses the probe a sparse event makes; the refusal lowers the
        logs a later probe must undercut, so an event as sparse probes no more."""
        script = max_span_fault(25)
        limits = SpanLimits()
        refusals = []
        for blocks in (range(300), range(0, 300, 7), range(0, 300, 7)):
            gw = _gateway(blocks, fault_script=script)
            summary = scan_event(_plan(0, 299, 100, limits=limits), gw, ListSink(),
                                 sleeper=lambda _s: None)
            refusals.append(_refusals(gw, summary))
            limits = summary.limits
        assert refusals[1:] == [1, 0]
        assert (limits.accepted, limits.refused) == (25, 26)

    def test_a_refused_probe_holds_later_sparse_events_to_the_span(self):
        """Once a probe past the refused span is refused, a denser event in between
        does not raise the logs a probe must undercut, so the next sparse event
        sends no refused query."""
        script = max_span_fault(25)
        limits = SpanLimits()
        refusals = []
        for blocks in (range(300), range(0, 300, 7), range(300), range(0, 300, 7)):
            gw = _gateway(blocks, fault_script=script)
            summary = scan_event(_plan(0, 299, 100, limits=limits), gw, ListSink(),
                                 sleeper=lambda _s: None)
            refusals.append(_refusals(gw, summary))
            limits = summary.limits
        assert refusals[1:] == [1, 0, 0]
        assert limits.probe_refused

    def test_a_span_once_refused_and_then_answered_forgets_the_refused_probe(self):
        """Answering past the refused span shows a limit on results, not span, so
        answers raise the logs a probe must undercut again."""
        limits = SpanLimits(accepted=25, refused=26, probe_rows=4, probe_refused=True)
        summary = scan_event(_plan(0, 299, 100, limits=limits), _gateway(range(0, 300, 50)),
                             ListSink(), sleeper=lambda _s: None)
        assert summary.limits.refused is None
        assert not summary.limits.probe_refused

    def test_a_rate_limit_teaches_no_span(self):
        script = scripted_faults([ErrorKind.RATE_LIMITED])
        gw = _gateway([7], fault_script=script)
        summary = scan_event(_plan(0, 99, 40), gw, ListSink(), sleeper=lambda _s: None)
        assert summary.limits.refused is None
        assert summary.limits.accepted == 20  # the halved batch, answered

        gw = _gateway([7])
        scan_event(_plan(0, 99, 40, limits=summary.limits), gw, ListSink(),
                   sleeper=lambda _s: None)
        assert committed_ranges(gw)[0] == (0, 39)  # the next scan starts at --batch again

    def test_learned_spans_must_bracket_an_answered_span(self):
        for accepted, refused in [(0, 10), (10, 10), (11, 10)]:
            plan = _plan(0, 99, 5, limits=SpanLimits(accepted, refused))
            with pytest.raises(ValueError):
                plan.validate()


class CountingSink(ListSink):
    def __init__(self):
        super().__init__()
        self.commits = []  # logs handed over per commit

    def commit_batch(self, logs):
        self.commits.append(len(logs))
        super().commit_batch(logs)


class TestGroupCommit:
    """Answers commit once per ``batch_size`` blocks, whatever span the provider allows."""

    def test_a_span_limit_sets_the_queries_not_the_commits(self, tmp_path, monkeypatch):
        saves = []
        save = Checkpoint.save
        monkeypatch.setattr(Checkpoint, "save",
                            lambda self, path: (saves.append(self.last_completed_block),
                                                save(self, path))[1])
        script = max_span_fault(2_000)
        gw = _gateway(range(0, 24_000, 50), fault_script=script)
        sink = CountingSink()
        summary = scan_event(_plan(0, 23_999, 10_000), gw, sink,
                             checkpoint_file=str(tmp_path / "checkpoint.json"),
                             sleeper=lambda _s: None)
        # the queries of a scan that committed each answer
        assert [(q.from_block, q.to_block) for q in gw.calls] == [
            (0, 9999), (0, 4999), (0, 2499), (0, 1249), (1250, 2499), (2500, 3749),
            (3750, 4999), (5000, 6249), (6250, 8124), (8125, 9999), (10000, 11874),
            (11875, 13749), (13750, 15624), (15625, 17811), (15625, 17655), (15625, 17577),
            (17578, 19530), (19531, 21483), (21484, 23436), (23437, 23999)]
        assert summary.batches_issued == 15  # answered queries
        assert saves == [9999, 21483, 23999]
        assert sink.commits == [200, 230, 50]
        assert summary.rows_emitted == 480

    def test_commits_span_at_least_the_batch_and_less_than_one_query_more(self):
        for seed in range(40):
            rng = random.Random(seed)
            end = rng.randrange(100, 2_000)
            batch, batch_max = rng.choice([(1, 8), (16, 64), (50, 50), (100, 400)])
            rate_limits = scripted_faults(rng.choice([None, None, ErrorKind.RATE_LIMITED])
                                          for _ in range(rng.randrange(0, 40)))
            span = max_span_fault(rng.randrange(1, 2 * batch_max))
            ends = []
            scan_event(_plan(0, end, batch, batch_max=batch_max),
                       _gateway(sorted(rng.randrange(0, end + 1) for _ in range(50)),
                                fault_script=lambda i, q: rate_limits(i, q) or span(i, q)),
                       ListSink(), sleeper=lambda _s: None,
                       on_progress=lambda _summary, cursor, _end: ends.append(cursor))
            assert ends[-1] == end + 1, seed
            spans = [b - a for a, b in zip([0] + ends, ends)]
            assert all(batch <= span < batch + batch_max for span in spans[:-1]), (seed, spans)

    def test_a_crash_inside_a_commit_loses_only_its_answers(self, tmp_path):
        """A terminal error between two queries of one commit leaves the checkpoint and
        the open part at the last commit; the resumed scan asks each later block once
        and ends with the files of a scan never interrupted."""
        clock = lambda: datetime(2026, 1, 1, tzinfo=timezone.utc)  # noqa: E731
        blocks, span = range(0, 24_000, 50), max_span_fault(2_000)

        def extract(out, script, cursor=0, checkpoint=None):
            if checkpoint is None:
                writer = ShardWriter(str(out), CHAIN.chain_name, SCHEMA, clock=clock,
                                     row_limit=150)
            else:
                writer = ShardWriter.resume(str(out), CHAIN.chain_name, SCHEMA, checkpoint,
                                            clock=clock, row_limit=150)
            gw = _gateway(blocks, fault_script=script)
            scan_event(_plan(cursor, 23_999, 10_000), gw,
                       DecodingSink(writer, SCHEMA, CHAIN.chain_name),
                       checkpoint_file=checkpoint_path(str(out), CHAIN.chain_name,
                                                       SCHEMA.event_name),
                       sleeper=lambda _s: None)
            writer.finalize(23_999)
            return gw

        def files(out):
            stream = out / CHAIN.chain_name / SCHEMA.event_name
            return {name: (stream / name).read_bytes() for name in os.listdir(stream)}

        extract(tmp_path / "whole", span)

        def crash(call_index, query):  # two answered queries into the second commit
            if query.from_block == 13_750:
                return ErrorKind.TERMINAL
            return span(call_index, query)

        out = tmp_path / "crashed"
        with pytest.raises(GatewayError):
            extract(out, crash)
        checkpoint = Checkpoint.load(checkpoint_path(str(out), CHAIN.chain_name,
                                                     SCHEMA.event_name),
                                     CHAIN.chain_name, SCHEMA.event_name)
        assert (checkpoint.last_completed_block, checkpoint.rows_emitted_total) == (9_999, 200)
        assert (checkpoint.current_part_number, checkpoint.rows_in_current_part) == (2, 50)
        open_part = files(out)[".part002.open.csv"]
        assert open_part.count(b"\n") == 1 + 50  # the header and the committed rows

        resumed = extract(out, span, cursor=10_000, checkpoint=checkpoint)
        covered = [b for lo, hi in committed_ranges(resumed, span) for b in range(lo, hi + 1)]
        assert covered == list(range(10_000, 24_000))
        assert files(out) == files(tmp_path / "whole")


class RoundLog:
    """A gateway that records each round as (query, answer) pairs; a round whose
    number (from 1) is in ``fail`` raises that ErrorKind for the whole round."""

    def __init__(self, gateway, fail=None):
        self.gateway = gateway
        self.fail = fail or {}
        self.rounds = []

    def get_logs_many(self, queries):
        kind = self.fail.get(len(self.rounds) + 1)
        answers = ([GatewayError(kind, "round refused")] * len(queries) if kind
                   else self.gateway.get_logs_many(queries))
        self.rounds.append(list(zip(queries, answers)))
        if kind:
            raise answers[0]
        return answers


def _events_gateway(blocks_by_event, fault_script=None):
    """A FixtureGateway with one log of each (schema, blocks) pair's event per block."""
    logs, timestamps = [], {}
    for schema, blocks in blocks_by_event:
        for b in blocks:
            logs.append(RawLog(CHAIN.pool_address, [schema.topic0, bytes(32)], bytes(32), b,
                               f"0x{b:060x}{len(logs):04x}", len(logs)))
            timestamps[b] = 1_700_000_000 + b
    return FixtureGateway(logs, timestamps, head_block=10**6, fault_script=fault_script)


class TestLockstep:
    """A chain's streams scan together, one round of queries at a time."""

    def test_streams_cover_their_ranges_once_with_one_untried_span_a_round(self):
        dense, medium, sparse = range(0, 30_000, 7), range(3, 30_000, 40), range(11, 30_000, 900)
        gw = RoundLog(_events_gateway([(SCHEMA, dense), (SCHEMA2, medium), (SCHEMA3, sparse)],
                                      fault_script=max_span_fault(700)))
        plans = [_plan(0, 29_999, 4_000),
                 _plan(12_345, 29_999, 4_000, event=SCHEMA2),  # resumed further on
                 _plan(0, 29_999, 4_000, event=SCHEMA3)]
        sinks = [ListSink() for _ in plans]
        summaries = scan_events([StreamScan(plan, sink) for plan, sink in zip(plans, sinks)],
                                gw, sleeper=lambda _s: None)
        for plan, sink, blocks in zip(plans, sinks, (dense, medium, sparse)):
            answered = [(q.from_block, q.to_block) for queries in gw.rounds for q, answer in queries
                        if q.topic0 == plan.event.topic0 and not isinstance(answer, GatewayError)]
            covered = [b for lo, hi in answered for b in range(lo, hi + 1)]
            assert covered == list(range(plan.cursor, plan.end_block + 1)), plan.event
            assert [log.block_number for log in sink.rows] == [b for b in blocks
                                                               if b >= plan.cursor]
        widest = 0  # the widest span answered before the round
        for queries in gw.rounds:
            assert sum(q.to_block - q.from_block + 1 > widest for q, _answer in queries) <= 1
            widest = max([widest] + [q.to_block - q.from_block + 1 for q, answer in queries
                                     if not isinstance(answer, GatewayError)])
        assert max(len(queries) for queries in gw.rounds) == 3
        assert len(gw.rounds) < sum(summary.batches_issued for summary in summaries)
        assert all(summary.limits is summaries[0].limits for summary in summaries)

    @pytest.mark.parametrize("whole_round", [False, True])
    def test_a_rate_limited_round_pauses_once(self, whole_round):
        # the first round asks one query; each of the second round's three is rate limited
        script = scripted_faults([None] + [ErrorKind.RATE_LIMITED] * 3 * (not whole_round))
        gw = RoundLog(_events_gateway([(SCHEMA, range(0, 100, 3)), (SCHEMA2, range(1, 100, 5)),
                                       (SCHEMA3, range(2, 100, 7))], fault_script=script),
                      fail={2: ErrorKind.RATE_LIMITED} if whole_round else None)
        sleeps = []
        plans = [_plan(0, 99, 20, event=event) for event in (SCHEMA, SCHEMA2, SCHEMA3)]
        sinks = [ListSink() for _ in plans]
        scan_events([StreamScan(plan, sink) for plan, sink in zip(plans, sinks)], gw,
                    sleeper=sleeps.append)
        assert [len(queries) for queries in gw.rounds[:3]] == [1, 3, 3]
        assert [(q.from_block, q.to_block) for q, _answer in gw.rounds[2]] == [
            (20, 29), (0, 9), (0, 9)]  # each stream halved its query
        assert sleeps == [RATE_LIMIT_PAUSE_S]
        assert [len(sink.rows) for sink in sinks] == [34, 20, 14]


def test_checkpoint_persisted_per_batch(tmp_path):
    gw = _gateway([5, 42, 77])
    sink = ListSink()
    cp_file = str(tmp_path / "checkpoint.json")
    seen = []

    def watch(summary, scanned_to, end):
        checkpoint = Checkpoint.load(cp_file, CHAIN.chain_name, SCHEMA.event_name)
        seen.append(checkpoint.last_completed_block)

    scan_event(_plan(0, 99, 40), gw, sink, checkpoint_file=cp_file,
               sleeper=lambda _s: None, on_progress=watch)
    assert seen == [39, 79, 99]
    assert seen == sorted(seen)  # never decreases
    final = Checkpoint.load(cp_file, CHAIN.chain_name, SCHEMA.event_name)
    assert final.last_completed_block == 99
    assert final.rows_emitted_total == 3
    assert final.chain == "testchain"


def test_sequential_event_discipline():
    gw = _gateway([10, 20, 30])
    scan_event(_plan(0, 99, 25), gw, ListSink(), sleeper=lambda _s: None)
    scan_event(ScanPlan(chain=CHAIN, event=SCHEMA2, cursor=0, end_block=99,
                        batch_size=25), gw, ListSink(), sleeper=lambda _s: None)
    topics = [q.topic0 for q in gw.calls]
    flip_points = sum(
        1 for i in range(1, len(topics)) if topics[i] != topics[i - 1]
    )
    assert flip_points == 1  # all queries for event one strictly precede event two


def test_plan_validation():
    with pytest.raises(ValueError):
        _plan(0, 99, 0).validate()
    with pytest.raises(ValueError):
        ScanPlan(chain=CHAIN, event=SCHEMA, cursor=CHAIN.start_block - 1,
                 end_block=99).validate()
