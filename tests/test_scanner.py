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
    ScanPlan,
    scan_events,
)
from aavescan.sink import Checkpoint, ShardWriter, checkpoint_path

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
    """Keeps the logs committed to it; with ``path``, saves each record there."""

    def __init__(self, path=None):
        self.rows = []
        self.path = path

    def commit_batch(self, logs):
        self.rows.extend(logs)

    def save(self, last_block):
        record = Checkpoint(CHAIN.chain_name, SCHEMA.event_name, last_block, len(self.rows),
                            1 if self.rows else 0, len(self.rows))
        if self.path is not None:
            record.save(self.path)
        return record


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


def _plan(end, batch, batch_max=100_000):
    return ScanPlan(chain=CHAIN, end_block=end, batch_size=batch, batch_max=batch_max)


def scan_one(plan, gateway, sink, cursor=0, event=SCHEMA, sleeper=lambda _s: None,
             on_progress=None):
    """The one-stream scan: ``scan_events`` of one stream from ``cursor``, its summary."""
    (summary,) = scan_events(plan, [(event, cursor, sink)], gateway, sleeper, on_progress)
    return summary


def committed_ranges(gateway, fault_script=None):
    """(from_block, to_block) of each query ``gateway`` answered, in call order.

    ``gateway.calls`` records faulted queries too. A fault script is
    deterministic in (call index, query), so running it again tells which
    calls it failed; the rest are the ranges a finished scan committed.
    """
    return [(q.from_block, q.to_block) for i, q in enumerate(gateway.calls)
            if fault_script is None or fault_script(i, q) is None]


class TestResize:
    """A rate limit halves the chain's span, down to one block; a streak of clean
    batches doubles it, up to ``batch_max``."""

    def test_halving(self):
        gw = _gateway([], fault_script=scripted_faults([ErrorKind.RATE_LIMITED]))
        scan_one(_plan(9_999, 10_000), gw, ListSink())
        assert _spans(gw.calls[:2]) == [10_000, 5_000]

    def test_floor_clamp(self):
        gw = _gateway([], fault_script=scripted_faults([ErrorKind.RATE_LIMITED] * 2))
        scan_one(_plan(9, 1), gw, ListSink())
        assert _spans(gw.calls[:3]) == [1, 1, 1]

    def test_growth_capped(self):
        gw = _gateway([])
        scan_one(_plan(99_999, 5_000, batch_max=8_000), gw, ListSink())
        assert max(_spans(gw.calls)) == 8_000
        gw = _gateway([])
        scan_one(_plan(99_999, 5_000), gw, ListSink())
        assert _spans(gw.calls)[GROWTH_STREAK] == 10_000

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            scan_one(_plan(99, 0), _gateway([]), ListSink())


class TestCoverage:
    def test_clean_partition(self):
        gw = _gateway([5, 42, 77])
        sink = ListSink()
        summary = scan_one(_plan(99, 40), gw, sink, sleeper=lambda _s: None)
        assert committed_ranges(gw) == [(0, 39), (40, 79), (80, 99)]
        assert summary.rows_emitted == 3
        assert summary.batches_issued == 3

    def test_too_large_halves_and_covers(self):
        script = max_span_fault(25)
        gw = _gateway([10, 55, 90], fault_script=script)
        sink = ListSink()
        summary = scan_one(_plan(99, 40), gw, sink, sleeper=lambda _s: None)
        assert committed_ranges(gw, script) == [(0, 19), (20, 39), (40, 59), (60, 79), (80, 99)]
        assert summary.rows_emitted == 3
        assert summary.resize_events >= 1

    def test_rate_limit_pauses_and_retries_same_range(self):
        sleeps = []
        script = scripted_faults([ErrorKind.RATE_LIMITED])
        gw = _gateway([7], fault_script=script)
        sink = ListSink()
        summary = scan_one(_plan(9, 10), gw, sink, sleeper=sleeps.append)
        # halved to 5 after the fault, so two ranges cover the span
        assert committed_ranges(gw, script) == [(0, 4), (5, 9)]
        assert sleeps == [2.0]
        assert summary.rows_emitted == 1

    def test_rate_limit_backoff_doubles_up_to_cap(self):
        sleeps = []
        faults = [ErrorKind.RATE_LIMITED] * 7
        gw = _gateway([3], fault_script=scripted_faults(faults))
        sink = ListSink()
        scan_one(_plan(9, 10), gw, sink, sleeper=sleeps.append)
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
            scan_one(_plan(9, 5), gw, ListSink(cp_file), sleeper=sleeps.append)
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
        summary = scan_one(_plan(9, 8), gw, ListSink(), sleeper=sleeps.append)
        assert summary.rows_emitted == 2
        assert len(sleeps) == 2 * RATE_LIMIT_RETRIES

    def test_too_large_at_single_block_is_terminal(self):
        gw = _gateway([3], fault_script=max_span_fault(0))
        with pytest.raises(GatewayError) as excinfo:
            scan_one(_plan(9, 1), gw, ListSink(), sleeper=lambda _s: None)
        assert excinfo.value.kind is ErrorKind.TERMINAL

    def test_terminal_error_aborts(self):
        gw = _gateway([3], fault_script=scripted_faults([None, ErrorKind.TERMINAL]))
        sink = ListSink()
        with pytest.raises(GatewayError):
            scan_one(_plan(9, 5), gw, sink, sleeper=lambda _s: None)
        assert len(sink.rows) == 1  # first batch committed before the abort

    def test_growth_after_streak(self):
        gw = _gateway([])
        sink = ListSink()
        scan_one(_plan(99, 10, batch_max=40), gw, sink, sleeper=lambda _s: None)
        widths = [hi - lo + 1 for lo, hi in committed_ranges(gw)]
        # five clean batches of 10 trigger a doubling to 20
        assert widths == [10, 10, 10, 10, 10, 20, 20, 10]

    def test_empty_plan_is_noop(self):
        gw = _gateway([1])
        summary = scan_one(_plan(9, 5), gw, ListSink(), cursor=10, sleeper=lambda _s: None)
        assert summary.batches_issued == 0
        assert committed_ranges(gw) == []


def test_randomized_fault_scripts_partition_exactly():
    """Two streams, the second resumed further on, under random faults: each
    stream's topic0 is answered over its range exactly once, and its sink gets
    its own rows in key order."""
    for seed in range(60):
        rng = random.Random(seed)
        start = rng.randrange(0, 50)
        end = start + rng.randrange(0, 400)
        joins = rng.randrange(start, end + 2)  # the second stream's cursor
        blocks = [sorted(rng.randrange(start, end + 1) for _ in range(rng.randrange(0, 60)))
                  for _schema in (SCHEMA, SCHEMA2)]
        faults = [
            rng.choice([None, None, None, ErrorKind.RATE_LIMITED,
                        ErrorKind.RESPONSE_TOO_LARGE])
            for _ in range(rng.randrange(0, 30))
        ]
        script = scripted_faults(faults)
        gw = _events_gateway(zip((SCHEMA, SCHEMA2), blocks), fault_script=script)
        batch = rng.choice([1, 3, 8, 32])
        streams = [(SCHEMA, start, ListSink()), (SCHEMA2, joins, ListSink())]
        try:
            summaries = scan_events(_plan(end, batch, batch_max=64), streams, gw,
                                    sleeper=lambda _s: None)
        except GatewayError as exc:
            # only the shrink-below-one-block dead end may abort
            assert "oversized" in exc.detail
            continue
        for (event, cursor, sink), summary, stream_blocks in zip(streams, summaries, blocks):
            where = f"seed {seed}, {event.event_name}"
            assert _covered(gw, event, script) == list(range(cursor, end + 1)), where
            assert [log.block_number for log in sink.rows] == [
                b for b in stream_blocks if b >= cursor], where
            keys = [log.key for log in sink.rows]
            assert keys == sorted(set(keys)), where
            assert summary.rows_emitted == len(sink.rows), where


def _covered(gateway, event, fault_script=None):
    """Every block of each answered query that asked ``event``, in call order."""
    return [b for i, q in enumerate(gateway.calls) if event.topic0 in q.topics
            and (fault_script is None or fault_script(i, q) is None)
            for b in range(q.from_block, q.to_block + 1)]


def _refused(gateway, fault_script):
    """The queries ``fault_script`` refused as too large."""
    return [q for i, q in enumerate(gateway.calls)
            if fault_script(i, q) is ErrorKind.RESPONSE_TOO_LARGE]


def _spans(queries):
    return [q.to_block - q.from_block + 1 for q in queries]


class TestLearnedSpans:
    def test_refusals_stay_within_the_halving_budget(self):
        """The live-stub shape: a 2,000-block limit, --batch 10,000, 13 streams of a
        24,000-block window in one scan. Halving alone costs ceil(log2(batch / limit))
        refusals, and every stream is asked in every query."""
        batch, limit = 10_000, 2_000
        budget = math.ceil(math.log2(batch / limit)) + 2
        events = [EventSchema(f"Event{n}", f"Event{n}(uint256)",
                              keccak256(f"Event{n}(uint256)".encode()), SCHEMA.fields)
                  for n in range(13)]
        script = max_span_fault(limit)
        gw = _events_gateway([(event, range(1_000 + n, 25_000, 97))
                              for n, event in enumerate(events)], fault_script=script)
        sinks = [ListSink() for _event in events]
        summaries = scan_events(_plan(24_999, batch), [(event, 1_000, sink) for event, sink
                                                       in zip(events, sinks)],
                                gw, sleeper=lambda _s: None)
        assert len(_refused(gw, script)) <= budget
        assert {len(q.topics) for q in gw.calls} == {13}
        assert all(len(sink.rows) == len(range(1_000 + n, 25_000, 97))
                   for n, sink in enumerate(sinks))
        assert len({summary.batches_issued for summary in summaries}) == 1

    @pytest.mark.parametrize("batch, limit", [(10_000, 2_000), (10_000, 7), (100, 25), (64, 5)])
    def test_each_refusal_halves_the_gap(self, batch, limit):
        """Every query wider than the accepted span goes at most halfway to the refused
        span, so a scan is refused at most 1 + floor(log2(batch)) times."""
        script = max_span_fault(limit)
        gw = _gateway([], fault_script=script)
        scan_one(_plan(6 * 49 * limit, batch), gw, ListSink())
        assert len(_refused(gw, script)) <= 1 + math.floor(math.log2(batch))
        assert min(_spans(_refused(gw, script))) == limit + 1

    def test_a_result_count_limit_lets_a_sparse_range_grow_again(self):
        """A provider that refuses answers of more than 50 logs refuses narrow spans over
        a dense range only; the sparse range beyond it grows past the refused span."""
        blocks = list(range(1_000)) + list(range(1_000, 100_000, 1_000))
        script = max_logs_fault(blocks, 50)
        gw = _gateway(blocks, fault_script=script)
        sink = ListSink()
        summary = scan_one(_plan(99_999, 10_000), gw, sink)
        assert summary.rows_emitted == len(blocks)
        # a sparse span answered what a dense one refused
        assert max(_spans(gw.calls[-5:])) > min(_spans(_refused(gw, script)))
        assert summary.batches_issued < 100  # spans held under 51 blocks would take 2,000

    @staticmethod
    def _refusals_per_section(dense):
        """Refused queries per 300-block section of one scan of two streams under a
        25-block span limit: a dense stream has a log in every block of the sections
        ``dense`` marks, a sparse one in every 7th block of the others."""
        script = max_span_fault(25)
        sections = range(len(dense))
        gw = _events_gateway(
            [(SCHEMA, [b for n in sections if dense[n] for b in range(300 * n, 300 * n + 300)]),
             (SCHEMA2, [b for n in sections if not dense[n]
                        for b in range(300 * n, 300 * n + 300, 7)])], fault_script=script)
        end = 300 * len(dense) - 1
        scan_events(_plan(end, 100), [(SCHEMA, 0, ListSink()), (SCHEMA2, 0, ListSink())],
                    gw, sleeper=lambda _s: None)
        refused = [q.from_block // 300 for q in _refused(gw, script)]
        return [refused.count(n) for n in sections]

    def test_a_refused_probe_is_not_repeated_at_the_same_density(self):
        """A dense stream teaches the span; the sparse stream after it probes past it
        once, and that refusal lowers the logs a later probe must undercut, so the
        sparse range after it probes no more. A probe counts the rows of every topic0
        an answer holds."""
        assert self._refusals_per_section([True, False, False])[1:] == [1, 0]

    def test_a_refused_probe_holds_later_sparse_events_to_the_span(self):
        """Once a probe past the refused span is refused, a dense range in between
        does not raise the logs a probe must undercut, so the next sparse range sends
        no refused query."""
        assert self._refusals_per_section([True, False, True, False])[1:] == [1, 0, 0]

    def test_a_span_once_refused_and_then_answered_forgets_the_refused_probe(self):
        """Under a limit of 20 logs an answer, a dense range teaches a 20-block span,
        and a probe from a range of 4 logs a query into the next dense range is
        refused. A far sparser range then answers a probe past the refused span: a
        limit on results, not span, so answers raise the logs a probe must undercut
        again. After a dense range, the last sparse range probes 20 times its span."""
        blocks = (list(range(1_000)) + list(range(1_000, 1_100, 5)) + list(range(1_100, 2_000))
                  + list(range(2_000, 50_000, 100)) + list(range(50_000, 51_000))
                  + list(range(51_000, 400_000, 10_000)))
        gw = _gateway(blocks, fault_script=max_logs_fault(blocks, 20))
        scan_one(_plan(399_999, 20), gw, ListSink())
        # a streak at the dense range's 20-block span, then a probe 20 times as wide
        assert _spans(q for q in gw.calls if q.from_block >= 51_000)[:9] == [20] * 8 + [400]

    def test_a_rate_limit_teaches_no_span(self):
        script = scripted_faults([ErrorKind.RATE_LIMITED])
        gw = _gateway([7], fault_script=script)
        scan_one(_plan(399, 40), gw, ListSink())
        # halved to 20, then doubled after a streak, as no refusal bounds it
        assert _spans(gw.calls) == [40] + [20] * 5 + [40] * 5 + [80, 20]


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
        sink.path = str(tmp_path / "checkpoint.json")
        summary = scan_one(_plan(23_999, 10_000), gw, sink, sleeper=lambda _s: None)
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
            scan_one(_plan(end, batch, batch_max=batch_max),
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
            scan_one(_plan(23_999, 10_000), gw, writer, cursor=cursor, sleeper=lambda _s: None)
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


def _events_gateway(blocks_by_event, fault_script=None):
    """A FixtureGateway with one log of each (schema, blocks) pair's event per block."""
    logs, timestamps = [], {}
    for schema, blocks in blocks_by_event:
        for b in blocks:
            logs.append(RawLog(CHAIN.pool_address, [schema.topic0, bytes(32)], bytes(32), b,
                               f"0x{b:060x}{len(logs):04x}", len(logs)))
            timestamps[b] = 1_700_000_000 + b
    return FixtureGateway(logs, timestamps, head_block=10**6, fault_script=fault_script)


class TestOneCursor:
    """A chain's streams share one cursor: each query asks every joined stream's topic0."""

    def test_streams_resumed_at_different_cursors_each_join_at_their_own(self):
        dense, medium, sparse = range(0, 30_000, 7), range(3, 30_000, 40), range(11, 30_000, 900)
        gw = _events_gateway([(SCHEMA, dense), (SCHEMA2, medium), (SCHEMA3, sparse)],
                             fault_script=max_span_fault(700))
        streams = [(SCHEMA, 0, ListSink()),
                   (SCHEMA2, 12_345, ListSink()),  # resumed further on
                   (SCHEMA3, 20_000, ListSink())]
        summaries = scan_events(_plan(29_999, 4_000), streams, gw, sleeper=lambda _s: None)
        script = max_span_fault(700)
        for (event, cursor, sink), blocks in zip(streams, (dense, medium, sparse)):
            # each topic0 is asked over its range exactly once
            assert _covered(gw, event, script) == list(range(cursor, 30_000))
            assert [log.block_number for log in sink.rows] == [b for b in blocks
                                                               if b >= cursor]
        assert [len(q.topics) for q in gw.calls][0] == 1
        assert {q.to_block for q in gw.calls if len(q.topics) == 1} >= {12_344}
        assert {q.to_block for q in gw.calls if len(q.topics) == 2} >= {19_999}
        assert summaries[0].batches_issued > summaries[1].batches_issued > \
            summaries[2].batches_issued > 0

    def test_a_rate_limited_query_pauses_once_and_halves_the_chain_span(self):
        script = scripted_faults([None, ErrorKind.RATE_LIMITED])
        gw = _events_gateway([(SCHEMA, range(0, 100, 3)), (SCHEMA2, range(1, 100, 5)),
                              (SCHEMA3, range(2, 100, 7))], fault_script=script)
        sleeps = []
        sinks = [ListSink() for _ in range(3)]
        summaries = scan_events(_plan(99, 20), [(event, 0, sink) for event, sink
                                                in zip((SCHEMA, SCHEMA2, SCHEMA3), sinks)],
                                gw, sleeper=sleeps.append)
        assert [(q.from_block, q.to_block) for q in gw.calls[:3]] == [(0, 19), (20, 39), (20, 29)]
        assert sleeps == [RATE_LIMIT_PAUSE_S]
        assert [len(sink.rows) for sink in sinks] == [34, 20, 14]
        assert {summary.resize_events for summary in summaries} == {2}  # halved, then grown

    def test_a_kill_between_two_streams_record_saves_resumes_to_the_same_bytes(
            self, tmp_path, monkeypatch):
        """A commit flushes both streams, then saves their records one by one. A kill
        at any record save leaves the two streams at different cursors (or the same);
        the resumed scan asks each topic0 from its own record on, and ends with the
        files of a scan never interrupted."""
        clock = lambda: datetime(2026, 1, 1, tzinfo=timezone.utc)  # noqa: E731
        blocks = [(SCHEMA, range(0, 2_000, 3)), (SCHEMA2, range(1, 2_000, 5))]
        script = max_span_fault(150)

        class Killed(Exception):
            pass

        def extract(out, resume=False):
            streams = []
            for schema, _blocks in blocks:
                cp_file = checkpoint_path(str(out), CHAIN.chain_name, schema.event_name)
                record = (Checkpoint.load(cp_file, CHAIN.chain_name, schema.event_name)
                          if os.path.exists(cp_file) else None)
                writer = (ShardWriter.resume(str(out), CHAIN.chain_name, schema, record,
                                             clock=clock, row_limit=100) if resume else
                          ShardWriter(str(out), CHAIN.chain_name, schema, clock=clock,
                                      row_limit=100))
                cursor = 0 if record is None else record.last_completed_block + 1
                streams.append((schema, cursor, writer))
            gw = _events_gateway(blocks, fault_script=script)
            scan_events(_plan(1_999, 300), streams, gw, sleeper=lambda _s: None)
            for _schema, _cursor, writer in streams:
                writer.finalize(1_999)
            return gw, [cursor for _schema, cursor, _writer in streams]

        def files(out):
            return {(event, name): (out / CHAIN.chain_name / event / name).read_bytes()
                    for event in (SCHEMA.event_name, SCHEMA2.event_name)
                    for name in os.listdir(out / CHAIN.chain_name / event)}

        saves = []
        save = Checkpoint.save
        with monkeypatch.context() as patch:
            patch.setattr(Checkpoint, "save", lambda self, path: (saves.append(1),
                                                                  save(self, path))[1])
            extract(tmp_path / "whole")
        whole = files(tmp_path / "whole")
        commits = (len(saves) - 2) // 2  # two finalized records
        assert commits >= 3

        for kill_at in range(1, 2 * commits + 1):
            out = tmp_path / f"kill{kill_at}"
            count = iter(range(1, kill_at + 1))

            def killing_save(record, path):
                if next(count, kill_at) == kill_at:
                    raise Killed()
                return save(record, path)

            with monkeypatch.context() as patch:
                patch.setattr(Checkpoint, "save", killing_save)
                with pytest.raises(Killed):
                    extract(out)
            gw, cursors = extract(out, resume=True)
            if kill_at % 2 == 0 and kill_at > 2:  # between the saves of one commit
                assert cursors[0] > cursors[1], kill_at
            for (schema, _blocks), cursor in zip(blocks, cursors):
                assert _covered(gw, schema, script) == list(range(cursor, 2_000)), kill_at
            assert files(out) == whole, kill_at


def test_checkpoint_persisted_per_batch(tmp_path):
    gw = _gateway([5, 42, 77])
    cp_file = str(tmp_path / "checkpoint.json")
    sink = ListSink(cp_file)
    seen = []

    def watch(summary, scanned_to, end):
        checkpoint = Checkpoint.load(cp_file, CHAIN.chain_name, SCHEMA.event_name)
        seen.append(checkpoint.last_completed_block)

    scan_one(_plan(99, 40), gw, sink, sleeper=lambda _s: None, on_progress=watch)
    assert seen == [39, 79, 99]
    assert seen == sorted(seen)  # never decreases
    final = Checkpoint.load(cp_file, CHAIN.chain_name, SCHEMA.event_name)
    assert final.last_completed_block == 99
    assert final.rows_emitted_total == 3
    assert final.chain == "testchain"


def test_plan_validation():
    with pytest.raises(ValueError):
        scan_one(_plan(99, 0), _gateway([]), ListSink())
    with pytest.raises(ValueError):
        scan_one(ScanPlan(chain=CHAIN, end_block=99), _gateway([]), ListSink(),
                 cursor=CHAIN.start_block - 1)
    with pytest.raises(ValueError):  # an answer is split by topic0, one stream each
        scan_events(_plan(99, 5), [(SCHEMA, 0, ListSink()), (SCHEMA, 50, ListSink())],
                    _gateway([]))
