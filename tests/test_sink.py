import collections
import csv
import itertools
import json
import os
import re
from datetime import datetime, timedelta, timezone

import pytest

import aavescan.sink as sink_module
from aavescan.decoder import DecodedEvent
from aavescan.sink import (
    Checkpoint,
    FileFault,
    IoFailure,
    OrderViolation,
    PartOverflow,
    ShardWriter,
    checkpoint_path,
    iter_part_rows,
    iter_streams,
    list_stream_parts,
    part_filename,
    stream_dir,
    validate_output,
)

WETH = "0xc02aaa39b223fe8d0a0e5c4f27ead9083c756cc2"
POOL = "0x87870bca3f3fd6335c3f4ce8392d69350b4fa4e2"


def _event(registry, block, index, amount=1):
    return DecodedEvent(
        chain_name="ethereum",
        event_name="MintedToTreasury",
        block_number=block,
        block_timestamp=1_700_000_000 + block,
        transaction_hash=f"0x{block:058x}{index:06x}",
        log_index=index,
        contract_address=POOL,
        fields=[("reserve", WETH), ("amountMinted", str(amount))],
    )


def _fixed_clock():
    return datetime(2025, 10, 1, 0, 0, 0, tzinfo=timezone.utc)


def _writer(registry, out_dir, row_limit=10):
    return ShardWriter(str(out_dir), "ethereum", registry.event("MintedToTreasury"),
                       clock=_fixed_clock, row_limit=row_limit)


def _record_file(root):
    return checkpoint_path(str(root), "ethereum", "MintedToTreasury")


def _read_keys(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(int(r[2]), int(r[5])) for r in reader]


class TestPartFilename:
    def test_exact_pattern(self):
        name = part_filename("ethereum", "Supply", 1,
                             datetime(2025, 10, 1, 0, 0, 0, tzinfo=timezone.utc))
        assert name == "aave_V3_ethereum_Supply_part001_20251001_000000.csv"

    def test_zero_padding(self):
        name = part_filename("base", "ReserveDataUpdated", 12,
                             datetime(2025, 1, 2, 3, 4, 5, tzinfo=timezone.utc))
        assert "_part012_20250102_030405.csv" in name

    def test_part_overflow(self):
        with pytest.raises(PartOverflow):
            part_filename("base", "Supply", 1_000, _fixed_clock())
        with pytest.raises(PartOverflow):
            part_filename("base", "Supply", 0, _fixed_clock())


class TestRollover:
    def test_sharding_rule(self, registry, tmp_path):
        writer = _writer(registry, tmp_path, row_limit=10)
        for i in range(25):
            writer.append(_event(registry, 100 + i, 0))
        record = writer.finalize(130)
        assert [p.row_count for p in record.parts] == [10, 10, 5]
        assert [p.part_number for p in record.parts] == [1, 2, 3]
        assert record.rows_emitted_total == 25
        assert (record.current_part_number, record.rows_in_current_part) == (3, 0)
        assert (record.last_completed_block, record.finalized) == (130, True)
        assert Checkpoint.load(_record_file(tmp_path), "ethereum", "MintedToTreasury") == record

    def test_exact_limit_single_part(self, registry, tmp_path):
        writer = _writer(registry, tmp_path, row_limit=10)
        for i in range(10):
            writer.append(_event(registry, 100 + i, 0))
        record = writer.finalize(109)
        assert [p.row_count for p in record.parts] == [10]
        directory = stream_dir(str(tmp_path), "ethereum", "MintedToTreasury")
        assert len(list_stream_parts(directory)) == 1

    def test_empty_stream(self, registry, tmp_path):
        writer = _writer(registry, tmp_path)
        record = writer.finalize(99)
        assert (record.parts, record.current_part_number, record.finalized) == ((), 0, True)
        directory = stream_dir(str(tmp_path), "ethereum", "MintedToTreasury")
        assert list_stream_parts(directory) == []

    def test_mid_part_finalize(self, registry, tmp_path):
        writer = _writer(registry, tmp_path, row_limit=10)
        for i in range(7):
            writer.append(_event(registry, 100 + i, 0))
        record = writer.finalize(106)
        assert [p.row_count for p in record.parts] == [7]

    def test_double_finalize_idempotent(self, registry, tmp_path):
        writer = _writer(registry, tmp_path)
        writer.append(_event(registry, 100, 0))
        first = writer.finalize(100)
        assert writer.finalize(100) == first

    def test_append_after_finalize_rejected(self, registry, tmp_path):
        writer = _writer(registry, tmp_path)
        writer.append(_event(registry, 100, 0))
        writer.finalize(100)
        with pytest.raises(IoFailure):
            writer.append(_event(registry, 101, 0))

    def test_finalize_is_retried_after_its_save_failed(self, registry, tmp_path, monkeypatch):
        writer = _writer(registry, tmp_path)
        writer.append(_event(registry, 100, 0))
        writer.save(100)
        save = Checkpoint.save

        def failing_save(record, path):
            raise OSError("disk full")

        monkeypatch.setattr(Checkpoint, "save", failing_save)
        with pytest.raises(IoFailure, match="saving the finalized record failed"):
            writer.finalize(100)
        monkeypatch.setattr(Checkpoint, "save", save)
        assert not Checkpoint.load(_record_file(tmp_path), "ethereum",
                                   "MintedToTreasury").finalized
        record = writer.finalize(100)
        assert (record.finalized, record.rows_emitted_total, len(record.parts)) == (True, 1, 1)
        assert Checkpoint.load(_record_file(tmp_path), "ethereum", "MintedToTreasury") == record


class TestOrdering:
    def test_repeated_key_rejected(self, registry, tmp_path):
        writer = _writer(registry, tmp_path)
        writer.append(_event(registry, 100, 0))
        with pytest.raises(OrderViolation):
            writer.append(_event(registry, 100, 0))

    def test_backward_key_rejected(self, registry, tmp_path):
        writer = _writer(registry, tmp_path)
        writer.append(_event(registry, 100, 5))
        with pytest.raises(OrderViolation):
            writer.append(_event(registry, 100, 4))

    def test_concatenation_globally_sorted(self, registry, tmp_path):
        writer = _writer(registry, tmp_path, row_limit=4)
        keys_in = [(100, 0), (100, 1), (101, 0), (105, 2), (106, 0),
                   (200, 0), (201, 1), (300, 0), (301, 0)]
        for block, index in keys_in:
            writer.append(_event(registry, block, index))
        record = writer.finalize(301)
        directory = stream_dir(str(tmp_path), "ethereum", "MintedToTreasury")
        keys_out = []
        for name in list_stream_parts(directory):
            keys_out.extend(_read_keys(os.path.join(directory, name)))
        assert keys_out == keys_in
        assert sum(p.row_count for p in record.parts) == len(keys_in)
        for earlier, later in zip(record.parts, record.parts[1:]):
            assert earlier.last_key < later.first_key

    def test_csv_roundtrip(self, registry, tmp_path):
        from aavescan.sink import PREFIX_COLUMNS, iter_part_rows

        writer = _writer(registry, tmp_path)
        events = [_event(registry, 100 + i, i, amount=10**i) for i in range(5)]
        for event in events:
            writer.append(event)
        writer.finalize(104)
        directory = stream_dir(str(tmp_path), "ethereum", "MintedToTreasury")
        (name,) = list_stream_parts(directory)
        columns = PREFIX_COLUMNS + ("reserve", "amountMinted", "usd_value")
        rows = list(iter_part_rows(os.path.join(directory, name), "ethereum",
                                   "MintedToTreasury", columns))
        rebuilt = [
            DecodedEvent(
                chain_name=chain,
                event_name=event,
                block_number=int(block_number),
                block_timestamp=int(block_timestamp),
                transaction_hash=transaction_hash,
                log_index=int(log_index),
                contract_address=contract_address,
                fields=[("reserve", reserve), ("amountMinted", amount_minted)],
                usd_value=usd_value,
            )
            for (chain, event, block_number, block_timestamp, transaction_hash, log_index,
                 contract_address, reserve, amount_minted, usd_value) in rows
        ]
        assert rebuilt == events


class TestResume:
    def test_resume_equals_uninterrupted(self, registry, tmp_path):
        straight = tmp_path / "straight"
        resumed = tmp_path / "resumed"

        writer = _writer(registry, straight, row_limit=6)
        for i in range(15):
            writer.append(_event(registry, 100 + i, 0))
        writer.finalize(114)

        writer = _writer(registry, resumed, row_limit=6)
        for i in range(8):
            writer.append(_event(registry, 100 + i, 0))
        writer.flush()
        record = writer.save(107)
        assert (record.current_part_number, record.rows_in_current_part) == (2, 2)
        del writer

        writer = ShardWriter.resume(str(resumed), "ethereum",
                                    registry.event("MintedToTreasury"),
                                    record, clock=_fixed_clock, row_limit=6)
        for i in range(8, 15):
            writer.append(_event(registry, 100 + i, 0))
        writer.finalize(114)

        def contents(root):
            directory = stream_dir(str(root), "ethereum", "MintedToTreasury")
            return b"".join(
                open(os.path.join(directory, n), "rb").read()
                for n in list_stream_parts(directory)
            )

        assert contents(straight) == contents(resumed)
        assert (open(_record_file(straight), "rb").read()
                == open(_record_file(resumed), "rb").read())

    def test_resume_truncates_unchheckpointed_rows(self, registry, tmp_path):
        writer = _writer(registry, tmp_path, row_limit=100)
        for i in range(5):
            writer.append(_event(registry, 100 + i, 0))
        writer.flush()
        # checkpoint knew about 3 rows only; the last 2 must be discarded
        record = Checkpoint("ethereum", "MintedToTreasury", 102, 3, 1, 3)
        writer = ShardWriter.resume(str(tmp_path), "ethereum",
                                    registry.event("MintedToTreasury"), record,
                                    clock=_fixed_clock, row_limit=100)
        assert writer.save(102) == record
        with pytest.raises(OrderViolation):  # the last kept key is (102, 0)
            writer.append(_event(registry, 102, 0))
        writer.append(_event(registry, 103, 0))
        record = writer.finalize(103)
        assert record.parts[0].row_count == 4

    def test_resume_inconsistent_state_rejected(self, registry, tmp_path):
        writer = _writer(registry, tmp_path, row_limit=100)
        writer.append(_event(registry, 100, 0))
        writer.flush()
        path = _record_file(tmp_path)
        Checkpoint("ethereum", "MintedToTreasury", 100, 1, 3, 1).save(path)
        with pytest.raises(FileFault, match="0 closed parts, but part 3 open"):
            Checkpoint.load(path, "ethereum", "MintedToTreasury")

    def test_a_record_whose_row_total_disagrees_with_its_parts_is_refused(self, registry,
                                                                         tmp_path):
        _build_valid_tree(registry, tmp_path)
        path = _record_file(tmp_path)
        doc = json.load(open(path))
        doc["rows_emitted_total"] = 999999
        json.dump(doc, open(path, "w"))
        with pytest.raises(FileFault, match="rows_emitted_total 999999, but its parts hold 12"):
            Checkpoint.load(path, "ethereum", "MintedToTreasury")
        assert [v.kind for v in validate_output(str(tmp_path))] == ["manifest"]


class Killed(BaseException):
    """A process kill at a chosen I/O call; no ``except`` in the package catches it."""


class _UnflushedFile:
    """Text reaches the real file only at flush or close, as in a buffered file,
    so a kill loses the unflushed text as a killed process does."""

    def __init__(self, real, tick):
        self._real, self._tick, self._pending = real, tick, []

    def write(self, text):
        self._tick()
        self._pending.append(text)
        return len(text)

    def flush(self):
        self._real.write("".join(self._pending))
        self._pending.clear()
        self._real.flush()

    def close(self):
        self.flush()
        self._real.close()

    def fileno(self):
        return self._real.fileno()

    def __enter__(self):
        return self

    def __exit__(self, kind, *_):
        if kind is None:
            self.close()


class KillSeam:
    """Counts the sink's ``open`` and file writes, ``os.fsync`` and ``os.replace``
    (the checkpoint save included) and raises Killed at call ``kill_at``."""

    def __init__(self, monkeypatch, kill_at=None):
        self.calls, self.kill_at, self.files, self.paths = 0, kill_at, [], []
        real_open, real_fsync, real_replace = open, os.fsync, os.replace

        def seam_open(path, *args, **kwargs):
            self.tick()
            self.paths.append(os.fspath(path))
            self.files.append(_UnflushedFile(real_open(path, *args, **kwargs), self.tick))
            return self.files[-1]

        monkeypatch.setattr(sink_module, "open", seam_open, raising=False)
        monkeypatch.setattr(os, "fsync", lambda fd: (self.tick(), real_fsync(fd))[1])
        monkeypatch.setattr(os, "replace", lambda a, b: (self.tick(), real_replace(a, b))[1])

    def tick(self):
        self.calls += 1
        if self.calls == self.kill_at:
            for fh in self.files:
                fh._real.close()  # the unflushed text is lost
            raise Killed(self.calls)


# 24 rows in the first batch (two rollovers before any checkpoint), then a
# few rows per batch, one rollover among them, and a final part of 8 rows
KILL_BLOCKS = sorted([i // 2 for i in range(24)] + list(range(20, 100, 6)))


def _kill_point_run(root, resume=False):
    """Scan KILL_BLOCKS into parts of 10 rows from the stream's checkpoint and
    finalize; with ``resume`` and no checkpoint, as ``extract --resume`` does.
    Part close times tick by a second from a year of their own per ``resume``,
    so a stale part file left by the first run cannot pass for a new one."""
    from test_scanner import CHAIN, SCHEMA, _gateway, _plan, scan_one

    cp_file = checkpoint_path(root, CHAIN.chain_name, SCHEMA.event_name)
    record = None
    if os.path.exists(cp_file):
        record = Checkpoint.load(cp_file, CHAIN.chain_name, SCHEMA.event_name)
    ticks = itertools.count()
    start = datetime(2026 if resume else 2025, 1, 1, tzinfo=timezone.utc)

    def clock():
        return start + timedelta(seconds=next(ticks))

    if resume:
        writer = ShardWriter.resume(root, CHAIN.chain_name, SCHEMA, record, clock=clock,
                                    row_limit=10)
    else:
        writer = ShardWriter(root, CHAIN.chain_name, SCHEMA, clock=clock, row_limit=10)
    cursor = 0 if record is None else record.last_completed_block + 1
    if cursor <= 99:
        scan_one(_plan(99, 20), _gateway(KILL_BLOCKS), writer, cursor=cursor)
    writer.finalize(99)
    return stream_dir(root, CHAIN.chain_name, SCHEMA.event_name)


def _normalized_tree(directory):
    """Every file of a stream directory, part timestamps masked in names and text."""
    stamp = re.compile(rb"_\d{8}_\d{6}\.csv")
    return sorted(
        (stamp.sub(b"_TS.csv", name.encode()),
         stamp.sub(b"_TS.csv", open(os.path.join(directory, name), "rb").read()))
        for name in os.listdir(directory)
    )


def test_kill_at_every_io_call_resumes_byte_identical(tmp_path, monkeypatch):
    with monkeypatch.context() as patched:
        seam = KillSeam(patched)
        straight = _kill_point_run(str(tmp_path / "straight"))
    expected = _normalized_tree(straight)
    assert len(list_stream_parts(straight)) == 4  # three rollovers and a final close
    assert json.loads(dict(expected)[b"checkpoint.json"])["finalized"] is True
    assert not any(path.endswith(".state") for path in seam.paths)
    total_calls = seam.calls

    for kill_at in range(1, total_calls + 1):
        root = str(tmp_path / f"kill{kill_at}")
        with monkeypatch.context() as patched:
            seam = KillSeam(patched, kill_at)
            with pytest.raises(Killed):
                _kill_point_run(root)
        assert not any(path.endswith(".state") for path in seam.paths)
        directory = _kill_point_run(root, resume=True)
        assert _normalized_tree(directory) == expected, f"killed at call {kill_at}"
        violations = validate_output(root)
        assert not violations, (kill_at, violations)


def fsyncs_by_kind(monkeypatch) -> collections.Counter:
    """Count each ``os.fsync`` by the file the sink opened under its descriptor:
    ``record`` for ``checkpoint.json`` (its temporary), ``part`` for a part file."""
    kinds, counts = {}, collections.Counter()
    real_open, real_fsync = open, os.fsync

    def seam_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        record = os.path.basename(path).startswith("checkpoint.json")
        kinds[fh.fileno()] = "record" if record else "part"
        return fh

    monkeypatch.setattr(sink_module, "open", seam_open, raising=False)
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (counts.update([kinds.get(fd, "other")]), real_fsync(fd))[1])
    return counts


def test_fsync_budget_of_rollovers(registry, tmp_path, monkeypatch):
    """One fsync per flush of an open part, per part close and for the finalized record."""
    fsyncs = fsyncs_by_kind(monkeypatch)
    writer = _writer(registry, tmp_path, row_limit=10)
    for i in range(25):
        writer.append(_event(registry, 100 + i, 0))
        if i % 5 == 4:
            writer.flush()
    writer.finalize(124)
    # flushes after rows 5, 15 and 25 (rows 10 and 20 closed a part) and three
    # part closes, then the finalized record
    assert fsyncs == {"part": 6, "record": 1}


def _build_valid_tree(registry, root):
    writer = ShardWriter(str(root), "ethereum", registry.event("MintedToTreasury"),
                         clock=_fixed_clock, row_limit=5)
    for i in range(12):
        writer.append(_event(registry, 100 + i, 0))
    writer.finalize(111)
    return stream_dir(str(root), "ethereum", "MintedToTreasury")


def test_iter_streams_sorted_and_skips_files(tmp_path):
    for chain, event in [("ethereum", "Supply"), ("base", "Supply"), ("base", "Borrow")]:
        os.makedirs(tmp_path / chain / event)
    (tmp_path / "README.txt").write_text("stray file at the root\n")
    (tmp_path / "base" / "notes.csv").write_text("stray file at the chain level\n")
    assert list(iter_streams(str(tmp_path))) == [
        ("base", "Borrow", str(tmp_path / "base" / "Borrow")),
        ("base", "Supply", str(tmp_path / "base" / "Supply")),
        ("ethereum", "Supply", str(tmp_path / "ethereum" / "Supply")),
    ]
    assert list(iter_streams(str(tmp_path / "missing"))) == []


class TestValidate:
    def test_clean_tree_passes(self, registry, tmp_path):
        _build_valid_tree(registry, tmp_path)
        violations = validate_output(str(tmp_path))
        assert not violations, violations

    def test_part000_is_naming_violation(self, registry, tmp_path):
        directory = _build_valid_tree(registry, tmp_path)
        name = list_stream_parts(directory)[0]
        os.rename(os.path.join(directory, name),
                  os.path.join(directory, name.replace("part001", "part000")))
        kinds = {v.kind for v in validate_output(str(tmp_path))}
        assert "naming" in kinds

    def test_gap_in_numbering(self, registry, tmp_path):
        directory = _build_valid_tree(registry, tmp_path)
        name = list_stream_parts(directory)[1]
        os.rename(os.path.join(directory, name),
                  os.path.join(directory, name.replace("part002", "part009")))
        kinds = {v.kind for v in validate_output(str(tmp_path))}
        assert "part_numbering" in kinds

    def test_swapped_rows_report_line_number(self, registry, tmp_path):
        directory = _build_valid_tree(registry, tmp_path)
        name = list_stream_parts(directory)[0]
        path = os.path.join(directory, name)
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        violations = [v for v in validate_output(str(tmp_path))
                      if v.kind == "ordering"]
        assert violations and violations[0].line == 4

    def test_missing_record(self, registry, tmp_path):
        _build_valid_tree(registry, tmp_path)
        os.remove(_record_file(tmp_path))
        kinds = {v.kind for v in validate_output(str(tmp_path))}
        assert kinds == {"manifest"}

    def test_record_row_count_mismatch(self, registry, tmp_path):
        _build_valid_tree(registry, tmp_path)
        path = _record_file(tmp_path)
        doc = json.load(open(path))
        doc["parts"][0]["row_count"] += 1
        json.dump(doc, open(path, "w"))
        kinds = {v.kind for v in validate_output(str(tmp_path))}
        assert kinds == {"manifest"}

    def test_unfinalized_record(self, registry, tmp_path):
        _build_valid_tree(registry, tmp_path)
        path = _record_file(tmp_path)
        doc = json.load(open(path))
        doc["finalized"] = False
        json.dump(doc, open(path, "w"))
        violations = validate_output(str(tmp_path))
        assert [(v.kind, v.path, v.detail) for v in violations] == [
            ("manifest", path, "stream not finalized")]

    def test_row_limit_violation(self, registry, tmp_path, monkeypatch):
        directory = _build_valid_tree(registry, tmp_path)
        monkeypatch.setattr(sink_module, "PART_ROW_LIMIT", 4)
        kinds = {v.kind for v in validate_output(str(tmp_path))}
        assert "row_limit" in kinds

    def test_alien_filename(self, registry, tmp_path):
        directory = _build_valid_tree(registry, tmp_path)
        with open(os.path.join(directory, "notes.csv"), "w") as fh:
            fh.write("hello\n")
        kinds = {v.kind for v in validate_output(str(tmp_path))}
        assert "naming" in kinds

    def _edit_header(self, path, old, new):
        with open(path, "r", encoding="utf-8") as fh:
            header, rest = fh.read().split("\n", 1)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header.replace(old, new) + "\n" + rest)

    def test_field_column_renamed_in_a_later_part(self, registry, tmp_path):
        directory = _build_valid_tree(registry, tmp_path)
        path = os.path.join(directory, list_stream_parts(directory)[1])
        self._edit_header(path, "amountMinted", "amount_minted")
        violations = validate_output(str(tmp_path))
        assert [(v.kind, v.path) for v in violations] == [("header", path)]
        assert "first well-formed header" in violations[0].detail

    def test_prefix_column_renamed(self, registry, tmp_path):
        directory = _build_valid_tree(registry, tmp_path)
        path = os.path.join(directory, list_stream_parts(directory)[0])
        self._edit_header(path, "block_timestamp", "timestamp")
        violations = validate_output(str(tmp_path))
        assert [(v.kind, v.path) for v in violations] == [("header", path)]
        assert "usd_value" in violations[0].detail

    def test_ragged_row_reports_line_number(self, registry, tmp_path):
        directory = _build_valid_tree(registry, tmp_path)
        path = os.path.join(directory, list_stream_parts(directory)[0])
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        lines[3] += ",extra"
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        ragged = [v for v in validate_output(str(tmp_path)) if v.line is not None]
        assert [(v.path, v.line) for v in ragged] == [(path, 4)]
        assert "decodable event row of 10 columns" in ragged[0].detail

    def test_stale_open_part_is_naming_violation(self, registry, tmp_path):
        directory = _build_valid_tree(registry, tmp_path)
        stale = os.path.join(directory, ".part004.open.csv")
        with open(stale, "w", encoding="utf-8") as fh:
            fh.write("chain\n")
        violations = validate_output(str(tmp_path))
        assert [(v.kind, v.path) for v in violations] == [("naming", stale)]

    def test_record_roundtrip(self, registry, tmp_path):
        directory = _build_valid_tree(registry, tmp_path)
        path = _record_file(tmp_path)
        record = Checkpoint.load(path, "ethereum", "MintedToTreasury")
        assert (record.chain, record.finalized, record.rows_emitted_total) == (
            "ethereum", True, 12)
        assert [p.filename for p in record.parts] == list_stream_parts(directory)
        record.save(str(tmp_path / "again.json"))
        assert open(tmp_path / "again.json", "rb").read() == open(path, "rb").read()


class TestIterPartRows:
    """The reader splits lines on commas; ``csv.reader`` is the oracle it is held to."""

    def test_yields_the_rows_csv_reader_yields(self, tmp_path, mini_corpus_dir, monkeypatch):
        from functools import partial

        from click.testing import CliRunner

        from aavescan import cli

        out = str(tmp_path / "out")
        # extract opens every stream through ``resume``
        monkeypatch.setattr(ShardWriter, "resume",
                            classmethod(partial(ShardWriter.resume.__func__, row_limit=10)))
        for chain in ("ethereum", "base"):  # the mini corpus's chains
            result = CliRunner().invoke(cli.main, [
                "extract", "--chain", chain, "--event", "all", "--out", out,
                "--fixture-dir", mini_corpus_dir])
            assert result.exit_code == 0, result.output
        parts = rows_read = 0
        for chain, event, directory in iter_streams(out):
            for name in list_stream_parts(directory):
                path = os.path.join(directory, name)
                with open(path, newline="", encoding="utf-8") as fh:
                    header, *rows = csv.reader(fh)
                assert list(iter_part_rows(path, chain, event, header)) == list(map(tuple, rows))
                assert list(iter_part_rows(path, chain, event)) == [()] * len(rows)
                parts += 1
                rows_read += len(rows)
        assert parts >= 40 and rows_read >= 300, (parts, rows_read)

    @pytest.mark.parametrize("line", [1, 4])
    @pytest.mark.parametrize("char", ['"', "\r", "\0"])
    def test_a_line_holding_a_quote_cr_or_nul_is_refused_at_that_line(
            self, registry, tmp_path, char, line):
        directory = _build_valid_tree(registry, tmp_path)
        path = os.path.join(directory, list_stream_parts(directory)[0])
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        lines[line - 1] = lines[line - 1].replace(",", f",{char}", 1)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        with pytest.raises(FileFault) as caught:
            list(iter_part_rows(path, "ethereum", "MintedToTreasury", ("block_number",)))
        assert caught.value.violation == (
            sink_module.Violation("ordering", path, f"part file not decodable: line holds "
                                  f"{char!r}", line))
