"""CSV shard writer, reader and validator for decoded event streams.

File contract: one directory per (chain, event); parts of at most one
million rows named ``aave_V3_{chain}_{event}_part{nnn}_{YYYYMMDD_HHMMSS}.csv``
with consecutive part numbers from 001, and strictly increasing
(block_number, log_index) keys within and across parts.

The timestamp suffix in the filename carries the wall-clock time at which
the part was closed, so an open part lives under a temporary dot-name and is
renamed into place when it fills up (or at finalize).

Beside the parts, ``checkpoint.json`` is the stream's one durable record
(``Checkpoint``): replaced at each commit, and at finalize once more with
``finalized`` true, no open part and every part listed. ``--resume`` and
``validate`` read the stream's state from it alone.

``ShardWriter`` is the scanner's sink: a commit decodes a stream's raw logs,
appends and flushes them, and the writer then saves its own record.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .decoder import DecodeError, DecodedEvent, OrderViolation, decode
from .gateway import ErrorKind, GatewayError
from .registry import CHAIN_NAME, EVENT_NAME, PREFIX_COLUMNS, EventSchema

PART_ROW_LIMIT = 1_000_000
MAX_PART_NUMBER = 999

FILENAME_RE = re.compile(
    rf"^aave_V3_(?P<chain>{CHAIN_NAME})_(?P<event>{EVENT_NAME})"
    r"_part(?P<part>\d{3})_(?P<ts>\d{8}_\d{6})\.csv$"
)
OPEN_PART_RE = re.compile(r"^\.part(?P<part>\d{3})\.open\.csv$")


class IoFailure(Exception):
    """I/O failed or a shard file read is corrupt; a writer leaves its stream consistent."""


class PartOverflow(IoFailure):
    """Part numbering exceeded the 3-digit filename budget."""


@dataclass(frozen=True)
class Violation:
    kind: str  # naming | part_numbering | header | row_limit | ordering | manifest (the record)
    path: str
    detail: str
    line: int | None = None


class FileFault(IoFailure):
    """``FileFault(kind, path, detail[, line])``: a file no reader can use, as ``validate`` says."""

    @property
    def violation(self) -> Violation:
        return Violation(*self.args)

    def __str__(self) -> str:
        v = self.violation
        return f"{v.path}:{v.line}: {v.detail}" if v.line else f"{v.path}: {v.detail}"


def part_filename(chain: str, event: str, part_number: int, wall_clock: datetime) -> str:
    """Filename for a closed part; ``wall_clock`` must be timezone-aware UTC."""
    if not 1 <= part_number <= MAX_PART_NUMBER:
        raise PartOverflow(f"part number {part_number} outside 1..{MAX_PART_NUMBER}")
    stamp = wall_clock.astimezone(timezone.utc).strftime("%Y%m%d_%H%M%S")
    return f"aave_V3_{chain}_{event}_part{part_number:03d}_{stamp}.csv"


@dataclass(frozen=True)
class PartRecord:
    part_number: int
    filename: str
    row_count: int
    first_key: tuple[int, int]
    last_key: tuple[int, int]

    @classmethod
    def from_doc(cls, doc: dict) -> "PartRecord":
        """Inverse of ``asdict``, from the JSON shape of a record's ``parts``."""
        first, last, filename = doc["first_key"], doc["last_key"], doc["filename"]
        if not FILENAME_RE.match(filename):
            raise ValueError(f"{filename!r} is not a part filename")
        return cls(int(doc["part_number"]), filename, int(doc["row_count"]),
                   (int(first[0]), int(first[1])), (int(last[0]), int(last[1])))


def stream_dir(out_dir: str, chain: str, event: str) -> str:
    return os.path.join(out_dir, chain, event)


def checkpoint_path(out_dir: str, chain: str, event: str) -> str:
    return os.path.join(stream_dir(out_dir, chain, event), "checkpoint.json")


@dataclass
class Checkpoint:
    """The one durable record of a stream, ``checkpoint.json`` in its directory.

    Each commit replaces it; ``ShardWriter.finalize`` replaces it once more with
    ``finalized`` true, no open part and every part in ``parts``. ``parts`` lists
    the closed parts, so a resume and ``validate`` need nothing else from the
    stream's directory. ``rows_emitted_total`` counts the rows of every part.
    """

    chain: str
    event: str
    last_completed_block: int
    rows_emitted_total: int
    current_part_number: int
    rows_in_current_part: int
    parts: tuple[PartRecord, ...] = ()
    finalized: bool = False

    def save(self, path: str) -> None:
        _atomic_write(path, json.dumps(asdict(self), indent=2))

    @classmethod
    def load(cls, path: str, chain: str, event: str) -> "Checkpoint":
        """The record of stream ``chain``/``event`` at ``path``.

        FileFault names ``path`` at any fault: a read error, bytes not UTF-8 or not
        JSON, no object, another stream, a key missing or out of range, a
        ``finalized`` that is not a boolean, closed parts that do not match the
        open part's number, a last closed part ending above
        ``last_completed_block``, a finalized record with an open part, or a
        ``rows_emitted_total`` other than the rows of the parts it lists.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if (doc["chain"], doc["event"]) != (chain, event):
                raise ValueError(f"names {doc['chain']}/{doc['event']}, not {chain}/{event}")
            record = cls(chain, event, _count(doc, "last_completed_block"),
                         _count(doc, "rows_emitted_total"),
                         _count(doc, "current_part_number", MAX_PART_NUMBER),
                         _count(doc, "rows_in_current_part", PART_ROW_LIMIT),
                         tuple(PartRecord.from_doc(p) for p in doc["parts"]), doc["finalized"])
            if not isinstance(record.finalized, bool):
                raise ValueError(f"finalized {record.finalized!r} is not a boolean")
            if len(record.parts) != record.current_part_number - (record.rows_in_current_part > 0):
                raise ValueError(f"{len(record.parts)} closed parts, but part "
                                 f"{record.current_part_number} open with "
                                 f"{record.rows_in_current_part} rows")
            if record.parts and record.parts[-1].last_key[0] > record.last_completed_block:
                raise ValueError(f"part {record.parts[-1].part_number} ends at block "
                                 f"{record.parts[-1].last_key[0]}, above last_completed_block "
                                 f"{record.last_completed_block}")
            if record.finalized and record.rows_in_current_part:
                raise ValueError("a finalized stream lists an open part")
            rows = sum(p.row_count for p in record.parts) + record.rows_in_current_part
            if record.rows_emitted_total != rows:
                raise ValueError(f"rows_emitted_total {record.rows_emitted_total}, but its "
                                 f"parts hold {rows} rows")
            return record
        except OSError as exc:
            raise FileFault("manifest", path, f"unreadable: {exc.strerror or exc}") from exc
        except (ValueError, LookupError, TypeError, ArithmeticError, RecursionError) as exc:
            raise FileFault("manifest", path,
                            f"malformed record: {type(exc).__name__}: {exc}") from exc


def _count(doc: dict, key: str, limit: float = float("inf")) -> int:
    """``doc[key]`` as an integer in 0..``limit``; ValueError otherwise."""
    value = int(doc[key])
    if not 0 <= value <= limit:
        raise ValueError(f"{key} {value} outside 0..{limit}")
    return value


def _atomic_write(path: str, text: str) -> None:
    """Replace ``path`` by ``text`` in one step: a durable temporary, then a rename."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class ShardWriter:
    """Single-writer CSV shard stream for one (chain, event), and the scanner's sink.

    Parts roll over lazily: the row that reaches the limit closes the part,
    and the next append opens the following one, so a stream ending exactly
    on the limit never produces an empty trailing part. ``commit_batch``
    decodes raw logs into rows; a log that does not decode (in ``strict``
    mode) is TERMINAL. The writer saves every record of its stream (``save``),
    the finalized one last.
    """

    def __init__(
        self,
        out_dir: str,
        chain: str,
        schema: EventSchema,
        clock: Callable[[], datetime] | None = None,
        row_limit: int = PART_ROW_LIMIT,
        strict: bool = True,
    ):
        self._dir = stream_dir(out_dir, chain, schema.event_name)
        self._chain = chain
        self._schema = schema
        self._strict = strict
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._row_limit = row_limit
        self._header = list(PREFIX_COLUMNS) + [f.name for f in schema.fields] + ["usd_value"]
        # the stream's one state: part 0 until the first part opens
        self._record = Checkpoint(chain, schema.event_name, -1, 0, 0, 0)
        self._last_key: tuple[int, int] | None = None
        self._first_key_in_part: tuple[int, int] | None = None
        self._fh = None
        os.makedirs(self._dir, exist_ok=True)

    def save(self, last_block: int, finalized: bool = False) -> Checkpoint:
        """Save and return a copy of the stream's record, every row written so far
        committed through ``last_block``; the record is finalized once that save succeeds."""
        state = self._record
        record = replace(state, last_completed_block=last_block, finalized=finalized,
                         rows_emitted_total=sum(p.row_count for p in state.parts)
                         + state.rows_in_current_part)
        record.save(os.path.join(self._dir, "checkpoint.json"))
        self._record = replace(record)
        return record

    # -- writing ----------------------------------------------------------------

    def commit_batch(self, logs) -> None:
        """Decode, append and durably flush the raw logs of one commit, in key order."""
        for log in logs:
            try:
                event = decode(log, self._schema, self._chain, strict=self._strict)
            except DecodeError as exc:
                raise GatewayError(ErrorKind.TERMINAL, f"{self._chain}/{self._schema.event_name}"
                                   f" log {log.key}: {exc}") from exc
            self.append(event)
        self.flush()

    def _open_part_path(self, part_number: int) -> str:
        return os.path.join(self._dir, f".part{part_number:03d}.open.csv")

    def _open_next_part(self) -> None:
        next_number = self._record.current_part_number + 1
        if next_number > MAX_PART_NUMBER:
            raise PartOverflow(
                f"stream {self._chain}/{self._schema.event_name} exceeded "
                f"{MAX_PART_NUMBER} parts"
            )
        path = self._open_part_path(next_number)
        try:
            self._fh = open(path, "w", newline="", encoding="utf-8")
            self._fh.write(",".join(self._header) + "\n")
        except OSError as exc:
            self._close_quietly()
            raise IoFailure(f"cannot open part file {path!r}: {exc}") from exc
        self._record.current_part_number = next_number
        self._record.rows_in_current_part = 0
        self._first_key_in_part = None

    def append(self, event: DecodedEvent) -> None:
        """Append one row, unquoted: no value can need quoting (see ``gateway.parse_log``).

        Raises OrderViolation when the event key is not strictly above the
        last written key for this stream. Opens and rolls parts as needed.
        """
        key, record = event.key, self._record
        if record.finalized:
            raise IoFailure("stream already finalized")
        if self._last_key is not None and key <= self._last_key:
            raise OrderViolation(
                f"key {key} not above last written key {self._last_key} "
                f"({self._chain}/{self._schema.event_name})"
            )
        if self._fh is None:
            self._open_next_part()
        fields = "".join([f"{value}," for _, value in event.fields])
        try:
            self._fh.write(f"{event.chain_name},{event.event_name},{event.block_number},"
                           f"{event.block_timestamp},{event.transaction_hash},{event.log_index},"
                           f"{event.contract_address},{fields}{event.usd_value}\n")
        except OSError as exc:
            self._close_quietly()
            raise IoFailure(f"write failed on part {record.current_part_number}: {exc}") from exc
        if self._first_key_in_part is None:
            self._first_key_in_part = key
        self._last_key = key
        record.rows_in_current_part += 1
        if record.rows_in_current_part >= self._row_limit:
            self._close_part()

    def flush(self) -> None:
        """Push buffered rows to disk (flush + fsync)."""
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError as exc:
                self._close_quietly()
                raise IoFailure(f"flush failed: {exc}") from exc

    def _close_part(self) -> None:
        assert self._fh is not None
        record, number = self._record, self._record.current_part_number
        open_path = self._open_part_path(number)
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
        except OSError as exc:
            self._fh = None
            raise IoFailure(f"closing part {number} failed: {exc}") from exc
        self._fh = None
        final_name = part_filename(self._chain, self._schema.event_name, number, self._clock())
        part = PartRecord(number, final_name, record.rows_in_current_part,
                          self._first_key_in_part, self._last_key)
        try:
            os.replace(open_path, os.path.join(self._dir, final_name))
        except OSError as exc:
            raise IoFailure(f"renaming part {number} failed: {exc}") from exc
        record.parts += (part,)
        record.rows_in_current_part = 0
        self._first_key_in_part = None

    def _close_quietly(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def finalize(self, last_block: int) -> Checkpoint:
        """Close the open part, drop it if empty, and save the record finalized
        through ``last_block``; idempotent."""
        record = self._record
        if record.finalized:
            return replace(record)
        if self._fh is not None and record.rows_in_current_part > 0:
            self._close_part()
        elif self._fh is not None:
            # open but empty part file: discard it
            open_path = self._open_part_path(record.current_part_number)
            self._close_quietly()
            try:
                os.remove(open_path)
            except OSError:
                pass
            record.current_part_number -= 1
        try:
            return self.save(last_block, finalized=True)
        except OSError as exc:
            raise IoFailure(f"saving the finalized record failed: {exc}") from exc

    # -- resume -------------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        out_dir: str,
        chain: str,
        schema: EventSchema,
        record: Checkpoint | None,
        clock: Callable[[], datetime] | None = None,
        row_limit: int = PART_ROW_LIMIT,
        strict: bool = True,
    ) -> "ShardWriter":
        """Reopen a stream at its loaded record, or at its start without one, and make
        the disk agree.

        The open part, also when a close the record missed renamed it, is cut
        back to the record's rows under its dot-name; part files numbered above
        it are deleted, so without a record every part file is. A finalized
        stream is left as it is.
        """
        writer = cls(out_dir, chain, schema, clock=clock, row_limit=row_limit, strict=strict)
        if record is not None:
            writer._record = replace(record)
        record = writer._record  # without a loaded record, an empty stream's
        if record.finalized:
            return writer
        part_number, rows_in_part = record.current_part_number, record.rows_in_current_part
        if record.parts:
            writer._last_key = record.parts[-1].last_key
        for part in record.parts:
            if not os.path.exists(os.path.join(writer._dir, part.filename)):
                raise IoFailure(f"closed part {part.filename!r} of the checkpoint is missing")

        open_path = writer._open_part_path(part_number)
        for name in os.listdir(writer._dir):
            match = FILENAME_RE.match(name) or OPEN_PART_RE.match(name)
            number = int(match.group("part")) if match else 0
            path = os.path.join(writer._dir, name)
            if number > part_number:
                os.remove(path)
            elif number == part_number and rows_in_part and path != open_path:
                os.replace(path, open_path)
        if rows_in_part == 0:
            return writer

        if not os.path.exists(open_path):
            raise IoFailure(f"resume expected open part file {open_path!r}")
        try:
            writer._first_key_in_part, writer._last_key = writer._truncate_open_part(
                open_path, rows_in_part, record.last_completed_block)
        except (ValueError, IndexError) as exc:  # a row not UTF-8, or without integer keys
            raise IoFailure(f"open part {open_path!r}: not a decodable event row: {exc}") from exc
        try:
            writer._fh = open(open_path, "a", newline="", encoding="utf-8")
        except OSError as exc:
            raise IoFailure(f"cannot reopen part file {open_path!r}: {exc}") from exc
        return writer

    def _truncate_open_part(self, path: str, keep_rows: int,
                            last_block: int) -> tuple[tuple[int, int], ...]:
        """Cut an open part to its header and ``keep_rows`` whole rows; return their key range.

        Every kept row must decode, hold no quote, CR or NUL, and carry an integer key
        above the key before it and a block at most ``last_block``.
        """
        with open(path, "r+b") as fh:
            line = fh.readline()
            # split as ``iter_part_rows`` splits it: a quote, CR or NUL leaves a name unequal
            header = line.decode("utf-8").rstrip("\n").split(",")
            if not line.endswith(b"\n") or header != self._header:
                raise IoFailure(f"open part {path!r} has an unexpected header")
            size, rows = len(line), 0
            first, last = None, self._last_key  # the closed parts' last key, if any
            for line in fh:
                if rows == keep_rows or not line.endswith(b"\n"):
                    break
                size += len(line)
                row = line.decode("utf-8")
                _refuse_unwritten(path, row, rows + 2)
                cells = row.split(",", 6)  # rows are unquoted (see ``append``)
                key = (int(cells[2]), int(cells[5]))
                rows += 1
                if last is not None and key <= last:
                    raise IoFailure(f"open part {path!r}: row {rows} key {key} not above {last}")
                if key[0] > last_block:
                    raise IoFailure(f"open part {path!r}: row {rows} block {key[0]} above the "
                                    f"record's last completed block {last_block}")
                first, last = first or key, key
            if rows < keep_rows:
                raise IoFailure(f"open part {path!r} holds fewer than {keep_rows} rows")
            fh.truncate(size)
        return first, last


# -- reading and validation ---------------------------------------------------


def iter_streams(root: str) -> Iterator[tuple[str, str, str]]:
    """Yield (chain, event, directory) per stream under ``root`` in sorted order."""
    if not os.path.isdir(root):
        return
    for chain in sorted(os.listdir(root)):
        chain_dir = os.path.join(root, chain)
        if not os.path.isdir(chain_dir):
            continue
        for event in sorted(os.listdir(chain_dir)):
            directory = os.path.join(chain_dir, event)
            if os.path.isdir(directory):
                yield chain, event, directory


def list_stream_parts(directory: str) -> list[str]:
    """Part filenames in a stream directory, ordered by part number, then by name."""
    names = [n for n in os.listdir(directory) if FILENAME_RE.match(n)]
    return sorted(names, key=lambda n: (int(FILENAME_RE.match(n).group("part")), n))


def stream_parts(directory: str) -> tuple[list[str], list[Violation]]:
    """Paths of a stream's part files in part order, and a violation per numbering break.

    A number passed already (a repeat, or 000) leaves its part out; a gap is
    reported at the part after it, which stays in.
    """
    paths, breaks, expected = [], [], 1
    for name in list_stream_parts(directory):
        number = int(FILENAME_RE.match(name).group("part"))
        path = os.path.join(directory, name)
        if number != expected:
            breaks.append(Violation("part_numbering", path,
                                    f"expected part{expected:03d} next, found part{number:03d}"))
        if number >= expected:
            paths.append(path)
            expected = number + 1
    return paths, breaks


def iter_part_rows(path: str, chain: str, event: str, columns: Sequence[str] = (),
                   check_header: Callable[[list[str]], str | None] | None = None,
                   ) -> Iterator[tuple[str, ...]]:
    """Yield, per row of one part file of stream ``chain``/``event``, the values of ``columns``.

    Lines are split on commas, as ``ShardWriter.append`` joins them; each column is
    resolved once to its header position. ``check_header`` returns why a header is
    unusable, or None. Raises FileFault naming ``path`` on a read error, bytes not UTF-8,
    an empty file or a header fault, and, with its line, at the first line whose width or
    ``chain``/``event`` is wrong or that holds a quote, CR or NUL, and after a last line
    that lacks its final newline: ``append`` writes none of these, so such a line is an
    ``ordering`` fault, not CSV to unquote, and a row cut short at its end is no whole row.
    """
    try:
        with open(path, "r", newline="\n", encoding="utf-8") as fh:
            line_no, line = 1, fh.readline()
            if not line:
                raise FileFault("header", path, "part file has no header")
            _refuse_unwritten(path, line, 1)
            header = line.rstrip("\n").split(",")
            fault = check_header(header) if check_header else None
            if fault:
                raise FileFault("header", path, fault)
            for name in columns:
                if name not in header:
                    raise FileFault("header", path, f"header lacks column {name!r}")
            positions = [header.index(name) for name in columns]
            # itemgetter of one position returns a bare value, of none it fails
            pick = (itemgetter(*positions) if len(positions) > 1
                    else (lambda row: tuple(row[i] for i in positions)) if positions
                    else lambda _row: ())
            width = len(header)
            for line_no, line in enumerate(fh, 2):
                if '"' in line or "\r" in line or "\0" in line:  # a regex search is slower
                    _refuse_unwritten(path, line, line_no)
                row = line.rstrip("\n").split(",")
                if len(row) != width or row[0] != chain or row[1] != event:
                    if len(row) != width:
                        raise FileFault("ordering", path, "row is not a decodable event row "
                                        f"of {width} columns", line_no)
                    raise FileFault("naming", path, f"row names {row[0]}/{row[1]}, directory "
                                    f"is {chain}/{event}", line_no)
                yield pick(row)
            if not line.endswith("\n"):  # only the last line can lack it
                raise FileFault("ordering", path, "line lacks its final newline", line_no)
    except OSError as exc:
        raise FileFault("naming", path, f"part file unreadable: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileFault("ordering", path, f"part file not decodable: {exc}") from exc


def _refuse_unwritten(path: str, line: str, line_no: int) -> None:
    """Raise FileFault at a line holding a quote, CR or NUL, which ``append`` never writes."""
    for char in '"\r\0':
        if char in line:
            raise FileFault("ordering", path, f"part file not decodable: line holds {char!r}",
                            line_no)


def _validate_stream(directory: str, chain: str, event: str) -> list[Violation]:
    violations: list[Violation] = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if OPEN_PART_RE.match(name):
            violations.append(Violation("naming", path, "open part of an unfinished write"))
        if name.startswith(".") or not name.endswith(".csv"):
            continue
        m = FILENAME_RE.match(name)
        if not m:
            violations.append(Violation("naming", path,
                                        "filename does not match the part pattern"))
            continue
        if m.group("chain") != chain or m.group("event") != event:
            violations.append(Violation("naming", path,
                                        f"filename names {m.group('chain')}/{m.group('event')}, "
                                        f"directory is {chain}/{event}"))
        if int(m.group("part")) < 1:
            violations.append(Violation("naming", path, "part numbers start at 001"))
    paths, breaks = stream_parts(directory)
    violations.extend(breaks)

    headers: list[list[str]] = []  # the stream's well-formed headers, in part order

    def check_header(header: list[str]) -> str | None:
        if header[:len(PREFIX_COLUMNS)] != list(PREFIX_COLUMNS) or header[-1:] != ["usd_value"]:
            return "header does not start with the prefix columns and end with usd_value"
        headers.append(header)
        if header != headers[0]:
            return "header differs from the stream's first well-formed header"
        return None

    actual_parts: list[PartRecord] = []
    faulty: set[int] = set()  # parts with a FileFault, left out of the record comparison
    last_key: tuple[int, int] | None = None  # keys rise across parts too
    for path in paths:
        name = os.path.basename(path)
        part = int(FILENAME_RE.match(name).group("part"))
        rows, first_key = 0, None
        keys = iter_part_rows(path, chain, event, ("block_number", "log_index"), check_header)
        try:
            for line_no, (block, index) in enumerate(keys, start=2):
                try:
                    key = (int(block), int(index))
                except ValueError:
                    violations.append(Violation("ordering", path, "row key (block_number, "
                                                "log_index) is not two integers", line=line_no))
                    continue
                if last_key is not None and key <= last_key:
                    violations.append(Violation(
                        "ordering", path,
                        f"key {key} not above previous {last_key}", line=line_no))
                first_key = first_key or key
                last_key = key
                rows += 1
        except FileFault as exc:
            violations.append(exc.violation)
            faulty.add(part)
            continue
        if rows > PART_ROW_LIMIT:
            violations.append(Violation(
                "row_limit", path, f"{rows} rows exceed the {PART_ROW_LIMIT} limit"))
        if first_key is not None:
            actual_parts.append(PartRecord(part, name, rows, first_key, last_key))

    record_path = os.path.join(directory, "checkpoint.json")
    try:
        record = Checkpoint.load(record_path, chain, event)
    except FileFault as exc:
        violations.append(exc.violation)
        return violations
    if not record.finalized:
        violations.append(Violation("manifest", record_path, "stream not finalized"))
        return violations
    declared = {p.part_number: p for p in record.parts}
    actual = {p.part_number: p for p in actual_parts}
    for number in sorted((set(declared) | set(actual)) - faulty):
        listed, found = declared.get(number), actual.get(number)
        if listed != found:
            detail = ("on disk but not in the record" if listed is None
                      else "in the record but not on disk" if found is None
                      else f"metadata disagrees with file (record {listed}, actual {found})")
            violations.append(Violation("manifest", record_path, f"part{number:03d} {detail}"))
    return violations


def validate_output(root: str) -> list[Violation]:
    """Check a whole output tree against the file contract; no violation means it holds."""
    if not os.path.isdir(root):
        return [Violation("naming", root, "output directory missing")]
    return [violation for chain, event, directory in iter_streams(root)
            for violation in _validate_stream(directory, chain, event)]
