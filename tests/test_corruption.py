"""Corruption sweep: every shard reader against every corruption class.

One tree is extracted from the mini corpus (ethereum, parts of at most 10
rows, so ethereum/Supply has four parts). Each class corrupts a copy of it,
mostly in Supply's part002. Each reader runs on the copy: ``validate``, the
three ``aggregate`` metrics strict and lenient, and ``replay``. EXPECTED
gives the exit code of every strict pair; every lenient aggregate exits 0.
Beyond the code:

- no pair ends in a traceback;
- every failure names the corrupt file (for a missing part, its number);
- a reader that exits 0 gives the same output as on the intact tree;
- a lenient aggregate whose strict form fails names the file in a warning
  and gives its own output on a copy of the tree with that part removed.

A second sweep corrupts a stream's own files instead, the record
``checkpoint.json`` of a finalized or an interrupted stream and the open part
of an interrupted one, and runs ``extract --resume`` on it: each case exits 4
naming the file, a rejected ``checkpoint.json`` leaves every file as it was,
and a rejected open part is not cut.
"""

import csv
import json
import os
import shutil
from functools import partial

import pytest
from click.testing import CliRunner

from aavescan import cli
from aavescan.sink import ShardWriter

READERS = ("validate", "counts", "new-users", "deposit-volume", "replay")
METRICS = ("counts", "new-users", "deposit-volume")

# exit codes per corruption class, in READERS order
EXPECTED = {
    "renamed_column": (1, 0, 0, 4, 4),  # amount -> amt
    "dropped_column": (1, 0, 4, 0, 4),  # onBehalfOf gone from the header and every row
    "ragged_row": (1, 4, 4, 4, 4),
    "non_integer_key": (1, 0, 0, 0, 4),
    "non_integer_timestamp": (0, 0, 4, 4, 4),
    "timestamp_beyond_year_9999": (0, 0, 4, 4, 0),  # an integer no UTC day can name
    "non_integer_amount": (0, 0, 0, 4, 4),
    "backwards_key": (1, 0, 0, 0, 4),
    "relabelled_event": (1, 4, 4, 4, 4),  # a Supply row labelled Borrow
    "relabelled_chain": (1, 4, 4, 4, 4),  # an ethereum row labelled base
    "non_utf8_byte": (1, 4, 4, 4, 4),
    "truncated_last_line": (1, 4, 4, 4, 4),
    "lost_final_newline": (1, 4, 4, 4, 4),  # a whole last row, but for its "\n"
    "empty_part": (1, 4, 4, 4, 4),
    "missing_part": (1, 4, 4, 4, 4),
    "duplicated_part_number": (1, 4, 4, 4, 4),
    "part_is_directory": (1, 4, 4, 4, 4),
    "record_not_json": (1, 0, 0, 0, 0),
    "record_is_list": (1, 0, 0, 0, 0),  # JSON, but not an object
    "record_without_finalized": (1, 0, 0, 0, 0),  # as written before the record had it
    "record_finalized_with_open_part": (1, 0, 0, 0, 0),
    "record_rows_total_disagrees": (1, 0, 0, 0, 0),
    "stale_open_part": (1, 0, 0, 0, 0),
    # bytes no part is written with, in Supply part002's fourth row (line 5)
    "quoted_value": (1, 4, 4, 4, 4),  # its transaction_hash wrapped in quotes
    "crlf_line_ending": (1, 4, 4, 4, 4),
    "nul_byte": (1, 4, 4, 4, 4),
}

# the line ``validate`` must name, per class it reports at a line of its own
LINES = {"quoted_value": 5, "crlf_line_ending": 5, "nul_byte": 5, "lost_final_newline": 11}


def _edit_rows(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    edit(header, rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + rows)


def _set(column, value):
    def edit(header, rows):
        rows[3][header.index(column)] = value
    return edit


def _rename_amount(header, _rows):
    header[header.index("amount")] = "amt"


def _drop_on_behalf_of(header, rows):
    at = header.index("onBehalfOf")
    for row in [header] + rows:
        del row[at]


def _extra_column(_header, rows):
    rows[3].append("extra")


def _swap_rows(_header, rows):
    rows[3], rows[4] = rows[4], rows[3]


def _corrupt(kind: str, stream: str, victim: str) -> tuple[str, str | None]:
    """Apply one corruption; return what a failure must name and the part to remove."""
    edits = {
        "renamed_column": _rename_amount,
        "dropped_column": _drop_on_behalf_of,
        "ragged_row": _extra_column,
        "non_integer_key": _set("log_index", "x"),
        "non_integer_timestamp": _set("block_timestamp", "soon"),
        "timestamp_beyond_year_9999": _set("block_timestamp", str(10**20)),
        "non_integer_amount": _set("amount", "1e18"),
        "backwards_key": _swap_rows,
        "relabelled_event": _set("event", "Borrow"),
        "relabelled_chain": _set("chain", "base"),
    }
    name = os.path.basename(victim)
    if kind in edits:
        _edit_rows(victim, edits[kind])
        return name, victim
    if kind in ROW_BYTE_EDITS:  # as raw bytes: ``_edit_rows`` would write the row plain
        _edit_row(4, ROW_BYTE_EDITS[kind])(victim)
        return name, victim
    if kind == "truncated_last_line":
        with open(victim, "rb") as fh:
            data = fh.read()
        last = data.rstrip(b"\n").rsplit(b"\n", 1)[1]
        with open(victim, "wb") as fh:
            fh.write(data[:len(data) - len(last) // 2 - 1])
        return name, victim
    if kind == "lost_final_newline":
        with open(victim, "rb+") as fh:
            fh.truncate(os.path.getsize(victim) - 1)
        return name, victim
    if kind == "non_utf8_byte":
        with open(victim, "rb") as fh:
            data = fh.read()
        with open(victim, "wb") as fh:
            fh.write(data.replace(b",0x", b",\xffx", 1))
        return name, victim
    if kind == "empty_part":
        open(victim, "w").close()
        return name, victim
    if kind == "part_is_directory":
        os.remove(victim)
        os.mkdir(victim)
        return name, victim
    if kind == "missing_part":
        os.remove(victim)
        return "part002", None
    if kind == "duplicated_part_number":
        duplicate = os.path.join(stream, name[:-len("YYYYMMDD_HHMMSS.csv")] + "99991231_235959.csv")
        shutil.copyfile(victim, duplicate)
        return os.path.basename(duplicate), duplicate
    if kind.startswith("record_"):
        RECORD_EDITS[kind](os.path.join(stream, "checkpoint.json"))
        return "checkpoint.json", None
    assert kind == "stale_open_part"
    shutil.copyfile(victim, os.path.join(stream, ".part005.open.csv"))
    return ".part005.open.csv", None


def _run(tree: str, reader: str, workdir: str, prices: str, lenient: bool = False):
    """(exit code, output, terminal text) of one reader on one tree."""
    out = os.path.join(workdir, f"{reader}{'-lenient' if lenient else ''}.out")
    if reader == "validate":
        args = ["validate", tree]
    elif reader == "replay":
        args = ["replay", "--in", tree, "--chain", "ethereum", "--out", out]
    else:
        args = ["aggregate", "--metric", reader, "--in", tree, "--out", out]
        args += ["--price-table", prices] if reader == "deposit-volume" else []
        args += ["--lenient"] if lenient else []
    result = CliRunner().invoke(cli.main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        reader, result.output, result.exc_info)
    assert "Traceback" not in result.output, result.output
    if reader == "validate":
        output = result.stdout
    else:
        output = open(out).read() if result.exit_code == 0 else None
        if os.path.exists(out):
            os.remove(out)
    return result.exit_code, output, result.output


@pytest.fixture(scope="module")
def intact(tmp_path_factory, mini_corpus_dir, price_table_path):
    root = str(tmp_path_factory.mktemp("intact"))
    tree = os.path.join(root, "tree")
    with pytest.MonkeyPatch.context() as mp:
        # extract opens every stream through ``resume``
        mp.setattr(ShardWriter, "resume",
                   classmethod(partial(ShardWriter.resume.__func__, row_limit=10)))
        result = CliRunner().invoke(cli.main, [
            "extract", "--chain", "ethereum", "--event", "all", "--out", tree,
            "--fixture-dir", mini_corpus_dir])
    assert result.exit_code == 0, result.output
    stream = os.path.join(tree, "ethereum", "Supply")
    assert len([n for n in os.listdir(stream) if n.startswith("aave_V3_")]) == 4
    outputs = {}
    for reader in READERS:
        code, output, text = _run(tree, reader, root, price_table_path)
        assert code == 0, (reader, text)
        outputs[reader] = output
    return tree, outputs


@pytest.mark.parametrize("kind", list(EXPECTED))
def test_every_reader_on_every_corruption(kind, intact, tmp_path, price_table_path):
    tree, intact_outputs = intact
    corrupt = str(tmp_path / "corrupt")
    shutil.copytree(tree, corrupt)
    stream = os.path.join(corrupt, "ethereum", "Supply")
    victim = sorted(os.path.join(stream, n) for n in os.listdir(stream)
                    if n.startswith("aave_V3_"))[1]
    assert "_part002_" in victim
    needle, removed = _corrupt(kind, stream, victim)

    for reader, expected in zip(READERS, EXPECTED[kind]):
        code, output, text = _run(corrupt, reader, str(tmp_path), price_table_path)
        assert code == expected, (reader, text)
        if code == 0:
            assert output == intact_outputs[reader], reader
        else:
            assert needle in text, (reader, text)
        if reader == "validate" and kind in LINES:
            assert f"{needle}:{LINES[kind]}\t" in text, text

    without = str(tmp_path / "without")
    shutil.copytree(corrupt, without)
    if removed is not None:
        removed = removed.replace(corrupt, without, 1)
        shutil.rmtree(removed) if os.path.isdir(removed) else os.remove(removed)
    for reader, strict in zip(METRICS, EXPECTED[kind][1:4]):
        code, output, text = _run(corrupt, reader, str(tmp_path), price_table_path, True)
        assert code == 0, (reader, text)
        if strict == 0:
            assert output == intact_outputs[reader], reader
            continue
        assert needle in text, (reader, text)
        assert output == _run(without, reader, str(tmp_path), price_table_path, True)[1], reader


def _edit_json(edit):
    def corrupt(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return corrupt


def _write(data: bytes):
    def corrupt(path):
        with open(path, "wb") as fh:
            fh.write(data)
    return corrupt


def _edit_row(number, edit):
    """Edit row ``number`` of a part; row 1 follows the header."""
    def corrupt(path):
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[number] = edit(lines[number])
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
    return corrupt


def _not_utf8(row: bytes) -> bytes:
    return row.replace(b",0x", b",\xffx", 1)


def _set_log_index(row: bytes) -> bytes:
    cells = row.split(b",")
    cells[5] = b"x"
    return b",".join(cells)


def _quote_transaction_hash(row: bytes) -> bytes:
    cells = row.split(b",")
    cells[4] = b'"' + cells[4] + b'"'
    return b",".join(cells)


ROW_BYTE_EDITS = {
    "quoted_value": _quote_transaction_hash,
    "crlf_line_ending": lambda row: row + b"\r",
    "nul_byte": lambda row: row.replace(b",0x", b",0x\0", 1),
}


def _interrupted(edit):
    """``edit`` of a file of a stream first made to look killed (``_interrupt``)."""
    def corrupt(path):
        _interrupt(os.path.dirname(path))
        edit(path)
    return corrupt


def _interrupt(stream: str) -> None:
    """Make finalized ethereum/Supply look killed in part001: its checkpoint keeps 5
    rows of the open part, unfinalized, and the part is back under its dot-name."""
    for name in os.listdir(stream):
        if "_part001_" in name:
            os.replace(os.path.join(stream, name), os.path.join(stream, ".part001.open.csv"))
    with open(os.path.join(stream, ".part001.open.csv"), encoding="utf-8") as fh:
        fifth = fh.read().split("\n")[5].split(",")
    _edit_json(lambda doc: doc.update(
        last_completed_block=int(fifth[2]), rows_emitted_total=5, current_part_number=1,
        rows_in_current_part=5, parts=[], finalized=False))(os.path.join(stream, "checkpoint.json"))


def _beside_record(edit):
    """``edit`` of the ``checkpoint.json`` beside the file given."""
    return lambda path: edit(os.path.join(os.path.dirname(path), "checkpoint.json"))


# corruptions of the record of finalized ethereum/Supply, which lists its four parts
RECORD_EDITS = {
    "record_not_json": _write(b"{not json"),
    "record_is_list": _write(b"[]"),
    "record_without_finalized": _edit_json(lambda doc: doc.pop("finalized")),
    "record_finalized_with_open_part": _edit_json(lambda doc: doc.update(
        current_part_number=5, rows_in_current_part=3)),
    "record_rows_total_disagrees": _edit_json(lambda doc: doc.update(rows_emitted_total=999999)),
}


# corruption per case: (file of ethereum/Supply, edit of that file)
RESUME_CASES = {
    "checkpoint_not_json": ("checkpoint.json", _write(b"{not json")),
    "checkpoint_is_list": ("checkpoint.json", _write(b"[]")),
    "checkpoint_empty_object": ("checkpoint.json", _write(b"{}")),
    "checkpoint_non_integer_block": (
        "checkpoint.json", _edit_json(lambda doc: doc.update(last_completed_block="x"))),
    "checkpoint_part_without_first_key": (
        "checkpoint.json", _edit_json(lambda doc: doc["parts"][0].pop("first_key"))),
    "checkpoint_part_filename_not_text": (
        "checkpoint.json", _edit_json(lambda doc: doc["parts"][0].update(filename=5))),
    "checkpoint_of_another_event": (
        "checkpoint.json", _edit_json(lambda doc: doc.update(event="Borrow"))),
    "checkpoint_not_utf8": ("checkpoint.json", _write(b'{"chain": "\xff"}')),
    "checkpoint_negative_part": ("checkpoint.json", _interrupted(_edit_json(
        lambda doc: doc.update(current_part_number=-2, rows_in_current_part=3)))),
    "checkpoint_without_finalized": (
        "checkpoint.json", _edit_json(lambda doc: doc.pop("finalized"))),
    "checkpoint_finalized_not_a_boolean": (
        "checkpoint.json", _edit_json(lambda doc: doc.update(finalized="true"))),
    "checkpoint_finalized_with_open_part": (
        "checkpoint.json", _interrupted(_edit_json(lambda doc: doc.update(finalized=True)))),
    "checkpoint_rows_total_disagrees": (
        "checkpoint.json", _edit_json(lambda doc: doc.update(rows_emitted_total=999999))),
    "open_part_not_utf8": (".part001.open.csv", _interrupted(_edit_row(1, _not_utf8))),
    "open_part_not_utf8_in_a_middle_row": (
        ".part001.open.csv", _interrupted(_edit_row(3, _not_utf8))),
    "open_part_non_integer_key": (".part001.open.csv", _interrupted(_edit_row(1, _set_log_index))),
    "open_part_non_integer_key_in_a_middle_row": (
        ".part001.open.csv", _interrupted(_edit_row(3, _set_log_index))),
    "open_part_quoted_header": (".part001.open.csv", _interrupted(_edit_row(
        0, lambda header: header.replace(b"amount", b'"amount"')))),
    "open_part_quoted_value": (".part001.open.csv", _interrupted(_edit_row(
        3, _quote_transaction_hash))),
    "open_part_keys_out_of_order": (
        ".part001.open.csv", _interrupted(partial(_edit_rows, edit=_swap_rows))),
    # a record whose last completed block is below the rows it keeps
    "checkpoint_behind_its_last_closed_part": ("checkpoint.json", _edit_json(
        lambda doc: doc.update(finalized=False,
                               last_completed_block=doc["parts"][-1]["last_key"][0] - 1))),
    "open_part_above_its_checkpoint": (".part001.open.csv", _interrupted(_beside_record(
        _edit_json(lambda doc: doc.update(
            last_completed_block=doc["last_completed_block"] - 1))))),
}


@pytest.mark.parametrize("case", list(RESUME_CASES))
def test_resume_on_a_corrupt_record(case, intact, tmp_path, mini_corpus_dir):
    tree, _outputs = intact
    corrupt = str(tmp_path / "corrupt")
    shutil.copytree(tree, corrupt)
    stream = os.path.join(corrupt, "ethereum", "Supply")
    name, edit = RESUME_CASES[case]
    edit(os.path.join(stream, name))
    files = sorted(os.listdir(stream))
    edited = open(os.path.join(stream, name), "rb").read()

    result = CliRunner().invoke(cli.main, [
        "extract", "--chain", "ethereum", "--event", "Supply", "--out", corrupt,
        "--fixture-dir", mini_corpus_dir, "--resume"])
    assert isinstance(result.exception, SystemExit), (result.output, result.exc_info)
    assert "Traceback" not in result.output, result.output
    assert result.exit_code == 4, result.output
    assert os.path.join(stream, name) in result.output, result.output
    if not name.endswith(".open.csv"):  # a record the resume rejects leaves every file as it was
        assert sorted(os.listdir(stream)) == files
    else:  # an open part is refused before it is cut
        assert open(os.path.join(stream, name), "rb").read() == edited


def _stream_rows(stream: str) -> list[str]:
    rows = []
    for name in sorted(n for n in os.listdir(stream) if n.startswith("aave_V3_")):
        with open(os.path.join(stream, name), encoding="utf-8") as fh:
            rows.extend(fh.read().splitlines()[1:])
    return rows


def test_interrupted_stream_resumes_to_the_same_rows(intact, tmp_path, mini_corpus_dir):
    """The state the open-part cases corrupt is sound: left intact, it resumes."""
    tree, _outputs = intact
    resumed = str(tmp_path / "resumed")
    shutil.copytree(tree, resumed)
    _interrupt(os.path.join(resumed, "ethereum", "Supply"))
    result = CliRunner().invoke(cli.main, [
        "extract", "--chain", "ethereum", "--event", "Supply", "--out", resumed,
        "--fixture-dir", mini_corpus_dir, "--resume"])
    assert result.exit_code == 0, result.output
    assert (_stream_rows(os.path.join(resumed, "ethereum", "Supply"))
            == _stream_rows(os.path.join(tree, "ethereum", "Supply")))
