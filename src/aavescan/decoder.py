"""Decoding of raw Pool logs into structured, string-valued records.

Indexed fields come from topics[1..] and the remaining fields from
consecutive 32-byte data words, both in declaration order. Values are
carried as strings (decimal for integers, lowercase hex for addresses) so
that no precision is lost on 256-bit amounts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gateway import RawLog
from .registry import EventField, EventSchema

WORD = 32


class DecodeError(Exception):
    """Base class for decoding failures."""


class TopicMismatch(DecodeError):
    """Log topic0 does not identify the schema's event."""


class ArityMismatch(DecodeError):
    """Topic count or data length disagrees with the schema."""


class ValueOverflow(DecodeError):
    """Word content inconsistent with the declared field type."""


class OrderViolation(Exception):
    """An event key (block_number, log_index) not strictly above the previous one."""


@dataclass(slots=True)
class DecodedEvent:
    chain_name: str
    event_name: str
    block_number: int
    block_timestamp: int
    transaction_hash: str
    log_index: int
    contract_address: str
    fields: list[tuple[str, str]]
    usd_value: str = ""

    @property
    def key(self) -> tuple[int, int]:
        return (self.block_number, self.log_index)


def _decode_word(word: bytes, f: EventField, strict: bool) -> str:
    if len(word) != WORD:
        raise ArityMismatch(f"field {f.name!r}: word is {len(word)} bytes, expected {WORD}")
    if f.abi_type == "address":
        if strict and any(word[:12]):
            raise ValueOverflow(f"field {f.name!r}: nonzero padding in address word")
        return "0x" + word[12:].hex()
    if f.abi_type == "bool":
        value = int.from_bytes(word, "big")
        if strict and value not in (0, 1):
            raise ValueOverflow(f"field {f.name!r}: bool word holds {value}")
        return "true" if value else "false"
    width = f.bit_width
    value = int.from_bytes(word, "big")
    if width < 256:
        if strict and value >> width:
            raise ValueOverflow(
                f"field {f.name!r}: uint{width} word holds {value} (>= 2**{width})"
            )
        value &= (1 << width) - 1
    return str(value)


def decode(
    log: RawLog,
    schema: EventSchema,
    chain_name: str,
    strict: bool = True,
) -> DecodedEvent:
    """Decode one raw log against ``schema``.

    Raises TopicMismatch / ArityMismatch / ValueOverflow; never mutates the
    input. ``strict`` rejects nonzero padding bits in address, bool and
    narrow uint words instead of masking them.
    """
    if not log.topics or log.topics[0] != schema.topic0:
        raise TopicMismatch(
            f"log topic0 does not match event {schema.event_name!r}"
        )
    indexed = schema.indexed_fields
    data_fields = schema.data_fields
    if len(log.topics) != 1 + len(indexed):
        raise ArityMismatch(
            f"event {schema.event_name!r}: {len(log.topics)} topics, "
            f"expected {1 + len(indexed)}"
        )
    if len(log.data) != WORD * len(data_fields):
        raise ArityMismatch(
            f"event {schema.event_name!r}: {len(log.data)} data bytes, "
            f"expected {WORD * len(data_fields)}"
        )

    topic_iter = iter(log.topics[1:])
    data_offset = 0
    values: list[tuple[str, str]] = []
    for f in schema.fields:
        if f.indexed:
            word = next(topic_iter)
        else:
            word = log.data[data_offset:data_offset + WORD]
            data_offset += WORD
        values.append((f.name, _decode_word(word, f, strict)))

    return DecodedEvent(
        chain_name=chain_name,
        event_name=schema.event_name,
        block_number=log.block_number,
        block_timestamp=log.block_timestamp,
        transaction_hash=log.transaction_hash,
        log_index=log.log_index,
        contract_address=log.address,
        fields=values,
    )

