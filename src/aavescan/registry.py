"""Static registry of supported chains and Pool event schemas.

The registry ships as a YAML document (``data/registry.yaml``) so that chain
parameters and event ABIs can be corrected or extended without touching code.
Loading validates every entry and recomputes each event's topic0 from its
canonical signature; any mismatch is an integrity failure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import yaml

from .keccak import keccak256

ADDRESS_RE = re.compile(r"0x[0-9a-f]{40}")
# Names the shard file contract carries: chain and event names in part
# filenames, field names as header columns that need no CSV quoting.
CHAIN_NAME = "[a-z][a-z0-9]*"
EVENT_NAME = "[A-Z][A-Za-z0-9]*"
FIELD_NAME = "[A-Za-z_][A-Za-z0-9_]*"
UINT_TYPE_RE = re.compile(r"uint(\d+)")

# Static ABI types the decoder supports. Dynamic types (bytes, string,
# arrays) are rejected at load: every Pool event uses static types only.
_STATIC_TYPES = {"address", "bool"}
MAX_INDEXED_FIELDS = 3

# Shard columns before an event's fields; ``usd_value`` follows them.
PREFIX_COLUMNS = ("chain", "event", "block_number", "block_timestamp", "transaction_hash",
                  "log_index", "contract_address")


class RegistryError(Exception):
    """Malformed registry document or integrity failure."""


@dataclass(frozen=True)
class ChainConfig:
    chain_name: str
    pool_address: str
    start_block: int
    max_block: int
    rpc_env_key: str

    def validate(self) -> None:
        if not re.fullmatch(CHAIN_NAME, self.chain_name):
            raise RegistryError(f"chain name {self.chain_name!r} does not match {CHAIN_NAME}")
        if not ADDRESS_RE.fullmatch(self.pool_address):
            raise RegistryError(
                f"chain {self.chain_name!r}: pool_address {self.pool_address!r} "
                "is not 0x + 40 lowercase hex digits"
            )
        if self.start_block < 0 or self.max_block < 0:
            raise RegistryError(f"chain {self.chain_name!r}: negative block height")
        if not self.start_block < self.max_block:
            raise RegistryError(
                f"chain {self.chain_name!r}: start_block {self.start_block} "
                f"must be below max_block {self.max_block}"
            )
        if not self.rpc_env_key:
            raise RegistryError(f"chain {self.chain_name!r}: empty rpc_env_key")


@dataclass(frozen=True)
class EventField:
    name: str
    abi_type: str
    indexed: bool = False

    @cached_property
    def bit_width(self) -> int | None:
        """Width of a uintN type, None for non-integer types."""
        m = UINT_TYPE_RE.fullmatch(self.abi_type)
        return int(m.group(1)) if m else None


@dataclass(frozen=True)
class EventSchema:
    event_name: str
    canonical_signature: str
    topic0: bytes
    fields: tuple[EventField, ...]
    user_field: str | None = None

    @cached_property
    def indexed_fields(self) -> tuple[EventField, ...]:
        return tuple(f for f in self.fields if f.indexed)

    @cached_property
    def data_fields(self) -> tuple[EventField, ...]:
        return tuple(f for f in self.fields if not f.indexed)

    def validate(self) -> None:
        if not re.fullmatch(EVENT_NAME, self.event_name):
            raise RegistryError(f"event name {self.event_name!r} is not CamelCase")
        if not self.canonical_signature:
            raise RegistryError(f"event {self.event_name!r}: empty signature")
        expected_sig = self.event_name + "(" + ",".join(f.abi_type for f in self.fields) + ")"
        if self.canonical_signature != expected_sig:
            raise RegistryError(
                f"event {self.event_name!r}: signature {self.canonical_signature!r} "
                f"does not match field list ({expected_sig!r})"
            )
        if len(self.indexed_fields) > MAX_INDEXED_FIELDS:
            raise RegistryError(
                f"event {self.event_name!r}: {len(self.indexed_fields)} indexed fields "
                f"(maximum {MAX_INDEXED_FIELDS})"
            )
        names = [f.name for f in self.fields]
        for f in self.fields:
            where = f"event {self.event_name!r}: field name {f.name!r}"
            if not re.fullmatch(FIELD_NAME, f.name):
                raise RegistryError(f"{where} does not match {FIELD_NAME}")
            if f.name in PREFIX_COLUMNS or f.name == "usd_value":
                raise RegistryError(f"{where} is a shard column of every event")
            if names.count(f.name) > 1:
                raise RegistryError(f"{where} repeats")
            if f.abi_type not in _STATIC_TYPES and f.bit_width is None:
                raise RegistryError(
                    f"event {self.event_name!r}: field {f.name!r} has unsupported "
                    f"type {f.abi_type!r} (static types only)"
                )
            width = f.bit_width
            if width is not None and (width < 8 or width > 256 or width % 8 != 0):
                raise RegistryError(
                    f"event {self.event_name!r}: field {f.name!r} has invalid "
                    f"uint width {width}"
                )
        if self.user_field is not None and self.user_field not in {f.name for f in self.fields}:
            raise RegistryError(
                f"event {self.event_name!r}: user_field {self.user_field!r} "
                "names no declared field"
            )
        recomputed = topic0_of(self)
        if recomputed != self.topic0:
            raise RegistryError(
                f"event {self.event_name!r}: declared topic0 0x{self.topic0.hex()} "
                f"does not match keccak256(signature) 0x{recomputed.hex()}"
            )


def topic0_of(schema: EventSchema) -> bytes:
    """keccak256 of the canonical signature's UTF-8 bytes."""
    if not schema.canonical_signature:
        raise RegistryError("cannot hash an empty signature")
    return keccak256(schema.canonical_signature.encode("utf-8"))


@dataclass(frozen=True)
class Registry:
    chains: tuple[ChainConfig, ...]
    events: tuple[EventSchema, ...]
    _chain_index: dict = field(default_factory=dict, compare=False, repr=False)
    _event_index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._chain_index.update({c.chain_name: c for c in self.chains})
        self._event_index.update({e.event_name: e for e in self.events})

    def chain(self, name: str) -> ChainConfig:
        try:
            return self._chain_index[name]
        except KeyError:
            raise RegistryError(f"unknown chain {name!r}") from None

    def event(self, name: str) -> EventSchema:
        try:
            return self._event_index[name]
        except KeyError:
            raise RegistryError(f"unknown event {name!r}") from None

    def chain_names(self) -> list[str]:
        return [c.chain_name for c in self.chains]

    def event_names(self) -> list[str]:
        return [e.event_name for e in self.events]


def default_registry_path() -> str:
    return str(resources.files("aavescan").joinpath("data/registry.yaml"))


def _parse_topic0(raw: str, context: str) -> bytes:
    if not isinstance(raw, str) or not re.fullmatch(r"0x[0-9a-fA-F]{64}", raw):
        raise RegistryError(f"{context}: topic0 {raw!r} is not 0x + 64 hex digits")
    return bytes.fromhex(raw[2:])


def _parse_indexed(raw: object, context: str) -> bool:
    # bool() would read the YAML string "false" as True
    if not isinstance(raw, bool):
        raise RegistryError(f"{context}: indexed {raw!r} is not a YAML boolean")
    return raw


def yaml_int(raw: object, name: str) -> int:
    """``raw`` if it is a YAML integer; ValueError naming ``name`` otherwise (``int()``
    would cut a float to an integer and read a boolean as 0 or 1)."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"{name} {raw!r} is not an integer")
    return raw


# libyaml's safe loader; the pure-Python one where PyYAML was built without it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(stream):
    """Parse one YAML document with the safe loader; every YAML file goes here."""
    return yaml.load(stream, Loader=_YAML_LOADER)


def load_registry(path: str | None = None) -> Registry:
    """Parse and validate a registry document; shipped default when path is None."""
    if path is None:
        path = default_registry_path()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = load_yaml(fh)
    except OSError as exc:
        raise RegistryError(f"cannot read registry document {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise RegistryError(f"registry document {path!r} is not valid YAML: {exc}") from exc

    if not isinstance(doc, dict) or "chains" not in doc or "events" not in doc:
        raise RegistryError(f"registry document {path!r} needs 'chains' and 'events' sections")

    chains: list[ChainConfig] = []
    for entry in doc["chains"]:
        try:
            chain = ChainConfig(
                chain_name=str(entry["name"]),
                pool_address=str(entry["pool_address"]).lower(),
                start_block=yaml_int(entry["start_block"], "start_block"),
                max_block=yaml_int(entry["max_block"], "max_block"),
                rpc_env_key=str(entry["rpc_env_key"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"malformed chain entry {entry!r}: {exc}") from exc
        chain.validate()
        if any(c.chain_name == chain.chain_name for c in chains):
            raise RegistryError(f"duplicate chain name {chain.chain_name!r}")
        chains.append(chain)

    events: list[EventSchema] = []
    for entry in doc["events"]:
        try:
            fields = tuple(
                EventField(
                    name=str(f["name"]),
                    abi_type=str(f["type"]),
                    indexed=_parse_indexed(
                        f.get("indexed", False),
                        f"event {entry.get('name')!r}: field {f['name']!r}",
                    ),
                )
                for f in entry["fields"]
            )
            schema = EventSchema(
                event_name=str(entry["name"]),
                canonical_signature=str(entry["signature"]),
                topic0=_parse_topic0(entry["topic0"], f"event {entry.get('name')!r}"),
                fields=fields,
                user_field=entry.get("user_field"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"malformed event entry {entry!r}: {exc}") from exc
        schema.validate()
        if any(e.event_name == schema.event_name for e in events):
            raise RegistryError(f"duplicate event name {schema.event_name!r}")
        if any(e.topic0 == schema.topic0 for e in events):
            raise RegistryError(f"event {schema.event_name!r}: duplicate topic0")
        events.append(schema)

    return Registry(chains=tuple(chains), events=tuple(events))
