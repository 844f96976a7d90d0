"""JSON-RPC access to Pool logs, with a fault taxonomy and a fixture emulator.

Two transports implement the same surface: ``HttpGateway`` speaks JSON-RPC
over HTTP to a live endpoint, ``FixtureGateway`` replays a hand-built corpus
(optionally injecting scripted faults) so the whole pipeline is testable
offline and deterministically.

Error classification is total: every provider failure maps to exactly one of
RATE_LIMITED, RESPONSE_TOO_LARGE, TRANSIENT or TERMINAL. The first two are
surfaced immediately because they drive the scanner's batch resizing;
TRANSIENT failures are retried in-gateway before surfacing.
"""

from __future__ import annotations

import bisect
import enum
import json
import os
import re
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

import requests

TRANSIENT_BACKOFF_S = (1.0, 2.0, 4.0)  # one pause per retry
REQUEST_TIMEOUT_S = 30.0


class ErrorKind(enum.Enum):
    RATE_LIMITED = "RateLimited"
    RESPONSE_TOO_LARGE = "ResponseTooLarge"
    TRANSIENT = "Transient"
    TERMINAL = "Terminal"


class GatewayError(Exception):
    def __init__(self, kind: ErrorKind, detail: str):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail

    def __reduce__(self):
        # the default rebuilds from ``args`` (the formatted message) and fails;
        # chain processes send their errors back to the parent by pickle
        return type(self), (self.kind, self.detail)


@dataclass(frozen=True)
class LogQuery:
    from_block: int
    to_block: int
    address: str
    topic0: bytes

    def validate(self) -> None:
        if self.from_block > self.to_block:
            raise ValueError(f"from_block {self.from_block} above to_block {self.to_block}")
        if self.from_block < 0:
            raise ValueError("negative from_block")
        if not self.address:
            raise ValueError("empty address")
        if len(self.topic0) != 32:
            raise ValueError("topic0 must be 32 bytes")


@dataclass(slots=True)
class RawLog:
    address: str
    topics: list[bytes]
    data: bytes
    block_number: int
    transaction_hash: str
    log_index: int
    block_timestamp: int = 0  # enriched by the gateway

    @property
    def key(self) -> tuple[int, int]:
        return (self.block_number, self.log_index)


def _lower_hex(pattern: re.Pattern, value: str) -> str:
    if not pattern.fullmatch(value := value.lower()):
        raise ValueError(f"{value!r} is not {pattern.pattern}")
    return value


def _quantity(value) -> int:  # JSON-RPC hex, or a plain integer in the fixture corpus
    return int(value, 16) if isinstance(value, str) else int(value)


# (JSON-RPC log key, conversion), in the order of RawLog's fields
_LOG_FIELDS = (
    ("address", partial(_lower_hex, re.compile("0x[0-9a-f]{40}"))),
    ("topics", lambda topics: [bytes.fromhex(t.removeprefix("0x")) for t in topics]),
    ("data", lambda data: bytes.fromhex(data.removeprefix("0x"))),
    ("blockNumber", _quantity),
    ("transactionHash", partial(_lower_hex, re.compile("0x[0-9a-f]{64}"))),
    ("logIndex", _quantity),
)


def parse_log(entry: dict) -> RawLog:
    """The one way a provider's log becomes a RawLog, for both gateways.

    Address and transaction hash reach shard rows as they are, so both must be
    lowercase ``0x`` hex of 20 and 32 bytes: no shard value needs CSV quoting.
    A missing key or a malformed value is TERMINAL, naming the field and block.
    """
    values = []
    for key, convert in _LOG_FIELDS:
        try:
            values.append(convert(entry[key]))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            block = entry.get("blockNumber") if isinstance(entry, dict) else None
            raise GatewayError(ErrorKind.TERMINAL,
                               f"log in block {block}: field {key!r}: {exc!r}") from None
    return RawLog(*values)


_TOO_LARGE_PATTERNS = (
    "more than",  # "query returned more than 10000 results"
    "response size exceeded",
    "response too large",
    "result set too large",
    "log response size",
    "exceeds the limit",
)
_RATE_LIMIT_PATTERNS = (
    "rate limit",
    "too many requests",
    "exceeded its compute",
    "capacity exceeded",
    "throughput",
)
_TERMINAL_PATTERNS = (
    "unauthorized",
    "api key",
    "invalid param",
    "method not found",
    "not authorized",
    "forbidden",
)


def classify_error(
    status_code: int | None = None,
    message: str = "",
    rpc_code: int | None = None,
    exception: BaseException | None = None,
) -> GatewayError:
    """Map any provider failure to its taxonomy kind. Total by construction."""
    text = message.lower()
    detail = message or (repr(exception) if exception else f"HTTP {status_code}")

    if any(p in text for p in _TOO_LARGE_PATTERNS):
        return GatewayError(ErrorKind.RESPONSE_TOO_LARGE, detail)
    if status_code == 429 or any(p in text for p in _RATE_LIMIT_PATTERNS):
        return GatewayError(ErrorKind.RATE_LIMITED, detail)
    if status_code in (401, 403) or any(p in text for p in _TERMINAL_PATTERNS):
        return GatewayError(ErrorKind.TERMINAL, detail)
    if rpc_code in (-32601, -32602, -32600):
        return GatewayError(ErrorKind.TERMINAL, detail)
    if rpc_code == -32005:  # provider "limit exceeded" without a clearer message
        return GatewayError(ErrorKind.RESPONSE_TOO_LARGE, detail)
    return GatewayError(ErrorKind.TRANSIENT, detail)


class _GatewayBase:
    """Block-timestamp cache; one upstream fetch per distinct block.

    ``extract`` builds one gateway per chain and calls it from one thread, so the
    cache and the request ids take no lock.
    """

    def __init__(self) -> None:
        self._ts_cache: dict[int, int] = {}

    def get_block_timestamp(self, block_number: int) -> int:
        ts = self._ts_cache.get(block_number)
        if ts is None:
            ts = self._ts_cache[block_number] = self._fetch_block_timestamp(block_number)
        return ts

    def _fetch_block_timestamp(self, block_number: int) -> int:
        raise NotImplementedError

    def _enrich(self, logs: list[RawLog]) -> list[RawLog]:
        for log in logs:
            log.block_timestamp = self.get_block_timestamp(log.block_number)
        return logs


class HttpGateway(_GatewayBase):
    """Live JSON-RPC transport with in-gateway retry of transient failures."""

    def __init__(
        self,
        url: str,
        timeout: float = REQUEST_TIMEOUT_S,
        sleeper: Callable[[float], None] = time.sleep,
        session: requests.Session | None = None,
    ):
        super().__init__()
        self._url = url
        self._timeout = timeout
        self._sleeper = sleeper
        self._session = session or requests.Session()
        self._id = 0  # JSON-RPC request id

    def _call(self, method: str, params: list) -> object:
        for pause in TRANSIENT_BACKOFF_S:
            try:
                return self._call_once(method, params)
            except GatewayError as exc:
                if exc.kind is not ErrorKind.TRANSIENT:
                    raise
            self._sleeper(pause)
        return self._call_once(method, params)

    def _call_once(self, method: str, params: list) -> object:
        self._id += 1
        body = {"jsonrpc": "2.0", "id": self._id, "method": method, "params": params}
        try:
            response = self._session.post(self._url, json=body, timeout=self._timeout)
        except requests.RequestException as exc:
            raise classify_error(exception=exc) from exc
        if response.status_code != 200:
            raise classify_error(
                status_code=response.status_code, message=response.text[:500]
            )
        try:
            payload = response.json()
        except (ValueError, json.JSONDecodeError) as exc:
            raise GatewayError(ErrorKind.TRANSIENT, f"non-JSON response: {exc}") from exc
        if "error" in payload and payload["error"]:
            err = payload["error"]
            raise classify_error(
                message=str(err.get("message", "")), rpc_code=err.get("code")
            )
        return payload.get("result")

    def get_logs(self, query: LogQuery) -> list[RawLog]:
        query.validate()
        raw = self._call(
            "eth_getLogs",
            [{
                "fromBlock": hex(query.from_block),
                "toBlock": hex(query.to_block),
                "address": query.address,
                "topics": ["0x" + query.topic0.hex()],
            }],
        )
        logs = [parse_log(entry) for entry in raw]
        for log in logs:
            if log.address != query.address.lower():
                raise GatewayError(ErrorKind.TERMINAL, f"log {log.key} of foreign {log.address}")
        logs.sort(key=lambda log: log.key)
        return self._enrich(logs)

    def _fetch_block_timestamp(self, block_number: int) -> int:
        block = self._call("eth_getBlockByNumber", [hex(block_number), False])
        if block is None:
            raise GatewayError(
                ErrorKind.TERMINAL, f"block {block_number} beyond chain head"
            )
        return int(block["timestamp"], 16)

    def latest_block(self) -> int:
        return int(self._call("eth_blockNumber", []), 16)


# A fault script inspects (call_index, query) before each get_logs and may
# return an ErrorKind to inject; None lets the call through.
FaultScript = Callable[[int, LogQuery], Optional[ErrorKind]]


def max_span_fault(max_span: int) -> FaultScript:
    """RESPONSE_TOO_LARGE for any query wider than ``max_span`` blocks."""

    def script(call_index: int, query: LogQuery) -> ErrorKind | None:
        if query.to_block - query.from_block + 1 > max_span:
            return ErrorKind.RESPONSE_TOO_LARGE
        return None

    return script


def scripted_faults(kinds: Iterable[ErrorKind | None]) -> FaultScript:
    """Inject the n-th entry on the n-th call; exhausted scripts inject nothing."""
    sequence = list(kinds)

    def script(call_index: int, query: LogQuery) -> ErrorKind | None:
        if call_index < len(sequence):
            return sequence[call_index]
        return None

    return script


class FixtureGateway(_GatewayBase):
    """Deterministic corpus-backed emulator.

    The corpus is a per-chain set of raw logs sorted by (block_number,
    log_index) plus a block-to-timestamp table. ``calls`` records every
    get_logs query (faulted or not) and ``block_fetches`` counts upstream
    timestamp lookups, so tests can observe batching and cache behaviour.
    """

    def __init__(
        self,
        logs: Iterable[RawLog],
        block_timestamps: dict[int, int],
        head_block: int | None = None,
        fault_script: FaultScript | None = None,
    ):
        super().__init__()
        self._logs = sorted(logs, key=lambda log: log.key)
        self._block_keys = [log.block_number for log in self._logs]
        self._timestamps = dict(block_timestamps)
        self._head = head_block if head_block is not None else (
            max(self._timestamps) if self._timestamps else 0
        )
        self._fault_script = fault_script
        self.calls: list[LogQuery] = []
        self.block_fetches: dict[int, int] = {}

    @classmethod
    def from_dir(cls, chain_dir: str, fault_script: FaultScript | None = None) -> "FixtureGateway":
        """Load ``logs.jsonl`` and ``blocks.json`` from a corpus chain directory."""
        with open(os.path.join(chain_dir, "logs.jsonl"), "r", encoding="utf-8") as fh:
            logs = [parse_log(json.loads(line)) for line in fh if line.strip()]
        with open(os.path.join(chain_dir, "blocks.json"), "r", encoding="utf-8") as fh:
            table = json.load(fh)
        timestamps = {int(k): int(v) for k, v in table["timestamps"].items()}
        return cls(logs, timestamps, head_block=int(table["head"]), fault_script=fault_script)

    def get_logs(self, query: LogQuery) -> list[RawLog]:
        query.validate()
        call_index = len(self.calls)
        self.calls.append(query)
        if self._fault_script is not None:
            kind = self._fault_script(call_index, query)
            if kind is not None:
                raise GatewayError(kind, f"injected fault on call {call_index}")
        lo = bisect.bisect_left(self._block_keys, query.from_block)
        hi = bisect.bisect_right(self._block_keys, query.to_block)
        address = query.address.lower()
        selected = [RawLog(log.address, log.topics, log.data, log.block_number,
                           log.transaction_hash, log.log_index)
                    for log in self._logs[lo:hi]
                    if log.address == address and log.topics and log.topics[0] == query.topic0]
        return self._enrich(selected)

    def _fetch_block_timestamp(self, block_number: int) -> int:
        self.block_fetches[block_number] = self.block_fetches.get(block_number, 0) + 1
        if block_number > self._head:
            raise GatewayError(
                ErrorKind.TERMINAL, f"block {block_number} beyond chain head {self._head}"
            )
        try:
            return self._timestamps[block_number]
        except KeyError:
            raise GatewayError(
                ErrorKind.TERMINAL, f"no timestamp for block {block_number} in corpus"
            ) from None

    def latest_block(self) -> int:
        return self._head
