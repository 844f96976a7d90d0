"""JSON-RPC access to Pool logs, with a fault taxonomy and a fixture emulator.

Two transports implement the same surface: ``HttpGateway`` speaks JSON-RPC
over HTTP to a live endpoint, ``FixtureGateway`` replays a hand-built corpus
(optionally injecting scripted faults) so the whole pipeline is testable
offline and deterministically.

Error classification is total: every provider failure maps to exactly one of
RATE_LIMITED, RESPONSE_TOO_LARGE, TRANSIENT or TERMINAL. The first two are
surfaced immediately because they drive the scanner's batch resizing;
TRANSIENT failures are retried in-gateway before surfacing.

A chain scans all its event streams with one cursor (see ``scanner``), so a
``LogQuery`` asks one block range of the Pool for several topic0s, and
``get_logs`` answers it whole: its logs of every topic0 asked, in key order,
each with its block timestamp, or the query's one classified error.
``HttpGateway`` sends one JSON-RPC 2.0 batch
(https://www.jsonrpc.org/specification, section 6) of an ``eth_getLogs`` per
topic0, then one timestamp lookup over every block the answer holds, in
batches of ``eth_getBlockByNumber`` requests; no timestamp is kept for the
next answer, since a chain's cursor asks each range once. A server that
refuses a batch as too large halves the gateway's batch limit (at first
``TIMESTAMP_BATCH_MAX``) for the rest of the run, and the refused requests go
again at once in smaller POSTs, so no answer is lost and no range narrowed. A
server that refuses a batch of one is not supported.

Only building an ``HttpGateway`` imports the HTTP client (``requests``), so
only ``extract --live`` loads it: the offline commands neither pay its import
time nor hold its memory.
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
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

if TYPE_CHECKING:
    import requests

TRANSIENT_BACKOFF_S = (1.0, 2.0, 4.0)  # one pause per retry
REQUEST_TIMEOUT_S = 30.0
# requests per batch POST until a server refuses a batch as too large: the
# smallest default batch limit of the node clients (Erigon's --rpc.batch.limit,
# 100; go-ethereum's --rpc.batch-request-limit, 1000; Besu's and Nethermind's, 1024)
TIMESTAMP_BATCH_MAX = 100


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
    topics: tuple[bytes, ...]  # the topic0s asked; a log matches any of them

    def validate(self) -> None:
        if self.from_block > self.to_block:
            raise ValueError(f"from_block {self.from_block} above to_block {self.to_block}")
        if self.from_block < 0:
            raise ValueError("negative from_block")
        if not self.address:
            raise ValueError("empty address")
        if not self.topics or any(len(topic0) != 32 for topic0 in self.topics):
            raise ValueError("a query asks one or more topic0s of 32 bytes")


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


_HEX_QUANTITY = re.compile("0x[0-9a-fA-F]+")


def _hex_int(value) -> int:
    """The one parser of a JSON-RPC quantity: ``0x`` and hex digits, nothing else."""
    if isinstance(value, str) and _HEX_QUANTITY.fullmatch(value):
        return int(value, 16)
    raise ValueError(f"{value!r:.80} is not a hex quantity")


def _quantity(value) -> int:  # JSON-RPC hex, or a plain integer in the fixture corpus
    return value if type(value) is int else _hex_int(value)


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
    A log the provider marks ``removed`` (dropped by a reorg) is TRANSIENT, so
    its range is asked again and the log is never written.
    """
    values = []
    for key, convert in _LOG_FIELDS:
        try:
            values.append(convert(entry[key]))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            block = entry.get("blockNumber") if isinstance(entry, dict) else None
            raise GatewayError(ErrorKind.TERMINAL,
                               f"log in block {block}: field {key!r}: {exc!r}") from None
    if entry.get("removed"):
        raise GatewayError(ErrorKind.TRANSIENT,
                           f"log ({values[3]}, {values[5]}) removed by a reorg")
    return RawLog(*values)


def _hex_quantity(value, what: str) -> int:
    """A hex quantity of a JSON-RPC answer; anything else is TERMINAL, naming ``what``."""
    try:
        return _hex_int(value)
    except ValueError as exc:
        raise GatewayError(ErrorKind.TERMINAL, f"{what}: {exc}") from None


_TOO_LARGE_PATTERNS = (
    "more than",  # "query returned more than 10000 results"
    "response size exceeded",
    "response too large",
    "result set too large",
    "log response size",
    "exceeds the limit",
    # a batch above the server's request limit: go-ethereum ("batch too large",
    # -32600), Erigon ("batch limit N exceeded"), Besu and Nethermind ("batch size")
    "batch too large",
    "batch limit",
    "batch size",
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


def _enrich(logs: list[RawLog], fetch: Callable[[list[int]], dict[int, int]]) -> list[RawLog]:
    """``logs``, each given its block timestamp by one ``fetch`` of their distinct blocks."""
    timestamps = fetch(sorted({log.block_number for log in logs}))
    for log in logs:
        log.block_timestamp = timestamps[log.block_number]
    return logs


class HttpGateway:
    """Live JSON-RPC transport with in-gateway retry of transient failures. One
    thread calls it, so the batch limit and the request ids take no lock."""

    batch_limit = TIMESTAMP_BATCH_MAX  # requests per batch POST

    def __init__(
        self,
        url: str,
        timeout: float = REQUEST_TIMEOUT_S,
        sleeper: Callable[[float], None] = time.sleep,
        session: requests.Session | None = None,
    ):
        import requests

        self._url = url
        self._timeout = timeout
        self._sleeper = sleeper
        self._session = session or requests.Session()
        self._transport_error = requests.RequestException
        self._id = 0  # JSON-RPC request id

    def _request(self, method: str, params: list) -> dict:
        self._id += 1
        return {"jsonrpc": "2.0", "id": self._id, "method": method, "params": params}

    def _post(self, body: dict | list, read: Callable[[object], object],
              pauses: Iterator[float] | None = None):
        """POST ``body`` and return ``read`` of the decoded reply, ``read``'s
        shape checks included in the retried unit."""
        return self._retried(lambda: read(self._post_once(body)), pauses)

    def _retried(self, attempt: Callable[[], object], pauses: Iterator[float] | None = None):
        """``attempt()``, one retried unit: a TRANSIENT failure anywhere in it is
        retried after each pause of ``pauses`` (by default a fresh
        TRANSIENT_BACKOFF_S); other kinds surface at once.
        """
        pauses = iter(TRANSIENT_BACKOFF_S) if pauses is None else pauses
        while True:
            try:
                return attempt()
            except GatewayError as exc:
                if exc.kind is not ErrorKind.TRANSIENT or (pause := next(pauses, None)) is None:
                    raise
            self._sleeper(pause)

    def _post_once(self, body: dict | list) -> object:
        try:
            response = self._session.post(self._url, json=body, timeout=self._timeout)
        except self._transport_error as exc:
            raise classify_error(exception=exc) from exc
        if response.status_code != 200:
            raise classify_error(
                status_code=response.status_code, message=response.text[:500]
            )
        try:
            return response.json()
        except ValueError as exc:
            raise GatewayError(ErrorKind.TRANSIENT, f"non-JSON response: {exc}") from exc

    def _post_batch(self, batch: list[dict], read: Callable[[list[dict], object], list],
                    pauses: Iterator[float] | None = None) -> list:
        """One answer per request of ``batch``, in order: ``read(chunk, reply)``
        of each POST of a chunk of at most ``batch_limit`` requests, each
        retried as ``_post`` does (all of them drawing on ``pauses``, if given).

        A chunk refused as too large halves the limit for the rest of the run
        and goes again at once; a refused batch of one request surfaces.
        """
        answers: list = []
        while len(answers) < len(batch):
            chunk = batch[len(answers):len(answers) + self.batch_limit]
            try:
                answers += self._post(chunk, partial(read, chunk), pauses)
            except GatewayError as exc:
                if exc.kind is not ErrorKind.RESPONSE_TOO_LARGE or len(chunk) == 1:
                    raise
                self.batch_limit = len(chunk) // 2
        return answers

    def _call(self, method: str, params: list, read: Callable[[object], object]):
        """One request; ``read`` checks its result and returns the answer."""

        def read_reply(reply):
            if not isinstance(reply, dict):
                raise GatewayError(ErrorKind.TERMINAL,
                                   f"{method}: reply {reply!r:.80} is not a JSON-RPC object")
            _raise_rpc_error(reply)
            return read(reply.get("result"))

        return self._post(self._request(method, params), read_reply)

    def get_logs(self, query: LogQuery) -> list[RawLog]:
        """One batch of an ``eth_getLogs`` per topic0 over the query's range;
        any entry's error is the query's. A TRANSIENT entry (a log removed by a
        reorg, say) asks the whole batch again after a pause. These pauses and
        those of a failed POST draw on one TRANSIENT_BACKOFF_S, so a query
        makes at most three TRANSIENT retries. Only a refusal of the batch
        itself halves ``batch_limit``, never an entry's refusal of its span."""
        query.validate()
        batch = [self._request("eth_getLogs", [{
            "fromBlock": hex(query.from_block),
            "toBlock": hex(query.to_block),
            "address": query.address,
            "topics": ["0x" + topic0.hex()],
        }]) for topic0 in query.topics]
        pauses = iter(TRANSIENT_BACKOFF_S)
        logs = self._retried(
            lambda: _read_logs(query, self._post_batch(batch, _match_batch, pauses)), pauses)
        return _enrich(logs, self._fetch_block_timestamps)

    def _fetch_block_timestamps(self, blocks: list[int]) -> dict[int, int]:
        batch = [self._request("eth_getBlockByNumber", [hex(block), False]) for block in blocks]
        return dict(zip(blocks, self._post_batch(batch, _read_timestamps)))

    def latest_block(self) -> int:
        return self._call("eth_blockNumber", [],
                          partial(_hex_quantity, what="eth_blockNumber result"))


def _raise_rpc_error(reply: dict) -> None:
    """Raise the classified error of a JSON-RPC reply object that carries one."""
    error = reply.get("error")
    if error:
        if not isinstance(error, dict):
            error = {"message": str(error)}
        raise classify_error(message=str(error.get("message", "")), rpc_code=error.get("code"))


def _asked(request: dict) -> str:
    """What ``request`` asks for, as an error message names it."""
    params = request["params"][0]
    if request["method"] == "eth_getLogs":
        return f"blocks [{int(params['fromBlock'], 16)}, {int(params['toBlock'], 16)}]"
    return f"block {int(params, 16)}"


def _match_batch(chunk: list[dict], reply) -> list[dict]:
    """The entries of ``reply``, the reply to the batch ``chunk``, in request order.

    A server may answer a batch in any order, so entries are matched by id. A
    reply that is one error object (a batch throttled, or refused as too large),
    an unmatched entry's error, or any entry's error in a reply that leaves
    requests unanswered is classified; every other deviation is TERMINAL.
    """
    method = chunk[0]["method"]

    def malformed(detail: str) -> GatewayError:
        return GatewayError(ErrorKind.TERMINAL, f"{method}: {detail}")

    if isinstance(reply, dict):
        _raise_rpc_error(reply)
    if not isinstance(reply, list):
        raise malformed(f"batch reply {reply!r:.80} is neither an array nor an error object")
    position = {request["id"]: i for i, request in enumerate(chunk)}
    entries: list = [None] * len(chunk)
    for entry in reply:
        if not isinstance(entry, dict):
            raise malformed(f"batch entry {entry!r:.80} is not an object")
        rid = entry.get("id")
        i = position.get(rid) if isinstance(rid, int) else None
        if i is None:
            _raise_rpc_error(entry)
            raise malformed(f"answer with unknown id {rid!r:.80}")
        if entries[i] is not None:
            raise malformed(f"{_asked(chunk[i])} answered twice")
        entries[i] = entry
    if missing := [request for request, entry in zip(chunk, entries) if entry is None]:
        # go-ethereum refuses a batch too large as one error entry bearing the
        # id of the batch's first request
        for entry in entries:
            if entry is not None:
                _raise_rpc_error(entry)
        raise malformed(f"no answer for {_asked(missing[0])} ({len(missing)} unanswered)")
    return entries


def _read_logs(query: LogQuery, entries: list[dict]) -> list[RawLog]:
    """The logs of the ``eth_getLogs`` answers ``entries`` to ``query``, in key order."""
    logs: list[RawLog] = []
    for entry in entries:
        _raise_rpc_error(entry)
        result = entry.get("result")
        if not isinstance(result, list):
            raise GatewayError(ErrorKind.TERMINAL,
                               f"eth_getLogs: result {result!r:.80} is not a list")
        logs += map(parse_log, result)
    address = query.address.lower()
    for log in logs:
        if log.address != address:
            raise GatewayError(ErrorKind.TERMINAL, f"log {log.key} of foreign {log.address}")
        if not log.topics or log.topics[0] not in query.topics:
            raise GatewayError(ErrorKind.TERMINAL, f"log {log.key} of a topic0 not asked")
    return sorted(logs, key=lambda log: log.key)


def _read_timestamps(chunk: list[dict], reply) -> list[int]:
    """The timestamps of the blocks ``chunk`` asks for, from its reply."""
    timestamps = []
    for request, entry in zip(chunk, _match_batch(chunk, reply)):
        _raise_rpc_error(entry)
        block = int(request["params"][0], 16)
        result = entry.get("result")
        if result is None:
            raise GatewayError(ErrorKind.TERMINAL, f"block {block} beyond chain head")
        timestamp = result.get("timestamp") if isinstance(result, dict) else None
        timestamps.append(_hex_quantity(timestamp, f"block {block} timestamp"))
    return timestamps


# A fault script inspects (call_index, query) before each query is answered
# and may return an ErrorKind to inject for the whole query; None lets it through.
FaultScript = Callable[[int, LogQuery], Optional[ErrorKind]]


class FixtureGateway:
    """Deterministic corpus-backed emulator.

    The corpus is a per-chain set of raw logs sorted by (block_number,
    log_index) plus a block-to-timestamp table. ``calls`` records every query
    in order, faulted or not (the fault script sees them in the same order,
    and a fault fails its whole query), and ``block_fetches`` counts upstream
    timestamp lookups, so tests can observe batching.
    """

    def __init__(
        self,
        logs: Iterable[RawLog],
        block_timestamps: dict[int, int],
        head_block: int | None = None,
        fault_script: FaultScript | None = None,
    ):
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
        kind = self._fault_script(call_index, query) if self._fault_script else None
        if kind is not None:
            raise GatewayError(kind, f"injected fault on call {call_index}")
        lo = bisect.bisect_left(self._block_keys, query.from_block)
        hi = bisect.bisect_right(self._block_keys, query.to_block)
        address, topics = query.address.lower(), frozenset(query.topics)
        return _enrich([RawLog(log.address, log.topics, log.data, log.block_number,
                               log.transaction_hash, log.log_index)
                        for log in self._logs[lo:hi]
                        if log.address == address and log.topics and log.topics[0] in topics],
                       self._fetch_block_timestamps)

    def _fetch_block_timestamps(self, blocks: list[int]) -> dict[int, int]:
        timestamps = {}
        for block in blocks:
            self.block_fetches[block] = self.block_fetches.get(block, 0) + 1
            if block > self._head:
                raise GatewayError(
                    ErrorKind.TERMINAL, f"block {block} beyond chain head {self._head}"
                )
            try:
                timestamps[block] = self._timestamps[block]
            except KeyError:
                raise GatewayError(
                    ErrorKind.TERMINAL, f"no timestamp for block {block} in corpus"
                ) from None
        return timestamps

    def latest_block(self) -> int:
        return self._head
