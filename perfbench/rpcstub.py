"""In-process JSON-RPC stub standing in for the ``requests`` session of ``HttpGateway``.

It serves one chain of a fixture corpus the way an Ethereum node would
(hex quantities, JSON text bodies) and behaves like a provider with a
block-span limit: an ``eth_getLogs`` request wider than ``max_span`` blocks
gets the error "query returned more than 10000 results". The answer depends
only on the request itself, never on call order, so a client that merges or
reorders requests meets the same provider.

Every POST waits ``delay_s`` to stand for network latency. Single requests
and JSON-RPC 2.0 batch arrays (spec section 6) are both served, whether the
body arrives as ``json=`` or as ``data=``.
"""

from __future__ import annotations

import bisect
import json
import threading
import time

TOO_LARGE = {"code": -32005, "message": "query returned more than 10000 results"}


class StubResponse:
    """The slice of ``requests.Response`` that ``HttpGateway`` reads."""

    def __init__(self, text: str, status_code: int = 200):
        self.status_code = status_code
        self.text = text

    def json(self):
        return json.loads(self.text)


class RpcStub:
    """Closed-loop JSON-RPC endpoint over one chain's corpus records.

    ``records`` are corpus log dicts (``corpusgen`` layout); ``timestamps``
    maps every block that carries a log to its timestamp. Counters:
    ``posts`` (round trips), ``single_by_method`` (single-request POSTs by
    method), ``requests_by_method`` (requests by method, batch entries
    included), ``batch_posts`` and ``delay_total_s`` (time spent in the
    delay).
    """

    def __init__(self, records: list[dict], timestamps: dict[int, int], head: int,
                 max_span: int, delay_s: float, tracer=None):
        self._head = head
        self._timestamps = dict(timestamps)
        self._max_span = max_span
        self._delay_s = delay_s
        self.tracer = tracer
        self._lock = threading.Lock()
        # (address, topic0) -> (sorted block numbers, rendered logs in key order)
        self._index: dict[tuple[str, str], tuple[list[int], list[dict]]] = {}
        for record in sorted(records, key=lambda r: (r["blockNumber"], r["logIndex"])):
            key = (record["address"].lower(), record["topics"][0].lower())
            blocks, logs = self._index.setdefault(key, ([], []))
            blocks.append(record["blockNumber"])
            logs.append({
                "address": record["address"],
                "topics": record["topics"],
                "data": record["data"],
                "blockNumber": hex(record["blockNumber"]),
                "transactionHash": record["transactionHash"],
                "transactionIndex": hex(record["transactionIndex"]),
                "logIndex": hex(record["logIndex"]),
                "removed": False,
            })
        self.reset()

    def reset(self) -> None:
        self.posts = 0
        self.batch_posts = 0
        self.single_by_method: dict[str, int] = {}
        self.requests_by_method: dict[str, int] = {}
        self.delay_total_s = 0.0
        self.rows_served = 0
        # topic0 -> block ranges answered with logs, for the coverage check
        self.served_ranges: dict[str, list[tuple[int, int]]] = {}

    # -- the requests.Session surface -------------------------------------------

    def post(self, url, json=None, data=None, timeout=None, **_kwargs) -> StubResponse:
        tracer = self.tracer
        span = tracer.enter("stub.post") if tracer else None
        try:
            body = json if json is not None else _loads(data)
            if isinstance(body, list):
                reply = ([self._answer(request) for request in body] if body
                         else _error_reply(None, -32600, "empty batch"))
                method = None
            else:
                reply = self._answer(body)
                method = body.get("method", "?") if isinstance(body, dict) else "?"
            text = _dumps(reply)
            handled = time.perf_counter()
            if self._delay_s:
                delay = tracer.enter("stub.delay") if tracer else None
                # spin rather than sleep: the delay stays exact however late
                # the scheduler would wake a sleeping thread
                deadline = handled + self._delay_s
                while time.perf_counter() < deadline:
                    pass
                if delay:
                    tracer.leave(delay)
            waited = time.perf_counter() - handled
            with self._lock:
                self.posts += 1
                if method is None:
                    self.batch_posts += 1
                else:
                    self.single_by_method[method] = self.single_by_method.get(method, 0) + 1
                self.delay_total_s += waited
            return StubResponse(text)
        finally:
            if span:
                tracer.leave(span)

    # -- JSON-RPC methods -----------------------------------------------------------

    def _answer(self, request) -> dict:
        if not isinstance(request, dict) or "method" not in request:
            return _error_reply(None, -32600, "invalid request")
        rid = request.get("id")
        method = request["method"]
        params = request.get("params") or []
        with self._lock:
            self.requests_by_method[method] = self.requests_by_method.get(method, 0) + 1
        if method == "eth_blockNumber":
            return {"jsonrpc": "2.0", "id": rid, "result": hex(self._head)}
        if method == "eth_getBlockByNumber":
            number = int(params[0], 16)
            if number > self._head or number not in self._timestamps:
                return {"jsonrpc": "2.0", "id": rid, "result": None}
            block = {"number": hex(number), "timestamp": hex(self._timestamps[number])}
            return {"jsonrpc": "2.0", "id": rid, "result": block}
        if method == "eth_getLogs":
            return self._get_logs(rid, params[0])
        return _error_reply(rid, -32601, f"method {method} not found")

    def _get_logs(self, rid, flt: dict) -> dict:
        lo = int(flt["fromBlock"], 16)
        hi = int(flt["toBlock"], 16)
        if hi - lo + 1 > self._max_span:
            return {"jsonrpc": "2.0", "id": rid, "error": dict(TOO_LARGE)}
        topic0 = flt["topics"][0].lower()
        blocks, logs = self._index.get((flt["address"].lower(), topic0), ([], []))
        selected = logs[bisect.bisect_left(blocks, lo):bisect.bisect_right(blocks, hi)]
        with self._lock:
            self.served_ranges.setdefault(topic0, []).append((lo, hi))
            self.rows_served += len(selected)
        return {"jsonrpc": "2.0", "id": rid, "result": selected}

    # -- checks ---------------------------------------------------------------------

    def coverage_errors(self, topics: list[str], first: int, last: int) -> list[str]:
        """Topics whose answered ranges do not cover [first, last] exactly once."""
        errors = []
        for topic0 in topics:
            ranges = sorted(self.served_ranges.get(topic0.lower(), []))
            cursor = first
            for lo, hi in ranges:
                if lo != cursor:
                    errors.append(f"{topic0}: expected a range from {cursor}, got [{lo}, {hi}]")
                    break
                cursor = hi + 1
            else:
                if cursor != last + 1:
                    errors.append(f"{topic0}: coverage ends at {cursor - 1}, not {last}")
        return errors


def _loads(data):
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    return json.loads(data)


def _dumps(reply) -> str:
    return json.dumps(reply, separators=(",", ":"))


def _error_reply(rid, code: int, message: str) -> dict:
    return {"jsonrpc": "2.0", "id": rid, "error": {"code": code, "message": message}}
