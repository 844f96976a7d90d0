import json
import pickle
import socket

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from aavescan.gateway import (
    TIMESTAMP_BATCH_MAX,
    ErrorKind,
    FixtureGateway,
    GatewayError,
    HttpGateway,
    LogQuery,
    RawLog,
    classify_error,
)

from faults import max_span_fault, scripted_faults

POOL = "0x" + "aa" * 20
TOPIC = bytes.fromhex("11" * 32)
OTHER_TOPIC = bytes.fromhex("22" * 32)


def _log(block, index, topic=TOPIC, address=POOL):
    return RawLog(
        address=address,
        topics=[topic],
        data=b"",
        block_number=block,
        transaction_hash=f"0x{block:064x}",
        log_index=index,
    )


def _gateway(fault_script=None, head=1_000):
    logs = [
        _log(100, 0),
        _log(150, 0),
        _log(150, 1, topic=OTHER_TOPIC),
        _log(200, 2),
        _log(250, 0),
        _log(260, 0, address="0x" + "bb" * 20),
    ]
    timestamps = {100: 1_700_000_000, 150: 1_700_000_600, 200: 1_700_001_200,
                  250: 1_700_001_800, 260: 1_700_001_900}
    return FixtureGateway(logs, timestamps, head_block=head, fault_script=fault_script)


class TestClassification:
    def test_http_429_is_rate_limited(self):
        assert classify_error(status_code=429).kind is ErrorKind.RATE_LIMITED

    def test_too_many_results_is_response_too_large(self):
        err = classify_error(message="query returned more than 10000 results")
        assert err.kind is ErrorKind.RESPONSE_TOO_LARGE

    def test_http_401_is_terminal(self):
        assert classify_error(status_code=401).kind is ErrorKind.TERMINAL

    def test_timeout_is_transient(self):
        err = classify_error(exception=requests.Timeout("boom"))
        assert err.kind is ErrorKind.TRANSIENT

    def test_invalid_params_is_terminal(self):
        assert classify_error(message="invalid params", rpc_code=-32602).kind is ErrorKind.TERMINAL

    def test_alchemy_size_message_beats_rpc_code(self):
        err = classify_error(message="Log response size exceeded", rpc_code=-32602)
        assert err.kind is ErrorKind.RESPONSE_TOO_LARGE

    @pytest.mark.parametrize("message, code", [
        ("batch too large", -32600),  # go-ethereum
        ("batch limit 100 exceeded", -32000),  # Erigon
        ("Number of requests exceeds max batch size", -32005),  # Besu
        ("The batch size limit was exceeded.", -32005),  # Nethermind
    ])
    def test_batch_size_refusal_is_response_too_large(self, message, code):
        # so the scanner halves its range until an answer's batch fits
        err = classify_error(message=message, rpc_code=code)
        assert err.kind is ErrorKind.RESPONSE_TOO_LARGE

    @given(
        st.one_of(st.none(), st.integers(min_value=100, max_value=599)),
        st.text(max_size=80),
        st.one_of(st.none(), st.integers(min_value=-33000, max_value=0)),
    )
    def test_classification_is_total(self, status, message, code):
        err = classify_error(status_code=status, message=message, rpc_code=code)
        assert isinstance(err, GatewayError)
        assert err.kind in ErrorKind

    def test_error_survives_pickling(self):
        # chain processes send their errors back to the parent by pickle
        for kind in ErrorKind:
            err = pickle.loads(pickle.dumps(GatewayError(kind, "block 7 missing")))
            assert err.kind is kind
            assert err.detail == "block 7 missing"
            assert str(err) == f"{kind.value}: block 7 missing"


class TestFixtureGateway:
    def test_range_query_returns_sorted_matches(self):
        gw = _gateway()
        logs = gw.get_logs(LogQuery(100, 200, POOL, (TOPIC,)))
        assert [(l.block_number, l.log_index) for l in logs] == [(100, 0), (150, 0), (200, 2)]
        assert all(l.block_timestamp > 0 for l in logs)

    def test_empty_range(self):
        gw = _gateway()
        assert gw.get_logs(LogQuery(5, 5, POOL, (TOPIC,))) == []

    def test_address_and_topic_filters(self):
        gw = _gateway()
        logs = gw.get_logs(LogQuery(0, 1_000, POOL, (TOPIC,)))
        assert len(logs) == 4  # other address and other topic excluded

    def test_strictly_sorted_no_duplicates(self):
        gw = _gateway()
        logs = gw.get_logs(LogQuery(0, 1_000, POOL, (TOPIC,)))
        keys = [l.key for l in logs]
        assert keys == sorted(set(keys))

    def test_scripted_rate_limit_then_success(self):
        gw = _gateway(fault_script=scripted_faults([ErrorKind.RATE_LIMITED]))
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(100, 200, POOL, (TOPIC,)))
        assert excinfo.value.kind is ErrorKind.RATE_LIMITED
        logs = gw.get_logs(LogQuery(100, 200, POOL, (TOPIC,)))
        assert len(logs) == 3
        assert len(gw.calls) == 2

    def test_max_span_fault(self):
        gw = _gateway(fault_script=max_span_fault(50))
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(0, 100, POOL, (TOPIC,)))
        assert excinfo.value.kind is ErrorKind.RESPONSE_TOO_LARGE
        assert gw.get_logs(LogQuery(100, 149, POOL, (TOPIC,)))

    def test_block_beyond_head_terminal(self):
        gw = _gateway(head=500)
        with pytest.raises(GatewayError) as excinfo:
            gw._fetch_block_timestamps([501])
        assert excinfo.value.kind is ErrorKind.TERMINAL

    def test_latest_block(self):
        assert _gateway(head=1_234).latest_block() == 1_234

    def test_deterministic_across_instances(self):
        def snapshot(gw):
            logs = gw.get_logs(LogQuery(0, 1_000, POOL, (TOPIC,)))
            return [(l.key, l.topics, l.data, l.block_timestamp, l.transaction_hash)
                    for l in logs]

        assert snapshot(_gateway()) == snapshot(_gateway())

    def test_enrichment_fetches_the_blocks_of_each_answer_again(self):
        gw = _gateway()
        gw.get_logs(LogQuery(0, 1_000, POOL, (TOPIC,)))
        gw.get_logs(LogQuery(100, 200, POOL, (TOPIC,)))  # overlaps the first answer
        assert gw.block_fetches == {100: 2, 150: 2, 200: 2, 250: 1}  # no cache

    def test_invalid_query_rejected(self):
        gw = _gateway()
        with pytest.raises(ValueError):
            gw.get_logs(LogQuery(10, 5, POOL, (TOPIC,)))

    def test_corpus_roundtrip(self, tmp_path):
        chain_dir = tmp_path / "testchain"
        chain_dir.mkdir()
        record = {
            "address": POOL,
            "topics": ["0x" + "11" * 32],
            "data": "0x" + "00" * 32,
            "blockNumber": 42,
            "transactionHash": "0x" + "cd" * 32,
            "logIndex": 7,
            "transactionIndex": 3,
        }
        (chain_dir / "logs.jsonl").write_text(json.dumps(record) + "\n")
        (chain_dir / "blocks.json").write_text(
            json.dumps({"head": 100, "timestamps": {"42": 1_700_000_042}})
        )
        gw = FixtureGateway.from_dir(str(chain_dir))
        logs = gw.get_logs(LogQuery(0, 100, POOL, (TOPIC,)))
        assert len(logs) == 1
        assert logs[0].block_timestamp == 1_700_000_042
        assert logs[0].data == b"\x00" * 32


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class _FakeSession:
    """Replays a scripted sequence of responses/exceptions for post(); a
    callable in the script makes the response from the request body."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []

    def post(self, url, json=None, timeout=None):
        self.requests.append(json)
        action = self.script.pop(0)
        if callable(action):
            action = action(json)
        if isinstance(action, BaseException):
            raise action
        return action


def _blocks_reply(timestamps):
    """The reply to a batch of eth_getBlockByNumber requests, echoing their ids
    in reverse order (a server may answer a batch in any order). ``timestamps``
    maps each block to its ``timestamp`` value; None stands for a null result."""

    def reply(batch):
        entries = []
        for request in batch:
            timestamp = timestamps[int(request["params"][0], 16)]
            entries.append({"jsonrpc": "2.0", "id": request["id"],
                            "result": None if timestamp is None else {"timestamp": timestamp}})
        return _FakeResponse(payload=entries[::-1])

    return reply


def _logs_reply(entries):
    """The reply to a batch of one eth_getLogs request whose result is ``entries``."""
    return lambda batch: _FakeResponse(payload=[{"jsonrpc": "2.0", "id": batch[0]["id"],
                                                 "result": entries}])


def _http(script, sleeper=lambda _s: None):
    session = _FakeSession(script)
    return HttpGateway("http://unit.test", session=session, sleeper=sleeper), session


class TestHttpGateway:
    def test_get_logs_parses_and_sorts(self):
        result = [
            {
                "address": POOL.upper(),
                "topics": ["0x" + "11" * 32],
                "data": "0x" + "00" * 32,
                "blockNumber": "0x64",
                "transactionHash": "0x" + "ABC0" * 16,
                "logIndex": "0x1",
                "transactionIndex": "0x0",
            },
            {
                "address": POOL,
                "topics": ["0x" + "11" * 32],
                "data": "0x",
                "blockNumber": "0x63",
                "transactionHash": "0x" + "abc1" * 16,
                "logIndex": "0x0",
                "transactionIndex": "0x0",
            },
        ]
        session = _FakeSession([
            _logs_reply(result),
            _blocks_reply({99: "0x5f5e100", 100: "0x5f5e101"}),
        ])
        gw = HttpGateway("http://unit.test", session=session, sleeper=lambda _s: None)
        logs = gw.get_logs(LogQuery(99, 100, POOL, (TOPIC,)))
        assert [l.block_number for l in logs] == [99, 100]
        assert logs[0].address == POOL
        assert logs[0].block_timestamp == 0x5F5E100
        (request,) = session.requests[0]  # a batch, even of one query
        assert request["method"] == "eth_getLogs"
        assert request["params"][0]["fromBlock"] == hex(99)

    def test_transient_retry_then_success(self):
        sleeps = []
        session = _FakeSession([
            requests.ConnectionError("nope"),
            requests.Timeout("slow"),
            _FakeResponse(payload={"jsonrpc": "2.0", "id": 1, "result": "0x10"}),
        ])
        gw = HttpGateway("http://unit.test", session=session, sleeper=sleeps.append)
        assert gw.latest_block() == 16
        assert sleeps == [1.0, 2.0]

    def test_transient_retries_exhausted_surface(self):
        session = _FakeSession([requests.Timeout("slow")] * 4)
        gw = HttpGateway("http://unit.test", session=session, sleeper=lambda _s: None)
        with pytest.raises(GatewayError) as excinfo:
            gw.latest_block()
        assert excinfo.value.kind is ErrorKind.TRANSIENT

    def test_refused_connection_is_retried_then_transient(self, monkeypatch):
        """No injected session: the HTTP client's own errors are what gets classified."""
        for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
            monkeypatch.delenv(name, raising=False)
        with socket.socket() as probe:  # a loopback port that nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        sleeps = []
        gw = HttpGateway(f"http://127.0.0.1:{port}", sleeper=sleeps.append)
        posts = []
        post = gw._session.post
        monkeypatch.setattr(gw._session, "post",
                            lambda *args, **kwargs: posts.append(1) or post(*args, **kwargs))
        with pytest.raises(GatewayError) as excinfo:
            gw.latest_block()
        assert excinfo.value.kind is ErrorKind.TRANSIENT
        assert isinstance(excinfo.value.__cause__, requests.ConnectionError)
        assert len(posts) == 4
        assert sleeps == [1.0, 2.0, 4.0]

    def test_rate_limit_surfaces_immediately(self):
        session = _FakeSession([_FakeResponse(status_code=429, text="slow down")])
        gw = HttpGateway("http://unit.test", session=session, sleeper=lambda _s: None)
        with pytest.raises(GatewayError) as excinfo:
            gw.latest_block()
        assert excinfo.value.kind is ErrorKind.RATE_LIMITED
        assert len(session.requests) == 1

    def test_rpc_error_classified(self):
        session = _FakeSession([
            _FakeResponse(payload={"jsonrpc": "2.0", "id": 1, "error": {
                "code": -32602, "message": "query returned more than 10000 results"}}),
        ])
        gw = HttpGateway("http://unit.test", session=session, sleeper=lambda _s: None)
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(0, 10, POOL, (TOPIC,)))
        assert excinfo.value.kind is ErrorKind.RESPONSE_TOO_LARGE

    def test_missing_block_terminal(self):
        session = _FakeSession([_blocks_reply({10**9: None})])
        gw = HttpGateway("http://unit.test", session=session, sleeper=lambda _s: None)
        with pytest.raises(GatewayError) as excinfo:
            gw._fetch_block_timestamps([10**9])
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert f"block {10**9} beyond chain head" in excinfo.value.detail


def _rpc_log(**changes):
    """One well-formed eth_getLogs entry for block 100 of POOL, with ``changes``
    applied; a value of None deletes the key."""
    entry = {
        "address": POOL,
        "topics": ["0x" + "11" * 32],
        "data": "0x" + "00" * 32,
        "blockNumber": "0x64",
        "transactionHash": "0x" + "cd" * 32,
        "logIndex": "0x0",
    }
    entry.update(changes)
    return {key: value for key, value in entry.items() if value is not None}


def _http_get_logs(entries, query=LogQuery(0, 200, POOL, (TOPIC,))):
    session = _FakeSession([_logs_reply(entries), _blocks_reply({100: "0x10"})])
    return HttpGateway("http://unit.test", session=session, sleeper=lambda _s: None).get_logs(query)


def _fixture_get_logs(tmp_path, entries):
    chain_dir = tmp_path / "testchain"
    chain_dir.mkdir()
    corpus = [{key: int(value, 16) if key in ("blockNumber", "logIndex") else value
               for key, value in entry.items()} for entry in entries]  # plain integers
    (chain_dir / "logs.jsonl").write_text("".join(json.dumps(e) + "\n" for e in corpus))
    (chain_dir / "blocks.json").write_text(json.dumps({"head": 200, "timestamps": {"100": 16}}))
    return FixtureGateway.from_dir(str(chain_dir)).get_logs(LogQuery(0, 200, POOL, (TOPIC,)))


# a value written to a shard unquoted must never need quoting, so the one log
# parser rejects anything but lowercase 0x hex of the right length
MALFORMED = {
    "hash_with_comma": ("transactionHash", "0x" + "cd" * 31 + ",d"),
    "hash_with_quote": ("transactionHash", "0x" + "cd" * 31 + '"d'),
    "short_hash": ("transactionHash", "0x" + "cd" * 31),
    "address_with_comma": ("address", POOL[:-2] + ",a"),
    "address_with_quote": ("address", POOL[:-2] + '"a'),
    "non_hex_data": ("data", "0x" + "0g" * 32),
    "non_hex_topic": ("topics", ["0x" + "1x" * 32]),
    "missing_log_index": ("logIndex", None),
}


class TestOneLogParser:
    @pytest.mark.parametrize("gateway", ["http", "fixture"])
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_log_is_terminal_naming_field_and_block(self, case, gateway, tmp_path):
        field, value = MALFORMED[case]
        entries = [_rpc_log(**{field: value})]
        with pytest.raises(GatewayError) as excinfo:
            if gateway == "http":
                _http_get_logs(entries)
            else:
                _fixture_get_logs(tmp_path, entries)
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert repr(field) in excinfo.value.detail
        assert "block " + ("0x64" if gateway == "http" else "100") in excinfo.value.detail

    def test_foreign_address_in_http_response_is_terminal(self):
        foreign = "0x" + "bb" * 20
        with pytest.raises(GatewayError) as excinfo:
            _http_get_logs([_rpc_log(), _rpc_log(address=foreign, logIndex="0x1")])
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert foreign in excinfo.value.detail

    @pytest.mark.parametrize("field", ["blockNumber", "logIndex"])
    def test_decimal_string_quantity_is_terminal(self, field):
        # "16" is no hex quantity, in a log as in a block's timestamp
        with pytest.raises(GatewayError) as excinfo:
            _http_get_logs([_rpc_log(**{field: "16"})])
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert repr(field) in excinfo.value.detail

    def test_both_gateways_parse_alike(self, tmp_path):
        entry = _rpc_log(address=POOL.upper().replace("0X", "0x"),
                         transactionHash="0x" + "CD" * 32)
        assert _http_get_logs([entry]) == _fixture_get_logs(tmp_path, [entry])
        assert _http_get_logs([entry])[0].transaction_hash == "0x" + "cd" * 32


def _logs_in_blocks(blocks):
    return [_rpc_log(blockNumber=hex(block), transactionHash=f"0x{block:064x}")
            for block in blocks]


class TestTimestampBatches:
    """Block timestamps come from one batched lookup per get_logs answer."""

    def test_one_batch_per_answer_in_ascending_block_order(self):
        gw, session = _http([_logs_reply(_logs_in_blocks([102, 100, 101, 100])),
                             _blocks_reply({100: "0x10", 101: "0x11", 102: "0x12"})])
        logs = gw.get_logs(LogQuery(0, 200, POOL, (TOPIC,)))
        assert [l.block_timestamp for l in logs] == [0x10, 0x10, 0x11, 0x12]
        batch = session.requests[1]
        assert [request["params"] for request in batch] == [
            [hex(100), False], [hex(101), False], [hex(102), False]]
        assert {request["method"] for request in batch} == {"eth_getBlockByNumber"}
        assert len({request["id"] for request in batch}) == 3

    def test_chunks_of_at_most_timestamp_batch_max(self):
        blocks = list(range(1_000, 1_000 + 2 * TIMESTAMP_BATCH_MAX + 50))
        timestamps = {block: hex(block * 12) for block in blocks}
        gw, session = _http([_logs_reply(_logs_in_blocks(blocks))]
                            + [_blocks_reply(timestamps)] * 3)
        logs = gw.get_logs(LogQuery(0, 5_000, POOL, (TOPIC,)))
        assert [l.block_timestamp for l in logs] == [block * 12 for block in blocks]
        batches = session.requests[1:]
        assert [len(batch) for batch in batches] == [TIMESTAMP_BATCH_MAX, TIMESTAMP_BATCH_MAX, 50]
        asked = [int(request["params"][0], 16) for batch in batches for request in batch]
        assert asked == blocks
        ids = [request["id"] for batch in batches for request in batch]
        assert len(set(ids)) == len(ids)

    def test_single_block_lookup_is_a_batch_of_one(self):
        gw, session = _http([_blocks_reply({7: "0x70"})])
        assert gw._fetch_block_timestamps([7]) == {7: 0x70}
        assert isinstance(session.requests[0], list) and len(session.requests[0]) == 1

    def test_rate_limited_entry_surfaces_as_rate_limited(self):
        def throttled(batch):
            entries = [{"jsonrpc": "2.0", "id": request["id"], "result": {"timestamp": "0x1"}}
                       for request in batch]
            entries[1] = {"jsonrpc": "2.0", "id": batch[1]["id"],
                          "error": {"code": -32005, "message": "Too Many Requests"}}
            return _FakeResponse(payload=entries)

        gw, session = _http([_logs_reply(_logs_in_blocks([100, 101, 102])), throttled])
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(0, 200, POOL, (TOPIC,)))
        assert excinfo.value.kind is ErrorKind.RATE_LIMITED
        assert len(session.requests) == 2  # surfaced at once, for the scanner to pause

    def test_throttled_batch_as_one_error_object_is_classified(self):
        gw, session = _http([_FakeResponse(payload={
            "jsonrpc": "2.0", "id": None,
            "error": {"code": -32005, "message": "rate limit exceeded"}})])
        with pytest.raises(GatewayError) as excinfo:
            gw._fetch_block_timestamps([100])
        assert excinfo.value.kind is ErrorKind.RATE_LIMITED
        assert isinstance(session.requests[0], list)

    def test_transient_entry_retries_the_whole_batch(self):
        def flaky(batch):
            return _FakeResponse(payload=[{"jsonrpc": "2.0", "id": batch[0]["id"],
                                           "error": {"code": -32000,
                                                     "message": "header not found"}}])

        sleeps = []
        gw, session = _http([flaky, _blocks_reply({100: "0x10"})], sleeper=sleeps.append)
        assert gw._fetch_block_timestamps([100]) == {100: 0x10}
        assert sleeps == [1.0]
        assert session.requests[0] == session.requests[1]

    @pytest.mark.parametrize("mangle", ["unknown_id", "missing_id", "repeated_id",
                                        "unanswered"])
    def test_unmatched_ids_are_terminal(self, mangle):
        def reply(batch):
            entries = [{"jsonrpc": "2.0", "id": request["id"], "result": {"timestamp": "0x1"}}
                       for request in batch]
            if mangle == "unknown_id":
                entries[0]["id"] = 10_000
            elif mangle == "missing_id":
                del entries[0]["id"]
            elif mangle == "repeated_id":
                entries[1]["id"] = entries[0]["id"]
            else:
                del entries[1]
            return _FakeResponse(payload=entries)

        gw, _session = _http([_logs_reply(_logs_in_blocks([100, 101])), reply])
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(0, 200, POOL, (TOPIC,)))
        assert excinfo.value.kind is ErrorKind.TERMINAL
        named = {"unknown_id": "10000", "missing_id": "None", "repeated_id": "block 100",
                 "unanswered": "block 101"}[mangle]
        assert named in excinfo.value.detail

    def test_fixture_gateway_fetches_each_answer_in_one_call(self):
        gw = _gateway()
        calls = []
        fetch = gw._fetch_block_timestamps
        gw._fetch_block_timestamps = lambda blocks: (calls.append(list(blocks)), fetch(blocks))[1]
        gw.get_logs(LogQuery(0, 1_000, POOL, (TOPIC,)))
        gw.get_logs(LogQuery(0, 1_000, POOL, (TOPIC,)))
        assert calls == [[100, 150, 200, 250]] * 2  # an answer's blocks, once per answer
        assert gw.block_fetches == {100: 2, 150: 2, 200: 2, 250: 2}

    def test_http_gateway_fetches_the_blocks_of_each_answer_again(self):
        blocks = _blocks_reply({99: "0x0f", 100: "0x10"})
        gw, session = _http([_logs_reply(_logs_in_blocks([99, 100])), blocks] * 2)
        for _ in range(2):
            assert [l.block_timestamp for l in gw.get_logs(LogQuery(0, 200, POOL, (TOPIC,)))] == [
                0x0F, 0x10]
        asked = [[request["params"][0] for request in session.requests[i]] for i in (1, 3)]
        assert asked == [[hex(99), hex(100)]] * 2  # no cache: the second answer asks again

    def test_a_throttled_chunk_fails_the_answer_and_its_retry_asks_every_chunk(self):
        blocks = list(range(1_000, 1_000 + 2 * TIMESTAMP_BATCH_MAX + 50))
        timestamps = {block: hex(block * 12) for block in blocks}
        throttled = _FakeResponse(payload={"jsonrpc": "2.0", "id": None, "error": {
            "code": -32005, "message": "rate limit exceeded"}})
        gw, session = _http([_logs_reply(_logs_in_blocks(blocks)),
                             _blocks_reply(timestamps), throttled,
                             _logs_reply(_logs_in_blocks(blocks))]
                            + [_blocks_reply(timestamps)] * 3)
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(0, 5_000, POOL, (TOPIC,)))
        assert excinfo.value.kind is ErrorKind.RATE_LIMITED
        logs = gw.get_logs(LogQuery(0, 5_000, POOL, (TOPIC,)))  # the scanner's retry
        assert [l.block_timestamp for l in logs] == [block * 12 for block in blocks]
        asked = [[int(request["params"][0], 16) for request in session.requests[i]]
                 for i in (1, 2, 4, 5, 6)]
        first, second, third = (blocks[:TIMESTAMP_BATCH_MAX],
                                blocks[TIMESTAMP_BATCH_MAX:2 * TIMESTAMP_BATCH_MAX],
                                blocks[2 * TIMESTAMP_BATCH_MAX:])
        assert asked == [first, second, first, second, third]  # the first chunk goes again
        assert len(session.requests) == 7

    def test_an_answer_without_logs_posts_no_timestamp_batch(self):
        gw, session = _http([_logs_reply([])])
        assert gw.get_logs(LogQuery(0, 200, POOL, (TOPIC,))) == []
        assert len(session.requests) == 1  # the eth_getLogs batch only


class TestResponseShapes:
    """A provider answer of the wrong shape is TERMINAL naming the method."""

    @pytest.mark.parametrize("result", [None, {"logs": []}, "0x1", 7])
    def test_get_logs_result_not_a_list(self, result):
        gw, session = _http([_logs_reply(result)])
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(0, 200, POOL, (TOPIC,)))
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert "eth_getLogs" in excinfo.value.detail
        assert len(session.requests) == 1

    @pytest.mark.parametrize("block", [{}, {"timestamp": None}, {"timestamp": 16},
                                       {"timestamp": "0xzz"}, {"timestamp": "16"}, "0x10"])
    def test_block_without_hex_timestamp(self, block):
        def reply(batch):
            return _FakeResponse(payload=[{"jsonrpc": "2.0", "id": batch[0]["id"],
                                           "result": block}])

        gw, _session = _http([reply])
        with pytest.raises(GatewayError) as excinfo:
            gw._fetch_block_timestamps([100])
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert "block 100 timestamp" in excinfo.value.detail

    @pytest.mark.parametrize("result", ["latest", None, 16, "0x"])
    def test_non_hex_block_number(self, result):
        gw, _session = _http([_FakeResponse(payload={"jsonrpc": "2.0", "id": 1,
                                                     "result": result})])
        with pytest.raises(GatewayError) as excinfo:
            gw.latest_block()
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert "eth_blockNumber" in excinfo.value.detail

    @pytest.mark.parametrize("reply", [
        {"jsonrpc": "2.0", "id": 1, "result": {"timestamp": "0x10"}},
        "oops", 3, [7],
    ])
    def test_batch_reply_neither_array_nor_error_object(self, reply):
        gw, _session = _http([_FakeResponse(payload=reply)])
        with pytest.raises(GatewayError) as excinfo:
            gw._fetch_block_timestamps([100])
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert "eth_getBlockByNumber" in excinfo.value.detail


class TestReorgedLogs:
    """A log the provider marks removed is asked again, never written."""

    def test_removed_log_is_asked_again(self):
        sleeps = []
        gw, session = _http([_logs_reply([_rpc_log(removed=True)]),
                             _logs_reply([_rpc_log(removed=False)]),
                             _blocks_reply({100: "0x10"})], sleeper=sleeps.append)
        logs = gw.get_logs(LogQuery(0, 200, POOL, (TOPIC,)))
        assert [(l.key, l.block_timestamp) for l in logs] == [((100, 0), 0x10)]
        assert sleeps == [1.0]
        assert session.requests[0] == session.requests[1]

    def test_removed_every_time_surfaces_transient_after_four_attempts(self):
        sleeps = []
        gw, session = _http([_logs_reply([_rpc_log(), _rpc_log(logIndex="0x1", removed=True)])]
                            * 4, sleeper=sleeps.append)
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(0, 200, POOL, (TOPIC,)))
        assert excinfo.value.kind is ErrorKind.TRANSIENT
        assert "(100, 1)" in excinfo.value.detail
        assert sleeps == [1.0, 2.0, 4.0]
        assert len(session.requests) == 4

    def test_removed_logs_and_transport_errors_share_one_retry_budget(self):
        sleeps = []
        removed = _logs_reply([_rpc_log(removed=True)])
        gw, session = _http([removed, requests.ConnectionError("reset"), removed,
                             requests.Timeout("slow"), removed], sleeper=sleeps.append)
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(0, 200, POOL, (TOPIC,)))
        assert excinfo.value.kind is ErrorKind.TRANSIENT
        assert isinstance(excinfo.value.__cause__, requests.Timeout)
        assert sleeps == [1.0, 2.0, 4.0]
        assert len(session.requests) == 4


TOPICS = (TOPIC, OTHER_TOPIC, bytes.fromhex("33" * 32))


def _topic_reply(answers):
    """The reply to a query's batch of eth_getLogs requests, in reverse order:
    ``answers`` maps each request's topic0 to its result list, or to an error
    object (a dict)."""

    def reply(batch):
        entries = []
        for request in batch:
            answer = answers[bytes.fromhex(request["params"][0]["topics"][0][2:])]
            entries.append({"jsonrpc": "2.0", "id": request["id"],
                            "error" if isinstance(answer, dict) else "result": answer})
        return _FakeResponse(payload=entries[::-1])

    return reply


def _topic_logs(topic, blocks, log_index=0):
    return [_rpc_log(topics=["0x" + topic.hex()], blockNumber=hex(block),
                     transactionHash=f"0x{block:064x}", logIndex=hex(log_index))
            for block in blocks]


QUERY = LogQuery(0, 299, POOL, TOPICS)
TOO_LARGE = {"code": -32005, "message": "query returned more than 10000 results"}


class _BatchLimitedRpc:
    """Answers an eth_getLogs request with one log of its topic0 in each of its
    first ``logs_per_query`` blocks (the topic0's first byte as log index) and
    every block's timestamp, and refuses any batch of more than ``limit``
    requests: as go-ethereum does (an array of one error entry bearing the first
    request's id), or as one bare error object."""

    def __init__(self, limit, geth_refusal=True, logs_per_query=1):
        self.limit = limit
        self.geth_refusal = geth_refusal
        self.logs_per_query = logs_per_query
        self.sizes = []  # requests per POST
        self.answered = []  # (fromBlock, topic0) of each eth_getLogs answered
        self.blocks_asked = []  # block of each eth_getBlockByNumber answered

    def post(self, url, json=None, timeout=None):
        self.sizes.append(len(json))
        if len(json) > self.limit:
            error = {"jsonrpc": "2.0", "id": json[0]["id"] if self.geth_refusal else None,
                     "error": {"code": -32600, "message": "batch too large"}}
            return _FakeResponse(payload=[error] if self.geth_refusal else error)
        entries = []
        for request in json:
            params = request["params"][0]
            if request["method"] == "eth_getLogs":
                block, topic = int(params["fromBlock"], 16), bytes.fromhex(params["topics"][0][2:])
                self.answered.append((block, topic))
                result = _topic_logs(topic, range(block, block + self.logs_per_query), topic[0])
            else:
                self.blocks_asked.append(int(params, 16))
                result = {"timestamp": hex(int(params, 16) * 12)}
            entries.append({"jsonrpc": "2.0", "id": request["id"], "result": result})
        return _FakeResponse(payload=entries)


class TestSeveralTopics:
    """A query of several topic0s is one batch POST, then one timestamp lookup."""

    def test_one_post_and_one_lookup_per_query_answered_in_any_order(self):
        gw, session = _http([_topic_reply({TOPIC: _topic_logs(TOPIC, [50, 250]),
                                           OTHER_TOPIC: [], TOPICS[2]: _topic_logs(
                                               TOPICS[2], [50], log_index=1)}),
                             _blocks_reply({50: "0x5", 250: "0x19"})])
        logs = gw.get_logs(QUERY)
        assert [(l.key, l.topics[0], l.block_timestamp) for l in logs] == [
            ((50, 0), TOPIC, 5), ((50, 1), TOPICS[2], 5), ((250, 0), TOPIC, 25)]
        logs_batch, blocks_batch = session.requests
        assert [request["params"][0]["topics"] for request in logs_batch] == [
            ["0x" + topic.hex()] for topic in TOPICS]
        assert {(request["params"][0]["fromBlock"], request["params"][0]["toBlock"])
                for request in logs_batch} == {(hex(0), hex(299))}
        assert [request["params"][0] for request in blocks_batch] == [hex(50), hex(250)]

    def test_one_entry_refusing_its_span_refuses_the_query_and_keeps_the_batch_limit(self):
        gw, session = _http([_topic_reply({TOPIC: _topic_logs(TOPIC, [50]),
                                           OTHER_TOPIC: TOO_LARGE, TOPICS[2]: []})])
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(QUERY)
        assert excinfo.value.kind is ErrorKind.RESPONSE_TOO_LARGE
        assert gw.batch_limit == TIMESTAMP_BATCH_MAX == 100  # a span refusal, not the batch's
        assert len(session.requests) == 1

    def test_a_log_of_a_topic0_not_asked_is_terminal(self):
        with pytest.raises(GatewayError) as excinfo:
            _http_get_logs([_rpc_log(), _rpc_log(topics=["0x" + OTHER_TOPIC.hex()],
                                                 logIndex="0x1")])
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert "(100, 1)" in excinfo.value.detail

    @pytest.mark.parametrize("mangle", ["unknown_id", "repeated_id"])
    def test_an_unknown_or_repeated_id_is_terminal_for_the_query(self, mangle):
        def reply(batch):
            entries = [{"jsonrpc": "2.0", "id": request["id"], "result": []}
                       for request in batch]
            entries[1]["id"] = 10_000 if mangle == "unknown_id" else entries[0]["id"]
            return _FakeResponse(payload=entries)

        gw, _session = _http([reply])
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(QUERY)
        assert excinfo.value.kind is ErrorKind.TERMINAL
        assert excinfo.value.detail.startswith("eth_getLogs: ")
        assert ("10000" if mangle == "unknown_id" else "blocks [0, 299] answered twice") in \
            excinfo.value.detail

    def test_a_whole_reply_error_is_raised_for_the_query(self):
        gw, session = _http([_FakeResponse(payload={
            "jsonrpc": "2.0", "id": None,
            "error": {"code": -32005, "message": "rate limit exceeded"}})])
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(QUERY)
        assert excinfo.value.kind is ErrorKind.RATE_LIMITED
        assert len(session.requests) == 1

    def test_a_transient_entry_asks_the_whole_batch_again(self):
        sleeps = []
        answers = {TOPIC: [_rpc_log(blockNumber=hex(50), removed=True)],
                   OTHER_TOPIC: _topic_logs(OTHER_TOPIC, [150]), TOPICS[2]: []}
        gw, session = _http([_topic_reply(answers),
                             _topic_reply({**answers, TOPIC: _topic_logs(TOPIC, [50])}),
                             _blocks_reply({50: "0x5", 150: "0xf"})], sleeper=sleeps.append)
        assert [l.block_timestamp for l in gw.get_logs(QUERY)] == [5, 15]
        assert sleeps == [1.0]
        assert session.requests[1] == session.requests[0]

    @pytest.mark.parametrize("geth_refusal", [True, False], ids=["geth_array", "error_object"])
    def test_a_batch_refused_as_too_large_halves_the_limit_and_loses_no_answer(
            self, geth_refusal):
        rpc = _BatchLimitedRpc(limit=2, geth_refusal=geth_refusal)
        gw = HttpGateway("http://unit.test", session=rpc, sleeper=lambda _s: None)
        topics = tuple(bytes([n]) * 32 for n in range(1, 6))
        logs = gw.get_logs(LogQuery(0, 9, POOL, topics))
        assert [(l.key, l.block_timestamp) for l in logs] == [((0, n), 0) for n in range(1, 6)]
        assert gw.batch_limit == 2
        # logs: 5 refused, then 2 + 2 + 1; the one block's timestamp: 1
        assert rpc.sizes == [5, 2, 2, 1, 1]
        assert rpc.answered == [(0, topic) for topic in topics]  # each entry answered once
        gw.get_logs(LogQuery(10, 19, POOL, topics[:4]))
        assert rpc.sizes[5:] == [2, 2, 1]  # the limit holds for the rest of the run

    @pytest.mark.parametrize("geth_refusal", [True, False], ids=["geth_array", "error_object"])
    def test_a_timestamp_batch_refused_as_too_large_halves_the_limit(self, geth_refusal):
        rpc = _BatchLimitedRpc(limit=2, geth_refusal=geth_refusal, logs_per_query=5)
        gw = HttpGateway("http://unit.test", session=rpc, sleeper=lambda _s: None)
        logs = gw.get_logs(LogQuery(100, 199, POOL, (TOPIC,)))
        assert [(l.block_number, l.block_timestamp) for l in logs] == [
            (block, block * 12) for block in range(100, 105)]
        assert gw.batch_limit == 2
        # logs: 1; timestamps of the 5 blocks: 5 refused, then 2 + 2 + 1
        assert rpc.sizes == [1, 5, 2, 2, 1]
        assert rpc.blocks_asked == list(range(100, 105))  # each block answered once

    def test_fixture_gateway_filters_one_range_by_a_set_of_topic0s(self):
        script = scripted_faults([None, None, ErrorKind.RATE_LIMITED])
        gw = _gateway(fault_script=script)
        logs = gw.get_logs(LogQuery(0, 1_000, POOL, (TOPIC, OTHER_TOPIC)))
        assert [(l.key, l.topics[0]) for l in logs] == [
            ((100, 0), TOPIC), ((150, 0), TOPIC), ((150, 1), OTHER_TOPIC), ((200, 2), TOPIC),
            ((250, 0), TOPIC)]
        assert [l.key for l in gw.get_logs(LogQuery(0, 1_000, POOL, (OTHER_TOPIC,)))] == [
            (150, 1)]
        with pytest.raises(GatewayError) as excinfo:  # a scripted fault fails the whole query
            gw.get_logs(LogQuery(0, 1_000, POOL, (TOPIC, OTHER_TOPIC)))
        assert excinfo.value.kind is ErrorKind.RATE_LIMITED
        assert len(gw.calls) == 3
