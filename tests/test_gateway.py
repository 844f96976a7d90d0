import json
import pickle

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from aavescan.gateway import (
    ErrorKind,
    FixtureGateway,
    GatewayError,
    HttpGateway,
    LogQuery,
    RawLog,
    classify_error,
    max_span_fault,
    scripted_faults,
)

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
        logs = gw.get_logs(LogQuery(100, 200, POOL, TOPIC))
        assert [(l.block_number, l.log_index) for l in logs] == [(100, 0), (150, 0), (200, 2)]
        assert all(l.block_timestamp > 0 for l in logs)

    def test_empty_range(self):
        gw = _gateway()
        assert gw.get_logs(LogQuery(5, 5, POOL, TOPIC)) == []

    def test_address_and_topic_filters(self):
        gw = _gateway()
        logs = gw.get_logs(LogQuery(0, 1_000, POOL, TOPIC))
        assert len(logs) == 4  # other address and other topic excluded

    def test_strictly_sorted_no_duplicates(self):
        gw = _gateway()
        logs = gw.get_logs(LogQuery(0, 1_000, POOL, TOPIC))
        keys = [l.key for l in logs]
        assert keys == sorted(set(keys))

    def test_scripted_rate_limit_then_success(self):
        gw = _gateway(fault_script=scripted_faults([ErrorKind.RATE_LIMITED]))
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(100, 200, POOL, TOPIC))
        assert excinfo.value.kind is ErrorKind.RATE_LIMITED
        logs = gw.get_logs(LogQuery(100, 200, POOL, TOPIC))
        assert len(logs) == 3
        assert len(gw.calls) == 2

    def test_max_span_fault(self):
        gw = _gateway(fault_script=max_span_fault(50))
        with pytest.raises(GatewayError) as excinfo:
            gw.get_logs(LogQuery(0, 100, POOL, TOPIC))
        assert excinfo.value.kind is ErrorKind.RESPONSE_TOO_LARGE
        assert gw.get_logs(LogQuery(100, 149, POOL, TOPIC))

    def test_timestamp_cache_single_upstream_fetch(self):
        gw = _gateway()
        assert gw.get_block_timestamp(100) == 1_700_000_000
        assert gw.get_block_timestamp(100) == 1_700_000_000
        assert gw.block_fetches[100] == 1

    def test_block_beyond_head_terminal(self):
        gw = _gateway(head=500)
        with pytest.raises(GatewayError) as excinfo:
            gw.get_block_timestamp(501)
        assert excinfo.value.kind is ErrorKind.TERMINAL

    def test_latest_block(self):
        assert _gateway(head=1_234).latest_block() == 1_234

    def test_deterministic_across_instances(self):
        def snapshot(gw):
            logs = gw.get_logs(LogQuery(0, 1_000, POOL, TOPIC))
            return [(l.key, l.topics, l.data, l.block_timestamp, l.transaction_hash)
                    for l in logs]

        assert snapshot(_gateway()) == snapshot(_gateway())

    def test_enrichment_does_not_refetch_known_blocks(self):
        gw = _gateway()
        gw.get_logs(LogQuery(0, 1_000, POOL, TOPIC))
        gw.get_logs(LogQuery(0, 1_000, POOL, TOPIC))
        assert all(count == 1 for count in gw.block_fetches.values())

    def test_invalid_query_rejected(self):
        gw = _gateway()
        with pytest.raises(ValueError):
            gw.get_logs(LogQuery(10, 5, POOL, TOPIC))

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
        logs = gw.get_logs(LogQuery(0, 100, POOL, TOPIC))
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
    """Replays a scripted sequence of responses/exceptions for post()."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []

    def post(self, url, json=None, timeout=None):
        self.requests.append(json)
        action = self.script.pop(0)
        if isinstance(action, BaseException):
            raise action
        return action


class TestHttpGateway:
    def test_get_logs_parses_and_sorts(self):
        result = [
            {
                "address": POOL.upper(),
                "topics": ["0x" + "11" * 32],
                "data": "0x" + "00" * 32,
                "blockNumber": "0x64",
                "transactionHash": "0xABC0",
                "logIndex": "0x1",
                "transactionIndex": "0x0",
            },
            {
                "address": POOL,
                "topics": ["0x" + "11" * 32],
                "data": "0x",
                "blockNumber": "0x63",
                "transactionHash": "0xabc1",
                "logIndex": "0x0",
                "transactionIndex": "0x0",
            },
        ]
        session = _FakeSession([
            _FakeResponse(payload={"jsonrpc": "2.0", "id": 1, "result": result}),
            _FakeResponse(payload={"jsonrpc": "2.0", "id": 2,
                                   "result": {"timestamp": "0x5f5e100"}}),
            _FakeResponse(payload={"jsonrpc": "2.0", "id": 3,
                                   "result": {"timestamp": "0x5f5e101"}}),
        ])
        gw = HttpGateway("http://unit.test", session=session, sleeper=lambda _s: None)
        logs = gw.get_logs(LogQuery(99, 100, POOL, TOPIC))
        assert [l.block_number for l in logs] == [99, 100]
        assert logs[0].address == POOL
        assert logs[0].block_timestamp == 0x5F5E100
        assert session.requests[0]["method"] == "eth_getLogs"
        assert session.requests[0]["params"][0]["fromBlock"] == hex(99)

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
            gw.get_logs(LogQuery(0, 10, POOL, TOPIC))
        assert excinfo.value.kind is ErrorKind.RESPONSE_TOO_LARGE

    def test_missing_block_terminal(self):
        session = _FakeSession([
            _FakeResponse(payload={"jsonrpc": "2.0", "id": 1, "result": None}),
        ])
        gw = HttpGateway("http://unit.test", session=session, sleeper=lambda _s: None)
        with pytest.raises(GatewayError) as excinfo:
            gw.get_block_timestamp(10**9)
        assert excinfo.value.kind is ErrorKind.TERMINAL
