import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aavescan.decoder import (
    ArityMismatch,
    DecodedEvent,
    TopicMismatch,
    ValueOverflow,
    decode,
)
from aavescan.gateway import RawLog

from corpusgen import LAYOUTS, encode_event

WETH = "0xc02aaa39b223fe8d0a0e5c4f27ead9083c756cc2"
ALICE = "0x1111111111111111111111111111111111111111"
BOB = "0x2222222222222222222222222222222222222222"
POOL = "0x87870bca3f3fd6335c3f4ce8392d69350b4fa4e2"


def _raw_log(topics_hex, data_hex, block=100, index=0):
    return RawLog(
        address=POOL,
        topics=[bytes.fromhex(t[2:]) for t in topics_hex],
        data=bytes.fromhex(data_hex[2:]),
        block_number=block,
        transaction_hash="0x" + "ab" * 32,
        log_index=index,
        block_timestamp=1_700_000_000,
    )


def test_supply_log_inverts_independent_encoder(registry):
    values = {
        "reserve": WETH,
        "user": ALICE,
        "onBehalfOf": BOB,
        "amount": 123_456_789_000_000_000_000,
        "referralCode": 101,
    }
    topics, data = encode_event("Supply", values)
    event = decode(_raw_log(topics, data), registry.event("Supply"), "ethereum")
    assert dict(event.fields) == {
        "reserve": WETH,
        "user": ALICE,
        "onBehalfOf": BOB,
        "amount": "123456789000000000000",
        "referralCode": "101",
    }
    assert event.event_name == "Supply"
    assert event.chain_name == "ethereum"
    assert event.key == (100, 0)
    assert event.usd_value == ""


def test_zero_word_decodes_to_zero(registry):
    topics, data = encode_event("MintedToTreasury", {"reserve": WETH, "amountMinted": 0})
    event = decode(_raw_log(topics, data), registry.event("MintedToTreasury"), "base")
    assert dict(event.fields)["amountMinted"] == "0"


def test_topic_mismatch(registry):
    topics, data = encode_event("Borrow", {
        "reserve": WETH, "user": ALICE, "onBehalfOf": ALICE, "amount": 1,
        "interestRateMode": 2, "borrowRate": 10**25, "referralCode": 0,
    })
    with pytest.raises(TopicMismatch):
        decode(_raw_log(topics, data), registry.event("Supply"), "ethereum")


def test_arity_mismatch_topics(registry):
    topics, data = encode_event("Supply", {
        "reserve": WETH, "user": ALICE, "onBehalfOf": BOB,
        "amount": 5, "referralCode": 0,
    })
    with pytest.raises(ArityMismatch):
        decode(_raw_log(topics[:-1], data), registry.event("Supply"), "ethereum")


def test_arity_mismatch_data(registry):
    topics, data = encode_event("Supply", {
        "reserve": WETH, "user": ALICE, "onBehalfOf": BOB,
        "amount": 5, "referralCode": 0,
    })
    with pytest.raises(ArityMismatch):
        decode(_raw_log(topics, data + "00"), registry.event("Supply"), "ethereum")


def test_strict_mode_rejects_dirty_address_padding(registry):
    topics, data = encode_event("MintedToTreasury", {"reserve": WETH, "amountMinted": 1})
    dirty = "0x" + "ff" * 12 + WETH[2:]
    log = _raw_log([topics[0], dirty], data)
    schema = registry.event("MintedToTreasury")
    with pytest.raises(ValueOverflow):
        decode(log, schema, "ethereum")
    lenient = decode(log, schema, "ethereum", strict=False)
    assert dict(lenient.fields)["reserve"] == WETH


def test_strict_mode_rejects_wide_small_uint(registry):
    values = {
        "reserve": WETH, "user": ALICE, "onBehalfOf": BOB,
        "amount": 5, "referralCode": 0,
    }
    topics, data = encode_event("Supply", values)
    # referralCode is the third indexed field; force a word above uint16
    wide = "0x" + (70_000).to_bytes(32, "big").hex()
    log = _raw_log([topics[0], topics[1], topics[2], wide], data)
    schema = registry.event("Supply")
    with pytest.raises(ValueOverflow):
        decode(log, schema, "ethereum")
    lenient = decode(log, schema, "ethereum", strict=False)
    assert dict(lenient.fields)["referralCode"] == str(70_000 & 0xFFFF)


def test_strict_mode_rejects_bool_word_above_one(registry):
    values = {
        "reserve": WETH, "user": ALICE, "repayer": ALICE,
        "amount": 9, "useATokens": False,
    }
    topics, data = encode_event("Repay", values)
    bad = data[:-64] + (2).to_bytes(32, "big").hex()
    schema = registry.event("Repay")
    with pytest.raises(ValueOverflow):
        decode(_raw_log(topics, bad), schema, "ethereum")
    lenient = decode(_raw_log(topics, bad), schema, "ethereum", strict=False)
    assert dict(lenient.fields)["useATokens"] == "true"


def test_decode_is_pure(registry):
    values = {"reserve": WETH, "amountMinted": 77}
    topics, data = encode_event("MintedToTreasury", values)
    log = _raw_log(topics, data)
    schema = registry.event("MintedToTreasury")
    first = decode(log, schema, "ethereum")
    second = decode(log, schema, "ethereum")
    assert first == second
    assert log.topics[0] == schema.topic0  # input untouched


def _random_value(field, rng: random.Random):
    if field.abi_type == "address":
        return "0x" + rng.getrandbits(160).to_bytes(20, "big").hex()
    if field.abi_type == "bool":
        return "true" if rng.random() < 0.5 else "false"
    width = field.bit_width
    return str(rng.randrange(0, 1 << width))


def make_random_event(schema, rng: random.Random, chain="ethereum") -> DecodedEvent:
    return DecodedEvent(
        chain_name=chain,
        event_name=schema.event_name,
        block_number=rng.randrange(0, 2**40),
        block_timestamp=rng.randrange(0, 2**33),
        transaction_hash="0x" + rng.getrandbits(256).to_bytes(32, "big").hex(),
        log_index=rng.randrange(0, 10_000),
        contract_address=POOL,
        fields=[(f.name, _random_value(f, rng)) for f in schema.fields],
    )


def oracle_encode(event: DecodedEvent) -> tuple[list[bytes], bytes]:
    """The topics and data of ``event`` as the package-free ``corpusgen.encode_event``
    writes them, so a round trip checks ``decode`` against an independent encoder."""
    kinds = {name: kind for name, kind, _indexed in LAYOUTS[event.event_name]["fields"]}
    values = {name: value == "true" if kinds[name] == "bool" else value
              for name, value in event.fields}
    topics, data = encode_event(event.event_name, values)
    return [bytes.fromhex(topic[2:]) for topic in topics], bytes.fromhex(data[2:])


def test_oracle_layouts_agree_with_the_registry(registry):
    """The round trip's oracle encodes by ``corpusgen.LAYOUTS``, so those must be the
    shipped schemas: the same events, topic0s and fields, in order."""
    assert sorted(LAYOUTS) == sorted(registry.event_names()) and len(LAYOUTS) == 13
    for schema in registry.events:
        layout = LAYOUTS[schema.event_name]
        assert layout["topic0"] == "0x" + schema.topic0.hex(), schema.event_name
        assert layout["fields"] == [(f.name, f.abi_type, f.indexed) for f in schema.fields]


def test_round_trip_identity_randomized(registry):
    rng = random.Random(0xA11CE)
    for _ in range(400):
        schema = rng.choice(registry.events)
        event = make_random_event(schema, rng)
        topics, data = oracle_encode(event)
        log = RawLog(
            address=event.contract_address,
            topics=topics,
            data=data,
            block_number=event.block_number,
            transaction_hash=event.transaction_hash,
            log_index=event.log_index,
            block_timestamp=event.block_timestamp,
        )
        assert decode(log, schema, event.chain_name) == event


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_round_trip_identity_hypothesis(registry, data):
    schema = data.draw(st.sampled_from(registry.events))
    fields = []
    for f in schema.fields:
        if f.abi_type == "address":
            raw = data.draw(st.integers(min_value=0, max_value=2**160 - 1))
            fields.append((f.name, "0x" + raw.to_bytes(20, "big").hex()))
        elif f.abi_type == "bool":
            fields.append((f.name, data.draw(st.sampled_from(["true", "false"]))))
        else:
            raw = data.draw(st.integers(min_value=0, max_value=(1 << f.bit_width) - 1))
            fields.append((f.name, str(raw)))
    event = DecodedEvent(
        chain_name="ethereum", event_name=schema.event_name, block_number=7,
        block_timestamp=1, transaction_hash="0x" + "00" * 32, log_index=0,
        contract_address=POOL, fields=fields,
    )
    topics, encoded = oracle_encode(event)
    log = RawLog(address=POOL, topics=topics, data=encoded, block_number=7,
                 transaction_hash="0x" + "00" * 32, log_index=0, block_timestamp=1)
    assert decode(log, schema, "ethereum") == event


def test_every_registry_event_decodes_a_corpus_instance(registry, corpus_dir):
    from aavescan.gateway import FixtureGateway, LogQuery

    seen = set()
    for chain in registry.chains:
        gw = FixtureGateway.from_dir(f"{corpus_dir}/{chain.chain_name}")
        for schema in registry.events:
            if schema.event_name in seen:
                continue
            logs = gw.get_logs(LogQuery(
                chain.start_block, gw.latest_block(),
                chain.pool_address, (schema.topic0,)))
            if logs:
                event = decode(logs[0], schema, chain.chain_name)
                assert event.event_name == schema.event_name
                seen.add(schema.event_name)
    assert seen == set(registry.event_names())
