import json
import os

import pytest
import yaml

from aavescan.keccak import keccak256
from aavescan.registry import (
    ChainConfig,
    EventField,
    EventSchema,
    RegistryError,
    default_registry_path,
    load_registry,
    load_yaml,
    topic0_of,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "topic0_golden.json")

TABLE_CHAINS = {
    "ethereum": ("0x87870bca3f3fd6335c3f4ce8392d69350b4fa4e2", 16_291_127, 23_615_633),
    "optimism": ("0x794a61358d6845594f94dc1db02a252b5b4814ad", 4_365_693, 142_662_943),
    "arbitrum": ("0x794a61358d6845594f94dc1db02a252b5b4814ad", 7_740_000, 391_361_693),
    "polygon": ("0x794a61358d6845594f94dc1db02a252b5b4814ad", 25_825_996, 77_909_957),
    "avalanche": ("0x794a61358d6845594f94dc1db02a252b5b4814ad", 11_970_000, 70_593_220),
    "base": ("0xa238dd80c259a72e81d7e4664a9801593f98d1c5", 2_357_200, 37_067_658),
}


def test_default_registry_matches_published_configuration(registry):
    assert registry.chain_names() == list(TABLE_CHAINS)
    for name, (address, start, stop) in TABLE_CHAINS.items():
        chain = registry.chain(name)
        assert chain.pool_address == address
        assert chain.start_block == start
        assert chain.max_block == stop
        assert chain.rpc_env_key == f"RPC_URL_{name.upper()}"


def test_thirteen_events_with_golden_topics(registry):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(registry.events) == 13
    assert set(registry.event_names()) == set(golden)
    for schema in registry.events:
        assert "0x" + schema.topic0.hex() == golden[schema.event_name]
        assert topic0_of(schema) == schema.topic0


def test_lookups(registry):
    ethereum = registry.chain("ethereum")
    assert ethereum.pool_address == "0x87870bca3f3fd6335c3f4ce8392d69350b4fa4e2"
    arbitrum = registry.chain("arbitrum")
    assert (arbitrum.start_block, arbitrum.max_block) == (7_740_000, 391_361_693)
    with pytest.raises(RegistryError):
        registry.chain("unknownchain")
    with pytest.raises(RegistryError):
        registry.event("NotAnEvent")


def test_load_is_idempotent():
    assert load_registry() == load_registry()


def test_topic0_pairwise_distinct(registry):
    topics = [schema.topic0 for schema in registry.events]
    assert len(topics) == len(set(topics))


def test_indexed_field_budget(registry):
    for schema in registry.events:
        assert len(schema.indexed_fields) <= 3


def test_user_fields(registry):
    expected = {
        "Supply": "onBehalfOf",
        "Borrow": "onBehalfOf",
        "Repay": "user",
        "Withdraw": "user",
        "LiquidationCall": "user",
    }
    for name, field_name in expected.items():
        assert registry.event(name).user_field == field_name
    assert registry.event("ReserveDataUpdated").user_field is None


def test_topic0_of_transfer_vector():
    schema = EventSchema(
        event_name="Transfer",
        canonical_signature="Transfer(address,address,uint256)",
        topic0=keccak256(b"Transfer(address,address,uint256)"),
        fields=(
            EventField("from", "address", True),
            EventField("to", "address", True),
            EventField("value", "uint256", False),
        ),
    )
    assert topic0_of(schema).hex() == (
        "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"
    )


def _write_registry(tmp_path, text: str) -> str:
    path = tmp_path / "registry.yaml"
    path.write_text(text, encoding="utf-8")
    return str(path)


MINIMAL_EVENT = """
events:
  - name: MintedToTreasury
    signature: "MintedToTreasury(address,uint256)"
    topic0: "0xbfa21aa5d5f9a1f0120a95e7c0749f389863cbdbfff531aa7339077a5bc919de"
    fields:
      - {name: reserve, type: address, indexed: true}
      - {name: amountMinted, type: uint256}
"""

MINIMAL_CHAIN = """
chains:
  - name: testchain
    pool_address: "0x00000000000000000000000000000000000000aa"
    start_block: 0
    max_block: 1000
    rpc_env_key: RPC_URL_TESTCHAIN
"""


def test_custom_registry_extensible(tmp_path):
    registry = load_registry(_write_registry(tmp_path, MINIMAL_CHAIN + MINIMAL_EVENT))
    assert registry.chain_names() == ["testchain"]
    assert registry.event_names() == ["MintedToTreasury"]


@pytest.mark.parametrize(
    "mutation,needle",
    [
        (("start_block: 0", "start_block: 1000"), "start_block"),  # start == max
        (("0x00000000000000000000000000000000000000aa", "0xabc"), "pool_address"),
        (("uint256", "bytes"), "unsupported"),  # hits both signature and field type
        (
            ("0xbfa21aa5d5f9a1f0120a95e7c0749f389863cbdbfff531aa7339077a5bc919de",
             "0x" + "00" * 32),
            "topic0",
        ),
        (("signature: \"MintedToTreasury(address,uint256)\"",
          "signature: \"MintedToTreasury(address)\""), "match"),
        (("signature: \"MintedToTreasury(address,uint256)\"",
          "signature: \"\""), "signature"),
        # `$` also matches before a final newline; the loaded address would match no log
        (('"0x00000000000000000000000000000000000000aa"',
          '"0x00000000000000000000000000000000000000aa\\n"'), "pool_address"),
        (("0xbfa21aa5d5f9a1f0120a95e7c0749f389863cbdbfff531aa7339077a5bc919de\"",
          "0xbfa21aa5d5f9a1f0120a95e7c0749f389863cbdbfff531aa7339077a5bc919de\\n\""), "topic0"),
        # bool("false") is True
        (("indexed: true}", 'indexed: "false"}'),
         "event 'MintedToTreasury': field 'reserve': indexed 'false'"),
        # int() would cut a float and read a boolean
        (("start_block: 0", "start_block: false"), "start_block False is not an integer"),
        (("max_block: 1000", "max_block: 1000.9"), "max_block 1000.9 is not an integer"),
    ],
)
def test_malformed_documents_name_the_offender(tmp_path, mutation, needle):
    text = (MINIMAL_CHAIN + MINIMAL_EVENT).replace(*mutation)
    with pytest.raises(RegistryError) as excinfo:
        load_registry(_write_registry(tmp_path, text))
    assert needle.lower() in str(excinfo.value).lower()


@pytest.mark.parametrize(
    "mutation,needle",
    [
        # a chain name the shard filename pattern cannot carry
        (("name: testchain", "name: test_chain"), "chain name"),
        # a field name a CSV header can only carry quoted
        (("{name: reserve,", '{name: "res,erve",'), "field name"),
        (("{name: amountMinted,", "{name: reserve,"), "repeats"),
        (("{name: amountMinted,", "{name: block_timestamp,"), "shard column"),
    ],
)
def test_names_the_file_contract_cannot_carry(tmp_path, mutation, needle):
    text = (MINIMAL_CHAIN + MINIMAL_EVENT).replace(*mutation)
    assert text != MINIMAL_CHAIN + MINIMAL_EVENT
    with pytest.raises(RegistryError, match=needle):
        load_registry(_write_registry(tmp_path, text))


def test_duplicate_chain_rejected(tmp_path):
    text = MINIMAL_CHAIN + MINIMAL_CHAIN.replace("chains:", "") + MINIMAL_EVENT
    with pytest.raises(RegistryError, match="duplicate"):
        load_registry(_write_registry(tmp_path, text))


def test_too_many_indexed_fields_rejected():
    fields = tuple(
        EventField(f"f{i}", "address", indexed=True) for i in range(4)
    )
    signature = "Busy(address,address,address,address)"
    schema = EventSchema(
        event_name="Busy",
        canonical_signature=signature,
        topic0=keccak256(signature.encode()),
        fields=fields,
    )
    with pytest.raises(RegistryError, match="indexed"):
        schema.validate()


def test_chain_config_invariants():
    good = ChainConfig("c", "0x" + "ab" * 20, 5, 10, "RPC_URL_C")
    good.validate()
    bad = ChainConfig("c", "0x" + "ab" * 20, 10, 10, "RPC_URL_C")
    with pytest.raises(RegistryError):
        bad.validate()


def test_malformed_yaml_is_registry_error(tmp_path):
    with pytest.raises(RegistryError, match="not valid YAML"):
        load_registry(_write_registry(tmp_path, "chains: [unclosed\n" + MINIMAL_EVENT))


def test_yaml_loader_parses_the_registry_as_the_reference_loader_does():
    with open(default_registry_path(), encoding="utf-8") as fh:
        text = fh.read()
    assert load_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader)
