import json
import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aavescan.keccak import keccak256

from oracles import KECCAK_VECTORS, o_keccak256

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "topic0_golden.json")


@pytest.mark.parametrize("message,digest", sorted(KECCAK_VECTORS.items()))
def test_published_vectors(message, digest):
    assert keccak256(message).hex() == digest


def test_multi_block_absorb():
    # 200 bytes spans two rate blocks; digest must still be 32 bytes and stable
    message = b"a" * 200
    first = keccak256(message)
    assert len(first) == 32
    assert keccak256(message) == first


def test_rate_boundary_lengths():
    # padding edge cases: exactly one byte of room, none, and a full block
    for length in (135, 136, 137, 272):
        digest = keccak256(b"x" * length)
        assert len(digest) == 32


def test_hex_form():
    assert "0x" + keccak256(b"abc").hex() == "0x" + KECCAK_VECTORS[b"abc"]


@given(st.binary(max_size=512))
def test_deterministic_and_sized(data):
    assert keccak256(data) == keccak256(data)
    assert len(keccak256(data)) == 32


def test_matches_the_loop_oracle_at_every_length_to_600():
    # every padding case up to five rate blocks, the edges 135/136/137 and 271/272/273 among them
    rng = random.Random(20251001)
    for length in range(601):
        data = rng.randbytes(length)
        assert keccak256(data) == o_keccak256(data), length


@given(st.binary(max_size=1024))
def test_matches_the_loop_oracle(data):
    assert keccak256(data) == o_keccak256(data)


def test_golden_event_topics():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    signatures = {
        "Supply": "Supply(address,address,address,uint256,uint16)",
        "Withdraw": "Withdraw(address,address,address,uint256)",
        "Borrow": "Borrow(address,address,address,uint256,uint8,uint256,uint16)",
        "Repay": "Repay(address,address,address,uint256,bool)",
        "LiquidationCall": "LiquidationCall(address,address,address,uint256,uint256,address,bool)",
        "FlashLoan": "FlashLoan(address,address,address,uint256,uint8,uint256,uint16)",
        "ReserveDataUpdated": "ReserveDataUpdated(address,uint256,uint256,uint256,uint256,uint256)",
        "MintedToTreasury": "MintedToTreasury(address,uint256)",
        "ReserveUsedAsCollateralEnabled": "ReserveUsedAsCollateralEnabled(address,address)",
        "ReserveUsedAsCollateralDisabled": "ReserveUsedAsCollateralDisabled(address,address)",
        "RebalanceStableBorrowRate": "RebalanceStableBorrowRate(address,address)",
        "UserEModeSet": "UserEModeSet(address,uint8)",
        "IsolationModeTotalDebtUpdated": "IsolationModeTotalDebtUpdated(address,uint256)",
    }
    assert set(golden) == set(signatures)
    for name, signature in signatures.items():
        assert "0x" + keccak256(signature.encode()).hex() == golden[name], name
