"""Keccak-256 (the pre-standard SHA-3 variant used for EVM log topics).

Pure-Python sponge over Keccak-f[1600] with 0x01 multi-rate padding (NOT the
0x06 padding of final SHA-3, which is all ``hashlib.sha3_256`` offers). The
registry load is the only caller: it recomputes the topic0 of every event
from its canonical signature, so every command that loads the registry pays
one permutation per event (13 for the shipped registry).

The permutation is unrolled for that reason. The 25 lanes stay in local
variables, and theta, rho+pi and chi are written out per lane with the
rotation offsets and the 64-bit mask as literals. A loop over nested lists
with a rotate call per lane took about 0.6 ms per permutation, most of a
registry load; this form takes about 0.2 ms (Python 3.11, 2 vCPUs).
``tests/oracles.py`` keeps that loop as the reference this kernel is held to.
"""

from __future__ import annotations

import struct

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_RATE_BYTES = 136  # 1600-bit state minus 512-bit capacity
_RATE_LANES = struct.Struct("<17Q")  # one rate block as little-endian lanes


def _keccak_f(state: list[int]) -> list[int]:
    """Keccak-f[1600] over 25 lanes, lane (x, y) at index x + 5*y."""
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = state
    for rc in _ROUND_CONSTANTS:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & 0xFFFFFFFFFFFFFFFF)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & 0xFFFFFFFFFFFFFFFF)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & 0xFFFFFFFFFFFFFFFF)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & 0xFFFFFFFFFFFFFFFF)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & 0xFFFFFFFFFFFFFFFF)
        # theta applied, then rho and pi: lane (x, y) moves to (y, 2x + 3y)
        b0 = a0 ^ d0
        t = a1 ^ d1
        b10 = (t << 1 | t >> 63) & 0xFFFFFFFFFFFFFFFF
        t = a2 ^ d2
        b20 = (t << 62 | t >> 2) & 0xFFFFFFFFFFFFFFFF
        t = a3 ^ d3
        b5 = (t << 28 | t >> 36) & 0xFFFFFFFFFFFFFFFF
        t = a4 ^ d4
        b15 = (t << 27 | t >> 37) & 0xFFFFFFFFFFFFFFFF
        t = a5 ^ d0
        b16 = (t << 36 | t >> 28) & 0xFFFFFFFFFFFFFFFF
        t = a6 ^ d1
        b1 = (t << 44 | t >> 20) & 0xFFFFFFFFFFFFFFFF
        t = a7 ^ d2
        b11 = (t << 6 | t >> 58) & 0xFFFFFFFFFFFFFFFF
        t = a8 ^ d3
        b21 = (t << 55 | t >> 9) & 0xFFFFFFFFFFFFFFFF
        t = a9 ^ d4
        b6 = (t << 20 | t >> 44) & 0xFFFFFFFFFFFFFFFF
        t = a10 ^ d0
        b7 = (t << 3 | t >> 61) & 0xFFFFFFFFFFFFFFFF
        t = a11 ^ d1
        b17 = (t << 10 | t >> 54) & 0xFFFFFFFFFFFFFFFF
        t = a12 ^ d2
        b2 = (t << 43 | t >> 21) & 0xFFFFFFFFFFFFFFFF
        t = a13 ^ d3
        b12 = (t << 25 | t >> 39) & 0xFFFFFFFFFFFFFFFF
        t = a14 ^ d4
        b22 = (t << 39 | t >> 25) & 0xFFFFFFFFFFFFFFFF
        t = a15 ^ d0
        b23 = (t << 41 | t >> 23) & 0xFFFFFFFFFFFFFFFF
        t = a16 ^ d1
        b8 = (t << 45 | t >> 19) & 0xFFFFFFFFFFFFFFFF
        t = a17 ^ d2
        b18 = (t << 15 | t >> 49) & 0xFFFFFFFFFFFFFFFF
        t = a18 ^ d3
        b3 = (t << 21 | t >> 43) & 0xFFFFFFFFFFFFFFFF
        t = a19 ^ d4
        b13 = (t << 8 | t >> 56) & 0xFFFFFFFFFFFFFFFF
        t = a20 ^ d0
        b14 = (t << 18 | t >> 46) & 0xFFFFFFFFFFFFFFFF
        t = a21 ^ d1
        b24 = (t << 2 | t >> 62) & 0xFFFFFFFFFFFFFFFF
        t = a22 ^ d2
        b9 = (t << 61 | t >> 3) & 0xFFFFFFFFFFFFFFFF
        t = a23 ^ d3
        b19 = (t << 56 | t >> 8) & 0xFFFFFFFFFFFFFFFF
        t = a24 ^ d4
        b4 = (t << 14 | t >> 50) & 0xFFFFFFFFFFFFFFFF
        # chi, with iota on lane (0, 0)
        a0 = b0 ^ (~b1 & b2) ^ rc
        a1 = b1 ^ (~b2 & b3)
        a2 = b2 ^ (~b3 & b4)
        a3 = b3 ^ (~b4 & b0)
        a4 = b4 ^ (~b0 & b1)
        a5 = b5 ^ (~b6 & b7)
        a6 = b6 ^ (~b7 & b8)
        a7 = b7 ^ (~b8 & b9)
        a8 = b8 ^ (~b9 & b5)
        a9 = b9 ^ (~b5 & b6)
        a10 = b10 ^ (~b11 & b12)
        a11 = b11 ^ (~b12 & b13)
        a12 = b12 ^ (~b13 & b14)
        a13 = b13 ^ (~b14 & b10)
        a14 = b14 ^ (~b10 & b11)
        a15 = b15 ^ (~b16 & b17)
        a16 = b16 ^ (~b17 & b18)
        a17 = b17 ^ (~b18 & b19)
        a18 = b18 ^ (~b19 & b15)
        a19 = b19 ^ (~b15 & b16)
        a20 = b20 ^ (~b21 & b22)
        a21 = b21 ^ (~b22 & b23)
        a22 = b22 ^ (~b23 & b24)
        a23 = b23 ^ (~b24 & b20)
        a24 = b24 ^ (~b20 & b21)
    return [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
            a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24]


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``."""
    padded = bytearray(data)
    pad_len = _RATE_BYTES - (len(padded) % _RATE_BYTES)
    if pad_len == 1:
        padded += b"\x81"
    else:
        padded += b"\x01" + b"\x00" * (pad_len - 2) + b"\x80"

    state = [0] * 25
    for offset in range(0, len(padded), _RATE_BYTES):
        for i, lane in enumerate(_RATE_LANES.unpack_from(padded, offset)):
            state[i] ^= lane
        state = _keccak_f(state)
    return struct.pack("<4Q", *state[:4])
