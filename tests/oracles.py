"""Independent oracles used to pin expected values.

Everything here is written straight-line from first principles (exact
rational arithmetic, explicit rounding) and deliberately avoids calling the
package's own math, so tests compare two independent routes.
"""

from __future__ import annotations

from fractions import Fraction

RAY = 10**27
SPY = 31_536_000
BPS = 10**4

# Published Keccak-256 vectors (ERC-20 topics, the Ethereum empty-code hash,
# and the classic short-message vector), frozen from independent sources.
KECCAK_VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"Transfer(address,address,uint256)":
        "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef",
    b"Approval(address,address,uint256)":
        "8c5be1e5ebec7d5bd14f71427d1e84f3dd0314c0f7b2291e5b200ac8c7c3b925",
}

ERC20_TRANSFER_TOPIC = "0x" + KECCAK_VECTORS[b"Transfer(address,address,uint256)"].lower()


def round_half_up(value: Fraction) -> int:
    whole, remainder = divmod(value.numerator, value.denominator)
    return whole + (1 if 2 * remainder >= value.denominator else 0)


def o_ray_mul(a: int, b: int) -> int:
    return round_half_up(Fraction(a * b, RAY))


def o_ray_div(a: int, b: int) -> int:
    return round_half_up(Fraction(a * RAY, b))


def o_percent_mul(amount: int, bps: int) -> int:
    return round_half_up(Fraction(amount * bps, BPS))


def o_linear_factor(rate: int, dt: int) -> int:
    """Protocol linear factor: truncating division, as deployed."""
    return RAY + rate * dt // SPY


def o_linear_factor_exact(rate: int, dt: int) -> Fraction:
    return 1 + Fraction(rate, RAY) * Fraction(dt, SPY)


def o_compound_factor_exact(rate: int, dt: int) -> Fraction:
    """Exact rational 3-term binomial (no fixed-point truncation at all)."""
    n = dt
    x = Fraction(rate, RAY) / SPY
    return (
        1
        + n * x
        + Fraction(n * (n - 1), 2) * x**2
        + Fraction(n * (n - 1) * (n - 2 if n > 2 else 0), 6) * x**3
    )


def o_compound_factor(rate: int, dt: int) -> int:
    """Protocol-staged 3-term binomial with its exact truncation points."""
    if dt == 0:
        return RAY
    base2 = o_ray_mul(rate, rate) // (SPY * SPY)
    base3 = o_ray_mul(base2, rate) // SPY
    second = dt * (dt - 1) * base2 // 2
    third = dt * (dt - 1) * (dt - 2 if dt > 2 else 0) * base3 // 6
    return RAY + rate * dt // SPY + second + third


def o_reserve_step(state: dict, now_ts: int) -> dict:
    """One ledger update, straight-line: indices, debt delta, treasury cut."""
    out = dict(state)
    if now_ts == state["last_update_timestamp"]:
        return out
    dt = now_ts - state["last_update_timestamp"]

    linear = o_linear_factor(state["current_liquidity_rate"], dt)
    next_liquidity = o_ray_mul(linear, state["liquidity_index"])

    compounded = o_compound_factor(state["current_variable_borrow_rate"], dt)
    next_variable = o_ray_mul(compounded, state["variable_borrow_index"])

    if state["reserve_factor"] > 0 and state["scaled_variable_debt_total"] > 0:
        prev_debt = o_ray_mul(state["scaled_variable_debt_total"], state["variable_borrow_index"])
        curr_debt = o_ray_mul(state["scaled_variable_debt_total"], next_variable)
        cut = o_percent_mul(curr_debt - prev_debt, state["reserve_factor"])
        out["accrued_to_treasury"] = state["accrued_to_treasury"] + o_ray_div(cut, next_liquidity)

    out["liquidity_index"] = next_liquidity
    out["variable_borrow_index"] = next_variable
    out["last_update_timestamp"] = now_ts
    return out


def o_health(
    collateral: list[tuple[Fraction, Fraction, Fraction, int]],
    debt: list[tuple[Fraction, Fraction, int]],
) -> Fraction | None:
    """H from (amount, price, threshold, decimals) and (amount, price, decimals)."""
    num = sum((c * p * lam / 10**d for c, p, lam, d in collateral), Fraction(0))
    den = sum((b * p / 10**d for b, p, d in debt), Fraction(0))
    if den == 0:
        return None
    return num / den


def o_close_factor(h: Fraction | None) -> Fraction:
    if h is None or h >= 1:
        return Fraction(0)
    if h <= Fraction(95, 100):
        return Fraction(1)
    return Fraction(1, 2)


def o_quote(
    debt_to_cover: Fraction,
    outstanding_debt: Fraction,
    h: Fraction,
    p_debt: Fraction,
    p_coll: Fraction,
    d_debt: int,
    d_coll: int,
    bonus_bps: int,
    fee_share: Fraction,
) -> dict:
    """Straight-line quote: D, base, total, fee, received."""
    kappa = o_close_factor(h)
    repaid = min(debt_to_cover, kappa * outstanding_debt)
    beta = Fraction(bonus_bps - BPS, BPS)
    base = repaid * (p_debt / p_coll) * Fraction(10) ** (d_coll - d_debt)
    total = base * (1 + beta)
    fee = total * beta * fee_share
    received = total - fee
    return {
        "debt_repaid": repaid,
        "base_collateral": base,
        "total_collateral": total,
        "protocol_fee": fee,
        "liquidator_receives": received,
    }


# Keccak-256 as a loop over nested lists with a rotate call per lane: the
# textbook form of Keccak-f[1600] (Bertoni et al., "The Keccak reference",
# 2011) under the 0x01 multi-rate padding. The package's unrolled kernel is
# held to it byte for byte.
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# Rho rotation offsets, indexed as _ROTATION[x][y].
_ROTATION = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)

_MASK64 = (1 << 64) - 1
_RATE_BYTES = 136  # 1600-bit state minus 512-bit capacity


def _rotl(value: int, shift: int) -> int:
    if shift == 0:
        return value
    return ((value << shift) | (value >> (64 - shift))) & _MASK64


def _keccak_f(lanes: list[list[int]]) -> list[list[int]]:
    for rc in _ROUND_CONSTANTS:
        # theta
        c = [lanes[x][0] ^ lanes[x][1] ^ lanes[x][2] ^ lanes[x][3] ^ lanes[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        lanes = [[lanes[x][y] ^ d[x] for y in range(5)] for x in range(5)]
        # rho + pi
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rotl(lanes[x][y], _ROTATION[x][y])
        # chi
        lanes = [
            [b[x][y] ^ ((~b[(x + 1) % 5][y]) & b[(x + 2) % 5][y]) for y in range(5)]
            for x in range(5)
        ]
        # iota
        lanes[0][0] ^= rc
    return lanes


def o_keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``."""
    padded = bytearray(data)
    pad_len = _RATE_BYTES - (len(padded) % _RATE_BYTES)
    if pad_len == 1:
        padded += b"\x81"
    else:
        padded += b"\x01" + b"\x00" * (pad_len - 2) + b"\x80"

    lanes = [[0] * 5 for _ in range(5)]
    for offset in range(0, len(padded), _RATE_BYTES):
        block = padded[offset:offset + _RATE_BYTES]
        for i in range(_RATE_BYTES // 8):
            lanes[i % 5][i // 5] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        lanes = _keccak_f(lanes)

    out = bytearray()
    for i in range(4):
        out += lanes[i % 5][i // 5].to_bytes(8, "little")
    return bytes(out)

