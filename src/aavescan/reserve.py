"""Reserve ledger state and the per-block update procedure.

One update advances the supplier yield index linearly and the variable debt
index by compounding, measures the debt interest created by the move, and
diverts the reserve-factor share of it to the treasury as a scaled claim.
A second call inside the same second is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .raymath import (
    RAY,
    compounded_interest,
    linear_interest,
    percent_mul,
    ray_div,
    ray_mul,
)

@dataclass(frozen=True)
class ReserveState:
    liquidity_index: int = RAY
    variable_borrow_index: int = RAY
    current_liquidity_rate: int = 0
    current_variable_borrow_rate: int = 0
    current_stable_borrow_rate: int = 0  # carried opaquely, never modelled
    reserve_factor: int = 0  # basis points
    accrued_to_treasury: int = 0  # scaled-token units
    scaled_variable_debt_total: int = 0
    last_update_timestamp: int = 0


def update_state(state: ReserveState, now_ts: int) -> ReserveState:
    """Advance ``state`` to ``now_ts`` at unchanged rates; a same-second call is a no-op."""
    if now_ts < state.last_update_timestamp:
        raise ValueError(
            f"now_ts {now_ts} before last update {state.last_update_timestamp}"
        )
    if now_ts == state.last_update_timestamp:
        return state

    cumulated_liquidity = linear_interest(
        state.current_liquidity_rate, state.last_update_timestamp, now_ts
    )
    next_liquidity_index = ray_mul(cumulated_liquidity, state.liquidity_index)

    cumulated_variable = compounded_interest(
        state.current_variable_borrow_rate, state.last_update_timestamp, now_ts
    )
    next_variable_index = ray_mul(cumulated_variable, state.variable_borrow_index)

    accrued_to_treasury = state.accrued_to_treasury
    if state.reserve_factor > 0 and state.scaled_variable_debt_total > 0:
        previous_debt = ray_mul(state.scaled_variable_debt_total, state.variable_borrow_index)
        current_debt = ray_mul(state.scaled_variable_debt_total, next_variable_index)
        debt_accrued = current_debt - previous_debt
        treasury_share = percent_mul(debt_accrued, state.reserve_factor)
        accrued_to_treasury += ray_div(treasury_share, next_liquidity_index)

    return replace(
        state,
        liquidity_index=next_liquidity_index,
        variable_borrow_index=next_variable_index,
        accrued_to_treasury=accrued_to_treasury,
        last_update_timestamp=now_ts,
    )
