import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aavescan.raymath import RAY, ray_mul
from aavescan.reserve import ReserveState, update_state

from oracles import o_linear_factor_exact, o_reserve_step


def _state(**overrides) -> ReserveState:
    base = dict(
        liquidity_index=RAY,
        variable_borrow_index=RAY,
        current_liquidity_rate=RAY // 10,  # 10%/yr
        current_variable_borrow_rate=RAY // 5,  # 20%/yr
        current_stable_borrow_rate=RAY // 8,
        reserve_factor=1_000,  # 10%
        accrued_to_treasury=0,
        scaled_variable_debt_total=10**24,
        last_update_timestamp=1_700_000_000,
    )
    base.update(overrides)
    return ReserveState(**base)


def _as_dict(state: ReserveState) -> dict:
    return {
        "liquidity_index": state.liquidity_index,
        "variable_borrow_index": state.variable_borrow_index,
        "current_liquidity_rate": state.current_liquidity_rate,
        "current_variable_borrow_rate": state.current_variable_borrow_rate,
        "reserve_factor": state.reserve_factor,
        "accrued_to_treasury": state.accrued_to_treasury,
        "scaled_variable_debt_total": state.scaled_variable_debt_total,
        "last_update_timestamp": state.last_update_timestamp,
    }


def test_same_timestamp_is_noop():
    state = _state()
    assert update_state(state, state.last_update_timestamp) == state


def test_zero_rates_leave_indices_unchanged():
    state = _state(current_liquidity_rate=0, current_variable_borrow_rate=0)
    advanced = update_state(state, state.last_update_timestamp + 86_400)
    assert advanced.liquidity_index == state.liquidity_index
    assert advanced.variable_borrow_index == state.variable_borrow_index
    assert advanced.last_update_timestamp == state.last_update_timestamp + 86_400


def test_zero_reserve_factor_never_accrues_treasury():
    state = _state(reserve_factor=0)
    advanced = update_state(state, state.last_update_timestamp + 86_400)
    assert advanced.accrued_to_treasury == 0
    assert advanced.variable_borrow_index > RAY


def test_one_day_update_matches_step_oracle():
    state = _state()
    now = state.last_update_timestamp + 86_400
    advanced = update_state(state, now)
    expected = o_reserve_step(_as_dict(state), now)
    assert advanced.liquidity_index == expected["liquidity_index"]
    assert advanced.variable_borrow_index == expected["variable_borrow_index"]
    assert abs(advanced.accrued_to_treasury - expected["accrued_to_treasury"]) <= 2
    assert advanced.accrued_to_treasury > 0


def test_update_is_idempotent_at_fixed_timestamp():
    state = _state()
    now = state.last_update_timestamp + 3_600
    once = update_state(state, now)
    assert update_state(once, now) == once


def test_rewinding_time_rejected():
    state = _state()
    with pytest.raises(ValueError):
        update_state(state, state.last_update_timestamp - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_randomized_sequences_monotone_and_match_oracle(seed):
    rng = random.Random(seed)
    state = _state(
        current_liquidity_rate=rng.randrange(0, RAY // 2),
        current_variable_borrow_rate=rng.randrange(0, RAY // 2),
        reserve_factor=rng.randrange(0, 10_001),
    )
    shadow = _as_dict(state)
    now = state.last_update_timestamp
    steps = 60
    for _ in range(steps):
        now += rng.randrange(0, 7_200)
        state = update_state(state, now)
        shadow = o_reserve_step(shadow, now)
        assert state.liquidity_index >= RAY
        assert state.variable_borrow_index >= RAY
        assert state.liquidity_index == shadow["liquidity_index"]
        assert state.variable_borrow_index == shadow["variable_borrow_index"]
    assert abs(state.accrued_to_treasury - shadow["accrued_to_treasury"]) <= 2 * steps


def test_indices_monotone_under_updates():
    state = _state()
    previous = state
    now = state.last_update_timestamp
    for dt in (0, 1, 59, 3_600, 0, 86_400):
        now += dt
        state = update_state(state, now)
        assert state.liquidity_index >= previous.liquidity_index
        assert state.variable_borrow_index >= previous.variable_borrow_index
        previous = state


def test_two_step_linear_composition_tracks_exact_rational():
    # Two fixed-point updates versus the same two-step composition in exact
    # arithmetic: drift stays within 2 rounding units per step. (A single
    # t0->t2 update differs from the composition by the real cross term
    # rate^2*dt1*dt2, so only the fixed-point drift is asserted here.)
    state = _state(current_variable_borrow_rate=0, reserve_factor=0)
    t0 = state.last_update_timestamp
    one = update_state(state, t0 + 40_000)
    two = update_state(one, t0 + 100_000)

    rate = Fraction(state.current_liquidity_rate, RAY)
    exact = (
        Fraction(state.liquidity_index)
        * o_linear_factor_exact(state.current_liquidity_rate, 40_000)
        * o_linear_factor_exact(state.current_liquidity_rate, 60_000)
    )
    assert abs(Fraction(two.liquidity_index) - exact) <= 4

    # and the cross term fully explains the gap to a single-shot update
    single = update_state(state, t0 + 100_000)
    cross = Fraction(state.liquidity_index) * rate * rate * Fraction(40_000 * 60_000, 31_536_000**2)
    assert abs((Fraction(two.liquidity_index) - Fraction(single.liquidity_index)) - cross) <= 4


def test_scaled_debt_materializes_with_index():
    state = _state()
    advanced = update_state(state, state.last_update_timestamp + 30 * 86_400)
    debt_before = ray_mul(state.scaled_variable_debt_total, state.variable_borrow_index)
    debt_after = ray_mul(state.scaled_variable_debt_total, advanced.variable_borrow_index)
    assert debt_after > debt_before
