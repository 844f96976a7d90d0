from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aavescan.decoder import DecodedEvent
from aavescan.raymath import RAY
from aavescan.reserve import ReserveState
from aavescan.risk import (
    AssetParams,
    InsufficientCollateral,
    NegativeAmount,
    NotLiquidatable,
    OrderViolation,
    Position,
    UnknownAsset,
    health_factor,
    ledger_rows,
    liquidation_quote,
    replay,
)

from oracles import o_close_factor, o_health, o_quote

USDC = "usdc"
WETH = "weth"


def _params(weth_price="2000", usdc_price="1", threshold="0.8", bonus=10_500,
            fee="0.2", decimals=(18, 6)):
    return {
        WETH: AssetParams(
            symbol="WETH", decimals=decimals[0], price=Fraction(weth_price),
            liquidation_threshold=Fraction(threshold), ltv=Fraction("0.75"),
            liquidation_bonus_bps=bonus, protocol_fee_share=Fraction(fee),
        ),
        USDC: AssetParams(
            symbol="USDC", decimals=decimals[1], price=Fraction(usdc_price),
            liquidation_threshold=Fraction("0.85"), ltv=Fraction("0.8"),
            liquidation_bonus_bps=10_400, protocol_fee_share=Fraction(fee),
        ),
    }


def _simple_params(threshold="0.8"):
    """Whole-token params: price 1, decimals 0."""
    return {
        "coll": AssetParams("COLL", 0, Fraction(1), Fraction(threshold), Fraction("0.75")),
        "debt": AssetParams("DEBT", 0, Fraction(1), Fraction("0.8"), Fraction("0.75")),
    }


def _position(collateral, debt, enabled=True):
    position = Position(user="u")
    for asset, amount in collateral.items():
        position.collateral[asset] = Fraction(amount)
        position.collateral_enabled[asset] = enabled
    for asset, amount in debt.items():
        position.debt[asset] = Fraction(amount)
    return position


class TestHealthFactor:
    def test_healthy_position(self):
        report = health_factor(_position({"coll": 100}, {"debt": 50}), _simple_params())
        assert report.health_factor == Fraction(8, 5)
        assert not report.liquidatable
        assert report.close_factor == 0
        assert report.health_factor == o_health(
            [(Fraction(100), Fraction(1), Fraction("0.8"), 0)],
            [(Fraction(50), Fraction(1), 0)],
        )

    def test_full_liquidation_branch(self):
        report = health_factor(_position({"coll": 100}, {"debt": 85}), _simple_params())
        assert report.health_factor == Fraction(80, 85)
        assert report.liquidatable
        assert report.close_factor == 1

    def test_half_liquidation_branch(self):
        report = health_factor(_position({"coll": 100}, {"debt": 81}), _simple_params())
        assert report.health_factor == Fraction(80, 81)
        assert Fraction("0.95") < report.health_factor < 1
        assert report.close_factor == Fraction(1, 2)

    @pytest.mark.parametrize(
        "h,kappa",
        [("1.01", 0), ("0.97", Fraction(1, 2)), ("0.95", 1), ("0.90", 1)],
    )
    def test_close_factor_branches(self, h, kappa):
        # collateral fixed at weighted value 80; debt chosen to hit H exactly
        debt = Fraction(80) / Fraction(h)
        report = health_factor(_position({"coll": 100}, {"debt": debt}), _simple_params())
        assert report.health_factor == Fraction(h)
        assert report.close_factor == kappa
        assert report.close_factor == o_close_factor(Fraction(h))

    def test_unit_boundary_strict(self):
        report = health_factor(_position({"coll": 100}, {"debt": 80}), _simple_params())
        assert report.health_factor == 1
        assert not report.liquidatable
        assert report.close_factor == 0

    def test_zero_debt_is_infinite(self):
        report = health_factor(_position({"coll": 100}, {}), _simple_params())
        assert report.infinite
        assert report.health_factor is None
        assert not report.liquidatable
        assert report.close_factor == 0

    def test_disabled_collateral_excluded(self):
        enabled = health_factor(_position({"coll": 100}, {"debt": 85}), _simple_params())
        disabled = health_factor(
            _position({"coll": 100}, {"debt": 85}, enabled=False), _simple_params()
        )
        assert enabled.liquidatable
        assert disabled.health_factor == 0
        assert disabled.liquidatable

    def test_decimal_normalization(self):
        params = _params()
        position = _position({WETH: 2 * 10**18}, {USDC: 3_000 * 10**6})
        report = health_factor(position, params)
        # 2 WETH * 2000 * 0.8 = 3200 over 3000 debt
        assert report.health_factor == Fraction(3200, 3000)

    def test_unknown_asset(self):
        with pytest.raises(UnknownAsset):
            health_factor(_position({"mystery": 1}, {}), _simple_params())

    def test_negative_amount(self):
        with pytest.raises(NegativeAmount):
            health_factor(_position({"coll": -1}, {}), _simple_params())

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
        st.fractions(min_value="1/1000", max_value=1000),
    )
    def test_price_scale_invariance(self, coll, debt, scale):
        base = _simple_params()
        scaled = {
            name: AssetParams(
                p.symbol, p.decimals, p.price * scale, p.liquidation_threshold,
                p.ltv, p.liquidation_bonus_bps, p.protocol_fee_share,
            )
            for name, p in base.items()
        }
        position = _position({"coll": coll}, {"debt": debt})
        a = health_factor(position, base)
        b = health_factor(position, scaled)
        assert a == b

    @given(st.integers(min_value=0, max_value=10**6))
    def test_monotone_in_debt(self, extra):
        params = _simple_params()
        lighter = health_factor(_position({"coll": 100}, {"debt": 50}), params)
        heavier = health_factor(_position({"coll": 100}, {"debt": 50 + extra}), params)
        assert heavier.health_factor <= lighter.health_factor

    @given(st.integers(min_value=0, max_value=10**6))
    def test_monotone_in_collateral(self, extra):
        params = _simple_params()
        small = health_factor(_position({"coll": 100}, {"debt": 90}), params)
        large = health_factor(_position({"coll": 100 + extra}, {"debt": 90}), params)
        assert large.health_factor >= small.health_factor


class TestLiquidationQuote:
    def _worked_inputs(self):
        # D=100, p_D=1, p_C=2, equal decimals, LB=10500 -> beta 0.05, fee 0.2
        params = {
            "coll": AssetParams("COLL", 18, Fraction(2), Fraction("0.5"),
                                Fraction("0.45"), 10_500, Fraction("0.2")),
            "debt": AssetParams("DEBT", 18, Fraction(1), Fraction("0.8"),
                                Fraction("0.75"), 10_000, Fraction("0.2")),
        }
        position = _position({"coll": 100}, {"debt": 200})
        return position, params

    def test_worked_quote(self):
        position, params = self._worked_inputs()
        report = health_factor(position, params)
        assert report.close_factor == 1  # H = 100*2*0.5 / 200 = 0.5
        quote = liquidation_quote(position, params, "debt", "coll", 100)
        assert quote.debt_repaid == 100
        assert quote.base_collateral == 50
        assert quote.total_collateral == Fraction("52.5")
        assert quote.protocol_fee == Fraction("0.525")
        assert quote.liquidator_receives == Fraction("51.975")
        oracle = o_quote(Fraction(100), Fraction(200), report.health_factor,
                         Fraction(1), Fraction(2), 18, 18, 10_500, Fraction("0.2"))
        assert quote.debt_repaid == oracle["debt_repaid"]
        assert quote.base_collateral == oracle["base_collateral"]
        assert quote.total_collateral == oracle["total_collateral"]
        assert quote.protocol_fee == oracle["protocol_fee"]
        assert quote.liquidator_receives == oracle["liquidator_receives"]

    def test_beta_from_bonus_bps(self):
        _position_, params = self._worked_inputs()
        assert params["coll"].bonus_rate == Fraction(1, 20)

    def test_zero_bonus_collapse(self):
        position, params = self._worked_inputs()
        params = dict(params)
        params["coll"] = AssetParams("COLL", 18, Fraction(2), Fraction("0.5"),
                                     Fraction("0.45"), 10_000, Fraction("0.9"))
        quote = liquidation_quote(position, params, "debt", "coll", 100)
        assert quote.total_collateral == quote.base_collateral
        assert quote.protocol_fee == 0
        assert quote.liquidator_receives == quote.base_collateral

    def test_not_liquidatable_gate(self):
        params = _simple_params()
        with pytest.raises(NotLiquidatable) as excinfo:
            liquidation_quote(_position({"coll": 100}, {"debt": 50}), params,
                              "debt", "coll", 10)
        assert excinfo.value.health_factor == Fraction(8, 5)

    def test_close_factor_caps_repaid_debt(self):
        # H = 0.97: only half the debt may be repaid
        params = _simple_params()
        debt = Fraction(80) / Fraction("0.97")
        position = _position({"coll": 100}, {"debt": debt})
        quote = liquidation_quote(position, params, "debt", "coll", 10**9)
        assert quote.debt_repaid == debt / 2

    def test_clamped_when_collateral_short(self):
        params = _simple_params()
        position = _position({"coll": 30}, {"debt": 100})
        quote = liquidation_quote(position, params, "debt", "coll", 100)
        assert quote.total_collateral == 30
        assert quote.debt_repaid < 100
        assert quote.liquidator_receives + quote.protocol_fee == quote.total_collateral

    def test_strict_mode_raises_instead_of_clamping(self):
        params = _simple_params()
        position = _position({"coll": 30}, {"debt": 100})
        with pytest.raises(InsufficientCollateral):
            liquidation_quote(position, params, "debt", "coll", 100, strict=True)

    def test_missing_position_assets(self):
        params = _simple_params()
        position = _position({"coll": 100}, {"debt": 200})
        with pytest.raises(UnknownAsset):
            liquidation_quote(position, params, "coll", "coll", 1)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=10_000, max_value=12_000),
        st.fractions(min_value=0, max_value=1),
    )
    def test_conservation_exact(self, coll, debt, cover, bonus, fee):
        params = {
            "coll": AssetParams("C", 8, Fraction(3), Fraction("0.5"),
                                Fraction("0.45"), bonus, fee),
            "debt": AssetParams("D", 6, Fraction(7), Fraction("0.8"),
                                Fraction("0.75"), 10_000, fee),
        }
        position = _position({"coll": coll}, {"debt": debt})
        report = health_factor(position, params)
        if not report.liquidatable:
            return
        quote = liquidation_quote(position, params, "debt", "coll", cover)
        assert quote.liquidator_receives + quote.protocol_fee == quote.total_collateral
        assert quote.total_collateral <= coll
        assert quote.total_collateral == quote.base_collateral * (1 + params["coll"].bonus_rate) \
            or quote.total_collateral == coll
        assert quote.debt_repaid >= 0

    def test_profit_is_fee_value_when_unclamped(self):
        position, params = self._worked_inputs()
        quote = liquidation_quote(position, params, "debt", "coll", 100)
        # value(base collateral) == value(repaid debt) exactly, so the USD
        # profit expression reduces to the fee's USD value
        fee_usd = quote.protocol_fee * Fraction(2) / 10**18
        assert quote.liquidator_profit_usd == fee_usd


def _decoded(chain, name, block, index, ts, fields):
    return DecodedEvent(
        chain_name=chain, event_name=name, block_number=block,
        block_timestamp=ts, transaction_hash=f"0x{block:060x}{index:04x}",
        log_index=index, contract_address="0x" + "aa" * 20,
        fields=list(fields.items()),
    )


def _ledger_events():
    """Twelve mixed events across two users; hand-computed expectations below."""
    a, b = "0x" + "01" * 20, "0x" + "02" * 20
    weth, usdc = "0x" + "0e" * 20, "0x" + "0c" * 20
    make = lambda name, block, index, fields: _decoded(
        "ethereum", name, block, index, 1_700_000_000 + block, fields)
    return [
        make("Supply", 100, 0, {"reserve": weth, "user": a, "onBehalfOf": a,
                                "amount": "1000", "referralCode": "0"}),
        make("ReserveUsedAsCollateralEnabled", 100, 1, {"reserve": weth, "user": a}),
        make("Supply", 101, 0, {"reserve": usdc, "user": b, "onBehalfOf": b,
                                "amount": "500", "referralCode": "0"}),
        make("ReserveUsedAsCollateralEnabled", 101, 1, {"reserve": usdc, "user": b}),
        make("Borrow", 102, 0, {"reserve": usdc, "user": a, "onBehalfOf": a,
                                "amount": "400", "interestRateMode": "2",
                                "borrowRate": "0", "referralCode": "0"}),
        make("Withdraw", 103, 0, {"reserve": weth, "user": a, "to": a, "amount": "200"}),
        make("Repay", 104, 0, {"reserve": usdc, "user": a, "repayer": a,
                               "amount": "150", "useATokens": "false"}),
        make("Borrow", 105, 0, {"reserve": weth, "user": b, "onBehalfOf": b,
                                "amount": "50", "interestRateMode": "2",
                                "borrowRate": "0", "referralCode": "0"}),
        make("Repay", 106, 0, {"reserve": usdc, "user": a, "repayer": b,
                               "amount": "250", "useATokens": "false"}),
        make("LiquidationCall", 107, 0, {"collateralAsset": usdc, "debtAsset": weth,
                                         "user": b, "debtToCover": "20",
                                         "liquidatedCollateralAmount": "60",
                                         "liquidator": a, "receiveAToken": "false"}),
        make("ReserveUsedAsCollateralDisabled", 108, 0, {"reserve": weth, "user": a}),
        make("Supply", 109, 0, {"reserve": weth, "user": b, "onBehalfOf": a,
                                "amount": "75", "referralCode": "0"}),
    ]


# Hand ledger (computed on paper before the engine existed):
#   user a: weth collateral 1000 - 200 + 75 = 875 (flag toggled off at 108)
#           usdc debt 400 - 150 - 250 = 0
#   user b: usdc collateral 500 - 60 = 440 (enabled)
#           weth debt 50 - 20 = 30
LEDGER_EXPECT = {
    "0x" + "01" * 20: {"collateral": {"0x" + "0e" * 20: 875},
                       "debt": {"0x" + "0c" * 20: 0},
                       "enabled": {"0x" + "0e" * 20: False}},
    "0x" + "02" * 20: {"collateral": {"0x" + "0c" * 20: 440},
                       "debt": {"0x" + "0e" * 20: 30},
                       "enabled": {"0x" + "0c" * 20: True}},
}


class TestReplay:
    def test_supply_withdraw_cancel(self):
        weth = "0x" + "0e" * 20
        a = "0x" + "01" * 20
        events = [
            _decoded("ethereum", "Supply", 1, 0, 10,
                     {"reserve": weth, "user": a, "onBehalfOf": a,
                      "amount": "100", "referralCode": "0"}),
            _decoded("ethereum", "ReserveUsedAsCollateralEnabled", 1, 1, 10,
                     {"reserve": weth, "user": a}),
            _decoded("ethereum", "Withdraw", 2, 0, 20,
                     {"reserve": weth, "user": a, "to": a, "amount": "100"}),
        ]
        result = replay(ledger_rows(events))
        assert result.positions[a].collateral[weth] == 0
        assert result.positions[a].is_collateral_enabled(weth)
        assert result.anomalies == []

    def test_borrow_repay_chain(self):
        usdc = "0x" + "0c" * 20
        a = "0x" + "01" * 20
        events = [
            _decoded("ethereum", "Borrow", 1, 0, 10,
                     {"reserve": usdc, "user": a, "onBehalfOf": a, "amount": "50",
                      "interestRateMode": "2", "borrowRate": "0", "referralCode": "0"}),
            _decoded("ethereum", "Repay", 2, 0, 20,
                     {"reserve": usdc, "user": a, "repayer": a,
                      "amount": "20", "useATokens": "false"}),
            _decoded("ethereum", "Repay", 3, 0, 30,
                     {"reserve": usdc, "user": a, "repayer": a,
                      "amount": "30", "useATokens": "false"}),
        ]
        result = replay(ledger_rows(events))
        assert result.positions[a].debt[usdc] == 0

    def test_twelve_event_hand_ledger(self):
        result = replay(ledger_rows(_ledger_events()))
        assert set(result.positions) == set(LEDGER_EXPECT)
        for user, expected in LEDGER_EXPECT.items():
            position = result.positions[user]
            for asset, amount in expected["collateral"].items():
                assert position.collateral[asset] == amount, (user, asset)
            for asset, amount in expected["debt"].items():
                assert position.debt[asset] == amount, (user, asset)
            for asset, flag in expected["enabled"].items():
                assert position.is_collateral_enabled(asset) == flag
        assert result.anomalies == []

    def test_replay_deterministic_and_composable(self):
        events = _ledger_events()
        once = replay(ledger_rows(events))
        twice = replay(ledger_rows(events))
        assert once.positions == twice.positions

        prefix = replay(ledger_rows(events[:6]))
        # continue from scratch over the whole stream; equality with the
        # one-shot run is the prefix+suffix consistency the engine promises
        assert (replay(ledger_rows(events)).positions
                == replay(ledger_rows(list(events))).positions)
        assert prefix.positions.keys() <= once.positions.keys()

    def test_unsorted_input_rejected(self):
        events = _ledger_events()
        events[3], events[2] = events[2], events[3]
        with pytest.raises(OrderViolation):
            replay(ledger_rows(events))

    def test_mixed_chains_rejected(self):
        events = _ledger_events()
        events[1] = _decoded("base", events[1].event_name, 100, 1, 10,
                             dict(events[1].fields))
        with pytest.raises(ValueError):
            replay(ledger_rows(events))

    def test_negative_balance_clamps_with_anomaly(self):
        weth = "0x" + "0e" * 20
        a = "0x" + "01" * 20
        events = [
            _decoded("ethereum", "Withdraw", 1, 0, 10,
                     {"reserve": weth, "user": a, "to": a, "amount": "10"}),
        ]
        result = replay(ledger_rows(events))
        assert result.positions[a].collateral[weth] == 0
        assert len(result.anomalies) == 1
        assert result.anomalies[0].user == a

    def test_indexed_mode_materializes_interest(self):
        weth = "0x" + "0e" * 20
        a = "0x" + "01" * 20
        events = [
            _decoded("ethereum", "ReserveDataUpdated", 1, 0, 1_000, {
                "reserve": weth, "liquidityRate": "0", "stableBorrowRate": "0",
                "variableBorrowRate": "0", "liquidityIndex": str(RAY),
                "variableBorrowIndex": str(RAY)}),
            _decoded("ethereum", "Supply", 2, 0, 2_000, {
                "reserve": weth, "user": a, "onBehalfOf": a,
                "amount": "100", "referralCode": "0"}),
            _decoded("ethereum", "ReserveDataUpdated", 3, 0, 3_000, {
                "reserve": weth, "liquidityRate": "0", "stableBorrowRate": "0",
                "variableBorrowRate": "0", "liquidityIndex": str(2 * RAY),
                "variableBorrowIndex": str(RAY)}),
        ]
        result = replay(ledger_rows(events), mode="indexed")
        # 100 supplied at index 1.0 is worth 200 once the index doubles
        assert result.positions[a].collateral[weth] == 200

    def test_replay_books_shard_rows_as_ledger_rows(self, registry, tmp_path):
        from aavescan.cli import _iter_chain_rows_sorted
        from aavescan.sink import ShardWriter

        weth = "0x" + "0e" * 20
        a = "0x" + "01" * 20
        writer = ShardWriter(str(tmp_path), "ethereum", registry.event("Supply"))
        writer.append(_decoded("ethereum", "Supply", 5, 0, 50,
                               {"reserve": weth, "user": a, "onBehalfOf": a,
                                "amount": "42", "referralCode": "0"}))
        writer.finalize(5)
        rows = [(key, ts, event, values) for key, ts, event, values, _path in
                _iter_chain_rows_sorted(str(tmp_path), "ethereum")]
        assert rows == [((5, 0), 50, "Supply", (a, weth, "42"))]
        result = replay(rows)
        assert result.positions[a].collateral[weth] == 42

    def test_ledger_rows_carry_the_booked_fields_in_order(self):
        events = _ledger_events()
        rows = list(ledger_rows(events[:2]))
        a, weth = "0x" + "01" * 20, "0x" + "0e" * 20
        assert rows == [((100, 0), 1_700_000_100, "Supply", (a, weth, "1000")),
                        ((100, 1), 1_700_000_100, "ReserveUsedAsCollateralEnabled", (a, weth))]

    def test_ledger_rows_refuse_an_event_without_a_booked_field(self):
        event = _ledger_events()[0]
        event.fields = [(name, value) for name, value in event.fields if name != "amount"]
        with pytest.raises(ValueError, match="Supply event lacks one of the fields"):
            list(ledger_rows([event]))

    def test_each_reserve_ends_as_a_state_of_its_latest_update(self):
        weth = "0x" + "0e" * 20
        update = lambda block, index: _decoded("ethereum", "ReserveDataUpdated", block, 0,
                                               block * 10, {
            "reserve": weth, "liquidityRate": "3", "stableBorrowRate": "5",
            "variableBorrowRate": "4", "liquidityIndex": str(index),
            "variableBorrowIndex": str(RAY)})
        result = replay(ledger_rows([update(1, RAY), update(2, 2 * RAY)]))
        assert result.reserves == {weth: ReserveState(
            liquidity_index=2 * RAY, variable_borrow_index=RAY, current_liquidity_rate=3,
            current_variable_borrow_rate=4, current_stable_borrow_rate=5,
            last_update_timestamp=20)}
