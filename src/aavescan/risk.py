"""Health factor, liquidation quoting, and position replay.

Health factor is the liquidation-threshold-weighted collateral value over
total debt value; a position becomes liquidatable strictly below 1, and the
close factor jumps from half to full at 0.95 (inclusive). The quote applies
the bonus to the price-converted base collateral and carves the protocol fee
out of the bonus, so quantity conservation (liquidator + fee == total) holds
exactly by construction.

All arithmetic is exact rational; token quantities only ever meet prices at
the USD boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .decoder import DecodedEvent, OrderViolation
from .raymath import ray_div, ray_mul
from .reserve import ReserveState, update_state

CLOSE_FACTOR_PIVOT = Fraction(95, 100)
BONUS_BPS_BASE = 10_000

Amount = Fraction  # token amounts; ints coerce exactly


class RiskError(Exception):
    pass


class UnknownAsset(RiskError):
    pass


class NegativeAmount(RiskError):
    pass


class NotLiquidatable(RiskError):
    def __init__(self, health_factor: Fraction | None):
        text = "inf" if health_factor is None else f"{float(health_factor):.6f}"
        super().__init__(f"position is not liquidatable (health factor {text})")
        self.health_factor = health_factor


class InsufficientCollateral(RiskError):
    pass


@dataclass(frozen=True)
class AssetParams:
    symbol: str
    decimals: int
    price: Fraction  # USD per whole token
    liquidation_threshold: Fraction  # fraction of value counted as collateral
    ltv: Fraction
    liquidation_bonus_bps: int = BONUS_BPS_BASE
    protocol_fee_share: Fraction = Fraction(1, 5)  # of the bonus

    @property
    def bonus_rate(self) -> Fraction:
        """beta = (LB - 10000) / 10000."""
        return Fraction(self.liquidation_bonus_bps - BONUS_BPS_BASE, BONUS_BPS_BASE)

    def validate(self) -> None:
        if self.decimals < 0:
            raise ValueError(f"{self.symbol}: negative decimals")
        if self.price <= 0:
            raise ValueError(f"{self.symbol}: price must be positive")
        if not 0 <= self.liquidation_threshold <= 1:
            raise ValueError(f"{self.symbol}: liquidation threshold outside [0, 1]")
        if not 0 <= self.ltv <= 1:
            raise ValueError(f"{self.symbol}: ltv outside [0, 1]")
        if self.liquidation_bonus_bps < BONUS_BPS_BASE:
            raise ValueError(f"{self.symbol}: liquidation bonus below {BONUS_BPS_BASE} bps")
        if not 0 <= self.protocol_fee_share <= 1:
            raise ValueError(f"{self.symbol}: protocol fee share outside [0, 1]")


@dataclass
class Position:
    user: str
    collateral: dict[str, Amount] = dc_field(default_factory=dict)
    collateral_enabled: dict[str, bool] = dc_field(default_factory=dict)
    debt: dict[str, Amount] = dc_field(default_factory=dict)

    def is_collateral_enabled(self, asset: str) -> bool:
        return self.collateral_enabled.get(asset, False)


@dataclass(frozen=True)
class HealthReport:
    health_factor: Fraction | None  # None means no debt: infinite
    liquidatable: bool
    close_factor: Fraction

    @property
    def infinite(self) -> bool:
        return self.health_factor is None


@dataclass(frozen=True)
class LiquidationQuote:
    debt_repaid: Fraction
    base_collateral: Fraction
    total_collateral: Fraction
    protocol_fee: Fraction
    liquidator_receives: Fraction
    liquidator_profit_usd: Fraction


def _checked_amount(value, what: str) -> Fraction:
    amount = Fraction(value)
    if amount < 0:
        raise NegativeAmount(f"{what} is negative: {amount}")
    return amount


def _params_for(asset: str, params: Mapping[str, AssetParams]) -> AssetParams:
    try:
        return params[asset]
    except KeyError:
        raise UnknownAsset(f"no parameters for asset {asset!r}") from None


def health_factor(position: Position, params: Mapping[str, AssetParams]) -> HealthReport:
    """Evaluate the position's health and close factor.

    Zero total debt yields an infinite health factor and close factor 0;
    disabled collateral is excluded from the numerator.
    """
    weighted_collateral = Fraction(0)
    for asset, amount in position.collateral.items():
        amount = _checked_amount(amount, f"collateral {asset}")
        p = _params_for(asset, params)
        if not position.is_collateral_enabled(asset):
            continue
        weighted_collateral += (
            amount * p.price * p.liquidation_threshold / 10**p.decimals
        )

    total_debt = Fraction(0)
    for asset, amount in position.debt.items():
        amount = _checked_amount(amount, f"debt {asset}")
        p = _params_for(asset, params)
        total_debt += amount * p.price / 10**p.decimals

    if total_debt == 0:
        return HealthReport(health_factor=None, liquidatable=False, close_factor=Fraction(0))

    h = weighted_collateral / total_debt
    if h <= CLOSE_FACTOR_PIVOT:
        close = Fraction(1)
    elif h < 1:
        close = Fraction(1, 2)
    else:
        close = Fraction(0)
    return HealthReport(health_factor=h, liquidatable=h < 1, close_factor=close)


def liquidation_quote(
    position: Position,
    params: Mapping[str, AssetParams],
    debt_asset: str,
    collateral_asset: str,
    debt_to_cover,
    strict: bool = False,
) -> LiquidationQuote:
    """Price a liquidation of ``debt_to_cover`` against the position.

    The repaid debt is capped at close_factor * outstanding debt. When the
    bonus-inflated collateral exceeds what the user holds, the default mode
    clamps the seizure to the available balance and scales the repaid debt
    proportionally; ``strict`` raises InsufficientCollateral instead.
    """
    report = health_factor(position, params)
    if not report.liquidatable:
        raise NotLiquidatable(report.health_factor)

    if debt_asset not in position.debt:
        raise UnknownAsset(f"position has no debt in {debt_asset!r}")
    if collateral_asset not in position.collateral:
        raise UnknownAsset(f"position has no collateral in {collateral_asset!r}")

    debt_params = _params_for(debt_asset, params)
    coll_params = _params_for(collateral_asset, params)
    outstanding = _checked_amount(position.debt[debt_asset], f"debt {debt_asset}")
    available = _checked_amount(
        position.collateral[collateral_asset], f"collateral {collateral_asset}"
    )
    debt_to_cover = _checked_amount(debt_to_cover, "debt_to_cover")

    repaid = min(debt_to_cover, report.close_factor * outstanding)
    price_ratio = debt_params.price / coll_params.price
    scale = Fraction(10) ** (coll_params.decimals - debt_params.decimals)
    base = repaid * price_ratio * scale

    beta = coll_params.bonus_rate
    total = base * (1 + beta)
    if total > available:
        if strict:
            raise InsufficientCollateral(
                f"quote needs {float(total):.6f} {collateral_asset}, "
                f"position holds {float(available):.6f}"
            )
        ratio = available / total
        repaid *= ratio
        base *= ratio
        total = available

    fee = total * beta * coll_params.protocol_fee_share
    received = total - fee

    usd_per_coll_unit = coll_params.price / 10**coll_params.decimals
    usd_per_debt_unit = debt_params.price / 10**debt_params.decimals
    profit_usd = fee * usd_per_coll_unit + (
        base * usd_per_coll_unit - repaid * usd_per_debt_unit
    )

    return LiquidationQuote(
        debt_repaid=repaid,
        base_collateral=base,
        total_collateral=total,
        protocol_fee=fee,
        liquidator_receives=received,
        liquidator_profit_usd=profit_usd,
    )


# -- replay ---------------------------------------------------------------------


@dataclass
class Anomaly:
    key: tuple[int, int]
    user: str
    asset: str
    detail: str


@dataclass
class ReplayResult:
    positions: dict[str, Position]
    anomalies: list[Anomaly]
    reserves: dict[str, ReserveState]


# The fields ``replay`` reads, per event name, in the order it reads them (the
# rates and indices in ReserveState's field order); other events book nothing.
REPLAY_FIELDS: dict[str, tuple[str, ...]] = {
    "ReserveDataUpdated": ("reserve", "liquidityIndex", "variableBorrowIndex",
                           "liquidityRate", "variableBorrowRate", "stableBorrowRate"),
    "ReserveUsedAsCollateralEnabled": ("user", "reserve"),
    "ReserveUsedAsCollateralDisabled": ("user", "reserve"),
    "Supply": ("onBehalfOf", "reserve", "amount"),
    "Withdraw": ("user", "reserve", "amount"),
    "Borrow": ("onBehalfOf", "reserve", "amount"),
    "Repay": ("user", "reserve", "amount"),
    "LiquidationCall": ("user", "debtAsset", "collateralAsset", "debtToCover",
                        "liquidatedCollateralAmount"),
}

# Supply, Withdraw, Borrow and Repay: the Position side each books, and whether it adds
_FLOWS = {"Supply": ("collateral", True), "Withdraw": ("collateral", False),
          "Borrow": ("debt", True), "Repay": ("debt", False)}

LedgerRow = tuple[tuple[int, int], int, str, Sequence[str]]


def ledger_rows(events: Iterable[DecodedEvent]) -> Iterator[LedgerRow]:
    """``replay``'s rows of decoded events; ValueError at a second chain or a field missing."""
    chain_seen = None
    for ev in events:
        if chain_seen is None:
            chain_seen = ev.chain_name
        elif ev.chain_name != chain_seen:
            raise ValueError(f"replay requires a single chain stream "
                             f"(saw {chain_seen!r} and {ev.chain_name!r})")
        names = REPLAY_FIELDS.get(ev.event_name, ())
        fields = dict(ev.fields)
        if not fields.keys() >= set(names):
            raise ValueError(f"{ev.event_name} event lacks one of the fields {', '.join(names)}")
        yield ev.key, ev.block_timestamp, ev.event_name, tuple(fields[name] for name in names)


def _built(state: ReserveState | tuple[int, ...]) -> ReserveState:
    """``state``, or the ReserveState of a ReserveDataUpdated's (indices, rates, timestamp)."""
    return (ReserveState(*state[:5], last_update_timestamp=state[5])
            if type(state) is tuple else state)


def replay(rows: Iterable[LedgerRow], mode: str = "nominal") -> ReplayResult:
    """Reconstruct per-user positions from one chain's ledger rows in key order.

    A row is ``((block_number, log_index), block_timestamp, event_name, values)``,
    ``values`` being only the event's ``REPLAY_FIELDS``, as strings in that order
    (``ledger_rows`` makes rows of DecodedEvents). ``nominal`` books raw amounts;
    ``indexed`` stores scaled balances and advances per-reserve indices from
    ReserveDataUpdated events, so the returned balances include accrued interest.
    A balance that would go below zero is clamped at zero with an Anomaly.
    OrderViolation at a key not above the one before; ValueError at a non-integer.
    """
    if mode not in ("nominal", "indexed"):
        raise ValueError(f"unknown replay mode {mode!r}")
    indexed = mode == "indexed"
    positions: dict[str, Position] = {}
    anomalies: list[Anomaly] = []
    # a ReserveDataUpdated's integers stay a tuple until a state is read (``_built``)
    reserves: dict[str, ReserveState | tuple[int, ...]] = {}
    last_key: tuple = ()  # below every key
    last_ts = 0

    def new_position(user: str) -> Position:
        position = positions[user] = Position(user=user)
        return position

    def reserve_at(asset: str, ts: int) -> ReserveState:
        state = _built(reserves.get(asset) or ReserveState(last_update_timestamp=ts))
        if state.last_update_timestamp < ts:
            state = update_state(state, ts)
        reserves[asset] = state
        return state

    def sub(book: dict, side: str, user: str, asset: str, amount: int, key) -> None:
        balance = book.get(asset, 0) - amount
        if balance < 0:
            anomalies.append(Anomaly(key=key, user=user, asset=asset, detail=(
                f"{side} balance went {balance} on {asset}; clamped to 0")))
            balance = 0
        book[asset] = balance

    for key, ts, name, values in rows:
        if key <= last_key:
            raise OrderViolation(f"event key {key} not above {last_key}")
        last_key = key
        if ts > last_ts:
            last_ts = ts
        flow = _FLOWS.get(name)
        if flow is not None:
            user, asset, amount = values
            side, adds = flow
            amount = int(amount)
            if indexed:
                state = reserve_at(asset, ts)
                amount = ray_div(amount, state.liquidity_index if side == "collateral"
                                 else state.variable_borrow_index)
            position = positions.get(user) or new_position(user)
            book = position.collateral if side == "collateral" else position.debt
            if adds:
                book[asset] = book.get(asset, 0) + amount
            else:
                sub(book, side, user, asset, amount, key)
        elif name == "ReserveDataUpdated":
            asset, liquidity_index, borrow_index, liquidity_rate, borrow_rate, stable_rate = values
            reserves[asset] = (int(liquidity_index), int(borrow_index), int(liquidity_rate),
                               int(borrow_rate), int(stable_rate), ts)
        elif name == "LiquidationCall":
            user, debt_asset, coll_asset, debt_amount, coll_amount = values
            debt_amount, coll_amount = int(debt_amount), int(coll_amount)
            if indexed:
                debt_amount = ray_div(debt_amount, reserve_at(debt_asset, ts).variable_borrow_index)
                coll_amount = ray_div(coll_amount, reserve_at(coll_asset, ts).liquidity_index)
            position = positions.get(user) or new_position(user)
            sub(position.debt, "debt", user, debt_asset, debt_amount, key)
            sub(position.collateral, "collateral", user, coll_asset, coll_amount, key)
        elif name in ("ReserveUsedAsCollateralEnabled", "ReserveUsedAsCollateralDisabled"):
            user, asset = values
            position = positions.get(user) or new_position(user)
            position.collateral_enabled[asset] = name.endswith("Enabled")

    if indexed:  # every booked asset went through ``reserve_at``
        for asset in list(reserves):
            reserve_at(asset, last_ts)
        for position in positions.values():
            for asset, scaled in position.collateral.items():
                position.collateral[asset] = ray_mul(int(scaled), reserves[asset].liquidity_index)
            for asset, scaled in position.debt.items():
                position.debt[asset] = ray_mul(int(scaled), reserves[asset].variable_borrow_index)

    return ReplayResult(positions=positions, anomalies=anomalies,
                        reserves={asset: _built(state) for asset, state in reserves.items()})
