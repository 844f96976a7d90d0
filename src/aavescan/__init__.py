"""Cross-chain Aave V3 Pool event extraction, CSV sharding, and risk analytics."""

from .decoder import DecodedEvent, decode
from .gateway import (
    ErrorKind,
    FixtureGateway,
    GatewayError,
    HttpGateway,
    LogQuery,
    RawLog,
    classify_error,
)
from .registry import ChainConfig, EventSchema, Registry, load_registry, topic0_of
from .raymath import RAY, SECONDS_PER_YEAR, compounded_interest, linear_interest, percent_mul, ray_div, ray_mul
from .reserve import ReserveState, update_state
from .risk import (
    AssetParams,
    HealthReport,
    LiquidationQuote,
    Position,
    health_factor,
    ledger_rows,
    liquidation_quote,
    replay,
)
from .scanner import ScanPlan, ScanSummary, scan_events
from .sink import Checkpoint, ShardWriter, part_filename, validate_output

__version__ = "0.1.0"

__all__ = [
    "AssetParams",
    "ChainConfig",
    "Checkpoint",
    "DecodedEvent",
    "ErrorKind",
    "EventSchema",
    "FixtureGateway",
    "GatewayError",
    "HealthReport",
    "HttpGateway",
    "LiquidationQuote",
    "LogQuery",
    "Position",
    "RAY",
    "RawLog",
    "Registry",
    "ReserveState",
    "ScanPlan",
    "ScanSummary",
    "SECONDS_PER_YEAR",
    "ShardWriter",
    "classify_error",
    "compounded_interest",
    "decode",
    "health_factor",
    "ledger_rows",
    "linear_interest",
    "liquidation_quote",
    "load_registry",
    "part_filename",
    "percent_mul",
    "ray_div",
    "ray_mul",
    "replay",
    "scan_events",
    "topic0_of",
    "update_state",
    "validate_output",
    "__version__",
]
