"""Fault scripts for ``FixtureGateway``: each inspects (call_index, query)
before a ``get_logs`` and returns the ErrorKind to inject, or None."""

import bisect
from typing import Iterable

from aavescan.gateway import ErrorKind, FaultScript, LogQuery


def max_span_fault(max_span: int) -> FaultScript:
    """RESPONSE_TOO_LARGE for any query wider than ``max_span`` blocks."""

    def script(call_index: int, query: LogQuery) -> ErrorKind | None:
        if query.to_block - query.from_block + 1 > max_span:
            return ErrorKind.RESPONSE_TOO_LARGE
        return None

    return script


def max_logs_fault(blocks: Iterable[int], max_logs: int) -> FaultScript:
    """RESPONSE_TOO_LARGE for any query whose range holds more than ``max_logs``
    logs, one per entry of ``blocks``: a provider's limit on results, not span."""
    ordered = sorted(blocks)

    def script(call_index: int, query: LogQuery) -> ErrorKind | None:
        held = (bisect.bisect_right(ordered, query.to_block)
                - bisect.bisect_left(ordered, query.from_block))
        return ErrorKind.RESPONSE_TOO_LARGE if held > max_logs else None

    return script


def scripted_faults(kinds: Iterable[ErrorKind | None]) -> FaultScript:
    """Inject the n-th entry on the n-th call; exhausted scripts inject nothing."""
    sequence = list(kinds)

    def script(call_index: int, query: LogQuery) -> ErrorKind | None:
        if call_index < len(sequence):
            return sequence[call_index]
        return None

    return script
