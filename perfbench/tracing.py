"""Span tracer and the wrappers that attach it to aavescan from outside.

The package is never edited: ``install`` swaps public functions and methods
of each module (and the few private hooks named below) for wrappers that
record a span around the original call and then call through. Spans nest
per thread; a span's self time is its duration minus the time of the spans
it encloses on the same thread. Per-row spans are aggregated on the fly
(count, total, self) instead of being stored one by one, so a million-row
stream does not grow the trace; the spans listed in ``KEPT`` are also kept
in memory as (name, thread id, start, end) records.

``os.fsync`` and ``open`` of part files are counted by wrappers that always
call through, so durability is never skipped. Each count is attributed to
the innermost open span of its thread.
"""

from __future__ import annotations

import builtins
import os
import sys
import threading
from time import perf_counter

KEPT = frozenset({"cli.extract", "cli.extract_chain"})


class _ThreadState:
    __slots__ = ("tid", "stack", "spans", "counts", "batch_start")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[list] = []  # [name, start, child time]
        self.spans: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.counts: dict[tuple[str, str], int] = {}  # (counter, span) -> n
        self.batch_start = 0.0


class Tracer:
    """Per-thread span stacks merged on demand; ``reset`` starts a new trace."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._generation = object()
            self._threads: list[_ThreadState] = []
            self.kept: list[tuple[str, int, float, float]] = []
            self.batch_ms: list[float] = []
            self.values: dict[str, float] = {}
            self.gateways: list = []

    def _state(self) -> _ThreadState:
        local = self._local
        if getattr(local, "generation", None) is not self._generation:
            local.generation = self._generation
            local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(local.state)
        return local.state

    # -- spans ------------------------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0]
        self._state().stack.append(frame)
        return frame

    def leave(self, frame: list) -> float:
        end = perf_counter()
        state = self._state()
        stack = state.stack
        while stack and stack.pop() is not frame:
            pass  # a frame left open by an exception unwinding past it
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        agg = state.spans.get(frame[0])
        if agg is None:
            agg = state.spans[frame[0]] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[2]
        if frame[0] in KEPT:
            with self._lock:
                self.kept.append((frame[0], state.tid, frame[1], end))
        return duration

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame)

        traced.__wrapped__ = fn
        return traced

    # -- counters ---------------------------------------------------------------------

    def count(self, counter: str, n: int = 1) -> None:
        state = self._state()
        key = (counter, state.stack[-1][0] if state.stack else "-")
        state.counts[key] = state.counts.get(key, 0) + n

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name] = self.values.get(name, 0) + value

    def batch_begin(self, start: float) -> None:
        self._state().batch_start = start

    def batch_end(self) -> None:
        elapsed = perf_counter() - self._state().batch_start
        with self._lock:
            self.batch_ms.append(elapsed * 1e3)

    # -- results ----------------------------------------------------------------------

    def spans(self) -> dict[str, list]:
        """name -> [count, total_s, self_s], summed over threads."""
        merged: dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (count, total, own) in state.spans.items():
                agg = merged.setdefault(name, [0, 0.0, 0.0])
                agg[0] += count
                agg[1] += total
                agg[2] += own
        return merged

    def counts(self, counter: str, within: tuple[str, ...] | None = None) -> int:
        """Occurrences of ``counter``, optionally only inside the named spans."""
        total = 0
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for (name, span), n in state.counts.items():
                if name == counter and (within is None or span in within):
                    total += n
        return total


def _is_part_file(path) -> bool:
    if not isinstance(path, (str, os.PathLike)):
        return False  # a file descriptor
    base = os.path.basename(os.fspath(path))
    return base.startswith("aave_V3_") and base.endswith(".csv")


def install(tracer: Tracer):
    """Attach ``tracer`` to the package; returns (restore function, missing hooks)."""
    from aavescan import analytics, cli, decoder, keccak, registry, risk, scanner, sink
    from aavescan.gateway import GatewayError

    undo: list = []
    missing: list[str] = []

    def patch(owner, attr: str, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))

    def patch_everywhere(module, attr: str, name: str) -> None:
        """Wrap a module-level function under every name the package binds it to."""
        original = vars(module).get(attr)
        if original is None:
            missing.append(f"{module.__name__}.{attr}")
            return
        traced = tracer.wrap(original, name)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "aavescan"]:
            for bound, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, bound, traced)
                    undo.append((mod, bound, original))

    def span(name: str):
        return lambda fn: tracer.wrap(fn, name)

    def trace_gateway(gateway):
        get_logs = gateway.get_logs

        def traced_get_logs(query):
            frame = tracer.enter("gateway.get_logs")
            tracer.batch_begin(frame[1])
            try:
                logs = get_logs(query)
            except GatewayError as exc:
                tracer.add(f"gateway.error.{exc.kind.name}", 1)
                raise
            finally:
                tracer.leave(frame)
            tracer.add("gateway.rows", len(logs))
            return logs

        gateway.get_logs = traced_get_logs
        gateway.latest_block = tracer.wrap(gateway.latest_block, "gateway.latest_block")
        with tracer._lock:
            tracer.gateways.append(gateway)
        return gateway

    fixture_cls = cli.FixtureGateway

    class TracedFixtureGateway(fixture_cls):
        @classmethod
        def from_dir(cls, *args, **kwargs):
            frame = tracer.enter("gateway.fixture_load")
            try:
                gateway = fixture_cls.from_dir(*args, **kwargs)
            finally:
                tracer.leave(frame)
            return trace_gateway(gateway)

    patch(cli, "FixtureGateway", lambda _orig: TracedFixtureGateway)

    def http_factory(make_gateway):
        def make(*args, **kwargs):
            return trace_gateway(make_gateway(*args, **kwargs))
        return make

    patch(cli, "HttpGateway", http_factory)

    def scan_event(fn):
        def traced(*args, **kwargs):
            frame = tracer.enter("scanner.scan_event")
            try:
                summary = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            tracer.add("scanner.batches", summary.batches_issued)
            tracer.add("scanner.resizes", summary.resize_events)
            return summary
        return traced

    def progress_printer(fn):
        def make(*args, **kwargs):
            emit = fn(*args, **kwargs)

            def traced_emit(*eargs, **ekwargs):
                frame = tracer.enter("scanner.progress")
                try:
                    return emit(*eargs, **ekwargs)
                finally:
                    tracer.leave(frame)
                    tracer.batch_end()
            return traced_emit
        return make

    def chain_rows(fn):
        def traced(*args, **kwargs):
            frame = tracer.enter("cli.replay_read")
            try:
                rows = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            return _TracedIterator(iter(rows), tracer, "cli.replay_read")
        return traced

    patch_everywhere(registry, "load_registry", "registry.load")
    patch_everywhere(keccak, "keccak256", "registry.keccak")
    patch_everywhere(decoder, "decode", "decoder.decode")
    patch_everywhere(sink, "validate_output", "sink.validate")
    patch_everywhere(analytics, "event_counts", "analytics.counts")
    patch_everywhere(analytics, "daily_new_users", "analytics.new_users")
    patch_everywhere(analytics, "deposit_volume", "analytics.deposit_volume")
    patch_everywhere(risk, "replay", "risk.replay")
    patch(cli, "run_extract", span("cli.extract"))
    patch(cli, "_extract_chain", span("cli.extract_chain"))
    patch(cli, "scan_event", scan_event)
    patch(cli, "_progress_printer", progress_printer)
    patch(cli, "_iter_chain_rows_sorted", chain_rows)
    patch(scanner.Checkpoint, "save", span("scanner.checkpoint_save"))
    patch(sink.ShardWriter, "append", span("sink.append"))
    patch(sink.ShardWriter, "flush", span("sink.flush"))
    patch(sink.ShardWriter, "finalize", span("sink.finalize"))
    patch(sink.ShardWriter, "_close_part", span("sink.part_close"))

    real_fsync = os.fsync

    def counted_fsync(fd):
        tracer.count("fsync")
        return real_fsync(fd)

    os.fsync = counted_fsync
    undo.append((os, "fsync", real_fsync))

    def counted_open(file, *args, **kwargs):
        if _is_part_file(file):
            tracer.count("part_open")
        return builtins.open(file, *args, **kwargs)

    for module in (sink, analytics):
        previous = vars(module).get("open")
        module.open = counted_open
        undo.append((module, "open", previous))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore, missing


class _TracedIterator:
    """Times every ``next`` of a row iterator as one span."""

    def __init__(self, inner, tracer: Tracer, name: str):
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.leave(frame)
