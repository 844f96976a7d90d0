"""aavescan benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload fixture-e2e --seed 20251001 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the corpus generator and reference oracle from ``tests/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (correctness checks) and
``metrics``: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``. ``error_rate`` is ``failed / attempted``.

A child process sets up the inputs at least ``SETUP_REPS`` times and for
at least ``SETUP_SECONDS``, reporting the median as ``setup_s``, and computes the expected outputs once. This
process then repeats the workload until ``--seconds`` have passed (and at
least ``MIN_PASSES`` passes) and reports medians; its
peak RSS is therefore that of the passes. With ``--trace 1`` the first
half of the time runs untraced and the second half traced; the difference
of the two pipeline medians is ``tracing_overhead_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ("src/aavescan/__init__.py", "src/aavescan/cli.py",
            "tests/corpusgen.py", "tests/reference.py")
SETUP_REPS = 5
SETUP_SECONDS = 3.0
MIN_PASSES = 3  # per run; a traced run makes MIN_PASSES - 1 of each kind
SETUP_TIMEOUT_S = 100
WORK_DIR = ".perfbench_work"

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "ingest_rows_per_s": "rows/s",
    "validate_rows_per_s": "rows/s",
    "aggregate_s": "s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "registry.load_ms": "ms",
    "gateway.fixture_load_s": "s",
    "gateway.get_logs_us_per_row": "us",
    "gateway.timestamp_fetches": "count",
    "gateway.timestamp_cache_hit_ratio": "ratio",
    "gateway.round_trips.eth_getLogs": "count",
    "gateway.round_trips.eth_getBlockByNumber": "count",
    "gateway.round_trips.eth_blockNumber": "count",
    "gateway.round_trips.batch": "count",
    "gateway.rpc_round_trips_per_1k_rows": "count/1k_rows",
    "gateway.rpc_wait_s": "s",
    "gateway.rpc_wait_share": "ratio",
    "gateway.http_us_per_row": "us",
    "scanner.batches": "count",
    "scanner.resizes.too_large": "count",
    "scanner.resizes.growth": "count",
    "scanner.checkpoint_save_us": "us",
    "scanner.batch_ms.p50": "ms",
    "scanner.batch_ms.tail": "ms",
    "scanner.batch_ms.tail_pct": "%",
    "decoder.us_per_row": "us",
    "sink.append_us_per_row": "us",
    "sink.flush_us_per_batch": "us",
    "sink.fsyncs_per_batch": "count",
    "sink.part_close_ms": "ms",
    "sink.bytes_per_row": "bytes",
    "sink.validate_us_per_row": "us",
    "analytics.counts_us_per_row": "us",
    "analytics.new_users_us_per_row": "us",
    "analytics.deposit_volume_us_per_row": "us",
    "analytics.reads_per_part": "count",
    "cli.replay_read_us_per_row": "us",
    "risk.replay_us_per_row": "us",
    "cli.chain_overlap": "ratio",
    "stub.self_s": "s",
    "tracing_overhead_s": "s",
}

PHASES = ("ingest_s", "validate_s", "aggregate_s", "replay_s")


def say(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fixture-e2e", "live-stub"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: corpusgen.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus scale; below 1 only for smoke runs")
    parser.add_argument("--setup-to", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def checkout_ok() -> bool:
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        say(f"not an aavescan checkout: missing {', '.join(missing)} under {ROOT}")
        return False
    return True


def median(values):
    return statistics.median(values) if values else 0.0


def us_per(total_s: float, count: float) -> float:
    """Microseconds per item."""
    return total_s / count * 1e6 if count else 0.0


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_passes(workload, work: str, seconds: float, min_passes: int, tracer=None):
    """Repeat the workload until ``seconds`` pass; one sample dict per pass."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_passes or time.perf_counter() < deadline:
        out = os.path.join(work, f"pass{len(samples)}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        gc.collect()
        restore = None
        if tracer is not None:
            from tracing import install

            tracer.reset()
            restore, missing = install(tracer)
            if missing and not samples:
                say(f"tracing: hooks not found, their metrics read 0: {', '.join(missing)}")
            if hasattr(workload, "stub"):
                workload.stub.tracer = tracer
        try:
            phases = workload.iterate(os.path.join(out, "shards"))
        finally:
            if restore is not None:
                restore()
                if hasattr(workload, "stub"):
                    workload.stub.tracer = None
        sample = dict(phases)
        sample["pipeline_s"] = sum(phases[p] for p in PHASES)
        sample["counters"] = workload.counters()
        sample["counters"]["part_bytes"] = sample["part_bytes"] = workload.part_bytes
        if tracer is not None:
            sample["trace"] = snapshot(tracer, workload)
            sample["counters"].update(sample["trace"]["exact"])
        samples.append(sample)
        shutil.rmtree(out, ignore_errors=True)
        say(f"pass {len(samples)}{' traced' if tracer else ''}: "
            + " ".join(f"{k} {sample[k]:.4f}" for k in ("pipeline_s",) + PHASES))
    return samples


def snapshot(tracer, workload) -> dict:
    spans = tracer.spans()
    stub = getattr(workload, "stub", None)
    fetches = (stub.requests_by_method.get("eth_getBlockByNumber", 0) if stub else
               sum(sum(gw.block_fetches.values()) for gw in tracer.gateways
                   if hasattr(gw, "block_fetches")))
    analytics_spans = ("analytics.counts", "analytics.new_users", "analytics.deposit_volume")
    exact = {
        "fsyncs": tracer.counts("fsync"),
        "analytics_part_opens": tracer.counts("part_open", within=analytics_spans),
        "batches": int(tracer.values.get("scanner.batches", 0)),
        "flushes": spans.get("sink.flush", [0])[0],
        "timestamp_fetches": fetches,
    }
    return {
        "spans": spans,
        "values": dict(tracer.values),
        "kept": list(tracer.kept),
        "batch_ms": list(tracer.batch_ms),
        "exact": exact,
        "stub": ({"posts": stub.posts, "batch_posts": stub.batch_posts,
                  "single": dict(stub.single_by_method), "wait_s": stub.delay_total_s}
                 if stub else None),
    }


def layer_metrics(traced: list[dict], untraced: list[dict], workload) -> dict:
    n = len(traced)
    spans: dict[str, list] = {}
    values: dict[str, float] = {}
    kept, batch_ms = [], []
    for sample in traced:
        trace = sample["trace"]
        for name, agg in trace["spans"].items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += agg[i]
        for name, value in trace["values"].items():
            values[name] = values.get(name, 0) + value
        kept.extend(trace["kept"])
        batch_ms.extend(trace["batch_ms"])
    first = traced[0]["trace"]

    def count(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def mean(total_value, calls):
        return total_value / calls if calls else 0.0

    rows = values.get("gateway.rows", 0)
    tree_rows = workload.tree_rows * n
    stub = first["stub"]
    exact = first["exact"]
    batches = exact["batches"]
    too_large = values.get("gateway.error.RESPONSE_TOO_LARGE", 0) / n
    rate_limited = values.get("gateway.error.RATE_LIMITED", 0) / n
    extract_wall = sum(end - start for name, _tid, start, end in kept if name == "cli.extract")
    chain_extent = sum(end - start for name, _tid, start, end in kept
                       if name == "cli.extract_chain")
    per_pass_batches = len(batch_ms) // n if n else 0
    tail_pct = (math.floor(100 * (per_pass_batches - 10) / per_pass_batches)
                if per_pass_batches > 10 else 0)
    batch_ms.sort()
    # part files each analytics pass reads: deposit-volume reads Supply streams only
    parts_read = ((count("analytics.counts") + count("analytics.new_users")) * workload.parts
                  + count("analytics.deposit_volume") * workload.supply_parts)
    http = stub is not None
    rpc_wait_s = sum(s["trace"]["stub"]["wait_s"] for s in traced) / n if http else 0.0

    metrics = {
        "registry.load_ms": mean(total("registry.load"), count("registry.load")) * 1e3,
        "gateway.fixture_load_s": total("gateway.fixture_load") / n,
        "gateway.get_logs_us_per_row": us_per(own("gateway.get_logs"), rows),
        "gateway.timestamp_fetches": exact["timestamp_fetches"],
        "gateway.timestamp_cache_hit_ratio": (1 - exact["timestamp_fetches"] * n / rows
                                              if rows else 0.0),
        "gateway.round_trips.eth_getLogs": stub["single"].get("eth_getLogs", 0) if http else 0,
        "gateway.round_trips.eth_getBlockByNumber": (
            stub["single"].get("eth_getBlockByNumber", 0) if http else 0),
        "gateway.round_trips.eth_blockNumber": (
            stub["single"].get("eth_blockNumber", 0) if http else 0),
        "gateway.round_trips.batch": stub["batch_posts"] if http else 0,
        "gateway.rpc_round_trips_per_1k_rows": (stub["posts"] / workload.gateway_rows * 1e3
                                                if http and workload.gateway_rows else 0.0),
        "gateway.rpc_wait_s": rpc_wait_s,
        # the share of the untraced extract the stub spends in its delay
        "gateway.rpc_wait_share": rpc_wait_s / median([s["ingest_s"] for s in untraced]),
        "gateway.http_us_per_row": (us_per(own("gateway.get_logs")
                                            + own("gateway.latest_block"), rows)
                                    if http else 0.0),
        "scanner.batches": batches,
        "scanner.resizes.too_large": too_large,
        "scanner.resizes.growth": values.get("scanner.resizes", 0) / n - too_large - rate_limited,
        "scanner.checkpoint_save_us": mean(total("scanner.checkpoint_save"),
                                           count("scanner.checkpoint_save")) * 1e6,
        "scanner.batch_ms.p50": percentile(batch_ms, 50),
        "scanner.batch_ms.tail": percentile(batch_ms, tail_pct) if tail_pct else 0.0,
        "scanner.batch_ms.tail_pct": tail_pct,
        "decoder.us_per_row": us_per(own("decoder.decode"), count("decoder.decode")),
        "sink.append_us_per_row": us_per(own("sink.append"), count("sink.append")),
        "sink.flush_us_per_batch": us_per(total("sink.flush"), count("sink.flush")),
        "sink.fsyncs_per_batch": exact["fsyncs"] / exact["flushes"] if exact["flushes"] else 0.0,
        "sink.part_close_ms": mean(total("sink.part_close"), count("sink.part_close")) * 1e3,
        "sink.bytes_per_row": (traced[0]["part_bytes"] / workload.tree_rows
                               if workload.tree_rows else 0.0),
        "sink.validate_us_per_row": us_per(total("sink.validate"), tree_rows),
        "analytics.counts_us_per_row": us_per(total("analytics.counts"), tree_rows),
        "analytics.new_users_us_per_row": us_per(total("analytics.new_users"), tree_rows),
        "analytics.deposit_volume_us_per_row": us_per(total("analytics.deposit_volume"),
                                                       workload.supply_rows * n),
        "analytics.reads_per_part": (exact["analytics_part_opens"] * n / parts_read
                                     if parts_read else 0.0),
        "cli.replay_read_us_per_row": us_per(own("cli.replay_read"),
                                              workload.replayed_rows * n),
        "risk.replay_us_per_row": us_per(own("risk.replay"), workload.replayed_rows * n),
        "cli.chain_overlap": chain_extent / extract_wall if extract_wall else 0.0,
        "stub.self_s": own("stub.post") / n,
        "tracing_overhead_s": (median([s["pipeline_s"] for s in traced])
                               - median([s["pipeline_s"] for s in untraced])),
    }
    return metrics


def end_to_end(samples: list[dict], setup_s: float, workload) -> dict:
    def med(key):
        return median([s[key] for s in samples])

    return {
        "setup_s": setup_s,
        "pipeline_s": med("pipeline_s"),
        "ingest_rows_per_s": workload.tree_rows / med("ingest_s"),
        "validate_rows_per_s": workload.tree_rows / med("validate_s"),
        "aggregate_s": med("aggregate_s"),
        "replay_s": med("replay_s"),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check_repeats(checks, samples: list[dict]) -> None:
    """Counts (round trips, batches, fsyncs, part opens) must repeat exactly."""
    for sample in samples[1:]:
        checks.expect(sample["counters"] == samples[0]["counters"],
                      f"counts differ between passes: {sample['counters']} "
                      f"vs {samples[0]['counters']}")


def build_inputs(name: str, seed: int, scale: float, work: str):
    """``workloads.build_inputs`` in a child process; waits until it has ended.

    The child is a plain interpreter running this script with ``--setup-to``;
    it pickles its result to a file in ``work``. No helper process (such as
    multiprocessing's resource tracker) is started, and the child is killed
    and waited for on every way out of here.
    """
    out = os.path.join(work, "setup.pickle")
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--scale", repr(scale), "--setup-to", out]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = child.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if code != 0:
        raise RuntimeError(f"set-up process exited {code}")
    with open(out, "rb") as fh:
        result = pickle.load(fh)
    os.remove(out)
    return result


def setup_child(args) -> int:
    """Body of the set-up process: build the inputs, pickle them to ``--setup-to``."""
    import workloads

    work = os.path.dirname(args.setup_to)
    result = workloads.build_inputs(args.workload, ROOT, args.seed, args.scale, work,
                                    SETUP_REPS, SETUP_SECONDS)
    with open(args.setup_to, "wb") as fh:
        pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


def measure(args) -> dict:
    import corpusgen
    import workloads

    seed = corpusgen.DEFAULT_SEED if args.seed is None else args.seed
    checks = workloads.Checks(say)
    workload = workloads.WORKLOADS[args.workload](ROOT, seed, args.scale, checks)
    work = os.path.join(ROOT, WORK_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, oracle_s, state = build_inputs(args.workload, seed, args.scale, work)
        workload.attach(state)
        say(f"setup {' '.join(f'{t:.3f}' for t in setup_times)} s, oracles {oracle_s:.3f} s, "
            f"peak RSS before the passes {peak_rss_mb():.1f} MB")

        if args.trace:
            half = args.seconds / 2
            untraced = run_passes(workload, work, half, MIN_PASSES - 1)
            from tracing import Tracer

            traced = run_passes(workload, work, half, MIN_PASSES - 1, tracer=Tracer())
            check_repeats(checks, untraced)
            check_repeats(checks, traced)
            metrics = layer_metrics(traced, untraced, workload)
            units = PER_LAYER
        else:
            samples = run_passes(workload, work, args.seconds, MIN_PASSES)
            check_repeats(checks, samples)
            metrics = end_to_end(samples, median(setup_times), workload)
            units = END_TO_END
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds through the finally blocks, which stop the set-up child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not checkout_ok():
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    if args.setup_to:
        return setup_child(args)
    result = measure(args)
    error_rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    say(f"{args.workload}: {result['attempted']} checks, {result['failed']} failed "
        f"(error_rate {error_rate:g})")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
