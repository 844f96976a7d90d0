"""The benchmark workloads: inputs from a seed, one timed pass, and its checks.

``build_inputs`` runs in a process of its own. It builds a workload's
inputs with ``setup`` (timed as ``setup_s``) and computes the expected
outputs from the independent oracles with ``prepare`` (untimed), and hands
the result over as ``state``. The measuring process takes that state with
``attach`` and runs the whole path once per ``iterate`` call, returning the
wall time of each phase. Every output is then checked against the
expectation; a check that fails, or a step that raises, counts in
``Checks.failed``.

Why these two (see README.md for the layer map):

* fixture-e2e: the ROADMAP end-to-end path over the full corpus. Many small
  streams, so per-stream and per-query costs and per-row decode dominate;
  six chain threads run at once.
* live-stub: ``extract --live`` for one chain against an in-process
  JSON-RPC stub with a block-span limit and a fixed delay per POST. The only
  workload on the HTTP path, with many small batches and a timestamp round
  trip per new block.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import glob
import hashlib
import json
import os
import shutil
import statistics
from time import perf_counter

from click.testing import CliRunner

import corpusgen
import reference
import replay_oracle
from rpcstub import RpcStub

from aavescan import cli
from aavescan.registry import load_registry

GOLDEN_DIR_PARTS = ("tests", "golden")

# live-stub: a window of the Ethereum corpus, sized so one extract takes
# about a second. The span limit and the delay are assumptions, not
# measured provider figures (README.md, "live-stub traffic"): the limit is
# chosen below the CLI's default 10,000-block batch so that batch halving
# runs, and the delay is far below an internet round trip so that a run
# fits in seconds. gateway.rpc_wait_share reports the delay's measured
# share of the extract.
LIVE_CHAIN = "ethereum"
LIVE_WINDOW_OFFSET = 20_000
LIVE_WINDOW_BLOCKS = 24_000
LIVE_MAX_SPAN = 2_000
LIVE_DELAY_S = 0.0003
LIVE_URL = "http://127.0.0.1:9/perfbench-stub"


class Checks:
    """Counts correctness checks; a failure is reported once on stderr."""

    def __init__(self, report) -> None:
        self.attempted = 0
        self.failed = 0
        self._report = report

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                self._report(f"check failed: {what}")
        return ok


def invoke(checks: Checks, args: list[str]) -> float:
    """Run one CLI command in-process; returns its wall time."""
    runner = CliRunner()
    started = perf_counter()
    result = runner.invoke(cli.main, args)
    elapsed = perf_counter() - started
    detail = repr(result.exception) if result.exception else result.stderr[-300:]
    checks.expect(result.exit_code == 0, f"{args[0]} exited {result.exit_code}: {detail}")
    return elapsed


def part_files(stream: str) -> list[str]:
    return sorted(glob.glob(os.path.join(stream, "aave_V3_*_part[0-9][0-9][0-9]_*.csv")))


def read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(root, "*", "*", "aave_V3_*.csv")))


@contextlib.contextmanager
def memoized_corpus_reads():
    """Parse each corpus chain once while the reference oracle runs."""
    original = reference.load_chain
    reference.load_chain = functools.cache(original)
    try:
        yield
    finally:
        reference.load_chain = original


def build_inputs(name: str, root: str, seed: int, scale: float, work: str,
                 reps: int, seconds: float) -> tuple[list[float], float, dict]:
    """Set up at least ``reps`` times and ``seconds`` long, then compute the expected outputs.

    Returns the set-up times, the oracle time and the workload's state.
    Run in a process of its own, so that corpus generation and the oracles
    do not set the measuring process's peak RSS.
    """
    workload = WORKLOADS[name](root, seed, scale, Checks(None))
    times = []
    while len(times) < reps or sum(times) < seconds:
        target = fresh_dir(os.path.join(work, f"setup{len(times)}"))
        gc.collect()
        started = perf_counter()
        workload.setup(target)
        times.append(perf_counter() - started)
    started = perf_counter()
    workload.prepare()
    return times, perf_counter() - started, workload.state()


class Workload:
    name = ""
    read_repeats = 1  # validate/aggregate/replay runs per pass; their median is reported
    golden = None  # (shard digests, aggregate bytes) from tests/golden, default seed only

    def __init__(self, root: str, seed: int, scale: float, checks: Checks):
        self.root = root
        self.seed = seed
        self.scale = scale
        self.checks = checks
        self.gateway_rows = 0  # rows the gateway returns per pass (0: no gateway)
        self.tree_rows = 0  # rows in the shard tree after a pass
        self.supply_rows = 0
        self.replayed_rows = 0
        self.parts = 0  # part files in the shard tree after a pass
        self.supply_parts = 0

    def setup(self, work: str) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Expected outputs from the oracles; runs once, untimed."""

    def state(self) -> dict:
        """What the passes need, handed from the set-up process to the measuring one."""
        return {k: v for k, v in vars(self).items() if k not in ("checks", "registry")}

    def attach(self, state: dict) -> None:
        """Take over the state built by ``build_inputs``; wiring goes here."""
        vars(self).update(state)

    def iterate(self, out: str) -> dict:
        raise NotImplementedError

    def counters(self) -> dict:
        """Counts of the last pass that must repeat exactly between passes."""
        return {}

    def close(self) -> None:
        pass

    def _aggregate_expectations(self, corpus: str, chains: list[str]) -> None:
        with memoized_corpus_reads():
            self.expected_streams = {
                (chain, event): reference.stream_csv_bytes(corpus, chain, event)
                for chain in chains for event in sorted(corpusgen.LAYOUTS)
            }
            self.expected_aggregates = {
                "counts": reference.aggregate_counts(corpus, chains),
                "new-users": reference.aggregate_new_users(corpus, chains),
                "deposit-volume": reference.aggregate_deposit_volume(corpus, chains),
            }
            self.expected_replay = {
                chain: replay_oracle.replay_csv(replay_oracle.chain_events(corpus, chain))
                for chain in chains
            }
        data = [b for b in self.expected_streams.values() if b is not None]
        self.tree_rows = sum(b.count(b"\n") - 1 for b in data)
        self.gateway_rows = self.tree_rows
        self.replayed_rows = self.tree_rows
        supply = [b for (_chain, event), b in self.expected_streams.items()
                  if event == "Supply" and b is not None]
        self.supply_rows = sum(b.count(b"\n") - 1 for b in supply)
        self.parts = len(data)  # every stream fits one part at corpus sizes
        self.supply_parts = len(supply)

    def _run_pipeline(self, out: str, extract_args: list[str], chains: list[str],
                      prices: str) -> dict:
        results = os.path.join(os.path.dirname(out), "results")
        os.makedirs(results, exist_ok=True)
        checks = self.checks
        ingest = invoke(checks, ["extract", "--out", out] + extract_args)
        validate, aggregate, replay = [], [], []
        for _ in range(self.read_repeats):
            validate.append(invoke(checks, ["validate", out]))
            aggregate.append(sum(
                invoke(checks, ["aggregate", "--metric", metric, "--in", out, "--out",
                                os.path.join(results, f"{metric}.csv")] + extra)
                for metric, extra in (("counts", []), ("new-users", []),
                                      ("deposit-volume", ["--price-table", prices]))))
            replay.append(sum(
                invoke(checks, ["replay", "--in", out, "--chain", chain,
                                "--out", os.path.join(results, f"replay_{chain}.csv")])
                for chain in chains))
        self._check_tree(out, results, chains)
        self.part_bytes = tree_bytes(out)
        # the median damps a call that other load on the machine held up
        return {"ingest_s": ingest, "validate_s": statistics.median(validate),
                "aggregate_s": statistics.median(aggregate), "replay_s": statistics.median(replay)}

    def _check_tree(self, out: str, results: str, chains: list[str]) -> None:
        checks = self.checks
        golden = self.golden
        for (chain, event), expected in self.expected_streams.items():
            parts = part_files(os.path.join(out, chain, event))
            if expected is None:
                checks.expect(parts == [], f"{chain}/{event} should have no part files")
                continue
            if not checks.expect(len(parts) == 1, f"{chain}/{event}: {len(parts)} parts, want 1"):
                continue
            produced = read_bytes(parts[0])
            checks.expect(produced == expected, f"{chain}/{event} bytes differ from reference")
            if golden is not None:
                digest = hashlib.sha256(produced or b"").hexdigest()
                checks.expect(digest == golden[0][f"{chain}/{event}"],
                              f"{chain}/{event} digest differs from tests/golden")
        for metric, expected in self.expected_aggregates.items():
            produced = read_bytes(os.path.join(results, f"{metric}.csv"))
            checks.expect(produced == expected, f"aggregate {metric} differs from reference")
            if golden is not None:
                checks.expect(produced == golden[1][metric],
                              f"aggregate {metric} differs from tests/golden")
        for chain in chains:
            produced = read_bytes(os.path.join(results, f"replay_{chain}.csv"))
            checks.expect(produced == self.expected_replay[chain],
                          f"replay {chain} differs from the nominal oracle")


class FixtureE2E(Workload):
    """extract --chain all --event all, validate, three aggregates, replay per chain."""

    name = "fixture-e2e"
    # one validate, aggregate or replay sample is 0.15-1 s, so repeat them
    read_repeats = 3

    def setup(self, work: str) -> None:
        self.corpus = os.path.join(work, "corpus")
        self.prices = os.path.join(work, "prices.yaml")
        corpusgen.generate_corpus(self.corpus, seed=self.seed, scale=self.scale)
        corpusgen.write_price_table(self.prices)
        self.registry = load_registry()

    def prepare(self) -> None:
        self.chains = self.registry.chain_names()
        self._aggregate_expectations(self.corpus, self.chains)
        if self.seed == corpusgen.DEFAULT_SEED and self.scale == 1.0:
            golden_dir = os.path.join(self.root, *GOLDEN_DIR_PARTS)
            with open(os.path.join(golden_dir, "e2e_digests.json"), encoding="utf-8") as fh:
                digests = json.load(fh)
            aggregates = {
                metric: read_bytes(os.path.join(golden_dir, "aggregates", name))
                for metric, name in (("counts", "counts.csv"), ("new-users", "new_users.csv"),
                                     ("deposit-volume", "deposit_volume.csv"))
            }
            self.golden = (digests, aggregates)

    def iterate(self, out: str) -> dict:
        return self._run_pipeline(
            out, ["--chain", "all", "--event", "all", "--fixture-dir", self.corpus],
            self.chains, self.prices)


class LiveStub(Workload):
    """extract --live for one chain against the JSON-RPC stub, then the rest of the path."""

    name = "live-stub"
    # its read steps take 10-80 ms each, so one call is mostly jitter
    read_repeats = 5

    def setup(self, work: str) -> None:
        users = corpusgen.make_users(seed=self.seed)
        records, blocks = corpusgen.generate_chain(LIVE_CHAIN, seed=self.seed,
                                                   scale=self.scale, users=users)
        start = corpusgen.CHAINS[LIVE_CHAIN][1]
        self.first = start + LIVE_WINDOW_OFFSET
        self.last = self.first + LIVE_WINDOW_BLOCKS - 1
        # the window alone, as a corpus, so the reference oracle sees exactly it
        self.window = os.path.join(work, "window")
        chain_dir = os.path.join(self.window, LIVE_CHAIN)
        os.makedirs(chain_dir)
        inside = [r for r in records if self.first <= r["blockNumber"] <= self.last]
        with open(os.path.join(chain_dir, "logs.jsonl"), "w", encoding="utf-8") as fh:
            for record in inside:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        with open(os.path.join(chain_dir, "blocks.json"), "w", encoding="utf-8") as fh:
            json.dump({"head": blocks["head"], "timestamps": {
                k: v for k, v in blocks["timestamps"].items()
                if self.first <= int(k) <= self.last}}, fh, sort_keys=True)
        self.prices = os.path.join(work, "prices.yaml")
        corpusgen.write_price_table(self.prices)
        self.registry = load_registry()

    def prepare(self) -> None:
        self._aggregate_expectations(self.window, [LIVE_CHAIN])
        self.env_key = self.registry.chain(LIVE_CHAIN).rpc_env_key

    def attach(self, state: dict) -> None:
        super().attach(state)
        # the stub serves the window alone, as the oracle sees it
        chain_dir = os.path.join(self.window, LIVE_CHAIN)
        with open(os.path.join(chain_dir, "logs.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        with open(os.path.join(chain_dir, "blocks.json"), encoding="utf-8") as fh:
            blocks = json.load(fh)
        timestamps = {int(k): v for k, v in blocks["timestamps"].items()}
        self.stub = RpcStub(records, timestamps, blocks["head"], LIVE_MAX_SPAN, LIVE_DELAY_S)
        self._http_class = cli.HttpGateway
        http_class = self._http_class
        stub = self.stub
        cli.HttpGateway = lambda url, *args, **kwargs: http_class(url, *args, session=stub,
                                                                  **kwargs)
        self._env = os.environ.get(self.env_key)
        os.environ[self.env_key] = LIVE_URL

    def close(self) -> None:
        if getattr(self, "_http_class", None) is not None:
            cli.HttpGateway = self._http_class
            if self._env is None:
                os.environ.pop(self.env_key, None)
            else:
                os.environ[self.env_key] = self._env

    def iterate(self, out: str) -> dict:
        self.stub.reset()
        phases = self._run_pipeline(
            out, ["--live", "--chain", LIVE_CHAIN, "--event", "all",
                  "--from", str(self.first), "--to", str(self.last)],
            [LIVE_CHAIN], self.prices)
        topics = [layout["topic0"] for layout in corpusgen.LAYOUTS.values()]
        for error in self.stub.coverage_errors(topics, self.first, self.last):
            self.checks.expect(False, f"stub coverage: {error}")
        self.checks.expect(self.stub.rows_served == self.gateway_rows,
                           f"stub served {self.stub.rows_served} rows, "
                           f"window holds {self.gateway_rows}")
        return phases

    def counters(self) -> dict:
        stub = self.stub
        return {"posts": stub.posts, "batch_posts": stub.batch_posts,
                "single": dict(sorted(stub.single_by_method.items())),
                "requests": dict(sorted(stub.requests_by_method.items()))}


WORKLOADS = {cls.name: cls for cls in (FixtureE2E, LiveStub)}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
