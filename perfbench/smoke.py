"""Fast smoke run of the benchmark: small inputs, every workload, both modes.

    python3 perfbench/smoke.py

Runs ``run.py`` on every workload of ``BENCHMARK.json``, on a corpus at
scale 0.02, at the default seed and one other, with tracing off and on. It asserts that the last line names every metric of
``BENCHMARK.json`` with its unit, that no check failed (``error_rate`` 0),
that the exact counts repeat between two traced runs of one seed, and that
the benchmark refuses to run, without printing a result, in a directory
holding only ``BENCHMARK.json`` and ``perfbench/``. Exits non-zero on the
first failed assertion.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--seconds", "0.5", "--scale", "0.02"]
OTHER_SEED = "7"
EXACT = ("gateway.rpc_round_trips_per_1k_rows", "scanner.batches", "sink.fsyncs_per_batch",
         "analytics.reads_per_part", "gateway.timestamp_fetches")


def run(cwd: str, workload: str, seed: str, trace: int) -> tuple[int, str]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", seed, "--trace", str(trace)] + SMALL
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke FAILED: {what}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            seen = []
            for seed in ("20251001", OTHER_SEED) + ((OTHER_SEED,) if trace else ()):
                code, stdout = run(ROOT, workload, seed, trace)
                check(code == 0, f"{workload} seed {seed} trace {trace} exited {code}")
                result = result_of(stdout)
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{workload}: result keys {sorted(result)}")
                check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                      f"{workload} seed {seed} trace {trace}: error_rate "
                      f"{result['failed']}/{result['attempted']}")
                metrics = result["metrics"]
                check(sorted(metrics) == sorted(m["name"] for m in wanted),
                      f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
                for m in wanted:
                    got = metrics[m["name"]]
                    check(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
                          f"{workload}: {m['name']} printed as {got}")
                seen.append(metrics)
                print(f"ok  {workload:12s} seed {seed:9s} trace {trace}: "
                      f"{len(metrics)} metrics, {result['attempted']} checks")
            if trace:
                for name in EXACT:
                    check(seen[1][name] == seen[2][name],
                          f"{workload}: {name} differs between two runs of one seed")

    bare = os.path.join(ROOT, ".perfbench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run(bare, spec["workloads"][0]["name"], "1", 0)
        check(code != 0 and not stdout.strip(),
              f"bare directory: exit {code}, stdout {stdout[-200:]!r}")
        print("ok  refuses to run without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
