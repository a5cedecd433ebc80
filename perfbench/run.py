"""Benchmark entry point.

    python3 perfbench/run.py --workload verify_corpus --seed 1 --seconds 40 --trace 0

Runs one workload (or, with ``--workload all``, each in turn), checks every
output against a known answer, prints each metric by name with its unit and,
as the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, and with ``--trace 1`` the per-layer ones, from spans
recorded around calls into each module.

With ``--trace 0`` every pass runs in its own fresh single-threaded worker
process, one after another for as long as the next one can end within
``--seconds``, so that set-up is sampled as often as the passes and both are
spread over the whole run.  ``setup_s`` is the median time from process
start until the inputs are built, imports included; ``wall_s`` the median
time of a pass's library operations; ``peak_rss_mb`` the median peak RSS of
the workers.  Every pass of a run must produce the same outputs: for
``verify_corpus`` that is the byte-identical report under different
``--seed-order`` values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_corpus", "colim_ladder", "poset_filtered")
WORKER_TIMEOUT = 170.0


class WorkerError(Exception):
    pass


def run_worker(args: list[str], seed: int) -> tuple[float, dict]:
    """Run a worker to the end; returns its set-up time and its result."""
    env = {k: v for k, v in os.environ.items() if k != "BICOLIM_CORPUS"}
    env["PYTHONHASHSEED"] = str(seed % 2**32)  # same seed, same iteration orders
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    timer = threading.Timer(WORKER_TIMEOUT, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = [line for line in rest.splitlines() if line.startswith("result ")]
    if first.strip() != "ready" or code != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with code {code} without a result")
    return setup, json.loads(lines[-1][len("result "):])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    setups, results = [], []
    if trace:
        setup, result = run_worker(base + ["--seconds", str(seconds)], seed)
        setups.append(setup)
        results.append(result)
    else:
        begin, longest = perf_counter(), 0.0
        while not results or perf_counter() - begin + longest <= seconds:
            started = perf_counter()
            args = base + ["--seconds", "0", "--first-pass", str(len(results))]
            setup, result = run_worker(args, seed)
            setups.append(setup)
            results.append(result)
            longest = max(longest, perf_counter() - started)

    passes = [t for r in results for t in r["passes"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    wrong = sum(r["wrong"] for r in results)
    digests = [d for r in results for d in r["digests"]]
    differing = sum(d != digests[0] for d in digests)
    if differing:
        print(f"{differing} of {len(digests)} passes differ from the first pass", file=sys.stderr)
        wrong += differing

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = results[0]["layers"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(passes),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }

    print(f"{workload} seed={seed} trace={trace}: {len(passes)} untraced passes, "
          f"{len(results)} worker processes")
    if not trace:
        for name, samples, what in (("setup_s", setups, "processes"), ("wall_s", passes, "passes")):
            print(f"  {name:24s} {values[name]:.4f} s  (median of {len(samples)} {what}, "
                  f"min {min(samples):.4f}, max {max(samples):.4f})")
        print(f"  {'peak_rss_mb':24s} {values['peak_rss_mb']:.1f} MiB")
    else:
        for name, value in values.items():
            print(f"  {name:44s} {value:.6g} {units[name]}")
    print(f"  {'wrong_verdicts':24s} {wrong} count")
    print(f"  {'failed_frac':24s} {failed / attempted:.4g} ratio  ({failed} of {attempted})")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, args.trace) for w in names}
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
