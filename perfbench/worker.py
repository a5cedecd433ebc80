"""One workload in a fresh process; started by ``run.py``, not by hand.

Protocol on stdout: the line ``ready`` once the inputs are built (the
parent times set-up up to it), then one line ``result <json>`` after the
timed passes.  Everything else goes to stderr.  The worker runs one pass
(with ``--trace 1``: an untraced and a traced one), then more while the
next can end within ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import bicolim  # noqa: E402  (must resolve to this checkout's src/)

if not Path(bicolim.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bicolim imported from {bicolim.__file__}, not from {SRC}")

import tracing  # noqa: E402
from workloads import WORKLOADS, Pass, digest  # noqa: E402

SPANS_DIR = Path(__file__).resolve().parent / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-pass", type=int, default=0, help="index of the first pass")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    inputs = workload.build()
    print("ready", flush=True)

    passes: list[Pass] = []
    tracers: list[tracing.Tracer] = []
    begin = perf_counter()
    longest = 0.0
    # untraced passes only, or untraced and traced passes in turn
    while len(passes) < 1 + args.trace or perf_counter() - begin + longest <= args.seconds:
        started = perf_counter()
        if passes:
            inputs = workload.build()  # fresh inputs, so no pass reuses another's caches
        index = args.first_pass + len(passes)
        if args.trace and len(passes) % 2 == 1:
            tracer = tracing.Tracer(run=index)
            with tracer.installed():
                passes.append(workload.run_pass(inputs, index))
            tracers.append(tracer)
        else:
            passes.append(workload.run_pass(inputs, index))
        longest = max(longest, perf_counter() - started)

    plain = [p.seconds for k, p in enumerate(passes) if not (args.trace and k % 2)]
    result = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "wrong": sum(p.wrong for p in passes),
        "passes": plain,
        "digests": [digest(p.outputs) for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        traced = [p.seconds for k, p in enumerate(passes) if k % 2]
        result["layers"] = layer_metrics(tracers, statistics.median(traced) - statistics.median(plain))
        tracing.write_spans(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl", tracers)
    print("result " + json.dumps(result), flush=True)
    return 0


def layer_metrics(tracers: list[tracing.Tracer], overhead: float) -> dict[str, float]:
    """Every per-layer metric: times are medians over the traced passes,
    counts come from the first traced pass, whose inputs the seed fixes."""
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    summaries = [t.summary() for t in tracers]
    first = {**summaries[0], **tracers[0].counts}
    out: dict[str, float] = {}
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        if name == "trace.overhead_s":
            out[name] = overhead
        elif unit == "s":
            out[name] = statistics.median(s.get(name, 0.0) for s in summaries)
        elif name == "colim.class_ratio":
            premorphisms = first.get("colim.premorphisms", 0)
            out[name] = first.get("colim.classes", 0) / premorphisms if premorphisms else 0.0
        else:
            out[name] = first.get(name, 0)
    return out


if __name__ == "__main__":
    sys.exit(main())
