"""Tests of the benchmark itself: oracles, tracer and accounting.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bicolim import cli, colim, filtered, twocat, zoo  # noqa: E402
from bicolim.fincat import FinCat  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "colim_ladder": lambda seed: workloads.ColimLadder(seed, points=((2, 2), (3, 3))),
    "poset_filtered": lambda seed: workloads.PosetFiltered(seed, size=8, count=4),
    "verify_corpus": workloads.VerifyCorpus,
}


def traced_pass(workload, index: int = 1):
    tracer = tracing.Tracer(run=index)
    inputs = workload.build()
    with tracer.installed():
        result = workload.run_pass(inputs, index)
    return tracer, result


@functools.cache
def passes_of(name: str):
    """An untraced pass and two traced passes (fresh workload objects, same
    seed and pass index) of one workload."""
    make = SMALL[name]
    untraced = make(5).run_pass(make(5).build(), 1)
    return name, untraced, traced_pass(make(5)), traced_pass(make(5))


@pytest.fixture(params=sorted(SMALL))
def passes(request):
    return passes_of(request.param)


# -- oracles ------------------------------------------------------------------


def test_ladder_oracle_on_2x2():
    assert oracles.ladder_morphisms(2, 2) == 12
    ladder = workloads.ColimLadder(3, points=((2, 2),))
    inputs = ladder.build()
    (_, _, pf, star), = inputs
    assert len(colim.bifiltered_bicolimit(pf).result.dom) == 12
    assert len(colim.sigma_bicolimit(pf, star).result.dom) == 12
    result = ladder.run_pass(inputs, 0)
    assert (result.attempted, result.failed, result.wrong) == (2, 0, 0)


def test_ladder_oracle_flags_a_missing_morphism():
    obj_of = {(i, a): f"{i}{a}" for i in "xy" for a in "ab"}
    rank = {"a": 0, "b": 1}
    pairs = [(obj_of[p], obj_of[q]) for p in obj_of for q in obj_of if rank[p[1]] <= rank[q[1]]]
    dom = {f"m{k}": d for k, (d, _) in enumerate(pairs)}
    cod = {f"m{k}": c for k, (_, c) in enumerate(pairs)}
    assert oracles.ladder_mismatches(2, 2, rank, obj_of, dom, cod) == []
    del dom["m0"], cod["m0"]
    assert oracles.ladder_mismatches(2, 2, rank, obj_of, dom, cod)


def test_poset_oracle_on_three_elements():
    with_top = [("a", "c"), ("b", "c")]
    without = [("a", "b"), ("a", "c")]
    elements = ["a", "b", "c"]
    assert oracles.has_top(elements, oracles.closure(elements, with_top))
    assert not oracles.has_top(elements, oracles.closure(elements, without))
    assert filtered.check_bifiltered(twocat.locally_discrete(zoo.poset("T", with_top))).outcome
    assert not filtered.check_bifiltered(twocat.locally_discrete(zoo.poset("V", without))).outcome
    # the class {a <= c} alone leaves b without a bound shared with a
    assert not oracles.every_pair_bounded(elements, oracles.closure(elements, [("a", "c")]))
    assert oracles.every_pair_bounded(elements, oracles.closure(elements, with_top))


def test_expected_verify_table_follows_from_the_corpus():
    """The counts that follow from the fixture documents alone; the rest
    (13 bifiltered diagrams, 13 of 17 σ-filtered pairs) are argued in
    README.md."""
    want = json.loads((BENCH / "expected_verify.json").read_text())
    docs: dict[str, list[dict]] = {}
    for path in sorted((ROOT / "src" / "bicolim" / "corpus").glob("*.json")):
        docs.setdefault(path.name.split(".")[-2], []).append(json.loads(path.read_text()))
    lemmas = want["lemmas"]
    sigma_diagrams = sum(1 for d in docs["diagram"] if d.get("sigma"))
    assert want["fixture_count"] == sum(len(v) for v in docs.values())
    assert lemmas["checker-coherence"] == len(docs["twocat"])
    assert lemmas["trivialization"] == sum(1 + len(d.get("sigma", {})) for d in docs["twocat"])
    assert lemmas["flatness"] == len(docs["diagram"])
    assert lemmas["trivialization-colimit"] == sigma_diagrams
    assert lemmas["lex-closure"] == sum(1 for d in docs["diagram"] if d.get("expect", {}).get("lex"))
    assert lemmas["splitting"] == len(docs["idempotent"])
    assert lemmas["cofinality"] == len(docs["map"])
    assert lemmas["commutation-biequalizer"] == len(docs["parallel"])
    assert lemmas["flat-preserves-bilimits"] == len(docs["instance"])
    bifiltered = lemmas["coequification"] - sigma_diagrams
    assert lemmas["bicompact"] == len(docs["fincat"]) * bifiltered


# -- tracer --------------------------------------------------------------------


def namespace_snapshot() -> dict:
    snap = {
        (mod.__name__, attr): value
        for mod in tracing.bicolim_modules()
        for attr, value in vars(mod).items()
    }
    snap[("FinCat", "hom")] = vars(FinCat)["hom"]
    snap[("Suite", "tasks")] = vars(cli.Suite)["tasks"]
    return snap


def test_tracer_rebinds_everywhere_and_restores_everything():
    from bicolim import compact

    before = namespace_snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert colim.bifiltered_bicolimit is not before[("bicolim.colim", "bifiltered_bicolimit")]
        assert compact.bifiltered_bicolimit is colim.bifiltered_bicolimit
        assert cli.bifiltered_bicolimit is colim.bifiltered_bicolimit
    after = namespace_snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_restores_after_an_exception():
    before = namespace_snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert all(namespace_snapshot()[key] is value for key, value in before.items())


def test_traced_outputs_match_untraced(passes):
    name, untraced, (_, first), _ = passes
    assert untraced.wrong == first.wrong == 0
    assert untraced.failed == first.failed == 0
    assert untraced.outputs and untraced.outputs == first.outputs


def test_self_times_sum_to_at_most_wall_time(passes):
    _, _, (tracer, result), _ = passes
    summary = tracer.summary()
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert 0 < self_total <= result.seconds
    assert all(v >= 0 for k, v in summary.items() if k.endswith("self_s"))


def test_counts_repeat_exactly_with_the_same_seed(passes):
    _, _, (first, _), (second, _) = passes

    def counts(tracer):
        return {**tracer.counts, **{k: v for k, v in tracer.summary().items() if k.endswith(".calls")}}

    assert counts(first) and counts(first) == counts(second)


def test_every_layer_of_verify_is_measured():
    _, _, (tracer, _), _ = passes_of("verify_corpus")
    summary = tracer.summary()
    times = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"]
    missing = [t for t in times if t != "trace.overhead_s" and summary.get(t, 0) <= 0]
    assert missing == []
    assert tracer.counts["fincat.FinCat.hom.calls"] > 0


# -- accounting ------------------------------------------------------------------


def test_dropped_verify_instances_count_as_failures(monkeypatch):
    monkeypatch.setattr(cli.Suite, "_task_bicompact", lambda self, *args: lambda: None)
    workload = workloads.VerifyCorpus(1)
    result = workload.run_pass(workload.build(), 0)
    bicompact = workload.expected["lemmas"]["bicompact"]
    assert (result.failed, result.wrong) == (bicompact, 0)


def test_benchmark_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in BENCH.rglob("*"):
        parts = path.relative_to(BENCH).parts
        if path.is_file() and "__pycache__" not in parts and parts[0] != "out":
            target = tmp_path / "perfbench" / path.relative_to(BENCH)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poset_filtered", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
