"""The three benchmark workloads.

Each workload turns the benchmark seed into plain-Python input specs in its
constructor, builds library inputs from them in :meth:`build` (validation at
the trust boundary: ``build_fincat``, ``build_pseudofunctor``) and times the
library operations of one pass in :meth:`run_pass`.  Only the operations are
timed; the known-answer checks run outside the timed region.  Library calls
go through module attributes so that a :class:`tracing.Tracer` sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import oracles

HERE = Path(__file__).resolve().parent


@dataclass
class Pass:
    seconds: float  # wall time of the timed operations only
    attempted: int = 0
    failed: int = 0  # exceptions, size-guard trips, instances missing from a report
    wrong: int = 0  # outputs that differ from the known answer
    outputs: list[str] = field(default_factory=list)  # digests of every output


def digest(output: Any) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------


class VerifyCorpus:
    """``bicolim verify --format machine`` over the bundled corpus.

    Every pass uses its own ``--seed-order`` drawn from the seed; ``run.py``
    checks that the report comes out byte-identical on every pass all the same.
    """

    name = "verify_corpus"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.expected = json.loads((HERE / "expected_verify.json").read_text())

    def seed_order(self, index: int) -> int:
        return random.Random(f"{self.seed}:{index}").randrange(1, 2**31)

    def build(self) -> Path:
        from bicolim import cli, fixtures

        corpus = Path(cli.__file__).parent / "corpus"
        cache: dict = {}
        for path in sorted(corpus.glob("*.json")):
            fixtures.load_fixture(path, cache)
        return corpus

    def run_pass(self, corpus: Path, index: int) -> Pass:
        from bicolim import cli

        want = self.expected["lemmas"]
        attempted = sum(want.values())
        argv = ["verify", "--format", "machine", "--seed-order", str(self.seed_order(index))]
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                cli.main(argv)
        except Exception:
            _report_failure(" ".join(argv))
            return Pass(perf_counter() - start, attempted, attempted)
        seconds = perf_counter() - start
        text = out.getvalue()
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            print(f"no machine report from {' '.join(argv)}", file=sys.stderr)
            return Pass(seconds, attempted, attempted)

        wrong = (report.get("ok") is not True) + (
            report.get("fixture_count") != self.expected["fixture_count"]
        )
        failed = 0
        lemmas = report.get("lemmas", {})
        for lemma, count in want.items():
            slot = lemmas.get(lemma, {"pass": 0, "fail": 0})
            wrong += slot["fail"] + max(0, slot["pass"] - count)
            # an instance that never reached the report was silently dropped
            failed += max(0, count - slot["pass"] - slot["fail"])
        for lemma in set(lemmas) - set(want):
            wrong += lemmas[lemma]["pass"] + lemmas[lemma]["fail"]
        return Pass(seconds, attempted, failed, wrong, [digest(text)])


# ---------------------------------------------------------------------------

LADDER = ((4, 4), (6, 6), (8, 6), (8, 8))


def _labels(prefix: str, count: int, rng: random.Random) -> list[str]:
    """``count`` distinct names in a seeded order unrelated to name order."""
    return [f"{prefix}{v:02d}" for v in rng.sample(range(100), count)]


def _chain(names: list[str]) -> list[tuple[str, str]]:
    return list(zip(names, names[1:]))


class ColimLadder:
    """Constant ``chain(m)`` diagrams over ``locally_discrete(chain(n))``.

    At each ladder point both the bifiltered colimit and the colimit relative
    to the star class {i <= top} are computed.  The seed only relabels the
    objects of both chains.
    """

    name = "colim_ladder"

    def __init__(self, seed: int, points: tuple[tuple[int, int], ...] = LADDER) -> None:
        rng = random.Random(seed)
        self.points = [(_labels("i", n, rng), _labels("a", m, rng)) for n, m in points]

    def build(self) -> list[tuple]:
        from bicolim import twocat, zoo

        out = []
        for index_names, fiber_names in self.points:
            n, m = len(index_names), len(fiber_names)
            index = twocat.locally_discrete(zoo.poset(f"I{n}", _chain(index_names)))
            fiber = zoo.poset(f"C{m}", _chain(fiber_names))
            pf = twocat.constant_pseudofunctor(index, fiber)
            top = index_names[-1]
            star = twocat.SigmaClass(index, frozenset(f"le_{i}_{top}" for i in index_names), "star")
            out.append((index_names, fiber_names, pf, star))
        return out

    def run_pass(self, inputs: list[tuple], index: int) -> Pass:
        from bicolim import colim

        result = Pass(0.0)
        for index_names, fiber_names, pf, star in inputs:
            n, m = len(index_names), len(fiber_names)
            rank = {a: k for k, a in enumerate(fiber_names)}
            for path in ("bifiltered", "sigma"):
                result.attempted += 1
                start = perf_counter()
                try:
                    if path == "bifiltered":
                        out = colim.bifiltered_bicolimit(pf)
                    else:
                        out = colim.sigma_bicolimit(pf, star)
                except Exception:
                    result.seconds += perf_counter() - start
                    result.failed += 1
                    _report_failure(f"{path} colimit at {n}x{m}")
                    continue
                result.seconds += perf_counter() - start
                bad = oracles.ladder_mismatches(
                    n, m, rank, out.obj_name, out.result.dom, out.result.cod
                )
                if bad:
                    print(f"{path} colimit at {n}x{m}: {'; '.join(bad)}", file=sys.stderr)
                    result.wrong += 1
                result.outputs.append(digest(out.result.describe()))
        return result


# ---------------------------------------------------------------------------

POSET_SIZE = 24
POSET_COUNT = 24
EDGE_DENSITY = 0.25
SIGMA_DENSITY = 0.3


@dataclass
class PosetSpec:
    elements: list[str]
    relation: list[tuple[str, str]]
    sigma: list[tuple[str, str]]
    bifiltered: bool  # known answers
    sigma_filtered: bool


def random_poset(rng: random.Random, size: int, top: bool, rich: bool) -> PosetSpec:
    """A random poset with one top, or with exactly two maximal elements.

    ``rich`` adds every arrow into a maximal element to the class, so that
    positive σ-verdicts occur too.
    """
    elements = _labels("p", size, rng)
    maxima = elements[: 1 if top else 2]
    base = elements[len(maxima):]
    pairs = [(x, y) for k, x in enumerate(base) for y in base[k + 1:]]
    relation = rng.sample(pairs, round(EDGE_DENSITY * len(pairs)))
    for x in base:
        above = maxima if top else [t for t in maxima if rng.random() < 0.5]
        relation += [(x, t) for t in above or [rng.choice(maxima)]]
    le = oracles.closure(elements, relation)
    sigma = [
        (x, y)
        for x, y in sorted(le)
        if x != y and (rng.random() < SIGMA_DENSITY or (rich and y in maxima))
    ]
    return PosetSpec(
        elements,
        relation,
        sigma,
        oracles.has_top(elements, le),
        oracles.every_pair_bounded(elements, oracles.closure(elements, sigma)),
    )


class PosetFiltered:
    """Filteredness checks on seeded random posets, seen as locally discrete
    2-categories: half have a top, half have two maximal elements."""

    name = "poset_filtered"

    def __init__(self, seed: int, size: int = POSET_SIZE, count: int = POSET_COUNT) -> None:
        rng = random.Random(seed)
        self.specs = [
            random_poset(rng, size, top=k % 2 == 0, rich=k % 4 < 2) for k in range(count)
        ]

    def build(self) -> list[tuple[PosetSpec, Any]]:
        from bicolim import zoo

        return [(spec, zoo.poset(f"P{k}", spec.relation)) for k, spec in enumerate(self.specs)]

    def run_pass(self, inputs: list[tuple[PosetSpec, Any]], index: int) -> Pass:
        from bicolim import filtered, twocat

        result = Pass(0.0)
        for spec, poset in inputs:
            result.attempted += 4
            members = frozenset(f"le_{x}_{y}" for x, y in spec.sigma)
            done = 0
            start = perf_counter()
            try:
                tc = twocat.locally_discrete(poset)
                done += 1
                sigma = twocat.SigmaClass(tc, members, "sigma")
                bif = filtered.check_bifiltered(tc)
                done += 1
                sig = filtered.check_sigma_filtered(tc, sigma)
                done += 1
                triv = filtered.trivialization_check(tc, sigma)
                done += 1
            except Exception:
                result.failed += 4 - done
                _report_failure(f"filteredness checks on {poset.name}")
                continue
            finally:
                result.seconds += perf_counter() - start
            verdicts = (bif.outcome, sig.outcome, triv.sigma_filtered.outcome, triv.agree)
            want = (spec.bifiltered, spec.sigma_filtered, spec.sigma_filtered, True)
            wrong = sum(got != exp for got, exp in zip(verdicts, want))
            if wrong:
                print(f"{poset.name}: verdicts {verdicts}, expected {want}", file=sys.stderr)
                result.wrong += wrong
            result.outputs.append(digest([bif.to_dict(), sig.to_dict(), triv.to_dict()]))
        return result


WORKLOADS = {w.name: w for w in (VerifyCorpus, ColimLadder, PosetFiltered)}
