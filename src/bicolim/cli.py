"""Command-line interface and the corpus verify suite.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict or
a failed assertion, 2 for input and validation errors.  ``--format machine``
prints one JSON document; machine reports for ``verify`` embed the content
hash of every fixture and contain nothing run-dependent, so two runs over the
same corpus are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import Any, Callable

from .bilim import (
    arrow_cotensor,
    biequalizer,
    biproduct,
    commute_biequalizer,
    commute_biproduct,
    commute_cotensor,
    pseudolimit_cocycle,
    split_pseudoidempotent,
)
from .colim import bifiltered_bicolimit, premorphism_equal, sigma_bicolimit
from .compact import check_bicompact_against
from .filtered import (
    check_bifiltered,
    check_sigma_cofinal,
    check_sigma_filtered,
    revalidate_triangle,
    triangle_completion,
    trivialization_check,
)
from .fincat import (
    SizeGuardError,
    ValidationError,
    check_equivalence,
    compose_functors,
    identity_functor,
    nattrans_violations,
)
from .fixtures import (
    DiagramFixture,
    FixtureError,
    FunctorPairFixture,
    IdempotentFixture,
    InstanceFixture,
    MapFixture,
    ParallelFixture,
    ProbeFixture,
    TwoCatFixture,
    content_hash,
    dump,
    fincat_doc,
    functor_body,
    load_fixture,
    nattrans_body,
)
from .flat import check_flat, check_flat_preserves_bilimits, decompose_flat
from .lexkit import finite_limit_witnesses, verify_lex_bicolimit
from .twocat import all_one_cells, precompose_pseudofunctor, restrict_pseudofunctor, sigma_closure
from .verdict import Verdict

CORPUS_ENV = "BICOLIM_CORPUS"


def default_corpus() -> Path:
    env = os.environ.get(CORPUS_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "corpus"


def _emit(payload: dict[str, Any], fmt: str, human: Callable[[], str]) -> None:
    if fmt == "machine":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human())


def _verdict_exit(verdict: Verdict, fmt: str) -> int:
    def human() -> str:
        if verdict.outcome:
            return f"{verdict.check}: positive ({len(verdict.witnesses)} witnesses)"
        return f"{verdict.check}: negative\n  counterexample: {verdict.counterexample}"

    _emit(verdict.to_dict(), fmt, human)
    return 0 if verdict.outcome else 1


def _need(fixture, cls, what: str):
    if not isinstance(fixture, cls):
        raise FixtureError(fixture.path, f"expected a {what} fixture")
    return fixture


# ---------------------------------------------------------------------------
# Individual commands


def cmd_check(args) -> int:
    fixture = load_fixture(args.fixture)
    if args.what == "bifiltered":
        tc = _need(fixture, TwoCatFixture, "2-category").twocat
        return _verdict_exit(check_bifiltered(tc), args.format)
    if args.what == "sigma-filtered":
        fx = _need(fixture, TwoCatFixture, "2-category")
        sigma = fx.sigma_named(args.sigma)
        return _verdict_exit(check_sigma_filtered(fx.twocat, sigma), args.format)
    if args.what == "cofinal":
        fx = _need(fixture, MapFixture, "map")
        verdict = check_sigma_cofinal(
            fx.functor,
            fx.source.sigma_named(fx.sigma_source),
            fx.target.sigma_named(fx.sigma_target),
        )
        return _verdict_exit(verdict, args.format)
    raise FixtureError(args.fixture, f"unknown check {args.what!r}")


def cmd_colimit(args) -> int:
    fx = _need(load_fixture(args.fixture), DiagramFixture, "diagram")
    if args.sigma:
        sigma = fx.index.sigma_named(args.sigma)
        colim = sigma_bicolimit(fx.functor, sigma)
    else:
        colim = bifiltered_bicolimit(fx.functor)
    payload = {
        "objects": len(colim.result.objects),
        "morphisms": len(colim.result.morphisms),
        "result": colim.result.describe(),
    }
    if args.emit:
        # the document is a loadable category fixture; the cocone rides along
        doc = fincat_doc(colim.result, name=f"colim({fx.functor.name})")
        doc["cocone"] = {i: functor_body(f) for i, f in sorted(colim.cocone.items())}
        doc["transitions"] = {
            d: nattrans_body(t) for d, t in sorted(colim.transitions.items())
        }
        dump(doc, Path(args.emit))
    _emit(
        payload,
        args.format,
        lambda: f"colimit of {fx.functor.name}: {payload['objects']} objects, {payload['morphisms']} morphisms",
    )
    return 0


def cmd_bilim(args) -> int:
    if args.op == "product":
        a = _need(load_fixture(args.fixtures[0]), ProbeFixture, "category").category
        b = _need(load_fixture(args.fixtures[1]), ProbeFixture, "category").category
        out = biproduct(a, b).category
    elif args.op == "equalizer":
        fx = _need(load_fixture(args.fixtures[0]), FunctorPairFixture, "functor pair")
        out = biequalizer(fx.left, fx.right).category
    elif args.op == "cotensor":
        a = _need(load_fixture(args.fixtures[0]), ProbeFixture, "category").category
        out = arrow_cotensor(a).category
    elif args.op == "pseudolimit":
        fx = _need(load_fixture(args.fixtures[0]), DiagramFixture, "diagram")
        out = pseudolimit_cocycle(fx.functor).category
    elif args.op == "split":
        fx = _need(load_fixture(args.fixtures[0]), IdempotentFixture, "idempotent")
        out = split_pseudoidempotent(fx.value).category
    else:
        raise FixtureError(args.fixtures[0], f"unknown operation {args.op!r}")
    if args.emit:
        dump(fincat_doc(out), Path(args.emit))
    _emit(
        {"objects": len(out.objects), "morphisms": len(out.morphisms)},
        args.format,
        lambda: f"{args.op}: {len(out.objects)} objects, {len(out.morphisms)} morphisms",
    )
    return 0


def cmd_flat(args) -> int:
    fx = _need(load_fixture(args.fixture), DiagramFixture, "diagram")
    if args.what == "check":
        return _verdict_exit(check_flat(fx.functor), args.format)
    report = decompose_flat(fx.functor)
    payload = report.to_dict()
    if args.report:
        Path(args.report).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    _emit(
        payload,
        args.format,
        lambda: "decomposition "
        + ("reconstructs every stage" if report.ok else f"FAILED: {payload}"),
    )
    return 0 if report.ok else 1


def cmd_compact(args) -> int:
    probe = _need(load_fixture(args.probe), ProbeFixture, "category").category
    fx = _need(load_fixture(args.diagram), DiagramFixture, "diagram")
    verdict = check_bicompact_against(probe, fx.functor)
    return _verdict_exit(verdict, args.format)


def cmd_lex(args) -> int:
    if args.what == "check":
        fx = load_fixture(args.fixture)
        if isinstance(fx, ProbeFixture):
            report = finite_limit_witnesses(fx.category)
            _emit(
                report.to_dict(),
                args.format,
                lambda: "all finite limits present" if report.ok else f"missing: {report.failure}",
            )
            return 0 if report.ok else 1
        raise FixtureError(args.fixture, "expected a category fixture")
    fx = _need(load_fixture(args.fixture), DiagramFixture, "diagram")
    report = verify_lex_bicolimit(fx.functor)
    _emit(
        report.to_dict(),
        args.format,
        lambda: f"lex colimit verification {'passed' if report.ok else 'FAILED'} "
        f"({report.sampled_diagrams} diagrams sampled)",
    )
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# The verify suite


def _bicompact_outcome(probes: list, pf, replay: str) -> tuple[bool, str]:
    """Whether ``pf`` is bicompact against every probe, with its replay line.

    An instance the size guard stopped went unchecked, so it is a failure
    whose replay line carries the guard's message.
    """
    try:
        return all(check_bicompact_against(p, pf).outcome for p in probes), replay
    except SizeGuardError as exc:
        return False, f"{replay}  # size guard: {exc}"


class Suite:
    def __init__(self, corpus: Path):
        self.corpus = corpus
        self.cache: dict = {}
        self.lemmas: dict[str, dict[str, Any]] = {}
        self.fixtures: dict[str, Any] = {}

    def load_all(self) -> None:
        for path in sorted(self.corpus.glob("*.json")):
            self.fixtures[path.name] = load_fixture(path, self.cache)

    def record(self, lemma: str, instance: str, ok: bool, replay: str) -> None:
        slot = self.lemmas.setdefault(lemma, {"pass": 0, "fail": 0, "failures": []})
        if ok:
            slot["pass"] += 1
        else:
            slot["fail"] += 1
            slot["failures"].append({"instance": instance, "replay": replay})

    # -- per-lemma runners -------------------------------------------------

    def tasks(self) -> list[tuple[str, Callable[[], None]]]:
        twocats = {
            n: f for n, f in self.fixtures.items() if isinstance(f, TwoCatFixture)
        }
        diagrams = {
            n: f for n, f in self.fixtures.items() if isinstance(f, DiagramFixture)
        }
        probes = {n: f for n, f in self.fixtures.items() if isinstance(f, ProbeFixture)}
        maps = {n: f for n, f in self.fixtures.items() if isinstance(f, MapFixture)}
        idems = {n: f for n, f in self.fixtures.items() if isinstance(f, IdempotentFixture)}
        parallels = {n: f for n, f in self.fixtures.items() if isinstance(f, ParallelFixture)}
        instances = {n: f for n, f in self.fixtures.items() if isinstance(f, InstanceFixture)}

        out: list[tuple[str, Callable[[], None]]] = []

        def classes_of(fx: TwoCatFixture):
            yield "all", all_one_cells(fx.twocat)
            for name, sigma in sorted(fx.sigma.items()):
                yield name, sigma

        for name, fx in sorted(twocats.items()):
            out.append((f"coherence:{name}", self._task_coherence(name, fx)))
            for cname, sigma in classes_of(fx):
                out.append(
                    (f"trivialization:{name}:{cname}", self._task_trivialization(name, fx, cname, sigma))
                )
                out.append(
                    (f"triangle:{name}:{cname}", self._task_triangle(name, fx, cname, sigma))
                )

        bifiltered_diagrams = {}
        for name, fx in sorted(diagrams.items()):
            if check_bifiltered(fx.index.twocat):
                bifiltered_diagrams[name] = fx

        for name, fx in sorted(diagrams.items()):
            if fx.sigma_name:
                out.append((f"sigma-colimit:{name}", self._task_sigma_colimit(name, fx)))
        for name, fx in sorted(bifiltered_diagrams.items()):
            out.append((f"coequification:{name}", self._task_coequification(name, fx, None)))
        for name, fx in sorted(diagrams.items()):
            if fx.sigma_name:
                out.append(
                    (f"coequification-sigma:{name}", self._task_coequification(name, fx, fx.sigma_name))
                )

        for pname, probe in sorted(probes.items()):
            for dname, fx in sorted(bifiltered_diagrams.items()):
                out.append(
                    (f"bicompact:{pname}:{dname}", self._task_bicompact(pname, probe.category, dname, fx))
                )
        out.append(("bicompact-closure:derived", self._task_bicompact_closure(bifiltered_diagrams)))

        for name, fx in sorted(diagrams.items()):
            out.append((f"flat:{name}", self._task_flat(name, fx)))

        out.append(("commutation:biproduct", self._task_commute_biproduct(diagrams)))
        out.append(("commutation:cotensor", self._task_commute_cotensor(bifiltered_diagrams)))
        for name, fx in sorted(parallels.items()):
            out.append((f"commutation:biequalizer:{name}", self._task_commute_biequalizer(name, fx)))

        for name, fx in sorted(idems.items()):
            out.append((f"splitting:{name}", self._task_splitting(name, fx)))

        for name, fx in sorted(diagrams.items()):
            if fx.expect.get("lex"):
                out.append((f"lex-closure:{name}", self._task_lex(name, fx)))

        for name, fx in sorted(maps.items()):
            out.append((f"cofinality:{name}", self._task_cofinality(name, fx)))

        for name, fx in sorted(instances.items()):
            out.append((f"preservation:{name}", self._task_preservation(name, fx, diagrams)))
        return out

    def _task_coherence(self, name: str, fx: TwoCatFixture):
        def run() -> None:
            lhs = check_bifiltered(fx.twocat).outcome
            rhs = check_sigma_filtered(fx.twocat, all_one_cells(fx.twocat)).outcome
            self.record(
                "checker-coherence",
                name,
                lhs == rhs,
                f"bicolim check bifiltered {name}",
            )

        return run

    def _task_trivialization(self, name: str, fx: TwoCatFixture, cname: str, sigma):
        def run() -> None:
            report = trivialization_check(fx.twocat, sigma)
            self.record(
                "trivialization",
                f"{name}:{cname}",
                report.agree,
                f"bicolim check sigma-filtered {name} --sigma {cname}",
            )

        return run

    def _task_triangle(self, name: str, fx: TwoCatFixture, cname: str, sigma):
        def run() -> None:
            closed = sigma_closure(sigma)
            if not check_sigma_filtered(fx.twocat, closed, assume_closed=True):
                return
            ok = True
            for d in fx.twocat.one_cells:
                w = triangle_completion(fx.twocat, closed, d)
                if not revalidate_triangle(fx.twocat, closed, w):
                    ok = False
            self.record(
                "triangle",
                f"{name}:{cname}",
                ok,
                f"bicolim check sigma-filtered {name} --sigma {cname}",
            )

        return run

    def _task_sigma_colimit(self, name: str, fx: DiagramFixture):
        def run() -> None:
            from .filtered import class_subcategory

            sigma = fx.index.sigma_named(fx.sigma_name)
            closed = sigma_closure(sigma)
            if not check_sigma_filtered(fx.functor.source, closed, assume_closed=True):
                self.record("trivialization-colimit", name, False, f"bicolim colimit {name} --sigma {fx.sigma_name}")
                return
            relative = sigma_bicolimit(fx.functor, closed)
            sub = class_subcategory(fx.functor.source, closed)
            restricted = bifiltered_bicolimit(
                restrict_pseudofunctor(fx.functor, sub), precheck=False
            )
            ok = bool(check_equivalence(relative.result, restricted.result))
            self.record(
                "trivialization-colimit",
                name,
                ok,
                f"bicolim colimit {name} --sigma {fx.sigma_name}",
            )

        return run

    def _task_coequification(self, name: str, fx: DiagramFixture, sigma_name: str | None):
        def run() -> None:
            pf = fx.functor
            if sigma_name is None:
                colim = bifiltered_bicolimit(pf)
            else:
                colim = sigma_bicolimit(pf, fx.index.sigma_named(sigma_name))
            ok = True
            for i in sorted(pf.source.cells0):
                fib = pf.on0[i]
                for f in fib.morphisms:
                    for g in fib.morphisms:
                        if fib.dom[f] != fib.dom[g] or fib.cod[f] != fib.cod[g]:
                            continue
                        p = colim.fiber_premorphism(i, f)
                        q = colim.fiber_premorphism(i, g)
                        identified = premorphism_equal(colim, p, q)
                        oracle = False
                        for v in sorted(pf.source.one_cells):
                            if pf.source.one_home[v][0] != i:
                                continue
                            if colim.sigma is not None and v not in colim.sigma.members:
                                continue
                            if pf.on1[v].mor_map[f] == pf.on1[v].mor_map[g]:
                                oracle = True
                                break
                        if identified != oracle:
                            ok = False
            self.record(
                "coequification",
                f"{name}:{sigma_name or 'bifiltered'}",
                ok,
                f"bicolim colimit {name}" + (f" --sigma {sigma_name}" if sigma_name else ""),
            )

        return run

    def _task_bicompact(self, pname: str, probe, dname: str, fx: DiagramFixture):
        def run() -> None:
            ok, replay = _bicompact_outcome(
                [probe], fx.functor, f"bicolim compact check {pname} {dname}"
            )
            self.record("bicompact", f"{pname}:{dname}", ok, replay)

        return run

    def _task_bicompact_closure(self, diagrams: dict[str, DiagramFixture]):
        def run() -> None:
            from . import zoo

            prod_probe = biproduct(zoo.terminal(), zoo.walking_arrow()).category
            arrow = zoo.walking_arrow()
            eq_probe = biequalizer(identity_functor(arrow), identity_functor(arrow)).category
            for dname in ("two_cellular.diagram.json", "endo_proj.diagram.json"):
                if dname not in diagrams:
                    continue
                ok, replay = _bicompact_outcome(
                    [prod_probe, eq_probe],
                    diagrams[dname].functor,
                    f"bicolim compact check <derived> {dname}",
                )
                self.record("bicompact-closure", dname, ok, replay)

        return run

    def _task_flat(self, name: str, fx: DiagramFixture):
        def run() -> None:
            verdict = check_flat(fx.functor)
            ok = True
            if "flat" in fx.expect and verdict.outcome != fx.expect["flat"]:
                ok = False
            if verdict.outcome:
                report = decompose_flat(fx.functor)
                if not report.ok:
                    ok = False
            self.record("flatness", name, ok, f"bicolim flat check {name}")

        return run

    def _task_commute_biproduct(self, diagrams: dict[str, DiagramFixture]):
        def run() -> None:
            pairs = [
                ("const_arrow.diagram.json", "par_right.diagram.json"),
                ("par_left.diagram.json", "par_right.diagram.json"),
            ]
            for a, b in pairs:
                if a not in diagrams or b not in diagrams:
                    continue
                verdict = commute_biproduct(diagrams[a].functor, diagrams[b].functor)
                self.record(
                    "commutation-biproduct",
                    f"{a}x{b}",
                    verdict.outcome,
                    f"bicolim colimit {a}",
                )

        return run

    def _task_commute_cotensor(self, diagrams: dict[str, DiagramFixture]):
        def run() -> None:
            for name in ("const_arrow.diagram.json", "chain_incl.diagram.json", "two_cellular.diagram.json"):
                if name not in diagrams:
                    continue
                verdict = commute_cotensor(diagrams[name].functor)
                self.record(
                    "commutation-cotensor", name, verdict.outcome, f"bicolim colimit {name}"
                )

        return run

    def _task_commute_biequalizer(self, name: str, fx: ParallelFixture):
        def run() -> None:
            verdict = commute_biequalizer(fx.left.functor, fx.right.functor, fx.u, fx.v)
            self.record(
                "commutation-biequalizer", name, verdict.outcome, f"bicolim colimit {name}"
            )

        return run

    def _task_splitting(self, name: str, fx: IdempotentFixture):
        def run() -> None:
            s = split_pseudoidempotent(fx.value)
            roundtrip = compose_functors(s.retraction, s.section)
            ok = (
                roundtrip.obj_map == fx.value.endo.obj_map
                and roundtrip.mor_map == fx.value.endo.mor_map
                and s.alpha.is_invertible()
                and s.beta.is_invertible()
                and not nattrans_violations(s.alpha)
                and not nattrans_violations(s.beta)
            )
            self.record("splitting", name, ok, f"bicolim bilim split {name}")

        return run

    def _task_lex(self, name: str, fx: DiagramFixture):
        def run() -> None:
            report = verify_lex_bicolimit(fx.functor)
            self.record("lex-closure", name, report.ok, f"bicolim lex verify-colimit {name}")

        return run

    def _task_cofinality(self, name: str, fx: MapFixture):
        def run() -> None:
            s_src = fx.source.sigma_named(fx.sigma_source)
            s_tgt = fx.target.sigma_named(fx.sigma_target)
            verdict = check_sigma_cofinal(fx.functor, s_src, s_tgt)
            ok = verdict.outcome == fx.expect_cofinal
            if verdict.outcome:
                src_filtered = check_sigma_filtered(fx.functor.source, s_src)
                preserves = all(
                    fx.functor.on1[f] in sigma_closure(s_tgt).members
                    for f in sigma_closure(s_src).members
                )
                if src_filtered and preserves:
                    if not check_sigma_filtered(fx.functor.target, s_tgt):
                        ok = False
                if fx.diagram is not None and src_filtered and preserves:
                    # compare the class-relative colimits on both sides
                    outer = sigma_bicolimit(fx.diagram.functor, sigma_closure(s_tgt))
                    inner = sigma_bicolimit(
                        precompose_pseudofunctor(fx.diagram.functor, fx.functor),
                        sigma_closure(s_src),
                    )
                    if not check_equivalence(outer.result, inner.result):
                        ok = False
            self.record("cofinality", name, ok, f"bicolim check cofinal {name}")

        return run

    def _task_preservation(self, name: str, fx: InstanceFixture, diagrams):
        def run() -> None:
            from .corpus import FLAT_OVER_BASE

            base_name = fx.base.path.name.replace(".twocat.json", "")
            ok = True
            checked = 0
            for dname in FLAT_OVER_BASE.get(base_name, []):
                key = f"{dname}.diagram.json"
                if key not in diagrams:
                    continue
                pf = diagrams[key].functor
                if not check_flat(pf):
                    ok = False
                    continue
                checked += 1
                if not check_flat_preserves_bilimits(pf, fx.instance):
                    ok = False
            # a paired diagram that is not flat fails the instance even when
            # none was left to check
            if checked or not ok:
                self.record("flat-preserves-bilimits", name, ok, f"bicolim flat check {name}")

        return run

    # -- driving -------------------------------------------------------------

    def run(self, seed_order: int = 0) -> dict[str, Any]:
        self.load_all()
        tasks = self.tasks()
        if seed_order:
            rng = random.Random(seed_order)
            rng.shuffle(tasks)
        for _, task in tasks:
            task()
        report = {
            "corpus": {
                name: content_hash(self.corpus / name) for name in sorted(self.fixtures)
            },
            "lemmas": {
                name: {
                    "pass": slot["pass"],
                    "fail": slot["fail"],
                    "failures": sorted(slot["failures"], key=lambda r: r["instance"]),
                }
                for name, slot in sorted(self.lemmas.items())
            },
        }
        report["ok"] = all(slot["fail"] == 0 for slot in self.lemmas.values())
        report["fixture_count"] = len(self.fixtures)
        return report


def verify_suite(corpus_dir: Path, seed_order: int = 0) -> dict[str, Any]:
    return Suite(corpus_dir).run(seed_order)


def cmd_verify(args) -> int:
    corpus = Path(args.corpus) if args.corpus else default_corpus()
    if not corpus.is_dir():
        print(f"corpus directory not found: {corpus}", file=sys.stderr)
        return 2
    if not any(corpus.glob("*.json")):
        print(f"warning: corpus at {corpus} is empty", file=sys.stderr)
        _emit({"corpus": {}, "lemmas": {}, "ok": True, "fixture_count": 0},
              args.format, lambda: "empty corpus: nothing to verify")
        return 0
    report = verify_suite(corpus, args.seed_order)
    if args.out:
        Path(args.out).write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")

    def human() -> str:
        lines = [f"verified {report['fixture_count']} fixtures"]
        for name, slot in sorted(report["lemmas"].items()):
            status = "ok" if slot["fail"] == 0 else "FAIL"
            lines.append(f"  {name:28s} pass={slot['pass']:<3d} fail={slot['fail']:<3d} {status}")
            for failure in slot["failures"]:
                lines.append(f"    failing instance: {failure['instance']}")
                lines.append(f"    replay: {failure['replay']}")
        lines.append("all lemmas hold" if report["ok"] else "FAILURES PRESENT")
        return "\n".join(lines)

    _emit(report, args.format, human)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicolim",
        description="decision procedures and colimit computation for finite 2-categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["human", "machine"], default="human")

    p = sub.add_parser("check", help="filteredness and cofinality checkers")
    p.add_argument("what", choices=["bifiltered", "sigma-filtered", "cofinal"])
    p.add_argument("fixture")
    p.add_argument("--sigma", default="all", help="class name for sigma-filtered checks")
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("colimit", help="compute a filtered colimit of categories")
    p.add_argument("fixture")
    p.add_argument("--sigma", help="compute relative to this named class")
    p.add_argument("--emit", help="write the resulting category and cocone here")
    add_format(p)
    p.set_defaults(func=cmd_colimit)

    p = sub.add_parser("bilim", help="finite limit primitives")
    p.add_argument("op", choices=["product", "equalizer", "cotensor", "pseudolimit", "split"])
    p.add_argument("fixtures", nargs="+")
    p.add_argument("--emit")
    add_format(p)
    p.set_defaults(func=cmd_bilim)

    p = sub.add_parser("flat", help="flatness checking and decomposition")
    p.add_argument("what", choices=["check", "decompose"])
    p.add_argument("fixture")
    p.add_argument("--report", help="write the decomposition report here")
    add_format(p)
    p.set_defaults(func=cmd_flat)

    p = sub.add_parser(
        "compact",
        help="probe a finite category against a diagram",
        description=(
            "Positive verdicts are evidence for the supplied diagram only; "
            "the defining property quantifies over all small filtered "
            "diagrams, which is beyond per-fixture checking."
        ),
    )
    p.add_argument("what", choices=["check"])
    p.add_argument("probe")
    p.add_argument("diagram")
    add_format(p)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("lex", help="finite-limit structure detection")
    p.add_argument("what", choices=["check", "verify-colimit"])
    p.add_argument("fixture")
    add_format(p)
    p.set_defaults(func=cmd_lex)

    p = sub.add_parser("verify", help="replay every invariant over the corpus")
    p.add_argument("corpus", nargs="?", help=f"corpus directory (default ${CORPUS_ENV} or bundled)")
    p.add_argument("--seed-order", type=int, default=0, help="permute task scheduling only")
    p.add_argument("--out", help="write the machine report here")
    add_format(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FixtureError, ValidationError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
