"""Command-line interface: parse arguments, call the library, print results.

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
import sys
from pathlib import Path
from typing import Any, Callable

from .bilim import (
    arrow_cotensor,
    biequalizer,
    biproduct,
    pseudolimit_cocycle,
    split_pseudoidempotent,
)
from .colim import bifiltered_bicolimit, sigma_bicolimit
from .compact import check_bicompact_against
from .filtered import check_bifiltered, check_sigma_cofinal, check_sigma_filtered
from .fincat import SizeGuardError, ValidationError
from .fixtures import (
    DiagramFixture,
    FixtureError,
    FunctorPairFixture,
    IdempotentFixture,
    MapFixture,
    ProbeFixture,
    TwoCatFixture,
    dump,
    fincat_doc,
    functor_body,
    load_fixture,
    nattrans_body,
)
from .flat import check_flat, decompose_flat
from .lexkit import NotLexError, finite_limit_witnesses, verify_lex_bicolimit
from .verdict import Verdict
from .verify import Suite

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
    verdict = check_bicompact_against(probe, bifiltered_bicolimit(fx.functor))
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
    report = verify_lex_bicolimit(bifiltered_bicolimit(fx.functor))
    _emit(
        report.to_dict(),
        args.format,
        lambda: f"lex colimit verification {'passed' if report.ok else 'FAILED'} "
        f"({report.sampled_diagrams} object sets decided)",
    )
    return 0 if report.ok else 1


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
    report = Suite(corpus).run(args.seed_order, args.only)
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
    p.add_argument("--only", metavar="TASK", help="run one task, as a failure's replay line does")
    p.add_argument("--out", help="write the machine report here")
    add_format(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FixtureError, ValidationError, SizeGuardError, NotLexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
