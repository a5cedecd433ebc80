"""Acceptance gate: one test per criterion, each printing its own verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Every check here is exact (decision procedures over finite data);
there are no numeric tolerances to calibrate.
"""

from __future__ import annotations

import json

import pytest

from bicolim import zoo
from bicolim.bilim import (
    biequalizer,
    biproduct,
    commute_biequalizer,
    commute_biproduct,
    commute_cotensor,
    split_pseudoidempotent,
)
from bicolim.cli import default_corpus
from bicolim.colim import bifiltered_bicolimit, premorphism_equal, sigma_bicolimit
from bicolim.compact import check_bicompact_against
from bicolim.filtered import (
    check_bifiltered,
    check_sigma_cofinal,
    check_sigma_filtered,
    class_subcategory,
    revalidate_triangle,
    triangle_completion,
    trivialization_check,
)
from bicolim.fincat import (
    check_equivalence,
    compose_functors,
    identity_functor,
    nattrans_violations,
)
from bicolim.fixtures import (
    DiagramFixture,
    IdempotentFixture,
    MapFixture,
    ParallelFixture,
    ProbeFixture,
    TwoCatFixture,
    load_fixture,
)
from bicolim.flat import check_flat, decompose_flat
from bicolim.lexkit import verify_lex_bicolimit
from bicolim.twocat import (
    all_one_cells,
    precompose_pseudofunctor,
    restrict_pseudofunctor,
    sigma_closure,
)
from bicolim.verify import Suite

CORPUS = default_corpus()


@pytest.fixture(scope="module")
def corpus():
    cache: dict = {}
    fixtures = {}
    for path in sorted(CORPUS.glob("*.json")):
        fixtures[path.name] = load_fixture(path, cache)
    return fixtures


def by_type(fixtures, cls):
    return {n: f for n, f in sorted(fixtures.items()) if isinstance(f, cls)}


def sigma_pairs(fixtures):
    """Every (2-category, closed class) pair in the corpus, named."""
    out = []
    for name, fx in by_type(fixtures, TwoCatFixture).items():
        classes = {"all": all_one_cells(fx.twocat), **fx.sigma}
        for cname, sigma in sorted(classes.items()):
            out.append((f"{name}:{cname}", fx.twocat, sigma_closure(sigma)))
    return out


def announce(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {tag}{suffix}")
    assert ok, criterion


def test_criterion_01_checker_coherence(corpus):
    mismatches = []
    for name, fx in by_type(corpus, TwoCatFixture).items():
        lhs = check_bifiltered(fx.twocat).outcome
        rhs = check_sigma_filtered(fx.twocat, all_one_cells(fx.twocat)).outcome
        if lhs != rhs:
            mismatches.append(name)
    announce(
        "1 checker coherence",
        not mismatches,
        f"{len(by_type(corpus, TwoCatFixture))} fixtures, {len(mismatches)} mismatches",
    )


def test_criterion_02_trivialization(corpus):
    disagreements = []
    for name, tc, sigma in sigma_pairs(corpus):
        if not trivialization_check(tc, sigma).agree:
            disagreements.append(name)
    colimit_failures = []
    for name, fx in by_type(corpus, DiagramFixture).items():
        if not fx.sigma_name:
            continue
        sigma = sigma_closure(fx.index.sigma_named(fx.sigma_name))
        relative = sigma_bicolimit(fx.functor, sigma)
        sub = class_subcategory(fx.functor.source, sigma)
        restricted = bifiltered_bicolimit(
            restrict_pseudofunctor(fx.functor, sub), precheck=False
        )
        if not check_equivalence(relative.result, restricted.result):
            colimit_failures.append(name)
    announce(
        "2 trivialization",
        not disagreements and not colimit_failures,
        f"{len(sigma_pairs(corpus))} pairs agree; sigma-colimits match restrictions",
    )


def test_criterion_03_triangle(corpus):
    failures = []
    total = 0
    for name, tc, sigma in sigma_pairs(corpus):
        if not check_sigma_filtered(tc, sigma):
            continue
        for d in tc.one_cells:
            total += 1
            witness = triangle_completion(tc, sigma, d)
            if not revalidate_triangle(tc, sigma, witness):
                failures.append((name, d))
    announce("3 triangle completion", not failures, f"{total} arrows completed")


def _stage_equalizer_exists(colim, i, f, g):
    pf = colim.diagram
    for v in sorted(pf.source.one_cells):
        if pf.source.one_home[v][0] != i:
            continue
        if colim.sigma is not None and v not in colim.sigma.members:
            continue
        if pf.on1[v].mor_map[f] == pf.on1[v].mor_map[g]:
            return True
    return False


def test_criterion_04_coequification(corpus):
    failures = []
    pairs_checked = 0
    colimits = []
    for name, fx in by_type(corpus, DiagramFixture).items():
        if check_bifiltered(fx.index.twocat):
            colimits.append((name, bifiltered_bicolimit(fx.functor)))
        if fx.sigma_name:
            sigma = fx.index.sigma_named(fx.sigma_name)
            colimits.append((f"{name}:{fx.sigma_name}", sigma_bicolimit(fx.functor, sigma)))
    for name, colim in colimits:
        pf = colim.diagram
        for i in sorted(pf.source.cells0):
            fib = pf.on0[i]
            for f in fib.morphisms:
                for g in fib.morphisms:
                    if fib.dom[f] != fib.dom[g] or fib.cod[f] != fib.cod[g]:
                        continue
                    pairs_checked += 1
                    p = colim.fiber_premorphism(i, f)
                    q = colim.fiber_premorphism(i, g)
                    # two routes: union-find class lookup and transition pasting
                    quotient = colim.classes[p] == colim.classes[q]
                    pasted = premorphism_equal(colim, p, q)
                    oracle = _stage_equalizer_exists(colim, i, f, g)
                    if not (quotient == pasted == oracle):
                        failures.append((name, i, f, g))
    announce("4 coequification", not failures, f"{pairs_checked} fiber-parallel pairs")


def test_criterion_05_finite_categories_are_bicompact(corpus):
    failures = []
    checked = 0
    probes = {n: f.category for n, f in by_type(corpus, ProbeFixture).items()}
    diagrams = {
        n: f
        for n, f in by_type(corpus, DiagramFixture).items()
        if check_bifiltered(f.index.twocat).outcome
    }
    for pname, probe in sorted(probes.items()):
        for dname, fx in sorted(diagrams.items()):
            checked += 1
            if not check_bicompact_against(probe, bifiltered_bicolimit(fx.functor)):
                failures.append((pname, dname))
    # closure instances: a biproduct and a biequalizer of corpus categories
    prod_probe = biproduct(zoo.terminal(), zoo.walking_arrow()).category
    arrow = zoo.walking_arrow()
    eq_probe = biequalizer(identity_functor(arrow), identity_functor(arrow)).category
    for dname in ("two_cellular.diagram.json", "endo_proj.diagram.json"):
        for probe_name, probe in (("biproduct", prod_probe), ("biequalizer", eq_probe)):
            checked += 1
            if not check_bicompact_against(probe, bifiltered_bicolimit(diagrams[dname].functor)):
                failures.append((probe_name, dname))
    announce("5 finite categories bicompact", not failures, f"{checked} probe/diagram pairs")


def test_criterion_06_flatness_characterizations(corpus):
    failures = []
    representables = 0
    nonflat_rejected = 0
    for name, fx in by_type(corpus, DiagramFixture).items():
        verdict = check_flat(fx.functor)
        expected = fx.expect.get("flat")
        if expected is not None and verdict.outcome != expected:
            failures.append((name, "expectation"))
        if verdict.outcome:
            if not decompose_flat(fx.functor).ok:
                failures.append((name, "decomposition"))
        else:
            if verdict.counterexample is None:
                failures.append((name, "missing counterexample"))
            else:
                nonflat_rejected += 1
        if name.startswith("repr_"):
            representables += 1
            if not verdict.outcome:
                failures.append((name, "representable not flat"))
    announce(
        "6 flatness characterizations",
        not failures and representables >= 2 and nonflat_rejected >= 1,
        f"{representables} representables flat, {nonflat_rejected} non-flat rejected",
    )


def test_criterion_07_commutation(corpus):
    diagrams = by_type(corpus, DiagramFixture)
    names = ("const_arrow", "par_left", "par_right", "chain_incl", "two_cellular")
    colim = {n: bifiltered_bicolimit(diagrams[f"{n}.diagram.json"].functor) for n in names}
    checks = [
        commute_biproduct(colim["const_arrow"], colim["par_right"]).outcome,
        commute_biproduct(colim["par_left"], colim["par_right"]).outcome,
    ]
    for name in ("const_arrow", "chain_incl", "two_cellular"):
        checks.append(commute_cotensor(colim[name]).outcome)
    for name, fx in by_type(corpus, ParallelFixture).items():
        left, right = bifiltered_bicolimit(fx.left.functor), bifiltered_bicolimit(fx.right.functor)
        checks.append(commute_biequalizer(left, right, fx.u, fx.v).outcome)
    announce("7 commutation", all(checks), f"{len(checks)} limit/colimit interchanges")


def test_criterion_08_idempotent_splitting(corpus):
    failures = []
    for name, fx in by_type(corpus, IdempotentFixture).items():
        s = split_pseudoidempotent(fx.value)
        roundtrip = compose_functors(s.retraction, s.section)
        ok = (
            roundtrip.obj_map == fx.value.endo.obj_map
            and roundtrip.mor_map == fx.value.endo.mor_map
            and s.alpha.is_invertible()
            and not nattrans_violations(s.alpha)
            and s.beta.is_invertible()
            and not nattrans_violations(s.beta)
            and s.beta.target.key() == identity_functor(s.category).key()
        )
        if not ok:
            failures.append(name)
    announce(
        "8 idempotent splitting",
        not failures,
        f"{len(by_type(corpus, IdempotentFixture))} idempotents split",
    )


def test_criterion_09_lex_closure(corpus):
    failures = []
    decided = 0
    for name, fx in by_type(corpus, DiagramFixture).items():
        if not fx.expect.get("lex"):
            continue
        report = verify_lex_bicolimit(bifiltered_bicolimit(fx.functor))
        decided += report.sampled_diagrams
        if not report.ok:
            failures.append((name, report.to_dict()))
    announce("9 lex closure", not failures, f"{decided} object sets decided in colimits")


def test_criterion_10_cofinality_transfer(corpus):
    failures = []
    for name, fx in by_type(corpus, MapFixture).items():
        s_src = sigma_closure(fx.source.sigma_named(fx.sigma_source))
        s_tgt = sigma_closure(fx.target.sigma_named(fx.sigma_target))
        verdict = check_sigma_cofinal(fx.functor, s_src, s_tgt)
        if verdict.outcome != fx.expect_cofinal:
            failures.append((name, "cofinality expectation"))
            continue
        if not verdict.outcome:
            continue
        preserves = all(fx.functor.on1[f] in s_tgt.members for f in s_src.members)
        if check_sigma_filtered(fx.functor.source, s_src) and preserves:
            if not check_sigma_filtered(fx.functor.target, s_tgt):
                failures.append((name, "filteredness transfer"))
        if fx.diagram is not None:
            outer = sigma_bicolimit(fx.diagram.functor, s_tgt)
            inner = sigma_bicolimit(
                precompose_pseudofunctor(fx.diagram.functor, fx.functor), s_src
            )
            if not check_equivalence(outer.result, inner.result):
                failures.append((name, "colimit invariance"))
    announce(
        "10 cofinality transfer",
        not failures,
        f"{len(by_type(corpus, MapFixture))} recorded maps",
    )


def test_criterion_11_determinism():
    first = json.dumps(Suite(CORPUS).run(seed_order=0), sort_keys=True)
    second = json.dumps(Suite(CORPUS).run(seed_order=0), sort_keys=True)
    shuffled = json.dumps(Suite(CORPUS).run(seed_order=13), sort_keys=True)
    announce(
        "11 determinism",
        first == second == shuffled,
        "two runs and a permuted run are byte-identical",
    )
