"""Differential tests: values assembled directly, against the validating builders.

Every construction tested here starts from values that are already valid and
assembles its output without replaying the axioms: colimits and their
cocones, categories of elements, skeletons, functor categories, finite
bilimits in Cat, stagewise and constant diagrams, the restricted hom
diagrams of a flat diagram, and the functors they induce.  Validation runs
only at the trust boundary: fixture load, the public ``build_*`` functions,
``factor_cocone`` and the u, v of the biequalizer diagram.

Each oracle sends the direct output's own data through the validating
builder (``build_fincat``, ``build_functor``, ``build_nattrans``,
``build_twocat``, ``build_twofunctor``, ``build_pseudofunctor``).  The
builder must accept it and give back the same fields, laid out the same way.
For a colimit the oracle also runs ``validate_cocone`` on the cocone.  The
last test pins which checks a verify pass still runs once its fixtures are
loaded.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_associativity import posets, preorders, transformation_monoids
from test_indexes import COLIMIT_DIAGRAMS, constant_diagrams_over_posets_with_top

from bicolim import bilim, cli, colim, compact, fincat, flat, twocat, verify, zoo
from bicolim.colim import (
    ColimitCat,
    bifiltered_bicolimit,
    elements_category,
    factor_cocone,
    sigma_bicolimit,
    validate_cocone,
)
from bicolim.fincat import (
    FinCat,
    Functor,
    NatTrans,
    build_fincat,
    build_functor,
    build_nattrans,
    check_equivalence,
    functor_category,
    skeleton,
)
from bicolim.fixtures import (
    DiagramFixture,
    IdempotentFixture,
    InstanceFixture,
    ParallelFixture,
    ProbeFixture,
    TwoCatFixture,
    load_fixture,
)
from bicolim.filtered import check_bifiltered
from bicolim.twocat import (
    CatPseudoFunctor,
    SigmaClass,
    TwoCat,
    build_pseudofunctor,
    build_twocat,
    build_twofunctor,
    constant_pseudofunctor,
    locally_discrete,
)

BUNDLED = Path(cli.__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden" / "verify_machine.json"
LADDER = ((4, 4), (6, 6), (8, 6), (8, 8))  # the colim_ladder benchmark shapes


# ---------------------------------------------------------------------------
# Oracles: the validating builders on the direct output's data


def assert_same_fincat(cat: FinCat) -> None:
    rows = [(m, cat.dom[m], cat.cod[m]) for m in cat.dom]
    want = build_fincat(cat.name, cat.objects, rows, cat.identity, cat.table)
    assert (cat.name, cat.objects) == (want.name, want.objects)
    for field in ("dom", "cod", "identity", "table"):
        assert list(getattr(cat, field).items()) == list(getattr(want, field).items()), field


def assert_valid_functor(fun: Functor) -> None:
    want = build_functor(fun.name, fun.source, fun.target, fun.obj_map, fun.mor_map)
    assert want.key() == fun.key()


def assert_valid_nattrans(nt: NatTrans) -> None:
    want = build_nattrans(nt.name, nt.source, nt.target, nt.components)
    assert want.components == nt.components


def assert_same_twocat(tc: TwoCat) -> None:
    want = build_twocat(tc.name, tc.cells0, dict(tc.hom), tc.hcomp1, tc.hcomp2, tc.unit)
    assert tc.cells0 == want.cells0
    assert list(tc.hom) == list(want.hom)
    assert tc.one_home == want.one_home and tc.two_home == want.two_home
    for cat in tc.hom.values():
        assert_same_fincat(cat)


def assert_same_pseudofunctor(pf: CatPseudoFunctor) -> None:
    want = build_pseudofunctor(pf.name, pf.source, pf.on0, pf.on1, pf.on2, pf.comp, pf.unit_c)
    # nothing left for the builder to fill in
    assert list(want.comp) == list(pf.comp) and list(want.unit_c) == list(pf.unit_c)
    for fiber in pf.on0.values():
        assert_same_fincat(fiber)


def assert_valid_colimit(c: ColimitCat) -> None:
    assert_same_fincat(c.result)
    for leg in c.cocone.values():
        assert_valid_functor(leg)
    sigma = c.sigma.members if c.sigma is not None else None
    assert validate_cocone(c.index, c.diagram, c.cocone, c.transitions, sigma) == []


def assert_valid_skeleton(cat: FinCat) -> None:
    sk = skeleton(cat)
    assert_same_fincat(sk.category)
    assert_valid_functor(sk.inclusion)
    assert_valid_functor(sk.retraction)


def assert_valid_equivalence(c: FinCat, d: FinCat) -> bool:
    verdict = check_equivalence(c, d)
    for w in verdict.witnesses:
        assert_valid_functor(w["forward"])
        assert_valid_functor(w["backward"])
        assert_valid_nattrans(w["unit"])
        assert_valid_nattrans(w["counit"])
    return verdict.outcome


def assert_valid_bilimits(c: FinCat, d: FinCat) -> None:
    prod = bilim.biproduct(c, d)
    assert_same_fincat(prod.category)
    assert_valid_functor(prod.proj1)
    assert_valid_functor(prod.proj2)
    assert_valid_functor(prod.pairing(prod.proj1, prod.proj2))
    cot = bilim.arrow_cotensor(c)
    assert_same_fincat(cot.category)
    for fun in (cot.src, cot.tgt):
        assert_valid_functor(fun)
    assert_valid_nattrans(cot.cell)
    for f, g in ((prod.proj1, prod.proj1), (cot.src, cot.tgt)):
        eq = bilim.biequalizer(f, g)
        assert_same_fincat(eq.category)
        assert_valid_functor(eq.projection)
        assert_valid_nattrans(eq.iso)


def star(pf: CatPseudoFunctor) -> SigmaClass:
    """The arrows into the top of a poset index whose top sorts last."""
    top = pf.source.cells0[-1]
    members = frozenset(f for f, (_, j) in pf.source.one_home.items() if j == top)
    return SigmaClass(pf.source, members, "star")


def ladder(n: int, m: int) -> CatPseudoFunctor:
    return constant_pseudofunctor(locally_discrete(zoo.chain(n)), zoo.chain(m))


@functools.lru_cache(maxsize=None)
def corpus() -> dict[str, object]:
    cache: dict = {}
    return {path.name: load_fixture(path, cache) for path in sorted(BUNDLED.glob("*.json"))}


def of_kind(kind: type) -> dict[str, object]:
    return {name: fx for name, fx in corpus().items() if isinstance(fx, kind)}


def corpus_categories() -> list[FinCat]:
    cats = [fx.category for fx in of_kind(ProbeFixture).values()]
    for fx in of_kind(DiagramFixture).values():
        cats.extend(fx.functor.on0[i] for i in sorted(fx.functor.on0))
    return cats


# ---------------------------------------------------------------------------
# Colimits: the kernel oracles on every path


def colimits_of(fx: DiagramFixture) -> list[ColimitCat]:
    out = []
    if check_bifiltered(fx.index.twocat):
        out.append(bifiltered_bicolimit(fx.functor))
    if fx.sigma_name:
        out.append(sigma_bicolimit(fx.functor, fx.index.sigma_named(fx.sigma_name)))
    return out


@pytest.mark.parametrize("name", sorted(of_kind(DiagramFixture)))
def test_corpus_colimits_pass_the_kernel_oracles(name):
    for c in colimits_of(corpus()[name]):
        assert_valid_colimit(c)


@pytest.mark.parametrize("name", sorted(COLIMIT_DIAGRAMS))
def test_colimit_diagrams_pass_the_kernel_oracles(name):
    assert_valid_colimit(bifiltered_bicolimit(COLIMIT_DIAGRAMS[name]()))


@pytest.mark.parametrize("n,m", LADDER)
def test_ladder_colimits_pass_the_kernel_oracles(n, m):
    pf = ladder(n, m)
    assert_valid_colimit(bifiltered_bicolimit(pf))
    assert_valid_colimit(sigma_bicolimit(pf, star(pf)))


@settings(max_examples=8, deadline=None)
@given(constant_diagrams_over_posets_with_top())
def test_constant_colimits_pass_the_kernel_oracles(pf):
    assert_same_pseudofunctor(pf)
    assert_valid_colimit(bifiltered_bicolimit(pf))
    assert_valid_colimit(sigma_bicolimit(pf, star(pf)))


# ---------------------------------------------------------------------------
# Elements, flatness and bilimit instances


@pytest.mark.parametrize("name", sorted(of_kind(DiagramFixture)))
def test_corpus_elements_match_validated_builders(name):
    el = elements_category(corpus()[name].functor)
    assert_same_twocat(el.total)
    p = el.projection
    assert build_twofunctor(p.name, p.source, p.target, p.on0, p.on1, p.on2).on2 == p.on2


@settings(max_examples=6, deadline=None)
@given(constant_diagrams_over_posets_with_top())
def test_constant_elements_match_validated_builders(pf):
    assert_same_twocat(elements_category(pf).total)


def checked_mediating_functor(c, target, legs, cells):
    """``flat``'s unchecked factorization, run through ``factor_cocone``
    first: the cocone must be valid, and the factorization a functor."""
    checked = factor_cocone(c, target, legs, cells)
    assert_valid_functor(checked.functor)
    return colim._mediating_functor(c, target, legs, cells)


def checked_is_equivalence(fun: Functor):
    assert_valid_functor(fun)
    return fincat.functor_is_equivalence(fun)


def test_flat_constructions_match_validated_builders(monkeypatch):
    restricted: list[CatPseudoFunctor] = []
    assemble = flat._restriction_diagram

    def recording_restriction(*args):
        restricted.append(assemble(*args))
        assert_same_pseudofunctor(restricted[-1])
        return restricted[-1]

    monkeypatch.setattr(flat, "_restriction_diagram", recording_restriction)
    monkeypatch.setattr(flat, "_mediating_functor", checked_mediating_functor)
    monkeypatch.setattr(flat, "functor_is_equivalence", checked_is_equivalence)
    for fx in of_kind(DiagramFixture).values():
        if flat.check_flat(fx.functor):
            assert flat.decompose_flat(fx.functor).ok
    for fx in of_kind(InstanceFixture).values():
        for d in of_kind(DiagramFixture).values():
            if d.index is fx.base and flat.check_flat(d.functor):
                flat.check_flat_preserves_bilimits(d.functor, fx.instance)
    assert len(restricted) == 23
    for fx in of_kind(TwoCatFixture).values():
        for c in fx.twocat.cells0:
            assert_same_pseudofunctor(flat.representable_pseudofunctor(fx.twocat, c))


# ---------------------------------------------------------------------------
# Bilimits in Cat and the stagewise diagrams


def test_corpus_bilimits_match_validated_builders():
    cats = corpus_categories()
    for c in cats:
        assert_valid_bilimits(c, cats[0])
    for fx in of_kind(IdempotentFixture).values():
        s = bilim.split_pseudoidempotent(fx.value)
        assert_same_fincat(s.category)
        assert_valid_functor(s.section)
        assert_valid_functor(s.retraction)
        assert_valid_nattrans(s.alpha)
        assert_valid_nattrans(s.beta)
    for name in ("const_arrow.diagram.json", "par_right.diagram.json", "twisted_iso.diagram.json"):
        lim = bilim.pseudolimit_cocycle(corpus()[name].functor)
        assert_same_fincat(lim.category)
        for leg in lim.legs.values():
            assert_valid_functor(leg)


@settings(max_examples=10, deadline=None)
@given(st.one_of(posets(), preorders()), st.sampled_from(
    [zoo.walking_arrow(), zoo.walking_iso(), zoo.bz2()]
))
def test_bilimits_match_validated_builders(c, d):
    assert_valid_bilimits(c, d)
    assert_valid_bilimits(d, c)


def test_stagewise_diagrams_match_validated_builders():
    diagrams = {name: fx.functor for name, fx in of_kind(DiagramFixture).items()}
    # the verify instances, and a diagram whose comparison cells are not identities
    pairs = [*verify.NAMED_DIAGRAMS["commutation-biproduct"], ("twisted_iso.diagram.json",) * 2]
    for left, right in pairs:
        assert_same_pseudofunctor(bilim.biproduct_diagram(diagrams[left], diagrams[right]))
    for (name,) in [*verify.NAMED_DIAGRAMS["commutation-cotensor"], ("twisted_iso.diagram.json",)]:
        assert_same_pseudofunctor(bilim.cotensor_diagram(diagrams[name]))
    for fx in of_kind(ParallelFixture).values():
        pf = bilim.biequalizer_diagram(fx.left.functor, fx.right.functor, fx.u, fx.v)
        assert_same_pseudofunctor(pf)
    for probe in of_kind(ProbeFixture).values():
        for name in ("const_arrow.diagram.json", "two_cellular.diagram.json"):
            mapped, fcs = compact.mapped_diagram(probe.category, diagrams[name])
            assert_same_pseudofunctor(mapped)


def test_bicompact_comparisons_are_valid_functors(monkeypatch):
    monkeypatch.setattr(compact, "functor_is_equivalence", checked_is_equivalence)
    probes = [fx.category for fx in of_kind(ProbeFixture).values()]
    for name in ("const_arrow.diagram.json", "twisted_iso.diagram.json"):
        for probe in probes:
            assert compact.check_bicompact_against(probe, corpus()[name].functor)


# ---------------------------------------------------------------------------
# Skeletons, equivalences and functor categories


def test_corpus_skeletons_and_functor_categories_match_validated_builders():
    cats = corpus_categories()
    for cat in cats:
        assert_valid_skeleton(cat)
        assert assert_valid_equivalence(cat, skeleton(cat).category)
    for probe in of_kind(ProbeFixture).values():
        for cat in cats[:6]:
            assert_same_fincat(functor_category(probe.category, cat).category)


def late_composite(name: str, gf: str) -> FinCat:
    """f = a : x -> y, g = b : y -> z and two arrows c, d : x -> z, with
    g∘f = ``gf``.  The composite's name sorts after both factors, so when
    the isomorphism search assigns it, no incremental check compares it."""
    mors = [("a", "x", "y"), ("b", "y", "z"), ("c", "x", "z"), ("d", "x", "z")]
    mors += [(f"id_{o}", o, o) for o in "xyz"]
    ids = {o: f"id_{o}" for o in "xyz"}
    table = {(ids[cod], m): m for m, _, cod in mors} | {(m, ids[dom]): m for m, dom, _ in mors}
    table[("b", "a")] = gf
    return build_fincat(name, "xyz", mors, ids, table)


def test_equivalence_search_checks_every_composite():
    # the first assignment found, c to c, is no functor; the search must
    # move on to c to d rather than hand the bijection on
    assert assert_valid_equivalence(late_composite("A", "c"), late_composite("B", "d"))


@settings(max_examples=20, deadline=None)
@given(st.one_of(posets(), preorders(), transformation_monoids()),
       st.one_of(posets(), preorders()))
def test_skeletons_and_equivalences_match_validated_builders(c, d):
    assert_valid_skeleton(c)
    assert assert_valid_equivalence(c, c)
    assert_valid_skeleton(d)
    assert_valid_equivalence(d, c)
    assert_same_fincat(functor_category(zoo.walking_arrow(), d).category)


# ---------------------------------------------------------------------------
# Guard: once the fixtures are loaded, only these checks run in a verify pass

CHECKS = {
    fincat: ("fincat_violations", "functor_violations"),
    twocat: ("twocat_violations", "pseudofunctor_violations"),
    colim: ("validate_cocone",),
}
# a call is charged to its nearest caller outside the validating machinery
MACHINERY = {name for names in CHECKS.values() for name in names} | {
    "build_fincat",
    "build_functor",
    "build_twocat",
    "build_pseudofunctor",
    "recorded",
}
REMAINING = Counter(
    {
        # the literal categories of the zoo
        ("fincat_violations", "terminal"): 5,
        ("fincat_violations", "walking_arrow"): 2,
        # the cocones that commute_biequalizer hands to factor_cocone
        ("validate_cocone", "factor_cocone"): 2,
        # the biequalizer diagram, whose 1-cells depend on the caller's u and v
        ("pseudofunctor_violations", "biequalizer_diagram"): 1,
        ("functor_violations", "biequalizer_diagram"): 5,
    }
)


def caller_outside_machinery() -> str:
    frame = sys._getframe(2)
    while frame.f_code.co_name in MACHINERY:
        frame = frame.f_back
    return frame.f_code.co_name


def test_verify_runs_only_trust_boundary_checks(monkeypatch):
    suite = verify.Suite(BUNDLED)
    suite.load_all()
    calls: Counter = Counter()
    for module, names in CHECKS.items():
        for name in names:
            original = getattr(module, name)

            def recorded(*args, _name=name, _original=original):
                calls[(_name, caller_outside_machinery())] += 1
                return _original(*args)

            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name == "bicolim" or mod_name.startswith("bicolim."):
                    if getattr(mod, name, None) is original:
                        monkeypatch.setattr(mod, name, recorded)
    report = suite.run()
    assert calls == REMAINING
    assert json.dumps(report, sort_keys=True) + "\n" == GOLDEN.read_text()
