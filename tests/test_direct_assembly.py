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
import itertools
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
    ValidationError,
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
            colimit = bifiltered_bicolimit(corpus()[name].functor)
            assert compact.check_bicompact_against(probe, colimit)


# ---------------------------------------------------------------------------
# Names spelled with the characters that derived names are built from

RESERVED = ".,:|()[]<>"


def built_or_refused(build, *args):
    """The builder's output, or None when it refuses a repeated name."""
    try:
        return build(*args)
    except ValidationError as err:
        assert err.violations[0].startswith("repeated "), err
        return None


def relabel(cat: FinCat, objs: list[str], mors: list[str]) -> FinCat:
    obj, mor = dict(zip(cat.objects, objs)), dict(zip(cat.morphisms, mors))
    return build_fincat(
        cat.name,
        objs,
        [(mor[m], obj[cat.dom[m]], obj[cat.cod[m]]) for m in cat.morphisms],
        {obj[x]: mor[m] for x, m in cat.identity.items()},
        {(mor[g], mor[f]): mor[gf] for (g, f), gf in cat.table.items()},
    )


SMALL = st.sampled_from(
    [zoo.walking_arrow(), zoo.walking_iso(), zoo.parallel_pair(), zoo.bz2(), zoo.discrete(["x", "y"])]
)


@st.composite
def posets_with_top(draw) -> FinCat:
    names = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    relation = [pair for pair in itertools.combinations(names, 2) if draw(st.booleans())]
    return zoo.poset("P", relation + [(x, names[-1]) for x in names])


def isos_between(cat: FinCat, x: str, y: str) -> int:
    return sum(cat.is_iso(m) for m in cat.hom(x, y))


@st.composite
def reserved_inputs(draw) -> tuple[FinCat, FinCat, FinCat]:
    """Two categories and a poset with a top, every cell renamed over RESERVED.

    Half the names are "a" or "a" + sep + "a" for one separator sep, so that
    derived names that join two names with sep often collide.
    """
    sep = draw(st.sampled_from(RESERVED))
    names = st.one_of(
        st.sampled_from(["a", f"a{sep}a"]), st.text("a" + RESERVED, min_size=1, max_size=3)
    )
    out = []
    for cat in (draw(st.one_of(SMALL, posets())), draw(SMALL), draw(posets_with_top())):
        objs = draw(st.lists(names, min_size=len(cat.objects), max_size=len(cat.objects), unique=True))
        mors = draw(st.lists(names, min_size=len(cat.dom), max_size=len(cat.dom), unique=True))
        out.append(relabel(cat, objs, mors))
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(reserved_inputs())
def test_reserved_characters_give_right_counts_or_a_refusal(cats):
    c, d, index_cat = cats
    prod = built_or_refused(bilim.biproduct, c, d)
    if prod is not None:
        assert len(prod.category.objects) == len(c.objects) * len(d.objects)
        assert len(prod.category.dom) == len(c.dom) * len(d.dom)
        assert_same_fincat(prod.category)
        assert_valid_functor(prod.proj1)
        assert_valid_functor(prod.proj2)
    cot = built_or_refused(bilim.arrow_cotensor, c)
    if cot is not None:
        squares = sum(
            c.table[(q, f)] == c.table[(g, p)]
            for f in c.dom for g in c.dom
            for p in c.hom(c.dom[f], c.dom[g]) for q in c.hom(c.cod[f], c.cod[g])
        )
        assert (len(cot.category.objects), len(cot.category.dom)) == (len(c.dom), squares)
        assert_same_fincat(cot.category)
        assert_valid_functor(cot.src)
        assert_valid_functor(cot.tgt)
        eq = built_or_refused(bilim.biequalizer, cot.src, cot.tgt)
        if eq is not None:
            assert len(eq.category.objects) == sum(isos_between(c, c.dom[f], c.cod[f]) for f in c.dom)
            assert_same_fincat(eq.category)
            assert_valid_functor(eq.projection)
            assert_valid_nattrans(eq.iso)
    ident = fincat.identity_functor(c)
    eq = built_or_refused(bilim.biequalizer, ident, ident)
    if eq is not None:
        assert len(eq.category.objects) == sum(isos_between(c, x, x) for x in c.objects)
        assert_same_fincat(eq.category)
        assert_valid_functor(eq.projection)
    pf = constant_pseudofunctor(locally_discrete(index_cat), d)
    pairs = len(index_cat.objects) * len(d.objects)
    el = built_or_refused(elements_category, pf)
    if el is not None:
        assert len(el.total.cells0) == pairs
        assert_same_twocat(el.total)
    colimit = built_or_refused(bifiltered_bicolimit, pf)
    if colimit is not None:
        assert len(colimit.result.objects) == len(set(colimit.obj_name.values())) == pairs
        assert_valid_colimit(colimit)


def with_arrows(name: str, objs: list[str], arrows: list[tuple[str, str, str]]) -> FinCat:
    """The category on ``objs`` and the non-composable ``arrows``."""
    ids = {x: f"id{x}" for x in objs}
    table = {(ids[x], ids[x]): ids[x] for x in objs}
    for m, x, y in arrows:
        table[(m, ids[x])] = table[(ids[y], m)] = m
    return build_fincat(name, objs, [(ids[x], x, x) for x in objs] + arrows, ids, table)


def colliding_colimit():
    chain = locally_discrete(zoo.poset("I", [("x", "x.y")]))
    return bifiltered_bicolimit(constant_pseudofunctor(chain, zoo.discrete(["z", "y.z"], "C")))


def colliding_elements():
    # (u, v|w) and (u|v, w) both spell <i.x|u|v|w>
    base = locally_discrete(with_arrows("I", ["i", "j"], [("u", "i", "j"), ("u|v", "i", "j")]))
    fiber = with_arrows("C", ["x", "y"], [("w", "x", "y"), ("v|w", "x", "y")])
    return elements_category(constant_pseudofunctor(base, fiber))


def colliding_biequalizer():
    # (x, y|z) and (x|y, z) both spell (x|y|z)
    c = build_fincat(
        "C", ["x", "x|y"], [("y|z", "x", "x"), ("z", "x|y", "x|y")],
        {"x": "y|z", "x|y": "z"}, {("y|z", "y|z"): "y|z", ("z", "z"): "z"},
    )
    ident = fincat.identity_functor(c)
    return bilim.biequalizer(ident, ident)


COLLISIONS = {
    "colimit": (colliding_colimit, "colim(const(C))", "repeated object name 'x.y.z'"),
    "biproduct": (
        lambda: bilim.biproduct(zoo.discrete(["a", "a,b"], "C"), zoo.discrete(["c", "b,c"], "D")),
        "(CxD)",
        "repeated object name '(a,b,c)'",
    ),
    "elements": (colliding_elements, "el[i.x,j.y]", "repeated object name '<i.x|u|v|w>'"),
    "biequalizer": (colliding_biequalizer, "eq(1_C,1_C)", "repeated object name '(x|y|z)'"),
}


@pytest.mark.parametrize("case", sorted(COLLISIONS))
def test_colliding_derived_names_are_refused(case):
    build, subject, violation = COLLISIONS[case]
    with pytest.raises(ValidationError) as err:
        build()
    assert (err.value.subject, err.value.violations) == (subject, [violation])


def test_arrow_cotensor_of_a_biproduct():
    # its morphisms hold commas, which a name-slicing builder cut at
    square = bilim.biproduct(zoo.walking_arrow(), zoo.walking_arrow()).category
    cot = bilim.arrow_cotensor(square)
    assert (len(cot.category.objects), len(cot.category.dom)) == (9, 36)
    assert_same_fincat(cot.category)
    assert_valid_functor(cot.src)
    assert_valid_functor(cot.tgt)


def test_biequalizer_over_a_morphism_named_with_a_colon():
    c = build_fincat("C", ["x"], [("i:x", "x", "x")], {"x": "i:x"}, {("i:x", "i:x"): "i:x"})
    ident = fincat.identity_functor(c)
    eq = bilim.biequalizer(ident, ident)
    assert eq.category.objects == ("(x|i:x)",)
    assert eq.projection.mor_map == {"(i:x:(x|i:x)>(x|i:x))": "i:x"}
    assert_same_fincat(eq.category)
    assert_valid_functor(eq.projection)


def test_elements_store_only_nonempty_homs():
    for fx in of_kind(DiagramFixture).values():
        total = elements_category(fx.functor).total
        assert all(cat.objects for cat in total.hom.values())
        for x, y in itertools.product(total.cells0, repeat=2):
            assert total.hom[(x, y)].name == f"el[{x},{y}]"


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
