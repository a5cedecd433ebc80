from __future__ import annotations

import dataclasses
import itertools
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st
from support import BUNDLED

from bicolim import corpus, zoo
from bicolim.bilim import (
    Biproduct,
    arrow_cotensor,
    biequalizer,
    biproduct,
    biproduct_diagram,
    biequalizer_diagram,
    commute_biequalizer,
    commute_biproduct,
    commute_cotensor,
    cotensor_diagram,
    pseudolimit_cocycle,
    split_pseudoidempotent,
    validate_pseudoidempotent,
)
from bicolim.colim import bifiltered_bicolimit, factor_cocone, validate_cocone
from bicolim.fincat import (
    Functor,
    NatTrans,
    SizeGuardError,
    build_functor,
    check_equivalence,
    compose_functors,
    functor_is_equivalence,
    identity_functor,
    identity_nattrans,
    nattrans_violations,
)
from bicolim.fixtures import ParallelFixture, load_fixture
from bicolim.twocat import constant_pseudofunctor, locally_discrete, terminal_twocat
from bicolim.verify import NAMED_DIAGRAMS


# -- biproduct -----------------------------------------------------------------


def test_biproduct_with_terminal_is_identity_up_to_equivalence():
    c = zoo.walking_arrow()
    prod = biproduct(c, zoo.terminal())
    assert check_equivalence(prod.category, c)


def test_biproduct_of_terminals():
    prod = biproduct(zoo.terminal(), zoo.terminal())
    assert check_equivalence(prod.category, zoo.terminal())


def test_biproduct_of_discretes_by_enumeration():
    # oracle: the product of discrete categories is discrete on the pairs
    d2 = zoo.discrete(["a", "b"])
    expected_objects = {(x, y) for x in d2.objects for y in d2.objects}
    prod = biproduct(d2, d2)
    assert len(prod.category.objects) == len(expected_objects) == 4
    assert all(prod.category.is_identity(m) for m in prod.category.morphisms)
    assert check_equivalence(prod.category, zoo.discrete(["p", "q", "r", "s"]))


def test_biproduct_projections_and_pairing():
    c, d = zoo.walking_arrow(), zoo.walking_iso()
    prod = biproduct(c, d)
    # projections recover the factors on objects
    for x in c.objects:
        for y in d.objects:
            po = prod.pair_obj(x, y)
            assert prod.proj1.obj_map[po] == x
            assert prod.proj2.obj_map[po] == y


# -- biequalizer ---------------------------------------------------------------


def test_biequalizer_of_equal_functors_contains_identity_section():
    c = zoo.walking_arrow()
    f = identity_functor(c)
    eq = biequalizer(f, f)
    # the identity isos give a section; projection after it is the identity
    section_objs = {eq.obj(a, c.identity[a]) for a in c.objects}
    assert section_objs <= set(eq.category.objects)
    for a in c.objects:
        assert eq.projection.obj_map[eq.obj(a, c.identity[a])] == a


def test_biequalizer_disjoint_images_is_empty():
    d2 = zoo.discrete(["a", "b"])
    pt = zoo.terminal()
    pick_a = build_functor("pa", pt, d2, {"*": "a"}, {"id": "id_a"})
    pick_b = build_functor("pb", pt, d2, {"*": "b"}, {"id": "id_b"})
    eq = biequalizer(pick_a, pick_b)
    assert eq.category.objects == ()


def test_biequalizer_twisted_by_iso_is_equivalent_to_source():
    iso = zoo.walking_iso()
    pt = zoo.terminal()
    pick_x = build_functor("px", pt, iso, {"*": "x"}, {"id": "id_x"})
    pick_y = build_functor("py", pt, iso, {"*": "y"}, {"id": "id_y"})
    eq = biequalizer(pick_x, pick_y)
    assert check_equivalence(eq.category, pt)
    assert not nattrans_violations(eq.iso)
    assert eq.iso.is_invertible()


# -- arrow cotensor --------------------------------------------------------------


def test_cotensor_of_terminal():
    cot = arrow_cotensor(zoo.terminal())
    assert check_equivalence(cot.category, zoo.terminal())


def test_cotensor_of_discrete_is_discrete():
    cot = arrow_cotensor(zoo.discrete(["a", "b"]))
    assert check_equivalence(cot.category, zoo.discrete(["a", "b"]))


def test_cotensor_of_walking_arrow_has_three_objects():
    # oracle: enumeration; the objects are the three morphisms
    c = zoo.walking_arrow()
    assert len(c.morphisms) == 3
    cot = arrow_cotensor(c)
    assert len(cot.category.objects) == 3
    assert not nattrans_violations(cot.cell)


# -- pseudolimit -----------------------------------------------------------------


def test_pseudolimit_of_constant_over_terminal_index():
    pf = constant_pseudofunctor(terminal_twocat(), zoo.walking_arrow())
    lim = pseudolimit_cocycle(pf)
    assert check_equivalence(lim.category, zoo.walking_arrow())


def test_pseudolimit_along_an_equivalence():
    # a single arrow acting by the swap automorphism: families are pairs
    # (A_0, A_1) with an iso; the limit projects equivalently onto fiber 0
    tc = locally_discrete(zoo.chain(2), name="c2")
    iso = zoo.walking_iso()
    swap = build_functor(
        "swap",
        iso,
        iso,
        {"x": "y", "y": "x"},
        {"id_x": "id_y", "id_y": "id_x", "u": "u_inv", "u_inv": "u"},
    )
    on1 = {"le_0_0": identity_functor(iso), "le_1_1": identity_functor(iso), "le_0_1": swap}
    on2 = {tc.id2(f): identity_nattrans(on1[f]) for f in tc.one_home}
    from bicolim.twocat import build_pseudofunctor

    pf = build_pseudofunctor("sw", tc, {"0": iso, "1": iso}, on1, on2)
    lim = pseudolimit_cocycle(pf)
    assert check_equivalence(lim.category, iso)


def test_pseudolimit_with_no_compatible_families_is_empty():
    tc = locally_discrete(zoo.chain(2), name="c2")
    d2 = zoo.discrete(["a", "b"])
    pt = zoo.terminal()
    to_a = build_functor("ta", pt, d2, {"*": "a"}, {"id": "id_a"})
    on1 = {
        "le_0_0": identity_functor(pt),
        "le_1_1": identity_functor(d2),
        "le_0_1": to_a,
    }
    on2 = {tc.id2(f): identity_nattrans(on1[f]) for f in tc.one_home}
    from bicolim.twocat import build_pseudofunctor

    pf = build_pseudofunctor("pick", tc, {"0": pt, "1": d2}, on1, on2)
    lim = pseudolimit_cocycle(pf)
    # families must send the point into a; pairs with A_1 = b are excluded
    assert len(lim.category.objects) == 1


def test_pseudolimit_guard_names_the_diagram_and_bound():
    # twisted_iso has two objects at each of three 0-cells: the running
    # count of families reaches 4 at the second 0-cell
    pf = corpus.twisted_iso_diagram()
    with pytest.raises(SizeGuardError) as err:
        pseudolimit_cocycle(pf, max_families=3)
    assert str(err.value) == (
        "pseudolimit of twisted_iso: object families reach 4 after 0-cell '1', "
        "exceeding max_families=3"
    )


# -- idempotent splitting ----------------------------------------------------------


def test_split_identity_idempotent():
    fix = corpus.idempotent_identity()
    p = validate_pseudoidempotent(fix.carrier, fix.endo, fix.mult)
    s = split_pseudoidempotent(p)
    assert check_equivalence(s.category, fix.carrier)
    assert s.alpha.is_invertible() and s.beta.is_invertible()
    assert not nattrans_violations(s.alpha)
    assert not nattrans_violations(s.beta)


def test_split_constant_idempotent():
    fix = corpus.idempotent_constant()
    p = validate_pseudoidempotent(fix.carrier, fix.endo, fix.mult)
    s = split_pseudoidempotent(p)
    # the split category is the full subcategory of objects isomorphic to
    # the value of the constant; in the walking arrow that is the point
    assert check_equivalence(s.category, zoo.terminal())


def test_split_diagonal_idempotent():
    fix = corpus.idempotent_diagonal()
    p = validate_pseudoidempotent(fix.carrier, fix.endo, fix.mult)
    s = split_pseudoidempotent(p)
    assert check_equivalence(s.category, zoo.discrete(["a", "b"]))


def test_splitting_equations_on_all_fixtures():
    for name, make in corpus.IDEMPOTENT_BUILDERS.items():
        fix = make()
        p = validate_pseudoidempotent(fix.carrier, fix.endo, fix.mult)
        s = split_pseudoidempotent(p)
        # alpha : s∘r ≅ e componentwise, checked against the endo directly
        roundtrip = compose_functors(s.retraction, s.section)
        assert roundtrip.obj_map == fix.endo.obj_map, name
        assert roundtrip.mor_map == fix.endo.mor_map, name
        assert s.alpha.is_invertible() and not nattrans_violations(s.alpha), name
        assert s.beta.is_invertible() and not nattrans_violations(s.beta), name
        # beta compares r∘s with the identity of the splitting
        other = compose_functors(s.section, s.retraction)
        assert s.beta.source.key() == other.key(), name
        assert s.beta.target.key() == identity_functor(s.category).key(), name


def test_invalid_idempotent_rejected():
    from bicolim.fincat import ValidationError

    c = zoo.walking_arrow()
    e = identity_functor(c)
    bad = identity_nattrans(e)
    bad.components = {"s": "f", "t": "id_t"}  # not invertible at s
    with pytest.raises(ValidationError):
        validate_pseudoidempotent(c, e, bad)


# -- commutation -------------------------------------------------------------------


def test_colimit_commutes_with_biproduct():
    f1 = corpus.constant_diagram()
    f2 = constant_pseudofunctor(f1.source, zoo.walking_iso())
    assert commute_biproduct(bifiltered_bicolimit(f1), bifiltered_bicolimit(f2))


def test_colimit_commutes_with_cotensor():
    assert commute_cotensor(bifiltered_bicolimit(corpus.constant_diagram()))
    assert commute_cotensor(bifiltered_bicolimit(corpus.inclusion_chain_diagram()))


def test_colimit_commutes_with_biequalizer():
    par = corpus.parallel_over_poset_top()
    left, right = bifiltered_bicolimit(par.left), bifiltered_bicolimit(par.right)
    assert commute_biequalizer(left, right, par.u, par.v)


# -- commutation against the skeletons: the full right-hand sides as oracles --------
#
# The commutation checks form their right-hand bilimits over sk(colim F).  The
# oracles below form them over colim F itself, as the checks once did; the two
# must agree on every verdict, and the two right-hand sides must be equivalent.


def full_biproduct_rhs(c1, c2):
    return biproduct(c1.result, c2.result).category


def full_cotensor_rhs(colim):
    return arrow_cotensor(colim.result).category


def induced_map(c1, c2, w, tag):
    """colim F1 -> colim F2 induced by a strictly natural w : F1 => F2."""
    f1 = c1.diagram
    legs = {i: compose_functors(c2.cocone[i], w[i]) for i in f1.source.cells0}
    cells = {}
    for d, (i, j) in f1.source.one_home.items():
        cells[d] = NatTrans(
            f"{tag}_{d}",
            compose_functors(legs[j], f1.on1[d]),
            legs[i],
            {a: c2.transitions[d].components[w[i].obj_map[a]] for a in f1.on0[i].objects},
        )
    return factor_cocone(c1, c2.result, legs, cells).functor


def full_biequalizer_rhs(c1, c2, u, v):
    return biequalizer(induced_map(c1, c2, u, "u"), induced_map(c1, c2, v, "v")).category


def skeleton_biequalizer_rhs(c1, c2, u, v):
    def reduced(w, tag):
        fun = induced_map(c1, c2, w, tag)
        return compose_functors(c2.skeleton.retraction, compose_functors(fun, c1.skeleton.inclusion))

    return biequalizer(reduced(u, "u"), reduced(v, "v")).category


def assert_biproduct_agrees(c1, c2):
    lhs = bifiltered_bicolimit(biproduct_diagram(c1.diagram, c2.diagram)).result
    reduced = biproduct(c1.skeleton.category, c2.skeleton.category).category
    full = full_biproduct_rhs(c1, c2)
    assert check_equivalence(reduced, full)
    assert commute_biproduct(c1, c2).outcome == check_equivalence(lhs, full).outcome


def assert_cotensor_agrees(colim):
    lhs = bifiltered_bicolimit(cotensor_diagram(colim.diagram)).result
    full = full_cotensor_rhs(colim)
    assert check_equivalence(arrow_cotensor(colim.skeleton.category).category, full)
    assert commute_cotensor(colim).outcome == check_equivalence(lhs, full).outcome


def assert_biequalizer_agrees(c1, c2, u, v):
    lhs = bifiltered_bicolimit(biequalizer_diagram(c1.diagram, c2.diagram, u, v)).result
    full, reduced = full_biequalizer_rhs(c1, c2, u, v), skeleton_biequalizer_rhs(c1, c2, u, v)
    assert check_equivalence(reduced, full)
    assert commute_biequalizer(c1, c2, u, v).outcome == check_equivalence(lhs, full).outcome


BUNDLED_CACHE: dict = {}


def bundled(name):
    return load_fixture(BUNDLED / name, BUNDLED_CACHE)


@cache
def bundled_colimit(name):
    return bifiltered_bicolimit(bundled(name).functor)


PARALLEL_FIXTURES = sorted(p.name for p in BUNDLED.glob("*.parallel.json"))


@pytest.mark.parametrize("names", NAMED_DIAGRAMS["commutation-biproduct"], ids="x".join)
def test_biproduct_commutation_agrees_with_the_full_product(names):
    c1, c2 = map(bundled_colimit, names)
    assert_biproduct_agrees(c1, c2)
    assert commute_biproduct(c1, c2)


@pytest.mark.parametrize("names", NAMED_DIAGRAMS["commutation-cotensor"], ids="x".join)
def test_cotensor_commutation_agrees_with_the_full_cotensor(names):
    (colim,) = map(bundled_colimit, names)
    assert_cotensor_agrees(colim)
    assert commute_cotensor(colim)


@pytest.mark.parametrize("name", PARALLEL_FIXTURES)
def test_biequalizer_commutation_agrees_with_the_full_equalizer(name):
    fx = bundled(name)
    assert isinstance(fx, ParallelFixture)
    c1, c2 = bundled_colimit(fx.left.path.name), bundled_colimit(fx.right.path.name)
    assert_biequalizer_agrees(c1, c2, fx.u, fx.v)
    assert commute_biequalizer(c1, c2, fx.u, fx.v)


def test_a_colimit_paired_with_the_wrong_diagram_is_refused_by_both_paths():
    # colim(const_arrow) is the walking arrow and colim(par_right) the walking
    # iso, which are not equivalent; each check is handed the colimit of one
    # diagram labelled with the other
    arrow, iso = bundled_colimit("const_arrow.diagram.json"), bundled_colimit("par_right.diagram.json")
    assert not check_equivalence(arrow.result, iso.result)
    wrong = dataclasses.replace(arrow, diagram=iso.diagram)
    lhs = bifiltered_bicolimit(biproduct_diagram(wrong.diagram, iso.diagram)).result
    assert not check_equivalence(lhs, full_biproduct_rhs(wrong, iso))
    assert not commute_biproduct(wrong, iso)

    chain = bundled_colimit("chain_incl.diagram.json")
    assert not check_equivalence(chain.result, arrow.result)
    wrong = dataclasses.replace(chain, diagram=arrow.diagram)
    lhs = bifiltered_bicolimit(cotensor_diagram(wrong.diagram)).result
    assert not check_equivalence(lhs, full_cotensor_rhs(wrong))
    assert not commute_cotensor(wrong)


FIBERS = [zoo.walking_arrow(), zoo.parallel_pair(), zoo.walking_iso(), zoo.terminal()]


@st.composite
def posets_with_top(draw):
    names = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    top = names[-1]
    relation = [pair for pair in itertools.combinations(names, 2) if draw(st.booleans())]
    relation += [(x, top) for x in names[:-1]] + [(x, x) for x in names]
    return locally_discrete(zoo.poset("P", relation))


@st.composite
def constant_pairs_over_posets_with_top(draw):
    tc = draw(posets_with_top())
    fibers = st.sampled_from(FIBERS)
    return constant_pseudofunctor(tc, draw(fibers)), constant_pseudofunctor(tc, draw(fibers))


@st.composite
def constant_picks_over_posets_with_top(draw):
    """The point and a constant fiber over one index, and two constant maps
    u, v from the first to the second, each picking an object."""
    tc, fiber, point = draw(posets_with_top()), draw(st.sampled_from(FIBERS)), zoo.terminal()

    def pick(tag):
        a = draw(st.sampled_from(fiber.objects))
        return {i: build_functor(f"{tag}_{a}", point, fiber, {"*": a}, {"id": fiber.identity[a]})
                for i in tc.cells0}

    return constant_pseudofunctor(tc, point), constant_pseudofunctor(tc, fiber), pick("u"), pick("v")


@settings(max_examples=15, deadline=None)
@given(constant_pairs_over_posets_with_top())
def test_commutation_agrees_with_the_full_right_sides_on_constant_diagrams(pair):
    c1, c2 = map(bifiltered_bicolimit, pair)
    assert_biproduct_agrees(c1, c2)
    assert_cotensor_agrees(c1)


@settings(max_examples=15, deadline=None)
@given(constant_picks_over_posets_with_top())
def test_biequalizer_commutation_agrees_with_the_full_equalizer_on_constant_picks(picks):
    # picks of two non-isomorphic objects have an empty equalizer, picks of
    # one object a point, so swapping u for v in either side shows
    f1, f2, u, v = picks
    c1, c2 = bifiltered_bicolimit(f1), bifiltered_bicolimit(f2)
    assert_biequalizer_agrees(c1, c2, u, v)
    assert commute_biequalizer(c1, c2, u, v)


def test_biequalizer_commutation_agrees_when_the_picks_are_not_isomorphic():
    # u and v pick the two ends of the walking arrow over every stage, so
    # eq(u, v) is empty while eq(u, u) and eq(v, v) are the point; the
    # bundled parallel fixture picks isomorphic objects and cannot tell
    relation = [("a", "top"), ("b", "top")] + [(x, x) for x in ("a", "b", "top")]
    tc = locally_discrete(zoo.poset("P", relation))
    point, arrow = zoo.terminal(), zoo.walking_arrow()

    def pick(tag, a):
        return {i: build_functor(f"{tag}_{a}", point, arrow, {"*": a}, {"id": arrow.identity[a]})
                for i in tc.cells0}

    c1 = bifiltered_bicolimit(constant_pseudofunctor(tc, point))
    c2 = bifiltered_bicolimit(constant_pseudofunctor(tc, arrow))
    u, v = pick("u", "s"), pick("v", "t")
    assert full_biequalizer_rhs(c1, c2, u, v).objects == ()
    assert full_biequalizer_rhs(c1, c2, u, u).objects != ()
    assert_biequalizer_agrees(c1, c2, u, v)
    assert commute_biequalizer(c1, c2, u, v)


# -- groundwork: the comparison cocone into sk(colim F1) x sk(colim F2) --------------


def skeleton_product_cocone(c1, c2, diagram, target: Biproduct):
    """The cocone F1(i) x F2(i) -> sk1 x sk2 with legs r∘q_i and cells r∘θ_d,
    paired; r is each skeleton's retraction."""
    r1, r2 = c1.skeleton.retraction, c2.skeleton.retraction
    f1, f2 = c1.diagram, c2.diagram
    pair = Biproduct.pair_obj
    legs = {}
    for i in diagram.source.cells0:
        q1, q2 = compose_functors(r1, c1.cocone[i]), compose_functors(r2, c2.cocone[i])
        legs[i] = Functor(
            f"leg_{i}",
            diagram.on0[i],
            target.category,
            {pair(x, y): pair(q1.obj_map[x], q2.obj_map[y])
             for x in f1.on0[i].objects for y in f2.on0[i].objects},
            {pair(m, n): pair(q1.mor_map[m], q2.mor_map[n])
             for m in f1.on0[i].morphisms for n in f2.on0[i].morphisms},
        )
    cells = {}
    for d, (i, j) in diagram.source.one_home.items():
        t1, t2 = c1.transitions[d].components, c2.transitions[d].components
        cells[d] = NatTrans(
            f"cell_{d}",
            compose_functors(legs[j], diagram.on1[d]),
            legs[i],
            {pair(x, y): pair(r1.mor_map[t1[x]], r2.mor_map[t2[y]])
             for x in f1.on0[i].objects for y in f2.on0[i].objects},
        )
    return legs, cells


@pytest.mark.parametrize("names", NAMED_DIAGRAMS["commutation-biproduct"], ids="x".join)
def test_the_skeleton_product_cocone_factors_through_an_equivalence(names):
    c1, c2 = map(bundled_colimit, names)
    lhs = bifiltered_bicolimit(biproduct_diagram(c1.diagram, c2.diagram))
    target = biproduct(c1.skeleton.category, c2.skeleton.category)
    legs, cells = skeleton_product_cocone(c1, c2, lhs.diagram, target)
    assert validate_cocone(lhs.index, lhs.diagram, legs, cells, None) == []
    assert functor_is_equivalence(factor_cocone(lhs, target.category, legs, cells).functor)
