from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from support import colim_of

from bicolim import corpus, zoo
from bicolim.colim import (
    Premorphism,
    _Amalgamator,
    bifiltered_bicolimit,
    elements_category,
    factor_cocone,
    premorphism_equal,
    sigma_bicolimit,
    validate_cocone,
)
from bicolim.fincat import (
    ValidationError,
    check_equivalence,
    compose_functors,
    identity_functor,
    natural_iso_search,
)
from bicolim.twocat import (
    constant_pseudofunctor,
    restrict_pseudofunctor,
    sigma_closure,
    terminal_twocat,
)
from bicolim.filtered import class_subcategory


def sigma_colim_of(dname, cname):
    pf = corpus.DIAGRAM_BUILDERS[dname]()
    return sigma_bicolimit(pf, corpus.diagram_sigma(dname, cname, pf))


# -- elements category --------------------------------------------------------


def test_elements_of_constant_terminal_is_base():
    tc = corpus.poset_top_twocat()
    pf = constant_pseudofunctor(tc, zoo.terminal())
    el = elements_category(pf)
    assert len(el.total.cells0) == len(tc.cells0)
    assert len(el.total.one_home) == len(tc.one_home)
    # every 1-cell has an identity fiber component, hence is opcartesian
    assert el.opcartesian == frozenset(el.total.one_home)


def test_elements_of_constant_empty_is_empty():
    from bicolim.fincat import build_fincat

    empty = build_fincat("empty", [], [], {}, {})
    pf = constant_pseudofunctor(corpus.poset_top_twocat(), empty)
    el = elements_category(pf)
    assert el.total.cells0 == ()


def test_elements_projection_and_flags():
    pf = corpus.lax_diagram()
    el = elements_category(pf)
    # flags match invertibility of the fiber component
    for n, (f, phi) in el.cell1_of.items():
        j = pf.source.one_home[f][1]
        assert (n in el.opcartesian) == pf.on0[j].is_iso(phi)
    # projection is a strict 2-functor onto the base
    from bicolim.twocat import twofunctor_violations

    assert not twofunctor_violations(el.projection)


def test_elements_of_representable_coslice():
    # over a locally discrete poset, the total category of the arrow-category
    # diagram hom(bot, -) is the coslice under bot: one object per arrow out
    from bicolim.flat import representable_pseudofunctor

    tc = corpus.poset_bottom_twocat()
    pf = representable_pseudofunctor(tc, "bot")
    el = elements_category(pf)
    arrows_out = [f for f in tc.one_home if tc.one_home[f][0] == "bot"]
    assert len(el.total.cells0) == len(arrows_out)


# -- bifiltered colimits -------------------------------------------------------


def test_one_object_index_colimit_is_the_fiber():
    pf = constant_pseudofunctor(terminal_twocat(), zoo.walking_arrow())
    col = bifiltered_bicolimit(pf)
    assert check_equivalence(col.result, zoo.walking_arrow())


def test_constant_diagram_colimit_equivalent_to_value():
    col = colim_of("const_arrow")
    assert check_equivalence(col.result, zoo.walking_arrow())


def test_chain_of_inclusions_colimit_is_the_union():
    col = colim_of("chain_incl")
    top = zoo.poset("d2", [("u", "v"), ("v", "w")])
    assert check_equivalence(col.result, top)


def test_twisted_diagram_colimit():
    col = colim_of("twisted_iso")
    assert check_equivalence(col.result, zoo.walking_iso())


def test_nonfiltered_index_is_rejected():
    pf = constant_pseudofunctor(corpus.discrete2_twocat(), zoo.terminal())
    with pytest.raises(ValidationError):
        bifiltered_bicolimit(pf)


def test_all_transitions_invertible_in_bifiltered_mode():
    for name in corpus.BIFILTERED_DIAGRAMS:
        col = colim_of(name)
        for d, nt in col.transitions.items():
            assert nt.is_invertible(), (name, d)


def test_cocone_satisfies_oplax_axioms():
    for name in corpus.BIFILTERED_DIAGRAMS:
        col = colim_of(name)
        bad = validate_cocone(col.index, col.diagram, col.cocone, col.transitions, None)
        assert not bad, (name, bad)


def test_class_lookup_agrees_with_transition_pasting():
    # the two routes to a morphism from a span: union-find class vs pasting
    for name in corpus.BIFILTERED_DIAGRAMS:
        col = colim_of(name)
        for p in itertools.islice(sorted(col.classes, key=Premorphism.key), 200):
            assert col.classes[p] == col.morphism_of(p), (name, p)


def test_composition_independent_of_amalgamation_witness():
    col = colim_of("const_arrow")
    amal = _Amalgamator(col.diagram)
    reps = sorted(col.class_rep.items())
    checked = 0
    for gname, grep in reps:
        for fname, frep in reps:
            if frep.dst != grep.src:
                continue
            first = col.classes[amal.compose(grep, frep, witness=0)]
            second = col.classes[amal.compose(grep, frep, witness=1)]
            assert first == second
            checked += 1
    assert checked > 0


# -- premorphism equality ------------------------------------------------------


def test_premorphism_equal_reflexive():
    col = colim_of("const_arrow")
    p = next(iter(sorted(col.classes, key=Premorphism.key)))
    assert premorphism_equal(col, p, p)


def equalized_by_stage_arrow(col, i, f, g):
    """Oracle: some index arrow out of i whose image identifies f and g."""
    pf = col.diagram
    for v in sorted(pf.source.one_cells):
        if pf.source.one_home[v][0] != i:
            continue
        if col.sigma is not None and v not in col.sigma.members:
            continue
        if pf.on1[v].mor_map[f] == pf.on1[v].mor_map[g]:
            return v
    return None


def test_fiber_parallel_identification_matches_stage_equalization():
    # the faithfulness half of the colimit description, against the oracle
    fixtures = [colim_of(n) for n in corpus.BIFILTERED_DIAGRAMS]
    fixtures += [sigma_colim_of(d, c) for d, c in corpus.SIGMA_DIAGRAMS]
    for col in fixtures:
        pf = col.diagram
        for i in sorted(pf.source.cells0):
            fib = pf.on0[i]
            for f in fib.morphisms:
                for g in fib.morphisms:
                    if fib.dom[f] != fib.dom[g] or fib.cod[f] != fib.cod[g]:
                        continue
                    p = col.fiber_premorphism(i, f)
                    q = col.fiber_premorphism(i, g)
                    identified = premorphism_equal(col, p, q)
                    oracle = equalized_by_stage_arrow(col, i, f, g) is not None
                    assert identified == oracle, (col.diagram.name, i, f, g)


def test_distinct_parallel_fiber_arrows_merge_when_a_stage_equalizes_them():
    col = colim_of("collapse_pair")
    p = col.fiber_premorphism("b", "f")
    q = col.fiber_premorphism("b", "g")
    assert premorphism_equal(col, p, q)
    assert col.classes[p] == col.classes[q]
    # without the collapsing stage they stay distinct: same fiber inside the
    # parallel-pair index alone admits no equalizing arrow
    assert check_equivalence(col.result, zoo.terminal())


def test_lax_colimit_shape():
    # in the class colimit of the lax fixture, the point fiber lands on the
    # target of the walking arrow; the whole colimit is again a walking arrow
    col = sigma_colim_of("lax_fill", "lax")
    assert len(col.result.objects) == 3
    assert check_equivalence(col.result, zoo.walking_arrow())
    # the image of the fiber arrow stays non-invertible
    cls = col.cocone["t"].mor_map["f"]
    assert not col.result.is_iso(cls)


# -- sigma colimits -------------------------------------------------------------


def test_sigma_with_all_arrows_agrees_with_bifiltered():
    from bicolim.twocat import all_one_cells

    pf = corpus.constant_diagram()
    plain = bifiltered_bicolimit(pf)
    relative = sigma_bicolimit(pf, all_one_cells(pf.source))
    assert plain.result.objects == relative.result.objects
    assert plain.result.morphisms == relative.result.morphisms
    assert check_equivalence(plain.result, relative.result)


def test_sigma_colimit_transitions():
    col = sigma_colim_of("lax_fill", "lax")
    assert col.transitions["s"].is_invertible()
    assert not col.transitions["d"].is_invertible()
    bad = validate_cocone(
        col.index, col.diagram, col.cocone, col.transitions, col.sigma.members
    )
    assert not bad, bad


def test_sigma_colimit_equals_restricted_bifiltered_colimit():
    for dname, cname in corpus.SIGMA_DIAGRAMS:
        pf = corpus.DIAGRAM_BUILDERS[dname]()
        sigma = corpus.diagram_sigma(dname, cname, pf)
        closed = sigma_closure(sigma)
        col = sigma_bicolimit(pf, sigma)
        sub = class_subcategory(pf.source, closed)
        restricted = bifiltered_bicolimit(restrict_pseudofunctor(pf, sub), precheck=False)
        assert check_equivalence(col.result, restricted.result), dname


def test_terminal_index_sigma_colimit():
    from bicolim.twocat import all_one_cells

    pf = constant_pseudofunctor(terminal_twocat(), zoo.walking_iso())
    col = sigma_bicolimit(pf, all_one_cells(pf.source))
    assert check_equivalence(col.result, zoo.walking_iso())


def test_general_premorphism_with_nonclass_right_leg():
    # a span whose right leg lies outside the class is still decidable: the
    # transition pasting route must reproduce the lax transition itself
    col = sigma_colim_of("lax_fill", "lax")
    p = Premorphism(("t", "s"), ("a", "*"), "t", "it", "d", "id_s")
    assert p not in col.classes
    assert col.morphism_of(p) == col.transitions["d"].components["*"]
    # and it compares correctly against the equal span with the padded cell
    q = Premorphism(("t", "s"), ("a", "*"), "t", "it", "d", "id_s")
    assert premorphism_equal(col, p, q)


def test_factor_sigma_cocone_through_own_colimit():
    col = sigma_colim_of("lax_fill", "lax")
    fac = factor_cocone(col, col.result, col.cocone, col.transitions)
    comparison = natural_iso_search(fac.functor, identity_functor(col.result))
    assert comparison is not None


# -- factorization ---------------------------------------------------------------


def test_factor_through_own_cocone_is_identity_like():
    col = colim_of("const_arrow")
    fac = factor_cocone(col, col.result, col.cocone, col.transitions)
    ident = identity_functor(col.result)
    comparison = natural_iso_search(fac.functor, ident)
    assert comparison is not None


def test_factor_constant_cocone_through_identities():
    pf = corpus.constant_diagram()
    col = bifiltered_bicolimit(pf)
    value = zoo.walking_arrow()
    legs = {i: identity_functor(value) for i in pf.source.cells0}
    from bicolim.fincat import identity_nattrans

    cells = {}
    for d in pf.source.one_home:
        i, j = pf.source.one_home[d]
        cells[d] = identity_nattrans(identity_functor(value))
    fac = factor_cocone(col, value, legs, cells)
    # restriction along each inclusion is the leg, strictly
    for i in pf.source.cells0:
        restricted = compose_functors(fac.functor, col.cocone[i])
        assert restricted.obj_map == legs[i].obj_map
        assert restricted.mor_map == legs[i].mor_map
    # and the mediating functor realizes the equivalence with the value
    assert check_equivalence(col.result, value)


def test_factorization_through_postcomposition_is_the_postcomposition():
    # cocone legs h∘q_i factor through h up to natural isomorphism
    col = colim_of("chain_incl")
    target = col.result
    h = identity_functor(target)
    legs = {i: compose_functors(h, col.cocone[i]) for i in col.index.cells0}
    cells = col.transitions
    fac = factor_cocone(col, target, legs, cells)
    comparison = natural_iso_search(fac.functor, h)
    assert comparison is not None


def test_invalid_cocone_is_rejected():
    col = colim_of("const_arrow")
    legs = {i: col.cocone[i] for i in col.index.cells0}
    cells = dict(col.transitions)
    # break one transition: replace by a mistyped one
    first = sorted(cells)[0]
    other = sorted(cells)[-1]
    cells[first] = cells[other]
    with pytest.raises(ValidationError):
        factor_cocone(col, col.result, legs, cells)


# -- congruence (hypothesis) -----------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_quotient_composition_congruence(seed):
    col = COL_CACHE["const_arrow"]
    classes = sorted(col.class_rep)
    if not classes:
        return
    import random

    rng = random.Random(seed)
    gname = rng.choice(classes)
    grep = col.class_rep[gname]
    candidates = [f for f in classes if col.class_rep[f].dst == grep.src]
    if not candidates:
        return
    fname = rng.choice(candidates)
    # composing any member of each class must land in the product class
    amal = _Amalgamator(col.diagram)
    members_g = [p for p, c in col.classes.items() if c == gname]
    members_f = [p for p, c in col.classes.items() if c == fname]
    expected = col.result.table[(gname, fname)]
    got = col.classes[amal.compose(rng.choice(members_g), rng.choice(members_f))]
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_transport_preserves_the_presented_morphism(seed):
    # pushing a span along any arrow out of its apex does not change the
    # morphism it presents, checked through the transition-pasting route
    from bicolim.colim import _transport

    col = COL_CACHE["const_arrow"]
    import random

    rng = random.Random(seed)
    p = rng.choice(sorted(col.classes, key=Premorphism.key))
    base = col.diagram.source
    outgoing = [t for t in base.one_cells if base.one_home[t][0] == p.apex]
    if not outgoing:
        return
    t = rng.choice(sorted(outgoing))
    moved = _transport(col.diagram, p, t)
    assert col.morphism_of(moved) == col.morphism_of(p)


COL_CACHE = {"const_arrow": None}


def setup_module(module):
    module.COL_CACHE["const_arrow"] = colim_of("const_arrow")
