from __future__ import annotations

import dataclasses
import itertools
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from test_associativity import (
    posets,
    preorders,
    transformation_monoid,
    transformation_monoids,
    valid_categories,
)
from test_indexes import constant_diagrams_over_posets_with_top

from bicolim import corpus, fincat, lexkit, zoo
from bicolim.colim import bifiltered_bicolimit
from bicolim.compact import OneCellLift, lift_one_cell
from bicolim.fincat import (
    ValidationError,
    _assemble_composed,
    build_fincat,
    build_functor,
    check_equivalence,
    compose_functors,
    enumerate_functors,
    fincat_violations,
    identity_functor,
    natural_iso_search,
)
from bicolim.lexkit import (
    _cones,
    _equalizing_cones,
    _first_limit,
    _hom_product,
    _hom_sizes,
    _is_limiting,
    _object_set_verdicts,
    _product_cones,
    finite_limit_witnesses,
    is_lex_functor,
    limit_of_diagram,
    verify_lex_bicolimit,
)
from bicolim.twocat import build_pseudofunctor, constant_pseudofunctor, locally_discrete


def diamond():
    return zoo.poset("diamond", [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])


def brute_force_meet(cat, a, b):
    """Oracle for posets: the meet is the greatest common lower bound."""
    lower = [x for x in cat.objects if cat.hom(x, a) and cat.hom(x, b)]
    meets = [
        x for x in lower
        if all(cat.hom(y, x) for y in lower)
    ]
    return meets[0] if meets else None


# Limits decided by counting, for every cone, the mediators into a candidate:
# the oracles of ``lexkit``'s test that hom(x, apex) -> cones(x) is a
# bijection, and of the verdict differential below.


def cone_over(cat, apex, objs, mors):
    """All cones with the given apex over a graph-shaped diagram."""
    cones = []
    for combo in itertools.product(*[cat.hom(apex, o) for o in objs]):
        legs = dict(zip(objs, combo))
        if all(cat.table[(m, legs[cat.dom[m]])] == legs[cat.cod[m]] for m in mors):
            cones.append(legs)
    return cones


def counts_one_mediator(cat, apex, legs, objs, mors):
    """Every cone over the diagram factors through (apex, legs) exactly once."""
    for x in cat.objects:
        for mu in cone_over(cat, x, sorted(objs), sorted(mors)):
            mediators = [
                m for m in cat.hom(x, apex)
                if all(cat.table[(legs[o], m)] == mu[o] for o in objs)
            ]
            if len(mediators) != 1:
                return False
    return True


def counting_limit_of_diagram(cat, objs, mors):
    objs = sorted(set(objs))
    mors = sorted(set(mors))
    for apex in cat.objects:
        for legs in cone_over(cat, apex, objs, mors):
            if counts_one_mediator(cat, apex, legs, objs, mors):
                return apex, legs
    return None


def counting_is_limit_cone(cat, apex, legs, objs, mors):
    for m in mors:
        if cat.table[(m, legs[cat.dom[m]])] != legs[cat.cod[m]]:
            return False
    return counts_one_mediator(cat, apex, legs, objs, mors)


# -- witnesses ---------------------------------------------------------------


def test_terminal_category_has_all_witnesses():
    report = finite_limit_witnesses(zoo.terminal())
    assert report.ok
    assert report.terminal == "*"


def test_meet_semilattice_products_are_meets():
    cat = diamond()
    report = finite_limit_witnesses(cat)
    assert report.ok
    assert report.terminal == "top"
    for (a, b), (p, _, _) in report.products.items():
        expected = brute_force_meet(cat, a, b)
        assert p == expected, (a, b)


def test_discrete_two_fails_on_terminal():
    report = finite_limit_witnesses(zoo.discrete(["a", "b"]))
    assert not report.ok
    assert report.failure["shape"] == "terminal"


def test_equalizers_in_posets_are_trivial():
    report = finite_limit_witnesses(diamond())
    for (f, g), (e, eq) in report.equalizers.items():
        assert f == g  # hom-sets are at most singletons
        cat = diamond()
        assert cat.dom[f] == e  # equalizer of an equal pair is the domain
        assert cat.is_identity(eq)


def test_walking_iso_is_lex():
    # equivalent to the terminal category, so all finite limits exist
    report = finite_limit_witnesses(zoo.walking_iso())
    assert report.ok


def test_limit_of_diagram_matches_cone_oracle():
    cat = diamond()
    got = limit_of_diagram(cat, ["l", "r"], [])
    assert got is not None
    assert got == counting_limit_of_diagram(cat, ["l", "r"], [])
    apex, legs = got
    assert apex == "bot"
    # oracle: every cone factors through it uniquely, by enumeration
    for x in cat.objects:
        for mu in cone_over(cat, x, ["l", "r"], []):
            mediators = [
                m for m in cat.hom(x, apex)
                if all(cat.table[(legs[o], m)] == mu[o] for o in ["l", "r"])
            ]
            assert len(mediators) == 1


@st.composite
def small_graph_diagrams(draw):
    """A small category and a graph diagram in it: up to 3 objects and up to
    3 arrows between them."""
    cat = draw(st.one_of(valid_categories, preorders()))
    objs = sorted(draw(st.sets(st.sampled_from(cat.objects), min_size=0, max_size=3)))
    inner = [m for m in cat.morphisms if cat.dom[m] in objs and cat.cod[m] in objs]
    mors = draw(st.lists(st.sampled_from(inner), max_size=3, unique=True)) if inner else []
    return cat, objs, mors


@settings(max_examples=150, deadline=None)
@given(small_graph_diagrams())
def test_bijection_test_agrees_with_mediator_counting(diagram):
    cat, objs, mors = diagram
    cones = _cones(cat, objs, mors, {x: _hom_product(cat, x, objs) for x in cat.objects})
    for x in cat.objects:
        assert [dict(zip(objs, legs)) for legs in cones[x]] == cone_over(cat, x, objs, mors)
        for legs in cones[x]:
            assert _is_limiting(cat, x, legs, cones) == counts_one_mediator(
                cat, x, dict(zip(objs, legs)), objs, mors
            )
    assert limit_of_diagram(cat, objs, mors) == counting_limit_of_diagram(cat, objs, mors)


def counts_one_mediator_at(cat, apex, legs, cones):
    """Every cone of ``cones``, legs by position, factors through (apex,
    legs) by exactly one arrow."""
    return all(
        len([m for m in cat.hom(x, apex) if all(cat.table[(l, m)] == c for l, c in zip(legs, cone))])
        == 1
        for x, over in cones.items()
        for cone in over
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(valid_categories, preorders()), st.data())
def test_product_and_equalizer_tests_agree_with_mediator_counting(cat, data):
    # products of a pair (a, a) have two independent legs, so they are not
    # graph diagrams; equalizers have one leg
    shapes = [_product_cones(cat, a, b) for a, b in itertools.combinations_with_replacement(cat.objects, 2)]
    shapes += [
        _equalizing_cones(cat, f, g)
        for f in cat.morphisms
        for g in cat.morphisms
        if cat.dom[f] == cat.dom[g] and cat.cod[f] == cat.cod[g]
    ]
    for cones in data.draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=6)):
        for apex, over in cones.items():
            for legs in over:
                assert _is_limiting(cat, apex, legs, cones) == counts_one_mediator_at(
                    cat, apex, legs, cones
                )


def imaging_is_limiting(cat, apex, legs, cones):
    """``_is_limiting`` as it was: at each x in turn, the sizes and then the
    images of every hom."""
    table = cat.table
    for x, over in cones.items():
        hom = cat.hom(x, apex)
        if len(hom) != len(over):
            return False
        if len({tuple(table[(leg, m)] for leg in legs) for m in hom}) != len(hom):
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(small_graph_diagrams())
def test_size_first_limit_test_matches_the_imaging_one(diagram):
    # the size test compares every x before imaging; the search compares
    # each apex's column of hom sizes with the cone counts
    cat, objs, mors = diagram
    shapes = [_cones(cat, objs, mors, {x: _hom_product(cat, x, objs) for x in cat.objects})]
    pairs = itertools.combinations_with_replacement(objs, 2)
    shapes += [_product_cones(cat, a, b) for a, b in pairs]
    shapes += [
        _equalizing_cones(cat, f, g)
        for f in mors
        for g in mors
        if cat.dom[f] == cat.dom[g] and cat.cod[f] == cat.cod[g]
    ]
    sizes = _hom_sizes(cat)
    for cones in shapes:
        limiting = [
            (apex, legs)
            for apex, over in cones.items()
            for legs in over
            if imaging_is_limiting(cat, apex, legs, cones)
        ]
        for apex, over in cones.items():
            for legs in over:
                assert _is_limiting(cat, apex, legs, cones) == ((apex, legs) in limiting)
        assert _first_limit(cat, cones, sizes) == (limiting[0] if limiting else None)


# -- lex functors --------------------------------------------------------------


def test_identity_is_lex_on_lex_source():
    assert is_lex_functor(identity_functor(diamond()))


def test_meet_preserving_inclusion_is_lex():
    big = diamond()
    small = zoo.full_subcategory(big, ["bot", "l", "top"], name="wedge")
    inc = zoo.inclusion_functor(small, big)
    assert is_lex_functor(inc)


def test_top_collapsing_map_is_not_lex():
    # send everything to the bottom: the terminal object is not preserved
    big = diamond()
    const = build_functor(
        "crush",
        big,
        big,
        {x: "bot" for x in big.objects},
        {m: "le_bot_bot" for m in big.dom},
    )
    verdict = is_lex_functor(const)
    assert not verdict
    assert verdict.counterexample["reason"] == "terminal not preserved"


def test_lex_functor_requires_lex_source():
    d2 = zoo.discrete(["a", "b"])
    verdict = is_lex_functor(identity_functor(d2))
    assert not verdict
    assert verdict.counterexample["reason"] == "source not lex"


# -- colimit stability ------------------------------------------------------------


def test_lex_chain_colimit_verifies():
    report = verify_lex_bicolimit(bifiltered_bicolimit(corpus.lex_chain_semilattices()))
    assert report.ok, report.to_dict()
    assert report.sampled_diagrams > 0
    assert not report.limit_formula_failures


def test_lex_constant_colimit_verifies():
    report = verify_lex_bicolimit(bifiltered_bicolimit(corpus.lex_constant()))
    assert report.ok, report.to_dict()


def test_lex_colimit_equivalent_to_union_and_lexness_transfers():
    colim = bifiltered_bicolimit(corpus.lex_chain_semilattices())
    assert verify_lex_bicolimit(colim).ok
    # the colimit is the top of the chain, hence lex again
    assert check_equivalence(colim.result, diamond())
    assert finite_limit_witnesses(colim.result).ok


def test_lexness_is_equivalence_invariant_on_fixture_pairs():
    pairs = [
        (diamond(), diamond()),
        (zoo.walking_iso(), zoo.terminal()),
    ]
    for c, d in pairs:
        if check_equivalence(c, d):
            assert finite_limit_witnesses(c).ok == finite_limit_witnesses(d).ok


def test_nonlex_fiber_rejected():
    from bicolim.twocat import constant_pseudofunctor, terminal_twocat

    pf = constant_pseudofunctor(terminal_twocat(), zoo.discrete(["a", "b"]))
    with pytest.raises(ValueError):
        verify_lex_bicolimit(bifiltered_bicolimit(pf))


# -- the sampled diagrams one by one, the oracle -----------------------------------
#
# ``lexkit`` decides the stage-wise limit formula once per object set of the
# colimit.  The functions below are the path it replaced: every diagram with
# at most 3 objects and 4 non-identity arrows enumerated and closed under
# composition, repeats dropped, and each one lifted to a stage on its own.


def sample_diagrams(cat, max_objects=3, max_morphisms=4):
    """All graph diagrams with at most 3 objects and 4 non-identity arrows."""
    nonid = [m for m in cat.morphisms if not cat.is_identity(m)]
    for r in range(1, max_objects + 1):
        for objs in itertools.combinations(sorted(cat.objects), r):
            objset = set(objs)
            inner = [m for m in nonid if cat.dom[m] in objset and cat.cod[m] in objset]
            for k in range(0, min(max_morphisms, len(inner)) + 1):
                for mors in itertools.combinations(inner, k):
                    yield list(objs), list(mors)


def composition_closure(cat, objs, mors):
    """The morphisms generated by a graph diagram: identities and composites.

    A morphism leaving the work list is composed, on both sides, with every
    morphism kept so far that meets it, found in indexes of the kept
    morphisms by domain and by codomain.
    """
    keep = set(mors) | {cat.identity[o] for o in objs}
    out_of, into = {}, {}
    for m in keep:
        out_of.setdefault(cat.dom[m], []).append(m)
        into.setdefault(cat.cod[m], []).append(m)
    todo = list(mors)
    while todo:
        m = todo.pop()
        made = [cat.table[(n, m)] for n in out_of.get(cat.cod[m], ())]
        made += [cat.table[(m, n)] for n in into.get(cat.dom[m], ())]
        for gf in made:
            if gf not in keep:
                keep.add(gf)
                out_of.setdefault(cat.dom[gf], []).append(gf)
                into.setdefault(cat.cod[gf], []).append(gf)
                todo.append(gf)
    return keep


def generated_subcategory(cat, objs, keep):
    """The subcategory on the sorted ``objs`` with the composition-closed
    morphisms ``keep``, assembled without replaying the axioms."""
    return _assemble_composed(
        f"{cat.name}|gen",
        objs,
        [(m, cat.dom[m], cat.cod[m]) for m in sorted(keep)],
        {o: cat.identity[o] for o in objs},
        lambda g, f, x, z: cat.table[(g, f)],
    )


def raw_distinct_samples(cat):
    """The sampled diagrams, one per composition closure, as (key, generating
    arrows) pairs; the key is the objects and the sorted closure."""
    seen = set()
    for objs, mors in sample_diagrams(cat):
        key = (tuple(objs), tuple(sorted(composition_closure(cat, objs, mors))))
        if key not in seen:
            seen.add(key)
            yield key, mors


# -- restricted lifts and directly assembled samples, differential ---------------
#
# ``lift_one_cell`` tries, for each probe object, only the stage objects with
# an isomorphism into the functor's value; ``enumerating_lift_one_cell`` is
# the search over every functor as it was, the oracle.  Each sample's
# generated subcategory is assembled directly from its composition closure;
# ``validated_generated_subcategory`` is the builder as it was, validating
# through ``build_fincat``, the oracle.


def enumerating_lift_one_cell(probe, colim, fun):
    pf = colim.diagram
    for i in sorted(pf.source.cells0):
        q = colim.cocone[i]
        for b in enumerate_functors(probe, pf.on0[i]):
            beta = natural_iso_search(fun, compose_functors(q, b))
            if beta is not None:
                b.name = f"lift@{i}"
                return OneCellLift(i, b, beta)
    raise ValidationError(
        "lift", [f"no stage factorization for {fun.name!r}; the diagram data is inconsistent"]
    )


def validated_generated_subcategory(cat, objs, mors):
    keep = set(mors) | {cat.identity[o] for o in objs}
    changed = True
    while changed:
        changed = False
        for m in list(keep):
            for n in list(keep):
                if cat.dom[n] == cat.cod[m]:
                    nm = cat.table[(n, m)]
                    if nm not in keep:
                        keep.add(nm)
                        changed = True
    rows = sorted(keep)
    return build_fincat(
        f"{cat.name}|gen",
        objs,
        [(m, cat.dom[m], cat.cod[m]) for m in rows],
        {o: cat.identity[o] for o in objs},
        {(n, m): cat.table[(n, m)] for m in rows for n in rows if cat.dom[n] == cat.cod[m]},
    )


def lift_fields(lift):
    return (
        lift.stage,
        lift.functor.name,
        lift.functor.obj_map,
        lift.functor.mor_map,
        lift.comparison.source.key(),
        lift.comparison.target.key(),
        lift.comparison.components,
    )


def assert_lift_matches_oracle(probe, colim, fun):
    assert lift_fields(lift_one_cell(probe, colim, fun)) == lift_fields(
        enumerating_lift_one_cell(probe, colim, fun)
    )


def assert_same_fincat(got, want):
    assert got.name == want.name
    for name in ("objects", "dom", "cod", "identity", "table"):
        got_field, want_field = getattr(got, name), getattr(want, name)
        if isinstance(got_field, dict):
            got_field, want_field = list(got_field.items()), list(want_field.items())
        assert got_field == want_field, name
    assert fincat_violations(got) == []


def distinct_samples(cat):
    """Keys, generators and generated subcategories of the sampled diagrams,
    as verify dedups them."""
    seen = set()
    for objs, mors in sample_diagrams(cat):
        closure = composition_closure(cat, objs, mors)
        key = (tuple(objs), tuple(sorted(closure)))
        if key not in seen:
            seen.add(key)
            yield key, objs, mors, generated_subcategory(cat, objs, closure)


def inclusion(probe, cat):
    return build_functor(
        "include", probe, cat, {o: o for o in probe.objects}, {m: m for m in probe.dom}
    )


@pytest.mark.parametrize("name", sorted(corpus.LEX_DIAGRAM_BUILDERS))
def test_restricted_lift_matches_enumerating_oracle_on_lex_samples(name):
    pf = corpus.LEX_DIAGRAM_BUILDERS[name]()
    colim = bifiltered_bicolimit(pf)
    keys = []
    for key, objs, mors, probe in distinct_samples(colim.result):
        assert_same_fincat(probe, validated_generated_subcategory(colim.result, objs, mors))
        assert_lift_matches_oracle(probe, colim, inclusion(probe, colim.result))
        keys.append(key)
    assert keys == [key for key, _ in raw_distinct_samples(colim.result)]
    assert len({key[0] for key in keys}) == verify_lex_bicolimit(colim).sampled_diagrams
    # the whole colimit
    assert_lift_matches_oracle(colim.result, colim, identity_functor(colim.result))


@st.composite
def constant_diagrams(draw):
    """Constant diagrams over posets with a top, on fibers whose homs can mix
    isomorphisms with other morphisms."""
    pf = draw(constant_diagrams_over_posets_with_top())
    fiber = draw(st.one_of(st.just(pf.on0[pf.source.cells0[0]]), transformation_monoids(), preorders()))
    return constant_pseudofunctor(pf.source, fiber)


@settings(max_examples=25, deadline=None)
@given(constant_diagrams(), st.data())
def test_restricted_lift_matches_enumerating_oracle_on_constant_diagrams(pf, data):
    colim = bifiltered_bicolimit(pf)
    samples = list(itertools.islice(distinct_samples(colim.result), 200))
    for _, _, _, probe in data.draw(st.lists(st.sampled_from(samples), max_size=8)):
        assert_lift_matches_oracle(probe, colim, inclusion(probe, colim.result))
    # functors that are not inclusions, so comparisons need not be identities
    for probe in (zoo.terminal(), zoo.walking_arrow()):
        for fun in itertools.islice(enumerate_functors(probe, colim.result), 40):
            assert_lift_matches_oracle(probe, colim, fun)


# -- one decision per object set, differential --------------------------------------
#
# ``_object_set_verdicts`` lifts each object set of the colimit to the
# covering stage by its objects' preimages and decides the discrete diagram
# on it, which in a thin category has the cones, and so the limits, of every
# diagram on the set.  The oracle is the per-sample path: a lift of each
# sample's generated subcategory on its own, then limits decided by counting
# mediators over its composition closure.  An object set fails in the one
# exactly when some sample on it fails in the other.


def sample_lifts(colim, samples):
    """The per-sample lifts: each sample's generated subcategory on its own."""
    return [lift_one_cell(probe, colim, inclusion(probe, colim.result)) for _, _, _, probe in samples]


def per_sample_verdicts(colim, samples, lifts):
    """(key, stage, reason) of each sample, decided on the given lifts by
    counting mediators over the sample's composition closure."""
    res = colim.result
    out = []
    for (key, _, _, probe), lift in zip(samples, lifts):
        image_objs = [lift.functor.obj_map[o] for o in probe.objects]
        image_mors = [lift.functor.mor_map[m] for m in probe.dom]
        stage_limit = counting_limit_of_diagram(colim.diagram.on0[lift.stage], image_objs, image_mors)
        if stage_limit is None:
            out.append((key, lift.stage, "no stage limit"))
            continue
        apex, legs = stage_limit
        q = colim.cocone[lift.stage]
        pushed = {
            o: res.table[
                (res.must_inverse(lift.comparison.components[o]), q.mor_map[legs[lift.functor.obj_map[o]]])
            ]
            for o in probe.objects
        }
        limiting = counting_is_limit_cone(res, q.obj_map[apex], pushed, list(probe.objects), list(probe.dom))
        out.append((key, lift.stage, None if limiting else "pushed cone not limiting"))
    return out


def oracle_failures(colim, samples):
    """Each object set with a failing sample, mapped to the reasons its
    failing samples give."""
    failing = {}
    for key, _, reason in per_sample_verdicts(colim, samples, sample_lifts(colim, samples)):
        if reason is not None:
            failing.setdefault(key[0], set()).add(reason)
    return failing


def decided_failures(verdicts):
    return {objs: {reason} for objs, _, reason in verdicts if reason is not None}


def is_thin(cat):
    return all(len(cat.hom(x, y)) <= 1 for x in cat.objects for y in cat.objects)


def fiber_of(pf):
    """The fiber of a constant diagram."""
    return pf.on0[pf.source.cells0[0]]


@pytest.mark.parametrize("name", sorted(corpus.LEX_DIAGRAM_BUILDERS))
def test_object_set_lifts_match_per_sample_path_on_lex_samples(name):
    colim = bifiltered_bicolimit(corpus.LEX_DIAGRAM_BUILDERS[name]())
    samples = list(distinct_samples(colim.result))
    verdicts = _object_set_verdicts(colim)
    assert [objs for objs, _, _ in verdicts] == list(dict.fromkeys(key[0] for key, _, _, _ in samples))
    assert decided_failures(verdicts) == oracle_failures(colim, samples) == {}


@settings(max_examples=25, deadline=None)
@given(constant_diagrams().filter(lambda pf: is_thin(fiber_of(pf))))
def test_object_set_lifts_match_per_sample_path_on_constant_diagrams(pf):
    colim = bifiltered_bicolimit(pf)
    samples = list(itertools.islice(distinct_samples(colim.result), 120))
    sets = {key[0] for key, _, _, _ in samples}
    verdicts = [v for v in _object_set_verdicts(colim) if v[0] in sets]
    assert len(verdicts) == len(sets)
    assert decided_failures(verdicts) == oracle_failures(colim, samples)


def monotone(name, source, target, obj_map):
    """The functor between preorders with the given object map."""
    return build_functor(
        name,
        source,
        target,
        obj_map,
        {m: target.hom(obj_map[source.dom[m]], obj_map[source.cod[m]])[0] for m in source.dom},
    )


def test_object_set_lifts_and_per_sample_path_both_flag_a_leg_that_breaks_a_meet():
    # stage 0 is a pentagon, where l ∧ r = bot; stage 1 has l ∧ r = m above
    # b.  The transition, bot ↦ m, is lex, and the colimit is stage 1.  The
    # planted leg out of stage 0 sends bot to b instead: it reaches every
    # object, so stage 0 covers, and it breaks the meet of l and r.
    pentagon = zoo.poset("X", [("bot", "m"), ("m", "l"), ("l", "top"), ("bot", "r"), ("r", "top")])
    above = zoo.poset("R", [("b", "m"), ("m", "l"), ("m", "r"), ("l", "t"), ("r", "t")])
    tc = locally_discrete(zoo.chain(2), name="chain2")
    on1 = {
        "le_0_0": identity_functor(pentagon),
        "le_1_1": identity_functor(above),
        "le_0_1": monotone("lex", pentagon, above, {"bot": "m", "m": "m", "l": "l", "r": "r", "top": "t"}),
    }
    on2 = {tc.id2(f): fincat.identity_nattrans(on1[f]) for f in tc.one_home}
    colim = bifiltered_bicolimit(build_pseudofunctor("X->R", tc, {"0": pentagon, "1": above}, on1, on2))
    assert verify_lex_bicolimit(colim).ok
    breaks = monotone("breaks", pentagon, above, {"bot": "b", "m": "m", "l": "l", "r": "r", "top": "t"})
    planted = dataclasses.replace(
        colim, cocone={**colim.cocone, "0": compose_functors(colim.cocone["1"], breaks)}
    )
    report = verify_lex_bicolimit(planted)
    assert not report.ok and not report.legs_lex["0"]
    decided = decided_failures(_object_set_verdicts(planted))
    oracle = oracle_failures(planted, list(distinct_samples(planted.result)))
    assert decided == oracle
    l_and_r = tuple(sorted(colim.cocone["1"].obj_map[o] for o in ("l", "r")))
    assert decided[l_and_r] == {"pushed cone not limiting"}
    assert report.limit_formula_failures == [
        {"objects": list(objs), "stage": "0", "reason": "pushed cone not limiting"} for objs in decided
    ]


def test_lex_samples_need_one_decision_per_object_set():
    """One decision per set of 1–3 objects of the colimit, all at the
    covering stage: 63 in lex_chain at stage '1', and 129 in lex_const at
    stage 'a', where the 1,364 samples were decided before."""
    got = {}
    for name in sorted(corpus.LEX_DIAGRAM_BUILDERS):
        colim = bifiltered_bicolimit(corpus.LEX_DIAGRAM_BUILDERS[name]())
        verdicts = _object_set_verdicts(colim)
        assert len({objs for objs, _, _ in verdicts}) == len(verdicts)
        got[name] = (len(verdicts), {stage for _, stage, _ in verdicts})
    assert got == {"lex_chain": (63, {"1"}), "lex_const": (129, {"a"})}


@settings(max_examples=200, deadline=None)
@given(st.one_of(preorders(), valid_categories))
@example(diamond())
@example(zoo.walking_iso())
def test_finite_lex_categories_are_thin(cat):
    # |hom(x, a)| ≥ 2 would give |hom(x, aⁿ)| ≥ 2ⁿ for every n
    if finite_limit_witnesses(cat).ok:
        assert is_thin(cat)


def test_a_colimit_that_is_not_thin_is_refused():
    colim = bifiltered_bicolimit(corpus.lex_constant())
    planted = dataclasses.replace(colim, result=transformation_monoid([(1, 0)], 2))
    with pytest.raises(ValidationError, match=r"colimit not thin: hom\(\*, \*\) has 2 arrows"):
        verify_lex_bicolimit(planted)


def test_a_colimit_that_no_stage_covers_is_refused():
    # the diamond's leg sends r to l's image, so no leg reaches r
    colim = bifiltered_bicolimit(corpus.lex_chain_semilattices())
    leg = colim.cocone["1"]
    big = leg.source
    squash = monotone("squash", big, big, {"bot": "bot", "l": "l", "r": "l", "top": "top"})
    planted = dataclasses.replace(colim, cocone={**colim.cocone, "1": compose_functors(leg, squash)})
    with pytest.raises(ValidationError, match="no stage reaches every object of the colimit"):
        verify_lex_bicolimit(planted)


@pytest.mark.parametrize("name", sorted(corpus.LEX_DIAGRAM_BUILDERS))
def test_lex_verification_finds_witnesses_once_per_fiber(monkeypatch, name):
    """One witness search per fiber and one on the colimit; the legs into
    and out of a fiber reuse its report."""
    seen = []

    def counting(cat):
        seen.append(cat)
        return find(cat)

    find = lexkit.finite_limit_witnesses
    monkeypatch.setattr(lexkit, "finite_limit_witnesses", counting)
    pf = corpus.LEX_DIAGRAM_BUILDERS[name]()
    colim = bifiltered_bicolimit(pf)
    assert verify_lex_bicolimit(colim).ok
    want = [pf.on0[i] for i in sorted(pf.source.cells0)] + [colim.result]
    assert [id(cat) for cat in seen] == [id(cat) for cat in want]


@settings(max_examples=40, deadline=None)
@given(st.one_of(posets(), preorders(), transformation_monoids()), st.data())
def test_direct_generated_subcategory_matches_validating_builder(cat, data):
    objs = sorted(data.draw(st.sets(st.sampled_from(cat.objects), min_size=1, max_size=3)))
    inner = [m for m in cat.morphisms if cat.dom[m] in objs and cat.cod[m] in objs]
    mors = data.draw(st.lists(st.sampled_from(inner), max_size=4, unique=True)) if inner else []
    closure = composition_closure(cat, objs, mors)
    assert_same_fincat(
        generated_subcategory(cat, objs, closure),
        validated_generated_subcategory(cat, objs, mors),
    )


def scanning_composition_closure(cat, objs, mors):
    """``composition_closure`` without its indexes: a morphism leaving the work list
    is tried, on both sides, against every morphism kept so far."""
    keep = set(mors) | {cat.identity[o] for o in objs}
    todo = list(mors)
    while todo:
        m = todo.pop()
        for n in list(keep):
            for g, f in ((n, m), (m, n)):
                if cat.dom[g] == cat.cod[f]:
                    gf = cat.table[(g, f)]
                    if gf not in keep:
                        keep.add(gf)
                        todo.append(gf)
    return keep


@settings(max_examples=60, deadline=None)
@given(st.one_of(posets(), preorders(), transformation_monoids()), st.data())
def test_indexed_composition_closure_matches_scan(cat, data):
    objs = sorted(data.draw(st.sets(st.sampled_from(cat.objects), min_size=1, max_size=3)))
    inner = [m for m in cat.morphisms if cat.dom[m] in objs and cat.cod[m] in objs]
    mors = data.draw(st.lists(st.sampled_from(inner), max_size=4)) if inner else []
    assert composition_closure(cat, objs, mors) == scanning_composition_closure(cat, objs, mors)


@pytest.mark.parametrize("name", sorted(corpus.LEX_DIAGRAM_BUILDERS))
def test_distinct_samples_match_scanning_closure_on_lex_colimits(name):
    cat = bifiltered_bicolimit(corpus.LEX_DIAGRAM_BUILDERS[name]()).result
    want, seen = [], set()
    for objs, mors in sample_diagrams(cat):
        key = (tuple(objs), tuple(sorted(scanning_composition_closure(cat, objs, mors))))
        if key not in seen:
            seen.add(key)
            want.append((key, mors))
    assert list(raw_distinct_samples(cat)) == want


def refuse_replay(*args):
    raise AssertionError("axioms replayed on a generated subcategory")


@pytest.mark.parametrize("name", sorted(corpus.LEX_DIAGRAM_BUILDERS))
def test_lex_verification_skips_axiom_replay(monkeypatch, name):
    # the colimit is built, and validated, before the checks are refused
    colim = bifiltered_bicolimit(corpus.LEX_DIAGRAM_BUILDERS[name]())
    want = verify_lex_bicolimit(colim)
    checks = (fincat.fincat_violations, fincat.functor_violations)
    patched = 0
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "bicolim" and not module_name.startswith("bicolim."):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is check for check in checks):
                monkeypatch.setattr(module, attr, refuse_replay)
                patched += 1
    assert patched >= 2
    got = verify_lex_bicolimit(colim)
    assert got.to_dict() == want.to_dict()
    assert got.ok
