from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from test_associativity import (
    FUNCTOR_CATEGORIES,
    posets,
    preorders,
    transformation_monoids,
    valid_categories,
)
from test_indexes import constant_diagrams_over_posets_with_top

from bicolim import corpus, fincat, lexkit, zoo
from bicolim.colim import bifiltered_bicolimit
from bicolim.compact import OneCellLift, lift_one_cell
from bicolim.fincat import (
    Functor,
    NatTrans,
    ValidationError,
    build_fincat,
    build_functor,
    check_equivalence,
    compose_functors,
    enumerate_functors,
    fincat_violations,
    functor_violations,
    identity_functor,
    nattrans_violations,
    natural_iso_search,
)
from bicolim.lexkit import (
    _binding_targets,
    _composition_closure,
    _cones,
    _distinct_samples,
    _equalizing_cones,
    _generated_subcategory,
    _hom_product,
    _is_limiting,
    _lift_objects,
    _product_cones,
    _sample_diagrams,
    _sample_verdicts,
    finite_limit_witnesses,
    is_lex_functor,
    limit_of_diagram,
    verify_lex_bicolimit,
)
from bicolim.twocat import constant_pseudofunctor


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
    for objs, mors in _sample_diagrams(cat):
        closure = _composition_closure(cat, objs, mors)
        key = (tuple(objs), tuple(sorted(closure)))
        if key not in seen:
            seen.add(key)
            yield key, objs, mors, _generated_subcategory(cat, objs, closure)


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
    assert keys == [key for key, _ in _distinct_samples(colim.result)]
    assert len(keys) == verify_lex_bicolimit(colim).sampled_diagrams


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


# -- one lift per object set, differential ---------------------------------------
#
# ``_sample_verdicts`` lifts the full subcategory on each sampled object set
# once, restricts that lift to each sample on the set, and decides cones over
# the sample's generators by comparing hom(x, apex) with the cones at x.  The
# oracle is the per-sample path: a lift of each sample's generated
# subcategory, then limits decided by counting mediators over its
# composition closure.
#
# The stage diagram is the image graph of the lift, so a lift that sends two
# sample objects to one stage object decides a diagram whose cones have one
# leg there.  In a thin category that changes no verdict, and every finite
# lex category is thin: |hom(x, aⁿ)| = |hom(x, a)|ⁿ takes finitely many
# values only if it is at most 1.  On the non-thin fibers the hypothesis
# strategy draws, two valid lifts can collapse objects differently; there
# the oracle decides each sample on the restriction of the object set's lift.


def restricted_lifts(colim, samples):
    """Each sample's restriction of its object set's lift, checked to be a
    functor on the sample with a natural invertible comparison."""
    res = colim.result
    by_objects = {}
    out = []
    for key, objs, _, probe in samples:
        if key[0] not in by_objects:
            by_objects[key[0]] = _lift_objects(colim, objs)
        lift = by_objects[key[0]]
        restricted = Functor(
            "restricted",
            probe,
            lift.functor.target,
            {o: lift.functor.obj_map[o] for o in probe.objects},
            {m: lift.functor.mor_map[m] for m in probe.dom},
        )
        assert functor_violations(restricted) == []
        comparison = NatTrans(
            "compare",
            inclusion(probe, res),
            compose_functors(colim.cocone[lift.stage], restricted),
            dict(lift.comparison.components),
        )
        assert nattrans_violations(comparison) == []
        assert comparison.is_invertible()
        out.append(OneCellLift(lift.stage, restricted, comparison))
    return out


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


def test_each_object_set_is_lifted_once(monkeypatch):
    """``_sample_verdicts`` groups consecutive samples by object set, so it
    lifts each set once only while ``_sample_diagrams`` keeps a set's
    samples together: 63 sets in lex_chain and 129 in lex_const."""
    lifted = []

    def counting(colim, objs):
        lifted.append(tuple(objs))
        return _lift_objects(colim, objs)

    monkeypatch.setattr(lexkit, "_lift_objects", counting)
    total = 0
    for name in sorted(corpus.LEX_DIAGRAM_BUILDERS):
        colim = bifiltered_bicolimit(corpus.LEX_DIAGRAM_BUILDERS[name]())
        object_sets = {key[0] for key, _ in _distinct_samples(colim.result)}
        lifted.clear()
        list(_sample_verdicts(colim))
        assert sorted(lifted) == sorted(object_sets)
        total += len(lifted)
    assert total == 192


def sample_lifts(colim, samples):
    """Today's per-sample lifts: each sample's generated subcategory on its own."""
    return [lift_one_cell(probe, colim, inclusion(probe, colim.result)) for _, _, _, probe in samples]


def without_stage(verdicts):
    return [(key, reason) for key, _, reason in verdicts]


@pytest.mark.parametrize("name", sorted(corpus.LEX_DIAGRAM_BUILDERS))
def test_object_set_lifts_match_per_sample_path_on_lex_samples(name):
    colim = bifiltered_bicolimit(corpus.LEX_DIAGRAM_BUILDERS[name]())
    samples = list(distinct_samples(colim.result))
    got = list(_sample_verdicts(colim))
    assert got == per_sample_verdicts(colim, samples, restricted_lifts(colim, samples))
    assert without_stage(got) == without_stage(
        per_sample_verdicts(colim, samples, sample_lifts(colim, samples))
    )
    assert len(got) == len(samples)
    assert all(reason is None for _, _, reason in got)


def is_thin(cat):
    return all(len(cat.hom(x, y)) <= 1 for x in cat.objects for y in cat.objects)


@settings(max_examples=25, deadline=None)
@given(constant_diagrams())
def test_object_set_lifts_match_per_sample_path_on_constant_diagrams(pf):
    colim = bifiltered_bicolimit(pf)
    samples = list(itertools.islice(distinct_samples(colim.result), 120))
    got = list(itertools.islice(_sample_verdicts(colim), len(samples)))
    assert got == per_sample_verdicts(colim, samples, restricted_lifts(colim, samples))
    if is_thin(colim.result):
        assert without_stage(got) == without_stage(
            per_sample_verdicts(colim, samples, sample_lifts(colim, samples))
        )


# -- arrows that cannot bind a cone ---------------------------------------------
#
# ``_sample_verdicts`` drops every arrow into an object with at most one
# arrow from each object.  The bundled lex colimits are thin, so there it
# drops every arrow; the categories below are not thin, and a terminal
# object is adjoined so that some arrows can be dropped and others not.


def with_terminal(cat):
    """``cat`` with a terminal object ``top`` adjoined."""
    bang = {x: f"!{x}" for x in (*cat.objects, "top")}
    rows = [(m, cat.dom[m], cat.cod[m]) for m in cat.morphisms]
    rows += [(b, x, "top") for x, b in bang.items()]
    table = dict(cat.table)
    for m in cat.morphisms:
        table[(bang[cat.cod[m]], m)] = bang[cat.dom[m]]
    for b in bang.values():
        table[(bang["top"], b)] = b
    return build_fincat(
        f"{cat.name}+top", [*cat.objects, "top"], rows, {**cat.identity, "top": bang["top"]}, table
    )


@st.composite
def diagrams_in_non_thin_categories(draw):
    base = draw(st.one_of(transformation_monoids(), st.sampled_from(FUNCTOR_CATEGORIES), posets()))
    cat = with_terminal(base)
    assume(not is_thin(cat))
    objs = draw(st.sets(st.sampled_from(base.objects), max_size=2))
    objs = sorted(objs | ({"top"} if draw(st.booleans()) else set()))
    inner = [m for m in cat.morphisms if cat.dom[m] in objs and cat.cod[m] in objs]
    mors = draw(st.lists(st.sampled_from(inner), max_size=4, unique=True)) if inner else []
    return cat, objs, mors


@settings(max_examples=150, deadline=None)
@given(diagrams_in_non_thin_categories())
def test_arrows_that_cannot_bind_change_no_cone_and_no_limit(diagram):
    cat, objs, mors = diagram
    targets = _binding_targets(cat)
    assert targets == {
        t for t in cat.objects if any(len(cat.hom(x, t)) > 1 for x in cat.objects)
    }
    assert "top" not in targets
    binding = [m for m in mors if cat.cod[m] in targets]
    families = {x: _hom_product(cat, x, objs) for x in cat.objects}
    cones = _cones(cat, objs, binding, families)
    assert cones == _cones(cat, objs, mors, families)
    for x in cat.objects:
        assert [dict(zip(objs, legs)) for legs in cones[x]] == cone_over(cat, x, objs, mors)
    assert limit_of_diagram(cat, objs, binding) == limit_of_diagram(cat, objs, mors)


def test_lex_samples_need_one_decision_per_object_set(monkeypatch):
    """On the bundled lex colimits, which are thin, no arrow binds a cone,
    so the 1,364 samples are decided once per object set: 192 decisions."""
    decided = []

    def counting(*args):
        decided.append(args[3])
        return decide(*args)

    decide = lexkit._pushed_limit_failure
    monkeypatch.setattr(lexkit, "_pushed_limit_failure", counting)
    samples = 0
    for name in sorted(corpus.LEX_DIAGRAM_BUILDERS):
        colim = bifiltered_bicolimit(corpus.LEX_DIAGRAM_BUILDERS[name]())
        assert is_thin(colim.result)
        samples += len(list(_sample_verdicts(colim)))
    assert (samples, len(decided)) == (1364, 192)
    assert len({tuple(objs) for objs in decided}) == 192


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
    closure = _composition_closure(cat, objs, mors)
    assert_same_fincat(
        _generated_subcategory(cat, objs, closure),
        validated_generated_subcategory(cat, objs, mors),
    )


def scanning_composition_closure(cat, objs, mors):
    """``_composition_closure`` as it was: a morphism leaving the work list
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
    assert _composition_closure(cat, objs, mors) == scanning_composition_closure(cat, objs, mors)


@pytest.mark.parametrize("name", sorted(corpus.LEX_DIAGRAM_BUILDERS))
def test_distinct_samples_match_scanning_closure_on_lex_colimits(name):
    cat = bifiltered_bicolimit(corpus.LEX_DIAGRAM_BUILDERS[name]()).result
    want, seen = [], set()
    for objs, mors in _sample_diagrams(cat):
        key = (tuple(objs), tuple(sorted(scanning_composition_closure(cat, objs, mors))))
        if key not in seen:
            seen.add(key)
            want.append((key, mors))
    assert list(_distinct_samples(cat)) == want


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
