from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from test_associativity import posets, preorders, transformation_monoids
from test_indexes import constant_diagrams_over_posets_with_top

from bicolim import corpus, fincat, lexkit, zoo
from bicolim.colim import bifiltered_bicolimit
from bicolim.compact import OneCellLift, lift_one_cell
from bicolim.fincat import (
    ValidationError,
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
    _composition_closure,
    _generated_subcategory,
    _sample_diagrams,
    cone_over,
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
    report = verify_lex_bicolimit(corpus.lex_chain_semilattices())
    assert report.ok, report.to_dict()
    assert report.sampled_diagrams > 0
    assert not report.limit_formula_failures


def test_lex_constant_colimit_verifies():
    report = verify_lex_bicolimit(corpus.lex_constant())
    assert report.ok, report.to_dict()


def test_lex_colimit_equivalent_to_union_and_lexness_transfers():
    pf = corpus.lex_chain_semilattices()
    report = verify_lex_bicolimit(pf)
    # the colimit is the top of the chain, hence lex again
    assert check_equivalence(report.colimit.result, diamond())
    assert finite_limit_witnesses(report.colimit.result).ok


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
        verify_lex_bicolimit(pf)


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
    return build_fincat(
        f"{cat.name}|gen",
        objs,
        [(m, cat.dom[m], cat.cod[m]) for m in sorted(keep)],
        {o: cat.identity[o] for o in objs},
        {
            (n, m): cat.table[(n, m)]
            for n in keep
            for m in keep
            if cat.dom[n] == cat.cod[m]
        },
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
    """Generated subcategories of the sampled diagrams, as verify dedups them."""
    seen = set()
    for objs, mors in _sample_diagrams(cat):
        closure = _composition_closure(cat, objs, mors)
        key = (tuple(objs), tuple(sorted(closure)))
        if key not in seen:
            seen.add(key)
            yield objs, mors, _generated_subcategory(cat, objs, closure)


def inclusion(probe, cat):
    return build_functor(
        "include", probe, cat, {o: o for o in probe.objects}, {m: m for m in probe.dom}
    )


@pytest.mark.parametrize("name", sorted(corpus.LEX_DIAGRAM_BUILDERS))
def test_restricted_lift_matches_enumerating_oracle_on_lex_samples(name):
    pf = corpus.LEX_DIAGRAM_BUILDERS[name]()
    colim = bifiltered_bicolimit(pf)
    count = 0
    for objs, mors, probe in distinct_samples(colim.result):
        assert_same_fincat(probe, validated_generated_subcategory(colim.result, objs, mors))
        assert_lift_matches_oracle(probe, colim, inclusion(probe, colim.result))
        count += 1
    assert count == verify_lex_bicolimit(pf).sampled_diagrams


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
    for objs, mors, probe in data.draw(st.lists(st.sampled_from(samples), max_size=8)):
        assert_lift_matches_oracle(probe, colim, inclusion(probe, colim.result))
    # functors that are not inclusions, so comparisons need not be identities
    for probe in (zoo.terminal(), zoo.walking_arrow()):
        for fun in itertools.islice(enumerate_functors(probe, colim.result), 40):
            assert_lift_matches_oracle(probe, colim, fun)


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


def refuse_replay(*args):
    raise AssertionError("axioms replayed on a generated subcategory")


@pytest.mark.parametrize("name", sorted(corpus.LEX_DIAGRAM_BUILDERS))
def test_lex_verification_skips_axiom_replay(monkeypatch, name):
    pf = corpus.LEX_DIAGRAM_BUILDERS[name]()
    want = verify_lex_bicolimit(pf)
    # the colimit is built, and validated, before the checks are refused
    monkeypatch.setattr(lexkit, "bifiltered_bicolimit", lambda diagram: want.colimit)
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
    got = verify_lex_bicolimit(pf)
    assert got.to_dict() == want.to_dict()
    assert got.ok
