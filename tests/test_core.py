"""The cofinal core: bicompactness decided on colim(F∘J) for the inclusion J
of the smallest full sub-2-category whose inclusion is σ-cofinal.

The cofinality theorem gives colim(F∘J) ≃ colim F, so the verify suite
decides bicompact and bicompact-closure on the core colimit.  The tests
below keep the full colimit as the oracle: outcomes and the equivalence of
the two colimits must agree on every corpus pair and on generated diagrams
whose index has no 0-cell with a trivial endo-hom.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from support import BUNDLED

from bicolim import verify, zoo
from bicolim.bilim import biproduct
from bicolim.compact import check_bicompact_against
from bicolim.filtered import check_bifiltered, check_sigma_cofinal, cofinal_core
from bicolim.fincat import (
    SizeGuardError,
    build_fincat,
    build_functor,
    check_equivalence,
    identity_nattrans,
)
from bicolim.fixtures import DiagramFixture, TwoCatFixture
from bicolim.twocat import (
    all_one_cells,
    build_pseudofunctor,
    full_sub_on_zero_cells,
    inclusion_twofunctor,
    locally_discrete,
)
from bicolim.verify import NAMED_DIAGRAMS, Suite


def loaded_suite() -> Suite:
    suite = Suite(BUNDLED)
    suite.load_all()
    return suite


def bifiltered_diagrams(suite: Suite) -> dict[str, DiagramFixture]:
    return {
        name: fx
        for name, fx in sorted(suite.fixtures.items())
        if isinstance(fx, DiagramFixture) and check_bifiltered(fx.index.twocat)
    }


def assert_core_agrees(suite: Suite, pf, probes) -> None:
    """The core colimit is equivalent to colim F, and every probe gets the
    same bicompact outcome against both."""
    full, core = suite._colimit(pf), suite._core_colimit(pf)
    assert check_equivalence(full.result, core.result), pf.name
    for probe in probes:
        want = check_bicompact_against(probe, full).outcome
        assert check_bicompact_against(probe, core).outcome == want, (probe.name, pf.name)


# -- the search -----------------------------------------------------------------


def accepted(tc, objs) -> bool:
    sub = full_sub_on_zero_cells(tc, objs)
    inclusion = inclusion_twofunctor(sub, tc)
    return bool(check_sigma_cofinal(inclusion, all_one_cells(sub), all_one_cells(tc)))


def test_core_is_the_first_accepted_singleton_in_sorted_order():
    suite = loaded_suite()
    indexes = {fx.index.twocat for fx in bifiltered_diagrams(suite).values()}
    for tc in indexes:
        core = cofinal_core(tc)
        # every bundled bifiltered index has a single-0-cell core
        assert len(core.cells0) == 1
        (j,) = core.cells0
        assert accepted(tc, (j,))
        assert not any(accepted(tc, (i,)) for i in sorted(tc.cells0) if i < j), tc.name


def test_a_skipped_zero_cell_would_have_been_refused():
    # the search skips a j that some 0-cell has no 1-cell into; the
    # target-arrow condition refuses each of them anyway
    suite = loaded_suite()
    skipped = 0
    for fx in suite.fixtures.values():
        if not isinstance(fx, TwoCatFixture):
            continue
        tc = fx.twocat
        for j in tc.cells0:
            if not all(j in tc.out_of[i] for i in tc.cells0):
                skipped += 1
                assert not accepted(tc, (j,)), (tc.name, j)
    assert skipped > 0


def test_an_index_with_no_single_zero_cell_core_is_its_own_core():
    tc = locally_discrete(zoo.discrete(["a", "b"], name="two"))
    assert cofinal_core(tc) is tc
    # every 0-cell has a 1-cell into the codomain of a parallel pair, but no
    # 1-cell out of it inserts a 2-cell between the pair: the search must
    # refuse it rather than take the first 0-cell that has the 1-cells
    tc = locally_discrete(zoo.parallel_pair())
    assert any(all(j in tc.out_of[i] for i in tc.cells0) for j in tc.cells0)
    assert cofinal_core(tc) is tc


# -- the corpus -----------------------------------------------------------------


def test_core_and_full_agree_on_every_corpus_pair():
    suite = loaded_suite()
    diagrams = bifiltered_diagrams(suite)
    probes = [
        fx.category for name, fx in sorted(suite.fixtures.items()) if name.endswith(".fincat.json")
    ]
    pairs = 0
    for name, fx in diagrams.items():
        assert_core_agrees(suite, fx.functor, probes)
        pairs += len(probes)
    for (name,) in NAMED_DIAGRAMS["bicompact-closure"]:
        assert_core_agrees(suite, diagrams[name].functor, suite._derived_probes)
        pairs += len(suite._derived_probes)
    assert pairs == 30  # the bicompact and bicompact-closure instances of verify


def test_core_colimit_is_smaller_than_the_full_one_on_the_corpus():
    suite = loaded_suite()
    for name, fx in bifiltered_diagrams(suite).items():
        full, core = suite._colimit(fx.functor), suite._core_colimit(fx.functor)
        if len(fx.index.twocat.cells0) == 1:
            assert core is full  # the index is its own core
        else:
            assert len(core.index.cells0) == 1
            assert len(core.result.morphisms) < len(full.result.morphisms), name


def test_reducing_along_a_set_that_is_not_cofinal_fails_the_agreement_check(monkeypatch):
    # a planted fault: the least 0-cell instead of the core; on chain_incl
    # the fiber over 0 is a point, while the colimit is a three-object chain
    monkeypatch.setattr(
        verify, "cofinal_core", lambda tc: full_sub_on_zero_cells(tc, [min(tc.cells0)])
    )
    suite = loaded_suite()
    pf = suite.fixtures["chain_incl.diagram.json"].functor
    with pytest.raises(AssertionError):
        assert_core_agrees(suite, pf, [])


# -- generated diagrams with no trivial endo-hom ---------------------------------


def idempotent_monoid():
    """One object with an idempotent e besides the identity."""
    return build_fincat(
        "idem", ["*"], [("1", "*", "*"), ("e", "*", "*")], {"*": "1"},
        {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"},
    )


@st.composite
def diagrams_over_posets_times_an_idempotent(draw):
    """F over P × {1, e}, P a poset with a top, so every 0-cell has the
    endo-hom {1, e}.  F(p) is the chain on the first |↓p| + 1 objects; a 1-cell
    (p ≤ q, 1) is the inclusion, and (p ≤ q, e) the inclusion after the
    idempotent ``collapse`` of F(p), which is the identity or constant at 0."""
    names = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    top = names[-1]
    relation = [pair for pair in itertools.combinations(names, 2) if draw(st.booleans())]
    relation += [(x, top) for x in names[:-1]] + [(x, x) for x in names]
    poset = zoo.poset("P", relation)
    collapse = draw(st.booleans())
    prod = biproduct(poset, idempotent_monoid())
    tc = locally_discrete(prod.category, name="PxM")
    chain = zoo.chain(len(names) + 1)
    below = {p: sum(1 for q in poset.objects if poset.hom(q, p)) for p in poset.objects}
    fiber = {
        p: zoo.full_subcategory(chain, [str(k) for k in range(below[p] + 1)], name=f"F{p}")
        for p in poset.objects
    }
    on0 = {i: fiber[prod.proj1.obj_map[i]] for i in tc.cells0}
    on1 = {}
    for f in tc.one_home:
        i, j = tc.one_home[f]
        src, tgt = on0[i], on0[j]
        if collapse and prod.proj2.mor_map[f] == "e":
            on1[f] = build_functor(f, src, tgt, {x: "0" for x in src.objects},
                                   {m: tgt.identity["0"] for m in src.dom})
        else:
            on1[f] = build_functor(f, src, tgt, {x: x for x in src.objects}, {m: m for m in src.dom})
    on2 = {tc.id2(f): identity_nattrans(on1[f]) for f in tc.one_home}
    return build_pseudofunctor("F", tc, on0, on1, on2)


@settings(max_examples=20, deadline=None)
@given(diagrams_over_posets_times_an_idempotent())
def test_core_and_full_agree_on_indexes_without_a_trivial_endo_hom(pf):
    tc = pf.source
    assert all(len(tc.cells1(i, i)) == 2 for i in tc.cells0)
    assert check_bifiltered(tc)
    suite = Suite(BUNDLED)
    assert_core_agrees(suite, pf, [zoo.terminal(), zoo.walking_arrow()])
    # the top's 0-cell alone is the core
    assert len(suite._core_colimit(pf).index.cells0) == 1


def test_a_size_guard_trip_on_the_core_path_is_a_recorded_failure(monkeypatch):
    def trip(tc):
        raise SizeGuardError(f"core path of {tc.name} exceeds its bound (forced)")

    monkeypatch.setattr(verify, "cofinal_core", trip)
    report = Suite(BUNDLED).run()
    assert (report["lemmas"]["bicompact"]["pass"], report["lemmas"]["bicompact"]["fail"]) == (0, 26)
    assert report["lemmas"]["bicompact-closure"]["fail"] == 2
    for failure in report["lemmas"]["bicompact"]["failures"]:
        assert failure["replay"].startswith(f"bicolim verify --only bicompact:{failure['instance']}")
        assert "# size guard: core path of " in failure["replay"]
    # the lemmas that read the full colimit are untouched
    assert report["lemmas"]["coequification"]["fail"] == 0
