from __future__ import annotations

import pytest

from bicolim import zoo
from bicolim.fincat import ValidationError
from bicolim.filtered import (
    TriangleError,
    check_bifiltered,
    check_sigma_cofinal,
    check_sigma_filtered,
    revalidate_filteredness_witness,
    revalidate_triangle,
    sigma_cone_for_objects,
    triangle_completion,
    trivialization_check,
)
from bicolim.twocat import (
    SigmaClass,
    all_one_cells,
    build_twocat,
    full_sub_on_zero_cells,
    inclusion_twofunctor,
    locally_discrete,
    sigma_closure,
    terminal_twocat,
)


def poset_top():
    return locally_discrete(zoo.poset("ptop", [("a", "top"), ("b", "top")]), name="ptop2")


def units_and(tc, extra=()):
    return SigmaClass(tc, frozenset(tc.unit.values()) | set(extra))


ALL_FIXTURES = {
    "terminal": terminal_twocat,
    "poset_top": poset_top,
    "chain3": lambda: locally_discrete(zoo.chain(3)),
    "discrete2": lambda: locally_discrete(zoo.discrete(["a", "b"])),
    "parallel": lambda: locally_discrete(zoo.parallel_pair()),
    "isohom": zoo.iso_hom_twocat,
    "laxtriangle": zoo.lax_triangle_twocat,
    "endoabsorb": zoo.endo_absorb_twocat,
    "equifier": zoo.equifier_twocat,
}


# -- bifiltered --------------------------------------------------------------


def test_terminal_is_bifiltered():
    assert check_bifiltered(terminal_twocat())


def test_poset_with_top_is_bifiltered():
    assert check_bifiltered(poset_top())


def test_discrete_two_fails_on_spans():
    verdict = check_bifiltered(ALL_FIXTURES["discrete2"]())
    assert not verdict
    assert verdict.counterexample["condition"] == "span"
    assert verdict.counterexample["instance"] == ["a", "b"]


def test_parallel_pair_fails_on_insertion():
    verdict = check_bifiltered(ALL_FIXTURES["parallel"]())
    assert not verdict
    assert verdict.counterexample["condition"] == "insertion"


def test_isohom_is_bifiltered():
    assert check_bifiltered(zoo.iso_hom_twocat())


def test_equifier_needs_a_nontrivial_equification_witness():
    tc = zoo.equifier_twocat()
    verdict = check_bifiltered(tc)
    assert verdict
    nontrivial = [
        w
        for w in verdict.witnesses
        if w["condition"] == "equification" and w["pair"] == ["al", "be"]
    ]
    assert nontrivial and nontrivial[0]["via"] == "g"


def test_lax_triangle_is_not_bifiltered():
    verdict = check_bifiltered(zoo.lax_triangle_twocat())
    assert not verdict
    assert verdict.counterexample["condition"] == "insertion"
    assert verdict.counterexample["instance"] == ["d", "s"]


def test_empty_twocat_is_rejected():
    from bicolim.twocat import build_twocat

    empty = build_twocat("void", [], {}, {}, {}, {})
    with pytest.raises(ValidationError):
        check_bifiltered(empty)


# -- sigma-filtered ----------------------------------------------------------


def test_sigma_filtered_with_all_arrows_matches_bifiltered():
    for name, make in ALL_FIXTURES.items():
        tc = make()
        assert (
            check_sigma_filtered(tc, all_one_cells(tc)).outcome
            == check_bifiltered(tc).outcome
        ), name


def test_lax_triangle_sigma_filtered_for_proper_class():
    tc = zoo.lax_triangle_twocat()
    assert check_sigma_filtered(tc, units_and(tc, ["s"]))


def test_endo_absorb_sigma_filtered():
    tc = zoo.endo_absorb_twocat()
    assert check_sigma_filtered(tc, units_and(tc, ["s"]))


def test_identities_only_class_fails_with_two_objects():
    tc = poset_top()
    verdict = check_sigma_filtered(tc, units_and(tc))
    assert not verdict
    assert verdict.counterexample["condition"] == "span"


def test_terminal_with_identity_class_is_sigma_filtered():
    tc = terminal_twocat()
    assert check_sigma_filtered(tc, units_and(tc))


def test_positive_witnesses_revalidate():
    for name, make in ALL_FIXTURES.items():
        tc = make()
        verdict = check_bifiltered(tc)
        if verdict:
            for w in verdict.witnesses:
                assert revalidate_filteredness_witness(tc, w), (name, w)
        sigma = sigma_closure(all_one_cells(tc))
        verdict = check_sigma_filtered(tc, sigma)
        if verdict:
            for w in verdict.witnesses:
                assert revalidate_filteredness_witness(tc, w, sigma.members), (name, w)


# -- triangle completion ------------------------------------------------------


def sigma_filtered_pairs():
    out = []
    for name, make in ALL_FIXTURES.items():
        tc = make()
        for sigma in (all_one_cells(tc), units_and(tc, [f for f in ("s",) if f in tc.one_home])):
            closed = sigma_closure(sigma)
            if check_sigma_filtered(tc, closed):
                out.append((name, tc, closed))
    return out


def test_triangle_completion_on_every_arrow_of_every_filtered_pair():
    for name, tc, sigma in sigma_filtered_pairs():
        for d in tc.one_cells:
            w = triangle_completion(tc, sigma, d)
            assert revalidate_triangle(tc, sigma, w), (name, d)


def test_triangle_for_identity_is_trivial():
    tc = terminal_twocat()
    w = triangle_completion(tc, all_one_cells(tc), "one")
    assert w.left == "one" and w.right == "one"
    assert tc.hom_of2(w.cell).is_identity(w.cell)


def test_triangle_for_lax_arrow_uses_the_lax_cell():
    tc = zoo.lax_triangle_twocat()
    sigma = sigma_closure(units_and(tc, ["s"]))
    w = triangle_completion(tc, sigma, "d")
    assert w.left == "s" and w.right == "it"
    assert w.cell == "nu"


def test_triangle_reports_failing_step():
    tc = poset_top()
    with pytest.raises(TriangleError) as err:
        triangle_completion(tc, units_and(tc), "le_a_top")
    assert err.value.step == "span"


def test_class_member_gets_invertible_completion_in_bifiltered_index():
    tc = zoo.iso_hom_twocat()
    sigma = sigma_closure(all_one_cells(tc))
    w = triangle_completion(tc, sigma, "p")
    assert tc.invertible2(w.cell)


# -- cofinality ---------------------------------------------------------------


def test_identity_inclusion_is_cofinal():
    tc = poset_top()
    sub = full_sub_on_zero_cells(tc, tc.cells0)
    inc = inclusion_twofunctor(sub, tc)
    assert check_sigma_cofinal(inc, all_one_cells(sub), all_one_cells(tc))


def test_chain_inclusion_into_poset_top_is_cofinal():
    tc = poset_top()
    sub = full_sub_on_zero_cells(tc, ["a", "top"])
    inc = inclusion_twofunctor(sub, tc)
    assert check_sigma_cofinal(inc, all_one_cells(sub), all_one_cells(tc))


def test_non_weakly_terminal_inclusion_fails_condition_one():
    tc = poset_top()
    sub = full_sub_on_zero_cells(tc, ["a"])
    inc = inclusion_twofunctor(sub, tc)
    verdict = check_sigma_cofinal(inc, all_one_cells(sub), all_one_cells(tc))
    assert not verdict
    assert verdict.counterexample["condition"] == "target-arrow"
    assert verdict.counterexample["instance"] == ["b"]


def test_cofinality_transfers_filteredness():
    # source filtered + cofinal + class preserved => target filtered
    tc = poset_top()
    sub = full_sub_on_zero_cells(tc, ["a", "top"])
    inc = inclusion_twofunctor(sub, tc)
    s_src, s_tgt = all_one_cells(sub), all_one_cells(tc)
    assert check_sigma_filtered(sub, s_src)
    assert check_sigma_cofinal(inc, s_src, s_tgt)
    assert all(inc.on1[f] in s_tgt.members for f in s_src.members)
    assert check_sigma_filtered(tc, s_tgt)


# -- trivialization ------------------------------------------------------------


def test_trivialization_agrees_on_all_fixture_pairs():
    for name, make in ALL_FIXTURES.items():
        tc = make()
        classes = [all_one_cells(tc), units_and(tc)]
        if "s" in tc.one_home:
            classes.append(units_and(tc, ["s"]))
        for sigma in classes:
            report = trivialization_check(tc, sigma)
            assert report.agree, (name, sigma.members)


def test_trivialization_sides_for_lax_triangle():
    tc = zoo.lax_triangle_twocat()
    report = trivialization_check(tc, units_and(tc, ["s"]))
    assert report.sigma_filtered and report.sub_bifiltered and report.inclusion_cofinal


def test_trivialization_both_sides_false_for_identities_only():
    tc = poset_top()
    report = trivialization_check(tc, units_and(tc))
    assert not report.sigma_filtered
    assert not (report.sub_bifiltered and report.inclusion_cofinal)
    assert report.agree


# -- sigma-cones ---------------------------------------------------------------


def test_sigma_cone_over_every_small_subcategory():
    import itertools

    for name, tc, sigma in sigma_filtered_pairs():
        for r in (1, 2):
            for objs in itertools.combinations(sorted(tc.cells0), r):
                cone = sigma_cone_for_objects(tc, sigma, list(objs))
                assert cone is not None, (name, objs)
                assert all(cone["legs"][i] in sigma.members for i in objs)


def test_sigma_cone_cells_invertible_over_class():
    tc = zoo.lax_triangle_twocat()
    sigma = sigma_closure(units_and(tc, ["s"]))
    cone = sigma_cone_for_objects(tc, sigma, ["a", "t"])
    assert cone is not None
    for d, cell in cone["cells"].items():
        if d in sigma.members:
            assert tc.invertible2(cell)
