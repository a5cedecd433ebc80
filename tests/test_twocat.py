from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from bicolim import zoo
from bicolim.fincat import (
    NatTrans,
    ValidationError,
    build_fincat,
    build_functor,
    identity_functor,
    identity_nattrans,
)
from bicolim.twocat import (
    SigmaClass,
    all_one_cells,
    build_pseudofunctor,
    build_twofunctor,
    build_twocat,
    constant_pseudofunctor,
    describe_twocat,
    full_sub_on_one_cells,
    full_sub_on_zero_cells,
    inclusion_twofunctor,
    locally_discrete,
    op1,
    pseudofunctor_violations,
    sigma_closure,
    terminal_twocat,
    twocat_violations,
    validate_twocat,
)


def poset_top():
    return locally_discrete(zoo.poset("ptop", [("a", "top"), ("b", "top")]))


def walking_iso_hom_twocat():
    return zoo.iso_hom_twocat()


def test_terminal_twocat_valid():
    tc = terminal_twocat()
    assert tc.cells0 == (".",)
    assert not twocat_violations(tc)


def test_locally_discrete_poset_valid():
    tc = poset_top()
    assert not twocat_violations(tc)
    assert tc.compose1("le_a_top", "le_a_a") == "le_a_top"


def test_missing_hcomp_entry_rejected():
    tc = poset_top()
    broken = dict(tc.hcomp2)
    broken.pop(("v_le_a_top", "v_le_a_a"))
    with pytest.raises(ValidationError) as err:
        build_twocat(tc.name, tc.cells0, tc.hom, tc.hcomp1, broken, tc.unit)
    assert any("missing" in v for v in err.value.violations)


def test_interchange_failure_is_refused():
    # one 0-cell, one 1-cell u, and the 2-cells forming the monoid of
    # constant maps on {0, 1} with an identity; taking vertical composition
    # as the horizontal one too keeps both levels categories, but the monoid
    # is not commutative, so only interchange fails (Eckmann-Hilton)
    cells = ["e", "c0", "c1"]
    table = {(g, f): f if g == "e" else g for g in cells for f in cells}
    hom = build_fincat("M", ["u"], [(a, "u", "u") for a in cells], {"u": "e"}, table)
    with pytest.raises(ValidationError) as err:
        build_twocat("EH", ["*"], {("*", "*"): hom}, {("u", "u"): "u"}, table, {"*": "u"})
    violations = err.value.violations
    assert violations and all(v.startswith("interchange fails on ") for v in violations)


def test_walking_iso_hom_twocat_valid():
    tc = walking_iso_hom_twocat()
    assert not twocat_violations(tc)
    assert tc.invertible_between("p", "q") == ("w",)


def test_absent_homs_are_filled_with_empty_categories():
    tc = walking_iso_hom_twocat()
    # absent homs are not stored, yet answer a lookup, always with one object
    assert ("y", "x") not in tc.hom and all(cat.objects for cat in tc.hom.values())
    absent = tc.hom[("y", "x")]
    assert tc.hom[("y", "x")] is absent
    assert absent.name == "isohom[y,x]"
    assert (absent.objects, absent.dom, absent.identity, absent.table) == ((), {}, {}, {})


def test_twocat_document_roundtrip():
    tc = walking_iso_hom_twocat()
    doc = describe_twocat(tc)
    again = validate_twocat(doc)
    assert again.cells0 == tc.cells0
    assert again.hcomp1 == tc.hcomp1
    assert again.hcomp2 == tc.hcomp2


def test_op1_swaps_one_cells_keeps_two_cells():
    tc = walking_iso_hom_twocat()
    dual = op1(tc)
    assert dual.one_home["p"] == ("y", "x")
    # 2-cell w still runs p ⇒ q
    assert dual.dom2("w") == "p" and dual.cod2("w") == "q"
    assert not twocat_violations(dual)
    # involution
    assert op1(dual).hcomp1 == tc.hcomp1


# -- sigma classes -----------------------------------------------------------


def test_sigma_closure_of_empty_contains_units_and_mates():
    tc = walking_iso_hom_twocat()
    closed = sigma_closure(SigmaClass(tc, frozenset()))
    assert "ix" in closed.members and "iy" in closed.members
    # p and q are not mates of identities, so nothing else appears
    assert closed.members == {"ix", "iy"}


def test_sigma_closure_all_is_identity():
    tc = poset_top()
    s = all_one_cells(tc)
    assert sigma_closure(s).members == s.members


def test_sigma_closure_adds_invertible_mates_and_composites():
    tc = walking_iso_hom_twocat()
    closed = sigma_closure(SigmaClass(tc, frozenset({"p"})))
    # q is isomorphic to p via w, and all unit composites come along
    assert closed.members == {"ix", "iy", "p", "q"}


def test_sigma_closure_idempotent_and_monotone():
    tc = walking_iso_hom_twocat()
    small = sigma_closure(SigmaClass(tc, frozenset()))
    big = sigma_closure(SigmaClass(tc, frozenset({"p"})))
    assert small.members <= big.members
    assert sigma_closure(big).members == big.members


@settings(max_examples=25, deadline=None)
@given(st.sets(st.sampled_from(["ix", "iy", "p", "q"])))
def test_sigma_closure_properties_random_subsets(members):
    tc = walking_iso_hom_twocat()
    closed = sigma_closure(SigmaClass(tc, frozenset(members)))
    assert frozenset(members) <= closed.members
    assert sigma_closure(closed).members == closed.members


def test_sigma_closure_returns_closed_class_as_is():
    tc = walking_iso_hom_twocat()
    given = SigmaClass(tc, frozenset({"p"}))
    assert not given.closed
    closed = sigma_closure(given)
    assert closed.closed and closed.name == "sigma~"
    assert sigma_closure(closed) is closed
    # the flag belongs to sigma_closure: equal members alone do not set it
    fresh = SigmaClass(tc, closed.members)
    assert not fresh.closed
    with pytest.raises(TypeError):
        SigmaClass(tc, closed.members, "c", True)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.sampled_from(["ix", "iy", "p", "q"])))
def test_sigma_closure_worklist_is_idempotent(members):
    # re-close the members of a closed class through the worklist itself,
    # not through the fast return
    tc = walking_iso_hom_twocat()
    closed = sigma_closure(SigmaClass(tc, frozenset(members)))
    assert sigma_closure(SigmaClass(tc, closed.members)).members == closed.members


def test_sub_twocat_requires_closure():
    tc = poset_top()
    with pytest.raises(ValidationError):
        full_sub_on_one_cells(tc, [f for f in tc.one_home if f != "le_a_a"])


def test_sub_twocat_requires_closure_under_composition():
    tc = locally_discrete(zoo.chain(3))
    with pytest.raises(ValidationError) as err:
        full_sub_on_one_cells(tc, [f for f in tc.one_home if f != "le_0_2"])
    assert err.value.violations == ["1-cell class not closed under ('le_1_2', 'le_0_1')"]


def test_sub_twocats_name_unknown_cells():
    tc = locally_discrete(zoo.chain(3))
    with pytest.raises(ValidationError) as err:
        full_sub_on_one_cells(tc, [*tc.one_home, "nope"])
    assert err.value.violations == ["unknown 1-cell 'nope'"]
    with pytest.raises(ValidationError) as err:
        full_sub_on_zero_cells(tc, ["0", "zz"])
    assert err.value.violations == ["unknown 0-cell 'zz'"]


def test_inclusion_twofunctor_validates():
    tc = poset_top()
    sub = full_sub_on_one_cells(tc, tc.one_home)
    inc = inclusion_twofunctor(sub, tc)
    assert inc.on0 == {i: i for i in tc.cells0}


# -- pseudofunctors ----------------------------------------------------------


def test_strict_constant_pseudofunctor_valid():
    tc = poset_top()
    pf = constant_pseudofunctor(tc, zoo.walking_arrow())
    assert pf.is_strict()
    assert not pseudofunctor_violations(pf)


def test_pseudofunctor_with_identity_comparisons_has_identity_pastings():
    tc = poset_top()
    pf = constant_pseudofunctor(tc, zoo.walking_iso())
    for (g, f), nt in pf.comp.items():
        assert nt.components == identity_nattrans(nt.target).components


def twisted_chain_diagram():
    """Chain 0<1<2 with fibers the walking iso and a non-identity comparison.

    The composite leg is the swap automorphism, while the two short legs are
    identities; the comparison cell is the canonical u-conjugation.
    """
    from bicolim.twocat import locally_discrete

    tc = locally_discrete(zoo.chain(3), name="chain3")
    iso = zoo.walking_iso()
    ident = identity_functor(iso)
    swap = build_functor(
        "swap",
        iso,
        iso,
        {"x": "y", "y": "x"},
        {"id_x": "id_y", "id_y": "id_x", "u": "u_inv", "u_inv": "u"},
    )
    on1 = {}
    for f in tc.one_home:
        if f == "le_0_2":
            on1[f] = swap
        else:
            on1[f] = ident
    on2 = {tc.id2(f): identity_nattrans(on1[f]) for f in tc.one_home}
    comp = {}
    twist = NatTrans("tw", ident, swap, {"x": "u", "y": "u_inv"})
    for f in tc.one_home:
        for g in tc.one_home:
            if tc.one_home[g][0] != tc.one_home[f][1]:
                continue
            gf = tc.hcomp1[(g, f)]
            if gf == "le_0_2" and f != "le_0_2" and g != "le_0_2":
                comp[(g, f)] = twist
    return build_pseudofunctor("twisted", tc, {i: iso for i in tc.cells0}, on1, on2, comp)


def test_twisted_pseudofunctor_is_coherent():
    pf = twisted_chain_diagram()
    assert not pf.is_strict()
    assert not pseudofunctor_violations(pf)


def test_twisted_comparison_violating_pentagon_is_rejected():
    # fibers with a nontrivial natural automorphism: one object, morphisms
    # {1, g} with g∘g = 1
    from bicolim.fincat import build_fincat
    from bicolim.twocat import locally_discrete

    bz2 = build_fincat(
        "bz2",
        ["o"],
        [("one", "o", "o"), ("g", "o", "o")],
        {"o": "one"},
        {("one", "one"): "one", ("one", "g"): "g", ("g", "one"): "g", ("g", "g"): "one"},
    )
    tc = locally_discrete(zoo.chain(4), name="chain4")
    ident = identity_functor(bz2)
    on1 = {f: ident for f in tc.one_home}
    on2 = {a: identity_nattrans(ident) for a in tc.two_home}
    # the anomalous comparison is natural and invertible but breaks the
    # associativity pasting against the strict comparisons around it
    comp = {("le_1_2", "le_0_1"): NatTrans("bad", ident, ident, {"o": "g"})}
    with pytest.raises(ValidationError) as err:
        build_pseudofunctor("sabotaged", tc, {i: bz2 for i in tc.cells0}, on1, on2, comp)
    assert any("associativity coherence" in v for v in err.value.violations)


def test_pseudofunctor_document_roundtrip():
    from bicolim.fixtures import diagram_doc
    from bicolim.twocat import validate_pseudofunctor

    pf = twisted_chain_diagram()
    doc = diagram_doc(pf, "unused.twocat.json")
    again = validate_pseudofunctor(doc, pf.source)
    assert not again.is_strict()
    assert not pseudofunctor_violations(again)
    assert again.on1["le_0_2"].obj_map == pf.on1["le_0_2"].obj_map


def test_pseudofunctor_document_with_missing_fiber_rejected():
    from bicolim.fixtures import diagram_doc
    from bicolim.twocat import validate_pseudofunctor

    pf = twisted_chain_diagram()
    doc = diagram_doc(pf, "unused.twocat.json")
    del doc["fibers"]["0"]
    with pytest.raises(ValidationError) as err:
        validate_pseudofunctor(doc, pf.source)
    assert any("missing fibers" in v for v in err.value.violations)


def test_twofunctor_validation():
    tc = poset_top()
    ident = build_twofunctor(
        "1",
        tc,
        tc,
        {i: i for i in tc.cells0},
        {f: f for f in tc.one_home},
        {a: a for a in tc.two_home},
    )
    assert ident.map1("le_a_top") == "le_a_top"
    with pytest.raises(ValidationError):
        build_twofunctor("broken", tc, tc, {i: i for i in tc.cells0}, {}, {})


def test_comparison_key_with_a_bar_in_a_one_cell_is_refused_by_name():
    from bicolim.fixtures import fincat_doc
    from bicolim.twocat import validate_pseudofunctor

    # the 1-cell le_a_b|c makes the key of (le_b|c_b|c, le_a_b|c) ambiguous
    index = locally_discrete(zoo.poset("I", [("a", "b|c")]))
    key = "le_b|c_b|c|le_a_b|c"
    doc = {
        "name": "barred",
        "fibers": {i: fincat_doc(zoo.terminal()) for i in index.cells0},
        "on1": {f: {"objects": {"*": "*"}, "morphisms": {"id": "id"}} for f in index.one_cells},
        "on2": {a: {"components": {"*": "id"}} for a in index.two_cells},
        "comparisons": {"comp": {key: {"components": {"*": "id"}}}, "unit": {}},
    }
    with pytest.raises(ValidationError) as err:
        validate_pseudofunctor(doc, index)
    assert err.value.violations == [f"comparison key {key!r} is not one 'g|f' pair"]
