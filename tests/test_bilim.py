from __future__ import annotations

import pytest

from bicolim import corpus, zoo
from bicolim.bilim import (
    arrow_cotensor,
    biequalizer,
    biproduct,
    commute_biequalizer,
    commute_biproduct,
    commute_cotensor,
    pseudolimit_cocycle,
    split_pseudoidempotent,
    validate_pseudoidempotent,
)
from bicolim.colim import bifiltered_bicolimit
from bicolim.fincat import (
    SizeGuardError,
    build_functor,
    check_equivalence,
    compose_functors,
    identity_functor,
    identity_nattrans,
    nattrans_violations,
)
from bicolim.twocat import constant_pseudofunctor, locally_discrete, terminal_twocat


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
