from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings, strategies as st

from support import colim_of
from test_indexes import constant_diagrams_over_posets_with_top

from bicolim import compact, corpus, zoo
from bicolim.colim import Premorphism, bifiltered_bicolimit
from bicolim.compact import (
    check_bicompact_against,
    lift_one_cell,
    lift_parallel_pair,
    lift_two_cell,
    mapped_diagram,
    refine_lifts,
    revalidate_two_cell_lift,
)
from bicolim.filtered import check_bifiltered
from bicolim.fincat import (
    Functor,
    NatTrans,
    SizeGuardError,
    build_functor,
    compose_functors,
    enumerate_functors,
    functor_category,
    functor_is_equivalence,
    guard_object_maps,
    identity_functor,
    identity_nattrans,
    skeleton,
    whisker_functor,
    whisker_nattrans,
)
from bicolim.fixtures import DiagramFixture, ProbeFixture, load_fixture
from bicolim.twocat import stagewise_pseudofunctor
from bicolim.verdict import negative, positive

BUNDLED = Path(corpus.__file__).parent / "corpus"


# -- 1-cell lifting ------------------------------------------------------------


def test_lift_point_picks_a_representative():
    col = colim_of("const_arrow")
    pt = zoo.terminal()
    # a functor from the point: choose any colimit object
    target_obj = col.result.objects[0]
    a = build_functor(
        "pick", pt, col.result, {"*": target_obj}, {"id": col.result.identity[target_obj]}
    )
    lift = lift_one_cell(pt, col, a)
    assert lift.stage in col.diagram.source.cells0
    assert lift.comparison.is_invertible()
    # replay: q_stage ∘ b is isomorphic to a
    composed = compose_functors(col.cocone[lift.stage], lift.functor)
    assert lift.comparison.source.key() == a.key()
    assert lift.comparison.target.key() == composed.key()


def test_lift_arrow_through_chain():
    col = colim_of("chain_incl")
    arrow = zoo.walking_arrow()
    # the morphism u -> v exists from stage 1 onward; map the walking arrow
    # onto its image in the colimit
    q1 = col.cocone["1"]
    a = build_functor(
        "arr",
        arrow,
        col.result,
        {"s": q1.obj_map["u"], "t": q1.obj_map["v"]},
        {
            "id_s": col.result.identity[q1.obj_map["u"]],
            "id_t": col.result.identity[q1.obj_map["v"]],
            "f": q1.mor_map["le_u_v"],
        },
    )
    lift = lift_one_cell(arrow, col, a)
    assert lift.comparison.is_invertible()


def test_lift_of_cocone_composite_is_found_with_identity_like_comparison():
    col = colim_of("const_arrow")
    arrow = col.diagram.on0[sorted(col.diagram.source.cells0)[0]]
    i = sorted(col.diagram.source.cells0)[0]
    a = compose_functors(col.cocone[i], col.diagram.on1[col.diagram.source.unit[i]])
    lift = lift_one_cell(arrow, col, a)
    assert lift.comparison.is_invertible()


def test_two_lifts_admit_common_refinement():
    col = colim_of("chain_incl")
    pt = zoo.terminal()
    # the object u exists at every stage; lift the same point twice
    q0, q2 = col.cocone["0"], col.cocone["2"]
    a = build_functor("p0", pt, col.result, {"*": q0.obj_map["u"]}, {"id": col.result.identity[q0.obj_map["u"]]})
    lift1 = lift_one_cell(pt, col, a)
    # force a second, different lift by searching from the other end
    b2 = build_functor("b2", pt, col.diagram.on0["2"], {"*": "u"}, {"id": "le_u_u"})
    from bicolim.fincat import natural_iso_search

    beta2 = natural_iso_search(a, compose_functors(q2, b2))
    assert beta2 is not None
    from bicolim.compact import OneCellLift

    lift2 = OneCellLift("2", b2, beta2)
    ref = refine_lifts(pt, col, lift1, lift2)
    assert ref.cell.is_invertible()


# -- 2-cell lifting ------------------------------------------------------------


def test_identity_two_cell_lifts_to_identity_like_cell():
    col = colim_of("const_arrow")
    pt = zoo.terminal()
    obj = col.result.objects[0]
    a = build_functor("pk", pt, col.result, {"*": obj}, {"id": col.result.identity[obj]})
    phi = identity_nattrans(a)
    lift = lift_two_cell(pt, col, phi)
    assert revalidate_two_cell_lift(col, phi, lift)


def test_nonidentity_two_cell_lift():
    col = colim_of("const_arrow")
    pt = zoo.terminal()
    i = sorted(col.diagram.source.cells0)[0]
    q = col.cocone[i]
    a = build_functor("src", pt, col.result, {"*": q.obj_map["s"]}, {"id": col.result.identity[q.obj_map["s"]]})
    b = build_functor("tgt", pt, col.result, {"*": q.obj_map["t"]}, {"id": col.result.identity[q.obj_map["t"]]})
    phi = NatTrans("point_arrow", a, b, {"*": q.mor_map["f"]})
    lift = lift_two_cell(pt, col, phi)
    assert revalidate_two_cell_lift(col, phi, lift)


def test_parallel_pair_lifts_over_common_span():
    col = colim_of("const_arrow")
    pt = zoo.terminal()
    i = sorted(col.diagram.source.cells0)[0]
    q = col.cocone[i]
    a = build_functor("src", pt, col.result, {"*": q.obj_map["s"]}, {"id": col.result.identity[q.obj_map["s"]]})
    b = build_functor("tgt", pt, col.result, {"*": q.obj_map["t"]}, {"id": col.result.identity[q.obj_map["t"]]})
    phi = NatTrans("pa", a, b, {"*": q.mor_map["f"]})
    first, second = lift_parallel_pair(pt, col, phi, phi)
    assert (first.left, first.right, first.stage) == (second.left, second.right, second.stage)
    # degenerate pair: the two lifted cells may and do coincide
    assert first.cell.components == second.cell.components


# -- the comparison functor ------------------------------------------------------


PROBES = {
    "point": zoo.terminal,
    "arrow": zoo.walking_arrow,
}


def test_point_probe_positive_on_all_bifiltered_diagrams():
    for name in corpus.BIFILTERED_DIAGRAMS:
        pf = corpus.DIAGRAM_BUILDERS[name]()
        assert check_bicompact_against(zoo.terminal(), bifiltered_bicolimit(pf)), name


def test_arrow_probe_positive_on_small_diagrams():
    for name in ("const_arrow", "two_cellular", "endo_proj"):
        assert check_bicompact_against(zoo.walking_arrow(), colim_of(name)), name


def test_biproduct_probe_positive():
    from bicolim.bilim import biproduct

    probe = biproduct(zoo.terminal(), zoo.walking_arrow()).category
    assert check_bicompact_against(probe, colim_of("two_cellular"))


def test_biequalizer_probe_positive():
    from bicolim.bilim import biequalizer
    from bicolim.fincat import identity_functor

    arrow = zoo.walking_arrow()
    probe = biequalizer(identity_functor(arrow), identity_functor(arrow)).category
    assert check_bicompact_against(probe, colim_of("endo_proj"))


def test_size_guard_propagates():
    import pytest

    from bicolim.fincat import SizeGuardError

    colim = colim_of("const_arrow")
    with pytest.raises(SizeGuardError):
        check_bicompact_against(zoo.walking_arrow(), colim, max_morphisms=3)


# -- the comparison against the skeleton, differential ---------------------------
#
# ``check_bicompact_against`` analyses the comparison into [K, sk(colim F)].
# ``full_check_bicompact_against`` below is the same analysis as it was, into
# [K, colim F] itself; it is the oracle.  Outcome and positive witnesses must
# agree, and so must every size-guard trip and its message.


def full_check_bicompact_against(probe, pf, max_morphisms=100_000):
    colim = bifiltered_bicolimit(pf)
    mapped, fcs = mapped_diagram(probe, pf, max_morphisms)
    inner = bifiltered_bicolimit(mapped, precheck=False)
    outer = functor_category(probe, colim.result, max_morphisms)
    outer_fun_name = {f.key(): n for n, f in outer.functors.items()}
    outer_nat_name = {t.key(): n for n, t in outer.transformations.items()}

    obj_map = {}
    for (i, gname), oname in inner.obj_name.items():
        composed = compose_functors(colim.cocone[i], fcs[i].functors[gname])
        obj_map[oname] = outer_fun_name[composed.key()]
    mor_map = {}
    for cname, rep in inner.class_rep.items():
        (i1, g1), (i2, g2) = rep.src, rep.dst
        b1, b2 = fcs[i1].functors[g1], fcs[i2].functors[g2]
        chi = fcs[rep.apex].transformations[rep.cell]
        comps = {
            k: colim.morphism_of(
                Premorphism(
                    (i1, b1.obj_map[k]), (i2, b2.obj_map[k]), rep.apex, rep.left, rep.right, c
                )
            )
            for k, c in chi.components.items()
        }
        src_fun = outer.functors[obj_map[inner.obj_name[rep.src]]]
        tgt_fun = outer.functors[obj_map[inner.obj_name[rep.dst]]]
        mor_map[cname] = outer_nat_name[NatTrans("compare", src_fun, tgt_fun, comps).key()]
    comparison = build_functor("compare", inner.result, outer.category, obj_map, mor_map)
    analysis = functor_is_equivalence(comparison)
    if analysis:
        return positive(
            "bicompact-against",
            [
                {
                    "probe": probe.name,
                    "diagram": pf.name,
                    "inner_objects": len(inner.result.objects),
                    "outer_objects": len(outer.category.objects),
                }
            ],
        )
    return negative(
        "bicompact-against",
        {"probe": probe.name, "diagram": pf.name, "analysis": analysis.counterexample},
    )


def outcome(check, probe, pf, max_morphisms=100_000):
    """(outcome, witnesses) of a check, or the size guard's message."""
    try:
        verdict = check(probe, pf, max_morphisms)
    except SizeGuardError as exc:
        return ("size guard", str(exc))
    return (verdict.outcome, verdict.witnesses)


def assert_reduced_matches_full(probe, pf, max_morphisms=100_000):
    got = outcome(check_bicompact_against, probe, bifiltered_bicolimit(pf), max_morphisms)
    assert got == outcome(full_check_bicompact_against, probe, pf, max_morphisms)
    return got


def bundled_probes_and_bifiltered_diagrams():
    cache: dict = {}
    fixtures = [load_fixture(p, cache) for p in sorted(BUNDLED.glob("*.json"))]
    probes = [fx for fx in fixtures if isinstance(fx, ProbeFixture)]
    diagrams = [
        fx for fx in fixtures
        if isinstance(fx, DiagramFixture) and check_bifiltered(fx.index.twocat)
    ]
    return probes, diagrams


def test_reduced_comparison_matches_full_on_corpus_pairs():
    probes, diagrams = bundled_probes_and_bifiltered_diagrams()
    assert len(probes) * len(diagrams) == 26  # the verify suite's bicompact instances
    for probe in probes:
        for fx in diagrams:
            got = assert_reduced_matches_full(probe.category, fx.functor)
            assert got[0] is True, (probe.name, fx.name)


def test_reduced_comparison_matches_full_on_closure_probes():
    from bicolim.bilim import biequalizer, biproduct

    arrow = zoo.walking_arrow()
    probes = [
        biproduct(zoo.terminal(), arrow).category,
        biequalizer(identity_functor(arrow), identity_functor(arrow)).category,
    ]
    for name in ("two_cellular", "endo_proj"):
        pf = corpus.DIAGRAM_BUILDERS[name]()
        for probe in probes:
            assert assert_reduced_matches_full(probe, pf)[0] is True, (probe.name, name)


@settings(max_examples=20, deadline=None)
@given(constant_diagrams_over_posets_with_top(), st.sampled_from(sorted(PROBES)))
def test_reduced_comparison_matches_full_on_constant_diagrams(pf, probe_name):
    assert_reduced_matches_full(PROBES[probe_name](), pf)


def test_size_guard_parity_across_the_threshold():
    pf = corpus.DIAGRAM_BUILDERS["const_arrow"]()
    arrow = zoo.walking_arrow()
    stage = functor_category(arrow, pf.on0[pf.source.cells0[0]]).category
    result = bifiltered_bicolimit(pf).result
    outer = functor_category(arrow, result).category
    # the bounds of the stage functor categories (object maps, then
    # transformations) and then those of [K, colim F]
    thresholds = [
        len(stage.objects) ** 2,
        len(stage.dom),
        len(result.objects) ** len(arrow.objects),
        len(outer.dom),
    ]
    seen = []
    for bound in sorted({0} | {t + step for t in thresholds for step in (-1, 0, 1)}):
        seen.append(assert_reduced_matches_full(arrow, pf, bound))
    assert seen[-1][0] is True
    messages = [msg for tripped, msg in seen if tripped == "size guard"]
    assert any("object-map count" in m and f",{result.name}]" in m for m in messages)
    assert any("transformations" in m and f",{result.name}]" in m for m in messages)


def assert_iso_labels_match_scan(res, label):
    for x in res.objects:
        for y in res.objects:
            iso = any(res.is_iso(m) for m in res.hom(x, y))
            assert (label[x] == label[y]) == iso, (x, y)


def test_iso_labels_match_isomorphism_scan():
    _, diagrams = bundled_probes_and_bifiltered_diagrams()
    for fx in diagrams:
        colim = bifiltered_bicolimit(fx.functor)
        assert colim.iso_label is colim.iso_label  # computed once per colimit
        assert_iso_labels_match_scan(colim.result, colim.iso_label)


@settings(max_examples=20, deadline=None)
@given(constant_diagrams_over_posets_with_top())
def test_iso_labels_match_isomorphism_scan_on_constant_diagrams(pf):
    colim = bifiltered_bicolimit(pf)
    assert_iso_labels_match_scan(colim.result, colim.iso_label)


# -- functors and transformations looked up by value, differential ---------------
#
# ``mapped_diagram`` and the comparison look cells up by value: a functor by
# its morphism images, a transformation by its two functors' names and its
# components.  The oracles below are the construction as it was, which built
# each postcomposite and whiskering as a ``Functor`` or ``NatTrans`` and
# looked it up by ``key()``.


def keyed_mapped_diagram(probe, pf, max_morphisms=100_000):
    tc = pf.source
    fcs = {i: functor_category(probe, pf.on0[i], max_morphisms) for i in tc.cells0}
    fun_name = {i: {f.key(): n for n, f in fcs[i].functors.items()} for i in tc.cells0}
    nat_name = {i: {t.key(): n for n, t in fcs[i].transformations.items()} for i in tc.cells0}

    def functor_image(d):
        i, j = tc.one_home[d]
        post = pf.on1[d]
        obj_map = {n: fun_name[j][compose_functors(post, g).key()] for n, g in fcs[i].functors.items()}
        mor_map = {
            n: nat_name[j][whisker_functor(post, t).key()]
            for n, t in fcs[i].transformations.items()
        }
        return Functor(f"[K,{d}]", fcs[i].category, fcs[j].category, obj_map, mor_map)

    def image(cell, i, j, src, tgt):
        c = cell(pf)
        return {n: nat_name[j][whisker_nattrans(c, g).key()] for n, g in fcs[i].functors.items()}

    on1 = {d: functor_image(d) for d in tc.one_home}
    on0 = {i: fcs[i].category for i in tc.cells0}
    return stagewise_pseudofunctor(f"[K,{pf.name}]", tc, on0, on1, image), fcs


def keyed_comparison(probe, colim, max_morphisms=100_000):
    """(comparison, object count of [probe, colim F]), cells looked up by key()."""
    mapped, fcs = keyed_mapped_diagram(probe, colim.diagram, max_morphisms)
    inner = bifiltered_bicolimit(mapped, precheck=False)
    res = colim.result
    guard_object_maps(probe, res, max_morphisms)
    sk = skeleton(res)
    r = sk.retraction
    count = sum(1 for _ in enumerate_functors(probe, res))
    outer = functor_category(probe, sk.category, max_morphisms)
    outer_fun_name = {f.key(): n for n, f in outer.functors.items()}
    outer_nat_name = {t.key(): n for n, t in outer.transformations.items()}
    obj_map = {}
    for (i, gname), oname in inner.obj_name.items():
        composed = compose_functors(r, compose_functors(colim.cocone[i], fcs[i].functors[gname]))
        obj_map[oname] = outer_fun_name[composed.key()]
    mor_map = {}
    for cname, rep in inner.class_rep.items():
        (i1, g1), (i2, g2) = rep.src, rep.dst
        b1, b2 = fcs[i1].functors[g1], fcs[i2].functors[g2]
        chi = fcs[rep.apex].transformations[rep.cell]
        comps = {
            k: r.mor_map[
                colim.morphism_of(
                    Premorphism(
                        (i1, b1.obj_map[k]), (i2, b2.obj_map[k]), rep.apex, rep.left, rep.right, c
                    )
                )
            ]
            for k, c in chi.components.items()
        }
        src_fun = outer.functors[obj_map[inner.obj_name[rep.src]]]
        tgt_fun = outer.functors[obj_map[inner.obj_name[rep.dst]]]
        mor_map[cname] = outer_nat_name[NatTrans("compare", src_fun, tgt_fun, comps).key()]
    return Functor("compare", inner.result, outer.category, obj_map, mor_map), count


def functor_maps(fun):
    return fun.name, fun.obj_map, fun.mor_map


def components(cells):
    return {k: (t.name, t.components) for k, t in cells.items()}


def assert_same_mapped_diagram(got, want):
    assert got.name == want.name
    assert {i: c.describe() for i, c in got.on0.items()} == {
        i: c.describe() for i, c in want.on0.items()
    }
    assert {d: functor_maps(f) for d, f in got.on1.items()} == {
        d: functor_maps(f) for d, f in want.on1.items()
    }
    for part in ("on2", "comp", "unit_c"):
        assert components(getattr(got, part)) == components(getattr(want, part)), part


def derived_probes():
    from bicolim.bilim import biequalizer, biproduct

    arrow = zoo.walking_arrow()
    return [
        biproduct(zoo.terminal(), arrow).category,
        biequalizer(identity_functor(arrow), identity_functor(arrow)).category,
    ]


def test_value_lookups_match_keyed_construction_on_corpus():
    probes, diagrams = bundled_probes_and_bifiltered_diagrams()
    pairs = 0
    for probe in [fx.category for fx in probes] + derived_probes():
        for fx in diagrams:
            mapped, fcs = mapped_diagram(probe, fx.functor)
            want, want_fcs = keyed_mapped_diagram(probe, fx.functor)
            assert_same_mapped_diagram(mapped, want)
            colim = bifiltered_bicolimit(fx.functor)
            comparison, outer_objects = compact._comparison(probe, colim, 100_000)
            oracle, oracle_objects = keyed_comparison(probe, colim)
            assert functor_maps(comparison) == functor_maps(oracle), (probe.name, fx.path.name)
            assert len(comparison.source.objects) == len(oracle.source.objects)
            assert outer_objects == oracle_objects
            pairs += 1
    assert pairs == 52  # 2 bundled and 2 derived probes, 13 bifiltered diagrams


@settings(max_examples=20, deadline=None)
@given(constant_diagrams_over_posets_with_top(), st.sampled_from(sorted(PROBES)))
def test_value_lookups_match_keyed_construction_on_constant_diagrams(pf, probe_name):
    probe = PROBES[probe_name]()
    assert_same_mapped_diagram(mapped_diagram(probe, pf)[0], keyed_mapped_diagram(probe, pf)[0])
    colim = bifiltered_bicolimit(pf)
    comparison, outer_objects = compact._comparison(probe, colim, 100_000)
    oracle, oracle_objects = keyed_comparison(probe, colim)
    assert functor_maps(comparison) == functor_maps(oracle)
    assert outer_objects == oracle_objects
