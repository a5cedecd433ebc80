"""Lifting finite categories through filtered colimits.

A probe category is tested against one concrete diagram at a time: functors
into the colimit are lifted to a stage, 2-cells between lifts are lifted to
stage transformations with pasting certificates, and the canonical comparison
from the colimit of mapped functor categories is analysed directly for
essential surjectivity and full faithfulness (the definition quantifies over
this one functor, so no generic equivalence search is involved).

Both searches run only where a witness can exist.  A lift a ≅ q_i∘b needs
an isomorphism a(k) ≅ q_i(b(k)) at each probe object k, so b(k) ranges over
the stage objects that admit one.  The comparison into [K, colim F] is
composed with [K, r], r the retraction of colim F onto its skeleton; r is
an equivalence, hence so is [K, r], and the comparison is an equivalence
exactly when the composite into the smaller [K, sk(colim F)] is.  A negative
verdict therefore names cells of [K, sk(colim F)]; the size guard and the
``outer_objects`` witness still count [K, colim F].

The comparison is checked against a colimit the caller computed, so a
caller that probes one diagram with several categories computes colim F
once.  That colimit may be colim(F∘J) for a σ-cofinal J, which is
equivalent to colim F: ``bicolim verify`` passes the one over the cofinal
core of F's index (see :mod:`bicolim.verify`), whose stages are far fewer,
while ``bicolim compact check`` passes colim F itself, so its
``outer_objects`` still counts [K, colim F].  The cofinal core shrinks the
source of the comparison; the skeleton above shrinks its target.  Functors K -> C and transformations are looked up by value: a
functor by its morphism images in ``K.morphisms`` order, a transformation by
the names of its two functors and its components in ``K.objects`` order.
Postcomposition and whiskering then map tuples of names.

Verdicts are evidence for the supplied diagram only; no claim is made about
all filtered diagrams at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .colim import ColimitCat, Premorphism, bifiltered_bicolimit
from .fincat import (
    FinCat,
    Functor,
    FunctorCategory,
    NatTrans,
    ValidationError,
    compose_functors,
    enumerate_functors,
    enumerate_nattrans,
    functor_category,
    functor_is_equivalence,
    guard_object_maps,
    identity_nattrans,
    natural_iso_search,
    transformations_exceeded,
)
from .twocat import CatPseudoFunctor, stagewise_pseudofunctor
from .verdict import Verdict, negative, positive


@dataclass(eq=False)
class OneCellLift:
    stage: str
    functor: Functor           # b : K -> F(stage)
    comparison: NatTrans       # invertible a ⇒ q_stage ∘ b


@dataclass(eq=False)
class Refinement:
    stage: str
    left: str                  # d : i1 -> stage
    right: str                 # d' : i2 -> stage
    cell: NatTrans             # invertible F(d)∘b1 ⇒ F(d')∘b2


@dataclass(eq=False)
class TwoCellLift:
    source: OneCellLift
    target: OneCellLift
    stage: str
    left: str
    right: str
    cell: NatTrans             # F(left)∘b1 ⇒ F(right)∘b2


def lift_one_cell(probe: FinCat, colim: ColimitCat, fun: Functor) -> OneCellLift:
    """Factor a functor into the colimit through a stage, up to invertible
    comparison; exhaustive search in stage order.

    The comparison needs an isomorphism fun(k) ≅ q_i(b(k)) at every probe
    object k, so b(k) ranges only over the stage objects that admit one.
    That drops functors that cannot succeed and keeps the search order, so
    the first lift found is the same as over all functors.
    """
    pf = colim.diagram
    label = colim.iso_label
    for i in sorted(pf.source.cells0):
        q = colim.cocone[i]
        candidates = {
            k: [
                b
                for b in pf.on0[i].objects
                if label[q.obj_map[b]] == label[fun.obj_map[k]]
            ]
            for k in probe.objects
        }
        for b in enumerate_functors(probe, pf.on0[i], candidates):
            beta = natural_iso_search(fun, compose_functors(q, b))
            if beta is not None:
                b.name = f"lift@{i}"
                return OneCellLift(i, b, beta)
    raise ValidationError(
        "lift", [f"no stage factorization for {fun.name!r}; the diagram data is inconsistent"]
    )


def _pasting_components(
    colim: ColimitCat, lift1: OneCellLift, lift2: OneCellLift, d: str, d2: str, cell: NatTrans
) -> dict[str, str]:
    """Component at each probe object of (theta ∘ q(cell) ∘ theta^{-1})."""
    apex = colim.diagram.source.one_home[d][1]
    return {
        k: colim.morphism_of(
            Premorphism(
                (lift1.stage, lift1.functor.obj_map[k]),
                (lift2.stage, lift2.functor.obj_map[k]),
                apex,
                d,
                d2,
                c,
            )
        )
        for k, c in cell.components.items()
    }


def _wanted_pasting(
    colim: ColimitCat, lift1: OneCellLift, lift2: OneCellLift, phi: NatTrans
) -> dict[str, str]:
    """Component at each probe object of lift2.comparison ∘ φ ∘ lift1.comparison⁻¹,
    the pasting that a stage 2-cell between the two lifts must recover."""
    res = colim.result
    want = {}
    for k, c in lift1.comparison.components.items():
        moved = res.table[(phi.components[k], res.must_inverse(c))]
        want[k] = res.table[(lift2.comparison.components[k], moved)]
    return want


def _find_stage_cell(
    colim: ColimitCat,
    lift1: OneCellLift,
    lift2: OneCellLift,
    want: dict[str, str],
    invertible: bool,
) -> tuple[str, str, str, NatTrans] | None:
    """The first stage j, span d, d2 out of the two stages and 2-cell
    F(d)∘b1 ⇒ F(d2)∘b2, invertible if asked, whose pasting is ``want``;
    searched in stage order."""
    pf = colim.diagram
    reach = pf.source.out_of[lift2.stage]
    for j, cells in pf.source.out_of[lift1.stage].items():
        for d in cells:
            fd_b1 = compose_functors(pf.on1[d], lift1.functor)
            for d2 in reach.get(j, ()):
                fd2_b2 = compose_functors(pf.on1[d2], lift2.functor)
                for comps in enumerate_nattrans(fd_b1, fd2_b2):
                    cell = NatTrans(f"paste@{j}", fd_b1, fd2_b2, comps)
                    if invertible and not cell.is_invertible():
                        continue
                    if _pasting_components(colim, lift1, lift2, d, d2, cell) == want:
                        return j, d, d2, cell
    return None


def refine_lifts(
    probe: FinCat, colim: ColimitCat, lift1: OneCellLift, lift2: OneCellLift
) -> Refinement:
    """Common refinement of two lifts of the same functor.

    Searches spans out of the two stages and invertible stage 2-cells whose
    pasting with the colimit transitions recovers the comparison mismatch.
    """
    want = _wanted_pasting(colim, lift1, lift2, identity_nattrans(lift1.comparison.source))
    found = _find_stage_cell(colim, lift1, lift2, want, invertible=True)
    if found is None:
        raise ValidationError("refine", ["no common refinement found; diagram inconsistent"])
    return Refinement(*found)


def lift_two_cell(
    probe: FinCat,
    colim: ColimitCat,
    phi: NatTrans,
    lifts: tuple[OneCellLift, OneCellLift] | None = None,
) -> TwoCellLift:
    """Lift a 2-cell between colimit-valued functors to a stage 2-cell whose
    pasting with the transition isomorphisms recovers it exactly."""
    if lifts is None:
        lift1 = lift_one_cell(probe, colim, phi.source)
        lift2 = lift_one_cell(probe, colim, phi.target)
    else:
        lift1, lift2 = lifts
    want = _wanted_pasting(colim, lift1, lift2, phi)
    found = _find_stage_cell(colim, lift1, lift2, want, invertible=False)
    if found is None:
        raise ValidationError("lift2", ["no 2-cell lift found; diagram inconsistent"])
    return TwoCellLift(lift1, lift2, *found)


def lift_parallel_pair(
    probe: FinCat, colim: ColimitCat, phi: NatTrans, psi: NatTrans
) -> tuple[TwoCellLift, TwoCellLift]:
    """Lift a parallel pair over one common span of stages."""
    lift1 = lift_one_cell(probe, colim, phi.source)
    lift2 = lift_one_cell(probe, colim, phi.target)
    first = lift_two_cell(probe, colim, phi, (lift1, lift2))
    want = _wanted_pasting(colim, lift1, lift2, psi)
    pf = colim.diagram
    fd_b1 = compose_functors(pf.on1[first.left], lift1.functor)
    fd2_b2 = compose_functors(pf.on1[first.right], lift2.functor)
    for comps in enumerate_nattrans(fd_b1, fd2_b2):
        cand = NatTrans("xi", fd_b1, fd2_b2, comps)
        if _pasting_components(colim, lift1, lift2, first.left, first.right, cand) == want:
            return first, TwoCellLift(lift1, lift2, first.stage, first.left, first.right, cand)
    raise ValidationError("lift2", ["no common-span lift for the parallel pair"])


def revalidate_two_cell_lift(colim: ColimitCat, phi: NatTrans, lift: TwoCellLift) -> bool:
    pasted = _pasting_components(colim, lift.source, lift.target, lift.left, lift.right, lift.cell)
    return pasted == _wanted_pasting(colim, lift.source, lift.target, phi)


# ---------------------------------------------------------------------------
# The comparison functor


def mapped_diagram(
    probe: FinCat, pf: CatPseudoFunctor, max_morphisms: int = 100_000
) -> tuple[CatPseudoFunctor, dict[str, FunctorCategory]]:
    """The diagram of functor categories [probe, F(-)] over the same index.

    Assembled without a replay: postcomposition with a functor is a functor
    between functor categories, and [probe, -] is a 2-functor on Cat.
    Postcomposition and whiskering act on the value keys of
    :func:`_functor_names` and :func:`_nattrans_names`, so each image is
    looked up without building a functor or transformation for it.
    """
    tc = pf.source
    fcs = {i: functor_category(probe, pf.on0[i], max_morphisms) for i in tc.cells0}
    fun_name = {i: _functor_names(probe, fcs[i]) for i in tc.cells0}
    nat_name = {i: _nattrans_names(probe, fcs[i]) for i in tc.cells0}
    # per stage, each functor's object images in probe order
    obj_images = {
        i: {n: tuple(g.obj_map[x] for x in probe.objects) for n, g in fcs[i].functors.items()}
        for i in tc.cells0
    }

    def functor_image(d: str) -> Functor:
        i, j = tc.one_home[d]
        post = pf.on1[d].mor_map
        obj_map = {n: fun_name[j][tuple(post[v] for v in img)] for img, n in fun_name[i].items()}
        mor_map = {
            n: nat_name[j][(obj_map[f], obj_map[g], tuple(post[c] for c in comps))]
            for (f, g, comps), n in nat_name[i].items()
        }
        return Functor(f"[K,{d}]", fcs[i].category, fcs[j].category, obj_map, mor_map)

    def image(cell, i, j, src, tgt) -> dict[str, str]:
        c = cell(pf).components
        return {
            n: nat_name[j][(src.obj_map[n], tgt.obj_map[n], tuple(c[a] for a in objs))]
            for n, objs in obj_images[i].items()
        }

    on1 = {d: functor_image(d) for d in tc.one_home}
    on0 = {i: fcs[i].category for i in tc.cells0}
    return stagewise_pseudofunctor(f"[K,{pf.name}]", tc, on0, on1, image), fcs


def _functor_names(probe: FinCat, fc: FunctorCategory) -> dict[tuple[str, ...], str]:
    """Each functor of ``fc`` by value: its morphism images in
    ``probe.morphisms`` order, which hold the images of the identities and
    so fix the object map too."""
    return {tuple(f.mor_map[m] for m in probe.morphisms): n for n, f in fc.functors.items()}


def _nattrans_names(probe: FinCat, fc: FunctorCategory) -> dict[tuple, str]:
    """Each transformation of ``fc`` by value: the names of its source and
    target functors and its components in ``probe.objects`` order."""
    return {
        (t.source.name, t.target.name, tuple(t.components[x] for x in probe.objects)): n
        for n, t in fc.transformations.items()
    }


def _outer_guard(
    probe: FinCat, target: FinCat, images: dict[tuple, Functor], mult: Counter, max_morphisms: int
) -> None:
    """The size guard of [probe, target], decided on the skeleton.

    ``images`` holds the distinct r∘F over the functors F : probe -> target
    and ``mult`` how many F share each.  r is fully faithful, so the
    transformations F ⇒ G of [probe, target] match those rF ⇒ rG one to one,
    and the count below is the one ``functor_category(probe, target)`` meets.
    """
    count = 0
    for f, rf in images.items():
        for g, rg in images.items():
            for _ in enumerate_nattrans(rf, rg):
                count += mult[f] * mult[g]
                if count > max_morphisms:
                    raise transformations_exceeded(probe, target, max_morphisms)


def _comparison(
    probe: FinCat, colim: ColimitCat, max_morphisms: int
) -> tuple[Functor, int]:
    """The comparison colim_i [probe, F i] -> [probe, sk(colim F)] and the
    object count of [probe, colim F].

    It is the functor the cocone [probe, r∘q_i] induces, so it is assembled
    directly; cells of the target are looked up by value.
    """
    pf = colim.diagram
    mapped, fcs = mapped_diagram(probe, pf, max_morphisms)
    inner = bifiltered_bicolimit(mapped, precheck=False)
    res = colim.result
    guard_object_maps(probe, res, max_morphisms)
    sk = colim.skeleton
    r = sk.retraction.mor_map
    images: dict[tuple, Functor] = {}
    mult: Counter = Counter()
    for fun in enumerate_functors(probe, res):
        key = tuple(r[fun.mor_map[m]] for m in probe.morphisms)
        if key not in images:
            images[key] = compose_functors(sk.retraction, fun)
        mult[key] += 1
    _outer_guard(probe, res, images, mult, max_morphisms)
    outer = functor_category(probe, sk.category, max_morphisms)
    outer_fun_name = _functor_names(probe, outer)
    outer_nat_name = _nattrans_names(probe, outer)

    obj_map = {}
    for (i, gname), oname in inner.obj_name.items():
        q, g = colim.cocone[i].mor_map, fcs[i].functors[gname].mor_map
        obj_map[oname] = outer_fun_name[tuple(r[q[g[m]]] for m in probe.morphisms)]
    mor_map = {}
    for cname, rep in inner.class_rep.items():
        (i1, g1), (i2, g2) = rep.src, rep.dst
        b1, b2 = fcs[i1].functors[g1].obj_map, fcs[i2].functors[g2].obj_map
        chi = fcs[rep.apex].transformations[rep.cell].components
        comps = tuple(
            r[
                colim.morphism_of(
                    Premorphism((i1, b1[k]), (i2, b2[k]), rep.apex, rep.left, rep.right, chi[k])
                )
            ]
            for k in probe.objects
        )
        src, tgt = obj_map[inner.obj_name[rep.src]], obj_map[inner.obj_name[rep.dst]]
        mor_map[cname] = outer_nat_name[(src, tgt, comps)]
    return Functor("compare", inner.result, outer.category, obj_map, mor_map), sum(mult.values())


def check_bicompact_against(
    probe: FinCat, colim: ColimitCat, max_morphisms: int = 100_000
) -> Verdict:
    """Analyse the canonical comparison for one probe against the diagram
    ``colim.diagram``, given its computed colimit.

    Computes the colimit of mapped functor categories and checks the
    comparison functor, composed with [probe, r] into [probe, sk(colim F)],
    for essential surjectivity and full faithfulness directly (see the
    module docstring for why the verdict is the one for [probe, colim F]).
    """
    name = colim.diagram.name
    comparison, outer_objects = _comparison(probe, colim, max_morphisms)
    analysis = functor_is_equivalence(comparison)
    if analysis:
        return positive(
            "bicompact-against",
            [
                {
                    "probe": probe.name,
                    "diagram": name,
                    "inner_objects": len(comparison.source.objects),
                    "outer_objects": outer_objects,
                }
            ],
        )
    return negative(
        "bicompact-against",
        {"probe": probe.name, "diagram": name, "analysis": analysis.counterexample},
    )
