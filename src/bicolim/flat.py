"""Flatness of Cat-valued pseudofunctors.

A diagram is flat here when the 1-cell dual of its total category is
class-filtered relative to the opcartesian arrows; flat diagrams reconstruct
themselves as filtered colimits of hom 2-functors, and that reconstruction is
what :func:`decompose_flat` replays, stage category by stage category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .colim import (
    ColimitCat,
    ElementsCat,
    _mediating_functor,
    bifiltered_bicolimit,
    elements_category,
)
from .fincat import (
    FinCat,
    Functor,
    NatTrans,
    ValidationError,
    check_equivalence,
    compose_functors,
    functor_is_equivalence,
    nattrans_violations,
)
from . import zoo
from .bilim import arrow_cotensor, biequalizer, biproduct
from .twocat import (
    CatPseudoFunctor,
    SigmaClass,
    TwoCat,
    _assemble_pseudofunctor,
    full_sub_on_one_cells,
    op1,
    sigma_closure,
)
from .verdict import Verdict, negative, positive


def _hom_postcomposition(tc: TwoCat, g: str, c: str, name: str) -> Functor:
    """(g∘-) : hom(c, j) -> hom(c, k) for g : j -> k, acting by whiskering;
    a functor by the interchange law, which the 2-category satisfies."""
    j, k = tc.one_home[g]
    source = tc.hom[(c, j)]
    return Functor(
        name,
        source,
        tc.hom[(c, k)],
        {f: tc.hcomp1[(g, f)] for f in source.objects},
        {a: tc.whisker_l(g, a) for a in source.dom},
    )


def representable_pseudofunctor(tc: TwoCat, c: str, name: str | None = None) -> CatPseudoFunctor:
    """The hom 2-functor out of a 0-cell, acting by whiskering; strict.

    Assembled without a replay: its functoriality on 1-cells and 2-cells is
    the associativity, unit and interchange laws of ``tc``.
    """
    if c not in tc.cells0:
        raise ValidationError("representable", [f"unknown 0-cell {c!r}"])
    on0 = {j: tc.hom[(c, j)] for j in tc.cells0}
    on1 = {g: _hom_postcomposition(tc, g, c, f"({g}o-)") for g in tc.one_cells}
    on2: dict[str, NatTrans] = {}
    for b in tc.two_cells:
        g, g2 = tc.dom2(b), tc.cod2(b)
        j = tc.two_home[b][0]
        on2[b] = NatTrans(
            f"({b}o-)",
            on1[g],
            on1[g2],
            {f: tc.whisker_r(b, f) for f in on0[j].objects},
        )
    return _assemble_pseudofunctor(name or f"hom({c},-)", tc, on0, on1, on2)


def opcartesian_class(el: ElementsCat) -> tuple[TwoCat, SigmaClass]:
    """The 1-cell dual of the total category with its opcartesian class."""
    dual = op1(el.total)
    return dual, SigmaClass(dual, el.opcartesian, "opcartesian")


def _flat_verdict(dual: TwoCat, opcart: SigmaClass) -> Verdict:
    """Flatness decided on the 1-cell dual of the total category and its
    opcartesian class, as :func:`opcartesian_class` returns them."""
    if not dual.cells0:
        return negative("flat", {"reason": "empty category of elements"})
    from .filtered import check_sigma_filtered

    inner = check_sigma_filtered(dual, opcart)
    if inner:
        return positive("flat", inner.witnesses)
    return negative("flat", inner.counterexample)


def check_flat(pf: CatPseudoFunctor) -> Verdict:
    """Class-filteredness of the dualized total category at opcartesians."""
    return _flat_verdict(*opcartesian_class(elements_category(pf)))


class NotFlatError(ValidationError):
    """The diagram given to :func:`decompose_flat` is not flat."""


@dataclass(eq=False)
class StageReconstruction:
    stage: str
    colimit: ColimitCat
    comparison: Functor
    equivalence: Verdict
    direct: Verdict          # analysis of the comparison functor itself


@dataclass(eq=False)
class DecompositionReport:
    functor: CatPseudoFunctor
    index: TwoCat
    stages: dict[str, StageReconstruction]
    natural_on: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(s.equivalence.outcome and s.direct.outcome for s in self.stages.values()) and all(
            self.natural_on.values()
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "stages": {
                j: {
                    "equivalence": s.equivalence.to_dict()["outcome"],
                    "comparison": s.direct.to_dict()["outcome"],
                }
                for j, s in sorted(self.stages.items())
            },
            "natural_on": dict(sorted(self.natural_on.items())),
            "ok": self.ok,
        }


def _restriction_diagram(pf: CatPseudoFunctor, sub: TwoCat, el: ElementsCat, j: str) -> CatPseudoFunctor:
    """The hom-valued diagram over the opcartesian index, evaluated at j.

    Assembled without a replay: it is hom(-, j) of the base composed with the
    projection of the elements, strict by associativity of the base, and its
    2-cell action is natural by interchange.
    """
    base = pf.source
    on0 = {}
    for n in sub.cells0:
        c, _ = el.obj_of[n]
        on0[n] = base.hom[(c, j)]
    on1 = {}
    for m in sub.one_home:
        f, _ = el.cell1_of[m]
        nB, nA = sub.one_home[m]
        on1[m] = Functor(
            f"(-o{f})@{j}",
            on0[nB],
            on0[nA],
            {g: base.hcomp1[(g, f)] for g in on0[nB].objects},
            {a: base.whisker_r(a, f) for a in on0[nB].dom},
        )
    on2 = {}
    for m2 in sub.two_home:
        alpha = el.cell2_of[m2]
        m_dom, m_cod = sub.dom2(m2), sub.cod2(m2)
        nB = sub.one_home[m_dom][0]
        on2[m2] = NatTrans(
            f"(-o{alpha})@{j}",
            on1[m_dom],
            on1[m_cod],
            {g: base.whisker_l(g, alpha) for g in on0[nB].objects},
        )
    return _assemble_pseudofunctor(f"{pf.name}@{j}", sub, on0, on1, on2)


def _stage_comparison(
    pf: CatPseudoFunctor, el: ElementsCat, j: str, colim: ColimitCat
) -> Functor:
    """Canonical functor from the reconstructed stage to the actual fiber.

    Assembled without a replay: it is the functor that the evaluation cocone
    into the fiber induces, read off each class representative.
    """
    base = pf.source
    fib = pf.on0[j]
    obj_map = {}
    for (n, g), oname in colim.obj_name.items():
        c, x = el.obj_of[n]
        obj_map[oname] = pf.on1[g].obj_map[x]
    mor_map = {}
    for cname, rep in colim.class_rep.items():
        n1, g1 = rep.src
        n2, g2 = rep.dst
        f_s, phi_s = el.cell1_of[rep.left]
        f_d, phi_d = el.cell1_of[rep.right]
        napex = rep.apex
        x_apex = el.obj_of[napex][1]
        phi_s_inv = fib_of(pf, rep.left, el).must_inverse(phi_s)
        chain = pf.on1[g1].mor_map[phi_s_inv]
        chain = fib.table[(pf.comp[(g1, f_s)].components[x_apex], chain)]
        chain = fib.table[(pf.on2[rep.cell].components[x_apex], chain)]
        back = fib.must_inverse(pf.comp[(g2, f_d)].components[x_apex])
        chain = fib.table[(back, chain)]
        chain = fib.table[(pf.on1[g2].mor_map[phi_d], chain)]
        mor_map[cname] = chain
    return Functor(f"eval@{j}", colim.result, fib, obj_map, mor_map)


def fib_of(pf: CatPseudoFunctor, cell1: str, el: ElementsCat) -> FinCat:
    """Fiber category containing the fiber component of an elements 1-cell."""
    f, _ = el.cell1_of[cell1]
    return pf.on0[pf.source.one_home[f][1]]


def decompose_flat(pf: CatPseudoFunctor) -> DecompositionReport:
    """Reconstruct each fiber as a filtered colimit of hom categories.

    Requires flatness and raises :class:`NotFlatError` otherwise, so a
    caller that needs the verdict and the decomposition builds the elements
    category once.  For every base 0-cell the colimit
    of the restricted hom diagram over the opcartesian index is compared to
    the actual fiber by a direct analysis of the canonical evaluation
    functor, and by the generic equivalence decision only where that
    functor is not an equivalence: an equivalence exists whenever the
    canonical one is, so ``equivalence`` then reuses the direct verdict.
    All base 1-cells get a pseudonaturality check of the evaluation squares.
    """
    el = elements_category(pf)
    dual, opcart = opcartesian_class(el)
    flat = _flat_verdict(dual, opcart)
    if not flat:
        raise NotFlatError(pf.name, [f"not flat: {flat.counterexample}"])
    closed = sigma_closure(opcart)
    sub = full_sub_on_one_cells(dual, closed.members, name=f"{dual.name}|opcart")
    base = pf.source

    stages: dict[str, StageReconstruction] = {}
    comparisons: dict[str, Functor] = {}
    colimits: dict[str, ColimitCat] = {}
    for j in sorted(base.cells0):
        diagram = _restriction_diagram(pf, sub, el, j)
        colim = bifiltered_bicolimit(diagram)
        comparison = _stage_comparison(pf, el, j, colim)
        direct = functor_is_equivalence(comparison)
        equivalence = direct if direct else check_equivalence(colim.result, pf.on0[j])
        stages[j] = StageReconstruction(j, colim, comparison, equivalence, direct)
        comparisons[j] = comparison
        colimits[j] = colim

    natural_on: dict[str, bool] = {}
    for s in base.one_cells:
        j, j2 = base.one_home[s]
        induced = _postcomposition_functor(pf, el, sub, s, colimits[j], colimits[j2])
        lhs = compose_functors(comparisons[j2], induced)
        rhs = compose_functors(pf.on1[s], comparisons[j])
        comps = {}
        for (n, g), oname in colimits[j].obj_name.items():
            x = el.obj_of[n][1]
            comps[oname] = pf.comp[(s, g)].components[x]
        candidate = NatTrans(f"nat@{s}", rhs, lhs, comps)
        natural_on[s] = not nattrans_violations(candidate)
    return DecompositionReport(pf, sub, stages, natural_on)


def _postcomposition_functor(
    pf: CatPseudoFunctor,
    el: ElementsCat,
    sub: TwoCat,
    s: str,
    source: ColimitCat,
    target: ColimitCat,
) -> Functor:
    """Functor between stage reconstructions induced by a base 1-cell.

    The cocone is postcomposition with the base 1-cell followed by the target
    colimit's own cocone, valid by construction, so it factors unchecked.
    """
    base = pf.source
    legs = {}
    cells = {}
    for n in sub.cells0:
        post = _hom_postcomposition(base, s, el.obj_of[n][0], f"({s}o-)@{n}")
        legs[n] = compose_functors(target.cocone[n], post)
    for m in sub.one_home:
        nB, nA = sub.one_home[m]
        cB = el.obj_of[nB][0]
        j = base.one_home[s][0]
        comps = {}
        for g in base.cells1(cB, j):
            comps[g] = target.transitions[m].components[base.hcomp1[(s, g)]]
        cells[m] = NatTrans(
            f"move_{m}",
            compose_functors(legs[nA], source.diagram.on1[m]),
            legs[nB],
            comps,
        )
    return _mediating_functor(source, target.result, legs, cells).functor


# ---------------------------------------------------------------------------
# Preservation of finite bilimit instances


@dataclass(eq=False)
class BilimitInstance:
    kind: str
    data: dict[str, str]


# the data keys of each kind of instance that name a 0-, 1- and 2-cell
_INSTANCE_CELLS: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    "biterminal": (("apex",), (), ()),
    "biproduct": (("apex",), ("left_leg", "right_leg"), ()),
    "biequalizer": (("apex",), ("leg", "left", "right"), ("cell",)),
    "arrow_cotensor": (("apex",), ("dom_leg", "cod_leg"), ("cell",)),
}


def validate_bilimit_instance(tc: TwoCat, instance: BilimitInstance) -> list[str]:
    """Check that the supplied cone really is a bilimit cone in the base.

    Every name the instance's kind needs is looked up before any is used.
    A cone is a bilimit exactly when every hom(j, -) sends it to a bilimit
    in Cat.  Once the cone's legs and cell are checked to be typed, that is
    decided at each 0-cell j by the test of
    :func:`check_flat_preserves_bilimits` on the representable hom(j, -).
    """
    kind, data = instance.kind, instance.data
    if kind not in _INSTANCE_CELLS:
        return [f"unknown bilimit kind {kind!r}"]
    missing = [
        f"{key} {data.get(key)!r} names no {dim} of {tc.name!r}"
        for keys, cells, dim in zip(
            _INSTANCE_CELLS[kind],
            (tc.cells0, tc.one_home, tc.two_home),
            ("0-cell", "1-cell", "2-cell"),
        )
        for key in keys
        if not isinstance(data.get(key), str) or data[key] not in cells
    ]
    if missing:
        return missing
    if kind == "biproduct":
        p, pr1, pr2 = data["apex"], data["left_leg"], data["right_leg"]
        if tc.one_home[pr1][0] != p or tc.one_home[pr2][0] != p:
            return ["cone legs do not start at the apex"]
    elif kind == "biequalizer":
        u, f, g, xi = data["leg"], data["left"], data["right"], data["cell"]
        if tc.one_home[u][0] != data["apex"]:
            return ["cone legs do not start at the apex"]
        if tc.hcomp1[(f, u)] != tc.dom2(xi) or tc.hcomp1[(g, u)] != tc.cod2(xi):
            return ["cone cell has wrong boundary"]
        if not tc.invertible2(xi):
            return ["cone cell is not invertible"]
    elif kind == "arrow_cotensor":
        t, e0, e1, tau = data["apex"], data["dom_leg"], data["cod_leg"], data["cell"]
        if tc.one_home[e0][0] != t or tc.dom2(tau) != e0 or tc.cod2(tau) != e1:
            return ["cone cell has wrong boundary"]
    return [
        f"hom({j!r},-) does not send the cone to a bilimit"
        for j in tc.cells0
        if not _image_verdict(representable_pseudofunctor(tc, j), instance)
    ]


def check_flat_preserves_bilimits(pf: CatPseudoFunctor, instance: BilimitInstance) -> Verdict:
    """Whether the image of a bilimit cone in the base is again one in Cat.

    The instance is validated first; each comparison is then assembled
    directly, a functor by the naturality of F's cells on the cone.
    """
    bad = validate_bilimit_instance(pf.source, instance)
    if bad:
        raise ValidationError("bilimit-instance", bad)
    return _image_verdict(pf, instance)


def _image_verdict(pf: CatPseudoFunctor, instance: BilimitInstance) -> Verdict:
    """Whether F sends a typed cone of a known kind to a bilimit in Cat."""
    tc = pf.source
    kind, data = instance.kind, instance.data
    if kind == "biterminal":
        return check_equivalence(pf.on0[data["apex"]], zoo.terminal())
    if kind == "biproduct":
        prod = biproduct(pf.on0[tc.one_home[data["left_leg"]][1]], pf.on0[tc.one_home[data["right_leg"]][1]])
        comparison = prod.pairing(pf.on1[data["left_leg"]], pf.on1[data["right_leg"]], name="image_probe")
        return functor_is_equivalence(comparison)
    if kind == "biequalizer":
        u, f, g, xi = data["leg"], data["left"], data["right"], data["cell"]
        eq = biequalizer(pf.on1[f], pf.on1[g])
        fibw = pf.on0[tc.one_home[u][0]]
        fib_b = pf.on0[tc.one_home[f][1]]
        obj_map = {}
        mor_map = {}
        for x in fibw.objects:
            theta = fib_b.table[(pf.on2[xi].components[x], pf.comp[(f, u)].components[x])]
            back = fib_b.must_inverse(pf.comp[(g, u)].components[x])
            theta = fib_b.table[(back, theta)]
            obj_map[x] = eq.object_at.get((pf.on1[u].obj_map[x], theta))
            if obj_map[x] is None:
                return negative(
                    "preserves-bilimit",
                    {"reason": "image cone misses the equalizer", "object": x},
                )
        for m in fibw.dom:
            src, tgt = obj_map[fibw.dom[m]], obj_map[fibw.cod[m]]
            mor_map[m] = eq.mor(pf.on1[u].mor_map[m], src, tgt)
        comparison = Functor("image_probe", fibw, eq.category, obj_map, mor_map)
        return functor_is_equivalence(comparison)
    # an arrow cotensor, the one kind left
    e0, e1, tau = data["dom_leg"], data["cod_leg"], data["cell"]
    fib_t = pf.on0[tc.one_home[e0][0]]
    cot = arrow_cotensor(pf.on0[tc.one_home[e0][1]])
    obj_map = {x: pf.on2[tau].components[x] for x in fib_t.objects}
    mor_map = {}
    for m in fib_t.dom:
        mor_map[m] = cot.square(
            pf.on1[e0].mor_map[m],
            pf.on1[e1].mor_map[m],
            obj_map[fib_t.dom[m]],
            obj_map[fib_t.cod[m]],
        )
    comparison = Functor("image_probe", fib_t, cot.category, obj_map, mor_map)
    return functor_is_equivalence(comparison)
