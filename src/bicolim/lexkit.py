"""Finite-limit structure detection and its stability under filtered colimits.

Finite completeness is reduced to the standard generating triple: a terminal
object, binary products, and equalizers of parallel pairs.  Every universal
property is certified by exhaustive search.

A finite lex category is a preorder: |hom(x, a)| ≥ 2 would give
|hom(x, aⁿ)| ≥ 2ⁿ for every n, which no finite category allows (the finite
case of Freyd's theorem that a small complete category is a preorder).  A
filtered colimit of preorders is a preorder, and in a preorder the limit of a
diagram depends only on its set of objects.  So the colimit verification
decides the stage-wise limit formula once per set of at most 3 objects of the
colimit, at one stage that covers them all, and that decision holds for
every diagram on the set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from .colim import ColimitCat
from .fincat import FinCat, Functor, ValidationError
from .verdict import Verdict, negative, positive


class NotLexError(ValueError):
    """A fiber or a transition of a diagram given as lex is not lex."""


# ---------------------------------------------------------------------------
# Limits of finite diagrams by exhaustive search

# apex -> the cones with that apex, each a tuple of legs by position
Cones = dict[str, list[tuple[str, ...]]]
# object p -> |hom(x, p)| for each x in object order
HomSizes = dict[str, tuple[int, ...]]


def _hom_product(cat: FinCat, x: str, objs: list[str]) -> list[tuple[str, ...]]:
    """Every family of arrows x -> o, one for each o in ``objs``, in product order."""
    return list(itertools.product(*[cat.hom(x, o) for o in objs]))


def _cones(cat: FinCat, objs: list[str], mors: list[str], families: Cones) -> Cones:
    """For each apex x, the families out of x, legs in ``objs`` order, that
    commute with every arrow of ``mors``: the cones over that graph."""
    at = {o: k for k, o in enumerate(objs)}
    arrows = [(m, at[cat.dom[m]], at[cat.cod[m]]) for m in mors]
    table = cat.table
    return {
        x: [legs for legs in out if all(table[(m, legs[s])] == legs[t] for m, s, t in arrows)]
        for x, out in families.items()
    }


def _hom_sizes(cat: FinCat) -> HomSizes:
    """The cone counts that a limit with apex p must have, for each p."""
    return {p: tuple(len(cat.hom(x, p)) for x in cat.objects) for p in cat.objects}


def _is_injective(cat: FinCat, apex: str, legs: tuple[str, ...], cones: Cones) -> bool:
    """Whether m ↦ legs∘m is injective on hom(x, apex) at every x with two
    or more cones; where hom(x, apex) and cones[x] have one size, a map out
    of at most one arrow is injective."""
    table = cat.table
    for x, over in cones.items():
        if len(over) > 1:
            hom = cat.hom(x, apex)
            if len({tuple(table[(leg, m)] for leg in legs) for m in hom}) != len(hom):
                return False
    return True


def _is_limiting(cat: FinCat, apex: str, legs: tuple[str, ...], cones: Cones) -> bool:
    """Whether m ↦ legs∘m is a bijection hom(x, apex) -> cones[x] for every x.

    ``legs`` is a cone, so each legs∘m is one too; the map is then a
    bijection exactly when both sides have one size and it is injective.
    The sizes are compared at every x before any image is formed.
    """
    if any(len(cat.hom(x, apex)) != len(over) for x, over in cones.items()):
        return False
    return _is_injective(cat, apex, legs, cones)


def _first_limit(cat: FinCat, cones: Cones, sizes: HomSizes) -> tuple[str, tuple[str, ...]] | None:
    """The first cone, apex by apex in object order and in list order at
    each apex, through which every cone of ``cones`` factors uniquely.

    ``sizes`` is :func:`_hom_sizes` of ``cat``, so an apex is tried only
    where its hom sizes match the cone counts, and a cone there is limiting
    exactly when it images those homs injectively.
    """
    counts = tuple(len(cones[x]) for x in cat.objects)
    for apex in cat.objects:
        if sizes[apex] == counts:
            for legs in cones[apex]:
                if _is_injective(cat, apex, legs, cones):
                    return apex, legs
    return None


def limit_of_diagram(
    cat: FinCat, objs: list[str], mors: list[str]
) -> tuple[str, dict[str, str]] | None:
    """A limiting cone over a finite graph diagram, or None.

    Cones are tried apex by apex in object order, legs in product order over
    the sorted objects; the first limiting one is returned.
    """
    objs = sorted(set(objs))
    families = {x: _hom_product(cat, x, objs) for x in cat.objects}
    hit = _first_limit(cat, _cones(cat, objs, mors, families), _hom_sizes(cat))
    return None if hit is None else (hit[0], dict(zip(objs, hit[1])))


def _product_cones(cat: FinCat, a: str, b: str) -> Cones:
    """For each x, every pair of arrows (x -> a, x -> b); the legs are
    independent, so a = b gives pairs too."""
    return {x: list(itertools.product(cat.hom(x, a), cat.hom(x, b))) for x in cat.objects}


def _equalizing_cones(cat: FinCat, f: str, g: str) -> Cones:
    """For each x, the arrows h: x -> dom f with f∘h = g∘h, as one-leg cones."""
    a, table = cat.dom[f], cat.table
    return {
        x: [(h,) for h in cat.hom(x, a) if table[(f, h)] == table[(g, h)]] for x in cat.objects
    }


@dataclass
class LexReport:
    ok: bool
    terminal: str | None = None
    products: dict[tuple[str, str], tuple[str, str, str]] = field(default_factory=dict)
    equalizers: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)
    failure: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        if not self.ok:
            return {"ok": False, "failure": self.failure}
        return {
            "ok": True,
            "terminal": self.terminal,
            "products": {f"{a},{b}": list(v) for (a, b), v in sorted(self.products.items())},
            "equalizers": {f"{f},{g}": list(v) for (f, g), v in sorted(self.equalizers.items())},
        }


def finite_limit_witnesses(cat: FinCat) -> LexReport:
    """Terminal object, binary products and equalizers, with certificates."""
    sizes = _hom_sizes(cat)
    hit = _first_limit(cat, {x: [()] for x in cat.objects}, sizes)
    if hit is None:
        return LexReport(False, failure={"shape": "terminal"})
    terminal = hit[0]
    products = {}
    for a, b in itertools.combinations_with_replacement(cat.objects, 2):
        got = _first_limit(cat, _product_cones(cat, a, b), sizes)
        if got is None:
            return LexReport(False, failure={"shape": "product", "pair": [a, b]})
        products[(a, b)] = (got[0], *got[1])
    equalizers = {}
    for f in cat.morphisms:
        for g in cat.hom(cat.dom[f], cat.cod[f]):
            if f > g:
                continue
            got = _first_limit(cat, _equalizing_cones(cat, f, g), sizes)
            if got is None:
                return LexReport(False, failure={"shape": "equalizer", "pair": [f, g]})
            equalizers[(f, g)] = (got[0], got[1][0])
    return LexReport(True, terminal, products, equalizers)


# ---------------------------------------------------------------------------
# Lex functors


def is_lex_functor(fun: Functor) -> Verdict:
    """Preservation of the witness triple, up to isomorphism, checked directly."""
    return _preserves_witnesses(fun, finite_limit_witnesses(fun.source))


def _preserves_witnesses(fun: Functor, src_report: LexReport) -> Verdict:
    """:func:`is_lex_functor` on the witness report of ``fun.source``, so a
    caller with many functors out of one category computes it once."""
    if not src_report.ok:
        return negative("lex-functor", {"reason": "source not lex", **src_report.failure})
    tgt = fun.target
    t_img = fun.obj_map[src_report.terminal]
    for x in tgt.objects:
        if len(tgt.hom(x, t_img)) != 1:
            return negative(
                "lex-functor",
                {"reason": "terminal not preserved", "at": x, "image": t_img},
            )
    for (a, b), (p, l1, l2) in src_report.products.items():
        if not _is_product_cone(
            tgt, fun.obj_map[p], fun.mor_map[l1], fun.mor_map[l2],
            fun.obj_map[a], fun.obj_map[b],
        ):
            return negative(
                "lex-functor", {"reason": "product not preserved", "pair": [a, b]}
            )
    for (f, g), (e, eq) in src_report.equalizers.items():
        if not _is_equalizer_cone(tgt, fun.obj_map[e], fun.mor_map[eq], fun.mor_map[f], fun.mor_map[g]):
            return negative(
                "lex-functor", {"reason": "equalizer not preserved", "pair": [f, g]}
            )
    return positive("lex-functor", [{"terminal": t_img}])


def _is_product_cone(cat: FinCat, apex: str, l1: str, l2: str, a: str, b: str) -> bool:
    if cat.dom[l1] != apex or cat.cod[l1] != a or cat.dom[l2] != apex or cat.cod[l2] != b:
        return False
    return _is_limiting(cat, apex, (l1, l2), _product_cones(cat, a, b))


def _is_equalizer_cone(cat: FinCat, apex: str, eq: str, f: str, g: str) -> bool:
    if cat.dom[eq] != apex or cat.cod[eq] != cat.dom[f]:
        return False
    if cat.table[(f, eq)] != cat.table[(g, eq)]:
        return False
    return _is_limiting(cat, apex, (eq,), _equalizing_cones(cat, f, g))


# ---------------------------------------------------------------------------
# Stability under filtered colimits


@dataclass
class LexColimitReport:
    colimit_lex: LexReport
    legs_lex: dict[str, Verdict]
    # object sets decided; the name is kept for the readers of the output
    sampled_diagrams: int
    limit_formula_failures: list[dict[str, Any]]

    @property
    def ok(self) -> bool:
        return (
            self.colimit_lex.ok
            and all(v.outcome for v in self.legs_lex.values())
            and not self.limit_formula_failures
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "colimit_lex": self.colimit_lex.ok,
            "legs_lex": {i: v.outcome for i, v in sorted(self.legs_lex.items())},
            "sampled_diagrams": self.sampled_diagrams,
            "limit_formula_failures": self.limit_formula_failures,
            "ok": self.ok,
        }


def _covering_stage(colim: ColimitCat) -> tuple[str, dict[str, str]]:
    """The first 0-cell, in sorted order, whose leg reaches every object of
    the colimit up to isomorphism, with each colimit object's preimage: the
    first fiber object that reaches it."""
    label = colim.iso_label
    for i in sorted(colim.diagram.source.cells0):
        q = colim.cocone[i]
        first: dict[str, str] = {}
        for a in colim.diagram.on0[i].objects:
            first.setdefault(label[q.obj_map[a]], a)
        if all(label[o] in first for o in colim.result.objects):
            return i, {o: first[label[o]] for o in colim.result.objects}
    raise ValidationError(colim.result.name, ["no stage reaches every object of the colimit"])


def _object_set_verdicts(colim: ColimitCat) -> list[tuple[tuple[str, ...], str, str | None]]:
    """(objects, stage, reason) for each set of 1–3 colimit objects, in
    combination order over the sorted objects; ``reason`` names how the
    stage-wise limit formula fails on the set, or is None where it holds.

    The colimit must be thin, and is when it is a filtered colimit of lex
    categories: a finite lex category is thin, and so is a filtered colimit
    of thin categories.  In a thin category every diagram on a set of
    objects has the cones of the discrete diagram on it, so one decision
    per set covers every diagram on it, whatever its arrows.  Each set is
    lifted to the covering stage (:func:`_covering_stage`) by its objects'
    preimages; their limit there, pushed along the leg and the unique
    arrows back, must be limiting in the colimit.
    """
    res = colim.result
    for x in res.objects:
        for y in res.objects:
            if len(res.hom(x, y)) > 1:
                raise ValidationError(
                    res.name, [f"colimit not thin: hom({x}, {y}) has {len(res.hom(x, y))} arrows"]
                )
    stage, preimage = _covering_stage(colim)
    fiber, q = colim.diagram.on0[stage], colim.cocone[stage]
    sizes = _hom_sizes(fiber)
    back = {o: res.hom(q.obj_map[a], o)[0] for o, a in preimage.items()}
    verdicts = []
    for r in range(1, 4):
        for objs in itertools.combinations(sorted(res.objects), r):
            pre = sorted({preimage[o] for o in objs})
            limit = _first_limit(fiber, {x: _hom_product(fiber, x, pre) for x in fiber.objects}, sizes)
            if limit is None:
                verdicts.append((objs, stage, "no stage limit"))
                continue
            apex, legs = limit
            leg = dict(zip(pre, legs))
            pushed = tuple(res.table[(back[o], q.mor_map[leg[preimage[o]]])] for o in objs)
            families = {x: _hom_product(res, x, list(objs)) for x in res.objects}
            limiting = _is_limiting(res, q.obj_map[apex], pushed, families)
            verdicts.append((objs, stage, None if limiting else "pushed cone not limiting"))
    return verdicts


def verify_lex_bicolimit(colim: ColimitCat) -> LexColimitReport:
    """The three stability assertions for a diagram of lex categories, on
    its computed colimit.

    (a) the colimit has the witness triple; (b) every inclusion is a lex
    functor; (c) for each set of at most 3 objects of the colimit, and so
    for every diagram on it, lifting it to a stage, taking the limit there,
    and pushing back yields a limit (:func:`_object_set_verdicts`).  A fiber
    or transition of ``colim.diagram`` that is not lex raises
    :class:`NotLexError`; a colimit that is not thin, or that no stage
    covers, raises :class:`ValidationError`.
    """
    pf = colim.diagram
    reports: dict[str, LexReport] = {}
    for i in sorted(pf.source.cells0):
        reports[i] = finite_limit_witnesses(pf.on0[i])
        if not reports[i].ok:
            raise NotLexError(f"fiber at {i!r} is not lex: {reports[i].failure}")
    for d in sorted(pf.source.one_home):
        verdict = _preserves_witnesses(pf.on1[d], reports[pf.source.one_home[d][0]])
        if not verdict:
            raise NotLexError(f"leg at {d!r} is not lex: {verdict.counterexample}")
    colimit_lex = finite_limit_witnesses(colim.result)
    legs_lex = {i: _preserves_witnesses(colim.cocone[i], reports[i]) for i in reports}
    verdicts = _object_set_verdicts(colim)
    failures = [
        {"objects": list(objs), "stage": stage, "reason": reason}
        for objs, stage, reason in verdicts
        if reason is not None
    ]
    return LexColimitReport(colimit_lex, legs_lex, len(verdicts), failures)
