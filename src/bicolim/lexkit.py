"""Finite-limit structure detection and its stability under filtered colimits.

Finite completeness is reduced to the standard generating triple: a terminal
object, binary products, and equalizers of parallel pairs.  Every universal
property is certified by exhaustive search, and the colimit verification
replays the stage-wise limit construction for a bounded family of sampled
diagrams inside the computed colimit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .colim import ColimitCat
from .compact import OneCellLift, lift_one_cell
from .fincat import FinCat, Functor, _assemble_composed
from .verdict import Verdict, negative, positive


class NotLexError(ValueError):
    """A fiber or a transition of a diagram given as lex is not lex."""


# ---------------------------------------------------------------------------
# Limits of finite diagrams by exhaustive search

# apex -> the cones with that apex, each a tuple of legs by position
Cones = dict[str, list[tuple[str, ...]]]


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


def _is_limiting(cat: FinCat, apex: str, legs: tuple[str, ...], cones: Cones) -> bool:
    """Whether m ↦ legs∘m is a bijection hom(x, apex) -> cones[x] for every x.

    ``legs`` is a cone, so each legs∘m is one too; the map is then a
    bijection exactly when it is injective and both sides have one size.
    """
    table = cat.table
    for x, over in cones.items():
        hom = cat.hom(x, apex)
        if len(hom) != len(over):
            return False
        if len({tuple(table[(leg, m)] for leg in legs) for m in hom}) != len(hom):
            return False
    return True


def _first_limit(cat: FinCat, cones: Cones) -> tuple[str, tuple[str, ...]] | None:
    """The first cone, apex by apex in object order and in list order at
    each apex, through which every cone of ``cones`` factors uniquely."""
    for apex in cat.objects:
        for legs in cones[apex]:
            if _is_limiting(cat, apex, legs, cones):
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
    hit = _first_limit(cat, _cones(cat, objs, mors, families))
    return None if hit is None else (hit[0], dict(zip(objs, hit[1])))


def _product_cones(cat: FinCat, a: str, b: str) -> Cones:
    """For each x, every pair of arrows (x -> a, x -> b); the legs are
    independent, so a = b gives pairs too."""
    return {x: _hom_product(cat, x, [a, b]) for x in cat.objects}


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
    hit = limit_of_diagram(cat, [], [])
    if hit is None:
        return LexReport(False, failure={"shape": "terminal"})
    terminal = hit[0]
    products = {}
    for a, b in itertools.combinations_with_replacement(cat.objects, 2):
        got = _first_limit(cat, _product_cones(cat, a, b))
        if got is None:
            return LexReport(False, failure={"shape": "product", "pair": [a, b]})
        products[(a, b)] = (got[0], *got[1])
    equalizers = {}
    for f in cat.morphisms:
        for g in cat.morphisms:
            if f > g or cat.dom[f] != cat.dom[g] or cat.cod[f] != cat.cod[g]:
                continue
            got = _first_limit(cat, _equalizing_cones(cat, f, g))
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


def _sample_diagrams(cat: FinCat, max_objects: int = 3, max_morphisms: int = 4):
    """All graph diagrams with at most 3 objects and 4 non-identity arrows."""
    nonid = [m for m in cat.morphisms if not cat.is_identity(m)]
    for r in range(1, max_objects + 1):
        for objs in itertools.combinations(sorted(cat.objects), r):
            objset = set(objs)
            inner = [m for m in nonid if cat.dom[m] in objset and cat.cod[m] in objset]
            for k in range(0, min(max_morphisms, len(inner)) + 1):
                for mors in itertools.combinations(inner, k):
                    yield list(objs), list(mors)


def _composition_closure(cat: FinCat, objs: list[str], mors: list[str]) -> set[str]:
    """The morphisms generated by a graph diagram: identities and composites.

    A morphism leaving the work list is composed, on both sides, with every
    morphism kept so far that meets it, found in indexes of the kept
    morphisms by domain and by codomain; so each composable pair is composed
    once its later member leaves the list.  Identities, whose composites are
    known, never enter it.
    """
    keep = set(mors) | {cat.identity[o] for o in objs}
    out_of: dict[str, list[str]] = {}
    into: dict[str, list[str]] = {}
    for m in keep:
        out_of.setdefault(cat.dom[m], []).append(m)
        into.setdefault(cat.cod[m], []).append(m)
    todo = list(mors)
    while todo:
        m = todo.pop()
        made = [cat.table[(n, m)] for n in out_of.get(cat.cod[m], ())]
        made += [cat.table[(m, n)] for n in into.get(cat.dom[m], ())]
        for gf in made:
            if gf not in keep:
                keep.add(gf)
                out_of.setdefault(cat.dom[gf], []).append(gf)
                into.setdefault(cat.cod[gf], []).append(gf)
                todo.append(gf)
    return keep


def _generated_subcategory(cat: FinCat, objs: list[str], keep: Iterable[str]) -> FinCat:
    """The subcategory on the sorted ``objs`` with the composition-closed
    morphisms ``keep``.

    A subset of a category's morphisms that holds the identities and is
    closed under composition is a category with the inherited table, so it
    is assembled without replaying the axioms.
    """
    return _assemble_composed(
        f"{cat.name}|gen",
        objs,
        [(m, cat.dom[m], cat.cod[m]) for m in sorted(keep)],
        {o: cat.identity[o] for o in objs},
        lambda g, f, x, z: cat.table[(g, f)],
    )


def _distinct_samples(cat: FinCat) -> Iterator[tuple[tuple, list[str]]]:
    """The sampled diagrams, one per composition closure, as (key, generating
    arrows) pairs; the key is the objects and the sorted closure."""
    seen: set[tuple] = set()
    for objs, mors in _sample_diagrams(cat):
        key = (tuple(objs), tuple(sorted(_composition_closure(cat, objs, mors))))
        if key not in seen:
            seen.add(key)
            yield key, mors


def _lift_objects(colim: ColimitCat, objs: list[str]) -> OneCellLift:
    """A lift to a stage of the full subcategory of the colimit on ``objs``.

    Every sample on ``objs`` is a subcategory of it, so the lift's
    restriction lifts the sample, with the same comparison components.
    """
    res = colim.result
    objset = set(objs)
    full = _generated_subcategory(
        res, objs, [m for m in res.morphisms if res.dom[m] in objset and res.cod[m] in objset]
    )
    # the inclusion of a subcategory is a functor by construction
    include = Functor("include", full, res, {o: o for o in objs}, {m: m for m in full.dom})
    return lift_one_cell(full, colim, include)


def _binding_targets(cat: FinCat) -> frozenset[str]:
    """The objects t with two arrows x -> t from some x.

    Only an arrow into one of them can bind a cone.  For m : s -> t into any
    other object, m∘leg_s and leg_t lie in a hom with at most one element,
    so they agree; the cones over a diagram, and with them its limits, are
    those over its arrows into binding targets.
    """
    return frozenset(
        t for t in cat.objects if any(len(cat.hom(x, t)) > 1 for x in cat.objects)
    )


def _pushed_limit_failure(
    colim: ColimitCat,
    lift: OneCellLift,
    back: dict[str, str],
    objs: list[str],
    binding: tuple[str, ...],
    families: Cones,
    limit: tuple[str, dict[str, str]] | None,
) -> str | None:
    """How the stage-wise limit formula fails for a sample on ``objs`` with
    binding arrows ``binding`` whose stage limit is ``limit``, or None where
    it holds: the limit, pushed to the colimit along the cocone and the
    inverse comparison ``back``, must be limiting there."""
    if limit is None:
        return "no stage limit"
    res = colim.result
    apex, legs = limit
    q, b = colim.cocone[lift.stage], lift.functor
    pushed_apex = q.obj_map[apex]
    pushed = tuple(res.table[(back[o], q.mor_map[legs[b.obj_map[o]]])] for o in objs)
    cones = _cones(res, objs, list(binding), families)
    if pushed in cones[pushed_apex] and _is_limiting(res, pushed_apex, pushed, cones):
        return None
    return "pushed cone not limiting"


def _sample_verdicts(colim: ColimitCat) -> Iterator[tuple[tuple, str, str | None]]:
    """(key, stage, reason) for each distinct sampled diagram in the colimit,
    in sample order; ``reason`` names how the stage-wise limit formula
    fails, or is None where it holds.

    The samples on one object set share one lift of the full subcategory on
    it, and each is mapped into that lift's stage.  The limit there, pushed
    to the colimit along the cocone and the inverse comparison, must be
    limiting.  Cones are decided over the generating arrows, whose cones are
    those over their composition closure, and of those only over the arrows
    that can bind a cone (:func:`_binding_targets`), in the colimit and in
    the stage alike.  The families Π_o hom(x, o) are shared by the samples
    of a set.

    One lift per object set relies on ``_sample_diagrams`` yielding the
    samples of each object set together, as its outer loop over object sets
    does.  Stage limits are kept per (stage, image objects, binding image
    arrows): the colimit holds isomorphic copies of stage objects, so
    distinct object sets often map to the same stage diagram.  A sample's
    verdict depends only on its object set, its binding arrows and its
    stage limit, so it is decided once per (binding arrows, binding image
    arrows) within a set.  The bundled lex colimits and their fibers are
    thin, so no arrow binds there: the 1,364 samples need 192 decisions, one
    per object set.
    """
    res = colim.result
    targets = _binding_targets(res)
    stage_targets: dict[str, frozenset[str]] = {}
    stage_limits: dict[tuple, tuple[str, dict[str, str]] | None] = {}
    for objs, samples in itertools.groupby(_distinct_samples(res), key=lambda s: s[0][0]):
        objs = list(objs)
        lift = _lift_objects(colim, objs)
        stage, b = lift.stage, lift.functor
        fiber = colim.diagram.on0[stage]
        if stage not in stage_targets:
            stage_targets[stage] = _binding_targets(fiber)
        binds_in_stage = stage_targets[stage]
        back = {o: res.must_inverse(c) for o, c in lift.comparison.components.items()}
        families = {x: _hom_product(res, x, objs) for x in res.objects}
        image_objs = sorted({b.obj_map[o] for o in objs})
        decided: dict[tuple, str | None] = {}
        for key, mors in samples:
            binding = tuple(m for m in mors if res.cod[m] in targets)
            image_mors = tuple(
                sorted({b.mor_map[m] for m in mors if b.obj_map[res.cod[m]] in binds_in_stage})
            )
            limit_key = (stage, tuple(image_objs), image_mors)
            if limit_key not in stage_limits:
                stage_limits[limit_key] = limit_of_diagram(fiber, image_objs, list(image_mors))
            if (binding, image_mors) not in decided:
                decided[(binding, image_mors)] = _pushed_limit_failure(
                    colim, lift, back, objs, binding, families, stage_limits[limit_key]
                )
            yield key, stage, decided[(binding, image_mors)]


def verify_lex_bicolimit(colim: ColimitCat) -> LexColimitReport:
    """The three stability assertions for a diagram of lex categories, on
    its computed colimit.

    (a) the colimit has the witness triple; (b) every inclusion is a lex
    functor; (c) for each sampled diagram in the colimit, lifting it to a
    stage, taking the limit there, and pushing back yields a limit.  A fiber
    or transition of ``colim.diagram`` that is not lex raises
    :class:`NotLexError`.
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
    verdicts = list(_sample_verdicts(colim))
    failures = [
        {"diagram": key, "stage": stage, "reason": reason}
        for key, stage, reason in verdicts
        if reason is not None
    ]
    return LexColimitReport(colimit_lex, legs_lex, len(verdicts), failures)
