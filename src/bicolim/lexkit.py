"""Finite-limit structure detection and its stability under filtered colimits.

Finite completeness is reduced to the standard generating triple: a terminal
object, binary products, and equalizers of parallel pairs.  Every universal
property is certified by exhaustive search, and the colimit verification
replays the stage-wise limit construction for a bounded family of sampled
diagrams inside the computed colimit.  The colimit is lifted to a stage once,
and the samples' composition closures are enumerated once per shape of
object set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from .colim import ColimitCat
from .compact import OneCellLift, lift_one_cell
from .fincat import FinCat, Functor, identity_functor
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


# each distinct composition closure of a shape's arrow positions, with its
# first generating positions
Closures = list[tuple[frozenset[int], tuple[int, ...]]]


def _closures(arrows: int, composite: dict[tuple[int, int], int]) -> Closures:
    """The distinct composition closures of the sets of at most 4 of
    ``arrows`` positions, each with its first generating positions in
    combination order.

    ``composite[(a, b)]`` is the position of a∘b, or -1 where it is an
    identity, which every closure holds.  A position leaving the work list
    is composed, on both sides, with every position kept so far, so each
    composable pair is composed once its later member leaves the list.
    """
    found: dict[frozenset[int], tuple[int, ...]] = {}
    for k in range(min(4, arrows) + 1):
        for gens in itertools.combinations(range(arrows), k):
            keep, todo = set(gens), list(gens)
            while todo:
                m = todo.pop()
                for n in list(keep):
                    for gf in (composite.get((n, m), -1), composite.get((m, n), -1)):
                        if gf >= 0 and gf not in keep:
                            keep.add(gf)
                            todo.append(gf)
            found.setdefault(frozenset(keep), gens)
    return list(found.items())


def _object_set_samples(
    cat: FinCat,
) -> Iterator[tuple[list[str], list[tuple[tuple, list[str]]]]]:
    """Each object set of at most 3 objects, in combination order over the
    sorted objects, with its sampled diagrams, one per composition closure:
    (key, generating arrows) pairs, the key being the objects and the sorted
    closure, the generators the first of at most 4 non-identity arrows, in
    combination order, that generate it.

    The closures on a set depend only on the shape of the full subcategory
    on it: the positions of its non-identity arrows' ends among the objects
    and of their composites among the arrows.  They are enumerated once per
    shape and named for each set that has it.
    """
    between: dict[tuple[str, str], list[str]] = {}
    for m in cat.morphisms:
        if not cat.is_identity(m):
            between.setdefault((cat.dom[m], cat.cod[m]), []).append(m)
    by_shape: dict[tuple, Closures] = {}
    for r in range(1, 4):
        for objs in itertools.combinations(sorted(cat.objects), r):
            at = {o: k for k, o in enumerate(objs)}
            inner = sorted(m for a in objs for b in objs for m in between.get((a, b), ()))
            index = {m: k for k, m in enumerate(inner)}
            ends = tuple((at[cat.dom[m]], at[cat.cod[m]]) for m in inner)
            pairs = [
                (a, b) for a, (s, _) in enumerate(ends) for b, (_, t) in enumerate(ends) if s == t
            ]
            composites = tuple(index.get(cat.table[(inner[a], inner[b])], -1) for a, b in pairs)
            shape = (ends, composites)
            if shape not in by_shape:
                by_shape[shape] = _closures(len(inner), dict(zip(pairs, composites)))
            ids = [cat.identity[o] for o in objs]
            yield list(objs), [
                ((objs, tuple(sorted(ids + [inner[c] for c in closure]))), [inner[g] for g in gens])
                for closure, gens in by_shape[shape]
            ]


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
    sizes: HomSizes,
) -> str | None:
    """How the stage-wise limit formula fails for a sample on ``objs`` with
    binding arrows ``binding`` whose stage limit is ``limit``, or None where
    it holds: the limit, pushed to the colimit along the cocone and the
    inverse comparison ``back``, must be limiting there.  ``sizes`` is
    :func:`_hom_sizes` of the colimit."""
    if limit is None:
        return "no stage limit"
    res = colim.result
    apex, legs = limit
    q, b = colim.cocone[lift.stage], lift.functor
    pushed_apex = q.obj_map[apex]
    pushed = tuple(res.table[(back[o], q.mor_map[legs[b.obj_map[o]]])] for o in objs)
    cones = _cones(res, objs, list(binding), families) if binding else families
    counts = tuple(len(cones[x]) for x in res.objects)
    if (
        pushed in cones[pushed_apex]
        and sizes[pushed_apex] == counts
        and _is_injective(res, pushed_apex, pushed, cones)
    ):
        return None
    return "pushed cone not limiting"


def _sample_verdicts(colim: ColimitCat) -> Iterator[tuple[tuple, str, str | None]]:
    """(key, stage, reason) for each distinct sampled diagram in the colimit,
    in sample order; ``reason`` names how the stage-wise limit formula
    fails, or is None where it holds.

    The colimit is lifted to a stage once, through the identity functor;
    the lift's restriction to a sample lifts it, with the same comparison
    components, so every sample is mapped into that one stage.  The search
    meets only thin colimits here (a finite lex category is thin, and so is
    a filtered colimit of thin categories), where a functor is fixed by its
    object map.  The limit in the stage, pushed to the colimit along the
    cocone and the inverse comparison, must be limiting.  Cones are decided
    over the generating arrows, whose cones are those over their
    composition closure, and of those only over the arrows that can bind a
    cone (:func:`_binding_targets`), in the colimit and in the stage alike.
    The families Π_o hom(x, o), formed from homs read once per colimit, are
    shared by the samples of an object set, and the samples of all sets are
    enumerated once per shape (:func:`_object_set_samples`).

    Stage limits are kept per (image objects, binding image arrows): the
    colimit holds isomorphic copies of stage objects, so distinct object
    sets often map to the same stage diagram.  A sample's verdict depends
    only on its object set, its binding arrows and its stage limit, so it
    is decided once per (binding arrows, binding image arrows) within a
    set.  The bundled lex colimits and their fibers are thin, so no arrow
    binds there: the 1,364 samples need 192 decisions, one per object set.
    """
    res = colim.result
    lift = lift_one_cell(res, colim, identity_functor(res))
    stage, b = lift.stage, lift.functor
    fiber = colim.diagram.on0[stage]
    targets, binds_in_stage = _binding_targets(res), _binding_targets(fiber)
    binds = {m for m in res.morphisms if res.cod[m] in targets}
    binds_image = {m for m in res.morphisms if b.obj_map[res.cod[m]] in binds_in_stage}
    back = {o: res.must_inverse(c) for o, c in lift.comparison.components.items()}
    homs = {x: {o: res.hom(x, o) for o in res.objects} for x in res.objects}
    sizes = {p: tuple(len(homs[x][p]) for x in res.objects) for p in res.objects}
    stage_limits: dict[tuple, tuple[str, dict[str, str]] | None] = {}
    for objs, samples in _object_set_samples(res):
        families = {x: list(itertools.product(*[row[o] for o in objs])) for x, row in homs.items()}
        image_objs = tuple(sorted({b.obj_map[o] for o in objs}))
        decided: dict[tuple, str | None] = {}
        for key, mors in samples:
            binding = tuple(m for m in mors if m in binds)
            image_mors = tuple(sorted({b.mor_map[m] for m in mors if m in binds_image}))
            limit_key = (image_objs, image_mors)
            if limit_key not in stage_limits:
                stage_limits[limit_key] = limit_of_diagram(fiber, list(image_objs), list(image_mors))
            if (binding, image_mors) not in decided:
                decided[(binding, image_mors)] = _pushed_limit_failure(
                    colim, lift, back, objs, binding, families, stage_limits[limit_key], sizes
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
