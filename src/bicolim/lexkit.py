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
from typing import Any

from .colim import ColimitCat, bifiltered_bicolimit
from .compact import lift_one_cell
from .fincat import FinCat, Functor
from .twocat import CatPseudoFunctor
from .verdict import Verdict, negative, positive


# ---------------------------------------------------------------------------
# Limits of finite diagrams by exhaustive search


def cone_over(cat: FinCat, apex: str, objs: list[str], mors: list[str]) -> list[dict[str, str]]:
    """All cones with the given apex over a graph-shaped diagram."""
    cones = []
    for combo in itertools.product(*[cat.hom(apex, o) for o in objs]):
        legs = dict(zip(objs, combo))
        if all(cat.table[(m, legs[cat.dom[m]])] == legs[cat.cod[m]] for m in mors):
            cones.append(legs)
    return cones


def limit_of_diagram(
    cat: FinCat, objs: list[str], mors: list[str]
) -> tuple[str, dict[str, str]] | None:
    """A limiting cone over a finite diagram, or None.

    A cone is limiting when every cone factors through it uniquely; all of it
    is checked by enumeration.
    """
    objs = sorted(set(objs))
    mors = sorted(set(mors))
    all_cones = [
        (apex, legs) for apex in cat.objects for legs in cone_over(cat, apex, objs, mors)
    ]
    for apex, legs in all_cones:
        good = True
        for x, mu in all_cones:
            mediators = [
                m
                for m in cat.hom(x, apex)
                if all(cat.table[(legs[o], m)] == mu[o] for o in objs)
            ]
            if len(mediators) != 1:
                good = False
                break
        if good:
            return apex, legs
    return None


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
        if a == b:
            # the two legs are independent, so this is not a one-object cone
            got = _binary_product_equal_pair(cat, a)
            if got is None:
                return LexReport(False, failure={"shape": "product", "pair": [a, b]})
            products[(a, b)] = got
        else:
            got = limit_of_diagram(cat, [a, b], [])
            if got is None:
                return LexReport(False, failure={"shape": "product", "pair": [a, b]})
            apex, legs = got
            products[(a, b)] = (apex, legs[a], legs[b])
    equalizers = {}
    for f in cat.morphisms:
        for g in cat.morphisms:
            if f > g or cat.dom[f] != cat.dom[g] or cat.cod[f] != cat.cod[g]:
                continue
            got = _equalizer(cat, f, g)
            if got is None:
                return LexReport(False, failure={"shape": "equalizer", "pair": [f, g]})
            equalizers[(f, g)] = got
    return LexReport(True, terminal, products, equalizers)


def _binary_product_equal_pair(cat: FinCat, a: str) -> tuple[str, str, str] | None:
    """Product of the pair (a, a): cones carry two independent legs."""
    candidates = []
    for apex in cat.objects:
        for l1 in cat.hom(apex, a):
            for l2 in cat.hom(apex, a):
                candidates.append((apex, l1, l2))
    for apex, l1, l2 in candidates:
        good = True
        for x in cat.objects:
            for m1 in cat.hom(x, a):
                for m2 in cat.hom(x, a):
                    mediators = [
                        m
                        for m in cat.hom(x, apex)
                        if cat.table[(l1, m)] == m1 and cat.table[(l2, m)] == m2
                    ]
                    if len(mediators) != 1:
                        good = False
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            return apex, l1, l2
    return None


def _equalizer(cat: FinCat, f: str, g: str) -> tuple[str, str] | None:
    a = cat.dom[f]
    for apex in cat.objects:
        for eq in cat.hom(apex, a):
            if cat.table[(f, eq)] != cat.table[(g, eq)]:
                continue
            good = True
            for x in cat.objects:
                for h in cat.hom(x, a):
                    if cat.table[(f, h)] != cat.table[(g, h)]:
                        continue
                    mediators = [m for m in cat.hom(x, apex) if cat.table[(eq, m)] == h]
                    if len(mediators) != 1:
                        good = False
                        break
                if not good:
                    break
            if good:
                return apex, eq
    return None


# ---------------------------------------------------------------------------
# Lex functors


def is_lex_functor(fun: Functor) -> Verdict:
    """Preservation of the witness triple, up to isomorphism, checked directly."""
    src_report = finite_limit_witnesses(fun.source)
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
    for x in cat.objects:
        for m1 in cat.hom(x, a):
            for m2 in cat.hom(x, b):
                mediators = [
                    m for m in cat.hom(x, apex)
                    if cat.table[(l1, m)] == m1 and cat.table[(l2, m)] == m2
                ]
                if len(mediators) != 1:
                    return False
    return True


def _is_equalizer_cone(cat: FinCat, apex: str, eq: str, f: str, g: str) -> bool:
    if cat.dom[eq] != apex or cat.cod[eq] != cat.dom[f]:
        return False
    if cat.table[(f, eq)] != cat.table[(g, eq)]:
        return False
    for x in cat.objects:
        for h in cat.hom(x, cat.dom[f]):
            if cat.table[(f, h)] != cat.table[(g, h)]:
                continue
            mediators = [m for m in cat.hom(x, apex) if cat.table[(eq, m)] == h]
            if len(mediators) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Stability under filtered colimits


@dataclass
class LexColimitReport:
    colimit_lex: LexReport
    legs_lex: dict[str, Verdict]
    sampled_diagrams: int
    limit_formula_failures: list[dict[str, Any]]
    colimit: ColimitCat | None = None

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
    """The morphisms generated by a graph diagram: identities and composites."""
    keep = set(mors) | {cat.identity[o] for o in objs}
    changed = True
    while changed:
        changed = False
        for m in list(keep):
            for n in list(keep):
                if cat.dom[n] == cat.cod[m]:
                    nm = cat.table[(n, m)]
                    if nm not in keep:
                        keep.add(nm)
                        changed = True
    return keep


def _generated_subcategory(cat: FinCat, objs: list[str], keep: set[str]) -> FinCat:
    """The subcategory on the sorted ``objs`` with the composition-closed
    morphisms ``keep``.

    A subset of a category's morphisms that holds the identities and is
    closed under composition is a category with the inherited table, so it
    is assembled without replaying the axioms.
    """
    ordered = sorted(keep)
    return FinCat(
        f"{cat.name}|gen",
        tuple(objs),
        {m: cat.dom[m] for m in ordered},
        {m: cat.cod[m] for m in ordered},
        {o: cat.identity[o] for o in objs},
        {
            (n, m): cat.table[(n, m)]
            for n in keep
            for m in keep
            if cat.dom[n] == cat.cod[m]
        },
    )


def verify_lex_bicolimit(pf: CatPseudoFunctor) -> LexColimitReport:
    """The three stability assertions for a diagram of lex categories.

    (a) the colimit has the witness triple; (b) every inclusion is a lex
    functor; (c) for each sampled diagram in the colimit, lifting it to a
    stage, taking the limit there, and pushing back yields a limit.
    """
    for i in sorted(pf.source.cells0):
        rep = finite_limit_witnesses(pf.on0[i])
        if not rep.ok:
            raise ValueError(f"fiber at {i!r} is not lex: {rep.failure}")
    for d in sorted(pf.source.one_home):
        verdict = is_lex_functor(pf.on1[d])
        if not verdict:
            raise ValueError(f"leg at {d!r} is not lex: {verdict.counterexample}")
    colim = bifiltered_bicolimit(pf)
    colimit_lex = finite_limit_witnesses(colim.result)
    legs_lex = {i: is_lex_functor(colim.cocone[i]) for i in sorted(pf.source.cells0)}

    failures: list[dict[str, Any]] = []
    sampled = 0
    seen: set[tuple] = set()
    for objs, mors in _sample_diagrams(colim.result):
        closure = _composition_closure(colim.result, objs, mors)
        key = (tuple(objs), tuple(sorted(closure)))
        if key in seen:
            continue
        seen.add(key)
        sampled += 1
        probe = _generated_subcategory(colim.result, objs, closure)
        # the inclusion of a subcategory is a functor by construction
        include = Functor(
            "include",
            probe,
            colim.result,
            {o: o for o in probe.objects},
            {m: m for m in probe.dom},
        )
        lift = lift_one_cell(probe, colim, include)
        stage_cat = pf.on0[lift.stage]
        image_objs = [lift.functor.obj_map[o] for o in probe.objects]
        image_mors = [lift.functor.mor_map[m] for m in probe.dom]
        stage_limit = limit_of_diagram(stage_cat, image_objs, image_mors)
        if stage_limit is None:
            failures.append({"diagram": key, "stage": lift.stage, "reason": "no stage limit"})
            continue
        apex, legs = stage_limit
        pushed_apex = colim.cocone[lift.stage].obj_map[apex]
        pushed_legs = {}
        for o in probe.objects:
            img = lift.functor.obj_map[o]
            down = colim.cocone[lift.stage].mor_map[legs[img]]
            back = colim.result.must_inverse(lift.comparison.components[o])
            pushed_legs[o] = colim.result.table[(back, down)]
        if not _is_limit_cone(colim.result, pushed_apex, pushed_legs, list(probe.objects), list(probe.dom)):
            failures.append({"diagram": key, "stage": lift.stage, "reason": "pushed cone not limiting"})
    return LexColimitReport(colimit_lex, legs_lex, sampled, failures, colim)


def _is_limit_cone(
    cat: FinCat, apex: str, legs: dict[str, str], objs: list[str], mors: list[str]
) -> bool:
    for m in mors:
        if cat.table[(m, legs[cat.dom[m]])] != legs[cat.cod[m]]:
            return False
    for x in cat.objects:
        for mu in cone_over(cat, x, sorted(objs), sorted(mors)):
            mediators = [
                m for m in cat.hom(x, apex)
                if all(cat.table[(legs[o], m)] == mu[o] for o in objs)
            ]
            if len(mediators) != 1:
                return False
    return True
