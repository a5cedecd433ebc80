"""Decision procedures for 2-dimensional filteredness and cofinality.

All searches run in lexicographic identifier order, so verdicts and their
witnesses are reproducible across runs.  ``check_bifiltered`` and
``check_sigma_filtered`` are implemented independently from their respective
definitions; their agreement on the all-1-cells class is a theorem that the
test suite checks extensionally rather than something baked in here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator

from .fincat import ValidationError
from .twocat import (
    SigmaClass,
    TwoCat,
    TwoFunctor,
    all_one_cells,
    full_sub_on_one_cells,
    full_sub_on_zero_cells,
    inclusion_twofunctor,
    sigma_closure,
)
from .verdict import Verdict, negative, positive


def _object_pairs(tc: TwoCat) -> Iterator[tuple[str, str]]:
    yield from itertools.combinations_with_replacement(sorted(tc.cells0), 2)


def _parallel_one_cell_pairs(tc: TwoCat) -> Iterator[tuple[str, str]]:
    for i, j in sorted(tc.hom):
        cells = tc.cells1(i, j)
        yield from itertools.combinations_with_replacement(cells, 2)


def _parallel_two_cell_pairs(tc: TwoCat) -> Iterator[tuple[str, str]]:
    for i, j in sorted(tc.hom):
        cat = tc.hom[(i, j)]
        for a, b in itertools.combinations_with_replacement(cat.morphisms, 2):
            if cat.dom[a] == cat.dom[b] and cat.cod[a] == cat.cod[b]:
                yield a, b


def _find_span(tc: TwoCat, i: str, i2: str, allowed: frozenset[str] | None) -> tuple[str, str, str] | None:
    reach2 = tc.out_of[i2]
    for j, cells in tc.out_of[i].items():
        if j not in reach2:
            continue
        for s in cells:
            if allowed is not None and s not in allowed:
                continue
            for s2 in reach2[j]:
                if allowed is not None and s2 not in allowed:
                    continue
                return j, s, s2
    return None


def _find_insertion(
    tc: TwoCat, d: str, s: str, allowed: frozenset[str] | None, invertible: bool
) -> tuple[str, str] | None:
    """A 1-cell t (restricted to ``allowed``) and a 2-cell t∘d ⇒ t∘s."""
    i, j = tc.one_home[d]
    for k, cells in tc.out_of[j].items():
        for t in cells:
            if allowed is not None and t not in allowed:
                continue
            td, ts = tc.hcomp1[(t, d)], tc.hcomp1[(t, s)]
            cat = tc.hom[(i, k)]
            for cell in cat.hom(td, ts):
                if invertible and not cat.is_iso(cell):
                    continue
                return t, cell
    return None


def _find_equifier(
    tc: TwoCat, a: str, a2: str, allowed: frozenset[str] | None
) -> str | None:
    j = tc.one_home[tc.dom2(a)][1]
    for cells in tc.out_of[j].values():
        for f in cells:
            if allowed is not None and f not in allowed:
                continue
            # every 1-cell equifies a 2-cell with itself
            if a == a2 or tc.whisker_l(f, a) == tc.whisker_l(f, a2):
                return f
    return None


def check_bifiltered(tc: TwoCat) -> Verdict:
    """The three bifilteredness conditions, by exhaustive witness search."""
    if not tc.cells0:
        raise ValidationError(tc.name, ["empty 0-cell set"])
    witnesses: list[dict[str, Any]] = []
    for i, i2 in _object_pairs(tc):
        span = _find_span(tc, i, i2, None)
        if span is None:
            return negative(
                "bifiltered",
                {
                    "condition": "span",
                    "instance": [i, i2],
                    "searched": {"codomains": len(tc.cells0)},
                },
            )
        witnesses.append(
            {"condition": "span", "pair": [i, i2], "apex": span[0], "left": span[1], "right": span[2]}
        )
    for d, d2 in _parallel_one_cell_pairs(tc):
        hit = _find_insertion(tc, d, d2, None, invertible=True)
        if hit is None:
            return negative(
                "bifiltered",
                {
                    "condition": "insertion",
                    "instance": [d, d2],
                    "searched": {"one_cells": len(tc.one_home)},
                },
            )
        witnesses.append(
            {"condition": "insertion", "pair": [d, d2], "via": hit[0], "cell": hit[1], "invertible": True}
        )
    for a, a2 in _parallel_two_cell_pairs(tc):
        f = _find_equifier(tc, a, a2, None)
        if f is None:
            return negative(
                "bifiltered",
                {
                    "condition": "equification",
                    "instance": [a, a2],
                    "searched": {"one_cells": len(tc.one_home)},
                },
            )
        witnesses.append({"condition": "equification", "pair": [a, a2], "via": f})
    return positive("bifiltered", witnesses)


def check_sigma_filtered(tc: TwoCat, sigma: SigmaClass) -> Verdict:
    """σ-filteredness of the pair, after closing the class.

    The strengthening of condition 2 (the inserted cell can be chosen
    invertible when the compared cell is also in the class) is verified as
    its own sub-search rather than derived.
    """
    if not tc.cells0:
        raise ValidationError(tc.name, ["empty 0-cell set"])
    allowed = sigma_closure(sigma).members
    witnesses: list[dict[str, Any]] = []
    for i, i2 in _object_pairs(tc):
        span = _find_span(tc, i, i2, allowed)
        if span is None:
            return negative(
                "sigma-filtered",
                {"condition": "span", "instance": [i, i2], "sigma": sorted(allowed)},
            )
        witnesses.append(
            {"condition": "span", "pair": [i, i2], "apex": span[0], "left": span[1], "right": span[2]}
        )
    for i, j in sorted(tc.hom):
        cells = tc.cells1(i, j)
        for s in cells:
            if s not in allowed:
                continue
            for d in cells:
                hit = _find_insertion(tc, d, s, allowed, invertible=False)
                if hit is None:
                    return negative(
                        "sigma-filtered",
                        {"condition": "insertion", "instance": [d, s], "sigma": sorted(allowed)},
                    )
                record = {
                    "condition": "insertion",
                    "pair": [d, s],
                    "via": hit[0],
                    "cell": hit[1],
                    "invertible": tc.invertible2(hit[1]),
                }
                if d in allowed:
                    strong = _find_insertion(tc, d, s, allowed, invertible=True)
                    if strong is None:
                        return negative(
                            "sigma-filtered",
                            {
                                "condition": "insertion-invertible",
                                "instance": [d, s],
                                "sigma": sorted(allowed),
                            },
                        )
                    record["invertible_choice"] = {"via": strong[0], "cell": strong[1]}
                witnesses.append(record)
    for a, a2 in _parallel_two_cell_pairs(tc):
        if tc.cod2(a) not in allowed:
            continue
        f = _find_equifier(tc, a, a2, allowed)
        if f is None:
            return negative(
                "sigma-filtered",
                {"condition": "equification", "instance": [a, a2], "sigma": sorted(allowed)},
            )
        witnesses.append({"condition": "equification", "pair": [a, a2], "via": f})
    return positive("sigma-filtered", witnesses)


# ---------------------------------------------------------------------------
# Triangle completion


class TriangleError(Exception):
    def __init__(self, step: str, detail: str):
        self.step = step
        super().__init__(f"triangle completion failed at {step}: {detail}")


@dataclass
class Triangle:
    arrow: str          # d : i -> i'
    left: str           # s : i -> j, in the class
    right: str          # s' : i' -> j, in the class
    cell: str           # φ : s'∘d ⇒ s

    def to_dict(self) -> dict[str, str]:
        return {"arrow": self.arrow, "left": self.left, "right": self.right, "cell": self.cell}


def triangle_completion(tc: TwoCat, sigma: SigmaClass, d: str) -> Triangle:
    """Complete an arrow into a triangle over the class, two-step search.

    First a span over (dom d, cod d), then an insertion for the induced
    parallel pair whose lower leg lies in the class.
    """
    closed = sigma_closure(sigma)
    i, i2 = tc.one_home[d]
    span = _find_span(tc, i, i2, closed.members)
    if span is None:
        raise TriangleError("span", f"no span over ({i!r}, {i2!r}) in the class")
    _, t, t2 = span
    lower = t                      # i -> i''            (in the class)
    upper = tc.hcomp1[(t2, d)]     # t'∘d : i -> i''
    hit = _find_insertion(tc, upper, lower, closed.members, invertible=False)
    if hit is None:
        raise TriangleError(
            "insertion", f"no class arrow inserting ({upper!r}, {lower!r})"
        )
    t3, phi = hit
    left = tc.hcomp1[(t3, t)]
    right = tc.hcomp1[(t3, t2)]
    if left not in closed.members or right not in closed.members:
        raise TriangleError("closure", "triangle legs escaped the closed class")
    return Triangle(d, left, right, phi)


def revalidate_triangle(tc: TwoCat, sigma: SigmaClass, w: Triangle) -> bool:
    closed = sigma_closure(sigma)
    if w.left not in closed.members or w.right not in closed.members:
        return False
    if tc.one_home[w.left][0] != tc.one_home[w.arrow][0]:
        return False
    if tc.one_home[w.right][0] != tc.one_home[w.arrow][1]:
        return False
    return (
        tc.dom2(w.cell) == tc.hcomp1[(w.right, w.arrow)]
        and tc.cod2(w.cell) == w.left
    )


# ---------------------------------------------------------------------------
# Cofinality


def check_sigma_cofinal(fn: TwoFunctor, sigma: SigmaClass, sigma_target: SigmaClass) -> Verdict:
    """The three cofinality conditions for a strict 2-functor."""
    src, tgt = fn.source, fn.target
    s_cls = sigma_closure(sigma).members
    t_cls = sigma_closure(sigma_target).members
    witnesses: list[dict[str, Any]] = []

    over: dict[str, list[str]] = {}  # source 0-cells by image, in source order
    for i in sorted(src.cells0):
        over.setdefault(fn.on0[i], []).append(i)
    # for each target 0-cell j, the source 0-cells i with a 1-cell j -> F(i),
    # in source order, each with the hom category tgt(j, F(i))
    reach = {
        j: sorted(
            ((i, tgt.hom[(j, k)]) for k in tgt.out_of[j] for i in over.get(k, ())),
            key=lambda stage: stage[0],
        )
        for j in tgt.cells0
    }

    for j in sorted(tgt.cells0):
        found = None
        for i, cat in reach[j]:
            for s in cat.objects:
                if s in t_cls:
                    found = {"condition": "target-arrow", "object": j, "via": s, "stage": i}
                    break
            if found:
                break
        if found is None:
            return negative(
                "sigma-cofinal", {"condition": "target-arrow", "instance": [j]}
            )
        witnesses.append(found)

    def insertion(j: str, i: str, d: str, t: str, invertible: bool) -> dict | None:
        for i2, cells in src.out_of[i].items():
            for s in cells:
                if s not in s_cls:
                    continue
                fs = fn.on1[s]
                td, tt = tgt.hcomp1[(fs, d)], tgt.hcomp1[(fs, t)]
                cat = tgt.hom[(j, fn.on0[i2])]
                for cell in cat.hom(td, tt):
                    if invertible and not cat.is_iso(cell):
                        continue
                    return {"via": s, "cell": cell}
        return None

    for j in sorted(tgt.cells0):
        for i, cat in reach[j]:
            cells = cat.objects
            for t in cells:
                if t not in t_cls:
                    continue
                for d in cells:
                    hit = insertion(j, i, d, t, invertible=False)
                    if hit is None:
                        return negative(
                            "sigma-cofinal",
                            {"condition": "insertion", "instance": [d, t], "object": j},
                        )
                    record = {
                        "condition": "insertion",
                        "pair": [d, t],
                        "object": j,
                        **hit,
                    }
                    if d in t_cls:
                        strong = insertion(j, i, d, t, invertible=True)
                        if strong is None:
                            return negative(
                                "sigma-cofinal",
                                {
                                    "condition": "insertion-invertible",
                                    "instance": [d, t],
                                    "object": j,
                                },
                            )
                        record["invertible_choice"] = strong
                    witnesses.append(record)

    for j in sorted(tgt.cells0):
        for i, cat in reach[j]:
            for a, a2 in itertools.combinations_with_replacement(cat.morphisms, 2):
                if cat.dom[a] != cat.dom[a2] or cat.cod[a] != cat.cod[a2]:
                    continue
                if cat.cod[a] not in t_cls:
                    continue
                found = None
                for cells in src.out_of[i].values():
                    for s in cells:
                        if s not in s_cls:
                            continue
                        fs = fn.on1[s]
                        # every 1-cell equifies a 2-cell with itself
                        if a == a2 or tgt.whisker_l(fs, a) == tgt.whisker_l(fs, a2):
                            found = s
                            break
                    if found:
                        break
                if found is None:
                    return negative(
                        "sigma-cofinal",
                        {"condition": "equification", "instance": [a, a2], "object": j},
                    )
                witnesses.append(
                    {"condition": "equification", "pair": [a, a2], "object": j, "via": found}
                )
    return positive("sigma-cofinal", witnesses)


def cofinal_core(tc: TwoCat) -> TwoCat:
    """The full sub-2-category on the first 0-cell j, in sorted order, whose
    inclusion is σ-cofinal with every 1-cell in the class on both sides; the
    whole of ``tc`` when no 0-cell is accepted.

    The target-arrow condition asks for a 1-cell i -> j out of every 0-cell
    i, so a j that some 0-cell has no 1-cell into is skipped before its
    sub-2-category is built.  By the cofinality theorem colim(F∘J) ≃ colim F
    for every diagram F over ``tc``.
    """
    whole = all_one_cells(tc)
    for j in sorted(tc.cells0):
        if all(j in tc.out_of[i] for i in tc.cells0):
            sub = full_sub_on_zero_cells(tc, [j])
            if check_sigma_cofinal(inclusion_twofunctor(sub, tc), all_one_cells(sub), whole):
                return sub
    return tc


# ---------------------------------------------------------------------------
# Trivialization


@dataclass
class TrivializationReport:
    sigma_filtered: Verdict
    sub_bifiltered: Verdict
    inclusion_cofinal: Verdict
    agree: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "sigma_filtered": self.sigma_filtered.to_dict(),
            "sub_bifiltered": self.sub_bifiltered.to_dict(),
            "inclusion_cofinal": self.inclusion_cofinal.to_dict(),
            "agree": self.agree,
        }


def class_subcategory(tc: TwoCat, sigma: SigmaClass) -> TwoCat:
    """Full-on-0-cells-and-2-cells subcategory on the closed class."""
    closed = sigma_closure(sigma)
    return full_sub_on_one_cells(tc, closed.members, name=f"{tc.name}|{sigma.name}")


def trivialization_check(tc: TwoCat, sigma: SigmaClass) -> TrivializationReport:
    """Both sides of the reduction of σ-filteredness to bifilteredness.

    Left: σ-filteredness of the pair.  Right: the class subcategory is
    bifiltered and its inclusion is cofinal relative to the class.
    """
    closed = sigma_closure(sigma)
    left = check_sigma_filtered(tc, closed)
    sub = class_subcategory(tc, closed)
    right_bif = check_bifiltered(sub)
    inc = inclusion_twofunctor(sub, tc)
    right_cof = check_sigma_cofinal(inc, all_one_cells(sub), closed)
    agree = left.outcome == (right_bif.outcome and right_cof.outcome)
    return TrivializationReport(left, right_bif, right_cof, agree)


# ---------------------------------------------------------------------------
# σ-cones over finite subcategories (bounded diagnostic search)


def sigma_cone_for_objects(
    tc: TwoCat, sigma: SigmaClass, objs: list[str], max_assignments: int = 200_000
) -> dict[str, Any] | None:
    """Search a σ-cone over the full sub-2-category on ``objs``.

    Returns the tip, the class legs, and the compatibility 2-cells (oplax,
    invertible over the class), or None when the bounded search is exhausted.
    """
    closed = sigma_closure(sigma).members
    objs = sorted(set(objs))
    inner = [
        f
        for f in tc.one_cells
        if tc.one_home[f][0] in objs and tc.one_home[f][1] in objs
    ]

    for tip in sorted(tc.cells0):
        leg_choices = [
            [s for s in tc.cells1(i, tip) if s in closed] for i in objs
        ]
        if any(not ch for ch in leg_choices):
            continue
        count = 1
        for ch in leg_choices:
            count *= len(ch)
        if count > max_assignments:
            continue
        for legs in itertools.product(*leg_choices):
            leg = dict(zip(objs, legs))
            cells: dict[str, str] = {}
            ok = True
            for d in inner:
                i, j = tc.one_home[d]
                if d == tc.unit[i]:
                    cells[d] = tc.id2(leg[i])
                    continue
                want_dom = tc.hcomp1[(leg[j], d)]
                cat = tc.hom[(i, tip)]
                pick = None
                for cell in cat.hom(want_dom, leg[i]):
                    if d in closed and not cat.is_iso(cell):
                        continue
                    pick = cell
                    break
                if pick is None:
                    ok = False
                    break
                cells[d] = pick
            if not ok:
                continue
            # oplax compatibility: 2-cells and composition inside the sub-2-category
            for d in inner:
                i, j = tc.one_home[d]
                for b in tc.hom[(i, j)].morphisms:
                    if tc.dom2(b) != d or tc.cod2(b) not in cells:
                        continue
                    d2 = tc.cod2(b)
                    if d2 not in cells:
                        continue
                    lhs = cells[d]
                    rhs = tc.vcomp(cells[d2], tc.whisker_l(leg[j], b))
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
                for e in inner:
                    if tc.one_home[e][0] != j:
                        continue
                    ed = tc.hcomp1[(e, d)]
                    if ed not in cells:
                        continue
                    lhs = cells[ed]
                    rhs = tc.vcomp(cells[d], tc.whisker_r(cells[e], d))
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return {"tip": tip, "legs": leg, "cells": cells}
    return None


def revalidate_filteredness_witness(tc: TwoCat, record: dict[str, Any], allowed: frozenset[str] | None = None) -> bool:
    """Replay one witness record of the filteredness checkers."""
    kind = record["condition"]
    if kind == "span":
        i, i2 = record["pair"]
        left, right = record["left"], record["right"]
        ok = (
            tc.one_home.get(left) == (i, record["apex"])
            and tc.one_home.get(right) == (i2, record["apex"])
        )
        if allowed is not None:
            ok = ok and left in allowed and right in allowed
        return ok
    if kind == "insertion":
        d, s = record["pair"]
        t, cell = record["via"], record["cell"]
        if allowed is not None and t not in allowed:
            return False
        good = (
            tc.dom2(cell) == tc.hcomp1[(t, d)]
            and tc.cod2(cell) == tc.hcomp1[(t, s)]
        )
        if record.get("invertible"):
            good = good and tc.invertible2(cell)
        choice = record.get("invertible_choice")
        if choice is not None:
            good = good and tc.invertible2(choice["cell"]) and (
                tc.dom2(choice["cell"]) == tc.hcomp1[(choice["via"], d)]
                and tc.cod2(choice["cell"]) == tc.hcomp1[(choice["via"], s)]
            )
        return good
    if kind == "equification":
        a, a2 = record["pair"]
        f = record["via"]
        if allowed is not None and f not in allowed:
            return False
        return tc.whisker_l(f, a) == tc.whisker_l(f, a2)
    raise ValueError(f"unknown witness kind {kind!r}")
