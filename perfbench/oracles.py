"""Known answers computed in plain Python, never by calling bicolim."""

from __future__ import annotations

from collections import Counter
from typing import Iterable


def closure(elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> set[tuple[str, str]]:
    """Reflexive-transitive closure of a relation, as a set of pairs."""
    up: dict[str, set[str]] = {x: {x} for x in elements}
    for x, y in pairs:
        up[x].add(y)
    changed = True
    while changed:
        changed = False
        for x, above in up.items():
            reach = set().union(*(up[y] for y in above))
            if reach != above:
                up[x] = reach
                changed = True
    return {(x, y) for x, above in up.items() for y in above}


def has_top(elements: list[str], le: set[tuple[str, str]]) -> bool:
    """A finite poset is bifiltered (locally discretely) iff it has a top."""
    return any(all((x, t) in le for x in elements) for t in elements)


def every_pair_bounded(elements: list[str], reach: set[tuple[str, str]]) -> bool:
    """Every pair has a common upper bound along ``reach``."""
    above = {x: {y for (w, y) in reach if w == x} for x in elements}
    return all(above[x] & above[y] for x in elements for y in elements)


def ladder_morphisms(n: int, m: int) -> int:
    """Morphisms of the colimit of a constant chain(m) over chain(n): the
    colimit is chain(m) with n isomorphic copies of each object."""
    return n * n * m * (m + 1) // 2


def ladder_mismatches(
    n: int,
    m: int,
    fiber_rank: dict[str, int],
    obj_of: dict[tuple[str, str], str],
    dom: dict[str, str],
    cod: dict[str, str],
) -> list[str]:
    """Differences between a computed ladder colimit and the known answer.

    ``obj_of`` maps (index object, fiber object) to the result's object and
    ``dom``/``cod`` are the result's morphism typing.  Every hom set from
    (i, a) to (j, b) must have exactly one element when a <= b and none
    otherwise.
    """
    out = []
    if len(set(obj_of.values())) != n * m:
        out.append(f"{len(set(obj_of.values()))} objects, expected {n * m}")
    if len(dom) != ladder_morphisms(n, m):
        out.append(f"{len(dom)} morphisms, expected {ladder_morphisms(n, m)}")
    homs = Counter((dom[f], cod[f]) for f in dom)
    want = {
        (obj_of[(i, a)], obj_of[(j, b)])
        for (i, a) in obj_of
        for (j, b) in obj_of
        if fiber_rank[a] <= fiber_rank[b]
    }
    if set(homs) != want:
        out.append("non-empty hom sets differ from the chain order")
    crowded = sum(1 for k in homs.values() if k != 1)
    if crowded:
        out.append(f"{crowded} hom sets with more than one element")
    return out
