"""Finite strict 2-categories, classes of 1-cells, and Cat-valued pseudofunctors.

A :class:`TwoCat` keeps one FinCat per ordered pair of 0-cells that has a
1-cell between them (objects of the hom category are the 1-cells, morphisms
the 2-cells) plus total horizontal composition tables on both levels.  An
absent pair still answers ``tc.hom[(i, j)]`` with an empty category, made
once and never stored, so ``tc.hom`` iterates over the nonempty homs only.
``tc.out_of[i]`` indexes the 1-cells out of each 0-cell by target, in target
order; witness searches walk it and visit only reachable 0-cells.  1-cell
and 2-cell names are required to be globally unique, which keeps every
lookup flat.

Validation runs once, at the trust boundary: fixture load and
``build_fincat``, ``build_twocat``, ``build_functor`` and
``build_pseudofunctor`` check every axiom of the tables they are given.
Four builders derive a 2-category from one already valid and assemble it
directly, without replaying the axioms, because each is correct by
construction:

- ``locally_discrete``: its axioms are the category's, with identity 2-cells;
- ``op1``: swapping the arguments of both horizontal compositions sends each
  axiom to itself;
- ``full_sub_on_zero_cells``: cells between kept 0-cells compose to cells
  between them;
- ``full_sub_on_one_cells``: each hom is a full subcategory, and the kept
  1-cells, checked to hold the units and to be closed under composition,
  keep every composite inside.

``inclusion_twofunctor`` assembles the inclusion of a sub-2-category the
same way, since the sub-2-category's tables are restrictions of the whole's;
``build_twofunctor`` checks the 2-functors that fixtures supply.  Two
diagram builders here assemble directly too:

- ``constant_pseudofunctor``: every functor and cell is an identity;
- ``stagewise_pseudofunctor``: a 2-functor on Cat applied at every stage of a
  coherent diagram gives a coherent diagram.

So do the other derived values of the package, each with its argument in
its docstring: colimits and their cocones (``colim``), categories of
elements, skeletons and equivalence witnesses, functor categories, finite
bilimits in Cat (``bilim``), representable and restricted hom diagrams
(``flat``).  The checks left after fixture load guard the data a caller
passes in: ``factor_cocone`` validates its cocone, and
``bilim.biequalizer_diagram`` checks its u and v and the diagram they give.

Pseudo-ness lives entirely in :class:`CatPseudoFunctor`: the underlying
2-categories are always strict, and functors between bases are strict
2-functors (:class:`TwoFunctor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Iterable, Mapping

from .fincat import (
    FinCat,
    Functor,
    NatTrans,
    ValidationError,
    _refuse_repeat,
    build_fincat,
    compose_functors,
    fincat_violations,
    functor_violations,
    hcompose_nattrans,
    identity_functor,
    identity_nattrans,
    nattrans_violations,
    vcompose_nattrans,
    whisker_functor,
    whisker_nattrans,
)


def _empty_cat(name: str) -> FinCat:
    return FinCat(name, (), {}, {}, {}, {})


def _empty_homs_of(name: str) -> Callable[[str, str], FinCat]:
    """The rule naming an absent hom (i, j) ``{name}[i,j]``."""
    return lambda i, j: _empty_cat(f"{name}[{i},{j}]")


class Homs(dict):
    """The stored hom categories of a 2-category, keyed by (source, target).

    Looking up an absent pair of known 0-cells returns ``empty(i, j)``, an
    empty category made on first lookup and kept aside: the same object
    every time, but never stored, so iteration sees the stored homs only.
    """

    def __init__(
        self,
        homs: Mapping[tuple[str, str], FinCat],
        cells0: Iterable[str],
        empty: Callable[[str, str], FinCat],
    ) -> None:
        super().__init__(homs)
        self.cells0 = frozenset(cells0)
        self.empty = empty
        self._empties: dict[tuple[str, str], FinCat] = {}

    def __missing__(self, key: tuple[str, str]) -> FinCat:
        cat = self._empties.get(key)
        if cat is None:
            if not self.cells0.issuperset(key):
                raise KeyError(key)
            cat = self._empties[key] = self.empty(*key)
        return cat


@dataclass(eq=False)
class TwoCat:
    name: str
    cells0: tuple[str, ...]
    hom: dict[tuple[str, str], FinCat]
    hcomp1: dict[tuple[str, str], str]
    hcomp2: dict[tuple[str, str], str]
    unit: dict[str, str]
    one_home: dict[str, tuple[str, str]] = field(default_factory=dict, repr=False)
    two_home: dict[str, tuple[str, str]] = field(default_factory=dict, repr=False)
    _one_cells: tuple[str, ...] | None = field(default=None, repr=False)
    _two_cells: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.one_home:
            for (i, j), cat in self.hom.items():
                for f in cat.objects:
                    self.one_home[f] = (i, j)
                for a in cat.dom:
                    self.two_home[a] = (i, j)

    # -- 1-cells ------------------------------------------------------------

    @property
    def one_cells(self) -> tuple[str, ...]:
        if self._one_cells is None:
            self._one_cells = tuple(sorted(self.one_home))
        return self._one_cells

    def src(self, f: str) -> str:
        return self.one_home[f][0]

    def dst(self, f: str) -> str:
        return self.one_home[f][1]

    def cells1(self, i: str, j: str) -> tuple[str, ...]:
        cat = self.hom.get((i, j))
        return cat.objects if cat is not None else ()

    @cached_property
    def out_of(self) -> dict[str, dict[str, tuple[str, ...]]]:
        """For each 0-cell i, the nonempty ``cells1(i, j)`` keyed by j, in j order."""
        index: dict[str, dict[str, tuple[str, ...]]] = {i: {} for i in self.cells0}
        for i, j in sorted(self.hom):
            cells = self.hom[(i, j)].objects
            if cells:
                index[i][j] = cells
        return index

    def compose1(self, g: str, f: str) -> str:
        """g∘f for f: i -> j, g: j -> k."""
        return self.hcomp1[(g, f)]

    # -- 2-cells ------------------------------------------------------------

    @property
    def two_cells(self) -> tuple[str, ...]:
        if self._two_cells is None:
            self._two_cells = tuple(sorted(self.two_home))
        return self._two_cells

    def hom_of(self, f: str) -> FinCat:
        return self.hom[self.one_home[f]]

    def hom_of2(self, a: str) -> FinCat:
        return self.hom[self.two_home[a]]

    def dom2(self, a: str) -> str:
        cat = self.hom_of2(a)
        return cat.dom[a]

    def cod2(self, a: str) -> str:
        cat = self.hom_of2(a)
        return cat.cod[a]

    def id2(self, f: str) -> str:
        return self.hom_of(f).identity[f]

    def vcomp(self, b: str, a: str) -> str:
        """Vertical composite b∘a inside one hom category."""
        return self.hom_of2(a).table[(b, a)]

    def whisker_l(self, g: str, a: str) -> str:
        return self.hcomp2[(self.id2(g), a)]

    def whisker_r(self, a: str, f: str) -> str:
        return self.hcomp2[(a, self.id2(f))]

    def invertible2(self, a: str) -> bool:
        return self.hom_of2(a).is_iso(a)

    def invertible_between(self, d: str, s: str) -> tuple[str, ...]:
        """Invertible 2-cells d ⇒ s (parallel 1-cells only)."""
        if self.one_home[d] != self.one_home[s]:
            return ()
        cat = self.hom_of(d)
        return tuple(a for a in cat.hom(d, s) if cat.is_iso(a))


def _assemble_twocat(
    name: str,
    cells0: Collection[str],
    hom: Mapping[tuple[str, str], FinCat],
    hcomp1: Mapping[tuple[str, str], str],
    hcomp2: Mapping[tuple[str, str], str],
    unit: Mapping[str, str],
    empty: Callable[[str, str], FinCat] | None = None,
) -> TwoCat:
    """A TwoCat on the given tables, unchecked.

    An absent hom (i, j) is ``empty(i, j)``, by default named ``{name}[i,j]``.
    A repeated name of a cell of any dimension raises :class:`ValidationError`.
    """
    zero = tuple(sorted(set(cells0)))
    if len(zero) != len(cells0):
        _refuse_repeat(name, "0-cell", cells0)
    homs = Homs(hom, zero, empty or _empty_homs_of(name))
    tc = TwoCat(name, zero, homs, dict(hcomp1), dict(hcomp2), dict(unit))
    if len(tc.one_home) != sum(len(cat.objects) for cat in homs.values()):
        _refuse_repeat(name, "1-cell", (f for cat in homs.values() for f in cat.objects))
    if len(tc.two_home) != sum(len(cat.dom) for cat in homs.values()):
        _refuse_repeat(name, "2-cell", (a for cat in homs.values() for a in cat.dom))
    return tc


def build_twocat(
    name: str,
    cells0: Iterable[str],
    hom: Mapping[tuple[str, str], FinCat],
    hcomp1: Mapping[tuple[str, str], str],
    hcomp2: Mapping[tuple[str, str], str],
    unit: Mapping[str, str],
) -> TwoCat:
    """Assemble and validate a 2-category from caller-supplied tables."""
    cat = _assemble_twocat(name, list(cells0), hom, hcomp1, hcomp2, unit)
    violations = twocat_violations(cat)
    if violations:
        raise ValidationError(name, violations)
    return cat


def twocat_violations(tc: TwoCat) -> list[str]:
    """Every broken axiom of a strict 2-category.

    Each level is a category on the 0-cells, 1-cells under ``hcomp1`` and
    2-cells under ``hcomp2``, checked by :func:`fincat_violations` with its
    messages prefixed ``1-cell `` or ``2-cell ``; the rest are the
    2-dimensional axioms."""
    out: list[str] = []
    seen1: set[str] = set()
    seen2: set[str] = set()
    for (i, j), cat in tc.hom.items():
        if i not in tc.cells0 or j not in tc.cells0:
            out.append(f"hom pair ({i!r},{j!r}) references unknown 0-cell")
        for f in cat.objects:
            if f in seen1:
                out.append(f"1-cell name {f!r} is not globally unique")
            seen1.add(f)
        for a in cat.dom:
            if a in seen2:
                out.append(f"2-cell name {a!r} is not globally unique")
            seen2.add(a)
    for i in tc.cells0:
        u = tc.unit.get(i)
        if u is None or tc.one_home.get(u) != (i, i):
            out.append(f"unit of {i!r} missing or not an endo-1-cell")
    if out:
        return out

    for level, home, table, units in (
        ("1-cell", tc.one_home, tc.hcomp1, tc.unit),
        ("2-cell", tc.two_home, tc.hcomp2, {i: tc.id2(tc.unit[i]) for i in tc.cells0}),
    ):
        level_cat = FinCat(
            f"{tc.name}:{level}",
            tc.cells0,
            {c: ij[0] for c, ij in home.items()},
            {c: ij[1] for c, ij in home.items()},
            units,
            table,
        )
        out = [f"{level} {v}" for v in fincat_violations(level_cat)]
        if out:
            return out

    for (b, a), ba in tc.hcomp2.items():
        boundary = (tc.hcomp1[(tc.dom2(b), tc.dom2(a))], tc.hcomp1[(tc.cod2(b), tc.cod2(a))])
        if (tc.dom2(ba), tc.cod2(ba)) != boundary:
            out.append(f"2-cell composite of ({b!r}, {a!r}) has wrong boundary")
    if out:
        return out
    for (g, f), gf in tc.hcomp1.items():
        if tc.hcomp2[(tc.id2(g), tc.id2(f))] != tc.id2(gf):
            out.append(f"horizontal composition of identities fails on ({g!r}, {f!r})")
    # interchange, over every pair of vertically composable pairs
    starting: dict[str, list[str]] = {}  # 2-cells by vertical domain, in name order
    for a in tc.two_cells:
        starting.setdefault(tc.dom2(a), []).append(a)
    for (b, a), ba in tc.hcomp2.items():
        cat_a, cat_b = tc.hom_of2(a), tc.hom_of2(b)
        for a2 in starting.get(cat_a.cod[a], ()):
            for b2 in starting.get(cat_b.cod[b], ()):
                lhs = tc.hcomp2[(cat_b.table[(b2, b)], cat_a.table[(a2, a)])]
                if lhs != tc.vcomp(tc.hcomp2[(b2, a2)], ba):
                    out.append(f"interchange fails on ({b2!r},{b!r};{a2!r},{a!r})")
                    if len(out) > 10:
                        return out
    return out


def validate_twocat(data: Mapping, name: str | None = None) -> TwoCat:
    """Build a TwoCat from a raw fixture document."""
    label = name or data.get("name", "<twocat>")
    try:
        zero = list(data["zero_cells"])
        hom: dict[tuple[str, str], FinCat] = {}
        for entry in data.get("hom", []):
            cat = build_fincat(
                f"{label}[{entry['src']},{entry['dst']}]",
                entry["objects"],
                [(m["name"], m["dom"], m["cod"]) for m in entry["morphisms"]],
                entry["identities"],
                {(g, f): gf for g, f, gf in entry["composition"]},
            )
            hom[(entry["src"], entry["dst"])] = cat
        hcomp1 = {(g, f): gf for g, f, gf in data.get("hcomp1", [])}
        hcomp2 = {(b, a): ba for b, a, ba in data.get("hcomp2", [])}
        unit = dict(data["units"])
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(label, [f"malformed document: {exc}"])
    return build_twocat(label, zero, hom, hcomp1, hcomp2, unit)


def describe_twocat(tc: TwoCat) -> dict:
    return {
        "kind": "twocat",
        "name": tc.name,
        "zero_cells": list(tc.cells0),
        "hom": [
            dict(src=i, dst=j, **tc.hom[(i, j)].describe())
            for i, j in sorted(tc.hom)
            if tc.hom[(i, j)].objects
        ],
        "units": dict(sorted(tc.unit.items())),
        "hcomp1": [[g, f, gf] for (g, f), gf in sorted(tc.hcomp1.items())],
        "hcomp2": [[b, a, ba] for (b, a), ba in sorted(tc.hcomp2.items())],
    }


def locally_discrete(cat: FinCat, name: str | None = None) -> TwoCat:
    """The 2-category with only identity 2-cells over a finite category."""
    cells_of: dict[tuple[str, str], list[str]] = {}  # nonempty homs, in name order
    for m in cat.morphisms:
        cells_of.setdefault((cat.dom[m], cat.cod[m]), []).append(m)
    pos = {x: n for n, x in enumerate(cat.objects)}
    hom: dict[tuple[str, str], FinCat] = {}
    for i, j in sorted(cells_of, key=lambda pair: (pos[pair[0]], pos[pair[1]])):
        ids = {m: f"v_{m}" for m in cells_of[(i, j)]}
        hom[(i, j)] = FinCat(
            f"{cat.name}[{i},{j}]",
            tuple(ids),
            {v: m for m, v in ids.items()},
            {v: m for m, v in ids.items()},
            ids,
            {(v, v): v for v in ids.values()},
        )
    hcomp2 = {
        (f"v_{g}", f"v_{f}"): f"v_{gf}" for (g, f), gf in cat.table.items()
    }
    return _assemble_twocat(
        name or f"ld({cat.name})",
        cat.objects,
        hom,
        cat.table,
        hcomp2,
        cat.identity,
        _empty_homs_of(cat.name),
    )


def terminal_twocat() -> TwoCat:
    hom = build_fincat("pt[.,.]", ["one"], [("v_one", "one", "one")], {"one": "v_one"}, {("v_one", "v_one"): "v_one"})
    return build_twocat(
        "pt", ["."], {(".", "."): hom}, {("one", "one"): "one"}, {("v_one", "v_one"): "v_one"}, {".": "one"}
    )


def op1(tc: TwoCat) -> TwoCat:
    """Dual on 1-cells only; 2-cells keep their direction."""
    return _assemble_twocat(
        f"{tc.name}^op",
        tc.cells0,
        {(i, j): tc.hom[(j, i)] for (j, i) in tc.hom},
        {(g, f): tc.hcomp1[(f, g)] for (f, g) in tc.hcomp1},
        {(b, a): tc.hcomp2[(a, b)] for (a, b) in tc.hcomp2},
        tc.unit,
        lambda i, j: tc.hom[(j, i)],
    )


def full_sub_on_zero_cells(tc: TwoCat, objs: Iterable[str], name: str | None = None) -> TwoCat:
    """Full sub-2-category spanned by a subset of the 0-cells."""
    kept0 = sorted(set(objs))
    unknown = [i for i in kept0 if i not in tc.cells0]
    if unknown:
        raise ValidationError(tc.name, [f"unknown 0-cell {i!r}" for i in unknown])
    hom = {(i, j): tc.hom[(i, j)] for i in kept0 for j in kept0 if (i, j) in tc.hom}
    kept1 = {f for cat in hom.values() for f in cat.objects}
    kept2 = {a for cat in hom.values() for a in cat.dom}
    return _assemble_twocat(
        name or f"{tc.name}|{'+'.join(kept0)}",
        kept0,
        hom,
        {k: v for k, v in tc.hcomp1.items() if k[0] in kept1 and k[1] in kept1},
        {k: v for k, v in tc.hcomp2.items() if k[0] in kept2 and k[1] in kept2},
        {i: tc.unit[i] for i in kept0},
        lambda i, j: tc.hom[(i, j)],
    )


def full_sub_on_one_cells(tc: TwoCat, keep: Iterable[str], name: str | None = None) -> TwoCat:
    """Full-on-0-cells-and-2-cells subcategory with the given 1-cells.

    ``keep`` must name 1-cells of ``tc``, contain the units and be closed
    under composition; closure is checked on the composable pairs of kept
    1-cells only, found by source 0-cell.
    """
    kept = set(keep)
    unknown = sorted(f for f in kept if f not in tc.one_home)
    if unknown:
        raise ValidationError(tc.name, [f"unknown 1-cell {f!r}" for f in unknown])
    missing_units = [i for i in tc.cells0 if tc.unit[i] not in kept]
    if missing_units:
        raise ValidationError(
            tc.name, [f"1-cell class misses unit of {i!r}" for i in missing_units]
        )
    kept_from: dict[str, list[str]] = {i: [] for i in tc.cells0}
    for f in sorted(kept):
        kept_from[tc.one_home[f][0]].append(f)
    open_pairs = [
        (g, f)
        for fs in kept_from.values()
        for f in fs
        for g in kept_from[tc.one_home[f][1]]
        if tc.hcomp1[(g, f)] not in kept
    ]
    if open_pairs:
        raise ValidationError(
            tc.name, [f"1-cell class not closed under ({g!r}, {f!r})" for g, f in open_pairs]
        )
    hom: dict[tuple[str, str], FinCat] = {}
    kept2: set[str] = set()
    for (i, j), cat in tc.hom.items():
        objs = tuple(f for f in cat.objects if f in kept)
        if not objs:
            continue
        mors = [a for a in cat.morphisms if cat.dom[a] in kept and cat.cod[a] in kept]
        kept2.update(mors)
        morset = set(mors)
        hom[(i, j)] = FinCat(
            f"{cat.name}|",
            objs,
            {a: cat.dom[a] for a in mors},
            {a: cat.cod[a] for a in mors},
            {f: cat.identity[f] for f in objs},
            {k: v for k, v in cat.table.items() if k[0] in morset and k[1] in morset},
        )
    return _assemble_twocat(
        name or f"{tc.name}|sigma",
        tc.cells0,
        hom,
        {k: v for k, v in tc.hcomp1.items() if k[0] in kept and k[1] in kept},
        {k: v for k, v in tc.hcomp2.items() if k[0] in kept2 and k[1] in kept2},
        tc.unit,
        lambda i, j: _empty_cat(f"{tc.hom[(i, j)].name}|"),
    )


# ---------------------------------------------------------------------------
# Classes of 1-cells


@dataclass(eq=False)
class SigmaClass:
    owner: TwoCat
    members: frozenset[str]
    name: str = "sigma"
    # set by sigma_closure on the classes it returns, which are closed
    closed: bool = field(default=False, init=False)
    # the closed class sigma_closure returned for this one
    _closure: SigmaClass | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        bad = [f for f in self.members if f not in self.owner.one_home]
        if bad:
            raise ValidationError(self.name, [f"unknown 1-cell {f!r}" for f in bad])

    def __contains__(self, f: str) -> bool:
        return f in self.members


def all_one_cells(tc: TwoCat, name: str = "all") -> SigmaClass:
    return SigmaClass(tc, frozenset(tc.one_home), name)


def sigma_closure(s: SigmaClass) -> SigmaClass:
    """Least fixed point of: composition, identities, invertible-2-cell mates.

    A class that this function returned is closed already and comes back as
    it is; a class of every 1-cell is closed too and skips the worklist.  A
    class not so flagged keeps the class returned for it, so closing it again
    runs no second worklist.
    """
    if s.closed:
        return s
    if s._closure is None:
        members = s.members
        if len(members) < len(s.owner.one_home):
            members = _closure_worklist(s.owner, members)
        s._closure = SigmaClass(s.owner, members, f"{s.name}~")
        s._closure.closed = True
    return s._closure


def _closure_worklist(tc: TwoCat, members: Iterable[str]) -> frozenset[str]:
    """Each 1-cell that joins is composed on both sides with the members that
    meet it, and tested against its parallel 1-cells for mates."""
    closure: set[str] = set()
    out_of: dict[str, list[str]] = {i: [] for i in tc.cells0}  # members by source
    into: dict[str, list[str]] = {i: [] for i in tc.cells0}  # members by target
    work = list(members) + [tc.unit[i] for i in tc.cells0]
    while work:
        f = work.pop()
        if f in closure:
            continue
        closure.add(f)
        i, j = tc.one_home[f]
        out_of[i].append(f)
        into[j].append(f)
        work.extend(tc.hcomp1[(g, f)] for g in out_of[j])
        work.extend(tc.hcomp1[(f, e)] for e in into[i])
        work.extend(
            d
            for d in tc.cells1(i, j)
            if d not in closure
            and (tc.invertible_between(d, f) or tc.invertible_between(f, d))
        )
    return frozenset(closure)


# ---------------------------------------------------------------------------
# Strict 2-functors


@dataclass(eq=False)
class TwoFunctor:
    name: str
    source: TwoCat
    target: TwoCat
    on0: dict[str, str]
    on1: dict[str, str]
    on2: dict[str, str]

    def map1(self, f: str) -> str:
        return self.on1[f]


def twofunctor_violations(fn: TwoFunctor) -> list[str]:
    out: list[str] = []
    src, tgt = fn.source, fn.target
    for i in src.cells0:
        if fn.on0.get(i) not in tgt.cells0:
            out.append(f"0-cell {i!r} not mapped")
    for f in src.one_cells:
        i, j = src.one_home[f]
        im = fn.on1.get(f)
        if im is None or tgt.one_home.get(im) != (fn.on0[i], fn.on0[j]):
            out.append(f"1-cell {f!r} not mapped correctly")
    for a in src.two_cells:
        im = fn.on2.get(a)
        if im is None:
            out.append(f"2-cell {a!r} not mapped")
            continue
        if (
            tgt.dom2(im) != fn.on1[src.dom2(a)]
            or tgt.cod2(im) != fn.on1[src.cod2(a)]
        ):
            out.append(f"2-cell {a!r} has wrong image boundary")
    if out:
        return out
    for i in src.cells0:
        if fn.on1[src.unit[i]] != tgt.unit[fn.on0[i]]:
            out.append(f"unit of {i!r} not preserved")
    for (g, f), gf in src.hcomp1.items():
        if tgt.hcomp1[(fn.on1[g], fn.on1[f])] != fn.on1[gf]:
            out.append(f"1-cell composition not preserved on ({g!r}, {f!r})")
    for f in src.one_cells:
        if fn.on2[src.id2(f)] != tgt.id2(fn.on1[f]):
            out.append(f"identity 2-cell of {f!r} not preserved")
    for a in src.two_cells:
        cat = src.hom_of2(a)
        for b in cat.morphisms:
            if cat.dom[b] == cat.cod[a]:
                if fn.on2[cat.table[(b, a)]] != tgt.vcomp(fn.on2[b], fn.on2[a]):
                    out.append(f"vertical composition not preserved on ({b!r}, {a!r})")
    for (b, a), ba in src.hcomp2.items():
        if tgt.hcomp2[(fn.on2[b], fn.on2[a])] != fn.on2[ba]:
            out.append(f"horizontal composition not preserved on ({b!r}, {a!r})")
    return out


def build_twofunctor(
    name: str,
    source: TwoCat,
    target: TwoCat,
    on0: Mapping[str, str],
    on1: Mapping[str, str],
    on2: Mapping[str, str],
) -> TwoFunctor:
    fn = TwoFunctor(name, source, target, dict(on0), dict(on1), dict(on2))
    violations = twofunctor_violations(fn)
    if violations:
        raise ValidationError(name, violations)
    return fn


def inclusion_twofunctor(sub: TwoCat, whole: TwoCat, name: str | None = None) -> TwoFunctor:
    """The identity on the cells of a sub-2-category of ``whole``.

    Assembled without a replay: ``sub``'s tables are restrictions of
    ``whole``'s, so mapping every cell to itself preserves them all.
    """
    return TwoFunctor(
        name or f"incl({sub.name})",
        sub,
        whole,
        {i: i for i in sub.cells0},
        {f: f for f in sub.one_home},
        {a: a for a in sub.two_home},
    )


# ---------------------------------------------------------------------------
# Cat-valued pseudofunctors


@dataclass(eq=False)
class CatPseudoFunctor:
    name: str
    source: TwoCat
    on0: dict[str, FinCat]
    on1: dict[str, Functor]
    on2: dict[str, NatTrans]
    comp: dict[tuple[str, str], NatTrans]
    unit_c: dict[str, NatTrans]

    def is_strict(self) -> bool:
        return all(
            nt.components == identity_nattrans(nt.source).components
            for nt in list(self.comp.values()) + list(self.unit_c.values())
        )


def pseudofunctor_violations(pf: CatPseudoFunctor) -> list[str]:
    out: list[str] = []
    tc = pf.source
    for i in tc.cells0:
        if i not in pf.on0:
            out.append(f"no category assigned to 0-cell {i!r}")
    if out:
        return out
    for f in tc.one_cells:
        i, j = tc.one_home[f]
        fun = pf.on1.get(f)
        if fun is None or fun.source is not pf.on0[i] or fun.target is not pf.on0[j]:
            out.append(f"1-cell {f!r} has no well-typed functor")
            continue
        bad = functor_violations(fun)
        if bad:
            out.append(f"functor at {f!r}: {bad[0]}")
    if out:
        return out
    for a in tc.two_cells:
        nt = pf.on2.get(a)
        if nt is None or nt.source is not pf.on1[tc.dom2(a)] or nt.target is not pf.on1[tc.cod2(a)]:
            out.append(f"2-cell {a!r} has no well-typed transformation")
            continue
        bad = nattrans_violations(nt)
        if bad:
            out.append(f"transformation at {a!r}: {bad[0]}")
    if out:
        return out
    # local functoriality of the 2-cell action
    for f in tc.one_cells:
        if pf.on2[tc.id2(f)].components != identity_nattrans(pf.on1[f]).components:
            out.append(f"identity 2-cell of {f!r} not sent to the identity")
    for a in tc.two_cells:
        cat = tc.hom_of2(a)
        for b in cat.morphisms:
            if cat.dom[b] == cat.cod[a]:
                got = pf.on2[cat.table[(b, a)]]
                want = vcompose_nattrans(pf.on2[b], pf.on2[a])
                if got.components != want.components:
                    out.append(f"vertical composition not respected on ({b!r}, {a!r})")
    if out:
        return out
    # comparison cells: typing and invertibility
    for (g, f), nt in pf.comp.items():
        if tc.one_home[g][0] != tc.one_home[f][1]:
            out.append(f"comparison listed for non-composable ({g!r}, {f!r})")
            continue
        gf = tc.hcomp1[(g, f)]
        if nattrans_violations(nt):
            out.append(f"comparison at ({g!r}, {f!r}) is not natural")
        elif not nt.is_invertible():
            out.append(f"comparison at ({g!r}, {f!r}) is not invertible")
        elif nt.source.key() != compose_functors(pf.on1[g], pf.on1[f]).key():
            out.append(f"comparison at ({g!r}, {f!r}) has wrong domain")
        elif nt.target.key() != pf.on1[gf].key():
            out.append(f"comparison at ({g!r}, {f!r}) has wrong codomain")
    for f in tc.one_cells:
        j = tc.one_home[f][1]
        for g in tc.one_cells:
            if tc.one_home[g][0] == j and (g, f) not in pf.comp:
                out.append(f"missing comparison at ({g!r}, {f!r})")
    for i in tc.cells0:
        nt = pf.unit_c.get(i)
        if nt is None:
            out.append(f"missing unit comparison at {i!r}")
        elif nattrans_violations(nt) or not nt.is_invertible():
            out.append(f"unit comparison at {i!r} invalid")
        elif nt.target.key() != pf.on1[tc.unit[i]].key():
            out.append(f"unit comparison at {i!r} has wrong codomain")
    if out:
        return out
    # naturality of the comparison in both arguments
    for a in tc.two_cells:
        ai, aj = tc.two_home[a]
        for b in tc.two_cells:
            if tc.two_home[b][0] != aj:
                continue
            f, f2 = tc.dom2(a), tc.cod2(a)
            g, g2 = tc.dom2(b), tc.cod2(b)
            lhs = vcompose_nattrans(pf.on2[tc.hcomp2[(b, a)]], pf.comp[(g, f)])
            rhs = vcompose_nattrans(
                pf.comp[(g2, f2)], hcompose_nattrans(pf.on2[b], pf.on2[a])
            )
            if lhs.components != rhs.components:
                out.append(f"comparison not natural in ({b!r}, {a!r})")
                if len(out) > 10:
                    return out
    # associativity coherence on every composable triple
    for f in tc.one_cells:
        for g in tc.one_cells:
            if tc.one_home[g][0] != tc.one_home[f][1]:
                continue
            for h in tc.one_cells:
                if tc.one_home[h][0] != tc.one_home[g][1]:
                    continue
                gf, hg = tc.hcomp1[(g, f)], tc.hcomp1[(h, g)]
                lhs = vcompose_nattrans(
                    pf.comp[(h, gf)], whisker_functor(pf.on1[h], pf.comp[(g, f)])
                )
                rhs = vcompose_nattrans(
                    pf.comp[(hg, f)], whisker_nattrans(pf.comp[(h, g)], pf.on1[f])
                )
                if lhs.components != rhs.components:
                    out.append(f"associativity coherence fails on ({h!r}, {g!r}, {f!r})")
                    if len(out) > 10:
                        return out
    # unit coherence triangles
    for f in tc.one_cells:
        i, j = tc.one_home[f]
        ident = identity_nattrans(pf.on1[f]).components
        left = vcompose_nattrans(
            pf.comp[(tc.unit[j], f)], whisker_nattrans(pf.unit_c[j], pf.on1[f])
        )
        right = vcompose_nattrans(
            pf.comp[(f, tc.unit[i])], whisker_functor(pf.on1[f], pf.unit_c[i])
        )
        if left.components != ident or right.components != ident:
            out.append(f"unit coherence fails at {f!r}")
    return out


def _assemble_pseudofunctor(
    name: str,
    source: TwoCat,
    on0: Mapping[str, FinCat],
    on1: Mapping[str, Functor],
    on2: Mapping[str, NatTrans],
    comp: Mapping[tuple[str, str], NatTrans] | None = None,
    unit_c: Mapping[str, NatTrans] | None = None,
) -> CatPseudoFunctor:
    """A CatPseudoFunctor on the given data, unchecked; omitted comparison
    data defaults to strict."""
    comp = dict(comp) if comp is not None else {}
    unit_c = dict(unit_c) if unit_c is not None else {}
    ones_from: dict[str, list[str]] = {i: [] for i in source.cells0}  # in name order
    for g in source.one_cells:
        ones_from[source.one_home[g][0]].append(g)
    for f in source.one_cells:
        for g in ones_from[source.one_home[f][1]]:
            if (g, f) in comp:
                continue
            gf = source.hcomp1[(g, f)]
            comp[(g, f)] = NatTrans(
                f"c({g},{f})",
                compose_functors(on1[g], on1[f]),
                on1[gf],
                identity_nattrans(on1[gf]).components,
            )
    for i in source.cells0:
        if i not in unit_c:
            unit_c[i] = NatTrans(
                f"u({i})",
                identity_functor(on0[i]),
                on1[source.unit[i]],
                identity_nattrans(on1[source.unit[i]]).components,
            )
    return CatPseudoFunctor(name, source, dict(on0), dict(on1), dict(on2), comp, unit_c)


def build_pseudofunctor(
    name: str,
    source: TwoCat,
    on0: Mapping[str, FinCat],
    on1: Mapping[str, Functor],
    on2: Mapping[str, NatTrans],
    comp: Mapping[tuple[str, str], NatTrans] | None = None,
    unit_c: Mapping[str, NatTrans] | None = None,
) -> CatPseudoFunctor:
    """Assemble and validate a pseudofunctor; omitted comparison data
    defaults to strict."""
    pf = _assemble_pseudofunctor(name, source, on0, on1, on2, comp, unit_c)
    violations = pseudofunctor_violations(pf)
    if violations:
        raise ValidationError(name, violations)
    return pf


def stagewise_pseudofunctor(
    name: str,
    source: TwoCat,
    on0: Mapping[str, FinCat],
    on1: Mapping[str, Functor],
    image: Callable[..., dict[str, str]],
) -> CatPseudoFunctor:
    """A diagram obtained by applying one Cat-construction at every stage.

    ``on0`` and ``on1`` are the new fibers and transition functors.  Each new
    structure 2-cell ``src ⇒ tgt``, between functors ``on0[i] -> on0[j]``,
    gets its components from the one rule ``image(cell, i, j, src, tgt)``;
    ``cell`` picks the old 2-cell out of a diagram (``lambda p: p.on2[b]``),
    so one rule can read the cells of several diagrams.

    Assembled without a replay: the callers' constructions (product with a
    second diagram, [2, -], [K, -]) are 2-functors on Cat, and a 2-functor
    applied stagewise to a coherent diagram gives a coherent one.
    ``bilim.biequalizer_diagram``, whose functors depend on its caller's u
    and v, checks what this returns.
    """

    def cell(label: str, pick, i: str, j: str, src: Functor, tgt: Functor) -> NatTrans:
        return NatTrans(f"{name}_{label}", src, tgt, image(pick, i, j, src, tgt))

    on2, comp, unit_c = {}, {}, {}
    for b in source.two_cells:
        src, tgt = on1[source.dom2(b)], on1[source.cod2(b)]
        on2[b] = cell(b, lambda p: p.on2[b], *source.two_home[b], src, tgt)
    for (g, f), gf in source.hcomp1.items():
        i, j = source.one_home[f][0], source.one_home[g][1]
        src = compose_functors(on1[g], on1[f])
        comp[(g, f)] = cell(f"c({g},{f})", lambda p: p.comp[(g, f)], i, j, src, on1[gf])
    for i in source.cells0:
        src = identity_functor(on0[i])
        unit_c[i] = cell(f"u({i})", lambda p: p.unit_c[i], i, i, src, on1[source.unit[i]])
    return _assemble_pseudofunctor(name, source, on0, on1, on2, comp, unit_c)


def validate_pseudofunctor(data: Mapping, index: TwoCat) -> CatPseudoFunctor:
    """Build a Cat-valued pseudofunctor over a validated index from a raw
    document (fiber tables per 0-cell, functor tables per 1-cell,
    transformation components per 2-cell, comparison tables or "strict")."""
    from .fincat import build_functor, validate_fincat

    label = data.get("name", "<diagram>")
    try:
        fibers = {
            i: validate_fincat(body, f"{label}@{i}") for i, body in data["fibers"].items()
        }
        missing = set(index.cells0) - set(fibers)
        if missing:
            raise ValidationError(label, [f"missing fibers for {sorted(missing)}"])
        on1 = {}
        for f, body in data["on1"].items():
            i, j = index.one_home[f]
            on1[f] = build_functor(
                f"{label}.{f}", fibers[i], fibers[j], body["objects"], body["morphisms"]
            )
        on2 = {}
        for a, body in data["on2"].items():
            on2[a] = NatTrans(
                f"{label}.{a}",
                on1[index.dom2(a)],
                on1[index.cod2(a)],
                dict(body["components"]),
            )
        comparisons = data.get("comparisons", "strict")
        comp: dict[tuple[str, str], NatTrans] = {}
        unit_c: dict[str, NatTrans] = {}
        if comparisons != "strict":
            for key, body in comparisons.get("comp", {}).items():
                pair = key.split("|")
                if len(pair) != 2:
                    raise ValidationError(label, [f"comparison key {key!r} is not one 'g|f' pair"])
                g, f = pair
                comp[(g, f)] = NatTrans(
                    f"{label}.c({g},{f})",
                    compose_functors(on1[g], on1[f]),
                    on1[index.hcomp1[(g, f)]],
                    dict(body["components"]),
                )
            for i, body in comparisons.get("unit", {}).items():
                unit_c[i] = NatTrans(
                    f"{label}.u({i})",
                    identity_functor(fibers[i]),
                    on1[index.unit[i]],
                    dict(body["components"]),
                )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(label, [f"malformed document: {exc}"])
    return build_pseudofunctor(
        label, index, fibers, on1, on2, comp or None, unit_c or None
    )


def constant_pseudofunctor(tc: TwoCat, value: FinCat, name: str | None = None) -> CatPseudoFunctor:
    """The diagram with one value at every 0-cell, assembled without a
    replay: every functor and transformation is an identity, so each
    coherence law compares identities."""
    ident = identity_functor(value)
    return _assemble_pseudofunctor(
        name or f"const({value.name})",
        tc,
        {i: value for i in tc.cells0},
        {f: ident for f in tc.one_home},
        {a: identity_nattrans(ident) for a in tc.two_home},
    )


def restrict_pseudofunctor(pf: CatPseudoFunctor, sub: TwoCat, name: str | None = None) -> CatPseudoFunctor:
    """Restrict along a full-on-0-and-2-cells subcategory with fewer 1-cells."""
    return CatPseudoFunctor(
        name or f"{pf.name}|{sub.name}",
        sub,
        {i: pf.on0[i] for i in sub.cells0},
        {f: pf.on1[f] for f in sub.one_home},
        {a: pf.on2[a] for a in sub.two_home},
        {k: v for k, v in pf.comp.items() if k[0] in sub.one_home and k[1] in sub.one_home},
        dict(pf.unit_c),
    )


def precompose_pseudofunctor(pf: CatPseudoFunctor, fn: TwoFunctor, name: str | None = None) -> CatPseudoFunctor:
    """pf ∘ fn for a strict 2-functor fn into pf's source."""
    tc = fn.source
    return CatPseudoFunctor(
        name or f"{pf.name}.{fn.name}",
        tc,
        {i: pf.on0[fn.on0[i]] for i in tc.cells0},
        {f: pf.on1[fn.on1[f]] for f in tc.one_home},
        {a: pf.on2[fn.on2[a]] for a in tc.two_home},
        {
            (g, f): pf.comp[(fn.on1[g], fn.on1[f])]
            for f in tc.one_home
            for g in tc.one_home
            if tc.one_home[g][0] == tc.one_home[f][1]
        },
        {i: pf.unit_c[fn.on0[i]] for i in tc.cells0},
    )

