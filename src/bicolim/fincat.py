"""Finite categories with total composition tables.

A :class:`FinCat` stores its objects, morphisms and the full composition
table; morphism equality is identifier equality, which makes every question
about these categories decidable by finite search.  The module also provides
functors, natural transformations, skeletons, a decision procedure for
equivalence of categories, and functor categories.

Identifiers are opaque strings.  All search orders are lexicographic over
identifiers so that every derived construction is reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Mapping

from .verdict import Verdict, negative, positive


class ValidationError(Exception):
    """Raised when a raw description violates the axioms it claims.

    ``violations`` lists every broken axiom found, not just the first.
    """

    def __init__(self, subject: str, violations: list[str]):
        self.subject = subject
        self.violations = violations
        preview = "; ".join(violations[:5])
        if len(violations) > 5:
            preview += f"; ... ({len(violations)} total)"
        super().__init__(f"{subject}: {preview}")


class SizeGuardError(Exception):
    """An exponential construction would exceed its configured bound."""


class NotInvertibleError(Exception):
    """A morphism that a construction needs to invert has no inverse."""


@dataclass(eq=False)
class FinCat:
    name: str
    objects: tuple[str, ...]
    dom: dict[str, str]
    cod: dict[str, str]
    identity: dict[str, str]
    table: dict[tuple[str, str], str]
    _iso_cache: dict[str, str | None] = field(default_factory=dict, repr=False)
    # built on first use; values are immutable once validated
    _morphisms: tuple[str, ...] | None = field(default=None, repr=False)
    _hom_index: dict[tuple[str, str], tuple[str, ...]] | None = field(default=None, repr=False)

    @property
    def morphisms(self) -> tuple[str, ...]:
        if self._morphisms is None:
            self._morphisms = tuple(sorted(self.dom))
        return self._morphisms

    def compose(self, g: str, f: str) -> str:
        """Composite ``g after f``; raises KeyError off composable pairs."""
        return self.table[(g, f)]

    def id(self, x: str) -> str:
        return self.identity[x]

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        """Morphisms a -> b in name order; ``()`` for an empty hom."""
        if self._hom_index is None:
            index: dict[tuple[str, str], list[str]] = {}
            for m in self.morphisms:
                index.setdefault((self.dom[m], self.cod[m]), []).append(m)
            self._hom_index = {k: tuple(ms) for k, ms in index.items()}
        return self._hom_index.get((a, b), ())

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.dom[m]) == m

    def inverse(self, m: str) -> str | None:
        """Two-sided inverse of ``m`` if one exists, else None."""
        if m not in self._iso_cache:
            found = None
            for n in self.hom(self.cod[m], self.dom[m]):
                if (
                    self.table[(n, m)] == self.identity[self.dom[m]]
                    and self.table[(m, n)] == self.identity[self.cod[m]]
                ):
                    found = n
                    break
            self._iso_cache[m] = found
        return self._iso_cache[m]

    def must_inverse(self, m: str) -> str:
        """Inverse of ``m``; raises NotInvertibleError when it has none."""
        inv = self.inverse(m)
        if inv is None:
            raise NotInvertibleError(f"{m!r} has no inverse in {self.name}")
        return inv

    def is_iso(self, m: str) -> bool:
        return self.inverse(m) is not None

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        by_dom: dict[str, list[str]] = {x: [] for x in self.objects}
        for m in self.morphisms:
            by_dom[self.dom[m]].append(m)
        for f in self.morphisms:
            for g in by_dom[self.cod[f]]:
                yield g, f

    def describe(self) -> dict:
        return {
            "objects": list(self.objects),
            "morphisms": [
                {"name": m, "dom": self.dom[m], "cod": self.cod[m]}
                for m in self.morphisms
            ],
            "identities": dict(sorted(self.identity.items())),
            "composition": [
                [g, f, gf] for (g, f), gf in sorted(self.table.items())
            ],
        }


def build_fincat(
    name: str,
    objects: Iterable[str],
    morphisms: Iterable[tuple[str, str, str]],
    identities: Mapping[str, str],
    composition: Mapping[tuple[str, str], str],
) -> FinCat:
    """Assemble and validate a finite category.

    ``morphisms`` are (name, dom, cod) triples; ``composition`` maps the
    composable pair (g, f) to g∘f and must be defined on exactly the
    composable pairs.
    """
    cat = _assemble_fincat(name, list(objects), list(morphisms), dict(identities), dict(composition))
    violations = fincat_violations(cat)
    if violations:
        raise ValidationError(name, violations)
    return cat


def _assemble_fincat(
    name: str,
    objects: Collection[str],
    morphisms: Collection[tuple[str, str, str]],
    identities: dict[str, str],
    composition: dict[tuple[str, str], str],
) -> FinCat:
    """A FinCat on the given tables, unchecked, laid out as
    :func:`build_fincat` lays it out; it keeps the two dicts it is given.
    A repeated object or morphism name, which would merge two cells, raises
    :class:`ValidationError` naming the category and the name."""
    dom: dict[str, str] = {}
    cod: dict[str, str] = {}
    for m, d, c in morphisms:
        dom[m], cod[m] = d, c
    kept = tuple(sorted(set(objects)))
    if len(kept) != len(objects):
        _refuse_repeat(name, "object", objects)
    if len(dom) != len(morphisms):
        _refuse_repeat(name, "morphism", [m for m, _, _ in morphisms])
    return FinCat(name, kept, dom, cod, identities, composition)


def _refuse_repeat(subject: str, kind: str, names: Iterable[str]) -> None:
    """Raise the ValidationError naming the first repeated name."""
    seen: set[str] = set()
    for n in names:
        if n in seen:
            raise ValidationError(subject, [f"repeated {kind} name {n!r}"])
        seen.add(n)


def _assemble_composed(
    name: str,
    objects: Collection[str],
    morphisms: list[tuple[str, str, str]],
    identities: dict[str, str],
    compose: Callable[[str, str, str, str], str],
) -> FinCat:
    """:func:`_assemble_fincat` with g∘f = ``compose(g, f, x, z)`` for every
    pair of rows f: x -> y, g: y -> z, in row order, visiting only the pairs
    that meet.  The names are checked first, so ``compose`` may read the
    caller's tables keyed by name."""
    cat = _assemble_fincat(name, objects, morphisms, identities, {})
    starting_at: dict[str, list[tuple[str, str]]] = {}
    for g, y, z in morphisms:
        starting_at.setdefault(y, []).append((g, z))
    for f, x, y in morphisms:
        for g, z in starting_at.get(y, ()):
            cat.table[(g, f)] = compose(g, f, x, z)
    return cat


def fincat_violations(cat: FinCat) -> list[str]:
    """Exhaustively check the category axioms; returns all violations.

    Typing and totality are decided in one pass over the table: every entry
    must be a composable pair with a composite of the right dom/cod, and the
    table must have Σₓ |into x|·|out_of x| entries.  Its keys are distinct
    and composable, so an equal count means it is total.  Only when that
    pass fails does the set-based listing run, naming every missing or
    ill-typed entry.  Associativity is decided by
    :func:`associative_over_generators`.  When a unit law fails, or that test
    finds a failure, the full triple scan runs so that every violated triple
    is listed.
    """
    out: list[str] = []
    objset = set(cat.objects)
    for m in cat.dom:
        if cat.dom[m] not in objset or cat.cod[m] not in objset:
            out.append(f"morphism {m!r} has dangling dom/cod")
    if out:
        return out
    for x in cat.objects:
        i = cat.identity.get(x)
        if i is None:
            out.append(f"object {x!r} has no identity")
        elif i not in cat.dom or cat.dom[i] != x or cat.cod[i] != x:
            out.append(f"identity of {x!r} is not an endomorphism of it")
    for x, i in cat.identity.items():
        if x not in objset:
            out.append(f"identity listed for unknown object {x!r}")
    if out:
        return out

    out_of, into = incidence(cat.dom, cat.cod)
    if not _typed_and_total(cat, out_of, into):  # list what the pass rejected
        composable = set(cat.composable_pairs())
        for pair in composable:
            if pair not in cat.table:
                out.append(f"composition not total: {pair[0]!r} after {pair[1]!r} missing")
        for (g, f), gf in cat.table.items():
            if (g, f) not in composable:
                out.append(f"composite listed for non-composable pair ({g!r}, {f!r})")
            elif gf not in cat.dom:
                out.append(f"composite {gf!r} of ({g!r}, {f!r}) is not a morphism")
            elif cat.dom[gf] != cat.dom[f] or cat.cod[gf] != cat.cod[g]:
                out.append(f"composite of ({g!r}, {f!r}) has wrong dom/cod")
        return out

    for m in cat.dom:
        if cat.table[(cat.identity[cat.cod[m]], m)] != m:
            out.append(f"left identity law fails at {m!r}")
        if cat.table[(m, cat.identity[cat.dom[m]])] != m:
            out.append(f"right identity law fails at {m!r}")
    if out or not associative_over_generators(
        cat.dom, cat.cod, cat.identity.values(), cat.table, out_of, into
    ):
        _associativity_scan(cat, out_of, out)
    return out


def incidence(
    dom: Mapping[str, str], cod: Mapping[str, str]
) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """The morphisms out of and into each object that has any."""
    out_of: dict[str, list[str]] = {}
    into: dict[str, list[str]] = {}
    for m in dom:
        out_of.setdefault(dom[m], []).append(m)
        into.setdefault(cod[m], []).append(m)
    return out_of, into


def _typed_and_total(
    cat: FinCat, out_of: Mapping[str, list[str]], into: Mapping[str, list[str]]
) -> bool:
    """Every entry composable and well typed, and one entry per composable pair."""
    dom, cod = cat.dom, cat.cod
    expected = sum(len(ms) * len(out_of.get(x, ())) for x, ms in into.items())
    if len(cat.table) != expected:
        return False
    try:
        for (g, f), gf in cat.table.items():
            if cod[f] != dom[g] or dom[gf] != dom[f] or cod[gf] != cod[g]:
                return False
    except KeyError:  # a key or a composite that is no morphism
        return False
    return True


def _associativity_scan(
    cat: FinCat, out_of: Mapping[str, list[str]], out: list[str]
) -> None:
    """Associativity over every composable triple, appended to ``out``."""
    for g, f in set(cat.composable_pairs()):
        gf = cat.table[(g, f)]
        for h in out_of[cat.cod[g]]:
            if cat.table[(h, gf)] != cat.table[(cat.table[(h, g)], f)]:
                out.append(f"associativity fails on ({h!r}, {g!r}, {f!r})")
                if len(out) > 20:
                    return


def sole_morphisms(rows: Iterable[tuple[str, str, str]]) -> dict[tuple[str, str], str | None]:
    """Each nonempty hom, keyed by (dom, cod): its morphism if it holds
    exactly one, else None.

    ``rows`` are (name, dom, cod) triples.  In a well-typed table a composite
    that lands in a one-morphism hom must be that morphism, so it needs no
    computing.
    """
    sole: dict[tuple[str, str], str | None] = {}
    for m, d, c in rows:
        key = (d, c)
        sole[key] = None if key in sole else m
    return sole


def associative_over_generators(
    dom: Mapping[str, str],
    cod: Mapping[str, str],
    identities: Collection[str],
    table: Mapping[tuple[str, str], str],
    out_of: Mapping[str, list[str]],
    into: Mapping[str, list[str]],
) -> bool:
    """Light's associativity test: check h∘(a∘f) = (h∘a)∘f for middles ``a``
    in a generating set only.

    ``identities`` holds the identity of each object, and ``out_of``/``into``
    list the morphisms out of and into each object (:func:`incidence`).  The
    table must be well typed and total on composable pairs, and the unit laws
    must hold.  Then the test is exact (Clifford & Preston, The Algebraic
    Theory of Semigroups I, 1961, §1.2): the law holds at identities by the
    unit laws, and if it holds at a1 and a2 it holds at a1∘a2, since
    h∘((a1∘a2)∘f) = h∘(a1∘(a2∘f)) = (h∘a1)∘(a2∘f) = ((h∘a1)∘a2)∘f
    = (h∘(a1∘a2))∘f uses only the law at a1 and a2.

    When every hom holds at most one morphism the table is associative
    outright: being well typed, it puts h∘(a∘f) and (h∘a)∘f in the same
    hom, dom f → cod h.
    """
    if None not in sole_morphisms((m, dom[m], cod[m]) for m in dom).values():
        return True
    for a in generating_set(dom, cod, set(identities), table, out_of):
        after = [(h, table[(h, a)]) for h in out_of.get(cod[a], ())]
        for f in into.get(dom[a], ()):
            af = table[(a, f)]
            for h, ha in after:
                if table[(h, af)] != table[(ha, f)]:
                    return False
    return True


def generating_set(
    dom: Mapping[str, str],
    cod: Mapping[str, str],
    ids: set[str],
    table: Mapping[tuple[str, str], str],
    out_of: Mapping[str, list[str]],
) -> list[str]:
    """Non-identities whose closure under composition is every morphism.

    ``out_of`` lists the morphisms out of each object, and ``table`` must be
    total on composable pairs.  First every non-identity that is no composite
    of two non-identities (each generating set contains these), then, while
    some morphism is unreached, the least such one in name order.
    """
    composites = {
        table[(g, f)]
        for f in dom
        if f not in ids
        for g in out_of.get(cod[f], ())
        if g not in ids
    }
    reached = set(ids)
    reached_out: dict[str, list[str]] = {}
    reached_in: dict[str, list[str]] = {}

    def close(start: str) -> None:
        reached.add(start)
        work = [start]
        while work:
            m = work.pop()
            reached_out.setdefault(dom[m], []).append(m)
            reached_in.setdefault(cod[m], []).append(m)
            found = [table[(g, m)] for g in reached_out.get(cod[m], ())]
            found += [table[(m, f)] for f in reached_in.get(dom[m], ())]
            for n in found:
                if n not in reached:
                    reached.add(n)
                    work.append(n)

    gens = [m for m in sorted(dom) if m not in ids and m not in composites]
    for m in gens:
        close(m)
    for m in sorted(dom):
        if m not in reached:
            gens.append(m)
            close(m)
    return gens


def validate_fincat(data: Mapping, name: str | None = None) -> FinCat:
    """Build a FinCat from a raw fixture document."""
    try:
        objects = list(data["objects"])
        morphisms = [(m["name"], m["dom"], m["cod"]) for m in data["morphisms"]]
        identities = dict(data["identities"])
        composition = {(g, f): gf for g, f, gf in data["composition"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(name or "<fincat>", [f"malformed document: {exc}"])
    return build_fincat(name or data.get("name", "<fincat>"), objects, morphisms, identities, composition)


# ---------------------------------------------------------------------------
# Functors and natural transformations


@dataclass(eq=False)
class Functor:
    name: str
    source: FinCat
    target: FinCat
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    def key(self) -> tuple:
        return (
            tuple(sorted(self.obj_map.items())),
            tuple(sorted(self.mor_map.items())),
        )


def functor_violations(fun: Functor) -> list[str]:
    out: list[str] = []
    src, tgt = fun.source, fun.target
    tgt_objects = set(tgt.objects)
    for x in src.objects:
        if fun.obj_map.get(x) not in tgt_objects:
            out.append(f"object {x!r} not mapped into target")
    for m in src.dom:
        im = fun.mor_map.get(m)
        if im not in tgt.dom:
            out.append(f"morphism {m!r} not mapped into target")
            continue
        if tgt.dom[im] != fun.obj_map[src.dom[m]] or tgt.cod[im] != fun.obj_map[src.cod[m]]:
            out.append(f"image of {m!r} has wrong dom/cod")
    if out:
        return out
    for x in src.objects:
        if fun.mor_map[src.identity[x]] != tgt.identity[fun.obj_map[x]]:
            out.append(f"identity of {x!r} not preserved")
    for (g, f), gf in src.table.items():
        if tgt.table[(fun.mor_map[g], fun.mor_map[f])] != fun.mor_map[gf]:
            out.append(f"composition not preserved on ({g!r}, {f!r})")
            if len(out) > 20:
                return out
    return out


def build_functor(
    name: str,
    source: FinCat,
    target: FinCat,
    obj_map: Mapping[str, str],
    mor_map: Mapping[str, str],
) -> Functor:
    fun = Functor(name, source, target, dict(obj_map), dict(mor_map))
    violations = functor_violations(fun)
    if violations:
        raise ValidationError(name, violations)
    return fun


def identity_functor(cat: FinCat) -> Functor:
    return Functor(
        f"1_{cat.name}",
        cat,
        cat,
        {x: x for x in cat.objects},
        {m: m for m in cat.dom},
    )


def compose_functors(g: Functor, f: Functor) -> Functor:
    """g∘f; sources and targets must match up."""
    if g.source is not f.target and not same_category(g.source, f.target):
        raise ValueError(f"cannot compose {g.name} after {f.name}")
    return Functor(
        f"{g.name}.{f.name}",
        f.source,
        g.target,
        {x: g.obj_map[y] for x, y in f.obj_map.items()},
        {m: g.mor_map[n] for m, n in f.mor_map.items()},
    )


@dataclass(eq=False)
class NatTrans:
    name: str
    source: Functor
    target: Functor
    components: dict[str, str]

    def key(self) -> tuple:
        return (self.source.key(), self.target.key(), tuple(sorted(self.components.items())))

    def is_invertible(self) -> bool:
        tgt = self.source.target
        return all(tgt.is_iso(c) for c in self.components.values())


def nattrans_violations(nt: NatTrans) -> list[str]:
    out: list[str] = []
    f, g = nt.source, nt.target
    if not same_category(f.source, g.source) or not same_category(f.target, g.target):
        return ["source/target functors are not parallel"]
    cat, tgt = f.source, f.target
    for x in cat.objects:
        c = nt.components.get(x)
        if c is None or c not in tgt.dom:
            out.append(f"no component at {x!r}")
        elif tgt.dom[c] != f.obj_map[x] or tgt.cod[c] != g.obj_map[x]:
            out.append(f"component at {x!r} has wrong dom/cod")
    if out:
        return out
    for m in cat.dom:
        x, y = cat.dom[m], cat.cod[m]
        left = tgt.table[(g.mor_map[m], nt.components[x])]
        right = tgt.table[(nt.components[y], f.mor_map[m])]
        if left != right:
            out.append(f"naturality square fails at {m!r}")
    return out


def build_nattrans(
    name: str, source: Functor, target: Functor, components: Mapping[str, str]
) -> NatTrans:
    nt = NatTrans(name, source, target, dict(components))
    violations = nattrans_violations(nt)
    if violations:
        raise ValidationError(name, violations)
    return nt


def identity_nattrans(fun: Functor) -> NatTrans:
    return NatTrans(
        f"1_{fun.name}",
        fun,
        fun,
        {x: fun.target.identity[fun.obj_map[x]] for x in fun.source.objects},
    )


def vcompose_nattrans(beta: NatTrans, alpha: NatTrans) -> NatTrans:
    """Vertical composite beta∘alpha (alpha first)."""
    tgt = alpha.source.target
    return NatTrans(
        f"{beta.name}.{alpha.name}",
        alpha.source,
        beta.target,
        {
            x: tgt.table[(beta.components[x], alpha.components[x])]
            for x in alpha.components
        },
    )


def hcompose_nattrans(beta: NatTrans, alpha: NatTrans) -> NatTrans:
    """Horizontal composite: beta over alpha, i.e. (H ⇒ H') ★ (G ⇒ G')."""
    h_prime = beta.target
    cat = h_prime.target
    return NatTrans(
        f"{beta.name}*{alpha.name}",
        compose_functors(beta.source, alpha.source),
        compose_functors(beta.target, alpha.target),
        {
            x: cat.table[(h_prime.mor_map[alpha.components[x]], beta.components[alpha.source.obj_map[x]])]
            for x in alpha.components
        },
    )


def whisker_functor(fun: Functor, alpha: NatTrans) -> NatTrans:
    """fun ★ alpha: postcompose both sides of alpha with fun."""
    return NatTrans(
        f"{fun.name}*{alpha.name}",
        compose_functors(fun, alpha.source),
        compose_functors(fun, alpha.target),
        {x: fun.mor_map[c] for x, c in alpha.components.items()},
    )


def whisker_nattrans(alpha: NatTrans, fun: Functor) -> NatTrans:
    """alpha ★ fun: restrict alpha along fun."""
    return NatTrans(
        f"{alpha.name}*{fun.name}",
        compose_functors(alpha.source, fun),
        compose_functors(alpha.target, fun),
        {x: alpha.components[fun.obj_map[x]] for x in fun.source.objects},
    )


# ---------------------------------------------------------------------------
# Skeletons and equivalence


@dataclass(eq=False)
class Skeleton:
    category: FinCat
    inclusion: Functor
    retraction: Functor
    # chosen isomorphism x -> representative(x); identity on representatives
    to_rep: dict[str, str]


def iso_classes(cat: FinCat) -> dict[str, str]:
    """Map each object to the least object isomorphic to it."""
    rep = {x: x for x in cat.objects}

    def find(x: str) -> str:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for m in cat.morphisms:
        if cat.is_iso(m):
            a, b = find(cat.dom[m]), find(cat.cod[m])
            if a != b:
                lo, hi = sorted((a, b))
                rep[hi] = lo
    return {x: find(x) for x in cat.objects}


def skeleton(cat: FinCat) -> Skeleton:
    """One object per isomorphism class, with the equivalence witnesses.

    Assembled without a replay, since each part is correct by construction:
    the skeleton is the full subcategory on the representatives, so its
    composites stay inside; the inclusion maps every cell to itself; the
    retraction conjugates by the chosen isomorphisms t, r(f) = t_y∘f∘t_x⁻¹
    for f : x -> y, so r(g)∘r(f) = t_z∘g∘f∘t_x⁻¹ = r(g∘f) and r(1_x) = 1.
    """
    reps = iso_classes(cat)
    kept = tuple(sorted(set(reps.values())))
    keptset = set(kept)
    kept_mors = [
        m for m in cat.morphisms if cat.dom[m] in keptset and cat.cod[m] in keptset
    ]
    kept_morset = set(kept_mors)
    skel = FinCat(
        f"sk({cat.name})",
        kept,
        {m: cat.dom[m] for m in kept_mors},
        {m: cat.cod[m] for m in kept_mors},
        {x: cat.identity[x] for x in kept},
        {
            (g, f): gf
            for (g, f), gf in cat.table.items()
            if g in kept_morset and f in kept_morset
        },
    )
    inclusion = Functor(
        f"incl({cat.name})", skel, cat, {x: x for x in kept}, {m: m for m in kept_mors}
    )
    # Deterministic isomorphism x -> rep(x): least-named iso, identity on reps.
    to_rep: dict[str, str] = {}
    for x in cat.objects:
        if reps[x] == x:
            to_rep[x] = cat.identity[x]
        else:
            to_rep[x] = min(m for m in cat.hom(x, reps[x]) if cat.is_iso(m))
    mor_map = {}
    for m in cat.morphisms:
        x, y = cat.dom[m], cat.cod[m]
        back = cat.must_inverse(to_rep[x])
        mor_map[m] = cat.table[(cat.table[(to_rep[y], m)], back)]
    retraction = Functor(f"retr({cat.name})", cat, skel, dict(reps), mor_map)
    return Skeleton(skel, inclusion, retraction, to_rep)


def _object_signature(cat: FinCat, x: str) -> tuple:
    pairs = sorted(
        (len(cat.hom(x, y)), len(cat.hom(y, x))) for y in cat.objects
    )
    return (len(cat.hom(x, x)), tuple(pairs))


def _iso_search(a: FinCat, b: FinCat) -> tuple[dict[str, str], dict[str, str]] | None:
    """Backtracking isomorphism-of-categories search (objects then morphisms).

    A returned pair is an isomorphism: bijective on objects and on morphisms,
    identities to identities, and checked on every composable pair.
    """
    if len(a.objects) != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return None
    sig_a = {x: _object_signature(a, x) for x in a.objects}
    sig_b = {y: _object_signature(b, y) for y in b.objects}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None

    objs = list(a.objects)

    def assign_morphisms(obj_map: dict[str, str]) -> dict[str, str] | None:
        mors = sorted(a.dom)
        mor_map: dict[str, str] = {}
        used: set[str] = set()

        def extend(k: int) -> bool:
            if k == len(mors):
                # a pair is checked incrementally only when its composite was
                # assigned first, so the full table decides
                return all(
                    b.table.get((mor_map[g], mor_map[f])) == mor_map[gf]
                    for (g, f), gf in a.table.items()
                )
            m = mors[k]
            if a.is_identity(m):
                candidates = [b.identity[obj_map[a.dom[m]]]]
            else:
                candidates = [
                    n
                    for n in b.hom(obj_map[a.dom[m]], obj_map[a.cod[m]])
                    if n not in used and not b.is_identity(n)
                ]
            for n in candidates:
                if n in used:
                    continue
                mor_map[m] = n
                used.add(n)
                # check composition against every previously assigned morphism
                ok = True
                for p in list(mor_map):
                    for g, f in ((p, m), (m, p), (m, m)):
                        if (g, f) in a.table:
                            gf = a.table[(g, f)]
                            if gf in mor_map and b.table.get((mor_map[g], mor_map[f])) != mor_map[gf]:
                                ok = False
                                break
                            if gf not in mor_map and (mor_map[g], mor_map[f]) not in b.table:
                                ok = False
                                break
                    if not ok:
                        break
                if ok:
                    if extend(k + 1):
                        return True
                mor_map.pop(m)
                used.discard(n)
            return False

        return dict(mor_map) if extend(0) else None

    def extend_obj(k: int, obj_map: dict[str, str], used: set[str]) -> tuple[dict, dict] | None:
        if k == len(objs):
            mm = assign_morphisms(obj_map)
            if mm is not None:
                return dict(obj_map), mm
            return None
        x = objs[k]
        for y in b.objects:
            if y in used or sig_b[y] != sig_a[x]:
                continue
            obj_map[x] = y
            used.add(y)
            result = extend_obj(k + 1, obj_map, used)
            if result is not None:
                return result
            obj_map.pop(x)
            used.discard(y)
        return None

    return extend_obj(0, {}, set())


def check_equivalence(c: FinCat, d: FinCat) -> Verdict:
    """Decide equivalence of categories, with constructive witnesses.

    Finite categories are equivalent exactly when their skeletons are
    isomorphic, so we skeletonize and run a backtracking isomorphism search
    constrained by hom-set cardinality profiles.  The witnesses are
    assembled without a replay: the search returns an isomorphism, so its
    inverse is a functor too, and the unit and counit are the chosen
    isomorphisms to representatives, natural because the retractions
    conjugate by them.
    """
    sk_c, sk_d = skeleton(c), skeleton(d)
    if len(sk_c.category.objects) != len(sk_d.category.objects):
        return negative(
            "equivalence",
            {
                "reason": "object-class count mismatch",
                "left_classes": len(sk_c.category.objects),
                "right_classes": len(sk_d.category.objects),
            },
        )
    profile_c = sorted(_object_signature(sk_c.category, x) for x in sk_c.category.objects)
    profile_d = sorted(_object_signature(sk_d.category, x) for x in sk_d.category.objects)
    if profile_c != profile_d:
        return negative(
            "equivalence",
            {
                "reason": "hom-set multiset mismatch on skeletons",
                "left_profile": [[p[0], list(map(list, p[1]))] for p in profile_c],
                "right_profile": [[p[0], list(map(list, p[1]))] for p in profile_d],
            },
        )
    iso = _iso_search(sk_c.category, sk_d.category)
    if iso is None:
        return negative(
            "equivalence",
            {
                "reason": "skeletons admit no isomorphism",
                "searched_object_bijections": True,
            },
        )
    obj_map, mor_map = iso
    phi = Functor("phi", sk_c.category, sk_d.category, obj_map, mor_map)
    phi_inv = Functor(
        "phi~",
        sk_d.category,
        sk_c.category,
        {y: x for x, y in obj_map.items()},
        {n: m for m, n in mor_map.items()},
    )
    fwd = compose_functors(sk_d.inclusion, compose_functors(phi, sk_c.retraction))
    bwd = compose_functors(sk_c.inclusion, compose_functors(phi_inv, sk_d.retraction))
    fwd.name, bwd.name = f"{c.name}->{d.name}", f"{d.name}->{c.name}"
    # bwd∘fwd sends x to rep(x); the chosen isos to representatives give the
    # unit, and dually for the counit.
    unit = NatTrans(
        "unit",
        compose_functors(bwd, fwd),
        identity_functor(c),
        {x: c.must_inverse(sk_c.to_rep[x]) for x in c.objects},
    )
    counit = NatTrans(
        "counit",
        compose_functors(fwd, bwd),
        identity_functor(d),
        {y: d.must_inverse(sk_d.to_rep[y]) for y in d.objects},
    )
    return positive(
        "equivalence",
        [
            {
                "forward": fwd,
                "backward": bwd,
                "unit": unit,
                "counit": counit,
            }
        ],
    )


# ---------------------------------------------------------------------------
# Functor categories


@dataclass(eq=False)
class FunctorCategory:
    category: FinCat
    functors: dict[str, Functor]
    transformations: dict[str, NatTrans]


def enumerate_functors(
    c: FinCat, d: FinCat, candidates: Mapping[str, Iterable[str]] | None = None
) -> Iterator[Functor]:
    """All functors c -> d, in deterministic order.

    ``candidates`` restricts each object of ``c`` to the listed objects of
    ``d``, given in ``d.objects`` order; by default every object is allowed.
    The restricted functors come out in the same relative order.
    """
    objs = list(c.objects)
    allowed = [d.objects if candidates is None else tuple(candidates[x]) for x in objs]
    nonid = [m for m in c.morphisms if not c.is_identity(m)]

    def mor_assign(obj_map: dict[str, str]) -> Iterator[dict[str, str]]:
        def extend(k: int, acc: dict[str, str]) -> Iterator[dict[str, str]]:
            if k == len(nonid):
                # full check of composition (cheap at these sizes)
                full = dict(acc)
                for x in objs:
                    full[c.identity[x]] = d.identity[obj_map[x]]
                ok = all(
                    d.table[(full[g], full[f])] == full[gf]
                    for (g, f), gf in c.table.items()
                )
                if ok:
                    yield full
                return
            m = nonid[k]
            for n in d.hom(obj_map[c.dom[m]], obj_map[c.cod[m]]):
                acc[m] = n
                consistent = True
                for p in list(acc):
                    for g, f in ((p, m), (m, p), (m, m)):
                        if (g, f) in c.table:
                            gf = c.table[(g, f)]
                            img = d.table.get((acc[g], acc[f]))
                            if gf in acc and img != acc[gf]:
                                consistent = False
                            elif c.is_identity(gf) and img != d.identity[obj_map[c.dom[f]]]:
                                consistent = False
                    if not consistent:
                        break
                if consistent:
                    yield from extend(k + 1, acc)
                acc.pop(m)

        yield from extend(0, {})

    for combo in itertools.product(*allowed):
        obj_map = dict(zip(objs, combo))
        for mm in mor_assign(obj_map):
            yield Functor("F", c, d, dict(obj_map), mm)


def enumerate_nattrans(f: Functor, g: Functor) -> Iterator[dict[str, str]]:
    """All natural transformations f ⇒ g as component dictionaries."""
    return _nattrans_search(f, g, None)


def _nattrans_search(
    f: Functor, g: Functor, admit: Callable[[str], bool] | None
) -> Iterator[dict[str, str]]:
    """The natural transformations f ⇒ g whose components all pass ``admit``
    (every one when it is None), in :func:`enumerate_nattrans` order:
    components are assigned object by object, in hom order, with
    incremental naturality checks."""
    c, d = f.source, f.target
    objs = list(c.objects)

    def extend(k: int, acc: dict[str, str]) -> Iterator[dict[str, str]]:
        if k == len(objs):
            yield dict(acc)
            return
        x = objs[k]
        for comp in d.hom(f.obj_map[x], g.obj_map[x]):
            if admit is not None and not admit(comp):
                continue
            acc[x] = comp
            ok = True
            for m in c.morphisms:
                a, b = c.dom[m], c.cod[m]
                if a in acc and b in acc:
                    if d.table[(g.mor_map[m], acc[a])] != d.table[(acc[b], f.mor_map[m])]:
                        ok = False
                        break
            if ok:
                yield from extend(k + 1, acc)
            acc.pop(x)

    yield from extend(0, {})


def guard_object_maps(c: FinCat, d: FinCat, max_morphisms: int) -> None:
    """The object-map bound of the functor category [c, d]."""
    if len(c.objects) and len(d.objects) ** len(c.objects) > max_morphisms:
        raise SizeGuardError(
            f"functor category [{c.name},{d.name}]: object-map count "
            f"{len(d.objects)}^{len(c.objects)} exceeds bound {max_morphisms}"
        )


def transformations_exceeded(c: FinCat, d: FinCat, max_morphisms: int) -> SizeGuardError:
    """The error for a functor category [c, d] with too many transformations."""
    return SizeGuardError(
        f"functor category [{c.name},{d.name}] exceeds {max_morphisms} transformations"
    )


def functor_category(c: FinCat, d: FinCat, max_morphisms: int = 100_000) -> FunctorCategory:
    """The category of functors c -> d and natural transformations.

    Guarded: raises SizeGuardError before enumerating anything that could
    exceed ``max_morphisms``.  Assembled without a replay: the enumeration
    lists every transformation and a vertical composite of two is one, with
    units and associativity those of d, componentwise.
    """
    guard_object_maps(c, d, max_morphisms)
    funs = sorted(enumerate_functors(c, d), key=lambda f: f.key())
    functors: dict[str, Functor] = {}
    for idx, fun in enumerate(funs):
        name = f"F{idx:03d}"
        fun.name = name
        functors[name] = fun

    transformations: dict[str, NatTrans] = {}
    mor_rows: list[tuple[str, str, str]] = []
    # (source functor, target functor, components in object order) -> name
    comp_key: dict[tuple[str, str, tuple[tuple[str, str], ...]], str] = {}
    count = 0
    for fn, fun in functors.items():
        for gn, gun in functors.items():
            for comps in enumerate_nattrans(fun, gun):
                count += 1
                if count > max_morphisms:
                    raise transformations_exceeded(c, d, max_morphisms)
                name = f"t{len(mor_rows):04d}"
                transformations[name] = NatTrans(name, fun, gun, comps)
                mor_rows.append((name, fn, gn))
                comp_key[(fn, gn, tuple(sorted(comps.items())))] = name

    identities = {}
    for fn, fun in functors.items():
        ident = identity_nattrans(fun)
        identities[fn] = comp_key[(fn, fn, tuple(sorted(ident.components.items())))]
    # transformations grouped by target functor, in name order: beta∘alpha
    # is defined exactly when alpha ends where beta starts
    ending_at: dict[str, list[tuple[str, str, dict[str, str]]]] = {fn: [] for fn in functors}
    for name, fn, gn in mor_rows:
        ending_at[gn].append((name, fn, transformations[name].components))
    sole = sole_morphisms(mor_rows)
    table: dict[tuple[str, str], str] = {}
    for beta_name, bf, bg in mor_rows:
        beta = transformations[beta_name].components
        for alpha_name, af, alpha in ending_at[bf]:
            only = sole.get((af, bg))
            if only is not None:  # the one transformation af ⇒ bg
                table[(beta_name, alpha_name)] = only
                continue
            # c.objects is sorted, so this is the sorted component tuple
            key = tuple((x, d.table[(beta[x], alpha[x])]) for x in c.objects)
            table[(beta_name, alpha_name)] = comp_key[(af, bg, key)]
    cat = FinCat(
        f"[{c.name},{d.name}]",
        tuple(sorted(functors)),
        {n: f for n, f, _ in mor_rows},
        {n: g for n, _, g in mor_rows},
        identities,
        table,
    )
    return FunctorCategory(cat, functors, transformations)


def same_category(a: FinCat, b: FinCat) -> bool:
    """Identical presentation (same identifiers and tables), not equivalence."""
    return a is b or (
        a.objects == b.objects
        and a.dom == b.dom
        and a.cod == b.cod
        and a.identity == b.identity
        and a.table == b.table
    )


def functor_is_equivalence(fun: Functor) -> Verdict:
    """Essential surjectivity and full faithfulness of one specific functor.

    Unlike :func:`check_equivalence`, which searches for *some* equivalence,
    this analyses the given functor and reports exactly which property fails.
    """
    src, tgt = fun.source, fun.target
    witnesses = []
    for y in tgt.objects:
        found = None
        for x in src.objects:
            for iso in tgt.hom(fun.obj_map[x], y):
                if tgt.is_iso(iso):
                    found = {"object": y, "preimage": x, "iso": iso}
                    break
            if found:
                break
        if found is None:
            return negative(
                "functor-equivalence",
                {"reason": "not essentially surjective", "object": y},
            )
        witnesses.append(found)
    for x in src.objects:
        for x2 in src.objects:
            images = {}
            for m in src.hom(x, x2):
                im = fun.mor_map[m]
                if im in images:
                    return negative(
                        "functor-equivalence",
                        {"reason": "not faithful", "pair": [images[im], m]},
                    )
                images[im] = m
            target_homs = set(tgt.hom(fun.obj_map[x], fun.obj_map[x2]))
            missing = sorted(target_homs - set(images))
            if missing:
                return negative(
                    "functor-equivalence",
                    {"reason": "not full", "between": [x, x2], "missing": missing[0]},
                )
    return positive("functor-equivalence", witnesses)


def natural_iso_search(f: Functor, g: Functor) -> NatTrans | None:
    """First invertible natural transformation f ⇒ g, if any.

    The first invertible one in :func:`enumerate_nattrans` order, found by
    the same search with components drawn from isomorphisms only.
    """
    comps = next(_nattrans_search(f, g, f.target.is_iso), None)
    if comps is None:
        return None
    return NatTrans(f"{f.name}~{g.name}", f, g, comps)
