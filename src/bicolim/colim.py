"""Two-sided Grothendieck construction and filtered bicolimits of categories.

The colimit of a Cat-valued diagram over a 2-dimensionally filtered index is
computed as a quotient of span-shaped representatives ("premorphisms"): an
apex stage, two legs into it, and a connecting cell between the transported
objects.  The universe of spans walks, for each pair of objects, only the
apexes that both of their stages reach (``TwoCat.out_of``), in the order a
loop over every stage gives.  The quotient is the equivalence closure of
three generating moves, computed by union-find over positions in that
universe:

  R1  push the whole span forward along any arrow out of the apex
      (conjugating the cell by the diagram's comparison isomorphisms);
  R2  absorb an index 2-cell into the left leg by precomposing the cell;
  R3  absorb an index 2-cell into the right leg by postcomposing the cell.

R1 is applied along a generating set of the index's 1-cells only
(``fincat.generating_set`` on the category of 0-cells and 1-cells).  For a
coherent pseudofunctor this loses nothing: pushing along an identity returns
the same span (unit coherence and naturality of the unit comparison), and
pushing along t2∘t1 equals pushing along t1 and then along t2 (associativity
coherence and naturality of the composition comparison), where both spans lie
in the universe.  Every diagram is coherent: ``build_pseudofunctor`` checks
the diagrams a caller supplies, restriction and precomposition preserve
coherence, and the diagrams the library assembles directly (constant,
stagewise, restricted hom diagrams) are coherent by construction.

R2 and R3 skip a 2-cell a : d ⇒ d whose image F(a) has identity components,
such as every 2-cell of a locally discrete index: each move along it
composes a span's cell with an identity and keeps its legs, so by the
identity law of the fiber it returns the span itself.  The test reads the
cell's data, not its name.

Composition amalgamates two spans over a common stage found via the
filteredness conditions.  A composite g∘f is some class from f's source to
g's target, so when that hom holds one class the table takes it without
amalgamating.  For the other entries, everything but the two cells depends
only on the legs of the two spans, so the table reads each entry off a plan
cached per pair of leg signatures (``_Amalgamator.plan``); the unplanned
``_Amalgamator.compose`` is the reference the tests compare it with.

The result category, its cocone legs and the cocone are assembled directly,
with no axiom replay.  The safety net against an incomplete move set lives in
the tests: the kernel oracles there run ``fincat_violations`` on every result,
``functor_violations`` on every leg and ``validate_cocone`` on every cocone,
over the corpus and generated diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .fincat import (
    FinCat,
    Functor,
    NatTrans,
    Skeleton,
    ValidationError,
    _assemble_composed,
    _assemble_fincat,
    compose_functors,
    generating_set,
    identity_nattrans,
    incidence,
    iso_classes,
    nattrans_violations,
    same_category,
    skeleton,
    sole_morphisms,
    vcompose_nattrans,
    whisker_functor,
    whisker_nattrans,
)
from .filtered import (
    _find_insertion,
    _find_span,
    check_bifiltered,
    check_sigma_filtered,
    triangle_completion,
)
from .twocat import (
    CatPseudoFunctor,
    SigmaClass,
    TwoCat,
    TwoFunctor,
    _assemble_twocat,
    _empty_homs_of,
    restrict_pseudofunctor,
    sigma_closure,
)


# ---------------------------------------------------------------------------
# Elements 2-category


@dataclass(eq=False)
class ElementsCat:
    base: TwoCat
    functor: CatPseudoFunctor
    total: TwoCat
    projection: TwoFunctor
    opcartesian: frozenset[str]
    obj_of: dict[str, tuple[str, str]]
    cell1_of: dict[str, tuple[str, str]]   # 1-cell name -> (base 1-cell, fiber morphism)
    cell2_of: dict[str, str]               # 2-cell name -> base 2-cell


def _el_obj(i: str, a: str) -> str:
    return f"{i}.{a}"


def _el_cell2(n1: str, alpha: str, n2: str) -> str:
    return f"[{n1}={alpha}={n2}]"


def elements_category(pf: CatPseudoFunctor) -> ElementsCat:
    """Total 2-category of the diagram, with projection and opcartesian flags.

    0-cells are pairs (stage, fiber object); a 1-cell is a base 1-cell with a
    fiber morphism out of the transported object; 2-cells are base 2-cells
    whose fiber triangle commutes.  Only the nonempty homs are stored.

    Assembled without a replay: F is locally functorial, so vertical
    composites keep fiber triangles and each hom is a category; horizontal
    composition is the base's, conjugated by F's comparison cells, and F's
    coherence gives the 2-category axioms; the projection forgets the fiber
    data, so it preserves every composite.
    """
    base = pf.source
    objs = [(i, a) for i in sorted(base.cells0) for a in pf.on0[i].objects]
    names = [_el_obj(i, a) for i, a in objs]
    obj_of = dict(zip(names, objs))

    cell1_of: dict[str, tuple[str, str]] = {}
    cell2_of: dict[str, str] = {}
    one_name: dict[tuple[str, str, str, str], str] = {}
    hom: dict[tuple[str, str], FinCat] = {}

    for (i, a), x in zip(objs, names):
        for (j, b), y in zip(objs, names):
            cells: list[tuple[str, str, str]] = []  # (name, f, phi)
            fib = pf.on0[j]
            for f in base.cells1(i, j):
                fa = pf.on1[f].obj_map[a]
                for phi in fib.hom(fa, b):
                    name = f"<{x}|{f}|{phi}>"
                    cells.append((name, f, phi))
                    cell1_of[name] = (f, phi)
                    one_name[(i, a, f, phi)] = name
            if not cells:
                continue
            mors = []
            idents = {}
            base_hom = base.hom[(i, j)]
            for (n1, f, phi) in cells:
                for (n2, f2, phi2) in cells:
                    for alpha in base_hom.hom(f, f2):
                        # fiber triangle: phi2 ∘ F(alpha)_a = phi
                        if fib.table[(phi2, pf.on2[alpha].components[a])] != phi:
                            continue
                        name2 = _el_cell2(n1, alpha, n2)
                        mors.append((name2, n1, n2))
                        cell2_of[name2] = alpha
                        if n1 == n2 and alpha == base.id2(f):
                            idents[n1] = name2
            hom[(x, y)] = _assemble_composed(
                f"el[{x},{y}]",
                [c[0] for c in cells],
                mors,
                idents,
                lambda m2, m1, s, t: _el_cell2(s, base.vcomp(cell2_of[m2], cell2_of[m1]), t),
            )

    units = {}
    for (i, a), x in zip(objs, names):
        u_inv = pf.on0[i].must_inverse(pf.unit_c[i].components[a])
        units[x] = one_name[(i, a, base.unit[i], u_inv)]
    # every name is checked here, before the composites read the side tables
    total = _assemble_twocat(f"el({pf.name})", names, hom, {}, {}, units, _empty_homs_of("el"))

    # horizontal composition of 1-cells via the comparison cells, and of
    # 2-cells as in the base, over the homs that meet
    out_of: dict[str, list[tuple[str, FinCat]]] = {}
    for (x, y), cat in hom.items():
        out_of.setdefault(x, []).append((y, cat))
    for x, homs in out_of.items():
        i, a = obj_of[x]
        for y, cat1 in homs:
            for n1 in cat1.objects:
                f, phi = cell1_of[n1]
                for z, cat2 in out_of.get(y, ()):
                    fk = pf.on0[obj_of[z][0]]
                    for n2 in cat2.objects:
                        g, psi = cell1_of[n2]
                        gf = base.hcomp1[(g, f)]
                        comp_inv = fk.must_inverse(pf.comp[(g, f)].components[a])
                        cell = fk.table[(psi, fk.table[(pf.on1[g].mor_map[phi], comp_inv)])]
                        total.hcomp1[(n2, n1)] = one_name[(i, a, gf, cell)]
    for (x, y), cat1 in hom.items():
        for m1 in cat1.morphisms:
            for z, cat2 in out_of.get(y, ()):
                for m2 in cat2.morphisms:
                    alpha = base.hcomp2[(cell2_of[m2], cell2_of[m1])]
                    d1 = total.hcomp1[(cat2.dom[m2], cat1.dom[m1])]
                    c1 = total.hcomp1[(cat2.cod[m2], cat1.cod[m1])]
                    total.hcomp2[(m2, m1)] = _el_cell2(d1, alpha, c1)

    on0 = {x: i for x, (i, _) in obj_of.items()}
    on1 = {n: f for n, (f, _) in cell1_of.items()}
    projection = TwoFunctor(f"pi({pf.name})", total, base, on0, on1, dict(cell2_of))
    opcart = frozenset(
        n for n, (f, phi) in cell1_of.items()
        if pf.on0[base.one_home[f][1]].is_iso(phi)
    )
    return ElementsCat(base, pf, total, projection, opcart, obj_of, cell1_of, cell2_of)


# ---------------------------------------------------------------------------
# Premorphisms and the colimit quotient


class Premorphism(NamedTuple):
    """A span: legs ``left``/``right`` from the src/dst stages into ``apex``,
    and a fiber morphism ``cell`` between the transported objects.

    A named tuple, so union-find and class lookups hash it natively.
    """

    src: tuple[str, str]
    dst: tuple[str, str]
    apex: str
    left: str
    right: str
    cell: str

    def key(self) -> tuple:
        return (self.src, self.dst, self.apex, self.left, self.right, self.cell)

    def to_dict(self) -> dict[str, Any]:
        return {
            "src": list(self.src),
            "dst": list(self.dst),
            "apex": self.apex,
            "left": self.left,
            "right": self.right,
            "cell": self.cell,
        }


class AmalgamationError(Exception):
    """No common stage found while composing; the index data is not filtered."""


@dataclass(eq=False)
class ColimitCat:
    index: TwoCat
    sigma: SigmaClass | None
    diagram: CatPseudoFunctor
    result: FinCat
    obj_name: dict[tuple[str, str], str]
    classes: dict[Premorphism, str]
    class_rep: dict[str, Premorphism]
    cocone: dict[str, Functor]
    transitions: dict[str, NatTrans]
    _iso_label: dict[str, str] | None = field(default=None, repr=False)
    _skeleton: Skeleton | None = field(default=None, repr=False)

    def object(self, i: str, a: str) -> str:
        return self.obj_name[(i, a)]

    @property
    def iso_label(self) -> dict[str, str]:
        """Each object of the result mapped to the least object isomorphic to
        it: two objects are isomorphic exactly when their labels are equal."""
        if self._iso_label is None:
            self._iso_label = iso_classes(self.result)
        return self._iso_label

    @property
    def skeleton(self) -> Skeleton:
        """The skeleton of the result with its equivalence witnesses."""
        if self._skeleton is None:
            self._skeleton = skeleton(self.result)
        return self._skeleton

    def fiber_premorphism(self, i: str, f: str) -> Premorphism:
        """The canonical span of a morphism living inside one fiber."""
        fib = self.diagram.on0[i]
        a, b = fib.dom[f], fib.cod[f]
        unit = self.index.unit[i]
        u_a = self.diagram.unit_c[i].components[a]
        u_b = self.diagram.unit_c[i].components[b]
        u_a_inv = fib.must_inverse(u_a)
        cell = fib.table[(u_b, fib.table[(f, u_a_inv)])]
        return Premorphism((i, a), (i, b), i, unit, unit, cell)

    def premorphism_class(self, p: Premorphism) -> str:
        if p in self.classes:
            return self.classes[p]
        return self.morphism_of(p)

    def morphism_of(self, p: Premorphism) -> str:
        """Morphism of the result represented by an arbitrary premorphism.

        Works for spans outside the computed universe (in particular for
        class-mode colimits whose right leg is not in the class) by pasting
        the transition cells around the transported cell.
        """
        i1, a1 = p.src
        i2, a2 = p.dst
        back = self.result.must_inverse(self.transitions[p.left].components[a1])
        mid = self.cocone[p.apex].mor_map[p.cell]
        theta_d = self.transitions[p.right].components[a2]
        return self.result.table[(theta_d, self.result.table[(mid, back)])]


def _transport(pf: CatPseudoFunctor, p: Premorphism, t: str) -> Premorphism:
    """R1: push a premorphism forward along t out of its apex."""
    base = pf.source
    k = base.one_home[t][1]
    fk = pf.on0[k]
    ts = base.hcomp1[(t, p.left)]
    td = base.hcomp1[(t, p.right)]
    c_left_inv = fk.must_inverse(pf.comp[(t, p.left)].components[p.src[1]])
    c_right = pf.comp[(t, p.right)].components[p.dst[1]]
    cell = fk.table[(c_right, fk.table[(pf.on1[t].mor_map[p.cell], c_left_inv)])]
    return Premorphism(p.src, p.dst, k, ts, td, cell)


def _premorphism_universe(pf: CatPseudoFunctor) -> list[Premorphism]:
    """Every span, ordered by source, target, apex, legs and cell.

    An apex carries a span only when both stages reach it, so the loop walks
    the apexes out of the source's stage (``out_of``, in apex order) and
    skips those the target's stage does not reach.
    """
    base = pf.source
    objs = [(i, a) for i in sorted(base.cells0) for a in pf.on0[i].objects]
    # the legs from each object into each apex it reaches, with the objects they carry
    legs = {
        x: {
            j: [(s, pf.on1[s].obj_map[x[1]]) for s in cells]
            for j, cells in base.out_of[x[0]].items()
        }
        for x in objs
    }
    out: list[Premorphism] = []
    for x1 in objs:
        for x2 in objs:
            right_of = legs[x2]
            for j, left in legs[x1].items():
                right = right_of.get(j)
                if right is None:
                    continue
                hom = pf.on0[j].hom
                for s, sa in left:
                    for d, da in right:
                        for cell in hom(sa, da):
                            out.append(Premorphism(x1, x2, j, s, d, cell))
    return out


def _quotient(pf: CatPseudoFunctor, universe: list[Premorphism]) -> list[int]:
    """The position of each premorphism's class root, by union-find over
    positions in the universe."""
    base = pf.source
    position = {p: n for n, p in enumerate(universe)}
    parent = list(range(len(universe)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, q: Premorphism) -> None:
        rx, ry = find(x), find(position[q])
        if rx != ry:
            parent[rx] = ry

    # premorphisms by (apex, leg); a leg i -> j fixes the stages of its end
    by_left: dict[tuple[str, str], list[int]] = {}
    by_right: dict[tuple[str, str], list[int]] = {}
    for n, p in enumerate(universe):
        by_left.setdefault((p.apex, p.left), []).append(n)
        by_right.setdefault((p.apex, p.right), []).append(n)
    # R1 along generating 1-cells only; exact for a coherent diagram (module doc)
    dom = {t: i for t, (i, _) in base.one_home.items()}
    cod = {t: j for t, (_, j) in base.one_home.items()}
    out_of, _ = incidence(dom, cod)
    along: dict[str, list[str]] = {j: [] for j in base.cells0}
    for t in generating_set(dom, cod, set(base.unit.values()), base.hcomp1, out_of):
        along[dom[t]].append(t)
    for n, p in enumerate(universe):
        for t in along[p.apex]:
            union(n, _transport(pf, p, t))
    for a in base.two_cells:
        lo, hi = base.dom2(a), base.cod2(a)
        j = base.two_home[a][1]
        fj, comps = pf.on0[j], pf.on2[a].components
        if lo == hi and all(fj.is_identity(c) for c in comps.values()):
            continue  # both moves return each premorphism itself (module doc)
        # R2: beta : lo ⇒ hi between left legs; trade hi for lo
        for n in by_left.get((j, hi), ()):
            p = universe[n]
            cell = fj.table[(p.cell, comps[p.src[1]])]
            union(n, Premorphism(p.src, p.dst, j, lo, p.right, cell))
        # R3: beta : lo ⇒ hi between right legs; trade lo for hi
        for n in by_right.get((j, lo), ()):
            p = universe[n]
            cell = fj.table[(comps[p.dst[1]], p.cell)]
            union(n, Premorphism(p.src, p.dst, j, p.left, hi, cell))
    return [find(n) for n in range(len(universe))]


@dataclass(eq=False)
class _Plan:
    """What ``_Amalgamator.compose(q, p)`` computes from the legs of p and q.

    The composite cell is ``q_comp[a3] ∘ (q_map[q.cell] ∘ head(a1, a2, p.cell))``,
    nested exactly as in ``compose``: ``head`` pushes p's cell through c1⁻¹,
    F(w∘u), comp(w∘u, p.right), γ and c2⁻¹, and is memoised per head
    signature (p.left, p.right, w∘u, γ, w∘u2, q.left), the legs and cells it
    reads: every plan with that signature shares one ``heads`` dict.
    """

    n: str                            # the amalgamated stage
    left: str                         # composite legs
    right: str
    fiber: FinCat                     # F(n)
    q_map: dict[str, str]             # F(w∘u2) on morphisms
    q_comp: dict[str, str]            # comp(w∘u2, q.right)
    p_map: dict[str, str]             # F(w∘u) on morphisms
    c1: dict[str, str]                # comp(w∘u, p.left), inverted on use
    p_comp: dict[str, str]            # comp(w∘u, p.right)
    gamma: dict[str, str]             # F(γ)
    c2: dict[str, str]                # comp(w∘u2, q.left), inverted on use
    heads: dict[tuple[str, str, str], str]  # shared per head signature

    def head(self, a1: str, a2: str, cell: str) -> str:
        """p's cell pushed to just before q's, for p = (.., a1), (.., a2), cell."""
        key = (a1, a2, cell)
        step = self.heads.get(key)
        if step is None:
            fn = self.fiber
            table = fn.table
            step = table[(self.p_map[cell], fn.must_inverse(self.c1[a1]))]
            step = table[(self.p_comp[a2], step)]
            step = table[(self.gamma[a2], step)]
            step = table[(fn.must_inverse(self.c2[a2]), step)]
            self.heads[key] = step
        return step

    def composite(self, p: Premorphism, q: Premorphism) -> tuple:
        """``compose(q, p)`` as a plain tuple, for p and q with this plan's legs."""
        table = self.fiber.table
        step = self.head(p.src[1], p.dst[1], p.cell)
        step = table[(self.q_comp[q.dst[1]], table[(self.q_map[q.cell], step)])]
        return (p.src, q.dst, self.n, self.left, self.right, step)


class _Amalgamator:
    """Deterministic span/insertion choices for composing premorphism classes."""

    def __init__(self, pf: CatPseudoFunctor):
        self.pf = pf
        self.base = pf.source
        self._spans: dict[tuple[str, str], tuple[str, str, str]] = {}
        self._insertions: dict[tuple[str, str], tuple[str, str]] = {}
        self._plans: dict[tuple[str, ...], _Plan] = {}
        self._heads: dict[tuple[str, ...], dict[tuple[str, str, str], str]] = {}

    def span(self, j: str, k: str) -> tuple[str, str, str]:
        if (j, k) not in self._spans:
            span = _find_span(self.base, j, k, None)
            if span is None:
                raise AmalgamationError(f"no span over stages ({j!r}, {k!r})")
            self._spans[(j, k)] = span
        return self._spans[(j, k)]

    def insertion(self, d1: str, d2: str) -> tuple[str, str]:
        """w and invertible cell w∘d1 ⇒ w∘d2 for a parallel pair."""
        if (d1, d2) not in self._insertions:
            hit = _find_insertion(self.base, d1, d2, None, invertible=True)
            if hit is None:
                raise AmalgamationError(f"no invertible insertion for ({d1!r}, {d2!r})")
            self._insertions[(d1, d2)] = hit
        return self._insertions[(d1, d2)]

    def compose(self, q: Premorphism, p: Premorphism, witness: int = 0) -> Premorphism:
        """Composite span of p then q over a common amalgamated stage.

        ``witness`` > 0 asks for an alternative span choice; used to test
        that the composite class does not depend on the amalgamation.
        """
        pf, base = self.pf, self.base
        if witness == 0:
            m, u, u2 = self.span(p.apex, q.apex)
        else:
            alts = self._all_spans(p.apex, q.apex)
            m, u, u2 = alts[min(witness, len(alts) - 1)]
        ud = base.hcomp1[(u, p.right)]
        us = base.hcomp1[(u2, q.left)]
        w, gamma = self.insertion(ud, us)
        wu = base.hcomp1[(w, u)]
        wu2 = base.hcomp1[(w, u2)]
        left = base.hcomp1[(wu, p.left)]
        right = base.hcomp1[(wu2, q.right)]
        n = base.one_home[w][1]
        fn = pf.on0[n]
        a1, a2, a3 = p.src[1], p.dst[1], q.dst[1]

        c1_inv = fn.must_inverse(pf.comp[(wu, p.left)].components[a1])
        step = fn.table[(pf.on1[wu].mor_map[p.cell], c1_inv)]
        step = fn.table[(pf.comp[(wu, p.right)].components[a2], step)]
        step = fn.table[(pf.on2[gamma].components[a2], step)]
        c2_inv = fn.must_inverse(pf.comp[(wu2, q.left)].components[a2])
        step = fn.table[(c2_inv, step)]
        step = fn.table[(pf.on1[wu2].mor_map[q.cell], step)]
        step = fn.table[(pf.comp[(wu2, q.right)].components[a3], step)]
        return Premorphism(p.src, q.dst, n, left, right, step)

    def plan(self, p: Premorphism, q: Premorphism) -> _Plan:
        """The choices of ``compose(q, p)``, cached by the legs of p and q."""
        sig = (p.apex, p.left, p.right, q.apex, q.left, q.right)
        found = self._plans.get(sig)
        if found is not None:
            return found
        pf, base = self.pf, self.base
        m, u, u2 = self.span(p.apex, q.apex)
        w, gamma = self.insertion(base.hcomp1[(u, p.right)], base.hcomp1[(u2, q.left)])
        wu = base.hcomp1[(w, u)]
        wu2 = base.hcomp1[(w, u2)]
        n = base.one_home[w][1]
        plan = self._plans[sig] = _Plan(
            n,
            base.hcomp1[(wu, p.left)],
            base.hcomp1[(wu2, q.right)],
            pf.on0[n],
            pf.on1[wu2].mor_map,
            pf.comp[(wu2, q.right)].components,
            pf.on1[wu].mor_map,
            pf.comp[(wu, p.left)].components,
            pf.comp[(wu, p.right)].components,
            pf.on2[gamma].components,
            pf.comp[(wu2, q.left)].components,
            self._heads.setdefault((p.left, p.right, wu, gamma, wu2, q.left), {}),
        )
        return plan

    def _all_spans(self, j: str, k: str) -> list[tuple[str, str, str]]:
        reach = self.base.out_of[k]
        return [
            (m, u, u2)
            for m, cells in self.base.out_of[j].items()
            if m in reach
            for u in cells
            for u2 in reach[m]
        ]


def _composition_table(
    pf: CatPseudoFunctor,
    classes: dict[Premorphism, str],
    class_rep: dict[str, Premorphism],
    obj_name: dict[tuple[str, str], str],
    mor_rows: list[tuple[str, str, str]],
) -> dict[tuple[str, str], str]:
    """The composition table of the colimit, in ``class_rep`` order.

    The hom index, amalgamator and plans it builds are dropped on return.
    """
    # class representatives by target object: g∘f is defined exactly when
    # f ends where g starts.  An entry whose hom f.src -> g.dst holds one
    # class is that class; the rest are read off the plan of the two leg
    # signatures, each of which gets a small id
    sole = sole_morphisms(mor_rows)
    sig_id: dict[tuple[str, str, str], int] = {}
    for rep in class_rep.values():
        sig_id.setdefault((rep.apex, rep.left, rep.right), len(sig_id))
    ending_at: dict[tuple[str, str], list[tuple[str, str, int, Premorphism]]] = {}
    for fname, frep in class_rep.items():
        fid = sig_id[(frep.apex, frep.left, frep.right)]
        ending_at.setdefault(frep.dst, []).append((fname, obj_name[frep.src], fid, frep))
    amal = _Amalgamator(pf)
    plans: dict[int, dict[int, _Plan]] = {}
    table: dict[tuple[str, str], str] = {}
    for gname, grep in class_rep.items():
        gdst = obj_name[grep.dst]
        row = plans.setdefault(sig_id[(grep.apex, grep.left, grep.right)], {})
        for fname, fsrc, fid, frep in ending_at.get(grep.src, ()):
            only = sole.get((fsrc, gdst))
            if only is not None:
                table[(gname, fname)] = only
                continue
            plan = row.get(fid)
            if plan is None:
                plan = row[fid] = amal.plan(frep, grep)
            table[(gname, fname)] = classes[plan.composite(frep, grep)]
    return table


def bifiltered_bicolimit(pf: CatPseudoFunctor, precheck: bool = True) -> ColimitCat:
    """Colimit of a diagram of finite categories over a bifiltered index.

    Assembled without a replay: over a bifiltered index the quotient of
    spans by R1-R3 is the bicolimit (module docstring), so the result is a
    category, the legs are functors and the cocone is valid.
    """
    base = pf.source
    if precheck:
        verdict = check_bifiltered(base)
        if not verdict:
            raise ValidationError(
                pf.name, [f"index not bifiltered: {verdict.counterexample}"]
            )
    universe = _premorphism_universe(pf)
    roots = _quotient(pf, universe)

    groups: dict[int, list[Premorphism]] = {}
    for p, r in zip(universe, roots):
        groups.setdefault(r, []).append(p)
    canon = {r: min(members, key=Premorphism.key) for r, members in groups.items()}
    ordered = sorted(canon.values(), key=Premorphism.key)
    class_name = {rep: f"m{idx:04d}" for idx, rep in enumerate(ordered)}
    classes: dict[Premorphism, str] = {
        p: class_name[canon[r]] for p, r in zip(universe, roots)
    }
    class_rep = {class_name[c]: c for c in class_name}

    obj_name = {
        (i, a): _el_obj(i, a)
        for i in sorted(base.cells0)
        for a in pf.on0[i].objects
    }
    mor_rows = [
        (name, _el_obj(*rep.src), _el_obj(*rep.dst))
        for name, rep in sorted(class_rep.items())
    ]
    identities = {}
    for (i, a), oname in obj_name.items():
        unit = base.unit[i]
        fib = pf.on0[i]
        ua = pf.on1[unit].obj_map[a]
        ident_prem = Premorphism((i, a), (i, a), i, unit, unit, fib.identity[ua])
        identities[oname] = classes[ident_prem]
    table = _composition_table(pf, classes, class_rep, obj_name, mor_rows)
    result = _assemble_fincat(
        f"colim({pf.name})", obj_name.values(), mor_rows, identities, table
    )

    colim = ColimitCat(base, None, pf, result, obj_name, classes, class_rep, {}, {})
    for i in sorted(base.cells0):
        fib = pf.on0[i]
        colim.cocone[i] = Functor(
            f"q_{i}",
            fib,
            result,
            {a: obj_name[(i, a)] for a in fib.objects},
            {f: classes[colim.fiber_premorphism(i, f)] for f in fib.dom},
        )
    for d in base.one_cells:
        i, j = base.one_home[d]
        fj = pf.on0[j]
        comps = {}
        for a in pf.on0[i].objects:
            da = pf.on1[d].obj_map[a]
            u = pf.unit_c[j].components[da]
            u_inv = fj.must_inverse(u)
            comps[a] = classes[
                Premorphism((j, da), (i, a), j, base.unit[j], d, u_inv)
            ]
        colim.transitions[d] = NatTrans(
            f"theta_{d}",
            compose_functors(colim.cocone[j], pf.on1[d]),
            colim.cocone[i],
            comps,
        )
    return colim


def sigma_bicolimit(pf: CatPseudoFunctor, sigma: SigmaClass) -> ColimitCat:
    """Class-relative colimit, computed over the class subcategory.

    The underlying category is the restricted bifiltered colimit; cocone legs
    are shared, and the transition at an arrow outside the class is pasted
    from a triangle completion, so it may fail to be invertible.  Assembled
    without a replay: in a sigma-filtered pair the pasted transitions form
    an oplax cocone, which the kernel oracles in the tests replay.
    """
    from .filtered import class_subcategory

    base = pf.source
    closed = sigma_closure(sigma)
    verdict = check_sigma_filtered(base, closed)
    if not verdict:
        raise ValidationError(
            pf.name, [f"pair not sigma-filtered: {verdict.counterexample}"]
        )
    sub = class_subcategory(base, closed)
    core = bifiltered_bicolimit(restrict_pseudofunctor(pf, sub), precheck=False)

    colim = ColimitCat(
        base,
        closed,
        pf,
        core.result,
        core.obj_name,
        core.classes,
        core.class_rep,
        dict(core.cocone),
        {},
    )
    for d in base.one_cells:
        if d in sub.one_home:
            colim.transitions[d] = core.transitions[d]
            continue
        tri = triangle_completion(base, closed, d)
        i, i2 = base.one_home[d]
        j = base.one_home[tri.left][1]
        comps = {}
        for a in pf.on0[i].objects:
            da = pf.on1[d].obj_map[a]
            start = core.transitions[tri.right].components[da]
            back = core.result.must_inverse(start)
            fj = pf.on0[j]
            mid_fiber = fj.table[
                (pf.on2[tri.cell].components[a], pf.comp[(tri.right, d)].components[a])
            ]
            mid = colim.cocone[j].mor_map[mid_fiber]
            finish = core.transitions[tri.left].components[a]
            comps[a] = core.result.table[(finish, core.result.table[(mid, back)])]
        colim.transitions[d] = NatTrans(
            f"theta_{d}",
            compose_functors(colim.cocone[i2], pf.on1[d]),
            colim.cocone[i],
            comps,
        )
    return colim


def premorphism_equal(colim: ColimitCat, p: Premorphism, q: Premorphism) -> bool:
    """Whether two spans with the same endpoints present the same morphism."""
    if p.src != q.src or p.dst != q.dst:
        raise ValueError("premorphisms are not parallel")
    return colim.premorphism_class(p) == colim.premorphism_class(q)


# ---------------------------------------------------------------------------
# Cocone validation and factorization


def validate_cocone(
    index: TwoCat,
    pf: CatPseudoFunctor,
    legs: dict[str, Functor],
    cells: dict[str, NatTrans],
    sigma_members: frozenset[str] | None,
) -> list[str]:
    """Oplax-cocone axioms, exactly: typing, invertibility over the class,
    compatibility with index 2-cells, composition, and units."""
    out: list[str] = []
    for i in index.cells0:
        leg = legs.get(i)
        if leg is None or not same_category(leg.source, pf.on0[i]):
            out.append(f"missing or mistyped leg at {i!r}")
    if out:
        return out
    target = next(iter(legs.values())).target
    if any(not same_category(l.target, target) for l in legs.values()):
        out.append("legs do not share a target")
        return out
    for d in index.one_cells:
        i, j = index.one_home[d]
        nt = cells.get(d)
        if nt is None:
            out.append(f"missing transition at {d!r}")
            continue
        want_src = compose_functors(legs[j], pf.on1[d])
        if nt.source.key() != want_src.key() or nt.target.key() != legs[i].key():
            out.append(f"transition at {d!r} mistyped")
            continue
        if nattrans_violations(nt):
            out.append(f"transition at {d!r} not natural")
        if (sigma_members is None or d in sigma_members) and not nt.is_invertible():
            out.append(f"transition at {d!r} must be invertible")
    if out:
        return out
    for b in index.two_cells:
        d, d2 = index.dom2(b), index.cod2(b)
        i, j = index.two_home[b]
        lhs = cells[d]
        rhs = vcompose_nattrans(cells[d2], whisker_functor(legs[j], pf.on2[b]))
        if lhs.components != rhs.components:
            out.append(f"2-cell compatibility fails at {b!r}")
    for d in index.one_cells:
        i, j = index.one_home[d]
        for e in index.one_cells:
            if index.one_home[e][0] != j:
                continue
            k = index.one_home[e][1]
            ed = index.hcomp1[(e, d)]
            lhs = vcompose_nattrans(cells[ed], whisker_functor(legs[k], pf.comp[(e, d)]))
            rhs = vcompose_nattrans(cells[d], whisker_nattrans(cells[e], pf.on1[d]))
            if lhs.components != rhs.components:
                out.append(f"composition compatibility fails at ({e!r}, {d!r})")
    for i in index.cells0:
        unit = index.unit[i]
        lhs = vcompose_nattrans(cells[unit], whisker_functor(legs[i], pf.unit_c[i]))
        if lhs.components != identity_nattrans(legs[i]).components:
            out.append(f"unit compatibility fails at {i!r}")
    return out


@dataclass(eq=False)
class Factorization:
    functor: Functor
    comparisons: dict[str, NatTrans]


def factor_cocone(
    colim: ColimitCat,
    target: FinCat,
    legs: dict[str, Functor],
    cells: dict[str, NatTrans],
) -> Factorization:
    """Mediating functor out of the colimit induced by a cocone the caller
    supplies; the cocone is checked first.

    The restriction along each colimit inclusion agrees with the given leg on
    the nose, so the comparison transformations returned are identities.
    """
    sigma = colim.sigma.members if colim.sigma is not None else None
    bad = validate_cocone(colim.index, colim.diagram, legs, cells, sigma)
    if bad:
        raise ValidationError("cocone", bad)
    return _mediating_functor(colim, target, legs, cells)


def _mediating_functor(
    colim: ColimitCat,
    target: FinCat,
    legs: dict[str, Functor],
    cells: dict[str, NatTrans],
) -> Factorization:
    """The factorization of a valid cocone through the colimit, unchecked.

    Assembled without a replay: by the universal property, a valid cocone
    induces a functor on classes, read here off each class representative.
    """
    obj_map = {}
    for (i, a), oname in colim.obj_name.items():
        obj_map[oname] = legs[i].obj_map[a]
    mor_map = {}
    for name, rep in colim.class_rep.items():
        i1, a1 = rep.src
        i2, a2 = rep.dst
        tau_s = cells[rep.left].components[a1]
        back = target.inverse(tau_s)
        if back is None:
            raise ValidationError(
                "cocone", [f"leg transition at {rep.left!r} not invertible in target"]
            )
        mid = legs[rep.apex].mor_map[rep.cell]
        tau_d = cells[rep.right].components[a2]
        mor_map[name] = target.table[(tau_d, target.table[(mid, back)])]
    fun = Functor(f"<{colim.result.name}->{target.name}>", colim.result, target, obj_map, mor_map)
    comparisons = {
        i: identity_nattrans(compose_functors(fun, colim.cocone[i]))
        for i in colim.index.cells0
    }
    return Factorization(fun, comparisons)
