"""Finite bilimit primitives in Cat and pseudoidempotent splitting.

Everything here returns the pseudolimit model of the bilimit in question
(product category, category of isomorphism pairs, arrow category, cocycle
families); in Cat the two notions agree up to equivalence whenever both
exist, so the pseudolimit models are taken as the computational normal form.

The module also builds the pointwise-limit diagrams used to verify that
filtered colimits commute with these primitives.  Each check keeps colim F
on its left side and forms the right-hand bilimit over the cached skeleton
sk(colim F) ≃ colim F; product, arrow cotensor and iso-equalizer preserve
equivalences, so the verdict is the one colim F itself would give.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .colim import ColimitCat, bifiltered_bicolimit, factor_cocone
from .fincat import (
    FinCat,
    Functor,
    NatTrans,
    SizeGuardError,
    ValidationError,
    _assemble_composed,
    _assemble_fincat,
    check_equivalence,
    compose_functors,
    identity_functor,
    natural_iso_search,
    nattrans_violations,
    same_category,
)
from .twocat import CatPseudoFunctor, pseudofunctor_violations, stagewise_pseudofunctor
from .verdict import Verdict


# ---------------------------------------------------------------------------
# Biproducts


def _pair(x: str, y: str) -> str:
    return f"({x},{y})"


@dataclass(eq=False)
class Biproduct:
    category: FinCat
    left: FinCat
    right: FinCat
    proj1: Functor
    proj2: Functor

    # objects and morphisms are paired alike
    pair_obj = pair_mor = staticmethod(_pair)

    def pairing(self, f: Functor, g: Functor, name: str = "pair") -> Functor:
        """⟨f, g⟩ for functors with a common source; a functor because the
        product composes componentwise."""
        return Functor(
            name,
            f.source,
            self.category,
            {x: _pair(f.obj_map[x], g.obj_map[x]) for x in f.source.objects},
            {m: _pair(f.mor_map[m], g.mor_map[m]) for m in f.source.dom},
        )


def biproduct(c: FinCat, d: FinCat) -> Biproduct:
    """The product category, assembled without a replay: it composes
    componentwise, so its axioms are those of c and d, and the projections
    preserve every composite."""
    objs = [(x, y) for x in c.objects for y in d.objects]
    mors = [(m, n) for m in c.morphisms for n in d.morphisms]
    # per morphism of c, the pair names with each morphism of d
    named = {m: {n: _pair(m, n) for n in d.morphisms} for m in c.morphisms}
    table = {}
    for (g1, f1), h1 in c.table.items():
        g_row, f_row, h_row = named[g1], named[f1], named[h1]
        for (g2, f2), h2 in d.table.items():
            table[(g_row[g2], f_row[f2])] = h_row[h2]
    cat = _assemble_fincat(
        f"({c.name}x{d.name})",
        [_pair(x, y) for x, y in objs],
        [(named[m][n], _pair(c.dom[m], d.dom[n]), _pair(c.cod[m], d.cod[n])) for m, n in mors],
        {_pair(x, y): named[c.identity[x]][d.identity[y]] for x, y in objs},
        table,
    )
    proj1 = Functor("pr1", cat, c, {_pair(x, y): x for x, y in objs}, {named[m][n]: m for m, n in mors})
    proj2 = Functor("pr2", cat, d, {_pair(x, y): y for x, y in objs}, {named[m][n]: n for m, n in mors})
    return Biproduct(cat, c, d, proj1, proj2)


# ---------------------------------------------------------------------------
# Biequalizers


@dataclass(eq=False)
class Biequalizer:
    category: FinCat
    projection: Functor
    iso: NatTrans              # F∘projection ≅ G∘projection
    obj_of: dict[str, tuple[str, str]]           # object -> (a, θ)
    object_at: dict[tuple[str, str], str]        # (a, θ) -> object
    mor_of: dict[str, str]                       # morphism -> source morphism

    def obj(self, a: str, theta: str) -> str:
        return self.object_at[(a, theta)]

    @staticmethod
    def mor(m: str, src: str, tgt: str) -> str:
        """The morphism src -> tgt over the source morphism m."""
        return f"({m}:{src}>{tgt})"


def biequalizer(f: Functor, g: Functor) -> Biequalizer:
    """Pairs (a, θ: f(a) ≅ g(a)) with morphisms commuting with the isos.

    Assembled without a replay: the commuting squares are closed under
    composition in the source category, whose axioms it inherits; the
    projection keeps the source morphism, and θ is natural by definition.
    """
    if not same_category(f.source, g.source) or not same_category(f.target, g.target):
        raise ValidationError("biequalizer", ["functors are not parallel"])
    a_cat, b_cat = f.source, f.target
    object_at = {
        (a, theta): f"({a}|{theta})"
        for a in a_cat.objects
        for theta in b_cat.hom(f.obj_map[a], g.obj_map[a])
        if b_cat.is_iso(theta)
    }
    mors = []
    mor_of = {}
    for (a, theta), src in object_at.items():
        for (a2, theta2), tgt in object_at.items():
            for m in a_cat.hom(a, a2):
                if b_cat.table[(theta2, f.mor_map[m])] == b_cat.table[(g.mor_map[m], theta)]:
                    name = Biequalizer.mor(m, src, tgt)
                    mors.append((name, src, tgt))
                    mor_of[name] = m
    obj_of = {o: key for key, o in object_at.items()}
    cat = _assemble_composed(
        f"eq({f.name},{g.name})",
        list(object_at.values()),
        mors,
        {o: Biequalizer.mor(a_cat.identity[a], o, o) for (a, _), o in object_at.items()},
        lambda m2, m1, s, t: Biequalizer.mor(a_cat.table[(mor_of[m2], mor_of[m1])], s, t),
    )
    projection = Functor("eq_proj", cat, a_cat, {o: a for o, (a, _) in obj_of.items()}, mor_of)
    iso = NatTrans(
        "eq_iso",
        compose_functors(f, projection),
        compose_functors(g, projection),
        {o: theta for o, (_, theta) in obj_of.items()},
    )
    return Biequalizer(cat, projection, iso, obj_of, object_at, mor_of)


# ---------------------------------------------------------------------------
# Cotensor with the arrow


@dataclass(eq=False)
class ArrowCotensor:
    category: FinCat
    base: FinCat
    src: Functor
    tgt: Functor
    cell: NatTrans             # src ⇒ tgt, component at an object f is f itself
    square_of: dict[str, tuple[str, str]]   # square f -> g -> its sides (p, q)

    @staticmethod
    def square(p: str, q: str, f: str, g: str) -> str:
        """The square from f to g with sides p on the domains, q on the codomains."""
        return f"[{p},{q}]({f}>{g})"


def arrow_cotensor(c: FinCat) -> ArrowCotensor:
    """The arrow category: objects are morphisms, morphisms are squares.

    Assembled without a replay: squares paste to squares and compose
    componentwise, so its axioms are c's; dom and cod take a component each,
    and the evaluation cell is natural because every square commutes.
    """
    objs = list(c.morphisms)
    mors = []
    square_of = {}
    for f in objs:
        for g in objs:
            for p in c.hom(c.dom[f], c.dom[g]):
                for q in c.hom(c.cod[f], c.cod[g]):
                    if c.table[(q, f)] == c.table[(g, p)]:
                        name = ArrowCotensor.square(p, q, f, g)
                        mors.append((name, f, g))
                        square_of[name] = (p, q)

    def compose(m2: str, m1: str, f: str, g: str) -> str:
        (p2, q2), (p1, q1) = square_of[m2], square_of[m1]
        return ArrowCotensor.square(c.table[(p2, p1)], c.table[(q2, q1)], f, g)

    idents = {f: ArrowCotensor.square(c.identity[c.dom[f]], c.identity[c.cod[f]], f, f) for f in objs}
    cat = _assemble_composed(f"[2,{c.name}]", objs, mors, idents, compose)
    src = Functor("dom", cat, c, {f: c.dom[f] for f in objs}, {m: p for m, (p, _) in square_of.items()})
    tgt = Functor("cod", cat, c, {f: c.cod[f] for f in objs}, {m: q for m, (_, q) in square_of.items()})
    cell = NatTrans("eval", src, tgt, {f: f for f in objs})
    return ArrowCotensor(cat, c, src, tgt, cell, square_of)


# ---------------------------------------------------------------------------
# Conical pseudolimit via cocycle families


@dataclass(eq=False)
class Pseudolimit:
    category: FinCat
    legs: dict[str, Functor]
    family_of: dict[str, tuple]


def pseudolimit_cocycle(pf: CatPseudoFunctor, max_families: int = 100_000) -> Pseudolimit:
    """Families of fiber objects with coherent transition isomorphisms.

    An object assigns A_i to every 0-cell and an isomorphism to every 1-cell
    d : i -> j from the transported A_i to A_j, subject to the unit condition,
    the cocycle condition (conjugated by the comparison cells), and
    compatibility with every index 2-cell.

    Assembled without a replay: morphisms of families are families of fiber
    morphisms commuting with the chosen isomorphisms, closed under
    componentwise composition, so the axioms are the fibers'; each leg takes
    one component.
    """
    tc = pf.source
    zero = sorted(tc.cells0)
    count = 1
    for i in zero:
        count *= max(1, len(pf.on0[i].objects))
        if count > max_families:
            raise SizeGuardError(
                f"pseudolimit of {pf.name}: object families reach {count} "
                f"after 0-cell {i!r}, exceeding max_families={max_families}"
            )
    if any(not pf.on0[i].objects for i in zero):
        families: list[tuple] = []
    else:
        families = []
        one = sorted(tc.one_home)
        for combo in itertools.product(*[pf.on0[i].objects for i in zero]):
            objs = dict(zip(zero, combo))
            per_arrow = []
            feasible = True
            for d in one:
                i, j = tc.one_home[d]
                fj = pf.on0[j]
                da = pf.on1[d].obj_map[objs[i]]
                if d == tc.unit[i]:
                    u = pf.unit_c[i].components[objs[i]]
                    u_inv = fj.must_inverse(u)
                    choices = [u_inv]
                else:
                    choices = [m for m in fj.hom(da, objs[j]) if fj.is_iso(m)]
                if not choices:
                    feasible = False
                    break
                per_arrow.append(choices)
            if not feasible:
                continue
            for alphas in itertools.product(*per_arrow):
                alpha = dict(zip(one, alphas))
                if _cocycle_ok(pf, objs, alpha):
                    families.append(
                        (tuple(objs[i] for i in zero), tuple(alpha[d] for d in one))
                    )
    families.sort()
    zero_t = tuple(zero)
    one_t = tuple(sorted(tc.one_home))
    names = {fam: f"P{idx:03d}" for idx, fam in enumerate(families)}
    family_of = {fam_name: fam for fam, fam_name in names.items()}

    def mor_name(comp: dict[str, str], s: str, t: str) -> str:
        return f"({','.join(comp[i] for i in zero_t)}:{s}>{t})"

    mors = []
    comp_of: dict[str, dict[str, str]] = {}
    for fam in families:
        src_objs = dict(zip(zero_t, fam[0]))
        src_alpha = dict(zip(one_t, fam[1]))
        for fam2 in families:
            tgt_objs = dict(zip(zero_t, fam2[0]))
            tgt_alpha = dict(zip(one_t, fam2[1]))
            for combo in itertools.product(
                *[pf.on0[i].hom(src_objs[i], tgt_objs[i]) for i in zero_t]
            ):
                comp = dict(zip(zero_t, combo))
                for d in one_t:
                    i, j = tc.one_home[d]
                    fj = pf.on0[j]
                    lhs = fj.table[(tgt_alpha[d], pf.on1[d].mor_map[comp[i]])]
                    rhs = fj.table[(comp[j], src_alpha[d])]
                    if lhs != rhs:
                        break
                else:
                    name = mor_name(comp, names[fam], names[fam2])
                    mors.append((name, names[fam], names[fam2]))
                    comp_of[name] = comp
    idents = {
        n: mor_name({i: pf.on0[i].identity[x] for i, x in zip(zero_t, fam[0])}, n, n)
        for fam, n in names.items()
    }

    def compose(m2: str, m1: str, s: str, t: str) -> str:
        c2, c1 = comp_of[m2], comp_of[m1]
        return mor_name({i: pf.on0[i].table[(c2[i], c1[i])] for i in zero_t}, s, t)

    cat = _assemble_composed(f"pslim({pf.name})", list(names.values()), mors, idents, compose)
    legs = {}
    for pos, i in enumerate(zero_t):
        legs[i] = Functor(
            f"pl_{i}",
            cat,
            pf.on0[i],
            {names[fam]: fam[0][pos] for fam in families},
            {m: c[i] for m, c in comp_of.items()},
        )
    return Pseudolimit(cat, legs, family_of)


def _cocycle_ok(pf: CatPseudoFunctor, objs: dict[str, str], alpha: dict[str, str]) -> bool:
    tc = pf.source
    for d in alpha:
        i, j = tc.one_home[d]
        for e in alpha:
            if tc.one_home[e][0] != j:
                continue
            k = tc.one_home[e][1]
            fk = pf.on0[k]
            ed = tc.hcomp1[(e, d)]
            lhs = fk.table[(alpha[ed], pf.comp[(e, d)].components[objs[i]])]
            rhs = fk.table[(alpha[e], pf.on1[e].mor_map[alpha[d]])]
            if lhs != rhs:
                return False
    for b in tc.two_cells:
        d, d2 = tc.dom2(b), tc.cod2(b)
        i, j = tc.two_home[b]
        fj = pf.on0[j]
        if fj.table[(alpha[d2], pf.on2[b].components[objs[i]])] != alpha[d]:
            return False
    return True


# ---------------------------------------------------------------------------
# Pseudoidempotents


@dataclass(eq=False)
class Pseudoidempotent:
    carrier: FinCat
    endo: Functor
    mult: NatTrans             # invertible e∘e ⇒ e


def validate_pseudoidempotent(carrier: FinCat, endo: Functor, mult: NatTrans) -> Pseudoidempotent:
    violations = []
    if endo.source is not carrier or endo.target is not carrier:
        violations.append("endofunctor does not act on the carrier")
    else:
        if mult.source.key() != compose_functors(endo, endo).key():
            violations.append("multiplication does not start at the square")
        if mult.target.key() != endo.key():
            violations.append("multiplication does not end at the endofunctor")
        violations.extend(nattrans_violations(mult))
        if not mult.is_invertible():
            violations.append("multiplication is not componentwise invertible")
    if violations:
        raise ValidationError("pseudoidempotent", violations)
    return Pseudoidempotent(carrier, endo, mult)


@dataclass(eq=False)
class Splitting:
    category: FinCat           # biequalizer (iso-inserter) of (e, 1)
    section: Functor           # r : A -> B
    retraction: Functor        # s : B -> A
    alpha: NatTrans            # s∘r ≅ e
    beta: NatTrans             # r∘s ≅ 1_B


def split_pseudoidempotent(p: Pseudoidempotent) -> Splitting:
    """Split through the category of objects with a chosen absorption iso.

    The underlying category is the biequalizer of (e, 1): it pairs an object
    with an isomorphism e(a) ≅ a, and its projection is the retraction; the
    section sends a to (e(a), mult_a).  The section is a functor and
    s∘r = e on the nose, by naturality of the validated mult, so both are
    assembled directly.  The comparison r∘s ≅ 1 is found by search, so
    degenerate idempotent data that does not actually split is reported
    rather than papered over.
    """
    a_cat, e = p.carrier, p.endo
    eq = biequalizer(e, identity_functor(a_cat))
    b_cat, retraction = eq.category, eq.projection
    b_cat.name = f"split({e.name})"
    retraction.name = "split_s"
    sec_obj = {a: eq.obj(e.obj_map[a], p.mult.components[a]) for a in a_cat.objects}
    sec_mor = {
        g: eq.mor(e.mor_map[g], sec_obj[a_cat.dom[g]], sec_obj[a_cat.cod[g]])
        for g in a_cat.dom
    }
    section = Functor("split_r", a_cat, b_cat, sec_obj, sec_mor)
    alpha = NatTrans(
        "split_alpha",
        compose_functors(retraction, section),
        e,
        {a: a_cat.identity[e.obj_map[a]] for a in a_cat.objects},
    )
    beta = natural_iso_search(compose_functors(section, retraction), identity_functor(b_cat))
    if beta is None:
        raise ValidationError(
            "split", ["no invertible comparison between the round trip and the identity"]
        )
    return Splitting(b_cat, section, retraction, alpha, beta)


# ---------------------------------------------------------------------------
# Pointwise-limit diagrams (for commutation with filtered colimits)


def biproduct_diagram(f1: CatPseudoFunctor, f2: CatPseudoFunctor, name: str = "prod") -> CatPseudoFunctor:
    """Stagewise product of two diagrams over the same index."""
    if f1.source is not f2.source:
        raise ValidationError(name, ["diagrams do not share an index"])
    tc = f1.source
    prods = {i: biproduct(f1.on0[i], f2.on0[i]) for i in tc.cells0}

    def pair_functor(d: str) -> Functor:
        i, j = tc.one_home[d]
        pi, pj = prods[i], prods[j]
        return Functor(
            f"{name}_{d}",
            pi.category,
            pj.category,
            {
                pi.pair_obj(x, y): pj.pair_obj(f1.on1[d].obj_map[x], f2.on1[d].obj_map[y])
                for x in f1.on0[i].objects
                for y in f2.on0[i].objects
            },
            {
                pi.pair_mor(m, n): pj.pair_mor(f1.on1[d].mor_map[m], f2.on1[d].mor_map[n])
                for m in f1.on0[i].morphisms
                for n in f2.on0[i].morphisms
            },
        )

    def image(cell, i, j, src, tgt) -> dict[str, str]:
        c1, c2 = cell(f1).components, cell(f2).components
        return {
            prods[i].pair_obj(x, y): prods[j].pair_mor(c1[x], c2[y])
            for x in f1.on0[i].objects
            for y in f2.on0[i].objects
        }

    on1 = {d: pair_functor(d) for d in tc.one_home}
    return stagewise_pseudofunctor(name, tc, {i: prods[i].category for i in tc.cells0}, on1, image)


def cotensor_diagram(f: CatPseudoFunctor, name: str = "sq") -> CatPseudoFunctor:
    """Stagewise arrow category of a diagram."""
    tc = f.source
    cots = {i: arrow_cotensor(f.on0[i]) for i in tc.cells0}

    def sq_functor(d: str) -> Functor:
        i, j = tc.one_home[d]
        ci, cj = cots[i], cots[j]
        fib_i = f.on0[i]
        fun = f.on1[d]
        obj_map = {m: fun.mor_map[m] for m in fib_i.morphisms}
        mor_map = {}
        for m in ci.category.morphisms:
            p, q = ci.square_of[m]
            src = ci.category.dom[m]
            tgt = ci.category.cod[m]
            mor_map[m] = cj.square(fun.mor_map[p], fun.mor_map[q], fun.mor_map[src], fun.mor_map[tgt])
        return Functor(f"{name}_{d}", ci.category, cj.category, obj_map, mor_map)

    def image(cell, i, j, src, tgt) -> dict[str, str]:
        c = cell(f)
        fib = f.on0[i]
        return {
            m: cots[j].square(
                c.components[fib.dom[m]],
                c.components[fib.cod[m]],
                c.source.mor_map[m],
                c.target.mor_map[m],
            )
            for m in fib.morphisms
        }

    on1 = {d: sq_functor(d) for d in tc.one_home}
    return stagewise_pseudofunctor(name, tc, {i: cots[i].category for i in tc.cells0}, on1, image)


def biequalizer_diagram(
    f1: CatPseudoFunctor,
    f2: CatPseudoFunctor,
    u: dict[str, Functor],
    v: dict[str, Functor],
    name: str = "eqz",
) -> CatPseudoFunctor:
    """Stagewise biequalizer of two strictly 2-natural transformations.

    Requires u_j ∘ F1(d) = F2(d) ∘ u_i on the nose (and likewise for v);
    this is what the bundled fixtures provide.  u and v are caller data, so
    unlike the other stagewise diagrams this one is checked: their strict
    naturality first, then the coherence of the assembled diagram.
    """
    tc = f1.source
    for d in tc.one_home:
        i, j = tc.one_home[d]
        for w, tag in ((u, "u"), (v, "v")):
            lhs = compose_functors(w[j], f1.on1[d]).key()
            rhs = compose_functors(f2.on1[d], w[i]).key()
            if lhs != rhs:
                raise ValidationError(name, [f"{tag} is not strictly natural at {d!r}"])
    eqs = {i: biequalizer(u[i], v[i]) for i in tc.cells0}

    def eq_functor(d: str) -> Functor:
        i, j = tc.one_home[d]
        ei, ej = eqs[i], eqs[j]
        obj_map = {}
        for o in ei.category.objects:
            a, theta = ei.obj_of[o]
            obj_map[o] = ej.obj(f1.on1[d].obj_map[a], f2.on1[d].mor_map[theta])
        mor_map = {}
        for m in ei.category.morphisms:
            src, tgt = ei.category.dom[m], ei.category.cod[m]
            mor_map[m] = ej.mor(f1.on1[d].mor_map[ei.mor_of[m]], obj_map[src], obj_map[tgt])
        return Functor(f"{name}_{d}", ei.category, ej.category, obj_map, mor_map)

    def image(cell, i, j, src, tgt) -> dict[str, str]:
        c = cell(f1).components
        return {
            o: eqs[j].mor(c[a], src.obj_map[o], tgt.obj_map[o])
            for o, (a, _) in eqs[i].obj_of.items()
        }

    on1 = {d: eq_functor(d) for d in tc.one_home}
    pf = stagewise_pseudofunctor(name, tc, {i: eqs[i].category for i in tc.cells0}, on1, image)
    violations = pseudofunctor_violations(pf)
    if violations:
        raise ValidationError(name, violations)
    return pf


# ---------------------------------------------------------------------------
# Commutation checks


def commute_biproduct(c1: ColimitCat, c2: ColimitCat) -> Verdict:
    """colim(F1 x F2) against colim(F1) x colim(F2), given colim F1 and
    colim F2 (their ``.diagram`` is F1 and F2); the right side is
    sk(colim F1) x sk(colim F2), equivalent as products preserve equivalences."""
    lhs = bifiltered_bicolimit(biproduct_diagram(c1.diagram, c2.diagram))
    rhs = biproduct(c1.skeleton.category, c2.skeleton.category)
    return check_equivalence(lhs.result, rhs.category)


def commute_cotensor(colim: ColimitCat) -> Verdict:
    """colim([2, F]) against [2, colim F], given colim F; the right side is
    [2, sk(colim F)], equivalent as [2, -] preserves equivalences."""
    lhs = bifiltered_bicolimit(cotensor_diagram(colim.diagram))
    rhs = arrow_cotensor(colim.skeleton.category)
    return check_equivalence(lhs.result, rhs.category)


def commute_biequalizer(
    c1: ColimitCat,
    c2: ColimitCat,
    u: dict[str, Functor],
    v: dict[str, Functor],
) -> Verdict:
    """colim of stagewise equalizers against the equalizer of the maps
    that u, v : F1 => F2 induce, given colim F1 and colim F2; each map w
    enters as r∘w∘i between the skeletons, equivalent as the iso-equalizer
    is invariant under the equivalences i and r."""
    f1 = c1.diagram
    sk1, sk2 = c1.skeleton, c2.skeleton
    lhs = bifiltered_bicolimit(biequalizer_diagram(f1, c2.diagram, u, v))

    def induced(w: dict[str, Functor], tag: str) -> Functor:
        legs = {i: compose_functors(c2.cocone[i], w[i]) for i in f1.source.cells0}
        cells = {}
        for d in f1.source.one_home:
            i, j = f1.source.one_home[d]
            cells[d] = NatTrans(
                f"{tag}_{d}",
                compose_functors(legs[j], f1.on1[d]),
                legs[i],
                {
                    a: c2.transitions[d].components[w[i].obj_map[a]]
                    for a in f1.on0[i].objects
                },
            )
        fun = factor_cocone(c1, c2.result, legs, cells).functor
        return compose_functors(sk2.retraction, compose_functors(fun, sk1.inclusion))

    rhs = biequalizer(induced(u, "u"), induced(v, "v"))
    return check_equivalence(lhs.result, rhs.category)
