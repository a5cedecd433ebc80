"""Differential tests: indexes built once against the scans they replaced.

Each oracle below is the rescanning implementation that the index-based code
replaced, kept verbatim in spirit: a linear ``hom`` scan, the all-pairs
functor-category table, the all-pairs colimit table of unplanned
``_Amalgamator.compose`` calls with the key-scanning quotient that runs R1
along every 1-cell, the union-find over premorphisms that skips no 2-cell,
the premorphism universe over every apex, and the re-scan fixpoints for
``sigma_closure`` and for the closure that ``zoo.poset`` takes.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bicolim import cli, corpus, zoo
from bicolim.colim import (
    Premorphism,
    _Amalgamator,
    _premorphism_universe,
    _quotient,
    _transport,
    bifiltered_bicolimit,
)
from bicolim.filtered import check_bifiltered, class_subcategory
from bicolim.fincat import (
    FinCat,
    NatTrans,
    ValidationError,
    build_fincat,
    functor_category,
    generating_set,
    identity_functor,
    identity_nattrans,
    incidence,
    vcompose_nattrans,
)
from bicolim.fixtures import TwoCatFixture, load_fixture
from bicolim.twocat import (
    SigmaClass,
    TwoCat,
    all_one_cells,
    build_pseudofunctor,
    build_twocat,
    constant_pseudofunctor,
    locally_discrete,
    restrict_pseudofunctor,
    sigma_closure,
)

BUNDLED = Path(cli.__file__).parent / "corpus"


# ---------------------------------------------------------------------------
# FinCat.hom


def scan_hom(cat: FinCat, a: str, b: str) -> tuple[str, ...]:
    return tuple(m for m in sorted(cat.dom) if cat.dom[m] == a and cat.cod[m] == b)


def assert_hom_matches_scan(cat: FinCat) -> None:
    probes = list(cat.objects) + ["not-an-object"]
    for a, b in itertools.product(probes, repeat=2):
        assert cat.hom(a, b) == scan_hom(cat, a, b), (a, b)
    assert cat.morphisms == tuple(sorted(cat.dom))
    assert cat.morphisms is cat.morphisms


@st.composite
def posets(draw) -> FinCat:
    names = draw(st.permutations([f"p{i}" for i in range(draw(st.integers(1, 5)))]))
    relation = [pair for pair in itertools.combinations(names, 2) if draw(st.booleans())]
    return zoo.poset("P", relation + [(x, x) for x in names])


@st.composite
def typed_morphisms(draw) -> FinCat:
    """Morphism names drawn in any order with random endpoints; ``hom``
    reads only ``dom`` and ``cod``, so no composition table is needed."""
    objs = tuple(f"o{i}" for i in range(draw(st.integers(1, 4))))
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), unique=True, max_size=12))
    ends = {m: (draw(st.sampled_from(objs)), draw(st.sampled_from(objs))) for m in names}
    dom = {m: d for m, (d, _) in ends.items()}
    cod = {m: c for m, (_, c) in ends.items()}
    return FinCat("typed", objs, dom, cod, {}, {})


@settings(max_examples=60, deadline=None)
@given(posets())
def test_hom_index_matches_scan_on_posets(cat):
    assert_hom_matches_scan(cat)


@settings(max_examples=60, deadline=None)
@given(typed_morphisms())
def test_hom_index_matches_scan_on_random_typings(cat):
    assert_hom_matches_scan(cat)


def test_hom_index_matches_scan_on_zoo():
    for cat in (
        zoo.terminal(),
        zoo.walking_arrow(),
        zoo.walking_iso(),
        zoo.parallel_pair(),
        zoo.chain(4),
        zoo.bz2(),
    ):
        assert_hom_matches_scan(cat)
    for tc in (zoo.iso_hom_twocat(), zoo.lax_triangle_twocat(), zoo.equifier_twocat()):
        for cat in tc.hom.values():
            assert_hom_matches_scan(cat)


# ---------------------------------------------------------------------------
# functor_category


def all_pairs_table(fc) -> dict[tuple[str, str], str]:
    """The composition table by vertical composition over every pair."""
    name_of = {
        (nt.source.name, nt.target.name, tuple(sorted(nt.components.items()))): name
        for name, nt in fc.transformations.items()
    }
    table = {}
    for beta_name, beta in fc.transformations.items():
        for alpha_name, alpha in fc.transformations.items():
            if alpha.target.name != beta.source.name:
                continue
            comp = vcompose_nattrans(beta, alpha)
            key = (alpha.source.name, beta.target.name, tuple(sorted(comp.components.items())))
            table[(beta_name, alpha_name)] = name_of[key]
    return table


SMALL = {
    "terminal": zoo.terminal,
    "arrow": zoo.walking_arrow,
    "iso": zoo.walking_iso,
    "parallel": zoo.parallel_pair,
    "chain3": lambda: zoo.chain(3),
    "bz2": zoo.bz2,
}


@pytest.mark.parametrize("cname", sorted(SMALL))
@pytest.mark.parametrize("dname", sorted(SMALL))
def test_functor_category_table_matches_all_pairs(cname, dname):
    fc = functor_category(SMALL[cname](), SMALL[dname]())
    oracle = all_pairs_table(fc)
    # same entries, inserted in the same order
    assert list(fc.category.table.items()) == list(oracle.items())


# ---------------------------------------------------------------------------
# zoo.poset


def fixpoint_poset(name: str, relation: list[tuple[str, str]]) -> FinCat:
    """``zoo.poset`` as it was: the closure as a fixpoint over every pair of
    pairs, and the table by a scan of every pair of pairs."""
    objs = sorted({x for pair in relation for x in pair})
    le = {(x, x) for x in objs} | set(relation)
    changed = True
    while changed:
        changed = False
        for x, y in list(le):
            for y2, z in list(le):
                if y2 == y and (x, z) not in le:
                    le.add((x, z))
                    changed = True
    ids = {x: f"le_{x}_{x}" for x in objs}
    mors = [(f"le_{x}_{y}", x, y) for x, y in sorted(le)]
    table = {}
    for x, y in le:
        for y2, z in le:
            if y2 == y:
                table[(f"le_{y}_{z}", f"le_{x}_{y}")] = f"le_{x}_{z}"
    return build_fincat(name, objs, mors, ids, table)


@st.composite
def relations(draw) -> list[tuple[str, str]]:
    """Pairs over a few names holding the characters derived names use, so
    reflexive pairs, cycles and colliding arrow names all occur."""
    name = st.one_of(st.text("ab_", min_size=1, max_size=3),
                     st.text("ab_.,:|()[]<>", min_size=1, max_size=3))
    pool = draw(st.lists(name, min_size=1, max_size=6, unique=True))
    pair = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    return draw(st.lists(pair, max_size=12))


def poset_or_refusal(build, relation):
    try:
        return build("P", relation)
    except ValidationError as err:
        return err.subject, err.violations


@settings(max_examples=300, deadline=None)
@given(relations())
def test_poset_matches_fixpoint_closure(relation):
    want = poset_or_refusal(fixpoint_poset, relation)
    got = poset_or_refusal(zoo.poset, relation)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.objects == want.objects
    assert list(got.dom.items()) == list(want.dom.items())
    assert list(got.cod.items()) == list(want.cod.items())
    assert got.identity == want.identity
    assert sorted(got.table.items()) == sorted(want.table.items())


def test_poset_refuses_colliding_arrow_names():
    relation = [("a_b", "c"), ("a", "b_c")]
    want = poset_or_refusal(fixpoint_poset, relation)
    assert want == ("P", ["repeated morphism name 'le_a_b_c'"])
    assert poset_or_refusal(zoo.poset, relation) == want


def test_poset_table_order_does_not_follow_the_hash_seed():
    code = (
        "from bicolim import zoo\n"
        "from bicolim.twocat import locally_discrete\n"
        "rel = [('a', 'b'), ('b', 'c'), ('c', 'a'), ('c', 'd'), ('x', 'd'), ('d', 'd')]\n"
        "print(list(locally_discrete(zoo.poset('P', rel)).hcomp1))\n"
    )
    src = str(Path(zoo.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Colimit kernel


class _DSU:
    def __init__(self) -> None:
        self.parent: dict[Premorphism, Premorphism] = {}

    def add(self, x: Premorphism) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: Premorphism) -> Premorphism:
        while self.parent[x] is not x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: Premorphism, y: Premorphism) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx is not ry:
            self.parent[rx] = ry


def all_stages_universe(pf) -> list[Premorphism]:
    """The premorphism universe with a leg list for every object and stage."""
    base = pf.source
    stages = sorted(base.cells0)
    objs = [(i, a) for i in stages for a in pf.on0[i].objects]
    # the legs from each object into each apex, with the objects they carry
    legs = {
        (x, j): [(s, pf.on1[s].obj_map[x[1]]) for s in base.cells1(x[0], j)]
        for x in objs
        for j in stages
    }
    out: list[Premorphism] = []
    for x1 in objs:
        for x2 in objs:
            for j in stages:
                hom = pf.on0[j].hom
                right = legs[(x2, j)]
                for s, sa in legs[(x1, j)]:
                    for d, da in right:
                        for cell in hom(sa, da):
                            out.append(Premorphism(x1, x2, j, s, d, cell))
    return out


def dsu_quotient(pf, universe) -> dict[Premorphism, Premorphism]:
    """The quotient by union-find keyed by premorphisms, R2/R3 along every 2-cell."""
    base = pf.source
    dsu = _DSU()
    for p in universe:
        dsu.add(p)
    # premorphisms by (apex, leg); a leg i -> j fixes the stages of its end
    by_left: dict[tuple[str, str], list[Premorphism]] = {}
    by_right: dict[tuple[str, str], list[Premorphism]] = {}
    for p in universe:
        by_left.setdefault((p.apex, p.left), []).append(p)
        by_right.setdefault((p.apex, p.right), []).append(p)
    # R1 along generating 1-cells only; exact for a coherent diagram (module doc)
    dom = {t: i for t, (i, _) in base.one_home.items()}
    cod = {t: j for t, (_, j) in base.one_home.items()}
    out_of, _ = incidence(dom, cod)
    along: dict[str, list[str]] = {j: [] for j in base.cells0}
    for t in generating_set(dom, cod, set(base.unit.values()), base.hcomp1, out_of):
        along[dom[t]].append(t)
    for p in universe:
        for t in along[p.apex]:
            dsu.union(p, _transport(pf, p, t))
    for a in base.two_cells:
        lo, hi = base.dom2(a), base.cod2(a)
        j = base.two_home[a][1]
        fj, comps = pf.on0[j], pf.on2[a].components
        # R2: beta : lo ⇒ hi between left legs; trade hi for lo
        for p in by_left.get((j, hi), ()):
            cell = fj.table[(p.cell, comps[p.src[1]])]
            dsu.union(p, Premorphism(p.src, p.dst, j, lo, p.right, cell))
        # R3: beta : lo ⇒ hi between right legs; trade lo for hi
        for p in by_right.get((j, lo), ()):
            cell = fj.table[(comps[p.dst[1]], p.cell)]
            dsu.union(p, Premorphism(p.src, p.dst, j, p.left, hi, cell))
    return {p: dsu.find(p) for p in universe}


def scan_quotient(pf, universe) -> dict[Premorphism, Premorphism]:
    """The quotient with R1 over every 1-cell and R2/R3 over every key."""
    base = pf.source
    dsu = _DSU()
    for p in universe:
        dsu.add(p)
    by_left: dict[tuple, list[Premorphism]] = {}
    by_right: dict[tuple, list[Premorphism]] = {}
    for p in universe:
        by_left.setdefault((p.apex, p.left, p.src), []).append(p)
        by_right.setdefault((p.apex, p.right, p.dst), []).append(p)
    for p in universe:
        for t in base.one_cells:
            if base.one_home[t][0] == p.apex:
                dsu.union(p, _transport(pf, p, t))
    for a in base.two_cells:
        lo, hi = base.dom2(a), base.cod2(a)
        i, j = base.two_home[a]
        fj = pf.on0[j]
        for key, plist in by_left.items():
            if key[0] != j or key[1] != hi or key[2][0] != i:
                continue
            for p in plist:
                cell = fj.table[(p.cell, pf.on2[a].components[p.src[1]])]
                dsu.union(p, Premorphism(p.src, p.dst, j, lo, p.right, cell))
        for key, plist in by_right.items():
            if key[0] != j or key[1] != lo or key[2][0] != i:
                continue
            for p in plist:
                cell = fj.table[(pf.on2[a].components[p.dst[1]], p.cell)]
                dsu.union(p, Premorphism(p.src, p.dst, j, p.left, hi, cell))
    return {p: dsu.find(p) for p in universe}


def partition(universe: list[Premorphism], roots) -> set[frozenset[Premorphism]]:
    """The classes of a quotient, from each premorphism's root in universe order."""
    groups: dict[object, set[Premorphism]] = {}
    for p, r in zip(universe, roots, strict=True):
        groups.setdefault(r, set()).add(p)
    return {frozenset(g) for g in groups.values()}


def oracle_partition(universe: list[Premorphism], reps: dict[Premorphism, Premorphism]):
    assert len(reps) == len(universe)
    return partition(universe, [reps[p] for p in universe])


def all_pairs_colimit_table(colim) -> dict[tuple[str, str], str]:
    amal = _Amalgamator(colim.diagram)
    return {
        (gname, fname): colim.classes[amal.compose(grep, frep)]
        for gname, grep in colim.class_rep.items()
        for fname, frep in colim.class_rep.items()
        if frep.dst == grep.src
    }


def ladder(n: int, m: int):
    index = locally_discrete(zoo.chain(n))
    return constant_pseudofunctor(index, zoo.chain(m))


def class_restricted(pf, sigma: SigmaClass):
    """The diagram that ``sigma_bicolimit`` hands to ``bifiltered_bicolimit``."""
    return restrict_pseudofunctor(pf, class_subcategory(pf.source, sigma_closure(sigma)))


def corpus_class_restricted(dname: str, cname: str):
    pf = corpus.DIAGRAM_BUILDERS[dname]()
    return class_restricted(pf, corpus.diagram_sigma(dname, cname, pf))


def ladder_star(n: int, m: int):
    """A ladder restricted to the star class {i <= top}."""
    pf = ladder(n, m)
    top = str(n - 1)
    return class_restricted(pf, SigmaClass(pf.source, frozenset(f"le_{i}_{top}" for i in range(n))))


COLIMIT_DIAGRAMS = {
    **{
        f"ladder{n}x{m}": (lambda n=n, m=m: ladder(n, m))
        for n, m in ((2, 2), (3, 2), (3, 3), (4, 3), (5, 4))
    },
    "ladder4x3|star": lambda: ladder_star(4, 3),
    # homs with two classes, so the table computes entries off plans too
    "const_parallel_over_chain3": lambda: constant_pseudofunctor(
        locally_discrete(zoo.chain(3)), zoo.parallel_pair()
    ),
    "const_bz2_over_chain3": lambda: constant_pseudofunctor(
        locally_discrete(zoo.chain(3)), zoo.bz2()
    ),
    **{name: corpus.DIAGRAM_BUILDERS[name] for name in corpus.BIFILTERED_DIAGRAMS},
    **{
        f"{dname}|{cname}": (lambda d=dname, c=cname: corpus_class_restricted(d, c))
        for dname, cname in corpus.SIGMA_DIAGRAMS
    },
}


def assert_quotient_matches_oracles(pf) -> None:
    universe = _premorphism_universe(pf)
    assert universe == all_stages_universe(pf)
    classes = partition(universe, _quotient(pf, universe))
    assert classes == oracle_partition(universe, dsu_quotient(pf, universe))
    assert classes == oracle_partition(universe, scan_quotient(pf, universe))


def assert_colimit_kernel_matches_scans(pf) -> None:
    assert_quotient_matches_oracles(pf)
    colim = bifiltered_bicolimit(pf)
    assert list(colim.result.table.items()) == list(all_pairs_colimit_table(colim).items())


@pytest.mark.parametrize("name", sorted(COLIMIT_DIAGRAMS))
def test_colimit_kernel_matches_scans(name):
    assert_colimit_kernel_matches_scans(COLIMIT_DIAGRAMS[name]())


@pytest.mark.parametrize("name", sorted(COLIMIT_DIAGRAMS))
def test_plans_match_compose_on_every_span(name):
    # class reps use few legs; arbitrary spans reach the non-identity
    # insertion cells and comparison components too
    pf = COLIMIT_DIAGRAMS[name]()
    universe = _premorphism_universe(pf)
    starting_at: dict[tuple, list[Premorphism]] = {}
    for q in universe:
        starting_at.setdefault(q.src, []).append(q)
    planned, unplanned = _Amalgamator(pf), _Amalgamator(pf)
    pairs = ((p, q) for p in universe for q in starting_at.get(p.dst, ()))
    for p, q in itertools.islice(pairs, 20_000):
        assert planned.plan(p, q).composite(p, q) == unplanned.compose(q, p), (p, q)


def identity_image_two_cells(pf) -> list[str]:
    """The 2-cells that the quotient skips: an endo-2-cell whose image under
    the diagram has identity components."""
    base = pf.source
    return [
        a
        for a in base.two_cells
        if base.dom2(a) == base.cod2(a)
        and all(
            pf.on0[base.two_home[a][1]].is_identity(c)
            for c in pf.on2[a].components.values()
        )
    ]


def assert_skipped_moves_fix_every_premorphism(pf) -> int:
    """R2 and R3 along each skipped 2-cell return p itself; the number of
    moves checked."""
    base = pf.source
    skipped = identity_image_two_cells(pf)
    moves = 0
    for p in _premorphism_universe(pf):
        for a in skipped:
            lo = hi = base.dom2(a)
            j = base.two_home[a][1]
            if p.apex != j:
                continue
            fj, comps = pf.on0[j], pf.on2[a].components
            if p.left == hi:
                cell = fj.table[(p.cell, comps[p.src[1]])]
                assert Premorphism(p.src, p.dst, j, lo, p.right, cell) == p, (a, p)
                moves += 1
            if p.right == lo:
                cell = fj.table[(comps[p.dst[1]], p.cell)]
                assert Premorphism(p.src, p.dst, j, p.left, hi, cell) == p, (a, p)
                moves += 1
    return moves


def involution_diagram():
    """One 0-cell whose identity 1-cell carries an involution 2-cell, sent to
    the involution of ``bz2``: an endo-2-cell whose image is no identity, so
    R2 and R3 along it merge spans that nothing else merges.  The index is
    not bifiltered, since no 1-cell equifies the involution with the identity."""
    hom = build_fincat(
        "inv[*,*]",
        ["i"],
        [("v_i", "i", "i"), ("sg", "i", "i")],
        {"i": "v_i"},
        {("v_i", "v_i"): "v_i", ("v_i", "sg"): "sg", ("sg", "v_i"): "sg", ("sg", "sg"): "v_i"},
    )
    tc = build_twocat("inv", ["*"], {("*", "*"): hom}, {("i", "i"): "i"}, hom.table, {"*": "i"})
    fiber = zoo.bz2()
    ident = identity_functor(fiber)
    on2 = {"v_i": identity_nattrans(ident), "sg": NatTrans("g_img", ident, ident, {"o": "g"})}
    return build_pseudofunctor("involution", tc, {"*": fiber}, {"i": ident}, on2)


# the quotient alone also runs on indexes that are not bifiltered
UNFILTERED_DIAGRAMS = {"involution": involution_diagram, "lax_fill": corpus.DIAGRAM_BUILDERS["lax_fill"]}


@pytest.mark.parametrize("name", sorted(UNFILTERED_DIAGRAMS))
def test_quotient_matches_oracles_on_unfiltered_diagrams(name):
    pf = UNFILTERED_DIAGRAMS[name]()
    assert not check_bifiltered(pf.source)
    assert_quotient_matches_oracles(pf)


def test_involution_merges_its_spans():
    pf = involution_diagram()
    universe = _premorphism_universe(pf)
    assert len(universe) == 2 and len(set(_quotient(pf, universe))) == 1


CORPUS_AND_COLIMIT_DIAGRAMS = {
    **corpus.DIAGRAM_BUILDERS,
    **COLIMIT_DIAGRAMS,
    "involution": involution_diagram,
}


@pytest.mark.parametrize("name", sorted(CORPUS_AND_COLIMIT_DIAGRAMS))
def test_skipped_two_cells_move_nothing(name):
    # identity 2-cells are always skipped, so every diagram checks some moves
    assert assert_skipped_moves_fix_every_premorphism(CORPUS_AND_COLIMIT_DIAGRAMS[name]()) > 0


def has_sole_and_computed_entries(cat: FinCat) -> bool:
    """Some composite lands in a hom of one morphism, and some in a larger one."""
    sizes = {len(cat.hom(cat.dom[f], cat.cod[g])) == 1 for g, f in cat.table}
    return sizes == {True, False}


def test_oracles_see_sole_and_computed_entries_in_one_table():
    # entries in a one-morphism hom skip the composite, so each oracle must
    # compare at least one table where both kinds of entry occur
    assert any(
        has_sole_and_computed_entries(bifiltered_bicolimit(COLIMIT_DIAGRAMS[name]()).result)
        for name in sorted(COLIMIT_DIAGRAMS)
    )
    assert any(
        has_sole_and_computed_entries(functor_category(SMALL[c](), SMALL[d]()).category)
        for c, d in itertools.product(sorted(SMALL), repeat=2)
    )


@pytest.mark.parametrize("name", ["twisted_iso", "collapse_pair"])
def test_colimit_oracles_cover_pseudo_diagrams(name):
    # R1 along generators leans on the coherence of the comparison cells,
    # so the oracles must see diagrams whose comparisons are not identities
    assert name in COLIMIT_DIAGRAMS
    assert not COLIMIT_DIAGRAMS[name]().is_strict()


@st.composite
def constant_diagrams_over_posets_with_top(draw):
    names = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    top = names[-1]
    relation = [pair for pair in itertools.combinations(names, 2) if draw(st.booleans())]
    relation += [(x, top) for x in names[:-1]] + [(x, x) for x in names]
    fiber = draw(st.sampled_from([zoo.walking_arrow(), zoo.chain(3), zoo.parallel_pair(), zoo.walking_iso()]))
    return constant_pseudofunctor(locally_discrete(zoo.poset("P", relation)), fiber)


@settings(max_examples=25, deadline=None)
@given(constant_diagrams_over_posets_with_top())
def test_colimit_kernel_matches_scans_on_constant_diagrams(pf):
    assert_colimit_kernel_matches_scans(pf)


def closure_under_hcomp1(tc: TwoCat, gens: list[str]) -> set[str]:
    reached = set(gens) | set(tc.unit.values())
    changed = True
    while changed:
        changed = False
        for (g, f), gf in tc.hcomp1.items():
            if g in reached and f in reached and gf not in reached:
                reached.add(gf)
                changed = True
    return reached


def test_generating_one_cells_reach_every_one_cell_of_the_corpus():
    cache: dict = {}
    for path in sorted(BUNDLED.glob("*.twocat.json")):
        tc = load_fixture(path, cache).twocat
        dom = {f: home[0] for f, home in tc.one_home.items()}
        cod = {f: home[1] for f, home in tc.one_home.items()}
        out_of: dict[str, list[str]] = {}
        for f in tc.one_cells:
            out_of.setdefault(dom[f], []).append(f)
        ids = set(tc.unit.values())
        gens = generating_set(dom, cod, ids, tc.hcomp1, out_of)
        assert ids.isdisjoint(gens), path.name
        assert closure_under_hcomp1(tc, gens) == set(tc.one_cells), path.name


def test_premorphism_keeps_its_interface():
    p = Premorphism(("i", "a"), ("j", "b"), "k", "s", "d", "c")
    assert p.key() == (("i", "a"), ("j", "b"), "k", "s", "d", "c")
    assert p.to_dict() == {
        "src": ["i", "a"], "dst": ["j", "b"], "apex": "k", "left": "s", "right": "d", "cell": "c",
    }
    assert p == Premorphism(*p.key()) and hash(p) == hash(Premorphism(*p.key()))


# ---------------------------------------------------------------------------
# sigma_closure


def scan_closure(s: SigmaClass) -> frozenset[str]:
    """Re-scan every pair of members and every 1-cell until nothing changes."""
    tc = s.owner
    closure = set(s.members) | {tc.unit[i] for i in tc.cells0}
    changed = True
    while changed:
        changed = False
        for f in sorted(closure):
            for g in sorted(closure):
                if tc.one_home[g][0] == tc.one_home[f][1]:
                    gf = tc.hcomp1[(g, f)]
                    if gf not in closure:
                        closure.add(gf)
                        changed = True
        for d in tc.one_cells:
            if d in closure:
                continue
            i, j = tc.one_home[d]
            for t in tc.cells1(i, j):
                if t in closure and (tc.invertible_between(d, t) or tc.invertible_between(t, d)):
                    closure.add(d)
                    changed = True
                    break
    return frozenset(closure)


def assert_closure_matches_scan(s: SigmaClass) -> None:
    assert sigma_closure(s).members == scan_closure(s)


@st.composite
def ld_posets_with_classes(draw) -> SigmaClass:
    names = [f"p{i}" for i in range(draw(st.integers(1, 6)))]
    relation = [pair for pair in itertools.combinations(names, 2) if draw(st.booleans())]
    tc = locally_discrete(zoo.poset("P", relation + [(x, x) for x in names]))
    members = draw(st.sets(st.sampled_from(tc.one_cells)))
    return SigmaClass(tc, frozenset(members))


@settings(max_examples=60, deadline=None)
@given(ld_posets_with_classes())
def test_sigma_closure_matches_scan_on_locally_discrete_posets(s):
    assert_closure_matches_scan(s)


ZOO_TWOCATS = {
    "isohom": zoo.iso_hom_twocat,
    "laxtriangle": zoo.lax_triangle_twocat,
    "equifier": zoo.equifier_twocat,
    "endoabsorb": zoo.endo_absorb_twocat,
}


@pytest.mark.parametrize("name", sorted(ZOO_TWOCATS))
def test_sigma_closure_matches_scan_on_every_subset(name):
    # these indexes have non-identity 2-cells, so the mate rule is exercised
    tc: TwoCat = ZOO_TWOCATS[name]()
    cells = tc.one_cells
    for size in range(len(cells) + 1):
        for members in itertools.islice(itertools.combinations(cells, size), 200):
            assert_closure_matches_scan(SigmaClass(tc, frozenset(members)))


def test_sigma_closure_matches_scan_on_corpus_classes():
    seen = 0
    cache: dict = {}
    for path in sorted(BUNDLED.glob("*.twocat.json")):
        fx = load_fixture(path, cache)
        assert isinstance(fx, TwoCatFixture)
        for s in [all_one_cells(fx.twocat), *fx.sigma.values()]:
            assert_closure_matches_scan(s)
            seen += 1
    assert seen > len(list(BUNDLED.glob("*.twocat.json")))
