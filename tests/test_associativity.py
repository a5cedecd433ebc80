"""Differential tests: associativity over a generating set against the full
triple scan, and the one-pass typing/totality check against set listing.

The scan is the oracle.  Patching ``associative_over_generators`` to answer
False makes ``fincat_violations`` and ``twocat_violations`` run the scan on
every input, which is what they did before the generator test existed.
``listing_violations`` is ``fincat_violations`` as it was before typing and
totality were decided in one pass: it builds the set of composable pairs and
lists against it on every input.  It calls the current
``associative_over_generators``, so the shortcut that passes a table whose
homs hold at most one morphism without Light's test has the scan alone as
its oracle; the preorder tests below give it that oracle.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bicolim import fincat, twocat, zoo
from bicolim.fincat import (
    FinCat,
    ValidationError,
    associative_over_generators,
    build_fincat,
    fincat_violations,
    functor_category,
    incidence,
)
from bicolim.twocat import build_twocat, locally_discrete, twocat_violations


def scan_violations(cat: FinCat) -> list[str]:
    with mock.patch.object(fincat, "associative_over_generators", lambda *args: False):
        return fincat_violations(cat)


def scan_twocat_violations(tc) -> list[str]:
    # twocat_violations decides each horizontal level with fincat_violations
    with mock.patch.object(fincat, "associative_over_generators", lambda *args: False):
        return twocat_violations(tc)


def listing_violations(cat: FinCat) -> list[str]:
    """The set-based check, kept verbatim as the oracle of the one-pass one."""
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
    if out:
        return out

    for m in cat.dom:
        if cat.table[(cat.identity[cat.cod[m]], m)] != m:
            out.append(f"left identity law fails at {m!r}")
        if cat.table[(m, cat.identity[cat.dom[m]])] != m:
            out.append(f"right identity law fails at {m!r}")
    if out or not associative_over_generators(
        cat.dom, cat.cod, cat.identity.values(), cat.table, *incidence(cat.dom, cat.cod)
    ):
        by_dom: dict[str, list[str]] = {x: [] for x in cat.objects}
        for m in cat.dom:
            by_dom[cat.dom[m]].append(m)
        for g, f in composable:
            gf = cat.table[(g, f)]
            for h in by_dom[cat.cod[g]]:
                if cat.table[(h, gf)] != cat.table[(cat.table[(h, g)], f)]:
                    out.append(f"associativity fails on ({h!r}, {g!r}, {f!r})")
                    if len(out) > 20:
                        return out
    return out


def agrees_with_scan(cat: FinCat) -> list[str]:
    """Assert the checks agree on a well-typed unital-or-not table."""
    got = fincat_violations(cat)
    assert got == scan_violations(cat)
    assert got == listing_violations(cat)
    if not any("identity law" in v for v in got):
        fast = associative_over_generators(
            cat.dom, cat.cod, cat.identity.values(), cat.table, *incidence(cat.dom, cat.cod)
        )
        assert fast == (not got)
    return got


def rebuild(cat: FinCat) -> FinCat:
    """``cat`` sent through ``build_fincat``, which raises on any violation."""
    return build_fincat(
        cat.name,
        cat.objects,
        [(m, cat.dom[m], cat.cod[m]) for m in cat.morphisms],
        cat.identity,
        cat.table,
    )


def with_table(cat: FinCat, table: dict[tuple[str, str], str]) -> FinCat:
    return FinCat(cat.name, cat.objects, dict(cat.dom), dict(cat.cod), dict(cat.identity), table)


def with_composite(cat: FinCat, pair: tuple[str, str], value: str) -> FinCat:
    return with_table(cat, {**cat.table, pair: value})


def corruptions(cat: FinCat) -> dict[str, FinCat]:
    """One broken copy of ``cat`` per way a table can be mistyped or partial.

    Each breaks the last entry in name order or adds the first
    non-composable pair."""
    pairs = sorted(cat.table)
    mors = cat.morphisms
    g, f = pairs[-1]
    out = {}
    out["dropped"] = with_table(cat, {k: v for k, v in cat.table.items() if k != (g, f)})
    # a non-composable pair whose composite is typed as if it composed, so
    # only the composability test can reject it
    loose = [
        ((b, a), v)
        for b in mors
        for a in mors
        if cat.dom[b] != cat.cod[a]
        for v in cat.hom(cat.dom[a], cat.cod[b])
    ]
    extra, value = loose[0] if loose else (("ghost", f), cat.table[(g, f)])
    out["non_composable"] = with_table(cat, {**cat.table, extra: value})
    out["unknown_key"] = with_table(cat, {**cat.table, (g, "ghost"): cat.table[(g, f)]})
    out["not_a_morphism"] = with_composite(cat, (g, f), "ghost")
    wrong = [m for m in mors if (cat.dom[m], cat.cod[m]) != (cat.dom[f], cat.cod[g])]
    if wrong:
        out["wrong_type"] = with_composite(cat, (g, f), wrong[0])
    # one missing and one extra entry: the count alone cannot tell
    swapped = {k: v for k, v in cat.table.items() if k != (g, f)}
    swapped[extra] = value
    out["dropped_and_extra"] = with_table(cat, swapped)
    return out


# ---------------------------------------------------------------------------
# Generated inputs


@st.composite
def unital_tables(draw) -> FinCat:
    """Well-typed tables on 1-3 objects obeying the unit laws; the other
    composites are drawn at random, so most tables are not associative."""
    objs = [f"o{i}" for i in range(draw(st.integers(1, 3)))]
    size = {
        (x, y): draw(st.integers(1, 3) if x == y else st.integers(0, 2))
        for x in objs
        for y in objs
    }
    changed = True
    while changed:  # give every composable pair a hom set to land in
        changed = False
        for x, y, z in itertools.product(objs, repeat=3):
            if size[(x, y)] and size[(y, z)] and not size[(x, z)]:
                size[(x, z)] = 1
                changed = True
    hom = {(x, y): [f"m{x}{y}_{k}" for k in range(n)] for (x, y), n in size.items()}
    mors = [(m, x, y) for (x, y), ms in sorted(hom.items()) for m in ms]
    ident = {x: hom[(x, x)][0] for x in objs}
    ids = set(ident.values())
    table = {}
    for g, gd, gc in mors:
        for f, fd, fc in mors:
            if fc != gd:
                continue
            if g in ids:
                table[(g, f)] = f
            elif f in ids:
                table[(g, f)] = g
            else:
                table[(g, f)] = draw(st.sampled_from(hom[(fd, gc)]))
    dom = {m: d for m, d, _ in mors}
    cod = {m: c for m, _, c in mors}
    return FinCat("random", tuple(objs), dom, cod, ident, table)


@st.composite
def posets(draw) -> FinCat:
    names = [f"p{i}" for i in range(draw(st.integers(1, 5)))]
    pairs = [(x, y) for x, y in itertools.combinations(names, 2)]
    relation = [pair for pair in pairs if draw(st.booleans())]
    # keep every element by relating it to itself through the closure
    return zoo.poset("P", relation + [(x, x) for x in names])


def transformation_monoid(generators: list[tuple[int, ...]], n: int) -> FinCat:
    """One-object category of the maps on range(n) generated by ``generators``."""
    ident = tuple(range(n))
    elems = {ident} | set(generators)
    changed = True
    while changed:
        changed = False
        for g, f in list(itertools.product(elems, repeat=2)):
            gf = tuple(g[f[x]] for x in range(n))
            if gf not in elems:
                elems.add(gf)
                changed = True
    name = {t: "t" + "".join(map(str, t)) for t in elems}
    return build_fincat(
        "T",
        ["*"],
        [(name[t], "*", "*") for t in elems],
        {"*": name[ident]},
        {
            (name[g], name[f]): name[tuple(g[f[x]] for x in range(n))]
            for g, f in itertools.product(elems, repeat=2)
        },
    )


@st.composite
def transformation_monoids(draw) -> FinCat:
    n = draw(st.integers(1, 3))
    maps = st.tuples(*[st.integers(0, n - 1)] * n)
    return transformation_monoid(draw(st.lists(maps, max_size=3)), n)


@st.composite
def preorders(draw) -> FinCat:
    """Thin categories: a random preorder (cycles make isomorphic objects),
    some with extra objects that carry only their identity, and some with
    every morphism renamed in a shuffled order, so that name order (which
    the generating set follows) no longer tracks the relation."""
    names = [f"p{i}" for i in range(draw(st.integers(1, 5)))]
    relation = [pair for pair in itertools.permutations(names, 2) if draw(st.booleans())]
    cat = zoo.poset("P", relation + [(x, x) for x in names])
    objects = list(cat.objects)
    dom, cod, identity, table = dict(cat.dom), dict(cat.cod), dict(cat.identity), dict(cat.table)
    for k in range(draw(st.integers(0, 2))):
        x, i = f"x{k}", f"id_x{k}"
        objects.append(x)
        dom[i] = cod[i] = x
        identity[x] = table[(i, i)] = i
    if draw(st.booleans()):
        mors = sorted(dom)
        new = dict(zip(mors, draw(st.permutations([f"r{k:02d}" for k in range(len(mors))]))))
        dom = {new[m]: x for m, x in dom.items()}
        cod = {new[m]: x for m, x in cod.items()}
        identity = {x: new[m] for x, m in identity.items()}
        table = {(new[g], new[f]): new[gf] for (g, f), gf in table.items()}
    return FinCat("preorder", tuple(objects), dom, cod, identity, table)


FUNCTOR_CATEGORIES = [
    functor_category(zoo.walking_arrow(), zoo.walking_arrow()).category,
    functor_category(zoo.walking_arrow(), zoo.bz2()).category,
    functor_category(zoo.bz2(), zoo.walking_iso()).category,
    functor_category(zoo.parallel_pair(), zoo.chain(3)).category,
]

valid_categories = st.one_of(
    posets(), transformation_monoids(), st.sampled_from(FUNCTOR_CATEGORIES)
)


# ---------------------------------------------------------------------------
# fincat


@settings(max_examples=300, deadline=None)
@given(unital_tables())
def test_random_unital_tables_agree_with_scan(cat):
    agrees_with_scan(cat)


@settings(max_examples=100, deadline=None)
@given(valid_categories)
def test_valid_categories_pass_both_checks(cat):
    assert agrees_with_scan(cat) == []


@settings(max_examples=300, deadline=None)
@given(valid_categories, st.data())
def test_one_corrupted_composite_agrees_with_scan(cat, data):
    pair = data.draw(st.sampled_from(sorted(cat.table)))
    g, f = pair
    value = data.draw(st.sampled_from(cat.hom(cat.dom[f], cat.cod[g])))
    agrees_with_scan(with_composite(cat, pair, value))


@settings(max_examples=100, deadline=None)
@given(st.one_of(valid_categories, unital_tables()))
def test_corrupted_tables_list_as_before(cat):
    for broken in corruptions(cat).values():
        got = fincat_violations(broken)
        assert got and got == listing_violations(broken)


CORRUPTION_MESSAGES = {
    "dropped": "composition not total",
    "non_composable": "composite listed for non-composable pair",
    "unknown_key": "composite listed for non-composable pair",
    "not_a_morphism": "is not a morphism",
    "wrong_type": "has wrong dom/cod",
    "dropped_and_extra": "composition not total",
}


@pytest.mark.parametrize("kind", sorted(CORRUPTION_MESSAGES))
def test_each_corruption_is_listed_as_before(kind):
    for cat in [zoo.chain(4), *FUNCTOR_CATEGORIES]:
        broken = corruptions(cat)[kind]
        got = fincat_violations(broken)
        if kind == "dropped_and_extra":
            assert len(broken.table) == len(cat.table)
        assert any(CORRUPTION_MESSAGES[kind] in v for v in got)
        assert got == listing_violations(broken)
        with pytest.raises(ValidationError) as err:
            rebuild(broken)
        assert err.value.violations == got


def test_valid_categories_never_list_composable_pairs(monkeypatch):
    # the one-pass check decides typing and totality on valid input; the
    # set of composable pairs is built only to list violations
    def refuse(self):
        raise AssertionError("composable_pairs called on a valid category")

    monkeypatch.setattr(FinCat, "composable_pairs", refuse)
    chain = zoo.chain(4)
    build_fincat(
        "chain4",
        chain.objects,
        [(m, chain.dom[m], chain.cod[m]) for m in chain.morphisms],
        chain.identity,
        chain.table,
    )
    functor_category(zoo.walking_arrow(), zoo.chain(3))
    functor_category(zoo.bz2(), zoo.walking_iso())
    with pytest.raises(AssertionError, match="composable_pairs"):
        fincat_violations(corruptions(chain)["dropped"])


@settings(max_examples=150, deadline=None)
@given(preorders())
def test_preorders_pass_every_check(cat):
    assert agrees_with_scan(cat) == []
    rebuild(cat)


@settings(max_examples=150, deadline=None)
@given(preorders(), st.data())
def test_corrupted_preorders_are_rejected_as_before(cat, data):
    # a thin table has no well-typed wrong composite, so every corruption
    # is a typing or totality violation, listed and raised as before
    pair = data.draw(st.sampled_from(sorted(cat.table)))
    value = data.draw(st.sampled_from([m for m in cat.morphisms if m != cat.table[pair]] + ["ghost"]))
    for broken in [with_composite(cat, pair, value), *corruptions(cat).values()]:
        got = fincat_violations(broken)
        assert got and got == listing_violations(broken) == scan_violations(broken)
        with pytest.raises(ValidationError) as err:
            rebuild(broken)
        assert err.value.violations == got


def test_only_tables_with_a_larger_hom_reach_generating_set(monkeypatch):
    thin = [zoo.chain(4), zoo.walking_iso(), zoo.poset("C", [("a", "b"), ("b", "c"), ("c", "a")])]
    non_thin = [zoo.bz2(), transformation_monoid([(1, 0, 2), (0, 0, 1)], 3)]
    seen: list[int] = []
    real = fincat.generating_set

    def spy(dom, *args):
        seen.append(len(dom))
        return real(dom, *args)

    monkeypatch.setattr(fincat, "generating_set", spy)
    for cat in thin:
        assert fincat_violations(cat) == []
    assert seen == []
    for cat in non_thin:
        assert fincat_violations(cat) == []
        assert seen == [len(cat.dom)]
        seen.clear()


def test_groups_have_no_indecomposables_yet_are_covered():
    # every element of a group is a product of two non-identities, so the
    # generating set starts from the least unreached element
    sym3 = transformation_monoid([(1, 0, 2), (1, 2, 0)], 3)
    assert len(sym3.dom) == 6
    assert agrees_with_scan(sym3) == []
    for pair in sorted(sym3.table):
        for value in sorted(sym3.dom):
            agrees_with_scan(with_composite(sym3, pair, value))


# ---------------------------------------------------------------------------
# twocat


def idempotent_chain_twocat(n: int):
    """0-cells 0 < 1 < ... < n-1.  Each non-unit 1-cell i -> j carries an
    idempotent 2-cell e_i_j besides its identity v_i_j; a horizontal
    composite is e exactly when one of its factors is."""
    cells = [str(i) for i in range(n)]
    hom = {}
    for i, j in itertools.combinations_with_replacement(cells, 2):
        f, v, e = f"c_{i}_{j}", f"v_{i}_{j}", f"e_{i}_{j}"
        if i == j:
            hom[(i, j)] = build_fincat(f"[{i},{j}]", [f], [(v, f, f)], {f: v}, {(v, v): v})
        else:
            hom[(i, j)] = build_fincat(
                f"[{i},{j}]",
                [f],
                [(v, f, f), (e, f, f)],
                {f: v},
                {(v, v): v, (v, e): e, (e, v): e, (e, e): e},
            )
    hcomp1, hcomp2 = {}, {}
    for i, j, k in itertools.combinations_with_replacement(cells, 3):
        hcomp1[(f"c_{j}_{k}", f"c_{i}_{j}")] = f"c_{i}_{k}"
        for b in hom[(j, k)].dom:
            for a in hom[(i, j)].dom:
                either = b.startswith("e") or a.startswith("e")
                hcomp2[(b, a)] = f"{'e' if either else 'v'}_{i}_{k}"
    return build_twocat(
        f"idem{n}", cells, hom, hcomp1, hcomp2, {i: f"c_{i}_{i}" for i in cells}
    )


def test_valid_twocats_pass_both_checks():
    for tc in [
        locally_discrete(zoo.poset("P", [("a", "b"), ("b", "c"), ("a", "d")])),
        locally_discrete(transformation_monoid([(1, 0, 2), (0, 0, 1)], 3)),
        idempotent_chain_twocat(4),
        zoo.iso_hom_twocat(),
        zoo.equifier_twocat(),
        zoo.endo_absorb_twocat(),
    ]:
        assert twocat_violations(tc) == scan_twocat_violations(tc) == []


def test_corrupted_poset_twocat_is_rejected():
    # A poset has at most one 1-cell per hom and one 2-cell per 1-cell, so
    # every corrupted composite is ill-typed and typing rejects it before
    # associativity is reached; both checks must still agree.
    tc = locally_discrete(zoo.poset("P", [("a", "b"), ("b", "c"), ("a", "d")]))
    for field, cells in [("hcomp1", tc.one_cells), ("hcomp2", tc.two_cells)]:
        for pair in sorted(getattr(tc, field)):
            for value in cells:
                comps = {"hcomp1": dict(tc.hcomp1), "hcomp2": dict(tc.hcomp2)}
                if comps[field][pair] == value:
                    continue
                comps[field][pair] = value
                broken = twocat.TwoCat(tc.name, tc.cells0, tc.hom, unit=tc.unit, **comps)
                got = twocat_violations(broken)
                assert got and got == scan_twocat_violations(broken)
                with pytest.raises(ValidationError):
                    build_twocat(tc.name, tc.cells0, tc.hom, unit=tc.unit, **comps)


def test_corrupted_hcomp1_fails_one_cell_associativity():
    # In a poset every hom set has at most one 1-cell, so a corrupted
    # composite there is always ill-typed; a monoid has room for a
    # well-typed wrong one.
    tc = locally_discrete(transformation_monoid([(1, 0, 2), (0, 0, 1)], 3))
    non_units = [f for f in tc.one_cells if f != tc.unit["*"]]
    caught = 0
    for pair in itertools.product(non_units, repeat=2):
        for value in tc.one_cells:
            hcomp1 = dict(tc.hcomp1)
            hcomp1[pair] = value
            broken = twocat.TwoCat(tc.name, tc.cells0, tc.hom, hcomp1, tc.hcomp2, tc.unit)
            got = twocat_violations(broken)
            assert got == scan_twocat_violations(broken)
            if any("1-cell associativity fails" in v for v in got):
                caught += 1
                with pytest.raises(ValidationError, match="1-cell associativity fails"):
                    build_twocat(tc.name, tc.cells0, tc.hom, hcomp1, tc.hcomp2, tc.unit)
    assert caught


def test_corrupted_hcomp2_fails_two_cell_associativity():
    tc = idempotent_chain_twocat(4)
    hcomp2 = dict(tc.hcomp2)
    # e_1_2 whiskered by the 1-cell 0 -> 1 should be e_0_2; v_0_2 has the
    # same boundary, so only the composition laws can notice
    hcomp2[("e_1_2", "v_0_1")] = "v_0_2"
    broken = twocat.TwoCat(tc.name, tc.cells0, tc.hom, tc.hcomp1, hcomp2, tc.unit)
    got = twocat_violations(broken)
    assert any("2-cell associativity fails" in v for v in got)
    assert got == scan_twocat_violations(broken)
    with pytest.raises(ValidationError) as err:
        build_twocat(tc.name, tc.cells0, tc.hom, tc.hcomp1, hcomp2, tc.unit)
    assert err.value.violations == got
