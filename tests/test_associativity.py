"""Differential tests: associativity over a generating set against the full
triple scan.

The scan is the oracle.  Patching ``associative_over_generators`` to answer
False makes ``fincat_violations`` and ``twocat_violations`` run the scan on
every input, which is what they did before the generator test existed.
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
)
from bicolim.twocat import build_twocat, locally_discrete, twocat_violations


def scan_violations(cat: FinCat) -> list[str]:
    with mock.patch.object(fincat, "associative_over_generators", lambda *args: False):
        return fincat_violations(cat)


def scan_twocat_violations(tc) -> list[str]:
    with mock.patch.object(twocat, "associative_over_generators", lambda *args: False):
        return twocat_violations(tc)


def agrees_with_scan(cat: FinCat) -> list[str]:
    """Assert the two checks agree on a well-typed unital-or-not table."""
    got = fincat_violations(cat)
    assert got == scan_violations(cat)
    if not any("identity law" in v for v in got):
        fast = associative_over_generators(cat.dom, cat.cod, cat.identity.values(), cat.table)
        assert fast == (not got)
    return got


def with_composite(cat: FinCat, pair: tuple[str, str], value: str) -> FinCat:
    table = dict(cat.table)
    table[pair] = value
    return FinCat(cat.name, cat.objects, dict(cat.dom), dict(cat.cod), dict(cat.identity), table)


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
