"""Differential tests: derived 2-categories assembled directly, against the
same data sent through ``build_fincat`` and ``build_twocat``.

``locally_discrete``, ``op1``, ``full_sub_on_zero_cells`` and
``full_sub_on_one_cells`` build from a category or 2-category that is
already validated, so they assemble their output without replaying the
axioms.  Each ``validated_*`` function below is that builder as it was when
it validated every hom and the whole; it is the oracle.  The direct output
must equal it field by field, in the order of every table, and must pass
both axiom checks.  ``all_pairs_closed`` is the closure test of
``full_sub_on_one_cells`` as it was, comparing every pair of kept 1-cells;
it is the oracle of the test indexed by source 0-cell.
"""

from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from support import corpus_fixtures
from test_associativity import posets, preorders, transformation_monoids

from bicolim import fincat, twocat, zoo
from bicolim.filtered import check_bifiltered, check_sigma_cofinal, trivialization_check
from bicolim.fincat import FinCat, ValidationError, build_fincat, fincat_violations
from bicolim.fixtures import ProbeFixture, TwoCatFixture, load_fixture
from bicolim.twocat import (
    SigmaClass,
    TwoCat,
    all_one_cells,
    build_twocat,
    describe_twocat,
    full_sub_on_one_cells,
    full_sub_on_zero_cells,
    inclusion_twofunctor,
    locally_discrete,
    op1,
    sigma_closure,
    twocat_violations,
    validate_twocat,
)


# ---------------------------------------------------------------------------
# The builders as they were, validating what they build


def validated_locally_discrete(cat: FinCat, name: str | None = None) -> TwoCat:
    hom: dict[tuple[str, str], FinCat] = {}
    for i in cat.objects:
        for j in cat.objects:
            cells = cat.hom(i, j)
            hom[(i, j)] = build_fincat(
                f"{cat.name}[{i},{j}]",
                cells,
                [(f"v_{m}", m, m) for m in cells],
                {m: f"v_{m}" for m in cells},
                {(f"v_{m}", f"v_{m}"): f"v_{m}" for m in cells},
            )
    hcomp2 = {
        (f"v_{g}", f"v_{f}"): f"v_{gf}" for (g, f), gf in cat.table.items()
    }
    return build_twocat(
        name or f"ld({cat.name})",
        cat.objects,
        hom,
        dict(cat.table),
        hcomp2,
        dict(cat.identity),
    )


def validated_op1(tc: TwoCat) -> TwoCat:
    return build_twocat(
        f"{tc.name}^op",
        tc.cells0,
        {(i, j): tc.hom[(j, i)] for (j, i) in dense_homs(tc)},
        {(g, f): tc.hcomp1[(f, g)] for (f, g) in tc.hcomp1},
        {(b, a): tc.hcomp2[(a, b)] for (a, b) in tc.hcomp2},
        dict(tc.unit),
    )


def validated_full_sub_on_zero_cells(tc: TwoCat, objs, name: str | None = None) -> TwoCat:
    kept0 = sorted(set(objs))
    hom = {(i, j): tc.hom[(i, j)] for i in kept0 for j in kept0}
    kept1 = {f for cat in hom.values() for f in cat.objects}
    kept2 = {a for cat in hom.values() for a in cat.dom}
    return build_twocat(
        name or f"{tc.name}|{'+'.join(kept0)}",
        kept0,
        hom,
        {k: v for k, v in tc.hcomp1.items() if k[0] in kept1 and k[1] in kept1},
        {k: v for k, v in tc.hcomp2.items() if k[0] in kept2 and k[1] in kept2},
        {i: tc.unit[i] for i in kept0},
    )


def dense_homs(tc: TwoCat) -> dict[tuple[str, str], FinCat]:
    """Every hom of ``tc`` as the builders once stored them: the stored homs,
    then each absent pair in 0-cell order."""
    absent = [key for key in itertools.product(tc.cells0, repeat=2) if key not in tc.hom]
    return {**tc.hom, **{key: tc.hom[key] for key in absent}}


def all_pairs_closed(tc: TwoCat, kept: set[str]) -> bool:
    """Units kept and every composable pair in ``kept × kept`` composes
    inside ``kept``."""
    if any(tc.unit[i] not in kept for i in tc.cells0):
        return False
    for f in kept:
        for g in kept:
            if tc.one_home[f][1] == tc.one_home[g][0] and tc.hcomp1[(g, f)] not in kept:
                return False
    return True


def validated_full_sub_on_one_cells(tc: TwoCat, keep, name: str | None = None) -> TwoCat:
    kept = set(keep)
    if not all_pairs_closed(tc, kept):
        raise ValidationError(tc.name, ["1-cell class misses a unit or is not closed"])
    hom: dict[tuple[str, str], FinCat] = {}
    kept2: set[str] = set()
    for (i, j), cat in dense_homs(tc).items():
        objs = [f for f in cat.objects if f in kept]
        objset = set(objs)
        mors = [a for a in cat.morphisms if cat.dom[a] in objset and cat.cod[a] in objset]
        kept2.update(mors)
        morset = set(mors)
        hom[(i, j)] = build_fincat(
            f"{cat.name}|",
            objs,
            [(a, cat.dom[a], cat.cod[a]) for a in mors],
            {f: cat.identity[f] for f in objs},
            {k: v for k, v in cat.table.items() if k[0] in morset and k[1] in morset},
        )
    return build_twocat(
        name or f"{tc.name}|sigma",
        tc.cells0,
        hom,
        {k: v for k, v in tc.hcomp1.items() if k[0] in kept and k[1] in kept},
        {k: v for k, v in tc.hcomp2.items() if k[0] in kept2 and k[1] in kept2},
        dict(tc.unit),
    )


# ---------------------------------------------------------------------------
# Comparison


def entries(table) -> list:
    return list(table.items()) if isinstance(table, dict) else list(table)


def assert_same_twocat(got: TwoCat, want: TwoCat) -> None:
    assert got.name == want.name
    for field in ("cells0", "unit", "hcomp1", "hcomp2", "one_home", "two_home"):
        assert entries(getattr(got, field)) == entries(getattr(want, field)), field
    # the stored homs are the nonempty ones, in order; every pair of 0-cells
    # answers with a hom of the same name and tables, absent pairs included
    assert list(got.hom) == [key for key, cat in want.hom.items() if cat.objects]
    for key in itertools.product(got.cells0, repeat=2):
        cat, other = got.hom[key], want.hom[key]
        assert cat.name == other.name, key
        for field in ("objects", "dom", "cod", "identity", "table"):
            assert entries(getattr(cat, field)) == entries(getattr(other, field)), (key, field)
    assert twocat_violations(got) == []
    for cat in got.hom.values():
        assert fincat_violations(cat) == []


def check_derived(tc: TwoCat, objs: list[str], members: set[str]) -> None:
    """Every derived builder on ``tc`` against its oracle."""
    assert_same_twocat(op1(tc), validated_op1(tc))
    assert_same_twocat(
        full_sub_on_zero_cells(tc, objs), validated_full_sub_on_zero_cells(tc, objs)
    )
    closed = sigma_closure(SigmaClass(tc, frozenset(members))).members
    assert_same_twocat(
        full_sub_on_one_cells(tc, closed), validated_full_sub_on_one_cells(tc, closed)
    )


# ---------------------------------------------------------------------------
# Generated inputs


@settings(max_examples=60, deadline=None)
@given(st.one_of(posets(), preorders(), transformation_monoids()), st.data())
def test_derived_twocats_match_validated_builders(cat, data):
    tc = locally_discrete(cat)
    assert_same_twocat(tc, validated_locally_discrete(cat))
    objs = data.draw(st.lists(st.sampled_from(tc.cells0), min_size=1, max_size=3))
    members = data.draw(st.sets(st.sampled_from(tc.one_cells), max_size=4))
    check_derived(tc, objs, members)
    check_derived(op1(tc), objs, members)


@settings(max_examples=150, deadline=None)
@given(st.one_of(posets(), preorders(), transformation_monoids()), st.data())
def test_indexed_closure_check_matches_all_pairs_scan(cat, data):
    tc = locally_discrete(cat)
    kept = data.draw(st.sets(st.sampled_from(tc.one_cells)))
    if data.draw(st.booleans()):
        kept |= set(tc.unit.values())
    try:
        full_sub_on_one_cells(tc, kept)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == all_pairs_closed(tc, kept)


SHARED = ("objects", "dom", "cod", "identity", "table", "_iso_cache")


def check_shared_homs(tc: TwoCat, members) -> None:
    """``full_sub_on_one_cells`` shares the tables of every hom it keeps whole,
    and the searches run on the sub-2-category write nothing through them."""
    before = describe_twocat(tc)
    closed = sigma_closure(SigmaClass(tc, frozenset(members)))
    sub = full_sub_on_one_cells(tc, closed.members)
    for key, cat in sub.hom.items():
        whole = tc.hom[key]
        shared = [f for f in SHARED if getattr(cat, f) is getattr(whole, f)]
        assert shared == (list(SHARED) if cat.objects == whole.objects else []), key
    check_bifiltered(sub)
    check_sigma_cofinal(inclusion_twofunctor(sub, tc), all_one_cells(sub), closed)
    assert describe_twocat(tc) == before


@settings(max_examples=60, deadline=None)
@given(st.one_of(posets(), preorders(), transformation_monoids()), st.data())
def test_class_subcategory_shares_the_homs_it_keeps_whole(cat, data):
    tc = locally_discrete(cat)
    check_shared_homs(tc, data.draw(st.sets(st.sampled_from(tc.one_cells), max_size=4)))


# ---------------------------------------------------------------------------
# The bundled corpus


@pytest.mark.parametrize("path", corpus_fixtures("twocat"), ids=lambda p: p.name)
def test_corpus_class_subcategories_share_the_homs_they_keep_whole(path):
    fx = load_fixture(path)
    assert isinstance(fx, TwoCatFixture)
    for sigma in [fx.sigma[name] for name in sorted(fx.sigma)] + [all_one_cells(fx.twocat)]:
        check_shared_homs(fx.twocat, sigma.members)


@pytest.mark.parametrize("path", corpus_fixtures("twocat"), ids=lambda p: p.name)
def test_corpus_derived_twocats_match_validated_builders(path):
    fx = load_fixture(path)
    assert isinstance(fx, TwoCatFixture)
    tc = fx.twocat
    for dual in (tc, op1(tc)):
        assert_same_twocat(op1(dual), validated_op1(dual))
        for size in (1, 2):
            for objs in itertools.combinations(dual.cells0, size):
                assert_same_twocat(
                    full_sub_on_zero_cells(dual, objs),
                    validated_full_sub_on_zero_cells(dual, objs),
                )
    for name, sigma in sorted(fx.sigma.items()):
        closed = sigma_closure(sigma).members
        assert_same_twocat(
            full_sub_on_one_cells(tc, closed, name=f"{tc.name}|{name}"),
            validated_full_sub_on_one_cells(tc, closed, name=f"{tc.name}|{name}"),
        )


@pytest.mark.parametrize("path", corpus_fixtures("fincat"), ids=lambda p: p.name)
def test_corpus_categories_locally_discrete_match(path):
    fx = load_fixture(path)
    assert isinstance(fx, ProbeFixture)
    assert_same_twocat(locally_discrete(fx.category), validated_locally_discrete(fx.category))


# ---------------------------------------------------------------------------
# Guard: derived builders do not replay the axioms; the trust boundary does


def refuse_replay(*args):
    raise AssertionError("axioms replayed on a derived 2-category")


def random_poset(rng: random.Random, size: int) -> FinCat:
    names = [f"p{k:02d}" for k in range(size)]
    relation = [(x, y) for x, y in itertools.combinations(names, 2) if rng.random() < 0.3]
    return zoo.poset("R", relation + [(x, x) for x in names])


def test_derived_twocats_skip_axiom_replay(monkeypatch):
    rng = random.Random(10)
    posets = [random_poset(rng, 8) for _ in range(4)]
    checks = (fincat.fincat_violations, twocat.twocat_violations)
    patched = 0
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "bicolim" and not module_name.startswith("bicolim."):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is check for check in checks):
                monkeypatch.setattr(module, attr, refuse_replay)
                patched += 1
    assert patched >= 2
    for poset in posets:
        tc = locally_discrete(poset)
        members = frozenset(rng.sample(tc.one_cells, 5))
        report = trivialization_check(tc, SigmaClass(tc, members))
        assert report.agree
        op1(tc)
        full_sub_on_zero_cells(tc, tc.cells0[:3])
    # the trust boundary still runs the checks ...
    doc = describe_twocat(locally_discrete(posets[0]))
    with pytest.raises(AssertionError, match="replayed"):
        validate_twocat(doc)
    # ... and rejects a corrupted document with them
    monkeypatch.undo()
    assert validate_twocat(doc).hcomp1
    doc["hcomp1"] = doc["hcomp1"][1:]
    with pytest.raises(ValidationError, match="missing"):
        validate_twocat(doc)
