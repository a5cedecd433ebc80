"""Differential and guard tests for sparse 2-categories.

A ``TwoCat`` stores only its nonempty homs; an absent pair answers a lookup
with an empty category.  The witness searches walk ``TwoCat.out_of``, the
1-cells out of each 0-cell by target, instead of scanning every 0-cell.
``inclusion_twofunctor`` assembles its functor without a replay, and
``sigma_closure`` returns a class of every 1-cell without the worklist.

The functions below that start with ``dense_``, ``scanning_`` and
``validated_`` are those builders and searches as they were when every
hom was stored and every search scanned all 0-cells; they are the oracles.
Verdicts, witnesses included, must be equal on generated categories and on
every corpus 2-category with each of its named classes.
"""

from __future__ import annotations

import itertools
import random
import sys
from typing import Any, Iterable, Mapping
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from support import corpus_fixtures
from test_associativity import posets, preorders, transformation_monoids
from test_derived_twocats import assert_same_twocat

from bicolim import filtered, twocat, zoo
from bicolim.fincat import FinCat, ValidationError
from bicolim.filtered import (
    check_bifiltered,
    check_sigma_cofinal,
    check_sigma_filtered,
    class_subcategory,
    trivialization_check,
)
from bicolim.fixtures import MapFixture, TwoCatFixture, load_fixture
from bicolim.twocat import (
    Homs,
    SigmaClass,
    TwoCat,
    TwoFunctor,
    all_one_cells,
    build_twofunctor,
    full_sub_on_one_cells,
    full_sub_on_zero_cells,
    inclusion_twofunctor,
    locally_discrete,
    sigma_closure,
    terminal_twocat,
)
from bicolim.verdict import Verdict, negative, positive



# ---------------------------------------------------------------------------
# The builders as they were, storing a hom for every pair of 0-cells


def dense_assemble_twocat(
    name: str,
    cells0: Iterable[str],
    hom: Mapping[tuple[str, str], FinCat],
    hcomp1: Mapping[tuple[str, str], str],
    hcomp2: Mapping[tuple[str, str], str],
    unit: Mapping[str, str],
) -> TwoCat:
    """A TwoCat on the given tables, unchecked; absent homs are empty."""
    zero = tuple(sorted(set(cells0)))
    full_hom = dict(hom)
    for i in zero:
        for j in zero:
            if (i, j) not in full_hom:
                full_hom[(i, j)] = FinCat(f"{name}[{i},{j}]", (), {}, {}, {}, {})
    return TwoCat(name, zero, full_hom, dict(hcomp1), dict(hcomp2), dict(unit))


def dense_locally_discrete(cat: FinCat, name: str | None = None) -> TwoCat:
    """The 2-category with only identity 2-cells over a finite category."""
    hom: dict[tuple[str, str], FinCat] = {}
    for i in cat.objects:
        for j in cat.objects:
            cells = cat.hom(i, j)
            ids = {m: f"v_{m}" for m in cells}
            hom[(i, j)] = FinCat(
                f"{cat.name}[{i},{j}]",
                cells,
                {v: m for m, v in ids.items()},
                {v: m for m, v in ids.items()},
                ids,
                {(v, v): v for v in ids.values()},
            )
    hcomp2 = {
        (f"v_{g}", f"v_{f}"): f"v_{gf}" for (g, f), gf in cat.table.items()
    }
    return dense_assemble_twocat(
        name or f"ld({cat.name})",
        cat.objects,
        hom,
        cat.table,
        hcomp2,
        cat.identity,
    )


def dense_full_sub_on_one_cells(tc: TwoCat, keep: Iterable[str], name: str | None = None) -> TwoCat:
    """Full-on-0-cells-and-2-cells subcategory with the given 1-cells."""
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
    return dense_assemble_twocat(
        name or f"{tc.name}|sigma",
        tc.cells0,
        hom,
        {k: v for k, v in tc.hcomp1.items() if k[0] in kept and k[1] in kept},
        {k: v for k, v in tc.hcomp2.items() if k[0] in kept2 and k[1] in kept2},
        tc.unit,
    )


def validated_inclusion_twofunctor(sub: TwoCat, whole: TwoCat, name: str | None = None) -> TwoFunctor:
    return build_twofunctor(
        name or f"incl({sub.name})",
        sub,
        whole,
        {i: i for i in sub.cells0},
        {f: f for f in sub.one_home},
        {a: a for a in sub.two_home},
    )


def worklist_sigma_closure(s: SigmaClass) -> SigmaClass:
    """``sigma_closure`` without the fast return of the all-1-cells class."""
    if s.closed:
        return s
    out = SigmaClass(s.owner, twocat._closure_worklist(s.owner, s.members), f"{s.name}~")
    out.closed = True
    return out


# ---------------------------------------------------------------------------
# The searches as they were, scanning every 0-cell


def scanning_find_span(tc: TwoCat, i: str, i2: str, allowed: frozenset[str] | None) -> tuple[str, str, str] | None:
    for j in sorted(tc.cells0):
        for s in tc.cells1(i, j):
            if allowed is not None and s not in allowed:
                continue
            for s2 in tc.cells1(i2, j):
                if allowed is not None and s2 not in allowed:
                    continue
                return j, s, s2
    return None


def scanning_find_insertion(
    tc: TwoCat, d: str, s: str, allowed: frozenset[str] | None, invertible: bool
) -> tuple[str, str] | None:
    """A 1-cell t (restricted to ``allowed``) and a 2-cell t∘d ⇒ t∘s."""
    j = tc.one_home[d][1]
    for k in sorted(tc.cells0):
        for t in tc.cells1(j, k):
            if allowed is not None and t not in allowed:
                continue
            td, ts = tc.hcomp1[(t, d)], tc.hcomp1[(t, s)]
            cat = tc.hom[(tc.one_home[d][0], k)]
            for cell in cat.hom(td, ts):
                if invertible and not cat.is_iso(cell):
                    continue
                return t, cell
    return None


def scanning_find_equifier(
    tc: TwoCat, a: str, a2: str, allowed: frozenset[str] | None
) -> str | None:
    d = tc.dom2(a)
    j = tc.one_home[d][1]
    for k in sorted(tc.cells0):
        for f in tc.cells1(j, k):
            if allowed is not None and f not in allowed:
                continue
            if tc.whisker_l(f, a) == tc.whisker_l(f, a2):
                return f
    return None


def scanning_check_sigma_cofinal(fn: TwoFunctor, sigma: SigmaClass, sigma_target: SigmaClass) -> Verdict:
    """The three cofinality conditions for a strict 2-functor."""
    src, tgt = fn.source, fn.target
    s_cls = worklist_sigma_closure(sigma).members
    t_cls = worklist_sigma_closure(sigma_target).members
    witnesses: list[dict[str, Any]] = []

    for j in sorted(tgt.cells0):
        found = None
        for i in sorted(src.cells0):
            for s in tgt.cells1(j, fn.on0[i]):
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
        for i2 in sorted(src.cells0):
            for s in src.cells1(i, i2):
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
        for i in sorted(src.cells0):
            cells = tgt.cells1(j, fn.on0[i])
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
        for i in sorted(src.cells0):
            cat = tgt.hom.get((j, fn.on0[i]))
            if cat is None:
                continue
            for a, a2 in itertools.combinations_with_replacement(cat.morphisms, 2):
                if cat.dom[a] != cat.dom[a2] or cat.cod[a] != cat.cod[a2]:
                    continue
                if cat.cod[a] not in t_cls:
                    continue
                found = None
                for i2 in sorted(src.cells0):
                    for s in src.cells1(i, i2):
                        if s not in s_cls:
                            continue
                        fs = fn.on1[s]
                        if tgt.whisker_l(fs, a) == tgt.whisker_l(fs, a2):
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


def old_paths():
    """Run ``filtered`` on the oracles above: dense class subcategories,
    validated inclusions, worklist closures and scanning searches."""
    return mock.patch.multiple(
        filtered,
        _find_span=scanning_find_span,
        _find_insertion=scanning_find_insertion,
        _find_equifier=scanning_find_equifier,
        check_sigma_cofinal=scanning_check_sigma_cofinal,
        full_sub_on_one_cells=dense_full_sub_on_one_cells,
        inclusion_twofunctor=validated_inclusion_twofunctor,
        sigma_closure=worklist_sigma_closure,
    )


def dense_copy(tc: TwoCat) -> TwoCat:
    """``tc`` with a hom stored for every pair of 0-cells."""
    return dense_assemble_twocat(tc.name, tc.cells0, tc.hom, tc.hcomp1, tc.hcomp2, tc.unit)


# ---------------------------------------------------------------------------
# Comparison


def assert_same_checks(tc: TwoCat, dense: TwoCat, members: frozenset[str], name: str = "sigma") -> None:
    """Every check on the sparse ``tc`` against the old paths on ``dense``."""
    sigma = SigmaClass(tc, members, name)
    got = [
        check_bifiltered(tc),
        check_sigma_filtered(tc, sigma),
        trivialization_check(tc, sigma),
    ]
    closed = sigma_closure(sigma)
    sub = class_subcategory(tc, closed)
    got.append(check_sigma_cofinal(inclusion_twofunctor(sub, tc), all_one_cells(sub), closed))
    old_sigma = SigmaClass(dense, members, name)
    with old_paths():
        want = [
            filtered.check_bifiltered(dense),
            filtered.check_sigma_filtered(dense, old_sigma),
            filtered.trivialization_check(dense, old_sigma),
        ]
        old_closed = filtered.sigma_closure(old_sigma)
        old_sub = filtered.class_subcategory(dense, old_closed)
        old_inc = filtered.inclusion_twofunctor(old_sub, dense)
        want.append(filtered.check_sigma_cofinal(old_inc, all_one_cells(old_sub), old_closed))
    assert_same_twocat(sub, old_sub)
    for g, w in zip(got, want):
        assert g.to_dict() == w.to_dict()


def assert_same_cofinality(fn: TwoFunctor, members: frozenset[str], members_target: frozenset[str]) -> None:
    """``check_sigma_cofinal`` on ``fn`` against the scan on dense copies."""
    got = check_sigma_cofinal(
        fn, SigmaClass(fn.source, members), SigmaClass(fn.target, members_target)
    )
    src, tgt = dense_copy(fn.source), dense_copy(fn.target)
    dense_fn = TwoFunctor(fn.name, src, tgt, fn.on0, fn.on1, fn.on2)
    want = scanning_check_sigma_cofinal(
        dense_fn, SigmaClass(src, members), SigmaClass(tgt, members_target)
    )
    assert got.to_dict() == want.to_dict()


def point_at(tc: TwoCat, i: str) -> TwoFunctor:
    """The 2-functor from the terminal 2-category picking out the 0-cell i."""
    unit = tc.unit[i]
    return build_twofunctor(
        f"at({i})", terminal_twocat(), tc, {".": i}, {"one": unit}, {"v_one": tc.id2(unit)}
    )


def from_reversed(tc: TwoCat) -> TwoFunctor:
    """An isomorphism onto ``tc`` from a copy whose 0-cells are renamed in
    reverse order, so that the map on 0-cells reverses their order."""
    new = {i: f"r{len(tc.cells0) - n:03d}" for n, i in enumerate(tc.cells0)}
    copy = twocat._assemble_twocat(
        f"rev({tc.name})",
        new.values(),
        {(new[i], new[j]): cat for (i, j), cat in tc.hom.items()},
        tc.hcomp1,
        tc.hcomp2,
        {new[i]: f for i, f in tc.unit.items()},
    )
    return build_twofunctor(
        "rev",
        copy,
        tc,
        {n: i for i, n in new.items()},
        {f: f for f in tc.one_home},
        {a: a for a in tc.two_home},
    )


def collapse(tc: TwoCat) -> TwoFunctor:
    """The 2-functor onto the terminal 2-category."""
    return build_twofunctor(
        "!",
        tc,
        terminal_twocat(),
        {i: "." for i in tc.cells0},
        {f: "one" for f in tc.one_home},
        {a: "v_one" for a in tc.two_home},
    )


def assert_closure_fast_path(tc: TwoCat) -> None:
    every = all_one_cells(tc)
    fast = sigma_closure(every)
    slow = worklist_sigma_closure(every)
    assert fast.closed and slow.closed
    assert (fast.members, fast.name) == (slow.members, slow.name) == (every.members, "all~")


# ---------------------------------------------------------------------------
# Generated inputs


categories = st.one_of(posets(), preorders(), transformation_monoids())


@settings(max_examples=80, deadline=None)
@given(categories, st.data())
def test_checks_match_scanning_searches(cat, data):
    tc = locally_discrete(cat)
    dense = dense_locally_discrete(cat)
    assert_same_twocat(tc, dense)
    members = frozenset(data.draw(st.sets(st.sampled_from(tc.one_cells), max_size=4)))
    assert_same_checks(tc, dense, members)
    assert_same_checks(tc, dense, frozenset(tc.one_home), "all")


@settings(max_examples=60, deadline=None)
@given(categories, st.data())
def test_cofinality_of_other_twofunctors_matches_scan(cat, data):
    tc = locally_discrete(cat)
    members = frozenset(data.draw(st.sets(st.sampled_from(tc.one_cells), max_size=4)))
    objs = data.draw(st.lists(st.sampled_from(tc.cells0), min_size=1, max_size=3))
    sub0 = full_sub_on_zero_cells(tc, objs)
    sub_members = frozenset(f for f in members if f in sub0.one_home)
    assert_same_cofinality(inclusion_twofunctor(sub0, tc), sub_members, members)
    assert_same_cofinality(collapse(tc), members, frozenset())
    assert_same_cofinality(from_reversed(tc), members, members)
    i = data.draw(st.sampled_from(tc.cells0))
    assert_same_cofinality(point_at(tc, i), frozenset(), members)


@settings(max_examples=60, deadline=None)
@given(categories, st.data())
def test_builders_match_dense_builders(cat, data):
    tc = locally_discrete(cat)
    dense = dense_locally_discrete(cat)
    assert_same_twocat(tc, dense)
    members = frozenset(data.draw(st.sets(st.sampled_from(tc.one_cells), max_size=4)))
    closed = sigma_closure(SigmaClass(tc, members)).members
    assert_same_twocat(full_sub_on_one_cells(tc, closed), dense_full_sub_on_one_cells(dense, closed))
    assert_same_twocat(
        twocat._assemble_twocat(tc.name, tc.cells0, tc.hom, tc.hcomp1, tc.hcomp2, tc.unit),
        dense_copy(tc),
    )


@settings(max_examples=60, deadline=None)
@given(categories)
def test_closure_of_every_one_cell_matches_worklist(cat):
    assert_closure_fast_path(locally_discrete(cat))


# ---------------------------------------------------------------------------
# The bundled corpus


@pytest.mark.parametrize("path", corpus_fixtures("twocat"), ids=lambda p: p.name)
def test_corpus_checks_match_scanning_searches(path):
    fx = load_fixture(path)
    assert isinstance(fx, TwoCatFixture)
    tc = fx.twocat
    dense = dense_copy(tc)
    assert_same_twocat(tc, dense)
    classes = {"all": frozenset(tc.one_home)}
    classes.update((name, sigma.members) for name, sigma in fx.sigma.items())
    for name, members in sorted(classes.items()):
        assert_same_checks(tc, dense, members, name)
        closed = sigma_closure(SigmaClass(tc, members)).members
        assert_same_twocat(
            full_sub_on_one_cells(tc, closed), dense_full_sub_on_one_cells(dense, closed)
        )
    assert_closure_fast_path(tc)


@pytest.mark.parametrize("path", corpus_fixtures("map"), ids=lambda p: p.name)
def test_corpus_cofinality_matches_scan(path):
    fx = load_fixture(path)
    assert isinstance(fx, MapFixture)
    assert_same_cofinality(
        fx.functor,
        fx.source.sigma_named(fx.sigma_source).members,
        fx.target.sigma_named(fx.sigma_target).members,
    )


# ---------------------------------------------------------------------------
# Absent homs


def test_absent_homs_answer_with_named_empty_categories():
    tc = locally_discrete(zoo.chain(3))
    assert ("1", "0") not in tc.hom
    empty = tc.hom[("1", "0")]
    assert empty is tc.hom[("1", "0")]
    assert (empty.name, empty.objects) == ("chain3[1,0]", ())
    assert tc.cells1("1", "0") == ()
    assert tc.out_of["1"] == {"1": ("le_1_1",), "2": ("le_1_2",)}
    with pytest.raises(KeyError):
        tc.hom[("1", "nope")]
    # op1 answers with the source's empty hom, the sub-2-category on 1-cells
    # with the source's name and a bar, the one on 0-cells with the source's
    dual = twocat.op1(tc)
    assert dual.hom[("0", "1")] is empty
    keep = [f for f in tc.one_home if f != "le_0_1" and f != "le_0_2"]
    sub = full_sub_on_one_cells(tc, keep)
    assert ("0", "1") not in sub.hom and sub.hom[("0", "1")].name == "chain3[0,1]|"
    assert sub.hom[("1", "0")].name == "chain3[1,0]|"
    assert full_sub_on_zero_cells(tc, ["0", "1"]).hom[("1", "0")] is empty


def random_poset(rng: random.Random, size: int, top: bool) -> FinCat:
    names = [f"p{k:02d}" for k in range(size)]
    relation = [(x, y) for x, y in itertools.combinations(names, 2) if rng.random() < 0.2]
    if top:
        relation += [(x, names[-1]) for x in names[:-1]]
    return zoo.poset("R", relation + [(x, x) for x in names])


def test_checks_look_up_no_absent_hom(monkeypatch):
    misses: list[tuple[str, str]] = []
    missing = Homs.__missing__

    def counting_missing(self, key):
        misses.append(key)
        return missing(self, key)

    def counting_get(self, key, default=None):
        if key not in self:
            misses.append(key)
        return dict.get(self, key, default)

    monkeypatch.setattr(Homs, "__missing__", counting_missing)
    monkeypatch.setattr(Homs, "get", counting_get, raising=False)
    rng = random.Random(12)
    outcomes = set()
    for top in (True, False, True, False):
        tc = locally_discrete(random_poset(rng, 24, top))
        sigma = SigmaClass(tc, frozenset(rng.sample(tc.one_cells, 8)))
        bif = check_bifiltered(tc)
        sig = check_sigma_filtered(tc, sigma)
        triv = trivialization_check(tc, sigma)
        assert triv.agree
        outcomes.add((bif.outcome, sig.outcome))
    assert misses == []
    # both verdicts of each check are reached
    assert {True, False} <= {o for pair in outcomes for o in pair}
    # the counters see lookups of absent homs
    tc.hom[(tc.cells0[-1], tc.cells0[0])]
    tc.cells1(tc.cells0[-1], tc.cells0[0])
    assert len(misses) == 2


# ---------------------------------------------------------------------------
# Guard: the inclusion of a sub-2-category is assembled without a replay


def refuse_replay(*args):
    raise AssertionError("2-functor axioms replayed on an inclusion")


def test_inclusion_twofunctor_skips_validation(monkeypatch):
    rng = random.Random(7)
    cats = [random_poset(rng, 8, top) for top in (True, False)]
    cats.append(zoo.bz2())
    patched = 0
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "bicolim" and not module_name.startswith("bicolim."):
            continue
        for attr, value in list(vars(module).items()):
            if value is twocat.twofunctor_violations:
                monkeypatch.setattr(module, attr, refuse_replay)
                patched += 1
    assert patched >= 1
    built = []
    for cat in cats:
        tc = locally_discrete(cat)
        sigma = SigmaClass(tc, frozenset(rng.sample(tc.one_cells, min(3, len(tc.one_cells)))))
        assert trivialization_check(tc, sigma).agree
        for sub in (class_subcategory(tc, sigma), full_sub_on_zero_cells(tc, tc.cells0[:3])):
            built.append((inclusion_twofunctor(sub, tc), sub, tc))
    # the validating form still reaches the check
    with pytest.raises(AssertionError, match="replayed"):
        validated_inclusion_twofunctor(built[0][1], built[0][2])
    monkeypatch.undo()
    for got, sub, tc in built:
        want = validated_inclusion_twofunctor(sub, tc)
        assert twocat.twofunctor_violations(got) == []
        assert (got.name, got.source, got.target) == (want.name, want.source, want.target)
        for field in ("on0", "on1", "on2"):
            assert list(getattr(got, field).items()) == list(getattr(want, field).items())
    # the trust boundary still rejects a map that is not a 2-functor
    tc = locally_discrete(cats[0])
    with pytest.raises(ValidationError):
        build_twofunctor("broken", tc, tc, {i: i for i in tc.cells0}, {}, {})


# ---------------------------------------------------------------------------
# A class keeps its closure


def test_a_class_is_closed_once_across_checks(monkeypatch):
    # check_sigma_filtered, then trivialization_check, on one class that is
    # not closed: the worklist runs once per class
    calls: list[frozenset[str]] = []
    worklist = twocat._closure_worklist

    def counting_worklist(tc, members):
        calls.append(frozenset(members))
        return worklist(tc, members)

    monkeypatch.setattr(twocat, "_closure_worklist", counting_worklist)
    rng = random.Random(7)
    classes = []
    for k in range(24):
        tc = locally_discrete(random_poset(rng, 8, top=k % 2 == 0))
        sigma = SigmaClass(tc, frozenset(rng.sample(tc.one_cells, 6)), f"s{k}")
        check_sigma_filtered(tc, sigma)
        trivialization_check(tc, sigma)
        classes.append(sigma)
    assert len(calls) == 24
    assert calls == [sigma.members for sigma in classes]
    monkeypatch.undo()
    for sigma in classes:
        got = sigma_closure(sigma)
        want = worklist_sigma_closure(SigmaClass(sigma.owner, sigma.members, sigma.name))
        assert got.closed and sigma_closure(sigma) is got
        assert (got.members, got.name) == (want.members, want.name)
