from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_associativity import posets, preorders, transformation_monoids

import bicolim
from bicolim import zoo
from bicolim.fincat import (
    NotInvertibleError,
    SizeGuardError,
    ValidationError,
    build_fincat,
    check_equivalence,
    compose_functors,
    enumerate_functors,
    functor_category,
    identity_functor,
    nattrans_violations,
    skeleton,
    validate_fincat,
    vcompose_nattrans,
)


def brute_force_isos(cat):
    """Oracle: all isomorphisms found by scanning the table for 2-sided inverses."""
    isos = []
    for m in cat.morphisms:
        for n in cat.hom(cat.cod[m], cat.dom[m]):
            if (
                cat.table[(n, m)] == cat.identity[cat.dom[m]]
                and cat.table[(m, n)] == cat.identity[cat.cod[m]]
            ):
                isos.append(m)
                break
    return isos


def test_terminal_is_valid():
    cat = zoo.terminal()
    assert cat.objects == ("*",)
    assert cat.morphisms == ("id",)


def test_missing_composite_is_rejected():
    with pytest.raises(ValidationError) as err:
        build_fincat(
            "broken",
            ["a", "b", "c"],
            [
                ("id_a", "a", "a"),
                ("id_b", "b", "b"),
                ("id_c", "c", "c"),
                ("f", "a", "b"),
                ("g", "b", "c"),
            ],
            {"a": "id_a", "b": "id_b", "c": "id_c"},
            {
                ("id_a", "id_a"): "id_a",
                ("id_b", "id_b"): "id_b",
                ("id_c", "id_c"): "id_c",
                ("f", "id_a"): "f",
                ("id_b", "f"): "f",
                ("g", "id_b"): "g",
                ("id_c", "g"): "g",
                # (g, f) deliberately missing
            },
        )
    assert any("composition not total" in v for v in err.value.violations)


def test_walking_iso_is_valid_and_isos_detected():
    cat = zoo.walking_iso()
    # oracle first: scan for two-sided inverses directly
    assert sorted(brute_force_isos(cat)) == ["id_x", "id_y", "u", "u_inv"]
    assert cat.is_iso("u") and cat.inverse("u") == "u_inv"


def test_associativity_violation_reported():
    # three composable endos with a twisted table
    with pytest.raises(ValidationError) as err:
        build_fincat(
            "nonassoc",
            ["x"],
            [("id", "x", "x"), ("e", "x", "x"), ("w", "x", "x")],
            {"x": "id"},
            {
                ("id", "id"): "id",
                ("id", "e"): "e",
                ("e", "id"): "e",
                ("id", "w"): "w",
                ("w", "id"): "w",
                ("e", "e"): "w",
                ("e", "w"): "w",
                ("w", "e"): "e",
                ("w", "w"): "w",
            },
        )
    assert any("associativity" in v for v in err.value.violations)


def test_validate_fincat_from_document():
    doc = {
        "objects": ["*"],
        "morphisms": [{"name": "id", "dom": "*", "cod": "*"}],
        "identities": {"*": "id"},
        "composition": [["id", "id", "id"]],
    }
    cat = validate_fincat(doc, "pt")
    assert cat.objects == ("*",)


# -- skeleton ----------------------------------------------------------------


def test_skeleton_of_walking_iso_is_terminal():
    sk = skeleton(zoo.walking_iso())
    assert len(sk.category.objects) == 1
    assert len(sk.category.morphisms) == 1


def test_skeleton_of_discrete_two_is_itself():
    cat = zoo.discrete(["a", "b"])
    sk = skeleton(cat)
    assert sk.category.objects == cat.objects
    assert sk.category.morphisms == cat.morphisms


def test_skeleton_of_parallel_pair_is_itself():
    cat = zoo.parallel_pair()
    # oracle: enumerate isomorphisms; there are none between a and b
    assert all(cat.is_identity(m) for m in brute_force_isos(cat))
    sk = skeleton(cat)
    assert sk.category.objects == cat.objects
    assert len(sk.category.morphisms) == len(cat.morphisms)


def test_skeleton_idempotent_up_to_iso():
    for cat in (zoo.walking_iso(), zoo.parallel_pair(), zoo.chain(3)):
        once = skeleton(cat).category
        twice = skeleton(once).category
        assert len(once.objects) == len(twice.objects)
        assert len(once.morphisms) == len(twice.morphisms)


def test_skeleton_functors_form_equivalence():
    cat = zoo.walking_iso()
    sk = skeleton(cat)
    roundtrip = compose_functors(sk.retraction, sk.inclusion)
    ident = identity_functor(sk.category)
    assert roundtrip.obj_map == ident.obj_map
    assert roundtrip.mor_map == ident.mor_map


# -- equivalence -------------------------------------------------------------


def test_equivalence_reflexive_with_identity_witnesses():
    for cat in (zoo.terminal(), zoo.walking_arrow(), zoo.parallel_pair()):
        verdict = check_equivalence(cat, cat)
        assert verdict
        w = verdict.witnesses[0]
        assert not nattrans_violations(w["unit"])
        assert not nattrans_violations(w["counit"])
        assert w["unit"].is_invertible() and w["counit"].is_invertible()


def test_walking_iso_equivalent_to_terminal():
    verdict = check_equivalence(zoo.walking_iso(), zoo.terminal())
    assert verdict
    fwd = verdict.witnesses[0]["forward"]
    assert set(fwd.obj_map.values()) == {"*"}


def test_discrete_sizes_not_equivalent():
    verdict = check_equivalence(zoo.discrete(["a", "b"]), zoo.terminal())
    assert not verdict
    assert verdict.counterexample["reason"] == "object-class count mismatch"
    assert verdict.counterexample["left_classes"] == 2
    assert verdict.counterexample["right_classes"] == 1


def test_arrow_vs_parallel_not_equivalent():
    verdict = check_equivalence(zoo.walking_arrow(), zoo.parallel_pair())
    assert not verdict


def test_equivalence_is_symmetric_in_verdict():
    pairs = [
        (zoo.walking_iso(), zoo.terminal()),
        (zoo.discrete(["a", "b"]), zoo.terminal()),
        (zoo.chain(3), zoo.chain(3)),
        (zoo.walking_arrow(), zoo.chain(2)),
    ]
    for c, d in pairs:
        assert check_equivalence(c, d).outcome == check_equivalence(d, c).outcome


def test_equivalence_transitivity_by_composing_witnesses():
    a, b, c = zoo.walking_iso(), zoo.terminal(), zoo.walking_iso()
    ab = check_equivalence(a, b).witnesses[0]
    bc = check_equivalence(b, c).witnesses[0]
    ac = compose_functors(bc["forward"], ab["forward"])
    # the composite witness must underlie a positive verdict for (a, c)
    assert check_equivalence(a, c)
    assert ac.obj_map.keys() == set(a.objects)


# -- functor categories ------------------------------------------------------


def test_functor_category_from_point_is_equivalent_to_target():
    d = zoo.walking_arrow()
    fc = functor_category(zoo.terminal(), d)
    assert check_equivalence(fc.category, d)


def test_functor_category_arrow_to_terminal_is_terminal():
    fc = functor_category(zoo.walking_arrow(), zoo.terminal())
    assert check_equivalence(fc.category, zoo.terminal())


def test_functor_category_discrete2_discrete2():
    # oracle: there are exactly 2^2 object assignments and no non-identity
    # arrows in the target, so 4 functors and only identity transformations.
    d2 = zoo.discrete(["a", "b"])
    expected_functors = len(list(itertools.product(d2.objects, repeat=2)))
    fc = functor_category(d2, d2)
    assert len(fc.category.objects) == expected_functors == 4
    assert all(fc.category.is_identity(m) for m in fc.category.morphisms)


def test_functor_category_size_guard():
    big = zoo.discrete([f"x{i}" for i in range(8)])
    with pytest.raises(SizeGuardError):
        functor_category(big, big, max_morphisms=1000)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([zoo.terminal(), zoo.walking_arrow(), zoo.parallel_pair()]),
    st.one_of(posets(), preorders(), transformation_monoids()),
    st.data(),
)
def test_enumerate_functors_with_candidates_is_the_filtered_enumeration(c, d, data):
    candidates = {
        x: [y for y in d.objects if data.draw(st.booleans())] for x in c.objects
    }
    want = [
        f.key()
        for f in enumerate_functors(c, d)
        if all(f.obj_map[x] in candidates[x] for x in c.objects)
    ]
    assert [f.key() for f in enumerate_functors(c, d, candidates)] == want


def test_vertical_composition_of_transformations():
    fc = functor_category(zoo.terminal(), zoo.walking_arrow())
    cat = fc.category
    for (g, f), gf in cat.table.items():
        comp = vcompose_nattrans(fc.transformations[g], fc.transformations[f])
        assert comp.components == fc.transformations[gf].components


def test_must_inverse_returns_inverse_or_raises():
    iso = zoo.walking_iso()
    assert iso.must_inverse("u") == "u_inv"
    with pytest.raises(NotInvertibleError, match="'f'"):
        zoo.walking_arrow().must_inverse("f")


def test_invariant_checks_survive_python_O():
    # Validation and must_inverse use explicit raises, not asserts, so they
    # must still fire when the interpreter strips assert statements: at the
    # category, diagram and cocone trust boundaries alike.
    code = textwrap.dedent(
        """
        import sys
        from bicolim import zoo
        from bicolim.fincat import NotInvertibleError, ValidationError, build_fincat

        assert False, "asserts must be stripped under -O"
        table = {
            ("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e",
            ("id", "w"): "w", ("w", "id"): "w", ("e", "e"): "w",
            ("e", "w"): "w", ("w", "e"): "e", ("w", "w"): "w",
        }
        mors = [("id", "x", "x"), ("e", "x", "x"), ("w", "x", "x")]
        try:
            build_fincat("nonassoc", ["x"], mors, {"x": "id"}, table)
            sys.exit("twisted table accepted")
        except ValidationError as err:
            if not any("associativity" in v for v in err.violations):
                sys.exit(f"wrong violations: {err.violations}")
        try:
            zoo.walking_arrow().must_inverse("f")
            sys.exit("non-invertible morphism inverted")
        except NotInvertibleError:
            pass

        # the trust boundary of diagrams: a unit comparison of g, the
        # involution of bz2, breaks the unit coherence triangle
        from bicolim.fixtures import fincat_doc
        from bicolim.twocat import describe_twocat, terminal_twocat, validate_pseudofunctor, validate_twocat

        index = validate_twocat(describe_twocat(terminal_twocat()))
        doc = {
            "name": "noncoherent",
            "fibers": {".": fincat_doc(zoo.bz2())},
            "on1": {"one": {"objects": {"o": "o"}, "morphisms": {"one": "one", "g": "g"}}},
            "on2": {"v_one": {"components": {"o": "one"}}},
            "comparisons": {
                "comp": {"one|one": {"components": {"o": "one"}}},
                "unit": {".": {"components": {"o": "g"}}},
            },
        }
        try:
            validate_pseudofunctor(doc, index)
            sys.exit("non-coherent diagram accepted")
        except ValidationError as err:
            if not any("unit coherence" in v for v in err.violations):
                sys.exit(f"wrong violations: {err.violations}")

        # the trust boundary of factorization: a transition of g is natural
        # and invertible, but breaks unit compatibility
        from bicolim.colim import bifiltered_bicolimit, factor_cocone
        from bicolim.fincat import NatTrans, compose_functors
        from bicolim.twocat import constant_pseudofunctor

        pf = constant_pseudofunctor(index, zoo.bz2())
        colim = bifiltered_bicolimit(pf)
        leg = colim.cocone["."]
        bad = NatTrans("bad", compose_functors(leg, pf.on1["one"]), leg, {"o": leg.mor_map["g"]})
        try:
            factor_cocone(colim, colim.result, {".": leg}, {"one": bad})
            sys.exit("invalid cocone factored")
        except ValidationError as err:
            if not any("unit compatibility" in v for v in err.violations):
                sys.exit(f"wrong violations: {err.violations}")

        # derived names: the pairs (x, y.z) and (x.y, z) both spell x.y.z
        from bicolim.twocat import locally_discrete

        chain = locally_discrete(zoo.poset("I", [("x", "x.y")]))
        try:
            bifiltered_bicolimit(constant_pseudofunctor(chain, zoo.discrete(["z", "y.z"])))
            sys.exit("colliding colimit objects accepted")
        except ValidationError as err:
            if err.violations != ["repeated object name 'x.y.z'"]:
                sys.exit(f"wrong violations: {err.violations}")
        print("ok")
        """
    )
    src = str(Path(bicolim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == "ok"
