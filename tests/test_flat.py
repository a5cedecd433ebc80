from __future__ import annotations

import pytest

from bicolim import corpus, zoo
from bicolim.fincat import ValidationError, check_equivalence
from bicolim.flat import (
    BilimitInstance,
    check_flat,
    check_flat_preserves_bilimits,
    decompose_flat,
    representable_pseudofunctor,
    validate_bilimit_instance,
)
from bicolim.twocat import (
    constant_pseudofunctor,
    pseudofunctor_violations,
    terminal_twocat,
)


REPRESENTABLE_CASES = [
    ("terminal", "."),
    ("poset_bottom", "bot"),
    ("poset_top", "a"),
    ("chain3", "0"),
    ("isohom", "x"),
    ("laxtriangle", "a"),
    ("endoabsorb", "a"),
]


# -- representables -----------------------------------------------------------


def test_representable_on_terminal_base():
    pf = representable_pseudofunctor(terminal_twocat(), ".")
    assert check_equivalence(pf.on0["."], zoo.terminal())


def test_representable_fibers_over_poset():
    tc = corpus.poset_bottom_twocat()
    pf = representable_pseudofunctor(tc, "bot")
    # fiber at j is a point exactly when bot <= j, and bot is the bottom
    for j in tc.cells0:
        assert len(pf.on0[j].objects) == 1


def test_representable_reflects_two_cells():
    tc = zoo.iso_hom_twocat()
    pf = representable_pseudofunctor(tc, "x")
    fiber_y = pf.on0["y"]
    # the 2-cell between the parallel 1-cells appears as a fiber morphism
    assert "w" in fiber_y.dom
    assert fiber_y.is_iso("w")


def test_representables_are_valid_pseudofunctors():
    for base_name, c in REPRESENTABLE_CASES:
        tc = corpus.INDEX_BUILDERS[base_name]()
        pf = representable_pseudofunctor(tc, c)
        assert not pseudofunctor_violations(pf), base_name


# -- flatness -----------------------------------------------------------------


def test_representables_are_flat_on_every_base():
    for base_name, c in REPRESENTABLE_CASES:
        tc = corpus.INDEX_BUILDERS[base_name]()
        pf = representable_pseudofunctor(tc, c)
        assert check_flat(pf), (base_name, c)


def test_constant_at_empty_is_not_flat():
    verdict = check_flat(corpus.nonflat_empty_diagram())
    assert not verdict
    assert verdict.counterexample["reason"] == "empty category of elements"


def test_constant_at_discrete_two_is_not_flat():
    verdict = check_flat(corpus.nonflat_disconnected_diagram())
    assert not verdict
    assert verdict.counterexample["condition"] == "span"


def test_constant_terminal_over_poset_bottom_is_flat():
    assert check_flat(corpus.flat_constant_terminal())


# -- decomposition ------------------------------------------------------------


def test_decompose_representable_reconstructs_pointwise():
    tc = corpus.poset_bottom_twocat()
    pf = representable_pseudofunctor(tc, "bot")
    report = decompose_flat(pf)
    assert report.ok
    for j, stage in report.stages.items():
        assert stage.equivalence, j
        assert stage.direct, j
    assert all(report.natural_on.values())


def test_decompose_flat_constant():
    report = decompose_flat(corpus.flat_constant_terminal())
    assert report.ok


def test_decompose_two_cellular_representable():
    tc = zoo.iso_hom_twocat()
    pf = representable_pseudofunctor(tc, "x")
    report = decompose_flat(pf)
    assert report.ok


def test_decompose_rejects_non_flat():
    with pytest.raises(ValidationError):
        decompose_flat(corpus.nonflat_discrete_diagram()) if hasattr(corpus, "nonflat_discrete_diagram") else decompose_flat(corpus.nonflat_disconnected_diagram())


def test_flat_iff_decomposition_on_fixture_sample():
    # positive side: every flat fixture reconstructs; negative side: the
    # checker rejects before decomposition is attempted
    flats = [
        representable_pseudofunctor(corpus.poset_bottom_twocat(), "bot"),
        corpus.flat_constant_terminal(),
    ]
    for pf in flats:
        assert check_flat(pf)
        assert decompose_flat(pf).ok
    for pf in (corpus.nonflat_empty_diagram(), corpus.nonflat_disconnected_diagram()):
        assert not check_flat(pf)


# -- preservation of finite bilimit instances -----------------------------------


def biproduct_instance():
    return BilimitInstance(
        "biproduct", {"apex": "bot", "left_leg": "le_bot_a", "right_leg": "le_bot_b"}
    )


def test_biproduct_instance_validates():
    tc = corpus.poset_bottom_twocat()
    assert not validate_bilimit_instance(tc, biproduct_instance())


def test_bad_instance_rejected():
    tc = corpus.poset_bottom_twocat()
    # bot is not a product of (a, a): probing from a itself already fails,
    # since nothing maps from a to bot while the product hom is a point
    bad = BilimitInstance(
        "biproduct", {"apex": "bot", "left_leg": "le_bot_a", "right_leg": "le_bot_a"}
    )
    assert validate_bilimit_instance(tc, bad)
    with pytest.raises(ValidationError):
        check_flat_preserves_bilimits(corpus.flat_constant_terminal(), bad)


def test_mistyped_instance_rejected():
    # the probes are assembled unchecked, so the cone is typed first
    wrong_cell = BilimitInstance(
        "arrow_cotensor", {"apex": "y", "dom_leg": "iy", "cod_leg": "iy", "cell": "w"}
    )
    assert validate_bilimit_instance(zoo.iso_hom_twocat(), wrong_cell) == [
        "cone cell has wrong boundary"
    ]
    wrong_apex = BilimitInstance(
        "biproduct", {"apex": "a", "left_leg": "le_bot_a", "right_leg": "le_bot_b"}
    )
    assert validate_bilimit_instance(corpus.poset_bottom_twocat(), wrong_apex) == [
        "cone legs do not start at the apex"
    ]


def test_representable_preserves_biproduct():
    tc = corpus.poset_bottom_twocat()
    pf = representable_pseudofunctor(tc, "bot")
    assert check_flat_preserves_bilimits(pf, biproduct_instance())


def test_flat_constant_preserves_biproduct():
    assert check_flat_preserves_bilimits(corpus.flat_constant_terminal(), biproduct_instance())


def test_nonflat_fails_biproduct_preservation():
    tc = corpus.poset_bottom_twocat()
    pf = constant_pseudofunctor(tc, zoo.discrete(["0", "1"]), name="nonflat_d2")
    assert not check_flat(pf)
    verdict = check_flat_preserves_bilimits(pf, biproduct_instance())
    assert not verdict


def test_biequalizer_instance_preserved():
    tc = corpus.poset_bottom_twocat()
    inst = BilimitInstance(
        "biequalizer",
        {
            "apex": "bot",
            "leg": "le_bot_bot",
            "left": "le_bot_a",
            "right": "le_bot_a",
            "cell": "v_le_bot_a",
        },
    )
    assert not validate_bilimit_instance(tc, inst)
    pf = representable_pseudofunctor(tc, "bot")
    assert check_flat_preserves_bilimits(pf, inst)


def test_cotensor_instance_preserved_on_two_cellular_base():
    tc = zoo.iso_hom_twocat()
    inst = BilimitInstance(
        "arrow_cotensor",
        {"apex": "y", "dom_leg": "iy", "cod_leg": "iy", "cell": "v_iy"},
    )
    assert not validate_bilimit_instance(tc, inst)
    pf = representable_pseudofunctor(tc, "x")
    assert check_flat_preserves_bilimits(pf, inst)


def test_terminal_like_cell_sent_to_terminal_category():
    # poset with top: the top is a biterminal; flat diagrams over the dual
    # base send it to a point. Here we pick the representable on the dual.
    tc = corpus.poset_top_twocat()
    inst = BilimitInstance("biterminal", {"apex": "top"})
    assert not validate_bilimit_instance(tc, inst)
    # hom(a, -) is flat over this base and hom(a, top) is a point
    pf = representable_pseudofunctor(tc, "a")
    assert check_flat(pf)
    assert check_flat_preserves_bilimits(pf, inst)
