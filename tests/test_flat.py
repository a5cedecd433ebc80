from __future__ import annotations

import pytest

from bicolim import corpus, zoo
from bicolim.bilim import arrow_cotensor, biequalizer, biproduct
from bicolim.cli import default_corpus
from bicolim.fincat import Functor, ValidationError, check_equivalence, functor_is_equivalence
from bicolim.fixtures import InstanceFixture, load_fixture
from bicolim.flat import (
    BilimitInstance,
    _hom_postcomposition,
    _image_verdict,
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


# -- representable verdicts against hand-built probes ----------------------------
#
# ``validate_bilimit_instance`` decides a typed cone at each 0-cell j by the
# image verdict of hom(j, -), the test of ``check_flat_preserves_bilimits``.
# ``probe_verdicts`` is the check it replaced, kept as the oracle: the
# comparison out of hom(j, apex) built by hand, kind by kind.


def probe_verdicts(tc, instance) -> dict[str, bool]:
    kind, data = instance.kind, instance.data
    out = {}
    for j in tc.cells0:
        if kind == "biterminal":
            out[j] = bool(check_equivalence(tc.hom[(j, data["apex"])], zoo.terminal()))
        elif kind == "biproduct":
            pr1, pr2 = data["left_leg"], data["right_leg"]
            prod = biproduct(tc.hom[(j, tc.dst(pr1))], tc.hom[(j, tc.dst(pr2))])
            probe = prod.pairing(
                _hom_postcomposition(tc, pr1, j, f"({pr1}o-)@{j}"),
                _hom_postcomposition(tc, pr2, j, f"({pr2}o-)@{j}"),
                name=f"probe@{j}",
            )
            out[j] = bool(functor_is_equivalence(probe))
        elif kind == "biequalizer":
            w, u = data["apex"], data["leg"]
            f, g, xi = data["left"], data["right"], data["cell"]
            eq = biequalizer(
                _hom_postcomposition(tc, f, j, f"({f}o-)@{j}"),
                _hom_postcomposition(tc, g, j, f"({g}o-)@{j}"),
            )
            obj_map = {
                h: eq.object_at.get((tc.hcomp1[(u, h)], tc.whisker_r(xi, h)))
                for h in tc.cells1(j, w)
            }
            if None in obj_map.values():
                out[j] = False
                continue
            mor_map = {}
            for alpha in tc.hom[(j, w)].dom:
                h1, h2 = tc.hom[(j, w)].dom[alpha], tc.hom[(j, w)].cod[alpha]
                mor_map[alpha] = eq.mor(tc.whisker_l(u, alpha), obj_map[h1], obj_map[h2])
            probe = Functor(f"probe@{j}", tc.hom[(j, w)], eq.category, obj_map, mor_map)
            out[j] = bool(functor_is_equivalence(probe))
        else:  # arrow_cotensor
            t, e0, e1, tau = data["apex"], data["dom_leg"], data["cod_leg"], data["cell"]
            cot = arrow_cotensor(tc.hom[(j, tc.dst(e0))])
            obj_map = {h: tc.whisker_r(tau, h) for h in tc.cells1(j, t)}
            mor_map = {}
            for alpha in tc.hom[(j, t)].dom:
                h1, h2 = tc.hom[(j, t)].dom[alpha], tc.hom[(j, t)].cod[alpha]
                mor_map[alpha] = cot.square(
                    tc.whisker_l(e0, alpha), tc.whisker_l(e1, alpha), obj_map[h1], obj_map[h2]
                )
            probe = Functor(f"probe@{j}", tc.hom[(j, t)], cot.category, obj_map, mor_map)
            out[j] = bool(functor_is_equivalence(probe))
    return out


def bundled_instances():
    out = []
    for path in sorted(default_corpus().glob("*.instance.json")):
        fx = load_fixture(path)
        assert isinstance(fx, InstanceFixture)
        out.append((path.name, fx.base.twocat, fx.instance))
    return out


REFUSED_VARIANTS = [
    # bot is no product of (a, a)
    ("product (le_bot_a, le_bot_a)", corpus.poset_bottom_twocat, BilimitInstance(
        "biproduct", {"apex": "bot", "left_leg": "le_bot_a", "right_leg": "le_bot_a"}
    )),
    # a is not terminal: hom(b, a) is empty
    ("biterminal at a", corpus.poset_top_twocat, BilimitInstance("biterminal", {"apex": "a"})),
    # nu : d => s is not invertible
    ("biequalizer cell nu", zoo.lax_triangle_twocat, BilimitInstance(
        "biequalizer", {"apex": "a", "leg": "ia", "left": "d", "right": "s", "cell": "nu"}
    )),
    # an arrow cotensor out of x along the invertible w : p => q
    ("cotensor cell w", zoo.iso_hom_twocat, BilimitInstance(
        "arrow_cotensor", {"apex": "x", "dom_leg": "p", "cod_leg": "q", "cell": "w"}
    )),
]


def test_representable_verdicts_match_hand_built_probes_on_bundled_instances():
    instances = bundled_instances()
    assert len(instances) == 4
    for name, tc, instance in instances:
        want = probe_verdicts(tc, instance)
        assert all(want.values()), name
        got = {j: bool(_image_verdict(representable_pseudofunctor(tc, j), instance)) for j in tc.cells0}
        assert got == want, name
        assert validate_bilimit_instance(tc, instance) == []


@pytest.mark.parametrize("name, make, instance", REFUSED_VARIANTS, ids=[v[0] for v in REFUSED_VARIANTS])
def test_representable_verdicts_match_hand_built_probes_on_refused_variants(name, make, instance):
    tc = make()
    want = probe_verdicts(tc, instance)
    got = {j: bool(_image_verdict(representable_pseudofunctor(tc, j), instance)) for j in tc.cells0}
    assert got == want
    refused = validate_bilimit_instance(tc, instance)
    assert refused
    if instance.data.get("cell") == "nu":
        # typing refuses the cell before any representable is asked
        assert refused == ["cone cell is not invertible"]
        assert not all(want.values())
    else:
        assert refused == [
            f"hom({j!r},-) does not send the cone to a bilimit"
            for j in tc.cells0
            if not want[j]
        ]
