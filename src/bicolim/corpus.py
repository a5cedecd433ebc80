"""The bundled fixture corpus, built programmatically.

Every index 2-category, class, diagram, idempotent and map that the verify
suite replays lives here as a named builder; ``tools/gen_corpus.py`` turns
them into the JSON documents shipped under ``bicolim/corpus/``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import zoo
from .fincat import (
    FinCat,
    Functor,
    NatTrans,
    build_functor,
    compose_functors,
    identity_functor,
    identity_nattrans,
)
from .twocat import (
    CatPseudoFunctor,
    SigmaClass,
    TwoCat,
    TwoFunctor,
    build_pseudofunctor,
    constant_pseudofunctor,
    full_sub_on_zero_cells,
    inclusion_twofunctor,
    locally_discrete,
    terminal_twocat,
)


# ---------------------------------------------------------------------------
# Index 2-categories


def poset_top_twocat() -> TwoCat:
    return locally_discrete(zoo.poset("ptop", [("a", "top"), ("b", "top")]), name="poset_top")


def poset_bottom_twocat() -> TwoCat:
    return locally_discrete(zoo.poset("pbot", [("bot", "a"), ("bot", "b")]), name="poset_bottom")


def chain3_twocat() -> TwoCat:
    return locally_discrete(zoo.chain(3), name="chain3")


def discrete2_twocat() -> TwoCat:
    return locally_discrete(zoo.discrete(["a", "b"]), name="discrete2")


def parallel_twocat() -> TwoCat:
    return locally_discrete(zoo.parallel_pair(), name="parallel_pair")


INDEX_BUILDERS = {
    "terminal": terminal_twocat,
    "poset_top": poset_top_twocat,
    "poset_bottom": poset_bottom_twocat,
    "chain3": chain3_twocat,
    "discrete2": discrete2_twocat,
    "parallel_pair": parallel_twocat,
    "isohom": zoo.iso_hom_twocat,
    "laxtriangle": zoo.lax_triangle_twocat,
    "endoabsorb": zoo.endo_absorb_twocat,
    "equifier": zoo.equifier_twocat,
}

# named sigma classes per index, keyed by (index name, class name)
SIGMA_MEMBERS = {
    ("laxtriangle", "lax"): ["ia", "it", "s"],
    ("endoabsorb", "absorb"): ["ia", "it", "s"],
    ("isohom", "onearrow"): ["ix", "iy", "p"],
}


def sigma_class(index_name: str, class_name: str, tc: TwoCat) -> SigmaClass:
    return SigmaClass(tc, frozenset(SIGMA_MEMBERS[(index_name, class_name)]), class_name)


# ---------------------------------------------------------------------------
# Cat-valued diagrams


def constant_diagram() -> CatPseudoFunctor:
    """Constant at the walking arrow over the poset with a top."""
    return constant_pseudofunctor(poset_top_twocat(), zoo.walking_arrow(), name="const_arrow")


def inclusion_chain_diagram() -> CatPseudoFunctor:
    """Chain of full subcategory inclusions over the linear order 0<1<2."""
    tc = chain3_twocat()
    d2 = zoo.poset("d2", [("u", "v"), ("v", "w")])
    d1 = zoo.full_subcategory(d2, ["u", "v"], name="d1")
    d0 = zoo.full_subcategory(d2, ["u"], name="d0")
    fibers = {"0": d0, "1": d1, "2": d2}
    inc01 = zoo.inclusion_functor(d0, d1)
    inc12 = zoo.inclusion_functor(d1, d2)
    inc02 = zoo.inclusion_functor(d0, d2)
    on1 = {}
    for f in tc.one_home:
        i, j = tc.one_home[f]
        on1[f] = {
            ("0", "0"): identity_functor(d0),
            ("1", "1"): identity_functor(d1),
            ("2", "2"): identity_functor(d2),
            ("0", "1"): inc01,
            ("1", "2"): inc12,
            ("0", "2"): inc02,
        }[(i, j)]
    on2 = {tc.id2(f): identity_nattrans(on1[f]) for f in tc.one_home}
    return build_pseudofunctor("chain_incl", tc, fibers, on1, on2)


def twisted_iso_diagram() -> CatPseudoFunctor:
    """Walking-isomorphism fibers over 0<1<2 with a non-identity comparison.

    The long leg is the swap automorphism while the short legs are
    identities; the comparison is conjugation by the isomorphism, so the
    diagram is genuinely pseudo rather than strict.
    """
    tc = chain3_twocat()
    iso = zoo.walking_iso()
    ident = identity_functor(iso)
    swap = build_functor(
        "swap",
        iso,
        iso,
        {"x": "y", "y": "x"},
        {"id_x": "id_y", "id_y": "id_x", "u": "u_inv", "u_inv": "u"},
    )
    on1 = {f: (swap if f == "le_0_2" else ident) for f in tc.one_home}
    on2 = {tc.id2(f): identity_nattrans(on1[f]) for f in tc.one_home}
    twist = NatTrans("tw", ident, swap, {"x": "u", "y": "u_inv"})
    comp = {}
    for f in tc.one_home:
        for g in tc.one_home:
            if tc.one_home[g][0] != tc.one_home[f][1]:
                continue
            if tc.hcomp1[(g, f)] == "le_0_2" and "le_0_2" not in (f, g):
                comp[(g, f)] = twist
    return build_pseudofunctor("twisted_iso", tc, {i: iso for i in tc.cells0}, on1, on2, comp)


def two_cellular_diagram() -> CatPseudoFunctor:
    """Diagram over the iso-hom index whose 2-cell acts as a genuine iso."""
    tc = zoo.iso_hom_twocat()
    pt = zoo.terminal()
    iso = zoo.walking_iso()
    pick_x = build_functor("pick_x", pt, iso, {"*": "x"}, {"id": "id_x"})
    pick_y = build_functor("pick_y", pt, iso, {"*": "y"}, {"id": "id_y"})
    on0 = {"x": pt, "y": iso}
    on1 = {"ix": identity_functor(pt), "iy": identity_functor(iso), "p": pick_x, "q": pick_y}
    on2 = {
        "v_ix": identity_nattrans(on1["ix"]),
        "v_iy": identity_nattrans(on1["iy"]),
        "v_p": identity_nattrans(pick_x),
        "v_q": identity_nattrans(pick_y),
        "w": NatTrans("w_img", pick_x, pick_y, {"*": "u"}),
        "w_inv": NatTrans("w_img_inv", pick_y, pick_x, {"*": "u_inv"}),
    }
    return build_pseudofunctor("two_cellular", tc, on0, on1, on2)


def lax_diagram() -> CatPseudoFunctor:
    """Diagram over the lax-triangle index; the lax 2-cell lands on a
    non-invertible fiber morphism, so only the class arrow acquires an
    invertible transition in the colimit."""
    tc = zoo.lax_triangle_twocat()
    pt = zoo.terminal()
    arrow = zoo.walking_arrow()
    pick_s = build_functor("pick_s", pt, arrow, {"*": "s"}, {"id": "id_s"})
    pick_t = build_functor("pick_t", pt, arrow, {"*": "t"}, {"id": "id_t"})
    on0 = {"a": pt, "t": arrow}
    # the class arrow s lands on the target point, d on the source point,
    # and the index 2-cell nu : d ⇒ s maps to the walking arrow itself
    on1 = {"ia": identity_functor(pt), "it": identity_functor(arrow), "s": pick_t, "d": pick_s}
    on2 = {
        "v_ia": identity_nattrans(on1["ia"]),
        "v_it": identity_nattrans(on1["it"]),
        "v_s": identity_nattrans(pick_t),
        "v_d": identity_nattrans(pick_s),
        "nu": NatTrans("nu_img", pick_s, pick_t, {"*": "f"}),
    }
    return build_pseudofunctor("lax_fill", tc, on0, on1, on2)


def collapse_pair_diagram() -> CatPseudoFunctor:
    """Diagram over the equifier index: two distinct parallel fiber arrows
    become equal one stage later, so the colimit genuinely merges them."""
    tc = zoo.equifier_twocat()
    pt = zoo.terminal()
    pair = zoo.parallel_pair()
    iso = zoo.walking_iso()
    pick_a = build_functor("pick_a", pt, pair, {"*": "a"}, {"id": "id_a"})
    pick_b = build_functor("pick_b", pt, pair, {"*": "b"}, {"id": "id_b"})
    pick_x = build_functor("pick_x", pt, iso, {"*": "x"}, {"id": "id_x"})
    collapse = build_functor(
        "collapse",
        pair,
        iso,
        {"a": "x", "b": "y"},
        {"id_a": "id_x", "id_b": "id_y", "f": "u", "g": "u"},
    )
    on0 = {"a": pt, "b": pair, "c": iso}
    on1 = {
        "ia": identity_functor(pt),
        "ib": identity_functor(pair),
        "ic": identity_functor(iso),
        "u0": pick_a,
        "u1": pick_b,
        "g": collapse,
        "h": pick_x,
    }
    on2 = {
        "v_ia": identity_nattrans(on1["ia"]),
        "v_ib": identity_nattrans(on1["ib"]),
        "v_ic": identity_nattrans(on1["ic"]),
        "v_u0": identity_nattrans(pick_a),
        "v_u1": identity_nattrans(pick_b),
        "v_g": identity_nattrans(collapse),
        "v_h": identity_nattrans(pick_x),
        "al": NatTrans("al_img", pick_a, pick_b, {"*": "f"}),
        "be": NatTrans("be_img", pick_a, pick_b, {"*": "g"}),
    }
    comp = {
        ("g", "u1"): NatTrans(
            "tw", compose_functors(collapse, pick_b), pick_x, {"*": "u_inv"}
        )
    }
    return build_pseudofunctor("collapse_pair", tc, on0, on1, on2, comp)


def endo_diagram() -> CatPseudoFunctor:
    """Diagram over the absorbed-endo index; the endo acts as a projection."""
    tc = zoo.endo_absorb_twocat()
    d2 = zoo.discrete(["0", "1"], name="two")
    pt = zoo.terminal()
    collapse = build_functor(
        "collapse", d2, d2, {"0": "0", "1": "0"}, {"id_0": "id_0", "id_1": "id_0"}
    )
    to_pt = build_functor("to_pt", d2, pt, {"0": "*", "1": "*"}, {"id_0": "id", "id_1": "id"})
    on0 = {"a": d2, "t": pt}
    on1 = {"ia": identity_functor(d2), "e": collapse, "it": identity_functor(pt), "s": to_pt}
    on2 = {tc.id2(f): identity_nattrans(on1[f]) for f in tc.one_home}
    return build_pseudofunctor("endo_proj", tc, on0, on1, on2)


DIAGRAM_BUILDERS = {
    "const_arrow": constant_diagram,
    "chain_incl": inclusion_chain_diagram,
    "twisted_iso": twisted_iso_diagram,
    "two_cellular": two_cellular_diagram,
    "lax_fill": lax_diagram,
    "endo_proj": endo_diagram,
    "collapse_pair": collapse_pair_diagram,
}

# diagrams whose index is bifiltered (colimits may be taken conically)
BIFILTERED_DIAGRAMS = [
    "const_arrow",
    "chain_incl",
    "twisted_iso",
    "two_cellular",
    "endo_proj",
    "collapse_pair",
]

# (diagram, class-name) pairs for class-relative colimits
SIGMA_DIAGRAMS = [("lax_fill", "lax"), ("endo_proj", "absorb")]

# index fixture backing each diagram
DIAGRAM_INDEX = {
    "collapse_pair": "equifier",
    "const_arrow": "poset_top",
    "chain_incl": "chain3",
    "twisted_iso": "chain3",
    "two_cellular": "isohom",
    "lax_fill": "laxtriangle",
    "endo_proj": "endoabsorb",
    "lex_chain": "chain2",
    "lex_const": "poset_top",
}


def diagram_sigma(dname: str, cname: str, pf: CatPseudoFunctor) -> SigmaClass:
    return sigma_class(DIAGRAM_INDEX[dname], cname, pf.source)


# ---------------------------------------------------------------------------
# Cofinal maps


@dataclass(eq=False)
class CofinalMapFixture:
    name: str
    functor: TwoFunctor
    sigma_source: SigmaClass
    sigma_target: SigmaClass
    expected: bool
    diagram: CatPseudoFunctor | None = None


def cofinal_chain_inclusion() -> CofinalMapFixture:
    tc = poset_top_twocat()
    sub = full_sub_on_zero_cells(tc, ["a", "top"], name="poset_top_sub")
    inc = inclusion_twofunctor(sub, tc, name="chain_into_top")
    from .twocat import all_one_cells

    return CofinalMapFixture(
        "chain_into_top",
        inc,
        all_one_cells(sub),
        all_one_cells(tc),
        True,
        constant_diagram(),
    )


def noncofinal_point_inclusion() -> CofinalMapFixture:
    tc = poset_top_twocat()
    sub = full_sub_on_zero_cells(tc, ["a"], name="poset_top_pt")
    inc = inclusion_twofunctor(sub, tc, name="point_into_top")
    from .twocat import all_one_cells

    return CofinalMapFixture(
        "point_into_top", inc, all_one_cells(sub), all_one_cells(tc), False
    )


def cofinal_lax_class_inclusion() -> CofinalMapFixture:
    """The class subcategory of the lax index, cofinal for a proper class."""
    from .filtered import class_subcategory
    from .twocat import all_one_cells, inclusion_twofunctor, sigma_closure

    tc = zoo.lax_triangle_twocat()
    sigma = sigma_class("laxtriangle", "lax", tc)
    sub = class_subcategory(tc, sigma_closure(sigma))
    sub.name = "laxtriangle_sub"
    inc = inclusion_twofunctor(sub, tc, name="laxsub_into_laxtriangle")
    return CofinalMapFixture(
        "laxsub_into_laxtriangle", inc, all_one_cells(sub), sigma, True, lax_diagram()
    )


MAP_BUILDERS = {
    "chain_into_top": cofinal_chain_inclusion,
    "point_into_top": noncofinal_point_inclusion,
    "laxsub_into_laxtriangle": cofinal_lax_class_inclusion,
}


# ---------------------------------------------------------------------------
# Pseudoidempotents


@dataclass(eq=False)
class IdempotentFixture:
    name: str
    carrier: FinCat
    endo: Functor
    mult: NatTrans


def idempotent_identity() -> IdempotentFixture:
    carrier = zoo.chain(2)
    e = identity_functor(carrier)
    return IdempotentFixture("idem_identity", carrier, e, identity_nattrans(e))


def idempotent_constant() -> IdempotentFixture:
    carrier = zoo.walking_arrow()
    e = build_functor(
        "const_s", carrier, carrier, {"s": "s", "t": "s"}, {m: "id_s" for m in carrier.dom}
    )
    return IdempotentFixture("idem_constant", carrier, e, identity_nattrans(e))


def idempotent_diagonal() -> IdempotentFixture:
    d2 = zoo.discrete(["a", "b"], name="pairbase")
    from .bilim import biproduct

    prod = biproduct(d2, d2)
    carrier = prod.category
    obj_map = {}
    mor_map = {}
    for x in d2.objects:
        for y in d2.objects:
            obj_map[prod.pair_obj(x, y)] = prod.pair_obj(x, x)
    for m in carrier.dom:
        obj = carrier.dom[m]
        mor_map[m] = carrier.identity[obj_map[obj]]
    e = build_functor("first_diag", carrier, carrier, obj_map, mor_map)
    return IdempotentFixture("idem_diagonal", carrier, e, identity_nattrans(e))


IDEMPOTENT_BUILDERS = {
    "idem_identity": idempotent_identity,
    "idem_constant": idempotent_constant,
    "idem_diagonal": idempotent_diagonal,
}


# ---------------------------------------------------------------------------
# Lex chains


def lex_chain_semilattices() -> CatPseudoFunctor:
    """Meet-semilattices with top, embedded along meet-preserving inclusions."""
    tc = locally_discrete(zoo.chain(2), name="chain2")
    big = zoo.poset("diamond", [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])
    small = zoo.full_subcategory(big, ["bot", "l", "top"], name="wedge")
    inc = zoo.inclusion_functor(small, big)
    on1 = {
        "le_0_0": identity_functor(small),
        "le_1_1": identity_functor(big),
        "le_0_1": inc,
    }
    on2 = {tc.id2(f): identity_nattrans(on1[f]) for f in tc.one_home}
    return build_pseudofunctor("lex_chain", tc, {"0": small, "1": big}, on1, on2)


def lex_constant() -> CatPseudoFunctor:
    semi = zoo.poset("meet3", [("bot", "mid"), ("mid", "top")])
    return constant_pseudofunctor(poset_top_twocat(), semi, name="lex_const")


LEX_DIAGRAM_BUILDERS = {
    "lex_chain": lex_chain_semilattices,
    "lex_const": lex_constant,
}


# ---------------------------------------------------------------------------
# Representables and flatness

REPRESENTABLE_BASES = [("poset_bottom", "bot"), ("isohom", "x")]


def nonflat_empty_diagram() -> CatPseudoFunctor:
    from .fincat import build_fincat

    empty = build_fincat("empty", [], [], {}, {})
    return constant_pseudofunctor(poset_bottom_twocat(), empty, name="nonflat_empty")


def nonflat_disconnected_diagram() -> CatPseudoFunctor:
    return constant_pseudofunctor(
        terminal_twocat(), zoo.discrete(["a", "b"]), name="nonflat_discrete"
    )


def flat_constant_terminal() -> CatPseudoFunctor:
    return constant_pseudofunctor(
        poset_bottom_twocat(), zoo.terminal(), name="flat_const_pt"
    )


FLATNESS_BUILDERS = {
    "nonflat_empty": nonflat_empty_diagram,
    "nonflat_discrete": nonflat_disconnected_diagram,
    "flat_const_pt": flat_constant_terminal,
}


# ---------------------------------------------------------------------------
# Parallel transformations for pointwise-equalizer commutation


@dataclass(eq=False)
class ParallelTransforms:
    name: str
    left: CatPseudoFunctor
    right: CatPseudoFunctor
    u: dict[str, Functor]
    v: dict[str, Functor]


def parallel_over_poset_top() -> ParallelTransforms:
    tc = poset_top_twocat()
    left = constant_pseudofunctor(tc, zoo.terminal(), name="par_left")
    iso = zoo.walking_iso()
    right = constant_pseudofunctor(tc, iso, name="par_right")
    pick_x = build_functor("pick_x", zoo.terminal(), iso, {"*": "x"}, {"id": "id_x"})
    pick_y = build_functor("pick_y", zoo.terminal(), iso, {"*": "y"}, {"id": "id_y"})
    u = {i: pick_x for i in tc.cells0}
    v = {i: pick_y for i in tc.cells0}
    return ParallelTransforms("par_iso", left, right, u, v)


PARALLEL_BUILDERS = {"par_iso": parallel_over_poset_top}


# ---------------------------------------------------------------------------
# Bilimit instances living inside fixture bases

BILIMIT_INSTANCES = {
    "inst_biproduct_bot": (
        "poset_bottom",
        "biproduct",
        {"apex": "bot", "left_leg": "le_bot_a", "right_leg": "le_bot_b"},
    ),
    "inst_biequalizer_bot": (
        "poset_bottom",
        "biequalizer",
        {
            "apex": "bot",
            "leg": "le_bot_bot",
            "left": "le_bot_a",
            "right": "le_bot_a",
            "cell": "v_le_bot_a",
        },
    ),
    "inst_biterminal_top": ("poset_top", "biterminal", {"apex": "top"}),
    "inst_cotensor_isohom": (
        "isohom",
        "arrow_cotensor",
        {"apex": "y", "dom_leg": "iy", "cod_leg": "iy", "cell": "v_iy"},
    ),
}

PROBES = {"probe_point": zoo.terminal, "probe_arrow": zoo.walking_arrow}

EXPECTED_FLAT = {
    "repr_poset_bottom_bot": True,
    "repr_isohom_x": True,
    "repr_poset_top_a": True,
    "flat_const_pt": True,
    "nonflat_empty": False,
    "nonflat_discrete": False,
}


def representable_diagrams() -> dict[str, "CatPseudoFunctor"]:
    from .flat import representable_pseudofunctor

    return {
        "repr_poset_bottom_bot": representable_pseudofunctor(
            poset_bottom_twocat(), "bot", name="repr_poset_bottom_bot"
        ),
        "repr_isohom_x": representable_pseudofunctor(
            zoo.iso_hom_twocat(), "x", name="repr_isohom_x"
        ),
        "repr_poset_top_a": representable_pseudofunctor(
            poset_top_twocat(), "a", name="repr_poset_top_a"
        ),
    }


def write_corpus(outdir) -> list[str]:
    """Serialize every fixture into one directory; returns the file names."""
    from pathlib import Path

    from .fixtures import (
        diagram_doc,
        dump,
        fincat_doc,
        idempotent_doc,
        instance_doc,
        map_doc,
        parallel_doc,
        twocat_doc,
    )
    from .bilim import validate_pseudoidempotent
    from .flat import BilimitInstance

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def emit(name: str, doc: dict) -> None:
        dump(doc, outdir / name)
        written.append(name)

    sigma_by_index: dict[str, dict[str, list[str]]] = {}
    for (index_name, class_name), members in SIGMA_MEMBERS.items():
        sigma_by_index.setdefault(index_name, {})[class_name] = list(members)
    for name, make in INDEX_BUILDERS.items():
        emit(f"{name}.twocat.json", twocat_doc(make(), sigma_by_index.get(name)))
    emit("chain2.twocat.json", twocat_doc(locally_discrete(zoo.chain(2), name="chain2")))

    tc = poset_top_twocat()
    sub = full_sub_on_zero_cells(tc, ["a", "top"], name="poset_top_sub")
    emit("poset_top_sub.twocat.json", twocat_doc(sub))
    pt_sub = full_sub_on_zero_cells(tc, ["a"], name="poset_top_pt")
    emit("poset_top_pt.twocat.json", twocat_doc(pt_sub))

    index_path = {name: f"{name}.twocat.json" for name in INDEX_BUILDERS}
    index_path["chain2"] = "chain2.twocat.json"
    for dname, make in DIAGRAM_BUILDERS.items():
        sigma = dict(SIGMA_DIAGRAMS).get(dname)
        emit(
            f"{dname}.diagram.json",
            diagram_doc(make(), index_path[DIAGRAM_INDEX[dname]], sigma=sigma),
        )
    for dname, make in LEX_DIAGRAM_BUILDERS.items():
        emit(
            f"{dname}.diagram.json",
            diagram_doc(
                make(), index_path[DIAGRAM_INDEX[dname]], expect={"lex": True}
            ),
        )
    for dname, pf in representable_diagrams().items():
        emit(
            f"{dname}.diagram.json",
            diagram_doc(pf, index_path[pf.source.name], expect={"flat": True}),
        )
    for dname, make in FLATNESS_BUILDERS.items():
        pf = make()
        base = DIAGRAM_INDEX.get(dname)
        if base is None:
            base = {"nonflat_empty": "poset_bottom", "nonflat_discrete": "terminal", "flat_const_pt": "poset_bottom"}[dname]
        emit(
            f"{dname}.diagram.json",
            diagram_doc(pf, index_path[base], expect={"flat": EXPECTED_FLAT[dname]}),
        )

    fix = cofinal_chain_inclusion()
    emit(
        "chain_into_top.map.json",
        map_doc(
            fix.functor,
            "poset_top_sub.twocat.json",
            "poset_top.twocat.json",
            True,
            diagram_path="const_arrow.diagram.json",
        ),
    )
    fix = noncofinal_point_inclusion()
    emit(
        "point_into_top.map.json",
        map_doc(fix.functor, "poset_top_pt.twocat.json", "poset_top.twocat.json", False),
    )
    fix = cofinal_lax_class_inclusion()
    emit("laxtriangle_sub.twocat.json", twocat_doc(fix.functor.source))
    emit(
        "laxsub_into_laxtriangle.map.json",
        map_doc(
            fix.functor,
            "laxtriangle_sub.twocat.json",
            "laxtriangle.twocat.json",
            True,
            sigma_target="lax",
            diagram_path="lax_fill.diagram.json",
        ),
    )

    for name, make in IDEMPOTENT_BUILDERS.items():
        f = make()
        validate_pseudoidempotent(f.carrier, f.endo, f.mult)
        from .bilim import Pseudoidempotent

        emit(f"{name}.idempotent.json", idempotent_doc(name, Pseudoidempotent(f.carrier, f.endo, f.mult)))

    par = parallel_over_poset_top()
    emit("par_left.diagram.json", diagram_doc(par.left, "poset_top.twocat.json"))
    emit("par_right.diagram.json", diagram_doc(par.right, "poset_top.twocat.json"))
    emit(
        "par_iso.parallel.json",
        parallel_doc("par_iso", "par_left.diagram.json", "par_right.diagram.json", par.u, par.v),
    )

    for name, make in PROBES.items():
        emit(f"{name}.fincat.json", fincat_doc(make(), name))

    for name, (base, shape, data) in BILIMIT_INSTANCES.items():
        emit(
            f"{name}.instance.json",
            instance_doc(name, index_path[base], BilimitInstance(shape, data)),
        )

    from .fixtures import functor_body

    iso = zoo.walking_iso()
    pt = zoo.terminal()
    emit(
        "funcpair_iso.functor_pair.json",
        {
            "kind": "functor_pair",
            "name": "funcpair_iso",
            "source": pt.describe(),
            "target": iso.describe(),
            "left": functor_body(
                build_functor("l", pt, iso, {"*": "x"}, {"id": "id_x"})
            ),
            "right": functor_body(
                build_functor("r", pt, iso, {"*": "y"}, {"id": "id_y"})
            ),
        },
    )
    return sorted(written)
