"""Small standard categories used by the fixture corpus and the tests."""

from __future__ import annotations

from .fincat import FinCat, build_fincat, build_functor, Functor


def terminal() -> FinCat:
    return build_fincat(
        "terminal", ["*"], [("id", "*", "*")], {"*": "id"}, {("id", "id"): "id"}
    )


def discrete(names: list[str], name: str = "") -> FinCat:
    ids = {x: f"id_{x}" for x in names}
    return build_fincat(
        name or f"discrete{len(names)}",
        names,
        [(ids[x], x, x) for x in names],
        ids,
        {(ids[x], ids[x]): ids[x] for x in names},
    )


def walking_arrow() -> FinCat:
    return build_fincat(
        "arrow",
        ["s", "t"],
        [("id_s", "s", "s"), ("id_t", "t", "t"), ("f", "s", "t")],
        {"s": "id_s", "t": "id_t"},
        {
            ("id_s", "id_s"): "id_s",
            ("id_t", "id_t"): "id_t",
            ("f", "id_s"): "f",
            ("id_t", "f"): "f",
        },
    )


def walking_iso() -> FinCat:
    return build_fincat(
        "iso",
        ["x", "y"],
        [
            ("id_x", "x", "x"),
            ("id_y", "y", "y"),
            ("u", "x", "y"),
            ("u_inv", "y", "x"),
        ],
        {"x": "id_x", "y": "id_y"},
        {
            ("id_x", "id_x"): "id_x",
            ("id_y", "id_y"): "id_y",
            ("u", "id_x"): "u",
            ("id_y", "u"): "u",
            ("u_inv", "id_y"): "u_inv",
            ("id_x", "u_inv"): "u_inv",
            ("u_inv", "u"): "id_x",
            ("u", "u_inv"): "id_y",
        },
    )


def parallel_pair() -> FinCat:
    return build_fincat(
        "parallel",
        ["a", "b"],
        [
            ("id_a", "a", "a"),
            ("id_b", "b", "b"),
            ("f", "a", "b"),
            ("g", "a", "b"),
        ],
        {"a": "id_a", "b": "id_b"},
        {
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("f", "id_a"): "f",
            ("id_b", "f"): "f",
            ("g", "id_a"): "g",
            ("id_b", "g"): "g",
        },
    )


def poset(name: str, relation: list[tuple[str, str]]) -> FinCat:
    """The preorder generated by ``relation``, as a category.

    ``relation`` lists pairs x <= y; its reflexive-transitive closure is
    taken, so only a generating set is needed, and it may hold reflexive
    pairs and cycles (the objects of a cycle become isomorphic).  Arrows are
    named ``le_x_y``; when two closure pairs get one name, as
    ("a_b", "c") and ("a", "b_c") do, :func:`build_fincat` refuses it with a
    :class:`ValidationError`.  Rows and the table follow the sorted pairs
    (x, y), so their order does not depend on the string hash seed.
    """
    objs = sorted({x for pair in relation for x in pair})
    above: dict[str, list[str]] = {x: [] for x in objs}
    for x, y in relation:
        above[x].append(y)
    reach: dict[str, list[str]] = {}
    for x in objs:
        seen, todo = {x}, [x]
        while todo:
            for y in above[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        reach[x] = sorted(seen)
    le = {(x, y): f"le_{x}_{y}" for x in objs for y in reach[x]}
    table = {}
    for (x, y), f in le.items():
        for z in reach[y]:
            table[(le[(y, z)], f)] = le[(x, z)]
    return build_fincat(
        name,
        objs,
        [(f, x, y) for (x, y), f in le.items()],
        {x: le[(x, x)] for x in objs},
        table,
    )


def chain(n: int) -> FinCat:
    """The linear order 0 < 1 < ... < n-1."""
    return poset(f"chain{n}", [(str(i), str(i + 1)) for i in range(n - 1)])


def full_subcategory(cat: FinCat, objects: list[str], name: str = "") -> FinCat:
    keep = set(objects)
    mors = [m for m in cat.morphisms if cat.dom[m] in keep and cat.cod[m] in keep]
    morset = set(mors)
    return build_fincat(
        name or f"{cat.name}|{'+'.join(sorted(keep))}",
        sorted(keep),
        [(m, cat.dom[m], cat.cod[m]) for m in mors],
        {x: cat.identity[x] for x in sorted(keep)},
        {k: v for k, v in cat.table.items() if k[0] in morset and k[1] in morset},
    )


def inclusion_functor(sub: FinCat, cat: FinCat) -> Functor:
    return build_functor(
        f"incl_{sub.name}",
        sub,
        cat,
        {x: x for x in sub.objects},
        {m: m for m in sub.dom},
    )


def bz2() -> FinCat:
    """One object whose only non-identity endomorphism is an involution."""
    return build_fincat(
        "bz2",
        ["o"],
        [("one", "o", "o"), ("g", "o", "o")],
        {"o": "one"},
        {("one", "one"): "one", ("one", "g"): "g", ("g", "one"): "g", ("g", "g"): "one"},
    )


# ---------------------------------------------------------------------------
# 2-categorical specimens


def iso_hom_twocat():
    """Two 0-cells; hom(x, y) is a walking isomorphism of parallel 1-cells."""
    from .twocat import build_twocat

    hom_xx = build_fincat(
        "h[x,x]", ["ix"], [("v_ix", "ix", "ix")], {"ix": "v_ix"}, {("v_ix", "v_ix"): "v_ix"}
    )
    hom_yy = build_fincat(
        "h[y,y]", ["iy"], [("v_iy", "iy", "iy")], {"iy": "v_iy"}, {("v_iy", "v_iy"): "v_iy"}
    )
    hom_xy = build_fincat(
        "h[x,y]",
        ["p", "q"],
        [("v_p", "p", "p"), ("v_q", "q", "q"), ("w", "p", "q"), ("w_inv", "q", "p")],
        {"p": "v_p", "q": "v_q"},
        {
            ("v_p", "v_p"): "v_p",
            ("v_q", "v_q"): "v_q",
            ("w", "v_p"): "w",
            ("v_q", "w"): "w",
            ("w_inv", "v_q"): "w_inv",
            ("v_p", "w_inv"): "w_inv",
            ("w_inv", "w"): "v_p",
            ("w", "w_inv"): "v_q",
        },
    )
    hcomp1 = {("ix", "ix"): "ix", ("iy", "iy"): "iy"}
    hcomp2 = {("v_ix", "v_ix"): "v_ix", ("v_iy", "v_iy"): "v_iy"}
    for f in ["p", "q"]:
        hcomp1[(f, "ix")] = f
        hcomp1[("iy", f)] = f
    for a in ["v_p", "v_q", "w", "w_inv"]:
        hcomp2[(a, "v_ix")] = a
        hcomp2[("v_iy", a)] = a
    return build_twocat(
        "isohom",
        ["x", "y"],
        {("x", "x"): hom_xx, ("y", "y"): hom_yy, ("x", "y"): hom_xy},
        hcomp1,
        hcomp2,
        {"x": "ix", "y": "iy"},
    )


def lax_triangle_twocat():
    """Two parallel 1-cells a -> t joined by a single non-invertible 2-cell.

    With the class {units, s} this is the smallest genuinely lax example:
    the pair is class-filtered but the 2-category is not bifiltered, because
    nothing inserts an invertible cell between d and s.
    """
    from .twocat import build_twocat

    hom_aa = build_fincat(
        "lt[a,a]", ["ia"], [("v_ia", "ia", "ia")], {"ia": "v_ia"}, {("v_ia", "v_ia"): "v_ia"}
    )
    hom_tt = build_fincat(
        "lt[t,t]", ["it"], [("v_it", "it", "it")], {"it": "v_it"}, {("v_it", "v_it"): "v_it"}
    )
    hom_at = build_fincat(
        "lt[a,t]",
        ["s", "d"],
        [("v_s", "s", "s"), ("v_d", "d", "d"), ("nu", "d", "s")],
        {"s": "v_s", "d": "v_d"},
        {
            ("v_s", "v_s"): "v_s",
            ("v_d", "v_d"): "v_d",
            ("nu", "v_d"): "nu",
            ("v_s", "nu"): "nu",
        },
    )
    hcomp1 = {("ia", "ia"): "ia", ("it", "it"): "it"}
    hcomp2 = {("v_ia", "v_ia"): "v_ia", ("v_it", "v_it"): "v_it"}
    for f in ["s", "d"]:
        hcomp1[(f, "ia")] = f
        hcomp1[("it", f)] = f
    for a in ["v_s", "v_d", "nu"]:
        hcomp2[(a, "v_ia")] = a
        hcomp2[("v_it", a)] = a
    return build_twocat(
        "laxtriangle",
        ["a", "t"],
        {("a", "a"): hom_aa, ("t", "t"): hom_tt, ("a", "t"): hom_at},
        hcomp1,
        hcomp2,
        {"a": "ia", "t": "it"},
    )


def equifier_twocat():
    """Two distinct parallel 2-cells that a later 1-cell whiskers together.

    hom(a, b) carries parallel 1-cells u0, u1 with two different 2-cells
    between them; composing with the single arrow g out of b lands both on
    the identity of h = g∘u0 = g∘u1, so the equification condition of
    bifilteredness is exercised non-vacuously.
    """
    from .twocat import build_twocat

    hom_ab = build_fincat(
        "ef[a,b]",
        ["u0", "u1"],
        [
            ("v_u0", "u0", "u0"),
            ("v_u1", "u1", "u1"),
            ("al", "u0", "u1"),
            ("be", "u0", "u1"),
        ],
        {"u0": "v_u0", "u1": "v_u1"},
        {
            ("v_u0", "v_u0"): "v_u0",
            ("v_u1", "v_u1"): "v_u1",
            ("al", "v_u0"): "al",
            ("v_u1", "al"): "al",
            ("be", "v_u0"): "be",
            ("v_u1", "be"): "be",
        },
    )
    units = {}
    hom = {("a", "b"): hom_ab}
    for i in ["a", "b", "c"]:
        units[i] = f"i{i}"
        hom[(i, i)] = build_fincat(
            f"ef[{i},{i}]",
            [f"i{i}"],
            [(f"v_i{i}", f"i{i}", f"i{i}")],
            {f"i{i}": f"v_i{i}"},
            {(f"v_i{i}", f"v_i{i}"): f"v_i{i}"},
        )
    hom[("b", "c")] = build_fincat(
        "ef[b,c]", ["g"], [("v_g", "g", "g")], {"g": "v_g"}, {("v_g", "v_g"): "v_g"}
    )
    hom[("a", "c")] = build_fincat(
        "ef[a,c]", ["h"], [("v_h", "h", "h")], {"h": "v_h"}, {("v_h", "v_h"): "v_h"}
    )
    hcomp1 = {
        ("ia", "ia"): "ia",
        ("ib", "ib"): "ib",
        ("ic", "ic"): "ic",
        ("u0", "ia"): "u0",
        ("u1", "ia"): "u1",
        ("ib", "u0"): "u0",
        ("ib", "u1"): "u1",
        ("g", "ib"): "g",
        ("ic", "g"): "g",
        ("h", "ia"): "h",
        ("ic", "h"): "h",
        ("g", "u0"): "h",
        ("g", "u1"): "h",
    }
    hcomp2 = {}
    for a in ["v_u0", "v_u1", "al", "be"]:
        hcomp2[(a, "v_ia")] = a
        # whiskering with g collapses both 2-cells onto the identity of h
        hcomp2[("v_g", a)] = "v_h"
    hcomp2[("v_ib", "v_u0")] = "v_u0"
    hcomp2[("v_ib", "v_u1")] = "v_u1"
    hcomp2[("v_ib", "al")] = "al"
    hcomp2[("v_ib", "be")] = "be"
    hcomp2[("v_g", "v_ib")] = "v_g"
    hcomp2[("v_ic", "v_g")] = "v_g"
    hcomp2[("v_h", "v_ia")] = "v_h"
    hcomp2[("v_ic", "v_h")] = "v_h"
    for i in ["a", "b", "c"]:
        hcomp2[(f"v_i{i}", f"v_i{i}")] = f"v_i{i}"
    return build_twocat(
        "equifier",
        ["a", "b", "c"],
        hom,
        hcomp1,
        hcomp2,
        units,
    )


def endo_absorb_twocat():
    """An idempotent endo-1-cell absorbed by the arrow to the top 0-cell."""
    from .twocat import build_twocat

    hom_aa = build_fincat(
        "ea[a,a]",
        ["ia", "e"],
        [("v_ia", "ia", "ia"), ("v_e", "e", "e")],
        {"ia": "v_ia", "e": "v_e"},
        {("v_ia", "v_ia"): "v_ia", ("v_e", "v_e"): "v_e"},
    )
    hom_tt = build_fincat(
        "ea[t,t]", ["it"], [("v_it", "it", "it")], {"it": "v_it"}, {("v_it", "v_it"): "v_it"}
    )
    hom_at = build_fincat(
        "ea[a,t]", ["s"], [("v_s", "s", "s")], {"s": "v_s"}, {("v_s", "v_s"): "v_s"}
    )
    hcomp1 = {
        ("ia", "ia"): "ia",
        ("it", "it"): "it",
        ("e", "ia"): "e",
        ("ia", "e"): "e",
        ("e", "e"): "e",
        ("s", "ia"): "s",
        ("s", "e"): "s",
        ("it", "s"): "s",
    }
    hcomp2 = {
        (f"v_{g}", f"v_{f}"): f"v_{gf}" for (g, f), gf in hcomp1.items()
    }
    return build_twocat(
        "endoabsorb",
        ["a", "t"],
        {("a", "a"): hom_aa, ("t", "t"): hom_tt, ("a", "t"): hom_at},
        hcomp1,
        hcomp2,
        {"a": "ia", "t": "it"},
    )
