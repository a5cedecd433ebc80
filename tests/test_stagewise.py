"""Pinned digests of the stagewise diagrams and of the emitted splittings.

The commutation checks and the bicompact comparison build a diagram by
applying a Cat-construction at every stage.  Their verdicts can stay the same
while the diagram itself changes, so the full data of each diagram is pinned
here: fiber tables, ``on1`` maps and the components of ``on2``, ``comp`` and
``unit_c`` (transformation names are not part of the data).  Likewise the
document ``bicolim bilim split --emit`` writes for each bundled idempotent.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from bicolim import zoo
from bicolim.bilim import (
    biequalizer,
    biequalizer_diagram,
    biproduct,
    biproduct_diagram,
    cotensor_diagram,
)
from bicolim.cli import default_corpus, main
from bicolim.compact import mapped_diagram
from bicolim.fincat import identity_functor
from bicolim.fixtures import load_fixture

CORPUS = default_corpus()
# one cache, as in verify, so that diagrams over the same index share it
_LOADED: dict = {}


def _load(name):
    return load_fixture(CORPUS / name, _LOADED)


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def diagram_digest(pf) -> str:
    tc = pf.source

    def comps(nt) -> list:
        return sorted(nt.components.items())

    return _sha(
        {
            "name": pf.name,
            "on0": {i: [pf.on0[i].name, pf.on0[i].describe()] for i in tc.cells0},
            "on1": {d: [f.name, *f.key()] for d, f in pf.on1.items()},
            "on2": {b: comps(nt) for b, nt in pf.on2.items()},
            "comp": sorted([list(k), comps(nt)] for k, nt in pf.comp.items()),
            "unit_c": {i: comps(nt) for i, nt in pf.unit_c.items()},
        }
    )


def _diagram(name):
    return _load(name).functor


def _biproduct(a, b):
    return lambda: biproduct_diagram(_diagram(a), _diagram(b))


def _cotensor(a):
    return lambda: cotensor_diagram(_diagram(a))


def _biequalizer(name):
    def build():
        fx = _load(name)
        return biequalizer_diagram(fx.left.functor, fx.right.functor, fx.u, fx.v)

    return build


def _probe(name):
    if name == "<product>":
        return biproduct(zoo.terminal(), zoo.walking_arrow()).category
    if name == "<equalizer>":
        arrow = zoo.walking_arrow()
        return biequalizer(identity_functor(arrow), identity_functor(arrow)).category
    return _load(name).category


def _mapped(probe, diagram):
    return lambda: mapped_diagram(_probe(probe), _diagram(diagram))[0]


def _biequalizer_of_identities(name):
    """The biequalizer diagram of (1, 1) on one diagram: strictly natural,
    and it carries the diagram's pseudo comparisons."""

    def build():
        pf = _diagram(name)
        ids = {i: identity_functor(c) for i, c in pf.on0.items()}
        return biequalizer_diagram(pf, pf, ids, ids)

    return build


# The diagrams verify builds for the commutation lemmas; the same
# constructions on the pseudo (non-strict) diagrams twisted_iso and
# collapse_pair, whose comparison cells are not identities; and mapped
# diagrams for bundled and derived bicompactness probes.
STAGEWISE = {
    "prod:const_arrow x par_right": (
        _biproduct("const_arrow.diagram.json", "par_right.diagram.json"),
        "94cda610ddb718fba0d78d77e1fb4e1fc97dde6337adef3c0b950638eed2567d",
    ),
    "prod:par_left x par_right": (
        _biproduct("par_left.diagram.json", "par_right.diagram.json"),
        "15aa76fdf38506e66037b31c0bb98b694d0602d8b89d1464990a60a8167c90f0",
    ),
    "prod:twisted_iso x twisted_iso": (
        _biproduct("twisted_iso.diagram.json", "twisted_iso.diagram.json"),
        "a93baa0de5ab630bbcce5f41470da21ade34d8673613b92badcc59c9b5850acd",
    ),
    "prod:collapse_pair x collapse_pair": (
        _biproduct("collapse_pair.diagram.json", "collapse_pair.diagram.json"),
        "1dcd4a33b6f822f35cd5d559fc763afa1adf559c0eac37322f6f21cc7a732636",
    ),
    "sq:const_arrow": (
        _cotensor("const_arrow.diagram.json"),
        "60cd8837eea006f5232fce23a7dead668c06d84ab8a909d5ac2a087b08ee6e1a",
    ),
    "sq:chain_incl": (
        _cotensor("chain_incl.diagram.json"),
        "b4fb4b505b9368ccb8382b09c2f00289ea7504d3054eef2164004a81fbd06618",
    ),
    "sq:two_cellular": (
        _cotensor("two_cellular.diagram.json"),
        "36aa3011114ef4e20559ccae25f911e160f0ecc1c3c2ca5361376120f0b59be5",
    ),
    "sq:twisted_iso": (
        _cotensor("twisted_iso.diagram.json"),
        "37da6c3a8f6fe7bcccc2b57e03a25337dfa14c245b279637e71fcac4f41bdc88",
    ),
    "sq:collapse_pair": (
        _cotensor("collapse_pair.diagram.json"),
        "a559f6b93b795575f78ddbcce5467446be63aec777a9d0ea300120d9c442c7d8",
    ),
    "eqz:par_iso": (
        _biequalizer("par_iso.parallel.json"),
        "97a32e4c2e9b1d264a42a09ab1ad6b1b9d8a2d0eecfc4cf70f18a6130c147d10",
    ),
    "eqz:twisted_iso (1, 1)": (
        _biequalizer_of_identities("twisted_iso.diagram.json"),
        "1a225c685e1330118b73007340f0433aaa94cf8f0003eccfccfd6202491c2882",
    ),
    "eqz:collapse_pair (1, 1)": (
        _biequalizer_of_identities("collapse_pair.diagram.json"),
        "fbec3d7862e2b0c2a967cfea206bb70c49cd745c0987ed9c49cf5c5176163fa9",
    ),
    "map:probe_point x const_arrow": (
        _mapped("probe_point.fincat.json", "const_arrow.diagram.json"),
        "b4f8fbe81fd8e89bedeaf1cb7cf1641a8c563bc6013de4908d517fd56c6cb7f1",
    ),
    "map:probe_arrow x chain_incl": (
        _mapped("probe_arrow.fincat.json", "chain_incl.diagram.json"),
        "58d8a18ac278173f120c80e899e0ea49ec99dfeef92cb12170820a7e8fa55166",
    ),
    "map:probe_arrow x two_cellular": (
        _mapped("probe_arrow.fincat.json", "two_cellular.diagram.json"),
        "f8f8e6f113a5455a66e978b498357dc7db9e4621a583e67723fd35425e104b01",
    ),
    "map:probe_arrow x twisted_iso": (
        _mapped("probe_arrow.fincat.json", "twisted_iso.diagram.json"),
        "5d0b57c7c213e7289a849124ab9596c36ca9de978721133da6470e41b0bf720d",
    ),
    "map:probe_arrow x collapse_pair": (
        _mapped("probe_arrow.fincat.json", "collapse_pair.diagram.json"),
        "9621a8f90cf79902974848f46fb2e87569f6731367ce4c6b561b33c204c86c9e",
    ),
    "map:<product> x endo_proj": (
        _mapped("<product>", "endo_proj.diagram.json"),
        "f2255fdfece0cd6f206add89deafdecf26724e8f3145a0fa8d0adf0f4fbf21fe",
    ),
    "map:<equalizer> x two_cellular": (
        _mapped("<equalizer>", "two_cellular.diagram.json"),
        "98c775bd394d09a9f0e6208ab4976e8acd58c76d4fd0559fa8806b35647b90b6",
    ),
}

IDEMPOTENTS = {
    "idem_constant.idempotent.json": "956ba265073f1fc1b6b662ef070bb83a7447abad465cd26b4b929aca8b3a030a",
    "idem_diagonal.idempotent.json": "43e5a614691c2087fb420c28301b19559dc9e4eb8492763c573fe4018ff9151d",
    "idem_identity.idempotent.json": "ff03e5419e3ec2958e48a36c4c4165778c5528fbf5efd97e7ad7b3dbc964c052",
}


@pytest.mark.parametrize("label", sorted(STAGEWISE))
def test_stagewise_diagram_is_pinned(label):
    build, digest = STAGEWISE[label]
    assert diagram_digest(build()) == digest


@pytest.mark.parametrize("name", sorted(IDEMPOTENTS))
def test_split_emit_is_pinned(name, tmp_path, capsys):
    out = tmp_path / "split.json"
    assert main(["bilim", "split", str(CORPUS / name), "--emit", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == IDEMPOTENTS[name]


def test_pinned_diagrams_cover_pseudo_comparisons():
    # each construction is pinned on at least one diagram whose comp or
    # unit_c cells are not identities
    pseudo = {label.split(":")[0] for label, (build, _) in STAGEWISE.items() if not build().is_strict()}
    assert pseudo == {"prod", "sq", "eqz", "map"}
