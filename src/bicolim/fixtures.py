"""JSON fixture documents: loading, validation dispatch, and emission.

One document per value.  Unlisted composites in any table are validation
errors, never defaults.  Cross-references (a diagram's index, a map's source)
are paths relative to the referring document.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .bilim import Pseudoidempotent, validate_pseudoidempotent
from .fincat import (
    FinCat,
    Functor,
    NatTrans,
    ValidationError,
    build_functor,
    build_nattrans,
    compose_functors,
    validate_fincat,
)
from .flat import BilimitInstance, validate_bilimit_instance
from .twocat import (
    CatPseudoFunctor,
    SigmaClass,
    TwoCat,
    TwoFunctor,
    all_one_cells,
    build_twofunctor,
    describe_twocat,
    validate_pseudofunctor,
    validate_twocat,
)


class FixtureError(Exception):
    def __init__(self, path: str | Path, message: str):
        self.path = str(path)
        super().__init__(f"{path}: {message}")


@dataclass(eq=False)
class TwoCatFixture:
    twocat: TwoCat
    sigma: dict[str, SigmaClass]
    path: Path

    def sigma_named(self, name: str) -> SigmaClass:
        if name == "all":
            return all_one_cells(self.twocat)
        if name not in self.sigma:
            raise FixtureError(self.path, f"no class named {name!r}")
        return self.sigma[name]


@dataclass(eq=False)
class DiagramFixture:
    functor: CatPseudoFunctor
    index: TwoCatFixture
    sigma_name: str | None
    expect: dict[str, Any]
    path: Path


@dataclass(eq=False)
class MapFixture:
    functor: TwoFunctor
    source: TwoCatFixture
    target: TwoCatFixture
    sigma_source: str
    sigma_target: str
    expect_cofinal: bool
    diagram: DiagramFixture | None
    path: Path


@dataclass(eq=False)
class IdempotentFixture:
    value: Pseudoidempotent
    path: Path


@dataclass(eq=False)
class ParallelFixture:
    left: DiagramFixture
    right: DiagramFixture
    u: dict[str, Functor]
    v: dict[str, Functor]
    path: Path


@dataclass(eq=False)
class InstanceFixture:
    base: TwoCatFixture
    instance: BilimitInstance
    path: Path


@dataclass(eq=False)
class ProbeFixture:
    category: FinCat
    path: Path


@dataclass(eq=False)
class FunctorPairFixture:
    source: FinCat
    target: FinCat
    left: Functor
    right: Functor
    path: Path


def content_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _read(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FixtureError(path, f"cannot read document: {exc}")


def load_fixture(path: str | Path, cache: dict | None = None):
    """Load and validate any fixture document, dispatching on its kind."""
    path = Path(path)
    cache = cache if cache is not None else {}
    key = str(path.resolve())
    if key in cache:
        return cache[key]
    doc = _read(path)
    kind = doc.get("kind")
    try:
        if kind == "fincat":
            out = ProbeFixture(validate_fincat(doc, doc.get("name")), path)
        elif kind == "twocat":
            out = _load_twocat(doc, path)
        elif kind == "diagram":
            out = _load_diagram(doc, path, cache)
        elif kind == "map":
            out = _load_map(doc, path, cache)
        elif kind == "idempotent":
            out = _load_idempotent(doc, path)
        elif kind == "parallel":
            out = _load_parallel(doc, path, cache)
        elif kind == "bilimit_instance":
            out = _load_instance(doc, path, cache)
        elif kind == "functor_pair":
            source = validate_fincat(doc["source"], f"{doc['name']}@source")
            target = validate_fincat(doc["target"], f"{doc['name']}@target")
            out = FunctorPairFixture(
                source,
                target,
                _functor_from_body(f"{doc['name']}.left", source, target, doc["left"]),
                _functor_from_body(f"{doc['name']}.right", source, target, doc["right"]),
                path,
            )
        else:
            raise FixtureError(path, f"unknown fixture kind {kind!r}")
    except ValidationError as exc:
        raise FixtureError(path, str(exc))
    cache[key] = out
    return out


def _load_twocat(doc: dict, path: Path) -> TwoCatFixture:
    tc = validate_twocat(doc)
    sigma = {}
    for name, members in doc.get("sigma", {}).items():
        sigma[name] = SigmaClass(tc, frozenset(members), name)
    return TwoCatFixture(tc, sigma, path)


def _functor_from_body(name: str, source: FinCat, target: FinCat, body: dict) -> Functor:
    return build_functor(name, source, target, body["objects"], body["morphisms"])


def _load_diagram(doc: dict, path: Path, cache: dict) -> DiagramFixture:
    index = load_fixture(path.parent / doc["index"], cache)
    if not isinstance(index, TwoCatFixture):
        raise FixtureError(path, "diagram index is not a 2-category fixture")
    pf = validate_pseudofunctor(doc, index.twocat)
    return DiagramFixture(pf, index, doc.get("sigma"), doc.get("expect", {}), path)


def _load_map(doc: dict, path: Path, cache: dict) -> MapFixture:
    source = load_fixture(path.parent / doc["source"], cache)
    target = load_fixture(path.parent / doc["target"], cache)
    fn = build_twofunctor(
        doc["name"], source.twocat, target.twocat, doc["on0"], doc["on1"], doc["on2"]
    )
    diagram = None
    if doc.get("diagram"):
        diagram = load_fixture(path.parent / doc["diagram"], cache)
    return MapFixture(
        fn,
        source,
        target,
        doc.get("sigma_source", "all"),
        doc.get("sigma_target", "all"),
        bool(doc["expect_cofinal"]),
        diagram,
        path,
    )


def _load_idempotent(doc: dict, path: Path) -> IdempotentFixture:
    carrier = validate_fincat(doc["carrier"], f"{doc['name']}@carrier")
    endo = _functor_from_body(f"{doc['name']}.e", carrier, carrier, doc["endo"])
    mult = build_nattrans(
        f"{doc['name']}.mult",
        compose_functors(endo, endo),
        endo,
        doc["mult"]["components"],
    )
    return IdempotentFixture(validate_pseudoidempotent(carrier, endo, mult), path)


def _load_parallel(doc: dict, path: Path, cache: dict) -> ParallelFixture:
    left = load_fixture(path.parent / doc["left"], cache)
    right = load_fixture(path.parent / doc["right"], cache)
    u = {}
    v = {}
    for i, body in doc["u"].items():
        u[i] = _functor_from_body(
            f"{doc['name']}.u@{i}", left.functor.on0[i], right.functor.on0[i], body
        )
    for i, body in doc["v"].items():
        v[i] = _functor_from_body(
            f"{doc['name']}.v@{i}", left.functor.on0[i], right.functor.on0[i], body
        )
    return ParallelFixture(left, right, u, v, path)


def _load_instance(doc: dict, path: Path, cache: dict) -> InstanceFixture:
    """A bilimit instance, refused unless its cone is a bilimit cone in its base."""
    base = load_fixture(path.parent / doc["twocat"], cache)
    if not isinstance(base, TwoCatFixture):
        raise FixtureError(path, "instance base is not a 2-category fixture")
    instance = BilimitInstance(doc.get("shape"), dict(doc.get("data", {})))
    bad = validate_bilimit_instance(base.twocat, instance)
    if bad:
        raise FixtureError(path, "not a bilimit instance: " + "; ".join(bad))
    return InstanceFixture(base, instance, path)


# ---------------------------------------------------------------------------
# Emission


def fincat_doc(cat: FinCat, name: str | None = None) -> dict:
    return {"kind": "fincat", "name": name or cat.name, **cat.describe()}


def twocat_doc(tc: TwoCat, sigma: dict[str, list[str]] | None = None) -> dict:
    doc = describe_twocat(tc)
    if sigma:
        doc["sigma"] = {k: sorted(v) for k, v in sorted(sigma.items())}
    return doc


def functor_body(fun: Functor) -> dict:
    return {
        "objects": dict(sorted(fun.obj_map.items())),
        "morphisms": dict(sorted(fun.mor_map.items())),
    }


def nattrans_body(nt: NatTrans) -> dict:
    return {"components": dict(sorted(nt.components.items()))}


def diagram_doc(
    pf: CatPseudoFunctor,
    index_path: str,
    sigma: str | None = None,
    expect: dict | None = None,
) -> dict:
    tc = pf.source
    doc: dict[str, Any] = {
        "kind": "diagram",
        "name": pf.name,
        "index": index_path,
        "fibers": {i: pf.on0[i].describe() for i in sorted(tc.cells0)},
        "on1": {f: functor_body(pf.on1[f]) for f in sorted(tc.one_home)},
        "on2": {a: nattrans_body(pf.on2[a]) for a in sorted(tc.two_home)},
    }
    if pf.is_strict():
        doc["comparisons"] = "strict"
    else:
        doc["comparisons"] = {
            "comp": {
                f"{g}|{f}": nattrans_body(nt) for (g, f), nt in sorted(pf.comp.items())
            },
            "unit": {i: nattrans_body(nt) for i, nt in sorted(pf.unit_c.items())},
        }
    if sigma:
        doc["sigma"] = sigma
    if expect:
        doc["expect"] = expect
    return doc


def map_doc(
    fn: TwoFunctor,
    source_path: str,
    target_path: str,
    expect_cofinal: bool,
    sigma_source: str = "all",
    sigma_target: str = "all",
    diagram_path: str | None = None,
) -> dict:
    return {
        "kind": "map",
        "name": fn.name,
        "source": source_path,
        "target": target_path,
        "on0": dict(sorted(fn.on0.items())),
        "on1": dict(sorted(fn.on1.items())),
        "on2": dict(sorted(fn.on2.items())),
        "sigma_source": sigma_source,
        "sigma_target": sigma_target,
        "expect_cofinal": expect_cofinal,
        "diagram": diagram_path,
    }


def idempotent_doc(name: str, p: Pseudoidempotent) -> dict:
    return {
        "kind": "idempotent",
        "name": name,
        "carrier": p.carrier.describe(),
        "endo": functor_body(p.endo),
        "mult": nattrans_body(p.mult),
    }


def parallel_doc(name: str, left_path: str, right_path: str, u: dict[str, Functor], v: dict[str, Functor]) -> dict:
    return {
        "kind": "parallel",
        "name": name,
        "left": left_path,
        "right": right_path,
        "u": {i: functor_body(f) for i, f in sorted(u.items())},
        "v": {i: functor_body(f) for i, f in sorted(v.items())},
    }


def instance_doc(name: str, twocat_path: str, instance: BilimitInstance) -> dict:
    return {
        "kind": "bilimit_instance",
        "name": name,
        "twocat": twocat_path,
        "shape": instance.kind,
        "data": dict(sorted(instance.data.items())),
    }


def dump(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
