"""The corpus verify suite: the source paper's lemmas replayed over fixtures.

Each task checks one lemma on one instance and records its outcome; a
failure's replay line, ``bicolim verify --only <task>``, reruns that task
alone.  :meth:`Suite.run` returns the report that ``bicolim verify``
prints; it embeds the content hash of every fixture and nothing
run-dependent, and ``seed_order`` permutes the task schedule only.

Bicompact and bicompact-closure are decided on the cofinal core: colim(F∘J)
for J the inclusion of the full sub-2-category on one 0-cell of F's index
that :func:`filtered.cofinal_core` finds (the whole index when there is
none), searched once per index.  colim(F∘J) ≃ colim F by the cofinality
theorem, and bicompactness is invariant under equivalence of the colimit, so
the comparison is built over the core's stages only.  The other lemmas that
read colim F test the quotient itself and take the full one; commutation
forms its right-hand bilimit over the skeleton of colim F.

Instances are read off the fixtures.  Each lemma runs over every fixture of
the kinds it takes, and a bilimit instance is paired with the diagrams
indexed by its base whose ``expect`` pins them flat.  Only the lemmas in
:data:`NAMED_DIAGRAMS` name bundled diagrams; on a corpus that lacks those
diagrams they record nothing.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import cached_property, partial
from pathlib import Path
from typing import Any, Callable

from . import zoo
from .bilim import (
    biequalizer,
    biproduct,
    commute_biequalizer,
    commute_biproduct,
    commute_cotensor,
    split_pseudoidempotent,
)
from .colim import ColimitCat, bifiltered_bicolimit, premorphism_equal, sigma_bicolimit
from .compact import check_bicompact_against
from .filtered import (
    check_bifiltered,
    check_sigma_cofinal,
    check_sigma_filtered,
    class_subcategory,
    cofinal_core,
    revalidate_triangle,
    triangle_completion,
    trivialization_check,
)
from .fincat import (
    FinCat,
    SizeGuardError,
    ValidationError,
    check_equivalence,
    compose_functors,
    identity_functor,
    nattrans_violations,
)
from .fixtures import (
    DiagramFixture,
    IdempotentFixture,
    InstanceFixture,
    MapFixture,
    ParallelFixture,
    ProbeFixture,
    TwoCatFixture,
    content_hash,
    load_fixture,
)
from .flat import NotFlatError, check_flat, check_flat_preserves_bilimits, decompose_flat
from .lexkit import NotLexError, verify_lex_bicolimit
from .twocat import (
    CatPseudoFunctor,
    SigmaClass,
    TwoCat,
    all_one_cells,
    inclusion_twofunctor,
    precompose_pseudofunctor,
    restrict_pseudofunctor,
    sigma_closure,
)

# lemma -> the bundled diagrams of each instance it checks
NAMED_DIAGRAMS: dict[str, tuple[tuple[str, ...], ...]] = {
    "bicompact-closure": (("two_cellular.diagram.json",), ("endo_proj.diagram.json",)),
    "commutation-biproduct": (
        ("const_arrow.diagram.json", "par_right.diagram.json"),
        ("par_left.diagram.json", "par_right.diagram.json"),
    ),
    "commutation-cotensor": (
        ("const_arrow.diagram.json",),
        ("chain_incl.diagram.json",),
        ("two_cellular.diagram.json",),
    ),
}


# ---------------------------------------------------------------------------
# Checks: each returns whether the lemma holds on one instance (a bool, or a
# Verdict from the library), or None for an instance the lemma does not apply
# to


def _coherence(tc: TwoCat) -> bool:
    lhs = check_bifiltered(tc).outcome
    return lhs == check_sigma_filtered(tc, all_one_cells(tc)).outcome


def _trivialization(tc: TwoCat, sigma: SigmaClass) -> bool:
    return trivialization_check(tc, sigma).agree


def _triangle(tc: TwoCat, sigma: SigmaClass) -> bool | None:
    closed = sigma_closure(sigma)
    if not check_sigma_filtered(tc, closed):
        return None
    ok = True
    for d in tc.one_cells:
        w = triangle_completion(tc, closed, d)
        if not revalidate_triangle(tc, closed, w):
            ok = False
    return ok


def _trivialization_colimit(fx: DiagramFixture) -> bool:
    closed = sigma_closure(fx.index.sigma_named(fx.sigma_name))
    if not check_sigma_filtered(fx.functor.source, closed):
        return False
    relative = sigma_bicolimit(fx.functor, closed)
    sub = class_subcategory(fx.functor.source, closed)
    restricted = bifiltered_bicolimit(restrict_pseudofunctor(fx.functor, sub), precheck=False)
    return bool(check_equivalence(relative.result, restricted.result))


def _coequification(colim: ColimitCat) -> bool:
    pf = colim.diagram
    ok = True
    for i in sorted(pf.source.cells0):
        fib = pf.on0[i]
        for f in fib.morphisms:
            for g in fib.morphisms:
                if fib.dom[f] != fib.dom[g] or fib.cod[f] != fib.cod[g]:
                    continue
                p = colim.fiber_premorphism(i, f)
                q = colim.fiber_premorphism(i, g)
                identified = premorphism_equal(colim, p, q)
                oracle = False
                for v in sorted(pf.source.one_cells):
                    if pf.source.one_home[v][0] != i:
                        continue
                    if colim.sigma is not None and v not in colim.sigma.members:
                        continue
                    if pf.on1[v].mor_map[f] == pf.on1[v].mor_map[g]:
                        oracle = True
                        break
                if identified != oracle:
                    ok = False
    return ok


def _bicompact(probes: list[FinCat], colim: ColimitCat) -> bool:
    return all(check_bicompact_against(p, colim).outcome for p in probes)


def _flatness(fx: DiagramFixture) -> bool:
    try:
        flat, decomposed = True, decompose_flat(fx.functor).ok
    except NotFlatError:
        flat, decomposed = False, True
    return ("flat" not in fx.expect or flat == fx.expect["flat"]) and decomposed


def _splitting(fx: IdempotentFixture) -> bool:
    s = split_pseudoidempotent(fx.value)
    roundtrip = compose_functors(s.retraction, s.section)
    return (
        roundtrip.obj_map == fx.value.endo.obj_map
        and roundtrip.mor_map == fx.value.endo.mor_map
        and s.alpha.is_invertible()
        and s.beta.is_invertible()
        and not nattrans_violations(s.alpha)
        and not nattrans_violations(s.beta)
    )


def _cofinality(fx: MapFixture) -> bool:
    s_src = fx.source.sigma_named(fx.sigma_source)
    s_tgt = fx.target.sigma_named(fx.sigma_target)
    verdict = check_sigma_cofinal(fx.functor, s_src, s_tgt)
    ok = verdict.outcome == fx.expect_cofinal
    if verdict.outcome:
        src_filtered = check_sigma_filtered(fx.functor.source, s_src)
        preserves = all(
            fx.functor.on1[f] in sigma_closure(s_tgt).members
            for f in sigma_closure(s_src).members
        )
        if src_filtered and preserves:
            if not check_sigma_filtered(fx.functor.target, s_tgt):
                ok = False
        if fx.diagram is not None and src_filtered and preserves:
            # compare the class-relative colimits on both sides
            outer = sigma_bicolimit(fx.diagram.functor, sigma_closure(s_tgt))
            inner = sigma_bicolimit(
                precompose_pseudofunctor(fx.diagram.functor, fx.functor),
                sigma_closure(s_src),
            )
            if not check_equivalence(outer.result, inner.result):
                ok = False
    return ok


def _preservation(fx: InstanceFixture, paired: list[DiagramFixture]) -> bool | None:
    ok = True
    checked = 0
    for diagram in paired:
        pf = diagram.functor
        if not check_flat(pf):
            ok = False
            continue
        checked += 1
        if not check_flat_preserves_bilimits(pf, fx.instance):
            ok = False
    # a paired diagram that is not flat fails the instance even when none
    # was left to check
    return ok if checked or not ok else None


# ---------------------------------------------------------------------------
# The suite


class Suite:
    def __init__(self, corpus: Path):
        self.corpus = corpus
        self.cache: dict = {}
        self.lemmas: dict[str, dict[str, Any]] = {}
        self.fixtures: dict[str, Any] = {}
        # colim F of each bifiltered diagram, computed by the first task
        # that needs it; the fixture cache gives each file one functor
        self.colimits: dict[CatPseudoFunctor, ColimitCat] = {}
        # the cofinal core of each index, found once however many diagrams
        # share the index, and colim(F∘J) over it, computed like colim F
        self.cores: dict[TwoCat, TwoCat] = {}
        self.core_colimits: dict[CatPseudoFunctor, ColimitCat] = {}

    def load_all(self) -> None:
        for path in sorted(self.corpus.glob("*.json")):
            self.fixtures[path.name] = load_fixture(path, self.cache)

    def _task(
        self, lemma: str, task: str, instance: str, check: Callable[[], Any]
    ) -> Callable[[], None]:
        """A task that runs ``check`` and records its outcome under ``lemma``.

        A check that returns None does not apply, and nothing is recorded.
        A failure's replay line, ``bicolim verify --only <task>``, reruns
        this task alone.  An instance the size guard stopped, whose diagram
        fails the lemma's lex precondition, or whose diagram a construction
        refused (a lex claim over an index that is not bifiltered) went
        unchecked, so it is a failure whose replay line carries the reason.
        """
        replay = f"bicolim verify --only {task}"

        def run() -> None:
            try:
                ok = check()
            except SizeGuardError as exc:
                ok, line = False, f"{replay}  # size guard: {exc}"
            except (NotLexError, ValidationError) as exc:
                ok, line = False, f"{replay}  # {exc}"
            else:
                line = replay
            if ok is None:
                return
            slot = self.lemmas.setdefault(lemma, {"pass": 0, "fail": 0, "failures": []})
            if ok:
                slot["pass"] += 1
            else:
                slot["fail"] += 1
                slot["failures"].append({"instance": instance, "replay": line})

        return run

    def _colimit(self, pf: CatPseudoFunctor) -> ColimitCat:
        """colim F of a bifiltered diagram, computed once per suite."""
        if pf not in self.colimits:
            self.colimits[pf] = bifiltered_bicolimit(pf)
        return self.colimits[pf]

    def _core_colimit(self, pf: CatPseudoFunctor) -> ColimitCat:
        """colim(F∘J) for J the inclusion of the cofinal core of F's index,
        computed once per suite; colim F itself when the core has every
        0-cell of the index."""
        if pf not in self.core_colimits:
            if pf.source not in self.cores:
                self.cores[pf.source] = cofinal_core(pf.source)
            core = self.cores[pf.source]
            if len(core.cells0) == len(pf.source.cells0):
                self.core_colimits[pf] = self._colimit(pf)
            else:
                restricted = precompose_pseudofunctor(pf, inclusion_twofunctor(core, pf.source))
                self.core_colimits[pf] = bifiltered_bicolimit(restricted)
        return self.core_colimits[pf]

    def _task_bicompact(
        self, task: str, probe: FinCat, instance: str, fx: DiagramFixture
    ) -> Callable[[], None]:
        return self._task(
            "bicompact", task, instance,
            lambda: _bicompact([probe], self._core_colimit(fx.functor)),
        )

    @cached_property
    def _derived_probes(self) -> list[FinCat]:
        """Probes made by finite bilimits: point × arrow, and the
        biequalizer of the identity on the arrow with itself."""
        product = biproduct(zoo.terminal(), zoo.walking_arrow()).category
        arrow = zoo.walking_arrow()
        return [product, biequalizer(identity_functor(arrow), identity_functor(arrow)).category]

    def tasks(self) -> list[tuple[str, Callable[[], None]]]:
        """Every task, as (task id, task); the id is ``<prefix>:<instance>``."""
        kinds: dict[type, dict[str, Any]] = defaultdict(dict)
        for name, fx in sorted(self.fixtures.items()):
            kinds[type(fx)][name] = fx
        diagrams: dict[str, DiagramFixture] = kinds[DiagramFixture]
        sigma_diagrams = {n: fx for n, fx in diagrams.items() if fx.sigma_name}
        out: list[tuple[str, Callable[[], None]]] = []

        def add(prefix: str, lemma: str, instance: str, check, *args) -> None:
            task = f"{prefix}:{instance}"
            out.append((task, self._task(lemma, task, instance, partial(check, *args))))

        def add_named(prefix: str, lemma: str, pool: dict[str, DiagramFixture], colimit, check):
            """A task for each instance of ``lemma`` in :data:`NAMED_DIAGRAMS`
            whose diagrams are all in ``pool``; ``check`` takes their
            colimits, which the instance computes on first use."""
            for names in NAMED_DIAGRAMS[lemma]:
                if all(n in pool for n in names):
                    add(prefix, lemma, "x".join(names), lambda fs: check(*map(colimit, fs)),
                        [pool[n].functor for n in names])

        for name, fx in kinds[TwoCatFixture].items():
            tc = fx.twocat
            add("coherence", "checker-coherence", name, _coherence, tc)
            for cname, sigma in [("all", all_one_cells(tc)), *sorted(fx.sigma.items())]:
                add("trivialization", "trivialization", f"{name}:{cname}", _trivialization, tc, sigma)
                add("triangle", "triangle", f"{name}:{cname}", _triangle, tc, sigma)

        bifiltered = {n: fx for n, fx in diagrams.items() if check_bifiltered(fx.index.twocat)}
        for name, fx in sigma_diagrams.items():
            add("sigma-colimit", "trivialization-colimit", name, _trivialization_colimit, fx)
        for name, fx in bifiltered.items():
            add("coequification", "coequification", f"{name}:bifiltered",
                lambda pf: _coequification(self._colimit(pf)), fx.functor)
        for name, fx in sigma_diagrams.items():
            add("coequification-sigma", "coequification", f"{name}:{fx.sigma_name}",
                lambda fx: _coequification(
                    sigma_bicolimit(fx.functor, fx.index.sigma_named(fx.sigma_name))
                ), fx)

        for pname, probe in kinds[ProbeFixture].items():
            for dname, fx in bifiltered.items():
                instance = f"{pname}:{dname}"
                task = f"bicompact:{instance}"
                out.append((task, self._task_bicompact(task, probe.category, instance, fx)))
        add_named("bicompact-closure", "bicompact-closure", bifiltered, self._core_colimit,
                  lambda colim: _bicompact(self._derived_probes, colim))

        for name, fx in diagrams.items():
            add("flat", "flatness", name, _flatness, fx)

        add_named("commutation:biproduct", "commutation-biproduct", diagrams, self._colimit,
                  commute_biproduct)
        add_named("commutation:cotensor", "commutation-cotensor", bifiltered, self._colimit,
                  commute_cotensor)
        for name, fx in kinds[ParallelFixture].items():
            add("commutation:biequalizer", "commutation-biequalizer", name,
                lambda fx: commute_biequalizer(
                    self._colimit(fx.left.functor), self._colimit(fx.right.functor), fx.u, fx.v
                ), fx)

        for name, fx in kinds[IdempotentFixture].items():
            add("splitting", "splitting", name, _splitting, fx)

        for name, fx in diagrams.items():
            if fx.expect.get("lex"):
                add("lex-closure", "lex-closure", name,
                    lambda pf: verify_lex_bicolimit(self._colimit(pf)).ok, fx.functor)

        for name, fx in kinds[MapFixture].items():
            add("cofinality", "cofinality", name, _cofinality, fx)

        for name, fx in kinds[InstanceFixture].items():
            # one fixture cache, so every file that names the base holds one object
            paired = [d for d in diagrams.values() if d.index is fx.base and d.expect.get("flat")]
            add("preservation", "flat-preserves-bilimits", name, _preservation, fx, paired)
        return out

    # -- driving -------------------------------------------------------------

    def run(self, seed_order: int = 0, only: str | None = None) -> dict[str, Any]:
        """The report; ``only`` names the one task to run, as a replay line does."""
        self.load_all()
        tasks = self.tasks()
        if only is not None:
            tasks = [(task, run) for task, run in tasks if task == only]
            if not tasks:
                raise ValidationError("verify", [f"no task {only!r} over this corpus"])
        if seed_order:
            rng = random.Random(seed_order)
            rng.shuffle(tasks)
        for _, task in tasks:
            task()
        report = {
            "corpus": {
                name: content_hash(self.corpus / name) for name in sorted(self.fixtures)
            },
            "lemmas": {
                name: {
                    "pass": slot["pass"],
                    "fail": slot["fail"],
                    "failures": sorted(slot["failures"], key=lambda r: r["instance"]),
                }
                for name, slot in sorted(self.lemmas.items())
            },
        }
        report["ok"] = all(slot["fail"] == 0 for slot in self.lemmas.values())
        report["fixture_count"] = len(self.fixtures)
        return report
