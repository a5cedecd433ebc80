"""Spans around calls into bicolim's modules, recorded from outside the library.

:class:`Tracer` rebinds each function named in :data:`SPANNED`, while it is
installed, in every ``bicolim`` module namespace that holds it (``cli`` and
``compact``, for example, import ``bifiltered_bicolimit`` by name), so calls
made inside the library are seen as well as calls made by the benchmark.
Each call becomes a span ``[name, start, end, parent, run, outermost]`` kept
in memory; :func:`write_spans` saves them once, at the end of a run.
Leaving :meth:`Tracer.installed` puts every original back.

``FinCat.hom`` is only counted, never spanned: verify makes about 144k calls.
The verify suite's task closures get one span each, named after the lemma
family they record into (``cli.verify.<lemma>``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

SPANNED: dict[str, tuple[str, ...]] = {
    "fixtures": ("load_fixture",),
    "fincat": (
        "build_fincat",
        "fincat_violations",
        "functor_category",
        "check_equivalence",
        "functor_is_equivalence",
    ),
    "twocat": (
        "build_twocat",
        "twocat_violations",
        "build_pseudofunctor",
        "pseudofunctor_violations",
        "sigma_closure",
    ),
    "filtered": (
        "check_bifiltered",
        "check_sigma_filtered",
        "trivialization_check",
        "check_sigma_cofinal",
        "triangle_completion",
    ),
    "colim": ("bifiltered_bicolimit", "sigma_bicolimit", "validate_cocone"),
    "compact": ("check_bicompact_against", "mapped_diagram"),
    "bilim": ("commute_biproduct", "commute_cotensor", "commute_biequalizer"),
    "flat": ("check_flat", "decompose_flat", "check_flat_preserves_bilimits"),
    "lexkit": ("verify_lex_bicolimit",),
}

# verify task-name prefix -> lemma family it records into
TASK_LEMMA = {
    "coherence": "checker-coherence",
    "trivialization": "trivialization",
    "triangle": "triangle",
    "sigma-colimit": "trivialization-colimit",
    "coequification": "coequification",
    "coequification-sigma": "coequification",
    "bicompact": "bicompact",
    "bicompact-closure": "bicompact-closure",
    "flat": "flatness",
    "commutation:biproduct": "commutation-biproduct",
    "commutation:cotensor": "commutation-cotensor",
    "commutation:biequalizer": "commutation-biequalizer",
    "splitting": "splitting",
    "lex-closure": "lex-closure",
    "cofinality": "cofinality",
    "preservation": "flat-preserves-bilimits",
}


def lemma_of(task_name: str) -> str:
    parts = task_name.split(":")
    head = ":".join(parts[:2]) if parts[0] == "commutation" else parts[0]
    return TASK_LEMMA.get(head, head)


def _negative(result: Any) -> dict[str, int]:
    return {"filtered.negative_verdicts": 0 if result.outcome else 1}


# span name -> counts read off the call's result
OBSERVERS: dict[str, Callable[[Any], dict[str, int]]] = {
    "fincat.functor_category": lambda r: {
        "fincat.functor_category.morphisms": len(r.category.dom)
    },
    # sigma_bicolimit reuses the classes of its inner bifiltered_bicolimit
    # call, so counting here alone counts every quotient exactly once
    "colim.bifiltered_bicolimit": lambda r: {
        "colim.premorphisms": len(r.classes),
        "colim.classes": len(r.class_rep),
    },
    "lexkit.verify_lex_bicolimit": lambda r: {"lexkit.sampled_diagrams": r.sampled_diagrams},
    "filtered.check_bifiltered": _negative,
    "filtered.check_sigma_filtered": _negative,
    "filtered.check_sigma_cofinal": _negative,
}


def bicolim_modules() -> list[Any]:
    importlib.import_module("bicolim.cli")
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "bicolim" or name.startswith("bicolim.")
    ]


class Tracer:
    def __init__(self, run: int = 0) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run = run
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._trips: list[BaseException] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        from bicolim.fincat import SizeGuardError

        spans, stack, opened = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, opened[name] == 0]
            spans.append(record)
            stack.append(index)
            opened[name] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SizeGuardError as exc:
                if not any(exc is seen for seen in self._trips):
                    self._trips.append(exc)
                    self.counts["fincat.size_guard_trips"] += 1
                raise
            finally:
                record[2] = perf_counter()
                opened[name] -= 1
                stack.pop()
            if observe is not None:
                self.counts.update(observe(result))
            return result

        return traced

    # -- installing ------------------------------------------------------------

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = bicolim_modules()
        for modname, names in SPANNED.items():
            home = importlib.import_module(f"bicolim.{modname}")
            for fname in names:
                original = getattr(home, fname)
                name = f"{modname}.{fname}"
                traced = self.wrap(name, original, OBSERVERS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, traced)

        from bicolim.cli import Suite
        from bicolim.fincat import FinCat

        hom, tasks, counts = FinCat.hom, Suite.tasks, self.counts

        def counted_hom(cat, a, b):
            counts["fincat.FinCat.hom.calls"] += 1
            return hom(cat, a, b)

        def traced_tasks(suite):
            return [
                (task, self.wrap(f"cli.verify.{lemma_of(task)}", run))
                for task, run in tasks(suite)
            ]

        self._rebind(FinCat, "hom", counted_hom)
        self._rebind(Suite, "tasks", traced_tasks)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- summarising -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per span name: ``.s`` (outermost spans only, so recursion is not
        counted twice), ``.self_s`` (duration minus the time covered by direct
        children) and ``.calls``."""
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _, _, outermost) in enumerate(self.spans):
            if outermost:
                out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[index]
            calls[f"{name}.calls"] += 1
        return {**out, **calls}


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One JSON line per span: name, start, end, parent (index within its run), run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for tracer in tracers:
            for name, start, end, parent, run, _ in tracer.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")
