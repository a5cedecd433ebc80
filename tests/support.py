"""Helpers shared by several test modules."""

from __future__ import annotations

from pathlib import Path

from bicolim import corpus
from bicolim.colim import bifiltered_bicolimit

BUNDLED = Path(corpus.__file__).parent / "corpus"


def colim_of(name):
    return bifiltered_bicolimit(corpus.DIAGRAM_BUILDERS[name]())


def corpus_fixtures(suffix: str) -> list[Path]:
    return sorted(BUNDLED.glob(f"*.{suffix}.json"))
