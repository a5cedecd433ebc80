from __future__ import annotations

from pathlib import Path

import bicolim
from bicolim.corpus import write_corpus

BUNDLED = Path(bicolim.__file__).resolve().parent / "corpus"


def test_bundled_corpus_matches_generator(tmp_path):
    written = write_corpus(tmp_path)
    bundled = sorted(p.name for p in BUNDLED.glob("*.json"))
    assert len(bundled) == 45
    assert sorted(written) == bundled
    assert sorted(p.name for p in tmp_path.iterdir()) == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (BUNDLED / name).read_bytes(), name
