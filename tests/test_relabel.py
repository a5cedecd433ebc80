"""Verdicts must not depend on how cells are named.

Every cell name of every bundled fixture is mapped injectively onto a name
holding the separators that derived names are built with, and the verify
suite must report the same lemmas over the relabelled corpus as over the
bundled one.  Two diagrams cannot be relabelled this way (see ``REFUSED``);
both sides leave them out.
"""

from __future__ import annotations

import json
from pathlib import Path

from support import BUNDLED

from bicolim.fixtures import FixtureError, content_hash, load_fixture
from bicolim.verify import Suite

GOLDEN = Path(__file__).parent / "golden" / "verify_machine.json"

# the keys whose string values name no cell: fixture kinds, bilimit shapes,
# class names and "strict" comparisons
KEPT_STRINGS = {"kind", "shape", "comparisons", "sigma", "sigma_source", "sigma_target"}
# dicts whose keys are cell names
CELL_KEYED = {
    "fibers", "on0", "on1", "on2", "identities", "objects", "morphisms",
    "components", "units", "u", "v", "unit", "comp",
}


def label(name: str) -> str:
    return f"<{name}|.,:()[]>"


def relabel(doc, key: str | None = None):
    """``doc`` with every cell name replaced by its label; ``key`` is the
    dict key ``doc`` sits under.  Paths to other fixtures are kept."""
    if isinstance(doc, dict):
        return {
            (_relabel_key(k, key) if key in CELL_KEYED else k): relabel(v, k)
            for k, v in doc.items()
        }
    if isinstance(doc, list):
        return [relabel(x) for x in doc]
    if isinstance(doc, str) and key not in KEPT_STRINGS and not doc.endswith(".json"):
        return label(doc)
    return doc


def _relabel_key(k: str, key: str) -> str:
    # a pseudofunctor's comparison cells are keyed "g|f"
    if key == "comp":
        g, f = k.split("|")
        return f"{label(g)}|{label(f)}"
    return label(k)


def write_corpus(source: Path, target: Path, skip=(), transform=lambda doc: doc) -> Path:
    target.mkdir()
    for path in sorted(source.glob("*.json")):
        if path.name not in skip:
            (target / path.name).write_text(json.dumps(transform(json.loads(path.read_text()))))
    return target


# Finding: a pseudofunctor document keys its comparison cells "g|f", and
# ``validate_pseudofunctor`` refuses a key that does not split into two names
# at a single "|".  Labels that hold "|" therefore cannot be loaded from the
# two bundled diagrams with non-strict comparisons; every other fixture can.
REFUSED = ("collapse_pair.diagram.json", "twisted_iso.diagram.json")


def test_relabelled_comparison_keys_are_refused_at_load(tmp_path):
    corpus = write_corpus(BUNDLED, tmp_path / "relabelled", transform=relabel)
    refused = []
    for path in sorted(corpus.glob("*.json")):
        try:
            load_fixture(path)
        except FixtureError as exc:
            assert "is not one 'g|f' pair" in str(exc)
            refused.append(path.name)
    assert tuple(refused) == REFUSED


def test_relabelled_corpus_verifies_like_the_bundled_one(tmp_path):
    relabelled = write_corpus(BUNDLED, tmp_path / "relabelled", REFUSED, relabel)
    plain = write_corpus(BUNDLED, tmp_path / "plain", REFUSED)
    assert all(
        content_hash(relabelled / p.name) != content_hash(p) for p in plain.glob("*.json")
    )
    lemmas = Suite(relabelled).run()["lemmas"]
    assert lemmas == Suite(plain).run()["lemmas"]
    # the two refused diagrams hold 8 of the golden report's instances
    golden = json.loads(GOLDEN.read_text())["lemmas"]
    assert sum(s["pass"] for s in golden.values()) - sum(s["pass"] for s in lemmas.values()) == 8


def test_relabelling_reaches_every_cell_name():
    doc = relabel(json.loads((BUNDLED / "collapse_pair.diagram.json").read_text()))
    text = json.dumps(doc)
    assert '"id_' not in text and '"le_' not in text
    assert all(k.count("|") == 3 for k in doc["comparisons"]["comp"])
