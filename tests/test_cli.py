from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bicolim import cli, verify
from bicolim.cli import default_corpus, main
from bicolim.verdict import negative
from bicolim.verify import Suite

CORPUS = default_corpus()


def run_cli(*argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fixture(name: str) -> str:
    return str(CORPUS / name)


def test_check_bifiltered_positive(capsys):
    code, out, _ = run_cli("check", "bifiltered", fixture("poset_top.twocat.json"), capsys=capsys)
    assert code == 0
    assert "positive" in out


def test_check_bifiltered_negative_with_counterexample(capsys):
    code, out, _ = run_cli("check", "bifiltered", fixture("discrete2.twocat.json"), capsys=capsys)
    assert code == 1
    assert "span" in out


def test_check_sigma_filtered_with_named_class(capsys):
    code, out, _ = run_cli(
        "check", "sigma-filtered", fixture("laxtriangle.twocat.json"), "--sigma", "lax", capsys=capsys
    )
    assert code == 0


def test_check_cofinal(capsys):
    code, _, _ = run_cli("check", "cofinal", fixture("chain_into_top.map.json"), capsys=capsys)
    assert code == 0
    code, _, _ = run_cli("check", "cofinal", fixture("point_into_top.map.json"), capsys=capsys)
    assert code == 1


def test_missing_fixture_exits_two(capsys):
    code, _, err = run_cli("flat", "check", fixture("missing.json"), capsys=capsys)
    assert code == 2
    assert "error" in err


def test_malformed_fixture_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"kind": "fincat", "name": "x", "objects": ["a"]}')
    code, _, err = run_cli("check", "bifiltered", str(bad), capsys=capsys)
    assert code == 2


def test_machine_format_is_json(capsys):
    code, out, _ = run_cli(
        "check", "bifiltered", fixture("poset_top.twocat.json"), "--format", "machine", capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] is True
    assert payload["witnesses"]


def test_colimit_command_with_emit(tmp_path, capsys):
    out_path = tmp_path / "colim.json"
    code, out, _ = run_cli(
        "colimit", fixture("const_arrow.diagram.json"), "--emit", str(out_path), capsys=capsys
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "fincat"
    assert set(doc["cocone"]) == {"a", "b", "top"}
    # the emitted document is itself a valid category fixture
    from bicolim.fixtures import load_fixture

    emitted = load_fixture(out_path)
    assert len(emitted.category.objects) == 6


def test_sigma_colimit_command(capsys):
    code, out, _ = run_cli(
        "colimit", fixture("lax_fill.diagram.json"), "--sigma", "lax", capsys=capsys
    )
    assert code == 0


def test_bilim_commands(tmp_path, capsys):
    code, _, _ = run_cli(
        "bilim", "product", fixture("probe_point.fincat.json"), fixture("probe_arrow.fincat.json"),
        capsys=capsys,
    )
    assert code == 0
    code, _, _ = run_cli("bilim", "cotensor", fixture("probe_arrow.fincat.json"), capsys=capsys)
    assert code == 0
    code, _, _ = run_cli("bilim", "equalizer", fixture("funcpair_iso.functor_pair.json"), capsys=capsys)
    assert code == 0
    code, _, _ = run_cli("bilim", "split", fixture("idem_identity.idempotent.json"), capsys=capsys)
    assert code == 0
    code, _, _ = run_cli("bilim", "pseudolimit", fixture("const_arrow.diagram.json"), capsys=capsys)
    assert code == 0


def test_flat_commands(tmp_path, capsys):
    code, _, _ = run_cli("flat", "check", fixture("repr_poset_bottom_bot.diagram.json"), capsys=capsys)
    assert code == 0
    code, _, _ = run_cli("flat", "check", fixture("nonflat_empty.diagram.json"), capsys=capsys)
    assert code == 1
    report = tmp_path / "rep.json"
    code, _, _ = run_cli(
        "flat", "decompose", fixture("repr_poset_bottom_bot.diagram.json"),
        "--report", str(report), capsys=capsys,
    )
    assert code == 0
    assert json.loads(report.read_text())["ok"] is True


def test_compact_command(capsys):
    code, _, _ = run_cli(
        "compact", "check", fixture("probe_point.fincat.json"), fixture("const_arrow.diagram.json"),
        capsys=capsys,
    )
    assert code == 0


def test_lex_commands(capsys):
    code, _, _ = run_cli("lex", "check", fixture("probe_point.fincat.json"), capsys=capsys)
    assert code == 0
    want = {
        "lex_chain": ({"0": True, "1": True}, 63),
        "lex_const": ({"a": True, "b": True, "top": True}, 129),
    }
    for name, (legs, decided) in want.items():
        code, out, _ = run_cli(
            "lex", "verify-colimit", "--format", "machine", fixture(f"{name}.diagram.json"), capsys=capsys
        )
        assert code == 0
        assert json.loads(out) == {
            "colimit_lex": True,
            "legs_lex": legs,
            "limit_formula_failures": [],
            "ok": True,
            "sampled_diagrams": decided,
        }


def test_lex_check_names_a_missing_product(tmp_path, capsys):
    # a with an idempotent e, and a terminal t: a × a would need four arrows out of a
    doc = {
        "kind": "fincat",
        "name": "idem_t",
        "objects": ["a", "t"],
        "morphisms": [
            {"name": "id_a", "dom": "a", "cod": "a"},
            {"name": "e", "dom": "a", "cod": "a"},
            {"name": "id_t", "dom": "t", "cod": "t"},
            {"name": "!", "dom": "a", "cod": "t"},
        ],
        "identities": {"a": "id_a", "t": "id_t"},
        "composition": [
            ["id_a", "id_a", "id_a"], ["id_a", "e", "e"], ["e", "id_a", "e"], ["e", "e", "e"],
            ["!", "id_a", "!"], ["!", "e", "!"], ["id_t", "!", "!"], ["id_t", "id_t", "id_t"],
        ],
    }
    path = tmp_path / "idem_t.fincat.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("lex", "check", "--format", "machine", str(path), capsys=capsys)
    assert code == 1
    assert json.loads(out) == {"ok": False, "failure": {"shape": "product", "pair": ["a", "a"]}}


def test_verify_empty_corpus_warns_and_passes(tmp_path, capsys):
    code, out, err = run_cli("verify", str(tmp_path), capsys=capsys)
    assert code == 0
    assert "empty" in err


def test_verify_missing_corpus_exits_two(tmp_path, capsys):
    code, _, err = run_cli("verify", str(tmp_path / "nope"), capsys=capsys)
    assert code == 2


def test_verify_rejects_invalid_fixture(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(
        json.dumps(
            {
                "kind": "fincat",
                "name": "bad",
                "objects": ["x"],
                "morphisms": [
                    {"name": "id", "dom": "x", "cod": "x"},
                    {"name": "e", "dom": "x", "cod": "x"},
                ],
                "identities": {"x": "id"},
                # (e, e) composite missing: non-total table
                "composition": [["id", "id", "id"], ["id", "e", "e"], ["e", "id", "e"]],
            }
        )
    )
    code, _, err = run_cli("verify", str(tmp_path), capsys=capsys)
    assert code == 2
    assert "composition not total" in err


def test_verify_rejects_non_associative_injection(tmp_path, capsys):
    (tmp_path / "nonassoc.json").write_text(
        json.dumps(
            {
                "kind": "fincat",
                "name": "nonassoc",
                "objects": ["x"],
                "morphisms": [
                    {"name": "id", "dom": "x", "cod": "x"},
                    {"name": "e", "dom": "x", "cod": "x"},
                    {"name": "w", "dom": "x", "cod": "x"},
                ],
                "identities": {"x": "id"},
                "composition": [
                    ["id", "id", "id"],
                    ["id", "e", "e"],
                    ["e", "id", "e"],
                    ["id", "w", "w"],
                    ["w", "id", "w"],
                    ["e", "e", "w"],
                    ["e", "w", "w"],
                    ["w", "e", "e"],
                    ["w", "w", "w"],
                ],
            }
        )
    )
    code, _, err = run_cli("verify", str(tmp_path), capsys=capsys)
    assert code == 2
    assert "associativity" in err


def test_verify_suite_report_shape():
    report = Suite(CORPUS).run()
    assert report["ok"] is True
    assert report["fixture_count"] >= 12
    for name, slot in report["lemmas"].items():
        assert slot["fail"] == 0, (name, slot)
    # every corpus file is hashed into the report
    assert set(report["corpus"]) == {p.name for p in CORPUS.glob("*.json")}


def test_verify_determinism_across_seed_orders():
    first = json.dumps(Suite(CORPUS).run(seed_order=0), sort_keys=True)
    second = json.dumps(Suite(CORPUS).run(seed_order=7), sort_keys=True)
    assert first == second


def test_negative_verdict_replays_identically(capsys):
    # replaying a negative command reproduces its counterexample verbatim
    first = run_cli(
        "check", "bifiltered", fixture("discrete2.twocat.json"), "--format", "machine",
        capsys=capsys,
    )
    second = run_cli(
        "check", "bifiltered", fixture("discrete2.twocat.json"), "--format", "machine",
        capsys=capsys,
    )
    assert first[0] == second[0] == 1
    assert json.loads(first[1]) == json.loads(second[1])
    assert json.loads(first[1])["counterexample"]["condition"] == "span"


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bicolim.cli", "check", "bifiltered", fixture("terminal.twocat.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


BUNDLED = Path(cli.__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden" / "verify_machine.json"


def test_verify_machine_report_matches_golden(capsys):
    # the report is pinned across commits; a change that alters it on purpose
    # regenerates the golden file with `bicolim verify --format machine`
    code, out, _ = run_cli("verify", str(BUNDLED), "--format", "machine", capsys=capsys)
    assert code == 0
    assert out.encode() == GOLDEN.read_bytes()


def test_optimised_verify_matches_golden():
    # invariant checks must not rest on assert statements, which -O strips
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bicolim.cli", "verify", str(BUNDLED), "--format", "machine"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == GOLDEN.read_bytes()


def test_verify_records_non_flat_pairing_as_failure(monkeypatch, capsys):
    # every paired diagram non-flat: nothing is left to check, and each
    # instance must still reach the report as a failure
    monkeypatch.setattr(verify, "check_flat", lambda pf: negative("flat", {"reason": "forced"}))
    code, out, _ = run_cli("verify", str(BUNDLED), "--format", "machine", capsys=capsys)
    assert code == 1
    slot = json.loads(out)["lemmas"]["flat-preserves-bilimits"]
    assert slot["fail"] == 4
    assert slot["pass"] == 0


def test_verify_records_size_guard_trip_as_failure(monkeypatch, capsys):
    # an instance the size guard stopped went unchecked: it must reach the
    # report as a failure that carries the guard's message
    from bicolim.fincat import SizeGuardError

    def trip(probe, colim):
        raise SizeGuardError("functor category bound exceeded (forced)")

    monkeypatch.setattr(verify, "check_bicompact_against", trip)
    code, out, _ = run_cli("verify", str(BUNDLED), "--format", "machine", capsys=capsys)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    slot = report["lemmas"]["bicompact"]
    assert slot["fail"] == 26
    assert slot["pass"] == 0
    closure = report["lemmas"]["bicompact-closure"]
    assert closure["fail"] == 2
    for lemma, failures in (("bicompact", slot["failures"]), ("bicompact-closure", closure["failures"])):
        for failure in failures:
            assert failure["replay"] == (
                f"bicolim verify --only {lemma}:{failure['instance']}"
                "  # size guard: functor category bound exceeded (forced)"
            )


def test_verify_pairs_instances_with_the_flat_diagrams_over_their_base(tmp_path, capsys):
    # a diagram over poset_bottom whose expect claims flatness is paired with
    # both poset_bottom instances; it is not flat, so it fails both
    for path in BUNDLED.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    doc = json.loads((BUNDLED / "nonflat_empty.diagram.json").read_text())
    doc["expect"] = {"flat": True}
    (tmp_path / "claimed_flat.diagram.json").write_text(json.dumps(doc))
    code, out, _ = run_cli("verify", str(tmp_path), "--format", "machine", capsys=capsys)
    assert code == 1
    slot = json.loads(out)["lemmas"]["flat-preserves-bilimits"]
    assert (slot["pass"], slot["fail"]) == (2, 2)
    assert [f["instance"] for f in slot["failures"]] == [
        "inst_biequalizer_bot.instance.json",
        "inst_biproduct_bot.instance.json",
    ]


def test_verify_records_a_diagram_claimed_lex_that_is_not(tmp_path, capsys):
    # the discrete category on {a, b} has no terminal object; the suite
    # records the lex-closure instance as a failure instead of raising
    for name in ("terminal.twocat.json", "nonflat_discrete.diagram.json"):
        (tmp_path / name).write_bytes((BUNDLED / name).read_bytes())
    doc = json.loads((BUNDLED / "nonflat_discrete.diagram.json").read_text())
    doc["expect"] = {"lex": True}
    (tmp_path / "claimed_lex.diagram.json").write_text(json.dumps(doc))
    report = Suite(tmp_path).run()
    assert report["ok"] is False
    assert report["lemmas"]["lex-closure"] == {
        "pass": 0,
        "fail": 1,
        "failures": [
            {
                "instance": "claimed_lex.diagram.json",
                "replay": "bicolim verify --only lex-closure:claimed_lex.diagram.json"
                "  # fiber at '.' is not lex: {'shape': 'terminal'}",
            }
        ],
    }
    # the replay line reruns the task, which records the same failure
    code, out, _ = run_cli(
        "verify", str(tmp_path), "--only", "lex-closure:claimed_lex.diagram.json",
        "--format", "machine", capsys=capsys,
    )
    assert code == 1
    assert json.loads(out)["lemmas"] == {"lex-closure": report["lemmas"]["lex-closure"]}
    # and the lex command names the same reason
    code, _, err = run_cli(
        "lex", "verify-colimit", str(tmp_path / "claimed_lex.diagram.json"), capsys=capsys
    )
    assert code == 2
    assert "fiber at '.' is not lex" in err


@pytest.mark.parametrize("diagram", ["nonflat_empty.diagram.json", "flat_const_pt.diagram.json"])
def test_verify_records_a_lex_claim_over_an_index_that_is_not_bifiltered(diagram, tmp_path, capsys):
    # lex-closure computes colim F first, which refuses the index, whether
    # the fibers are lex (flat_const_pt) or not (nonflat_empty); the
    # instance is still recorded as a failure with the reason
    for name in ("poset_bottom.twocat.json", diagram):
        (tmp_path / name).write_bytes((BUNDLED / name).read_bytes())
    doc = json.loads((BUNDLED / diagram).read_text())
    doc["expect"] = {"lex": True}
    (tmp_path / "claimed_lex.diagram.json").write_text(json.dumps(doc))
    report = Suite(tmp_path).run()
    assert report["ok"] is False
    slot = report["lemmas"]["lex-closure"]
    assert (slot["pass"], slot["fail"]) == (0, 1)
    [failure] = slot["failures"]
    assert failure["instance"] == "claimed_lex.diagram.json"
    replay, reason = failure["replay"].split("  # ")
    assert replay == "bicolim verify --only lex-closure:claimed_lex.diagram.json"
    assert "index not bifiltered" in reason
    code, out, _ = run_cli(*replay.split()[1:], str(tmp_path), "--format", "machine", capsys=capsys)
    assert code == 1
    assert json.loads(out)["lemmas"] == {"lex-closure": slot}
    code, _, err = run_cli(
        "lex", "verify-colimit", str(tmp_path / "claimed_lex.diagram.json"), capsys=capsys
    )
    assert code == 2
    assert "index not bifiltered" in err


def test_verify_computes_each_bifiltered_colimit_once(monkeypatch):
    # bifiltered coequification, lex-closure and the three commutation
    # lemmas read colim F from the suite, and bicompact (both probe kinds)
    # and bicompact-closure read colim(F∘J) over the cofinal core J; the
    # suite computes each once per diagram fixture, no module computes one
    # again, and each colimit builds its skeleton at most once
    from collections import Counter

    from bicolim import colim, fincat
    from bicolim.fixtures import DiagramFixture

    calls: Counter = Counter()
    compute = colim.bifiltered_bicolimit

    def counting(pf, precheck=True):
        calls[pf] += 1
        return compute(pf, precheck)

    patched = 0
    for module_name, module in sorted(sys.modules.items()):
        if module_name == "bicolim" or module_name.startswith("bicolim."):
            if getattr(module, "bifiltered_bicolimit", None) is compute:
                monkeypatch.setattr(module, "bifiltered_bicolimit", counting)
                patched += 1
    assert patched >= 5  # colim, verify, compact, bilim, flat, cli, ...
    skeletons: Counter = Counter()

    def counting_skeleton(cat):
        skeletons[cat] += 1
        return fincat.skeleton(cat)

    monkeypatch.setattr(colim, "skeleton", counting_skeleton)
    suite = Suite(CORPUS)
    report = suite.run(seed_order=3)
    assert report["ok"]
    diagrams = {fx.functor for fx in suite.fixtures.values() if isinstance(fx, DiagramFixture)}
    assert len(suite.colimits) == len(suite.core_colimits) == 13
    assert {pf: n for pf, n in calls.items() if pf in diagrams} == {pf: 1 for pf in suite.colimits}
    cores = [c for c in suite.core_colimits.values() if c.diagram not in diagrams]
    assert len(cores) == 12  # nonflat_discrete's index is its own core
    assert all(calls[c.diagram] == 1 for c in cores)
    computed = {c.result for c in [*suite.colimits.values(), *cores]}
    assert set(skeletons) <= computed and set(skeletons.values()) == {1}


def test_verify_commutation_builds_no_bilimit_over_a_suite_colimit(monkeypatch):
    # the three commutation lemmas form their right-hand bilimits over the
    # skeletons of the suite's colimits, so no bilim primitive is handed a
    # suite colimit's result, or a functor into or out of one; each of those
    # colimits builds its skeleton once
    from collections import Counter

    from bicolim import bilim, colim, fincat

    handed: list = []

    def recording(build):
        def wrapped(*args):
            for arg in args:
                handed.extend([arg.source, arg.target] if isinstance(arg, fincat.Functor) else [arg])
            return build(*args)

        return wrapped

    for name in ("biproduct", "arrow_cotensor", "biequalizer"):
        monkeypatch.setattr(bilim, name, recording(getattr(bilim, name)))
    skeletons: Counter = Counter()

    def counting_skeleton(cat):
        skeletons[cat] += 1
        return fincat.skeleton(cat)

    monkeypatch.setattr(colim, "skeleton", counting_skeleton)
    suite = Suite(CORPUS)
    report = suite.run(seed_order=5)
    assert report["ok"]
    assert report["lemmas"]["commutation-biproduct"]["pass"] == 2
    assert report["lemmas"]["commutation-cotensor"]["pass"] == 3
    assert report["lemmas"]["commutation-biequalizer"]["pass"] == 1
    results = {c.result for c in [*suite.colimits.values(), *suite.core_colimits.values()]}
    assert handed and not any(cat in results for cat in handed)
    commuted = {
        suite.fixtures[n].functor
        for lemma in ("commutation-biproduct", "commutation-cotensor")
        for names in verify.NAMED_DIAGRAMS[lemma]
        for n in names
    }
    assert len(commuted) == 5
    assert all(skeletons[suite.colimits[pf].result] == 1 for pf in commuted)


def test_verify_flatness_builds_one_elements_category_per_diagram(monkeypatch):
    from bicolim import colim, flat
    from bicolim.fixtures import DiagramFixture

    built = []

    def counting(pf):
        built.append(pf)
        return colim.elements_category(pf)

    monkeypatch.setattr(flat, "elements_category", counting)
    suite = Suite(CORPUS)
    suite.load_all()
    diagrams = [fx for fx in suite.fixtures.values() if isinstance(fx, DiagramFixture)]
    flat_ones = 0
    for fx in diagrams:
        built.clear()
        assert verify._flatness(fx)
        assert built == [fx.functor]
        flat_ones += bool(flat.check_flat(fx.functor))
    assert flat_ones == 9  # each of these once decided flatness twice


# -- replay lines ----------------------------------------------------------------

# each lemma's check in the verify module, forced to fail below
REPLAY_PATCHES = {
    "checker-coherence": "_coherence",
    "trivialization": "_trivialization",
    "triangle": "_triangle",
    "trivialization-colimit": "_trivialization_colimit",
    "coequification": "_coequification",
    "bicompact": "_bicompact",
    "bicompact-closure": "_bicompact",
    "flatness": "_flatness",
    "commutation-biproduct": "commute_biproduct",
    "commutation-cotensor": "commute_cotensor",
    "commutation-biequalizer": "commute_biequalizer",
    "splitting": "_splitting",
    "lex-closure": "verify_lex_bicolimit",
    "cofinality": "_cofinality",
    "flat-preserves-bilimits": "_preservation",
}


def test_every_lemma_has_a_replay_patch():
    assert set(REPLAY_PATCHES) == set(json.loads(GOLDEN.read_text())["lemmas"])


@pytest.mark.parametrize("lemma", sorted(REPLAY_PATCHES))
def test_every_replay_line_replays_its_failure(lemma, monkeypatch, capsys):
    import shlex
    from types import SimpleNamespace

    monkeypatch.delenv(cli.CORPUS_ENV, raising=False)
    failed = SimpleNamespace(ok=False) if lemma == "lex-closure" else False
    monkeypatch.setattr(verify, REPLAY_PATCHES[lemma], lambda *args: failed)
    slot = Suite(BUNDLED).run()["lemmas"][lemma]
    assert slot["pass"] == 0 and slot["fail"] == len(slot["failures"]) > 0
    for failure in {id(f): f for f in (slot["failures"][0], slot["failures"][-1])}.values():
        argv = shlex.split(failure["replay"], comments=True)
        assert argv[:3] == ["bicolim", "verify", "--only"]
        code, out, _ = run_cli(*argv[1:], "--format", "machine", capsys=capsys)
        assert code == 1
        assert json.loads(out)["lemmas"] == {lemma: {"pass": 0, "fail": 1, "failures": [failure]}}


def test_replay_of_an_unknown_task_exits_two(capsys):
    code, _, err = run_cli("verify", str(BUNDLED), "--only", "bicompact:nowhere", capsys=capsys)
    assert code == 2
    assert "no task 'bicompact:nowhere'" in err


# -- bilimit instances are checked at load ---------------------------------------


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("left_leg", "le_bot_zz", "left_leg 'le_bot_zz' names no 1-cell of 'poset_bottom'"),
        ("apex", "nowhere", "apex 'nowhere' names no 0-cell of 'poset_bottom'"),
        ("right_leg", None, "right_leg None names no 1-cell of 'poset_bottom'"),
        ("right_leg", ["le_bot_b"], "right_leg ['le_bot_b'] names no 1-cell of 'poset_bottom'"),
    ],
)
def test_verify_refuses_an_instance_naming_no_cell(key, value, message, tmp_path, capsys):
    for path in BUNDLED.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    doc = json.loads((BUNDLED / "inst_biproduct_bot.instance.json").read_text())
    if value is None:
        del doc["data"][key]
    else:
        doc["data"][key] = value
    bad = tmp_path / "inst_biproduct_bot.instance.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", str(tmp_path), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: not a bilimit instance: {message}\n"


def test_loading_refuses_a_cone_that_is_not_a_bilimit(tmp_path):
    from bicolim.fixtures import FixtureError, load_fixture

    for name in ("poset_bottom.twocat.json", "inst_biproduct_bot.instance.json"):
        (tmp_path / name).write_bytes((BUNDLED / name).read_bytes())
    doc = json.loads((BUNDLED / "inst_biproduct_bot.instance.json").read_text())
    doc["data"]["right_leg"] = doc["data"]["left_leg"]  # a × a is not a
    bad = tmp_path / "twice_a.instance.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(FixtureError) as caught:
        load_fixture(bad)
    assert caught.value.path == str(bad)
    assert "does not send the cone to a bilimit" in str(caught.value)
