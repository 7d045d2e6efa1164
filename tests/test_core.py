from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reciteqa.core import (
    PATH_FIELDS,
    RECORD_FIELDS,
    REQUIRED,
    Dataset,
    Exemplar,
    ParseError,
    QuestionRecord,
    RecitationPath,
    RunRecord,
    SamplingParams,
    Scheme,
    Strategy,
    check_fields,
    deserialize,
    json_object,
    serialize,
    validate,
    write_atomic,
)

import reciteqa
from reciteqa.evalkit import NormProfile
from reciteqa.hintcorpus import Corpus, HintedPassage, SyntheticTriple, export_triples
from reciteqa.prompting import make_hint
from reciteqa.retrieval import Bm25Index, save_index

from helpers import GOLDEN_DIR, mistyped_record_lines


def valid_question(**overrides) -> QuestionRecord:
    base = dict(
        id="nq-1",
        dataset=Dataset.NQ,
        question="when was the london bridge opened",
        gold_answers=("17 March 1973",),
        gold_evidence=None,
        hop_count=1,
    )
    base.update(overrides)
    return QuestionRecord(**base)


def make_path(answer: str, recitations=(), failed=False) -> RecitationPath:
    if failed:
        return RecitationPath(
            recitations=recitations,
            raw_answer_text="",
            extracted_answer="",
            backend_meta={"error": "Timeout: boom"},
        )
    return RecitationPath(
        recitations=recitations,
        raw_answer_text=f"Answer: {answer}",
        extracted_answer=answer,
        backend_meta={"model": "scripted"},
    )


# ---------------------------------------------------------------------------
# validate


def test_validate_empty_gold_answers():
    assert validate(valid_question(gold_answers=())) == ["gold_answers empty"]


def test_validate_well_formed_record():
    assert validate(valid_question()) == []


def test_validate_hotpot_hop_count():
    record = valid_question(dataset=Dataset.HOTPOT_QA, hop_count=1)
    assert len(validate(record)) == 1


def test_validate_empty_alias():
    assert validate(valid_question(gold_answers=("ok", ""))) == [
        "gold_answers contains an empty string"
    ]


def test_validate_whitespace_question():
    assert validate(valid_question(question=" padded ")) != []


def test_validate_exemplar_exclusive_fields():
    bad = Exemplar(question="q", answer="a", recitations=("r",), rationale="why")
    assert validate(bad) == ["exemplar carries both recitations and a rationale"]
    assert validate(Exemplar(question="q", answer="a", recitations=("r",))) == []
    assert validate(Exemplar(question="q", answer="a", rationale="why")) == []


def test_validate_sampling_params():
    greedy = SamplingParams(strategy=Strategy.GREEDY, seed=0, max_tokens=10)
    assert validate(greedy) == []
    assert validate(SamplingParams(strategy=Strategy.GREEDY, k=4, max_tokens=10)) != []
    assert (
        validate(SamplingParams(strategy=Strategy.TOP_K, k=40, temperature=0.0, max_tokens=10))
        != []
    )
    assert (
        validate(SamplingParams(strategy=Strategy.TOP_K, k=40, temperature=0.7, max_tokens=10))
        == []
    )


def test_validate_run_record_vote_consistency():
    paths = (make_path("rome"), make_path("rome"), make_path("paris"))
    good = RunRecord(
        question_id="q1",
        scheme=Scheme.RECITE_ANSWER,
        paths=paths,
        voted_answer="rome",
        config_fingerprint="f" * 16,
    )
    assert validate(good) == []
    bad = RunRecord(
        question_id="q1",
        scheme=Scheme.RECITE_ANSWER,
        paths=paths,
        voted_answer="paris",
        config_fingerprint="f" * 16,
    )
    assert any("plurality" in issue for issue in validate(bad))


def test_validate_revotes_under_the_given_profile():
    # The pipeline voted case-sensitively, so "Paris" beats "paris" 2 to 1.
    record = RunRecord(
        question_id="q1",
        scheme=Scheme.RECITE_ANSWER,
        paths=(make_path("paris"), make_path("Paris"), make_path("Paris")),
        voted_answer="Paris",
        config_fingerprint="f" * 16,
    )
    assert validate(record, profile=NormProfile(lowercase=False)) == []
    assert any("plurality" in issue for issue in validate(record))


def test_validate_reextracts_after_the_given_cot_anchor():
    path = RecitationPath(
        recitations=(),
        raw_answer_text="Answer: blah Thus X.",
        extracted_answer="X",
        backend_meta={},
    )
    record = RunRecord(
        question_id="q1",
        scheme=Scheme.CHAIN_OF_THOUGHT,
        paths=(path,),
        voted_answer="X",
        config_fingerprint="f" * 16,
    )
    assert validate(record, cot_anchor="Thus") == []
    assert any("re-derivable" in issue for issue in validate(record))


def test_validate_direct_scheme_requires_empty_recitations():
    record = RunRecord(
        question_id="q1",
        scheme=Scheme.DIRECT,
        paths=(make_path("rome", recitations=("stray",)),),
        voted_answer="rome",
        config_fingerprint="f" * 16,
    )
    assert any("empty recitations" in issue for issue in validate(record))


def test_validate_rederives_extracted_answer():
    tampered = RecitationPath(
        recitations=(),
        raw_answer_text="Answer: rome",
        extracted_answer="paris",
        backend_meta={},
    )
    record = RunRecord(
        question_id="q1",
        scheme=Scheme.RECITE_ANSWER,
        paths=(tampered,),
        voted_answer="paris",
        config_fingerprint="f" * 16,
    )
    assert any("re-derivable" in issue for issue in validate(record))


def test_validate_all_failed_run_skips_vote_check():
    record = RunRecord(
        question_id="q1",
        scheme=Scheme.RECITE_ANSWER,
        paths=(make_path("", failed=True),),
        voted_answer="",
        config_fingerprint="f" * 16,
    )
    assert validate(record) == []


def test_every_module_export_resolves():
    for info in pkgutil.iter_modules(reciteqa.__path__):
        module = importlib.import_module(f"reciteqa.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"reciteqa.{info.name}.__all__ names missing {name}"


def test_prompting_builds_on_core_alone_and_imports_are_module_level():
    # prompting owns the prompt grammar and sits directly on core; the only
    # call-time imports left are core's record validation reaching up for
    # the extraction rule and the vote. No module imports a sibling's
    # private name: what two modules share is public in the lower one.
    package = Path(reciteqa.__file__).parent
    function_level = set()
    private = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                private.extend(
                    f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
        if path.stem == "prompting":
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level:
                    assert node.module == "core", f"prompting imports .{node.module}"
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [node.module] if isinstance(node, ast.ImportFrom) else [
                        alias.name for alias in node.names
                    ]
                    assert not any(n and n.startswith("reciteqa") for n in names)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        function_level.add((path.stem, func.name, ast.unparse(node)))
    assert function_level == {
        ("core", "_validate_path", "from .prompting import COT_ANSWER_ANCHOR, extract_answer"),
        ("core", "_validate_run", "from .evalkit import DEFAULT_PROFILE, plurality_vote"),
    }
    assert private == []


def test_no_module_splits_file_text_with_splitlines():
    # str.splitlines also breaks on U+2028, U+2029 and U+0085, which
    # canonical JSON writes unescaped inside a record; core.read_lines,
    # which ends lines at "\n" only, is the one JSONL line reader.
    package = Path(reciteqa.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "splitlines":
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_only_core_appends_to_or_truncates_a_file():
    # records.jsonl and the generation cache share core's append-only log:
    # it alone cuts a torn tail and appends, so the two logs cannot drift
    # apart in how they survive a crash.
    def writes(node):
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute) and child.attr in ("truncate", "O_APPEND"):
                yield child.lineno
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if not (isinstance(func, ast.Name) and func.id == "open" or
                    isinstance(func, ast.Attribute) and func.attr == "open"):
                continue
            modes = [*child.args, *(k.value for k in child.keywords if k.arg == "mode")]
            if any(
                isinstance(m, ast.Constant) and isinstance(m.value, str)
                and re.fullmatch(r"[rwxbt+]*a[rwxbt+]*", m.value)
                for m in modes
            ):
                yield child.lineno

    package = Path(reciteqa.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        lines = list(writes(ast.parse(path.read_text(encoding="utf-8"))))
        if lines:
            found[path.stem] = len(lines)
    # AppendLog.append's open and _cut_torn_tail's truncate.
    assert found == {"core": 2}


def test_write_atomic_replaces_a_file_whole(tmp_path):
    target = tmp_path / "run.json"
    write_atomic(target, "first\n")
    write_atomic(target, "sécond\n")
    assert target.read_bytes() == "sécond\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_write_atomic_keeps_the_old_file_when_the_replace_fails(tmp_path, monkeypatch):
    target = tmp_path / "run.json"
    target.write_text("old\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("no room")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="no room"):
        write_atomic(target, "new\n")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_cli_writes_its_files_only_through_write_atomic():
    # core is the one writer of files: write_atomic replaces a whole file,
    # so a killed run, analysis, build-corpus, index build or gen-questions
    # never leaves one cut short, and AppendLog appends to the two logs. No
    # other module, cli among them, opens, writes or truncates a file.
    def writes(node):
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute) and child.attr == "truncate":
                yield child.lineno
            if not isinstance(child, ast.Call):
                continue
            name = getattr(child.func, "attr", getattr(child.func, "id", None))
            if name in ("write_text", "write_bytes"):
                yield child.lineno
            modes = [*child.args, *(k.value for k in child.keywords if k.arg == "mode")]
            if name == "open" and any(
                isinstance(m, ast.Constant) and isinstance(m.value, str)
                and re.fullmatch(r"[rwaxbt+]*[wax+][rwaxbt+]*", m.value)
                for m in modes
            ):
                yield child.lineno

    package = Path(reciteqa.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.stem != "core":
            lines = list(writes(ast.parse(path.read_text(encoding="utf-8"))))
            if lines:
                found[path.stem] = lines
    assert found == {}


def _passages_file(path: Path, last_text) -> None:
    passages = [
        HintedPassage("Page", (), i, text, make_hint("Page", (), i))
        for i, text in enumerate(["one", last_text], 1)
    ]
    Corpus(passages).save(path.parent)


def _triples_file(path: Path, last_passage) -> None:
    export_triples(
        [
            SyntheticTriple("q one", "Page --- Paragraph #1", "one"),
            SyntheticTriple("q two", "Page --- Paragraph #2", last_passage),
        ],
        path,
    )


def _index_file(path: Path, last_tf) -> None:
    postings = {"a": (("d1", 1),), "b": (("d1", 1), ("d2", last_tf))}
    save_index(Bm25Index(2, 2.0, postings, {"d1": 2, "d2": 2}), path)


@pytest.mark.parametrize(
    "name, write, good",
    [
        ("passages.jsonl", _passages_file, "two"),
        ("triples.jsonl", _triples_file, "two"),
        ("index.jsonl", _index_file, 1),
    ],
    ids=["corpus", "triples", "index"],
)
def test_a_rewrite_that_fails_midway_keeps_the_old_file(tmp_path, name, write, good):
    # The last row of the rewrite holds a value JSON cannot serialize, so
    # it raises after the rows before it are written.
    path = tmp_path / name
    write(path, good)
    old = path.read_bytes()
    with pytest.raises(TypeError):
        write(path, object())
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_json_is_parsed_only_by_json_object_and_two_readers():
    # core.json_object hands what it parses to core.check_fields; a reader
    # that called json.loads itself would grow its own type checks. An HTTP
    # reply carries keys a field map would refuse, and a HotpotQA file is a
    # top-level array.
    def loads_calls(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from loads_calls(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("load", "loads"):
                if isinstance(child.value, ast.Name) and child.value.id == "json":
                    yield scope
            if isinstance(child, ast.ImportFrom) and child.module == "json":
                assert all(alias.name not in ("load", "loads") for alias in child.names), scope
            yield from loads_calls(child, scope)

    package = Path(reciteqa.__file__).parent
    scopes = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes.extend(loads_calls(tree, path.stem))
    assert scopes == [
        "backend._ConnectionPool.__call__", "core.json_object", "datasets.read_hotpotqa",
    ]


def test_importing_the_package_loads_no_third_party_http_client():
    # Importing requests and urllib3 costs far more than the sockets the
    # package speaks HTTP on, and http.client pulls in the email package to
    # parse headers; a stray import would tax every command's start-up.
    names = [info.name for info in pkgutil.iter_modules(reciteqa.__path__)]
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module('reciteqa.' + name)\n"
        "loaded = ('requests', 'urllib3', 'http.client', 'email')\n"
        "print(sorted(m for m in loaded if m in sys.modules))\n"
    )
    src = str(Path(reciteqa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_validate_is_total_on_unknown_types():
    assert validate(object()) == ["unsupported record type object"]


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_question():
    record = valid_question(gold_answers=("a", "b"), gold_evidence="ev")
    assert deserialize(serialize(record)) == record


def test_serialize_is_deterministic_across_meta_order():
    a = make_path("x")
    b = RecitationPath(
        recitations=(),
        raw_answer_text="Answer: x",
        extracted_answer="x",
        backend_meta=dict(reversed(list({"model": "scripted"}.items()))),
    )
    run_a = RunRecord("q", Scheme.DIRECT, (a,), "x", "f" * 16)
    run_b = RunRecord("q", Scheme.DIRECT, (b,), "x", "f" * 16)
    assert serialize(run_a) == serialize(run_b)


def test_serialize_one_line():
    record = valid_question(question="multi word question")
    assert "\n" not in serialize(record)


def test_deserialize_missing_field_names_it():
    with pytest.raises(
        ParseError, match="missing required field '(dataset|question|gold_answers|hop_count)'"
    ):
        deserialize('{"kind":"question","id":"x"}')


def test_deserialize_bad_json_reports_offset():
    with pytest.raises(ParseError, match=r"offset \d+"):
        deserialize('{"kind": ')


def test_deserialize_wrong_type():
    line = (
        '{"kind":"question","id":5,"dataset":"nq","question":"q",'
        '"gold_answers":["a"],"gold_evidence":null,"hop_count":1}'
    )
    with pytest.raises(ParseError, match=r": id must be a string"):
        deserialize(line)


def test_params_keep_an_integer_temperature():
    # Run configs parse their sampling entries through this mapping, and the
    # result is hashed into fingerprints and cache keys: 1 must not become 1.0.
    line = (
        '{"k":40,"kind":"sampling_params","max_tokens":64,"seed":0,'
        '"stop_sequences":[],"strategy":"top_k","temperature":1}'
    )
    assert serialize(deserialize(line)) == line


@pytest.mark.parametrize("field", ["seed", "max_tokens", "k", "temperature"])
def test_params_reject_a_json_boolean_number(field):
    # bool is an int subclass; `true` would be hashed into fingerprints and
    # cache keys as `true` while running as 1.
    params = {
        "k": 40, "kind": "sampling_params", "max_tokens": 64, "seed": 0,
        "stop_sequences": [], "strategy": "top_k", "temperature": 0.7,
    }
    params[field] = True
    with pytest.raises(ParseError, match=rf": {field} must be a"):
        deserialize(json.dumps(params))


def test_every_mistyped_record_field_raises_parse_error_naming_it():
    cases = list(mistyped_record_lines())
    named = {field for field, _ in cases}
    assert named >= {key for fields in RECORD_FIELDS.values() for key in fields}
    assert named >= {f"paths[0]: {key}" for key in PATH_FIELDS}
    for field, line in cases:
        # A wrongly typed array item is named by its index.
        with pytest.raises(ParseError, match=rf": {re.escape(field)}(\[0\])? must be "):
            deserialize(line)


def test_deserialize_ignores_unknown_top_level_keys_but_not_unknown_path_keys():
    lines = (GOLDEN_DIR / "records.jsonl").read_text(encoding="utf-8").split("\n")
    run = json.loads(lines[3])
    assert deserialize(json.dumps({**run, "extra": 1})) == deserialize(lines[3])
    first, *rest = run["paths"]
    with pytest.raises(ParseError, match=r"^run record: paths\[0\]: unknown keys: extra$"):
        deserialize(json.dumps({**run, "paths": [{**first, "extra": 1}, *rest]}))


def test_deserialize_unknown_kind():
    with pytest.raises(ParseError):
        deserialize('{"kind":"mystery"}')


def test_golden_records_round_trip_byte_identical():
    lines = (GOLDEN_DIR / "records.jsonl").read_text(encoding="utf-8").splitlines()
    kinds = []
    for line in lines:
        record = deserialize(line)
        kinds.append(type(record).__name__)
        assert serialize(record) == line
    assert kinds == ["QuestionRecord", "Exemplar", "SamplingParams", "RunRecord"]


# ---------------------------------------------------------------------------
# properties

simple_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40
)
clean_text = simple_text.map(str.strip).filter(bool)


@given(
    qid=clean_text,
    dataset=st.sampled_from(list(Dataset)),
    question=clean_text,
    golds=st.lists(clean_text, min_size=1, max_size=4),
    evidence=st.none() | simple_text,
    hop=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=150)
def test_question_round_trip_property(qid, dataset, question, golds, evidence, hop):
    if dataset is Dataset.HOTPOT_QA:
        hop = max(hop, 2)
    record = QuestionRecord(
        id=qid,
        dataset=dataset,
        question=question,
        gold_answers=tuple(golds),
        gold_evidence=evidence,
        hop_count=hop,
    )
    restored = deserialize(serialize(record))
    assert restored == record
    assert serialize(restored) == serialize(record)


@given(
    question=clean_text,
    answer=simple_text,
    recitations=st.lists(simple_text, max_size=3),
    rationale=st.none() | simple_text,
)
@settings(max_examples=100)
def test_exemplar_round_trip_property(question, answer, recitations, rationale):
    record = Exemplar(
        question=question,
        answer=answer,
        recitations=tuple(recitations),
        rationale=rationale,
    )
    assert deserialize(serialize(record)) == record


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    max_tokens=st.integers(min_value=1, max_value=4096),
    stops=st.lists(simple_text, max_size=3),
    greedy=st.booleans(),
)
@settings(max_examples=100)
def test_params_round_trip_property(seed, max_tokens, stops, greedy):
    if greedy:
        params = SamplingParams(
            strategy=Strategy.GREEDY, seed=seed, max_tokens=max_tokens,
            stop_sequences=tuple(stops),
        )
    else:
        params = SamplingParams(
            strategy=Strategy.TOP_K, k=40, temperature=0.7, seed=seed,
            max_tokens=max_tokens, stop_sequences=tuple(stops),
        )
    assert deserialize(serialize(params)) == params


@given(
    answers=st.lists(simple_text, min_size=1, max_size=5),
    scheme=st.sampled_from([Scheme.RECITE_ANSWER, Scheme.MULTI_HOP_RECITE]),
    recitation=simple_text,
)
@settings(max_examples=100)
def test_run_round_trip_property(answers, scheme, recitation):
    paths = tuple(
        RecitationPath(
            recitations=(recitation,),
            raw_answer_text=f"Answer: {a}",
            extracted_answer=a,
            backend_meta={"model": "m"},
        )
        for a in answers
    )
    record = RunRecord(
        question_id="q",
        scheme=scheme,
        paths=paths,
        voted_answer=answers[0],
        config_fingerprint="f" * 16,
        wall_clock_ms=7,
    )
    assert deserialize(serialize(record)) == record


FIELDS = {
    "name": (str, REQUIRED),
    "count": (int, 3),
    "limit": (int, None),
    "mode": (str, "a", ("a", "b")),
    "any": (object, None),
    "inner": ({"flag": (bool, True)}, None),
}
DEFAULTS = {"count": 3, "limit": None, "mode": "a", "any": None, "inner": None}


@pytest.mark.parametrize(
    "obj, expected",
    [
        ({"name": "x"}, {"name": "x", **DEFAULTS}),
        (
            {"name": "x", "limit": None, "any": True, "inner": {}},
            {"name": "x", **DEFAULTS, "any": True, "inner": {"flag": True}},
        ),
    ],
    ids=["defaults", "null-where-the-default-is-null"],
)
def test_check_fields_fills_defaults(obj, expected):
    assert check_fields(obj, FIELDS, "where", ValueError) == expected


@pytest.mark.parametrize(
    "obj, message",
    [
        ({}, "missing required field 'name'"),
        ({"name": None}, "name must be a string, got None"),
        ({"name": "x", "count": None}, "count must be an integer, got None"),
        ({"name": "x", "count": True}, "count must be an integer, got True"),
        ({"name": "x", "mode": "c"}, "mode must be one of ['a', 'b'], got 'c'"),
        ({"name": "x", "extra": 1}, "unknown keys: extra"),
        ({"name": "x", "inner": {"flags": True}}, "inner: unknown keys: flags"),
        ({"name": "x", "inner": {"flag": 1}}, "inner: flag must be true or false, got 1"),
    ],
    ids=[
        "missing", "null-required", "null-with-default", "bool-for-int", "not-a-choice",
        "unknown-key", "nested-unknown-key", "nested-mistyped",
    ],
)
def test_check_fields_refuses(obj, message):
    with pytest.raises(ValueError, match=f"^where: {re.escape(message)}$"):
        check_fields(obj, FIELDS, "where", ValueError)


def test_json_object_field_map_ignores_keys_it_does_not_name():
    obj = json_object('{"name": "x", "extra": 1}', "where", ValueError, {"name": (str, REQUIRED)})
    assert obj == {"name": "x"}


# Values of every JSON type, "true" as a string among them.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.just("true"),
    st.text(max_size=4),
    st.lists(st.one_of(st.text(max_size=3), st.integers(), st.booleans(), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.text(max_size=3), st.none()), max_size=2),
)
WELL_FORMED_PATH = st.fixed_dictionaries({
    "recitations": st.lists(st.text(max_size=4), max_size=3),
    "raw_answer_text": st.text(max_size=4),
    "extracted_answer": st.text(max_size=4),
    "backend_meta": st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
})


@st.composite
def path_items(draw):
    """A path object, most often well formed or one fault away from it: a
    field of another JSON type, a missing field or an extra key."""
    item = draw(WELL_FORMED_PATH)
    fault = draw(st.sampled_from(["none", "retype", "drop", "extra", "other"]))
    if fault == "retype":
        item[draw(st.sampled_from(sorted(PATH_FIELDS)))] = draw(JSON_VALUES)
    elif fault == "drop":
        del item[draw(st.sampled_from(sorted(PATH_FIELDS)))]
    elif fault == "extra":
        item[draw(st.sampled_from(["extra", "Recitations", ""]))] = draw(JSON_VALUES)
    elif fault == "other":
        return draw(JSON_VALUES)
    return item


def _outcome(check):
    try:
        return repr(check())
    except ParseError as exc:
        return f"ParseError: {exc}"


@given(st.lists(path_items(), max_size=4))
@settings(max_examples=400, deadline=None)
def test_an_array_of_paths_checks_as_each_path_on_its_own(items):
    # The array check takes a flat pass over each item; the walk of each
    # item, named by its index, is the reference for value and message.
    def walked():
        return tuple(
            check_fields(item, PATH_FIELDS, f"run record: paths[{i}]", ParseError)
            for i, item in enumerate(items)
        )

    def checked():
        fields = {"paths": ([PATH_FIELDS], REQUIRED)}
        return check_fields({"paths": items}, fields, "run record", ParseError)["paths"]

    assert _outcome(checked) == _outcome(walked)


def test_an_array_of_maps_with_defaults_names_the_item_at_fault():
    # A map with a default or choices takes no flat pass; each item is
    # walked under its own name.
    fields = {"xs": ([{"a": (int, 0), "b": (str, "x", ("x", "y"))}], REQUIRED)}
    assert check_fields({"xs": [{}, {"a": 2, "b": "y"}]}, fields, "where", ValueError) == {
        "xs": ({"a": 0, "b": "x"}, {"a": 2, "b": "y"})
    }
    with pytest.raises(ValueError, match=r"^where: xs\[1\]: b must be one of \['x', 'y'\], got 'z'$"):
        check_fields({"xs": [{}, {"b": "z"}, {"a": "1"}]}, fields, "where", ValueError)
