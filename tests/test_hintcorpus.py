from __future__ import annotations

import json
import random

import pytest

from reciteqa.backend import ScriptedBackend, prompt_key
from reciteqa.hintcorpus import (
    Corpus,
    CorpusError,
    Document,
    SyntheticTriple,
    build_corpus,
    export_triples,
    generate_synthetic_triples,
    read_dump,
    read_heading_dump,
)
from reciteqa.prompting import HintError, build_question_generation_prompt, make_hint, parse_hint

from helpers import GOLDEN_DIR

CHILD_SUPPORT_HINT = (
    "Child support --- Compliance and enforcement issues --- Enforcement --- Paragraph #2"
)


# ---------------------------------------------------------------------------
# hint grammar


def test_make_hint_canonical_example():
    hint = make_hint(
        "Child support", ["Compliance and enforcement issues", "Enforcement"], 2
    )
    assert hint == CHILD_SUPPORT_HINT


def test_make_hint_empty_path():
    assert make_hint("X", [], 1) == "X --- Paragraph #1"


def test_make_hint_rejects_delimiter_injection():
    with pytest.raises(HintError):
        make_hint("X --- Y", [], 1)
    with pytest.raises(HintError):
        make_hint("X", ["A --- B"], 1)


def test_make_hint_rejects_bad_index():
    with pytest.raises(HintError):
        make_hint("X", [], 0)


def test_parse_hint_round_trips_canonical_example():
    assert parse_hint(CHILD_SUPPORT_HINT) == (
        "Child support",
        ("Compliance and enforcement issues", "Enforcement"),
        2,
    )


def test_parse_hint_minimal():
    assert parse_hint("A --- Paragraph #3") == ("A", (), 3)


def test_parse_hint_rejects_missing_tail():
    with pytest.raises(HintError) as err:
        parse_hint("A --- B")
    assert "position" in str(err.value)


def test_parse_hint_rejects_bad_index():
    with pytest.raises(HintError):
        parse_hint("A --- Paragraph #0")
    with pytest.raises(HintError):
        parse_hint("A --- Paragraph #x")
    with pytest.raises(HintError):
        parse_hint("Paragraph #1")


def test_hint_bijection_randomized():
    rng = random.Random(0)
    alphabet = "abc XYZ 123 .,'#-"
    for _ in range(1000):
        title = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))).strip()
        if not title:
            title = "t"
        depth = rng.randint(0, 3)
        path = []
        for _ in range(depth):
            part = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10))).strip()
            path.append(part or "s")
        index = rng.randint(1, 99)
        hint = make_hint(title, path, index)
        assert parse_hint(hint) == (title, tuple(path), index)


# ---------------------------------------------------------------------------
# corpus building


def fixture_doc() -> Document:
    return Document(
        title="Child support",
        items=(
            ((), "Child support is an ongoing, periodic payment."),
            (
                ("Compliance and enforcement issues", "Enforcement"),
                "Courts may order wage withholding.",
            ),
            (
                ("Compliance and enforcement issues", "Enforcement"),
                "Child support enforcement measures include wage garnishment and the suspension of licenses.",
            ),
        ),
    )


def test_build_corpus_counts_and_hints():
    corpus = build_corpus([fixture_doc()])
    assert len(corpus) == 3
    assert corpus[0].hint == "Child support --- Paragraph #1"
    assert corpus[0].section_path == ()
    assert corpus[2].hint == CHILD_SUPPORT_HINT
    by_hint = {p.hint: p for p in corpus}
    assert by_hint[CHILD_SUPPORT_HINT].text.startswith("Child support enforcement")


def test_build_corpus_duplicate_hint_collision():
    doc = fixture_doc()
    with pytest.raises(CorpusError) as err:
        build_corpus([doc, doc])
    assert "duplicate" in str(err.value)


def test_corpus_sampling_deterministic():
    corpus = build_corpus([fixture_doc()])
    a = corpus.sample(2, seed=5)
    b = corpus.sample(2, seed=5)
    assert a == b
    with pytest.raises(CorpusError):
        corpus.sample(10, seed=0)


def test_corpus_save_load_round_trip(tmp_path):
    corpus = build_corpus([fixture_doc()])
    corpus.save(tmp_path / "corpus")
    loaded = Corpus.load(tmp_path / "corpus")
    assert list(loaded) == list(corpus)
    assert [p.name for p in (tmp_path / "corpus").iterdir()] == ["passages.jsonl"]


def test_corpus_load_names_the_line_of_a_repeated_hint(tmp_path):
    build_corpus([fixture_doc()]).save(tmp_path / "corpus")
    passages = tmp_path / "corpus" / "passages.jsonl"
    lines = passages.read_text(encoding="utf-8").splitlines(keepends=True)
    passages.write_text("".join(lines + lines[:1]), encoding="utf-8")
    with pytest.raises(CorpusError, match=r"passages\.jsonl:4: duplicate passage hint"):
        Corpus.load(tmp_path / "corpus")


def test_golden_corpus_records_round_trip():
    from reciteqa.hintcorpus import _passage_from_line, _passage_to_line

    lines = (GOLDEN_DIR / "corpus_records.jsonl").read_text(encoding="utf-8").splitlines()
    passage = _passage_from_line(lines[0])
    assert _passage_to_line(passage) == lines[0]
    triple_obj = json.loads(lines[1])
    triple = SyntheticTriple(
        question=triple_obj["question"],
        hint=triple_obj["hint"],
        passage=triple_obj["passage"],
    )
    assert load_triples_line(lines[1]) == triple


def load_triples_line(line: str) -> SyntheticTriple:
    obj = json.loads(line)
    return SyntheticTriple(obj["question"], obj["hint"], obj["passage"])


# ---------------------------------------------------------------------------
# dump readers


def test_read_dump_native(tmp_path):
    rows = [
        {"page": "Child support"},
        {"text": "Lead paragraph before any section."},
        {"section": ["Compliance and enforcement issues", "Enforcement"]},
        {"text": "First enforcement paragraph.\n\nSecond enforcement paragraph."},
    ]
    path = tmp_path / "dump.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    docs = list(read_dump(path))
    assert len(docs) == 1
    corpus = build_corpus(docs)
    assert [p.hint for p in corpus] == [
        "Child support --- Paragraph #1",
        "Child support --- Compliance and enforcement issues --- Enforcement --- Paragraph #1",
        "Child support --- Compliance and enforcement issues --- Enforcement --- Paragraph #2",
    ]


def test_read_dump_errors_name_line(tmp_path):
    path = tmp_path / "dump.jsonl"
    path.write_text('{"text": "orphan"}\n', encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        list(read_dump(path))
    assert ":1:" in str(err.value)


@pytest.mark.parametrize(
    "reader, text, where",
    [
        (read_dump, '{"page": "Cairo --- Nile"}\n{"text": "x"}\n', ":1: "),
        (read_dump, '{"page": "Cairo"}\n{"section": ["A", "B --- C"]}\n{"text": "x"}\n', ":2: "),
        (read_dump, '{"page": ""}\n{"section": ["A"]}\n{"text": "x"}\n', ":1: "),
        (read_dump, '{"page": 7}\n{"text": "x"}\n', ":1: "),
        (read_dump, '{"page": "Cairo"}\n{"section": [7]}\n{"text": "x"}\n', ":2: "),
        (read_dump, '{"page": "Cairo"}\n{"section": "A"}\n', ":2: "),
        (read_dump, '{"page": "Cairo"}\n{"text": 5}\n', ":2: "),
        (read_heading_dump, "= Cairo --- Nile =\nx\n", ":1: "),
        (read_heading_dump, "= Cairo =\nx\n\n== A --- B ==\ny\n", ":4: "),
        (read_heading_dump, "= Cairo =\n== A --- B ==\n=== C ===\ny\n", ":2: "),
    ],
    ids=[
        "page", "section", "empty-page-under-section", "page-not-string",
        "section-title-not-string", "section-not-list", "text-not-string",
        "heading-page", "heading-section", "heading-under-subsection",
    ],
)
def test_dump_title_that_cannot_form_a_hint_names_its_line(tmp_path, reader, text, where):
    path = tmp_path / "dump"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        list(reader(path))
    assert str(err.value).startswith(f"{path}{where}")


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_dump, '{"page": ""}\n{"page": "Cairo"}\n{"text": "x"}\n'),
        (read_dump, '{"page": "Cairo"}\n{"section": ["B --- C"]}\n{"section": []}\n{"text": "x"}\n'),
        (read_heading_dump, "= Cairo --- Nile =\n= Cairo =\nx\n"),
    ],
    ids=["empty-page", "replaced-section", "heading-page"],
)
def test_dump_title_with_no_paragraph_under_it_forms_no_hint(tmp_path, reader, text):
    path = tmp_path / "dump"
    path.write_text(text, encoding="utf-8")
    corpus = build_corpus(reader(path))
    assert [p.hint for p in corpus] == ["Cairo --- Paragraph #1"]


def test_read_heading_dump(tmp_path):
    text = """= Child support =

Lead paragraph
spanning two lines.

== Compliance and enforcement issues ==

=== Enforcement ===

First enforcement paragraph.

Second enforcement
paragraph.

= Next page =

Another lead.
"""
    path = tmp_path / "dump.txt"
    path.write_text(text, encoding="utf-8")
    docs = list(read_heading_dump(path))
    assert [d.title for d in docs] == ["Child support", "Next page"]
    corpus = build_corpus(docs)
    hints = [p.hint for p in corpus]
    assert "Child support --- Paragraph #1" in hints
    assert CHILD_SUPPORT_HINT in hints
    assert {p.hint: p for p in corpus}[CHILD_SUPPORT_HINT].text == "Second enforcement paragraph."


# ---------------------------------------------------------------------------
# synthetic triples

QGEN_PAIRS = [
    ("evidence one", "question one"),
    ("evidence two", "question two"),
    ("evidence three", "question three"),
    ("evidence four", "question four"),
    ("evidence five", "question five"),
]


def big_corpus(n=12) -> Corpus:
    docs = [
        Document(title=f"Page {i}", items=(((), f"Paragraph text number {i}."),))
        for i in range(n)
    ]
    return build_corpus(docs)


def scripted_for_corpus(corpus, question_for):
    backend = ScriptedBackend()
    for passage in corpus:
        prompt = build_question_generation_prompt(passage.text, QGEN_PAIRS)
        backend.register(prompt, [question_for(passage)])
    return backend


def test_generate_synthetic_triples():
    corpus = big_corpus()
    backend = scripted_for_corpus(corpus, lambda p: f" what about {p.page_title}?\n\nEvidence:")
    triples, dropped = generate_synthetic_triples(corpus, 10, QGEN_PAIRS, backend, seed=0)
    assert len(triples) == 10
    assert dropped == 0
    by_hint = {p.hint: p for p in corpus}
    for triple in triples:
        parse_hint(triple.hint)  # hints all parseable
        assert triple.question.startswith("what about")
        assert by_hint[triple.hint].text == triple.passage


def test_generate_synthetic_requires_five_exemplars():
    corpus = big_corpus()
    backend = ScriptedBackend()
    with pytest.raises(CorpusError):
        generate_synthetic_triples(corpus, 2, QGEN_PAIRS[:3], backend, seed=0)


def test_generate_synthetic_drops_empty_generations():
    corpus = big_corpus()
    backend = scripted_for_corpus(
        corpus, lambda p: "" if p.page_title == "Page 3" else "a question"
    )
    picked = corpus.sample(12, seed=1)
    assert any(p.page_title == "Page 3" for p in picked)
    triples, dropped = generate_synthetic_triples(corpus, 12, QGEN_PAIRS, backend, seed=1)
    assert dropped == 1
    assert len(triples) == 11


def test_generate_synthetic_isolates_backend_failures():
    corpus = big_corpus()
    backend = scripted_for_corpus(corpus, lambda p: "q")
    victim = corpus.sample(12, seed=2)[0]
    # Deregister one prompt so that item alone fails with a ScriptMiss.
    prompt = build_question_generation_prompt(victim.text, QGEN_PAIRS)
    del backend._entries[prompt_key(prompt)]
    triples, dropped = generate_synthetic_triples(corpus, 12, QGEN_PAIRS, backend, seed=2)
    assert dropped == 1
    assert len(triples) == 11


def test_export_round_trip(tmp_path):
    golden = (GOLDEN_DIR / "corpus_records.jsonl").read_text(encoding="utf-8").split("\n")[1]
    triples = [
        load_triples_line(golden),
        SyntheticTriple("q two", "Page 2 --- Paragraph #1", "text two"),
    ]
    path = tmp_path / "triples.jsonl"
    assert export_triples(iter(triples), path) == 2
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == golden
    assert lines[2:] == [""]
    assert [load_triples_line(line) for line in lines[:2]] == triples
