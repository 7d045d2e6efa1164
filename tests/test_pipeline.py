"""Tests of the answering engine: scheme records, fingerprints, resume and
in-flight limits.

tests/golden/records_schemes.jsonl holds the records of the scripted
GOLDEN_SCHEME_RUNS, one run after another. Regenerate it with

    PYTHONPATH=src:tests python tests/test_pipeline.py
"""

from __future__ import annotations

import random
import re
import sys
import tempfile
import threading
import time
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reciteqa.backend import (
    Backend, CachingBackend, GenerationRequest, MalformedResponse, ScriptedBackend, prompt_key,
)
from reciteqa.core import (
    Dataset, Exemplar, Scheme, Strategy, canonical_json, deserialize, params_to_dict, serialize,
    validate,
)
from reciteqa.pipeline import (
    QUESTION_WINDOW,
    SchemeConfig,
    check_exemplar_prompts,
    config_fingerprint,
    default_answer_params,
    default_recitation_params,
    load_run_records,
    run_dataset,
)
from reciteqa.prompting import (
    DEFAULT_DIALECT,
    UL2_DIALECT,
    PromptError,
    PromptSpec,
    build_cot_prompt,
    build_hint_prompts,
    build_multihop_prompt,
    build_qa_prompt,
    build_recitation_prompt,
    extract_answer,
    split_numbered_recitations,
)

from helpers import (
    COT_EXEMPLAR,
    EIFFEL_EXEMPLAR,
    GOLDEN_DIR,
    HINT_EXEMPLAR,
    LONDON_EXEMPLAR,
    MULTIHOP_EXEMPLAR,
    CountingBackend,
    answer_one,
    count_sha256_input,
    make_question,
    script_recite_run,
    within,
)

EXEMPLARS = (LONDON_EXEMPLAR, EIFFEL_EXEMPLAR)
ZERO_CLOCK = lambda: 0.0


def scheme_config(scheme: Scheme, **overrides) -> SchemeConfig:
    base = dict(
        scheme=scheme,
        recitation_params=default_recitation_params(),
        answer_params=default_answer_params(),
        n_paths=3,
        n_hints=3,
        shots=2,
    )
    base.update(overrides)
    return SchemeConfig(**base)


# ---------------------------------------------------------------------------
# extract_answer


def test_extract_answer_cue():
    assert extract_answer("Answer: 17 March 1973\n\n\nQuestion:", Scheme.RECITE_ANSWER) == (
        "17 March 1973"
    )


def test_extract_answer_cot_anchor():
    raw = "Answer: The first 10 digits of pi are 3.14159 26535. So the answer is 5."
    assert extract_answer(raw, Scheme.CHAIN_OF_THOUGHT) == "5"


def test_extract_answer_missing_cue():
    assert extract_answer("no cue here", Scheme.DIRECT) == ""
    assert extract_answer("no anchor here", Scheme.CHAIN_OF_THOUGHT) == ""


def test_extract_answer_uses_final_cue():
    raw = "Answer: draft\n\nAnswer: final"
    assert extract_answer(raw, Scheme.DIRECT) == "final"


# ---------------------------------------------------------------------------
# multihop splitting


def test_split_numbered_recitations():
    completion = " First passage text.\n\nRecitation 2: Second passage text."
    assert split_numbered_recitations(completion, 2) == (
        "First passage text.",
        "Second passage text.",
    )


def test_split_missing_cue_is_none():
    assert split_numbered_recitations(" only one passage", 2) is None


def test_split_out_of_order_is_none():
    assert split_numbered_recitations(" a\n\nRecitation 3: c", 2) is None


def test_split_ignores_extra_trailing_cues():
    completion = " a\n\nRecitation 2: b\n\nRecitation 3: junk"
    assert split_numbered_recitations(completion, 2) == ("a", "b")


# ---------------------------------------------------------------------------
# direct


def test_answer_direct():
    question = make_question("q1", "when was the london bridge replaced", ("1973",))
    cfg = scheme_config(Scheme.DIRECT)
    backend = ScriptedBackend()
    prompt = build_qa_prompt(
        PromptSpec(
            scheme=Scheme.DIRECT,
            exemplars=tuple(Exemplar(question=e.question, answer=e.answer) for e in EXEMPLARS),
            target_question=question.question,
        )
    )
    backend.register(prompt, [" 1973\n\nQuestion: junk"])
    record = answer_one(question, cfg, EXEMPLARS, backend, clock=ZERO_CLOCK)
    assert record.voted_answer == "1973"
    assert len(record.paths) == 1
    assert record.paths[0].recitations == ()
    assert record.paths[0].raw_answer_text == "Answer: 1973"
    assert validate(record) == []


# ---------------------------------------------------------------------------
# recite and answer


def recite_fixture(n_paths: int, n_correct: int, correct="rome", wrong="paris"):
    question = make_question("q1", "which city hosted the event", (correct,))
    cfg = scheme_config(Scheme.RECITE_ANSWER, n_paths=n_paths)
    backend = ScriptedBackend()
    recitations = [f"Fact sheet number {i}." for i in range(n_paths)]

    def answer_for(recitation):
        i = int(recitation.split()[-1].rstrip("."))
        return f" {correct}" if i < n_correct else f" {wrong}"

    script_recite_run(backend, question, EXEMPLARS, cfg, recitations, answer_for)
    return question, cfg, backend


def test_recite_and_answer_single_path():
    question, cfg, backend = recite_fixture(1, 1)
    record = answer_one(question, cfg, EXEMPLARS, backend, clock=ZERO_CLOCK)
    assert record.voted_answer == "rome"
    assert len(record.paths) == 1


def test_recite_and_answer_majority_vote():
    question, cfg, backend = recite_fixture(20, 11)
    record = answer_one(question, cfg, EXEMPLARS, backend, clock=ZERO_CLOCK)
    assert record.voted_answer == "rome"
    assert len(record.paths) == 20
    answers = [p.extracted_answer for p in record.paths]
    assert answers.count("rome") == 11
    assert answers.count("paris") == 9
    assert validate(record) == []


def test_recite_paths_use_distinct_recitations():
    question, cfg, backend = recite_fixture(5, 5)
    record = answer_one(question, cfg, EXEMPLARS, backend, clock=ZERO_CLOCK)
    seen = {p.recitations[0] for p in record.paths}
    assert len(seen) == 5


def test_recite_failed_path_excluded_from_vote():
    question, cfg, backend = recite_fixture(3, 1)
    # Remove the QA entry for recitation 2 ("paris" answer) so that path fails.
    qa_prompt = build_qa_prompt(
        PromptSpec(
            scheme=Scheme.RECITE_ANSWER,
            exemplars=EXEMPLARS,
            target_question=question.question,
            target_recitations=("Fact sheet number 2.",),
        )
    )
    del backend._entries[prompt_key(qa_prompt)]
    record = answer_one(question, cfg, EXEMPLARS, backend, clock=ZERO_CLOCK)
    assert sum(1 for p in record.paths if p.failed) == 1
    # remaining answers: rome (path 0), paris (path 1) -> tie, earliest wins
    assert record.voted_answer == "rome"
    assert validate(record) == []


def test_recite_all_paths_failed_errors():
    question = make_question("q1", "which city hosted the event", ("rome",))
    cfg = scheme_config(Scheme.RECITE_ANSWER, n_paths=2)
    backend = ScriptedBackend()  # nothing registered: every request misses
    record = answer_one(question, cfg, EXEMPLARS, backend, clock=ZERO_CLOCK)
    assert len(record.paths) == 2
    assert all(p.failed for p in record.paths)
    assert record.voted_answer == ""


@pytest.mark.parametrize(
    "overrides",
    [dict(answer_params=default_recitation_params()), dict(n_paths=0)],
    ids=["sampled-answers", "zero-paths"],
)
def test_run_dataset_rejects_an_invalid_config(overrides):
    # Answer dedup shares one answer among equal recitations, which holds
    # only for greedy answers.
    question = make_question("q1", "which city hosted the event", ("rome",))
    cfg = scheme_config(Scheme.RECITE_ANSWER, **overrides)
    counting = CountingBackend(ScriptedBackend())
    with pytest.raises(ValueError, match="invalid scheme config"):
        answer_one(question, cfg, EXEMPLARS, counting, clock=ZERO_CLOCK)
    assert counting.calls == 0


def test_question_whose_prompt_cannot_be_built_fails_as_its_one_path():
    question = make_question("q1", "which city\n\nhosted the event", ("rome",))
    cfg = scheme_config(Scheme.RECITE_ANSWER)
    counting = CountingBackend(ScriptedBackend())
    record = answer_one(question, cfg, EXEMPLARS, counting, clock=ZERO_CLOCK)
    [path] = record.paths
    assert path.recitations == ()
    assert path.backend_meta["error"].startswith("PromptError: ")
    assert counting.calls == 0


# ---------------------------------------------------------------------------
# answer dedup: one answer request per distinct recitation tuple


def count_qa_prompts(monkeypatch):
    from reciteqa import pipeline

    rendered = []

    def counted(spec, target_recitations=None):
        if target_recitations is None:
            target_recitations = spec.target_recitations
        rendered.append(target_recitations)
        return build_qa_prompt(spec, target_recitations)

    monkeypatch.setattr(pipeline, "build_qa_prompt", counted)
    return rendered


def test_recite_answers_each_distinct_recitation_once(monkeypatch):
    question = make_question("q1", "which city hosted the event", ("rome",))
    cfg = scheme_config(Scheme.RECITE_ANSWER, n_paths=6)
    backend = ScriptedBackend()
    # Path i draws recitation i % 3: three distinct recitations, each twice.
    recitations = ["Fact A.", "Fact B.", "Fact C."]
    script_recite_run(
        backend, question, EXEMPLARS, cfg, recitations,
        lambda r: " paris" if r == "Fact C." else " rome",
    )
    counting = CountingBackend(backend)
    rendered = count_qa_prompts(monkeypatch)
    record = answer_one(question, cfg, EXEMPLARS, counting, clock=ZERO_CLOCK)
    assert counting.calls == 6 + 3
    assert rendered == [("Fact A.",), ("Fact B.",), ("Fact C.",)]
    assert [p.recitations[0] for p in record.paths] == recitations * 2
    assert [p.extracted_answer for p in record.paths] == ["rome", "rome", "paris"] * 2
    assert record.paths[3] == record.paths[0]
    assert validate(record) == []


def test_multihop_answers_each_distinct_recitation_tuple_once(monkeypatch):
    outputs = [
        " The attacks hit the Taj Mahal Palace Hotel.\n\n"
        "Recitation 2: The Taj is owned by The Indian Hotels Company.",
        " The Taj hotel was attacked.\n\nRecitation 2: IHCL runs the Taj hotels.",
    ]
    question, cfg, backend = multihop_fixture(outputs, n_paths=5)
    counting = CountingBackend(backend)
    rendered = count_qa_prompts(monkeypatch)
    record = answer_one(question, cfg, (MULTIHOP_EXEMPLAR,), counting, clock=ZERO_CLOCK)
    assert counting.calls == 5 + 2
    assert rendered == [split_numbered_recitations(output, 2) for output in outputs]
    assert [p.recitations for p in record.paths] == [
        split_numbered_recitations(outputs[i % 2], 2) for i in range(5)
    ]
    assert not any(p.failed for p in record.paths)


class FailingBackend(ScriptedBackend):
    """Scripted, except that each prompt in `failing` raises
    MalformedResponse."""

    def __init__(self, failing=()):
        super().__init__()
        self.failing = set(failing)

    def generate(self, request):
        if request.prompt in self.failing:
            raise MalformedResponse("response carries 0 choices, expected 1")
        return super().generate(request)


def test_failed_answer_fails_every_path_sharing_its_recitation():
    run = _golden_recite_dedup_run()
    counting = CountingBackend(run["backend"])
    [question] = run["records"]
    record = answer_one(question, run["cfg"], run["exemplars"], counting, clock=ZERO_CLOCK)
    assert counting.calls == 6 + 3
    failed = [i for i, p in enumerate(record.paths) if p.failed]
    assert failed == [2, 5]
    assert record.paths[2].backend_meta == record.paths[5].backend_meta == {
        "error": "MalformedResponse: response carries 0 choices, expected 1"
    }
    assert record.voted_answer == "rome"


def test_prompt_error_fails_every_path_sharing_its_recitation(monkeypatch):
    question = make_question("q1", "which city hosted the event", ("rome",))
    cfg = scheme_config(Scheme.RECITE_ANSWER, n_paths=4)
    backend = ScriptedBackend()
    # "\n\n" inside a recitation breaks the answer prompt's grammar.
    backend.register(
        build_recitation_prompt(
            PromptSpec(
                scheme=Scheme.RECITE_ANSWER, exemplars=EXEMPLARS, target_question=question.question
            )
        ),
        ["Fact A.", "Para\n\nB."],
    )
    backend.register(_qa(Scheme.RECITE_ANSWER, EXEMPLARS, question, ("Fact A.",)), [" rome"])
    counting = CountingBackend(backend)
    rendered = count_qa_prompts(monkeypatch)
    record = answer_one(question, cfg, EXEMPLARS, counting, clock=ZERO_CLOCK)
    assert counting.calls == 4 + 1
    assert len(rendered) == 2
    assert [p.failed for p in record.paths] == [False, True, False, True]
    assert record.paths[1] == record.paths[3]
    assert record.paths[3].backend_meta["error"].startswith("PromptError: ")
    assert record.voted_answer == "rome"


# ---------------------------------------------------------------------------
# multihop


def multihop_fixture(outputs: list[str], n_paths=2):
    question = make_question(
        "h1",
        "which company owns the hotel where the 2008 mumbai attacks took place",
        ("The Indian Hotels Company",),
        dataset=Dataset.HOTPOT_QA,
        hop_count=2,
    )
    cfg = scheme_config(Scheme.MULTI_HOP_RECITE, n_paths=n_paths, recitations_per_hop=2)
    backend = ScriptedBackend()
    prompt = build_multihop_prompt(
        PromptSpec(
            scheme=Scheme.MULTI_HOP_RECITE,
            exemplars=(MULTIHOP_EXEMPLAR,),
            target_question=question.question,
            recitations_per_hop=2,
        )
    )
    backend.register(prompt, outputs)
    for output in outputs:
        recitations = split_numbered_recitations(output, 2)
        if recitations is None:
            continue
        qa_prompt = build_qa_prompt(
            PromptSpec(
                scheme=Scheme.MULTI_HOP_RECITE,
                exemplars=(MULTIHOP_EXEMPLAR,),
                target_question=question.question,
                target_recitations=recitations,
                recitations_per_hop=2,
            )
        )
        backend.register(qa_prompt, [" The Indian Hotels Company"])
    return question, cfg, backend


def test_multihop_one_pass_split():
    outputs = [
        " The attacks took place at the Taj Mahal Palace Hotel.\n\n"
        "Recitation 2: The Taj Mahal Palace Hotel is owned by The Indian Hotels Company.",
        " The Taj hotel in Mumbai was attacked in 2008.\n\n"
        "Recitation 2: The Indian Hotels Company runs the Taj hotels.",
    ]
    question, cfg, backend = multihop_fixture(outputs)
    record = answer_one(
        question, cfg, (MULTIHOP_EXEMPLAR,), backend, clock=ZERO_CLOCK
    )
    assert record.voted_answer == "The Indian Hotels Company"
    assert all(len(p.recitations) == 2 for p in record.paths)
    assert record.paths[0].recitations[0].startswith("The attacks took place")
    assert validate(record) == []


def test_multihop_structure_error_excluded():
    outputs = [
        " Good first.\n\nRecitation 2: Good second.",
        " Missing the second cue entirely.",
    ]
    question, cfg, backend = multihop_fixture(outputs)
    record = answer_one(
        question, cfg, (MULTIHOP_EXEMPLAR,), backend, clock=ZERO_CLOCK
    )
    failed = [p for p in record.paths if p.failed]
    assert len(failed) == 1
    assert "structure" in failed[0].backend_meta["error"]


# ---------------------------------------------------------------------------
# chain of thought


def test_chain_of_thought_votes_over_anchored_answers():
    question = make_question("q1", "what is the tenth decimal of pi", ("5",))
    cfg = scheme_config(Scheme.CHAIN_OF_THOUGHT, n_paths=3)
    backend = ScriptedBackend()
    prompt = build_cot_prompt(
        PromptSpec(
            scheme=Scheme.CHAIN_OF_THOUGHT,
            exemplars=(COT_EXEMPLAR,),
            target_question=question.question,
        )
    )
    backend.register(
        prompt,
        [
            " The first digits are 3.14159 26535. So the answer is 5.",
            " Pi begins 3.1415926535. So the answer is 5.",
            " I believe it is three. So the answer is 3.",
        ],
    )
    record = answer_one(
        question, cfg, (COT_EXEMPLAR,), backend, clock=ZERO_CLOCK
    )
    assert record.voted_answer == "5"
    assert [p.extracted_answer for p in record.paths] == ["5", "5", "3"]
    assert all(p.recitations == () for p in record.paths)
    assert validate(record) == []


def test_chain_of_thought_missing_anchor_flagged():
    question = make_question("q1", "what is the tenth decimal of pi", ("5",))
    cfg = scheme_config(Scheme.CHAIN_OF_THOUGHT, n_paths=1)
    backend = ScriptedBackend()
    prompt = build_cot_prompt(
        PromptSpec(
            scheme=Scheme.CHAIN_OF_THOUGHT,
            exemplars=(COT_EXEMPLAR,),
            target_question=question.question,
        )
    )
    backend.register(prompt, [" rambling with no anchor"])
    record = answer_one(
        question, cfg, (COT_EXEMPLAR,), backend, clock=ZERO_CLOCK
    )
    assert record.paths[0].extracted_answer == ""
    assert record.paths[0].backend_meta.get("extraction_failed") == "true"


# ---------------------------------------------------------------------------
# diversified recitation


def diversified_fixture(hint_queue, n_hints):
    question = make_question("q1", "what is the capital of france", ("Paris",))
    cfg = scheme_config(Scheme.DIVERSIFIED_RECITE, n_hints=n_hints)
    backend = ScriptedBackend()
    hint_prompt, passage_template = build_hint_prompts(question.question, [HINT_EXEMPLAR])
    backend.register(hint_prompt, hint_queue)
    passages = {
        "France --- Geography --- Paragraph #1": "France is a country in Western Europe.",
        "Paris --- Overview --- Paragraph #1": "Paris is the capital and most populous city of France.",
    }
    for hint, passage in passages.items():
        backend.register(passage_template(hint), [f" {passage}"])
    unique = list(dict.fromkeys(hint_queue))
    qa_prompt = build_qa_prompt(
        PromptSpec(
            scheme=Scheme.DIVERSIFIED_RECITE,
            exemplars=EXEMPLARS,
            target_question=question.question,
            target_recitations=tuple(passages[h] for h in unique),
        )
    )
    backend.register(qa_prompt, [" Paris"])
    return question, cfg, backend


def test_diversified_dedups_hints_before_expansion():
    hints = [
        "France --- Geography --- Paragraph #1",
        "France --- Geography --- Paragraph #1",
        "Paris --- Overview --- Paragraph #1",
    ]
    question, cfg, backend = diversified_fixture(hints, n_hints=3)
    record = answer_one(
        question, cfg, EXEMPLARS, backend, hint_exemplars=[HINT_EXEMPLAR], clock=ZERO_CLOCK
    )
    assert record.voted_answer == "Paris"
    assert len(record.paths) == 1
    path = record.paths[0]
    assert len(path.recitations) == 2  # two unique hints -> two passages
    assert path.backend_meta["n_hints_sampled"] == "3"
    assert path.backend_meta["n_unique_hints"] == "2"
    assert validate(record) == []


def test_diversified_single_hint_degenerates():
    hints = ["France --- Geography --- Paragraph #1"]
    question, cfg, backend = diversified_fixture(hints, n_hints=1)
    record = answer_one(
        question, cfg, EXEMPLARS, backend, hint_exemplars=[HINT_EXEMPLAR], clock=ZERO_CLOCK
    )
    assert len(record.paths[0].recitations) == 1
    assert record.voted_answer == "Paris"


# ---------------------------------------------------------------------------
# model text that breaks the answer prompt fails one path, not its question


@pytest.mark.parametrize(
    "scheme, bad_output, bad_recitations",
    [
        (Scheme.RECITE_ANSWER, "Para A.\n\nPara B.", ("Para A.\n\nPara B.",)),
        (
            Scheme.MULTI_HOP_RECITE,
            " Para A.\n\nPara B.\n\nRecitation 2: Second hop.",
            ("Para A.\n\nPara B.", "Second hop."),
        ),
    ],
    ids=["recite", "multihop"],
)
def test_separator_in_recitation_fails_only_its_path(scheme, bad_output, bad_recitations):
    question = make_question("q1", "which city hosted the event", ("rome",))
    cfg = scheme_config(scheme, n_paths=5, recitations_per_hop=2)
    exemplars = (MULTIHOP_EXEMPLAR,) if scheme is Scheme.MULTI_HOP_RECITE else EXEMPLARS
    spec = PromptSpec(
        scheme=scheme,
        exemplars=exemplars,
        target_question=question.question,
        recitations_per_hop=2,
    )
    good = [f"Fact {i}." for i in range(4)]
    if scheme is Scheme.MULTI_HOP_RECITE:
        outputs = [f" {g}\n\nRecitation 2: Hop two." for g in good]
        good_recitations = [(g, "Hop two.") for g in good]
        sample_prompt = build_multihop_prompt(spec)
    else:
        outputs = good
        good_recitations = [(g,) for g in good]
        sample_prompt = build_recitation_prompt(spec)
    outputs.insert(2, bad_output)
    backend = ScriptedBackend()
    backend.register(sample_prompt, outputs)
    for i, recitations in enumerate(good_recitations):
        backend.register(
            _qa(scheme, exemplars, question, recitations, 2), [" paris" if i == 3 else " rome"]
        )
    [record] = run_dataset([question], cfg, exemplars, backend, clock=ZERO_CLOCK)
    assert len(record.paths) == 5
    failed = [p for p in record.paths if p.failed]
    assert failed == [record.paths[2]]
    assert failed[0].recitations == bad_recitations
    assert failed[0].backend_meta["error"].startswith("PromptError: ")
    assert [p.extracted_answer for p in record.paths] == ["rome", "rome", "", "rome", "paris"]
    assert record.voted_answer == "rome"
    assert validate(record) == []


def test_separator_in_diversified_passage_keeps_passages():
    hints = ["France --- Geography --- Paragraph #1", "Paris --- Overview --- Paragraph #1"]
    question, cfg, backend = diversified_fixture(hints, n_hints=2)
    _, passage_template = build_hint_prompts(question.question, [HINT_EXEMPLAR])
    backend.register(passage_template(hints[1]), [" Paris is the capital.\n\nIt is big."])
    [record] = run_dataset(
        [question], cfg, EXEMPLARS, backend, hint_exemplars=[HINT_EXEMPLAR], clock=ZERO_CLOCK
    )
    assert record.voted_answer == ""
    [path] = record.paths
    assert path.recitations == (
        "France is a country in Western Europe.",
        "Paris is the capital.\n\nIt is big.",
    )
    assert path.backend_meta["error"].startswith("PromptError: ")


# ---------------------------------------------------------------------------
# run_dataset


def dataset_fixture(n_questions=3, n_paths=3, n_correct=3):
    questions = []
    backend = ScriptedBackend()
    cfg = scheme_config(Scheme.RECITE_ANSWER, n_paths=n_paths)
    for i in range(n_questions):
        question = make_question(f"q{i}", f"question number {i}", (f"gold {i}",))
        questions.append(question)
        recitations = [f"Passage {i}.{j}" for j in range(n_paths)]

        def answer_for(recitation, i=i):
            j = int(recitation.split(".")[-1])
            return f" gold {i}" if j < n_correct else " wrong"

        script_recite_run(backend, question, EXEMPLARS, cfg, recitations, answer_for)
    return questions, cfg, backend


def test_run_dataset_order_and_limit():
    questions, cfg, backend = dataset_fixture(3)
    records = list(
        run_dataset(questions, cfg, EXEMPLARS, backend, limit=2, clock=ZERO_CLOCK)
    )
    assert [r.question_id for r in records] == ["q0", "q1"]


def test_run_dataset_writes_and_resumes(tmp_path):
    questions, cfg, backend = dataset_fixture(3)
    run_dir = tmp_path / "run"
    first = list(
        run_dataset(
            questions, cfg, EXEMPLARS, backend, run_dir=run_dir, limit=2,
            clock=ZERO_CLOCK,
        )
    )
    assert len(first) == 2
    counting = CountingBackend(backend)
    resumed = list(
        run_dataset(
            questions, cfg, EXEMPLARS, counting, run_dir=run_dir, resume=True,
            clock=ZERO_CLOCK,
        )
    )
    assert [r.question_id for r in resumed] == ["q0", "q1", "q2"]
    # only q2 hit the backend: 3 recitations + 3 answers
    assert counting.calls == 6
    stored = (run_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(stored) == 3


def test_run_dataset_resume_cuts_torn_tail(tmp_path):
    questions, cfg, backend = dataset_fixture(3)
    run_dir = tmp_path / "run"
    list(run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=run_dir, limit=2, clock=ZERO_CLOCK))
    records_path = run_dir / "records.jsonl"
    q1_line = records_path.read_text(encoding="utf-8").splitlines()[1]
    # Interrupted while appending q1: only half of its line reached the disk.
    records_path.write_text(
        records_path.read_text(encoding="utf-8").splitlines()[0] + "\n" + q1_line[:40],
        encoding="utf-8",
    )
    resumed = list(
        run_dataset(
            questions, cfg, EXEMPLARS, backend, run_dir=run_dir, resume=True, clock=ZERO_CLOCK
        )
    )
    assert [r.question_id for r in resumed] == ["q0", "q1", "q2"]
    lines = records_path.read_text(encoding="utf-8").splitlines()
    assert [deserialize(line).question_id for line in lines] == ["q0", "q1", "q2"]
    assert lines[1] == q1_line


def test_records_holding_line_separators_round_trip_and_resume(tmp_path):
    # canonical JSON writes U+2028, U+2029 and U+0085 unescaped; they are
    # not line ends of records.jsonl.
    question = make_question("q0", "which city hosted the event", ("rome",))
    cfg = scheme_config(Scheme.RECITE_ANSWER)
    backend = ScriptedBackend()
    recitations = [f"Fact\u2028sheet\u2029number\x85{i}." for i in range(3)]
    script_recite_run(backend, question, EXEMPLARS, cfg, recitations, lambda r: " ro\u2028me")
    run_dir = tmp_path / "run"
    [record] = run_dataset([question], cfg, EXEMPLARS, backend, run_dir=run_dir, clock=ZERO_CLOCK)
    assert record.paths[0].recitations == (recitations[0],)
    assert record.voted_answer == "ro\u2028me"
    assert load_run_records(run_dir / "records.jsonl") == {"q0": record}
    counting = CountingBackend(backend)
    resumed = list(
        run_dataset(
            [question], cfg, EXEMPLARS, counting, run_dir=run_dir, resume=True, clock=ZERO_CLOCK
        )
    )
    assert resumed == [record]
    assert counting.calls == 0


def test_load_run_records_skips_a_line_that_is_not_utf8(tmp_path, caplog):
    questions, cfg, backend = dataset_fixture(2)
    run_dir = tmp_path / "run"
    records = list(run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=run_dir, clock=ZERO_CLOCK))
    path = run_dir / "records.jsonl"
    first, second = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(first + b"\xff\xfe" + first + second)
    assert load_run_records(path) == {r.question_id: r for r in records}
    assert f"skipping unreadable line {path}:2: " in caplog.text


@pytest.mark.parametrize(
    "other",
    [
        make_question("q9", "a question line", ("gold",)),
        LONDON_EXEMPLAR,
        default_answer_params(),
    ],
    ids=["question", "exemplar", "sampling-params"],
)
def test_load_run_records_skips_a_record_of_another_kind_with_a_warning(tmp_path, caplog, other):
    # analyze and resume both read records.jsonl through load_run_records.
    questions, cfg, backend = dataset_fixture(1)
    run_dir = tmp_path / "run"
    [record] = run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=run_dir, clock=ZERO_CLOCK)
    path = run_dir / "records.jsonl"
    path.write_text(serialize(other) + "\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert load_run_records(path) == {"q0": record}
    assert f"skipping unreadable line {path}:1: not a run record" in caplog.text


def records_log(tmp_path):
    """A records.jsonl of two whole records, q0 and q1, and a resume of it
    that returns the indices of the questions answered from the file."""
    questions, cfg, backend = dataset_fixture(2)
    run_dir = tmp_path / "run"
    list(run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=run_dir, clock=ZERO_CLOCK))

    def reopen():
        counting = CountingBackend(backend)
        run = dict(run_dir=run_dir, resume=True, clock=ZERO_CLOCK)
        list(run_dataset(questions, cfg, EXEMPLARS, counting, **run))
        asked = " ".join(r.prompt for r in counting.requests)
        return {i for i in (0, 1) if f"question number {i}" not in asked}

    return run_dir / "records.jsonl", reopen


def cache_log(tmp_path):
    """A generation cache of two entries, for P0 and P1, and a backend on it
    that returns the indices of the prompts answered from the file."""
    path = tmp_path / "cache.jsonl"
    inner = ScriptedBackend()
    requests_list = [GenerationRequest(f"P{i}", default_answer_params()) for i in (0, 1)]
    for request in requests_list:
        inner.register(request.prompt, [request.prompt.lower()])
    first = CachingBackend(inner, path)
    for request in requests_list:
        first.generate(request)
    first.close()

    def reopen():
        counting = CountingBackend(inner)
        cache = CachingBackend(counting, path)
        for request in requests_list:
            cache.generate(request)
        cache.close()
        asked = {r.prompt for r in counting.requests}
        return {i for i, r in enumerate(requests_list) if r.prompt not in asked}

    return path, reopen


# Each fault turns the log's two whole lines a and b into the bytes on
# disk, and gives the indices of the entries read back, the bytes left once
# the log is open (None: the damaged bytes) and the warning, given the
# log's path and b, that names the fault.
LOG_FAULTS = {
    "torn-tail": (
        lambda a, b: a + b + b[:40], {0, 1}, lambda a, b: a + b,
        lambda path, b: f"dropped a torn 40-byte tail from {path}",
    ),
    "not-utf8": (
        lambda a, b: a + b"\xff\xfe" + b + b, {0, 1}, None,
        lambda path, b: f"skipping unreadable line {path}:2: ",
    ),
    "refused": (
        lambda a, b: a + b[:40] + b"\n" + b, {0, 1}, None,
        lambda path, b: f"skipping unreadable line {path}:2: ",
    ),
    "no-final-newline": (
        lambda a, b: a + b[:-1], {0}, lambda a, b: a,
        lambda path, b: f"dropped a torn {len(b) - 1}-byte tail from {path}",
    ),
}


@pytest.mark.parametrize("fault", LOG_FAULTS)
@pytest.mark.parametrize("log", [records_log, cache_log], ids=["records", "cache"])
def test_records_and_cache_logs_meet_faults_alike(tmp_path, caplog, log, fault):
    damage, kept, opened, warning = LOG_FAULTS[fault]
    path, reopen = log(tmp_path)
    a, b = path.read_bytes().splitlines(keepends=True)
    damaged = damage(a, b)
    path.write_bytes(damaged)
    assert reopen() == kept
    # A lost entry is asked for again and appended after what the open left.
    left = damaged if opened is None else opened(a, b)
    lost = b"".join(line for i, line in enumerate((a, b)) if i not in kept)
    assert path.read_bytes() == left + lost
    assert warning(path, b) in caplog.text


def test_run_dataset_resume_retries_all_failed_question(tmp_path):
    questions, cfg, backend = dataset_fixture(1)
    # A script that serves the recitations but misses every answer prompt.
    recitation_prompt = build_recitation_prompt(
        PromptSpec(
            scheme=Scheme.RECITE_ANSWER, exemplars=EXEMPLARS,
            target_question=questions[0].question,
        )
    )
    missing = ScriptedBackend()
    missing.register(recitation_prompt, [f"Passage 0.{j}" for j in range(3)])
    run_dir = tmp_path / "run"
    first = list(run_dataset(questions, cfg, EXEMPLARS, missing, run_dir=run_dir, clock=ZERO_CLOCK))
    assert all(p.failed for p in first[0].paths)
    resumed = list(
        run_dataset(
            questions, cfg, EXEMPLARS, backend, run_dir=run_dir, resume=True, clock=ZERO_CLOCK
        )
    )
    assert resumed[0].voted_answer == "gold 0"
    assert not any(p.failed for p in resumed[0].paths)
    assert load_run_records(run_dir / "records.jsonl")["q0"] == resumed[0]
    assert len((run_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()) == 2


def test_run_dataset_config_change_invalidates_resume(tmp_path):
    questions, cfg, backend = dataset_fixture(3, n_paths=3)
    run_dir = tmp_path / "run"
    list(run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=run_dir, clock=ZERO_CLOCK))
    questions2, cfg2, backend2 = dataset_fixture(3, n_paths=2)
    counting = CountingBackend(backend2)
    resumed = list(
        run_dataset(
            questions2, cfg2, EXEMPLARS, counting, run_dir=run_dir, resume=True,
            clock=ZERO_CLOCK,
        )
    )
    assert counting.calls == 3 * 4  # every question re-executed at K=2
    assert all(len(r.paths) == 2 for r in resumed)


def test_run_dataset_scripted_determinism(tmp_path):
    questions, cfg, backend = dataset_fixture(3)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    list(run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=dir_a, clock=ZERO_CLOCK))
    list(run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=dir_b, clock=ZERO_CLOCK))
    assert (dir_a / "records.jsonl").read_bytes() == (dir_b / "records.jsonl").read_bytes()


def test_run_dataset_emits_failed_records_and_continues():
    questions, cfg, backend = dataset_fixture(3)
    # Drop every entry for q1 so the whole question fails.
    questions[1] = make_question("q1", "a question nobody scripted", ("gold 1",))
    records = list(run_dataset(questions, cfg, EXEMPLARS, backend, clock=ZERO_CLOCK))
    assert len(records) == 3
    failed = records[1]
    assert failed.question_id == "q1"
    assert failed.voted_answer == ""
    assert all(p.failed for p in failed.paths)
    assert records[0].voted_answer == "gold 0"


def test_run_dataset_parallel_questions_keep_order():
    questions, cfg, backend = dataset_fixture(6)
    records = list(
        run_dataset(
            questions, cfg, EXEMPLARS, backend, max_questions_in_flight=4,
            clock=ZERO_CLOCK,
        )
    )
    assert [r.question_id for r in records] == [f"q{i}" for i in range(6)]


def test_run_dataset_rejects_bad_config():
    questions, cfg, backend = dataset_fixture(1)
    bad = scheme_config(Scheme.RECITE_ANSWER, answer_params=default_recitation_params())
    with pytest.raises(ValueError):
        list(run_dataset(questions, bad, EXEMPLARS, backend))


def count_calls(monkeypatch, calls, owner, name):
    """Replace owner.name with a wrapper that counts its calls in calls[name]."""
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_run_dataset_calls_hooks_through_module_attributes(monkeypatch, tmp_path):
    # perfbench/workload.py traces a run by replacing these module
    # attributes; a name captured at import time would bypass its wrapper.
    from reciteqa import pipeline

    calls = {}
    for name in (
        "build_recitation_prompt", "build_qa_prompt", "plurality_vote", "serialize", "deserialize",
    ):
        count_calls(monkeypatch, calls, pipeline, name)
    count_calls(monkeypatch, calls, Backend, "generate_batch")
    questions, cfg, backend = dataset_fixture(1, n_paths=3)
    run = dict(run_dir=tmp_path, max_questions_in_flight=1, max_paths_in_flight=2, clock=ZERO_CLOCK)
    [record] = run_dataset(questions, cfg, EXEMPLARS, backend, **run)
    assert record.voted_answer == "gold 0"
    assert calls == {
        "build_recitation_prompt": 1,
        "build_qa_prompt": 3,
        "plurality_vote": 1,
        # One per exemplar for the config fingerprint, one for the record.
        "serialize": len(EXEMPLARS) + 1,
        "generate_batch": 2,
    }
    list(run_dataset(questions, cfg, EXEMPLARS, backend, resume=True, **run))
    assert calls["deserialize"] == 1
    assert calls["build_recitation_prompt"] == 1


def test_run_dataset_sends_cache_misses_through_the_traced_methods(monkeypatch, tmp_path):
    # perfbench/workload.py counts recite_http's requests as the
    # CachingBackend.generate calls made inside Backend.generate_batch, so a
    # cold cache must still send every miss through both.
    calls = {}
    count_calls(monkeypatch, calls, Backend, "generate_batch")
    count_calls(monkeypatch, calls, CachingBackend, "generate")
    questions, cfg, scripted = dataset_fixture(1, n_paths=3)
    inner = CountingBackend(scripted)
    cache = CachingBackend(inner, tmp_path / "cache.jsonl")
    run = dict(max_questions_in_flight=1, max_paths_in_flight=2, clock=ZERO_CLOCK)
    [record] = run_dataset(questions, cfg, EXEMPLARS, cache, **run)
    assert record.voted_answer == "gold 0"
    # Three recitations, then one answer per distinct recitation.
    assert inner.calls == 6
    assert calls == {"generate_batch": 2, "generate": 6}
    # A warm cache answers every hit on the question's thread.
    [again] = run_dataset(questions, cfg, EXEMPLARS, cache, **run)
    assert again == record
    assert calls == {"generate_batch": 2, "generate": 6}
    assert inner.calls == 6


def test_later_questions_of_a_cached_run_feed_sha256_only_their_prompt_tails(
    monkeypatch, tmp_path
):
    questions, cfg, scripted = dataset_fixture(6, n_paths=20)
    path = tmp_path / "cache.jsonl"
    run = dict(max_questions_in_flight=1, max_paths_in_flight=2, clock=ZERO_CLOCK)
    warm = list(run_dataset(questions, cfg, EXEMPLARS, CachingBackend(scripted, path), **run))
    fed = count_sha256_input(monkeypatch)
    batches = []
    keyed = CachingBackend.generate_batch

    def recorded(self, requests_list, *args, **kwargs):
        batches.append(requests_list)
        return keyed(self, requests_list, *args, **kwargs)

    monkeypatch.setattr(CachingBackend, "generate_batch", recorded)
    cache = CachingBackend(CountingBackend(scripted), path)
    # The first two questions leave each key head the prefix all share.
    assert list(run_dataset(questions[:2], cfg, EXEMPLARS, cache, **run)) == warm[:2]
    fed.clear()
    batches.clear()
    assert list(run_dataset(questions[2:], cfg, EXEMPLARS, cache, **run)) == warm[2:]
    assert cache.inner.calls == 0
    # Each of a question's K recitation requests has a key head of its own,
    # so keying the prefix once per batch hashed every one of their
    # payloads whole.
    whole = sum(
        len(
            canonical_json(
                {
                    "backend": "scripted",
                    "n_samples": r.n_samples,
                    "params": params_to_dict(r.params),
                    "prompt": r.prompt,
                }
            ).encode("utf-8")
        )
        for batch in batches
        for r in batch
        if r.params.strategy is not Strategy.GREEDY
    )
    assert 5 * sum(fed) <= whole


class InFlightBackend(Backend):
    """Holds each request for a moment and records how many overlap and
    which threads send them."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.threads = set()

    def generate(self, request):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.add(threading.current_thread())
        try:
            time.sleep(0.002)
            return self.inner.generate(request)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_run_dataset_caps_requests_in_flight_run_wide():
    questions, cfg, scripted = dataset_fixture(6, n_paths=5)
    backend = InFlightBackend(scripted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        records = within(30, lambda: list(run_dataset(
            questions, cfg, EXEMPLARS, backend, max_questions_in_flight=2,
            max_paths_in_flight=3, clock=ZERO_CLOCK,
        )))
    finally:
        sys.setswitchinterval(interval)
    assert [r.voted_answer for r in records] == [f"gold {i}" for i in range(6)]
    assert 2 <= backend.peak <= 2 * 3
    # One set of request workers serves the whole run.
    assert len(backend.threads) <= 2 * 3


class BarrierBackend(Backend):
    """Holds each of the first `parties` requests until that many are in
    flight at once; fails them if they never are."""

    def __init__(self, inner, parties):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.barrier = threading.Barrier(parties, timeout=5)
        self.lock = threading.Lock()
        self.held = 0

    def generate(self, request):
        with self.lock:
            self.held += 1
            hold = self.held <= self.barrier.parties
        if hold:
            self.barrier.wait()
        return self.inner.generate(request)


def test_run_dataset_lets_one_question_use_every_request_worker():
    # The run's cap is shared, not split per question: a question's batch
    # runs on its own thread plus every free helper worker, here
    # 1 + 2 x (3 - 1) for its 6 recitations. The question threads are the
    # batches' first lanes, so the helpers number 2 x (3 - 1), not 2 x 3.
    questions, cfg, scripted = dataset_fixture(1, n_paths=6)
    backend = BarrierBackend(scripted, parties=1 + 2 * (3 - 1))
    records = within(30, lambda: list(run_dataset(
        questions, cfg, EXEMPLARS, backend, max_questions_in_flight=2,
        max_paths_in_flight=3, clock=ZERO_CLOCK,
    )))
    assert [r.voted_answer for r in records] == ["gold 0"]
    assert not backend.barrier.broken


def test_run_dataset_at_one_path_in_flight_sends_every_request_from_a_question_thread(
    monkeypatch,
):
    # The case (2, 1) of the run-wide cap: with no helper lanes, the two
    # question threads send every request themselves.
    from reciteqa import pipeline

    questions, cfg, scripted = dataset_fixture(6, n_paths=5)
    backend = InFlightBackend(scripted)
    question_threads = set()
    answer = pipeline._answer

    def traced(*args, **kwargs):
        question_threads.add(threading.current_thread())
        return answer(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_answer", traced)
    records = within(30, lambda: list(run_dataset(
        questions, cfg, EXEMPLARS, backend, max_questions_in_flight=2,
        max_paths_in_flight=1, clock=ZERO_CLOCK,
    )))
    assert [r.voted_answer for r in records] == [f"gold {i}" for i in range(6)]
    assert 1 <= backend.peak <= 2
    assert backend.threads and backend.threads <= question_threads
    assert len(question_threads) <= 2


def test_run_dataset_answers_at_most_its_window_ahead_of_the_consumer():
    questions, cfg, scripted = dataset_fixture(40, n_paths=2)
    backend = CountingBackend(scripted)
    records = run_dataset(
        questions, cfg, EXEMPLARS, backend, max_questions_in_flight=2,
        max_paths_in_flight=2, clock=ZERO_CLOCK,
    )
    with closing(records):
        assert next(records).question_id == "q0"
        time.sleep(0.3)  # the question threads run as far ahead as they may
        asked = {
            re.findall(r"question number (\d+)", request.prompt)[-1]
            for request in list(backend.requests)
        }
    assert 2 <= len(asked) <= QUESTION_WINDOW * 2, sorted(asked, key=int)


@pytest.mark.parametrize("name", ["max_questions_in_flight", "max_paths_in_flight"])
def test_run_dataset_rejects_a_bad_in_flight_limit_before_touching_the_run_dir(tmp_path, name):
    questions, cfg, backend = dataset_fixture(2)
    list(run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=tmp_path, clock=ZERO_CLOCK))
    before = (tmp_path / "records.jsonl").read_bytes()
    assert before
    with pytest.raises(ValueError, match=name):
        list(run_dataset(
            questions, cfg, EXEMPLARS, backend, run_dir=tmp_path, clock=ZERO_CLOCK, **{name: 0}
        ))
    assert (tmp_path / "records.jsonl").read_bytes() == before


@pytest.mark.parametrize("limit", [0, -1])
def test_run_dataset_rejects_a_limit_below_1_before_touching_the_run_dir(tmp_path, limit):
    # A negative limit once sliced off the last questions, and 0 emptied
    # records.jsonl to answer none.
    questions, cfg, backend = dataset_fixture(3)
    list(run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=tmp_path, clock=ZERO_CLOCK))
    before = (tmp_path / "records.jsonl").read_bytes()
    counting = CountingBackend(backend)
    with pytest.raises(ValueError, match=f"limit must be >= 1, got {limit}"):
        list(run_dataset(
            questions, cfg, EXEMPLARS, counting, run_dir=tmp_path, limit=limit, clock=ZERO_CLOCK
        ))
    assert counting.calls == 0
    assert (tmp_path / "records.jsonl").read_bytes() == before


def test_interrupted_run_keeps_whole_records_and_resumes_byte_identical(tmp_path):
    questions, cfg, backend = dataset_fixture(6)
    run = dict(max_questions_in_flight=2, max_paths_in_flight=2, clock=ZERO_CLOCK)
    clean = tmp_path / "clean"
    list(run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=clean, **run))
    interrupted = tmp_path / "interrupted"
    records = run_dataset(questions, cfg, EXEMPLARS, backend, run_dir=interrupted, **run)

    def interrupt_after_two():
        next(records)
        next(records)
        with pytest.raises(KeyboardInterrupt):
            records.throw(KeyboardInterrupt)

    threads_before = threading.active_count()
    within(30, interrupt_after_two)
    text = (interrupted / "records.jsonl").read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert [deserialize(line).question_id for line in text.splitlines()] == ["q0", "q1"]
    # The drain joined every worker the run started.
    assert threading.active_count() <= threads_before
    within(30, lambda: list(run_dataset(
        questions, cfg, EXEMPLARS, backend, run_dir=interrupted, resume=True, **run
    )))
    assert (interrupted / "records.jsonl").read_bytes() == (clean / "records.jsonl").read_bytes()

SCHEME_EXEMPLARS = {
    Scheme.DIRECT: EXEMPLARS,
    Scheme.RECITE_ANSWER: EXEMPLARS,
    Scheme.MULTI_HOP_RECITE: (MULTIHOP_EXEMPLAR,),
    Scheme.DIVERSIFIED_RECITE: EXEMPLARS,
    Scheme.CHAIN_OF_THOUGHT: (COT_EXEMPLAR,),
}


@pytest.mark.parametrize("dialect", [DEFAULT_DIALECT, UL2_DIALECT], ids=["default", "ul2"])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_check_exemplar_prompts_accepts_each_scheme_exemplars(scheme, dialect):
    check_exemplar_prompts(
        scheme_config(scheme), SCHEME_EXEMPLARS[scheme], hint_exemplars=[HINT_EXEMPLAR],
        dialect=dialect,
    )


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_check_exemplar_prompts_rejects_an_exemplar_that_breaks_the_grammar(scheme):
    first, *rest = SCHEME_EXEMPLARS[scheme]
    broken = (replace(first, question="who opened it\n\nin 1973"), *rest)
    with pytest.raises(PromptError, match="exemplar 0 question"):
        check_exemplar_prompts(scheme_config(scheme), broken, hint_exemplars=[HINT_EXEMPLAR])


def test_check_exemplar_prompts_rejects_a_bad_hint_exemplar():
    bad_hint = (HINT_EXEMPLAR[0], "not a canonical hint", HINT_EXEMPLAR[2])
    with pytest.raises(PromptError, match="hint"):
        check_exemplar_prompts(
            scheme_config(Scheme.DIVERSIFIED_RECITE), EXEMPLARS, hint_exemplars=[bad_hint]
        )


def test_dedup_hints_idempotent_and_order_preserving():
    from reciteqa.pipeline import _dedup_hints

    hints = ["A --- Paragraph #1", "a ---  Paragraph  #1", "B --- Paragraph #2"]
    once = _dedup_hints(hints)
    assert once == ["A --- Paragraph #1", "B --- Paragraph #2"]
    assert _dedup_hints(once) == once


# ---------------------------------------------------------------------------
# golden records: every scheme's happy path and each of its failure causes


def _qa(scheme, exemplars, question, recitations=None, recitations_per_hop=1):
    return build_qa_prompt(
        PromptSpec(
            scheme=scheme,
            exemplars=exemplars,
            target_question=question.question,
            target_recitations=recitations,
            recitations_per_hop=recitations_per_hop,
        )
    )


def _golden_direct_run():
    cfg = scheme_config(Scheme.DIRECT)
    backend = ScriptedBackend()
    ok = make_question("direct-ok", "when was the london bridge replaced", ("1973",))
    miss = make_question("direct-miss", "a direct question nobody scripted", ("x",))
    bare = tuple(Exemplar(question=e.question, answer=e.answer) for e in EXEMPLARS)
    backend.register(_qa(Scheme.DIRECT, bare, ok), [" 1973\n\nQuestion: junk"])
    return dict(records=[ok, miss], cfg=cfg, exemplars=EXEMPLARS, backend=backend)


def _golden_recite_run():
    cfg = scheme_config(Scheme.RECITE_ANSWER, n_paths=3)
    backend = ScriptedBackend()
    ok = make_question("recite-ok", "which city hosted the event", ("rome",))
    one_miss = make_question("recite-one-miss", "which city hosted the games", ("rome",))
    all_miss = make_question("recite-all-miss", "a recite question nobody scripted", ("x",))
    for question in (ok, one_miss):
        recitations = [f"Fact sheet {question.id} number {i}." for i in range(3)]
        script_recite_run(
            backend, question, EXEMPLARS, cfg, recitations,
            lambda r: " paris" if r.endswith("2.") else " rome",
        )
    # One answer prompt of recite-one-miss misses: that path alone fails.
    del backend._entries[
        prompt_key(
            _qa(Scheme.RECITE_ANSWER, EXEMPLARS, one_miss,
                ("Fact sheet recite-one-miss number 1.",))
        )
    ]
    return dict(records=[ok, one_miss, all_miss], cfg=cfg, exemplars=EXEMPLARS, backend=backend)


def _golden_multihop_run():
    cfg = scheme_config(Scheme.MULTI_HOP_RECITE, n_paths=2, recitations_per_hop=2)
    backend = ScriptedBackend()
    questions = []
    outputs_by_id = {
        "multihop-ok": [
            " The attacks hit the Taj Mahal Palace Hotel.\n\n"
            "Recitation 2: The Taj is owned by The Indian Hotels Company.",
            " The Taj hotel was attacked.\n\nRecitation 2: IHCL runs the Taj hotels.",
        ],
        "multihop-structure": [
            " Good first.\n\nRecitation 2: Good second.",
            " Missing the second cue entirely.",
        ],
    }
    for qid, outputs in outputs_by_id.items():
        question = make_question(
            qid, f"which company owns the hotel in {qid}", ("The Indian Hotels Company",),
            dataset=Dataset.HOTPOT_QA, hop_count=2,
        )
        questions.append(question)
        spec = PromptSpec(
            scheme=Scheme.MULTI_HOP_RECITE,
            exemplars=(MULTIHOP_EXEMPLAR,),
            target_question=question.question,
            recitations_per_hop=2,
        )
        backend.register(build_multihop_prompt(spec), outputs)
        for output in outputs:
            recitations = split_numbered_recitations(output, 2)
            if recitations is not None:
                backend.register(
                    _qa(Scheme.MULTI_HOP_RECITE, (MULTIHOP_EXEMPLAR,), question, recitations, 2),
                    [" The Indian Hotels Company"],
                )
    return dict(records=questions, cfg=cfg, exemplars=(MULTIHOP_EXEMPLAR,), backend=backend)


def _golden_cot_run():
    cfg = scheme_config(Scheme.CHAIN_OF_THOUGHT, n_paths=3)
    backend = ScriptedBackend()
    ok = make_question("cot-ok", "what is the tenth decimal of pi", ("5",))
    no_anchor = make_question("cot-no-anchor", "what is the ninth decimal of pi", ("3",))
    for question, queue in (
        (ok, [
            " The first digits are 3.14159 26535. So the answer is 5.",
            " Pi begins 3.1415926535. So the answer is 5.",
            " I believe it is three. So the answer is 3.",
        ]),
        (no_anchor, [" Pi begins 3.141592653. So the answer is 3.", " rambling with no anchor"]),
    ):
        spec = PromptSpec(
            scheme=Scheme.CHAIN_OF_THOUGHT,
            exemplars=(COT_EXEMPLAR,),
            target_question=question.question,
        )
        backend.register(build_cot_prompt(spec), queue)
    return dict(records=[ok, no_anchor], cfg=cfg, exemplars=(COT_EXEMPLAR,), backend=backend)


def _golden_diversified_run():
    cfg = scheme_config(Scheme.DIVERSIFIED_RECITE, n_hints=3)
    backend = ScriptedBackend()
    passages = {
        "France --- Geography --- Paragraph #1": "France is a country in Western Europe.",
        "Paris --- Overview --- Paragraph #1": "Paris is the capital of France.",
    }
    hints = list(passages) + [" france  ---  Geography --- Paragraph #1\nextra line"]
    # Passage prompts do not depend on the question, so the expansion
    # failure needs hints of its own that no passage is scripted for.
    unknown_hints = ["Atlantis --- Overview --- Paragraph #1", "Atlantis --- Paragraph #2"]
    questions = [
        make_question(qid, f"what is the capital of france ({qid})", ("Paris",))
        for qid in ("div-ok", "div-answer-miss", "div-expansions-fail", "div-hints-fail")
    ]
    for question in questions[:3]:
        hint_prompt, passage_template = build_hint_prompts(question.question, [HINT_EXEMPLAR])
        if question.id == "div-expansions-fail":
            backend.register(hint_prompt, unknown_hints)
            continue
        backend.register(hint_prompt, hints)
        for hint, passage in passages.items():
            backend.register(passage_template(hint), [f" {passage}\n\n\nHint: junk"])
        if question.id == "div-ok":
            backend.register(
                _qa(Scheme.DIVERSIFIED_RECITE, EXEMPLARS, question, tuple(passages.values())),
                [" Paris"],
            )
    return dict(
        records=questions, cfg=cfg, exemplars=EXEMPLARS, backend=backend,
        hint_exemplars=[HINT_EXEMPLAR],
    )


def _golden_recite_dedup_run():
    # Six paths over three distinct recitations; the answer request for
    # the third fails, so both of its paths fail and the others vote.
    cfg = scheme_config(Scheme.RECITE_ANSWER, n_paths=6)
    question = make_question("recite-dedup", "which city hosted the olympics", ("rome",))
    recitations = ["Fact sheet A.", "Fact sheet B.", "Fact sheet C."]
    failing = _qa(Scheme.RECITE_ANSWER, EXEMPLARS, question, ("Fact sheet C.",))
    backend = FailingBackend([failing])
    script_recite_run(
        backend, question, EXEMPLARS, cfg, recitations,
        lambda r: " paris" if r.endswith("B.") else " rome",
    )
    return dict(records=[question], cfg=cfg, exemplars=EXEMPLARS, backend=backend)


GOLDEN_SCHEME_RUNS = (
    _golden_direct_run,
    _golden_recite_run,
    _golden_multihop_run,
    _golden_cot_run,
    _golden_diversified_run,
    _golden_recite_dedup_run,
)


def scheme_run_records(make_run, run_dir, wrap=lambda backend: backend, **limits) -> bytes:
    """records.jsonl bytes of one scripted scheme run, its backend wrapped."""
    run = make_run()
    run["backend"] = wrap(run["backend"])
    list(run_dataset(**run, run_dir=run_dir, clock=ZERO_CLOCK, **limits))
    return (Path(run_dir) / "records.jsonl").read_bytes()


def test_golden_records_every_scheme(tmp_path):
    records = b"".join(
        scheme_run_records(make_run, tmp_path / make_run.__name__)
        for make_run in GOLDEN_SCHEME_RUNS
    )
    assert records == (GOLDEN_DIR / "records_schemes.jsonl").read_bytes()


class JitteryBackend(Backend):
    """Passes every request to `inner` after a sleep of 0 to 4 ms, drawn from
    `seed` and the request itself, so a schedule replays from its seed."""

    def __init__(self, inner, seed):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.seed = seed

    def generate(self, request):
        draw = random.Random(f"{self.seed}:{request.prompt}:{request.params.seed}")
        time.sleep(draw.uniform(0, 0.004))
        return self.inner.generate(request)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    make_run=st.sampled_from(GOLDEN_SCHEME_RUNS),
    questions_in_flight=st.sampled_from([1, 2, 4]),
    paths_in_flight=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_scheme_records_are_byte_identical_under_any_schedule(
    make_run, questions_in_flight, paths_in_flight, seed
):
    limits = dict(max_questions_in_flight=questions_in_flight, max_paths_in_flight=paths_in_flight)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        reference = scheme_run_records(
            make_run, tmp / "reference", max_questions_in_flight=1, max_paths_in_flight=1
        )
        jittery = lambda backend: JitteryBackend(backend, seed)
        assert scheme_run_records(make_run, tmp / "plain", jittery, **limits) == reference
        cache = tmp / "cache.jsonl"
        for warmth in ("cold", "warm"):
            cached = lambda backend: CachingBackend(jittery(backend), cache)
            assert scheme_run_records(make_run, tmp / warmth, cached, **limits) == reference


def test_fingerprint_changes_with_config_and_exemplars():
    cfg = scheme_config(Scheme.RECITE_ANSWER)
    base = config_fingerprint(cfg, EXEMPLARS)
    assert base == config_fingerprint(cfg, EXEMPLARS)
    assert base != config_fingerprint(
        scheme_config(Scheme.RECITE_ANSWER, n_paths=7), EXEMPLARS
    )
    assert base != config_fingerprint(cfg, (LONDON_EXEMPLAR,))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = b"".join(
            scheme_run_records(make_run, Path(tmp) / make_run.__name__)
            for make_run in GOLDEN_SCHEME_RUNS
        )
    path = GOLDEN_DIR / "records_schemes.jsonl"
    path.write_bytes(records)
    print(f"wrote {path}")
