from __future__ import annotations

import json

import pytest

from reciteqa.core import Dataset, serialize
from reciteqa.datasets import DataError, default_shots, load_questions

from helpers import make_question


def test_nq_adapter(tmp_path):
    rows = [
        {"id": "n1", "question": "when was the london bridge opened",
         "answer": ["17 March 1973"], "long_answer": "The bridge opened in 1973."},
        {"question": "where is the eiffel tower", "answer": "Paris"},
    ]
    path = tmp_path / "nq.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    records = load_questions(path, "nq")
    assert len(records) == 2
    assert records[0].id == "n1"
    assert records[0].dataset is Dataset.NQ
    assert records[0].gold_evidence == "The bridge opened in 1973."
    assert records[1].gold_answers == ("Paris",)
    assert records[1].hop_count == 1


def test_nq_line_holding_a_line_separator_is_one_question(tmp_path):
    # ensure_ascii=False leaves U+2028 raw in the file; it is not a line end.
    row = {"question": "which city\u2028hosted the games", "answer": "Rome"}
    path = tmp_path / "nq.jsonl"
    path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    [record] = load_questions(path, "nq")
    assert record.question == "which city\u2028hosted the games"


def test_nq_lines_end_at_newline_only(tmp_path):
    # "\r\n" line ends load; a lone "\r" is not a line end.
    rows = [{"question": f"q{i}", "answer": "a"} for i in range(2)]
    path = tmp_path / "nq.jsonl"
    path.write_bytes(b"".join(json.dumps(r).encode() + b"\r\n" for r in rows))
    assert [r.question for r in load_questions(path, "nq")] == ["q0", "q1"]
    path.write_bytes(b"".join(json.dumps(r).encode() + b"\r" for r in rows))
    with pytest.raises(DataError) as err:
        load_questions(path, "nq")
    assert f"{path}:1: " in str(err.value)


def test_nq_adapter_bad_line(tmp_path):
    path = tmp_path / "nq.jsonl"
    path.write_text('{"question": "q"}\n', encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_questions(path, "nq")
    assert "answer" in str(err.value)


def test_triviaqa_adapter(tmp_path):
    data = {
        "Data": [
            {
                "QuestionId": "tc_1",
                "Question": "Who wrote Hamlet?",
                "Answer": {"Value": "William Shakespeare", "Aliases": ["Shakespeare"]},
            }
        ]
    }
    path = tmp_path / "tqa.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    records = load_questions(path, "triviaqa")
    assert records[0].dataset is Dataset.TRIVIA_QA
    assert records[0].gold_answers == ("William Shakespeare", "Shakespeare")


def test_hotpotqa_adapter(tmp_path):
    data = [{"_id": "h1", "question": "multi hop question", "answer": "yes"}]
    path = tmp_path / "hqa.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    records = load_questions(path, "hotpotqa")
    assert records[0].dataset is Dataset.HOTPOT_QA
    assert records[0].hop_count == 2


@pytest.mark.parametrize(
    "adapter, content, where",
    [
        ("nq", '["question", "answer"]\n', "data.json:1"),
        ("nq", '"question and answer"\n', "data.json:1"),
        ("nq", '{"question": "q", "answer": 5}\n', "data.json:1"),
        ("nq", '{"question": "q", "answer": {"text": "a"}}\n', "data.json:1"),
        ("triviaqa", '["Data"]', "data.json"),
        ("triviaqa", '{"Data": ["q"]}', "data.json: Data[0]"),
        ("triviaqa", '{"Data": [{"Question": "q", "Answer": "a"}]}', "data.json: Data[0]"),
        (
            "triviaqa",
            '{"Data": [{"Question": "q", "Answer": {"Value": "Bob", "Aliases": "Robert"}}]}',
            "data.json: Data[0]",
        ),
        ("hotpotqa", '["q"]', "data.json: [0]"),
    ],
    ids=[
        "nq-array-line", "nq-string-line", "nq-number-answer", "nq-object-answer",
        "triviaqa-array-top-level", "triviaqa-string-item", "triviaqa-string-answer",
        "triviaqa-string-aliases",
        "hotpotqa-string-item",
    ],
)
def test_malformed_item_raises_data_error_naming_file_and_item(tmp_path, adapter, content, where):
    path = tmp_path / "data.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_questions(path, adapter)
    assert str(err.value).startswith(str(tmp_path / where))


@pytest.mark.parametrize(
    "adapter, content, where, field",
    [
        ("nq", '{"question": null, "answer": ["x"]}\n', "data.json:1", "question"),
        ("nq", '{"question": 7, "answer": ["x"]}\n', "data.json:1", "question"),
        ("nq", '{"question": "q", "answer": [5, true]}\n', "data.json:1", "answer[0]"),
        ("nq", '{"question": "q", "answer": ["x", null]}\n', "data.json:1", "answer[1]"),
        (
            "nq",
            '{"question": "q", "answer": "x", "long_answer": 3}\n',
            "data.json:1",
            "long_answer",
        ),
        (
            "triviaqa",
            '{"Data": [{"Question": null, "Answer": {"Value": "Bob"}}]}',
            "data.json: Data[0]",
            "Question",
        ),
        (
            "triviaqa",
            '{"Data": [{"Question": "q", "Answer": {"Value": 5}}]}',
            "data.json: Data[0]: Answer",
            "Value",
        ),
        (
            "triviaqa",
            '{"Data": [{"Question": "q", "Answer": {"Value": "Bob", "Aliases": ["Rob", true]}}]}',
            "data.json: Data[0]: Answer",
            "Aliases[1]",
        ),
        ("hotpotqa", '[{"question": "q", "answer": 5}]', "data.json: [0]", "answer"),
    ],
    ids=[
        "nq-null-question", "nq-number-question", "nq-number-alias", "nq-null-alias",
        "nq-number-long-answer", "triviaqa-null-question", "triviaqa-number-value",
        "triviaqa-boolean-alias", "hotpotqa-number-answer",
    ],
)
def test_a_question_or_answer_that_is_not_a_string_is_refused_naming_it(
    tmp_path, adapter, content, where, field
):
    path = tmp_path / "data.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_questions(path, adapter)
    assert str(err.value).startswith(f"{tmp_path / where}: {field} must be ")


@pytest.mark.parametrize("answer", ["5", "true", '{"text": "a"}'], ids=["number", "boolean", "object"])
def test_an_nq_answer_of_neither_accepted_form_names_both(tmp_path, answer):
    path = tmp_path / "data.json"
    path.write_text(f'{{"question": "q", "answer": {answer}}}\n', encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_questions(path, "nq")
    assert str(err.value) == (
        f"{path}:1: answer must be a string or an array of strings, got {json.loads(answer)!r}"
    )


def test_adapters_ignore_keys_they_do_not_read_and_keep_ids_as_given(tmp_path):
    nq = tmp_path / "nq.jsonl"
    nq.write_text('{"id": 5, "question": "q", "answer": "a", "extra": [1]}\n', encoding="utf-8")
    assert load_questions(nq, "nq")[0].id == "5"
    item = {
        "QuestionId": 7, "Question": "q", "QuestionSource": "x",
        "Answer": {"Value": "Bob", "Aliases": ["Bob", "Rob"], "Type": "WikipediaEntity"},
    }
    tqa = tmp_path / "tqa.json"
    tqa.write_text(json.dumps({"Data": [item], "Version": 1.0}), encoding="utf-8")
    [record] = load_questions(tqa, "triviaqa")
    assert (record.id, record.gold_answers) == ("7", ("Bob", "Rob"))
    hqa = tmp_path / "hqa.json"
    hqa.write_text(
        '[{"_id": "h", "question": "q", "answer": "a", "level": "hard"}]', encoding="utf-8"
    )
    assert load_questions(hqa, "hotpotqa")[0].gold_answers == ("a",)


@pytest.mark.parametrize(
    "adapter, content, ids",
    [
        ("nq", "".join(
            json.dumps({"id": None, "question": f"q{i}", "answer": "a"}) + "\n" for i in range(2)
        ), ["nq-1", "nq-2"]),
        ("triviaqa", json.dumps({"Data": [
            {"QuestionId": None, "Question": f"q{i}", "Answer": {"Value": "a"}} for i in range(2)
        ]}), ["tqa-0", "tqa-1"]),
        ("hotpotqa", json.dumps([
            {"_id": None, "question": f"q{i}", "answer": "a"} for i in range(2)
        ]), ["hqa-0", "hqa-1"]),
    ],
    ids=["nq", "triviaqa", "hotpotqa"],
)
def test_a_null_id_is_numbered_like_an_absent_one(tmp_path, adapter, content, ids):
    path = tmp_path / "data"
    path.write_text(content, encoding="utf-8")
    assert [record.id for record in load_questions(path, adapter)] == ids


def test_native_records_adapter(tmp_path):
    record = make_question("c1", "a question", ("an answer",))
    path = tmp_path / "native.jsonl"
    path.write_text(serialize(record) + "\n", encoding="utf-8")
    assert load_questions(path, "records") == [record]


def test_native_records_reject_non_questions(tmp_path):
    path = tmp_path / "native.jsonl"
    path.write_text(
        '{"kind":"exemplar","question":"q","recitations":[],"answer":"a","rationale":null}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError):
        load_questions(path, "records")


def test_duplicate_ids_rejected(tmp_path):
    rows = [
        {"id": "same", "question": "q one", "answer": ["a"]},
        {"id": "same", "question": "q two", "answer": ["b"]},
    ]
    path = tmp_path / "nq.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(DataError):
        load_questions(path, "nq")


def test_unknown_adapter(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        load_questions(path, "mystery")


def test_missing_file():
    with pytest.raises(DataError):
        load_questions("/nonexistent/nq.jsonl", "nq")


def test_default_shots():
    assert default_shots("nq") == 5
    assert default_shots("triviaqa") == 5
    assert default_shots("hotpotqa") == 4
