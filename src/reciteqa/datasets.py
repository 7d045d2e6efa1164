"""Adapters mapping public dataset distribution formats into question
records, so format drift never touches core logic.

Adapters:
  nq        JSONL, one object per line: {"question", "answer": [...],
            optional "id", optional "long_answer"}
  triviaqa  official JSON: {"Data": [{"QuestionId", "Question",
            "Answer": {"Value", "Aliases": [...]}}]}
  hotpotqa  official JSON array: [{"_id", "question", "answer"}], 2 hops
  records   this package's own line-delimited question records

Questions and answers must be strings, checked by one field map per row;
keys a map does not name are ignored, and ids are read as they come.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from .core import (
    REQUIRED, Dataset, ParseError, QuestionRecord, data_row, deserialize, json_object,
    read_lines, read_text, validate,
)

__all__ = ["DataError", "ADAPTERS", "load_questions", "default_shots"]


class DataError(ValueError):
    pass


_NQ_ROW = {"question": (str, REQUIRED), "answer": ([str], REQUIRED), "long_answer": (str, None)}
_TRIVIAQA_ITEM = {"Question": (str, REQUIRED), "Answer": (dict, REQUIRED)}
_TRIVIAQA_ANSWER = {"Value": (str, ""), "Aliases": ([str], ())}
_HOTPOTQA_ITEM = {"question": (str, REQUIRED), "answer": (str, REQUIRED)}


def _check(record: QuestionRecord, where: str) -> QuestionRecord:
    issues = validate(record)
    if issues:
        raise DataError(f"{where}: invalid question record: {'; '.join(issues)}")
    return record


def _row_id(row: dict, key: str, positional: str) -> str:
    """A row's id in string form; an absent or null id is the positional one."""
    value = row.get(key)
    return positional if value is None else str(value)


def read_nq(path: Path) -> list[QuestionRecord]:
    records = []
    for lineno, line in read_lines(path, DataError):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        obj = json_object(line, where, DataError)
        # "answer" is one alias or an array of them.
        answer = obj.get("answer")
        if isinstance(answer, str):
            obj["answer"] = [answer]
        elif answer is not None and not isinstance(answer, list):
            raise DataError(
                f"{where}: answer must be a string or an array of strings, got {answer!r}"
            )
        row = data_row(obj, _NQ_ROW, where, DataError)
        records.append(
            _check(
                QuestionRecord(
                    id=_row_id(obj, "id", f"nq-{lineno}"),
                    dataset=Dataset.NQ,
                    question=row["question"].strip(),
                    gold_answers=row["answer"],
                    gold_evidence=row["long_answer"],
                    hop_count=1,
                ),
                where,
            )
        )
    return records


def read_triviaqa(path: Path) -> list[QuestionRecord]:
    items = json_object(
        read_text(path, DataError), str(path), DataError, {"Data": (list, REQUIRED)}
    )["Data"]
    records = []
    for i, item in enumerate(items):
        where = f"{path}: Data[{i}]"
        row = data_row(item, _TRIVIAQA_ITEM, where, DataError)
        answer = data_row(row["Answer"], _TRIVIAQA_ANSWER, f"{where}: Answer", DataError)
        aliases = [a for a in dict.fromkeys((answer["Value"], *answer["Aliases"])) if a]
        records.append(
            _check(
                QuestionRecord(
                    id=_row_id(item, "QuestionId", f"tqa-{i}"),
                    dataset=Dataset.TRIVIA_QA,
                    question=row["Question"].strip(),
                    gold_answers=tuple(aliases),
                    gold_evidence=None,
                    hop_count=1,
                ),
                where,
            )
        )
    return records


def read_hotpotqa(path: Path) -> list[QuestionRecord]:
    try:
        data = json.loads(read_text(path, DataError))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc.msg}") from None
    if not isinstance(data, list):
        raise DataError(f"{path}: expected a top-level array")
    records = []
    for i, item in enumerate(data):
        where = f"{path}: [{i}]"
        row = data_row(item, _HOTPOTQA_ITEM, where, DataError)
        records.append(
            _check(
                QuestionRecord(
                    id=_row_id(item, "_id", f"hqa-{i}"),
                    dataset=Dataset.HOTPOT_QA,
                    question=row["question"].strip(),
                    gold_answers=(row["answer"],),
                    gold_evidence=None,
                    hop_count=2,
                ),
                where,
            )
        )
    return records


def read_native_records(path: Path) -> list[QuestionRecord]:
    records = []
    for lineno, line in read_lines(path, DataError):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = deserialize(line)
        except ParseError as exc:
            raise DataError(f"{where}: {exc}") from None
        if not isinstance(record, QuestionRecord):
            raise DataError(f"{where}: expected a question record")
        records.append(_check(record, where))
    return records


ADAPTERS: dict[str, Callable[[Path], list[QuestionRecord]]] = {
    "nq": read_nq,
    "triviaqa": read_triviaqa,
    "hotpotqa": read_hotpotqa,
    "records": read_native_records,
}


def load_questions(path: str | Path, adapter: str) -> list[QuestionRecord]:
    if adapter not in ADAPTERS:
        raise DataError(f"unknown dataset adapter {adapter!r}; have {sorted(ADAPTERS)}")
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file {path} does not exist")
    records = ADAPTERS[adapter](path)
    seen = set()
    for record in records:
        if record.id in seen:
            raise DataError(f"duplicate question id {record.id!r} in {path}")
        seen.add(record.id)
    return records


def default_shots(adapter: str) -> int:
    # Multi-hop evaluation conventionally uses 4 shots; single-hop uses 5.
    return 4 if adapter == "hotpotqa" else 5
