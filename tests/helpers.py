"""Shared test helpers: canonical exemplars matching the golden prompt files,
helpers for scripting end-to-end recite-and-answer runs, answering one
question, scoring records into views, and a time limit for threaded tests."""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from types import SimpleNamespace

from reciteqa import backend as backend_module
from reciteqa.backend import Backend, ScriptedBackend
from reciteqa.core import (
    PATH_FIELDS, RECORD_FIELDS, REQUIRED, Dataset, Exemplar, QuestionRecord, RunRecord, Scheme,
)
from reciteqa.evalkit import DEFAULT_PROFILE, NormProfile, ScoredRecord
from reciteqa.pipeline import SchemeConfig, run_dataset
from reciteqa.prompting import DEFAULT_DIALECT, PromptSpec, build_qa_prompt, build_recitation_prompt

GOLDEN_DIR = Path(__file__).parent / "golden"
DATA_DIR = Path(__file__).parent / "data"


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


LONDON_EXEMPLAR = Exemplar(
    question="who opened the london bridge in 1973",
    recitations=("Queen Elizabeth II opened the London Bridge on 17 March 1973.",),
    answer="Queen Elizabeth II",
)

EIFFEL_EXEMPLAR = Exemplar(
    question="where is the eiffel tower",
    recitations=(
        "The Eiffel Tower is a wrought-iron lattice tower on the Champ de Mars in Paris, France.",
    ),
    answer="Paris",
)

MULTIHOP_EXEMPLAR = Exemplar(
    question="which company operates the hotel that hosted the 1971 national film awards",
    recitations=(
        "The 1971 National Film Awards ceremony was hosted at the Oberoi Hotel in New Delhi.",
        "The Oberoi Group is a hotel company with its head office in Delhi.",
    ),
    answer="The Oberoi Group",
)

COT_EXEMPLAR = Exemplar(
    question="what is the tenth decimal of pi",
    rationale="The first 10 digits of pi are 3.14159 26535.",
    answer="5",
)

HINT_EXEMPLAR = (
    "how is child support enforced",
    "Child support --- Compliance and enforcement issues --- Enforcement --- Paragraph #2",
    "Child support enforcement measures include wage garnishment and the suspension of licenses.",
)


class CountingBackend(Backend):
    """Passes every request to `inner` and counts it; safe across the
    request threads of a run."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.requests = []

    @property
    def calls(self) -> int:
        return len(self.requests)

    def generate(self, request):
        self.requests.append(request)
        return self.inner.generate(request)


def answer_one(
    question: QuestionRecord, cfg: SchemeConfig, exemplars, backend: Backend, **kw
) -> RunRecord:
    """The one record of run_dataset on `question` alone, with no run
    directory."""
    [record] = run_dataset([question], cfg, exemplars, backend, **kw)
    return record


def scored(records, questions, profile: NormProfile = DEFAULT_PROFILE) -> list[ScoredRecord]:
    """Each run record's view, scored against the questions, as `reciteqa
    run` and `reciteqa analyze` build them for the report and the curve."""
    by_id = {q.id: q for q in questions}
    return [ScoredRecord(record, by_id, profile) for record in records]


def count_sha256_input(monkeypatch) -> list[int]:
    """Route the backend module's SHA-256 through a shim; the list it
    returns gets the length of every piece of input SHA-256 is fed."""
    fed = []

    class Counted:
        def __init__(self, state):
            self.state = state

        def copy(self):
            return Counted(self.state.copy())

        def update(self, data):
            fed.append(len(data))
            self.state.update(data)

        def hexdigest(self):
            return self.state.hexdigest()

    def sha256(data=b""):
        fed.append(len(data))
        return Counted(hashlib.sha256(data))

    monkeypatch.setattr(backend_module, "hashlib", SimpleNamespace(sha256=sha256))
    return fed


def within(seconds, fn):
    """fn() on a daemon thread; fails, rather than hangs, after `seconds`."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds}s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def make_question(
    qid: str,
    question: str,
    golds: tuple[str, ...],
    evidence: str | None = None,
    dataset: Dataset = Dataset.NQ,
    hop_count: int = 1,
) -> QuestionRecord:
    return QuestionRecord(
        id=qid,
        dataset=dataset,
        question=question,
        gold_answers=golds,
        gold_evidence=evidence,
        hop_count=hop_count,
    )


def script_recite_run(
    backend: ScriptedBackend,
    question: QuestionRecord,
    exemplars,
    cfg: SchemeConfig,
    recitations: list[str],
    answer_for,
    dialect=DEFAULT_DIALECT,
) -> None:
    """Register a full recite-and-answer round for one question: the
    recitation prompt serves `recitations` as its queue, and each per-path
    QA prompt answers with answer_for(recitation)."""
    recitation_prompt = build_recitation_prompt(
        PromptSpec(
            scheme=Scheme.RECITE_ANSWER,
            exemplars=tuple(exemplars),
            target_question=question.question,
            dialect=dialect,
        )
    )
    backend.register(recitation_prompt, recitations)
    for recitation in dict.fromkeys(recitations):
        qa_prompt = build_qa_prompt(
            PromptSpec(
                scheme=Scheme.RECITE_ANSWER,
                exemplars=tuple(exemplars),
                target_question=question.question,
                dialect=dialect,
            ),
            (recitation.strip(),),
        )
        backend.register(qa_prompt, [answer_for(recitation)])


def dump_script(backend: ScriptedBackend, path: Path) -> Path:
    """Write a ScriptedBackend's entries as a loadable script file."""
    payload = {"entries": {k: list(q) for k, q in backend._entries.items()}}
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return path


def _mistyped(fields: dict, obj: dict):
    """Yield (key, obj) for each field of a record map, with that field
    given a wrongly typed value, and null where the field is required."""
    for key, (kind, default, *_) in fields.items():
        if isinstance(kind, list):
            values = ["x", [1]]
        else:
            values = {str: [5], int: [True], (int, float): [True], dict: [["x"]]}[kind]
        for value in values + ([None] if default is REQUIRED else []):
            yield key, {**obj, key: value}


def mistyped_record_lines():
    """Yield (field, line) for each field of each golden record kind, and of
    its run's first path, given a wrongly typed value; the field is named as
    a parse error names it, e.g. `paths[0]: raw_answer_text`."""
    for line in golden("records.jsonl").split("\n"):
        if not line:
            continue
        record = json.loads(line)
        for key, bad in _mistyped(RECORD_FIELDS[record["kind"]], record):
            yield key, json.dumps(bad)
        if record["kind"] == "run":
            first, *rest = record["paths"]
            for key, path in _mistyped(PATH_FIELDS, first):
                yield f"paths[0]: {key}", json.dumps({**record, "paths": [path, *rest]})
