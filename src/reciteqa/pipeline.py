"""One answering engine for every scheme, and dataset runs on top of it.

_answer answers one question under any of the five schemes: direct,
recite-and-answer with a K-path self-consistency vote, multi-hop one-pass
recitation, chain-of-thought, and diversified recitation via passage hints.
The prompt grammar belongs to prompting; this module decides only which
prompts each scheme renders (_question_prompts, shared with
check_exemplar_prompts) and how paths flow through them. Every scheme is
the same two stages:

* sampling draws paths from one prompt, path i at seed base_seed + i, which
  keeps independently sampled paths distinct and scripted runs
  reproducible: recitations, one-pass numbered recitations, chain-of-thought
  rationales (whose paths are final) or passage hints (whose unique hints
  are then greedily expanded into passages);
* answering greedily answers each path on its own recitations: direct is
  one path with none, diversified one path over all its passages. Paths
  whose recitations are identical are answered by one request, whose
  outcome (answer or failure) they all carry, so a K-path question costs
  K + d requests, where d is its number of distinct recitation tuples.

A path whose sample, answer prompt or answer fails is recorded as failed,
with its cause in backend_meta["error"], and is left out of the plurality
vote; the question fails only when every path does, and a question whose
own prompt cannot be built is one failed path. A failed question's record
has voted_answer "". Answer-stage outputs are stored as the transcript
prompting.read_answer gives (the answer cue line plus the completion), so
every extracted answer is re-derivable from its raw text by
prompting.extract_answer.

run_dataset is the one entry point: it alone checks the config and the
in-flight limits, takes its fingerprint, builds the executors and binds the
run's dispatcher, the one backend.generate_batch call _answer makes per
stage. With Q = max_questions_in_flight and P = max_paths_in_flight, up to
Q questions run at a time, each on its own thread, and at most Q x P
requests are in flight over the run. A batch runs as lanes, each taking the
batch's next unsent request as its last one returns. The question's thread
is its batch's first lane; the other lanes go to the run's one request
executor of Q x (P - 1) helper workers, so a worker freed by one question's
lanes takes the next queued lane at once, whichever question it belongs to.
A CachingBackend answers a batch's cache hits on the question's own thread
and runs only its misses as lanes, so a fully cached stage uses no worker.
Questions are submitted through a window of QUESTION_WINDOW x Q, each as the
consumer takes an earlier record, and records.jsonl is appended in input
order.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .backend import Backend, BackendError, GenerationRequest, GenerationResult
from .core import (
    AppendLog,
    Exemplar,
    ParseError,
    QuestionRecord,
    RecitationPath,
    RunRecord,
    SamplingParams,
    Scheme,
    Strategy,
    derived_params,
    deserialize,
    params_to_dict,
    read_log,
    serialize,
    stable_hash,
    validate,
    write_atomic,
)
from .evalkit import DEFAULT_PROFILE, NormProfile, plurality_vote
from .prompting import (
    DEFAULT_DIALECT,
    COT_ANSWER_ANCHOR,
    PromptDialect,
    PromptError,
    PromptSpec,
    build_cot_prompt,
    build_hint_prompts,
    build_multihop_prompt,
    build_qa_prompt,
    build_recitation_prompt,
    first_line,
    read_answer,
    split_numbered_recitations,
)

__all__ = [
    "SchemeConfig",
    "default_recitation_params",
    "default_answer_params",
    "config_fingerprint",
    "check_exemplar_prompts",
    "run_dataset",
    "load_run_records",
]

logger = logging.getLogger(__name__)

PROMPT_TEMPLATE_VERSION = 1
# Questions submitted ahead of the consumer, per question thread.
QUESTION_WINDOW = 8


def default_recitation_params(
    seed: int = 0, max_tokens: int = 256, stop_sequences: Sequence[str] = ("\n\n\n",)
) -> SamplingParams:
    # Sampling defaults for recitations: top-k 40 at temperature 0.7.
    return SamplingParams(
        strategy=Strategy.TOP_K,
        k=40,
        temperature=0.7,
        seed=seed,
        max_tokens=max_tokens,
        stop_sequences=tuple(stop_sequences),
    )


def default_answer_params(
    seed: int = 0, max_tokens: int = 64, stop_sequences: Sequence[str] = ("\n\n",)
) -> SamplingParams:
    return SamplingParams(
        strategy=Strategy.GREEDY,
        seed=seed,
        max_tokens=max_tokens,
        stop_sequences=tuple(stop_sequences),
    )


@dataclass(frozen=True)
class SchemeConfig:
    """One answering configuration: scheme, path count, and decoding
    parameters. Answers are always greedy-decoded."""

    scheme: Scheme
    recitation_params: SamplingParams
    answer_params: SamplingParams
    n_paths: int = 20
    n_hints: int = 4
    exemplar_seed: int = 0
    shots: int = 5
    recitations_per_hop: int = 2
    cot_anchor: str = COT_ANSWER_ANCHOR

    def validate(self) -> list[str]:
        issues = []
        if self.answer_params.strategy is not Strategy.GREEDY:
            issues.append("answer_params must use greedy decoding")
        if self.n_paths < 1:
            issues.append(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_hints < 1:
            issues.append(f"n_hints must be >= 1, got {self.n_hints}")
        if self.shots < 1:
            issues.append(f"shots must be >= 1, got {self.shots}")
        if self.scheme is Scheme.MULTI_HOP_RECITE and self.recitations_per_hop < 2:
            issues.append("multi-hop runs need recitations_per_hop >= 2")
        for name in ("recitation_params", "answer_params"):
            issues.extend(f"{name}: {issue}" for issue in validate(getattr(self, name)))
        return issues

    @cached_property
    def sample_params(self) -> tuple[SamplingParams, ...]:
        """The params of a question's sampled requests, each with its own
        derived seed: n_hints of them under diversified_recite, otherwise
        n_paths. Derived once per config, not once per question."""
        n = self.n_hints if self.scheme is Scheme.DIVERSIFIED_RECITE else self.n_paths
        return tuple(derived_params(self.recitation_params, i) for i in range(n))


def config_fingerprint(
    cfg: SchemeConfig,
    exemplars: Sequence[Exemplar],
    dialect: PromptDialect = DEFAULT_DIALECT,
    hint_exemplars: Sequence[tuple[str, str, str]] = (),
) -> str:
    """Stable hash of everything that shapes the prompts and sampling, so
    cached runs can be safely reused across processes and platforms."""
    payload = {
        "template_version": PROMPT_TEMPLATE_VERSION,
        "scheme": cfg.scheme.value,
        "n_paths": cfg.n_paths,
        "n_hints": cfg.n_hints,
        "shots": cfg.shots,
        "recitations_per_hop": cfg.recitations_per_hop,
        "cot_anchor": cfg.cot_anchor,
        "recitation_params": params_to_dict(cfg.recitation_params),
        "answer_params": params_to_dict(cfg.answer_params),
        "dialect": dialect.name.value,
        "exemplars": [stable_hash(serialize(e)) for e in exemplars],
        "hint_exemplars": [stable_hash(list(t)) for t in hint_exemplars],
    }
    return stable_hash(payload)


def _path(
    recitations: Sequence[str], outcome: GenerationResult | BackendError, cfg: SchemeConfig
) -> RecitationPath:
    """The path for one outcome that carries an answer (a greedy answer or a
    chain-of-thought rationale): failed on a backend error, otherwise the
    answer read from its completion."""
    if isinstance(outcome, BackendError):
        return _failed_path(recitations, outcome)
    raw, answer, failed_extraction = read_answer(outcome.texts[0], cfg.scheme, cfg.cot_anchor)
    path_meta = {
        "model": str(outcome.meta.get("model", "")),
        "latency_ms": str(outcome.meta.get("latency_ms", "")),
    }
    if failed_extraction:
        path_meta["extraction_failed"] = "true"
    return RecitationPath(
        recitations=tuple(recitations),
        raw_answer_text=raw,
        extracted_answer=answer,
        backend_meta=path_meta,
    )


def _failed_path(recitations: Sequence[str], error: Exception | str) -> RecitationPath:
    message = error if isinstance(error, str) else f"{type(error).__name__}: {error}"
    return RecitationPath(
        recitations=tuple(recitations),
        raw_answer_text="",
        extracted_answer="",
        backend_meta={"error": message},
    )


def _question_prompts(
    cfg: SchemeConfig,
    exemplars: Sequence[Exemplar],
    question: str,
    hint_exemplars: Sequence,
    dialect: PromptDialect,
) -> tuple[str | None, Callable[[str], str] | None, Callable[[tuple[str, ...]], str] | None]:
    """The prompts cfg.scheme asks on one question: the rendered prompt its
    paths are sampled from (None for direct), the template expanding a hint
    into a passage (diversified only), and the answer-prompt builder for a
    path's recitations (None for chain-of-thought, whose rationales end in
    their answers)."""
    scheme = cfg.scheme
    if scheme is Scheme.DIRECT:
        # Direct prompting renders exemplars as plain question/answer pairs.
        exemplars = tuple(replace(e, recitations=(), rationale=None) for e in exemplars)
    spec = PromptSpec(
        scheme=scheme,
        exemplars=tuple(exemplars),
        target_question=question,
        recitations_per_hop=cfg.recitations_per_hop,
        dialect=dialect,
    )

    def answer_prompt(recitations: tuple[str, ...]) -> str:
        # One spec for all of the question's paths: its exemplar prefix and
        # target-question line are rendered once, not once per path.
        return build_qa_prompt(spec, recitations)

    if scheme is Scheme.CHAIN_OF_THOUGHT:
        return build_cot_prompt(spec, anchor=cfg.cot_anchor), None, None
    if scheme is Scheme.DIVERSIFIED_RECITE:
        return (*build_hint_prompts(question, hint_exemplars, dialect), answer_prompt)
    if scheme is Scheme.RECITE_ANSWER:
        return build_recitation_prompt(spec), None, answer_prompt
    if scheme is Scheme.MULTI_HOP_RECITE:
        # All numbered recitations of a path come from one sequential pass,
        # so later ones can build on earlier ones.
        return build_multihop_prompt(spec), None, answer_prompt
    return None, None, answer_prompt


def _dedup_hints(hints: Sequence[str]) -> list[str]:
    """Case-insensitive exact dedup after trimming and collapsing internal
    whitespace; first occurrence keeps its raw form. Idempotent."""
    seen = set()
    unique = []
    for hint in hints:
        key = " ".join(hint.split()).lower()
        if key and key not in seen:
            seen.add(key)
            unique.append(" ".join(hint.split()))
    return unique


def _answer(
    question: QuestionRecord,
    *,
    dispatch: Callable[[list[GenerationRequest]], list[GenerationResult | BackendError]],
    cfg: SchemeConfig,
    exemplars: tuple[Exemplar, ...],
    hint_exemplars: Sequence,
    dialect: PromptDialect,
    profile: NormProfile,
    fingerprint: str,
    clock: Callable[[], float],
) -> RunRecord:
    """The record of one question under cfg.scheme, with each stage's model
    requests sent as one batch through `dispatch`. A failed question is
    logged and recorded, never raised: see the module docstring."""
    started = clock()
    scheme = cfg.scheme

    def record(paths: Sequence[RecitationPath]) -> RunRecord:
        answers = [p.extracted_answer for p in paths if not p.failed]
        if answers:
            voted, _ = plurality_vote(answers, profile.for_dataset(question.dataset.value))
        else:
            voted = ""
            logger.warning(
                "question %s failed: all %d paths failed (first: %s)",
                question.id, len(paths), paths[0].backend_meta["error"],
            )
        return RunRecord(
            question_id=question.id,
            scheme=scheme,
            paths=tuple(paths),
            voted_answer=voted,
            config_fingerprint=fingerprint,
            wall_clock_ms=int((clock() - started) * 1000),
        )

    try:
        sample_prompt, passage_template, answer_prompt = _question_prompts(
            cfg, exemplars, question.question, hint_exemplars, dialect
        )
    except PromptError as exc:
        return record([_failed_path((), exc)])

    def _sample(prompt: str) -> list[GenerationResult | BackendError]:
        return dispatch([GenerationRequest(prompt, params, 1) for params in cfg.sample_params])

    def _answer_paths(
        entries: Sequence[tuple[str, ...] | RecitationPath],
    ) -> list[RecitationPath]:
        # Greedily answer each entry on its recitations; an entry that is
        # already a failed path passes through. Model text that breaks the
        # prompt grammar fails its own path, never the question. A greedy
        # answer depends only on its recitations, so each distinct entry is
        # rendered and sent once, and its repeats take that leader's path.
        paths = list(entries)
        requests_list = []
        slots = []
        leaders: dict[tuple[str, ...], int] = {}
        repeats = []
        for i, entry in enumerate(entries):
            if isinstance(entry, RecitationPath):
                continue
            if entry in leaders:
                repeats.append((i, leaders[entry]))
                continue
            leaders[entry] = i
            try:
                prompt = answer_prompt(entry)
            except PromptError as exc:
                paths[i] = _failed_path(entry, exc)
                continue
            requests_list.append(GenerationRequest(prompt, cfg.answer_params, 1))
            slots.append(i)
        outcomes = dispatch(requests_list)
        for i, outcome in zip(slots, outcomes):
            paths[i] = _path(entries[i], outcome, cfg)
        for i, leader in repeats:
            paths[i] = paths[leader]
        return paths

    if scheme is Scheme.DIRECT:
        paths = _answer_paths([()])
    elif scheme is Scheme.CHAIN_OF_THOUGHT:
        # Rationales are final: the answer follows the anchor phrase.
        paths = [_path((), outcome, cfg) for outcome in _sample(sample_prompt)]
    elif scheme is Scheme.DIVERSIFIED_RECITE:
        # Sample hints, dedup them, greedily expand each unique hint into a
        # passage, then answer once from all passages as a single context.
        sampled_hints = []
        for outcome in _sample(sample_prompt):
            if isinstance(outcome, BackendError):
                continue
            hint = first_line(outcome.texts[0])
            if hint:
                sampled_hints.append(hint)
        unique_hints = _dedup_hints(sampled_hints)
        greedy = replace(
            cfg.recitation_params, strategy=Strategy.GREEDY, k=None, temperature=None
        )
        expansions = []
        for hint in unique_hints:
            try:
                expansions.append(GenerationRequest(passage_template(hint), greedy, 1))
            except PromptError:
                continue
        passages = []
        for outcome in dispatch(expansions):
            if isinstance(outcome, BackendError):
                continue
            passage = outcome.texts[0].strip()
            if passage:
                passages.append(passage)
        if not sampled_hints:
            entry = _failed_path((), "all hint samples failed")
        elif not passages:
            entry = _failed_path((), "all hint expansions failed")
        else:
            entry = tuple(passages)
        paths = _answer_paths([entry])
        if not paths[0].failed:
            meta = dict(paths[0].backend_meta)
            meta["n_hints_sampled"] = str(len(sampled_hints))
            meta["n_unique_hints"] = str(len(unique_hints))
            meta["n_passages"] = str(len(passages))
            paths = [replace(paths[0], backend_meta=meta)]
    else:
        entries = []
        for outcome in _sample(sample_prompt):
            if isinstance(outcome, BackendError):
                entries.append(_failed_path((), outcome))
            elif scheme is Scheme.RECITE_ANSWER:
                entries.append((outcome.texts[0].strip(),))
            else:
                recitations = split_numbered_recitations(
                    outcome.texts[0], cfg.recitations_per_hop
                )
                entries.append(
                    recitations or _failed_path((), "structure: recitation cues missing")
                )
        paths = _answer_paths(entries)
    return record(paths)


def check_exemplar_prompts(
    cfg: SchemeConfig,
    exemplars: Sequence[Exemplar],
    *,
    hint_exemplars: Sequence = (),
    dialect: PromptDialect = DEFAULT_DIALECT,
) -> None:
    """Render the few-shot prompts `run_dataset` builds under cfg.scheme
    for a placeholder question and recitation.

    Raises PromptError when an exemplar breaks the prompt grammar, which
    would otherwise fail every question of a run the same way.
    """
    placeholder = "placeholder"
    sample_prompt, _, answer_prompt = _question_prompts(
        cfg, exemplars, placeholder, hint_exemplars, dialect
    )
    if answer_prompt is not None:
        # A sampled path carries recitations; the direct path carries none.
        answer_prompt(() if sample_prompt is None else (placeholder,))


# ---------------------------------------------------------------------------
# Dataset runs


def _run_record(line: str) -> RunRecord:
    """The run record of a records.jsonl line; a record of another kind is
    refused with ParseError."""
    # deserialize is looked up at call time, so a patched module attribute
    # sees every record.
    record = deserialize(line)
    if not isinstance(record, RunRecord):
        raise ParseError(f"not a run record: a {type(record).__name__}")
    return record


def load_run_records(
    path: str | Path, convert: Callable[[RunRecord], Any] | None = None
) -> dict[str, Any]:
    """Read a records file as core.read_log reads a log, so that a line
    holding another kind of record is skipped with its warning. The result
    keeps the last record per question id, in the order of each id's first
    line. With `convert`, each record is replaced by convert(record) as it
    is read, and only that value is kept."""
    records: dict[str, Any] = {}
    for record in read_log(path, _run_record):
        records[record.question_id] = record if convert is None else convert(record)
    return records


def run_dataset(
    records: Sequence[QuestionRecord],
    cfg: SchemeConfig,
    exemplars: Sequence[Exemplar],
    backend: Backend,
    *,
    hint_exemplars: Sequence = (),
    dialect: PromptDialect = DEFAULT_DIALECT,
    profile: NormProfile = DEFAULT_PROFILE,
    resume: bool = False,
    run_dir: str | Path | None = None,
    limit: int | None = None,
    max_questions_in_flight: int = 1,
    max_paths_in_flight: int = 4,
    clock: Callable[[], float] = time.monotonic,
) -> Iterator[RunRecord]:
    """Answer every question (optionally only the first `limit`), at most
    max_questions_in_flight at a time and with at most
    max_questions_in_flight x max_paths_in_flight requests in flight over
    the run, emitting records in input order.

    With resume, a torn last line of records.jsonl is cut off first; then
    questions whose stored record carries the current config fingerprint
    are skipped and their stored records re-emitted, unless every path of
    that record failed: such a question is answered again and its new
    record appended. Per-question failures become failed RunRecords and
    the run continues; an invalid cfg, or a limit or in-flight limit below
    1, raises ValueError before any request, and before run_dir is touched.
    """
    issues = cfg.validate()
    if issues:
        raise ValueError(f"invalid scheme config: {'; '.join(issues)}")
    for name, limit_value in (
        ("limit", limit),
        ("max_questions_in_flight", max_questions_in_flight),
        ("max_paths_in_flight", max_paths_in_flight),
    ):
        if limit_value is not None and limit_value < 1:
            raise ValueError(f"{name} must be >= 1, got {limit_value}")
    exemplars = tuple(exemplars)
    fingerprint = config_fingerprint(
        cfg, exemplars, dialect, tuple(tuple(t) for t in hint_exemplars)
    )
    if limit is not None:
        records = records[:limit]
    existing: dict[str, RunRecord] = {}
    log = None
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        records_path = run_dir / "records.jsonl"
        if not resume:
            write_atomic(records_path, "")
        # A resumed run's log is cut back to its last whole record first.
        log = AppendLog(records_path)
        existing = load_run_records(records_path)

    # One executor for every model request of the run. The question thread
    # that sends a batch is its first lane, so the executor holds only
    # helper lanes: Q x (P - 1) of them, with the Q question threads making
    # Q x P requests in flight at most. At P = 1 it never starts a thread.
    helpers = max_questions_in_flight * (max_paths_in_flight - 1)
    requests = ThreadPoolExecutor(max_workers=max(helpers, 1))
    answer = partial(
        _answer,
        # Bound per run, not at import: a patched Backend.generate_batch
        # still sees every batch.
        dispatch=partial(backend.generate_batch, max_in_flight=helpers + 1, executor=requests),
        cfg=cfg,
        exemplars=exemplars,
        hint_exemplars=hint_exemplars,
        dialect=dialect,
        profile=profile,
        fingerprint=fingerprint,
        clock=clock,
    )

    def process(question: QuestionRecord) -> tuple[RunRecord, bool]:
        cached = existing.get(question.id)
        if (
            cached is not None
            and cached.config_fingerprint == fingerprint
            and not all(p.failed for p in cached.paths)
        ):
            return cached, False
        return answer(question), True

    # Not Executor.map, which submits every question before the first
    # result: a question is submitted as the consumer takes an earlier
    # record, so few records wait for the consumer.
    pending = iter(records)
    window = deque()
    try:
        with ThreadPoolExecutor(max_workers=max_questions_in_flight) as questions:
            try:
                for question in islice(pending, QUESTION_WINDOW * max_questions_in_flight):
                    window.append(questions.submit(process, question))
                while window:
                    record, fresh = window.popleft().result()
                    if log and fresh:
                        log.append(serialize(record))
                    yield record
                    for question in islice(pending, 1):
                        window.append(questions.submit(process, question))
            finally:
                # Clean drain on an interrupt or a closed run: running
                # questions finish, queued ones are dropped; already-written
                # records stay on disk for resume.
                for future in window:
                    future.cancel()
    finally:
        requests.shutdown()
        if log:
            log.close()
