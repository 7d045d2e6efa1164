"""Shared domain types, validation, and line-delimited serialization.

Every record that crosses a module or process boundary is one of the frozen
dataclasses below, persisted as one JSON object per line with sorted keys and
compact separators, so equal records always serialize to identical bytes.
All types are immutable values after construction and safe to share between
threads.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

__all__ = [
    "Dataset",
    "Scheme",
    "Strategy",
    "QuestionRecord",
    "Exemplar",
    "SamplingParams",
    "RecitationPath",
    "RunRecord",
    "ParseError",
    "validate",
    "serialize",
    "deserialize",
    "params_to_dict",
    "params_from_dict",
    "derived_params",
    "canonical_json",
    "json_object",
    "data_row",
    "check_fields",
    "REQUIRED",
    "RECORD_FIELDS",
    "PATH_FIELDS",
    "read_text",
    "read_lines",
    "read_log",
    "AppendLog",
    "write_atomic",
    "stable_hash",
]

logger = logging.getLogger(__name__)

MAX_SEED = 2**64 - 1


def derived_params(params: SamplingParams, index: int) -> SamplingParams:
    """params for the index-th of several independent samples: its seed is
    offset by index, wrapping within [0, MAX_SEED]."""
    return replace(params, seed=(params.seed + index) % (MAX_SEED + 1))


class Dataset(Enum):
    NQ = "nq"
    TRIVIA_QA = "triviaqa"
    HOTPOT_QA = "hotpotqa"
    CUSTOM = "custom"


class Scheme(Enum):
    DIRECT = "direct"
    RECITE_ANSWER = "recite_answer"
    MULTI_HOP_RECITE = "multi_hop_recite"
    DIVERSIFIED_RECITE = "diversified_recite"
    CHAIN_OF_THOUGHT = "chain_of_thought"


class Strategy(Enum):
    GREEDY = "greedy"
    TOP_K = "top_k"


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class QuestionRecord:
    """One QA item: question text, gold answer aliases, optional evidence."""

    id: str
    dataset: Dataset
    question: str
    gold_answers: tuple[str, ...]
    gold_evidence: str | None = None
    hop_count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "gold_answers", _freeze(self.gold_answers))


@dataclass(frozen=True)
class Exemplar:
    """One few-shot demonstration: a question with its recitations, answer,
    and (for the chain-of-thought baseline only) a rationale."""

    question: str
    answer: str
    recitations: tuple[str, ...] = ()
    rationale: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "recitations", _freeze(self.recitations))


@dataclass(frozen=True)
class SamplingParams:
    """Decoding controls forwarded to a generation backend."""

    strategy: Strategy
    seed: int = 0
    max_tokens: int = 256
    k: int | None = None
    temperature: float | None = None
    stop_sequences: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stop_sequences", _freeze(self.stop_sequences))


@dataclass(frozen=True)
class RecitationPath:
    """One self-consistency path: its recitations, the raw answer-stage text,
    and the answer extracted from it.

    A path is `failed` when backend_meta carries an "error" entry; failed
    paths are kept for analysis but excluded from voting.
    """

    recitations: tuple[str, ...]
    raw_answer_text: str
    extracted_answer: str
    backend_meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "recitations", _freeze(self.recitations))
        object.__setattr__(self, "backend_meta", dict(self.backend_meta))

    @property
    def failed(self) -> bool:
        return bool(self.backend_meta.get("error"))


@dataclass(frozen=True)
class RunRecord:
    """Per-question result: all paths, the voted answer, and the
    configuration fingerprint that produced them."""

    question_id: str
    scheme: Scheme
    paths: tuple[RecitationPath, ...]
    voted_answer: str
    config_fingerprint: str
    wall_clock_ms: int = 0

    def __post_init__(self):
        object.__setattr__(self, "paths", _freeze(self.paths))


# ---------------------------------------------------------------------------
# Validation


def _validate_question(rec: QuestionRecord) -> list[str]:
    issues = []
    if not rec.id:
        issues.append("id empty")
    if not rec.question:
        issues.append("question empty")
    elif rec.question != rec.question.strip():
        issues.append("question has leading/trailing whitespace")
    if not rec.gold_answers:
        issues.append("gold_answers empty")
    elif any(not a for a in rec.gold_answers):
        issues.append("gold_answers contains an empty string")
    if rec.hop_count < 1:
        issues.append(f"hop_count must be >= 1, got {rec.hop_count}")
    if rec.dataset is Dataset.HOTPOT_QA and rec.hop_count < 2:
        issues.append("hotpotqa records require hop_count >= 2")
    return issues


def _validate_exemplar(rec: Exemplar) -> list[str]:
    issues = []
    if not rec.question:
        issues.append("question empty")
    if rec.recitations and rec.rationale is not None:
        issues.append("exemplar carries both recitations and a rationale")
    if any(not r for r in rec.recitations):
        issues.append("recitations contains an empty string")
    return issues


def _validate_params(rec: SamplingParams) -> list[str]:
    issues = []
    if rec.strategy is Strategy.GREEDY:
        if rec.k is not None:
            issues.append("greedy strategy must not set k")
        if rec.temperature is not None:
            issues.append("greedy strategy must not set temperature")
    else:
        if rec.k is None or rec.k < 1:
            issues.append(f"top_k strategy requires k >= 1, got {rec.k}")
        if rec.temperature is None or rec.temperature <= 0:
            issues.append(
                "top_k strategy requires temperature > 0 (use greedy for 0), "
                f"got {rec.temperature}"
            )
    if rec.max_tokens < 1:
        issues.append(f"max_tokens must be >= 1, got {rec.max_tokens}")
    if not 0 <= rec.seed <= MAX_SEED:
        issues.append("seed must fit in an unsigned 64-bit integer")
    return issues


def _validate_path(
    rec: RecitationPath, scheme: Scheme, prefix: str, cot_anchor: str | None
) -> list[str]:
    issues = []
    if scheme in (Scheme.DIRECT, Scheme.CHAIN_OF_THOUGHT) and rec.recitations:
        issues.append(f"{prefix}: {scheme.value} paths must have empty recitations")
    if not rec.failed:
        # Local import: the extraction rule lives in prompting, which imports
        # this module.
        from .prompting import COT_ANSWER_ANCHOR, extract_answer

        if cot_anchor is None:
            cot_anchor = COT_ANSWER_ANCHOR
        rederived = extract_answer(rec.raw_answer_text, scheme, cot_anchor)
        if rederived != rec.extracted_answer:
            issues.append(
                f"{prefix}: extracted_answer {rec.extracted_answer!r} is not "
                f"re-derivable from raw_answer_text (rule gives {rederived!r})"
            )
    return issues


def _validate_run(rec: RunRecord, profile, cot_anchor: str | None) -> list[str]:
    issues = []
    if not rec.question_id:
        issues.append("question_id empty")
    if not rec.paths:
        issues.append("paths empty")
    if not rec.config_fingerprint:
        issues.append("config_fingerprint empty")
    if rec.wall_clock_ms < 0:
        issues.append("wall_clock_ms negative")
    for i, path in enumerate(rec.paths):
        issues.extend(_validate_path(path, rec.scheme, f"paths[{i}]", cot_anchor))
    votable = [p.extracted_answer for p in rec.paths if not p.failed]
    if votable:
        # Local import: evalkit builds on these types.
        from .evalkit import DEFAULT_PROFILE, plurality_vote

        winner, _ = plurality_vote(votable, DEFAULT_PROFILE if profile is None else profile)
        if winner != rec.voted_answer:
            issues.append(
                f"voted_answer {rec.voted_answer!r} does not match the "
                f"plurality vote over paths ({winner!r})"
            )
    return issues


def validate(record: Any, *, profile=None, cot_anchor: str | None = None) -> list[str]:
    """Return every invariant violation for a record; empty means valid.

    A RunRecord is re-voted under `profile` (the normalization profile its
    question's dataset was voted under) and its chain-of-thought answers are
    re-extracted after `cot_anchor` (the prompt set's anchor); None means
    evalkit's DEFAULT_PROFILE and prompting's COT_ANSWER_ANCHOR.

    Total: never raises on a structurally well-typed record.
    """
    if isinstance(record, QuestionRecord):
        return _validate_question(record)
    if isinstance(record, Exemplar):
        return _validate_exemplar(record)
    if isinstance(record, SamplingParams):
        return _validate_params(record)
    if isinstance(record, RunRecord):
        return _validate_run(record, profile, cot_anchor)
    return [f"unsupported record type {type(record).__name__}"]


# ---------------------------------------------------------------------------
# Serialization


class ParseError(ValueError):
    """Raised by deserialize on a malformed line; the message names the
    offending field or, for JSON-level errors, the character offset."""


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def stable_hash(obj: Any, length: int = 16) -> str:
    """Platform-stable content hash of a JSON-serializable object."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    return digest[:length]


# The default of a field that must be present; see check_fields.
REQUIRED = object()
_TYPE_NAMES = {
    str: "a string", int: "an integer", (int, float): "a number", bool: "true or false",
    list: "an array", dict: "an object",
}


def json_object(text: str, where: str, error: type[Exception], fields: dict | None = None) -> dict:
    """Parse outside input that must be one JSON object; anything else
    raises `error` with a message led by `where`. With a field map, returns
    check_fields' result for the keys the map names and ignores the rest."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON at offset {exc.pos}: {exc.msg}") from None
    if fields is None:
        if not isinstance(obj, dict):
            raise error(f"{where}: expected a JSON object")
        return obj
    return data_row(obj, fields, where, error)


def data_row(obj, fields: dict, where: str, error: type[Exception]) -> dict:
    """check_fields' result for the keys of a data row that the map names;
    the row's other keys are ignored. Anything but an object raises `error`
    with a message led by `where`."""
    if not isinstance(obj, dict):
        raise error(f"{where}: expected a JSON object")
    return check_fields({k: v for k, v in obj.items() if k in fields}, fields, where, error)


def check_fields(obj: dict, fields: dict, where: str, error: type[Exception]) -> dict:
    """Check a JSON object from outside against a field map and return each
    field's value, an absent one's default. The map gives each key `(type,
    default)` or `(type, default, choices)`. A type is a class, `(int,
    float)` for a number, `object` for any value, a nested field map checked
    the same way, or `[t]` for an array each of whose items is checked as
    type t, returned as a tuple; `true` and `false` fit only bool and
    object. REQUIRED marks a key that must be present. Null means absent
    where the default is None and is mistyped elsewhere. An unknown key or
    any other fault raises `error` with a message led by `where` and the
    field, or the array item such as `paths[3]`."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be an object, got {obj!r}")
    if not obj.keys() <= fields.keys():
        raise error(f"{where}: unknown keys: {', '.join(sorted(obj.keys() - fields.keys()))}")
    checked = {}
    for name, spec in fields.items():
        value = obj.get(name)
        if value is None:
            default = spec[1]
            if name not in obj or default is None:
                if default is REQUIRED:
                    raise error(f"{where}: missing required field {name!r}")
                checked[name] = default
                continue
        kind = spec[0]
        if isinstance(kind, (dict, list)):
            value = _checked(value, kind, where, name, error)
        elif not _fits(value, kind):
            raise error(f"{where}: {name} must be {_TYPE_NAMES[kind]}, got {value!r}")
        if len(spec) > 2 and value not in spec[2]:
            raise error(f"{where}: {name} must be one of {sorted(spec[2])}, got {value!r}")
        checked[name] = value
    return checked


def _fits(value, kind) -> bool:
    # JSON true/false parse as bool, which Python counts as an int.
    return isinstance(value, kind) and (not isinstance(value, bool) or kind in (bool, object))


def _checked(value, kind, where: str, name: str, error: type[Exception]):
    """A value checked as a field map or an array type; `name` locates it
    in errors. An array comes back as a tuple."""
    if isinstance(kind, dict):
        return check_fields(value, kind, f"{where}: {name}", error)
    if not isinstance(value, list):
        raise error(f"{where}: {name} must be an array, got {value!r}")
    item = kind[0]
    if isinstance(item, dict):
        flat = _flat_spec(item)
        rows = []
        for i, v in enumerate(value):
            row = None if flat is None else _flat_row(v, flat)
            if row is None:
                # check_fields walks an item the flat pass refuses, or any
                # item of a map the pass cannot take, under its own name.
                row = check_fields(v, item, f"{where}: {name}[{i}]", error)
            rows.append(row)
        return tuple(rows)
    for i, v in enumerate(value):
        if not _fits(v, item):
            raise error(f"{where}: {name}[{i}] must be {_TYPE_NAMES[item]}, got {v!r}")
    return tuple(value)


def _flat_spec(fields: dict) -> list | None:
    """`(name, class, item class or None)` per field when every field of
    the map is REQUIRED, has no choices, and has as its type a class other
    than object or an array of one, so that an item can be checked in one
    flat pass; else None."""
    spec = []
    for name, (kind, default, *choices) in fields.items():
        element = None
        if isinstance(kind, list):
            element, kind = kind[0], list
        kinds = [kind] if element is None else [kind, element]
        if default is not REQUIRED or choices or not all(
            isinstance(k, type) and k is not object for k in kinds
        ):
            return None
        spec.append((name, kind, element))
    return spec


def _flat_row(obj, spec: list) -> dict | None:
    """check_fields' result for an object with exactly the spec's keys, each
    value of exactly its JSON type; None for anything else, which may still
    pass check_fields."""
    if type(obj) is not dict or len(obj) != len(spec):
        return None
    row = {}
    for name, kind, element in spec:
        value = obj.get(name)
        if type(value) is not kind:
            return None
        if element is not None:
            for v in value:
                if type(v) is not element:
                    return None
            value = tuple(value)
        row[name] = value
    return row


def read_text(path: Path, error: type[Exception]) -> str:
    """The text of an outside input file; a file that is not UTF-8 raises
    `error` naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_lines(path: Path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """The numbered lines of an outside input file as it is read, without
    their "\\n"; a line that is not UTF-8 raises `error` naming the file and
    line. Lines end at "\\n" only, so U+2028 and its kin, which canonical
    JSON writes unescaped, stay inside their line."""
    with path.open("rb") as handle:
        for lineno, line in enumerate(handle, 1):
            try:
                text = line.removesuffix(b"\n").decode("utf-8")
            except UnicodeDecodeError as exc:
                where = f"{path}:{lineno}"
                raise error(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
            yield lineno, text


def params_to_dict(p: SamplingParams) -> dict:
    """The one JSON mapping of SamplingParams, shared by serialized records,
    config fingerprints, cache keys and run configs; params_from_dict is its
    inverse."""
    return {
        "strategy": p.strategy.value,
        "seed": p.seed,
        "max_tokens": p.max_tokens,
        "k": p.k,
        "temperature": p.temperature,
        "stop_sequences": list(p.stop_sequences),
    }


def _path_to_dict(p: RecitationPath) -> dict:
    return {
        "recitations": list(p.recitations),
        "raw_answer_text": p.raw_answer_text,
        "extracted_answer": p.extracted_answer,
        "backend_meta": dict(p.backend_meta),
    }


def _to_dict(record: Any) -> dict:
    if isinstance(record, QuestionRecord):
        return {
            "kind": "question",
            "id": record.id,
            "dataset": record.dataset.value,
            "question": record.question,
            "gold_answers": list(record.gold_answers),
            "gold_evidence": record.gold_evidence,
            "hop_count": record.hop_count,
        }
    if isinstance(record, Exemplar):
        return {
            "kind": "exemplar",
            "question": record.question,
            "recitations": list(record.recitations),
            "answer": record.answer,
            "rationale": record.rationale,
        }
    if isinstance(record, SamplingParams):
        return {"kind": "sampling_params", **params_to_dict(record)}
    if isinstance(record, RunRecord):
        return {
            "kind": "run",
            "question_id": record.question_id,
            "scheme": record.scheme.value,
            "paths": [_path_to_dict(p) for p in record.paths],
            "voted_answer": record.voted_answer,
            "config_fingerprint": record.config_fingerprint,
            "wall_clock_ms": record.wall_clock_ms,
        }
    raise TypeError(f"cannot serialize {type(record).__name__}")


def serialize(record: Any) -> str:
    """Serialize a record to one line of UTF-8 text, deterministically."""
    return canonical_json(_to_dict(record))


def _values(enum_cls) -> list[str]:
    return [member.value for member in enum_cls]


# The JSON formats of the records, as check_fields maps whose keys are the
# record classes' fields: one per path object and one per record kind.
PATH_FIELDS = {
    "recitations": ([str], REQUIRED),
    "raw_answer_text": (str, REQUIRED),
    "extracted_answer": (str, REQUIRED),
    "backend_meta": (dict, REQUIRED),
}
RECORD_FIELDS = {
    "question": {
        "id": (str, REQUIRED),
        "dataset": (str, REQUIRED, _values(Dataset)),
        "question": (str, REQUIRED),
        "gold_answers": ([str], REQUIRED),
        "gold_evidence": (str, None),
        "hop_count": (int, REQUIRED),
    },
    "exemplar": {
        "question": (str, REQUIRED),
        "recitations": ([str], REQUIRED),
        "answer": (str, REQUIRED),
        "rationale": (str, None),
    },
    "sampling_params": {
        "strategy": (str, REQUIRED, _values(Strategy)),
        "seed": (int, REQUIRED),
        "max_tokens": (int, REQUIRED),
        "k": (int, None),
        "temperature": ((int, float), None),
        "stop_sequences": ([str], REQUIRED),
    },
    "run": {
        "question_id": (str, REQUIRED),
        "scheme": (str, REQUIRED, _values(Scheme)),
        "paths": ([PATH_FIELDS], REQUIRED),
        "voted_answer": (str, REQUIRED),
        "config_fingerprint": (str, REQUIRED),
        "wall_clock_ms": (int, REQUIRED),
    },
}


def params_from_dict(fields: Mapping) -> SamplingParams:
    """The SamplingParams of params_to_dict's mapping, once checked against
    RECORD_FIELDS["sampling_params"]."""
    return SamplingParams(**{**fields, "strategy": Strategy(fields["strategy"])})


def _from_fields(kind: str, fields: dict) -> Any:
    """The record of a kind's checked fields."""
    if kind == "question":
        return QuestionRecord(**{**fields, "dataset": Dataset(fields["dataset"])})
    if kind == "exemplar":
        return Exemplar(**fields)
    if kind == "sampling_params":
        return params_from_dict(fields)
    paths = []
    for i, path in enumerate(fields["paths"]):
        # A field map cannot name backend_meta's keys, so its values are
        # checked here.
        for value in path["backend_meta"].values():
            if not isinstance(value, str):
                raise ParseError(f"run record: paths[{i}]: backend_meta values must be strings")
        paths.append(RecitationPath(**path))
    return RunRecord(**{**fields, "scheme": Scheme(fields["scheme"]), "paths": tuple(paths)})


def deserialize(line: str) -> Any:
    """Parse one serialized line back into its record; inverse of serialize.
    Top-level keys its kind's format does not name are ignored."""
    obj = json_object(line, "record", ParseError)
    kind = obj.get("kind")
    fields = RECORD_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ParseError(f"record: kind must be one of {sorted(RECORD_FIELDS)}, got {kind!r}")
    return _from_fields(kind, data_row(obj, fields, f"{kind} record", ParseError))


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write a whole UTF-8 file, given as one string or as pieces written
    as they come, through a temporary file in its directory and
    os.replace, so that a process killed mid-write leaves the old file or
    the new one, never a part. This is the package's one writer of whole
    files. On failure, also one raised while the pieces are made, the
    temporary file is removed."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Append-only logs: records.jsonl and the generation cache


def read_log(path: str | Path, parse: Callable[[str], Any]) -> Iterator[Any]:
    """parse's value for each line of an append-only log, as the file is
    read; a missing file has none. Lines end at "\\n" only, as in
    read_lines. Blank lines are skipped, and so, with a warning naming the
    file and line, is a line that is not UTF-8 or that parse refuses with
    ValueError, such as a torn last line."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                # UnicodeDecodeError is a ValueError.
                value = parse(line.removesuffix(b"\n").decode("utf-8"))
            except ValueError as exc:
                logger.warning("skipping unreadable line %s:%d: %s", path, lineno, exc)
                continue
            yield value


class AppendLog:
    """The writer of an append-only log. Construction cuts a torn last line,
    left by a crash mid-append, back to the last "\\n" with a warning, so
    the next append starts a fresh line; only the tail is read. Lines go
    out through one handle, opened on the first append and flushed, not
    fsynced, after each line: a line survives a killed process, not a power
    loss. close(), also run when the log is dropped, closes it, and a
    later append opens it again. Threads that share a log hold a lock."""

    def __init__(self, path: str | Path):
        self._handle = None
        self._path = Path(path)
        try:
            handle = open(self._path, "r+b")
        except FileNotFoundError:
            return
        with handle:
            size = end = handle.seek(0, os.SEEK_END)
            while end > 0:
                start = max(end - 4096, 0)
                handle.seek(start)
                newline = handle.read(end - start).rfind(b"\n")
                if newline != -1:
                    end = start + newline + 1
                    break
                end = start
            if end < size:
                handle.truncate(end)
                logger.warning("dropped a torn %d-byte tail from %s", size - end, self._path)

    def append(self, line: str) -> None:
        """Write one line, which holds no "\\n", and flush it."""
        if self._handle is None:
            self._handle = self._path.open("a", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    __del__ = close
