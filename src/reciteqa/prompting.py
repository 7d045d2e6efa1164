"""The prompt grammar: every prompt is rendered here, and every model
continuation the pipeline parses is read back here.

Every builder feeds its component lists to one renderer (frozen by the
golden files under tests/golden/):

* a prompt is one block per exemplar plus one target block, joined by the
  dialect's inter-separator (default "\\n\\n\\n"); a block's components are
  joined by the intra-separator (default "\\n\\n");
* the joined exemplar blocks are the prompt's prefix, rendered and checked
  once per builder, exemplar set and dialect (`_prefix`), so each prompt
  renders only its target block (`_render`); the answer prompts of one
  question share a PromptSpec, which keeps its prefix and target-question
  line (`PromptSpec._qa_head`), so each of its paths checks and renders
  only its own recitation lines;
* a component is a cue line "Cue: text" with the cue Question, Recitation
  (numbered "Recitation <i>" when a block holds several), Answer, Hint,
  Passage or Evidence; its text is rejected, not escaped, when it has
  surrounding whitespace or holds a separator, since escaping would change
  model-visible bytes;
* the target block ends with a bare cue ("Recitation:", "Answer:", ...) for
  the model to continue, and the dialect rewrite is applied last.

Reading inverts those cues: read_answer and extract_answer take the text
after the last "Answer:" cue (for chain-of-thought, after the last anchor
phrase, trailing period stripped) up to the first block separator;
split_numbered_recitations splits a continuation of "Recitation 1:" at its
numbered cues; first_line reads a sampled hint or a generated question.

A passage hint names a corpus paragraph: page title, section-title path and
"Paragraph #<i>", joined by " --- " (make_hint, parse_hint).
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

from .core import REQUIRED, Exemplar, Scheme, check_fields, json_object, read_text, validate

__all__ = [
    "DialectName",
    "PromptDialect",
    "DEFAULT_DIALECT",
    "UL2_DIALECT",
    "PromptSpec",
    "PromptError",
    "PromptSet",
    "HINT_DELIMITER",
    "HintError",
    "build_recitation_prompt",
    "build_qa_prompt",
    "build_multihop_prompt",
    "build_hint_prompts",
    "build_question_generation_prompt",
    "build_cot_prompt",
    "make_hint",
    "parse_hint",
    "read_answer",
    "extract_answer",
    "split_numbered_recitations",
    "first_line",
    "sample_exemplars",
    "load_prompt_set",
]

COT_ANSWER_ANCHOR = "So the answer is"
ANSWER_CUE = "Answer:"
_RECITATION_CUE_RE = re.compile(r"Recitation (\d+):")
HINT_DELIMITER = " --- "
_PARAGRAPH_PREFIX = "Paragraph #"


class PromptError(ValueError):
    pass


class HintError(ValueError):
    pass


class DialectName(Enum):
    DEFAULT = "default"
    UL2 = "ul2"


@dataclass(frozen=True)
class PromptDialect:
    """Separator conventions plus an optional whole-prompt rewrite for
    models whose vocabulary cannot represent newlines."""

    name: DialectName = DialectName.DEFAULT
    intra_separator: str = "\n\n"
    inter_separator: str = "\n\n\n"
    newline_replacement: str | None = None
    wrapper_prefix: str | None = None
    wrapper_suffix: str | None = None

    def apply(self, text: str) -> str:
        if self.newline_replacement is not None:
            text = text.replace("\n", self.newline_replacement)
        if self.wrapper_prefix:
            text = self.wrapper_prefix + text
        if self.wrapper_suffix:
            text = text + self.wrapper_suffix
        return text


DEFAULT_DIALECT = PromptDialect()
UL2_DIALECT = PromptDialect(
    name=DialectName.UL2,
    newline_replacement=" ; ",
    wrapper_prefix="[NLG]",
    wrapper_suffix="[extra_id_0]",
)


@dataclass(frozen=True)
class PromptSpec:
    """Everything a prompt builder needs: scheme, exemplars, the target
    question, and (for answer prompts) the recitations to condition on."""

    scheme: Scheme
    exemplars: tuple[Exemplar, ...]
    target_question: str
    target_recitations: tuple[str, ...] | None = None
    recitations_per_hop: int = 1
    dialect: PromptDialect = DEFAULT_DIALECT

    def __post_init__(self):
        object.__setattr__(self, "exemplars", tuple(self.exemplars))
        if self.target_recitations is not None:
            object.__setattr__(
                self, "target_recitations", tuple(self.target_recitations)
            )

    @functools.cached_property
    def _qa_head(self) -> tuple[str, str, str | None]:
        """What every answer prompt built from this spec shares, whatever
        its recitations: the exemplar prefix, the target-question line, and
        the PromptError message of that line or None. The message is raised
        by each prompt after its recitation lines are checked, as it would
        be were the line rendered there. Computed once per spec; an
        exemplar's PromptError is raised, not kept."""
        d = self.dialect
        prefix = _prefix(_qa_blocks, self.exemplars, self.scheme is Scheme.DIRECT, d)
        try:
            return prefix, _line("Question", self.target_question, d, "target question"), None
        except PromptError as exc:
            return prefix, "", str(exc)


# ---------------------------------------------------------------------------
# Rendering


def _check_component(text: str, dialect: PromptDialect, what: str) -> str:
    if text != text.strip():
        raise PromptError(f"{what} has leading or trailing whitespace: {text!r}")
    for sep, label in (
        (dialect.inter_separator, "inter"),
        (dialect.intra_separator, "intra"),
    ):
        if sep and sep in text:
            raise PromptError(f"{what} contains the {label}-separator {sep!r}")
    return text


def _line(cue: str, text: str, dialect: PromptDialect, what: str) -> str:
    """The component "<cue>: <text>", its text checked first."""
    return f"{cue}: {_check_component(text, dialect, what)}"


def _recitation_lines(
    recitations: Sequence[str], dialect: PromptDialect, what: str
) -> list[str]:
    # A single recitation keeps the bare cue; several get numbered cues.
    if len(recitations) == 1:
        return [_line("Recitation", recitations[0], dialect, what)]
    return [
        _line(f"Recitation {i}", r, dialect, f"{what}[{i - 1}]")
        for i, r in enumerate(recitations, 1)
    ]


@functools.lru_cache(maxsize=64)
def _prefix(blocks: Callable[..., list[list[str]]], *key) -> str:
    """The exemplar blocks `blocks(*key)` renders, joined as they open every
    prompt built from them. The key is the exemplar set with what else
    shapes its blocks, and the dialect last; each distinct key is rendered,
    and its exemplars checked, once. A PromptError is raised, not cached."""
    dialect = key[-1]
    return dialect.inter_separator.join(dialect.intra_separator.join(b) for b in blocks(*key))


def _render(prefix: str, target_block: Sequence[str], dialect: PromptDialect) -> str:
    """The one renderer: the exemplar prefix, the inter-separator and the
    target block's components, with the dialect rewrite applied to the
    whole text."""
    return dialect.apply(
        prefix + dialect.inter_separator + dialect.intra_separator.join(target_block)
    )


def _check_spec(spec: PromptSpec, kind: str, scheme: Scheme | None = None) -> None:
    if scheme is not None and spec.scheme is not scheme:
        raise PromptError(
            f"{kind} prompts require the {scheme.value} scheme, got {spec.scheme.value}"
        )
    if not spec.exemplars:
        raise PromptError(f"{kind} prompts require at least one exemplar")


def _recitation_blocks(exemplars: Sequence[Exemplar], d: PromptDialect) -> list[list[str]]:
    blocks = []
    for i, ex in enumerate(exemplars):
        if not ex.recitations:
            raise PromptError(f"exemplar {i} has no recitations")
        blocks.append([
            _line("Question", ex.question, d, f"exemplar {i} question"),
            *_recitation_lines(ex.recitations, d, f"exemplar {i} recitation"),
        ])
    return blocks


def build_recitation_prompt(spec: PromptSpec) -> str:
    """Question/Recitation exemplar blocks followed by the target question
    and a trailing "Recitation:" cue."""
    _check_spec(spec, "recitation", Scheme.RECITE_ANSWER)
    d = spec.dialect
    prefix = _prefix(_recitation_blocks, spec.exemplars, d)
    target = [_line("Question", spec.target_question, d, "target question"), "Recitation:"]
    return _render(prefix, target, d)


def _qa_blocks(
    exemplars: Sequence[Exemplar], direct: bool, d: PromptDialect
) -> list[list[str]]:
    blocks = []
    for i, ex in enumerate(exemplars):
        if direct and ex.recitations:
            raise PromptError(f"exemplar {i} has recitations under the direct scheme")
        blocks.append([
            *_recitation_lines(ex.recitations, d, f"exemplar {i} recitation"),
            _line("Question", ex.question, d, f"exemplar {i} question"),
            _line("Answer", ex.answer, d, f"exemplar {i} answer"),
        ])
    return blocks


def build_qa_prompt(
    spec: PromptSpec, target_recitations: Sequence[str] | None = None
) -> str:
    """Recitation(s)/Question/Answer exemplar blocks; the target block puts
    the target recitations before the target question and ends with the
    "Answer:" cue.

    With the direct scheme (no recitations anywhere) this degenerates to
    plain Question/Answer blocks. Given target_recitations, the prompt
    conditions on them in place of spec.target_recitations, so the paths of
    one question share one spec and its _qa_head.
    """
    _check_spec(spec, "answer")
    if target_recitations is None:
        target_recitations = spec.target_recitations
    direct = spec.scheme is Scheme.DIRECT
    if not direct and not target_recitations:
        raise PromptError("answer prompts require target recitations")
    if direct and target_recitations:
        raise PromptError("direct prompts must not carry target recitations")
    prefix, question, question_error = spec._qa_head
    lines = _recitation_lines(target_recitations or (), spec.dialect, "target recitation")
    if question_error is not None:
        raise PromptError(question_error)
    return _render(prefix, [*lines, question, ANSWER_CUE], spec.dialect)


def _multihop_blocks(
    exemplars: Sequence[Exemplar], recitations_per_hop: int, d: PromptDialect
) -> list[list[str]]:
    blocks = []
    for i, ex in enumerate(exemplars):
        if len(ex.recitations) != recitations_per_hop:
            raise PromptError(
                f"exemplar {i} has {len(ex.recitations)} recitations, "
                f"expected {recitations_per_hop}"
            )
        # At least two recitations, so every cue is numbered.
        blocks.append([
            _line("Question", ex.question, d, f"exemplar {i} question"),
            *_recitation_lines(ex.recitations, d, f"exemplar {i} recitation"),
        ])
    return blocks


def build_multihop_prompt(spec: PromptSpec) -> str:
    """Numbered-recitation exemplar blocks; the target block ends at
    "Recitation 1:" so the model decodes all recitations in one pass."""
    _check_spec(spec, "multihop", Scheme.MULTI_HOP_RECITE)
    if spec.recitations_per_hop < 2:
        raise PromptError(
            f"multihop prompts require recitations_per_hop >= 2, got {spec.recitations_per_hop}"
        )
    d = spec.dialect
    prefix = _prefix(_multihop_blocks, spec.exemplars, spec.recitations_per_hop, d)
    target = [_line("Question", spec.target_question, d, "target question"), "Recitation 1:"]
    return _render(prefix, target, d)


def _hint_blocks(exemplars: tuple[tuple[str, str, str], ...], d: PromptDialect) -> list[list[str]]:
    # Checks every part of each triple, so the passage blocks built after
    # these cannot fail first.
    blocks = []
    for i, (question, hint, passage) in enumerate(exemplars):
        try:
            parse_hint(hint)
        except HintError as exc:
            raise PromptError(f"exemplar {i} hint is not canonical: {exc}") from None
        blocks.append([
            _line("Question", question, d, f"exemplar {i} question"),
            _line("Hint", hint, d, f"exemplar {i} hint"),
        ])
        _check_component(passage, d, f"exemplar {i} passage")
    return blocks


def _passage_blocks(
    exemplars: tuple[tuple[str, str, str], ...], d: PromptDialect
) -> list[list[str]]:
    return [
        [_line("Hint", hint, d, f"exemplar {i} hint"),
         _line("Passage", passage, d, f"exemplar {i} passage")]
        for i, (_, hint, passage) in enumerate(exemplars)
    ]


def build_hint_prompts(
    question: str,
    exemplars: Sequence[tuple[str, str, str]],
    dialect: PromptDialect = DEFAULT_DIALECT,
) -> tuple[str, Callable[[str], str]]:
    """Build the hint-elicitation prompt for a question plus a template that
    expands a hint into its passage.

    Exemplars are (question, hint, passage) triples; their hints must parse
    under the canonical hint grammar.
    """
    if not exemplars:
        raise PromptError("hint prompts require at least one exemplar")
    exemplars = tuple(tuple(e) for e in exemplars)
    hint_prefix = _prefix(_hint_blocks, exemplars, dialect)
    passage_prefix = _prefix(_passage_blocks, exemplars, dialect)
    target = [_line("Question", question, dialect, "target question"), "Hint:"]
    hint_prompt = _render(hint_prefix, target, dialect)

    def passage_prompt_template(hint: str) -> str:
        target = [_line("Hint", hint, dialect, "target hint"), "Passage:"]
        return _render(passage_prefix, target, dialect)

    return hint_prompt, passage_prompt_template


def _evidence_blocks(exemplars: tuple[tuple[str, str], ...], d: PromptDialect) -> list[list[str]]:
    return [
        [_line("Evidence", evidence, d, f"exemplar {i} evidence"),
         _line("Question", question, d, f"exemplar {i} question")]
        for i, (evidence, question) in enumerate(exemplars)
    ]


def build_question_generation_prompt(
    passage: str,
    exemplars: Sequence[tuple[str, str]],
    dialect: PromptDialect = DEFAULT_DIALECT,
) -> str:
    """Evidence/Question exemplar blocks followed by the target passage and
    a bare "Question:" cue; used to synthesize questions for passages."""
    if not passage:
        raise PromptError("question generation requires a nonempty passage")
    if not exemplars:
        raise PromptError("question generation requires at least one exemplar")
    prefix = _prefix(_evidence_blocks, tuple(tuple(e) for e in exemplars), dialect)
    target = [_line("Evidence", passage, dialect, "target passage"), "Question:"]
    return _render(prefix, target, dialect)


def _cot_blocks(
    exemplars: Sequence[Exemplar], anchor: str, d: PromptDialect
) -> list[list[str]]:
    blocks = []
    for i, ex in enumerate(exemplars):
        if ex.rationale is None:
            raise PromptError(f"exemplar {i} has no rationale")
        q = _line("Question", ex.question, d, f"exemplar {i} question")
        rationale = _check_component(ex.rationale, d, f"exemplar {i} rationale")
        answer = _check_component(ex.answer, d, f"exemplar {i} answer")
        blocks.append([q, f"{ANSWER_CUE} {rationale} {anchor} {answer}."])
    return blocks


def build_cot_prompt(spec: PromptSpec, anchor: str = COT_ANSWER_ANCHOR) -> str:
    """Question/Answer blocks where each exemplar answer is its rationale
    followed by "<anchor> <answer>."."""
    _check_spec(spec, "chain-of-thought", Scheme.CHAIN_OF_THOUGHT)
    d = spec.dialect
    prefix = _prefix(_cot_blocks, spec.exemplars, anchor, d)
    target = [_line("Question", spec.target_question, d, "target question"), ANSWER_CUE]
    return _render(prefix, target, d)


# ---------------------------------------------------------------------------
# Hint grammar


def make_hint(page_title: str, section_path: Sequence[str], para_index: int) -> str:
    """Join title, section path, and "Paragraph #<index>" with the canonical
    delimiter; components containing the delimiter are rejected."""
    if not page_title:
        raise HintError("page title must be nonempty")
    if para_index < 1:
        raise HintError(f"paragraph index must be >= 1, got {para_index}")
    components = [page_title, *section_path]
    for component in components:
        if not component:
            raise HintError("hint components must be nonempty")
        if HINT_DELIMITER in component:
            raise HintError(
                f"hint component contains the delimiter {HINT_DELIMITER!r}: {component!r}"
            )
    components.append(f"{_PARAGRAPH_PREFIX}{para_index}")
    return HINT_DELIMITER.join(components)


def parse_hint(hint: str) -> tuple[str, tuple[str, ...], int]:
    """Inverse of make_hint; raises HintError naming the offending position
    on grammar violations."""
    components = hint.split(HINT_DELIMITER)
    if len(components) < 2:
        raise HintError(
            f"hint must have at least a title and a paragraph component "
            f"(position 0): {hint!r}"
        )
    offset = 0
    for component in components[:-1]:
        if not component or component != component.strip():
            raise HintError(f"malformed hint component at position {offset}: {component!r}")
        offset += len(component) + len(HINT_DELIMITER)
    tail = components[-1]
    if not tail.startswith(_PARAGRAPH_PREFIX):
        raise HintError(
            f"hint must end with {_PARAGRAPH_PREFIX!r}<index> (position {offset}): {tail!r}"
        )
    digits = tail[len(_PARAGRAPH_PREFIX):]
    if not digits.isdigit() or int(digits) < 1:
        raise HintError(
            f"paragraph index must be a positive integer "
            f"(position {offset + len(_PARAGRAPH_PREFIX)}): {digits!r}"
        )
    return components[0], tuple(components[1:-1]), int(digits)


# ---------------------------------------------------------------------------
# Reading continuations


def _extract(raw: str, scheme: Scheme, cot_anchor: str) -> str | None:
    cot = scheme is Scheme.CHAIN_OF_THOUGHT
    cue = cot_anchor if cot else ANSWER_CUE
    idx = raw.rfind(cue)
    if idx == -1:
        return None
    tail = raw[idx + len(cue):].split("\n\n")[0].strip()
    return tail[:-1].strip() if cot and tail.endswith(".") else tail


def extract_answer(
    raw: str, scheme: Scheme, cot_anchor: str = COT_ANSWER_ANCHOR
) -> str:
    """Pull the answer out of raw answer-stage text.

    Chain-of-thought: text after the last anchor phrase, trailing period
    stripped. All other schemes: text after the final "Answer:" cue, cut at
    the first block separator. Missing cue yields an empty answer (the
    pipeline flags it as extraction_failed in the path's backend_meta).
    """
    return _extract(raw, scheme, cot_anchor) or ""


def read_answer(
    completion: str, scheme: Scheme, cot_anchor: str = COT_ANSWER_ANCHOR
) -> tuple[str, str, bool]:
    """Read a continuation of the "Answer:" cue: its transcript (the cue
    line plus the completion), the answer extract_answer takes from it, and
    whether the cue or anchor it needs was missing."""
    raw = ANSWER_CUE + completion
    answer = _extract(raw, scheme, cot_anchor)
    return raw, answer or "", answer is None


def split_numbered_recitations(completion: str, expected: int) -> tuple[str, ...] | None:
    """Split a one-pass continuation of "Recitation 1:" into its numbered
    segments; None when the cue structure is missing or out of order.
    Content after any cue beyond the expected count is dropped."""
    text = "Recitation 1:" + completion
    matches = list(_RECITATION_CUE_RE.finditer(text))
    segments: list[str] = []
    for position, match in enumerate(matches):
        number = int(match.group(1))
        if len(segments) == expected:
            break
        if number != len(segments) + 1:
            return None
        end = matches[position + 1].start() if position + 1 < len(matches) else len(text)
        segments.append(text[match.end():end].strip())
    if len(segments) != expected:
        return None
    return tuple(segments)


def first_line(completion: str) -> str:
    """The first line of a completion, stripped: how a sampled hint or a
    generated question is read."""
    return completion.split("\n")[0].strip()


def sample_exemplars(pool: Sequence[Exemplar], n: int, seed: int) -> list[Exemplar]:
    """Uniform sample of n exemplars without replacement, uniformly
    shuffled; deterministic for a given seed."""
    if n < 1:
        raise PromptError(f"sample size must be >= 1, got {n}")
    if n > len(pool):
        raise PromptError(f"pool of {len(pool)} exemplars cannot supply {n}")
    rng = random.Random(seed)
    picked = rng.sample(list(pool), n)
    rng.shuffle(picked)
    return picked


# ---------------------------------------------------------------------------
# Prompt-set loading


@dataclass(frozen=True)
class PromptSet:
    """Exemplar pools loaded from a prompt-set directory."""

    exemplars: tuple[Exemplar, ...] = ()
    hint_exemplars: tuple[tuple[str, str, str], ...] = ()
    question_gen: tuple[tuple[str, str], ...] = ()
    cot_anchor: str = COT_ANSWER_ANCHOR


def _resolve_text(value, directory: Path, what: str) -> str:
    """Manifest values are inline strings or {"file": <relative path>}."""
    if isinstance(value, str):
        return value
    if isinstance(value, dict) and isinstance(value.get("file"), str):
        target = directory / value["file"]
        if not target.is_file():
            raise PromptError(f"{what}: referenced file {target} does not exist")
        return read_text(target, PromptError).strip()
    raise PromptError(f"{what}: expected a string or a file reference, got {value!r}")


# A manifest text is an inline string or {"file": <relative path>}; see
# _resolve_text.
_TEXT = (object, REQUIRED)
_EXEMPLAR_FIELDS = {
    "question": _TEXT, "answer": _TEXT, "recitations": ([object], ()), "rationale": (object, None),
}
_MANIFEST_FIELDS = {
    "exemplars": ([_EXEMPLAR_FIELDS], ()),
    "hint_exemplars": ([{"question": _TEXT, "hint": _TEXT, "passage": _TEXT}], ()),
    "question_gen": ([{"evidence": _TEXT, "question": _TEXT}], ()),
    "cot_anchor": (str, COT_ANSWER_ANCHOR),
}


def load_prompt_set(directory: str | Path) -> PromptSet:
    """Read a prompt set's manifest.json, checked against _MANIFEST_FIELDS.
    Every exemplar must also be valid under core.validate and cot_anchor a
    non-empty string; a manifest that breaks this raises PromptError naming
    manifest.json and the entry."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise PromptError(f"prompt set {directory} has no manifest.json")
    where = str(manifest_path)
    raw = json_object(read_text(manifest_path, PromptError), where, PromptError)
    manifest = check_fields(raw, _MANIFEST_FIELDS, where, PromptError)

    def entries(key: str) -> tuple[tuple[str, ...], ...]:
        """A pool's entries, each its texts in the order its map names them."""
        return tuple(
            tuple(_resolve_text(text, directory, f"{where}: {key}[{i}]") for text in entry.values())
            for i, entry in enumerate(manifest[key])
        )

    exemplars = []
    for i, entry in enumerate(manifest["exemplars"]):
        what = f"{where}: exemplars[{i}]"
        rationale = entry["rationale"]
        exemplar = Exemplar(
            question=_resolve_text(entry["question"], directory, what),
            answer=_resolve_text(entry["answer"], directory, what),
            recitations=tuple(_resolve_text(r, directory, what) for r in entry["recitations"]),
            rationale=None if rationale is None else _resolve_text(rationale, directory, what),
        )
        issues = validate(exemplar)
        if issues:
            raise PromptError(f"{what}: {'; '.join(issues)}")
        exemplars.append(exemplar)
    if not manifest["cot_anchor"]:
        raise PromptError(f"{where}: cot_anchor must be a non-empty string, got ''")
    return PromptSet(
        exemplars=tuple(exemplars),
        hint_exemplars=entries("hint_exemplars"),
        question_gen=entries("question_gen"),
        cot_anchor=manifest["cot_anchor"],
    )
