"""Passage-hint corpus construction and synthetic question generation.

Every corpus paragraph is stored under its canonical hint, which names the
page title, the section-title path, and the 1-based in-section paragraph
number in the grammar of prompting.make_hint, e.g.

    Child support --- Compliance and enforcement issues --- Enforcement --- Paragraph #2

Corpora ingest a pre-flattened structured dump (one JSON record per line:
page / section / text), with an adapter for plain-text dumps that mark
headings with ``= Title =`` / ``== Section ==`` lines. Paragraph text is
whitespace-normalized, so passages never contain prompt separators.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .backend import Backend, BackendError, GenerationRequest
from .core import REQUIRED, canonical_json, derived_params, json_object, read_lines, write_atomic
from .pipeline import default_recitation_params
from .prompting import (
    DEFAULT_DIALECT, HintError, PromptDialect, build_question_generation_prompt, first_line,
    make_hint,
)

__all__ = [
    "HintedPassage",
    "SyntheticTriple",
    "Document",
    "Corpus",
    "build_corpus",
    "read_dump",
    "read_heading_dump",
    "generate_synthetic_triples",
    "export_triples",
]

class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class HintedPassage:
    """A corpus paragraph with its canonical hint."""

    page_title: str
    section_path: tuple[str, ...]
    para_index: int
    text: str
    hint: str

    def __post_init__(self):
        object.__setattr__(self, "section_path", tuple(self.section_path))


@dataclass(frozen=True)
class SyntheticTriple:
    """A generated question paired with the hint and passage it came from."""

    question: str
    hint: str
    passage: str


@dataclass(frozen=True)
class Document:
    """One structured page: title plus ordered (section path, paragraph)
    pairs; lead paragraphs carry an empty section path."""

    title: str
    items: tuple[tuple[tuple[str, ...], str], ...]


class Corpus:
    """Immutable sequence of hinted passages with unique, well-formed hints,
    and seeded uniform sampling."""

    def __init__(self, passages: Sequence[HintedPassage]):
        """A passage whose hint is not make_hint's for its components, or
        repeats an earlier one, raises HintError or CorpusError whose
        `position` is that passage's index."""
        self._passages = tuple(passages)
        hints: set[str] = set()
        for position, passage in enumerate(self._passages):
            try:
                expected = make_hint(
                    passage.page_title, passage.section_path, passage.para_index
                )
                if passage.hint != expected:
                    raise CorpusError(
                        f"passage hint {passage.hint!r} does not match its components "
                        f"(expected {expected!r})"
                    )
                if passage.hint in hints:
                    raise CorpusError(f"duplicate passage hint: {passage.hint!r}")
            except (CorpusError, HintError) as exc:
                exc.position = position
                raise
            hints.add(passage.hint)

    def __len__(self) -> int:
        return len(self._passages)

    def __iter__(self) -> Iterator[HintedPassage]:
        return iter(self._passages)

    def __getitem__(self, index: int) -> HintedPassage:
        return self._passages[index]

    def sample(self, n: int, seed: int) -> list[HintedPassage]:
        """Uniform sample without replacement; deterministic per seed."""
        if n > len(self._passages):
            raise CorpusError(f"cannot sample {n} of {len(self._passages)} passages")
        return random.Random(seed).sample(list(self._passages), n)

    # -- persistence --------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Replace passages.jsonl whole, one passage row per line."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_atomic(
            directory / "passages.jsonl", (_passage_to_line(p) + "\n" for p in self._passages)
        )

    @classmethod
    def load(cls, directory: str | Path) -> "Corpus":
        """Read passages.jsonl; an error in a row names its line."""
        path = Path(directory) / "passages.jsonl"
        if not path.is_file():
            raise CorpusError(f"{path} does not exist")
        passages = []
        linenos = []
        for lineno, line in read_lines(path, CorpusError):
            if not line.strip():
                continue
            try:
                passages.append(_passage_from_line(line))
            except CorpusError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
            linenos.append(lineno)
        try:
            return cls(passages)
        except (CorpusError, HintError) as exc:
            raise CorpusError(f"{path}:{linenos[exc.position]}: {exc}") from None


def _passage_to_line(passage: HintedPassage) -> str:
    return canonical_json({"kind": "passage", **asdict(passage)})


_PASSAGE_FIELDS = {
    "page_title": (str, REQUIRED), "section_path": ([str], REQUIRED), "para_index": (int, REQUIRED),
    "text": (str, REQUIRED), "hint": (str, REQUIRED),
}


def _passage_from_line(line: str) -> HintedPassage:
    return HintedPassage(**json_object(line, "passage row", CorpusError, _PASSAGE_FIELDS))


def _normalize_paragraph(text: str) -> str:
    return " ".join(text.split())


def build_corpus(docs: Iterable[Document]) -> Corpus:
    """One HintedPassage per paragraph; in-section paragraph numbers start
    at 1 and duplicate (title, path, index) triples are a hard error."""
    passages = []
    for doc in docs:
        counters: dict[tuple[str, ...], int] = {}
        for section_path, text in doc.items:
            normalized = _normalize_paragraph(text)
            if not normalized:
                continue
            path = tuple(section_path)
            counters[path] = counters.get(path, 0) + 1
            index = counters[path]
            passages.append(
                HintedPassage(
                    page_title=doc.title,
                    section_path=path,
                    para_index=index,
                    text=normalized,
                    hint=make_hint(doc.title, path, index),
                )
            )
    return Corpus(passages)


def _check_titles(titles: Sequence, wheres: Sequence[str]) -> None:
    """Raise CorpusError led by the file and line in `wheres` of the first
    page or section title that cannot be a hint component. The dump readers
    call it for each paragraph, where a hint is formed, so a title with no
    paragraph under it forms no hint and is not checked."""
    for n, where in enumerate(wheres, 1):
        if not isinstance(titles[n - 1], str):
            raise CorpusError(f"{where}: titles must be strings: {titles[n - 1]!r}")
        try:
            make_hint(titles[0], titles[1:n], 1)
        except HintError as exc:
            raise CorpusError(f"{where}: {exc}") from None


def read_dump(path: str | Path) -> Iterator[Document]:
    """Native dump format: one JSON record per line, {"page": title} starts
    a page, {"section": [titles...]} switches the section path, and
    {"text": paragraph} appends a paragraph (split on blank lines)."""
    path = Path(path)
    title: str | None = None
    section: tuple[str, ...] = ()
    items: list[tuple[tuple[str, ...], str]] = []
    wheres: list[str] = []  # the line of the title and of each section
    for lineno, line in read_lines(path, CorpusError):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        record = json_object(line, where, CorpusError)
        if "page" in record:
            if title is not None:
                yield Document(title=title, items=tuple(items))
            title = record["page"]
            section = ()
            items = []
            wheres = [where]
        elif "section" in record:
            if title is None:
                raise CorpusError(f"{where}: section record before any page")
            if not isinstance(record["section"], list):
                raise CorpusError(f"{where}: 'section' must be a list of titles")
            section = tuple(record["section"])
            wheres = [wheres[0]] + [where] * len(section)
        elif "text" in record:
            if title is None:
                raise CorpusError(f"{where}: text record before any page")
            if not isinstance(record["text"], str):
                raise CorpusError(f"{where}: 'text' must be a string")
            for block in record["text"].split("\n\n"):
                if block.strip():
                    _check_titles((title, *section), wheres)
                    items.append((section, block))
        else:
            raise CorpusError(f"{where}: record needs one of page/section/text")
    if title is not None:
        yield Document(title=title, items=tuple(items))


def _heading_level(line: str) -> tuple[int, str] | None:
    stripped = line.strip()
    if len(stripped) < 3 or not stripped.startswith("=") or not stripped.endswith("="):
        return None
    level = 0
    while level < len(stripped) and stripped[level] == "=":
        level += 1
    if not stripped.endswith("=" * level):
        return None
    inner = stripped[level:-level].strip()
    if not inner:
        return None
    return level, inner


def read_heading_dump(path: str | Path) -> Iterator[Document]:
    """Adapter for plain-text dumps: ``= Title =`` starts a page,
    ``== Section ==`` / ``=== Subsection ===`` set the section path, and
    blank-line-separated blocks are paragraphs."""
    path = Path(path)
    title: str | None = None
    section: list[str] = []
    items: list[tuple[tuple[str, ...], str]] = []
    paragraph: list[str] = []
    wheres: list[str] = []  # the line of the title and of each section

    def flush_paragraph():
        if paragraph:
            _check_titles((title, *section), wheres)
            items.append((tuple(section), " ".join(paragraph)))
            paragraph.clear()

    for lineno, line in read_lines(path, CorpusError):
        heading = _heading_level(line)
        if heading is not None:
            flush_paragraph()
            level, text = heading
            where = f"{path}:{lineno}"
            if level == 1:
                if title is not None:
                    yield Document(title=title, items=tuple(items))
                title = text
                section = []
                items = []
                wheres = [where]
            else:
                if title is None:
                    raise CorpusError(f"{where}: section heading before any page")
                depth = level - 2
                section = section[:depth] + [text]
                wheres = wheres[: len(section)] + [where]
            continue
        if not line.strip():
            flush_paragraph()
            continue
        if title is None:
            raise CorpusError(f"{path}:{lineno}: text before any page heading")
        paragraph.append(line.strip())
    flush_paragraph()
    if title is not None:
        yield Document(title=title, items=tuple(items))


# ---------------------------------------------------------------------------
# Synthetic question generation

SYNTHETIC_EXEMPLAR_COUNT = 5


def generate_synthetic_triples(
    corpus: Corpus,
    n: int,
    exemplars: Sequence[tuple[str, str]],
    backend: Backend,
    seed: int,
    max_in_flight: int = 4,
    dialect: PromptDialect = DEFAULT_DIALECT,
) -> tuple[list[SyntheticTriple], int]:
    """Sample n passages, generate one question per passage from a prompt
    in `dialect`, and pair each question with the passage's hint and text.

    Returns (triples, dropped) where dropped counts passages whose
    generation failed or came back empty. Requires exactly 5 evidence ->
    question exemplar pairs.
    """
    if len(exemplars) != SYNTHETIC_EXEMPLAR_COUNT:
        raise CorpusError(
            f"synthetic generation requires exactly {SYNTHETIC_EXEMPLAR_COUNT} "
            f"exemplar pairs, got {len(exemplars)}"
        )
    picked = corpus.sample(n, seed)
    params = default_recitation_params(seed, max_tokens=64, stop_sequences=("\n\n",))
    requests_list = [
        GenerationRequest(
            prompt=build_question_generation_prompt(passage.text, exemplars, dialect),
            params=derived_params(params, i),
            n_samples=1,
        )
        for i, passage in enumerate(picked)
    ]
    # The calling thread is the batch's first lane; the pool holds the others.
    with ThreadPoolExecutor(max_workers=max(max_in_flight - 1, 1)) as executor:
        results = backend.generate_batch(requests_list, max_in_flight, executor=executor)
    triples: list[SyntheticTriple] = []
    dropped = 0
    for passage, result in zip(picked, results):
        if isinstance(result, BackendError):
            dropped += 1
            continue
        question = first_line(result.texts[0])
        if not question:
            dropped += 1
            continue
        triples.append(
            SyntheticTriple(question=question, hint=passage.hint, passage=passage.text)
        )
    return triples, dropped


def export_triples(triples: Iterable[SyntheticTriple], path: str | Path) -> int:
    """Replace the file at path whole with one triple row per line, for
    use outside this package; returns the number of triples."""
    triples = tuple(triples)
    write_atomic(
        Path(path), (canonical_json({"kind": "triple", **asdict(t)}) + "\n" for t in triples)
    )
    return len(triples)
