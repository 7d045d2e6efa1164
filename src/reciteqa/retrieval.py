"""Okapi BM25 over a passage corpus, used as the retrieval-context baseline.

idf uses the ln(1 + (N - df + 0.5) / (df + 0.5)) form, which keeps every
score nonnegative. Query terms are scored as a multiset: a duplicated query
term contributes once per occurrence.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .core import REQUIRED, data_row, json_object, read_lines, write_atomic

__all__ = [
    "Bm25Params",
    "K1_MAX",
    "Bm25Index",
    "RetrievalError",
    "tokenize",
    "build_index",
    "score",
    "top_k",
    "save_index",
    "load_index",
]

# Alphanumeric runs (unicode-aware, underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

INDEX_FORMAT = "bm25-index"
INDEX_VERSION = 1


class RetrievalError(ValueError):
    """Index construction or lookup error."""


# The largest k1 accepted; BM25's usual range is 0.5 to 2.
K1_MAX = 1000.0


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        # Else a term weight's denominator can reach 0, or it and the
        # numerator overflow to inf, or a NaN makes every score NaN.
        if not (0 <= self.k1 <= K1_MAX and 0 <= self.b <= 1):
            raise RetrievalError(f"need k1 in [0, {K1_MAX:g}] and b in [0, 1], got {self}")


@dataclass(frozen=True)
class Bm25Index:
    doc_count: int
    avg_doc_len: float
    postings: dict[str, tuple[tuple[str, int], ...]]
    doc_lengths: dict[str, int]
    params: Bm25Params = field(default_factory=Bm25Params)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; no stemming, no
    stopword removal."""
    return _TOKEN_RE.findall(text.lower())


def build_index(
    passages: list[tuple[str, str]], params: Bm25Params = Bm25Params()
) -> Bm25Index:
    doc_lengths: dict[str, int] = {}
    postings: dict[str, list[tuple[str, int]]] = {}
    for doc_id, text in passages:
        if doc_id in doc_lengths:
            raise RetrievalError(f"duplicate doc id {doc_id!r}")
        tokens = tokenize(text)
        doc_lengths[doc_id] = len(tokens)
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).append((doc_id, tf))
    doc_count = len(doc_lengths)
    avg_doc_len = sum(doc_lengths.values()) / doc_count if doc_count else 0.0
    # Canonical posting order makes the index independent of insertion order.
    frozen = {
        term: tuple(sorted(entries)) for term, entries in sorted(postings.items())
    }
    return Bm25Index(
        doc_count=doc_count,
        avg_doc_len=avg_doc_len,
        postings=frozen,
        doc_lengths=doc_lengths,
        params=params,
    )


def _idf(index: Bm25Index, df: int) -> float:
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


def _weight(index: Bm25Index, idf: float, tf: int, doc_len: int) -> float:
    """One term's BM25 contribution to one document's score."""
    k1, b = index.params.k1, index.params.b
    return idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * doc_len / index.avg_doc_len))


def _scores(index: Bm25Index, query: str) -> dict[str, float]:
    """The BM25 score of each document in which a query term occurs, its
    term weights added in query order."""
    scores: dict[str, float] = {}
    for term in tokenize(query):
        entries = index.postings.get(term)
        if not entries:
            continue
        idf = _idf(index, len(entries))
        for doc_id, tf in entries:
            weight = _weight(index, idf, tf, index.doc_lengths[doc_id])
            scores[doc_id] = scores.get(doc_id, 0.0) + weight
    return scores


def score(index: Bm25Index, query: str, doc_id: str) -> float:
    """BM25 score of one document for a query; 0 when no query term occurs
    in the document."""
    if doc_id not in index.doc_lengths:
        raise RetrievalError(f"unknown doc id {doc_id!r}")
    return _scores(index, query).get(doc_id, 0.0)


def top_k(index: Bm25Index, query: str, k: int) -> list[tuple[str, float]]:
    """Best k documents by descending score, ties by ascending doc id;
    documents scoring 0 are never returned."""
    if k < 1:
        raise RetrievalError(f"k must be >= 1, got {k}")
    ranked = [(doc_id, s) for doc_id, s in _scores(index, query).items() if s > 0.0]
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


def save_index(index: Bm25Index, path: str | Path) -> None:
    """Replace the file at path whole with line-delimited JSON: a version
    header, then doc rows and term rows."""
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_count": index.doc_count,
        "avg_doc_len": index.avg_doc_len,
        "k1": index.params.k1,
        "b": index.params.b,
    }
    docs = ({"doc": d, "len": index.doc_lengths[d]} for d in sorted(index.doc_lengths))
    terms = ({"term": t, "postings": [list(e) for e in p]} for t, p in sorted(index.postings.items()))
    rows = chain([header], docs, terms)
    lines = (json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)
    write_atomic(Path(path), lines)


# The lines of an index file: a header as save_index writes it, then doc
# rows and term rows.
_HEADER_FIELDS = {
    "format": (str, REQUIRED, [INDEX_FORMAT]),
    "version": (int, REQUIRED, [INDEX_VERSION]),
    "doc_count": (int, REQUIRED),
    "avg_doc_len": ((int, float), REQUIRED),
    "k1": ((int, float), REQUIRED),
    "b": ((int, float), REQUIRED),
}
_DOC_FIELDS = {"doc": (str, REQUIRED), "len": (int, REQUIRED)}
_TERM_FIELDS = {"term": (str, REQUIRED), "postings": ([list], REQUIRED)}


def load_index(path: str | Path) -> Bm25Index:
    path = Path(path)
    lines = read_lines(path, RetrievalError)
    first = next(lines, None)
    if first is None:
        raise RetrievalError(f"{path} is empty")
    header = json_object(first[1], f"{path}: header", RetrievalError, _HEADER_FIELDS)
    try:
        params = Bm25Params(k1=header["k1"], b=header["b"])
    except RetrievalError as exc:
        raise RetrievalError(f"{path}: header: {exc}") from None
    doc_lengths: dict[str, int] = {}
    postings: dict[str, tuple[tuple[str, int], ...]] = {}
    for lineno, line in lines:
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        row = json_object(line, where, RetrievalError)
        row = data_row(row, _DOC_FIELDS if "doc" in row else _TERM_FIELDS, where, RetrievalError)
        if "doc" in row:
            if row["len"] < 0:
                raise RetrievalError(f"{where}: doc {row['doc']!r} has a negative len")
            doc_lengths[row["doc"]] = row["len"]
        elif all([type(x) for x in e] == [str, int] for e in row["postings"]):
            postings[row["term"]] = tuple((d, tf) for d, tf in row["postings"])
        else:
            raise RetrievalError(f"{where}: postings must be [doc, tf] pairs: {line[:80]}")
    # The header must agree with the doc rows, its average computed as
    # build_index computes it; scoring divides by that average.
    doc_count = len(doc_lengths)
    avg_doc_len = sum(doc_lengths.values()) / doc_count if doc_count else 0.0
    if header["doc_count"] != doc_count:
        raise RetrievalError(
            f"{path}: header doc_count {header['doc_count']} != {doc_count} doc rows"
        )
    if header["avg_doc_len"] != avg_doc_len:
        raise RetrievalError(
            f"{path}: header avg_doc_len {header['avg_doc_len']!r} != {avg_doc_len!r}, "
            "the mean of the doc rows' len"
        )
    index = Bm25Index(
        doc_count=doc_count,
        avg_doc_len=avg_doc_len,
        postings=postings,
        doc_lengths=doc_lengths,
        params=params,
    )
    # Scoring looks up the length of every document a posting names.
    for term, entries in postings.items():
        for doc_id, _ in entries:
            if doc_id not in doc_lengths:
                raise RetrievalError(f"{path}: term {term!r} posts unknown doc {doc_id!r}")
    return index
