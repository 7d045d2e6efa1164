"""Reference answer normalization: the per-character punctuation filter
that `evalkit.normalize` used before it switched to a `str.translate`
table. Kept as an oracle for the equivalence property test."""

from __future__ import annotations

import re
import string

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b", re.IGNORECASE)
_PUNCT = set(string.punctuation)


def oracle_normalize(
    text: str,
    lowercase: bool = True,
    strip_articles: bool = True,
    strip_punct: bool = True,
    collapse_whitespace: bool = True,
) -> str:
    if lowercase:
        text = text.lower()
    if strip_punct:
        text = "".join(ch for ch in text if ch not in _PUNCT)
    if strip_articles:
        text = _ARTICLE_RE.sub(" ", text)
    if collapse_whitespace:
        text = " ".join(text.split())
    return text
