"""Answer normalization, EM/F1 scoring, plurality voting, per-question and
per-path error classification, report aggregation, and the path-count
subsampling analysis.

`aggregate_report` and `path_subsample_curve` take one `ScoredRecord` view
per record. A view normalizes each distinct gold alias, path answer and
voted answer text once per record, under the profile of the question's
dataset, and normalizes each path's recitations only up to its first gold
hit. It keeps the keys and hits, not the record, so `reciteqa run` and
`reciteqa analyze` score each record into its view as the record streams
in and hold no recitation of the run. The curve re-votes every subset by
counting the normalized answers and scores each winning key once per
record, so a trial costs no normalization at all. A path count equal to every record's
path count picks every path in every trial, so that point is scored in one
pass and draws no random subsets. Every normalization goes through the
module attribute `normalize`, looked up at call time, so one replacement of
it sees them all.

Five shortcuts keep every result exact:
- *ASCII text.* When a profile both lowercases and strips punctuation and
  the text is ASCII, `normalize` does those two steps on bytes
  (`bytes.lower` and `bytes.translate`), which for ASCII give the same
  characters as `str.lower` and the punctuation table.
- *Recitation pre-filter.* `_recit_hit` first normalizes a recitation
  under the profile's coarse form, with article stripping and whitespace
  collapsing off, and normalizes it in full only when every whitespace
  token of some gold alias occurs in that coarse text. Stripping an
  article only puts a space in its place, and collapsing only rewrites
  runs of whitespace, so each whitespace-free stretch of the full text is
  a stretch of the coarse text: a gold alias found in the full text has
  every token in the coarse one. An alias with no tokens, only
  whitespace, always passes the filter.
- *Exact match.* A key that is a gold alias scores F1 1.0 without
  counting tokens, since the F1 of a token list against itself is 1.0.
- *Vote.* `plurality_vote` normalizes each distinct answer text once,
  since `normalize` is a function of the text and the profile alone.
- *Space-bounded mention.* A gold alias `g` that passes the pre-filter
  and occurs in the coarse text with a space or an end of the text on
  each side, that is `f" {g} "` in `f" {coarse} "`, is a hit with no full
  normalization. `g` is `normalize`'s output under the same profile and
  `normalize` is idempotent, so no article matches in `g`, since a match
  would change it; under collapsing `g` also has only single spaces and
  no leading or trailing whitespace. An article match is a whole run of
  word characters, so it cannot cross the spaces that bound the
  occurrence, and one inside them would match in `g` alone as well:
  article stripping leaves the occurrence intact. Collapsing keeps a run
  of whole tokens joined by single spaces, so `g` also occurs in the
  full text. Any other occurrence, such as `hague` in `the hague's`, one
  next to a tab or `«`, or one inside a token (`rome` in `romeo`), falls
  back to the full normalization. The padding matters: `he x` occurs in
  the coarse `the x` but not in its full form `x`.
"""

from __future__ import annotations

import random
import re
import statistics
import string
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from enum import Enum
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .core import QuestionRecord, RecitationPath, RunRecord

__all__ = [
    "NormProfile",
    "DEFAULT_PROFILE",
    "ErrorCategory",
    "PathQuadrant",
    "EvalReport",
    "CurvePoint",
    "EvalError",
    "ScoredRecord",
    "normalize",
    "exact_match",
    "token_f1",
    "plurality_vote",
    "classify_question",
    "per_path_quadrant",
    "aggregate_report",
    "path_subsample_curve",
    "format_category_table",
    "format_quadrant_table",
    "report_to_dict",
]

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b", re.IGNORECASE)
# No code point but ASCII A, N, T, H and E matches a, n, t, h or e under
# IGNORECASE, and lowercasing removes those five, so on lowercased text a
# case-sensitive pattern for a, an and the matches exactly where _ARTICLE_RE
# does. This one is \b(?:a|an|the)\b led by a character set, so the engine
# skips to each a or t instead of testing \b at every position:
# - [at](?<!\w[at]) is the leading \b, since the a or t just taken is a word
#   character and the lookbehind refuses a word character before it;
# - (?<=t)he completes "the" after a t, and (?<=a)n? completes "a" or "an"
#   after an a, each followed by the trailing \b;
# - a then "n" can never end on \b where "an" does, and the reverse, so
#   trying "an" before "a" picks the same match as the alternation does.
_LOWER_ARTICLE_RE = re.compile(r"[at](?<!\w[at])(?:(?<=t)he|(?<=a)n?)\b")
# string.punctuation is ASCII, so non-ASCII punctuation is kept.
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_PUNCT_BYTES = string.punctuation.encode()


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class NormProfile:
    """Which normalization steps apply, with optional per-dataset overrides.

    The default profile enables all four steps (the common open-domain QA
    convention); overrides map a dataset tag to a replacement profile.
    """

    lowercase: bool = True
    strip_articles: bool = True
    strip_punct: bool = True
    collapse_whitespace: bool = True
    overrides: Mapping[str, "NormProfile"] = field(default_factory=dict)

    def for_dataset(self, dataset: str) -> "NormProfile":
        return self.overrides.get(dataset, self)

    @cached_property
    def _coarse(self) -> "NormProfile":
        """This profile without the two steps that only put in or merge
        whitespace; the recitation pre-filter of _recit_hit uses it."""
        return replace(self, strip_articles=False, collapse_whitespace=False)


DEFAULT_PROFILE = NormProfile()


class ErrorCategory(Enum):
    """Mutually exclusive per-question outcomes of the error analysis."""

    HITS_AT_MAJORITY = "hits_at_majority"
    HITS_AT_20_PATH = "hits_at_20_path"
    HITS_AT_20_RECIT = "hits_at_20_recit"
    NOT_RECIT = "not_recit"


_CATEGORY_LABELS = {
    ErrorCategory.HITS_AT_MAJORITY: "Hits@Majority",
    ErrorCategory.HITS_AT_20_PATH: "Hits@20-Path",
    ErrorCategory.HITS_AT_20_RECIT: "Hits@20-Recit",
    ErrorCategory.NOT_RECIT: "Not-Recit",
}


class PathQuadrant(Enum):
    """Per-path cross of (recitation contains a gold answer) x (extracted
    answer is correct)."""

    RECIT_HIT_ANSWER_HIT = "recit_hit_answer_hit"
    RECIT_HIT_ANSWER_MISS = "recit_hit_answer_miss"
    RECIT_MISS_ANSWER_HIT = "recit_miss_answer_hit"
    RECIT_MISS_ANSWER_MISS = "recit_miss_answer_miss"


_QUADRANT_LABELS = {
    PathQuadrant.RECIT_HIT_ANSWER_HIT: ("yes", "yes"),
    PathQuadrant.RECIT_HIT_ANSWER_MISS: ("yes", "no"),
    PathQuadrant.RECIT_MISS_ANSWER_HIT: ("no", "yes"),
    PathQuadrant.RECIT_MISS_ANSWER_MISS: ("no", "no"),
}
# (recitation hit, answer hit) -> quadrant
_QUADRANT_OF = {
    (recit == "yes", answer == "yes"): quadrant
    for quadrant, (recit, answer) in _QUADRANT_LABELS.items()
}


def normalize(text: str, profile: NormProfile = DEFAULT_PROFILE) -> str:
    """Lowercase, remove ASCII punctuation and standalone articles, and
    collapse whitespace, in that order; idempotent."""
    if profile.lowercase and profile.strip_punct and text.isascii():
        # The same two steps on ASCII bytes.
        text = text.encode().lower().translate(None, _PUNCT_BYTES).decode()
    else:
        if profile.lowercase:
            text = text.lower()
        if profile.strip_punct:
            text = text.translate(_PUNCT_TABLE)
    if profile.strip_articles:
        text = (_LOWER_ARTICLE_RE if profile.lowercase else _ARTICLE_RE).sub(" ", text)
    if profile.collapse_whitespace:
        text = " ".join(text.split())
    return text


def exact_match(
    pred: str, golds: Sequence[str], profile: NormProfile = DEFAULT_PROFILE
) -> bool:
    """True iff the normalized prediction equals any normalized gold alias."""
    if not golds:
        raise EvalError("exact_match requires at least one gold answer")
    return normalize(pred, profile) in [normalize(g, profile) for g in golds]


def _f1_single(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def _f1(norm_pred: str, norm_golds: Sequence[str]) -> float:
    pred_tokens = norm_pred.split()
    return max(_f1_single(pred_tokens, g.split()) for g in norm_golds)


def token_f1(
    pred: str, golds: Sequence[str], profile: NormProfile = DEFAULT_PROFILE
) -> float:
    """Token-multiset F1 between normalized prediction and each gold alias;
    returns the max over aliases."""
    if not golds:
        raise EvalError("token_f1 requires at least one gold answer")
    return _f1(normalize(pred, profile), [normalize(g, profile) for g in golds])


def _plurality(keys: Iterable[Hashable]) -> tuple[Hashable, dict]:
    """The most frequent key and the count of each key; a tie goes to the
    key that occurs first."""
    counts: dict = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    # dicts preserve first-occurrence order, so max() lands ties on the
    # earliest key.
    return max(counts, key=counts.get), counts


def plurality_vote(
    answers: Sequence[str], profile: NormProfile = DEFAULT_PROFILE
) -> tuple[str, dict[str, int]]:
    """Group answers by normalized form and return the winning group's first
    raw answer plus the per-group counts.

    Ties break to the group whose first occurrence comes earliest in the
    given order, which makes the vote deterministic for any fixed path order.
    """
    if not answers:
        raise EvalError("plurality_vote requires at least one answer")
    # Paths often agree, so each distinct answer text is normalized once.
    norms = {answer: normalize(answer, profile) for answer in set(answers)}
    keys = [norms[answer] for answer in answers]
    winner, counts = _plurality(keys)
    return answers[keys.index(winner)], counts


def _path_hits(
    norm_golds: Sequence[str],
    paths: Sequence[RecitationPath],
    answer_keys: Sequence[str | None],
    profile: NormProfile,
) -> list[tuple[bool, bool]]:
    """For each path, whether a gold alias occurs, normalized, as a
    substring of one of its recitations, and whether its normalized answer
    key is a gold alias. A failed path has key None, so it is never an
    answer hit. Recitations are normalized only up to a path's first hit,
    and in full only when the coarse form neither rules a hit out nor
    proves it (see the module docstring)."""
    # Each non-empty alias, padded with a space each side and split into
    # tokens, once per record.
    terms = [(g, f" {g} ", g.split()) for g in norm_golds if g]
    return [
        (_recit_hit(terms, path.recitations, profile), key in norm_golds)
        for path, key in zip(paths, answer_keys)
    ]


def _recit_hit(
    terms: Sequence[tuple[str, str, list[str]]],
    recitations: Sequence[str],
    profile: NormProfile,
) -> bool:
    """Whether an alias of `terms` occurs in one of the recitations once
    they are normalized under `profile`."""
    for recitation in recitations:
        coarse = normalize(recitation, profile._coarse)
        found = [(g, padded) for g, padded, tokens in terms if all(t in coarse for t in tokens)]
        if not found:
            continue
        padded_coarse = f" {coarse} "
        if any(padded in padded_coarse for _, padded in found):
            return True
        norm_recitation = normalize(recitation, profile)
        if any(g in norm_recitation for g, _ in found):
            return True
    return False


def _category(voted_hit: bool, path_hits: Sequence[tuple[bool, bool]]) -> ErrorCategory:
    if voted_hit:
        return ErrorCategory.HITS_AT_MAJORITY
    if any(answer_hit for _, answer_hit in path_hits):
        return ErrorCategory.HITS_AT_20_PATH
    if any(recit_hit for recit_hit, _ in path_hits):
        return ErrorCategory.HITS_AT_20_RECIT
    return ErrorCategory.NOT_RECIT


def classify_question(
    golds: Sequence[str],
    paths: Sequence[RecitationPath],
    voted: str,
    profile: NormProfile = DEFAULT_PROFILE,
) -> ErrorCategory:
    """Classify one question's outcome.

    HitsAtMajority when the voted answer is correct and some path did not
    fail; else HitsAt20Path when any path that did not fail has a correct
    extracted answer; else HitsAt20Recit when any gold alias occurs
    (normalized, as a substring) in any recitation; else NotRecit. Exactly
    one category applies.
    """
    if not golds:
        raise EvalError("classify_question requires at least one gold answer")
    if not paths:
        raise EvalError("classify_question requires at least one path")
    norm_golds = [normalize(g, profile) for g in golds]
    keys = [None if p.failed else normalize(p.extracted_answer, profile) for p in paths]
    hits = _path_hits(norm_golds, paths, keys, profile)
    voted_hit = normalize(voted, profile) in norm_golds and not all(p.failed for p in paths)
    return _category(voted_hit, hits)


def per_path_quadrant(
    golds: Sequence[str],
    path: RecitationPath,
    profile: NormProfile = DEFAULT_PROFILE,
) -> PathQuadrant:
    """Place one path in the recitation-hit x answer-correct quadrant."""
    if not golds:
        raise EvalError("per_path_quadrant requires at least one gold answer")
    norm_golds = [normalize(g, profile) for g in golds]
    answer_key = None if path.failed else normalize(path.extracted_answer, profile)
    [hits] = _path_hits(norm_golds, [path], [answer_key], profile)
    return _QUADRANT_OF[hits]


class ScoredRecord:
    """What the report and the curve score of one run record, kept without
    the record or its recitations.

    The question's gold aliases and the answers of the paths that did not
    fail are normalized under the profile of the question's dataset, each
    distinct text once. The view
    also holds the stored vote's EM and F1, which are (False, 0.0) when
    every path failed, the question's error category and each path's
    quadrant.

    `vote_score` re-votes on a subset of the paths by counting normalized
    answers; each winning key is scored once, when it first wins.
    """

    __slots__ = ("question_id", "norm_golds", "voted_score", "category", "quadrants",
                 "_vote_keys", "_scores")

    def __init__(
        self,
        record: RunRecord,
        by_id: Mapping[str, QuestionRecord],
        profile: NormProfile,
    ):
        question = by_id.get(record.question_id)
        if question is None:
            raise EvalError(f"run record references unknown question {record.question_id!r}")
        self.question_id = record.question_id
        profile = profile.for_dataset(question.dataset.value)
        # Equal texts are normalized once, and equal keys share one string,
        # which keeps the views small.
        keys: dict[str, str] = {}
        distinct: dict[str, str] = {}

        def key_of(text: str) -> str:
            key = keys.get(text)
            if key is None:
                key = normalize(text, profile)
                key = keys[text] = distinct.setdefault(key, key)
            return key

        self.norm_golds = [key_of(g) for g in question.gold_answers]
        # Failed paths do not vote.
        self._vote_keys = [
            None if path.failed else key_of(path.extracted_answer) for path in record.paths
        ]
        self._scores: dict[str, tuple[bool, float]] = {}
        voted_score = self._score_key(key_of(record.voted_answer))
        self.voted_score = (False, 0.0) if self.all_failed else voted_score
        path_hits = _path_hits(self.norm_golds, record.paths, self._vote_keys, profile)
        self.category = _category(self.voted_score[0], path_hits)
        self.quadrants = tuple(_QUADRANT_OF[hit] for hit in path_hits)

    @property
    def n_paths(self) -> int:
        return len(self._vote_keys)

    @property
    def all_failed(self) -> bool:
        """True iff every path failed."""
        return all(key is None for key in self._vote_keys)

    def _score_key(self, key: str) -> tuple[bool, float]:
        """EM and token F1 of a normalized answer, memoized per key."""
        score = self._scores.get(key)
        if score is not None:
            return score
        if not self.norm_golds:
            raise EvalError(
                f"question {self.question_id!r} has no gold answer to score against"
            )
        # _f1_single(t, t) is exactly 1.0.
        score = (True, 1.0) if key in self.norm_golds else (False, _f1(key, self.norm_golds))
        self._scores[key] = score
        return score

    def vote_score(self, chosen: Iterable[int]) -> tuple[bool, float] | None:
        """EM and F1 of the plurality vote over the chosen paths, in the
        given order; None when every chosen path failed."""
        keys = [key for i in chosen if (key := self._vote_keys[i]) is not None]
        if not keys:
            return None
        winner, _ = _plurality(keys)
        return self._score_key(winner)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate EM/F1 plus error-category and per-path-quadrant fractions.

    Fractions are computed from integer counts with a single division, so
    each family sums to exactly 1.0. n_paths_per_question is None when the
    records disagree on path count.
    """

    em: float
    f1: float
    category_fractions: Mapping[ErrorCategory, float]
    category_counts: Mapping[ErrorCategory, int]
    quadrant_fractions: Mapping[PathQuadrant, float]
    quadrant_counts: Mapping[PathQuadrant, int]
    n_questions: int
    n_paths_per_question: int | None
    n_failed_questions: int = 0


def aggregate_report(views: Sequence[ScoredRecord]) -> EvalReport:
    """Score a run from its records' views: EM/F1 means and category
    fractions over questions, quadrant fractions over all paths."""
    if not views:
        raise EvalError("aggregate_report requires at least one run record")
    em_hits = 0
    f1_total = 0.0
    category_counts = {c: 0 for c in ErrorCategory}
    quadrant_counts = {q: 0 for q in PathQuadrant}
    n_failed = 0
    path_counts = set()
    for view in views:
        em, f1 = view.voted_score
        em_hits += int(em)
        f1_total += f1
        if not view.n_paths:
            raise EvalError(f"run record {view.question_id!r} has no paths")
        category_counts[view.category] += 1
        for quadrant in view.quadrants:
            quadrant_counts[quadrant] += 1
        if view.all_failed:
            n_failed += 1
        path_counts.add(view.n_paths)
    n_questions = len(views)
    n_paths = sum(quadrant_counts.values())
    return EvalReport(
        em=em_hits / n_questions,
        f1=f1_total / n_questions,
        category_fractions={c: n / n_questions for c, n in category_counts.items()},
        category_counts=category_counts,
        quadrant_fractions={q: n / n_paths for q, n in quadrant_counts.items()},
        quadrant_counts=quadrant_counts,
        n_questions=n_questions,
        n_paths_per_question=path_counts.pop() if len(path_counts) == 1 else None,
        n_failed_questions=n_failed,
    )


@dataclass(frozen=True)
class CurvePoint:
    path_count: int
    mean_em: float
    std_em: float
    mean_f1: float
    std_f1: float


def _vote_means(
    views: Sequence[ScoredRecord], choose: Callable[[int], Iterable[int]]
) -> tuple[float, float]:
    """EM and F1, averaged over the records, of each record's vote on the
    paths `choose` picks from its path count."""
    em_hits = 0
    f1_total = 0.0
    for view in views:
        score = view.vote_score(choose(view.n_paths))
        if score is not None:
            em_hits += int(score[0])
            f1_total += score[1]
    return em_hits / len(views), f1_total / len(views)


def path_subsample_curve(
    views: Sequence[ScoredRecord],
    path_counts: Sequence[int],
    trials: int = 5,
    seed: int = 0,
) -> list[CurvePoint]:
    """Re-vote on random path subsets of each size, over the records'
    views, and report the mean and sample standard deviation of EM/F1 over
    the trials.

    Subsets are drawn without replacement per question and kept in canonical
    path order, so the full-size subset reproduces the stored vote exactly.
    """
    if not views:
        raise EvalError("path_subsample_curve requires at least one run record")
    if trials < 1:
        raise EvalError(f"path_subsample_curve requires at least one trial, got {trials}")
    stored_k = min(view.n_paths for view in views)
    for count in path_counts:
        if count < 1 or count > stored_k:
            raise EvalError(
                f"path_count {count} outside the stored range 1..{stored_k}"
            )
    if not path_counts:
        return []
    full_k = max(view.n_paths for view in views)
    points = []
    for count in path_counts:
        if count == full_k:
            # Every record has exactly `count` paths, so every trial's subset
            # is all of them: score it once, with no draws, and repeat it per
            # trial so that the mean and stdev are what the trials give.
            em, f1 = _vote_means(views, range)
            em_means, f1_means = [em] * trials, [f1] * trials
        else:
            em_means, f1_means = [], []
            for trial in range(trials):
                rng = random.Random(f"{seed}:{count}:{trial}")
                em, f1 = _vote_means(views, lambda n: sorted(rng.sample(range(n), count)))
                em_means.append(em)
                f1_means.append(f1)
        points.append(
            CurvePoint(
                path_count=count,
                mean_em=statistics.mean(em_means),
                std_em=statistics.stdev(em_means) if trials > 1 else 0.0,
                mean_f1=statistics.mean(f1_means),
                std_f1=statistics.stdev(f1_means) if trials > 1 else 0.0,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Report rendering


def format_category_table(report: EvalReport) -> str:
    lines = [f"{'category':<16}{'fraction':>10}{'count':>8}"]
    for category in ErrorCategory:
        frac = report.category_fractions[category]
        lines.append(
            f"{_CATEGORY_LABELS[category]:<16}{frac * 100:>9.2f}%"
            f"{report.category_counts[category]:>8}"
        )
    return "\n".join(lines)


def format_quadrant_table(report: EvalReport) -> str:
    lines = [f"{'recit':<7}{'answer':<8}{'fraction':>10}{'count':>8}"]
    for quadrant in PathQuadrant:
        recit, answer = _QUADRANT_LABELS[quadrant]
        frac = report.quadrant_fractions[quadrant]
        lines.append(
            f"{recit:<7}{answer:<8}{frac * 100:>9.2f}%"
            f"{report.quadrant_counts[quadrant]:>8}"
        )
    return "\n".join(lines)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "em": report.em,
        "f1": report.f1,
        "category_fractions": {
            c.value: report.category_fractions[c] for c in ErrorCategory
        },
        "category_counts": {c.value: report.category_counts[c] for c in ErrorCategory},
        "quadrant_fractions": {
            q.value: report.quadrant_fractions[q] for q in PathQuadrant
        },
        "quadrant_counts": {q.value: report.quadrant_counts[q] for q in PathQuadrant},
        "n_questions": report.n_questions,
        "n_paths_per_question": report.n_paths_per_question,
        "n_failed_questions": report.n_failed_questions,
    }
