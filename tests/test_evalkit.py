from __future__ import annotations

import json
import random
import re
import string
import sys
from collections import Counter
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reciteqa.core import Dataset, RecitationPath, RunRecord, Scheme
from reciteqa import evalkit
from reciteqa.evalkit import (
    DEFAULT_PROFILE,
    ErrorCategory,
    EvalError,
    NormProfile,
    PathQuadrant,
    aggregate_report,
    format_category_table,
    format_quadrant_table,
    normalize,
    path_subsample_curve,
    plurality_vote,
)

from helpers import DATA_DIR, answer_score, make_question, profile_flags, scored, view_of
from oracles.category_oracle import oracle_analysis
from oracles.curve_oracle import oracle_curve
from oracles.normalize_oracle import oracle_normalize


def make_path(answer: str, recitations=(), failed=False) -> RecitationPath:
    if failed:
        return RecitationPath(recitations, "", "", {"error": "Timeout: x"})
    return RecitationPath(recitations, f"Answer: {answer}", answer, {})


def make_run(qid: str, answers, recitations=(), fingerprint="f" * 16) -> RunRecord:
    paths = tuple(make_path(a, recitations) for a in answers)
    voted, _ = plurality_vote([p.extracted_answer for p in paths])
    return RunRecord(qid, Scheme.RECITE_ANSWER, paths, voted, fingerprint)


# ---------------------------------------------------------------------------
# normalize


def test_normalize_articles_and_punct():
    assert normalize("The London Bridge.") == "london bridge"


def test_normalize_all_articles():
    assert normalize("a  an THE") == ""


def test_normalize_respects_profile_switches():
    keep_case = NormProfile(lowercase=False)
    assert normalize("The X", keep_case) == "X"
    keep_articles = NormProfile(strip_articles=False)
    assert normalize("The X", keep_articles) == "the x"


def test_profile_dataset_override():
    profile = NormProfile(overrides={"triviaqa": NormProfile(strip_articles=False)})
    assert profile.for_dataset("triviaqa").strip_articles is False
    assert profile.for_dataset("nq").strip_articles is True


# Every combination of the four NormProfile flags.
FLAG_SETTINGS = [
    dict(zip(("lowercase", "strip_articles", "strip_punct", "collapse_whitespace"), values))
    for values in product((True, False), repeat=4)
]

# Arbitrary text, weighted towards ASCII and non-ASCII punctuation,
# articles, case and whitespace.
PUNCTUATED_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from(string.punctuation + "“”‘’«»…—–¿¡、。・‼‽"),
        st.sampled_from(" \t\n\u00a0AaNnTtHhEeİßΣ"),
    ),
    max_size=60,
)


@given(PUNCTUATED_TEXT)
@example("THE An A")
@example("İstanbul")
@example("\u212a")  # KELVIN SIGN, which lowercases to ASCII k
@example("\u017f")  # LATIN SMALL LETTER LONG S, which matches s ignoring case
@example("\ufb00")  # LATIN SMALL LIGATURE FF
@settings(max_examples=300)
def test_normalize_matches_the_per_character_oracle(text):
    for flags in FLAG_SETTINGS:
        assert normalize(text, NormProfile(**flags)) == oracle_normalize(text, **flags), flags


# Text built from articles and their near misses, ASCII letters, digits,
# punctuation, "_" and every ASCII whitespace str.split() knows, \x1c-\x1f
# among them; MIXED_TEXT adds non-ASCII letters, punctuation and whitespace.
_ASCII_PIECES = st.one_of(
    st.sampled_from(["a", "an", "the", "A", "An", "THE", "ta", "then", "at", "_a", "a_", "3an"]),
    st.text(alphabet=string.printable + "\x1c\x1d\x1e\x1f_", max_size=4),
)
ASCII_TEXT = st.lists(_ASCII_PIECES, max_size=12).map("".join)
MIXED_TEXT = st.lists(
    st.one_of(_ASCII_PIECES, st.sampled_from(["é", "İ", "ß", "Σ", "ａ", "“", "—", "\u00a0", "\u2028"])),
    max_size=12,
).map("".join)


@given(st.one_of(ASCII_TEXT, MIXED_TEXT))
@example("The_a an\x1cthe\x1fA 1a a1 (an)")
@example("THE An A é")
@settings(max_examples=400)
def test_normalize_takes_the_ascii_path_to_the_same_text(text):
    # oracle_normalize is the string path step for step: lowercase, drop
    # ASCII punctuation, strip articles ignoring case, collapse whitespace.
    for flags in FLAG_SETTINGS:
        assert normalize(text, NormProfile(**flags)) == oracle_normalize(text, **flags), flags


@given(st.one_of(ASCII_TEXT, MIXED_TEXT).map(str.lower))
@example("a an the ta then at _a a_ 3an an3 théa ａn")
@settings(max_examples=400)
def test_lower_article_pattern_matches_where_the_plain_pattern_does(text):
    plain = re.compile(r"\b(?:a|an|the)\b")
    assert evalkit._LOWER_ARTICLE_RE.sub(" ", text) == plain.sub(" ", text)


def test_only_ascii_letters_match_the_article_letters_ignoring_case():
    # normalize strips articles from lowercased text with a case-sensitive
    # pattern; that matches where the IGNORECASE one does only if no code
    # point but ASCII A, N, T, H and E matches a, n, t, h or e ignoring case.
    every = "".join(chr(cp) for cp in range(sys.maxunicode + 1) if not 0xD800 <= cp <= 0xDFFF)
    assert set(re.findall("(?i)[anthe]", every)) == set("antheANTHE")


def test_normalize_keeps_non_ascii_punctuation():
    assert normalize("“Berlin”…") == "“berlin”…"
    assert normalize("¿Qué?") == "¿qué"


@given(st.text(max_size=80))
@settings(max_examples=200)
def test_normalize_idempotent(text):
    # _recit_hit's proof of a space-bounded mention rests on this for every
    # profile.
    for flags in FLAG_SETTINGS:
        profile = NormProfile(**flags)
        once = normalize(text, profile)
        assert normalize(once, profile) == once, flags


# ---------------------------------------------------------------------------
# EM / F1 against the frozen brute-force oracle, scored by a one-record view


def load_oracle_cases():
    return json.loads((DATA_DIR / "em_f1_cases.json").read_text(encoding="utf-8"))


def test_em_f1_agree_with_frozen_oracle():
    cases = load_oracle_cases()
    assert len(cases) == 50
    for case in cases:
        em, f1 = answer_score(case["pred"], case["golds"])
        assert em == case["em"], case
        assert abs(f1 - case["f1"]) < 1e-12, case


def test_f1_derived_case():
    assert abs(answer_score("open heart surgery", ["heart surgery"])[1] - 0.8) < 1e-12


def test_em_examples():
    assert answer_score("17 March 1973", ["17 march 1973"])[0]
    assert not answer_score("march 1973", ["17 march 1973"])[0]
    assert answer_score("x", ["zzz", "X"])[0]


def test_f1_boundaries():
    assert answer_score("same words", ["same words"])[1] == 1.0
    assert answer_score("alpha beta", ["gamma delta"])[1] == 0.0
    assert answer_score("the", [""])[1] == 1.0
    assert answer_score("word", [""])[1] == 0.0


# ---------------------------------------------------------------------------
# plurality vote


def test_vote_majority():
    winner, counts = plurality_vote(["5", "5", "3"])
    assert winner == "5"
    assert counts == {"5": 2, "3": 1}


def test_vote_tie_breaks_to_earliest():
    assert plurality_vote(["a", "b"])[0] == "a"
    assert plurality_vote(["b", "a"])[0] == "b"


def test_vote_groups_by_normalization():
    winner, counts = plurality_vote(["The X", "x", "y"])
    assert winner == "The X"
    assert counts == {"x": 2, "y": 1}


def test_vote_empty_rejected():
    with pytest.raises(EvalError):
        plurality_vote([])


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=9))
@settings(max_examples=200)
def test_vote_winner_has_max_count(answers):
    winner, counts = plurality_vote(answers)
    assert counts[normalize(winner)] == max(counts.values())


@given(
    st.lists(
        st.sampled_from(["Paris", "paris", "The Paris", "Rome", "rome.", "", " a  b", "Zürich"]),
        min_size=1,
        max_size=20,
    ),
    st.sampled_from([DEFAULT_PROFILE, NormProfile(lowercase=False), NormProfile(strip_articles=False)]),
)
@settings(max_examples=200)
def test_vote_normalizes_each_distinct_answer_once(answers, profile):
    normalized = []

    def counted(text, profile=DEFAULT_PROFILE):
        normalized.append(text)
        return normalize(text, profile)

    with mock.patch.object(evalkit, "normalize", counted):
        winner, counts = plurality_vote(answers, profile)
    # The vote as it reads with every answer normalized.
    keys = [normalize(answer, profile) for answer in answers]
    expected = Counter(keys)
    top = max(expected.values())
    assert counts == expected
    assert list(counts) == list(dict.fromkeys(keys))
    assert winner == answers[next(i for i, key in enumerate(keys) if expected[key] == top)]
    assert sorted(normalized) == sorted(set(answers))


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=8), st.randoms())
@settings(max_examples=150)
def test_vote_order_robust_without_ties(answers, rng):
    # When one group holds a strict majority of counts, permuting the answer
    # order never changes the winning group.
    winner, counts = plurality_vote(answers)
    top = sorted(counts.values(), reverse=True)
    if len(top) > 1 and top[0] == top[1]:
        return  # tied: order legitimately decides
    shuffled = list(answers)
    rng.shuffle(shuffled)
    assert normalize(plurality_vote(shuffled)[0]) == normalize(winner)


# ---------------------------------------------------------------------------
# error categories (hand-traced)


def test_classify_hits_at_majority():
    paths = [make_path("paris"), make_path("paris"), make_path("rome")]
    assert view_of(["paris"], paths, "paris").category is ErrorCategory.HITS_AT_MAJORITY


def test_classify_hits_at_path():
    paths = [make_path("rome"), make_path("rome"), make_path("paris")]
    assert view_of(["paris"], paths, "rome").category is ErrorCategory.HITS_AT_20_PATH


def test_classify_hits_at_recit():
    paths = [
        make_path("rome", recitations=("Paris is the capital of France.",)),
        make_path("rome"),
    ]
    assert view_of(["paris"], paths, "rome").category is ErrorCategory.HITS_AT_20_RECIT


def test_classify_not_recit():
    paths = [make_path("rome", recitations=("Rome is in Italy.",))]
    assert view_of(["paris"], paths, "rome").category is ErrorCategory.NOT_RECIT


def test_classify_requires_a_gold_answer():
    with pytest.raises(EvalError, match="no gold answer"):
        view_of([], [make_path("x")], "x")


@given(
    golds=st.lists(st.sampled_from(["paris", "rome"]), min_size=1, max_size=2),
    answers=st.lists(st.sampled_from(["paris", "rome", "berlin"]), min_size=1, max_size=6),
    recitation=st.sampled_from(["Paris is big.", "Nothing relevant.", ""]),
)
@settings(max_examples=150)
def test_classify_returns_exactly_one_category(golds, answers, recitation):
    recitations = (recitation,) if recitation else ()
    paths = [make_path(a, recitations) for a in answers]
    voted, _ = plurality_vote(answers)
    category = view_of(golds, paths, voted).category
    assert category in ErrorCategory


# ---------------------------------------------------------------------------
# quadrants


def test_quadrants():
    gold = ["paris"]
    hit_hit = make_path("Paris", recitations=("Paris is the capital of France.",))
    hit_miss = make_path("rome", recitations=("Paris is the capital of France.",))
    miss_hit = make_path("Paris", recitations=("France is in Europe.",))
    miss_miss = make_path("rome", recitations=("France is in Europe.",))
    view = view_of(gold, [hit_hit, hit_miss, miss_hit, miss_miss], "rome")
    assert view.quadrants == (
        PathQuadrant.RECIT_HIT_ANSWER_HIT,
        PathQuadrant.RECIT_HIT_ANSWER_MISS,
        PathQuadrant.RECIT_MISS_ANSWER_HIT,
        PathQuadrant.RECIT_MISS_ANSWER_MISS,
    )


@st.composite
def recitations_and_golds(draw):
    """Recitations, gold aliases (about half of them cut from a recitation,
    so that hits are common) and a profile."""
    recitations = draw(st.lists(MIXED_TEXT, max_size=3))
    golds = []
    for _ in range(draw(st.integers(1, 3))):
        if recitations and draw(st.booleans()):
            text = draw(st.sampled_from(recitations))
            start = draw(st.integers(0, len(text)))
            golds.append(text[start:draw(st.integers(start, len(text)))])
        else:
            golds.append(draw(MIXED_TEXT))
    return recitations, golds, NormProfile(**draw(st.sampled_from(FLAG_SETTINGS)))


@given(recitations_and_golds())
@example((["the new-york  times"], ["newyork times"], NormProfile()))
@example((["new york"], ["the new york"], NormProfile()))
@example((["a  b"], ["  "], NormProfile(collapse_whitespace=False)))
@example((["ab"], ["", "b"], NormProfile()))
@example((["the x"], ["he x"], NormProfile()))  # a miss, though "he x" is in "the x"
@example((["x\ty"], ["x y"], NormProfile()))  # a hit through the full normalization
@example((["«Hague» is"], ["the Hague"], NormProfile()))  # likewise
@example((["the x"], ["the x"], NormProfile(strip_articles=False)))
@example(([" a  b "], ["a  b"], NormProfile(collapse_whitespace=False)))
@settings(max_examples=400)
def test_path_hits_prefilter_finds_every_hit_a_full_normalization_finds(case):
    recitations, golds, profile = case
    norm_golds = [normalize(g, profile) for g in golds]
    path = RecitationPath(tuple(recitations), "Answer: x", "x", {})
    plain = any(g and g in normalize(r, profile) for r in recitations for g in norm_golds)
    [hits] = evalkit._path_hits(norm_golds, [path], ["x"], profile)
    assert hits == (plain, "x" in norm_golds)


def test_a_gold_named_as_whole_words_is_a_hit_without_a_full_normalization(monkeypatch):
    # Each recitation holds the gold bounded by spaces in its coarse form,
    # which proves the hit: it is normalized once, coarsely, and never in
    # full.
    recitations = (
        "It was written by William Shakespeare in 1600.",
        "William Shakespeare wrote it.",
    )
    questions = [make_question("q0", "who wrote hamlet", ("William Shakespeare",))]
    paths = (make_path("Shakespeare", (recitations[0],)), make_path("Marlowe", (recitations[1],)))
    run = RunRecord("q0", Scheme.RECITE_ANSWER, paths, "Shakespeare", "f" * 16)
    calls = Counter()
    real = evalkit.normalize

    def counted(text, profile=evalkit.DEFAULT_PROFILE):
        # NormProfile does not hash, so count the two profiles by identity.
        step = {id(DEFAULT_PROFILE): "full", id(DEFAULT_PROFILE._coarse): "coarse"}[id(profile)]
        calls[text, step] += 1
        return real(text, profile)

    monkeypatch.setattr(evalkit, "normalize", counted)
    [view] = scored([run], questions)
    assert view.quadrants == (PathQuadrant.RECIT_HIT_ANSWER_MISS,) * 2
    for recitation in recitations:
        assert calls[recitation, "coarse"] == 1
        assert calls[recitation, "full"] == 0


# ---------------------------------------------------------------------------
# aggregation


def fixture_questions_and_runs():
    questions = [
        make_question(f"q{i}", f"question number {i}", (f"answer {i}",))
        for i in range(4)
    ]
    runs = [
        make_run(f"q{i}", [f"answer {i}", f"answer {i}", "wrong"],
                 recitations=(f"The answer {i} appears here.",))
        for i in range(4)
    ]
    return questions, runs


def test_aggregate_all_correct():
    questions, runs = fixture_questions_and_runs()
    report = aggregate_report(scored(runs, questions))
    assert report.em == 1.0
    assert report.category_fractions[ErrorCategory.HITS_AT_MAJORITY] == 1.0
    assert report.n_questions == 4
    assert report.n_paths_per_question == 3


def test_aggregate_fractions_partition():
    questions, runs = fixture_questions_and_runs()
    report = aggregate_report(scored(runs, questions))
    assert sum(report.category_counts.values()) == report.n_questions
    assert abs(sum(report.category_fractions.values()) - 1.0) < 1e-12
    assert sum(report.quadrant_counts.values()) == 12
    assert abs(sum(report.quadrant_fractions.values()) - 1.0) < 1e-12


def test_aggregate_f1_dominates_em():
    questions = [make_question("q0", "q", ("alpha beta",))]
    runs = [make_run("q0", ["alpha"])]
    report = aggregate_report(scored(runs, questions))
    assert report.f1 >= report.em


def test_aggregate_unknown_question_id():
    _, runs = fixture_questions_and_runs()
    with pytest.raises(EvalError):
        aggregate_report(scored(runs, []))


def test_a_question_whose_every_path_failed_scores_no_hit_against_an_empty_gold():
    # "The The" normalizes to "", which equals a failed path's empty answer.
    questions = [make_question("q0", "which band?", ("The The",))]
    failed = tuple(make_path("", failed=True) for _ in range(4))
    run = RunRecord("q0", Scheme.RECITE_ANSWER, failed, "", "f" * 16)
    report = aggregate_report(scored([run], questions))
    assert (report.em, report.f1, report.n_failed_questions) == (0.0, 0.0, 1)
    assert report.category_counts[ErrorCategory.NOT_RECIT] == 1
    assert report.quadrant_counts[PathQuadrant.RECIT_MISS_ANSWER_MISS] == 4
    curve = path_subsample_curve(scored([run], questions), [4], trials=1)
    assert (curve[0].mean_em, curve[0].mean_f1) == (0.0, 0.0)
    view = view_of(["The The"], failed, "")
    assert view.category is ErrorCategory.NOT_RECIT
    assert view.quadrants == (PathQuadrant.RECIT_MISS_ANSWER_MISS,) * 4
    # A path whose answer extraction found nothing did not fail: it votes "".
    mixed = RunRecord("q0", Scheme.RECITE_ANSWER, failed[:3] + (make_path(""),), "", "f" * 16)
    view = scored([mixed], questions)[0]
    assert view.voted_score == (True, 1.0)
    assert view.category is ErrorCategory.HITS_AT_MAJORITY
    assert view.quadrants[3] is PathQuadrant.RECIT_MISS_ANSWER_HIT


@st.composite
def records_and_profiles(draw):
    """A question's golds and dataset, its paths, and a profile with an
    override for one dataset. Golds include aliases that normalize to ""."""
    golds = tuple(draw(st.lists(
        st.sampled_from(["Paris", "the", "The The", "New York", "rome"]), min_size=1, max_size=3
    )))
    recitation = st.sampled_from([
        "Paris is in France.", "The The is a band.", "new york, NEW YORK", "Nothing here.",
        "Romeo met «Paris»", "new\tyork",
    ])
    paths = tuple(
        make_path(
            draw(st.sampled_from(["paris", "Paris!", "the", "", "New-York", "Rome", "berlin"])),
            tuple(draw(st.lists(recitation, max_size=2))),
            failed=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 5)))
    )
    profile = NormProfile(
        **draw(st.sampled_from(FLAG_SETTINGS)),
        overrides={"triviaqa": NormProfile(**draw(st.sampled_from(FLAG_SETTINGS)))},
    )
    return golds, draw(st.sampled_from([Dataset.NQ, Dataset.TRIVIA_QA])), paths, profile


@given(records_and_profiles())
# "he x" occurs in the coarse "the x" but not in its full normalization "x".
@example((("he x",), Dataset.NQ, (make_path("x", ("the x",)),), DEFAULT_PROFILE))
# A failed path's empty answer is no hit on a gold that normalizes to "".
@example((("The The",), Dataset.NQ, (make_path("", failed=True), make_path("rome")), DEFAULT_PROFILE))
@settings(max_examples=300)
def test_a_record_view_agrees_with_the_category_oracle(case):
    golds, dataset, paths, profile = case
    under = profile.for_dataset(dataset.value)
    live = [p.extracted_answer for p in paths if not p.failed]
    voted = plurality_vote(live, under)[0] if live else ""
    view = view_of(golds, paths, voted, profile, dataset)
    category, quadrants, score = oracle_analysis(list(golds), paths, voted, profile_flags(under))
    assert view.category is ErrorCategory(category)
    assert view.quadrants == tuple(map(PathQuadrant, quadrants))
    assert view.voted_score == score


def test_tables_render():
    questions, runs = fixture_questions_and_runs()
    report = aggregate_report(scored(runs, questions))
    assert "Hits@Majority" in format_category_table(report)
    assert "100.00%" in format_category_table(report)
    assert "fraction" in format_quadrant_table(report)


# ---------------------------------------------------------------------------
# path subsampling


def subsample_fixture(n_questions=30, k=8, p_correct=0.75, seed=3):
    rng = random.Random(seed)
    questions = []
    runs = []
    for i in range(n_questions):
        gold = f"gold {i}"
        questions.append(make_question(f"q{i}", f"question {i}", (gold,)))
        answers = [gold if rng.random() < p_correct else "wrong" for _ in range(k)]
        runs.append(make_run(f"q{i}", answers))
    return questions, runs


def test_subsample_full_count_has_zero_std():
    questions, runs = subsample_fixture()
    points = path_subsample_curve(scored(runs, questions), [8], trials=5, seed=0)
    assert points[0].std_em == 0.0
    assert points[0].std_f1 == 0.0


def test_subsample_full_count_matches_stored_vote():
    questions, runs = subsample_fixture()
    report = aggregate_report(scored(runs, questions))
    points = path_subsample_curve(scored(runs, questions), [8], trials=2, seed=1)
    assert points[0].mean_em == pytest.approx(report.em)


def test_subsample_deterministic():
    questions, runs = subsample_fixture()
    first = path_subsample_curve(scored(runs, questions), [1, 4, 8], trials=5, seed=42)
    second = path_subsample_curve(scored(runs, questions), [1, 4, 8], trials=5, seed=42)
    assert first == second


@pytest.mark.parametrize("trials", [0, -1])
def test_subsample_rejects_fewer_than_one_trial(trials):
    questions, runs = subsample_fixture()
    with pytest.raises(EvalError):
        path_subsample_curve(scored(runs, questions), [1], trials=trials)


def test_subsample_unknown_question_id():
    _, runs = subsample_fixture()
    with pytest.raises(EvalError):
        path_subsample_curve(scored(runs, []), [1])


def test_report_and_subsample_reject_a_question_without_golds():
    questions = [make_question("q0", "q", ())]
    runs = [make_run("q0", ["alpha", "beta"])]
    with pytest.raises(EvalError):
        aggregate_report(scored(runs, questions))
    with pytest.raises(EvalError):
        path_subsample_curve(scored(runs, questions), [1])


def test_subsample_scores_each_distinct_answer_once(monkeypatch):
    questions, runs = subsample_fixture(n_questions=5, k=8)
    calls = []
    real = evalkit.normalize

    def counted(text, profile=evalkit.DEFAULT_PROFILE):
        calls.append(text)
        return real(text, profile)

    monkeypatch.setattr(evalkit, "normalize", counted)
    path_subsample_curve(scored(runs, questions), [1, 2, 4, 8], trials=5, seed=0)
    # Per record: one gold, eight answers, and one scoring per distinct
    # answer ("gold i" and "wrong" at most), however many trials vote.
    assert len(calls) <= 5 * (1 + 8 + 2)


def count_normalize(monkeypatch) -> Counter:
    """Count evalkit's normalize calls by text, through the module attribute."""
    calls = Counter()
    real = evalkit.normalize

    def counted(text, profile=evalkit.DEFAULT_PROFILE):
        calls[text] += 1
        return real(text, profile)

    monkeypatch.setattr(evalkit, "normalize", counted)
    return calls


def test_report_normalizes_each_distinct_answer_once_per_record(monkeypatch):
    # Every text names its question, so a count over the run is a count per
    # record. The paths recite nothing, so only gold aliases and answers,
    # the voted one among them, are normalized.
    questions, runs = [], []
    for i in range(3):
        questions.append(make_question(f"q{i}", "q", (f"gold {i}",)))
        answers = [f"Gold {i}", f"gold {i}", f"Gold {i}", f"rome {i}", f"Gold {i}", f"rome {i}"]
        runs.append(make_run(f"q{i}", answers))
    calls = count_normalize(monkeypatch)
    report = aggregate_report(scored(runs, questions))
    assert report.em == 1.0
    expected = {text for i in range(3) for text in (f"gold {i}", f"Gold {i}", f"rome {i}")}
    assert calls == dict.fromkeys(expected, 1)


def count_samples(monkeypatch) -> list[int]:
    """The subset size of each random.Random.sample call."""
    sizes = []
    real = random.Random.sample

    def counted(self, population, k, **kwargs):
        sizes.append(k)
        return real(self, population, k, **kwargs)

    monkeypatch.setattr(random.Random, "sample", counted)
    return sizes


def test_subsample_full_count_draws_no_subsets(monkeypatch):
    questions, runs = subsample_fixture(k=8)
    samples = count_samples(monkeypatch)
    [point] = path_subsample_curve(scored(runs, questions), [8], trials=5, seed=0)
    assert samples == []
    assert point.mean_em == aggregate_report(scored(runs, questions)).em
    assert point.std_em == point.std_f1 == 0.0


def test_subsample_draws_when_a_record_has_more_paths_than_the_count(monkeypatch):
    questions, runs = subsample_fixture(k=8)
    runs[0] = make_run("q0", [p.extracted_answer for p in runs[0].paths] + ["wrong"])
    samples = count_samples(monkeypatch)
    path_subsample_curve(scored(runs, questions), [8], trials=5, seed=0)
    assert samples == [8] * (5 * len(runs))


def test_report_and_curve_normalize_through_the_module_attribute(monkeypatch):
    # perfbench/workload.py counts normalize calls by replacing this module
    # attribute; a local alias or an inlined copy would bypass its counter.
    questions = [make_question(f"q{i}", "q", ("paris",)) for i in range(3)]
    runs = [make_run(f"q{i}", ["rome", "rome", "oslo"], ("Nothing relevant.",)) for i in range(3)]
    assert aggregate_report(scored(runs, questions)).em == 0.0
    seen = set()

    def constant(text, profile=evalkit.DEFAULT_PROFILE):
        seen.add(text)
        return "same"

    monkeypatch.setattr(evalkit, "normalize", constant)
    views = scored(runs, questions)
    report = aggregate_report(views)
    assert report.em == report.f1 == 1.0
    assert report.category_counts[ErrorCategory.HITS_AT_MAJORITY] == 3
    assert report.quadrant_counts[PathQuadrant.RECIT_HIT_ANSWER_HIT] == 9
    [point] = path_subsample_curve(views, [1], trials=3)
    assert point.mean_em == point.mean_f1 == 1.0
    # Building the views normalized every text, under the patch.
    assert seen == {"paris", "rome", "oslo", "Nothing relevant."}


def curve_fixture(n_records=60, k=6, seed=4):
    """(questions, runs, oracle records) with failed paths, one wrong answer
    that scores a partial F1, and gold answers that lean early in path
    order, so that tie-breaks matter."""
    rng = random.Random(seed)
    questions, runs, plain = [], [], []
    for i in range(n_records):
        gold = f"Gold {i}"
        answers = []
        for j in range(k):
            roll = rng.random()
            if roll < 0.15:
                answers.append(None)
            elif roll < 0.6 - 0.08 * j:
                answers.append(rng.choice((gold, gold.lower(), f"the {gold}.")))
            else:
                answers.append(rng.choice(("gold", "wrong one", "Wrong Two")))
        paths = tuple(make_path("", failed=True) if a is None else make_path(a) for a in answers)
        live = [a for a in answers if a is not None]
        voted = plurality_vote(live)[0] if live else ""
        questions.append(make_question(f"q{i}", "q", (gold,)))
        runs.append(RunRecord(f"q{i}", Scheme.RECITE_ANSWER, paths, voted, "f" * 16))
        plain.append(([gold], answers))
    return questions, runs, plain


def test_subsample_curve_agrees_with_the_enumeration_oracle():
    # Each point is a mean over independent trials, so it lies within a few
    # standard errors of the exact expectation over all k-subsets.
    questions, runs, plain = curve_fixture()
    counts, trials = [1, 2, 3, 4, 5, 6], 400
    points = path_subsample_curve(scored(runs, questions), counts, trials=trials, seed=1)
    expected = oracle_curve(plain, counts)
    for point in points:
        em, f1, em_sd, f1_sd = expected[point.path_count]
        assert abs(point.mean_em - em) <= 4 * em_sd / trials**0.5 + 1e-12, point
        assert abs(point.mean_f1 - f1) <= 4 * f1_sd / trials**0.5 + 1e-12, point


def test_subsample_rejects_excessive_count():
    questions, runs = subsample_fixture(k=4)
    with pytest.raises(EvalError):
        path_subsample_curve(scored(runs, questions), [5])


def test_subsample_single_path_mean_near_path_accuracy():
    # With c=1 the vote is a single uniformly chosen path, so the mean EM
    # estimates per-path accuracy.
    questions, runs = subsample_fixture(n_questions=200, k=10, p_correct=0.6, seed=9)
    per_path = sum(
        sum(1 for p in r.paths if p.extracted_answer.startswith("gold")) / len(r.paths)
        for r in runs
    ) / len(runs)
    points = path_subsample_curve(scored(runs, questions), [1], trials=10, seed=5)
    sigma = (per_path * (1 - per_path) / 200) ** 0.5
    assert abs(points[0].mean_em - per_path) < 3 * sigma + 0.02
