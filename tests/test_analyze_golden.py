"""Golden outputs of `aggregate_report` and `path_subsample_curve` on a
seeded synthetic run, pinned in tests/golden/analyze_report.json.

The run is built here: 200 questions at K=20 with tied votes, failed paths,
all-failed questions, case, punctuation and article variants, non-ASCII
punctuation, gold aliases that normalize to nothing, and per-dataset
normalization overrides. Regenerate the golden file with

    PYTHONPATH=src:tests python tests/test_analyze_golden.py
"""

from __future__ import annotations

import json
import random
from collections import Counter

from reciteqa.core import Dataset, RecitationPath, RunRecord, Scheme
from reciteqa.evalkit import (
    NormProfile,
    aggregate_report,
    path_subsample_curve,
    plurality_vote,
    report_to_dict,
)

from helpers import GOLDEN_DIR, make_question, profile_flags, scored
from oracles.category_oracle import oracle_analysis

GOLDEN_PATH = GOLDEN_DIR / "analyze_report.json"
N_QUESTIONS = 200
K = 20

PROFILE = NormProfile(
    overrides={
        "triviaqa": NormProfile(strip_articles=False),
        "hotpotqa": NormProfile(lowercase=False, strip_punct=False),
    }
)
DATASETS = (Dataset.NQ, Dataset.NQ, Dataset.TRIVIA_QA, Dataset.HOTPOT_QA)

NAMES = (
    "Berlin", "the Nile", "Leonardo da Vinci", "Zürich", "São Paulo", "Mount Everest",
    "A Tale of Two Cities", "Ōsaka", "Rock 'n' Roll", "U.S. Steel", "ÉCOLE Normale",
    "An Inspector Calls", "Mr. Smith", "Düsseldorf", "Côte d'Ivoire", "The Beatles",
    "Saint-Étienne", "Ice-T", "Kraków", "the Hague",
)
FILLER = (
    "river", "city", "founded", "known", "capital", "north", "the", "an", "century",
    "famous", "record", "a", "museum", "bridge", "writer", "painted", "mountain",
)
CURVE_COUNTS = (1, 2, 3, 5, 10, 19, 20)


def _variant(name: str, rng: random.Random) -> str:
    """A raw surface form of `name`: most normalize back to it under the
    default profile, the non-ASCII punctuated ones do not."""
    forms = (
        name, name.lower(), name.upper(), f"the {name}", f"{name}.", f"  {name}!",
        f"{name},", f"A {name}", f"“{name}”", f"{name}…", f"¿{name}?", f"{name} — yes",
        f"«{name}»", name.replace(" ", "  "), f"{name}\t", f"THE {name}'s",
    )
    return rng.choice(forms)


def _recitation(mentions: list[str], rng: random.Random) -> str:
    words = rng.choices(FILLER, k=rng.randrange(6, 14))
    for mention in mentions:
        words.insert(rng.randrange(len(words) + 1), mention)
    return " ".join(words) + rng.choice((".", "!", "…", " —", ""))


def _layout(index: int, rng: random.Random) -> list[int]:
    """Answer group per path; group 0 is the gold answer."""
    if index % 7 == 0:
        groups = [0] * 10 + [1] * 10  # full-size tie
    elif index % 11 == 0:
        groups = [0, 1, 2, 3] * 5  # four-way tie
    else:
        weights = [rng.random() for _ in range(4)]
        groups = rng.choices(range(4), weights=weights, k=K)
    rng.shuffle(groups)
    return groups


def build_run(seed: int = 5):
    """(questions, run records) of the synthetic run."""
    rng = random.Random(seed)
    questions, records = [], []
    for index in range(N_QUESTIONS):
        dataset = DATASETS[index % len(DATASETS)]
        gold, *distractors = rng.sample(NAMES, 4)
        golds = [gold]
        if index % 3 == 0:
            golds.append(_variant(gold, rng))
        if index % 29 == 0:
            golds.append("the")  # normalizes to "" under the default profile
        question = make_question(f"g{index:03d}", f"question {index}", tuple(golds), dataset=dataset)
        names = [gold, *distractors]
        all_failed = index % 23 == 5
        paths = []
        for group in _layout(index, rng):
            mentions = [_variant(names[group], rng)]
            if rng.random() < 0.2:
                mentions.append(_variant(gold, rng))
            recitations = tuple(
                _recitation(mentions, rng) for _ in range(rng.choice((1, 1, 2)))
            )
            if all_failed or rng.random() < 0.08:
                kept = recitations if rng.random() < 0.5 else ()
                paths.append(RecitationPath(kept, "", "", {"error": "Timeout: x"}))
            else:
                answer = _variant(names[group], rng)
                paths.append(RecitationPath(recitations, f"Answer: {answer}", answer, {}))
        answers = [p.extracted_answer for p in paths if not p.failed]
        prof = PROFILE.for_dataset(dataset.value)
        voted = plurality_vote(answers, prof)[0] if answers else ""
        questions.append(question)
        records.append(RunRecord(question.id, Scheme.RECITE_ANSWER, tuple(paths), voted, "f" * 16))
    return questions, records


def analyze_outputs() -> dict:
    """The report and curves of the synthetic run, scored from each
    record's view as `reciteqa analyze` builds it."""
    questions, records = build_run()
    views = scored(records, questions, PROFILE)
    report = aggregate_report(views)
    curves = {
        "trials5_seed3": path_subsample_curve(views, CURVE_COUNTS, trials=5, seed=3),
        "trials1_seed0": path_subsample_curve(views, (4,), trials=1, seed=0),
    }
    return {
        "report": report_to_dict(report),
        "curves": {
            name: [
                {
                    "path_count": point.path_count,
                    **{
                        key: repr(getattr(point, key))
                        for key in ("mean_em", "std_em", "mean_f1", "std_f1")
                    },
                }
                for point in points
            ]
            for name, points in curves.items()
        },
    }


def test_analyze_outputs_match_golden():
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(analyze_outputs()))
    assert got["report"] == want["report"]
    assert got["curves"] == want["curves"]


def test_golden_run_covers_the_edge_cases():
    questions, records = build_run()
    report = analyze_outputs()["report"]
    assert all(count > 0 for count in report["category_counts"].values())
    assert all(count > 0 for count in report["quadrant_counts"].values())
    assert report["n_failed_questions"] > 0
    assert any(p.failed for r in records for p in r.paths if not all(q.failed for q in r.paths))
    assert {q.dataset for q in questions} == set(DATASETS)


def test_the_category_oracle_gives_the_golden_counts():
    # The golden counts, derived again from the definitions alone and not
    # from the code that wrote the golden file.
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["report"]
    questions, records = build_run()
    categories, quadrants = Counter(), Counter()
    em_hits, f1_total = 0, 0.0
    for question, record in zip(questions, records):
        flags = profile_flags(PROFILE.for_dataset(question.dataset.value))
        category, path_quadrants, (em, f1) = oracle_analysis(
            list(question.gold_answers), record.paths, record.voted_answer, flags
        )
        categories[category] += 1
        quadrants.update(path_quadrants)
        em_hits += em
        f1_total += f1
    assert dict(categories) == want["category_counts"]
    assert dict(quadrants) == want["quadrant_counts"]
    assert em_hits / N_QUESTIONS == want["em"]
    assert abs(f1_total / N_QUESTIONS - want["f1"]) < 1e-12


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(analyze_outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")
