"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with `pytest tests/test_acceptance.py -v -s` to see them).

Everything runs against the scripted backend with no network. The frozen
constants come from the independent oracle scripts under tests/oracles/.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager

import pytest

from reciteqa.backend import ScriptedBackend
from reciteqa.core import RecitationPath, RunRecord, Scheme
from reciteqa.evalkit import (
    ErrorCategory,
    aggregate_report,
    path_subsample_curve,
    plurality_vote,
)
from reciteqa.pipeline import (
    SchemeConfig,
    default_answer_params,
    default_recitation_params,
    run_dataset,
)
from reciteqa.prompting import (
    UL2_DIALECT,
    PromptSpec,
    build_cot_prompt,
    build_hint_prompts,
    build_multihop_prompt,
    build_qa_prompt,
    build_recitation_prompt,
    make_hint,
    parse_hint,
)

from helpers import (
    COT_EXEMPLAR,
    DATA_DIR,
    EIFFEL_EXEMPLAR,
    HINT_EXEMPLAR,
    LONDON_EXEMPLAR,
    MULTIHOP_EXEMPLAR,
    answer_score,
    golden,
    make_question,
    scored,
    script_recite_run,
    view_of,
)

EXEMPLARS = (LONDON_EXEMPLAR, EIFFEL_EXEMPLAR)
ZERO_CLOCK = lambda: 0.0

# Frozen by tests/oracles/vote_threshold_oracle.py: the 20-path majority vote
# with per-path accuracy 0.6 and ties resolving to the correct answer
# succeeds with probability 0.8724787538527833 per question; over 500
# questions the sample mean stays above this 3-sigma bound.
VOTE_MEAN_EM_LOWER_BOUND = 0.8277275259064018


@contextmanager
def criterion(number: int, budget_s: float, description: str):
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    )
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def scheme_config(**overrides) -> SchemeConfig:
    base = dict(
        scheme=Scheme.RECITE_ANSWER,
        recitation_params=default_recitation_params(),
        answer_params=default_answer_params(),
        n_paths=20,
        shots=2,
    )
    base.update(overrides)
    return SchemeConfig(**base)


def synthetic_path(answer: str, recitation: str) -> RecitationPath:
    return RecitationPath(
        recitations=(recitation,),
        raw_answer_text=f"Answer: {answer}",
        extracted_answer=answer,
        backend_meta={},
    )


def category_fixture(n_questions: int = 200, k: int = 20, seed: int = 11):
    """Synthetic questions engineered to land in known categories."""
    rng = random.Random(seed)
    intended = {c: 0 for c in ErrorCategory}
    questions, records = [], []
    categories = list(ErrorCategory)
    for i in range(n_questions):
        category = categories[rng.randrange(len(categories))]
        intended[category] += 1
        gold = f"gold {i}"
        wrong = f"wrong {i}"
        filler = "Nothing of interest appears in this passage."
        if category is ErrorCategory.HITS_AT_MAJORITY:
            answers = [gold] * 11 + [wrong] * (k - 11)
            recitation = filler
        elif category is ErrorCategory.HITS_AT_20_PATH:
            answers = [wrong] * (k - 1) + [gold]
            recitation = filler
        elif category is ErrorCategory.HITS_AT_20_RECIT:
            answers = [wrong] * k
            recitation = f"This passage mentions {gold} in passing."
        else:
            answers = [wrong] * k
            recitation = filler
        paths = tuple(synthetic_path(a, recitation) for a in answers)
        voted, _ = plurality_vote([p.extracted_answer for p in paths])
        questions.append(make_question(f"q{i}", f"synthetic question {i}", (gold,)))
        records.append(
            RunRecord(
                question_id=f"q{i}",
                scheme=Scheme.RECITE_ANSWER,
                paths=paths,
                voted_answer=voted,
                config_fingerprint="f" * 16,
            )
        )
    return questions, records, intended


def test_criterion_1_error_category_partition():
    with criterion(1, 5.0, "error categories partition the question set"):
        questions, records, intended = category_fixture()
        report = aggregate_report(scored(records, questions))
        assert sum(report.category_counts.values()) == 200
        assert report.category_counts == intended
        assert abs(sum(report.category_fractions.values()) - 1.0) < 1e-12
        rounded = sum(
            round(100 * f, 2) for f in report.category_fractions.values()
        )
        assert 99.99 <= rounded <= 100.01

        # Hand-traced fixtures land in each of the four categories.
        golds = ["paris"]
        majority = [synthetic_path("paris", "x"), synthetic_path("paris", "x"),
                    synthetic_path("rome", "x")]
        assert view_of(golds, majority, "paris").category is ErrorCategory.HITS_AT_MAJORITY
        at_path = [synthetic_path("rome", "x"), synthetic_path("rome", "x"),
                   synthetic_path("paris", "x")]
        assert view_of(golds, at_path, "rome").category is ErrorCategory.HITS_AT_20_PATH
        at_recit = [synthetic_path("rome", "Paris is the capital of France.")]
        assert view_of(golds, at_recit, "rome").category is ErrorCategory.HITS_AT_20_RECIT
        nothing = [synthetic_path("rome", "Rome is in Italy.")]
        assert view_of(golds, nothing, "rome").category is ErrorCategory.NOT_RECIT


def test_criterion_2_quadrant_partition():
    with criterion(2, 5.0, "per-path quadrants partition all paths"):
        questions, records, _ = category_fixture()
        report = aggregate_report(scored(records, questions))
        assert sum(report.quadrant_counts.values()) == 200 * 20
        assert abs(sum(report.quadrant_fractions.values()) - 1.0) < 1e-12
        rounded = sum(round(100 * f, 2) for f in report.quadrant_fractions.values())
        assert 99.99 <= rounded <= 100.01


def test_criterion_3_em_f1_oracle():
    with criterion(3, 1.0, "EM/F1 match the brute-force oracle on 50 pairs"):
        cases = json.loads((DATA_DIR / "em_f1_cases.json").read_text(encoding="utf-8"))
        assert len(cases) == 50
        for case in cases:
            em, f1 = answer_score(case["pred"], case["golds"])
            assert em == case["em"], case
            assert abs(f1 - case["f1"]) < 1e-12, case
        assert abs(answer_score("open heart surgery", ["heart surgery"])[1] - 0.8) < 1e-12


def test_criterion_4_bm25_oracle_equivalence():
    from oracles.bm25_oracle import oracle_score, oracle_top_k
    from reciteqa.retrieval import Bm25Params, build_index, score, top_k

    with criterion(4, 10.0, "BM25 matches the direct-formula oracle on 100 docs"):
        rng = random.Random(23)
        vocabulary = [f"term{i}" for i in range(50)]
        docs = {
            f"doc{i:03d}": " ".join(
                rng.choice(vocabulary) for _ in range(rng.randint(1, 25))
            )
            for i in range(100)
        }
        queries = [
            " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 4)))
            for _ in range(5)
        ]
        for k1 in (0.9, 1.2):
            for b in (0.4, 0.75):
                index = build_index(list(docs.items()), Bm25Params(k1=k1, b=b))
                for query in queries:
                    for doc_id in docs:
                        mine = score(index, query, doc_id)
                        theirs = oracle_score(docs, query, doc_id, k1, b)
                        assert abs(mine - theirs) < 1e-9
                    mine_top = top_k(index, query, 10)
                    oracle_top = oracle_top_k(docs, query, 10, k1, b)
                    assert [d for d, _ in mine_top] == [d for d, _ in oracle_top]
                    for (_, s1), (_, s2) in zip(mine_top, oracle_top):
                        assert abs(s1 - s2) < 1e-9


def build_recite_fixture(n_questions: int, recite_gold: bool):
    """Scripted end-to-end fixture. With recite_gold every path recites the
    question's gold evidence and answers from it; otherwise 11 of 20 paths
    answer the gold and 9 answer a shared wrong string."""
    cfg = scheme_config()
    backend = ScriptedBackend()
    questions = []
    for i in range(n_questions):
        gold = f"gold answer {i}"
        evidence = f"The gold answer {i} is documented in source {i}."
        question = make_question(
            f"q{i}", f"acceptance question number {i}", (gold,), evidence=evidence
        )
        questions.append(question)
        if recite_gold:
            recitations = [evidence]
            answer_for = lambda recitation, gold=gold: f" {gold}"
        else:
            recitations = [f"Source {i} sheet {j}." for j in range(20)]

            def answer_for(recitation, gold=gold, i=i):
                j = int(recitation.rsplit(" ", 1)[-1].rstrip("."))
                return f" {gold}" if j < 11 else f" wrong answer {i}"

        script_recite_run(backend, question, EXEMPLARS, cfg, recitations, answer_for)
    return questions, cfg, backend


def test_criterion_5_end_to_end_scripted_runs():
    with criterion(5, 10.0, "scripted recite-and-answer: gold EM=100% and 11-9 votes"):
        questions, cfg, backend = build_recite_fixture(20, recite_gold=True)
        records = list(
            run_dataset(questions, cfg, EXEMPLARS, backend, clock=ZERO_CLOCK)
        )
        report = aggregate_report(scored(records, questions))
        assert report.em == 1.0
        assert all(len(r.paths) == 20 for r in records)
        for record, question in zip(records, questions):
            assert all(
                p.recitations == (question.gold_evidence,) for p in record.paths
            )

        questions, cfg, backend = build_recite_fixture(20, recite_gold=False)
        records = list(
            run_dataset(questions, cfg, EXEMPLARS, backend, clock=ZERO_CLOCK)
        )
        for record, question in zip(records, questions):
            answers = [p.extracted_answer for p in record.paths]
            assert answers.count(question.gold_answers[0]) == 11
            assert record.voted_answer == question.gold_answers[0]


def test_criterion_6_prompt_golden_files():
    with criterion(6, 1.0, "every prompt family matches its golden bytes"):
        recitation_spec = PromptSpec(
            scheme=Scheme.RECITE_ANSWER,
            exemplars=EXEMPLARS,
            target_question="what is the tenth decimal of pi",
        )
        assert build_recitation_prompt(recitation_spec) == golden("recitation_default.txt")
        qa_spec = PromptSpec(
            scheme=Scheme.RECITE_ANSWER,
            exemplars=(LONDON_EXEMPLAR,),
            target_question="what is the tenth decimal of pi",
        )
        recitations = ("The first 10 digits of pi are 3.14159 26535.",)
        assert build_qa_prompt(qa_spec, recitations) == golden("qa_default.txt")
        multihop_spec = PromptSpec(
            scheme=Scheme.MULTI_HOP_RECITE,
            exemplars=(MULTIHOP_EXEMPLAR,),
            target_question="which company owns the hotel where the 2008 mumbai attacks took place",
            recitations_per_hop=2,
        )
        multihop_prompt = build_multihop_prompt(multihop_spec)
        assert multihop_prompt == golden("multihop_default.txt")
        assert "Recitation 1:" in multihop_prompt and "Recitation 2:" in multihop_prompt
        hint_prompt, passage_template = build_hint_prompts(
            "what is the capital of france", [HINT_EXEMPLAR]
        )
        assert hint_prompt == golden("hint_prompt_default.txt")
        assert passage_template("France --- Geography --- Paragraph #1") == golden(
            "passage_prompt_default.txt"
        )
        from reciteqa.prompting import build_question_generation_prompt

        qgen_pairs = [
            (LONDON_EXEMPLAR.recitations[0], LONDON_EXEMPLAR.question),
            (EIFFEL_EXEMPLAR.recitations[0], EIFFEL_EXEMPLAR.question),
            (
                "The Great Wall of China was built between the 7th century BC and the 16th century.",
                "when was the great wall of china built",
            ),
            (
                "Mount Everest is Earth's highest mountain above sea level, located in the Himalayas.",
                "what is the highest mountain on earth",
            ),
            (
                "The Amazon River in South America is the largest river by discharge volume of water in the world.",
                "which river has the largest discharge of water",
            ),
        ]
        assert build_question_generation_prompt(
            "Child support enforcement measures include wage garnishment and the suspension of licenses.",
            qgen_pairs,
        ) == golden("question_gen_default.txt")
        cot_spec = PromptSpec(
            scheme=Scheme.CHAIN_OF_THOUGHT,
            exemplars=(COT_EXEMPLAR,),
            target_question="who opened the london bridge in 1973",
        )
        assert build_cot_prompt(cot_spec) == golden("cot_default.txt")

        ul2 = build_recitation_prompt(
            PromptSpec(
                scheme=Scheme.RECITE_ANSWER,
                exemplars=EXEMPLARS,
                target_question="what is the tenth decimal of pi",
                dialect=UL2_DIALECT,
            )
        )
        assert ul2 == golden("recitation_ul2.txt")
        assert "\n" not in ul2
        assert ul2.startswith("[NLG]") and ul2.endswith("[extra_id_0]")


def test_criterion_7_byte_identical_runs(tmp_path):
    with criterion(7, 10.0, "two identical scripted runs write identical records"):
        questions, cfg, backend = build_recite_fixture(10, recite_gold=False)
        for name in ("a", "b"):
            list(
                run_dataset(
                    questions, cfg, EXEMPLARS, backend,
                    run_dir=tmp_path / name, clock=ZERO_CLOCK,
                )
            )
        a = (tmp_path / "a" / "records.jsonl").read_bytes()
        b = (tmp_path / "b" / "records.jsonl").read_bytes()
        assert a and a == b


def vote_curve_fixture(n_questions: int = 500, k: int = 20, p: float = 0.6, seed: int = 29):
    """Independent per-path correctness at probability p; correct paths come
    before wrong ones so vote ties resolve to the correct answer (the
    arrangement the frozen threshold was derived for)."""
    rng = random.Random(seed)
    questions, records = [], []
    for i in range(n_questions):
        gold = f"gold {i}"
        wrong = f"wrong {i}"
        n_correct = sum(1 for _ in range(k) if rng.random() < p)
        answers = [gold] * n_correct + [wrong] * (k - n_correct)
        paths = tuple(synthetic_path(a, "filler passage") for a in answers)
        votable = [p_.extracted_answer for p_ in paths]
        voted, _ = plurality_vote(votable)
        questions.append(make_question(f"q{i}", f"curve question {i}", (gold,)))
        records.append(
            RunRecord(
                question_id=f"q{i}",
                scheme=Scheme.RECITE_ANSWER,
                paths=paths,
                voted_answer=voted,
                config_fingerprint="f" * 16,
            )
        )
    return questions, records


def test_criterion_8_path_subsample_curve():
    with criterion(8, 30.0, "subsample curve is nondecreasing and clears the vote bound"):
        questions, records = vote_curve_fixture()
        points = path_subsample_curve(
            scored(records, questions), [1, 5, 10, 20], trials=5, seed=0
        )
        means = [p.mean_em for p in points]
        assert all(b >= a for a, b in zip(means, means[1:])), means
        assert means[-1] >= VOTE_MEAN_EM_LOWER_BOUND, means
        assert points[-1].std_em == 0.0  # full set every trial


def test_criterion_9_hint_grammar():
    with criterion(9, 1.0, "hint grammar round-trips 1000 randomized cases"):
        child_support = (
            "Child support --- Compliance and enforcement issues --- "
            "Enforcement --- Paragraph #2"
        )
        assert make_hint(
            "Child support", ["Compliance and enforcement issues", "Enforcement"], 2
        ) == child_support
        assert parse_hint(child_support) == (
            "Child support",
            ("Compliance and enforcement issues", "Enforcement"),
            2,
        )
        rng = random.Random(31)
        alphabet = "abcdefgh XYZ 0123 .,'#&-"
        for _ in range(1000):
            title = ("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))).strip() or "t"
            path = []
            for _ in range(rng.randint(0, 4)):
                part = ("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))).strip()
                path.append(part or "s")
            index = rng.randint(1, 500)
            assert parse_hint(make_hint(title, path, index)) == (title, tuple(path), index)


@pytest.mark.skipif(
    not os.environ.get("RECITEQA_SMOKE_BASE_URL"),
    reason="live smoke requires RECITEQA_SMOKE_BASE_URL (and optionally "
    "RECITEQA_SMOKE_MODEL, RECITEQA_API_KEY)",
)
def test_criterion_10_live_smoke():
    """Env-gated: 10 questions against a real HTTP backend, report emitted,
    no accuracy assertion."""
    from reciteqa.backend import HttpBackend

    with criterion(10, 600.0, "live smoke run completes and emits a report"):
        backend = HttpBackend(
            base_url=os.environ["RECITEQA_SMOKE_BASE_URL"],
            model=os.environ.get("RECITEQA_SMOKE_MODEL", "default"),
        )
        facts = [
            ("who opened the london bridge in 1973", "Queen Elizabeth II"),
            ("what is the capital of france", "Paris"),
            ("who wrote hamlet", "William Shakespeare"),
            ("what is the largest planet in the solar system", "Jupiter"),
            ("which river flows through cairo", "Nile"),
            ("who painted the mona lisa", "Leonardo da Vinci"),
            ("what is the chemical symbol for gold", "Au"),
            ("which country hosted the 2016 summer olympics", "Brazil"),
            ("who was the first person to walk on the moon", "Neil Armstrong"),
            ("what is the tallest mountain on earth", "Mount Everest"),
        ]
        questions = [
            make_question(f"s{i}", q, (a,)) for i, (q, a) in enumerate(facts)
        ]
        cfg = scheme_config(n_paths=3)
        records = list(run_dataset(questions, cfg, EXEMPLARS, backend))
        report = aggregate_report(scored(records, questions))
        assert report.n_questions == 10
