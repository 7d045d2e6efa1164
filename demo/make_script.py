#!/usr/bin/env python3
"""Regenerate demo/script.json: the scripted-backend responses for every
prompt the demo config can produce (recite-and-answer runs for exemplar
seeds 0-3 plus question generation over the demo corpus)."""

from __future__ import annotations

import json
from pathlib import Path

from reciteqa.backend import ScriptedBackend
from reciteqa.core import QuestionRecord, Scheme
from reciteqa.datasets import load_questions
from reciteqa.hintcorpus import build_corpus, read_dump
from reciteqa.pipeline import SchemeConfig, default_answer_params, default_recitation_params
from reciteqa.prompting import (
    PromptSpec,
    build_qa_prompt,
    build_question_generation_prompt,
    build_recitation_prompt,
    load_prompt_set,
    sample_exemplars,
)

HERE = Path(__file__).parent

N_PATHS = 4
SHOTS = 2
SEEDS = range(4)

# Per-question scripted behavior: how many of the N_PATHS paths answer
# correctly. w3 is deliberately lost at the vote (1 of 4).
CORRECT_PATHS = {"w1": 4, "w2": 3, "w3": 1}
WRONG = {"w1": "Munich", "w2": "the Danube", "w3": "Michelangelo"}


def facts_for(question: QuestionRecord) -> list[str]:
    gold = question.gold_answers[0]
    return [f"Reference {j}: {gold} relates to this question." for j in range(N_PATHS)]


def main() -> None:
    questions = load_questions(HERE / "questions.jsonl", "nq")
    prompt_set = load_prompt_set(HERE / "prompts")
    cfg = SchemeConfig(
        scheme=Scheme.RECITE_ANSWER,
        recitation_params=default_recitation_params(),
        answer_params=default_answer_params(),
        n_paths=N_PATHS,
        shots=SHOTS,
    )
    backend = ScriptedBackend()
    orders = {tuple(sample_exemplars(prompt_set.exemplars, SHOTS, seed)) for seed in SEEDS}
    for exemplars in orders:
        for question in questions:
            recitations = facts_for(question)
            recitation_prompt = build_recitation_prompt(
                PromptSpec(
                    scheme=Scheme.RECITE_ANSWER,
                    exemplars=exemplars,
                    target_question=question.question,
                )
            )
            backend.register(recitation_prompt, recitations)
            for j, recitation in enumerate(recitations):
                qa_prompt = build_qa_prompt(
                    PromptSpec(
                        scheme=Scheme.RECITE_ANSWER,
                        exemplars=exemplars,
                        target_question=question.question,
                    ),
                    (recitation,),
                )
                gold = question.gold_answers[0]
                answer = gold if j < CORRECT_PATHS[question.id] else WRONG[question.id]
                backend.register(qa_prompt, [f" {answer}"])

    corpus = build_corpus(read_dump(HERE / "dump.jsonl"))
    for passage in corpus:
        prompt = build_question_generation_prompt(passage.text, prompt_set.question_gen)
        backend.register(prompt, [f" what does the page {passage.page_title} describe?"])

    payload = {"entries": {k: list(q) for k, q in sorted(backend._entries.items())}}
    (HERE / "script.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(payload['entries'])} entries to demo/script.json")


if __name__ == "__main__":
    main()
