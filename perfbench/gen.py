"""Seeded input generator for the reciteqa benchmark (stdlib only).

Every input a workload needs is written by `generate(workload, seed, out)`:
questions in the `nq` adapter format, a prompt-set directory, the completion
table the in-process backend and the HTTP stub answer from, the malformed
request set, the `analyze_1k` run directory, and `expected.json` with the
vote and failed paths each question must produce (and, for `analyze_1k`,
the report `reciteqa analyze` must write).

The seed draws the texts and, for `recite_http`, which requests are
malformed. The structure (path layouts, duplicate positions, categories and
failure counts) is fixed per workload, so the exact counts the traced run
reports repeat for every seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

K = 20
SHOTS = 5
EXEMPLAR_POOL = 8
QUESTIONS_IN_FLIGHT = 1
PATHS_IN_FLIGHT = 2
MODEL = "perfbench-model"

# Per-workload defining properties; `why` is the one-line reason it exists.
WORKLOADS = {
    "recite_inproc": {
        "questions": 100,
        "duplicate_share": 0.5,
        "latency_ms": 0,
        "malformed": {"recite": 0, "answer": 0},
        "why": "No waiting, so pool construction, prompt assembly, vote, serialize and "
        "the records append are the whole blocking path; exercises answer-prompt dedup.",
    },
    "recite_http": {
        "questions": 10,
        "duplicate_share": 0.0,
        "latency_ms": 5,
        "malformed": {"recite": 2, "answer": 2},
        "why": "Transport and waiting dominate: connections per call, client CPU, cache "
        "appends, in-flight scheduling and failed-path isolation; bypasses dedup.",
    },
    "recite_replay": {
        "inputs_of": "recite_http",
        "questions": 10,
        "duplicate_share": 0.0,
        "latency_ms": 0,
        "malformed": {"recite": 0, "answer": 0},
        "why": "Same inputs as recite_http from a fully warm cache with no server, so "
        "the cache load and read path are the whole backend cost.",
    },
    "analyze_1k": {
        "questions": 1000,
        "duplicate_share": 0.0,
        "latency_ms": 0,
        "malformed": {"recite": 0, "answer": 0},
        "failed_paths": 100,
        "why": "No backend at all: deserialization, normalize, aggregate_report and "
        "path_subsample_curve are the whole cost; bypasses every pipeline change.",
    },
}

# Path layouts over K paths, as (group, count); group 0 is the gold answer.
# A: the gold answer wins; B: a distractor wins while some paths are right;
# C: no path is right but a recitation names the gold answer; D: neither.
TEMPLATES = {
    "A": ((0, 12), (1, 4), (2, 2), (3, 2)),
    "B": ((1, 10), (0, 6), (2, 2), (3, 2)),
    "C": ((1, 12), (2, 8)),
    "D": ((1, 12), (2, 8)),
}
RECITE_CYCLE = "AAAAB"
ANALYZE_CYCLE = "AAAAAABBCD"
# In template C, paths of group 2 whose recitation still names the gold answer.
C_GOLD_MENTIONS = 3

CATEGORY = {
    "A": "hits_at_majority",
    "B": "hits_at_20_path",
    "C": "hits_at_20_recit",
    "D": "not_recit",
}

_CONSONANTS = "bcdfghjklmnprstvw"
_VOWELS = "aeiou"
# Entity words start with one of these capitals, which filler words never
# contain, and all have the same length, so after normalization a name can
# only occur as a substring where it was written.
_ENTITY_INITIALS = "ZQX"


class _Words:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()
        self.vocabulary = [
            "".join(
                rng.choice(_CONSONANTS if i % 2 == 0 else _VOWELS)
                for i in range(rng.randint(3, 8))
            )
            for _ in range(3000)
        ]

    def entity_word(self) -> str:
        while True:
            rng = self.rng
            word = (
                rng.choice(_ENTITY_INITIALS)
                + rng.choice(_VOWELS)
                + rng.choice(_CONSONANTS)
                + rng.choice(_VOWELS)
                + rng.choice(_CONSONANTS)
                + rng.choice(_VOWELS)
            )
            if word not in self.used:
                self.used.add(word)
                return word

    def name(self) -> str:
        return f"{self.entity_word()} {self.entity_word()}"

    def filler(self) -> str:
        return self.rng.choice(self.vocabulary)

    def passage(self, mentions: list[str], chars: int) -> str:
        """One line of sentences of about `chars` characters naming each
        entity in `mentions` once."""
        rng = self.rng
        words = rng.choices(self.vocabulary, k=max(2, chars // 7))
        for mention in mentions:
            words.insert(rng.randrange(1, len(words)), mention)
        for i in rng.sample(range(len(words) - 1), len(words) // 12):
            words[i] += rng.choice(".,;")
        sentence = " ".join(words)
        return sentence[0].upper() + sentence[1:] + "."


def _variants(name: str) -> list[str]:
    # Raw forms that normalize to the same answer.
    return [name, name.lower(), f"the {name}", f"{name}."]


def _layout(template: str) -> list[int]:
    groups = [g for g, count in TEMPLATES[template] for _ in range(count)]
    random.Random(f"layout:{template}").shuffle(groups)
    return groups


def _question(index: int, template: str, words: _Words, duplicate_share: float, chars: int):
    """One question with its K paths: recitation text, raw answer and group."""
    gold = words.name()
    distractors = [words.name() for _ in range(3)]
    names = [gold] + distractors
    clue = words.entity_word()
    question = f"which name is recorded for the {words.filler()} {words.filler()} of {clue}"
    groups = _layout(template)
    seen_in_group: dict[int, list[int]] = {}
    paths = []
    gold_mentions = 0
    for i, group in enumerate(groups):
        earlier = seen_in_group.setdefault(group, [])
        # Every second path of a group repeats that group's previous distinct
        # recitation, so duplicate_share 0.5 makes exactly K/2 repeats.
        if duplicate_share and len(earlier) % 2 == 1:
            source = paths[earlier[-1]]
            paths.append(dict(source, duplicate_of=earlier[-1]))
            earlier.append(i)
            continue
        mentions = [names[group]]
        if template == "C" and group == 2 and gold_mentions < C_GOLD_MENTIONS:
            mentions.append(gold)
            gold_mentions += 1
        variants = _variants(names[group])
        distinct = sum(1 for j in earlier if "duplicate_of" not in paths[j])
        paths.append(
            {
                "recitation": words.passage(mentions, chars),
                "answer": variants[distinct % len(variants)],
                "group": group,
                "gold_in_recitation": gold in mentions,
            }
        )
        earlier.append(i)
    return {
        "id": f"q{index:05d}",
        "question": question,
        "golds": [gold, f"the {gold}"],
        "template": template,
        "paths": paths,
    }


def _expected_vote(paths: list[dict], failed: set[int]) -> str:
    counts: dict[int, int] = {}
    first: dict[int, str] = {}
    for i, path in enumerate(paths):
        if i in failed:
            continue
        group = path["group"]
        counts[group] = counts.get(group, 0) + 1
        first.setdefault(group, path["answer"])
    top = max(counts.values())
    winners = [g for g, c in counts.items() if c == top]
    if len(winners) != 1:
        raise AssertionError("layout produced a tied vote")
    return first[winners[0]]


def _expected_report(questions: list[dict], failures: dict[str, dict[int, str]]) -> dict:
    """EM, category and per-path quadrant counts that `reciteqa analyze` must
    report for these questions, derived from how they were built."""
    categories = {c: 0 for c in CATEGORY.values()}
    quadrants = {
        "recit_hit_answer_hit": 0,
        "recit_hit_answer_miss": 0,
        "recit_miss_answer_hit": 0,
        "recit_miss_answer_miss": 0,
    }
    em_hits = 0
    for q in questions:
        category = CATEGORY[q["template"]]
        categories[category] += 1
        em_hits += category == "hits_at_majority"
        failed = failures.get(q["id"], {})
        for i, path in enumerate(q["paths"]):
            stage = failed.get(i)
            recit = "hit" if path["gold_in_recitation"] and stage != "recite" else "miss"
            answer = "hit" if path["group"] == 0 and stage is None else "miss"
            quadrants[f"recit_{recit}_answer_{answer}"] += 1
    return {
        "n_questions": len(questions),
        "em_hits": em_hits,
        "category_counts": categories,
        "quadrant_counts": quadrants,
        "n_failed_questions": 0,
    }


def _prompt_set(words: _Words, out: Path) -> None:
    exemplars = []
    for _ in range(EXEMPLAR_POOL):
        name = words.name()
        clue = words.entity_word()
        exemplars.append(
            {
                "question": f"which name is recorded for the {words.filler()} of {clue}",
                "recitations": [words.passage([name, clue], 850)],
                "answer": name,
            }
        )
    (out / "prompts").mkdir(parents=True, exist_ok=True)
    (out / "prompts" / "manifest.json").write_text(
        json.dumps({"exemplars": exemplars}, indent=1) + "\n", encoding="utf-8"
    )


def _pick_failures(questions: list[dict], spec: dict, rng: random.Random) -> dict[str, dict[int, str]]:
    """At most one injected failure per question, so every vote keeps its
    winner; returns {question id: {path index: stage}}."""
    stages = ["recite"] * spec["recite"] + ["answer"] * spec["answer"]
    chosen = rng.sample(range(len(questions)), len(stages))
    return {
        questions[qi]["id"]: {rng.randrange(K): stage} for qi, stage in zip(chosen, stages)
    }


def _run_record(q: dict, failed: dict[int, str], fingerprint: str) -> dict:
    paths = []
    for i, path in enumerate(q["paths"]):
        stage = failed.get(i)
        if stage is None:
            paths.append(
                {
                    "backend_meta": {"latency_ms": "5", "model": MODEL},
                    "extracted_answer": path["answer"],
                    "raw_answer_text": "Answer: " + path["answer"],
                    "recitations": [path["recitation"]],
                }
            )
        else:
            paths.append(
                {
                    "backend_meta": {"error": "MalformedResponse: response carries 0 choices, expected 1"},
                    "extracted_answer": "",
                    "raw_answer_text": "",
                    "recitations": [] if stage == "recite" else [path["recitation"]],
                }
            )
    return {
        "config_fingerprint": fingerprint,
        "kind": "run",
        "paths": paths,
        "question_id": q["id"],
        "scheme": "recite_answer",
        "voted_answer": _expected_vote(q["paths"], set(failed)),
        "wall_clock_ms": 400,
    }


def _analyze_failures(questions: list[dict], count: int) -> dict[str, dict[int, str]]:
    # Fixed positions: question 10j+3 loses one path, alternating stages.
    failures = {}
    for j in range(count):
        qi = (10 * j + 3) % len(questions)
        failures[questions[qi]["id"]] = {(7 * j) % K: "recite" if j % 2 == 0 else "answer"}
    return failures


def generate(workload: str, seed: int, out: str | Path) -> dict:
    """Write every input of `workload` for `seed` under `out`; returns the
    workload description that is also written to `workload.json`."""
    spec = WORKLOADS[workload]
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{spec.get('inputs_of', workload)}:{seed}")
    words = _Words(rng)
    _prompt_set(words, out)

    n = spec["questions"]
    analyze = workload == "analyze_1k"
    cycle = ANALYZE_CYCLE if analyze else RECITE_CYCLE
    chars = 300 if analyze else 500
    questions = [
        _question(i, cycle[i % len(cycle)], words, spec["duplicate_share"], chars)
        for i in range(n)
    ]
    with (out / "questions.jsonl").open("w", encoding="utf-8") as handle:
        for q in questions:
            handle.write(
                json.dumps({"id": q["id"], "question": q["question"], "answer": q["golds"]}) + "\n"
            )

    if analyze:
        failures = _analyze_failures(questions, spec["failed_paths"])
        run_dir = out / "run"
        run_dir.mkdir(exist_ok=True)
        fingerprint = f"{rng.getrandbits(64):016x}"
        (run_dir / "run.json").write_text(
            json.dumps(
                {
                    "dataset": {"path": str((out / "questions.jsonl").resolve()), "adapter": "nq"},
                    "scheme": "recite_answer",
                    "n_paths": K,
                    "shots": SHOTS,
                    "normalization": None,
                    "config_fingerprint": fingerprint,
                },
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        with (run_dir / "records.jsonl").open("w", encoding="utf-8") as handle:
            for q in questions:
                record = _run_record(q, failures.get(q["id"], {}), fingerprint)
                handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        failures = _pick_failures(questions, spec["malformed"], rng)
        table = {
            "recitations": {q["question"]: [p["recitation"] for p in q["paths"]] for q in questions},
            "answers": {
                p["recitation"]: [q["question"], i, p["answer"]]
                for q in questions
                for i, p in enumerate(q["paths"])
                if "duplicate_of" not in p
            },
        }
        if len(table["answers"]) != sum(
            1 for q in questions for p in q["paths"] if "duplicate_of" not in p
        ):
            raise ValueError(f"seed {seed} drew the same recitation twice")
        (out / "table.json").write_text(json.dumps(table), encoding="utf-8")
        malformed = [
            [stage, q["question"], i]
            for q in questions
            for i, stage in failures.get(q["id"], {}).items()
        ]
        (out / "malformed.json").write_text(json.dumps(malformed), encoding="utf-8")

    distinct = [sum(1 for p in q["paths"] if "duplicate_of" not in p) for q in questions]
    recite_failures = sum(1 for f in failures.values() for s in f.values() if s == "recite")
    expected = {
        "questions": {
            q["id"]: {
                "vote": _expected_vote(q["paths"], set(failures.get(q["id"], {}))),
                "failed_paths": sorted(failures.get(q["id"], {})),
            }
            for q in questions
        },
        # Generation calls per pass today: K recitations and K answers per
        # question, minus the answers of failed recitations.
        "generate_calls": 2 * K * n - recite_failures,
        # The fewest calls that still produce every path: one recitation
        # request per question and one answer per distinct recitation.
        "generate_calls_floor": n + sum(distinct),
        "failed_paths": sum(len(f) for f in failures.values()),
    }
    if analyze:
        expected["report"] = _expected_report(questions, failures)
    (out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")

    description = {
        "workload": workload,
        "seed": seed,
        "questions": n,
        "k": K,
        "shots": SHOTS,
        "duplicate_share": 1 - sum(distinct) / (K * n),
        "latency_ms": spec["latency_ms"],
        "questions_in_flight": QUESTIONS_IN_FLIGHT,
        "paths_in_flight": PATHS_IN_FLIGHT,
        "malformed_requests": sum(spec["malformed"].values()),
        "malformed_share": sum(spec["malformed"].values()) / expected["generate_calls"],
        "failed_paths_per_pass": expected["failed_paths"],
        "why": spec["why"],
    }
    (out / "workload.json").write_text(json.dumps(description, indent=1) + "\n", encoding="utf-8")
    return description
