"""Reference error analysis of one question, written from the category
and quadrant definitions and independent of the package.

Every text is normalized in full with `normalize_oracle.oracle_normalize`
under the given flags; nothing is pre-filtered or proved from a coarser
form. A path is anything with `recitations`, `extracted_answer` and
`failed`, such as a run record's path.
- A path's answer is a hit when the path did not fail and its normalized
  answer equals a normalized gold alias.
- A path's recitation is a hit when a non-empty normalized gold alias is a
  substring of one of its normalized recitations.
- The voted answer scores EM and token F1 against the golds; both are 0
  when every path failed.
- The question is hits_at_majority when the voted EM holds, else
  hits_at_20_path when some answer is a hit, else hits_at_20_recit when
  some recitation is a hit, else not_recit.
"""

from __future__ import annotations

from oracles.normalize_oracle import oracle_normalize


def _token_f1(pred: str, gold: str) -> float:
    pred_tokens, gold_tokens = pred.split(), gold.split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    unmatched = list(gold_tokens)
    shared = 0
    for token in pred_tokens:
        if token in unmatched:
            unmatched.remove(token)
            shared += 1
    if shared == 0:
        return 0.0
    precision = shared / len(pred_tokens)
    recall = shared / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def oracle_analysis(
    golds: list[str],
    paths: list,
    voted: str,
    flags: dict[str, bool],
) -> tuple[str, list[str], tuple[bool, float]]:
    """(category, each path's quadrant, (EM, F1) of the voted answer), the
    category and quadrants named by their ErrorCategory and PathQuadrant
    values."""
    norm_golds = [oracle_normalize(g, **flags) for g in golds]
    quadrants = []
    any_answer_hit = any_recit_hit = False
    for path in paths:
        answer_hit = (
            not path.failed and oracle_normalize(path.extracted_answer, **flags) in norm_golds
        )
        recit_hit = False
        for recitation in path.recitations:
            text = oracle_normalize(recitation, **flags)
            for gold in norm_golds:
                if gold != "" and gold in text:
                    recit_hit = True
        quadrants.append(
            f"recit_{'hit' if recit_hit else 'miss'}_answer_{'hit' if answer_hit else 'miss'}"
        )
        any_answer_hit = any_answer_hit or answer_hit
        any_recit_hit = any_recit_hit or recit_hit
    if all(path.failed for path in paths):
        score = (False, 0.0)
    else:
        norm_voted = oracle_normalize(voted, **flags)
        score = (norm_voted in norm_golds, max(_token_f1(norm_voted, g) for g in norm_golds))
    if score[0]:
        category = "hits_at_majority"
    elif any_answer_hit:
        category = "hits_at_20_path"
    elif any_recit_hit:
        category = "hits_at_20_recit"
    else:
        category = "not_recit"
    return category, quadrants, score
