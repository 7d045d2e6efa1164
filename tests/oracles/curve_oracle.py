"""Exact expected path-subsample curve by enumeration, independent of the
package.

For each path count k, every k-subset of a record's paths is equally
likely. Each subset votes in path order: answers are grouped by their
`em_f1_oracle` normalization, the largest group wins, and a tie goes to
the group that occurs first. Failed paths (None) do not vote, and a subset
of failed paths only scores 0. The winner's first answer is scored with
`em_f1_oracle.oracle_em` and `oracle_f1`. Enumeration costs C(K, k) votes
per record, so keep K to about 8.
"""

from __future__ import annotations

import math
from itertools import combinations

from oracles.em_f1_oracle import oracle_em, oracle_f1, oracle_normalize


def _subset_score(golds: list[str], answers: list[str | None]) -> tuple[float, float]:
    groups: list[list] = []  # [normalized, first answer, count], first occurrence first
    for answer in answers:
        if answer is None:
            continue
        key = oracle_normalize(answer)
        for group in groups:
            if group[0] == key:
                group[2] += 1
                break
        else:
            groups.append([key, answer, 1])
    if not groups:
        return 0.0, 0.0
    winner = groups[0]
    for group in groups[1:]:
        if group[2] > winner[2]:
            winner = group
    return float(oracle_em(winner[1], golds)), oracle_f1(winner[1], golds)


def oracle_curve(
    records: list[tuple[list[str], list[str | None]]], path_counts: list[int]
) -> dict[int, tuple[float, float, float, float]]:
    """For each path count: the expected EM and F1 of one trial's mean over
    the records, and the standard deviation of each. A record is (golds,
    each path's extracted answer or None when the path failed)."""
    curve = {}
    for k in path_counts:
        em_mean = f1_mean = em_var = f1_var = 0.0
        for golds, answers in records:
            scores = [
                _subset_score(golds, [answers[i] for i in subset])
                for subset in combinations(range(len(answers)), k)
            ]
            n = len(scores)
            em = math.fsum(s[0] for s in scores) / n
            f1 = math.fsum(s[1] for s in scores) / n
            em_mean += em
            f1_mean += f1
            # Records draw independently, so their variances add.
            em_var += math.fsum((s[0] - em) ** 2 for s in scores) / n
            f1_var += math.fsum((s[1] - f1) ** 2 for s in scores) / n
        n_records = len(records)
        curve[k] = (
            em_mean / n_records,
            f1_mean / n_records,
            math.sqrt(em_var) / n_records,
            math.sqrt(f1_var) / n_records,
        )
    return curve
