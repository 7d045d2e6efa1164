from __future__ import annotations

import json
import math
import random
import re

import pytest

from reciteqa.retrieval import (
    K1_MAX,
    Bm25Params,
    RetrievalError,
    build_index,
    load_index,
    save_index,
    score,
    tokenize,
    top_k,
)

from oracles.bm25_oracle import oracle_score, oracle_tokenize, oracle_top_k

# Frozen from the hand-evaluated oracle run (single-term query "a" against
# {d1: "a a b", d2: "b b"} with k1=0.9, b=0.4).
SINGLE_TERM_EXPECTED = 0.8862581716446137


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_basic():
    assert tokenize("London Bridge, 1973!") == ["london", "bridge", "1973"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_unicode_preserved():
    assert tokenize("Café au lait") == ["café", "au", "lait"]


def test_tokenize_underscore_splits():
    assert tokenize("a_b") == ["a", "b"]


def test_tokenize_matches_oracle_tokenizer():
    rng = random.Random(0)
    alphabet = "abc ABC 123 .,;:!?_-éü\n\t"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        assert tokenize(text) == oracle_tokenize(text)


# ---------------------------------------------------------------------------
# index construction


def test_build_index_stats():
    index = build_index([("d1", "a b c"), ("d2", "a b"), ("d3", "a")])
    assert index.doc_count == 3
    assert index.avg_doc_len == pytest.approx(2.0)
    assert index.postings["a"] == (("d1", 1), ("d2", 1), ("d3", 1))


def test_build_index_empty_doc_counts_zero_length():
    index = build_index([("d1", ""), ("d2", "a")])
    assert index.doc_lengths["d1"] == 0


def test_build_index_rejects_duplicate_ids():
    with pytest.raises(RetrievalError):
        build_index([("d1", "a"), ("d1", "b")])


def test_build_index_deterministic_and_order_invariant():
    docs = [("d1", "a a b"), ("d2", "b c"), ("d3", "c d")]
    index_a = build_index(docs)
    index_b = build_index(list(reversed(docs)))
    assert index_a.postings == index_b.postings
    assert index_a.doc_lengths == index_b.doc_lengths
    for doc_id, _ in docs:
        assert score(index_a, "a b c", doc_id) == score(index_b, "a b c", doc_id)


# ---------------------------------------------------------------------------
# scoring


def test_score_absent_term_is_zero():
    index = build_index([("d1", "alpha beta"), ("d2", "gamma")])
    assert score(index, "delta", "d1") == 0.0
    assert score(index, "gamma", "d1") == 0.0


def test_score_single_term_frozen_constant():
    index = build_index([("d1", "a a b"), ("d2", "b b")], Bm25Params(k1=0.9, b=0.4))
    assert score(index, "a", "d1") == pytest.approx(SINGLE_TERM_EXPECTED, abs=1e-12)


def test_score_monotone_in_tf():
    # Fixed length and df: more occurrences of the query term score higher.
    docs = [("d1", "a x x x"), ("d2", "a a x x"), ("d3", "a a a x")]
    index = build_index(docs)
    scores = [score(index, "a", d) for d in ("d1", "d2", "d3")]
    assert scores[0] < scores[1] < scores[2]


def test_score_unknown_doc():
    index = build_index([("d1", "a")])
    with pytest.raises(RetrievalError):
        score(index, "a", "nope")


def test_duplicate_query_terms_add():
    index = build_index([("d1", "a b")])
    assert score(index, "a a", "d1") == pytest.approx(2 * score(index, "a", "d1"))


# ---------------------------------------------------------------------------
# top-k


def test_top_k_top1_configuration():
    index = build_index([("d1", "paris is in france"), ("d2", "rome is in italy")])
    assert top_k(index, "france paris", 1)[0][0] == "d1"


def test_top_k_all_zero_scores_empty():
    index = build_index([("d1", "alpha"), ("d2", "beta")])
    assert top_k(index, "gamma", 5) == []


def test_top_k_tie_breaks_by_doc_id():
    index = build_index([("db", "common"), ("da", "common")])
    ranked = top_k(index, "common", 2)
    assert [doc for doc, _ in ranked] == ["da", "db"]
    assert ranked[0][1] == pytest.approx(ranked[1][1])


def test_top_k_requires_positive_k():
    index = build_index([("d1", "a")])
    with pytest.raises(RetrievalError):
        top_k(index, "a", 0)


# ---------------------------------------------------------------------------
# oracle equivalence on a random corpus


def random_corpus(n_docs: int, seed: int) -> dict[str, str]:
    rng = random.Random(seed)
    vocabulary = [f"w{i}" for i in range(60)]
    return {
        f"doc{i:03d}": " ".join(
            rng.choice(vocabulary) for _ in range(rng.randint(0, 30))
        )
        for i in range(n_docs)
    }


@pytest.mark.parametrize("k1", [0.9, 1.2])
@pytest.mark.parametrize("b", [0.4, 0.75])
def test_oracle_equivalence_100_docs(k1, b):
    docs = random_corpus(100, seed=17)
    index = build_index(list(docs.items()), Bm25Params(k1=k1, b=b))
    rng = random.Random(99)
    queries = [
        " ".join(rng.choice([f"w{i}" for i in range(70)]) for _ in range(rng.randint(1, 5)))
        for _ in range(10)
    ]
    for query in queries:
        for doc_id in docs:
            assert score(index, query, doc_id) == pytest.approx(
                oracle_score(docs, query, doc_id, k1, b), abs=1e-9
            )
        assert [
            (doc, pytest.approx(s, abs=1e-9)) for doc, s in oracle_top_k(docs, query, 10, k1, b)
        ] == top_k(index, query, 10)


# ---------------------------------------------------------------------------
# persistence


def test_index_save_load_round_trip(tmp_path):
    index = build_index([("d1", "a a b"), ("d2", "b b c")], Bm25Params(k1=1.2, b=0.75))
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded == index
    assert score(loaded, "a b", "d1") == score(index, "a b", "d1")


def test_index_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "index.jsonl"
    path.write_text('{"format":"other","version":9}\n', encoding="utf-8")
    with pytest.raises(RetrievalError):
        load_index(path)


@pytest.mark.parametrize(
    "line, field",
    [(0, "k1"), (1, "len")],
    ids=["header-k1", "doc-row-len"],
)
def test_index_load_refuses_true_for_a_number(tmp_path, line, field):
    # Python counts true as 1; a saved index never holds it.
    path = tmp_path / "index.jsonl"
    save_index(build_index([("d1", "a a b"), ("d2", "b b c")]), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[line] = json.dumps({**json.loads(lines[line]), field: True})
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(RetrievalError, match=rf"^{re.escape(str(path))}.*: {field} must be "):
        load_index(path)


@pytest.mark.parametrize(
    "k1, b",
    [(-1.0, 0.0), (float("nan"), 0.4), (float("inf"), 0.4), (0.9, -0.1), (0.9, 1.5),
     (0.9, float("nan")), (1e308, 1.0), (K1_MAX * 1.000001, 0.4)],
    ids=["negative-k1", "nan-k1", "infinite-k1", "negative-b", "b-over-1", "nan-b",
         "overflowing-k1", "k1-over-cap"],
)
def test_bm25_params_refuse_a_k1_or_b_whose_weights_break(k1, b):
    # k1 = -1 with b = 0 makes a term weight's denominator 0 at tf = 1, and
    # a NaN scores every document NaN, which top_k never returns. With
    # k1 = 1e308 and b = 1 a long document's weight is inf / inf, NaN.
    with pytest.raises(RetrievalError):
        Bm25Params(k1=k1, b=b)


@pytest.mark.parametrize("b", [0.0, 0.4, 1.0])
def test_bm25_scores_stay_finite_up_to_the_k1_cap(b):
    docs = [("d1", "a b c d e f"), ("d2", "a"), ("d3", "a a")]
    index = build_index(docs, Bm25Params(k1=K1_MAX, b=b))
    scores = [score(index, "a", doc_id) for doc_id, _ in docs]
    assert all(math.isfinite(s) and s > 0 for s in scores)
    assert {doc for doc, _ in top_k(index, "a", 3)} == {"d1", "d2", "d3"}


@pytest.mark.parametrize("bad", ['"k1": -1', '"k1": NaN', '"b": 2', '"k1": 1e308'])
def test_load_index_refuses_a_header_with_bad_params(tmp_path, bad):
    path = tmp_path / "idx.jsonl"
    save_index(build_index([("d1", "a a b"), ("d2", "b b")]), path)
    name = bad.split(":")[0]
    text = re.sub(f"{name}: [^,}}]+", bad, path.read_text(encoding="utf-8"), count=1)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RetrievalError, match=f"{re.escape(str(path))}: header: "):
        load_index(path)
