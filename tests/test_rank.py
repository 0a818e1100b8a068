"""Scoring and reciprocal rank fusion."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrep.annotate import RuleAnnotator
from memgrep.corpus import load_questions, read_corpus
from memgrep.errors import EmptyTermSetError, UnknownScorerError
from memgrep.parse import WeightedTerm, WeightedTermSet, parse_query
from memgrep.rank import (
    DEFAULT_CROSS_WEIGHT,
    DEFAULT_LATE_WEIGHT,
    DEFAULT_RRF_K,
    FusionConfig,
    LexicalDenseScorer,
    RankedList,
    ScoreVector,
    ScorerHandle,
    rank,
    rrf_fuse,
    score,
)
from memgrep.service import ReferenceServer, ServiceClient


def term_set(*pairs):
    return WeightedTermSet.from_terms(
        [WeightedTerm(s, w, "query") for s, w in pairs], query_text="q",
    )


def test_lexical_score_matches_minus_length_penalty():
    # "hiking" and "trails" parse as nouns, weight 2.0 each; 4 words.
    scores = LexicalDenseScorer().score("hiking trails",
                                        ["hiking trails gamma delta"])
    assert scores == [pytest.approx(4.0 - 0.004)]


def test_lexical_score_counts_each_term_once():
    scores = LexicalDenseScorer().score("hiking", ["Hiking hiking HIKING"])
    assert scores == [pytest.approx(2.0 - 0.003)]


def brute_force_lexical(query, text):
    """Distinct parsed-term weights whose lowercased surface occurs in the
    lowercased text, minus 0.001 per whitespace-separated word."""
    try:
        terms = parse_query(query, RuleAnnotator()).terms
    except EmptyTermSetError:
        terms = ()
    weights = {}
    for term in terms:
        weights.setdefault(term.surface.lower(), term.weight)
    matched = sum(w for surface, w in weights.items() if surface in text.lower())
    return matched - 0.001 * len(text.split())


QUERY_WORDS = ["Melanie", "melanie", "Javier", "hiking", "Hiking", "trails",
               "went", "the", "of", "Mount", "Rainier", "baked", "İstanbul",
               "Straße", "Dr.", "Harvest", "Festival"]
TEXT_WORDS = st.sampled_from(QUERY_WORDS + ["MELANIE", "istanbul", "STRASSE"]) \
    | st.text(alphabet="abİıßΣσς\t\n ", min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    query=st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=5)
    .map(" ".join),
    texts=st.lists(st.lists(TEXT_WORDS, max_size=8).map(" ".join), max_size=5),
)
def test_lexical_scorer_matches_brute_force(query, texts):
    assert LexicalDenseScorer().score(query, texts) == [
        brute_force_lexical(query, text) for text in texts
    ]


def test_default_constants():
    assert DEFAULT_RRF_K == 60.0
    assert DEFAULT_CROSS_WEIGHT == 0.7
    assert DEFAULT_LATE_WEIGHT == 0.3


def test_rrf_spot_value_both_rank_one():
    cfg = FusionConfig(k=60.0, weights={"cross": 0.7, "late": 0.3})
    fused = rrf_fuse(
        [("cross", ["p1"]), ("late", ["p1"])], cfg, query_id="q",
    )
    # 0.7/61 + 0.3/61 = 1/61.
    assert fused.entries[0].fused_score == pytest.approx(1 / 61, abs=1e-15)


def test_rrf_spot_value_single_ranking():
    cfg = FusionConfig(k=60.0, weights={"cross": 0.7, "late": 0.3})
    fused = rrf_fuse([("cross", ["p1"])], cfg, query_id="q")
    assert fused.entries[0].fused_score == pytest.approx(0.7 / 61, abs=1e-15)


def test_rrf_rank_positions():
    # cross ranks: A=1, B=2; late ranks: A=3 (others ahead), B=2.
    cfg = FusionConfig(k=60.0, weights={"cross": 0.7, "late": 0.3})
    fused = rrf_fuse(
        [("cross", ["A", "B", "C"]), ("late", ["C", "B", "A"])], cfg, query_id="q",
    )
    by_id = {e.passage_id: e for e in fused.entries}
    assert by_id["A"].fused_score == pytest.approx(0.7 / 61 + 0.3 / 63)
    assert by_id["B"].fused_score == pytest.approx(0.7 / 62 + 0.3 / 62)
    assert by_id["A"].ranks == {"cross": 1, "late": 3}


def test_rrf_absent_item_contributes_zero():
    cfg = FusionConfig(k=60.0, weights={"cross": 0.7, "late": 0.3})
    fused = rrf_fuse([("cross", ["A"]), ("late", ["B"])], cfg, query_id="q")
    by_id = {e.passage_id: e for e in fused.entries}
    assert by_id["A"].fused_score == pytest.approx(0.7 / 61)
    assert by_id["B"].fused_score == pytest.approx(0.3 / 61)
    assert by_id["A"].ranks == {"cross": 1}


def test_rrf_tie_breaks_by_passage_id():
    cfg = FusionConfig(k=60.0, weights={"a": 1.0})
    fused = rrf_fuse([("a", ["z", "y"])], cfg, query_id="q")
    assert [e.passage_id for e in fused.entries] == ["z", "y"]
    # Symmetric scores tie; id ascending decides.
    cfg2 = FusionConfig(k=60.0, weights={"a": 0.5, "b": 0.5})
    fused2 = rrf_fuse([("a", ["z", "y"]), ("b", ["y", "z"])], cfg2, query_id="q")
    assert [e.passage_id for e in fused2.entries] == ["y", "z"]


def test_rrf_missing_weight_is_an_error():
    cfg = FusionConfig(k=60.0, weights={"cross": 1.0})
    with pytest.raises(UnknownScorerError):
        rrf_fuse([("mystery", ["A"])], cfg, query_id="q")


def test_rrf_duplicate_in_ranking_rejected():
    cfg = FusionConfig(k=60.0, weights={"a": 1.0})
    with pytest.raises(ValueError):
        rrf_fuse([("a", ["A", "A"])], cfg, query_id="q")


def test_rrf_brute_force_equivalence_seeded():
    # Independent formula: for every doc, sum w/(k + rank) over rankings
    # that list it; sort by (-score, id).
    rng = random.Random(20260819)
    for _ in range(200):
        n = rng.randint(1, 20)
        ids = [f"p{i}" for i in range(n)]
        r1 = rng.sample(ids, rng.randint(1, n))
        r2 = rng.sample(ids, rng.randint(1, n))
        k = rng.uniform(1, 100)
        w1, w2 = rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0)
        cfg = FusionConfig(k=k, weights={"one": w1, "two": w2})
        fused = rrf_fuse([("one", r1), ("two", r2)], cfg, query_id="q")

        expected = {}
        for doc in set(r1) | set(r2):
            s = 0.0
            if doc in r1:
                s += w1 / (k + r1.index(doc) + 1)
            if doc in r2:
                s += w2 / (k + r2.index(doc) + 1)
            expected[doc] = s
        order = sorted(expected, key=lambda d: (-expected[d], d))
        assert [e.passage_id for e in fused.entries] == order
        for entry in fused.entries:
            assert math.isclose(entry.fused_score, expected[entry.passage_id],
                                rel_tol=0, abs_tol=1e-12)


def brute_force_rrf(rankings, weights, k):
    """Per id: the sum of w/(k + rank) over the rankings that list it, with
    1-based ranks, and the rank it holds in each; ordered by score
    descending, then id ascending."""
    scores, ranks = {}, {}
    for name, ids in rankings:
        for doc in ids:
            rank_in = ids.index(doc) + 1
            scores[doc] = scores.get(doc, 0.0) + weights[name] / (k + rank_in)
            ranks.setdefault(doc, {})[name] = rank_in
    order = sorted(scores, key=lambda doc: (-scores[doc], doc))
    return [(doc, scores[doc], ranks[doc]) for doc in order]


RRF_IDS = st.lists(st.sampled_from([f"p{i}" for i in range(12)]), unique=True,
                   max_size=12)


@settings(max_examples=300, deadline=None)
@given(
    rankings=st.lists(RRF_IDS, min_size=1, max_size=2),
    weights=st.lists(st.floats(0.0, 5.0) | st.sampled_from([0.3, 0.7, 1.0]),
                     min_size=2, max_size=2),
    k=st.floats(1e-3, 200.0) | st.sampled_from([1.0, DEFAULT_RRF_K]),
)
def test_rrf_matches_brute_force(rankings, weights, k):
    named = list(zip(("one", "two"), rankings))
    cfg_weights = {name: w for (name, _), w in zip(named, weights)}
    if sum(cfg_weights.values()) <= 0:
        cfg_weights["one"] = 1.0
    fused = rrf_fuse(named, FusionConfig(k=k, weights=cfg_weights), query_id="q")
    expected = brute_force_rrf(named, cfg_weights, k)
    assert [e.passage_id for e in fused.entries] == [doc for doc, _, _ in expected]
    # At most two addends per id, and IEEE addition commutes, so the sums
    # agree exactly whatever order either side adds in.
    assert [(e.fused_score, e.ranks) for e in fused.entries] == \
        [(value, ranks) for _, value, ranks in expected]


def test_fusion_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(k=0.0, weights={"a": 1.0})
    assert FusionConfig(k=60.0).weights == {}
    with pytest.raises(ValueError):
        FusionConfig(k=60.0, weights={"a": 1.0, "b": 1.0, "c": 1.0})
    with pytest.raises(ValueError):
        FusionConfig(k=60.0, weights={"a": -1.0, "b": 2.0})
    with pytest.raises(ValueError):
        FusionConfig(k=60.0, weights={"a": 0.0, "b": 0.0})


def test_for_scorers_prefers_cross():
    cross = ScorerHandle(name="ce", kind="pointwise-cross", transport="service-adapter",
                         endpoint="tcp:h:1")
    late = ScorerHandle(name="li", kind="late-interaction", transport="service-adapter",
                        endpoint="tcp:h:2")
    cfg = FusionConfig.for_scorers([late, cross])
    assert cfg.weights == {"ce": 0.7, "li": 0.3}
    single = FusionConfig.for_scorers([cross])
    assert single.weights == {"ce": 1.0}


def test_score_in_process_lexical(tiny_corpus):
    handle = ScorerHandle(name="lex")
    vector = score(handle, "Melanie went hiking", list(tiny_corpus))
    assert vector.scorer_name == "lex"
    best = max(vector.scores, key=vector.scores.get)
    assert best == "s:0"


def test_score_via_service(tiny_corpus):
    def score_fn(query, items):
        return [float(i) for i, _ in enumerate(items)]

    with ReferenceServer(score_fn=score_fn) as server:
        handle = ScorerHandle(name="svc", kind="pointwise-cross",
                              transport="service-adapter", endpoint=server.endpoint)
        vector = score(handle, "q", list(tiny_corpus))
    assert vector.scores["s:2"] == 2.0


def test_scorer_handle_client_follows_the_transport():
    assert isinstance(ScorerHandle(name="lex").client(), LexicalDenseScorer)
    handle = ScorerHandle(name="ce", kind="pointwise-cross",
                          transport="service-adapter", endpoint="tcp:h:1",
                          timeout=2.5, retries=3)
    assert handle.client() == ServiceClient("tcp:h:1", timeout=2.5, retries=3)


def test_in_process_and_socket_scoring_agree(fixture_corpus_path,
                                             fixture_questions_path):
    corpus = read_corpus(fixture_corpus_path)
    passages = list(corpus)
    queries = [q.text for q in load_questions(fixture_questions_path, corpus)]
    queries.append("the of and")  # no content terms: length penalty only
    with ReferenceServer(score_fn=LexicalDenseScorer().score) as server:
        remote = ScorerHandle(name="lex", kind="pointwise-cross",
                              transport="service-adapter",
                              endpoint=server.endpoint)
        for query in queries:
            local = score(ScorerHandle(name="lex"), query, passages)
            assert score(remote, query, passages).scores == local.scores


def test_scorer_handle_validation():
    with pytest.raises(ValueError):
        ScorerHandle(name="x", kind="pointwise-cross", transport="in-process")
    with pytest.raises(ValueError):
        ScorerHandle(name="x", kind="lexical-test", transport="service-adapter")
    with pytest.raises(ValueError):
        ScorerHandle(name="x", kind="bogus")


def test_score_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        ScoreVector(scorer_name="s", scores={"p": float("inf")})


def test_rank_single_scorer_bypasses_fusion(tiny_corpus):
    from memgrep.retrieve import grep_search
    candidates = grep_search(tiny_corpus, term_set(("the", 2.0)))
    handle = ScorerHandle(name="lex")
    ranked, vectors = rank(candidates, "Melanie went hiking", tiny_corpus, [handle])
    assert [v.scorer_name for v in vectors] == ["lex"]
    # Raw scores pass through as fused scores.
    for entry in ranked.entries:
        assert entry.fused_score == pytest.approx(vectors[0].scores[entry.passage_id])


def test_rank_two_scorers_concurrent_equals_sequential(tiny_corpus):
    from memgrep.retrieve import grep_search
    candidates = grep_search(tiny_corpus, term_set(("the", 2.0)))

    def noisy(query, items):
        return [math.sin(len(item)) for item in items]

    with ReferenceServer(score_fn=noisy) as server:
        handles = [
            ScorerHandle(name="svc", kind="pointwise-cross",
                         transport="service-adapter", endpoint=server.endpoint),
            ScorerHandle(name="lex"),
        ]
        par, _ = rank(candidates, "Melanie went hiking", tiny_corpus, handles,
                      parallel=True)
        seq, _ = rank(candidates, "Melanie went hiking", tiny_corpus, handles,
                      parallel=False)
    assert par == seq


def test_rank_rejects_duplicate_scorer_names(tiny_corpus):
    from memgrep.retrieve import grep_search
    candidates = grep_search(tiny_corpus, term_set(("the", 2.0)))
    handles = [ScorerHandle(name="lex"), ScorerHandle(name="lex")]
    with pytest.raises(ValueError):
        rank(candidates, "q", tiny_corpus, handles)


def test_rank_empty_candidates_rejected(tiny_corpus):
    from memgrep.retrieve import CandidateSet
    empty = CandidateSet(candidates=(), query_id="q", hops_executed=1)
    with pytest.raises(ValueError):
        rank(empty, "Melanie went hiking", tiny_corpus, [ScorerHandle(name="lex")])


def test_lexical_dense_scorer_orders_by_term_overlap():
    scorer = LexicalDenseScorer(RuleAnnotator())
    scores = scorer.score("Melanie went hiking", [
        "Melanie went hiking yesterday",
        "nothing in common here at all",
    ])
    assert scores[0] > scores[1]


def test_lexical_dense_scorer_stopword_query():
    scorer = LexicalDenseScorer(RuleAnnotator())
    scores = scorer.score("the of and", ["some text here"])
    assert scores == [pytest.approx(-0.003)]
