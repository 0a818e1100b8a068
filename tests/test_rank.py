"""Scoring and reciprocal rank fusion."""

import importlib
import math
import random
import threading
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memgrep.annotate import RuleAnnotator
from memgrep.corpus import load_questions, read_corpus
from memgrep.errors import ScorerUnavailableError
from memgrep.evaluate import run_question
from memgrep.parse import WeightedTerm, WeightedTermSet, parse_query
from memgrep.rank import (
    OTHER_WEIGHT,
    PRIMARY_WEIGHT,
    RRF_K,
    LexicalDenseScorer,
    RankedEntry,
    ScorerHandle,
    fusion_weights,
    order_by_score,
    rank,
    rrf_fuse,
    score,
)
from memgrep.retrieve import (Candidate, CandidateSet, RetrieveConfig, grep_search,
                              query_id_for, retrieve)
from memgrep.service import ReferenceServer, ServiceClient
from memgrep.truncate import Context

from conftest import grep_candidates, make_corpus, sequential_rank

# The module, which memgrep's own `rank` (the function) shadows as an attribute.
rank_module = importlib.import_module("memgrep.rank")


def term_set(*pairs):
    return WeightedTermSet.from_terms([WeightedTerm(s, w, "query") for s, w in pairs])


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
    weights = {}
    for term in parse_query(query, RuleAnnotator()).terms:
        weights.setdefault(term.surface.lower(), term.weight)
    matched = sum(w for surface, w in weights.items() if surface in text.lower())
    return matched - 0.001 * len(text.split())


QUERY_WORDS = ["Melanie", "melanie", "Javier", "hiking", "Hiking", "trails",
               "went", "the", "of", "Mount", "Rainier", "baked", "İstanbul",
               "Straße", "Dr.", "Harvest", "Festival"]
# test_retrieve.py's case-folding traps: "İ" lowers to two code points,
# "Σ" to "σ" or final "ς", and "ß" stays "ß".
FOLDING_ALPHABET = "aAbBiIİ\u0307ΣσςßsS \x00\n"
TEXT_WORDS = st.sampled_from(QUERY_WORDS + ["MELANIE", "istanbul", "STRASSE"]) \
    | st.text(alphabet="abİıßΣσς\t\n ", min_size=1, max_size=6)
TEXTS = st.lists(TEXT_WORDS, max_size=8).map(" ".join) \
    | st.text(FOLDING_ALPHABET, max_size=24) \
    | st.text(" \t\n\r\x0b\x0c\u3000", max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    query=st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=5)
    .map(" ".join)
    | st.text(FOLDING_ALPHABET, min_size=1, max_size=16).filter(str.strip),
    texts=st.lists(TEXTS, max_size=8),
)
def test_lexical_scorer_matches_brute_force(query, texts):
    assert LexicalDenseScorer().score(query, texts) == [
        brute_force_lexical(query, text) for text in texts
    ]


def test_default_constants():
    assert RRF_K == 60.0
    assert PRIMARY_WEIGHT == 0.7
    assert OTHER_WEIGHT == 0.3


def test_rrf_spot_value_both_rank_one():
    fused = rrf_fuse([(0.7, ["p1"]), (0.3, ["p1"])], 60.0)
    # 0.7/61 + 0.3/61 = 1/61.
    assert fused[0].fused_score == pytest.approx(1 / 61, abs=1e-15)


def test_rrf_spot_value_single_ranking():
    fused = rrf_fuse([(0.7, ["p1"])], 60.0)
    assert fused[0].fused_score == pytest.approx(0.7 / 61, abs=1e-15)


def test_rrf_rank_positions():
    # cross ranks: A=1, B=2; late ranks: A=3 (others ahead), B=2.
    rankings = [(0.7, ["A", "B", "C"]), (0.3, ["C", "B", "A"])]
    fused = rrf_fuse(rankings, 60.0)
    by_id = {e.passage_id: e for e in fused}
    assert by_id["A"].fused_score == pytest.approx(0.7 / 61 + 0.3 / 63)
    assert by_id["B"].fused_score == pytest.approx(0.7 / 62 + 0.3 / 62)
    positions = [(weight, ids.index("A") + 1) for weight, ids in rankings]
    assert positions == [(0.7, 1), (0.3, 3)]
    assert by_id["A"].fused_score == sum(weight / (60.0 + p) for weight, p in positions)


def test_rrf_absent_item_contributes_zero():
    fused = rrf_fuse([(0.7, ["A"]), (0.3, ["B"])], 60.0)
    by_id = {e.passage_id: e for e in fused}
    assert by_id["A"].fused_score == pytest.approx(0.7 / 61)
    assert by_id["B"].fused_score == pytest.approx(0.3 / 61)
    # A holds rank 1 in cross only: nothing else adds to its score.
    assert by_id["A"].fused_score == 0.7 / (60.0 + 1)


def test_rrf_tie_breaks_by_passage_id():
    fused = rrf_fuse([(1.0, ["z", "y"])], 60.0)
    assert [e.passage_id for e in fused] == ["z", "y"]
    # Symmetric scores tie; id ascending decides.
    fused2 = rrf_fuse([(0.5, ["z", "y"]), (0.5, ["y", "z"])], 60.0)
    assert [e.passage_id for e in fused2] == ["y", "z"]


def test_rrf_duplicate_in_ranking_rejected():
    with pytest.raises(ValueError, match="twice"):
        rrf_fuse([(1.0, ["A", "A"])], 60.0)


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
        fused = rrf_fuse([(w1, r1), (w2, r2)], k)

        expected = {}
        for doc in set(r1) | set(r2):
            s = 0.0
            if doc in r1:
                s += w1 / (k + r1.index(doc) + 1)
            if doc in r2:
                s += w2 / (k + r2.index(doc) + 1)
            expected[doc] = s
        order = sorted(expected, key=lambda d: (-expected[d], d))
        assert [e.passage_id for e in fused] == order
        for entry in fused:
            assert math.isclose(entry.fused_score, expected[entry.passage_id],
                                rel_tol=0, abs_tol=1e-12)


def brute_force_rrf(rankings, k):
    """Per id: the sum of w/(k + rank) over the (w, ids) rankings that list
    it, with 1-based ranks; ordered by score descending, then id ascending."""
    scores = {}
    for weight, ids in rankings:
        for doc in ids:
            rank_in = ids.index(doc) + 1
            scores[doc] = scores.get(doc, 0.0) + weight / (k + rank_in)
    order = sorted(scores, key=lambda doc: (-scores[doc], doc))
    return [(doc, scores[doc]) for doc in order]


RRF_IDS = st.lists(st.sampled_from([f"p{i}" for i in range(12)]), unique=True,
                   max_size=12)


@settings(max_examples=300, deadline=None)
@given(
    rankings=st.lists(RRF_IDS, min_size=1, max_size=2),
    weights=st.lists(st.floats(0.0, 5.0) | st.sampled_from([0.3, 0.7, 1.0]),
                     min_size=2, max_size=2),
    k=st.floats(1e-3, 200.0) | st.sampled_from([1.0, RRF_K]),
)
def test_rrf_matches_brute_force(rankings, weights, k):
    weighted = list(zip(weights, rankings))
    fused = rrf_fuse(weighted, k)
    expected = brute_force_rrf(weighted, k)
    # At most two addends per id, and IEEE addition commutes, so the sums
    # agree exactly whatever order either side adds in.
    assert [(e.passage_id, e.fused_score) for e in fused] == expected


@settings(max_examples=200, deadline=None)
@given(
    ids=RRF_IDS,
    # Weights away from float's limits: a subnormal weight over k + rank
    # rounds to zero and ties every passage.
    weight=st.floats(1e-6, 1e6) | st.sampled_from([OTHER_WEIGHT, 1.0]),
    k=st.floats(1e-3, 200.0) | st.sampled_from([1.0, RRF_K]),
)
def test_rrf_of_one_ranking_keeps_its_order(ids, weight, k):
    fused = rrf_fuse([(weight, ids)], k)
    assert [e.passage_id for e in fused] == ids


@settings(max_examples=200, deadline=None)
@given(scores=st.dictionaries(
    st.sampled_from([f"p{i}" for i in range(12)]),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-1e3, 1e3)))
def test_order_by_score_sorts_score_down_then_id_up(scores):
    assert order_by_score(scores) == sorted(scores, key=lambda pid: (-scores[pid], pid))


def test_fusion_weights_prefer_cross():
    cross = ScorerHandle(name="ce", kind="pointwise-cross", endpoint="tcp:h:1")
    late = ScorerHandle(name="li", kind="late-interaction", endpoint="tcp:h:2")
    assert fusion_weights([late, cross]) == [0.3, 0.7]
    assert fusion_weights([cross, late]) == [0.7, 0.3]
    assert fusion_weights([cross]) == [1.0]
    for scorers in ([], [cross, late, cross], [cross, cross]):
        with pytest.raises(ValueError):
            fusion_weights(scorers)


def test_rank_fuses_at_the_fixed_split(fixture_corpus_path):
    corpus = read_corpus(fixture_corpus_path)
    candidates = grep_candidates(corpus, term_set(("the", 2.0)))
    query = "Where did Javier go hiking?"

    def noisy(query, items):
        return [math.sin(len(item)) for item in items]

    with ReferenceServer(score_fn=noisy) as server:
        # The cross scorer comes second, so the default split is not positional.
        handles = [ScorerHandle(name="lex"),
                   ScorerHandle(name="svc", kind="pointwise-cross",
                                endpoint=server.endpoint)]

        def fused(weights, k):
            maps = [score(s, query, candidates, corpus) for s in handles]
            return rrf_fuse([(w, order_by_score(m)) for w, m in zip(weights, maps)], k)

        ranked, _ = rank(candidates, query, corpus, handles)
        assert ranked == fused(fusion_weights(handles), RRF_K)
        assert ranked == fused([0.3, 0.7], 60.0)
        assert ranked != fused([0.7, 0.3], 60.0)
        assert ranked != fused([0.3, 0.7], 30.0)


def corpus_candidates(corpus, query):
    """Every passage as a candidate, in corpus order, with its query-term sum
    for query as retrieve's hop-0 OR grep finds it."""
    sums = grep_search(corpus, parse_query(query, RuleAnnotator()))
    return CandidateSet(tuple(Candidate(p.id, 0.0, 0) for p in corpus),
                        query_id_for(query), hops_executed=1,
                        term_sums=tuple(sums.get(i, 0.0) for i in range(len(corpus))))


def test_score_in_process_lexical(tiny_corpus):
    handle = ScorerHandle(name="lex")
    query = "Melanie went hiking"
    candidates = corpus_candidates(tiny_corpus, query)
    scores = score(handle, query, candidates, tiny_corpus)
    assert list(scores) == candidates.ids()
    best = max(scores, key=scores.get)
    assert best == "s:0"


def test_score_via_service(tiny_corpus):
    def score_fn(query, items):
        return [float(i) for i, _ in enumerate(items)]

    with ReferenceServer(score_fn=score_fn) as server:
        handle = ScorerHandle(name="svc", kind="pointwise-cross",
                              endpoint=server.endpoint)
        scores = score(handle, "q", corpus_candidates(tiny_corpus, "q"), tiny_corpus)
    assert scores["s:2"] == 2.0


def test_scorer_handle_is_name_kind_and_endpoint():
    served = ScorerHandle(name="ce", kind="pointwise-cross", endpoint="tcp:h:1",
                          transport="service-adapter")
    assert asdict(served) == {"name": "ce", "kind": "pointwise-cross", "endpoint": "tcp:h:1"}
    assert served == ScorerHandle(name="ce", kind="pointwise-cross", endpoint="tcp:h:1")
    assert asdict(ScorerHandle(name="lex", transport="in-process")) == {
        "name": "lex", "kind": "lexical-test", "endpoint": None}
    with pytest.raises(ValueError, match="contradicts"):
        ScorerHandle(name="ce", kind="pointwise-cross", endpoint="tcp:h:1",
                     transport="in-process")
    with pytest.raises(ValueError, match="contradicts"):
        ScorerHandle(name="lex", transport="service-adapter")
    with pytest.raises(ValueError, match="contradicts"):
        ScorerHandle(name="lex", transport="carrier-pigeon")


def test_in_process_and_socket_scoring_agree(fixture_corpus_path,
                                             fixture_questions_path):
    corpus = read_corpus(fixture_corpus_path)
    queries = [q.text for q in load_questions(fixture_questions_path, corpus)]
    queries.append("the of and")  # no content terms: length penalty only
    with ReferenceServer(score_fn=LexicalDenseScorer().score) as server:
        remote = ScorerHandle(name="lex", kind="pointwise-cross",
                              endpoint=server.endpoint)
        for query in queries:
            candidates = corpus_candidates(corpus, query)
            local = score(ScorerHandle(name="lex"), query, candidates, corpus)
            assert score(remote, query, candidates, corpus) == local


def test_scorer_handle_validation():
    with pytest.raises(ValueError):
        ScorerHandle(name="x", kind="pointwise-cross", transport="in-process")
    with pytest.raises(ValueError):
        ScorerHandle(name="x", kind="lexical-test", transport="service-adapter")
    with pytest.raises(ValueError):
        ScorerHandle(name="x", kind="bogus")
    # lexical-test iff no endpoint: a served scorer names a served kind.
    with pytest.raises(ValueError, match="lexical-test iff it has no endpoint"):
        ScorerHandle(name="x", endpoint="unix:/x")


def test_rank_single_scorer_keeps_its_raw_score_order(tiny_corpus):
    candidates = grep_candidates(tiny_corpus, term_set(("the", 2.0)))
    handle = ScorerHandle(name="lex")
    ranked, (raw,) = rank(candidates, "Melanie went hiking", tiny_corpus, [handle])
    # Fused alone, the scorer's order is kept: raw score descending, id ascending.
    assert [e.passage_id for e in ranked] == sorted(raw, key=lambda pid: (-raw[pid], pid))


def test_rank_two_scorers_concurrent_equals_sequential(tiny_corpus):
    candidates = grep_candidates(tiny_corpus, term_set(("the", 2.0)))

    def noisy(query, items):
        return [math.sin(len(item)) for item in items]

    def other(query, items):
        return [math.cos(len(item)) for item in items]

    with ReferenceServer(score_fn=noisy) as server, \
            ReferenceServer(score_fn=other) as late_server:
        svc = ScorerHandle(name="svc", kind="pointwise-cross", endpoint=server.endpoint)
        late = ScorerHandle(name="late", kind="late-interaction",
                            endpoint=late_server.endpoint)
        # Two served scorers run on the pool; one runs in turn with the
        # in-process scorer. Either way the result is scoring in turn's.
        for handles in ([svc, late], [svc, ScorerHandle(name="lex")]):
            assert rank(candidates, "Melanie went hiking", tiny_corpus, handles) == \
                sequential_rank(candidates, "Melanie went hiking", tiny_corpus, handles)


def test_rank_orders_each_tied_vector_as_order_by_score(monkeypatch):
    # Twelve ids, so s:10 sorts before s:2, listed in reverse; few distinct
    # scores, 0.0 and -0.0 among them, so both score maps are full of ties.
    corpus = make_corpus(["text " + "x " * (i % 3) for i in range(12)])
    candidates = CandidateSet(tuple(Candidate(p.id, 0.0, 0) for p in reversed(corpus.passages)),
                              query_id="q", hops_executed=1, term_sums=(0.0,) * 12)
    fused = []
    fuse = rank_module.rrf_fuse

    def recording_fuse(rankings, k):
        fused.append(rankings)
        return fuse(rankings, k)

    def tied(query, items):
        return [float(len(item) % 4) for item in items]

    def signed_zeros(query, items):
        return [0.0 if len(item) % 3 else -0.0 for item in items]

    monkeypatch.setattr(rank_module, "rrf_fuse", recording_fuse)
    with ReferenceServer(score_fn=tied) as one, ReferenceServer(score_fn=signed_zeros) as two:
        served = [ScorerHandle(name="a", kind="pointwise-cross", endpoint=one.endpoint),
                  ScorerHandle(name="b", kind="late-interaction", endpoint=two.endpoint)]
        for scorers in (served, [served[0], ScorerHandle(name="lex")]):
            fused.clear()
            ranked, maps = rank(candidates, "q", corpus, scorers)
            assert all(len(set(m.values())) < len(m) for m in maps)
            weights = fusion_weights(scorers)
            assert fused == [[(w, order_by_score(m)) for w, m in zip(weights, maps)]]
            for entry in ranked:
                twin = RankedEntry(passage_id=entry.passage_id, fused_score=entry.fused_score)
                assert type(entry) is RankedEntry and repr(entry) == repr(twin)


def test_rank_rejects_duplicate_scorer_names(tiny_corpus):
    candidates = grep_candidates(tiny_corpus, term_set(("the", 2.0)))
    handles = [ScorerHandle(name="lex"), ScorerHandle(name="lex")]
    with pytest.raises(ValueError):
        rank(candidates, "q", tiny_corpus, handles)


def test_rank_of_the_empty_set_is_the_empty_ranking(tiny_corpus):
    asked = []

    def down(query, items):
        asked.append(items)
        raise ScorerUnavailableError("scorer host down")

    empty = CandidateSet(candidates=(), query_id="q", hops_executed=1)
    with ReferenceServer(score_fn=down) as server:
        svc = ScorerHandle(name="svc", kind="pointwise-cross", endpoint=server.endpoint)
        late = ScorerHandle(name="late", kind="late-interaction", endpoint=server.endpoint)
        for scorers in ([ScorerHandle(name="lex")], [ScorerHandle(name="lex"), svc], [late, svc]):
            ranked, maps = rank(empty, "Melanie went hiking", tiny_corpus, scorers)
            assert ranked == ()
            assert maps == [{} for _ in scorers]
        assert asked == []
        # Grep finds nothing and the served fallback is down, so nothing is
        # retrieved: the run ranks and cuts the empty set to the empty context.
        run = run_question("zanzibar quodlibet", tiny_corpus, [svc])
    assert asked == [[p.text for p in tiny_corpus]]   # the fallback's one request
    assert len(run.candidates) == 0 and run.ranked == ()
    assert run.cross == {}
    assert run.context == Context(passage_ids=(), word_count=0, estimated_tokens=0,
                                  pruned_by_threshold=0, pruned_by_budget=0)
    assert run.rendered == ""
    assert [w.partition(":")[0] for w in run.candidates.warnings] == \
        ["semantic-fallback-unavailable"]


def test_in_process_scorer_rejects_a_set_without_one_sum_per_candidate(tiny_corpus):
    # A hand-built set need not carry the sums retrieve fills in.
    bare = CandidateSet(tuple(Candidate(p.id, 1.0, 0) for p in tiny_corpus),
                        query_id="q", hops_executed=1)
    with pytest.raises(ValueError, match="one query-term sum per candidate: got 0 for 3"):
        rank(bare, "Melanie went hiking", tiny_corpus, [ScorerHandle(name="lex")])


def test_lexical_dense_scorer_orders_by_term_overlap():
    scorer = LexicalDenseScorer()
    scores = scorer.score("Melanie went hiking", [
        "Melanie went hiking yesterday",
        "nothing in common here at all",
    ])
    assert scores[0] > scores[1]


def test_lexical_dense_scorer_stopword_query():
    scorer = LexicalDenseScorer()
    scores = scorer.score("the of and", ["some text here"])
    assert scores == [pytest.approx(-0.003)]


# Texts of query words, their case variants and fillers, joined by assorted
# whitespace, so terms repeat, "İ" lowers to two code points and words split
# on more than spaces.
RANK_WORDS = st.sampled_from(QUERY_WORDS + ["MELANIE", "İSTANBUL", "istanbul", "STRASSE",
                                            "cabin", "lake", "dusk"])
RANK_TEXTS = st.lists(st.tuples(RANK_WORDS, st.sampled_from([" ", "  ", "\t", "\n", "\u3000"])),
                      max_size=8).map(lambda pairs: "".join(w + sep for w, sep in pairs))


@pytest.fixture(scope="module")
def served_lexical():
    """LexicalDenseScorer served as a scorer host serves it."""
    with ReferenceServer(score_fn=LexicalDenseScorer().score) as server:
        yield ScorerHandle(name="served", kind="pointwise-cross", endpoint=server.endpoint)


@settings(max_examples=200, deadline=None)
@given(
    query=st.lists(RANK_WORDS, min_size=1, max_size=4).map(" ".join),
    texts=st.lists(RANK_TEXTS, min_size=1, max_size=10),
)
# Grep finds nothing, so the semantic fallback supplies every passage.
@example(query="Javier hiking", texts=["Melanie\u3000went", "cabin lake", "dusk\tdusk"])
# No content terms: every sum is 0, the length penalty alone.
@example(query="the of", texts=["the cabin", "of\nthe lake dusk"])
def test_rank_in_process_vector_equals_the_text_path(query, texts, served_lexical):
    annotator = RuleAnnotator()
    corpus = make_corpus(texts)
    cfg = RetrieveConfig()
    candidates = retrieve(query, corpus, cfg, annotator)
    _, (scores,) = rank(candidates, query, corpus, [ScorerHandle(name="lex")])
    ids = candidates.ids()
    candidate_texts = [corpus.get(pid).text for pid in ids]
    assert list(scores) == ids
    assert list(scores.values()) == LexicalDenseScorer().score(query, candidate_texts)
    # The in-process fallback scores each passage as the served text scorer
    # does, so serving that scorer changes no candidate.
    assert retrieve(query, corpus, cfg, annotator, [served_lexical]) == candidates
    if not grep_search(corpus, parse_query(query, annotator)):   # the fallback's set
        assert [c.match_score for c in candidates.candidates] == \
            ServiceClient(served_lexical.endpoint).score(query, candidate_texts)


def test_rank_with_at_most_one_served_scorer_starts_no_thread(tiny_corpus, monkeypatch):
    candidates = grep_candidates(tiny_corpus, term_set(("the", 2.0)))
    caller = threading.current_thread()
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        if threading.current_thread() is caller:
            started.append(thread)
        start(thread)

    with ReferenceServer(score_fn=lambda q, items: [1.0] * len(items)) as one, \
            ReferenceServer(score_fn=lambda q, items: [2.0] * len(items)) as two:
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        served = [ScorerHandle(name="a", kind="pointwise-cross", endpoint=one.endpoint),
                  ScorerHandle(name="b", kind="late-interaction", endpoint=two.endpoint)]
        for scorers in ([ScorerHandle(name="lex")],
                        [ScorerHandle(name="lex"), ScorerHandle(name="lex2")],
                        [served[0]],
                        [served[0], ScorerHandle(name="lex")]):
            rank(candidates, "Melanie went hiking", tiny_corpus, scorers)
        assert started == []
        # Two served scorers overlap their round trips on a pool.
        rank(candidates, "Melanie went hiking", tiny_corpus, served)
        assert started
