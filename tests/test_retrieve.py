"""Substring retrieval, expansion hops, and the fallback path."""

import random
import re
from contextlib import ExitStack

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memgrep.annotate import RuleAnnotator
from memgrep.corpus import SCAN_CHARS, load_questions, read_corpus
from memgrep.errors import ScorerUnavailableError
from memgrep.parse import PRF_WEIGHT, WeightedTerm, WeightedTermSet, parse_query
from memgrep.rank import ScorerHandle
from memgrep.retrieve import (
    SEMANTIC_FALLBACK_TOP_N,
    Candidate,
    CandidateSet,
    RetrieveConfig,
    and_hits,
    candidate_order,
    entity_expansion_hop,
    grep_search,
    prf_hop,
    query_id_for,
    retrieve,
)
from memgrep.service import ReferenceServer

from conftest import fixture_path, grep_candidates, make_corpus


@pytest.fixture(scope="module")
def tagger():
    return RuleAnnotator()


def term_set(*pairs):
    return WeightedTermSet.from_terms([WeightedTerm(s, w, "query") for s, w in pairs])


def test_grep_or_scores_sum_of_matched_weights():
    corpus = make_corpus([
        "alpha beta gamma",
        "alpha only here",
        "nothing relevant",
    ])
    hits = grep_search(corpus, term_set(("alpha", 2.0), ("beta", 1.0)))
    assert hits == {0: 3.0, 1: 2.0}
    result = grep_candidates(corpus, term_set(("alpha", 2.0), ("beta", 1.0)))
    assert [c.passage_id for c in result.candidates] == ["s:0", "s:1"]
    assert result.candidates[0].match_score == 3.0
    assert result.candidates[1].match_score == 2.0


def test_grep_is_case_insensitive_substring():
    corpus = make_corpus(["We met Gina's manager.", "Regina arrived late."])
    hits = grep_search(corpus, term_set(("gina", 4.0)))
    # Substring semantics: "Regina" contains "gina".
    assert set(hits) == {0, 1}


def test_grep_and_requires_every_term():
    corpus = make_corpus(["alpha beta", "alpha", "beta"])
    terms = term_set(("alpha", 1.0), ("beta", 1.0))
    assert and_hits(grep_search(corpus, terms), terms) == {0: 2.0}


def test_grep_tie_breaks_by_passage_id():
    corpus = make_corpus(["same word", "same word", "same word"])
    result = grep_candidates(corpus, term_set(("word", 2.0)))
    assert [c.passage_id for c in result.candidates] == ["s:0", "s:1", "s:2"]


# A few repeated scores, 0.0 and -0.0 among them, so ties straddle any cutoff.
TIED_SCORES = st.sampled_from([2.5, 1.0, 0.5, 0.0, -0.0, -1.0])


@settings(max_examples=300, deadline=None, database=None)
@given(order=st.permutations(range(14)), n=st.integers(0, 14),
       values=st.lists(TIED_SCORES, min_size=14, max_size=14))
@example(order=[12, 2, 10, 3, 1, 0, 4, 5, 6, 7, 8, 9, 11, 13], n=5,
         values=[1.0, 1.0, -0.0, 0.0, 0.0] + [0.0] * 9)
def test_candidate_order_is_score_down_then_id_up(order, n, values):
    # Ids s:0 .. s:13 sort as strings, so s:10 comes before s:2.
    corpus = make_corpus(["text"] * 14)
    scores = dict(zip(order[:n], values))
    expected = sorted(scores, key=lambda i: (-scores[i], corpus.passages[i].id))
    for top in (None, 0, 1, n - 1, n, n + 1):
        assert candidate_order(corpus, scores, top) == expected[:top]


def test_grep_repeated_occurrences_count_once():
    corpus = make_corpus(["echo echo echo echo"])
    assert grep_search(corpus, term_set(("echo", 2.0))) == {0: 2.0}


def test_grep_of_no_terms_finds_nothing(tiny_corpus):
    assert grep_search(tiny_corpus, WeightedTermSet(terms=())) == {}


# Case-folding traps: "İ" lowers to two code points ("i" + combining dot),
# "Σ" lowers to "σ" or, at a word's end, to final "ς", and "ß" stays "ß"
# though it upper-cases to "SS".
_ALPHABET = "aAbBiIİ\u0307ΣσςßsS \x00\n"
_READINGS = [("query", 1.0), ("query", 2.0), ("query", 3.0), ("query", 4.0),
             ("entity-hop", 2.5), ("prf", 0.5)]


@st.composite
def corpus_and_terms(draw):
    texts = draw(st.lists(st.text(_ALPHABET, max_size=12), min_size=1, max_size=12))
    surfaces = draw(st.lists(st.text(_ALPHABET, min_size=1, max_size=4),
                             min_size=1, max_size=4))
    # Needles that are substrings of other needles.
    for surface in list(surfaces):
        start = draw(st.integers(0, len(surface) - 1))
        stop = draw(st.integers(start + 1, len(surface)))
        surfaces.append(surface[start:stop])
    readings = draw(st.lists(st.sampled_from(_READINGS), min_size=len(surfaces),
                             max_size=len(surfaces)))
    return texts, list(zip(surfaces, readings))


def reference_grep(corpus, terms, mode):
    """Per passage, per term: ``needle in text.lower()``. Rows of (passage
    id, score) in candidate order, the score the weights of the terms the
    passage holds, summed in term order; AND keeps the passages holding
    every term."""
    rows = []
    for passage in corpus:
        matched = [t.weight for t in terms.terms if t.surface.lower() in passage.text.lower()]
        if not matched or (mode == "AND" and len(matched) != len(terms.terms)):
            continue
        rows.append((passage.id, sum(matched)))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


@settings(max_examples=300, deadline=None, database=None)
@given(case=corpus_and_terms(), mode=st.sampled_from(["OR", "AND"]))
@example(case=(["İstanbul ΣΑΣ Straße", "σας\x00ß\nline", "plain"],
               [("i\u0307", ("query", 3.0)), ("ς", ("query", 2.0)),
                ("SS", ("prf", 0.5)), ("ß", ("entity-hop", 2.5))]),
         mode="OR")
@example(case=(["Melanie\x00hiked\nMelanie"],
               [("melanie", ("query", 4.0)), ("mel", ("prf", 0.5)),
                ("e", ("query", 1.0))]),
         mode="AND")
def test_grep_matches_brute_force_reference(case, mode):
    texts, pairs = case
    corpus = make_corpus(texts)
    terms = WeightedTermSet.from_terms(
        [WeightedTerm(surface, weight, provenance)
         for surface, (provenance, weight) in pairs])
    expected = reference_grep(corpus, terms, mode)
    hits = grep_search(corpus, terms)
    if mode == "AND":
        hits = and_hits(hits, terms)
    assert {corpus.passages[i].id: score for i, score in hits.items()} == dict(expected)
    result = grep_candidates(corpus, terms, mode)
    assert [(c.passage_id, c.match_score) for c in result.candidates] == expected


# Padding that no needle matches, long enough that four padded passages fill
# most of a scan block: about 400 characters are left, more than the drawn
# texts and needles of four passages can take, so a block holds four.
_PAD = "-" * (SCAN_CHARS // 4 - 100)


def _boundaries(texts):
    """The positions of the first passages of make_corpus(texts)'s scan
    blocks after its first."""
    return [base for _, _, base in make_corpus(texts).scan[1:]]


@st.composite
def spanning_corpus_and_terms(draw):
    """corpus_and_terms' needles over a padded corpus of three scan blocks.
    The last passage before each block boundary, read from the scan surface
    before the needles go in, ends with a needle and the first after it
    starts with one; the drawn texts fill those and a few other passages,
    and one drawn filler text the rest, each after or before the padding."""
    texts, pairs = draw(corpus_and_terms())
    surfaces = st.sampled_from([surface for surface, _ in pairs])
    size = 9 + draw(st.integers(0, 3))
    filler = draw(st.text(_ALPHABET, max_size=6))
    spanning = [_PAD + filler] * size
    others = draw(st.lists(st.integers(0, size - 1), max_size=4))
    for k, slot in enumerate([0, size - 1, *others]):
        spanning[slot] = _PAD + texts[k % len(texts)]
    for k, boundary in enumerate(_boundaries(spanning)):
        spanning[boundary - 1] = _PAD + texts[k % len(texts)] + draw(surfaces)
        spanning[boundary] = draw(surfaces) + texts[-1 - k % len(texts)] + _PAD
    return spanning, pairs


@settings(max_examples=100, deadline=None, database=None)
@given(case=spanning_corpus_and_terms(), mode=st.sampled_from(["OR", "AND"]))
def test_grep_matches_brute_force_reference_across_scan_blocks(case, mode):
    texts, pairs = case
    # The needles still sit at the blocks' boundaries: at least two are spanned.
    surfaces = [surface for surface, _ in pairs]
    spanned = [b for b in _boundaries(texts)
               if texts[b - 1].endswith(tuple(surfaces))
               and texts[b].startswith(tuple(surfaces))]
    assert len(spanned) >= 2
    # The same check as test_grep_matches_brute_force_reference's, on these draws.
    test_grep_matches_brute_force_reference.hypothesis.inner_test(case, mode)


@pytest.mark.parametrize("needle, expected", [
    ("b\x00c", set()),          # would join passages 0 and 1
    ("d\x00e", {1}),            # a NUL inside one text
    ("\n\x00g", set()),         # a newline ending passage 2, then passage 3
    ("f\n", {2}),
    ("\x00", {1}),
])
def test_grep_needle_never_spans_two_passages(needle, expected):
    corpus = make_corpus(["ab", "cd\x00e", "f\n", "g"])
    assert set(grep_search(corpus, term_set((needle, 1.0)))) == expected


def test_grep_offsets_count_lowercased_characters():
    # "İ".lower() is two characters, so each "İ" moves later passages by two.
    corpus = make_corpus(["İİİ", "xa", "b", "İ"])
    for needle, expected in [("x", {1}), ("a", {1}), ("b", {2}),
                             ("i\u0307", {0, 3}), ("İ", {0, 3})]:
        assert set(grep_search(corpus, term_set((needle, 1.0)))) == expected


# Capitalised names mid-sentence are entities to the rule annotator, so the
# entity hops fire; nouns recur across passages, so PRF does too.
_NAMES = ["Alice", "Barnaby", "Corwin", "Delmont", "Evander", "Marisol"]
_NOUNS = ["kayak", "trail", "garden", "lantern", "market", "harbor"]
_FILLERS = ["the", "with", "and", "near", "met", "saw", "about"]
_SENTENCE = st.lists(st.sampled_from(_NAMES + _NOUNS + _FILLERS),
                     min_size=1, max_size=8).map(lambda ws: "Then " + " ".join(ws) + ".")


def reference_retrieve(query, corpus, cfg, annotator):
    """retrieve() with each hop grepped separately by reference_grep, merged
    by "higher score wins, earliest hop kept", and fully sorted whenever an
    expansion hop reads the current order. When no hop found anything, the
    in-process fallback: every passage scores 0.0 minus 0.001 per word, and
    the top SEMANTIC_FALLBACK_TOP_N join at the last hop."""
    merged = {}

    def merge(term_set, mode, hop):
        for pid, score in reference_grep(corpus, term_set, mode):
            held = merged.get(pid)
            if held is None or score > held[0]:
                merged[pid] = (score, hop if held is None else held[1])

    def ordered():
        rows = sorted(merged.items(), key=lambda row: (-row[1][0], row[0]))
        return tuple(Candidate(pid, score, hop) for pid, (score, hop) in rows)

    terms = parse_query(query, annotator)
    searched = set(terms.surfaces_lower())
    merge(terms, "OR", 0)
    hops = 1
    while merged and hops < cfg.max_hops:
        top = [corpus.get(c.passage_id) for c in ordered()[:cfg.entity_hop_source_top_m]]
        if not top:
            break
        new_terms = entity_expansion_hop(top, annotator, exclude=frozenset(searched))
        if not new_terms.terms:
            break
        searched.update(new_terms.surfaces_lower())
        merge(new_terms, "OR", hops)
        hops += 1
    if merged:
        top = [corpus.get(c.passage_id) for c in ordered()[:cfg.prf_source_top_n]]
        if top:
            prf_terms = prf_hop(top, annotator, min_doc_freq=cfg.prf_min_doc_freq,
                                exclude=frozenset(searched))
            if prf_terms.terms:
                merge(prf_terms, "OR", hops)
    else:
        for passage in corpus:
            merged[passage.id] = (0.0 - 0.001 * len(passage.text.split()), hops)
        return ordered()[:SEMANTIC_FALLBACK_TOP_N], hops
    return ordered(), hops


@settings(max_examples=200, deadline=None, database=None)
@given(texts=st.lists(_SENTENCE, min_size=1, max_size=14),
       query=st.lists(st.sampled_from(_NAMES + _NOUNS), min_size=1, max_size=3)
       .map(lambda ws: "What did " + " ".join(ws) + " do?"),
       max_hops=st.integers(1, 3), prf=st.booleans(),
       top_m=st.integers(0, 4), top_n=st.integers(0, 4), min_doc_freq=st.integers(1, 2))
def test_retrieve_matches_per_hop_reference(tagger, texts, query, max_hops, prf,
                                            top_m, top_n, min_doc_freq):
    corpus = make_corpus(texts)
    # A top-n of 0 is how PRF is turned off.
    cfg = RetrieveConfig(max_hops=max_hops, entity_hop_source_top_m=top_m,
                         prf_source_top_n=top_n if prf else 0,
                         prf_min_doc_freq=min_doc_freq)
    result = retrieve(query, corpus, cfg, annotator=tagger)
    candidates, hops = reference_retrieve(query, corpus, cfg, tagger)
    assert result.candidates == candidates
    assert result.hops_executed == hops


@settings(max_examples=150, deadline=None, database=None)
@given(texts=st.lists(_SENTENCE, min_size=1, max_size=14),
       query=st.lists(st.sampled_from(_NAMES + _NOUNS), min_size=1, max_size=3)
       .map(lambda ws: "What did " + " ".join(ws) + " do?"),
       top_n=st.integers(0, 4))
def test_one_hop_and_top_m_zero_retrieve_alike(tagger, texts, query, top_n):
    # Either setting alone turns the entity hops off, PRF or not.
    corpus = make_corpus(texts)
    one_hop = RetrieveConfig(max_hops=1, prf_source_top_n=top_n)
    no_source = RetrieveConfig(entity_hop_source_top_m=0, prf_source_top_n=top_n)
    assert retrieve(query, corpus, one_hop, annotator=tagger) == \
        retrieve(query, corpus, no_source, annotator=tagger)


def test_entity_expansion_emits_new_terms(tagger):
    corpus = make_corpus(["She went hiking with Dr. Chen back then."])
    prior = grep_candidates(corpus, term_set(("hiking", 2.0)))
    new_terms = entity_expansion_hop(
        [corpus.get(c.passage_id) for c in prior.candidates],
        tagger, exclude=frozenset({"hiking", "melanie"}),
    )
    assert [(t.surface, t.weight, t.provenance) for t in new_terms.terms] == [
        ("Dr. Chen", 2.5, "entity-hop"),
    ]


def test_entity_hop_skips_the_query_terms(tagger):
    # Both mentions are query terms, so the first entity hop mines nothing
    # and the loop ends after the query's own grep.
    corpus = make_corpus(["Melanie talked about Seattle."])
    result = retrieve("what did Melanie say about Seattle", corpus, annotator=tagger)
    assert {"melanie", "seattle"} <= {t.surface.lower() for t in result.terms}
    assert result.hops_executed == 1
    assert [c.hop for c in result.candidates] == [0]


def test_entity_hop_mines_a_name_inside_a_query_word(tagger):
    # "ann" lies inside "planning", but Ann is no query term, so the hop
    # greps for her and finds the second passage.
    corpus = make_corpus(["I met Ann at the planning meeting.", "Ann flew home to Oslo."])
    result = retrieve("Who was at the planning meeting?", corpus, annotator=tagger)
    assert [(c.passage_id, c.hop) for c in result.candidates] == [("s:0", 0), ("s:1", 1)]


def test_hops_over_no_passages_yield_no_terms(tagger):
    assert entity_expansion_hop([], tagger, exclude=frozenset()) == WeightedTermSet(())
    assert prf_hop([], tagger, min_doc_freq=2, exclude=frozenset()) == WeightedTermSet(())


def test_prf_mines_recurring_nouns(tagger):
    corpus = make_corpus([
        "The trailhead parking was full at dawn.",
        "We reached the trailhead after sunrise.",
        "Unrelated chatter about bread.",
    ])
    ranked = ["s:0", "s:1"]
    new_terms = prf_hop(
        [corpus.get(pid) for pid in ranked], tagger,
        min_doc_freq=2, exclude=frozenset({"dawn"}),
    )
    surfaces = {t.surface for t in new_terms.terms}
    assert "trailhead" in surfaces
    assert "parking" not in surfaces  # appears in one passage only
    assert all(t.weight == 0.5 and t.provenance == "prf" for t in new_terms.terms)


# Filler words share no substring with the fallback queries' terms, so a
# passage holds exactly the query words it is given.
FILLER = ("amber", "cobalt", "dune", "fjord", "glacier", "island", "jungle",
          "kelp", "lagoon", "meadow", "nectar", "orchid")


def fallback_corpus(seed, size=120):
    """More passages than SEMANTIC_FALLBACK_TOP_N; about a third hold one of
    the words Melanie, bake or bread, and none holds two."""
    rng = random.Random(seed)
    texts = []
    for _ in range(size):
        words = rng.sample(FILLER, rng.randint(2, 6))
        if rng.random() < 0.35:
            words.insert(rng.randrange(len(words) + 1),
                         rng.choice(("Melanie", "baked", "bread")))
        texts.append(" ".join(words) + ".")
    return make_corpus(texts)


class LengthScorer:
    """Integer scores with many ties, so id order decides inside them and
    the top slice cuts through a tie."""

    def score(self, query, texts):
        return [len(text) % 7 for text in texts]


class DownScorer:
    def score(self, query, texts):
        raise ScorerUnavailableError("scorer host down")


def served(scorer, stack, name="svc"):
    """A handle for `scorer` served by a ReferenceServer that `stack` closes."""
    server = stack.enter_context(ReferenceServer(score_fn=scorer.score))
    return ScorerHandle(name=name, kind="pointwise-cross", endpoint=server.endpoint)


UNAVAILABLE = ("semantic-fallback-unavailable: service at {endpoint} refused request: "
               "ScorerUnavailableError: scorer host down",)
FALLBACK_CASES = {
    # name: (query, served scorer or None for the in-process one,
    #        expected hops, expected warnings)
    "or-no-hit": ("Where is the zanzibar quodlibet?", None, 1, ()),
    "or-no-hit-served": ("Where is the zanzibar quodlibet?", LengthScorer(), 1, ()),
    "empty-terms": ("the of and", None, 0, ("empty-term-set: no content terms in query",)),
    "empty-terms-served": ("the of and", LengthScorer(), 0,
                           ("empty-term-set: no content terms in query",)),
    "scorer-unavailable": ("Where is the zanzibar quodlibet?", DownScorer(), 1, UNAVAILABLE),
}


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_fallback_set_through_retrieve_equals_brute_force(case, seed, tagger):
    query, scorer, hops, warnings = FALLBACK_CASES[case]
    corpus = fallback_corpus(seed)
    passages = corpus.passages
    terms = parse_query(query, tagger).terms
    # Brute force: each passage's OR sum, the weights of the terms its text
    # holds added in term order; the top SEMANTIC_FALLBACK_TOP_N fallback
    # scores in (-score, id) order. In process, a passage scores its sum
    # minus 0.001 per word; a served scorer scores the texts.
    sums = [sum(t.weight for t in terms if t.surface.lower() in p.text.lower())
            for p in passages]
    assert not any(sums), "the fallback runs only when no passage holds a term"
    if scorer is None:
        dense_scores = [m - 0.001 * len(p.text.split()) for m, p in zip(sums, passages)]
    else:
        try:
            dense_scores = scorer.score(query, [p.text for p in passages])
        except ScorerUnavailableError:
            dense_scores = None
    if dense_scores is None:
        top = []
    else:
        top = sorted(range(len(passages)),
                     key=lambda i: (-dense_scores[i], passages[i].id))
        top = top[:SEMANTIC_FALLBACK_TOP_N]
        assert len(passages) > len(top) == SEMANTIC_FALLBACK_TOP_N

    with ExitStack() as stack:
        # The fallback scores with the first served handle, wherever it
        # stands, and in process when no handle is served.
        scorers = [ScorerHandle(name="lex")]
        if scorer is not None:
            scorers.append(served(scorer, stack))
            warnings = tuple(w.format(endpoint=scorers[1].endpoint) for w in warnings)
        result = retrieve(query, corpus, RetrieveConfig(), tagger, scorers)

    assert result.ids() == [passages[i].id for i in top]
    assert [c.match_score for c in result.candidates] == [
        float(dense_scores[i]) for i in top]
    assert all(type(c.match_score) is float for c in result.candidates)
    assert result.hops_executed == hops
    assert all(c.hop == hops for c in result.candidates)
    assert result.term_sums == tuple(sums[i] for i in top)
    assert result.warnings == warnings
    assert result.query_id == query_id_for(query)
    if scorer is None:
        # With no scorer given, retrieve falls back in process as well.
        assert retrieve(query, corpus, RetrieveConfig(), tagger) == result


def test_retrieve_single_hop(tagger, fixture_corpus_path):
    corpus = read_corpus(fixture_corpus_path)
    result = retrieve("What did Caroline bake for the farmers market?", corpus,
                      annotator=tagger)
    assert "s1:3" in result.ids()
    top = result.candidates[0]
    assert top.passage_id == "s1:3"
    assert top.hop == 0


def assert_candidates_consistent(result: CandidateSet) -> None:
    """What Candidate holds by construction, checked on retrieve's output:
    every hop lies in [0, hops_executed], and only PRF and the dense
    fallback add candidates at hops_executed. The fallback runs only when no
    grep found a candidate, so it puts every candidate there; a PRF
    candidate scores a whole number of PRF_WEIGHTs. Each record is a plain
    Candidate, as its keyword-built twin."""
    for c in result.candidates:
        twin = Candidate(passage_id=c.passage_id, match_score=c.match_score, hop=c.hop)
        assert type(c) is Candidate and repr(c) == repr(twin)
    hops = [c.hop for c in result.candidates]
    assert all(0 <= hop <= result.hops_executed for hop in hops)
    if any(hop < result.hops_executed for hop in hops):
        for c in result.candidates:
            if c.hop == result.hops_executed:
                assert c.match_score > 0 and c.match_score % PRF_WEIGHT == 0


def test_retrieve_two_hop_bridges_entity(tagger, fixture_corpus_path):
    corpus = read_corpus(fixture_corpus_path)
    cfg = RetrieveConfig()
    result = retrieve("What job does Gina have now?", corpus, cfg, annotator=tagger)
    ids = set(result.ids())
    # s1:7 shares no query term; it is reachable only through the
    # organization named in s1:5.
    assert {"s1:5", "s1:7"} <= ids
    assert result.hops_executed == 2
    hop_of = {c.passage_id: c.hop for c in result.candidates}
    assert hop_of["s1:5"] == 0
    assert hop_of["s1:7"] == 1
    for question in load_questions(fixture_path("questions.json"), corpus):
        assert_candidates_consistent(
            retrieve(question.text, corpus, cfg, annotator=tagger))
    # "kayak" recurs in both Javier passages, so PRF finds s:2 last.
    prf = retrieve("What did Javier buy?", make_corpus([
        "Javier bought a kayak.", "Javier painted the kayak red.",
        "The kayak sank in the lake.",
    ]), cfg, annotator=tagger)
    assert_candidates_consistent(prf)
    assert [(c.passage_id, c.hop) for c in prf.candidates][-1] == ("s:2", prf.hops_executed)


def test_retrieve_expansion_disabled_misses_bridge(tagger, fixture_corpus_path):
    corpus = read_corpus(fixture_corpus_path)
    cfg = RetrieveConfig(max_hops=1, prf_source_top_n=0)
    result = retrieve("What job does Gina have now?", corpus, cfg, annotator=tagger)
    ids = set(result.ids())
    assert "s1:5" in ids
    assert "s1:7" not in ids
    assert result.hops_executed == 1


def test_retrieve_top_m_zero_mines_no_entities(tagger, fixture_corpus_path):
    # Entity hops read the first top-m candidates; none read means no hop.
    corpus = read_corpus(fixture_corpus_path)
    query = "What job does Gina have now?"
    result = retrieve(query, corpus, RetrieveConfig(entity_hop_source_top_m=0,
                                                    prf_source_top_n=0),
                      annotator=tagger)
    assert result.candidates == retrieve(
        query, corpus, RetrieveConfig(max_hops=1, prf_source_top_n=0),
        annotator=tagger).candidates
    assert result.hops_executed == 1


def test_retrieve_dedup_keeps_max_score_and_min_hop(tagger):
    # "Rainier" arrives at hop 0 with a low weight and again via the
    # entity hop; the merge must keep the higher score and earlier hop.
    corpus = make_corpus([
        "I climbed near Mount Rainier with my brother Javier.",
        "Javier loved the climb.",
    ])
    result = retrieve("Did Javier climb?", corpus, annotator=tagger)
    seen = {c.passage_id: c for c in result.candidates}
    assert seen["s:0"].hop == 0
    best = max(c.match_score for c in result.candidates)
    assert seen["s:0"].match_score == best


class Flat:
    def score(self, query, items):
        return [0.0] * len(items)


def test_retrieve_empty_grep_falls_back(tagger, tiny_corpus):
    with ExitStack() as stack:
        result = retrieve("zanzibar quodlibet", tiny_corpus, annotator=tagger,
                          scorers=[served(Flat(), stack)])
    assert len(result) == len(tiny_corpus)
    assert result.hops_executed == 1
    assert all(c.hop == 1 for c in result.candidates)
    assert_candidates_consistent(result)
    # Flat scores: ordering falls back to passage id.
    assert result.ids()[0] == "s:0"


@pytest.mark.parametrize("query", ["Where is GINA'S bakery?", "Where is GINA’S bakery?",
                                   "Where is Gina's bakery?"])
def test_a_possessive_is_clipped_in_either_case(tagger, query):
    # Only the name can match, so the passage is found by grep at hop 0 with
    # the name's weight, not by the fallback.
    corpus = make_corpus(["Gina opened a shop downtown.", "The weather was mild."])
    terms = parse_query(query, tagger).terms
    assert [(t.surface.lower(), t.weight) for t in terms] == [("gina", 4.0), ("bakery", 2.0)]
    found = retrieve(query, corpus, annotator=tagger)
    assert found.candidates == (Candidate("s:0", 4.0, 0),)


def test_retrieve_no_fallback_available(tagger, tiny_corpus):
    # The fallback always runs when grep finds nothing; with its served
    # scorer down, nothing is retrieved and the warning says why.
    with ExitStack() as stack:
        result = retrieve("zanzibar quodlibet", tiny_corpus, annotator=tagger,
                          scorers=[served(DownScorer(), stack)])
    assert len(result) == 0
    assert result.hops_executed == 1
    assert [w.partition(":")[0] for w in result.warnings] == ["semantic-fallback-unavailable"]


def test_retrieve_empty_term_set_warns(tagger, tiny_corpus):
    with ExitStack() as stack:
        result = retrieve("the of and", tiny_corpus, annotator=tagger,
                          scorers=[served(Flat(), stack)])
    assert result.hops_executed == 0
    assert any("empty-term-set" in w for w in result.warnings)
    assert result and all(c.hop == 0 for c in result.candidates)
    assert_candidates_consistent(result)


def test_max_hops_bounds_expansion(tagger):
    # A chain of passages each naming the next entity; expansion must stop
    # after max_hops grep rounds.
    corpus = make_corpus([
        "Alice talked to Barnaby.",
        "Barnaby mentioned Corwin.",
        "Corwin praised Delmont.",
        "Delmont thanked Evander.",
    ])
    cfg = RetrieveConfig(max_hops=2, prf_source_top_n=0)
    result = retrieve("Who talked to Alice?", corpus, cfg, annotator=tagger)
    assert result.hops_executed <= 2
    ids = set(result.ids())
    assert "s:3" not in ids


def test_query_id_is_stable():
    assert query_id_for("abc") == query_id_for("abc")
    assert query_id_for("abc") != query_id_for("abd")
    assert len(query_id_for("abc")) == 12


def test_retrieve_config_validation():
    # Retrieval greps one way and always falls back: neither is a setting.
    with pytest.raises(TypeError):
        RetrieveConfig(mode="AND")
    with pytest.raises(TypeError):
        RetrieveConfig(fallback_enabled=False)
    with pytest.raises(ValueError):
        RetrieveConfig(max_hops=0)
    with pytest.raises(ValueError):
        RetrieveConfig(prf_min_doc_freq=0)
    # Expansion reads the first N of the candidate order; a negative N has no
    # such reading.
    with pytest.raises(ValueError):
        RetrieveConfig(entity_hop_source_top_m=-1)
    with pytest.raises(ValueError):
        RetrieveConfig(prf_source_top_n=-1)


@pytest.mark.parametrize("name", ["max_hops", "entity_hop_source_top_m", "prf_min_doc_freq",
                                  "prf_source_top_n"])
@pytest.mark.parametrize("value", [2.5, True, "2"])
def test_retrieve_config_limits_are_ints(name, value):
    # A bool is no int, and a fraction no count of hops or passages.
    with pytest.raises(ValueError, match=f"^{name} must be int, got {re.escape(repr(value))}$"):
        RetrieveConfig(**{name: value})
