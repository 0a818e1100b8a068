"""Substring retrieval, expansion hops, and the fallback path."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memgrep.annotate import RuleAnnotator
from memgrep.corpus import load_questions, read_corpus
from memgrep.errors import ScorerUnavailableError
from memgrep.parse import PRF_WEIGHT, WeightedTerm, WeightedTermSet, parse_query
from memgrep.retrieve import (
    Candidate,
    CandidateSet,
    RetrieveConfig,
    entity_expansion_hop,
    grep_search,
    prf_hop,
    query_id_for,
    retrieve,
    semantic_fallback,
)

from conftest import fixture_path, grep_candidates, make_corpus


@pytest.fixture(scope="module")
def tagger():
    return RuleAnnotator()


def term_set(*pairs, query_text="q"):
    return WeightedTermSet.from_terms(
        [WeightedTerm(s, w, "query") for s, w in pairs], query_text=query_text,
    )


def test_grep_or_scores_sum_of_matched_weights():
    corpus = make_corpus([
        "alpha beta gamma",
        "alpha only here",
        "nothing relevant",
    ])
    hits = grep_search(corpus, term_set(("alpha", 2.0), ("beta", 1.0)))
    assert hits == {0: [("alpha", 2.0), ("beta", 1.0)], 1: [("alpha", 2.0)]}
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
    hits = grep_search(corpus, term_set(("alpha", 1.0), ("beta", 1.0)), mode="AND")
    assert hits == {0: [("alpha", 1.0), ("beta", 1.0)]}


def test_grep_tie_breaks_by_passage_id():
    corpus = make_corpus(["same word", "same word", "same word"])
    result = grep_candidates(corpus, term_set(("word", 2.0)))
    assert [c.passage_id for c in result.candidates] == ["s:0", "s:1", "s:2"]


def test_grep_repeated_occurrences_count_once():
    corpus = make_corpus(["echo echo echo echo"])
    assert grep_search(corpus, term_set(("echo", 2.0))) == {0: [("echo", 2.0)]}


def test_grep_empty_terms_rejected(tiny_corpus):
    with pytest.raises(ValueError):
        grep_search(tiny_corpus, WeightedTermSet(terms=(), query_text="q"))


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
    """Per passage, per term: ``needle in text.lower()``."""
    rows = []
    for passage in corpus:
        matched = tuple((t.surface, t.weight) for t in terms.terms
                        if t.surface.lower() in passage.text.lower())
        if not matched or (mode == "AND" and len(matched) != len(terms.terms)):
            continue
        rows.append((passage.id, matched, sum(w for _, w in matched)))
    rows.sort(key=lambda row: (-row[2], row[0]))
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
         for surface, (provenance, weight) in pairs],
        query_text="q",
    )
    result = grep_candidates(corpus, terms, mode)
    got = [(c.passage_id, c.matched_terms, c.match_score) for c in result.candidates]
    assert got == reference_grep(corpus, terms, mode)


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
    expansion hop reads the current order."""
    merged = {}

    def merge(term_set, mode, hop):
        for pid, matched, score in reference_grep(corpus, term_set, mode):
            held = merged.get(pid)
            if held is None or score > held[0]:
                merged[pid] = (score, matched, hop if held is None else held[2])

    def ordered():
        rows = sorted(merged.items(), key=lambda row: (-row[1][0], row[0]))
        return tuple(Candidate(pid, score, matched, hop)
                     for pid, (score, matched, hop) in rows)

    terms = parse_query(query, annotator)
    searched = set(terms.surfaces_lower())
    merge(terms, cfg.mode, 0)
    hops = 1
    while cfg.entity_hop_enabled and merged and hops < cfg.max_hops:
        top = [corpus.get(c.passage_id) for c in ordered()[:cfg.entity_hop_source_top_m]]
        if not top:
            break
        new_terms = entity_expansion_hop(top, terms, annotator,
                                         exclude=frozenset(searched))
        if not new_terms.terms:
            break
        searched.update(new_terms.surfaces_lower())
        merge(new_terms, "OR", hops)
        hops += 1
    if cfg.prf_enabled and merged:
        top = [corpus.get(c.passage_id) for c in ordered()[:cfg.prf_source_top_n]]
        prf_terms = prf_hop(top, annotator, min_doc_freq=cfg.prf_min_doc_freq,
                            exclude=frozenset(searched), query_text=query)
        if prf_terms.terms:
            merge(prf_terms, "OR", hops)
    return ordered(), hops


@settings(max_examples=200, deadline=None, database=None)
@given(texts=st.lists(_SENTENCE, min_size=1, max_size=14),
       query=st.lists(st.sampled_from(_NAMES + _NOUNS), min_size=1, max_size=3)
       .map(lambda ws: "What did " + " ".join(ws) + " do?"),
       max_hops=st.integers(1, 3), prf=st.booleans(),
       mode=st.sampled_from(["OR", "AND"]), top_m=st.integers(0, 4),
       top_n=st.integers(1, 4), min_doc_freq=st.integers(1, 2))
def test_retrieve_matches_per_hop_reference(tagger, texts, query, max_hops, prf,
                                            mode, top_m, top_n, min_doc_freq):
    corpus = make_corpus(texts)
    cfg = RetrieveConfig(mode=mode, max_hops=max_hops, prf_enabled=prf,
                         entity_hop_source_top_m=top_m, prf_source_top_n=top_n,
                         prf_min_doc_freq=min_doc_freq, fallback_enabled=False)
    result = retrieve(query, corpus, cfg, annotator=tagger)
    candidates, hops = reference_retrieve(query, corpus, cfg, tagger)
    assert result.candidates == candidates
    assert result.hops_executed == hops


def test_entity_expansion_emits_new_terms(tagger):
    corpus = make_corpus(["She went hiking with Dr. Chen back then."])
    prior = grep_candidates(corpus, term_set(("hiking", 2.0),
                                             query_text="Who did Melanie hike with?"))
    new_terms = entity_expansion_hop(
        [corpus.get(c.passage_id) for c in prior.candidates],
        term_set(("hiking", 2.0), ("Melanie", 4.0),
                 query_text="Who did Melanie hike with?"),
        tagger,
    )
    assert [(t.surface, t.weight, t.provenance) for t in new_terms] == [
        ("Dr. Chen", 2.5, "entity-hop"),
    ]


def test_entity_expansion_skips_terms_already_in_query(tagger):
    corpus = make_corpus(["Melanie talked about Seattle."])
    prior = grep_candidates(corpus, term_set(("talked", 1.0),
                                             query_text="what did Melanie say about Seattle"))
    new_terms = entity_expansion_hop(
        [corpus.get(c.passage_id) for c in prior.candidates],
        term_set(("talked", 1.0), ("Melanie", 4.0), ("Seattle", 4.0),
                 query_text="what did Melanie say about Seattle"),
        tagger,
    )
    assert len(new_terms) == 0


def test_entity_expansion_requires_candidates(tagger):
    with pytest.raises(ValueError):
        entity_expansion_hop([], term_set(("x", 1.0)), tagger)


def test_prf_mines_recurring_nouns(tagger):
    corpus = make_corpus([
        "The trailhead parking was full at dawn.",
        "We reached the trailhead after sunrise.",
        "Unrelated chatter about bread.",
    ])
    ranked = ["s:0", "s:1"]
    new_terms = prf_hop(
        [corpus.get(pid) for pid in ranked], tagger,
        exclude=frozenset({"dawn"}), query_text="when did you start",
    )
    surfaces = {t.surface for t in new_terms}
    assert "trailhead" in surfaces
    assert "parking" not in surfaces  # appears in one passage only
    assert all(t.weight == 0.5 and t.provenance == "prf" for t in new_terms)


def test_semantic_fallback_orders_by_score(tiny_corpus):
    class Doubler:
        def score(self, query, items):
            return [float(len(item)) for item in items]

    result = semantic_fallback("anything", tiny_corpus, Doubler(), top_n=2)
    texts = sorted(tiny_corpus, key=lambda p: -len(p.text))
    assert [c.passage_id for c in result.candidates] == [p.id for p in texts[:2]]
    assert all(c.matched_terms == () for c in result.candidates)


def test_semantic_fallback_without_scorer(tiny_corpus):
    with pytest.raises(ScorerUnavailableError):
        semantic_fallback("anything", tiny_corpus, None)


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
    a grep candidate scores the sum of its matched weights, and every hop
    lies in [0, hops_executed]. Only PRF (all weights PRF_WEIGHT) and the
    dense fallback (no matched terms) add candidates at hops_executed."""
    for c in result.candidates:
        if c.matched_terms:
            assert c.match_score == pytest.approx(
                sum(weight for _, weight in c.matched_terms), abs=1e-9)
        assert 0 <= c.hop <= result.hops_executed
        if c.hop == result.hops_executed:
            assert all(weight == PRF_WEIGHT for _, weight in c.matched_terms)


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
    cfg = RetrieveConfig(entity_hop_enabled=False, prf_enabled=False)
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
                                                    prf_enabled=False),
                      annotator=tagger)
    assert result.candidates == retrieve(
        query, corpus, RetrieveConfig(max_hops=1, prf_enabled=False),
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


def test_retrieve_empty_grep_falls_back(tagger, tiny_corpus):
    class Flat:
        def score(self, query, items):
            return [0.0] * len(items)

    result = retrieve("zanzibar quodlibet", tiny_corpus, annotator=tagger,
                      dense_scorer=Flat())
    assert len(result) == len(tiny_corpus)
    assert result.hops_executed == 1
    assert all(c.hop == 1 for c in result.candidates)
    assert_candidates_consistent(result)
    # Flat scores: ordering falls back to passage id.
    assert result.ids()[0] == "s:0"


def test_retrieve_no_fallback_available(tagger, tiny_corpus):
    cfg = RetrieveConfig(fallback_enabled=False)
    result = retrieve("zanzibar quodlibet", tiny_corpus, cfg, annotator=tagger)
    assert len(result) == 0
    assert any("no-candidates" in w for w in result.warnings)


def test_retrieve_empty_term_set_warns(tagger, tiny_corpus):
    class Flat:
        def score(self, query, items):
            return [0.0] * len(items)

    result = retrieve("the of and", tiny_corpus, annotator=tagger,
                      dense_scorer=Flat())
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
    cfg = RetrieveConfig(max_hops=2, prf_enabled=False)
    result = retrieve("Who talked to Alice?", corpus, cfg, annotator=tagger)
    assert result.hops_executed <= 2
    ids = set(result.ids())
    assert "s:3" not in ids


def test_query_id_is_stable():
    assert query_id_for("abc") == query_id_for("abc")
    assert query_id_for("abc") != query_id_for("abd")
    assert len(query_id_for("abc")) == 12


def test_retrieve_config_validation():
    with pytest.raises(ValueError):
        RetrieveConfig(mode="XOR")
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
