"""Query parsing into weighted term sets."""

from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrep.annotate import RuleAnnotator
from memgrep.errors import EmptyTermSetError
from memgrep.parse import (
    ENTITY_HOP_WEIGHT,
    POS_WEIGHTS,
    PRF_WEIGHT,
    WeightedTerm,
    WeightedTermSet,
    parse_query,
)
from memgrep.retrieve import entity_expansion_hop, prf_hop

from conftest import make_corpus


@pytest.fixture(scope="module")
def tagger():
    return RuleAnnotator()


def weights_of(term_set):
    return {t.surface: t.weight for t in term_set.terms}


def test_pos_weight_table():
    assert POS_WEIGHTS == {"PROPN": 3.0, "NOUN": 2.0, "VERB": 1.0}
    assert ENTITY_HOP_WEIGHT == 2.5
    assert PRF_WEIGHT == 0.5


def test_parse_weights_by_pos(tagger):
    terms = parse_query("Melanie went hiking", tagger)
    # PROPN inside an entity mention gets the +1 bonus.
    assert weights_of(terms) == {"Melanie": 4.0, "went": 1.0, "hiking": 2.0}
    assert all(t.provenance == "query" for t in terms.terms)


def test_parse_drops_stopwords_and_other(tagger):
    terms = parse_query("Where did Javier go hiking?", tagger)
    assert weights_of(terms) == {"Javier": 4.0, "go": 1.0, "hiking": 2.0}


def test_plain_noun_no_entity_bonus(tagger):
    terms = parse_query("what job does Gina have now", tagger)
    assert weights_of(terms) == {"job": 2.0, "Gina": 4.0}


def test_multiword_entity_adds_phrase_term(tagger):
    terms = parse_query("When is the Harvest Festival?", tagger)
    got = weights_of(terms)
    assert got["Harvest Festival"] == 4.0
    assert got["Harvest"] == 4.0
    assert got["Festival"] == 4.0


def test_all_stopwords_raise(tagger):
    with pytest.raises(EmptyTermSetError):
        parse_query("the of and", tagger)


def test_from_terms_keeps_first_casing_and_max_weight():
    merged = WeightedTermSet.from_terms(
        [
            WeightedTerm("gina", 2.0, "query"),
            WeightedTerm("Gina", 4.0, "query"),
            WeightedTerm("job", 2.0, "query"),
        ],
        query_text="q",
    )
    assert [t.surface for t in merged.terms] == ["gina", "job"]
    assert weights_of(merged)["gina"] == 4.0


def test_contains_surface_is_case_insensitive(tagger):
    terms = parse_query("Melanie went hiking", tagger)
    assert "melanie" in terms.surfaces_lower()
    assert "javier" not in terms.surfaces_lower()
    assert set(terms.surfaces_lower()) == {"melanie", "went", "hiking"}


def test_repeated_query_word_emitted_once(tagger):
    terms = parse_query("hiking trails and hiking", tagger)
    assert weights_of(terms) == {"hiking": 2.0, "trails": 2.0}


# --- the producers keep the term invariants ---
#
# WeightedTerm and WeightedTermSet do not check themselves; these properties
# check, over generated text, what their producers guarantee: non-empty
# surfaces that are unique case-insensitively, and each provenance's weights.

def _lexicon_words():
    lexicon = resources.files("memgrep").joinpath("data", "lexicon")
    return sorted({
        line.strip()
        for entry in lexicon.iterdir() if entry.name.endswith(".txt")
        for line in entry.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    } | {"hiking", "job", "bakery", "robots", "trail"})


_WORD = st.builds(
    lambda word, case, punct: case(word) + punct,
    st.sampled_from(_lexicon_words()),
    st.sampled_from([str, str.lower, str.upper, str.title, str.capitalize]),
    st.sampled_from(["", "", ".", ",", "?", "!", ";", "'s"]),
)
_SENTENCE = st.lists(_WORD, min_size=1, max_size=12).map(" ".join)


def assert_term_invariants(term_set, provenance, weights):
    lows = [term.surface.lower() for term in term_set]
    assert all(lows)
    assert len(lows) == len(set(lows)), lows
    assert {term.provenance for term in term_set} <= {provenance}
    assert {term.weight for term in term_set} <= set(weights)


@settings(max_examples=200, deadline=None)
@given(query=_SENTENCE)
def test_parse_query_yields_unique_query_terms(tagger, query):
    try:
        terms = parse_query(query, tagger)
    except EmptyTermSetError:
        return
    assert terms.terms
    assert_term_invariants(terms, "query", (1.0, 2.0, 3.0, 4.0))


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(_SENTENCE, min_size=1, max_size=6), query=_SENTENCE,
       min_doc_freq=st.integers(1, 3), data=st.data())
def test_expansion_hops_yield_unique_new_terms(tagger, texts, query, min_doc_freq, data):
    corpus = make_corpus(texts)
    surfaces = sorted(
        {m.surface.lower() for p in corpus for m in tagger.extract_entities(p.text)}
        | {a.token.lower() for p in corpus for a in tagger.annotate(p.text)})
    exclude = frozenset(data.draw(st.lists(st.sampled_from(surfaces), max_size=4)))
    try:
        original = parse_query(query, tagger)
    except EmptyTermSetError:
        original = WeightedTermSet(terms=(), query_text=query)
    hop = entity_expansion_hop(list(corpus), original, tagger, exclude=exclude)
    prf = prf_hop(list(corpus), tagger, min_doc_freq=min_doc_freq,
                  exclude=exclude, query_text=query)
    assert_term_invariants(hop, "entity-hop", (ENTITY_HOP_WEIGHT,))
    assert_term_invariants(prf, "prf", (PRF_WEIGHT,))
    for term_set in (hop, prf):
        assert not term_set.surfaces_lower() & exclude
