"""Query parsing into weighted term sets."""

import pytest

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


def test_duplicate_surfaces_rejected():
    with pytest.raises(ValueError):
        WeightedTermSet(
            terms=(
                WeightedTerm("Gina", 4.0, "query"),
                WeightedTerm("gina", 3.0, "query"),
            ),
            query_text="q",
        )


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


def test_query_weight_domain_enforced():
    with pytest.raises(ValueError):
        WeightedTerm("x", 5.0, "query")
    with pytest.raises(ValueError):
        WeightedTerm("x", 2.5, "query")
    # Expansion provenances carry their own fixed weights.
    assert WeightedTerm("x", 2.5, "entity-hop").weight == 2.5
    with pytest.raises(ValueError):
        WeightedTerm("x", 2.0, "entity-hop")
    assert WeightedTerm("x", 0.5, "prf").weight == 0.5
    with pytest.raises(ValueError):
        WeightedTerm("x", 1.0, "prf")


def test_unknown_provenance_rejected():
    with pytest.raises(ValueError):
        WeightedTerm("x", 1.0, "guess")


def test_empty_surface_rejected():
    with pytest.raises(ValueError):
        WeightedTerm("", 1.0, "query")


def test_contains_surface_is_case_insensitive(tagger):
    terms = parse_query("Melanie went hiking", tagger)
    assert "melanie" in terms.surfaces_lower()
    assert "javier" not in terms.surfaces_lower()
    assert set(terms.surfaces_lower()) == {"melanie", "went", "hiking"}


def test_repeated_query_word_emitted_once(tagger):
    terms = parse_query("hiking trails and hiking", tagger)
    assert weights_of(terms) == {"hiking": 2.0, "trails": 2.0}
