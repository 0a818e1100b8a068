"""Rule annotator: tagging, entity extraction, and the service adapter."""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrep.annotate import (
    ENTITY_LABELS,
    MEMO_SIZE,
    POS_TAGS,
    EntityMention,
    RuleAnnotator,
    ServiceAnnotator,
    TokenAnnotation,
    _read_lexicon,
)
from memgrep.corpus import load_questions, read_corpus
from memgrep.errors import PartialResponseError, ScorerUnavailableError
from memgrep.retrieve import retrieve
from memgrep.service import ReferenceServer

from conftest import annotation_payload
from reference_annotator import ReferenceAnnotator


@pytest.fixture(scope="module")
def tagger():
    return RuleAnnotator()


def tags(annotator, text):
    return [(a.token, a.pos) for a in annotator.annotate(text)]


def test_annotate_basic_sentence(tagger):
    got = tagger.annotate("Melanie went hiking")
    assert got == [
        TokenAnnotation("Melanie", "PROPN", "PERSON"),
        TokenAnnotation("went", "VERB", None),
        TokenAnnotation("hiking", "NOUN", None),
    ]


def test_annotate_person_place_and_honorific(tagger):
    got = tagger.annotate("Melanie met Dr. Chen in Seattle")
    by_token = {a.token: a for a in got}
    assert by_token["Melanie"].pos == "PROPN"
    assert by_token["Dr"].pos == "PROPN"
    assert by_token["Chen"].pos == "PROPN"
    assert by_token["met"].pos == "VERB"
    assert by_token["in"].pos == "OTHER"
    assert by_token["Seattle"].entity_label == "LOC"
    entities = tagger.extract_entities("Melanie met Dr. Chen in Seattle")
    assert entities == [
        EntityMention("Melanie", "PERSON"),
        EntityMention("Dr. Chen", "PERSON"),
        EntityMention("Seattle", "LOC"),
    ]


def test_stopwords_are_other(tagger):
    assert tags(tagger, "the a of") == [
        ("the", "OTHER"), ("a", "OTHER"), ("of", "OTHER"),
    ]


def test_entity_dedup_is_case_insensitive(tagger):
    assert tagger.extract_entities("Melanie and melanie") == [
        EntityMention("Melanie", "PERSON"),
    ]


def test_multiword_place_and_date_word(tagger):
    got = tagger.annotate("She visited New York in July.")
    by_token = {a.token: a for a in got}
    assert by_token["July"].pos == "OTHER"
    entities = tagger.extract_entities("She visited New York in July.")
    assert EntityMention("New York", "LOC") in entities


def test_event_and_org_keywords(tagger):
    entities = tagger.extract_entities("Did Javier join the Jazz Festival with Acme Corp?")
    assert EntityMention("Jazz Festival", "EVENT") in entities
    assert EntityMention("Acme Corp", "ORG") in entities
    assert EntityMention("Javier", "PERSON") in entities


def test_sentence_initial_verb_not_mistaken_for_name(tagger):
    got = tagger.annotate("Tell Sarah about the camping trip near Lake Tahoe.")
    by_token = {a.token: a for a in got}
    assert by_token["Tell"].pos == "VERB"
    assert by_token["Sarah"].pos == "PROPN"
    assert by_token["camping"].pos == "NOUN"
    entities = tagger.extract_entities("Tell Sarah about the camping trip near Lake Tahoe.")
    assert EntityMention("Lake Tahoe", "LOC") in entities


def test_digits_are_other(tagger):
    assert tags(tagger, "run 42 miles b4 dawn") == [
        ("run", "VERB"), ("42", "OTHER"), ("miles", "NOUN"),
        ("b4", "OTHER"), ("dawn", "NOUN"),
    ]


def test_possessive_is_stripped(tagger):
    got = [a.token for a in tagger.annotate("Gina's job")]
    assert got == ["Gina", "job"]


def test_hyphen_and_apostrophe_stay_inside_token(tagger):
    got = [a.token for a in tagger.annotate("well-known don't")]
    assert got == ["well-known", "don't"]


def test_suffix_heuristics(tagger):
    by_token = {a.token: a for a in tagger.annotate("the celebration will simplify happiness")}
    assert by_token["celebration"].pos == "NOUN"
    assert by_token["simplify"].pos == "VERB"
    assert by_token["happiness"].pos == "NOUN"


def test_ed_and_ing_forms(tagger):
    by_token = {a.token: a for a in tagger.annotate("she baked bread while hiking")}
    assert by_token["baked"].pos == "VERB"
    assert by_token["hiking"].pos == "NOUN"


def test_unknown_capitalized_midsentence_is_propn(tagger):
    by_token = {a.token: a for a in tagger.annotate("we visited Birchwood yesterday")}
    assert by_token["Birchwood"].pos == "PROPN"
    assert by_token["yesterday"].pos == "OTHER"


def test_blank_text_has_no_tokens_or_mentions(tagger):
    assert tagger.annotate("") == []
    assert tagger.extract_entities(" \n") == []


def test_pos_and_label_vocabularies():
    assert POS_TAGS == ("PROPN", "NOUN", "VERB", "OTHER")
    assert ENTITY_LABELS == ("PERSON", "ORG", "LOC", "EVENT")


def test_service_annotator_round_trip(tagger):
    def annotate_fn(items):
        return annotation_payload(tagger, items)

    with ReferenceServer(annotate_fn=annotate_fn) as server:
        remote = ServiceAnnotator(server.endpoint)
        text = "Melanie met Dr. Chen in Seattle"
        assert remote.annotate(text) == tagger.annotate(text)
        assert remote.extract_entities(text) == tagger.extract_entities(text)


def test_records_are_named_tuples_with_the_dataclass_surface():
    token = TokenAnnotation("Melanie", "PROPN")
    mention = EntityMention("Melanie", "PERSON")
    assert token == ("Melanie", "PROPN", None)
    assert mention == ("Melanie", "PERSON")
    assert repr(token) == "TokenAnnotation(token='Melanie', pos='PROPN', entity_label=None)"
    assert repr(mention) == "EntityMention(surface='Melanie', label='PERSON')"
    with pytest.raises(AttributeError):
        token.pos = "NOUN"
    with pytest.raises(AttributeError):
        mention.label = "LOC"


# --- the one-pass analysis equals the seed's ---

@pytest.fixture(scope="module")
def reference():
    return ReferenceAnnotator()


def assert_same_analysis(tagger, reference, text):
    got, want = tagger._analyze_text(text), reference._analyze_text(text)
    assert got == want
    assert repr(got) == repr(want)   # same record types, field for field


TRICKY_TEXTS = [
    "Dr. Smith met Mr. Jones in New York.",
    "Ms.  Lee’s car",
    "Dr.. Who",
    "Mr.\nSmith",
    "Prof. Dr. Chen visited New  York City.",
    "Tell Sarah. Call Mr. Lee!",
    "New York is big. Seattle too",
    "Visit Paris… Rome?! Lisbon",
    "İstanbul and ǅemal met Élise in JUNE",
    "Room 3 and x² and ٣ and b4",
    "Gina's job, James’s car and O'Brien-Smith's house",
    "snake_case Melanie_Chen a_b",
    "Acme Corp hosted the Jazz Festival at Lake Tahoe",
    "THE NEW YORK MARATHON",
    "running celebration simplify baked",
    "Ed's It's 's ’s",
    "a- -b 'c' well--known",
    "Dr.\tChen\t\tNew York",
]


@pytest.mark.parametrize("text", TRICKY_TEXTS)
def test_analysis_matches_the_reference_on_tricky_texts(tagger, reference, text):
    assert_same_analysis(tagger, reference, text)


_WORDS = st.sampled_from(
    [word for name in ("stopwords.txt", "first_names.txt", "verbs.txt", "date_words.txt",
                       "org_keywords.txt", "event_keywords.txt", "places.txt")
     for word in _read_lexicon(name)]
    + ["Birchwood", "hiking", "celebration", "simplify", "baked", "realise",
       "Élise", "İstanbul", "ǅemal", "3", "²", "٣", "b4", "x²", "_"])
_HONORIFICS = st.sampled_from(_read_lexicon("honorifics.txt")).flatmap(
    lambda word: st.sampled_from([word, word + "."]))
_CASES = st.sampled_from([str.lower, str.capitalize, str.upper, str])
_JOINS = st.sampled_from(["", "", "", "'s", "’s", "-", "'", "_"])
_GAPS = st.sampled_from([" ", " ", " ", "  ", "\t", "\n", ". ", "… ", "?!", "..", ", "])


@st.composite
def _texts(draw):
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        word = draw(_CASES)(draw(_WORDS | _HONORIFICS))
        join = draw(_JOINS)
        if join in ("-", "'", "_"):
            word += join + draw(_CASES)(draw(_WORDS))
        else:
            word += join
        parts.append(word + draw(_GAPS))
    return "".join(parts)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(text=_texts())
def test_analysis_matches_the_reference(tagger, reference, text):
    assert_same_analysis(tagger, reference, text)


# --- one analysis per text ---

class CountingAnnotator(RuleAnnotator):
    """Counts how often each text is analysed, the unit the memo keys."""

    def __init__(self):
        super().__init__()
        self.analyzed = Counter()

    def _analyze_text(self, text):
        self.analyzed[text] += 1
        return super()._analyze_text(text)


def test_retrieve_analyzes_each_text_once(fixture_corpus_path,
                                          fixture_questions_path):
    corpus = read_corpus(fixture_corpus_path)
    for question in load_questions(fixture_questions_path, corpus):
        annotator = CountingAnnotator()
        retrieve(question.text, corpus, annotator=annotator)
        assert question.text in annotator.analyzed
        assert len(annotator.analyzed) > 1   # the hops mined some passages
        assert max(annotator.analyzed.values()) == 1, annotator.analyzed


def test_shared_memo_under_concurrent_callers(tagger):
    # More texts than the memo holds, so threads evict each other's entries.
    texts = [f"Melanie met Dr. Chen{i} in Seattle" for i in range(MEMO_SIZE * 2)]
    expected = {t: (tagger.annotate(t), tagger.extract_entities(t)) for t in texts}
    shared = RuleAnnotator()
    wrong = []

    def worker(offset):
        for i in range(len(texts) * 3):
            text = texts[(offset * 7 + i) % len(texts)]
            got = (shared.annotate(text), shared.extract_entities(text))
            if got != expected[text]:
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


class CountingPayload:
    """annotate_fn for a ReferenceServer: counts requests, and answers each
    from a queue of canned replies while it lasts, then from the tagger."""

    def __init__(self, tagger, replies=()):
        self.tagger = tagger
        self.replies = list(replies)
        self.requests = 0

    def __call__(self, items):
        self.requests += 1
        if self.replies:
            reply = self.replies.pop(0)
            if isinstance(reply, Exception):
                raise reply
            return reply
        return annotation_payload(self.tagger, items)


def test_service_annotator_sends_one_request_per_distinct_text(tagger):
    texts = ["Melanie met Dr. Chen in Seattle", "Tell Sarah about Lake Tahoe.",
             "Melanie met Dr. Chen in Seattle"]
    payload = CountingPayload(tagger)
    with ReferenceServer(annotate_fn=payload) as server:
        remote = ServiceAnnotator(server.endpoint)
        for text in texts:
            assert remote.annotate(text) == tagger.annotate(text)
            assert remote.extract_entities(text) == tagger.extract_entities(text)
    assert payload.requests == len(set(texts))


def test_service_annotator_asks_about_blank_text_like_any_other(tagger):
    payload = CountingPayload(tagger)
    with ReferenceServer(annotate_fn=payload) as server:
        remote = ServiceAnnotator(server.endpoint)
        assert remote.annotate(" \n") == []
        assert remote.extract_entities(" \n") == []
    assert payload.requests == 1


def test_memoized_results_survive_caller_mutation(tagger):
    text = "Melanie met Dr. Chen in Seattle"
    with ReferenceServer(annotate_fn=CountingPayload(tagger)) as server:
        for annotator in (RuleAnnotator(), ServiceAnnotator(server.endpoint)):
            tokens = annotator.annotate(text)
            entities = annotator.extract_entities(text)
            expected = (list(tokens), list(entities))
            tokens.clear()
            entities.append(EntityMention("Nobody", "PERSON"))
            entities.reverse()
            assert (annotator.annotate(text),
                    annotator.extract_entities(text)) == expected


@pytest.mark.parametrize("failure, error", [
    ([], PartialResponseError),                       # no entry for the text
    (["not an object"], PartialResponseError),
    (RuntimeError("tagger crashed"), ScorerUnavailableError),
])
def test_failed_service_call_is_not_memoized(tagger, failure, error):
    text = "Melanie met Dr. Chen in Seattle"
    payload = CountingPayload(tagger, replies=[failure])
    with ReferenceServer(annotate_fn=payload) as server:
        remote = ServiceAnnotator(server.endpoint)
        with pytest.raises(error):
            remote.extract_entities(text)
        assert remote.extract_entities(text) == tagger.extract_entities(text)
        assert remote.annotate(text) == tagger.annotate(text)
    assert payload.requests == 2


@pytest.mark.parametrize("entities", [
    None,
    [{"surface": "Melanie", "label": "ALIEN"}],
    [{"surface": 7, "label": "PERSON"}],
    ["Melanie"],
])
def test_malformed_entities_fail_only_extract_entities(tagger, entities):
    text = "Melanie met Dr. Chen in Seattle"
    entry = annotation_payload(tagger, [text])[0]
    entry["entities"] = entities
    payload = CountingPayload(tagger, replies=[[entry]])
    with ReferenceServer(annotate_fn=payload) as server:
        remote = ServiceAnnotator(server.endpoint)
        assert remote.annotate(text) == tagger.annotate(text)
        with pytest.raises(PartialResponseError):
            remote.extract_entities(text)
        assert payload.requests == 1
        # The failure leaves nothing memoized: the next call asks again.
        assert remote.extract_entities(text) == tagger.extract_entities(text)
    assert payload.requests == 2


def test_malformed_tokens_fail_only_annotate(tagger):
    text = "Melanie met Dr. Chen in Seattle"
    entry = annotation_payload(tagger, [text])[0]
    entry["tokens"] = [{"token": "Melanie", "pos": "ADJ"}]
    payload = CountingPayload(tagger, replies=[[entry]])
    with ReferenceServer(annotate_fn=payload) as server:
        remote = ServiceAnnotator(server.endpoint)
        assert remote.extract_entities(text) == tagger.extract_entities(text)
        with pytest.raises(PartialResponseError):
            remote.annotate(text)
        assert remote.annotate(text) == tagger.annotate(text)
    assert payload.requests == 2


def test_empty_token_is_a_partial_response(tagger):
    text = "Melanie met Dr. Chen in Seattle"
    entry = annotation_payload(tagger, [text])[0]
    entry["tokens"][0]["token"] = ""
    payload = CountingPayload(tagger, replies=[[entry]])
    with ReferenceServer(annotate_fn=payload) as server:
        remote = ServiceAnnotator(server.endpoint)
        with pytest.raises(PartialResponseError, match="bad token annotation"):
            remote.annotate(text)
        # The failure leaves nothing memoized: the next call asks again.
        assert remote.annotate(text) == tagger.annotate(text)
    assert payload.requests == 2


@pytest.mark.parametrize("token", [5, ["x"]], ids=["number", "list"])
def test_non_string_token_is_a_partial_response(tagger, token):
    text = "Melanie met Dr. Chen in Seattle"
    entry = annotation_payload(tagger, [text])[0]
    entry["tokens"][0]["token"] = token
    payload = CountingPayload(tagger, replies=[[entry]])
    with ReferenceServer(annotate_fn=payload) as server:
        remote = ServiceAnnotator(server.endpoint)
        with pytest.raises(PartialResponseError, match="bad token annotation"):
            remote.annotate(text)
        assert remote.annotate(text) == tagger.annotate(text)
    assert payload.requests == 2
