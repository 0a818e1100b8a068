"""Rule annotator: tagging, entity extraction, and its memo."""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memgrep
from memgrep.annotate import MEMO_SIZE, RuleAnnotator, TokenAnnotation, _read_lexicon
from memgrep.corpus import load_questions, read_corpus
from memgrep.retrieve import retrieve

from reference_annotator import ENTITY_LABELS, ReferenceAnnotator


@pytest.fixture(scope="module")
def tagger():
    return RuleAnnotator()


def tags(annotator, text):
    return [(a.token, a.pos) for a in annotator.annotate(text)]


def test_annotate_basic_sentence(tagger):
    got = tagger.annotate("Melanie went hiking")
    assert got == [
        TokenAnnotation("Melanie", "PROPN"),
        TokenAnnotation("went", "VERB"),
        TokenAnnotation("hiking", "NOUN"),
    ]


def test_annotate_person_place_and_honorific(tagger):
    got = tagger.annotate("Melanie met Dr. Chen in Seattle")
    by_token = {a.token: a for a in got}
    assert by_token["Melanie"].pos == "PROPN"
    assert by_token["Dr"].pos == "PROPN"
    assert by_token["Chen"].pos == "PROPN"
    assert by_token["met"].pos == "VERB"
    assert by_token["in"].pos == "OTHER"
    assert by_token["Seattle"].pos == "PROPN"
    entities = tagger.extract_entities("Melanie met Dr. Chen in Seattle")
    assert entities == ["Melanie", "Dr. Chen", "Seattle"]


def test_stopwords_are_other(tagger):
    assert tags(tagger, "the a of") == [
        ("the", "OTHER"), ("a", "OTHER"), ("of", "OTHER"),
    ]


def test_entity_dedup_is_case_insensitive(tagger):
    assert tagger.extract_entities("Melanie and melanie") == ["Melanie"]
    # Casing that clips a possessive differently still names one entity.
    assert tagger.extract_entities("Acme Corp's Festival and ACME CORP'S FESTIVAL") == [
        "Acme Corp's Festival"]


def test_multiword_place_and_date_word(tagger):
    got = tagger.annotate("She visited New York in July.")
    by_token = {a.token: a for a in got}
    assert by_token["July"].pos == "OTHER"
    entities = tagger.extract_entities("She visited New York in July.")
    assert "New York" in entities


def test_event_and_org_keywords(tagger):
    entities = tagger.extract_entities("Did Javier join the Jazz Festival with Acme Corp?")
    assert entities == ["Javier", "Jazz Festival", "Acme Corp"]


def test_sentence_initial_verb_not_mistaken_for_name(tagger):
    got = tagger.annotate("Tell Sarah about the camping trip near Lake Tahoe.")
    by_token = {a.token: a for a in got}
    assert by_token["Tell"].pos == "VERB"
    assert by_token["Sarah"].pos == "PROPN"
    assert by_token["camping"].pos == "NOUN"
    entities = tagger.extract_entities("Tell Sarah about the camping trip near Lake Tahoe.")
    assert "Lake Tahoe" in entities


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


def test_pos_vocabulary(tagger):
    # The four POS tags the rule annotator gives, each once here.
    assert tags(tagger, "Melanie went hiking yesterday") == [
        ("Melanie", "PROPN"), ("went", "VERB"), ("hiking", "NOUN"), ("yesterday", "OTHER")]


def test_the_package_has_no_served_annotator():
    # Every run uses the rule annotator; the served one left the public API.
    assert not hasattr(memgrep, "ServiceAnnotator")
    assert "ServiceAnnotator" not in memgrep.__all__


def test_records_are_named_tuples_with_the_dataclass_surface():
    token = TokenAnnotation("Melanie", "PROPN")
    assert token == ("Melanie", "PROPN")
    assert repr(token) == "TokenAnnotation(token='Melanie', pos='PROPN')"
    with pytest.raises(AttributeError):
        token.pos = "NOUN"


# --- the one-pass analysis equals the seed's ---

@pytest.fixture(scope="module")
def reference():
    return ReferenceAnnotator()


def unlabelled(analysis):
    """The reference's analysis without its labels: (token, pos) records and
    the first mention of each surface, case-insensitively."""
    tokens, mentions = analysis
    surfaces: list[str] = []
    for surface in (mention.surface for mention in mentions):
        if surface.lower() not in map(str.lower, surfaces):
            surfaces.append(surface)
    return tuple(TokenAnnotation(t.token, t.pos) for t in tokens), tuple(surfaces)


def assert_same_analysis(tagger, reference, text):
    got, want = tagger._analyze_text(text), unlabelled(reference._analyze_text(text))
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
    "Acme Corp's Festival and ACME CORP'S FESTIVAL",
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


# --- the labels the seed gave carried nothing the tags and surfaces do not ---

_ENTITY_WORDS = st.sampled_from(
    [word for name in ("places.txt", "org_keywords.txt", "event_keywords.txt",
                       "honorifics.txt", "first_names.txt")
     for word in _read_lexicon(name)])
_ENTITY_CASES = st.sampled_from([str, str.lower, str.upper, str.title, str.capitalize])
_ENTITY_JOINS = st.sampled_from(["", "", "", "'s", "’s", "'S", ".", "-"])
_ENTITY_GAPS = st.sampled_from([" ", " ", " ", "  ", ". ", ".\n", "\n", " - ", ", ", " and "])


@st.composite
def _entity_texts(draw):
    """Names, multi-word places and org and event keywords from the
    lexicons, in any case, with possessives, periods, newlines and hyphens."""
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        word = draw(_ENTITY_CASES)(draw(_ENTITY_WORDS))
        join = draw(_ENTITY_JOINS)
        if join == "-":
            word += join + draw(_ENTITY_CASES)(draw(_ENTITY_WORDS))
        else:
            word += join
        parts.append(word + draw(_ENTITY_GAPS))
    return "".join(parts)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(texts=st.lists(_entity_texts(), min_size=1, max_size=3))
@example(texts=["Acme Corp's Festival and ACME CORP'S FESTIVAL"])
def test_entity_labels_were_a_function_of_tags_and_surfaces(tagger, reference, texts):
    """The seed labelled exactly its PROPN tokens, and a surface as written
    got one label across texts. A lowercased one may get two: "CORP'S" keeps
    its upper-case possessive, so it is no org keyword and the example's
    second span reads EVENT, not ORG. Every reader of the mentions folds
    case, so the rule annotator keeps the first of each lowercased surface."""
    labels_of: dict[str, set[str]] = {}
    for text in texts:
        assert_same_analysis(tagger, reference, text)
        tokens, mentions = reference._analyze_text(text)
        assert [t.entity_label is not None for t in tokens] == [t.pos == "PROPN" for t in tokens]
        assert {t.entity_label for t in tokens} <= {None, *ENTITY_LABELS}
        for mention in mentions:
            labels_of.setdefault(mention.surface, set()).add(mention.label)
    assert all(len(labels) == 1 for labels in labels_of.values()), labels_of


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


def test_annotators_share_their_lexicons():
    # Each set is read once per process, not once per annotator.
    a, b = RuleAnnotator(), RuleAnnotator()
    for name in ("_stopwords", "_first_names", "_verbs", "_date_words", "_honorifics",
                 "_places_single"):
        assert getattr(a, name) is getattr(b, name), name
    assert a._verbs == {verb.lower() for verb in _read_lexicon("verbs.txt")}


def test_memoized_results_survive_caller_mutation():
    text = "Melanie met Dr. Chen in Seattle"
    annotator = RuleAnnotator()
    tokens = annotator.annotate(text)
    entities = annotator.extract_entities(text)
    expected = (list(tokens), list(entities))
    tokens.clear()
    entities.append("Nobody")
    entities.reverse()
    assert (annotator.annotate(text), annotator.extract_entities(text)) == expected
