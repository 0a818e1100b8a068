"""Corpus construction, ingestion formats, and gold annotation loading."""

import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrep import corpus as corpus_module
from memgrep.corpus import (
    Corpus,
    Passage,
    corpus_metadata,
    corpus_to_jsonl,
    ingest,
    load_questions,
    read_corpus,
    write_corpus,
)
from memgrep.errors import (
    DanglingGoldError,
    DuplicateTurnError,
    EmptyCorpusError,
    MalformedDocumentError,
)
from memgrep.parse import WeightedTerm, WeightedTermSet
from memgrep.retrieve import grep_search

from conftest import make_corpus


def test_passage_lookup_and_length(tiny_corpus):
    assert len(tiny_corpus) == 3
    assert "s:1" in tiny_corpus
    assert tiny_corpus.get("s:1").speaker == "A"
    assert "s:9" not in tiny_corpus


def test_search_surface_is_case_insensitive(tiny_corpus):
    for surface in ("javier", "JAVIER", "mOUNT rAINIER"):
        terms = WeightedTermSet.from_terms(
            [WeightedTerm(surface, 3.0, "query")], query_text="q")
        assert grep_search(tiny_corpus, terms).ids() == ["s:0"]


def test_checksum_is_content_addressed():
    a = make_corpus(["one", "two"])
    b = make_corpus(["one", "two"])
    c = make_corpus(["one", "three"])
    assert a.checksum == b.checksum
    assert a.checksum != c.checksum


def test_building_and_reading_a_corpus_do_not_hash(monkeypatch, tmp_path):
    calls = []
    real = corpus_module._checksum

    def counting(passages):
        calls.append(len(passages))
        return real(passages)

    monkeypatch.setattr(corpus_module, "_checksum", counting)
    corpus = make_corpus(["one", "two", "three"])
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, path)
    back = read_corpus(path)
    assert calls == []
    assert back.checksum == back.checksum == corpus.checksum
    assert calls == [3, 3]


def test_equal_passages_and_label_give_equal_corpora():
    a = make_corpus(["one", "two"])
    b = make_corpus(["one", "two"])
    assert a.checksum  # cached on a only; equality and hash must not see it
    assert a == b
    assert hash(a) == hash(b)
    assert a.checksum == b.checksum
    relabeled = Corpus(passages=a.passages, source_label="other")
    assert relabeled != a
    assert relabeled.checksum == a.checksum


_TRICKY_CHARS = st.sampled_from(
    ["\u2028", "\u2029", "\x85", "\x00", '"', "\\", "\r", "\n", "é", "İ", "雪", "\U0001F600"])
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | _TRICKY_CHARS, max_size=12)


@st.composite
def _passages(draw):
    """1-8 passages with unique (session_id, turn_index), in that order, so
    read_corpus gives them back in the order they were built."""
    keys = sorted(draw(st.sets(
        st.tuples(st.sampled_from(["a", "b\u2028", "c\x85"]), st.integers(0, 5)),
        min_size=1, max_size=8)))
    return tuple(
        Passage(
            id=f"{session}:{turn}", session_id=session, turn_index=turn,
            speaker=draw(_TEXT), text=draw(_TEXT),
            timestamp=draw(st.none() | _TEXT),
        )
        for session, turn in keys
    )


@settings(max_examples=60, deadline=None)
@given(passages=_passages())
def test_checksum_is_sha256_of_written_file(tmp_path_factory, passages):
    corpus = Corpus(passages=passages)
    path = tmp_path_factory.mktemp("checksum") / "corpus.jsonl"
    write_corpus(corpus, path)
    assert corpus.checksum == hashlib.sha256(path.read_bytes()).hexdigest()
    assert read_corpus(path).checksum == corpus.checksum


def test_corpus_preserves_construction_order():
    passages = (
        Passage(id="b:0", session_id="b", turn_index=0, speaker="X", text="later"),
        Passage(id="a:0", session_id="a", turn_index=0, speaker="X", text="earlier"),
    )
    corpus = Corpus(passages=passages)
    assert [p.id for p in corpus] == ["b:0", "a:0"]


def test_ingest_generic_jsonl(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        '{"session_id": "a", "turn_index": 1, "speaker": "Y", "text": "second"}\n'
        '{"session_id": "a", "turn_index": 0, "speaker": "X", "text": "first"}\n'
    )
    corpus = ingest(raw, "generic-jsonl")
    assert [p.id for p in corpus] == ["a:0", "a:1"]
    assert corpus.get("a:0").text == "first"


def test_ingest_rejects_unknown_format(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text("{}")
    with pytest.raises(MalformedDocumentError):
        ingest(raw, "csv")


def test_ingest_rejects_duplicate_turn(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        '{"session_id": "a", "turn_index": 0, "speaker": "X", "text": "one"}\n'
        '{"session_id": "a", "turn_index": 0, "speaker": "Y", "text": "two"}\n'
    )
    with pytest.raises(DuplicateTurnError):
        ingest(raw, "generic-jsonl")


def test_ingest_empty_file(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text("\n\n")
    with pytest.raises(EmptyCorpusError):
        ingest(raw, "generic-jsonl")


def test_ingest_malformed_line_reports_position(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text('{"session_id": "a"}\nnot json\n')
    with pytest.raises(MalformedDocumentError):
        ingest(raw, "generic-jsonl")


def test_ingest_generic_jsonl_keeps_unicode_line_separators(tmp_path):
    texts = ["line\u2028separator", "next\x85line"]
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(
        json.dumps({"session_id": "a", "turn_index": i, "speaker": "X", "text": t},
                   ensure_ascii=False) + "\n"
        for i, t in enumerate(texts)
    ), encoding="utf-8")
    corpus = ingest(raw, "generic-jsonl")
    assert [p.text for p in corpus] == texts


def test_ingest_locomo_like(tmp_path):
    raw = tmp_path / "raw.json"
    doc = {
        "conversation": {
            "session_1": [
                {"speaker": "Melanie", "text": "hello", "dia_id": "D1:3"},
                {"speaker": "Caroline", "text": "hi there"},
            ],
            "session_1_date_time": "1:14 pm on 8 May, 2023",
        }
    }
    raw.write_text(json.dumps(doc))
    corpus = ingest(raw, "locomo-like")
    ids = [p.id for p in corpus]
    # dia_id is preserved where present; positional fallback otherwise.
    assert "D1:3" in ids
    assert "session_1:1" in ids
    assert corpus.get("D1:3").timestamp == "1:14 pm on 8 May, 2023"


def test_ingest_locomo_multiple_conversations_get_prefixes(tmp_path):
    raw = tmp_path / "raw.json"
    doc = [
        {"conversation": {"session_1": [{"speaker": "A", "text": "x"}]}},
        {"conversation": {"session_1": [{"speaker": "B", "text": "y"}]}},
    ]
    raw.write_text(json.dumps(doc))
    corpus = ingest(raw, "locomo-like")
    assert {p.id for p in corpus} == {"c0-session_1:0", "c1-session_1:0"}


def test_ingest_longmemeval_like(tmp_path):
    raw = tmp_path / "raw.json"
    doc = {
        "haystack_session_ids": ["sess_a"],
        "haystack_sessions": [
            [
                {"role": "user", "content": "question text"},
                {"role": "assistant", "content": "answer text"},
            ]
        ],
    }
    raw.write_text(json.dumps(doc))
    corpus = ingest(raw, "longmemeval-like")
    assert len(corpus) == 2
    assert corpus.get("sess_a:0").speaker == "user"
    assert corpus.get("sess_a:1").text == "answer text"


def test_canonical_round_trip(tmp_path, tiny_corpus):
    path = tmp_path / "corpus.jsonl"
    write_corpus(tiny_corpus, path)
    back = read_corpus(path)
    assert back.checksum == tiny_corpus.checksum
    assert [p.to_record() for p in back] == [p.to_record() for p in tiny_corpus]
    # Serialization itself is stable.
    assert corpus_to_jsonl(back) == corpus_to_jsonl(tiny_corpus)


def test_canonical_round_trip_keeps_unicode_line_separators(tmp_path):
    # json.dumps(ensure_ascii=False) writes these separators raw in strings.
    corpus = make_corpus(["line\u2028separator", "next\x85line", "group\x1dsep"])
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, path)
    assert read_corpus(path).checksum == corpus.checksum


def test_read_corpus_rejects_garbage(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("{}\n")
    with pytest.raises(MalformedDocumentError):
        read_corpus(path)


def test_corpus_metadata_fields(tiny_corpus):
    meta = corpus_metadata(tiny_corpus)
    assert meta["passage_count"] == 3
    assert meta["checksum"] == tiny_corpus.checksum


def test_load_questions_json_list(tmp_path, tiny_corpus):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([
        {"question_id": "q1", "question": "who hiked?", "gold_passage_ids": ["s:0"]},
        {"question_id": "q2", "gold_passage_ids": []},
    ]))
    questions = load_questions(path, tiny_corpus)
    assert questions[0].gold_passage_ids == frozenset({"s:0"})
    assert questions[1].gold_passage_ids == frozenset()
    assert questions[0].gold.question_id == "q1"


def test_load_questions_jsonl(tmp_path, tiny_corpus):
    path = tmp_path / "q.jsonl"
    path.write_text(
        '{"question_id": "q1", "gold_passage_ids": ["s:1"]}\n'
        '{"question_id": "q2", "gold_passage_ids": ["s:2"]}\n'
    )
    assert len(load_questions(path, tiny_corpus)) == 2


def test_load_questions_jsonl_keeps_unicode_line_separators(tmp_path, tiny_corpus):
    path = tmp_path / "q.jsonl"
    path.write_text(
        json.dumps({"question_id": "q1", "question": "who\u2028hiked?",
                    "gold_passage_ids": ["s:0"]}, ensure_ascii=False) + "\n"
        + json.dumps({"question_id": "q2", "question": "baked\x85what?",
                      "gold_passage_ids": ["s:1"]}, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    questions = load_questions(path, tiny_corpus)
    assert [q.text for q in questions] == ["who\u2028hiked?", "baked\x85what?"]


@pytest.mark.parametrize("bad_record, message", [
    ({"gold_passage_ids": []}, "missing question_id"),
    ({"question_id": "q2", "gold_passage_ids": "s:1"}, "must be a list"),
])
def test_load_questions_jsonl_errors_name_the_line(tmp_path, tiny_corpus,
                                                   bad_record, message):
    path = tmp_path / "q.jsonl"
    path.write_text(
        '{"question_id": "q1", "gold_passage_ids": ["s:0"]}\n\n'
        + json.dumps(bad_record) + "\n"
    )
    with pytest.raises(MalformedDocumentError, match=re.escape(f"{path}:3: ") + f".*{message}"):
        load_questions(path, tiny_corpus)


def test_load_questions_collects_all_dangling_ids(tmp_path, tiny_corpus):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([
        {"question_id": "q1", "gold_passage_ids": ["s:0", "nope:1"]},
        {"question_id": "q2", "gold_passage_ids": ["nope:2"]},
    ]))
    with pytest.raises(DanglingGoldError) as err:
        load_questions(path, tiny_corpus)
    assert len(err.value.missing) == 2


def test_corpus_rejects_duplicate_id():
    passages = (
        Passage(id="a:0", session_id="a", turn_index=0, speaker="X", text="one"),
        Passage(id="b:0", session_id="b", turn_index=0, speaker="X", text="two"),
        Passage(id="a:0", session_id="a", turn_index=1, speaker="X", text="three"),
    )
    with pytest.raises(DuplicateTurnError, match="^duplicate passage ids: a:0$"):
        Corpus(passages=passages)


def test_read_corpus_names_lines_of_repeated_id(tmp_path):
    lines = [
        {"id": "a:0", "session_id": "a", "turn_index": 0, "speaker": "X", "text": "one"},
        {"id": "a:1", "session_id": "a", "turn_index": 1, "speaker": "X", "text": "two"},
        {"id": "a:0", "session_id": "a", "turn_index": 0, "speaker": "Y", "text": "again"},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    with pytest.raises(DuplicateTurnError) as err:
        read_corpus(path)
    assert str(err.value) == f"{path}:3: passage id 'a:0' repeats line 1"


def test_bundled_fixture_is_valid(fixture_corpus_path, fixture_questions_path):
    corpus = read_corpus(fixture_corpus_path)
    assert len(corpus) == 10
    assert all(p.id == f"{p.session_id}:{p.turn_index}" for p in corpus)
    keys = [(p.session_id, p.turn_index) for p in corpus]
    assert keys == sorted(keys)
    assert all(p.text.strip() for p in corpus)
    questions = load_questions(fixture_questions_path, corpus)
    assert len(questions) == 5
    assert all(q.gold_passage_ids for q in questions)
