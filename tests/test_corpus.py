"""Corpus construction, ingestion formats, and gold annotation loading."""

import gc
import hashlib
import json
import re
import weakref
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrep import corpus as corpus_module
from memgrep.corpus import (
    INGEST_FORMATS,
    SCAN_CHARS,
    Corpus,
    Passage,
    corpus_metadata,
    corpus_to_jsonl,
    ingest,
    load_questions,
    read_corpus,
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


def test_word_count_splits_on_whitespace():
    corpus = make_corpus(["one  two\tthree\nfour", ""])
    assert corpus.word_count("s:0") == 4
    assert corpus.word_count("s:1") == 0


def test_search_surface_is_case_insensitive(tiny_corpus):
    for surface in ("javier", "JAVIER", "mOUNT rAINIER"):
        terms = WeightedTermSet.from_terms([WeightedTerm(surface, 3.0, "query")])
        assert list(grep_search(tiny_corpus, terms)) == [0]


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
    path.write_text(corpus_to_jsonl(corpus), encoding="utf-8")
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


def test_equality_hash_and_repr_ignore_the_scan_surface():
    a = make_corpus(["One", "Two"])
    b = make_corpus(["One", "Two"])
    object.__setattr__(b, "scan", (("tampered", (0, 9), 0),))
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert "scan" not in repr(a)


def test_scan_surface_joins_lowered_texts_in_blocks():
    corpus = make_corpus(["İb", "", "C\x00d"])
    assert corpus.scan == (("i\u0307b\x00\x00c\x00d", (0, 4, 5, 9), 0),)
    # "İ" * 5000 lowers to 10,000 characters, so the first two texts join to
    # SCAN_CHARS - 1 lowered characters (24,999 unlowered). One more passage,
    # even an empty one, brings the text to SCAN_CHARS: it starts a block. A
    # text of SCAN_CHARS characters or more is a block of its own.
    texts = ["İ" * 5000, "B" * (SCAN_CHARS - 10_002), "", "C" * SCAN_CHARS, "D", "e"]
    blocks = make_corpus(texts).scan
    assert [(len(starts) - 1, base) for _, starts, base in blocks] == [
        (2, 0), (1, 2), (1, 3), (2, 4)]
    assert blocks[0] == ("i\u0307" * 5000 + "\x00" + "b" * (SCAN_CHARS - 10_002),
                         (0, 10_001, SCAN_CHARS), 0)
    assert [text for text, _, _ in blocks[1:]] == ["", "c" * SCAN_CHARS, "d\x00e"]


# Texts near the block limit: a run of "x" of none, one under or half of
# SCAN_CHARS, or one under, at or one over it, then a drawn tail. Two
# half-runs join to the limit and a tail moves that either way; "İ" lowers
# to two characters, so the lowered lengths, not the texts', decide.
_SCAN_RUN = st.sampled_from([0, SCAN_CHARS // 2 - 1, SCAN_CHARS // 2,
                             SCAN_CHARS - 1, SCAN_CHARS, SCAN_CHARS + 1])
_SCAN_TAIL = st.text(st.sampled_from(["İ", "Σ", "\x00", "a", "x"]), max_size=4)
_SCAN_NEEDLE = st.text(st.sampled_from(["İ", "i", "\u0307", "Σ", "σ", "\x00", "a", "x"]),
                       min_size=1, max_size=7)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(texts=st.lists(st.builds(lambda run, tail: "x" * run + tail, _SCAN_RUN, _SCAN_TAIL),
                      max_size=8),
       needles=st.lists(_SCAN_NEEDLE, min_size=1, max_size=4))
def test_scan_blocks_pack_passages_greedily_under_the_limit(texts, needles):
    corpus = make_corpus(texts)
    lowered = [text.lower() for text in texts]
    end = 0
    for k, (text, starts, base) in enumerate(corpus.scan):
        # The blocks tile the passages in order.
        assert base == end and len(starts) >= 2
        end = base + len(starts) - 1
        assert text == "\x00".join(lowered[base:end])
        assert starts == tuple(accumulate((len(t) + 1 for t in lowered[base:end]), initial=0))
        assert len(text) < SCAN_CHARS or end - base == 1
        if k < len(corpus.scan) - 1:    # the next passage would reach the limit
            assert len(text) + 1 + len(lowered[end]) >= SCAN_CHARS
    assert end == len(texts)
    for needle in needles:
        hits = grep_search(corpus, WeightedTermSet.from_terms([WeightedTerm(needle, 1.0, "query")]))
        assert set(hits) == {i for i, t in enumerate(lowered) if needle.lower() in t}


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
    path.write_text(corpus_to_jsonl(corpus), encoding="utf-8")
    assert corpus.checksum == hashlib.sha256(path.read_bytes()).hexdigest()
    assert read_corpus(path).checksum == corpus.checksum


def _turns(session, texts, count):
    """count passages of one session, their texts taken in turn from texts."""
    return tuple(Passage(f"{session}:{i}", session, i, "A", texts[i % len(texts)])
                 for i in range(count))


def _fresh(passages):
    """A full build of passages, over copies, so that no live corpus was built
    over its first Passage object."""
    return Corpus(tuple(Passage(*p) for p in passages))


# "İ" lowers to two characters and "Σ" to "σ" (str.lower has no final-sigma
# rule), so offsets and texts differ from the unlowered ones.
_APPEND_TEXT = st.text(st.sampled_from(["İ", "Σ", "\x00", "\n", "a", "B", " "]), max_size=6)
# Texts of a third of a block less 4 characters, plus a drawn text: three of
# them fit in a block only when their drawn texts lower to under 10 characters
# together, so where the blocks seal depends on the draw.
_THIRD = "y" * (SCAN_CHARS // 3 - 4)
_LOG = 13   # passages in the log whose prefixes `a` is built over


@settings(max_examples=60, deadline=None, derandomize=True)
@given(texts=st.lists(_APPEND_TEXT.map(_THIRD.__add__), min_size=1, max_size=4),
       added=st.sampled_from([0, 1, 2, 3, 5, 8]), data=st.data(),
       repeat=st.none() | st.integers(0, _LOG))
def test_appending_to_a_live_corpus_equals_a_fresh_build(texts, added, data, repeat):
    # Sizes at, one short of and one past each block seal of a fresh build.
    seals = [base for _, _, base in _fresh(_turns("a", texts, _LOG)).scan[1:]]
    assert len(seals) >= 3
    size = data.draw(st.sampled_from(
        sorted({1, 2, _LOG} | {seal + d for seal in seals for d in (-1, 0, 1)})))
    a = Corpus(_turns("a", texts, size))
    tail = _turns("b", texts[::-1], added)
    if repeat is not None:   # a new turn with the id of one of a's
        tail += (Passage(f"a:{repeat % size}", "a", repeat % size, "B", "again"),)
    passages = a.passages + tail
    if repeat is not None:
        with pytest.raises(DuplicateTurnError) as fresh_error:
            _fresh(passages)
        with pytest.raises(DuplicateTurnError, match=re.escape(str(fresh_error.value))):
            Corpus(passages)
        return
    new = Corpus(passages)
    fresh = _fresh(passages)
    assert new.passages == fresh.passages
    assert new.scan == fresh.scan
    for p in passages:
        assert p.id in new
        assert new.get(p.id) is p
        assert new.word_count(p.id) == fresh.word_count(p.id)
    assert "b:-1" not in new
    assert new.checksum == fresh.checksum
    assert new == fresh
    # The sealed blocks, all of a's but its last, are a's own, not rebuilt ones.
    for i in range(len(a.scan) - 1):
        assert new.scan[i] is a.scan[i]
    # The lookup of the corpus built last holds no corpus alive.
    refs = [weakref.ref(a), weakref.ref(new)]
    del a, new
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_build_over_no_live_prefix_is_a_full_build():
    # A block holds two of these passages: "İy" * 5000 lowers to 15,000.
    passages = _turns("a", ["x" * 10_000, "İy" * 5000], 9)
    seal = _fresh(passages).scan[1][2]
    assert seal == 2
    longer = Corpus(passages[:seal + 3])
    shorter = Corpus(passages[:seal + 1])           # the last build is longer
    assert len(shorter.scan) == 2
    assert shorter.scan[0] is not longer.scan[0]
    grown = Corpus(passages)                        # over `shorter`, the last build
    assert grown.scan[0] is shorter.scan[0]
    # Longer than `grown`, but it shares only the first passage object.
    other = Corpus(passages[:1] + _turns("b", ["z"], len(passages)))
    assert other.scan[0] is not grown.scan[0]
    assert other.scan == _fresh(other.passages).scan
    del other   # a discarded build takes the entry with it
    gc.collect()
    again = Corpus(passages)
    assert again.scan[0] is not grown.scan[0]
    assert again.scan == grown.scan
    # Equal passages that are other objects are no prefix either.
    copies = passages[:1] + tuple(map(Passage._make, passages[1:]))
    copied = Corpus(copies)
    assert all(copied.get(p.id) is p for p in copies)


# A session's date and its (speaker, text) turns. A date that is neither a
# string nor null, and a blank speaker or text, are rejected by ingest.
_SESSIONS = st.lists(
    st.tuples(st.none() | _TEXT | st.integers(0, 9),
              st.lists(st.tuples(_TEXT, _TEXT), min_size=1, max_size=3)),
    min_size=1, max_size=3)


def _raw_document(format, sessions, haystack):
    """sessions as a raw document of the ingest format; haystack picks the
    longmemeval-like question-record form."""
    if format == "generic-jsonl":
        return "".join(
            json.dumps({"session_id": f"s{k}", "turn_index": j, "speaker": speaker,
                        "text": text, "timestamp": date}, ensure_ascii=False) + "\n"
            for k, (date, turns) in enumerate(sessions)
            for j, (speaker, text) in enumerate(turns))
    if format == "locomo-like":
        conversation = {}
        for k, (date, turns) in enumerate(sessions, start=1):
            conversation[f"session_{k}"] = [{"speaker": s, "text": t} for s, t in turns]
            conversation[f"session_{k}_date_time"] = date
        return json.dumps({"conversation": conversation}, ensure_ascii=False)
    dates = [date for date, _ in sessions]
    turn_lists = [[{"role": s, "content": t} for s, t in turns] for _, turns in sessions]
    if haystack:
        doc = {"haystack_session_ids": [f"s{k}" for k in range(len(sessions))],
               "haystack_dates": dates, "haystack_sessions": turn_lists}
    else:
        doc = {"sessions": [{"session_id": f"s{k}", "date": date, "turns": turns}
                            for k, (date, turns) in enumerate(zip(dates, turn_lists))]}
    return json.dumps(doc, ensure_ascii=False)


@settings(max_examples=200, deadline=None)
@given(format=st.sampled_from(INGEST_FORMATS), sessions=_SESSIONS, haystack=st.booleans())
def test_ingested_corpus_reads_back_as_ingested(tmp_path_factory, format, sessions, haystack):
    folder = tmp_path_factory.mktemp("ingest")
    raw = folder / "raw"
    raw.write_text(_raw_document(format, sessions, haystack), encoding="utf-8")
    if any(date is not None and not isinstance(date, str) for date, _ in sessions) or any(
            not speaker or not text.strip() for _, turns in sessions for speaker, text in turns):
        with pytest.raises(MalformedDocumentError, match=f"^{re.escape(str(raw))}:"):
            ingest(raw, format)
        return
    corpus = ingest(raw, format)
    path = folder / "corpus.jsonl"
    path.write_text(corpus_to_jsonl(corpus), encoding="utf-8")
    back = read_corpus(path)
    assert back.passages == corpus.passages
    assert back.checksum == corpus.checksum


# Three sessions of four turns between two speakers, the first two on one
# date: every session id and speaker repeats. No value is one character long, as CPython
# keeps one object for each such string anyway.
_REPEATS = [(date, [(speaker, f"turn {k}.{j}")
                    for j, speaker in enumerate(["Caroline", "Melanie"] * 2)])
            for k, date in enumerate(["8 May 2023", "8 May 2023", None])]


@pytest.mark.parametrize("reader", ["canonical", *INGEST_FORMATS])
def test_a_read_corpus_holds_one_object_per_distinct_value(tmp_path, reader):
    raw = tmp_path / "raw"
    raw.write_text(_raw_document(reader if reader in INGEST_FORMATS else "generic-jsonl",
                                 _REPEATS, False), encoding="utf-8")
    if reader == "canonical":
        raw.write_text(corpus_to_jsonl(ingest(raw, "generic-jsonl")), encoding="utf-8")
    read = (lambda: read_corpus(raw)) if reader == "canonical" else (lambda: ingest(raw, reader))
    corpus = read()
    for name in ("session_id", "speaker"):
        values = [getattr(p, name) for p in corpus]
        assert len({id(v) for v in values}) == len(set(values)) > 1, name
    # The values are shared within one read only.
    assert read().passages[0].speaker is not corpus.passages[0].speaker
    # The records equal Passages made afresh, field by field.
    fresh = Corpus(tuple(Passage(**json.loads(json.dumps(p.to_record()))) for p in corpus),
                   corpus.source_label)
    assert all(type(p) is Passage for p in corpus)
    assert corpus.passages == fresh.passages
    assert (corpus.checksum, corpus.scan) == (fresh.checksum, fresh.scan)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("reader", ["canonical", "generic-jsonl"])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, reader, ending):
    # Line 3001 lies past the text reader's first chunk, whose own error
    # counts the position in that chunk.
    lines = [json.dumps({"id": f"a:{i}", "session_id": "a", "turn_index": i,
                         "speaker": "X", "text": "hi"}).encode() for i in range(3005)]
    lines[3000] = lines[3000].replace(b'"hi"', b'"h\xe9"')
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(ending.encode().join(lines) + ending.encode())
    with pytest.raises(MalformedDocumentError) as err:
        read_corpus(path) if reader == "canonical" else ingest(path, reader)
    at = lines[3000].index(b"\xe9")
    assert str(err.value) == (f"{path}:3001: not UTF-8: 'utf-8' codec can't decode byte "
                              f"0xe9 in position {at}: invalid continuation byte")


@pytest.mark.parametrize("byte_line", [5, 202])
def test_a_jsonl_reader_reports_the_first_fault_in_file_order(tmp_path, byte_line):
    # The text reader decodes about 8 KB ahead of the line it yields; a byte
    # that is not UTF-8 inside that chunk must not hide an earlier fault.
    lines = [json.dumps({"id": f"a:{i}", "session_id": "a", "turn_index": i,
                         "speaker": "X", "text": "hi"}).encode() for i in range(300)]
    lines[1] = b"{not json"
    lines[byte_line - 1] = lines[byte_line - 1].replace(b'"hi"', b'"h\xe9"')
    path = tmp_path / "turns.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(MalformedDocumentError, match=re.escape(f"{path}:2: invalid JSON")):
        ingest(path, "generic-jsonl")


@pytest.mark.parametrize("format", ["locomo-like", "longmemeval-like"])
def test_a_json_document_byte_that_is_not_utf8_names_its_line(tmp_path, format):
    text = json.dumps(json.loads(_raw_document(format, _REPEATS, False)), indent=1)
    lines = text.encode().split(b"\n")
    lines[4] = b"\xe9" + lines[4]
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\n".join(lines))
    with pytest.raises(MalformedDocumentError, match=re.escape(
            f"{raw}:5: not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 0")):
        ingest(raw, format)


def test_passage_keeps_its_record_contract():
    p = Passage("a:1", "a", 1, "X", "hi")
    same = Passage(id="a:1", session_id="a", turn_index=1, speaker="X", text="hi",
                   timestamp=None)
    record = {"id": "a:1", "session_id": "a", "turn_index": 1, "speaker": "X",
              "text": "hi", "timestamp": None}
    assert list(p.to_record().items()) == list(record.items())
    assert p.timestamp is None
    assert repr(p) == ("Passage(id='a:1', session_id='a', turn_index=1, speaker='X', "
                       "text='hi', timestamp=None)")
    assert p == same and hash(p) == hash(same) == hash(tuple(record.values()))
    assert p != Passage("a:1", "a", 1, "X", "hi", "2023-05-08")
    assert Passage(**record) == p
    p.to_record()["text"] = "changed"
    assert p.text == "hi"
    for name in record:
        with pytest.raises(AttributeError):
            setattr(p, name, "x")


# Line padding: JSON whitespace (a newline ends the line instead) and
# whitespace that str.strip removes but json does not accept.
_NON_JSON_SPACE = ["\xa0", "\x1c", "\x0b", "\x0c", "\x85", "\u2028", "\u3000"]
_PAD = st.text(st.sampled_from([" ", "\t", "\r", *_NON_JSON_SPACE]), max_size=3)
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6)
_DOC = st.builds(lambda value, ascii: json.dumps(value, ensure_ascii=ascii),
                 _JSON_VALUE, st.booleans())
_HUGE_INT = st.builds(lambda sign, n: sign + "7" * n,
                      st.sampled_from(["", "-"]), st.integers(4295, 4305))
_LINE = st.one_of(
    st.builds("".join, st.tuples(_PAD, _DOC, _PAD)),
    _PAD,
    st.builds("\ufeff".__add__, _DOC),
    st.builds("".join, st.tuples(_DOC, st.sampled_from(["x", "]", "}", ",", " 1", "\xa0z"]))),
    st.builds(lambda a, pad, b: a + pad + b, _DOC, _PAD, _DOC),
    st.builds(lambda doc: doc[:-1], _DOC),
    st.sampled_from(["NaN", "-Infinity", "[Infinity, NaN]", "nan"]),
    _HUGE_INT,
    st.builds('[{}, "x"]'.format, _HUGE_INT),
)


def _reference_records(path):
    """The JSONL records of path and its error, read with plain json.loads."""
    text = path.read_text(encoding="utf-8")   # \r\n and \r read as \n
    parts = text.split("\n")
    lines = [part + "\n" for part in parts[:-1]] + [parts[-1]]
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append((lineno, json.loads(line)))
        except ValueError as exc:
            return records, (MalformedDocumentError, f"{path}:{lineno}: invalid JSON: {exc}",
                             type(exc))
    return records, None


def _read_records(path):
    records = []
    try:
        for item in corpus_module._jsonl_records(path):
            records.append(item)
    except MalformedDocumentError as exc:
        return records, (type(exc), str(exc), type(exc.__cause__))
    return records, None


@settings(max_examples=300, deadline=None, database=None)
@given(lines=st.lists(_LINE, min_size=1, max_size=6), ending=st.sampled_from(["\n", "\r\n"]))
def test_jsonl_reader_matches_json_loads_per_line(tmp_path_factory, lines, ending):
    path = tmp_path_factory.mktemp("jsonl") / "doc.jsonl"
    path.write_bytes(ending.join(lines).encode("utf-8"))
    got, want = _read_records(path), _reference_records(path)
    # repr, so that a NaN equals itself
    assert repr(got) == repr(want)


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


def test_ingest_names_both_positions_of_a_repeated_json_turn(tmp_path):
    raw = tmp_path / "raw.json"
    turn = {"speaker": "A", "text": "hi", "dia_id": "D1:3"}
    raw.write_text(json.dumps({"conversation": {"session_1": [turn, turn]}}))
    with pytest.raises(DuplicateTurnError) as err:
        ingest(raw, "locomo-like")
    assert str(err.value) == f"{raw}:session_1[1]: passage id 'D1:3' repeats session_1[0]"


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


@pytest.mark.parametrize("haystack", [False, True])
def test_ingest_longmemeval_reads_an_int_session_id_as_its_string(tmp_path, haystack):
    raw = tmp_path / "raw.json"
    turns = [{"role": "user", "content": "hi"}]
    doc = ({"haystack_session_ids": [7], "haystack_sessions": [turns]} if haystack
           else {"sessions": [{"session_id": 7, "turns": turns}]})
    raw.write_text(json.dumps(doc))
    assert [p.id for p in ingest(raw, "longmemeval-like")] == ["7:0"]


def test_canonical_round_trip(tmp_path, tiny_corpus):
    path = tmp_path / "corpus.jsonl"
    path.write_text(corpus_to_jsonl(tiny_corpus), encoding="utf-8")
    back = read_corpus(path)
    assert back.checksum == tiny_corpus.checksum
    assert [p.to_record() for p in back] == [p.to_record() for p in tiny_corpus]
    # Serialization itself is stable.
    assert corpus_to_jsonl(back) == corpus_to_jsonl(tiny_corpus)


def test_canonical_round_trip_keeps_unicode_line_separators(tmp_path):
    # json.dumps(ensure_ascii=False) writes these separators raw in strings.
    corpus = make_corpus(["line\u2028separator", "next\x85line", "group\x1dsep"])
    path = tmp_path / "corpus.jsonl"
    path.write_text(corpus_to_jsonl(corpus), encoding="utf-8")
    assert read_corpus(path).checksum == corpus.checksum


@pytest.mark.parametrize("fields, message", [
    ({"turn_index": -3, "id": "a:-3"}, "turn_index must be >= 0, got -3"),
    ({"id": "a:01"}, "id must be 'a:1', got 'a:01'"),
    ({"id": "b:1"}, "id must be 'a:1', got 'b:1'"),
])
def test_read_corpus_holds_the_id_scheme(tmp_path, fields, message):
    lines = [
        {"id": "a:0", "session_id": "a", "turn_index": 0, "speaker": "X", "text": "one"},
        {"id": "a:1", "session_id": "a", "turn_index": 1, "speaker": "X", "text": "two"},
    ]
    lines[1].update(fields)
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    with pytest.raises(MalformedDocumentError) as err:
        read_corpus(path)
    assert str(err.value) == f"{path}:2: {message}"


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
        {"question_id": "q2", "question": "Who?", "gold_passage_ids": []},
    ]))
    questions = load_questions(path, tiny_corpus)
    assert questions[0].gold_passage_ids == frozenset({"s:0"})
    assert questions[1].gold_passage_ids == frozenset()
    assert questions[0].gold.question_id == "q1"


def test_load_questions_jsonl(tmp_path, tiny_corpus):
    path = tmp_path / "q.jsonl"
    path.write_text(
        '{"question_id": "q1", "question": "Who?", "gold_passage_ids": ["s:1"]}\n'
        '{"question_id": "q2", "question": "Who?", "gold_passage_ids": ["s:2"]}\n'
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
    ({"question": "Who?", "gold_passage_ids": []}, "missing question_id"),
    ({"question_id": "q2", "question": "Who?", "gold_passage_ids": "s:1"}, "must be a list"),
])
def test_load_questions_jsonl_errors_name_the_line(tmp_path, tiny_corpus,
                                                   bad_record, message):
    path = tmp_path / "q.jsonl"
    path.write_text(
        '{"question_id": "q1", "question": "Who?", "gold_passage_ids": ["s:0"]}\n\n'
        + json.dumps(bad_record) + "\n"
    )
    with pytest.raises(MalformedDocumentError, match=re.escape(f"{path}:3: ") + f".*{message}"):
        load_questions(path, tiny_corpus)


@pytest.mark.parametrize("jsonl", [False, True])
def test_load_questions_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, tiny_corpus,
                                                                  jsonl):
    records = [json.dumps({"question_id": f"q{i}", "question": "Who?",
                           "gold_passage_ids": []}) for i in range(4)]
    # A JSON list holds record i on line i + 2, and JSONL on line i + 1.
    text = "\n".join(records) if jsonl else "[\n" + ",\n".join(records) + "\n]"
    lines = text.encode().split(b"\n")
    lines[2] = lines[2].replace(b"Who", b"Wh\xe9")
    path = tmp_path / "q.json"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(MalformedDocumentError, match=re.escape(
            f"{path}:3: not UTF-8: 'utf-8' codec can't decode byte 0xe9")):
        load_questions(path, tiny_corpus)


def test_load_questions_reads_an_int_id_as_its_string(tmp_path, tiny_corpus):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([{"question_id": 12, "question": "Who?",
                                 "gold_passage_ids": ["s:0"]}]))
    assert [q.question_id for q in load_questions(path, tiny_corpus)] == ["12"]


def test_load_questions_jsonl_repeat_names_both_lines(tmp_path, tiny_corpus):
    path = tmp_path / "q.jsonl"
    path.write_text(
        '{"question_id": "q1", "question": "Who?", "gold_passage_ids": ["s:0"]}\n'
        '{"question_id": "q2", "question": "Who?", "gold_passage_ids": []}\n\n'
        '{"question_id": "q1", "question": "Who?", "gold_passage_ids": []}\n'
    )
    with pytest.raises(MalformedDocumentError) as err:
        load_questions(path, tiny_corpus)
    assert str(err.value) == f"{path}: question_id 'q1' appears at line 1 and line 4"


def test_load_questions_collects_all_dangling_ids(tmp_path, tiny_corpus):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([
        {"question_id": "q1", "question": "Who?", "gold_passage_ids": ["s:0", "nope:1"]},
        {"question_id": "q2", "question": "Who?", "gold_passage_ids": ["nope:2"]},
    ]))
    with pytest.raises(DanglingGoldError) as err:
        load_questions(path, tiny_corpus)
    assert err.value.missing == ["q1->nope:1", "q2->nope:2"]
    assert str(err.value) == (
        f"{path}: gold references unknown passage ids: q1->nope:1, q2->nope:2")


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


def test_read_corpus_counts_blank_lines_in_a_repeat_position(tmp_path):
    lines = [
        {"id": "a:0", "session_id": "a", "turn_index": 0, "speaker": "X", "text": "one"},
        {"id": "a:1", "session_id": "a", "turn_index": 1, "speaker": "X", "text": "two"},
        {"id": "a:0", "session_id": "a", "turn_index": 0, "speaker": "Y", "text": "again"},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n" + json.dumps(lines[0]) + "\n" + json.dumps(lines[1]) + "\n \n\n"
                    + json.dumps(lines[2]) + "\n")
    with pytest.raises(DuplicateTurnError) as err:
        read_corpus(path)
    assert str(err.value) == f"{path}:6: passage id 'a:0' repeats line 2"


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
