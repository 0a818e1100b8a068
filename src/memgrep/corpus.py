"""Normalized, immutable passage store for conversation datasets.

A corpus is an ordered collection of passages, one per conversation turn.
Passage ids follow the scheme ``{session_id}:{turn_index}`` and are stable
across runs for identical input. The canonical interchange format is JSON
Lines, one passage per line, which together with a content checksum makes
ingestion reproducible byte-for-byte. The checksum is the sha256 of that
canonical JSONL (:func:`corpus_to_jsonl`'s output), taken on first read.
The memory grows by building ``Corpus(old.passages + new)``: while ``old`` is
alive, the new corpus shares its sealed scan blocks and copies its id map, so
an append costs the new turns and the last open block (under SCAN_CHARS
characters), not the whole log.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterator, NamedTuple

from .errors import (
    DanglingGoldError,
    DuplicateTurnError,
    EmptyCorpusError,
    MalformedDocumentError,
)

INGEST_FORMATS = ("locomo-like", "longmemeval-like", "generic-jsonl")

_PASSAGE_ID_RE = re.compile(r"^(?P<session>.+):(?P<turn>\d+)$")

# The JSON types each passage record field takes (a bool is not an int), and
# how an error names them, in Passage's field order.
_FIELD_TYPES = {
    "id": ((str,), "a string"), "session_id": ((str,), "a string"),
    "turn_index": ((int,), "an int"), "speaker": ((str,), "a string"),
    "text": ((str,), "a string"), "timestamp": ((str, type(None)), "a string or null"),
}

# A block of the scan surface, Corpus.scan, holds fewer characters than this
# unless it holds one passage. The value is CPython's own switch, not a tuned
# number: from 3.10, str.find leaves its bloom-filter search for the two-way
# algorithm once the haystack is 30,000 characters or longer and the needle 6
# or longer, and scans each character 25-35% slower there. On an interpreter
# without that switch, blocks are merely smaller than they need be. Building a
# block holds only that block's lowercased texts apart from the joined text.
SCAN_CHARS = 30_000
ScanBlock = tuple[str, tuple[int, ...], int]  # (text, starts, base)


class Passage(NamedTuple):
    """One conversation turn; the searchable unit.

    A NamedTuple, not a frozen dataclass: a corpus holds one per turn and
    read_corpus builds every one of them, and a tuple is built about three
    times as fast, is one tracked object instead of two and is smaller. Its
    fields, their order, the default, the repr, hash and to_record are the
    dataclass's, and assigning a field raises AttributeError as before."""

    id: str
    session_id: str
    turn_index: int
    speaker: str
    text: str
    timestamp: str | None = None

    def to_record(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class Corpus:
    """Immutable ordered passage store, addressable by passage id.

    Construction preserves the passage order it is given (ingestion sorts
    by (session_id, turn_index) before constructing) and rejects two
    passages with the same id with :class:`DuplicateTurnError`.

    ``checksum`` is the sha256 of :func:`corpus_to_jsonl`'s output, computed
    once, on first read: building a corpus or a query never hashes.
    ``word_count`` counts a passage's words on its first read too, so a
    corpus built for one question counts only the passages it ranks.

    Appending reuses the corpus it extends, with no method of its own.
    Construction looks up the corpus built last over the same first Passage
    object. When that corpus's passages are, object for object (``is``), a
    prefix of the new ones, the new corpus shares its sealed scan blocks
    (all but the last), builds the blocks from the last one's first passage
    on, and copies its id map and adds the new passages. This is exact: a
    Passage is immutable, so the same object lowers to the same text, and a
    block is sealed only before a passage that did not fit in it, which the
    new corpus holds too, so the result equals a full build. The lookup
    keeps no corpus alive: an entry lives only while its corpus does, and
    the per-passage ``is`` check, not the key, decides. Every other build
    (read_corpus, ingest, a non-prefix) is a full one; a temporary built
    over the same first passage and then discarded takes the entry with
    it, which just costs the next build a full rebuild. Each corpus starts
    its own ``word_count`` memo.

    A read or ingested corpus keeps one string per distinct session id and
    speaker: its reader shares equal values within that one read. Appended turns keep the caller's Passage objects, and so their
    own strings.
    """

    passages: tuple[Passage, ...]
    source_label: str = ""
    # The substring-search surface, in blocks of consecutive passages packed
    # greedily under SCAN_CHARS characters (see _scan_blocks). Each block is
    # (text, starts, base): the lowercased texts of passages base, base + 1,
    # ... joined by NUL, and the offset in text where each one starts, then
    # len(text) + 1. Passage base + j is text[starts[j]:starts[j + 1] - 1].
    # Offsets count lowercased characters: "İ".lower() is two.
    scan: tuple[ScanBlock, ...] = field(init=False, default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        passages = tuple(self.passages)
        object.__setattr__(self, "passages", passages)
        prior = _LATEST.get(id(passages[0])) if passages else None
        if (prior is not None and len(prior) <= len(passages)
                and all(map(operator.is_, prior.passages, passages))):
            shared, first = prior.scan[:-1], prior.scan[-1][2]
            by_id = prior._by_id.copy()  # type: ignore[attr-defined]
            by_id.update({p.id: p for p in passages[len(prior):]})
        else:
            shared, first, by_id = (), 0, {p.id: p for p in passages}
        if len(by_id) != len(passages):
            counts = Counter(p.id for p in passages)
            repeats = sorted(pid for pid, n in counts.items() if n > 1)
            raise DuplicateTurnError(f"duplicate passage ids: {', '.join(repeats)}")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_words", {})
        object.__setattr__(self, "scan", shared + _scan_blocks(passages, first))
        if passages:
            _LATEST[id(passages[0])] = self

    def __len__(self) -> int:
        return len(self.passages)

    def __iter__(self) -> Iterator[Passage]:
        return iter(self.passages)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._by_id  # type: ignore[attr-defined]

    def get(self, passage_id: str) -> Passage:
        return self._by_id[passage_id]  # type: ignore[attr-defined]

    def word_count(self, passage_id: str) -> int:
        """The passage's number of whitespace-separated words."""
        count = self._words.get(passage_id)  # type: ignore[attr-defined]
        if count is None:
            count = len(self.get(passage_id).text.split())
            self._words[passage_id] = count  # type: ignore[attr-defined]
        return count

    @cached_property
    def checksum(self) -> str:
        return _checksum(self.passages)


@dataclass(frozen=True)
class GoldAnnotation:
    """Gold evidence passage ids for one question."""

    question_id: str
    gold_passage_ids: frozenset[str]


@dataclass(frozen=True)
class Question:
    """A question with its gold evidence; the unit of oracle/eval runs."""

    question_id: str
    text: str
    gold_passage_ids: frozenset[str]

    @property
    def gold(self) -> GoldAnnotation:
        return GoldAnnotation(self.question_id, self.gold_passage_ids)


# The corpus built last over each first passage, keyed by that Passage
# object's id(); see Corpus.
_LATEST: weakref.WeakValueDictionary[int, Corpus] = weakref.WeakValueDictionary()


def _scan_blocks(passages: tuple[Passage, ...], first: int) -> tuple[ScanBlock, ...]:
    """The scan surface of :class:`Corpus` from position `first`, where a
    block starts, on. Blocks are packed greedily: a block closes before the
    passage whose lowercased text would bring its joined text to SCAN_CHARS
    characters or more, and a passage that reaches that alone is a block of
    its own."""
    blocks, lowered, starts, base, end = [], [], [0], first, 0
    for text in map(str.lower, map(attrgetter("text"), passages[first:])):
        size = end + len(text)      # the joined text's length with this one
        if size >= SCAN_CHARS and lowered:
            blocks.append(("\0".join(lowered), tuple(starts), base))
            base += len(lowered)
            lowered, starts, size = [], [0], len(text)
        lowered.append(text)
        end = size + 1
        starts.append(end)
    if lowered:
        blocks.append(("\0".join(lowered), tuple(starts), base))
    return tuple(blocks)


def _canonical_line(p: Passage) -> str:
    """One passage's canonical JSONL line, without its newline."""
    return json.dumps(p.to_record(), sort_keys=True, ensure_ascii=False)


def _checksum(passages: tuple[Passage, ...]) -> str:
    """sha256 of the canonical JSONL, streamed line by line."""
    digest = hashlib.sha256()
    for p in passages:
        digest.update(_canonical_line(p).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def ingest(raw_document: str | Path, format: str) -> Corpus:
    """Parse a raw dataset document into a normalized Corpus.

    ``raw_document`` is a path to the input file. Supported formats:

    - ``generic-jsonl``: one turn per line with keys ``session_id``,
      ``turn_index``, ``speaker``, ``text`` and optional ``timestamp``.
      An explicit ``id`` is accepted when it is ``{session_id}:{turn_index}``.
    - ``locomo-like``: a JSON object (or list of objects) with a
      ``conversation`` mapping of ``session_<k>`` keys to turn lists; turns
      carry ``speaker`` and ``text`` and may carry a ``dia_id`` of the form
      ``<session>:<index>``, which is preserved as the passage id so that
      evidence annotations keyed by dialog id resolve directly.
    - ``longmemeval-like``: a JSON object with a ``sessions`` list
      (``session_id``, optional ``date``, ``turns`` of role/content pairs),
      or a single question record with ``haystack_sessions``.

    Every turn follows :func:`read_corpus`'s rules, has a speaker and a text
    not all whitespace; an error names the turn's ``path:line`` (JSONL) or
    ``path:session_1[3]`` (JSON), and a repeated turn both positions.
    """
    path = Path(raw_document)
    if format not in INGEST_FORMATS:
        raise MalformedDocumentError(f"unknown ingest format: {format!r}")
    if not path.exists():
        raise MalformedDocumentError(f"no such file: {path}")
    readers = {"generic-jsonl": _jsonl_records, "locomo-like": _locomo_records,
               "longmemeval-like": _longmemeval_records}
    return _corpus(path, readers[format](path), ingested=True)


def _passage(rec: Any, where: str, ingested: bool) -> Passage:
    """rec as a Passage, or a MalformedDocumentError naming where and the
    field at fault: each field of its _FIELD_TYPES type (a missing one is
    null), a turn_index >= 0, the id {session_id}:{turn_index} and, ingested,
    a non-empty speaker and a text not all whitespace."""
    if not isinstance(rec, dict):
        raise MalformedDocumentError(f"{where}: expected an object per line")
    for name, (kinds, kind) in _FIELD_TYPES.items():
        if type(rec.get(name)) not in kinds:
            raise MalformedDocumentError(
                f"{where}: {name} must be {kind}, got {rec.get(name)!r}")
    p = Passage(*map(rec.get, _FIELD_TYPES))
    if p.turn_index < 0:
        raise MalformedDocumentError(f"{where}: turn_index must be >= 0, got {p.turn_index}")
    if p.id != f"{p.session_id}:{p.turn_index}":
        raise MalformedDocumentError(
            f"{where}: id must be '{p.session_id}:{p.turn_index}', got {p.id!r}")
    if ingested and not p.speaker:
        raise MalformedDocumentError(f"{where}: speaker must be non-empty")
    if ingested and not p.text.strip():
        raise MalformedDocumentError(f"{where}: text must not be blank, got {p.text!r}")
    return p


def _corpus(path: Path, records: Iterator[tuple[int | str, Any]], ingested: bool) -> Corpus:
    """The corpus, in (session_id, turn_index) order, of the records read
    from path, each at a location: a JSONL line number, or a JSON turn's
    position such as "session_1[3]". A repeat names both locations. An
    ingested record without an id takes {session_id}:{turn_index}."""
    # moved: a record's location where it is not its position + 1 (a JSONL
    # line after a blank one), so that no int is kept per line of a big file.
    # share: each distinct session id and speaker read so far, so that equal
    # values are one object; it lives only for this read.
    passages, moved, share = [], {}, {}
    one = share.setdefault
    for loc, rec in records:
        if ingested and isinstance(rec, dict):
            rec.setdefault("id", f"{rec.get('session_id')}:{rec.get('turn_index')}")
        try:
            session_id, speaker = rec["session_id"], rec["speaker"]
            # tuple.__new__ builds the record in C; Passage's own __new__ is Python.
            p = tuple.__new__(Passage, (
                rec["id"], one(session_id, session_id), rec["turn_index"],
                one(speaker, speaker), rec["text"], rec.get("timestamp")))
        except (KeyError, TypeError):   # a missing field, not an object, or unhashable
            p = None
        # A good record passes this one expression and builds no location
        # string; _passage names what is wrong with any other.
        if p is None or not (
                type(p.session_id) is type(p.speaker) is type(p.text) is str
                and type(p.turn_index) is int and p.turn_index >= 0
                and p.id == f"{p.session_id}:{p.turn_index}"
                and (p.timestamp is None or type(p.timestamp) is str)
                and (not ingested or p.speaker and p.text.strip())):
            p = _passage(rec, f"{path}:{loc}", ingested)
        passages.append(p)
        if loc != len(passages):
            moved[len(passages) - 1] = loc
    if not passages:
        raise EmptyCorpusError(f"{path} holds zero passages")
    try:
        return Corpus(tuple(sorted(passages, key=attrgetter("session_id", "turn_index"))),
                      path.name)
    except DuplicateTurnError:
        first: dict[str, int | str] = {}
        for i, p in enumerate(passages):
            loc = moved.get(i, i + 1)
            if p.id in first:
                seen = first[p.id] if type(loc) is str else f"line {first[p.id]}"
                raise DuplicateTurnError(
                    f"{path}:{loc}: passage id {p.id!r} repeats {seen}") from None
            first[p.id] = loc
        raise


# json.loads(s) is this decoder's raw_decode between two runs of JSON
# whitespace, which _jsonl_records strips instead.
_raw_decode = json.JSONDecoder().raw_decode
_JSON_WHITESPACE = " \t\n\r"
# A byte that is not UTF-8, as the surrogateescape error handler reads it.
_escaped_byte = re.compile("[\udc80-\udcff]").search


def _jsonl_records(path: Path) -> Iterator[tuple[int, Any]]:
    """Yield (line number, parsed record) for each non-blank line of a JSONL file.

    The file is read line by line, so no whole-file buffer is held, and only
    \\n, \\r\\n or \\r end a record: ``json.dumps(ensure_ascii=False)``
    leaves other line separators (U+2028, U+0085) raw inside strings.

    A line is decoded once: stripped of JSON whitespace only, then taken
    whole by one ``raw_decode``. Any other line falls back to the plain
    reading, so the result is exactly ``json.loads``': a line that
    ``str.strip`` empties (U+00A0 or U+001C alone, say) is skipped, and any
    other gets ``json.loads(line)``, whose ValueError (bad JSON, a BOM, an
    int of over 4,300 digits) is a MalformedDocumentError naming path:line.
    So is a byte that is not UTF-8 (see :func:`_not_utf8`). The reader
    escapes such a byte rather than failing on the chunk it decodes ahead,
    so the first fault in file order is the one reported.
    """
    with path.open(encoding="utf-8", errors="surrogateescape") as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.isascii() and _escaped_byte(line):
                raise _not_utf8(path)
            text = line.strip(_JSON_WHITESPACE)
            try:
                rec, end = _raw_decode(text)
            except ValueError:
                end = -1
            if end != len(text):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as exc:
                    raise MalformedDocumentError(
                        f"{path}:{lineno}: invalid JSON: {exc}") from exc
            yield lineno, rec


def _not_utf8(path: Path) -> MalformedDocumentError:
    """The error for a file that does not decode as UTF-8 (a decoder's own
    error counts its position in whatever chunk it was decoding): it names
    path:line of the first line that does not decode, and the byte's position
    in that line. bytes.splitlines splits at the \\n, \\r\\n and \\r the text
    reader ends lines at, and no UTF-8 sequence holds either byte."""
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as fault:
            return MalformedDocumentError(f"{path}:{lineno}: not UTF-8: {fault}")
    # Only reached when the file changed since it failed to decode.
    return MalformedDocumentError(f"{path}: not UTF-8")


def _id(where: str, name: str, value: Any) -> str:
    """An id read from JSON: a string, or an int read as its decimal string.
    Anything else (null, a bool, a float, an object) is an error."""
    if type(value) not in (str, int):
        raise MalformedDocumentError(f"{where}: {name} must be a string or an int, got {value!r}")
    return str(value)


def _read_utf8(path: Path) -> str:
    """path's text; a byte that is not UTF-8 is :func:`_not_utf8`'s error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc


def _load_json(path: Path):
    try:
        return json.loads(_read_utf8(path))
    except ValueError as exc:   # a JSONDecodeError, or an int too long to read
        raise MalformedDocumentError(f"{path}: invalid JSON: {exc}") from exc


def _objects(path: Path, label: str, items: Any) -> Iterator[tuple[str, int, dict]]:
    """(location, position, item) for each item of the JSON object list at label."""
    if not isinstance(items, list):
        raise MalformedDocumentError(f"{path}: {label} is not a list")
    for j, item in enumerate(items):
        if not isinstance(item, dict):
            raise MalformedDocumentError(f"{path}: {label}[{j}] is not an object")
        yield f"{label}[{j}]", j, item


_SESSION_KEY_RE = re.compile(r"^session_(\d+)$")


def _locomo_records(path: Path) -> Iterator[tuple[str, dict]]:
    doc = _load_json(path)
    conversations = doc if isinstance(doc, list) else [doc]
    for label, pos, conv in _objects(path, "conversation", conversations):
        mapping = conv.get("conversation", conv)
        if not isinstance(mapping, dict):
            raise MalformedDocumentError(f"{path}: {label} has no session mapping")
        session_keys = sorted(
            (k for k in mapping if _SESSION_KEY_RE.match(k)),
            key=lambda k: int(_SESSION_KEY_RE.match(k).group(1)),  # type: ignore[union-attr]
        )
        if not session_keys:
            raise MalformedDocumentError(f"{path}: {label} has no session_<k> keys")
        prefix = f"c{pos}-" if len(conversations) > 1 else ""
        for key in session_keys:
            timestamp = mapping.get(f"{key}_date_time")
            for loc, j, turn in _objects(path, prefix + key, mapping[key]):
                session_id, turn_index = prefix + key, j
                dia_id = turn.get("dia_id")
                if isinstance(dia_id, str):
                    m = _PASSAGE_ID_RE.match(dia_id)
                    if m:
                        session_id = prefix + m.group("session")
                        try:
                            turn_index = int(m.group("turn"))
                        except ValueError as exc:   # over 4,300 digits
                            raise MalformedDocumentError(
                                f"{path}:{loc}: dia_id turn is too long to read: {exc}"
                            ) from None
                yield loc, {"session_id": session_id, "turn_index": turn_index,
                            "speaker": turn.get("speaker", ""),
                            "text": turn.get("text", turn.get("clean_text", "")),
                            "timestamp": timestamp}


def _longmemeval_records(path: Path) -> Iterator[tuple[str, dict]]:
    doc = _load_json(path)
    if isinstance(doc, dict) and "sessions" in doc:
        # (label, session id, date, turns) per session
        sessions = [(f"{loc}.turns",
                     _id(f"{path}:{loc}", "session_id", session.get("session_id", f"s{k}")),
                     session.get("date"), session.get("turns", []))
                    for loc, k, session in _objects(path, "sessions", doc["sessions"])]
    elif isinstance(doc, dict) and "haystack_sessions" in doc:
        haystack = doc["haystack_sessions"]
        if not isinstance(haystack, list):
            raise MalformedDocumentError(f"{path}: haystack_sessions is not a list")
        # Only an absent list defaults; an empty one is checked like any other.
        ids, dates = doc.get("haystack_session_ids"), doc.get("haystack_dates")
        if ids is None:
            ids = [f"s{k}" for k in range(len(haystack))]
        if dates is None:
            dates = [None] * len(haystack)
        for name, values in (("haystack_session_ids", ids), ("haystack_dates", dates)):
            if not isinstance(values, list) or len(values) != len(haystack):
                raise MalformedDocumentError(
                    f"{path}: {name} must be a list of {len(haystack)}, one per session")
        sessions = [(f"haystack_sessions[{k}]",
                     _id(str(path), f"haystack_session_ids[{k}]", ids[k]), dates[k], turns)
                    for k, turns in enumerate(haystack)]
    else:
        raise MalformedDocumentError(f"{path}: expected 'sessions' or 'haystack_sessions'")
    for label, session_id, date, turns in sessions:
        for loc, j, turn in _objects(path, label, turns):
            yield loc, {"session_id": session_id, "turn_index": j,
                        "speaker": turn.get("speaker", turn.get("role", "")),
                        "text": turn.get("text", turn.get("content", "")), "timestamp": date}


# ---------------------------------------------------------------------------
# Canonical JSONL output and round-trip
# ---------------------------------------------------------------------------

def corpus_to_jsonl(corpus: Corpus) -> str:
    """Canonical JSONL form: one passage per line, keys sorted."""
    return "".join(_canonical_line(p) + "\n" for p in corpus.passages)


def corpus_metadata(corpus: Corpus) -> dict:
    """Sidecar metadata record for a canonical corpus file."""
    return {
        "source_label": corpus.source_label,
        "checksum": corpus.checksum,
        "passage_count": len(corpus),
    }


def read_corpus(path: str | Path) -> Corpus:
    """Read a canonical JSONL corpus file, :func:`corpus_to_jsonl`'s output,
    line by line (see :func:`_jsonl_records`). Each line's fields must have
    their types, a ``turn_index`` of 0 or more and the ``id``
    ``{session_id}:{turn_index}``, as :func:`ingest` writes them; a line
    that breaks a rule is a MalformedDocumentError naming path:line and the
    field. A repeated passage id raises :class:`DuplicateTurnError` naming
    the lines of both occurrences. Blank speakers and texts, which ingest
    rejects, are read back as written."""
    path = Path(path)
    return _corpus(path, _jsonl_records(path), ingested=False)


# ---------------------------------------------------------------------------
# Gold annotations
# ---------------------------------------------------------------------------

def _syntax_fault(text: str) -> json.JSONDecodeError | None:
    """json's syntax error for text as one document, or None when it has
    none; ints are not converted, so no int is too long here."""
    try:
        json.loads(text, parse_int=len)
    except json.JSONDecodeError as exc:
        return exc
    return None


def load_questions(raw_annotations: str | Path, corpus: Corpus) -> list[Question]:
    """Load question records, validating every gold id against the corpus.

    Accepts a JSON list or JSONL of records with ``question_id``,
    ``question`` text and ``gold_passage_ids``. A file is read as JSONL only
    when its first JSON document is well formed and more data follows; any
    other fault is the document's own. Each MalformedDocumentError names the
    file and the line, or the record of a JSON list, at fault. A
    ``question_id`` is a string or an int, read as its decimal string, and
    unique across records; a null or bool id or a repeat (naming both
    records) is one too, as is a missing or blank ``question``.
    Unresolvable passage ids raise :class:`DanglingGoldError` naming the
    file and listing every miss.
    """
    path = Path(raw_annotations)
    # (where, position, record) triples; where prefixes an error, naming
    # path:line for JSONL input and "path: record i" for a JSON list.
    text = _read_utf8(path)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # json meets an int too long to read before it can see Extra data,
        # so the file's shape is then read again with ints left unconverted.
        fault = exc if isinstance(exc, json.JSONDecodeError) else _syntax_fault(text)
        if fault is None:
            raise MalformedDocumentError(f"{path}: invalid JSON: {exc}") from exc
        if fault.msg != "Extra data" and text.strip():
            raise MalformedDocumentError(
                f"{path}:{fault.lineno}: invalid JSON: {fault}") from exc
        # More than one document, or none: read it as JSONL.
        records = [(f"{path}:{lineno}", f"line {lineno}", rec)
                   for lineno, rec in _jsonl_records(path)]
    else:
        records = [(f"{path}: record {i}", f"record {i}", rec)
                   for i, rec in enumerate(doc if isinstance(doc, list) else [doc])]

    questions = []
    missing: list[str] = []
    first_seen: dict[str, str] = {}   # question id -> its record's position
    for where, position, rec in records:
        if not isinstance(rec, dict) or "question_id" not in rec:
            raise MalformedDocumentError(f"{where}: annotation record missing question_id")
        question_id = _id(where, "question_id", rec["question_id"])
        if question_id in first_seen:
            raise MalformedDocumentError(
                f"{path}: question_id {question_id!r} appears at "
                f"{first_seen[question_id]} and {position}")
        first_seen[question_id] = position
        gold_ids = rec.get("gold_passage_ids", [])
        if (not isinstance(gold_ids, (list, tuple))
                or not all(isinstance(pid, str) for pid in gold_ids)):
            raise MalformedDocumentError(
                f"{where}: gold_passage_ids must be a list of passage ids, got {gold_ids!r}")
        text = rec.get("question")
        if not isinstance(text, str) or not text.strip():
            raise MalformedDocumentError(
                f"{where}: question must be a non-blank string, got {text!r}")
        for pid in gold_ids:
            if pid not in corpus:
                missing.append(f"{question_id}->{pid}")
        questions.append(
            Question(
                question_id=question_id,
                text=text,
                gold_passage_ids=frozenset(gold_ids),
            )
        )
    if missing:
        raise DanglingGoldError(path, missing)
    return questions
