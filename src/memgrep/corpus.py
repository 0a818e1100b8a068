"""Normalized, immutable passage store for conversation datasets.

A corpus is an ordered collection of passages, one per conversation turn.
Passage ids follow the scheme ``{session_id}:{turn_index}`` and are stable
across runs for identical input. The canonical interchange format is JSON
Lines, one passage per line, which together with a content checksum makes
ingestion reproducible byte-for-byte. The checksum is the sha256 of that
canonical JSONL (the file :func:`write_corpus` writes), taken on first read.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterator

from .errors import (
    DanglingGoldError,
    DuplicateTurnError,
    EmptyCorpusError,
    MalformedDocumentError,
)

INGEST_FORMATS = ("locomo-like", "longmemeval-like", "generic-jsonl")

_PASSAGE_ID_RE = re.compile(r"^(?P<session>.+):(?P<turn>\d+)$")


@dataclass(frozen=True)
class Passage:
    """One conversation turn; the searchable unit."""

    id: str
    session_id: str
    turn_index: int
    speaker: str
    text: str
    timestamp: str | None = None

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "session_id": self.session_id,
            "turn_index": self.turn_index,
            "speaker": self.speaker,
            "text": self.text,
            "timestamp": self.timestamp,
        }


@dataclass(frozen=True)
class Corpus:
    """Immutable ordered passage store, addressable by passage id.

    Construction preserves the passage order it is given (ingestion sorts
    by (session_id, turn_index) before constructing) and rejects two
    passages with the same id with :class:`DuplicateTurnError`.

    ``checksum`` is the sha256 of :func:`corpus_to_jsonl`'s output, computed
    once, on first read: building a corpus or a query never hashes.
    """

    passages: tuple[Passage, ...]
    source_label: str = ""
    # Lowercased texts in passage order: the substring-search surface.
    lowered: tuple[str, ...] = field(init=False, default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passages", tuple(self.passages))
        by_id = {p.id: p for p in self.passages}
        if len(by_id) != len(self.passages):
            counts = Counter(p.id for p in self.passages)
            repeats = sorted(pid for pid, n in counts.items() if n > 1)
            raise DuplicateTurnError(f"duplicate passage ids: {', '.join(repeats)}")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "lowered", tuple(p.text.lower() for p in self.passages))

    def __len__(self) -> int:
        return len(self.passages)

    def __iter__(self) -> Iterator[Passage]:
        return iter(self.passages)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._by_id  # type: ignore[attr-defined]

    def get(self, passage_id: str) -> Passage:
        return self._by_id[passage_id]  # type: ignore[attr-defined]

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

def ingest(raw_document: str | Path, format: str, source_label: str | None = None) -> Corpus:
    """Parse a raw dataset document into a normalized Corpus.

    ``raw_document`` is a path to the input file. Supported formats:

    - ``generic-jsonl``: one turn per line with keys ``session_id``,
      ``turn_index``, ``speaker``, ``text`` and optional ``timestamp``.
      An explicit ``id`` is accepted when consistent with the id scheme.
    - ``locomo-like``: a JSON object (or list of objects) with a
      ``conversation`` mapping of ``session_<k>`` keys to turn lists; turns
      carry ``speaker`` and ``text`` and may carry a ``dia_id`` of the form
      ``<session>:<index>``, which is preserved as the passage id so that
      evidence annotations keyed by dialog id resolve directly.
    - ``longmemeval-like``: a JSON object with a ``sessions`` list
      (``session_id``, optional ``date``, ``turns`` of role/content pairs),
      or a single question record with ``haystack_sessions``.
    """
    path = Path(raw_document)
    if format not in INGEST_FORMATS:
        raise MalformedDocumentError(f"unknown ingest format: {format!r}")
    if not path.exists():
        raise MalformedDocumentError(f"no such file: {path}")
    label = source_label if source_label is not None else path.name

    if format == "generic-jsonl":
        turns = _parse_generic_jsonl(path)
    elif format == "locomo-like":
        turns = _parse_locomo(path)
    else:
        turns = _parse_longmemeval(path)

    passages = []
    for session_id, turn_index, speaker, text, timestamp in turns:
        if not isinstance(speaker, str) or not speaker:
            raise MalformedDocumentError(f"turn ({session_id}, {turn_index}) has no speaker")
        if not isinstance(text, str) or not text.strip():
            raise MalformedDocumentError(f"turn ({session_id}, {turn_index}) has empty text")
        passages.append(
            Passage(
                id=f"{session_id}:{turn_index}",
                session_id=session_id,
                turn_index=turn_index,
                speaker=speaker,
                text=text,
                timestamp=timestamp,
            )
        )
    if not passages:
        raise EmptyCorpusError(f"document {path} yielded zero passages")
    passages.sort(key=lambda p: (p.session_id, p.turn_index))
    return Corpus(passages=tuple(passages), source_label=label)


def _jsonl_records(path: Path) -> Iterator[tuple[int, Any]]:
    """Yield (line number, parsed record) for each non-blank line of a JSONL file.

    The file is read line by line, so no whole-file buffer is held, and only
    \\n, \\r\\n or \\r end a record: ``json.dumps(ensure_ascii=False)``
    leaves other line separators (U+2028, U+0085) raw inside strings.
    """
    with path.open(encoding="utf-8") as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedDocumentError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            yield lineno, rec


def _parse_generic_jsonl(path: Path) -> list[tuple[str, int, str, str, str | None]]:
    turns = []
    for lineno, rec in _jsonl_records(path):
        if not isinstance(rec, dict):
            raise MalformedDocumentError(f"{path}:{lineno}: expected an object per line")
        try:
            session_id = str(rec["session_id"])
            turn_index = int(rec["turn_index"])
            speaker = rec["speaker"]
            text = rec["text"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDocumentError(f"{path}:{lineno}: missing or invalid field: {exc}") from exc
        if turn_index < 0:
            raise MalformedDocumentError(f"{path}:{lineno}: negative turn_index")
        timestamp = rec.get("timestamp")
        turns.append((session_id, turn_index, speaker, text, timestamp))
    return turns


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"{path}: invalid JSON: {exc}") from exc


_SESSION_KEY_RE = re.compile(r"^session_(\d+)$")


def _parse_locomo(path: Path) -> list[tuple[str, int, str, str, str | None]]:
    doc = _load_json(path)
    conversations = doc if isinstance(doc, list) else [doc]
    turns = []
    for pos, conv in enumerate(conversations):
        if not isinstance(conv, dict):
            raise MalformedDocumentError(f"{path}: conversation {pos} is not an object")
        mapping = conv.get("conversation", conv)
        if not isinstance(mapping, dict):
            raise MalformedDocumentError(f"{path}: conversation {pos} has no session mapping")
        session_keys = sorted(
            (k for k in mapping if _SESSION_KEY_RE.match(k)),
            key=lambda k: int(_SESSION_KEY_RE.match(k).group(1)),  # type: ignore[union-attr]
        )
        if not session_keys:
            raise MalformedDocumentError(f"{path}: conversation {pos} has no session_<k> keys")
        prefix = f"c{pos}-" if len(conversations) > 1 else ""
        for key in session_keys:
            session_turns = mapping[key]
            timestamp = mapping.get(f"{key}_date_time")
            if not isinstance(session_turns, list):
                raise MalformedDocumentError(f"{path}: {key} is not a turn list")
            for j, turn in enumerate(session_turns):
                if not isinstance(turn, dict):
                    raise MalformedDocumentError(f"{path}: {key}[{j}] is not an object")
                speaker = turn.get("speaker", "")
                text = turn.get("text", turn.get("clean_text", ""))
                session_id, turn_index = prefix + key, j
                dia_id = turn.get("dia_id")
                if isinstance(dia_id, str):
                    m = _PASSAGE_ID_RE.match(dia_id)
                    if m:
                        session_id = prefix + m.group("session")
                        turn_index = int(m.group("turn"))
                turns.append((session_id, turn_index, speaker, text, timestamp))
    return turns


def _parse_longmemeval(path: Path) -> list[tuple[str, int, str, str, str | None]]:
    doc = _load_json(path)
    turns = []
    if isinstance(doc, dict) and "sessions" in doc:
        sessions = doc["sessions"]
        if not isinstance(sessions, list):
            raise MalformedDocumentError(f"{path}: 'sessions' is not a list")
        for k, session in enumerate(sessions):
            if not isinstance(session, dict):
                raise MalformedDocumentError(f"{path}: session {k} is not an object")
            session_id = str(session.get("session_id", f"s{k}"))
            date = session.get("date")
            for j, turn in enumerate(session.get("turns", [])):
                speaker = turn.get("speaker", turn.get("role", ""))
                text = turn.get("text", turn.get("content", ""))
                turns.append((session_id, j, speaker, text, date))
    elif isinstance(doc, dict) and "haystack_sessions" in doc:
        sessions = doc["haystack_sessions"]
        ids = doc.get("haystack_session_ids") or [f"s{k}" for k in range(len(sessions))]
        dates = doc.get("haystack_dates") or [None] * len(sessions)
        for k, session in enumerate(sessions):
            for j, turn in enumerate(session):
                speaker = turn.get("speaker", turn.get("role", ""))
                text = turn.get("text", turn.get("content", ""))
                turns.append((str(ids[k]), j, speaker, text, dates[k]))
    else:
        raise MalformedDocumentError(f"{path}: expected 'sessions' or 'haystack_sessions'")
    return turns


# ---------------------------------------------------------------------------
# Canonical JSONL output and round-trip
# ---------------------------------------------------------------------------

def corpus_to_jsonl(corpus: Corpus) -> str:
    """Canonical JSONL form: one passage per line, keys sorted."""
    return "".join(_canonical_line(p) + "\n" for p in corpus.passages)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(corpus_to_jsonl(corpus), encoding="utf-8")


def corpus_metadata(corpus: Corpus) -> dict:
    """Sidecar metadata record for a canonical corpus file."""
    return {
        "source_label": corpus.source_label,
        "checksum": corpus.checksum,
        "passage_count": len(corpus),
    }


def read_corpus(path: str | Path, source_label: str | None = None) -> Corpus:
    """Read a canonical JSONL corpus file written by :func:`write_corpus`,
    line by line (see :func:`_jsonl_records`). A repeated passage id raises
    :class:`DuplicateTurnError` naming the lines of both occurrences."""
    path = Path(path)
    passages = []
    for lineno, rec in _jsonl_records(path):
        try:
            passages.append(
                Passage(
                    id=rec["id"],
                    session_id=rec["session_id"],
                    turn_index=int(rec["turn_index"]),
                    speaker=rec["speaker"],
                    text=rec["text"],
                    timestamp=rec.get("timestamp"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDocumentError(f"{path}:{lineno}: bad passage record: {exc}") from exc
    if not passages:
        raise EmptyCorpusError(f"{path} holds zero passages")
    passages.sort(key=lambda p: (p.session_id, p.turn_index))
    label = source_label if source_label is not None else path.name
    try:
        return Corpus(passages=tuple(passages), source_label=label)
    except DuplicateTurnError:
        first_line: dict[str, int] = {}
        for lineno, rec in _jsonl_records(path):
            if rec["id"] in first_line:
                raise DuplicateTurnError(
                    f"{path}:{lineno}: passage id {rec['id']!r} repeats line "
                    f"{first_line[rec['id']]}") from None
            first_line[rec["id"]] = lineno
        raise


# ---------------------------------------------------------------------------
# Gold annotations
# ---------------------------------------------------------------------------

def load_questions(raw_annotations: str | Path, corpus: Corpus) -> list[Question]:
    """Load question records, validating every gold id against the corpus.

    Accepts a JSON list or JSONL of records with ``question_id``,
    ``gold_passage_ids`` and optional ``question`` text. Unresolvable
    passage ids raise :class:`DanglingGoldError` listing every miss.
    """
    path = Path(raw_annotations)
    # (where, record) pairs; for JSONL input, where names path:line.
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        records = [(f"{path}:{lineno}", rec) for lineno, rec in _jsonl_records(path)]
    else:
        records = [(str(path), rec) for rec in (doc if isinstance(doc, list) else [doc])]

    questions = []
    missing: list[str] = []
    for where, rec in records:
        if not isinstance(rec, dict) or "question_id" not in rec:
            raise MalformedDocumentError(f"{where}: annotation record missing question_id")
        gold_ids = rec.get("gold_passage_ids", [])
        if not isinstance(gold_ids, (list, tuple)):
            raise MalformedDocumentError(f"{where}: gold_passage_ids must be a list")
        for pid in gold_ids:
            if pid not in corpus:
                missing.append(f"{rec['question_id']}->{pid}")
        questions.append(
            Question(
                question_id=str(rec["question_id"]),
                text=str(rec.get("question", "")),
                gold_passage_ids=frozenset(str(p) for p in gold_ids),
            )
        )
    if missing:
        raise DanglingGoldError(missing)
    return questions
