"""POS tags and named-entity spans from deterministic lexicon-and-suffix rules.

The rule annotator is the default and ships its own lexicon data files. An
adapter over the scoring-service line protocol (kind="annotate") lets an
external statistical tagger take its place without touching the rest of the
pipeline; both expose the same two operations. AnnotatorConfig builds the
one a run uses: the service annotator when it has an endpoint, else the
rule annotator.

Both operations are views over one analysis of the text, which gives the
tokens and the mentions together. Each annotator keeps the last MEMO_SIZE
analyses in a bounded, thread-safe memo keyed by text, so the query, the
entity hops and PRF, which ask about the same texts again and again within a
question, pay for each distinct text once. The analysis is deterministic, so
a memoized answer equals a fresh one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable, Iterable, Protocol

from .errors import PartialResponseError
from .service import ServiceClient

POS_TAGS = ("PROPN", "NOUN", "VERB", "OTHER")
ENTITY_LABELS = ("PERSON", "ORG", "LOC", "EVENT")

# Letters/digits with internal apostrophes or hyphens; underscores excluded.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’\-][^\W_]+)*")
_SENTENCE_END = (".", "!", "?", "\n", "…")
_NOUN_SUFFIXES = ("tion", "sion", "ment", "ness", "ity", "ship", "hood",
                  "ism", "ence", "ance", "ology", "er", "or", "ist")
_VERB_SUFFIXES = ("ify", "ize", "ise")
# Analyses each annotator keeps. A question analyses its query and the top
# passages its entity hops and PRF mine: at most 14 distinct texts on the
# benchmark's workloads, so this holds a question whole, plus the latest
# texts an oracle trace analysed before the live runs of its question.
MEMO_SIZE = 64


@dataclass(frozen=True)
class TokenAnnotation:
    token: str
    pos: str
    entity_label: str | None = None


@dataclass(frozen=True)
class EntityMention:
    surface: str
    label: str


class Annotator(Protocol):
    def annotate(self, text: str) -> list[TokenAnnotation]: ...

    def extract_entities(self, text: str) -> list[EntityMention]: ...


@dataclass(frozen=True)
class AnnotatorConfig:
    """Which annotator a run uses: the service one at endpoint when it is
    set, else the rule annotator."""

    endpoint: str | None = None

    def __post_init__(self) -> None:
        if self.endpoint == "":
            raise ValueError("endpoint must be a non-empty string or null")

    def build(self) -> Annotator:
        if self.endpoint:
            return ServiceAnnotator(self.endpoint)
        return RuleAnnotator()


# --- lexicon plumbing ---

def _read_lexicon(name: str) -> list[str]:
    raw = (resources.files("memgrep.data.lexicon") / name).read_text(encoding="utf-8")
    entries = []
    for line in raw.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


def _lower_set(entries: Iterable[str]) -> frozenset[str]:
    return frozenset(entry.lower() for entry in entries)


def _dedup_mentions(mentions: Iterable[EntityMention]) -> tuple[EntityMention, ...]:
    """First mention of each case-insensitive (surface, label) pair, in order."""
    deduped: list[EntityMention] = []
    seen: set[tuple[str, str]] = set()
    for mention in mentions:
        key = (mention.surface.lower(), mention.label)
        if key not in seen:
            seen.add(key)
            deduped.append(mention)
    return tuple(deduped)


@dataclass(frozen=True)
class _Tok:
    raw: str          # text slice as written, possessive marker included
    core: str         # raw with a trailing 's / 's clipped off
    start: int
    end: int          # end of core, not of raw
    sentence_initial: bool


class RuleAnnotator:
    """Capitalization, lexicon, and suffix heuristics; no model.

    The only state is the memo of the last MEMO_SIZE analyses, held in a
    functools.lru_cache, whose updates are thread-safe; the lexicons are
    read-only after construction. One instance can serve concurrent callers.
    """

    def __init__(self) -> None:
        self._stopwords = _lower_set(_read_lexicon("stopwords.txt"))
        self._first_names = _lower_set(_read_lexicon("first_names.txt"))
        self._verbs = _lower_set(_read_lexicon("verbs.txt"))
        self._date_words = _lower_set(_read_lexicon("date_words.txt"))
        self._honorifics = _lower_set(_read_lexicon("honorifics.txt"))
        self._org_keywords = _lower_set(_read_lexicon("org_keywords.txt"))
        self._event_keywords = _lower_set(_read_lexicon("event_keywords.txt"))
        places = _read_lexicon("places.txt")
        self._places_full = frozenset(" ".join(p.split()).lower() for p in places)
        self._places_single = _lower_set(p for p in places if " " not in p)
        self._analyze = lru_cache(maxsize=MEMO_SIZE)(self._analyze_text)

    # --- public operations ---
    # Fresh lists over the memo's tuples: a caller's edits cannot reach it.

    def annotate(self, text: str) -> list[TokenAnnotation]:
        return list(self._analyze(text)[0])

    def extract_entities(self, text: str) -> list[EntityMention]:
        return list(self._analyze(text)[1])

    # --- internals ---

    def _analyze_text(
        self, text: str
    ) -> tuple[tuple[TokenAnnotation, ...], tuple[EntityMention, ...]]:
        """Token annotations and deduplicated entity mentions of the text."""
        if not text.strip():
            raise ValueError("text must be non-empty")
        tokens = self._tokenize(text)
        tags = [self._classify(tokens, i) for i in range(len(tokens))]
        spans = self._entity_spans(text, tokens, tags)
        labels: dict[int, str] = {}
        mentions: list[EntityMention] = []
        for first, last, label in spans:
            surface = text[tokens[first].start:tokens[last].end]
            mentions.append(EntityMention(surface=surface, label=label))
            for i in range(first, last + 1):
                labels[i] = label
        annotations = tuple(
            TokenAnnotation(token=tok.core, pos=tag, entity_label=labels.get(i))
            for i, (tok, tag) in enumerate(zip(tokens, tags))
        )
        return annotations, _dedup_mentions(mentions)

    def _tokenize(self, text: str) -> list[_Tok]:
        tokens: list[_Tok] = []
        prev_end = 0
        for match in _TOKEN_RE.finditer(text):
            raw = match.group(0)
            core = raw
            if len(core) > 2 and core[-2:] in ("'s", "’s"):
                core = core[:-2]
            gap = text[prev_end:match.start()]
            if not tokens:
                initial = True
            elif any(ch in gap for ch in _SENTENCE_END):
                initial = not self._honorific_gap(tokens[-1], gap)
            else:
                initial = False
            tokens.append(_Tok(
                raw=raw, core=core,
                start=match.start(), end=match.start() + len(core),
                sentence_initial=initial,
            ))
            prev_end = match.end()
        return tokens

    def _honorific_gap(self, prev: _Tok, gap: str) -> bool:
        """A period right after an honorific does not end the sentence."""
        return (
            prev.core.lower() in self._honorifics
            and gap.lstrip(".").strip() == ""
            and gap.count(".") == 1
        )

    def _classify(self, tokens: list[_Tok], i: int) -> str:
        tok = tokens[i]
        low = tok.core.lower()
        if low in self._stopwords:
            return "OTHER"
        if any(ch.isdigit() for ch in tok.core):
            return "OTHER"
        if low in self._date_words:
            return "OTHER"
        if tok.core[0].isupper() and self._proper_reading(tokens, i, low):
            return "PROPN"
        if low in self._verbs:
            return "VERB"
        if low.endswith("ed") and len(low) >= 4:
            return "VERB"
        if low.endswith("ing") and len(low) >= 5:
            return "NOUN"
        if low.endswith(_NOUN_SUFFIXES):
            return "NOUN"
        if low.endswith(_VERB_SUFFIXES):
            return "VERB"
        return "NOUN"

    def _proper_reading(self, tokens: list[_Tok], i: int, low: str) -> bool:
        tok = tokens[i]
        if not tok.sentence_initial:
            return True
        if low in self._first_names or low in self._places_single \
                or low in self._honorifics:
            return True
        # Sentence-initial capitalized word right before another capitalized
        # content word usually opens a multi-word name ("New York is...").
        # Known verbs are exempt so imperatives keep their verb reading.
        if low in self._verbs:
            return False
        if i + 1 < len(tokens):
            nxt = tokens[i + 1]
            nxt_low = nxt.core.lower()
            return (
                not nxt.sentence_initial
                and nxt.core[0].isupper()
                and nxt_low not in self._stopwords
                and nxt_low not in self._date_words
            )
        return False

    def _entity_spans(
        self, text: str, tokens: list[_Tok], tags: list[str]
    ) -> list[tuple[int, int, str]]:
        spans: list[tuple[int, int, str]] = []
        i = 0
        while i < len(tokens):
            if tags[i] != "PROPN":
                i += 1
                continue
            j = i
            while j + 1 < len(tokens) and tags[j + 1] == "PROPN":
                raw_end = tokens[j].start + len(tokens[j].raw)
                gap = text[raw_end:tokens[j + 1].start]
                if gap.strip() == "" or self._honorific_gap(tokens[j], gap):
                    j += 1
                else:
                    break
            spans.append((i, j, self._label_span(text, tokens, i, j)))
            i = j + 1
        return spans

    def _label_span(
        self, text: str, tokens: list[_Tok], first: int, last: int
    ) -> str:
        surface = text[tokens[first].start:tokens[last].end]
        normalized = " ".join(surface.split()).lower()
        cores = [tokens[i].core.lower() for i in range(first, last + 1)]
        if normalized in self._places_full:
            return "LOC"
        if any(core in self._org_keywords for core in cores):
            return "ORG"
        if any(core in self._event_keywords for core in cores):
            return "EVENT"
        if any(core in self._places_single for core in cores):
            return "LOC"
        return "PERSON"


class ServiceAnnotator:
    """Same contract as RuleAnnotator, served over the line protocol.

    One round trip answers both operations for a text: the reply entry is
    kept in a memo of the last MEMO_SIZE texts, and each operation validates
    only its own half of it, so malformed entities fail extract_entities and
    leave annotate working. No call that raises leaves a reply memoized: a
    failed request stores nothing, and a half that fails validation clears
    the memo (lru_cache cannot drop a single entry), so the next call sends
    a new request.
    """

    def __init__(self, endpoint: str) -> None:
        self._client = ServiceClient(endpoint)
        self._entry = lru_cache(maxsize=MEMO_SIZE)(self._fetch_entry)

    def annotate(self, text: str) -> list[TokenAnnotation]:
        return self._read(text, "tokens", _token_annotations)

    def extract_entities(self, text: str) -> list[EntityMention]:
        return self._read(text, "entities", _entity_mentions)

    def _fetch_entry(self, text: str) -> dict:
        if not text.strip():
            raise ValueError("text must be non-empty")
        return self._client.annotate([text])[0]

    def _read(self, text: str, half: str, parse: Callable[[object], list]) -> list:
        entry = self._entry(text)
        try:
            return parse(entry.get(half))
        except PartialResponseError:
            self._entry.cache_clear()
            raise


def _token_annotations(tokens: object) -> list[TokenAnnotation]:
    if not isinstance(tokens, list):
        raise PartialResponseError("annotation entry lacks a tokens list")
    out = []
    for item in tokens:
        if not isinstance(item, dict):
            raise PartialResponseError(f"bad token annotation: {item!r}")
        token = item.get("token")
        pos = item.get("pos")
        label = item.get("entity_label")
        if not isinstance(token, str) or not token or pos not in POS_TAGS:
            raise PartialResponseError(f"bad token annotation: {item!r}")
        if label is not None and label not in ENTITY_LABELS + ("OTHER",):
            raise PartialResponseError(f"bad entity label: {label!r}")
        out.append(TokenAnnotation(token=token, pos=pos, entity_label=label))
    return out


def _entity_mentions(entities: object) -> list[EntityMention]:
    if not isinstance(entities, list):
        raise PartialResponseError("annotation entry lacks an entities list")
    mentions = []
    for item in entities:
        if not isinstance(item, dict):
            raise PartialResponseError(f"bad entity mention: {item!r}")
        surface = item.get("surface")
        label = item.get("label")
        if not isinstance(surface, str) or not surface \
                or label not in ENTITY_LABELS:
            raise PartialResponseError(f"bad entity mention: {item!r}")
        mentions.append(EntityMention(surface=surface, label=label))
    return list(_dedup_mentions(mentions))
