"""POS tags and named-entity spans from deterministic lexicon-and-suffix rules.

RuleAnnotator is the one annotator every run uses; it ships its own lexicon
data files and needs no model. The Annotator protocol names its two
operations, so a caller can wrap it (the benchmark's tracer times it
through a proxy).

Both operations are views over one analysis of the text, which gives the
tokens and the mentions together. The rule annotator fills parallel
per-token lists in one scan of the text, tags the tokens and grows the
entity spans in one pass over those lists, and builds its TokenAnnotation
records in C. TokenAnnotation and EntityMention are NamedTuples, as Passage
is: a record compares equal to the plain tuple of its fields, and assigning
a field raises AttributeError. Any text can be analysed: a blank one has no
tokens and no mentions. The annotator keeps the last MEMO_SIZE analyses in a
bounded, thread-safe memo keyed by text, so the query, the entity hops and
PRF, which ask about the same texts again and again within a question, pay
for each distinct text once. The analysis is deterministic, so a memoized
answer equals a fresh one.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from itertools import repeat
from typing import Iterable, NamedTuple, Protocol

ENTITY_LABELS = ("PERSON", "ORG", "LOC", "EVENT")

# Letters/digits with internal apostrophes or hyphens; underscores excluded.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’\-][^\W_]+)*")
_SENTENCE_END = (".", "!", "?", "\n", "…")
_NOUN_SUFFIXES = ("tion", "sion", "ment", "ness", "ity", "ship", "hood",
                  "ism", "ence", "ance", "ology", "er", "or", "ist")
_VERB_SUFFIXES = ("ify", "ize", "ise")
# Analyses the annotator keeps. A question analyses its query and the top
# passages its entity hops and PRF mine: at most 14 distinct texts on the
# benchmark's workloads, so this holds a question whole, plus the latest
# texts an oracle trace analysed before the live runs of its question.
MEMO_SIZE = 64


class TokenAnnotation(NamedTuple):
    token: str
    pos: str
    entity_label: str | None = None


class EntityMention(NamedTuple):
    surface: str
    label: str


class Annotator(Protocol):
    def annotate(self, text: str) -> list[TokenAnnotation]: ...

    def extract_entities(self, text: str) -> list[EntityMention]: ...



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
        """Token annotations and deduplicated entity mentions of the text, in
        one pass over parallel per-token lists."""
        # A token's core is its text with a trailing 's / ’s clipped off;
        # gaps[k] is the text between tokens k and k + 1, possessive marker
        # excluded.
        matches = list(_TOKEN_RE.finditer(text))
        cores = [raw[:-2] if len(raw) > 2 and raw.endswith(("'s", "’s")) else raw
                 for raw in map(re.Match.group, matches)]
        lows = list(map(str.lower, cores))
        starts = list(map(re.Match.start, matches))
        gaps = [text[match.end():start] for match, start in zip(matches, starts[1:])]
        initial = [True] + [
            gap != " " and any(map(gap.__contains__, _SENTENCE_END))
            and not self._honorific_gap(low, gap)
            for low, gap in zip(lows, gaps)]

        stopwords, date_words, verbs = self._stopwords, self._date_words, self._verbs
        tags: list[str] = []
        spans: list[list[int]] = []   # [first, last] token of each entity span
        for i, low in enumerate(lows):
            core = cores[i]
            if low in stopwords or any(map(str.isdigit, core)) or low in date_words:
                tags.append("OTHER")
            elif core[0].isupper() and (
                    not initial[i] or self._proper_reading(cores, lows, initial, i)):
                # A proper noun extends the span of the one before it when
                # only whitespace or an honorific's period lies between them.
                if tags and tags[-1] == "PROPN" and (
                        gaps[i - 1].isspace() or self._honorific_gap(lows[i - 1], gaps[i - 1])):
                    spans[-1][1] = i
                else:
                    spans.append([i, i])
                tags.append("PROPN")
            elif low in verbs or (len(low) >= 4 and low.endswith("ed")):
                tags.append("VERB")
            elif (len(low) >= 5 and low.endswith("ing")) or low.endswith(_NOUN_SUFFIXES):
                tags.append("NOUN")
            elif low.endswith(_VERB_SUFFIXES):
                tags.append("VERB")
            else:
                tags.append("NOUN")

        labels: list[str | None] = [None] * len(cores)
        mentions: list[EntityMention] = []
        for first, last in spans:
            surface = text[starts[first]:starts[last] + len(cores[last])]
            span_lows = lows[first:last + 1]
            if " ".join(surface.split()).lower() in self._places_full:
                label = "LOC"
            elif not self._org_keywords.isdisjoint(span_lows):
                label = "ORG"
            elif not self._event_keywords.isdisjoint(span_lows):
                label = "EVENT"
            elif not self._places_single.isdisjoint(span_lows):
                label = "LOC"
            else:
                label = "PERSON"
            mentions.append(EntityMention(surface, label))
            labels[first:last + 1] = [label] * len(span_lows)
        # tuple.__new__ builds each record in C; TokenAnnotation's own __new__ is Python.
        annotations = tuple(map(tuple.__new__, repeat(TokenAnnotation),
                                zip(cores, tags, labels)))
        return annotations, _dedup_mentions(mentions)

    def _honorific_gap(self, prev_low: str, gap: str) -> bool:
        """A period right after an honorific does not end the sentence."""
        return (
            prev_low in self._honorifics
            and gap.lstrip(".").strip() == ""
            and gap.count(".") == 1
        )

    def _proper_reading(self, cores: list[str], lows: list[str],
                        initial: list[bool], i: int) -> bool:
        """Whether capitalized token i, which opens a sentence, is a name."""
        low = lows[i]
        if low in self._first_names or low in self._places_single \
                or low in self._honorifics:
            return True
        # Sentence-initial capitalized word right before another capitalized
        # content word usually opens a multi-word name ("New York is...").
        # Known verbs are exempt so imperatives keep their verb reading.
        if low in self._verbs:
            return False
        if i + 1 < len(cores):
            nxt_low = lows[i + 1]
            return (
                not initial[i + 1]
                and cores[i + 1][0].isupper()
                and nxt_low not in self._stopwords
                and nxt_low not in self._date_words
            )
        return False
