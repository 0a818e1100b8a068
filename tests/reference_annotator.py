"""The seed's rule analysis, kept verbatim as the reference that
tests/test_annotate.py compares RuleAnnotator._analyze_text against.

It walks _Tok records through separate tokenize, classify, span and label
steps; RuleAnnotator does the same work in one pass over parallel lists.
The seed also sorted each entity span into PERSON, ORG, LOC or EVENT and
labelled the span's tokens, which RuleAnnotator no longer does: the tests
project this analysis to tokens and tags and to mention surfaces. The
lexicons the tagging reads come from RuleAnnotator's constructor; the
org, event and whole-place sets only the labels read are built here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from memgrep.annotate import RuleAnnotator, _lower_set, _read_lexicon

_TOKEN_RE = re.compile(r"[^\W_]+(?:['’\-][^\W_]+)*")
_SENTENCE_END = (".", "!", "?", "\n", "…")
_NOUN_SUFFIXES = ("tion", "sion", "ment", "ness", "ity", "ship", "hood",
                  "ism", "ence", "ance", "ology", "er", "or", "ist")
_VERB_SUFFIXES = ("ify", "ize", "ise")
ENTITY_LABELS = ("PERSON", "ORG", "LOC", "EVENT")


class TokenAnnotation(NamedTuple):
    token: str
    pos: str
    entity_label: str | None = None


class EntityMention(NamedTuple):
    surface: str
    label: str


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


class ReferenceAnnotator(RuleAnnotator):
    """RuleAnnotator's lexicons with the seed's analysis."""

    def __init__(self) -> None:
        super().__init__()
        self._org_keywords = _lower_set(_read_lexicon("org_keywords.txt"))
        self._event_keywords = _lower_set(_read_lexicon("event_keywords.txt"))
        self._places_full = frozenset(
            " ".join(p.split()).lower() for p in _read_lexicon("places.txt"))

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
            if len(core) > 2 and core[-2:] in ("'s", "’s", "'S", "’S"):
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
