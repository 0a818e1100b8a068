"""Stage 2: index-free candidate retrieval.

Main path is case-insensitive substring matching of weighted terms over every
passage, repeated over up to max_hops rounds of entity expansion, then a
single pseudo-relevance-feedback round. Each term costs one C-level substring
pass over the corpus's lowercased passage texts. A pluggable dense scorer
covers the rare query whose terms match nothing. No inverted index, no
embedding store; the corpus text itself is the only data structure.

A grep returns its raw hits by passage position. retrieve folds every hop's
hits into one map (higher score wins, earliest hop kept) and builds each
Candidate once, in candidate order: match score down, then passage id up.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, replace
from itertools import compress, repeat
from operator import attrgetter, contains, itemgetter, neg

from .annotate import Annotator, RuleAnnotator
from .corpus import Corpus, Passage
from .errors import EmptyTermSetError, ScorerUnavailableError
from .parse import (
    ENTITY_HOP_WEIGHT,
    PRF_WEIGHT,
    WeightedTerm,
    WeightedTermSet,
    parse_query,
)

SEMANTIC_FALLBACK_TOP_N = 50


def query_id_for(query: str) -> str:
    return hashlib.sha256(query.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True, slots=True)
class Candidate:
    # match_score is the sum of matched_terms' weights by construction:
    # retrieve keeps the pairs of a passage's best hop with their sum, and a
    # fallback candidate is score-only (matched_terms empty).
    passage_id: str
    match_score: float
    matched_terms: tuple[tuple[str, float], ...]
    hop: int


@dataclass(frozen=True)
class CandidateSet:
    # Passage ids are unique by construction: every set is keyed by corpus
    # position, by passage id, or built from a corpus's passages.
    candidates: tuple[Candidate, ...]
    query_id: str
    hops_executed: int
    warnings: tuple[str, ...] = ()

    def ids(self) -> list[str]:
        return [c.passage_id for c in self.candidates]

    def __len__(self) -> int:
        return len(self.candidates)

    def __bool__(self) -> bool:
        return bool(self.candidates)


@dataclass(frozen=True)
class RetrieveConfig:
    mode: str = "OR"
    max_hops: int = 3
    entity_hop_source_top_m: int = 10
    prf_enabled: bool = True
    entity_hop_enabled: bool = True
    prf_min_doc_freq: int = 2
    prf_source_top_n: int = 10
    fallback_enabled: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("OR", "AND"):
            raise ValueError(f"mode must be OR or AND, got {self.mode!r}")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if self.prf_min_doc_freq < 1:
            raise ValueError("prf_min_doc_freq must be >= 1")
        if self.entity_hop_source_top_m < 0 or self.prf_source_top_n < 0:
            raise ValueError("source top counts must be >= 0")


# --- substring search ---

# Passage position -> the (surface, weight) pairs of the terms it matched, in
# term order.
Hits = dict[int, list[tuple[str, float]]]
_weight = itemgetter(1)


def grep_search(corpus: Corpus, terms: WeightedTermSet, mode: str = "OR") -> Hits:
    """Scan every passage for term substrings; no index is consulted.

    Each needle is tested against every lowercased passage text in one
    C-level pass (``operator.contains`` mapped over the corpus). Returns the
    raw hits: OR keeps any passage matching at least one term, AND only
    those matching all of them. A passage's match score is the sum of its
    pairs' weights; repeats of a term in the text add nothing.
    """
    if not terms.terms:
        raise ValueError("term set must be non-empty")
    if mode not in ("OR", "AND"):
        raise ValueError(f"mode must be OR or AND, got {mode!r}")
    lowered = corpus.lowered
    positions = range(len(lowered))
    hits: Hits = {}
    for term in terms.terms:
        pair = (term.surface, term.weight)
        for i in compress(positions, map(contains, lowered, repeat(term.surface.lower()))):
            hits.setdefault(i, []).append(pair)
    if mode == "AND":
        return {i: matched for i, matched in hits.items()
                if len(matched) == len(terms.terms)}
    return hits


def match_scores(hits: Hits) -> dict[int, float]:
    """Each hit's match score: its pairs' weights summed in term order."""
    return {i: sum(map(_weight, pairs)) for i, pairs in hits.items()}


def candidate_order(corpus: Corpus, scores: dict[int, float],
                    top: int | None = None) -> list[int]:
    """Passage positions in candidate order, match score descending, then
    passage id ascending; only the first `top` when it is given."""
    ids = map(attrgetter("id"), map(corpus.passages.__getitem__, scores))
    keyed = zip(map(neg, scores.values()), ids, scores)
    rows = sorted(keyed) if top is None else heapq.nsmallest(top, keyed)
    return [i for _, _, i in rows]


# --- expansion hops ---

def entity_expansion_hop(
    ranked_top: list[Passage],
    original_terms: WeightedTermSet,
    annotator: Annotator,
    *,
    exclude: frozenset[str] = frozenset(),
) -> WeightedTermSet:
    """Mine the current top passages for entities worth a follow-up grep.

    Entities already present in the original query (as substrings, case-
    insensitive) and surfaces in `exclude` (already searched on an earlier
    hop) are dropped; an empty result means the hop loop is done.
    """
    if not ranked_top:
        raise ValueError("ranked_top must be non-empty")
    query_low = original_terms.query_text.lower()
    known = set(original_terms.surfaces_lower()) | set(exclude)
    terms: list[WeightedTerm] = []
    seen: set[str] = set()
    for passage in ranked_top:
        for mention in annotator.extract_entities(passage.text):
            low = mention.surface.lower()
            if low in seen or low in known or low in query_low:
                continue
            seen.add(low)
            terms.append(WeightedTerm(
                surface=mention.surface,
                weight=ENTITY_HOP_WEIGHT,
                provenance="entity-hop",
            ))
    return WeightedTermSet(terms=tuple(terms),
                           query_text=original_terms.query_text)


def prf_hop(
    ranked_top: list[Passage],
    annotator: Annotator,
    *,
    min_doc_freq: int = 2,
    exclude: frozenset[str] = frozenset(),
    query_text: str = "",
) -> WeightedTermSet:
    """Low-weight terms from content words recurring across top passages.

    A noun or proper noun must appear in at least min_doc_freq distinct
    passages of ranked_top to qualify; surfaces in `exclude` are dropped.
    """
    if not ranked_top:
        raise ValueError("ranked_top must be non-empty")
    doc_freq: dict[str, int] = {}
    casing: dict[str, str] = {}
    order: list[str] = []
    for passage in ranked_top:
        in_this: set[str] = set()
        for annotation in annotator.annotate(passage.text):
            if annotation.pos not in ("NOUN", "PROPN"):
                continue
            low = annotation.token.lower()
            if low in in_this or low in exclude:
                continue
            in_this.add(low)
            if low not in doc_freq:
                doc_freq[low] = 0
                casing[low] = annotation.token
                order.append(low)
            doc_freq[low] += 1
    terms = tuple(
        WeightedTerm(surface=casing[low], weight=PRF_WEIGHT, provenance="prf")
        for low in order
        if doc_freq[low] >= min_doc_freq
    )
    return WeightedTermSet(terms=terms, query_text=query_text)


# --- dense fallback ---

def semantic_fallback(
    query: str,
    corpus: Corpus,
    dense_scorer,
    *,
    top_n: int = SEMANTIC_FALLBACK_TOP_N,
    hop: int = 0,
) -> CandidateSet:
    """Score every passage with the dense scorer and keep the top slice.

    Only called when substring matching found nothing; matched_terms stays
    empty to mark these candidates as score-only.
    """
    if dense_scorer is None:
        raise ScorerUnavailableError("no dense scorer configured")
    passages = corpus.passages
    scores = dense_scorer.score(query, [p.text for p in passages])
    by_position = dict(enumerate(scores))
    candidates = tuple(
        Candidate(passage_id=passages[i].id, match_score=float(by_position[i]),
                  matched_terms=(), hop=hop)
        for i in candidate_order(corpus, by_position, top_n)
    )
    return CandidateSet(candidates=candidates, query_id=query_id_for(query),
                        hops_executed=0)


# --- orchestration ---

def retrieve(
    query: str,
    corpus: Corpus,
    cfg: RetrieveConfig | None = None,
    annotator: Annotator | None = None,
    dense_scorer=None,
) -> CandidateSet:
    """Full retrieval: grep, entity hops while they yield new terms, one PRF
    round, dense fallback only if everything else came back empty.
    """
    if cfg is None:
        cfg = RetrieveConfig()
    if annotator is None:
        annotator = RuleAnnotator()
    qid = query_id_for(query)
    warnings: list[str] = []
    passages = corpus.passages
    # Passage position -> its best match score over the hops so far, the
    # pairs that scored it, and the first hop that found it.
    scores: dict[int, float] = {}
    best: Hits = {}
    first_hop: dict[int, int] = {}

    def fold(hits: Hits, hop: int) -> None:
        for i, score in match_scores(hits).items():
            held = scores.get(i)
            if held is None:
                first_hop[i] = hop
            elif score <= held:
                continue
            scores[i] = score
            best[i] = hits[i]

    hops = 0
    terms: WeightedTermSet | None = None
    try:
        terms = parse_query(query, annotator)
    except EmptyTermSetError:
        warnings.append("empty-term-set: no content terms in query")

    if terms is not None:
        searched = set(terms.surfaces_lower())
        fold(grep_search(corpus, terms, cfg.mode), 0)
        hops = 1

        # A top-m of 0 mines no passage, so it ends the loop like an empty hop.
        while (cfg.entity_hop_enabled and cfg.entity_hop_source_top_m and scores
               and hops < cfg.max_hops):
            top = [passages[i] for i in candidate_order(corpus, scores,
                                                        cfg.entity_hop_source_top_m)]
            new_terms = entity_expansion_hop(top, terms, annotator,
                                             exclude=frozenset(searched))
            if not new_terms.terms:
                break
            searched.update(new_terms.surfaces_lower())
            fold(grep_search(corpus, new_terms, "OR"), hops)
            hops += 1

        if cfg.prf_enabled and scores:
            top = [passages[i] for i in candidate_order(corpus, scores, cfg.prf_source_top_n)]
            prf_terms = prf_hop(
                top, annotator,
                min_doc_freq=cfg.prf_min_doc_freq,
                exclude=frozenset(searched),
                query_text=query,
            )
            if prf_terms.terms:
                fold(grep_search(corpus, prf_terms, "OR"), hops)

    if scores:
        found = tuple(Candidate(passages[i].id, scores[i], tuple(best[i]), first_hop[i])
                      for i in candidate_order(corpus, scores))
        return CandidateSet(found, qid, hops, tuple(warnings))
    if cfg.fallback_enabled and dense_scorer is not None:
        try:
            fallback = semantic_fallback(query, corpus, dense_scorer, hop=hops)
            return replace(fallback, hops_executed=hops, warnings=tuple(warnings))
        except ScorerUnavailableError as exc:
            warnings.append(f"semantic-fallback-unavailable: {exc}")
    else:
        warnings.append("no-candidates: substring search empty and fallback disabled")
    return CandidateSet((), qid, hops, tuple(warnings))
