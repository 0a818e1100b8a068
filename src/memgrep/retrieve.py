"""Stage 2: index-free candidate retrieval.

Main path is case-insensitive substring matching of weighted terms over every
passage, repeated over up to max_hops rounds of entity expansion, then a
single pseudo-relevance-feedback round. Each term costs one C-level substring
pass over the corpus's lowercased passage texts. A pluggable dense scorer
covers the rare query whose terms match nothing. No inverted index, no
embedding store; the corpus text itself is the only data structure.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import contains

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


@dataclass(frozen=True)
class Candidate:
    passage_id: str
    match_score: float
    matched_terms: tuple[tuple[str, float], ...]
    hop: int

    def __post_init__(self) -> None:
        if self.hop < 0:
            raise ValueError("hop must be non-negative")
        if self.matched_terms:
            total = sum(weight for _, weight in self.matched_terms)
            if not math.isclose(self.match_score, total, abs_tol=1e-9):
                raise ValueError(
                    f"match_score {self.match_score} != sum of matched term "
                    f"weights {total}"
                )


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


# --- substring search ---

def grep_search(
    corpus: Corpus,
    terms: WeightedTermSet,
    mode: str = "OR",
    *,
    hop: int = 0,
) -> CandidateSet:
    """Scan every passage for term substrings; no index is consulted.

    Each needle is tested against every lowercased passage text in one
    C-level pass (``operator.contains`` mapped over the corpus).
    OR keeps any passage matching at least one term; AND requires all terms.
    Scores sum the weights of distinct matched terms, in term order;
    repeats add nothing.
    """
    if not terms.terms:
        raise ValueError("term set must be non-empty")
    if mode not in ("OR", "AND"):
        raise ValueError(f"mode must be OR or AND, got {mode!r}")
    lowered = corpus.lowered
    positions = range(len(lowered))
    # Passage position -> (surface, weight) pairs, appended in term order.
    hits: dict[int, list[tuple[str, float]]] = {}
    for term in terms.terms:
        needle = term.surface.lower()
        pair = (term.surface, term.weight)
        for i in compress(positions, map(contains, lowered, repeat(needle))):
            hits.setdefault(i, []).append(pair)
    passages = corpus.passages
    candidates = [
        Candidate(
            passage_id=passages[i].id,
            match_score=sum(weight for _, weight in matched),
            matched_terms=tuple(matched),
            hop=hop,
        )
        for i, matched in hits.items()
        if mode == "OR" or len(matched) == len(terms.terms)
    ]
    candidates.sort(key=lambda c: (-c.match_score, c.passage_id))
    return CandidateSet(
        candidates=tuple(candidates),
        query_id=query_id_for(terms.query_text),
        hops_executed=1,
    )


# --- expansion hops ---

def entity_expansion_hop(
    prior: CandidateSet,
    original_terms: WeightedTermSet,
    corpus: Corpus,
    annotator: Annotator,
    *,
    top_m: int = 10,
    exclude: frozenset[str] = frozenset(),
) -> WeightedTermSet:
    """Mine the current top passages for entities worth a follow-up grep.

    Entities already present in the original query (as substrings, case-
    insensitive) and surfaces in `exclude` (already searched on an earlier
    hop) are dropped; an empty result means the hop loop is done.
    """
    if not prior.candidates:
        raise ValueError("prior candidate set must be non-empty")
    query_low = original_terms.query_text.lower()
    known = set(original_terms.surfaces_lower()) | set(exclude)
    terms: list[WeightedTerm] = []
    seen: set[str] = set()
    for candidate in prior.candidates[:top_m]:
        passage = corpus.get(candidate.passage_id)
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
    passages = list(corpus)
    scores = dense_scorer.score(query, [p.text for p in passages])
    ranked = sorted(
        zip(passages, scores), key=lambda pair: (-pair[1], pair[0].id)
    )[:top_n]
    candidates = tuple(
        Candidate(passage_id=p.id, match_score=float(s), matched_terms=(),
                  hop=hop)
        for p, s in ranked
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
    merged: dict[str, Candidate] = {}
    hops = 0
    terms: WeightedTermSet | None = None
    try:
        terms = parse_query(query, annotator)
    except EmptyTermSetError:
        warnings.append("empty-term-set: no content terms in query")

    if terms is not None:
        searched = set(terms.surfaces_lower())
        hop_set = grep_search(corpus, terms, cfg.mode, hop=0)
        hops = 1
        _merge(merged, hop_set.candidates)

        while cfg.entity_hop_enabled and merged and hops < cfg.max_hops:
            prior = _as_set(merged, qid, hops)
            new_terms = entity_expansion_hop(
                prior, terms, corpus, annotator,
                top_m=cfg.entity_hop_source_top_m,
                exclude=frozenset(searched),
            )
            if not new_terms.terms:
                break
            searched.update(new_terms.surfaces_lower())
            hop_set = grep_search(corpus, new_terms, "OR", hop=hops)
            hops += 1
            _merge(merged, hop_set.candidates)

        if cfg.prf_enabled and merged:
            prior = _as_set(merged, qid, hops)
            top = [corpus.get(c.passage_id)
                   for c in prior.candidates[:cfg.prf_source_top_n]]
            prf_terms = prf_hop(
                top, annotator,
                min_doc_freq=cfg.prf_min_doc_freq,
                exclude=frozenset(searched),
                query_text=query,
            )
            if prf_terms.terms:
                searched.update(prf_terms.surfaces_lower())
                hop_set = grep_search(corpus, prf_terms, "OR", hop=hops)
                _merge(merged, hop_set.candidates)

    if not merged:
        if cfg.fallback_enabled and dense_scorer is not None:
            try:
                fallback = semantic_fallback(query, corpus, dense_scorer,
                                             hop=hops)
                _merge(merged, fallback.candidates)
            except ScorerUnavailableError as exc:
                warnings.append(f"semantic-fallback-unavailable: {exc}")
        else:
            warnings.append(
                "no-candidates: substring search empty and fallback disabled"
            )

    final = _as_set(merged, qid, hops)
    return CandidateSet(
        candidates=final.candidates,
        query_id=qid,
        hops_executed=hops,
        warnings=tuple(warnings),
    )


def _merge(merged: dict[str, Candidate], candidates: tuple[Candidate, ...]) -> None:
    """Cross-hop dedup: max match_score wins, earliest hop is kept."""
    for candidate in candidates:
        held = merged.get(candidate.passage_id)
        if held is None:
            merged[candidate.passage_id] = candidate
            continue
        # Hops merge in increasing order, so held.hop <= candidate.hop: a
        # held candidate that scores at least as high stays as it is.
        if candidate.match_score > held.match_score:
            merged[candidate.passage_id] = Candidate(
                passage_id=candidate.passage_id,
                match_score=candidate.match_score,
                matched_terms=candidate.matched_terms,
                hop=held.hop,
            )


def _as_set(merged: dict[str, Candidate], qid: str, hops: int) -> CandidateSet:
    ordered = sorted(merged.values(),
                     key=lambda c: (-c.match_score, c.passage_id))
    return CandidateSet(candidates=tuple(ordered), query_id=qid,
                        hops_executed=hops)
