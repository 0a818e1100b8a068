"""Stage 2: index-free candidate retrieval.

Main path is case-insensitive substring matching of weighted terms over every
passage, repeated over up to max_hops rounds of entity expansion, then a
single pseudo-relevance-feedback round. Each term is found with str.find
over the corpus's scan surface, its lowercased passage texts joined by NUL,
and each hit is mapped to its passage by bisecting the passage offsets. No
inverted index, no embedding store; the corpus text itself is the only data
structure. Whenever every grep comes back empty, the semantic fallback
scores every passage with the run's first served scorer, else in process,
where every query-term sum is then 0.0, so a passage scores minus a length
penalty and the shortest passages win.

There is one grep, an OR grep: it returns each passage holding at least one
term with its match score, by passage position; the weights only order the
hits. and_hits, the hits holding every term, serves the oracle's grep-and
tool. retrieve folds every hop's scores into one map (higher score wins,
earliest hop kept); the fallback's top scores fold into it too. retrieve
then builds each Candidate once, in candidate order: match score down, then
passage id up. It also keeps the query's parsed terms and each candidate's
query-term sum, the weights of those terms found in it, which the in-process
lexical scorer reads in place of the text. Every CandidateSet retrieve
returns, an empty one included, is built at that one exit. The set is
empty when the fallback's served scorer is down; it then warns
semantic-fallback-unavailable, and rank and the cut take it like any other
set, to the empty ranking and the empty context.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, le
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .annotate import Annotator, RuleAnnotator
from .corpus import Corpus, Passage
from .errors import ScorerUnavailableError
from .parse import (
    ENTITY_HOP_WEIGHT,
    PRF_WEIGHT,
    WeightedTerm,
    WeightedTermSet,
    parse_query,
)
from .service import ServiceClient
from .truncate import check_ints

if TYPE_CHECKING:
    from .rank import ScorerHandle

SEMANTIC_FALLBACK_TOP_N = 50
LENGTH_PENALTY = 0.001


def query_id_for(query: str) -> str:
    return hashlib.sha256(query.encode("utf-8")).hexdigest()[:12]


class Candidate(NamedTuple):
    # match_score is the passage's best grep score over the hops, the weights
    # of one hop's terms its text holds, or its fallback score if the fallback
    # found it; hop is the first hop that found it.
    passage_id: str
    match_score: float
    hop: int


@dataclass(frozen=True)
class CandidateSet:
    # Passage ids are unique by construction: retrieve builds every set from
    # its maps keyed by corpus position, grep hits and fallback alike.
    # term_sums[k] is candidates[k]'s query-term sum: the weights, added in
    # term order, of the question's own parsed terms that its text contains,
    # as the hop-0 grep finds it (0.0 when it holds none); rank's in-process
    # scorer needs it. terms are those parsed terms, empty when the query
    # has none.
    candidates: tuple[Candidate, ...]
    query_id: str
    hops_executed: int
    warnings: tuple[str, ...] = ()
    term_sums: tuple[float, ...] = ()
    terms: tuple[WeightedTerm, ...] = ()

    def ids(self) -> list[str]:
        return [c.passage_id for c in self.candidates]

    def __len__(self) -> int:   # also its truth: a set is true iff non-empty
        return len(self.candidates)


@dataclass(frozen=True)
class RetrieveConfig:
    """Retrieval's search limits. max_hops=1 runs no entity hop and
    prf_source_top_n=0 runs no PRF round."""

    max_hops: int = 3
    entity_hop_source_top_m: int = 10
    prf_min_doc_freq: int = 2
    prf_source_top_n: int = 10

    def __post_init__(self) -> None:
        check_ints(self, "max_hops", "entity_hop_source_top_m", "prf_min_doc_freq",
                   "prf_source_top_n")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if self.prf_min_doc_freq < 1:
            raise ValueError("prf_min_doc_freq must be >= 1")
        if self.entity_hop_source_top_m < 0 or self.prf_source_top_n < 0:
            raise ValueError("source top counts must be >= 0")


# --- substring search ---

def grep_search(corpus: Corpus, terms: WeightedTermSet) -> dict[int, float]:
    """Scan every passage for term substrings; no index is consulted.

    Each needle is found with ``str.find`` in each block of the corpus's
    scan surface (see ``Corpus.scan``). A hit belongs to the passage whose
    offset range holds its start, and the search resumes at the next
    passage, so each passage is reported at most once per needle. A hit
    that runs past its passage's end, over the NUL that separates it from
    the next, is not a match, and neither is any later hit in that passage.
    Returns the raw OR hits, every passage matching at least one term, as
    passage position -> match score: the weights of the terms it holds,
    added in term order. Repeats of a term in the text add nothing. The
    empty term set finds nothing.
    """
    hits: dict[int, float] = {}
    get = hits.get
    for term in terms.terms:
        weight = term.weight
        needle = term.surface.lower()
        size = len(needle)
        for text, starts, base in corpus.scan:
            find = text.find
            at = find(needle)
            while at >= 0:
                # The hit starts in passage base + j - 1, whose text ends at
                # offset starts[j] - 2, just before a NUL or the block's end.
                j = bisect_right(starts, at)
                end = starts[j]
                if at + size < end:
                    i = base + j - 1
                    hits[i] = get(i, 0.0) + weight
                at = find(needle, end)
    return hits


def and_hits(hits: dict[int, float], terms: WeightedTermSet) -> dict[int, float]:
    """Those of terms' OR hits that match every term, the oracle's grep-and
    hits: the hits scoring the total weight. Both sums add the same weights
    in the same order, and every weight is a positive multiple of 0.5 (see
    WeightedTerm), so the sums are exact and a hit missing a term scores
    strictly less."""
    total = sum(t.weight for t in terms.terms)
    return {i: score for i, score in hits.items() if score == total}


def candidate_order(corpus: Corpus, scores: dict[int, float],
                    top: int | None = None) -> list[int]:
    """Passage positions in candidate order, match score descending, then
    passage id ascending; only the first `top` when it is given.

    The positions are sorted by passage id, then stable-sorted by score, so
    tied scores (0.0 and -0.0 included) stay in id order: the (-score, id)
    order. Given `top`, only the positions scoring at least the top-th
    largest score are sorted, every tie at that cutoff included, and the
    order is cut after."""
    if top is not None and top < len(scores):
        if top <= 0:
            return []
        cutoff = heapq.nlargest(top, scores.values())[-1]
        positions = list(compress(scores, map(le, repeat(cutoff), scores.values())))
    else:
        positions = list(scores)
    ids = dict(zip(positions, map(attrgetter("id"), map(corpus.passages.__getitem__,
                                                          positions))))
    positions.sort(key=ids.__getitem__)
    positions.sort(key=scores.__getitem__, reverse=True)
    return positions[:top]


# --- expansion hops ---

def entity_expansion_hop(
    ranked_top: list[Passage],
    annotator: Annotator,
    *,
    exclude: frozenset[str],
) -> WeightedTermSet:
    """Mine the current top passages for entities worth a follow-up grep.

    Each entity surface counts once, case-insensitively, and surfaces in
    `exclude` (the query's terms and those searched on an earlier hop) are
    dropped; an empty result, which no passages give, means the hop loop is
    done.
    """
    terms: list[WeightedTerm] = []
    seen: set[str] = set()
    for passage in ranked_top:
        for mention in annotator.extract_entities(passage.text):
            low = mention.lower()
            if low in seen or low in exclude:
                continue
            seen.add(low)
            terms.append(WeightedTerm(
                surface=mention,
                weight=ENTITY_HOP_WEIGHT,
                provenance="entity-hop",
            ))
    return WeightedTermSet(tuple(terms))


def prf_hop(
    ranked_top: list[Passage],
    annotator: Annotator,
    *,
    min_doc_freq: int,
    exclude: frozenset[str],
) -> WeightedTermSet:
    """Low-weight terms from content words recurring across top passages.

    A noun or proper noun must appear in at least min_doc_freq distinct
    passages of ranked_top to qualify; surfaces in `exclude` are dropped.
    Terms keep the order and casing of each surface's first appearance. No
    passages yield no terms.
    """
    doc_freq: dict[str, int] = {}
    casing: dict[str, str] = {}
    for passage in ranked_top:
        in_this: set[str] = set()
        for annotation in annotator.annotate(passage.text):
            if annotation.pos not in ("NOUN", "PROPN"):
                continue
            low = annotation.token.lower()
            if low in in_this or low in exclude:
                continue
            in_this.add(low)
            casing.setdefault(low, annotation.token)
            doc_freq[low] = doc_freq.get(low, 0) + 1
    terms = tuple(
        WeightedTerm(surface=casing[low], weight=PRF_WEIGHT, provenance="prf")
        for low, freq in doc_freq.items()
        if freq >= min_doc_freq
    )
    return WeightedTermSet(terms)


# --- scoring and the fallback ---

def scorer_scores(endpoint: str | None, query: str, corpus: Corpus,
                  ids: list[str], sums: Sequence[float]) -> list[float]:
    """One scorer's scores of the passages `ids`, for rank.score and the
    fallback alike. A served scorer (an endpoint) scores their texts; in
    process, passage k scores its query-term sum sums[k] minus LENGTH_PENALTY
    per word, which is rank.LexicalDenseScorer's score of the text bit for
    bit. No ids are no scores, and no served scorer is asked for them."""
    if endpoint and ids:
        return ServiceClient(endpoint).score(query, [corpus.get(pid).text for pid in ids])
    if len(sums) != len(ids):
        raise ValueError("the in-process scorer needs one query-term sum per "
                         f"candidate: got {len(sums)} for {len(ids)}")
    return [m - LENGTH_PENALTY * n for m, n in zip(sums, map(corpus.word_count, ids))]


def semantic_fallback(query: str, corpus: Corpus,
                      scorers: Sequence[ScorerHandle]) -> dict[int, float]:
    """Score every passage with the first served scorer, else in process,
    and keep the top SEMANTIC_FALLBACK_TOP_N, as passage position -> score
    in candidate order. Only called when substring matching found nothing,
    so every query-term sum the in-process scorer reads is 0.0."""
    endpoint = next((s.endpoint for s in scorers if s.endpoint), None)
    ids = [p.id for p in corpus.passages]
    scores = dict(enumerate(scorer_scores(endpoint, query, corpus, ids, [0.0] * len(ids))))
    return {i: scores[i] for i in candidate_order(corpus, scores, SEMANTIC_FALLBACK_TOP_N)}


# --- orchestration ---

def retrieve(
    query: str,
    corpus: Corpus,
    cfg: RetrieveConfig | None = None,
    annotator: Annotator | None = None,
    scorers: Sequence[ScorerHandle] = (),
) -> CandidateSet:
    """Full retrieval: grep, entity hops while they yield new terms, one PRF
    round, and the semantic fallback over the run's scorers whenever
    everything else came back empty. A query that parses to the empty term
    set runs no hop and warns "empty-term-set"; a blank passage matches no
    term and is scored like any other.
    """
    if cfg is None:
        cfg = RetrieveConfig()
    if annotator is None:
        annotator = RuleAnnotator()
    warnings: list[str] = []
    passages = corpus.passages
    # Passage position -> its best match score over the hops so far, and the
    # first hop that found it.
    scores: dict[int, float] = {}
    first_hop: dict[int, int] = {}
    # Passage position -> its query-term sum; a passage absent holds none.
    own: dict[int, float] = {}

    def fold(hits: dict[int, float], hop: int) -> None:
        for i, score in hits.items():
            held = scores.get(i)
            if held is None:
                first_hop[i] = hop
            elif score <= held:
                continue
            scores[i] = score

    hops = 0
    terms = parse_query(query, annotator)
    if not terms.terms:
        warnings.append("empty-term-set: no content terms in query")
    else:
        searched = set(terms.surfaces_lower())
        own = grep_search(corpus, terms)
        fold(own, 0)
        hops = 1

        # A top-m of 0 mines no passage, so it ends the loop like an empty
        # hop, as a max_hops of 1 does.
        while cfg.entity_hop_source_top_m and scores and hops < cfg.max_hops:
            top = [passages[i] for i in candidate_order(corpus, scores,
                                                        cfg.entity_hop_source_top_m)]
            new_terms = entity_expansion_hop(top, annotator, exclude=frozenset(searched))
            if not new_terms.terms:
                break
            searched.update(new_terms.surfaces_lower())
            fold(grep_search(corpus, new_terms), hops)
            hops += 1

        # A top-n of 0 mines no passage either, so it skips PRF.
        if cfg.prf_source_top_n and scores:
            top = [passages[i] for i in candidate_order(corpus, scores, cfg.prf_source_top_n)]
            prf_terms = prf_hop(
                top, annotator,
                min_doc_freq=cfg.prf_min_doc_freq,
                exclude=frozenset(searched),
            )
            if prf_terms.terms:
                fold(grep_search(corpus, prf_terms), hops)

    if not scores:
        try:
            fallback = semantic_fallback(query, corpus, scorers)
        except ScorerUnavailableError as exc:
            warnings.append(f"semantic-fallback-unavailable: {exc}")
        else:
            # Fallback-scored candidates, found at hop `hops`.
            fold(fallback, hops)
    order = candidate_order(corpus, scores)
    # tuple.__new__ builds each record in C; Candidate's own __new__ is Python.
    found = tuple(map(tuple.__new__, repeat(Candidate),
                      zip(map(attrgetter("id"), map(passages.__getitem__, order)),
                          map(scores.__getitem__, order), map(first_hop.__getitem__, order))))
    return CandidateSet(found, query_id_for(query), hops, tuple(warnings),
                        tuple(map(own.get, order, repeat(0.0))), terms.terms)
