"""Stage 3: score candidates and fuse scorer rankings.

One or two scorers evaluate the full candidate set independently; their
rankings are combined with weighted Reciprocal Rank Fusion. A single scorer
is fused alone at weight 1.0, which keeps its order. Rank-based fusion
keeps the pipeline indifferent to scorer calibration: multiplying any
scorer's raw scores by a positive constant changes nothing downstream.
The split is fixed: rank() fuses at fusion_weights of the scorers it is
given, PRIMARY_WEIGHT to the primary scorer and OTHER_WEIGHT to the other
at RRF_K, so no caller decides it. The values are plain: score gives a
scorer's {candidate id: score} map, rrf_fuse the fused RankedEntry tuple,
and rank both, one map per scorer in scorer order. rank is total: the empty
candidate set is the empty ranking, with one empty map per scorer, and no
scorer is asked to score nothing.

A ScorerHandle, {name, kind, endpoint}, names a scorer: served when it has
an endpoint, in process otherwise. Every scorer scores the CandidateSet
retrieve returned through retrieve.scorer_scores, the one dispatch the
semantic fallback also uses. A served scorer, a relevance model out of
process, scores the candidates' texts through service.ServiceClient. The
in-process scorer is the lexical scorer, so every code path runs with no
model at all; it reads no text but each candidate's query-term sum
(CandidateSet.term_sums) minus LENGTH_PENALTY per word, so the query is
parsed once per run, by retrieval. Two scorers run concurrently if and only
if both are served, to overlap their round trips; rank reads that from the
handles and takes no switch for it.

LexicalDenseScorer is the same scorer over texts, in ServiceClient's shape;
nothing in the pipeline calls it, but a ReferenceServer host serves it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass
from itertools import compress, repeat
from operator import add, contains, truediv
from typing import NamedTuple

from .annotate import RuleAnnotator
from .corpus import Corpus
from .parse import parse_query
from .retrieve import LENGTH_PENALTY, CandidateSet, scorer_scores

SCORER_KINDS = ("pointwise-cross", "late-interaction", "lexical-test")
RRF_K = 60.0
PRIMARY_WEIGHT = 0.7
OTHER_WEIGHT = 0.3


@dataclass(frozen=True)
class ScorerHandle:
    name: str
    kind: str = "lexical-test"
    endpoint: str | None = None
    transport: InitVar[str | None] = None  # checked against endpoint, not stored

    def __post_init__(self, transport: str | None) -> None:
        if not self.name:
            raise ValueError("a scorer needs a name")
        if self.endpoint == "":
            raise ValueError("endpoint must be a non-empty string or null")
        if self.kind not in SCORER_KINDS:
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        if transport not in (None, "service-adapter" if self.endpoint else "in-process"):
            raise ValueError(f"transport {transport!r} contradicts endpoint {self.endpoint!r}")
        if (self.kind == "lexical-test") != (self.endpoint is None):
            raise ValueError(f"kind {self.kind!r} contradicts endpoint {self.endpoint!r}: "
                             "a scorer is lexical-test iff it has no endpoint")


def primary_index(scorers: list[ScorerHandle]) -> int:
    """The position of the scorer that takes PRIMARY_WEIGHT and keys the
    adaptive threshold: the first pointwise-cross scorer, else the
    first scorer."""
    return next((i for i, s in enumerate(scorers) if s.kind == "pointwise-cross"), 0)


class RankedEntry(NamedTuple):
    # A passage's position in each scorer's ranking is its place in that
    # scorer's order_by_score, score descending, then id ascending.
    passage_id: str
    fused_score: float


# --- scoring ---

class LexicalDenseScorer:
    """The lexical scorer over texts: matched distinct query-term weights
    minus a length penalty of LENGTH_PENALTY per word.

    It has ServiceClient's shape, .score(query, texts) -> list[float], so a
    ReferenceServer can serve it in place of a model; the in-process scorer
    gives the same scores from retrieval's sums. The penalty makes scores
    strictly length-sensitive, so ties are rare and the denser of two
    equally-matching passages wins. Queries are parsed with a RuleAnnotator.
    """

    def __init__(self) -> None:
        self._annotator = RuleAnnotator()

    def score(self, query: str, texts: list[str]) -> list[float]:
        terms = parse_query(query, self._annotator).terms
        lowered = list(map(str.lower, texts))
        positions = range(len(lowered))
        # One C-level pass per term, as grep_search scans, adding weights in
        # term order: the same sums as scoring one text at a time.
        matched = [0] * len(lowered)
        for term in terms:
            for i in compress(positions, map(contains, lowered, repeat(term.surface.lower()))):
                matched[i] += term.weight
        words = map(len, map(str.split, texts))
        return [m - LENGTH_PENALTY * n for m, n in zip(matched, words)]


def score(scorer: ScorerHandle, query: str, candidates: CandidateSet,
          corpus: Corpus) -> dict[str, float]:
    """One scorer's score per candidate id, from retrieve.scorer_scores;
    errors are never papered over. Scores are finite by construction:
    ServiceClient rejects non-finite values at the wire, and the lexical
    scorer sums finite weights."""
    ids = candidates.ids()
    values = scorer_scores(scorer.endpoint, query, corpus, ids, candidates.term_sums)
    return dict(zip(ids, values))


# --- fusion ---

def fusion_weights(scorers: list[ScorerHandle]) -> list[float]:
    """One fusion weight per scorer, in order: 1.0 alone, else
    PRIMARY_WEIGHT to the primary scorer and OTHER_WEIGHT to the other. One
    or two scorers with distinct names."""
    if len(scorers) == 1:
        return [1.0]
    if len(scorers) != 2:
        raise ValueError("fusion accepts exactly one or two scorers")
    if scorers[0].name == scorers[1].name:
        raise ValueError("scorer names must be unique")
    weights = [OTHER_WEIGHT, OTHER_WEIGHT]
    weights[primary_index(scorers)] = PRIMARY_WEIGHT
    return weights


def rrf_fuse(rankings: list[tuple[float, list[str]]], k: float) -> tuple[RankedEntry, ...]:
    """fused(d) = sum over (weight, ids) rankings holding d of
    weight / (k + rank(d)).

    Ranks are 1-based; a passage absent from a ranking picks up nothing from
    it. Output sorted by fused score descending, passage_id ascending.
    """
    for _, ids in rankings:
        if len(ids) != len(set(ids)):
            raise ValueError("a ranking lists a passage twice")
    fused: dict[str, float] = {}
    for weight, ids in rankings:
        # Position p's share, weight / (k + p), added to what the ranking's
        # ids hold so far (0.0 for a new id), one ranking after another.
        shares = map(truediv, repeat(weight), map(add, repeat(k), range(1, len(ids) + 1)))
        sums = list(map(add, map(fused.get, ids, repeat(0.0)), shares))
        fused.update(zip(ids, sums))
    order = order_by_score(fused)
    # tuple.__new__ builds each record in C; RankedEntry's own __new__ is Python.
    return tuple(map(tuple.__new__, repeat(RankedEntry),
                     zip(order, map(fused.__getitem__, order))))


def rank(
    candidates: CandidateSet,
    query: str,
    corpus: Corpus,
    scorers: list[ScorerHandle],
) -> tuple[tuple[RankedEntry, ...], list[dict[str, float]]]:
    """Score the full candidate set with every scorer, then fuse at the
    fixed split (fusion_weights), which also checks that there are one or
    two scorers with distinct names before any of them scores.

    Two served scorers run concurrently, to overlap their round trips;
    otherwise the scorers run in turn on the calling thread. Results are
    merged in scorer order, so the output is bit-identical to scoring each
    in turn with score and fusing with rrf_fuse. One scorer failing
    fails the whole call. A single scorer is fused alone, so its order is
    kept. The in-process scorer reads the set's term_sums, one per
    candidate. Returns the fused entries and one score map per scorer, in
    scorer order, as fusion_weights orders its weights. The empty set ranks
    to no entries and one empty map per scorer; retrieve.scorer_scores asks
    no served scorer to score it.
    """
    weights = fusion_weights(scorers)
    if len(scorers) == 2 and all(s.endpoint for s in scorers):
        with ThreadPoolExecutor(max_workers=len(scorers)) as pool:
            futures = [pool.submit(score, s, query, candidates, corpus) for s in scorers]
            maps = [future.result() for future in futures]
    else:
        maps = [score(s, query, candidates, corpus) for s in scorers]

    # Every map scores the same ids, so they are sorted once; each stable
    # sort by score then gives order_by_score of that map.
    ids = sorted(candidates.ids())
    per_scorer_order = [(w, sorted(ids, key=m.__getitem__, reverse=True))
                        for w, m in zip(weights, maps)]
    return rrf_fuse(per_scorer_order, RRF_K), maps


def order_by_score(scores: dict[str, float]) -> list[str]:
    """Ids by score descending, then id ascending: the ids sorted, then
    stable-sorted by score alone. A stable sort keeps tied scores (0.0 and
    -0.0 included) in id order, so this is the (-score, id) order, and ids
    are unique, so no two of those keys tie."""
    order = sorted(scores)
    order.sort(key=scores.__getitem__, reverse=True)
    return order
