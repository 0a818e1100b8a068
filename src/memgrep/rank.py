"""Stage 3: score candidates and fuse scorer rankings.

One or two scorers evaluate the full candidate set independently; their
rankings are combined with weighted Reciprocal Rank Fusion. Rank-based fusion
keeps the pipeline indifferent to scorer calibration: multiplying any
scorer's raw scores by a positive constant changes nothing downstream.

Every scorer is an object with .score(query, texts) -> list[float], one
finite score per text. Real relevance models live out of process and are
reached through service.ServiceClient; LexicalDenseScorer is the one
in-process scorer, so every code path runs deterministically with no model
at all. ScorerHandle.client() picks between the two, and score() calls the
result the same way for both. The lexical scorer parses the query with the
annotator it is given, which in a pipeline run is the run's own annotator.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .annotate import Annotator, RuleAnnotator
from .corpus import Corpus, Passage
from .errors import EmptyTermSetError, UnknownScorerError
from .parse import parse_query
from .retrieve import CandidateSet
from .service import ServiceClient

SCORER_KINDS = ("pointwise-cross", "late-interaction", "lexical-test")
TRANSPORTS = ("in-process", "service-adapter")
DEFAULT_RRF_K = 60.0
DEFAULT_CROSS_WEIGHT = 0.7
DEFAULT_LATE_WEIGHT = 0.3
LENGTH_PENALTY = 0.001


@dataclass(frozen=True)
class ScorerHandle:
    name: str
    kind: str = "lexical-test"
    transport: str = "in-process"
    endpoint: str | None = None
    timeout: float = 10.0
    retries: int = 1

    def __post_init__(self) -> None:
        if self.kind not in SCORER_KINDS:
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.transport == "service-adapter" and not self.endpoint:
            raise ValueError("service-adapter scorers need an endpoint")
        if self.transport == "in-process" and self.kind != "lexical-test":
            raise ValueError(
                f"{self.kind} runs out of process; only lexical-test is "
                "available in-process"
            )

    def client(self, annotator: Annotator | None = None
               ) -> "ServiceClient | LexicalDenseScorer":
        """The object that scores for this handle; an in-process scorer
        parses queries with the given annotator."""
        if self.transport == "service-adapter":
            return ServiceClient(self.endpoint, self.timeout, self.retries)
        return LexicalDenseScorer(annotator)


@dataclass(frozen=True)
class ScoreVector:
    scorer_name: str
    scores: dict[str, float]

    def __post_init__(self) -> None:
        for passage_id, value in self.scores.items():
            if not math.isfinite(value):
                raise ValueError(
                    f"non-finite score {value!r} for passage {passage_id}"
                )


@dataclass(frozen=True)
class FusionConfig:
    k: float = DEFAULT_RRF_K
    weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.weights:
            if len(self.weights) not in (1, 2):
                raise ValueError("fusion accepts exactly one or two scorers")
            if any(w < 0 for w in self.weights.values()):
                raise ValueError("weights must be non-negative")
            if sum(self.weights.values()) <= 0:
                raise ValueError("weights must sum to a positive value")

    @staticmethod
    def for_scorers(scorers: list[ScorerHandle], k: float = DEFAULT_RRF_K
                    ) -> "FusionConfig":
        """Default weights: 0.7 to the pointwise-cross slot, 0.3 to the
        other; positional when kinds do not disambiguate; 1.0 standalone.
        """
        if len(scorers) == 1:
            return FusionConfig(k=k, weights={scorers[0].name: 1.0})
        if len(scorers) != 2:
            raise ValueError("fusion accepts exactly one or two scorers")
        first, second = scorers
        if second.kind == "pointwise-cross" and first.kind != "pointwise-cross":
            first, second = second, first
        return FusionConfig(k=k, weights={
            first.name: DEFAULT_CROSS_WEIGHT,
            second.name: DEFAULT_LATE_WEIGHT,
        })


@dataclass(frozen=True)
class RankedEntry:
    passage_id: str
    fused_score: float
    ranks: dict[str, int]


@dataclass(frozen=True)
class RankedList:
    entries: tuple[RankedEntry, ...]
    query_id: str

    def ids(self) -> list[str]:
        return [entry.passage_id for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


# --- scoring ---

class LexicalDenseScorer:
    """The lexical scorer: matched distinct query-term weights minus a
    length penalty of LENGTH_PENALTY per word.

    It has ServiceClient's shape, .score(query, texts) -> list[float], so the
    semantic fallback, the oracle's semantic tool and in-process ScorerHandles
    all run through it with no model attached. The penalty makes scores
    strictly length-sensitive, so ties are rare and the denser of two
    equally-matching passages wins. Queries are parsed with the annotator
    it is given, or with a RuleAnnotator of its own when given none.
    """

    def __init__(self, annotator: Annotator | None = None) -> None:
        self._annotator = annotator if annotator is not None else RuleAnnotator()

    def score(self, query: str, texts: list[str]) -> list[float]:
        try:
            terms = parse_query(query, self._annotator).terms
        except EmptyTermSetError:
            terms = ()
        needles = [(term.surface.lower(), term.weight) for term in terms]
        scores = []
        for text in texts:
            lowered = text.lower()
            matched = sum(weight for needle, weight in needles if needle in lowered)
            scores.append(matched - LENGTH_PENALTY * len(text.split()))
        return scores


def score(scorer: ScorerHandle, query: str, passages: list[Passage],
          annotator: Annotator | None = None) -> ScoreVector:
    """Evaluate one scorer over the passages; errors are never papered over.
    An in-process scorer parses the query with the annotator."""
    if not passages:
        raise ValueError("passages must be non-empty")
    values = scorer.client(annotator).score(query, [p.text for p in passages])
    return ScoreVector(scorer_name=scorer.name,
                       scores={p.id: v for p, v in zip(passages, values)})


# --- fusion ---

def rrf_fuse(
    rankings: list[tuple[str, list[str]]],
    cfg: FusionConfig,
    *,
    query_id: str = "",
) -> RankedList:
    """fused(d) = sum over rankings holding d of weight / (k + rank(d)).

    Ranks are 1-based; a passage absent from a ranking picks up nothing from
    it. Output sorted by fused score descending, passage_id ascending.
    """
    for name, ids in rankings:
        if name not in cfg.weights:
            raise UnknownScorerError(f"no fusion weight for scorer {name!r}")
        if len(ids) != len(set(ids)):
            raise ValueError(f"ranking {name!r} contains duplicates")
    fused: dict[str, float] = {}
    ranks: dict[str, dict[str, int]] = {}
    for name, ids in rankings:
        weight = cfg.weights[name]
        for position, passage_id in enumerate(ids, start=1):
            fused[passage_id] = fused.get(passage_id, 0.0) \
                + weight / (cfg.k + position)
            ranks.setdefault(passage_id, {})[name] = position
    ordered = sorted(fused.items(), key=lambda item: (-item[1], item[0]))
    entries = tuple(
        RankedEntry(passage_id=pid, fused_score=value, ranks=ranks[pid])
        for pid, value in ordered
    )
    return RankedList(entries=entries, query_id=query_id)


def rank(
    candidates: CandidateSet,
    query: str,
    corpus: Corpus,
    scorers: list[ScorerHandle],
    cfg: FusionConfig | None = None,
    *,
    parallel: bool = True,
    annotator: Annotator | None = None,
) -> tuple[RankedList, list[ScoreVector]]:
    """Score the full candidate set with every scorer, then fuse.

    Scorers run concurrently when parallel is set; results are merged in
    scorer order, so the output is bit-identical either way. One scorer
    failing fails the whole call. A single scorer skips fusion and ranks by
    its raw scores. In-process scorers parse the query with the annotator,
    a RuleAnnotator built once for the call when none is given.
    """
    if not candidates.candidates:
        raise ValueError("candidate set must be non-empty")
    if not 1 <= len(scorers) <= 2:
        raise ValueError("rank takes one or two scorers")
    names = [s.name for s in scorers]
    if len(set(names)) != len(names):
        raise ValueError("scorer names must be unique")
    if annotator is None:
        annotator = RuleAnnotator()
    passages = [corpus.get(pid) for pid in candidates.ids()]

    if parallel and len(scorers) > 1:
        with ThreadPoolExecutor(max_workers=len(scorers)) as pool:
            futures = [pool.submit(score, s, query, passages, annotator)
                       for s in scorers]
            vectors = [future.result() for future in futures]
    else:
        vectors = [score(s, query, passages, annotator) for s in scorers]

    per_scorer_order = [
        (vector.scorer_name, _order_ids(vector)) for vector in vectors
    ]
    if len(scorers) == 1:
        vector = vectors[0]
        ordered = per_scorer_order[0][1]
        entries = tuple(
            RankedEntry(
                passage_id=pid,
                fused_score=vector.scores[pid],
                ranks={vector.scorer_name: position},
            )
            for position, pid in enumerate(ordered, start=1)
        )
        return (RankedList(entries=entries, query_id=candidates.query_id),
                vectors)

    if cfg is None:
        cfg = FusionConfig.for_scorers(scorers)
    ranked = rrf_fuse(per_scorer_order, cfg, query_id=candidates.query_id)
    return ranked, vectors


def _order_ids(vector: ScoreVector) -> list[str]:
    return [pid for pid, _ in sorted(vector.scores.items(),
                                     key=lambda item: (-item[1], item[0]))]


def select_primary_vector(
    scorers: list[ScorerHandle], vectors: list[ScoreVector]
) -> ScoreVector:
    """The vector the adaptive truncation threshold should key on: the
    pointwise-cross scorer when present, otherwise the first scorer."""
    for scorer, vector in zip(scorers, vectors):
        if scorer.kind == "pointwise-cross":
            return vector
    return vectors[0]
