"""Retrieval metrics and the offline truncation simulator.

A ScoreMatrix freezes everything the truncation stage consumes (candidate
order, cross scores, match scores, per-passage word and render lengths) into
one JSONL artifact keyed by corpus checksum. Sweeping budgets and alphas then
replays truncation over stored numbers, with no scorer calls, so a whole grid
costs milliseconds.

Every cut goes through `cut`, the one place that picks a strategy: a live
run hands it its ranking's stats, computed only as the cut reads them, and
the simulator, each sweep cell and eval hand it a matrix record's stored
stats, so simulated cells agree with live runs by construction. `cut` calls
truncate_fixed and truncate_adaptive through this module's globals, so a
wrapper set on memgrep.evaluate (the benchmark's tracer sets one) sees
every cut.

Records are complete by construction: build_matrix fills every table from
the candidates it ranked, and read_matrix rejects a line that lacks any
entry or holds a score or count that is not a finite number, naming
file:line. The simulator trusts the records it is given.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterator

from .annotate import Annotator, RuleAnnotator
from .corpus import Corpus, GoldAnnotation, Question, _jsonl_records
from .errors import IncompleteMatrixError, MalformedDocumentError
from .rank import (
    FusionConfig,
    RankedList,
    ScorerHandle,
    ScoreVector,
    primary_index,
    rank,
)
from .retrieve import CandidateSet, RetrieveConfig, retrieve
from .truncate import (
    DEFAULT_TOP_K,
    Context,
    PassageStats,
    RankedStats,
    TruncationConfig,
    render_context,
    stats_for,
    truncate_adaptive,
    truncate_fixed,
)

MATRIX_FORMAT = 1


# --- core metric operations ---

def budget_recall(context: Context, gold: GoldAnnotation) -> float | None:
    """Fraction of gold passages surviving truncation; None for empty gold
    (undefined, excluded from aggregation)."""
    if not gold.gold_passage_ids:
        return None
    surviving = gold.gold_passage_ids & set(context.passage_ids)
    return len(surviving) / len(gold.gold_passage_ids)


@dataclass(frozen=True)
class GoldRankResult:
    mean_rank: float | None
    considered: int
    absent: int


def mean_gold_rank(matrix: "ScoreMatrix") -> GoldRankResult:
    """Mean 1-based rank of the first gold passage under the stored fused
    candidate order.

    Questions with empty gold are skipped. Questions whose gold never
    appears in the ranking are excluded from the mean and counted in
    `absent`.
    """
    ranks = []
    absent = 0
    for rec in matrix.records:
        if not rec.gold_ids:
            continue
        position = _first_gold_rank(rec.candidate_ids, rec.gold_ids)
        if position is None:
            absent += 1
        else:
            ranks.append(position)
    return GoldRankResult(
        mean_rank=(sum(ranks) / len(ranks)) if ranks else None,
        considered=len(ranks),
        absent=absent,
    )


def _first_gold_rank(ordered_ids, gold: frozenset[str]) -> int | None:
    for position, passage_id in enumerate(ordered_ids, start=1):
        if passage_id in gold:
            return position
    return None


# --- pipeline glue shared with the CLI ---

def cut(stats: Sequence[PassageStats], cross: Mapping[str, float],
        cfg: TruncationConfig) -> Context:
    """Cut stats in rank order to cfg's budget with cfg's strategy; `cross`
    maps each passage the adaptive cut reads to its cross score."""
    if cfg.strategy == "adaptive":
        return truncate_adaptive(stats, cross, cfg)
    return truncate_fixed(stats, cfg.word_budget)


_EMPTY_CONTEXT = Context(passage_ids=(), word_count=0, estimated_tokens=0,
                         pruned_by_threshold=0, pruned_by_budget=0)


@dataclass(frozen=True)
class QuestionRun:
    """Everything one query produced, stage by stage."""

    question_id: str
    query: str
    candidates: CandidateSet
    ranked: RankedList | None
    cross: ScoreVector | None
    context: Context
    rendered: str


def run_question(
    query: str,
    corpus: Corpus,
    scorers: list[ScorerHandle],
    retrieve_cfg: RetrieveConfig | None = None,
    trunc_cfg: TruncationConfig | None = None,
    annotator: Annotator | None = None,
    dense_scorer=None,
    fusion_cfg: FusionConfig | None = None,
    question_id: str | None = None,
) -> QuestionRun:
    """The live pipeline, end to end, for a single query. One annotator, a
    RuleAnnotator when none is given, parses the query for both retrieval
    and the in-process scorers."""
    if trunc_cfg is None:
        trunc_cfg = TruncationConfig()
    if annotator is None:
        annotator = RuleAnnotator()
    candidates = retrieve(query, corpus, retrieve_cfg, annotator, dense_scorer)
    qid = question_id if question_id is not None else candidates.query_id
    if not candidates:
        return QuestionRun(
            question_id=qid, query=query, candidates=candidates,
            ranked=None, cross=None,
            context=_EMPTY_CONTEXT, rendered="",
        )
    ranked, vectors = rank(candidates, query, corpus, scorers, fusion_cfg,
                           annotator=annotator)
    cross = vectors[primary_index(scorers)]
    context = cut(RankedStats(ranked.ids(), corpus), cross.scores, trunc_cfg)
    rendered = render_context(context.passage_ids, corpus)
    return QuestionRun(
        question_id=qid, query=query, candidates=candidates,
        ranked=ranked, cross=cross,
        context=context, rendered=rendered,
    )


# --- the score matrix ---

@dataclass(frozen=True)
class QuestionRecord:
    question_id: str
    query: str
    stats: tuple[PassageStats, ...]         # one per candidate, fused rank order
    cross_scores: dict[str, float]          # an entry for every candidate
    match_scores: dict[str, float]          # an entry for every candidate
    gold_ids: frozenset[str]
    missing_gold: frozenset[str]            # gold never retrieved

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(s.passage_id for s in self.stats)


@dataclass(frozen=True)
class ScoreMatrix:
    records: tuple[QuestionRecord, ...]
    corpus_checksum: str
    cross_scorer: str


def build_matrix(
    questions: list[Question],
    corpus: Corpus,
    scorers: list[ScorerHandle],
    retrieve_cfg: RetrieveConfig | None = None,
    annotator: Annotator | None = None,
    dense_scorer=None,
    fusion_cfg: FusionConfig | None = None,
) -> ScoreMatrix:
    """Run retrieval and ranking once per question and freeze the numbers.
    Every question shares one annotator, a RuleAnnotator when none is given."""
    if annotator is None:
        annotator = RuleAnnotator()
    records = []
    cross_name = ""
    for question in questions:
        run = run_question(
            question.text, corpus, scorers,
            retrieve_cfg=retrieve_cfg, annotator=annotator,
            dense_scorer=dense_scorer, fusion_cfg=fusion_cfg,
            question_id=question.question_id,
        )
        if run.ranked is None:
            records.append(QuestionRecord(
                question_id=question.question_id, query=question.text,
                stats=(), cross_scores={}, match_scores={},
                gold_ids=question.gold_passage_ids,
                missing_gold=question.gold_passage_ids,
            ))
            continue
        cross_name = run.cross.scorer_name
        ordered = run.ranked.ids()
        match_scores = {c.passage_id: c.match_score
                        for c in run.candidates.candidates}
        records.append(QuestionRecord(
            question_id=question.question_id,
            query=question.text,
            stats=tuple(stats_for(corpus.get(pid)) for pid in ordered),
            cross_scores={pid: run.cross.scores[pid] for pid in ordered},
            match_scores={pid: match_scores[pid] for pid in ordered},
            gold_ids=question.gold_passage_ids,
            missing_gold=frozenset(question.gold_passage_ids - set(ordered)),
        ))
    return ScoreMatrix(records=tuple(records),
                       corpus_checksum=corpus.checksum,
                       cross_scorer=cross_name)


def matrix_to_jsonl(matrix: ScoreMatrix) -> str:
    lines = [json.dumps({
        "record": "header",
        "kind": "score-matrix",
        "format": MATRIX_FORMAT,
        "corpus_checksum": matrix.corpus_checksum,
        "cross_scorer": matrix.cross_scorer,
    }, sort_keys=True, ensure_ascii=False)]
    for rec in matrix.records:
        lines.append(json.dumps({
            "record": "question",
            "question_id": rec.question_id,
            "query": rec.query,
            "candidates": list(rec.candidate_ids),
            "cross": rec.cross_scores,
            "match": rec.match_scores,
            "words": {s.passage_id: s.word_count for s in rec.stats},
            "render_lens": {s.passage_id: s.render_len for s in rec.stats},
            "gold": sorted(rec.gold_ids),
            "missing": sorted(rec.missing_gold),
        }, sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def write_matrix(matrix: ScoreMatrix, path: str | Path) -> None:
    Path(path).write_text(matrix_to_jsonl(matrix), encoding="utf-8")


def read_matrix(path: str | Path, corpus: Corpus | None = None) -> ScoreMatrix:
    """Read a matrix artifact; with a corpus given, insist it is the one the
    matrix was built from (checksum match)."""
    path = Path(path)
    header = None
    records = []
    for lineno, rec in _matrix_lines(path):
        if not isinstance(rec, dict):
            raise IncompleteMatrixError(f"{path}:{lineno}: expected an object per line")
        if rec.get("record") == "header":
            header = rec
            continue
        if rec.get("record") != "question":
            raise IncompleteMatrixError(f"{path}:{lineno}: unknown record kind")
        try:
            ids = rec["candidates"]
            if len(set(ids)) != len(ids):
                raise ValueError("candidates list an id twice")
            cross, match = _entries(rec, "cross", ids), _entries(rec, "match", ids)
            words = _entries(rec, "words", ids, count=True)
            render_lens = _entries(rec, "render_lens", ids, count=True)
            records.append(QuestionRecord(
                question_id=rec["question_id"],
                query=rec["query"],
                stats=tuple(PassageStats(pid, w, r)
                            for pid, w, r in zip(ids, words, render_lens)),
                cross_scores={pid: float(v) for pid, v in zip(ids, cross)},
                match_scores={pid: float(v) for pid, v in zip(ids, match)},
                gold_ids=_id_set(rec, "gold"),
                missing_gold=_id_set(rec, "missing"),
            ))
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise IncompleteMatrixError(
                f"{path}:{lineno}: missing or invalid field: {exc}"
            ) from exc
    if header is None:
        raise IncompleteMatrixError(f"{path}: missing matrix header record")
    matrix = ScoreMatrix(
        records=tuple(records),
        corpus_checksum=header.get("corpus_checksum", ""),
        cross_scorer=header.get("cross_scorer", ""),
    )
    if corpus is not None and matrix.corpus_checksum != corpus.checksum:
        raise IncompleteMatrixError(
            "matrix was built from a different corpus "
            f"(checksum {matrix.corpus_checksum[:12]}… vs {corpus.checksum[:12]}…)"
        )
    return matrix


def _matrix_lines(path: Path) -> Iterator[tuple[int, Any]]:
    """The matrix's (line number, record) pairs; a line that is not JSON is
    an IncompleteMatrixError naming path:line."""
    try:
        yield from _jsonl_records(path)
    except MalformedDocumentError as exc:
        raise IncompleteMatrixError(str(exc)) from exc


def _id_set(rec: dict, name: str) -> frozenset[str]:
    """The line's `name` list of passage ids; a string is not such a list."""
    value = rec[name]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{name} must be a list of passage ids, got {value!r}")
    return frozenset(value)


def _entries(rec: dict, name: str, ids: list, count: bool = False) -> list:
    """The line's `name` table entry for each candidate id, in order. Every
    entry must be a finite int or float, and with count set an int; a bool
    is neither."""
    table = rec[name]
    try:
        values = [table[pid] for pid in ids]
    except KeyError as exc:
        raise ValueError(f"no {name} entry for {exc.args[0]}") from None
    kinds, kind = ((int,), "an int") if count else ((int, float), "a finite number")
    for pid, value in zip(ids, values):
        if type(value) not in kinds or not math.isfinite(value):
            raise ValueError(f"{name} entry for {pid} is not {kind}: {value!r}")
    return values


# --- simulation ---

@dataclass(frozen=True)
class QuestionMetrics:
    question_id: str
    recall: float | None            # None = excluded from recall aggregation
    tokens: int
    included_passages: int
    exclusion: str | None = None    # "empty-gold" | "retrieval-miss"


@dataclass(frozen=True)
class MetricsReport:
    strategy: str
    budget: int
    alpha: float | None
    budget_recall: float            # micro-averaged; the headline number
    macro_recall: float
    avg_tokens: float
    question_count: int             # questions contributing to recall
    retrieval_miss_count: int
    empty_gold_count: int
    per_question: tuple[QuestionMetrics, ...]


def simulate_truncation(
    matrix: ScoreMatrix,
    budgets: list[int],
    alphas: list[float],
    top_k: int = DEFAULT_TOP_K,
    ceiling: int | None = None,
) -> list[MetricsReport]:
    """One MetricsReport per grid cell: fixed x budgets, adaptive x alphas.

    Adaptive cells run at `ceiling` (default: the largest budget in the
    sweep). Each cell is a TruncationConfig, so a non-positive budget or an
    alpha outside [0, 1) is a ValueError. No scorers are consulted; the
    stored matrix is the whole input.
    """
    if alphas and ceiling is None:
        if not budgets:
            raise ValueError("adaptive cells need a ceiling or a budget grid")
        ceiling = max(budgets)
    cells = [TruncationConfig("fixed", budget, top_k=top_k) for budget in budgets]
    cells += [TruncationConfig("adaptive", ceiling, alpha, top_k) for alpha in alphas]
    return [simulate_cell(matrix, cell) for cell in cells]


def simulate_cell(matrix: ScoreMatrix, cfg: TruncationConfig) -> MetricsReport:
    """Cut every record of the matrix with cfg and aggregate the recall."""
    per_question = []
    covered_total = 0
    gold_total = 0
    recalls = []
    tokens_all = []
    misses = 0
    empty_gold = 0
    for rec in matrix.records:
        context = cut(rec.stats, rec.cross_scores, cfg)
        included_ids, tokens = context.passage_ids, context.estimated_tokens
        tokens_all.append(tokens)
        if not rec.gold_ids:
            empty_gold += 1
            per_question.append(QuestionMetrics(
                question_id=rec.question_id, recall=None, tokens=tokens,
                included_passages=len(included_ids), exclusion="empty-gold",
            ))
            continue
        if rec.missing_gold == rec.gold_ids:
            misses += 1
            per_question.append(QuestionMetrics(
                question_id=rec.question_id, recall=None, tokens=tokens,
                included_passages=len(included_ids), exclusion="retrieval-miss",
            ))
            continue
        surviving = rec.gold_ids & set(included_ids)
        recall = len(surviving) / len(rec.gold_ids)
        covered_total += len(surviving)
        gold_total += len(rec.gold_ids)
        recalls.append(recall)
        per_question.append(QuestionMetrics(
            question_id=rec.question_id, recall=recall, tokens=tokens,
            included_passages=len(included_ids),
        ))
    return MetricsReport(
        strategy=cfg.strategy,
        budget=cfg.word_budget,
        alpha=cfg.applied_alpha,
        budget_recall=(covered_total / gold_total) if gold_total else 0.0,
        macro_recall=(sum(recalls) / len(recalls)) if recalls else 0.0,
        avg_tokens=(sum(tokens_all) / len(tokens_all)) if tokens_all else 0.0,
        question_count=len(recalls),
        retrieval_miss_count=misses,
        empty_gold_count=empty_gold,
        per_question=tuple(per_question),
    )


def simulate_question(
    rec: QuestionRecord,
    strategy: str,
    budget: int,
    alpha: float | None,
    top_k: int,
) -> tuple[tuple[str, ...], int]:
    """Replay truncation for one question from stored stats, through the
    same cut a live run makes; an alpha of None is 0.

    Returns (included passage ids in rank order, token estimate).
    """
    cfg = TruncationConfig(strategy, budget, 0.0 if alpha is None else alpha, top_k)
    context = cut(rec.stats, rec.cross_scores, cfg)
    return context.passage_ids, context.estimated_tokens


# --- ranking effect ---

@dataclass(frozen=True)
class RankingEffect:
    mean_rank_by_match: float | None
    mean_rank_by_cross: float | None
    considered: int
    absent: int


def ranking_effect(matrix: ScoreMatrix) -> RankingEffect:
    """Mean first-gold rank under match-score order vs cross-score order.

    Questions whose gold was never retrieved are excluded from both means.
    """
    match_ranks = []
    cross_ranks = []
    absent = 0
    for rec in matrix.records:
        if not rec.gold_ids:
            continue
        by_match = sorted(rec.candidate_ids,
                          key=lambda pid: (-rec.match_scores[pid], pid))
        by_cross = sorted(rec.candidate_ids,
                          key=lambda pid: (-rec.cross_scores[pid], pid))
        match_rank = _first_gold_rank(by_match, rec.gold_ids)
        cross_rank = _first_gold_rank(by_cross, rec.gold_ids)
        if match_rank is None or cross_rank is None:
            absent += 1
            continue
        match_ranks.append(match_rank)
        cross_ranks.append(cross_rank)
    return RankingEffect(
        mean_rank_by_match=(sum(match_ranks) / len(match_ranks)
                            if match_ranks else None),
        mean_rank_by_cross=(sum(cross_ranks) / len(cross_ranks)
                            if cross_ranks else None),
        considered=len(match_ranks),
        absent=absent,
    )


# --- report rendering ---

def render_sweep_text(cells: list[MetricsReport]) -> str:
    """Plain-text sweep table; column layout is stable across runs."""
    header = (f"{'strategy':<10} {'budget':>7} {'alpha':>6} "
              f"{'avg_tokens':>11} {'recall':>7} {'macro':>7} "
              f"{'questions':>9} {'misses':>7}")
    lines = [header, "-" * len(header)]
    for cell in cells:
        alpha = f"{cell.alpha:.3f}" if cell.alpha is not None else "-"
        lines.append(
            f"{cell.strategy:<10} {cell.budget:>7} {alpha:>6} "
            f"{cell.avg_tokens:>11.1f} {cell.budget_recall:>7.3f} "
            f"{cell.macro_recall:>7.3f} {cell.question_count:>9} "
            f"{cell.retrieval_miss_count:>7}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_json(cells: list[MetricsReport]) -> str:
    payload = [asdict(cell) for cell in cells]
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
