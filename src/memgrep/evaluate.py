"""Retrieval metrics and the offline truncation simulator.

A ScoreMatrix freezes everything the truncation stage consumes (candidate
order, cross scores, match scores, per-passage word and render lengths) into
one JSONL artifact keyed by corpus checksum. Sweeping budgets and alphas then
replays the exact truncation code from truncate.py over stored numbers, with
no scorer calls, so a whole grid costs milliseconds and simulated cells agree
with live runs by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .annotate import Annotator, RuleAnnotator
from .corpus import Corpus, GoldAnnotation, Question
from .errors import IncompleteMatrixError
from .rank import (
    FusionConfig,
    RankedList,
    ScorerHandle,
    ScoreVector,
    rank,
    select_primary_vector,
)
from .retrieve import CandidateSet, RetrieveConfig, retrieve
from .truncate import (
    Context,
    PassageStats,
    TruncationConfig,
    adaptive_over_stats,
    fixed_over_stats,
    render_context,
    stats_for,
    tokens_from_stats,
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

_EMPTY_CONTEXT = Context(passage_ids=(), word_count=0, estimated_tokens=0,
                         pruned_by_threshold=0, pruned_by_budget=0)


@dataclass(frozen=True)
class QuestionRun:
    """Everything one query produced, stage by stage."""

    question_id: str
    query: str
    candidates: CandidateSet
    ranked: RankedList | None
    vectors: tuple[ScoreVector, ...]
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
            ranked=None, vectors=(), cross=None,
            context=_EMPTY_CONTEXT, rendered="",
        )
    ranked, vectors = rank(candidates, query, corpus, scorers, fusion_cfg,
                           annotator=annotator)
    cross = select_primary_vector(scorers, vectors)
    if trunc_cfg.strategy == "adaptive":
        context = truncate_adaptive(ranked, cross, corpus, trunc_cfg)
    else:
        context = truncate_fixed(ranked, corpus, trunc_cfg.word_budget)
    rendered = render_context(context.passage_ids, corpus)
    return QuestionRun(
        question_id=qid, query=query, candidates=candidates,
        ranked=ranked, vectors=tuple(vectors), cross=cross,
        context=context, rendered=rendered,
    )


# --- the score matrix ---

@dataclass(frozen=True)
class QuestionRecord:
    question_id: str
    query: str
    candidate_ids: tuple[str, ...]          # fused rank order
    cross_scores: dict[str, float]
    match_scores: dict[str, float]
    word_counts: dict[str, int]
    render_lens: dict[str, int]
    gold_ids: frozenset[str]
    missing_gold: frozenset[str]            # gold never retrieved

    def stats(self) -> list[PassageStats]:
        return [
            PassageStats(
                passage_id=pid,
                word_count=self.word_counts[pid],
                render_len=self.render_lens[pid],
            )
            for pid in self.candidate_ids
        ]


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
                candidate_ids=(), cross_scores={}, match_scores={},
                word_counts={}, render_lens={},
                gold_ids=question.gold_passage_ids,
                missing_gold=question.gold_passage_ids,
            ))
            continue
        cross_name = run.cross.scorer_name
        ordered = tuple(run.ranked.ids())
        match_scores = {c.passage_id: c.match_score
                        for c in run.candidates.candidates}
        stats = {pid: stats_for(corpus.get(pid)) for pid in ordered}
        records.append(QuestionRecord(
            question_id=question.question_id,
            query=question.text,
            candidate_ids=ordered,
            cross_scores={pid: run.cross.scores[pid] for pid in ordered},
            match_scores={pid: match_scores[pid] for pid in ordered},
            word_counts={pid: stats[pid].word_count for pid in ordered},
            render_lens={pid: stats[pid].render_len for pid in ordered},
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
            "words": rec.word_counts,
            "render_lens": rec.render_lens,
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
    # Only "\n" ends a record: JSON written with ensure_ascii=False keeps
    # U+2028 and U+0085 raw inside strings, and splitlines() splits on them.
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"),
                                  start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IncompleteMatrixError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise IncompleteMatrixError(f"{path}:{lineno}: expected an object per line")
        if rec.get("record") == "header":
            header = rec
            continue
        if rec.get("record") != "question":
            raise IncompleteMatrixError(f"{path}:{lineno}: unknown record kind")
        try:
            records.append(QuestionRecord(
                question_id=rec["question_id"],
                query=rec["query"],
                candidate_ids=tuple(rec["candidates"]),
                cross_scores={k: float(v) for k, v in rec["cross"].items()},
                match_scores={k: float(v) for k, v in rec["match"].items()},
                word_counts={k: int(v) for k, v in rec["words"].items()},
                render_lens={k: int(v) for k, v in rec["render_lens"].items()},
                gold_ids=frozenset(rec["gold"]),
                missing_gold=frozenset(rec["missing"]),
            ))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
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


def _check_complete(matrix: ScoreMatrix) -> None:
    for rec in matrix.records:
        for pid in rec.candidate_ids:
            for name, table in (
                ("cross", rec.cross_scores), ("match", rec.match_scores),
                ("words", rec.word_counts), ("render_lens", rec.render_lens),
            ):
                if pid not in table:
                    raise IncompleteMatrixError(
                        f"question {rec.question_id}: no {name} entry for {pid}"
                    )


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
    top_k: int = 60,
    ceiling: int | None = None,
) -> list[MetricsReport]:
    """One MetricsReport per grid cell: fixed x budgets, adaptive x alphas.

    Adaptive cells run at `ceiling` (default: the largest budget in the
    sweep). No scorers are consulted; the stored matrix is the whole input.
    """
    _check_complete(matrix)
    if alphas and ceiling is None:
        if not budgets:
            raise ValueError("adaptive cells need a ceiling or a budget grid")
        ceiling = max(budgets)
    cells = []
    for budget in budgets:
        cells.append(_simulate_cell(matrix, "fixed", budget, None, top_k))
    for alpha in alphas:
        cells.append(_simulate_cell(matrix, "adaptive", ceiling, alpha, top_k))
    return cells


def _simulate_cell(
    matrix: ScoreMatrix,
    strategy: str,
    budget: int,
    alpha: float | None,
    top_k: int,
) -> MetricsReport:
    per_question = []
    covered_total = 0
    gold_total = 0
    recalls = []
    tokens_all = []
    misses = 0
    empty_gold = 0
    for rec in matrix.records:
        included_ids, tokens = simulate_question(rec, strategy, budget, alpha,
                                                 top_k)
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
        strategy=strategy,
        budget=budget,
        alpha=alpha,
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
    """Replay truncation for one question from stored stats.

    Returns (included passage ids in rank order, token estimate). Calls the
    same core functions the live path uses.
    """
    stats = rec.stats()
    if strategy == "fixed":
        included, _, _ = fixed_over_stats(stats, budget)
    elif strategy == "adaptive":
        cfg = TruncationConfig(strategy="adaptive", word_budget=budget,
                               alpha=alpha if alpha is not None else 0.0,
                               top_k=top_k)
        included, _, _, _ = adaptive_over_stats(stats, rec.cross_scores, cfg)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return tuple(s.passage_id for s in included), tokens_from_stats(included)


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
    _check_complete(matrix)
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
    payload = [{
        "strategy": cell.strategy,
        "budget": cell.budget,
        "alpha": cell.alpha,
        "avg_tokens": cell.avg_tokens,
        "budget_recall": cell.budget_recall,
        "macro_recall": cell.macro_recall,
        "question_count": cell.question_count,
        "retrieval_miss_count": cell.retrieval_miss_count,
        "empty_gold_count": cell.empty_gold_count,
        "per_question": [{
            "question_id": q.question_id,
            "recall": q.recall,
            "tokens": q.tokens,
            "included_passages": q.included_passages,
            "exclusion": q.exclusion,
        } for q in cell.per_question],
    } for cell in cells]
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
