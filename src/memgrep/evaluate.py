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
entry, holds a score or count that is not a finite number, a count that is
not an int of 0 or more, or an id field that is not a list of strings,
naming file:line. The simulator trusts the records it is given.

run_question and build_matrix take the run's scorers, retrieval limits and,
for a live cut, truncation config; the fusion split is rank's own, fixed by
the scorers. Both carry rank's plain values: the fused RankedEntry tuple,
whose passage ids give the cut's order, and the primary scorer's
{candidate id: score} map. Every run ranks and cuts what it retrieved: rank
of the empty set is the empty ranking, and cutting no stats is the empty
context, so a question that retrieved nothing needs no branch of its own.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterator

from .annotate import Annotator, RuleAnnotator
from .corpus import Corpus, GoldAnnotation, Question, _jsonl_records
from .errors import IncompleteMatrixError, MalformedDocumentError
from .rank import RankedEntry, ScorerHandle, order_by_score, primary_index, rank
from .retrieve import CandidateSet, RetrieveConfig, retrieve
from .service import finite_number
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
    candidate order; see `_gold_rank`."""
    return _gold_rank(matrix, attrgetter("candidate_ids"))


def _gold_rank(matrix: "ScoreMatrix",
               order: Callable[["QuestionRecord"], Sequence[str]]) -> GoldRankResult:
    """Mean 1-based rank of the first gold passage in `order(rec)`, an
    ordering of rec's candidates, over the matrix's records.

    Each record with gold gives the position of its first gold passage, None
    when no candidate is gold; the mean is over the positions, and `absent`
    counts the Nones, on which every ordering of the same candidates agrees.
    """
    positions = [next((i for i, passage_id in enumerate(order(rec), start=1)
                       if passage_id in rec.gold_ids), None)
                 for rec in matrix.records if rec.gold_ids]
    ranks = [position for position in positions if position is not None]
    return GoldRankResult(
        mean_rank=(sum(ranks) / len(ranks)) if ranks else None,
        considered=len(ranks),
        absent=len(positions) - len(ranks),
    )


# --- pipeline glue shared with the CLI ---

def cut(stats: Sequence[PassageStats], cross: Mapping[str, float],
        cfg: TruncationConfig) -> Context:
    """Cut stats in rank order to cfg's budget with cfg's strategy; `cross`
    maps each passage the adaptive cut reads to its cross score."""
    if cfg.strategy == "adaptive":
        return truncate_adaptive(stats, cross, cfg)
    return truncate_fixed(stats, cfg.word_budget)


@dataclass(frozen=True)
class QuestionRun:
    """Everything one query produced, stage by stage."""

    question_id: str
    candidates: CandidateSet
    ranked: tuple[RankedEntry, ...]         # fused order
    cross: dict[str, float]                 # the primary scorer's scores
    context: Context
    rendered: str


def run_question(
    query: str,
    corpus: Corpus,
    scorers: list[ScorerHandle],
    retrieve_cfg: RetrieveConfig | None = None,
    trunc_cfg: TruncationConfig | None = None,
    annotator: Annotator | None = None,
    question_id: str | None = None,
) -> QuestionRun:
    """The live pipeline, end to end, for a single query. One annotator, a
    RuleAnnotator when none is given, parses the query, once, for retrieval;
    the in-process scorer reads the sums retrieval found."""
    if trunc_cfg is None:
        trunc_cfg = TruncationConfig()
    if annotator is None:
        annotator = RuleAnnotator()
    candidates, ranked, cross = _retrieve_and_rank(
        query, corpus, scorers, retrieve_cfg, annotator)
    context = cut(RankedStats([e.passage_id for e in ranked], corpus), cross, trunc_cfg)
    return QuestionRun(
        question_id=question_id if question_id is not None else candidates.query_id,
        candidates=candidates,
        ranked=ranked, cross=cross,
        context=context, rendered=render_context(context.passage_ids, corpus),
    )


def _retrieve_and_rank(
    query: str, corpus: Corpus, scorers: list[ScorerHandle],
    retrieve_cfg: RetrieveConfig | None, annotator: Annotator,
) -> tuple[CandidateSet, tuple[RankedEntry, ...], dict[str, float]]:
    """A query's candidates, their fused entries and the primary scorer's
    score map, all empty when nothing was retrieved. `retrieve` and `rank` are
    looked up through this module's globals, so a wrapper set on
    memgrep.evaluate (the benchmark's tracer sets them) sees every call."""
    candidates = retrieve(query, corpus, retrieve_cfg, annotator, scorers)
    ranked, vectors = rank(candidates, query, corpus, scorers)
    return candidates, ranked, vectors[primary_index(scorers)]


# --- the score matrix ---

@dataclass(frozen=True)
class QuestionRecord:
    question_id: str
    query: str
    stats: tuple[PassageStats, ...]         # one per candidate, fused rank order
    cross_scores: dict[str, float]          # an entry for every candidate
    match_scores: dict[str, float]          # an entry for every candidate
    gold_ids: frozenset[str]

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(s.passage_id for s in self.stats)

    @property
    def missing_gold(self) -> frozenset[str]:
        """The gold never retrieved; read per sweep cell, so no candidate set."""
        return self.gold_ids.difference(s.passage_id for s in self.stats)


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
) -> ScoreMatrix:
    """Retrieve and rank each question once and freeze the numbers; no
    question is cut or rendered. Every question shares one annotator, a
    RuleAnnotator when none is given."""
    if annotator is None:
        annotator = RuleAnnotator()
    records = []
    for question in questions:
        candidates, ranked, cross = _retrieve_and_rank(
            question.text, corpus, scorers, retrieve_cfg, annotator)
        ordered = [e.passage_id for e in ranked]
        match_scores = {c.passage_id: c.match_score for c in candidates.candidates}
        records.append(QuestionRecord(
            question_id=question.question_id,
            query=question.text,
            stats=tuple(stats_for(corpus, pid) for pid in ordered),
            cross_scores={pid: cross[pid] for pid in ordered},
            match_scores={pid: match_scores[pid] for pid in ordered},
            gold_ids=question.gold_passage_ids,
        ))
    return ScoreMatrix(records=tuple(records),
                       corpus_checksum=corpus.checksum,
                       cross_scorer=scorers[primary_index(scorers)].name)


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
    matrix was built from (checksum match). The header opens the file, and
    every later record is a question."""
    path = Path(path)
    header = None
    records = []
    for lineno, rec in _matrix_lines(path):
        if not isinstance(rec, dict):
            raise IncompleteMatrixError(f"{path}:{lineno}: expected an object per line")
        if header is None:
            header = _header(rec, f"{path}:{lineno}")
            continue
        if rec.get("record") != "question":
            raise IncompleteMatrixError(
                f"{path}:{lineno}: expected a question record, got {rec.get('record')!r}")
        try:
            for key in ("question_id", "query"):
                if type(rec[key]) is not str:
                    raise ValueError(f"{key} must be a string, got {rec[key]!r}")
            ids = _ids(rec, "candidates")
            if len(set(ids)) != len(ids):
                raise ValueError("candidates list an id twice")
            cross, match = _entries(rec, "cross", ids), _entries(rec, "match", ids)
            words = _entries(rec, "words", ids, count=True)
            render_lens = _entries(rec, "render_lens", ids, count=True)
            record = QuestionRecord(
                question_id=rec["question_id"],
                query=rec["query"],
                stats=tuple(PassageStats(pid, w, r)
                            for pid, w, r in zip(ids, words, render_lens)),
                cross_scores={pid: float(v) for pid, v in zip(ids, cross)},
                match_scores={pid: float(v) for pid, v in zip(ids, match)},
                gold_ids=frozenset(_ids(rec, "gold")),
            )
            if frozenset(_ids(rec, "missing")) != record.missing_gold:
                raise ValueError(f"missing must be the gold that candidates lack, "
                                 f"{sorted(record.missing_gold)}, got {rec['missing']!r}")
            records.append(record)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise IncompleteMatrixError(
                f"{path}:{lineno}: missing or invalid field: {exc}"
            ) from exc
    if header is None:
        raise IncompleteMatrixError(f"{path}: missing matrix header record")
    matrix = ScoreMatrix(
        records=tuple(records),
        corpus_checksum=header["corpus_checksum"],
        cross_scorer=header["cross_scorer"],
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


def _header(rec: dict, where: str) -> dict:
    """The matrix's first record, which must be the header matrix_to_jsonl
    writes: its record, kind and MATRIX_FORMAT, and two strings."""
    for key, want in {"record": "header", "kind": "score-matrix", "format": MATRIX_FORMAT}.items():
        if type(rec.get(key)) is not type(want) or rec.get(key) != want:
            raise IncompleteMatrixError(
                f"{where}: expected the matrix header with {key} {want!r}, got {rec.get(key)!r}")
    for key in ("corpus_checksum", "cross_scorer"):
        if type(rec.get(key)) is not str:
            raise IncompleteMatrixError(
                f"{where}: expected the matrix header with a string {key}, got {rec.get(key)!r}")
    return rec


def _ids(rec: dict, name: str) -> list[str]:
    """The line's `name` list of passage ids. A string or an object is no
    such list, though iterating it yields strings."""
    value = rec[name]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{name} must be a list of passage ids, got {value!r}")
    return value


def _entries(rec: dict, name: str, ids: list, count: bool = False) -> list:
    """The line's `name` table entry for each candidate id, in order. Every
    entry must be a finite number (`finite_number`), and with count set an
    int of 0 or more: a blank turn counts 0 words."""
    table = rec[name]
    try:
        values = [table[pid] for pid in ids]
    except KeyError as exc:
        raise ValueError(f"no {name} entry for {exc.args[0]}") from None
    kind = "an int" if count else "a finite number"
    for pid, value in zip(ids, values):
        if not finite_number(value) or count and type(value) is not int:
            # An int that is not a finite number is too large for a float.
            shown = "int too large to convert to float" if type(value) is int else repr(value)
            raise ValueError(f"{name} entry for {pid} is not {kind}: {shown}")
        if count and value < 0:
            raise ValueError(f"{name} entry for {pid} is negative: {value}")
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
    """Cut each record of the matrix with cfg into one QuestionMetrics row,
    then sum the rows. A record with no gold is excluded as "empty-gold", one
    that retrieved none of its gold as "retrieval-miss"; only a row with no
    exclusion has a recall, kept / len(gold), and adds to the micro sums."""
    rows = []
    kept_total = gold_total = 0
    for rec in matrix.records:
        context = cut(rec.stats, rec.cross_scores, cfg)
        exclusion = ("empty-gold" if not rec.gold_ids
                     else "retrieval-miss" if rec.missing_gold == rec.gold_ids else None)
        recall = None
        if exclusion is None:
            kept = len(rec.gold_ids.intersection(context.passage_ids))
            kept_total += kept
            gold_total += len(rec.gold_ids)
            recall = kept / len(rec.gold_ids)
        rows.append(QuestionMetrics(
            question_id=rec.question_id, recall=recall, tokens=context.estimated_tokens,
            included_passages=len(context.passage_ids), exclusion=exclusion,
        ))
    recalls = [row.recall for row in rows if row.exclusion is None]
    exclusions = Counter(row.exclusion for row in rows)
    return MetricsReport(
        strategy=cfg.strategy,
        budget=cfg.word_budget,
        alpha=cfg.applied_alpha,
        budget_recall=(kept_total / gold_total) if gold_total else 0.0,
        macro_recall=(sum(recalls) / len(recalls)) if recalls else 0.0,
        avg_tokens=(sum(row.tokens for row in rows) / len(rows)) if rows else 0.0,
        question_count=len(recalls),
        retrieval_miss_count=exclusions["retrieval-miss"],
        empty_gold_count=exclusions["empty-gold"],
        per_question=tuple(rows),
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
    """Mean first-gold rank under match-score order vs cross-score order,
    each by score descending, then id (see `_gold_rank`)."""
    by_match = _gold_rank(matrix, lambda rec: order_by_score(rec.match_scores))
    by_cross = _gold_rank(matrix, lambda rec: order_by_score(rec.cross_scores))
    return RankingEffect(
        mean_rank_by_match=by_match.mean_rank,
        mean_rank_by_cross=by_cross.mean_rank,
        considered=by_match.considered,
        absent=by_match.absent,
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
