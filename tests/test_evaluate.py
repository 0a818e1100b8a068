"""Metrics, the score matrix artifact, and the offline simulator."""

import dataclasses
import importlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrep import evaluate
from memgrep.annotate import RuleAnnotator
from memgrep.corpus import GoldAnnotation, load_questions, read_corpus
from memgrep.errors import IncompleteMatrixError
from memgrep.evaluate import (
    QuestionRecord,
    ScoreMatrix,
    budget_recall,
    build_matrix,
    matrix_to_jsonl,
    mean_gold_rank,
    ranking_effect,
    read_matrix,
    render_sweep_text,
    run_question,
    simulate_cell,
    simulate_truncation,
    sweep_to_json,
    write_matrix,
)
from memgrep.rank import LexicalDenseScorer, ScorerHandle
from memgrep.service import ReferenceServer
from memgrep.truncate import Context, PassageStats, TruncationConfig


def gold(*ids, question_id="q"):
    return GoldAnnotation(question_id=question_id,
                          gold_passage_ids=frozenset(ids))


def context(*ids):
    return Context(passage_ids=ids, word_count=0, estimated_tokens=0,
                   pruned_by_threshold=0, pruned_by_budget=0)


def record(qid, candidates, cross, gold_ids, words=None):
    words = words or {pid: 5 for pid in candidates}
    return QuestionRecord(
        question_id=qid,
        query="q",
        stats=tuple(PassageStats(pid, words[pid], words[pid] * 6)
                    for pid in candidates),
        cross_scores=dict(cross),
        match_scores={pid: 1.0 for pid in candidates},
        gold_ids=frozenset(gold_ids),
    )


def test_budget_recall_partial():
    assert budget_recall(context("p1", "p3"), gold("p1", "p2")) == 0.5


def test_budget_recall_full():
    assert budget_recall(context("p1", "p2"), gold("p1", "p2")) == 1.0


def test_budget_recall_empty_gold_is_excluded():
    assert budget_recall(context("p1"), gold()) is None


def matrix_of(*records):
    return ScoreMatrix(records=records, corpus_checksum="c", cross_scorer="lex")


def test_mean_gold_rank_averages_first_positions():
    result = mean_gold_rank(matrix_of(
        record("q1", ["a", "g1", "b"], {}, ["g1"]),
        record("q2", ["g2", "x", "y"], {}, ["g2", "y"]),
    ))
    assert result.mean_rank == pytest.approx(1.5)
    assert result.considered == 2
    assert result.absent == 0


def test_mean_gold_rank_counts_absent():
    result = mean_gold_rank(matrix_of(
        record("q", ["a", "b"], {}, ["missing"]),
    ))
    assert result.mean_rank is None
    assert result.absent == 1


def test_mean_gold_rank_skips_empty_gold():
    result = mean_gold_rank(matrix_of(
        record("q1", ["a", "g"], {}, ["g"]),
        record("q2", ["a", "b"], {}, []),
    ))
    assert result.mean_rank == 2.0
    assert (result.considered, result.absent) == (1, 0)


def test_run_question_live_pipeline(fixture_corpus_path):
    corpus = read_corpus(fixture_corpus_path)
    run = run_question("What did Caroline bake for the farmers market?",
                       corpus, [ScorerHandle(name="lex")])
    assert run.context.passage_ids[0] == "s1:3"
    assert run.rendered.startswith("[s1:3]")
    assert run.candidates.hops_executed >= 1


class RecordingAnnotator(RuleAnnotator):
    """Records every text it is asked to annotate."""

    def __init__(self):
        super().__init__()
        self.annotated = []

    def annotate(self, text):
        self.annotated.append(text)
        return super().annotate(text)


def test_run_question_parses_the_query_with_its_annotator(fixture_corpus_path):
    corpus = read_corpus(fixture_corpus_path)
    query = "What did Caroline bake for the farmers market?"
    annotator = RecordingAnnotator()
    run_question(query, corpus, [ScorerHandle(name="lex")], annotator=annotator)
    # Once, for retrieval: the in-process scorer reads retrieval's sums.
    assert annotator.annotated.count(query) == 1


# bench/tracing.py times each layer by replacing these module attributes, so
# the pipeline must look each one up there when it calls it.
TRACED_HOOKS = [("evaluate", "retrieve"), ("evaluate", "rank"), ("retrieve", "grep_search"),
                ("rank", "score"), ("rank", "rrf_fuse")]


def test_run_question_calls_every_traced_hook_through_its_module(fixture_corpus_path,
                                                                 monkeypatch):
    corpus = read_corpus(fixture_corpus_path)
    calls = Counter()

    def counted(key, inner):
        def counting(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)
        return counting

    for module, name in TRACED_HOOKS:
        owner = importlib.import_module(f"memgrep.{module}")
        monkeypatch.setattr(owner, name, counted(f"{module}.{name}", getattr(owner, name)))
    with ReferenceServer(score_fn=LexicalDenseScorer().score) as server:
        scorers = [ScorerHandle(name="ce", kind="pointwise-cross", endpoint=server.endpoint),
                   ScorerHandle(name="lex")]
        run = run_question("What job does Gina have now?", corpus, scorers)
    assert run.ranked
    # Three greps: the query's, one entity hop's and the PRF round's.
    assert calls == {"evaluate.retrieve": 1, "evaluate.rank": 1, "retrieve.grep_search": 3,
                     "rank.score": 2, "rank.rrf_fuse": 1}


def test_build_matrix_builds_one_annotator(fixture_corpus_path,
                                          fixture_questions_path, monkeypatch):
    corpus = read_corpus(fixture_corpus_path)
    questions = load_questions(fixture_questions_path, corpus)
    built = []
    init = RuleAnnotator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RuleAnnotator, "__init__", counting_init)
    build_matrix(questions, corpus,
                 [ScorerHandle(name="a"), ScorerHandle(name="b")])
    assert len(built) == 1


def test_build_matrix_flags_missing_gold(fixture_corpus_path, tmp_path):
    corpus = read_corpus(fixture_corpus_path)
    questions = load_questions(_questions_file(tmp_path, [
        {"question_id": "impossible", "question": "zanzibar quodlibet",
         "gold_passage_ids": ["s1:4"]},
    ]), corpus)
    lex = [ScorerHandle(name="lex")]
    # No term hits, so the in-process fallback keeps its top 50: all ten
    # fixture passages, the gold one included.
    rec = build_matrix(questions, corpus, lex).records[0]
    assert rec.gold_ids == {"s1:4"}
    assert len(rec.stats) == len(corpus)
    assert rec.missing_gold == frozenset()
    # The fallback runs only when no grep hits: a question whose terms hit
    # other passages misses the gold.
    questions = load_questions(_questions_file(tmp_path, [
        {"question_id": "elsewhere", "question": "Where is the cider stand?",
         "gold_passage_ids": ["s1:4"]},
    ]), corpus)
    rec = build_matrix(questions, corpus, lex).records[0]
    assert 0 < len(rec.stats) < len(corpus)
    assert rec.missing_gold == {"s1:4"}


def test_a_matrix_that_retrieved_nothing_names_the_primary_scorer(fixture_corpus_path,
                                                                 tmp_path):
    # Grep finds nothing and the served fallback is down, so the question
    # has no candidate; the header still names the scorer whose vector the
    # cross table holds.
    corpus = read_corpus(fixture_corpus_path)
    questions = load_questions(_questions_file(tmp_path, [
        {"question_id": "impossible", "question": "zanzibar quodlibet",
         "gold_passage_ids": ["s1:4"]},
    ]), corpus)
    down = ScorerHandle(name="ce", kind="pointwise-cross", endpoint=f"unix:{tmp_path}/absent.sock")
    matrix = build_matrix(questions, corpus, [ScorerHandle(name="lex"), down])
    assert matrix.cross_scorer == "ce"
    (rec,) = matrix.records
    assert rec.stats == () and rec.cross_scores == {} and rec.missing_gold == {"s1:4"}
    write_matrix(matrix, tmp_path / "matrix.jsonl")
    assert read_matrix(tmp_path / "matrix.jsonl", corpus) == matrix


def test_build_matrix_neither_cuts_nor_renders(fixture_corpus_path,
                                              fixture_questions_path, monkeypatch):
    corpus = read_corpus(fixture_corpus_path)
    questions = load_questions(fixture_questions_path, corpus)
    calls = []
    for name in ("cut", "render_context"):
        def counting(*args, name=name, original=getattr(evaluate, name)):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(evaluate, name, counting)
    matrix = build_matrix(questions, corpus, [ScorerHandle(name="lex")])
    assert calls == []
    assert len(matrix.records) == len(questions)


def _questions_file(tmp_path, records):
    path = tmp_path / "questions.json"
    path.write_text(json.dumps(records))
    return path


def test_matrix_round_trip(fixture_corpus_path, fixture_questions_path, tmp_path):
    corpus = read_corpus(fixture_corpus_path)
    questions = load_questions(fixture_questions_path, corpus)
    matrix = build_matrix(questions, corpus, [ScorerHandle(name="lex")])
    path = tmp_path / "matrix.jsonl"
    write_matrix(matrix, path)
    back = read_matrix(path, corpus)
    assert back == matrix
    assert matrix_to_jsonl(back) == matrix_to_jsonl(matrix)


def test_matrix_round_trip_keeps_unicode_line_separators(tmp_path):
    rec = dataclasses.replace(record("q1", ["a"], {"a": 1.0}, ["a"]),
                              query="where\u2028now\x85then")
    matrix = ScoreMatrix(records=(rec,), corpus_checksum="c", cross_scorer="lex")
    path = tmp_path / "matrix.jsonl"
    write_matrix(matrix, path)
    assert read_matrix(path) == matrix


# Text that exercises the line-splitting edge cases: U+2028 and U+0085
# end a line for str.splitlines() but not for the matrix reader.
_matrix_text = st.text(alphabet=st.sampled_from("ab:\u2028\x85\u00e9 \\\"\n"),
                       max_size=6)
_score = st.floats(allow_nan=False, allow_infinity=False)
_length = st.integers(min_value=0, max_value=10**12)


@st.composite
def score_matrices(draw):
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        ids = draw(st.lists(_matrix_text, max_size=5, unique=True))
        gold = draw(st.frozensets(_matrix_text, max_size=3))
        records.append(QuestionRecord(
            question_id=draw(_matrix_text),
            query=draw(_matrix_text),
            stats=tuple(PassageStats(pid, draw(_length), draw(_length)) for pid in ids),
            cross_scores={pid: draw(_score) for pid in ids},
            match_scores={pid: draw(_score) for pid in ids},
            gold_ids=gold,
        ))
    return ScoreMatrix(records=tuple(records), corpus_checksum=draw(_matrix_text),
                       cross_scorer=draw(_matrix_text))


@settings(max_examples=200, deadline=None, database=None)
@given(matrix=score_matrices())
def test_matrix_read_inverts_write(matrix, tmp_path_factory):
    path = tmp_path_factory.mktemp("matrix") / "matrix.jsonl"
    write_matrix(matrix, path)
    assert read_matrix(path) == matrix


def test_read_matrix_rejects_checksum_mismatch(fixture_corpus_path, tmp_path,
                                               tiny_corpus):
    corpus = read_corpus(fixture_corpus_path)
    matrix = ScoreMatrix(records=(), corpus_checksum=corpus.checksum,
                         cross_scorer="lex")
    path = tmp_path / "matrix.jsonl"
    write_matrix(matrix, path)
    with pytest.raises(IncompleteMatrixError):
        read_matrix(path, tiny_corpus)


def test_simulate_grid_shape():
    matrix = ScoreMatrix(
        records=(record("q1", ["a", "b"], {"a": 2.0, "b": 1.0}, ["a"]),),
        corpus_checksum="c", cross_scorer="lex",
    )
    cells = simulate_truncation(matrix, budgets=[10, 20], alphas=[0.0, 0.05])
    kinds = [(c.strategy, c.budget, c.alpha) for c in cells]
    assert kinds == [
        ("fixed", 10, None), ("fixed", 20, None),
        ("adaptive", 20, 0.0), ("adaptive", 20, 0.05),
    ]


def test_simulate_retrieval_miss_bucket():
    matrix = ScoreMatrix(
        records=(
            record("hit", ["a"], {"a": 1.0}, ["a"]),
            record("miss", ["b"], {"b": 1.0}, ["g"]),
        ),
        corpus_checksum="c", cross_scorer="lex",
    )
    cell = simulate_truncation(matrix, budgets=[100], alphas=[])[0]
    assert cell.retrieval_miss_count == 1
    assert cell.question_count == 1  # only the hit contributes recall
    assert cell.budget_recall == 1.0


def test_simulate_partial_miss_keeps_full_denominator():
    # One of two gold passages was never retrieved: recall caps at 0.5.
    matrix = ScoreMatrix(
        records=(
            record("q", ["a"], {"a": 1.0}, ["a", "g"]),
        ),
        corpus_checksum="c", cross_scorer="lex",
    )
    cell = simulate_truncation(matrix, budgets=[100], alphas=[])[0]
    assert cell.budget_recall == 0.5
    assert cell.retrieval_miss_count == 0


def test_simulate_empty_gold_bucket():
    matrix = ScoreMatrix(
        records=(record("q", ["a"], {"a": 1.0}, []),),
        corpus_checksum="c", cross_scorer="lex",
    )
    cell = simulate_truncation(matrix, budgets=[100], alphas=[])[0]
    assert cell.empty_gold_count == 1
    assert cell.question_count == 0


def test_simulate_alpha_zero_equals_fixed_at_ceiling():
    records = (
        record("q1", ["a", "b", "c"], {"a": 3.0, "b": 2.0, "c": 1.0},
               ["b"], words={"a": 4, "b": 4, "c": 4}),
    )
    matrix = ScoreMatrix(records=records, corpus_checksum="c", cross_scorer="lex")
    fixed = simulate_truncation(matrix, budgets=[8], alphas=[])[0]
    adaptive = simulate_truncation(matrix, budgets=[], alphas=[0.0], ceiling=8)[0]
    assert fixed.budget_recall == adaptive.budget_recall
    assert fixed.avg_tokens == adaptive.avg_tokens


def test_micro_vs_macro_divergence():
    # Micro weights by gold count; macro averages per-question recalls.
    matrix = ScoreMatrix(
        records=(
            record("big", ["a", "b", "c", "d"],
                   {pid: 1.0 for pid in "abcd"}, ["a", "b", "c", "d"]),
            record("small", ["z"], {"z": 1.0}, ["z", "y"]),
        ),
        corpus_checksum="c", cross_scorer="lex",
    )
    cell = simulate_truncation(matrix, budgets=[100], alphas=[])[0]
    assert cell.budget_recall == pytest.approx(5 / 6)
    assert cell.macro_recall == pytest.approx((1.0 + 0.5) / 2)


def test_ranking_effect_constructed_inversion():
    # Cross ranks gold first; match scores rank it last.
    rec = dataclasses.replace(
        record("q", ["a", "b", "g"], {"a": 0.1, "b": 0.2, "g": 0.9}, ["g"]),
        match_scores={"a": 9.0, "b": 8.0, "g": 1.0},
    )
    matrix = ScoreMatrix(records=(rec,), corpus_checksum="c", cross_scorer="lex")
    effect = ranking_effect(matrix)
    assert effect.mean_rank_by_match == 3.0
    assert effect.mean_rank_by_cross == 1.0
    assert effect.absent == 0


def test_ranking_effect_excludes_unretrieved_gold():
    rec = record("q", ["a"], {"a": 1.0}, ["g"])
    matrix = ScoreMatrix(records=(rec,), corpus_checksum="c", cross_scorer="lex")
    effect = ranking_effect(matrix)
    assert effect.absent == 1
    assert effect.mean_rank_by_match is None


def _reference_gold_rank(matrix, key):
    """Mean first-gold rank, considered and absent, each record's candidates
    sorted by `key(rec)` (None keeps the stored order)."""
    ranks, absent = [], 0
    for rec in matrix.records:
        if not rec.gold_ids:
            continue
        ordered = (rec.candidate_ids if key is None
                   else sorted(rec.candidate_ids, key=key(rec)))
        hits = [i for i, pid in enumerate(ordered, start=1) if pid in rec.gold_ids]
        if hits:
            ranks.append(hits[0])
        else:
            absent += 1
    return (sum(ranks) / len(ranks) if ranks else None), len(ranks), absent


# Few ids and few distinct scores, so scores tie and gold is often absent.
_few_ids = st.sampled_from(["a", "b", "c", "d", "e"])
_few_scores = st.sampled_from([-1.0, 0.0, 0.5, 2.0])


@st.composite
def tied_matrices(draw):
    records = []
    for n in range(draw(st.integers(min_value=0, max_value=4))):
        ids = draw(st.lists(_few_ids, max_size=5, unique=True))
        gold = draw(st.frozensets(_few_ids, max_size=2))
        records.append(QuestionRecord(
            question_id=f"q{n}", query="q",
            stats=tuple(PassageStats(pid, 1, 1) for pid in ids),
            cross_scores={pid: draw(_few_scores) for pid in ids},
            match_scores={pid: draw(_few_scores) for pid in ids},
            gold_ids=gold,
        ))
    return ScoreMatrix(records=tuple(records), corpus_checksum="c", cross_scorer="lex")


@settings(max_examples=300, deadline=None, database=None)
@given(matrix=tied_matrices())
def test_gold_ranks_match_brute_force_reference(matrix):
    fused = mean_gold_rank(matrix)
    assert (fused.mean_rank, fused.considered, fused.absent) == \
        _reference_gold_rank(matrix, None)
    by_match = _reference_gold_rank(
        matrix, lambda rec: lambda pid: (-rec.match_scores[pid], pid))
    by_cross = _reference_gold_rank(
        matrix, lambda rec: lambda pid: (-rec.cross_scores[pid], pid))
    effect = ranking_effect(matrix)
    assert effect.mean_rank_by_match == by_match[0]
    assert effect.mean_rank_by_cross == by_cross[0]
    assert (effect.considered, effect.absent) == by_match[1:] == by_cross[1:]


# Candidates come from a small pool, and gold from the candidates and two ids
# no record retrieves, so a record's gold is empty, wholly missed, partly
# retrieved or wholly retrieved, and the cut keeps all, some or none of it.
@st.composite
def cell_matrices(draw):
    records = []
    for n in range(draw(st.integers(min_value=0, max_value=6))):
        ids = draw(st.lists(_few_ids, max_size=5, unique=True))
        gold_ids = draw(st.frozensets(st.sampled_from(ids + ["x", "y"]), max_size=3))
        records.append(QuestionRecord(
            question_id=f"q{n}", query="q",
            stats=tuple(PassageStats(pid, draw(st.integers(0, 40)), draw(st.integers(1, 300)))
                        for pid in ids),
            cross_scores={pid: draw(_few_scores) for pid in ids},
            match_scores={pid: 1.0 for pid in ids},
            gold_ids=gold_ids,
        ))
    return ScoreMatrix(records=tuple(records), corpus_checksum="c", cross_scorer="lex")


truncation_configs = st.builds(
    TruncationConfig, strategy=st.sampled_from(["fixed", "adaptive"]),
    word_budget=st.integers(1, 120), alpha=st.floats(0.0, 0.9), top_k=st.integers(1, 6))


def _reference_cell(matrix, cfg):
    """simulate_cell's figures and rows, recounted one record at a time."""
    rows, recalls, tokens = [], [], []
    kept_total = gold_total = misses = empty = 0
    for rec in matrix.records:
        context = evaluate.cut(rec.stats, rec.cross_scores, cfg)
        tokens.append(context.estimated_tokens)
        retrieved = [s.passage_id for s in rec.stats]
        recall = exclusion = None
        if not rec.gold_ids:
            exclusion = "empty-gold"
            empty += 1
        elif not any(pid in retrieved for pid in rec.gold_ids):
            exclusion = "retrieval-miss"
            misses += 1
        else:
            kept = sum(1 for pid in rec.gold_ids if pid in context.passage_ids)
            kept_total += kept
            gold_total += len(rec.gold_ids)
            recall = kept / len(rec.gold_ids)
            recalls.append(recall)
        rows.append(evaluate.QuestionMetrics(
            rec.question_id, recall, context.estimated_tokens,
            len(context.passage_ids), exclusion))
    return (kept_total / gold_total if gold_total else 0.0,
            sum(recalls) / len(recalls) if recalls else 0.0,
            sum(tokens) / len(tokens) if tokens else 0.0,
            len(recalls), misses, empty, tuple(rows))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix=cell_matrices(), cfg=truncation_configs)
def test_simulate_cell_equals_a_recount(matrix, cfg):
    report = simulate_cell(matrix, cfg)
    assert (report.strategy, report.budget, report.alpha) == \
        (cfg.strategy, cfg.word_budget, cfg.applied_alpha)
    assert (report.budget_recall, report.macro_recall, report.avg_tokens,
            report.question_count, report.retrieval_miss_count, report.empty_gold_count,
            report.per_question) == _reference_cell(matrix, cfg)


def test_fused_gold_rank_uses_stored_order():
    rec = record("q", ["a", "g", "b"], {"a": 1.0, "g": 1.0, "b": 1.0}, ["g"])
    matrix = ScoreMatrix(records=(rec,), corpus_checksum="c", cross_scorer="lex")
    result = mean_gold_rank(matrix)
    assert result.mean_rank == 2.0


def test_sweep_renderers_are_deterministic():
    matrix = ScoreMatrix(
        records=(record("q", ["a"], {"a": 1.0}, ["a"]),),
        corpus_checksum="c", cross_scorer="lex",
    )
    cells = simulate_truncation(matrix, budgets=[10], alphas=[0.0])
    assert render_sweep_text(cells) == render_sweep_text(cells)
    assert sweep_to_json(cells) == sweep_to_json(cells)
    assert "strategy" in render_sweep_text(cells)
