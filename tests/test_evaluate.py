"""Metrics, the score matrix artifact, and the offline simulator."""

import dataclasses

import pytest

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
    simulate_truncation,
    sweep_to_json,
    write_matrix,
)
from memgrep.rank import ScorerHandle
from memgrep.truncate import Context


def gold(*ids, question_id="q"):
    return GoldAnnotation(question_id=question_id,
                          gold_passage_ids=frozenset(ids))


def context(*ids):
    return Context(passage_ids=ids, word_count=0, estimated_tokens=0,
                   pruned_by_threshold=0, pruned_by_budget=0)


def record(qid, candidates, cross, gold_ids, missing=(), words=None):
    words = words or {pid: 5 for pid in candidates}
    return QuestionRecord(
        question_id=qid,
        query="q",
        candidate_ids=tuple(candidates),
        cross_scores=dict(cross),
        match_scores={pid: 1.0 for pid in candidates},
        word_counts=words,
        render_lens={pid: words[pid] * 6 for pid in candidates},
        gold_ids=frozenset(gold_ids),
        missing_gold=frozenset(missing),
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
        record("q", ["a", "b"], {}, ["missing"], missing=["missing"]),
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
    # Once for retrieval, once for the in-process scorer.
    assert annotator.annotated.count(query) == 2


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
    matrix = build_matrix(questions, corpus, [ScorerHandle(name="lex")])
    rec = matrix.records[0]
    # The lexical fallback still retrieves; missing only if absent there too.
    assert rec.gold_ids == {"s1:4"}
    assert rec.missing_gold in (frozenset(), {"s1:4"})


def _questions_file(tmp_path, records):
    import json
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
            record("miss", ["b"], {"b": 1.0}, ["g"], missing=["g"]),
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
            record("q", ["a"], {"a": 1.0}, ["a", "g"], missing=["g"]),
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
            record("small", ["z"], {"z": 1.0}, ["z", "y"], missing=["y"]),
        ),
        corpus_checksum="c", cross_scorer="lex",
    )
    cell = simulate_truncation(matrix, budgets=[100], alphas=[])[0]
    assert cell.budget_recall == pytest.approx(5 / 6)
    assert cell.macro_recall == pytest.approx((1.0 + 0.5) / 2)


def test_ranking_effect_constructed_inversion():
    # Cross ranks gold first; match scores rank it last.
    rec = QuestionRecord(
        question_id="q", query="q",
        candidate_ids=("a", "b", "g"),
        cross_scores={"a": 0.1, "b": 0.2, "g": 0.9},
        match_scores={"a": 9.0, "b": 8.0, "g": 1.0},
        word_counts={"a": 1, "b": 1, "g": 1},
        render_lens={"a": 6, "b": 6, "g": 6},
        gold_ids=frozenset({"g"}),
        missing_gold=frozenset(),
    )
    matrix = ScoreMatrix(records=(rec,), corpus_checksum="c", cross_scorer="lex")
    effect = ranking_effect(matrix)
    assert effect.mean_rank_by_match == 3.0
    assert effect.mean_rank_by_cross == 1.0
    assert effect.absent == 0


def test_ranking_effect_excludes_unretrieved_gold():
    rec = record("q", ["a"], {"a": 1.0}, ["g"], missing=["g"])
    matrix = ScoreMatrix(records=(rec,), corpus_checksum="c", cross_scorer="lex")
    effect = ranking_effect(matrix)
    assert effect.absent == 1
    assert effect.mean_rank_by_match is None


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
