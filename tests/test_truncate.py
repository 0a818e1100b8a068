"""Context assembly: rendering, fixed budgets, and the adaptive threshold."""

import math

import pytest

from memgrep.corpus import Passage
from memgrep.errors import MissingScoreError
from memgrep.rank import RankedEntry, RankedList, ScoreVector
from memgrep.truncate import (
    CHARS_PER_TOKEN,
    TruncationConfig,
    adaptive_over_stats,
    estimate_tokens,
    fixed_over_stats,
    render_block,
    render_context,
    stats_for,
    tokens_from_stats,
    truncate_adaptive,
    truncate_fixed,
    word_count,
)

from conftest import make_corpus


def passage(pid, text, speaker="A", timestamp=None):
    session, _, turn = pid.partition(":")
    return Passage(id=pid, session_id=session, turn_index=int(turn),
                   speaker=speaker, text=text, timestamp=timestamp)


def ranked_list(*ids):
    entries = tuple(
        RankedEntry(passage_id=pid, fused_score=-float(i))
        for i, pid in enumerate(ids)
    )
    return RankedList(entries=entries, query_id="q")


def words(n, word="w"):
    return " ".join(word for _ in range(n))


def vector(scores):
    return ScoreVector(scorer_name="cross", scores=scores)


def test_render_block_with_timestamp():
    p = passage("s:0", "hello there", speaker="Melanie",
                timestamp="2023-07-08 09:14")
    assert render_block(p) == "[s:0] Melanie (2023-07-08 09:14):\nhello there"


def test_render_block_without_timestamp():
    p = passage("s:0", "hello there", speaker="Melanie")
    assert render_block(p) == "[s:0] Melanie:\nhello there"


def test_render_context_joins_blocks():
    corpus = make_corpus(["first text", "second text"])
    rendered = render_context(["s:0", "s:1"], corpus)
    assert rendered == render_block(corpus.get("s:0")) + "\n\n" + \
        render_block(corpus.get("s:1"))


def test_estimate_tokens_is_ceil_chars_over_four():
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("") == 0


def test_tokens_from_stats_matches_rendered_estimate():
    corpus = make_corpus(["alpha beta gamma", "delta epsilon"])
    stats = [stats_for(p) for p in corpus]
    rendered = render_context([p.id for p in corpus], corpus)
    assert tokens_from_stats(stats) == estimate_tokens(rendered)
    assert tokens_from_stats([]) == 0


def test_word_count_splits_on_whitespace():
    assert word_count(passage("s:0", "one  two\tthree\nfour")) == 4


def test_fixed_budget_skips_and_continues():
    corpus = make_corpus([words(8), words(9), words(2)])
    ranked = ranked_list("s:0", "s:1", "s:2")
    context = truncate_fixed(ranked, corpus, budget_words=10)
    # s:1 would blow the budget; s:2 still fits after the skip.
    assert context.passage_ids == ("s:0", "s:2")
    assert context.word_count == 10
    assert context.pruned_by_budget == 1
    assert context.pruned_by_threshold == 0


def test_fixed_budget_keeps_rank_order_not_size_order():
    corpus = make_corpus([words(6), words(3), words(3)])
    context = truncate_fixed(ranked_list("s:0", "s:1", "s:2"), corpus,
                             budget_words=9)
    assert context.passage_ids == ("s:0", "s:1")


def test_fixed_budget_must_be_positive():
    corpus = make_corpus([words(5)])
    with pytest.raises(ValueError):
        truncate_fixed(ranked_list("s:0"), corpus, budget_words=0)


def test_adaptive_threshold_prunes_low_cross_scores():
    corpus = make_corpus([words(4), words(4), words(4)])
    ranked = ranked_list("s:0", "s:1", "s:2")
    cross = {"s:0": 10.0, "s:1": 5.0, "s:2": 0.2}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.03, word_budget=4000)
    context = truncate_adaptive(ranked, vector(cross), corpus, cfg)
    # tau = 0.03 * 10 = 0.3; only s:2 falls below.
    assert context.passage_ids == ("s:0", "s:1")
    assert context.pruned_by_threshold == 1
    assert context.pruned_by_budget == 0


def test_adaptive_alpha_zero_disables_threshold():
    corpus = make_corpus([words(4), words(4), words(4)])
    ranked = ranked_list("s:0", "s:1", "s:2")
    cross = {"s:0": 10.0, "s:1": 5.0, "s:2": 0.2}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.0, word_budget=4000)
    context = truncate_adaptive(ranked, vector(cross), corpus, cfg)
    assert context.passage_ids == ("s:0", "s:1", "s:2")
    assert context.pruned_by_threshold == 0


def test_adaptive_nonpositive_max_disables_threshold():
    corpus = make_corpus([words(4), words(4)])
    ranked = ranked_list("s:0", "s:1")
    cross = {"s:0": -1.0, "s:1": -2.0}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.03, word_budget=4000)
    context = truncate_adaptive(ranked, vector(cross), corpus, cfg)
    assert context.passage_ids == ("s:0", "s:1")
    assert context.pruned_by_threshold == 0


def test_adaptive_top_k_preselection():
    corpus = make_corpus([words(2) for _ in range(5)])
    ranked = ranked_list("s:0", "s:1", "s:2", "s:3", "s:4")
    cross = {pid: 1.0 for pid in ranked.ids()}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.0, top_k=3,
                           word_budget=4000)
    context = truncate_adaptive(ranked, vector(cross), corpus, cfg)
    assert context.passage_ids == ("s:0", "s:1", "s:2")


def test_adaptive_budget_applies_after_threshold():
    corpus = make_corpus([words(6), words(6), words(6)])
    ranked = ranked_list("s:0", "s:1", "s:2")
    cross = {"s:0": 10.0, "s:1": 9.0, "s:2": 8.0}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.03, word_budget=12)
    context = truncate_adaptive(ranked, vector(cross), corpus, cfg)
    assert context.passage_ids == ("s:0", "s:1")
    assert context.pruned_by_budget == 1


def test_adaptive_missing_cross_score_is_an_error():
    corpus = make_corpus([words(2), words(2)])
    ranked = ranked_list("s:0", "s:1")
    cfg = TruncationConfig(strategy="adaptive")
    with pytest.raises(MissingScoreError) as err:
        truncate_adaptive(ranked, vector({"s:0": 1.0}), corpus, cfg)
    assert "s:1" in str(err.value)


def test_adaptive_requires_adaptive_config():
    corpus = make_corpus([words(2)])
    with pytest.raises(ValueError):
        truncate_adaptive(ranked_list("s:0"), vector({"s:0": 1.0}), corpus,
                          TruncationConfig(strategy="fixed"))


def test_truncation_config_defaults_by_strategy():
    fixed = TruncationConfig(strategy="fixed")
    adaptive = TruncationConfig(strategy="adaptive")
    assert fixed.word_budget == 2000
    assert adaptive.word_budget == 4000
    assert adaptive.alpha == 0.03
    assert adaptive.top_k == 60


def test_truncation_config_validation():
    with pytest.raises(ValueError):
        TruncationConfig(strategy="smart")
    with pytest.raises(ValueError):
        TruncationConfig(alpha=1.0)
    with pytest.raises(ValueError):
        TruncationConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        TruncationConfig(top_k=0)
    with pytest.raises(ValueError):
        TruncationConfig(word_budget=-5)


def test_over_stats_cores_match_wrappers():
    corpus = make_corpus([words(8), words(9), words(2)])
    ranked = ranked_list("s:0", "s:1", "s:2")
    stats = [stats_for(corpus.get(pid)) for pid in ranked.ids()]

    included, word_total, pruned = fixed_over_stats(stats, 10)
    context = truncate_fixed(ranked, corpus, budget_words=10)
    assert tuple(s.passage_id for s in included) == context.passage_ids
    assert word_total == context.word_count
    assert pruned == context.pruned_by_budget

    cross = {"s:0": 10.0, "s:1": 5.0, "s:2": 0.2}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.03, word_budget=10)
    inc2, words2, by_tau, by_budget = adaptive_over_stats(stats, cross, cfg)
    context2 = truncate_adaptive(ranked, vector(cross), corpus, cfg)
    assert tuple(s.passage_id for s in inc2) == context2.passage_ids
    assert words2 == context2.word_count
    assert (by_tau, by_budget) == (context2.pruned_by_threshold,
                                   context2.pruned_by_budget)


def test_estimated_tokens_accounts_for_joiners():
    corpus = make_corpus(["aaaa", "bbbb"])
    context = truncate_fixed(ranked_list("s:0", "s:1"), corpus, budget_words=100)
    rendered = render_context(list(context.passage_ids), corpus)
    assert context.estimated_tokens == math.ceil(len(rendered) / CHARS_PER_TOKEN)
