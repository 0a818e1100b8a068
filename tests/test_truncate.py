"""Context assembly: rendering, fixed budgets, and the adaptive threshold."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memgrep.corpus import Passage
from memgrep.evaluate import run_question
from memgrep.rank import ScorerHandle
from memgrep.truncate import (
    CHARS_PER_TOKEN,
    Context,
    RankedStats,
    TruncationConfig,
    estimate_tokens,
    render_block,
    render_context,
    stats_for,
    tokens_from_stats,
    truncate_adaptive,
    truncate_fixed,
)

from conftest import make_corpus


def passage(pid, text, speaker="A", timestamp=None):
    session, _, turn = pid.partition(":")
    return Passage(id=pid, session_id=session, turn_index=int(turn),
                   speaker=speaker, text=text, timestamp=timestamp)


def ranked_stats(corpus, *ids):
    """The stats of the passages `ids`, ranked in that order, as a live run
    hands them to the cut."""
    return RankedStats(list(ids), corpus)


def words(n, word="w"):
    return " ".join(word for _ in range(n))


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
    stats = [stats_for(corpus, p.id) for p in corpus]
    rendered = render_context([p.id for p in corpus], corpus)
    assert tokens_from_stats(stats) == estimate_tokens(rendered)
    assert tokens_from_stats([]) == 0


def test_fixed_budget_skips_and_continues():
    corpus = make_corpus([words(8), words(9), words(2)])
    ranked = ranked_stats(corpus, "s:0", "s:1", "s:2")
    context = truncate_fixed(ranked, 10)
    # s:1 would blow the budget; s:2 still fits after the skip.
    assert context.passage_ids == ("s:0", "s:2")
    assert context.word_count == 10
    assert context.pruned_by_budget == 1
    assert context.pruned_by_threshold == 0


def test_fixed_budget_keeps_rank_order_not_size_order():
    corpus = make_corpus([words(6), words(3), words(3)])
    context = truncate_fixed(ranked_stats(corpus, "s:0", "s:1", "s:2"), 9)
    assert context.passage_ids == ("s:0", "s:1")


def test_adaptive_threshold_prunes_low_cross_scores():
    corpus = make_corpus([words(4), words(4), words(4)])
    ranked = ranked_stats(corpus, "s:0", "s:1", "s:2")
    cross = {"s:0": 10.0, "s:1": 5.0, "s:2": 0.2}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.03, word_budget=4000)
    context = truncate_adaptive(ranked, cross, cfg)
    # tau = 0.03 * 10 = 0.3; only s:2 falls below.
    assert context.passage_ids == ("s:0", "s:1")
    assert context.pruned_by_threshold == 1
    assert context.pruned_by_budget == 0


def test_adaptive_alpha_zero_disables_threshold():
    corpus = make_corpus([words(4), words(4), words(4)])
    ranked = ranked_stats(corpus, "s:0", "s:1", "s:2")
    cross = {"s:0": 10.0, "s:1": 5.0, "s:2": 0.2}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.0, word_budget=4000)
    context = truncate_adaptive(ranked, cross, cfg)
    assert context.passage_ids == ("s:0", "s:1", "s:2")
    assert context.pruned_by_threshold == 0


def test_adaptive_nonpositive_max_disables_threshold():
    corpus = make_corpus([words(4), words(4)])
    ranked = ranked_stats(corpus, "s:0", "s:1")
    cross = {"s:0": -1.0, "s:1": -2.0}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.03, word_budget=4000)
    context = truncate_adaptive(ranked, cross, cfg)
    assert context.passage_ids == ("s:0", "s:1")
    assert context.pruned_by_threshold == 0


def test_adaptive_top_k_preselection():
    corpus = make_corpus([words(2) for _ in range(5)])
    ids = ("s:0", "s:1", "s:2", "s:3", "s:4")
    ranked = ranked_stats(corpus, *ids)
    cross = {pid: 1.0 for pid in ids}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.0, top_k=3,
                           word_budget=4000)
    context = truncate_adaptive(ranked, cross, cfg)
    assert context.passage_ids == ("s:0", "s:1", "s:2")


def test_adaptive_budget_applies_after_threshold():
    corpus = make_corpus([words(6), words(6), words(6)])
    ranked = ranked_stats(corpus, "s:0", "s:1", "s:2")
    cross = {"s:0": 10.0, "s:1": 9.0, "s:2": 8.0}
    cfg = TruncationConfig(strategy="adaptive", alpha=0.03, word_budget=12)
    context = truncate_adaptive(ranked, cross, cfg)
    assert context.passage_ids == ("s:0", "s:1")
    assert context.pruned_by_budget == 1


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


@pytest.mark.parametrize("strategy", ["fixed", "adaptive"])
@pytest.mark.parametrize("name", ["word_budget", "top_k"])
@pytest.mark.parametrize("value", [2.5, True, "60"])
def test_truncation_config_limits_are_ints(strategy, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be int, got {re.escape(repr(value))}$"):
        TruncationConfig(strategy=strategy, **{name: value})


def test_estimated_tokens_accounts_for_joiners():
    corpus = make_corpus(["aaaa", "bbbb"])
    context = truncate_fixed(ranked_stats(corpus, "s:0", "s:1"), 100)
    rendered = render_context(list(context.passage_ids), corpus)
    assert context.estimated_tokens == math.ceil(len(rendered) / CHARS_PER_TOKEN)


def reference_cut(ranking, cross, corpus, cfg):
    """The cut written out from its definition, over the passages
    themselves: top-K and the threshold for an adaptive cut, then keep each
    passage whose words still fit beside the ones kept before it."""
    pool = list(ranking)
    by_threshold = 0
    if cfg.strategy == "adaptive":
        pool = pool[:cfg.top_k]
        top = max((cross[pid] for pid in pool), default=0.0)
        if cfg.alpha > 0 and top > 0:
            survivors = [pid for pid in pool if cross[pid] >= cfg.alpha * top]
            by_threshold = len(pool) - len(survivors)
            pool = survivors

    def words_of(ids):
        return sum(len(corpus.get(pid).text.split()) for pid in ids)

    kept = []
    for pid in pool:
        if words_of(kept + [pid]) <= cfg.word_budget:
            kept.append(pid)
    return Context(
        passage_ids=tuple(kept),
        word_count=words_of(kept),
        estimated_tokens=estimate_tokens(render_context(kept, corpus)),
        pruned_by_threshold=by_threshold,
        pruned_by_budget=len(pool) - len(kept),
    )


# (word count, cross score, rank key) per passage; the ranking takes the
# first `ranked` passages by rank key.
_PASSAGES = st.lists(st.tuples(st.integers(1, 30), st.floats(-10, 10),
                               st.integers(0, 20)), min_size=1, max_size=12)


@settings(max_examples=400, deadline=None, database=None)
@given(passages=_PASSAGES, ranked=st.integers(0, 12),
       strategy=st.sampled_from(["fixed", "adaptive"]), budget=st.integers(1, 120),
       alpha=st.one_of(st.just(0.0), st.floats(0, 0.99)), top_k=st.integers(1, 14))
@example(passages=[(4, 10.0, 0), (4, 0.1, 1)], ranked=2, strategy="adaptive",
         budget=100, alpha=0.0, top_k=2)                    # alpha 0
@example(passages=[(4, -1.0, 0), (4, -2.0, 1)], ranked=2, strategy="adaptive",
         budget=100, alpha=0.5, top_k=2)                    # max cross <= 0
@example(passages=[(4, 4.0, 0), (4, 2.0, 1), (4, 1.0, 2)], ranked=3,
         strategy="adaptive", budget=100, alpha=0.5, top_k=3)    # a score at tau stays
@example(passages=[(4, 3.0, 0), (4, 0.5, 1), (4, 2.0, 2)], ranked=3,
         strategy="adaptive", budget=100, alpha=0.4, top_k=14)   # top_k >= n
@example(passages=[(30, 1.0, 0), (3, 1.0, 1), (30, 1.0, 2), (2, 1.0, 3)],
         ranked=4, strategy="fixed", budget=10, alpha=0.0, top_k=1)  # oversize
def test_strategies_match_reference(passages, ranked, strategy, budget, alpha, top_k):
    corpus = make_corpus([words(count) for count, _, _ in passages])
    ranking = [pid for _, pid in sorted((key, p.id) for (_, _, key), p
                                        in zip(passages, corpus))][:ranked]
    cross = {p.id: score for (_, score, _), p in zip(passages, corpus)}
    cfg = TruncationConfig(strategy=strategy, word_budget=budget, alpha=alpha,
                           top_k=top_k)
    expected = reference_cut(ranking, cross, corpus, cfg)
    # A live run's lazy stats and a matrix record's stored ones cut alike.
    for stats in (RankedStats(ranking, corpus),
                  tuple(stats_for(corpus, pid) for pid in ranking)):
        if strategy == "fixed":
            assert truncate_fixed(stats, budget) == expected
        else:
            assert truncate_adaptive(stats, cross, cfg) == expected


def test_live_adaptive_run_computes_stats_for_top_k_only(monkeypatch):
    corpus = make_corpus([f"Melanie went hiking near lake {i}." for i in range(20)])
    computed = []

    def counted(corpus, passage_id):
        computed.append(passage_id)
        return stats_for(corpus, passage_id)

    # Every stats computation goes through one of these two names.
    monkeypatch.setattr("memgrep.truncate.stats_for", counted)
    monkeypatch.setattr("memgrep.evaluate.stats_for", counted)
    cfg = TruncationConfig(strategy="adaptive", alpha=0.0, top_k=3)
    run = run_question("Where did Melanie go hiking?", corpus,
                       [ScorerHandle(name="lexical")], trunc_cfg=cfg)
    assert len(run.candidates) == 20
    assert len(run.context.passage_ids) == 3
    assert len(computed) <= cfg.top_k
