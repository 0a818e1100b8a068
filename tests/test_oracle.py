"""Minimum-cost trace derivation and trace statistics."""

import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrep.annotate import RuleAnnotator
from memgrep.corpus import GoldAnnotation, load_questions, read_corpus
from memgrep.oracle import (
    ACTION_SPACE_NOTE,
    Action,
    OracleTrace,
    SearchLimits,
    derive_trace,
    trace_stats,
    traces_to_jsonl,
)
from memgrep.rank import LexicalDenseScorer, ScorerHandle
from memgrep.service import ReferenceServer

from conftest import BLANK_TURN_CORPUS, BLANK_TURN_QUESTION, fixture_path, make_corpus


@pytest.fixture(scope="module")
def tagger():
    return RuleAnnotator()


def gold(*ids, question_id="q"):
    return GoldAnnotation(question_id=question_id,
                          gold_passage_ids=frozenset(ids))


def test_single_hop_when_gold_shares_query_term(tagger):
    corpus = make_corpus([
        "Gina started a job at the bakery.",
        "Gina loves her work there.",
        "Unrelated weather chatter.",
    ])
    trace = derive_trace("What job does Gina have?", gold("s:0", "s:1"),
                         corpus, tagger)
    assert trace.success
    assert trace.cost == 1
    assert trace.hops == 1
    assert trace.actions[0].tool == "grep-or"


def test_two_hop_bridging_entity(tagger):
    # s:1 shares no query term; "Birchwood" appears in s:0 and bridges.
    corpus = make_corpus([
        "Gina started a job at Birchwood Labs.",
        "Birchwood Labs builds little farming robots.",
        "Completely unrelated filler text.",
    ])
    trace = derive_trace("What job does Gina have?", gold("s:0", "s:1"),
                         corpus, tagger)
    assert trace.success
    assert trace.cost == 2
    assert trace.hops == 2


def test_no_path_without_terms_or_scorer(tagger):
    corpus = make_corpus([
        "Gold passage with nothing in common.",
        "Another passage to search.",
    ])
    trace = derive_trace("zanzibar quodlibet xylophone", gold("s:0"),
                         corpus, tagger)
    assert not trace.success
    assert trace.reason == "no-path"
    assert trace.actions == ()
    # An in-process scorer offers no semantic tool.
    assert derive_trace("zanzibar quodlibet xylophone", gold("s:0"), corpus, tagger,
                        [ScorerHandle(name="lex")]) == trace


def test_semantic_tool_rescues_unreachable_gold(tagger):
    corpus = make_corpus([
        "Gold passage with nothing in common.",
        "Another passage to search.",
    ])
    # The semantic tool is offered only when some scorer is served.
    with ReferenceServer(score_fn=LexicalDenseScorer().score) as server:
        trace = derive_trace("zanzibar quodlibet xylophone", gold("s:0"), corpus, tagger,
                             [ScorerHandle(name="lex"),
                              ScorerHandle(name="svc", kind="pointwise-cross",
                                           endpoint=server.endpoint)])
    # Lexical fallback retrieves everything; one semantic action suffices.
    assert trace.success
    assert trace.cost == 1
    assert trace.actions[0].tool == "semantic"


def served(server):
    return [ScorerHandle(name="lex"),
            ScorerHandle(name="svc", kind="pointwise-cross", endpoint=server.endpoint)]


def test_a_query_without_terms_searches_only_semantically(tagger):
    corpus = read_corpus(fixture_path("corpus.jsonl"))
    question = "the of and"
    # No terms and no semantic tool: the action space is empty.
    trace = derive_trace(question, gold("s1:2"), corpus, tagger)
    assert (trace.success, trace.reason, trace.actions) == (False, "no-path", ())
    with ReferenceServer(score_fn=LexicalDenseScorer().score) as server:
        trace = derive_trace(question, gold("s1:2"), corpus, tagger, served(server))
    assert trace.success
    assert {action.tool for action in trace.actions} == {"semantic"}


def test_a_blank_turn_among_the_semantic_top_is_analysed(tagger, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(BLANK_TURN_CORPUS)
    corpus = read_corpus(path)
    assert corpus.get("s:1").text == ""
    with ReferenceServer(score_fn=LexicalDenseScorer().score) as server:
        trace = derive_trace(BLANK_TURN_QUESTION, gold("s:2"), corpus, tagger,
                             served(server))
    assert trace.success
    assert [action.tool for action in trace.actions] == ["semantic"]


def test_budget_exhaustion_reported(tagger):
    corpus = make_corpus([
        "alpha bridges to Quixley in text.",
        "Quixley knows the hidden gold word zebra.",
        "zebra zebra zebra",
    ])
    limits = SearchLimits(max_states=1, max_edges=1)
    trace = derive_trace("alpha question", gold("s:2"), corpus, tagger,
                         limits=limits)
    assert not trace.success
    assert trace.reason == "search-budget-exhausted"
    assert trace.cost == trace.hops == 0
    line = json.loads(traces_to_jsonl([trace], limits, False).splitlines()[1])
    assert (line["cost"], line["hops"], line["actions"]) == (0, 0, [])


@pytest.mark.parametrize("name", ["max_states", "max_edges"])
@pytest.mark.parametrize("value", [2.5, True, "10"])
def test_search_limits_are_ints(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be int, got {re.escape(repr(value))}$"):
        SearchLimits(**{name: value})


def test_empty_gold_rejected(tagger, tiny_corpus):
    with pytest.raises(ValueError):
        derive_trace("anything", gold(), tiny_corpus, tagger)


def test_trace_is_deterministic(tagger, tiny_corpus):
    a = derive_trace("Melanie went hiking", gold("s:0"), tiny_corpus, tagger)
    b = derive_trace("Melanie went hiking", gold("s:0"), tiny_corpus, tagger)
    assert a == b


def test_trace_stats_hop_distribution():
    traces = [
        OracleTrace("a", (Action("grep-or", frozenset({"x"})),), True),
        OracleTrace("b", (Action("grep-or", frozenset({"x"})),), True),
        OracleTrace("c", (Action("grep-or", frozenset({"x"})),
                          Action("grep-or", frozenset({"y"}))), True),
    ]
    stats = trace_stats(traces)
    assert stats["success_rate"] == 1.0
    assert stats["hop_distribution"] == {
        1: pytest.approx(2 / 3), 2: pytest.approx(1 / 3),
    }


def test_trace_stats_empty():
    stats = trace_stats([])
    assert stats["total"] == 0
    assert stats["successes"] == 0
    assert stats["success_rate"] == 0.0
    assert stats["hop_distribution"] == {}


def test_trace_stats_tool_attribution():
    traces = [
        OracleTrace("a", (Action("grep-or", frozenset({"x"})),), True),
        OracleTrace("b", (Action("semantic", frozenset()),), True),
    ]
    stats = trace_stats(traces)
    assert stats["tool_distribution"] == {
        "grep-or": pytest.approx(0.5), "semantic": pytest.approx(0.5),
    }


def test_trace_stats_strongest_tool_wins():
    traces = [
        OracleTrace("a", (Action("grep-or", frozenset({"x"})),
                          Action("grep-and", frozenset({"x", "y"}))),
                    True),
    ]
    stats = trace_stats(traces)
    assert stats["tool_distribution"] == {"grep-and": 1.0}


_actions = st.builds(Action, tool=st.sampled_from(["grep-or", "grep-and", "semantic"]),
                     term_surfaces=st.just(frozenset({"x"})))
_traces = st.one_of(
    st.builds(OracleTrace, question_id=st.just("q"),
              actions=st.lists(_actions, min_size=1, max_size=4).map(tuple),
              success=st.just(True)),
    st.builds(OracleTrace, question_id=st.just("q"), actions=st.just(()),
              success=st.just(False),
              reason=st.sampled_from(["no-path", "search-budget-exhausted",
                                      "scorer-unavailable"])))


def _reference_trace_stats(traces):
    """trace_stats' record, recounted one trace at a time."""
    strength = {"grep-or": 0, "grep-and": 1, "semantic": 2}
    hops, tools, reasons = {}, {}, {}
    for trace in traces:
        if trace.success:
            hops[len(trace.actions)] = hops.get(len(trace.actions), 0) + 1
            strongest = sorted((a.tool for a in trace.actions), key=strength.get)[-1]
            tools[strongest] = tools.get(strongest, 0) + 1
        else:
            reasons[trace.reason] = reasons.get(trace.reason, 0) + 1
    n = sum(hops.values())
    return {
        "total": len(traces),
        "successes": n,
        "success_rate": n / len(traces) if traces else 0.0,
        "hop_distribution": {h: hops[h] / n for h in sorted(hops)},
        "tool_distribution": {tool: tools[tool] / n for tool in sorted(tools)},
        "failure_reasons": reasons,
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(traces=st.lists(_traces, max_size=8))
def test_trace_stats_equals_a_recount(traces):
    stats = trace_stats(traces)
    want = _reference_trace_stats(traces)
    assert stats == want
    # The distributions list their keys in ascending order.
    for name in ("hop_distribution", "tool_distribution"):
        assert list(stats[name]) == list(want[name]), name


def test_traces_jsonl_header(tagger, tiny_corpus):
    trace = derive_trace("Melanie went hiking", gold("s:0"), tiny_corpus, tagger)
    text = traces_to_jsonl([trace], SearchLimits(), semantic_enabled=False)
    lines = text.splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert header["max_states"] == 10_000
    assert header["max_edges"] == 100_000
    assert header["action_space"] == ACTION_SPACE_NOTE
    assert header["semantic_enabled"] is False
    body = json.loads(lines[1])
    assert body["question_id"] == "q"
    assert body["success"] is True


def test_failure_reason_recorded_in_stats(tagger):
    corpus = make_corpus(["no shared words here at all"])
    traces = [derive_trace("zanzibar", gold("s:0"), corpus, tagger)]
    stats = trace_stats(traces)
    assert stats["failure_reasons"] == {"no-path": 1}


def replay_covers(actions, corpus, gold_ids):
    """Re-run grep actions as plain case-insensitive substring tests over
    every passage; True if together they retrieve all of gold_ids."""
    lowered = [(p.id, p.text.lower()) for p in corpus]
    covered = set()
    for action in actions:
        assert action.tool in ("grep-or", "grep-and"), action
        needles = [surface.lower() for surface in action.term_surfaces]
        test = all if action.tool == "grep-and" else any
        covered.update(pid for pid, text in lowered if test(n in text for n in needles))
    return gold_ids <= covered


def test_replaying_a_trace_covers_its_gold_at_bench_scale(tagger, tmp_path):
    # bench/ goes on the import path only while its generator is imported.
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import synth
    finally:
        sys.path.remove(bench)
    synth.write_workload("offline", 3, tmp_path)
    corpus = read_corpus(tmp_path / "corpus.jsonl")
    # 1-, 2- and 3-action chains in turn; q0011, q0023, ... chain through
    # people the fillers also name.
    questions = load_questions(tmp_path / "questions.json", corpus)[:48]
    successes = 0
    for question in questions:
        trace = derive_trace(question.text, question.gold, corpus, tagger)
        if not trace.success:
            continue
        successes += 1
        assert trace.cost == len(trace.actions), question.question_id
        assert replay_covers(trace.actions, corpus, question.gold_passage_ids), \
            question.question_id
    assert successes >= len(questions) * 0.9
