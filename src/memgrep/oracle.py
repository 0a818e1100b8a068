"""Minimum-cost retrieval traces via shortest-path search over search actions.

For a question with known gold evidence passages, the oracle asks: what is
the shortest sequence of search actions that covers all of them? Nodes are
search states (gold covered so far, term surfaces discovered so far); edges
are unit-cost (tool, term-subset) actions. Unit cost makes Dijkstra's
algorithm collapse to breadth-first search, which is what runs, and makes a
trace's cost and hops both its action count. Term surfaces are kept
lowercased, as grep matches them; grep-or is retrieve's OR grep of the
action's terms, and grep-and keeps its hits that hold every term. The
semantic tool, retrieve's fallback over the run's scorers, is offered only
when some scorer is served: the lexical stand-in would trivialize traces.

The oracle sees gold passage ids only. Nothing in this module reads or
accepts answer text.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import Sequence

from .annotate import Annotator
from .corpus import Corpus, GoldAnnotation
from .errors import ScorerUnavailableError
from .parse import WeightedTerm, WeightedTermSet, parse_query
from .rank import ScorerHandle
from .retrieve import and_hits, candidate_order, grep_search, semantic_fallback
from .truncate import check_ints

TOOLS = ("grep-or", "grep-and", "semantic")
ENTITY_SOURCE_TOP = 10  # passages mined for new terms after each action
ACTION_SPACE_NOTE = "term subsets restricted to singletons and pairs"
_State = tuple[frozenset[str], frozenset[str]]  # (gold covered, terms discovered)


@dataclass(frozen=True)
class Action:
    tool: str
    term_surfaces: frozenset[str]  # empty for "semantic", else 1 or 2 terms


@dataclass(frozen=True)
class SearchLimits:
    max_states: int = 10_000
    max_edges: int = 100_000

    def __post_init__(self) -> None:
        check_ints(self, "max_states", "max_edges")
        if self.max_states < 1 or self.max_edges < 1:
            raise ValueError("search limits must be positive")


@dataclass(frozen=True)
class OracleTrace:
    question_id: str
    actions: tuple[Action, ...]
    success: bool
    reason: str | None = None

    @property
    def cost(self) -> int:
        """Actions are unit-cost, so cost and hops are both the length."""
        return len(self.actions)

    hops = cost


def derive_trace(
    question: str,
    gold: GoldAnnotation,
    corpus: Corpus,
    annotator: Annotator,
    scorers: Sequence[ScorerHandle] = (),
    limits: SearchLimits | None = None,
) -> OracleTrace:
    """Breadth-first search from (covered=empty, discovered=query terms).

    Each action greps (or semantically scores) the corpus, adds retrieved
    gold passages to `covered`, and adds entities from the top retrieved
    passages to `discovered`. The goal is full gold coverage. Failure inside
    the state/edge limits, or a semantic action whose served scorer is down
    ("scorer-unavailable"), is reported, not raised; the trace records why.
    """
    gold_ids = frozenset(gold.gold_passage_ids)
    if not gold_ids:
        raise ValueError("gold set must be non-empty")
    if limits is None:
        limits = SearchLimits()

    initial_terms = parse_query(question, annotator).surfaces_lower()

    def fail(reason: str) -> OracleTrace:
        return OracleTrace(question_id=gold.question_id, actions=(),
                           success=False, reason=reason)

    semantic = offers_semantic_tool(scorers)

    # Action results are state-independent, so execution is memoized on the
    # action identity alone.
    memo: dict[Action, tuple[frozenset[str], frozenset[str]]] = {}
    passages = corpus.passages

    def execute(action: Action) -> tuple[frozenset[str], frozenset[str]]:
        hit = memo.get(action)
        if hit is not None:
            return hit
        if action.tool == "semantic":
            order = list(semantic_fallback(question, corpus, scorers))
            ids = [passages[i].id for i in order]
            top = [passages[i] for i in order[:ENTITY_SOURCE_TOP]]
        else:
            term_set = WeightedTermSet(tuple(
                WeightedTerm(surface=low, weight=1.0, provenance="query")
                for low in sorted(action.term_surfaces)))
            hits = grep_search(corpus, term_set)
            if action.tool == "grep-and":
                hits = and_hits(hits, term_set)
            ids = [passages[i].id for i in hits]
            top = [passages[i] for i in candidate_order(corpus, hits, ENTITY_SOURCE_TOP)]
        covered_gain = frozenset(ids) & gold_ids
        found_terms = frozenset(mention.lower() for passage in top
                                for mention in annotator.extract_entities(passage.text))
        outcome = (covered_gain, found_terms)
        memo[action] = outcome
        return outcome

    def action_space(discovered: frozenset[str]) -> list[Action]:
        """A state's actions in the order the search tries them, which picks
        the first trace found: for each surface a in sorted order, grep-or
        {a}, then grep-or {a, b} for each later b; then each grep-and {a, b}
        in the same pair order; semantic last, when offered."""
        surfaces = sorted(discovered)
        grep_or, grep_and = [], []
        for i, a in enumerate(surfaces):
            grep_or.append(Action(tool="grep-or", term_surfaces=frozenset((a,))))
            for b in surfaces[i + 1:]:
                grep_or.append(Action(tool="grep-or", term_surfaces=frozenset((a, b))))
                grep_and.append(Action(tool="grep-and", term_surfaces=frozenset((a, b))))
        last = [Action(tool="semantic", term_surfaces=frozenset())] if semantic else []
        return grep_or + grep_and + last

    # Each reached state -> (the state it was reached from, the action taken),
    # None for the start: both the visited set and the back-pointers.
    start = (frozenset(), initial_terms)
    came_from: dict[_State, tuple[_State, Action] | None] = {start: None}
    queue = deque([start])
    expanded = 0
    edges = 0

    while queue:
        state = queue.popleft()
        expanded += 1
        if expanded > limits.max_states:
            return fail("search-budget-exhausted")
        covered, discovered = state
        for action in action_space(discovered):
            edges += 1
            if edges > limits.max_edges:
                return fail("search-budget-exhausted")
            try:
                covered_gain, found_terms = execute(action)
            except ScorerUnavailableError:
                return fail("scorer-unavailable")
            next_state = (covered | covered_gain, discovered | found_terms)
            if next_state in came_from:
                continue
            came_from[next_state] = (state, action)
            if next_state[0] == gold_ids:
                path, node = [], next_state
                while (step := came_from[node]) is not None:
                    node, taken = step
                    path.append(taken)
                return OracleTrace(question_id=gold.question_id,
                                   actions=tuple(reversed(path)), success=True)
            queue.append(next_state)
    return fail("no-path")


def offers_semantic_tool(scorers: Sequence[ScorerHandle]) -> bool:
    """Whether derive_trace offers the semantic tool (see the module docstring)."""
    return any(s.endpoint for s in scorers)


# --- aggregation ---

def trace_stats(traces: list[OracleTrace]) -> dict:
    """Hop distribution, tool attribution, and success rate over traces.

    Each trace counts once: a successful one by its cost and by the most
    powerful tool it used (semantic > grep-and > grep-or, the order of
    TOOLS), a failed one by its reason. Distributions are fractions of
    successful traces; an empty input yields an all-zero record.
    """
    successes = [t for t in traces if t.success]
    n = len(successes)
    hops = Counter(t.cost for t in successes)
    tools = Counter(max((a.tool for a in t.actions), key=TOOLS.index) for t in successes)
    return {
        "total": len(traces),
        "successes": n,
        "success_rate": (n / len(traces)) if traces else 0.0,
        "hop_distribution": {h: count / n for h, count in sorted(hops.items())},
        "tool_distribution": {tool: count / n for tool, count in sorted(tools.items())},
        "failure_reasons": dict(Counter(t.reason for t in traces if not t.success)),
    }


# --- trace artifacts ---

def traces_to_jsonl(
    traces: list[OracleTrace],
    limits: SearchLimits,
    semantic_enabled: bool,
) -> str:
    """Header record first (limits and action-space restriction), then one
    trace per line; stable key order throughout."""
    header = {
        "record": "header",
        "max_states": limits.max_states,
        "max_edges": limits.max_edges,
        "action_space": ACTION_SPACE_NOTE,
        "semantic_enabled": semantic_enabled,
    }
    lines = [json.dumps(header, sort_keys=True, ensure_ascii=False)]
    for trace in traces:
        lines.append(json.dumps({
            "record": "trace",
            "question_id": trace.question_id,
            "actions": [
                {"tool": a.tool, "terms": sorted(a.term_surfaces)}
                for a in trace.actions
            ],
            "cost": trace.cost,
            "hops": trace.hops,
            "success": trace.success,
            "reason": trace.reason,
        }, sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"
