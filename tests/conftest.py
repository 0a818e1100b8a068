"""Shared fixtures and the acceptance summary hook."""

import json
import re
from importlib import resources
from pathlib import Path

import pytest

from memgrep.corpus import Corpus, Passage
from memgrep.rank import RRF_K, fusion_weights, order_by_score, rrf_fuse, score
from memgrep.retrieve import (Candidate, CandidateSet, and_hits, candidate_order,
                              grep_search, query_id_for)


def fixture_path(name: str) -> Path:
    return Path(resources.files("memgrep").joinpath("data", "fixture", name))


@pytest.fixture
def fixture_corpus_path() -> Path:
    return fixture_path("corpus.jsonl")


@pytest.fixture
def fixture_questions_path() -> Path:
    return fixture_path("questions.json")


# A canonical corpus whose turn s:1 is blank, which read_corpus accepts. No
# term of BLANK_TURN_QUESTION reaches its gold turn s:2, so only the oracle's
# semantic action covers it, and that action mines the blank turn too.
BLANK_TURN_CORPUS = "".join(
    json.dumps({"id": f"s:{i}", "session_id": "s", "turn_index": i, "speaker": "A",
                "text": text, "timestamp": None}) + "\n"
    for i, text in enumerate(["Marisol baked bread.", "", "We climbed the ridge at dawn."]))
BLANK_TURN_QUESTION = "Where did Marisol go hiking?"


def make_corpus(texts, session_id="s", speaker="A"):
    """Corpus of plain texts; ids are s:0, s:1, ..."""
    passages = tuple(
        Passage(
            id=f"{session_id}:{i}",
            session_id=session_id,
            turn_index=i,
            speaker=speaker,
            text=text,
        )
        for i, text in enumerate(texts)
    )
    return Corpus(passages=passages)


def grep_candidates(corpus, terms, mode="OR"):
    """One grep's hits as hop-0 candidates in candidate order, as retrieve
    builds them from a single hop. Each hit's match score is its query-term
    sum."""
    scores = grep_search(corpus, terms)
    if mode == "AND":
        scores = and_hits(scores, terms)
    order = candidate_order(corpus, scores)
    candidates = tuple(Candidate(corpus.passages[i].id, scores[i], 0) for i in order)
    return CandidateSet(candidates, query_id_for("q"), hops_executed=1,
                        term_sums=tuple(scores[i] for i in order), terms=terms.terms)


def sequential_rank(candidates, query, corpus, scorers):
    """rank() at its fixed split, rebuilt from its parts: each scorer
    scores in turn on the calling thread, then the orders are fused."""
    maps = [score(s, query, candidates, corpus) for s in scorers]
    orders = [(w, order_by_score(m)) for w, m in zip(fusion_weights(scorers), maps)]
    return rrf_fuse(orders, RRF_K), maps


@pytest.fixture
def tiny_corpus():
    return make_corpus([
        "Melanie went hiking with Javier near Mount Rainier.",
        "Caroline baked sourdough for the farmers market.",
        "The weather was cold but the sunrise was worth it.",
    ])


# One line per acceptance criterion at the end of a run that touched them.
_CRITERION_TITLES = {
    1: "containment recall",
    2: "RRF brute-force equivalence",
    3: "RRF spot values",
    4: "truncation properties",
    5: "oracle optimality",
    6: "artifact determinism",
    7: "concurrency equivalence",
    8: "simulator/live agreement",
    9: "multi-hop expansion",
    10: "budget sweep trend (gated)",
    11: "ranking effect direction (gated)",
}

_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" and report.outcome != "skipped":
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.outcome == "passed":
        # A criterion may be split over several tests; any failure sticks.
        _results.setdefault(num, "PASS")
    elif report.outcome == "skipped":
        _results.setdefault(num, "SKIP")
    else:
        _results[num] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        title = _CRITERION_TITLES.get(num, "")
        terminalreporter.write_line(f"criterion {num:>2} ({title}): {_results[num]}")
