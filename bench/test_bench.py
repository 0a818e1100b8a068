"""Tests of the benchmark's own machinery.

    python3 -m pytest -q bench/test_bench.py
"""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from memgrep import (  # noqa: E402
    RuleAnnotator,
    ScorerHandle,
    load_questions,
    read_corpus,
    run_question,
)

import synth  # noqa: E402
import report  # noqa: E402
from report import percentile  # noqa: E402
from tracing import Span, Tracer, TracingAnnotator, self_times  # noqa: E402
from workloads import run_digest  # noqa: E402

FIXTURE = ROOT / "src" / "memgrep" / "data" / "fixture"


def test_generator_checksum_depends_only_on_the_seed(tmp_path):
    first = synth.write_workload("offline", 7, tmp_path / "a")
    again = synth.write_workload("offline", 7, tmp_path / "b")
    other = synth.write_workload("offline", 8, tmp_path / "c")
    assert first["corpus_sha256"] == again["corpus_sha256"]
    assert (tmp_path / "a" / "questions.json").read_bytes() == \
        (tmp_path / "b" / "questions.json").read_bytes()
    assert first["corpus_sha256"] != other["corpus_sha256"]
    written = (tmp_path / "a" / "corpus.jsonl").read_bytes()
    assert hashlib.sha256(written).hexdigest() == first["corpus_sha256"]


def test_generator_asserts_the_defining_property():
    data = synth.generate("query-dense", 3)
    assert synth.check_properties("query-dense", data)["median_or_share"] > 0.5
    with pytest.raises(AssertionError, match="not under 1%"):
        synth.check_properties("query-sparse", data)


def test_offline_open_bridges_are_named_in_fillers():
    data = synth.generate("offline", 5)
    assert synth.check_properties("offline", data)["open_bridge_questions"] == 20
    first_names = set(synth.read_lexicon("first_names.txt"))
    all_gold = {pid for q in data["questions"] for pid in q["gold_passage_ids"]}
    words = {r["id"]: {w.strip(".") for w in r["text"].split()} for r in data["corpus"]}
    fillers = [ws for pid, ws in words.items() if pid not in all_gold]
    for q in data["questions"]:
        if q["hops"] != 3:
            assert not q["open_bridges"]
            continue
        asker = q["question"].rstrip("?").split()[-1]
        gold = q["gold_passage_ids"]
        bridges = {w for pid in gold for w in words[pid] if w in first_names} - {asker}
        # Reserved bridges are named only in planted chains, open ones in fillers too.
        in_fillers = any(b in ws for ws in fillers for b in bridges)
        assert in_fillers == q["open_bridges"], q["question_id"]


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    with pytest.raises(ValueError):
        percentile(values[:99], 90)
    with pytest.raises(ValueError):
        percentile([], 50)
    assert percentile(list(range(1000)), 99) == 989


def test_scaling_uses_the_probes_nearest_in_time(monkeypatch):
    monkeypatch.setattr(report, "PROBE_WINDOW", 3)
    # The reference runs at the nominal 1.2 ms until t=10, then half as fast.
    probes = [(float(t), 1.2 if t < 10 else 2.4) for t in range(20)]
    samples = [(t, "q", 10.0) for t in (0.5, 5.5, 9.2, 15.5, 30.0)]
    assert [v for _, v in report.scaled(samples, probes)] == [10.0, 10.0, 10.0, 5.0, 5.0]
    assert report.scaled([(3.0, "q", 6.0)], probes[:2]) == [("q", 6.0)]


def test_key_medians_count_each_question_once():
    samples = [("a", 1.0), ("b", 10.0), ("a", 3.0), ("a", 100.0), ("c", 4.0)]
    assert sorted(report.key_medians(samples)) == [3.0, 4.0, 10.0]


def _span(sid, parent, start, end):
    span = Span(sid, parent, 1, f"s{sid}")
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 5.0),   # overlaps the next child on [3, 5]
        _span(3, 1, 3.0, 7.0),
        _span(4, 1, 8.0, 9.0),
        _span(5, 3, 4.0, 6.0),   # a grandchild counts against its parent only
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0)
    assert selfs[3] == pytest.approx(4.0 - 2.0)
    assert selfs[2] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    selfs = self_times([_span(1, 0, 0.0, 4.0), _span(2, 1, 3.0, 6.0)])
    assert selfs[1] == pytest.approx(3.0)


def test_traced_run_matches_untraced_and_restores_the_package():
    corpus = read_corpus(FIXTURE / "corpus.jsonl")
    question = load_questions(FIXTURE / "questions.json", corpus)[1]
    scorers = [ScorerHandle(name="a", kind="lexical-test"),
               ScorerHandle(name="b", kind="lexical-test")]
    annotator = RuleAnnotator()
    evaluate = importlib.import_module("memgrep.evaluate")
    original = evaluate.retrieve
    plain = run_question(question.text, corpus, scorers, annotator=annotator)
    tracer = Tracer()
    with tracer.installed(), tracer.root("query"):
        traced = run_question(question.text, corpus, scorers,
                              annotator=TracingAnnotator(annotator, tracer))
    assert evaluate.retrieve is original
    assert run_digest(traced) == run_digest(plain)
    names = {span.name for span in tracer.spans}
    assert {"query", "retrieve", "retrieve.grep", "parse", "annotate", "rank",
            "rank.score", "rank.fuse", "truncate", "render"} <= names
    root = next(s for s in tracer.spans if s.parent == 0)
    # The two scorers run on pool threads; their spans still hang off rank.
    rank_sid = next(s.sid for s in tracer.spans if s.name == "rank")
    assert all(s.parent == rank_sid for s in tracer.spans if s.name == "rank.score")
    assert all(s.root == root.sid for s in tracer.spans)
