"""Pipeline outputs at benchmark scale, pinned by sha256.

The fixture's golden table runs on ten passages, where few passages match
more than one hop and scores rarely tie. Here the benchmark's generator
(bench/synth.py) builds the query-sparse corpus, whose two-hop bridge
questions lean on the entity hops, the query-dense corpus, where OR-grep
recalls nearly every passage, and the entity-rich offline corpus; every
candidate, score, fused entry and context of the first questions is
hashed, so a merge, ordering, tie-break or expansion change that only
shows at scale fails here. Query-sparse questions run as that workload
runs them: one in-process lexical scorer and the fixed cut.
The query-dense passages as read_corpus gives them are hashed too, and the
grow-and-query memory is grown one session at a time, as the benchmark
grows it, with each session's question asked on the grown corpus. The
query-dense corpus as read must also hold one object per distinct session
id and speaker.
After an intended output change, print the new digests with

    PYTHONPATH=src python tests/test_bench_scale.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from memgrep.annotate import RuleAnnotator
from memgrep.corpus import Corpus, Passage, load_questions, read_corpus
from memgrep.evaluate import run_question
from memgrep.oracle import SearchLimits, derive_trace, traces_to_jsonl
from memgrep.rank import ScorerHandle
from memgrep.truncate import TruncationConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"

SEED = 7
SPARSE_QUESTIONS = 60
DENSE_QUESTIONS = 40
# Every 12th offline question chains through people the fillers also name,
# the oracle's broadest searches: ten of them lie in the first 120.
ORACLE_QUESTIONS = 120
APPENDED_SESSIONS = 10
SCORERS = [ScorerHandle(name="lexical", kind="lexical-test"),
           ScorerHandle(name="late", kind="lexical-test")]

GOLDEN = {
    "query-sparse/fixed":
        "8890ea3f1aa4f8901945066855b91cf71a81fadb5ec65cd3a551a4819f0d3cea",
    "query-dense/fixed":
        "2ecdf3bd6aa0b91959b347e821beacbbef8189e6b8554435472cc9339096afb3",
    "query-dense/adaptive":
        "feddc5114a9f7ede79c46394b106720e1515b6c01d33a8ed5c4a8fc04a6d4394",
    "offline/fixed":
        "944ed5d1c4eabf85358993ff9827aaddcb8487aba945126ca8e563fdf67ff84b",
    "offline/oracle":
        "164ce51616c5688594287970351da29db4cff2a509d1286494eead16e58732c5",
    "query-dense/passages":
        "82e9e501e96782c64c4de1cecd7d0308857edad563a6b1b11d45703cd0fafa7c",
    "grow-and-query/appended":
        "61b2121adc7bd2e05135db2aea27b058af79837a79d5aa4d29aac7af23aec42b",
}


def _generate(name, out):
    """Write the workload's files to out; return its corpus as read."""
    # bench/ goes on the import path only while its generator is imported.
    sys.path.insert(0, str(BENCH))
    try:
        import synth
    finally:
        sys.path.remove(str(BENCH))
    synth.write_workload(name, SEED, out)
    return read_corpus(out / "corpus.jsonl")


def _workload(name, out):
    corpus = _generate(name, out)
    return corpus, load_questions(out / "questions.json", corpus)


def _appended_runs(out, annotator):
    """Each of the first APPENDED_SESSIONS grow-and-query sessions appended
    in turn through Corpus(prev.passages + session), and its question's run
    on the grown corpus. The questions' gold lies in the sessions, so their
    records are read as they stand."""
    corpus = _generate("grow-and-query", out)
    sessions: dict[str, list[Passage]] = {}
    for line in (out / "sessions.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        sessions.setdefault(rec["session_id"], []).append(Passage(**rec))
    records = json.loads((out / "questions.json").read_text(encoding="utf-8"))
    for (_, session), rec in zip(sorted(sessions.items()), records[:APPENDED_SESSIONS]):
        corpus = Corpus(corpus.passages + tuple(session), corpus.source_label)
        yield run_question(rec["question"], corpus, SCORERS[:1], annotator=annotator,
                           question_id=rec["question_id"])


def run_lines(run):
    """One line per candidate, cross score, fused entry and the context.
    Both scorers are the lexical scorer, so the primary scorer's scores,
    SCORERS[0]'s in every run, stand for both; the fused order depends on
    both rankings."""
    yield f"question {run.question_id}"
    for c in run.candidates.candidates:
        yield f"candidate {c.passage_id} {c.match_score!r} {c.hop}"
    yield f"hops {run.candidates.hops_executed} {run.candidates.warnings!r}"
    for pid, value in run.cross.items():
        yield f"score {SCORERS[0].name} {pid} {value!r}"
    for entry in run.ranked:
        yield f"fused {entry.passage_id} {entry.fused_score!r}"
    yield f"context {run.context!r}"
    yield f"rendered {run.rendered!r}"


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def compute(tmp: Path) -> dict[str, str]:
    annotator = RuleAnnotator()
    got = {}
    corpus, questions = _workload("query-sparse", tmp / "sparse")
    got["query-sparse/fixed"] = digest(
        line for q in questions[:SPARSE_QUESTIONS]
        for line in run_lines(run_question(
            q.text, corpus, SCORERS[:1], annotator=annotator,
            question_id=q.question_id)))
    corpus, questions = _workload("query-dense", tmp / "dense")
    # The passages as read, field by field.
    got["query-dense/passages"] = hashlib.sha256(
        repr(corpus.passages).encode("utf-8")).hexdigest()
    for strategy in ("fixed", "adaptive"):
        trunc = TruncationConfig(strategy=strategy)
        got[f"query-dense/{strategy}"] = digest(
            line for q in questions[:DENSE_QUESTIONS]
            for line in run_lines(run_question(
                q.text, corpus, SCORERS, trunc_cfg=trunc, annotator=annotator,
                question_id=q.question_id)))
    corpus, questions = _workload("offline", tmp / "offline")
    got["offline/fixed"] = digest(
        line for q in questions
        for line in run_lines(run_question(
            q.text, corpus, SCORERS[:1], annotator=annotator,
            question_id=q.question_id)))
    traces = [derive_trace(q.text, q.gold, corpus, annotator)
              for q in questions[:ORACLE_QUESTIONS]]
    got["offline/oracle"] = hashlib.sha256(
        traces_to_jsonl(traces, SearchLimits(), False).encode("utf-8")).hexdigest()
    got["grow-and-query/appended"] = digest(
        line for run in _appended_runs(tmp / "grow", annotator) for line in run_lines(run))
    return got


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute(tmp_path_factory.mktemp("bench-scale"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bench_scale_output_is_pinned(digests, name):
    assert digests[name] == GOLDEN[name], name


def test_the_read_bench_corpus_holds_one_object_per_distinct_value(tmp_path):
    corpus = _generate("query-dense", tmp_path)
    for name in ("session_id", "speaker"):
        values = [getattr(p, name) for p in corpus]
        assert len({id(v) for v in values}) == len(set(values)), name


if __name__ == "__main__":
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(compute(Path(tmp)), indent=4, sort_keys=True))
