"""The benchmark's scorer host, bench/host.py, started as the query-dense
workload starts it: a child process that serves memgrep.rank's
LexicalDenseScorer on a unix socket and answers commands on its stdin."""

import json
import select
import subprocess
import sys
from pathlib import Path

from memgrep.corpus import load_questions, read_corpus
from memgrep.rank import ScorerHandle, score
from memgrep.retrieve import retrieve

from conftest import fixture_path

HOST = Path(__file__).resolve().parent.parent / "bench" / "host.py"


def readline(proc: subprocess.Popen, timeout: float = 30.0) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    assert ready, "host.py did not answer"
    return proc.stdout.readline().strip()


def test_rank_score_through_the_bench_host_equals_the_in_process_scorer(tmp_path,
                                                                         monkeypatch):
    # A relative socket path stays under the AF_UNIX length limit wherever
    # the test runs, as in the workload; parent and child share the cwd.
    monkeypatch.chdir(tmp_path)
    corpus = read_corpus(fixture_path("corpus.jsonl"))
    queries = [q.text for q in load_questions(fixture_path("questions.json"), corpus)]
    queries.append("the of and")  # no content terms: the in-process fallback
    served = ScorerHandle(name="cross", kind="pointwise-cross", endpoint="unix:cross.sock")
    with subprocess.Popen([sys.executable, str(HOST), "cross.sock"], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as proc:
        assert readline(proc) == "ready"
        items = 0
        for query in queries:
            candidates = retrieve(query, corpus)
            local = score(ScorerHandle(name="lexical"), query, candidates, corpus)
            assert score(served, query, candidates, corpus) == local
            items += len(candidates)
        proc.stdin.write("stats\n")
        proc.stdin.flush()
        stats = json.loads(readline(proc))
        assert (stats["dispatches"], stats["items"]) == (len(queries), items)
        out, _ = proc.communicate("quit\n", timeout=10)
    assert (proc.returncode, out) == (0, "")
