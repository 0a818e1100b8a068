"""The four closed-loop workloads and the checks on their outputs.

One client drives memgrep's public API: it asks, waits for the context,
then asks again. Each operation (a question, an append, an oracle trace,
a matrix round trip, a sweep) counts as attempted, and as failed when it
raises or one of its output checks does not hold.

With tracing on, every timed operation runs twice, first untraced and
then traced under the same inputs; the traced run must produce the same
candidate and context ids (or the same oracle trace), and the pair of
wall times gives the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

from memgrep import (
    Corpus,
    Passage,
    Question,
    RuleAnnotator,
    ScorerHandle,
    TruncationConfig,
    budget_recall,
    build_matrix,
    derive_trace,
    load_questions,
    read_corpus,
    read_matrix,
    run_question,
    simulate_question,
    simulate_truncation,
    write_matrix,
)
from memgrep.truncate import estimate_tokens

from tracing import Tracer, TracingAnnotator

BENCH_DIR = Path(__file__).resolve().parent
SETUP_FIRST = 3          # set-ups before the loop; then one every SETUP_GAP set-up times
SETUP_GAP = 10
GROW_CYCLE = 50          # appends before the memory starts again from the base corpus
MIN_TRACED = 10          # traced runs report no percentiles
PROBE_EVERY_S = 0.25     # loop time between speed probes (Reference)
HARD_STOP_S = 150.0      # stop looping even if the sample minimum is not met
SWEEP_BUDGETS = [500, 1000, 2000, 3000, 4000]
SWEEP_ALPHAS = [0.0, 0.01, 0.03, 0.05, 0.1]
SWEEP_REPEATS = 5
LEXICAL = ScorerHandle(name="lexical", kind="lexical-test")
FIXED = TruncationConfig()
ADAPTIVE = TruncationConfig(strategy="adaptive")


@dataclass
class Outcome:
    """Raw measurements of one run; report.py turns them into metrics."""

    setup_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)
    step_ms: list[float] = field(default_factory=list)
    # CPU times as (perf_counter() when taken, key, value), for report.scaled();
    # the key names the question (and strategy) a time belongs to
    setup_cpu_s: list[tuple[float, str, float]] = field(default_factory=list)
    query_cpu_ms: list[tuple[float, str, float]] = field(default_factory=list)
    step_cpu_ms: list[tuple[float, str, float]] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)  # Reference.probes
    append_ms: list[float] = field(default_factory=list)
    recalls: list[float] = field(default_factory=list)
    hop0_share: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    pairs: list[tuple[float, float]] = field(default_factory=list)
    oracle: list[tuple[int, bool, float]] = field(default_factory=list)  # cost, success, s
    service: dict = field(default_factory=lambda: {"dispatches": 0, "score_s": 0.0})
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_digest(run) -> str:
    ids = "|".join(run.candidates.ids()) + "#" + "|".join(run.context.passage_ids)
    return hashlib.sha256(ids.encode("utf-8")).hexdigest()


def context_errors(run, corpus: Corpus, budget: int) -> list[str]:
    """Output checks every live context must pass."""
    errors = []
    words = sum(len(corpus.get(pid).text.split()) for pid in run.context.passage_ids)
    if words != run.context.word_count or words > budget:
        errors.append(f"context holds {words} words (reported {run.context.word_count}, "
                      f"budget {budget})")
    if run.context.estimated_tokens != estimate_tokens(run.rendered):
        errors.append(f"estimated_tokens {run.context.estimated_tokens} != "
                      f"estimate_tokens(rendered) {estimate_tokens(run.rendered)}")
    return errors


def replay_covers(actions, lowered: list[tuple[str, str]], gold: frozenset[str]) -> bool:
    """Re-run grep actions with plain substring tests; True if they cover gold."""
    covered: set[str] = set()
    for action in actions:
        if action.tool not in ("grep-or", "grep-and"):
            return False
        needles = list(action.term_surfaces)
        test = all if action.tool == "grep-and" else any
        covered.update(pid for pid, text in lowered if test(n in text for n in needles))
    return gold <= covered


class Child:
    """A bench/ script run as a child process that answers one line per
    command line on its stdin; it prints ``ready`` once it can."""

    def __init__(self, script: str, *args: str) -> None:
        self.name = script
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._readline(30.0) != "ready":
            self.close()
            raise RuntimeError(f"{script} did not start")

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self._proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError(f"{self.name} did not answer")
        return self._proc.stdout.readline().strip()

    def ask(self, command: str):
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()
        return json.loads(self._readline(10.0))

    def close(self) -> None:
        try:
            self._proc.stdin.write("quit\n")
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class ScorerHost(Child):
    """Serves the cross scorer on a unix socket (bench/host.py)."""

    def __init__(self, sock_dir: str) -> None:
        # A relative path keeps the socket under the 107-byte AF_UNIX limit
        # wherever the checkout lives; parent and child share the cwd.
        path = os.path.relpath(os.path.join(sock_dir, "cross.sock"))
        if len(path.encode()) > 100:
            raise RuntimeError(f"socket path too long: {path}")
        self.endpoint = f"unix:{path}"
        super().__init__("host.py", path)

    def stats(self) -> dict:
        return self.ask("stats")

    def cpu_s(self) -> float:
        return self.stats()["cpu_s"]


class Reference(Child):
    """The speed reference (bench/reference.py), probed before a loop step
    once PROBE_EVERY_S has passed since the last probe.

    Probed before every step, it slowed less than memgrep when the machine
    got busy, likely because its data stayed in cache; with a quarter second
    of memgrep's work between probes it slowed about as much as memgrep.
    Each probe is kept as (perf_counter() at the probe, k), where k is the
    geometric mean of the two kernels' times in ms; report.scaled() scales
    the run's CPU times by the probes taken near them.
    """

    def __init__(self) -> None:
        super().__init__("reference.py")
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        scan, lower = self.ask("probe")
        self.probes.append((perf_counter(), math.sqrt(scan * lower) * 1000))


class Client:
    def __init__(self, workload: str, data_dir: Path, tmp_dir: Path, seconds: float,
                 trace: bool) -> None:
        self.data_dir = data_dir
        self.tmp_dir = tmp_dir
        self.seconds = seconds
        self.out = Outcome()
        self.tracer = Tracer() if trace else None
        self.corpus: Corpus | None = None
        self.questions: list[Question] = []
        self.annotator: RuleAnnotator | None = None
        self.traced_annotator: TracingAnnotator | None = None
        self.grown: Corpus | None = None   # grow-and-query's memory
        self.next_setup = 0.0
        self.next_probe = 0.0
        self.host: ScorerHost | None = None
        self.reference: Reference | None = None
        self.records: dict = {}   # question id -> score matrix record (offline)

    # --- bookkeeping ---

    def attempt(self, what: str, op: Callable[[], list[str]]) -> None:
        """Run one operation; an exception or a failed check marks it failed."""
        self.out.attempted += 1
        try:
            errors = op()
        except Exception:  # the loop must go on; the failure is reported
            errors = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if errors:
            self.out.failures.append(f"{what}: {'; '.join(errors)}")

    def traced(self, kind: str, fn: Callable):
        """Run fn under a root span with the wrappers installed."""
        before = self.host.stats() if self.host else None
        with self.tracer.installed(), self.tracer.root(kind) as span:
            result = fn(self.traced_annotator)
        if before is not None:
            after = self.host.stats()
            for key in ("dispatches", "score_s"):
                self.out.service[key] += after[key] - before[key]
        return result, span.duration

    def done(self, started: float, count: int) -> bool:
        """True once the loop has run for the run's seconds and asked every
        question at least once: percentiles are taken over the questions, so
        every run weighs the whole question set alike however fast it goes."""
        if perf_counter() >= self.next_probe:
            self.reference.probe()
            self.next_probe = perf_counter() + PROBE_EVERY_S
        minimum = MIN_TRACED if self.tracer is not None else len(self.questions)
        elapsed = perf_counter() - started
        return elapsed >= HARD_STOP_S or (elapsed >= self.seconds and count >= minimum)

    def cpu_before(self) -> float:
        """CPU seconds used so far by the client and the scorer host; read
        the host first, so the exchange with it is not counted."""
        host = self.host.cpu_s() if self.host else 0.0
        return process_time() + host

    def cpu_after(self) -> float:
        client = process_time()
        return client + (self.host.cpu_s() if self.host else 0.0)

    # --- set-up ---

    def setup(self) -> None:
        """Set up SETUP_FIRST times before the loop. The loops call
        maybe_setup() to set up again while they run, once the loop has run
        SETUP_GAP times as long as the last set-up took, so set-ups take about
        a tenth of every run: one set-up of a small corpus takes tens of ms,
        so set-ups taken in one burst all see the machine's load of that
        moment, and their median ranged over a factor of two from run to run."""
        for _ in range(SETUP_FIRST):
            self.setup_once()
        self.out.info.update(passages=len(self.corpus), checksum=self.corpus.checksum,
                             bytes=(self.data_dir / "corpus.jsonl").stat().st_size)

    def maybe_setup(self) -> None:
        if perf_counter() >= self.next_setup:
            self.setup_once()

    def setup_once(self) -> None:
        """Load the generated files and build the annotator, replacing the
        client's previous ones."""
        # Drop the previous set-up's objects first, so one copy is held at a
        # time and their collection does not land in the timed part.
        self.corpus = self.questions = self.annotator = self.grown = None
        gc.collect()
        cpu = process_time()
        start = perf_counter()
        corpus = read_corpus(self.data_dir / "corpus.jsonl")
        loaded = perf_counter()
        questions = self.load_questions(corpus)
        annotator = RuleAnnotator()
        self.out.setup_s.append(perf_counter() - start)
        self.out.setup_cpu_s.append((perf_counter(), "setup", process_time() - cpu))
        self.out.load_s.append(loaded - start)
        self.corpus, self.questions, self.annotator = corpus, questions, annotator
        if self.tracer is not None:
            self.traced_annotator = TracingAnnotator(annotator, self.tracer)
        self.next_setup = perf_counter() + SETUP_GAP * (perf_counter() - start)

    def start_host(self) -> None:
        """Start the scorer host once, outside the timed set-ups: its cost is
        a Python interpreter's start, not memgrep's, and is printed on its own."""
        start = perf_counter()
        self.host = ScorerHost(tempfile.mkdtemp(prefix="host-", dir=self.tmp_dir))
        self.out.info["host_start_s"] = perf_counter() - start

    def load_questions(self, corpus: Corpus) -> list[Question]:
        return load_questions(self.data_dir / "questions.json", corpus)

    # --- one question ---

    def ask(self, question: Question, corpus: Corpus, scorers: list[ScorerHandle],
            trunc: TruncationConfig, on_run: Callable | None = None) -> tuple[float, float]:
        """Ask one question; returns its untraced wall and CPU seconds."""
        latency = cpu = 0.0

        def call(annotator):
            return run_question(question.text, corpus, scorers, trunc_cfg=trunc,
                                annotator=annotator, question_id=question.question_id)

        def op() -> list[str]:
            nonlocal latency, cpu
            cpu_start = self.cpu_before()
            start = perf_counter()
            run = call(self.annotator)
            latency = perf_counter() - start
            cpu = self.cpu_after() - cpu_start
            self.out.query_ms.append(latency * 1000)
            self.out.query_cpu_ms.append(
                (perf_counter(), f"{question.question_id}/{trunc.strategy}", cpu * 1000))
            errors = context_errors(run, corpus, trunc.word_budget)
            recall = budget_recall(run.context, question.gold)
            if recall is not None:
                self.out.recalls.append(recall)
            self.out.hop0_share.append(
                sum(1 for c in run.candidates.candidates if c.hop == 0) / len(corpus))
            if on_run is not None:
                errors += on_run(run)
            if self.tracer is not None:
                traced_run, traced_s = self.traced("query", call)
                self.out.pairs.append((latency, traced_s))
                if run_digest(traced_run) != run_digest(run):
                    errors.append("traced run returned other candidate or context ids")
            return errors

        self.attempt(f"query {question.question_id}", op)
        return latency, cpu

    # --- workloads ---

    def query_loop(self, dense: bool) -> None:
        self.setup()
        if dense:
            self.start_host()
            scorers = [ScorerHandle(name="cross", kind="pointwise-cross",
                                    transport="service-adapter", endpoint=self.host.endpoint),
                       LEXICAL]
            trunc = ADAPTIVE
        else:
            scorers, trunc = [LEXICAL], FIXED
        started = perf_counter()
        i = 0
        while not self.done(started, i):
            self.maybe_setup()
            question = self.questions[i % len(self.questions)]
            latency, cpu = self.ask(question, self.corpus, scorers, trunc)
            self.out.step_ms.append(latency * 1000)
            self.out.step_cpu_ms.append((perf_counter(), question.question_id, cpu * 1000))
            i += 1

    def grow_and_query(self) -> None:
        self.setup()
        sessions = self._sessions()
        started = perf_counter()
        i = 0
        while not self.done(started, i):
            k = i % len(sessions)
            if k % GROW_CYCLE == 0:
                # Set up again only here, so every cycle grows from the base.
                self.maybe_setup()
                self.grown = self.corpus
            question = self.questions[k]
            elapsed = elapsed_cpu = 0.0

            def append() -> list[str]:
                nonlocal elapsed, elapsed_cpu
                cpu = process_time()
                start = perf_counter()
                grown = Corpus(passages=self.grown.passages + sessions[k],
                               source_label=self.corpus.source_label)
                elapsed = perf_counter() - start
                elapsed_cpu = process_time() - cpu
                self.out.append_ms.append(elapsed * 1000)
                missing = [pid for pid in question.gold_passage_ids if pid not in grown]
                if len(grown) != len(self.grown) + len(sessions[k]) or missing:
                    return [f"appended corpus lacks {missing or 'passages'}"]
                self.grown = grown
                return []

            self.attempt(f"append session {k}", append)
            latency, cpu = self.ask(question, self.grown, [LEXICAL], FIXED)
            self.out.step_ms.append((elapsed + latency) * 1000)
            self.out.step_cpu_ms.append(
                (perf_counter(), question.question_id, (elapsed_cpu + cpu) * 1000))
            i += 1

    def _sessions(self) -> list[tuple[Passage, ...]]:
        sessions: dict[str, list[Passage]] = {}
        for line in (self.data_dir / "sessions.jsonl").read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            sessions.setdefault(rec["session_id"], []).append(Passage(
                id=rec["id"], session_id=rec["session_id"], turn_index=rec["turn_index"],
                speaker=rec["speaker"], text=rec["text"], timestamp=rec["timestamp"]))
        return [tuple(turns) for _, turns in sorted(sessions.items())]

    def offline(self) -> None:
        """Freeze a score matrix, then take each question through its offline
        pass: oracle trace, live fixed and adaptive runs, simulator replay."""
        self.setup()
        self.attempt("matrix", lambda: self._matrix(self.corpus, self.questions))
        lowered = [(p.id, p.text.lower()) for p in self.corpus]
        started = perf_counter()
        i = 0
        while not self.done(started, i):
            self.maybe_setup()
            question = self.questions[i % len(self.questions)]
            # The oracle is timed on its own (oracle_* figures): its cost per
            # question ranges over two orders of magnitude, so it would make
            # the loop's rate depend on which searches a run happens to hit.
            self._oracle(question, self.corpus, lowered)
            elapsed = elapsed_cpu = 0.0
            for trunc, strategy in ((FIXED, "fixed"), (ADAPTIVE, "adaptive")):
                def agrees(run, trunc=trunc, strategy=strategy) -> list[str]:
                    rec = self.records.get(question.question_id)
                    if rec is None:
                        return ["no matrix record"]
                    alpha = trunc.alpha if strategy == "adaptive" else None
                    simulated, _ = simulate_question(rec, strategy, trunc.word_budget, alpha,
                                                     trunc.top_k)
                    if simulated != run.context.passage_ids:
                        return [f"simulated {strategy} context differs from the live one"]
                    return []

                latency, cpu = self.ask(question, self.corpus, [LEXICAL], trunc, on_run=agrees)
                elapsed += latency
                elapsed_cpu += cpu
            self.out.step_ms.append(elapsed * 1000)
            self.out.step_cpu_ms.append((perf_counter(), question.question_id,
                                         elapsed_cpu * 1000))
            i += 1

    def _matrix(self, corpus: Corpus, questions: list[Question]) -> list[str]:
        """Build, write and re-read the score matrix, then sweep it."""
        info = self.out.info
        start = perf_counter()
        matrix = build_matrix(questions, corpus, [LEXICAL], annotator=self.annotator)
        info["build_matrix_s"] = perf_counter() - start
        path = self.tmp_dir / "matrix.jsonl"
        start = perf_counter()
        write_matrix(matrix, path)
        info["matrix_write_s"] = perf_counter() - start
        info["matrix_bytes"] = path.stat().st_size
        start = perf_counter()
        reread = read_matrix(path, corpus)
        info["matrix_read_s"] = perf_counter() - start
        self.records = {rec.question_id: rec for rec in reread.records}
        errors = [] if reread == matrix else ["matrix read back differs from the one written"]
        times = []
        for _ in range(SWEEP_REPEATS):
            start = perf_counter()
            cells = simulate_truncation(matrix, SWEEP_BUDGETS, SWEEP_ALPHAS)
            times.append(perf_counter() - start)
        info["sweep_cells"] = len(cells)
        info["sweep_s"] = statistics.median(times)
        if len(cells) != len(SWEEP_BUDGETS) + len(SWEEP_ALPHAS):
            errors.append(f"sweep returned {len(cells)} cells")
        return errors

    def _oracle(self, question: Question, corpus: Corpus, lowered: list) -> float:
        """Derive one oracle trace and check it; returns its untraced seconds."""
        elapsed = 0.0

        def call(annotator):
            return derive_trace(question.text, question.gold, corpus, annotator)

        def op() -> list[str]:
            nonlocal elapsed
            start = perf_counter()
            trace = call(self.annotator)
            elapsed = perf_counter() - start
            self.out.oracle.append((trace.cost, trace.success, elapsed))
            errors = []
            if trace.success and trace.cost != len(trace.actions):
                errors.append(f"cost {trace.cost} != {len(trace.actions)} actions")
            if trace.success and not replay_covers(trace.actions, lowered,
                                                   question.gold_passage_ids):
                errors.append("replaying the trace does not cover the gold")
            if self.tracer is not None:
                traced_trace, traced_s = self.traced("oracle", call)
                self.out.pairs.append((elapsed, traced_s))
                if traced_trace != trace:
                    errors.append("traced oracle returned another trace")
            return errors

        self.attempt(f"oracle {question.question_id}", op)
        return elapsed


class GrowClient(Client):
    def load_questions(self, corpus: Corpus) -> list[Question]:
        # Gold lives in sessions appended later, so it is checked per append.
        records = json.loads((self.data_dir / "questions.json").read_text(encoding="utf-8"))
        return [Question(question_id=r["question_id"], text=r["question"],
                         gold_passage_ids=frozenset(r["gold_passage_ids"])) for r in records]


def run_workload(workload: str, data_dir: Path, tmp_dir: Path, seconds: float,
                 trace: bool) -> tuple[Outcome, Tracer | None]:
    client = (GrowClient if workload == "grow-and-query" else Client)(
        workload, data_dir, tmp_dir, seconds, trace)
    try:
        client.reference = Reference()
        if workload == "query-sparse":
            client.query_loop(dense=False)
        elif workload == "query-dense":
            client.query_loop(dense=True)
        elif workload == "grow-and-query":
            client.grow_and_query()
        else:
            client.offline()
    finally:
        for child in (client.host, client.reference):
            if child is not None:
                child.close()
    client.out.probes = client.reference.probes
    return client.out, client.tracer
