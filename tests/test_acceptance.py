"""Acceptance gate: one test family per release criterion.

Each test is named test_criterion_N so the summary hook in conftest can
print a per-criterion verdict line at the end of the run. Criteria 10 and
11 need external data and a real scorer service; they skip unless the
MEMGREP_GATED_* environment variables point at them.
"""

import filecmp
import os
import random
import time
import zlib
from itertools import combinations
from pathlib import Path

import pytest

from memgrep.annotate import RuleAnnotator
from memgrep.cli import main
from memgrep.corpus import Corpus, GoldAnnotation, Passage, Question, load_questions, read_corpus
from memgrep.evaluate import (
    build_matrix,
    ranking_effect,
    run_question,
    simulate_question,
    simulate_truncation,
)
from memgrep.oracle import derive_trace
from memgrep.parse import parse_query
from memgrep.rank import (
    RRF_K,
    ScorerHandle,
    rank,
    rrf_fuse,
)
from memgrep.retrieve import Candidate, CandidateSet, RetrieveConfig, grep_search, retrieve
from memgrep.service import ReferenceServer
from memgrep.truncate import RankedStats, TruncationConfig, truncate_adaptive, truncate_fixed

from conftest import fixture_path, make_corpus, sequential_rank

NAMES = ("Marisol", "Quenby", "Dorian", "Ilsa", "Tobias", "Petra")
VERBS = ("went", "go", "baked", "build", "drove", "started")
NOUNS = ("hiking", "sourdough", "robots", "festival", "summit",
         "job", "market", "team")
FILLERS = ("cabin", "lake", "garden", "meadow", "harbor", "stove",
           "lantern", "dusk", "quiet", "evening")


def _question(rng):
    name = rng.choice(NAMES)
    verb = rng.choice(VERBS)
    noun = rng.choice(NOUNS)
    return f"Where did {name} {verb} the {noun}?", (name, verb, noun)


# --- criterion 1: every substring match survives into retrieve output ---

def test_criterion_1_containment_recall():
    annotator = RuleAnnotator()
    started = time.monotonic()
    for seed in range(200):
        rng = random.Random(1000 + seed)
        question, planted = _question(rng)
        texts = []
        for _ in range(rng.randint(5, 50)):
            words = rng.choices(FILLERS + NOUNS + VERBS, k=rng.randint(5, 12))
            if rng.random() < 0.5:
                words[rng.randrange(len(words))] = rng.choice(planted)
            texts.append(" ".join(words) + ".")
        corpus = make_corpus(texts)
        terms = parse_query(question, annotator)
        expected = {
            p.id for p in corpus
            if any(t.surface.lower() in p.text.lower() for t in terms.terms)
        }
        result = retrieve(question, corpus, annotator=annotator)
        missing = expected - set(result.ids())
        assert not missing, f"seed {seed}: dropped {sorted(missing)}"
    assert time.monotonic() - started < 5.0


# --- criterion 2: fusion agrees with the formula, evaluated independently ---

def test_criterion_2_rrf_matches_brute_force():
    rng = random.Random(2218)
    pool = [f"d{i:02d}" for i in range(20)]
    for _ in range(1000):
        n = rng.randint(1, 20)
        ids = rng.sample(pool, n)
        first = rng.sample(ids, rng.randint(1, n))
        second = rng.sample(ids, rng.randint(1, n))
        k = rng.uniform(1.0, 100.0)
        weights = {"a": rng.uniform(0.05, 2.0), "b": rng.uniform(0.05, 2.0)}
        ranked = rrf_fuse([(weights["a"], first), (weights["b"], second)], k)

        expected = {}
        for pid in set(first) | set(second):
            total = 0.0
            if pid in first:
                total += weights["a"] / (k + first.index(pid) + 1)
            if pid in second:
                total += weights["b"] / (k + second.index(pid) + 1)
            expected[pid] = total
        order = sorted(expected, key=lambda pid: (-expected[pid], pid))
        assert [e.passage_id for e in ranked] == order
        for entry in ranked:
            assert abs(entry.fused_score - expected[entry.passage_id]) <= 1e-12


# --- criterion 3: spot values under default weights ---

def test_criterion_3_rrf_spot_values():
    both = rrf_fuse([(0.7, ["p"]), (0.3, ["p"])], RRF_K)
    assert both[0].fused_score == pytest.approx(1 / 61, abs=1e-15)
    assert both[0].fused_score == 0.7 / 61 + 0.3 / 61

    single = rrf_fuse([(0.7, ["p"])], RRF_K)
    assert single[0].fused_score == 0.7 / 61


# --- criterion 4: truncation properties ---
#
# Instances keep cross scores non-increasing along the fused order (the
# regime the adaptive strategy assumes: the threshold then prunes a suffix,
# which makes alpha-monotonicity provable). Budget monotonicity uses
# uniform-length passages; with mixed lengths, skip-and-continue can trade
# a short tail passage for a longer mid-rank one as the budget grows.

ALPHA_GRID = (0.0, 0.01, 0.03, 0.05, 0.1)


def _ranked_instance(word_counts):
    """The stats of passages of the given word counts, ranked in corpus
    order, as a live run hands them to the cut; and their ids."""
    texts = [" ".join(["word"] * count) + "." for count in word_counts]
    corpus = make_corpus(texts)
    pids = [p.id for p in corpus]
    return RankedStats(pids, corpus), pids


def test_criterion_4_alpha_monotonicity():
    for seed in range(100):
        rng = random.Random(4100 + seed)
        n = rng.randint(1, 30)
        stats, pids = _ranked_instance([rng.randint(1, 40) for _ in range(n)])
        values = sorted((rng.uniform(0.1, 10.0) for _ in range(n)),
                        reverse=True)
        cross = dict(zip(pids, values))
        budget = rng.randint(5, 600)
        top_k = rng.randint(1, n)
        previous = None
        for alpha in ALPHA_GRID:
            cfg = TruncationConfig(strategy="adaptive", word_budget=budget,
                                   alpha=alpha, top_k=top_k)
            kept = set(truncate_adaptive(stats, cross, cfg).passage_ids)
            if previous is not None:
                assert kept <= previous, f"seed {seed} alpha {alpha}"
            previous = kept


def test_criterion_4_budget_monotonicity():
    for seed in range(100):
        rng = random.Random(4200 + seed)
        n = rng.randint(1, 30)
        width = rng.randint(1, 30)
        stats, pids = _ranked_instance([width] * n)
        gold = set(rng.sample(pids, rng.randint(1, n)))
        previous_ids: set = set()
        previous_covered = -1
        for budget in sorted(rng.sample(range(1, 901), 4)):
            ids = set(truncate_fixed(stats, budget).passage_ids)
            covered = len(ids & gold)
            assert previous_ids <= ids, f"seed {seed} budget {budget}"
            assert covered >= previous_covered
            previous_ids, previous_covered = ids, covered


def test_criterion_4_alpha_zero_equals_fixed_on_prefix():
    for seed in range(100):
        rng = random.Random(4300 + seed)
        n = rng.randint(1, 30)
        stats, pids = _ranked_instance([rng.randint(1, 40) for _ in range(n)])
        cross = {pid: rng.uniform(-5.0, 10.0) for pid in pids}
        top_k = rng.randint(1, n)
        budget = rng.randint(1, 500)
        cfg = TruncationConfig(strategy="adaptive", word_budget=budget,
                               alpha=0.0, top_k=top_k)
        adaptive = truncate_adaptive(stats, cross, cfg)
        fixed = truncate_fixed(stats[:top_k], budget)
        assert adaptive.passage_ids == fixed.passage_ids
        assert set(adaptive.passage_ids) == set(fixed.passage_ids)


# --- criterion 5: trace cost equals the exhaustive minimum ---

def _enumerate_minimum(question, gold_ids, corpus, annotator, max_len=3):
    """Independent check: breadth-first over explicit action sequences.

    Reimplements matching and term discovery from scratch; only the query
    parse and the entity extractor are shared with the code under test.
    """
    initial = frozenset(t.surface.lower() for t in parse_query(question, annotator).terms)
    if not initial:
        return None

    memo = {}

    def run_action(tool, subset):
        key = (tool, subset)
        if key in memo:
            return memo[key]
        scored = []
        for passage in corpus:
            low = passage.text.lower()
            hits = sum(1 for t in subset if t in low)
            keep = hits == len(subset) if tool == "grep-and" else hits > 0
            if keep:
                scored.append((-float(hits), passage.id))
        scored.sort()
        ordered = [pid for _, pid in scored]
        covered = frozenset(ordered) & gold_ids
        found = set()
        for pid in ordered[:10]:
            for mention in annotator.extract_entities(corpus.get(pid).text):
                found.add(mention.lower())
        memo[key] = (covered, frozenset(found))
        return memo[key]

    frontier = {(frozenset(), initial)}
    seen = set(frontier)
    for depth in range(1, max_len + 1):
        upcoming = set()
        for covered, discovered in frontier:
            surfaces = sorted(discovered)
            actions = [("grep-or", frozenset((s,))) for s in surfaces]
            for a, b in combinations(surfaces, 2):
                actions.append(("grep-or", frozenset((a, b))))
                actions.append(("grep-and", frozenset((a, b))))
            for tool, subset in actions:
                gain, found = run_action(tool, subset)
                state = (covered | gain, discovered | found)
                if state[0] == gold_ids:
                    return depth
                if state not in seen:
                    seen.add(state)
                    upcoming.add(state)
        frontier = upcoming
    return None


def test_criterion_5_oracle_optimality():
    annotator = RuleAnnotator()
    minimum_counts = {}
    for seed in range(50):
        rng = random.Random(5700 + seed)
        question, (name, verb, noun) = _question(rng)
        texts = []
        gold = []
        if rng.random() < 0.5:
            bridge = rng.choice([x for x in NAMES if x != name])
            gold.append(len(texts))
            texts.append(f"I heard {name} will {verb} the {noun} "
                         f"with {bridge} soon.")
            gold.append(len(texts))
            texts.append(f"Everyone says {bridge} keeps a cabin by the lake.")
        else:
            gold.append(len(texts))
            texts.append(f"Last month {name} {verb} past the {noun} "
                         "before dusk.")
        while len(texts) < rng.randint(4, 8):
            words = rng.choices(FILLERS, k=rng.randint(4, 8))
            texts.append("The " + " ".join(words) + ".")
        corpus = make_corpus(texts)
        gold_ids = frozenset(f"s:{i}" for i in gold)

        trace = derive_trace(
            question,
            GoldAnnotation(question_id=f"acc5-{seed}",
                           gold_passage_ids=gold_ids),
            corpus, annotator,
        )
        expected = _enumerate_minimum(question, gold_ids, corpus, annotator)
        if expected is None:
            assert not trace.success or trace.cost > 3, f"seed {seed}"
        else:
            assert trace.success, f"seed {seed}: {trace.reason}"
            assert trace.cost == expected, f"seed {seed}"
            assert trace.hops == expected
            minimum_counts[expected] = minimum_counts.get(expected, 0) + 1
    # The generator must actually exercise both regimes.
    assert minimum_counts.get(1, 0) >= 10
    assert minimum_counts.get(2, 0) >= 10


# --- criterion 6: artifacts are byte-identical across reruns ---

def _run_twice(tmp_path, label, argv_for):
    out_a, out_b = tmp_path / f"{label}-a", tmp_path / f"{label}-b"
    assert main(argv_for(out_a)) == 0
    assert main(argv_for(out_b)) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names,
                                               shallow=False)
    assert sorted(match) == names and not mismatch and not errors


def test_criterion_6_determinism(tmp_path):
    corpus = str(fixture_path("corpus.jsonl"))
    questions = str(fixture_path("questions.json"))
    _run_twice(tmp_path, "query", lambda out: [
        "query", "Where did Javier go hiking?",
        "--corpus", corpus, "--out", str(out),
    ])
    _run_twice(tmp_path, "eval", lambda out: [
        "eval", "--corpus", corpus, "--questions", questions,
        "--out", str(out),
    ])


# --- criterion 7: concurrent and sequential scoring agree bitwise ---

def test_criterion_7_concurrency_equivalence():
    def service_scores(query, items):
        return [zlib.crc32(f"{query}|{text}".encode()) % 10_000 / 2500.0
                for text in items]

    def late_scores(query, items):
        return [zlib.adler32(f"{text}|{query}".encode()) % 10_000 / 5000.0
                for text in items]

    annotator = RuleAnnotator()
    rng = random.Random(77001)
    with ReferenceServer(score_fn=service_scores) as server, \
            ReferenceServer(score_fn=late_scores) as late_server:
        cross = ScorerHandle(name="cross", kind="pointwise-cross", endpoint=server.endpoint)
        # One served scorer runs in turn with the in-process one; two served
        # scorers run on the pool. Both must equal scoring in turn.
        scorer_pairs = [
            [cross, ScorerHandle(name="late", kind="lexical-test")],
            [cross, ScorerHandle(name="late", kind="late-interaction",
                                 endpoint=late_server.endpoint)],
        ]
        for _ in range(100):
            texts = [
                " ".join(rng.choices(FILLERS + NOUNS + VERBS,
                                     k=rng.randint(3, 9))) + "."
                for _ in range(rng.randint(2, 12))
            ]
            corpus = make_corpus(texts)
            query, _ = _question(rng)
            # Every passage is a candidate, with the query's own term sums.
            sums = grep_search(corpus, parse_query(query, annotator))
            candidates = CandidateSet(
                candidates=tuple(
                    Candidate(passage_id=p.id, match_score=0.0, hop=0)
                    for p in corpus
                ),
                query_id="acc7", hops_executed=1,
                term_sums=tuple(sums.get(i, 0.0) for i in range(len(corpus))),
            )
            for scorers in scorer_pairs:
                assert rank(candidates, query, corpus, scorers) == \
                    sequential_rank(candidates, query, corpus, scorers)


# --- criterion 8: the offline simulator reproduces the live pipeline ---

def test_criterion_8_simulator_matches_live():
    corpus = read_corpus(fixture_path("corpus.jsonl"))
    questions = load_questions(fixture_path("questions.json"), corpus)
    scorers = [ScorerHandle(name="lexical", kind="lexical-test")]
    matrix = build_matrix(questions, corpus, scorers)
    records = {rec.question_id: rec for rec in matrix.records}

    live_configs = [
        ("fixed", TruncationConfig(), 2000, None),
        ("adaptive", TruncationConfig(strategy="adaptive"), 4000, 0.03),
    ]
    for strategy, cfg, budget, alpha in live_configs:
        for question in questions:
            live = run_question(question.text, corpus, scorers,
                                trunc_cfg=cfg,
                                question_id=question.question_id)
            simulated, _ = simulate_question(
                records[question.question_id], strategy, budget, alpha, 60,
            )
            assert set(simulated) == set(live.context.passage_ids), \
                f"{question.question_id} under {strategy}"


def test_criterion_8_simulator_matches_live_at_bench_scale(monkeypatch):
    # The benchmark's offline corpus (2,000 entity-rich passages), read-only.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import synth
    data = synth.generate("offline", 7)
    corpus = Corpus(passages=tuple(Passage(**rec) for rec in data["corpus"]))
    questions = [Question(q["question_id"], q["question"], frozenset(q["gold_passage_ids"]))
                 for q in data["questions"][:24]]
    scorers = [ScorerHandle(name="lexical")]
    annotator = RuleAnnotator()
    matrix = build_matrix(questions, corpus, scorers, annotator=annotator)
    records = {rec.question_id: rec for rec in matrix.records}

    # A budget of a few passages, so the budget prunes as well as the threshold.
    budget = 120
    pruned_by_budget = 0
    for cfg in (TruncationConfig(word_budget=budget),
                TruncationConfig(strategy="adaptive", word_budget=budget)):
        alpha = cfg.alpha if cfg.strategy == "adaptive" else None
        for question in questions:
            live = run_question(question.text, corpus, scorers, trunc_cfg=cfg,
                                annotator=annotator, question_id=question.question_id)
            simulated = simulate_question(records[question.question_id], cfg.strategy,
                                          budget, alpha, cfg.top_k)
            assert simulated == (live.context.passage_ids, live.context.estimated_tokens), \
                f"{question.question_id} under {cfg.strategy}"
            pruned_by_budget += live.context.pruned_by_budget > 0
    assert pruned_by_budget > 0


# --- criterion 9: the planted two-hop question needs entity expansion ---

def test_criterion_9_two_hop_expansion():
    corpus = read_corpus(fixture_path("corpus.jsonl"))
    questions = load_questions(fixture_path("questions.json"), corpus)
    q2 = next(q for q in questions if q.question_id == "q2")
    gold = q2.gold_passage_ids
    assert gold == {"s1:5", "s1:7"}

    with_expansion = retrieve(q2.text, corpus, RetrieveConfig())
    assert gold <= set(with_expansion.ids())

    without = retrieve(q2.text, corpus, RetrieveConfig(max_hops=1))
    assert set(without.ids()) & gold == {"s1:5"}


# --- criteria 10 and 11: gated on external data and a scorer service ---

_GATED_VARS = ("MEMGREP_GATED_CORPUS", "MEMGREP_GATED_QUESTIONS",
               "MEMGREP_CROSS_ENDPOINT")
_gated = pytest.mark.skipif(
    not all(os.environ.get(var) for var in _GATED_VARS),
    reason="needs conversational benchmark data and a scorer service "
           f"({', '.join(_GATED_VARS)})",
)


def _gated_matrix():
    corpus = read_corpus(os.environ["MEMGREP_GATED_CORPUS"])
    questions = load_questions(os.environ["MEMGREP_GATED_QUESTIONS"], corpus)
    scorers = [
        ScorerHandle(name="cross", kind="pointwise-cross",
                     endpoint=os.environ["MEMGREP_CROSS_ENDPOINT"]),
    ]
    return build_matrix(questions, corpus, scorers)


@_gated
def test_criterion_10_budget_sweep_trend():
    matrix = _gated_matrix()
    cells = simulate_truncation(matrix, budgets=[1000, 2000, 3000, 4000],
                                alphas=[0.05], ceiling=4000)
    fixed, adaptive = cells[:4], cells[4]
    recalls = [cell.budget_recall for cell in fixed]
    assert recalls == sorted(recalls)
    fixed_2k = fixed[1]
    assert adaptive.avg_tokens < fixed_2k.avg_tokens
    assert adaptive.budget_recall >= fixed_2k.budget_recall - 0.02


@_gated
def test_criterion_11_ranking_effect_direction():
    matrix = _gated_matrix()
    effect = ranking_effect(matrix)
    assert effect.mean_rank_by_match is not None
    assert effect.mean_rank_by_cross is not None
    assert effect.mean_rank_by_match >= 5 * effect.mean_rank_by_cross
