"""Command-line surface: artifacts, config precedence, error records."""

import argparse
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrep import errors
from memgrep.annotate import RuleAnnotator
from memgrep.cli import (CANONICAL_FORMAT, RunConfig, SweepConfig, _write_artifacts,
                         build_run_config, main, make_parser)
from memgrep.corpus import INGEST_FORMATS, load_questions, read_corpus
from memgrep.evaluate import build_matrix, matrix_to_jsonl
from memgrep.oracle import SearchLimits
from memgrep.parse import parse_query
from memgrep.rank import SCORER_KINDS, LexicalDenseScorer, ScorerHandle, primary_index
from memgrep.retrieve import RetrieveConfig
from memgrep.service import ReferenceServer
from memgrep.truncate import TruncationConfig

from conftest import BLANK_TURN_CORPUS, BLANK_TURN_QUESTION, fixture_path

REPO = Path(__file__).resolve().parent.parent
QUERY = "Where did Javier go hiking?"


@pytest.fixture
def fix_corpus():
    return str(fixture_path("corpus.jsonl"))


@pytest.fixture
def fix_questions():
    return str(fixture_path("questions.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_query_prints_trace_and_context(capsys, fix_corpus):
    code, out, err = run_cli(
        capsys, "query", "Where did Javier go hiking?", "--corpus", fix_corpus,
    )
    assert code == 0
    trace = json.loads(out.split("\n\n")[0])
    assert trace["hops_executed"] == 2
    assert trace["context_passage_ids"][0] == "s1:2"
    assert "[s1:2] Melanie" in out


def test_query_writes_artifacts(capsys, tmp_path, fix_corpus):
    out_dir = tmp_path / "artifacts"
    code, _, _ = run_cli(
        capsys, "query", "Where did Javier go hiking?", "--corpus", fix_corpus,
        "--out", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "query_trace.json").exists()
    assert (out_dir / "context.txt").exists()
    runconfig = json.loads((out_dir / "runconfig.json").read_text())
    assert runconfig["deterministic"] is True


def test_eval_reports_metrics(capsys, tmp_path, fix_corpus, fix_questions):
    out_dir = tmp_path / "eval"
    code, out, _ = run_cli(
        capsys, "eval", "--corpus", fix_corpus, "--questions", fix_questions,
        "--out", str(out_dir),
    )
    assert code == 0
    report = json.loads(out)
    assert report["question_count"] == 5
    assert report["truncation"]["budget_recall"] == 1.0
    assert (out_dir / "matrix.jsonl").exists()


def test_sweep_from_prebuilt_matrix(capsys, tmp_path, fix_corpus, fix_questions):
    eval_dir = tmp_path / "eval"
    run_cli(capsys, "eval", "--corpus", fix_corpus, "--questions", fix_questions,
            "--out", str(eval_dir))
    code, out, _ = run_cli(
        capsys, "sweep", "--corpus", fix_corpus,
        "--matrix", str(eval_dir / "matrix.jsonl"),
        "--budgets", "50,100", "--alphas", "0",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("fixed", "adaptive"))]
    assert len(lines) == 3


@pytest.mark.parametrize("damage", [
    "drop-render-lens", "not-json",
    "drop-cross-entry", "drop-match-entry", "drop-words-entry", "drop-render_lens-entry",
    "repeat-candidate", "fractional-words", "bool-render_lens",
    "nan-cross", "string-match", "bool-cross", "huge-int-cross", "huge-int-words",
    "gold-not-a-list", "missing-not-a-list", "missing-not-gold-minus-candidates",
    "candidates-string-of-ids", "candidates-object-of-ids",
    "object-question_id", "null-query",
])
def test_sweep_on_damaged_matrix_yields_error_record(capsys, tmp_path, fix_corpus,
                                                     fix_questions, damage):
    eval_dir = tmp_path / "eval"
    run_cli(capsys, "eval", "--corpus", fix_corpus, "--questions", fix_questions,
            "--out", str(eval_dir))
    matrix = eval_dir / "matrix.jsonl"
    lines = matrix.read_text().splitlines()
    record = json.loads(lines[1])
    first = record["candidates"][0]
    expected = ""
    if damage == "drop-render-lens":
        del record["render_lens"]
    elif damage.endswith("-entry"):
        # One candidate loses its entry in one table; the line stays valid JSON.
        table = damage[len("drop-"):-len("-entry")]
        del record[table][first]
        expected = f"no {table} entry for {first}"
    elif damage == "repeat-candidate":
        record["candidates"].append(first)
        expected = "candidates list an id twice"
    elif damage == "fractional-words":
        record["words"][first] = 3.7
        expected = f"words entry for {first} is not an int: 3.7"
    elif damage == "bool-render_lens":
        record["render_lens"][first] = True
        expected = f"render_lens entry for {first} is not an int: True"
    elif damage in ("nan-cross", "string-match", "bool-cross"):
        # Python's json writes and reads NaN; float() would take all three.
        kind, table = damage.split("-")
        value = {"nan": float("nan"), "string": "7", "bool": True}[kind]
        record[table][first] = value
        expected = f"{table} entry for {first} is not a finite number: {value!r}"
    elif damage == "huge-int-cross":
        record["cross"][first] = 10 ** 400      # no float holds it
        expected = "int too large to convert to float"
    elif damage == "huge-int-words":
        record["words"][first] = 10 ** 400
        expected = "int too large to convert to float"
    elif damage == "missing-not-gold-minus-candidates":
        # This question retrieved its gold, so none of it is missing.
        assert record["missing"] == [] and record["gold"]
        record["missing"] = record["gold"]
        expected = f"missing must be the gold that candidates lack, [], got {record['gold']!r}"
    elif damage == "object-question_id":
        record["question_id"] = {"id": record["question_id"]}
        expected = f"question_id must be a string, got {record['question_id']!r}"
    elif damage == "null-query":
        record["query"] = None
        expected = "query must be a string, got None"
    elif damage == "candidates-string-of-ids":
        # Iterated, a string is its characters: with tables keyed by one
        # character each, "ab" would read as the candidates a and b.
        for table in ("cross", "match", "words", "render_lens"):
            record[table] = {"a": record[table][first], "b": record[table][first]}
        record.update(candidates="ab", gold=[], missing=[])
        expected = "candidates must be a list of passage ids, got 'ab'"
    elif damage == "candidates-object-of-ids":
        # Iterated, an object is its keys, which would read as the ids.
        record["candidates"] = dict.fromkeys(record["candidates"], 0)
        expected = f"candidates must be a list of passage ids, got {record['candidates']!r}"
    elif damage.endswith("-not-a-list"):
        # A string would read as the set of its characters.
        field = damage[:-len("-not-a-list")]
        record[field] = "s1:2"
        expected = f"{field} must be a list of passage ids, got 's1:2'"
    lines[1] = json.dumps(record) if damage != "not-json" else lines[1][:-1]
    matrix.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "sweep", "--corpus", fix_corpus, "--matrix", str(matrix),
        "--budgets", "50", "--alphas", "0",
    )
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "IncompleteMatrixError"
    assert f"{matrix}:2:" in record["message"]
    assert expected in record["message"]


def test_oracle_stats(capsys, fix_corpus, fix_questions):
    code, out, _ = run_cli(
        capsys, "oracle", "--corpus", fix_corpus, "--questions", fix_questions,
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["success_rate"] == 1.0
    assert stats["total"] == 5


def test_oracle_with_an_unreachable_served_scorer_fails_only_the_question_that_asks_it(
        capsys, tmp_path, fix_corpus, fix_questions):
    # A served scorer offers the semantic tool, the last action of a depth.
    # Only q2 needs two actions, so only its search runs that action, and the
    # scorer is down; the others end at depth 1 as the default run's do.
    runs = {}
    down = ["--scorer", f"ce=unix:{tmp_path}/absent.sock"]
    for name, scorer in (("golden", []), ("down", down)):
        code, out, err = run_cli(capsys, "oracle", "--corpus", fix_corpus, "--questions",
                                 fix_questions, *scorer, "--out", str(tmp_path / name))
        assert code == 0, err
        lines = (tmp_path / name / "traces.jsonl").read_text().splitlines()[1:]
        runs[name] = (json.loads(out), {json.loads(line)["question_id"]: line for line in lines})
    (golden_stats, golden), (stats, traces) = runs["golden"], runs["down"]
    assert json.loads(traces.pop("q2")) == {
        "record": "trace", "question_id": "q2", "actions": [], "cost": 0, "hops": 0,
        "success": False, "reason": "scorer-unavailable"}
    del golden["q2"]
    assert traces == golden
    assert golden_stats["failure_reasons"] == {}
    assert stats["failure_reasons"] == {"scorer-unavailable": 1}
    assert (stats["total"], stats["successes"]) == (5, 4)


def test_oracle_over_a_blank_turn_with_a_served_scorer_finishes(capsys, tmp_path):
    corpus, questions = tmp_path / "corpus.jsonl", tmp_path / "questions.json"
    corpus.write_text(BLANK_TURN_CORPUS)
    questions.write_text(json.dumps([{"question_id": "q1", "question": BLANK_TURN_QUESTION,
                                      "gold_passage_ids": ["s:2"]}]))
    out_dir = tmp_path / "out"
    with ReferenceServer(score_fn=LexicalDenseScorer().score) as server:
        code, out, err = run_cli(capsys, "oracle", "--corpus", str(corpus), "--questions",
                                 str(questions), "--scorer", f"ce={server.endpoint}",
                                 "--out", str(out_dir))
    assert code == 0, err
    assert json.loads(out)["successes"] == 1
    trace = json.loads((out_dir / "traces.jsonl").read_text().splitlines()[1])
    assert [action["tool"] for action in trace["actions"]] == ["semantic"]


def test_oracle_artifact_has_header(capsys, tmp_path, fix_corpus, fix_questions):
    out_dir = tmp_path / "oracle"
    run_cli(capsys, "oracle", "--corpus", fix_corpus, "--questions", fix_questions,
            "--out", str(out_dir))
    lines = (out_dir / "traces.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert header["semantic_enabled"] is False
    assert len(lines) == 6


def test_ingest_normalizes(capsys, tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        '{"session_id": "a", "turn_index": 0, "speaker": "X", "text": "hi"}\n'
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "ingest", "--corpus", str(raw), "--format", "generic-jsonl",
        "--out", str(out_dir),
    )
    assert code == 0
    assert json.loads(out)["passage_count"] == 1
    assert (out_dir / "corpus.jsonl").exists()


def test_ingest_round_trips_unicode_line_separators(capsys, tmp_path):
    # json.dumps(ensure_ascii=False) writes U+2028 and U+0085 raw.
    texts = ["one\u2028two", "three\x85four"]
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(
        json.dumps({"session_id": "a", "turn_index": i, "speaker": "X", "text": t},
                   ensure_ascii=False) + "\n"
        for i, t in enumerate(texts)
    ), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "ingest", "--corpus", str(raw), "--format", "generic-jsonl",
        "--out", str(out_dir),
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["passage_count"] == 2
    written = out_dir / "corpus.jsonl"
    assert meta["checksum"] == hashlib.sha256(written.read_bytes()).hexdigest()
    assert [p.text for p in read_corpus(written)] == texts


def test_ingest_requires_ingest_format(capsys, tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text("{}")
    code, _, err = run_cli(capsys, "ingest", "--corpus", str(raw))
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


def test_malformed_corpus_yields_error_record(capsys, tmp_path):
    raw = tmp_path / "bad.jsonl"
    raw.write_text("not json\n")
    code, _, err = run_cli(
        capsys, "ingest", "--corpus", str(raw), "--format", "generic-jsonl",
    )
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "MalformedDocumentError"
    assert "bad.jsonl" in record["message"]


def test_repeated_passage_id_yields_error_record(capsys, tmp_path):
    lines = fixture_path("corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(lines + lines[:1]), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "query", "Where did Javier go hiking?", "--corpus", str(corpus),
    )
    assert (code, out) == (1, "")
    record = json.loads(err)
    assert record["error"] == "DuplicateTurnError"
    assert record["message"].startswith(f"{corpus}:{len(lines) + 1}: ")
    assert record["message"].endswith("repeats line 1")


def test_missing_corpus_flag(capsys):
    code, _, err = run_cli(capsys, "query", "anything")
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("flag", ["--corpus", "--questions", "--matrix", "--config"])
def test_a_path_that_names_no_file_is_a_config_error(capsys, tmp_path, fix_corpus,
                                                     fix_questions, flag):
    paths = {"--corpus": fix_corpus, "--questions": fix_questions, flag: str(tmp_path)}
    code, out, err = run_cli(capsys, "sweep", *[arg for pair in paths.items() for arg in pair])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ConfigError",
                               "message": f"{flag[2:]} file not found: {tmp_path}"}


def test_config_file_supplies_defaults(capsys, tmp_path, fix_corpus):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": fix_corpus,
        "truncation": {"strategy": "fixed", "word_budget": 10},
    }))
    code, out, _ = run_cli(
        capsys, "query", "Where did Javier go hiking?", "--config", str(config),
    )
    assert code == 0
    trace = json.loads(out.split("\n\n")[0])
    # Tiny budget from the file: at most one fixture passage fits.
    assert trace["word_count"] <= 10


def test_flags_override_config_file(capsys, tmp_path, fix_corpus):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": "/nonexistent/elsewhere.jsonl",
        "truncation": {"strategy": "fixed", "word_budget": 10},
    }))
    code, out, _ = run_cli(
        capsys, "query", "Where did Javier go hiking?",
        "--config", str(config), "--corpus", fix_corpus, "--budget", "2000",
    )
    assert code == 0
    trace = json.loads(out.split("\n\n")[0])
    assert trace["word_count"] > 10


def test_env_var_names_config(capsys, tmp_path, fix_corpus, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": fix_corpus}))
    monkeypatch.setenv("MEMGREP_CONFIG", str(config))
    code, out, _ = run_cli(capsys, "query", "Where did Javier go hiking?")
    assert code == 0
    assert "[s1:2]" in out


def test_config_key_named_empty_does_not_pick_the_annotator(capsys, tmp_path, fix_corpus):
    # A key that names no field is an error, the empty key too: it picks
    # nothing, and every run uses the rule annotator.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"": "service", "corpus": fix_corpus}))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "query", "Where did Javier go hiking?",
                           "--config", str(config), "--out", str(out_dir))
    assert code == 1
    assert json.loads(err) == {"error": "ConfigError",
                               "message": f"{config}: unknown key ''"}
    assert not out_dir.exists()


def test_bad_config_file(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{broken")
    code, _, err = run_cli(capsys, "query", "x", "--config", str(config))
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


def test_bad_scorer_spec(capsys, fix_corpus):
    code, _, err = run_cli(
        capsys, "query", "x", "--corpus", fix_corpus, "--scorer", "nonsense",
    )
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


def test_adaptive_strategy_flag(capsys, fix_corpus):
    code, out, _ = run_cli(
        capsys, "query", "Where did Javier go hiking?", "--corpus", fix_corpus,
        "--strategy", "adaptive", "--alpha", "0.5",
    )
    assert code == 0
    trace = json.loads(out.split("\n\n")[0])
    # A steep threshold prunes the weaker candidates.
    assert trace["pruned_by_threshold"] >= 1


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        make_parser().parse_args(["frobnicate"])


@pytest.mark.parametrize("argv", [
    ["oracle", "--strategy", "adaptive"],   # the oracle neither ranks nor cuts
    # Retrieval greps one way: no flag picks a grep mode.
    ["query", "x", "--mode", "and"],
    ["sweep", "--budget", "5"],             # the sweep takes --budgets
    # No flag picks an annotator: every run uses the rule annotator.
    ["query", "x", "--annotator", "service"],
    ["query", "x", "--annotator-endpoint", "X"],
])
def test_commands_take_only_the_flags_they_read(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        make_parser().parse_args(argv)
    assert exit_info.value.code == 2


def test_build_run_config_defaults():
    args = make_parser().parse_args(["query", "x"])
    cfg = build_run_config(args)
    assert cfg.truncation.strategy == "fixed"
    assert cfg.truncation.word_budget == 2000
    assert cfg.scorers == [ScorerHandle(name="lexical", kind="lexical-test", endpoint=None)]
    # Every section's defaults are the section dataclass's own.
    assert (cfg.retrieve, cfg.truncation) == (RetrieveConfig(), TruncationConfig())


def test_scorer_entries_are_completed_and_keep_their_kind(tmp_path):
    # Served entries are never contacted here: only the config is built.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scorers": [
        {"name": "li", "kind": "late-interaction", "endpoint": "unix:/nowhere"},
        {"name": "ce", "endpoint": "unix:/nowhere"},
    ]}))
    cfg = build_run_config(make_parser().parse_args(["query", "x", "--config", str(config)]))
    assert cfg.scorers == [
        ScorerHandle(name="li", kind="late-interaction", endpoint="unix:/nowhere"),
        ScorerHandle(name="ce", kind="pointwise-cross", endpoint="unix:/nowhere"),
    ]
    config.write_text(json.dumps({"scorers": [{"name": "lex"}]}))
    cfg = build_run_config(make_parser().parse_args(["query", "x", "--config", str(config)]))
    assert cfg.scorers == [ScorerHandle(name="lex", kind="lexical-test", endpoint=None)]


@pytest.mark.parametrize("specs", [
    ["lex=lexical", "ce=unix:/x"],
    ["ce=unix:/x", "lex=lexical"],
    ["a=unix:/x", "b=tcp:h:1"],
    ["ce=unix:/x"],
])
def test_scorer_flags_build_the_scorers_of_the_equivalent_config(tmp_path, specs):
    # Served entries are never contacted here: only the config is built.
    entries = []
    for spec in specs:
        name, _, endpoint = spec.partition("=")
        entries.append({"name": name} if endpoint == "lexical"
                       else {"name": name, "endpoint": endpoint})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scorers": entries}))
    flags = [arg for spec in specs for arg in ("--scorer", spec)]
    from_flags = build_run_config(make_parser().parse_args(["query", "x", *flags]))
    from_file = build_run_config(
        make_parser().parse_args(["query", "x", "--config", str(config)]))
    assert from_flags.scorers == from_file.scorers
    # One kind rule: a served scorer is pointwise-cross, and so primary.
    assert {s.kind for s in from_flags.scorers if s.endpoint} <= {"pointwise-cross"}
    if "ce=unix:/x" in specs:
        assert from_flags.scorers[primary_index(from_flags.scorers)].name == "ce"


def test_query_prints_the_parsed_query_terms(capsys, fix_corpus):
    code, out, _ = run_cli(capsys, "query", QUERY, "--corpus", fix_corpus)
    assert code == 0
    trace = json.loads(out.split("\n\n")[0])
    assert [(t["surface"], t["weight"], t["provenance"]) for t in trace["terms"]] == [
        (t.surface, t.weight, t.provenance) for t in parse_query(QUERY, RuleAnnotator()).terms]
    assert trace["terms"]


def test_blank_query_is_one_error_record(capsys, fix_corpus):
    code, out, err = run_cli(capsys, "query", "   ", "--corpus", fix_corpus)
    assert (code, out) == (1, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "ValueError", "message": "query must be non-empty"}]


def test_query_without_content_terms_prints_no_terms(capsys, fix_corpus):
    code, out, _ = run_cli(capsys, "query", "the of and", "--corpus", fix_corpus)
    assert code == 0
    trace = json.loads(out.split("\n\n")[0])
    assert trace["terms"] == []
    assert any(w.startswith("empty-term-set") for w in trace["warnings"])


# One run of each command with settings off their defaults, less --corpus and
# --out: each query run is named by its strategy.
REPLAYED_RUNS = {
    "fixed": ["query", QUERY, "--strategy", "fixed", "--budget", "30"],
    "adaptive": ["query", QUERY, "--strategy", "adaptive", "--alpha", "0.2", "--top-k", "5"],
    "ingest": ["ingest", "--format", "generic-jsonl"],
    "oracle": ["oracle", "--max-states", "3", "--max-edges", "5"],
    "eval": ["eval", "--strategy", "adaptive", "--budget", "60", "--alpha", "0.1"],
    "sweep": ["sweep", "--budgets", "50,100", "--alphas", "0,0.1", "--ceiling", "80"],
    "sweep-matrix": ["sweep", "--budgets", "70", "--alphas", "0.05", "--top-k", "7"],
}


@pytest.mark.parametrize("run", REPLAYED_RUNS)
def test_runconfig_passed_back_as_config_repeats_the_run(capsys, tmp_path, fix_corpus,
                                                         fix_questions, run):
    argv = REPLAYED_RUNS[run]
    if run == "ingest":
        raw = tmp_path / "raw.jsonl"
        raw.write_text("".join(json.dumps(turn) + "\n" for turn in _GENERIC_TURNS))
        argv = [*argv, "--corpus", str(raw)]
    else:
        argv = [*argv, "--corpus", fix_corpus]
    if argv[0] in ("oracle", "eval", "sweep"):
        argv += ["--questions", fix_questions]
    if run == "sweep-matrix":
        corpus = read_corpus(fix_corpus)
        matrix = tmp_path / "matrix.jsonl"
        matrix.write_text(matrix_to_jsonl(build_matrix(
            load_questions(fix_questions, corpus), corpus, [ScorerHandle(name="lexical")])))
        argv += ["--matrix", str(matrix)]
    first, second = tmp_path / "first", tmp_path / "second"
    code, printed, err = run_cli(capsys, *argv, "--out", str(first))
    assert code == 0, err
    # The replay names the command, and a query its text, and nothing else.
    command = argv[:2] if argv[0] == "query" else argv[:1]
    code, replayed, err = run_cli(capsys, *command, "--config", str(first / "runconfig.json"),
                                  "--out", str(second))
    assert code == 0, err
    assert replayed == printed
    names = sorted(path.name for path in first.iterdir())
    assert "runconfig.json" in names
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


# Runs whose settings are given twice: as a config holding an int where a
# float is meant, and as flags or a config holding that float.
INT_FOR_FLOAT_RUNS = {
    "sweep-alphas": (["sweep"], {"sweep": {"alphas": [0], "budgets": [50]}},
                     ["--alphas", "0", "--budgets", "50"]),
    "truncation-alpha": (["query", QUERY], {"truncation": {"strategy": "adaptive", "alpha": 0}},
                         ["--strategy", "adaptive", "--alpha", "0"]),
}


@pytest.mark.parametrize("run", INT_FOR_FLOAT_RUNS)
def test_an_int_for_a_float_setting_writes_the_float(capsys, tmp_path, fix_corpus,
                                                     fix_questions, run):
    command, with_ints, with_floats = INT_FOR_FLOAT_RUNS[run]
    argv = [*command, "--corpus", fix_corpus]
    if command[0] == "sweep":
        argv += ["--questions", fix_questions]
    outs = []
    for n, settings in enumerate((with_ints, with_floats)):
        if isinstance(settings, dict):
            config = tmp_path / f"config{n}.json"
            config.write_text(json.dumps(settings))
            settings = ["--config", str(config)]
        outs.append(tmp_path / f"out{n}")
        code, _, err = run_cli(capsys, *argv, *settings, "--out", str(outs[-1]))
        assert code == 0, err
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_a_config_stores_an_int_alpha_as_its_float():
    assert type(TruncationConfig(alpha=0).alpha) is float
    alphas = SweepConfig(alphas=[0, 0.1]).alphas
    assert alphas == [0.0, 0.1] and all(type(alpha) is float for alpha in alphas)


def _parser_actions():
    """Every action of the parser and of each of its commands."""
    parser = make_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return [action for command in (parser, *commands.values()) for action in command._actions]


def test_every_dotted_flag_dest_names_a_field_of_a_run_config_section():
    # build_run_config lays a flag over the key its dest names and skips a
    # dest that names no field, so a misspelt one would silently do nothing,
    # and a setting read from args past the builder would not be recorded.
    # Only the parser's own dests, the config file, the scorer flags (which
    # replace the scorers list) and the query text name no field.
    hints = get_type_hints(RunConfig)
    dests = {action.dest for action in _parser_actions()}
    assert {"truncation.top_k", "truncation.word_budget", "corpus",
            "oracle.max_states", "sweep.budgets", "sweep.matrix"} <= dests
    for dest in dests - {"help", "command", "config", "scorer", "query_text"}:
        section, _, key = dest.partition(".")
        assert section in hints, dest
        if key:
            assert is_dataclass(hints[section]), dest
            assert key in {f.name for f in fields(hints[section])}, dest


def test_readme_names_exactly_the_parser_flags():
    # A code span in README that opens with a flag names an option of the
    # parser or of one of its commands, and every option but --help is
    # named in one, so a removed flag cannot stay documented.
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`(--[a-z][a-z0-9-]*)", readme))
    options = {option for action in _parser_actions() for option in action.option_strings
               if option.startswith("--")}
    assert named <= options, named - options
    assert options - {"--help"} <= named, options - {"--help"} - named


_NAMES = st.text(alphabet="abcé-_", min_size=1, max_size=4)
_ENDPOINTS = st.sampled_from(["unix:/x.sock", "tcp:127.0.0.1:9"])
# A served scorer is any kind but lexical-test.
_SCORER = st.builds(ScorerHandle, name=_NAMES) | st.builds(
    ScorerHandle, name=_NAMES, endpoint=_ENDPOINTS,
    kind=st.sampled_from([k for k in SCORER_KINDS if k != "lexical-test"]))
_COUNTS = st.integers(min_value=1, max_value=10**6)
_ALPHAS = st.floats(min_value=0, max_value=1, exclude_max=True)
_SWEEPS = st.fixed_dictionaries({
    "budgets": st.lists(_COUNTS, max_size=3), "alphas": st.lists(_ALPHAS, max_size=3),
    "ceiling": st.none() | _COUNTS, "matrix": st.none() | st.text(max_size=8),
}).filter(  # adaptive cells need a ceiling or a budget to take the largest of
    lambda grid: grid["budgets"] or grid["ceiling"] or not grid["alphas"]).map(
    lambda grid: SweepConfig(**grid))
_RUN_CONFIGS = st.builds(
    RunConfig,
    corpus=st.none() | st.text(max_size=8),
    format=st.sampled_from((CANONICAL_FORMAT,) + INGEST_FORMATS),
    questions=st.none() | st.text(max_size=8),
    scorers=st.lists(_SCORER, min_size=1, max_size=2, unique_by=lambda s: s.name),
    retrieve=st.builds(RetrieveConfig, max_hops=_COUNTS,
                       entity_hop_source_top_m=st.integers(0, 50), prf_min_doc_freq=_COUNTS,
                       prf_source_top_n=st.integers(0, 50)),
    truncation=st.builds(TruncationConfig, strategy=st.sampled_from(("fixed", "adaptive")),
                         word_budget=st.none() | _COUNTS,
                         alpha=_ALPHAS, top_k=_COUNTS),
    oracle=st.builds(SearchLimits, max_states=_COUNTS, max_edges=_COUNTS),
    sweep=_SWEEPS,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=_RUN_CONFIGS)
def test_runconfig_json_reads_back_as_the_run_config_that_wrote_it(tmp_path_factory, cfg):
    out = tmp_path_factory.mktemp("run")
    _write_artifacts(replace(cfg, out=str(out)), {})
    args = make_parser().parse_args(["query", "x", "--config", str(out / "runconfig.json")])
    assert build_run_config(args) == cfg


# Config files that name a bad section or scorer entry, with the section or
# entry the error must name.
BAD_CONFIGS = {
    "retrieve-unknown-key": ({"retrieve": {"bogus": 1}}, "retrieve"),
    "truncation-budget-not-a-number": ({"truncation": {"word_budget": "abc"}},
                                       "truncation"),
    "scorer-not-an-object": ({"scorers": ["x"]}, "scorers[0]"),
    "scorer-without-name": ({"scorers": [{"endpoint": "tcp:x:1"}]}, "scorers[0]"),
    "truncation-unknown-key": ({"truncation": {"bogus": 3}}, "truncation"),
    # rank fuses at the fixed split, so a fusion section is an unknown key
    # whatever it holds.
    "fusion-unknown-key": ({"fusion": {"bogus": 3}}, "unknown key 'fusion'"),
    "fusion-section-removed": ({"fusion": {"k": 60, "weights": {"lexical": 1.0}}},
                               "unknown key 'fusion'"),
    "in-process-cross-scorer": ({"scorers": [{"name": "x", "kind": "pointwise-cross"}]},
                                "scorers[0]"),
    # A scorer is lexical-test iff it has no endpoint, both ways.
    "served-lexical-scorer": ({"scorers": [{"name": "x", "kind": "lexical-test",
                                            "endpoint": "unix:/x"}]}, "scorers[0]"),
    # Values of the wrong type: a bool is not a number, and an int field
    # takes no fraction.
    "retrieve-top-m-not-an-int": ({"retrieve": {"entity_hop_source_top_m": "x"}},
                                  "retrieve"),
    "retrieve-fractional-max-hops": ({"retrieve": {"max_hops": 2.5}}, "retrieve"),
    # Retrieval greps OR and always falls back: neither is a setting.
    "retrieve-fallback-enabled-not-a-bool": ({"retrieve": {"fallback_enabled": "no"}},
                                             "retrieve: unknown key 'fallback_enabled'"),
    "retrieve-fallback-enabled-removed": ({"retrieve": {"fallback_enabled": False}},
                                          "retrieve: unknown key 'fallback_enabled'"),
    "retrieve-mode-removed": ({"retrieve": {"mode": "AND"}},
                              "retrieve: unknown key 'mode'"),
    "truncation-fractional-budget": ({"truncation": {"word_budget": 10.5}}, "truncation"),
    "fusion-bool-k": ({"fusion": {"k": True}}, "unknown key 'fusion'"),
    "fusion-bool-weight": ({"fusion": {"weights": {"lexical": True}}}, "unknown key 'fusion'"),
    "fusion-nan-weight": ({"fusion": {"weights": {"lexical": float("nan")}}},
                          "unknown key 'fusion'"),
    "fusion-infinite-k": ({"fusion": {"k": float("inf")}}, "unknown key 'fusion'"),
    "truncation-bool-alpha": ({"truncation": {"alpha": True}},
                              "truncation: alpha must be float, got True"),
    # Python's json reads NaN and Infinity as floats.
    "truncation-nan-alpha": ({"truncation": {"alpha": float("nan")}},
                             "truncation: alpha must be float, got nan"),
    "truncation-infinite-alpha": ({"truncation": {"alpha": float("inf")}},
                                  "truncation: alpha must be float, got inf"),
    # An int too large for a float is not a finite number either.
    "truncation-huge-int-alpha": ({"truncation": {"alpha": 10**400}}, "truncation"),
    "scorer-endpoint-empty": ({"scorers": [{"name": "ce", "endpoint": ""}]}, "scorers[0]"),
    # Keys that repeated another setting are gone: max_hops=1 ends the
    # entity hops and a PRF top-n of 0 skips PRF.
    "retrieve-entity-hop-enabled-removed": ({"retrieve": {"entity_hop_enabled": True}},
                                            "retrieve: unknown key 'entity_hop_enabled'"),
    "retrieve-prf-enabled-removed": ({"retrieve": {"prf_enabled": True}},
                                     "retrieve: unknown key 'prf_enabled'"),
    # transport is not part of a scorer entry; the endpoint decides it.
    "scorer-with-transport": ({"scorers": [{"name": "x", "transport": "in-process"}]},
                              "scorers[0]"),
    # Names label scorers in runconfig.json and in the matrix header's
    # cross_scorer, so two scorers cannot share one.
    "scorer-name-repeated": ({"scorers": [{"name": "a"}, {"name": "a"}]},
                             "scorers[1]: scorer name 'a' repeats"),
    # The top level is read against RunConfig's fields like every section.
    "top-level-unknown-key": ({"Retrieve": {"mode": "AND"}}, "unknown key 'Retrieve'"),
    "top-level-empty-key": ({"": "service"}, "unknown key ''"),
    # The annotator section went with the served annotator: every run uses
    # the rule annotator, so the section is an unknown key whatever it holds.
    "annotator-section-removed": ({"annotator": {"endpoint": "unix:/x.sock"}},
                                  "unknown key 'annotator'"),
    "annotator-not-an-object": ({"annotator": "rules"}, "unknown key 'annotator'"),
    "annotator-endpoint-not-a-string": ({"annotator": {"endpoint": 5}},
                                        "unknown key 'annotator'"),
    "annotator-endpoint-empty": ({"annotator": {"endpoint": ""}}, "unknown key 'annotator'"),
    "annotator-kind-removed": ({"annotator": {"kind": "rules"}}, "unknown key 'annotator'"),
    "format-null": ({"format": None}, "format must be str, got None"),
    # The config file's format takes --format's choices.
    "format-unknown": ({"format": "bogus"},
                       "format must be one of canonical, locomo-like, longmemeval-like, "
                       "generic-jsonl, got 'bogus'"),
    "questions-not-a-string": ({"questions": 5}, "questions must be str | None, got 5"),
    # A run has one or two scorers; there is no empty or absent list.
    "scorers-an-object": ({"scorers": {}}, "scorers: expected one or two scorer entries"),
    "scorers-empty": ({"scorers": []}, "scorers: expected one or two scorer entries"),
    "scorers-zero": ({"scorers": 0}, "scorers: expected one or two scorer entries"),
    "scorers-null": ({"scorers": None}, "scorers: expected one or two scorer entries"),
    "scorers-a-string": ({"scorers": "x"}, "scorers: expected one or two scorer entries"),
    "scorers-three": ({"scorers": [{"name": "a"}, {"name": "b"}, {"name": "c"}]},
                      "scorers: expected one or two scorer entries"),
    # runconfig.json marks its runs deterministic; no other marker is read.
    "deterministic-not-true": ({"deterministic": "no"}, "deterministic must be true, got 'no'"),
    "deterministic-false": ({"deterministic": False}, "deterministic must be true, got False"),
    # The oracle's search limits and the sweep's grid are sections like any
    # other; a grid value is also named by the flag that sets it.
    "sweep-budgets-not-a-list": ({"sweep": {"budgets": "50"}},
                                 "sweep: budgets must be list, got '50'"),
    "sweep-budgets-zero": ({"sweep": {"budgets": [0]}},
                           "sweep: --budgets: word_budget must be positive"),
    "sweep-budgets-null": ({"sweep": {"budgets": [50, None]}},
                           "sweep: --budgets: word_budget must be int, got None"),
    "sweep-alphas-out-of-range": ({"sweep": {"alphas": [1.5]}},
                                  "sweep: --alphas: alpha must lie in [0, 1)"),
    "sweep-ceiling-zero": ({"sweep": {"ceiling": 0}},
                           "sweep: --ceiling: word_budget must be positive"),
    "sweep-alphas-without-ceiling-or-budgets": ({"sweep": {"budgets": [], "alphas": [0]}},
                                                "sweep: --ceiling: adaptive cells need "
                                                "--ceiling or a --budgets grid"),
    "sweep-unknown-key": ({"sweep": {"bogus": 1}}, "sweep: unknown key 'bogus'"),
    "oracle-zero-max-states": ({"oracle": {"max_states": 0}},
                               "oracle: search limits must be positive"),
    "oracle-bool-max-edges": ({"oracle": {"max_edges": True}},
                              "oracle: max_edges must be int, got True"),
}


# Passage records with a field of the wrong type: the fields laid over the
# first line of the canonical corpus, and over the third turn of a
# generic-jsonl file whose first two are turns 0 and 1. The error names the
# line and the first field given.
BAD_PASSAGE_FIELDS = {
    "corpus-text-not-a-string": {"text": 5},
    "corpus-session-id-not-a-string": {"session_id": 3},
    "corpus-id-not-a-string": {"id": 9},
    "corpus-speaker-null": {"speaker": None},
    "corpus-timestamp-not-a-string": {"timestamp": 7},
    "corpus-bool-turn-index": {"turn_index": True},
    "ingest-bool-turn-index": {"turn_index": True},
    "ingest-fractional-turn-index": {"turn_index": 1.9},
    "ingest-session-id-not-a-string": {"session_id": 3},
    "ingest-timestamp-not-a-string": {"timestamp": 7},
    # A value that cannot be a dict key is named like any other.
    "corpus-speaker-a-list": {"speaker": ["X"]},
    "corpus-session-id-an-object": {"session_id": {"id": "a"}},
    "corpus-timestamp-a-list": {"timestamp": ["2023"]},
    "ingest-speaker-a-list": {"speaker": ["X"]},
    "ingest-session-id-an-object": {"session_id": {"id": "a"}},
    "ingest-timestamp-a-list": {"timestamp": ["2023"]},
    # ingest derives the id and rejects a negative index; a canonical line
    # must hold what ingest would have written.
    "corpus-negative-turn-index": {"turn_index": -1},
    "corpus-id-off-scheme": {"id": "zz:9"},
    "ingest-negative-turn-index": {"turn_index": -1},
}

# Raw documents that ingest rejects: the format, the document (for
# generic-jsonl, its records, one per line), the error, and what its message
# must say after the file's name: the turn's position (path:line in JSONL)
# and the field, or the part of the document at fault.
_LONGMEMEVAL_TURN = {"role": "user", "content": "hi"}
_GENERIC_TURNS = [{"session_id": "a", "turn_index": i, "speaker": "X", "text": "hi"}
                  for i in range(2)]
BAD_INGEST = {
    "longmemeval-turn-not-an-object": (
        "longmemeval-like", {"sessions": [{"session_id": "s1", "turns": ["hello"]}]},
        "MalformedDocumentError", ": sessions[0].turns[0] is not an object"),
    "longmemeval-turns-not-a-list": (
        "longmemeval-like", {"sessions": [{"session_id": "s1", "turns": 5}]},
        "MalformedDocumentError", ": sessions[0].turns is not a list"),
    "longmemeval-fewer-session-ids-than-sessions": (
        "longmemeval-like", {"haystack_session_ids": ["a"],
                             "haystack_sessions": [[_LONGMEMEVAL_TURN], [_LONGMEMEVAL_TURN]]},
        "MalformedDocumentError", ": haystack_session_ids must be a list of 2"),
    # An empty list is a list of the wrong length, not an absent one.
    **{f"longmemeval-empty-{name}": (
        "longmemeval-like", {name: [],
                             "haystack_sessions": [[_LONGMEMEVAL_TURN], [_LONGMEMEVAL_TURN]]},
        "MalformedDocumentError", f": {name} must be a list of 2")
       for name in ("haystack_session_ids", "haystack_dates")},
    "longmemeval-blank-turn": (
        "longmemeval-like", {"sessions": [{"session_id": "s1",
                                           "turns": [{"role": "user", "content": " "}]}]},
        "MalformedDocumentError", ":sessions[0].turns[0]: text must not be blank"),
    # ingest would write a corpus that read_corpus rejects.
    "locomo-date-not-a-string": (
        "locomo-like", {"conversation": {"session_1": [{"speaker": "A", "text": "hi"}],
                                         "session_1_date_time": 5}},
        "MalformedDocumentError", ":session_1[0]: timestamp must be a string or null, got 5"),
    # A session id is a string or an int, as a question_id is.
    **{f"longmemeval-session-id-{name}": (
        "longmemeval-like", {"sessions": [{"session_id": value, "turns": [_LONGMEMEVAL_TURN]}]},
        "MalformedDocumentError",
        f":sessions[0]: session_id must be a string or an int, got {value!r}")
       for name, value in (("null", None), ("bool", True), ("float", 1.5),
                           ("object", {"id": "s1"}))},
    "longmemeval-haystack-session-id-null": (
        "longmemeval-like", {"haystack_session_ids": ["a", None],
                             "haystack_sessions": [[_LONGMEMEVAL_TURN], [_LONGMEMEVAL_TURN]]},
        "MalformedDocumentError",
        ": haystack_session_ids[1] must be a string or an int, got None"),
    # int() refuses a turn of over 4,300 digits with a plain ValueError.
    "locomo-dia-id-turn-too-long": (
        "locomo-like", {"conversation": {"session_1": [
            {"speaker": "A", "text": "hi", "dia_id": "D1:" + "9" * 5000}]}},
        "MalformedDocumentError", ":session_1[0]: dia_id turn is too long to read"),
    "generic-id-off-scheme": (
        "generic-jsonl", [_GENERIC_TURNS[0], {**_GENERIC_TURNS[1], "id": "zz:9"}],
        "MalformedDocumentError", ":2: id must be 'a:1', got 'zz:9'"),
    "generic-repeated-turn": (
        "generic-jsonl", [*_GENERIC_TURNS, _GENERIC_TURNS[0]],
        "DuplicateTurnError", ":3: passage id 'a:0' repeats line 1"),
}

# A JSON integer literal of 5,000 digits: json reads it with a plain
# ValueError (ints over 4,300 digits), not a JSONDecodeError.
HUGE_INT = "9" * 5000


# Question files with a bad record, and what the error must say after the
# file's name. A file given as text is written as it stands, and its message
# follows the name directly: a pretty-printed list is one JSON document, so
# its fault is reported where it is, not read again as JSONL from line 1.
_GOOD_QUESTION = {"question_id": "q0", "question": "Who?", "gold_passage_ids": ["s1:2"]}
BAD_QUESTIONS = {
    "gold-id-a-list": ([{"question_id": "q1", "question": "Who?",
                         "gold_passage_ids": [["s1:2"]]}], "record 0: gold_passage_ids must be"),
    "gold-id-a-number": ([{"question_id": "q1", "question": "Who?",
                           "gold_passage_ids": [5]}], "record 0: gold_passage_ids must be"),
    "question-null": ([{"question_id": "q1", "question": None,
                        "gold_passage_ids": ["s1:2"]}], "record 0: question must be"),
    "question-missing": ([{"question_id": "q1", "gold_passage_ids": ["s1:2"]}],
                         "record 0: question must be a non-blank string, got None"),
    "question-blank": ([{"question_id": "q1", "question": "   ",
                         "gold_passage_ids": ["s1:2"]}],
                       "record 0: question must be a non-blank string, got '   '"),
    "question-id-null": ([{"question_id": None, "question": "Who?",
                           "gold_passage_ids": ["s1:2"]}], "record 0: question_id must be"),
    "question-id-bool": ([{"question_id": True, "question": "Who?",
                           "gold_passage_ids": ["s1:2"]}], "record 0: question_id must be"),
    # A fault after a good record names its own record, as a JSONL line does.
    "record-1-question-null": ([_GOOD_QUESTION, {"question_id": "q1", "question": None,
                                                 "gold_passage_ids": ["s1:2"]}],
                               "record 1: question must be a non-blank string, got None"),
    "record-1-gold-id-a-number": ([_GOOD_QUESTION, {"question_id": "q1", "question": "Who?",
                                                    "gold_passage_ids": [5]}],
                                  "record 1: gold_passage_ids must be"),
    "record-1-question-id-null": ([_GOOD_QUESTION, {"question_id": None, "question": "Who?",
                                                    "gold_passage_ids": ["s1:2"]}],
                                  "record 1: question_id must be"),
    "record-1-without-question-id": ([_GOOD_QUESTION, {"question": "Who?",
                                                       "gold_passage_ids": ["s1:2"]}],
                                     "record 1: annotation record missing question_id"),
    # An int id reads as its decimal string, so 7 and "7" are one id.
    "question-id-repeated": ([{"question_id": 7, "question": "Who?", "gold_passage_ids": ["s1:2"]},
                              {"question_id": "q2", "question": "Who?", "gold_passage_ids": []},
                              {"question_id": "7", "question": "Who?", "gold_passage_ids": []}],
                             "question_id '7' appears at record 0 and record 2"),
    "pretty-list-syntax-error": ('[\n {"question_id": "q1", "question": "Who?",'
                                 ' "gold_passage_ids": []},\n'
                                 ' {"question_id": "q2", "question": "Who?",'
                                 ' "gold_passage_ids": [}\n]\n',
                                 ":3: invalid JSON: Expecting value: line 3"),
    "pretty-list-huge-int": ('[\n {"question_id": "q1", "question": "Who?",'
                             ' "gold_passage_ids": [], "n": ' + HUGE_INT + '}\n]\n',
                             ": invalid JSON: Exceeds the limit (4300 digits)"),
    # JSONL whose first line holds the over-long int: the fault is line 1's.
    "jsonl-first-line-huge-int": ('{"question_id": "q1", "question": "Who?",'
                                  ' "gold_passage_ids": [], "n": ' + HUGE_INT + '}\n'
                                  '{"question_id": "q2", "question": "Who?",'
                                  ' "gold_passage_ids": []}\n',
                                  ":1: invalid JSON: Exceeds the limit (4300 digits)"),
}

# Sweep grids that no cut takes: the grid flags, and the error message. Each
# is checked before the matrix is built.
BAD_SWEEP_GRIDS = {
    "sweep-zero-budget": (["--budgets", "0", "--alphas", ""],
                          "--budgets: word_budget must be positive"),
    "sweep-zero-ceiling": (["--budgets", "50", "--alphas", "0", "--ceiling", "0"],
                           "--ceiling: word_budget must be positive"),
    "sweep-alpha-out-of-range": (["--budgets", "50", "--alphas", "0,1.5"],
                                 "--alphas: alpha must lie in [0, 1)"),
    "sweep-alpha-nan": (["--budgets", "50", "--alphas", "nan"],
                        "--alphas: alpha must be float, got nan"),
    # Adaptive cells run at the ceiling, by default the largest budget.
    "sweep-adaptive-without-ceiling": (["--budgets", "", "--alphas", "0"],
                                       "--ceiling: adaptive cells need --ceiling or a --budgets "
                                       "grid"),
}

# Matrix headers that are not the one matrix_to_jsonl writes: the fields
# laid over it, and the fault the error names at line 1.
BAD_MATRIX_HEADERS = {
    "matrix-header-format": ({"format": 99}, " expected the matrix header with format 1, got 99"),
    "matrix-header-bool-format": ({"format": True},
                                  " expected the matrix header with format 1, got True"),
    "matrix-header-kind": ({"kind": "nonsense"},
                           " expected the matrix header with kind 'score-matrix', got 'nonsense'"),
    "matrix-header-cross-scorer-not-a-string": (
        {"cross_scorer": 5}, " expected the matrix header with a string cross_scorer, got 5"),
    "matrix-header-checksum-not-a-string": (
        {"corpus_checksum": None},
        " expected the matrix header with a string corpus_checksum, got None"),
}


# Input files with byte 0xE9, which is not UTF-8, opening one line: the
# command that reads the file, the file, the line and the error, which names
# the file's line and the byte's position in it.
NOT_UTF8 = {
    "corpus-not-utf8": ("query", "corpus.jsonl", 3, "MalformedDocumentError"),
    "generic-jsonl-not-utf8": ("ingest", "raw.jsonl", 3, "MalformedDocumentError"),
    "locomo-not-utf8": ("ingest", "raw.json", 3, "MalformedDocumentError"),
    "questions-not-utf8": ("eval", "questions.json", 3, "MalformedDocumentError"),
    "matrix-not-utf8": ("sweep", "matrix.jsonl", 2, "IncompleteMatrixError"),
}


def not_utf8_run(case: str, tmp: Path) -> tuple[list[str], str, str]:
    """damaged_run's arguments, error and message fragment for a NOT_UTF8 case."""
    command, name, line, error = NOT_UTF8[case]
    corpus = fixture_path("corpus.jsonl")
    questions = fixture_path("questions.json")
    bad = tmp / name
    if case == "generic-jsonl-not-utf8":
        text = "".join(json.dumps({"session_id": "a", "turn_index": i, "speaker": "X",
                                   "text": "hi"}) + "\n" for i in range(3))
    elif case == "locomo-not-utf8":
        text = json.dumps({"conversation": {"session_1": [
            {"speaker": "A", "text": "hi"}, {"speaker": "B", "text": "yo"}]}}, indent=1)
    elif case == "matrix-not-utf8":
        loaded = read_corpus(corpus)
        text = matrix_to_jsonl(build_matrix(load_questions(questions, loaded), loaded,
                                            [ScorerHandle(name="lexical")]))
    else:
        text = (corpus if command == "query" else questions).read_text(encoding="utf-8")
    lines = text.encode("utf-8").split(b"\n")
    lines[line - 1] = b"\xe9" + lines[line - 1]
    bad.write_bytes(b"\n".join(lines))
    argv = {"query": ["query", QUERY, "--corpus", str(bad)],
            "ingest": ["ingest", "--corpus", str(bad), "--format",
                       "locomo-like" if name == "raw.json" else "generic-jsonl"],
            "eval": ["eval", "--corpus", str(corpus), "--questions", str(bad)],
            "sweep": ["sweep", "--corpus", str(corpus), "--matrix", str(bad),
                      "--budgets", "50", "--alphas", "0"]}[command]
    return argv, error, (f"{bad}:{line}: not UTF-8: 'utf-8' codec can't decode "
                         "byte 0xe9 in position 0")


def with_huge_int(record: dict, table: dict, key: str) -> str:
    """record as a JSON line, with table[key] (a table within record) set to
    HUGE_INT, which json.dumps would refuse to write."""
    table[key] = "HUGE"
    return json.dumps(record).replace('"HUGE"', HUGE_INT)


def damaged_run(case: str, tmp: Path) -> tuple[list[str], str, str]:
    """Arguments for a run over one damaged input, the error it must end in,
    and a fragment its message must hold."""
    corpus = fixture_path("corpus.jsonl")
    questions = fixture_path("questions.json")
    if case in BAD_CONFIGS:
        doc, section = BAD_CONFIGS[case]
        config = tmp / "config.json"
        config.write_text(json.dumps(doc))
        return (["query", QUERY, "--corpus", str(corpus), "--config", str(config)],
                "ConfigError", f"{config}: {section}")
    if case.startswith("corpus-") and case in BAD_PASSAGE_FIELDS:
        lines = corpus.read_text(encoding="utf-8").splitlines()
        fields = BAD_PASSAGE_FIELDS[case]
        lines[0] = json.dumps({**json.loads(lines[0]), **fields})
        bad = tmp / "corpus.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return (["query", QUERY, "--corpus", str(bad)],
                "MalformedDocumentError", f"{bad}:1: {next(iter(fields))} must be")
    if case in BAD_PASSAGE_FIELDS:
        fields = BAD_PASSAGE_FIELDS[case]
        turns = [{"session_id": "a", "turn_index": i, "speaker": "X", "text": "hi"}
                 for i in range(3)]
        turns[2].update(fields)
        raw = tmp / "raw.jsonl"
        raw.write_text("".join(json.dumps(turn) + "\n" for turn in turns), encoding="utf-8")
        return (["ingest", "--corpus", str(raw), "--format", "generic-jsonl"],
                "MalformedDocumentError", f"{raw}:3: {next(iter(fields))} must be")
    if case in BAD_INGEST:
        format, doc, error, message = BAD_INGEST[case]
        if format == "generic-jsonl":
            raw = tmp / "raw.jsonl"
            raw.write_text("".join(json.dumps(turn) + "\n" for turn in doc))
        else:
            raw = tmp / "raw.json"
            raw.write_text(json.dumps(doc))
        return (["ingest", "--corpus", str(raw), "--format", format], error, f"{raw}{message}")
    if case in BAD_QUESTIONS:
        records, message = BAD_QUESTIONS[case]
        bad = tmp / "questions.json"
        argv = ["eval", "--corpus", str(corpus), "--questions", str(bad)]
        if isinstance(records, str):
            bad.write_text(records)
            return argv, "MalformedDocumentError", f"{bad}{message}"
        bad.write_text(json.dumps(records))
        return argv, "MalformedDocumentError", f"{bad}: {message}"
    if case == "config-huge-int":
        record = {"truncation": {}}
        config = tmp / "config.json"
        config.write_text(with_huge_int(record, record["truncation"], "top_k"))
        return (["query", QUERY, "--corpus", str(corpus), "--config", str(config)],
                "ConfigError", f"config file {config} is not valid JSON: Exceeds")
    if case == "corpus-huge-int-line":
        lines = corpus.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        lines[1] = with_huge_int(record, record, "turn_index")
        bad = tmp / "corpus.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return (["query", QUERY, "--corpus", str(bad)],
                "MalformedDocumentError", f"{bad}:2: invalid JSON:")
    if case == "corpus-line-not-an-object":
        lines = corpus.read_text(encoding="utf-8").splitlines()
        bad = tmp / "corpus.jsonl"
        bad.write_text("\n".join(lines + ["[1, 2]"]) + "\n", encoding="utf-8")
        return (["query", QUERY, "--corpus", str(bad)],
                "MalformedDocumentError", f"{bad}:{len(lines) + 1}:")
    if case == "fusion-weight-for-another-scorer":
        # rank fuses at the fixed split, so a fusion section is an unknown key.
        config = tmp / "config.json"
        config.write_text(json.dumps({"fusion": {"weights": {"lexical": 1.0, "other": 2.0}}}))
        return (["query", QUERY, "--corpus", str(corpus), "--config", str(config)],
                "ConfigError", f"{config}: unknown key 'fusion'")
    if case == "gold-not-a-list":
        bad = tmp / "questions.json"
        bad.write_text(json.dumps([{"question_id": "q1", "question": "Who?",
                                    "gold_passage_ids": "s1:2"}]))
        return (["eval", "--corpus", str(corpus), "--questions", str(bad)],
                "MalformedDocumentError", "gold_passage_ids must be a list")
    if case == "scorer-flag-name-repeated":
        return (["oracle", "--corpus", str(corpus), "--questions", str(questions),
                 "--scorer", "a=lexical", "--scorer", "a=lexical"],
                "ConfigError", "--scorer[1]: scorer name 'a' repeats --scorer[0]")
    if case == "sweep-budget-not-an-int":
        return (["sweep", "--corpus", str(corpus), "--questions", str(questions),
                 "--budgets", "50,1.5", "--alphas", "0"],
                "ConfigError", "--budgets: invalid literal for int() with base 10: '1.5'")
    if case == "sweep-alpha-not-a-number":
        return (["sweep", "--corpus", str(corpus), "--questions", str(questions),
                 "--budgets", "50", "--alphas", "0.1,abc"],
                "ConfigError", "--alphas: could not convert string to float: 'abc'")
    if case in NOT_UTF8:
        return not_utf8_run(case, tmp)
    if case in BAD_SWEEP_GRIDS:
        grid, message = BAD_SWEEP_GRIDS[case]
        return (["sweep", "--corpus", str(corpus), "--questions", str(questions), *grid],
                "ConfigError", message)
    loaded = read_corpus(corpus)
    matrix = build_matrix(load_questions(questions, loaded), loaded,
                          [ScorerHandle(name="lexical")])
    lines = matrix_to_jsonl(matrix).splitlines()
    record = json.loads(lines[1])
    line, fault = 2, ""
    if case == "matrix-huge-int-line":
        lines[1] = with_huge_int(record, record["cross"], record["candidates"][0])
        fault = " invalid JSON:"
    elif case == "matrix-line-without-cross":
        del record["cross"]
        lines[1] = json.dumps(record)
    elif case in BAD_MATRIX_HEADERS:
        fields, fault = BAD_MATRIX_HEADERS[case]
        lines[0] = json.dumps({**json.loads(lines[0]), **fields})
        line = 1
    elif case == "matrix-second-header":
        lines.append(lines[0])
        line, fault = len(lines), " expected a question record, got 'header'"
    else:
        assert case == "matrix-first-record-not-header"
        del lines[0]
        line, fault = 1, " expected the matrix header with record 'header', got 'question'"
    bad = tmp / "matrix.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return (["sweep", "--corpus", str(corpus), "--matrix", str(bad),
             "--budgets", "50", "--alphas", "0"],
            "IncompleteMatrixError", f"{bad}:{line}:{fault}")


@pytest.mark.parametrize("case", [*BAD_CONFIGS, *BAD_PASSAGE_FIELDS, *BAD_INGEST, *BAD_QUESTIONS,
                                  *BAD_SWEEP_GRIDS, *BAD_MATRIX_HEADERS, *NOT_UTF8,
                                  "corpus-line-not-an-object",
                                  "fusion-weight-for-another-scorer",
                                  "gold-not-a-list", "matrix-line-without-cross",
                                  "corpus-huge-int-line",
                                  "scorer-flag-name-repeated", "sweep-budget-not-an-int",
                                  "sweep-alpha-not-a-number",
                                  "matrix-huge-int-line", "config-huge-int",
                                  "matrix-second-header", "matrix-first-record-not-header"])
def test_cli_process_ends_damaged_input_in_one_error_record(tmp_path, case):
    argv, error, fragment = damaged_run(case, tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "MEMGREP_CONFIG"}
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run([sys.executable, "-m", "memgrep", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    record = json.loads(lines[0])
    assert set(record) == {"error", "message"}
    assert record["error"] == error
    assert fragment in record["message"]


# Values a damaged config node takes: one of each JSON type, and numbers and
# strings that fit no setting (json writes NaN, and reads it back).
_DAMAGE = [None, True, 0, -1, 2.5, float("nan"), 10**30, "", "x", [], [0], {}, {"x": 1}]
_MEMGREP_ERRORS = {name for name, value in vars(errors).items()
                   if isinstance(value, type) and issubclass(value, errors.MemgrepError)}


def _json_paths(node, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_paths(child, (*path, key))


@pytest.fixture(scope="module")
def recorded_configs(tmp_path_factory):
    """The runconfig.json of an oracle run and of a sweep run on the fixture."""
    recorded = {}
    for argv in (["oracle", "--max-states", "500"],
                 ["sweep", "--budgets", "50,100", "--alphas", "0,0.1", "--ceiling", "80"]):
        out = tmp_path_factory.mktemp(argv[0])
        with redirect_stdout(io.StringIO()):
            assert main([*argv, "--corpus", str(fixture_path("corpus.jsonl")), "--questions",
                         str(fixture_path("questions.json")), "--out", str(out)]) == 0
        recorded[argv[0]] = json.loads((out / "runconfig.json").read_text())
    return recorded


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_runconfig_ends_in_a_run_or_one_error_record(recorded_configs,
                                                             tmp_path_factory, data):
    # One node of a recorded config is replaced or deleted, then the file is
    # replayed: the run either ends well or in one typed JSON error record.
    command = data.draw(st.sampled_from(sorted(recorded_configs)))
    doc = copy.deepcopy(recorded_configs[command])
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    damage = data.draw(st.sampled_from(_DAMAGE + ["delete"] * bool(path)))
    if not path:
        doc = damage
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if damage == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = damage
    config = tmp_path_factory.mktemp("damaged") / "config.json"
    config.write_text(json.dumps(doc))
    printed, failed = io.StringIO(), io.StringIO()
    with redirect_stdout(printed), redirect_stderr(failed):
        code = main([command, "--config", str(config)])
    if code == 0:
        assert failed.getvalue() == ""
        return
    assert code == 1
    lines = failed.getvalue().splitlines()
    assert len(lines) == 1, failed.getvalue()
    record = json.loads(lines[0])
    assert set(record) == {"error", "message"}
    assert record["error"] in _MEMGREP_ERRORS, record


@pytest.fixture(scope="module")
def input_documents():
    """Per input file a command reads: the command's argv less the file, the
    file's flag and name, and its fixture document (a JSONL file's records
    as a list)."""
    corpus_path, questions_path = fixture_path("corpus.jsonl"), fixture_path("questions.json")
    corpus = read_corpus(corpus_path)
    matrix = matrix_to_jsonl(build_matrix(load_questions(questions_path, corpus), corpus,
                                          [ScorerHandle(name="lexical")]))
    records = [json.loads(line) for line in corpus_path.read_text(encoding="utf-8").splitlines()]
    questions = json.loads(questions_path.read_text(encoding="utf-8"))
    with_corpus = ["--corpus", str(corpus_path)]
    turns = [{"role": "user", "content": "I went hiking with Javier."},
             {"role": "assistant", "content": "Where did you go?"}]
    return {
        "canonical": (["query", QUERY], "--corpus", "corpus.jsonl", records),
        "questions-eval": (["eval", *with_corpus], "--questions", "questions.json", questions),
        "questions-oracle": (["oracle", *with_corpus], "--questions", "questions.json",
                             questions),
        "matrix": (["sweep", *with_corpus, "--budgets", "50", "--alphas", "0"], "--matrix",
                   "matrix.jsonl", [json.loads(line) for line in matrix.splitlines()]),
        "locomo-like": (["ingest", "--format", "locomo-like"], "--corpus", "raw.json", {
            "conversation": {
                "session_1": [{"speaker": "Melanie", "text": "hello", "dia_id": "D1:3"},
                              {"speaker": "Caroline", "text": "hi there"}],
                "session_1_date_time": "1:14 pm on 8 May, 2023",
                "session_2": [{"speaker": "Melanie", "clean_text": "back again"}]}}),
        "longmemeval-sessions": (["ingest", "--format", "longmemeval-like"], "--corpus",
                                 "raw.json", {"sessions": [
                                     {"session_id": "a", "date": "2023-05-08", "turns": turns},
                                     {"session_id": 7, "turns": turns}]}),
        "longmemeval-haystack": (["ingest", "--format", "longmemeval-like"], "--corpus",
                                 "raw.json", {"haystack_session_ids": ["a", "b"],
                                              "haystack_dates": ["2023-05-08", None],
                                              "haystack_sessions": [turns, turns]}),
        "generic-jsonl": (["ingest", "--format", "generic-jsonl"], "--corpus", "raw.jsonl",
                          [{**turn, "timestamp": "2023-05-08"} for turn in _GENERIC_TURNS]),
    }


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_input_file_ends_in_a_run_or_one_error_record(input_documents,
                                                              tmp_path_factory, data):
    # One node of a fixture input file is replaced or deleted, then the
    # command that reads it runs: it ends well or in one typed JSON error
    # record. A JSONL file's nodes are its lines and what they hold.
    name = data.draw(st.sampled_from(sorted(input_documents)))
    argv, flag, filename, doc = input_documents[name]
    doc = copy.deepcopy(doc)
    jsonl = filename.endswith(".jsonl")
    path = data.draw(st.sampled_from([p for p in _json_paths(doc) if p or not jsonl]))
    damage = data.draw(st.sampled_from(_DAMAGE + ["delete"] * bool(path)))
    if not path:
        doc = damage
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if damage == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = damage
    damaged = tmp_path_factory.mktemp("damaged") / filename
    damaged.write_text("".join(json.dumps(record) + "\n" for record in doc) if jsonl
                       else json.dumps(doc), encoding="utf-8")
    printed, failed = io.StringIO(), io.StringIO()
    with redirect_stdout(printed), redirect_stderr(failed):
        code = main([*argv, flag, str(damaged)])
    if code == 0:
        assert failed.getvalue() == ""
        return
    assert code == 1
    lines = failed.getvalue().splitlines()
    assert len(lines) == 1, failed.getvalue()
    record = json.loads(lines[0])
    assert set(record) == {"error", "message"}
    assert record["error"] in _MEMGREP_ERRORS, (name, path, damage, record)
