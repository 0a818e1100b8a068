"""Command-line surface: artifacts, config precedence, error records."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from memgrep.annotate import AnnotatorConfig
from memgrep.cli import build_run_config, main, make_parser
from memgrep.corpus import load_questions, read_corpus
from memgrep.evaluate import build_matrix, matrix_to_jsonl
from memgrep.rank import FusionConfig, ScorerHandle
from memgrep.retrieve import RetrieveConfig
from memgrep.truncate import TruncationConfig

from conftest import fixture_path

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
    "nan-cross", "string-match", "bool-cross", "huge-int-cross",
    "gold-not-a-list", "missing-not-a-list",
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
    # The annotator kind comes from the flag or annotator.kind, never from a
    # top-level key.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"": "service", "corpus": fix_corpus}))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "query", "Where did Javier go hiking?",
                           "--config", str(config), "--out", str(out_dir))
    assert code == 0, err
    runconfig = json.loads((out_dir / "runconfig.json").read_text())
    assert runconfig["annotator"] == {"kind": "rules", "endpoint": None}


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
    ["oracle", "--mode", "and"],
    ["sweep", "--budget", "5"],             # the sweep takes --budgets
])
def test_commands_take_only_the_flags_they_read(argv, capsys):
    with pytest.raises(SystemExit):
        make_parser().parse_args(argv)


def test_build_run_config_defaults():
    args = make_parser().parse_args(["query", "x"])
    cfg = build_run_config(args)
    assert cfg.retrieve.mode == "OR"
    assert cfg.truncation.strategy == "fixed"
    assert cfg.truncation.word_budget == 2000
    assert cfg.scorers == [ScorerHandle(name="lexical", kind="lexical-test", endpoint=None)]
    # Every section's defaults are the section dataclass's own.
    assert (cfg.annotator, cfg.retrieve, cfg.fusion, cfg.truncation) == (
        AnnotatorConfig(), RetrieveConfig(), FusionConfig(), TruncationConfig())


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


@pytest.mark.parametrize("strategy", ["fixed", "adaptive"])
def test_runconfig_passed_back_as_config_repeats_the_run(capsys, tmp_path, fix_corpus,
                                                         strategy):
    first, second = tmp_path / "first", tmp_path / "second"
    code, _, _ = run_cli(capsys, "query", QUERY, "--corpus", fix_corpus,
                         "--strategy", strategy, "--out", str(first))
    assert code == 0
    code, _, err = run_cli(capsys, "query", QUERY, "--config",
                           str(first / "runconfig.json"), "--out", str(second))
    assert code == 0, err
    for name in ("runconfig.json", "query_trace.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


# Config files that name a bad section or scorer entry, with the section or
# entry the error must name.
BAD_CONFIGS = {
    "retrieve-unknown-key": ({"retrieve": {"bogus": 1}}, "retrieve"),
    "truncation-budget-not-a-number": ({"truncation": {"word_budget": "abc"}},
                                       "truncation"),
    "scorer-not-an-object": ({"scorers": ["x"]}, "scorers[0]"),
    "scorer-without-name": ({"scorers": [{"endpoint": "tcp:x:1"}]}, "scorers[0]"),
    "annotator-not-an-object": ({"annotator": "rules"}, "annotator"),
    "truncation-unknown-key": ({"truncation": {"bogus": 3}}, "truncation"),
    "fusion-unknown-key": ({"fusion": {"bogus": 3}}, "fusion"),
    "in-process-cross-scorer": ({"scorers": [{"name": "x", "kind": "pointwise-cross"}]},
                                "scorers[0]"),
    # Values of the wrong type: a bool is not a number, and an int field
    # takes no fraction.
    "retrieve-top-m-not-an-int": ({"retrieve": {"entity_hop_source_top_m": "x"}},
                                  "retrieve"),
    "retrieve-fractional-max-hops": ({"retrieve": {"max_hops": 2.5}}, "retrieve"),
    "retrieve-prf-enabled-not-a-bool": ({"retrieve": {"prf_enabled": "no"}}, "retrieve"),
    "truncation-fractional-budget": ({"truncation": {"word_budget": 10.5}}, "truncation"),
    "fusion-bool-k": ({"fusion": {"k": True}}, "fusion"),
    "fusion-bool-weight": ({"fusion": {"weights": {"lexical": True}}}, "fusion"),
    # Python's json reads NaN and Infinity as floats.
    "fusion-nan-weight": ({"fusion": {"weights": {"lexical": float("nan")}}}, "fusion"),
    "fusion-infinite-k": ({"fusion": {"k": float("inf")}}, "fusion"),
    "annotator-endpoint-not-a-string": ({"annotator": {"endpoint": 5}}, "annotator"),
    # transport is not part of a scorer entry; the endpoint decides it.
    "scorer-with-transport": ({"scorers": [{"name": "x", "transport": "in-process"}]},
                              "scorers[0]"),
}


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
    if case == "corpus-line-not-an-object":
        lines = corpus.read_text(encoding="utf-8").splitlines()
        bad = tmp / "corpus.jsonl"
        bad.write_text("\n".join(lines + ["[1, 2]"]) + "\n", encoding="utf-8")
        return (["query", QUERY, "--corpus", str(bad)],
                "MalformedDocumentError", f"{bad}:{len(lines) + 1}:")
    if case == "fusion-weight-for-another-scorer":
        config = tmp / "config.json"
        config.write_text(json.dumps({"fusion": {"weights": {"lexical": 1.0, "other": 2.0}}}))
        return (["query", QUERY, "--corpus", str(corpus), "--config", str(config)],
                "UnknownScorerError", "'other'")
    if case == "gold-not-a-list":
        bad = tmp / "questions.json"
        bad.write_text(json.dumps([{"question_id": "q1", "gold_passage_ids": "s1:2"}]))
        return (["eval", "--corpus", str(corpus), "--questions", str(bad)],
                "MalformedDocumentError", "gold_passage_ids must be a list")
    if case == "sweep-zero-budget":
        return (["sweep", "--corpus", str(corpus), "--questions", str(questions),
                 "--budgets", "0", "--alphas", ""],
                "ValueError", "word_budget must be positive")
    assert case == "matrix-line-without-cross"
    loaded = read_corpus(corpus)
    matrix = build_matrix(load_questions(questions, loaded), loaded,
                          [ScorerHandle(name="lexical")])
    lines = matrix_to_jsonl(matrix).splitlines()
    record = json.loads(lines[1])
    del record["cross"]
    lines[1] = json.dumps(record)
    bad = tmp / "matrix.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return (["sweep", "--corpus", str(corpus), "--matrix", str(bad),
             "--budgets", "50", "--alphas", "0"],
            "IncompleteMatrixError", f"{bad}:2:")


@pytest.mark.parametrize("case", [*BAD_CONFIGS, "corpus-line-not-an-object",
                                  "fusion-weight-for-another-scorer",
                                  "gold-not-a-list", "matrix-line-without-cross",
                                  "sweep-zero-budget"])
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
