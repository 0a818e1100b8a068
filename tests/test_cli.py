"""Command-line surface: artifacts, config precedence, error records."""

import hashlib
import json

import pytest

from memgrep.cli import build_run_config, main, make_parser
from memgrep.corpus import read_corpus

from conftest import fixture_path


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


@pytest.mark.parametrize("damage", ["drop-render-lens", "not-json"])
def test_sweep_on_damaged_matrix_yields_error_record(capsys, tmp_path, fix_corpus,
                                                     fix_questions, damage):
    eval_dir = tmp_path / "eval"
    run_cli(capsys, "eval", "--corpus", fix_corpus, "--questions", fix_questions,
            "--out", str(eval_dir))
    matrix = eval_dir / "matrix.jsonl"
    lines = matrix.read_text().splitlines()
    if damage == "drop-render-lens":
        record = json.loads(lines[1])
        del record["render_lens"]
        lines[1] = json.dumps(record)
    else:
        lines[1] = lines[1][:-1]
    matrix.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "sweep", "--corpus", fix_corpus, "--matrix", str(matrix),
        "--budgets", "50", "--alphas", "0",
    )
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "IncompleteMatrixError"
    assert f"{matrix}:2:" in record["message"]


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


def test_build_run_config_defaults():
    args = make_parser().parse_args(["query", "x"])
    cfg = build_run_config(args)
    assert cfg.retrieve.mode == "OR"
    assert cfg.truncation.strategy == "fixed"
    assert cfg.truncation.word_budget == 2000
    assert cfg.scorers == [{"name": "lexical", "kind": "lexical-test",
                            "endpoint": None}]
