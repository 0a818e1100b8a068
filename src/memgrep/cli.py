"""Operator surface: ingest, query, oracle, eval, and sweep commands.

Configuration comes from the pipeline's config dataclasses' defaults, then a
JSON config file (--config or the MEMGREP_CONFIG environment variable), then
flags; later sources win key by key. The config file has runconfig.json's
shape, and each flag overrides one key of its section. Every
artifact-producing run writes runconfig.json, the record of the RunConfig
that ran, next to its outputs, so passing it back as --config repeats the
run. Artifacts carry no timestamps, and nothing in the pipeline draws
randomness, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .annotate import AnnotatorConfig
from .corpus import (
    INGEST_FORMATS,
    Corpus,
    corpus_metadata,
    corpus_to_jsonl,
    ingest,
    load_questions,
    read_corpus,
)
from .errors import ConfigError, MemgrepError
from .evaluate import (
    ScoreMatrix,
    build_matrix,
    matrix_to_jsonl,
    mean_gold_rank,
    ranking_effect,
    read_matrix,
    render_sweep_text,
    run_question,
    simulate_cell,
    simulate_truncation,
    sweep_to_json,
)
from .oracle import (SearchLimits, derive_trace, offers_semantic_tool, trace_stats,
                     traces_to_jsonl)
from .rank import FusionConfig, ScorerHandle
from .retrieve import RetrieveConfig
from .service import finite_number
from .truncate import TruncationConfig

ENV_CONFIG = "MEMGREP_CONFIG"
CANONICAL_FORMAT = "canonical"


# --- configuration ---

@dataclass
class RunConfig:
    """Everything a command run depends on; serialized next to artifacts."""

    corpus: str | None = None
    format: str = CANONICAL_FORMAT
    questions: str | None = None
    annotator: AnnotatorConfig = field(default_factory=AnnotatorConfig)
    scorers: list[ScorerHandle] = field(default_factory=lambda: [ScorerHandle("lexical")])
    retrieve: RetrieveConfig = field(default_factory=RetrieveConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    out: str | None = None

    def to_record(self) -> dict:
        record = asdict(self)
        del record["out"]
        record["deterministic"] = True
        return record


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    file_path = Path(path)
    if not file_path.exists():
        raise ConfigError(f"config file not found: {file_path}")
    try:
        doc = json.loads(file_path.read_text(encoding="utf-8"))
    except ValueError as exc:   # a JSONDecodeError, or an int too long to read
        raise ConfigError(f"config file {file_path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {file_path} must hold a JSON object")
    return doc


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: a bool is not a number,
    an int passes where a float is expected and NaN, Infinity or an int too
    large for a float does not, and X | None also takes null."""
    if get_origin(hint) is UnionType:
        return any(_fits(value, arg) for arg in get_args(hint))
    if get_origin(hint) is dict:
        key_hint, value_hint = get_args(hint)
        return isinstance(value, dict) and all(
            _fits(k, key_hint) and _fits(v, value_hint) for k, v in value.items())
    if hint is float:
        return finite_number(value)
    return type(value) is hint


def _build(cls, values: dict, where: str):
    """A `cls` from `values`, each of which must name a field of `cls` and
    fit its annotation; any failure is a ConfigError naming `where`."""
    hints = get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    try:
        for key, value in values.items():
            if key not in names:
                raise TypeError(f"unknown key {key!r}")
            if not _fits(value, hints[key]):
                hint = getattr(hints[key], "__name__", hints[key])
                raise TypeError(f"{key} must be {hint}, got {value!r}")
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _section(cls, doc: dict, name: str, source: str, **flags):
    """The `name` section as a `cls`: the flags that were given, laid over
    the file's section, laid over the dataclass defaults."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{source}: {name} must be an object, got {section!r}")
    given = {key: value for key, value in flags.items() if value is not None}
    return _build(cls, {**section, **given}, f"{source}: {name}")


def _scorer(entry: object, where: str) -> ScorerHandle:
    """The handle a scorer entry names: served when it has an endpoint (a
    pointwise-cross scorer unless its kind says otherwise), else in process."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: a scorer entry must be an object, got {entry!r}")
    kind = "pointwise-cross" if entry.get("endpoint") else ScorerHandle.kind
    return _build(ScorerHandle, {"kind": kind, **entry}, where)


def _scorer_from_flag(spec: str) -> dict:
    """The scorer entry a --scorer flag gives: its name and its endpoint,
    none for 'lexical'; _scorer then picks the kind as for a file entry."""
    name, sep, endpoint = spec.partition("=")
    if not sep or not name or not endpoint:
        raise ConfigError(
            f"bad --scorer {spec!r}; expected name=endpoint "
            "(endpoint 'lexical' for the in-process test scorer)"
        )
    return {"name": name} if endpoint == "lexical" else {"name": name, "endpoint": endpoint}


def build_run_config(args: argparse.Namespace) -> RunConfig:
    flag = vars(args).get
    path = flag("config") or os.environ.get(ENV_CONFIG)
    doc = _load_config_file(path)
    source = path or "flags"

    if flag("scorer"):
        entries = [_scorer_from_flag(spec) for spec in flag("scorer")]
        where = "--scorer"
    else:
        entries = doc.get("scorers") or []
        where = f"{source}: scorers"
        if not isinstance(entries, list):
            raise ConfigError(f"{where} must be a list, got {entries!r}")
    if len(entries) > 2:
        raise ConfigError("at most two scorers are supported")
    scorers = [_scorer(entry, f"{where}[{i}]") for i, entry in enumerate(entries)]
    if len(scorers) == 2 and scorers[0].name == scorers[1].name:
        raise ConfigError(f"{where}[1]: scorer name {scorers[1].name!r} repeats {where}[0]")

    top_level = {"scorers": scorers} if scorers else {}
    for key in ("corpus", "format", "questions", "out"):
        value = flag(key) if flag(key) is not None else doc.get(key)
        if not isinstance(value, (str, type(None))):
            raise ConfigError(f"{source}: {key} must be a string, got {value!r}")
        if value is not None:
            top_level[key] = value
    mode = flag("mode")

    return RunConfig(
        **top_level,
        annotator=_section(AnnotatorConfig, doc, "annotator", source,
                           endpoint=flag("annotator_endpoint")),
        retrieve=_section(RetrieveConfig, doc, "retrieve", source,
                          mode=mode.upper() if mode else None),
        fusion=_section(FusionConfig, doc, "fusion", source),
        truncation=_section(TruncationConfig, doc, "truncation", source,
                            strategy=flag("strategy"), word_budget=flag("budget"),
                            alpha=flag("alpha"), top_k=flag("top_k")),
    )


# --- config materialization ---

def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"missing required value: {flag}")
    return value


def _load_cli_corpus(cfg: RunConfig) -> Corpus:
    path = _require(cfg.corpus, "--corpus")
    if not Path(path).exists():
        raise ConfigError(f"corpus file not found: {path}")
    if cfg.format == CANONICAL_FORMAT:
        return read_corpus(path)
    return ingest(path, cfg.format)


def _write_artifacts(cfg: RunConfig, files: dict[str, str]) -> None:
    if cfg.out is None:
        return
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = json.dumps(cfg.to_record(), sort_keys=True, ensure_ascii=False,
                        indent=2) + "\n"
    (out_dir / "runconfig.json").write_text(record, encoding="utf-8")
    for name, content in files.items():
        (out_dir / name).write_text(content, encoding="utf-8")


# --- commands ---

def cmd_ingest(cfg: RunConfig) -> int:
    if cfg.format not in INGEST_FORMATS:
        raise ConfigError(
            f"ingest needs --format from {', '.join(INGEST_FORMATS)}"
        )
    corpus = ingest(_require(cfg.corpus, "--corpus"), cfg.format)
    meta = corpus_metadata(corpus)
    files = {
        "corpus.jsonl": corpus_to_jsonl(corpus),
        "corpus.meta.json": json.dumps(meta, sort_keys=True,
                                       ensure_ascii=False, indent=2) + "\n",
    }
    _write_artifacts(cfg, files)
    print(json.dumps(meta, sort_keys=True, ensure_ascii=False))
    return 0


def cmd_query(cfg: RunConfig, query: str) -> int:
    corpus = _load_cli_corpus(cfg)
    run = run_question(
        query, corpus, cfg.scorers,
        retrieve_cfg=cfg.retrieve,
        trunc_cfg=cfg.truncation,
        annotator=cfg.annotator.build(),
        fusion_cfg=cfg.fusion,
    )
    stage_trace = {
        "query": query,
        "query_id": run.candidates.query_id,
        "terms": [{"surface": t.surface, "weight": t.weight, "provenance": t.provenance}
                  for t in run.candidates.terms],
        "hops_executed": run.candidates.hops_executed,
        "candidate_count": len(run.candidates),
        "warnings": list(run.candidates.warnings),
        "ranked_count": len(run.ranked) if run.ranked is not None else 0,
        "pruned_by_threshold": run.context.pruned_by_threshold,
        "pruned_by_budget": run.context.pruned_by_budget,
        "context_passage_ids": list(run.context.passage_ids),
        "word_count": run.context.word_count,
        "estimated_tokens": run.context.estimated_tokens,
    }
    output = json.dumps(stage_trace, sort_keys=True, ensure_ascii=False, indent=2)
    print(output)
    if run.rendered:
        print()
        print(run.rendered)
    _write_artifacts(cfg, {
        "query_trace.json": output + "\n",
        "context.txt": run.rendered + ("\n" if run.rendered else ""),
    })
    return 0


def cmd_oracle(cfg: RunConfig, max_states: int | None, max_edges: int | None) -> int:
    corpus = _load_cli_corpus(cfg)
    questions = load_questions(_require(cfg.questions, "--questions"), corpus)
    annotator = cfg.annotator.build()
    limits = _section(SearchLimits, {}, "search limits", "flags",
                      max_states=max_states, max_edges=max_edges)
    traces = []
    skipped = 0
    for question in questions:
        if not question.gold_passage_ids:
            skipped += 1
            continue
        traces.append(derive_trace(question.text, question.gold, corpus,
                                   annotator, cfg.scorers, limits))
    stats = trace_stats(traces)
    stats["skipped_empty_gold"] = skipped
    output = json.dumps(stats, sort_keys=True, ensure_ascii=False, indent=2)
    print(output)
    _write_artifacts(cfg, {
        "traces.jsonl": traces_to_jsonl(traces, limits, offers_semantic_tool(cfg.scorers)),
        "oracle_stats.json": output + "\n",
    })
    return 0


def _build_cli_matrix(cfg: RunConfig, corpus: Corpus) -> ScoreMatrix:
    """The score matrix of the run's questions over `corpus`."""
    questions = load_questions(_require(cfg.questions, "--questions"), corpus)
    return build_matrix(
        questions, corpus, cfg.scorers, retrieve_cfg=cfg.retrieve,
        annotator=cfg.annotator.build(), fusion_cfg=cfg.fusion,
    )


def cmd_eval(cfg: RunConfig) -> int:
    matrix = _build_cli_matrix(cfg, _load_cli_corpus(cfg))
    truncation = asdict(simulate_cell(matrix, cfg.truncation))
    del truncation["per_question"]
    report = {
        "corpus_checksum": matrix.corpus_checksum,
        "question_count": len(matrix.records),
        "truncation": truncation,
        "mean_gold_rank_fused": asdict(mean_gold_rank(matrix)),
        "ranking_effect": asdict(ranking_effect(matrix)),
    }
    output = json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2)
    print(output)
    _write_artifacts(cfg, {
        "matrix.jsonl": matrix_to_jsonl(matrix),
        "eval_report.json": output + "\n",
    })
    return 0


def cmd_sweep(
    cfg: RunConfig,
    budgets: list[int],
    alphas: list[float],
    ceiling: int | None,
    matrix_path: str | None,
) -> int:
    corpus = _load_cli_corpus(cfg)
    matrix = (read_matrix(matrix_path, corpus) if matrix_path
              else _build_cli_matrix(cfg, corpus))
    cells = simulate_truncation(matrix, budgets=budgets, alphas=alphas,
                                top_k=cfg.truncation.top_k, ceiling=ceiling)
    table = render_sweep_text(cells)
    print(table, end="")
    files = {"sweep.txt": table, "sweep.json": sweep_to_json(cells)}
    if not matrix_path:
        files["matrix.jsonl"] = matrix_to_jsonl(matrix)
    _write_artifacts(cfg, files)
    return 0


# --- argument parsing ---

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (or set MEMGREP_CONFIG)")
    parser.add_argument("--corpus", help="corpus file")
    parser.add_argument("--format",
                        choices=(CANONICAL_FORMAT,) + INGEST_FORMATS,
                        help="corpus file format (default: canonical)")
    parser.add_argument("--out", help="directory for output artifacts")


def _add_pipeline(parser: argparse.ArgumentParser, *, ranks: bool, cuts: bool) -> None:
    """Scorer and annotator flags; with ranks, the grep mode and adaptive
    pre-selection size; with cuts, the one truncation cut query and eval make."""
    parser.add_argument("--scorer", action="append", metavar="NAME=ENDPOINT",
                        help="scorer (repeatable; endpoint 'lexical' for the "
                             "in-process test scorer)")
    parser.add_argument("--annotator-endpoint", dest="annotator_endpoint",
                        help="service annotator (default: the rule annotator)")
    if ranks:
        parser.add_argument("--mode", choices=("or", "and"), help="grep mode")
        parser.add_argument("--top-k", dest="top_k", type=int,
                            help="adaptive pre-selection size")
    if cuts:
        parser.add_argument("--strategy", choices=("fixed", "adaptive"),
                            help="truncation strategy")
        parser.add_argument("--budget", type=int, help="word budget / ceiling")
        parser.add_argument("--alpha", type=float, help="adaptive threshold fraction")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memgrep",
        description="Index-free conversational memory retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="normalize a raw dataset file")
    _add_common(p_ingest)

    p_query = sub.add_parser("query", help="run the full pipeline for one query")
    p_query.add_argument("query_text", help="the query")
    _add_common(p_query)
    _add_pipeline(p_query, ranks=True, cuts=True)

    p_oracle = sub.add_parser("oracle", help="derive optimal retrieval traces")
    _add_common(p_oracle)
    _add_pipeline(p_oracle, ranks=False, cuts=False)
    p_oracle.add_argument("--questions", help="question/gold annotation file")
    p_oracle.add_argument("--max-states", dest="max_states", type=int)
    p_oracle.add_argument("--max-edges", dest="max_edges", type=int)

    p_eval = sub.add_parser("eval", help="score matrix plus metrics report")
    _add_common(p_eval)
    _add_pipeline(p_eval, ranks=True, cuts=True)
    p_eval.add_argument("--questions", help="question/gold annotation file")

    p_sweep = sub.add_parser("sweep", help="offline budget/alpha grid")
    _add_common(p_sweep)
    _add_pipeline(p_sweep, ranks=True, cuts=False)
    p_sweep.add_argument("--questions", help="question/gold annotation file")
    p_sweep.add_argument("--matrix", help="existing matrix.jsonl artifact")
    p_sweep.add_argument("--budgets", default="1000,2000,3000,4000",
                         help="comma-separated fixed budgets")
    p_sweep.add_argument("--alphas", default="0,0.01,0.03,0.05,0.1",
                         help="comma-separated adaptive alphas")
    p_sweep.add_argument("--ceiling", type=int,
                         help="adaptive ceiling (default: max budget)")
    # Flags are spelled in full: an abbreviation could silently take another
    # flag's meaning (sweep's --budget would read as --budgets).
    for command in sub.choices.values():
        command.allow_abbrev = False
    return parser


def _grid(values: str, flag: str, kind: type) -> list:
    try:  # a value that `kind` cannot read is a ConfigError naming the flag
        return [kind(value) for value in values.split(",") if value]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_run_config(args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "query":
            return cmd_query(cfg, args.query_text)
        if args.command == "oracle":
            return cmd_oracle(cfg, args.max_states, args.max_edges)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "sweep":
            budgets = _grid(args.budgets, "--budgets", int)
            alphas = _grid(args.alphas, "--alphas", float)
            return cmd_sweep(cfg, budgets, alphas, args.ceiling, args.matrix)
        raise ConfigError(f"unknown command {args.command!r}")
    except (MemgrepError, ValueError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True, ensure_ascii=False),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
