"""Operator surface: ingest, query, oracle, eval, and sweep commands.

Configuration comes from defaults, then a JSON config file (--config or the
MEMGREP_CONFIG environment variable), then flags; later sources win key by
key. Every artifact-producing run writes runconfig.json next to its outputs,
artifacts carry no timestamps, and nothing in the pipeline draws randomness,
so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .annotate import Annotator, RuleAnnotator, ServiceAnnotator
from .corpus import (
    INGEST_FORMATS,
    Corpus,
    corpus_metadata,
    corpus_to_jsonl,
    ingest,
    load_questions,
    read_corpus,
)
from .errors import ConfigError, EmptyTermSetError, MemgrepError
from .evaluate import (
    build_matrix,
    matrix_to_jsonl,
    mean_gold_rank,
    ranking_effect,
    read_matrix,
    render_sweep_text,
    run_question,
    simulate_truncation,
    sweep_to_json,
)
from .oracle import SearchLimits, derive_trace, trace_stats, traces_to_jsonl
from .parse import parse_query
from .rank import FusionConfig, LexicalDenseScorer, ScorerHandle
from .retrieve import RetrieveConfig
from .service import ServiceClient
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
    annotator_kind: str = "rules"
    annotator_endpoint: str | None = None
    scorers: list[dict] = field(default_factory=list)
    retrieve: RetrieveConfig = field(default_factory=RetrieveConfig)
    fusion_k: float = 60.0
    fusion_weights: dict[str, float] | None = None
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    out: str | None = None

    def to_record(self) -> dict:
        record = asdict(self)
        del record["out"]
        record["annotator"] = {"kind": record.pop("annotator_kind"),
                               "endpoint": record.pop("annotator_endpoint")}
        record["fusion"] = {"k": record.pop("fusion_k"),
                            "weights": record.pop("fusion_weights")}
        record["deterministic"] = True
        return record


def _load_config_file(path: str | None) -> dict:
    resolved = path or os.environ.get(ENV_CONFIG)
    if not resolved:
        return {}
    file_path = Path(resolved)
    if not file_path.exists():
        raise ConfigError(f"config file not found: {file_path}")
    try:
        doc = json.loads(file_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {file_path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {file_path} must hold a JSON object")
    return doc


def _scorer_from_flag(spec: str, position: int) -> dict:
    name, sep, endpoint = spec.partition("=")
    if not sep or not name or not endpoint:
        raise ConfigError(
            f"bad --scorer {spec!r}; expected name=endpoint "
            "(endpoint 'lexical' for the in-process test scorer)"
        )
    if endpoint == "lexical":
        return {"name": name, "kind": "lexical-test", "endpoint": None}
    kind = "pointwise-cross" if position == 0 else "late-interaction"
    return {"name": name, "kind": kind, "endpoint": endpoint}


def build_run_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(getattr(args, "config", None))

    def pick(flag_value, file_key, default):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(file_key, default)

    retrieve_cfg = dict(file_cfg.get("retrieve", {}))
    mode_flag = getattr(args, "mode", None)
    if mode_flag is not None:
        retrieve_cfg["mode"] = mode_flag.upper()
    retrieve = RetrieveConfig(**retrieve_cfg)

    trunc_file = dict(file_cfg.get("truncation", {}))
    strategy = getattr(args, "strategy", None) or trunc_file.get("strategy", "fixed")
    budget = getattr(args, "budget", None)
    if budget is None:
        budget = trunc_file.get("word_budget")
    alpha = getattr(args, "alpha", None)
    if alpha is None:
        alpha = trunc_file.get("alpha", 0.03)
    top_k = getattr(args, "top_k", None)
    if top_k is None:
        top_k = trunc_file.get("top_k", 60)
    truncation = TruncationConfig(strategy=strategy, word_budget=budget,
                                  alpha=alpha, top_k=top_k)

    annotator_file = file_cfg.get("annotator", {})
    annotator_kind = pick(getattr(args, "annotator", None), "", "") or \
        annotator_file.get("kind", "rules")
    if annotator_kind not in ("rules", "service"):
        raise ConfigError(f"annotator must be rules or service, got {annotator_kind!r}")
    annotator_endpoint = getattr(args, "annotator_endpoint", None) or \
        annotator_file.get("endpoint")
    if annotator_kind == "service" and not annotator_endpoint:
        raise ConfigError("service annotator needs --annotator-endpoint")

    scorer_flags = getattr(args, "scorer", None) or []
    if scorer_flags:
        scorers = [_scorer_from_flag(spec, i) for i, spec in enumerate(scorer_flags)]
    else:
        scorers = list(file_cfg.get("scorers", []))
    if not scorers:
        scorers = [{"name": "lexical", "kind": "lexical-test", "endpoint": None}]
    if len(scorers) > 2:
        raise ConfigError("at most two scorers are supported")

    fusion_file = file_cfg.get("fusion", {})

    return RunConfig(
        corpus=pick(getattr(args, "corpus", None), "corpus", None),
        format=pick(getattr(args, "format", None), "format", CANONICAL_FORMAT),
        questions=pick(getattr(args, "questions", None), "questions", None),
        annotator_kind=annotator_kind,
        annotator_endpoint=annotator_endpoint,
        scorers=scorers,
        retrieve=retrieve,
        fusion_k=float(fusion_file.get("k", 60.0)),
        fusion_weights=fusion_file.get("weights"),
        truncation=truncation,
        out=pick(getattr(args, "out", None), "out", None),
    )


# --- config materialization ---

def _run_parts(cfg: RunConfig
               ) -> tuple[Annotator, list[ScorerHandle], "ServiceClient | LexicalDenseScorer"]:
    """The run's annotator, its scorer handles, and its fallback scorer: the
    first service scorer when one is configured, otherwise the in-process
    lexical scorer, parsing with the run's annotator."""
    if cfg.annotator_kind == "service":
        annotator: Annotator = ServiceAnnotator(cfg.annotator_endpoint)
    else:
        annotator = RuleAnnotator()
    handles = [
        ScorerHandle(name=entry["name"], kind=entry.get("kind", "pointwise-cross"),
                     transport="service-adapter", endpoint=entry["endpoint"])
        if entry.get("endpoint") else ScorerHandle(name=entry["name"])
        for entry in cfg.scorers
    ]
    served = [handle for handle in handles if handle.endpoint]
    dense = served[0].client() if served else LexicalDenseScorer(annotator)
    return annotator, handles, dense


def _fusion_config(cfg: RunConfig, handles: list[ScorerHandle]) -> FusionConfig | None:
    if cfg.fusion_weights:
        return FusionConfig(k=cfg.fusion_k, weights=dict(cfg.fusion_weights))
    if cfg.fusion_k != 60.0 and len(handles) >= 1:
        return FusionConfig.for_scorers(handles, k=cfg.fusion_k)
    return None


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
    annotator, handles, dense = _run_parts(cfg)
    run = run_question(
        query, corpus, handles,
        retrieve_cfg=cfg.retrieve,
        trunc_cfg=cfg.truncation,
        annotator=annotator,
        dense_scorer=dense,
        fusion_cfg=_fusion_config(cfg, handles),
    )
    try:
        terms = [
            {"surface": t.surface, "weight": t.weight, "provenance": t.provenance}
            for t in parse_query(query, annotator).terms
        ]
    except EmptyTermSetError:
        terms = []
    stage_trace = {
        "query": query,
        "query_id": run.candidates.query_id,
        "terms": terms,
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
    annotator, handles, dense = _run_parts(cfg)
    limits = SearchLimits(
        max_states=max_states if max_states is not None else 10_000,
        max_edges=max_edges if max_edges is not None else 100_000,
    )
    # The semantic tool joins the action space only when a real scorer is
    # configured; the lexical stand-in would trivialize every trace.
    if not any(handle.endpoint for handle in handles):
        dense = None
    traces = []
    skipped = 0
    for question in questions:
        if not question.gold_passage_ids:
            skipped += 1
            continue
        traces.append(derive_trace(question.text, question.gold, corpus,
                                   annotator, dense, limits))
    stats = trace_stats(traces)
    stats["skipped_empty_gold"] = skipped
    output = json.dumps(stats, sort_keys=True, ensure_ascii=False, indent=2)
    print(output)
    _write_artifacts(cfg, {
        "traces.jsonl": traces_to_jsonl(traces, limits, dense is not None),
        "oracle_stats.json": output + "\n",
    })
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    corpus = _load_cli_corpus(cfg)
    questions = load_questions(_require(cfg.questions, "--questions"), corpus)
    annotator, handles, dense = _run_parts(cfg)
    matrix = build_matrix(
        questions, corpus, handles,
        retrieve_cfg=cfg.retrieve, annotator=annotator, dense_scorer=dense,
        fusion_cfg=_fusion_config(cfg, handles),
    )
    trunc = cfg.truncation
    if trunc.strategy == "fixed":
        cells = simulate_truncation(matrix, budgets=[trunc.word_budget],
                                    alphas=[], top_k=trunc.top_k)
    else:
        cells = simulate_truncation(matrix, budgets=[], alphas=[trunc.alpha],
                                    top_k=trunc.top_k, ceiling=trunc.word_budget)
    cell = cells[0]
    gold_rank = mean_gold_rank(matrix)
    effect = ranking_effect(matrix)
    report = {
        "corpus_checksum": matrix.corpus_checksum,
        "question_count": len(matrix.records),
        "truncation": {
            "strategy": cell.strategy,
            "budget": cell.budget,
            "alpha": cell.alpha,
            "budget_recall": cell.budget_recall,
            "macro_recall": cell.macro_recall,
            "avg_tokens": cell.avg_tokens,
            "question_count": cell.question_count,
            "retrieval_miss_count": cell.retrieval_miss_count,
            "empty_gold_count": cell.empty_gold_count,
        },
        "mean_gold_rank_fused": {
            "mean_rank": gold_rank.mean_rank,
            "considered": gold_rank.considered,
            "absent": gold_rank.absent,
        },
        "ranking_effect": {
            "mean_rank_by_match": effect.mean_rank_by_match,
            "mean_rank_by_cross": effect.mean_rank_by_cross,
            "considered": effect.considered,
            "absent": effect.absent,
        },
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
    built_here = False
    if matrix_path:
        matrix = read_matrix(matrix_path, corpus)
    else:
        questions = load_questions(_require(cfg.questions, "--questions"), corpus)
        annotator, handles, dense = _run_parts(cfg)
        matrix = build_matrix(
            questions, corpus, handles,
            retrieve_cfg=cfg.retrieve, annotator=annotator, dense_scorer=dense,
            fusion_cfg=_fusion_config(cfg, handles),
        )
        built_here = True
    cells = simulate_truncation(matrix, budgets=budgets, alphas=alphas,
                                top_k=cfg.truncation.top_k, ceiling=ceiling)
    table = render_sweep_text(cells)
    print(table, end="")
    files = {"sweep.txt": table, "sweep.json": sweep_to_json(cells)}
    if built_here:
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


def _add_pipeline(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("or", "and"), help="grep mode")
    parser.add_argument("--strategy", choices=("fixed", "adaptive"),
                        help="truncation strategy")
    parser.add_argument("--budget", type=int, help="word budget / ceiling")
    parser.add_argument("--alpha", type=float, help="adaptive threshold fraction")
    parser.add_argument("--top-k", dest="top_k", type=int,
                        help="adaptive pre-selection size")
    parser.add_argument("--scorer", action="append", metavar="NAME=ENDPOINT",
                        help="scorer (repeatable; endpoint 'lexical' for the "
                             "in-process test scorer)")
    parser.add_argument("--annotator", choices=("rules", "service"))
    parser.add_argument("--annotator-endpoint", dest="annotator_endpoint")


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
    _add_pipeline(p_query)

    p_oracle = sub.add_parser("oracle", help="derive optimal retrieval traces")
    _add_common(p_oracle)
    _add_pipeline(p_oracle)
    p_oracle.add_argument("--questions", help="question/gold annotation file")
    p_oracle.add_argument("--max-states", dest="max_states", type=int)
    p_oracle.add_argument("--max-edges", dest="max_edges", type=int)

    p_eval = sub.add_parser("eval", help="score matrix plus metrics report")
    _add_common(p_eval)
    _add_pipeline(p_eval)
    p_eval.add_argument("--questions", help="question/gold annotation file")

    p_sweep = sub.add_parser("sweep", help="offline budget/alpha grid")
    _add_common(p_sweep)
    _add_pipeline(p_sweep)
    p_sweep.add_argument("--questions", help="question/gold annotation file")
    p_sweep.add_argument("--matrix", help="existing matrix.jsonl artifact")
    p_sweep.add_argument("--budgets", default="1000,2000,3000,4000",
                         help="comma-separated fixed budgets")
    p_sweep.add_argument("--alphas", default="0,0.01,0.03,0.05,0.1",
                         help="comma-separated adaptive alphas")
    p_sweep.add_argument("--ceiling", type=int,
                         help="adaptive ceiling (default: max budget)")
    return parser


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
            budgets = [int(b) for b in args.budgets.split(",") if b != ""]
            alphas = [float(a) for a in args.alphas.split(",") if a != ""]
            return cmd_sweep(cfg, budgets, alphas, args.ceiling, args.matrix)
        raise ConfigError(f"unknown command {args.command!r}")
    except (MemgrepError, ValueError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True, ensure_ascii=False),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
