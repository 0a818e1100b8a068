"""Operator surface: ingest, query, oracle, eval, and sweep commands.

Configuration comes from the pipeline's config dataclasses' defaults, then a
JSON config file (--config or the MEMGREP_CONFIG environment variable), then
flags; later sources win key by key. The config file has runconfig.json's
shape; one builder walks RunConfig's fields, so a key at any level that names
no field, or a `deterministic` marker that is not true, is rejected. Each
flag's dest names the key it overrides (`truncation.word_budget`, `corpus`).
Every artifact-producing run writes runconfig.json, the record of the
RunConfig that ran, next to its outputs, so passing it back as --config
repeats the run. Artifacts carry no timestamps, and nothing in the pipeline
draws randomness, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .annotate import RuleAnnotator
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
CORPUS_FORMATS = (CANONICAL_FORMAT,) + INGEST_FORMATS


# --- configuration ---

@dataclass
class SweepConfig:
    """The sweep grid: a fixed cut per budget and an adaptive cut per alpha at the
    ceiling (default: the largest budget), over the named matrix or one built."""

    budgets: list[int] = field(default_factory=lambda: [1000, 2000, 3000, 4000])
    alphas: list[float] = field(default_factory=lambda: [0.0, 0.01, 0.03, 0.05, 0.1])
    ceiling: int | None = None
    matrix: str | None = None

    def __post_init__(self) -> None:
        # Each value is checked as the TruncationConfig field it becomes and
        # named by its flag; _build adds the source and the section.
        grid = [("--budgets", "word_budget", int, value) for value in self.budgets]
        grid += [("--alphas", "alpha", float, value) for value in self.alphas]
        if self.ceiling is not None:
            grid.append(("--ceiling", "word_budget", int, self.ceiling))
        for flag, key, kind, value in grid:
            if not _fits(value, kind):
                raise TypeError(f"{flag}: {key} must be {kind.__name__}, got {value!r}")
            try:
                TruncationConfig(**{key: value})
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
        if self.alphas and self.ceiling is None and not self.budgets:
            raise ValueError("--ceiling: adaptive cells need --ceiling or a --budgets grid")


@dataclass
class RunConfig:
    """Everything a command run depends on; serialized next to artifacts."""

    corpus: str | None = None
    format: str = CANONICAL_FORMAT
    questions: str | None = None
    scorers: list[ScorerHandle] = field(default_factory=lambda: [ScorerHandle("lexical")])
    retrieve: RetrieveConfig = field(default_factory=RetrieveConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    oracle: SearchLimits = field(default_factory=SearchLimits)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    out: str | None = None

    def __post_init__(self) -> None:
        if self.format not in CORPUS_FORMATS:
            raise ValueError(f"format must be one of {', '.join(CORPUS_FORMATS)}, "
                             f"got {self.format!r}")

    def to_record(self) -> dict:
        record = asdict(self)
        del record["out"]
        record["deterministic"] = True
        return record


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        doc = json.loads(Path(_require(path, "--config")).read_text(encoding="utf-8"))
    except ValueError as exc:   # a JSONDecodeError, or an int too long to read
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: a bool is not a number,
    an int passes where a float is expected (_build stores it as that float)
    and NaN, Infinity or an int too large for a float does not, and X | None
    also takes null. A list's items are the dataclass's own to check."""
    if get_origin(hint) is list:
        return type(value) is list
    if get_origin(hint) is UnionType:
        return any(_fits(value, arg) for arg in get_args(hint))
    if get_origin(hint) is dict:
        key_hint, value_hint = get_args(hint)
        return isinstance(value, dict) and all(
            _fits(k, key_hint) and _fits(v, value_hint) for k, v in value.items())
    if hint is float:
        return finite_number(value)
    return type(value) is hint


def _as_floats(value, hint):
    """value with each int that stands for a float, in a float field, a float
    list's items or a float dict's values, stored as that float: 0 and 0.0
    are one setting and write the same bytes."""
    if hint is float:
        return float(value) if finite_number(value) else value
    if get_origin(hint) is UnionType:
        for arg in get_args(hint):
            value = _as_floats(value, arg)
    elif get_origin(hint) is list and type(value) is list:
        return [_as_floats(item, get_args(hint)[0]) for item in value]
    elif get_origin(hint) is dict and type(value) is dict:
        return {key: _as_floats(item, get_args(hint)[1]) for key, item in value.items()}
    return value


def _build(cls, values: object, where: str):
    """A `cls` from the JSON object `values`, each key of which must name a
    field of `cls` and fit its annotation: a dataclass-typed field is built
    from its own object, named `where: key`, and the scorer list by
    _scorers. Any failure is a ConfigError naming `where`."""
    if not isinstance(values, dict):
        raise ConfigError(f"{where} must be an object, got {values!r}")
    hints = get_type_hints(cls)
    built = {}
    try:
        for key, value in values.items():
            if key not in hints:
                raise TypeError(f"unknown key {key!r}")
            hint = hints[key]
            if is_dataclass(hint):
                value = _build(hint, value, f"{where}: {key}")
            elif hint == list[ScorerHandle]:
                value = _scorers(value, f"{where}: {key}")
            elif not _fits(value, hint):
                raise TypeError(f"{key} must be {getattr(hint, '__name__', hint)}, got {value!r}")
            built[key] = _as_floats(value, hint)
        return cls(**built)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _scorers(entries: object, where: str) -> list[ScorerHandle]:
    """The handles of one or two scorer entries with distinct names. An
    entry is served when it has an endpoint, and then a pointwise-cross
    scorer unless its kind says otherwise; else it runs in process."""
    if not isinstance(entries, list) or len(entries) not in (1, 2):
        raise ConfigError(f"{where}: expected one or two scorer entries, got {entries!r}")
    scorers = []
    for i, entry in enumerate(entries):
        if isinstance(entry, dict) and entry.get("endpoint"):
            entry = {"kind": "pointwise-cross", **entry}
        scorers.append(_build(ScorerHandle, entry, f"{where}[{i}]"))
    if len(scorers) == 2 and scorers[0].name == scorers[1].name:
        raise ConfigError(f"{where}[1]: scorer name {scorers[1].name!r} repeats {where}[0]")
    return scorers


def _scorer_from_flag(spec: str) -> dict:
    """The scorer entry a --scorer flag gives: its name and its endpoint,
    none for 'lexical'; _scorers then picks the kind as for a file entry."""
    name, sep, endpoint = spec.partition("=")
    if not sep or not name or not endpoint:
        raise ConfigError(f"bad --scorer {spec!r}; expected name=endpoint "
                          "(endpoint 'lexical' for the in-process test scorer)")
    return {"name": name} if endpoint == "lexical" else {"name": name, "endpoint": endpoint}


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """The config file's RunConfig with every flag given laid over the key its
    dest names: a field of RunConfig, or `section.field` for a field of one
    of its sections. A list field's flag holds comma-separated values."""
    path = args.config or os.environ.get(ENV_CONFIG)
    doc = _load_config_file(path)
    source = path or "flags"
    # runconfig.json records its run as deterministic; no RunConfig field holds it.
    if (marker := doc.pop("deterministic", True)) is not True:
        raise ConfigError(f"{source}: deterministic must be true, got {marker!r}")
    if vars(args).get("scorer"):   # flags replace the file's scorers
        doc["scorers"] = [_scorer_from_flag(spec) for spec in args.scorer]
        _scorers(doc["scorers"], "--scorer")   # so that an error names the flag
    hints = get_type_hints(RunConfig)
    for dest, value in vars(args).items():
        name, _, key = dest.partition(".")
        if value is None or name not in hints:
            continue
        if key and get_origin(hint := get_type_hints(hints[name])[key]) is list:
            try:
                value = [get_args(hint)[0](item) for item in value.split(",") if item]
            except ValueError as exc:
                raise ConfigError(f"--{key}: {exc}") from None
        if not key:
            doc[name] = value
        elif isinstance(doc.setdefault(name, {}), dict):   # _build rejects a non-object
            doc[name][key] = value
    return _build(RunConfig, doc, source)


# --- config materialization ---

def _require(path: str | None, flag: str) -> str:
    """The file a path setting names; a path unset or naming no file is a ConfigError."""
    if path is None:
        raise ConfigError(f"missing required value: {flag}")
    if not Path(path).is_file():
        raise ConfigError(f"{flag.lstrip('-')} file not found: {path}")
    return path


def _load_cli_corpus(cfg: RunConfig) -> Corpus:
    path = _require(cfg.corpus, "--corpus")
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
        raise ConfigError(f"ingest needs --format from {', '.join(INGEST_FORMATS)}")
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
        annotator=RuleAnnotator(),
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


def cmd_oracle(cfg: RunConfig) -> int:
    corpus = _load_cli_corpus(cfg)
    questions = load_questions(_require(cfg.questions, "--questions"), corpus)
    annotator = RuleAnnotator()
    asked = [question for question in questions if question.gold_passage_ids]
    traces = [derive_trace(q.text, q.gold, corpus, annotator, cfg.scorers, cfg.oracle)
              for q in asked]
    stats = trace_stats(traces)
    stats["skipped_empty_gold"] = len(questions) - len(asked)
    output = json.dumps(stats, sort_keys=True, ensure_ascii=False, indent=2)
    print(output)
    _write_artifacts(cfg, {
        "traces.jsonl": traces_to_jsonl(traces, cfg.oracle, offers_semantic_tool(cfg.scorers)),
        "oracle_stats.json": output + "\n",
    })
    return 0


def _build_cli_matrix(cfg: RunConfig, corpus: Corpus) -> ScoreMatrix:
    """The score matrix of the run's questions over `corpus`."""
    questions = load_questions(_require(cfg.questions, "--questions"), corpus)
    return build_matrix(
        questions, corpus, cfg.scorers, retrieve_cfg=cfg.retrieve,
        annotator=RuleAnnotator(), fusion_cfg=cfg.fusion,
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


def cmd_sweep(cfg: RunConfig) -> int:
    corpus = _load_cli_corpus(cfg)
    grid = cfg.sweep
    matrix = (read_matrix(_require(grid.matrix, "--matrix"), corpus) if grid.matrix
              else _build_cli_matrix(cfg, corpus))
    cells = simulate_truncation(matrix, budgets=grid.budgets, alphas=grid.alphas,
                                top_k=cfg.truncation.top_k, ceiling=grid.ceiling)
    table = render_sweep_text(cells)
    print(table, end="")
    files = {"sweep.txt": table, "sweep.json": sweep_to_json(cells)}
    if not grid.matrix:
        files["matrix.jsonl"] = matrix_to_jsonl(matrix)
    _write_artifacts(cfg, files)
    return 0


# --- argument parsing ---

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (or set MEMGREP_CONFIG)")
    parser.add_argument("--corpus", help="corpus file")
    parser.add_argument("--format",
                        choices=CORPUS_FORMATS,
                        help="corpus file format (default: canonical)")
    parser.add_argument("--out", help="directory for output artifacts")


def _add_pipeline(parser: argparse.ArgumentParser, *, ranks: bool, cuts: bool) -> None:
    """Scorer flags; with ranks, the grep mode and adaptive pre-selection
    size; with cuts, the one truncation cut query and eval make."""
    parser.add_argument("--scorer", action="append", metavar="NAME=ENDPOINT",
                        help="scorer (repeatable; endpoint 'lexical' for the "
                             "in-process test scorer)")
    if ranks:
        parser.add_argument("--mode", dest="retrieve.mode", type=str.upper,
                            choices=("OR", "AND"), help="grep mode")
        parser.add_argument("--top-k", dest="truncation.top_k", type=int,
                            help="adaptive pre-selection size")
    if cuts:
        parser.add_argument("--strategy", dest="truncation.strategy",
                            choices=("fixed", "adaptive"), help="truncation strategy")
        parser.add_argument("--budget", dest="truncation.word_budget", type=int,
                            help="word budget / ceiling")
        parser.add_argument("--alpha", dest="truncation.alpha", type=float,
                            help="adaptive threshold fraction")


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
    p_oracle.add_argument("--max-states", dest="oracle.max_states", type=int)
    p_oracle.add_argument("--max-edges", dest="oracle.max_edges", type=int)

    p_eval = sub.add_parser("eval", help="score matrix plus metrics report")
    _add_common(p_eval)
    _add_pipeline(p_eval, ranks=True, cuts=True)
    p_eval.add_argument("--questions", help="question/gold annotation file")

    p_sweep = sub.add_parser("sweep", help="offline budget/alpha grid")
    _add_common(p_sweep)
    _add_pipeline(p_sweep, ranks=True, cuts=False)
    p_sweep.add_argument("--questions", help="question/gold annotation file")
    p_sweep.add_argument("--matrix", dest="sweep.matrix", help="existing matrix.jsonl artifact")
    p_sweep.add_argument("--budgets", dest="sweep.budgets", help="comma-separated fixed "
                         f"budgets (default: {','.join(map(str, SweepConfig().budgets))})")
    p_sweep.add_argument("--alphas", dest="sweep.alphas", help="comma-separated adaptive "
                         f"alphas (default: {','.join(map(str, SweepConfig().alphas))})")
    p_sweep.add_argument("--ceiling", dest="sweep.ceiling", type=int,
                         help="adaptive ceiling (default: max budget)")
    # Flags are spelled in full: an abbreviation could silently take another
    # flag's meaning (sweep's --budget would read as --budgets).
    for command in sub.choices.values():
        command.allow_abbrev = False
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_run_config(args)
        if args.command == "query":
            return cmd_query(cfg, args.query_text)
        commands = {"ingest": cmd_ingest, "oracle": cmd_oracle, "eval": cmd_eval,
                    "sweep": cmd_sweep}
        return commands[args.command](cfg)
    except (MemgrepError, ValueError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True, ensure_ascii=False),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
