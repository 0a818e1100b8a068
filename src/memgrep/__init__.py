"""Index-free conversational memory retrieval.

Pipeline: parse a question into weighted terms, retrieve passages by
substring search with entity-guided expansion, rank with reciprocal rank
fusion over one or two scorers, truncate to a word budget, render. A BFS
oracle derives minimal tool-call traces against gold annotations, and the
offline simulator replays truncation policies from a frozen score matrix.
"""

from .annotate import Annotator, RuleAnnotator, TokenAnnotation
from .corpus import (
    Corpus,
    GoldAnnotation,
    Passage,
    Question,
    ingest,
    load_questions,
    read_corpus,
)
from .errors import (
    ConfigError,
    DanglingGoldError,
    DuplicateTurnError,
    EmptyCorpusError,
    MalformedDocumentError,
    MemgrepError,
    PartialResponseError,
    ScorerUnavailableError,
)
from .evaluate import (
    MetricsReport,
    ScoreMatrix,
    build_matrix,
    budget_recall,
    mean_gold_rank,
    ranking_effect,
    read_matrix,
    render_sweep_text,
    run_question,
    simulate_question,
    simulate_truncation,
    write_matrix,
)
from .oracle import OracleTrace, SearchLimits, derive_trace, trace_stats
from .parse import WeightedTerm, WeightedTermSet, parse_query
from .rank import LexicalDenseScorer, ScorerHandle, order_by_score, rank, rrf_fuse
from .retrieve import (Candidate, CandidateSet, RetrieveConfig, candidate_order, grep_search,
                       retrieve)
from .service import ReferenceServer, ServiceClient, parse_endpoint
from .truncate import (
    Context,
    TruncationConfig,
    estimate_tokens,
    render_context,
    truncate_adaptive,
    truncate_fixed,
)

__version__ = "0.1.0"

__all__ = [
    "Annotator",
    "Candidate",
    "CandidateSet",
    "ConfigError",
    "Context",
    "Corpus",
    "DanglingGoldError",
    "DuplicateTurnError",
    "EmptyCorpusError",
    "GoldAnnotation",
    "LexicalDenseScorer",
    "MalformedDocumentError",
    "MemgrepError",
    "MetricsReport",
    "OracleTrace",
    "PartialResponseError",
    "Passage",
    "Question",
    "ReferenceServer",
    "RetrieveConfig",
    "RuleAnnotator",
    "ScoreMatrix",
    "ScorerHandle",
    "ScorerUnavailableError",
    "SearchLimits",
    "ServiceClient",
    "TokenAnnotation",
    "TruncationConfig",
    "WeightedTerm",
    "WeightedTermSet",
    "budget_recall",
    "build_matrix",
    "candidate_order",
    "derive_trace",
    "estimate_tokens",
    "grep_search",
    "ingest",
    "load_questions",
    "mean_gold_rank",
    "order_by_score",
    "parse_endpoint",
    "parse_query",
    "rank",
    "ranking_effect",
    "read_corpus",
    "read_matrix",
    "render_context",
    "render_sweep_text",
    "retrieve",
    "rrf_fuse",
    "run_question",
    "simulate_question",
    "simulate_truncation",
    "trace_stats",
    "truncate_adaptive",
    "truncate_fixed",
    "write_matrix",
]
