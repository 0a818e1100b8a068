"""Stage 4: compile a ranking into a context that fits a word budget.

Two strategies. Fixed: walk the ranking, keep every passage that still fits,
skip the ones that do not, and keep walking (an oversize passage never blocks
the rest). Adaptive: pre-select the top-K by fused score, prune everything
whose cross score falls below tau = alpha * max cross score, then apply the
fixed walk at a ceiling budget.

Both strategies run through the same stats-level core functions, and the
offline simulator in evaluate.py calls those same functions with stored
numbers, so simulated and live contexts cannot drift apart.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .corpus import Corpus, Passage
from .errors import MissingScoreError
from .rank import RankedList, ScoreVector

DEFAULT_FIXED_BUDGET = 2000
DEFAULT_ADAPTIVE_CEILING = 4000
DEFAULT_ALPHA = 0.03
DEFAULT_TOP_K = 60
CHARS_PER_TOKEN = 4


@dataclass(frozen=True)
class TruncationConfig:
    strategy: str = "fixed"
    word_budget: int | None = None
    alpha: float = DEFAULT_ALPHA
    top_k: int = DEFAULT_TOP_K

    def __post_init__(self) -> None:
        if self.strategy not in ("fixed", "adaptive"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.word_budget is None:
            budget = (DEFAULT_FIXED_BUDGET if self.strategy == "fixed"
                      else DEFAULT_ADAPTIVE_CEILING)
            object.__setattr__(self, "word_budget", budget)
        if self.word_budget <= 0:
            raise ValueError("word_budget must be positive")
        # alpha = 0 switches the threshold off entirely (used by sweep grids
        # as the fixed-equivalence limit); negative alpha is meaningless.
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha must lie in [0, 1)")
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")


@dataclass(frozen=True)
class Context:
    passage_ids: tuple[str, ...]
    word_count: int
    estimated_tokens: int
    pruned_by_threshold: int
    pruned_by_budget: int


@dataclass(frozen=True, slots=True)
class PassageStats:
    """The three numbers truncation actually needs from a passage."""

    passage_id: str
    word_count: int
    render_len: int


# --- rendering (bit-exact: downstream token counts depend on it) ---

def render_block(passage: Passage) -> str:
    header = f"[{passage.id}] {passage.speaker}"
    if passage.timestamp is not None:
        header += f" ({passage.timestamp})"
    return f"{header}:\n{passage.text}"


def render_context(passage_ids: tuple[str, ...] | list[str],
                   corpus: Corpus) -> str:
    return "\n\n".join(render_block(corpus.get(pid)) for pid in passage_ids)


def estimate_tokens(rendered: str) -> int:
    return math.ceil(len(rendered) / CHARS_PER_TOKEN)


def word_count(passage: Passage) -> int:
    return len(passage.text.split())


def stats_for(passage: Passage) -> PassageStats:
    return PassageStats(
        passage_id=passage.id,
        word_count=word_count(passage),
        render_len=len(render_block(passage)),
    )


def tokens_from_stats(included: list[PassageStats]) -> int:
    """Token estimate of the rendered context, computed from stored lengths.

    Matches estimate_tokens(render_context(...)) exactly: block lengths plus
    two newline characters between consecutive blocks.
    """
    if not included:
        return 0
    total = sum(s.render_len for s in included) + 2 * (len(included) - 1)
    return math.ceil(total / CHARS_PER_TOKEN)


# --- stats-level cores (shared with the offline simulator) ---

def fixed_over_stats(
    stats: Sequence[PassageStats], budget_words: int
) -> tuple[list[PassageStats], int, int]:
    """Greedy skip-and-continue walk. Returns (included, words, pruned)."""
    included: list[PassageStats] = []
    total = 0
    pruned = 0
    for stat in stats:
        if total + stat.word_count <= budget_words:
            included.append(stat)
            total += stat.word_count
        else:
            pruned += 1
    return included, total, pruned


def adaptive_over_stats(
    stats: Sequence[PassageStats],
    cross: dict[str, float],
    cfg: TruncationConfig,
) -> tuple[list[PassageStats], int, int, int]:
    """Top-K cut, threshold prune, budget walk.

    Returns (included, words, pruned_by_threshold, pruned_by_budget). The
    threshold is skipped when alpha is 0 or the max cross score is
    non-positive: a fraction of a negative maximum would invert the pruning
    direction.
    """
    kept = stats[:cfg.top_k]
    pruned_threshold = 0
    if kept and cfg.alpha > 0:
        max_cross = max(cross[s.passage_id] for s in kept)
        if max_cross > 0:
            tau = cfg.alpha * max_cross
            surviving = [s for s in kept if cross[s.passage_id] >= tau]
            pruned_threshold = len(kept) - len(surviving)
            kept = surviving
    included, total, pruned_budget = fixed_over_stats(kept, cfg.word_budget)
    return included, total, pruned_threshold, pruned_budget


# --- live entry points ---

def truncate_fixed(
    ranked: RankedList,
    corpus: Corpus,
    budget_words: int = DEFAULT_FIXED_BUDGET,
) -> Context:
    if budget_words <= 0:
        raise ValueError("budget_words must be positive")
    stats = [stats_for(corpus.get(pid)) for pid in ranked.ids()]
    included, total, pruned = fixed_over_stats(stats, budget_words)
    return _context(included, total, 0, pruned)


def truncate_adaptive(
    ranked: RankedList,
    cross_scores: ScoreVector,
    corpus: Corpus,
    cfg: TruncationConfig | None = None,
) -> Context:
    if cfg is None:
        cfg = TruncationConfig(strategy="adaptive")
    if cfg.strategy != "adaptive":
        raise ValueError("truncate_adaptive requires an adaptive config")
    missing = [pid for pid in ranked.ids() if pid not in cross_scores.scores]
    if missing:
        raise MissingScoreError(
            f"no cross score for ranked passages: {', '.join(missing)}"
        )
    # adaptive_over_stats reads only the top K; stats for the rest go unused.
    stats = [stats_for(corpus.get(pid)) for pid in ranked.ids()[:cfg.top_k]]
    included, total, pruned_threshold, pruned_budget = adaptive_over_stats(
        stats, cross_scores.scores, cfg
    )
    return _context(included, total, pruned_threshold, pruned_budget)


def _context(
    included: list[PassageStats],
    total_words: int,
    pruned_threshold: int,
    pruned_budget: int,
) -> Context:
    return Context(
        passage_ids=tuple(s.passage_id for s in included),
        word_count=total_words,
        estimated_tokens=tokens_from_stats(included),
        pruned_by_threshold=pruned_threshold,
        pruned_by_budget=pruned_budget,
    )
