"""Stage 4: compile a ranking into a context that fits a word budget.

Two strategies. Fixed: walk the ranking, keep every passage that still fits,
skip the ones that do not, and keep walking (an oversize passage never blocks
the rest). Adaptive: pre-select the top-K by fused score, prune everything
whose cross score falls below tau = alpha * max cross score, then apply the
fixed walk at a ceiling budget.

truncate_fixed and truncate_adaptive are the only truncation code. Both take
passage stats in rank order. A live run passes RankedStats, which computes a
passage's stats only when the cut reads it, so an adaptive cut pays for its
top K and not for every ranked candidate; the offline simulator in
evaluate.py passes the stats stored in a score matrix. Simulated and live
contexts therefore come out of the same code.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

from .corpus import Corpus, Passage

DEFAULT_FIXED_BUDGET = 2000
DEFAULT_ADAPTIVE_CEILING = 4000
DEFAULT_ALPHA = 0.03
DEFAULT_TOP_K = 60
CHARS_PER_TOKEN = 4


def check_ints(config: object, *names: str) -> None:
    """A ValueError naming the first of config's fields `names` whose value
    is not an int; a bool is not one. The config records of truncate,
    retrieve and oracle check their limits with it."""
    for name in names:
        value = getattr(config, name)
        if type(value) is not int:
            raise ValueError(f"{name} must be int, got {value!r}")


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
        check_ints(self, "word_budget", "top_k")
        if self.word_budget <= 0:
            raise ValueError("word_budget must be positive")
        # alpha = 0 switches the threshold off entirely (used by sweep grids
        # as the fixed-equivalence limit); negative alpha is meaningless.
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha must lie in [0, 1)")
        # 0 and 0.0 are one setting and write the same bytes.
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")

    @property
    def applied_alpha(self) -> float | None:
        """The threshold fraction the cut applies; a fixed cut applies none."""
        return self.alpha if self.strategy == "adaptive" else None


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


def stats_for(corpus: Corpus, passage_id: str) -> PassageStats:
    """A passage's stats; the word count is the corpus's own, which the
    in-process scorer has already taken for every candidate it scored."""
    return PassageStats(
        passage_id=passage_id,
        word_count=corpus.word_count(passage_id),
        render_len=len(render_block(corpus.get(passage_id))),
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


class RankedStats(Sequence[PassageStats]):
    """The stats of ranked passages, in rank order, each computed from the
    corpus only when read. Its length is the number of ranked passages."""

    def __init__(self, ids: Sequence[str], corpus: Corpus) -> None:
        self._ids = ids
        self._corpus = corpus

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [stats_for(self._corpus, pid) for pid in self._ids[index]]
        return stats_for(self._corpus, self._ids[index])


# --- the two strategies ---

def truncate_fixed(stats: Sequence[PassageStats], budget_words: int) -> Context:
    """Greedy skip-and-continue walk over stats in rank order."""
    included: list[PassageStats] = []
    total = 0
    pruned = 0
    for stat in stats:
        if total + stat.word_count <= budget_words:
            included.append(stat)
            total += stat.word_count
        else:
            pruned += 1
    return Context(
        passage_ids=tuple(s.passage_id for s in included),
        word_count=total,
        estimated_tokens=tokens_from_stats(included),
        pruned_by_threshold=0,
        pruned_by_budget=pruned,
    )


def truncate_adaptive(
    stats: Sequence[PassageStats],
    cross: Mapping[str, float],
    cfg: TruncationConfig,
) -> Context:
    """Top-K cut, threshold prune, budget walk at cfg.word_budget.

    Only the top K stats are read, and `cross` needs an entry for each of
    them. The threshold is skipped when alpha is 0 or the max cross score is
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
    return replace(truncate_fixed(kept, cfg.word_budget),
                   pruned_by_threshold=pruned_threshold)
