"""Stage 1: turn a natural-language query into a weighted term set.

Weights encode linguistic specificity: proper nouns 4.0, nouns 2.0, verbs 1.0.
A proper noun's weight is 3.0 plus 1.0 for the entity span it sits in. An
entity is a run of proper nouns, so a multi-word entity weighs 4.0 too, as
a term of its own beside its words. Expansion stages
attach their own fixed weights (entity hops 2.5, pseudo-relevance feedback
0.5) through the same term type. A term set holds only its terms; retrieve
parses the query once per run and carries its terms, not its text.
"""

from __future__ import annotations

from dataclasses import dataclass

from .annotate import Annotator

# A proper noun always sits in an entity span, so it weighs 3.0 for its
# specificity plus 1.0 for the entity.
POS_WEIGHTS = {"PROPN": 4.0, "NOUN": 2.0, "VERB": 1.0}
ENTITY_HOP_WEIGHT = 2.5
PRF_WEIGHT = 0.5


@dataclass(frozen=True)
class WeightedTerm:
    # By construction, surfaces are non-empty (no annotator yields an empty
    # token or mention) and weights follow provenance: parse_query weighs by
    # POS_WEIGHTS, the hops by ENTITY_HOP_WEIGHT and PRF_WEIGHT, the oracle's
    # grep actions by 1.0. Every weight is thus a positive multiple of 0.5,
    # which and_hits relies on.
    surface: str
    weight: float
    provenance: str


@dataclass(frozen=True)
class WeightedTermSet:
    """Terms with case-insensitive unique surfaces; max weight wins on clash."""

    terms: tuple[WeightedTerm, ...]

    @staticmethod
    def from_terms(terms: list[WeightedTerm]) -> "WeightedTermSet":
        """Dedup case-insensitively, keeping the max-weight reading per surface.

        First occurrence fixes position and casing, as the dict keeps its
        keys in insertion order; a later higher-weight reading upgrades the
        weight in place.
        """
        best: dict[str, WeightedTerm] = {}
        for term in terms:
            key = term.surface.lower()
            if key not in best:
                best[key] = term
            elif term.weight > best[key].weight:
                best[key] = WeightedTerm(
                    surface=best[key].surface,
                    weight=term.weight,
                    provenance=term.provenance,
                )
        return WeightedTermSet(tuple(best.values()))

    def surfaces_lower(self) -> frozenset[str]:
        return frozenset(term.surface.lower() for term in self.terms)


def parse_query(query: str, annotator: Annotator) -> WeightedTermSet:
    """Extract weighted terms from the query: the empty term set when no word
    qualifies (retrieve then falls back to semantic search). A blank query
    raises ValueError.
    """
    if not query.strip():
        raise ValueError("query must be non-empty")
    annotations = annotator.annotate(query)
    terms: list[WeightedTerm] = []
    for annotation in annotations:
        weight = POS_WEIGHTS.get(annotation.pos)
        if weight is None:
            continue
        terms.append(WeightedTerm(surface=annotation.token, weight=weight,
                                  provenance="query"))
    for mention in annotator.extract_entities(query):
        if " " in mention:
            terms.append(WeightedTerm(surface=mention, weight=POS_WEIGHTS["PROPN"],
                                      provenance="query"))
    return WeightedTermSet.from_terms(terms)
