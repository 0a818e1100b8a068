#!/usr/bin/env python3
"""Fuse two scorer orderings with reciprocal rank fusion.

A scorer served over the line protocol and the in-process lexical scorer
disagree about the fixture passages; RRF combines them by rank position
only, so their score scales never need to be comparable.
"""

from importlib import resources

from memgrep import (
    ReferenceServer,
    RetrieveConfig,
    ScorerHandle,
    order_by_score,
    rank,
    read_corpus,
    retrieve,
)


def length_preference(query, items):
    # A deliberately contrarian scorer: shorter passages score higher.
    return [1.0 / (1 + len(text)) for text in items]


def main() -> None:
    corpus_path = resources.files("memgrep").joinpath(
        "data", "fixture", "corpus.jsonl"
    )
    corpus = read_corpus(corpus_path)
    question = "Where did Javier go hiking?"
    candidates = retrieve(question, corpus, RetrieveConfig())

    with ReferenceServer(score_fn=length_preference) as server:
        scorers = [
            ScorerHandle(name="cross", kind="pointwise-cross",
                         endpoint=server.endpoint),
            ScorerHandle(name="late", kind="lexical-test"),
        ]
        ranked, score_maps = rank(candidates, question, corpus, scorers)

    # rank returns one score map per scorer, in scorer order.
    by_name = {s.name: scores for s, scores in zip(scorers, score_maps)}
    print(f"question: {question}\n")
    for name, scores in by_name.items():
        order = sorted(scores, key=lambda pid: -scores[pid])
        print(f"{name:>5} ordering: {order}")

    # Each scorer's rank of a passage: its place in the scorer's order,
    # score descending, then id ascending.
    rank_in = {name: {pid: r for r, pid in enumerate(order_by_score(scores), 1)}
               for name, scores in by_name.items()}
    print("\nfused (weights 0.7 cross / 0.3 late, k=60):")
    for entry in ranked:
        positions = ", ".join(f"{n} rank {r[entry.passage_id]}" for n, r in rank_in.items())
        print(f"  [{entry.passage_id}] fused {entry.fused_score:.6f}"
              f"  ({positions})")


if __name__ == "__main__":
    main()
