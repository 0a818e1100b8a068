#!/usr/bin/env python3
"""Entity expansion on a question whose evidence shares no query term.

"What job does Gina have now?" greps to the passage announcing Gina's job
at Birchwood Labs, but the passage describing what Birchwood Labs builds
contains neither "Gina" nor "job". The entity hop extracts "Birchwood
Labs" from the first-round results and greps again.
"""

from importlib import resources

from memgrep import RetrieveConfig, read_corpus, retrieve


def show(label, candidates, corpus, gold):
    covered = gold & set(candidates.ids())
    print(f"{label}: hops={candidates.hops_executed}, "
          f"gold covered {len(covered)}/{len(gold)}")
    for candidate in candidates.candidates:
        marker = "*" if candidate.passage_id in gold else " "
        print(f"  {marker} [{candidate.passage_id}] hop {candidate.hop}  "
              f"{corpus.get(candidate.passage_id).text}")
    print()


def main() -> None:
    corpus_path = resources.files("memgrep").joinpath(
        "data", "fixture", "corpus.jsonl"
    )
    corpus = read_corpus(corpus_path)
    question = "What job does Gina have now?"
    gold = {"s1:5", "s1:7"}
    print(f"question: {question}")
    print(f"gold evidence: {sorted(gold)} (starred below)\n")

    flat = retrieve(question, corpus, RetrieveConfig(max_hops=1))
    show("expansion disabled", flat, corpus, gold)

    expanded = retrieve(question, corpus, RetrieveConfig())
    show("expansion enabled", expanded, corpus, gold)


if __name__ == "__main__":
    main()
