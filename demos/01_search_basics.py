#!/usr/bin/env python3
"""Parse a question into weighted terms and grep the bundled corpus.

Run from the repository root after `pip install -e .`:

    python3 demos/01_search_basics.py
"""

from importlib import resources

from memgrep import RuleAnnotator, candidate_order, grep_search, parse_query, read_corpus


def main() -> None:
    corpus_path = resources.files("memgrep").joinpath(
        "data", "fixture", "corpus.jsonl"
    )
    corpus = read_corpus(corpus_path)
    annotator = RuleAnnotator()

    question = "Where did Javier go hiking?"
    terms = parse_query(question, annotator)

    print(f"question: {question}")
    print("parsed terms (proper nouns 3+1 with entity bonus, nouns 2, verbs 1):")
    for term in terms.terms:
        print(f"  {term.surface:<10} weight {term.weight:.1f}")

    # grep_search returns passage position -> match score, the summed
    # weights of the terms the passage holds.
    scores = grep_search(corpus, terms)
    print(f"\nsubstring matches, best first ({len(scores)} passages):")
    for i in candidate_order(corpus, scores):
        passage = corpus.passages[i]
        via = [t.surface for t in terms.terms if t.surface.lower() in passage.text.lower()]
        print(f"  [{passage.id}] score {scores[i]:.1f} via {', '.join(via)}")
        print(f"      {passage.text}")


if __name__ == "__main__":
    main()
