"""Seeded synthetic corpora and question sets for the memgrep benchmark.

Every word comes from the lexicons bundled with the package
(``src/memgrep/data/lexicon/*.txt``), from a short list of common nouns
kept here, or from pseudo-words spelled out of fixed syllables. The same
workload and seed always give byte-identical files. This module reads the
lexicon files directly and never imports memgrep, so the program under
test sees nothing but the files written here.

Usage::

    python3 bench/synth.py --workload query-sparse --seed 1 --out DIR

writes ``corpus.jsonl`` and ``questions.json`` (canonical formats that
``memgrep.read_corpus`` and ``memgrep.load_questions`` read), plus
``sessions.jsonl`` for ``grow-and-query`` and a ``manifest.json`` with
the corpus checksum and the checked workload properties.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
from pathlib import Path

LEXICON_DIR = Path(__file__).resolve().parent.parent / "src" / "memgrep" / "data" / "lexicon"

WORKLOADS = ("query-sparse", "query-dense", "grow-and-query", "offline")

# Common nouns for the dense corpus: few enough that a four-noun question
# matches most passages under OR.
COMMON_NOUNS = (
    "garden", "kitchen", "window", "bicycle", "market", "river", "coffee",
    "pencil", "ticket", "basket", "candle", "blanket", "camera", "ladder",
    "mirror", "pillow", "jacket", "bottle", "carpet", "hammer", "wallet",
    "helmet", "lantern", "puzzle", "violin", "rocket", "tunnel", "meadow",
    "harbor", "forest", "island", "valley", "castle", "cookie", "tomato",
    "guitar",
)
OPENERS = ("I", "We", "They", "You")
PREPOSITIONS = ("near", "behind", "beyond", "under", "across")
_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "z", "br", "dr", "gr", "kl", "pl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u")
PSEUDO_LEN = 8  # every pseudo-word has this length, so none contains another

# Per-workload shape. Sizes are passages; rates are shares of filler
# passages that mention one person.
SHAPES = {
    "query-sparse": {"passages": 20_000, "questions": 300, "mention_rate": 0.10,
                     "fillers": 8_000, "sentences": 3},
    "query-dense": {"passages": 2_000, "questions": 200, "mention_rate": 0.10,
                    "sentences": 2},
    "grow-and-query": {"passages": 8_000, "sessions": 200, "turns": 20,
                       "mention_rate": 0.10, "fillers": 4_000, "sentences": 3},
    "offline": {"passages": 2_000, "questions": 240, "mention_rate": 1.0,
                "fillers": 1_500, "sentences": 2, "open_every": 12},
}
SESSION_TURNS = 20


def read_lexicon(name: str) -> list[str]:
    lines = (LEXICON_DIR / name).read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.startswith("#")]


class Vocabulary:
    """Word pools whose search terms never occur inside another word.

    Substring search is case-insensitive, so a term that sits inside a
    longer word would match passages the generator did not plant it in.
    """

    def __init__(self, rng: random.Random, pseudo_count: int) -> None:
        stopwords = {w.lower() for w in read_lexicon("stopwords.txt")}
        self.verbs = [v for v in read_lexicon("verbs.txt") if len(v) >= 4 and v.isalpha()]
        reserved = (stopwords | {v.lower() for v in self.verbs}
                    | {w.lower() for name in ("date_words.txt", "honorifics.txt",
                                              "org_keywords.txt", "event_keywords.txt")
                       for w in read_lexicon(name)})
        names = [n for n in read_lexicon("first_names.txt")
                 if n.isalpha() and len(n) >= 5 and n.lower() not in reserved]
        fixed = ([o.lower() for o in OPENERS] + list(PREPOSITIONS) + ["and", "with", "the"]
                 + [v.lower() for v in self.verbs] + list(COMMON_NOUNS))
        pseudo = self._pseudo_words(rng, pseudo_count, reserved | set(fixed)
                                    | {n.lower() for n in names})
        # Pseudo-words all have one length, so only longer words can hold one.
        everything = fixed + [n.lower() for n in names]
        longer = "\n".join(w for w in everything if len(w) > PSEUDO_LEN)
        self.pseudo = [w for w in pseudo if w not in longer]
        surface = "\n".join(everything + self.pseudo)
        self.names = sorted(n for n in names if surface.count(n.lower()) == 1)
        # Bridge people appear only in planted chains, so a grep for one
        # returns few passages and the next link stays among its top hits.
        self.bridges = self.names[::3]
        self.people = [n for n in self.names if n not in set(self.bridges)]
        self.nouns = [n for n in COMMON_NOUNS if surface.count(n) == 1]

    @staticmethod
    def _pseudo_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
        words: list[str] = []
        seen = set(taken)
        while len(words) < count:
            word = ""
            while len(word) < PSEUDO_LEN:
                word += rng.choice(_ONSETS) + rng.choice(_VOWELS)
            word = word[:PSEUDO_LEN - 1] + rng.choice("klmnrst")
            if word in seen:
                continue
            seen.add(word)
            words.append(word)
        return words


class Deck:
    """Draws without replacement, reshuffling when empty, so every word is
    used about equally often and per-question costs vary little by seed."""

    def __init__(self, rng: random.Random, words: list[str]) -> None:
        self._rng = rng
        self._words = list(words)
        self._left: list[str] = []

    def draw(self) -> str:
        if not self._left:
            self._left = list(self._words)
            self._rng.shuffle(self._left)
        return self._left.pop()


class Builder:
    """Filler text plus planted gold passages for one workload."""

    def __init__(self, rng: random.Random, vocab: Vocabulary, fillers: list[str],
                 sentences: int, mention_rate: float) -> None:
        self.rng = rng
        self.vocab = vocab
        self.fillers = Deck(rng, fillers)
        self.people = Deck(rng, vocab.people)
        self.bridges = Deck(rng, vocab.bridges)
        self.sentences = sentences
        self.mention_rate = mention_rate

    def _head(self) -> str:
        return f"{self.rng.choice(OPENERS)} {self.rng.choice(self.vocab.verbs)}"

    def filler_sentence(self) -> str:
        a, b, c = (self.fillers.draw() for _ in range(3))
        return f"{self._head()} the {a} and the {b} {self.rng.choice(PREPOSITIONS)} the {c}."

    def mention_sentence(self, *people: str, thing: str | None = None) -> str:
        thing = thing or self.fillers.draw()
        return f"{self._head()} the {thing} with {' and '.join(people)}."

    def filler(self) -> str:
        parts = [self.filler_sentence() for _ in range(self.sentences)]
        if self.rng.random() < self.mention_rate:
            parts[-1] = self.mention_sentence(self.people.draw())
        return " ".join(parts)

    def planted(self, sentence: str) -> str:
        parts = [self.filler_sentence() for _ in range(self.sentences - 1)]
        parts.insert(self.rng.randrange(len(parts) + 1), sentence)
        return " ".join(parts)


def _passage(session: int, turn: int, speaker: str, text: str) -> dict:
    session_id = f"s{session:05d}"
    return {"id": f"{session_id}:{turn}", "session_id": session_id, "turn_index": turn,
            "speaker": speaker, "text": text, "timestamp": None}


def _corpus_records(rng: random.Random, vocab: Vocabulary, texts: list[str],
                    first_session: int = 0) -> list[dict]:
    records = []
    for i, text in enumerate(texts):
        session, turn = divmod(i, SESSION_TURNS)
        speakers = vocab.names[(session * 7) % len(vocab.names)], \
            vocab.names[(session * 7 + 3) % len(vocab.names)]
        records.append(_passage(first_session + session, turn, speakers[turn % 2], text))
    return records


def _pid(index: int, first_session: int = 0) -> str:
    session, turn = divmod(index, SESSION_TURNS)
    return f"s{first_session + session:05d}:{turn}"


def _plant_chain(builder: Builder, topic: str, hops: int, open_bridges: bool = False
                 ) -> tuple[str, list[str], list[str]]:
    """Question text, gold passage texts and their search terms.

    hops=1: one passage holds the topic and person A. Each further hop adds
    a passage reachable only through a person named in the previous one.
    The bridge people are reserved ones, named nowhere else, unless
    `open_bridges`: then they are people the filler passages also name, so
    a grep for one returns many passages and the next link may not be
    among the top hits the oracle mines for entities.
    """
    people = [builder.people.draw()]
    bridges = builder.people if open_bridges else builder.bridges
    while len(people) < hops:
        bridge = bridges.draw()
        if bridge != people[-1]:
            people.append(bridge)
    question = f"What about the {topic} with {people[0]}?"
    texts = [builder.planted(builder.mention_sentence(
        *(people[:2] if hops > 1 else people[:1]), thing=topic))]
    for k in range(1, hops):
        link = people[k:k + 2] if k + 1 < hops else people[k:k + 1]
        texts.append(builder.planted(builder.mention_sentence(*link)))
    return question, texts, [topic.lower(), people[0].lower()]


def _place(rng: random.Random, texts: list[str], count: int, taken: set[int]) -> list[int]:
    slots = []
    while len(slots) < count:
        slot = rng.randrange(len(texts))
        if slot not in taken:
            taken.add(slot)
            slots.append(slot)
    return slots


def generate(workload: str, seed: int) -> dict:
    """Build one workload's files in memory: {'corpus': [...], 'questions': [...], ...}."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    fillers_needed = shape.get("fillers", 0)
    topics_needed = shape.get("questions", shape.get("sessions", 0))
    vocab = Vocabulary(rng, fillers_needed + topics_needed + 64)
    fillers, topics = vocab.pseudo[:fillers_needed], vocab.pseudo[fillers_needed:]
    if workload == "query-dense":
        return _dense(rng, vocab, shape)
    builder = Builder(rng, vocab, fillers, shape["sentences"], shape["mention_rate"])
    texts = [builder.filler() for _ in range(shape["passages"])]
    if workload == "grow-and-query":
        return _grow(rng, vocab, builder, texts, topics, shape)
    questions, terms, taken = [], [], set()
    for q in range(shape["questions"]):
        hops = (1 + q % 3) if workload == "offline" else (1 + q % 2)
        # Every open_every-th question (a 3-action one) chains through people
        # the fillers also name, so its oracle search is broad and may fail.
        every = shape.get("open_every", 0)
        open_bridges = bool(every) and q % every == every - 1
        question, planted, q_terms = _plant_chain(builder, topics[q], hops, open_bridges)
        slots = _place(rng, texts, len(planted), taken)
        for slot, text in zip(slots, planted):
            texts[slot] = text
        questions.append({"question_id": f"q{q:04d}", "question": question,
                          "gold_passage_ids": sorted(_pid(s) for s in slots),
                          "hops": hops, "open_bridges": open_bridges})
        terms.append(q_terms)
    return {"corpus": _corpus_records(rng, vocab, texts), "questions": questions,
            "terms": terms}


def _dense(rng: random.Random, vocab: Vocabulary, shape: dict) -> dict:
    nouns = vocab.nouns

    def sentence(chosen: list[str], person: str | None = None) -> str:
        head = f"{rng.choice(OPENERS)} {rng.choice(vocab.verbs)}"
        a, b, c, d = chosen
        who = f" with {person}" if person else ""
        return f"{head} the {a} and the {b}{who} by the {c} and the {d}."

    def passage(person: str | None = None, fixed: list[str] | None = None) -> str:
        first = fixed or rng.sample(nouns, 4)
        mention = person or (rng.choice(vocab.names) if rng.random() < shape["mention_rate"]
                             else None)
        return " ".join([sentence(first, mention), sentence(rng.sample(nouns, 4))])

    texts = [passage() for _ in range(shape["passages"])]
    questions, terms, taken = [], [], set()
    for q in range(shape["questions"]):
        person = rng.choice(vocab.names)
        chosen = rng.sample(nouns, 4)
        (slot,) = _place(rng, texts, 1, taken)
        texts[slot] = passage(person, chosen)
        questions.append({
            "question_id": f"q{q:04d}",
            "question": f"What about {person} and the {chosen[0]} and the {chosen[1]} "
                        f"and the {chosen[2]} and the {chosen[3]}?",
            "gold_passage_ids": [_pid(slot)], "hops": 1,
        })
        terms.append([person.lower(), *chosen])
    return {"corpus": _corpus_records(rng, vocab, texts), "questions": questions,
            "terms": terms}


def _grow(rng: random.Random, vocab: Vocabulary, builder: Builder, texts: list[str],
          topics: list[str], shape: dict) -> dict:
    """Base corpus plus sessions appended one at a time; question i asks about
    what session i just added."""
    base_sessions = -(-len(texts) // SESSION_TURNS)
    sessions, questions, terms = [], [], []
    for k in range(shape["sessions"]):
        turns = [builder.filler() for _ in range(shape["turns"])]
        hops = 2 if k % 3 == 2 else 1
        question, planted, q_terms = _plant_chain(builder, topics[k], hops)
        slots = _place(rng, turns, len(planted), set())
        for slot, text in zip(slots, planted):
            turns[slot] = text
        session = base_sessions + k
        sessions.append(_corpus_records(rng, vocab, turns, first_session=session))
        questions.append({"question_id": f"q{k:04d}", "question": question,
                          "gold_passage_ids": sorted(_pid(s, session) for s in slots),
                          "hops": hops})
        terms.append(q_terms)
    return {"corpus": _corpus_records(rng, vocab, texts), "questions": questions,
            "sessions": sessions, "terms": terms}


# --- workload properties -----------------------------------------------------

def or_candidate_counts(records: list[dict], terms: list[list[str]], sample: int = 25
                        ) -> list[int]:
    """Passages holding any of a question's planted terms, for the first
    `sample` questions: the OR-grep recall the question is built to have."""
    lowered = [r["text"].lower() for r in records]
    return [sum(1 for text in lowered if any(t in text for t in q_terms))
            for q_terms in terms[:sample]]


def check_properties(workload: str, data: dict) -> dict:
    """Assert the property that defines the workload; return the measured figures."""
    records = data["corpus"]
    counts = or_candidate_counts(records, data["terms"])
    share = statistics.median(counts) / len(records)
    props = {"median_or_candidates": statistics.median(counts), "median_or_share": share}
    if workload in ("query-sparse", "grow-and-query") and not share < 0.01:
        raise AssertionError(f"{workload}: median OR share {share:.4f} is not under 1%")
    if workload == "query-dense" and not share > 0.5:
        raise AssertionError(f"query-dense: median OR share {share:.4f} is not over 1/2")
    hops = [q["hops"] for q in data["questions"]]
    props["hops"] = {str(h): hops.count(h) for h in sorted(set(hops))}
    if workload == "offline":
        if 3 not in hops:
            raise AssertionError("offline: no 3-action questions planted")
        props["open_bridge_questions"] = sum(1 for q in data["questions"] if q["open_bridges"])
    ids = {r["id"] for r in records}
    if len(ids) != len(records):
        raise AssertionError(f"{workload}: duplicate passage ids")
    for session in data.get("sessions", []):
        ids.update(r["id"] for r in session)
    for q in data["questions"]:
        if not set(q["gold_passage_ids"]) <= ids:
            raise AssertionError(f"{workload}: {q['question_id']} has dangling gold")
    return props


def _jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in records)


def write_workload(workload: str, seed: int, out: Path) -> dict:
    """Generate, check and write one workload's files; return the manifest."""
    data = generate(workload, seed)
    props = check_properties(workload, data)
    out.mkdir(parents=True, exist_ok=True)
    corpus_text = _jsonl(data["corpus"])
    (out / "corpus.jsonl").write_text(corpus_text, encoding="utf-8")
    questions = [{k: q[k] for k in ("question_id", "question", "gold_passage_ids")}
                 for q in data["questions"]]
    (out / "questions.json").write_text(json.dumps(questions, indent=1) + "\n",
                                        encoding="utf-8")
    manifest = {
        "workload": workload, "seed": seed, "passages": len(data["corpus"]),
        "questions": len(questions),
        "hops": [q["hops"] for q in data["questions"]],
        "corpus_sha256": hashlib.sha256(corpus_text.encode("utf-8")).hexdigest(),
        "properties": props,
    }
    if "sessions" in data:
        (out / "sessions.jsonl").write_text(
            "".join(_jsonl(s) for s in data["sessions"]), encoding="utf-8")
        manifest["session_turns"] = [len(s) for s in data["sessions"]]
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                       encoding="utf-8")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    manifest = write_workload(args.workload, args.seed, args.out)
    print(json.dumps({k: manifest[k] for k in ("workload", "passages", "corpus_sha256")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
