"""Scorer host for the query-dense workload, run as a child process.

    python3 bench/host.py SOCKET_PATH

Serves memgrep's in-process lexical scorer as the ``cross`` scorer through
a ``memgrep.service.ReferenceServer`` bound to the unix socket, prints
``ready`` once it accepts connections, then answers commands read from
stdin, one per line:

- ``stats`` prints one JSON line with the number of score requests the
  server dispatched (``dispatches``), the items they carried and the
  seconds spent inside the score function (``score_s``), and the CPU
  seconds this process has used (``cpu_s``);
- ``quit`` or end of input shuts the server down and exits.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from memgrep.rank import LexicalDenseScorer  # noqa: E402
from memgrep.service import ReferenceServer  # noqa: E402


class CountingScorer:
    """The lexical callable, counting dispatches and the time spent scoring."""

    def __init__(self) -> None:
        self._scorer = LexicalDenseScorer()
        self._lock = threading.Lock()
        self.dispatches = 0
        self.items = 0
        self.score_s = 0.0

    def __call__(self, query: str, items: list[str]) -> list[float]:
        start = perf_counter()
        scores = self._scorer.score(query, items)
        elapsed = perf_counter() - start
        with self._lock:
            self.dispatches += 1
            self.items += len(items)
            self.score_s += elapsed
        return scores

    def stats(self) -> dict:
        with self._lock:
            return {"dispatches": self.dispatches, "items": self.items, "score_s": self.score_s,
                    "cpu_s": process_time()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: host.py SOCKET_PATH", file=sys.stderr)
        return 2
    scorer = CountingScorer()
    with ReferenceServer(score_fn=scorer, unix_path=argv[0]):
        print("ready", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(scorer.stats()), flush=True)
            elif command == "quit":
                break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
