"""Speed reference for the benchmark, run as a child process.

    python3 bench/reference.py

Prints ``ready``, then answers commands read from stdin, one per line:

- ``probe`` runs two fixed kernels and prints their times in seconds as
  one JSON list ``[scan, lower]``;
- ``quit`` or end of input exits.

``scan`` makes substring tests over fixed strings and allocates nothing;
``lower`` lowercases fixed strings into a new dict with garbage collection
off. Under other tenants' load the first slows less than memgrep does and
the second more, so the geometric mean of the two tracks the machine's
speed for memgrep's mix of interpreter and allocation work. The client
asks for a probe only while it waits for the answer, and this process
imports nothing from memgrep, so nothing memgrep does in the client (its
threads, its heap) changes these timings.
"""

from __future__ import annotations

import gc
import json
import random
import sys
from time import perf_counter

NEEDLES = ("qxz", "zqx", "xzq")


def main() -> int:
    rng = random.Random(0)
    short = ["".join(rng.choice("abcdefghij klmnop") for _ in range(150)) for _ in range(2400)]
    long = ["".join(rng.choice("abcdefghij KLMNOP") for _ in range(290)) for _ in range(3000)]
    print("ready", flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            break
        if command != "probe":
            print(json.dumps({"error": f"unknown command {command!r}"}), flush=True)
            continue
        start = perf_counter()
        hits = 0
        for text in short:
            for needle in NEEDLES:
                if needle in text:
                    hits += 1
        scan = perf_counter() - start
        gc.disable()
        try:
            start = perf_counter()
            lowered = {i: text.lower() for i, text in enumerate(long)}
            lower = perf_counter() - start
        finally:
            gc.enable()
        del lowered
        print(json.dumps([scan, lower]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
