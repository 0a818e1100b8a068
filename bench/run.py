"""memgrep benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload query-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. The run generates the
workload's files from the seed (bench/synth.py, in a child process),
sets up, drives the closed loop for at least ``--seconds``, checks every
output, prints one line per figure, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every operation also runs traced, the metrics are the per-layer ones and
the spans go to ``.bench_out/trace-<workload>-<seed>.jsonl``. The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("query-sparse", "query-dense", "grow-and-query", "offline")


def import_package() -> str:
    """Import memgrep from this checkout's src/ or fail; returns its version."""
    if not (SRC / "memgrep" / "__init__.py").is_file():
        raise SystemExit(f"memgrep sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import memgrep

    if not Path(memgrep.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"memgrep imported from {memgrep.__file__}, not {SRC}")
    return memgrep.__version__


def generate(workload: str, seed: int, out: Path) -> dict:
    subprocess.run([sys.executable, str(BENCH_DIR / "synth.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out)],
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="memgrep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    version = import_package()

    import report
    from workloads import run_workload

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR))
    try:
        manifest = generate(args.workload, args.seed, tmp / "data")
        out, tracer = run_workload(args.workload, tmp / "data", tmp, args.seconds,
                                   bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"memgrep {version} python {platform.python_version()} nproc {os.cpu_count()}")
    print(f"corpus {out.info['passages']} passages, {manifest['questions']} questions, "
          f"sha256 {manifest['corpus_sha256']}, memgrep checksum {out.info['checksum']}")
    if "open_bridge_questions" in manifest["properties"]:
        print(f"open-bridge questions {manifest['properties']['open_bridge_questions']} "
              f"of {manifest['questions']}")
    print(f"samples: {len(out.query_ms)} queries, {len(out.step_ms)} loop steps, "
          f"{len(out.setup_s)} set-ups, {out.attempted} operations")
    if args.trace:
        metrics = report.per_layer(out, tracer)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
        units = report.PER_LAYER
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
    else:
        for name, (value, unit) in report.workload_figures(out).items():
            print(f"  {name} {value:.6g} {unit}")
        reference = statistics.median(k for _, k in out.probes)
        print(f"reference kernels {reference:.4g} ms (median of {len(out.probes)} probes); "
              f"CPU times below are scaled to {report.NOMINAL_MS} ms, unscaled in brackets")
        metrics, raw = report.end_to_end(out)
        units = report.END_TO_END
        for name, value in metrics.items():
            unscaled = f" [{raw[name]:.6g}]" if name in raw else ""
            print(f"{name} {value:.6g} {units[name]}{unscaled}")
    for failure in out.failures[:20]:
        print(f"FAILED {failure}")
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
