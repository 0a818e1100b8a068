"""Golden artifacts: every command's output on the bundled fixture, and every
demo's stdout, pinned by sha256.

Each run changes into the fixture directory and names the corpus and the
questions by relative path, so runconfig.json holds no machine-specific path.
Each demo runs as its own process with PYTHONPATH=src. A change that moves
one byte of any artifact (or of what a command or a demo prints) fails here.
After an intended output change, print the new tables with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from memgrep.cli import main

from conftest import fixture_path

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (REPO / "demos").glob("*.py"))
QUERY = "Where did Javier go hiking?"
RUNS = {
    "query-fixed": ["query", QUERY],
    "query-adaptive": ["query", QUERY, "--strategy", "adaptive"],
    "eval-fixed": ["eval", "--questions", "questions.json"],
    "eval-adaptive": ["eval", "--questions", "questions.json",
                      "--strategy", "adaptive"],
    "oracle": ["oracle", "--questions", "questions.json"],
    "sweep": ["sweep", "--questions", "questions.json"],
}

GOLDEN = {
    "eval-adaptive": {
        "stdout": "f59187cdb1d5893cdcf31623d8b56319b80add59cd419dd9eaf17f118ec16da8",
        "eval_report.json": "f59187cdb1d5893cdcf31623d8b56319b80add59cd419dd9eaf17f118ec16da8",
        "matrix.jsonl": "4cbd6a88bac016b803fdfe3fdc54abb0fbbb0ec69183ffd815f50f20f7d9817d",
        "runconfig.json": "be9cd3e4bdd25410eef6dba933fe950330f8081b48a09bd768f369f0f94e029b"
    },
    "eval-fixed": {
        "stdout": "deef359007af08d46bb06d4e62a9f27663b291823a54dafd8ca94c4b309dcce5",
        "eval_report.json": "deef359007af08d46bb06d4e62a9f27663b291823a54dafd8ca94c4b309dcce5",
        "matrix.jsonl": "4cbd6a88bac016b803fdfe3fdc54abb0fbbb0ec69183ffd815f50f20f7d9817d",
        "runconfig.json": "4b2c0d767eeb5f9cc38afd196e4e4763278d52d69f560565f6bac942f5e71275"
    },
    "oracle": {
        "stdout": "2aa7d3afcc992bb1a59d972e79d52227523c06f7ff5921e7a50ee7915e8efca9",
        "oracle_stats.json": "2aa7d3afcc992bb1a59d972e79d52227523c06f7ff5921e7a50ee7915e8efca9",
        "runconfig.json": "4b2c0d767eeb5f9cc38afd196e4e4763278d52d69f560565f6bac942f5e71275",
        "traces.jsonl": "c0b0cd45248f108905fde739ca07048a5663994e79d9f3eff8e84d142ce531f6"
    },
    "query-adaptive": {
        "stdout": "1c55b47901bed2ad1946e004105345cf286c1325947f3551acda9137a3c292d5",
        "context.txt": "a4b90038960d93fb6a2946263fa286c8dc4b9bf9f62e5e69fa62943ee2c2cff9",
        "query_trace.json": "c9c2e0367d627384152c5094fb1ee5e76b8d553783bde860a1a99edafc56f1f3",
        "runconfig.json": "e2028b481e97db50133619f9be134fad8c7677832db2ad96770e9b69f13de1f0"
    },
    "query-fixed": {
        "stdout": "1c55b47901bed2ad1946e004105345cf286c1325947f3551acda9137a3c292d5",
        "context.txt": "a4b90038960d93fb6a2946263fa286c8dc4b9bf9f62e5e69fa62943ee2c2cff9",
        "query_trace.json": "c9c2e0367d627384152c5094fb1ee5e76b8d553783bde860a1a99edafc56f1f3",
        "runconfig.json": "4e25168ab74b3af869100613776e43dc87c78efca2fb2db2e742082035c5e9dd"
    },
    "sweep": {
        "stdout": "28d15d37e5f41973e9df89d328691515f5ce63aa14891c781c8383b2fb773914",
        "matrix.jsonl": "4cbd6a88bac016b803fdfe3fdc54abb0fbbb0ec69183ffd815f50f20f7d9817d",
        "runconfig.json": "4b2c0d767eeb5f9cc38afd196e4e4763278d52d69f560565f6bac942f5e71275",
        "sweep.json": "fd7c764789f7a44829fffe4a78d0e598b3dc4b6a2833d64198c0c7b4402c7be8",
        "sweep.txt": "28d15d37e5f41973e9df89d328691515f5ce63aa14891c781c8383b2fb773914"
    }
}


DEMO_GOLDEN = {
    "01_search_basics.py": "a8e7c8f1492f461c16f9dc38ec6353f283794a8882e960364bb6609f5148ef4c",
    "02_two_hop.py": "71ccb24bb454fdcd58ff601a5f4cac535aa247eab90ffd3bfb21f1b1c798a7f1",
    "03_fusion.py": "6ca89e99a4fb440bdd7bb7a8e0fff75bbfcf58bbd9558657ea5213578cba0755",
    "04_truncation.py": "9d1cf29ef03ba73ae5d5393924128c4ce07deafbd4057eed4a02c78514d72a27",
    "05_oracle_and_sweep.py": "63c7149c2dfddd8e617d19c7035e3141bd53b9eb398e5d3d44467051d5ddefda"
}


def run_digests(name: str, out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact the run writes, plus of its stdout."""
    argv = RUNS[name] + ["--corpus", "corpus.jsonl", "--out", str(out_dir)]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"{name} exited {code}"
    digests = {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def demo_digest(name: str) -> str:
    """sha256 of what the demo prints, run from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(REPO / "demos" / name)], cwd=REPO,
                          env=env, capture_output=True, check=False)
    assert done.returncode == 0, f"{name} exited {done.returncode}: {done.stderr.decode()}"
    return hashlib.sha256(done.stdout).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fixture_artifacts_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(fixture_path(""))
    assert run_digests(name, tmp_path / name) == GOLDEN[name]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_matches_golden_digest(name):
    assert demo_digest(name) == DEMO_GOLDEN[name]


if __name__ == "__main__":
    demos = {name: demo_digest(name) for name in DEMOS}
    os.chdir(fixture_path(""))
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run_digests(name, Path(tmp) / name) for name in sorted(RUNS)}
    sys.stdout.write("GOLDEN = " + json.dumps(table, indent=4) + "\n\n")
    sys.stdout.write("DEMO_GOLDEN = " + json.dumps(demos, indent=4) + "\n")
