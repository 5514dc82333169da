"""Golden snapshots of every corpus program, explored on one node and on two.

Each snapshot pins what a run leaves behind: the report counters, the
violations (kind, iteration, trace file, steps), a SHA-256 of every trace
file, ``report.txt`` without its timestamp line, and a SHA-256 of every
final ``btstore.node<k>`` file. A change that is meant to keep behaviour
must keep all of it byte for byte.

The recorded values live in ``golden_corpus.json``. To re-record the
snapshots that a change moves on purpose, name them:

    PYTHONPATH=src python3 tests/test_golden_corpus.py livelock-philosophers@2

Only the named keys are re-recorded; every other snapshot keeps its bytes.
Say in the change which values moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from shadowcheck.corpus import PROGRAMS, get_program
from shadowcheck.dispatch import check_distributed
from shadowcheck.explorer import ExplorationConfig

GOLDEN = Path(__file__).with_name("golden_corpus.json")
BOUNDS = {"livelock-philosophers": 18}
NODE_COUNTS = (1, 2)

# Deliberate departures from the recorded values, keyed (program, nodes),
# each with the reason beside it. Re-recording a key folds its entry into
# the recorded values; remove the entry when doing so.
CORRECTIONS: dict[tuple[str, int], dict] = {}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def snapshot(name: str, nodes: int, out_dir: Path) -> dict:
    config = ExplorationConfig(out_dir=out_dir, bound=BOUNDS.get(name), node_count=nodes)
    report = check_distributed(get_program(name), config)
    header, *lines = (out_dir / "report.txt").read_text().splitlines()
    assert header.startswith("# generated ")
    return {
        "iterations_run": report.iterations_run,
        "points_explored": report.points_explored,
        "bound_warnings": report.bound_warnings,
        "unfair_prunes": report.unfair_prunes,
        "violations": [
            [v.kind.value, v.iteration, v.trace_file, list(v.trace.steps)]
            for v in report.violations
        ],
        "trace_files": {p.name: _sha256(p) for p in sorted((out_dir / "traces").iterdir())},
        "report": lines,
        "btstore": {p.name: _sha256(p) for p in sorted(out_dir.glob("btstore.node*"))},
    }


def _key(name: str, nodes: int) -> str:
    return f"{name}@{nodes}"


CASES = [(name, nodes) for name in sorted(PROGRAMS) for nodes in NODE_COUNTS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_whole_corpus(golden):
    assert sorted(golden) == sorted(_key(name, nodes) for name, nodes in CASES)


@pytest.mark.parametrize("name,nodes", CASES, ids=[_key(*case) for case in CASES])
def test_run_matches_the_golden_snapshot(golden, name, nodes, tmp_path):
    expected = dict(golden[_key(name, nodes)], **CORRECTIONS.get((name, nodes), {}))
    assert snapshot(name, nodes, tmp_path) == expected


def _record(keys: list[str]) -> None:
    cases = {_key(name, nodes): (name, nodes) for name, nodes in CASES}
    unknown = [key for key in keys if key not in cases]
    if not keys or unknown:
        sys.exit(f"name the snapshots to re-record, out of: {' '.join(cases)}")
    recorded = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as scratch:
        for key in keys:
            recorded[key] = snapshot(*cases[key], Path(scratch) / key)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} (re-recorded {', '.join(keys)})", file=sys.stderr)


if __name__ == "__main__":
    _record(sys.argv[1:])
