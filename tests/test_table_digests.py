"""The CSV tables ``cpfs solve`` writes must not change.

The SHA-256 of every table, for the bundled case study under each operator
and for the benchmark's ``panel`` problem at seed 0, is recorded in
``perfbench/digests.json``; the benchmark checks the same digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cpfs.cli import main
from helpers import perfbench_gen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


def csv_digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.glob("*.csv"))}


@pytest.mark.parametrize("operator", sorted(DIGESTS["case_study"]))
def test_case_study_tables(operator, tmp_path, capsys):
    assert main(["solve", "--operator", operator, "--out-dir", str(tmp_path)]) == 0
    assert csv_digests(tmp_path) == DIGESTS["case_study"][operator]


def test_panel_tables(tmp_path, capsys, monkeypatch):
    gen = perfbench_gen(monkeypatch)
    problem = tmp_path / "panel.json"
    # The panel workload's shape; its digests are recorded at seed 0.
    doc = gen.generate(gen.Params(experts=10, alternatives=500, criteria=20), 0)
    problem.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--input", str(problem), "--out-dir", str(out)]) == 0
    assert csv_digests(out) == DIGESTS["panel"]
