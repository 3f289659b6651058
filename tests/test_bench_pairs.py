"""``tools/bench_pairs.py``: its copy of the working tree, its line count of ``src/``,
its summary of pairs, its ``--pairs`` and ``--parent`` checks and the layout of the committed
``BENCH_*.json`` files."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_as_wc_does(bench_pairs, tmp_path):
    package = tmp_path / "src" / "cpfs"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no newline at the end: wc -l counts 0
    (package / "data.json").write_text("{}\n{}\n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("\n" * 5)
    assert bench_pairs.src_lines(tmp_path) == 2


def test_src_lines_of_this_checkout_match_wc(bench_pairs):
    files = sorted(str(p) for p in (ROOT / "src" / "cpfs").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True).stdout
    assert bench_pairs.src_lines(ROOT) == int(wc.splitlines()[-1].split()[0])


def test_copy_worktree_takes_the_files_git_sees_and_no_bytecode_cache(bench_pairs, tmp_path):
    checkout, copy = tmp_path / "checkout", tmp_path / "copy"
    package = checkout / "src" / "cpfs"
    (package / "__pycache__").mkdir(parents=True)
    (checkout / ".gitignore").write_text("__pycache__/\n")
    (package / "old.py").write_text("x = 1\n")
    (package / "gone.py").write_text("y = 2\n")
    subprocess.run(["git", "init", "-q"], cwd=checkout, check=True)
    subprocess.run(["git", "add", "."], cwd=checkout, check=True)
    (package / "gone.py").unlink()  # tracked, then deleted from the tree
    (package / "old.py").write_text("x = 3\n")  # an edit not yet staged
    (package / "new.py").write_text("z = 4\n")  # untracked, not ignored
    (package / "__pycache__" / "old.cpython-311.pyc").write_bytes(b"cache")
    copy.mkdir()
    bench_pairs.copy_worktree(checkout, copy)
    assert sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file()) == [
        ".gitignore", "src/cpfs/new.py", "src/cpfs/old.py"]
    assert (copy / "src" / "cpfs" / "old.py").read_text() == "x = 3\n"


def side(failed, **metrics):
    return {"result": {"failed": failed, "metrics": {k: {"value": v} for k, v in metrics.items()}}}


def test_summarize_counts_wins_by_each_metrics_direction(bench_pairs):
    pairs = [
        {"workload": "w", "parent": side(0, t=10.0, rate=5.0), "change": side(0, t=8.0, rate=4.0)},
        {"workload": "w", "parent": side(1, t=12.0, rate=5.0), "change": side(0, t=13.0, rate=6.0)},
        {"workload": "w", "parent": side(0, t=11.0, rate=5.0), "change": side(2, t=11.0, rate=7.0)},
        {"workload": "v", "parent": side(0, t=1.0, rate=1.0), "change": side(0, t=2.0, rate=1.0)},
    ]
    metrics = [{"name": "t", "better": "lower", "bound": 0.25},
               {"name": "rate", "better": "higher", "bound": 0.25}]
    summary = bench_pairs.summarize(pairs, metrics)
    assert sorted(summary) == ["v", "w"]
    w = summary["w"]
    assert w["failed"] == {"parent": 1, "change": 2}
    assert w["t"]["parent"] == [10.0, 12.0, 11.0] and w["t"]["change"] == [8.0, 13.0, 11.0]
    assert (w["t"]["parent_median"], w["t"]["change_median"]) == (11.0, 11.0)
    assert w["t"]["wins"] == 1  # a tie is no win
    assert w["rate"]["wins"] == 2 and w["rate"]["better"] == "higher"
    assert w["t"]["parent_quartiles"] == [10.0, 11.0, 12.0]
    assert w["t"]["parent_iqr"] == 2.0
    # One pair: every quartile is its value.
    assert summary["v"]["t"]["parent_quartiles"] == [1.0, 1.0, 1.0]
    assert summary["v"]["t"]["wins"] == 0


def verdict(bench_pairs, parent, change, better):
    """The no-regression verdict of one metric ``m``, bound 25%, over pairs of these values."""
    pairs = [{"workload": "w", "parent": side(0, m=p), "change": side(0, m=c)}
             for p, c in zip(parent, change)]
    entry = bench_pairs.summarize(pairs, [{"name": "m", "better": better, "bound": 0.25}])["w"]["m"]
    return entry["relative_change"], entry["regressed"], entry["unresolved"]


@pytest.mark.parametrize("parent, change, better, want", [
    # Medians 10 -> 12: 20% worse, within the 25% bound; parent IQR 10% of its median.
    ([9.5, 10.0, 10.5], [11.5, 12.0, 12.5], "lower", (0.2, False, False)),
    # Medians 10 -> 13: 30% worse.
    ([9.5, 10.0, 10.5], [12.5, 13.0, 13.5], "lower", (0.3, True, False)),
    # A rate 10 -> 13 is a gain; 10 -> 7 is a 30% loss.
    ([9.5, 10.0, 10.5], [12.5, 13.0, 13.5], "higher", (0.3, False, False)),
    ([9.5, 10.0, 10.5], [6.5, 7.0, 7.5], "higher", (-0.3, True, False)),
    # Parent quartiles 7.5 and 13.5: IQR 60% of the median 10, wider than the bound.
    ([7.5, 10.0, 13.5], [9.0, 10.0, 11.0], "lower", (0.0, False, True)),
    # As wide, but every change run beats every parent run: resolved.
    ([7.5, 10.0, 13.5], [5.0, 5.5, 6.0], "lower", (-0.45, False, False)),
    ([7.5, 10.0, 13.5], [14.0, 15.0, 16.0], "higher", (0.5, False, False)),
    # A tie between the best parent run and the worst change run is no clean win.
    ([7.5, 10.0, 13.5], [5.0, 6.0, 7.5], "lower", (-0.4, False, True)),
], ids=["within bound", "regressed", "higher gain", "higher regressed", "unresolved",
        "clean win", "higher clean win", "tie at the edge"])
def test_summarize_gives_the_no_regression_verdict(bench_pairs, parent, change, better, want):
    relative_change, regressed, unresolved = verdict(bench_pairs, parent, change, better)
    assert relative_change == pytest.approx(want[0])
    assert (regressed, unresolved) == want[1:]


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_a_pair_count_below_one_is_a_usage_error(bench_pairs, pairs, capsys):
    with pytest.raises(SystemExit) as raised:
        bench_pairs.main(["--parent", "HEAD", "--workload", "tall", "--seed", "1",
                          "--out", "unused.json", "--pairs", pairs])
    assert raised.value.code == 2
    assert "--pairs" in capsys.readouterr().err


def main_up_to_export(bench_pairs, monkeypatch, claim):
    """``main`` with ``--claim claim``, stopped where it would export the parent revision."""
    def stop(revision, into):
        raise RuntimeError("export")

    monkeypatch.setattr(bench_pairs, "export", stop)
    # No git either, so this runs outside a git checkout too.
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40 + "\n")
    bench_pairs.main(["--parent", "HEAD", "--workload", "tall", "--seed", "1",
                      "--out", "unused.json", "--claim", claim])


@pytest.mark.parametrize("claim", ["solve_p50_ms", "panel/", "panel/nope", "nope/solve_p50_ms",
                                   "panel/serialize.parse_ms", "panel/solve_p50_ms/x", ""])
def test_a_claim_not_naming_a_workload_and_end_to_end_metric_is_a_usage_error(
        bench_pairs, monkeypatch, capsys, claim):
    with pytest.raises(SystemExit) as raised:
        main_up_to_export(bench_pairs, monkeypatch, claim)
    assert raised.value.code == 2
    assert "--claim must be one of case_study/setup_s, " in capsys.readouterr().err


@pytest.mark.parametrize("claim", ["panel/solve_p50_ms", "tall/peak_rss_mb", "case_study/cells_per_s"])
def test_a_valid_claim_reaches_the_runs(bench_pairs, monkeypatch, claim):
    with pytest.raises(RuntimeError, match="export"):
        main_up_to_export(bench_pairs, monkeypatch, claim)


def test_a_parent_git_cannot_resolve_is_a_usage_error_naming_parent(bench_pairs, monkeypatch, capsys):
    def fail(*args):
        raise subprocess.CalledProcessError(128, ["git", *args], stderr="fatal: not a git repository\n")

    monkeypatch.setattr(bench_pairs, "git", fail)
    with pytest.raises(SystemExit) as raised:
        bench_pairs.main(["--parent", "HEAD", "--workload", "tall", "--seed", "1", "--out", "unused.json"])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert "--parent 'HEAD' names no commit" in err and "fatal: not a git repository" in err


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_each_committed_bench_file_is_laid_out_by_dumps(bench_pairs, path):
    text = path.read_text(encoding="utf-8")
    assert text == bench_pairs.dumps(json.loads(text))
