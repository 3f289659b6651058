"""Benchmark this checkout against a parent revision in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload panel --workload tall \
        --pairs 10 --seconds 20 --seed 700 --out BENCH_7.json --change "what changed" \
        --claim tall/solve_p50_ms

The parent revision's committed files are exported (``git archive``) into a
temporary directory, and the change side is a copy, in another, of this
checkout's working tree: its tracked files and its untracked files that git
does not ignore.  Neither side holds a bytecode cache, so both compile alike
in each set-up sample.  Pair
``i`` runs ``perfbench/run.py --workload W --seed SEED+i --seconds S`` once on
each side, the parent first in even pairs and the change first in odd ones,
so a drift in host speed falls on both sides alike.  A run that exits
non-zero stops the script.

The output file holds every run record and result, one pair to a line,
and a summary per workload: for each end-to-end metric of
``BENCHMARK.json``, both sides' values, medians and quartiles, the parent's
interquartile range, and ``wins``, the number of pairs in which the change
was better.  It also holds the no-regression verdict: ``relative_change``,
the change of the medians relative to the parent's; ``regressed``, true if
that change is worse by more than the metric's ``bound``; and ``unresolved``,
true if the parent's interquartile range, relative to its median, is wider
than the bound while not every change run beats every parent run.
``src_lines`` holds each side's line count of ``src/cpfs/*.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def export(revision: str, into: Path) -> None:
    """The files committed at ``revision``, written under ``into``."""
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT, check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(into)


def copy_worktree(checkout: Path, into: Path) -> None:
    """The working tree of the git checkout ``checkout``, written under ``into``: its tracked
    files and its untracked files that are not ignored, so no ``__pycache__`` comes along."""
    listed = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=checkout,
                            check=True, capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source, target = checkout / name, into / name
        if source.is_file():  # a tracked file deleted from the tree is still listed
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def src_lines(checkout: Path) -> int:
    """The lines of ``src/cpfs/*.py`` under ``checkout``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "cpfs").glob("*.py"))


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The run record and result ``perfbench/run.py`` prints as its last two lines."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    record, result = done.stdout.splitlines()[-2:]
    return {"record": json.loads(record), "result": json.loads(result)}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for workload in sorted({p["workload"] for p in pairs}):
        runs = [p for p in pairs if p["workload"] == workload]
        side = {s: [r[s]["result"] for r in runs] for s in ("parent", "change")}
        entry = {"failed": {s: sum(r["failed"] for r in side[s]) for s in side}}
        for metric in metrics:
            name, bound, sign = metric["name"], metric["bound"], 1 if metric["better"] == "lower" else -1
            values = {s: [r["metrics"][name]["value"] for r in side[s]] for s in side}
            q = {s: quartiles(values[s]) for s in side}
            median = {s: statistics.median(values[s]) for s in side}
            iqr = q["parent"][2] - q["parent"][0]
            relative_change = (median["change"] - median["parent"]) / median["parent"]
            # Signed so that lower is better: a clean win puts every change run below every parent run.
            clean_win = max(sign * c for c in values["change"]) < min(sign * p for p in values["parent"])
            entry[name] = {
                "parent": values["parent"],
                "change": values["change"],
                "parent_median": median["parent"],
                "change_median": median["change"],
                "parent_quartiles": q["parent"],
                "change_quartiles": q["change"],
                "parent_iqr": iqr,
                "better": metric["better"],
                "wins": sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])),
                "relative_change": relative_change,
                "regressed": sign * relative_change > bound,
                "unresolved": iqr / median["parent"] > bound and not clean_win,
            }
        summary[workload] = entry
    return summary


def dumps(doc: dict) -> str:
    """``doc`` as JSON text, indented by one space, with each of its ``pairs`` on one line."""
    text = json.dumps({**doc, "pairs": []}, indent=1, sort_keys=True)
    pairs = ",\n  ".join(json.dumps(pair, sort_keys=True) for pair in doc["pairs"])
    return text.replace('\n "pairs": [],', f'\n "pairs": [\n  {pairs}\n ],', 1) + "\n"


def claims(benchmark: dict) -> list[str]:
    """Every claim a run may state: ``WORKLOAD/METRIC``, for each workload and end-to-end metric."""
    return [f"{w['name']}/{m['name']}" for w in benchmark["workloads"] for m in benchmark["end_to_end"]]


def pair_count(text: str) -> int:
    """``text`` as a pair count, an integer of at least 1; an argparse type."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True, help="e.g. BENCH_7.json")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--claim", default=None,
                        help="the end-to-end metric the change claims to improve, as WORKLOAD/METRIC")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.claim is not None and args.claim not in claims(benchmark):
        parser.error(f"--claim must be one of {', '.join(claims(benchmark))}; got {args.claim!r}")
    try:
        parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").strip()
    except (subprocess.CalledProcessError, OSError) as err:  # not a checkout, no such commit, or no git
        detail = getattr(err, "stderr", None) or err
        parser.error(f"--parent {args.parent!r} names no commit of a git checkout at {ROOT}: "
                     f"{str(detail).strip()}")
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp_parent, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as tmp_change:
        parent, change = Path(tmp_parent), Path(tmp_change)
        export(parent_commit, parent)
        copy_worktree(ROOT, change)
        for workload in args.workload:
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(parent if side == "parent" else change, workload, seed, args.seconds)
                    solve_ms = pair[side]["result"]["metrics"]["solve_p50_ms"]["value"]
                    print(f"{workload} pair {i} {side}: solve_p50_ms {solve_ms:.2f}", file=sys.stderr)
                pairs.append(pair)
        lines = {"parent": src_lines(parent), "change": src_lines(change)}

    machine = {k: v for k, v in pairs[0]["parent"]["record"]["provenance"].items()
               if k not in ("git_commit", "seed")}
    doc = {
        "change": args.change,
        "claim": args.claim,
        "command": (f"python3 perfbench/run.py --workload <workload> --seed <{args.seed}+pair> "
                    f"--seconds {args.seconds:g}"),
        "machine": machine,
        "note": "the parent side ran on the committed files of parent_commit, exported by git "
                "archive; the change side ran on a copy of the working tree's tracked and "
                "not ignored files; pairs alternate which side runs first",
        "pairs": pairs,
        "parent_commit": parent_commit,
        "src_lines": lines,
        "summary": summarize(pairs, benchmark["end_to_end"]),
    }
    args.out.write_text(dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
