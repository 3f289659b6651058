"""Benchmark of the cpfs decision pipeline, timed from outside the package.

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, never from an installed copy.  Everything the run
writes goes to ``.perfbench_out/`` in that checkout.

Each workload is a closed loop with one client in one thread: the next solve
starts only when the previous one returned.  Solves repeat until
``--seconds`` have passed (at least one solve).  Every solve's output is
checked (see ``oracle.py``); a solve that raises or fails the check counts
as failed.  ``setup_s`` is the median of several set-up samples, each taken
in a fresh interpreter (see ``setup_sample.py``).

Every time in the metrics is corrected for the host's CPU speed: a probe
(see ``speed.py``) samples that speed while the program runs, and a span's
time is given at the probe's reference speed.  The run record keeps the
wall times as well.  The probe also runs in traced solves, so the per-layer
times hold its samples, about 3 % of the time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced solves and half on traced ones (see ``tracing.py``) and
prints the per-layer metrics, per traced solve.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record: provenance, generator parameters, why the workload exists, tail
latency with its sample count, the failure share and anything that could
not be measured.  Without ``src/cpfs`` next to this directory the run exits
with status 2 and prints no result.

``digests.json`` holds the SHA-256 of every CSV table that ``cpfs solve``
wrote for the case study (per operator) and for the panel problem at
``--seed 0``; the tables must not change.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle
import speed
from setup_sample import build_problem
from tracing import Tracer, snapshot

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
OPERATORS = ("cpwa_q", "cpwa_p", "cpwg_q", "cpwg_p")
ORACLE_SAMPLE = 32
PROBE_PERIOD = 0.02  # seconds between speed samples; a sample costs about 0.5 ms


def import_cpfs():
    """Import cpfs from ``src/``, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import cpfs
    import cpfs.cli  # noqa: F401
    if not Path(cpfs.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cpfs was imported from {cpfs.__file__}, not from {SRC}")
    return cpfs


def run_cli(cpfs, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cpfs.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def out_dir(workload: str) -> Path:
    """The output directory of every solve in a run; see :func:`empty`."""
    return OUT / "work" / workload / "out"


def empty(directory: Path) -> None:
    """Delete the files a solve wrote, keeping the directory.

    The next solve then creates new files under the same names.  Rewriting
    the previous solve's files would make ext4 flush them to disk on close
    (its replace-by-truncate rule), and the solve would time the disk rather
    than cpfs; a new directory per solve has the file system allocate and
    free a directory block per solve.
    """
    for path in directory.iterdir():
        path.unlink()


def csv_digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.glob("*.csv"))
    }


def check_result(doc: dict, res: dict, sample, precision: int | None) -> list[str]:
    """Check a result document (``result.json``, or ``result_to_dict`` of a
    ``solve`` result) against the oracle on the ``(row in doc, alternative)``
    pairs of ``sample``."""
    entries = [(e["alternative"], e["score"], e["tied"]) for e in res["ranking"]]
    errors = oracle.check_ranking(res["alternatives"], res["similarities"], entries)
    for pos, i in sample:
        errors += oracle.check_alternative(doc, pos, res["operator"], precision, {
            "circular_row": res["circular_matrix"][i],
            "aggregated": res["aggregated"][i],
            "scored": res["scored"][i],
            "similarity": res["similarities"][i],
        })
    return errors


def read_result(out_dir: Path) -> dict:
    return json.loads((out_dir / "result.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    input: Path | None = None

    def load(self, cpfs) -> None:
        """Load what the solves need into this process; not timed."""


class CaseStudy(Workload):
    name = "case_study"
    why = ("the paper reproduction as users run it: in-process `cpfs solve` on the bundled "
           "3x5x5 problem, cycling the four operators; fixed per-call cost dominates")
    params = gen.Params(experts=3, alternatives=5, criteria=5)
    operators = OPERATORS
    setup_repeats = 15

    def prepare(self, seed: int) -> None:
        self.doc = json.loads((SRC / "cpfs" / "data" / "photovoltaic.json").read_text())
        self.sample = [(i, i) for i in range(self.params.alternatives)]
        self.digests = json.loads((HERE / "digests.json").read_text())[self.name]

    def solve(self, cpfs, i: int):
        op = self.operators[i % len(self.operators)]
        out = out_dir(self.name)
        return op, out, run_cli(cpfs, ["solve", "--operator", op, "--out-dir", str(out)])

    def check(self, i: int, output) -> list[str]:
        op, out, (rc, stdout) = output
        try:
            if rc != 0:
                return [f"{op}: exit status {rc}"]
            errors = []
            if f"ranking: {oracle.EXPECTED_CASE_STUDY[op]}\n" not in stdout:
                errors.append(f"{op}: wrong ranking in {stdout!r}")
            if csv_digests(out) != self.digests[op]:
                errors.append(f"{op}: CSV tables differ from the recorded digests")
            return errors + check_result(self.doc, read_result(out), self.sample, 2)
        finally:
            empty(out)


class Generated(Workload):
    """A workload on a seeded problem, written to ``input.json`` in set-up.

    Only the oracle's sampled rows of the document stay in memory, so that
    ``peak_rss_mb`` holds the program's data rather than the benchmark's.
    """

    def prepare(self, seed: int) -> None:
        doc = gen.generate(self.params, seed)
        rows = sorted(random.Random(seed).sample(range(self.params.alternatives), ORACLE_SAMPLE))
        self.doc = {
            "polarity": doc["polarity"],
            "weights": doc["weights"],
            "experts": [[matrix[i] for i in rows] for matrix in doc["experts"]],
        }
        self.sample = list(enumerate(rows))
        self.input = OUT / "work" / self.name / "input.json"
        self.input.parent.mkdir(parents=True, exist_ok=True)
        self.input.write_text(json.dumps(doc), encoding="utf-8")


class Panel(Generated):
    name = "panel"
    why = ("a large problem, 100k cells, through in-process `cpfs solve` (cpwa_q, precision 2): "
           "parse, PFV building, normalize, fuse over 10 experts, 4 MB of tables; scores tie heavily")
    params = gen.Params(experts=10, alternatives=500, criteria=20)
    operators = ("cpwa_q",)
    setup_repeats = 7

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.digests = (
            json.loads((HERE / "digests.json").read_text())[self.name] if seed == DEFAULT_SEED
            else None
        )

    def solve(self, cpfs, i: int):
        out = out_dir(self.name)
        return out, run_cli(cpfs, ["solve", "--input", str(self.input), "--out-dir", str(out)])

    def check(self, i: int, output) -> list[str]:
        out, (rc, stdout) = output
        try:
            if rc != 0:
                return [f"exit status {rc}"]
            errors = check_result(self.doc, read_result(out), self.sample, 2)
            if self.digests is not None and csv_digests(out) != self.digests:
                errors.append("CSV tables differ from the recorded digests")
            return errors
        finally:
            empty(out)


class Tall(Generated):
    name = "tall"
    why = ("library `solve(p, op, aggregate_precision=None)` over the four operators on a "
           "3x3000x5 problem with 10% boundary cells and a zero weight: unrounded scores, "
           "the all-pairs tie scan, infinite generator values; no parse, quantize or tables")
    params = gen.Params(experts=3, alternatives=3000, criteria=5, boundary_frac=0.1,
                        zero_weight=True)
    operators = OPERATORS
    setup_repeats = 9

    def load(self, cpfs) -> None:
        self.result_to_dict = cpfs.serialize.result_to_dict
        self.problem = build_problem(cpfs, json.loads(self.input.read_text(encoding="utf-8")))

    def solve(self, cpfs, i: int):
        op = self.operators[i % len(self.operators)]
        return cpfs.mcdm.solve(self.problem, op, aggregate_precision=None)

    def check(self, i: int, result) -> list[str]:
        return check_result(self.doc, self.result_to_dict(result), self.sample, None)


WORKLOADS = {w.name: w for w in (CaseStudy, Panel, Tall)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Loop:
    """Closed-loop solves with their times and check outcomes."""

    def __init__(self, workload, cpfs) -> None:
        self.workload, self.cpfs = workload, cpfs
        self.next = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall: list[float] = []  # every solve's wall seconds, less the probe's

    def run(self, seconds: float, tracer: Tracer | None = None) -> list[float]:
        """Solve for ``seconds``; the solves' seconds at the probe's reference speed."""
        probe = speed.Probe(PROBE_PERIOD)
        spans = []
        probe.start()
        try:
            self._run(seconds, tracer, spans)
        finally:
            probe.stop()
        self.wall += [probe.wall(t0, t1) for t0, t1 in spans]
        return [probe.corrected(t0, t1) for t0, t1 in spans]

    def _run(self, seconds: float, tracer: Tracer | None, spans: list) -> None:
        deadline = time.perf_counter() + seconds
        while not spans or time.perf_counter() < deadline:
            i = self.next
            self.next += 1
            if tracer is not None:
                tracer.solve_id = i
            gc.collect()  # every solve starts from the same heap state
            t0 = time.perf_counter()
            try:
                output = self.workload.solve(self.cpfs, i)
            except Exception as exc:  # a solve that raises is a failed solve
                output, errors = None, [f"solve {i} raised {exc!r}"]
            spans.append((t0, time.perf_counter()))
            if output is not None:
                try:
                    errors = self.workload.check(i, output)
                except (OSError, ValueError, KeyError) as exc:  # unreadable or missing output
                    errors = [f"solve {i}: output check raised {exc!r}"]
            if errors:
                self.failed += 1
                self.errors.extend(errors)
                del self.errors[5:]


def setup_samples(workload) -> list[list[float]]:
    """Set-up ``[wall, corrected]`` seconds, each sample in a fresh interpreter,
    one after another."""
    argv = [sys.executable, str(HERE / "setup_sample.py"), str(SRC), workload.name]
    if workload.input is not None:
        argv.append(str(workload.input))
    samples = []
    for _ in range(workload.setup_repeats):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout))
    return samples


def tail(times: list[float]) -> dict | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            idx = math.ceil(p / 100 * n) - 1
            return {"percentile": p, "ms": ordered[idx] * 1e3, "samples": n}
    return None


def layer_metrics(tracer: Tracer, solves: int, traced: list[float], untraced: list[float]) -> dict:
    spans, timed, counts = tracer.self_ns(), tracer.timed_ns, tracer.counts

    def ms(ns: int) -> float:
        return ns / 1e6 / solves

    def per_solve(name: str) -> float:
        return counts[name] / solves

    model_ops = sum(tracer.model_ops)
    values = {
        "cli.self_ms": (ms(spans["cli.main"]), "ms"),
        "serialize.parse_ms": (ms(spans["serialize.load_problem"]), "ms"),
        "serialize.bytes_read": (per_solve("serialize.bytes_read"), "B"),
        "values.pfv_built": (per_solve("values.pfv_built"), "count"),
        "values.cpfv_built": (per_solve("values.cpfv_built"), "count"),
        "mcdm.problem_validations": (per_solve("mcdm.problem_validations"), "count"),
        "mcdm.normalize_ms": (ms(spans["mcdm.normalize"]), "ms"),
        "fusion.fuse_ms": (ms(spans["fusion.build_circular_matrix"]), "ms"),
        "aggregation.aggregate_ms": (ms(timed["aggregation.operator"]), "ms"),
        "rounding.quantize_ms": (ms(timed["rounding.round_half_up"]), "ms"),
        "similarity.score_ms": (ms(timed["similarity.csm_to_ideal"]), "ms"),
        "mcdm.rank_ms": (ms(spans["mcdm.rank"]), "ms"),
        "mcdm.tied_frac": (statistics.fmean(tracer.tied), "frac"),
        "serialize.tables_ms": (ms(spans["serialize.write_solve_tables"]), "ms"),
        "rounding.format_calls": (per_solve("rounding.format_fixed"), "count"),
        "rounding.format_ms": (ms(timed["rounding.format_fixed"]), "ms"),
        "serialize.bytes_written": (per_solve("serialize.bytes_written"), "B"),
        "mcdm.model_ops": (model_ops / len(tracer.model_ops), "count"),
        "mcdm.ns_per_model_op": (tracer.span_ns("mcdm.solve") / model_ops, "ns"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1, "frac"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def provenance(seed: int) -> dict:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
    commit = None
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cpfs" / "__init__.py").is_file():
        print(f"error: no cpfs package at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    p = workload.params
    record = {
        "workload": workload.name,
        "why": workload.why,
        "claim": None,
        "closed_loop_clients": 1,
        "shape": {"experts": p.experts, "alternatives": p.alternatives, "criteria": p.criteria},
        "generator": (
            dict(dataclasses.asdict(p), cost_frac=gen.COST_FRAC) if isinstance(workload, Generated) else None
        ),
        "cells_per_solve": p.cells,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
    }
    shutil.rmtree(OUT / "work", ignore_errors=True)
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(args.seed)
        setup = setup_samples(workload)
        cpfs = import_cpfs()
        workload.load(cpfs)
        loop = Loop(workload, cpfs)
        if args.trace:
            untraced = loop.run(args.seconds / 2)
            before = snapshot(cpfs)
            tracer = Tracer()
            tracer.install(cpfs)
            try:
                traced = loop.run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            tracer.assert_restored()
            if snapshot(cpfs) != before:
                raise RuntimeError("tracing left cpfs changed")
            tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json")
            times = untraced + traced
            metrics = layer_metrics(tracer, len(traced), traced, untraced)
            record["traced_solves"] = len(traced)
            record["layers_not_called"] = sorted(k for k, v in metrics.items() if v["value"] == 0)
        else:
            times = loop.run(args.seconds)
            metrics = {
                "setup_s": {"value": statistics.median(c for _, c in setup), "unit": "s"},
                "solve_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
                "cells_per_s": {"value": p.cells / statistics.median(times), "unit": "1/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB",
                },
            }
    except ImportError as exc:
        print(f"error: cannot import cpfs: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)

    record.update(
        model_ops_per_solve={
            op: cpfs.complexity_estimate(p.criteria, p.alternatives, p.experts, op)
            for op in workload.operators
        },
        setup_s_samples=[c for _, c in setup],
        setup_wall_s_samples=[w for w, _ in setup],
        solves=len(times),
        failed_frac=loop.failed / len(times),
        tail=tail(times),
        solve_ms_min=min(times) * 1e3,
        solve_wall_p50_ms=statistics.median(loop.wall) * 1e3,
        probe={
            "period_s": PROBE_PERIOD,
            "reference_kernel_s": speed.REF_S,
            "wall_p50_over_corrected_p50": statistics.median(loop.wall) / statistics.median(times),
        },
        solve_ms_quartiles=(
            [q * 1e3 for q in statistics.quantiles(times, n=4)] if len(times) > 1 else None
        ),
        errors=loop.errors,
        unmeasured={
            "solve_tail_ms": "reported in this record only: a percentile needs ten samples "
                             "beyond it, which panel and tall do not reach in one run",
            "failed_frac": "reported in this record and as attempted/failed: it is 0 on "
                           "correct code, and a gated metric must never be 0",
        },
    )
    (OUT / f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for error in loop.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": len(times),
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
