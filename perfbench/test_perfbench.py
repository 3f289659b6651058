"""Tests of the benchmark itself: generator, oracle, tracer and speed probe.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cpfs  # noqa: E402
import cpfs.cli  # noqa: E402
import cpfs.datasets  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, snapshot  # noqa: E402

SHAPES = [
    gen.Params(experts=10, alternatives=40, criteria=20),
    gen.Params(experts=3, alternatives=300, criteria=5, boundary_frac=0.1, zero_weight=True),
]
BOUNDARY = {(a / 100, b / 100) for a, b in gen.BOUNDARY}


@pytest.mark.parametrize("params", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2, 17])
def test_generated_problems_are_valid(params, seed):
    doc = gen.generate(params, seed)
    assert doc == gen.generate(params, seed)
    assert doc != gen.generate(params, seed + 1)
    weights = doc["weights"]
    assert abs(sum(weights) - 1.0) < 1e-12 and min(weights) >= 0.0
    assert weights.count(0.0) == (1 if params.zero_weight else 0)
    n_boundary = 0
    for matrix in doc["experts"]:
        for row in matrix:
            for mu, nu in row:
                a, b = round(mu * 100), round(nu * 100)
                assert (mu, nu) == (a / 100, b / 100)
                assert a * a + b * b <= 10000
                if (mu, nu) in BOUNDARY:
                    n_boundary += 1
                else:
                    assert 0 < a < 100 and 0 < b < 100 and a * a + b * b < 10000
    assert (0.0, 0.0) not in BOUNDARY
    if params.boundary_frac:
        assert 0.05 < n_boundary / params.cells < 0.15
    problem = cpfs.serialize.parse_problem(doc)
    assert problem.shape == (params.experts, params.alternatives, params.criteria)


def _check_result(doc, result, precision):
    every = [(i, i) for i in range(len(result.problem.alternatives))]
    return run.check_result(doc, cpfs.serialize.result_to_dict(result), every, precision)


@pytest.mark.parametrize("operator", run.OPERATORS)
@pytest.mark.parametrize("precision", [2, None])
def test_oracle_agrees_with_solve_on_the_case_study(operator, precision):
    doc = json.loads(cpfs.datasets.case_study_path().read_text())
    result = cpfs.solve(cpfs.datasets.load_case_study(), operator, aggregate_precision=precision)
    assert _check_result(doc, result, precision) == []
    if precision == 2:
        assert result.ranking.ascending_string() == oracle.EXPECTED_CASE_STUDY[operator]


@pytest.mark.parametrize("operator", run.OPERATORS)
def test_oracle_agrees_with_solve_on_boundary_cells(operator):
    doc = gen.generate(SHAPES[1], 5)
    result = cpfs.solve(cpfs.serialize.parse_problem(doc), operator, aggregate_precision=None)
    assert _check_result(doc, result, None) == []


def test_oracle_detects_wrong_values_and_rankings():
    doc = json.loads(cpfs.datasets.case_study_path().read_text())
    result = cpfs.solve(cpfs.datasets.load_case_study(), "cpwa_q")
    got = {
        "circular_row": [v.as_tuple() for v in result.circular_matrix[0]],
        "aggregated": result.aggregated[0].as_tuple(),
        "scored": result.scored[0].as_tuple(),
        "similarity": result.similarities[0] + 1e-9,
    }
    assert oracle.check_alternative(doc, 0, "cpwa_q", 2, got)
    assert oracle.check_alternative(doc, 0, "cpwg_q", 2, dict(got, similarity=result.similarities[0]))
    labels = ["a", "b", "c"]
    assert oracle.check_ranking(labels, [0.5, 0.4, 0.4], [("a", 0.5, False), ("b", 0.4, True),
                                                         ("c", 0.4, True)]) == []
    assert oracle.check_ranking(labels, [0.5, 0.4, 0.4], [("a", 0.5, False), ("b", 0.4, False),
                                                         ("c", 0.4, True)])
    assert oracle.check_ranking(labels, [0.4, 0.5, 0.3], [("a", 0.4, False), ("b", 0.5, False),
                                                         ("c", 0.3, False)])
    assert oracle.check_ranking(labels, [0.5, 0.4, 0.3], [("a", 0.5, False), ("a", 0.5, False),
                                                         ("c", 0.3, False)])


def test_tracer_restores_every_wrapped_name(tmp_path):
    problem = cpfs.datasets.load_case_study()
    before = snapshot(cpfs)
    tracer = Tracer()
    tracer.install(cpfs)
    assert snapshot(cpfs) != before
    try:
        rc = cpfs.cli.main(["solve", "--operator", "cpwg_p", "--out-dir", str(tmp_path)])
        cpfs.mcdm.solve(problem, "cpwa_q", aggregate_precision=None)
    finally:
        tracer.uninstall()
    tracer.assert_restored()
    assert snapshot(cpfs) == before
    assert rc == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "serialize.load_problem", "mcdm.solve", "mcdm.normalize",
            "fusion.build_circular_matrix", "mcdm.rank", "serialize.write_solve_tables"} <= names
    assert tracer.counts["mcdm.problem_validations"] == 3
    assert tracer.counts["aggregation.operator"] == 10
    assert tracer.model_ops == [cpfs.complexity_estimate(5, 5, 3, "cpwg_p"),
                                cpfs.complexity_estimate(5, 5, 3, "cpwa_q")]
    self_ns = tracer.self_ns()
    assert all(value >= 0 for value in self_ns.values())


def test_setup_samples_come_from_fresh_interpreters():
    workload = run.Tall()
    workload.params = SHAPES[1]
    workload.setup_repeats = 2
    workload.prepare(3)
    samples = run.setup_samples(workload)
    assert len(samples) == 2
    assert all(0.0 < wall < 60.0 and 0.0 < corrected < 60.0 for wall, corrected in samples)
    workload.load(cpfs)
    assert workload.problem == cpfs.serialize.load_problem(workload.input)
    shutil.rmtree(workload.input.parent)


def test_speed_probe_samples_and_restores_the_alarm():
    probe = speed.Probe(0.002)
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.1:
        speed.kernel()
    t1 = time.perf_counter()
    probe.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.kernel_s) >= 10
    assert all(0.0 < k < c for k, c in zip(probe.kernel_s, probe.cost_s))
    assert 0.0 < probe.wall(t0, t1) < t1 - t0
    assert probe.corrected(t0, t1) == pytest.approx(probe.wall(t0, t1) * probe.speed(t0, t1))


def test_speed_is_the_mean_over_a_span_and_its_neighbours():
    probe = speed.Probe(1.0)
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.kernel_s = [speed.REF_S, speed.REF_S / 2, speed.REF_S, speed.REF_S * 2]
    probe.cost_s = [0.25, 0.25, 0.25, 0.25]
    assert probe.speed(0.5, 1.5) == pytest.approx((1 + 2 + 1) / 3)
    assert probe.speed(3.5, 4.0) == pytest.approx(0.5)
    assert probe.wall(0.5, 2.5) == pytest.approx(1.5)
    assert probe.corrected(0.5, 1.5) == pytest.approx(0.75 * 4 / 3)


def test_run_exits_2_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case_study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
