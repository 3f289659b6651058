"""Acceptance suite: one block of checks per release criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion.  All randomized suites are seed-fixed.

Criterion 4 carries one entry marked as a strict expected failure: the
reference similarity table lists 0.325 for alternative A1 under ``cpwa_q``,
which is inconsistent with the reference's own aggregated row
``<0.59, 0.66; 0.11>`` (direct evaluation of the similarity definition gives
0.367).  No faithful computation reaches 0.325; every other entry of that
table reproduces within +/-0.011.
"""

import math
import time

import pytest

from cpfs import (
    CPFS,
    CPFV,
    IDEAL,
    WeightVector,
    add,
    add_general,
    add_minmax,
    algebraic_generator,
    algebraic_pair,
    complement,
    complexity_estimate,
    cpwa,
    cpwg,
    csm,
    dual_tconorm,
    equal,
    fuse,
    intersect,
    load_case_study,
    multiply,
    multiply_general,
    multiply_minmax,
    normalize,
    power,
    pythagorean_complement,
    round_half_up,
    scalar_multiple,
    solve,
    subset,
    tnorm_from_generator,
    union,
)
from helpers import make_rng, sample_cpfv, sample_pfv
import expected_case_study as ref

Q = algebraic_pair("algebraic_q")
P = algebraic_pair("algebraic_p")
OPERATORS = ("cpwa_q", "cpwa_p", "cpwg_q", "cpwg_p")

_suite_times: dict[str, float] = {}


def _timed(name):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            _suite_times[name] = time.perf_counter() - self.t0
            return False

    return _Timer()


def report(criterion: str, status: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f" -- {detail}"
    print(line)


@pytest.fixture(scope="module")
def problem():
    return load_case_study()


@pytest.fixture(scope="module")
def results(problem):
    return {op: solve(problem, op) for op in OPERATORS}


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_normalization_exact(problem):
    t0 = time.perf_counter()
    normalized = normalize(problem)
    elapsed = time.perf_counter() - t0
    for e, matrix in enumerate(normalized.experts):
        for i, row in enumerate(matrix):
            for j, cell in enumerate(row):
                assert (cell.mu, cell.nu) == ref.NORMALIZED[e][i][j], f"cell ({e},{i},{j})"
    assert normalize(normalized).experts == problem.experts  # involution back to the input
    assert elapsed < 1.0
    report("1 (normalization)", "PASS", f"75 cells exact, {elapsed * 1e3:.1f} ms")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_fusion_goldens(results):
    matrix = results["cpwa_q"].circular_matrix
    worst = 0.0
    for i in range(5):
        for j in range(5):
            v = matrix[i][j]
            mu_ref, nu_ref = ref.FUSED_CENTERS[i][j]
            r_ref = ref.FUSED_RADII[i][j]
            for got, want in ((v.mu, mu_ref), (v.nu, nu_ref), (v.r, r_ref)):
                dev = abs(round_half_up(got) - want)
                worst = max(worst, dev)
                assert dev <= 0.01 + 1e-12, f"cell ({i},{j}): {got} vs {want}"
    # spot anchors
    a11 = matrix[0][0]
    assert (round_half_up(a11.mu), round_half_up(a11.nu), round_half_up(a11.r)) == (0.45, 0.83, 0.16)
    assert round_half_up(matrix[2][3].r) == 0.37
    report("2 (fusion goldens)", "PASS", f"75 values within +/-0.01, worst dev {worst:.3f}")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_aggregation_goldens(results):
    worst = 0.0
    for op in OPERATORS:
        for i, v in enumerate(results[op].aggregated):
            for got, want in zip(
                (round_half_up(v.mu), round_half_up(v.nu), round_half_up(v.r)),
                ref.AGGREGATED[op][i],
            ):
                dev = abs(got - want)
                worst = max(worst, dev)
                assert dev <= 0.02 + 1e-12, f"{op} row {i}: {got} vs {want}"
    # spot anchor: second alternative under the arithmetic q-operator
    v = results["cpwa_q"].aggregated[1]
    assert (round_half_up(v.mu), round_half_up(v.nu), round_half_up(v.r)) == (0.78, 0.32, 0.0)
    report("3 (aggregation goldens)", "PASS", f"60 components within +/-0.02, worst dev {worst:.3f}")


# -- criterion 4 -------------------------------------------------------------

_similarity_devs: dict[tuple[str, int], float] = {}


def _similarity_params():
    params = []
    for op in OPERATORS:
        for i in range(5):
            if (op, i) in ref.INCONSISTENT_SIMILARITY:
                marks = pytest.mark.xfail(
                    strict=True,
                    reason=(
                        "reference table inconsistency: "
                        + ref.INCONSISTENT_SIMILARITY[(op, i)]
                    ),
                )
                params.append(pytest.param(op, i, marks=marks))
            else:
                params.append(pytest.param(op, i))
    return params


@pytest.mark.parametrize("op,i", _similarity_params())
def test_criterion_4_similarity_goldens(results, op, i):
    got = results[op].similarities[i]
    want = ref.SIMILARITIES[op][i]
    _similarity_devs[(op, i)] = abs(got - want)
    assert abs(got - want) <= 0.02, f"{op} A{i + 1}: {got:.4f} vs {want}"


def test_criterion_4_summary(results):
    # spot anchor: best alternative under the arithmetic q-operator
    assert abs(results["cpwa_q"].similarities[4] - 0.555) <= 0.02
    ok = sum(1 for d in _similarity_devs.values() if d <= 0.02)
    bad = {k: v for k, v in _similarity_devs.items() if v > 0.02}
    assert set(bad) == set(ref.INCONSISTENT_SIMILARITY)
    detail = f"{ok}/20 entries within +/-0.02"
    for (op, i), dev in bad.items():
        detail += f"; ({op}, A{i + 1}) deviates {dev:.3f} [reference-internal inconsistency, xfail]"
    report("4 (similarity goldens)", "FAIL" if bad else "PASS", detail)


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_ranking_exactness(results):
    for op in OPERATORS:
        assert results[op].ranking.ascending_string() == ref.RANKINGS[op], op
        assert results[op].ranking.best == ref.BEST[op], op
    report("5 (ranking exactness)", "PASS", "4/4 ranking strings equal")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_worked_examples():
    # set operations on the two three-element sets, reproduced exactly
    a = CPFS.from_components([("x1", 0.3, 0.8, 0.2), ("x2", 0.1, 0.9, 0.2), ("x3", 0.5, 0.6, 0.2)])
    b = CPFS.from_components([("x1", 0.7, 0.5, 0.6), ("x2", 0.2, 0.5, 0.6), ("x3", 0.6, 0.3, 0.6)])
    assert subset(a, b)
    assert equal(
        complement(a),
        CPFS.from_components([("x1", 0.8, 0.3, 0.2), ("x2", 0.9, 0.1, 0.2), ("x3", 0.6, 0.5, 0.2)]),
    )
    assert equal(
        union(a, b, "min"),
        CPFS.from_components([("x1", 0.7, 0.5, 0.2), ("x2", 0.2, 0.5, 0.2), ("x3", 0.6, 0.3, 0.2)]),
    )
    assert equal(
        union(a, b, "max"),
        CPFS.from_components([("x1", 0.7, 0.5, 0.6), ("x2", 0.2, 0.5, 0.6), ("x3", 0.6, 0.3, 0.6)]),
    )
    assert equal(
        intersect(a, b, "min"),
        CPFS.from_components([("x1", 0.3, 0.8, 0.2), ("x2", 0.1, 0.9, 0.2), ("x3", 0.5, 0.6, 0.2)]),
    )
    assert equal(
        intersect(a, b, "max"),
        CPFS.from_components([("x1", 0.3, 0.8, 0.6), ("x2", 0.1, 0.9, 0.6), ("x3", 0.5, 0.6, 0.6)]),
    )

    # fusion of the three point-value collections, at two decimals
    collections = [
        ([(0.3, 0.8), (0.4, 0.6), (0.5, 0.7), (0.4, 0.8)], (0.41, 0.73, 0.13)),
        ([(0.2, 0.3), (0.1, 0.4), (0.2, 0.5), (0.1, 0.6)], (0.16, 0.46, 0.17)),
        ([(0.9, 0.2), (0.8, 0.3), (0.8, 0.2), (0.7, 0.5)], (0.80, 0.32, 0.20)),
    ]
    for pairs, expected in collections:
        out = fuse([CPFV(mu, nu, 0.0).center for mu, nu in pairs])
        got = (round_half_up(out.mu), round_half_up(out.nu), round_half_up(out.r))
        assert got == expected
    report("6 (worked examples)", "PASS", "set operations exact, fusion at 2 decimals")


# -- criterion 7: randomized property suites ---------------------------------


def test_criterion_7a_closure():
    with _timed("closure"):
        rng = make_rng(1001)
        T = tnorm_from_generator(algebraic_generator())
        prod = lambda x, y: x * y  # noqa: E731
        n = 10_000
        for i in range(n):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            lam = rng.uniform(1e-6, 10.0)
            pair = Q if i % 2 == 0 else P
            # constructors validate the invariants, so surviving is the check
            add(a, b, pair)
            multiply(a, b, pair)
            scalar_multiple(lam, a, pair)
            power(a, lam, pair)
            add_minmax(a, b, "min")
            multiply_minmax(a, b, "max")
            add_general(a, b, T, min)
            multiply_general(a, b, T, prod)
            if i % 10 == 0:
                values = [sample_cpfv(rng) for _ in range(4)]
                raw = [rng.random() for _ in range(4)]
                w = WeightVector(tuple(x / sum(raw) for x in raw))
                cpwa(values, w, pair)
                cpwg(values, w, pair)
    report("7a (closure)", "PASS", f"10 operations x {n} cases, {_suite_times['closure']:.1f} s")


def test_criterion_7b_algebraic_laws():
    with _timed("laws"):
        rng = make_rng(1002)
        n = 10_000
        tol = 1e-12

        def close(x, y):
            return (
                abs(x.mu - y.mu) <= tol and abs(x.nu - y.nu) <= tol and abs(x.r - y.r) <= tol
            )

        for i in range(n):
            pair = Q if i % 2 == 0 else P
            a, b, c = sample_cpfv(rng), sample_cpfv(rng), sample_cpfv(rng)
            lam, gam = rng.uniform(1e-3, 5.0), rng.uniform(1e-3, 5.0)
            assert add(a, b, pair) == add(b, a, pair)
            assert multiply(a, b, pair) == multiply(b, a, pair)
            assert close(add(add(a, b, pair), c, pair), add(a, add(b, c, pair), pair))
            assert close(
                multiply(multiply(a, b, pair), c, pair), multiply(a, multiply(b, c, pair), pair)
            )
            assert close(
                scalar_multiple(lam, add(a, b, pair), pair),
                add(scalar_multiple(lam, a, pair), scalar_multiple(lam, b, pair), pair),
            )
            assert close(
                scalar_multiple(lam + gam, a, pair),
                add(scalar_multiple(lam, a, pair), scalar_multiple(gam, a, pair), pair),
            )
            assert close(
                power(multiply(a, b, pair), lam, pair),
                multiply(power(a, lam, pair), power(b, lam, pair), pair),
            )
            assert close(
                multiply(power(a, lam, pair), power(a, gam, pair), pair),
                power(a, lam + gam, pair),
            )
    report("7b (algebraic laws)", "PASS", f"8 laws x {n} cases, {_suite_times['laws']:.1f} s")


def test_criterion_7c_de_morgan():
    with _timed("de_morgan"):
        rng = make_rng(1003)
        n = 10_000
        labels = ("x", "y", "z")
        for _ in range(n):
            a = CPFS(tuple((lbl, sample_cpfv(rng)) for lbl in labels))
            b = CPFS(tuple((lbl, sample_cpfv(rng)) for lbl in labels))
            for mode in ("min", "max"):
                assert equal(
                    complement(union(a, b, mode)), intersect(complement(a), complement(b), mode)
                )
                assert equal(
                    complement(intersect(a, b, mode)), union(complement(a), complement(b), mode)
                )
    report("7c (De Morgan)", "PASS", f"4 identities x {n} cases exact, {_suite_times['de_morgan']:.1f} s")


def test_criterion_7d_similarity_properties():
    with _timed("similarity"):
        rng = make_rng(1004)
        n = 100_000
        for _ in range(n):
            a, b = sample_cpfv(rng), sample_cpfv(rng)
            if (a.mu == 0.0 and a.nu == 0.0) or (b.mu == 0.0 and b.nu == 0.0):
                continue
            s = csm(a, b)
            assert 0.0 <= s <= 1.0
            assert s == csm(b, a)
            assert csm(a, a) == 1.0
    report(
        "7d (similarity range/symmetry/reflexivity)",
        "PASS",
        f"{n} cases, {_suite_times['similarity']:.1f} s",
    )


def test_criterion_7e_generator_round_trips_and_duality():
    with _timed("generators"):
        rng = make_rng(1005)
        g, h = Q.g, Q.h
        for _ in range(10_000):
            t = rng.random()
            if t > 0.0:
                assert abs(g.inverse(g.forward(t)) - t) <= 1e-12
            assert abs(h.inverse(h.forward(t)) - t) <= 1e-12
        T = tnorm_from_generator(algebraic_generator())
        S = dual_tconorm(T)
        N = pythagorean_complement
        for i in range(101):
            for j in range(101):
                x, y = i / 100.0, j / 100.0
                assert abs(S(x, y) - N(T(N(x), N(y)))) <= 1e-12
                assert abs(T(x, y) - N(S(N(x), N(y)))) <= 1e-12
    report(
        "7e (generator round trips, duality)",
        "PASS",
        f"10000 round trips + 101x101 duality grid, {_suite_times['generators']:.1f} s",
    )


def test_criterion_7f_fold_oracle_equivalence():
    with _timed("fold"):
        rng = make_rng(1006)
        n = 10_000
        tol = 1e-12
        for _ in range(n):
            k = rng.randint(1, 4)
            values = [sample_cpfv(rng) for _ in range(k)]
            raw = [rng.random() + 1e-3 for _ in range(k)]
            ws = tuple(x / sum(raw) for x in raw)
            w = WeightVector(ws)

            folded = scalar_multiple(ws[0], values[0], Q)
            for v, wt in zip(values[1:], ws[1:]):
                folded = add(folded, scalar_multiple(wt, v, Q), Q)
            out = cpwa(values, w, Q)
            assert abs(out.mu - folded.mu) <= tol
            assert abs(out.nu - folded.nu) <= tol
            assert abs(out.r - folded.r) <= tol

            folded = power(values[0], ws[0], Q)
            for v, wt in zip(values[1:], ws[1:]):
                folded = multiply(folded, power(v, wt, Q), Q)
            out = cpwg(values, w, Q)
            assert abs(out.mu - folded.mu) <= tol
            assert abs(out.nu - folded.nu) <= tol
            assert abs(out.r - folded.r) <= tol
    report("7f (fold-oracle equivalence)", "PASS", f"{n} cases n<=4, {_suite_times['fold']:.1f} s")


def test_criterion_7_total_runtime():
    total = sum(_suite_times.values())
    assert len(_suite_times) == 6
    assert total < 30.0
    report("7 (randomized suites)", "PASS", f"total runtime {total:.1f} s < 30 s")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_complexity_model():
    assert complexity_estimate(5, 5, 3, "cpwa_q") == 1380
    assert complexity_estimate(5, 5, 3, "cpwg_q") == 1380
    assert complexity_estimate(5, 5, 3, "cpwa_p") == 1440
    assert complexity_estimate(5, 5, 3, "cpwg_p") == 1440
    for operator in ("cpwa_q", "cpwa_p"):
        counts = {}
        for k in range(2, 11):
            for n in range(2, 11):
                for m in (1, 2, 3):
                    counts[(k, n, m)] = complexity_estimate(k, n, m, operator)
        for (k, n, m), c in counts.items():
            if (k + 1, n, m) in counts:
                assert counts[(k + 1, n, m)] > c
            if (k, n + 1, m) in counts:
                assert counts[(k, n + 1, m)] > c
            assert complexity_estimate(k, n, m + 1, operator) > c
        for m in (1, 2, 3):
            smallest = min(((k, n) for (k, n, mm) in counts if mm == m), key=lambda kn: counts[(kn[0], kn[1], m)])
            assert smallest == (2, 2)
    report("8 (complexity model)", "PASS", "1380/1440 anchors, strictly monotone, minimum at (2,2)")
