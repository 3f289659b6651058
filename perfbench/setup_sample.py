"""One set-up sample, taken in a fresh interpreter.

    python3 perfbench/setup_sample.py SRC WORKLOAD [INPUT]

Times what a new process pays before its first solve: ``import cpfs`` (with
``cpfs.cli``) and loading the workload's input into the program.  Only
``sys``, ``time`` and the speed probe (``speed.py``, which loads only
built-in modules) are imported before the clock starts, so every module
that cpfs pulls in, from the standard library or elsewhere, loads inside the
timed span.  The interpreter's own start-up is not timed, and neither is
reading the benchmark's input file for ``tall``.  Prints the wall seconds
and the seconds at the probe's reference speed, as a JSON pair.

``run.py`` imports :func:`build_problem` to build the same problem in its
own process.
"""

import sys
import time

import speed

#: Seconds between speed samples; a case-study set-up takes about 40 ms.
PROBE_PERIOD = 0.01


def build_problem(cpfs, doc: dict):
    """The ``DecisionProblem`` of a problem document, built through the library."""
    PFV = cpfs.PFV
    return cpfs.DecisionProblem(
        alternatives=tuple(doc["alternatives"]),
        criteria=tuple(doc["criteria"]),
        polarity=tuple(doc["polarity"]),
        weights=cpfs.WeightVector(tuple(doc["weights"])),
        experts=tuple(
            tuple(tuple(PFV(mu, nu) for mu, nu in row) for row in matrix)
            for matrix in doc["experts"]
        ),
    )


def main(src: str, workload: str, path: str | None = None) -> tuple[float, float]:
    sys.path.insert(0, src)
    probe = speed.Probe(PROBE_PERIOD)
    probe.start()
    t0 = time.perf_counter()
    import cpfs
    import cpfs.cli  # noqa: F401
    t1 = time.perf_counter()
    if workload == "tall":
        import json

        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    t2 = time.perf_counter()
    if workload == "case_study":
        cpfs.datasets.load_case_study()
    elif workload == "panel":
        cpfs.serialize.load_problem(path)
    else:
        build_problem(cpfs, doc)
    t3 = time.perf_counter()
    probe.stop()
    return (
        probe.wall(t0, t1) + probe.wall(t2, t3),
        probe.corrected(t0, t1) + probe.corrected(t2, t3),
    )


if __name__ == "__main__":
    print(list(main(*sys.argv[1:])))
