"""Tracing from outside: wrappers installed by rebinding cpfs names.

Calls made once or a few times per solve get a span each: name, start,
end, parent span and solve id.  Calls made per cell or per row are counted,
and those of them that belong to a layer of interest have their time
accumulated; they get no span.  Spans stay in memory until :meth:`dump`.

A layer's self time is the duration of its spans minus the time of child
spans and of timed per-cell calls of *other* layers made inside them.

Every rebinding is recorded with the object it replaced; :meth:`uninstall`
puts the originals back and :meth:`assert_restored` proves it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, solve_id]
        self.foreign_ns: dict[int, int] = defaultdict(int)  # span -> other-layer timed calls
        self.timed_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.tied: list[float] = []
        self.model_ops: list[int] = []
        self.solve_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, _clock(), 0, stack[-1] if stack else None, self.solve_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = _clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _timed(self, name: str, fn):
        """Per-cell call: count it and accumulate its time, charged to ``name``."""
        layer = name.split(".")[0]
        stack, spans, timed, counts, foreign = (
            self._stack, self.spans, self.timed_ns, self.counts, self.foreign_ns
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                timed[name] += dt
                counts[name] += 1
                if stack and not spans[stack[-1]][0].startswith(layer + "."):
                    foreign[stack[-1]] += dt

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- install / uninstall --------------------------------------------------

    def install(self, cpfs) -> None:
        """Wrap the layer boundaries of the imported ``cpfs`` package."""
        cli, mcdm = cpfs.cli, cpfs.mcdm
        serialize, values = cpfs.serialize, cpfs.values

        def count_bytes_read(args, kwargs, result):
            self.counts["serialize.bytes_read"] += os.path.getsize(args[0])

        def count_bytes_written(args, kwargs, result):
            self.counts["serialize.bytes_written"] += sum(os.path.getsize(p) for p in result.values())

        def record_solve(args, kwargs, result):
            experts, alternatives, criteria = result.problem.shape
            self.model_ops.append(
                mcdm.complexity_estimate(criteria, alternatives, experts, result.operator)
            )

        def record_ties(args, kwargs, result):
            entries = result.entries
            self.tied.append(sum(e.tied for e in entries) / len(entries))

        self._rebind(cli, "main", self._span("cli.main", cli.main))
        self._rebind(cli, "load_problem",
                     self._span("serialize.load_problem", cli.load_problem, count_bytes_read))
        self._rebind(cli, "write_solve_tables",
                     self._span("serialize.write_solve_tables", cli.write_solve_tables,
                                count_bytes_written))
        solve = self._span("mcdm.solve", mcdm.solve, record_solve)
        self._rebind(cli, "solve", solve)
        self._rebind(mcdm, "solve", solve)
        self._rebind(mcdm, "normalize", self._span("mcdm.normalize", mcdm.normalize))
        self._rebind(mcdm, "build_circular_matrix",
                     self._span("fusion.build_circular_matrix", mcdm.build_circular_matrix))
        from_scores = vars(mcdm.Ranking)["from_scores"].__func__
        self._rebind(mcdm.Ranking, "from_scores",
                     classmethod(self._span("mcdm.rank", from_scores, record_ties)))

        make_operator = mcdm.make_operator

        def timed_make_operator(*args, **kwargs):
            return self._timed("aggregation.operator", make_operator(*args, **kwargs))

        self._rebind(mcdm, "make_operator", functools.wraps(make_operator)(timed_make_operator))
        self._rebind(mcdm, "round_half_up", self._timed("rounding.round_half_up", mcdm.round_half_up))
        self._rebind(mcdm, "csm_to_ideal", self._timed("similarity.csm_to_ideal", mcdm.csm_to_ideal))
        self._rebind(serialize, "format_fixed",
                     self._timed("rounding.format_fixed", serialize.format_fixed))
        for cls, name in ((values.PFV, "values.pfv_built"), (values.CPFV, "values.cpfv_built"),
                          (mcdm.DecisionProblem, "mcdm.problem_validations")):
            self._rebind(cls, "__post_init__", self._counted(name, vars(cls)["__post_init__"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def assert_restored(self) -> None:
        """Raise if any rebound name does not hold its original object."""
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches if vars(owner)[attr] is not original]
        if left:
            raise RuntimeError(f"tracing wrappers still installed: {left}")

    # -- results --------------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        child = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[idx] - self.foreign_ns[idx]
        return totals

    def span_ns(self, name: str) -> int:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "solve_id"],
                    "spans": self.spans,
                    "timed_ns": self.timed_ns,
                    "counts": self.counts,
                    "model_ops": self.model_ops,
                },
                fh,
            )


def snapshot(cpfs) -> dict:
    """Identity of every attribute of every cpfs module and of the classes
    the tracer touches, to prove that uninstalling restored all of them."""
    state = {}
    for name, module in sorted(sys.modules.items()):
        if name == "cpfs" or name.startswith("cpfs."):
            for attr, value in vars(module).items():
                state[(name, attr)] = id(value)
    for cls in (cpfs.values.PFV, cpfs.values.CPFV, cpfs.mcdm.DecisionProblem, cpfs.mcdm.Ranking):
        for attr, value in vars(cls).items():
            state[(cls.__qualname__, attr)] = id(value)
    return state
