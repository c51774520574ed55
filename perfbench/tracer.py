"""Per-layer attribution for a traced pass, from outside the library.

:class:`Tracer` wraps public functions and methods of the package's modules
(``core``, ``search``, ``checks``, ``constructions``, ``audit``,
``optimize``, ``simplex``, ``reweight``).  A function imported into other
modules with ``from .x import f`` is bound under several names, so the
wrapper replaces every binding of the same function object in every module
of the package, and ``uninstall`` puts the originals back.

Each wrapped call records a span: the function, its parent span, start and
end.  Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its wrapped child spans.  Counts are read
from arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, attribute path, extra counts) of every wrapped function.  The
# metric prefix is "<module>.<attribute path>".
TRACED = (
    ("search", "shortest_paths", ()),
    ("search", "dag_extreme_path", ()),
    ("search", "enumerate_walks", ("expansions", "walks")),
    ("checks", "check_exact", ("pairs",)),
    ("checks", "check_alpha", ()),
    ("checks", "check_two_sided", ()),
    ("checks", "unique_alpha_approx", ()),
    ("optimize", "simple_paths", ("paths", "expansions")),
    ("optimize", "build_preservation_lp", ("rows",)),
    ("optimize", "build_separation_lp", ("rows",)),
    ("optimize", "canonical_designated_path", ()),
    ("optimize", "min_aspect_ratio", ("lp_rounds",)),
    ("optimize", "grid_lower_bound", ()),
    ("simplex", "solve_lp", ("rows", "vars")),
    ("simplex", "verify_certificate", ()),
    ("simplex", "Constraint.satisfied_by", ()),
    ("core", "WeightedGraph.path_weight", ()),
    ("audit", "audit_directed_chain", ()),
    ("audit", "audit_undirected_chain", ()),
    ("audit", "audit_grid", ()),
    ("constructions", "gen_directed_chain", ()),
    ("constructions", "gen_undirected_chain", ()),
    ("constructions", "gen_grid", ()),
    ("reweight", "reweight_dag", ()),
)

# Ratios derived from the counts; trace.overhead_share is filled in by the
# runner, which times the untraced passes.
DERIVED = (
    "search.enumerate_walks.walks_per_expansion",
    "checks.failing_pair_share",
    "optimize.rows_active_share",
    "trace.overhead_share",
)


# Counts read from a finished call's positional arguments and result.
_READERS = {
    "search.enumerate_walks": lambda args, r: {"walks": len(r)},
    "optimize.simple_paths": lambda args, r: {"paths": len(r)},
    "checks.check_exact": lambda args, r: {
        "pairs": r.pairs_checked,
        "failing": len({(w.s, w.t) for w in r.witnesses}),
    },
    # The pool: every row but the weight >= 1 normalization rows.
    "optimize.build_preservation_lp": lambda args, r: {
        "rows": sum(not c.note.startswith("normalization:") for c in r.constraints)
    },
    "optimize.build_separation_lp": lambda args, r: {"rows": len(r.constraints)},
    "simplex.solve_lp": lambda args, r: {
        "rows": len(args[0].constraints),
        "vars": len(args[0].variables),
    },
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, attr, counts in TRACED:
        units[f"{module}.{attr}.calls"] = "count"
        units[f"{module}.{attr}.self_s"] = "s"
        for count in counts:
            units[f"{module}.{attr}.{count}"] = "count"
    for name in DERIVED:
        units[name] = "ratio"
    return units


def _budget_of(bound, work_budget):
    """The call's WorkBudget; an int budget is turned into an equal one, so
    the expansions spent can be read off ``left`` afterwards."""
    budget = bound.arguments.get("budget", bound.signature.parameters["budget"].default)
    if isinstance(budget, int):
        budget = work_budget(budget)
        bound.arguments["budget"] = budget
    return budget


class Tracer:
    """Spans and counts of the wrapped functions of one package import."""

    def __init__(self, package: str, clock):
        self.clock = clock  # span clock, perf_counter with probe time left out
        self.modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        }
        self.work_budget = self.modules[f"{package}.core"].WorkBudget
        self.names = [f"{module}.{attr}" for module, attr, _ in TRACED]
        self._originals = []
        for module, attr, _ in TRACED:
            owner = self.modules[f"{package}.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._originals.append((owner, leaf, getattr(owner, leaf)))
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.func: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.child_s: list[float] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []

    # ----------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every traced function; recording starts afresh."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._reset()
        for fid, (owner, leaf, original) in enumerate(self._originals):
            wrapper = self._wrap(fid, original, TRACED[fid][2])
            if isinstance(owner, type):
                self._patch(owner, leaf, wrapper)
                continue
            for mod in self.modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fid: int, fn, counts: tuple[str, ...]):
        func, parent, start, end, child_s = (
            self.func, self.parent, self.start, self.end, self.child_s
        )
        stack = self._stack
        clock = self.clock
        budgeted = "expansions" in counts
        reader = _READERS.get(self.names[fid])
        signature = inspect.signature(fn) if budgeted else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(func)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            child_s.append(0.0)
            start.append(0.0)
            end.append(0.0)
            if budgeted:
                bound = signature.bind(*args, **kwargs)
                budget = _budget_of(bound, self.work_budget)
                left = budget.left
                args, kwargs = bound.args, bound.kwargs
            stack.append(idx)
            t0 = clock()
            start[idx] = t0
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                end[idx] = t1
                if stack:
                    child_s[stack[-1]] += t1 - t0
                if counts:
                    # A result of None means the call raised.
                    got = reader(args, result) if reader and result is not None else {}
                    if budgeted:
                        got["expansions"] = left - budget.left
                    self.counts[idx] = got

        return wrapper

    # ------------------------------------------------------------ report

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over the spans of the last installation, except
        trace.overhead_share."""
        n_funcs = len(self.names)
        calls = [0] * n_funcs
        self_s = [0.0] * n_funcs
        totals: list[dict[str, int]] = [{} for _ in range(n_funcs)]
        for idx, fid in enumerate(self.func):
            calls[fid] += 1
            self_s[fid] += self.end[idx] - self.start[idx] - self.child_s[idx]
            for key, value in self.counts.get(idx, {}).items():
                totals[fid][key] = totals[fid].get(key, 0) + value

        fid_of = {name: fid for fid, name in enumerate(self.names)}
        solve, build, aspect = (
            fid_of["simplex.solve_lp"],
            fid_of["optimize.build_preservation_lp"],
            fid_of["optimize.min_aspect_ratio"],
        )
        # LP rounds and the rows of the last LP solved, per min_aspect_ratio
        # span; its pool is the build_preservation_lp child's row count.
        rounds: dict[int, int] = {}
        last_rows: dict[int, int] = {}
        pool_rows: dict[int, int] = {}
        for idx, fid in enumerate(self.func):
            up = self.parent[idx]
            if up < 0 or self.func[up] != aspect:
                continue
            if fid == solve:
                rounds[up] = rounds.get(up, 0) + 1
                last_rows[up] = self.counts.get(idx, {}).get("rows", 0)
            elif fid == build:
                pool_rows[up] = self.counts.get(idx, {}).get("rows", 0)
        totals[aspect]["lp_rounds"] = sum(rounds.values())

        out: dict[str, float] = {}
        for fid, (module, attr, counts) in enumerate(TRACED):
            prefix = f"{module}.{attr}"
            out[f"{prefix}.calls"] = calls[fid]
            out[f"{prefix}.self_s"] = self_s[fid]
            for count in counts:
                out[f"{prefix}.{count}"] = totals[fid].get(count, 0)
        walks = totals[fid_of["search.enumerate_walks"]]
        out["search.enumerate_walks.walks_per_expansion"] = _ratio(
            walks.get("walks", 0), walks.get("expansions", 0)
        )
        exact = totals[fid_of["checks.check_exact"]]
        out["checks.failing_pair_share"] = _ratio(exact.get("failing", 0), exact.get("pairs", 0))
        pooled = [up for up, rows in pool_rows.items() if rows]
        out["optimize.rows_active_share"] = _ratio(
            sum(last_rows.get(up, 0) for up in pooled), sum(pool_rows[up] for up in pooled)
        )
        return out

    def spans(self) -> dict:
        """The recorded spans in a JSON-ready form."""
        return {
            "functions": self.names,
            "fields": ["function", "parent", "start_s", "end_s", "counts"],
            "spans": [
                [fid, self.parent[i], self.start[i], self.end[i], self.counts.get(i, {})]
                for i, fid in enumerate(self.func)
            ],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
