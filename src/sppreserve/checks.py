"""Checkers for shortest-paths preservation, with concrete witnesses.

Three notions are covered, from strict to loose:

* exact: every shortest path of the reweighted graph is a shortest path of
  the original (model "one"); the converse reading (model "all") and the
  conjunction ("both") are exposed as flags;
* alpha-stretch: every shortest path of the reweighted graph is an
  alpha-approximate shortest path of the original;
* two-sided stretch: every alpha_H-approximate walk of the reweighted graph
  is an alpha_G-approximate walk of the original.

The first two are decided in polynomial time: per source, one Dijkstra per
weight function and one dynamic program over the tight-edge subgraph give
the verdict for every target at once, all over integer-scaled weights;
``Fraction`` values are built only for the witnesses reported.  The
two-sided check is enumeration based with an explicit work budget (it can
error out, it never silently passes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    Path,
    RationalLike,
    WeightMap,
    WeightedGraph,
    WorkBudget,
    as_fraction,
    format_fraction,
    is_simple,
    scale_to_integers,
)
from .search import (
    DEFAULT_WALK_BUDGET,
    _dijkstra,
    _extreme_sweep,
    _tight_lists,
    enumerate_walks,
    shortest_paths,
)

CHECK_MODELS = ("one", "all", "both")


@dataclass(frozen=True)
class StretchParams:
    """Two-sided stretch factors; both at least 1."""

    alpha_h: Fraction
    alpha_g: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha_h", as_fraction(self.alpha_h))
        object.__setattr__(self, "alpha_g", as_fraction(self.alpha_g))
        if self.alpha_h < 1 or self.alpha_g < 1:
            raise ValueError("stretch factors must be >= 1")


@dataclass(frozen=True)
class Witness:
    """One concrete violation: the offending path and all four weights."""

    s: int
    t: int
    path: Path
    w_g: Fraction
    w_h: Fraction
    d_g: Fraction
    d_h: Fraction
    kind: str

    @property
    def is_simple(self) -> bool:
        return is_simple(self.path)

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "path": list(self.path),
            "w_g": format_fraction(self.w_g),
            "w_h": format_fraction(self.w_h),
            "d_g": format_fraction(self.d_g),
            "d_h": format_fraction(self.d_h),
            "simple": self.is_simple,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class CheckReport:
    check: str
    passed: bool
    witnesses: tuple[Witness, ...]
    pairs_checked: int
    stats: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        stats = {"pairs_checked": self.pairs_checked}
        stats.update(self.stats)
        return {
            "check": self.check,
            "verdict": self.verdict,
            "witnesses": [w.to_json() for w in self.witnesses],
            "stats": stats,
        }


def _tight_dag_check(
    graph: WeightedGraph,
    wmap: WeightMap,
    alpha: Fraction,
    flips: tuple[bool, ...],
) -> tuple[list[Witness], int]:
    """Shared engine for the tight-subgraph checks, one pass per source.

    With ``flipped`` False: every shortest path under ``wmap`` must have
    original weight at most alpha * d_G.  With ``flipped`` True the roles of
    the two weight functions swap (used by the "all" model, alpha = 1).
    Both distance tables of a source serve every direction in ``flips``.
    """
    g_ints, g_scale = scale_to_integers(graph.weights)
    h_ints, h_scale = scale_to_integers(wmap.weights)
    witnesses: list[Witness] = []
    pairs = 0
    for s in range(graph.n):
        d_g = _dijkstra(graph.adjacency, s, g_ints)
        d_h = _dijkstra(graph.adjacency, s, h_ints)
        pairs += sum(d is not None for d in d_g) - 1
        for flipped in flips:
            # Tight subgraph of `table`; path costs and the bound `ref` are
            # both in the other weight function's integer scale.
            if flipped:
                table, t_ints, ref, c_ints = d_g, g_ints, d_h, h_ints
            else:
                table, t_ints, ref, c_ints = d_h, h_ints, d_g, g_ints
            worst, paths = _extreme_sweep(
                _tight_lists(graph.adjacency, table, t_ints), table, s, c_ints, "max"
            )
            for t, w in enumerate(worst):
                if t == s or w is None or w * alpha.denominator <= alpha.numerator * ref[t]:
                    continue
                dg, dh = Fraction(d_g[t], g_scale), Fraction(d_h[t], h_scale)
                witnesses.append(
                    Witness(
                        s=s,
                        t=t,
                        path=paths[t],
                        w_g=dg if flipped else Fraction(w, g_scale),
                        w_h=Fraction(w, h_scale) if flipped else dh,
                        d_g=dg,
                        d_h=dh,
                        kind="old-shortest-not-shortest" if flipped else "new-shortest-not-shortest",
                    )
                )
    return witnesses, pairs


def check_exact(graph: WeightedGraph, wmap: WeightMap, model: str = "one") -> CheckReport:
    """Decide whether ``wmap`` preserves shortest paths exactly.

    Model "one": every shortest path under the new weights is a shortest
    path under the old ones.  Model "all": every old shortest path stays
    shortest under the new weights.  Model "both": the conjunction.
    """
    wmap.validate_for(graph)
    if model not in CHECK_MODELS:
        raise ValueError(f"model must be one of {CHECK_MODELS}")
    flips = {"one": (False,), "all": (True,), "both": (False, True)}[model]
    witnesses, pairs = _tight_dag_check(graph, wmap, Fraction(1), flips)
    witnesses.sort(key=lambda w: (w.s, w.t, w.kind))
    return CheckReport(
        check=f"exact[{model}]",
        passed=not witnesses,
        witnesses=tuple(witnesses),
        pairs_checked=pairs,
    )


def check_alpha(graph: WeightedGraph, wmap: WeightMap, alpha: RationalLike) -> CheckReport:
    """Every shortest path under ``wmap`` must be an alpha-approximate
    shortest path under the original weights."""
    wmap.validate_for(graph)
    alpha = as_fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    witnesses, pairs = _tight_dag_check(graph, wmap, alpha, (False,))
    witnesses.sort(key=lambda w: (w.s, w.t))
    return CheckReport(
        check=f"alpha[{format_fraction(alpha)}]",
        passed=not witnesses,
        witnesses=tuple(witnesses),
        pairs_checked=pairs,
    )


def check_two_sided(
    graph: WeightedGraph,
    wmap: WeightMap,
    params: StretchParams,
    budget: int = DEFAULT_WALK_BUDGET,
) -> CheckReport:
    """Every walk within alpha_H of the new distance must be within alpha_G
    of the original distance.

    Walks (not just simple paths) are enumerated, because the definition
    does not say which is intended; witnesses carry an is_simple flag so
    both readings can be evaluated from the same report.  ``budget`` bounds
    the total number of expanded walk prefixes across all pairs.
    """
    wmap.validate_for(graph)
    meter = WorkBudget(budget)
    witnesses: list[Witness] = []
    pairs = 0
    walks_seen = 0
    non_simple = 0
    for s in range(graph.n):
        d_h = shortest_paths(graph, s, wmap)
        d_g = shortest_paths(graph, s)
        for t in range(graph.n):
            if t == s or d_h.dist[t] is None:
                continue
            pairs += 1
            bound_h = params.alpha_h * d_h.dist[t]
            bound_g = params.alpha_g * d_g.dist[t]
            walks = enumerate_walks(graph, s, t, bound_h, wmap, budget=meter)
            walks_seen += len(walks)
            for path, w_h in walks:
                w_g = graph.path_weight(path)
                if w_g > bound_g:
                    if not is_simple(path):
                        non_simple += 1
                    witnesses.append(
                        Witness(
                            s=s,
                            t=t,
                            path=path,
                            w_g=w_g,
                            w_h=w_h,
                            d_g=d_g.dist[t],
                            d_h=d_h.dist[t],
                            kind="approx-shortest-overstretched",
                        )
                    )
    witnesses.sort(key=lambda w: (w.s, w.t, w.path))
    return CheckReport(
        check=f"two-sided[{format_fraction(params.alpha_h)}->{format_fraction(params.alpha_g)}]",
        passed=not witnesses,
        witnesses=tuple(witnesses),
        pairs_checked=pairs,
        stats={"walks_checked": walks_seen, "non_simple_witnesses": non_simple},
    )


@dataclass(frozen=True)
class UniquenessCheck:
    """Outcome of a unique-(alpha-approximate-)shortest-path test."""

    passed: bool
    designated: Path
    designated_weight: Fraction
    witness: Path | None = None
    witness_weight: Fraction | None = None


def unique_alpha_approx(
    graph: WeightedGraph,
    s: int,
    t: int,
    designated: Path,
    alpha: RationalLike,
    wmap: WeightMap | None = None,
    budget: int | WorkBudget = DEFAULT_WALK_BUDGET,
) -> UniquenessCheck:
    """Pass iff ``designated`` is the shortest s-to-t path and every rival
    simple path weighs strictly more than alpha times it.

    Decided by enumerating all walks of weight at most alpha * w(designated):
    a rival simple path within the bound fails the check.  Non-simple walks
    within the bound cannot hide a violation: a walk always outweighs its
    simple reduction, so the reduction of any such walk is itself enumerated,
    and if every in-bound simple path is the designated one, in-bound walks
    are exactly the designated path plus detours along it.
    """
    designated = tuple(designated)
    if not graph.is_valid_path(designated) or designated[0] != s or designated[-1] != t:
        raise ValueError("designated path is not a valid s-to-t path")
    alpha = as_fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    w_des = graph.path_weight(designated, wmap)
    walks = enumerate_walks(graph, s, t, alpha * w_des, wmap, budget=budget)
    for path, weight in walks:
        if path != designated and is_simple(path):
            return UniquenessCheck(
                passed=False,
                designated=designated,
                designated_weight=w_des,
                witness=path,
                witness_weight=weight,
            )
    return UniquenessCheck(passed=True, designated=designated, designated_weight=w_des)
