"""Shortest-path machinery: exact Dijkstra, bounded walk and simple-path
enumeration, and dynamic programming over tight-edge subgraphs.

This is the only module that walks the graph.  One Dijkstra loop serves both
directions: forward from a source over ``graph.adjacency``, and backward to
a target over ``graph.incoming``, whose distances-to-target prune the walk
and simple-path enumerators.  It runs on ``Fraction`` weights or on the
integers ``core.scale_to_integers`` makes of them; a positive common scale
changes no sum comparison, so the hot loops of the checkers run on ints.

The tight-edge subgraph of a source (edges with dist(v) = dist(u) + w(u,v))
contains exactly the shortest paths from that source, and is acyclic because
all weights are positive; that is what lets the checkers evaluate "every
shortest path" questions in polynomial time.  One dynamic program sweeps it
per source, in (dist, vertex) order, and yields the extreme cost of every
target at once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .core import Path, WeightedGraph, WeightMap, WorkBudget

DEFAULT_WALK_BUDGET = 10**6


@dataclass(frozen=True)
class DistanceTable:
    """Single-source shortest-path distances plus the tight-edge subgraph.

    ``dist[v]`` is None for unreachable vertices.  ``tight`` holds directed
    traversals (u, v, edge_index) with dist(v) = dist(u) + w(u,v); for
    undirected graphs an edge may appear in either or both directions.
    """

    source: int
    dist: tuple[Fraction | None, ...]
    tight: tuple[tuple[int, int, int], ...]

    def tight_successors(self) -> dict[int, list[tuple[int, int]]]:
        """Map u -> sorted [(v, edge_index)] over tight traversals."""
        out: dict[int, list[tuple[int, int]]] = {}
        for u, v, idx in self.tight:
            out.setdefault(u, []).append((v, idx))
        for lst in out.values():
            lst.sort()
        return out


def shortest_paths(
    graph: WeightedGraph, source: int, wmap: WeightMap | None = None
) -> DistanceTable:
    """Exact-rational Dijkstra from ``source``; weights must be positive."""
    if not (0 <= source < graph.n):
        raise ValueError(f"source {source} out of range")
    weights = graph.weights if wmap is None else wmap.weights
    if wmap is not None:
        wmap.validate_for(graph)
    dist = _dijkstra(graph.adjacency, source, weights)
    succ = _tight_lists(graph.adjacency, dist, weights)
    tight = tuple((u, v, idx) for u, out in enumerate(succ) for v, idx in out)
    return DistanceTable(source=source, dist=tuple(dist), tight=tight)


def _tight_lists(
    adjacency: tuple[tuple[tuple[int, int], ...], ...],
    dist: list | tuple,
    weights: tuple,
) -> list[list[tuple[int, int]]]:
    """Per-vertex sorted (v, edge_index) traversals with dist(v) = dist(u) + w.

    Every source-to-t path over these traversals telescopes to dist(t).
    """
    succ: list[list[tuple[int, int]]] = []
    for du, adj in zip(dist, adjacency):
        out: list[tuple[int, int]] = []
        if du is not None:
            for v, idx in adj:
                dv = du + weights[idx]
                if dist[v] == dv:
                    out.append((v, idx))
                elif dist[v] > dv:  # Dijkstra guarantees dist(v) <= dist(u) + w
                    raise RuntimeError(
                        f"distance table is not shortest: edge #{idx} shortens the path to {v}"
                    )
        succ.append(out)
    return succ


def _dijkstra(
    adjacency: tuple[tuple[tuple[int, int], ...], ...],
    source: int,
    weights: tuple,
) -> list:
    """Distances from ``source`` along ``adjacency``; None if unreachable.

    Sums are of the weights' own type: Fractions, or scaled ints.
    """
    dist: list = [None] * len(adjacency)
    dist[source] = 0
    heap: list[tuple] = [(0, source)]
    done = [False] * len(adjacency)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, idx in adjacency[u]:
            nd = d + weights[idx]
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def enumerate_walks(
    graph: WeightedGraph,
    s: int,
    t: int,
    bound: Fraction,
    wmap: WeightMap | None = None,
    budget: int | WorkBudget = DEFAULT_WALK_BUDGET,
) -> list[tuple[Path, Fraction]]:
    """All s-to-t walks of total weight <= bound, in lexicographic order.

    Walks may repeat vertices; positive weights keep the result finite for any
    finite bound.  Pruning uses the prefix weight plus the exact remaining
    distance to ``t``, so only prefixes of reportable walks are expanded.
    ``budget`` caps the number of expanded prefixes (pass a shared
    :class:`WorkBudget` to meter several calls together); when it runs out a
    ``BudgetExceededError`` is raised, never a silent truncation.
    """
    if isinstance(budget, int):
        budget = WorkBudget(budget)
    if bound < 0:
        return []
    weights = graph.weights if wmap is None else wmap.weights
    if wmap is not None:
        wmap.validate_for(graph)

    remaining = _dijkstra(graph.incoming, t, weights)
    results: list[tuple[Path, Fraction]] = []
    if remaining[s] is None:  # t unreachable (never the case for s == t)
        return results

    # Stack frames: (vertex, next-adjacency-position, prefix weight).
    path = [s]
    stack: list[tuple[int, int, Fraction]] = [(s, 0, Fraction(0))]
    if s == t:
        results.append(((s,), Fraction(0)))
    while stack:
        u, pos, acc = stack.pop()
        adj = graph.adjacency[u]
        advanced = False
        while pos < len(adj):
            v, idx = adj[pos]
            pos += 1
            nacc = acc + weights[idx]
            rem = remaining[v]
            if rem is None or nacc + rem > bound:
                continue
            budget.spend()
            stack.append((u, pos, acc))
            path.append(v)
            if v == t:
                results.append((tuple(path), nacc))
            stack.append((v, 0, nacc))
            advanced = True
            break
        if not advanced:
            path.pop()
    return results


def simple_paths(
    graph: WeightedGraph,
    s: int,
    t: int,
    budget: int | WorkBudget = DEFAULT_WALK_BUDGET,
) -> list[Path]:
    """All simple s-to-t paths, lexicographically ordered.

    Only vertices that can still reach ``t`` are entered, so dead branches
    cost nothing.  ``budget`` meters expansions and raises when exhausted.
    """
    if isinstance(budget, int):
        budget = WorkBudget(budget)
    if s == t:
        return [(s,)]
    remaining = _dijkstra(graph.incoming, t, graph.weights)
    if remaining[s] is None:
        return []
    results: list[Path] = []
    path = [s]
    on_path = {s}

    def extend(u: int) -> None:
        for v, _ in graph.adjacency[u]:
            if v in on_path or remaining[v] is None:
                continue
            budget.spend()
            path.append(v)
            if v == t:
                results.append(tuple(path))
            else:
                on_path.add(v)
                extend(v)
                on_path.discard(v)
            path.pop()

    extend(s)
    return results


def dag_extreme_cost(
    tight: DistanceTable,
    alt_costs: tuple[Fraction, ...] | WeightMap,
    s: int,
    t: int,
    mode: str,
) -> Fraction:
    """Min or max of sum(alt_costs) over s-to-t paths in the tight subgraph."""
    cost, _ = dag_extreme_path(tight, alt_costs, s, t, mode)
    return cost


def dag_extreme_path(
    tight: DistanceTable,
    alt_costs: tuple[Fraction, ...] | WeightMap,
    s: int,
    t: int,
    mode: str,
) -> tuple[Fraction, Path]:
    """Like :func:`dag_extreme_cost` but also returns one extremal path.

    Among equal-cost extremal paths the lexicographically smallest vertex
    sequence is returned, which keeps witnesses deterministic.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    if s != tight.source:
        raise ValueError(f"table was computed from source {tight.source}, not {s}")
    costs = alt_costs.weights if isinstance(alt_costs, WeightMap) else tuple(alt_costs)
    if tight.dist[t] is None:
        raise ValueError("no tight path")
    by_tail = tight.tight_successors()
    succ = [by_tail.get(u, []) for u in range(len(tight.dist))]
    best, paths = _extreme_sweep(succ, tight.dist, s, costs, mode)
    return best[t], paths[t]


def _extreme_sweep(
    succ: list[list[tuple[int, int]]],
    dist: list | tuple,
    source: int,
    costs: tuple,
    mode: str,
) -> tuple[list, list[Path | None]]:
    """Min or max of sum(costs) over the tight source-to-v paths, for every v.

    ``succ`` is the tight subgraph of ``dist`` (see :func:`_tight_lists`);
    costs may be ints or Fractions.  Returns ``(best, paths)``, None where v
    is unreachable; ``paths[v]`` is the lexicographically smallest extremal
    path.  In a DAG that path minus its last vertex is the lexicographically
    smallest extremal path to its predecessor, so one path per vertex is kept.
    """
    n = len(dist)
    best: list = [None] * n
    paths: list[Path | None] = [None] * n
    best[source] = 0
    paths[source] = (source,)
    maximize = mode == "max"
    # Tight edges strictly increase dist, so (dist, vertex) order is a
    # topological order of the tight subgraph: every tight predecessor of u
    # is final before u is expanded.
    for u in sorted((v for v in range(n) if dist[v] is not None), key=lambda v: (dist[v], v)):
        base, bpath = best[u], paths[u]
        for v, idx in succ[u]:
            cand = base + costs[idx]
            old = best[v]
            if old is None or (cand > old if maximize else cand < old):
                best[v] = cand
                paths[v] = bpath + (v,)
            elif cand == old:
                cpath = bpath + (v,)
                if cpath < paths[v]:
                    paths[v] = cpath
    return best, paths
