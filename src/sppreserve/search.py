"""Shortest-path machinery: exact Dijkstra, bounded walk and simple-path
enumeration, and dynamic programming over tight-edge subgraphs.

This is the only module that walks the graph.  One Dijkstra loop serves both
directions: forward from a source over ``graph.adjacency``, and backward to
a target over ``graph.incoming``, whose distances-to-target prune the walk
and simple-path enumerators.

The tight-edge subgraph of a source (edges with dist(v) = dist(u) + w(u,v))
contains exactly the shortest paths from that source, and is acyclic because
all weights are positive; that is what lets the checkers evaluate "every
shortest path" questions in polynomial time.
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

    tight: list[tuple[int, int, int]] = []
    for idx, (u, v, _) in enumerate(graph.edges):
        for a, b in ((u, v),) if graph.directed else ((u, v), (v, u)):
            da, db = dist[a], dist[b]
            if da is None or db is None:
                continue
            # Dijkstra guarantees db <= da + w; equality marks a tight edge,
            # so every source-to-t path inside `tight` telescopes to dist(t).
            assert db <= da + weights[idx]
            if db == da + weights[idx]:
                tight.append((a, b, idx))
    tight.sort()
    return DistanceTable(source=source, dist=tuple(dist), tight=tuple(tight))


def _dijkstra(
    adjacency: tuple[tuple[tuple[int, int], ...], ...],
    source: int,
    weights: tuple[Fraction, ...],
) -> list[Fraction | None]:
    """Distances from ``source`` along ``adjacency``; None if unreachable."""
    dist: list[Fraction | None] = [None] * len(adjacency)
    dist[source] = Fraction(0)
    heap: list[tuple[Fraction, int]] = [(Fraction(0), source)]
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

    succ = tight.tight_successors()
    # Tight edges strictly increase dist, so (dist, vertex) sorts vertices in
    # a topological order of the tight subgraph.
    order = sorted(
        (v for v in range(len(tight.dist)) if tight.dist[v] is not None),
        key=lambda v: (tight.dist[v], v),
    )
    best: dict[int, tuple[Fraction, Path]] = {s: (Fraction(0), (s,))}
    better = (lambda a, b: a > b) if mode == "max" else (lambda a, b: a < b)
    for u in order:
        if u not in best:
            continue
        base, bpath = best[u]
        for v, idx in succ.get(u, ()):
            cand = base + costs[idx]
            cpath = bpath + (v,)
            if v not in best or better(cand, best[v][0]) or (
                cand == best[v][0] and cpath < best[v][1]
            ):
                best[v] = (cand, cpath)
    if t not in best:
        raise ValueError("no tight path")
    return best[t]
