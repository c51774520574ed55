"""Brute-force oracles, independent of the package's search machinery.

Everything here works by plain DFS over the raw edge list: no Dijkstra, no
tight-subgraph DP, no pruning beyond the weight bound itself.  Slow on
purpose; only run on small graphs.  The one exception is the reference
checker engine at the end, a per-pair DP kept to test the checkers against.
"""

from __future__ import annotations

from fractions import Fraction

from sppreserve import WeightMap, WeightedGraph, shortest_paths


def adjacency(graph: WeightedGraph, weights=None) -> list[list[tuple[int, Fraction]]]:
    ws = list(graph.weights if weights is None else weights.weights)
    out: list[list[tuple[int, Fraction]]] = [[] for _ in range(graph.n)]
    for idx, (u, v, _) in enumerate(graph.edges):
        out[u].append((v, ws[idx]))
        if not graph.directed:
            out[v].append((u, ws[idx]))
    for lst in out:
        lst.sort()
    return out


def all_simple_paths(graph: WeightedGraph, s: int, t: int) -> list[tuple[int, ...]]:
    adj = adjacency(graph)
    found: list[tuple[int, ...]] = []

    def walk(u, seen, path):
        if u == t:
            found.append(tuple(path))
            return
        for v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                path.append(v)
                walk(v, seen, path)
                path.pop()
                seen.discard(v)

    walk(s, {s}, [s])
    return sorted(found)


def path_weight(graph: WeightedGraph, path, weights=None) -> Fraction:
    ws = graph.weights if weights is None else weights.weights
    lookup = {}
    for idx, (u, v, _) in enumerate(graph.edges):
        lookup[(u, v)] = ws[idx]
        if not graph.directed:
            lookup[(v, u)] = ws[idx]
    return sum((lookup[(u, v)] for u, v in zip(path, path[1:])), Fraction(0))


def shortest_path_set(graph, s, t, weights=None):
    """(distance, set of minimum-weight simple paths); (None, empty) if unreachable."""
    paths = all_simple_paths(graph, s, t)
    if not paths:
        return None, set()
    weighted = [(path_weight(graph, p, weights), p) for p in paths]
    best = min(w for w, _ in weighted)
    return best, {p for w, p in weighted if w == best}


def all_walks_within(graph, s, t, bound, weights=None):
    """Every s-t walk with weight <= bound, by naive weight-capped DFS."""
    adj = adjacency(graph, weights)
    found = []

    def walk(u, acc, path):
        if acc > bound:
            return
        if u == t:
            found.append((tuple(path), acc))
        for v, w in adj[u]:
            if acc + w <= bound:
                path.append(v)
                walk(v, acc + w, path)
                path.pop()

    if bound >= 0:
        walk(s, Fraction(0), [s])
    return sorted(found)


def brute_check_exact(graph: WeightedGraph, wmap: WeightMap, model: str = "one") -> bool:
    for s in range(graph.n):
        for t in range(graph.n):
            if s == t:
                continue
            d_g, best_g = shortest_path_set(graph, s, t)
            d_h, best_h = shortest_path_set(graph, s, t, wmap)
            if d_g is None:
                continue
            if model in ("one", "both") and not best_h <= best_g:
                return False
            if model in ("all", "both") and not best_g <= best_h:
                return False
    return True


def brute_check_alpha(graph: WeightedGraph, wmap: WeightMap, alpha: Fraction) -> bool:
    for s in range(graph.n):
        for t in range(graph.n):
            if s == t:
                continue
            d_g, _ = shortest_path_set(graph, s, t)
            if d_g is None:
                continue
            _, best_h = shortest_path_set(graph, s, t, wmap)
            for path in best_h:
                if path_weight(graph, path) > alpha * d_g:
                    return False
    return True


# ---------------------------------------------------------------------------
# Reference engine for check_exact / check_alpha: one Dijkstra pair and one
# tight-DAG dynamic program per (s, t) pair, all in Fraction arithmetic.  It
# uses the package's shortest_paths, but its own per-pair DP, so the
# per-source integer sweep of the checkers is compared against it.


def reference_dag_extreme_path(table, costs, s, t, mode):
    """Extreme-cost s-to-t path of the tight DAG, lexicographically smallest
    among equal costs, by a full DP for this one target."""
    succ = table.tight_successors()
    order = sorted(
        (v for v in range(len(table.dist)) if table.dist[v] is not None),
        key=lambda v: (table.dist[v], v),
    )
    best = {s: (Fraction(0), (s,))}
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
    return best[t]


def _reference_direction(graph, wmap, alpha, flipped):
    check_weights = wmap if not flipped else None
    cost_weights = graph.weights if not flipped else wmap.weights
    witnesses = []
    pairs = 0
    for s in range(graph.n):
        table = shortest_paths(graph, s, check_weights)
        ref = shortest_paths(graph, s, wmap if flipped else None)
        for t in range(graph.n):
            if t == s or table.dist[t] is None:
                continue
            pairs += 1
            worst, path = reference_dag_extreme_path(table, cost_weights, s, t, "max")
            if worst > alpha * ref.dist[t]:
                d_g = ref.dist[t] if not flipped else table.dist[t]
                d_h = table.dist[t] if not flipped else ref.dist[t]
                w_g = worst if not flipped else d_g
                w_h = table.dist[t] if not flipped else worst
                kind = "old-shortest-not-shortest" if flipped else "new-shortest-not-shortest"
                witnesses.append((s, t, path, w_g, w_h, d_g, d_h, kind))
    return witnesses, pairs


def reference_check(graph: WeightedGraph, wmap: WeightMap, alpha: Fraction, flips):
    """(witness tuples in report order, pairs_checked) of check_exact
    (alpha = 1, flips from the model) or check_alpha (flips = (False,))."""
    witnesses = []
    pairs = 0
    for flipped in flips:
        got, pairs = _reference_direction(graph, wmap, alpha, flipped)
        witnesses.extend(got)
    witnesses.sort(key=lambda w: (w[0], w[1], w[7]))
    return witnesses, pairs
