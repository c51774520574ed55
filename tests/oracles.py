"""Brute-force oracles, independent of the package's search machinery.

Everything here works by plain DFS over the raw edge list: no Dijkstra, no
tight-subgraph DP, no pruning beyond the weight bound itself.  Slow on
purpose; only run on small graphs.  The exceptions are the two reference
engines at the end: a per-pair DP kept to test the checkers against, and the
``Fraction`` tableau simplex kept to test the integer-row simplex against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from sppreserve import WeightMap, WeightedGraph, shortest_paths
from sppreserve.simplex import _MAX_PIVOTS, _STALL_LIMIT


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


# ---------------------------------------------------------------------------
# Reference simplex: the dense two-phase tableau over ``Fraction`` that the
# package's integer-row kernel replaced, kept verbatim (renamed) so that the
# kernel can be compared against it.  Same pivot rule, same constants.


def reference_solve_min_standard_ex(
    c_vec: list[Fraction], rows: Sequence[tuple[list[Fraction], str, Fraction]]
) -> tuple[str, Fraction, list[Fraction], list[Fraction] | None]:
    """Two-phase tableau simplex for min{cx : rows, x >= 0}.

    Returns (status, objective value, assignment, per-row slack reduced
    costs).  The slack reduced costs are meaningful only when every input row
    was a <= row with nonnegative right-hand side (the dual route guarantees
    this); otherwise that entry is None.
    """
    n = len(c_vec)
    work = []
    flipped_any = False
    for vec, rel, rhs in rows:
        vec = list(vec)
        if rhs < 0:
            vec = [-a for a in vec]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
            flipped_any = True
        work.append((vec, rel, rhs))

    zero = Fraction(0)
    one = Fraction(1)
    n_slack = sum(1 for _, rel, _ in work if rel in ("<=", ">="))
    needs_artificial = [i for i, (_, rel, _) in enumerate(work) if rel != "<="]
    total = n + n_slack + len(needs_artificial)

    slack_col_of_row: dict[int, int] = {}
    art_cols: list[int] = []
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_seen = 0
    art_seen = 0
    for i, (vec, rel, rhs) in enumerate(work):
        row = list(vec) + [zero] * (total - n) + [rhs]
        if rel in ("<=", ">="):
            col = n + slack_seen
            row[col] = one if rel == "<=" else -one
            slack_col_of_row[i] = col
            slack_seen += 1
        if rel == "<=":
            basis.append(col)
        else:
            col = n + n_slack + art_seen
            row[col] = one
            art_cols.append(col)
            basis.append(col)
            art_seen += 1
        tableau.append(row)

    allowed = [True] * total
    cost = [c for c in c_vec] + [zero] * (total - n) + [zero]

    if art_cols:
        phase1 = [zero] * total + [zero]
        for col in art_cols:
            phase1[col] = one
        for i, b in enumerate(basis):
            if b in art_cols:
                row = tableau[i]
                phase1 = [p - r for p, r in zip(phase1, row)]
        status = _reference_run_simplex(tableau, basis, phase1, allowed, aux=cost)
        if status == "unbounded":
            raise RuntimeError("phase 1 cannot be unbounded")
        if -phase1[-1] > 0:
            return ("infeasible", zero, [], None)
        for i, b in enumerate(list(basis)):
            if b in art_cols:
                row = tableau[i]
                pivot_col = next(
                    (j for j in range(total) if j not in art_cols and row[j] != 0), None
                )
                if pivot_col is None:
                    continue  # redundant row, keep inert (all structural zeros)
                _reference_pivot(tableau, basis, [cost], i, pivot_col)
        for col in art_cols:
            allowed[col] = False

    status = _reference_run_simplex(tableau, basis, cost, allowed)
    if status == "unbounded":
        return ("unbounded", zero, [], None)
    xs = [zero] * total
    for i, b in enumerate(basis):
        if b >= 0 and b not in art_cols:
            xs[b] = tableau[i][-1]
    value = -cost[-1]
    slack_reduced: list[Fraction] | None = None
    if not flipped_any and not art_cols and n_slack == len(work):
        slack_reduced = [cost[slack_col_of_row[i]] for i in range(len(work))]
    return ("optimal", value, xs[:n], slack_reduced)


def _reference_run_simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    allowed: list[bool],
    aux: list[Fraction] | None = None,
) -> str:
    """Pivot until optimal or unbounded; mutates tableau, basis, cost, aux."""
    stall = 0
    bland = False
    last_value = cost[-1]
    for _ in range(_MAX_PIVOTS):
        total = len(allowed)
        enter = -1
        if bland:
            for j in range(total):
                if allowed[j] and cost[j] < 0:
                    enter = j
                    break
        else:
            best = Fraction(0)
            for j in range(total):
                if allowed[j] and cost[j] < best:
                    best = cost[j]
                    enter = j
        if enter < 0:
            return "optimal"
        leave = -1
        best_ratio: Fraction | None = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        extra = [aux] if aux is not None else []
        _reference_pivot(tableau, basis, [cost] + extra, leave, enter)
        if cost[-1] != last_value:
            last_value = cost[-1]
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    raise RuntimeError("simplex did not terminate within the pivot cap")


def _reference_pivot(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost_rows: list[list[Fraction]],
    r: int,
    c: int,
) -> None:
    row = tableau[r]
    inv = 1 / row[c]
    if inv != 1:
        tableau[r] = row = [a * inv for a in row]
    for i, other in enumerate(tableau):
        if i != r and other[c] != 0:
            f = other[c]
            tableau[i] = [a - f * b for a, b in zip(other, row)]
    for cost in cost_rows:
        if cost[c] != 0:
            f = cost[c]
            cost[:] = [a - f * b for a, b in zip(cost, row)]
    basis[r] = c
