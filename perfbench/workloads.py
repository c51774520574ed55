"""The benchmark's four workloads: seeded inputs, call lists and correctness gates.

Each workload is a fixed list of library calls issued one after another
(a closed loop with a single caller).  ``build`` turns a workload name and a
seed into that list; the library only ever sees the generated inputs.  The
seed draws the random graphs and weight maps and shuffles the call order, so
on workloads whose instances are fixed constructions it changes the order
only.

Every call carries a gate: a function of the call's result that returns a
list of problems (empty when the result is correct).  Gates run outside the
timed region and hold for any seed.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("check-random", "audit-chains", "min-aspect", "grid-bound")
EPS = Fraction(1, 10**9)
CALL_CAP_S = 60.0
# (alpha, flipped) directions swept by check_exact in models "one" and "both".
ONE = ((Fraction(1), False),)
BOTH = ONE + ((Fraction(1), True),)

# Instance sizes per scale.  "full" is what the benchmark measures; "tiny"
# runs the same code paths in well under a second, for the self-test.
SIZES = {
    "full": {
        "digraph": (60, 240),
        "dag": (80, 320),
        "undirected": (40, 120),
        "undir_chain_k": 5,
        "undir_approx_k": 4,
        "dir_chain_ks": range(2, 7),
        "grid_audit_sides": range(2, 6),
        "two_sided_grid": 4,
        "two_sided_chain": 4,
        "aspect_dir_ks": range(2, 7),
        "aspect_undir_ks": (2, 3),
        "aspect_random": 8,
        "aspect_digraph": (8, 18),
        "aspect_undirected": (7, 11),
        "grid_bound_sides": (3, 4, 5),
        "grid_bound_big": 6,
    },
    "tiny": {
        "digraph": (8, 20),
        "dag": (10, 20),
        "undirected": (6, 9),
        "undir_chain_k": 2,
        "undir_approx_k": 2,
        "dir_chain_ks": range(2, 4),
        "grid_audit_sides": range(2, 4),
        "two_sided_grid": 2,
        "two_sided_chain": 2,
        "aspect_dir_ks": (2,),
        "aspect_undir_ks": (2,),
        "aspect_random": 1,
        "aspect_digraph": (5, 8),
        "aspect_undirected": (4, 5),
        "grid_bound_sides": (2,),
        "grid_bound_big": 3,
    },
}


@dataclass(frozen=True)
class Call:
    """One top-level library call.

    ``func`` is a public name of the package; it is looked up when the call
    runs, so a traced pass reaches the wrapped function.  ``label`` names the
    call and its input and is unique within a workload; pinned output digests
    are keyed by it.
    """

    label: str
    func: str
    args: tuple
    gate: Callable[[Any], list[str]]
    kwargs: dict = field(default_factory=dict)
    cap_s: float = CALL_CAP_S


def build(name: str, sp, seed: int, scale: str = "full") -> list[Call]:
    """The call list of workload ``name``, with inputs drawn from ``seed``.

    ``sp`` is the imported package.  Every generated graph has its edge
    validation done and its adjacency and edge-index caches filled here, so
    that work counts as set-up and not as part of the first pass.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    sizes = SIZES[scale]
    calls = _BUILDERS[name](sp, rng, seed, sizes)
    rng.shuffle(calls)
    if len({c.label for c in calls}) != len(calls):
        raise RuntimeError(f"duplicate call labels in workload {name}")
    return calls


# ---------------------------------------------------------------- inputs


def _weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 30), rng.randint(1, 4))


def _warm(graph):
    graph.adjacency
    graph.has_edge(0, 0)  # fills the edge-index cache
    return graph


def _random_graph(sp, rng: random.Random, n: int, m: int, kind: str):
    """A random graph of ``kind`` "digraph", "dag" or "undirected".

    A random Hamiltonian cycle (digraph) or path (DAG, undirected graph) is
    laid down first, so every ordered pair is connected (for the DAG: every
    pair in topological order).  The number of checked pairs, and with it
    most of the checkers' work, is then the same for every seed.
    """
    order = rng.sample(range(n), n)
    pairs: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        # Positions a, b of the random order; a DAG's edges follow the order.
        u, v = order[a], order[b]
        if kind == "undirected":
            u, v = min(u, v), max(u, v)
        pairs.add((u, v))

    for i in range(n if kind == "digraph" else n - 1):
        add(i, (i + 1) % n)
    while len(pairs) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        if kind == "dag":
            a, b = min(a, b), max(a, b)
        add(a, b)
    edges = tuple((u, v, _weight(rng)) for u, v in sorted(pairs))
    return _warm(sp.WeightedGraph(kind != "undirected", n, edges))


def _random_map(sp, rng: random.Random, graph):
    return sp.WeightMap(tuple(_weight(rng) for _ in range(graph.m)))


# ----------------------------------------------------------------- gates


def _edge_weights(graph, weights) -> dict[tuple[int, int], Fraction]:
    table = {}
    for (u, v, _), w in zip(graph.edges, weights):
        table[(u, v)] = w
        if not graph.directed:
            table[(v, u)] = w
    return table


def _walk_weight(table, path) -> Fraction | None:
    total = Fraction(0)
    for step in zip(path, path[1:]):
        if step not in table:
            return None
        total += table[step]
    return total


def _scaled(weights) -> tuple[list[int], int]:
    """Integer weights proportional to ``weights``, and the common factor."""
    scale = math.lcm(*(w.denominator for w in weights))
    return [int(w * scale) for w in weights], scale


def _dijkstra(arcs, s: int, key: int) -> list[int | None]:
    """Distances from ``s`` under the weights at index ``key`` of each arc."""
    dist: list[int | None] = [None] * len(arcs)
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for arc in arcs[u]:
            v, nd = arc[0], d + arc[key]
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _extreme(arcs, dist, key: int, cost: int) -> list[int | None]:
    """Per target, the largest ``cost`` weight of a shortest path under
    ``key`` weights (``dist`` holds the ``key`` distances).  Weights are
    positive, so a tight arc always leads to a farther vertex."""
    best: list[int | None] = [None] * len(arcs)
    reached = sorted((v for v, d in enumerate(dist) if d is not None), key=dist.__getitem__)
    best[reached[0]] = 0
    for u in reached:
        for arc in arcs[u]:
            v = arc[0]
            if dist[u] + arc[key] == dist[v]:
                c = best[u] + arc[cost]
                if best[v] is None or c > best[v]:
                    best[v] = c
    return best


class _Reference:
    """The harness's own exact answer for a graph G and a new map H.

    Distances under G and H from every source, the heaviest G-weight of an
    H-shortest path and the heaviest H-weight of a G-shortest path, all in
    integers (G and H each scaled by their own common denominator).
    """

    def __init__(self, graph, wmap):
        g, self.g_scale = _scaled(graph.weights)
        h, self.h_scale = _scaled(wmap.weights)
        arcs: list[list[tuple[int, int, int]]] = [[] for _ in range(graph.n)]
        for (u, v, _), wg, wh in zip(graph.edges, g, h):
            arcs[u].append((v, wg, wh))
            if not graph.directed:
                arcs[v].append((u, wg, wh))
        self.d_g = [_dijkstra(arcs, s, 1) for s in range(graph.n)]
        self.d_h = [_dijkstra(arcs, s, 2) for s in range(graph.n)]
        self.g_over_h = [_extreme(arcs, d, 2, 1) for d in self.d_h]
        self.h_over_g = [_extreme(arcs, d, 1, 2) for d in self.d_g]
        self.pairs = [
            (s, t) for s, row in enumerate(self.d_g) for t, d in enumerate(row) if t != s and d is not None
        ]

    def failing(self, alpha: Fraction, flipped: bool) -> set[tuple[int, int, str]]:
        """The (s, t, kind) of every pair a tight-subgraph check must report."""
        if flipped:
            return {
                (s, t, "old-shortest-not-shortest")
                for s, t in self.pairs
                if self.h_over_g[s][t] > self.d_h[s][t]
            }
        return {
            (s, t, "new-shortest-not-shortest")
            for s, t in self.pairs
            if self.g_over_h[s][t] > alpha * self.d_g[s][t]
        }

    def witness_problems(self, w, params) -> list[str]:
        """Problems with one witness's distances and with its violation."""
        if w.d_g * self.g_scale != self.d_g[w.s][w.t] or w.d_h * self.h_scale != self.d_h[w.s][w.t]:
            return ["reported d_g or d_h is not the distance"]
        if w.kind == "new-shortest-not-shortest":
            if w.w_h != w.d_h or w.w_g * self.g_scale != self.g_over_h[w.s][w.t]:
                return ["not the heaviest (under G) new-shortest path"]
        elif w.kind == "old-shortest-not-shortest":
            if w.w_g != w.d_g or w.w_h * self.h_scale != self.h_over_g[w.s][w.t]:
                return ["not the heaviest (under H) old-shortest path"]
        elif w.kind == "approx-shortest-overstretched":
            if not (w.w_h <= params.alpha_h * w.d_h and w.w_g > params.alpha_g * w.d_g):
                return ["walk is not an overstretched approximate shortest walk"]
        else:
            return [f"unexpected kind {w.kind}"]
        return []


def _check_gate(graph, wmap, sweeps=(), params=None, must_pass: bool = False):
    """Gate of a checker's report, against the harness's own distances.

    Every witness must be an s-to-t walk of the graph whose weights under G
    and H equal its reported w_g and w_h, carry the true distances and be a
    real violation.  ``sweeps`` lists the (alpha, flipped) directions of a
    tight-subgraph check; for those the reported pairs must be exactly the
    failing ones.  A two-sided check (``params``) has its witnesses verified
    but not counted: its inputs are fixed constructions, pinned at every seed.
    """
    reference = []  # built on first use, so it never counts as set-up

    def gate(report) -> list[str]:
        if not reference:
            reference.append(_Reference(graph, wmap))
        ref = reference[0]
        g_table = _edge_weights(graph, graph.weights)
        h_table = _edge_weights(graph, wmap.weights)
        problems = []
        for w in report.witnesses:
            where = f"witness ({w.s},{w.t}) {list(w.path)}"
            if w.path[0] != w.s or w.path[-1] != w.t:
                problems.append(f"{where}: wrong endpoints")
            elif _walk_weight(g_table, w.path) != w.w_g:
                problems.append(f"{where}: original weight is not the reported w_g")
            elif _walk_weight(h_table, w.path) != w.w_h:
                problems.append(f"{where}: new weight is not the reported w_h")
            else:
                problems += [f"{where}: {p}" for p in ref.witness_problems(w, params)]
        if report.passed != (not report.witnesses):
            problems.append(f"verdict {report.verdict} with {len(report.witnesses)} witnesses")
        if report.pairs_checked != len(ref.pairs):
            problems.append(f"{report.pairs_checked} pairs checked, {len(ref.pairs)} connected")
        if len({(w.s, w.t, w.kind, tuple(w.path)) for w in report.witnesses}) != len(report.witnesses):
            problems.append("a witness is reported twice")
        if sweeps:
            expected = set().union(*(ref.failing(alpha, flipped) for alpha, flipped in sweeps))
            found = [(w.s, w.t, w.kind) for w in report.witnesses]
            if len(found) != len(set(found)) or set(found) != expected:
                missing, extra = len(expected - set(found)), len(set(found) - expected)
                problems.append(
                    f"{len(found)} witnesses for {len(expected)} failing pairs "
                    f"({missing} missing, {extra} not failing)"
                )
        if must_pass and not report.passed:
            problems.append(f"{report.check} failed on a map that preserves shortest paths")
        return problems

    return gate


def _audit_gate(report) -> list[str]:
    problems = [] if report.passed else [f"audit {report.construction} failed"]
    for lemma in report.checks:
        if lemma.worst_margin is not None and lemma.worst_margin <= 1:
            problems.append(f"lemma {lemma.tag}: worst margin {lemma.worst_margin} <= 1")
    return problems


def _aspect_gate(sp, graph, floor: Fraction):
    def gate(result) -> list[str]:
        optimum, wmap, _ = result
        problems = []
        if optimum < floor:
            problems.append(f"optimum {optimum} < {floor}")
        if sp.aspect_ratio(graph, wmap) > optimum:
            problems.append("returned map's aspect ratio exceeds the optimum")
        if not sp.check_exact(graph, wmap).passed:
            problems.append("returned map does not preserve shortest paths")
        return problems

    return gate


def _floor_gate(floor: Fraction):
    def gate(optimum) -> list[str]:
        return [] if optimum >= floor else [f"optimum {optimum} < {floor}"]

    return gate


# ------------------------------------------------------------- workloads


def _check_random(sp, rng, seed, sizes) -> list[Call]:
    # Fail-heavy: a random map on a random digraph breaks most pairs.
    # Pass-heavy: the reweight_dag map of a random DAG breaks none.
    n, m = sizes["digraph"]
    digraph = _random_graph(sp, rng, n, m, "digraph")
    digraph_map = _random_map(sp, rng, digraph)
    n, m = sizes["dag"]
    dag = _random_graph(sp, rng, n, m, "dag")
    dag_map = sp.reweight_dag(dag)
    n, m = sizes["undirected"]
    undirected = _random_graph(sp, rng, n, m, "undirected")
    undirected_map = _random_map(sp, rng, undirected)
    tag = f"seed={seed}"
    return [
        Call(
            f"check_exact[both] digraph {tag}",
            "check_exact",
            (digraph, digraph_map, "both"),
            _check_gate(digraph, digraph_map, BOTH),
        ),
        Call(
            f"check_alpha[3/2] digraph {tag}",
            "check_alpha",
            (digraph, digraph_map, Fraction(3, 2)),
            _check_gate(digraph, digraph_map, ((Fraction(3, 2), False),)),
        ),
        Call(
            f"check_exact[both] dag reweight_dag {tag}",
            "check_exact",
            (dag, dag_map, "both"),
            _check_gate(dag, dag_map, BOTH, must_pass=True),
        ),
        Call(
            f"check_exact[one] undirected {tag}",
            "check_exact",
            (undirected, undirected_map, "one"),
            _check_gate(undirected, undirected_map, ONE),
        ),
    ]


def _audit_chains(sp, rng, seed, sizes) -> list[Call]:
    k = sizes["undir_chain_k"]
    calls = [
        Call(f"audit_undirected_chain(k={k})", "audit_undirected_chain", (k,), _audit_gate),
    ]
    k = sizes["undir_approx_k"]
    calls.append(
        Call(
            f"audit_undirected_chain(k={k},approx)",
            "audit_undirected_chain",
            (k,),
            _audit_gate,
            kwargs={"mode": "approx"},
        )
    )
    for k in sizes["dir_chain_ks"]:
        calls.append(Call(f"audit_directed_chain(k={k})", "audit_directed_chain", (k,), _audit_gate))
        for alpha in (2, 10):
            calls.append(
                Call(
                    f"audit_directed_chain(k={k},approx,alpha={alpha})",
                    "audit_directed_chain",
                    (k,),
                    _audit_gate,
                    kwargs={"mode": "approx", "alpha": alpha},
                )
            )
    for side in sizes["grid_audit_sides"]:
        calls.append(Call(f"audit_grid(L={side},alpha_g=2)", "audit_grid", (side, 2), _audit_gate))
    side = sizes["two_sided_grid"]
    grid, _ = sp.gen_grid(side, 2)
    unit = sp.WeightMap((Fraction(1),) * _warm(grid).m)
    params = sp.StretchParams(2, 2)
    calls.append(
        Call(
            f"check_two_sided[2->2] grid(L={side}) unit map",
            "check_two_sided",
            (grid, unit, params),
            _check_gate(grid, unit, params=params),
        )
    )
    k = sizes["two_sided_chain"]
    chain, _ = sp.gen_directed_chain(k)
    own = sp.WeightMap(_warm(chain).weights)
    calls.append(
        Call(
            f"check_two_sided[2->2] directed_chain(k={k}) own weights",
            "check_two_sided",
            (chain, own, params),
            _check_gate(chain, own, params=params),
        )
    )
    return calls


def _min_aspect(sp, rng, seed, sizes) -> list[Call]:
    calls = []
    for directed, ks in ((True, sizes["aspect_dir_ks"]), (False, sizes["aspect_undir_ks"])):
        gen = sp.gen_directed_chain if directed else sp.gen_undirected_chain
        for k in ks:
            graph, system = gen(k)
            _warm(graph)
            calls.append(
                Call(
                    f"min_aspect_ratio {gen.__name__}(k={k})",
                    "min_aspect_ratio",
                    (graph, system, EPS),
                    _aspect_gate(sp, graph, Fraction(2) ** (k - 1)),
                )
            )
    graph, _ = sp.fig1_fixture()
    calls.append(
        Call(
            "min_aspect_ratio fig1_fixture paths=None",
            "min_aspect_ratio",
            (_warm(graph), None, EPS),
            _aspect_gate(sp, graph, Fraction(1)),
        )
    )
    for kind, key in (("digraph", "aspect_digraph"), ("undirected", "aspect_undirected")):
        n, m = sizes[key]
        for i in range(sizes["aspect_random"]):
            graph = _random_graph(sp, rng, n, m, kind)
            calls.append(
                Call(
                    f"min_aspect_ratio {kind}#{i} paths=None seed={seed}",
                    "min_aspect_ratio",
                    (graph, None, EPS),
                    _aspect_gate(sp, graph, Fraction(1)),
                )
            )
    return calls


def _grid_bound(sp, rng, seed, sizes) -> list[Call]:
    cases = [(side, 2, 2) for side in sizes["grid_bound_sides"]]
    big = sizes["grid_bound_big"]
    cases += [(big, 2, 2), (big, 2, Fraction(3, 2)), (big, 3, 2)]
    return [
        Call(
            f"grid_lower_bound(L={side},alpha_g={alpha_g},alpha_h={alpha_h})",
            "grid_lower_bound",
            (side, alpha_g, alpha_h, EPS),
            _floor_gate(Fraction(alpha_h) ** (side - 1)),
        )
        for side, alpha_g, alpha_h in cases
    ]


_BUILDERS = {
    "check-random": _check_random,
    "audit-chains": _audit_chains,
    "min-aspect": _min_aspect,
    "grid-bound": _grid_bound,
}
