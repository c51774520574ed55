"""Acceptance criteria, one test per criterion.

Every check is exact (rational comparisons, no tolerances except where a
criterion states an interval); each test prints one pass/fail line with its
runtime, and asserts the stated runtime limit.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines.
"""

import random
import time
from fractions import Fraction as F

from sppreserve import (
    StretchParams,
    WeightMap,
    WeightedGraph,
    aspect_ratio,
    audit_directed_chain,
    audit_grid,
    audit_undirected_chain,
    check_alpha,
    check_exact,
    check_two_sided,
    fig1_fixture,
    gen_directed_chain,
    gen_grid,
    gen_path_shortcut,
    gen_undirected_chain,
    grid_lower_bound,
    min_aspect_ratio,
    price_identity,
    recombine,
    reweight_dag,
    shortest_paths,
    undirected_to_directed,
)

import oracles

EPS = F(1, 10**9)


class Criterion:
    def __init__(self, number, title, limit_s):
        self.number = number
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.title}): {verdict} in {elapsed:.2f}s "
              f"(limit {self.limit_s}s)")
        if exc_type is None:
            assert elapsed < self.limit_s, f"criterion {self.number} exceeded its runtime limit"
        return False


def test_criterion_1_fig1_fixture():
    with Criterion(1, "fig1 aspect ratios and exact preservation", 1):
        graph, better = fig1_fixture()
        assert aspect_ratio(graph) == 100
        assert aspect_ratio(graph, better) == 4
        assert check_exact(graph, better).passed


def _random_dag(rng):
    n = rng.randint(4, 12)
    spine = [(i, i + 1) for i in range(n - 1)]
    extras = set()
    for _ in range(rng.randint(0, n // 2 + 3)):
        u = rng.randrange(n - 1)
        v = rng.randrange(u + 1, n)
        if (u, v) not in spine:
            extras.add((u, v))
    edges = []
    for u, v in spine + sorted(extras):
        magnitude = 10 ** rng.uniform(0, 6)  # weights span aspect ratio up to 1e6
        edges.append((u, v, F(int(magnitude) + 1, rng.randint(1, 3))))
    return WeightedGraph(True, n, tuple(edges))


def test_criterion_2_dag_upper_bound():
    with Criterion(2, "DAG reweighting: ratio <= n+1, both models, identity", 60):
        rng = random.Random(42)
        identity_pairs = 0
        spreads = []
        for _ in range(200):
            dag = _random_dag(rng)
            spreads.append(aspect_ratio(dag))
            wmap = reweight_dag(dag)
            assert aspect_ratio(dag, wmap) <= dag.n + 1
            assert check_exact(dag, wmap, model="both").passed
            for s in range(dag.n):
                for t in range(s + 1, dag.n):
                    _, set_g = oracles.shortest_path_set(dag, s, t)
                    _, set_h = oracles.shortest_path_set(dag, s, t, wmap)
                    assert set_g == set_h
            for s in range(dag.n):
                for t in range(s + 1, dag.n):
                    paths = oracles.all_simple_paths(dag, s, t)
                    if len(paths) < 2:
                        continue
                    for _ in range(6):
                        a, b = rng.sample(paths, 2)
                        base, new = price_identity(dag, wmap, a, b)
                        assert base == new
                        identity_pairs += 1
        assert identity_pairs >= 10**4
        assert max(spreads) > 10**5  # the corpus really spans large ratios


def test_criterion_3_directed_chain_exact():
    with Criterion(3, "directed chains: audits and LP optimum >= 2^(k-1)", 120):
        previous = None
        for k in range(2, 7):
            assert audit_directed_chain(k).passed
            graph, system = gen_directed_chain(k)
            optimum, wmap, _ = min_aspect_ratio(graph, system, EPS)
            assert optimum >= 2 ** (k - 1)
            assert check_exact(graph, wmap).passed
            if previous is not None:
                assert optimum / previous >= 2
            previous = optimum


def test_criterion_4_directed_chain_approx():
    with Criterion(4, "directed approx chains: alpha in {2,10}, k=2..5", 120):
        for alpha in (F(2), F(10)):
            for k in range(2, 6):
                assert audit_directed_chain(k, mode="approx", alpha=alpha).passed


def test_criterion_5_undirected_chains():
    with Criterion(5, "undirected chains: audits and LP optimum >= 2^(k-1)", 300):
        for k in range(2, 6):
            assert audit_undirected_chain(k).passed
        for k in range(2, 5):
            assert audit_undirected_chain(k, mode="approx").passed
        for k in range(2, 5):
            graph, system = gen_undirected_chain(k)
            optimum, wmap, _ = min_aspect_ratio(graph, system, EPS, budget=10**7)
            assert optimum >= 2 ** (k - 1)
            assert check_exact(graph, wmap).passed


def test_criterion_6_grid():
    with Criterion(6, "grids: audits and certified lower bounds", 300):
        for side in (2, 3, 4):
            assert audit_grid(side, 2).passed
        lb2 = grid_lower_bound(2, 2, 2, EPS)
        lb3 = grid_lower_bound(3, 2, 2, EPS)
        assert lb2 >= 2 ** (2 - 1) and lb3 >= 2 ** (3 - 1)
        assert lb2 >= 4  # base case forces 2 * alpha_H


def _random_graph(rng):
    n = rng.randint(2, 8)
    directed = rng.random() < 0.5
    candidates = [
        (u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)
    ]
    m = rng.randint(1, min(len(candidates), 2 * n))
    edges = tuple(
        (u, v, F(rng.randint(1, 30), rng.randint(1, 4)))
        for u, v in rng.sample(candidates, m)
    )
    return WeightedGraph(directed, n, edges)


def _corpus():
    fig_g, fig_h = fig1_fixture()
    yield fig_g, fig_h
    yield fig_g, WeightMap((F(1),) * fig_g.m)
    shortcut, _ = gen_path_shortcut(5)
    yield shortcut, reweight_dag(shortcut)
    yield shortcut, WeightMap((F(2),) * shortcut.m)
    chain, _ = gen_directed_chain(2)
    yield chain, WeightMap(chain.weights)
    grid, _ = gen_grid(2, 2)
    yield grid, WeightMap((F(1),) * grid.m)


def test_criterion_7_checker_cross_validation():
    with Criterion(7, "checkers agree with brute force and each other", 120):
        rng = random.Random(9)
        cases = list(_corpus())
        for _ in range(100):
            graph = _random_graph(rng)
            wmap = WeightMap(
                tuple(F(rng.randint(1, 30), rng.randint(1, 4)) for _ in range(graph.m))
            )
            cases.append((graph, wmap))
        for graph, wmap in cases:
            assert graph.n <= 8
            for model in ("one", "all"):
                assert (
                    check_exact(graph, wmap, model=model).passed
                    == oracles.brute_check_exact(graph, wmap, model)
                )
            for alpha in (F(1), F(3, 2), F(2)):
                alpha_report = check_alpha(graph, wmap, alpha)
                assert alpha_report.passed == oracles.brute_check_alpha(graph, wmap, alpha)
                two = check_two_sided(graph, wmap, StretchParams(1, alpha))
                assert two.passed == alpha_report.passed


def test_criterion_8_reduction():
    with Criterion(8, "undirected-to-directed reduction round trip", 30):
        rng = random.Random(31)
        preserving_seen = 0
        for _ in range(100):
            graph = _random_graph(rng)
            if graph.directed or graph.m == 0:
                continue
            doubled = undirected_to_directed(graph)
            # arbitrary positive directed map: ratio never increases
            arbitrary = WeightMap(
                tuple(F(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(doubled.m))
            )
            assert aspect_ratio(graph, recombine(arbitrary)) <= aspect_ratio(doubled, arbitrary)
            if check_exact(doubled, arbitrary).passed:
                preserving_seen += 1
                assert check_exact(graph, recombine(arbitrary)).passed
            # reduced-weight map from a potential: always preserving, and the
            # recombined map must preserve as well
            least = min(doubled.weights)
            phi = [F(rng.randint(-10, 10)) * least / 21 for _ in range(doubled.n)]
            priced = WeightMap(
                tuple(w + phi[u] - phi[v] for u, v, w in doubled.edges)
            )
            assert check_exact(doubled, priced, model="both").passed
            preserving_seen += 1
            assert check_exact(graph, recombine(priced), model="both").passed
            assert aspect_ratio(graph, recombine(priced)) <= aspect_ratio(doubled, priced)
        assert preserving_seen >= 30  # the pass-implies-pass branch was exercised


def test_criterion_9_check_exact_at_scale():
    rng = random.Random(2024)
    n, m = 200, 800
    order = rng.sample(range(n), n)
    pairs = {(order[i], order[(i + 1) % n]) for i in range(n)}  # strongly connected
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((u, v))
    graph = WeightedGraph(
        True, n, tuple((u, v, F(rng.randint(1, 30), rng.randint(1, 4))) for u, v in sorted(pairs))
    )
    wmap = WeightMap(tuple(F(rng.randint(1, 30), rng.randint(1, 4)) for _ in range(m)))
    # A positive multiple of the original weights preserves every pair.
    doubled = WeightMap(tuple(2 * x for x in graph.weights))
    with Criterion(9, "check_exact[both] on a random digraph, n=200, m=800", 20):
        report = check_exact(graph, wmap, model="both")
        assert check_exact(graph, doubled, model="both").passed
    # Every witness re-validates outside the timed block.
    assert report.pairs_checked == n * (n - 1)
    assert report.witnesses
    tables = {}
    for w in report.witnesses:
        if w.s not in tables:
            tables[w.s] = (shortest_paths(graph, w.s).dist, shortest_paths(graph, w.s, wmap).dist)
        d_g, d_h = tables[w.s]
        assert (w.d_g, w.d_h) == (d_g[w.t], d_h[w.t])
        assert graph.path_weight(w.path) == w.w_g
        assert graph.path_weight(w.path, wmap) == w.w_h
        if w.kind == "new-shortest-not-shortest":
            assert w.w_h == w.d_h and w.w_g > w.d_g
        else:
            assert w.w_g == w.d_g and w.w_h > w.d_h
