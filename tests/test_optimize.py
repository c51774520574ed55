import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given

from sppreserve import (
    WeightedGraph,
    aspect_ratio,
    audit_cycle_doubling,
    build_preservation_lp,
    build_separation_lp,
    canonical_designated_path,
    check_exact,
    gen_directed_chain,
    gen_grid,
    gen_path_shortcut,
    gen_undirected_chain,
    grid_lower_bound,
    min_aspect_ratio,
    simple_paths,
    solve_lp,
)
from sppreserve.constructions import GridLayout
from sppreserve.core import PathSystem
from sppreserve.optimize import edge_var
from sppreserve.simplex import Constraint, LinearProgram

import oracles
from strategies import weighted_graphs

EPS = F(1, 10**9)


@given(weighted_graphs(max_n=7))
@example(gen_undirected_chain(2)[0])
@example(gen_grid(3, 2)[0])
def test_simple_paths_match_oracle(graph):
    # Directed samples have dead ends (vertices that cannot reach t), which
    # the reverse-distance pruning must skip without losing any path.
    for s in range(graph.n):
        for t in range(graph.n):
            assert simple_paths(graph, s, t) == oracles.all_simple_paths(graph, s, t)


def test_canonical_designated_path_is_lexmin_shortest():
    g = WeightedGraph(True, 4, ((0, 1, F(1)), (0, 2, F(1)), (1, 3, F(1)), (2, 3, F(1))))
    assert canonical_designated_path(g, 0, 3) == (0, 1, 3)


@given(weighted_graphs(max_n=7))
def test_canonical_designated_path_matches_oracle(graph):
    for s in range(graph.n):
        for t in range(graph.n):
            dist, best = oracles.shortest_path_set(graph, s, t)
            if dist is None:
                with pytest.raises(ValueError, match="unreachable"):
                    canonical_designated_path(graph, s, t)
            else:
                assert canonical_designated_path(graph, s, t) == min(best)


def test_shortcut_preservation_lp_has_one_strict_row():
    graph, system = gen_path_shortcut(5)
    program = build_preservation_lp(graph, system, EPS)
    path_rows = [c for c in program.constraints if not c.note.startswith("normalization:")]
    assert len(path_rows) == 1
    row = path_rows[0]
    assert row.rel == ">=" and row.rhs == EPS
    # shortcut edge on the left, the four unit edges subtracted
    assert row.coeffs[edge_var(graph, 4)] == 1
    assert sum(1 for c in row.coeffs.values() if c == -1) == 4


def test_chain_preservation_rows_include_the_red_path():
    graph, system = gen_directed_chain(2)
    program = build_preservation_lp(graph, system, EPS)
    notes = [c.note for c in program.constraints]
    # each designated pair's two-edge rival (one cycle edge on the source
    # cycle, then one cross edge) must be among the enumerated alternatives
    for pair, red in (((0, 4), "0-1-4"), ((1, 5), "1-2-5"), ((2, 3), "2-0-3")):
        assert any(f"({pair[0]},{pair[1]})" in n and f"alt {red}" in n for n in notes)


def test_preservation_lp_rejects_non_shortest_designation():
    graph, _ = gen_path_shortcut(5)
    bad = PathSystem(entries={(0, 4): (0, 4)})  # the shortcut is not shortest
    with pytest.raises(ValueError, match="not a shortest path"):
        build_preservation_lp(graph, bad, EPS)


def test_tie_models():
    # diamond with two tied shortest routes
    g = WeightedGraph(True, 4, ((0, 1, F(1)), (0, 2, F(1)), (1, 3, F(1)), (2, 3, F(1))))
    system = PathSystem(entries={(0, 3): (0, 1, 3)})
    with pytest.raises(ValueError, match="tie"):
        build_preservation_lp(g, system, EPS, ties="error")
    one = build_preservation_lp(g, system, EPS, ties="one")
    tied_rows = [c for c in one.constraints if c.rhs == 0 and not c.note.startswith("normalization:")]
    assert tied_rows and all(c.rel == ">=" for c in tied_rows)
    both = build_preservation_lp(g, system, EPS, ties="all")
    assert any(c.rel == "==" for c in both.constraints)


def test_min_aspect_shortcut_window():
    graph, system = gen_path_shortcut(5)
    optimum, wmap, cert = min_aspect_ratio(graph, system, EPS)
    assert F(4) <= optimum <= F(4) + F(1, 10**8)
    assert aspect_ratio(graph, wmap) <= optimum
    assert check_exact(graph, wmap).passed
    assert cert.status == "optimal"
    # the analytic optimum (unit path edges, shortcut at 4+eps) satisfies the
    # built program at exactly the solver's optimum
    from sppreserve import LpCertificate, verify_certificate
    from sppreserve.optimize import ASPECT_VAR

    program = build_preservation_lp(graph, system, EPS)
    analytic = {edge_var(graph, i): F(1) for i in range(4)}
    analytic[edge_var(graph, 4)] = F(4) + EPS
    feasibility = LpCertificate(status="optimal", optimum=F(0), assignment=analytic)
    assert verify_certificate(program, feasibility)
    assert optimum == F(4) + EPS


def test_min_aspect_single_edge():
    g = WeightedGraph(True, 2, ((0, 1, F(7)),))
    optimum, wmap, _ = min_aspect_ratio(g, None, EPS)
    assert optimum == 1
    assert aspect_ratio(g, wmap) == 1


def test_min_aspect_chain_lower_bounds_and_doubling():
    prev = None
    for k in (2, 3, 4):
        graph, system = gen_directed_chain(k)
        optimum, wmap, _ = min_aspect_ratio(graph, system, EPS)
        assert optimum >= 2 ** (k - 1)
        assert check_exact(graph, wmap).passed
        assert audit_cycle_doubling(graph, wmap).passed
        if prev is not None:
            assert optimum / prev >= 2
        prev = optimum


def test_min_aspect_monotone_in_eps():
    graph, system = gen_directed_chain(3)
    optima = []
    for exponent in (3, 6, 9):
        optimum, _, _ = min_aspect_ratio(graph, system, F(1, 10**exponent))
        optima.append(optimum)
    assert optima[0] >= optima[1] >= optima[2]
    assert all(o > 4 for o in optima)  # converging toward 2^(k-1) from above


def test_min_aspect_none_paths_uses_gate_alone():
    graph, _ = gen_path_shortcut(4)
    optimum, wmap, _ = min_aspect_ratio(graph, None, EPS)
    assert check_exact(graph, wmap).passed
    assert optimum >= 3  # shortcut must stay above the 3-edge unit path


def test_min_aspect_ties_all_model():
    g = WeightedGraph(True, 4, ((0, 1, F(1)), (0, 2, F(1)), (1, 3, F(1)), (2, 3, F(1))))
    optimum, wmap, _ = min_aspect_ratio(g, None, EPS, ties="all")
    assert check_exact(g, wmap, model="both").passed
    assert optimum == 1  # all-equal weights keep both tied routes shortest


def test_random_objective_feasible_maps_always_double():
    # any feasible point of the preservation program doubles cycle weights;
    # that is the mechanical content of the chain lower bound, so it must
    # hold for arbitrary optimization objectives, not just min-aspect
    from sppreserve import WeightMap
    from sppreserve.constructions import ChainLayout

    graph, system = gen_directed_chain(3)
    program = build_preservation_lp(graph, system, EPS)
    layout = ChainLayout(cycle_count=3, cycle_size=3)
    rng = random.Random(5)
    for _ in range(4):
        objective = {v: F(rng.randint(1, 9)) for v in program.variables}
        lp = LinearProgram(program.variables, program.constraints, objective, "min")
        cert = solve_lp(lp)
        assert cert.status == "optimal"
        wmap = WeightMap(
            tuple(cert.assignment[edge_var(graph, i)] for i in range(graph.m))
        )
        totals = {i: F(0) for i in range(1, 4)}
        for idx, (u, v, _) in enumerate(graph.edges):
            kind, i = layout.edge_tag(u, v)
            if kind == "cycle":
                totals[i] += wmap[idx]
        assert totals[1] > 2 * totals[2] > 4 * totals[3]
        # and when such a map also passes the full check, the audit agrees
        if check_exact(graph, wmap).passed:
            assert audit_cycle_doubling(graph, wmap).passed


def test_separation_lp_alpha_one_matches_preservation_strict_rows():
    graph, system = gen_path_shortcut(5)
    pres = build_preservation_lp(graph, system, EPS)
    sep = build_separation_lp(graph, system, 1, EPS, {})
    strict = lambda lp: sorted(
        (c.rel, c.rhs, tuple(sorted(c.coeffs.items())))
        for c in lp.constraints
        if not c.note.startswith("normalization:")
    )
    assert strict(pres) == strict(sep)


def test_grid_separation_alternative_counts():
    graph, system = gen_grid(3, 2)
    layout = GridLayout(side=3)
    # an up-then-right pair (i,j) -> (i-1,k) has exactly k-j+1 monotone routes
    for (i, j, k) in ((1, 0, 2), (2, 0, 1), (2, 1, 2)):
        s, t = layout.vertex(i, j), layout.vertex(i - 1, k)
        assert len(simple_paths(graph, s, t)) == k - j + 1


def test_grid_lower_bounds():
    assert grid_lower_bound(2, 2, 2, EPS) >= 4
    assert grid_lower_bound(3, 2, 2, EPS) >= 4
    assert grid_lower_bound(2, 2, 1, EPS) >= 1


def test_grid_lower_bound_exact_small_values():
    # base case: both last-row-plus-column edges exceed alpha_H * (two
    # minimum-weight edges), so the optimum is 2*alpha_H + eps exactly
    assert grid_lower_bound(2, 2, 2, EPS) == 4 + EPS


def test_min_aspect_large_eps_inflates_optimum():
    # strictness margins are additive under the min-weight-1 normalization,
    # so a unit margin pushes the shortcut's floor from 4+eps to 5
    graph, system = gen_path_shortcut(5)
    optimum, _, _ = min_aspect_ratio(graph, system, F(1))
    assert optimum == 5


def test_eps_validation():
    graph, system = gen_path_shortcut(5)
    with pytest.raises(ValueError, match="positive"):
        min_aspect_ratio(graph, system, F(0))
    with pytest.raises(ValueError, match="positive"):
        build_preservation_lp(graph, system, F(-1))


def test_lazy_activation_matches_full_program():
    # solving with lazily activated rows must reproduce the optimum of the
    # fully materialized program (plus gate augmentation, which can only
    # raise it; equality shows the augmentation never had to)
    from sppreserve import WeightMap
    from sppreserve.optimize import ASPECT_VAR

    cases = [gen_path_shortcut(5), gen_directed_chain(2), gen_directed_chain(3),
             gen_undirected_chain(2)]
    for graph, system in cases:
        seed = build_preservation_lp(graph, system, EPS)
        rows = list(seed.constraints)
        for idx in range(graph.m):
            rows.append(
                Constraint(
                    coeffs={edge_var(graph, idx): F(1), ASPECT_VAR: F(-1)},
                    rel="<=",
                    rhs=F(0),
                    note="aspect cap",
                )
            )
        full = LinearProgram(
            seed.variables + (ASPECT_VAR,), tuple(rows), {ASPECT_VAR: F(1)}, "min"
        )
        full_cert = solve_lp(full)
        lazy_optimum, wmap, _ = min_aspect_ratio(graph, system, EPS)
        assert full_cert.status == "optimal"
        assert lazy_optimum >= full_cert.optimum
        # on these instances the designated rows already force preservation
        assert lazy_optimum == full_cert.optimum
        assert check_exact(graph, wmap).passed


def test_grid_lower_bound_other_alphas():
    for alpha_h in (F(3, 2), F(3)):
        for side in (2, 3):
            assert grid_lower_bound(side, 2, alpha_h, EPS) >= alpha_h ** (side - 1)


def test_min_aspect_budget_boundary_is_loud():
    # the undirected chain at k=5 has ~65k rival paths per designated pair;
    # the default enumeration budget refuses it instead of grinding silently
    from sppreserve import BudgetExceededError, gen_undirected_chain

    graph, system = gen_undirected_chain(5)
    with pytest.raises(BudgetExceededError):
        min_aspect_ratio(graph, system, EPS)


def test_min_aspect_on_random_graphs_gate_and_monotonicity():
    import sys

    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(2, 6)
        directed = rng.random() < 0.5
        candidates = [
            (u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)
        ]
        m = rng.randint(1, min(len(candidates), 2 * n))
        edges = tuple(
            (u, v, F(rng.randint(1, 12), rng.randint(1, 3)))
            for u, v in rng.sample(candidates, m)
        )
        graph = WeightedGraph(directed, n, edges)
        optima = []
        for exponent in (3, 6, 9):
            optimum, wmap, _ = min_aspect_ratio(graph, None, F(1, 10**exponent))
            assert check_exact(graph, wmap).passed
            assert oracles.brute_check_exact(graph, wmap, "one")
            assert aspect_ratio(graph, wmap) <= optimum
            assert optimum >= 1
            optima.append(optimum)
        assert optima[0] >= optima[1] >= optima[2]
