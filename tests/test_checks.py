from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sppreserve import (
    BudgetExceededError,
    StretchParams,
    WeightMap,
    check_alpha,
    check_exact,
    check_two_sided,
    dag_extreme_path,
    fig1_fixture,
    gen_directed_chain,
    gen_grid,
    gen_undirected_chain,
    shortest_paths,
    unique_alpha_approx,
)

import oracles
from strategies import graph_with_map, tie_heavy_weights


def test_fig1_passes_exact_in_all_models():
    graph, better = fig1_fixture()
    for model in ("one", "all", "both"):
        report = check_exact(graph, better, model=model)
        assert report.passed and not report.witnesses
    assert check_exact(graph, better).pairs_checked == 12


def test_identity_reweighting_passes():
    graph, _ = fig1_fixture()
    same = WeightMap(graph.weights)
    assert check_exact(graph, same, model="both").passed
    assert check_alpha(graph, same, 1).passed


def test_all_ones_candidate_fails_with_direct_edge_witness():
    graph, _ = fig1_fixture()
    ones = WeightMap((F(1),) * 5)
    report = check_exact(graph, ones)
    assert not report.passed
    first = report.witnesses[0]
    assert (first.s, first.t) == (0, 3)
    assert first.path == (0, 3)
    assert first.w_g == 500 and first.d_g == 102
    # witness re-validates: recomputing its weights reproduces the violation
    assert graph.path_weight(first.path) == first.w_g > first.d_g
    assert graph.path_weight(first.path, ones) == first.w_h


def test_misaligned_weight_map_errors():
    graph, _ = fig1_fixture()
    with pytest.raises(ValueError, match="entries"):
        check_exact(graph, WeightMap((F(1),)))


def test_check_alpha_on_fig1_g_weights_vs_h():
    graph, better = fig1_fixture()
    assert check_alpha(graph, better, F(1)).passed
    assert check_alpha(graph, better, F(7, 2)).passed


def test_check_alpha_catches_stretch_violation():
    # chain with a candidate map that makes the two-edge rival the new
    # shortest route; its original weight exceeds alpha * d_G
    graph, system = gen_directed_chain(2, mode="approx", alpha=2)
    weights = list(graph.weights)
    # make cycle-1 edges nearly free and cycle-2 edges heavy under the map
    for idx, (u, v, w) in enumerate(graph.edges):
        if idx < 3:
            weights[idx] = F(1, 1000)
        elif idx < 6:
            weights[idx] = F(1)
    candidate = WeightMap(tuple(weights))
    report = check_alpha(graph, candidate, 2)
    assert not report.passed
    witness = report.witnesses[0]
    assert witness.w_g > 2 * witness.d_g


def test_two_sided_trivial_and_grid():
    graph, _ = gen_grid(3, 2)
    same = WeightMap(graph.weights)
    report = check_two_sided(graph, same, StretchParams(2, 2))
    assert report.passed
    assert report.stats["walks_checked"] >= report.pairs_checked


def test_two_sided_base_case_violation():
    # 2x2 grid with a candidate making the last-row-plus-column route cheap
    graph, _ = gen_grid(2, 2)
    weights = []
    for u, v, w in graph.edges:
        weights.append(F(1))
    candidate = WeightMap(tuple(weights))
    report = check_two_sided(graph, candidate, StretchParams(2, 2))
    assert not report.passed
    assert any(w.path == (2, 3, 1) for w in report.witnesses)


def test_two_sided_labels_non_simple_witnesses():
    # a cheap back-edge under the candidate lets a looping walk stay within
    # alpha_H of the new distance while its true weight explodes; the report
    # must flag that the only witness is a non-simple walk
    from sppreserve import WeightedGraph

    graph = WeightedGraph(
        True, 3, ((0, 1, F(1)), (1, 2, F(1)), (2, 1, F(100)))
    )
    candidate = WeightMap((F(1), F(1), F(1, 100)))
    report = check_two_sided(graph, candidate, StretchParams(2, 2))
    assert not report.passed
    assert all(not w.is_simple for w in report.witnesses)
    assert report.stats["non_simple_witnesses"] == len(report.witnesses) > 0
    # under the simple-paths-only reading there is no violation here
    simple_only = [w for w in report.witnesses if w.is_simple]
    assert simple_only == []


def test_two_sided_budget_is_loud():
    graph, _ = gen_undirected_chain(2)
    same = WeightMap(graph.weights)
    with pytest.raises(BudgetExceededError):
        check_two_sided(graph, same, StretchParams(2, 2), budget=10)


def test_stretch_params_validation():
    with pytest.raises(ValueError):
        StretchParams(F(1, 2), 2)


def test_unique_alpha_approx_on_chain():
    graph, system = gen_directed_chain(2)
    pair = (1, 5)
    res = unique_alpha_approx(graph, 1, 5, system.entries[pair], 1)
    assert res.passed
    # loosening alpha enough lets the two-edge rival inside the bound
    res2 = unique_alpha_approx(graph, 1, 5, system.entries[pair], 100)
    assert not res2.passed and res2.witness is not None


def test_unique_alpha_approx_rejects_invalid_designation():
    graph, _ = gen_directed_chain(2)
    with pytest.raises(ValueError):
        unique_alpha_approx(graph, 0, 5, (0, 5), 1)


@given(graph_with_map(max_n=6))
@settings(max_examples=30)
def test_check_exact_matches_brute_force(pair):
    graph, wmap = pair
    if graph.m == 0:
        return
    for model in ("one", "all"):
        assert check_exact(graph, wmap, model=model).passed == oracles.brute_check_exact(
            graph, wmap, model
        )


@given(graph_with_map(max_n=6))
@settings(max_examples=30)
def test_check_alpha_matches_brute_force(pair):
    graph, wmap = pair
    if graph.m == 0:
        return
    for alpha in (F(1), F(3, 2), F(3)):
        assert check_alpha(graph, wmap, alpha).passed == oracles.brute_check_alpha(
            graph, wmap, alpha
        )


@given(graph_with_map(max_n=5))
@settings(max_examples=20)
def test_exact_implies_alpha_and_two_sided_agrees(pair):
    graph, wmap = pair
    if graph.m == 0:
        return
    exact = check_exact(graph, wmap)
    for alpha in (F(1), F(2), F(5)):
        alpha_report = check_alpha(graph, wmap, alpha)
        if exact.passed:
            assert alpha_report.passed
        two = check_two_sided(graph, wmap, StretchParams(1, alpha), budget=10**6)
        assert two.passed == alpha_report.passed


@given(graph_with_map(max_n=5))
@settings(max_examples=25)
def test_witnesses_revalidate(pair):
    graph, wmap = pair
    if graph.m == 0:
        return
    report = check_exact(graph, wmap, model="both")
    for w in report.witnesses:
        assert graph.path_weight(w.path) == w.w_g
        assert graph.path_weight(w.path, wmap) == w.w_h
        if w.kind == "new-shortest-not-shortest":
            assert w.w_h == w.d_h and w.w_g > w.d_g
        else:
            assert w.w_g == w.d_g and w.w_h > w.d_h


def _witness_tuples(report):
    return [
        (w.s, w.t, w.path, w.w_g, w.w_h, w.d_g, w.d_h, w.kind) for w in report.witnesses
    ], report.pairs_checked


@given(st.one_of(graph_with_map(max_n=7), graph_with_map(max_n=7, weights=tie_heavy_weights)))
@settings(max_examples=100)
def test_checkers_match_per_pair_reference_engine(pair):
    # The per-source integer sweep against the per-pair Fraction DP: same
    # witnesses (lexicographic tie-break included), same order, same pairs.
    graph, wmap = pair
    flips = {"one": (False,), "all": (True,), "both": (False, True)}
    for model, model_flips in flips.items():
        assert _witness_tuples(check_exact(graph, wmap, model=model)) == oracles.reference_check(
            graph, wmap, F(1), model_flips
        )
    for alpha in (F(1), F(3, 2), F(3)):
        assert _witness_tuples(check_alpha(graph, wmap, alpha)) == oracles.reference_check(
            graph, wmap, alpha, (False,)
        )
    for s in range(graph.n):
        table = shortest_paths(graph, s, wmap)
        for t in range(graph.n):
            if table.dist[t] is None:
                continue
            for mode in ("min", "max"):
                assert dag_extreme_path(
                    table, graph.weights, s, t, mode
                ) == oracles.reference_dag_extreme_path(table, graph.weights, s, t, mode)
