"""Hypothesis strategies for random graphs, DAGs, and weight maps."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from sppreserve import WeightMap, WeightedGraph

positive_fractions = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=6),
)


@st.composite
def weighted_graphs(
    draw, directed=None, max_n=8, min_n=1, connected_hint=True, weights=positive_fractions
):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if directed is None:
        directed = draw(st.booleans())
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and (directed or u < v)
    ]
    picked = draw(
        st.lists(st.sampled_from(candidates), unique=True, max_size=min(len(candidates), 3 * n))
        if candidates
        else st.just([])
    )
    if connected_hint and n > 1 and candidates:
        # A cheap spine so most samples are not edgeless dust.
        spine = [(i, i + 1) for i in range(n - 1)]
        picked = list(dict.fromkeys(spine + picked))
    edges = tuple(
        (u, v, draw(weights)) for u, v in picked
    )
    return WeightedGraph(directed=directed, n=n, edges=edges)


@st.composite
def weighted_dags(draw, max_n=8, max_extra=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    spine = [(i, i + 1) for i in range(n - 1)]
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in set(spine)]
    extra = draw(
        st.lists(st.sampled_from(candidates), unique=True, max_size=min(len(candidates), max_extra))
        if candidates
        else st.just([])
    )
    edges = tuple((u, v, draw(positive_fractions)) for u, v in spine + extra)
    return WeightedGraph(directed=True, n=n, edges=edges)


@st.composite
def graph_with_map(draw, weights=positive_fractions, **kwargs):
    graph = draw(weighted_graphs(weights=weights, **kwargs))
    new = tuple(draw(weights) for _ in range(graph.m))
    return graph, (WeightMap(new) if graph.m else WeightMap(()))


#: Weights from {1, 2}: many equal-weight shortest paths, so tie-breaks matter.
tie_heavy_weights = st.sampled_from([Fraction(1), Fraction(2)])
