"""Deterministic generators for the hard reweighting instances, each paired
with its designated path system.

Index layouts are fixed and documented here so that audit and optimization
code can recover structure from vertex indices alone:

* chains: cycle i (1-based) occupies vertices ``(i-1)*cycle_size + j`` for
  0-based position j; directed chains use 3-cycles, undirected use 5-cycles;
* grids: vertex (row, col) has index ``row*L + col`` with row 0 on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Path, PathSystem, RationalLike, WeightMap, WeightedGraph, as_fraction


@dataclass(frozen=True)
class ChainLayout:
    """Vertex/edge bookkeeping for a chain of equal-size cycles."""

    cycle_count: int
    cycle_size: int

    @property
    def n(self) -> int:
        return self.cycle_count * self.cycle_size

    def vertex(self, i: int, j: int) -> int:
        """Index of position j (0-based) on cycle i (1-based)."""
        if not (1 <= i <= self.cycle_count and 0 <= j < self.cycle_size):
            raise ValueError(f"no vertex ({i},{j}) in this chain")
        return (i - 1) * self.cycle_size + j

    def cycle_of(self, v: int) -> int:
        return v // self.cycle_size + 1

    def position_of(self, v: int) -> int:
        return v % self.cycle_size

    def edge_tag(self, u: int, v: int) -> tuple[str, int]:
        """('cycle', i) for an edge inside cycle i, ('cross', i) for an edge
        joining cycles i and i+1."""
        ci, cj = self.cycle_of(u), self.cycle_of(v)
        if ci == cj:
            return ("cycle", ci)
        if abs(ci - cj) == 1:
            return ("cross", min(ci, cj))
        raise ValueError(f"edge ({u},{v}) spans non-adjacent cycles")


@dataclass(frozen=True)
class GridLayout:
    """Vertex/edge bookkeeping for the L-by-L grid, row 0 on top."""

    side: int

    @property
    def n(self) -> int:
        return self.side * self.side

    def vertex(self, row: int, col: int) -> int:
        L = self.side
        if not (0 <= row < L and 0 <= col < L):
            raise ValueError(f"no vertex ({row},{col}) in a {L}x{L} grid")
        return row * L + col

    def coords(self, v: int) -> tuple[int, int]:
        return divmod(v, self.side)

    def edge_tag(self, u: int, v: int) -> tuple[str, int]:
        """('horizontal', row) for (r,c)->(r,c+1), ('vertical', col) for
        (r,c)->(r-1,c)."""
        (ru, cu), (rv, cv) = self.coords(u), self.coords(v)
        if ru == rv and cv == cu + 1:
            return ("horizontal", ru)
        if cu == cv and rv == ru - 1:
            return ("vertical", cu)
        raise ValueError(f"({u},{v}) is not a grid edge")

    def last_row_and_column_edges(self, graph: WeightedGraph) -> list[int]:
        """Edge indices of the bottom row plus the rightmost column."""
        L = self.side
        picked = []
        for idx, (u, v, _) in enumerate(graph.edges):
            kind, where = self.edge_tag(u, v)
            if kind == "horizontal" and where == L - 1:
                picked.append(idx)
            elif kind == "vertical" and where == L - 1:
                picked.append(idx)
        return picked


def gen_path_shortcut(n: int) -> tuple[WeightedGraph, PathSystem]:
    """Directed unit-weight path on n vertices plus a weight-n shortcut edge
    from the first vertex to the last; every subpath is designated."""
    if n < 3:
        raise ValueError("need n >= 3")
    edges = [(i, i + 1, Fraction(1)) for i in range(n - 1)]
    edges.append((0, n - 1, Fraction(n)))
    graph = WeightedGraph(directed=True, n=n, edges=tuple(edges))
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            entries[(i, j)] = tuple(range(i, j + 1))
    system = PathSystem(entries=entries)
    system.validate_in(graph)
    return graph, system


def _cycle_step(forward: bool, size: int, j: int) -> int:
    return (j + 1) % size if forward else (j - 1) % size


def gen_directed_chain(
    k: int,
    mode: str = "exact",
    alpha: RationalLike | None = None,
    delta: RationalLike | None = None,
) -> tuple[WeightedGraph, PathSystem]:
    """Chain of k alternating directed 3-cycles with geometrically shrinking
    cycle weights and tiny cross-cycle weight delta.

    Exact mode gives cycle i edges weight 1/3^i; approx mode 1/(3*alpha)^i,
    claiming the designated paths are the only alpha-approximate shortest
    paths between their endpoints.  Odd cycles run forward, even cycles
    backward.  Cross edges join same-position vertices of adjacent cycles.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if mode not in ("exact", "approx"):
        raise ValueError("mode must be 'exact' or 'approx'")
    if mode == "approx":
        if alpha is None:
            raise ValueError("approx mode needs alpha")
        alpha = as_fraction(alpha)
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        base = 1 / (3 * alpha)
        default_delta = base ** (2 * k)
    else:
        if alpha is not None:
            raise ValueError("alpha only applies to approx mode")
        base = Fraction(1, 3)
        default_delta = Fraction(1, 3 ** (k + 1))
    delta = default_delta if delta is None else as_fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")

    layout = ChainLayout(cycle_count=k, cycle_size=3)
    edges: list[tuple[int, int, Fraction]] = []
    for i in range(1, k + 1):
        forward = i % 2 == 1
        w = base**i
        for j in range(3):
            edges.append((layout.vertex(i, j), layout.vertex(i, _cycle_step(forward, 3, j)), w))
    for i in range(1, k):
        for j in range(3):
            edges.append((layout.vertex(i, j), layout.vertex(i + 1, j), delta))
    graph = WeightedGraph(directed=True, n=layout.n, edges=tuple(edges))

    entries: dict[tuple[int, int], Path] = {}
    for i in range(1, k):
        forward = i % 2 == 1
        succ_next = lambda j: _cycle_step(i % 2 == 0, 3, j)  # noqa: E731
        for a in range(3):
            b = _cycle_step(forward, 3, a)  # consecutive pair (a, b) on cycle i
            mid = succ_next(a)
            if succ_next(mid) != b:
                raise RuntimeError(f"cycle {i}: {a}-{mid} does not continue to {b}")
            path = (
                layout.vertex(i, a),
                layout.vertex(i + 1, a),
                layout.vertex(i + 1, mid),
                layout.vertex(i + 1, b),
            )
            entries[(path[0], path[-1])] = path
    system = PathSystem(entries=entries, alpha=alpha if mode == "approx" else None)
    system.validate_in(graph)
    return graph, system


UNDIRECTED_APPROX_ALPHA = Fraction(13, 12)


def gen_undirected_chain(k: int, mode: str = "exact") -> tuple[WeightedGraph, PathSystem]:
    """Chain of k undirected 5-cycles whose cross edges shift position by two.

    Cycle i edges have weight 1/3^i.  Cross edges between cycles i and i+1
    have weight 1 in exact mode and 1/3^(i-1) in approx mode; in approx mode
    the designated paths are claimed to be the only 13/12-approximate
    shortest paths between their endpoints.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if mode not in ("exact", "approx"):
        raise ValueError("mode must be 'exact' or 'approx'")
    layout = ChainLayout(cycle_count=k, cycle_size=5)
    edges: list[tuple[int, int, Fraction]] = []
    for i in range(1, k + 1):
        w = Fraction(1, 3**i)
        for j in range(5):
            edges.append((layout.vertex(i, j), layout.vertex(i, (j + 1) % 5), w))
    for i in range(1, k):
        w = Fraction(1) if mode == "exact" else Fraction(1, 3 ** (i - 1))
        for j in range(5):
            # Position j on cycle i attaches to position 2j (mod 5) on i+1.
            edges.append((layout.vertex(i, j), layout.vertex(i + 1, (2 * j) % 5), w))
    graph = WeightedGraph(directed=False, n=layout.n, edges=tuple(edges))

    entries: dict[tuple[int, int], Path] = {}
    for i in range(1, k):
        for a in range(5):
            j = (2 * a) % 5
            path = (
                layout.vertex(i, a),
                layout.vertex(i + 1, j),
                layout.vertex(i + 1, (j + 1) % 5),
                layout.vertex(i + 1, (j + 2) % 5),
            )
            entries[(path[0], path[-1])] = path
    system = PathSystem(
        entries=entries,
        alpha=UNDIRECTED_APPROX_ALPHA if mode == "approx" else None,
    )
    system.validate_in(graph)
    return graph, system


def gen_grid(side: int, alpha_g: RationalLike) -> tuple[WeightedGraph, PathSystem]:
    """L-by-L grid DAG: horizontal edges (weight 1) go right, vertical edges
    go up with column-j weight (alpha_g*L)^(2j).

    The designated family pairs each vertex with targets one row above (go up
    immediately, then right) and targets one column right (go up as far as
    possible, then right once); the system is tagged with alpha_g as its
    claimed separation factor.
    """
    L = side
    if L < 2:
        raise ValueError("need side >= 2")
    alpha_g = as_fraction(alpha_g)
    if alpha_g <= 1:
        raise ValueError("alpha_g must be > 1")
    layout = GridLayout(side=L)
    edges: list[tuple[int, int, Fraction]] = []
    for row in range(L):
        for col in range(L - 1):
            edges.append((layout.vertex(row, col), layout.vertex(row, col + 1), Fraction(1)))
    column_weight = [(alpha_g * L) ** (2 * j) for j in range(L)]
    for col in range(L):
        for row in range(1, L):
            edges.append((layout.vertex(row, col), layout.vertex(row - 1, col), column_weight[col]))
    graph = WeightedGraph(directed=True, n=layout.n, edges=tuple(edges))

    entries: dict[tuple[int, int], Path] = {}
    for i in range(1, L):  # up-then-right family: s=(i,j), t=(i-1,k), k>j
        for j in range(L - 1):
            for k2 in range(j + 1, L):
                path = [layout.vertex(i, j), layout.vertex(i - 1, j)]
                for c in range(j + 1, k2 + 1):
                    path.append(layout.vertex(i - 1, c))
                entries[(path[0], path[-1])] = tuple(path)
    for j in range(L - 1):  # up-column-then-right family: s=(i,j), t=(k,j+1), k<i
        for i in range(1, L):
            for k2 in range(i):
                path = [layout.vertex(r, j) for r in range(i, k2 - 1, -1)]
                path.append(layout.vertex(k2, j + 1))
                key = (path[0], path[-1])
                if key in entries and entries[key] != tuple(path):
                    raise RuntimeError(f"grid families disagree on the designated path for {key}")
                entries[key] = tuple(path)
    system = PathSystem(entries=entries, alpha=alpha_g)
    system.validate_in(graph)
    return graph, system


def fig1_fixture() -> tuple[WeightedGraph, WeightMap]:
    """The four-vertex showcase: reweighting drops aspect ratio 100 to 4
    while keeping every shortest path intact."""
    edges = (
        (0, 1, Fraction(97)),
        (0, 2, Fraction(53)),
        (0, 3, Fraction(500)),
        (1, 3, Fraction(5)),
        (2, 3, Fraction(83)),
    )
    graph = WeightedGraph(directed=False, n=4, edges=edges)
    better = WeightMap((Fraction(1), Fraction(2), Fraction(4), Fraction(1), Fraction(1)))
    return graph, better
