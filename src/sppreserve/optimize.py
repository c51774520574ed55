"""Minimum-aspect-ratio optimization over preserving reweightings.

The encoding is explicit path enumeration: a designated path must beat every
alternative simple path between its endpoints, with strictness realized as an
additive margin eps under the weight >= 1 normalization (any valid map can be
scaled so its minimum weight is 1 without changing any shortest path).
Constraining simple alternatives suffices because, with positive weights,
every walk weighs at least as much as its simple reduction.

:func:`min_aspect_ratio` must return a map that actually passes the exact
preservation check over all pairs, not only the seeded ones.  It therefore
solves, verifies, and augments: any witness pair the checker finds
contributes one more designated-versus-alternative row and the program is
re-solved.  Each added row names a path pair, so the final program is still a
plain enumeration encoding, just grown lazily instead of materialized for
every pair up front.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .checks import check_exact
from .constructions import GridLayout, gen_grid
from .core import (
    Path,
    PathSystem,
    RationalLike,
    WeightMap,
    WeightedGraph,
    WorkBudget,
    as_fraction,
    format_fraction,
    scale_to_integers,
)
from .search import _dijkstra, _extreme_sweep, _tight_lists, shortest_paths, simple_paths
from .simplex import Constraint, LinearProgram, LpCertificate, solve_lp

DEFAULT_ENUM_BUDGET = 10**6
TIE_MODELS = ("one", "all", "error")
_MAX_ROUNDS = 500  # augmentation rounds of min_aspect_ratio before it gives up


def edge_var(graph: WeightedGraph, idx: int) -> str:
    u, v, _ = graph.edges[idx]
    return f"w_{u}_{v}"


def _path_str(path: Sequence[int]) -> str:
    return "-".join(str(v) for v in path)


def canonical_designated_path(graph: WeightedGraph, s: int, t: int) -> Path:
    """The lexicographically smallest shortest s-to-t path.

    Every tight path weighs d_G(s, t), so the minimum-weight tight-DAG path,
    with its lexicographic tie-break, is exactly this path.
    """
    return _canonical_path_finder(graph, graph.weights)(s, t)


def _canonical_path_finder(
    graph: WeightedGraph, weights: tuple[Fraction, ...]
) -> Callable[[int, int], Path]:
    """:func:`canonical_designated_path` of ``graph`` under ``weights``.

    The returned function runs one integer Dijkstra and one tight-DAG sweep
    per source, on first use, and keeps the paths to every target.
    """
    ints, _ = scale_to_integers(weights)
    by_source: dict[int, list[Path | None]] = {}

    def find(s: int, t: int) -> Path:
        if s not in by_source:
            if not (0 <= s < graph.n):
                raise ValueError(f"source {s} out of range")
            dist = _dijkstra(graph.adjacency, s, ints)
            succ = _tight_lists(graph.adjacency, dist, ints)
            by_source[s] = _extreme_sweep(succ, dist, s, ints, "min")[1]
        path = by_source[s][t]
        if path is None:
            raise ValueError(f"{t} is unreachable from {s}")
        return path

    return find


def _designated_distance(
    graph: WeightedGraph, s: int, t: int, designated: Path, dist_from: dict[int, tuple]
) -> Fraction:
    """d_G(s, t), after checking that ``designated`` is a shortest path.

    ``dist_from`` caches G-distances by source, so pairs that share a source
    share one Dijkstra.
    """
    if s not in dist_from:
        dist_from[s] = shortest_paths(graph, s).dist
    d_g = dist_from[s][t]
    if graph.path_weight(designated) != d_g:
        raise ValueError(f"designated path for ({s},{t}) is not a shortest path")
    return d_g


def _pair_coeffs(
    graph: WeightedGraph, alt: Path, des_edges: Mapping[int, int], alpha: Fraction
) -> dict[str, Fraction]:
    """Edge counts of ``alt`` minus alpha times the designated edge counts."""
    coeffs = {
        edge_var(graph, idx): Fraction(cnt) for idx, cnt in _edge_counter(graph, alt).items()
    }
    for idx, cnt in des_edges.items():
        var = edge_var(graph, idx)
        coeffs[var] = coeffs.get(var, Fraction(0)) - alpha * cnt
    return coeffs


def _preservation_rows_for_pair(
    graph: WeightedGraph,
    s: int,
    t: int,
    designated: Path,
    eps: Fraction,
    ties: str,
    budget: WorkBudget,
    dist_from: dict[int, tuple],
    alternatives: Iterable[Path] | None = None,
) -> list[Constraint]:
    d_g = _designated_distance(graph, s, t, designated, dist_from)
    if alternatives is None:
        alternatives = [p for p in simple_paths(graph, s, t, budget) if p != designated]
    des_edges = _edge_counter(graph, designated)
    rows = []
    for alt in alternatives:
        coeffs = _pair_coeffs(graph, alt, des_edges, Fraction(1))
        tied = graph.path_weight(alt) == d_g
        if tied and ties == "error":
            raise ValueError(f"pair ({s},{t}) has tied shortest paths and no tie policy")
        rel = "==" if (tied and ties == "all") else ">="
        rhs = Fraction(0) if tied else eps
        note = f"pair ({s},{t}): alt {_path_str(alt)} vs designated {_path_str(designated)}"
        rows.append(Constraint(coeffs=coeffs, rel=rel, rhs=rhs, note=note))
    return rows


def _edge_counter(graph: WeightedGraph, path: Sequence[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for u, v in zip(path, path[1:]):
        idx = graph.edge_index(u, v)
        counts[idx] = counts.get(idx, 0) + 1
    return counts


def _positivity_rows(graph: WeightedGraph) -> list[Constraint]:
    return [
        Constraint(
            coeffs={edge_var(graph, idx): Fraction(1)},
            rel=">=",
            rhs=Fraction(1),
            note=f"normalization: weight of edge {edge_var(graph, idx)} at least 1",
        )
        for idx in range(graph.m)
    ]


def build_preservation_lp(
    graph: WeightedGraph,
    paths: PathSystem,
    eps: RationalLike,
    ties: str = "one",
    budget: int | WorkBudget = DEFAULT_ENUM_BUDGET,
) -> LinearProgram:
    """Feasibility program for "every designated path stays strictly
    shortest", margin eps, weights normalized to >= 1.

    Each designated path must be a shortest path of the graph (validated
    first).  Alternatives tied with the designation get non-strict rows under
    tie model "one", equality rows under "all", and raise under "error".
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if ties not in TIE_MODELS:
        raise ValueError(f"ties must be one of {TIE_MODELS}")
    if isinstance(budget, int):
        budget = WorkBudget(budget)
    paths.validate_in(graph)
    constraints = _positivity_rows(graph)
    dist_from: dict[int, tuple] = {}
    for (s, t) in paths.pairs():
        constraints.extend(
            _preservation_rows_for_pair(
                graph, s, t, paths.entries[(s, t)], eps, ties, budget, dist_from
            )
        )
    variables = tuple(edge_var(graph, i) for i in range(graph.m))
    return LinearProgram(
        variables=variables,
        constraints=tuple(constraints),
        objective={},
        direction="min",
    )


def build_separation_lp(
    graph: WeightedGraph,
    paths: PathSystem,
    alpha_h: RationalLike,
    eps: RationalLike,
    objective: Mapping[int, RationalLike],
    budget: int | WorkBudget = DEFAULT_ENUM_BUDGET,
) -> LinearProgram:
    """Program forcing each designated path to be the only alpha_H-approximate
    route: every alternative weighs more than alpha_H times the designation.

    ``objective`` maps edge indices to coefficients of the (minimized)
    objective.  With alpha_H = 1 the rows coincide with the strict rows of
    :func:`build_preservation_lp`.
    """
    alpha_h = as_fraction(alpha_h)
    if alpha_h < 1:
        raise ValueError("alpha_h must be >= 1")
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(budget, int):
        budget = WorkBudget(budget)
    paths.validate_in(graph)
    constraints = _positivity_rows(graph)
    dist_from: dict[int, tuple] = {}
    for (s, t) in paths.pairs():
        designated = paths.entries[(s, t)]
        _designated_distance(graph, s, t, designated, dist_from)
        des_edges = _edge_counter(graph, designated)
        for alt in simple_paths(graph, s, t, budget):
            if alt == designated:
                continue
            constraints.append(
                Constraint(
                    coeffs=_pair_coeffs(graph, alt, des_edges, alpha_h),
                    rel=">=",
                    rhs=eps,
                    note=(
                        f"pair ({s},{t}): alt {_path_str(alt)} must exceed "
                        f"{format_fraction(alpha_h)} x designated {_path_str(designated)}"
                    ),
                )
            )
    variables = tuple(edge_var(graph, i) for i in range(graph.m))
    obj = {edge_var(graph, int(i)): as_fraction(c) for i, c in objective.items()}
    return LinearProgram(
        variables=variables,
        constraints=tuple(constraints),
        objective=obj,
        direction="min",
    )


ASPECT_VAR = "r"


def min_aspect_ratio(
    graph: WeightedGraph,
    paths: PathSystem | None,
    eps: RationalLike,
    ties: str = "one",
    budget: int | WorkBudget = DEFAULT_ENUM_BUDGET,
) -> tuple[Fraction, WeightMap, LpCertificate]:
    """Minimum aspect ratio of any preserving reweighting, margin eps.

    Minimizes r subject to 1 <= w_e <= r and the preservation rows seeded
    from ``paths`` (pass None to start from the normalization alone).  After
    each solve the candidate map is run through the full exact preservation
    check; every witness pair adds one designated-versus-alternative row and
    the program is re-solved, so the returned map always passes the check.
    The reported optimum is exact for the eps-margin program; optima decrease
    toward the true infimum as eps shrinks.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if ties not in TIE_MODELS:
        raise ValueError(f"ties must be one of {TIE_MODELS}")
    if isinstance(budget, int):
        budget = WorkBudget(budget)
    if graph.m == 0:
        raise ValueError("no edges")

    # The full enumeration program is built up front (its rows are the
    # contract), but rows enter the working LP only when the current
    # candidate violates them; exact substitution over the pool plus the
    # final preservation check make the subset optimum the true optimum.
    pool: list[Constraint] = []
    if paths is not None:
        seed = build_preservation_lp(graph, paths, eps, ties=ties, budget=budget)
        pool = [c for c in seed.constraints if not c.note.startswith("normalization:")]

    active: list[Constraint] = _positivity_rows(graph)
    for idx in range(graph.m):
        var = edge_var(graph, idx)
        active.append(
            Constraint(
                coeffs={var: Fraction(1), ASPECT_VAR: Fraction(-1)},
                rel="<=",
                rhs=Fraction(0),
                note=f"aspect bound: {var} <= {ASPECT_VAR}",
            )
        )
    variables = tuple(edge_var(graph, i) for i in range(graph.m)) + (ASPECT_VAR,)
    known_rows = {(c.rel, c.rhs, frozenset(c.coeffs.items())) for c in active}
    dist_from: dict[int, tuple] = {}
    g_canonical = _canonical_path_finder(graph, graph.weights)
    gate_model = "both" if ties == "all" else "one"

    def activate(row: Constraint) -> bool:
        key = (row.rel, row.rhs, frozenset(row.coeffs.items()))
        if key in known_rows:
            return False
        known_rows.add(key)
        active.append(row)
        return True

    for _ in range(_MAX_ROUNDS):
        lp = LinearProgram(
            variables=variables,
            constraints=tuple(active),
            objective={ASPECT_VAR: Fraction(1)},
            direction="min",
        )
        cert = solve_lp(lp)
        if cert.status != "optimal":
            raise ValueError(
                f"preservation program is {cert.status}; eps may be too large"
            )
        assignment = dict(cert.assignment)
        violated = [row for row in pool if not row.satisfied_by(assignment)]
        if violated:
            # Keep the working LP small under adversarial pools.
            if len(violated) > 500:
                violated.sort(key=_violation_size(assignment), reverse=True)
                violated = violated[:500]
            progressed = any([activate(row) for row in violated])
            if not progressed:
                raise RuntimeError("violated pool rows were already active")
            continue
        wmap = WeightMap(
            tuple(cert.assignment[edge_var(graph, i)] for i in range(graph.m))
        )
        report = check_exact(graph, wmap, model=gate_model)
        if report.passed:
            return cert.optimum, wmap, cert
        progressed = False
        h_canonical = _canonical_path_finder(graph, wmap.weights)
        for witness in report.witnesses:
            s, t = witness.s, witness.t
            if witness.kind == "old-shortest-not-shortest":
                # A shortest path got lost: pin it against whatever currently
                # beats it (tied rivals force equality under the "all" model,
                # others get the strict margin).
                designated = witness.path
                alternatives = [h_canonical(s, t)]
                if alternatives[0] == designated:
                    continue
            else:
                designated = g_canonical(s, t)
                alternatives = [witness.path]
            for row in _preservation_rows_for_pair(
                graph, s, t, designated, eps, ties, budget, dist_from, alternatives=alternatives
            ):
                progressed |= activate(row)
        if not progressed:
            raise RuntimeError("verification found witnesses but no new row; giving up")
    raise RuntimeError(f"did not converge within {_MAX_ROUNDS} augmentation rounds")


def _violation_size(assignment: Mapping[str, Fraction]):
    def keyfn(row: Constraint) -> Fraction:
        gap = row.rhs - row.evaluate(assignment)
        return gap if row.rel != "<=" else -gap

    return keyfn


def grid_lower_bound(
    side: int,
    alpha_g: RationalLike,
    alpha_h: RationalLike,
    eps: RationalLike,
    budget: int | WorkBudget = DEFAULT_ENUM_BUDGET,
) -> Fraction:
    """Certified minimum of (last row + last column weight) over reweightings
    of the grid that keep each designated path the only alpha_H-approximate
    route; always at least alpha_H^(side-1)."""
    alpha_h = as_fraction(alpha_h)
    graph, paths = gen_grid(side, alpha_g)
    layout = GridLayout(side=side)
    objective = {idx: Fraction(1) for idx in layout.last_row_and_column_edges(graph)}
    lp = build_separation_lp(graph, paths, alpha_h, eps, objective, budget=budget)
    cert = solve_lp(lp)
    if cert.status != "optimal":
        raise ValueError(f"separation program is {cert.status}")
    floor = alpha_h ** (side - 1)
    if cert.optimum < floor:
        raise RuntimeError(
            f"lower-bound optimum {cert.optimum} fell below {floor}; "
            "the separation rows should forbid this"
        )
    return cert.optimum
