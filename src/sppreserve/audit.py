"""Mechanical re-proofs of the construction claims at generated scale.

Each audit takes construction parameters, regenerates the instance, and
exhaustively verifies the claimed properties of its designated path system:
uniqueness (or unique alpha-approximate dominance) per designated pair, the
structural shape of designated and rival paths, and the cycle-weight doubling
forced on any preserving reweighting of a chain.  Audits are finite checks,
not symbolic proofs; a parameter choice below a claim's effective threshold
is reported as such rather than papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .checks import check_exact, unique_alpha_approx
from .constructions import (
    ChainLayout,
    GridLayout,
    gen_directed_chain,
    gen_grid,
    gen_undirected_chain,
)
from .core import (
    BudgetExceededError,
    Path,
    PathSystem,
    RationalLike,
    WeightMap,
    WeightedGraph,
    WorkBudget,
    as_fraction,
    format_fraction,
    is_simple,
)
from .reweight import CycleError, topological_order
from .search import DEFAULT_WALK_BUDGET, enumerate_walks, simple_paths


@dataclass(frozen=True)
class LemmaCheck:
    """One audited claim: a tag, a verdict, and the worst margin observed.

    The margin of a designated pair is (best rival weight) / (alpha *
    designated weight); the claim holds exactly when every margin exceeds 1.
    ``worst_margin`` is the least margin over the pairs whose margin is
    known: failing pairs, and passing pairs whose rival probe returned a
    weight.  Pairs whose probe gave up or found no rival (see
    ``_best_rival_weight``) are skipped, so it is an upper bound on the true
    worst margin; None when no margin is known.  Verdicts never depend on it.
    """

    tag: str
    passed: bool
    pairs_checked: int
    worst_margin: Fraction | None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "verdict": "pass" if self.passed else "fail",
            "pairs_checked": self.pairs_checked,
            "worst_margin": None
            if self.worst_margin is None
            else format_fraction(self.worst_margin),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class AuditReport:
    construction: str
    params: dict
    checks: tuple[LemmaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "check": f"audit:{self.construction}",
            "verdict": self.verdict,
            "witnesses": [],
            "stats": {
                "params": {k: str(v) for k, v in self.params.items()},
                "lemmas": [c.to_json() for c in self.checks],
            },
        }


_PROBE_BUDGET = 100_000


def _best_rival_weight(
    graph: WeightedGraph,
    s: int,
    t: int,
    designated: Path,
    start_bound: Fraction,
    acyclic: bool,
) -> Fraction | None:
    """Exact weight of the lightest s-to-t walk other than ``designated``.

    Best effort, for margin reporting only (verdicts never depend on it).
    On a DAG (``acyclic``: a directed graph without cycles) the rival set is
    just the simple paths, searched exactly; on cyclic graphs the bound grows
    gently from ``start_bound`` (below which the caller knows there is no
    rival), and once any rival appears under a bound the minimum over that
    enumeration is the true minimum.  Returns None when no rival surfaced
    within the probe bound or when the probe ran out of its budget of
    ``_PROBE_BUDGET`` expansions (the ``BudgetExceededError`` is swallowed);
    the caller then leaves the pair out of the worst margin.
    """
    try:
        if acyclic:
            weights = [
                graph.path_weight(p)
                for p in simple_paths(graph, s, t, budget=_PROBE_BUDGET)
                if p != designated
            ]
            return min(weights) if weights else None
        bound = start_bound
        for _ in range(4):
            bound = bound * 9 / 8
            rivals = [
                w
                for p, w in enumerate_walks(graph, s, t, bound, budget=_PROBE_BUDGET)
                if p != designated and is_simple(p)
            ]
            if rivals:
                return min(rivals)
    except BudgetExceededError:
        return None
    return None


def _audit_designated_family(
    graph: WeightedGraph,
    system: PathSystem,
    alpha: Fraction,
    tag: str,
    budget: WorkBudget,
) -> LemmaCheck:
    """Check every designated path is the only alpha-approximate route."""
    worst: Fraction | None = None
    notes: list[str] = []
    passed = True
    acyclic = graph.directed  # decided once for the family, not per pair
    if acyclic:
        try:
            topological_order(graph)
        except CycleError:
            acyclic = False
    for (s, t) in system.pairs():
        designated = system.entries[(s, t)]
        res = unique_alpha_approx(graph, s, t, designated, alpha, budget=budget)
        scaled = alpha * res.designated_weight
        if not res.passed:
            passed = False
            margin = res.witness_weight / scaled
            notes.append(
                f"pair ({s},{t}): rival {'-'.join(map(str, res.witness))} "
                f"weighs {format_fraction(res.witness_weight)} "
                f"<= alpha*designated {format_fraction(scaled)}"
            )
        else:
            best = _best_rival_weight(graph, s, t, designated, scaled, acyclic)
            margin = None if best is None else best / scaled
        if margin is not None and (worst is None or margin < worst):
            worst = margin
    return LemmaCheck(
        tag=tag,
        passed=passed,
        pairs_checked=len(system),
        worst_margin=worst,
        notes=tuple(notes),
    )


def audit_directed_chain(
    k: int,
    mode: str = "exact",
    alpha: RationalLike | None = None,
    delta: RationalLike | None = None,
    budget: int = DEFAULT_WALK_BUDGET,
) -> AuditReport:
    """Re-prove the directed chain claims at size k.

    Exact mode: each designated path is the strictly unique shortest path
    between its endpoints.  Approx mode: it is the only alpha-approximate
    one.  Cross-cycle weight ``delta`` may be overridden to probe how large
    it can get before the claims break.
    """
    graph, system = gen_directed_chain(k, mode=mode, alpha=alpha, delta=delta)
    eff_alpha = system.alpha if system.alpha is not None else Fraction(1)
    meter = WorkBudget(budget)
    unique = _audit_designated_family(
        graph,
        system,
        eff_alpha,
        tag="designated-only-alpha-approx" if mode == "approx" else "designated-unique-shortest",
        budget=meter,
    )
    per_transition = LemmaCheck(
        tag="three-designated-pairs-per-transition",
        passed=len(system) == 3 * (k - 1),
        pairs_checked=len(system),
        worst_margin=None,
    )
    return AuditReport(
        construction="dir-chain",
        params={"k": k, "mode": mode, "alpha": eff_alpha, "delta": _chain_delta(graph)},
        checks=(unique, per_transition),
    )


def _chain_delta(graph: WeightedGraph) -> Fraction:
    layout = ChainLayout(cycle_count=graph.n // (3 if graph.directed else 5),
                         cycle_size=3 if graph.directed else 5)
    for u, v, w in graph.edges:
        if layout.edge_tag(u, v)[0] == "cross":
            return w
    raise ValueError("chain has no cross edges")


def audit_undirected_chain(
    k: int,
    mode: str = "exact",
    alpha: RationalLike | None = None,
    budget: int = DEFAULT_WALK_BUDGET,
) -> AuditReport:
    """Re-prove the undirected chain claims at size k.

    Beyond per-pair uniqueness (alpha = 1 exact, 13/12 approx unless
    overridden), verifies the two-edge rival structure: each designated path
    has a rival with the same endpoints made of one cycle edge on the source
    cycle followed by one cross edge.
    """
    graph, system = gen_undirected_chain(k, mode=mode)
    if alpha is not None:
        eff_alpha = as_fraction(alpha)
    else:
        eff_alpha = system.alpha if system.alpha is not None else Fraction(1)
    meter = WorkBudget(budget)
    unique = _audit_designated_family(
        graph,
        system,
        eff_alpha,
        tag="designated-only-alpha-approx" if eff_alpha > 1 else "designated-unique-shortest",
        budget=meter,
    )

    layout = ChainLayout(cycle_count=k, cycle_size=5)
    rival_notes: list[str] = []
    rivals_ok = 0
    for (s, t), designated in sorted(system.entries.items()):
        i, a = layout.cycle_of(s), layout.position_of(s)
        rival = (s, layout.vertex(i, (a + 1) % 5), t)
        if graph.has_edge(rival[0], rival[1]) and graph.has_edge(rival[1], rival[2]):
            rivals_ok += 1
        else:
            rival_notes.append(f"pair ({s},{t}): expected rival {rival} is missing")
    rival_check = LemmaCheck(
        tag="two-edge-rival-exists",
        passed=rivals_ok == len(system),
        pairs_checked=len(system),
        worst_margin=None,
        notes=tuple(rival_notes),
    )
    return AuditReport(
        construction="undir-chain",
        params={"k": k, "mode": mode, "alpha": eff_alpha},
        checks=(unique, rival_check),
    )


def audit_grid(
    side: int,
    alpha_g: RationalLike,
    alpha: RationalLike | None = None,
    budget: int = DEFAULT_WALK_BUDGET,
) -> AuditReport:
    """Re-prove the grid claims at the given side length.

    Checks that every designated path has the claimed shape (one vertical
    then horizontals, or verticals then one horizontal) and is the only
    alpha-approximate route between its endpoints (alpha defaults to the
    construction's separation factor).  The up-column family's separation
    relies on the grid being large enough relative to alpha; failures there
    are annotated as a below-threshold parameter choice.
    """
    graph, system = gen_grid(side, alpha_g)
    eff_alpha = as_fraction(alpha) if alpha is not None else system.alpha
    meter = WorkBudget(budget)
    layout = GridLayout(side=side)

    shape_notes: list[str] = []
    shaped = 0
    for (s, t), path in sorted(system.entries.items()):
        kinds = [layout.edge_tag(u, v)[0] for u, v in zip(path, path[1:])]
        vertical_first = kinds[0] == "vertical" and all(k == "horizontal" for k in kinds[1:])
        horizontal_last = kinds[-1] == "horizontal" and all(k == "vertical" for k in kinds[:-1])
        if vertical_first or horizontal_last:
            shaped += 1
        else:
            shape_notes.append(f"pair ({s},{t}): unexpected designated shape {kinds}")
    shape_check = LemmaCheck(
        tag="designated-shape",
        passed=shaped == len(system),
        pairs_checked=len(system),
        worst_margin=None,
        notes=tuple(shape_notes),
    )

    unique = _audit_designated_family(
        graph, system, eff_alpha, tag="designated-only-alpha-approx", budget=meter
    )
    if not unique.passed:
        unique = LemmaCheck(
            tag=unique.tag,
            passed=unique.passed,
            pairs_checked=unique.pairs_checked,
            worst_margin=unique.worst_margin,
            notes=unique.notes
            + (
                f"side {side} may be below the separation threshold for "
                f"alpha {format_fraction(eff_alpha)}",
            ),
        )
    return AuditReport(
        construction="grid",
        params={"L": side, "alpha_g": as_fraction(alpha_g), "alpha": eff_alpha},
        checks=(shape_check, unique),
    )


def audit_cycle_doubling(chain: WeightedGraph, wmap: WeightMap) -> AuditReport:
    """Verify the doubling forced on any preserving reweighting of a chain:
    each cycle outweighs twice its successor.

    Precondition: ``wmap`` must pass the exact preservation check on the
    chain (the claim is about preserving maps only); a non-preserving map
    raises ValueError.
    """
    wmap.validate_for(chain)
    cycle_size = 3 if chain.directed else 5
    if chain.n % cycle_size != 0 or chain.n < 2 * cycle_size:
        raise ValueError("not a chain graph of the expected layout")
    k = chain.n // cycle_size
    report = check_exact(chain, wmap)
    if not report.passed:
        raise ValueError(
            "weight map is not shortest-paths preserving; doubling is only "
            "claimed for preserving maps"
        )
    layout = ChainLayout(cycle_count=k, cycle_size=cycle_size)
    totals = [Fraction(0)] * (k + 1)
    for idx, (u, v, _) in enumerate(chain.edges):
        kind, i = layout.edge_tag(u, v)
        if kind == "cycle":
            totals[i] += wmap[idx]
    ratios = [totals[i] / totals[i + 1] for i in range(1, k)]
    worst = min(ratios)
    notes = tuple(
        f"cycle {i}: weight {format_fraction(totals[i])}" for i in range(1, k + 1)
    )
    check = LemmaCheck(
        tag="cycle-weight-doubling",
        passed=all(r > 2 for r in ratios),
        pairs_checked=k - 1,
        worst_margin=worst / 2,
        notes=notes,
    )
    return AuditReport(
        construction="cycle-doubling",
        params={"k": k, "cycle_size": cycle_size},
        checks=(check,),
    )
