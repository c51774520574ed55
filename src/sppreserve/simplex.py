"""Exact-rational linear programming.

A dense two-phase tableau simplex over ``fractions.Fraction``.  All variables
are implicitly nonnegative; explicit lower bounds (such as the weight >= 1
normalization used elsewhere) are ordinary constraint rows.  Anti-cycling:
the pivot rule is steepest-coefficient normally and switches to Bland's rule
while the objective stalls, which preserves both speed and termination.

Programs whose constraint count dwarfs the variable count (the path
enumeration encodings do this) are solved through their duals: the dual has
one row per primal variable, and the optimal primal assignment is read off
the reduced costs of the dual's slack columns.  Either way the returned
assignment is re-checked against every constraint before it leaves this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import as_fraction, format_fraction

RELATIONS = ("<=", ">=", "==")

_STALL_LIMIT = 30
_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class Constraint:
    """A linear constraint with a provenance note naming its origin."""

    coeffs: Mapping[str, Fraction]
    rel: str
    rhs: Fraction
    note: str

    def __post_init__(self) -> None:
        if self.rel not in RELATIONS:
            raise ValueError(f"bad relation {self.rel!r}")
        if not self.note:
            raise ValueError("constraint without provenance note")
        fixed = {k: as_fraction(v) for k, v in self.coeffs.items() if as_fraction(v) != 0}
        object.__setattr__(self, "coeffs", fixed)
        object.__setattr__(self, "rhs", as_fraction(self.rhs))

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        return sum((c * assignment[v] for v, c in self.coeffs.items()), Fraction(0))

    def satisfied_by(self, assignment: Mapping[str, Fraction]) -> bool:
        lhs = self.evaluate(assignment)
        if self.rel == "<=":
            return lhs <= self.rhs
        if self.rel == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class LinearProgram:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    objective: Mapping[str, Fraction]
    direction: str = "min"

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise ValueError("direction must be 'min' or 'max'")
        known = set(self.variables)
        if len(known) != len(self.variables):
            raise ValueError("duplicate variable names")
        for con in self.constraints:
            unknown = set(con.coeffs) - known
            if unknown:
                raise ValueError(f"constraint references unknown variables {sorted(unknown)}")
        obj = {k: as_fraction(v) for k, v in self.objective.items()}
        if set(obj) - known:
            raise ValueError("objective references unknown variables")
        object.__setattr__(self, "objective", obj)


@dataclass(frozen=True)
class LpCertificate:
    """Solver outcome; when optimal, the assignment satisfies every
    constraint exactly (re-checked independently after solving)."""

    status: str  # optimal | infeasible | unbounded
    optimum: Fraction | None
    assignment: Mapping[str, Fraction]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "optimum": None if self.optimum is None else format_fraction(self.optimum),
            "assignment": {v: format_fraction(x) for v, x in sorted(self.assignment.items())},
        }


def verify_certificate(lp: LinearProgram, cert: LpCertificate) -> bool:
    """Exact feasibility and objective re-check of an optimal certificate."""
    if cert.status != "optimal":
        return False
    assignment = {v: cert.assignment.get(v, Fraction(0)) for v in lp.variables}
    if any(x < 0 for x in assignment.values()):
        return False
    if not all(con.satisfied_by(assignment) for con in lp.constraints):
        return False
    value = sum((c * assignment[v] for v, c in lp.objective.items()), Fraction(0))
    return value == cert.optimum


def solve_lp(lp: LinearProgram) -> LpCertificate:
    """Solve with exact rational arithmetic; variables are implicitly >= 0.

    Returns statuses explicitly (optimal, infeasible, unbounded); an optimal
    assignment is re-verified against every constraint before return.
    """
    index = {v: i for i, v in enumerate(lp.variables)}
    n = len(lp.variables)
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for con in lp.constraints:
        vec = [Fraction(0)] * n
        for v, c in con.coeffs.items():
            vec[index[v]] = c
        rows.append((vec, con.rel, con.rhs))
    c_vec = [Fraction(0)] * n
    for v, c in lp.objective.items():
        c_vec[index[v]] = c
    if lp.direction == "max":
        c_min = [-c for c in c_vec]
    else:
        c_min = c_vec

    # The dual route may decline (None) or recover an assignment that fails
    # re-verification on degenerate programs; the direct form backs it up.
    use_dual = len(rows) > max(2 * n, n + 16) and all(c >= 0 for c in c_min)
    routes = (_solve_via_dual, _solve_min_standard) if use_dual else (_solve_min_standard,)
    for route in routes:
        result = route(c_min, rows)
        if result is None:
            continue
        status, value, xs = result
        if status != "optimal":
            return LpCertificate(status=status, optimum=None, assignment={})
        cert = LpCertificate(
            status="optimal",
            optimum=-value if lp.direction == "max" else value,
            assignment={v: xs[i] for v, i in index.items()},
        )
        if verify_certificate(lp, cert):
            return cert
    raise RuntimeError("solver produced an assignment that fails re-verification")


def _to_ge_form(
    rows: Sequence[tuple[list[Fraction], str, Fraction]]
) -> list[tuple[list[Fraction], Fraction]]:
    """Rewrite constraints as pure >= rows (equalities become two rows)."""
    ge: list[tuple[list[Fraction], Fraction]] = []
    for vec, rel, rhs in rows:
        if rel in (">=", "=="):
            ge.append((list(vec), rhs))
        if rel in ("<=", "=="):
            ge.append(([-a for a in vec], -rhs))
    return ge


def _solve_via_dual(
    c_min: list[Fraction], rows: Sequence[tuple[list[Fraction], str, Fraction]]
) -> tuple[str, Fraction, list[Fraction]] | None:
    """Solve min{cx : rows, x >= 0} through max{by : A^T y <= c, y >= 0}.

    Requires c >= 0 (then the dual starts from the all-slack basis with no
    phase 1).  Returns None when the route cannot certify a result, letting
    the caller fall back to the direct tableau.
    """
    ge = _to_ge_form(rows)
    m = len(ge)
    n = len(c_min)
    # Dual in min form: min -b.y  s.t.  A^T y + s = c,  y, s >= 0.
    dual_rows: list[tuple[list[Fraction], str, Fraction]] = []
    for j in range(n):
        vec = [ge[i][0][j] for i in range(m)]
        dual_rows.append((vec, "<=", c_min[j]))
    dual_cost = [-ge[i][1] for i in range(m)]
    status, value, _ys, slack_reduced = _solve_min_standard_ex(dual_cost, dual_rows)
    if status == "unbounded":
        return ("infeasible", Fraction(0), [])
    if status != "optimal" or slack_reduced is None:
        return None
    # Reduced cost of the dual's j-th slack column is the optimal primal x_j.
    xs = [slack_reduced[j] for j in range(n)]
    return ("optimal", -value, xs)


def _solve_min_standard(
    c_vec: list[Fraction], rows: Sequence[tuple[list[Fraction], str, Fraction]]
) -> tuple[str, Fraction, list[Fraction]]:
    status, value, xs, _ = _solve_min_standard_ex(c_vec, rows)
    return status, value, xs


def _solve_min_standard_ex(
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
        status = _run_simplex(tableau, basis, phase1, allowed, aux=cost)
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
                _pivot(tableau, basis, [cost], i, pivot_col)
        for col in art_cols:
            allowed[col] = False

    status = _run_simplex(tableau, basis, cost, allowed)
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


def _run_simplex(
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
        _pivot(tableau, basis, [cost] + extra, leave, enter)
        if cost[-1] != last_value:
            last_value = cost[-1]
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    raise RuntimeError("simplex did not terminate within the pivot cap")


def _pivot(
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
