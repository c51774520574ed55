"""Exact-rational linear programming.

A dense two-phase tableau simplex.  Input and output are
``fractions.Fraction``; the tableau itself holds integers.  Each constraint
row is multiplied through by the lcm of its denominators, and pivoting
eliminates with integer combinations followed by division by the row's gcd,
so a row is its integer numerators over one positive denominator: the entry
of its basic column, which stands for 1.  The cost rows carry their
denominator explicitly.  The pivot decisions are those of the rational
tableau, read from integers: the entering column compares numerators of the
cost row, the ratio test cross-multiplies, ties go to the smaller basis
index.  ``Fraction`` values are built only when results are read out, and
in :func:`verify_certificate`, which re-checks them independently.

All variables are implicitly nonnegative; explicit lower bounds (such as the
weight >= 1 normalization used elsewhere) are ordinary constraint rows.
Anti-cycling: the pivot rule is steepest-coefficient normally and switches
to Bland's rule while the objective stalls, which preserves both speed and
termination.

Programs whose constraint count dwarfs the variable count (the path
enumeration encodings do this) are solved through their duals: the dual has
one row per primal variable, and the optimal primal assignment is read off
the reduced costs of the dual's slack columns.  Either way the returned
assignment is re-checked against every constraint before it leaves this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import as_fraction, format_fraction, scale_to_integers

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
    n_slack = sum(1 for _, rel, _ in work if rel in ("<=", ">="))
    first_art = n + n_slack
    total = first_art + sum(1 for _, rel, _ in work if rel != "<=")

    # Each constraint row is multiplied through by the lcm of its
    # denominators; its slack and artificial entries, 1 in the rational
    # tableau, become that scale.
    slack_col_of_row: dict[int, int] = {}
    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_seen = 0
    art_seen = 0
    for i, (vec, rel, rhs) in enumerate(work):
        ints, scale = scale_to_integers(vec + [rhs])
        row = list(ints[:n]) + [0] * (total - n) + [ints[n]]
        if rel in ("<=", ">="):
            col = n + slack_seen
            row[col] = scale if rel == "<=" else -scale
            slack_col_of_row[i] = col
            slack_seen += 1
        if rel != "<=":
            col = first_art + art_seen
            row[col] = scale
            art_seen += 1
        basis.append(col)
        tableau.append(_primitive(row))

    allowed = [True] * total
    ints, scale = scale_to_integers(c_vec)
    cost = _CostRow(list(ints) + [0] * (total - n + 1), scale)

    if first_art < total:
        phase1 = _CostRow([0] * first_art + [1] * (total - first_art) + [0], 1)
        for i, b in enumerate(basis):
            if b >= first_art:
                phase1.eliminate(tableau[i], b)
        status = _run_simplex(tableau, basis, phase1, allowed, aux=cost)
        if status == "unbounded":
            raise RuntimeError("phase 1 cannot be unbounded")
        if phase1.nums[-1] < 0:
            return ("infeasible", zero, [], None)
        for i, b in enumerate(list(basis)):
            if b >= first_art:
                row = tableau[i]
                pivot_col = next((j for j in range(first_art) if row[j]), None)
                if pivot_col is None:
                    continue  # redundant row, keep inert (all structural zeros)
                _pivot(tableau, basis, [cost], i, pivot_col)
        for col in range(first_art, total):
            allowed[col] = False

    status = _run_simplex(tableau, basis, cost, allowed)
    if status == "unbounded":
        return ("unbounded", zero, [], None)
    xs = [zero] * n
    for row, b in zip(tableau, basis):
        if b < n:
            xs[b] = Fraction(row[-1], row[b])
    value = Fraction(-cost.nums[-1], cost.den)
    slack_reduced: list[Fraction] | None = None
    if not flipped_any and first_art == total and n_slack == len(work):
        slack_reduced = [
            Fraction(cost.nums[slack_col_of_row[i]], cost.den) for i in range(len(work))
        ]
    return ("optimal", value, xs, slack_reduced)


class _CostRow:
    """A cost row of the tableau: entry j is ``nums[j] / den`` with den > 0,
    and the last entry is minus the objective value.  Entries share the
    denominator, so their order and signs are those of the numerators.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: list[int], den: int):
        self.nums = nums
        self.den = den

    def eliminate(self, row: list[int], c: int) -> None:
        """Subtract the multiple of constraint ``row`` that zeroes column c
        (row[c] > 0), then divide out the common factor."""
        f = self.nums[c]
        if f:
            p = row[c]
            nums = [p * a - f * b for a, b in zip(self.nums, row)]
            den = p * self.den
            g = math.gcd(den, *nums)
            if g > 1:
                nums = [a // g for a in nums]
                den //= g
            self.nums = nums
            self.den = den


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries (a positive basic entry
    keeps the gcd positive)."""
    g = math.gcd(*row)
    return row if g == 1 else [a // g for a in row]


def _run_simplex(
    tableau: list[list[int]],
    basis: list[int],
    cost: _CostRow,
    allowed: list[bool],
    aux: _CostRow | None = None,
) -> str:
    """Pivot until optimal or unbounded; mutates tableau, basis, cost, aux.

    Constraint row i stands for the rational row ``tableau[i] /
    tableau[i][basis[i]]``, whose basic entry is 1; that denominator is kept
    positive, so the sign of an entry is the sign of its numerator and the
    ratio rhs/a of a row is ``row[-1] / row[enter]``, compared across rows
    by cross-multiplying.
    """
    stall = 0
    bland = False
    last_num, last_den = cost.nums[-1], cost.den
    total = len(allowed)
    cost_rows = [cost] if aux is None else [cost, aux]
    for _ in range(_MAX_PIVOTS):
        nums = cost.nums
        enter = -1
        if bland:
            for j in range(total):
                if allowed[j] and nums[j] < 0:
                    enter = j
                    break
        else:
            best = 0
            for j in range(total):
                if allowed[j] and nums[j] < best:
                    best = nums[j]
                    enter = j
        if enter < 0:
            return "optimal"
        leave = -1
        best_rhs = best_a = 0
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ours, theirs = row[-1] * best_a, best_rhs * a  # rhs/a vs best_rhs/best_a
                if leave < 0 or ours < theirs or (ours == theirs and basis[i] < basis[leave]):
                    best_rhs, best_a = row[-1], a
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tableau, basis, cost_rows, leave, enter)
        if cost.nums[-1] * last_den != last_num * cost.den:
            last_num, last_den = cost.nums[-1], cost.den
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    raise RuntimeError("simplex did not terminate within the pivot cap")


def _pivot(
    tableau: list[list[int]],
    basis: list[int],
    cost_rows: list[_CostRow],
    r: int,
    c: int,
) -> None:
    """Make column c basic in row r: every other row, cost rows included,
    loses its column-c entry by an integer combination with row r."""
    row = tableau[r]
    p = row[c]
    if p < 0:
        tableau[r] = row = [-a for a in row]
        p = -p
    for i, other in enumerate(tableau):
        f = other[c]
        if f and i != r:
            tableau[i] = _primitive([p * a - f * b for a, b in zip(other, row)])
    for cost in cost_rows:
        cost.eliminate(row, c)
    basis[r] = c
