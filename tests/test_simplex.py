import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sppreserve import (
    Constraint,
    GridLayout,
    LinearProgram,
    LpCertificate,
    build_separation_lp,
    gen_grid,
    simplex,
    solve_lp,
    verify_certificate,
)
from sppreserve.simplex import _solve_min_standard, _solve_via_dual

import oracles


def lp(variables, rows, objective, direction="min"):
    cons = tuple(
        Constraint(coeffs=c, rel=rel, rhs=F(r), note=f"row {i}")
        for i, (c, rel, r) in enumerate(rows)
    )
    return LinearProgram(tuple(variables), cons, objective, direction)


def test_floor_constraint():
    program = lp(["x"], [({"x": F(1)}, ">=", 3)], {"x": F(1)})
    cert = solve_lp(program)
    assert cert.status == "optimal" and cert.optimum == 3
    assert verify_certificate(program, cert)


def test_infeasible_pair():
    program = lp(["x"], [({"x": F(1)}, ">=", 2), ({"x": F(1)}, "<=", 1)], {"x": F(1)})
    assert solve_lp(program).status == "infeasible"


def test_unbounded():
    program = lp(["x"], [({"x": F(1)}, ">=", 0)], {"x": F(-1)})
    assert solve_lp(program).status == "unbounded"


def test_maximization():
    program = lp(
        ["x", "y"],
        [({"x": F(1), "y": F(2)}, "<=", 14), ({"x": F(3), "y": F(-1)}, ">=", 0), ({"x": F(1), "y": F(-1)}, "<=", 2)],
        {"x": F(3), "y": F(4)},
        "max",
    )
    cert = solve_lp(program)
    assert cert.status == "optimal"
    assert cert.optimum == 34
    assert cert.assignment["x"] == 6 and cert.assignment["y"] == 4


def test_equality_row():
    program = lp(
        ["x", "y"],
        [({"x": F(1), "y": F(1)}, "==", 4), ({"x": F(1), "y": F(-1)}, ">=", 1)],
        {"x": F(2), "y": F(1)},
    )
    cert = solve_lp(program)
    assert cert.optimum == F(13, 2)
    assert cert.assignment == {"x": F(5, 2), "y": F(3, 2)}


def test_degenerate_cycling_guard():
    # Beale-style degeneracy: naive most-negative pivoting cycles on this
    # family; the solver must terminate, at optimum -77/100 (scipy-confirmed)
    program = lp(
        ["x1", "x2", "x3", "x4"],
        [
            ({"x1": F(1, 4), "x2": F(-8), "x3": F(-1), "x4": F(9)}, "<=", 0),
            ({"x1": F(1, 2), "x2": F(-12), "x3": F(-1, 2), "x4": F(3)}, "<=", 0),
            ({"x3": F(1)}, "<=", 1),
        ],
        {"x1": F(-3, 4), "x2": F(150), "x3": F(-1, 50), "x4": F(6)},
    )
    cert = solve_lp(program)
    assert cert.status == "optimal"
    assert cert.optimum == F(-77, 100)
    assert verify_certificate(program, cert)


def test_certificate_verification_rejects_tampering():
    program = lp(["x"], [({"x": F(1)}, ">=", 3)], {"x": F(1)})
    cert = solve_lp(program)
    bad = LpCertificate(status="optimal", optimum=F(2), assignment={"x": F(2)})
    assert not verify_certificate(program, bad)
    assert verify_certificate(program, cert)


def _random_program(rng: random.Random, n_vars: int, n_rows: int, equalities=False):
    variables = [f"x{i}" for i in range(n_vars)]
    rows = []
    rels = ["<=", ">=", "=="] if equalities else ["<=", ">="]
    for _ in range(n_rows):
        coeffs = {
            v: F(rng.randint(-4, 6))
            for v in rng.sample(variables, rng.randint(1, n_vars))
        }
        coeffs = {v: c for v, c in coeffs.items() if c}
        if not coeffs:
            continue
        rows.append((coeffs, rng.choice(rels), rng.randint(0, 12)))
    # keep it bounded: cap every variable
    for v in variables:
        rows.append(({v: F(1)}, "<=", 10))
    objective = {v: F(rng.randint(0, 5)) for v in variables}
    return lp(variables, rows, objective, "min"), rows, objective


def test_random_programs_verify_and_match_scipy():
    scipy_linprog = pytest.importorskip("scipy.optimize").linprog
    import numpy as np

    rng = random.Random(2024)
    for trial in range(60):
        program, rows, objective = _random_program(
            rng, rng.randint(1, 4), rng.randint(1, 6), equalities=trial % 2 == 1
        )
        cert = solve_lp(program)
        variables = list(program.variables)
        c = [float(objective.get(v, 0)) for v in variables]
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for coeffs, rel, rhs in rows:
            row = [float(coeffs.get(v, 0)) for v in variables]
            if rel == "<=":
                a_ub.append(row)
                b_ub.append(float(rhs))
            elif rel == ">=":
                a_ub.append([-x for x in row])
                b_ub.append(-float(rhs))
            else:
                a_eq.append(row)
                b_eq.append(float(rhs))
        ref = scipy_linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=(0, None),
        )
        if cert.status == "optimal":
            assert verify_certificate(program, cert)
            assert ref.status == 0
            assert abs(float(cert.optimum) - ref.fun) < 1e-6
        elif cert.status == "infeasible":
            assert ref.status == 2
        else:
            assert ref.status == 3


def test_dual_route_agrees_with_direct_tableau():
    rng = random.Random(77)
    for trial in range(25):
        n_vars = rng.randint(1, 4)
        variables = [f"x{i}" for i in range(n_vars)]
        rows = []
        for _ in range(rng.randint(n_vars * 3, n_vars * 5)):
            coeffs = {v: F(rng.randint(-3, 5)) for v in variables}
            coeffs = {v: c for v, c in coeffs.items() if c}
            if coeffs:
                rows.append((coeffs, rng.choice(["<=", ">="]), rng.randint(-4, 10)))
        for v in variables:
            rows.append(({v: F(1)}, "<=", 9))
        objective = {v: F(rng.randint(0, 4)) for v in variables}
        program = lp(variables, rows, objective, "min")

        index = {v: i for i, v in enumerate(program.variables)}
        std_rows = []
        for con in program.constraints:
            vec = [F(0)] * n_vars
            for v, c in con.coeffs.items():
                vec[index[v]] = c
            std_rows.append((vec, con.rel, con.rhs))
        c_vec = [F(objective.get(v, 0)) for v in variables]
        direct = _solve_min_standard(c_vec, std_rows)
        dual = _solve_via_dual(c_vec, std_rows)
        assert dual is not None
        assert direct[0] == dual[0]
        if direct[0] == "optimal":
            assert direct[1] == dual[1]
            cert = LpCertificate(
                status="optimal",
                optimum=dual[1],
                assignment={v: dual[2][i] for v, i in index.items()},
            )
            assert verify_certificate(program, cert)


def test_constraint_validation():
    with pytest.raises(ValueError, match="note"):
        Constraint(coeffs={"x": F(1)}, rel=">=", rhs=F(0), note="")
    with pytest.raises(ValueError, match="relation"):
        Constraint(coeffs={"x": F(1)}, rel=">", rhs=F(0), note="n")
    with pytest.raises(ValueError, match="unknown"):
        LinearProgram(("x",), (Constraint({"y": F(1)}, ">=", F(0), "n"),), {})


# ---------------------------------------------------------------------------
# Differential tests: the integer-row tableau against the Fraction tableau it
# replaced (tests/oracles.py), which must make the same pivots.

_coefficients = st.one_of(
    st.integers(-4, 6).map(F),
    st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
    st.sampled_from([F(3, 2), F(-3, 2), F(1, 10**9), F(-1, 10**9)]),
    st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**9)),
)

# Beale's program: the steepest rule cycles on it, so the solver finishes
# only through the Bland switch.  test_degenerate_cycling_guard uses the same
# rows with another objective.
_BEALE_ROWS = [
    ([F(1, 4), F(-8), F(-1), F(9)], "<=", F(0)),
    ([F(1, 2), F(-12), F(-1, 2), F(3)], "<=", F(0)),
    ([F(0), F(0), F(1), F(0)], "<=", F(1)),
]
_BEALE_COST = [F(-3, 4), F(20), F(-1, 2), F(6)]


@st.composite
def standard_programs(draw, max_vars=5, max_rows=7):
    """(c, rows) for min{cx : rows, x >= 0}: fractional and huge-denominator
    entries, negative right-hand sides, and redundant equality rows."""
    n = draw(st.integers(1, max_vars))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        vec = [F(0)] * n
        for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)):
            vec[j] = draw(_coefficients)
        rows.append((vec, draw(st.sampled_from(["<=", ">=", "=="])), draw(_coefficients)))
    equalities = [row for row in rows if row[1] == "=="]
    if equalities:
        # Multiples of equality rows and sums of two: redundant rows whose
        # artificials stay basic at zero after phase 1.
        for _ in range(draw(st.integers(0, 3))):
            a, _, ra = draw(st.sampled_from(equalities))
            b, _, rb = draw(st.sampled_from(equalities))
            k = draw(st.sampled_from([F(1), F(-1), F(3, 2), F(-2, 7)]))
            rows.append(([k * (x + y) for x, y in zip(a, b)], "==", k * (ra + rb)))
    if draw(st.booleans()):
        rows += [([F(int(i == j)) for i in range(n)], "<=", F(10)) for j in range(n)]
    cost = [draw(st.one_of(st.just(F(0)), _coefficients)) for _ in range(n)]
    return cost, rows


def _assert_fractions(result):
    status, value, xs, slack_reduced = result
    assert status in ("optimal", "infeasible", "unbounded")
    for x in [value, *xs, *(slack_reduced or [])]:
        assert type(x) is F


@settings(max_examples=300)
@given(standard_programs())
@example(([F(-3, 4), F(150), F(-1, 50), F(6)], _BEALE_ROWS))
@example(([F(1)], [([F(1)], ">=", F(2)), ([F(1)], "<=", F(1))]))  # infeasible
@example(([F(-1)], [([F(1)], ">=", F(0))]))  # unbounded
@example(([F(1), F(1)], [([F(1), F(1)], "==", F(-4)), ([F(-3, 2), F(-3, 2)], "==", F(6))]))
def test_integer_tableau_matches_fraction_tableau(program):
    cost, rows = program
    got = simplex._solve_min_standard_ex(cost, rows)
    assert got == oracles.reference_solve_min_standard_ex(cost, rows)
    _assert_fractions(got)


@settings(max_examples=40)
@given(
    st.permutations(range(4)),
    st.lists(st.builds(F, st.integers(1, 10**9), st.integers(1, 10**9)), min_size=4, max_size=4),
)
def test_integer_tableau_matches_on_beale_family(order, scales):
    # Row scales and a cost scale leave the pivots unchanged, so the Bland
    # switch is taken; some column orders take it too, others do not stall.
    rows = [
        ([k * vec[j] for j in order], rel, k * rhs)
        for k, (vec, rel, rhs) in zip(scales, _BEALE_ROWS)
    ]
    cost = [scales[3] * _BEALE_COST[j] for j in order]
    got = simplex._solve_min_standard_ex(cost, rows)
    assert got == oracles.reference_solve_min_standard_ex(cost, rows)
    assert got[0] == "optimal" and got[1] == scales[3] * F(-5, 4)
    _assert_fractions(got)


def test_beale_program_takes_the_bland_switch(monkeypatch):
    pivots = []
    original = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: (pivots.append(1), original(*args)))
    assert simplex._solve_min_standard_ex(_BEALE_COST, _BEALE_ROWS)[1] == F(-5, 4)
    assert len(pivots) > simplex._STALL_LIMIT


def _standard_form(program):
    index = {v: i for i, v in enumerate(program.variables)}
    rows = []
    for con in program.constraints:
        vec = [F(0)] * len(index)
        for v, c in con.coeffs.items():
            vec[index[v]] = c
        rows.append((vec, con.rel, con.rhs))
    cost = [F(0)] * len(index)
    for v, c in program.objective.items():
        cost[index[v]] = c
    return cost, rows


def _assert_solve_lp_matches_reference(program):
    got = solve_lp(program)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_solve_min_standard_ex", oracles.reference_solve_min_standard_ex)
        want = solve_lp(program)
    assert (got.status, got.optimum, got.assignment) == (
        want.status,
        want.optimum,
        want.assignment,
    )
    assert all(type(x) is F for x in got.assignment.values())
    return got


@settings(max_examples=60)
@given(st.data())
def test_solve_lp_dual_route_matches_reference(data):
    # More rows than max(2n, n + 16) and a nonnegative objective: solve_lp
    # takes the dual route, whose slack reduced costs give the assignment.
    # Most programs are built around a point they admit, so most are optimal.
    n = data.draw(st.integers(1, 4))
    variables = [f"x{i}" for i in range(n)]
    point = {v: data.draw(st.builds(F, st.integers(0, 20), st.integers(1, 5))) for v in variables}
    around_point = data.draw(st.integers(0, 3)) > 0
    rows = []
    for _ in range(data.draw(st.integers(n + 17, n + 24))):
        coeffs = {
            v: data.draw(_coefficients)
            for v in data.draw(st.lists(st.sampled_from(variables), min_size=1, unique=True))
        }
        rel = data.draw(st.sampled_from(["<=", ">="]))
        rhs = data.draw(_coefficients)
        if around_point:  # holds at the point, about half the rows tightly
            lhs = sum(c * point[v] for v, c in coeffs.items())
            gap = 0 if data.draw(st.booleans()) else abs(rhs)
            rhs = lhs + gap if rel == "<=" else lhs - gap
        rows.append((coeffs, rel, rhs))
    costs = st.builds(F, st.integers(0, 9), st.integers(1, 4))
    objective = {v: data.draw(costs) for v in variables}
    program = lp(variables, rows, objective)
    assert len(program.constraints) > max(2 * n, n + 16)
    _assert_solve_lp_matches_reference(program)


@pytest.mark.parametrize("side", [3, 4])
def test_grid_separation_lps_match_reference(side):
    graph, paths = gen_grid(side, 2)
    objective = {idx: F(1) for idx in GridLayout(side=side).last_row_and_column_edges(graph)}
    program = build_separation_lp(graph, paths, 2, F(1, 10**9), objective)
    cert = _assert_solve_lp_matches_reference(program)  # the dual route
    assert cert.optimum >= 2 ** (side - 1)
    cost, rows = _standard_form(program)
    direct = simplex._solve_min_standard_ex(cost, rows)
    assert direct == oracles.reference_solve_min_standard_ex(cost, rows)
    assert direct[1] == cert.optimum
    _assert_fractions(direct)
