"""The integer simplex in `welfare.solve_leq_system` against Fourier-Motzkin.

`solve_leq_system` runs Chvatal's auxiliary problem over integer rows with
Bland's rule and returns a point x >= 0 with every c . x <= d, or None.
The reference below is the earlier implementation, Fourier-Motzkin
elimination over `Fraction`s, which decides {c . x <= d} over all x; the
rows x_i >= 0 are added to its input so that both decide the same system.
The verdicts must agree on every LP call of the fixed-n sweep and on random
systems, and every returned point must satisfy every row exactly.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair import welfare
from mannafair.fixed_n import search_efr_po
from mannafair.harness import gen_random
from mannafair.welfare import solve_leq_system

from conftest import leq_rows
from test_fixed_n import SWEEP


def ref_normalize(coeffs, rhs):
    for c in coeffs:
        if c != 0:
            scale = abs(c)
            return tuple(x / scale for x in coeffs), rhs / scale
    return tuple(coeffs), rhs


def ref_dedupe(constraints):
    best = {}
    for coeffs, rhs in constraints:
        coeffs, rhs = ref_normalize(list(coeffs), rhs)
        if coeffs in best:
            if rhs < best[coeffs]:
                best[coeffs] = rhs
        else:
            best[coeffs] = rhs
    return [(list(c), r) for c, r in best.items()]


def ref_solve_leq_system(constraints, nvars):
    layers = []
    current = ref_dedupe(constraints)
    for var in range(nvars - 1, -1, -1):
        lowers, uppers, keep = [], [], []
        for coeffs, rhs in current:
            c = coeffs[var]
            if c > 0:
                uppers.append(([x / c for x in coeffs], rhs / c))
            elif c < 0:
                lowers.append(([x / -c for x in coeffs], rhs / -c))
            else:
                keep.append((coeffs, rhs))
        layers.append((var, lowers, uppers))
        merged = list(keep)
        for lc, lr in lowers:
            for uc, ur in uppers:
                coeffs = [lc[i] + uc[i] for i in range(nvars)]
                coeffs[var] = F(0)
                merged.append((coeffs, lr + ur))
        current = ref_dedupe(merged)
    for coeffs, rhs in current:
        if rhs < 0:
            return None
    point = [F(0)] * nvars
    for var, lowers, uppers in reversed(layers):
        lo, hi = None, None
        for coeffs, rhs in lowers:
            rest = sum(coeffs[i] * point[i] for i in range(nvars) if i != var)
            bound = rest - rhs
            lo = bound if lo is None or bound > lo else lo
        for coeffs, rhs in uppers:
            rest = sum(coeffs[i] * point[i] for i in range(nvars) if i != var)
            bound = rhs - rest
            hi = bound if hi is None or bound < hi else hi
        if lo is not None and hi is not None:
            point[var] = (lo + hi) / 2
        elif lo is not None:
            point[var] = lo
        elif hi is not None:
            point[var] = hi
        else:
            point[var] = F(0)
    return point


def check_against_reference(constraints, nvars, point):
    """`point` is exact and x >= 0, and None exactly when FM finds no point."""
    nonneg = [
        ([F(-int(k == i)) for k in range(nvars)], F(0)) for i in range(nvars)
    ]
    reference = ref_solve_leq_system(
        [(list(map(F, c)), F(d)) for c, d in constraints] + nonneg, nvars
    )
    assert (point is None) == (reference is None), constraints
    if point is not None:
        assert len(point) == nvars and all(x >= 0 for x in point)
        for coeffs, rhs in constraints:
            assert sum(c * x for c, x in zip(coeffs, point)) <= rhs


@pytest.mark.parametrize("n,m", SWEEP)
def test_every_search_lp_call_matches_fourier_motzkin(n, m, monkeypatch):
    calls = []

    def recording(rows, nvars):
        point = solve_leq_system(rows, nvars)
        calls.append(([(row[1:], row[0]) for row in rows], nvars, point))
        return point

    monkeypatch.setattr(welfare, "solve_leq_system", recording)
    for chore_prob in (F(0), F(1, 2), F(1)):
        for seed in range(10):
            search_efr_po(gen_random(n, m, 9, chore_prob, seed))
    assert calls
    for constraints, nvars, point in calls:
        check_against_reference(constraints, nvars, point)


def systems(entries):
    return st.integers(1, 4).flatmap(
        lambda nvars: st.tuples(
            st.lists(
                st.tuples(st.lists(entries, min_size=nvars, max_size=nvars), entries),
                max_size=7,
            ),
            st.just(nvars),
        )
    )


@settings(max_examples=300, deadline=None)
@given(systems(st.integers(-6, 6)))
def test_integer_systems_match_fourier_motzkin(system):
    constraints, nvars = system
    point = solve_leq_system(leq_rows(constraints), nvars)
    check_against_reference(constraints, nvars, point)


@settings(max_examples=150, deadline=None)
@given(systems(st.fractions(-6, 6, max_denominator=12)))
def test_rational_systems_match_fourier_motzkin(system):
    constraints, nvars = system
    point = solve_leq_system(leq_rows(constraints), nvars)
    check_against_reference(constraints, nvars, point)


# Chvatal, Linear Programming (1983), chapter 3: maximize c . x subject to
# A x <= b, x >= 0.  From the slack basis every pivot of the largest-
# coefficient rule is degenerate, and the sixth returns to the start.
CYCLING_A = [
    [F(1, 2), F(-11, 2), F(-5, 2), 9],
    [F(1, 2), F(-3, 2), F(-1, 2), 1],
    [1, 0, 0, 0],
]
CYCLING_B = [0, 0, 1]
CYCLING_C = [10, -57, -9, -24]


def largest_coefficient_bases(a, b, c, pivots):
    """Bases visited by the textbook dictionary simplex without Bland's rule.

    Enters the variable of largest objective coefficient and leaves, among
    the rows of least ratio, the lowest-numbered basic variable; variables
    0..n-1 are x and n.. the slacks.
    """
    n = len(c)
    rows = {n + i: (F(bi), {j: F(-v) for j, v in enumerate(ai)})
            for i, (ai, bi) in enumerate(zip(a, b))}
    obj = {j: F(v) for j, v in enumerate(c)}
    bases = [sorted(rows)]
    for _ in range(pivots):
        enter = max(obj, key=lambda j: (obj[j], -j))
        leave = min(
            (k for k in rows if rows[k][1].get(enter, 0) < 0),
            key=lambda k: (rows[k][0] / -rows[k][1][enter], k),
        )
        const, expr = rows.pop(leave)
        scale = -expr.pop(enter)
        solved = {j: v / scale for j, v in expr.items()}
        solved[leave] = F(-1) / scale
        for k, (ck, ek) in list(rows.items()):
            f = ek.pop(enter, F(0))
            for j, v in solved.items():
                ek[j] = ek.get(j, F(0)) + f * v
            rows[k] = (ck + f * const / scale, ek)
        rows[enter] = (const / scale, solved)
        f = obj.pop(enter)
        for j, v in solved.items():
            obj[j] = obj.get(j, F(0)) + f * v
        bases.append(sorted(rows))
    return bases


def test_textbook_cycling_example_terminates(monkeypatch):
    bases = largest_coefficient_bases(CYCLING_A, CYCLING_B, CYCLING_C, 6)
    assert bases[6] == bases[0] and len(set(map(tuple, bases[:6]))) == 6
    # as a feasibility system: c . x >= 1, then each row of A less c . x,
    # all doubled to integers.  The rows tie at the auxiliary problem's
    # first pivot, whose dictionary is the example's plus one column (the
    # first row's slack); every later pivot but the last is degenerate
    system = [([-2 * v for v in CYCLING_C], -2)] + [
        ([2 * (u - v) for u, v in zip(row, CYCLING_C)], 2 * (rhs - 1))
        for row, rhs in zip(CYCLING_A, CYCLING_B)
    ]
    objectives = []
    pivot = welfare._pivot

    def recording(rows, r, e, d):
        d = pivot(rows, r, e, d)
        objectives.append(F(rows[-1][0], d))
        return d

    monkeypatch.setattr(welfare, "_pivot", recording)
    point = solve_leq_system(leq_rows(system), 4)
    check_against_reference(system, 4, point)
    assert point is not None and objectives[-1] == 0
    assert objectives[1:-1] == [objectives[0]] * (len(objectives) - 2)
    assert len(objectives) >= 4  # a run of degenerate pivots


def test_negative_bound_on_a_nonnegative_variable_is_infeasible():
    assert solve_leq_system(leq_rows([([1], -1)]), 1) is None
