"""The ratio closure in `welfare.po_certificate_lp` against Fourier-Motzkin.

`po_certificate_lp` reduces the weight system { (w_j+eta) vbar_j(t) <=
(w_i+eta) vbar_i(t) for each t, i in demand[t], j != i;  w >= 0,
sum(w) = 1 } to an n x n matrix of ratio bounds on x = w + eta, which
`solve_leq_system` closes.  The references below are earlier
implementations: the integer row builder that fed the simplex (each row of
the system times the LCM of its denominators, `lp_rows`), and
Fourier-Motzkin elimination over `Fraction`s, which decides {c . x <= d,
x >= 0}.  Before each elimination it drops every row that another row
implies for x >= 0, such as a looser bound on the same agent pair; without
that, a few infeasible n = 4 systems of 60-80 rows took seconds each.  A returned point
must satisfy every reference row exactly, be >= 0 and sum to 1, which
proves the system feasible; a None must be confirmed by one row that no
point of the simplex satisfies, or by Fourier-Motzkin.  Every LP call of
the fixed-n sweep, hypothesis demand maps with planted sign conflicts and
2- and 3-cycles, and random bound matrices are checked.  The sum test
of `solve_leq_system`, which cross-multiplies integers, is checked against
its `Fraction` form, at the eta where it holds with equality among
others.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair import fixed_n
from mannafair.core import Instance
from mannafair.fixed_n import search_efr_po
from mannafair.harness import gen_random
from mannafair.welfare import (
    PerturbedInstance,
    compute_params,
    perturb_nondegenerate,
    po_certificate_lp,
    solve_leq_system,
)

from test_fixed_n import SWEEP


def lp_rows(pert, demand):
    """The integer rows (d, *c), c . w <= d, of the weight system: the sum
    as two rows, then each (t, i in demand[t], j != i) row times M =
    den(eta) q_i q_j, divided by the gcd of M and its entries."""
    n = pert.base.num_agents
    en, ed = pert.params.eta.numerator, pert.params.eta.denominator
    rows = [[1] * (n + 1), [-1] * (n + 1)]
    for t, col in enumerate(zip(*pert.pert_values)):
        pq = [(v.numerator, v.denominator) for v in col]
        for i in demand[t]:
            pi, qi = pq[i]
            for j, (pj, qj) in enumerate(pq):
                if j != i:
                    a, b = pj * qi, pi * qj
                    row = [0] * (n + 1)
                    row[0], row[1 + j], row[1 + i] = en * (b - a), ed * a, -ed * b
                    g = gcd(ed * qi * qj, *row)
                    rows.append([x // g for x in row])
    return rows


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


def ref_implied_dropped(constraints, nvars):
    """`constraints` less each row that another row implies for x >= 0.

    Rows are normalized, first nonzero coefficient +-1; a row B implies A
    when both lead with the same coefficient and B's others are at least
    A's and d_B <= d_A, since then c_A . x <= c_B . x <= d_B <= d_A for
    x >= 0.  The rows -x_v <= 0 stay, so every implication stays backed
    by the rows kept; rows that imply each other are equal, and
    `ref_dedupe` has merged them already."""
    nonneg = {tuple(F(-int(k == v)) for k in range(nvars)) for v in range(nvars)}
    groups = {}
    for coeffs, rhs in constraints:
        lead = next((v, c) for v, c in enumerate(coeffs) if c) if any(coeffs) else None
        groups.setdefault(lead, []).append((coeffs, rhs))
    kept = []
    for lead, rows in groups.items():
        for coeffs, rhs in rows:
            implied = lead is not None and tuple(coeffs) not in nonneg and any(
                (bc, br) != (coeffs, rhs)
                and br <= rhs
                and all(b >= a for b, a in zip(bc, coeffs))
                for bc, br in rows
            )
            if not implied:
                kept.append((coeffs, rhs))
    return kept


def ref_is_feasible(constraints, nvars):
    """Fourier-Motzkin: whether some x >= 0 satisfies every c . x <= d.
    The rows -x_v <= 0 are added; each step drops the rows another row
    implies for x >= 0, then eliminates the variable with the fewest
    lower-upper pairs."""
    nonneg = [([F(-int(k == v)) for k in range(nvars)], F(0)) for v in range(nvars)]
    current = ref_dedupe(constraints + nonneg)
    left = set(range(nvars))
    while left:
        current = ref_implied_dropped(current, nvars)
        signs = {v: [0, 0] for v in left}
        for coeffs, _ in current:
            for v in left:
                if coeffs[v]:
                    signs[v][coeffs[v] > 0] += 1
        var = min(left, key=lambda v: (signs[v][0] * signs[v][1], v))
        left.remove(var)
        lowers, uppers, merged = [], [], []
        for coeffs, rhs in current:
            c = coeffs[var]
            if c > 0:
                uppers.append(([x / c for x in coeffs], rhs / c))
            elif c < 0:
                lowers.append(([x / -c for x in coeffs], rhs / -c))
            else:
                merged.append((coeffs, rhs))
        for lc, lr in lowers:
            for uc, ur in uppers:
                coeffs = [a + b for a, b in zip(lc, uc)]
                coeffs[var] = F(0)
                merged.append((coeffs, lr + ur))
        current = ref_dedupe(merged)
    return all(rhs >= 0 for _, rhs in current)


def check_rows(rows, nvars, point):
    """`point` is None, or a point of the simplex satisfying every integer
    row (d, *c) exactly; a None is confirmed exactly."""
    if point is not None:
        assert len(point) == nvars and all(x >= 0 for x in point)
        assert sum(point) == 1
        for d, *coeffs in rows:
            assert sum(c * x for c, x in zip(coeffs, point)) <= d, (d, coeffs)
        return
    # a row that no vertex of the simplex satisfies refutes the system
    if any(min(coeffs) > d for d, *coeffs in rows):
        return
    constraints = [(list(map(F, coeffs)), F(d)) for d, *coeffs in rows]
    assert not ref_is_feasible(constraints, nvars), rows


def check_against_reference(pert, demand, w):
    """`w`, `po_certificate_lp`'s answer, against the reference rows."""
    n = pert.base.num_agents
    check_rows(lp_rows(pert, demand), n, None if w is None else list(w.weights))


def lp_calls_of_search(inst):
    calls = []

    def recording(pert, demand):
        w = po_certificate_lp(pert, demand)
        calls.append((pert, dict(demand), w))
        return w

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixed_n, "po_certificate_lp", recording)
        search_efr_po(inst)
    return calls


@pytest.mark.parametrize("n,m", SWEEP)
def test_every_search_lp_call_matches_fourier_motzkin(n, m):
    calls = []
    for chore_prob in (F(0), F(1, 2), F(1)):
        for seed in range(10):
            calls += lp_calls_of_search(gen_random(n, m, 9, chore_prob, seed))
    assert calls
    for pert, demand, w in calls:
        check_against_reference(pert, demand, w)


# --- hypothesis demand maps with planted structure ---------------------------


def built(values, exact):
    """`values` perturbed, or with zero eps so that ratios can tie."""
    inst = Instance(tuple(map(tuple, values)))
    if not exact:
        return perturb_nondegenerate(inst)
    zeros = [[F(0)] * len(row) for row in values]
    return PerturbedInstance(inst, zeros, compute_params(inst))


@st.composite
def planted_maps(draw):
    """(kind, pert, demand) at n = 1-5.  "sign": a demander of some item
    values it as a chore and another agent as a good.  "2-cycle" and
    "3-cycle": agents each demanding one item that the next agent on the
    cycle values with the same sign, so their bounds close a cycle whose
    product the drawn values decide.  "free": no planted structure."""
    n = draw(st.integers(1, 5))
    kinds = ["free"] + ["sign", "2-cycle"] * (n >= 2) + ["3-cycle"] * (n >= 3)
    kind = draw(st.sampled_from(kinds))
    need = {"free": 1, "sign": 1, "2-cycle": 2, "3-cycle": 3}[kind]
    m = draw(st.integers(need, max(need, 4 if n < 5 else 3)))
    value = st.integers(-3, 3)
    values = [[draw(value) for _ in range(m)] for _ in range(n)]
    demanders = st.sets(st.integers(0, n - 1), min_size=1, max_size=2)
    demand = [set(draw(demanders)) for _ in range(m)]
    if kind == "sign":
        t = draw(st.integers(0, m - 1))
        i, j = draw(st.permutations(range(n)))[:2]
        values[i][t] = -draw(st.integers(1, 3))
        values[j][t] = draw(st.integers(1, 3))
        demand[t].add(i)
    elif kind != "free":
        k = need
        agents = draw(st.permutations(range(n)))[:k]
        items = draw(st.permutations(range(m)))[:k]
        for a, b, t in zip(agents, agents[1:] + agents[:1], items):
            sign = draw(st.sampled_from([1, -1]))
            values[a][t] = sign * draw(st.integers(1, 3))
            values[b][t] = sign * draw(st.integers(1, 3))
            demand[t] = {a}
    pert = built(values, draw(st.booleans()))
    return kind, pert, [tuple(sorted(d)) for d in demand]


@settings(max_examples=300, deadline=None)
@given(planted_maps())
def test_planted_demand_maps_match_fourier_motzkin(case):
    kind, pert, demand = case
    w = po_certificate_lp(pert, demand)
    if kind == "sign":
        assert w is None
    check_against_reference(pert, demand, w)


def test_planted_cycles_decide_both_ways():
    # agent 0 demands item 0 and agent 1 item 1, all goods: x_1 <= (v_0(0)
    # / v_1(0)) x_0 and x_0 <= (v_1(1) / v_0(1)) x_1, a 2-cycle of product
    # v_0(0) v_1(1) / (v_1(0) v_0(1)); zero eps keeps the ratios exact
    for values, feasible in (
        ([[1, 3], [3, 1]], False),  # product 1/9
        ([[2, 1], [2, 1]], True),  # product 1: the pair ties on both items
        ([[3, 1], [1, 3]], True),  # product 9
    ):
        pert = built(values, True)
        w = po_certificate_lp(pert, [(0,), (1,)])
        assert (w is not None) == feasible
        check_against_reference(pert, [(0,), (1,)], w)
    # chores: each agent's cheapest chore on its own is feasible; shifted
    # by one, agent 1 demands item 0 (x_1 <= x_0 / 2), agent 2 item 1 (x_2
    # <= x_1 / 2) and agent 0 item 2 (x_0 <= x_2 / 2), a 3-cycle of 1/8
    values = [[-1, -9, -2], [-2, -1, -9], [-9, -2, -1]]
    pert = built(values, True)
    assert po_certificate_lp(pert, [(0,), (1,), (2,)]) is not None
    assert po_certificate_lp(pert, [(1,), (2,), (0,)]) is None
    check_against_reference(pert, [(1,), (2,), (0,)], None)


# --- `solve_leq_system` on bound matrices -------------------------------------


def bound_rows(bounds, eta):
    """The rows (d, *c) of x_b <= (p / q) x_a for x = w + eta, times q:
    q w_b - p w_a <= (p - q) eta; with the sum as two rows."""
    n = len(bounds)
    rows = [[F(1)] * (n + 1), [F(-1)] * (n + 1)]
    for a, row in enumerate(bounds):
        for b, pq in enumerate(row):
            if pq is not None and a != b:
                p, q = pq
                new = [(p - q) * eta] + [F(0)] * n
                new[1 + b] += q
                new[1 + a] -= p
                rows.append(new)
    return rows


def bound_matrices(entries):
    def matrix(n):
        bound = st.one_of(st.none(), entries)
        return st.lists(
            st.lists(bound, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda rows: [[None if a == b else pq for b, pq in enumerate(row)]
                            for a, row in enumerate(rows)])

    etas = st.fractions(F(1, 50), F(1, 2)).filter(lambda e: e > 0)
    return st.tuples(st.integers(1, 4).flatmap(matrix), etas)


@settings(max_examples=300, deadline=None)
@given(bound_matrices(st.tuples(st.integers(1, 6), st.just(1))))
def test_integer_systems_match_fourier_motzkin(system):
    bounds, eta = system
    check_rows(bound_rows(bounds, eta), len(bounds), solve_leq_system(bounds, eta))


@settings(max_examples=300, deadline=None)
@given(bound_matrices(st.tuples(st.integers(1, 12), st.integers(1, 12))))
def test_rational_systems_match_fourier_motzkin(system):
    bounds, eta = system
    check_rows(bound_rows(bounds, eta), len(bounds), solve_leq_system(bounds, eta))


def test_negative_bound_on_a_nonnegative_variable_is_infeasible():
    # x_0 <= x_1 / 10 with x >= eta = 1/4 puts x_1 >= 10/4, so w_1 >= 9/4
    # and w_0 = 1 - w_1 < 0; with eta = 1/40 the least point (1/40, 1/4)
    # fits the simplex, and scaled by 42/11 to sum 1 + 2 eta it is the point;
    # at eta = 1/9 the least point sums to exactly 1 + 2 eta: w = (0, 1)
    bounds = [[None, None], [(1, 10), None]]
    assert solve_leq_system(bounds, F(1, 4)) is None
    assert solve_leq_system(bounds, F(1, 40)) == [F(31, 440), F(409, 440)]
    assert solve_leq_system(bounds, F(1, 9)) == [0, 1]


# --- the integer sum test against its `Fraction` form -------------------------


def ref_least_point(bounds):
    """x* / eta by a `Fraction` closure: L_b = max_a 1 / P[b][a], or None
    when a closed walk multiplies to less than 1."""
    n = len(bounds)
    P = [[F(1) if a == b else ab and F(*ab) for b, ab in enumerate(row)]
         for a, row in enumerate(bounds)]
    for k in range(n):
        for a in range(n):
            for b in range(n):
                if P[a][k] is not None and P[k][b] is not None:
                    via = P[a][k] * P[k][b]
                    if P[a][b] is None or via < P[a][b]:
                        P[a][b] = via
    if any(P[a][a] < 1 for a in range(n)):
        return None
    return [max(1 / p for p in row if p is not None) for row in P]


def ref_solve_leq_system(bounds, eta):
    """The sum test eta sum(x*) <= 1 + n eta and the scaled point, in
    `Fraction`s."""
    least = ref_least_point(bounds)
    if least is None:
        return None
    n, total = len(bounds), sum(least)
    if eta * total > 1 + n * eta:
        return None
    return [(1 + n * eta) / total * x - eta for x in least]


def tight_eta(bounds):
    """The eta at which eta sum(x*) == 1 + n eta, if one exists."""
    least = ref_least_point(bounds)
    if least is not None and sum(least) > len(bounds):
        return 1 / (sum(least) - len(bounds))
    return None


@settings(max_examples=300, deadline=None)
@given(
    bound_matrices(st.tuples(st.integers(1, 12), st.integers(1, 12))),
    st.fractions(F(1, 1000), F(3, 2)).filter(lambda e: e > 0 and e.numerator > 1),
)
def test_sum_test_matches_its_fraction_form(system, other_eta):
    bounds, eta = system
    etas = [eta, other_eta]
    tight = tight_eta(bounds)
    if tight is not None:
        # the equality case is feasible; a hair above it is not
        assert solve_leq_system(bounds, tight) is not None
        assert solve_leq_system(bounds, tight * F(1001, 1000)) is None
        etas += [tight, tight * F(999, 1000), tight * F(1001, 1000)]
    for e in etas:
        assert solve_leq_system(bounds, e) == ref_solve_leq_system(bounds, e)


def test_sum_test_at_equality_with_a_numerator_above_one():
    # x_1 >= (7/2) x_0: the least point is eta (1, 7/2), which sums to 1 + 2
    # eta exactly at eta = 2/5, where w = (0, 1); just above, it sums to more
    bounds = [[None, None], [(2, 7), None]]
    assert tight_eta(bounds) == F(2, 5)
    assert solve_leq_system(bounds, F(2, 5)) == [0, 1]
    assert solve_leq_system(bounds, F(2, 5) + F(1, 10**9)) is None
    assert solve_leq_system(bounds, F(3, 10)) == ref_solve_leq_system(bounds, F(3, 10))
