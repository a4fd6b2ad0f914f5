"""Perturbation machinery and weighted-welfare maximization.

Instances, scaled to integer values, are perturbed by small per-entry
rational subtractions chosen deterministically so that the perturbed
values are non-degenerate: no entry is zero and no agent-item cycle has
an alternating value-ratio product of one.  Welfare maximization then uses
eta-shifted weights.  A demand map (the agents each item may go to) is
certified by an exact linear program: a weight vector under which each
item's demanders tie and beat every other agent makes every placement
among the demanders Pareto optimal, the weighted-welfare (fPO)
certificate of Barman, Krishnamurthy and Vaish (EC 2018).  The LP has
one variable per agent and is decided by an exact simplex over integer
rows with fraction-free pivots.

Cycles are walked depth-first over integer rows: each row is scaled by
the LCM of its denominators (every agent of a cycle heads one numerator
and one denominator edge, so the ratio product is unchanged), a path
carries its running numerator and denominator, and a closing edge is one
comparison of two integer products.  Cycles sharing a prefix share its
multiplications, and no `Fraction` is built per step.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    Allocation,
    Budget,
    FrozenRecord,
    Instance,
    rational_rows,
    scale_row,
)

CYCLE_BUDGET = 10**7


class PerturbParams(FrozenRecord):
    """Perturbation bounds for an integer-valued instance."""

    _fields = ("lambda_lb", "Lambda", "omega_lb", "eta", "epsilon")

    def __init__(
        self,
        lambda_lb: Fraction,
        Lambda: Fraction,
        omega_lb: Fraction,
        eta: Fraction,
        epsilon: Fraction,
    ):
        if eta <= 0:
            raise ValueError("eta must be positive")
        if eta * 2 * Lambda > lambda_lb:
            raise ValueError(
                f"eta * 2 * Lambda = {eta * 2 * Lambda} exceeds "
                f"lambda_lb = {lambda_lb}"
            )
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "lambda_lb", lambda_lb)
        object.__setattr__(self, "Lambda", Lambda)
        object.__setattr__(self, "omega_lb", omega_lb)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "epsilon", epsilon)

    def _key(self) -> tuple:
        return (self.lambda_lb, self.Lambda, self.omega_lb, self.eta, self.epsilon)


class WeightVector(FrozenRecord):
    """A point of the standard simplex with exact rational entries."""

    _fields = ("weights",)

    def __init__(self, weights):
        (ws,) = rational_rows((weights,))
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        if sum(ws) != 1:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "weights", ws)

    def _key(self) -> tuple:
        return (self.weights,)

    @property
    def n(self) -> int:
        return len(self.weights)

    def support(self):
        return [i for i, w in enumerate(self.weights) if w > 0]


class PerturbedInstance(FrozenRecord):
    """An instance plus its perturbation matrix and parameters.

    The perturbed values `_pert` are derived, so they stay out of `==`,
    `hash` and `repr`.
    """

    # eps_matrix: tuple[tuple[Fraction, ...], ...]
    _fields = ("base", "eps_matrix", "params")

    def __init__(self, base: Instance, eps_matrix, params: PerturbParams):
        eps = rational_rows(eps_matrix)
        if len(eps) != base.num_agents or any(
            len(row) != base.num_items for row in eps
        ):
            raise ValueError("eps matrix shape mismatch")
        pert = tuple(
            tuple(base.values[i][t] - eps[i][t] for t in range(base.num_items))
            for i in range(base.num_agents)
        )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "eps_matrix", eps)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_pert", pert)

    def _key(self) -> tuple:
        return (self.base, self.eps_matrix, self.params)

    @property
    def pert_values(self) -> tuple:
        return self._pert

    def pert_value(self, agent: int, item: int) -> Fraction:
        return self._pert[agent][item]

    def pert_bundle_value(self, agent: int, bundle) -> Fraction:
        row = self._pert[agent]
        return sum((row[t] for t in bundle), Fraction(0))


class TieGraph(FrozenRecord):
    """Bipartite agent/tie-item graph of the demand structure."""

    # edges: frozenset[tuple[int, int]] of (agent, item)
    _fields = ("num_agents", "tie_items", "edges")

    def __init__(self, num_agents: int, tie_items: tuple, edges: frozenset):
        object.__setattr__(self, "num_agents", num_agents)
        object.__setattr__(self, "tie_items", tie_items)
        object.__setattr__(self, "edges", edges)

    def _key(self) -> tuple:
        return (self.num_agents, self.tie_items, self.edges)

    def is_acyclic(self) -> bool:
        parent: Dict[object, object] = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (i, t) in sorted(self.edges):
            ra, rt = find(("a", i)), find(("t", t))
            if ra == rt:
                return False
            parent[ra] = rt
        return True


def compute_params(inst: Instance) -> PerturbParams:
    """Perturbation parameters for an integer-valued instance.

    Integrality gives lower bounds of 1 on both the minimum envy gap and
    the minimum welfare gap; the maximum envy is computed exactly per
    agent as the value spread between its goods and its chores.
    """
    n, m = inst.num_agents, inst.num_items
    for row in inst.values:
        for v in row:
            if v.denominator != 1:
                raise ValueError("compute_params requires integer values")
    lambda_lb = Fraction(1)
    omega_lb = Fraction(1)
    spread = max(
        (sum((abs(v) for v in row), Fraction(0)) for row in inst.values),
    )
    Lambda = spread if spread > 0 else Fraction(1)
    eta = lambda_lb / (2 * Lambda * n)
    epsilon = eta / (8 * n * max(m, 1)) * min(lambda_lb, omega_lb, Fraction(1))
    return PerturbParams(lambda_lb, Lambda, omega_lb, eta, epsilon)


def _spend_cycles(n: int, m: int) -> None:
    """Spend the (directed, agent-anchored) bipartite cycle traversals of an
    n x m matrix from a fresh `CYCLE_BUDGET`, before any is walked."""
    total = 0
    for k in range(2, min(n, m) + 1):
        total += comb(n, k) * factorial(k - 1) * comb(m, k) * factorial(k)
    Budget(CYCLE_BUDGET, "agent-item cycle traversals").spend(total)


def _unit_cycle(rows, top, a, num, den, free, items) -> bool:
    """Whether a path from row `top`'s agent to agent `a`, with ratio product
    num/den, closes into a product-one cycle, alone or through `free` agents.
    """
    for i, v in enumerate(rows[a]):
        if items >> i & 1:
            continue
        d = den * v
        if num * top[i] == d:
            return True
        for b in range(len(rows) if free else 0):
            if free >> b & 1 and _unit_cycle(
                rows, top, b, num * rows[b][i], d, free ^ 1 << b, items | 1 << i
            ):
                return True
    return False


def check_nondegenerate(values) -> bool:
    """Decide the two non-degeneracy conditions by exhaustive enumeration.

    ``values`` is an n x m matrix of rationals.  Condition (i): no zero
    entry.  Condition (ii): every simple cycle of the complete agent-item
    bipartite graph has alternating value-ratio product != 1.  Cycles are
    walked from their lowest agent, once the zero test has passed and the
    cycle count fits `CYCLE_BUDGET`.
    """
    vals = rational_rows(values)
    if any(v == 0 for row in vals for v in row):
        return False
    n, m = len(vals), len(vals[0]) if vals else 0
    _spend_cycles(n, m)
    rows = [scale_row(row)[1] for row in vals]
    for first, top in enumerate(rows):
        above = (1 << n) - (2 << first)
        for i in range(m):
            for b in range(first + 1, n):
                if _unit_cycle(
                    rows, top, b, rows[b][i], top[i], above ^ 1 << b, 1 << i
                ):
                    return False
    return True


def _forbid(walk, a, num, den, free, items) -> None:
    """Add the eps values that the cycles extending this path rule out.

    The path runs from (agent, item) through set rows to agent `a`, with
    ratio product num/den; it closes on a set item of `agent`, one before
    `item`, and may still visit the agents in `free`.
    """
    rows, top, item, vs_num, v_den, vs_den, forbidden = walk
    for i, p in enumerate(rows[a] if free else rows[a][:item]):
        if items >> i & 1 or not p:  # a zero denominator solves nothing
            continue
        d = den * p
        if i < item:  # x = num * top[i] / (d * scale); eps = v - x
            e_num, e_den = vs_num * d - num * top[i] * v_den, vs_den * d
            if e_den < 0:
                e_num, e_den = -e_num, -e_den
            g = gcd(e_num, e_den)
            forbidden.add((e_num // g, e_den // g))
        for b in range(len(rows) if free else 0):
            if free >> b & 1:
                _forbid(walk, b, num * rows[b][i], d, free ^ 1 << b, items | 1 << i)


def _forbidden_eps(inst, rows, pert_row, agent, item):
    """Perturbation values for (agent, item) ruled out by already-set cycles.

    Entries are set in row-major order, so a closable cycle through the
    edge (agent, item) runs through rows before `agent` and returns on an
    item before `item`.  `rows` holds those earlier perturbed rows, each
    scaled to integers by `scale_row`; `pert_row` is agent's perturbed row,
    set before `item`.  Each cycle solves the product-one equation for the
    unknown perturbed value; values are (numerator, denominator) pairs in
    lowest terms.
    """
    v = inst.values[agent][item]
    forbidden = {(v.numerator, v.denominator)}  # eps = v would zero the entry
    if agent and item:
        scale, top = scale_row(pert_row[:item])
        v_num, v_den = v.numerator, v.denominator
        walk = (rows, top, item, v_num * scale, v_den, v_den * scale, forbidden)
        for b in range(agent):
            _forbid(walk, b, rows[b][item], 1, (1 << agent) - 1 ^ 1 << b, 1 << item)
    return forbidden


def perturb_nondegenerate(inst: Instance) -> PerturbedInstance:
    """Deterministically choose perturbations yielding non-degenerate values.

    Rational values are first scaled to integers by the LCM of all their
    denominators, which preserves EF, EFR and PO; the result's base is that
    scaled instance.  Entries are set in row-major order; each
    already-closable cycle forbids one rational value, and the perturbation
    is picked from a uniform grid in (0, epsilon) with more points than
    forbidden values.  The cycle budget of `check_nondegenerate` applies,
    and `search_efr_po` inherits it (at n = 3 it is reached at m = 172).
    """
    n, m = inst.num_agents, inst.num_items
    _spend_cycles(n, m)
    scale = lcm(*(v.denominator for row in inst.values for v in row))
    if scale > 1:
        inst = Instance(tuple(tuple(v * scale for v in row) for row in inst.values))
    params = compute_params(inst)
    eps_matrix = [[None] * m for _ in range(n)]
    rows = []  # the finished perturbed rows, scaled to integers
    for i in range(n):
        pert = [None] * m
        for t in range(m):
            forbidden = _forbidden_eps(inst, rows, pert, i, t)
            grid = len(forbidden) + 2
            for k in range(1, grid):  # grid - 1 points, so one is admissible
                chosen = params.epsilon * k / grid
                if (chosen.numerator, chosen.denominator) not in forbidden:
                    break
            del forbidden  # else it lives on while the next entry's set grows
            eps_matrix[i][t] = chosen
            pert[t] = inst.values[i][t] - chosen
        rows.append(scale_row(pert)[1])
    return PerturbedInstance(
        inst, tuple(tuple(row) for row in eps_matrix), params
    )


def demand_sets(pert: PerturbedInstance, w: WeightVector):
    """Per-item demand sets, tie set, and tie graph under shifted weights.

    D(t) is the set of agents maximizing (w_i + eta) * vbar_i(t); the tie
    set collects items with at least two demanders.
    """
    n, m = pert.base.num_agents, pert.base.num_items
    if w.n != n:
        raise ValueError("weight vector length mismatch")
    eta = pert.params.eta
    demand: Dict[int, Tuple[int, ...]] = {}
    ties = []
    for t in range(m):
        scores = [(w.weights[i] + eta) * pert.pert_value(i, t) for i in range(n)]
        best = max(scores)
        d = tuple(i for i in range(n) if scores[i] == best)
        demand[t] = d
        if len(d) >= 2:
            ties.append(t)
    edges = frozenset(
        (i, t) for t in ties for i in demand[t]
    )
    return demand, tuple(ties), TieGraph(n, tuple(ties), edges)


def max_weighted_welfare(pert: PerturbedInstance, w: WeightVector) -> Allocation:
    """Allocation maximizing shifted weighted welfare under perturbed values.

    Additivity makes the per-item argmax optimal; ties go to the lowest
    agent index.
    """
    demand, _, _ = demand_sets(pert, w)
    bundles = [set() for _ in range(pert.base.num_agents)]
    for t in range(pert.base.num_items):
        bundles[min(demand[t])].add(t)
    return Allocation(tuple(frozenset(b) for b in bundles))


# --- exact linear feasibility (integer simplex) ------------------------------


def _pivot(rows, r, e, d):
    """Exchange row r's basic variable with column e's; return the new divisor.

    Every row reads d * basic = row[0] - sum(row[j] * nonbasic_j), the
    objective row included.  The fraction-free update divides by the old
    divisor exactly, and the new one is |row[r][e]|.
    """
    top = rows[r]
    p = top[e]
    s = 1 if p > 0 else -1
    for row in rows:
        if row is not top:
            f = row[e]
            row[:] = [s * (a * p - f * b) // d for a, b in zip(row, top)]
            row[e] = -s * f
    top[:] = [s * a for a in top]
    top[e] = s * d
    return abs(p)


def solve_leq_system(constraints, nvars: int) -> Optional[List[Fraction]]:
    """A point x >= 0 with c . x <= d for every (c, d) in `constraints`, or None.

    Chvatal's auxiliary problem (Linear Programming, 1983): maximize -x0
    subject to c . x - x0 <= d and x, x0 >= 0.  Each row is scaled to
    integers and x0 keeps coefficient -1 in every row, so entering x0 on a
    row of least right-hand side gives a feasible dictionary.  Bland's rule
    (lowest-numbered entering and leaving variables) rules out cycling;
    the system is feasible once the objective reaches 0.
    """
    rows = [
        list(scale_row([rhs, *coeffs])[1]) + [-1] for coeffs, rhs in constraints
    ]
    point = [Fraction(0)] * nvars
    r = min(range(len(rows)), key=lambda i: rows[i][0], default=None)
    if r is None or rows[r][0] >= 0:
        return point
    # variables: x_k is k, x0 is nvars, row i's slack is nvars + 1 + i
    cols = list(range(nvars + 1))  # column j + 1 holds variable cols[j]
    basis = [nvars + 1 + i for i in range(len(rows))]
    objective = [0] * (nvars + 1) + [1]  # d * w = 0 - x0, in the rows' form
    d, e = 1, nvars + 1
    while True:
        d = _pivot(rows + [objective], r, e, d)
        basis[r], cols[e - 1] = cols[e - 1], basis[r]
        if objective[0] == 0:
            break
        entering = [j for j in range(1, nvars + 2) if objective[j] < 0]
        if not entering:
            return None
        e = min(entering, key=lambda j: cols[j - 1])
        r = min(
            (i for i, row in enumerate(rows) if row[e] > 0),
            key=lambda i: (Fraction(rows[i][0], rows[i][e]), basis[i]),
        )
    for var, row in zip(basis, rows):
        if var < nvars:
            point[var] = Fraction(row[0], d)
    return point


def po_certificate_lp(
    pert: PerturbedInstance, demand: Sequence[Sequence[int]]
) -> Optional[WeightVector]:
    """Weight vector under which every item goes to one of its demanders.

    `demand[t]` lists the agents that item t may go to, for every item t
    in range(m): one agent for an item it holds alone, at least two for a
    reallocated item.  Feasibility of the system { (w_j+eta) vbar_j(t) <=
    (w_i+eta) vbar_i(t) for each t, i in demand[t], j != i;  w in the
    simplex } is decided exactly, with the weights as the LP variables
    (w >= 0, and sum(w) = 1 as two rows).  Two demanders of one item get
    both rows, so they tie.  A feasible w makes every placement of the
    items among their demanders maximize eta-shifted weighted welfare
    under the perturbed values, hence Pareto optimal under the original
    values.
    """
    n, m = pert.base.num_agents, pert.base.num_items
    if len(demand) != m:
        raise ValueError("demand map must cover every item")
    eta = pert.params.eta
    constraints = [([1] * n, 1), ([-1] * n, -1)]
    for t in range(m):
        if not demand[t] or not set(demand[t]) <= set(range(n)):
            raise ValueError(f"item {t} needs demanders among the agents")
        col = [pert.pert_value(a, t) for a in range(n)]
        for i in demand[t]:
            for j in range(n):
                if j != i:
                    # (w_j+eta) vbar_j(t) <= (w_i+eta) vbar_i(t)
                    coeffs = [0] * n
                    coeffs[j], coeffs[i] = col[j], -col[i]
                    constraints.append((coeffs, eta * (col[i] - col[j])))
    point = solve_leq_system(constraints, n)
    return None if point is None else WeightVector(tuple(point))
