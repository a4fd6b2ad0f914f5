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
one variable per agent; its rows are built from the perturbed instance's
per-agent integer rows and decided by an exact simplex with fraction-free
pivots, with no `Fraction` until the returned point.

Cycles are walked depth-first over integer rows: each row is scaled by
the LCM of its denominators (every agent of a cycle heads one numerator
and one denominator edge, so the ratio product is unchanged), a path
carries its running numerator and denominator, and a closing edge is one
comparison of two integer products.  Cycles sharing a prefix share its
multiplications, and no `Fraction` is built per step.

The perturbation first screens each entry's forbidden values by their
residues mod the prime `_P` = 2^61 - 1 (residue fingerprints, after Karp
and Rabin, 1987): a path carries one residue, extended and closed by one
modular product each.  Equal values have equal residues, so distinct
residues prove the values distinct and their count exact, and a grid
point whose residue misses them is allowed.  An entry the screen cannot
settle runs the exact walk, so the result never depends on `_P`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .core import (
    Allocation,
    Budget,
    FrozenRecord,
    Instance,
    rational_rows,
    scale_row,
)

CYCLE_BUDGET = 10**7
_P = 2**61 - 1  # a Mersenne prime; the perturbation screens by residues mod _P


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
        fields = lambda_lb, Lambda, omega_lb, eta, epsilon
        vars(self).update(zip(self._fields, fields))


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

    @property
    def n(self) -> int:
        return len(self.weights)

    def support(self):
        return [i for i, w in enumerate(self.weights) if w > 0]


class PerturbedInstance(FrozenRecord):
    """An instance plus its perturbation matrix and parameters.

    The perturbed values `_pert`, their integer rows `scaled` (as
    `Instance.scaled`) and those rows' LCMs `_scales` are derived, so they
    stay out of `==`, `hash` and `repr`.
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
            tuple(v - e for v, e in zip(vals, row))
            for vals, row in zip(base.values, eps)
        )
        self._fill(base, eps, params, pert, *zip(*map(scale_row, pert)))

    def _fill(self, *parts):
        """Set the fields, `_pert`, `_scales` and `scaled`, with no check."""
        vars(self).update(zip((*self._fields, "_pert", "_scales", "scaled"), parts))

    @property
    def pert_values(self) -> tuple:
        return self._pert

    def pert_value(self, agent: int, item: int) -> Fraction:
        return self._pert[agent][item]

    def pert_bundle_value(self, agent: int, bundle) -> Fraction:
        row = self._pert[agent]
        return sum((row[t] for t in bundle), Fraction(0))


def compute_params(inst: Instance) -> PerturbParams:
    """Perturbation parameters for an integer-valued instance.

    Integrality gives lower bounds of 1 on both the minimum envy gap and
    the minimum welfare gap; the maximum envy is computed exactly per
    agent as the value spread between its goods and its chores.
    """
    n, m = inst.num_agents, inst.num_items
    if any(v.denominator != 1 for row in inst.values for v in row):
        raise ValueError("compute_params requires integer values")
    lambda_lb = omega_lb = Fraction(1)
    Lambda = Fraction(max(sum(map(abs, row)) for row in inst.scaled) or 1)
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

    ``values`` is an n x m matrix of rationals; a ragged one raises
    ValueError.  Condition (i): no zero entry.  Condition (ii): every
    simple cycle of the complete agent-item bipartite graph has
    alternating value-ratio product != 1.  Cycles are walked from their
    lowest agent, once the zero test has passed and the cycle count fits
    `CYCLE_BUDGET`.
    """
    vals = rational_rows(values)
    n, m = len(vals), len(vals[0]) if vals else 0
    if any(len(row) != m for row in vals):
        raise ValueError("valuation matrix is ragged")
    if any(v == 0 for row in vals for v in row):
        return False
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


def _residue(num: int, den: int):
    """num/den mod `_P`, or None when `_P` divides den."""
    den %= _P
    return num * pow(den, -1, _P) % _P if den else None


def _inverses(xs) -> list:
    """The inverses mod `_P` of nonzero residues, with one `pow` (Montgomery's
    batch inversion)."""
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % _P)
    inv = pow(prefix[-1], -1, _P)
    out = [0] * len(xs)
    for j in range(len(xs) - 1, -1, -1):
        out[j] = inv * prefix[j] % _P
        inv = inv * xs[j] % _P
    return out


def _forbid_residues(step, close, a, r, free, items, lo, xs) -> None:
    """Append to `xs` the residues of the values that cycles extending this
    path solve for, as `_forbid` walks them.

    The path has residue r at agent `a`.  `items` lists its unused items,
    the `lo` items before the entry's item first; it closes on one of
    those and may still visit the `free` agents through any unused item.
    The leaves, paths with no free agent left, are one list comprehension
    per parent.
    """
    row = close[a]
    xs += [r * row[i] % _P for i in items[:lo]]
    for b in free:
        st = step[a][b]
        rest = [c for c in free if c != b]
        if rest:
            for j, i in enumerate(items):
                rest_items = items[:j] + items[j + 1 :]
                _forbid_residues(
                    step, close, b, r * st[i] % _P, rest, rest_items, lo - (j < lo), xs
                )
            continue
        row = close[b]
        cs = [row[i] for i in items[:lo]]
        leaves = [s * c % _P for s in [r * st[i] % _P for i in items] for c in cs]
        del leaves[: lo * lo : lo + 1]  # b cannot close on the item it was reached by
        xs += leaves


def _residue_screen(res, step, close, agent, item, v, eps_r):
    """(grid size, residue of v - epsilon / grid) when residues settle the
    entry (agent, item) at its first grid point, else None.

    `xs` holds the residue of every value x the entry must avoid: 0, and
    each closing's solution (eps = v - x is then forbidden).  Pairwise
    distinct residues make the values distinct, so the grid counts them
    exactly, and a grid point whose residue misses them all is allowed.
    """
    xs = [0]
    if agent and item:
        items = [i for i in range(len(res[0])) if i != item]
        for b in range(agent):
            free = [a for a in range(agent) if a != b]
            _forbid_residues(step, close, b, res[b][item], free, items, item, xs)
    grid = len(xs) + 2
    x = _residue(v * grid - eps_r, grid)
    seen = set(xs)
    if x is not None and len(seen) == len(xs) and x not in seen:
        return grid, x
    return None


def perturb_nondegenerate(inst: Instance) -> PerturbedInstance:
    """Deterministically choose perturbations yielding non-degenerate values.

    Rational values are first scaled to integers by the LCM of all their
    denominators, which preserves EF, EFR and PO; the result's base is that
    scaled instance.  Entries are set in row-major order; each
    already-closable cycle forbids one rational value, and the perturbation
    is picked from a uniform grid in (0, epsilon) with more points than
    forbidden values.  The cycle budget of `check_nondegenerate` applies,
    and `search_efr_po` inherits it (at n = 3 it is reached at m = 172).
    Each entry is screened by residues first (`_residue_screen`); one the
    screen does not settle runs the exact `_forbidden_eps` and grid loop,
    and once a residue is undefined or zero every later entry does.
    """
    n, m = inst.num_agents, inst.num_items
    _spend_cycles(n, m)
    scale = lcm(*(v.denominator for row in inst.values for v in row))
    if scale > 1:
        inst = Instance(tuple(tuple(v * scale for v in row) for row in inst.values))
    params = compute_params(inst)
    epsilon = params.epsilon
    eps_r = _residue(epsilon.numerator, epsilon.denominator)
    eps_rows, pert_rows, scaled = [], [], []  # the finished rows, `scale_row` pairs
    res, inv = [], []  # their residues and the residues' inverses
    step = [[None] * n for _ in range(n)]  # step[a][b][t] = r(pert_b[t] / pert_a[t])
    for i in range(n):
        eps, pert, cur = [None] * m, [None] * m, []
        close = [[] for _ in range(i)]  # close[a][t] = r(pert_i[t] / pert_a[t])
        for t in range(m):
            v = inst.values[i][t]
            hit = eps_r and _residue_screen(res, step, close, i, t, v.numerator, eps_r)
            if hit:
                grid, x = hit
                chosen = epsilon / grid
            else:
                rows = [row for _, row in scaled]
                forbidden = _forbidden_eps(inst, rows, pert, i, t)
                grid = len(forbidden) + 2
                for k in range(1, grid):  # grid - 1 points, so one is admissible
                    chosen = epsilon * k / grid
                    if (chosen.numerator, chosen.denominator) not in forbidden:
                        break
                del forbidden  # else it lives on while the next entry's set grows
            eps[t] = chosen
            pert[t] = v - chosen
            if eps_r:
                if not hit:
                    x = _residue(pert[t].numerator, pert[t].denominator)
                if not x:  # no inverse: the exact walk from here on
                    eps_r = None
                    continue
                cur.append(x)
                for a in range(i):
                    close[a].append(inv[a][t] * x % _P)
        eps_rows.append(tuple(eps))
        pert_rows.append(tuple(pert))
        scaled.append(scale_row(pert))
        if eps_r:
            cur_inv = _inverses(cur)
            for a in range(i):
                step[a][i] = [p * q % _P for p, q in zip(inv[a], cur)]
                step[i][a] = [p * q % _P for p, q in zip(cur_inv, res[a])]
            res.append(cur)
            inv.append(cur_inv)
    out = object.__new__(PerturbedInstance)  # every part is checked and built
    out._fill(inst, tuple(eps_rows), params, tuple(pert_rows), *zip(*scaled))
    return out


def demand_sets(pert: PerturbedInstance, w: WeightVector) -> tuple:
    """The demand map under shifted weights, the shape `po_certificate_lp`
    reads: entry t lists, in increasing order, the agents maximizing
    (w_i + eta) * vbar_i(t).  An item with two or more demanders is tied.
    """
    if w.n != pert.base.num_agents:
        raise ValueError("weight vector length mismatch")
    shifted = [wi + pert.params.eta for wi in w.weights]
    demand = []
    for col in zip(*pert.pert_values):
        scores = [s * v for s, v in zip(shifted, col)]
        best = max(scores)
        demand.append(tuple(i for i, s in enumerate(scores) if s == best))
    return tuple(demand)


def tie_graph_is_forest(demand) -> bool:
    """Whether the bipartite graph joining each tied item of a demand map to
    its demanders has no cycle.

    Union-find over the agents: a tied item closes a cycle exactly when two
    of its demanders are already connected, and otherwise joins them all.
    A forest on n agents has at most n-1 tied items.
    """
    parent: dict[int, int] = {}

    def find(i):
        while parent.setdefault(i, i) != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for agents in demand:
        if len(agents) > 1:
            roots = {find(i) for i in agents}
            if len(roots) < len(agents):
                return False
            first = roots.pop()
            for r in roots:
                parent[r] = first
    return True


def max_weighted_welfare(pert: PerturbedInstance, w: WeightVector) -> Allocation:
    """Allocation maximizing shifted weighted welfare under perturbed values.

    Additivity makes the per-item argmax optimal; each item goes to its
    first (lowest-index) demander.
    """
    bundles = [set() for _ in range(pert.base.num_agents)]
    for t, agents in enumerate(demand_sets(pert, w)):
        bundles[agents[0]].add(t)
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


def solve_leq_system(rows, nvars: int) -> list[Fraction] | None:
    """A point x >= 0 with c . x <= d for every integer row (d, *c), or None.

    Chvatal's auxiliary problem (Linear Programming, 1983): maximize -x0
    subject to c . x - x0 <= d and x, x0 >= 0.  x0 keeps coefficient -1 in
    every row, so entering x0 on a row of least right-hand side gives a
    feasible dictionary.  Bland's rule (lowest-numbered entering and
    leaving variables, ratios compared by cross-multiplying) rules out
    cycling; the system is feasible once the objective reaches 0.
    """
    rows = [[*row, -1] for row in rows]
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
        r = None  # least rows[i][0] / rows[i][e] over rows[i][e] > 0, then basis
        for i, row in enumerate(rows):
            if row[e] > 0 and (
                r is None
                or (row[0] * rows[r][e], basis[i]) < (rows[r][0] * row[e], basis[r])
            ):
                r = i
    for var, row in zip(basis, rows):
        if var < nvars:
            point[var] = Fraction(row[0], d)
    return point


def po_certificate_lp(pert: PerturbedInstance, demand) -> WeightVector | None:
    """Weight vector under which every item goes to one of its demanders.

    `demand[t]` lists the agents item t may go to, for every t in range(m)
    (a `demand_sets` map, or any mapping with keys 0..m-1): one agent for
    an item held alone, at least two for a reallocated one.  The system
    { (w_j+eta) vbar_j(t) <= (w_i+eta) vbar_i(t) for each t, i in
    demand[t], j != i;  w >= 0, sum(w) = 1 as two rows } is decided
    exactly; two demanders of one item get both rows, so they tie.  A
    feasible w makes every placement of the items among their demanders
    maximize eta-shifted weighted welfare under the perturbed values, hence
    Pareto optimal under the original values.  With vbar_a(t) =
    `scaled[a][t]` / s_a, a row times M = den(eta) s_i s_j is integral;
    divided by the gcd of M and its entries, it is the row times the LCM of
    its denominators.
    """
    n, m = pert.base.num_agents, pert.base.num_items
    if len(demand) != m:
        raise ValueError("demand map must cover every item")
    en, ed = pert.params.eta.numerator, pert.params.eta.denominator
    values, scales = pert.scaled, pert._scales
    rows = [[1] * (n + 1), [-1] * (n + 1)]
    for t in range(m):
        if not demand[t] or not set(demand[t]) <= set(range(n)):
            raise ValueError(f"item {t} needs demanders among the agents")
        for i in demand[t]:
            vi, si = values[i][t], scales[i]
            for j in range(n):
                if j != i:
                    # (w_j+eta) vbar_j(t) <= (w_i+eta) vbar_i(t), times M
                    a, b = values[j][t] * si, vi * scales[j]
                    row = [0] * (n + 1)
                    row[0], row[1 + j], row[1 + i] = en * (b - a), ed * a, -ed * b
                    g = gcd(ed * si * scales[j], *row)
                    rows.append([x // g for x in row])
    point = solve_leq_system(rows, n)
    return None if point is None else WeightVector(tuple(point))
