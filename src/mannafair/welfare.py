"""Perturbation machinery and weighted-welfare maximization.

Instances, scaled to integer values, are perturbed by small per-entry
rational subtractions chosen deterministically so that the perturbed
values are non-degenerate: no entry is zero and no agent-item cycle has
an alternating value-ratio product of one.  Welfare maximization then uses
eta-shifted weights.  A demand map (the agents each item may go to) is
certified by exact weights: a weight vector under which each item's
demanders tie and beat every other agent makes every placement among the
demanders Pareto optimal, the weighted-welfare (fPO) certificate of
Barman, Krishnamurthy and Vaish (EC 2018).

The weight system is decided in closed form over the agents.  On x = w +
eta > 0 each row (w_j+eta) vbar_j(t) <= (w_i+eta) vbar_i(t) compares two
agents on one item: it always holds when vbar_j(t) <= 0 <= vbar_i(t),
never when vbar_i(t) <= 0 <= vbar_j(t) (not both zero), and otherwise is
a ratio bound x_b <= B x_a.  A closed walk of bounds gives x_a <= (its
product) x_a, so a product below one is infeasible.  With none, x_b >=
x_a / P[b][a] >= eta for P the least path products, and the least point
x*_b = eta max_a 1 / P[b][a] meets every bound; every solution is above
it, so the system is feasible exactly when sum(x*) <= 1 + n eta, and
then x* scaled up to that sum still meets the homogeneous bounds and w =
x - eta >= 0 sums to 1.  This is the cycle characterisation of fPO
(Sandomirskiy and Segal-Halevi, *Efficient fair division with minimal
sharing*, Operations Research 2022).

The perturbation is non-degenerate by construction, in the spirit of
simulation of simplicity (Edelsbrunner and Muecke, ACM TOG 1990): entry
(i, t) takes eps = |v| / Q, or 1 / Q where v = 0, for its own prime Q
above M / epsilon, M the largest max(|v|, 1).  In any cycle the largest
prime divides one denominator and no other factor of the ratio product,
whose Q-adic valuation is then +-1, so the product is not one.  Each
prime is proven by a Proth certificate (`_proth_primes`); nothing is
walked.

`check_nondegenerate`, the independent check, reads the matrix alone and
walks the cycles depth-first over integer rows, each scaled by the LCM of
its denominators (every agent of a cycle heads one numerator and one
denominator edge, so the ratio product is unchanged).  A path carries its
ratio product modulo q, the first of 2^61 - 1 and the Proth primes above
2^61 that divides no entry, so every entry is invertible mod q.  A closing
index maps the residue of each closing ratio to its items, so closing a
path is one dict lookup.  Equal products have equal residues, so no cycle
is missed; a hit is confirmed by one exact comparison of integer
products, so a residue alone decides nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from math import comb, factorial, gcd, lcm, prod

from .core import (
    Allocation,
    Budget,
    FrozenRecord,
    Instance,
    rational_rows,
    scale_row,
)

CYCLE_BUDGET = 10**7
_SIEVE = prod(range(3, 128, 2))  # a multiple of every odd prime below 128
# (a, mask): bit r of mask is set when r is a quadratic non-residue mod a
_PROTH_BASES = (
    (3, 0b100),
    (5, 0b1100),
    (7, 0b1101000),
    (11, 0b10111000100),
    (13, 0b100111100100),
    (17, 0b101110011101000),
    (19, 0b1001111010100001100),
    (23, 0b11110101100110010100000),
)


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

    The perturbed values `_pert` and their integer rows `scaled` (as
    `Instance.scaled`, built on first use) are derived, so they stay out of
    `==`, `hash` and `repr`.
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
        self._fill(base, eps, params, pert)

    def _fill(self, *parts):
        """Set the fields and `_pert`, with no check."""
        vars(self).update(zip((*self._fields, "_pert"), parts))

    scaled = cached_property(lambda self: tuple(scale_row(r)[1] for r in self._pert))

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
    q = next(
        p
        for p in chain((2**61 - 1,), _proth_primes(1 << 61))
        if all(v % p for row in rows for v in row)
    )
    inv = [[pow(v, -1, q) for v in row] for row in rows]
    # step[a][b][i]: rows[b][i] / rows[a][i] mod q
    step = [[[v * w % q for v, w in zip(row, ia)] for row in rows] for ia in inv]

    def closes(a, r, num, den, free, items) -> bool:
        """Whether a path from `top`'s agent to agent a, with ratio product
        num/den (r mod q), extends through `free` agents into a product-one
        cycle.  A residue hit of the closing index is confirmed exactly."""
        agents = [b for b in range(n) if free >> b & 1]
        for i, v in enumerate(rows[a]):
            if not items >> i & 1:
                for b in agents:
                    s, used, rest = r * step[a][b][i] % q, items | 1 << i, free ^ 1 << b
                    hits = close[b].get(s, 0) & ~used
                    if hits or rest:
                        nb, db = num * rows[b][i], den * v
                        if hits and any(
                            hits >> t & 1 and nb * top[t] == db * rows[b][t]
                            for t in range(m)
                        ) or rest and closes(b, s, nb, db, rest, used):
                            return True
        return False

    for first, top in enumerate(rows):
        close = [{} for _ in rows]  # residue of rows[a][i] / top[i] -> items
        for a in range(first + 1, n):
            for i, r in enumerate(step[first][a]):
                close[a][r] = close[a].get(r, 0) | 1 << i
        if closes(first, 1, 1, 1, (1 << n) - (2 << first), 0):
            return False
    return True


def _proth_primes(lo: int):
    """Certified primes above `lo`, in increasing order, without end: the
    primes among N = k * 2^j + 1 (k odd, k < 2^j), j from ceil(b / 2) for b
    the bit length of lo, so that 4^j > lo.

    By Proth's theorem (1878) such an N is prime when a^((N-1)/2) = -1
    (mod N) for some a; that congruence, checked exactly, is each prime's
    certificate.  A candidate with an odd factor below 128 (one `gcd` with
    `_SIEVE`) is skipped.  Otherwise one base is tried: the first a of
    `_PROTH_BASES` with N mod a a non-residue mod a.  As N = 1 (mod 4) once
    lo >= 4 (then j >= 2), quadratic reciprocity makes a a non-residue mod
    N too, so if N is prime the congruence holds; if it fails N is
    composite.  A candidate with no such a (about 1 prime in 256) is
    skipped, never accepted.
    """
    j = (lo.bit_length() + 1) // 2
    while True:  # N for odd k from the least with N > lo, while k < 2^j
        for n in range(((lo - 1 >> j) + 1 | 1) << j | 1, 1 << 2 * j, 2 << j):
            if gcd(n, _SIEVE) == 1:
                for a, nonresidues in _PROTH_BASES:
                    if nonresidues >> n % a & 1:
                        if pow(a, n >> 1, n) == n - 1:
                            yield n
                        break
        lo, j = max(lo, (1 << 2 * j) - 1), j + 1  # k reached 2^j


def perturb_nondegenerate(inst: Instance) -> PerturbedInstance:
    """Deterministically choose perturbations yielding non-degenerate values.

    Rational values are first scaled to integers by the LCM of all their
    denominators, which preserves EF, EFR and PO; the result's base is that
    scaled instance.  With M = max(|v|, 1) over its values, the n * m
    entries take, in row-major order, the increasing primes Q > M /
    epsilon of `_proth_primes`, and eps = |v| / Q, or 1 / Q where v = 0.
    Every eps lies in (0, epsilon), and the perturbed value is v (Q - 1) /
    Q for v > 0, v (Q + 1) / Q for v < 0 and -1 / Q for v = 0, in lowest
    terms since |v| < Q: no entry is zero.  In a cycle, the largest prime Q
    divides the denominator of its own entry and no other factor of the
    ratio product: not |v| < Q, not Q' +- 1 < Q for a smaller (odd) prime
    Q', not Q +- 1.  So the product has Q-adic valuation +-1 and is never
    1.  Nothing is walked and no budget applies.  The integer rows
    `scaled` are built on first use, by the fixed-n search alone.
    """
    n, m = inst.num_agents, inst.num_items
    scale = lcm(*(v.denominator for row in inst.values for v in row))
    if scale > 1:
        inst = Instance(tuple(tuple(v * scale for v in row) for row in inst.values))
    params = compute_params(inst)
    epsilon = params.epsilon
    top = max((abs(v) for row in inst.scaled for v in row), default=1) or 1
    primes = _proth_primes(top * epsilon.denominator // epsilon.numerator)
    eps_rows, pert_rows = [], []
    for row in inst.scaled:
        qs = list(islice(primes, m))
        es = [abs(v) or 1 for v in row]  # eps numerators
        nums = [v * q - e for v, q, e in zip(row, qs, es)]  # (v - eps) * Q
        eps_rows.append(tuple(map(Fraction, es, qs)))
        pert_rows.append(tuple(map(Fraction, nums, qs)))
    out = object.__new__(PerturbedInstance)  # every part is checked and built
    out._fill(inst, tuple(eps_rows), params, tuple(pert_rows))
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


def max_weighted_welfare(pert: PerturbedInstance, w: WeightVector) -> Allocation:
    """Allocation maximizing shifted weighted welfare under perturbed values.

    Additivity makes the per-item argmax optimal; each item goes to its
    first (lowest-index) demander.
    """
    bundles = [set() for _ in range(pert.base.num_agents)]
    for t, agents in enumerate(demand_sets(pert, w)):
        bundles[agents[0]].add(t)
    return Allocation(tuple(frozenset(b) for b in bundles))


# --- the weight system as a ratio closure over the agents --------------------


def solve_leq_system(bounds, eta: Fraction) -> list[Fraction] | None:
    """A point w >= 0 with sum(w) = 1 and x_b <= B[a][b] x_a for x = w + eta,
    or None.

    `bounds[a][b]` is None (no bound) or a pair (p, q) of positive integers
    for B[a][b] = p / q; the diagonal is read as 1.  Floyd-Warshall in the
    (min, x) semiring, comparing pairs by cross-multiplying, closes B into
    the least path products P and stops at the first diagonal entry that
    would drop below 1; the least point is then scaled up to the simplex
    (see the module docstring).  O(n^3) integer products.
    """
    n = len(bounds)
    closed = [[(1, 1) if a == b else ab for b, ab in enumerate(row)]
              for a, row in enumerate(bounds)]
    for k, via in enumerate(closed):
        for a, row in enumerate(closed):
            if row[k] is not None:
                pk, qk = row[k]
                for b, kb in enumerate(via):
                    if kb is not None:
                        p, q, ab = pk * kb[0], qk * kb[1], row[b]
                        if ab is None or p * ab[1] < ab[0] * q:
                            if a == b:  # a closed walk with product below 1
                                return None
                            row[b] = (p, q)
    least = []  # x*_b / eta = 1 / min_a P[b][a]
    for row in closed:
        p, q = 1, 1
        for ab in row:
            if ab is not None and ab[0] * q < p * ab[1]:
                p, q = ab
        least.append(Fraction(q, p))
    total = sum(least)
    if eta * total > 1 + n * eta:
        return None
    scale = (1 + n * eta) / total
    return [scale * x - eta for x in least]


def po_certificate_lp(pert: PerturbedInstance, demand) -> WeightVector | None:
    """Weight vector under which every item goes to one of its demanders.

    `demand[t]` lists the agents item t may go to, for every t in range(m)
    (a `demand_sets` map, or any mapping with keys 0..m-1): one agent for
    an item held alone, at least two for a reallocated one; every item is
    checked before any verdict.  The system { (w_j+eta) vbar_j(t) <=
    (w_i+eta) vbar_i(t) for each t, i in demand[t], j != i;  w >= 0,
    sum(w) = 1 } is decided exactly; two demanders of one item bound each
    other both ways, so they tie.  A feasible w makes every placement of
    the items among their demanders maximize eta-shifted weighted welfare
    under the perturbed values, hence Pareto optimal under the original
    values.  Each row is dropped, refutes the system, or is the ratio bound
    x_j <= (vbar_i / vbar_j) x_i (goods) or x_i <= (vbar_j / vbar_i) x_j
    (chores), in integer pairs from the values' numerators and
    denominators; `solve_leq_system` reads the least bound per agent pair.
    """
    n, m = pert.base.num_agents, pert.base.num_items
    if len(demand) != m:
        raise ValueError("demand map must cover every item")
    agents = set(range(n))
    for t in range(m):
        if not demand[t] or not agents.issuperset(demand[t]):
            raise ValueError(f"item {t} needs demanders among the agents")
    bounds = [[None] * n for _ in range(n)]  # bounds[a][b]: x_b <= B x_a
    for t, col in enumerate(zip(*pert.pert_values)):
        pq = [(v.numerator, v.denominator) for v in col]
        for i in demand[t]:
            pi, qi = pq[i]
            for j, (pj, qj) in enumerate(pq):
                if j == i or pj <= 0 <= pi:  # the row always holds
                    continue
                if pi > 0 < pj:
                    a, b, p, q = i, j, pi * qj, qi * pj
                elif pi < 0 > pj:
                    a, b, p, q = j, i, -pj * qi, -qj * pi
                else:  # the row never holds
                    return None
                ab = bounds[a][b]
                if ab is None or p * ab[1] < ab[0] * q:
                    bounds[a][b] = (p, q)
    point = solve_leq_system(bounds, pert.params.eta)
    return None if point is None else WeightVector(tuple(point))
