"""Brute-force ground-truth engines.

These are the exhaustive oracles every constructive algorithm is checked
against: an exact EFR-k decision procedure, a Pareto-optimality scan over
all n^m allocations, and a Partition solver.  Everything here is
deterministic: subsets and assignments are enumerated in lexicographic
order so failing cases are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    Allocation,
    BudgetExceededError,
    EfrCertificate,
    Instance,
    validate_allocation,
)

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class EfrDecision:
    verdict: bool
    certificate: Optional[EfrCertificate] = None


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceededError("evaluation budget exhausted")


def _find_witness(inst, alloc, agent, realloc, budget):
    """Lexicographically-least envy-free-for-`agent` placement of `realloc`.

    Items the agent weakly likes always go to the agent itself and the
    agent's chores never do -- both moves are dominant, so this restricted
    search is a sound and complete replacement for scanning all n^|R|
    placements.  Returns a {item: agent} mapping or None.
    """
    n = inst.num_agents
    row = inst.scaled[agent]
    base = [
        sum(row[t] for t in alloc.bundles[j] if t not in realloc)
        for j in range(n)
    ]
    goods = [t for t in realloc if row[t] >= 0]
    chores = sorted((t for t in realloc if row[t] < 0), key=lambda t: row[t])
    own = base[agent] + sum(row[t] for t in goods)
    others = [j for j in range(n) if j != agent]
    if not others:
        return {t: agent for t in realloc}
    loads = base[:]

    placement = {}

    def feasible_suffix(idx: int) -> bool:
        # every overloaded bundle must be fixable by the remaining chores
        slack_needed = sum(
            loads[j] - own for j in others if loads[j] > own
        )
        available = -sum(row[t] for t in chores[idx:])
        return slack_needed <= available

    def dfs(idx: int) -> bool:
        budget.spend()
        if idx == len(chores):
            return all(loads[j] <= own for j in others)
        if not feasible_suffix(idx):
            return False
        t = chores[idx]
        for j in others:
            loads[j] += row[t]
            placement[t] = j
            if dfs(idx + 1):
                return True
            loads[j] -= row[t]
            del placement[t]
        return False

    if not dfs(0):
        return None
    result = {t: agent for t in goods}
    result.update(placement)
    return result


def decide_efr_k(
    inst: Instance,
    alloc: Allocation,
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> EfrDecision:
    """Exhaustively decide whether `alloc` is EFR-k.

    Scans candidate reallocation sets R by increasing size, then
    lexicographically; the first R for which every agent admits an
    envy-free witness (reassigning items of R only) is returned inside the
    decision's certificate.  `budget` counts witness-search nodes; a
    `_Budget` instead of a number is spent in place, so `min_efr_k` shares
    one across all k.
    """
    validate_allocation(inst, alloc)
    if k < 0 or k > inst.num_items:
        raise ValueError(f"k={k} outside [0, m={inst.num_items}]")
    tracker = budget if isinstance(budget, _Budget) else _Budget(budget)
    n = inst.num_agents
    for size in range(k + 1):
        for realloc in itertools.combinations(range(inst.num_items), size):
            rset = frozenset(realloc)
            witnesses = []
            for i in range(n):
                moves = _find_witness(inst, alloc, i, rset, tracker)
                if moves is None:
                    break
                witnesses.append(alloc.reassign(moves))
            else:
                cert = EfrCertificate(alloc, rset, tuple(witnesses))
                return EfrDecision(True, cert)
    return EfrDecision(False, None)


def min_efr_k(
    inst: Instance, alloc: Allocation, budget: int = DEFAULT_BUDGET
):
    """Smallest k for which `alloc` is EFR-k, with its certificate.

    k = m always suffices (each agent may reassign every item), so this
    terminates within the budget, which all k share, or raises
    BudgetExceededError.
    """
    tracker = _Budget(budget)
    for k in range(inst.num_items + 1):
        decision = decide_efr_k(inst, alloc, k, budget=tracker)
        if decision.verdict:
            return k, decision.certificate
    raise AssertionError("EFR-m must hold for any allocation")


def is_pareto_optimal_bruteforce(
    inst: Instance, alloc: Allocation, budget: int = DEFAULT_BUDGET
) -> bool:
    """True iff no allocation among all n^m Pareto dominates `alloc`."""
    validate_allocation(inst, alloc)
    n, m = inst.num_agents, inst.num_items
    if n**m > budget:
        raise BudgetExceededError(f"{n}^{m} allocations exceed budget {budget}")
    # each agent's utility is only compared with its own, so the per-agent
    # integer scale keeps both tests exact
    values = inst.scaled
    current = [sum(values[i][t] for t in alloc.bundles[i]) for i in range(n)]
    for assignment in itertools.product(range(n), repeat=m):
        profile = [0] * n
        for t, a in enumerate(assignment):
            profile[a] += values[a][t]
        if all(profile[i] >= current[i] for i in range(n)) and any(
            profile[i] > current[i] for i in range(n)
        ):
            return False
    return True


def solve_partition(values: Sequence[int]):
    """Indices of a subset summing to half the total, or None.

    Subsets are scanned by increasing size, then lexicographically, so the
    answer is deterministic.  An odd total short-circuits to None.
    """
    if not values:
        raise ValueError("values must be nonempty")
    if any(v <= 0 for v in values):
        raise ValueError("values must be positive integers")
    total = sum(values)
    if total % 2:
        return None
    half = total // 2
    for size in range(1, len(values) + 1):
        for combo in itertools.combinations(range(len(values)), size):
            if sum(values[i] for i in combo) == half:
                return combo
    return None
