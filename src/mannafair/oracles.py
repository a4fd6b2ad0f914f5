"""Brute-force ground-truth engines.

These are the exhaustive oracles every constructive algorithm is checked
against: an exact EFR-k decision procedure, a Pareto-optimality search over
all n^m allocations, and a Partition solver.  Everything here is
deterministic: subsets and assignments are enumerated in lexicographic
order so failing cases are reproducible.

The Pareto search is a depth-first branch and bound over items 0..m-1.
Each agent carries a slack, the most it can still end above its current
utility; a branch is cut once some slack is negative or none is positive.
Both cuts drop only branches with no Pareto improvement below them, so the
verdict is that of the full scan, and a welfare maximizer's search is
mostly cut near the root.  An allocation that already maximizes the sum
of the scaled utilities is answered before the search: a Pareto
improvement would raise that sum.  The budget is one unit per search node.

The EFR-k decision has two passes.  The verdict pass scans the candidate
sets R and asks, for each agent, a question that no longer names the
agent: can the agent's chores in R, by their costs, close every positive
gap between another bundle's value and the agent's own?  That is bin
covering (Assmann, Johnson, Kleitman and Leung, 1984), keyed by the two
descending tuples of chore costs and gaps, and each distinct key is
answered once per call.  The witness pass runs only on the first R that
every agent passes: `_find_witness` builds each agent's lexicographically
least placement, first fit in the order of the frozenset R, so
certificates do not depend on the verdict pass.  Both passes ask the one
placement search, `_place`; the verdict pass drops its positions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    Allocation,
    Budget,
    EfrCertificate,
    Instance,
    profile,
    validate_allocation,
)

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class EfrDecision:
    verdict: bool
    certificate: Optional[EfrCertificate] = None


def _place(costs, suffix, gaps, over, idx, picks, budget) -> bool:
    """Whether chores idx.. fit into the other bundles, first fit in order.

    `costs` are the chores' positive costs in placement order and
    `suffix[idx]` the sum of costs[idx:]; `gaps[p]` is the p-th other
    bundle's value minus the agent's own and `over` the sum of the positive
    gaps.  A node is cut when the open gaps outnumber the chores left or
    outsum their costs.  Once no gap is open, every chore left goes first
    fit to position 0.  A child is skipped when its gap value was already
    tried at the node, all closed gaps counting as one value: equal gaps
    lead to subproblems that are permutations of each other, and a closed
    gap stays closed, so the first fit is still the lexicographically
    least placement.  `picks` starts all 0; on success `picks[idx]` holds
    the chosen position of each chore.
    """
    budget.spend()
    if over > suffix[idx] or sum(g > 0 for g in gaps) > len(costs) - idx:
        return False
    if not over:  # the chores left go first fit, all to position 0
        return True
    c = costs[idx]
    tried = set()
    for p, g in enumerate(gaps):
        key = max(g, 0)  # closed gaps stay closed, so all are alike
        if key in tried:
            continue
        tried.add(key)
        gaps[p] = g - c
        if _place(
            costs, suffix, gaps, over - min(g, c) if g > 0 else over,
            idx + 1, picks, budget,
        ):
            picks[idx] = p
            return True
        gaps[p] = g
    return False


def _fit(costs, gaps, budget):
    """The first-fit positions in `gaps` of the chores `costs`, or None.

    The one entry to `_place` for both passes: it builds the suffix sums
    and the overload, and `gaps` is left as the placement leaves it.
    """
    suffix = list(itertools.accumulate(reversed(costs), initial=0))[::-1]
    picks = [0] * len(costs)
    over = sum(g for g in gaps if g > 0)
    return picks if _place(costs, suffix, gaps, over, 0, picks, budget) else None


def _find_witness(row, prof_row, owner, agent, others, realloc, budget):
    """Lexicographically-least envy-free-for-`agent` placement of `realloc`.

    Items the agent weakly likes always go to the agent itself and the
    agent's chores never do -- both moves are dominant, so this restricted
    search is a sound and complete replacement for scanning all n^|R|
    placements.

    `row` is the agent's scaled row, `prof_row` its row of the profile
    v(A_j) and `owner[t]` the holder of item t, both built once per
    decision; the bundle values without R are `prof_row` less the R items,
    O(n + |R|).  Chores are placed costliest first, ties in the iteration
    order of the frozenset `realloc`, by `_place`, which carries the total
    overload from node to node.  Returns the {item: agent} moves or None;
    the caller turns moves into a witness allocation only once every agent
    has them.
    """
    loads = list(prof_row)
    for t in realloc:
        loads[owner[t]] -= row[t]
    goods = [t for t in realloc if row[t] >= 0]
    chores = sorted((t for t in realloc if row[t] < 0), key=row.__getitem__)
    if not others:
        return {t: agent for t in realloc}
    own = loads[agent] + sum(row[t] for t in goods)
    gaps = [loads[j] - own for j in others]
    picks = _fit([-row[t] for t in chores], gaps, budget)
    if picks is None:
        return None
    result = {t: agent for t in goods}
    result.update((t, others[p]) for t, p in zip(chores, picks))
    return result


def _passes(row, prof_row, owner, agent, realloc, memo, budget) -> bool:
    """Whether `agent` has an envy-free placement of `realloc`.

    Goods go to the agent and chores to the others, as in `_find_witness`;
    what is left is whether the chore costs cover the positive gaps.  The
    answer depends on the two multisets alone, so `memo` keeps it per
    (costs, gaps) key for the whole scan and `_fit` runs once per key, on
    the positive gaps alone: a chore never needs a bundle without a gap.
    Keys settled by counting or summing are not stored.
    """
    loads = list(prof_row)
    costs = []
    gain = 0
    for t in realloc:
        v = row[t]
        loads[owner[t]] -= v
        if v < 0:
            costs.append(-v)
        else:
            gain += v
    own = loads[agent] + gain
    gaps = [load - own for load in loads if load > own]
    if not gaps:
        return True
    if len(gaps) > len(costs) or sum(gaps) > sum(costs):
        return False
    costs.sort(reverse=True)
    gaps.sort(reverse=True)
    key = (tuple(costs), tuple(gaps))
    found = memo.get(key)
    if found is None:
        found = memo[key] = _fit(costs, gaps, budget) is not None
    return found


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
    decision's certificate.  The verdict pass asks `_passes` for each R and
    agent; only the accepted R goes to `_find_witness`, whose placements
    are those a scan of every R with `_find_witness` would return.

    `budget` counts one unit per R scanned and one per `_place` node, in
    either pass (the verdict pass searches distinct (costs, gaps) keys
    only).  The R unit keeps the scan bounded when every check is a
    repeated key.
    """
    validate_allocation(inst, alloc)
    if k < 0 or k > inst.num_items:
        raise ValueError(f"k={k} outside [0, m={inst.num_items}]")
    tracker = Budget(budget, "EFR-k witness-search R sets and DFS nodes")
    n = inst.num_agents
    owner = [0] * inst.num_items
    for j, bundle in enumerate(alloc.bundles):
        for t in bundle:
            owner[t] = j
    rows, prof = inst.scaled, profile(inst, alloc)
    memo = {}
    for size in range(k + 1):
        for realloc in itertools.combinations(range(inst.num_items), size):
            tracker.spend()
            for i in range(n):
                if not _passes(rows[i], prof[i], owner, i, realloc, memo, tracker):
                    break
            else:
                rset = frozenset(realloc)  # its iteration order breaks chore ties
                moves = [
                    _find_witness(
                        rows[i], prof[i], owner, i,
                        [j for j in range(n) if j != i], rset, tracker,
                    )
                    for i in range(n)
                ]
                witnesses = tuple(map(alloc.reassign, moves))
                return EfrDecision(True, EfrCertificate(alloc, rset, witnesses))
    return EfrDecision(False, None)


def min_efr_k(
    inst: Instance, alloc: Allocation, budget: int = DEFAULT_BUDGET
):
    """Smallest k for which `alloc` is EFR-k, with its certificate.

    One scan: `decide_efr_k` with k = m tries R by increasing size, so its
    first R has the least size k, and k = m always suffices (each agent may
    reassign every item).  `budget` is that scan's, in `decide_efr_k`'s
    units, the same spend as `decide_efr_k` at the returned k; running out
    raises BudgetExceededError.
    """
    decision = decide_efr_k(inst, alloc, inst.num_items, budget)
    if not decision.verdict:
        raise AssertionError("EFR-m must hold for any allocation")
    return len(decision.certificate.realloc_set), decision.certificate


def is_pareto_optimal_bruteforce(
    inst: Instance, alloc: Allocation, budget: int = DEFAULT_BUDGET
) -> bool:
    """True iff no allocation among all n^m Pareto dominates `alloc`.

    An exhaustive, pruned depth-first search: items 0..m-1 are given to
    agents in turn, agent 0 first.  Each agent's slack is its utility from
    the items given so far, plus its positive values of the items not yet
    given, minus its utility in `alloc`; it bounds from above how far the
    agent can still end above its current utility.  Giving item t to agent
    a changes a's slack by v_a(t) - max(v_a(t), 0) and every other agent's
    by -max(v_i(t), 0), so slacks only fall.  A branch is cut when a slack
    is negative (that agent cannot get back to its current utility) or none
    is positive (no agent can end strictly better off).  At a leaf the
    slacks are exactly the utilities less the current ones, so a leaf that
    is reached is a Pareto improvement.  The cuts only drop branches with no
    such leaf, so the verdict is that of the full scan.  Before the search,
    an allocation whose utilities sum to the largest sum any allocation
    reaches (each item's largest value) is answered at once: a Pareto
    improvement would raise that sum.  Every identical-row instance, where
    every allocation is Pareto optimal, is answered so.

    `budget` counts search nodes, one per partial allocation popped from
    the stack, so it bounds the work the search does rather than n^m; a
    search cut at the root spends nothing.  Utilities are the integer
    `inst.scaled` rows: each agent's utility is only compared with its own,
    so the per-agent scale keeps every test exact.
    """
    validate_allocation(inst, alloc)
    n, m = inst.num_agents, inst.num_items
    tracker = Budget(budget, "Pareto-scan allocation prefixes")
    rows = inst.scaled
    cols = list(zip(*rows))  # cols[t][i] is agent i's value of item t
    own = [sum(row[t] for t in b) for row, b in zip(rows, alloc.bundles)]
    if sum(map(max, cols)) == sum(own):
        return True  # a Pareto improvement would raise the utility sum
    slack = [sum(v for v in row if v > 0) - u for row, u in zip(rows, own)]
    # an explicit stack, so m is not bounded by the recursion limit
    stack = [(0, slack)] if max(slack) > 0 else []
    while stack:
        t, slack = stack.pop()
        tracker.spend()
        if t == m:
            return False
        col = cols[t]
        rest = [s - v if v > 0 else s for s, v in zip(slack, col)]
        # an agent whose slack is negative unless it takes t must take t,
        # so two such agents cut the node
        short = [i for i, s in enumerate(rest) if s < 0]
        if len(short) > 1:
            continue
        # only the taker's slack differs from `rest`, so a child is checked
        # in O(1): the taker's own slack, and whether another one is positive
        ahead = sum(s > 0 for s in rest)
        for a in short or range(n - 1, -1, -1):  # popped in agent order
            s = rest[a] + col[a]
            if s >= 0 and (s > 0 or ahead > (rest[a] > 0)):
                child = rest[:]
                child[a] = s
                stack.append((t + 1, child))
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
