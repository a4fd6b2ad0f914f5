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

The EFR-k decision is one scan of the candidate sets R.  For each R and
agent it asks a question that no longer names the agent: can the agent's
chores in R, by their costs, close every positive gap between another
bundle's value and the agent's own?  That is bin covering (Assmann,
Johnson, Kleitman and Leung, 1984), keyed by the two descending tuples of
chore costs and gaps.  The placement search `_place` answers each distinct
key once per call and keeps its positions, and the first R that every
agent passes turns them into witnesses: a witness is any envy-free
reassignment of R, so the search that gave the verdict also gives it.

The scan skips sets that relabel twin items.  Two items are twins when
their scaled columns are equal and they share a holder, or each is its
holder's only item and the two holders' scaled rows are equal.  Swapping
twins (and, in the second case, their holders) maps the instance and the
allocation to themselves, so every agent passes R exactly when every agent
passes the swapped set.  `_candidate_sets` yields only the sets that hold
the lowest-indexed items of each twin class; such a set comes first in its
class of relabelings, so the first R accepted, its witnesses and the
verdict are those of the scan over every set.
"""

from __future__ import annotations

import itertools

from .core import (
    DEFAULT_BUDGET,
    Allocation,
    Budget,
    EfrCertificate,
    FrozenRecord,
    Instance,
    profile,
    validate_allocation,
)


class EfrDecision(FrozenRecord):
    _fields = ("verdict", "certificate")

    def __init__(self, verdict: bool, certificate: EfrCertificate | None = None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "certificate", certificate)


def _place(costs, suffix, gaps, over, idx, picks, budget) -> bool:
    """Whether chores idx.. close every open gap, searched first fit.

    `costs` are the chores' positive costs, descending, and `suffix[idx]`
    the sum of costs[idx:]; `gaps[p]` is the p-th other bundle's value
    minus the agent's own, open while positive, and `over` the sum of the
    open gaps.  A node is cut when the open gaps outnumber the chores left
    or outsum their costs, and it succeeds once no gap is open.  A chore
    goes only onto an open gap, and onto one gap of each value at a node: a
    chore on a closed gap could move to an open one and keep every closed
    gap closed, and equal gaps lead to subproblems that are permutations
    of each other.  `picks` starts all 0; on success `picks[idx]` holds the
    position of each chore placed, and the chores left once every gap is
    closed keep position 0.
    """
    budget.spend()
    if over > suffix[idx] or sum(g > 0 for g in gaps) > len(costs) - idx:
        return False
    if not over:
        return True
    c = costs[idx]
    tried = set()
    for p, g in enumerate(gaps):
        if g <= 0 or g in tried:
            continue
        tried.add(g)
        gaps[p] = g - c
        if _place(costs, suffix, gaps, over - min(g, c), idx + 1, picks, budget):
            picks[idx] = p
            return True
        gaps[p] = g
    return False


def _passes(row, prof_row, owner, agent, realloc, memo, budget):
    """`agent`'s envy-free placement of `realloc`, or None.

    Goods go to the agent and chores to the others, both dominant moves,
    so no envy-free placement is lost; what is left is whether the chore
    costs close the positive gaps.  The answer depends on the two
    multisets alone, so `memo` keeps `_place`'s positions per descending
    (costs, gaps) key for the whole scan, or [] when there are none, and
    the search runs once per key.  Keys settled by counting or summing are
    not stored.  A placement is `(loads, own, picks)`, which `_moves`
    reads: the bundle values without R, the agent's own value with R's
    goods, and the positions, or () when no gap is open.
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
        return loads, own, ()
    if len(gaps) > len(costs) or sum(gaps) > sum(costs):
        return None
    costs.sort(reverse=True)
    gaps.sort(reverse=True)
    key = (tuple(costs), tuple(gaps))
    picks = memo.get(key)
    if picks is None:
        suffix = list(itertools.accumulate(reversed(costs), initial=0))[::-1]
        picks = [0] * len(costs)
        if not _place(costs, suffix, gaps, sum(gaps), 0, picks, budget):
            picks = []
        memo[key] = picks
    return (loads, own, picks) if picks else None


def _moves(row, agent, realloc, loads, own, picks):
    """The owner vector of `agent`'s placement of `realloc`, in its order.

    Goods go to the agent.  Chores, costliest first and the lower item
    first among equal costs, take the positions `picks` among the bundles
    with a positive gap, largest gap first and the lower agent first among
    equal gaps; these orders give the descending key of `_passes`, in
    which equal costs, and equal gaps, are interchangeable.  With no gap
    open, the chores go to the lowest other agent, or stay with the agent
    when it is alone.
    """
    n = len(loads)
    opened = sorted((j for j in range(n) if loads[j] > own), key=lambda j: -loads[j])
    targets = opened or [next((j for j in range(n) if j != agent), agent)]
    chores = sorted((t for t in realloc if row[t] < 0), key=lambda t: (row[t], t))
    moves = {t: agent for t in realloc if row[t] >= 0}
    moves.update((t, targets[p]) for t, p in zip(chores, picks or itertools.repeat(0)))
    return tuple(map(moves.get, realloc))


def _twin_prev(rows, bundles, owner):
    """`prev[t]`, the highest item below t that is t's twin, or -1.

    Twins share a scaled column and either a holder, or, each being its
    holder's only item, the holder's scaled row.
    """
    last = {}
    prev = []
    for t, col in enumerate(zip(*rows)):
        j = owner[t]
        # a lone item is keyed by its holder's row, others by the holder
        key = (col, rows[j]) if len(bundles[j]) == 1 else (col, j)
        prev.append(last.get(key, -1))
        last[key] = t
    return prev


def _candidate_sets(m, size, prev):
    """The sets of `size` items of range(m) that hold, of each twin class,
    its lowest items, as sorted tuples in lexicographic order.

    An item t is taken only while `prev[t]`, its next lower twin, is held.
    With no twins that is every set, and `itertools.combinations` itself.
    """
    if max(prev, default=-1) < 0:
        return itertools.combinations(range(m), size)

    def walk():
        held = [False] * m + [True]  # held[-1]: no lower twin to wait for
        stack = []
        t = 0
        while True:
            if len(stack) == size:
                yield tuple(stack)
            else:
                last = m - size + len(stack)  # the highest item this slot takes
                while t <= last and not held[prev[t]]:
                    t += 1
                if t <= last:
                    stack.append(t)
                    held[t] = True
                    t += 1
                    continue
            if not stack:
                return
            t = stack.pop()
            held[t] = False
            t += 1

    return walk()


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
    decision's certificate.  A set that relabels twin items of a set
    already scanned is skipped (`_candidate_sets`): it passes exactly when
    that set does.  `_passes` finds each agent's placement for each R, and
    only the accepted R's placements become witnesses, through `_moves`.

    `budget` counts one unit per R scanned, twin relabelings not scanned,
    and one per `_place` node, which runs only on a (costs, gaps) key not
    seen before in the call.  The R unit keeps the scan bounded when every
    check is a repeated key.
    """
    validate_allocation(inst, alloc)
    if k < 0 or k > inst.num_items:
        raise ValueError(f"k={k} outside [0, m={inst.num_items}]")
    tracker = Budget(
        budget,
        "EFR-k witness-search R sets (twin relabelings skipped) and DFS nodes",
    )
    n, m = inst.num_agents, inst.num_items
    owner = [0] * m
    for j, bundle in enumerate(alloc.bundles):
        for t in bundle:
            owner[t] = j
    rows, prof = inst.scaled, profile(inst, alloc)
    prev = _twin_prev(rows, alloc.bundles, owner)
    memo = {}
    for size in range(k + 1):
        for realloc in _candidate_sets(m, size, prev):
            tracker.spend()
            placed = []
            for i in range(n):
                found = _passes(rows[i], prof[i], owner, i, realloc, memo, tracker)
                if found is None:
                    break
                placed.append(found)
            else:
                owners = [_moves(rows[i], i, realloc, *p) for i, p in enumerate(placed)]
                return EfrDecision(True, EfrCertificate(alloc, realloc, owners))
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
    own = [vals[i] for i, vals in enumerate(profile(inst, alloc))]
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


def solve_partition(values: list[int]):
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
