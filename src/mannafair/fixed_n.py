"""Exhaustive search for an EFR-(n-1) and Pareto-optimal allocation.

Each ordered agent pair's (good, chore) separator options fix ratio-filter
sets F_ij; intersecting one per pair gives an agent's uniquely-demanded set
I_i.  Sets are item bitmasks (`build_f_ij`, `reconstruct_I`) until the
join (`_join`) keeps pairwise disjoint tuples of them, grouped by the
reallocation set R of items they leave uncovered.

A candidate is one joined tuple plus demand sets over R: agent i alone
demands each item of I_i, and a set D(t) of at least two agents each item t
of R.  By R (by size, then lexicographic), demand sets and tuple, each
candidate is screened: every agent needs an owner vector of R (one
demander per item) under which it is envy-free, read off the I-tuple's
profile (`_efr_witnesses`).  Then the weighted-welfare LP certifies that
every owner vector maximizes eta-shifted welfare under the perturbed
values, so the base (each item on its first demander, built for the
accepted candidate alone) and the witnesses are Pareto optimal.

Candidates are generated in that order: the join runs once per size of
R, after every candidate of the smaller sizes failed, and the demand sets
of R keep only tie forests (`_tie_forests`), since under the
non-degenerate perturbed values the LP refutes every tie cycle.

The budget is charged for the work about to run: each pair's
intersections, each join node's scan of its agent's sets, each lookup of
the last agent's set and each screened candidate.  The search takes at
most `HARD_AGENT_CAP` = 4 agents: each agent's separator product grows
like m^(2(n-1)).
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key, reduce
from math import comb

from .core import (
    DEFAULT_MAX_CANDIDATES,
    Allocation,
    Budget,
    EfrCertificate,
    Instance,
    profile,
)
from .welfare import PerturbedInstance, perturb_nondegenerate, po_certificate_lp

HARD_AGENT_CAP = 4


def _prefix_masks(items, num, den) -> dict:
    """Each item's mask of the items whose ratio num/den (`den` of one sign)
    is at most its own: items in cross-product order, each run of equal
    ratios sharing the prefix that ends it."""
    ratio = cmp_to_key(lambda s, t: num[s] * den[t] - num[t] * den[s])
    masks, acc = {}, 0
    for _, run in itertools.groupby(sorted(items, key=ratio), ratio):
        run = list(run)
        acc |= sum(1 << t for t in run)
        masks.update(dict.fromkeys(run, acc))
    return masks


def build_f_ij(pert: PerturbedInstance, i: int, j: int) -> dict[tuple, int]:
    """Ratio-filter masks F_ij = Q_ij | G_ij | B_ij of every separator option.

    Keys are (good, chore) options, each None or a common good (chore) of i
    and j, in the order `[None] + goods` by `[None] + chores` by increasing
    item.  Q_ij holds the goods of i that are chores of j; G_ij the common
    goods whose ratio vbar_j/vbar_i is at most the separating good's, B_ij
    the common chores whose |vbar_i|/|vbar_j| is at most the separating
    chore's.  The rows `pert.scaled` keep each sign and a pair's ratio order.
    """
    vi, vj = pert.scaled[i], pert.scaled[j]
    goods, chores, q = [], [], 0
    for t, (a, b) in enumerate(zip(vi, vj)):
        if a > 0 and b > 0:
            goods.append(t)
        elif a < 0 and b < 0:
            chores.append(t)
        elif a > 0 > b:
            q |= 1 << t
    below_g, below_c = _prefix_masks(goods, vj, vi), _prefix_masks(chores, vi, vj)
    options = itertools.product([None, *goods], [None, *chores])
    return {(g, c): q | below_g.get(g, 0) | below_c.get(c, 0) for g, c in options}


def reconstruct_I(pert: PerturbedInstance, i: int, budget: Budget) -> list[int]:
    """Agent i's distinct uniquely-demanded sets I_i, as masks.

    The empty set (agent i claims nothing) comes first, then each
    intersection of one F_ij per other agent j, in first-seen order over
    the product of the pairs' option orders.  Pair by pair, each distinct
    set so far meets each option of the next pair; those intersections are
    spent before they are built, and a repeated one yields no new set.
    """
    level = [(1 << pert.base.num_items) - 1]
    for j in range(pert.base.num_agents):
        if j != i:
            options = build_f_ij(pert, i, j).values()
            budget.spend(len(level) * len(options))
            level = list(dict.fromkeys([a & f for a in level for f in options]))
    return list(dict.fromkeys([0, *level]))


def _join(per_agent, m: int, budget: Budget):
    """The pairwise disjoint tuples of one I_i mask per agent leaving fewer
    than n items uncovered, as frozensets: yields (R, tuples) by |R|, then
    R lexicographic, tuples in `itertools.product` order.

    Per size k = |R|, once the sizes before it are used up, a depth-first
    walk places agents 0..n-2, skipping each set meeting the claimed items
    and cutting a node once more than k items lie outside them and `reach`
    (every set of the agents still to place); a node spends one unit per
    set of its agent before it scans them.  The last agent's set is the
    free items less R: one lookup, and one unit, per k-subset of them."""
    n, full = len(per_agent), (1 << m) - 1
    reach = [0] * (n + 1)
    for a in range(n - 1, -1, -1):
        reach[a] = reduce(int.__or__, per_agent[a], reach[a + 1])
    last = set(per_agent[-1])

    def walk(a, claimed, picked, k, kept):
        if a < n - 1:
            budget.spend(len(per_agent[a]))
            for s in per_agent[a]:
                c = claimed | s
                if not s & claimed and (full ^ (c | reach[a + 1])).bit_count() <= k:
                    walk(a + 1, c, (*picked, s), k, kept)
            return
        free = full ^ claimed
        bits = [1 << t for t in range(m) if free >> t & 1] if k else ()
        if len(bits) < k:
            return
        budget.spend(comb(len(bits), k))
        for r in itertools.combinations(bits, k):
            r = sum(r)
            if free ^ r in last:
                kept.setdefault(r, []).append((*picked, free ^ r))

    for k in range(n):
        kept: dict[int, list] = {}
        walk(0, 0, (), k, kept)
        flat = itertools.chain.from_iterable
        masks = {*kept, *flat(flat(kept.values()))}
        sets = {s: frozenset(t for t in range(m) if s >> t & 1) for s in masks}
        for r in sorted(kept, key=lambda r: sorted(sets[r])):
            yield sets[r], [tuple(map(sets.get, t)) for t in kept[r]]


def _tie_forests(n: int, options):
    """The demand combinations of `itertools.product(*options)`, each
    option a tuple of agents, whose tie graph is a forest, in product order.

    The tie graph joins each item with two or more demanders to each of
    them.  A depth-first walk over the items carries each agent's component
    label and cuts a prefix once an item's demanders already share one:
    that closes a cycle, which every completion keeps.  Around a tie cycle
    the agents' weight ratios multiply to one, which non-degenerate values
    forbid, so `po_certificate_lp` refutes every candidate the cut drops.
    """

    def walk(k, comp, picked):
        if k == len(options):
            yield picked
            return
        for d in options[k]:
            roots = {comp[a] for a in d}
            if len(roots) == len(d):
                low = min(roots)
                joined = tuple(low if c in roots else c for c in comp)
                yield from walk(k + 1, joined, (*picked, d))

    return walk(0, tuple(range(n)), ())


def _efr_witnesses(rows, prof, realloc, demand_combo):
    """Each agent's first envy-free owner vector of R, or None if some
    agent has none.  A vector gives each item of R (`realloc`) one of its
    demanders in `demand_combo`, in product order.  `prof` profiles the
    I-tuple alone; agent i's row under a vector is its row there plus each
    item of R added to that item's owner, under the original values."""
    found: list[tuple | None] = [None] * len(rows)
    for owners in itertools.product(*demand_combo):
        for i, row in enumerate(rows):
            if found[i] is None:
                vals = list(prof[i])
                for t, a in zip(realloc, owners):
                    vals[a] += row[t]
                if vals[i] >= max(vals):
                    found[i] = owners
        if None not in found:
            return found
    return None


def search_efr_po(inst: Instance, max_candidates: int = DEFAULT_MAX_CANDIDATES):
    """Find an EFR-(n-1) and Pareto-optimal allocation by enumeration.

    Returns (allocation, certificate, weight_vector); the allocation is
    the base.  Each I-tuple is profiled once, at its first screen; its
    witnesses are the screen's owner vectors of R.  The perturbation scales
    rational values to integers, which preserves EF, EFR and PO.
    One unit of `max_candidates` is one set intersection in
    `reconstruct_I`, one set tested at a join node, one lookup of the last
    agent's set or one screened (R, demand, I-tuple) candidate, each spent
    before that work runs;
    running out raises BudgetExceededError.  Existence is guaranteed, so
    exhausting the full candidate space indicates an implementation bug.
    """
    n, m = inst.num_agents, inst.num_items
    if n > HARD_AGENT_CAP:
        raise ValueError(
            f"the fixed-n search takes at most {HARD_AGENT_CAP} agents "
            f"(its cost is exponential in n), got {n}"
        )
    pert = perturb_nondegenerate(inst)
    what = "fixed-n set intersections, join set tests and candidates"
    budget = Budget(max_candidates, what)
    # outcomes depend only on the demand map and R is forced; product
    # order over distinct sets is their first-seen separator-product order
    per_agent = [reconstruct_I(pert, i, budget) for i in range(n)]

    # demand sets: agent subsets of size >= 2, by size then lexicographic
    sizes = range(2, n + 1)
    demand_opts = [c for k in sizes for c in itertools.combinations(range(n), k)]
    for rset, tuples in _join(per_agent, m, budget):
        realloc = sorted(rset)
        profs = [None] * len(tuples)  # each I-tuple's profile, R unassigned
        for demand_combo in _tie_forests(n, [demand_opts] * len(realloc)):
            for k, item_sets in enumerate(tuples):
                budget.spend()
                prof = profs[k] = profs[k] or profile(inst, Allocation(item_sets))
                found = _efr_witnesses(inst.scaled, prof, realloc, demand_combo)
                if found is None:
                    continue
                demand = {t: (i,) for i, items in enumerate(item_sets) for t in items}
                demand.update(zip(realloc, demand_combo))
                w = po_certificate_lp(pert, demand)
                if w is None:
                    continue
                bundles = list(item_sets)
                for t, d in zip(realloc, demand_combo):
                    bundles[d[0]] = bundles[d[0]] | {t}
                base = Allocation(tuple(bundles))
                return base, EfrCertificate(base, rset, found), w
    raise AssertionError(
        "enumeration exhausted without a solution; existence is guaranteed"
    )
