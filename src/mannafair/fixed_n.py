"""Exhaustive search for an EFR-(n-1) and Pareto-optimal allocation.

Each ordered agent pair's (good, chore) separator options fix ratio-filter
sets F_ij; intersecting one per pair gives an agent's uniquely-demanded set
I_i.  `build_f_ij` sorts a pair's common goods and chores by value ratio
once and reads every option's F_ij as prefixes of those orders;
`reconstruct_I` lists an agent's distinct I_i.  The I_i are joined into
pairwise disjoint tuples and grouped by the reallocation set R of items
they leave uncovered.

A candidate is one joined tuple plus demand sets over R: agent i alone
demands each item of I_i, and a set D(t) of at least two agents each item t
of R.  For each R (by size, then lexicographic), demand sets over R and
joined tuple, the candidate is screened with the reassignment-based
envy-freeness test (under the original values), then its per-item demand
map with the weighted-welfare LP.  The base gives each item of R to its
lowest demander; each witness is the base plus the moves of one other
placement of R among its demanders (`Allocation.reassign`), so the screen
profiles the base once and re-sums only the moved items per placement.
The LP certifies that every placement maximizes eta-shifted weighted
welfare under the perturbed values, so the base and every witness are
Pareto optimal.

The search takes at most `HARD_AGENT_CAP` = 4 agents: each agent's
separator product grows like m^(2(n-1)), and the join multiplies them.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right

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


def _prefixes(ratio):
    """Each item's filter set: the items whose ratio is at most its own."""
    order = sorted(ratio, key=ratio.__getitem__)
    ratios = [ratio[t] for t in order]
    return {
        t: frozenset(order[: bisect_right(ratios, r)]) for t, r in ratio.items()
    }


def build_f_ij(
    pert: PerturbedInstance, i: int, j: int
) -> dict[tuple[int | None, int | None], frozenset]:
    """Ratio-filter sets F_ij = Q_ij | G_ij | B_ij of every separator option.

    Keys are (good, chore) separator options, each None or a common good
    (chore) of i and j, in the order `[None] + goods` by `[None] + chores`
    with goods and chores by increasing item.  Q_ij holds the items that
    are goods for i and chores for j; G_ij the common goods whose ratio
    vbar_j/vbar_i is at most the separating good's, B_ij the common chores
    whose |vbar_i|/|vbar_j| is at most the separating chore's.  Each order
    is sorted once per pair, so equal ratios fall on the same side.
    """
    vi, vj = pert.pert_values[i], pert.pert_values[j]
    goods, chores, q = [], [], []
    for t, (a, b) in enumerate(zip(vi, vj)):
        if a > 0 and b > 0:
            goods.append(t)
        elif a < 0 and b < 0:
            chores.append(t)
        elif a > 0 > b:
            q.append(t)
    good_sets = _prefixes({t: vj[t] / vi[t] for t in goods})
    chore_sets = _prefixes({t: vi[t] / vj[t] for t in chores})
    base = frozenset(q)
    return {
        (g, c): base.union(good_sets.get(g, ()), chore_sets.get(c, ()))
        for g in [None] + goods
        for c in [None] + chores
    }


def reconstruct_I(pert: PerturbedInstance, i: int, budget: Budget) -> list[frozenset]:
    """Agent i's distinct uniquely-demanded sets I_i.

    The empty set (agent i claims nothing) comes first, then each
    intersection of one F_ij per other agent j, in first-seen order over
    the product of the pairs' option orders, whose size is spent first.
    """
    per_pair = [
        build_f_ij(pert, i, j).values()
        for j in range(pert.base.num_agents)
        if j != i
    ]
    budget.spend(math.prod(map(len, per_pair)))
    all_items = frozenset(range(pert.base.num_items))
    seen = dict.fromkeys([frozenset()])
    for filters in itertools.product(*per_pair):
        seen.setdefault(all_items.intersection(*filters))
    return list(seen)


def _demand_options(n: int):
    """Agent subsets of size >= 2, by increasing size then lexicographic."""
    opts = []
    for size in range(2, n + 1):
        opts.extend(itertools.combinations(range(n), size))
    return opts


def _efr_witnesses(inst, item_sets, realloc, demand_combo):
    """The base of a candidate and a per-agent envy-free witness.

    The base gives agent i its I_i and each item of R (`realloc`) its first
    demander in `demand_combo`; its profile is taken once.  Placements of R
    among its demanders follow in product order, the base first: agent i's
    row is the base row with only the moved items re-summed, and its
    witness is the base with the moves of its first envy-free placement.
    Returns (base, witnesses), or None when some agent has no envy-free
    placement.  Envy-freeness is evaluated under the original values.
    """
    bundles = list(item_sets)
    for t, d in zip(realloc, demand_combo):
        bundles[d[0]] = bundles[d[0]] | {t}
    base = Allocation(tuple(bundles))
    prof, rows = profile(inst, base), inst.scaled
    found: list[list | None] = [None] * len(rows)  # each agent's moves
    for owners in itertools.product(*demand_combo):
        moves = [
            (t, d[0], a) for t, d, a in zip(realloc, demand_combo, owners) if a != d[0]
        ]
        for i, row in enumerate(rows):
            if found[i] is None:
                vals = list(prof[i])
                for t, src, dst in moves:
                    vals[src] -= row[t]
                    vals[dst] += row[t]
                if vals[i] >= max(vals):
                    found[i] = moves
        if None not in found:
            return base, [base.reassign({t: a for t, _, a in mv}) for mv in found]
    return None


def search_efr_po(inst: Instance, max_candidates: int = DEFAULT_MAX_CANDIDATES):
    """Find an EFR-(n-1) and Pareto-optimal allocation by enumeration.

    Returns (allocation, certificate, weight_vector); the allocation is
    the certificate's base, whose bundles every witness shares except the
    ones its moves touch.  The perturbation scales rational values to
    integers, which preserves EF, EFR and PO.
    One unit of `max_candidates` is one separator combination (spent per
    agent before its intersections), one joined I-tuple (spent before the
    join) or one screened (R, demand, I-tuple) candidate; running out
    raises BudgetExceededError.  Existence is guaranteed, so exhausting the
    full candidate space indicates an implementation bug.
    """
    n, m = inst.num_agents, inst.num_items
    if n > HARD_AGENT_CAP:
        raise ValueError(
            f"the fixed-n search takes at most {HARD_AGENT_CAP} agents "
            f"(its cost is exponential in n), got {n}"
        )
    pert = perturb_nondegenerate(inst)
    what = "fixed-n separator combinations, joined tuples and candidates"
    budget = Budget(max_candidates, what)
    # outcomes depend only on the demand map and R is forced; product
    # order over distinct sets is their first-seen separator-product order
    per_agent = [reconstruct_I(pert, i, budget) for i in range(n)]
    budget.spend(math.prod(map(len, per_agent)))
    by_realloc: dict[frozenset, list] = {}
    all_items = frozenset(range(m))
    for item_sets in itertools.product(*per_agent):
        claimed = frozenset().union(*item_sets)
        if sum(map(len, item_sets)) == len(claimed) and m - len(claimed) < n:
            by_realloc.setdefault(all_items - claimed, []).append(item_sets)

    demand_opts = _demand_options(n)
    for rset in sorted(by_realloc, key=lambda r: (len(r), sorted(r))):
        realloc = sorted(rset)
        for demand_combo in itertools.product(demand_opts, repeat=len(realloc)):
            for item_sets in by_realloc[rset]:
                budget.spend()
                found = _efr_witnesses(inst, item_sets, realloc, demand_combo)
                if found is None:
                    continue
                demand = {t: (i,) for i, items in enumerate(item_sets) for t in items}
                demand.update(zip(realloc, demand_combo))
                w = po_certificate_lp(pert, demand)
                if w is None:
                    continue
                base, witnesses = found
                return base, EfrCertificate(base, rset, tuple(witnesses)), w
    raise AssertionError(
        "enumeration exhausted without a solution; existence is guaranteed"
    )
