"""Exhaustive search for an EFR-(n-1) and Pareto-optimal allocation.

Each ordered agent pair's (good, chore) separator options fix ratio-filter
sets F_ij; intersecting them gives an agent's uniquely-demanded set I_i.
The distinct I_i of each agent are enumerated once, joined into pairwise
disjoint tuples, and grouped by the reallocation set R of items they leave
uncovered.  For each R (by size, then lexicographic) and demand sets over
R, the tuples are screened with the reassignment-based envy-freeness test
(under the original values) and an exact weight-vector feasibility check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    Allocation,
    BudgetExceededError,
    EfrCertificate,
    Instance,
    profile,
)
from .welfare import (
    PerturbedInstance,
    WeightVector,
    perturb_nondegenerate,
    po_certificate_lp,
)

HARD_AGENT_CAP = 3


@dataclass(frozen=True)
class SeparatorGuess:
    """Optional separating good/chore per ordered agent pair, plus empty flags."""

    goods: Dict[Tuple[int, int], Optional[int]]
    chores: Dict[Tuple[int, int], Optional[int]]
    empty: tuple  # tuple[bool, ...] per agent


def _sign_sets(pert: PerturbedInstance, i: int, j: int):
    """Items that are common goods, common chores, and i-good/j-chore."""
    m = pert.base.num_items
    plus, minus, q = [], [], []
    for t in range(m):
        vi, vj = pert.pert_value(i, t), pert.pert_value(j, t)
        if vi > 0 and vj > 0:
            plus.append(t)
        elif vi < 0 and vj < 0:
            minus.append(t)
        elif vi > 0 and vj < 0:
            q.append(t)
    return plus, minus, q


def build_f_ij(
    pert: PerturbedInstance, i: int, j: int, guess: SeparatorGuess
) -> frozenset:
    """Ratio-filter set F_ij = Q_ij | G_ij | B_ij for the guessed separators."""
    plus, minus, q = _sign_sets(pert, i, j)
    out = set(q)
    g = guess.goods.get((i, j))
    if g is not None:
        if g not in plus:
            raise ValueError(f"separating good {g} is not a common good")
        bound = Fraction(pert.pert_value(j, g)) / pert.pert_value(i, g)
        for t in plus:
            if Fraction(pert.pert_value(j, t)) / pert.pert_value(i, t) <= bound:
                out.add(t)
    c = guess.chores.get((i, j))
    if c is not None:
        if c not in minus:
            raise ValueError(f"separating chore {c} is not a common chore")
        bound = Fraction(abs(pert.pert_value(i, c))) / abs(pert.pert_value(j, c))
        for t in minus:
            ratio = Fraction(abs(pert.pert_value(i, t))) / abs(
                pert.pert_value(j, t)
            )
            if ratio <= bound:
                out.add(t)
    return frozenset(out)


def reconstruct_I(pert: PerturbedInstance, guess: SeparatorGuess):
    """Per-agent uniquely-demanded sets from the separator guess."""
    n = pert.base.num_agents
    all_items = frozenset(range(pert.base.num_items))
    result = []
    for i in range(n):
        if guess.empty[i]:
            result.append(frozenset())
            continue
        acc = all_items
        for j in range(n):
            if j != i:
                acc = acc & build_f_ij(pert, i, j, guess)
        result.append(acc)
    return result


def _demand_options(n: int):
    """Agent subsets of size >= 2, by increasing size then lexicographic."""
    opts = []
    for size in range(2, n + 1):
        opts.extend(itertools.combinations(range(n), size))
    return opts


def _pair_guesses(pert, i, j):
    """Each optional (good, chore) separator choice for the pair (i, j)."""
    plus, minus, _ = _sign_sets(pert, i, j)
    no_empty = (False,) * pert.base.num_agents
    return [
        SeparatorGuess({(i, j): g}, {(i, j): c}, no_empty)
        for g in [None] + sorted(plus)
        for c in [None] + sorted(minus)
    ]


def _efr_witnesses(inst, item_sets, realloc, demand):
    """Per-agent envy-free witnesses over D(t)-respecting placements of R.

    Returns the list of witness allocations, or None when some agent has
    no envy-free placement.  Envy-freeness is evaluated under the
    original values.
    """
    n = inst.num_agents
    rlist = sorted(realloc)
    choices = [sorted(demand[t]) for t in rlist]
    witnesses: List[Optional[Allocation]] = [None] * n
    for assignment in itertools.product(*choices):
        bundles = [set(s) for s in item_sets]
        for t, a in zip(rlist, assignment):
            bundles[a].add(t)
        alloc = Allocation(tuple(bundles))
        for i, row in enumerate(profile(inst, alloc)):
            if witnesses[i] is None and row[i] >= max(row):
                witnesses[i] = alloc
        if all(w is not None for w in witnesses):
            return witnesses
    return None


def _agent_item_sets(pert: PerturbedInstance, i: int) -> List[frozenset]:
    """Agent i's distinct I_i: empty-flag set first, then first-seen order."""
    per_pair = [
        [build_f_ij(pert, i, j, guess) for guess in _pair_guesses(pert, i, j)]
        for j in range(pert.base.num_agents)
        if j != i
    ]
    all_items = frozenset(range(pert.base.num_items))
    seen = dict.fromkeys([frozenset()])
    for filters in itertools.product(*per_pair):
        seen.setdefault(all_items.intersection(*filters))
    return list(seen)


def search_efr_po(
    inst: Instance,
    max_candidates: int = 10**7,
    agent_cap: int = HARD_AGENT_CAP,
):
    """Find an EFR-(n-1) and Pareto-optimal allocation by enumeration.

    Returns (allocation, certificate, weight_vector).  Rational values are
    scaled to integers before perturbing, which preserves EF, EFR and PO.
    One unit of `max_candidates` is one joined I-tuple or one screened
    (R, demand, I-tuple) candidate; running out raises BudgetExceededError.
    Existence is guaranteed, so exhausting the full candidate space
    indicates an implementation bug.
    """
    n, m = inst.num_agents, inst.num_items
    if n > agent_cap:
        raise ValueError(
            f"search is exponential in n; capped at {agent_cap} agents"
        )
    if n == 1:
        alloc = Allocation((frozenset(range(m)),))
        cert = EfrCertificate(alloc, frozenset(), (alloc,))
        return alloc, cert, WeightVector((Fraction(1),))
    scale = math.lcm(*(v.denominator for row in inst.values for v in row))
    pert = perturb_nondegenerate(
        Instance(tuple(tuple(v * scale for v in row) for row in inst.values))
    )
    budget = max_candidates

    def spend():
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise BudgetExceededError(
                "candidate budget exhausted before a solution"
            )

    # outcomes depend only on (I-tuple, R, demand) and R is forced; product
    # order over distinct sets is their first-seen separator-product order
    by_realloc: Dict[frozenset, list] = {}
    all_items = frozenset(range(m))
    for item_sets in itertools.product(
        *(_agent_item_sets(pert, i) for i in range(n))
    ):
        spend()
        claimed = frozenset().union(*item_sets)
        if sum(map(len, item_sets)) == len(claimed) and m - len(claimed) < n:
            by_realloc.setdefault(all_items - claimed, []).append(item_sets)

    demand_opts = _demand_options(n)
    for rset in sorted(by_realloc, key=lambda r: (len(r), sorted(r))):
        realloc = tuple(sorted(rset))
        for demand_combo in itertools.product(demand_opts, repeat=len(realloc)):
            demand = dict(zip(realloc, demand_combo))
            for item_sets in by_realloc[rset]:
                spend()
                witnesses = _efr_witnesses(inst, item_sets, realloc, demand)
                if witnesses is None:
                    continue
                w = po_certificate_lp(pert, item_sets, realloc, demand)
                if w is None:
                    continue
                bundles = [set(s) for s in item_sets]
                for t in realloc:
                    bundles[min(demand[t])].add(t)
                alloc = Allocation(tuple(bundles))
                cert = EfrCertificate(alloc, rset, tuple(witnesses))
                return alloc, cert, w
    raise AssertionError(
        "enumeration exhausted without a solution; existence is guaranteed"
    )
