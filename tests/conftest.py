import itertools
import json
import math
from unittest import mock

import pytest

from mannafair import oracles
from mannafair.core import Budget, BudgetExceededError, bundle_value
from mannafair.fixed_n import build_f_ij, reconstruct_I

ACCEPTANCE_LINES = []


def items_of(mask):
    """The item set of a bitmask (bit t for item t)."""
    return frozenset(t for t in range(mask.bit_length()) if mask >> t & 1)


def f_ij_sets(pert, i, j):
    """`build_f_ij` with each option's mask read as a frozenset."""
    return {key: items_of(mask) for key, mask in build_f_ij(pert, i, j).items()}


def i_sets(pert, i, budget):
    """`reconstruct_I` with each mask read as a frozenset."""
    return [items_of(mask) for mask in reconstruct_I(pert, i, budget)]


def intersection_charges(pert, i):
    """Each pair's charge in `reconstruct_I`, read from `f_ij_sets`: the
    distinct sets so far times the pair's options."""
    level, charges = [frozenset(range(pert.base.num_items))], []
    for j in range(pert.base.num_agents):
        if j != i:
            options = list(f_ij_sets(pert, i, j).values())
            charges.append(len(level) * len(options))
            level = list(dict.fromkeys(a & f for a in level for f in options))
    return charges


def product_join(per_agent, m):
    """The pairwise disjoint tuples of `itertools.product(*per_agent)`, item
    sets as frozensets, that leave fewer than n items uncovered, grouped by
    the uncovered R in first-seen order."""
    n, by_realloc = len(per_agent), {}
    all_items = frozenset(range(m))
    for item_sets in itertools.product(*per_agent):
        claimed = frozenset().union(*item_sets)
        if sum(map(len, item_sets)) == len(claimed) and m - len(claimed) < n:
            by_realloc.setdefault(all_items - claimed, []).append(item_sets)
    return by_realloc


def join_charges(per_agent, m, k):
    """The (agent, units) charge of each node of a depth-first join of item
    sets for |R| = k, in visiting order.  A node of agent a < n - 1 costs
    its sets and tries each: one that misses the claimed items and leaves
    at most k items outside them and every set of the agents after a opens
    a node of agent a + 1.  A node of the last agent costs one lookup per
    k-subset of the unclaimed items, and is skipped when fewer than k are
    unclaimed."""
    n, charges = len(per_agent), []
    reach = [
        frozenset().union(*itertools.chain(*per_agent[a:])) for a in range(n + 1)
    ]

    def visit(a, claimed):
        if a == n - 1:
            if m - len(claimed) >= k:
                charges.append((a, math.comb(m - len(claimed), k)))
            return
        charges.append((a, len(per_agent[a])))
        for s in per_agent[a]:
            c = claimed | s
            if not s & claimed and m - len(c | reach[a + 1]) <= k:
                visit(a + 1, c)

    visit(0, frozenset())
    return charges


def format1_text(cert):
    """`cert` in certificate format 1, which lists every witness allocation
    in full, rendered as `json.dumps(indent=2)` plus a newline: the bytes
    that `serialize_certificate` wrote before format 2."""
    ids = lambda items: sorted(t + 1 for t in items)
    bundles = lambda alloc: [ids(b) for b in alloc.bundles]
    doc = {
        "format_version": 1,
        "base": bundles(cert.base),
        "realloc_set": ids(cert.realloc_set),
        "witnesses": [bundles(w) for w in cert.witnesses],
    }
    return json.dumps(doc, indent=2) + "\n"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def true_separators(pert, true_i, i, j):
    """The (good, chore) option of i's argmax-ratio items against j."""
    common_goods = [
        t
        for t in true_i[i]
        if pert.pert_value(i, t) > 0 and pert.pert_value(j, t) > 0
    ]
    common_chores = [
        t
        for t in true_i[i]
        if pert.pert_value(i, t) < 0 and pert.pert_value(j, t) < 0
    ]
    good = max(
        common_goods,
        key=lambda t: (pert.pert_value(j, t) / pert.pert_value(i, t), -t),
        default=None,
    )
    chore = max(
        common_chores,
        key=lambda t: (
            abs(pert.pert_value(i, t)) / abs(pert.pert_value(j, t)), -t
        ),
        default=None,
    )
    return good, chore


def separators_recover(pert, true_i):
    """Whether each agent's true separators give back its I*_i.

    The entries of the true separator options intersect to I*_i, and I*_i
    is one of `reconstruct_I`'s sets; an agent with an empty I*_i claims
    nothing, which is `reconstruct_I`'s first set.
    """
    n = pert.base.num_agents
    for i in range(n):
        sets = i_sets(pert, i, Budget(10**9, "combinations"))
        if not true_i[i]:
            if sets[0] != frozenset():
                return False
            continue
        got = frozenset(range(pert.base.num_items)).intersection(
            *(
                f_ij_sets(pert, i, j)[true_separators(pert, true_i, i, j)]
                for j in range(n)
                if j != i
            )
        )
        if got != true_i[i] or true_i[i] not in sets:
            return False
    return True


def spend_of(call, module=oracles):
    """`call(limit)`'s result and the units it spent of the one Budget
    that it made in `module`."""
    made = []

    class Recording(Budget):
        def __init__(self, limit, what):
            super().__init__(limit, what)
            made.append(self)

    with mock.patch.object(module, "Budget", Recording):
        result = call(10**12)
    (budget,) = made
    return result, budget.limit - budget.remaining


def assert_budget_is_own_spend(call, below, module=oracles):
    """`call` spends the same on two calls of the Budget it makes in
    `module`, raises below that spend and not at it; `below(spent)` draws
    one more budget under a positive spend.  Returns the spend."""
    result, spent = spend_of(call, module)
    assert spend_of(call, module) == (result, spent)
    for limit in {spent - 1, below(spent)} if spent else ():
        with pytest.raises(BudgetExceededError):
            call(limit)
    assert call(spent) == result
    return spent


def replay_picks(n, trace):
    """Each state of a `run_picking_rounds` trace with the bundles its picks
    and those of the states before it add up to."""
    held = [frozenset()] * n
    for state in trace:
        held = [b if t is None else b | {t} for b, t in zip(held, state.picks)]
        yield state, held


def picking_invariant_violation(inst, trace):
    """The first loop invariant that a state of `trace` breaks, or None.

    After each outer iteration every active agent is envy-free, and every
    deferred agent is envy-free once granted all reserved items and EF1
    without them.
    """
    n = inst.num_agents
    for k, (state, held) in enumerate(replay_picks(n, trace)):
        for i in state.active:
            for j in range(n):
                if bundle_value(inst, i, held[i]) < bundle_value(inst, i, held[j]):
                    return f"iteration {k}: active agent {i} envies {j}"
        for i in state.deferred:
            granted = held[i] | state.reserved
            for j in range(n):
                if j == i:
                    continue
                if bundle_value(inst, i, granted) < bundle_value(inst, i, held[j]):
                    return f"iteration {k}: deferred agent {i} granted R envies {j}"
                if bundle_value(inst, i, held[i]) >= bundle_value(inst, i, held[j]):
                    continue
                # EF1 without the reserve: dropping some single item of
                # either bundle clears the envy
                if not any(
                    bundle_value(inst, i, held[i] - {t})
                    >= bundle_value(inst, i, held[j] - {t})
                    for t in held[i] | held[j]
                ):
                    return f"iteration {k}: deferred agent {i} not EF1 to {j}"
    return None
