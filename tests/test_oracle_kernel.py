"""The incremental witness kernel in `oracles` against its predecessor.

`decide_efr_k` takes each agent's bundle values from one profile and an
owner vector, keeps the overload of the witness DFS incrementally and builds
witness allocations only once all agents succeed.  The references below are
the earlier implementations, which re-sum every bundle for every candidate R
and agent and recompute the overload at every node.  The kernel must agree
with them on verdicts, reallocation sets, witnesses and the exact number of
budget units spent, so `BudgetExceededError` fires at the same budgets.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair.core import (
    Allocation,
    Budget,
    BudgetExceededError,
    EfrCertificate,
    Instance,
    profile,
    validate_allocation,
)
from mannafair.harness import gen_partition_reduction
from mannafair.oracles import (
    EfrDecision,
    _find_witness,
    decide_efr_k,
    min_efr_k,
    solve_partition,
)


def ref_find_witness(inst, alloc, agent, realloc, budget):
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

    def feasible_suffix(idx):
        slack_needed = sum(loads[j] - own for j in others if loads[j] > own)
        available = -sum(row[t] for t in chores[idx:])
        return slack_needed <= available

    def dfs(idx):
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


def ref_decide_efr_k(inst, alloc, k, budget):
    validate_allocation(inst, alloc)
    if k < 0 or k > inst.num_items:
        raise ValueError(f"k={k} outside [0, m={inst.num_items}]")
    n = inst.num_agents
    for size in range(k + 1):
        for realloc in itertools.combinations(range(inst.num_items), size):
            rset = frozenset(realloc)
            witnesses = []
            for i in range(n):
                moves = ref_find_witness(inst, alloc, i, rset, budget)
                if moves is None:
                    break
                witnesses.append(alloc.reassign(moves))
            else:
                cert = EfrCertificate(alloc, rset, tuple(witnesses))
                return EfrDecision(True, cert)
    return EfrDecision(False, None)


def run_reference(inst, alloc, k, limit):
    """(decision or None if the budget ran out, units spent)."""
    budget = Budget(limit, "nodes")
    try:
        return ref_decide_efr_k(inst, alloc, k, budget), limit - budget.remaining
    except BudgetExceededError:
        return None, None


def run_kernel(inst, alloc, k, limit):
    """The kernel's decision, or None if the budget ran out."""
    try:
        return decide_efr_k(inst, alloc, k, budget=limit)
    except BudgetExceededError:
        return None


def assert_same_budgets(inst, alloc, k, spent, draw_below):
    """The kernel raises below the reference spend and not at it.

    So the kernel spends exactly `spent` units.
    """
    below = {spent - 1, draw_below(spent)} if spent else set()
    for limit in below:
        with pytest.raises(BudgetExceededError):
            decide_efr_k(inst, alloc, k, budget=limit)
    assert decide_efr_k(inst, alloc, k, budget=spent) is not None


LIMIT = 10**6

VALUE = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
)


@st.composite
def cases(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    if draw(st.booleans()):  # identical rows tie chore values across agents
        rows = [[draw(VALUE) for _ in range(m)]] * n
    else:
        rows = [[draw(VALUE) for _ in range(m)] for _ in range(n)]
    owner = [draw(st.integers(0, n - 1)) for _ in range(m)]
    bundles = tuple(
        frozenset(t for t in range(m) if owner[t] == i) for i in range(n)
    )
    inst = Instance(tuple(map(tuple, rows)))
    return inst, Allocation(bundles), draw(st.integers(0, m))


@settings(max_examples=600, deadline=None)
@given(cases(), st.data())
def test_decide_matches_reference(case, data):
    inst, alloc, k = case
    expected, spent = run_reference(inst, alloc, k, LIMIT)
    assert run_kernel(inst, alloc, k, LIMIT) == expected
    if spent is not None:
        assert_same_budgets(
            inst, alloc, k, spent, lambda s: data.draw(st.integers(0, s - 1))
        )


@settings(max_examples=200, deadline=None)
@given(cases())
def test_min_efr_k_matches_reference(case):
    inst, alloc, _ = case
    # min_efr_k is one scan: the reference decision at k = m, whose spend
    # is that of the decision at the returned k alone
    decision, spent = run_reference(inst, alloc, inst.num_items, LIMIT)
    k = len(decision.certificate.realloc_set)
    assert run_reference(inst, alloc, k, LIMIT) == (decision, spent)
    if k:  # deciding k = 0, 1, ... in turn stops at the same k
        assert not run_reference(inst, alloc, k - 1, LIMIT)[0].verdict
    assert min_efr_k(inst, alloc, budget=spent) == (k, decision.certificate)
    if spent:  # n = 1 searches no nodes
        with pytest.raises(BudgetExceededError):
            min_efr_k(inst, alloc, budget=spent - 1)


def test_frozenset_order_breaks_chore_ties():
    """Equal chores are placed in set iteration order, which is not sorted.

    A frozenset of items below 8, as in the random cases, iterates sorted;
    R = {1, 8, 9}, built from its sorted tuple as `decide_efr_k` builds it,
    iterates as 8, 1, 9.  Agent 0 holds R and four more chores; agents 1 and
    2 hold three and two, so their bundles beat agent 0's by 1 and 2.  First
    fit sends the first equal R chore to agent 1 and the other two to 2.
    """
    rset = frozenset((1, 8, 9))
    assert list(rset) == [8, 1, 9]
    inst = Instance(((F(-1),) * 12,) * 3)
    alloc = Allocation(
        (frozenset({0, 1, 2, 3, 4, 8, 9}), frozenset({7, 10, 11}), frozenset({5, 6}))
    )
    owner = [0, 0, 0, 0, 0, 2, 2, 1, 0, 0, 1, 1]
    row, budget = inst.scaled[0], Budget(LIMIT, "nodes")
    got = _find_witness(row, profile(inst, alloc)[0], owner, 0, [1, 2], rset, budget)
    assert got == ref_find_witness(inst, alloc, 0, rset, Budget(LIMIT, "nodes"))
    assert got == {8: 1, 1: 2, 9: 2}


# the benchmark's three decide ops and some small reductions
PARTITIONS = [
    [2, 2, 2, 2, 2, 16],
    [1, 1, 1, 1, 10],
    [9, 7, 5, 3, 1, 2, 4, 6, 8, 10, 1],
    [1, 1, 2, 2],
    [3, 1, 2],
    [1, 1],
]


@pytest.mark.parametrize("values", PARTITIONS, ids=lambda v: ",".join(map(str, v)))
def test_partition_reductions_match_reference(values):
    inst, alloc, k = gen_partition_reduction(values)
    expected, spent = run_reference(inst, alloc, k, 10**9)
    assert run_kernel(inst, alloc, k, 10**9) == expected
    assert expected.verdict == (solve_partition(values) is not None)
    assert_same_budgets(inst, alloc, k, spent, lambda s: s // 2)
