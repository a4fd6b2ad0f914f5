"""The pruned Pareto search in `oracles` against the full scan it replaced.

`is_pareto_optimal_bruteforce` walks the assignments of items 0..m-1 depth
first and cuts a branch once some agent can no longer reach its current
utility or none can still end strictly above it.  The reference below is the
earlier implementation, which sums every one of the n^m assignments.  The
search must agree with it on every verdict, also where it answers before
the search because the allocation maximizes the utility sum.  Its budget
counts the search nodes it pops, so it raises `BudgetExceededError` below
its own spend and not at it, and it spends the same on every call.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_budget_is_own_spend, spend_of

from mannafair.core import (
    Allocation,
    Budget,
    BudgetExceededError,
    Instance,
    validate_allocation,
)
from mannafair.harness import gen_random
from mannafair.oracles import is_pareto_optimal_bruteforce


def ref_is_pareto_optimal(inst, alloc, budget):
    validate_allocation(inst, alloc)
    n, m = inst.num_agents, inst.num_items
    Budget(budget, "Pareto-scan allocations").spend(n**m)
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


def allocation(owner, n):
    return Allocation(
        tuple(frozenset(t for t, a in enumerate(owner) if a == i) for i in range(n))
    )


VALUES = {
    "rational": st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
    "zero": st.just(F(0)),
    "mostly zero": st.sampled_from([F(0), F(0), F(1), F(-1)]),
    "all chores": st.builds(F, st.integers(-6, -1), st.sampled_from([1, 2])),
    "goods only": st.builds(F, st.integers(0, 6), st.sampled_from([1, 2])),
}


@st.composite
def cases(draw):
    """An instance and an allocation: uniformly random (often dominated), a
    weighted-welfare maximizer (Pareto optimal), or a maximizer with one
    item moved."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    value = VALUES[draw(st.sampled_from(sorted(VALUES)))]
    if draw(st.booleans()):  # identical rows
        rows = [[draw(value) for _ in range(m)]] * n
    else:
        rows = [[draw(value) for _ in range(m)] for _ in range(n)]
    inst = Instance(tuple(map(tuple, rows)))
    kind = draw(st.sampled_from(["random", "maximizer", "moved"]))
    if kind == "random":
        owner = [draw(st.integers(0, n - 1)) for _ in range(m)]
    else:
        # with every weight positive, a Pareto improvement would raise the
        # weighted welfare, so any per-item argmax is Pareto optimal
        w = [draw(st.integers(1, 5)) for _ in range(n)]
        owner = [max(range(n), key=lambda i: w[i] * rows[i][t]) for t in range(m)]
        if kind == "moved" and m:
            owner[draw(st.integers(0, m - 1))] = draw(st.integers(0, n - 1))
    return inst, allocation(owner, n)


@settings(max_examples=800, deadline=None)
@given(cases())
def test_verdict_matches_the_full_scan(case):
    inst, alloc = case
    assert is_pareto_optimal_bruteforce(inst, alloc) is ref_is_pareto_optimal(
        inst, alloc, 10**6
    )


@settings(max_examples=300, deadline=None)
@given(cases(), st.data())
def test_budget_is_the_search_nodes(case, data):
    inst, alloc = case
    call = lambda limit: is_pareto_optimal_bruteforce(inst, alloc, limit)
    spent = assert_budget_is_own_spend(
        call, lambda s: data.draw(st.integers(0, s - 1))
    )
    # a node is an assignment of items 0..t-1, for some t <= m
    n, m = inst.num_agents, inst.num_items
    assert spent <= sum(n**t for t in range(m + 1))
    if spent:
        with pytest.raises(BudgetExceededError) as exc:
            call(spent - 1)
        assert str(exc.value) == (
            f"Pareto-scan allocation prefixes exceed the limit of {spent - 1}"
        )


def test_a_search_cut_at_the_root_spends_nothing():
    # every value is 0, so no agent can gain and the search stops at once
    inst = Instance(((F(0),) * 12,) * 2)
    alloc = allocation([0] * 12, 2)
    assert spend_of(
        lambda limit: is_pareto_optimal_bruteforce(inst, alloc, limit)
    ) == (True, 0)
    assert is_pareto_optimal_bruteforce(inst, alloc, 1)


@pytest.mark.parametrize(
    "rows, owner, verdict",
    [
        # a chore held by an agent who minds it, though another does not
        ([[0, 2], [-3, 1]], [1, 0], False),
        ([[0, 2], [-3, 1]], [0, 0], True),
        # swapping two goods helps both agents
        ([[1, 2], [2, 1]], [0, 1], False),
        # zero items: moving them changes no utility
        ([[0, 0, 1], [0, 0, 1]], [0, 1, 1], True),
        # identical goods: every allocation is Pareto optimal
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [0, 0, 0], True),
        # a good the holder values at 0 but another agent wants
        ([[0, 1], [1, 0]], [0, 1], False),
    ],
)
def test_small_cases(rows, owner, verdict):
    inst = Instance(tuple(tuple(map(F, row)) for row in rows))
    alloc = allocation(owner, len(rows))
    assert ref_is_pareto_optimal(inst, alloc, 10**6) is verdict
    assert is_pareto_optimal_bruteforce(inst, alloc) is verdict


def test_a_pareto_optimal_allocation_below_the_largest_sum_is_searched():
    """Each item goes to the largest of w_i * v_i(t) under unequal weights:
    Pareto optimal, but not the largest utility sum, so the search, not
    the sum, decides it."""
    inst = gen_random(3, 9, 9, F(1, 2), seed=1)
    rows, w = inst.scaled, (1, 2, 3)
    owner = [max(range(3), key=lambda i: w[i] * rows[i][t]) for t in range(9)]
    alloc = allocation(owner, 3)
    assert sum(rows[a][t] for t, a in enumerate(owner)) < sum(
        map(max, zip(*rows))
    )
    verdict, spent = spend_of(
        lambda limit: is_pareto_optimal_bruteforce(inst, alloc, limit)
    )
    assert verdict is ref_is_pareto_optimal(inst, alloc, 10**6) is True
    assert spent > 0


def test_many_items_do_not_recurse():
    # items are searched from an explicit stack, so a branch may be deeper
    # than the recursion limit: one agent with chores walks all m items,
    # and so does the first branch of a dominated allocation
    m = 3000
    one = gen_random(1, m, 9, F(1, 2), seed=1)
    assert is_pareto_optimal_bruteforce(one, allocation([0] * m, 1))
    # agent 0 holds every item and must keep each one, so the search of
    # this Pareto optimal allocation, below the largest utility sum, is one
    # branch m items deep
    keep = Instance(((F(1),) * m, (F(2),) * m))
    assert is_pareto_optimal_bruteforce(keep, allocation([0] * m, 2), m)
    two = Instance(((F(1),) * m, (F(0),) * m))
    assert not is_pareto_optimal_bruteforce(two, allocation([1] * m, 2), 2**m)
